import dataclasses
import functools

import numpy as np
import pytest

from powerquery import (
    AlgorithmSchedule,
    QueryStep,
    RegisterLayout,
    SimulationLimitError,
    UnitarySpec,
    ValidationError,
    apply_hadamard_layer,
    apply_inverse_qft,
    apply_power_query,
    apply_unitary,
    constant_eigensystem,
    control_distribution,
    init_state,
    measurement_distribution,
    run_schedule,
    sample_outcomes,
)
from powerquery import EigenSystem, quantum
from powerquery.quantum import (StateVector, apply_unitary_array, control_rows,
                                live_columns, squared_norm)


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(layout, rng):
    amp = rng.standard_normal((layout.control_dim, layout.target_dim)) \
        + 1j * rng.standard_normal((layout.control_dim, layout.target_dim))
    amp /= np.linalg.norm(amp)
    return StateVector(layout=layout, amplitudes=amp)


def random_target(n, live, rng):
    target = np.zeros(n, dtype=complex)
    target[live] = rng.standard_normal(live.size) + 1j * rng.standard_normal(live.size)
    return target / np.linalg.norm(target)


def random_sparse_schedule(rng, full_dense=False, max_n=5):
    """Random schedule whose target fills a random subset of the eigencolumns.

    The initial unitary is a random control-dense matrix, which spreads the
    target over the whole control register.  The step unitaries are
    control-dense, Hadamard, inverse QFT or identity; with `full_dense` one
    unitary, chosen at random, is a full-space matrix.
    """
    c, n = int(rng.randint(1, 4)), int(rng.randint(1, max_n + 1))
    layout = RegisterLayout(control_qubits=c, target_dim=n)
    live = np.sort(rng.choice(n, size=rng.randint(1, n + 1), replace=False))

    def unitary():
        kind = rng.randint(4)
        if kind == 0:
            return UnitarySpec.control_dense(random_unitary(layout.control_dim, rng))
        return (UnitarySpec.hadamard_layer(), UnitarySpec.inverse_qft(),
                UnitarySpec.identity())[kind - 1]

    count = int(rng.randint(0, 5))
    unitaries = [UnitarySpec.control_dense(random_unitary(layout.control_dim, rng))]
    unitaries += [unitary() for _ in range(count)]
    if full_dense:
        unitaries[rng.randint(count + 1)] = UnitarySpec.full_dense(
            random_unitary(layout.control_dim * n, rng))
    steps = tuple(QueryStep(control_bit=int(rng.randint(1, c + 1)),
                            power=int(rng.randint(1, 9)), unitary=u)
                  for u in unitaries[1:])
    return AlgorithmSchedule(layout=layout, initial_target=random_target(n, live, rng),
                             initial_unitary=unitaries[0], steps=steps), live


def reference_run(schedule, eig) -> np.ndarray:
    """Full-width (2^c, n) propagation with explicit matrices: the runner's reference."""
    c, n = schedule.layout.control_qubits, schedule.layout.target_dim
    rows = 1 << c
    k = np.arange(rows)
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    control = {
        UnitarySpec.IDENTITY: np.eye(rows),
        UnitarySpec.HADAMARD_LAYER: functools.reduce(np.kron, [hadamard] * c, np.eye(1)),
        UnitarySpec.INVERSE_QFT: np.exp(-2j * np.pi * np.outer(k, k) / rows) / np.sqrt(rows),
    }

    def apply(spec, amp):
        if spec.kind == UnitarySpec.FULL_DENSE:
            standard = (amp @ eig.eigenvectors.T).reshape(-1)
            return (spec.matrix @ standard).reshape(rows, n) @ eig.eigenvectors
        return control.get(spec.kind, spec.matrix) @ amp

    amp = np.zeros((rows, n), dtype=complex)
    amp[0] = schedule.initial_target
    amp = apply(schedule.initial_unitary, amp)
    for step in schedule.steps:
        bit_set = ((k >> (c - step.control_bit)) & 1).astype(bool)
        amp[bit_set] *= np.exp(0.5j * step.power * eig.eigenvalues)
        amp = apply(step.unitary, amp)
    return amp


class TestLayoutAndInit:
    def test_amplitude_limit(self):
        with pytest.raises(SimulationLimitError):
            RegisterLayout(control_qubits=20, target_dim=64)

    def test_init_places_target_in_zero_block(self):
        layout = RegisterLayout(control_qubits=2, target_dim=2)
        state = init_state(layout, [1, 0])
        assert state.amplitudes[0, 0] == 1
        assert np.abs(state.amplitudes).sum() == 1

    def test_init_no_controls(self):
        layout = RegisterLayout(control_qubits=0, target_dim=3)
        state = init_state(layout, [0, 1, 0])
        assert state.amplitudes.shape == (1, 3)
        assert state.amplitudes[0, 1] == 1

    def test_init_superposed_target(self):
        layout = RegisterLayout(control_qubits=1, target_dim=2)
        state = init_state(layout, [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.allclose(state.amplitudes[0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.allclose(state.amplitudes[1], 0)

    def test_init_rejects_unnormalized(self):
        layout = RegisterLayout(control_qubits=1, target_dim=2)
        with pytest.raises(ValidationError, match="norm"):
            init_state(layout, [1.0, 0.5])


class TestNormCheck:
    def test_equal_rows_at_2_20_amplitudes_accepted(self):
        # sequential BLAS summation misread this exact unit state by >1e-12
        layout = RegisterLayout(control_qubits=20, target_dim=1)
        amp = np.full((1 << 20, 1), np.exp(1.3j) / 1024)
        state = StateVector(layout=layout, amplitudes=amp)
        assert squared_norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_small_deviation_still_rejected(self):
        layout = RegisterLayout(control_qubits=20, target_dim=1)
        amp = np.full((1 << 20, 1), np.exp(1.3j) / 1024) * (1 + 1e-11)
        with pytest.raises(ValidationError, match="norm"):
            StateVector(layout=layout, amplitudes=amp)


class TestControlRows:
    def test_bit_order(self):
        k = np.arange(8)[:, None]
        assert control_rows(k, 1, 1).ravel().tolist() == [4, 5, 6, 7]
        assert control_rows(k, 2, 1).ravel().tolist() == [2, 3, 6, 7]
        assert control_rows(k, 3, 1).ravel().tolist() == [1, 3, 5, 7]
        assert control_rows(k, 3, 0).ravel().tolist() == [0, 2, 4, 6]

    def test_leading_axes_and_write_through(self):
        table = np.zeros((3, 4, 2))
        control_rows(table, 2, 1)[1] = 5.0
        assert np.array_equal(np.nonzero(table[1, :, 0])[0], [1, 3])
        assert table[0].max() == 0 and table[2].max() == 0

    def test_rejects_bit_outside_register(self):
        with pytest.raises(ValidationError, match="control bit"):
            control_rows(np.zeros((4, 1)), 3, 1)


class TestPowerQuery:
    def test_control_bit_zero_is_identity(self):
        layout = RegisterLayout(control_qubits=1, target_dim=2)
        eig = constant_eigensystem(0.0, 2)
        state = init_state(layout, [1, 0])  # control |0>
        out = apply_power_query(state, 1, 3, eig)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_phase_factor_n1(self):
        # single eigenvalue 8 gives the factor exp(4i) on the controlled branch
        layout = RegisterLayout(control_qubits=1, target_dim=1)
        eig = constant_eigensystem(0.0, 1)
        amp = np.array([[1], [1]], dtype=complex) / np.sqrt(2)
        state = StateVector(layout=layout, amplitudes=amp)
        out = apply_power_query(state, 1, 1, eig)
        assert out.amplitudes[1, 0] == pytest.approx(np.exp(4j) / np.sqrt(2), abs=1e-12)
        assert out.amplitudes[0, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_power_additivity(self):
        rng = np.random.RandomState(0)
        layout = RegisterLayout(control_qubits=2, target_dim=3)
        eig = constant_eigensystem(0.7, 3)
        state = random_state(layout, rng)
        once = apply_power_query(state, 1, 2, eig)
        twice = apply_power_query(apply_power_query(state, 1, 1, eig), 1, 1, eig)
        assert np.abs(once.amplitudes - twice.amplitudes).max() < 1e-12

    def test_commutes_with_bit_diagonal_control_unitary(self):
        # a control unitary that never mixes the queried bit's branches
        rng = np.random.RandomState(5)
        layout = RegisterLayout(control_qubits=2, target_dim=2)
        eig = constant_eigensystem(0.3, 2)
        bit = 1
        k = np.arange(layout.control_dim)[:, None]
        mat = np.zeros((4, 4), dtype=complex)
        for value in (0, 1):
            idx = control_rows(k, bit, value).reshape(-1)
            mat[np.ix_(idx, idx)] = random_unitary(idx.size, rng)
        spec = UnitarySpec.control_dense(mat)
        state = random_state(layout, rng)
        a = apply_unitary(apply_power_query(state, bit, 3, eig), spec)
        b = apply_power_query(apply_unitary(state, spec), bit, 3, eig)
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-12


class TestHadamardLayer:
    def test_single_qubit(self):
        layout = RegisterLayout(control_qubits=1, target_dim=1)
        state = init_state(layout, [1])
        out = apply_hadamard_layer(state)
        assert np.allclose(out.amplitudes[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_involution(self):
        rng = np.random.RandomState(1)
        layout = RegisterLayout(control_qubits=3, target_dim=2)
        state = random_state(layout, rng)
        out = apply_hadamard_layer(apply_hadamard_layer(state))
        assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12

    def test_uniform_from_zero(self):
        layout = RegisterLayout(control_qubits=2, target_dim=1)
        out = apply_hadamard_layer(init_state(layout, [1]))
        assert np.allclose(out.amplitudes[:, 0], 0.5)


class TestInverseQft:
    def test_size_two_equals_hadamard(self):
        rng = np.random.RandomState(2)
        layout = RegisterLayout(control_qubits=1, target_dim=2)
        state = random_state(layout, rng)
        a = apply_inverse_qft(state)
        b = apply_hadamard_layer(state)
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-12

    def test_uniform_goes_to_zero_state(self):
        layout = RegisterLayout(control_qubits=3, target_dim=1)
        state = apply_hadamard_layer(init_state(layout, [1]))
        out = apply_inverse_qft(state)
        probs = np.abs(out.amplitudes[:, 0]) ** 2
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_pure_tone_lands_on_bin(self):
        layout = RegisterLayout(control_qubits=2, target_dim=1)
        j = np.arange(4)
        amp = (np.exp(2j * np.pi * 0.25 * j) / 2.0)[:, None]
        state = StateVector(layout=layout, amplitudes=amp)
        out = apply_inverse_qft(state)
        assert np.abs(out.amplitudes[1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_partial_range(self):
        rng = np.random.RandomState(3)
        layout = RegisterLayout(control_qubits=3, target_dim=1)
        state = random_state(layout, rng)
        out = apply_inverse_qft(state, first_bit=2, last_bit=3)
        # explicit matrix on the low two bits
        f = np.exp(-2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4) / 2.0
        expected = state.amplitudes.reshape(2, 4)[:, :, None]
        expected = (f @ expected.reshape(2, 4).T).T.reshape(8, 1)
        assert np.abs(out.amplitudes - expected).max() < 1e-12


class TestApplyUnitary:
    def test_identity(self):
        layout = RegisterLayout(control_qubits=1, target_dim=2)
        state = init_state(layout, [1, 0])
        out = apply_unitary(state, UnitarySpec.identity())
        assert out is state

    def test_control_pauli_x_swaps_blocks(self):
        layout = RegisterLayout(control_qubits=1, target_dim=2)
        state = init_state(layout, [1, 0])
        out = apply_unitary(state, UnitarySpec.control_dense(np.array([[0, 1], [1, 0]])))
        assert out.amplitudes[1, 0] == 1
        assert out.amplitudes[0, 0] == 0

    def test_unitary_then_inverse(self):
        rng = np.random.RandomState(4)
        layout = RegisterLayout(control_qubits=2, target_dim=2)
        state = random_state(layout, rng)
        u = random_unitary(4, rng)
        out = apply_unitary(state, UnitarySpec.control_dense(u))
        back = apply_unitary(out, UnitarySpec.control_dense(u.conj().T))
        assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-12

    def test_full_dense_round_trip_through_bases(self):
        rng = np.random.RandomState(6)
        layout = RegisterLayout(control_qubits=1, target_dim=3)
        eig = constant_eigensystem(0.2, 3)
        state = random_state(layout, rng)
        u = random_unitary(6, rng)
        out = apply_unitary(state, UnitarySpec.full_dense(u), eig)
        back = apply_unitary(out, UnitarySpec.full_dense(u.conj().T), eig)
        assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-11

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError, match="unitary"):
            UnitarySpec.control_dense(np.array([[1.0, 0.0], [0.0, 1.1]]))

    def test_full_dense_size_limit(self):
        with pytest.raises(SimulationLimitError):
            UnitarySpec.full_dense(np.eye(8192))


class TestUnitaryKernelOnStacks:
    @pytest.mark.parametrize("kind", ["identity", "hadamard", "inverse-qft",
                                      "control-dense", "full-dense"])
    def test_stack_equals_slices(self, kind):
        rng = np.random.RandomState(11)
        c, n, m = 2, 3, 5
        eig = constant_eigensystem(0.4, n)
        spec = {
            "identity": UnitarySpec.identity(),
            "hadamard": UnitarySpec.hadamard_layer(),
            "inverse-qft": UnitarySpec.inverse_qft(),
            "control-dense": UnitarySpec.control_dense(random_unitary(1 << c, rng)),
            "full-dense": UnitarySpec.full_dense(random_unitary((1 << c) * n, rng)),
        }[kind]
        stack = rng.standard_normal((m, 1 << c, n)) + 1j * rng.standard_normal((m, 1 << c, n))
        out = apply_unitary_array(stack, spec, eig)
        assert out.shape == stack.shape
        for i in range(m):
            alone = apply_unitary_array(stack[i], spec, eig)
            assert np.abs(out[i] - alone).max() < 1e-14


class TestRunSchedule:
    def test_empty_schedule_is_initial_state(self):
        layout = RegisterLayout(control_qubits=1, target_dim=2)
        state = init_state(layout, [1, 0])
        schedule = AlgorithmSchedule(layout=layout, initial_target=[1, 0],
                                     initial_unitary=UnitarySpec.identity(), steps=())
        out = run_schedule(schedule, constant_eigensystem(0.0, 2))
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_norm_preserved_random_schedule(self):
        rng = np.random.RandomState(8)
        layout = RegisterLayout(control_qubits=2, target_dim=3)
        eig = constant_eigensystem(0.6, 3)
        steps = tuple(
            QueryStep(control_bit=rng.randint(1, 3), power=rng.randint(1, 6),
                      unitary=UnitarySpec.control_dense(random_unitary(4, rng)))
            for _ in range(4)
        )
        schedule = AlgorithmSchedule(layout=layout,
                                     initial_target=random_target(3, np.arange(3), rng),
                                     initial_unitary=UnitarySpec.hadamard_layer(), steps=steps)
        out = run_schedule(schedule, eig)
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12

    def test_joint_eigenstate_picks_up_global_phase_only(self):
        layout = RegisterLayout(control_qubits=2, target_dim=4)
        eig = constant_eigensystem(0.25, 4)
        amp = np.zeros((4, 4), dtype=complex)
        amp[3, 1] = 1.0  # control |11>, eigenvector 2
        state = StateVector(layout=layout, amplitudes=amp)
        steps = tuple(QueryStep(control_bit=b, power=p, unitary=UnitarySpec.identity())
                      for b, p in ((1, 2), (2, 5)))
        flip = UnitarySpec.control_dense(np.eye(4)[::-1])  # |00> -> |11>
        schedule = AlgorithmSchedule(layout=layout, initial_target=[0, 1, 0, 0],
                                     initial_unitary=flip, steps=steps)
        out = run_schedule(schedule, eig)
        ratio = out.amplitudes[3, 1]
        assert abs(abs(ratio) - 1) < 1e-12
        assert np.abs(out.amplitudes - ratio * state.amplitudes).max() < 1e-12

    def test_validates_control_bits(self):
        layout = RegisterLayout(control_qubits=1, target_dim=2)
        with pytest.raises(ValidationError):
            AlgorithmSchedule(layout=layout, initial_target=[1, 0],
                              initial_unitary=UnitarySpec.identity(),
                              steps=(QueryStep(control_bit=2, power=1,
                                               unitary=UnitarySpec.identity()),))


class TestLiveColumns:
    def test_nonzero_start_columns(self):
        rng = np.random.RandomState(12)
        for _ in range(30):
            schedule, live = random_sparse_schedule(rng)
            assert np.array_equal(live_columns(schedule), live)

    def test_full_dense_makes_every_column_live(self):
        rng = np.random.RandomState(13)
        for _ in range(30):
            schedule, _ = random_sparse_schedule(rng, full_dense=True)
            assert np.array_equal(live_columns(schedule), np.arange(schedule.layout.target_dim))

    @pytest.mark.parametrize("full_dense", [False, True])
    def test_run_schedule_matches_step_by_step(self, full_dense):
        rng = np.random.RandomState(14 + full_dense)
        for _ in range(40):
            schedule, _ = random_sparse_schedule(rng, full_dense)
            eig = constant_eigensystem(float(rng.uniform(0, 1)), schedule.layout.target_dim)
            target = schedule.initial_target.copy()
            ref = reference_run(schedule, eig)
            out = run_schedule(schedule, eig)
            assert out.amplitudes.shape == ref.shape
            assert np.abs(out.amplitudes - ref).max() <= 1e-12
            assert np.array_equal(schedule.initial_target, target)


class TestControlDistribution:
    @staticmethod
    def budgets(schedule, live):
        """Chunk budgets: one column per chunk, a ragged last chunk, everything at once."""
        column = 16 * schedule.layout.control_dim
        ragged = max(1, live - 1) if live > 2 else 1
        return (column, ragged * column, live * column + 1)

    @pytest.mark.parametrize("full_dense", [False, True])
    def test_matches_full_width_reference_at_every_budget(self, full_dense, monkeypatch):
        rng = np.random.RandomState(20 + full_dense)
        for _ in range(40):
            schedule, live = random_sparse_schedule(rng, full_dense, max_n=7)
            eig = constant_eigensystem(float(rng.uniform(0, 1)), schedule.layout.target_dim)
            ref = (np.abs(reference_run(schedule, eig)) ** 2).sum(axis=1)
            for budget in self.budgets(schedule, live_columns(schedule).size):
                monkeypatch.setattr(quantum, "CHUNK_BYTES", budget)
                probs = control_distribution(schedule, eig).probabilities
                assert probs.shape == ref.shape
                assert np.abs(probs - ref).max() <= 1e-15

    def test_single_column_runs_are_bit_identical_to_run_schedule(self, monkeypatch):
        rng = np.random.RandomState(22)
        for _ in range(20):
            schedule, _ = random_sparse_schedule(rng)
            n = schedule.layout.target_dim
            schedule = dataclasses.replace(schedule, initial_target=np.eye(n)[rng.randint(n)])
            eig = constant_eigensystem(float(rng.uniform(0, 1)), n)
            whole = measurement_distribution(run_schedule(schedule, eig)).probabilities
            for budget in self.budgets(schedule, 1):
                monkeypatch.setattr(quantum, "CHUNK_BYTES", budget)
                probs = control_distribution(schedule, eig).probabilities
                assert probs.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("columns_per_chunk", [1, 2, 3])
    @pytest.mark.parametrize("source", ["unitary", "query"])
    def test_scaled_amplitude_fails_chunk_norm_check(self, columns_per_chunk, source,
                                                     monkeypatch):
        # a last unitary scaled by 1 + 1e-11, or a query phase of modulus 1 - 1e-11
        layout = RegisterLayout(control_qubits=2, target_dim=3)
        eig = constant_eigensystem(0.4, 3)
        last = UnitarySpec.identity()
        if source == "unitary":
            last = UnitarySpec(kind=UnitarySpec.CONTROL_DENSE, matrix=np.eye(4) * (1 + 1e-11))
        else:
            eig = EigenSystem(eigenvalues=eig.eigenvalues + 4e-11j, eigenvectors=eig.eigenvectors)
        schedule = AlgorithmSchedule(
            layout=layout, initial_target=np.full(3, 1 / np.sqrt(3)),
            initial_unitary=UnitarySpec.hadamard_layer(),
            steps=(QueryStep(control_bit=2, power=1, unitary=UnitarySpec.identity()),
                   QueryStep(control_bit=1, power=1, unitary=last)))
        monkeypatch.setattr(quantum, "CHUNK_BYTES", 16 * 4 * columns_per_chunk)
        with pytest.raises(ValidationError, match="norm"):
            control_distribution(schedule, eig)

    def test_schedule_checks_its_target(self):
        layout = RegisterLayout(control_qubits=1, target_dim=2)
        with pytest.raises(ValidationError, match="shape"):
            AlgorithmSchedule(layout=layout, initial_target=[1, 0, 0],
                              initial_unitary=UnitarySpec.identity(), steps=())
        with pytest.raises(ValidationError, match="norm"):
            AlgorithmSchedule(layout=layout, initial_target=[1.0, 0.5],
                              initial_unitary=UnitarySpec.identity(), steps=())
        with pytest.raises(ValidationError, match="norm"):
            AlgorithmSchedule(layout=layout, initial_target=[1 + 1e-11, 0],
                              initial_unitary=UnitarySpec.identity(), steps=())

    def test_rejects_mismatched_eigensystem(self):
        schedule, _ = random_sparse_schedule(np.random.RandomState(23))
        eig = constant_eigensystem(0.0, schedule.layout.target_dim + 1)
        with pytest.raises(ValidationError, match="dimension"):
            control_distribution(schedule, eig)


class TestMeasurement:
    def test_basis_state_is_delta(self):
        layout = RegisterLayout(control_qubits=2, target_dim=1)
        dist = measurement_distribution(init_state(layout, [1]))
        assert dist.probabilities[0] == 1
        assert dist.probabilities[1:].max() == 0

    def test_uniform_control(self):
        layout = RegisterLayout(control_qubits=2, target_dim=1)
        dist = measurement_distribution(apply_hadamard_layer(init_state(layout, [1])))
        assert np.allclose(dist.probabilities, 0.25, atol=1e-12)

    def test_sums_to_one_random(self):
        rng = np.random.RandomState(9)
        layout = RegisterLayout(control_qubits=3, target_dim=4)
        for _ in range(5):
            dist = measurement_distribution(random_state(layout, rng))
            assert abs(dist.probabilities.sum() - 1) < 1e-10

    def test_joint_standard_basis_rotation(self):
        layout = RegisterLayout(control_qubits=0, target_dim=3)
        eig = constant_eigensystem(0.0, 3)
        state = init_state(layout, [1, 0, 0])  # the ground eigenvector
        dist = measurement_distribution(state, scope="joint-standard-basis", eig=eig)
        assert np.allclose(dist.probabilities, eig.eigenvectors[:, 0] ** 2, atol=1e-12)

    def test_control_marginal_matches_joint_sum(self):
        rng = np.random.RandomState(10)
        layout = RegisterLayout(control_qubits=2, target_dim=3)
        eig = constant_eigensystem(0.8, 3)
        state = random_state(layout, rng)
        control = measurement_distribution(state).probabilities
        joint = measurement_distribution(state, scope="joint-standard-basis", eig=eig)
        assert np.abs(joint.probabilities.reshape(4, 3).sum(axis=1) - control).max() < 1e-12


class TestSampling:
    def test_delta_distribution(self):
        layout = RegisterLayout(control_qubits=2, target_dim=1)
        dist = measurement_distribution(init_state(layout, [1]))
        samples = sample_outcomes(dist, 100, seed=1)
        assert np.all(samples == 0)

    def test_seed_reproducibility(self):
        layout = RegisterLayout(control_qubits=2, target_dim=1)
        dist = measurement_distribution(apply_hadamard_layer(init_state(layout, [1])))
        a = sample_outcomes(dist, 1000, seed=123)
        b = sample_outcomes(dist, 1000, seed=123)
        assert np.array_equal(a, b)
        c = sample_outcomes(dist, 1000, seed=124)
        assert not np.array_equal(a, c)

    def test_empirical_frequencies_within_binomial_noise(self):
        layout = RegisterLayout(control_qubits=2, target_dim=1)
        dist = measurement_distribution(apply_hadamard_layer(init_state(layout, [1])))
        count = 100_000
        samples = sample_outcomes(dist, count, seed=7)
        freq = np.bincount(samples, minlength=4) / count
        for k in range(4):
            p = dist.probabilities[k]
            sigma = np.sqrt(p * (1 - p) / count)
            assert abs(freq[k] - p) <= 3 * sigma
