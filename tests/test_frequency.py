import dataclasses
import math

import numpy as np
import pytest

from powerquery import (
    AlgorithmSchedule,
    ConditioningError,
    EigenSystem,
    QueryStep,
    RegisterLayout,
    SimulationLimitError,
    UnitarySpec,
    ValidationError,
    beta_coefficients,
    build_pe_schedule,
    constant_eigensystem,
    control_partition,
    evaluate_symbolic,
    fit_sample_grid,
    fit_trig_poly,
    frequency_sets,
    measurement_distribution,
    run_schedule,
    symbolic_run,
)
from powerquery import frequency, quantum


def brute_force_m_set(powers):
    """Oracle: frequencies reachable as subset sums of the powers."""
    sums = {0}
    for p in powers:
        sums |= {s + p for s in sums}
    return sorted(sums)


def constant_family_eigensystem(q: float, n: int) -> EigenSystem:
    """Eigensystem of the constant family at any real q (beyond the class range)."""
    base = constant_eigensystem(0.0, n)
    return EigenSystem(
        eigenvalues=base.eigenvalues + q,
        eigenvectors=base.eigenvectors,
        constant_q=q,
    )


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    qmat, r = np.linalg.qr(z)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def random_powers(rng, max_queries=8):
    t = rng.randint(1, max_queries + 1)
    return [int(p) for p in rng.randint(1, 40, size=t)]


class TestFrequencySets:
    def test_single_query(self):
        fs = frequency_sets([1])
        assert fs.l_set == (-1, 0, 1)

    def test_two_queries_one_three(self):
        fs = frequency_sets([1, 3])
        assert fs.l_set == tuple(range(-4, 5))
        assert len(fs.l_set) == 9 == 3 ** 2
        assert fs.sharp

    def test_phase_estimation_powers(self):
        fs = frequency_sets([4, 2, 1])
        assert fs.m_set == tuple(range(8))
        assert fs.l_set == tuple(range(-7, 8))

    def test_m_set_is_subset_sums(self):
        rng = np.random.RandomState(21)
        for _ in range(50):
            powers = random_powers(rng, max_queries=6)
            fs = frequency_sets(powers)
            assert list(fs.m_set) == brute_force_m_set(powers)

    def test_l_set_is_difference_set(self):
        rng = np.random.RandomState(22)
        for _ in range(50):
            powers = random_powers(rng, max_queries=6)
            fs = frequency_sets(powers)
            diffs = sorted({a - b for a in fs.m_set for b in fs.m_set})
            assert list(fs.l_set) == diffs

    def test_cardinality_bounds(self):
        rng = np.random.RandomState(23)
        for _ in range(50):
            powers = random_powers(rng)
            fs = frequency_sets(powers)
            t = len(powers)
            assert len(fs.m_set) <= 2 ** t
            assert len(fs.l_set) <= 3 ** t

    def test_symmetry(self):
        fs = frequency_sets([2, 5, 11])
        assert set(fs.l_set) == {-l for l in fs.l_set}

    def test_triple_powers_are_sharp(self):
        for t in range(1, 7):
            fs = frequency_sets([3 ** i for i in range(t)])
            assert len(fs.l_set) == 3 ** t

    def test_rejects_bad_powers(self):
        with pytest.raises(ValidationError):
            frequency_sets([])
        with pytest.raises(ValidationError):
            frequency_sets([1, 0])


class TestSymbolicRun:
    def test_base_case_no_queries(self):
        layout = RegisterLayout(control_qubits=1, target_dim=2)
        eig = constant_eigensystem(0.0, 2)
        schedule = AlgorithmSchedule(layout=layout, initial_target=[1, 0],
                                     initial_unitary=UnitarySpec.identity(), steps=())
        coeffs = symbolic_run(schedule, eig)
        assert coeffs.m_values == (0,)
        entries = coeffs.entries()
        assert set(entries) == {(0, 1, 0)}
        assert entries[(0, 1, 0)] == pytest.approx(1.0)

    def test_one_query_after_hadamard(self):
        layout = RegisterLayout(control_qubits=1, target_dim=2)
        eig = constant_eigensystem(0.0, 2)
        schedule = AlgorithmSchedule(
            layout=layout,
            initial_target=[1, 0],
            initial_unitary=UnitarySpec.hadamard_layer(),
            steps=(QueryStep(control_bit=1, power=1, unitary=UnitarySpec.identity()),),
        )
        coeffs = symbolic_run(schedule, eig)
        entries = coeffs.entries()
        assert abs(entries[(0, 1, 0)]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert abs(entries[(1, 1, 1)]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert (0, 1, 1) not in entries

    def test_matches_numeric_simulator(self):
        rng = np.random.RandomState(31)
        schedule = build_pe_schedule(4, 8)
        coeffs = symbolic_run(schedule, constant_eigensystem(0.0, 8))
        for q in rng.uniform(0, 1, size=8):
            numeric = run_schedule(schedule, constant_eigensystem(q, 8))
            symbolic = evaluate_symbolic(coeffs, q)
            assert np.abs(numeric.amplitudes - symbolic.amplitudes).max() < 1e-10

    def test_matches_numeric_with_generic_unitaries(self):
        rng = np.random.RandomState(32)
        layout = RegisterLayout(control_qubits=2, target_dim=2)

        def rand_unitary(dim):
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            qmat, r = np.linalg.qr(z)
            return qmat * (np.diag(r) / np.abs(np.diag(r)))

        steps = tuple(
            QueryStep(control_bit=int(rng.randint(1, 3)), power=int(rng.randint(1, 5)),
                      unitary=UnitarySpec.full_dense(rand_unitary(8)))
            for _ in range(3)
        )
        schedule = AlgorithmSchedule(
            layout=layout, initial_target=[0, 1],
            initial_unitary=UnitarySpec.control_dense(rand_unitary(4)), steps=steps)
        eig0 = constant_family_eigensystem(0.0, 2)
        coeffs = symbolic_run(schedule, eig0)
        for q in rng.uniform(0, 1, size=6):
            numeric = run_schedule(schedule, constant_family_eigensystem(q, 2))
            symbolic = evaluate_symbolic(coeffs, q)
            assert np.abs(numeric.amplitudes - symbolic.amplitudes).max() < 1e-10

    def test_matches_numeric_on_live_subsets(self):
        rng = np.random.RandomState(33)
        for _ in range(10):
            c, n = int(rng.randint(1, 4)), int(rng.randint(2, 6))
            layout = RegisterLayout(control_qubits=c, target_dim=n)
            live = np.sort(rng.choice(n, size=rng.randint(1, n), replace=False))
            target = np.zeros(n, dtype=complex)
            target[live] = rng.standard_normal(live.size) + 1j * rng.standard_normal(live.size)
            steps = tuple(
                QueryStep(control_bit=int(rng.randint(1, c + 1)), power=int(rng.randint(1, 6)),
                          unitary=UnitarySpec.control_dense(random_unitary(1 << c, rng)))
                for _ in range(int(rng.randint(1, 4)))
            )
            schedule = AlgorithmSchedule(
                layout=layout, initial_target=target / np.linalg.norm(target),
                initial_unitary=UnitarySpec.hadamard_layer(), steps=steps)
            coeffs = symbolic_run(schedule, constant_eigensystem(0.0, n))
            assert coeffs.columns == tuple(live.tolist())
            assert coeffs.table.shape[2] == live.size and coeffs.target_dim == n
            for q in rng.uniform(0, 1, size=4):
                numeric = run_schedule(schedule, constant_eigensystem(q, n))
                symbolic = evaluate_symbolic(coeffs, q)
                assert np.abs(numeric.amplitudes - symbolic.amplitudes).max() <= 1e-12

    def test_norm_history(self):
        schedule = build_pe_schedule(4, 8)
        coeffs = symbolic_run(schedule, constant_eigensystem(0.3, 8))
        assert len(coeffs.norm_history) == 1 + 2 * 4
        assert max(abs(v - 1) for v in coeffs.norm_history) <= 1e-12

    def test_evaluation_at_zero_is_plain_sum(self):
        schedule = build_pe_schedule(3, 4)
        coeffs = symbolic_run(schedule, constant_eigensystem(0.0, 4))
        state = evaluate_symbolic(coeffs, 0.0)
        stored = state.amplitudes[:, coeffs.columns]
        assert np.abs(stored - coeffs.table.sum(axis=0)).max() < 1e-12
        assert not np.any(np.delete(state.amplitudes, coeffs.columns, axis=1))

    def test_entry_limit(self, monkeypatch):
        monkeypatch.setattr(frequency, "DEFAULT_ENTRY_LIMIT", 100)
        schedule = build_pe_schedule(5, 4)
        with pytest.raises(SimulationLimitError, match="step"):
            symbolic_run(schedule, constant_eigensystem(0.0, 4))

    def test_evaluation_range_check(self):
        schedule = build_pe_schedule(2, 2)
        coeffs = symbolic_run(schedule, constant_eigensystem(0.0, 2))
        with pytest.raises(ValidationError):
            evaluate_symbolic(coeffs, 1.0)
        with pytest.raises(ValidationError):
            evaluate_symbolic(coeffs, -0.2)

    def test_requires_constant_family(self):
        schedule = build_pe_schedule(2, 3)
        eig = constant_eigensystem(0.0, 3)
        stripped = EigenSystem(eigenvalues=eig.eigenvalues, eigenvectors=eig.eigenvectors,
                               constant_q=None)
        with pytest.raises(ValidationError, match="constant"):
            symbolic_run(schedule, stripped)


class TestBetaCoefficients:
    def setup_method(self):
        self.schedule = build_pe_schedule(3, 4)
        self.eig0 = constant_eigensystem(0.0, 4)
        self.coeffs = symbolic_run(self.schedule, self.eig0)
        self.total = self.coeffs.outcome_count

    def test_singleton_partition(self):
        betas = beta_coefficients(self.coeffs, [range(self.total)])
        zero = betas.l_values.index(0)
        assert betas.table[0, zero] == pytest.approx(1.0, abs=1e-12)
        others = np.delete(np.abs(betas.table[0]), zero)
        assert others.max() < 1e-12

    def test_block_probability_matches_simulator(self):
        rng = np.random.RandomState(41)
        assignment = rng.randint(0, 3, size=self.total)
        blocks = [np.nonzero(assignment == b)[0] for b in range(3)]
        betas = beta_coefficients(self.coeffs, blocks)
        for q in rng.uniform(0, 1, size=16):
            state = run_schedule(self.schedule, constant_eigensystem(q, 4))
            probs = np.abs(state.amplitudes.reshape(-1)) ** 2
            for b, block in enumerate(blocks):
                assert betas.block_probability(b, q) == pytest.approx(
                    probs[block].sum(), abs=1e-10)

    def test_block_sum_bound_random_partitions(self):
        rng = np.random.RandomState(42)
        for _ in range(20):
            block_count = rng.randint(1, 6)
            assignment = rng.randint(0, block_count, size=self.total)
            blocks = [np.nonzero(assignment == b)[0] for b in range(block_count)]
            blocks = [b for b in blocks if b.size]
            betas = beta_coefficients(self.coeffs, blocks)
            assert np.abs(betas.table).sum(axis=0).max() <= 1 + 1e-10

    def test_block_sum_bound_on_random_schedules(self):
        rng = np.random.RandomState(44)
        layout = RegisterLayout(control_qubits=2, target_dim=3)

        def rand_unitary(dim):
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            qmat, r = np.linalg.qr(z)
            return qmat * (np.diag(r) / np.abs(np.diag(r)))

        for _ in range(5):
            steps = tuple(
                QueryStep(control_bit=int(rng.randint(1, 3)), power=int(rng.randint(1, 7)),
                          unitary=UnitarySpec.control_dense(rand_unitary(4)))
                for _ in range(int(rng.randint(1, 4)))
            )
            target = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            target /= np.linalg.norm(target)
            schedule = AlgorithmSchedule(
                layout=layout, initial_target=target,
                initial_unitary=UnitarySpec.hadamard_layer(), steps=steps)
            coeffs = symbolic_run(schedule, constant_eigensystem(0.0, 3))
            total = coeffs.outcome_count
            for _ in range(10):
                count = rng.randint(1, 5)
                assignment = rng.randint(0, count, size=total)
                blocks = [np.nonzero(assignment == b)[0] for b in range(count)]
                betas = beta_coefficients(coeffs, [b for b in blocks if b.size])
                assert np.abs(betas.table).sum(axis=0).max() <= 1 + 1e-10

    def test_stored_table_matches_zero_padded_reference(self):
        rng = np.random.RandomState(45)
        for target in ([1.0], [0.0, 0.6, 0.0, 0.8]):
            n = len(target)
            coeffs = symbolic_run(build_pe_schedule(4, n, initial_target=target),
                                  constant_eigensystem(0.0, n))
            padded = np.zeros(coeffs.table.shape[:2] + (n,), dtype=complex)
            padded[:, :, list(coeffs.columns)] = coeffs.table
            full = dataclasses.replace(coeffs, table=padded, columns=tuple(range(n)))
            assert coeffs.entries() == full.entries()
            for _ in range(5):
                count = rng.randint(1, 5)
                assignment = rng.randint(0, count, size=coeffs.outcome_count)
                blocks = [b for b in (np.nonzero(assignment == b)[0] for b in range(count))
                          if b.size]
                stored = beta_coefficients(coeffs, blocks)
                reference = beta_coefficients(full, blocks)
                assert stored.l_values == reference.l_values
                assert np.abs(stored.table - reference.table).max() <= 1e-15

    @pytest.mark.parametrize("target", [[1.0, 0.0, 0.0, 0.0], [0.0, 0.6, 0.0, 0.8],
                                        [0.5, -0.5, 0.5j, 0.5]])
    def test_matches_brute_force_autocorrelation(self, target, monkeypatch):
        # sum over the block's outcomes o and frequencies m of conj(c_{o,m}) c_{o,m+l}
        rng = np.random.RandomState(46)
        coeffs = symbolic_run(build_pe_schedule(4, 4, initial_target=target),
                              constant_eigensystem(0.0, 4))
        index = {m: i for i, m in enumerate(coeffs.m_values)}
        c = np.zeros((coeffs.outcome_count, len(coeffs.m_values)), dtype=complex)
        for (k, s, m), value in coeffs.entries().items():
            c[k * coeffs.target_dim + s - 1, index[m]] = value
        for _ in range(5):
            count = rng.randint(1, 6)
            assignment = rng.randint(0, count, size=coeffs.outcome_count)
            blocks = [b for b in (np.nonzero(assignment == b)[0] for b in range(count))
                      if b.size]
            betas = beta_coefficients(coeffs, blocks)
            for b, block in enumerate(blocks):
                for i, l in enumerate(betas.l_values):
                    brute = sum(np.vdot(c[block, index[m]], c[block, index[m + l]])
                                for m in coeffs.m_values if m + l in index)
                    assert abs(betas.table[b, i] - brute) <= 1e-14
            # five spectrum rows per piece: several pieces and a ragged last one
            nfft = 2 * (max(coeffs.m_values) - min(coeffs.m_values) + 1)
            stored_rows = coeffs.control_dim * len(coeffs.columns)
            assert stored_rows > 5 and stored_rows % 5
            ffts = []
            with monkeypatch.context() as patch:
                patch.setattr(quantum, "CHUNK_BYTES", 5 * 16 * nfft)
                fft = np.fft.fft
                patch.setattr(np.fft, "fft", lambda a, *args, **kw: ffts.append(len(a))
                              or fft(a, *args, **kw))
                pieced = beta_coefficients(coeffs, blocks)
            assert ffts == [5] * (stored_rows // 5) + [stored_rows % 5]
            assert pieced.l_values == betas.l_values
            assert pieced.table.tobytes() == betas.table.tobytes()

    def test_conjugate_symmetry(self):
        betas = beta_coefficients(self.coeffs, [range(self.total)])
        lv = list(betas.l_values)
        for i, l in enumerate(lv):
            j = lv.index(-l)
            assert betas.table[0, i] == pytest.approx(np.conj(betas.table[0, j]), abs=1e-12)

    def test_probabilities_real_and_bounded(self):
        rng = np.random.RandomState(43)
        assignment = rng.randint(0, 2, size=self.total)
        blocks = [np.nonzero(assignment == b)[0] for b in range(2)]
        betas = beta_coefficients(self.coeffs, blocks)
        qs = np.linspace(0, 1, 256, endpoint=False)
        for b in range(2):
            vals = betas.block_probability(b, qs)
            assert vals.min() >= -1e-10
            assert vals.max() <= 1 + 1e-10

    def test_rejects_non_partition(self):
        with pytest.raises(ValidationError, match="partition"):
            beta_coefficients(self.coeffs, [range(self.total - 1)])
        with pytest.raises(ValidationError, match="partition"):
            beta_coefficients(self.coeffs, [range(self.total), [0]])

    def test_control_partition_expansion(self):
        blocks = control_partition(self.coeffs, [[0, 2], [1] + list(range(3, 8))])
        assert sorted(np.concatenate(blocks).tolist()) == list(range(self.total))
        assert set(blocks[0]) == {0, 1, 2, 3, 8, 9, 10, 11}


class TestTrigPolyFit:
    def test_round_trip_known_coefficients(self):
        rng = np.random.RandomState(51)
        fs = frequency_sets([1, 3])
        half = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coeff = np.concatenate([half, [rng.standard_normal()], np.conj(half[::-1])])
        qs = fit_sample_grid(256)
        basis = np.exp(0.5j * np.outer(qs, fs.l_set))
        samples = list(zip(qs, (basis @ coeff).real))
        fit = fit_trig_poly(samples, fs)
        assert np.abs(fit.coefficients - coeff).max() < 1e-8
        assert fit.residual <= 1e-10

    def test_support_necessity(self):
        # one-outcome probability of a 2-query schedule needs the full support
        schedule = build_pe_schedule(2, 2)
        qs = fit_sample_grid(256)
        probs = []
        for q in qs:
            state = run_schedule(schedule, constant_family_eigensystem(float(q), 2))
            probs.append(measurement_distribution(state).probabilities[0])
        full = fit_trig_poly(zip(qs, probs), frequency_sets([1, 2]))
        truncated = fit_trig_poly(zip(qs, probs), frequency_sets([1]))
        assert full.residual <= 1e-8
        assert truncated.residual > 1e-4

    def test_constant_function(self):
        qs = fit_sample_grid(64)
        fit = fit_trig_poly([(q, 0.25) for q in qs], [-1, 0, 1])
        coeffs = dict(zip(fit.frequencies, fit.coefficients))
        assert coeffs[0] == pytest.approx(0.25, abs=1e-12)
        assert abs(coeffs[1]) < 1e-12 and abs(coeffs[-1]) < 1e-12

    def test_conditioning_error_on_clustered_samples(self):
        qs = np.linspace(0, 1e-6, 40)
        samples = [(q, 1.0) for q in qs]
        with pytest.raises(ConditioningError, match="condition"):
            fit_trig_poly(samples, list(range(-4, 5)))

    def test_requires_enough_distinct_samples(self):
        with pytest.raises(ValidationError, match="samples"):
            fit_trig_poly([(0.0, 1.0), (0.1, 1.0)], [-1, 0, 1])
        qs = [0.1] * 8
        with pytest.raises(ValidationError, match="distinct"):
            fit_trig_poly([(q, 1.0) for q in qs], [0])
