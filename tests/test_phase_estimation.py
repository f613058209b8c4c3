import math
import tracemalloc

import numpy as np
import pytest

from powerquery import (
    EigenSystem,
    OutcomeDecoder,
    PEConfig,
    PotentialSpec,
    UnitarySpec,
    ValidationError,
    build_pe_schedule,
    constant_eigensystem,
    decode_eigenvalue,
    decode_phase,
    default_q_grid,
    measurement_distribution,
    query_count_scaling,
    run_phase_estimation,
    run_schedule,
    worst_case_error_sweep,
)
from powerquery import quantum

FOUR_PI = 4 * math.pi


def kernel_oracle(phase: float, queries: int) -> np.ndarray:
    """Exact outcome distribution by direct summation of the geometric series."""
    size = 1 << queries
    j = np.arange(size)
    probs = np.empty(size)
    for k in range(size):
        amp = np.exp(2j * np.pi * j * (phase - k / size)).sum() / size
        probs[k] = abs(amp) ** 2
    return probs


def synthetic_eigensystem(lam: float) -> EigenSystem:
    return EigenSystem(
        eigenvalues=np.array([lam]),
        eigenvectors=np.array([[1.0]]),
        constant_q=0.0,
    )


class TestScheduleShape:
    def test_application_order_t3(self):
        schedule = build_pe_schedule(3, 4)
        assert [(s.control_bit, s.power) for s in schedule.steps] == [(3, 1), (2, 2), (1, 4)]

    def test_bit_j_carries_power(self):
        for queries in (1, 4, 7):
            schedule = build_pe_schedule(queries, 2)
            carried = {s.control_bit: s.power for s in schedule.steps}
            assert carried == {j: 1 << (queries - j) for j in range(1, queries + 1)}

    def test_total_power(self):
        for queries in (1, 5, 9):
            schedule = build_pe_schedule(queries, 2)
            assert sum(schedule.powers) == (1 << queries) - 1

    def test_unitaries(self):
        schedule = build_pe_schedule(4, 2)
        assert schedule.initial_unitary.kind == UnitarySpec.HADAMARD_LAYER
        kinds = [s.unitary.kind for s in schedule.steps]
        assert kinds[:-1] == [UnitarySpec.IDENTITY] * 3
        assert kinds[-1] == UnitarySpec.INVERSE_QFT

    def test_t1_final_equals_hadamard(self):
        # inverse transform of size 2 acts as the Hadamard gate
        eig = constant_eigensystem(0.5, 2)
        schedule = build_pe_schedule(1, 2)
        out = run_schedule(schedule, eig)
        oracle = kernel_oracle(eig.eigenvalues[0] / FOUR_PI, 1)
        assert np.abs(measurement_distribution(out).probabilities - oracle).max() < 1e-12


class TestDecoding:
    def test_zero(self):
        assert decode_phase(0, 5) == 0.0

    def test_bit_pattern(self):
        assert decode_phase(0b1100, 4) == 0.75

    def test_all_ones(self):
        for queries in (1, 3, 8):
            assert decode_phase((1 << queries) - 1, queries) == 1 - 2.0 ** -queries

    def test_eigenvalue_map(self):
        assert decode_eigenvalue(0.0) == 0.0
        assert decode_eigenvalue(0.5) == pytest.approx(2 * math.pi, abs=1e-12)
        assert decode_eigenvalue(math.pi / 4) == pytest.approx(math.pi ** 2, abs=1e-12)

    def test_decode_all_matches_per_outcome_decoding(self):
        for queries in (1, 4, 11):
            decoder = OutcomeDecoder(queries=queries)
            loop = np.array([decode_eigenvalue(decode_phase(k, queries))
                             for k in range(1 << queries)])
            assert np.array_equal(decoder.decode_all(), loop)

    def test_range_checks(self):
        with pytest.raises(ValidationError):
            decode_phase(16, 4)
        with pytest.raises(ValidationError):
            decode_eigenvalue(1.0)


class TestExactPhase:
    @pytest.mark.parametrize("queries,index", [(3, 3), (6, 21), (10, 500)])
    def test_representable_phase_is_deterministic(self, queries, index):
        lam = FOUR_PI * index / (1 << queries)
        eig = synthetic_eigensystem(lam)
        out = run_schedule(build_pe_schedule(queries, 1), eig)
        probs = measurement_distribution(out).probabilities
        assert probs[index] == pytest.approx(1.0, abs=1e-10)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)


class TestRunPhaseEstimation:
    def test_success_claim_single_config(self):
        cfg = PEConfig(queries=10, grid_size=128, potential=PotentialSpec.constant(0.5),
                       epsilon=FOUR_PI * 2.0 ** -10)
        result = run_phase_estimation(cfg)
        assert result.success_probability >= 0.75

    def test_perturbed_with_full_overlap_equals_exact(self):
        base = PEConfig(queries=5, grid_size=16, potential=PotentialSpec.constant(0.3),
                        epsilon=1e-2)
        exact = run_phase_estimation(base)
        perturbed = run_phase_estimation(
            PEConfig(queries=5, grid_size=16, potential=PotentialSpec.constant(0.3),
                     epsilon=1e-2, mode="perturbed", overlap=1.0))
        assert np.abs(exact.distribution.probabilities
                      - perturbed.distribution.probabilities).max() < 1e-14

    def test_perturbed_success_scales_with_overlap(self):
        overlap = 0.95
        cfg = PEConfig(queries=8, grid_size=32, potential=PotentialSpec.constant(0.2),
                       epsilon=FOUR_PI * 2.0 ** -7, mode="perturbed", overlap=overlap)
        result = run_phase_estimation(cfg)
        pure = run_phase_estimation(
            PEConfig(queries=8, grid_size=32, potential=PotentialSpec.constant(0.2),
                     epsilon=FOUR_PI * 2.0 ** -7))
        assert result.success_probability == pytest.approx(
            overlap ** 2 * pure.success_probability, abs=5e-3)

    def test_low_overlap_rejected_by_default(self):
        with pytest.raises(ValidationError, match="overlap"):
            PEConfig(queries=3, grid_size=8, potential=PotentialSpec.constant(0.1),
                     epsilon=1e-2, mode="perturbed", overlap=0.5)
        PEConfig(queries=3, grid_size=8, potential=PotentialSpec.constant(0.1),
                 epsilon=1e-2, mode="perturbed", overlap=0.5,
                 enforce_overlap_floor=False)

    def test_matches_kernel_oracle_at_random_potentials(self):
        rng = np.random.RandomState(11)
        queries, n = 6, 16
        for q in rng.uniform(0, 1, size=32):
            cfg = PEConfig(queries=queries, grid_size=n,
                           potential=PotentialSpec.constant(q), epsilon=1e-3)
            result = run_phase_estimation(cfg)
            oracle = kernel_oracle(result.phase, queries)
            assert np.abs(result.distribution.probabilities - oracle).max() < 1e-10

    def test_general_potential_goes_through_solver(self):
        cfg = PEConfig(queries=4, grid_size=12,
                       potential=PotentialSpec.polynomial([0.1, 0.2, 0.05]),
                       epsilon=0.5)
        result = run_phase_estimation(cfg)
        assert abs(result.distribution.probabilities.sum() - 1) < 1e-10
        # the decoded peak should sit near the true eigenvalue
        peak = int(np.argmax(result.distribution.probabilities))
        assert abs(result.lambda_estimates[peak] - result.lambda_true) < FOUR_PI * 2.0 ** -4


class TestWorkingSet:
    """Phase estimation holds the live columns, a chunk at a time, not the (2^T, n) state."""

    @staticmethod
    def peak_mib(cfg):
        tracemalloc.start()
        try:
            run_phase_estimation(cfg)
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def test_exact_mode_holds_one_column(self):
        # the full-width state alone is 32 MiB
        cfg = PEConfig(queries=14, grid_size=128, potential=PotentialSpec.constant(0.5),
                       epsilon=1e-3)
        assert self.peak_mib(cfg) <= 4

    def test_perturbed_mode_holds_one_chunk(self, monkeypatch):
        monkeypatch.setattr(quantum, "CHUNK_BYTES", 2 * 2 ** 20)
        cfg = PEConfig(queries=14, grid_size=128,
                       potential=PotentialSpec.polynomial([0.1, 0.2, 0.05]),
                       epsilon=1e-2, mode="perturbed", overlap=0.95)
        assert self.peak_mib(cfg) <= 16


class TestWorstCaseError:
    def test_upper_bound_over_t(self):
        grid = default_q_grid(16)
        for queries in range(4, 13):
            report = worst_case_error_sweep(queries, 8, grid)
            assert report.epsilon_achieved <= FOUR_PI * 2.0 ** (-queries + 1)

    def test_halving_between_consecutive_t(self):
        grid = default_q_grid(64)
        e10 = worst_case_error_sweep(10, 8, grid).epsilon_achieved
        e11 = worst_case_error_sweep(11, 8, grid).epsilon_achieved
        assert 0.4 <= e11 / e10 <= 0.6

    def test_zero_threshold_degenerates(self):
        report = worst_case_error_sweep(3, 4, [0.0, 0.5], threshold=0.0)
        assert report.epsilon_achieved == 0.0

    def test_bisection_matches_sorting_oracle(self):
        # oracles: sort outcome distances and take the first one whose
        # cumulative mass reaches the threshold; and, independently, scan the
        # candidate distances upward, summing the mass within each afresh
        rng = np.random.RandomState(17)
        for q in rng.uniform(0, 1, size=10):
            eig = constant_eigensystem(q, 8)
            schedule = build_pe_schedule(6, 8)
            probs = measurement_distribution(run_schedule(schedule, eig)).probabilities
            distances = np.abs(schedule.decoder.decode_all() - eig.eigenvalues[0])
            order = np.argsort(distances)
            cum = np.cumsum(probs[order])
            expected = distances[order][np.searchsorted(cum, 0.75)]
            scanned = next(d for d in np.unique(distances)
                           if probs[distances <= d].sum() >= 0.75)
            report = worst_case_error_sweep(6, 8, [q])
            assert report.epsilon_achieved == expected == scanned

    def test_boundary_ties_count_as_success(self):
        # an eigenvalue exactly between two bins: both neighbors sit exactly
        # at distance eps, and both must be included
        queries = 4
        lam = FOUR_PI * 5.5 / (1 << queries)
        eig = EigenSystem(eigenvalues=np.array([lam]), eigenvectors=np.array([[1.0]]),
                          constant_q=0.0)
        schedule = build_pe_schedule(queries, 1)
        dist = measurement_distribution(run_schedule(schedule, eig))
        estimates = schedule.decoder.decode_all()
        eps = FOUR_PI * 0.5 / (1 << queries)
        mask = np.abs(estimates - lam) <= eps + 1e-12
        assert mask.sum() == 2
        assert dist.probabilities[mask].sum() >= 8 / np.pi ** 2 - 1e-12

    def test_success_floor_reported(self):
        report = worst_case_error_sweep(6, 8, default_q_grid(16))
        assert report.success_probability_min >= 0.75

    def test_success_invariant_under_phase_shift_oracle(self):
        # success mass equals the kernel mass around the shifted phase
        rng = np.random.RandomState(13)
        queries, n = 7, 8
        eps = FOUR_PI * 2.0 ** -7
        for q in rng.uniform(0, 1, size=32):
            cfg = PEConfig(queries=queries, grid_size=n,
                           potential=PotentialSpec.constant(q), epsilon=eps)
            result = run_phase_estimation(cfg)
            oracle = kernel_oracle(result.phase, queries)
            lam = result.lambda_true
            mask = np.abs(result.lambda_estimates - lam) <= eps
            assert result.success_probability == pytest.approx(oracle[mask].sum(), abs=1e-10)


class TestQueryCountScaling:
    def test_four_halvings(self):
        grid = default_q_grid(8)
        epsilons = [2.0 ** -4 / (2 ** i) for i in range(5)]
        rows = query_count_scaling(epsilons, 8, grid)
        assert rows[-1].minimal_queries - rows[0].minimal_queries in (3, 4, 5)

    def test_trivially_loose_accuracy(self):
        rows = query_count_scaling([FOUR_PI], 4, [0.0, 0.5])
        assert rows[0].minimal_queries == 1

    def test_monotone(self):
        grid = default_q_grid(8)
        rows = query_count_scaling([0.5, 0.1, 0.02], 8, grid)
        assert rows[0].epsilon > rows[1].epsilon > rows[2].epsilon
        assert rows[0].minimal_queries <= rows[1].minimal_queries <= rows[2].minimal_queries


class TestDiscretizationRule:
    def test_total_error_budget(self):
        # n of order eps^(-1/2) with the curvature constant keeps the total
        # error within eps at success probability 3/4
        c = math.pi ** 2 / math.sqrt(6)
        for log2eps in range(4, 11):
            eps = 2.0 ** -log2eps
            n = max(2, math.ceil(c / math.sqrt(eps)))
            queries = math.ceil(math.log2(8 * math.pi / eps))
            for q in (0.0, 0.37, 0.93):
                cfg = PEConfig(queries=queries, grid_size=n,
                               potential=PotentialSpec.constant(q), epsilon=eps)
                result = run_phase_estimation(cfg)
                lam_continuum = math.pi ** 2 + q
                mask = np.abs(result.lambda_estimates - lam_continuum) <= eps
                assert result.distribution.probabilities[mask].sum() >= 0.75
