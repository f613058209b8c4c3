import dataclasses
import math

import numpy as np
import pytest

from powerquery import (
    AlgorithmSchedule,
    RegisterLayout,
    UnitarySpec,
    ValidationError,
    build_pe_schedule,
    constant_eigensystem,
    gap_audit,
    grid_size_for_accuracy,
    lower_bound_audit,
    matched_epsilon,
    project_frequencies,
)

FOUR_PI = 4 * math.pi


def constant_family(n):
    return lambda q: constant_eigensystem(q, n)


@dataclasses.dataclass(frozen=True)
class FixedDecoder:
    """A decoder with given per-outcome estimates, for deliberately odd schedules."""

    estimates: np.ndarray

    def decode_all(self):
        return self.estimates


class TestGridRule:
    def test_examples(self):
        assert grid_size_for_accuracy(FOUR_PI * 2.0 ** -8) == 10
        assert grid_size_for_accuracy(0.25) == 1

    def test_rule_holds_on_random_accuracies(self):
        rng = np.random.RandomState(61)
        for eps in rng.uniform(1e-4, 0.49, size=200):
            n = grid_size_for_accuracy(float(eps))
            assert 1 / (n + 1) <= 2 * eps < 1 / n

    def test_exact_reciprocal(self):
        # 2*eps exactly 1/m forces the grid one step smaller
        assert grid_size_for_accuracy(0.125) == 3

    def test_too_coarse(self):
        with pytest.raises(ValidationError):
            grid_size_for_accuracy(0.5)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_non_positive_refused(self, eps):
        # library callers reach this without the CLI's parameter checks
        with pytest.raises(ValidationError, match="positive and finite"):
            grid_size_for_accuracy(eps)


class TestProjection:
    def test_zero_maps_to_zero(self):
        assert project_frequencies([0], 10)[0] == 0.0

    def test_positive_value(self):
        out = project_frequencies([38], 10)
        assert out[0] == pytest.approx(38 / FOUR_PI, abs=1e-12)  # 3.0239... < 10

    def test_negative_value_wraps(self):
        out = project_frequencies([-38], 10)
        assert out[0] == pytest.approx(10 - 38 / FOUR_PI, abs=1e-12)

    def test_all_in_range(self):
        rng = np.random.RandomState(62)
        ls = rng.randint(-10_000, 10_000, size=500)
        out = project_frequencies(ls, 7)
        assert np.all(out >= 0) and np.all(out < 7)
        assert np.all(np.diff(out) >= 0)


class TestGapAudit:
    def test_single_point(self):
        width, k = gap_audit([0], 10)
        assert width == 10
        assert k == 5

    def test_two_points(self):
        proj = 63 / FOUR_PI  # 5.0135..., so the gap below it is the widest
        width, k = gap_audit([0, 63], 10)
        assert width == pytest.approx(proj, abs=1e-12)
        assert k == 3  # middle 2.5068 sits closer to 3 than to 2

    def test_width_bound_random_sets(self):
        rng = np.random.RandomState(63)
        for _ in range(100):
            size = rng.randint(1, 60)
            ls = np.unique(rng.randint(-3000, 3000, size=size))
            n = int(rng.randint(1, 40))
            width, k = gap_audit(ls, n)
            assert width >= n / len(ls) - 1e-12
            assert 0 <= k < n

    def test_midpoint_tie_prefers_smaller(self):
        # single projected point at 0 with even N: midpoint N/2 is an integer,
        # both neighbors tie only when midpoint is half-integer; N odd gives that
        width, k = gap_audit([0], 9)
        assert width == 9
        assert k == 4  # middle 4.5, candidates 4 and 5, tie broken downward


class TestLowerBoundAudit:
    def test_phase_estimation_schedule_t6(self):
        n = 8
        schedule = build_pe_schedule(6, n)
        audit = lower_bound_audit(schedule, constant_family(n), matched_epsilon(6))
        assert audit.all_passed
        assert audit.grid_size == 2
        assert audit.dft_deviation <= 1e-9

    def test_census_and_premise_fields(self):
        n = 8
        schedule = build_pe_schedule(6, n)
        audit = lower_bound_audit(schedule, constant_family(n), matched_epsilon(6))
        assert 2 * audit.r_below_census >= audit.grid_size
        assert all(v >= 0.75 for v in audit.success_diagonal)
        assert audit.frequency_count == len(set(audit.projected))

    def test_trivial_schedule_degenerate_pass(self):
        # no queries, one outcome, decoder answers the center of the only cell
        n = 4
        layout = RegisterLayout(control_qubits=0, target_dim=n)
        target = np.zeros(n)
        target[0] = 1.0
        kappa = constant_eigensystem(0.0, n).eigenvalues[0]
        schedule = AlgorithmSchedule(
            layout=layout,
            initial_target=target,
            initial_unitary=UnitarySpec.identity(),
            steps=(),
            decoder=FixedDecoder(np.array([kappa + 0.5])),
        )
        audit = lower_bound_audit(schedule, constant_family(n), epsilon=0.3)
        assert audit.grid_size == 1
        assert audit.all_passed

    def test_corrupted_decoder_fails_premise(self):
        n = 8
        queries = 6
        schedule = build_pe_schedule(queries, n)
        rng = np.random.RandomState(64)
        shuffled = rng.permutation(1 << queries)
        bad = FixedDecoder(FOUR_PI * shuffled / (1 << queries))
        audit = lower_bound_audit(dataclasses.replace(schedule, decoder=bad),
                                  constant_family(n), matched_epsilon(queries))
        assert not audit.premise_ok
        assert not audit.all_passed
        assert audit.dft_values is None

    def test_continuum_map_changes_targets(self):
        n = 8
        schedule = build_pe_schedule(6, n)
        audit = lower_bound_audit(schedule, constant_family(n), matched_epsilon(6),
                                  lambda_map="continuum")
        expected = math.pi ** 2 + np.asarray(audit.x_points)
        assert np.abs(np.asarray(audit.lambda_targets) - expected).max() < 1e-12

    def test_answer_sets_disjoint_structure(self):
        n = 8
        schedule = build_pe_schedule(7, n)
        audit = lower_bound_audit(schedule, constant_family(n), matched_epsilon(7))
        seen = [k for a in audit.answer_sets for k in a]
        assert len(seen) == len(set(seen))
        assert audit.verdicts["answer_sets_disjoint"]

    def test_dft_row_sums(self):
        # DFT(k=0) is the plain sum of the row's block masses
        n = 8
        schedule = build_pe_schedule(6, n)
        audit = lower_bound_audit(schedule, constant_family(n), matched_epsilon(6))
        row_sums = np.asarray(audit.stray_mass) + np.asarray(audit.success_diagonal)
        assert np.abs(audit.dft_values[:, 0].real - row_sums).max() < 1e-10

    def test_magnitude_floor_holds_at_every_fourier_index(self):
        # |DFT[p_r](k)| >= p_r(x_r) - stray_r for every k, so rows with stray
        # below 1/2 exceed 1/4 everywhere, not only at the gap integer
        n = 16
        schedule = build_pe_schedule(8, n)
        audit = lower_bound_audit(schedule, constant_family(n), matched_epsilon(8))
        assert audit.premise_ok
        mags = np.abs(audit.dft_values)
        diag = np.asarray(audit.success_diagonal)
        stray = np.asarray(audit.stray_mass)
        floor = diag - stray
        assert np.all(mags.min(axis=1) >= floor - 1e-10)
        below = stray < 0.5
        assert below.any()
        assert np.all(mags[below].min(axis=1) > 0.25)
