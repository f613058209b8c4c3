import math

import numpy as np
import pytest

from powerquery import (
    PotentialSpec,
    ValidationError,
    build_matrix,
    constant_eigensystem,
    continuum_eigenvalue,
    discretization_error_study,
    parse_potential,
    smallest_eigenvalue,
    solve_eigensystem,
)


def taylor_discretization_error(n: int) -> float:
    """Independent oracle: 4 m^2 sin^2(pi/2m) = pi^2 - pi^4/(12 m^2) + O(m^-4), m = n+1."""
    return math.pi ** 4 / 12.0 / (n + 1) ** 2


class TestBuildMatrix:
    def test_zero_potential_n2(self):
        m = build_matrix(PotentialSpec.constant(0.0), 2)
        assert m.diag.tolist() == [18.0, 18.0]
        assert m.offdiag == -9.0

    def test_unit_potential_n2(self):
        m = build_matrix(PotentialSpec.constant(1.0), 2)
        assert m.diag.tolist() == [19.0, 19.0]
        assert m.offdiag == -9.0

    def test_half_potential_n3(self):
        m = build_matrix(PotentialSpec.constant(0.5), 3)
        assert m.diag.tolist() == [32.5, 32.5, 32.5]
        assert m.offdiag == -16.0

    def test_diag_range_for_class_potentials(self):
        rng = np.random.RandomState(7)
        for _ in range(5):
            n = rng.randint(1, 40)
            q = PotentialSpec.sampled(rng.uniform(0, 1, size=n))
            m = build_matrix(q, n)
            lo, hi = 2 * (n + 1) ** 2, 2 * (n + 1) ** 2 + 1
            assert np.all(m.diag >= lo) and np.all(m.diag <= hi)

    def test_sample_count_mismatch(self):
        q = PotentialSpec.sampled([0.1, 0.2, 0.3])
        with pytest.raises(ValidationError):
            build_matrix(q, 5)

    def test_invalid_value_names_grid_point(self):
        spec = PotentialSpec.constant(0.5)
        object.__setattr__(spec, "value", 1.5)  # corrupt past validation
        with pytest.raises(ValidationError, match="grid point"):
            build_matrix(spec, 4)


class TestPotentialSpec:
    def test_constant_range(self):
        with pytest.raises(ValidationError):
            PotentialSpec.constant(-0.1)
        with pytest.raises(ValidationError):
            PotentialSpec.constant(1.2)

    def test_sample_range(self):
        with pytest.raises(ValidationError):
            PotentialSpec.sampled([0.5, 1.4])

    def test_sampled_flagged_unchecked(self):
        assert PotentialSpec.sampled([0.5]).derivative_bounds_checked is False
        assert PotentialSpec.constant(0.5).derivative_bounds_checked is True

    def test_polynomial_class_bounds(self):
        PotentialSpec.polynomial([0.1, 0.2, 0.05])
        with pytest.raises(ValidationError):
            PotentialSpec.polynomial([0.0, 2.0])  # q(1)=2 and q'=2
        with pytest.raises(ValidationError):
            PotentialSpec.polynomial([0.5, 0.0, 0.7])  # q'' = 1.4

    def test_polynomial_grid_values(self):
        q = PotentialSpec.polynomial([0.1, 0.2, 0.05])
        vals = q.grid_values(3)
        xs = np.array([0.25, 0.5, 0.75])
        assert np.allclose(vals, 0.1 + 0.2 * xs + 0.05 * xs ** 2, atol=1e-15)

    def test_parse_round_trip(self, tmp_path):
        assert parse_potential("const:0.5").value == 0.5
        assert parse_potential("poly:0.1,0.2,0.05").coeffs == (0.1, 0.2, 0.05)
        path = tmp_path / "samples.csv"
        path.write_text("0.1\n0.2\n0.3\n")
        assert parse_potential(str(path)).samples == (0.1, 0.2, 0.3)
        assert parse_potential(f"samples:{path}").samples == (0.1, 0.2, 0.3)
        with pytest.raises(ValidationError):
            parse_potential("nonsense")


class TestConstantEigensystem:
    def test_smallest_eigenvalue_n3(self):
        eig = constant_eigensystem(0.0, 3)
        assert eig.eigenvalues[0] == pytest.approx(32 - 16 * math.sqrt(2), abs=1e-12)

    def test_n1_value_and_vector(self):
        eig = constant_eigensystem(0.0, 1)
        assert eig.eigenvalues[0] == pytest.approx(8.0, abs=1e-12)
        assert eig.eigenvectors[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_shift_by_q(self):
        assert constant_eigensystem(1.0, 3).eigenvalues[0] == pytest.approx(
            constant_eigensystem(0.0, 3).eigenvalues[0] + 1.0, abs=1e-12
        )

    def test_ascending_and_orthonormal(self):
        eig = constant_eigensystem(0.3, 12)
        assert np.all(np.diff(eig.eigenvalues) > 0)
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.abs(gram - np.eye(12)).max() < 1e-10

    def test_kinetic_eigenvalues_drop_q(self):
        eig = constant_eigensystem(0.4, 5)
        expected = eig.eigenvalues - 0.4
        assert np.abs(eig.kinetic_eigenvalues - expected).max() < 1e-12
        assert np.abs(eig.kinetic_eigenvalues
                      - constant_eigensystem(0.0, 5).eigenvalues).max() < 1e-12

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            constant_eigensystem(-0.1, 3)
        with pytest.raises(ValidationError):
            constant_eigensystem(1.2, 3)
        with pytest.raises(ValidationError):
            constant_eigensystem(0.5, 0)


class TestSolveEigensystem:
    def test_matches_closed_form_n3(self):
        eig = solve_eigensystem(build_matrix(PotentialSpec.constant(0.0), 3), tol=1e-12)
        ref = constant_eigensystem(0.0, 3)
        assert np.abs(eig.eigenvalues - ref.eigenvalues).max() < 1e-9

    def test_two_by_two_analytic(self):
        # eigenvalues of [[18.7, -9], [-9, 18.7]] are diag -+ |off|
        eig = solve_eigensystem(build_matrix(PotentialSpec.constant(0.7), 2), tol=1e-12)
        assert eig.eigenvalues[0] == pytest.approx(9.7, abs=1e-9)
        assert eig.eigenvalues[1] == pytest.approx(27.7, abs=1e-9)

    def test_single_point(self):
        eig = solve_eigensystem(build_matrix(PotentialSpec.constant(0.0), 1), tol=1e-12)
        assert eig.eigenvalues[0] == pytest.approx(8.0, abs=1e-10)

    def test_agrees_with_dense_solver_on_general_potential(self):
        rng = np.random.RandomState(42)
        for n in (5, 17):
            q = PotentialSpec.sampled(rng.uniform(0, 1, size=n))
            system = build_matrix(q, n)
            eig = solve_eigensystem(system)
            ref = np.linalg.eigvalsh(system.dense())
            assert np.abs(eig.eigenvalues - ref).max() < 1e-9 * system.scale

    def test_grid_agreement_with_closed_form(self):
        for n in (3, 16, 128):
            for q in np.round(np.linspace(0, 1, 11), 1):
                ref = constant_eigensystem(q, n)
                eig = solve_eigensystem(build_matrix(PotentialSpec.constant(q), n))
                assert np.abs(eig.eigenvalues - ref.eigenvalues).max() < 1e-9 * (n + 1) ** 2
                sign = np.sign(np.sum(eig.eigenvectors * ref.eigenvectors, axis=0))
                assert np.abs(eig.eigenvectors * sign - ref.eigenvectors).max() < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 128, 1024])
    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.9, 1.0])
    def test_accuracy_against_closed_form(self, q, n):
        # eigenvalues to a few ulps of the matrix norm, and eigenvectors equal
        # to the closed form as they stand: the sign rule must give each
        # sin(pi s x) its positive first component without any alignment here
        eig = solve_eigensystem(build_matrix(PotentialSpec.constant(q), n))
        ref = constant_eigensystem(q, n)
        assert np.abs(eig.eigenvalues - ref.eigenvalues).max() <= 1e-14 * (n + 1) ** 2
        assert np.abs(eig.eigenvectors - ref.eigenvectors).max() <= 1e-12

    def test_orthonormality_invariant(self):
        rng = np.random.RandomState(3)
        q = PotentialSpec.sampled(rng.uniform(0, 1, size=24))
        eig = solve_eigensystem(build_matrix(q, 24))
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.abs(gram - np.eye(24)).max() <= 1e-10

    def test_residual_invariant(self):
        system = build_matrix(PotentialSpec.constant(0.9), 40)
        eig = solve_eigensystem(system)
        res = system.matvec(eig.eigenvectors) - eig.eigenvectors * eig.eigenvalues[None, :]
        assert np.abs(res).max() / system.scale <= 1e-10

    @pytest.mark.parametrize("text,n", [("const:0.5", 16), ("poly:0.5,0.1,-0.05", 300)])
    def test_records_checked_deviation_and_residual(self, text, n):
        system = build_matrix(parse_potential(text), n)
        eig = solve_eigensystem(system)
        v = eig.eigenvectors
        gram_dev = float(np.abs(v.T @ v - np.eye(n)).max())
        residual = float(np.abs(system.matvec(v) - v * eig.eigenvalues[None, :]).max())
        assert eig.orthonormality_deviation == gram_dev
        assert eig.relative_residual == residual / system.scale
        assert constant_eigensystem(0.5, n).relative_residual is None

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValidationError):
            solve_eigensystem(build_matrix(PotentialSpec.constant(0.0), 3), tol=0.0)

    def test_kinetic_eigenvalues_absent_for_general_potential(self):
        q = PotentialSpec.sampled([0.2, 0.8, 0.5])
        eig = solve_eigensystem(build_matrix(q, 3))
        assert eig.constant_q is None
        with pytest.raises(ValidationError):
            eig.kinetic_eigenvalues


class TestContinuum:
    def test_values(self):
        assert continuum_eigenvalue(0.0) == pytest.approx(math.pi ** 2, abs=1e-12)
        assert continuum_eigenvalue(1.0) == pytest.approx(math.pi ** 2 + 1, abs=1e-12)
        assert continuum_eigenvalue(0.25) == pytest.approx(math.pi ** 2 + 0.25, abs=1e-12)

    def test_always_in_band(self):
        for q in np.linspace(0, 1, 11):
            lam = continuum_eigenvalue(q)
            assert math.pi ** 2 <= lam <= math.pi ** 2 + 1


class TestErrorStudy:
    def test_n100_matches_taylor_oracle(self):
        row = discretization_error_study(0.0, [100])[0]
        assert row.error == pytest.approx(taylor_discretization_error(100), abs=1e-6)

    def test_n1_closed_form(self):
        row = discretization_error_study(0.0, [1])[0]
        assert row.error == pytest.approx(math.pi ** 2 - 8, abs=1e-9)

    def test_quadratic_rate_on_doubling(self):
        rows = discretization_error_study(0.5, [32, 64, 128, 256])
        for a, b in zip(rows, rows[1:]):
            ratio = a.error / b.error
            assert 4 * 0.95 <= ratio <= 4 * 1.05

    def test_scaled_error_band_for_large_n(self):
        for q in (0.0, 0.5, 1.0):
            rows = discretization_error_study(q, [64, 128, 256])
            for row in rows:
                assert 7.9 <= row.scaled_error <= 8.35

    def test_scaled_error_matches_two_term_expansion_at_n1024(self):
        # 4 m^2 sin^2(pi/2m) = pi^2 - pi^4/(12 m^2) + pi^6/(360 m^4) - ..., m = n+1
        n = 1024
        row = discretization_error_study(0.0, [n])[0]
        expected = math.pi ** 4 / 12 - math.pi ** 6 / (360 * (n + 1) ** 2)
        assert abs(row.scaled_error - expected) <= 1e-6

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_agrees_with_bisection(self, q):
        rows = discretization_error_study(q, [1, 2, 16, 128])
        for row in rows:
            abs_tol = 1e-13 * (row.n + 1) ** 2
            reference = smallest_eigenvalue(build_matrix(PotentialSpec.constant(q), row.n),
                                            abs_tol=abs_tol)
            assert abs(row.lambda_discrete - reference) <= abs_tol

    def test_rejects_empty_grid(self):
        with pytest.raises(ValidationError, match="grid size"):
            discretization_error_study(0.0, [0, 4])

    def test_rejects_unordered_list(self):
        with pytest.raises(ValidationError):
            discretization_error_study(0.0, [16, 8])
        with pytest.raises(ValidationError):
            discretization_error_study(0.0, [])


class TestShiftProperty:
    def test_exact_shift_in_constant_potential(self):
        for n in (3, 16, 128):
            base = constant_eigensystem(0.0, n).eigenvalues[0]
            for delta in (0.1, 0.25, 0.5, 0.9):
                shifted = constant_eigensystem(delta, n).eigenvalues[0]
                assert abs(shifted - base - delta) <= 1e-12

    def test_monotone_in_q(self):
        lams = [smallest_eigenvalue(build_matrix(PotentialSpec.constant(q), 20))
                for q in np.linspace(0, 1, 6)]
        assert all(b > a for a, b in zip(lams, lams[1:]))
