"""Property tests: the dense eigensolver against Sturm bisection on drawn potentials."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from powerquery import PotentialSpec, build_matrix, smallest_eigenvalue, solve_eigensystem
from powerquery.discretization import CLASS_CHECK_GRID, _bisect_eigenvalues

CHECK_XS = np.linspace(0.0, 1.0, CLASS_CHECK_GRID)

grid_sizes = st.one_of(st.sampled_from([1, 2]), st.integers(3, 200))


@st.composite
def cubic_potentials(draw):
    """Admissible cubics: |q'| <= 0.75 and |q''| <= 0.9, values kept inside [0.01, 0.99]."""
    c1 = draw(st.floats(-0.15, 0.15))
    c2 = draw(st.floats(-0.15, 0.15))
    c3 = draw(st.floats(-0.1, 0.1))
    shape = np.polynomial.polynomial.polyval(CHECK_XS, [0.0, c1, c2, c3])
    lo, hi = float(shape.min()), float(shape.max())
    c0 = -lo + 0.01 + draw(st.floats(0.0, 1.0)) * (0.98 - (hi - lo))
    return PotentialSpec.polynomial([c0, c1, c2, c3])


@st.composite
def systems(draw):
    n = draw(grid_sizes)
    if draw(st.booleans()):
        q = draw(cubic_potentials())
    else:
        q = PotentialSpec.sampled(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    return build_matrix(q, n)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(systems())
def test_eigh_agrees_with_bisection(system):
    n, scale = system.n, system.scale
    eig = solve_eigensystem(system)

    ref = _bisect_eigenvalues(system, np.arange(1, n + 1), abs_tol=1e-13 * scale)
    assert np.abs(eig.eigenvalues - ref).max() <= 1e-12 * scale
    lam1 = smallest_eigenvalue(system, abs_tol=1e-13 * scale)
    assert abs(eig.eigenvalues[0] - lam1) <= 1e-12 * scale

    v = eig.eigenvectors
    residual = np.abs(system.matvec(v) - v * eig.eigenvalues[None, :]).max() / scale
    assert residual <= 1e-12
    assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10
    lead = np.argmax(np.abs(v) > 1e-8 * np.abs(v).max(axis=0)[None, :], axis=0)
    assert np.all(v[lead, np.arange(n)] > 0)
