"""Finite-difference discretization of -u'' + q u on (0,1) and its spectrum.

The boundary-value problem with Dirichlet conditions is discretized at the
interior points j/(n+1), giving a symmetric tridiagonal matrix with diagonal
2(n+1)^2 + q(j/(n+1)) and constant off-diagonal -(n+1)^2.  For a constant
potential the eigenpairs have closed forms, which the discretization error
study reads too.  For general potentials the full eigensystem comes from
LAPACK's symmetric solver and is checked (residual, orthonormality, ordering)
before use; a Sturm-sequence bisection gives single eigenvalues without
eigenvectors and serves as the independent reference.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError, ValidationError

CLASS_CHECK_GRID = 1024
DEFAULT_SOLVE_TOL = 1e-12
MAX_BISECTION_STEPS = 100
ORTHO_TOL = 1e-10


# --------------------------------------------------------------------------
# Potentials
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialSpec:
    """A potential q: [0,1] -> [0,1] given as a constant, grid samples, or polynomial.

    Constant and polynomial potentials are validated against the admissible
    class (values in [0,1]; for polynomials also |q'| <= 1 and |q''| <= 1 on a
    dense grid).  Sampled potentials carry only point values, so the
    derivative bounds cannot be checked; ``derivative_bounds_checked`` is
    False for them and callers should treat such inputs as unverified.
    """

    kind: str
    value: float | None = None
    samples: tuple[float, ...] | None = None
    coeffs: tuple[float, ...] | None = None
    derivative_bounds_checked: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.kind == "constant":
            if self.value is None or not 0.0 <= self.value <= 1.0:
                raise ValidationError(f"constant potential must lie in [0,1], got {self.value}")
        elif self.kind == "sampled":
            if not self.samples:
                raise ValidationError("sampled potential needs at least one sample")
            for j, v in enumerate(self.samples):
                if not 0.0 <= v <= 1.0:
                    raise ValidationError(f"sample {j} out of [0,1]: {v}")
            object.__setattr__(self, "derivative_bounds_checked", False)
        elif self.kind == "polynomial":
            if not self.coeffs:
                raise ValidationError("polynomial potential needs coefficients")
            self._check_polynomial_class()
        else:
            raise ValidationError(f"unknown potential kind {self.kind!r}")

    @staticmethod
    def constant(value: float) -> "PotentialSpec":
        return PotentialSpec(kind="constant", value=float(value))

    @staticmethod
    def sampled(values) -> "PotentialSpec":
        return PotentialSpec(kind="sampled", samples=tuple(float(v) for v in values))

    @staticmethod
    def polynomial(coeffs) -> "PotentialSpec":
        return PotentialSpec(kind="polynomial", coeffs=tuple(float(c) for c in coeffs))

    def _check_polynomial_class(self):
        xs = np.linspace(0.0, 1.0, CLASS_CHECK_GRID)
        c = np.asarray(self.coeffs, dtype=float)
        slack = 1e-12
        vals = np.polynomial.polynomial.polyval(xs, c)
        if vals.min() < -slack or vals.max() > 1.0 + slack:
            bad = int(np.argmax((vals < -slack) | (vals > 1.0 + slack)))
            raise ValidationError(
                f"polynomial potential leaves [0,1] at x={xs[bad]:.6f} (q={vals[bad]:.6f})"
            )
        deriv = c
        for order in (1, 2):
            deriv = np.polynomial.polynomial.polyder(deriv)
            dvals = np.polynomial.polynomial.polyval(xs, deriv)
            if np.abs(dvals).max() > 1.0 + slack:
                raise ValidationError(
                    f"polynomial potential violates |q^({order})| <= 1 "
                    f"(max {np.abs(dvals).max():.6f})"
                )

    def grid_values(self, n: int) -> np.ndarray:
        """Values q(j/(n+1)) for j = 1..n."""
        if self.kind == "constant":
            return np.full(n, self.value, dtype=float)
        if self.kind == "sampled":
            if len(self.samples) != n:
                raise ValidationError(
                    f"sampled potential has {len(self.samples)} values, grid needs {n}"
                )
            return np.asarray(self.samples, dtype=float)
        xs = np.arange(1, n + 1) / (n + 1)
        return np.polynomial.polynomial.polyval(xs, np.asarray(self.coeffs, dtype=float))


def parse_potential(text: str) -> PotentialSpec:
    """Parse a CLI potential argument: 'const:V', 'poly:c0,c1,...', 'samples:FILE', or a CSV path."""
    if text.startswith("const:"):
        try:
            return PotentialSpec.constant(float(text[6:]))
        except ValueError as exc:
            raise ValidationError(f"bad constant potential {text!r}: {exc}") from None
    if text.startswith("poly:"):
        try:
            coeffs = [float(tok) for tok in text[5:].split(",") if tok.strip()]
        except ValueError as exc:
            raise ValidationError(f"bad polynomial potential {text!r}: {exc}") from None
        return PotentialSpec.polynomial(coeffs)
    path = text[8:] if text.startswith("samples:") else text
    if not os.path.exists(path):
        raise ValidationError(
            f"potential {text!r} is neither 'const:V', 'poly:...', nor an existing sample file"
        )
    return PotentialSpec.sampled(load_sample_file(path))


def load_sample_file(path: str) -> list[float]:
    """Read potential samples from a CSV file (any mix of rows and comma-separated fields)."""
    values = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for tok in row:
                tok = tok.strip()
                if not tok:
                    continue
                try:
                    values.append(float(tok))
                except ValueError:
                    raise ValidationError(f"non-numeric sample {tok!r} in {path}") from None
    if not values:
        raise ValidationError(f"no samples found in {path}")
    return values


# --------------------------------------------------------------------------
# Matrix construction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TridiagonalSystem:
    """The discretized operator: diagonal entries and the constant off-diagonal."""

    n: int
    diag: np.ndarray
    offdiag: float
    constant_q: float | None = None

    @property
    def scale(self) -> float:
        """Natural magnitude (n+1)^2 used for relative tolerances."""
        return float((self.n + 1) ** 2)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        y = self.diag[:, None] * v if v.ndim == 2 else self.diag * v
        if self.n > 1:
            y[:-1] += self.offdiag * v[1:]
            y[1:] += self.offdiag * v[:-1]
        return y

    def dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        m[idx, idx + 1] = self.offdiag
        m[idx + 1, idx] = self.offdiag
        return m


def build_matrix(q: PotentialSpec, n: int) -> TridiagonalSystem:
    """Assemble the n-point finite-difference matrix for potential q."""
    if n < 1:
        raise ValidationError(f"grid size must be >= 1, got {n}")
    values = q.grid_values(n)
    for j, v in enumerate(values, start=1):
        if not 0.0 <= v <= 1.0:
            raise ValidationError(
                f"potential value {v} at grid point x={j}/{n + 1} is outside [0,1]"
            )
    h2 = float((n + 1) ** 2)
    diag = 2.0 * h2 + values
    diag.setflags(write=False)
    cq = q.value if q.kind == "constant" else None
    return TridiagonalSystem(n=n, diag=diag, offdiag=-h2, constant_q=cq)


# --------------------------------------------------------------------------
# Eigensystems
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and orthonormal eigenvector columns.

    ``constant_q`` is set when the system came from a constant potential; the
    q-independent part of the spectrum (``kinetic_eigenvalues``) is defined
    only then.  ``solve_eigensystem`` records the orthonormality deviation and
    the relative residual that its check measured.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    constant_q: float | None = None
    orthonormality_deviation: float | None = None
    relative_residual: float | None = None

    @property
    def n(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def kinetic_eigenvalues(self) -> np.ndarray:
        if self.constant_q is None:
            raise ValidationError("kinetic eigenvalues are defined only for constant potentials")
        return self.eigenvalues - self.constant_q

    def validate(self, system: TridiagonalSystem, residual_tol: float) -> tuple[float, float]:
        """Check orthonormality to ``ORTHO_TOL``, ordering, and residuals against the matrix.

        Returns the orthonormality deviation max|V^T V - I| and the largest
        residual relative to (n+1)^2.
        """
        # in place, so that no more than three n-by-n arrays are alive at once
        gram = self.eigenvectors.T @ self.eigenvectors
        gram[np.diag_indices(self.n)] -= 1.0
        dev = float(np.abs(gram, out=gram).max())
        del gram
        if dev > ORTHO_TOL:
            raise NumericalError(f"eigenvector orthonormality deviation {dev:.3e} > {ORTHO_TOL:g}")
        if np.any(np.diff(self.eigenvalues) <= 0):
            bad = int(np.argmax(np.diff(self.eigenvalues) <= 0))
            raise NumericalError(f"eigenvalues not strictly increasing at index {bad + 1}")
        res = system.matvec(self.eigenvectors)
        res -= self.eigenvectors * self.eigenvalues[None, :]
        rel = float(np.abs(res, out=res).max()) / system.scale
        if rel > residual_tol:
            raise NumericalError(
                f"eigen residual {rel:.3e} (relative to (n+1)^2) exceeds {residual_tol:g}"
            )
        return dev, rel


def _kinetic_eigenvalues(n: int, s):
    """Closed-form eigenvalues 4(n+1)^2 sin^2(s pi / (2(n+1))) of the n-point operator at q = 0."""
    if n < 1:
        raise ValidationError(f"grid size must be >= 1, got {n}")
    return 4.0 * (n + 1) ** 2 * np.sin(s * np.pi / (2 * (n + 1))) ** 2


def constant_eigensystem(q: float, n: int) -> EigenSystem:
    """Closed-form eigensystem of the discretized operator for constant q."""
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"constant potential must lie in [0,1], got {q}")
    s = np.arange(1, n + 1, dtype=float)
    eigenvalues = _kinetic_eigenvalues(n, s) + q
    x = np.arange(1, n + 1, dtype=float)
    vectors = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(x, s) * np.pi / (n + 1))
    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return EigenSystem(eigenvalues=eigenvalues, eigenvectors=vectors, constant_q=float(q))


def continuum_eigenvalue(q: float) -> float:
    """Smallest eigenvalue of the continuous problem with constant potential q."""
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"constant potential must lie in [0,1], got {q}")
    return math.pi ** 2 + q


# --------------------------------------------------------------------------
# Sturm-sequence bisection and the full eigensystem
# --------------------------------------------------------------------------

def _count_below(diag: np.ndarray, off2: float, shifts: np.ndarray, pivmin: float) -> np.ndarray:
    """Number of eigenvalues strictly below each shift, via the Sturm sign count."""
    count = np.zeros(shifts.shape, dtype=np.int64)
    p = diag[0] - shifts
    count += p < 0
    for i in range(1, diag.size):
        p = np.where(np.abs(p) < pivmin, np.where(p < 0, -pivmin, pivmin), p)
        p = diag[i] - shifts - off2 / p
        count += p < 0
    return count


def _bisect_eigenvalues(system: TridiagonalSystem, indices: np.ndarray,
                        abs_tol: float) -> np.ndarray:
    """Bracket eigenvalue number s (1-based, ascending) for every s in indices."""
    diag, off = system.diag, system.offdiag
    off2 = off * off
    pivmin = np.finfo(float).tiny * max(1.0, off2)
    lo = np.full(indices.shape, diag.min() - 2 * abs(off))
    hi = np.full(indices.shape, diag.max() + 2 * abs(off))
    for _ in range(MAX_BISECTION_STEPS):
        if np.all(hi - lo <= abs_tol):
            break
        mid = 0.5 * (lo + hi)
        above = _count_below(diag, off2, mid, pivmin) >= indices
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    widths = hi - lo
    if np.any(widths > abs_tol):
        bad = int(np.argmax(widths))
        raise NumericalError(
            f"bisection did not reach tolerance for eigenvalue {indices[bad]} "
            f"(width {widths[bad]:.3e})"
        )
    return 0.5 * (lo + hi)


def smallest_eigenvalue(system: TridiagonalSystem, abs_tol: float | None = None) -> float:
    """Smallest eigenvalue by Sturm bisection alone (no eigenvector work)."""
    if abs_tol is None:
        width = system.diag.max() - system.diag.min() + 4 * abs(system.offdiag)
        abs_tol = max(1e-10, 16 * np.finfo(float).eps * width)
    return float(_bisect_eigenvalues(system, np.array([1]), abs_tol)[0])


def solve_eigensystem(system: TridiagonalSystem, tol: float = DEFAULT_SOLVE_TOL) -> EigenSystem:
    """Full spectral decomposition by LAPACK's symmetric solver (``numpy.linalg.eigh``).

    The result is checked before it is returned: the residual of every
    eigenpair is at most tol * (n+1)^2, the eigenvector matrix is orthonormal
    to 1e-10, and the eigenvalues ascend strictly.  Each eigenvector is signed
    so that its first component of noticeable size is positive.
    """
    if tol <= 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    eigenvalues, v = np.linalg.eigh(system.dense())

    # deterministic sign: first component of noticeable size is positive
    lead = np.argmax(np.abs(v) > 1e-8 * np.abs(v).max(axis=0)[None, :], axis=0)
    v *= np.where(v[lead, np.arange(system.n)] < 0, -1.0, 1.0)

    eig = EigenSystem(eigenvalues=eigenvalues, eigenvectors=v, constant_q=system.constant_q)
    dev, rel = eig.validate(system, residual_tol=max(tol, 1e-15))
    return replace(eig, orthonormality_deviation=dev, relative_residual=rel)


# --------------------------------------------------------------------------
# Discretization error study
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorStudyRow:
    n: int
    lambda_continuum: float
    lambda_discrete: float
    error: float
    scaled_error: float


def discretization_error_study(q: float, n_list) -> list[ErrorStudyRow]:
    """Continuum-vs-discrete smallest-eigenvalue error for each grid size.

    The discrete eigenvalue is the closed form of ``constant_eigensystem``.
    The scaled column error*(n+1)^2 tends to pi^4/12 for constant potentials.
    """
    ns = list(n_list)
    if not ns:
        raise ValidationError("n_list must be nonempty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValidationError("n_list must be strictly ascending")
    lam_cont = continuum_eigenvalue(q)
    rows = []
    for n in ns:
        lam_disc = float(_kinetic_eigenvalues(n, 1.0) + q)
        err = lam_cont - lam_disc
        rows.append(ErrorStudyRow(
            n=n,
            lambda_continuum=lam_cont,
            lambda_discrete=lam_disc,
            error=err,
            scaled_error=err * (n + 1) ** 2,
        ))
    return rows
