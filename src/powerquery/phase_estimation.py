"""Phase estimation with controlled propagator powers, and its error scaling.

The schedule prepares a uniform control superposition, applies the power
2^(T-j) conditioned on control bit j, and finishes with an inverse Fourier
transform of the control register.  Measured control outcomes decode to
eigenvalue estimates via their binary fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretization import (EigenSystem, PotentialSpec, build_matrix,
                             constant_eigensystem, solve_eigensystem)
from .errors import ValidationError
from .quantum import (AlgorithmSchedule, MeasurementDistribution, QueryStep,
                      RegisterLayout, UnitarySpec, control_distribution)

FOUR_PI = 4.0 * math.pi
SUCCESS_THRESHOLD = 0.75

MODE_EXACT = "exact-ground"
MODE_PERTURBED = "perturbed"


def decode_phase(outcome: int, queries: int) -> float:
    """Binary fraction of the control bits: bit 1 contributes 1/2, bit 2 1/4, ..."""
    if not 0 <= outcome < (1 << queries):
        raise ValidationError(f"outcome {outcome} outside range of {queries} control bits")
    return outcome / float(1 << queries)


def decode_eigenvalue(phi: float) -> float:
    """Eigenvalue corresponding to a phase in [0,1): lambda = 4 pi phi."""
    if not 0.0 <= phi < 1.0:
        raise ValidationError(f"phase must lie in [0,1), got {phi}")
    return FOUR_PI * phi


@dataclass(frozen=True)
class OutcomeDecoder:
    """Maps every control outcome k to its eigenvalue estimate 4 pi k / 2^T."""

    queries: int

    def decode_all(self) -> np.ndarray:
        size = 1 << self.queries
        return FOUR_PI * (np.arange(size) / size)


@dataclass(frozen=True)
class PEConfig:
    """One phase-estimation run: T queries on an n-point grid for potential q."""

    queries: int
    grid_size: int
    potential: PotentialSpec
    epsilon: float
    mode: str = MODE_EXACT
    overlap: float = 1.0
    enforce_overlap_floor: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.queries < 1:
            raise ValidationError(f"query count must be >= 1, got {self.queries}")
        if self.epsilon <= 0:
            raise ValidationError(f"target accuracy must be positive, got {self.epsilon}")
        if self.mode not in (MODE_EXACT, MODE_PERTURBED):
            raise ValidationError(f"unknown initial mode {self.mode!r}")
        if self.mode == MODE_PERTURBED:
            if not 0.0 < self.overlap <= 1.0:
                raise ValidationError(f"overlap must lie in (0,1], got {self.overlap}")
            if self.enforce_overlap_floor and self.overlap ** 2 < 0.8:
                raise ValidationError(
                    f"overlap^2 = {self.overlap ** 2:.3f} below the default floor of 0.8; "
                    "pass enforce_overlap_floor=False to accept a weaker preparation"
                )


def build_pe_schedule(queries: int, target_dim: int,
                      initial_target=None) -> AlgorithmSchedule:
    """Phase-estimation schedule: Hadamard layer, T controlled powers, inverse QFT.

    In application order, step j acts on control bit T-j+1 with power 2^(j-1),
    so that bit j ends up carrying power 2^(T-j).  All intermediate unitaries
    are identities; the final one is the inverse Fourier transform.
    """
    if queries < 1:
        raise ValidationError(f"query count must be >= 1, got {queries}")
    layout = RegisterLayout(control_qubits=queries, target_dim=target_dim)
    if initial_target is None:
        initial_target = np.zeros(target_dim)
        initial_target[0] = 1.0
    steps = []
    for j in range(1, queries + 1):
        unitary = UnitarySpec.inverse_qft() if j == queries else UnitarySpec.identity()
        steps.append(QueryStep(control_bit=queries - j + 1, power=1 << (j - 1), unitary=unitary))
    return AlgorithmSchedule(
        layout=layout,
        initial_target=initial_target,
        initial_unitary=UnitarySpec.hadamard_layer(),
        steps=tuple(steps),
        decoder=OutcomeDecoder(queries=queries),
    )


def _perturbed_target(eig: EigenSystem, overlap: float) -> np.ndarray:
    n = eig.n
    target = np.zeros(n)
    target[0] = overlap
    if overlap < 1.0:
        if n == 1:
            raise ValidationError("perturbed preparation needs at least two eigenvectors")
        target[1:] = math.sqrt((1.0 - overlap ** 2) / (n - 1))
    return target


@dataclass(frozen=True)
class PEResult:
    """Outcome distribution with decoded eigenvalue estimates and the success mass."""

    distribution: MeasurementDistribution
    lambda_estimates: np.ndarray
    lambda_true: float
    phase: float
    epsilon: float
    success_probability: float


def run_phase_estimation(cfg: PEConfig) -> PEResult:
    """Exact outcome distribution of the schedule and the epsilon-success mass.

    Success counts the outcomes whose decoded eigenvalue is within epsilon of
    the smallest discrete eigenvalue; ties at the boundary count as success.
    """
    if cfg.potential.kind == "constant":
        eig = constant_eigensystem(cfg.potential.value, cfg.grid_size)
    else:
        eig = solve_eigensystem(build_matrix(cfg.potential, cfg.grid_size))
    lam = float(eig.eigenvalues[0])
    phase = lam / FOUR_PI
    if not 0.0 <= phase < 1.0:
        raise ValidationError(f"smallest eigenvalue {lam} maps to phase {phase} outside [0,1)")

    overlap = 1.0 if cfg.mode == MODE_EXACT else cfg.overlap
    schedule = build_pe_schedule(cfg.queries, cfg.grid_size,
                                 initial_target=_perturbed_target(eig, overlap))
    dist = control_distribution(schedule, eig)
    estimates = schedule.decoder.decode_all()
    mask = np.abs(estimates - lam) <= cfg.epsilon
    return PEResult(
        distribution=dist,
        lambda_estimates=estimates,
        lambda_true=lam,
        phase=phase,
        epsilon=cfg.epsilon,
        success_probability=float(dist.probabilities[mask].sum()),
    )


# --------------------------------------------------------------------------
# Error scaling studies
# --------------------------------------------------------------------------

def default_q_grid(count: int = 64) -> list[float]:
    """Equispaced constants on [0,1) plus the endpoints 0 and 1 - 2^-20."""
    grid = {i / count for i in range(count)}
    grid.add(0.0)
    grid.add(1.0 - 2.0 ** -20)
    return sorted(grid)


def _smallest_success_epsilon(distances: np.ndarray, probabilities: np.ndarray,
                              threshold: float) -> float:
    """Smallest eps with mass(distances <= eps) >= threshold.

    That is the first distance, in sorted order, at which the cumulative mass
    reaches the threshold; the last distance if rounding keeps the total below.
    """
    if probabilities[distances <= 0.0].sum() >= threshold:
        return 0.0
    order = np.argsort(distances)
    mass = np.cumsum(probabilities[order])
    index = min(int(np.searchsorted(mass, threshold)), mass.size - 1)
    return float(distances[order[index]])


@dataclass(frozen=True)
class ErrorReport:
    """Grid-based estimate of the worst-case error at a success threshold.

    ``epsilon_achieved`` is the largest per-potential epsilon over the grid, a
    lower estimate of the true supremum over all admissible potentials.
    """

    queries: int
    epsilon_achieved: float
    success_probability_min: float
    grid: tuple[float, ...]
    threshold: float = SUCCESS_THRESHOLD

    def __post_init__(self):
        if self.success_probability_min < self.threshold - 1e-12:
            raise ValidationError(
                f"error report with success floor {self.success_probability_min:.4f} "
                f"below the threshold {self.threshold}"
            )


def worst_case_error_sweep(queries: int, grid_size: int, q_values=None,
                           threshold: float = SUCCESS_THRESHOLD) -> ErrorReport:
    """Smallest per-potential accuracy at the threshold, maximized over the grid."""
    qs = default_q_grid() if q_values is None else list(q_values)
    if not qs:
        raise ValidationError("the potential grid must be nonempty")
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold must lie in [0,1], got {threshold}")
    schedule = build_pe_schedule(queries, grid_size)
    estimates = schedule.decoder.decode_all()
    per_q = []
    for q in qs:
        eig = constant_eigensystem(q, grid_size)
        probs = control_distribution(schedule, eig).probabilities
        distances = np.abs(estimates - eig.eigenvalues[0])
        per_q.append((_smallest_success_epsilon(distances, probs, threshold), distances, probs))
    eps_star = max(item[0] for item in per_q)
    floor = min(probs[distances <= eps_star].sum() for _, distances, probs in per_q)
    return ErrorReport(
        queries=queries,
        epsilon_achieved=float(eps_star),
        success_probability_min=float(floor),
        grid=tuple(qs),
        threshold=threshold,
    )


@dataclass(frozen=True)
class ScalingRow:
    epsilon: float
    minimal_queries: int


def query_count_scaling(epsilons, grid_size: int, q_values=None,
                        max_queries: int = 24) -> list[ScalingRow]:
    """Minimal query count whose worst-case error meets each accuracy target."""
    eps_list = sorted(epsilons, reverse=True)
    if any(e <= 0 or e > FOUR_PI for e in eps_list):
        raise ValidationError("accuracy targets must lie in (0, 4 pi]")
    rows = {}
    achieved = {}
    t = 1
    for eps in eps_list:
        while t <= max_queries:
            if t not in achieved:
                achieved[t] = worst_case_error_sweep(t, grid_size, q_values).epsilon_achieved
            if achieved[t] <= eps:
                break
            t += 1
        if t > max_queries:
            raise ValidationError(
                f"no query count up to {max_queries} reaches accuracy {eps:g}"
            )
        rows[eps] = t
    return [ScalingRow(epsilon=e, minimal_queries=rows[e]) for e in sorted(rows, reverse=True)]
