"""Audit of the query lower-bound argument for a concrete schedule.

Given an accuracy target, a grid of constant potentials is chosen fine enough
that correct answers for neighboring grid points cannot coincide.  The audit
then verifies, numerically and against closed forms, every inequality in the
chain: disjointness of the per-point answer sets, the census of grid points
whose answer sets rarely fire elsewhere, the discrete Fourier transform of
the answer-set probabilities and its trigonometric closed form, the magnitude
bound at an integer far from all projected frequencies, and the resulting
cardinality bound on the difference-frequency set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .frequency import (beta_coefficients, control_partition,
                        probability_frequencies, symbolic_run)
from .quantum import AlgorithmSchedule, control_distribution

FOUR_PI = 4.0 * math.pi
PROJECTION_MATCH_TOL = 1e-12
DFT_MATCH_TOL = 1e-9
WIDTH_SLACK = 1e-12

LAMBDA_MAP_DISCRETE = "discrete"
LAMBDA_MAP_CONTINUUM = "continuum"


def grid_size_for_accuracy(epsilon: float) -> int:
    """Largest N with 1/(N+1) <= 2 epsilon < 1/N."""
    if not 0 < epsilon < math.inf:
        raise ValidationError(f"accuracy must be positive and finite, got {epsilon}")
    if 2 * epsilon >= 1:
        raise ValidationError(
            f"accuracy {epsilon} is too coarse for the audit grid (needs 2*epsilon < 1)"
        )
    n = math.ceil(1.0 / (2 * epsilon)) - 1
    if n >= 1 and 2 * epsilon >= 1.0 / n:
        n -= 1
    if n >= 1 and 1.0 / (n + 1) > 2 * epsilon:
        n += 1
    if n < 1 or not (1.0 / (n + 1) <= 2 * epsilon < 1.0 / n):
        raise ValidationError(f"no valid grid size for accuracy {epsilon}")
    return n


def matched_epsilon(queries: int) -> float:
    """Accuracy matched to the phase resolution of a T-query schedule."""
    return FOUR_PI * 2.0 ** -queries


def project_frequencies(l_values, grid_size: int) -> np.ndarray:
    """Each frequency divided by 4 pi and reduced modulo N into [0, N), sorted."""
    if grid_size < 1:
        raise ValidationError(f"grid size must be >= 1, got {grid_size}")
    vals = np.asarray(sorted(l_values), dtype=float) / FOUR_PI
    return np.sort(np.mod(vals, grid_size))


def gap_audit(l_values, grid_size: int) -> tuple[float, int]:
    """Widest wrap-around gap between projected frequencies and the integer nearest its middle.

    Returns (width, k).  The width is at least N divided by the number of
    frequencies.  When two integers are equally close to the middle of the
    widest gap, the smaller one (after reduction into [0, N)) is chosen; among
    equally wide gaps the one with the smallest left endpoint wins.
    """
    points = np.unique(project_frequencies(l_values, grid_size))
    if points.size == 0:
        raise ValidationError("the frequency set must be nonempty")
    uppers = np.append(points[1:], points[0] + grid_size)
    widths = uppers - points
    best = int(np.argmax(widths))
    width = float(widths[best])
    middle = 0.5 * (points[best] + uppers[best])
    candidates = sorted({int(math.floor(middle)) % grid_size,
                         int(math.ceil(middle)) % grid_size})

    def circular_distance(k):
        d = abs(k - middle) % grid_size
        return min(d, grid_size - d)

    chosen = min(candidates, key=lambda k: (circular_distance(k), k))
    return width, chosen


def _closed_form_dft(beta_rows: np.ndarray, l_values, grid_size: int) -> np.ndarray:
    """Trigonometric closed form of the N-point DFT of block probabilities.

    Entry (r, k) sums beta[r, l] * exp(i l / (4N)) times the geometric factor,
    which degenerates to N exactly when the projected frequency coincides with
    k (possible only at l = 0 since l / (4 pi) is irrational otherwise).
    """
    ls = np.asarray(sorted(l_values), dtype=float)
    n = grid_size
    ks = np.arange(n)
    x = ls[:, None] / FOUR_PI - ks[None, :]
    num = np.exp(2j * np.pi * x) - 1.0
    den = np.exp(2j * np.pi * x / n) - 1.0
    proj = np.mod(ls / FOUR_PI, n)
    dist = np.abs(proj[:, None] - ks[None, :])
    dist = np.minimum(dist, n - dist)
    degenerate = dist <= PROJECTION_MATCH_TOL
    geom = np.where(degenerate, float(n), np.divide(num, np.where(degenerate, 1.0, den)))
    prefactor = np.exp(0.5j * ls / (2 * n))
    return beta_rows @ (prefactor[:, None] * geom)


@dataclass(frozen=True)
class GapAudit:
    """Record of one lower-bound audit run.

    ``verdicts`` holds one boolean per audited inequality; entries that could
    not be evaluated (because the premise failed) are absent.  ``dft_values``
    is the N x N table DFT[p_r](k) when it was computed.
    """

    grid_size: int
    epsilon: float
    lambda_map: str
    x_points: tuple[float, ...]
    lambda_targets: tuple[float, ...]
    answer_sets: tuple[tuple[int, ...], ...]
    success_diagonal: tuple[float, ...]
    stray_mass: tuple[float, ...]
    r_below_census: int
    frequency_count: int
    projected: tuple[float, ...]
    max_gap_width: float
    chosen_k: int
    verdicts: dict
    dft_values: np.ndarray | None = None
    dft_deviation: float | None = None

    def __post_init__(self):
        n = self.grid_size
        if not (1.0 / (n + 1) <= 2 * self.epsilon < 1.0 / n):
            raise ValidationError(
                f"grid size {n} violates the rule 1/(N+1) <= 2*eps < 1/N for eps={self.epsilon}"
            )

    @property
    def premise_ok(self) -> bool:
        return bool(self.verdicts.get("premise_success", False))

    @property
    def all_passed(self) -> bool:
        required = (
            "premise_success",
            "answer_sets_disjoint",
            "below_half_census",
            "dft_matches_closed_form",
            "dft_exceeds_quarter_at_gap",
            "frequency_count_squared_bound",
            "gap_width_bound",
        )
        return all(self.verdicts.get(name, False) for name in required)


def lower_bound_audit(schedule: AlgorithmSchedule, eig_family, epsilon: float,
                      lambda_map: str = LAMBDA_MAP_DISCRETE) -> GapAudit:
    """Run the full audit for a schedule against a constant-potential family.

    ``eig_family`` maps a constant potential value to its eigensystem, and
    ``schedule.decoder.decode_all()`` gives every outcome's estimate.  The
    per-grid-point target eigenvalue is the family's smallest eigenvalue by
    default, or the continuum value with ``lambda_map='continuum'``.  If the
    schedule does not reach success 3/4 at the requested accuracy on every
    grid point, a premise-failed record is returned and the Fourier half of
    the audit is skipped.
    """
    if schedule.decoder is None:
        raise ValidationError("the audit needs an outcome decoder")
    if lambda_map not in (LAMBDA_MAP_DISCRETE, LAMBDA_MAP_CONTINUUM):
        raise ValidationError(f"unknown eigenvalue map {lambda_map!r}")

    n_grid = grid_size_for_accuracy(epsilon)
    x_points = (np.arange(n_grid) + 0.5) / n_grid
    systems = [eig_family(float(q)) for q in x_points]
    if lambda_map == LAMBDA_MAP_DISCRETE:
        targets = np.array([eig.eigenvalues[0] for eig in systems])
    else:
        targets = math.pi ** 2 + x_points

    estimates = schedule.decoder.decode_all()
    answer_sets = [np.nonzero(np.abs(targets[r] - estimates) <= epsilon)[0]
                   for r in range(n_grid)]
    membership = np.zeros((n_grid, estimates.size))
    for r, a in enumerate(answer_sets):
        membership[r, a] = 1.0
    disjoint = bool(membership.sum(axis=0).max() <= 1)

    prob = np.empty((n_grid, estimates.size))
    for idx, eig in enumerate(systems):
        prob[idx] = control_distribution(schedule, eig).probabilities
    # block_mass[r, n] = probability of answer set r under input x_n
    block_mass = membership @ prob.T
    diagonal = np.diag(block_mass).copy()
    stray = block_mass.sum(axis=1) - diagonal
    premise = bool(np.all(diagonal >= 0.75))

    l_values = probability_frequencies(schedule.powers)
    projected = project_frequencies(l_values, n_grid)
    width, chosen_k = gap_audit(l_values, n_grid)
    l_count = len(l_values)

    below = np.nonzero(stray < 0.5)[0]
    verdicts = {
        "premise_success": premise,
        "answer_sets_disjoint": disjoint,
        "below_half_census": bool(2 * below.size >= n_grid),
        "frequency_count_squared_bound": bool(l_count ** 2 >= n_grid / 10.0),
        "gap_width_bound": bool(width >= n_grid / l_count - WIDTH_SLACK),
    }

    dft_values = None
    deviation = None
    if premise and disjoint:
        dft_values = np.fft.fft(block_mass, axis=1)
        rest = np.setdiff1d(np.arange(estimates.size),
                            np.concatenate(answer_sets) if answer_sets else [])
        coeffs = symbolic_run(schedule, systems[0])
        control_blocks = [a for a in answer_sets]
        if rest.size:
            control_blocks.append(rest)
        betas = beta_coefficients(coeffs, control_partition(coeffs, control_blocks))
        closed = _closed_form_dft(betas.table[:n_grid], betas.l_values, n_grid)
        deviation = float(np.abs(dft_values - closed).max())
        verdicts["dft_matches_closed_form"] = bool(deviation <= DFT_MATCH_TOL)
        verdicts["dft_exceeds_quarter_at_gap"] = bool(
            below.size > 0 and np.any(np.abs(dft_values[below, chosen_k]) > 0.25)
        )

    return GapAudit(
        grid_size=n_grid,
        epsilon=float(epsilon),
        lambda_map=lambda_map,
        x_points=tuple(float(x) for x in x_points),
        lambda_targets=tuple(float(t) for t in targets),
        answer_sets=tuple(tuple(int(k) for k in a) for a in answer_sets),
        success_diagonal=tuple(float(v) for v in diagonal),
        stray_mass=tuple(float(v) for v in stray),
        r_below_census=int(below.size),
        frequency_count=l_count,
        projected=tuple(float(t) for t in projected),
        max_gap_width=width,
        chosen_k=chosen_k,
        verdicts=verdicts,
        dft_values=dft_values,
        dft_deviation=deviation,
    )
