"""Trigonometric-polynomial structure of power-query algorithms with constant potential.

For a constant potential the final-state amplitudes are trigonometric
polynomials in the potential value: a table of complex coefficients indexed
by (outcome, eigenvector, frequency), with the frequency set growing by one
doubling per query.  Measurement probabilities of outcome blocks are then
trigonometric polynomials over the difference-frequency set, with a universal
bound on their coefficients.  This module tracks both expansions exactly and
cross-checks them by least-squares fitting.

The coefficient table stores only the live eigencolumns of the schedule
(`quantum.live_columns`); every other column is zero at every frequency.
Outcome indices and the entry limit, the constant ``DEFAULT_ENTRY_LIMIT``,
still count all n eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import EigenSystem
from .errors import (ConditioningError, NumericalError, SimulationLimitError,
                     ValidationError)
from . import quantum
from .quantum import (AlgorithmSchedule, RegisterLayout, StateVector,
                      apply_power_query_array, apply_unitary_array, control_rows,
                      live_columns, squared_norm)

DEFAULT_ENTRY_LIMIT = 2 ** 22
PRUNE_TOL = 1e-15
NORM_DRIFT_TOL = 1e-12
BLOCK_BOUND_TOL = 1e-10
CONDITION_LIMIT = 1e12
BASIS_PERIOD = 4.0 * np.pi  # every basis function exp(i l q / 2) has this period in q
BRUTE_FORCE_PAIR_LIMIT = 2 ** 22


# --------------------------------------------------------------------------
# Frequency sets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FrequencySet:
    """Amplitude frequencies (m_set) and probability frequencies (l_set) of a power sequence."""

    powers: tuple[int, ...]
    m_set: tuple[int, ...]
    l_set: tuple[int, ...]

    @property
    def sharp(self) -> bool:
        """Whether l_set reaches its maximal cardinality 3^T."""
        return len(self.l_set) == 3 ** len(self.powers)


def frequency_sets(powers) -> FrequencySet:
    """Build both frequency sets by their recursions.

    m_set doubles by shifted union (m -> {m, m + p}); l_set grows by
    l -> {l, l + p, l - p}.  The recursion result for l_set is verified
    against the brute-force difference set of m_set whenever that is cheap.
    """
    powers = tuple(int(p) for p in powers)
    if not powers:
        raise ValidationError("the power sequence must be nonempty")
    if any(p < 1 for p in powers):
        raise ValidationError(f"powers must be positive integers, got {powers}")
    m_set = {0}
    l_set = {0}
    for p in powers:
        m_set |= {m + p for m in m_set}
        l_set = {x for l in l_set for x in (l, l + p, l - p)}
    if len(m_set) ** 2 <= BRUTE_FORCE_PAIR_LIMIT:
        diffs = {m1 - m2 for m1 in m_set for m2 in m_set}
        if diffs != l_set:
            raise NumericalError(
                "difference-frequency recursion disagrees with the brute-force "
                f"difference set for powers {powers}"
            )
    return FrequencySet(powers=powers, m_set=tuple(sorted(m_set)), l_set=tuple(sorted(l_set)))


def probability_frequencies(powers) -> tuple[int, ...]:
    """l_set of a power sequence, including the zero-query base case {0}."""
    return frequency_sets(powers).l_set if powers else (0,)


# --------------------------------------------------------------------------
# Symbolic coefficient propagation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigCoefficients:
    """Frequency expansion of a final state: table[m_index, control, stored column].

    Stored column j is eigenvector ``columns[j]`` (0-based) of ``target_dim``;
    the coefficients of every other eigenvector are zero.  The amplitude at
    (control k, eigenvector columns[j]) for potential value q is
    sum_m table[m][k, j] * exp(i m q / 2).  The total squared magnitude is 1
    and is recorded after every propagation step in ``norm_history``.
    """

    powers: tuple[int, ...]
    m_values: tuple[int, ...]
    table: np.ndarray  # complex, shape (len(m_values), 2^c, len(columns))
    columns: tuple[int, ...]
    target_dim: int
    norm_history: tuple[float, ...]

    @property
    def control_dim(self) -> int:
        return int(self.table.shape[1])

    @property
    def outcome_count(self) -> int:
        """Joint outcomes (control index, eigenvector index) flattened as k * n + s0."""
        return self.control_dim * self.target_dim

    def entries(self, tol: float = 0.0) -> dict:
        """Sparse view {(control, eigen index 1-based, frequency): coefficient}."""
        out = {}
        for mi, m in enumerate(self.m_values):
            ks, js = np.nonzero(np.abs(self.table[mi]) > tol)
            for k, j in zip(ks, js):
                out[(int(k), self.columns[j] + 1, int(m))] = complex(self.table[mi, k, j])
        return out

    def joint_outcomes(self) -> np.ndarray:
        """Joint outcome k * n + s0 of each row of ``joint_table``, ascending."""
        ks = np.arange(self.control_dim)[:, None]
        return (ks * self.target_dim + np.asarray(self.columns, dtype=int)[None, :]).reshape(-1)

    def joint_table(self) -> np.ndarray:
        """Stored coefficients reshaped to (stored joint outcome, m index)."""
        return self.table.transpose(1, 2, 0).reshape(-1, len(self.m_values))


def symbolic_run(schedule: AlgorithmSchedule, eig: EigenSystem) -> TrigCoefficients:
    """Propagate the frequency expansion through the whole schedule.

    A power query multiplies the control rows with the queried bit set by the
    eigenvector's unit phase factor and moves their coefficients up by its
    power; fixed unitaries mix coefficients within each frequency slice.  Both
    go through the state-vector simulator's kernels, on the live eigencolumns
    only.  The entry limit ``DEFAULT_ENTRY_LIMIT`` counts all n eigencolumns.
    Entries below ``PRUNE_TOL`` in magnitude are zeroed after each unitary.
    The squared-coefficient sum must stay at 1 throughout; any drift beyond
    1e-12 raises.
    """
    if eig.constant_q is None:
        raise ValidationError(
            "symbolic propagation needs an eigensystem from a constant-potential family"
        )
    layout = schedule.layout
    if eig.n != layout.target_dim:
        raise ValidationError(
            f"eigensystem dimension {eig.n} does not match schedule target dimension "
            f"{layout.target_dim}"
        )

    live = live_columns(schedule)
    kinetic = eig.kinetic_eigenvalues[live]
    m_values = np.zeros(1, dtype=np.int64)
    start = np.zeros((1, layout.control_dim, live.size), dtype=complex)
    start[0, 0] = schedule.initial_target[live]
    table = apply_unitary_array(start, schedule.initial_unitary, eig)
    history = [squared_norm(table)]

    for step_index, step in enumerate(schedule.steps, start=1):
        p, bit = step.power, step.control_bit
        new_values = np.union1d(m_values, m_values + p)
        entries = new_values.size * layout.control_dim * layout.target_dim
        if entries > DEFAULT_ENTRY_LIMIT:
            raise SimulationLimitError(
                f"step {step_index}: coefficient table of {entries} entries "
                f"exceeds the limit of {DEFAULT_ENTRY_LIMIT}"
            )
        shifted = np.zeros((new_values.size, layout.control_dim, live.size), dtype=complex)
        hold = np.searchsorted(new_values, m_values)
        move = np.searchsorted(new_values, m_values + p)
        apply_power_query_array(table, bit, p, kinetic)
        control_rows(shifted, bit, 0)[hold] = control_rows(table, bit, 0)
        control_rows(shifted, bit, 1)[move] = control_rows(table, bit, 1)
        m_values, table = new_values, shifted
        history.append(squared_norm(table))

        table = apply_unitary_array(table, step.unitary, eig)
        table[np.abs(table) < PRUNE_TOL] = 0
        history.append(squared_norm(table))

    for step_number, value in enumerate(history):
        if abs(value - 1.0) > NORM_DRIFT_TOL:
            raise NumericalError(
                f"coefficient normalization drifted to {value!r} at propagation step "
                f"{step_number}"
            )
    return TrigCoefficients(
        powers=schedule.powers,
        m_values=tuple(m_values.tolist()),
        table=table,
        columns=tuple(live.tolist()),
        target_dim=layout.target_dim,
        norm_history=tuple(history),
    )


def evaluate_symbolic(coeffs: TrigCoefficients, q: float) -> StateVector:
    """Evaluate the frequency expansion at a potential value in [0,1)."""
    if not 0.0 <= q < 1.0:
        raise ValidationError(f"potential value must lie in [0,1), got {q}")
    phases = np.exp(0.5j * q * np.asarray(coeffs.m_values, dtype=float))
    amp = np.zeros((coeffs.control_dim, coeffs.target_dim), dtype=complex)
    amp[:, coeffs.columns] = np.tensordot(phases, coeffs.table, axes=([0], [0]))
    layout = RegisterLayout(control_qubits=(coeffs.control_dim - 1).bit_length(),
                            target_dim=coeffs.target_dim)
    return StateVector(layout=layout, amplitudes=amp)


# --------------------------------------------------------------------------
# Block probability coefficients
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaCoefficients:
    """Trigonometric coefficients of block measurement probabilities.

    ``table[b, i]`` is the coefficient of exp(i l_values[i] q / 2) in the
    probability of measuring an outcome from block b.  For every frequency
    the block magnitudes sum to at most 1, and opposite frequencies carry
    conjugate coefficients, keeping the probabilities real.
    """

    l_values: tuple[int, ...]
    table: np.ndarray  # complex, shape (num_blocks, len(l_values))

    @property
    def block_count(self) -> int:
        return int(self.table.shape[0])

    def block_probability(self, block: int, q) -> np.ndarray | float:
        """Probability of the block as a function of the potential value."""
        qs = np.atleast_1d(np.asarray(q, dtype=float))
        phases = np.exp(0.5j * np.outer(qs, np.asarray(self.l_values, dtype=float)))
        vals = (phases @ self.table[block]).real
        return float(vals[0]) if np.ndim(q) == 0 else vals


def beta_coefficients(coeffs: TrigCoefficients, partition) -> BetaCoefficients:
    """Difference-frequency coefficients of every block of a joint-outcome partition.

    Blocks are sets of flattened joint outcomes (control * n + eigenindex).
    The coefficient for block B at frequency l collects conj(c_m) * c_{m+l}
    over the block's outcomes.  Autocorrelation is linear in the power
    spectrum, so the stored outcomes' spectra are summed per block and each
    block takes one inverse FFT; outcomes that are not stored contribute zero.
    The spectra are made for as many rows at a time as fit ``quantum.CHUNK_BYTES``.
    """
    blocks = [np.asarray(sorted(block), dtype=int) for block in partition]
    total = coeffs.outcome_count
    seen = np.concatenate(blocks) if blocks else np.array([], dtype=int)
    in_range = seen[(seen >= 0) & (seen < total)]
    if seen.size != total or in_range.size != seen.size or \
            np.unique(seen).size != seen.size:
        counts = np.bincount(in_range, minlength=total)
        missing = np.nonzero(counts == 0)[0][:8].tolist()
        doubled = np.nonzero(counts > 1)[0][:8].tolist()
        raise ValidationError(
            f"blocks do not partition the {total} outcomes "
            f"(missing {missing}, duplicated {doubled})"
        )

    block_of = np.empty(total, dtype=int)
    for b, block in enumerate(blocks):
        block_of[block] = b
    m = np.asarray(coeffs.m_values)
    span = int(m.max() - m.min() + 1)
    nfft = 2 * span
    outcomes = coeffs.joint_outcomes()
    joint = coeffs.joint_table()
    piece = max(1, quantum.CHUNK_BYTES // (16 * nfft))
    power = np.zeros((len(blocks), nfft))
    for start in range(0, outcomes.size, piece):
        rows = joint[start:start + piece]
        dense = np.zeros((len(rows), span), dtype=complex)
        dense[:, m - m.min()] = rows
        spectrum = np.abs(np.fft.fft(dense, nfft, axis=1)) ** 2
        np.add.at(power, block_of[outcomes[start:start + piece]], spectrum)

    l_values = probability_frequencies(coeffs.powers)
    table = np.fft.ifft(power, axis=1)[:, np.asarray(l_values) % nfft]

    sums = np.abs(table).sum(axis=0)
    if sums.max() > 1.0 + BLOCK_BOUND_TOL:
        worst = int(np.argmax(sums))
        raise NumericalError(
            f"block coefficient magnitudes sum to {sums[worst]!r} at frequency "
            f"{l_values[worst]}, above 1"
        )
    flipped = {l: i for i, l in enumerate(l_values)}
    mirror = [flipped[-l] for l in l_values]
    if np.abs(table - np.conj(table[:, mirror])).max() > BLOCK_BOUND_TOL:
        raise NumericalError("block coefficients are not conjugate-symmetric in frequency")
    return BetaCoefficients(l_values=l_values, table=table)


def control_partition(coeffs: TrigCoefficients, control_blocks) -> list[np.ndarray]:
    """Expand a partition of control outcomes to joint outcomes (all eigenvectors)."""
    n = coeffs.target_dim
    out = []
    for block in control_blocks:
        ks = np.asarray(sorted(block), dtype=int)
        out.append((ks[:, None] * n + np.arange(n)[None, :]).reshape(-1))
    return out


# --------------------------------------------------------------------------
# Least-squares confirmation of the frequency support
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    frequencies: tuple[int, ...]
    coefficients: np.ndarray
    residual: float
    condition: float
    rank: int


def fit_sample_grid(count: int = 1024) -> np.ndarray:
    """Uniform sample positions covering one full period of the basis."""
    if count < 1:
        raise ValidationError(f"grid size must be >= 1, got {count}")
    return np.arange(count) * (BASIS_PERIOD / count)


def fit_trig_poly(samples, frequencies) -> FitResult:
    """Least-squares fit of probability samples against exp(i l q / 2) basis functions.

    ``samples`` is a sequence of (q, p) pairs with q anywhere within one basis
    period; ``frequencies`` is an integer frequency list (or a FrequencySet,
    whose l_set is used).  The residual is the root-mean-square misfit.
    """
    if isinstance(frequencies, FrequencySet):
        frequencies = frequencies.l_set
    freqs = tuple(int(l) for l in frequencies)
    if not freqs:
        raise ValidationError("the frequency support must be nonempty")
    pairs = [(float(q), float(p)) for q, p in samples]
    if len(pairs) < 2 * len(freqs):
        raise ValidationError(
            f"need at least {2 * len(freqs)} samples for {len(freqs)} frequencies, "
            f"got {len(pairs)}"
        )
    qs = np.array([q for q, _ in pairs])
    ps = np.array([p for _, p in pairs], dtype=complex)
    if np.unique(qs).size != qs.size:
        raise ValidationError("sample positions must be distinct")
    basis = np.exp(0.5j * np.outer(qs, np.asarray(freqs, dtype=float)))
    coeff, _, rank, singular = np.linalg.lstsq(basis, ps, rcond=None)
    condition = float("inf") if singular[-1] == 0 else float(singular[0] / singular[-1])
    if condition > CONDITION_LIMIT:
        raise ConditioningError(
            f"basis condition estimate {condition:.3e} exceeds {CONDITION_LIMIT:.0e}; "
            "use a denser or wider sample grid"
        )
    residual = float(np.sqrt(np.mean(np.abs(ps - basis @ coeff) ** 2)))
    return FitResult(frequencies=freqs, coefficients=coeff, residual=residual,
                     condition=condition, rank=int(rank))
