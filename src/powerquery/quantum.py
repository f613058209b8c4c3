"""State-vector simulation over a control register tensored with a target space.

States live on C^(2^c) (x) C^n with the target axis expressed in the
eigenbasis of the discretized operator, so that a controlled power of the
propagator is a single diagonal phase multiplication.  This is the only state
representation: the eigensystem rotates the target axis to the standard basis
only inside a full-space unitary and a joint standard-basis measurement.

Schedules start at |0> (x) target and every fixed unitary but a full-space
matrix acts on the control register alone, so eigencolumns evolve on their
own.  One step loop propagates blocks of live columns: `control_distribution`
streams them in chunks, and `run_schedule` returns the full-width state.

Control bits are numbered 1..c with bit 1 the most significant bit of the
control index, matching the top-to-bottom wire order of the usual phase
estimation circuit and making the binary-fraction decoding a direct bit read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .discretization import EigenSystem
from .errors import SimulationLimitError, ValidationError

DEFAULT_AMPLITUDE_LIMIT = 2 ** 24
FULL_UNITARY_LIMIT = 4096
NORM_TOL = 1e-12
NORM_PIECE = 8192  # float64 values squared and summed at a time: 64 KiB
CHUNK_BYTES = 16 * 2 ** 20  # complex values a streamed loop holds per chunk
UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class RegisterLayout:
    """Register shape: c control qubits and an n-dimensional target."""

    control_qubits: int
    target_dim: int

    def __post_init__(self):
        if self.control_qubits < 0:
            raise ValidationError(f"control qubit count must be >= 0, got {self.control_qubits}")
        if self.target_dim < 1:
            raise ValidationError(f"target dimension must be >= 1, got {self.target_dim}")
        if self.control_dim * self.target_dim > DEFAULT_AMPLITUDE_LIMIT:
            raise SimulationLimitError(
                f"state of {self.control_dim * self.target_dim} amplitudes exceeds "
                f"the limit of {DEFAULT_AMPLITUDE_LIMIT}"
            )

    @property
    def control_dim(self) -> int:
        return 1 << self.control_qubits


def squared_norm(amplitudes: np.ndarray) -> float:
    """Sum of squared magnitudes, with rounding that grows only as log(size).

    Each 64 KiB piece is summed pairwise and so are the piece totals; a
    sequential BLAS norm drifts by ~1e-12 already at 2^20 amplitudes.  Working
    piecewise keeps the temporary small instead of state-sized.
    """
    values = np.ascontiguousarray(amplitudes, dtype=complex).reshape(-1).view(np.float64)
    return float(np.sum([np.square(values[i:i + NORM_PIECE]).sum()
                         for i in range(0, values.size, NORM_PIECE)]))


def _check_norm(amplitudes: np.ndarray, expected: float = 1.0):
    norm = math.sqrt(squared_norm(amplitudes))
    if abs(norm - expected) > NORM_TOL:
        raise ValidationError(f"state norm {norm!r} deviates from {expected:g} beyond {NORM_TOL:g}")


@dataclass(frozen=True)
class StateVector:
    """Amplitudes indexed by (control index, eigen index), unit norm."""

    layout: RegisterLayout
    amplitudes: np.ndarray  # shape (2^c, n), complex

    def __post_init__(self):
        expected = (self.layout.control_dim, self.layout.target_dim)
        if self.amplitudes.shape != expected:
            raise ValidationError(
                f"amplitude array shape {self.amplitudes.shape} does not match layout {expected}"
            )
        _check_norm(self.amplitudes)


def _checked_target(layout: RegisterLayout, target_amplitudes) -> np.ndarray:
    """The target amplitudes as a read-only complex n-vector of unit norm."""
    target = np.array(target_amplitudes, dtype=complex)
    if target.shape != (layout.target_dim,):
        raise ValidationError(
            f"target amplitudes have shape {target.shape}, expected ({layout.target_dim},)"
        )
    _check_norm(target)
    target.setflags(write=False)
    return target


def init_state(layout: RegisterLayout, target_amplitudes) -> StateVector:
    """All-zeros control register tensored with the given target amplitudes."""
    amp = np.zeros((layout.control_dim, layout.target_dim), dtype=complex)
    amp[0, :] = _checked_target(layout, target_amplitudes)
    return StateVector(layout=layout, amplitudes=amp)


# --------------------------------------------------------------------------
# Unitary specifications
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitarySpec:
    """A fixed unitary: a named gate, a control-register matrix, or a full-space matrix."""

    kind: str
    matrix: np.ndarray | None = None

    IDENTITY = "identity"
    HADAMARD_LAYER = "hadamard-layer"
    INVERSE_QFT = "inverse-qft"
    CONTROL_DENSE = "control-dense"
    FULL_DENSE = "full-dense"

    @staticmethod
    def identity() -> "UnitarySpec":
        return UnitarySpec(kind=UnitarySpec.IDENTITY)

    @staticmethod
    def hadamard_layer() -> "UnitarySpec":
        return UnitarySpec(kind=UnitarySpec.HADAMARD_LAYER)

    @staticmethod
    def inverse_qft() -> "UnitarySpec":
        return UnitarySpec(kind=UnitarySpec.INVERSE_QFT)

    @staticmethod
    def control_dense(matrix) -> "UnitarySpec":
        return UnitarySpec(kind=UnitarySpec.CONTROL_DENSE, matrix=_checked_unitary(matrix))

    @staticmethod
    def full_dense(matrix) -> "UnitarySpec":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim == 2 and m.shape[0] > FULL_UNITARY_LIMIT:
            raise SimulationLimitError(
                f"full-space unitaries are limited to {FULL_UNITARY_LIMIT} dimensions, "
                f"got {m.shape[0]}"
            )
        return UnitarySpec(kind=UnitarySpec.FULL_DENSE, matrix=_checked_unitary(m))


def _checked_unitary(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"unitary matrix must be square, got shape {m.shape}")
    dev = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
    if dev > UNITARY_TOL:
        raise ValidationError(f"matrix is not unitary (deviation {dev:.3e} > {UNITARY_TOL:g})")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class QueryStep:
    """One power query followed by a fixed unitary."""

    control_bit: int
    power: int
    unitary: UnitarySpec


@dataclass(frozen=True)
class AlgorithmSchedule:
    """A power-query algorithm: U_0, then alternating queries and unitaries.

    Running the schedule applies ``initial_unitary`` to |0> (x) ``initial_target``
    and then, for each step j, the controlled power (bit l_j, power p_j) followed
    by that step's unitary.  ``decoder.decode_all()`` gives every control
    outcome's eigenvalue estimate; it is None for schedules that are not decoded.
    """

    layout: RegisterLayout
    initial_target: np.ndarray
    initial_unitary: UnitarySpec
    steps: tuple[QueryStep, ...]
    decoder: object | None = None

    def __post_init__(self):
        object.__setattr__(self, "initial_target",
                           _checked_target(self.layout, self.initial_target))
        for j, step in enumerate(self.steps, start=1):
            if not 1 <= step.control_bit <= self.layout.control_qubits:
                raise ValidationError(
                    f"step {j}: control bit {step.control_bit} outside register "
                    f"of {self.layout.control_qubits} qubits"
                )
            if step.power < 1:
                raise ValidationError(f"step {j}: power must be >= 1, got {step.power}")

    @property
    def powers(self) -> tuple[int, ...]:
        return tuple(step.power for step in self.steps)


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def control_rows(amplitudes: np.ndarray, control_bit: int, value: int) -> np.ndarray:
    """View of the rows of an (..., 2^c, n) array whose control bit equals `value`.

    The view has shape (..., 2^(bit-1), 2^(c-bit), n), in row order.  Writing
    to it writes to `amplitudes`, which must be C-contiguous for that.
    """
    *lead, rows, cols = amplitudes.shape
    c = rows.bit_length() - 1
    if not 1 <= control_bit <= c:
        raise ValidationError(f"control bit {control_bit} outside register of {c} qubits")
    split = amplitudes.reshape(*lead, 1 << (control_bit - 1), 2, 1 << (c - control_bit), cols)
    return split[..., value, :, :]


def apply_power_query_array(amplitudes: np.ndarray, control_bit: int, power: int,
                            eigenvalues: np.ndarray):
    """In place, multiply rows of (..., 2^c, cols) with control bit set by exp(i * power * lambda / 2).

    `eigenvalues` holds one lambda per column.
    """
    rows = control_rows(amplitudes, control_bit, 1)
    rows *= np.exp(0.5j * power * eigenvalues)


def apply_power_query(state: StateVector, control_bit: int, power: int,
                      eig: EigenSystem) -> StateVector:
    """Multiply amplitudes with control bit set by exp(i * power * eigenvalue_s / 2)."""
    if power < 1:
        raise ValidationError(f"power must be >= 1, got {power}")
    layout = state.layout
    if eig.n != layout.target_dim:
        raise ValidationError(
            f"eigensystem dimension {eig.n} does not match target dimension {layout.target_dim}"
        )
    amp = state.amplitudes.copy()
    apply_power_query_array(amp, control_bit, power, eig.eigenvalues)
    return replace(state, amplitudes=amp)


def _walsh_hadamard_rows(amplitudes: np.ndarray) -> np.ndarray:
    """Normalized fast Walsh-Hadamard transform of the rows of an (..., 2^c, n) array."""
    rows = amplitudes.shape[-2]
    out = amplitudes.copy()
    for bit in range(rows.bit_length() - 1, 0, -1):
        zero, one = control_rows(out, bit, 0), control_rows(out, bit, 1)
        zero[...], one[...] = zero + one, zero - one
    out *= 1.0 / np.sqrt(rows)
    return out


def _inverse_qft_rows(amplitudes: np.ndarray, first_bit: int, last_bit: int) -> np.ndarray:
    """Inverse Fourier transform of the control bits first_bit..last_bit of (..., 2^c, n)."""
    size = 1 << (last_bit - first_bit + 1)
    split = amplitudes.reshape(*amplitudes.shape[:-2], 1 << (first_bit - 1), size, -1)
    return (np.fft.fft(split, axis=-2) / np.sqrt(size)).reshape(amplitudes.shape)


def apply_hadamard_layer(state: StateVector) -> StateVector:
    return apply_unitary(state, UnitarySpec.hadamard_layer())


def apply_inverse_qft(state: StateVector, first_bit: int = 1,
                      last_bit: int | None = None) -> StateVector:
    """Inverse Fourier transform of the control index over a contiguous bit range.

    The forward transform maps |j> to 2^(-T/2) sum_k exp(2 pi i jk / 2^T) |k>;
    this applies its inverse.  The default range is the whole control register.
    """
    c = state.layout.control_qubits
    if last_bit is None:
        last_bit = c
    if not (1 <= first_bit <= last_bit <= c):
        raise ValidationError(f"bit range {first_bit}..{last_bit} outside register of {c} qubits")
    return replace(state, amplitudes=_inverse_qft_rows(state.amplitudes, first_bit, last_bit))


def apply_unitary_array(amplitudes: np.ndarray, spec: UnitarySpec,
                        eig: EigenSystem | None) -> np.ndarray:
    """Apply a fixed unitary to amplitudes of shape (..., 2^c, n).

    Leading axes hold independent copies of the register, such as the
    frequency slices of a symbolic coefficient table.  The identity returns
    `amplitudes` itself; every other kind returns a new array.  Full-space
    matrices act in the standard basis, so they need the eigensystem to
    conjugate them into the eigenbasis.
    """
    *lead, rows, cols = amplitudes.shape
    if spec.kind == UnitarySpec.IDENTITY:
        return amplitudes
    if spec.kind == UnitarySpec.HADAMARD_LAYER:
        return _walsh_hadamard_rows(amplitudes)
    if spec.kind == UnitarySpec.INVERSE_QFT:
        return _inverse_qft_rows(amplitudes, 1, rows.bit_length() - 1)
    if spec.kind == UnitarySpec.CONTROL_DENSE:
        if spec.matrix.shape[0] != rows:
            raise ValidationError(
                f"control matrix of dimension {spec.matrix.shape[0]} does not match "
                f"register dimension {rows}"
            )
        return spec.matrix @ amplitudes
    if spec.kind == UnitarySpec.FULL_DENSE:
        dim = rows * cols
        if spec.matrix.shape[0] != dim:
            raise ValidationError(
                f"full-space matrix of dimension {spec.matrix.shape[0]} does not match "
                f"state dimension {dim}"
            )
        if eig is None:
            raise ValidationError("full-space unitaries need the eigensystem")
        standard = amplitudes @ eig.eigenvectors.T
        out = (standard.reshape(*lead, dim) @ spec.matrix.T).reshape(amplitudes.shape)
        return out @ eig.eigenvectors
    raise ValidationError(f"unknown unitary kind {spec.kind!r}")


def apply_unitary(state: StateVector, spec: UnitarySpec,
                  eig: EigenSystem | None = None) -> StateVector:
    """Apply a fixed unitary: named gate, control matrix (x) identity, or full matrix."""
    amp = apply_unitary_array(state.amplitudes, spec, eig)
    return state if amp is state.amplitudes else replace(state, amplitudes=amp)


def _couples_columns(schedule: AlgorithmSchedule) -> bool:
    unitaries = (schedule.initial_unitary,) + tuple(step.unitary for step in schedule.steps)
    return any(u.kind == UnitarySpec.FULL_DENSE for u in unitaries)


def live_columns(schedule: AlgorithmSchedule) -> np.ndarray:
    """Ascending eigen indices of the target columns the schedule can change.

    These are the non-zero entries of the initial target.  A full-space
    unitary couples the columns, so it makes every column live.
    """
    if _couples_columns(schedule):
        return np.arange(schedule.layout.target_dim)
    return np.flatnonzero(schedule.initial_target)


def _propagate(schedule: AlgorithmSchedule, eig: EigenSystem, cols: np.ndarray) -> np.ndarray:
    """Final (2^c, k) amplitudes of the eigencolumns `cols`, queries applied in place.

    The columns keep their starting norm on their own; it is checked after
    every query and after every unitary that is not the identity.
    """
    if eig.n != schedule.layout.target_dim:
        raise ValidationError(
            f"eigensystem dimension {eig.n} does not match schedule target dimension "
            f"{schedule.layout.target_dim}"
        )
    start = np.zeros((schedule.layout.control_dim, cols.size), dtype=complex)
    start[0] = schedule.initial_target[cols]
    norm = math.sqrt(squared_norm(start[0]))
    amp = apply_unitary_array(start, schedule.initial_unitary, eig)
    if amp is not start:
        _check_norm(amp, norm)
    eigenvalues = eig.eigenvalues[cols]
    for step in schedule.steps:
        apply_power_query_array(amp, step.control_bit, step.power, eigenvalues)
        _check_norm(amp, norm)
        mixed = apply_unitary_array(amp, step.unitary, eig)
        if mixed is not amp:
            amp = mixed
            _check_norm(amp, norm)
    return amp


def run_schedule(schedule: AlgorithmSchedule, eig: EigenSystem) -> StateVector:
    """The full-width final state: the live columns propagated together, the rest zero."""
    layout = schedule.layout
    live = live_columns(schedule)
    amp = np.zeros((layout.control_dim, layout.target_dim), dtype=complex)
    amp[:, live] = _propagate(schedule, eig, live)
    return StateVector(layout=layout, amplitudes=amp)


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------

CONTROL_ONLY = "control-only"
JOINT_STANDARD = "joint-standard-basis"


@dataclass(frozen=True)
class MeasurementDistribution:
    """Exact outcome probabilities; outcome i has probability ``probabilities[i]``."""

    probabilities: np.ndarray

    def __post_init__(self):
        if np.any(self.probabilities < -1e-12):
            raise ValidationError("negative probability in measurement distribution")
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1 within 1e-10")


def measurement_distribution(state: StateVector, scope: str = CONTROL_ONLY,
                             eig: EigenSystem | None = None) -> MeasurementDistribution:
    """Exact measurement statistics of the state.

    control-only marginalizes the target register; joint-standard-basis
    rotates the target axis to the standard basis first and reports one
    probability per (control, target) pair, flattened as k * n + x.
    """
    amp = state.amplitudes
    if scope == CONTROL_ONLY:
        probs = np.abs(amp) ** 2
        probs = probs.sum(axis=1)
    elif scope == JOINT_STANDARD:
        if eig is None:
            raise ValidationError("joint standard-basis measurement needs the eigensystem")
        probs = (np.abs(amp @ eig.eigenvectors.T) ** 2).reshape(-1)
    else:
        raise ValidationError(f"unknown measurement scope {scope!r}")
    return MeasurementDistribution(probabilities=probs)


def control_distribution(schedule: AlgorithmSchedule,
                         eig: EigenSystem) -> MeasurementDistribution:
    """Control-register outcome probabilities of the schedule's final state.

    The live columns run through the step loop in chunks of ``CHUNK_BYTES``
    (all at once when a full-space unitary couples them); each chunk's
    squared magnitudes are added per control row.
    """
    rows = schedule.layout.control_dim
    live = live_columns(schedule)
    width = live.size if _couples_columns(schedule) else max(1, CHUNK_BYTES // (16 * rows))
    probs = np.zeros(rows)
    for start in range(0, live.size, width):
        probs += (np.abs(_propagate(schedule, eig, live[start:start + width])) ** 2).sum(axis=1)
    return MeasurementDistribution(probabilities=probs)


def _splitmix64_uniform(seed: int, count: int) -> np.ndarray:
    """`count` doubles in [0,1) from the splitmix64 stream started at `seed`."""
    mask = (1 << 64) - 1
    base = np.uint64(seed & mask)
    steps = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = base + steps * np.uint64(0x9E3779B97F4A7C15)
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def sample_outcomes(dist: MeasurementDistribution, count: int, seed: int) -> np.ndarray:
    """Deterministic i.i.d. outcome indices drawn from the distribution."""
    if count < 1:
        raise ValidationError(f"sample count must be >= 1, got {count}")
    u = _splitmix64_uniform(seed, count)
    edges = np.cumsum(dist.probabilities)
    edges[-1] = max(edges[-1], 1.0)
    idx = np.searchsorted(edges, u, side="right")
    return np.minimum(idx, dist.probabilities.size - 1)
