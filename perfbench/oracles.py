"""Independent checks of every job's payload.

Nothing here imports the package under test.  Eigenvalues come from
``numpy.linalg.eigvalsh`` on the dense matrix or from the closed form for
constant potentials; phase-estimation statistics come from the closed-form
Fejer distribution; frequency sets from closed forms or brute-force subset
sums.  Tolerances are derived from the program's documented accuracy (solver
residual at most tol * (n+1)^2 with tol = 1e-12) plus the rounding of
phases of size 2^T * lambda, never from the program's own output.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

FOUR_PI = 4.0 * math.pi
EPS = np.finfo(float).eps
SOLVER_TOL = 1e-12  # documented default of eigensolve / solve_eigensystem
HEALTH_TOL = 1e-10  # documented orthonormality and residual tolerance
DFT_TOL = 1e-9
MASS_TOL = 1e-9
SUCCESS_FLOOR = 0.75
AUDIT_VERDICTS = ("premise_success", "answer_sets_disjoint", "below_half_census",
                  "dft_matches_closed_form", "dft_exceeds_quarter_at_gap",
                  "frequency_count_squared_bound", "gap_width_bound")


class Mismatch(Exception):
    """A payload disagrees with its oracle."""


def _require(cond, message):
    if not cond:
        raise Mismatch(message)


def _close(name, got, want, tol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    dev = np.abs(got - want) - tol
    if dev.size and not np.all(dev <= 0):
        i = int(np.argmax(dev))
        raise Mismatch(f"{name}[{i}] = {got.flat[i]!r}, oracle {want.flat[i]!r} "
                       f"(tolerance {np.broadcast_to(tol, got.shape).flat[i]:.3g})")


# --------------------------------------------------------------------------
# Spectra
# --------------------------------------------------------------------------

def kinetic_ground(n: int) -> float:
    """Smallest eigenvalue of the constant-zero operator, in closed form."""
    return 4.0 * (n + 1) ** 2 * math.sin(math.pi / (2 * (n + 1))) ** 2


def potential_values(params, n):
    if "poly" in params:
        xs = np.arange(1, n + 1) / (n + 1)
        return np.polynomial.polynomial.polyval(xs, np.asarray(params["poly"], dtype=float))
    return np.asarray(params["q_samples"], dtype=float)


def dense_matrix(params, n):
    h2 = float((n + 1) ** 2)
    m = np.diag(2.0 * h2 + potential_values(params, n))
    idx = np.arange(n - 1)
    m[idx, idx + 1] = m[idx + 1, idx] = -h2
    return m


def eigen_tolerance(n: int) -> float:
    """Documented solver accuracy plus the error of eigvalsh on the dense matrix."""
    return SOLVER_TOL * (n + 1) ** 2 + 64 * EPS * 4 * (n + 1) ** 2


# --------------------------------------------------------------------------
# Fejer distribution of phase estimation
# --------------------------------------------------------------------------

def fejer(delta, size: int):
    """|2^-T sum_x exp(2 pi i x delta)|^2 for a register of `size` = 2^T outcomes."""
    d = delta - np.round(delta)
    s = np.sin(np.pi * d)
    small = np.abs(s) < 1e-9
    safe = np.where(small, 1.0, s)
    value = (np.sin(np.pi * size * d) / (size * safe)) ** 2
    return np.where(small, 1.0 - (np.pi ** 2) * (size * size - 1) / 3.0 * d * d, value)


def pe_distribution(lams, weights, queries: int, dlam: float, block: int = 32):
    """Outcome probabilities and per-outcome tolerances for start weights |a_s|^2.

    The tolerance covers an eigenvalue error of `dlam` (finite differences of
    the kernel) and the rounding of each controlled phase power * lambda / 2.
    """
    size = 1 << queries
    ks = np.arange(size) / size
    prob = np.zeros(size)
    tol = np.zeros(size)
    rounding = 0.0
    h = dlam / FOUR_PI
    nz = np.nonzero(weights)[0]
    for start in range(0, nz.size, block):
        sel = nz[start:start + block]
        w = weights[sel]
        d = (lams[sel] / FOUR_PI)[:, None] - ks[None, :]
        base = fejer(d, size)
        prob += w @ base
        tol += w @ np.maximum(np.abs(fejer(d + h, size) - base),
                              np.abs(fejer(d - h, size) - base))
        phase_err = 2.0 * queries * EPS * ((size / 2) * np.abs(lams[sel]) / 2 + 1.0)
        rounding += float(w @ phase_err)
    return prob, 2.0 * tol + 2.0 * rounding + 1e-13


def start_weights(n: int, overlap: float):
    """|a_s|^2 of the prepared state: overlap on the ground state, the rest even."""
    w = np.zeros(n)
    w[0] = overlap ** 2
    if overlap < 1.0:
        w[1:] = (1.0 - overlap ** 2) / (n - 1)
    return w


# --------------------------------------------------------------------------
# Payload parsing
# --------------------------------------------------------------------------

def parse_json(text, command):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"payload is not JSON: {exc}") from None
    _require(isinstance(doc, dict) and doc.get("command") == command,
             f"payload command is not {command!r}")
    return doc["results"]


def parse_csv(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == header, f"CSV header {rows[:1]} != {header}")
    try:
        return [[float(c) for c in row] for row in rows[1:]]
    except ValueError as exc:
        raise Mismatch(f"non-numeric CSV cell: {exc}") from None


# --------------------------------------------------------------------------
# Per-command checks
# --------------------------------------------------------------------------

def check_phase_estimate(job, text):
    p = job.params
    n, queries, overlap = p["n"], p["T"], p["overlap"]
    size = 1 << queries
    lams = np.linalg.eigvalsh(dense_matrix(p, n))
    dlam = eigen_tolerance(n)
    prob, tol = pe_distribution(lams, start_weights(n, overlap), queries, dlam)
    estimates = FOUR_PI * np.arange(size) / size

    if p["format"] == "csv":
        header = ["outcome", "lambda_estimate", "probability"]
        if p["samples"]:
            header.append("sample_count")
        rows = np.asarray(parse_csv(text, header)).reshape(-1, len(header))
        _require(rows.shape[0] == size, f"{rows.shape[0]} outcome rows, expected {size}")
        outcome, got_est, got_prob = rows[:, 0], rows[:, 1], rows[:, 2]
        if p["samples"]:
            _require(rows[:, 3].sum() == p["samples"] and rows[:, 3].min() >= 0,
                     f"sample counts sum to {rows[:, 3].sum()}, expected {p['samples']}")
        success = None
    else:
        r = parse_json(text, "phase-estimate")
        _close("lambda_true", r["lambda_true"], lams[0], dlam)
        _close("phase", r["phase"], lams[0] / FOUR_PI, dlam / FOUR_PI + 1e-16)
        _require(r["epsilon"] == p["epsilon"], "epsilon not echoed")
        rows = r["outcomes"]
        _require(len(rows) == size, f"{len(rows)} outcome rows, expected {size}")
        outcome = np.array([row["outcome"] for row in rows], dtype=float)
        got_est = np.array([row["lambda_estimate"] for row in rows])
        got_prob = np.array([row["probability"] for row in rows])
        success = r["success_probability"]
        if p["samples"]:
            drawn = r.get("samples", [])
            _require(len(drawn) == p["samples"] and all(0 <= v < size for v in drawn),
                     "samples missing or outside the outcome range")

    _require(np.array_equal(outcome, np.arange(size)), "outcome labels are not 0..2^T-1")
    _close("lambda_estimate", got_est, estimates, 1e-13 * FOUR_PI)
    _close("probability", got_prob, prob, tol)
    _require(abs(got_prob.sum() - 1.0) <= MASS_TOL,
             f"probabilities sum to {got_prob.sum()!r}")
    if success is not None:
        dist = np.abs(estimates - lams[0])
        sure = dist <= p["epsilon"] - dlam
        maybe = np.abs(dist - p["epsilon"]) <= dlam + 1e-12
        lo = float(np.sum((prob - tol)[sure]))
        hi = float(np.sum((prob + tol)[sure | maybe]))
        _require(lo - 1e-12 <= success <= hi + 1e-12,
                 f"success_probability {success!r} outside oracle range [{lo!r}, {hi!r}]")


def check_eigensolve(job, text):
    p = job.params
    n = p["n"]
    matrix = dense_matrix(p, n)
    lams = np.linalg.eigvalsh(matrix)
    dlam = eigen_tolerance(n)
    if p["format"] == "csv":
        rows = np.asarray(parse_csv(text, ["s", "eigenvalue"])).reshape(-1, 2)
        _require(rows.shape[0] == n and np.array_equal(rows[:, 0], np.arange(1, n + 1)),
                 f"expected rows s = 1..{n}")
        _close("eigenvalue", rows[:, 1], lams, dlam)
        return
    r = parse_json(text, "eigensolve")
    _require(r["n"] == n, "n not echoed")
    _close("eigenvalue", r["eigenvalues"], lams, dlam)
    _require(r["orthonormality_deviation"] <= HEALTH_TOL, "orthonormality deviation too large")
    _require(r["relative_residual"] <= HEALTH_TOL, "relative residual too large")
    if p["vectors"]:
        vecs = np.asarray(r.get("eigenvectors", []), dtype=float)
        _require(vecs.shape == (n, n), f"eigenvectors have shape {vecs.shape}")
        v = vecs.T
        values = np.asarray(r["eigenvalues"])
        residual = np.abs(matrix @ v - v * values[None, :]).max() / (n + 1) ** 2
        _require(residual <= HEALTH_TOL, f"eigenvector residual {residual:.3e}")
        gram = np.abs(v.T @ v - np.eye(n)).max()
        _require(gram <= HEALTH_TOL, f"eigenvectors not orthonormal ({gram:.3e})")


def check_discretize(job, text):
    p = job.params
    q, n_list = p["q"], p["n_list"]
    header = ["n", "lambda_continuum", "lambda_discrete", "error", "scaled_error"]
    if p["format"] == "csv":
        rows = parse_csv(text, header)
    else:
        rows = [[row[k] for k in header] for row in parse_json(text, "discretize")["rows"]]
    _require([int(r[0]) for r in rows] == n_list, "rows do not follow --n-list")
    target = math.pi ** 4 / 12
    for n, lc, ld, err, scaled in rows:
        n = int(n)
        dl = 64 * EPS * 4 * (n + 1) ** 2 + 1e-10
        _close(f"lambda_continuum(n={n})", lc, math.pi ** 2 + q, 1e-14 * lc)
        _close(f"lambda_discrete(n={n})", ld, kinetic_ground(n) + q, dl)
        _close(f"error(n={n})", err, lc - ld, 4 * EPS * lc)
        _close(f"scaled_error(n={n})", scaled, err * (n + 1) ** 2, 1e-14 * abs(scaled))
        # scaled error = pi^4/12 - pi^6 h^2 / 360 + O(h^4), h = 1/(n+1)
        bound = 1.01 * math.pi ** 6 / 360 / (n + 1) ** 2 + 2 * dl * (n + 1) ** 2
        _close(f"scaled_error vs pi^4/12 (n={n})", scaled, target, bound)


def sweep_grid(count: int):
    """The documented default potential grid: i/count plus 0 and 1 - 2^-20."""
    return np.array(sorted({i / count for i in range(count)} | {0.0, 1.0 - 2.0 ** -20}))


def sweep_oracle(n, grid, queries, threshold, tau=1e-9):
    """Bracket of the worst-case epsilon, and the per-q distances and probabilities."""
    size = 1 << queries
    lam = kinetic_ground(n) + sweep_grid(grid)
    dist = np.abs(FOUR_PI * np.arange(size)[None, :] / size - lam[:, None])
    prob = fejer(lam[:, None] / FOUR_PI - np.arange(size)[None, :] / size, size)
    order = np.argsort(dist, axis=1)
    d_sorted = np.take_along_axis(dist, order, axis=1)
    mass = np.cumsum(np.take_along_axis(prob, order, axis=1), axis=1)
    bracket = []
    for level in (threshold - tau, threshold + tau):
        idx = np.minimum((mass < level).sum(axis=1), size - 1)
        bracket.append(float(d_sorted[np.arange(lam.size), idx].max()))
    return bracket, dist, prob


def check_error_sweep(job, text):
    p = job.params
    header = ["T", "epsilon_achieved", "min_success_prob"]
    if p["format"] == "csv":
        rows = parse_csv(text, header)
    else:
        rows = [[row[k] for k in header] for row in parse_json(text, "error-sweep")["rows"]]
    expected_t = list(range(p["T_lo"], p["T_max"] + 1))
    _require([int(r[0]) for r in rows] == expected_t, f"rows are not T = {expected_t}")
    for t, eps, floor in rows:
        (lo, hi), dist, prob = sweep_oracle(p["n"], p["grid"], int(t), p["threshold"])
        _require(lo - 1e-9 <= eps <= hi + 1e-9,
                 f"T={int(t)}: epsilon_achieved {eps!r} outside oracle [{lo!r}, {hi!r}]")
        f_lo = float(np.min(np.sum(prob * (dist <= eps - 1e-9), axis=1)))
        f_hi = float(np.min(np.sum(prob * (dist <= eps + 1e-9), axis=1)))
        _require(f_lo - MASS_TOL <= floor <= f_hi + MASS_TOL,
                 f"T={int(t)}: min_success_prob {floor!r} outside oracle [{f_lo!r}, {f_hi!r}]")
        _require(floor >= p["threshold"] - 1e-12, f"T={int(t)}: floor below the threshold")


def subset_sums(powers):
    sums = np.zeros(1, dtype=np.int64)
    for pw in powers:
        sums = np.unique(np.concatenate([sums, sums + pw]))
    return sums


def check_freq_audit(job, text):
    p = job.params
    r = parse_json(text, "freq-audit")
    if "pe_T" in p:
        t = p["pe_T"]
        powers = [1 << j for j in range(t)]
        m_set = np.arange(1 << t)
        l_set = np.arange(-(1 << t) + 1, 1 << t)
    else:
        powers = p["powers"]
        t = len(powers)
        m_set = subset_sums(powers)
        l_set = np.unique(np.subtract.outer(m_set, m_set))
    _require(r["powers"] == powers, "powers not echoed")
    _require(np.array_equal(r["m_set"], m_set), "m_set differs from the oracle")
    _require(np.array_equal(r["l_set"], l_set), "l_set differs from the oracle")
    _require(r["m_cardinality"] == m_set.size and r["l_cardinality"] == l_set.size,
             "set cardinalities differ from the oracle")
    _require(r["l_cardinality_bound"] == 3 ** t and l_set.size <= 3 ** t, "3^T bound")
    _require(r["sharp"] == (l_set.size == 3 ** t), "sharp flag differs from the oracle")
    if p.get("dump"):
        check_dump(p["dump"], t, p["n"])


def check_dump(path, queries, n):
    """Coefficient table of the PE schedule: (1/M) exp(i m (kappa/2 - 2 pi k / M)), s = 1."""
    with open(path) as fh:
        rows = np.asarray(parse_csv(fh.read(), ["k", "s", "m", "re", "im"])).reshape(-1, 5)
    size = 1 << queries
    _require(rows.shape[0] == size * size, f"{rows.shape[0]} coefficients, expected {size ** 2}")
    k = np.repeat(np.arange(size), size)
    m = np.tile(np.arange(size), size)
    _require(np.array_equal(rows[:, 0], k) and np.array_equal(rows[:, 2], m)
             and np.all(rows[:, 1] == 1), "coefficient index columns differ from the oracle")
    c = np.exp(1j * m * (kinetic_ground(n) / 2 - 2 * np.pi * k / size)) / size
    _close("coefficient re", rows[:, 3], c.real, 1e-12)
    _close("coefficient im", rows[:, 4], c.imag, 1e-12)


def audit_grid_size(epsilon):
    """N with 1/(N+1) <= 2 epsilon < 1/N."""
    n = math.ceil(1.0 / (2 * epsilon)) - 1
    while 2 * epsilon >= 1.0 / n:
        n -= 1
    while 1.0 / (n + 1) > 2 * epsilon:
        n += 1
    return n


def check_lowerbound_audit(job, text):
    p = job.params
    t, n = p["T"], p["n"]
    r = parse_json(text, "lowerbound-audit")
    eps = FOUR_PI * 2.0 ** -t
    grid = audit_grid_size(eps)
    _close("epsilon", r["epsilon"], eps, 1e-15 * eps)
    _require(r["grid_size"] == grid, f"grid_size {r['grid_size']} != {grid}")
    _require(r["premise_ok"] is True and r["all_passed"] is True, "audit did not pass")
    verdicts = r["verdicts"]
    for name in AUDIT_VERDICTS:
        _require(verdicts.get(name) is True, f"verdict {name} is {verdicts.get(name)!r}")
    _require(r["dft_deviation"] is not None and r["dft_deviation"] <= DFT_TOL,
             f"dft_deviation {r['dft_deviation']!r} above {DFT_TOL}")
    l_count = 2 ** (t + 1) - 1
    _require(r["frequency_count"] == l_count and l_count ** 2 >= grid / 10,
             f"frequency_count {r['frequency_count']} != {l_count}")
    x = (np.arange(grid) + 0.5) / grid
    lam = kinetic_ground(n) + x
    _close("x_points", r["x_points"], x, 1e-15)
    _close("lambda_targets", r["lambda_targets"], lam, 1e-13 * lam)
    size = 1 << t
    est = FOUR_PI * np.arange(size) / size
    diag = []
    for i in range(grid):
        answer = np.nonzero(np.abs(lam[i] - est) <= eps)[0]
        _require(r["answer_sets"][i] == answer.tolist(), f"answer set {i} differs")
        diag.append(fejer(lam[i] / FOUR_PI - answer / size, size).sum())
    _close("success_diagonal", r["success_diagonal"], diag, MASS_TOL)
    _require(min(diag) >= SUCCESS_FLOOR, "oracle premise fails")


CHECKS = {
    "phase-estimate": check_phase_estimate,
    "eigensolve": check_eigensolve,
    "discretize": check_discretize,
    "error-sweep": check_error_sweep,
    "freq-audit": check_freq_audit,
    "lowerbound-audit": check_lowerbound_audit,
}


def verdict(job, exit_code, stdout_text, stderr_text):
    """Classify one finished job: ("ok" | "refused" | "failed" | "wrong", message).

    The expected exit code is decided from the job's inputs against the
    documented size limits: 0 inside them, 1 (a refusal) outside.  "wrong"
    is a successful exit whose payload disagrees with the oracle.
    """
    expected = 0 if job.within_limits() else 1
    if exit_code != expected:
        return "failed", f"exit {exit_code} (expected {expected}): {stderr_text.strip()[-300:]}"
    if expected == 1:
        return "refused", stderr_text.strip()[-300:]
    try:
        CHECKS[job.command](job, stdout_text)
    except Mismatch as exc:
        return "wrong", str(exc)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        return "wrong", f"malformed payload: {type(exc).__name__}: {exc}"
    return "ok", ""
