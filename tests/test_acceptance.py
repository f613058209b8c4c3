"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and never loosened at runtime.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from powerquery import (
    EigenSystem,
    PEConfig,
    PotentialSpec,
    beta_coefficients,
    build_matrix,
    build_pe_schedule,
    constant_eigensystem,
    default_q_grid,
    discretization_error_study,
    evaluate_symbolic,
    fit_sample_grid,
    fit_trig_poly,
    frequency_sets,
    lower_bound_audit,
    matched_epsilon,
    measurement_distribution,
    query_count_scaling,
    run_phase_estimation,
    run_schedule,
    solve_eigensystem,
    symbolic_run,
    worst_case_error_sweep,
)

FOUR_PI = 4 * math.pi


def report(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {number:2d} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def family_eigensystem(q: float, n: int) -> EigenSystem:
    """Constant-family eigensystem extended beyond the class range of q."""
    base = constant_eigensystem(0.0, n)
    return EigenSystem(eigenvalues=base.eigenvalues + q, eigenvectors=base.eigenvectors,
                       constant_q=q)


def test_criterion_01_closed_form_eigensystem():
    start = time.perf_counter()
    worst_val = 0.0
    worst_vec = 0.0
    for n in (3, 16, 128):
        for q in (0.0, 0.5, 1.0):
            ref = constant_eigensystem(q, n)
            eig = solve_eigensystem(build_matrix(PotentialSpec.constant(q), n))
            worst_val = max(worst_val,
                            float(np.abs(eig.eigenvalues - ref.eigenvalues).max()) / (n + 1) ** 2)
            sign = np.sign(np.sum(eig.eigenvectors * ref.eigenvectors, axis=0))
            worst_vec = max(worst_vec,
                            float(np.abs(eig.eigenvectors * sign - ref.eigenvectors).max()))
    elapsed = time.perf_counter() - start
    ok = worst_val <= 1e-9 and worst_vec <= 1e-8 and elapsed < 2.0
    report(1, ok, f"eigenvalue dev {worst_val:.2e} (<=1e-9 rel), "
                  f"eigenvector dev {worst_vec:.2e} (<=1e-8), {elapsed:.2f}s (<2s)")


def test_criterion_02_discretization_rate():
    start = time.perf_counter()
    limit = math.pi ** 4 / 12
    rows = discretization_error_study(0.0, [64, 128, 256, 512, 1024])
    rel = max(abs(row.scaled_error - limit) / limit for row in rows)
    elapsed = time.perf_counter() - start
    ok = rel <= 0.02 and elapsed < 5.0
    report(2, ok, f"scaled error within {rel * 100:.3f}% of pi^4/12 (<=2%), "
                  f"{elapsed:.2f}s (<5s)")


def test_criterion_03_exact_phase_determinism():
    leakage = 0.0
    for queries, index in ((3, 3), (6, 21), (10, 497)):
        lam = FOUR_PI * index / (1 << queries)
        eig = EigenSystem(eigenvalues=np.array([lam]), eigenvectors=np.array([[1.0]]),
                          constant_q=0.0)
        probs = measurement_distribution(
            run_schedule(build_pe_schedule(queries, 1), eig)).probabilities
        leakage = max(leakage, float(abs(probs[index] - 1.0)))
    ok = leakage <= 1e-10
    report(3, ok, f"representable phases return their index with leakage {leakage:.2e} (<=1e-10)")


def test_criterion_04_success_probability_floor():
    start = time.perf_counter()
    eps = FOUR_PI * 2.0 ** -9
    floor = 1.0
    for q in (0.0, 0.25, 0.5, 0.75, 1.0 - 2.0 ** -20):
        cfg = PEConfig(queries=10, grid_size=128, potential=PotentialSpec.constant(q),
                       epsilon=eps)
        floor = min(floor, run_phase_estimation(cfg).success_probability)
    elapsed = time.perf_counter() - start
    ok = floor >= 0.75 and elapsed < 10.0
    report(4, ok, f"success floor {floor:.4f} (>=0.75) at eps=4pi*2^-9, "
                  f"{elapsed:.2f}s (<10s)")


def test_criterion_05_logarithmic_scaling():
    grid = default_q_grid(16)
    epsilons = [2.0 ** -(4 + i) for i in range(9)]
    rows = query_count_scaling(epsilons, 8, grid)
    steps = [b.minimal_queries - a.minimal_queries for a, b in zip(rows, rows[1:])]
    drift = abs((rows[-1].minimal_queries - rows[0].minimal_queries) - 8)
    steps_ok = all(s in (0, 1, 2) for s in steps) and drift <= 1

    errors = {t: worst_case_error_sweep(t, 8, grid).epsilon_achieved for t in range(5, 13)}
    ratios = [errors[t + 1] / errors[t] for t in range(5, 12)]
    ratios_ok = all(0.4 <= r <= 0.6 for r in ratios)
    ok = steps_ok and ratios_ok
    report(5, ok, f"T per halving steps {steps} (drift {drift}<=1), "
                  f"error ratios {[round(r, 3) for r in ratios]} in [0.4,0.6]")


def test_criterion_06_symbolic_equals_numeric():
    rng = np.random.RandomState(606)
    schedule = build_pe_schedule(4, 8)
    coeffs = symbolic_run(schedule, constant_eigensystem(0.0, 8))
    norm_dev = max(abs(v - 1.0) for v in coeffs.norm_history)
    worst = 0.0
    for q in rng.uniform(0, 1, size=32):
        numeric = run_schedule(schedule, constant_eigensystem(q, 8))
        symbolic = evaluate_symbolic(coeffs, q)
        worst = max(worst, float(np.abs(numeric.amplitudes - symbolic.amplitudes).max()))
    ok = worst <= 1e-10 and norm_dev <= 1e-12
    report(6, ok, f"amplitude deviation {worst:.2e} (<=1e-10) over 32 potentials, "
                  f"norm drift {norm_dev:.2e} (<=1e-12)")


def test_criterion_07_block_coefficient_bound_and_fit():
    rng = np.random.RandomState(707)
    schedule = build_pe_schedule(4, 8)
    coeffs = symbolic_run(schedule, constant_eigensystem(0.0, 8))
    total = coeffs.outcome_count
    worst_sum = 0.0
    for _ in range(50):
        block_count = rng.randint(2, 9)
        assignment = rng.randint(0, block_count, size=total)
        blocks = [np.nonzero(assignment == b)[0] for b in range(block_count)]
        blocks = [b for b in blocks if b.size]
        betas = beta_coefficients(coeffs, blocks)
        worst_sum = max(worst_sum, float(np.abs(betas.table).sum(axis=0).max()))
    bound_ok = worst_sum <= 1 + 1e-10

    qs = fit_sample_grid(1024)
    target_block = [0]  # all joint outcomes with control index 0
    probs = []
    for q in qs:
        state = run_schedule(schedule, family_eigensystem(float(q), 8))
        probs.append(measurement_distribution(state).probabilities[target_block].sum())
    full = fit_trig_poly(zip(qs, probs), frequency_sets([1, 2, 4, 8]))
    truncated = fit_trig_poly(zip(qs, probs), frequency_sets([1, 2, 4]))
    fit_ok = full.residual <= 1e-8 and truncated.residual > 1e-4
    ok = bound_ok and fit_ok
    report(7, ok, f"block coefficient sums max {worst_sum:.12f} (<=1+1e-10) over 50 "
                  f"partitions; fit residuals full {full.residual:.2e} (<=1e-8) vs "
                  f"truncated {truncated.residual:.2e} (>1e-4)")


def test_criterion_08_frequency_set_facts():
    rng = np.random.RandomState(808)
    bounds_ok = True
    brute_ok = True
    for _ in range(200):
        t = rng.randint(1, 9)
        powers = [int(p) for p in rng.randint(1, 64, size=t)]
        fs = frequency_sets(powers)
        bounds_ok &= len(fs.l_set) <= 3 ** t
        diffs = sorted({a - b for a in fs.m_set for b in fs.m_set})
        brute_ok &= list(fs.l_set) == diffs
    sharp_ok = all(
        len(frequency_sets([3 ** i for i in range(t)]).l_set) == 3 ** t
        for t in range(1, 9)
    )
    ok = bounds_ok and brute_ok and sharp_ok
    report(8, ok, f"|l_set|<=3^T on 200 random sequences: {bounds_ok}; recursion equals "
                  f"difference set: {brute_ok}; tripling powers sharp up to T=8: {sharp_ok}")


def test_criterion_09_lower_bound_audit():
    checks = []
    start = time.perf_counter()
    for queries in (6, 8):
        n = 32
        schedule = build_pe_schedule(queries, n)
        audit = lower_bound_audit(schedule, lambda q: constant_eigensystem(q, n),
                                  matched_epsilon(queries))
        checks.append((queries, audit))
    elapsed = time.perf_counter() - start
    all_ok = all(audit.all_passed for _, audit in checks) and elapsed < 60.0
    details = "; ".join(
        f"T={q}: N={a.grid_size}, verdicts all true={a.all_passed}, "
        f"dft dev {a.dft_deviation:.1e}"
        for q, a in checks
    )
    report(9, all_ok, f"{details}; {elapsed:.1f}s (<60s)")


CLI_EXAMPLES = [
    ["discretize", "--q", "const:0", "--n", "2"],
    ["discretize", "--q", "const:0", "--n-list", "16,32,64", "--format", "csv"],
    ["eigensolve", "--q", "const:0.5", "--n", "16", "--format", "csv"],
    ["freq-audit", "--powers", "1,3", "--format", "json"],
    ["freq-audit", "--powers", "1,3,9", "--format", "json"],
    ["freq-audit", "--pe-T", "6", "--n", "16", "--format", "json"],
    ["error-sweep", "--T-range", "4:6", "--n", "64", "--grid", "16"],
    ["error-sweep", "--T-range", "4:12", "--grid", "64"],
    ["phase-estimate", "--q", "const:0.5", "--n", "128", "--T", "10",
     "--epsilon", "1e-3", "--format", "json"],
    ["phase-estimate", "--q", "const:0.5", "--n", "128", "--T", "10", "--epsilon", "1e-3",
     "--mode", "perturbed:0.95", "--seed", "3", "--samples", "64", "--format", "csv"],
]


def run_cli_subprocess(args, cwd=None):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "powerquery.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("args", CLI_EXAMPLES, ids=lambda a: " ".join(a)[:48])
def test_criterion_10_cli_determinism(args):
    code1, out1 = run_cli_subprocess(args)
    code2, out2 = run_cli_subprocess(args)
    ok = code1 == 0 and code2 == 0 and out1 == out2 and len(out1) > 0
    report(10, ok, f"byte-identical reruns of: {' '.join(args)}")


def test_criterion_10_cli_determinism_report_file(tmp_path):
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _ = run_cli_subprocess(["lowerbound-audit", "--T", "8", "--n", "32",
                                      "--epsilon", "auto", "--report", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] and json.loads(outputs[0])["results"]["all_passed"] is True
    report(10, ok, "byte-identical audit report files for: lowerbound-audit --T 8 --n 32 "
                   "--epsilon auto --report out.json")
