"""Command-line front end: reproducible runs with CSV/JSON payloads on stdout.

Exit codes: 0 success, 1 validation or usage error, 2 premise failure in the
lower-bound audit, 3 internal numerical or I/O failure.  All randomness is
seeded (default 0), progress and timings go to stderr, and identical
invocations produce byte-identical payloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .discretization import (build_matrix, constant_eigensystem,
                             discretization_error_study, parse_potential,
                             solve_eigensystem)
from .errors import NumericalError, ValidationError
from .frequency import frequency_sets, symbolic_run
from .lowerbound import (LAMBDA_MAP_CONTINUUM, LAMBDA_MAP_DISCRETE,
                         lower_bound_audit, matched_epsilon)
from .phase_estimation import (MODE_EXACT, MODE_PERTURBED, PEConfig,
                               build_pe_schedule, default_q_grid,
                               run_phase_estimation, worst_case_error_sweep)
from .quantum import sample_outcomes
from .reports import PhaseTimer, RunReport, Table, emit_report, render_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PREMISE = 2
EXIT_NUMERICAL = 3


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(f"{message}\n{self.format_usage().rstrip()}")


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="powerquery", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add_common(p):
        p.add_argument("--config", help="JSON file with flag defaults (flags override)")
        p.add_argument("--output", help="write the payload to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default=None)

    p = sub.add_parser("discretize", help="build the finite-difference matrix or an error study")
    p.add_argument("--q", dest="potential", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-list", dest="n_list", default=None,
                   help="comma-separated grid sizes for the error study")
    add_common(p)

    p = sub.add_parser("eigensolve", help="solve the full eigensystem")
    p.add_argument("--q", dest="potential", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="residual bound checked on the result, relative to (n+1)^2")
    p.add_argument("--vectors", action="store_true", help="include eigenvectors in JSON output")
    add_common(p)

    p = sub.add_parser("phase-estimate", help="run phase estimation for one configuration")
    p.add_argument("--q", dest="potential", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--T", dest="queries", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--mode", default=None, help="exact or perturbed:OVERLAP")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    add_common(p)

    p = sub.add_parser("error-sweep", help="worst-case error estimates over a range of T")
    p.add_argument("--T-range", dest="t_range", default=None, help="inclusive range A:B")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--grid", type=int, default=None, help="number of potential grid points")
    p.add_argument("--threshold", type=float, default=None)
    add_common(p)

    p = sub.add_parser("freq-audit", help="frequency sets of a power sequence")
    p.add_argument("--powers", default=None, help="comma-separated positive integers")
    p.add_argument("--pe-T", dest="pe_queries", type=int, default=None,
                   help="audit the T-query phase-estimation power sequence instead")
    p.add_argument("--n", type=int, default=None,
                   help="target dimension for --dump-coefficients")
    p.add_argument("--dump-coefficients", dest="dump_coefficients", default=None,
                   help="write the symbolic coefficient table (k,s,m,re,im) to this CSV path")
    add_common(p)

    p = sub.add_parser("lowerbound-audit", help="verify the lower-bound inequality chain")
    p.add_argument("--T", dest="queries", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--epsilon", default=None, help="'auto' for 4*pi*2^-T, or a number")
    p.add_argument("--lambda-map", dest="lambda_map",
                   choices=(LAMBDA_MAP_DISCRETE, LAMBDA_MAP_CONTINUUM), default=None)
    p.add_argument("--report", default=None, help="alias for --output")
    add_common(p)

    return parser


# config-file keys use the flag spellings; map them to parser destinations
_KEY_ALIASES = {
    "q": "potential",
    "T": "queries",
    "pe_T": "pe_queries",
    "T_range": "t_range",
}

_FLAG_NAMES = {
    "potential": "--q",
    "queries": "--T",
    "pe_queries": "--pe-T",
    "t_range": "--T-range",
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    out = {}
    for key, value in data.items():
        key = str(key).replace("-", "_")
        out[_KEY_ALIASES.get(key, key)] = value
    return out


def _resolve(args, config, key, default=None, required=False, cast=None):
    value = getattr(args, key, None)
    if value is None or value is False:  # store_true flags default to False
        value = config.get(key, default if value is None else value)
    if value is None and required:
        flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
        raise ValidationError(f"missing required parameter {flag}")
    if cast is not None and value is not None:
        try:
            value = cast(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad value for {key}: {exc}") from None
    return value


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad integer list {text!r}: {exc}") from None


# --------------------------------------------------------------------------
# Subcommand handlers
# --------------------------------------------------------------------------

def _cmd_discretize(args, config) -> RunReport:
    timer = PhaseTimer()
    potential_text = _resolve(args, config, "potential", required=True, cast=str)
    potential = parse_potential(potential_text)
    n_list_text = _resolve(args, config, "n_list")
    timer.lap("setup")
    if n_list_text:
        if potential.kind != "constant":
            raise ValidationError("the error study is defined for constant potentials")
        n_list = _parse_int_list(n_list_text)
        rows = discretization_error_study(potential.value, n_list)
        timer.lap("compute")
        header = ["n", "lambda_continuum", "lambda_discrete", "error", "scaled_error"]
        table = Table(header, [[getattr(r, name) for r in rows] for name in header])
        return RunReport(
            command="discretize",
            config={"q": potential_text, "n_list": n_list},
            results={"rows": table},
            csv=table,
            timings=timer.timings,
        )
    n = _resolve(args, config, "n", required=True, cast=int)
    system = build_matrix(potential, n)
    timer.lap("compute")
    return RunReport(
        command="discretize",
        config={"q": potential_text, "n": n},
        results={"n": n, "diag": list(system.diag), "offdiag": system.offdiag},
        csv=Table(["j", "diag", "offdiag"],
                  [np.arange(1, n + 1), system.diag, np.full(n, system.offdiag)]),
        timings=timer.timings,
    )


def _cmd_eigensolve(args, config) -> RunReport:
    timer = PhaseTimer()
    potential_text = _resolve(args, config, "potential", required=True, cast=str)
    potential = parse_potential(potential_text)
    n = _resolve(args, config, "n", required=True, cast=int)
    tol = _resolve(args, config, "tol", default=1e-12, cast=float)
    want_vectors = bool(_resolve(args, config, "vectors", default=False))
    system = build_matrix(potential, n)
    timer.lap("setup")
    eig = solve_eigensystem(system, tol=tol)
    timer.lap("compute")
    results = {
        "n": n,
        "tol": tol,
        "eigenvalues": list(eig.eigenvalues),
        "orthonormality_deviation": eig.orthonormality_deviation,
        "relative_residual": eig.relative_residual,
    }
    if want_vectors:
        results["eigenvectors"] = [list(eig.eigenvectors[:, s]) for s in range(n)]
    return RunReport(
        command="eigensolve",
        config={"q": potential_text, "n": n, "tol": tol},
        results=results,
        csv=Table(["s", "eigenvalue"], [np.arange(1, n + 1), eig.eigenvalues]),
        timings=timer.timings,
    )


def _parse_mode(text: str) -> tuple[str, float]:
    if text in (None, "", "exact", MODE_EXACT):
        return MODE_EXACT, 1.0
    if text == MODE_PERTURBED:
        raise ValidationError("perturbed mode needs an overlap: use perturbed:OVERLAP")
    if text.startswith("perturbed:"):
        try:
            return MODE_PERTURBED, float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad overlap in mode {text!r}: {exc}") from None
    raise ValidationError(f"unknown mode {text!r} (use exact or perturbed:OVERLAP)")


def _cmd_phase_estimate(args, config) -> RunReport:
    timer = PhaseTimer()
    potential_text = _resolve(args, config, "potential", required=True, cast=str)
    potential = parse_potential(potential_text)
    n = _resolve(args, config, "n", required=True, cast=int)
    queries = _resolve(args, config, "queries", required=True, cast=int)
    epsilon = _resolve(args, config, "epsilon", required=True, cast=float)
    mode_text = _resolve(args, config, "mode", default="exact", cast=str)
    seed = _resolve(args, config, "seed", default=0, cast=int)
    samples = _resolve(args, config, "samples", default=0, cast=int)
    mode, overlap = _parse_mode(mode_text)
    cfg = PEConfig(queries=queries, grid_size=n, potential=potential,
                   epsilon=epsilon, mode=mode, overlap=overlap)
    timer.lap("setup")
    result = run_phase_estimation(cfg)
    probs = result.distribution.probabilities
    outcomes = Table(["outcome", "lambda_estimate", "probability"],
                     [np.arange(probs.size), result.lambda_estimates, probs])
    results = {
        "lambda_true": result.lambda_true,
        "phase": result.phase,
        "epsilon": epsilon,
        "success_probability": result.success_probability,
        "outcomes": outcomes,
    }
    csv = outcomes
    if samples > 0:
        drawn = sample_outcomes(result.distribution, samples, seed)
        results["samples"] = drawn
        csv = Table(outcomes.header + ["sample_count"],
                    outcomes.columns + [np.bincount(drawn, minlength=probs.size)])
    timer.lap("compute")
    return RunReport(
        command="phase-estimate",
        config={"q": potential_text, "n": n, "T": queries, "epsilon": epsilon,
                "mode": mode_text, "seed": seed, "samples": samples},
        results=results,
        csv=csv,
        timings=timer.timings,
    )


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(tok) for tok in str(text).split(":"))
    except ValueError:
        raise ValidationError(f"bad range {text!r}, expected A:B") from None
    if lo < 1 or hi < lo:
        raise ValidationError(f"bad range {text!r}: need 1 <= A <= B")
    return lo, hi


def _cmd_error_sweep(args, config) -> RunReport:
    timer = PhaseTimer()
    t_range = _resolve(args, config, "t_range", required=True, cast=str)
    lo, hi = _parse_range(t_range)
    n = _resolve(args, config, "n", default=16, cast=int)
    grid = _resolve(args, config, "grid", default=64, cast=int)
    threshold = _resolve(args, config, "threshold", default=0.75, cast=float)
    q_values = default_q_grid(grid)
    timer.lap("setup")
    rows = []
    for queries in range(lo, hi + 1):
        report = worst_case_error_sweep(queries, n, q_values, threshold)
        rows.append((queries, report.epsilon_achieved, report.success_probability_min))
        print(f"progress error-sweep T={queries} done", file=sys.stderr)
    timer.lap("compute")
    table = Table(["T", "epsilon_achieved", "min_success_prob"], list(zip(*rows)))
    return RunReport(
        command="error-sweep",
        config={"T_range": [lo, hi], "n": n, "grid": grid, "threshold": threshold},
        results={"rows": table},
        csv=table,
        timings=timer.timings,
    )


def _cmd_freq_audit(args, config) -> RunReport:
    timer = PhaseTimer()
    powers_text = _resolve(args, config, "powers")
    pe_queries = _resolve(args, config, "pe_queries", cast=int)
    if (powers_text is None) == (pe_queries is None):
        raise ValidationError("give exactly one of --powers or --pe-T")
    if pe_queries is not None:
        if pe_queries < 1:
            raise ValidationError(f"--pe-T must be >= 1, got {pe_queries}")
        powers = [1 << j for j in range(pe_queries)]
    else:
        powers = _parse_int_list(powers_text)
    fs = frequency_sets(powers)
    timer.lap("compute")

    dump_path = _resolve(args, config, "dump_coefficients")
    if dump_path:
        if pe_queries is None:
            raise ValidationError("--dump-coefficients needs --pe-T (a concrete schedule)")
        n = _resolve(args, config, "n", required=True, cast=int)
        schedule = build_pe_schedule(pe_queries, n)
        coeffs = symbolic_run(schedule, constant_eigensystem(0.0, n))
        with open(dump_path, "w", newline="") as fh:
            fh.write(render_csv(_coefficient_table(coeffs)))
        timer.lap("dump")

    t = len(fs.powers)
    return RunReport(
        command="freq-audit",
        config={"powers": list(fs.powers)},
        results={
            "powers": list(fs.powers),
            "m_set": list(fs.m_set),
            "l_set": list(fs.l_set),
            "m_cardinality": len(fs.m_set),
            "l_cardinality": len(fs.l_set),
            "l_cardinality_bound": 3 ** t,
            "sharp": fs.sharp,
        },
        csv=Table(["set", "index", "value"],
                  [["m"] * len(fs.m_set) + ["l"] * len(fs.l_set),
                   [*range(len(fs.m_set)), *range(len(fs.l_set))],
                   np.array(fs.m_set + fs.l_set, dtype=object)]),  # Python ints, past 2^63 too
        timings=timer.timings,
    )


def _coefficient_table(coeffs) -> Table:
    """Non-zero symbolic coefficients as rows (k, s, m, re, im), sorted by (k, s, m)."""
    mi, k, j = np.nonzero(coeffs.table)
    s = np.asarray(coeffs.columns)[j] + 1
    m = np.asarray(coeffs.m_values)[mi]
    order = np.lexsort((m, s, k))
    values = coeffs.table[mi, k, j][order]
    return Table(["k", "s", "m", "re", "im"],
                 [k[order], s[order], m[order], values.real, values.imag])


def _cmd_lowerbound_audit(args, config) -> RunReport:
    timer = PhaseTimer()
    queries = _resolve(args, config, "queries", required=True, cast=int)
    n = _resolve(args, config, "n", required=True, cast=int)
    eps_text = _resolve(args, config, "epsilon", default="auto", cast=str)
    lambda_map = _resolve(args, config, "lambda_map", default=LAMBDA_MAP_DISCRETE, cast=str)
    if eps_text == "auto":
        epsilon = matched_epsilon(queries)
    else:
        try:
            epsilon = float(eps_text)
        except ValueError:
            raise ValidationError(f"bad epsilon {eps_text!r}: use 'auto' or a number") from None
    schedule = build_pe_schedule(queries, n)
    timer.lap("setup")
    audit = lower_bound_audit(
        schedule,
        lambda q: constant_eigensystem(q, n),
        epsilon,
        lambda_map=lambda_map,
    )
    timer.lap("compute")
    results = {
        "grid_size": audit.grid_size,
        "epsilon": audit.epsilon,
        "lambda_map": audit.lambda_map,
        "premise_ok": audit.premise_ok,
        "all_passed": audit.all_passed,
        "verdicts": dict(audit.verdicts),
        "r_below_census": audit.r_below_census,
        "frequency_count": audit.frequency_count,
        "max_gap_width": audit.max_gap_width,
        "chosen_k": audit.chosen_k,
        "x_points": list(audit.x_points),
        "lambda_targets": list(audit.lambda_targets),
        "answer_sets": [list(a) for a in audit.answer_sets],
        "success_diagonal": list(audit.success_diagonal),
        "stray_mass": list(audit.stray_mass),
        "projected_frequencies": list(audit.projected),
        "dft_deviation": audit.dft_deviation,
        "dft": audit.dft_values,
    }
    report = RunReport(
        command="lowerbound-audit",
        config={"T": queries, "n": n, "epsilon": epsilon, "lambda_map": lambda_map},
        results=results,
        timings=timer.timings,
    )
    report.exit_code = EXIT_OK if audit.premise_ok else EXIT_PREMISE
    return report


_HANDLERS = {
    "discretize": _cmd_discretize,
    "eigensolve": _cmd_eigensolve,
    "phase-estimate": _cmd_phase_estimate,
    "error-sweep": _cmd_error_sweep,
    "freq-audit": _cmd_freq_audit,
    "lowerbound-audit": _cmd_lowerbound_audit,
}

# the payload formats of each subcommand, default first
_FORMATS = {
    "discretize": ("json", "csv"),
    "eigensolve": ("json", "csv"),
    "phase-estimate": ("json", "csv"),
    "error-sweep": ("csv", "json"),
    "freq-audit": ("json", "csv"),
    "lowerbound-audit": ("json",),
}


def parse_and_dispatch(argv) -> RunReport:
    """Validate, execute, and emit one subcommand; returns the run report."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        raise ValidationError(parser.format_usage().rstrip())
    config = _load_config(getattr(args, "config", None))
    formats = _FORMATS[args.command]
    fmt = _resolve(args, config, "format", default=formats[0], cast=str)
    if fmt not in formats:
        raise ValidationError(f"command {args.command!r} has no CSV form" if fmt == "csv"
                              else f"unknown output format {fmt!r}")
    output = _resolve(args, config, "output", cast=str)
    if args.command == "lowerbound-audit" and output is None:
        output = _resolve(args, config, "report", cast=str)
    if output not in (None, "-") and not os.path.exists(os.path.dirname(output) or "."):
        raise FileNotFoundError(2, os.strerror(2), output)  # what open() would raise
    report = _HANDLERS[args.command](args, config)
    emit_report(report, fmt, output)
    return report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        report = parse_and_dispatch(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return getattr(report, "exit_code", EXIT_OK)


if __name__ == "__main__":
    sys.exit(main())
