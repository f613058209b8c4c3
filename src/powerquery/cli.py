"""Command-line front end: reproducible runs with CSV/JSON payloads on stdout.

Each subcommand declares its parameters once, in one table; a value comes from
its flag, else the --config file, else its default, and all are checked before
any work.  Exit codes: 0 success, 1 validation or usage error, 2 premise
failure in the lower-bound audit, 3 internal numerical or I/O failure.  All
randomness is seeded (default 0), progress and timings go to stderr, and
identical invocations produce byte-identical payloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

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


# Parse functions read flag text and config values alike; a refusal quotes the docstring.

def _typed(value, *types):
    """The value itself if it has one of `types`; a JSON boolean is not a number."""
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise TypeError(value)
    return value


def _text(value) -> str:
    """text"""
    return _typed(value, str)


def _integer(value) -> int:
    """an integer"""
    return int(_typed(value, int, str))


def _at_least(low: int) -> Callable:
    def parse(value) -> int:
        if (number := _integer(value)) < low:
            raise ValueError(number)
        return number
    parse.__doc__ = f"an integer >= {low}"
    return parse


def _finite(value) -> float:
    """a finite number"""
    number = float(_typed(value, int, float, str))
    if not math.isfinite(number):
        raise ValueError(number)
    return number


def _auto_or_finite(value):
    """'auto' or a finite number"""
    return value if value == "auto" else _finite(value)


def _int_list(value) -> list[int]:
    """a comma-separated list of integers with no empty items"""
    return [_integer(item) for item in _text(value).split(",")]


def _int_range(value) -> tuple[int, int]:
    """an integer range A:B with 1 <= A <= B"""
    lo, hi = (_integer(item) for item in _text(value).split(":"))
    if not 1 <= lo <= hi:
        raise ValueError(value)
    return lo, hi


def _mode(value) -> str:
    """exact, or perturbed:OVERLAP with a finite OVERLAP"""
    kind, colon, overlap = _text(value).partition(":")
    if kind == MODE_PERTURBED and colon:
        _finite(overlap)
    elif value not in ("", "exact", MODE_EXACT):
        raise ValueError(value)
    return value


def _switch(value) -> bool:
    """true or false"""
    return _typed(value, bool)


# Subcommand handlers: each reads the namespace resolved from its parameter table

def _cmd_discretize(args) -> RunReport:
    timer = PhaseTimer()
    potential = parse_potential(args.q)
    timer.lap("setup")
    if args.n_list is not None:
        if potential.kind != "constant":
            raise ValidationError("the error study is defined for constant potentials")
        rows = discretization_error_study(potential.value, args.n_list)
        timer.lap("compute")
        header = ["n", "lambda_continuum", "lambda_discrete", "error", "scaled_error"]
        table = Table(header, [[getattr(r, name) for r in rows] for name in header])
        return RunReport(
            command="discretize",
            config={"q": args.q, "n_list": args.n_list},
            results={"rows": table},
            csv=table,
            timings=timer.timings,
        )
    if args.n is None:
        raise ValidationError("missing required parameter --n")
    system = build_matrix(potential, args.n)
    timer.lap("compute")
    return RunReport(
        command="discretize",
        config={"q": args.q, "n": args.n},
        results={"n": args.n, "diag": list(system.diag), "offdiag": system.offdiag},
        csv=Table(["j", "diag", "offdiag"],
                  [np.arange(1, args.n + 1), system.diag, np.full(args.n, system.offdiag)]),
        timings=timer.timings,
    )


def _cmd_eigensolve(args) -> RunReport:
    timer = PhaseTimer()
    system = build_matrix(parse_potential(args.q), args.n)
    timer.lap("setup")
    eig = solve_eigensystem(system, tol=args.tol)
    timer.lap("compute")
    results = {
        "n": args.n,
        "tol": args.tol,
        "eigenvalues": list(eig.eigenvalues),
        "orthonormality_deviation": eig.orthonormality_deviation,
        "relative_residual": eig.relative_residual,
    }
    if args.vectors:
        results["eigenvectors"] = [list(eig.eigenvectors[:, s]) for s in range(args.n)]
    return RunReport(
        command="eigensolve",
        config={"q": args.q, "n": args.n, "tol": args.tol},
        results=results,
        csv=Table(["s", "eigenvalue"], [np.arange(1, args.n + 1), eig.eigenvalues]),
        timings=timer.timings,
    )


def _cmd_phase_estimate(args) -> RunReport:
    timer = PhaseTimer()
    potential = parse_potential(args.q)
    _, perturbed, overlap = args.mode.partition(":")
    cfg = PEConfig(queries=args.T, grid_size=args.n, potential=potential, epsilon=args.epsilon,
                   mode=MODE_PERTURBED if perturbed else MODE_EXACT, overlap=float(overlap or 1))
    timer.lap("setup")
    result = run_phase_estimation(cfg)
    probs = result.distribution.probabilities
    outcomes = Table(["outcome", "lambda_estimate", "probability"],
                     [np.arange(probs.size), result.lambda_estimates, probs])
    results = {
        "lambda_true": result.lambda_true,
        "phase": result.phase,
        "epsilon": args.epsilon,
        "success_probability": result.success_probability,
        "outcomes": outcomes,
    }
    csv = outcomes
    if args.samples > 0:
        drawn = sample_outcomes(result.distribution, args.samples, args.seed)
        results["samples"] = drawn
        csv = Table(outcomes.header + ["sample_count"],
                    outcomes.columns + [np.bincount(drawn, minlength=probs.size)])
    timer.lap("compute")
    return RunReport(
        command="phase-estimate",
        config={"q": args.q, "n": args.n, "T": args.T, "epsilon": args.epsilon,
                "mode": args.mode, "seed": args.seed, "samples": args.samples},
        results=results,
        csv=csv,
        timings=timer.timings,
    )


def _cmd_error_sweep(args) -> RunReport:
    timer = PhaseTimer()
    lo, hi = args.T_range
    q_values = default_q_grid(args.grid)
    timer.lap("setup")
    rows = []
    for queries in range(lo, hi + 1):
        report = worst_case_error_sweep(queries, args.n, q_values, args.threshold)
        rows.append((queries, report.epsilon_achieved, report.success_probability_min))
        print(f"progress error-sweep T={queries} done", file=sys.stderr)
    timer.lap("compute")
    table = Table(["T", "epsilon_achieved", "min_success_prob"], list(zip(*rows)))
    return RunReport(
        command="error-sweep",
        config={"T_range": [lo, hi], "n": args.n, "grid": args.grid,
                "threshold": args.threshold},
        results={"rows": table},
        csv=table,
        timings=timer.timings,
    )


def _cmd_freq_audit(args) -> RunReport:
    timer = PhaseTimer()
    if (args.powers is None) == (args.pe_T is None):
        raise ValidationError("give exactly one of --powers or --pe-T")
    if args.dump_coefficients and args.pe_T is None:
        raise ValidationError("--dump-coefficients needs --pe-T (a concrete schedule)")
    if args.dump_coefficients and args.n is None:
        raise ValidationError("missing required parameter --n")
    fs = frequency_sets(args.powers if args.pe_T is None else
                        [1 << j for j in range(args.pe_T)])
    timer.lap("compute")

    if args.dump_coefficients:
        schedule = build_pe_schedule(args.pe_T, args.n)
        coeffs = symbolic_run(schedule, constant_eigensystem(0.0, args.n))
        with open(args.dump_coefficients, "w", newline="") as fh:
            fh.write(render_csv(_coefficient_table(coeffs)))
        timer.lap("dump")

    return RunReport(
        command="freq-audit",
        config={"powers": list(fs.powers)},
        results={
            "powers": list(fs.powers),
            "m_set": list(fs.m_set),
            "l_set": list(fs.l_set),
            "m_cardinality": len(fs.m_set),
            "l_cardinality": len(fs.l_set),
            "l_cardinality_bound": 3 ** len(fs.powers),
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


def _cmd_lowerbound_audit(args) -> RunReport:
    timer = PhaseTimer()
    epsilon = matched_epsilon(args.T) if args.epsilon == "auto" else args.epsilon
    schedule = build_pe_schedule(args.T, args.n)
    timer.lap("setup")
    audit = lower_bound_audit(
        schedule,
        lambda q: constant_eigensystem(q, args.n),
        epsilon,
        lambda_map=args.lambda_map,
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
    return RunReport(
        command="lowerbound-audit",
        config={"T": args.T, "n": args.n, "epsilon": epsilon, "lambda_map": args.lambda_map},
        results=results,
        timings=timer.timings,
        exit_code=EXIT_OK if audit.premise_ok else EXIT_PREMISE,
    )


class Param(NamedTuple):
    """One parameter row; `key` (the flag less its dashes) is the config key and attribute."""

    flag: str
    parse: Callable = _text
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: str | None = None
    metavar: str | None = None

    @property
    def key(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


@dataclass
class Command:
    """A subcommand: handler, help line, payload formats (default first), own parameters."""

    handler: Callable
    help: str
    formats: tuple
    params: tuple

    def __post_init__(self):  # every subcommand ends with --config, --output and --format
        self.params += (Param("--config", help="JSON file with flag defaults (flags override)"),
                        Param("--output", help="write the payload to this path instead of stdout"),
                        Param("--format", default=self.formats[0], metavar="{json,csv}"))


_Q = Param("--q", required=True, metavar="POTENTIAL")
_T = Param("--T", _integer, required=True, metavar="QUERIES")
_N = Param("--n", _integer, required=True)

_COMMANDS = {
    "discretize": Command(
        _cmd_discretize, "build the finite-difference matrix or an error study", ("json", "csv"),
        (_Q, Param("--n", _integer),
         Param("--n-list", _int_list, help="comma-separated grid sizes for the error study"))),
    "eigensolve": Command(
        _cmd_eigensolve, "solve the full eigensystem", ("json", "csv"),
        (_Q, _N, Param("--tol", _finite, 1e-12,
                       help="residual bound checked on the result, relative to (n+1)^2"),
         Param("--vectors", _switch, False, help="include eigenvectors in JSON output"))),
    "phase-estimate": Command(
        _cmd_phase_estimate, "run phase estimation for one configuration", ("json", "csv"),
        (_Q, _N, _T, Param("--epsilon", _finite, required=True),
         Param("--mode", _mode, "exact", help="exact or perturbed:OVERLAP"),
         Param("--seed", _integer, 0), Param("--samples", _at_least(0), 0))),
    "error-sweep": Command(
        _cmd_error_sweep, "worst-case error estimates over a range of T", ("csv", "json"),
        (Param("--T-range", _int_range, required=True, help="inclusive range A:B"),
         Param("--n", _integer, 16),
         Param("--grid", _at_least(1), 64, help="number of potential grid points"),
         Param("--threshold", _finite, 0.75))),
    "freq-audit": Command(
        _cmd_freq_audit, "frequency sets of a power sequence", ("json", "csv"),
        (Param("--powers", _int_list, help="comma-separated positive integers"),
         Param("--pe-T", _at_least(1), metavar="PE_QUERIES",
               help="audit the T-query phase-estimation power sequence instead"),
         Param("--n", _integer, help="target dimension for --dump-coefficients"),
         Param("--dump-coefficients",
               help="write the symbolic coefficient table (k,s,m,re,im) to this CSV path"))),
    "lowerbound-audit": Command(
        _cmd_lowerbound_audit, "verify the lower-bound inequality chain", ("json",),
        (_T, _N,
         Param("--epsilon", _auto_or_finite, "auto", help="'auto' for 4*pi*2^-T, or a number"),
         Param("--lambda-map", default=LAMBDA_MAP_DISCRETE,
               choices=(LAMBDA_MAP_DISCRETE, LAMBDA_MAP_CONTINUUM)),
         Param("--report", help="alias for --output"))),
}


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="powerquery", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for row in command.params:  # argparse keeps the text; the row's parse reads it
            shown = ({"action": "store_true"} if row.parse is _switch else
                     {"choices": row.choices or None, "metavar": row.metavar})
            p.add_argument(row.flag, default=None, help=row.help, **shown)
    return parser


def _load_config(path: str | None) -> dict:
    """The config file's entries, keyed by flag spelling; a key no subcommand takes is refused."""
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
    config = {key.replace("-", "_"): value for key, value in data.items()}
    known = {row.key for command in _COMMANDS.values() for row in command.params}
    if not config.keys() <= known:
        raise ValidationError(f"unknown config key {min(config.keys() - known)!r} in {path}; "
                              f"known keys: {', '.join(sorted(known))}")
    return config


def _read_parameters(command: Command, flags, config: dict) -> argparse.Namespace:
    """Each parameter from its flag, else the config file, else its default; all checked."""
    args = argparse.Namespace()
    for row in command.params:
        value = getattr(flags, row.key)
        if value is None:
            value = config.get(row.key)
        if value is None and row.required:
            raise ValidationError(f"missing required parameter {row.flag}")
        try:
            value = row.default if value is None else row.parse(value)
        except (ArithmeticError, TypeError, ValueError):
            raise ValidationError(
                f"{row.flag} must be {row.parse.__doc__}, got {value!r}") from None
        if row.choices and value not in row.choices:
            raise ValidationError(f"{row.flag} must be one of {row.choices}, got {value!r}")
        setattr(args, row.key, value)
    return args


def parse_and_dispatch(argv) -> RunReport:
    """Check the whole invocation, then execute and emit one subcommand; returns the report."""
    parser = _build_parser()
    flags = parser.parse_args(argv)
    if not getattr(flags, "command", None):
        raise ValidationError(parser.format_usage().rstrip())
    command = _COMMANDS[flags.command]
    args = _read_parameters(command, flags, _load_config(flags.config))
    if args.format not in command.formats:
        raise ValidationError(f"command {flags.command!r} has no CSV form" if args.format == "csv"
                              else f"unknown output format {args.format!r}")
    output = args.output if args.output is not None else getattr(args, "report", None)
    if output not in (None, "-") and not os.path.exists(os.path.dirname(output) or "."):
        raise FileNotFoundError(2, os.strerror(2), output)  # what open() would raise
    report = command.handler(args)
    emit_report(report, args.format, output)
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
