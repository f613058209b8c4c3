"""Row tables against the generic renderer, and the README's CSV schemas against the CLI.

The reference path expands every `Table` to row dicts for `render_json` and
to `format_number` cells for CSV, which is how row-shaped results were
rendered before tables; the per-row templates must give the same bytes.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from powerquery import (NumericalError, ValidationError, build_pe_schedule, constant_eigensystem,
                        symbolic_run)
from powerquery.cli import _COMMANDS, _coefficient_table, main, parse_and_dispatch
from powerquery.reports import Table, format_number, render_csv, render_json
from test_acceptance import CLI_EXAMPLES

README = Path(__file__).resolve().parents[1] / "README.md"


def generic_csv(table):
    lines = [",".join(table.header)]
    for row in zip(*table.columns):
        lines.append(",".join(c if isinstance(c, str) else format_number(c) for c in row))
    return "\n".join(lines) + "\n"


def expand(value):
    if isinstance(value, Table):
        return [dict(zip(value.header, row)) for row in zip(*value.columns)]
    return value


def generic_payload(report, fmt):
    if fmt == "csv":
        return generic_csv(report.csv)
    doc = {"command": report.command, "config": report.config,
           "results": {key: expand(value) for key, value in report.results.items()},
           "version": report.version}
    return render_json(doc) + "\n"


def output_format(argv):
    return argv[argv.index("--format") + 1] if "--format" in argv else _COMMANDS[argv[0]].formats[0]


JSON_FORMS = [
    ["error-sweep", "--T-range", "4:6", "--n", "64", "--grid", "16", "--format", "json"],
    ["discretize", "--q", "const:0", "--n-list", "16,32,64", "--format", "json"],
    ["phase-estimate", "--q", "const:0.5", "--n", "128", "--T", "10", "--epsilon", "1e-3",
     "--mode", "perturbed:0.95", "--seed", "3", "--samples", "64", "--format", "json"],
]


class TestTableMatchesGenericRenderer:
    @pytest.mark.parametrize("argv", CLI_EXAMPLES + JSON_FORMS, ids=lambda a: " ".join(a)[:60])
    def test_cli_payload(self, argv, capsys):
        report = parse_and_dispatch(list(argv))
        out = capsys.readouterr().out
        assert out == generic_payload(report, output_format(argv))
        tables = [v for v in report.results.values() if isinstance(v, Table)] + [report.csv]
        assert any(isinstance(t, Table) and t.columns[0].size for t in tables)

    @staticmethod
    def random_column(rng, kind, rows):
        if kind == "int":
            edges = [0, 1, -1, 2 ** 53, -2 ** 53, 2 ** 53 - 1]
            return np.array([edges[i] if i < len(edges) else int(rng.randint(-10 ** 9, 10 ** 9))
                             for i in rng.randint(0, 2 * len(edges), size=rows)], dtype=np.int64)
        if kind == "float":
            edges = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, 1.0 / 3.0]
            return np.array([edges[i] if i < len(edges)
                             else rng.standard_normal() * 10.0 ** rng.randint(-300, 300)
                             for i in rng.randint(0, 2 * len(edges), size=rows)])
        alphabet = ['a', 'Z', '0', ' ', '%', '"', '\\', 'é', '☃', 'd', 's']
        return np.array(["".join(rng.choice(alphabet, size=rng.randint(0, 6)))
                         for _ in range(rows)], dtype=str)

    def test_random_tables(self):
        rng = np.random.RandomState(81)
        names = ["n", "lambda", "%d", 'q"uote', "s%s", "x"]
        for trial in range(60):
            rows = 0 if trial % 10 == 0 else int(rng.randint(1, 40))
            width = int(rng.randint(1, 6))
            kinds = [("int", "float", "str")[i] for i in rng.randint(0, 3, size=width)]
            header = [names[i] for i in rng.permutation(len(names))[:width]]
            table = Table(header, [self.random_column(rng, kind, rows) for kind in kinds])
            assert render_csv(table) == generic_csv(table)
            if not all(np.isfinite(c).all() for c in table.columns if c.dtype.kind == "f"):
                for value in (table, expand(table)):  # JSON has no NaN or infinity
                    with pytest.raises(NumericalError):
                        render_json(value)
                table = Table(header, [np.nan_to_num(c) if c.dtype.kind == "f" else c
                                       for c in table.columns])
            for indent in (0, 1, 3):
                assert render_json(table, indent) == render_json(expand(table), indent)
            nested = {"a": 1, "rows": table, "z": [0.5]}
            assert render_json(nested) == render_json({k: expand(v) for k, v in nested.items()})
            if rows == 0:
                assert render_json(table) == "[]"
                assert render_csv(table) == ",".join(header) + "\n"

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValidationError):
            Table(["a", "b"], [[1, 2], [1.0]])
        with pytest.raises(ValidationError):
            Table(["a"], [[1], [2]])


class TestCoefficientDump:
    @pytest.mark.parametrize("target,live", [
        ([1.0, 0.0, 0.0, 0.0], (0,)),
        ([0.0, 0.6, 0.0, 0.8], (1, 3)),
        ([0.5, -0.5, 0.5j, 0.5], (0, 1, 2, 3)),
    ])
    def test_matches_sorted_entries(self, target, live):
        for queries in (3, 5):
            coeffs = symbolic_run(build_pe_schedule(queries, 4, initial_target=target),
                                  constant_eigensystem(0.0, 4))
            assert coeffs.columns == live
            expected = sorted([k, s, m, value.real, value.imag]
                              for (k, s, m), value in coeffs.entries().items())
            table = _coefficient_table(coeffs)
            assert [list(row) for row in zip(*(c.tolist() for c in table.columns))] == expected
            reference = Table(["k", "s", "m", "re", "im"], list(zip(*expected)))
            assert render_csv(table) == generic_csv(reference)


def readme_csv_schemas():
    """{subcommand label: column text} from the README's "CSV schemas" table."""
    text = README.read_text()
    section = text[text.index("### CSV schemas"):]
    section = section[:section.index("\n## ")]
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|$", section, flags=re.M)
    rows += re.findall(r"^\| ([a-z][a-z ]+[a-z]) \| `([^`]+)` \|$", section, flags=re.M)
    return dict(rows)


SMALL_CASES = {
    "discretize --n": [["discretize", "--q", "const:0", "--n", "3"]],
    "discretize --n-list": [["discretize", "--q", "const:0", "--n-list", "4,8"]],
    "eigensolve": [["eigensolve", "--q", "const:0.5", "--n", "3"]],
    "phase-estimate": [["phase-estimate", "--q", "const:0.5", "--n", "4", "--T", "3",
                        "--epsilon", "0.5"],
                       ["phase-estimate", "--q", "const:0.5", "--n", "4", "--T", "3",
                        "--epsilon", "0.5", "--samples", "5"]],
    "error-sweep": [["error-sweep", "--T-range", "3:4", "--n", "4", "--grid", "4"]],
    "freq-audit": [["freq-audit", "--powers", "1,3"]],
    "coefficient dump": [["freq-audit", "--pe-T", "3", "--n", "2", "--dump-coefficients"]],
}


class TestReadmeCsvSchemas:
    def test_every_documented_schema_has_a_case(self):
        assert set(readme_csv_schemas()) == set(SMALL_CASES)

    @pytest.mark.parametrize("label", sorted(SMALL_CASES))
    def test_header_matches_cli(self, label, capsys, tmp_path):
        documented = readme_csv_schemas()[label]
        required, _, optional = documented.partition("[")
        expected = [required, required + optional.rstrip("]")] if optional else [required]
        headers = []
        for argv in SMALL_CASES[label]:
            if argv[-1] == "--dump-coefficients":
                path = tmp_path / "coeffs.csv"
                assert main(argv + [str(path)]) == 0
                headers.append(path.read_text().split("\n", 1)[0])
            else:
                assert main(argv + ["--format", "csv"]) == 0
                headers.append(capsys.readouterr().out.split("\n", 1)[0])
        assert headers == expected

    def test_audit_is_json_only(self, capsys):
        assert "lower-bound audit is JSON-only" in README.read_text()
        assert main(["lowerbound-audit", "--T", "5", "--n", "1", "--format", "csv"]) == 1
        assert "no CSV form" in capsys.readouterr().err
