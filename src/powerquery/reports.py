"""Deterministic CSV/JSON rendering for run reports.

Floats are always written with 17 significant digits so that payloads round
trip losslessly and identical runs produce identical bytes.  Dictionaries are
rendered in insertion order; no timestamps or timings ever enter a payload.

Row-shaped results are one `Table` of columns, shared by both formats and
rendered row by row through one template built from the column dtypes.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError

__version__ = "0.1.0"


@dataclass
class Table:
    """A row-shaped result held as columns, one 1-D array per header name."""

    header: list[str]
    columns: list[np.ndarray]

    def __post_init__(self):
        self.columns = [np.asarray(column) for column in self.columns]
        if len(self.header) != len(self.columns) or len({c.shape for c in self.columns}) > 1:
            raise ValidationError(f"table {self.header} needs one equal-length column per name")

    def cells(self) -> list[str]:
        """One printf conversion per column: %d for integers, %.17g for floats, else %s."""
        return [{"i": "%d", "u": "%d", "f": "%.17g"}.get(c.dtype.kind, "%s") for c in self.columns]


def format_number(value) -> str:
    """Exact-width numeric rendering: ints verbatim, floats at 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def render_json(value, indent: int = 0) -> str:
    """Deterministic JSON with controlled float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, Table):
        return _render_table_json(value, indent)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            return "[]"
        rendered = [render_json(v, indent + 1) for v in items]
        if all(len(r) <= 24 and "\n" not in r for r in rendered) and len(items) <= 64:
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise NumericalError(f"{value} has no JSON form; a payload holds finite numbers only")
    if isinstance(value, (bool, np.bool_, int, np.integer, float, np.floating)):
        return format_number(value)
    if isinstance(value, (complex, np.complexfloating)):
        return f"[{render_json(value.real)}, {render_json(value.imag)}]"
    return json.dumps(str(value))


def _render_table_json(table: Table, indent: int) -> str:
    """The table as a JSON list of row objects, in `render_json`'s layout."""
    pad, inner, field = ("  " * (indent + i) for i in range(3))
    cells = table.cells()
    if any(c.dtype.kind == "f" and not np.isfinite(c).all() for c in table.columns):
        raise NumericalError(f"table {table.header} holds NaN or infinity, which JSON lacks")
    fields = ",\n".join(f"{field}{json.dumps(str(name))}: ".replace("%", "%%") + cell
                         for name, cell in zip(table.header, cells))
    template = f"{inner}{{\n{fields}\n{inner}}}"
    columns = [[render_json(v) for v in column.tolist()] if cell == "%s" else column.tolist()
               for column, cell in zip(table.columns, cells)]
    rows = [template % row for row in zip(*columns)]
    return "[\n" + ",\n".join(rows) + "\n" + pad + "]" if rows else "[]"


def render_csv(table: Table) -> str:
    """CSV text with '\\n' newlines: the header line, then one template per row."""
    template = ",".join(table.cells()) + "\n"
    rows = zip(*(column.tolist() for column in table.columns))
    return ",".join(table.header) + "\n" + "".join(template % row for row in rows)


@dataclass
class RunReport:
    """One CLI run: echoed configuration, results, per-phase timings, version.

    The serialized payload covers config, results, and version; timings are
    reported on stderr only so that identical configurations yield identical
    payload bytes.
    """

    command: str
    config: dict
    results: dict
    csv: Table | None = None
    timings: dict = field(default_factory=dict)
    version: str = __version__
    exit_code: int = 0

    def payload(self, fmt: str) -> str:
        """The CSV table for fmt "csv", else the JSON document; the CLI checks fmt first."""
        if fmt == "csv":
            return render_csv(self.csv)
        doc = {
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "version": self.version,
        }
        return render_json(doc) + "\n"


class PhaseTimer:
    """Wall-clock phases for stderr diagnostics; never part of a payload."""

    def __init__(self):
        self.timings = {}
        self._mark = time.perf_counter()

    def lap(self, name: str):
        now = time.perf_counter()
        self.timings[name] = self.timings.get(name, 0.0) + (now - self._mark)
        self._mark = now


def emit_report(report: RunReport, fmt: str, path: str | None):
    """Write the payload to stdout or a file; timings go to stderr."""
    text = report.payload(fmt)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    for name, seconds in report.timings.items():
        print(f"timing {name}={seconds:.3f}s", file=sys.stderr)
