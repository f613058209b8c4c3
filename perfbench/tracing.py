"""Spans around the package's public functions, installed from outside.

Each traced function is replaced at every place the package binds it (the
defining module, every module that imported it by name, the package
namespace, or the class for a method).  A span records name, start, end,
parent span and job id; spans stay in memory and are reduced to self times
when the run ends.  Counts are read from arguments and return values after
the span closes; anything that costs more than reading a shape is deferred
until the job's timing has stopped (`settle`).
"""

from __future__ import annotations

import sys
import time

import numpy as np

# (module, attribute or Class.method, metric prefix)
TRACED = (
    ("cli", "main", "cli"),
    ("discretization", "solve_eigensystem", "discretization.solve_eigensystem"),
    ("discretization", "smallest_eigenvalue", "discretization.smallest_eigenvalue"),
    ("discretization", "constant_eigensystem", "discretization.constant_eigensystem"),
    ("discretization", "discretization_error_study",
     "discretization.discretization_error_study"),
    ("quantum", "run_schedule", "quantum.run_schedule"),
    ("quantum", "measurement_distribution", "quantum.measurement_distribution"),
    ("quantum", "sample_outcomes", "quantum.sample_outcomes"),
    ("phase_estimation", "build_pe_schedule", "phase_estimation.build_pe_schedule"),
    ("phase_estimation", "run_phase_estimation", "phase_estimation.run_phase_estimation"),
    ("phase_estimation", "worst_case_error_sweep", "phase_estimation.worst_case_error_sweep"),
    ("phase_estimation", "OutcomeDecoder.decode_all", "phase_estimation.decode_all"),
    ("frequency", "frequency_sets", "frequency.frequency_sets"),
    ("frequency", "symbolic_run", "frequency.symbolic_run"),
    ("frequency", "beta_coefficients", "frequency.beta_coefficients"),
    ("lowerbound", "lower_bound_audit", "lowerbound.lower_bound_audit"),
    ("reports", "emit_report", "reports.emit_report"),
)

# name -> (unit, better); per-job means unless the unit says otherwise
COUNTERS = {
    "discretization.eigvec_entries": ("count/job", "lower"),
    "discretization.oracle_dev": ("ratio", "lower"),
    "quantum.amplitude_updates": ("count/job", "lower"),
    "quantum.bytes_moved_computed": ("B/job", "lower"),
    "quantum.active_col_frac": ("ratio", "higher"),
    "quantum.active_col_frac_times_n": ("ratio", "higher"),
    "frequency.table_entries": ("count/job", "lower"),
    "frequency.nonzero_frac": ("ratio", "higher"),
    "frequency.nonzero_frac_times_n": ("ratio", "higher"),
    "lowerbound.grid_points": ("count/job", "higher"),
    "lowerbound.margin_premise": ("ratio", "higher"),
    "lowerbound.margin_card": ("count", "higher"),
    "lowerbound.margin_gap": ("ratio", "higher"),
    "reports.payload_bytes": ("B/job", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def metric_units():
    """Every per-layer metric name -> (unit, better)."""
    units = {}
    for _, _, name in TRACED:
        units[f"{name}.self_s"] = ("s/job", "lower")
        units[f"{name}.calls"] = ("count/job", "lower")
    units.update(COUNTERS)
    return units


def _resolve(package, module, attr):
    owner = getattr(package, module)
    if "." in attr:
        cls, meth = attr.split(".")
        return getattr(owner, cls), meth
    return owner, attr


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # (name, start, end, parent index, job id)
        self.stack = []
        self.job = None
        self.jobs = 0
        self.sums = {"updates": 0.0, "active": 0.0, "active_n": 0.0, "entries": 0.0,
                     "nonzero": 0.0, "nonzero_n": 0.0, "eigvec": 0.0, "grid": 0.0,
                     "payload": 0.0}
        self.extremes = {"oracle_dev": 0.0}
        self.margins = {}
        self.deferred = []
        self._patches = []
        self._hooks = {
            "discretization.solve_eigensystem": self._on_solve,
            "quantum.run_schedule": self._on_schedule,
            "frequency.symbolic_run": self._on_symbolic,
            "lowerbound.lower_bound_audit": self._on_audit,
        }

    # ---- installation --------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == self.package.__name__ or name.startswith(self.package.__name__ + ".")]
        for module, attr, name in TRACED:
            owner, key = _resolve(self.package, module, attr)
            original = getattr(owner, key)
            wrapper = self._wrap(name, original, self._hooks.get(name))
            sites = [(owner, key)] if owner not in modules else []
            for mod in modules:
                sites += [(mod, k) for k, v in vars(mod).items() if v is original]
            for site, k in sites:
                setattr(site, k, wrapper)
                self._patches.append((site, k, original))

    def uninstall(self):
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    def _wrap(self, name, fn, hook):
        spans, stack, tracer = self.spans, self.stack, self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.job)
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---- counters (read after the span closes) -------------------------

    def _on_solve(self, args, eig):
        system = args[0]
        self.sums["eigvec"] += eig.eigenvectors.size
        self.deferred.append(("oracle_dev", system.diag, system.offdiag, eig.eigenvalues))

    def _on_schedule(self, args, _state):
        schedule = args[0]
        layout = schedule.layout
        unitaries = [schedule.initial_unitary] + [s.unitary for s in schedule.steps]
        touching = len(schedule.steps) + sum(u.kind != "identity" for u in unitaries)
        updates = layout.control_dim * layout.target_dim * touching
        self.sums["updates"] += updates
        self.deferred.append(("active", schedule.initial_state.amplitudes, updates))

    def _on_symbolic(self, _args, coeffs):
        self.sums["entries"] += coeffs.table.size
        self.deferred.append(("nonzero", coeffs.table))

    def _on_audit(self, _args, audit):
        n_grid, l_count = audit.grid_size, audit.frequency_count
        self.sums["grid"] += n_grid
        for key, value in (("premise", min(audit.success_diagonal) - 0.75),
                           ("card", l_count ** 2 - n_grid / 10.0),
                           ("gap", audit.max_gap_width - n_grid / l_count)):
            self.margins[key] = min(self.margins.get(key, value), value)

    def settle(self, payload_bytes: int):
        """Finish one traced job: deferred counters, outside any timed interval."""
        self.jobs += 1
        self.sums["payload"] += payload_bytes
        for item in self.deferred:
            if item[0] == "oracle_dev":
                _, diag, off, values = item
                n = diag.size
                dense = np.diag(diag) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
                dev = np.abs(np.sort(values) - np.linalg.eigvalsh(dense)).max() / (n + 1) ** 2
                self.extremes["oracle_dev"] = max(self.extremes["oracle_dev"], float(dev))
            elif item[0] == "active":
                _, amps, updates = item
                n = amps.shape[1]
                active = int(np.count_nonzero(np.any(amps != 0, axis=0)))
                self.sums["active"] += updates * active / n
                self.sums["active_n"] += updates * active
            else:
                table = item[1]
                nonzero = int(np.count_nonzero(table))
                self.sums["nonzero"] += nonzero
                self.sums["nonzero_n"] += nonzero * table.shape[-1]
        self.deferred.clear()

    # ---- reduction -----------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict:
        jobs = max(self.jobs, 1)
        self_s = {name: 0.0 for _, _, name in TRACED}
        calls = dict.fromkeys(self_s, 0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        s = self.sums

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in self_s:
            out[f"{name}.self_s"] = self_s[name] / jobs
            out[f"{name}.calls"] = calls[name] / jobs
        out.update({
            "discretization.eigvec_entries": s["eigvec"] / jobs,
            "discretization.oracle_dev": self.extremes["oracle_dev"],
            "quantum.amplitude_updates": s["updates"] / jobs,
            "quantum.bytes_moved_computed": 32.0 * s["updates"] / jobs,
            "quantum.active_col_frac": ratio(s["active"], s["updates"]),
            "quantum.active_col_frac_times_n": ratio(s["active_n"], s["updates"]),
            "frequency.table_entries": s["entries"] / jobs,
            "frequency.nonzero_frac": ratio(s["nonzero"], s["entries"]),
            "frequency.nonzero_frac_times_n": ratio(s["nonzero_n"], s["entries"]),
            "lowerbound.grid_points": s["grid"] / jobs,
            "lowerbound.margin_premise": self.margins.get("premise", 0.0),
            "lowerbound.margin_card": self.margins.get("card", 0.0),
            "lowerbound.margin_gap": self.margins.get("gap", 0.0),
            "reports.payload_bytes": s["payload"] / jobs,
            "trace.overhead_frac": overhead_frac,
        })
        return out
