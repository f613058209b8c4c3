"""Seeded job generation for the three benchmark workloads.

A workload is an endless sequence of cycles.  Every cycle holds one job per
stratum of the workload, in a seeded order; the strata fix the sizes (n, T,
grid) that set a job's cost, and the seed draws everything that does not:
potentials, sample files, overlaps, accuracies, thresholds, formats, power
sequences and the order.  A run therefore sees the same mix of costs on every
seed, which keeps medians steady, while a different seed still gives a
different job list.

This module uses only the standard library: it must not import the package
under test, so that set-up time is measured from a cold import.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("spectral", "sweep", "audit")

# Documented size limits of the program (README / quantum.py / frequency.py).
AMPLITUDE_LIMIT = 2 ** 24
TABLE_ENTRY_LIMIT = 2 ** 22

# reach_T ramp: first T, per-step time budget, address-space budget.
RAMP_START_T = 5
RAMP_MAX_T = 30
RAMP_TINY_MAX_T = 7
RAMP_STEP_SECONDS = 2.4
RAMP_MEMORY_BYTES = 2 << 30


@dataclass
class Job:
    """One CLI invocation plus the parameters its oracle needs."""

    job_id: str
    command: str
    argv: list
    params: dict
    files: dict = field(default_factory=dict)  # path -> text, written before the run
    cycle: int = 0

    def within_limits(self) -> bool:
        """Whether the documented size limits admit this job (decided from inputs)."""
        p = self.params
        if self.command in ("phase-estimate", "error-sweep"):
            return (1 << p["T_max"]) * p["n"] <= AMPLITUDE_LIMIT
        if self.command == "lowerbound-audit" or p.get("dump"):
            return 4 ** p["T"] * p["n"] <= TABLE_ENTRY_LIMIT
        return True


# --------------------------------------------------------------------------
# Potentials
# --------------------------------------------------------------------------

def admissible_poly(rng: random.Random) -> list:
    """Cubic with values in [0,1] and |q'|, |q''| <= 1 on [0,1], 6 decimals."""
    c1 = rng.uniform(-0.25, 0.25)
    c2 = rng.uniform(-0.15, 0.15)
    c3 = rng.uniform(-0.05, 0.05)
    c0 = rng.uniform(0.45, 0.55)
    return [round(c, 6) for c in (c0, c1, c2, c3)]


def admissible_samples(rng: random.Random, n: int) -> list:
    """Samples at j/(n+1) of a + b sin(w x + phi), with b w <= 1 and b w^2 <= 1."""
    w = rng.uniform(1.0, 3.0)
    b = rng.uniform(0.05, min(0.3, 0.9 / (w * w)))
    a = rng.uniform(0.2 + b, 0.8 - b)
    phi = rng.uniform(0.0, 2 * math.pi)
    return [a + b * math.sin(w * j / (n + 1) + phi) for j in range(1, n + 1)]


def _potential(rng, kind, n, workdir, tag):
    """(argv text, oracle params, files) for a poly or sample-file potential."""
    if kind == "poly":
        coeffs = admissible_poly(rng)
        return "poly:" + ",".join(repr(c) for c in coeffs), {"poly": coeffs}, {}
    values = admissible_samples(rng, n)
    path = os.path.join(workdir, f"q_{tag}.csv")
    text = "\n".join(repr(v) for v in values) + "\n"
    return "samples:" + path, {"q_samples": values}, {path: text}


def _overlap(rng):
    # overlap^2 stays within [0.8, 0.99], above the documented floor of 0.8
    return round(math.sqrt(rng.uniform(0.801, 0.99)), 6)


def _epsilon(rng):
    return float(f"{10 ** rng.uniform(-3, -1):.6g}")


# --------------------------------------------------------------------------
# Strata
# --------------------------------------------------------------------------

# Within a workload the strata costs form a ladder with steps of about 1.25x,
# so that the median and the tail percentile land on a smooth part of the
# job-time distribution rather than on a jump between two sizes.

# phase-estimate: (n, T, mode, potential kind, format, with --samples).
# Perturbed jobs stay at 2^T n <= 2^17: from 2^19 on the program rejects a
# third of valid perturbed inputs (a fixed state-norm tolerance, see README.md),
# and a timed job must not fail.  The spectral ramp still runs into it.
_SPECTRAL_PE = [
    (128, 9, "exact", "poly", "json", False),
    (128, 10, "perturbed", "poly", "json", False),
    (256, 9, "perturbed", "samples", "csv", True),
    (128, 11, "exact", "samples", "csv", True),
    (256, 9, "exact", "samples", "csv", True),
    (512, 8, "perturbed", "poly", "json", False),
    (256, 11, "exact", "samples", "json", True),
    (512, 10, "exact", "poly", "json", False),
    (512, 11, "exact", "poly", "csv", False),
    (256, 12, "exact", "poly", "csv", False),
    (128, 14, "exact", "poly", "csv", False),
    (256, 13, "exact", "poly", "json", False),
]
# eigensolve: (n, potential kind, --vectors)
_SPECTRAL_EIG = [(1024, "poly", False), (768, "samples", False), (512, "samples", False),
                 (256, "poly", True)]
_SPECTRAL_NLIST = [[64, 128, 256, 512, 1024], [32, 64, 128, 256, 512]]

# error-sweep: (n, grid, first T, last T)
_SWEEP = [(128, 32, 7, 7), (16, 64, 7, 8), (32, 16, 8, 9), (64, 32, 7, 8), (128, 64, 7, 7),
          (16, 16, 12, 12), (64, 64, 7, 8), (64, 32, 10, 10), (32, 64, 10, 10)]

# lowerbound-audit (T, n), all inside 4^T n <= 2^22
_AUDIT_LB = [(7, 64), (8, 16), (8, 24), (9, 4), (8, 32), (9, 8), (8, 40), (10, 2), (8, 64),
             (9, 16), (10, 4), (11, 1)]

_TINY = {
    "pe": [(16, 5, "exact", "poly", "json", False),
           (16, 6, "perturbed", "samples", "csv", True)],
    "eig": [(32, "poly", True), (24, "samples", False)],
    "nlist": [[8, 16, 32]],
    "sweep": [(8, 16, 6, 6), (16, 32, 6, 7)],
    "lb": [(6, 4), (5, 8)],
}


def _spectral(rng, workdir, tag, tiny):
    pe = _TINY["pe"] if tiny else _SPECTRAL_PE
    eig = _TINY["eig"] if tiny else _SPECTRAL_EIG
    nlists = _TINY["nlist"] if tiny else _SPECTRAL_NLIST
    jobs = []
    for i, (n, t, mode, kind, fmt, with_samples) in enumerate(pe):
        jid = f"{tag}pe{i}"
        q, qp, files = _potential(rng, kind, n, workdir, jid)
        eps = _epsilon(rng)
        overlap = 1.0 if mode == "exact" else _overlap(rng)
        mode_text = "exact" if mode == "exact" else f"perturbed:{overlap!r}"
        argv = ["phase-estimate", "--q", q, "--n", str(n), "--T", str(t),
                "--epsilon", repr(eps), "--mode", mode_text, "--format", fmt]
        samples = 0
        if with_samples:
            samples = rng.randint(16, 256)
            argv += ["--samples", str(samples), "--seed", str(rng.randint(0, 2 ** 31))]
        jobs.append(Job(jid, "phase-estimate", argv,
                        dict(qp, n=n, T=t, T_max=t, epsilon=eps, overlap=overlap,
                             samples=samples, format=fmt), files))
    for i, (n, kind, vectors) in enumerate(eig):
        jid = f"{tag}eig{i}"
        q, qp, files = _potential(rng, kind, n, workdir, jid)
        fmt = "json" if vectors else rng.choice(["json", "csv"])
        argv = ["eigensolve", "--q", q, "--n", str(n), "--format", fmt]
        if vectors:
            argv.append("--vectors")
        jobs.append(Job(jid, "eigensolve", argv, dict(qp, n=n, vectors=vectors, format=fmt),
                        files))
    for i, n_list in enumerate(nlists):
        q = round(rng.uniform(0.0, 1.0), 6)
        fmt = rng.choice(["json", "csv"])
        argv = ["discretize", "--q", f"const:{q!r}",
                "--n-list", ",".join(map(str, n_list)), "--format", fmt]
        jobs.append(Job(f"{tag}nl{i}", "discretize", argv,
                        {"q": q, "n_list": n_list, "format": fmt}))
    return jobs


def _sweep(rng, workdir, tag, tiny):
    jobs = []
    for i, (n, grid, t_lo, t_hi) in enumerate(_TINY["sweep"] if tiny else _SWEEP):
        threshold = 0.75 if rng.random() < 0.5 else round(rng.uniform(0.6, 0.9), 6)
        fmt = rng.choice(["csv", "csv", "json"])
        argv = ["error-sweep", "--T-range", f"{t_lo}:{t_hi}", "--n", str(n),
                "--grid", str(grid), "--threshold", repr(threshold), "--format", fmt]
        jobs.append(Job(f"{tag}sw{i}", "error-sweep", argv,
                        {"n": n, "grid": grid, "T_lo": t_lo, "T_max": t_hi,
                         "threshold": threshold, "format": fmt}))
    return jobs


def _lowerbound_job(jid, t, n):
    argv = ["lowerbound-audit", "--T", str(t), "--n", str(n), "--epsilon", "auto"]
    return Job(jid, "lowerbound-audit", argv, {"T": t, "n": n})


def _audit(rng, workdir, tag, tiny):
    jobs = [_lowerbound_job(f"{tag}lb{i}", t, n)
            for i, (t, n) in enumerate(_TINY["lb"] if tiny else _AUDIT_LB)]
    pe_t, dumps = (4, [(3, 4)]) if tiny else (11, [(7, 16), (8, 4)])
    jobs.append(Job(f"{tag}fpe", "freq-audit", ["freq-audit", "--pe-T", str(pe_t)],
                    {"pe_T": pe_t, "T": pe_t}))
    for i, (t, n) in enumerate(dumps):
        path = os.path.join(workdir, f"coeffs_{tag}{i}.csv")
        argv = ["freq-audit", "--pe-T", str(t), "--n", str(n), "--dump-coefficients", path]
        jobs.append(Job(f"{tag}fd{i}", "freq-audit", argv,
                        {"pe_T": t, "T": t, "n": n, "dump": path}))
    count = 4 if tiny else 10
    randoms = sorted(rng.sample(range(1, 2000), count))
    scale = rng.randint(1, 5)
    sharp = [scale * 3 ** j for j in range(count)]
    for i, powers in enumerate((randoms, sharp)):
        argv = ["freq-audit", "--powers", ",".join(map(str, powers))]
        jobs.append(Job(f"{tag}fp{i}", "freq-audit", argv, {"powers": powers}))
    return jobs


_BUILDERS = {"spectral": _spectral, "sweep": _sweep, "audit": _audit}


def cycle(workload: str, seed: int, index: int, workdir: str, tiny: bool = False) -> list:
    """Jobs of cycle `index`: one per stratum, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs = _BUILDERS[workload](rng, workdir, f"c{index}", tiny)
    rng.shuffle(jobs)
    for job in jobs:
        job.cycle = index
    return jobs


def warmup_job(workload: str) -> Job:
    """A fixed small job, run once and untimed during set-up."""
    if workload == "spectral":
        argv = ["phase-estimate", "--q", "poly:0.5,0.1", "--n", "64", "--T", "7",
                "--epsilon", "0.05"]
        return Job("warmup", "phase-estimate", argv,
                   {"poly": [0.5, 0.1], "n": 64, "T": 7, "T_max": 7, "epsilon": 0.05,
                    "overlap": 1.0, "samples": 0, "format": "json"})
    if workload == "sweep":
        argv = ["error-sweep", "--T-range", "6:6", "--n", "16", "--grid", "16"]
        return Job("warmup", "error-sweep", argv,
                   {"n": 16, "grid": 16, "T_lo": 6, "T_max": 6, "threshold": 0.75,
                    "format": "csv"})
    return _lowerbound_job("warmup", 6, 8)


def ramp_job(workload: str, t: int) -> Job:
    """Step T of the workload's reach_T ramp (a fixed configuration, not seeded)."""
    if workload == "spectral":
        coeffs = [0.1, 0.2, 0.05]
        argv = ["phase-estimate", "--q", "poly:0.1,0.2,0.05", "--n", "128", "--T", str(t),
                "--epsilon", "0.01", "--mode", "perturbed:0.95"]
        return Job(f"ramp{t}", "phase-estimate", argv,
                   {"poly": coeffs, "n": 128, "T": t, "T_max": t, "epsilon": 0.01,
                    "overlap": 0.95, "samples": 0, "format": "json"})
    if workload == "sweep":
        argv = ["error-sweep", "--T-range", f"{t}:{t}", "--n", "32", "--grid", "64"]
        return Job(f"ramp{t}", "error-sweep", argv,
                   {"n": 32, "grid": 64, "T_lo": t, "T_max": t, "threshold": 0.75,
                    "format": "csv"})
    return _lowerbound_job(f"ramp{t}", t, 32)


def write_files(jobs, workdir: str):
    os.makedirs(workdir, exist_ok=True)
    for job in jobs:
        for path, text in job.files.items():
            with open(path, "w") as fh:
                fh.write(text)
