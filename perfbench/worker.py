"""One benchmark process: set-up, the job loop, a traced loop, or the reach_T ramp.

Started by run.py with the BLAS pool pinned and ``src`` on PYTHONPATH.  Jobs
are in-process ``powerquery.cli.main(argv)`` calls, one after another (a
closed loop with one client).  Only the call is timed; payload checks,
file writing and trace bookkeeping happen between calls.  The last line of
stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import jobs as jobgen


def run_job(cli, job):
    """(exit code or None on an escaped exception, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # garbage left by the previous job and its check is not this job's cost
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(job.argv)
        except Exception:  # an escaped exception is a failed job, not a harness crash
            code = None
            err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def reference_s():
    """Seconds of a fixed calibration kernel that does not use the package.

    A pure-Python loop and small numpy array passes, the program's own mix.
    Timed next to the jobs, it measures how fast the host runs at the moment.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for i in range(30000):
        acc += (i * 0.5) % 3.0
    a = np.linspace(0.0, 1.0, 8192)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - start


def setup_reference_s():
    return statistics.median(reference_s() for _ in range(5))


def _remove_files(cycle_jobs):
    for job in cycle_jobs:
        for path in list(job.files) + [job.params.get("dump")]:
            if path and os.path.exists(path):
                os.remove(path)


def blas_info():
    """OpenBLAS thread count and build string, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    info = {"numpy": np.__version__, "blas_threads": None, "openblas": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["blas_threads"] = threads()
                    info["openblas"] = config().decode()
                    return info
    return info


def setup(args):
    """Import the package, generate cycle 0 with its files, run the warm-up job."""
    start = time.perf_counter()
    from powerquery import cli
    first = jobgen.cycle(args.workload, args.seed, 0, args.workdir, args.tiny)
    jobgen.write_files(first, args.workdir)
    warm = jobgen.warmup_job(args.workload)
    code, _, out, err = run_job(cli, warm)
    setup_s = time.perf_counter() - start
    import oracles
    status, message = oracles.verdict(warm, code, out, err)
    if status != "ok":
        raise SystemExit(f"warm-up job failed ({status}): {message}")
    return cli, first, setup_s


def job_loop(args, first, per_job):
    """Run whole cycles until their timed seconds come nearest --seconds; returns the cycles run.

    per_job runs one job and returns the seconds to count against the budget.
    A run ends only between cycles, so every stratum runs equally often and
    the medians do not depend on where in a cycle the budget runs out.
    """
    elapsed = 0.0
    index = 0
    cycle_jobs = first
    while True:
        cycle_s = sum(per_job(job) for job in cycle_jobs)
        elapsed += cycle_s
        _remove_files(cycle_jobs)
        index += 1
        if elapsed + cycle_s / 2 >= args.seconds:
            return index
        cycle_jobs = jobgen.cycle(args.workload, args.seed, index, args.workdir, args.tiny)
        jobgen.write_files(cycle_jobs, args.workdir)


def mode_run(args):
    cli, first, setup_s = setup(args)
    import oracles

    setup_ref_s = setup_reference_s()
    records = []

    def per_job(job):
        ref_s = reference_s()
        code, seconds, out, err = run_job(cli, job)
        status, message = oracles.verdict(job, code, out, err)
        records.append({"id": job.job_id, "cycle": job.cycle, "argv": job.argv,
                        "status": status, "seconds": seconds, "ref_s": ref_s,
                        "message": message})
        return seconds

    cycles = job_loop(args, first, per_job)
    return {"setup_s": setup_s, "setup_ref_s": setup_ref_s, "cycles": cycles,
            "records": records, "final_ref_s": reference_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": blas_info()}


def mode_trace(args):
    import powerquery
    import tracing
    cli, first, _ = setup(args)
    import oracles
    tracer = tracing.Tracer(powerquery)
    records = []

    def per_job(job):
        traced_first = len(records) % 2 == 1
        runs = {}
        for traced in ((True, False) if traced_first else (False, True)):
            if traced:
                tracer.install()
                tracer.job = job.job_id
            try:
                runs[traced] = run_job(cli, job)
            finally:
                tracer.uninstall()
        tracer.settle(len(runs[True][2]))
        code, plain_s, out, err = runs[False]
        status, message = oracles.verdict(job, code, out, err)
        if status in ("ok", "refused") and runs[True][::2] != runs[False][::2]:
            status, message = "wrong", "traced run gave another exit code or payload"
        records.append({"id": job.job_id, "argv": job.argv, "status": status,
                        "seconds": plain_s, "traced_seconds": runs[True][1],
                        "message": message})
        return plain_s + runs[True][1]

    cycles = job_loop(args, first, per_job)
    ok = [r for r in records if r["status"] == "ok"]
    overhead = (statistics.median(r["traced_seconds"] for r in ok)
                / statistics.median(r["seconds"] for r in ok) - 1.0) if ok else 0.0
    return {"cycles": cycles, "records": records, "layers": tracer.metrics(overhead),
            "spans": len(tracer.spans), "env": blas_info()}


def mode_ramp(args):
    """Print one JSON line as each step starts and ends, so run.py can enforce the budget."""
    resource.setrlimit(resource.RLIMIT_AS, (jobgen.RAMP_MEMORY_BYTES, jobgen.RAMP_MEMORY_BYTES))
    from powerquery import cli
    import oracles
    top = jobgen.RAMP_TINY_MAX_T if args.tiny else jobgen.RAMP_MAX_T
    for t in range(jobgen.RAMP_START_T, top + 1):
        job = jobgen.ramp_job(args.workload, t)
        print(json.dumps({"event": "start", "T": t}), flush=True)
        code, seconds, out, err = run_job(cli, job)
        print(json.dumps({"event": "ran", "T": t, "seconds": seconds}), flush=True)
        if seconds > jobgen.RAMP_STEP_SECONDS:
            return {"event": "end"}
        status, message = oracles.verdict(job, code, out, err)
        print(json.dumps({"event": "done", "T": t, "status": status, "seconds": seconds,
                          "argv": job.argv, "message": message}), flush=True)
        if status != "ok":
            return {"event": "end"}
    return {"event": "end", "cap": top}


def mode_setup(args):
    _, _, setup_s = setup(args)
    return {"setup_s": setup_s, "setup_ref_s": setup_reference_s()}


MODES = {"setup": mode_setup, "run": mode_run, "trace": mode_trace, "ramp": mode_ramp}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=sorted(MODES), required=True)
    parser.add_argument("--workload", choices=jobgen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    try:
        result = MODES[args.mode](args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
