"""powerquery benchmark: one workload, one seed, checked payloads, metrics as JSON.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  With --trace 0 the last stdout line carries the end-to-end metrics
(set-up probes, the timed job loop, the reach_T ramp, each in a fresh
process).  With --trace 1 it carries the per-layer metrics of a paired run
in which every job runs once plain and once traced.  The line before it
holds the details: environment, tail percentile, failures, ramp steps.
Workloads, metrics and their expected movements are described in README.md
next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time

import jobs as jobgen

HERE = os.path.dirname(os.path.abspath(__file__))

WORKDIR = ".perfbench_work"
SETUP_PROBES = 6  # plus the set-up of the main run: the median of 7 is reported
RUN_BUDGET_S = 170.0  # one invocation, children included, must end within this
# A high percentile that keeps at least 10 completed jobs beyond it at the
# default run length, and that falls in the middle of one stratum's share of
# the jobs, not on a jump between two strata; fixed per workload so that runs
# compare like with like.
TAIL_PERCENTILE = {"spectral": 75, "sweep": 85, "audit": 74}
# Host speed calibration: every timed interval is scaled to a host on which
# the worker's calibration kernel takes REFERENCE_S, using the kernel times
# measured next to it (the median over CALIBRATION_WINDOW jobs on either side).
REFERENCE_S = 0.005
CALIBRATION_WINDOW = 3
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
    "reach_T": "queries",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ, PYTHONPATH="src", **PINNED_ENV)
    env.pop("PYTHONHOME", None)
    return env


def worker_cmd(mode, args, workdir):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir]
    return cmd + (["--tiny"] if args.tiny else [])


def remaining(args):
    left = args.deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded its budget of {RUN_BUDGET_S} s")
    return left


def run_worker(mode, args, workdir):
    proc = subprocess.run(worker_cmd(mode, args, workdir), env=child_env(),
                          capture_output=True, text=True, timeout=remaining(args))
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_ramp(args, workdir):
    """Step T up until a step fails, is refused, or exceeds the time or memory budget."""
    proc = subprocess.Popen(worker_cmd("ramp", args, workdir), env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = queue.Queue()

    def pump(stream):
        for line in stream:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, args=(proc.stdout,), daemon=True)
    reader.start()
    steps, reach, stop = [], jobgen.RAMP_START_T - 1, None
    deadline = args.deadline
    try:
        while stop is None:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                remaining(args)  # raises when the whole run is out of time
                stop = f"time budget: T={reach + 1} ran past {jobgen.RAMP_STEP_SECONDS} s"
                break
            if line is None:
                stop = f"ramp process exited {proc.wait()}: {proc.stderr.read()[-500:]}"
                break
            event = json.loads(line)
            if event["event"] == "start":
                deadline = min(args.deadline, time.monotonic() + jobgen.RAMP_STEP_SECONDS + 1.0)
            elif event["event"] == "ran":
                deadline = args.deadline  # the check is not budgeted
                if event["seconds"] > jobgen.RAMP_STEP_SECONDS:
                    steps.append({"T": event["T"], "status": "over budget",
                                  "seconds": event["seconds"]})
                    stop = (f"time budget: T={event['T']} took {event['seconds']:.3f} s "
                            f"> {jobgen.RAMP_STEP_SECONDS} s")
            elif event["event"] == "done":
                steps.append({k: event[k] for k in ("T", "status", "seconds")})
                if event["status"] == "ok":
                    reach = event["T"]
                else:
                    stop = (f"{event['status']} at T={event['T']}: "
                            f"{' '.join(event['argv'])}: {event['message']}")
            else:
                stop = f"size cap T={event['cap']} reached" if "cap" in event else "ended"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join(timeout=5)
        proc.stdout.close()
        proc.stderr.close()
    return {"reach_T": reach, "stop": stop, "steps": steps}


def nearest_rank(values, percentile):
    values = sorted(values)
    rank = max(1, -(-percentile * len(values) // 100))
    return values[rank - 1], len(values) - rank


def source_revision():
    """git commit when the checkout is a repository, and a digest of src/ always."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(".git") and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment(worker_env):
    return dict(worker_env, python=platform.python_version(),
                nproc=len(os.sched_getaffinity(0)), machine=platform.machine(),
                pinned=PINNED_ENV, **source_revision())


def summarize(records):
    attempted = len(records)
    ok = [r for r in records if r["status"] == "ok"]
    failed = [r for r in records if r["status"] in ("failed", "wrong")]
    failures = [{"id": r["id"], "status": r["status"], "argv": r["argv"],
                 "message": r["message"]} for r in failed]
    return attempted, ok, failed, failures


def cycle_throughput(records):
    """Median over cycles of completed jobs per second of attempted-job time.

    Every cycle runs the same strata, so the median over cycles keeps the
    figure of the host's usual speed when it runs much faster or slower for
    a few seconds of the run.
    """
    cycles = {}
    for r in records:
        done, seconds = cycles.get(r["cycle"], (0, 0.0))
        cycles[r["cycle"]] = (done + (r["status"] == "ok"), seconds + r["seconds"])
    return statistics.median(done / seconds for done, seconds in cycles.values())


def calibrated(records, final_ref_s):
    """The records with their seconds scaled to the reference host speed."""
    refs = [r["ref_s"] for r in records] + [final_ref_s]
    scaled = []
    for i, r in enumerate(records):
        window = refs[max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW + 2]
        scaled.append(dict(r, seconds=r["seconds"] * REFERENCE_S / statistics.median(window)))
    return scaled


def timing(setups, records, percentile):
    """The four time metrics of one run, and the number of jobs beyond the tail."""
    times = [r["seconds"] for r in records if r["status"] == "ok"]
    tail, beyond = nearest_rank(times, percentile)
    return {"setup_s": statistics.median(setups), "job_p50_s": statistics.median(times),
            "job_tail_s": tail, "jobs_per_s": cycle_throughput(records)}, beyond


def setup_probes(args, workdir, count):
    return [run_worker("setup", args, os.path.join(workdir, f"setup{i}"))
            for i in range(count)]


def end_to_end(args, workdir):
    # Set-up is probed before, between and after the other phases: the host's
    # import speed changes over tens of seconds, and the median should span them.
    third = SETUP_PROBES // 3
    setups = setup_probes(args, workdir, third)
    main = run_worker("run", args, os.path.join(workdir, "run"))
    setups += setup_probes(args, workdir, third)
    ramp = run_ramp(args, os.path.join(workdir, "ramp"))
    setups += setup_probes(args, workdir, SETUP_PROBES - 2 * third)
    setups.append(main)
    attempted, ok, failed, failures = summarize(main["records"])
    if not ok:
        raise BenchError(f"no job completed; failures: {failures[:3]}")
    percentile = TAIL_PERCENTILE[args.workload]
    values, beyond = timing([p["setup_s"] * REFERENCE_S / p["setup_ref_s"] for p in setups],
                            calibrated(main["records"], main["final_ref_s"]), percentile)
    wall, _ = timing([p["setup_s"] for p in setups], main["records"], percentile)
    values.update(peak_rss_mb=main["peak_rss_mb"], success_frac=len(ok) / attempted,
                  reach_T=ramp["reach_T"])
    details = {
        "wall": wall,
        "reference_s": {"calibrated_to": REFERENCE_S,
                        "median": statistics.median(r["ref_s"] for r in main["records"])},
        "setup_samples_s": [p["setup_s"] for p in setups],
        "cycles": main["cycles"],
        "completed": len(ok),
        "fail_frac": len(failed) / attempted,
        "job_tail": {"percentile": percentile, "samples": len(ok), "beyond": beyond},
        "failures": failures,
        "ramp": ramp,
        "env": environment(main["env"]),
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return attempted, failed, metrics, details


def per_layer(args, workdir):
    import tracing
    result = run_worker("trace", args, os.path.join(workdir, "trace"))
    attempted, ok, failed, failures = summarize(result["records"])
    units = tracing.metric_units()
    metrics = {k: {"value": v, "unit": units[k][0]} for k, v in result["layers"].items()}
    details = {"cycles": result["cycles"], "spans": result["spans"], "completed": len(ok),
               "failures": failures, "env": environment(result["env"])}
    return attempted, failed, metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=jobgen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny job sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join("src", "powerquery", "cli.py")):
        print("error: run from the root of a powerquery checkout (src/powerquery missing)",
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORKDIR, str(os.getpid()))
    try:
        attempted, failed, metrics, details = (per_layer if args.trace else end_to_end)(
            args, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORKDIR) and not os.listdir(WORKDIR):
            os.rmdir(WORKDIR)
    print(json.dumps({"details": dict(details, workload=args.workload, seed=args.seed,
                                      trace=args.trace)}))
    print(json.dumps({"correct": not any(r["status"] == "wrong" for r in failed),
                      "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
