"""Tests of the benchmark itself: output contract, oracles, seeding, tracing.

Run from the repository root:  python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jobs
import oracles
import tracing
import worker
from powerquery import cli

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    details = json.loads(proc.stdout.splitlines()[-2])["details"]
    assert details["env"]["blas_threads"] == 1


def test_benchmark_json_lists_the_tracer_metrics():
    units = tracing.metric_units()
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == units


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# --------------------------------------------------------------------------
# Oracles: a corrupted payload is a failure
# --------------------------------------------------------------------------

def first_job(workload, command, tmp_path, **match):
    for job in jobs.cycle(workload, 7, 0, str(tmp_path), tiny=True):
        if job.command == command and all(job.params.get(k) == v for k, v in match.items()):
            jobs.write_files([job], str(tmp_path))
            return job
    raise LookupError(command)


def run_ok(job):
    code, _, out, err = worker.run_job(cli, job)
    assert oracles.verdict(job, code, out, err) == ("ok", ""), err
    return out


def assert_wrong(job, text):
    status, message = oracles.verdict(job, 0, text, "")
    assert status == "wrong", message


def test_phase_estimate_corruptions_are_caught(tmp_path):
    job = first_job("spectral", "phase-estimate", tmp_path, format="json")
    doc = json.loads(run_ok(job))
    rows = doc["results"]["outcomes"]
    far = min(range(len(rows)), key=lambda k: rows[k]["probability"])
    rows[far]["probability"] += 1e-6
    assert_wrong(job, json.dumps(doc))
    rows[far]["probability"] -= 1e-6
    assert oracles.verdict(job, 0, json.dumps(doc), "")[0] == "ok"
    del rows[-1]
    assert_wrong(job, json.dumps(doc))


def test_csv_phase_estimate_dropped_row_is_caught(tmp_path):
    job = first_job("spectral", "phase-estimate", tmp_path, format="csv")
    lines = run_ok(job).splitlines(keepends=True)
    assert_wrong(job, "".join(lines[:-1]))


def test_audit_flipped_verdict_is_caught(tmp_path):
    job = first_job("audit", "lowerbound-audit", tmp_path)
    doc = json.loads(run_ok(job))
    doc["results"]["verdicts"]["gap_width_bound"] = False
    assert_wrong(job, json.dumps(doc))


def test_sweep_and_spectrum_corruptions_are_caught(tmp_path):
    job = first_job("sweep", "error-sweep", tmp_path)
    text = run_ok(job)
    if job.params["format"] == "csv":
        header, row = text.splitlines()[:2]
        cells = row.split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        assert_wrong(job, "\n".join([header, ",".join(cells)] + text.splitlines()[2:]) + "\n")
    else:
        doc = json.loads(text)
        doc["results"]["rows"][0]["epsilon_achieved"] += 1e-6
        assert_wrong(job, json.dumps(doc))

    job = first_job("spectral", "eigensolve", tmp_path, vectors=True)
    doc = json.loads(run_ok(job))
    doc["results"]["eigenvalues"][0] += 1e-6
    assert_wrong(job, json.dumps(doc))

    job = first_job("spectral", "discretize", tmp_path)
    run_ok(job)


def test_frequency_set_corruption_is_caught(tmp_path):
    job = first_job("audit", "freq-audit", tmp_path, pe_T=4)
    doc = json.loads(run_ok(job))
    doc["results"]["l_set"].pop()
    assert_wrong(job, json.dumps(doc))


def test_expected_exit_codes_come_from_documented_limits():
    refused = jobs.ramp_job("audit", 9)  # 4^9 * 32 table entries > 2^22
    assert not refused.within_limits()
    code, _, out, err = worker.run_job(cli, refused)
    assert oracles.verdict(refused, code, out, err)[0] == "refused"
    inside = jobs.ramp_job("audit", 8)
    assert inside.within_limits()
    assert oracles.verdict(inside, 1, "", "error: boom")[0] == "failed"


# --------------------------------------------------------------------------
# Seeding and tracing
# --------------------------------------------------------------------------

@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seed_reproduces_the_job_list(workload, tmp_path):
    def argvs(seed):
        return [(j.argv, j.files) for i in range(2)
                for j in jobs.cycle(workload, seed, i, str(tmp_path))]

    assert argvs(1) == argvs(1)
    assert argvs(1) != argvs(2)


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    import powerquery
    from powerquery import discretization, phase_estimation
    original = discretization.solve_eigensystem
    tracer = tracing.Tracer(powerquery)
    tracer.install()
    try:
        for module in (discretization, phase_estimation, cli, powerquery):
            assert module.solve_eigensystem.__wrapped__ is original
        job = first_job("spectral", "phase-estimate", tmp_path, format="json")
        tracer.job = job.job_id
        run_ok(job)
    finally:
        tracer.uninstall()
    tracer.settle(0)
    assert phase_estimation.solve_eigensystem is original
    names = {span[0] for span in tracer.spans}
    assert {"cli", "phase_estimation.run_phase_estimation",
            "discretization.solve_eigensystem", "phase_estimation.decode_all"} <= names
    metrics = tracer.metrics(0.0)
    assert metrics["cli.calls"] == 1
    assert metrics["discretization.oracle_dev"] < 1e-9
