"""The benchmark's own tests.

Run from the repository root: ``python3 -m pytest perfbench -q``.  They
start the launcher as a subprocess, the same way the benchmark is run.
"""

import functools
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from stats import TAIL_BEYOND, median, tail  # noqa: E402
from workloads import MIN_JOBS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def _launch(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@functools.lru_cache(maxsize=None)
def _untraced(workload):
    """One shortest untraced run of ``workload``: its stdout and result."""
    proc = _launch("--workload", workload, "--seed", "5", "--seconds", "1",
                   "--trace", "0")
    return proc.stdout, _result(proc)


def test_tail_is_highest_percentile_with_ten_beyond():
    for n in range(2 * TAIL_BEYOND, 400):
        values = [float((i * 7919) % n) for i in range(n)]
        value, percentile, beyond = tail(values)
        assert beyond >= TAIL_BEYOND
        assert value >= median(values)
        ordered = sorted(values)
        assert sum(1 for v in ordered if v > value) <= beyond
        if percentile < 99:
            rank = -(-(percentile + 1) * n // 100)
            assert n - rank < TAIL_BEYOND


def test_tail_of_a_short_run_is_the_median():
    values = [3.0, 1.0, 2.0, 5.0, 4.0]
    assert tail(values) == (3.0, 50, 2)


def test_tail_of_a_minimum_run_reaches_p75():
    assert tail(list(range(MIN_JOBS)))[1:] == (75, TAIL_BEYOND)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_reports_every_metric_and_tail_above_median(workload):
    stdout, result = _untraced(workload)
    attempted = result["attempted"]
    assert attempted >= MIN_JOBS
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert metrics["job_tail_s"] >= metrics["job_p50_s"]
    beyond = int(re.search(r"p\d+, (\d+) jobs beyond", stdout).group(1))
    assert beyond >= TAIL_BEYOND
    assert attempted - beyond > math.ceil(attempted / 2)
    assert "failed_share" in stdout
    assert "OPENBLAS_NUM_THREADS=1" in stdout
    assert result["correct"] == (result["failed"] == 0)
    assert stdout.count("FAILED job ") == result["failed"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_is_correct(workload):
    stdout, result = _untraced(workload)
    assert result["correct"] and result["failed"] == 0, stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_and_match_program_counters(workload):
    summaries = []
    results = []
    for _ in range(2):
        results.append(_result(_launch("--workload", workload, "--seed", "7",
                                       "--seconds", "1", "--trace", "1")))
        path = os.path.join(ROOT, ".perfbench_out", f"{workload}-s7-trace.json")
        with open(path) as fh:
            summaries.append(json.load(fh))
        units = {k: v["unit"] for k, v in results[-1]["metrics"].items()}
        assert units == PER_LAYER
    first, second = summaries
    assert first["self_check"] == [] and second["self_check"] == []
    assert results[0]["failed"] == results[1]["failed"]
    assert first["calls"] == second["calls"]
    assert first["registry"] == second["registry"]
    counts = [k for k, unit in units.items() if unit == "count"]
    assert [first["metrics"][k] for k in counts] == [
        second["metrics"][k] for k in counts]
    for key in ("mean_norm_width", "feasible_share", "failed_share"):
        assert first["quality"][key] == second["quality"][key]


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _launch("--workload", "savings-corpus", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_check_rejects_widths_that_miss_the_budget():
    os.environ.setdefault("PERFBENCH_OUT", str(ROOT))
    from workloads import CollapseCertify, Done, Job

    workload = CollapseCertify()
    workload.prepare(0)
    job = next(workload.stream())
    good = workload.run(job)
    assert not workload.check([Done(job, 0.0, good)]).failures
    job.inputs["delay"] *= 0.8
    failures = workload.check([Done(job, 0.0, good)]).failures
    assert failures and "arrival" in failures[0][1]


def test_savings_shapes_are_measured_on_every_path():
    from repro.sizing.paths import PathExtractor
    from workloads import EXACT_PATH_LIMIT, SavingsCorpus

    workload = SavingsCorpus()
    workload.prepare(0)
    for topology, width, params in workload.shapes:
        circuit = workload.database.generate(
            topology, workload._spec({"topology": topology, "width": width,
                                      "params": params, "load": 30.0}),
            workload.library.tech)
        assert PathExtractor(circuit).count() <= EXACT_PATH_LIMIT, topology


@pytest.mark.xfail(
    strict=True,
    reason="measure_class_delays measures circuits above 20 000 paths on "
           "representative paths only and under-measures the original's "
           "delay (README: Known defect)",
)
def test_savings_wide_adder_meets_spec():
    from workloads import Done, Job, SavingsCorpus

    workload = SavingsCorpus()
    workload.prepare(0)
    job = Job(0, {"topology": "adder/static_ripple", "width": 12,
                  "params": (), "load": 35.0})
    verdict = workload.check([Done(job, 0.0, workload.run(job))])
    assert not verdict.failures, verdict.failures
