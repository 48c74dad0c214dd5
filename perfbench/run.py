"""Benchmark launcher: one workload, one seed, one closed-loop client.

Run from the repository root::

    python3 perfbench/run.py --workload savings-corpus --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
traced run that gives the per-layer metrics.  A run is a whole number of
the workload's job blocks, sized to take about ``--seconds`` on the
reference host (see workloads.py).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it print every metric with its unit, the
run's settings and any failed job.  See ``perfbench/README.md``.
"""

import os
import sys
import time

_STARTED = time.time()

#: Pinned before numpy is imported: one BLAS/OpenMP thread on every backend
#: and a fixed string-hash seed, so a run is single-threaded and repeatable.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

if "PERFBENCH_T0" not in os.environ:
    # PYTHONHASHSEED only takes effect at interpreter start: re-execute this
    # script once with the pinned environment, carrying the start time.
    _env = dict(os.environ, PERFBENCH_T0=repr(_STARTED), **PINNED_ENV)
    os.execve(
        sys.executable,
        [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
        _env,
    )

import argparse  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import pkgutil  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per untraced run: this process plus four fresh child processes.
SETUP_SAMPLES = 5
#: The untraced reference pass of a traced run (the base of
#: ``trace.overhead_share``) runs this share of the traced pass's jobs.
TRACE_REFERENCE_SHARE = 1.0 / 3.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="print this process's set-up time as JSON and exit",
    )
    return parser.parse_args(argv)


def import_program():
    """Import every ``repro`` module, so no job pays a first import."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program source at {src}/repro; run from the "
            "repository root of a full checkout"
        )
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)


def settings_line() -> str:
    pinned = " ".join(f"{k}={os.environ.get(k)}" for k in PINNED_ENV)
    return f"settings: {pinned} workers=1 nproc={os.cpu_count()}"


def closed_loop(workload, count, trace=None):
    """Run the first ``count`` jobs of the stream, sending the next job
    only when the previous one has returned.  Returns the finished jobs,
    the loop's wall time and the host-speed probes taken before the first
    job and after every job (outside the job latencies)."""
    from hostspeed import probe
    from workloads import Done

    done = []
    probes = [probe()]
    start = time.perf_counter()
    for job in itertools.islice(workload.stream(), count):
        t0 = time.perf_counter()
        error = ""
        output = None
        try:
            if trace is None:
                output = workload.run(job)
            else:
                with trace.job_span(job.index):
                    output = workload.run(job)
        except Exception as exc:  # a raising job is a failed job, named below
            error = f"{type(exc).__name__}: {exc}"
        done.append(Done(job, time.perf_counter() - t0, output, error))
        probes.append(probe())
    return done, time.perf_counter() - start, probes


def child_setup_seconds(args) -> float:
    """Set-up time of one fresh process for the same workload and seed."""
    env = {k: v for k, v in os.environ.items() if k != "PERFBENCH_T0"}
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def report_failures(verdict) -> None:
    for job, reason in verdict.failures:
        print(f"FAILED job {job.index} inputs={json.dumps(job.inputs)}: "
              f"{reason}")


def quality(verdict, attempted):
    return {
        "mean_norm_width": (
            statistics.fmean(verdict.norm_widths)
            if verdict.norm_widths else float("nan")),
        "feasible_share": (
            verdict.feasible_ok / verdict.candidates
            if verdict.candidates else 0.0),
        "failed_share": len(verdict.failures) / attempted,
    }


def emit(correct, attempted, failed, metrics) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def run_untraced(args, workload, setup_s) -> int:
    from hostspeed import PROBE_REFERENCE_S, factors
    from stats import median, tail

    done, wall, probes = closed_loop(workload, workload.jobs_for(args.seconds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = workload.check(done)
    attempted = len(done)
    completed = sum(1 for d in done if not d.error)
    raw = [d.latency_s for d in done]
    latencies = [t * f for t, f in zip(raw, factors(probes))]
    p50 = median(latencies)
    tail_s, tail_pct, beyond = tail(latencies)
    setups = [setup_s] + [
        child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)
    ]
    q = quality(verdict, attempted)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (completed / sum(latencies), "1/s"),
        "job_p50_s": (p50, "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "mean_norm_width": (q["mean_norm_width"], "ratio"),
        "feasible_share": (q["feasible_share"], "ratio"),
    }
    raw_tail = sorted(raw)[len(raw) - beyond - 1]
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "jobs_per_s": (f"{completed} jobs in {wall:.2f} s wall "
                       f"(raw {completed / wall:.4g} 1/s)"),
        "job_p50_s": f"raw {median(raw):.4g} s",
        "job_tail_s": (f"p{tail_pct}, {beyond} jobs beyond; "
                       f"{'>=' if tail_s >= p50 else '<'} job_p50_s; "
                       f"raw {raw_tail:.4g} s"),
        "feasible_share": (f"{verdict.feasible_ok} of {verdict.candidates} "
                           "candidates"),
    }
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace=0")
    print(settings_line())
    print(f"  times are at the reference host's speed (hostspeed.py): "
          f"probe median {statistics.median(probes) * 1e3:.2f} ms, "
          f"reference {PROBE_REFERENCE_S * 1e3:.2f} ms; raw values beside")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:>12.6g} {unit:<6} {notes.get(name, '')}")
    print(f"  {'failed_share':<16} {q['failed_share']:>12.6g} {'ratio':<6} "
          f"{len(verdict.failures)} of {attempted} jobs")
    report_failures(verdict)
    emit(not verdict.failures, attempted, len(verdict.failures), metrics)
    return 0


def run_traced(args, workload) -> int:
    from layers import LayerTrace

    count = workload.jobs_for(args.seconds)
    reference, _, _ = closed_loop(
        workload, max(1, round(count * TRACE_REFERENCE_SHARE)))
    workload.restart(args.seed)
    trace = LayerTrace()
    trace.install()
    try:
        done, wall, _ = closed_loop(workload, count, trace)
    finally:
        trace.uninstall()
    verdict = workload.check(done)
    problems = trace.self_check()
    paired = min(len(reference), len(done))
    base = sum(d.latency_s for d in reference[:paired])
    traced = sum(d.latency_s for d in done[:paired])
    metrics = trace.metrics()
    metrics["trace.overhead_share"] = (traced / base - 1.0, "ratio")
    q = quality(verdict, len(done))

    out_dir = os.environ["PERFBENCH_OUT"]
    stem = os.path.join(out_dir, f"{args.workload}-s{args.seed}")
    trace.write_spans(stem + "-spans.jsonl")
    with open(stem + "-trace.json", "w") as fh:
        json.dump({
            "jobs": len(done), "wall_s": wall, "quality": q,
            "calls": dict(trace.calls), "registry": trace.registry_delta,
            "self_check": problems,
            "metrics": {k: v for k, (v, _u) in metrics.items()},
        }, fh, indent=1, sort_keys=True)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace=1")
    print(settings_line())
    print(f"  traced pass: {len(done)} jobs in {wall:.2f} s; untraced "
          f"reference: {len(reference)} jobs; spans in {stem}-spans.jsonl")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {unit}")
    print(f"  self-check: wrapper calls vs program counters "
          f"{'match' if not problems else 'MISMATCH'}")
    for problem in problems:
        print(f"  MISMATCH {problem}")
    report_failures(verdict)
    emit(not verdict.failures and not problems, len(done),
         len(verdict.failures), metrics)
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    started = float(os.environ["PERFBENCH_T0"])
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    os.environ["PERFBENCH_OUT"] = out_dir

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    try:
        workload.prepare(args.seed)
        workload.warm_up()
        workload.restart(args.seed)
        from hostspeed import normalize

        setup_s = normalize(time.time() - started)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            return run_traced(args, workload)
        return run_untraced(args, workload, setup_s)
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
