"""Run the benchmark.

``python3 bench/run.py`` (or ``PYTHONPATH=src python -m bench.run``)
runs every workload of ``BENCHMARK.json``, each in a fresh subprocess,
first with tracing off (the end-to-end metrics) and then traced (the
per-layer metrics), checks every output, and prints every metric by
name with unit, direction, median, min/max and sample count.

``--workload NAME --trace 0|1`` measures one workload in this process
and prints, as the last line of standard output, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: sys.path[0] is bench/ itself, where trace.py
    # would shadow the standard library's module of that name.
    sys.path[0] = str(ROOT)
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(1, str(ROOT / "src"))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from bench.layers import install, percentile, probe_metrics, span_metrics  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import WORKLOADS, CheckFailed, Drive, Workload, check  # noqa: E402
from repro.errors import ReproError  # noqa: E402

OUT = ROOT / "bench" / "out"
MIN_SETUPS = 3
SERVE_WINDOWS = 3
EXTRA_BOUNDS = {"inc_p50_ms": 0.25, "inc_p99_ms": 0.25}
"""Regression bounds ``--check-repeat`` applies to the latency
percentiles of the serving workloads.  They are end-to-end numbers but
not ``end_to_end`` entries of ``BENCHMARK.json``, because every entry
there must be reported by every workload."""


# ----------------------------------------------------------------------
# Measuring one workload in this process
# ----------------------------------------------------------------------
def repeat(
    workload: Workload, budget_s: float, tracer: Tracer | None = None
) -> tuple[float, float, Drive]:
    """One repeat: timed build (set-up), timed drive, close."""
    clock = time.perf_counter
    span = tracer.span if tracer is not None else lambda name: nullcontext()
    with span("bench.repeat"):
        gc.collect()
        start = clock()
        with span("bench.build"):
            state = workload.build()
        setup_s = clock() - start
        try:
            gc.collect()
            start = clock()
            with span("bench.drive"):
                drive = workload.drive(state, budget_s)
            elapsed_s = clock() - start
        finally:
            workload.close(state)
    return setup_s, elapsed_s, drive


def drive_budget(workload: Workload, seconds: float) -> float:
    """Seconds one drive may take: a serving run is three windows."""
    return seconds / SERVE_WINDOWS if workload.fixed_duration else seconds


def summarize(values: list[float]) -> dict:
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def measure_untraced(workload: Workload, seconds: float) -> dict:
    """Warm up, repeat until *seconds* of drive time are measured, and
    report medians over the repeats."""
    workload.warm()
    budget_s = drive_budget(workload, seconds)
    setups, rates, drives = [], [], []
    measured_s = 0.0
    while True:
        setup_s, elapsed_s, drive = repeat(workload, budget_s)
        setups.append(setup_s)
        rates.append(drive.units / elapsed_s)
        drives.append(drive)
        measured_s += elapsed_s
        check(
            drive.exact == drives[0].exact,
            f"simulated statistics changed between repeats: "
            f"{drives[0].exact} then {drive.exact}",
        )
        if workload.quick or measured_s >= seconds:
            break
    while not workload.quick and len(setups) < MIN_SETUPS:
        gc.collect()
        start = time.perf_counter()
        state = workload.build()
        setups.append(time.perf_counter() - start)
        workload.close(state)
    metrics = {
        "setup_s": summarize(setups),
        "throughput_per_s": summarize(rates),
        "peak_rss_mb": summarize(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        ),
    }
    extras = {}
    latencies = sorted(t for drive in drives for t in drive.latencies)
    if latencies:
        beyond = len(latencies) - int(len(latencies) * 0.99)  # incl. the p99
        extras["inc_p50_ms"] = {
            "value": statistics.median(latencies) * 1e3,
            "n": len(latencies),
        }
        extras["inc_p99_ms"] = {
            "value": percentile(latencies, 0.99) * 1e3,
            "n": len(latencies),
            "beyond": beyond,
        }
    return {
        "attempted": sum(drive.attempted for drive in drives),
        "failed": sum(drive.failed for drive in drives),
        "metrics": metrics,
        "extras": extras,
        "exact": drives[0].exact,
        "counts": drives[0].layer,
        "problem": None,
    }


def measure_traced(workload: Workload, seconds: float) -> dict:
    """One untraced and one traced repeat; per-layer metrics come from
    the traced one and from the direct probes."""
    workload.warm()
    budget_s = drive_budget(workload, seconds)
    _, plain_s, plain = repeat(workload, budget_s)
    tracer = Tracer()
    install(tracer)
    try:
        _, traced_s, traced = repeat(workload, budget_s, tracer)
    finally:
        tracer.unpatch_all()
    check(
        traced.exact == plain.exact,
        f"tracing changed the simulated statistics: {plain.exact} "
        f"then {traced.exact}",
    )
    share = tracer.self_time_share()
    check(
        abs(share - 1.0) <= 0.05,
        f"span self times sum to {share:.3f} of the traced wall time",
    )
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}.jsonl")
    metrics = span_metrics(tracer, traced)
    metrics.update(probe_metrics(workload.seed, workload.quick))
    metrics["bench.trace_overhead_share"] = (
        (plain.units / plain_s) / (traced.units / traced_s) - 1.0
    )
    metrics["bench.trace_spans"] = len(tracer.spans)
    metrics["bench.trace_self_time_share"] = share
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
        "extras": {},
        "exact": traced.exact,
        "counts": {},
        "problem": None,
    }


def failure(problem: str) -> dict:
    """The result of a measurement that produced no numbers."""
    return {"attempted": 1, "failed": 1, "metrics": {}, "extras": {},
            "exact": {}, "counts": {}, "problem": problem}


def print_report(detail: dict, declared: dict[str, dict]) -> None:
    """Every metric by name with unit, direction, median, min/max and
    sample count; then the exact counts and the failed share."""
    for name, sample in detail["metrics"].items():
        spec = declared.get(name, {"unit": "?", "better": "?"})
        spread = (
            f"  min {sample['min']:.6g}  max {sample['max']:.6g}  n {sample['n']}"
            if "n" in sample
            else ""
        )
        print(
            f"  {name:<48} {sample['value']:>14.6g} {spec['unit']:<6} "
            f"({spec['better']} is better){spread}"
        )
    for name, sample in detail["extras"].items():
        notes = "  ".join(f"{k} {v}" for k, v in sample.items() if k != "value")
        print(
            f"  {name:<48} {sample['value']:>14.6g} ms     (lower is better)  {notes}"
        )
    for name, value in {**detail["exact"], **detail["counts"]}.items():
        print(f"  {'= ' + name:<48} {value:>14.6g}")
    print(
        f"  failed_share {detail['failed'] / detail['attempted']:g} "
        f"({detail['failed']} of {detail['attempted']} operations)"
        + (f"  CHECK FAILED: {detail['problem']}" if detail["problem"] else "")
    )


def leaf(args: argparse.Namespace, benchmark: dict) -> int:
    """Measure one workload here; print the report and the result line."""
    declared = {
        m["name"]: m for m in benchmark["per_layer" if args.trace else "end_to_end"]
    }
    workload = WORKLOADS[args.workload](args.seed, args.quick)
    measure = measure_traced if args.trace else measure_untraced
    try:
        detail = measure(workload, args.seconds)
    except (CheckFailed, ReproError, AssertionError) as error:
        detail = failure(f"{type(error).__name__}: {error}")
    if not detail["problem"] and set(detail["metrics"]) != set(declared):
        detail["problem"] = (
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(detail['metrics']) ^ set(declared))}"
        )
    detail.update(workload=workload.name, trace=args.trace)
    print(
        f"== {workload.name}  seed={args.seed}  seconds={args.seconds:g}  "
        f"trace={args.trace}{'  quick' if args.quick else ''}  "
        f"(throughput counts {workload.unit})"
    )
    print_report(detail, declared)
    print("DETAIL " + json.dumps(detail))
    correct = not detail["problem"] and detail["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": {
                    name: {"value": sample["value"], "unit": declared[name]["unit"]}
                    for name, sample in detail["metrics"].items()
                    if name in declared
                },
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Running the set, one subprocess per workload
# ----------------------------------------------------------------------
def run_set(
    args: argparse.Namespace, names: list[str], traces: list[int]
) -> list[dict]:
    """Run every (workload, trace) pair in its own process, so peak RSS
    and collector state do not leak between workloads."""
    details = []
    for trace in traces:
        for name in names:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, timeout=900
            )
            detail = None
            for line in done.stdout.splitlines():
                if line.startswith("DETAIL "):
                    detail = json.loads(line[len("DETAIL "):])
                elif not line.startswith("{"):
                    print(line, flush=True)
            if detail is None:
                detail = failure(f"exit code {done.returncode}, no result")
                detail.update(workload=name, trace=trace)
                print(f"== {name}  trace={trace}  {detail['problem']}")
            elif done.returncode != 0 and not detail["problem"]:
                detail["problem"] = f"{detail['failed']} operations failed"
            details.append(detail)
    return details


def environment(args: argparse.Namespace) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def compare(benchmark: dict, first: list[dict], second: list[dict]) -> bool:
    """Print per-metric deltas between two runs of the set; ``True``
    when every median agrees within its bound and every exact count is
    identical."""
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    bounds.update(EXTRA_BOUNDS)
    agree = True
    print("== repeatability: second run against first")
    for one, two in zip(first, second):
        name = one["workload"]
        before = {**one["metrics"], **one["extras"]}
        after = {**two["metrics"], **two["extras"]}
        for metric, sample in before.items():
            a = sample["value"]
            b = after.get(metric, {"value": float("nan")})["value"]
            delta = abs(b - a) / a
            ok = delta <= bounds[metric]
            agree &= ok
            print(
                f"  {name:<22} {metric:<18} {a:>12.6g} {b:>12.6g} "
                f"{delta:>7.2%} (bound {bounds[metric]:.0%})  "
                f"{'ok' if ok else 'DIFFERS'}"
            )
        same = one["exact"] == two["exact"]
        agree &= same
        print(
            f"  {name:<22} exact counts "
            + ("identical" if same else f"DIFFER: {one['exact']} / {two['exact']}")
        )
    return agree


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="every workload shrunk to under a second, one repeat, all checks on",
    )
    parser.add_argument(
        "--check-repeat", action="store_true",
        help="run the untraced set twice and compare medians and exact counts",
    )
    parser.add_argument(
        "--record", metavar="FILE",
        help="also write the environment and every result as JSON",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = min(args.seconds, 1.0)
    if args.workload is not None and args.trace is not None:
        return leaf(args, benchmark)
    selected = [args.workload] if args.workload else names
    if args.check_repeat:
        first = run_set(args, selected, [0])
        second = run_set(args, selected, [0])
        details = first + second
        agree = compare(benchmark, first, second)
    else:
        traces = [0, 1] if args.trace is None else [args.trace]
        details = run_set(args, selected, traces)
        agree = True
    problems = [d for d in details if d["problem"]]
    for detail in problems:
        print(
            f"FAILED {detail['workload']} trace={detail['trace']}: "
            f"{detail['problem']}"
        )
    if args.record:
        Path(args.record).write_text(
            json.dumps(
                {"environment": environment(args), "agree": agree, "results": details},
                indent=1,
            )
            + "\n"
        )
    return 0 if agree and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
