"""kleinlab benchmark: runs the real pipeline through `kleinlab.cli` on one
seeded workload and checks every output.

    python3 perfbench/run.py --workload dfs-ladder --seed 1 --seconds 30 --trace 0

Run from anywhere; it uses the `src` tree next to this directory and writes
only below the checkout (a scratch directory it removes, and with --trace 1
a span file in .perfbench_out/).  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics; --trace 1 wraps the package's public functions in spans
and reports the per-layer metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_ITERATIONS = 2
IMPORT_PROBES = 3
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "op1_s", "op2_s", "op3_s", "op4_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def summary(values: list[float]) -> dict:
    """Mean, median, and the highest percentile with at least ten samples
    above it (none below eleven samples), with the sample count and the
    samples in the order they were taken."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n >= 11:
        k = n - 10  # the k-th smallest has exactly ten samples above it
        tail = {"percentile": 100 * k // n, "value": ordered[k - 1]}
    return {"n": n, "mean": statistics.fmean(values), "median": statistics.median(ordered),
            "tail": tail, "samples": values}


def schedule(ops, repeat=True):
    """(op, repeat index) pairs of one iteration.  An op that runs n times
    is placed at the middles of n equal slices of the iteration, so the
    samples of short ops are spread over the run, not bunched together."""
    slots = []
    for order, op in enumerate(ops):
        n = op.repeats if repeat else 1
        slots += [((r + 0.5) / n, order, op, r) for r in range(n)]
    return [(op, r) for _, _, op, r in sorted(slots, key=lambda s: s[:2])]


def run_iteration(ops, tracer=None, repeat=True):
    """Time each operation (`op.repeats` times when `repeat`, interleaved),
    then check each output with the clock stopped.  Returns (wall seconds,
    {op name: [seconds]}, failed runs, problems)."""
    times: dict[str, list[float]] = defaultdict(list)
    done = []
    t_iter = perf_counter()
    for op, r in schedule(ops, repeat):
        if tracer is not None:
            tracer.op = op.label
        t0 = perf_counter()
        try:
            if tracer is None:
                payload = op.run(r)
            else:
                with tracer.span("op." + op.name):
                    payload = op.run(r)
            error = None
        except Exception as exc:  # counted as a failed operation
            payload, error = None, f"{type(exc).__name__}: {exc}"
        times[op.name].append(perf_counter() - t0)
        done.append((op, payload, error))
    wall = perf_counter() - t_iter

    failed = 0
    problems = []
    for op, payload, error in done:
        nbytes = 0
        if error is not None:
            found = [error]
        else:
            try:
                found, nbytes = op.check(payload)
            except Exception as exc:  # an unreadable output is a failure
                found = [f"check raised {type(exc).__name__}: {exc}"]
        if tracer is not None:
            tracer.op = op.label
            tracer.count("cli.bytes_written", nbytes)
        if found:
            failed += 1
            problems.append(f"{op.name}: {'; '.join(found)}")
    return wall, times, failed, problems


def peak_rss_mb() -> float:
    """Peak resident set of a process that ran kleinlab: this one, or the
    largest child.  ru_maxrss is in KiB on Linux."""
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak / 1024.0


def run(args, work: Path) -> tuple[dict, dict]:
    from layers import OPS, instrument, iteration_metrics, metric_names, unit
    from spans import Tracer
    from workloads import WORKLOADS

    def fresh():
        return WORKLOADS[args.workload](ROOT, args.seed, work)

    setup_times: list[float] = []

    def set_up(target) -> None:
        t0 = perf_counter()
        target.setup(work / f"setup{len(setup_times)}")
        setup_times.append(perf_counter() - t0)

    # The ops use the first set-up.  The others are timed on fresh
    # instances, spread over the run like the ops' samples.
    workload = fresh()
    set_up(workload)
    ops = workload.ops()
    op_label = {op.name: op.label for op in ops}

    walls: list[float] = []
    samples: dict[str, list[float]] = defaultdict(list)
    attempted = failed = 0
    problems: list[str] = []

    def tally(result):
        nonlocal attempted, failed
        wall, times, bad, found = result
        failed += bad
        problems.extend(found)
        for name, seconds in times.items():
            attempted += len(seconds)
            samples[name].extend(seconds)
        return wall

    start = perf_counter()
    per_layer = None
    if not args.trace:
        while True:
            walls.append(tally(run_iteration(ops)))
            elapsed = perf_counter() - start
            due = len(setup_times) * args.seconds / SETUP_REPEATS
            if len(setup_times) < SETUP_REPEATS and elapsed >= due:
                set_up(fresh())
                elapsed = perf_counter() - start
            # Start another iteration only if it should end within half an
            # iteration of the budget.
            if len(walls) >= MIN_ITERATIONS and elapsed + statistics.median(walls) / 2 > args.seconds:
                break
    else:
        traced_walls: list[float] = []
        per_iteration: list[dict] = []
        trace_docs = []
        while True:
            tracer = Tracer()
            instrument(tracer)
            workload.tracer = tracer
            try:
                traced_walls.append(tally(run_iteration(ops, tracer, repeat=False)))
            finally:
                tracer.unwrap_all()
                workload.tracer = None
            per_iteration.append(iteration_metrics(tracer))
            trace_docs.append(tracer.to_doc())
            elapsed = perf_counter() - start
            # Leave room for one untraced reference iteration.
            if elapsed + 1.5 * statistics.median(traced_walls) > args.seconds:
                break
        walls.append(tally(run_iteration(ops, repeat=False)))
        per_layer = {
            name: statistics.median(it[name] for it in per_iteration)
            for name in per_iteration[0]
        }
        per_layer["trace.overhead_s"] = statistics.median(traced_walls) - walls[0]
        import_s, scipy_s = 0.0, 0.0
        if hasattr(workload, "import_times"):
            probes = [workload.import_times() for _ in range(IMPORT_PROBES)]
            import_s = statistics.median(p[0] for p in probes)
            scipy_s = statistics.median(p[1] for p in probes)
        per_layer["cli.import_s"] = import_s
        per_layer["cli.import_scipy_s"] = scipy_s
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "iterations": trace_docs}))

    while len(setup_times) < SETUP_REPEATS:
        set_up(fresh())

    named = {name: summary(values) for name, values in samples.items()}
    named["wall_s"] = summary(walls)
    named["setup_s"] = summary(setup_times)
    # An op's time and wall_s are means over the whole run: on a shared host
    # the samples fall into a fast and a slow mode, and a median jumps
    # between them (README, "Spread and bounds").
    e2e = {
        "setup_s": (named["setup_s"]["median"], "s"),
        "wall_s": (named["wall_s"]["mean"], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for name, label in op_label.items():
        if label in OPS:
            e2e[f"{label}_s"] = (named[name]["mean"], "s")

    if per_layer is None:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in END_TO_END}
    else:
        metrics = {k: {"value": per_layer[k], "unit": unit(k)} for k in metric_names()}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": len(walls) if per_layer is None else len(walls) + len(per_iteration),
        "ops": {op.name: op.label for op in ops},
        "timings": named,
        "peak_rss_mb": e2e["peak_rss_mb"][0],
        "error_rate": failed / attempted,
        "problems": problems[:20],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind: a running child is killed and waited for, and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "kleinlab" / "cli.py").is_file():
        print(f"perfbench: no kleinlab sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import kleinlab.cli
    import numpy
    import scipy

    import_s = perf_counter() - t0
    if not Path(kleinlab.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported kleinlab from {kleinlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    report["context"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kleinlab": kleinlab.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "import_kleinlab_s": import_s,
    }
    for name, s in sorted(report["timings"].items()):
        tail = f"p{s['tail']['percentile']} {s['tail']['value']:.4f} s" if s["tail"] else "tail n/a (n<11)"
        print(f"{name:<22} mean {s['mean']:.4f} s  median {s['median']:.4f} s  n={s['n']}  {tail}")
    print(f"{'peak_rss_mb':<22} {report['peak_rss_mb']:.1f} MB")
    print(f"{'error_rate':<22} {report['error_rate']:.4f} ({result['failed']}/{result['attempted']})")
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
