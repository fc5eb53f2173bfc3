"""fjump benchmark: seeded workloads, oracles, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload jumps_scan --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the load in fresh interpreters (workers), one after
another, each for an eighth of the time, and prints the end-to-end metrics
of BENCHMARK.json, every time at the reference speed of ``meter.py``;
``--trace 1`` runs untraced passes in this
process for half the time, then one traced pass, and prints the per-layer
metrics. ``--workload all`` runs every workload in turn, each
in a fresh interpreter, and prints one table. The last line of standard
output is always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 15
WORKER_SHARE = 8  # a worker runs passes for this share of an untraced run's time


def use_source_tree():
    """Import fjump from this checkout's src/, never from anywhere else."""
    if not (SRC / "fjump" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fjump sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fjump

    if Path(fjump.__file__).resolve().parent != SRC / "fjump":
        sys.exit(f"perfbench: imported fjump from {fjump.__file__}, not from {SRC}")


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def setup_probe(args) -> tuple[float, float]:
    """In a fresh interpreter: import fjump and build the workload's inputs.

    Returns the raw time and the time at the reference speed. The
    references the oracles read are not loaded here.
    """
    from meter import Meter

    with Meter() as meter:
        before = meter.handler_s
        start = time.perf_counter()
        use_source_tree()
        import workloads

        workloads.build(args.workload, args.seed, args.small, args.data)
        end = time.perf_counter()
    raw = end - start - (meter.handler_s - before)
    return raw, raw * meter.scale(start, end)


def measure_setup(args) -> list[list[float]]:
    """(raw, scaled) set-up times of SETUP_PROBES fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--data", str(args.data)] + (["--small"] if args.small else [])
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append([float(x) for x in done.stdout.strip().splitlines()[-1].split()])
    return times


def run_pass(workload, meter, latencies, spans, failures, results):
    """Run every operation once; return the summed operation time.

    ``latencies`` collects raw latencies, less the meter's handler time;
    ``spans`` their (start, end); ``failures`` (operation index, problem).
    The result of an operation that raised is None.
    """
    total = 0.0
    results.clear()
    for i, op in enumerate(workload.ops):
        before = meter.handler_s
        start = time.perf_counter()
        try:
            result = op()
        except Exception as err:  # an operation that raises counts as failed
            end = time.perf_counter()
            result, problem = None, f"{type(err).__name__}: {err}"
        else:
            end = time.perf_counter()
            try:
                problem = workload.check(i, result)
            except Exception as err:  # an answer the oracle cannot read is wrong
                problem = f"unreadable answer: {type(err).__name__}: {err}"
        elapsed = end - start - (meter.handler_s - before)
        total += elapsed
        latencies.append(elapsed)
        spans.append((start, end))
        results.append(result)
        if problem is not None:
            failures.append((i, problem))
    return total


def run_passes(workload, seconds, meter, latencies, spans, failures, results):
    """Closed loop, one client: start passes while the last one still fits."""
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + walls[-1] <= deadline:
        walls.append(run_pass(workload, meter, latencies, spans, failures, results))
    return walls


def load_record(workload, walls, latencies, failures, results) -> dict:
    """What a load left behind, with the costlier oracles run once.

    They run on the outputs of the last pass and outside all timing; the
    answers are deterministic, so a wrong one is wrong in every pass.
    """
    final = workload.final_check(results)
    passes = len(walls)
    problems = dict(failures)
    problems.update(final)
    return {
        "passes": passes,
        "failed": len(failures) + sum(passes - sum(1 for j, _ in failures if j == i) for i in final),
        "problems": sorted(problems.items())[:10],
        "walls": walls,
        "latencies": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "threads_at_end": threading.active_count(),
        "extra": workload.summary(results),
    }


def worker(args) -> dict:
    """One untraced load, in this fresh interpreter."""
    import workloads
    from meter import Meter

    workload = workloads.build(args.workload, args.seed, args.small, args.data)
    workload.load_reference(args.data)
    latencies, spans, failures, results = [], [], [], []
    with Meter() as meter:
        walls = run_passes(workload, args.seconds, meter, latencies, spans, failures, results)
    record = load_record(workload, walls, latencies, failures, results)
    record["scaled"] = [t * meter.scale(*span) for t, span in zip(latencies, spans)]
    record["reference_ms"] = statistics.median(meter.times) * 1e3
    record["inputs_digest"] = workloads.inputs_digest(workload)
    return record


def run_workers(args) -> list[dict]:
    """The untraced load in fresh interpreters, one after another.

    Closed loop, as for passes: start workers while the last one still fits.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKER_SHARE), "--data", str(args.data)]
    cmd += ["--small"] if args.small else []
    records, last = [], 0.0
    deadline = time.perf_counter() + args.seconds
    while not records or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        last = time.perf_counter() - start
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: a worker exited with code {done.returncode}")
        records.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return records


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


def measure(args, spec):
    import workloads

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": environment()}
    workload = workloads.build(args.workload, args.seed, args.small, args.data)
    summary["inputs_digest"] = workloads.inputs_digest(workload)
    summary["ops_per_pass"] = n = len(workload.ops)

    if args.trace:
        from meter import Meter
        from tracer import Tracer

        workload.load_reference(args.data)
        idle = Meter()  # never started: no handler time to take out
        latencies, spans, failures, results = [], [], [], []
        untraced = run_passes(workload, args.seconds / 2, idle, latencies, spans, failures, results)
        tracer = Tracer()
        with tracer:
            traced_wall = run_pass(workload, idle, latencies, spans, failures, results)
        records = [load_record(workload, untraced + [traced_wall], latencies, failures, results)]
    else:
        setup = measure_setup(args)
        records = run_workers(args)
        if any(r["inputs_digest"] != summary["inputs_digest"] for r in records):
            raise SystemExit("perfbench: a worker built other inputs")

    passes = sum(r["passes"] for r in records)
    attempted = passes * n
    failed = sum(r["failed"] for r in records)
    for i, msg in sorted({i: msg for r in records for i, msg in r["problems"]}.items()):
        print(f"FAILED {workload.labels[i]}: {msg}", file=sys.stderr)
    summary.update(records[0]["extra"])
    summary.update(passes=passes, attempted=attempted, failed=failed, failed_ratio=failed / attempted)
    summary["threads_at_end"] = max(r["threads_at_end"] for r in records)

    if args.trace:
        metrics = layer_metrics(args, summary, tracer, traced_wall, untraced)
    else:
        # an operation's latency is its median, at the reference speed,
        # over the passes of every worker
        per_op = [statistics.median(t for r in records for t in r["scaled"][i::n]) for i in range(n)]
        raw_op = [statistics.median(t for r in records for t in r["latencies"][i::n]) for i in range(n)]
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "wall_s": sum(per_op),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_p90_ms": percentile(per_op, 90) * 1e3,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        }
        summary["setup_runs_s"] = setup
        summary["raw_setup_s"] = statistics.median(raw for raw, _ in setup)
        summary["raw_wall_s"] = sum(raw_op)
        summary["reference_ms"] = [r["reference_ms"] for r in records]
        summary["pass_walls_s"] = [r["walls"] for r in records]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {sorted(missing)}")
    out_metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    correct = failed == 0 and not summary.get("unloaded_layers")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"summary": summary, "result": result}, handle, indent=1)
    if args.trace:
        tracer.write_csv(OUT / f"spans-{stem}.csv")
    print("summary " + json.dumps(summary))
    for name, m in out_metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


def layer_metrics(args, summary, tracer, traced_wall, untraced):
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(untraced)
    with open(HERE / "layers.json", encoding="utf-8") as handle:
        layers = json.load(handle)
    summary["unloaded_layers"] = [
        name for name, layer in layers.items()
        if args.workload in layer["loaded_by"] and not metrics[f"{name}.calls"]
    ]
    summary["span_count"] = len(tracer.spans)
    summary["threads_seen"] = len(tracer.threads)
    summary["layer_calls"] = {k: v for k, v in metrics.items() if k.endswith(".calls")}
    if summary["unloaded_layers"]:
        print(f"perfbench: layers with zero calls: {summary['unloaded_layers']}", file=sys.stderr)
    return metrics


def run_all(args) -> int:
    """Every workload in a fresh interpreter, then one table of metrics."""
    code, rows, merged = 0, [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("jumps_scan", "tau_queries", "verify_corpus"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--data", str(args.data)]
        cmd += ["--small"] if args.small else []
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            return done.returncode or 1
        code = code or done.returncode
        result = json.loads(lines[-1])
        summary = json.loads(next(x for x in lines if x.startswith("summary "))[len("summary "):])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "failed_ratio", summary["failed_ratio"], "ratio"))
        if "unresolved_intervals" in summary:
            rows.append((name, "unresolved_intervals", summary["unresolved_intervals"], "count"))
    for name, metric, value, unit in rows:
        print(f"{name:14} {metric:34} {value:>14.6g} {unit}")
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["jumps_scan", "tau_queries", "verify_corpus", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true", help="a few cheap operations, for the benchmark's own tests")
    parser.add_argument("--data", type=Path, default=HERE / "data", help="directory of recorded references")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(*map(repr, setup_probe(args)))
        return 0
    if args.worker:
        use_source_tree()
        print(json.dumps(worker(args)))
        return 0
    spec = benchmark_spec()
    if args.workload == "all":
        return run_all(args)
    use_source_tree()
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
