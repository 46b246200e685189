"""Benchmark of dirmat: cover search, the rank oracle and the stability sweeps.

Each workload runs as a closed loop with one caller in one fresh interpreter:
it sets up, then runs whole rounds of the same seeded operations until
--seconds have passed, then checks every answer.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 1 the run wraps dirmat's public functions (see
tracing.py), reports per-layer metrics instead of end-to-end ones and writes
its spans to perfbench/out/.

    python3 perfbench/run.py --workload cover --seed 1 --seconds 30 --trace 0

Without --workload, every workload runs in turn, each in its own process;
with --trace 1 each also gets a traced run and the tracing overhead is
printed.  README.md describes the workloads and metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("cover", "oracle", "sweep")
SETUP_REPEATS = 3
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import dirmat from the src/ directory next to this benchmark."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import dirmat
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import dirmat from {src}: {exc}")
    if not os.path.abspath(dirmat.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: dirmat was imported from {dirmat.__file__}, not {src}")


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def kinds_near(ops, latencies, q, width=0.05):
    """How many operations of each kind lie within width of rank q."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    n = len(order)
    near = {}
    for i in order[int((q - width) * n):int((q + width) * n)]:
        kind = ops[i % len(ops)].kind
        near[kind] = near.get(kind, 0) + 1
    return dict(sorted(near.items(), key=lambda kv: -kv[1]))


def run_workload(name, seed, seconds, trace):
    import_program()
    import_s = time.perf_counter() - _START
    import checkers
    import tracing
    import workloads

    setup = workloads.WORKLOADS[name]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        ops = None
        gc.collect()
        t = time.perf_counter()
        ops = setup(seed)
        setup_times.append(time.perf_counter() - t)
    gc.collect()
    gc.freeze()

    latencies = []
    results = [[] for _ in ops]
    attempted = failed = rounds = 0
    clock = time.perf_counter_ns
    begin = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if tracer:
                tracer.op_id = attempted
                call = lambda: tracer.call(f"op.{op.kind}", op.call)  # noqa: E731
            else:
                call = op.call
            start = clock()
            try:
                answer = call()
            except Exception as exc:  # a failed operation is counted, not fatal
                answer = exc
                failed += 1
                if failed == 1:
                    traceback.print_exc()
            latencies.append(clock() - start)
            results[i].append(answer)
            attempted += 1
        rounds += 1
        if time.perf_counter() - begin >= seconds:
            break
    wall = time.perf_counter() - begin
    if tracer:
        tracer.uninstall()

    problems = []
    for op, answers in zip(ops, results):
        for answer in answers:
            if isinstance(answer, Exception):
                continue
            try:
                op.check(answer)
            except checkers.CheckFailed as exc:
                problems.append(f"{op.kind}: {exc}")
    for line in problems[:10]:
        print(f"check failed: {line}", file=sys.stderr)

    # Percentiles are taken in each round and averaged over the rounds.  The
    # machine's speed switches between levels every few seconds; a percentile
    # of the pooled samples jumps with the level most of the run saw, while
    # the average moves in proportion to the time spent at each level.
    per_round = [sorted(latencies[r * len(ops):(r + 1) * len(ops)]) for r in range(rounds)]
    end_to_end = {
        "ops_per_s": (attempted - failed) / wall,
        "latency_p50_ms": statistics.fmean(percentile(r, 0.5) for r in per_round) / 1e6,
        "latency_p90_ms": statistics.fmean(percentile(r, 0.9) for r in per_round) / 1e6,
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {name}  seed {seed}  trace {trace}  rounds {rounds}  "
          f"ops/round {len(ops)}  timed {wall:.2f} s  import {import_s:.3f} s  "
          f"setups {', '.join(f'{s:.3f}' for s in setup_times)} s")
    for q in (0.5, 0.9):
        print(f"  kinds near p{round(q * 100)}: {kinds_near(ops, latencies, q)}")
    for key, value in end_to_end.items():
        print(f"  {key:16s} {value:12.4f} {END_TO_END_UNITS[key]}")

    if tracer:
        metrics = tracer.metrics()
        for key, m in metrics.items():
            print(f"  {key:44s} {m['value']:14.3f} {m['unit']}")
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": name, "seed": seed, "end_to_end": end_to_end,
                       "per_layer": metrics, "span_fields": ["name", "start_ns", "end_ns",
                                                             "parent", "op"],
                       "spans": tracer.spans}, fh)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_all(seed, seconds, trace):
    """Run every workload in its own process; with trace, also traced."""
    summary = {}
    for name in WORKLOAD_NAMES:
        for traced in ((0, 1) if trace else (0,)):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="")
            if proc.returncode != 0:
                sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
            summary.setdefault(name, {})["traced" if traced else "untraced"] = \
                json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    print(f"{'workload':8s} {'metric':16s} {'value':>12s} unit   (attempted, failed)")
    for name, runs in summary.items():
        res = runs["untraced"]
        for key, m in res["metrics"].items():
            print(f"{name:8s} {key:16s} {m['value']:12.4f} {m['unit']:6s} "
                  f"({res['attempted']}, {res['failed']})")
        if trace:
            with open(os.path.join(OUT, f"trace-{name}-seed{seed}.json")) as fh:
                traced = json.load(fh)["end_to_end"]["ops_per_s"]
            untraced = res["metrics"]["ops_per_s"]["value"]
            runs["trace_overhead"] = untraced / traced - 1
            print(f"{name:8s} tracing overhead {100 * runs['trace_overhead']:.1f} % "
                  f"(ops_per_s {untraced:.2f} untraced, {traced:.2f} traced)")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"summary-seed{seed}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({"correct": all(run["correct"] for runs in summary.values()
                                     for key, run in runs.items() if key != "trace_overhead"),
                      "workloads": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload:
        run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        run_all(args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
