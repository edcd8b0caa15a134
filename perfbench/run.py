"""The repository benchmark: seeded time-to-verdict workloads.

Run one workload from the repository root::

    python3 perfbench/run.py --workload construct_check --seed 1 --seconds 20 --trace 0

Each run starts fresh worker processes (``worker.py``) with a cleaned
environment: every ``REPRO_*`` variable is removed (a backend override,
trace sink, ambient budget or reorder switch would change what is
measured), ``PYTHONHASHSEED`` is fixed and the library is imported from
``src/``.  Set-up is timed in several fresh processes and reported as the
median.  The measuring worker then runs whole passes over the seeded query
list, one client in a closed loop.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (from a run in which untraced and traced passes alternate); the
metric names and units are read from ``BENCHMARK.json``.  Human-readable
lines come first; the last line of standard output is one JSON object.

``--selfcheck`` instead runs the query list once in each of two fresh
processes and checks that every query's kernel counters (nodes, ITE and
op-cache hits and misses, clears, swaps, purges) are identical.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("construct_check", "adversarial_order", "synthesis_search", "explicit_small")
SETUPS = 9  # set-up is measured in this many fresh processes per run
TIMEOUT = 170  # seconds allowed to one worker process

# Nominal seconds of one untraced pass over each workload's query list on
# the reference machine (2 CPUs).  A run's pass count depends on --seconds
# and this figure alone, so both commits of a comparison time the same
# query sequence; on the reference machine a run measures about --seconds.
PASS_SECONDS = {
    "construct_check": 4.2,
    "adversarial_order": 0.95,
    "synthesis_search": 1.25,
    "explicit_small": 0.2,
}


class BenchmarkError(Exception):
    pass


def child_env():
    """The worker environment, and the names of the variables removed."""
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    env = {name: value for name, value in os.environ.items() if name not in cleared}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env, cleared


def spawn(arguments, env):
    """Run one worker to completion; returns ``(start, report)`` where
    ``start`` is the monotonic clock just before the process was started."""
    start = time.perf_counter()
    try:
        process = subprocess.run(
            [sys.executable, WORKER] + arguments,
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded {TIMEOUT} s") from None
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {process.returncode}")
    return start, json.loads(lines[-1])


def passes_for(workload, seconds):
    return max(2, round(seconds / PASS_SECONDS[workload]))


def selfcheck(args, env):
    common = ["--workload", args.workload, "--seed", str(args.seed), "--mode", "count"]
    _, first = spawn(common, env)
    _, second = spawn(common, env)
    same = first["kernel"] == second["kernel"] and first["digest"] == second["digest"]
    for label, a, b in zip(first["labels"], first["kernel"], second["kernel"]):
        print(f"{'same' if a == b else 'DIFF'}  {label}: {a}" + ("" if a == b else f" vs {b}"))
    print(json.dumps({"deterministic": same, "queries": first["queries"]}))
    return 0 if same else 1


def main():
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("no library source under src/repro: run from a repository checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    env, cleared = child_env()
    if cleared:
        print(f"cleared from the environment: {', '.join(cleared)}", file=sys.stderr)
    if args.selfcheck:
        return selfcheck(args, env)

    setup_args = ["--workload", args.workload, "--seed", str(args.seed), "--mode", "setup"]
    setups = []
    for _ in range(SETUPS - 1):
        start, report = spawn(setup_args, env)
        setups.append(report["ready"] - start)
    passes = passes_for(args.workload, args.seconds)
    spans_out = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    start, report = spawn(
        ["--workload", args.workload, "--seed", str(args.seed), "--mode", "run",
         "--passes", str(passes), "--trace", str(args.trace), "--spans-out", spans_out],
        env,
    )
    setups.append(report["ready"] - start)
    report["setup_s"] = statistics.median(setups)

    print(f"workload {args.workload}, seed {args.seed}: {report['queries']} queries per pass, "
          f"closed loop, one client; inputs sha256 {report['digest']}")
    print(f"attempted {report['attempted']}, failed {report['failed']} "
          f"(failed_frac {report['failed_frac']:.4f}), kernel counters deterministic: "
          f"{report['deterministic']}")
    if not args.trace and "query_tail_pct" in report:
        print(f"query_tail_s is p{report['query_tail_pct']} of {report['samples']} samples "
              f"({report['query_tail_beyond']} beyond it)")
    print(f"bdd_nodes_per_query {report['bdd_nodes_per_query']:.1f}, "
          f"bdd_ops_per_query {report['bdd_ops_per_query']:.1f}")

    wanted = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = report.get(metric["name"])
        if value is None:
            raise BenchmarkError(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<28} {value:>14.6g} {metric['unit']}")
    correct = report["failed"] == 0 and report["deterministic"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        sys.exit(1)
