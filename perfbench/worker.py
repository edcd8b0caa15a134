"""One benchmark process: set up, run whole passes over the query list, report.

``run.py`` starts this script in a fresh process for every run, with a
cleaned environment; it is not meant to be started by hand.  Modes:

``setup``
    import, generate the inputs, warm up, then report the moment the first
    timed query would start and exit (``run.py`` times several of these).
``run``
    set up as above, then time ``passes`` whole passes over the query list
    in a closed loop with one client: the next query starts when the
    previous verdict is checked.  ``gc.collect()`` runs between queries,
    outside the timed region.  With ``--trace 1`` untraced and traced
    passes alternate, and one last pass feeds the library's own obs
    counters into an ``AggregateSink``.
``count``
    one untraced pass; report each query's kernel counters (for the
    determinism self-check).

The last line of standard output is one JSON object.
"""

import argparse
import gc
import gzip
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402  (after the path set-up; imports the library)
import workloads  # noqa: E402


def tail(samples):
    """``(percentile, value, beyond)``: the highest whole percentile with at
    least ten samples beyond it (nearest rank), or ``None`` below 11
    samples."""
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in range(99, 0, -1):
        rank = math.ceil(percentile * count / 100)
        if rank >= 1 and count - rank >= 10:
            return percentile, ordered[rank - 1], count - rank
    return None


def run_query(query, managers):
    """Time one query; returns ``(seconds, outcome, stats, kernel)`` where
    outcome is ``"ok"``, ``"wrong"`` or ``"error"``."""
    stats = {}
    managers.open()
    start = time.perf_counter()
    try:
        stats = query.run() or {}
        outcome = "ok"
    except workloads.WrongVerdict as error:
        outcome = "wrong"
        print(f"wrong verdict: {query.label}: {error}", file=sys.stderr)
    except Exception:  # a raising query is a failure, not a crash
        outcome = "error"
        print(f"query raised: {query.label}\n{traceback.format_exc()}", file=sys.stderr)
    seconds = time.perf_counter() - start
    kernel = managers.close()
    return seconds, outcome, stats, kernel


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "count"), default="run")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    from repro import engine, obs
    from repro.obs.sinks import AggregateSink

    engine.set_default_backend("bitset")
    managers = layers.QueryManagers()
    queries, warmup, digest = workloads.build(args.workload, args.seed)
    for query in warmup:
        _, outcome, _, _ = run_query(query, managers)
        if outcome != "ok":
            raise SystemExit(f"warm-up query failed: {query.label}")
    gc.collect()
    ready = time.perf_counter()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return

    # Enough untraced passes for a tail percentile (at least 11 samples).
    least = math.ceil(11 / len(queries))
    plan = ["plain"] * (1 if args.mode == "count" else max(args.passes, least))
    if args.trace and args.mode == "run":
        plan = ["plain", "traced"] * max(args.passes // 2, least) + ["obs"]
    tracer = layers.Tracer(managers)
    layer_totals = {name: dict.fromkeys(("calls", "self_s", "ite_misses", "nodes"), 0)
                    for name in layers.LAYERS}
    kept_spans = []
    covered = 0.0
    samples = []  # (kind, pass, query index, seconds, outcome, stats, kernel)
    sink = AggregateSink()
    for pass_index, kind in enumerate(plan):
        if kind == "traced":
            tracer.install()
        elif kind == "obs":
            obs.add_sink(sink)
        try:
            for index, query in enumerate(queries):
                gc.collect()
                if kind == "traced":
                    tracer.begin_query(index)
                seconds, outcome, stats, kernel = run_query(query, managers)
                if kind == "traced":
                    table, query_covered = layers.layer_table(tracer.spans)
                    covered += query_covered
                    for name, figures in table.items():
                        for field, value in figures.items():
                            layer_totals[name][field] += value
                    if pass_index == 1:
                        kept_spans.append(list(tracer.spans))
                samples.append((kind, pass_index, index, seconds, outcome, stats, kernel))
        finally:
            if kind == "traced":
                tracer.uninstall()
            elif kind == "obs":
                obs.remove_sink(sink)

    if args.spans_out and kept_spans:
        os.makedirs(os.path.dirname(args.spans_out), exist_ok=True)
        with gzip.open(args.spans_out, "wt", encoding="utf-8", compresslevel=1) as handle:
            for query_spans in kept_spans:
                for span in query_spans:
                    handle.write(json.dumps(span) + "\n")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": digest,
        "queries": len(queries),
        "labels": [q.label for q in queries],
        "ready": ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.mode == "count":
        report["kernel"] = [
            [sample[4]] + [sample[6][key] for key in sorted(sample[6])] for sample in samples
        ]
        print(json.dumps(report))
        return

    report.update(summarise(samples, queries, layer_totals, covered, sink))
    print(json.dumps(report))


def summarise(samples, queries, layer_totals, covered, sink):
    plain = [s for s in samples if s[0] == "plain"]
    traced = [s for s in samples if s[0] == "traced"]
    timed = plain + traced
    # Every verdict after set-up counts, whichever pass produced it; the
    # timings come from the untraced passes only.
    attempted = len(samples)
    failed = sum(1 for s in samples if s[4] != "ok")
    times = [s[3] for s in plain if s[4] == "ok"]
    summary = {"attempted": attempted, "failed": failed, "failed_frac": failed / attempted}

    # Deterministic kernel counters: the same query must do exactly the same
    # kernel work in every timed pass, traced or not.
    per_query = {}
    deterministic = True
    for s in timed:
        if s[4] != "ok":
            continue
        key = tuple(sorted(s[6].items()))
        if per_query.setdefault(s[2], key) != key:
            deterministic = False
    summary["deterministic"] = deterministic
    first = [s for s in plain if s[1] == 0]
    count = len(first)
    summary["bdd_nodes_per_query"] = sum(s[6]["nodes"] for s in first) / count
    summary["bdd_ops_per_query"] = sum(s[6]["ite_misses"] + s[6]["op_misses"] for s in first) / count

    # Throughput is the median over passes of verified queries per second
    # of query time, so one disturbed pass does not move it.
    passes = {}
    for s in plain:
        verified, seconds = passes.get(s[1], (0, 0.0))
        passes[s[1]] = (verified + (s[4] == "ok"), seconds + s[3])
    if times:
        summary["queries_per_s"] = statistics.median(v / t for v, t in passes.values())
        summary["query_p50_s"] = statistics.median(times)
        found = tail(times)
        if found is not None:
            summary["query_tail_pct"], summary["query_tail_s"], summary["query_tail_beyond"] = found
        summary["samples"] = len(times)

    kernel = {key: sum(s[6][key] for s in first) for key in first[0][6]}
    summary["kernel.ite_hit_rate"] = _ratio(kernel["ite_hits"], kernel["ite_hits"] + kernel["ite_misses"])
    summary["kernel.op_hit_rate"] = _ratio(kernel["op_hits"], kernel["op_hits"] + kernel["op_misses"])
    summary["kernel.nodes_peak"] = max(s[6]["nodes_max"] for s in first)
    for key in ("cache_clears", "reorder_swaps", "gc_purged"):
        summary[f"kernel.{key}"] = kernel[key] / count
    candidates = sum(s[5].get("candidates", 0) for s in first)
    found_impls = sum(s[5].get("implementations", 0) for s in first)
    summary["synthesis.candidates"] = candidates / count
    summary["synthesis.yield"] = _ratio(found_impls, candidates)

    if traced:
        # Traced and untraced passes alternate one to one over the same list.
        traced_wall = sum(s[3] for s in traced)
        traced_queries = len(traced)
        for name, figures in layer_totals.items():
            summary[f"{name}.calls"] = figures["calls"] / traced_queries
            summary[f"{name}.self_s"] = figures["self_s"] / traced_queries
            summary[f"{name}.share"] = figures["self_s"] / traced_wall
            summary[f"{name}.ite_misses"] = figures["ite_misses"] / traced_queries
            summary[f"{name}.nodes"] = figures["nodes"] / traced_queries
        summary["unattributed.share"] = (traced_wall - covered) / traced_wall
        summary["trace.overhead"] = traced_wall / sum(s[3] for s in plain) - 1.0
        summary["construct.rounds"] = sink.events.get("construct.round", 0) / len(queries)
        summary["fixpoint.iterations"] = sink.counters.get("fixpoint.iterations", 0) / len(queries)
    return summary


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


if __name__ == "__main__":
    main()
