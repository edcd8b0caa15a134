"""Regenerate ``synthesis_pool.json``, the pinned inputs of ``synthesis_search``.

The ``synthesis_search`` workload times implementation search on specs
produced by :func:`repro.spec.fuzz.random_spec`.  Only specs whose
candidate universe (the liberal-reachable states outside the initial set)
has between 4 and 12 free states are useful: below that the search is
trivial, above it a single query takes seconds.  Such specs are rare
(about one in nine), so this script scans generator seeds once, sorts the
survivors into one bucket per free-state count, times the search on up to
``EXAMINED_PER_BUCKET`` of them, and keeps the ``PER_BUCKET`` specs
closest in search time and in BDD nodes allocated.  Run it on an otherwise
idle machine: the timings choose the specs.  The benchmark seed then picks
one spec per bucket, so two seeds time different specs of the same size
class and about the same cost and memory.

Each kept spec is stored with its ``to_kbp()`` text, the generator seed and
index that produced it, the SHA-256 of the text, and its verdict: the
classification, the reachable-set sizes and a digest of the reachable sets
of every implementation.  Verdicts come from the explicit lowering
(``variable_context`` plus the explicit search over the explicitly
computed liberal universe), so they are independent of the symbolic code
the benchmark times; the symbolic search must agree with them.  A spec
whose explicit search does not finish within ``EXPLICIT_DEADLINE`` seconds
is not kept.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_pool.py
"""

import gc
import hashlib
import json
import random
import statistics
import sys
import time
from itertools import combinations

from workloads import POOL_PATH, reachable_digest

MIN_FREE, MAX_FREE = 4, 12
SEEDS = 40  # generator seeds scanned
SPECS_PER_SEED = 1000
PER_BUCKET = 3  # specs kept per free-state count
EXAMINED_PER_BUCKET = 60  # specs timed per free-state count
EXPLICIT_DEADLINE = 120.0  # seconds allowed to one explicit search


def verdict_of(result):
    return {
        "classification": result.classification,
        "sizes": sorted(len(states) for states in result.reachable_sets()),
        "digest": reachable_digest(result),
    }


def free_count(spec):
    from repro.interpretation.symbolic import SymbolicSynthesisOps

    return SymbolicSynthesisOps(spec.program(), spec.symbolic_model()).free_count()


def symbolic_search(text):
    """Search one spec text; returns the result and the nodes it allocated."""
    from repro.interpretation import enumerate_implementations
    from repro.spec import parse_spec

    spec = parse_spec(text, source="<pool>")
    model = spec.symbolic_model()
    result = enumerate_implementations(spec.program(), model, max_free_states=MAX_FREE)
    return result, model.encoding.bdd.cache_info()["unique.nodes"]


def timed_search(text, repeats=3):
    """``(median seconds, nodes, result)`` of ``repeats`` searches."""
    costs = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        result, nodes = symbolic_search(text)
        costs.append(time.perf_counter() - start)
    return statistics.median(costs), nodes, result


def spread(members):
    """The larger of the members' max/min ratios of search time and nodes."""
    return max(
        max(m[axis] for m in members) / min(m[axis] for m in members)
        for axis in (0, 1)
    )


def explicit_verdict(text):
    """The verdict of the explicit lowering, or ``None`` if its search does
    not finish within ``EXPLICIT_DEADLINE`` seconds."""
    from repro import resilience
    from repro.interpretation import enumerate_implementations, liberal_protocol
    from repro.spec import parse_spec
    from repro.systems import represent
    from repro.util.errors import BudgetExceededError

    spec = parse_spec(text, source="<pool>")
    context = spec.variable_context()
    program = spec.program().check_against_context(context)
    universe = represent(context, liberal_protocol(program, context)).states
    try:
        with resilience.Budget(wall_seconds=EXPLICIT_DEADLINE):
            return verdict_of(enumerate_implementations(
                program, context, all_states=universe, max_free_states=MAX_FREE
            ))
    except BudgetExceededError:
        return None


def choose(work):
    """The ``PER_BUCKET`` specs of ``work`` closest in search time and nodes
    among those whose explicit search finishes, each with its verdict."""
    work = list(work)
    while work:
        window = min(combinations(work, min(PER_BUCKET, len(work))), key=spread)
        verdicts = [explicit_verdict(member[4]) for member in window]
        unfinished = [m for m, v in zip(window, verdicts) if v is None]
        if not unfinished:
            return list(zip(window, verdicts))
        work = [m for m in work if m not in unfinished]
    return []


def main():
    from repro.spec.fuzz import random_spec

    buckets = {k: [] for k in range(MIN_FREE, MAX_FREE + 1)}
    for seed in range(SEEDS):
        rng = random.Random(seed)
        for index in range(SPECS_PER_SEED):
            spec = random_spec(rng, name=f"pool-{seed}-{index}")
            try:
                k = free_count(spec)
            except Exception:  # constructions may legitimately fail
                continue
            if k in buckets:
                buckets[k].append((seed, index, spec.to_kbp()))
    print({k: len(v) for k, v in buckets.items()}, file=sys.stderr)

    pool = {}
    for k, members in buckets.items():
        # Time tracks the load a spec puts on the program, nodes its memory.
        work = []
        for seed, index, text in members[:EXAMINED_PER_BUCKET]:
            cost, nodes, result = timed_search(text)
            work.append((cost, nodes, seed, index, text, result))
        chosen = []
        for (cost, nodes, seed, index, text, result), verdict in sorted(
            choose(work), key=lambda pair: pair[0][2:4]
        ):
            if verdict_of(result) != verdict:
                raise SystemExit(f"lowerings disagree on seed {seed} index {index}")
            chosen.append(
                {
                    "generator_seed": seed,
                    "generator_index": index,
                    "free_states": k,
                    "sha256": hashlib.sha256(text.encode()).hexdigest(),
                    "search_seconds": round(cost, 4),
                    "nodes": nodes,
                    "verdict": verdict,
                    "text": text,
                }
            )
            print(k, seed, index, nodes, round(cost, 4), verdict["classification"], file=sys.stderr)
        pool[str(k)] = chosen

    document = {
        "generator": "repro.spec.fuzz.random_spec(random.Random(generator_seed)), "
        "the generator_index-th spec drawn",
        "free_states_range": [MIN_FREE, MAX_FREE],
        "buckets": pool,
    }
    with open(POOL_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
