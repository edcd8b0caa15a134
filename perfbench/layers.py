"""Outside-in per-layer tracing and per-query kernel counters.

The benchmark does not rely on spans inside the library.  Instead it wraps
each layer's public entry points from the outside, for the traced passes
only, and restores the originals afterwards.  A wrapper records one span:
layer, entry point, parent span, start and end times, and the kernel
counter deltas read from the BDD managers the current query created.  Self
time and self kernel work are a span's own figures minus those of its
children, so the kernel work is charged to the layer that caused it.

Wrapping the attribute the caller actually resolves matters: a module that
did ``from x import f`` holds its own reference to ``f``.  Functions are
therefore replaced in *every* loaded module that holds them, and methods
are replaced on the class that defines them.  Whatever a wrapper still
misses shows up as ``unattributed`` time.
"""

import functools
import importlib
import sys
import time

from repro.obs import registry as _registry

# layer -> entry points, as (module, attribute) for functions and
# (module, class, method) for methods.
LAYERS = {
    "spec": [
        ("repro.spec.parser", "parse_spec"),
        ("repro.spec.library", "load_spec"),
        ("repro.spec.ir", "ProtocolSpec", "validate"),
        ("repro.spec.ir", "ProtocolSpec", "to_kbp"),
    ],
    "model.compile": [
        ("repro.spec.ir", "ProtocolSpec", "symbolic_model"),
        ("repro.spec.ir", "ProtocolSpec", "variable_context"),
        ("repro.symbolic.model", "compile_context"),
    ],
    "model.image": [
        ("repro.symbolic.model", "SymbolicContextModel", "successors"),
    ],
    "model.guards": [
        ("repro.symbolic.model", "SymbolicGuardTable", "class_values"),
        ("repro.symbolic.model", "SymbolicGuardTable", "enabled_sets"),
        ("repro.symbolic.model", "SymbolicStateSetView", "project"),
    ],
    "knowledge": [
        ("repro.symbolic.backend_bdd", "SymbolicBackend", name)
        for base in ("knows", "possible", "everyone_knows", "distributed_knows", "common_knows")
        for name in (base, base + "_many")
    ],
    "construct": [
        ("repro.interpretation.iteration", "construct_by_rounds"),
        ("repro.interpretation.iteration", "iterate_interpretation"),
        ("repro.interpretation.symbolic", "construct_by_rounds_symbolic"),
        ("repro.interpretation.symbolic", "iterate_interpretation_symbolic"),
    ],
    "ctlk": [
        ("repro.temporal.symbolic", "SymbolicCTLKModelChecker", "valid"),
        ("repro.temporal.symbolic", "SymbolicCTLKModelChecker", "reachable"),
        ("repro.temporal.symbolic", "SymbolicCTLKModelChecker", "extension_node"),
        ("repro.temporal.ctlk", "CTLKModelChecker", "valid"),
        ("repro.temporal.ctlk", "CTLKModelChecker", "reachable"),
    ],
    "synthesis": [
        ("repro.interpretation.synthesis", "enumerate_implementations"),
        ("repro.interpretation.synthesis", "check_implementation"),
    ],
    "reorder": [
        ("repro.symbolic.model", "SymbolicContextModel", "maybe_reorder"),
        ("repro.symbolic.bdd", "BDD", "reorder"),
    ],
    "engine": [
        ("repro.engine.evaluator", "Evaluator", name)
        for name in ("extension", "extensions", "extension_ws", "extensions_ws")
    ],
    "systems": [
        ("repro.systems.interpreted_system", "represent"),
    ],
}


# -- per-query kernel counters ---------------------------------------------------------


class QueryManagers:
    """Strong references to the BDD managers created during one query.

    The manager registry is weak: a manager the query dropped is gone by the
    time the query returns, and its work would vanish from the totals.
    Holding them here until :meth:`close` reads the counters while every
    manager of the query is still alive.
    """

    def __init__(self):
        self.managers = []
        self._readers = []
        self.active = False
        _registry.add_register_hook(self._register)

    def _register(self, manager):
        if self.active:
            self.managers.append(manager)
            self._readers.append(counter_reader(manager))

    def open(self):
        self.managers = []
        self._readers = []
        self.active = True

    def close(self):
        """Stop collecting; return the query's kernel totals and drop the
        references."""
        self.active = False
        totals = kernel_totals(self.managers)
        self.managers = []
        self._readers = []
        return totals

    def counters(self):
        """``(ite misses, op misses, nodes)`` summed over the query's managers
        so far — the cheap read taken at every span boundary."""
        ite = op = nodes = 0
        for read in self._readers:
            i, o, n = read()
            ite += i
            op += o
            nodes += n
        return ite, op, nodes


def _info_counters(info):
    return info["cache.ite.misses"], info["cache.op.misses"], info["unique.nodes"]


def counter_reader(manager):
    """A function returning ``(ite misses, op misses, nodes)`` of ``manager``.

    Building the ``cache_info()`` dict at every span boundary would dominate
    the cost of small spans, so where the kernel keeps these figures in the
    slots ``cache_info()`` reads, and the slots agree with it, the reader
    takes them directly.  A kernel laid out differently gets the
    ``cache_info()`` reader: slower, but still correct.
    """

    def slow():
        return _info_counters(manager.cache_info())

    try:
        def fast():
            return manager._ite_misses, manager._op_misses, len(manager._var) - 2

        if fast() == slow():
            return fast
    except (AttributeError, TypeError):
        pass
    return slow


def kernel_totals(managers):
    """Kernel accounting summed over ``managers`` through ``cache_info()``."""
    totals = {
        "managers": len(managers),
        "nodes": 0,
        "nodes_max": 0,
        "ite_hits": 0,
        "ite_misses": 0,
        "op_hits": 0,
        "op_misses": 0,
        "cache_clears": 0,
        "reorder_swaps": 0,
        "gc_purged": 0,
    }
    for manager in managers:
        info = manager.cache_info()
        totals["nodes"] += info["unique.nodes"]
        totals["nodes_max"] = max(totals["nodes_max"], info["unique.nodes"])
        totals["ite_hits"] += info["cache.ite.hits"]
        totals["ite_misses"] += info["cache.ite.misses"]
        totals["op_hits"] += info["cache.op.hits"]
        totals["op_misses"] += info["cache.op.misses"]
        totals["cache_clears"] += info["cache.clears"]
        totals["reorder_swaps"] += info["reorder.swaps"]
        totals["gc_purged"] += info["gc.purged"]
    return totals


# -- spans -------------------------------------------------------------------------------


class Tracer:
    """Installs and removes the layer wrappers and keeps the current query's
    spans.

    A span is the tuple ``(query, parent, layer, entry, start, end,
    ite_misses, op_misses, nodes)`` with inclusive kernel deltas; ``parent``
    is the index of the enclosing span in the same query, or -1.
    """

    def __init__(self, managers):
        self.managers = managers
        self.spans = []
        self.query = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)

    # -- installing ------------------------------------------------------------

    def install(self):
        for layer, entries in LAYERS.items():
            for entry in entries:
                module = importlib.import_module(entry[0])
                if len(entry) == 3:
                    owner = getattr(module, entry[1])
                    original = owner.__dict__[entry[2]]
                    name = f"{entry[1]}.{entry[2]}"
                    self._patch(owner, entry[2], original, self._wrap(original, layer, name))
                else:
                    original = getattr(module, entry[1])
                    wrapper = self._wrap(original, layer, entry[1])
                    for holder in list(sys.modules.values()):
                        namespace = getattr(holder, "__dict__", None)
                        if not namespace:
                            continue
                        for attribute, value in list(namespace.items()):
                            if value is original:
                                self._patch(holder, attribute, original, wrapper)

    def uninstall(self):
        for owner, attribute, original, _ in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    def _patch(self, owner, attribute, original, wrapper):
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original, wrapper))

    def _wrap(self, function, layer, name):
        spans = self.spans
        stack = self._stack
        read = self.managers.counters
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            ite0, op0, nodes0 = read()
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                ite1, op1, nodes1 = read()
                stack.pop()
                spans[index] = (
                    self.query, parent, layer, name, start, end,
                    ite1 - ite0, op1 - op0, nodes1 - nodes0,
                )

        return wrapper

    def begin_query(self, query_index):
        """Start a query's span list (parent indices are per query)."""
        self.query = query_index
        self._stack.clear()
        self.spans.clear()


def layer_table(spans):
    """Fold spans into per-layer totals.

    Returns ``(layers, covered)``: ``layers`` maps each layer to
    ``calls``/``self_s``/``ite_misses``/``nodes`` (self
    figures: a span's own minus its children's), and ``covered`` is the
    time under top-level spans, so that the query's time minus ``covered``
    is its unattributed time.
    """
    layers = {
        name: {"calls": 0, "self_s": 0.0, "ite_misses": 0, "nodes": 0}
        for name in LAYERS
    }
    child_time = [0.0] * len(spans)
    child_kernel = [[0, 0] for _ in spans]
    covered = 0.0
    for span in spans:
        parent = span[1]
        duration = span[5] - span[4]
        if parent < 0:
            covered += duration
        else:
            child_time[parent] += duration
            kernel = child_kernel[parent]
            kernel[0] += span[6]
            kernel[1] += span[8]
    for index, span in enumerate(spans):
        entry = layers[span[2]]
        entry["calls"] += 1
        entry["self_s"] += (span[5] - span[4]) - child_time[index]
        entry["ite_misses"] += span[6] - child_kernel[index][0]
        entry["nodes"] += span[8] - child_kernel[index][1]
    return layers, covered
