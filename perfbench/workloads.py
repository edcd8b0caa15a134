"""The benchmark's workloads: seeded query lists and their verdict oracles.

A query is what a user of the library does: take ``.kbp`` spec text and
parameters, parse and lower it, interpret the program, and check the
verdict.  Every query checks its verdict against an answer known
independently of the run (a counting argument, a protocol property, or a
verdict pinned in ``synthesis_pool.json``); a wrong verdict raises
:class:`WrongVerdict` and counts as a failure.

:func:`build` turns a workload name and a seed into the query list, the
warm-up queries and a digest of the inputs.  The seed only chooses among
inputs of the same size class (which child, pair or node a property talks
about, which pooled spec of a bucket, the query order), so two seeds load
the program alike and the figures of different seeds are comparable.
"""

import hashlib
import json
import os
import random

from repro.interpretation import (
    construct_by_rounds,
    enumerate_implementations,
    iterate_interpretation,
)
from repro.logic.formula import And, CommonKnows, Implies, Knows, Not, Or, Prop, conj, disj
from repro.spec import bundled_spec_path, parse_spec
from repro.temporal import AF, AG
from repro.temporal.ctlk import CTLKModelChecker

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "synthesis_pool.json")


class WrongVerdict(AssertionError):
    """A query finished but its verdict differs from the known answer."""


def expect(condition, what):
    if not condition:
        raise WrongVerdict(what)


class Query:
    """One closed-loop request: ``run()`` goes from spec text to a checked
    verdict and returns a dict of outcome counts (possibly empty)."""

    __slots__ = ("label", "run", "key")

    def __init__(self, label, run, key):
        self.label = label
        self.run = run
        self.key = key  # what the inputs digest covers

    def __repr__(self):
        return f"Query({self.label})"


def _spec_text(name):
    with open(bundled_spec_path(name), "r", encoding="utf-8") as handle:
        return handle.read()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _parse(text, source, **params):
    return parse_spec(text, params=params or None, source=source)


def _symbolic(text, source, variable_order=None, reorder=None, **params):
    spec = _parse(text, source, **params)
    model = spec.symbolic_model(variable_order=variable_order, reorder=reorder)
    return spec, model


def _constructed(spec, model):
    result = construct_by_rounds(spec.program().check_against_context(model), model)
    expect(result.verified is True, "construction not verified")
    return result


# -- construct_check and adversarial_order ---------------------------------------------


def muddy_query(text, n, child):
    """Muddy children: (2^n - 1)(n + 2) reachable states (each pattern with at
    least one muddy child runs n + 2 distinct rounds and runs never merge),
    everyone eventually answers, answering means knowing, and the father's
    announcement stays common knowledge."""

    def run():
        spec, model = _symbolic(text, "muddy_children.kbp", n=n)
        result = _constructed(spec, model)
        expect(result.system.state_count() == (2**n - 1) * (n + 2), "muddy state count")
        checker = CTLKModelChecker(result.system)
        group = tuple(f"child{i}" for i in range(n))
        said_any = disj([Prop(f"said{i}") for i in range(n)])
        muddy_any = disj([Prop(f"muddy{i}") for i in range(n)])
        agent, muddy = f"child{child}", Prop(f"muddy{child}")
        knows_status = Or((Knows(agent, muddy), Knows(agent, Not(muddy))))
        expect(checker.valid(AF(said_any)), "someone never answers")
        expect(checker.valid(AG(Implies(Prop(f"said{child}"), knows_status))), "said without knowing")
        expect(checker.valid(AG(CommonKnows(group, muddy_any))), "announcement not common knowledge")
        return {}

    return Query(f"muddy_children n={n} child={child}", run,
                 ("muddy_children", _sha(text), n, child))


def leader_query(text, n, node):
    """Leader election: (n + 1)(2^n - 1) reachable states, only the highest-id
    candidate ever announces, and the leader always ends up announcing."""

    def leader(i):
        return conj([Prop(f"cand{i}")] + [Not(Prop(f"cand{j}")) for j in range(i + 1, n)])

    def run():
        spec, model = _symbolic(text, "leader_election.kbp", n=n)
        result = _constructed(spec, model)
        expect(result.system.state_count() == (n + 1) * (2**n - 1), "leader state count")
        checker = CTLKModelChecker(result.system)
        safety = conj([Implies(Prop(f"led{i}"), leader(i)) for i in range(n)])
        expect(checker.valid(AG(safety)), "a non-leader announced")
        expect(checker.reachable(Prop(f"led{n - 1}")), "highest node never elected")
        expect(checker.valid(Implies(leader(node), AF(Prop(f"led{node}")))), "leader never announces")
        return {}

    return Query(f"leader_election n={n} node={node}", run,
                 ("leader_election", _sha(text), n, node))


def dining_query(text, n, payer, observer, blocked=False):
    """Dining cryptographers: (n + 1) 2^(n + 1) reachable states, the round
    completes, a paid dinner becomes common knowledge, and the payer stays
    anonymous.  ``blocked`` compiles under the adversarial blocked order
    with growth-triggered sifting armed."""

    def run():
        order = None
        if blocked:
            # dining_cryptographers.blocked_variable_order, spelled out so the
            # benchmark does not depend on the per-protocol wrapper modules.
            order = [f"say{i}" for i in range(n)] + [f"paid{i}" for i in range(n)]
            order += [f"coin{i}" for i in range(n)] + ["done"]
        spec, model = _symbolic(
            text, "dining_cryptographers.kbp", variable_order=order,
            reorder=True if blocked else None, n=n,
        )
        result = _constructed(spec, model)
        expect(result.system.state_count() == (n + 1) * 2 ** (n + 1), "dining state count")
        checker = CTLKModelChecker(result.system)
        group = tuple(f"crypto{i}" for i in range(n))
        someone = disj([Prop(f"paid{i}") for i in range(n)])
        done, paid = Prop("done"), Prop(f"paid{payer}")
        expect(checker.valid(AF(done)), "announcement round never completes")
        expect(checker.valid(AG(Implies(And((done, someone)), CommonKnows(group, someone)))),
               "paid dinner not common knowledge")
        expect(checker.valid(AG(Implies(And((done, paid)), Not(Knows(f"crypto{observer}", paid))))),
               "payer not anonymous")
        expect(checker.reachable(And((done, paid))), "payer cannot pay")
        return {}

    label = f"dining n={n} payer={payer} observer={observer}" + (" blocked" if blocked else "")
    return Query(label, run,
                 ("dining", _sha(text), n, payer, observer, blocked))


def attack_query(text, n):
    """Coordinated attack: 2^(n + 1) - 1 reachable states and the
    impossibility reading — the word chain only carries truth, nobody but
    the last general attacks, an attack means everyone was ready, and
    ``all_ready`` never becomes common knowledge."""

    def run():
        spec, model = _symbolic(text, "coordinated_attack.kbp", n=n)
        result = _constructed(spec, model)
        system = result.system
        expect(system.state_count() == 2 ** (n + 1) - 1, "attack state count")
        ready = [Prop(f"ready{i}") for i in range(n)]
        chain = conj([Implies(Prop(f"word{i}"), conj(ready[:i])) for i in range(1, n)])
        expect(system.holds_everywhere(chain), "word chain carries a falsehood")
        expect(system.holds_everywhere(conj([Not(Prop(f"attacked{i}")) for i in range(n - 1)])),
               "a general other than the last attacked")
        expect(system.holds_everywhere(Implies(Prop(f"attacked{n - 1}"), conj(ready))),
               "attack without everyone ready")
        checker = CTLKModelChecker(system)
        group = tuple(f"gen{i}" for i in range(n))
        expect(checker.valid(AG(Not(CommonKnows(group, conj(ready))))), "coordination reached")
        expect(checker.reachable(Prop(f"attacked{n - 1}")), "the last general never attacks")
        return {}

    return Query(f"coordinated_attack n={n}", run,
                 ("coordinated_attack", _sha(text), n))


def construct_check(rng):
    texts = {name: _spec_text(name) for name in
             ("muddy_children", "leader_election", "dining_cryptographers", "coordinated_attack")}
    queries = [muddy_query(texts["muddy_children"], n, rng.randrange(n)) for n in (12, 16, 20)]
    queries += [leader_query(texts["leader_election"], n, rng.randrange(n)) for n in (5, 6, 7)]
    for n in (8, 10):
        payer, observer = rng.sample(range(n), 2)
        queries.append(dining_query(texts["dining_cryptographers"], n, payer, observer))
    for n in (rng.choice((8, 9)), rng.choice((10, 11)), 12):
        queries.append(attack_query(texts["coordinated_attack"], n))
    warmup = [
        muddy_query(texts["muddy_children"], 4, 0),
        leader_query(texts["leader_election"], 3, 1),
        dining_query(texts["dining_cryptographers"], 4, 0, 1),
        attack_query(texts["coordinated_attack"], 3),
    ]
    return queries, warmup


def adversarial_order(rng):
    text = _spec_text("dining_cryptographers")
    queries = []
    for n in (6, 7, 8, 8, 9):
        payer, observer = rng.sample(range(n), 2)
        queries.append(dining_query(text, n, payer, observer, blocked=True))
    warmup = [dining_query(text, 5, 0, 1, blocked=True)]
    return queries, warmup


# -- synthesis_search -------------------------------------------------------------------


def reachable_digest(result):
    """Order-free digest of an implementation search result's reachable sets
    (``make_pool.py`` pins verdicts with it too)."""
    sets = sorted(
        repr(sorted(tuple(sorted(state.as_dict().items())) for state in states))
        for states in result.reachable_sets()
    )
    return hashlib.sha256("\n".join(sets).encode()).hexdigest()


def pooled_query(entry):
    """A generated spec from the pinned pool: the search must examine all
    2^k candidates and return the pinned classification, reachable-set
    sizes and reachable sets."""
    text = entry["text"]
    k = entry["free_states"]
    verdict = entry["verdict"]

    def run():
        spec = _parse(text, "<pool>")
        result = enumerate_implementations(spec.program(), spec.symbolic_model(), max_free_states=12)
        expect(result.candidates_checked == 2**k, "candidate count")
        expect(result.classification == verdict["classification"], "classification")
        sizes = sorted(len(states) for states in result.reachable_sets())
        expect(sizes == verdict["sizes"], "reachable-set sizes")
        expect(reachable_digest(result) == verdict["digest"], "reachable sets")
        return {"candidates": result.candidates_checked, "implementations": len(result)}

    label = f"generated k={k} seed={entry['generator_seed']} index={entry['generator_index']}"
    return Query(label, run, ("generated", entry["sha256"]))


def bit_transmission_search_query(text):
    """Bit transmission: a unique implementation with six reachable states,
    found among the 2^6 candidates of its liberal universe."""

    def run():
        spec = _parse(text, "bit_transmission.kbp")
        result = enumerate_implementations(spec.program(), spec.symbolic_model())
        expect(result.classification == "unique", "bit transmission classification")
        expect([len(s) for s in result.reachable_sets()] == [6], "bit transmission states")
        return {"candidates": result.candidates_checked, "implementations": len(result)}

    return Query("bit_transmission search", run, ("bt", _sha(text)))


# The variable-setting family (one blind agent, x in 0..3 starting at 0):
# classification and the reachable x-values of every implementation.
VARIABLE_SETTING = {
    "cyclic": ("multiple", [{0, 1}, {0, 2}]),
    "cycle_breaking": ("unique", [{0, 1, 2}]),
    "contradictory": ("contradictory", []),
    "self_fulfilling": ("multiple", [{0}, {0, 1}]),
    "speculative": ("unique", [{0, 1}]),
}


def variable_setting_query(text, name, symbolic):
    classification, values = VARIABLE_SETTING[name]

    def run():
        spec = _parse(text, "variable_setting.kbp")
        context = spec.symbolic_model() if symbolic else spec.variable_context()
        result = enumerate_implementations(spec.program(name), context)
        expect(result.classification == classification, f"{name} classification")
        found = sorted(sorted({state["x"] for state in states}) for states in result.reachable_sets())
        expect(found == sorted(sorted(v) for v in values), f"{name} reachable values")
        return {"candidates": result.candidates_checked, "implementations": len(result)}

    kind = "symbolic" if symbolic else "explicit"
    return Query(f"variable_setting {name} {kind}", run,
                 ("vs", _sha(text), name, symbolic))


def load_pool():
    with open(POOL_PATH, "r", encoding="utf-8") as handle:
        pool = json.load(handle)
    for entries in pool["buckets"].values():
        for entry in entries:
            if _sha(entry["text"]) != entry["sha256"]:
                raise SystemExit("synthesis_pool.json: a spec text does not match its hash")
    return pool


def synthesis_search(rng):
    from repro.interpretation.symbolic import SymbolicSynthesisOps

    pool = load_pool()
    low, high = pool["free_states_range"]
    queries = []
    for k in range(low, high + 1):
        entry = rng.choice(pool["buckets"][str(k)])
        # The filter is an input property read in set-up: the candidate
        # universe of every chosen spec must still have 2^k candidates.
        spec = _parse(entry["text"], "<pool>")
        free = SymbolicSynthesisOps(spec.program(), spec.symbolic_model()).free_count()
        if free != k:
            raise SystemExit(f"pooled spec changed size: {free} free states, pinned {k}")
        queries.append(pooled_query(entry))
    queries.append(bit_transmission_search_query(_spec_text("bit_transmission")))
    vs_text = _spec_text("variable_setting")
    queries += [variable_setting_query(vs_text, name, True) for name in sorted(VARIABLE_SETTING)]
    warmup = [
        pooled_query(pool["buckets"][str(low)][0]),
        variable_setting_query(vs_text, "cyclic", True),
    ]
    return queries, warmup


# -- explicit_small ---------------------------------------------------------------------


def _explicit(text, source, method, **params):
    spec = _parse(text, source, **params)
    context = spec.variable_context()
    program = spec.program().check_against_context(context)
    if method == "rounds":
        result = construct_by_rounds(program, context)
        expect(result.verified is True, "construction not verified")
    else:
        result = iterate_interpretation(program, context)
        expect(result.converged, "iteration did not converge")
    return result


def explicit_muddy_query(text, n, child):
    def run():
        result = _explicit(text, "muddy_children.kbp", "rounds", n=n)
        expect(len(result.system.states) == (2**n - 1) * (n + 2), "muddy state count")
        agent, muddy = f"child{child}", Prop(f"muddy{child}")
        knows_status = Or((Knows(agent, muddy), Knows(agent, Not(muddy))))
        expect(result.system.holds_everywhere(Implies(Prop(f"said{child}"), knows_status)),
               "said without knowing")
        return {}

    return Query(f"explicit muddy_children n={n} child={child}", run,
                 ("xmuddy", _sha(text), n, child))


# The six reachable states of the bit-transmission implementation, as the
# set of true propositions (FHMV's z0, z1, z3, z4, z5, z7).
BIT_TRANSMISSION_STATES = sorted(
    sorted(labels)
    for labels in (set(), {"snt"}, {"snt", "ack"}, {"sbit"}, {"sbit", "rbit", "snt"},
                   {"sbit", "rbit", "snt", "ack"})
)


def explicit_bit_transmission_query(text, method):
    def run():
        result = _explicit(text, "bit_transmission.kbp", method)
        states = sorted(
            sorted(name for name, value in state.as_dict().items() if value is True)
            for state in result.system.states
        )
        expect(states == BIT_TRANSMISSION_STATES, "bit transmission reachable states")
        checker = CTLKModelChecker(result.system)
        knows_bit = Or((Knows("R", Prop("sbit")), Knows("R", Not(Prop("sbit")))))
        expect(checker.reachable(knows_bit), "receiver never learns the bit")
        expect(checker.reachable(Knows("S", knows_bit)), "sender never learns that")
        expect(not checker.reachable(Knows("R", Knows("S", knows_bit))), "third level reached")
        return {}

    return Query(f"explicit bit_transmission {method}", run,
                 ("xbt", _sha(text), method))


def explicit_sequence_query(text, length):
    """Sequence transmission: 2^L (2L + 1) reachable states — every bit
    string times the progress pairs with sacked <= nrcvd <= sacked + 1."""

    def run():
        result = _explicit(text, "sequence_transmission.kbp", "iterate", length=length)
        states = result.system.states
        expect(len(states) == 2**length * (2 * length + 1), "sequence state count")
        expect(all(s["sacked"] <= s["nrcvd"] <= s["sacked"] + 1 for s in states),
               "acknowledged beyond received")
        return {}

    return Query(f"explicit sequence_transmission length={length}", run,
                 ("xst", _sha(text), length))


def explicit_exam_query(text, days):
    """Unexpected examination: d (d + 1) reachable states; a surprise exam
    can be written on every day but the last."""

    def run():
        result = _explicit(text, "unexpected_examination.kbp", "rounds", num_days=days)
        expect(len(result.system.states) == days * (days + 1), "exam state count")
        checker = CTLKModelChecker(result.system)
        for day in range(days):
            written = checker.reachable(And((Prop("written"), Prop(f"exam={day}"))))
            expect(written == (day < days - 1), f"surprise on day {day}")
        return {}

    return Query(f"explicit unexpected_examination days={days}", run,
                 ("xue", _sha(text), days))


def explicit_small(rng):
    texts = {name: _spec_text(name) for name in
             ("muddy_children", "bit_transmission", "sequence_transmission",
              "unexpected_examination", "variable_setting")}
    queries = [explicit_muddy_query(texts["muddy_children"], n, rng.randrange(n)) for n in (3, 4, 5)]
    queries += [explicit_bit_transmission_query(texts["bit_transmission"], m) for m in ("iterate", "rounds")]
    queries += [explicit_sequence_query(texts["sequence_transmission"], length) for length in (1, 2, 3)]
    queries += [explicit_exam_query(texts["unexpected_examination"], days) for days in (4, 5, 6, 7)]
    queries += [variable_setting_query(texts["variable_setting"], name, False)
                for name in sorted(VARIABLE_SETTING)]
    warmup = [
        explicit_muddy_query(texts["muddy_children"], 3, 0),
        explicit_bit_transmission_query(texts["bit_transmission"], "iterate"),
        explicit_sequence_query(texts["sequence_transmission"], 1),
        explicit_exam_query(texts["unexpected_examination"], 3),
        variable_setting_query(texts["variable_setting"], "cyclic", False),
    ]
    return queries, warmup


WORKLOADS = {
    "construct_check": construct_check,
    "adversarial_order": adversarial_order,
    "synthesis_search": synthesis_search,
    "explicit_small": explicit_small,
}


def build(workload, seed):
    """The seeded query list (in timed order), the warm-up queries and the
    hex digest of the inputs."""
    rng = random.Random(f"{workload}:{seed}")
    queries, warmup = WORKLOADS[workload](rng)
    rng.shuffle(queries)
    digest = hashlib.sha256(repr([q.key for q in queries]).encode()).hexdigest()
    return queries, warmup, digest
