"""Seeded random automata for the acceptance suite, and enumerating oracles.

The span-automaton generator rejects draws whose word or run counts up
to the probe length would make exhaustive checking slow; everything else
about the draw is uniform within the stated bounds.  The oracles decide
unique lifting and unique factorization of runs by enumerating words up
to a length, independently of the structural checks in ``automata``
(``lifts_uniquely`` and ``factors_uniquely`` state the theorems that tie
the two together), and count the factorizations of a simulation by
trying every function from target states to candidate states,
independently of ``factor_det`` and ``factor_mdet``;
``full_powerset_bisim`` gives ``factor_det``'s verdicts from the full
powerset machine, on draws such as ``random_closure_simulation`` and
``chain_into_singletons``; ``nth_letter_from_end`` is the automaton
whose pruned powerset machine reaches 2^n subsets.  ``row_walk_verdict`` decides naturality squares from
count rows at every strength, the yardstick for the support masks that
decide strict and lax squares.  ``odd_names_example`` is a fixed
automaton whose node names hold the characters of expansion labels.
``reference_entries`` and ``reference_table`` read a document's entry
lists entry by entry, as the loader did before its one-pass paths: the
oracle for the order of the counts and tables it loads, and for the
first fault it words.

The per-word oracles evaluate one word independently of the count rows
that ``automata.count_paths`` and the language sweep step:
``brute_force_paths`` walks tokens, and ``run_word_span`` multiplies
counting matrices.  ``span_automaton_of_rel`` and ``to_det_automaton``
reread a relational automaton as the other kinds, and ``powerset_table``
tabulates a ``PowersetMap``.
"""

import itertools
import random
from typing import Mapping

from spanauto.spans import (
    FinSet,
    NatMatrix,
    Relation,
    Span,
    Token,
    compose_relations,
    from_relation,
    identity_matrix,
    image,
    matrix_compose,
    powerset_map,
    subsets_of,
    to_matrix,
)
from spanauto.automata import (
    BaseGraph,
    DetAutomaton,
    Edge,
    RelAutomaton,
    SpanAutomaton,
    Word,
    enumerate_words,
    is_deterministic,
    validate,
)
from spanauto.determinize import ClassicalNFA, ExpandedMachine, det, subset_state_label
from spanauto.io import DocumentError
from spanauto.simulation import CheckResult, Simulation, check_bisimulation

LETTERS = "abc"


def random_classical_nfa(rng: random.Random, max_states: int = 5, max_letters: int = 3) -> ClassicalNFA:
    n = rng.randint(1, max_states)
    states = FinSet("Q", [str(i + 1) for i in range(n)])
    alphabet = list(LETTERS[: rng.randint(1, max_letters)])
    delta = {}
    for q in states:
        for a in alphabet:
            targets = {t for t in states if rng.random() < 0.3}
            if targets:
                delta[(q, a)] = targets
    initial = rng.choice(states.elements)
    finals = {q for q in states if rng.random() < 0.35}
    return ClassicalNFA(alphabet, states, delta, initial, finals)


def _draw_span_automaton(rng: random.Random, max_nodes: int, max_states: int,
                         max_edges_per_pair: int, max_mult: int) -> SpanAutomaton:
    n_nodes = rng.randint(1, max_nodes)
    nodes = [f"n{i}" for i in range(n_nodes)]
    edges = []
    for src in nodes:
        for dst in nodes:
            k = rng.choices(range(max_edges_per_pair + 1), weights=[50, 32, 13, 5][: max_edges_per_pair + 1])[0]
            for j in range(k):
                edges.append((f"e{len(edges)}", LETTERS[j], src, dst))
    base = BaseGraph(nodes, edges)
    fibers = {}
    for i, node in enumerate(nodes):
        size = rng.randint(1 if i == 0 else 0, max_states)
        fibers[node] = FinSet(f"Q{i}", [f"q{i}.{j}" for j in range(size)])
    spans = {}
    for e in base.edges:
        density = rng.uniform(0.15, 0.5)
        apex = []
        for q in fibers[e.src]:
            for t in fibers[e.dst]:
                if rng.random() < density:
                    mult = 1 + (rng.random() < 0.25) * (max_mult - 1)
                    for m in range(int(mult)):
                        apex.append(Token(f"{e.id}:{q}>{t}#{m}", q, t))
        spans[e.id] = Span(fibers[e.src], fibers[e.dst], apex)
    initial = rng.choice(fibers[nodes[0]].elements)
    all_states = [q for node in nodes for q in fibers[node]]
    finals = {q for q in all_states if rng.random() < 0.35}
    if not finals and all_states:
        finals = {rng.choice(all_states)}
    return SpanAutomaton(base, fibers, spans, initial, finals)


def _probe(a: SpanAutomaton, max_len: int, word_cap: int, path_cap: int):
    """Count words from the initial node and runs from the initial state."""
    words = 0
    paths = 0
    frontier = [(a.initial_node, {a.initial: 1})]
    for _ in range(max_len + 1):
        nxt = []
        for node, vec in frontier:
            words += 1
            paths += sum(vec.values())
            if words > word_cap or paths > path_cap:
                return None
        for node, vec in frontier:
            for e in a.base.out_edges(node):
                matrix = a.matrix(e.id)
                out: dict[str, int] = {}
                for (q, t), c in matrix.entries.items():
                    if q in vec:
                        out[t] = out.get(t, 0) + vec[q] * c
                nxt.append((e.dst, out))
        frontier = nxt
    return words, paths


def random_span_automaton(rng: random.Random, max_nodes: int = 3, max_states: int = 4,
                          max_edges_per_pair: int = 3, max_mult: int = 2,
                          probe_len: int = 6, word_cap: int = 1500, path_cap: int = 8000) -> SpanAutomaton:
    while True:
        a = _draw_span_automaton(rng, max_nodes, max_states, max_edges_per_pair, max_mult)
        if _probe(a, probe_len, word_cap, path_cap) is not None:
            return a


def odd_names_example() -> SpanAutomaton:
    """Three nodes whose names hold ``:``, ``(`` and ``,``; fibers of widths 2, 1 and 0."""
    u, v, w = "u:(0,1)", "v(", "w:"
    base = BaseGraph([u, v, w], [("a", "a", u, v), ("b", "b", v, u), ("c", "c", v, v), ("d", "d", u, w)])
    fu, fv, fw = FinSet(u, ["1", "2"]), FinSet(v, ["3"]), FinSet(w, [])
    spans = {
        "a": Span(fu, fv, [Token("a1", "1", "3"), Token("a2", "1", "3"), Token("a3", "2", "3")]),
        "b": Span(fv, fu, [Token("b1", "3", "1")] + [Token(f"b{i}", "3", "2") for i in (2, 3, 4)]),
        "c": Span(fv, fv, [Token("c1", "3", "3")]),
        "d": Span(fu, fw, []),
    }
    return SpanAutomaton(base, {u: fu, v: fv, w: fw}, spans, "1", {"2", "3"})


_ODD_NAMES = ("a9", "a10", "B", "a", "x:1", "x:10", "b:", "10", "9", "a:b", "Z", "z", "a1", "a11", "A:", ":")


def random_odd_names_automaton(rng: random.Random, max_nodes: int, max_states: int) -> SpanAutomaton:
    """A span automaton whose state and node names sort apart from their list order.

    Each fiber holds up to ``max_states`` (at most 16) names such as
    ``a9``/``a10``, ``B``/``a`` and names with ``:``, shuffled, and
    prefixed by their node's name so fibers stay disjoint; node names may
    hold ``:`` too, and one holds a quote, a backslash and a non-ASCII
    letter, which JSON escapes in its states' labels.
    """
    nodes = rng.sample(['p"\\\u00e9', "q:r", "B", "a:"], rng.randint(1, max_nodes))
    edges = [(f"e{i}", f"l{i}", rng.choice(nodes), rng.choice(nodes)) for i in range(rng.randint(1, 2 * len(nodes)))]
    base = BaseGraph(nodes, edges)
    fibers = {}
    for i, n in enumerate(nodes):
        names = rng.sample(_ODD_NAMES, rng.randint(1 if i == 0 else 0, max_states))
        fibers[n] = FinSet(n, [f"{n}{x}" for x in names])
    spans = {}
    for e in base.edges:
        density = rng.uniform(0.05, 0.4)
        apex = [Token(f"{e.id}:{q}>{t}#{m}", q, t)
                for q in fibers[e.src] for t in fibers[e.dst] if rng.random() < density
                for m in range(rng.choice((1, 1, 2)))]
        spans[e.id] = Span(fibers[e.src], fibers[e.dst], apex)
    states = [q for n in nodes for q in fibers[n]]
    return SpanAutomaton(base, fibers, spans, rng.choice(fibers[nodes[0]].elements),
                         {q for q in states if rng.random() < 0.3})


def row_walk_entries(a) -> dict[str, list[dict]]:
    """Each edge's document entries read off its count rows, one dict per entry.

    Source states come in fiber order and a row's entries in target fiber
    order; states without a row write nothing, and only spans write
    counts.
    """
    counted = a.kind == "span"
    entries = {}
    for e in a.base.edges:
        rows = a.rows(e.id)
        dst_order = a.fibers[e.dst].index
        entries[e.id] = [
            {"from": src, "to": dst, "count": count} if counted else {"from": src, "to": dst}
            for src in a.fibers[e.src]
            for dst, count in sorted(rows.get(src, {}).items(), key=lambda p: dst_order(p[0]))
        ]
    return entries


def random_live_span_automaton(rng: random.Random, **kwargs) -> SpanAutomaton:
    """A ``random_span_automaton`` draw with runs, redrawn until one has them.

    The initial state must step along some out-edge, and a final state
    must be reachable from those steps.  Plain draws often accept no word
    at all, which leaves a language oracle little to compare.
    """
    while True:
        a = random_span_automaton(rng, **kwargs)
        successors: dict[str, set[str]] = {}
        for span in a.transitions.values():
            for t in span.apex:
                successors.setdefault(t.left, set()).add(t.right)
        reached = set(successors.get(a.initial, ()))
        frontier = list(reached)
        while frontier:
            for t in successors.get(frontier.pop(), ()):
                if t not in reached:
                    reached.add(t)
                    frontier.append(t)
        if reached & a.finals:
            return a


# ---------------------------------------------------------------------------
# per-word oracles and conversions

# Token walks refuse words longer than this; matrix products have no bound.
ORACLE_MAX_LEN = 12


def run_word_span(a: SpanAutomaton, w: Word) -> NatMatrix:
    """Path-counting matrix of a word: entry (q, q') counts runs q -> q' over it.

    The empty word gives the identity matrix on its fiber.
    """
    path = w.path(a.base)
    m = identity_matrix(a.fibers[w.start])
    for e in path:
        m = matrix_compose(m, a.matrix(e.id))
    return m


def matrix_count_paths(a: SpanAutomaton, w: Word) -> int:
    """Number of accepting runs over a word by matrix products (0 off the initial node)."""
    if w.start != a.initial_node:
        return 0
    m = run_word_span(a, w)
    return sum(m[a.initial, q] for q in a.finals if q in m.cod)


def brute_force_paths(a: SpanAutomaton, w: Word) -> list[tuple[str, ...]]:
    """Explicit accepting runs as token-label sequences.

    Independent of the matrix semantics: it walks tokens one edge at a
    time.  Only words up to ORACLE_MAX_LEN are enumerated.
    """
    if len(w) > ORACLE_MAX_LEN:
        raise ValueError(f"word of length {len(w)} exceeds the enumeration bound {ORACLE_MAX_LEN}")
    if w.start != a.initial_node:
        return []
    return [tokens for (q, tokens) in _lifts(a, a.initial, w.path(a.base)) if q in a.finals]


def _lifts(a: SpanAutomaton, from_state: str, path: list[Edge]) -> list[tuple[str, tuple[str, ...]]]:
    """Runs from a state along a path, token by token: (end state, token labels)."""
    runs: list[tuple[str, tuple[str, ...]]] = [(from_state, ())]
    for e in path:
        span = a.transitions[e.id]
        runs = [(t.right, seq + (t.label,)) for (q, seq) in runs for t in span.apex if t.left == q]
    return runs


def span_automaton_of_rel(a: RelAutomaton) -> SpanAutomaton:
    """Embed a relational automaton as a span automaton (one token per pair)."""
    return SpanAutomaton(
        a.base,
        a.fibers,
        {e.id: from_relation(a.transitions[e.id]) for e in a.base.edges},
        a.initial,
        a.finals,
    )


def to_det_automaton(a: RelAutomaton) -> DetAutomaton:
    """Reread a functional relational automaton as a deterministic one."""
    if not is_deterministic(a):
        raise ValueError("automaton is not deterministic")
    tables = {}
    for e in a.base.edges:
        rel = a.transitions[e.id]
        tables[e.id] = {q: next(iter(rel(q))) for q in a.fibers[e.src]}
    return DetAutomaton(a.base, a.fibers, tables, a.initial, a.finals)


def powerset_table(r: Relation) -> dict[frozenset[str], frozenset[str]]:
    """A relation's ``PowersetMap`` tabulated over every subset of its domain."""
    image_of = powerset_map(r)
    return {s: image_of(s) for s in subsets_of(r.dom)}


# ---------------------------------------------------------------------------
# enumerating oracles for the structural lifting checks


def _lift_count(a, q: str, path: list[Edge]) -> int:
    """Runs from a state along a path: tokens of a span automaton, steps of a function table."""
    if a.kind == "span":
        return len(_lifts(a, q, path))
    for e in path:
        table = a.transitions.get(e.id, {})
        if q not in table:
            return 0
        q = table[q]
    return 1


def enumerated_unique_lift(a, max_len: int) -> bool:
    """Every word up to ``max_len`` from every state of a span or table automaton lifts to exactly one run."""
    for n in a.base.nodes:
        words = enumerate_words(a.base, n, max_len)
        for q in a.fibers[n]:
            for w in words:
                if _lift_count(a, q, w.path(a.base)) != 1:
                    return False
    return True


def enumerated_ulf_factorization(a, max_len: int) -> bool:
    """Every run of a span automaton over w = u.v, |w| <= max_len, splits uniquely into runs over u and v."""
    for n in a.base.nodes:
        for w in enumerate_words(a.base, n, max_len):
            path = w.path(a.base)
            for q in a.fibers[n]:
                for _, run in _lifts(a, q, path):
                    for k in range(len(path) + 1):
                        u, v = path[:k], path[k:]
                        found = 0
                        for mid, beta in _lifts(a, q, u):
                            for _, gamma in _lifts(a, mid, v):
                                if beta + gamma == run:
                                    found += 1
                        if found != 1:
                            return False
    return True


def lifts_uniquely(a, max_len: int) -> bool:
    """Whether every word from every state lifts to exactly one run: ``is_deterministic(a)``.

    Over a free base category this is decided on generators: by induction
    on the word's length it holds exactly when every edge sends each state
    of its source fiber to one successor, with count 1.  So for
    ``max_len >= 1`` the enumeration up to ``max_len`` agrees, and this
    asserts that it does.
    """
    verdict = is_deterministic(a)
    assert verdict == enumerated_unique_lift(a, max_len), "unique lifting is not decided on generators"
    return verdict


def factors_uniquely(a, max_len: int) -> bool:
    """Whether every run over w = u.v splits uniquely into runs over u and v: ``not validate(a)``.

    A run is a sequence of transitions, each of which fixes its endpoint
    states, so the split after the k-th transition is the only split at k:
    on a well-formed automaton the property holds, and this asserts that
    the enumeration up to ``max_len`` finds it.  A malformed one has no
    runs to speak of; the enumeration walks tokens and cannot see a
    transition whose feet are not its endpoint fibers, so only ``validate``
    refuses it.
    """
    verdict = not validate(a)
    assert not verdict or enumerated_ulf_factorization(a, max_len), "a run of a well-formed automaton factors twice"
    return verdict


# ---------------------------------------------------------------------------
# enumerating oracles for the uniqueness of a factorization


def membership_relation(power_fiber: FinSet, fiber: FinSet, node: str, multi: bool) -> Relation:
    """The full membership relation ``{(S, q) : q in S}`` over every subset of a fiber."""
    return Relation(
        power_fiber,
        fiber,
        {(subset_state_label(node, s, multi), q) for s in subsets_of(fiber) for q in s},
    )


def full_powerset_bisim(alpha: Simulation) -> tuple[Simulation, bool, bool]:
    """The mate of alpha read against the full ``det(f)``, with its composite and bisimulation verdicts.

    Built independently of ``factor_det``: each target state x goes to
    the ``det(f)`` state of alpha's image of x, the composite is taken
    with the full membership relation, and ``check_bisimulation`` walks
    the mate's squares and its converse's at every subset of every fiber.
    Returns ``(mate, composite_ok, bisim_ok)``.
    """
    f, g = alpha.source, alpha.target
    d = det(f)
    multi = len(f.base.nodes) > 1
    components = {}
    composite_ok = True
    for n in f.base.nodes:
        row = image(alpha.components[n])
        components[n] = Relation(g.fibers[n], d.fibers[n],
                                 {(x, subset_state_label(n, row(x), multi)) for x in g.fibers[n]})
        eps = membership_relation(d.fibers[n], f.fibers[n], n, multi)
        composite_ok = composite_ok and compose_relations(components[n], eps) == row
    mate = Simulation(d, g, components, "strict")
    return mate, composite_ok, check_bisimulation(mate)


def random_closure_simulation(rng: random.Random, max_nodes: int = 3, max_states: int = 10) -> Simulation:
    """A strict membership simulation onto the closure of random subsets in ``det(f)``.

    ``f`` is a span automaton with fibers of up to ``max_states`` states.
    The target is the part of the full ``det(f)`` reached from up to three
    random subsets per node (at least one in all), its states renamed
    ``x0, x1, ...`` and its initial state drawn among them; each target
    state relates to the members of its subset.  Such a simulation is
    natural by construction, and its mate is a bisimulation exactly when
    no subset outside the closure steps into it.
    """
    f = _draw_span_automaton(rng, max_nodes, max_states, max_edges_per_pair=2, max_mult=2)
    d = det(f)
    multi = len(f.base.nodes) > 1
    members = {subset_state_label(n, s, multi): s for n in f.base.nodes for s in subsets_of(f.fibers[n])}
    seeds = [rng.choice(d.fibers[n].elements) for n in f.base.nodes for _ in range(rng.randint(0, 3))]
    reached = dict.fromkeys(seeds or [rng.choice(d.fibers[f.base.nodes[0]].elements)])
    work = list(reached)
    while work:
        s = work.pop()
        for e in d.base.out_edges(d.node_of(s)):
            t = d.transitions[e.id][s]
            if t not in reached:
                reached[t] = None
                work.append(t)
    name = {s: f"x{i}" for i, s in enumerate(reached)}
    fibers = {n: FinSet(f"G{i}", [name[s] for s in d.fibers[n] if s in name]) for i, n in enumerate(f.base.nodes)}
    tables = {e.id: {name[s]: name[t] for s, t in d.transitions[e.id].items() if s in name} for e in f.base.edges}
    g = DetAutomaton(f.base, fibers, tables, name[rng.choice(list(reached))], set())
    components = {n: Relation(g.fibers[n], f.fibers[n],
                              {(name[s], q) for s in d.fibers[n] if s in name for q in members[s]})
                  for n in f.base.nodes}
    return Simulation(f, g, components, "strict")


def chain_into_singletons(size: int) -> Simulation:
    """The chain q0 -> q1 -> ... onto a deterministic chain x0 -> x1 -> ... -> x_end -> x_end.

    Each x_i relates to {q_i} and x_end to the empty subset, so the
    simulation is strict and its mate's images are the singletons and {}.
    """
    base = BaseGraph(["n"], [("e", "e", "n", "n")])
    qs = [f"q{i:02d}" for i in range(size)]
    xs = [f"x{i:02d}" for i in range(size)] + ["x_end"]
    fq, gq = FinSet("Q", qs), FinSet("G", xs)
    steps = [Token(f"t{i}", q, t) for i, (q, t) in enumerate(zip(qs, qs[1:]))]
    f = SpanAutomaton(base, {"n": fq}, {"e": Span(fq, fq, steps)}, qs[0], {qs[-1]})
    g = DetAutomaton(base, {"n": gq}, {"e": {**dict(zip(xs, xs[1:])), "x_end": "x_end"}}, xs[0], set())
    return Simulation(f, g, {"n": Relation(gq, fq, set(zip(xs, qs)))}, "strict")


def nth_letter_from_end(n: int) -> SpanAutomaton:
    """The words over {a, b} whose n-th letter from the end is a: n + 1 states, 2^n reachable subsets."""
    q = FinSet("Q", [f"q{i:02d}" for i in range(n + 1)])
    base = BaseGraph(["s"], [("a", "a", "s", "s"), ("b", "b", "s", "s")])
    chain = [(f"q{i:02d}", f"q{i + 1:02d}") for i in range(1, n)]
    spans = {
        "a": Span(q, q, [Token(f"{x}>{y}", x, y) for x, y in [("q00", "q00"), ("q00", "q01"), *chain]]),
        "b": Span(q, q, [Token(f"{x}>{y}", x, y) for x, y in [("q00", "q00"), *chain]]),
    }
    return SpanAutomaton(base, {"s": q}, spans, "q00", {f"q{n:02d}"})


def enumerated_unique_det_factor(rel_alpha: Simulation, d: DetAutomaton, g: DetAutomaton) -> int:
    """Count function-component bisimulations through which alpha factors."""
    f = rel_alpha.source
    nodes = list(f.base.nodes)
    multi = len(nodes) > 1
    per_node_choices = []
    for n in nodes:
        subsets = [subset_state_label(n, s, multi) for s in subsets_of(f.fibers[n])]
        per_node_choices.append(list(itertools.product(subsets, repeat=len(g.fibers[n]))))
    count = 0
    for assignment in itertools.product(*per_node_choices):
        components = {}
        for n, choice in zip(nodes, assignment):
            components[n] = Relation(
                g.fibers[n], d.fibers[n], set(zip(g.fibers[n].elements, choice))
            )
        candidate = Simulation(d, g, components, "strict")
        ok = True
        for n in nodes:
            eps = membership_relation(d.fibers[n], f.fibers[n], n, multi)
            if compose_relations(components[n], eps) != image(rel_alpha.components[n]):
                ok = False
                break
        if ok and check_bisimulation(candidate):
            count += 1
    return count


def enumerated_unique_mdet_factor(alpha: Simulation, exp: ExpandedMachine, g: DetAutomaton,
                                  alpha_matrices: Mapping[str, NatMatrix], etas: Mapping[str, NatMatrix]) -> int:
    """Count function-component bisimulations factoring alpha through the expansion."""
    f = alpha.source
    nodes = list(f.base.nodes)
    per_node_choices = []
    for n in nodes:
        per_node_choices.append(list(itertools.product(exp.fibers[n].elements, repeat=len(g.fibers[n]))))
    count = 0
    for assignment in itertools.product(*per_node_choices):
        components = {}
        for n, choice in zip(nodes, assignment):
            apex = [Token(f"({x})", x, lbl) for x, lbl in zip(g.fibers[n].elements, choice)]
            components[n] = Span(g.fibers[n], exp.fibers[n], apex)
        candidate = Simulation(exp, g, components, "pseudo")
        ok = all(matrix_compose(to_matrix(components[n]), etas[n]) == alpha_matrices[n] for n in nodes)
        if ok and check_bisimulation(candidate):
            count += 1
    return count


# ---------------------------------------------------------------------------
# row-walk oracle for the naturality squares


_ROW_HOLDS = {
    "strict": lambda left, right: left.keys() == right.keys(),
    "pseudo": lambda left, right: left == right,
    "lax": lambda left, right: left.keys() <= right.keys(),
}


def row_walk_verdict(sim: Simulation, mode: str) -> CheckResult:
    """The naturality verdict from count rows alone, at every strength.

    Each square is walked row by row as ``simulation._square_rows`` gives
    it, and the strength only picks how two rows compare: strict wants
    equal key sets, lax wants the left keys inside the right ones, pseudo
    equal rows.  The first failing edge is reported with its differing
    entries, as the kernel reports them.
    """
    from spanauto.simulation import _square, _square_rows

    partial = isinstance(sim.target, ExpandedMachine)
    holds = _ROW_HOLDS[mode]
    comps = {n: to_matrix(sim.components[n])._by_row for n in sim.source.base.nodes}
    for e in sim.source.base.edges:
        square = _square(sim, e, comps, partial)
        if all(holds(left, right) for _, left, right in _square_rows(*square)):
            continue
        if mode == "strict":
            differences = tuple(sorted(
                (x, r, int(r in left), int(r in right))
                for x, left, right in _square_rows(*square)
                for r in left.keys() ^ right.keys()
            ))
            only_l = [(x, r) for x, r, lhs, _ in differences if lhs]
            only_r = [(x, r) for x, r, lhs, _ in differences if not lhs]
            detail = f"square at edge {e.id!r} differs: lhs-only {only_l}, rhs-only {only_r}"
        else:
            differences = tuple(sorted(
                (x, r, left.get(r, 0), right.get(r, 0))
                for x, left, right in _square_rows(*square)
                for r in left.keys() | right.keys()
                if left.get(r, 0) != right.get(r, 0)
            ))
            detail = f"square at edge {e.id!r}: multiplicities differ at {[(x, r) for x, r, _, _ in differences]}"
        return CheckResult(False, e.id, detail, differences=differences)
    return CheckResult(True)


# ---------------------------------------------------------------------------
# reference reader of document entry lists

_ENTRY_KEYS = frozenset(("from", "to", "count"))


def reference_entries(entries, at: str, src_fiber: FinSet, dst_fiber: FinSet, counted: bool,
                      src_noun: str = "state", dst_noun: str = "state") -> dict[tuple[str, str], int]:
    """A ``from``/``to``/``count`` entry list as counts ``{(from, to): count}`` in list order, entry by entry.

    The loader's reader as it read every list before its one-pass paths:
    each entry is checked in turn, and the first faulty one raises its
    ``DocumentError``.  A missing count is 1, a count is allowed only where
    ``counted`` is set, and each pair may appear once.
    """
    if not isinstance(entries, list):
        raise DocumentError(at, "expected a list of entries")
    counts: dict[tuple[str, str], int] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DocumentError(f"{at}[{i}]", "expected an object")
        src, dst = entry.get("from"), entry.get("to")
        if type(src) is not str or src not in src_fiber:
            raise DocumentError(f"{at}[{i}].from", f"unknown {src_noun} {src!r} in fiber {src_fiber.name!r}")
        if type(dst) is not str or dst not in dst_fiber:
            raise DocumentError(f"{at}[{i}].to", f"unknown {dst_noun} {dst!r} in fiber {dst_fiber.name!r}")
        count = 1 if len(entry) == 2 else entry.get("count")  # both keys were found: any other key is extra
        if not (len(entry) == 2 or counted and len(entry) == 3 and type(count) is int and count >= 1):
            if "count" in entry:
                if not counted:
                    raise DocumentError(f"{at}[{i}].count", "counts are only valid in span documents")
                if type(count) is not int or count < 1:
                    raise DocumentError(f"{at}[{i}].count", f"count must be a positive integer, got {count!r}")
            raise DocumentError(f"{at}[{i}]", f"unknown keys {sorted(entry.keys() - _ENTRY_KEYS)}")
        if (src, dst) in counts:
            raise DocumentError(f"{at}[{i}]", f"duplicate pair ({src!r}, {dst!r})")
        counts[src, dst] = count
    return counts


def reference_table(entries, at: str, src_fiber: FinSet, dst_fiber: FinSet) -> dict[str, str]:
    """A ``det`` transition list as its table ``{from: to}`` in list order, read by ``reference_entries``.

    After the entries, a state mapped twice is a fault, then a state of
    the source fiber without an image.
    """
    table: dict[str, str] = {}
    for src, dst in reference_entries(entries, at, src_fiber, dst_fiber, False):
        if src in table:
            raise DocumentError(at, f"state {src!r} mapped twice")
        table[src] = dst
    for q in src_fiber:
        if q not in table:
            raise DocumentError(at, f"missing image of state {q!r}")
    return table
