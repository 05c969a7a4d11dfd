"""Seeded random automata for the acceptance suite, and enumerating oracles.

The span-automaton generator rejects draws whose word or run counts up
to the probe length would make exhaustive checking slow; everything else
about the draw is uniform within the stated bounds.  The oracles decide
unique lifting and unique factorization of runs by enumerating words up
to a length, independently of the structural checks in ``automata``, and
count the factorizations of a simulation by trying every function from
target states to candidate states, independently of ``factor_det`` and
``factor_mdet``.  ``row_walk_verdict`` decides naturality squares from
count rows at every strength, the yardstick for the support masks that
decide strict and lax squares.  ``odd_names_example`` is a fixed
automaton whose node names hold the characters of expansion labels.
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
    matrix_compose,
    subsets_of,
    to_matrix,
)
from spanauto.automata import BaseGraph, DetAutomaton, SpanAutomaton, _lifts, enumerate_words
from spanauto.determinize import ClassicalNFA, ExpandedMachine, subset_state_label
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
            for dst, count in sorted(rows.get(src, ()), key=lambda p: dst_order(p[0]))
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
# enumerating oracles for the structural lifting checks


def enumerated_unique_lift(a, max_len: int) -> bool:
    """Every word up to ``max_len`` from every state of a table automaton lifts to exactly one run."""
    for n in a.base.nodes:
        words = enumerate_words(a.base, n, max_len)
        for q in a.fibers[n]:
            for w in words:
                at = q
                lifts = 1
                for e in w.path(a.base):
                    table = a.transitions.get(e.id, {})
                    if at not in table:
                        lifts = 0
                        break
                    at = table[at]
                if lifts != 1:
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


# ---------------------------------------------------------------------------
# enumerating oracles for the uniqueness of a factorization


def membership_relation(power_fiber: FinSet, fiber: FinSet, node: str, multi: bool) -> Relation:
    """The full membership relation ``{(S, q) : q in S}`` over every subset of a fiber."""
    return Relation(
        power_fiber,
        fiber,
        {(subset_state_label(node, s, multi), q) for s in subsets_of(fiber) for q in s},
    )


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
            if compose_relations(components[n], eps) != rel_alpha.components[n]:
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
    from spanauto.simulation import _component_rows, _square, _square_rows

    partial = isinstance(sim.target, ExpandedMachine)
    holds = _ROW_HOLDS[mode]
    comps = {n: _component_rows(sim.components[n]) for n in sim.source.base.nodes}
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
