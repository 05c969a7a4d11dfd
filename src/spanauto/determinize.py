"""Two determinization pipelines plus the classical oracle.

The powerset pipeline replaces each fiber by its full powerset and each
transition by the direct-image function of its underlying relation.
Because fibers are per node, subset states never mix states of different
nodes, which already prunes everything a single global powerset would
invent across nodes.

The multiset pipeline keeps the path counts instead: each transition
becomes its counting matrix and the machine runs on multisets of states.
Its state space is infinite in general, so the machine is represented by
its matrices, with a bounded breadth-first expansion available when the
explicit shape is wanted.

``classical_subset_construction`` is the textbook single-alphabet subset
construction, implemented directly on the flat five-tuple so it can act
as an independent oracle for the categorical pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .spans import (
    FinSet,
    Multiset,
    Span,
    Token,
    image,
    multiset_extend,
    powerset_map,
    subset_label,
    subsets_of,
    to_matrix,
)
from .automata import (
    BaseGraph,
    DetAutomaton,
    MDetMachine,
    RelAutomaton,
    SpanAutomaton,
    Word,
)

__all__ = [
    "ClassicalNFA",
    "ExpandedMachine",
    "DEFAULT_POWERSET_CAP",
    "rel_of",
    "det",
    "det_span",
    "mdet",
    "mdet_run",
    "mdet_accept_count",
    "mdet_expand",
    "classical_subset_construction",
    "classical_base",
    "span_automaton_of_classical",
    "prune_reachable",
    "reachable_iso_check",
    "subset_state_label",
    "multiset_state_label",
    "expansion_state_label",
]

DEFAULT_POWERSET_CAP = 20


@dataclass(frozen=True)
class ClassicalNFA:
    """A flat five-tuple NFA over one alphabet.

    Kept separate from the fibered types on purpose: the subset
    construction on this shape is the independent yardstick the
    categorical pipeline is compared against.
    """

    alphabet: tuple[str, ...]
    states: FinSet
    delta: Mapping[tuple[str, str], frozenset[str]]
    initial: str
    finals: frozenset[str]

    def __init__(self, alphabet, states, delta, initial, finals):
        object.__setattr__(self, "alphabet", tuple(alphabet))
        object.__setattr__(self, "states", states)
        object.__setattr__(
            self, "delta", {k: frozenset(v) for k, v in delta.items() if v}
        )
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "finals", frozenset(finals))
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letters in the alphabet")
        if initial not in states:
            raise ValueError(f"initial state {initial!r} not a state")
        for q in self.finals:
            if q not in states:
                raise ValueError(f"final state {q!r} not a state")
        for (q, a), targets in self.delta.items():
            if q not in states or a not in self.alphabet:
                raise ValueError(f"delta key ({q!r}, {a!r}) out of range")
            for t in targets:
                if t not in states:
                    raise ValueError(f"delta target {t!r} not a state")

    def step(self, q: str, a: str) -> frozenset[str]:
        return self.delta.get((q, a), frozenset())


# ---------------------------------------------------------------------------
# powerset pipeline


def rel_of(a: SpanAutomaton) -> RelAutomaton:
    """Forget multiplicities: replace every transition span by its image."""
    return RelAutomaton(
        a.base,
        a.fibers,
        {e.id: image(a.transitions[e.id]) for e in a.base.edges},
        a.initial,
        a.finals,
    )


def subset_state_label(node: str, members, multi_node: bool) -> str:
    """Label of a determinized state; node-qualified when several fibers exist.

    Qualification keeps the per-node empty subsets apart, since fibers
    must not share state labels.
    """
    lbl = subset_label(members)
    return f"{node}:{lbl}" if multi_node else lbl


def det(a: RelAutomaton, powerset_cap: int = DEFAULT_POWERSET_CAP) -> DetAutomaton:
    """Powerset determinization, fiber by fiber.

    Every subset of every fiber becomes a state, including the empty one;
    use prune_reachable afterwards to keep only the reachable part.
    """
    for n in a.base.nodes:
        if len(a.fibers[n]) > powerset_cap:
            raise ValueError(
                f"fiber of {n!r} has {len(a.fibers[n])} states; refusing powerset above {powerset_cap}"
            )
    multi = len(a.base.nodes) > 1
    fibers = {
        n: FinSet(
            f"P({a.fibers[n].name})",
            [subset_state_label(n, s, multi) for s in subsets_of(a.fibers[n])],
        )
        for n in a.base.nodes
    }
    tables = {}
    for e in a.base.edges:
        step = powerset_map(a.transitions[e.id])
        tables[e.id] = {
            subset_state_label(e.src, s, multi): subset_state_label(e.dst, step(s), multi)
            for s in subsets_of(a.fibers[e.src])
        }
    finals = set()
    for n in a.base.nodes:
        for s in subsets_of(a.fibers[n]):
            if s & a.finals:
                finals.add(subset_state_label(n, s, multi))
    initial = subset_state_label(_node_of_state(a, a.initial), {a.initial}, multi)
    return DetAutomaton(a.base, fibers, tables, initial, finals)


def _node_of_state(a, state: str) -> str:
    for n in a.base.nodes:
        if state in a.fibers[n]:
            return n
    raise ValueError(f"state {state!r} lies in no fiber")


def det_span(a: SpanAutomaton, powerset_cap: int = DEFAULT_POWERSET_CAP) -> DetAutomaton:
    """Full powerset pipeline for span automata: image first, then det."""
    return det(rel_of(a), powerset_cap)


# ---------------------------------------------------------------------------
# multiset pipeline


def mdet(a: SpanAutomaton) -> MDetMachine:
    """Multiset determinization: transition matrices plus the unit start vector."""
    return MDetMachine(
        a.base,
        a.fibers,
        {e.id: to_matrix(a.transitions[e.id]) for e in a.base.edges},
        a.initial,
        a.finals,
    )


def mdet_run(m: MDetMachine, w: Word) -> Multiset:
    """Run a word: fold the edge matrices over the start vector.

    The result counts, per state, how many runs of the word from the
    initial state end there.
    """
    if w.start != m.initial_node:
        raise ValueError(f"word starts at {w.start!r}, not at the initial node {m.initial_node!r}")
    v = m.initial_vector
    for e in w.path(m.base):
        v = multiset_extend(m.matrices[e.id], v)
    return v


def mdet_accept_count(m: MDetMachine, w: Word) -> int:
    """Total number of accepting runs of a word."""
    if w.start != m.initial_node:
        return 0
    v = mdet_run(m, w)
    return sum(v[q] for q in m.finals if q in v.base)


def multiset_state_label(v: Multiset) -> str:
    """Canonical label of a multiset state: counts in fiber order."""
    return "(" + ",".join(str(n) for n in v.vector()) + ")"


def expansion_state_label(node: str, v: Multiset, multi_node: bool) -> str:
    """Label of an expanded machine state, node-qualified like subset states."""
    lbl = multiset_state_label(v)
    return f"{node}:{lbl}" if multi_node else lbl


@dataclass(frozen=True)
class ExpandedMachine:
    """A bounded explicit view of a multiset machine.

    States are the multisets discovered breadth first from the start
    vector (plus any extra seeds); transitions are recorded only from
    states whose successors were all discovered, so when ``truncated``
    is set the tables at the frontier are partial.
    """

    base: BaseGraph
    fibers: Mapping[str, FinSet]
    states: Mapping[str, Multiset]
    nodes_of_states: Mapping[str, str]
    transitions: Mapping[str, Mapping[str, str]]
    initial: str
    finals: frozenset[str]
    accept_counts: Mapping[str, int]
    truncated: bool

    def as_det_automaton(self) -> DetAutomaton:
        """The expansion as a deterministic automaton; total only when closed."""
        if self.truncated:
            raise ValueError("expansion was truncated; transitions are not total")
        return DetAutomaton(self.base, self.fibers, self.transitions, self.initial, self.finals)


def mdet_expand(
    m: MDetMachine,
    max_states: int,
    max_len: int,
    extra_seeds: Mapping[str, list[Multiset]] | None = None,
) -> ExpandedMachine:
    """Breadth-first closure of reachable multiset states, within bounds.

    Stops after ``max_len`` layers or once more than ``max_states`` states
    appear; hitting either bound just sets the truncation flag.  Frontier
    order is fixed by the canonical state labels, so the output is
    deterministic.
    """
    if max_states <= 0 or max_len < 0:
        raise ValueError("expansion bounds must be positive")
    accept = {}
    node_of: dict[str, str] = {}
    states: dict[str, Multiset] = {}
    per_node: dict[str, list[str]] = {n: [] for n in m.base.nodes}
    multi_node = len(m.base.nodes) > 1

    def label_of(node: str, v: Multiset) -> str:
        return expansion_state_label(node, v, multi_node)

    def discover(node: str, v: Multiset) -> str:
        lbl = label_of(node, v)
        if lbl not in states:
            states[lbl] = v
            node_of[lbl] = node
            per_node[node].append(lbl)
            accept[lbl] = sum(v[q] for q in m.finals if q in v.base)
        return lbl

    init_label = discover(m.initial_node, m.initial_vector)
    frontier = [init_label]
    if extra_seeds:
        for node, vs in extra_seeds.items():
            for v in vs:
                lbl = discover(node, v)
                if lbl not in frontier:
                    frontier.append(lbl)
    tables: dict[str, dict[str, str]] = {e.id: {} for e in m.base.edges}
    truncated = False
    depth = 0
    while frontier and depth < max_len:
        next_frontier: list[str] = []
        for lbl in sorted(frontier):
            node = node_of[lbl]
            v = states[lbl]
            for e in m.base.out_edges(node):
                target = multiset_extend(m.matrices[e.id], v)
                known = label_of(e.dst, target) in states
                if not known and len(states) >= max_states:
                    truncated = True
                    continue
                tgt_label = discover(e.dst, target)
                tables[e.id][lbl] = tgt_label
                if not known:
                    next_frontier.append(tgt_label)
        frontier = next_frontier
        depth += 1
    if any(m.base.out_edges(node_of[lbl]) for lbl in frontier):
        # states at the depth bound still had unexplored transitions
        truncated = True
    fibers = {n: FinSet(f"M({m.fibers[n].name})", per_node[n]) for n in m.base.nodes}
    finals = frozenset(lbl for lbl, c in accept.items() if c > 0)
    return ExpandedMachine(
        base=m.base,
        fibers=fibers,
        states=states,
        nodes_of_states=node_of,
        transitions=tables,
        initial=init_label,
        finals=finals,
        accept_counts=accept,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# classical oracle


def classical_base(alphabet, node: str = "s") -> BaseGraph:
    """Single-node base with one loop per letter."""
    return BaseGraph([node], [(a, a, node, node) for a in alphabet])


def span_automaton_of_classical(n: ClassicalNFA, node: str = "s") -> SpanAutomaton:
    """Read a flat NFA as a span automaton over the single-node base."""
    base = classical_base(n.alphabet, node)
    spans = {}
    for a in n.alphabet:
        apex = [
            Token(f"({q},{a},{t})", q, t)
            for q in n.states
            for t in sorted(n.step(q, a))
        ]
        spans[a] = Span(n.states, n.states, apex)
    return SpanAutomaton(base, {node: n.states}, spans, n.initial, n.finals)


def classical_subset_construction(n: ClassicalNFA, node: str = "s") -> DetAutomaton:
    """Textbook subset construction: powerset states, direct-image steps.

    Built directly from the five-tuple, without the span machinery, over
    the same single-node base shape as the categorical pipeline.
    """
    base = classical_base(n.alphabet, node)
    subsets = subsets_of(n.states)
    fiber = FinSet(f"P({n.states.name})", [subset_label(s) for s in subsets])
    tables = {}
    for a in n.alphabet:
        table = {}
        for s in subsets:
            targets: set[str] = set()
            for q in s:
                targets |= n.step(q, a)
            table[subset_label(s)] = subset_label(targets)
        tables[a] = table
    finals = {subset_label(s) for s in subsets if s & n.finals}
    return DetAutomaton(base, {node: fiber}, tables, subset_label({n.initial}), finals)


# ---------------------------------------------------------------------------
# pruning and comparison


def prune_reachable(d: DetAutomaton) -> DetAutomaton:
    """Restrict to states reachable from the initial state by any word."""
    node_of: dict[str, str] = {}
    for n in d.base.nodes:
        for q in d.fibers[n]:
            node_of[q] = n
    reached = {d.initial}
    frontier = [d.initial]
    while frontier:
        q = frontier.pop()
        for e in d.base.out_edges(node_of[q]):
            t = d.transitions[e.id][q]
            if t not in reached:
                reached.add(t)
                frontier.append(t)
    fibers = {
        n: FinSet(d.fibers[n].name, [q for q in d.fibers[n] if q in reached])
        for n in d.base.nodes
    }
    tables = {
        e.id: {q: t for q, t in d.transitions[e.id].items() if q in reached}
        for e in d.base.edges
    }
    return DetAutomaton(d.base, fibers, tables, d.initial, d.finals & reached)


def reachable_iso_check(d1: DetAutomaton, d2: DetAutomaton) -> Optional[dict[str, str]]:
    """Match the reachable parts of two deterministic automata.

    Returns the unique state bijection that respects edges (matched by
    source, target and label), the initial states and the final sets, or
    None when the machines differ.  Both inputs are pruned first.
    """
    if set(d1.base.nodes) != set(d2.base.nodes):
        return None
    edge_match: dict[str, str] = {}
    for e1 in d1.base.edges:
        candidates = [e2 for e2 in d2.base.edges if (e2.src, e2.dst, e2.label) == (e1.src, e1.dst, e1.label)]
        if len(candidates) != 1:
            return None
        edge_match[e1.id] = candidates[0].id
    if {(e.src, e.dst, e.label) for e in d1.base.edges} != {(e.src, e.dst, e.label) for e in d2.base.edges}:
        return None
    p1, p2 = prune_reachable(d1), prune_reachable(d2)
    node_of: dict[str, str] = {}
    for n in p1.base.nodes:
        for q in p1.fibers[n]:
            node_of[q] = n
    mapping: dict[str, str] = {p1.initial: p2.initial}
    frontier = [p1.initial]
    while frontier:
        q = frontier.pop()
        r = mapping[q]
        if (q in p1.finals) != (r in p2.finals):
            return None
        for e in p1.base.out_edges(node_of[q]):
            qt = p1.transitions[e.id][q]
            rt = p2.transitions[edge_match[e.id]][r]
            if qt in mapping:
                if mapping[qt] != rt:
                    return None
            else:
                mapping[qt] = rt
                frontier.append(qt)
    size1 = sum(len(p1.fibers[n]) for n in p1.base.nodes)
    size2 = sum(len(p2.fibers[n]) for n in p2.base.nodes)
    if size1 != size2 or len(set(mapping.values())) != len(mapping):
        return None
    return mapping
