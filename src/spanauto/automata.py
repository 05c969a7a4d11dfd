"""Automata as assignments of fibers and transitions over a finite base graph.

The base graph generates a free category: its morphisms are composable
edge sequences (``Word``).  An automaton lives over the base by giving
each node a finite fiber of states and each edge a morphism between the
endpoint fibers.  Three flavors share that shape:

* ``SpanAutomaton``: a span per edge; parallel tokens count distinct
  transitions, so a word has a number of accepting paths, not just a
  yes/no answer.
* ``RelAutomaton``: a relation per edge, the usual nondeterministic case.
* ``DetAutomaton``: a total function per edge, so every word from any
  state lifts to exactly one run.

``MDetMachine`` is the matrix form of a span automaton: one counting
matrix per edge, run by vector-matrix products.

``accepted_counts`` (and ``language`` on top of it) evaluates every word
up to a length in one prefix-shared sweep over the word tree: each prefix
carries its vector of exact run counts, and each child costs one sparse
vector-row step.  ``count_paths``, ``accepted``, ``run_word_span`` and
``brute_force_paths`` evaluate one word at a time and stay independent
of the sweep, so tests can use them as its oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .spans import (
    FinSet,
    Multiset,
    NatMatrix,
    Relation,
    Span,
    identity_matrix,
    matrix_compose,
    multiset_unit,
    to_matrix,
)

__all__ = [
    "BaseGraph",
    "Edge",
    "Word",
    "SpanAutomaton",
    "RelAutomaton",
    "DetAutomaton",
    "MDetMachine",
    "Automaton",
    "ORACLE_MAX_LEN",
    "validate",
    "enumerate_words",
    "run_word_span",
    "accepted",
    "language",
    "accepted_counts",
    "count_paths",
    "brute_force_paths",
    "unique_lift_check",
    "ulf_factorization_check",
    "is_deterministic",
    "to_det_automaton",
    "span_automaton_of_rel",
    "rel_automaton_of_det",
]

# Path enumeration refuses words longer than this; matrix semantics has no bound.
ORACLE_MAX_LEN = 12


class Edge:
    """A labeled directed edge of the base graph."""

    __slots__ = ("id", "label", "src", "dst")

    def __init__(self, id: str, label: str, src: str, dst: str):
        self.id = id
        self.label = label
        self.src = src
        self.dst = dst

    def __repr__(self):
        return f"Edge({self.id!r}, {self.label!r}, {self.src!r} -> {self.dst!r})"

    def __eq__(self, other):
        if not isinstance(other, Edge):
            return NotImplemented
        return (self.id, self.label, self.src, self.dst) == (other.id, other.label, other.src, other.dst)

    def __hash__(self):
        return hash((self.id, self.label, self.src, self.dst))


@dataclass(frozen=True)
class BaseGraph:
    """A finite directed multigraph; it generates the free base category."""

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __init__(self, nodes, edges):
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "edges", tuple(Edge(*e) if not isinstance(e, Edge) else e for e in edges))
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node ids")
        ids = set()
        by_pair: dict[tuple[str, str], set[str]] = {}
        for e in self.edges:
            if e.id in ids:
                raise ValueError(f"duplicate edge id {e.id!r}")
            ids.add(e.id)
            if e.src not in self.nodes or e.dst not in self.nodes:
                raise ValueError(f"edge {e.id!r} has an endpoint outside the node set")
            labels = by_pair.setdefault((e.src, e.dst), set())
            if e.label in labels:
                raise ValueError(f"edges from {e.src!r} to {e.dst!r} repeat label {e.label!r}")
            labels.add(e.label)

    def edge(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(edge_id)

    def out_edges(self, node: str) -> list[Edge]:
        return [e for e in self.edges if e.src == node]


@dataclass(frozen=True)
class Word:
    """A morphism of the free category: a composable edge-id sequence.

    The empty word needs an explicit start node to name an identity.
    """

    start: str
    edges: tuple[str, ...] = ()

    def __init__(self, start: str, edges=()):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "edges", tuple(edges))

    def __len__(self) -> int:
        return len(self.edges)

    def path(self, base: BaseGraph) -> list[Edge]:
        """Resolve edge ids against a base graph, checking composability."""
        if self.start not in base.nodes:
            raise ValueError(f"word starts at unknown node {self.start!r}")
        out = []
        at = self.start
        for eid in self.edges:
            e = base.edge(eid)
            if e.src != at:
                raise ValueError(f"word is not composable at edge {eid!r}: expected source {at!r}, got {e.src!r}")
            out.append(e)
            at = e.dst
        return out

    def end(self, base: BaseGraph) -> str:
        path = self.path(base)
        return path[-1].dst if path else self.start

    def extend(self, edge: Edge) -> "Word":
        return Word(self.start, self.edges + (edge.id,))

    def labels(self, base: BaseGraph) -> list[str]:
        return [e.label for e in self.path(base)]


def _check_fibers(base: BaseGraph, fibers: Mapping[str, FinSet]) -> list[str]:
    problems = []
    for n in base.nodes:
        if n not in fibers:
            problems.append(f"node {n!r} has no fiber")
    seen: dict[str, str] = {}
    for n in base.nodes:
        for q in fibers.get(n, ()):
            if q in seen:
                problems.append(f"state {q!r} appears in fibers of {seen[q]!r} and {n!r}")
            seen[q] = n
    return problems


class _FiberedAutomaton:
    """Shared plumbing for the three fibered automaton flavors."""

    base: BaseGraph
    fibers: Mapping[str, FinSet]
    initial: str
    finals: frozenset[str]

    def node_of(self, state: str) -> Optional[str]:
        for n in self.base.nodes:
            if state in self.fibers[n]:
                return n
        return None

    @property
    def initial_node(self) -> str:
        node = self.node_of(self.initial)
        if node is None:
            raise ValueError(f"initial state {self.initial!r} lies in no fiber")
        return node


@dataclass(frozen=True)
class SpanAutomaton(_FiberedAutomaton):
    base: BaseGraph
    fibers: Mapping[str, FinSet]
    transitions: Mapping[str, Span]
    initial: str
    finals: frozenset[str]

    def __init__(self, base, fibers, transitions, initial, finals):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fibers", dict(fibers))
        object.__setattr__(self, "transitions", dict(transitions))
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "finals", frozenset(finals))

    def matrix(self, edge_id: str) -> NatMatrix:
        return to_matrix(self.transitions[edge_id])


@dataclass(frozen=True)
class RelAutomaton(_FiberedAutomaton):
    base: BaseGraph
    fibers: Mapping[str, FinSet]
    transitions: Mapping[str, Relation]
    initial: str
    finals: frozenset[str]

    def __init__(self, base, fibers, transitions, initial, finals):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fibers", dict(fibers))
        object.__setattr__(self, "transitions", dict(transitions))
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "finals", frozenset(finals))


@dataclass(frozen=True)
class DetAutomaton(_FiberedAutomaton):
    """Deterministic flavor: transitions are total single-valued maps."""

    base: BaseGraph
    fibers: Mapping[str, FinSet]
    transitions: Mapping[str, Mapping[str, str]]
    initial: str
    finals: frozenset[str]

    def __init__(self, base, fibers, transitions, initial, finals):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fibers", dict(fibers))
        object.__setattr__(self, "transitions", {e: dict(m) for e, m in transitions.items()})
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "finals", frozenset(finals))


@dataclass(frozen=True)
class MDetMachine:
    """Matrix form of a span automaton: counting matrices run on multisets."""

    base: BaseGraph
    fibers: Mapping[str, FinSet]
    matrices: Mapping[str, NatMatrix]
    initial: str
    initial_vector: Multiset
    finals: frozenset[str]

    def __init__(self, base, fibers, matrices, initial, finals, initial_vector=None):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fibers", dict(fibers))
        object.__setattr__(self, "matrices", dict(matrices))
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "finals", frozenset(finals))
        if initial_vector is None:
            node = None
            for n in base.nodes:
                if initial in fibers[n]:
                    node = n
                    break
            if node is None:
                raise ValueError(f"initial state {initial!r} lies in no fiber")
            initial_vector = multiset_unit(dict(fibers)[node], initial)
        object.__setattr__(self, "initial_vector", initial_vector)

    @property
    def initial_node(self) -> str:
        for n in self.base.nodes:
            if self.initial in self.fibers[n]:
                return n
        raise ValueError(f"initial state {self.initial!r} lies in no fiber")


Automaton = Union[SpanAutomaton, RelAutomaton, DetAutomaton]


# ---------------------------------------------------------------------------
# validation


def validate(a) -> list[str]:
    """Collect invariant violations; an empty list means well formed."""
    problems = _check_fibers(a.base, a.fibers)
    state_nodes: dict[str, str] = {}
    for n in a.base.nodes:
        for q in a.fibers.get(n, ()):
            state_nodes.setdefault(q, n)
    if a.initial not in state_nodes:
        problems.append(f"initial state {a.initial!r} lies in no fiber")
    for q in sorted(a.finals):
        if q not in state_nodes:
            problems.append(f"final state {q!r} lies in no fiber")

    trans = a.matrices if isinstance(a, MDetMachine) else a.transitions
    for e in a.base.edges:
        if e.id not in trans:
            problems.append(f"edge {e.id!r} has no transition")
            continue
        t = trans[e.id]
        src_fiber = a.fibers.get(e.src)
        dst_fiber = a.fibers.get(e.dst)
        if src_fiber is None or dst_fiber is None:
            continue
        if isinstance(a, SpanAutomaton):
            if t.dom != src_fiber or t.cod != dst_fiber:
                problems.append(f"transition span of edge {e.id!r} does not match the endpoint fibers")
        elif isinstance(a, RelAutomaton):
            if t.dom != src_fiber or t.cod != dst_fiber:
                problems.append(f"transition relation of edge {e.id!r} does not match the endpoint fibers")
        elif isinstance(a, MDetMachine):
            if t.dom != src_fiber or t.cod != dst_fiber:
                problems.append(f"transition matrix of edge {e.id!r} does not match the endpoint fibers")
        else:
            for q in src_fiber:
                if q not in t:
                    problems.append(f"transition of edge {e.id!r} is not total: missing {q!r}")
            for q, target in t.items():
                if q not in src_fiber:
                    problems.append(f"transition of edge {e.id!r} maps foreign state {q!r}")
                elif target not in dst_fiber:
                    problems.append(f"transition of edge {e.id!r} sends {q!r} outside the target fiber")
    if isinstance(a, MDetMachine):
        node = state_nodes.get(a.initial)
        if node is not None and a.initial_vector != multiset_unit(a.fibers[node], a.initial):
            problems.append("initial vector is not the unit at the initial state")
    return problems


# ---------------------------------------------------------------------------
# words and runs


def enumerate_words(base: BaseGraph, from_node: str, max_len: int) -> list[Word]:
    """All words from a node up to a length, ordered by length then edge ids."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if from_node not in base.nodes:
        raise ValueError(f"unknown node {from_node!r}")
    out = [Word(from_node)]
    layer = [Word(from_node)]
    for _ in range(max_len):
        nxt = []
        for w in layer:
            at = w.end(base)
            for e in sorted(base.out_edges(at), key=lambda e: e.id):
                nxt.append(w.extend(e))
        layer = nxt
        out.extend(layer)
    return out


def run_word_span(a: SpanAutomaton, w: Word) -> NatMatrix:
    """Path-counting matrix of a word: entry (q, q') counts runs q -> q' over it.

    The empty word gives the identity matrix on its fiber.
    """
    path = w.path(a.base)
    m = identity_matrix(a.fibers[w.start])
    for e in path:
        m = matrix_compose(m, a.matrix(e.id))
    return m


def _run_subset(a: RelAutomaton, w: Word) -> frozenset[str]:
    path = w.path(a.base)
    current = frozenset([a.initial])
    for e in path:
        rel = a.transitions[e.id]
        current = frozenset(b for (x, b) in rel.pairs if x in current)
    return current


def _run_det(a: DetAutomaton, w: Word) -> str:
    path = w.path(a.base)
    q = a.initial
    for e in path:
        q = a.transitions[e.id][q]
    return q


def accepted(a: Automaton, w: Word) -> bool:
    """Whether a word is accepted: some run from the initial state ends final.

    Words based anywhere but the initial state's node are rejected.
    """
    if w.start != a.initial_node:
        return False
    if isinstance(a, SpanAutomaton):
        return count_paths(a, w) > 0
    if isinstance(a, RelAutomaton):
        return bool(_run_subset(a, w) & a.finals)
    if isinstance(a, DetAutomaton):
        return _run_det(a, w) in a.finals
    raise TypeError(f"unsupported automaton type {type(a).__name__}")


def language(a: Automaton, max_len: int) -> list[Word]:
    """Accepted words up to a length, in enumeration order."""
    return [w for w, _ in accepted_counts(a, max_len)]


def _successor_counts(a: Automaton) -> dict[str, dict[str, list[tuple[str, int]]]]:
    """Per edge, each state's successors with their numbers of transitions.

    Span automata count parallel tokens; relations and deterministic
    tables count 1 per pair.
    """
    if not isinstance(a, (SpanAutomaton, RelAutomaton, DetAutomaton)):
        raise TypeError(f"unsupported automaton type {type(a).__name__}")
    tables = {}
    for e in a.base.edges:
        t = a.transitions[e.id]
        if isinstance(a, SpanAutomaton):
            pairs = [(tok.left, tok.right) for tok in t.apex]
        else:
            pairs = t.pairs if isinstance(a, RelAutomaton) else t.items()
        counts: dict[tuple[str, str], int] = {}
        for pair in pairs:
            counts[pair] = counts.get(pair, 0) + 1
        rows: dict[str, list[tuple[str, int]]] = {}
        for (q, r), c in counts.items():
            rows.setdefault(q, []).append((r, c))
        tables[e.id] = rows
    return tables


def accepted_counts(a: Automaton, max_len: int) -> list[tuple[Word, int]]:
    """Accepted words up to a length, each with its number of accepting runs.

    Words come in ``enumerate_words`` order from the initial node.  One
    sweep over the word tree, a layer at a time, carries each prefix's
    vector of run counts; a child costs one sparse vector-row step.  A
    prefix with no runs is dropped: none of its extensions has one.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    steps = _successor_counts(a)
    start = a.initial_node
    out_edges = {n: sorted(a.base.out_edges(n), key=lambda e: e.id) for n in a.base.nodes}
    out: list[tuple[Word, int]] = []
    layer = [((), start, {a.initial: 1})]
    for depth in range(max_len + 1):
        nxt = []
        for edges, node, vec in layer:
            count = sum(c for q, c in vec.items() if q in a.finals)
            if count:
                out.append((Word(start, edges), count))
            if depth == max_len:
                continue
            for e in out_edges[node]:
                rows = steps[e.id]
                child: dict[str, int] = {}
                for q, c in vec.items():
                    for t, k in rows.get(q, ()):
                        child[t] = child.get(t, 0) + c * k
                if child:
                    nxt.append((edges + (e.id,), e.dst, child))
        layer = nxt
    return out


def count_paths(a: SpanAutomaton, w: Word) -> int:
    """Number of accepting runs over a word (0 off the initial node)."""
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


def unique_lift_check(a: DetAutomaton, max_len: int) -> bool:
    """Every word from every state lifts to exactly one run.

    Holds by construction for total single-valued transitions; the check
    walks the transition tables instead of trusting the type.
    """
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


def ulf_factorization_check(a: SpanAutomaton, max_len: int) -> bool:
    """Every run over w = u.v splits uniquely into runs over u and over v.

    Verified by explicit enumeration of candidate splits rather than by
    appeal to the fibered representation.
    """
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


def is_deterministic(a: RelAutomaton) -> bool:
    """Whether every transition relation is a total single-valued function."""
    for e in a.base.edges:
        rel = a.transitions[e.id]
        for q in a.fibers[e.src]:
            if len(rel(q)) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# conversions


def span_automaton_of_rel(a: RelAutomaton) -> SpanAutomaton:
    """Embed a relational automaton as a span automaton (one token per pair)."""
    from .spans import from_relation

    return SpanAutomaton(
        a.base,
        a.fibers,
        {e.id: from_relation(a.transitions[e.id]) for e in a.base.edges},
        a.initial,
        a.finals,
    )


def rel_automaton_of_det(a: DetAutomaton) -> RelAutomaton:
    """View a deterministic automaton relationally (graphs of its functions)."""
    return RelAutomaton(
        a.base,
        a.fibers,
        {
            e.id: Relation(a.fibers[e.src], a.fibers[e.dst], {(q, t) for q, t in a.transitions[e.id].items()})
            for e in a.base.edges
        },
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
