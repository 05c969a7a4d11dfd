"""Automata as assignments of fibers and transitions over a finite base graph.

The base graph generates a free category: its morphisms are composable
edge sequences (``Word``).  An automaton lives over the base by giving
each node a finite fiber of states and each edge a morphism between the
endpoint fibers.  Every kind has that one shape (``_FiberedAutomaton``)
and differs only in how it stores a transition:

* ``SpanAutomaton``: a span per edge; parallel tokens count distinct
  transitions, so a word has a number of accepting paths, not just a
  yes/no answer.
* ``RelAutomaton``: a relation per edge, the usual nondeterministic case.
* ``DetAutomaton``: a total function per edge, so every word from any
  state lifts to exactly one run.

The five fields (``base``, ``fibers``, ``transitions``, ``initial`` and
``finals``) are declared once, on ``_FiberedAutomaton``, and checked once,
by its constructor: every automaton that exists is well formed.  Everything
above the storage reads one view of it: ``rows(edge_id)``, the sparse
count rows ``{src: {dst: count}}``.  A relation is the support of a span,
and a function is a span whose rows each hold one entry of count 1, so
the same rows serve every kind; ``matrix`` is their matrix form.

``accepted_counts`` (and ``language`` on top of it) evaluates every word
up to a length L in one sweep that shares prefixes and suffixes.  Down to
depth L - 2 each prefix carries its forward vector of exact run counts and
its label text, and each child costs one sparse vector-row step and one
string concatenation.  A table built once per call holds, for each node,
the suffixes of length at most 2 with their acceptance vectors (accepting
runs of the suffix from each state), so each word of the last two lengths
costs one sparse dot product of a live depth-(L - 2) prefix's vector with
a suffix's.  ``count_paths`` and ``accepted`` evaluate one word by the
sweep's own step along its edges.  The independent per-word oracles (a
token walk and a product of counting matrices) live with the tests, in
``tests/genlib.py``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, NamedTuple, Optional

from .spans import DocumentError, FinSet, NatMatrix, Relation, Span, _Record, to_matrix

__all__ = [
    "BaseGraph",
    "Edge",
    "Word",
    "SpanAutomaton",
    "RelAutomaton",
    "DetAutomaton",
    "enumerate_words",
    "accepted",
    "language",
    "accepted_counts",
    "count_paths",
    "is_deterministic",
]


class Edge(NamedTuple):
    """A labeled directed edge of the base graph."""

    id: str
    label: str
    src: str
    dst: str


class BaseGraph(_Record):
    """A finite directed multigraph; it generates the free base category."""

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __init__(self, nodes, edges):
        nodes, edges = tuple(nodes), tuple(Edge(*e) for e in edges)
        known = set(nodes)
        if len(known) != len(nodes):
            raise ValueError("duplicate node ids")
        ids = set()
        by_pair: dict[tuple[str, str], set[str]] = {}
        for e in edges:
            if e.id in ids:
                raise ValueError(f"duplicate edge id {e.id!r}")
            ids.add(e.id)
            if e.src not in known or e.dst not in known:
                raise ValueError(f"edge {e.id!r} has an endpoint outside the node set")
            labels = by_pair.setdefault((e.src, e.dst), set())
            if e.label in labels:
                raise ValueError(f"edges from {e.src!r} to {e.dst!r} repeat label {e.label!r}")
            labels.add(e.label)
        _Record.__init__(self, nodes, edges)

    def edge(self, edge_id: str) -> Edge:
        return self._by_id[edge_id]

    def out_edges(self, node: str) -> tuple[Edge, ...]:
        """The edges out of a node, in edge order; none for a node the graph does not have."""
        return self._out.get(node, ())

    @cached_property
    def _by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _out(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {n: [] for n in self.nodes}
        for e in self.edges:
            out[e.src].append(e)
        return {n: tuple(es) for n, es in out.items()}


class Word(_Record):
    """A morphism of the free category: a composable edge-id sequence.

    The empty word needs an explicit start node to name an identity.
    """

    start: str
    edges: tuple[str, ...] = ()

    def __init__(self, start: str, edges=()):
        _Record.__init__(self, start, tuple(edges))

    def __len__(self) -> int:
        return len(self.edges)

    def path(self, base: BaseGraph) -> list[Edge]:
        """Resolve edge ids against a base graph, checking composability."""
        if self.start not in base.nodes:
            raise ValueError(f"word starts at unknown node {self.start!r}")
        out = []
        at = self.start
        for eid in self.edges:
            try:
                e = base.edge(eid)
            except KeyError:
                raise ValueError(f"word names unknown edge {eid!r}") from None
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


# the count row of a state without successors, shared by every reader of ``rows``
_NO_ROW: Mapping[str, int] = {}


def _check_ends(states, initial, given, finals: frozenset) -> None:
    """Refuse an initial or final state outside ``states``; of stray finals, the first ``given`` lists, or the least."""
    if initial not in states:
        raise DocumentError("initial", f"unknown state {initial!r}")
    stray = finals.difference(states)
    if stray:
        q = next(filter(stray.__contains__, given)) if isinstance(given, (list, tuple)) else min(stray)
        raise DocumentError("finals", f"unknown state {q!r}")


class _FiberedAutomaton(_Record):
    """The one shape behind every automaton kind, and its count-row view.

    An automaton gives each base node a fiber of states and each edge a
    transition between the endpoint fibers.  Kinds differ only in how a
    transition is stored; each kind's ``_count_matrix`` hook reads one as
    its counting matrix, whose entries are the ``((src, dst), count)``
    pairs.  The base stores function tables, each item one transition,
    and builds its count rows straight from the table; kinds that store
    spans or relations derive from ``_MatrixAutomaton`` and read
    theirs as the counting matrix's rows.  Matrices, rows and the support
    masks of ``determinize._masks`` are built on first use, and the
    state-to-node index the constructor checks is kept; none is a record
    field, so equality and repr see the five fields only.  Equality holds only between automata
    of the same kind, and repr names the kind's class.

    The constructor is the one place that checks the five fields.  It
    raises ``DocumentError``, with the path the fault has in a document,
    at the first of: a node without a fiber (``fibers.<n>: missing
    fiber``), a fiber for a node the base lacks, a state in two fibers,
    an initial or final state in no fiber (``initial``, ``finals``), then
    per edge a missing transition or one off its endpoint fibers (the
    kind's ``_transition``; a table must also be total), and last a
    transition for an edge the base lacks.  Only the powerset machine
    (``determinize._subset_machine``) builds through ``_trusted``.
    """

    base: BaseGraph
    fibers: Mapping[str, FinSet]
    transitions: Mapping[str, object]
    initial: str
    finals: frozenset[str]

    _total = True  # whether a function table must map every state of its source fiber

    def __init__(self, base, fibers, transitions, initial, finals, *more):  # ``more``: a subclass's own fields
        fibers, given, finals = dict(fibers), finals, frozenset(finals)
        for n in base.nodes:
            if n not in fibers:
                raise DocumentError(f"fibers.{n}", "missing fiber")
        if len(fibers) != len(base.nodes):
            known = set(base.nodes)
            raise DocumentError(f"fibers.{next(k for k in fibers if k not in known)}", "fiber for unknown node")
        nodes: dict[str, str] = {}
        for n in base.nodes:
            for q in fibers[n]:
                if nodes.setdefault(q, n) != n:
                    raise DocumentError(f"fibers.{n}", f"state {q!r} already appears in fiber {nodes[q]!r}")
        _check_ends(nodes, initial, given, finals)
        stored = {}
        for e in base.edges:
            at = f"transitions.{e.id}"
            if e.id not in transitions:
                raise DocumentError(at, "missing transition list")
            stored[e.id] = self._transition(at, transitions[e.id], fibers[e.src], fibers[e.dst])
        if len(transitions) != len(stored):
            raise DocumentError(f"transitions.{next(k for k in transitions if k not in stored)}",
                                "transition for unknown edge")
        _Record.__init__(self, base, fibers, stored, initial, finals, *more)
        self._prime(_state_nodes=nodes)

    def _transition(self, at: str, table, src: FinSet, dst: FinSet) -> dict[str, str]:
        """A copy of the table given at ``at``; it must map ``src`` (all of it if ``_total``) into ``dst``.

        Two set comparisons, then the first fault: a missing state, then in
        table order a foreign source or an image outside ``dst``.
        """
        table = dict(table)
        within = table.keys() <= src._positions.keys() and dst._positions.keys() >= set(table.values())
        if within and (len(table) == len(src) or not self._total):
            return table
        if self._total:
            for q in src.elements:
                if q not in table:
                    raise DocumentError(at, f"missing image of state {q!r}")
        for q, target in table.items():
            if q not in src:
                raise DocumentError(at, f"maps foreign state {q!r}")
            if target not in dst:
                raise DocumentError(at, f"sends {q!r} outside the target fiber")

    def _count_matrix(self, edge_id: str) -> NatMatrix:
        e = self.base.edge(edge_id)
        pairs = self.transitions[edge_id].items()
        return NatMatrix._trusted(self.fibers[e.src], self.fibers[e.dst], dict.fromkeys(pairs, 1))

    @cached_property
    def _state_nodes(self) -> dict[str, str]:
        return {q: n for n in self.base.nodes for q in self.fibers[n]}

    @cached_property
    def _views(self) -> dict[object, object]:
        return {}

    def node_of(self, state: str) -> Optional[str]:
        return self._state_nodes.get(state)

    @property
    def initial_node(self) -> str:
        return self._state_nodes[self.initial]

    def rows(self, edge_id: str) -> dict[str, dict[str, int]]:
        """Sparse count rows of an edge: ``{src: {dst: count}}``, built once; read-only.

        A span counts parallel tokens; a relation or a function table holds
        count 1 per pair.  States without successors have no row, and a
        row lists its targets in the order of their first transition.
        """
        rows = self._views.get(("rows", edge_id))
        if rows is None:
            rows = self._views["rows", edge_id] = {q: {t: 1} for q, t in self.transitions[edge_id].items()}
        return rows

    def matrix(self, edge_id: str) -> NatMatrix:
        """The counting matrix of an edge, built once."""
        m = self._views.get(("matrix", edge_id))
        if m is None:
            m = self._views["matrix", edge_id] = self._count_matrix(edge_id)
        return m


class _MatrixAutomaton(_FiberedAutomaton):
    """A kind whose transitions, of the class ``_stores``, are no tables: its rows are those of ``matrix``."""

    def _transition(self, at: str, t, src: FinSet, dst: FinSet):
        if not isinstance(t, self._stores) or t.dom != src or t.cod != dst:
            raise DocumentError(at, f"{self._stores.__name__.lower()} does not match the endpoint fibers")
        return t

    def rows(self, edge_id: str) -> dict[str, dict[str, int]]:
        return self.matrix(edge_id)._by_row


class SpanAutomaton(_MatrixAutomaton):
    """Transitions are spans; parallel tokens count distinct transitions."""

    kind = "span"
    _stores = Span

    def _count_matrix(self, edge_id: str) -> NatMatrix:
        return to_matrix(self.transitions[edge_id])


class RelAutomaton(_MatrixAutomaton):
    """Transitions are relations."""

    kind = "rel"
    _stores = Relation

    def _count_matrix(self, edge_id: str) -> NatMatrix:
        r = self.transitions[edge_id]
        return NatMatrix._trusted(r.dom, r.cod, dict.fromkeys(r.pairs, 1))


class DetAutomaton(_FiberedAutomaton):
    """Transitions are total single-valued maps ``{src: dst}``."""

    kind = "det"


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


def accepted(a: _FiberedAutomaton, w: Word) -> bool:
    """Whether a word is accepted: some run from the initial state ends final.

    Words based anywhere but the initial state's node are rejected.
    """
    return count_paths(a, w) > 0


def language(a: _FiberedAutomaton, max_len: int) -> list[Word]:
    """Accepted words up to a length, in enumeration order."""
    return [w for w, _ in accepted_counts(a, max_len)]


def accepted_counts(a: _FiberedAutomaton, max_len: int) -> list[tuple[Word, int]]:
    """Accepted words up to a length, each with its number of accepting runs.

    Words come in ``enumerate_words`` order from the initial node.  One
    sweep over the word tree, a layer at a time down to depth
    ``max_len - 2``, carries each prefix's forward vector of run counts
    and its label text; a child costs one sparse vector-row step and one
    string concatenation, and a prefix with no runs is dropped.  Each word
    of the last two lengths is a live prefix of that depth followed by a
    suffix of length 1 or 2 from a table built once, and costs one sparse
    dot product of the prefix's vector with the suffix's acceptance vector.
    """
    start = a.initial_node
    return [(Word(start, edges), count) for edges, _, count in _accepted_sweep(a, max_len)]


# the sweep finishes every word from a table of suffixes up to this length
_SUFFIX_LEN = 2


def _accepted_sweep(a: _FiberedAutomaton, max_len: int):
    """Yield ``(edge ids, label text, run count)`` for each accepted word, in enumeration order.

    With h = min(2, max_len), prefixes carry forward count vectors down to
    depth max_len - h: a child's text is its parent's plus one edge label,
    and its vector is its parent's times one edge's count rows.  Vectors
    hold only positive counts, so a prefix is accepted exactly when some
    final state is among its keys, and a prefix with no runs is dropped.
    A table built once lists, per node and per length r <= h, the
    suffixes in edge-id order, each with its acceptance vector
    ``{q: accepting runs of the suffix from q}``; a word of length
    max_len - h + r is a live depth-(max_len - h) prefix and a length-r
    suffix from its end node, counted by one sparse dot product.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    finals = a.finals
    out_edges = {
        n: [(e.id, e.label, e.dst, a.rows(e.id)) for e in sorted(a.base.out_edges(n), key=lambda e: e.id)]
        for n in a.base.nodes
    }
    h = min(_SUFFIX_LEN, max_len)
    tails = _suffix_table(out_edges, finals, h)
    cut = max_len - h
    layer = [((), "", a.initial_node, {a.initial: 1})]
    for depth in range(cut + 1):
        nxt = []
        for edges, text, node, vec in layer:
            hit = finals.intersection(vec)
            if hit:
                yield edges, text, sum(map(vec.__getitem__, hit))
            if depth == cut:
                continue
            for edge_id, label, dst, rows in out_edges[node]:
                child: dict[str, int] = {}
                for q, c in vec.items():
                    for t, k in rows.get(q, _NO_ROW).items():
                        child[t] = child.get(t, 0) + c * k
                if child:
                    nxt.append((edges + (edge_id,), text + label, dst, child))
        if depth < cut:
            layer = nxt
    for table in tails[1:]:
        for edges, text, node, vec in layer:
            for suffix, suffix_text, acc in table[node]:
                n = 0
                for q, c in vec.items():
                    k = acc.get(q)
                    if k:
                        n += c * k
                if n:
                    yield edges + suffix, text + suffix_text, n


def _suffix_table(out_edges, finals, h: int) -> list[dict[str, list]]:
    """Entry r <= h maps each node to its length-r suffixes ``(edge ids, text, acceptance vector)``.

    A suffix's acceptance vector maps each state to its accepting runs over
    the suffix; it is its first edge's count rows times the rest's vector,
    and the empty suffix's is 1 at every final state.  Suffixes come in
    edge-id order.  One with no accepting run is left out, and so are all
    the longer suffixes that end with it, which have none either.
    """
    tails = [{n: [((), "", dict.fromkeys(finals, 1))] for n in out_edges}]
    for _ in range(h):
        shorter = tails[-1]
        table = {}
        for n, edges in out_edges.items():
            live = []
            for edge_id, label, dst, rows in edges:
                for suffix, text, after in shorter[dst]:
                    acc = {}
                    for q, row in rows.items():
                        k = 0
                        for t, c in row.items():
                            if t in after:
                                k += c * after[t]
                        if k:
                            acc[q] = k
                    if acc:
                        live.append(((edge_id,) + suffix, label + text, acc))
            table[n] = live
        tails.append(table)
    return tails


def count_paths(a: _FiberedAutomaton, w: Word) -> int:
    """Number of accepting runs over a word (0 off the initial node).

    Steps a vector of run counts, from the unit at the initial state,
    along the count rows of each edge of the word: the sweep's own step.
    """
    if w.start != a.initial_node:
        return 0
    vec = {a.initial: 1}
    for e in w.path(a.base):
        rows = a.rows(e.id)
        nxt: dict[str, int] = {}
        for q, c in vec.items():
            for t, k in rows.get(q, _NO_ROW).items():
                nxt[t] = nxt.get(t, 0) + c * k
        vec = nxt
    return sum(c for q, c in vec.items() if q in a.finals)


def is_deterministic(a) -> bool:
    """Whether every transition is a total function: one successor per state, with count 1."""
    for e in a.base.edges:
        rows = a.rows(e.id)
        for q in a.fibers[e.src]:
            if list(rows.get(q, _NO_ROW).values()) != [1]:
                return False
    return True
