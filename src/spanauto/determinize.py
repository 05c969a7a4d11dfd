"""Two determinization pipelines plus the classical oracle.

The powerset pipeline replaces each fiber by its full powerset and each
transition by the direct-image function of its underlying relation.
Because fibers are per node, subset states never mix states of different
nodes, which already prunes everything a single global powerset would
invent across nodes.  Subsets are int bitmasks over one cached view per
automaton (``_masks``: each state's bit and each edge's successor
masks), which ``simulation``'s support squares and ``factor_det`` read
too.  They are stepped by one worklist (``_subset_closure``) and
labelled afterwards (``_subset_machine``); the full machine seeds it
with every subset, the pruned one only with ``{initial}``, so the
pruned machine costs what it reaches, not 2^n, and
``simulation.factor_det`` with a simulation's image subsets.  The seeds
are stepped first, so ``factor_det`` decides alpha's squares from their
steps before the closure goes on, and no image is stepped twice.

The multiset pipeline keeps the path counts instead: each transition
becomes its counting matrix and the machine runs on multisets of states.
Its state space is infinite in general, so the machine is represented by
its matrices, with a bounded breadth-first expansion available when the
explicit shape is wanted.  The expansion runs on count vectors (tuples of
ints in fiber order), a layer at a time: each node's block of vectors is
stepped as count columns, so an edge costs its matrix entries times the
block's size in C-level passes; ``mdet_run`` folds ``multiset_extend``
word by word and stays the per-word oracle.

``classical_subset_construction`` is the textbook single-alphabet subset
construction, implemented directly on the flat five-tuple so it can act
as an independent oracle for the categorical pipeline.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import compress, repeat
from operator import add, itemgetter, mul
from typing import Callable, Mapping, Optional, Sequence

from .spans import (
    FinSet,
    POWERSET_CAP,
    Multiset,
    Relation,
    Span,
    _WORK_BOUND,
    _Record,
    _member_text,
    multiset_extend,
    subset_label,
    subsets_of,
)
from .automata import (
    BaseGraph,
    DetAutomaton,
    MDetMachine,
    RelAutomaton,
    SpanAutomaton,
    Word,
    _NO_ROW,
    _FiberedAutomaton,
)

__all__ = [
    "ClassicalNFA",
    "ExpandedMachine",
    "rel_of",
    "det",
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
    "expansion_state_label",
]

class ClassicalNFA(_Record):
    """A flat five-tuple NFA over one alphabet.

    Kept separate from the fibered types on purpose: the subset
    construction on this shape is the independent yardstick the
    categorical pipeline is compared against.
    """

    kind = "classical-nfa"

    alphabet: tuple[str, ...]
    states: FinSet
    delta: Mapping[tuple[str, str], frozenset[str]]
    initial: str
    finals: frozenset[str]

    def __init__(self, alphabet, states, delta, initial, finals):
        alphabet, finals = tuple(alphabet), frozenset(finals)
        letters = set(alphabet)
        delta = {k: frozenset(v) for k, v in delta.items() if v}
        if len(letters) != len(alphabet):
            raise ValueError("duplicate letters in the alphabet")
        if initial not in states:
            raise ValueError(f"initial state {initial!r} not a state")
        for q in finals:
            if q not in states:
                raise ValueError(f"final state {q!r} not a state")
        for (q, a), targets in delta.items():
            if q not in states or a not in letters:
                raise ValueError(f"delta key ({q!r}, {a!r}) out of range")
            for t in targets:
                if t not in states:
                    raise ValueError(f"delta target {t!r} not a state")
        _Record.__init__(self, alphabet, states, delta, initial, finals)

    def step(self, q: str, a: str) -> frozenset[str]:
        return self.delta.get((q, a), frozenset())


# ---------------------------------------------------------------------------
# powerset pipeline


def rel_of(a) -> RelAutomaton:
    """Forget multiplicities: replace every transition by its support relation."""
    matrices = {e.id: a.matrix(e.id) for e in a.base.edges}
    supports = {i: Relation._trusted(m.dom, m.cod, frozenset(m.entries)) for i, m in matrices.items()}
    return RelAutomaton(a.base, a.fibers, supports, a.initial, a.finals)


def subset_state_label(node: str, members, multi_node: bool) -> str:
    """Label of a determinized state; node-qualified when several fibers exist.

    Qualification keeps the per-node empty subsets apart, since fibers
    must not share state labels.
    """
    lbl = subset_label(members)
    return f"{node}:{lbl}" if multi_node else lbl


def det(a, *, prune: bool = False) -> DetAutomaton:
    """Powerset determinization, fiber by fiber, of the transitions' supports.

    Without ``prune`` every subset of every fiber becomes a state,
    including the empty one.  With ``prune`` only the subsets reachable
    from ``{initial}`` are built, so the cost follows the reachable part
    rather than 2^n; the result equals ``prune_reachable(det(a))``.  A
    fiber wider than ``POWERSET_CAP`` is refused before any work.  A
    subset at node n costs max(1, out-degree of n) steps, and more than
    ``_WORK_BOUND`` steps is a ``ValueError``: the full machine's are
    counted before any subset is listed, the pruned one's as its subsets
    are reached.
    """
    return _det(a, prune)[0]


def _det(a, prune: bool = False) -> tuple[DetAutomaton, dict[str, dict[int, str]]]:
    """``det``, and each node's state labels by subset mask (``_subset_machine``)."""
    bits, _ = _masks(a)
    if prune:
        start = a.initial_node
        seeds = [(start, 1 << bits[start][a.initial])]
    else:
        steps = sum((1 << len(bits[n])) * max(1, len(a.base.out_edges(n))) for n in a.base.nodes)
        if steps > _WORK_BOUND:
            raise ValueError(f"full det would take {steps} subset steps, more than {_WORK_BOUND}")
        seeds = [(n, m) for n in a.base.nodes for m in range(1 << len(bits[n]))]
    return _subset_machine(a, *_subset_closure(a, seeds))


def _masks(a) -> tuple[dict[str, dict[str, int]], dict[str, list[int]]]:
    """The support-mask view of an automaton: each node's bit per state, each edge's successor masks.

    A subset of node n's fiber is an int whose bit i stands for the
    fiber's i-th state in string order.  An edge's successor masks hold
    one mask per source bit, the OR of the bits of the targets in that
    state's count row.  Built on first use and kept with the automaton's
    rows (``a._views``); a fiber wider than ``POWERSET_CAP`` is refused, as
    a ``ValueError``, before any mask is built.
    """
    view = a._views.get("masks")
    if view is None:
        for n in a.base.nodes:
            if len(a.fibers[n]) > POWERSET_CAP:
                raise ValueError(f"fiber of {n!r} has {len(a.fibers[n])} states; refusing powerset above {POWERSET_CAP}")
        bits = {n: {q: i for i, q in enumerate(sorted(a.fibers[n]))} for n in a.base.nodes}
        succ = {}
        for e in a.base.edges:
            src_bits, dst_bits = bits[e.src], bits[e.dst]
            masks = succ[e.id] = [0] * len(src_bits)
            for q, row in a.rows(e.id).items():
                for t in row:
                    masks[src_bits[q]] |= 1 << dst_bits[t]
        view = a._views["masks"] = bits, succ
    return view


def _subset_closure(a, seeds: list[tuple[str, int]], decide: Optional[Callable[[dict], None]] = None,
                    command: str = "det") -> tuple[dict[str, dict[int, list[int]]], dict[str, dict[int, int]]]:
    """Close the (distinct) seed subsets under every edge's direct image.

    Subsets are masks of the automaton's mask view (``_masks``): a subset
    steps to the OR of its members' successor masks.  A subset's set bits
    are listed once, when it is stepped, in O(|S|), and each out-edge ORs
    the masks at them.  The seeds, the caller's own list, are stepped
    first; ``decide``, when given, then sees the step tables, which hold
    every seed's steps, before any other subset is stepped, and may raise
    to end the closure there.  A subset is charged max(1, out-degree)
    steps when first reached, and more than ``_WORK_BOUND`` in all is a
    ``ValueError`` naming ``command``.  Returns each node's reached subsets
    with their set bits, and each edge's step table.
    """
    succ = _masks(a)[1]
    cost = {n: max(1, len(a.base.out_edges(n))) for n in a.base.nodes}
    reached: dict[str, dict[int, list[int]]] = {n: {} for n in a.base.nodes}  # each subset's set bits, once stepped
    steps: dict[str, dict[int, int]] = {e.id: {} for e in a.base.edges}
    # per node, each out-edge's successor masks, step table, and target node's name, reached subsets and cost
    moves = {n: [(succ[e.id], steps[e.id], e.dst, reached[e.dst], cost[e.dst])
                 for e in a.base.out_edges(n)] for n in a.base.nodes}
    work, fresh = list(seeds), []  # the seeds are stepped first; what they reach waits in ``fresh``
    budget = _WORK_BOUND
    for n, m in work:
        reached[n][m] = None
        budget -= cost[n]
    while work:
        if budget < 0 and work is fresh:
            break
        n, m = work.pop()
        set_bits, rest = [], m
        while rest:
            low = rest & -rest
            set_bits.append(low.bit_length() - 1)
            rest ^= low
        reached[n][m] = set_bits
        for masks, step, dst, seen, charge in moves[n]:
            t = 0
            for i in set_bits:
                t |= masks[i]
            step[m] = t
            if t not in seen:
                seen[t] = None
                fresh.append((dst, t))
                budget -= charge
        if not work and work is not fresh:  # every seed is stepped
            if decide is not None:
                decide(steps)
            work = fresh
    if budget < 0:
        raise ValueError(f"{command} would take more than {_WORK_BOUND} subset steps")
    return reached, steps


def _subset_machine(a, reached: Mapping[str, Mapping[int, list[int]]], steps: Mapping[str, Mapping[int, int]]
                    ) -> tuple[DetAutomaton, dict[str, dict[int, str]]]:
    """Label a ``_subset_closure`` as a deterministic automaton; also returns each node's labels by mask.

    A label joins the ``_member_text`` of the names at the subset's set bits,
    already in string order (``_masks``), after the node's head
    (``subset_state_label`` of no members, without its closing brace).
    Fibers list the reached subsets by size, then by member names
    (``subsets_of`` order).  The initial state is ``{initial}``, which the
    closure must have reached.
    """
    pos = _masks(a)[0]
    multi = len(a.base.nodes) > 1
    labels: dict[str, dict[int, str]] = {}
    finals = set()
    for n in a.base.nodes:
        shown = list(map(_member_text, pos[n]))
        head = subset_state_label(n, (), multi)[:-1]
        ranked = sorted(reached[n].items(), key=lambda item: (len(item[1]), item[1]))
        labels[n] = {m: head + ",".join(map(shown.__getitem__, set_bits)) + "}" for m, set_bits in ranked}
        final_mask = sum(1 << i for i, q in enumerate(pos[n]) if q in a.finals)
        finals.update(lbl for m, lbl in labels[n].items() if m & final_mask)
    fibers = {n: FinSet(f"P({a.fibers[n].name})", labels[n].values()) for n in a.base.nodes}
    tables = {
        e.id: {lbl: labels[e.dst][steps[e.id][m]] for m, lbl in labels[e.src].items()}
        for e in a.base.edges
    }
    start = a.initial_node
    initial = labels[start][1 << pos[start][a.initial]]
    return DetAutomaton(a.base, fibers, tables, initial, finals), labels


# ---------------------------------------------------------------------------
# multiset pipeline


def mdet(a) -> MDetMachine:
    """Multiset determinization: transition matrices plus the unit start vector."""
    return MDetMachine(a.base, a.fibers, {e.id: a.matrix(e.id) for e in a.base.edges}, a.initial, a.finals)


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


@cache
def _count_format(width: int):
    """The ``str.format`` that writes a count vector of ``width`` ints as ``(c1,c2,...)``."""
    return ("(" + ",".join(["{}"] * width) + ")").format


def count_vector_text(vec: Sequence[int]) -> str:
    """A count vector as the text ``(c1,c2,...)``: ``()`` at width 0, ``(c)`` at width 1."""
    return _count_format(len(vec))(*vec)


def expansion_state_label(node: str, vec: Sequence[int], multi_node: bool) -> str:
    """Label of an expanded machine state, its ``count_vector_text``, node-qualified like subset states."""
    text = count_vector_text(vec)
    return f"{node}:{text}" if multi_node else text


class ExpandedMachine(_FiberedAutomaton):
    """A bounded explicit view of a multiset machine.

    States are the multisets discovered breadth first from the start
    vector (plus any extra seeds); ``states`` maps each label to its count
    vector, a tuple of ints in the order of its node's fiber.  Transitions
    are recorded edge by edge, one for each explored move whose target
    was discovered: past ``max_states`` a move to a new state is left out
    while the same state's other moves stay, and states reached at the
    ``max_len`` layer have no moves.  So when ``truncated`` is set the
    tables are partial, possibly within a single state's edges.
    ``truncated_by`` names the bounds that cut the expansion short:
    ``"max_states"``, ``"max_len"``, both, or none.  ``count_texts`` holds
    each state's ``count_vector_text``, which the writer puts out as its
    counts; it is read from ``states``, so labels may be any strings.
    """

    kind = "mdet-expanded"

    states: Mapping[str, tuple[int, ...]]
    accept_counts: Mapping[str, int]
    truncated_by: tuple[str, ...]

    def __init__(self, base, fibers, transitions, initial, finals, states, accept_counts, truncated_by=()):
        _Record.__init__(self, base, fibers, transitions, initial, finals, states, accept_counts, truncated_by)

    @property
    def truncated(self) -> bool:
        return bool(self.truncated_by)

    @cached_property
    def count_texts(self) -> dict[str, str]:
        """Each state's ``count_vector_text``, built once (``mdet_expand`` keeps those of its labels)."""
        return {lbl: count_vector_text(vec) for lbl, vec in self.states.items()}

    def as_det_automaton(self) -> DetAutomaton:
        """The expansion as a deterministic automaton; total only when closed."""
        if self.truncated:
            raise ValueError("expansion was truncated; transitions are not total")
        return DetAutomaton(self.base, self.fibers, self.transitions, self.initial, self.finals)


def mdet_expand(
    m: MDetMachine,
    max_states: int,
    max_len: int,
    extra_seeds: Mapping[str, list[tuple[int, ...]]] | None = None,
) -> ExpandedMachine:
    """Breadth-first closure of reachable multiset states, within bounds.

    Stops after ``max_len`` layers or once more than ``max_states`` states
    appear; hitting either bound just sets the truncation flag (and names
    the bound in ``truncated_by``).  Frontier order is fixed by the
    canonical state labels, so the output is deterministic.

    The closure runs on count vectors: a state is a tuple of ints in
    fiber order, and each node keeps a dict from its vectors to their
    labels.  Each layer is stepped in blocks, one per node: the layer's
    vectors at that node are transposed into count columns, and every
    entry (i, j, u) of an edge's matrix adds u times column i into output
    column j, one C-level pass over the layer each.  So an edge costs its
    entries times the block's size in such passes, and the counts stay
    Python ints.  The output columns are zipped back into vectors, and
    discovery then walks the layer in label order, state by state and
    edge by edge.  A reached state's count text is one call of its node's
    cached ``_count_format``, the one ``count_vector_text`` uses; its label
    is the node's head plus that text, and the machine keeps the text as
    ``count_texts`` for the writer.  Accept counts are read after the
    closure by an ``itemgetter`` over each node's final positions.  Seeds
    are count vectors over their node's fiber.
    """
    if max_states <= 0 or max_len < 0:
        raise ValueError(f"expansion bounds must be max_states >= 1 and max_len >= 0, not {max_states}, {max_len}")
    multi_node = len(m.base.nodes) > 1
    order = {n: m.fibers[n].elements for n in m.base.nodes}
    final_pos = {n: [i for i, q in enumerate(order[n]) if q in m.finals] for n in m.base.nodes}
    entries: dict[str, list[tuple[int, int, int]]] = {}
    for e in m.base.edges:
        dst_pos = m.fibers[e.dst].index
        view = m.rows(e.id)
        entries[e.id] = [(i, dst_pos(b), u) for i, a in enumerate(order[e.src])
                         for b, u in view.get(a, _NO_ROW).items()]
    out_edges = {n: [(e.id, e.dst, len(order[e.dst])) for e in m.base.out_edges(n)] for n in m.base.nodes}

    fmt = {n: _count_format(len(order[n])) for n in m.base.nodes}
    head = {n: expansion_state_label(n, (), multi_node)[:-2] for n in m.base.nodes}
    label_of: dict[str, dict[tuple[int, ...], str]] = {n: {} for n in m.base.nodes}  # per node: vector -> label
    states: dict[str, tuple[int, ...]] = {}
    texts: dict[str, str] = {}
    frontier: list[tuple[str, str, tuple[int, ...]]] = []  # (label, node, vector) of each new state

    def discover(node: str, vec: tuple[int, ...]) -> str:
        """Record a state ``(node, vec)`` not seen before, and return its label."""
        text = fmt[node](*vec)
        lbl = label_of[node][vec] = head[node] + text
        states[lbl] = vec
        texts[lbl] = text
        frontier.append((lbl, node, vec))
        return lbl

    start = m.initial_node
    seeds = [(start, tuple(int(q == m.initial) for q in order[start]))]
    for node, vecs in (extra_seeds or {}).items():
        if node not in order:
            raise ValueError(f"seed node {node!r} is not a node of the base")
        for vec in vecs:
            vec = tuple(vec)
            if len(vec) != len(order[node]) or not all(type(c) is int and c >= 0 for c in vec):
                raise ValueError(f"seed {vec!r} is not a count vector over the fiber of {node!r}")
            seeds.append((node, vec))
    for node, vec in seeds:
        if vec not in label_of[node]:
            discover(node, vec)
    tables: dict[str, dict[str, str]] = {e.id: {} for e in m.base.edges}
    hit_states = False
    depth = 0
    while frontier and depth < max_len:
        layer = sorted(frontier, key=itemgetter(0))
        blocks: dict[str, list[tuple[int, ...]]] = {}
        at = []  # each state's place in its node's block
        for _, node, vec in layer:
            block = blocks.setdefault(node, [])
            at.append(len(block))
            block.append(vec)
        moves = {}  # per node: each out-edge's target node, its known vectors, table and stepped block
        for node, block in blocks.items():
            columns = list(zip(*block))
            moves[node] = [(dst, label_of[dst], tables[edge_id],
                            _block_step(columns, entries[edge_id], width, len(block)))
                           for edge_id, dst, width in out_edges[node]]
        frontier.clear()
        for (lbl, node, _), k in zip(layer, at):
            for dst, known, table, stepped in moves[node]:
                vec = stepped[k]
                tgt = known.get(vec)
                if tgt is None:
                    if len(states) >= max_states:
                        hit_states = True
                        continue
                    tgt = discover(dst, vec)
                table[lbl] = tgt
        depth += 1
    # states left at the depth bound still had unexplored transitions
    hit_len = any(out_edges[node] for _, node, _ in frontier)
    accept: dict[str, int] = {}
    for n in m.base.nodes:
        vecs, pos = label_of[n], final_pos[n]
        if len(pos) > 1:
            counts = map(sum, map(itemgetter(*pos), vecs))
        else:  # a single final position is the count itself, none counts 0
            counts = map(itemgetter(*pos), vecs) if pos else repeat(0)
        accept.update(zip(vecs.values(), counts))
    return ExpandedMachine(
        base=m.base,
        fibers={n: FinSet(f"M({m.fibers[n].name})", label_of[n].values()) for n in m.base.nodes},
        states=states,
        transitions=tables,
        initial=label_of[start][seeds[0][1]],
        finals=frozenset(compress(accept, accept.values())),
        accept_counts=accept,
        truncated_by=("max_states",) * hit_states + ("max_len",) * hit_len,
    )._prime(count_texts=texts)  # the texts its labels were built from


def _block_step(columns: list[tuple[int, ...]], entries: list[tuple[int, int, int]], width: int,
                size: int) -> list[tuple[int, ...]]:
    """One edge's step of a block of ``size`` vectors, given as count columns.

    Returns the stepped vectors in block order; ``entries`` are the edge's
    matrix entries (i, j, u) by fiber position, ``width`` its target's.
    """
    out: list = [None] * width
    for i, j, u in entries:
        col = columns[i] if u == 1 else map(mul, columns[i], repeat(u))
        out[j] = col if out[j] is None else list(map(add, out[j], col))
    if not width:
        return [()] * size
    zero = (0,) * size
    return list(zip(*[zero if col is None else col for col in out]))


# ---------------------------------------------------------------------------
# classical oracle


_CLASSICAL_NODE = "s"


def classical_base(alphabet) -> BaseGraph:
    """Single-node base with one loop per letter."""
    return BaseGraph([_CLASSICAL_NODE], [(a, a, _CLASSICAL_NODE, _CLASSICAL_NODE) for a in alphabet])


def span_automaton_of_classical(n: ClassicalNFA) -> SpanAutomaton:
    """Read a flat NFA as a span automaton over the single-node base."""
    base = classical_base(n.alphabet)
    spans = {}
    for a in n.alphabet:
        counts = {(q, t): 1 for q in n.states for t in sorted(n.step(q, a))}
        spans[a] = Span._counted(n.states, n.states, counts)
    return SpanAutomaton(base, {_CLASSICAL_NODE: n.states}, spans, n.initial, n.finals)


def classical_subset_construction(n: ClassicalNFA) -> DetAutomaton:
    """Textbook subset construction: powerset states, direct-image steps.

    Built directly from the five-tuple, without the span machinery, over
    the same single-node base shape as the categorical pipeline.  Its
    2^|Q| subsets cost max(1, letters) steps each; more than
    ``_WORK_BOUND`` is refused before any subset is listed.
    """
    steps = (1 << len(n.states)) * max(1, len(n.alphabet))
    if steps > _WORK_BOUND:
        raise ValueError(f"classical subset construction would take {steps} subset steps, more than {_WORK_BOUND}")
    base = classical_base(n.alphabet)
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
    return DetAutomaton(base, {_CLASSICAL_NODE: fiber}, tables, subset_label({n.initial}), finals)


# ---------------------------------------------------------------------------
# pruning and comparison


def prune_reachable(d: DetAutomaton) -> DetAutomaton:
    """Restrict to states reachable from the initial state by any word."""
    reached = {d.initial}
    frontier = [d.initial]
    while frontier:
        q = frontier.pop()
        for e in d.base.out_edges(d.node_of(q)):
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
    None when the machines differ.  The joint walk from the initial states
    meets only reachable states, and every reachable state of ``d2``, so an
    injective match is a bijection of the reachable parts.
    """
    if set(d1.base.nodes) != set(d2.base.nodes):
        return None
    # a base graph repeats no label between one pair of nodes, so (src, dst, label) names an edge
    by_key = {(e.src, e.dst, e.label): e.id for e in d2.base.edges}
    if {(e.src, e.dst, e.label) for e in d1.base.edges} != by_key.keys():
        return None
    edge_match = {e.id: by_key[e.src, e.dst, e.label] for e in d1.base.edges}
    if d1.initial_node != d2.initial_node:
        return None
    mapping: dict[str, str] = {d1.initial: d2.initial}
    frontier = [d1.initial]
    while frontier:
        q = frontier.pop()
        r = mapping[q]
        if (q in d1.finals) != (r in d2.finals):
            return None
        for e in d1.base.out_edges(d1.node_of(q)):
            qt = d1.transitions[e.id][q]
            rt = d2.transitions[edge_match[e.id]][r]
            if qt in mapping:
                if mapping[qt] != rt:
                    return None
            else:
                mapping[qt] = rt
                frontier.append(qt)
    if len(set(mapping.values())) != len(mapping):
        return None
    return mapping
