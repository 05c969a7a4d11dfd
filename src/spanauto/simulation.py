"""Simulations between automata over a shared base, and their checks.

A simulation from automaton F to automaton F' is stored as one component
morphism per base node, pointing from the F'-fiber into the F-fiber
(that orientation is what makes the determinized machine simulate the
original).  Naturality is checked on generating edges only; over a free
base category the generator squares paste to all words.

Strength grades how strictly the squares must commute:

* ``strict``: equality of relation composites.
* ``pseudo``: the two span composites have equal counting matrices.
* ``lax``: a feet-preserving apex map exists from the composite through
  the source's transition into the composite through the target's.

Over fixed feet such a map exists exactly when the support of one
counting matrix lies inside the other's, and it is an isomorphism exactly
when the matrices are equal.  So strict and lax squares are decided on
supports, as int bitmasks over the source's fibers while those are
narrow, and every other square row by row on the automata's count rows
and the components' rows.  A target stored as function tables (``det``,
an expansion) is read as its tables, with no rows built: the right side
at x is the component row, or mask, of x's image.  No check builds either
composite (``square_witnesses`` builds them, for squares that passed), and
a failing check lists the differing entries of its failing edge only.

``factor_det`` and ``factor_mdet`` split a simulation into a determinized
target through the canonical simulation, reporting which of the expected
properties of the factor actually hold on the given input.  The support
squares, ``factor_det`` and ``canonical_det_simulation`` read subsets
through the source's one cached mask view, ``determinize._masks``, the
one ``det`` steps.  ``factor_det`` steps each distinct image subset once
per out-edge, in the closure it builds anyway, and decides alpha's
strict squares from those steps before the closure goes any further.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Mapping, Optional

from .spans import (
    POWERSET_CAP,
    DocumentError,
    FinSet,
    NatMatrix,
    Relation,
    Span,
    SpanMorphism,
    _WORK_BOUND,
    _Record,
    compose_spans,
    dagger_span,
    from_matrix,
    from_relation,
    identity_span,
    matrix_compose,
    span_morphism_search,
    to_matrix,
)
from .automata import (
    DetAutomaton,
    Edge,
    SpanAutomaton,
    _NO_ROW,
    _FiberedAutomaton,
    _MatrixAutomaton,
)
from .determinize import (
    ExpandedMachine,
    _det,
    _masks,
    _subset_closure,
    _subset_machine,
    expansion_state_label,
    mdet_expand,
)

__all__ = [
    "Simulation",
    "CheckResult",
    "FactorizationResult",
    "STRENGTHS",
    "identity_simulation",
    "dagger_simulation",
    "compose_simulations",
    "check_rel_simulation",
    "check_span_simulation",
    "square_witnesses",
    "check_bisimulation",
    "canonical_det_simulation",
    "canonical_mdet_simulation",
    "multiplicity_span",
    "transition_span",
    "factor_det",
    "factor_mdet",
]

STRENGTHS = ("strict", "pseudo", "lax")
_MDET_MAX_STATES = 4096  # the state bound of canonical_mdet_simulation's and factor_mdet's expansions


class Simulation(_Record):
    """Per-node components from target fibers into source fibers.

    Components may be given as relations, spans, or counting matrices;
    each is stored as a counted span (a relation through ``from_relation``,
    a matrix as its canonical span).  Only the strength says whether counts
    matter: strict squares read the supports, ``image(c)``.

    The constructor raises ``DocumentError`` at the first of: an unknown
    ``strength``, endpoints over different bases (``target``), a node
    without a component, a component at a node the base lacks, and one
    off its fibers (``components.<n>``).
    """

    source: _FiberedAutomaton
    target: _FiberedAutomaton
    components: Mapping[str, Span]
    strength: str

    def __init__(self, source, target, components, strength):
        if strength not in STRENGTHS:
            raise DocumentError("strength", f"unknown strength {strength!r}")
        if source.base.nodes != target.base.nodes or source.base.edges != target.base.edges:
            raise DocumentError("target", "simulation endpoints must share the base graph")
        nodes = source.base.nodes
        for n in nodes:
            if n not in components:
                raise DocumentError(f"components.{n}", "missing component")
        if len(components) != len(nodes):
            known = set(nodes)
            raise DocumentError(f"components.{next(k for k in components if k not in known)}",
                                "component for unknown node")
        stored = {n: from_relation(c) if isinstance(c, Relation) else from_matrix(c) if isinstance(c, NatMatrix) else c
                  for n, c in components.items()}
        for n in nodes:
            c = stored[n]
            if c.dom != target.fibers[n] or c.cod != source.fibers[n]:
                raise DocumentError(f"components.{n}",
                                    "component does not run from the target fiber to the source fiber")
        _Record.__init__(self, source, target, stored, strength)


class CheckResult(_Record):
    """Outcome of a naturality check, with the first failing edge if any.

    ``differences`` lists the failing square's differing entries as sorted
    ``(row, col, lhs, rhs)`` tuples: multiplicities for span squares, 0/1
    membership for relation squares.
    """

    ok: bool
    failed_edge: Optional[str]
    detail: str
    differences: tuple[tuple[str, str, int, int], ...]

    def __init__(self, ok, failed_edge=None, detail="", differences=()):
        _Record.__init__(self, ok, failed_edge, detail, differences)

    def __bool__(self) -> bool:
        return self.ok


class FactorizationResult(_Record):
    """A mate through a determinization, and which universal-property checks hold.

    ``composite_ok``: the mate composed with the canonical simulation
    gives back the input's components.  ``bisim_ok``: the mate and its
    converse both pass at the mate's strength.  From ``factor_det``,
    ``mate.source`` is the closure of the mate's image subsets and of
    ``{initial}``, a sub-automaton of ``det(f)``, while ``bisim_ok`` is the
    verdict into the full ``det(f)``.  ``unique_ok``: the mate
    is the one function-component bisimulation through which the input
    factors; it is ``None`` outside the small-instance gate (at most two
    states per fiber and two edges for ``factor_det``, at most 4096
    functions from target states to expansion states for ``factor_mdet``).
    """

    mate: Simulation
    composite_ok: bool
    bisim_ok: bool
    unique_ok: Optional[bool]

    def __init__(self, mate, composite_ok, bisim_ok, unique_ok=None):
        _Record.__init__(self, mate, composite_ok, bisim_ok, unique_ok)


# ---------------------------------------------------------------------------
# views of transitions and components
#
# The checks read every automaton kind through its count rows,
# ``a.rows(edge_id)``, at every strength, except that a target stored as
# function tables (``det``, an expansion) is read as its tables, with no
# one-entry row built per state.  Only witnesses need tokens: a stored
# span's own, or the numbered tokens of any other kind's counting matrix.


def transition_span(a: _FiberedAutomaton, edge_id: str) -> Span:
    """The transition of an edge as a span: a stored span itself, else the counted span of its matrix.

    Witnesses use it, and tests use it as the oracle for the count rows.
    """
    t = a.transitions[edge_id]
    return t if isinstance(t, Span) else from_matrix(a.matrix(edge_id))


def identity_simulation(a: _FiberedAutomaton, strength: str = "strict") -> Simulation:
    return Simulation(a, a, {n: identity_span(a.fibers[n]) for n in a.base.nodes}, strength)


def dagger_simulation(sim: Simulation) -> Simulation:
    """Swap endpoints and take the converse of every component."""
    components = {n: dagger_span(c) for n, c in sim.components.items()}
    return Simulation(sim.target, sim.source, components, sim.strength)


def compose_simulations(first: Simulation, second: Simulation) -> Simulation:
    """Vertical composite: a simulation F -> G after one G -> H gives F -> H."""
    if second.source is not first.target and second.source != first.target:
        raise ValueError("simulations do not share the middle automaton")
    components = {n: compose_spans(second.components[n], first.components[n]) for n in first.source.base.nodes}
    strength = max(first.strength, second.strength, key=STRENGTHS.index)
    return Simulation(first.source, second.target, components, strength)


# ---------------------------------------------------------------------------
# naturality checks

_Rows = Mapping[str, Mapping[str, int]]

# The strength only picks how the two rows of a square are compared.  The
# support of a product of count matrices is the relation composite of
# their supports, so the strict (relation-level) check compares supports.
_HOLDS = {
    "strict": lambda left, right: left.keys() == right.keys(),
    "pseudo": operator.eq,
    "lax": lambda left, right: left.keys() <= right.keys(),
}


def _square_rows(states: Iterable[str], src_rows: _Rows, tgt_step: Mapping, comp_src: _Rows,
                 comp_dst: _Rows, tabled: bool) -> Iterator[tuple[str, Mapping[str, int], Mapping[str, int]]]:
    """Both sides of one square as count rows, ``(x, left, right)`` per target state x.

    At an edge e, ``left`` sums the source's rows of e over the component
    row of x, and ``right`` sums the component rows over x's successors
    along e.  ``tgt_step`` is the target's transition at e: when
    ``tabled``, its function table, read as a table, so ``right`` is the
    component row of x's image (x is a state the table maps); else its count
    rows, where a single successor counted once gives its component row
    itself.
    """
    for x in states:
        left: dict[str, int] = {}
        for q, u in comp_src.get(x, _NO_ROW).items():
            for r, c in src_rows.get(q, _NO_ROW).items():
                left[r] = left.get(r, 0) + u * c
        if tabled:
            yield x, left, comp_dst.get(tgt_step[x], _NO_ROW)
            continue
        step = tgt_step.get(x, _NO_ROW).items()
        if len(step) == 1:
            (y, c), = step
            if c == 1:
                yield x, left, comp_dst.get(y, _NO_ROW)
                continue
        right: dict[str, int] = {}
        for y, c in step:
            for r, u in comp_dst.get(y, _NO_ROW).items():
                right[r] = right.get(r, 0) + c * u
        yield x, left, right


def _square(sim: Simulation, e: Edge, comps: Mapping[str, _Rows]) -> tuple:
    """The ``_square_rows`` arguments at an edge; a tabled target compares the states its table maps."""
    tabled = not isinstance(sim.target, _MatrixAutomaton)
    tgt_step = sim.target.transitions[e.id] if tabled else sim.target.rows(e.id)
    states = tgt_step if tabled else sim.target.fibers[e.src].elements
    return states, sim.source.rows(e.id), tgt_step, comps[e.src], comps[e.dst], tabled


def _support_failure(sim: Simulation, strict: bool) -> Optional[Edge]:
    """The first edge whose square fails on supports, or None.

    Supports are int masks over the source's fibers, in its mask view
    (``_masks``).  At an edge e and a target state x, ``left`` is the OR
    of the source's successor masks of e over x's component row, and
    ``right`` the OR of the component masks of x's successors along e,
    read from a function table as the mask of x's image; a tabled target
    compares the states its table maps.  The support of a product of
    count matrices is the relation composite of their supports, so these
    are the supports of the square's two rows at x.  A strict square wants them equal, a lax one
    wants ``left`` inside ``right``.  The view refuses a fiber wider than
    ``POWERSET_CAP``, so the caller keeps this to narrower sources.
    """
    src, tgt = sim.source, sim.target
    tabled = not isinstance(tgt, _MatrixAutomaton)
    bits, succ_of = _masks(src)
    comp_bits: dict[str, dict[str, list[int]]] = {}  # per node: each target state's member bits
    comp_masks: dict[str, dict[str, int]] = {}  # per node: each target state's members as a mask
    for n in src.base.nodes:
        one_hot = {q: (i, 1 << i) for q, i in bits[n].items()}
        row_bits, masks = comp_bits[n], comp_masks[n] = {}, {}
        for x, q in sim.components[n].counts:
            i, bit = one_hot[q]
            if x in masks:
                row_bits[x].append(i)
                masks[x] |= bit
            else:
                row_bits[x] = [i]
                masks[x] = bit
    for e in src.base.edges:
        succ, row_bits, masks = succ_of[e.id], comp_bits[e.src], comp_masks[e.dst]
        steps = tgt.transitions[e.id] if tabled else tgt.rows(e.id)
        for x in steps if tabled else tgt.fibers[e.src].elements:
            left = 0
            for i in row_bits.get(x, ()):
                left |= succ[i]
            if tabled:
                right = masks.get(steps[x], 0)
            else:
                right = 0
                for y in steps.get(x, _NO_ROW):
                    right |= masks.get(y, 0)
            if left != right if strict else left & ~right:
                return e
    return None


def _check_squares(sim: Simulation, mode: str) -> CheckResult:
    """Decide every square; the first failing edge ends the walk.

    ``strict`` and ``lax`` squares over a source whose fibers have at most
    ``POWERSET_CAP`` states are decided on supports, as int masks
    (``_support_failure``).  Every other square is walked row by row, the
    rows read from the automata's cached count rows and the components'
    row indexes, and the strength picks how two rows compare (``_HOLDS``);
    no composite is built.  A tabled target compares the states its table
    maps: every state of a ``det`` target, the recorded ones of a bounded
    expansion.  A failing edge alone is walked again by ``_square_rows``
    in full, to list its differing entries.
    """
    base = sim.source.base
    narrow = all(len(sim.source.fibers[n]) <= POWERSET_CAP for n in base.nodes)
    if mode != "pseudo" and narrow:
        failed = _support_failure(sim, mode == "strict")
        if failed is not None:
            comps = {n: to_matrix(sim.components[n])._by_row for n in (failed.src, failed.dst)}
    else:
        holds = _HOLDS[mode]
        comps = {n: to_matrix(sim.components[n])._by_row for n in base.nodes}
        failed = None
        for e in base.edges:
            if not all(holds(left, right) for _, left, right in _square_rows(*_square(sim, e, comps))):
                failed = e
                break
    if failed is None:
        return CheckResult(True)
    square = _square(sim, failed, comps)
    if mode == "strict":
        differences = tuple(sorted(
            (x, r, int(r in left), int(r in right))
            for x, left, right in _square_rows(*square)
            for r in left.keys() ^ right.keys()
        ))
        only_l = [(x, r) for x, r, lhs, _ in differences if lhs]
        only_r = [(x, r) for x, r, lhs, _ in differences if not lhs]
        detail = f"square at edge {failed.id!r} differs: lhs-only {only_l}, rhs-only {only_r}"
    else:
        differences = tuple(sorted(
            (x, r, left.get(r, 0), right.get(r, 0))
            for x, left, right in _square_rows(*square)
            for r in left.keys() | right.keys()
            if left.get(r, 0) != right.get(r, 0)
        ))
        detail = f"square at edge {failed.id!r}: multiplicities differ at {[(x, r) for x, r, _, _ in differences]}"
    return CheckResult(False, failed.id, detail, differences=differences)


def check_rel_simulation(sim: Simulation) -> CheckResult:
    """Strict naturality over every generating edge, at the relation level.

    Each square's two sides are compared by support, so the check takes
    automata of every kind, span automata and counting machines included,
    and ignores multiplicities.  As in the span checks, a bounded-expansion
    target is compared on its recorded rows only.
    """
    return _check_squares(sim, "strict")


def check_span_simulation(sim: Simulation, mode: str) -> CheckResult:
    """Span-level naturality: lax wants an apex map, pseudo wants matrix equality.

    The apex map runs from the composite through the source's transition
    to the composite through the target's.  Over fixed feet it exists
    exactly when the support of the first counting matrix lies inside the
    second's, and it is an isomorphism exactly when the matrices are
    equal; each square is decided on those matrices row by row.  When the
    target is a bounded expansion, rows without recorded transitions are
    left out of both sides of each square.
    """
    if mode not in ("lax", "pseudo"):
        raise ValueError(f"span check mode must be 'lax' or 'pseudo', not {mode!r}")
    return _check_squares(sim, mode)


def square_witnesses(sim: Simulation, mode: str) -> dict[str, SpanMorphism]:
    """Per edge, an apex map between a passing square's token composites, an isomorphism in pseudo mode.

    A failing check, or a witness past 1,000,000 tokens, is a ``ValueError`` naming its edge, before any token.
    """
    _require(check_span_simulation(sim, mode), f"no {mode} witness")
    for e in sim.source.base.edges:
        tokens = _witness_tokens(sim, e)
        if tokens > _WORK_BOUND:
            raise ValueError(f"witness at edge {e.id!r} would build {tokens} tokens, more than {_WORK_BOUND}")
    return {e.id: _square_witness(sim, e, mode) for e in sim.source.base.edges}


def _witness_tokens(sim: Simulation, e: Edge) -> int:
    """The tokens ``_square_witness`` would build at an edge, counted from count rows.

    That is both components' apexes, both transitions' apexes and the two
    composites, whose tokens are the entries of the square's two sides.
    """
    square = _square(sim, e, {n: to_matrix(sim.components[n])._by_row for n in (e.src, e.dst)})
    _, src_rows, _, comp_src, comp_dst, _ = square
    tgt_rows = sim.target.rows(e.id)
    tokens = sum(sum(row.values()) for rows in (comp_src, comp_dst, src_rows, tgt_rows) for row in rows.values())
    return tokens + sum(sum(left.values()) + sum(right.values()) for _, left, right in _square_rows(*square))


def _square_witness(sim: Simulation, e: Edge, mode: str) -> SpanMorphism:
    """The apex map of a passing square, between its token composites; a tabled target's covers its table."""
    comp = sim.components[e.src]
    if not isinstance(sim.target, _MatrixAutomaton):
        recorded = sim.target.transitions[e.id]
        kept = [t for t in comp.apex if t.left in recorded]
        if len(kept) < len(comp.apex):
            comp = Span(comp.dom, comp.cod, kept)
    lhs = compose_spans(comp, transition_span(sim.source, e.id))
    rhs = compose_spans(transition_span(sim.target, e.id), sim.components[e.dst])
    return span_morphism_search(lhs, rhs, iso_required=(mode == "pseudo"))


def check_bisimulation(sim: Simulation) -> bool:
    """Whether both the simulation and its converse pass at the declared strength, for every kind."""
    return all(_check_squares(s, sim.strength).ok for s in (sim, dagger_simulation(sim)))


# ---------------------------------------------------------------------------
# canonical simulations


def canonical_det_simulation(a: SpanAutomaton) -> Simulation:
    """The membership simulation from an automaton to its powerset machine.

    Component at each node: one token per pair (S, q) with q in S, by
    subset in ``det`` order, then by member.  It always
    passes the lax check; it is pseudo only when no square composite
    carries a multiplicity above one.
    """
    d, labels = _det(a)
    bits = _masks(a)[0]
    components = {}
    for n in a.base.nodes:
        names = list(bits[n])
        members = {(lbl, q): 1 for m, lbl in labels[n].items() for i, q in enumerate(names) if m >> i & 1}
        components[n] = Span._counted(d.fibers[n], a.fibers[n], members)
    return Simulation(a, d, components, "lax")


def multiplicity_span(exp: ExpandedMachine, node: str, fiber: FinSet) -> Span:
    """Relates each discovered multiset state to base states, with multiplicity.

    ``fiber`` is the node's fiber, the order of the count vectors.  Tokens
    come by state, then by ``fiber`` order.
    """
    counts = {}
    for lbl in exp.fibers[node]:
        for q, c in zip(fiber.elements, exp.states[lbl]):
            if c:
                counts[lbl, q] = c
    return Span._counted(exp.fibers[node], fiber, counts)


def canonical_mdet_simulation(a: SpanAutomaton, max_len: int) -> Simulation:
    """The multiplicity simulation from an automaton to its counting machine.

    Checked against the expansion to ``max_len`` layers and ``_MDET_MAX_STATES`` states: each
    discovered multiset state relates to an original state as many times as it was counted.
    The squares hold with equal matrices (a forward-backward simulation),
    which check_span_simulation('pseudo') verifies on the recorded rows.
    """
    exp = mdet_expand(a, _MDET_MAX_STATES, max_len)
    components = {n: multiplicity_span(exp, n, a.fibers[n]) for n in a.base.nodes}
    return Simulation(a, exp, components, "pseudo")


# ---------------------------------------------------------------------------
# universal-property factorizations


def factor_det(alpha: Simulation) -> FactorizationResult:
    """Split a simulation into a deterministic target through the powerset machine.

    The mate sends each target state x to S_x, the set of source states
    its component relates x to.  Its source, ``mate.source``, is the
    closure of the image subsets and of ``{initial}`` under the edges,
    labelled as ``det(f)`` labels them: a sub-automaton of ``det(f)``,
    whose 2^n subsets are never built.  The composite against the
    membership simulation recovers the input by construction, and
    ``composite_ok`` checks each x's members against its component row.
    ``bisim_ok`` is the verdict of ``check_bisimulation`` on the mate into
    the full ``det(f)``, decided on subset masks (``_mate_is_bisimulation``).

    Alpha must be natural first.  A pseudo alpha passes its own check.
    Otherwise alpha's strict squares are read off the closure's steps of
    the images, d_e(S_x) = S_{g_e(x)}, once those are stepped and before
    any other subset is; ``_require_natural`` words a failure.  A source
    too wide for the mask view is checked by the row walk before the view
    refuses it.  A closure past ``_WORK_BOUND`` is a ``ValueError`` that
    names ``factor``.

    The mate is the only function-component candidate: composing a
    candidate x -> S(x) with membership gives back ``{(x, q) : q in S(x)}``,
    so the composite equation forces S(x) to be alpha's image of x.  Hence
    the factorization is unique exactly when this mate passes both checks.
    """
    f, g = alpha.source, alpha.target
    if not isinstance(g, DetAutomaton):
        raise ValueError("factorization target must be deterministic")
    nodes = f.base.nodes
    # a pseudo square has equal supports, so a pseudo alpha is natural once it passes its own check
    if alpha.strength == "pseudo":
        _require(_check_squares(alpha, "pseudo"), "alpha fails its declared 'pseudo' check")
    elif any(len(f.fibers[n]) > POWERSET_CAP for n in nodes):
        _require_natural(alpha)  # by the row walk, before the mask view refuses the source

    pos = _masks(f)[0]  # refuses a fiber wider than POWERSET_CAP, once alpha is known to be natural
    images = {n: dict.fromkeys(g.fibers[n], 0) for n in nodes}  # per node: S_x as a mask, per target state x
    for n, image_of in images.items():
        one_hot = {q: 1 << i for q, i in pos[n].items()}
        for x, q in alpha.components[n].counts:
            image_of[x] |= one_hot[q]

    def decide(steps: Mapping[str, Mapping[int, int]]) -> None:
        """Refuse alpha unless d_e(S_x) = S_{g_e(x)} at every edge e and target state x.

        That is alpha's strict square at (e, x), read off the closure's
        steps of the seeds; ``_require_natural`` words a failure.
        """
        for e in f.base.edges:
            image_of, image_at, table = images[e.src], images[e.dst], g.transitions[e.id]
            stepped = map(steps[e.id].__getitem__, image_of.values())
            if list(stepped) != list(map(image_at.__getitem__, map(table.__getitem__, image_of))):
                _require_natural(alpha)

    start = f.initial_node
    seeds = dict.fromkeys((n, m) for n in nodes for m in images[n].values())
    seeds[start, 1 << pos[start][f.initial]] = None
    reached, steps = _subset_closure(f, list(seeds), None if alpha.strength == "pseudo" else decide, "factor")
    d, labels = _subset_machine(f, reached, steps)
    picks = {n: {(x, labels[n][m]): 1 for x, m in images[n].items()} for n in nodes}
    mate = Simulation(d, g, {n: Span._counted(g.fibers[n], d.fibers[n], picks[n]) for n in nodes}, "strict")

    # a safety check, true by construction: the mate's members of each x are alpha's row at x
    composite_ok = all(
        {(x, q) for x, m in images[n].items() for q, i in pos[n].items() if m >> i & 1}
        == alpha.components[n].counts.keys()
        for n in nodes
    )
    bisim_ok = _mate_is_bisimulation(f, g, images, steps)

    unique_ok = None
    # the gate is kept only so that `factor` stdout and bench/ref.py do not change
    if (
        all(len(f.fibers[n]) <= 2 and len(g.fibers[n]) <= 2 for n in nodes)
        and len(f.base.edges) <= 2
    ):
        unique_ok = composite_ok and bisim_ok
    return FactorizationResult(mate, composite_ok, bisim_ok, unique_ok)


def _mate_is_bisimulation(f: _FiberedAutomaton, g: DetAutomaton, images: Mapping[str, Mapping[str, int]],
                          steps: Mapping[str, Mapping[int, int]]) -> bool:
    """Whether the mate x -> S_x and its converse pass the strict check into the full ``det(f)``.

    ``images`` holds S_x as a mask of the source's mask view
    (``_masks``) per node and target state, and ``steps`` the step tables
    of a closure that contains every image.  At an edge e: n -> m, with
    d_e the direct image, the mate's squares are the forward legs
    d_e(S_x) = S_{g_e(x)}.  Its converse's squares at an image subset S are
    {g_e(x) : S_x = S} = {y : S_y = d_e(S)}.  Alpha is natural by now
    (its pseudo check or ``factor_det``'s ``decide`` has passed), so the
    forward legs hold and the left side lies inside the right one; their
    sizes alone decide the converse.  At every other subset S of n's fiber
    they ask that d_e(S) be no image (``_steps_into``).
    """
    succ = _masks(f)[1]
    owners: dict[str, dict[int, list[str]]] = {n: {} for n in images}  # per node: each image's target states
    for n, image_of in images.items():
        for x, m in image_of.items():
            owners[n].setdefault(m, []).append(x)
    for e in f.base.edges:
        step, table, masks = steps[e.id], g.transitions[e.id], succ[e.id]
        at_src, at_dst = owners[e.src], owners[e.dst]
        if any(len({table[x] for x in xs}) != len(at_dst.get(step[m], ())) for m, xs in at_src.items()):
            return False
        # when every subset of n's fiber is an image, no other subset is left to step
        if len(at_src) < 1 << len(masks) and any(_steps_into(masks, t, at_src) for t in at_dst):
            return False
    return True


def _steps_into(masks: list[int], t: int, images: Mapping[int, object]) -> bool:
    """Whether a subset that is not in ``images`` steps to ``t`` along an edge with successor ``masks``.

    The subsets that step to t lie inside M_t = {q : succ(q) ⊆ t} and
    cover t, and any superset of a cover inside M_t is a cover too.  So
    the search starts at M_t, walks down to the covers one member
    smaller, and stops at the first cover that is not an image; every
    other cover it visits is an image, so it visits at most
    ``len(images) + 1`` covers at O(n) each.  A member can go when no bit
    of t is covered by it alone.
    """
    top = cover = 0
    for i, s in enumerate(masks):
        if not s & ~t:
            top |= 1 << i
            cover |= s
    if cover != t:
        return False
    seen, work = {top}, [top]
    while work:
        m = work.pop()
        if m not in images:
            return True
        members = [i for i in range(len(masks)) if m >> i & 1]
        once = twice = 0
        for i in members:
            twice |= once & masks[i]
            once |= masks[i]
        alone = once & ~twice
        for i in members:
            smaller = m ^ 1 << i
            if not masks[i] & alone and smaller not in seen:
                seen.add(smaller)
                work.append(smaller)
    return False


def _require(result: CheckResult, message: str) -> None:
    if not result.ok:
        raise ValueError(f"{message}: {result.detail}")


def _require_natural(alpha: Simulation) -> None:
    """Refuse an alpha whose strict squares fail; a lax alpha that fails its own check is worded so first."""
    natural = _check_squares(alpha, "strict")
    if not natural.ok and alpha.strength == "lax":
        _require(_check_squares(alpha, "lax"), "alpha fails its declared 'lax' check")
    _require(natural, "alpha is not natural at the relation level")


def factor_mdet(alpha: Simulation, max_len: int = 4) -> FactorizationResult:
    """Split a forward-backward simulation through the counting machine.

    Requires pseudo strength: the mate reads each component's counting
    matrix row as a multiset state, and only equal-matrix squares make
    that assignment natural.  All checks run on an expansion to ``max_len``
    layers and ``_MDET_MAX_STATES`` states, seeded with the mate's images.

    The mate is the only function-component candidate: composing with the
    multiplicity map gives back each chosen state's count vector, and
    distinct expansion states have distinct count vectors, so the
    composite equation forces x to the state whose vector is alpha's row
    at x.  Hence the factorization is unique exactly when this mate passes
    both checks.
    """
    f, g = alpha.source, alpha.target
    if not isinstance(f, SpanAutomaton):
        raise ValueError("factorization source must be a span automaton")
    if not isinstance(g, DetAutomaton):
        raise ValueError("factorization target must be deterministic")
    if alpha.strength != "pseudo":
        raise ValueError("the counting factorization needs a forward-backward (pseudo) simulation")
    _require(_check_squares(alpha, "pseudo"), "alpha fails the pseudo check")

    alpha_matrices = {n: to_matrix(alpha.components[n]) for n in f.base.nodes}
    # the mate's image of x is alpha's row at x, as a count vector
    mate_vectors = {n: {x: [0] * len(f.fibers[n]) for x in g.fibers[n]} for n in f.base.nodes}
    for n, rows in mate_vectors.items():
        for (x, q), c in alpha_matrices[n].entries.items():
            rows[x][f.fibers[n].index(q)] = c
    seeds = {n: list(rows.values()) for n, rows in mate_vectors.items()}
    exp = mdet_expand(f, _MDET_MAX_STATES, max_len, extra_seeds=seeds)

    multi_node = len(f.base.nodes) > 1
    mate_components = {}
    for n, rows in mate_vectors.items():
        picks = {(x, expansion_state_label(n, v, multi_node)): 1 for x, v in rows.items()}
        mate_components[n] = Span._counted(g.fibers[n], exp.fibers[n], picks)
    mate = Simulation(exp, g, mate_components, "pseudo")

    # a safety check, true by construction
    etas = {n: to_matrix(multiplicity_span(exp, n, f.fibers[n])) for n in f.base.nodes}
    composite_ok = all(
        matrix_compose(to_matrix(mate_components[n]), etas[n]) == alpha_matrices[n] for n in f.base.nodes
    )

    bisim_ok = check_bisimulation(mate)

    unique_ok = None
    total_functions = 1
    for n in f.base.nodes:
        total_functions *= max(1, len(exp.fibers[n])) ** len(g.fibers[n])
    # the gate is kept only so that `factor` stdout and bench/ref.py do not change
    if total_functions <= 4096:
        unique_ok = composite_ok and bisim_ok
    return FactorizationResult(mate, composite_ok, bisim_ok, unique_ok)
