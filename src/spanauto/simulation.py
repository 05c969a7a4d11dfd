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
and the components' rows; no square builds either composite, and a
failing check lists the differing entries of its failing edge only.
Token composites and their apex maps are built only as optional
witnesses of squares that already passed.

``factor_det`` and ``factor_mdet`` split a simulation into a determinized
target through the canonical simulation, reporting which of the expected
properties of the factor actually hold on the given input.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from .spans import (
    POWERSET_CAP,
    FinSet,
    NatMatrix,
    Relation,
    Span,
    SpanMorphism,
    Token,
    _counted_pair_label,
    _pair_label,
    _WORK_BOUND,
    compose_spans,
    dagger_span,
    from_matrix,
    from_relation,
    identity_span,
    matrix_compose,
    span_morphism_search,
    subsets_of,
    to_matrix,
)
from .automata import (
    DetAutomaton,
    Edge,
    SpanAutomaton,
    _NO_ROW,
    _FiberedAutomaton,
)
from .determinize import (
    ExpandedMachine,
    _check_powerset_cap,
    _state_bits,
    _subset_closure,
    _subset_machine,
    _successor_masks,
    det,
    expansion_state_label,
    mdet,
    mdet_expand,
    subset_state_label,
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
    "check_bisimulation",
    "canonical_det_simulation",
    "canonical_mdet_simulation",
    "membership_span",
    "multiplicity_span",
    "transition_span",
    "factor_det",
    "factor_mdet",
]

STRENGTHS = ("strict", "pseudo", "lax")


@dataclass(frozen=True)
class Simulation:
    """Per-node components from target fibers into source fibers.

    Components may be given as relations, spans, or counting matrices;
    each is stored as a counted span (a relation through ``from_relation``,
    a matrix as its canonical span).  Only the strength says whether counts
    matter: strict squares read the supports, ``image(c)``.
    """

    source: _FiberedAutomaton
    target: _FiberedAutomaton
    components: Mapping[str, Span]
    strength: str

    def __init__(self, source, target, components, strength):
        if strength not in STRENGTHS:
            raise ValueError(f"unknown strength {strength!r}")
        if source.base.nodes != target.base.nodes or source.base.edges != target.base.edges:
            raise ValueError("simulation endpoints must share the base graph")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        stored = {n: from_relation(c) if isinstance(c, Relation) else from_matrix(c) if isinstance(c, NatMatrix) else c
                  for n, c in components.items()}
        object.__setattr__(self, "components", stored)
        object.__setattr__(self, "strength", strength)
        for n in source.base.nodes:
            if n not in self.components:
                raise ValueError(f"missing component at node {n!r}")
            c = self.components[n]
            if c.dom != target.fibers[n] or c.cod != source.fibers[n]:
                raise ValueError(f"component at {n!r} does not run from the target fiber to the source fiber")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a naturality check, with the first failing edge if any.

    ``differences`` lists the failing square's differing entries as sorted
    ``(row, col, lhs, rhs)`` tuples: multiplicities for span squares, 0/1
    membership for relation squares.
    """

    ok: bool
    failed_edge: Optional[str] = None
    detail: str = ""
    witnesses: Mapping[str, object] = None
    differences: tuple[tuple[str, str, int, int], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class FactorizationResult:
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
    unique_ok: Optional[bool] = None


# ---------------------------------------------------------------------------
# views of transitions and components
#
# The checks read every automaton kind through its count rows,
# ``a.rows(edge_id)``, at every strength.  Only witnesses need tokens.


def transition_span(a: _FiberedAutomaton, edge_id: str) -> Span:
    """The transition of an edge as a token span, built from its own storage.

    Witnesses use it, and tests use it as the oracle for the count rows.
    """
    t = a.transitions[edge_id]
    if isinstance(t, Span):
        return t
    if isinstance(t, Relation):
        return from_relation(t)
    if isinstance(t, NatMatrix):
        return from_matrix(t)
    e = a.base.edge(edge_id)
    return Span(a.fibers[e.src], a.fibers[e.dst], [Token(f"({q}->{r})", q, r) for q, r in t.items()])


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


def _square_rows(states: Iterable[str], src_rows: _Rows, tgt_rows: _Rows, comp_src: _Rows,
                 comp_dst: _Rows) -> Iterator[tuple[str, Mapping[str, int], Mapping[str, int]]]:
    """Both sides of one square as count rows, ``(x, left, right)`` per target state x.

    At an edge e, ``left`` sums the source's rows of e over the component
    row of x, and ``right`` sums the component rows over x's successors
    along e; a single successor counted once gives its component row itself.
    """
    for x in states:
        left: dict[str, int] = {}
        for q, u in comp_src.get(x, _NO_ROW).items():
            for r, c in src_rows.get(q, _NO_ROW).items():
                left[r] = left.get(r, 0) + u * c
        step = tgt_rows.get(x, _NO_ROW).items()
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


def _square(sim: Simulation, e: Edge, comps: Mapping[str, _Rows], partial: bool) -> tuple:
    """The ``_square_rows`` arguments at an edge; a ``partial`` target compares its recorded rows only."""
    tgt_rows = sim.target.rows(e.id)
    states = tgt_rows if partial else sim.target.fibers[e.src].elements
    return states, sim.source.rows(e.id), tgt_rows, comps[e.src], comps[e.dst]


def _support_failure(sim: Simulation, strict: bool, partial: bool) -> Optional[Edge]:
    """The first edge whose square fails on supports, or None.

    Supports are int masks over the source's fibers, in ``_state_bits``
    order.  At an edge e and a target state x, ``left`` is the OR of the
    source's successor masks of e over x's component row, and ``right``
    the OR of the component masks of x's successors along e.  The support
    of a product of count matrices is the relation composite of their
    supports, so these are the supports of the square's two rows at x.  A
    strict square wants them equal, a lax one wants ``left`` inside
    ``right``.  A mask is as wide as its fiber, so the caller keeps this
    to sources whose fibers have at most ``POWERSET_CAP`` states.
    """
    src, tgt = sim.source, sim.target
    bits = _state_bits(src)
    comp_bits: dict[str, dict[str, list[int]]] = {}
    comp_masks: dict[str, dict[str, int]] = {}
    for n in src.base.nodes:
        c, bit = sim.components[n], bits[n]
        row_bits: dict[str, list[int]] = {}
        masks: dict[str, int] = {}
        for x, q in c.counts:
            row_bits.setdefault(x, []).append(bit[q])
            masks[x] = masks.get(x, 0) | 1 << bit[q]
        comp_bits[n], comp_masks[n] = row_bits, masks
    for e in src.base.edges:
        succ = _successor_masks(src, e, bits)
        row_bits, masks = comp_bits[e.src], comp_masks[e.dst]
        steps = tgt.rows(e.id)
        for x in steps if partial else tgt.fibers[e.src].elements:
            left = 0
            for i in row_bits.get(x, ()):
                left |= succ[i]
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
    no composite is built.  When the target is a bounded expansion only
    its recorded rows are compared.  A failing edge alone is walked again
    by ``_square_rows`` in full, to list its differing entries.
    """
    base = sim.source.base
    partial = isinstance(sim.target, ExpandedMachine)
    narrow = all(len(sim.source.fibers[n]) <= POWERSET_CAP for n in base.nodes)
    if mode != "pseudo" and narrow:
        failed = _support_failure(sim, mode == "strict", partial)
        if failed is not None:
            comps = {n: to_matrix(sim.components[n])._by_row() for n in (failed.src, failed.dst)}
    else:
        holds = _HOLDS[mode]
        comps = {n: to_matrix(sim.components[n])._by_row() for n in base.nodes}
        failed = None
        for e in base.edges:
            if not all(holds(left, right) for _, left, right in _square_rows(*_square(sim, e, comps, partial))):
                failed = e
                break
    if failed is None:
        return CheckResult(True)
    square = _square(sim, failed, comps, partial)
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


def check_span_simulation(sim: Simulation, mode: str, witnesses: bool = True) -> CheckResult:
    """Span-level naturality: lax wants an apex map, pseudo wants matrix equality.

    The apex map runs from the composite through the source's transition
    to the composite through the target's.  Over fixed feet it exists
    exactly when the support of the first counting matrix lies inside the
    second's, and it is an isomorphism exactly when the matrices are
    equal; each square is decided on those matrices row by row.  When the
    target is a bounded expansion, rows without recorded transitions are
    left out of both sides of each square.  With ``witnesses=True`` a
    passing check also builds, per edge, the token composites and an apex
    map between them (an isomorphism in pseudo mode); that is the only
    part whose cost follows the apex sizes, so when some edge's witness
    would build more than 1,000,000 tokens the check raises ``ValueError``
    before it builds any.
    """
    if mode not in ("lax", "pseudo"):
        raise ValueError(f"span check mode must be 'lax' or 'pseudo', not {mode!r}")
    result = _check_squares(sim, mode)
    if not result.ok or not witnesses:
        return result
    partial = isinstance(sim.target, ExpandedMachine)
    for e in sim.source.base.edges:
        tokens = _witness_tokens(sim, e, partial)
        if tokens > _WORK_BOUND:
            raise ValueError(f"witness at edge {e.id!r} would build {tokens} tokens, more than {_WORK_BOUND}")
    found = {e.id: _square_witness(sim, e, partial, mode) for e in sim.source.base.edges}
    return CheckResult(True, witnesses=found)


def _witness_tokens(sim: Simulation, e: Edge, partial: bool) -> int:
    """The tokens ``_square_witness`` would build at an edge, counted from count rows.

    That is both components' apexes, both transitions' apexes and the two
    composites, whose tokens are the entries of the square's two sides.
    """
    square = _square(sim, e, {n: to_matrix(sim.components[n])._by_row() for n in (e.src, e.dst)}, partial)
    _, src_rows, tgt_rows, comp_src, comp_dst = square
    tokens = sum(sum(row.values()) for rows in (comp_src, comp_dst, src_rows, tgt_rows) for row in rows.values())
    return tokens + sum(sum(left.values()) + sum(right.values()) for _, left, right in _square_rows(*square))


def _square_witness(sim: Simulation, e: Edge, partial: bool, mode: str) -> SpanMorphism:
    """The apex map of a passing square, between its token composites."""
    comp = sim.components[e.src]
    if partial:
        recorded = sim.target.rows(e.id)
        comp = Span(comp.dom, comp.cod, [t for t in comp.apex if t.left in recorded])
    lhs = compose_spans(comp, transition_span(sim.source, e.id))
    rhs = compose_spans(transition_span(sim.target, e.id), sim.components[e.dst])
    return span_morphism_search(lhs, rhs, iso_required=(mode == "pseudo"))


def check_bisimulation(sim: Simulation) -> bool:
    """Whether both the simulation and its converse pass at the declared strength, for every kind."""
    return all(_check_squares(s, sim.strength).ok for s in (sim, dagger_simulation(sim)))


# ---------------------------------------------------------------------------
# canonical simulations


def membership_span(power_fiber: FinSet, fiber: FinSet, node: str, multi_node: bool) -> Span:
    """The membership relation from a powerset fiber, embedded as a span.

    Tokens are ``(S,q)``, by subset in ``subsets_of`` order, then by member.
    """
    counts = {}
    for s in subsets_of(fiber):
        lbl = subset_state_label(node, s, multi_node)
        if lbl not in power_fiber:
            raise ValueError(f"subset {lbl!r} is not in {power_fiber.name!r}")
        for q in sorted(s):
            counts[lbl, q] = 1
    return Span._counted(power_fiber, fiber, counts, _pair_label)


def canonical_det_simulation(a: SpanAutomaton) -> Simulation:
    """The membership simulation from an automaton to its powerset machine.

    Component at each node: the pairs (S, q) with q in S.  It always
    passes the lax check; it is pseudo only when no square composite
    carries a multiplicity above one.
    """
    d = det(a)
    multi = len(a.base.nodes) > 1
    components = {
        n: membership_span(d.fibers[n], a.fibers[n], n, multi) for n in a.base.nodes
    }
    return Simulation(a, d, components, "lax")


def multiplicity_span(exp: ExpandedMachine, node: str, fiber: FinSet) -> Span:
    """Relates each discovered multiset state to base states, with multiplicity.

    ``fiber`` is the node's fiber, the order of the count vectors.  Tokens
    are ``(state,q)#i``, by state, then by ``fiber`` order.
    """
    counts = {}
    for lbl in exp.fibers[node]:
        for q, c in zip(fiber.elements, exp.states[lbl]):
            if c:
                counts[lbl, q] = c
    return Span._counted(exp.fibers[node], fiber, counts, _counted_pair_label)


def canonical_mdet_simulation(a: SpanAutomaton, max_len: int, max_states: int = 4096) -> Simulation:
    """The multiplicity simulation from an automaton to its counting machine.

    Checked against the bounded expansion: each discovered multiset state
    relates to an original state as many times as the state was counted.
    The squares hold with equal matrices (a forward-backward simulation),
    which check_span_simulation('pseudo') verifies on the recorded rows.
    """
    exp = mdet_expand(mdet(a), max_states, max_len)
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

    The mate is the only function-component candidate: composing a
    candidate x -> S(x) with membership gives back ``{(x, q) : q in S(x)}``,
    so the composite equation forces S(x) to be alpha's image of x.  Hence
    the factorization is unique exactly when this mate passes both checks.
    """
    f, g = alpha.source, alpha.target
    if not isinstance(g, DetAutomaton):
        raise ValueError("factorization target must be deterministic")
    # a pseudo square has equal supports and equal supports make a lax
    # square, so alpha's squares are walked twice only when a lax alpha
    # fails the strict comparison and the lax one must say which error wins
    if alpha.strength == "pseudo":
        _require(_check_squares(alpha, "pseudo"), "alpha fails its declared 'pseudo' check")
    else:
        natural = _check_squares(alpha, "strict")
        if not natural.ok and alpha.strength == "lax":
            _require(_check_squares(alpha, "lax"), "alpha fails its declared 'lax' check")
        _require(natural, "alpha is not natural at the relation level")

    _check_powerset_cap(f)
    nodes = f.base.nodes
    pos = _state_bits(f)
    images = {n: dict.fromkeys(g.fibers[n], 0) for n in nodes}  # per node: S_x as a mask, per target state x
    for n, image_of in images.items():
        bit = pos[n]
        for x, q in alpha.components[n].counts:
            image_of[x] |= 1 << bit[q]
    succ = {e.id: _successor_masks(f, e, pos) for e in f.base.edges}
    start = f.initial_node
    seeds = dict.fromkeys((n, m) for n in nodes for m in images[n].values())
    seeds[start, 1 << pos[start][f.initial]] = None
    reached, steps = _subset_closure(f, succ, list(seeds))
    d, labels = _subset_machine(f, pos, reached, steps)
    picks = {n: {(x, labels[n][m]): 1 for x, m in images[n].items()} for n in nodes}
    mate = Simulation(d, g, {n: Span._counted(g.fibers[n], d.fibers[n], picks[n], _pair_label) for n in nodes}, "strict")

    # a safety check, true by construction: the mate's members of each x are alpha's row at x
    composite_ok = all(
        {(x, q) for x, m in images[n].items() for q, i in pos[n].items() if m >> i & 1}
        == alpha.components[n].counts.keys()
        for n in nodes
    )
    bisim_ok = _mate_is_bisimulation(f, g, images, succ, steps)

    unique_ok = None
    # the gate is kept only so that `factor` stdout and bench/ref.py do not change
    if (
        all(len(f.fibers[n]) <= 2 and len(g.fibers[n]) <= 2 for n in nodes)
        and len(f.base.edges) <= 2
    ):
        unique_ok = composite_ok and bisim_ok
    return FactorizationResult(mate, composite_ok, bisim_ok, unique_ok)


def _mate_is_bisimulation(f: _FiberedAutomaton, g: DetAutomaton, images: Mapping[str, Mapping[str, int]],
                          succ: Mapping[str, list[int]], steps: Mapping[str, Mapping[int, int]]) -> bool:
    """Whether the mate x -> S_x and its converse pass the strict check into the full ``det(f)``.

    ``images`` holds S_x as a mask per node and target state, ``succ`` the
    source's successor masks and ``steps`` the step tables of a closure
    that contains every image.  At an edge e: n -> m, with d_e the direct
    image, the mate's squares are the forward legs d_e(S_x) = S_{g_e(x)}.
    Its converse's squares at an image subset S are
    {g_e(x) : S_x = S} = {y : S_y = d_e(S)}; the left side lies inside
    the right one exactly when the forward legs at S hold, so comparing
    the two sets decides both.  At every other subset S of n's fiber they
    ask that d_e(S) be no image (``_steps_into``).
    """
    owners: dict[str, dict[int, list[str]]] = {n: {} for n in images}  # per node: each image's target states
    for n, image_of in images.items():
        for x, m in image_of.items():
            owners[n].setdefault(m, []).append(x)
    for e in f.base.edges:
        step, table, masks = steps[e.id], g.transitions[e.id], succ[e.id]
        at_src, at_dst = owners[e.src], owners[e.dst]
        if any({table.get(x) for x in xs} != set(at_dst.get(step[m], ())) for m, xs in at_src.items()):
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


def factor_mdet(alpha: Simulation, max_len: int = 4, max_states: int = 4096) -> FactorizationResult:
    """Split a forward-backward simulation through the counting machine.

    Requires pseudo strength: the mate reads each component's counting
    matrix row as a multiset state, and only equal-matrix squares make
    that assignment natural.  All checks run on a bounded expansion that
    is seeded with the mate's image states.

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
    exp = mdet_expand(mdet(f), max_states, max_len, extra_seeds=seeds)

    multi_node = len(f.base.nodes) > 1
    mate_components = {}
    for n, rows in mate_vectors.items():
        picks = {(x, expansion_state_label(n, v, multi_node)): 1 for x, v in rows.items()}
        mate_components[n] = Span._counted(g.fibers[n], exp.fibers[n], picks, lambda x, _, i: f"({x})")
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
