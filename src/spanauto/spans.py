"""Finite sets and the three morphism calculi built on them.

Three kinds of morphism between finite sets live here, together with the
translations connecting them:

* ``Span``: a finite apex of tokens with a foot in each endpoint set.
  Parallel tokens carry multiplicity, so spans count transitions.  A
  span stores those counts; its tokens are built on first use.
* ``Relation``: a plain set of pairs.  ``image`` collapses a span to the
  relation it generates, forgetting multiplicities.
* ``NatMatrix``: a natural-number matrix, equivalently a map into finite
  multisets.  ``to_matrix`` / ``from_matrix`` translate spans to matrices
  and back; the round trip is the identity on matrices and an isomorphism
  on spans.

All values are immutable after construction and all operations are pure,
so everything here is safe to share across threads (the row index of a
relation or matrix and the apex of a span are built on first use; two
threads racing to build one build equal ones).  Counts use Python integers, which never overflow.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, repeat
from operator import attrgetter
from typing import Hashable, Iterator, Mapping, NamedTuple, Optional

__all__ = [
    "FinSet",
    "Token",
    "Span",
    "Relation",
    "NatMatrix",
    "Multiset",
    "SpanMorphism",
    "PowersetMap",
    "POWERSET_CAP",
    "compose_spans",
    "identity_span",
    "dagger_span",
    "span_iso_eq",
    "image",
    "from_relation",
    "compose_relations",
    "identity_relation",
    "dagger_relation",
    "powerset_map",
    "subset_label",
    "subsets_of",
    "powerset_finset",
    "to_matrix",
    "from_matrix",
    "matrix_compose",
    "identity_matrix",
    "multiset_unit",
    "multiset_extend",
    "multiset_flatten",
    "rel_unit",
    "rel_counit",
    "image_unit",
    "span_morphism_search",
]

# The widest fiber whose 2^n subsets may be listed (about a million at 20);
# it bounds the subsets, not a mask's width, which a Python int does not
# limit.  Past it ``determinize._masks``, the mask view that ``det`` and
# ``factor_det`` step, and ``powerset_finset`` refuse the fiber, and the
# width gate of the square checks (``simulation._check_squares``) walks
# count rows instead of masks.  A PowersetMap evaluates one subset at a
# time at any size.
POWERSET_CAP = 20

# The most work one construction may do: dot's edge lines, a witness's
# tokens and any powerset construction's subset steps past it are refused,
# counted up front where the size is known, as the pruned det runs if not.
_WORK_BOUND = 1_000_000


class _Record:
    """A frozen value with named fields: the base of every record class.

    A subclass's fields are its annotated names, after those of its bases.
    Its repr lists them as ``ClassName(field=value, ...)``; equality
    compares them, between instances of one class only; its hash is theirs,
    so a record holding a dict does not hash.  Setting or deleting any
    attribute raises ``AttributeError``.  Only this class stores: a
    subclass's ``__init__`` checks and converts its arguments and passes
    the field values in order to ``_Record.__init__``, and ``_trusted``
    stores values already checked.  A view built on first use is a
    ``cached_property``; ``_prime`` stores one known at construction, or
    an attribute that is no field.  Views are no fields: repr, equality
    and hashing never see them.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(n for n in own if n not in cls._fields)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values))

    @classmethod
    def _trusted(cls, *values):
        """Internal constructor: the field values, in order, already checked and converted."""
        r = object.__new__(cls)
        _Record.__init__(r, *values)
        return r

    def _prime(self, **attrs):
        """Store views known at construction, or attributes that are no fields; returns the record."""
        self.__dict__.update(attrs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


def _first_duplicate(labels):
    seen: set[str] = set()
    return next(x for x in labels if x in seen or seen.add(x))


class FinSet(_Record):
    """An ordered finite set of distinct string labels.

    The order is the canonical presentation order (it fixes matrix row
    and column order), but equality compares label sets only.  Membership
    and ``index`` look labels up in an element-to-position map.
    """

    name: str
    elements: tuple[str, ...]

    def __init__(self, name: str, elements=()):
        _Record.__init__(self, name, tuple(elements))
        if len(self._positions) != len(self.elements):
            raise ValueError(f"duplicate element {_first_duplicate(self.elements)!r} in finite set {name!r}")

    @cached_property
    def _positions(self) -> dict[str, int]:
        return dict(zip(self.elements, range(len(self.elements))))

    def __contains__(self, x) -> bool:
        return x in self._positions

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, FinSet):
            return NotImplemented
        return set(self.elements) == set(other.elements)

    def __hash__(self) -> int:
        return hash(frozenset(self.elements))

    def index(self, x: str) -> int:
        try:
            return self._positions[x]
        except KeyError:
            raise ValueError(f"{x!r} is not in finite set {self.name!r}") from None


class Token(NamedTuple):
    """One apex element of a span: a label plus its two feet.

    A token a caller supplies keeps the label it was given.  A derived
    token is labelled by its structure: the k-th token of a counted span
    by ``k``, a composite by the pair of its factors' labels.  Distinct
    tokens of one span therefore never share a label.
    """

    label: Hashable
    left: str
    right: str


class Span(_Record):
    """A span between finite sets: ``dom <- apex -> cod``.

    Several tokens may share the same feet; that multiplicity is the
    whole point of working with spans instead of relations.  Over fixed
    feet a span is, up to isomorphism, its counting matrix, so a span
    stores its sparse counts ``{(left, right): n}`` (in the order the
    feet pairs first occur) and builds its apex of tokens on first use.
    A span built from the caller's tokens refuses two with one label; a
    counted span numbers its tokens, so it has none to refuse.
    Equality compares the apexes, labels and order included.
    """

    dom: FinSet
    cod: FinSet
    counts: Mapping[tuple[str, str], int]
    _numbered = False  # whether the apex numbers the counts' tokens (``_counted``); no field

    def __init__(self, dom: FinSet, cod: FinSet, apex=()):
        apex = tuple(Token(*t) for t in apex)
        by_label = {}
        counts: dict[tuple[str, str], int] = {}
        for t in apex:
            if by_label.setdefault(t.label, t) is not t:
                raise ValueError(f"duplicate token label {t.label!r}")
            if t.left not in dom:
                raise ValueError(f"token {t.label!r}: left foot {t.left!r} not in {dom.name!r}")
            if t.right not in cod:
                raise ValueError(f"token {t.label!r}: right foot {t.right!r} not in {cod.name!r}")
            key = (t.left, t.right)
            counts[key] = counts.get(key, 0) + 1
        _Record.__init__(self, dom, cod, counts)
        self._prime(apex=apex, _by_label=by_label)

    @classmethod
    def _counted(cls, dom: FinSet, cod: FinSet, counts: dict[tuple[str, str], int]) -> "Span":
        """Internal constructor: keys already lie in ``dom x cod``, values are positive ints.

        The apex holds, for each key in order, its n parallel tokens, each
        labelled by its place in the apex from 0; it is built on first use.
        """
        return cls._trusted(dom, cod, counts)._prime(_numbered=True)

    @cached_property
    def apex(self) -> tuple[Token, ...]:
        feet = [key for key, n in self.counts.items() for _ in range(n)]
        return tuple(Token(k, a, b) for k, (a, b) in enumerate(feet))

    @cached_property
    def _by_label(self) -> dict[Hashable, Token]:
        return {t.label: t for t in self.apex}

    def token(self, label: Hashable) -> Token:
        return self._by_label[label]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod and self.apex == other.apex

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.apex))


class Relation(_Record):
    """A set of pairs between two finite sets."""

    dom: FinSet
    cod: FinSet
    pairs: frozenset[tuple[str, str]]

    def __init__(self, dom: FinSet, cod: FinSet, pairs=()):
        pairs = frozenset(tuple(p) for p in pairs)
        for a, b in pairs:
            if a not in dom:
                raise ValueError(f"pair ({a!r}, {b!r}): {a!r} not in {dom.name!r}")
            if b not in cod:
                raise ValueError(f"pair ({a!r}, {b!r}): {b!r} not in {cod.name!r}")
        _Record.__init__(self, dom, cod, pairs)

    @cached_property
    def _by_left(self) -> dict[str, frozenset[str]]:
        by_left: dict[str, set[str]] = {}
        for x, b in self.pairs:
            by_left.setdefault(x, set()).add(b)
        return {x: frozenset(bs) for x, bs in by_left.items()}

    def __call__(self, a: str) -> frozenset[str]:
        """Image of one element: all cod elements related to ``a``, read from the index ``_by_left``."""
        return self._by_left.get(a, frozenset())


class NatMatrix(_Record):
    """A natural-number matrix, i.e. a map ``dom -> multisets over cod``.

    Entries are stored sparsely; absent entries are zero.  Arithmetic is
    exact (Python integers).  Rows are indexed by their domain element on
    first use.
    """

    dom: FinSet
    cod: FinSet
    entries: Mapping[tuple[str, str], int]

    def __init__(self, dom: FinSet, cod: FinSet, entries: Mapping[tuple[str, str], int] = {}):
        clean = {}
        for (a, b), n in entries.items():
            if a not in dom or b not in cod:
                raise ValueError(f"entry key ({a!r}, {b!r}) outside {dom.name!r} x {cod.name!r}")
            if not isinstance(n, int) or n < 0:
                raise ValueError(f"entry ({a!r}, {b!r}) = {n!r} is not a natural number")
            if n > 0:
                clean[(a, b)] = n
        _Record.__init__(self, dom, cod, clean)

    @cached_property
    def _by_row(self) -> dict[str, dict[str, int]]:
        """Domain element -> its nonzero entries by codomain element, built once."""
        rows: dict[str, dict[str, int]] = {}
        for (a, b), n in self.entries.items():
            rows.setdefault(a, {})[b] = n
        return rows

    def __getitem__(self, key: tuple[str, str]) -> int:
        a, b = key
        if a not in self.dom or b not in self.cod:
            raise KeyError(key)
        return self.entries.get((a, b), 0)

    def __hash__(self) -> int:
        return hash((self.dom, self.cod))

    def row(self, a: str) -> "Multiset":
        """Row at ``a`` as a multiset over the codomain."""
        if a not in self.dom:
            raise KeyError(a)
        return Multiset._trusted(self.cod, dict(self._by_row.get(a, {})))

    def rows(self) -> list[list[int]]:
        """Dense row-major form, in canonical element order."""
        return [[self.entries.get((a, b), 0) for b in self.cod] for a in self.dom]


class Multiset(_Record):
    """A finite multiset: natural-number counts over a finite base set."""

    base: FinSet
    counts: Mapping[str, int]

    def __init__(self, base: FinSet, counts: Mapping[str, int] = {}):
        clean = {}
        for x, n in counts.items():
            if x not in base:
                raise ValueError(f"count key {x!r} not in {base.name!r}")
            if not isinstance(n, int) or n < 0:
                raise ValueError(f"count of {x!r} = {n!r} is not a natural number")
            if n > 0:
                clean[x] = n
        _Record.__init__(self, base, clean)

    def __getitem__(self, x: str) -> int:
        if x not in self.base:
            raise KeyError(x)
        return self.counts.get(x, 0)

    def __hash__(self) -> int:
        return hash((frozenset(self.base.elements), frozenset(self.counts.items())))

    def __add__(self, other: "Multiset") -> "Multiset":
        if self.base != other.base:
            raise ValueError("multiset sum over different base sets")
        keys = set(self.counts) | set(other.counts)
        return Multiset(self.base, {x: self[x] + other[x] for x in keys})

    def vector(self) -> tuple[int, ...]:
        """Counts in canonical base order."""
        return tuple(map(self.counts.get, self.base.elements, repeat(0)))


class SpanMorphism(_Record):
    """A map of apexes between two parallel spans, preserving both feet."""

    source: Span
    target: Span
    mapping: Mapping[Hashable, Hashable]

    def __init__(self, source: Span, target: Span, mapping: Mapping[Hashable, Hashable]):
        if source.dom != target.dom or source.cod != target.cod:
            raise ValueError("span morphism requires shared feet sets")
        mapping = dict(mapping)
        for t in source.apex:
            if t.label not in mapping:
                raise ValueError(f"morphism misses source token {t.label!r}")
            u = target.token(mapping[t.label])
            if (u.left, u.right) != (t.left, t.right):
                raise ValueError(f"morphism does not preserve feet of token {t.label!r}")
        _Record.__init__(self, source, target, mapping)

    def is_iso(self) -> bool:
        return len(set(self.mapping.values())) == len(self.target.apex) == len(self.source.apex)


# ---------------------------------------------------------------------------
# spans


def compose_spans(s: Span, t: Span) -> Span:
    """Compose two spans by matching middle feet (pullback of the legs).

    The composite has one token per pair (x, y) with the right foot of x
    equal to the left foot of y, so multiplicities multiply; it is
    labelled ``(x.label, y.label)``.  Tokens come in the order of ``s``,
    then of ``t``; the tokens of ``t`` are grouped by left foot once, so
    the cost follows the output, not |s| * |t|.
    """
    if s.cod != t.dom:
        raise ValueError(f"cannot compose spans: middle sets {s.cod.name!r} and {t.dom.name!r} differ")
    by_left: dict[str, list[Token]] = {}
    for y in t.apex:
        by_left.setdefault(y.left, []).append(y)
    apex = [
        Token((x.label, y.label), x.left, y.right)
        for x in s.apex
        for y in by_left.get(x.right, ())
    ]
    return Span(s.dom, t.cod, apex)


def identity_span(a: FinSet) -> Span:
    """The identity span: one token per element, both feet equal."""
    return Span(a, a, [Token(x, x, x) for x in a])


def dagger_span(s: Span) -> Span:
    """The converse span: same apex, feet swapped.

    A counted span's converse stays counted: it swaps the count keys in
    their order, so each token keeps its place and therefore its label,
    as in the token converse, and no token is built.
    """
    if s._numbered:
        return Span._counted(s.cod, s.dom, {(b, a): n for (a, b), n in s.counts.items()})
    return Span(s.cod, s.dom, [Token(t.label, t.right, t.left) for t in s.apex])


def span_iso_eq(s: Span, t: Span) -> bool:
    """Equality of spans up to apex relabeling: equal multiplicity matrices."""
    if s.dom != t.dom or s.cod != t.cod:
        raise ValueError("span comparison requires shared feet sets")
    return to_matrix(s) == to_matrix(t)


# ---------------------------------------------------------------------------
# relations


def image(s: Span) -> Relation:
    """The relation a span generates: pairs of feet, multiplicities dropped."""
    return Relation._trusted(s.dom, s.cod, frozenset(s.counts))


def from_relation(r: Relation) -> Span:
    """Embed a relation as a span with one token per pair, in sorted pair order."""
    return Span._counted(r.dom, r.cod, dict.fromkeys(sorted(r.pairs), 1))


def compose_relations(r: Relation, q: Relation) -> Relation:
    """Standard relational composite, written left to right."""
    if r.cod != q.dom:
        raise ValueError(f"cannot compose relations: middle sets {r.cod.name!r} and {q.dom.name!r} differ")
    return Relation._trusted(r.dom, q.cod, frozenset((a, c) for a, b in r.pairs for c in q(b)))


def identity_relation(a: FinSet) -> Relation:
    return Relation(a, a, {(x, x) for x in a})


def dagger_relation(r: Relation) -> Relation:
    """The converse relation."""
    return Relation._trusted(r.cod, r.dom, frozenset((b, a) for a, b in r.pairs))


# ---------------------------------------------------------------------------
# powersets


_MEMBER_ESCAPES = str.maketrans({c: "\\" + c for c in "\\,{}"})


def _member_text(name: str) -> str:
    """A name as a subset label's member: as it is, or with a backslash before each ``\\``, ``,``, ``{`` and ``}``.

    A name stands as it is when it has no backslash and its braces pair up
    around all its commas, so labels of labels read as nested sets
    (``{{1,2}}``).  Then the commas outside braces are those that join the
    members, and no two subsets of nonempty names share a label.
    """
    depth = 0
    for c in name:
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        if depth < 0 or c == "\\" or c == "," and not depth:
            break
    else:
        if not depth:
            return name
    return name.translate(_MEMBER_ESCAPES)


def subset_label(members) -> str:
    """Canonical printable name of a subset: its sorted members, each a ``_member_text``, in braces."""
    return "{" + ",".join(map(_member_text, sorted(members))) + "}"


def subsets_of(a: FinSet) -> list[frozenset[str]]:
    """All subsets, ordered by size then lexicographically by sorted members."""
    order = sorted(a.elements)
    out = []
    for k in range(len(order) + 1):
        out.extend(frozenset(c) for c in combinations(order, k))
    return out


def powerset_finset(a: FinSet) -> FinSet:
    """The powerset of ``a`` as a finite set of canonical subset labels."""
    if len(a) > POWERSET_CAP:
        raise ValueError(f"powerset of {a.name!r} has 2^{len(a)} elements; cap is 2^{POWERSET_CAP}")
    return FinSet(f"P({a.name})", [subset_label(s) for s in subsets_of(a)])


class PowersetMap:
    """The total function on powersets induced by a relation.

    Sends a subset S of the domain to every codomain element related to
    some member of S.  Evaluation works at any size.
    """

    def __init__(self, r: Relation):
        self.relation = r

    def __call__(self, subset) -> frozenset[str]:
        out: set[str] = set()
        for x in frozenset(subset):
            if x not in self.relation.dom:
                raise ValueError(f"{x!r} not in {self.relation.dom.name!r}")
            out |= self.relation(x)
        return frozenset(out)


def powerset_map(r: Relation) -> PowersetMap:
    """Direct-image function P(dom) -> P(cod) of a relation."""
    return PowersetMap(r)


def rel_unit(a: FinSet) -> Relation:
    """The singleton map ``x -> {x}``, as a relation into the powerset."""
    p = powerset_finset(a)
    return Relation(a, p, {(x, subset_label({x})) for x in a})


def rel_counit(a: FinSet) -> Relation:
    """The membership relation from the powerset back to the set."""
    p = powerset_finset(a)
    return Relation(p, a, {(subset_label(s), x) for s in subsets_of(a) for x in s})


# ---------------------------------------------------------------------------
# matrices and multisets


def to_matrix(s: Span) -> NatMatrix:
    """Multiplicity matrix of a span: entry (a, b) counts tokens with those feet.

    It shares the span's counts, which neither side changes.
    """
    return NatMatrix._trusted(s.dom, s.cod, s.counts)


def from_matrix(m: NatMatrix) -> Span:
    """Canonical counted span with m(a, b) parallel tokens over each pair of feet.

    Feet pairs come in row-major canonical order.
    """
    rows = m._by_row
    col = m.cod.index
    counts = {}
    for a in m.dom:
        row = rows.get(a)
        if row:
            for b in sorted(row, key=col):
                counts[a, b] = row[b]
    return Span._counted(m.dom, m.cod, counts)


def matrix_compose(m: NatMatrix, n: NatMatrix) -> NatMatrix:
    """Exact natural-number matrix product (diagrammatic order)."""
    if m.cod != n.dom:
        raise ValueError(f"cannot compose matrices: middle sets {m.cod.name!r} and {n.dom.name!r} differ")
    entries: dict[tuple[str, str], int] = {}
    n_rows = n._by_row
    for (a, b), u in m.entries.items():
        for c, v in n_rows.get(b, {}).items():
            entries[(a, c)] = entries.get((a, c), 0) + u * v
    return NatMatrix._trusted(m.dom, n.cod, entries)


def identity_matrix(a: FinSet) -> NatMatrix:
    return NatMatrix(a, a, {(x, x): 1 for x in a})


def multiset_unit(a: FinSet, x: str) -> Multiset:
    """The unit multiset: count 1 at ``x``, 0 elsewhere."""
    if x not in a:
        raise ValueError(f"{x!r} not in {a.name!r}")
    return Multiset(a, {x: 1})


def multiset_extend(m: NatMatrix, v: Multiset) -> Multiset:
    """Extension of a matrix along a multiset: b -> sum_a v(a) * m(a, b).

    This is vector-matrix multiplication, and the composition law of the
    matrix calculus when matrices are read as multiset-valued maps.  Only
    the rows of ``v``'s support are read, so the cost follows the support
    and its rows, not every entry of ``m``.
    """
    if v.base != m.dom:
        raise ValueError(f"multiset base {v.base.name!r} does not match matrix domain {m.dom.name!r}")
    rows = m._by_row
    counts: dict[str, int] = {}
    for a, c in v.counts.items():
        for b, u in rows.get(a, {}).items():
            counts[b] = counts.get(b, 0) + c * u
    return Multiset._trusted(m.cod, counts)


def multiset_flatten(outer: Mapping[Multiset, int], base: FinSet) -> Multiset:
    """Flatten a finite-support multiset of multisets: b -> sum_w outer(w) * w(b)."""
    counts: dict[str, int] = {}
    for w, n in outer.items():
        if w.base != base:
            raise ValueError(f"inner multiset over {w.base.name!r}, expected {base.name!r}")
        if n < 0:
            raise ValueError("outer count must be a natural number")
        for x, c in w.counts.items():
            counts[x] = counts.get(x, 0) + n * c
    return Multiset(base, counts)


# ---------------------------------------------------------------------------
# 2-cells between spans


def image_unit(s: Span) -> SpanMorphism:
    """The collapse of a span onto the embedding of its image relation.

    Each token goes to the unique image token with the same feet, the
    one at its feet pair's place.  It is an isomorphism exactly when no
    two tokens of ``s`` share feet.
    """
    target = from_relation(image(s))
    place = {key: k for k, key in enumerate(target.counts)}
    return SpanMorphism(s, target, {t.label: place[t.left, t.right] for t in s.apex})


def span_morphism_search(s: Span, t: Span, iso_required: bool = False) -> Optional[SpanMorphism]:
    """Find a feet-preserving apex map from ``s`` to ``t``, or None.

    Morphisms over fixed feet decompose per feet pair, so existence is a
    support comparison and an isomorphism is matrix equality; the witness
    is assembled block by block.
    """
    if s.dom != t.dom or s.cod != t.cod:
        raise ValueError("span morphism search requires shared feet sets")
    blocks_s: dict[tuple[str, str], list[Token]] = {}
    for tok in s.apex:
        blocks_s.setdefault((tok.left, tok.right), []).append(tok)
    blocks_t: dict[tuple[str, str], list[Token]] = {}
    for tok in t.apex:
        blocks_t.setdefault((tok.left, tok.right), []).append(tok)
    if iso_required:
        if {k: len(v) for k, v in blocks_s.items()} != {k: len(v) for k, v in blocks_t.items()}:
            return None
        mapping = {}
        for key, toks in blocks_s.items():
            for a, b in zip(toks, blocks_t[key]):
                mapping[a.label] = b.label
        return SpanMorphism(s, t, mapping)
    mapping = {}
    for key, toks in blocks_s.items():
        if key not in blocks_t:
            return None
        for a in toks:
            mapping[a.label] = blocks_t[key][0].label
    return SpanMorphism(s, t, mapping)
