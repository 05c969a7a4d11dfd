"""Seeded randomized law suites for the span calculus.

Each law draws random instances from a seeded generator and checks an
exact equation; sizes ramp up with the case index so the first failing
case of a broken law tends to be small.  Acceptance criterion 5 runs
every suite; ``run_law`` runs one.
"""

from __future__ import annotations

import itertools
import random
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

from spanauto.spans import (
    FinSet,
    Multiset,
    NatMatrix,
    Relation,
    Span,
    Token,
    compose_relations,
    compose_spans,
    dagger_relation,
    dagger_span,
    from_matrix,
    identity_matrix,
    identity_relation,
    identity_span,
    image,
    image_unit,
    matrix_compose,
    multiset_extend,
    multiset_flatten,
    multiset_unit,
    powerset_map,
    rel_counit,
    rel_unit,
    span_iso_eq,
    span_morphism_search,
    subset_label,
    subsets_of,
    to_matrix,
)

__all__ = [
    "LawFailure",
    "LAWS",
    "run_law",
    "random_finset",
    "random_span",
    "random_relation",
    "random_matrix",
    "random_multiset",
]

MAX_SET_SIZE = 5


@dataclass
class LawFailure:
    law: str
    case: int
    description: str

    def __str__(self):
        return f"law {self.law!r} failed on case {self.case}: {self.description}"


# ---------------------------------------------------------------------------
# random instances

# One name counter per generator, so generated names depend only on the
# generator's seed and on the calls made with it, never on other runs.
_NAME_COUNTERS: "weakref.WeakKeyDictionary[random.Random, Iterator[int]]" = weakref.WeakKeyDictionary()


def _fresh(rng: random.Random, prefix: str) -> str:
    counter = _NAME_COUNTERS.setdefault(rng, itertools.count(1))
    return f"{prefix}{next(counter)}"


# The separators that display strings of derived tokens once joined names
# with, and that subset labels escape, so drawn names hold them.  A state
# name is ``{set}.{i}`` between 0-2 of them, or, from the third name on,
# two earlier names joined by a comma: a subset label's own reading of the
# pair, so the powerset's labels of ``{x,y}`` and ``{"x,y"}`` meet unless
# members are escaped.  A set's first name is at times the empty name, so
# the labels of ``{}`` and ``{""}`` meet unless it has a text of its own.
# One span's tokens are ``a``, ``a;a``, ``a;a;a``,
# ... in random order, over one drawn separator, so two joined pairs of
# them often read alike (``a;a`` then ``a``, against ``a`` then ``a;a``).
_SEPARATORS = ";>,#(){}\\"


def _separators(rng: random.Random) -> str:
    return "".join(rng.choices(_SEPARATORS, k=rng.randint(0, 2)))


def random_finset(rng: random.Random, max_size: int = MAX_SET_SIZE, min_size: int = 0) -> FinSet:
    size = rng.randint(min_size, max_size)
    name = _fresh(rng, "S")
    names: list[str] = []
    for i in range(size):
        if i == 0 and rng.random() < 0.25:
            names.append("")
            continue
        x = ",".join(sorted(rng.sample(names, 2))) if len(names) > 1 and rng.random() < 0.5 else ""
        names.append(x if x and x not in names else f"{_separators(rng)}{name}.{i}{_separators(rng)}")
    return FinSet(name, names)


def random_span(rng: random.Random, dom: FinSet, cod: FinSet, max_mult: int = 2,
                max_tokens: int = 10) -> Span:
    apex = []
    if len(dom) and len(cod):
        budget = rng.randint(0, max_tokens)
        counts: dict[tuple[str, str], int] = {}
        for _ in range(budget):
            key = (rng.choice(dom.elements), rng.choice(cod.elements))
            if counts.get(key, 0) < max_mult:
                counts[key] = counts.get(key, 0) + 1
        feet = [key for key, c in counts.items() for _ in range(c)]
        sep = rng.choice(_SEPARATORS)
        names = [sep.join("a" * k) for k in range(1, len(feet) + 1)]
        rng.shuffle(names)
        apex = [Token(x, a, b) for x, (a, b) in zip(names, feet)]
    return Span(dom, cod, apex)


def random_relation(rng: random.Random, dom: FinSet, cod: FinSet) -> Relation:
    pairs = {
        (a, b)
        for a in dom
        for b in cod
        if rng.random() < 0.35
    }
    return Relation(dom, cod, pairs)


def random_matrix(rng: random.Random, dom: FinSet, cod: FinSet, max_entry: int = 3) -> NatMatrix:
    entries = {}
    for a in dom:
        for b in cod:
            if rng.random() < 0.4:
                entries[(a, b)] = rng.randint(1, max_entry)
    return NatMatrix(dom, cod, entries)


def random_multiset(rng: random.Random, base: FinSet, max_count: int = 3) -> Multiset:
    return Multiset(base, {x: rng.randint(0, max_count) for x in base})


def _sizes(case: int, cases: int) -> int:
    # small cases first so failures minimize themselves
    return min(MAX_SET_SIZE, 1 + (case * MAX_SET_SIZE) // max(1, cases))


# ---------------------------------------------------------------------------
# the laws


def law_span_associativity(rng, size) -> Optional[str]:
    a, b, c, d = (random_finset(rng, size) for _ in range(4))
    s = random_span(rng, a, b)
    t = random_span(rng, b, c)
    u = random_span(rng, c, d)
    left = compose_spans(compose_spans(s, t), u)
    right = compose_spans(s, compose_spans(t, u))
    if not span_iso_eq(left, right):
        return f"(s;t);u != s;(t;u) for spans with matrices {to_matrix(s).rows()}, {to_matrix(t).rows()}, {to_matrix(u).rows()}"
    return None


def law_span_identities(rng, size) -> Optional[str]:
    a, b = random_finset(rng, size), random_finset(rng, size)
    s = random_span(rng, a, b)
    if not span_iso_eq(compose_spans(identity_span(a), s), s):
        return "id;s != s"
    if not span_iso_eq(compose_spans(s, identity_span(b)), s):
        return "s;id != s"
    return None


def law_matrix_functor(rng, size) -> Optional[str]:
    a, b, c = (random_finset(rng, size) for _ in range(3))
    s = random_span(rng, a, b)
    t = random_span(rng, b, c)
    if to_matrix(compose_spans(s, t)) != matrix_compose(to_matrix(s), to_matrix(t)):
        return f"counting matrix of a composite differs from the matrix product"
    if to_matrix(identity_span(a)) != identity_matrix(a):
        return "counting matrix of the identity span is not the identity matrix"
    return None


def law_image_functor(rng, size) -> Optional[str]:
    a, b, c = (random_finset(rng, size) for _ in range(3))
    s = random_span(rng, a, b)
    t = random_span(rng, b, c)
    if image(compose_spans(s, t)) != compose_relations(image(s), image(t)):
        return "image of a composite differs from the composite of images"
    if image(identity_span(a)) != identity_relation(a):
        return "image of the identity span is not the identity relation"
    return None


def law_powerset_functor(rng, size) -> Optional[str]:
    a, b, c = (random_finset(rng, size) for _ in range(3))
    r = random_relation(rng, a, b)
    q = random_relation(rng, b, c)
    composite = powerset_map(compose_relations(r, q))
    rf, qf = powerset_map(r), powerset_map(q)
    for s in subsets_of(a):
        if composite(s) != qf(rf(s)):
            return f"powerset map of a composite differs at subset {subset_label(s)}"
    ident = powerset_map(identity_relation(a))
    for s in subsets_of(a):
        if ident(s) != s:
            return f"powerset map of the identity moves subset {subset_label(s)}"
    return None


def law_matrix_roundtrip(rng, size) -> Optional[str]:
    a, b = random_finset(rng, size), random_finset(rng, size)
    m = random_matrix(rng, a, b)
    if to_matrix(from_matrix(m)) != m:
        return "matrix -> span -> matrix is not the identity"
    s = random_span(rng, a, b)
    if not span_iso_eq(from_matrix(to_matrix(s)), s):
        return "span -> matrix -> span is not an isomorphism"
    return None


def law_monad_unit(rng, size) -> Optional[str]:
    a, b = random_finset(rng, size, min_size=1), random_finset(rng, size)
    m = random_matrix(rng, a, b)
    x = rng.choice(a.elements)
    if multiset_extend(m, multiset_unit(a, x)) != m.row(x):
        return f"extension along the unit at {x!r} is not the matrix row"
    v = random_multiset(rng, a)
    if multiset_extend(identity_matrix(a), v) != v:
        return "extension of the identity matrix is not the identity"
    return None


def law_monad_associativity(rng, size) -> Optional[str]:
    a, b, c = (random_finset(rng, size) for _ in range(3))
    m = random_matrix(rng, a, b)
    n = random_matrix(rng, b, c)
    v = random_multiset(rng, a)
    if multiset_extend(n, multiset_extend(m, v)) != multiset_extend(matrix_compose(m, n), v):
        return "iterated extension differs from extension along the composite"
    return None


def law_extension_linearity(rng, size) -> Optional[str]:
    a, b = random_finset(rng, size), random_finset(rng, size)
    m = random_matrix(rng, a, b)
    v = random_multiset(rng, a)
    w = random_multiset(rng, a)
    if multiset_extend(m, v + w) != multiset_extend(m, v) + multiset_extend(m, w):
        return "extension is not additive"
    return None


def law_kleisli_triangles(rng, size) -> Optional[str]:
    a = random_finset(rng, min(size, 4))
    step = powerset_map(rel_counit(a))
    for s in subsets_of(a):
        if step(frozenset({subset_label(s)})) != s:
            return f"counit applied to the singleton of {subset_label(s)} does not return it"
    if compose_relations(rel_unit(a), rel_counit(a)) != identity_relation(a):
        return "unit followed by counit is not the identity relation"
    return None


def law_dagger(rng, size) -> Optional[str]:
    a, b, c = (random_finset(rng, size) for _ in range(3))
    s = random_span(rng, a, b)
    t = random_span(rng, b, c)
    # a drawn span holds its tokens; its counted form, as a document loads it, takes dagger_span's other path
    for form, s_, t_ in (("", s, t), (" on counted spans", from_matrix(to_matrix(s)), from_matrix(to_matrix(t)))):
        if dagger_span(dagger_span(s_)) != s_:
            return "span dagger is not involutive" + form
        if not span_iso_eq(dagger_span(compose_spans(s_, t_)), compose_spans(dagger_span(t_), dagger_span(s_))):
            return "span dagger is not contravariant on composition" + form
    r = random_relation(rng, a, b)
    q = random_relation(rng, b, c)
    if dagger_relation(dagger_relation(r)) != r:
        return "relation dagger is not involutive"
    if dagger_relation(compose_relations(r, q)) != compose_relations(dagger_relation(q), dagger_relation(r)):
        return "relation dagger is not contravariant on composition"
    return None


def law_flatten_square(rng, size) -> Optional[str]:
    a, b = random_finset(rng, size), random_finset(rng, size)
    m = random_matrix(rng, a, b)
    v = random_multiset(rng, a)
    extended = multiset_extend(m, v)
    if multiset_flatten({extended: 1}, b) != extended:
        return "flattening the unit of an extension does not return the extension"
    outer = {random_multiset(rng, b): rng.randint(0, 2) for _ in range(rng.randint(0, 3))}
    flat = multiset_flatten(outer, b)
    manual = {x: sum(n * w[x] for w, n in outer.items()) for x in b}
    if {x: c for x, c in manual.items() if c} != dict(flat.counts):
        return "flatten differs from the weighted sum"
    return None


def law_image_unit(rng, size) -> Optional[str]:
    a, b = random_finset(rng, size), random_finset(rng, size)
    s = random_span(rng, a, b)
    morphism = image_unit(s)
    multiplicities = to_matrix(s)
    flat = all(n <= 1 for n in multiplicities.entries.values())
    if morphism.is_iso() != flat:
        return "collapse onto the image is an isomorphism iff multiplicities stay below two"
    return None


def law_morphism_search(rng, size) -> Optional[str]:
    a, b = random_finset(rng, min(size, 3)), random_finset(rng, min(size, 3))
    s = random_span(rng, a, b, max_tokens=3)
    t = random_span(rng, a, b, max_tokens=3)
    found = span_morphism_search(s, t) is not None
    oracle = _brute_force_morphism_exists(s, t)
    if found != oracle:
        return f"block search says {found}, exhaustive search says {oracle}"
    iso_found = span_morphism_search(s, t, iso_required=True) is not None
    if iso_found != (to_matrix(s) == to_matrix(t)):
        return "iso search disagrees with matrix equality"
    return None


def _brute_force_morphism_exists(s: Span, t: Span) -> bool:
    if not s.apex:
        return True
    if not t.apex:
        return False
    for choice in itertools.product(t.apex, repeat=len(s.apex)):
        if all(
            (u.left, u.right) == (x.left, x.right)
            for x, u in zip(s.apex, choice)
        ):
            return True
    return False


LAWS: dict[str, Callable] = {
    "span-associativity": law_span_associativity,
    "span-identities": law_span_identities,
    "counting-functor": law_matrix_functor,
    "image-functor": law_image_functor,
    "powerset-functor": law_powerset_functor,
    "matrix-span-roundtrip": law_matrix_roundtrip,
    "multiset-unit": law_monad_unit,
    "multiset-associativity": law_monad_associativity,
    "extension-linearity": law_extension_linearity,
    "kleisli-triangles": law_kleisli_triangles,
    "dagger": law_dagger,
    "flatten-square": law_flatten_square,
    "image-collapse": law_image_unit,
    "morphism-search": law_morphism_search,
}


def run_law(name: str, seed: int, cases: int) -> Optional[LawFailure]:
    """Run one law suite; returns the first failure, if any."""
    if cases < 0:
        raise ValueError(f"cases must be nonnegative, got {cases}")
    law = LAWS[name]
    rng = random.Random(f"{name}:{seed}")
    for case in range(cases):
        description = law(rng, _sizes(case, cases))
        if description is not None:
            return LawFailure(name, case, description)
    return None

