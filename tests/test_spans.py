"""Unit tests for the span, relation and matrix calculi."""

import itertools

import pytest

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

from genlib import powerset_table

A = FinSet("A", ["1", "2"])
B = FinSet("B", ["2x", "3x"])


def span(dom, cod, feet):
    return Span(dom, cod, [Token(f"t{i}", a, b) for i, (a, b) in enumerate(feet)])


class TestFinSet:
    def test_equality_ignores_order_and_name(self):
        assert FinSet("X", ["a", "b"]) == FinSet("Y", ["b", "a"])
        assert hash(FinSet("X", ["a", "b"])) == hash(FinSet("Y", ["b", "a"]))

    def test_equality_compares_label_sets_past_the_identity_check(self):
        x = FinSet("X", ["a", "b", "c"])
        assert x == x and not x != x
        assert x == FinSet("X", ["c", "a", "b"]) and not x != FinSet("X", ["c", "a", "b"])
        assert x != FinSet("X", ["a", "b"]) and x != FinSet("X", ["a", "b", "d"])
        assert x != ["a", "b", "c"]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            FinSet("X", ["a", "a"])
        # the first element that occurs again is named, as the loader names it, not the first repeat met
        with pytest.raises(ValueError, match="^duplicate element 'a' in finite set 'X'$"):
            FinSet("X", ["a", "b", "b", "a"])


class TestComposeSpans:
    def test_singleton_pullback(self):
        s = span(FinSet("A", ["1"]), FinSet("B", ["2"]), [("1", "2")])
        t = span(FinSet("B", ["2"]), FinSet("C", ["3"]), [("2", "3")])
        composite = compose_spans(s, t)
        assert [(tok.left, tok.right) for tok in composite.apex] == [("1", "3")]

    def test_multiplicity_two(self):
        one = FinSet("A", ["1"])
        two = FinSet("B", ["2"])
        three = FinSet("C", ["3"])
        s = span(one, two, [("1", "2"), ("1", "2")])
        t = span(two, three, [("2", "3")])
        composite = compose_spans(s, t)
        assert len(composite.apex) == 2
        assert all((tok.left, tok.right) == ("1", "3") for tok in composite.apex)

    def test_identity_law(self):
        s = span(A, B, [("1", "2x"), ("1", "3x"), ("2", "3x")])
        assert span_iso_eq(compose_spans(identity_span(A), s), s)
        assert span_iso_eq(compose_spans(s, identity_span(B)), s)

    def test_middle_mismatch(self):
        s = span(A, B, [("1", "2x")])
        with pytest.raises(ValueError):
            compose_spans(s, s)

    def test_same_apex_as_naive_double_loop(self):
        import random

        from lawlib import random_span

        rng = random.Random(7)
        X, Y, Z = (FinSet(n, [f"{n}{i}" for i in range(k)]) for n, k in (("X", 3), ("Y", 4), ("Z", 3)))
        for _ in range(200):
            s = random_span(rng, X, Y, max_mult=3, max_tokens=14)
            t = random_span(rng, Y, Z, max_mult=3, max_tokens=14)
            naive = tuple(
                Token((x.label, y.label), x.left, y.right)
                for x in s.apex
                for y in t.apex
                if x.right == y.left
            )
            composite = compose_spans(s, t)
            assert composite.apex == naive
            assert (composite.dom, composite.cod) == (X, Z)


class TestIdentitySpan:
    def test_empty(self):
        assert identity_span(FinSet("E", [])).apex == ()

    def test_singleton(self):
        s = identity_span(FinSet("X", ["x"]))
        assert [(t.left, t.right) for t in s.apex] == [("x", "x")]

    def test_matrix_is_identity(self):
        assert to_matrix(identity_span(A)) == identity_matrix(A)


class TestDaggerSpan:
    def test_identity_fixed(self):
        assert dagger_span(identity_span(A)) == identity_span(A)

    def test_involution(self):
        s = span(A, B, [("1", "2x"), ("2", "2x")])
        assert dagger_span(dagger_span(s)) == s

    def test_single_token(self):
        s = span(FinSet("A", ["1"]), FinSet("B", ["2"]), [("1", "2")])
        d = dagger_span(s)
        assert [(t.left, t.right) for t in d.apex] == [("2", "1")]

    def test_counted_converse_matches_the_token_converse(self):
        import random

        from spanauto.io import parse_automaton

        doc = {
            "format_version": "1", "kind": "span",
            "base": {"nodes": ["n", "m"], "edges": [{"id": "e", "label": "e", "src": "n", "dst": "m"},
                                                    {"id": "f", "label": "f", "src": "m", "dst": "m"}]},
            "fibers": {"n": ["1", "2"], "m": ["x", "y", "z"]},
            "transitions": {
                "e": [{"from": "2", "to": "y", "count": 3}, {"from": "1", "to": "z"}, {"from": "2", "to": "x"}],
                "f": [{"from": "z", "to": "x", "count": 2}, {"from": "x", "to": "z", "count": 2}],
            },
            "initial": "1", "finals": ["x"],
        }
        spans = list(parse_automaton(doc).transitions.values())
        rng = random.Random(0)
        for _ in range(20):
            entries = {(a, b): rng.randint(0, 3) for a in A for b in B}
            spans.append(from_matrix(NatMatrix(A, B, {k: v for k, v in entries.items() if v})))
        for s in spans:
            counted = dagger_span(s)
            assert "apex" not in vars(counted)  # no token built yet, on either side
            tokens = Span(s.cod, s.dom, [Token(t.label, t.right, t.left) for t in s.apex])
            assert counted == tokens == dagger_span(s)
            assert list(counted.counts.items()) == list(tokens.counts.items())
            assert dagger_span(counted) == s


class TestSpanIsoEq:
    def test_relabeled_copy(self):
        s = span(A, B, [("1", "2x"), ("1", "3x")])
        t = Span(A, B, [Token("other1", "1", "2x"), Token("other2", "1", "3x")])
        assert span_iso_eq(s, t)

    def test_multiplicity_matters(self):
        s = span(A, B, [("1", "2x")])
        t = span(A, B, [("1", "2x"), ("1", "2x")])
        assert not span_iso_eq(s, t)

    def test_associativity(self):
        C = FinSet("C", ["c1", "c2"])
        D = FinSet("D", ["d1"])
        s = span(A, B, [("1", "2x"), ("1", "2x"), ("2", "3x")])
        t = span(B, C, [("2x", "c1"), ("3x", "c1"), ("3x", "c2")])
        u = span(C, D, [("c1", "d1"), ("c2", "d1"), ("c2", "d1")])
        assert span_iso_eq(
            compose_spans(compose_spans(s, t), u), compose_spans(s, compose_spans(t, u))
        )
        # the matrix product agrees, which is how the equality is decided
        prod = matrix_compose(matrix_compose(to_matrix(s), to_matrix(t)), to_matrix(u))
        assert to_matrix(compose_spans(compose_spans(s, t), u)) == prod

    def test_foot_mismatch_rejected(self):
        s = span(A, B, [])
        t = span(B, A, [])
        with pytest.raises(ValueError):
            span_iso_eq(s, t)


def _all_matrices(dom, cod, max_entry=2):
    cells = [(a, b) for a in dom for b in cod]
    for values in itertools.product(range(max_entry + 1), repeat=len(cells)):
        yield NatMatrix(dom, cod, dict(zip(cells, values)))


class TestImage:
    def test_parallel_tokens_collapse(self):
        s = span(FinSet("A", ["1"]), FinSet("B", ["2"]), [("1", "2"), ("1", "2")])
        assert image(s).pairs == {("1", "2")}

    def test_empty(self):
        assert image(span(A, B, [])).pairs == frozenset()

    def test_functorial_exhaustive_size_two(self):
        # every span with feet of size 2 and multiplicities up to 2
        X = FinSet("X", ["x0", "x1"])
        Y = FinSet("Y", ["y0", "y1"])
        Z = FinSet("Z", ["z0", "z1"])
        for m in _all_matrices(X, Y):
            s = from_matrix(m)
            for n in _all_matrices(Y, Z):
                t = from_matrix(n)
                assert image(compose_spans(s, t)) == compose_relations(image(s), image(t))


class TestRelationImage:
    def test_matches_a_scan_of_the_pairs(self):
        r = Relation(A, B, {("1", "2x"), ("1", "3x")})
        for a in list(A) + ["zz"]:
            assert r(a) == frozenset(b for x, b in r.pairs if x == a)
        assert r == Relation(A, B, [("1", "3x"), ("1", "2x")])
        assert hash(r) == hash(Relation(A, B, [("1", "3x"), ("1", "2x")]))


class TestComposeRelations:
    def test_identity(self):
        r = Relation(A, B, {("1", "2x"), ("2", "3x")})
        assert compose_relations(identity_relation(A), r) == r
        assert compose_relations(r, identity_relation(B)) == r

    def test_chain(self):
        one, two, three = FinSet("A", ["1"]), FinSet("B", ["2"]), FinSet("C", ["3"])
        r = Relation(one, two, {("1", "2")})
        q = Relation(two, three, {("2", "3")})
        assert compose_relations(r, q).pairs == {("1", "3")}

    def test_converse_composite_reflexive_on_support(self):
        r = Relation(A, B, {("1", "2x"), ("1", "3x"), ("2", "3x")})
        rr = compose_relations(r, dagger_relation(r))
        for a, _ in r.pairs:
            assert (a, a) in rr.pairs


class TestDaggerRelation:
    def test_identity_fixed(self):
        assert dagger_relation(identity_relation(A)) == identity_relation(A)

    def test_involution(self):
        r = Relation(A, B, {("1", "2x"), ("2", "2x")})
        assert dagger_relation(dagger_relation(r)) == r

    def test_single_pair(self):
        r = Relation(FinSet("A", ["1"]), FinSet("B", ["2"]), {("1", "2")})
        assert dagger_relation(r).pairs == {("2", "1")}


class TestPowersetMap:
    def test_figure_step(self):
        Q = FinSet("Q", ["1", "2"])
        r = Relation(Q, Q, {("1", "1"), ("1", "2")})
        assert powerset_map(r)({"1"}) == frozenset({"1", "2"})

    def test_empty_subset(self):
        r = Relation(A, B, {("1", "2x")})
        assert powerset_map(r)(frozenset()) == frozenset()

    def test_functorial_exhaustive_size_two(self):
        X = FinSet("X", ["x0", "x1"])
        Y = FinSet("Y", ["y0"])
        Z = FinSet("Z", ["z0", "z1"])
        x_pairs = [(a, b) for a in X for b in Y]
        z_pairs = [(a, b) for a in Y for b in Z]
        for bits_r in itertools.product([0, 1], repeat=len(x_pairs)):
            r = Relation(X, Y, {p for p, keep in zip(x_pairs, bits_r) if keep})
            for bits_q in itertools.product([0, 1], repeat=len(z_pairs)):
                q = Relation(Y, Z, {p for p, keep in zip(z_pairs, bits_q) if keep})
                lhs = powerset_map(compose_relations(r, q))
                rf, qf = powerset_map(r), powerset_map(q)
                for s in subsets_of(X):
                    assert lhs(s) == qf(rf(s))

    def test_table_matches_evaluation(self):
        r = Relation(A, B, {("1", "2x"), ("2", "3x")})
        table = powerset_table(r)
        assert table[frozenset({"1", "2"})] == frozenset({"2x", "3x"})
        assert len(table) == 4


class TestMatrices:
    def test_identity_span_matrix(self):
        m = to_matrix(identity_span(A))
        assert m.rows() == [[1, 0], [0, 1]]

    def test_counts(self):
        s = span(A, B, [("1", "2x"), ("1", "2x"), ("2", "2x")])
        m = to_matrix(s)
        assert m["1", "2x"] == 2
        assert m["2", "2x"] == 1
        assert m["2", "3x"] == 0

    def test_functoriality(self):
        C = FinSet("C", ["c"])
        s = span(A, B, [("1", "2x"), ("1", "2x")])
        t = span(B, C, [("2x", "c"), ("3x", "c")])
        assert to_matrix(compose_spans(s, t)) == matrix_compose(to_matrix(s), to_matrix(t))

    def test_roundtrip_matrix_exact(self):
        m = NatMatrix(A, B, {("1", "2x"): 3, ("2", "3x"): 1})
        assert to_matrix(from_matrix(m)) == m

    def test_roundtrip_span_iso(self):
        s = span(A, B, [("1", "2x"), ("1", "2x"), ("2", "3x")])
        assert span_iso_eq(from_matrix(to_matrix(s)), s)

    def test_zero_matrix_empty_apex(self):
        assert from_matrix(NatMatrix(A, B, {})).apex == ()

    def test_scalar_product(self):
        one = FinSet("U", ["u"])
        m = NatMatrix(one, one, {("u", "u"): 2})
        n = NatMatrix(one, one, {("u", "u"): 3})
        assert matrix_compose(m, n)["u", "u"] == 6

    def test_units(self):
        m = NatMatrix(A, B, {("1", "2x"): 2})
        assert matrix_compose(identity_matrix(A), m) == m
        assert matrix_compose(m, identity_matrix(B)) == m

    def test_agrees_with_span_composition(self):
        for m_entries in [{}, {("1", "2x"): 2}, {("1", "2x"): 1, ("2", "3x"): 2}]:
            m = NatMatrix(A, B, m_entries)
            n = NatMatrix(B, A, {("2x", "1"): 1, ("3x", "2"): 2})
            via_spans = to_matrix(compose_spans(from_matrix(m), from_matrix(n)))
            assert via_spans == matrix_compose(m, n)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            NatMatrix(A, B, {("1", "2x"): -1})

    def test_outside_keys_rejected(self):
        with pytest.raises(ValueError):
            NatMatrix(A, B, {("1", "1"): 1})

    def test_internal_results_equal_validated_matrices(self):
        s = span(A, B, [("1", "2x"), ("1", "2x"), ("2", "3x")])
        t = span(B, A, [("2x", "1"), ("3x", "1"), ("3x", "2")])
        m = to_matrix(s)
        assert m == NatMatrix(A, B, {("1", "2x"): 2, ("2", "3x"): 1})
        product = matrix_compose(m, to_matrix(t))
        assert dict(product.entries) == {("1", "1"): 2, ("2", "1"): 1, ("2", "2"): 1}
        assert product == NatMatrix(A, A, product.entries)
        assert hash(product) == hash(NatMatrix(A, A, product.entries))

    def test_rows_match_a_scan_of_the_entries(self):
        m = NatMatrix(A, B, {("1", "2x"): 2, ("1", "3x"): 1})
        for a in A:
            scanned = {b: n for (x, b), n in m.entries.items() if x == a}
            assert m.row(a) == Multiset(B, scanned)
        with pytest.raises(KeyError):
            m.row("zz")


class TestMultisets:
    def test_unit(self):
        X = FinSet("X", ["x"])
        assert multiset_unit(X, "x") == Multiset(X, {"x": 1})

    def test_unit_unknown_element(self):
        with pytest.raises(ValueError):
            multiset_unit(FinSet("X", ["x"]), "y")

    def test_extend_unit_is_row(self):
        m = NatMatrix(A, B, {("1", "2x"): 2, ("2", "3x"): 1})
        assert multiset_extend(m, multiset_unit(A, "1")) == m.row("1")

    def test_extend_identity_matrix(self):
        v = Multiset(A, {"1": 2, "2": 5})
        assert multiset_extend(identity_matrix(A), v) == v

    def test_extend_zero(self):
        m = NatMatrix(A, B, {("1", "2x"): 2})
        assert multiset_extend(m, Multiset(A, {})) == Multiset(B, {})

    def test_extend_hand_example(self):
        X = FinSet("X", ["x", "y"])
        m = NatMatrix(A, X, {("1", "x"): 2, ("2", "x"): 1, ("2", "y"): 1})
        v = Multiset(A, {"1": 1, "2": 1})
        assert multiset_extend(m, v) == Multiset(X, {"x": 3, "y": 1})

    def test_extend_linear(self):
        m = NatMatrix(A, B, {("1", "2x"): 2, ("2", "2x"): 1})
        v = Multiset(A, {"1": 1})
        w = Multiset(A, {"1": 2, "2": 1})
        assert multiset_extend(m, v + w) == multiset_extend(m, v) + multiset_extend(m, w)

    def test_base_mismatch(self):
        m = NatMatrix(A, B, {})
        with pytest.raises(ValueError):
            multiset_extend(m, Multiset(B, {}))

    def test_extend_matches_a_scan_of_every_entry(self):
        import random

        def extend_by_scan(m, v):
            counts = {}
            for (a, b), u in m.entries.items():
                if v[a]:
                    counts[b] = counts.get(b, 0) + v[a] * u
            return Multiset(m.cod, counts)

        rng = random.Random(5)
        for _ in range(200):
            dom = FinSet("D", [f"d{i}" for i in range(rng.randint(0, 5))])
            cod = FinSet("C", [f"c{i}" for i in range(rng.randint(0, 5))])
            m = NatMatrix(dom, cod, {(a, b): rng.choice([0, 0, 1, 2, 3]) for a in dom for b in cod})
            v = Multiset(dom, {a: rng.choice([0, 1, 2, 7]) for a in dom})
            got = multiset_extend(m, v)
            assert got == extend_by_scan(m, v)
            assert hash(got) == hash(extend_by_scan(m, v))
            assert all(n > 0 for n in got.counts.values())
            for a in dom:
                assert m.row(a) == Multiset(cod, {b: n for (x, b), n in m.entries.items() if x == a})

    def test_trusted_relations_equal_validated_ones(self):
        r = Relation(A, B, {("1", "2x"), ("2", "3x"), ("2", "2x")})
        q = Relation(B, A, {("2x", "1"), ("3x", "1")})
        s = span(A, B, [("1", "2x"), ("1", "2x"), ("2", "3x")])
        for got in (compose_relations(r, q), dagger_relation(r), image(s)):
            validated = Relation(got.dom, got.cod, got.pairs)
            assert got == validated and hash(got) == hash(validated)
            for x in got.dom:
                assert got(x) == validated(x)


class TestFlatten:
    def test_unit_of_unit(self):
        X = FinSet("X", ["x", "y"])
        u = multiset_unit(X, "x")
        assert multiset_flatten({u: 1}, X) == u

    def test_scalar(self):
        X = FinSet("X", ["x"])
        assert multiset_flatten({Multiset(X, {"x": 2}): 3}, X) == Multiset(X, {"x": 6})

    def test_extension_square(self):
        m = NatMatrix(A, B, {("1", "2x"): 2, ("2", "3x"): 1})
        for counts in [{"1": 1}, {"1": 2, "2": 1}, {}]:
            v = Multiset(A, counts)
            extended = multiset_extend(m, v)
            assert multiset_flatten({extended: 1}, B) == extended


class TestKleisliStructure:
    def test_unit_singleton(self):
        X = FinSet("X", ["x"])
        assert rel_unit(X).pairs == {("x", "{x}")}

    def test_unit_empty_set(self):
        assert rel_unit(FinSet("E", [])).pairs == frozenset()

    def test_counit_singleton(self):
        X = FinSet("X", ["1"])
        assert rel_counit(X).pairs == {("{1}", "1")}

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4])
    def test_counit_triangle(self, size):
        X = FinSet("X", [f"q{i}" for i in range(size)])
        step = powerset_map(rel_counit(X))
        for s in subsets_of(X):
            assert step(frozenset({subset_label(s)})) == s

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4])
    def test_unit_counit_identity(self, size):
        X = FinSet("X", [f"q{i}" for i in range(size)])
        assert compose_relations(rel_unit(X), rel_counit(X)) == identity_relation(X)


class TestImageUnit:
    def test_flat_span_gives_bijection(self):
        s = span(A, B, [("1", "2x"), ("2", "3x")])
        assert image_unit(s).is_iso()

    def test_parallel_tokens_share_target(self):
        s = span(A, B, [("1", "2x"), ("1", "2x")])
        morphism = image_unit(s)
        assert not morphism.is_iso()
        targets = {morphism.mapping[t.label] for t in s.apex}
        assert len(targets) == 1

    def test_feet_preserved(self):
        s = span(A, B, [("1", "2x"), ("1", "3x"), ("1", "3x")])
        morphism = image_unit(s)
        for t in s.apex:
            u = morphism.target.token(morphism.mapping[t.label])
            assert (u.left, u.right) == (t.left, t.right)


class TestMorphismSearch:
    def test_identity_witness(self):
        s = span(A, B, [("1", "2x"), ("2", "3x")])
        morphism = span_morphism_search(s, s)
        assert morphism is not None and morphism.is_iso()

    def test_no_morphism_into_empty(self):
        s = span(A, B, [("1", "2x")])
        t = span(A, B, [])
        assert span_morphism_search(s, t) is None

    def test_morphism_but_no_iso(self):
        s = span(A, B, [("1", "2x")])
        t = span(A, B, [("1", "2x"), ("1", "2x")])
        assert span_morphism_search(s, t) is not None
        assert span_morphism_search(s, t, iso_required=True) is None
        # the other direction also has a morphism but no iso
        assert span_morphism_search(t, s) is not None
        assert span_morphism_search(t, s, iso_required=True) is None
