"""Tests for the powerset and counting determinizations and the classical oracle."""

import pytest

from spanauto import determinize
from spanauto.spans import (
    POWERSET_CAP, FinSet, Multiset, Span, Token, multiset_extend, multiset_unit, powerset_map, subsets_of,
)
from spanauto.automata import (
    BaseGraph,
    DetAutomaton,
    RelAutomaton,
    SpanAutomaton,
    Word,
    accepted,
    count_paths,
    enumerate_words,
    language,
)
from spanauto.determinize import (
    ClassicalNFA,
    classical_subset_construction,
    det,
    mdet_expand,
    mdet_run,
    prune_reachable,
    reachable_iso_check,
    count_vector_text,
    expansion_state_label,
    rel_of,
    span_automaton_of_classical,
    subset_state_label,
)
from spanauto.fixtures import two_phase_example, two_state_classical, two_state_example

from genlib import lifts_uniquely, mdet_run_count, nth_letter_from_end, odd_names_example


class TestRelOf:
    def test_fixture_relations(self):
        r = rel_of(two_state_example())
        assert r.transitions["a"].pairs == {("1", "1"), ("1", "2")}
        assert r.transitions["b"].pairs == {("1", "2"), ("2", "2")}

    def test_doubled_tokens_collapse(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        a = SpanAutomaton(
            base, {"n": q}, {"e": Span(q, q, [Token("u", "1", "1"), Token("v", "1", "1")])}, "1", {"1"}
        )
        assert rel_of(a).transitions["e"].pairs == {("1", "1")}

    def test_language_preserved(self):
        a = two_state_example()
        r = rel_of(a)
        for w in enumerate_words(a.base, "s", 6):
            assert accepted(a, w) == accepted(r, w)


class TestDet:
    def test_fixture_exact_structure(self):
        d = det(two_state_example())
        assert list(d.fibers["s"]) == ["{}", "{1}", "{2}", "{1,2}"]
        assert d.transitions["a"] == {"{}": "{}", "{1}": "{1,2}", "{2}": "{}", "{1,2}": "{1,2}"}
        assert d.transitions["b"] == {"{}": "{}", "{1}": "{2}", "{2}": "{2}", "{1,2}": "{2}"}
        assert d.initial == "{1}"
        assert d.finals == {"{2}", "{1,2}"}

    def test_empty_relations_sink(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        a = SpanAutomaton(base, {"n": q}, {"e": Span(q, q, [])}, "1", {"1"})
        d = det(a)
        assert d.transitions["e"] == {"{}": "{}", "{1}": "{}"}

    def test_two_phase_states_stay_single_fiber(self):
        d = det(two_phase_example())
        assert len(d.fibers["c"]) == 4
        assert len(d.fibers["d"]) == 8
        # every determinized state is a subset of exactly one original fiber
        left = set(two_phase_example().fibers["c"].elements)
        right = set(two_phase_example().fibers["d"].elements)
        for node, original in (("c", left), ("d", right)):
            for lbl in d.fibers[node]:
                prefix, _, subset = lbl.partition(":")
                assert prefix == node
                members = set(subset.strip("{}").split(",")) - {""}
                assert members <= original

    def test_language_preserved_up_to_six(self):
        for a in (two_state_example(), two_phase_example()):
            d = det(a)
            for w in enumerate_words(a.base, a.initial_node, 6):
                assert accepted(a, w) == accepted(d, w)

    def test_fiber_wider_than_mask_refused(self):
        # one state wider than a subset mask covers is refused, pruned or not
        wide = FinSet("Q", [f"q{i:02d}" for i in range(POWERSET_CAP + 1)])
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        a = SpanAutomaton(base, {"n": wide}, {"e": Span(wide, wide, [])}, "q00", set())
        for prune in (False, True):
            with pytest.raises(ValueError, match=f"has {POWERSET_CAP + 1} states; refusing powerset above {POWERSET_CAP}$"):
                det(a, prune=prune)

    def test_passes_unique_lift(self):
        for a, max_len in ((two_state_example(), 4), (two_phase_example(), 3)):
            assert lifts_uniquely(det(a), max_len)

    def test_random_determinizations_pass_unique_lift(self):
        import random
        from genlib import random_span_automaton

        rng = random.Random(78)
        for _ in range(10):
            a = random_span_automaton(rng, max_nodes=2, max_states=3, word_cap=150, path_cap=300)
            assert lifts_uniquely(det(a), 3)


    def test_table_rows_and_masks_match_the_matrix(self):
        # a function table is read as rows and successor masks directly; no count matrix is built for them
        import random
        from genlib import random_span_automaton
        from spanauto.determinize import _masks

        rng = random.Random(16)
        for _ in range(30):
            a = random_span_automaton(rng, max_nodes=3, max_states=3)
            for d in (det(a), det(a, prune=True), mdet_expand(a, 6, 3)):
                view = _masks(d)
                bits, masks = view
                rows = {e.id: d.rows(e.id) for e in d.base.edges}
                assert _masks(d) is view  # built once, then read from the automaton's cache
                assert all(("matrix", e.id) not in d._views for e in d.base.edges)
                assert bits == {n: {q: i for i, q in enumerate(sorted(d.fibers[n]))} for n in d.base.nodes}
                for e in d.base.edges:
                    entries = d.matrix(e.id).entries
                    assert rows[e.id] == {q: {t: c} for (q, t), c in entries.items()}
                    want = [0] * len(bits[e.src])
                    for q, t in entries:
                        want[bits[e.src][q]] |= 1 << bits[e.dst][t]
                    assert masks[e.id] == want


class TestMDet:
    def test_fixture_matrices(self):
        a = two_state_example()
        assert a.matrix("a").rows() == [[1, 1], [0, 0]]
        assert a.matrix("b").rows() == [[0, 1], [0, 1]]
        assert dict(mdet_run(a, Word("s")).counts) == {"1": 1}

    def test_deterministic_input_gives_permutation_rows(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1", "2"])
        a = SpanAutomaton(
            base, {"n": q}, {"e": Span(q, q, [Token("u", "1", "2"), Token("v", "2", "2")])}, "1", {"2"}
        )
        rows = a.matrix("e").rows()
        assert all(sum(row) == 1 and max(row) == 1 for row in rows)

    def test_empty_span_zero_matrix(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        a = SpanAutomaton(base, {"n": q}, {"e": Span(q, q, [])}, "1", set())
        assert a.matrix("e").rows() == [[0]]

    def test_run_single_letter(self):
        a = two_state_example()
        assert dict(mdet_run(a, Word("s", ("a",))).counts) == {"1": 1, "2": 1}

    def test_run_empty_word(self):
        a = two_state_example()
        assert mdet_run(a, Word("s")) == multiset_unit(a.fibers["s"], a.initial)

    def test_run_ab_and_count(self):
        a = two_state_example()
        assert dict(mdet_run(a, Word("s", ("a", "b"))).counts) == {"2": 2}
        assert mdet_run_count(a, Word("s", ("a", "b"))) == 2

    def test_count_examples(self):
        a = two_state_example()
        assert mdet_run_count(a, Word("s")) == count_paths(a, Word("s")) == 0
        assert mdet_run_count(a, Word("s", ("b", "b"))) == count_paths(a, Word("s", ("b", "b"))) == 1

    def test_counts_match_path_oracle(self):
        a = two_phase_example()
        for w in enumerate_words(a.base, "c", 5):
            assert mdet_run_count(a, w) == count_paths(a, w)

    def test_ill_based_word_rejected(self):
        with pytest.raises(ValueError):
            mdet_run(two_phase_example(), Word("d"))

    def test_run_splits_along_word_concatenation(self):
        from spanauto.spans import multiset_extend
        from genlib import run_word_span

        a = two_phase_example()
        u = Word("c", ("a", "b"))
        v = Word("c", ("x", "c"))
        uv = Word("c", ("a", "b", "x", "c"))
        assert mdet_run(a, uv) == multiset_extend(run_word_span(a, v), mdet_run(a, u))


class TestMDetExpand:
    def test_fixture_reaches_five_states(self):
        exp = mdet_expand(two_state_example(), max_states=64, max_len=8)
        assert not exp.truncated
        assert set(exp.fibers["s"].elements) == {"(1,0)", "(1,1)", "(0,1)", "(0,0)", "(0,2)"}
        assert exp.initial == "(1,0)"
        assert exp.finals == {"(1,1)", "(0,1)", "(0,2)"}

    def test_zero_matrices_two_states(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        a = SpanAutomaton(base, {"n": q}, {"e": Span(q, q, [])}, "1", set())
        exp = mdet_expand(a, max_states=8, max_len=4)
        assert set(exp.fibers["n"].elements) == {"(1)", "(0)"}

    def test_truncation_flag(self):
        # counts grow without bound, so a small state cap must truncate
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        a = SpanAutomaton(
            base, {"n": q}, {"e": Span(q, q, [Token("u", "1", "1"), Token("v", "1", "1")])}, "1", {"1"}
        )
        exp = mdet_expand(a, max_states=3, max_len=10)
        assert exp.truncated
        assert exp.truncated_by == ("max_states",)

    def test_state_bound_records_moves_edge_by_edge(self):
        # both states keep their a-move; their b-targets did not fit under the bound
        exp = mdet_expand(two_state_example(), max_states=2, max_len=6)
        assert exp.truncated_by == ("max_states",)
        assert exp.transitions == {"a": {"(1,0)": "(1,1)", "(1,1)": "(1,1)"}, "b": {}}

    def test_deterministic_input_matches_reachable_original(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n"), ("f", "f", "n", "n")])
        q = FinSet("Q", ["1", "2", "3"])
        a = SpanAutomaton(
            base,
            {"n": q},
            {
                "e": Span(q, q, [Token("e1", "1", "2"), Token("e2", "2", "2"), Token("e3", "3", "1")]),
                "f": Span(q, q, [Token("f1", "1", "1"), Token("f2", "2", "1"), Token("f3", "3", "3")]),
            },
            "1",
            {"2"},
        )
        exp = mdet_expand(a, max_states=16, max_len=12)
        assert not exp.truncated
        from genlib import to_det_automaton

        original = to_det_automaton(rel_of(a))
        assert reachable_iso_check(exp.as_det_automaton(), original) is not None


def expand_by_multisets(m, max_states, max_len, extra_seeds=None):
    """Oracle for mdet_expand: label-keyed BFS over Multisets stepped by multiset_extend."""
    multi = len(m.base.nodes) > 1
    states, accept = {}, {}
    per_node = {n: [] for n in m.base.nodes}

    def discover(node, v):
        lbl = expansion_state_label(node, v.vector(), multi)
        if lbl not in states:
            states[lbl] = (node, v)
            per_node[node].append(lbl)
            accept[lbl] = sum(v[q] for q in m.finals if q in v.base)
        return lbl

    frontier = [discover(m.initial_node, multiset_unit(m.fibers[m.initial_node], m.initial))]
    for node, vs in (extra_seeds or {}).items():
        for v in vs:
            lbl = discover(node, v)
            if lbl not in frontier:
                frontier.append(lbl)
    tables = {e.id: {} for e in m.base.edges}
    cut = set()
    for _ in range(max_len):
        next_frontier = []
        for lbl in sorted(frontier):
            node, v = states[lbl]
            for e in m.base.out_edges(node):
                t = multiset_extend(m.matrix(e.id), v)
                t_lbl = expansion_state_label(e.dst, t.vector(), multi)
                if t_lbl not in states:
                    if len(states) >= max_states:
                        cut.add("max_states")
                        continue
                    next_frontier.append(discover(e.dst, t))
                tables[e.id][lbl] = t_lbl
        frontier = next_frontier
    if any(m.base.out_edges(states[lbl][0]) for lbl in frontier):
        cut.add("max_len")
    return states, per_node, tables, accept, tuple(b for b in ("max_states", "max_len") if b in cut)


class TestExpansionLabels:
    @staticmethod
    def joined(vec) -> str:
        return "(" + ",".join(map(str, vec)) + ")"

    def test_vector_text(self):
        for vec in ((), (0,), (7,), (10**20,), (1, 0), (0, 12, 3, 10**30)):
            assert count_vector_text(vec) == self.joined(vec)
            assert expansion_state_label("n", vec, False) == self.joined(vec)
            assert expansion_state_label("n", vec, True) == "n:" + self.joined(vec)
        assert expansion_state_label("n", (), False) == "()"
        assert expansion_state_label("n", (3,), False) == "(3)"

    def test_list_argument(self):
        # the counting factorization labels its mate's images from lists
        for vec in ([], [4], [1, 0, 2]):
            assert expansion_state_label("n", vec, True) == expansion_state_label("n", tuple(vec), True)
            assert expansion_state_label("n", vec, False) == self.joined(vec)
            assert count_vector_text(vec) == self.joined(vec)

    def test_node_names_with_colons_and_brackets(self):
        x = mdet_expand(odd_names_example(), 12, 6)
        assert x.truncated
        assert {len(x.states[q]) for q in x.states} == {0, 1, 2}
        for n in x.base.nodes:
            for q in x.fibers[n]:
                assert q == f"{n}:{self.joined(x.states[q])}"
                assert x.count_texts[q] == self.joined(x.states[q])
        # the texts kept from the labels are the ones read from the vectors
        assert x.count_texts == {q: count_vector_text(vec) for q, vec in x.states.items()}


class TestMDetExpandOracle:
    def assert_matches_oracle(self, m, max_states, max_len, seeds=None):
        exp = mdet_expand(m, max_states, max_len, extra_seeds=seeds)
        multisets = {
            n: [Multiset(m.fibers[n], dict(zip(m.fibers[n], v))) for v in vs] for n, vs in (seeds or {}).items()
        }
        states, per_node, tables, accept, cut = expand_by_multisets(m, max_states, max_len, multisets)
        assert list(exp.states) == list(states)
        assert exp.states == {lbl: v.vector() for lbl, (_, v) in states.items()}
        assert all(type(v) is tuple for v in exp.states.values())
        assert {lbl: exp.node_of(lbl) for lbl in exp.states} == {lbl: n for lbl, (n, _) in states.items()}
        for n in m.base.nodes:
            assert list(exp.fibers[n]) == per_node[n]
        for e in m.base.edges:
            assert list(exp.transitions[e.id].items()) == list(tables[e.id].items())
        assert exp.accept_counts == accept
        assert exp.finals == {lbl for lbl, c in accept.items() if c > 0}
        assert exp.initial == next(iter(states))
        assert exp.truncated == bool(cut) and exp.truncated_by == cut
        return exp

    def test_random_automata_match_oracle(self):
        import random
        from genlib import random_span_automaton

        rng = random.Random(41)
        seen = set()
        bounds = [(1, 3), (1, 0), (200, 0), (3, 1), (4, 2), (12, 3), (4, 20), (500, 5)]
        for _ in range(30):
            a = random_span_automaton(rng, max_nodes=3, max_states=3, max_mult=rng.choice([2, 3]))
            seeds = {
                n: [tuple(rng.randint(0, 3) for _ in a.fibers[n]) for _ in range(rng.randint(1, 2))]
                for n in a.base.nodes
                if rng.random() < 0.5
            }
            for max_states, max_len in bounds:
                for extra in (None, seeds):
                    seen.add(self.assert_matches_oracle(a, max_states, max_len, extra).truncated_by)
        assert seen == {(), ("max_states",), ("max_len",), ("max_states", "max_len")}

    @staticmethod
    def block_machine():
        """Fibers of widths 3, 1 and 0, an edge with no entries, and a count of 10**18."""
        from spanauto.spans import NatMatrix, from_matrix

        fibers = {"n0": FinSet("A", ["a", "b", "c"]), "n1": FinSet("X", ["x"]), "n2": FinSet("E", [])}
        base = BaseGraph(["n0", "n1", "n2"], [
            ("e0", "a", "n0", "n0"), ("e1", "b", "n0", "n1"), ("e2", "a", "n1", "n0"),
            ("e3", "b", "n1", "n1"), ("e4", "c", "n0", "n2"), ("e5", "a", "n2", "n0"),
        ])
        entries = {
            "e0": {("a", "b"): 1, ("a", "c"): 2, ("b", "a"): 1, ("c", "c"): 10**18},
            "e1": {("a", "x"): 1, ("c", "x"): 3},
            "e2": {("x", "a"): 1, ("x", "b"): 1},
            "e3": {}, "e4": {}, "e5": {},
        }
        spans = {e.id: from_matrix(NatMatrix(fibers[e.src], fibers[e.dst], entries[e.id])) for e in base.edges}
        return SpanAutomaton(base, fibers, spans, "a", {"c", "x"})

    def test_block_step_cases(self):
        m = self.block_machine()
        seeds = {"n1": [(5,), (0,)], "n0": [(0, 1, 1), (2**70, 0, 3)], "n2": [()]}
        for max_states, max_len in ((10**6, 0), (10**6, 1), (10**6, 5), (3, 4), (40, 6)):
            for extra in (None, seeds):
                self.assert_matches_oracle(m, max_states, max_len, extra)
        exp = self.assert_matches_oracle(m, 10**6, 5)
        assert max(c for v in exp.states.values() for c in v) > 2**64
        # the empty fiber's one state, and the edge without entries stepping to zero
        assert exp.states["n2:()"] == () and set(exp.transitions["e3"].values()) == {"n1:(0)"}

    def test_block_step_cut_inside_a_layer(self):
        m = self.block_machine()
        # one layer reaches fewer than six states, two layers more than six,
        # so a bound of six cuts the second layer after some of its states
        assert len(mdet_expand(m, 10**6, 1).states) < 6 < len(mdet_expand(m, 10**6, 2).states)
        exp = self.assert_matches_oracle(m, 6, 2)
        assert len(exp.states) == 6 and exp.truncated_by == ("max_states", "max_len")

    def test_seed_of_wrong_length_rejected(self):
        a = two_state_example()
        for seed in ((1,), (1, 0, 0), (1, -1), (1, True)):
            with pytest.raises(ValueError):
                mdet_expand(a, 8, 2, extra_seeds={"s": [seed]})

    def test_seed_at_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="'zz'"):
            mdet_expand(two_state_example(), 10, 2, extra_seeds={"zz": [(1,)]})


class TestClassical:
    def test_agrees_with_categorical_on_fixture(self):
        nfa = two_state_classical()
        classical = classical_subset_construction(nfa)
        categorical = det(span_automaton_of_classical(nfa))
        mapping = reachable_iso_check(classical, categorical)
        assert mapping is not None

    def test_no_transitions(self):
        states = FinSet("Q", ["1"])
        nfa = ClassicalNFA(["a"], states, {}, "1", {"1"})
        d = classical_subset_construction(nfa)
        assert d.transitions["a"] == {"{}": "{}", "{1}": "{}"}

    def test_refused_past_the_work_bound(self, monkeypatch):
        # 2^3 subsets times 2 letters: 16 steps pass a bound of 16 and not one of 15
        states = FinSet("Q", ["1", "2", "3"])
        nfa = ClassicalNFA(["a", "b"], states, {("1", "a"): {"2"}, ("2", "b"): {"3"}}, "1", {"3"})
        monkeypatch.setattr(determinize, "_WORK_BOUND", 16)
        assert len(classical_subset_construction(nfa).fibers["s"]) == 8
        monkeypatch.setattr(determinize, "_WORK_BOUND", 15)
        with pytest.raises(ValueError, match="would take 16 subset steps, more than 15$"):
            classical_subset_construction(nfa)

    def test_self_loop(self):
        states = FinSet("Q", ["1"])
        nfa = ClassicalNFA(["a"], states, {("1", "a"): {"1"}}, "1", {"1"})
        d = classical_subset_construction(nfa)
        assert list(d.fibers["s"]) == ["{}", "{1}"]
        assert d.transitions["a"]["{1}"] == "{1}"


def reachable_subsets_bfs(a: SpanAutomaton):
    """Oracle for the pruned powerset machine: frozenset BFS from {initial}."""
    r = rel_of(a)
    steps = {e.id: powerset_map(r.transitions[e.id]) for e in a.base.edges}
    start = (a.initial_node, frozenset([a.initial]))
    reached = {start}
    frontier = [start]
    tables: dict[str, dict[frozenset, frozenset]] = {e.id: {} for e in a.base.edges}
    while frontier:
        node, s = frontier.pop()
        for e in a.base.out_edges(node):
            t = steps[e.id](s)
            tables[e.id][s] = t
            if (e.dst, t) not in reached:
                reached.add((e.dst, t))
                frontier.append((e.dst, t))
    return reached, tables


class TestPrunedDet:
    def assert_matches_bfs(self, a: SpanAutomaton):
        d = det(a, prune=True)
        reached, tables = reachable_subsets_bfs(a)
        multi = len(a.base.nodes) > 1

        def label(node, s):
            return subset_state_label(node, s, multi)

        for n in a.base.nodes:
            expected = [label(n, s) for s in subsets_of(a.fibers[n]) if (n, s) in reached]
            assert list(d.fibers[n]) == expected
        for e in a.base.edges:
            assert d.transitions[e.id] == {label(e.src, s): label(e.dst, t) for s, t in tables[e.id].items()}
        assert d.initial == label(a.initial_node, {a.initial})
        assert d.finals == {label(n, s) for n, s in reached if s & a.finals}
        return d

    def test_single_node_matches_classical_oracle(self):
        import random
        from genlib import random_classical_nfa
        from spanauto.io import serialize_automaton

        rng = random.Random(31)
        for _ in range(25):
            nfa = random_classical_nfa(rng, max_states=12)
            expected = prune_reachable(classical_subset_construction(nfa))
            got = det(span_automaton_of_classical(nfa), prune=True)
            assert serialize_automaton(got) == serialize_automaton(expected)

    def test_multi_node_matches_bfs(self):
        import random
        from genlib import random_span_automaton

        rng = random.Random(32)
        for _ in range(40):
            a = random_span_automaton(rng, max_nodes=3, max_states=12, max_mult=3, probe_len=0)
            self.assert_matches_bfs(a)

    def test_eleven_states_keep_string_order(self):
        # a0 -> a1 -> ... -> a11 -> nothing, so {} is reachable at the end
        q = FinSet("Q", [f"a{i}" for i in range(12)])
        base = BaseGraph(["s"], [("e", "e", "s", "s")])
        apex = [Token(f"t{i}", f"a{i}", f"a{i + 1}") for i in range(11)]
        d = self.assert_matches_bfs(SpanAutomaton(base, {"s": q}, {"e": Span(q, q, apex)}, "a0", {"a11"}))
        assert list(d.fibers["s"])[:5] == ["{}", "{a0}", "{a1}", "{a10}", "{a11}"]
        assert d.transitions["e"]["{a11}"] == "{}"
        assert d.transitions["e"]["{}"] == "{}"

    def test_labels_from_set_bits_on_odd_names(self):
        # names sort apart from their list order (a10 < a9, B < a, ':' inside); labels still list members sorted
        import random
        from genlib import random_odd_names_automaton

        rng = random.Random(41)
        widths = set()
        for _ in range(30):
            a = random_odd_names_automaton(rng, max_nodes=3, max_states=16)
            widths.update(len(f) for f in a.fibers.values())
            pruned = self.assert_matches_bfs(a)
            if sum(1 << len(f) for f in a.fibers.values()) > 1 << 11:
                continue
            full = det(a)
            multi = len(a.base.nodes) > 1
            r = rel_of(a)
            for n in a.base.nodes:
                assert list(full.fibers[n]) == [subset_state_label(n, s, multi) for s in subsets_of(a.fibers[n])]
            for e in a.base.edges:
                step = powerset_map(r.transitions[e.id])
                assert full.transitions[e.id] == {
                    subset_state_label(e.src, s, multi): subset_state_label(e.dst, step(s), multi)
                    for s in subsets_of(a.fibers[e.src])
                }
            assert pruned == prune_reachable(full)
        assert set(range(1, 17)) <= widths

    def test_unreachable_node_gets_empty_fiber(self):
        base = BaseGraph(["n", "m"], [("e", "e", "n", "n"), ("f", "f", "m", "n")])
        q = FinSet("Q", ["1", "2"])
        r = FinSet("R", ["3"])
        a = SpanAutomaton(
            base,
            {"n": q, "m": r},
            {"e": Span(q, q, [Token("u", "1", "2")]), "f": Span(r, q, [Token("v", "3", "1")])},
            "1",
            {"2", "3"},
        )
        d = self.assert_matches_bfs(a)
        assert list(d.fibers["m"]) == []
        assert d.transitions["f"] == {}
        assert list(d.fibers["n"]) == ["n:{}", "n:{1}", "n:{2}"]

    def test_parallel_counts_collapse(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1", "2"])
        apex = [Token("u", "1", "2"), Token("v", "1", "2"), Token("w", "2", "1"), Token("x", "2", "2")]
        a = SpanAutomaton(base, {"n": q}, {"e": Span(q, q, apex)}, "1", {"2"})
        d = self.assert_matches_bfs(a)
        assert d.transitions["e"] == {"{1}": "{2}", "{2}": "{1,2}", "{1,2}": "{1,2}"}

    def test_cli_prune_matches_library(self, tmp_path, capsys):
        import json
        import random
        from genlib import random_span_automaton
        from spanauto.cli import main
        from spanauto.io import serialize_automaton

        rng = random.Random(33)
        for i in range(10):
            a = random_span_automaton(rng, max_nodes=3, max_states=11, max_mult=3, probe_len=0)
            path = tmp_path / f"a{i}.json"
            path.write_text(serialize_automaton(a))
            assert main(["det", str(path), "--prune"]) == 0
            out, _ = capsys.readouterr()
            assert out == serialize_automaton(prune_reachable(det(a)))
            assert json.loads(out)["kind"] == "det"

    def test_cap_checked_before_any_work(self):
        big = FinSet("Q", [f"q{i:02d}" for i in range(POWERSET_CAP + 1)])
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        # no transition for "e", built unchecked: any work past the cap check would fail with KeyError
        a = RelAutomaton._trusted(base, {"n": big}, {}, "q00", frozenset())
        for prune in (False, True):
            with pytest.raises(ValueError, match=f"refusing powerset above {POWERSET_CAP}$"):
                det(a, prune=prune)

    def test_cli_prune_refuses_fiber_above_cap(self, tmp_path, capsys):
        from spanauto.cli import main
        from spanauto.io import serialize_automaton

        path = tmp_path / "wide.json"
        path.write_text(serialize_automaton(nth_letter_from_end(POWERSET_CAP)))
        code = main(["det", str(path), "--prune"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"input-error: fiber of 's' has {POWERSET_CAP + 1} states; refusing powerset above {POWERSET_CAP}\n"

    def test_cli_prune_refuses_work_above_bound(self, tmp_path, capsys):
        # 2**19 reachable subsets times 2 letters is 1,048,576 steps, past the bound of 1,000,000
        from spanauto.cli import main
        from spanauto.io import serialize_automaton

        path = tmp_path / "nth19.json"
        path.write_text(serialize_automaton(nth_letter_from_end(19)))
        code = main(["det", str(path), "--prune"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "input-error: det would take more than 1000000 subset steps\n"

    def test_writer_peak_below_three_times_its_output(self):
        # the writer joins its pieces once and escapes each label once, so writing
        # 4,096 reached subsets holds little beyond the pieces and the joined text
        import tracemalloc
        from spanauto.io import serialize_automaton

        d = det(nth_letter_from_end(12), prune=True)
        tracemalloc.start()
        try:
            text = serialize_automaton(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(d.fibers["s"]) == 2**12
        assert peak < 3 * len(text)

    def test_subset_steps_charged_as_reached(self, monkeypatch):
        # a reached subset at node n costs max(1, out-degree of n): the exact total passes, one less does not
        import random
        from genlib import random_span_automaton

        rng = random.Random(17)
        for _ in range(40):
            a = random_span_automaton(rng, max_nodes=3, max_states=5, max_mult=2, probe_len=0)
            full = det(a)
            pruned = det(a, prune=True)
            assert pruned == prune_reachable(full)
            for d, prune in ((full, False), (pruned, True)):
                steps = sum(len(d.fibers[n]) * max(1, len(a.base.out_edges(n))) for n in a.base.nodes)
                monkeypatch.setattr(determinize, "_WORK_BOUND", steps)
                assert det(a, prune=prune) == d
                monkeypatch.setattr(determinize, "_WORK_BOUND", steps - 1)
                with pytest.raises(ValueError, match=rf"more than {steps - 1}\b"):
                    det(a, prune=prune)
                monkeypatch.undo()


class TestPrune:
    def test_fixture_keeps_all_four(self):
        d = det(two_state_example())
        pruned = prune_reachable(d)
        assert set(pruned.fibers["s"].elements) == {"{}", "{1}", "{2}", "{1,2}"}

    def test_disconnected_subset_removed(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["x", "y", "z"])
        d = DetAutomaton(
            base, {"n": q}, {"e": {"x": "y", "y": "x", "z": "z"}}, "x", {"y"}
        )
        pruned = prune_reachable(d)
        assert set(pruned.fibers["n"].elements) == {"x", "y"}

    def test_idempotent(self):
        d = det(two_phase_example())
        once = prune_reachable(d)
        twice = prune_reachable(once)
        assert once.fibers == twice.fibers
        assert once.transitions == twice.transitions


class TestReachableIso:
    def test_self_identity(self):
        d = det(two_state_example())
        mapping = reachable_iso_check(d, d)
        assert mapping is not None
        assert all(k == v for k, v in mapping.items())

    def test_detects_language_difference(self):
        base = BaseGraph(["n"], [("a", "a", "n", "n")])
        q = FinSet("Q", ["p", "q"])
        d1 = DetAutomaton(base, {"n": q}, {"a": {"p": "q", "q": "q"}}, "p", {"q"})
        d2 = DetAutomaton(base, {"n": q}, {"a": {"p": "q", "q": "p"}}, "p", {"q"})
        assert reachable_iso_check(d1, d2) is None

    def test_respects_relabeling(self):
        base = BaseGraph(["n"], [("a", "a", "n", "n")])
        d1 = DetAutomaton(
            base, {"n": FinSet("Q", ["p", "q"])}, {"a": {"p": "q", "q": "q"}}, "p", {"q"}
        )
        d2 = DetAutomaton(
            base, {"n": FinSet("Q", ["u", "v"])}, {"a": {"u": "v", "v": "v"}}, "u", {"v"}
        )
        mapping = reachable_iso_check(d1, d2)
        assert mapping == {"p": "u", "q": "v"}

    def test_unreachable_states_are_ignored(self):
        base = BaseGraph(["n"], [("a", "a", "n", "n")])
        d = DetAutomaton(base, {"n": FinSet("Q", ["p", "q"])}, {"a": {"p": "q", "q": "p"}}, "p", {"q"})
        # the same machine plus two unreachable states, one of them final
        extra = DetAutomaton(
            base, {"n": FinSet("Q", ["p", "q", "y", "z"])}, {"a": {"p": "q", "q": "p", "y": "z", "z": "p"}},
            "p", {"q", "z"},
        )
        for d1, d2 in ((d, extra), (extra, d), (extra, extra)):
            assert reachable_iso_check(d1, d2) == {"p": "p", "q": "q"}
        fixture = det(two_phase_example())
        pruned = prune_reachable(fixture)
        assert sum(map(len, pruned.fibers.values())) < sum(map(len, fixture.fibers.values()))
        reached = {q: q for f in pruned.fibers.values() for q in f}
        assert reachable_iso_check(fixture, pruned) == reachable_iso_check(pruned, fixture) == reached

    def test_initial_states_on_different_nodes(self):
        base = BaseGraph(["n", "m"], [("e", "e", "n", "m"), ("f", "f", "m", "n")])
        fibers = {"n": FinSet("N", ["x"]), "m": FinSet("M", ["y"])}
        tables = {"e": {"x": "y"}, "f": {"y": "x"}}
        d1 = DetAutomaton(base, fibers, tables, "x", set())
        d2 = DetAutomaton(base, fibers, tables, "y", set())
        assert reachable_iso_check(d1, d2) is None
        assert reachable_iso_check(d2, d1) is None

    def test_reachable_parts_of_different_sizes(self):
        # both accept every word, with two reachable states and with one
        base = BaseGraph(["n"], [("a", "a", "n", "n")])
        two = DetAutomaton(base, {"n": FinSet("Q", ["p", "q"])}, {"a": {"p": "q", "q": "q"}}, "p", {"p", "q"})
        one = DetAutomaton(base, {"n": FinSet("Q", ["u", "v"])}, {"a": {"u": "v", "v": "v"}}, "v", {"v"})
        assert reachable_iso_check(two, one) is None
        assert reachable_iso_check(one, two) is None


class TestLanguagePreservation:
    def test_two_phase_language_up_to_six(self):
        a = two_phase_example()
        d = det(a)
        words_a = [w.edges for w in language(a, 6)]
        words_d = [w.edges for w in language(d, 6)]
        assert words_a == words_d


class TestEmptyFibers:
    def automaton(self):
        base = BaseGraph(["n", "m"], [("e", "e", "n", "m"), ("f", "f", "m", "m")])
        q = FinSet("Q", ["1"])
        empty = FinSet("E", [])
        return SpanAutomaton(
            base,
            {"n": q, "m": empty},
            {"e": Span(q, empty, []), "f": Span(empty, empty, [])},
            "1",
            {"1"},
        )

    def test_language_only_empty_word(self):
        a = self.automaton()
        assert [w.edges for w in language(a, 4)] == [()]

    def test_determinization_handles_empty_fiber(self):
        a = self.automaton()
        d = det(a)
        # the empty fiber has exactly one subset, the empty one
        assert len(d.fibers["m"]) == 1
        assert [w.edges for w in language(d, 4)] == [()]
        assert lifts_uniquely(d, 3)

    def test_mdet_handles_empty_fiber(self):
        a = self.automaton()
        assert mdet_run_count(a, Word("n")) == 1
        assert mdet_run_count(a, Word("n", ("e",))) == 0
