"""Tests for base graphs, words, runs and path counting."""

import random

import pytest

from spanauto.spans import FinSet, Relation, Span, Token
from spanauto.automata import (
    ORACLE_MAX_LEN,
    BaseGraph,
    DetAutomaton,
    RelAutomaton,
    SpanAutomaton,
    Word,
    accepted,
    accepted_counts,
    brute_force_paths,
    count_paths,
    enumerate_words,
    is_deterministic,
    language,
    rel_automaton_of_det,
    run_word_span,
    span_automaton_of_rel,
    to_det_automaton,
    ulf_factorization_check,
    unique_lift_check,
    validate,
)
from spanauto.determinize import det_span, rel_of, span_automaton_of_classical
from spanauto.fixtures import two_phase_example, two_state_example


def words_as_strings(ws, base):
    return ["".join(w.labels(base)) for w in ws]


class TestBaseGraph:
    def test_label_clash_on_same_pair_rejected(self):
        with pytest.raises(ValueError):
            BaseGraph(["n"], [("e1", "a", "n", "n"), ("e2", "a", "n", "n")])

    def test_labels_may_repeat_across_pairs(self):
        g = BaseGraph(["n", "m"], [("e1", "a", "n", "n"), ("e2", "a", "n", "m")])
        assert len(g.edges) == 2


class TestValidate:
    def test_fixture_is_well_formed(self):
        assert validate(two_state_example()) == []
        assert validate(two_phase_example()) == []

    def test_foreign_foot(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        other = FinSet("O", ["9"])
        bad = SpanAutomaton(base, {"n": q}, {"e": Span(other, other, [])}, "1", set())
        assert len(validate(bad)) == 1

    def test_initial_outside_fibers(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        bad = SpanAutomaton(base, {"n": q}, {"e": Span(q, q, [])}, "9", set())
        assert validate(bad) == ["initial state '9' lies in no fiber"]


class TestEnumerateWords:
    def test_single_loop(self):
        base = BaseGraph(["n"], [("a", "a", "n", "n")])
        ws = enumerate_words(base, "n", 2)
        assert [w.edges for w in ws] == [(), ("a",), ("a", "a")]

    def test_no_edges(self):
        base = BaseGraph(["n"], [])
        assert [w.edges for w in enumerate_words(base, "n", 3)] == [()]

    def test_two_node_base_order(self):
        base = two_phase_example().base
        ws = enumerate_words(base, "c", 2)
        assert words_as_strings(ws, base) == [
            "", "a", "b", "x", "aa", "ab", "ax", "ba", "bb", "bx", "xc", "xd",
        ]

    def test_growing_prefix_property(self):
        base = two_state_example().base
        shorter = enumerate_words(base, "s", 2)
        longer = enumerate_words(base, "s", 3)
        assert longer[: len(shorter)] == shorter


class TestRunWordSpan:
    def test_two_paths_over_ab(self):
        a = two_state_example()
        m = run_word_span(a, Word("s", ("a", "b")))
        assert m["1", "2"] == 2

    def test_empty_word_is_identity(self):
        a = two_state_example()
        m = run_word_span(a, Word("s"))
        assert m.rows() == [[1, 0], [0, 1]]

    def test_aa(self):
        a = two_state_example()
        m = run_word_span(a, Word("s", ("a", "a")))
        assert m["1", "1"] == 1
        assert m["1", "2"] == 1

    def test_word_functoriality(self):
        from spanauto.spans import matrix_compose

        a = two_phase_example()
        u = Word("c", ("a", "b"))
        v = Word("c", ("x", "c"))
        uv = Word("c", ("a", "b", "x", "c"))
        assert run_word_span(a, uv) == matrix_compose(run_word_span(a, u), run_word_span(a, v))

    def test_ill_formed_word(self):
        a = two_phase_example()
        with pytest.raises(ValueError):
            run_word_span(a, Word("c", ("c",)))


class TestAccepted:
    def test_ab_accepted(self):
        assert accepted(two_state_example(), Word("s", ("a", "b")))

    def test_empty_rejected_when_initial_not_final(self):
        assert not accepted(two_state_example(), Word("s"))

    def test_ba_rejected(self):
        assert not accepted(two_state_example(), Word("s", ("b", "a")))

    def test_off_initial_node_rejected(self):
        a = two_phase_example()
        assert not accepted(a, Word("d", ("c",)))

    def test_matches_count_positivity(self):
        a = two_state_example()
        for w in enumerate_words(a.base, "s", 4):
            assert accepted(a, w) == (count_paths(a, w) > 0)


class TestLanguage:
    def test_fixture_language(self):
        a = two_state_example()
        assert words_as_strings(language(a, 2), a.base) == ["a", "b", "aa", "ab", "bb"]

    def test_zero_length(self):
        assert language(two_state_example(), 0) == []

    def test_no_finals(self):
        a = two_state_example()
        empty = SpanAutomaton(a.base, a.fibers, a.transitions, a.initial, set())
        assert language(empty, 3) == []

    def test_monotone_in_length(self):
        a = two_phase_example()
        l3 = language(a, 3)
        l4 = language(a, 4)
        assert l4[: len(l3)] == l3


class TestPathCounting:
    def test_count_ab(self):
        assert count_paths(two_state_example(), Word("s", ("a", "b"))) == 2

    def test_empty_word_counts_initial_final(self):
        a = two_state_example()
        accepting_start = SpanAutomaton(a.base, a.fibers, a.transitions, a.initial, {"1"})
        assert count_paths(accepting_start, Word("s")) == 1

    def test_off_node_word(self):
        assert count_paths(two_phase_example(), Word("d")) == 0

    def test_brute_force_ab(self):
        runs = brute_force_paths(two_state_example(), Word("s", ("a", "b")))
        assert sorted(runs) == [("a11", "b12"), ("a12", "b22")]

    def test_brute_force_b(self):
        assert brute_force_paths(two_state_example(), Word("s", ("b",))) == [("b12",)]

    def test_brute_force_empty(self):
        a = two_state_example()
        assert brute_force_paths(a, Word("s")) == []
        accepting_start = SpanAutomaton(a.base, a.fibers, a.transitions, a.initial, {"1"})
        assert brute_force_paths(accepting_start, Word("s")) == [()]

    def test_oracle_agreement_exhaustive(self):
        for a in (two_state_example(), two_phase_example()):
            for w in enumerate_words(a.base, a.initial_node, 6):
                assert count_paths(a, w) == len(brute_force_paths(a, w))

    def test_bound_enforced(self):
        a = two_state_example()
        with pytest.raises(ValueError):
            brute_force_paths(a, Word("s", ("a",) * 13))


class TestAcceptedCounts:
    """The prefix-shared sweep against per-word counting and token walks."""

    @staticmethod
    def per_word(a, span, max_len):
        counts = [(w, count_paths(span, w)) for w in enumerate_words(a.base, a.initial_node, max_len)]
        return [(w, n) for w, n in counts if n > 0]

    def check(self, a, span, max_len):
        got = accepted_counts(a, max_len)
        assert got == self.per_word(a, span, max_len)
        assert [w for w, _ in got] == [w for w in enumerate_words(a.base, a.initial_node, max_len) if accepted(a, w)]
        if max_len <= ORACLE_MAX_LEN:
            for w, n in got:
                assert n == len(brute_force_paths(span, w))

    def test_random_span_automata(self):
        from genlib import random_span_automaton

        rng = random.Random(2024)
        for i in range(16):
            a = random_span_automaton(rng, max_nodes=3, max_states=4, max_mult=2 + i % 2, probe_len=5)
            self.check(a, a, 5)

    def test_random_rel_and_det_documents(self):
        from genlib import random_span_automaton

        rng = random.Random(7)
        for _ in range(10):
            a = random_span_automaton(rng, max_nodes=2, max_states=4, probe_len=4)
            r = rel_of(a)
            self.check(r, span_automaton_of_rel(r), 4)
            d = det_span(a)
            self.check(d, span_automaton_of_rel(rel_automaton_of_det(d)), 4)

    def test_random_classical_nfas(self):
        from genlib import random_classical_nfa

        rng = random.Random(11)
        for _ in range(10):
            a = span_automaton_of_classical(random_classical_nfa(rng))
            self.check(a, a, 4)

    def test_dead_prefix_keeps_later_order(self):
        # "a" has no transitions at all, so every word through it is dead;
        # "b" leaves the final state but "bb" comes back to it
        base = BaseGraph(["n"], [("a", "a", "n", "n"), ("b", "b", "n", "n"), ("c", "c", "n", "n")])
        q = FinSet("Q", ["1", "2"])
        spans = {
            "a": Span(q, q, []),
            "b": Span(q, q, [Token("b12", "1", "2"), Token("b21", "2", "1")]),
            "c": Span(q, q, [Token("c11", "1", "1"), Token("c11'", "1", "1"), Token("c22", "2", "2")]),
        }
        a = SpanAutomaton(base, {"n": q}, spans, "1", {"1"})
        got = accepted_counts(a, 2)
        assert [(w.edges, n) for w, n in got] == [((), 1), (("c",), 2), (("b", "b"), 1), (("c", "c"), 4)]
        self.check(a, a, 4)


class TestUniqueLift:
    def test_determinization_has_unique_lifts(self):
        d = det_span(two_state_example())
        assert unique_lift_check(d, 4)

    def test_partial_table_reinterpreted_fails(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1", "2"])
        # state 2 has no image, as if a non-total relation were reread as a function
        broken = DetAutomaton(base, {"n": q}, {"e": {"1": "2"}}, "1", {"2"})
        assert not unique_lift_check(broken, 2)

    def test_total_functions_pass(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1", "2"])
        d = DetAutomaton(base, {"n": q}, {"e": {"1": "2", "2": "2"}}, "1", {"2"})
        assert unique_lift_check(d, 4)


class TestUlfFactorization:
    def test_fixture(self):
        assert ulf_factorization_check(two_state_example(), 3)

    def test_single_edge_words(self):
        assert ulf_factorization_check(two_phase_example(), 1)

    def test_multiplicity_two_span(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        doubled = SpanAutomaton(
            base,
            {"n": q},
            {"e": Span(q, q, [Token("u", "1", "1"), Token("v", "1", "1")])},
            "1",
            {"1"},
        )
        assert ulf_factorization_check(doubled, 3)

    def test_random_small_automata(self):
        import random
        from genlib import random_span_automaton

        rng = random.Random(77)
        for _ in range(10):
            a = random_span_automaton(rng, max_nodes=2, max_states=3, word_cap=150, path_cap=300)
            assert ulf_factorization_check(a, 3)


class TestIsDeterministic:
    def test_fixture_is_not(self):
        assert not is_deterministic(rel_of(two_state_example()))

    def test_determinization_is(self):
        d = det_span(two_state_example())
        assert is_deterministic(rel_automaton_of_det(d))

    def test_empty_fiber_vacuous(self):
        base = BaseGraph(["n", "m"], [("e", "e", "n", "m")])
        q = FinSet("Q", ["1"])
        empty = FinSet("E", [])
        a = RelAutomaton(
            base, {"n": empty, "m": q}, {"e": Relation(empty, q, set())}, "1", set()
        )
        assert is_deterministic(a)


class TestConversions:
    def test_rel_roundtrip_through_det(self):
        d = det_span(two_state_example())
        again = to_det_automaton(rel_automaton_of_det(d))
        assert again.transitions == d.transitions

    def test_span_embedding_preserves_language(self):
        a = two_state_example()
        r = rel_of(a)
        s = span_automaton_of_rel(r)
        for w in enumerate_words(a.base, "s", 5):
            assert accepted(a, w) == accepted(s, w)

    def test_to_det_rejects_nondeterministic(self):
        with pytest.raises(ValueError):
            to_det_automaton(rel_of(two_state_example()))
