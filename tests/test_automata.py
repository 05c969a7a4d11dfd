"""Tests for base graphs, words, runs and path counting."""

import json
import random

import pytest

from spanauto.spans import DocumentError, FinSet, Relation, Span, Token
from spanauto.automata import (
    BaseGraph,
    DetAutomaton,
    Edge,
    RelAutomaton,
    SpanAutomaton,
    Word,
    accepted,
    accepted_counts,
    count_paths,
    enumerate_words,
    is_deterministic,
    language,
)
from spanauto.determinize import ExpandedMachine, det, mdet_expand, mdet_run, rel_of, span_automaton_of_classical
from spanauto.fixtures import two_phase_example, two_state_example
from spanauto.io import serialize_mdet

from genlib import (
    ORACLE_MAX_LEN,
    brute_force_paths,
    enumerated_ulf_factorization,
    lifts_uniquely,
    matrix_count_paths,
    mdet_run_count,
    random_span_automaton,
    run_word_span,
    span_automaton_of_rel,
    to_det_automaton,
)


def words_as_strings(ws, base):
    return ["".join(w.labels(base)) for w in ws]


class TestBaseGraph:
    def test_label_clash_on_same_pair_rejected(self):
        with pytest.raises(ValueError):
            BaseGraph(["n"], [("e1", "a", "n", "n"), ("e2", "a", "n", "n")])

    def test_tuples_become_edges(self):
        g = BaseGraph(["n", "m"], [("e", "x", "n", "m"), Edge("f", "x", "m", "n")])
        assert all(type(e) is Edge for e in g.edges)
        assert g.edges[0] == Edge("e", "x", "n", "m") and g.edge("f").dst == "n"
        assert repr(g.edges[0]) == "Edge(id='e', label='x', src='n', dst='m')"
        same = BaseGraph(["n", "m"], [Edge("e", "x", "n", "m"), ("f", "x", "m", "n")])
        assert g == same and hash(g) == hash(same) and len({g, same}) == 1
        assert g != BaseGraph(["n", "m"], [("e", "y", "n", "m"), ("f", "x", "m", "n")])

    def test_labels_may_repeat_across_pairs(self):
        g = BaseGraph(["n", "m"], [("e1", "a", "n", "n"), ("e2", "a", "n", "m")])
        assert len(g.edges) == 2


class TestKinds:
    """Every kind shares the five fields of ``_FiberedAutomaton``; equality and repr stay per kind."""

    @staticmethod
    def fields(a):
        return (a.base, a.fibers, a.transitions, a.initial, a.finals)

    def test_copies_equal_and_other_kinds_differ(self):
        a = two_state_example()
        for k in (a, rel_of(a), det(a)):
            assert type(k)(*self.fields(k)) == k
            assert repr(k).startswith(type(k).__name__ + "(base=")
            # another kind's constructor refuses these transitions, so they are stored unchecked
            other = (RelAutomaton if k is a else SpanAutomaton)._trusted(*self.fields(k))
            assert self.fields(other) == self.fields(k)
            assert other != k and k != other
            assert k != self.fields(k) and self.fields(k) != k  # nor is the tuple of its fields
        x = mdet_expand(a, 64, 8)
        assert repr(x).startswith("ExpandedMachine(base=")
        d = x.as_det_automaton()
        assert self.fields(d) == self.fields(x) and d != x and x != d

    def test_counting_machine_runs_every_kind(self):
        # the counting machine is each kind's own matrices; a stray initial state is refused before it runs
        a = two_state_example()
        for k in (a, rel_of(a), det(a)):
            for w in enumerate_words(k.base, k.initial_node, 3):
                assert mdet_run_count(k, w) == count_paths(k, w)
            assert json.loads(serialize_mdet(k))["matrices"] == {e.id: k.matrix(e.id).rows() for e in k.base.edges}
        with pytest.raises(ValueError, match="^initial: unknown state 'nowhere'$"):
            SpanAutomaton(a.base, a.fibers, a.transitions, "nowhere", a.finals)

    def test_expansion_built_by_keyword(self):
        x = mdet_expand(two_phase_example(), 6, 3)
        built = ExpandedMachine(base=x.base, fibers=x.fibers, states=x.states, transitions=x.transitions,
                                initial=x.initial, finals=x.finals, accept_counts=x.accept_counts,
                                truncated_by=x.truncated_by)
        assert built == x and built.truncated
        assert built.count_texts == x.count_texts

    def test_rows_are_the_matrix_entries_by_source(self):
        # every kind's rows group its counting matrix's nonzero entries by source, in entry order
        rng = random.Random(16)
        for _ in range(20):
            a = random_span_automaton(rng, max_nodes=3, max_states=3)
            for k in (a, rel_of(a), det(a), mdet_expand(a, 6, 3)):
                for e in k.base.edges:
                    rows = k.rows(e.id)
                    want: dict[str, dict[str, int]] = {}
                    for (q, t), c in k.matrix(e.id).entries.items():
                        want.setdefault(q, {})[t] = c
                    assert [(q, list(row.items())) for q, row in rows.items()] == \
                        [(q, list(row.items())) for q, row in want.items()]
                    assert k.rows(e.id) is rows


class TestValidate:
    """The constructors refuse a malformed automaton, naming its first fault."""

    def test_fixture_is_well_formed(self):
        for a in (two_state_example(), two_phase_example()):
            assert SpanAutomaton(a.base, a.fibers, a.transitions, a.initial, a.finals) == a

    def test_foreign_foot(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        other = FinSet("O", ["9"])
        with pytest.raises(ValueError, match="^transitions.e: span does not match the endpoint fibers$"):
            SpanAutomaton(base, {"n": q}, {"e": Span(other, other, [])}, "1", set())

    def test_initial_outside_fibers(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        with pytest.raises(ValueError, match="^initial: unknown state '9'$"):
            SpanAutomaton(base, {"n": q}, {"e": Span(q, q, [])}, "9", set())

    def test_messages_per_kind(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1", "2"])
        other = FinSet("O", ["9"])
        # (table, first fault): a missing state first, then in table order a foreign source or a stray target
        for table, line in (({"1": "7", "8": "1"}, "missing image of state '2'"),
                            ({"1": "7", "2": "1", "8": "1"}, "sends '1' outside the target fiber"),
                            ({"8": "1", "1": "7", "2": "1"}, "maps foreign state '8'")):
            with pytest.raises(ValueError, match=f"^transitions.e: {line}$"):
                DetAutomaton(base, {"n": q}, {"e": table}, "1", set())
        with pytest.raises(ValueError, match="^transitions.e: relation does not match the endpoint fibers$"):
            RelAutomaton(base, {"n": q}, {"e": Relation(other, q)}, "1", set())
        with pytest.raises(ValueError, match="^transitions.e: missing transition list$"):
            SpanAutomaton(base, {"n": q}, {}, "1", set())

    def test_fibers_and_finals(self):
        # in the order checked: a node without a fiber, a state in two fibers, a stray final state
        base = BaseGraph(["m", "n"], [])
        one, two = FinSet("A", ["1"]), FinSet("B", ["1", "2"])
        for fibers, finals, line in (({"m": one}, {"9"}, "fibers.n: missing fiber"),
                                     ({"m": one, "n": two}, {"9"}, "fibers.n: state '1' already appears in fiber 'm'"),
                                     ({"m": one, "n": FinSet("B", ["2"])}, {"9", "8"}, "finals: unknown state '8'")):
            with pytest.raises(ValueError, match=f"^{line}$"):
                SpanAutomaton(base, fibers, {}, "1", finals)

    def test_keys_the_base_lacks(self):
        # a fiber or a transition for a node or an edge the base lacks is refused, as the loader refuses it
        a = two_state_example()
        with pytest.raises(DocumentError, match="^fibers.zz: fiber for unknown node$"):
            SpanAutomaton(a.base, {**a.fibers, "zz": FinSet("Z", ["9"])}, a.transitions, a.initial, a.finals)
        with pytest.raises(DocumentError, match="^transitions.q: transition for unknown edge$"):
            SpanAutomaton(a.base, a.fibers, {**a.transitions, "q": 1}, a.initial, a.finals)

    def test_expansion_checks_its_fields_but_not_totality(self):
        x = mdet_expand(two_state_example(), 4, 2)
        assert x.truncated and any(len(x.transitions[e.id]) < len(x.fibers[e.src]) for e in x.base.edges)
        fields = {"base": x.base, "fibers": x.fibers, "transitions": x.transitions, "initial": x.initial,
                  "finals": x.finals, "states": x.states, "accept_counts": x.accept_counts,
                  "truncated_by": x.truncated_by}
        assert ExpandedMachine(**fields) == x  # its partial tables are allowed
        e = x.base.edges[0].id
        for change, line in (({"initial": "nowhere"}, "initial: unknown state 'nowhere'"),
                             ({"finals": {"nowhere"}}, "finals: unknown state 'nowhere'"),
                             ({"transitions": {**x.transitions, e: {"nowhere": x.initial}}},
                              f"transitions.{e}: maps foreign state 'nowhere'")):
            with pytest.raises(DocumentError, match=f"^{line}$"):
                ExpandedMachine(**{**fields, **change})


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

    def test_unknown_edge_is_a_value_error(self):
        a = two_state_example()
        for edges in (("zz",), ("a", "zz")):
            w = Word("s", edges)
            for run in (lambda: count_paths(a, w), lambda: accepted(a, w), lambda: mdet_run(a, w)):
                with pytest.raises(ValueError, match="^word names unknown edge 'zz'$"):
                    run()

    def test_bound_enforced(self):
        a = two_state_example()
        with pytest.raises(ValueError):
            brute_force_paths(a, Word("s", ("a",) * 13))


class TestAcceptedCounts:
    """The prefix-shared sweep against matrix products and token walks, and count_paths with it."""

    @staticmethod
    def per_word(a, span, max_len):
        counts = [(w, matrix_count_paths(span, w)) for w in enumerate_words(a.base, a.initial_node, max_len)]
        for w, n in counts:
            assert count_paths(a, w) == n, f"count_paths disagrees with the matrix product at {w.edges}"
        return [(w, n) for w, n in counts if n > 0]

    def check(self, a, span, max_len):
        got = accepted_counts(a, max_len)
        assert got == self.per_word(a, span, max_len)
        assert [w for w, _ in got] == [w for w in enumerate_words(a.base, a.initial_node, max_len) if accepted(a, w)]
        if max_len <= ORACLE_MAX_LEN:
            for w, n in got:
                assert n == len(brute_force_paths(span, w))

    def test_random_span_automata(self):
        from genlib import random_live_span_automaton

        rng = random.Random(2024)
        for i in range(16):
            a = random_live_span_automaton(rng, max_nodes=3, max_states=4, max_mult=2 + i % 2, probe_len=5)
            self.check(a, a, 5)

    def test_random_rel_and_det_documents(self):
        from genlib import random_live_span_automaton

        rng = random.Random(7)
        for _ in range(10):
            a = random_live_span_automaton(rng, max_nodes=2, max_states=4, probe_len=4)
            r = rel_of(a)
            self.check(r, span_automaton_of_rel(r), 4)
            d = det(a)
            self.check(d, span_automaton_of_rel(rel_of(d)), 4)

    def test_live_draws_accept_words(self):
        # the random language oracles above compare words, so their draws must accept some
        from genlib import random_live_span_automaton

        rng = random.Random(10)
        accepting = 0
        for _ in range(20):
            a = random_live_span_automaton(rng, max_nodes=3, max_states=3)
            words = enumerate_words(a.base, a.initial_node, 4)
            accepting += any(count_paths(a, w) for w in words)
        assert accepting >= 15

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

    def test_split_sweep_at_every_length(self):
        # lengths below, at and above the suffix length, on colliding labels,
        # parallel counts up to 3, and relational and deterministic documents
        from genlib import random_live_span_automaton

        rng = random.Random(12)
        colliding = 0
        for _ in range(6):
            a = random_live_span_automaton(rng, max_nodes=3, max_states=3, max_mult=3, probe_len=6)
            colliding += len({e.label for e in a.base.edges}) < len(a.base.edges)
            r = rel_of(a)
            d = det(a)
            for max_len in range(7):
                self.check(a, a, max_len)
                self.check(r, span_automaton_of_rel(r), max_len)
                self.check(d, span_automaton_of_rel(rel_of(d)), max_len)
        assert colliding >= 2

    @staticmethod
    def chain(finals):
        """One node; "a" walks 1 -> 2 -> 3 -> 4 and "b" loops on 2 twice."""
        base = BaseGraph(["n"], [("a", "a", "n", "n"), ("b", "b", "n", "n")])
        q = FinSet("Q", ["1", "2", "3", "4"])
        spans = {
            "a": Span(q, q, [Token("a12", "1", "2"), Token("a23", "2", "3"), Token("a34", "3", "4")]),
            "b": Span(q, q, [Token("b22", "2", "2"), Token("b22'", "2", "2")]),
        }
        return SpanAutomaton(base, {"n": q}, spans, "1", finals)

    def test_prefixes_dying_in_the_last_two_layers(self):
        # at max_len 4 both depth-2 prefixes are live ("aa" at 3, "ab" at 2),
        # while "aab" dies at depth 3 and "aaaa", "aaab", "abab" at depth 4
        a = self.chain({"2", "4"})
        got = accepted_counts(a, 4)
        assert [(w.edges, n) for w, n in got] == [
            (("a",), 1), (("a", "b"), 2), (("a", "a", "a"), 1), (("a", "b", "b"), 4),
            (("a", "b", "a", "a"), 2), (("a", "b", "b", "b"), 8),
        ]
        for max_len in range(7):
            self.check(a, a, max_len)

    def test_suffixes_live_only_off_the_reached_states(self):
        # prefixes only loop on 1 along "c"; the live suffixes "d" (from 3)
        # and "cd" (from 2) start elsewhere, so every candidate counts 0
        from spanauto.automata import _suffix_table

        base = BaseGraph(["n"], [("c", "c", "n", "n"), ("d", "d", "n", "n")])
        q = FinSet("Q", ["1", "2", "3", "4"])
        spans = {
            "c": Span(q, q, [Token("c11", "1", "1"), Token("c23", "2", "3")]),
            "d": Span(q, q, [Token("d34", "3", "4")]),
        }
        a = SpanAutomaton(base, {"n": q}, spans, "1", {"4"})
        out_edges = {"n": [(e, e, "n", a.rows(e)) for e in ("c", "d")]}
        tails = _suffix_table(out_edges, a.finals, 2)
        assert [[s for s, _, _ in table["n"]] for table in tails[1:]] == [[("d",)], [("c", "d")]]
        for max_len in range(7):
            assert accepted_counts(a, max_len) == []
            self.check(a, a, max_len)

    def test_no_final_states(self):
        from spanauto.automata import _suffix_table

        a = self.chain(set())
        out_edges = {"n": [(e, e, "n", a.rows(e)) for e in ("a", "b")]}
        assert _suffix_table(out_edges, a.finals, 2)[1:] == [{"n": []}, {"n": []}]
        for max_len in range(7):
            assert accepted_counts(a, max_len) == []
            self.check(a, a, max_len)

    def test_final_initial_state_at_short_lengths(self):
        base = BaseGraph(["n"], [("a", "a", "n", "n"), ("b", "b", "n", "n")])
        q = FinSet("Q", ["1", "2"])
        spans = {
            "a": Span(q, q, [Token("a11", "1", "1"), Token("a11'", "1", "1")]),
            "b": Span(q, q, [Token("b12", "1", "2")]),
        }
        a = SpanAutomaton(base, {"n": q}, spans, "1", {"1"})
        want = [((), 1), (("a",), 2), (("a", "a"), 4)]
        for max_len in (0, 1, 2):
            got = accepted_counts(a, max_len)
            assert [(w.edges, n) for w, n in got] == want[: max_len + 1]
            self.check(a, a, max_len)


class TestUniqueLift:
    def test_determinization_has_unique_lifts(self):
        assert lifts_uniquely(det(two_state_example()), 4)

    def test_partial_table_reinterpreted_fails(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1", "2"])
        # state 2 has no image, as if a non-total relation were reread as a function:
        # the constructor refuses it, and stored unchecked it does not lift uniquely
        with pytest.raises(ValueError, match="^transitions.e: missing image of state '2'$"):
            DetAutomaton(base, {"n": q}, {"e": {"1": "2"}}, "1", {"2"})
        broken = DetAutomaton._trusted(base, {"n": q}, {"e": {"1": "2"}}, "1", frozenset({"2"}))
        assert not lifts_uniquely(broken, 2)

    def test_parallel_transitions_fail(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        single = SpanAutomaton(base, {"n": q}, {"e": Span(q, q, [Token("u", "1", "1")])}, "1", {"1"})
        loop = Span(q, q, [Token("u", "1", "1"), Token("v", "1", "1")])
        doubled = SpanAutomaton(base, {"n": q}, {"e": loop}, "1", {"1"})
        assert lifts_uniquely(single, 3)
        assert not lifts_uniquely(doubled, 3)

    def test_total_functions_pass(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1", "2"])
        d = DetAutomaton(base, {"n": q}, {"e": {"1": "2", "2": "2"}}, "1", {"2"})
        assert lifts_uniquely(d, 4)


class TestUlfFactorization:
    def test_malformed_automaton_fails(self):
        # a transition whose feet are not its endpoint fibers has no runs to factor: no such automaton is built
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        other = FinSet("O", ["9"])
        with pytest.raises(ValueError, match="does not match the endpoint fibers"):
            SpanAutomaton(base, {"n": q}, {"e": Span(other, other, [])}, "1", set())

    def test_fixture(self):
        assert enumerated_ulf_factorization(two_state_example(), 3)

    def test_single_edge_words(self):
        assert enumerated_ulf_factorization(two_phase_example(), 1)

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
        assert enumerated_ulf_factorization(doubled, 3)

    def test_random_small_automata(self):
        import random
        from genlib import random_span_automaton

        rng = random.Random(77)
        for _ in range(10):
            a = random_span_automaton(rng, max_nodes=2, max_states=3, word_cap=150, path_cap=300)
            assert enumerated_ulf_factorization(a, 3)


class TestIsDeterministic:
    def test_fixture_is_not(self):
        assert not is_deterministic(rel_of(two_state_example()))

    def test_determinization_is(self):
        d = det(two_state_example())
        assert is_deterministic(rel_of(d))

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
        d = det(two_state_example())
        again = to_det_automaton(rel_of(d))
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
