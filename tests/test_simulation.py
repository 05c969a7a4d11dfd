"""Tests for simulation checking, canonical simulations and factorization."""

import re

import pytest

from spanauto.spans import (
    POWERSET_CAP,
    FinSet,
    Relation,
    Span,
    SpanMorphism,
    Token,
    compose_relations,
    dagger_relation,
    identity_relation,
    identity_span,
    image,
    subset_label,
    to_matrix,
)
from spanauto.automata import (
    BaseGraph,
    DetAutomaton,
    SpanAutomaton,
)
from spanauto.determinize import det, mdet, mdet_expand, rel_of
from spanauto.fixtures import two_phase_example, two_state_example
from spanauto.simulation import (
    Simulation,
    canonical_det_simulation,
    canonical_mdet_simulation,
    check_bisimulation,
    check_rel_simulation,
    check_span_simulation,
    dagger_simulation,
    compose_simulations,
    factor_det,
    factor_mdet,
    identity_simulation,
    square_witnesses,
)
from genlib import membership_relation


def counit_simulation(a):
    """The membership simulation at the relation level."""
    r = rel_of(a)
    d = det(a)
    multi = len(r.base.nodes) > 1
    comps = {
        n: membership_relation(d.fibers[n], r.fibers[n], n, multi) for n in r.base.nodes
    }
    return Simulation(r, d, comps, "strict")


class TestRelCheck:
    def test_identity_components(self):
        sim = identity_simulation(rel_of(two_state_example()))
        assert check_rel_simulation(sim).ok

    def test_swapped_components_fail_on_a(self):
        r = rel_of(two_state_example())
        q = r.fibers["s"]
        swap = Relation(q, q, {("1", "2"), ("2", "1")})
        sim = Simulation(r, r, {"s": swap}, "strict")
        result = check_rel_simulation(sim)
        assert not result.ok
        assert result.failed_edge == "a"

    def test_counit_simulation_natural(self):
        assert check_rel_simulation(counit_simulation(two_state_example())).ok
        assert check_rel_simulation(counit_simulation(two_phase_example())).ok

    def test_word_level_squares_follow_from_generators(self):
        # over a free base, generator naturality pastes to all words
        a = two_state_example()
        sim = counit_simulation(a)
        r, d = sim.source, sim.target
        from spanauto.automata import enumerate_words

        for w in enumerate_words(a.base, "s", 5):
            rel_run = Relation(r.fibers["s"], r.fibers["s"], {(q, q) for q in r.fibers["s"]})
            for e in w.path(a.base):
                rel_run = compose_relations(rel_run, r.transitions[e.id])
            det_run = Relation(d.fibers["s"], d.fibers["s"], {(q, q) for q in d.fibers["s"]})
            for e in w.path(a.base):
                step = d.transitions[e.id]
                det_run = compose_relations(
                    det_run, Relation(d.fibers["s"], d.fibers["s"], set(step.items()))
                )
            comp = image(sim.components["s"])
            assert compose_relations(comp, rel_run) == compose_relations(det_run, comp)

    def test_span_endpoints_decided_on_their_supports(self):
        from spanauto.determinize import ExpandedMachine

        seen = set()
        for seed in range(12):
            for sim in random_simulations(seed):
                if isinstance(sim.target, ExpandedMachine):
                    continue
                strict = Simulation(sim.source, sim.target, sim.components, "strict")
                images = Simulation(rel_of(sim.source), rel_of(sim.target), sim.components, "strict")
                result, expected = check_rel_simulation(strict), check_rel_simulation(images)
                assert (result.ok, result.failed_edge, result.detail, result.differences) == (
                    expected.ok, expected.failed_edge, expected.detail, expected.differences)
                seen.add(result.ok)
        assert seen == {True, False}


class TestSpanCheck:
    def test_identity_pseudo(self):
        sim = identity_simulation(two_state_example(), strength="pseudo")
        assert check_span_simulation(sim, "pseudo").ok

    def test_image_embedding_lax_but_not_pseudo(self):
        from genlib import span_automaton_of_rel

        a = two_state_example()
        flattened = span_automaton_of_rel(rel_of(a))
        comps = {"s": Span(a.fibers["s"], a.fibers["s"], [Token(q, q, q) for q in a.fibers["s"]])}
        sim = Simulation(a, flattened, comps, "lax")
        assert check_span_simulation(sim, "lax").ok
        # no square carries a doubled token here, so pseudo happens to hold;
        # the two-path word "ab" only shows up in composites of length two
        assert check_span_simulation(sim, "pseudo").ok

    def test_doubled_edge_breaks_pseudo(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        doubled = SpanAutomaton(
            base, {"n": q}, {"e": Span(q, q, [Token("u", "1", "1"), Token("v", "1", "1")])}, "1", {"1"}
        )
        flat = SpanAutomaton(
            base, {"n": q}, {"e": Span(q, q, [Token("w", "1", "1")])}, "1", {"1"}
        )
        comps = {"n": Span(q, q, [Token("i", "1", "1")])}
        sim = Simulation(doubled, flat, comps, "lax")
        assert check_span_simulation(sim, "lax").ok
        result = check_span_simulation(sim, "pseudo")
        assert not result.ok and result.failed_edge == "e"

    def test_dagger_of_bijective_pseudo_is_pseudo(self):
        # permutation components transpose cleanly
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1", "2"])
        p = FinSet("P", ["u", "v"])
        f = SpanAutomaton(
            base, {"n": q}, {"e": Span(q, q, [Token("t1", "1", "2"), Token("t2", "2", "1")])}, "1", {"2"}
        )
        g = SpanAutomaton(
            base, {"n": p}, {"e": Span(p, p, [Token("s1", "u", "v"), Token("s2", "v", "u")])}, "u", {"v"}
        )
        comps = {"n": Span(p, q, [Token("c1", "u", "1"), Token("c2", "v", "2")])}
        sim = Simulation(f, g, comps, "pseudo")
        assert check_span_simulation(sim, "pseudo").ok
        assert check_span_simulation(dagger_simulation(sim), "pseudo").ok

    def test_nonbijective_pseudo_may_lose_its_dagger(self):
        # collapsing two parallel paths onto one state is pseudo forwards
        # but the converse components overcount, so the dagger fails
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q2 = FinSet("Q", ["1", "2"])
        q1 = FinSet("P", ["s"])
        f = SpanAutomaton(
            base, {"n": q2}, {"e": Span(q2, q2, [Token("t1", "1", "1"), Token("t2", "1", "2")])}, "1", {"2"}
        )
        g = SpanAutomaton(
            base, {"n": q1}, {"e": Span(q1, q1, [Token("s1", "s", "s")])}, "s", {"s"}
        )
        comps = {"n": Span(q1, q2, [Token("c1", "s", "1"), Token("c2", "s", "2")])}
        sim = Simulation(f, g, comps, "pseudo")
        assert check_span_simulation(sim, "pseudo").ok
        assert not check_span_simulation(dagger_simulation(sim), "pseudo").ok


class TestBisimulation:
    def test_identity_is_bisimulation(self):
        assert check_bisimulation(identity_simulation(rel_of(two_state_example())))

    def test_counit_is_not_in_general(self):
        assert not check_bisimulation(counit_simulation(two_state_example()))

    def test_mate_of_counit_is_bisimulation(self):
        result = factor_det(counit_simulation(two_state_example()))
        assert check_bisimulation(result.mate)

    def test_strict_span_bisimulation_ignores_counts(self):
        # equal supports, different counts: strict by its declared strength, not pseudo
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        doubled = SpanAutomaton(
            base, {"n": q}, {"e": Span(q, q, [Token("u", "1", "1"), Token("v", "1", "1")])}, "1", {"1"}
        )
        flat = SpanAutomaton(base, {"n": q}, {"e": Span(q, q, [Token("w", "1", "1")])}, "1", {"1"})
        comps = {"n": Span(q, q, [Token("i", "1", "1")])}
        assert check_bisimulation(Simulation(doubled, flat, comps, "strict"))
        assert not check_bisimulation(Simulation(doubled, flat, comps, "pseudo"))

    def test_huge_converse_builds_no_token(self, monkeypatch):
        from spanauto.spans import NatMatrix, from_matrix

        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        a = SpanAutomaton(base, {"n": q}, {"e": Span(q, q, [Token("u", "1", "1")])}, "1", {"1"})
        sim = Simulation(a, a, {"n": from_matrix(NatMatrix(q, q, {("1", "1"): 10**18}))}, "pseudo")

        def no_token(*args):
            raise AssertionError("a token was built")

        monkeypatch.setattr(Token, "__new__", no_token)
        assert check_bisimulation(sim)

    def test_symmetry_under_dagger(self):
        for sim in (
            identity_simulation(rel_of(two_state_example())),
            counit_simulation(two_state_example()),
        ):
            assert check_bisimulation(sim) == check_bisimulation(dagger_simulation(sim))


class TestCanonicalDetSimulation:
    def test_fixture_component_pairs(self):
        sim = canonical_det_simulation(two_state_example())
        pairs = {(t.left, t.right) for t in sim.components["s"].apex}
        assert pairs == {("{1}", "1"), ("{2}", "2"), ("{1,2}", "1"), ("{1,2}", "2")}

    def test_initial_subset_relates_to_initial(self):
        a = two_state_example()
        sim = canonical_det_simulation(a)
        assert (subset_label({a.initial}), a.initial) in {
            (t.left, t.right) for t in sim.components["s"].apex
        }

    def test_lax_check_passes(self):
        for a in (two_state_example(), two_phase_example()):
            sim = canonical_det_simulation(a)
            assert check_span_simulation(sim, "lax").ok

    def test_edge_b_square_witness(self):
        sim = canonical_det_simulation(two_state_example())
        assert "b" in square_witnesses(sim, "lax")

    def test_pseudo_fails_on_multiplicity(self):
        sim = canonical_det_simulation(two_state_example())
        result = check_span_simulation(sim, "pseudo")
        assert not result.ok and result.failed_edge == "b"


class TestCanonicalMDetSimulation:
    def test_multiplicity_readout(self):
        sim = canonical_mdet_simulation(two_state_example(), max_len=4)
        by_state = {}
        for t in sim.components["s"].apex:
            by_state.setdefault(t.left, []).append(t.right)
        assert sorted(by_state["(1,1)"]) == ["1", "2"]
        assert by_state["(1,0)"] == ["1"]
        assert sorted(by_state["(0,2)"]) == ["2", "2"]

    def test_pseudo_check_passes(self):
        for a in (two_state_example(), two_phase_example()):
            sim = canonical_mdet_simulation(a, max_len=4)
            assert check_span_simulation(sim, "pseudo").ok

    def test_edge_a_square_at_start(self):
        a = two_state_example()
        sim = canonical_mdet_simulation(a, max_len=4)
        from spanauto.simulation import transition_span
        from spanauto.spans import compose_spans

        lhs = compose_spans(sim.components["s"], transition_span(a, "a"))
        rhs = compose_spans(transition_span(sim.target, "a"), sim.components["s"])
        assert to_matrix(lhs)["(1,0)", "1"] == 1
        assert to_matrix(lhs)["(1,0)", "2"] == 1
        assert to_matrix(rhs)["(1,0)", "1"] == 1
        assert to_matrix(rhs)["(1,0)", "2"] == 1

    def test_truncated_expansion_checks_recorded_rows_only(self):
        # counts double every step, so the state space never closes; the
        # pseudo check must still pass on the rows that were recorded
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        growing = SpanAutomaton(
            base, {"n": q}, {"e": Span(q, q, [Token("u", "1", "1"), Token("v", "1", "1")])}, "1", {"1"}
        )
        sim = canonical_mdet_simulation(growing, max_len=3)
        assert sim.target.truncated
        assert check_span_simulation(sim, "pseudo").ok
        assert square_oracle(sim, "pseudo") == (True, None, ())
        assert all(m.is_iso() for m in square_witnesses(sim, "pseudo").values())
        # the strict check reads the same rows
        strict = Simulation(rel_of(growing), sim.target, {"n": image(sim.components["n"])}, "strict")
        assert check_rel_simulation(strict).ok


def random_det_target(rng, f):
    """A deterministic automaton on f's base with one or two states per fiber."""
    fibers = {n: FinSet(f"G{i}", [f"g{i}.{j}" for j in range(rng.randint(1, 2))]) for i, n in enumerate(f.base.nodes)}
    tables = {e.id: {x: rng.choice(fibers[e.dst].elements) for x in fibers[e.src]} for e in f.base.edges}
    return DetAutomaton(f.base, fibers, tables, fibers[f.base.nodes[0]].elements[0], set())


def random_factor_instance(rng, strength):
    """A natural simulation with a nonzero component, inside the uniqueness gate of its factorization.

    Strict draws relation components and keeps those natural at the
    relation level; pseudo draws span components with multiplicities up
    to two and keeps those whose counting matrices commute.
    """
    from genlib import random_span_automaton

    while True:
        f = random_span_automaton(rng, max_nodes=2, max_states=2)
        if len(f.base.edges) > 2:
            continue
        g = random_det_target(rng, f)
        for _ in range(50):
            if strength == "strict":
                comps = {
                    n: Relation(g.fibers[n], f.fibers[n],
                                [(x, q) for x in g.fibers[n] for q in f.fibers[n] if rng.random() < 0.5])
                    for n in f.base.nodes
                }
                natural = check_rel_simulation(Simulation(rel_of(f), g, comps, "strict")).ok
                nonzero = any(c.pairs for c in comps.values())
            else:
                comps = {
                    n: Span(g.fibers[n], f.fibers[n],
                            [Token(f"c:{x}>{q}#{k}", x, q)
                             for x in g.fibers[n] for q in f.fibers[n] for k in range(rng.choice((0, 0, 1, 1, 2)))])
                    for n in f.base.nodes
                }
                natural = check_span_simulation(Simulation(f, g, comps, "pseudo"), "pseudo").ok
                nonzero = any(c.apex for c in comps.values())
            if natural and nonzero:
                return Simulation(f, g, comps, strength)


class TestFactorDet:
    def test_counit_gives_identity_mate(self):
        a = two_state_example()
        result = factor_det(counit_simulation(a))
        assert result.composite_ok and result.bisim_ok
        d = det(a)
        expected = {(q, q) for q in d.fibers["s"]}
        assert image(result.mate.components["s"]).pairs == frozenset(expected)

    def test_tiny_instance_all_flags(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        fq = FinSet("F", ["1", "2"])
        f = SpanAutomaton(
            base, {"n": fq}, {"e": Span(fq, fq, [Token("t1", "1", "1"), Token("t2", "2", "2")])}, "1", {"2"}
        )
        gq = FinSet("G", ["x"])
        g = DetAutomaton(base, {"n": gq}, {"e": {"x": "x"}}, "x", {"x"})
        alpha = Simulation(f, g, {"n": Relation(gq, fq, {("x", "1"), ("x", "2")})}, "strict")
        result = factor_det(alpha)
        assert result.composite_ok and result.bisim_ok and result.unique_ok
        assert image(result.mate.components["n"]).pairs == {("x", "{1,2}")}

    def test_non_natural_alpha_rejected(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        fq = FinSet("F", ["1", "2"])
        # the loop swaps the two states, so a constant component cannot be natural
        f = SpanAutomaton(
            base, {"n": fq}, {"e": Span(fq, fq, [Token("t1", "1", "2"), Token("t2", "2", "1")])}, "1", {"2"}
        )
        gq = FinSet("G", ["x"])
        g = DetAutomaton(base, {"n": gq}, {"e": {"x": "x"}}, "x", {"x"})
        broken = Simulation(f, g, {"n": Relation(gq, fq, {("x", "1")})}, "strict")
        with pytest.raises(ValueError):
            factor_det(broken)

    @staticmethod
    def one_loop(steps, component, strength):
        """A simulation onto a one-state loop from a two-state span automaton."""
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        fq, gq = FinSet("F", ["1", "2"]), FinSet("G", ["x"])
        f = SpanAutomaton(base, {"n": fq}, {"e": Span(fq, fq, [Token(f"t{i}", q, r) for i, (q, r) in enumerate(steps)])},
                          "1", {"2"})
        g = DetAutomaton(base, {"n": gq}, {"e": {"x": "x"}}, "x", {"x"})
        return Simulation(f, g, {"n": Span(gq, fq, [Token(f"c{i}", "x", q) for i, q in enumerate(component)])}, strength)

    @pytest.mark.parametrize("steps, component, strength, message", [
        # x relates to 1 alone, but 1 steps to 2: lax fails, and its error wins
        ([("1", "2")], ["1"], "lax",
         "alpha fails its declared 'lax' check: square at edge 'e': multiplicities differ at [('x', '1'), ('x', '2')]"),
        # 2 has no step, so lax holds and only the supports differ
        ([("1", "1")], ["1", "2"], "lax",
         "alpha is not natural at the relation level: square at edge 'e' differs: lhs-only [], rhs-only [('x', '2')]"),
        # the supports agree, but 1 steps to itself twice
        ([("1", "1"), ("1", "1")], ["1"], "pseudo",
         "alpha fails its declared 'pseudo' check: square at edge 'e': multiplicities differ at [('x', '1')]"),
    ])
    def test_unnatural_alpha_error(self, steps, component, strength, message):
        with pytest.raises(ValueError) as info:
            factor_det(self.one_loop(steps, component, strength))
        assert str(info.value) == message

    def test_span_level_alpha_accepted(self):
        a = two_state_example()
        alpha = canonical_det_simulation(a)
        result = factor_det(alpha)
        assert result.composite_ok and result.bisim_ok

    def test_unique_ok_agrees_with_enumeration(self):
        import random

        from genlib import enumerated_unique_det_factor

        rng = random.Random(1)
        seen = {True: 0, False: 0}
        for i in range(150):
            alpha = random_factor_instance(rng, "strict")
            result = factor_det(alpha)
            f, g = alpha.source, alpha.target
            rel_alpha = Simulation(rel_of(f), g, {n: image(alpha.components[n]) for n in f.base.nodes}, "strict")
            assert result.unique_ok == (enumerated_unique_det_factor(rel_alpha, det(f), g) == 1), i
            seen[result.unique_ok] += 1
        # some mates are not bisimulations, so the failing side is exercised too
        assert seen[True] and seen[False]


    def test_composite_ok_agrees_with_full_membership(self):
        # factor_det compares the members of the subsets the mate hits; the
        # composite reads no other row of the full membership relation
        import random

        rng = random.Random(2)
        for strength in ("strict", "pseudo"):
            for i in range(60):
                alpha = random_factor_instance(rng, strength)
                result = factor_det(alpha)
                f, g, d = alpha.source, alpha.target, det(alpha.source)
                multi = len(f.base.nodes) > 1
                full = all(
                    compose_relations(Relation(g.fibers[n], d.fibers[n], image(result.mate.components[n]).pairs),
                                      membership_relation(d.fibers[n], f.fibers[n], n, multi))
                    == image(alpha.components[n])
                    for n in f.base.nodes
                )
                assert result.composite_ok == full, (strength, i)


    def test_verdicts_agree_with_full_powerset_oracle(self):
        # closures of random subsets in fibers of up to 10 states, on bases of up to
        # three nodes, and factor instances inside the uniqueness gate; the mate's
        # source is the part of det(f) its images reach, and the verdicts are det(f)'s
        import random

        from genlib import full_powerset_bisim, random_closure_simulation

        rng = random.Random(3)
        draws = [random_closure_simulation(rng) for _ in range(240)]
        draws += [random_factor_instance(rng, strength) for strength in ("strict", "pseudo") for _ in range(40)]
        seen = {True: 0, False: 0}
        multi_node = 0
        for i, alpha in enumerate(draws):
            result = factor_det(alpha)
            full, composite_ok, bisim_ok = full_powerset_bisim(alpha)
            assert (result.composite_ok, result.bisim_ok) == (composite_ok, bisim_ok), i
            d, nodes = result.mate.source, alpha.source.base.nodes
            assert all(image(result.mate.components[n]).pairs == image(full.components[n]).pairs for n in nodes), i
            assert all(set(d.fibers[n]) <= set(full.source.fibers[n]) for n in nodes), i
            assert all(d.transitions[e].items() <= full.source.transitions[e].items() for e in d.transitions), i
            assert d.initial == full.source.initial, i
            seen[bisim_ok] += 1
            multi_node += len(nodes) > 1
        assert min(seen.values()) >= 50 and multi_node >= 50, (seen, multi_node)

    def test_chain_into_singletons_is_no_bisimulation(self):
        # x_i relates to q_i alone and x_end to nothing; the closure is the images,
        # but the tail {q10,q11} outside it steps to the image {q11}
        from genlib import chain_into_singletons, full_powerset_bisim

        alpha = chain_into_singletons(12)
        result = factor_det(alpha)
        assert (result.composite_ok, result.bisim_ok) == (True, False)
        assert len(result.mate.source.fibers["n"]) == 13
        full, composite_ok, bisim_ok = full_powerset_bisim(alpha)
        assert (composite_ok, bisim_ok) == (True, False)
        assert image(result.mate.components["n"]).pairs == image(full.components["n"]).pairs


    @staticmethod
    def onto_one_state(f, members):
        """A strict simulation from ``f`` onto one state looping on every edge, related to ``members``."""
        node, gq = f.initial_node, FinSet("G", ["x"])
        g = DetAutomaton(f.base, {node: gq}, {e.id: {"x": "x"} for e in f.base.edges}, "x", set())
        return Simulation(f, g, {node: Relation(gq, f.fibers[node], {("x", q) for q in members})}, "strict")

    def test_error_order(self):
        # alpha's naturality is decided before the powerset cap refuses the source and
        # before any subset is stepped: the pruned closure of nth_letter_from_end(19)
        # passes the work bound (test_determinize), yet its non-natural alpha says so at once
        from genlib import chain_into_singletons, nth_letter_from_end

        wide = chain_into_singletons(POWERSET_CAP + 1).source
        cases = [
            (wide, ["q00"], "alpha is not natural at the relation level: square at edge 'e' differs: "),
            (wide, [], f"fiber of 'n' has {POWERSET_CAP + 1} states; refusing powerset above {POWERSET_CAP}"),
            (nth_letter_from_end(19), ["q00"], "alpha is not natural at the relation level: square at edge 'a' differs: "),
        ]
        for f, members, message in cases:
            with pytest.raises(ValueError) as info:
                factor_det(self.onto_one_state(f, members))
            assert str(info.value).startswith(message), str(info.value)


class TestFactorMDet:
    def test_identity_on_deterministic_gives_unit_mate(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1", "2"])
        f = SpanAutomaton(
            base, {"n": q}, {"e": Span(q, q, [Token("t1", "1", "2"), Token("t2", "2", "1")])}, "1", {"2"}
        )
        g = DetAutomaton(base, {"n": q}, {"e": {"1": "2", "2": "1"}}, "1", {"2"})
        alpha = Simulation(f, g, {"n": Span(q, q, [Token("i1", "1", "1"), Token("i2", "2", "2")])}, "pseudo")
        result = factor_mdet(alpha, max_len=4)
        assert result.composite_ok and result.bisim_ok and result.unique_ok
        targets = {t.left: t.right for t in result.mate.components["n"].apex}
        assert targets == {"1": "(1,0)", "2": "(0,1)"}

    def test_lax_only_alpha_rejected(self):
        a = two_state_example()
        alpha = canonical_det_simulation(a)
        with pytest.raises(ValueError):
            factor_mdet(alpha, max_len=3)
        # redeclaring the strength does not help: the pseudo check runs
        relabeled = Simulation(alpha.source, alpha.target, alpha.components, "pseudo")
        with pytest.raises(ValueError):
            factor_mdet(relabeled, max_len=3)

    def test_doubled_component_records_multiplicity(self):
        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        f1 = FinSet("F", ["q"])
        f = SpanAutomaton(base, {"n": f1}, {"e": Span(f1, f1, [Token("l", "q", "q")])}, "q", {"q"})
        g1 = FinSet("G", ["x"])
        g = DetAutomaton(base, {"n": g1}, {"e": {"x": "x"}}, "x", {"x"})
        alpha = Simulation(
            f, g, {"n": Span(g1, f1, [Token("c1", "x", "q"), Token("c2", "x", "q")])}, "pseudo"
        )
        result = factor_mdet(alpha, max_len=3)
        assert result.composite_ok and result.bisim_ok
        assert [t.right for t in result.mate.components["n"].apex] == ["(2)"]

    def test_canonical_mdet_simulation_factors_identically(self):
        # uses the counting machine's own expansion as the deterministic target
        a = two_state_example()
        exp = mdet_expand(mdet(a), max_states=64, max_len=8)
        g = exp.as_det_automaton()
        sim = canonical_mdet_simulation(a, max_len=8)
        alpha = Simulation(a, g, sim.components, "pseudo")
        result = factor_mdet(alpha, max_len=8)
        assert result.composite_ok and result.bisim_ok
        mate_map = {t.left: t.right for t in result.mate.components["s"].apex}
        assert mate_map == {lbl: lbl for lbl in g.fibers["s"]}

    def test_unique_ok_agrees_with_enumeration(self):
        import random

        from genlib import enumerated_unique_mdet_factor
        from spanauto.simulation import multiplicity_span

        rng = random.Random(1)
        seen = {True: 0, False: 0}
        for i in range(150):
            alpha = random_factor_instance(rng, "pseudo")
            result = factor_mdet(alpha, max_len=2)
            f, g, exp = alpha.source, alpha.target, result.mate.source
            alpha_matrices = {n: to_matrix(alpha.components[n]) for n in f.base.nodes}
            etas = {n: to_matrix(multiplicity_span(exp, n, f.fibers[n])) for n in f.base.nodes}
            count = enumerated_unique_mdet_factor(alpha, exp, g, alpha_matrices, etas)
            assert result.unique_ok == (count == 1), i
            seen[result.unique_ok] += 1
        # some mates are not bisimulations, so the failing side is exercised too
        assert seen[True] and seen[False]


class TestMatrixComponents:
    def test_matrix_components_are_stored_as_spans(self):
        a = two_state_example()
        ident = identity_simulation(a, strength="pseudo")
        # a matrix is stored as its canonical span, a relation as one counted token per pair
        for given in (to_matrix, image):
            sim = Simulation(a, a, {n: given(ident.components[n]) for n in a.base.nodes}, "pseudo")
            assert isinstance(sim.components["s"], Span)
            assert to_matrix(sim.components["s"]) == to_matrix(ident.components["s"])
            assert check_span_simulation(sim, "pseudo").ok


class TestComposeSimulations:
    def test_counit_after_identity(self):
        a = two_state_example()
        sim = counit_simulation(a)
        ident = identity_simulation(sim.source)
        composite = compose_simulations(ident, sim)
        assert to_matrix(composite.components["s"]) == to_matrix(sim.components["s"])

    def test_strict_results_keep_their_relational_meaning(self):
        # strict components are counted spans; their images are what identity, dagger and compose mean
        for seed in range(12):
            for sim in strict_simulations(seed):
                images = {n: image(c) for n, c in sim.components.items()}
                for a in (sim.source, sim.target):
                    ident = identity_simulation(a)
                    assert all(image(c) == identity_relation(a.fibers[n]) for n, c in ident.components.items())
                dagger = dagger_simulation(sim)
                assert all(image(dagger.components[n]) == dagger_relation(r) for n, r in images.items())
                after_ident = compose_simulations(identity_simulation(sim.source), sim)
                assert all(image(after_ident.components[n]) == r for n, r in images.items())
                round_trip = compose_simulations(sim, dagger)
                assert all(image(round_trip.components[n]) == compose_relations(dagger_relation(r), r)
                           for n, r in images.items())

    def test_strength_takes_the_weaker(self):
        a = two_state_example()
        lax = canonical_det_simulation(a)
        ident = identity_simulation(a, strength="pseudo")
        assert compose_simulations(ident, lax).strength == "lax"


# ---------------------------------------------------------------------------
# matrix-first squares against token witnesses and a dict-matrix oracle


def _counts(x):
    """Entry counts of a span, relation, det table or matrix, by plain loops."""
    from spanauto.spans import NatMatrix

    if isinstance(x, Span):
        out = {}
        for t in x.apex:
            out[(t.left, t.right)] = out.get((t.left, t.right), 0) + 1
        return out
    if isinstance(x, Relation):
        return {p: 1 for p in x.pairs}
    if isinstance(x, NatMatrix):
        return dict(x.entries)
    return {(q, t): 1 for q, t in x.items()}


def _edge_counts(a, edge_id):
    from spanauto.automata import MDetMachine

    if isinstance(a, MDetMachine):
        return _counts(a.matrices[edge_id])
    return _counts(a.transitions[edge_id])


def _product(m, n):
    out = {}
    for (a, b), u in m.items():
        for (b2, c), v in n.items():
            if b == b2:
                out[(a, c)] = out.get((a, c), 0) + u * v
    return out


def oracle_sides(sim, e):
    """Both sides of the square at edge ``e`` as dicts, on the recorded rows."""
    from spanauto.determinize import ExpandedMachine

    rows = set(sim.target.transitions[e.id]) if isinstance(sim.target, ExpandedMachine) else None

    def keep(m):
        return {k: v for k, v in m.items() if rows is None or k[0] in rows}

    lhs = _product(keep(_counts(sim.components[e.src])), _edge_counts(sim.source, e.id))
    rhs = _product(keep(_edge_counts(sim.target, e.id)), _counts(sim.components[e.dst]))
    return lhs, rhs


def square_oracle(sim, mode):
    """(ok, failed_edge, differences) from dict products over every edge."""
    for e in sim.source.base.edges:
        lhs, rhs = oracle_sides(sim, e)
        ok = lhs == rhs if mode == "pseudo" else set(lhs) <= set(rhs)
        if not ok:
            keys = set(lhs) | set(rhs)
            diffs = sorted((*k, lhs.get(k, 0), rhs.get(k, 0)) for k in keys if lhs.get(k, 0) != rhs.get(k, 0))
            return False, e.id, tuple(diffs)
    return True, None, ()


def _drop_one(sim, rng):
    """A copy with one component token (or pair) removed, usually unnatural."""
    nodes = [n for n in sim.source.base.nodes if _counts(sim.components[n])]
    if not nodes:
        return sim
    n = rng.choice(nodes)
    c = sim.components[n]
    drop = rng.randrange(len(c.apex))
    c = Span(c.dom, c.cod, [t for i, t in enumerate(c.apex) if i != drop])
    return Simulation(sim.source, sim.target, {**sim.components, n: c}, sim.strength)


def _random_component(rng, dom, cod, as_relation):
    pairs = [(x, q) for x in dom for q in cod if rng.random() < 0.4]
    if as_relation:
        return Relation(dom, cod, pairs)
    return Span(dom, cod, [Token(f"c{i}", x, q) for i, (x, q) in enumerate(pairs * rng.randint(1, 2))])


def random_simulations(seed):
    """Passing and failing simulations over one random base.

    Even seeds draw one node with up to four states, odd seeds up to three
    nodes with up to three states each.
    """
    import random

    from genlib import random_span_automaton, span_automaton_of_rel

    rng = random.Random(seed)
    shape = {"max_nodes": 3, "max_states": 3} if seed % 2 else {"max_nodes": 1, "max_states": 4}
    a = random_span_automaton(rng, **shape)
    while not a.base.edges:
        a = random_span_automaton(rng, **shape)
    r = rel_of(a)
    sims = [
        canonical_det_simulation(a),
        identity_simulation(a, "pseudo"),
        identity_simulation(r, "lax"),
        Simulation(a, span_automaton_of_rel(r), {n: identity_span(a.fibers[n]) for n in a.base.nodes}, "lax"),
        canonical_mdet_simulation(a, max_len=2),
    ]
    for target in (a, r, det(a)):
        comps = {
            n: _random_component(rng, target.fibers[n], a.fibers[n], rng.random() < 0.5) for n in a.base.nodes
        }
        sims.append(Simulation(a, target, comps, "lax"))
    return sims + [_drop_one(sim, rng) for sim in sims]


def rel_square_oracle(sim):
    """(ok, failed_edge, detail, differences) from relation composites over every edge."""
    def rel(a, e):
        return Relation(a.fibers[e.src], a.fibers[e.dst], _edge_counts(a, e.id))

    for e in sim.source.base.edges:
        comp_src, comp_dst = sim.components[e.src], sim.components[e.dst]
        lhs = compose_relations(Relation(comp_src.dom, comp_src.cod, _counts(comp_src)), rel(sim.source, e))
        rhs = compose_relations(rel(sim.target, e), Relation(comp_dst.dom, comp_dst.cod, _counts(comp_dst)))
        if lhs != rhs:
            only_l, only_r = sorted(lhs.pairs - rhs.pairs), sorted(rhs.pairs - lhs.pairs)
            diffs = sorted([(*p, 1, 0) for p in only_l] + [(*p, 0, 1) for p in only_r])
            return False, e.id, f"square at edge {e.id!r} differs: lhs-only {only_l}, rhs-only {only_r}", tuple(diffs)
    return True, None, "", ()


def strict_simulations(seed):
    """``random_simulations`` with relational or deterministic endpoints and relation components."""
    from spanauto.automata import DetAutomaton, RelAutomaton
    from spanauto.determinize import ExpandedMachine
    def relational(a):
        return a if isinstance(a, (RelAutomaton, DetAutomaton)) else rel_of(a)

    return [
        Simulation(relational(sim.source), relational(sim.target),
                   {n: image(c) for n, c in sim.components.items()}, "strict")
        for sim in random_simulations(seed)
        if not isinstance(sim.target, ExpandedMachine)
    ]


class TestMatrixFirstSquares:
    SEEDS = range(12)

    def test_square_witnesses_follow_the_verdict(self):
        seen = set()
        for seed in self.SEEDS:
            for sim in random_simulations(seed):
                for mode in ("lax", "pseudo"):
                    result = check_span_simulation(sim, mode)
                    seen.add((mode, result.ok, len(sim.source.base.nodes) > 1))
                    if not result.ok:
                        with pytest.raises(ValueError, match=f"^no {mode} witness: {re.escape(result.detail)}$"):
                            square_witnesses(sim, mode)
                        continue
                    witnesses = square_witnesses(sim, mode)
                    assert set(witnesses) == {e.id for e in sim.source.base.edges}
                    for morphism in witnesses.values():
                        assert isinstance(morphism, SpanMorphism)
                        assert morphism.is_iso() or mode == "lax"
        # both modes, both verdicts, on single- and multi-node bases
        assert seen == {(m, ok, multi) for m in ("lax", "pseudo") for ok in (True, False) for multi in (True, False)}

    def test_verdict_matches_dict_oracle(self):
        for seed in self.SEEDS:
            for sim in random_simulations(seed):
                for mode in ("lax", "pseudo"):
                    result = check_span_simulation(sim, mode)
                    assert (result.ok, result.failed_edge, result.differences) == square_oracle(sim, mode)
                    if not result.ok:
                        at = [(row, col) for row, col, _, _ in result.differences]
                        assert result.detail == f"square at edge {result.failed_edge!r}: multiplicities differ at {at}"

    def test_witnesses_run_between_the_oracle_squares(self):
        for seed in self.SEEDS:
            for sim in random_simulations(seed):
                for mode in ("lax", "pseudo"):
                    if not check_span_simulation(sim, mode).ok:
                        continue
                    witnesses = square_witnesses(sim, mode)
                    for e in sim.source.base.edges:
                        morphism = witnesses[e.id]
                        assert (_counts(morphism.source), _counts(morphism.target)) == oracle_sides(sim, e)

    def test_witness_token_count_matches_the_built_witness(self):
        from spanauto.determinize import ExpandedMachine
        from spanauto.simulation import _witness_tokens, transition_span

        for seed in self.SEEDS:
            for sim in random_simulations(seed):
                if not check_span_simulation(sim, "lax").ok:
                    continue
                witnesses = square_witnesses(sim, "lax")
                partial = isinstance(sim.target, ExpandedMachine)
                for e in sim.source.base.edges:
                    morphism = witnesses[e.id]
                    read = [sim.components[e.src], sim.components[e.dst],
                            transition_span(sim.source, e.id), transition_span(sim.target, e.id)]
                    built = [morphism.source, morphism.target]
                    assert _witness_tokens(sim, e, partial) == sum(len(s.apex) for s in read + built)

    def test_huge_witness_is_refused_before_any_token(self, monkeypatch):
        import spanauto.simulation as simulation
        from spanauto.spans import from_matrix, NatMatrix

        def unreachable(*args):
            raise AssertionError("a witness was built")

        monkeypatch.setattr(simulation, "_square_witness", unreachable)

        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        a = SpanAutomaton(base, {"n": q}, {"e": Span(q, q, [Token("u", "1", "1")])}, "1", {"1"})
        comp = from_matrix(NatMatrix(q, q, {("1", "1"): 10**18}))
        sim = Simulation(a, a, {"n": comp}, "pseudo")
        assert check_span_simulation(sim, "pseudo").ok
        # both components, both transitions and both composites: 4 * 10**18 + 2 tokens
        with pytest.raises(ValueError, match=f"witness at edge 'e' would build {4 * 10**18 + 2} tokens"):
            square_witnesses(sim, "pseudo")

    def test_rel_verdict_matches_relation_oracle(self):
        seen = set()
        for seed in self.SEEDS:
            for sim in strict_simulations(seed):
                result = check_rel_simulation(sim)
                assert (result.ok, result.failed_edge, result.detail, result.differences) == rel_square_oracle(sim)
                seen.add((result.ok, len(sim.source.base.nodes) > 1))
        # both verdicts, on single- and multi-node bases
        assert seen == {(ok, multi) for ok in (True, False) for multi in (True, False)}

    def test_passing_checks_build_no_composite(self, monkeypatch):
        import random
        import sys

        import lawlib
        import spanauto.spans as spans

        a = two_phase_example()
        span_sim, rel_sim = canonical_det_simulation(a), counit_simulation(a)
        calls = []
        for name in ("matrix_compose", "compose_relations"):
            original = getattr(spans, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            for module in [m for key, m in sys.modules.items() if key.startswith("spanauto")] + [lawlib]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        assert check_span_simulation(span_sim, "lax").ok
        assert check_rel_simulation(rel_sim).ok
        assert calls == []
        # the wrappers do count: the image-functor law composes relations
        assert lawlib.law_image_functor(random.Random(0), 3) is None
        assert "compose_relations" in calls

    def test_failing_result_carries_differences(self):
        sim = canonical_det_simulation(two_state_example())
        result = check_span_simulation(sim, "pseudo")
        assert not result.ok and result.differences
        assert all(lhs != rhs for _, _, lhs, rhs in result.differences)
        assert list(result.differences) == sorted(result.differences)

    def test_rel_check_differences(self):
        r = rel_of(two_state_example())
        q = r.fibers["s"]
        sim = Simulation(r, r, {"s": Relation(q, q, {("1", "2"), ("2", "1")})}, "strict")
        result = check_rel_simulation(sim)
        assert not result.ok and result.differences
        only_l = [(a, b) for a, b, lhs, rhs in result.differences if (lhs, rhs) == (1, 0)]
        only_r = [(a, b) for a, b, lhs, rhs in result.differences if (lhs, rhs) == (0, 1)]
        assert len(only_l) + len(only_r) == len(result.differences)
        assert result.detail.endswith(f"lhs-only {only_l}, rhs-only {only_r}")
        assert check_rel_simulation(identity_simulation(r)).differences == ()


class TestTransitionMatrix:
    """The cached count-row view of every kind against the token form of its transitions."""

    @staticmethod
    def kinds(a):
        d = det(a)
        closed = mdet_expand(mdet(d), 4096, 200)
        assert not closed.truncated
        return (a, rel_of(a), d, mdet(a), closed, mdet_expand(mdet(a), 8, 2))

    def test_agrees_with_token_spans_for_every_kind(self):
        import random

        from genlib import random_span_automaton
        from spanauto.simulation import transition_span

        truncated = 0
        for seed in range(10):
            a = random_span_automaton(random.Random(seed), max_nodes=3, max_states=3)
            for kind in self.kinds(a):
                truncated += getattr(kind, "truncated", False)
                for e in a.base.edges:
                    tokens = transition_span(kind, e.id)
                    rows = kind.rows(e.id)
                    assert kind.rows(e.id) is rows
                    counts = {(q, t): c for q, row in rows.items() for t, c in row.items()}
                    assert all(row and all(c > 0 for c in row.values()) for row in rows.values())
                    assert counts == to_matrix(tokens).entries
                    assert kind.matrix(e.id) == to_matrix(tokens)
                    assert rel_of(kind).transitions[e.id] == image(tokens)
        assert truncated > 0

    def test_node_of_matches_fiber_scan(self):
        import random

        from genlib import random_span_automaton

        for seed in range(5):
            a = random_span_automaton(random.Random(seed), max_nodes=3, max_states=3)
            for kind in self.kinds(a):
                for n in kind.base.nodes:
                    for q in kind.fibers[n]:
                        scan = next(m for m in kind.base.nodes if q in kind.fibers[m])
                        assert kind.node_of(q) == scan
                assert kind.node_of("no such state") is None
                assert kind.initial_node == kind.node_of(kind.initial)

    def test_initial_node_error_unchanged(self):
        a = two_state_example()
        stray = SpanAutomaton(a.base, a.fibers, a.transitions, "zz", a.finals)
        with pytest.raises(ValueError, match="^initial state 'zz' lies in no fiber$"):
            stray.initial_node
        with pytest.raises(ValueError, match="^initial state 'zz' lies in no fiber$"):
            mdet(stray)

    def test_caches_stay_out_of_equality_and_repr(self):
        from spanauto.determinize import _masks

        a, b = two_state_example(), two_state_example()
        before = repr(a)
        for e in a.base.edges:
            a.rows(e.id)
        a.node_of(a.initial)
        _masks(a)
        assert "masks" in a._views
        assert a == b and repr(a) == before == repr(b)


def wide_simulations(rng):
    """Simulations whose source fibers reach the mask width ``POWERSET_CAP`` or pass it.

    A 20-state and a 21-state automaton, each read against itself, and the
    dagger of the membership simulation of a 7-state automaton, whose
    source is its 128-subset machine.
    """
    from genlib import LETTERS

    def automaton(size):
        fiber = FinSet("Q", [f"q{i}" for i in range(size)])
        base = BaseGraph(["n"], [(f"e{j}", LETTERS[j], "n", "n") for j in range(2)])
        spans = {
            e.id: Span(fiber, fiber, [Token(f"{q}{t}", q, t) for q in fiber for t in fiber if rng.random() < 3 / size])
            for e in base.edges
        }
        return SpanAutomaton(base, {"n": fiber}, spans, "q0", {"q1"})

    sims = [dagger_simulation(canonical_det_simulation(automaton(7)))]
    for size in (POWERSET_CAP, POWERSET_CAP + 1):
        wide = automaton(size)
        sims.append(identity_simulation(wide, "lax"))
        sims.append(Simulation(wide, wide, {"n": _random_component(rng, wide.fibers["n"], wide.fibers["n"], True)}, "lax"))
    return sims + [_drop_one(sim, rng) for sim in sims]


class TestSupportSquares:
    def test_support_verdicts_match_the_row_walk(self):
        import random

        from genlib import row_walk_verdict
        from spanauto.determinize import ExpandedMachine
        from spanauto.simulation import _check_squares

        seen = set()
        for seed in range(24):
            sims = random_simulations(seed)
            sims += [dagger_simulation(sim) for sim in sims]
            if seed % 8 == 0:
                sims += wide_simulations(random.Random(seed))
            for sim in sims:
                width = max(len(f) for f in sim.source.fibers.values())
                partial = isinstance(sim.target, ExpandedMachine)
                for mode in ("strict", "lax"):
                    got, want = _check_squares(sim, mode), row_walk_verdict(sim, mode)
                    assert (got.ok, got.failed_edge, got.detail, got.differences) == (
                        want.ok, want.failed_edge, want.detail, want.differences)
                    first = got.failed_edge == sim.source.base.edges[0].id
                    seen.add((mode, got.ok, first if not got.ok else None))
                    if width >= POWERSET_CAP:
                        seen.add(("widest masks" if width == POWERSET_CAP else "row walk", got.ok))
                    if partial:
                        seen.add(("partial", got.ok))
        for mode in ("strict", "lax"):
            assert {(mode, True, None), (mode, False, True), (mode, False, False)} <= seen
        for kind in ("widest masks", "row walk", "partial"):
            assert {(kind, True), (kind, False)} <= seen

    def test_wide_source_decided_in_linear_memory(self):
        # one fiber of 2**16 states stepped round a ring: masks as wide as the
        # fiber would hold about 2**33 bits, the row walk a few MB
        import time
        import tracemalloc

        fiber = FinSet("Q", [f"q{i:05d}" for i in range(2**16)])
        states = fiber.elements
        base = BaseGraph(["n"], [("e", "a", "n", "n")])
        d = DetAutomaton(base, {"n": fiber}, {"e": dict(zip(states, states[1:] + states[:1]))}, states[0], {states[-1]})
        strict, lax = identity_simulation(d, "strict"), identity_simulation(d, "lax")
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert check_rel_simulation(strict).ok
            assert check_span_simulation(lax, "lax").ok
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20 and elapsed < 30
