"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Random instances are drawn from fixed seeds, so every
run checks the same population.
"""

import random
import sys
import time

import pytest

from genlib import brute_force_paths, random_classical_nfa, random_span_automaton
from lawlib import LAWS, run_law
from spanauto.spans import FinSet, Relation, Span, Token, subsets_of
from spanauto.automata import (
    BaseGraph,
    DetAutomaton,
    SpanAutomaton,
    Word,
    accepted,
    count_paths,
    language,
)
from spanauto.determinize import (
    classical_subset_construction,
    det,
    mdet,
    mdet_accept_count,
    mdet_expand,
    prune_reachable,
    reachable_iso_check,
    rel_of,
    span_automaton_of_classical,
    subset_state_label,
)
from spanauto.fixtures import two_phase_example, two_state_example
from spanauto.simulation import (
    Simulation,
    canonical_det_simulation,
    canonical_mdet_simulation,
    check_span_simulation,
    factor_det,
    factor_mdet,
)
from spanauto.spans import multiset_extend


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        # bypass capture so the per-criterion line always shows up
        print(f"{self.name}: {status} ({elapsed:.2f}s, budget {self.seconds:.0f}s)", file=sys.__stdout__)
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its time budget: {elapsed:.2f}s"
        return False


@pytest.fixture(scope="module")
def generated_automata():
    rng = random.Random(20240901)
    return [random_span_automaton(rng) for _ in range(500)]


def test_criterion_1_two_state_reproduction():
    with Budget("criterion 1 (two-state powerset machine, exact)", 1.0):
        d = det(two_state_example())
        assert list(d.fibers["s"]) == ["{}", "{1}", "{2}", "{1,2}"]
        assert d.transitions["a"] == {
            "{1}": "{1,2}",
            "{2}": "{}",
            "{1,2}": "{1,2}",
            "{}": "{}",
        }
        assert d.transitions["b"] == {
            "{1}": "{2}",
            "{2}": "{2}",
            "{1,2}": "{2}",
            "{}": "{}",
        }
        assert d.initial == "{1}"
        assert d.finals == {"{2}", "{1,2}"}


def test_criterion_2_two_phase_fiber_separation():
    with Budget("criterion 2 (two-phase fibers and language)", 5.0):
        a = two_phase_example()
        d = det(a)
        for node in a.base.nodes:
            original = set(a.fibers[node].elements)
            for lbl in d.fibers[node]:
                prefix, _, subset = lbl.partition(":")
                assert prefix == node
                members = set(subset.strip("{}").split(",")) - {""}
                assert members <= original
        assert [w.edges for w in language(a, 6)] == [w.edges for w in language(d, 6)]


def test_criterion_3_classical_agreement():
    with Budget("criterion 3 (200 NFAs vs subset construction)", 30.0):
        rng = random.Random(20240903)
        for _ in range(200):
            nfa = random_classical_nfa(rng)
            categorical = det(span_automaton_of_classical(nfa))
            classical = classical_subset_construction(nfa)
            assert reachable_iso_check(
                prune_reachable(categorical), prune_reachable(classical)
            ) is not None


def _check_preservation(a, sample_rng, max_len=6):
    d = det(a)
    machine = mdet(a)
    node = a.initial_node
    sampled = []
    stack = [(Word(node), node, machine.initial_vector, d.initial)]
    while stack:
        w, at, vec, dstate = stack.pop()
        runs = sum(c for q, c in vec.counts.items() if q in a.finals)
        det_accepts = dstate in d.finals
        assert (runs > 0) == det_accepts, f"language broken at {w.edges}"
        assert runs == len(brute_force_paths(a, w)), f"count broken at {w.edges}"
        if sample_rng.random() < 0.05:
            sampled.append(w)
        if len(w) < max_len:
            for e in a.base.out_edges(at):
                stack.append(
                    (
                        w.extend(e),
                        e.dst,
                        multiset_extend(machine.matrices[e.id], vec),
                        d.transitions[e.id][dstate],
                    )
                )
    # bind the incremental walk back to the public word-level functions
    for w in sampled[:10]:
        assert accepted(a, w) == accepted(d, w)
        assert mdet_accept_count(machine, w) == count_paths(a, w) == len(brute_force_paths(a, w))


def test_criterion_4_language_and_weight_preservation(generated_automata):
    with Budget("criterion 4 (500 automata, all words up to length 6)", 60.0):
        sample_rng = random.Random(20240904)
        for a in generated_automata:
            _check_preservation(a, sample_rng)


def test_criterion_5_law_suites():
    with Budget("criterion 5 (law suites, 1000 cases each)", 60.0):
        for name in LAWS:
            failure = run_law(name, seed=5, cases=1000)
            assert failure is None, str(failure)


def test_criterion_6_canonical_simulations(generated_automata):
    with Budget("criterion 6 (canonical simulations on generated automata)", 60.0):
        for a in generated_automata:
            lax = canonical_det_simulation(a)
            assert check_span_simulation(lax, "lax").ok
        for a in generated_automata:
            pseudo = canonical_mdet_simulation(a, max_len=4)
            assert check_span_simulation(pseudo, "pseudo").ok


def _relabeled_det_instance(rng, f):
    """A deterministic target: the powerset machine with renamed states."""
    d = det(f)
    multi = len(f.base.nodes) > 1
    mapping = {}
    fibers = {}
    for n in d.base.nodes:
        new = [f"g{n}.{i}" for i in range(len(d.fibers[n]))]
        rng.shuffle(new)
        for old, fresh in zip(d.fibers[n], new):
            mapping[old] = fresh
        fibers[n] = FinSet(f"G{n}", [mapping[lbl] for lbl in d.fibers[n]])
    tables = {
        e.id: {mapping[q]: mapping[t] for q, t in d.transitions[e.id].items()}
        for e in d.base.edges
    }
    g = DetAutomaton(d.base, fibers, tables, mapping[d.initial], {mapping[q] for q in d.finals})
    rel_f = rel_of(f)
    components = {}
    for n in f.base.nodes:
        pairs = set()
        for s in subsets_of(f.fibers[n]):
            lbl = mapping[subset_state_label(n, s, multi)]
            pairs |= {(lbl, q) for q in s}
        components[n] = Relation(g.fibers[n], rel_f.fibers[n], pairs)
    return Simulation(rel_f, g, components, "strict")


def _deterministic_span_automaton(rng, max_nodes=2, max_states=3):
    n_nodes = rng.randint(1, max_nodes)
    nodes = [f"n{i}" for i in range(n_nodes)]
    edges = []
    for src in nodes:
        for dst in nodes:
            if rng.random() < 0.6:
                edges.append((f"e{len(edges)}", "abc"[len([e for e in edges if e[2] == src and e[3] == dst])], src, dst))
    if not any(e[2] == nodes[0] for e in edges):
        edges.append((f"e{len(edges)}", "a", nodes[0], nodes[0]))
    base = BaseGraph(nodes, edges)
    fibers = {n: FinSet(f"Q{i}", [f"q{i}.{j}" for j in range(rng.randint(1, max_states))]) for i, n in enumerate(nodes)}
    spans = {}
    for e in base.edges:
        apex = [
            Token(f"{e.id}:{q}", q, rng.choice(fibers[e.dst].elements))
            for q in fibers[e.src]
        ]
        spans[e.id] = Span(fibers[e.src], fibers[e.dst], apex)
    initial = rng.choice(fibers[nodes[0]].elements)
    finals = {q for n in nodes for q in fibers[n] if rng.random() < 0.4}
    return SpanAutomaton(base, fibers, spans, initial, finals)


def _relabeled_mdet_instance(rng, f):
    """A pseudo simulation from a deterministic automaton onto a renamed copy."""
    from genlib import to_det_automaton

    det_form = to_det_automaton(rel_of(f))
    mapping = {}
    fibers = {}
    for i, n in enumerate(f.base.nodes):
        new = [f"g{i}.{j}" for j in range(len(f.fibers[n]))]
        rng.shuffle(new)
        for old, fresh in zip(f.fibers[n], new):
            mapping[old] = fresh
        fibers[n] = FinSet(f"G{i}", [mapping[q] for q in f.fibers[n]])
    tables = {
        e.id: {mapping[q]: mapping[t] for q, t in det_form.transitions[e.id].items()}
        for e in f.base.edges
    }
    g = DetAutomaton(f.base, fibers, tables, mapping[f.initial], {mapping[q] for q in f.finals})
    components = {
        n: Span(
            fibers[n],
            f.fibers[n],
            [Token(f"c:{q}", mapping[q], q) for q in f.fibers[n]],
        )
        for n in f.base.nodes
    }
    return Simulation(f, g, components, "pseudo")


def test_criterion_7_universal_property():
    with Budget("criterion 7 (factorizations)", 120.0):
        rng = random.Random(20240907)
        exhaustive_seen = 0
        for i in range(100):
            if i % 2 == 0:
                f = random_span_automaton(rng, max_nodes=2, max_states=1, word_cap=200, path_cap=400)
                while len(f.base.edges) > 2:
                    f = random_span_automaton(rng, max_nodes=2, max_states=1, word_cap=200, path_cap=400)
            else:
                f = random_span_automaton(rng, max_nodes=2, max_states=3, word_cap=400, path_cap=800)
            alpha = _relabeled_det_instance(rng, f)
            result = factor_det(alpha)
            assert result.composite_ok and result.bisim_ok, f"factor_det instance {i}"
            if result.unique_ok is not None:
                exhaustive_seen += 1
                assert result.unique_ok, f"uniqueness failed on instance {i}"
        assert exhaustive_seen >= 25

        mdet_unique_seen = 0
        for i in range(100):
            f = _deterministic_span_automaton(rng)
            alpha = _relabeled_mdet_instance(rng, f)
            result = factor_mdet(alpha, max_len=4)
            assert result.composite_ok and result.bisim_ok, f"factor_mdet instance {i}"
            if result.unique_ok is not None:
                mdet_unique_seen += 1
                assert result.unique_ok, f"mdet uniqueness failed on instance {i}"
        # the counting machine's own expansion also factors through itself
        for a in (two_state_example(), two_phase_example()):
            exp = mdet_expand(mdet(a), max_states=256, max_len=8)
            assert not exp.truncated
            g = exp.as_det_automaton()
            sim = canonical_mdet_simulation(a, max_len=8)
            alpha = Simulation(a, g, sim.components, "pseudo")
            result = factor_mdet(alpha, max_len=8)
            assert result.composite_ok and result.bisim_ok
        assert mdet_unique_seen >= 25


def test_criterion_8_cli_goldens(fixtures_dir, golden_dir, capsys):
    from spanauto.cli import main

    with Budget("criterion 8 (CLI golden files)", 30.0):
        results = []
        for name in ("two_state", "two_phase"):
            for argv, golden in [
                (["det", str(fixtures_dir / f"{name}.json")], f"det_{name}.json"),
                (["mdet", str(fixtures_dir / f"{name}.json")], f"mdet_{name}.json"),
                (
                    ["lang", str(fixtures_dir / f"{name}.json"), "--max-len", "4", "--count"],
                    f"lang_count_{name}.txt",
                ),
            ]:
                code = main(argv)
                out, _ = capsys.readouterr()
                results.append((golden, code, out == (golden_dir / golden).read_text()))
        assert all(code == 0 and match for _, code, match in results), results
