"""The loader keeps list order: its one-pass paths load what the entry-by-entry reader loads.

Span counts, and so the apex labels and their order, and ``det`` tables
follow the order of a document's entries.  Each draw below is written
out, every entry list is shuffled, and the document is loaded; the
counts, tables, relations and simulation components must equal, item by
item and in order, what ``genlib.reference_entries`` and
``genlib.reference_table`` read from the same shuffled lists.
"""

import json
import random

import pytest

from genlib import (
    random_closure_simulation,
    random_live_span_automaton,
    random_odd_names_automaton,
    random_span_automaton,
    reference_entries,
    reference_table,
)
from spanauto.automata import DetAutomaton
from spanauto.determinize import det, rel_of
from spanauto.io import parse_automaton, parse_simulation, serialize_automaton, serialize_simulation
from spanauto.simulation import Simulation, canonical_det_simulation
from spanauto.spans import FinSet, Span, Token


def shuffled(rng: random.Random, lists: dict) -> None:
    for entries in lists.values():
        rng.shuffle(entries)


def assert_read_in_order(a, doc: dict) -> None:
    """``a``, loaded from ``doc``, holds each edge's entries as the reference reads them, in order."""
    for e in a.base.edges:
        entries, at = doc["transitions"][e.id], f"transitions.{e.id}"
        src, dst = a.fibers[e.src], a.fibers[e.dst]
        if a.kind == "det":
            assert list(a.transitions[e.id].items()) == list(reference_table(entries, at, src, dst).items())
        elif a.kind == "rel":
            assert a.transitions[e.id].pairs == frozenset(reference_entries(entries, at, src, dst, False))
        else:
            counts = reference_entries(entries, at, src, dst, True)
            span = a.transitions[e.id]
            assert list(span.counts.items()) == list(counts.items())
            assert list(span.apex) == [Token(k, q, r) for k, (q, r) in
                                       enumerate(p for p, n in counts.items() for _ in range(n))]


def assert_simulation_read_in_order(sim: Simulation, rng: random.Random) -> None:
    doc = json.loads(serialize_simulation(sim))
    shuffled(rng, doc["components"])
    for end in ("source", "target"):
        shuffled(rng, doc[end]["transitions"])
    loaded = parse_simulation(doc)
    assert_read_in_order(loaded.source, doc["source"])
    assert_read_in_order(loaded.target, doc["target"])
    for n in loaded.source.base.nodes:
        counts = reference_entries(doc["components"][n], f"components.{n}", loaded.target.fibers[n],
                                   loaded.source.fibers[n], True, "target state", "source state")
        component = loaded.components[n]
        assert list(component.counts.items()) == list(counts.items())
        assert list(component.apex) == [Token(k, x, q) for k, (x, q) in
                                        enumerate(p for p, c in counts.items() for _ in range(c))]


def relabelled(rng: random.Random, d: DetAutomaton) -> Simulation:
    """A pseudo simulation from ``d`` onto a copy with shuffled state names, each copy sent back."""
    names = [q for n in d.base.nodes for q in d.fibers[n]]
    fresh = [f"r{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    rename = dict(zip(names, fresh))
    fibers = {n: FinSet(f"R{i}", [rename[q] for q in d.fibers[n]]) for i, n in enumerate(d.base.nodes)}
    tables = {e: {rename[q]: rename[t] for q, t in table.items()} for e, table in d.transitions.items()}
    g = DetAutomaton(d.base, fibers, tables, rename[d.initial], {rename[q] for q in d.finals})
    components = {n: Span(fibers[n], d.fibers[n], [Token(f"({rename[q]})", rename[q], q) for q in d.fibers[n]])
                  for n in d.base.nodes}
    return Simulation(d, g, components, "pseudo")


@pytest.mark.parametrize("seed", range(6))
def test_every_kind_of_draw_loads_in_list_order(seed):
    rng = random.Random(seed)
    spans = [random_span_automaton(rng, max_nodes=3, max_states=5, max_mult=3, probe_len=0),
             random_live_span_automaton(rng),
             random_odd_names_automaton(rng, max_nodes=3, max_states=6)]
    for a in spans:
        for drawn in (a, rel_of(a), det(a), det(a, prune=True)):
            text = serialize_automaton(drawn)
            doc = json.loads(text)
            shuffled(rng, doc["transitions"])
            loaded = parse_automaton(doc)
            assert serialize_automaton(loaded) == text
            assert_read_in_order(loaded, doc)


@pytest.mark.parametrize("seed", range(6))
def test_membership_and_relabelled_simulations_load_in_list_order(seed):
    rng = random.Random(100 + seed)
    a = random_span_automaton(rng, max_nodes=2, max_states=4, max_mult=2, probe_len=0)
    for sim in (canonical_det_simulation(a), relabelled(rng, det(a, prune=True)), random_closure_simulation(rng)):
        assert_simulation_read_in_order(sim, rng)
