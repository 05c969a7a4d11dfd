"""The loader's first-fault lines, one table per kind of entry list.

Span, rel and ``det`` transition lists and simulation components are read
by one loader.  Each case below spoils a valid two-entry list in one way
(or in two, where the first fault must win) and pins the exact
``input-error:`` text the loader gives, or ``None`` where the list is
valid for that kind.  The lines were recorded from the per-entry reader
that words every fault, so a faster path in front of it must leave them
as they are; that reader, kept as ``genlib.reference_entries``, still
gives each of them.
"""

import json

import pytest

from genlib import reference_entries, reference_table
from spanauto.cli import main
from spanauto.io import DocumentError, parse_automaton, parse_simulation
from spanauto.spans import FinSet

# each kind's valid list: two entries over the fibers ["1", "2"], or for components from ["1", "2"] into ["a", "b"]
GOOD = {
    "span": [{"from": "1", "to": "2", "count": 2}, {"from": "2", "to": "1"}],
    "rel": [{"from": "1", "to": "2"}, {"from": "2", "to": "1"}],
    "det": [{"from": "1", "to": "2"}, {"from": "2", "to": "1"}],
    "component": [{"from": "1", "to": "a"}, {"from": "2", "to": "b"}],
}


def _other(state: str) -> str:
    """A second state of the fiber ``state`` lies in, for a second pair from the same state."""
    return {"1": "2", "2": "1", "a": "b", "b": "a"}[state]


def _with(good: list, *entries) -> list:
    return [good[0], *entries]


def _first(good: list) -> dict:
    return {"from": good[0]["from"], "to": good[0]["to"]}


CASES = {
    "empty object": lambda k, g: {},
    "an object": lambda k, g: {"from": "1", "to": "2"},
    "a string": lambda k, g: "12",
    "null": lambda k, g: None,
    "int entry": lambda k, g: _with(g, 5),
    "pair list entry": lambda k, g: _with(g, ["2", "1"]),
    "two-letter string entry": lambda k, g: _with(g, "21"),
    "missing from": lambda k, g: _with(g, {"to": g[1]["to"]}),
    "missing from, two keys": lambda k, g: _with(g, {"to": g[1]["to"], "at": g[1]["from"]}),
    "missing to": lambda k, g: _with(g, {"from": g[1]["from"]}),
    "missing to, two keys": lambda k, g: _with(g, {"from": g[1]["from"], "at": g[1]["to"]}),
    "int from": lambda k, g: _with(g, {"from": 2, "to": g[1]["to"]}),
    "list from": lambda k, g: _with(g, {"from": [g[1]["from"]], "to": g[1]["to"]}),
    "list to": lambda k, g: _with(g, {"from": g[1]["from"], "to": [g[1]["to"]]}),
    "unknown from": lambda k, g: _with(g, {"from": "9", "to": g[1]["to"]}),
    "unknown to": lambda k, g: _with(g, {"from": g[1]["from"], "to": "9"}),
    "to from the other fiber": lambda k, g: _with(g, {"from": g[1]["from"], "to": g[1]["from"]}),
    **{f"count {c!r}": (lambda c: lambda k, g: _with(g, {**_first(g[1:]), "count": c}))(c)
       for c in (0, -1, 1.5, True, "2", None)},
    "count 1": lambda k, g: _with(g, {**_first(g[1:]), "count": 1}),
    "count 2": lambda k, g: _with(g, {**_first(g[1:]), "count": 2}),
    "extra key": lambda k, g: _with(g, {**_first(g[1:]), "weight": 2}),
    "count and extra key": lambda k, g: _with(g, {**_first(g[1:]), "count": 1, "weight": 2}),
    "bad count and extra key": lambda k, g: _with(g, {**_first(g[1:]), "count": 0, "weight": 2}),
    "duplicate pair": lambda k, g: [*g, _first(g)],
    "duplicate pair with a count": lambda k, g: [*g, {**_first(g), "count": 3}],
    "second image of a state": lambda k, g: [*g, {"from": g[0]["from"], "to": _other(g[0]["to"])}],
    "missing image": lambda k, g: g[:1],
    "no entries": lambda k, g: [],
    # the first fault wins over a later one
    "unknown state, then non-object": lambda k, g: _with(g, {"from": "9", "to": g[1]["to"]}, 5),
    "duplicate pair, then unknown state": lambda k, g: [*g, _first(g), {"from": "9", "to": "9"}],
    "second image, then count": lambda k, g: [*g, {"from": g[0]["from"], "to": _other(g[0]["to"])},
                                                 {**_first(g[1:]), "count": 1}],
    "second image, then unknown state": lambda k, g: [*g, {"from": g[0]["from"], "to": _other(g[0]["to"])},
                                                         {"from": "9", "to": "1"}],
    "missing image, then bad count": lambda k, g: [{**_first(g), "count": 0}],
}

# recorded from the per-entry reader; None where the list is valid for that kind
EXPECTED = {
    ('span', 'empty object'): 'transitions.e: expected a list of entries',
    ('span', 'an object'): 'transitions.e: expected a list of entries',
    ('span', 'a string'): 'transitions.e: expected a list of entries',
    ('span', 'null'): 'transitions.e: expected a list of entries',
    ('span', 'int entry'): 'transitions.e[1]: expected an object',
    ('span', 'pair list entry'): 'transitions.e[1]: expected an object',
    ('span', 'two-letter string entry'): 'transitions.e[1]: expected an object',
    ('span', 'missing from'): "transitions.e[1].from: unknown state None in fiber 'n'",
    ('span', 'missing from, two keys'): "transitions.e[1].from: unknown state None in fiber 'n'",
    ('span', 'missing to'): "transitions.e[1].to: unknown state None in fiber 'n'",
    ('span', 'missing to, two keys'): "transitions.e[1].to: unknown state None in fiber 'n'",
    ('span', 'int from'): "transitions.e[1].from: unknown state 2 in fiber 'n'",
    ('span', 'list from'): "transitions.e[1].from: unknown state ['2'] in fiber 'n'",
    ('span', 'list to'): "transitions.e[1].to: unknown state ['1'] in fiber 'n'",
    ('span', 'unknown from'): "transitions.e[1].from: unknown state '9' in fiber 'n'",
    ('span', 'unknown to'): "transitions.e[1].to: unknown state '9' in fiber 'n'",
    ('span', 'to from the other fiber'): None,
    ('span', 'count 0'): 'transitions.e[1].count: count must be a positive integer, got 0',
    ('span', 'count -1'): 'transitions.e[1].count: count must be a positive integer, got -1',
    ('span', 'count 1.5'): 'transitions.e[1].count: count must be a positive integer, got 1.5',
    ('span', 'count True'): 'transitions.e[1].count: count must be a positive integer, got True',
    ('span', "count '2'"): "transitions.e[1].count: count must be a positive integer, got '2'",
    ('span', 'count None'): 'transitions.e[1].count: count must be a positive integer, got None',
    ('span', 'count 1'): None,
    ('span', 'count 2'): None,
    ('span', 'extra key'): "transitions.e[1]: unknown keys ['weight']",
    ('span', 'count and extra key'): "transitions.e[1]: unknown keys ['weight']",
    ('span', 'bad count and extra key'): 'transitions.e[1].count: count must be a positive integer, got 0',
    ('span', 'duplicate pair'): "transitions.e[2]: duplicate pair ('1', '2')",
    ('span', 'duplicate pair with a count'): "transitions.e[2]: duplicate pair ('1', '2')",
    ('span', 'second image of a state'): None,
    ('span', 'missing image'): None,
    ('span', 'no entries'): None,
    ('span', 'unknown state, then non-object'): "transitions.e[1].from: unknown state '9' in fiber 'n'",
    ('span', 'duplicate pair, then unknown state'): "transitions.e[2]: duplicate pair ('1', '2')",
    ('span', 'second image, then count'): "transitions.e[3]: duplicate pair ('2', '1')",
    ('span', 'second image, then unknown state'): "transitions.e[3].from: unknown state '9' in fiber 'n'",
    ('span', 'missing image, then bad count'): 'transitions.e[0].count: count must be a positive integer, got 0',
    ('rel', 'empty object'): 'transitions.e: expected a list of entries',
    ('rel', 'an object'): 'transitions.e: expected a list of entries',
    ('rel', 'a string'): 'transitions.e: expected a list of entries',
    ('rel', 'null'): 'transitions.e: expected a list of entries',
    ('rel', 'int entry'): 'transitions.e[1]: expected an object',
    ('rel', 'pair list entry'): 'transitions.e[1]: expected an object',
    ('rel', 'two-letter string entry'): 'transitions.e[1]: expected an object',
    ('rel', 'missing from'): "transitions.e[1].from: unknown state None in fiber 'n'",
    ('rel', 'missing from, two keys'): "transitions.e[1].from: unknown state None in fiber 'n'",
    ('rel', 'missing to'): "transitions.e[1].to: unknown state None in fiber 'n'",
    ('rel', 'missing to, two keys'): "transitions.e[1].to: unknown state None in fiber 'n'",
    ('rel', 'int from'): "transitions.e[1].from: unknown state 2 in fiber 'n'",
    ('rel', 'list from'): "transitions.e[1].from: unknown state ['2'] in fiber 'n'",
    ('rel', 'list to'): "transitions.e[1].to: unknown state ['1'] in fiber 'n'",
    ('rel', 'unknown from'): "transitions.e[1].from: unknown state '9' in fiber 'n'",
    ('rel', 'unknown to'): "transitions.e[1].to: unknown state '9' in fiber 'n'",
    ('rel', 'to from the other fiber'): None,
    ('rel', 'count 0'): 'transitions.e[1].count: counts are only valid in span documents',
    ('rel', 'count -1'): 'transitions.e[1].count: counts are only valid in span documents',
    ('rel', 'count 1.5'): 'transitions.e[1].count: counts are only valid in span documents',
    ('rel', 'count True'): 'transitions.e[1].count: counts are only valid in span documents',
    ('rel', "count '2'"): 'transitions.e[1].count: counts are only valid in span documents',
    ('rel', 'count None'): 'transitions.e[1].count: counts are only valid in span documents',
    ('rel', 'count 1'): 'transitions.e[1].count: counts are only valid in span documents',
    ('rel', 'count 2'): 'transitions.e[1].count: counts are only valid in span documents',
    ('rel', 'extra key'): "transitions.e[1]: unknown keys ['weight']",
    ('rel', 'count and extra key'): 'transitions.e[1].count: counts are only valid in span documents',
    ('rel', 'bad count and extra key'): 'transitions.e[1].count: counts are only valid in span documents',
    ('rel', 'duplicate pair'): "transitions.e[2]: duplicate pair ('1', '2')",
    ('rel', 'duplicate pair with a count'): 'transitions.e[2].count: counts are only valid in span documents',
    ('rel', 'second image of a state'): None,
    ('rel', 'missing image'): None,
    ('rel', 'no entries'): None,
    ('rel', 'unknown state, then non-object'): "transitions.e[1].from: unknown state '9' in fiber 'n'",
    ('rel', 'duplicate pair, then unknown state'): "transitions.e[2]: duplicate pair ('1', '2')",
    ('rel', 'second image, then count'): 'transitions.e[3].count: counts are only valid in span documents',
    ('rel', 'second image, then unknown state'): "transitions.e[3].from: unknown state '9' in fiber 'n'",
    ('rel', 'missing image, then bad count'): 'transitions.e[0].count: counts are only valid in span documents',
    ('det', 'empty object'): 'transitions.e: expected a list of entries',
    ('det', 'an object'): 'transitions.e: expected a list of entries',
    ('det', 'a string'): 'transitions.e: expected a list of entries',
    ('det', 'null'): 'transitions.e: expected a list of entries',
    ('det', 'int entry'): 'transitions.e[1]: expected an object',
    ('det', 'pair list entry'): 'transitions.e[1]: expected an object',
    ('det', 'two-letter string entry'): 'transitions.e[1]: expected an object',
    ('det', 'missing from'): "transitions.e[1].from: unknown state None in fiber 'n'",
    ('det', 'missing from, two keys'): "transitions.e[1].from: unknown state None in fiber 'n'",
    ('det', 'missing to'): "transitions.e[1].to: unknown state None in fiber 'n'",
    ('det', 'missing to, two keys'): "transitions.e[1].to: unknown state None in fiber 'n'",
    ('det', 'int from'): "transitions.e[1].from: unknown state 2 in fiber 'n'",
    ('det', 'list from'): "transitions.e[1].from: unknown state ['2'] in fiber 'n'",
    ('det', 'list to'): "transitions.e[1].to: unknown state ['1'] in fiber 'n'",
    ('det', 'unknown from'): "transitions.e[1].from: unknown state '9' in fiber 'n'",
    ('det', 'unknown to'): "transitions.e[1].to: unknown state '9' in fiber 'n'",
    ('det', 'to from the other fiber'): None,
    ('det', 'count 0'): 'transitions.e[1].count: counts are only valid in span documents',
    ('det', 'count -1'): 'transitions.e[1].count: counts are only valid in span documents',
    ('det', 'count 1.5'): 'transitions.e[1].count: counts are only valid in span documents',
    ('det', 'count True'): 'transitions.e[1].count: counts are only valid in span documents',
    ('det', "count '2'"): 'transitions.e[1].count: counts are only valid in span documents',
    ('det', 'count None'): 'transitions.e[1].count: counts are only valid in span documents',
    ('det', 'count 1'): 'transitions.e[1].count: counts are only valid in span documents',
    ('det', 'count 2'): 'transitions.e[1].count: counts are only valid in span documents',
    ('det', 'extra key'): "transitions.e[1]: unknown keys ['weight']",
    ('det', 'count and extra key'): 'transitions.e[1].count: counts are only valid in span documents',
    ('det', 'bad count and extra key'): 'transitions.e[1].count: counts are only valid in span documents',
    ('det', 'duplicate pair'): "transitions.e[2]: duplicate pair ('1', '2')",
    ('det', 'duplicate pair with a count'): 'transitions.e[2].count: counts are only valid in span documents',
    ('det', 'second image of a state'): "transitions.e: state '1' mapped twice",
    ('det', 'missing image'): "transitions.e: missing image of state '2'",
    ('det', 'no entries'): "transitions.e: missing image of state '1'",
    ('det', 'unknown state, then non-object'): "transitions.e[1].from: unknown state '9' in fiber 'n'",
    ('det', 'duplicate pair, then unknown state'): "transitions.e[2]: duplicate pair ('1', '2')",
    ('det', 'second image, then count'): 'transitions.e[3].count: counts are only valid in span documents',
    ('det', 'second image, then unknown state'): "transitions.e[3].from: unknown state '9' in fiber 'n'",
    ('det', 'missing image, then bad count'): 'transitions.e[0].count: counts are only valid in span documents',
    ('component', 'empty object'): 'components.n: expected a list of entries',
    ('component', 'an object'): 'components.n: expected a list of entries',
    ('component', 'a string'): 'components.n: expected a list of entries',
    ('component', 'null'): 'components.n: expected a list of entries',
    ('component', 'int entry'): 'components.n[1]: expected an object',
    ('component', 'pair list entry'): 'components.n[1]: expected an object',
    ('component', 'two-letter string entry'): 'components.n[1]: expected an object',
    ('component', 'missing from'): "components.n[1].from: unknown target state None in fiber 'n'",
    ('component', 'missing from, two keys'): "components.n[1].from: unknown target state None in fiber 'n'",
    ('component', 'missing to'): "components.n[1].to: unknown source state None in fiber 'n'",
    ('component', 'missing to, two keys'): "components.n[1].to: unknown source state None in fiber 'n'",
    ('component', 'int from'): "components.n[1].from: unknown target state 2 in fiber 'n'",
    ('component', 'list from'): "components.n[1].from: unknown target state ['2'] in fiber 'n'",
    ('component', 'list to'): "components.n[1].to: unknown source state ['b'] in fiber 'n'",
    ('component', 'unknown from'): "components.n[1].from: unknown target state '9' in fiber 'n'",
    ('component', 'unknown to'): "components.n[1].to: unknown source state '9' in fiber 'n'",
    ('component', 'to from the other fiber'): "components.n[1].to: unknown source state '2' in fiber 'n'",
    ('component', 'count 0'): 'components.n[1].count: count must be a positive integer, got 0',
    ('component', 'count -1'): 'components.n[1].count: count must be a positive integer, got -1',
    ('component', 'count 1.5'): 'components.n[1].count: count must be a positive integer, got 1.5',
    ('component', 'count True'): 'components.n[1].count: count must be a positive integer, got True',
    ('component', "count '2'"): "components.n[1].count: count must be a positive integer, got '2'",
    ('component', 'count None'): 'components.n[1].count: count must be a positive integer, got None',
    ('component', 'count 1'): None,
    ('component', 'count 2'): None,
    ('component', 'extra key'): "components.n[1]: unknown keys ['weight']",
    ('component', 'count and extra key'): "components.n[1]: unknown keys ['weight']",
    ('component', 'bad count and extra key'): 'components.n[1].count: count must be a positive integer, got 0',
    ('component', 'duplicate pair'): "components.n[2]: duplicate pair ('1', 'a')",
    ('component', 'duplicate pair with a count'): "components.n[2]: duplicate pair ('1', 'a')",
    ('component', 'second image of a state'): None,
    ('component', 'missing image'): None,
    ('component', 'no entries'): None,
    ('component', 'unknown state, then non-object'): "components.n[1].from: unknown target state '9' in fiber 'n'",
    ('component', 'duplicate pair, then unknown state'): "components.n[2]: duplicate pair ('1', 'a')",
    ('component', 'second image, then count'): "components.n[3]: duplicate pair ('2', 'b')",
    ('component', 'second image, then unknown state'): "components.n[3].from: unknown target state '9' in fiber 'n'",
    ('component', 'missing image, then bad count'): 'components.n[0].count: count must be a positive integer, got 0',
}


def _automaton_doc(kind: str, entries) -> dict:
    return {
        "format_version": "1",
        "kind": kind,
        "base": {"nodes": ["n"], "edges": [{"id": "e", "label": "e", "src": "n", "dst": "n"}]},
        "fibers": {"n": ["1", "2"]},
        "transitions": {"e": entries},
        "initial": "1",
        "finals": ["2"],
    }


def _simulation_doc(entries, strength: str = "pseudo") -> dict:
    source = _automaton_doc("span", [{"from": "a", "to": "b"}, {"from": "b", "to": "a"}])
    source["fibers"]["n"], source["initial"], source["finals"] = ["a", "b"], "a", ["b"]
    return {"format_version": "1", "kind": "simulation", "source": source,
            "target": _automaton_doc("span", GOOD["rel"]), "strength": strength, "components": {"n": entries}}


def fault_line(kind: str, entries):
    """The loader's error text for ``entries`` as a list of this kind, or None when it loads."""
    try:
        if kind == "component":
            parse_simulation(json.dumps(_simulation_doc(entries)))
        else:
            parse_automaton(json.dumps(_automaton_doc(kind, entries)))
    except DocumentError as exc:
        return str(exc)
    return None


def reference_line(kind: str, entries):
    """The error text of ``genlib``'s reference reader for ``entries`` as a list of this kind, or None."""
    fiber = FinSet("n", ["1", "2"])
    try:
        if kind == "det":
            reference_table(entries, "transitions.e", fiber, fiber)
        elif kind == "component":
            reference_entries(entries, "components.n", fiber, FinSet("n", ["a", "b"]), True,
                              "target state", "source state")
        else:
            reference_entries(entries, "transitions.e", fiber, fiber, kind == "span")
    except DocumentError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind", sorted(GOOD))
def test_the_reference_reader_gives_every_line(kind):
    for case, spoil in CASES.items():
        assert reference_line(kind, spoil(kind, GOOD[kind])) == EXPECTED[kind, case], case


@pytest.mark.parametrize("kind, case", sorted(EXPECTED))
def test_first_fault_line(kind, case):
    assert fault_line(kind, CASES[case](kind, GOOD[kind])) == EXPECTED[kind, case]


def test_the_table_covers_every_case_and_kind():
    assert set(EXPECTED) == {(k, c) for k in GOOD for c in CASES}


def test_each_good_list_loads():
    for kind, entries in GOOD.items():
        assert fault_line(kind, entries) is None, kind


def test_strict_components_refuse_counts_above_one(tmp_path, capsys):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(_simulation_doc(_with(GOOD["component"], {"from": "2", "to": "a", "count": 2}),
                                               "strict")))
    assert main(["sim-check", str(path), "--mode", "strict"]) == 2
    assert capsys.readouterr().err == "input-error: components.n: strict components cannot carry counts above one\n"


def test_the_cli_prints_the_same_line(tmp_path, capsys):
    for kind in ("span", "rel", "det"):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(_automaton_doc(kind, CASES["duplicate pair, then unknown state"](kind, GOOD[kind]))))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"input-error: {EXPECTED[kind, 'duplicate pair, then unknown state']}\n")
