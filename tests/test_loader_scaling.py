"""The loader reads a document, or refuses a bad one, in time linear in its size.

Each probe builds one document at n and at 8n entries, checks that both
loads, or both refusals, say the same thing of them, and bounds the 8n
time by 20 times the n time plus 0.5 s: generous for a linear scan on a
loaded machine, and far below what a quadratic one takes at 8n.  The
automaton constructors' refusals are probed the same way, on fields of
n and 8n states, and the simulation constructor's on n and 8n nodes.
A refused entry or final state is always the document's last one.
"""

import time

import pytest

from spanauto.automata import BaseGraph, DetAutomaton
from spanauto.io import DocumentError, parse_automaton, parse_simulation
from spanauto.spans import FinSet

N = 2_500


def det_doc(fiber: list[str]) -> dict:
    return {
        "format_version": "1", "kind": "det",
        "base": {"nodes": ["n"], "edges": []},
        "fibers": {"n": fiber},
        "transitions": {},
        "initial": fiber[0], "finals": [],
    }


def refusal(doc: dict) -> tuple[str, float]:
    start = time.perf_counter()
    with pytest.raises(DocumentError) as info:
        parse_automaton(doc)
    return str(info.value), time.perf_counter() - start


def test_first_repeated_label_in_list_order():
    # the first label that occurs twice, not the first repeat met: a, not b
    assert refusal(det_doc(["a", "b", "b", "a"]))[0] == "fibers.n: duplicate state label 'a'"


def test_duplicate_last_label_refused_in_linear_time():
    # n + 1 labels whose last one repeats the one before it
    def fiber(n):
        return [f"q{i}" for i in range(n)] + [f"q{n - 1}"]

    small, small_s = refusal(det_doc(fiber(N)))
    large, large_s = refusal(det_doc(fiber(8 * N)))
    assert small == f"fibers.n: duplicate state label 'q{N - 1}'"
    assert large == f"fibers.n: duplicate state label 'q{8 * N - 1}'"
    assert large_s <= 20 * small_s + 0.5, (small_s, large_s)


def test_classical_alphabet_read_in_linear_time():
    # n letters, each with one delta entry, so a letter looked up in the alphabet's list costs n per entry
    def load(n):
        letters = [f"a{i}" for i in range(n)]
        doc = {"format_version": "1", "kind": "classical-nfa", "alphabet": letters, "states": ["q"],
               "delta": [{"from": "q", "letter": x, "to": ["q"]} for x in letters], "initial": "q", "finals": ["q"]}
        start = time.perf_counter()
        nfa = parse_automaton(doc)
        return (len(nfa.alphabet), len(nfa.delta)), time.perf_counter() - start

    small, small_s = load(N)
    large, large_s = load(8 * N)
    assert (small, large) == ((N, N), (8 * N, 8 * N))
    assert large_s <= 20 * small_s + 0.5, (small_s, large_s)


def states(n: int, prefix: str = "q") -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def loop_doc(kind: str, fibers: dict[str, list[str]], entries: list[tuple[str, str]]) -> dict:
    """A document whose one edge loops on its first node, with these entries."""
    node = next(iter(fibers))
    return {
        "format_version": "1", "kind": kind,
        "base": {"nodes": list(fibers), "edges": [{"id": "e", "label": "e", "src": node, "dst": node}]},
        "fibers": fibers,
        "transitions": {"e": [{"from": q, "to": t} for q, t in entries]},
        "initial": fibers[node][0], "finals": [],
    }


def assert_linear(probe, lines) -> None:
    """``probe(n)`` refuses with ``lines(n)`` at n = N and 8N, and 8N takes at most 20 times N plus 0.5 s."""
    (small, small_s), (large, large_s) = probe(N), probe(8 * N)
    assert (small, large) == (lines(N), lines(8 * N))
    assert large_s <= 20 * small_s + 0.5, (small_s, large_s)


@pytest.mark.parametrize("kind, build, line", [
    # the last state of the second fiber repeats the first fiber's last
    ("rel", lambda n: ({"m": states(n), "n": states(n - 1, "r") + [f"q{n - 1}"]}, []), lambda n: (
        f"fibers.n: state 'q{n - 1}' already appears in fiber 'm'")),
    # every state loops, and the last loop comes twice
    ("span", lambda n: ({"m": states(n)}, [(q, q) for q in states(n)] + [(f"q{n - 1}", f"q{n - 1}")]), lambda n: (
        f"transitions.e[{n}]: duplicate pair ('q{n - 1}', 'q{n - 1}')")),
    # every state loops, and the last one also steps to the first
    ("det", lambda n: ({"m": states(n)}, [(q, q) for q in states(n)] + [(f"q{n - 1}", "q0")]), lambda n: (
        f"transitions.e: state 'q{n - 1}' mapped twice")),
    # every state but the last loops
    ("det", lambda n: ({"m": states(n)}, [(q, q) for q in states(n - 1)]), lambda n: (
        f"transitions.e: missing image of state 'q{n - 1}'")),
], ids=["already appears", "duplicate pair", "mapped twice", "missing image"])
def test_loader_refusals_in_linear_time(kind, build, line):
    assert_linear(lambda n: refusal(loop_doc(kind, *build(n))), line)


def classical_doc(n: int) -> dict:
    """n states on one letter, each looping, all final."""
    qs = states(n)
    return {"format_version": "1", "kind": "classical-nfa", "alphabet": ["a"], "states": qs,
            "delta": [{"from": q, "letter": "a", "to": [q]} for q in qs], "initial": "q0", "finals": list(qs)}


@pytest.mark.parametrize("spoil, line", [
    # one more entry, last, from a state the automaton lacks
    (lambda doc, n: doc["delta"].append({"from": "zz", "letter": "a", "to": []}),
     lambda n: f"delta[{n}].from: unknown state 'zz'"),
    # the last entry comes twice
    (lambda doc, n: doc["delta"].append(doc["delta"][-1]),
     lambda n: f"delta[{n}]: duplicate entry for ('q{n - 1}', 'a')"),
    # one more final, last, that is no state
    (lambda doc, n: doc["finals"].append("zz"), lambda n: "finals: unknown state 'zz'"),
], ids=["unknown from", "duplicate entry", "unknown final"])
def test_classical_refusals_in_linear_time(spoil, line):
    def probe(n):
        doc = classical_doc(n)
        spoil(doc, n)
        return refusal(doc)

    assert_linear(probe, line)


@pytest.mark.parametrize("kind, spoil, line", [
    # the last entry has a key no entry has
    ("span", lambda last: last.update(weight=2), lambda at: f"{at}: unknown keys ['weight']"),
    ("component", lambda last: last.update(weight=2), lambda at: f"{at}: unknown keys ['weight']"),
    # the last entry's count is no positive integer
    ("span", lambda last: last.update(count=0), lambda at: f"{at}.count: count must be a positive integer, got 0"),
    ("component", lambda last: last.update(count=0),
     lambda at: f"{at}.count: count must be a positive integer, got 0"),
    # the last entry steps to a state the fiber lacks
    ("span", lambda last: last.update(to="zz"), lambda at: f"{at}.to: unknown state 'zz' in fiber 'm'"),
    ("component", lambda last: last.update(to="zz"), lambda at: f"{at}.to: unknown source state 'zz' in fiber 'm'"),
], ids=["span unknown keys", "component unknown keys", "span count", "component count", "span unknown to",
        "component unknown to"])
def test_last_entry_refusals_in_linear_time(kind, spoil, line):
    def probe(n):
        # every state of the one fiber loops, as a transition or as a component entry
        doc = loop_doc("span", {"m": states(n)}, [(q, q) for q in states(n)])
        entries, load = doc["transitions"]["e"], parse_automaton
        if kind == "component":
            entries, load = [dict(x) for x in entries], parse_simulation
            doc = {"format_version": "1", "kind": "simulation", "source": doc, "target": doc, "strength": "pseudo",
                   "components": {"m": entries}}
        spoil(entries[-1])
        start = time.perf_counter()
        with pytest.raises(DocumentError) as info:
            load(doc)
        return str(info.value), time.perf_counter() - start

    at = "components.m" if kind == "component" else "transitions.e"
    assert_linear(probe, lambda n: line(f"{at}[{n - 1}]"))


@pytest.mark.parametrize("build, line", [
    # the last state of the second fiber repeats the first fiber's last
    (lambda n: ({"m": states(n), "n": states(n - 1, "r") + [f"q{n - 1}"]}, {q: q for q in states(n)}, set()),
     lambda n: f"fibers.n: state 'q{n - 1}' already appears in fiber 'm'"),
    # every state but the last loops
    (lambda n: ({"m": states(n), "n": []}, {q: q for q in states(n - 1)}, set()),
     lambda n: f"transitions.e: missing image of state 'q{n - 1}'"),
    # every state is final, and so is one past the fibers
    (lambda n: ({"m": states(n), "n": []}, {q: q for q in states(n)}, set(states(n + 1))),
     lambda n: f"finals: unknown state 'q{n}'"),
], ids=["state in two fibers", "table missing its last state", "final outside the fibers"])
def test_constructor_refusals_in_linear_time(build, line):
    base = BaseGraph(["m", "n"], [("e", "e", "m", "m")])

    def probe(n):
        fibers, table, finals = build(n)
        fibers = {node: FinSet(node, labels) for node, labels in fibers.items()}
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            DetAutomaton(base, fibers, {"e": table}, "q0", finals)
        return str(info.value), time.perf_counter() - start

    assert_linear(probe, line)


@pytest.mark.parametrize("spoil, line", [
    # every node but the last has its component
    (lambda components, n: components.pop(f"n{n - 1}"), lambda n: f"components.n{n - 1}: missing component"),
    # one more component, last, at a node the base lacks
    (lambda components, n: components.update(zz=[]), lambda n: "components.zz: component for unknown node"),
], ids=["missing component", "component for unknown node"])
def test_simulation_refusals_in_linear_time(spoil, line):
    def probe(n):
        # n nodes and no edges, one state at each node, mapped to itself
        nodes = states(n, "n")
        end = {"format_version": "1", "kind": "rel", "base": {"nodes": nodes, "edges": []},
               "fibers": {x: [f"q{i}"] for i, x in enumerate(nodes)}, "transitions": {}, "initial": "q0", "finals": []}
        components = {x: [{"from": f"q{i}", "to": f"q{i}"}] for i, x in enumerate(nodes)}
        spoil(components, n)
        doc = {"format_version": "1", "kind": "simulation", "source": end, "target": end, "strength": "strict",
               "components": components}
        start = time.perf_counter()
        with pytest.raises(DocumentError) as info:
            parse_simulation(doc)
        return str(info.value), time.perf_counter() - start

    assert_linear(probe, line)
