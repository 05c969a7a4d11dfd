"""Derived tokens are named by their structure, so no two of them collide.

A counted span labels its k-th token ``k``; a composite token is the pair
of its factors' labels.  Each case below holds state or token names that
made two distinct tokens share one display string while each module
built its own: the apex must now build, with one token per count.  Only
``spans`` names a derived token, which an ``ast`` walk over ``src/``
keeps so.
"""

import ast
import random
from pathlib import Path

from lawlib import random_finset, random_span
from spanauto.automata import BaseGraph, DetAutomaton, SpanAutomaton
from spanauto.determinize import ClassicalNFA, span_automaton_of_classical
from spanauto.io import parse_automaton, parse_simulation, serialize_automaton
from spanauto.simulation import transition_span
from spanauto.spans import FinSet, Relation, Span, Token, compose_spans, from_relation, image_unit, to_matrix

SRC = Path(__file__).resolve().parent.parent / "src" / "spanauto"


def assert_numbered(s: Span) -> None:
    """``s``'s apex builds, one token per count, the k-th labelled ``k``."""
    feet = [key for key, n in s.counts.items() for _ in range(n)]
    assert list(s.apex) == [Token(k, a, b) for k, (a, b) in enumerate(feet)]
    assert [s.token(k) for k in range(len(feet))] == list(s.apex)


def arrow_doc() -> dict:
    """A span document whose states hold ``>``, with entries a -> b>c and a>b -> c."""
    return {
        "format_version": "1", "kind": "span",
        "base": {"nodes": ["n"], "edges": [{"id": "e", "label": "e", "src": "n", "dst": "n"}]},
        "fibers": {"n": ["a", "a>b", "b>c", "c"]},
        "transitions": {"e": [{"from": "a", "to": "b>c"}, {"from": "a>b", "to": "c"}]},
        "initial": "a", "finals": ["c"],
    }


def test_composite_of_semicolon_labels():
    # tokens a;b and a over p -> m, then c and b;c over m -> r: the pairs (a;b, c) and (a, b;c) differ
    P, M, R = FinSet("P", ["p"]), FinSet("M", ["m"]), FinSet("R", ["r"])
    s = Span(P, M, [Token("a;b", "p", "m"), Token("a", "p", "m")])
    t = Span(M, R, [Token("c", "m", "r"), Token("b;c", "m", "r")])
    composite = compose_spans(s, t)
    assert [u.label for u in composite.apex] == [("a;b", "c"), ("a;b", "b;c"), ("a", "c"), ("a", "b;c")]
    assert composite.counts == {("p", "r"): 4}


def test_loaded_span_with_arrow_states():
    span = parse_automaton(arrow_doc()).transitions["e"]
    assert_numbered(span)
    assert len(span.apex) == 2


def test_loaded_component_with_arrow_states():
    sim = parse_simulation({"format_version": "1", "kind": "simulation", "source": arrow_doc(),
                            "target": arrow_doc(), "strength": "lax",
                            "components": {"n": [{"from": "a", "to": "b>c"}, {"from": "a>b", "to": "c"}]}})
    assert_numbered(sim.components["n"])
    assert len(sim.components["n"].apex) == 2


# the pairs (a,b -> c) and (a -> b,c)
A, B = FinSet("A", ["a,b", "a"]), FinSet("B", ["c", "b,c"])


def test_relation_with_comma_states():
    r = Relation(A, B, {("a,b", "c"), ("a", "b,c")})
    span = from_relation(r)
    assert_numbered(span)
    assert list(span.counts) == sorted(r.pairs)


def test_image_unit_with_comma_states():
    s = Span(A, B, [Token("x", "a,b", "c"), Token("y", "a", "b,c"), Token("z", "a", "b,c")])
    morphism = image_unit(s)
    assert_numbered(morphism.target)
    assert morphism.mapping == {"x": 1, "y": 0, "z": 0}
    assert not morphism.is_iso()


def test_det_transition_span_with_arrow_states():
    Q = FinSet("n", ["a", "a->b", "b->c", "c"])
    d = DetAutomaton(BaseGraph(["n"], [("e", "e", "n", "n")]), {"n": Q},
                     {"e": {"a": "b->c", "a->b": "c", "b->c": "c", "c": "c"}}, "a", {"c"})
    span = transition_span(d, "e")
    assert_numbered(span)
    assert to_matrix(span) == d.matrix("e")


def test_classical_span_automaton_with_comma_states():
    # (p, a, x,a,q) and (p,a,x, a, q) are two transitions
    Q = FinSet("Q", ["p", "x,a,q", "p,a,x", "q"])
    n = ClassicalNFA(["a"], Q, {("p", "a"): {"x,a,q"}, ("p,a,x", "a"): {"q"}}, "p", {"q"})
    span = span_automaton_of_classical(n).transitions["a"]
    assert_numbered(span)
    assert span.counts == {("p", "x,a,q"): 1, ("p,a,x", "q"): 1}


def test_loaded_law_draws_build_their_apexes():
    # the law suites' state names hold every separator the old token labels joined names with
    rng = random.Random(5)
    base = BaseGraph(["n"], [("e", "e", "n", "n"), ("f", "f", "n", "n")])
    for _ in range(200):
        q = random_finset(rng, min_size=1)
        spans = {x: random_span(rng, q, q, max_mult=3) for x in ("e", "f")}
        loaded = parse_automaton(serialize_automaton(SpanAutomaton(base, {"n": q}, spans, q.elements[0], set())))
        for x, s in spans.items():
            assert_numbered(loaded.transitions[x])
            assert loaded.transitions[x].counts == s.counts


def token_namings(text: str) -> list[int]:
    """Lines that name a token: a call of ``Token``, or of ``_counted`` with a fourth argument."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name == "Token" or name == "_counted" and len(node.args) + len(node.keywords) > 3:
            found.append(node.lineno)
    return sorted(found)


def test_only_spans_names_derived_tokens():
    # fixtures.py builds the named tokens of its example automata: caller data, which demo 03 prints
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name not in ("spans.py", "fixtures.py")]
    assert paths
    found = [f"{p.name}:{line}" for p in paths for line in token_namings(p.read_text(encoding="utf-8"))]
    assert not found, "tokens named outside spans:\n" + "\n".join(found)


def test_the_guard_sees_each_naming():
    text = (
        "from .spans import Span, Token\n"
        "import spanauto.spans as spans\n"
        "def f(d, c, counts):\n"
        "    Span._counted(d, c, counts)\n"
        "    Span._counted(d, c, counts, str)\n"
        "    Span._counted(d, c, counts, label=str)\n"
        "    spans.Token('t', 'q', 'r')\n"
        "    return [Token(k, q, r) for k, (q, r) in enumerate(counts)]\n"
    )
    assert token_namings(text) == [5, 6, 7, 8]
