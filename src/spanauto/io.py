"""JSON documents for automata and simulations, plus DOT emission.

Serialization is canonical: keys come out in a fixed order, transition
entries are sorted by fiber position, finals are sorted, and span counts
are always explicit.  Parsing a canonical document and serializing it
again reproduces the bytes, which is what the golden-file tests pin.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from .spans import FinSet, Relation, Span, Token
from .automata import (
    BaseGraph,
    DetAutomaton,
    MDetMachine,
    RelAutomaton,
    SpanAutomaton,
)
from .determinize import ClassicalNFA, ExpandedMachine
from .simulation import Simulation

__all__ = [
    "DocumentError",
    "FORMAT_VERSION",
    "parse_automaton",
    "load_automaton",
    "serialize_automaton",
    "serialize_mdet",
    "serialize_expanded",
    "parse_simulation",
    "load_simulation",
    "serialize_simulation",
    "serialize_factorization",
    "to_dot",
]

FORMAT_VERSION = "1"

AnyDocumentAutomaton = Union[SpanAutomaton, RelAutomaton, DetAutomaton, ClassicalNFA]


class DocumentError(ValueError):
    """A schema violation, qualified by the path of the offending value."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _need(doc: dict, key: str, kind, where: str = ""):
    at = f"{where}.{key}" if where else key
    if key not in doc:
        raise DocumentError(at, f"missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise DocumentError(at, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _string_list(value, at: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise DocumentError(at, "expected a list of strings")
    return value


# ---------------------------------------------------------------------------
# parsing


def parse_automaton(text: Union[str, dict]) -> AnyDocumentAutomaton:
    """Parse an automaton document (JSON text or an already-decoded dict)."""
    doc = _decode(text)
    kind = _need(doc, "kind", str)
    if kind == "classical-nfa":
        return _parse_classical(doc)
    if kind not in ("span", "rel", "det"):
        raise DocumentError("kind", f"unknown automaton kind {kind!r}")
    base = _parse_base(_need(doc, "base", dict))
    fibers_doc = _need(doc, "fibers", dict)
    fibers = {}
    for n in base.nodes:
        if n not in fibers_doc:
            raise DocumentError(f"fibers.{n}", "missing fiber")
        elements = _string_list(fibers_doc[n], f"fibers.{n}")
        if len(set(elements)) != len(elements):
            dup = next(x for x in elements if elements.count(x) > 1)
            raise DocumentError(f"fibers.{n}", f"duplicate state label {dup!r}")
        fibers[n] = FinSet(n, elements)
    for key in fibers_doc:
        if key not in base.nodes:
            raise DocumentError(f"fibers.{key}", "fiber for unknown node")
    state_node = {}
    for n in base.nodes:
        for q in fibers[n]:
            if q in state_node:
                raise DocumentError(f"fibers.{n}", f"state {q!r} already appears in fiber {state_node[q]!r}")
            state_node[q] = n
    transitions_doc = _need(doc, "transitions", dict)
    initial = _need(doc, "initial", str)
    finals = _string_list(_need(doc, "finals", list), "finals")
    if initial not in state_node:
        raise DocumentError("initial", f"unknown state {initial!r}")
    for q in finals:
        if q not in state_node:
            raise DocumentError("finals", f"unknown state {q!r}")

    transitions: dict[str, Any] = {}
    for e in base.edges:
        at = f"transitions.{e.id}"
        if e.id not in transitions_doc:
            raise DocumentError(at, "missing transition list")
        entries = transitions_doc[e.id]
        if not isinstance(entries, list):
            raise DocumentError(at, "expected a list of entries")
        parsed = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise DocumentError(f"{at}[{i}]", "expected an object")
            src = entry.get("from")
            dst = entry.get("to")
            if not isinstance(src, str) or src not in fibers[e.src]:
                raise DocumentError(f"{at}[{i}].from", f"unknown state {src!r} in fiber {e.src!r}")
            if not isinstance(dst, str) or dst not in fibers[e.dst]:
                raise DocumentError(f"{at}[{i}].to", f"unknown state {dst!r} in fiber {e.dst!r}")
            count = entry.get("count", 1)
            if kind != "span":
                if "count" in entry:
                    raise DocumentError(f"{at}[{i}].count", "counts are only valid in span documents")
            elif isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise DocumentError(f"{at}[{i}].count", f"count must be a positive integer, got {count!r}")
            extra = set(entry) - {"from", "to", "count"}
            if extra:
                raise DocumentError(f"{at}[{i}]", f"unknown keys {sorted(extra)}")
            parsed.append((src, dst, count))
        transitions[e.id] = parsed
    for key in transitions_doc:
        if all(e.id != key for e in base.edges):
            raise DocumentError(f"transitions.{key}", "transition for unknown edge")

    if kind == "span":
        spans = {}
        for e in base.edges:
            apex = []
            for src, dst, count in transitions[e.id]:
                for i in range(count):
                    apex.append(Token(f"{e.id}:{src}>{dst}#{i + 1}", src, dst))
            spans[e.id] = Span(fibers[e.src], fibers[e.dst], apex)
        return SpanAutomaton(base, fibers, spans, initial, finals)
    if kind == "rel":
        rels = {}
        for e in base.edges:
            pairs = [(src, dst) for src, dst, _ in transitions[e.id]]
            if len(set(pairs)) != len(pairs):
                raise DocumentError(f"transitions.{e.id}", "duplicate pair in relation")
            rels[e.id] = Relation(fibers[e.src], fibers[e.dst], pairs)
        return RelAutomaton(base, fibers, rels, initial, finals)
    tables = {}
    for e in base.edges:
        table = {}
        for src, dst, _ in transitions[e.id]:
            if src in table:
                raise DocumentError(f"transitions.{e.id}", f"state {src!r} mapped twice")
            table[src] = dst
        for q in fibers[e.src]:
            if q not in table:
                raise DocumentError(f"transitions.{e.id}", f"missing image of state {q!r}")
        tables[e.id] = table
    return DetAutomaton(base, fibers, tables, initial, finals)


def _decode(text: Union[str, dict]) -> dict:
    if isinstance(text, dict):
        doc = text
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentError("", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DocumentError("", "document must be a JSON object")
    version = _need(doc, "format_version", str)
    if version != FORMAT_VERSION:
        raise DocumentError("format_version", f"unsupported version {version!r}")
    return doc


def _parse_base(base_doc: dict) -> BaseGraph:
    nodes = _string_list(_need(base_doc, "nodes", list, "base"), "base.nodes")
    edges_doc = _need(base_doc, "edges", list, "base")
    edges = []
    for i, e in enumerate(edges_doc):
        at = f"base.edges[{i}]"
        if not isinstance(e, dict):
            raise DocumentError(at, "expected an object")
        for key in ("id", "label", "src", "dst"):
            if not isinstance(e.get(key), str):
                raise DocumentError(f"{at}.{key}", "expected a string")
        edges.append((e["id"], e["label"], e["src"], e["dst"]))
    try:
        return BaseGraph(nodes, edges)
    except ValueError as exc:
        raise DocumentError("base", str(exc)) from None


def _parse_classical(doc: dict) -> ClassicalNFA:
    alphabet = _string_list(_need(doc, "alphabet", list), "alphabet")
    states = _string_list(_need(doc, "states", list), "states")
    if len(set(states)) != len(states):
        raise DocumentError("states", "duplicate state label")
    state_set = FinSet("Q", states)
    delta_doc = _need(doc, "delta", list)
    delta = {}
    for i, entry in enumerate(delta_doc):
        at = f"delta[{i}]"
        if not isinstance(entry, dict):
            raise DocumentError(at, "expected an object")
        src = entry.get("from")
        letter = entry.get("letter")
        to = entry.get("to")
        if not isinstance(src, str) or src not in state_set:
            raise DocumentError(f"{at}.from", f"unknown state {src!r}")
        if not isinstance(letter, str) or letter not in alphabet:
            raise DocumentError(f"{at}.letter", f"unknown letter {letter!r}")
        targets = _string_list(to, f"{at}.to")
        for t in targets:
            if t not in state_set:
                raise DocumentError(f"{at}.to", f"unknown state {t!r}")
        if (src, letter) in delta:
            raise DocumentError(at, f"duplicate entry for ({src!r}, {letter!r})")
        delta[(src, letter)] = frozenset(targets)
    initial = _need(doc, "initial", str)
    finals = _string_list(_need(doc, "finals", list), "finals")
    try:
        return ClassicalNFA(alphabet, state_set, delta, initial, finals)
    except ValueError as exc:
        raise DocumentError("", str(exc)) from None


def load_automaton(path: Union[str, Path]) -> AnyDocumentAutomaton:
    return parse_automaton(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# serialization


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _base_doc(base: BaseGraph) -> dict:
    return {
        "nodes": list(base.nodes),
        "edges": [{"id": e.id, "label": e.label, "src": e.src, "dst": e.dst} for e in base.edges],
    }


def _sorted_finals(a) -> list[str]:
    order = []
    for n in a.base.nodes:
        for q in a.fibers[n]:
            if q in a.finals:
                order.append(q)
    return order


def serialize_automaton(a: AnyDocumentAutomaton) -> str:
    """Canonical JSON text of an automaton."""
    if isinstance(a, ClassicalNFA):
        entries = []
        for q in a.states:
            for letter in a.alphabet:
                targets = sorted(a.step(q, letter), key=a.states.index)
                if targets:
                    entries.append({"from": q, "letter": letter, "to": targets})
        return _dump(
            {
                "format_version": FORMAT_VERSION,
                "kind": "classical-nfa",
                "alphabet": list(a.alphabet),
                "states": list(a.states.elements),
                "delta": entries,
                "initial": a.initial,
                "finals": [q for q in a.states if q in a.finals],
            }
        )
    if isinstance(a, SpanAutomaton):
        kind = "span"
    elif isinstance(a, RelAutomaton):
        kind = "rel"
    elif isinstance(a, DetAutomaton):
        kind = "det"
    else:
        raise TypeError(f"cannot serialize {type(a).__name__} as an automaton document")
    transitions = {}
    for e in a.base.edges:
        src_order = a.fibers[e.src].index
        dst_order = a.fibers[e.dst].index
        if kind == "span":
            counts: dict[tuple[str, str], int] = {}
            for t in a.transitions[e.id].apex:
                counts[(t.left, t.right)] = counts.get((t.left, t.right), 0) + 1
            entries = [
                {"from": src, "to": dst, "count": counts[(src, dst)]}
                for src, dst in sorted(counts, key=lambda p: (src_order(p[0]), dst_order(p[1])))
            ]
        elif kind == "rel":
            entries = [
                {"from": src, "to": dst}
                for src, dst in sorted(a.transitions[e.id].pairs, key=lambda p: (src_order(p[0]), dst_order(p[1])))
            ]
        else:
            entries = [
                {"from": q, "to": a.transitions[e.id][q]}
                for q in a.fibers[e.src]
            ]
        transitions[e.id] = entries
    return _dump(
        {
            "format_version": FORMAT_VERSION,
            "kind": kind,
            "base": _base_doc(a.base),
            "fibers": {n: list(a.fibers[n].elements) for n in a.base.nodes},
            "transitions": transitions,
            "initial": a.initial,
            "finals": _sorted_finals(a),
        }
    )


def serialize_mdet(m: MDetMachine) -> str:
    """Matrix machine document, rows and columns in fiber order."""
    return _dump(
        {
            "format_version": FORMAT_VERSION,
            "kind": "mdet",
            "base": _base_doc(m.base),
            "fibers": {n: list(m.fibers[n].elements) for n in m.base.nodes},
            "matrices": {e.id: m.matrices[e.id].rows() for e in m.base.edges},
            "initial": m.initial,
            "finals": _sorted_finals(m),
        }
    )


def serialize_expanded(x: ExpandedMachine) -> str:
    states = []
    for n in x.base.nodes:
        for lbl in x.fibers[n]:
            states.append({"label": lbl, "node": n, "counts": list(x.states[lbl].vector())})
    return _dump(
        {
            "format_version": FORMAT_VERSION,
            "kind": "mdet-expanded",
            "base": _base_doc(x.base),
            "states": states,
            "transitions": {
                e.id: [
                    {"from": src, "to": dst}
                    for src, dst in sorted(x.transitions[e.id].items(), key=lambda p: x.fibers[e.src].index(p[0]))
                ]
                for e in x.base.edges
            },
            "initial": x.initial,
            "finals": sorted(x.finals),
            "truncated": x.truncated,
        }
    )


# ---------------------------------------------------------------------------
# simulation documents


def parse_simulation(text: Union[str, dict], base_dir: Optional[Path] = None) -> Simulation:
    """Parse a simulation document; endpoint documents may be inline or paths."""
    doc = _decode(text)
    kind = _need(doc, "kind", str)
    if kind != "simulation":
        raise DocumentError("kind", f"expected 'simulation', got {kind!r}")
    strength = _need(doc, "strength", str)
    if strength not in ("strict", "pseudo", "lax"):
        raise DocumentError("strength", f"unknown strength {strength!r}")

    def endpoint(key: str):
        value = doc.get(key)
        if isinstance(value, dict):
            return parse_automaton(value)
        if isinstance(value, str):
            path = Path(value)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            return load_automaton(path)
        raise DocumentError(key, "expected an inline document or a file path")

    source = endpoint("source")
    target = endpoint("target")
    if isinstance(source, ClassicalNFA) or isinstance(target, ClassicalNFA):
        raise DocumentError("source", "simulation endpoints must be fibered automata")
    components_doc = _need(doc, "components", dict)
    components = {}
    for n in source.base.nodes:
        at = f"components.{n}"
        if n not in components_doc:
            raise DocumentError(at, "missing component")
        entries = components_doc[n]
        if not isinstance(entries, list):
            raise DocumentError(at, "expected a list of entries")
        tokens = []
        pairs = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise DocumentError(f"{at}[{i}]", "expected an object")
            src = entry.get("from")
            dst = entry.get("to")
            count = entry.get("count", 1)
            if not isinstance(src, str) or src not in target.fibers[n]:
                raise DocumentError(f"{at}[{i}].from", f"unknown target state {src!r}")
            if not isinstance(dst, str) or dst not in source.fibers[n]:
                raise DocumentError(f"{at}[{i}].to", f"unknown source state {dst!r}")
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise DocumentError(f"{at}[{i}].count", f"count must be a positive integer, got {count!r}")
            pairs.append((src, dst))
            for k in range(count):
                tokens.append(Token(f"{n}:{src}>{dst}#{k + 1}", src, dst))
        if strength == "strict":
            if len(set(pairs)) != len(tokens):
                raise DocumentError(at, "strict components cannot carry counts above one")
            components[n] = Relation(target.fibers[n], source.fibers[n], pairs)
        else:
            components[n] = Span(target.fibers[n], source.fibers[n], tokens)
    try:
        return Simulation(source, target, components, strength)
    except ValueError as exc:
        raise DocumentError("components", str(exc)) from None


def load_simulation(path: Union[str, Path]) -> Simulation:
    p = Path(path)
    return parse_simulation(p.read_text(encoding="utf-8"), base_dir=p.parent)


def serialize_simulation(sim: Simulation, source_ref: Optional[str] = None,
                         target_ref: Optional[str] = None) -> str:
    """Canonical JSON text of a simulation.

    Endpoints are inlined unless a file path is supplied for them; inlined
    endpoints must be of a document kind (expansions are not).
    """
    def endpoint(ref, automaton):
        return ref if ref is not None else json.loads(serialize_automaton(automaton))

    components = {}
    for n in sim.source.base.nodes:
        comp = sim.components[n]
        src_order = sim.target.fibers[n].index
        dst_order = sim.source.fibers[n].index
        if isinstance(comp, Span):
            counts: dict[tuple[str, str], int] = {}
            for t in comp.apex:
                counts[(t.left, t.right)] = counts.get((t.left, t.right), 0) + 1
            entries = [
                {"from": src, "to": dst, "count": counts[(src, dst)]}
                for src, dst in sorted(counts, key=lambda p: (src_order(p[0]), dst_order(p[1])))
            ]
        else:
            entries = [
                {"from": src, "to": dst}
                for src, dst in sorted(comp.pairs, key=lambda p: (src_order(p[0]), dst_order(p[1])))
            ]
        components[n] = entries
    return _dump(
        {
            "format_version": FORMAT_VERSION,
            "kind": "simulation",
            "source": endpoint(source_ref, sim.source),
            "target": endpoint(target_ref, sim.target),
            "strength": sim.strength,
            "components": components,
        }
    )


def serialize_factorization(result) -> str:
    mate = result.mate
    components = {}
    for n in mate.source.base.nodes:
        comp = mate.components[n]
        if isinstance(comp, Span):
            counts: dict[tuple[str, str], int] = {}
            for t in comp.apex:
                counts[(t.left, t.right)] = counts.get((t.left, t.right), 0) + 1
            entries = [
                {"from": src, "to": dst, "count": c}
                for (src, dst), c in sorted(counts.items())
            ]
        else:
            entries = [{"from": src, "to": dst} for src, dst in sorted(comp.pairs)]
        components[n] = entries
    return _dump(
        {
            "format_version": FORMAT_VERSION,
            "kind": "factorization",
            "composite_ok": result.composite_ok,
            "bisim_ok": result.bisim_ok,
            "unique_ok": result.unique_ok,
            "mate_strength": mate.strength,
            "mate_components": components,
        }
    )


# ---------------------------------------------------------------------------
# DOT


def to_dot(a: AnyDocumentAutomaton) -> str:
    """Graphviz text: one node per state, one edge per token."""
    if isinstance(a, ClassicalNFA):
        from .determinize import span_automaton_of_classical

        a = span_automaton_of_classical(a)
    lines = ["digraph {", "  rankdir=LR;", '  "__start" [shape=point];']
    for n in a.base.nodes:
        lines.append(f"  subgraph cluster_{_dot_id(n)} {{")
        lines.append(f'    label="{_dot_escape(n)}";')
        for q in a.fibers[n]:
            shape = "doublecircle" if q in a.finals else "circle"
            lines.append(f'    "{_dot_escape(q)}" [shape={shape}];')
        lines.append("  }")
    lines.append(f'  "__start" -> "{_dot_escape(a.initial)}";')
    for e in a.base.edges:
        t = a.transitions[e.id]
        if isinstance(a, SpanAutomaton):
            steps = [(tok.left, tok.right) for tok in t.apex]
        elif isinstance(a, RelAutomaton):
            steps = sorted(t.pairs)
        else:
            steps = [(q, t[q]) for q in a.fibers[e.src]]
        for src, dst in steps:
            lines.append(f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}" [label="{_dot_escape(e.label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _dot_id(s: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in s)
