"""JSON documents for automata and simulations, plus DOT emission.

Serialization is canonical: keys come out in a fixed order, transition
entries are sorted by fiber position, finals are sorted, and span counts
are always explicit.  Parsing a canonical document and serializing it
again reproduces the bytes, which is what the golden-file tests pin.
The text is that of ``json.dumps(doc, indent=2)``, written by a small
encoder of its own (``_dump``): with ``indent`` set, ``json`` falls back to
its pure-Python encoder, while this one makes one pass.  It appends the
document's pieces to one list and joins them once; a list of scalars is
written in one call, and a list of records column by column through one
template per key tuple and indent.  Each state label is escaped once per
document, by the C ``encode_basestring_ascii``, and that text (a
``_Texts`` item) is reused for the fibers, the ``from``/``to`` columns,
``initial``, ``finals`` and an expansion's ``label``s.  Writers hand
entries over as ``_Records`` columns, read straight from a function
table (``det``, an expansion) or from count rows (spans, relations); an
expansion's counts are written from the text its labels were built
from, so a count becomes text once.

Parsing touches each entry once.  A ``det`` transition list becomes its
function table in one C-level pass (``_function_table``), which the
checks read as a table, with no counting matrix.  Span, rel and
component lists become counts ``{(from, to): count}`` in one tight loop
(``_count_entries``), and a span's tokens are built only when asked for.
Both keep list order.  A list that either refuses is read again entry by
entry, which words its first fault, so the error text and order are
those of that reader alone.  Every loader, the classical one included,
reads only the JSON shape (an edge's list only where both its fibers are
given); the record's constructor then checks and words each structural
fault, so a fault of shape is named before one of structure.
"""

from __future__ import annotations

import functools
import json
import operator
from pathlib import Path
from itertools import chain, repeat
from typing import Optional, Union

from .spans import _WORK_BOUND, DocumentError, FinSet, Relation, Span, _first_duplicate
from .automata import (
    BaseGraph,
    DetAutomaton,
    RelAutomaton,
    SpanAutomaton,
    _FiberedAutomaton,
    _MatrixAutomaton,
)
from .determinize import ClassicalNFA, ExpandedMachine, span_automaton_of_classical
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


def _need(doc: dict, key: str, kind, where: str = ""):
    at = f"{where}.{key}" if where else key
    if key not in doc:
        raise DocumentError(at, f"missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise DocumentError(at, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _no_unknown_keys(doc: dict, known, at: str = "") -> None:
    extra = set(doc) - set(known)
    if extra:
        raise DocumentError(at, f"unknown keys {sorted(extra)}")


def _string_list(value, at: str) -> list[str]:
    if not isinstance(value, list) or not all(map(isinstance, value, repeat(str))):
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
    if kind not in _KINDS:
        raise DocumentError("kind", f"unknown automaton kind {kind!r}")
    _no_unknown_keys(doc, ("format_version", "kind", "base", "fibers", "transitions", "initial", "finals"))
    base = _parse_base(_need(doc, "base", dict))
    fibers = {n: _state_set(n, elements, f"fibers.{n}") for n, elements in _need(doc, "fibers", dict).items()}
    transitions_doc = _need(doc, "transitions", dict)
    initial = _need(doc, "initial", str)
    finals = _string_list(_need(doc, "finals", list), "finals")
    # each list read below becomes its transition; the others (an unknown edge's, or one whose fiber is
    # missing) reach the constructor as they stand, which refuses them unread
    transitions = dict(transitions_doc)
    for e in base.edges:
        src, dst = fibers.get(e.src), fibers.get(e.dst)
        if e.id not in transitions or src is None or dst is None:
            continue
        at, entries = f"transitions.{e.id}", transitions_doc[e.id]
        if kind == "det":
            table = _function_table(entries, src, dst)
            if table is None:
                pairs = _count_entries(entries, at, src, dst, False, "state", "state")
                table = dict(pairs.keys())
                if len(table) != len(pairs):  # word the first state given two images
                    seen = set()
                    q = next(q for q, _ in pairs if q in seen or seen.add(q))
                    raise DocumentError(at, f"state {q!r} mapped twice")
            transitions[e.id] = table
        elif kind == "span":
            transitions[e.id] = Span._counted(src, dst, _count_entries(entries, at, src, dst, True, "state", "state"))
        else:
            transitions[e.id] = Relation(src, dst, _count_entries(entries, at, src, dst, False, "state", "state"))
    return _KINDS[kind](base, fibers, transitions, initial, finals)


_KINDS = {"span": SpanAutomaton, "rel": RelAutomaton, "det": DetAutomaton}


def _state_set(name: str, value, at: str) -> FinSet:
    """A list of state labels as the ``FinSet`` ``name``; a label given twice is refused at ``at``."""
    labels = _string_list(value, at)
    try:
        return FinSet(name, labels)
    except ValueError:
        raise DocumentError(at, f"duplicate state label {_first_duplicate(labels)!r}") from None


_FROM_TO = operator.itemgetter("from", "to")


def _function_table(entries, src_fiber: FinSet, dst_fiber: FinSet) -> Optional[dict[str, str]]:
    """A ``det`` transition list as its table ``{from: to}`` in list order, read in one C-level pass.

    None unless every entry is a two-key object, the sources are the
    source fiber, each once, and the images lie in the target fiber; the
    caller then reads the list entry by entry, which words its first fault.
    """
    try:
        if type(entries) is not list or set(map(len, entries)) != {2}:
            return None
        table = dict(map(_FROM_TO, entries))
        if (len(table) == len(entries) and table.keys() == src_fiber._positions.keys()
                and dst_fiber._positions.keys() >= set(table.values())):
            return table
    except (TypeError, KeyError):  # an entry that is no object, lacks a key or holds an unhashable state
        pass
    return None


_ENTRY_KEYS = frozenset(("from", "to", "count"))


def _count_entries(entries, at: str, src_fiber: FinSet, dst_fiber: FinSet, counted: bool,
                   src_noun: str, dst_noun: str) -> dict[tuple[str, str], int]:
    """The ``from``/``to``/``count`` entries of a list as counts ``{(from, to): count}``, in list order.

    A missing count is 1; a count is allowed only where ``counted`` is set.
    Each pair may appear once.  One tight loop reads a valid list; at the
    first entry it cannot take it stops, and the list is read again entry
    by entry, which raises the ``DocumentError`` of the first faulty entry.
    """
    src_index, dst_index = src_fiber._positions, dst_fiber._positions
    if type(entries) is list:
        counts: dict[tuple[str, str], int] = {}
        try:
            for entry in entries:
                src = entry["from"]
                dst = entry["to"]
                if type(src) is not str or type(dst) is not str or src not in src_index or dst not in dst_index:
                    break
                if len(entry) == 2:
                    counts[src, dst] = 1
                elif counted and len(entry) == 3 and type(count := entry["count"]) is int and count >= 1:
                    counts[src, dst] = count
                else:
                    break
            else:
                if len(counts) == len(entries):  # else a pair came twice
                    return counts
        except (TypeError, KeyError):  # an entry that is no object, or lacks a key
            pass
    if not isinstance(entries, list):
        raise DocumentError(at, "expected a list of entries")
    counts = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DocumentError(f"{at}[{i}]", "expected an object")
        src = entry.get("from")
        dst = entry.get("to")
        if type(src) is not str or src not in src_index:
            raise DocumentError(f"{at}[{i}].from", f"unknown {src_noun} {src!r} in fiber {src_fiber.name!r}")
        if type(dst) is not str or dst not in dst_index:
            raise DocumentError(f"{at}[{i}].to", f"unknown {dst_noun} {dst!r} in fiber {dst_fiber.name!r}")
        # both keys were found, so the entry's size tells whether it has others
        if len(entry) == 2:
            counts[src, dst] = 1
        else:
            count = entry.get("count")
            if not (counted and len(entry) == 3 and type(count) is int and count >= 1):
                if "count" in entry:
                    if not counted:
                        raise DocumentError(f"{at}[{i}].count", "counts are only valid in span documents")
                    if type(count) is not int or count < 1:
                        raise DocumentError(f"{at}[{i}].count", f"count must be a positive integer, got {count!r}")
                raise DocumentError(f"{at}[{i}]", f"unknown keys {sorted(entry.keys() - _ENTRY_KEYS)}")
            counts[src, dst] = count
        if len(counts) <= i:  # the pair was already there, so the store added no key
            raise DocumentError(f"{at}[{i}]", f"duplicate pair ({src!r}, {dst!r})")
    return counts


def _decode(text: Union[str, dict]) -> dict:
    if isinstance(text, dict):
        doc = text
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentError("", f"invalid JSON: {exc}") from None
        except RecursionError:
            raise DocumentError("", "invalid JSON: nesting too deep") from None
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
    _no_unknown_keys(doc, ("format_version", "kind", "alphabet", "states", "delta", "initial", "finals"))
    alphabet = _string_list(_need(doc, "alphabet", list), "alphabet")
    state_set = _state_set("Q", _need(doc, "states", list), "states")
    delta = []  # ((from, letter), to) per entry, in list order; the constructor checks each
    for i, entry in enumerate(_need(doc, "delta", list)):
        if not isinstance(entry, dict):
            raise DocumentError(f"delta[{i}]", "expected an object")
        delta.append(((entry.get("from"), entry.get("letter")), _string_list(entry.get("to"), f"delta[{i}].to")))
    initial = _need(doc, "initial", str)
    finals = _string_list(_need(doc, "finals", list), "finals")
    return ClassicalNFA(alphabet, state_set, delta, initial, finals)


def load_automaton(path: Union[str, Path]) -> AnyDocumentAutomaton:
    with open(path, encoding="utf-8") as f:
        return parse_automaton(f.read())


# ---------------------------------------------------------------------------
# serialization


def _dump(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, without its pure-Python encoder.

    ``doc`` is let go before the join, so a document handed over as a
    temporary is freed first where calls do not hold their arguments
    (CPython 3.11 on).
    """
    out = _write(doc, "\n", [])
    del doc
    out.append("\n")
    return "".join(out)


_string = json.encoder.encode_basestring_ascii


class _Text(str):
    """A value given as its JSON text already; it is written as it stands."""

    __slots__ = ()


class _Texts(list):
    """A list whose items are given as their JSON text already; each is written as it stands."""

    __slots__ = ()


class _Records:
    """A JSON list of objects that share one key tuple, given column by column.

    Writers hand over many records this way, so that no dict is built per
    record; the text is that of the list of dicts.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys: tuple[str, ...], columns: tuple[list, ...]):
        self.keys = keys
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])


def _write(x, newline: str, out: list[str]) -> list[str]:
    """Append the JSON text of ``x`` to ``out`` and return ``out``.

    ``newline`` is a line break plus the indent ``x`` sits at.  Containers
    open a line per item, two spaces deeper; dict keys must be strings.  A
    dict's pieces go to ``out`` one by one, and a list's items, written by
    ``_items``, are joined once.
    """
    if isinstance(x, str):
        out.append(x if type(x) is _Text else _string(x))
    elif isinstance(x, dict) and x:
        inner = newline + "  "
        head = "{" + inner
        for k, v in x.items():
            out.append(head + _string(k) + ": ")
            head = "," + inner
            _write(v, inner, out)
        out.append(newline + "}")
    elif isinstance(x, (list, tuple, _Records)) and len(x):
        inner = newline + "  "
        out += ("[" + inner, ("," + inner).join(_items(x, inner)), newline + "]")
    else:  # a scalar or an empty container
        out.append("[]" if isinstance(x, _Records) else json.dumps(x))
    return out


def _items(values, newline: str):
    """JSON text of each item of a nonempty list, every item at indent ``newline``.

    ``_Texts`` are their own items.  Items that are all strings, all ints
    or all lists of ints are written in one pass each; dicts that share
    one key tuple are written as records, column by column.
    """
    if isinstance(values, _Texts):
        return values
    if isinstance(values, _Records):
        return _record_items(values.keys, values.columns, newline)
    kinds = set(map(type, values))
    if kinds == {str}:
        return map(_string, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    if kinds == {dict}:
        keys = set(map(tuple, values))
        if len(keys) == 1 and () not in keys:
            return _record_items(keys.pop(), tuple(zip(*map(dict.values, values))), newline)
    elif kinds <= {list, tuple} and set(map(type, chain.from_iterable(values))) == {int}:
        inner = newline + "  "
        shapes = {n: "[" + inner + ("," + inner).join(["{}"] * n) + newline + "]" if n else "[]"
                  for n in set(map(len, values))}
        return [shapes[len(v)].format(*v) for v in values]
    return ["".join(_write(v, newline, [])) for v in values]


def _record_items(keys: tuple[str, ...], columns, newline: str):
    """JSON text of each record, the i-th one holding ``columns[k][i]`` at ``keys[k]``."""
    return map(_record_format(keys, newline), *(_items(c, newline + "  ") for c in columns))


@functools.lru_cache(maxsize=64)
def _record_format(keys: tuple[str, ...], newline: str):
    """The ``str.format`` that writes one record of ``keys`` at indent ``newline``, given its values' text."""
    inner = newline + "  "
    heads = ["{" + inner + _string(keys[0]) + ": "] + ["," + inner + _string(k) + ": " for k in keys[1:]]
    return ("".join(h.replace("{", "{{").replace("}", "}}") + "{}" for h in heads) + newline + "}}").format


def _fibered_doc(a, kind: str, body, sort_finals: bool = False) -> dict:
    """The document of ``a``, with ``body(text)`` between ``base`` and ``initial``.

    ``text`` maps each state to its JSON text, so a document escapes each
    label once.  It lives only in this call, hence ``body`` is a function
    of it: ``_dump`` can then free it before its join.  Finals come in
    fiber order, or sorted.
    """
    labels = [q for n in a.base.nodes for q in a.fibers[n].elements]
    text = dict(zip(labels, map(_string, labels)))
    finals = sorted(a.finals) if sort_finals else filter(a.finals.__contains__, labels)
    base = {"nodes": list(a.base.nodes),
            "edges": [{"id": e.id, "label": e.label, "src": e.src, "dst": e.dst} for e in a.base.edges]}
    return {"format_version": FORMAT_VERSION, "kind": kind, "base": base, **body(text),
            "initial": _Text(text[a.initial]), "finals": _Texts(map(text.__getitem__, finals))}


def _fiber_texts(a, text: dict[str, str]) -> dict[str, _Texts]:
    return {n: _Texts(map(text.__getitem__, a.fibers[n].elements)) for n in a.base.nodes}


def _transition_entries(a, text: dict[str, str]) -> dict[str, _Records]:
    """Each edge's transitions as document entries, in fiber order; only spans write counts.

    A function table (``det``, an expansion) gives each source state that
    has an image, with that image; spans and relations walk their count
    rows, a row in target fiber order.  States are given as their ``text``.
    """
    counted = a.kind == "span"
    keys = ("from", "to", "count") if counted else ("from", "to")
    label = text.__getitem__
    transitions = {}
    for e in a.base.edges:
        if not isinstance(a, _MatrixAutomaton):
            table = a.transitions[e.id]
            srcs = list(filter(table.__contains__, a.fibers[e.src].elements))
            transitions[e.id] = _Records(keys, (_Texts(map(label, srcs)),
                                                _Texts(map(label, map(table.__getitem__, srcs)))))
            continue
        rows = a.rows(e.id)
        dst_order = a.fibers[e.dst].index
        srcs, dsts, counts = _Texts(), _Texts(), []
        for src in a.fibers[e.src].elements:
            row = rows.get(src)
            if row is None:
                continue
            row = row.items() if len(row) == 1 else sorted(row.items(), key=lambda p: dst_order(p[0]))
            src_text = text[src]
            for dst, count in row:
                srcs.append(src_text)
                dsts.append(text[dst])
                if counted:
                    counts.append(count)
        transitions[e.id] = _Records(keys, (srcs, dsts, counts)[:len(keys)])
    return transitions


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
    return _dump(_automaton_doc(a))


def _automaton_doc(a) -> dict:
    """The document of a span, rel or det automaton; any other kind is a ``TypeError``."""
    kind = getattr(a, "kind", None)
    if kind not in ("span", "rel", "det"):
        raise TypeError(f"cannot serialize {type(a).__name__} as an automaton document")
    return _fibered_doc(a, kind, lambda text: {"fibers": _fiber_texts(a, text),
                                               "transitions": _transition_entries(a, text)})


def serialize_mdet(a: _FiberedAutomaton) -> str:
    """The counting machine's document: each edge's counting matrix, rows and columns in fiber order."""
    return _dump(_fibered_doc(a, "mdet", lambda text: {
        "fibers": _fiber_texts(a, text), "matrices": {e.id: a.matrix(e.id).rows() for e in a.base.edges}}))


def serialize_expanded(x: ExpandedMachine) -> str:
    """Canonical JSON text of an expansion.

    Each state's ``counts`` are written from its ``count_texts``, so a count
    becomes text once, for the label and the record alike.
    """
    nodes = _Texts([t for n in x.base.nodes for t in [_string(n)] * len(x.fibers[n])])
    # a state's counts sit in its record, in the list at "states": their items are four levels deep
    inner, close = "\n        ", "\n      ]"
    counts = _Texts(["[" + inner + t[1:-1].replace(",", "," + inner) + close if len(t) > 2 else "[]"
                     for n in x.base.nodes for t in map(x.count_texts.__getitem__, x.fibers[n].elements)])

    def body(text):
        return {"states": _Records(("label", "node", "counts"), (_Texts(text.values()), nodes, counts)),
                "transitions": _transition_entries(x, text)}

    return _dump({**_fibered_doc(x, "mdet-expanded", body, sort_finals=True), "truncated": x.truncated})


# ---------------------------------------------------------------------------
# simulation documents


def parse_simulation(text: Union[str, dict], base_dir: Optional[Path] = None) -> Simulation:
    """Parse a simulation document; endpoint documents may be inline or paths."""
    doc = _decode(text)
    kind = _need(doc, "kind", str)
    if kind != "simulation":
        raise DocumentError("kind", f"expected 'simulation', got {kind!r}")
    _no_unknown_keys(doc, ("format_version", "kind", "source", "target", "strength", "components"))
    strength = _need(doc, "strength", str)

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
    # each list read below becomes its component; the others (at a node the bases do not share) reach
    # the constructor as they stand, which refuses them unread
    components = dict(_need(doc, "components", dict))
    for n in source.base.nodes:
        if n not in components or n not in target.fibers:
            continue
        at = f"components.{n}"
        counts = _count_entries(components[n], at, target.fibers[n], source.fibers[n], True,
                                "target state", "source state")
        if strength == "strict" and any(c > 1 for c in counts.values()):
            raise DocumentError(at, "strict components cannot carry counts above one")
        components[n] = Span._counted(target.fibers[n], source.fibers[n], counts)
    return Simulation(source, target, components, strength)


def load_simulation(path: Union[str, Path]) -> Simulation:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return parse_simulation(text, base_dir=Path(path).parent)


def serialize_simulation(sim: Simulation) -> str:
    """Canonical JSON text of a simulation.

    Endpoints are inlined as their automaton documents, so they must be of
    a document kind (expansions are not).  Component entries carry a
    ``count`` unless the strength is ``strict``.
    """
    components = {}
    for n in sim.source.base.nodes:
        src_order = sim.target.fibers[n].index
        dst_order = sim.source.fibers[n].index
        components[n] = _component_entries(sim.components[n], lambda p: (src_order(p[0]), dst_order(p[1])),
                                           sim.strength != "strict")
    return _dump(
        {
            "format_version": FORMAT_VERSION,
            "kind": "simulation",
            "source": _automaton_doc(sim.source),
            "target": _automaton_doc(sim.target),
            "strength": sim.strength,
            "components": components,
        }
    )


def _component_entries(comp: Span, key, counted: bool) -> _Records:
    """Document entries of a simulation component in ``key`` order, with counts if ``counted``."""
    pairs = sorted(comp.counts, key=key)
    columns = ([src for src, _ in pairs], [dst for _, dst in pairs])
    if not counted:
        return _Records(("from", "to"), columns)
    return _Records(("from", "to", "count"), (*columns, [comp.counts[p] for p in pairs]))


def serialize_factorization(result) -> str:
    mate = result.mate
    counted = mate.strength != "strict"
    components = {n: _component_entries(mate.components[n], None, counted) for n in mate.source.base.nodes}
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
    """Graphviz text: one node per state, one edge per token, grouped by feet pair.

    A cluster's id is its node's name with ``_`` for each character other
    than a letter or digit, the start marker's is ``__start``; an id that
    an earlier node or a state holds gets the first free suffix ``_2``, ...
    The edge lines of a span automaton are counted before any line is
    built; more than ``_WORK_BOUND`` of them is a ``ValueError``.
    """
    if isinstance(a, ClassicalNFA):
        a = span_automaton_of_classical(a)
    if isinstance(a, SpanAutomaton):
        edge_lines = sum(sum(a.transitions[e.id].counts.values()) for e in a.base.edges)
        if edge_lines > _WORK_BOUND:
            raise ValueError(f"dot would draw {edge_lines} edge lines, more than {_WORK_BOUND}")
    start = _claim("__start", {q for n in a.base.nodes for q in a.fibers[n]}, {})
    lines = ["digraph {", "  rankdir=LR;", f'  "{start}" [shape=point];']
    clusters: set[str] = set()
    tried: dict[str, int] = {}
    for n in a.base.nodes:
        cluster = _claim("".join(c if c.isalnum() else "_" for c in n), clusters, tried)
        lines.append(f"  subgraph cluster_{cluster} {{")
        lines.append(f'    label="{_dot_escape(n)}";')
        for q in a.fibers[n]:
            shape = "doublecircle" if q in a.finals else "circle"
            lines.append(f'    "{_dot_escape(q)}" [shape={shape}];')
        lines.append("  }")
    lines.append(f'  "{start}" -> "{_dot_escape(a.initial)}";')
    for e in a.base.edges:
        t = a.transitions[e.id]
        if isinstance(a, SpanAutomaton):
            steps = [pair for pair, n in t.counts.items() for _ in range(n)]
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


def _claim(name: str, taken: set[str], tried: dict[str, int]) -> str:
    """The first of ``name``, ``name_2``, ``name_3``, ... not in ``taken``, added to it.

    ``tried`` keeps the suffix at which each name's last search stopped;
    ``taken`` only grows, so the next search for that name starts there.
    """
    i = tried.get(name, 1)
    free = f"{name}_{i}" if i > 1 else name
    while free in taken:
        i += 1
        free = f"{name}_{i}"
    tried[name] = i
    taken.add(free)
    return free
