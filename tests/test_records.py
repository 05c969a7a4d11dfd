"""The value semantics of spanauto's frozen records.

Each record class has named fields; its repr lists them as
``ClassName(field=value, ...)``, setting or deleting one raises
``AttributeError``, equality holds within one class only, and a record
hashes its fields unless it holds a dict (``FinSet`` and ``Span`` keep
their own equality and hashing, ``Multiset`` and ``NatMatrix`` their own
hashing).  Views built on first use are no fields, and only ``_Record``
writes instance state.
"""

import ast
from pathlib import Path

import pytest

from spanauto.automata import BaseGraph, DetAutomaton, Edge, RelAutomaton, SpanAutomaton, Word
from spanauto.determinize import ClassicalNFA, ExpandedMachine
from spanauto.simulation import CheckResult, FactorizationResult, Simulation, identity_simulation
from spanauto.spans import (
    FinSet,
    Multiset,
    NatMatrix,
    Relation,
    Span,
    SpanMorphism,
    Token,
    from_matrix,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "spanauto"

Q = FinSet("Q", ["x"])
G = BaseGraph(["n"], [("e", "a", "n", "n")])


def det_automaton() -> DetAutomaton:
    return DetAutomaton(G, {"n": Q}, {"e": {"x": "x"}}, "x", {"x"})


def expansion(**extra) -> ExpandedMachine:
    return ExpandedMachine(base=G, fibers={"n": Q}, transitions={"e": {"x": "x"}}, initial="x",
                           finals=frozenset({"x"}), states={"x": (1,)}, accept_counts={"x": 1}, **extra)


def span() -> Span:
    return Span(Q, Q, [("t", "x", "x")])


def simulation() -> Simulation:
    return identity_simulation(det_automaton())


def records():
    """One small instance of each record class, with the field names in repr order."""
    s = span()
    return [
        (Q, ("name", "elements")),
        (s, ("dom", "cod", "counts")),
        (Relation(Q, Q, {("x", "x")}), ("dom", "cod", "pairs")),
        (NatMatrix(Q, Q, {("x", "x"): 2}), ("dom", "cod", "entries")),
        (Multiset(Q, {"x": 3}), ("base", "counts")),
        (SpanMorphism(s, s, {"t": "t"}), ("source", "target", "mapping")),
        (G, ("nodes", "edges")),
        (Word("n", ["e"]), ("start", "edges")),
        (det_automaton(), ("base", "fibers", "transitions", "initial", "finals")),
        (ClassicalNFA(["a"], Q, {("x", "a"): {"x"}}, "x", {"x"}),
         ("alphabet", "states", "delta", "initial", "finals")),
        (expansion(), ("base", "fibers", "transitions", "initial", "finals", "states", "accept_counts",
                       "truncated_by")),
        (simulation(), ("source", "target", "components", "strength")),
        (CheckResult(True), ("ok", "failed_edge", "detail", "differences")),
        (FactorizationResult(simulation(), True, False), ("mate", "composite_ok", "bisim_ok", "unique_ok")),
    ]


def expected_repr(record, names) -> str:
    return f"{type(record).__name__}(" + ", ".join(f"{n}={getattr(record, n)!r}" for n in names) + ")"


class TestRepr:
    def test_every_record_lists_its_fields(self):
        for record, names in records():
            assert repr(record) == expected_repr(record, names)

    def test_small_reprs_read_in_full(self):
        assert repr(Q) == "FinSet(name='Q', elements=('x',))"
        assert repr(span()) == f"Span(dom={Q!r}, cod={Q!r}, counts={{('x', 'x'): 1}})"
        assert repr(Relation(Q, Q, {("x", "x")})) == f"Relation(dom={Q!r}, cod={Q!r}, pairs=frozenset({{('x', 'x')}}))"
        assert repr(NatMatrix(Q, Q, {("x", "x"): 2})) == f"NatMatrix(dom={Q!r}, cod={Q!r}, entries={{('x', 'x'): 2}})"
        assert repr(Multiset(Q, {"x": 3})) == f"Multiset(base={Q!r}, counts={{'x': 3}})"
        assert repr(G) == "BaseGraph(nodes=('n',), edges=(Edge(id='e', label='a', src='n', dst='n'),))"
        assert repr(Word("n", ["e"])) == "Word(start='n', edges=('e',))"
        assert repr(Word("n")) == "Word(start='n', edges=())"
        assert repr(det_automaton()) == (
            f"DetAutomaton(base={G!r}, fibers={{'n': {Q!r}}}, transitions={{'e': {{'x': 'x'}}}}, "
            "initial='x', finals=frozenset({'x'}))")
        assert repr(ClassicalNFA(["a"], Q, {("x", "a"): {"x"}}, "x", {"x"})) == (
            f"ClassicalNFA(alphabet=('a',), states={Q!r}, delta={{('x', 'a'): frozenset({{'x'}})}}, "
            "initial='x', finals=frozenset({'x'}))")
        assert repr(CheckResult(True)) == (
            "CheckResult(ok=True, failed_edge=None, detail='', differences=())")
        assert repr(CheckResult(False, "e", "d", differences=(("x", "x", 1, 0),))) == (
            "CheckResult(ok=False, failed_edge='e', detail='d', differences=(('x', 'x', 1, 0),))")
        sim = simulation()
        assert repr(sim).startswith(f"Simulation(source={sim.source!r}, target=")
        assert repr(sim).endswith(", strength='strict')")
        assert repr(FactorizationResult(sim, True, False)) == (
            f"FactorizationResult(mate={sim!r}, composite_ok=True, bisim_ok=False, unique_ok=None)")


class TestFrozen:
    def test_no_field_can_be_set_or_deleted(self):
        for record, names in records():
            for n in names:
                before = getattr(record, n)
                with pytest.raises(AttributeError, match=f"cannot assign to field '{n}'"):
                    setattr(record, n, before)
                with pytest.raises(AttributeError, match=f"cannot delete field '{n}'"):
                    delattr(record, n)
                assert getattr(record, n) is before


class TestEquality:
    def test_equal_copies_are_equal(self):
        fresh = {type(r): r for r, _ in records()}
        for record, _ in records():
            assert record == fresh[type(record)] and not record != fresh[type(record)]

    def test_records_of_different_classes_differ(self):
        rs = records()
        for i, (a, names) in enumerate(rs):
            for b, _ in rs[i + 1:]:
                assert a != b and b != a
            assert a != tuple(getattr(a, n) for n in names)

    def test_field_equal_kinds_differ(self):
        # the same five fields under another automaton kind, or a subclass, make another value
        d = det_automaton()
        fields = (d.base, d.fibers, d.transitions, d.initial, d.finals)
        assert DetAutomaton(*fields) == d
        for kind in (SpanAutomaton, RelAutomaton):
            assert kind(*fields) != d and d != kind(*fields)

        class Longer(Word):
            pass

        assert Longer("n", ["e"]) != Word("n", ["e"]) and Word("n", ["e"]) != Longer("n", ["e"])
        assert Longer("n", ["e"]) == Longer("n", ["e"])

    def test_fields_decide_equality(self):
        assert Word("n", ["e"]) != Word("n")
        assert CheckResult(True) != CheckResult(True, detail="d")
        assert Relation(Q, Q, {("x", "x")}) != Relation(Q, Q)
        assert G != BaseGraph(["n"], [("e", "b", "n", "n")])

    def test_own_equalities_stay(self):
        # FinSet compares label sets; Span compares apexes; NatMatrix and Multiset compare their counts
        assert FinSet("P", ["y", "x"]) == FinSet("Q", ["x", "y"])
        assert span() != Span(Q, Q, [("u", "x", "x")])
        assert NatMatrix(Q, Q, {("x", "x"): 2}) != NatMatrix(Q, Q, {("x", "x"): 1})
        assert Multiset(Q, {"x": 3}) != Multiset(Q, {"x": 1})


class TestHash:
    def test_equal_records_hash_equal(self):
        pairs = [
            (Word("n", ["e"]), Word("n", ("e",))),
            (G, BaseGraph(("n",), [Edge("e", "a", "n", "n")])),
            (Relation(Q, Q, {("x", "x")}), Relation(Q, Q, [("x", "x")])),
            (NatMatrix(Q, Q, {("x", "x"): 2}), NatMatrix(Q, Q, {("x", "x"): 2})),
            (CheckResult(False, "e", "d"), CheckResult(ok=False, failed_edge="e", detail="d")),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1

    def test_own_hashes_stay(self):
        assert hash(NatMatrix(Q, Q, {("x", "x"): 2})) == hash((Q, Q))
        assert hash(FinSet("P", ["x"])) == hash(Q)
        assert hash(span()) == hash((Q, Q, (Token("t", "x", "x"),)))
        assert hash(Multiset(Q, {"x": 3})) == hash(Multiset(Q, {"x": 3}))

    def test_records_holding_dicts_do_not_hash(self):
        for record in (det_automaton(), expansion(), simulation(), FactorizationResult(simulation(), True, True),
                       ClassicalNFA(["a"], Q, {}, "x", ()), SpanMorphism(span(), span(), {"t": "t"})):
            with pytest.raises(TypeError):
                hash(record)


class TestConstruction:
    def test_check_result_defaults_and_keywords(self):
        r = CheckResult(True)
        assert (r.ok, r.failed_edge, r.detail, r.differences) == (True, None, "", ())
        assert bool(r) and not CheckResult(False)
        differences = (("x", "x", 1, 0),)
        by_keyword = CheckResult(ok=False, failed_edge="e", detail="d", differences=differences)
        assert by_keyword == CheckResult(False, "e", "d", differences)
        assert by_keyword.differences is differences
        assert hash(by_keyword) == hash(CheckResult(False, "e", "d", differences))
        with pytest.raises(TypeError):
            CheckResult(True, witnesses={})
        with pytest.raises(TypeError):
            CheckResult()
        with pytest.raises(TypeError):
            CheckResult(True, nothing=1)

    def test_factorization_result_defaults_and_keywords(self):
        sim = simulation()
        r = FactorizationResult(sim, True, False)
        assert (r.mate, r.composite_ok, r.bisim_ok, r.unique_ok) == (sim, True, False, None)
        assert FactorizationResult(mate=sim, composite_ok=True, bisim_ok=False, unique_ok=True) == \
            FactorizationResult(sim, True, False, True)
        with pytest.raises(TypeError):
            FactorizationResult(sim, True)

    def test_expansion_defaults_and_keywords(self):
        states = {"x": (1,)}
        x = ExpandedMachine(G, {"n": Q}, {"e": {"x": "x"}}, "x", frozenset({"x"}), states, {"x": 1})
        assert x == expansion() and x.truncated_by == () and not x.truncated
        assert x.states is states  # the fields are stored as given
        cut = expansion(truncated_by=("max_len",))
        assert cut.truncated and cut != x
        with pytest.raises(ValueError, match="truncated"):
            cut.as_det_automaton()
        assert x.as_det_automaton() == det_automaton()
        assert x.count_texts == {"x": "(1)"}
        with pytest.raises(TypeError):
            ExpandedMachine(G, {"n": Q}, {"e": {"x": "x"}}, "x", frozenset({"x"}), states)


class TestViews:
    def test_views_built_on_first_use_are_no_fields(self):
        # (build one record, use its views, the views' names)
        cases = [
            (lambda: from_matrix(NatMatrix(Q, Q, {("x", "x"): 2})), lambda r: r.token(1),
             ("apex", "_by_label")),
            (lambda: NatMatrix(Q, Q, {("x", "x"): 2}), lambda r: r._by_row, ("_by_row",)),
            (lambda: Relation(Q, Q, {("x", "x")}), lambda r: r("x"), ("_by_left",)),
            (det_automaton, lambda r: (r.rows("e"), r.node_of("x")), ("_views", "_state_nodes")),
        ]
        for build, use, views in cases:
            record, copy = build(), build()
            before = repr(record)
            assert not any(v in vars(record) for v in views)
            use(record)
            assert all(v in vars(record) for v in views) and not set(views) & set(record._fields)
            assert repr(record) == repr(copy) == before
            assert record == copy and copy == record
            if not isinstance(record, DetAutomaton):  # an automaton holds dicts, so it does not hash
                assert hash(record) == hash(copy)
            for v in views:
                built = getattr(record, v)
                with pytest.raises(AttributeError, match=f"cannot assign to field '{v}'"):
                    setattr(record, v, built)
                with pytest.raises(AttributeError, match=f"cannot delete field '{v}'"):
                    delattr(record, v)
                assert getattr(record, v) is built


def instance_state_writes(text: str, exempt_class: str = "") -> list[int]:
    """Lines that write instance state past ``__setattr__``, outside the class named ``exempt_class``.

    Those are a call of ``object.__setattr__``, an assignment to or into a
    ``__dict__`` or ``vars(...)``, and a call of their ``update``.
    """
    tree = ast.parse(text)
    exempt = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == exempt_class
              for n in ast.walk(c)}

    def is_dict(e) -> bool:
        return ((isinstance(e, ast.Attribute) and e.attr == "__dict__")
                or (isinstance(e, ast.Call) and isinstance(e.func, ast.Name) and e.func.id == "vars"))

    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            f = node.func
            if (f.attr == "__setattr__" and isinstance(f.value, ast.Name) and f.value.id == "object"
                    or f.attr == "update" and is_dict(f.value)):
                found.append(node.lineno)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        if any(is_dict(t) or isinstance(t, ast.Subscript) and is_dict(t.value) for t in targets):
            found.append(node.lineno)
    return sorted(found)


class TestOneStoragePath:
    def test_only_the_record_base_writes_instance_state(self):
        paths = sorted(SRC.glob("*.py"))
        assert paths
        found = [f"{p.name}:{line}" for p in paths
                 for line in instance_state_writes(p.read_text(encoding="utf-8"),
                                                   "_Record" if p.name == "spans.py" else "")]
        assert not found, "instance state written outside spans._Record:\n" + "\n".join(found)

    def test_the_guard_sees_each_write(self):
        text = (
            "class _Record:\n"
            "    def __init__(self, *v):\n"
            "        self.__dict__.update(v)\n"
            "class A(_Record):\n"
            "    def __init__(self, x):\n"
            "        object.__setattr__(self, 'x', x)\n"
            "        self.__dict__.update(y=1)\n"
            "        self.__dict__['z'] = 2\n"
            "def f(a):\n"
            "    vars(a)['w'] = 3\n"
            "    vars(a).update(v=4)\n"
            "    a.__dict__ = {}\n"
            "    return a.__dict__.get('x'), vars(a)['x'], getattr(a, 'x')\n"
        )
        assert instance_state_writes(text, "_Record") == [6, 7, 8, 10, 11, 12]
        assert instance_state_writes(text) == [3, 6, 7, 8, 10, 11, 12]
