"""Tests for document parsing, serialization, DOT output and the CLI."""

import json
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from genlib import brute_force_paths, random_live_span_automaton, random_span_automaton
from spanauto.automata import SpanAutomaton, enumerate_words
from spanauto.cli import main
from spanauto.determinize import ClassicalNFA
from spanauto.fixtures import two_state_example
from spanauto.io import (
    DocumentError,
    _dump,
    _Records,
    parse_automaton,
    parse_simulation,
    serialize_automaton,
    serialize_simulation,
    to_dot,
)
from spanauto.simulation import Simulation, square_witnesses
from spanauto.spans import NatMatrix, Relation, Span, Token


class TestRoundTrips:
    def test_span_fixture(self, fixtures_dir):
        text = (fixtures_dir / "two_state.json").read_text()
        a = parse_automaton(text)
        assert isinstance(a, SpanAutomaton)
        assert len(a.fibers["s"]) == 2
        assert sum(len(s.apex) for s in a.transitions.values()) == 4
        assert serialize_automaton(a) == text

    def test_two_phase_fixture(self, fixtures_dir):
        text = (fixtures_dir / "two_phase.json").read_text()
        assert serialize_automaton(parse_automaton(text)) == text

    def test_classical_fixture(self, fixtures_dir):
        text = (fixtures_dir / "two_state_nfa.json").read_text()
        a = parse_automaton(text)
        assert isinstance(a, ClassicalNFA)
        assert serialize_automaton(a) == text

    def test_rel_and_det_roundtrip(self):
        from spanauto.determinize import det, rel_of

        a = two_state_example()
        for obj in (rel_of(a), det(a)):
            text = serialize_automaton(obj)
            assert serialize_automaton(parse_automaton(text)) == text

    def test_empty_transitions_parse(self):
        doc = {
            "format_version": "1",
            "kind": "span",
            "base": {"nodes": ["n"], "edges": [{"id": "e", "label": "e", "src": "n", "dst": "n"}]},
            "fibers": {"n": ["1"]},
            "transitions": {"e": []},
            "initial": "1",
            "finals": [],
        }
        a = parse_automaton(json.dumps(doc))
        assert a.transitions["e"].apex == ()

    def test_parsed_apexes_list_document_tokens(self):
        # a parsed span's apex lists, entry by entry in document order, its tokens,
        # each labelled by its place in the apex (components likewise); the
        # oracles are built token by token through the validating constructor
        def tokens(entries):
            feet = [(t["from"], t["to"]) for t in entries for _ in range(t.get("count", 1))]
            return [Token(k, q, r) for k, (q, r) in enumerate(feet)]

        rng = random.Random(3)
        for _ in range(40):
            a = random_span_automaton(rng, max_mult=3)
            doc = json.loads(serialize_automaton(a))
            for entries in doc["transitions"].values():
                rng.shuffle(entries)
            parsed = parse_automaton(doc)
            oracle = SpanAutomaton(a.base, a.fibers, {
                e.id: Span(a.fibers[e.src], a.fibers[e.dst], tokens(doc["transitions"][e.id]))
                for e in a.base.edges
            }, a.initial, a.finals)
            assert parsed == oracle
            assert to_dot(parsed) == to_dot(oracle)
            for w in enumerate_words(a.base, a.initial_node, 3):
                assert brute_force_paths(parsed, w) == brute_force_paths(oracle, w)
            # diagonal components with counts pass the lax check, so witnesses are built
            components = {n: [{"from": q, "to": q, "count": rng.randint(1, 3)} for q in a.fibers[n]]
                          for n in a.base.nodes}
            for entries in components.values():
                rng.shuffle(entries)
            sim = parse_simulation({"format_version": "1", "kind": "simulation", "source": doc, "target": doc,
                                    "strength": "lax", "components": components})
            sim_oracle = Simulation(oracle, oracle, {
                n: Span(a.fibers[n], a.fibers[n], tokens(components[n])) for n in a.base.nodes
            }, "lax")
            assert sim.components == sim_oracle.components
            got, want = square_witnesses(sim, "lax"), square_witnesses(sim_oracle, "lax")
            assert {e: w.mapping for e, w in got.items()} == {e: w.mapping for e, w in want.items()}


_json_scalars = (
    st.text(alphabet=st.characters(max_codepoint=0x1F64F))
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.booleans()
    | st.none()
)
# lists of dicts that share one key tuple, as documents hold them; a column
# mostly keeps one kind of value, so its one-pass writers run
_record_values = (
    st.text(max_size=8),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.booleans(),
    st.none(),
    st.lists(st.integers(min_value=-3, max_value=10**20), max_size=4),
    _json_scalars,
)
_record_lists = st.lists(
    st.tuples(st.text(max_size=6), st.sampled_from(_record_values)), min_size=1, max_size=4, unique_by=lambda c: c[0]
).flatmap(lambda columns: st.lists(st.tuples(*(v for _, v in columns)), min_size=1, max_size=6).map(
    lambda rows: [{k: v for (k, _), v in zip(columns, row)} for row in rows]))
_json_docs = st.recursive(
    _json_scalars | _record_lists,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=30,
)


class TestDump:
    @settings(max_examples=300, deadline=None)
    @given(doc=_json_docs)
    def test_matches_indented_json_dumps(self, doc):
        assert _dump(doc) == json.dumps(doc, indent=2) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(records=_record_lists)
    def test_records_match_their_dicts(self, records):
        keys = tuple(records[0])
        columns = tuple(map(list, zip(*map(dict.values, records))))
        assert _dump({"r": _Records(keys, columns)}) == json.dumps({"r": records}, indent=2) + "\n"

    def test_scalar_lists_and_tuples(self):
        for doc in ({"a": [1, -2, 10**30], "b": ["x", "\u00e9\"\n"], "c": (1, True, None), "d": [[], {}]}, [], {}):
            assert _dump(doc) == json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def table_doc(a) -> dict:
        """The document of a function-table automaton, one dict per record, sources in fiber order."""
        nodes = a.base.nodes
        return {
            "format_version": "1",
            "kind": a.kind,
            "base": {"nodes": list(nodes),
                     "edges": [{"id": e.id, "label": e.label, "src": e.src, "dst": e.dst} for e in a.base.edges]},
            "fibers": {n: list(a.fibers[n]) for n in nodes},
            "transitions": {
                e.id: [{"from": q, "to": a.transitions[e.id][q]} for q in a.fibers[e.src] if q in a.transitions[e.id]]
                for e in a.base.edges
            },
            "initial": a.initial,
            "finals": [q for n in nodes for q in a.fibers[n] if q in a.finals],
        }

    def test_function_tables_match_their_dicts(self):
        from genlib import random_classical_nfa, random_odd_names_automaton
        from spanauto.determinize import classical_subset_construction, det, mdet_expand
        from spanauto.io import serialize_expanded

        rng = random.Random(23)
        escaped = 0
        for _ in range(20):
            a = random_span_automaton(rng, max_nodes=3, max_states=3)
            for d in (det(a), det(a, prune=True), classical_subset_construction(random_classical_nfa(rng))):
                assert serialize_automaton(d) == json.dumps(self.table_doc(d), indent=2) + "\n"
            # labels that JSON escapes (quotes, backslashes, non-ASCII), each escaped once and reused
            odd = random_odd_names_automaton(rng, max_nodes=3, max_states=4)
            escaped += any('"' in n and odd.fibers[n] for n in odd.base.nodes)
            for d in (det(odd), det(odd, prune=True)):
                assert serialize_automaton(d) == json.dumps(self.table_doc(d), indent=2) + "\n"
            x = mdet_expand(odd, rng.randint(1, 12), rng.randint(0, 4))
            assert serialize_expanded(x) == json.dumps(self.expanded_doc(x), indent=2) + "\n"
        assert escaped >= 5

    @classmethod
    def expanded_doc(cls, x) -> dict:
        """The document of an expansion, one dict per record, counts read from ``states``."""
        tables = cls.table_doc(x)
        return {
            "format_version": "1",
            "kind": "mdet-expanded",
            "base": tables["base"],
            "states": [{"label": q, "node": n, "counts": list(x.states[q])} for n in x.base.nodes for q in x.fibers[n]],
            "transitions": tables["transitions"],
            "initial": x.initial,
            "finals": sorted(x.finals),
            "truncated": x.truncated,
        }

    def test_partial_expansion_matches_its_dict(self):
        from spanauto.determinize import mdet_expand
        from spanauto.fixtures import two_phase_example
        from spanauto.io import serialize_expanded

        # the state bound cuts the last layer, so some states have no recorded moves
        x = mdet_expand(two_phase_example(), 7, 3)
        assert x.truncated
        assert any(all(q not in t for t in x.transitions.values()) for q in x.states)
        assert serialize_expanded(x) == json.dumps(self.expanded_doc(x), indent=2) + "\n"

    def test_table_writer_matches_the_row_walk(self):
        # function tables are written straight from the table; the count-row walk is the yardstick
        from genlib import random_odd_names_automaton, row_walk_entries
        from spanauto.determinize import det, mdet_expand, rel_of
        from spanauto.io import serialize_expanded

        rng = random.Random(29)
        partial = 0
        for _ in range(40):
            a = random_odd_names_automaton(rng, max_nodes=3, max_states=6)
            for kept in (a, rel_of(a), det(a, prune=True)):
                text = serialize_automaton(kept)
                doc = json.loads(text)
                for entries in doc["transitions"].values():
                    rng.shuffle(entries)
                parsed = parse_automaton(doc)
                want = dict(doc, transitions=row_walk_entries(parsed))
                assert serialize_automaton(parsed) == json.dumps(want, indent=2) + "\n" == text
            x = mdet_expand(a, rng.randint(1, 12), rng.randint(0, 4))
            partial += any(len(x.transitions[e.id]) < len(x.fibers[e.src]) for e in x.base.edges)
            want = dict(self.expanded_doc(x), transitions=row_walk_entries(x))
            assert serialize_expanded(x) == json.dumps(want, indent=2) + "\n"
        assert partial >= 10

    def test_expansion_with_odd_node_names_matches_its_dict(self):
        # counts are written from the labels, which hold node names with ':' and '(' and vectors of widths 0-2
        from genlib import odd_names_example
        from spanauto.determinize import mdet_expand
        from spanauto.io import serialize_expanded

        for max_states, max_len in ((12, 6), (200, 4), (1, 1)):
            x = mdet_expand(odd_names_example(), max_states, max_len)
            assert serialize_expanded(x) == json.dumps(self.expanded_doc(x), indent=2) + "\n"

    def test_expansion_built_with_other_labels_writes_its_states(self):
        # counts come from the state vectors, not from the text of the labels
        from genlib import odd_names_example
        from spanauto.determinize import ExpandedMachine, mdet_expand
        from spanauto.io import serialize_expanded
        from spanauto.spans import FinSet

        x = mdet_expand(odd_names_example(), 12, 6)
        new = {q: f"q{i}" for i, q in enumerate(x.states)}
        y = ExpandedMachine(
            base=x.base,
            fibers={n: FinSet(f.name, [new[q] for q in f]) for n, f in x.fibers.items()},
            states={new[q]: list(vec) for q, vec in x.states.items()},
            transitions={e: {new[q]: new[t] for q, t in table.items()} for e, table in x.transitions.items()},
            initial=new[x.initial],
            finals={new[q] for q in x.finals},
            accept_counts={new[q]: c for q, c in x.accept_counts.items()},
            truncated_by=x.truncated_by,
        )
        doc = self.expanded_doc(y)
        assert [s["counts"] for s in doc["states"]] == [list(x.states[q]) for n in x.base.nodes for q in x.fibers[n]]
        assert serialize_expanded(y) == json.dumps(doc, indent=2) + "\n"


class TestSchemaErrors:
    def base_doc(self):
        return {
            "format_version": "1",
            "kind": "span",
            "base": {"nodes": ["n"], "edges": [{"id": "e", "label": "e", "src": "n", "dst": "n"}]},
            "fibers": {"n": ["1", "2"]},
            "transitions": {"e": [{"from": "1", "to": "2", "count": 1}]},
            "initial": "1",
            "finals": ["2"],
        }

    def test_duplicate_state_label_names_fiber(self):
        doc = self.base_doc()
        doc["fibers"]["n"] = ["1", "1"]
        with pytest.raises(DocumentError) as err:
            parse_automaton(json.dumps(doc))
        assert "fibers.n" in str(err.value)

    def test_keys_for_unknown_nodes_and_edges(self, tmp_path, capsys):
        for section, key, line in (("fibers", "m", "fibers.m: fiber for unknown node"),
                                   ("transitions", "f", "transitions.f: transition for unknown edge")):
            doc = self.base_doc()
            doc[section][key] = []
            with pytest.raises(DocumentError) as err:
                parse_automaton(json.dumps(doc))
            assert str(err.value) == line
        # a simulation's components likewise
        sim = {"format_version": "1", "kind": "simulation", "source": self.base_doc(), "target": self.base_doc(),
               "strength": "strict", "components": {"n": [{"from": "1", "to": "1"}, {"from": "2", "to": "2"}]}}
        assert parse_simulation(json.dumps(sim)).components.keys() == {"n"}
        sim["components"]["zz"] = []
        with pytest.raises(DocumentError) as err:
            parse_simulation(json.dumps(sim))
        assert str(err.value) == "components.zz: component for unknown node"
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(sim))
        assert main(["sim-check", str(path), "--mode", "strict"]) == 2
        assert capsys.readouterr() == ("", "input-error: components.zz: component for unknown node\n")

    def test_a_fault_of_shape_comes_before_one_of_structure(self, tmp_path, capsys):
        # the loader reads every entry before the constructor checks the initial state
        doc = self.base_doc()
        doc["initial"] = "9"
        doc["transitions"]["e"][0]["from"] = "8"
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", "input-error: transitions.e[0].from: unknown state '8' in fiber 'n'\n")
        doc["transitions"]["e"][0]["from"] = "1"
        with pytest.raises(DocumentError) as err:
            parse_automaton(json.dumps(doc))
        assert str(err.value) == "initial: unknown state '9'"

    def test_unknown_state_in_transition_gives_path(self):
        doc = self.base_doc()
        doc["transitions"]["e"][0]["from"] = "9"
        with pytest.raises(DocumentError) as err:
            parse_automaton(json.dumps(doc))
        assert "transitions.e[0].from" in str(err.value)

    def test_count_rejected_outside_span(self):
        doc = self.base_doc()
        doc["kind"] = "rel"
        with pytest.raises(DocumentError) as err:
            parse_automaton(json.dumps(doc))
        assert "count" in str(err.value)

    def test_det_requires_total(self):
        doc = self.base_doc()
        doc["kind"] = "det"
        doc["transitions"]["e"] = [{"from": "1", "to": "2"}]
        with pytest.raises(DocumentError) as err:
            parse_automaton(json.dumps(doc))
        assert "missing image" in str(err.value)

    @pytest.mark.parametrize("entries, line", [
        ([{"from": "1", "to": "2"}, {"from": "1", "to": "1"}, {"from": "2", "to": "2"}],
         "transitions.e: state '1' mapped twice"),
        ([{"from": "2", "to": "1"}], "transitions.e: missing image of state '1'"),
        # a state mapped twice is named before a missing image
        ([{"from": "1", "to": "2"}, {"from": "1", "to": "1"}], "transitions.e: state '1' mapped twice"),
        # every entry is read before the table is: an unknown state after a state mapped twice wins
        ([{"from": "1", "to": "2"}, {"from": "1", "to": "1"}, {"from": "9", "to": "1"}],
         "transitions.e[2].from: unknown state '9' in fiber 'n'"),
        ([{"from": "1", "to": "2", "count": 1}, {"from": "2", "to": "2"}],
         "transitions.e[0].count: counts are only valid in span documents"),
    ])
    def test_det_table_errors(self, entries, line):
        doc = self.base_doc()
        doc["kind"] = "det"
        doc["transitions"]["e"] = entries
        with pytest.raises(DocumentError) as err:
            parse_automaton(json.dumps(doc))
        assert str(err.value) == line

    def test_det_table_read_in_fiber_order(self):
        doc = self.base_doc()
        doc["kind"] = "det"
        doc["transitions"]["e"] = [{"from": "2", "to": "1"}, {"from": "1", "to": "2"}]
        d = parse_automaton(json.dumps(doc))
        assert d.transitions["e"] == {"1": "2", "2": "1"}
        assert d.rows("e") == {"1": {"2": 1}, "2": {"1": 1}}
        assert json.loads(serialize_automaton(d))["transitions"]["e"] == [{"from": "1", "to": "2"}, {"from": "2", "to": "1"}]

    def test_bad_json(self):
        with pytest.raises(DocumentError):
            parse_automaton("{not json")

    def test_unsupported_version(self):
        doc = self.base_doc()
        doc["format_version"] = "999"
        with pytest.raises(DocumentError):
            parse_automaton(json.dumps(doc))


class TestSimulationDocuments:
    def test_inline_endpoints(self, fixtures_dir):
        span_doc = json.loads((fixtures_dir / "two_state.json").read_text())
        sim_doc = {
            "format_version": "1",
            "kind": "simulation",
            "source": span_doc,
            "target": span_doc,
            "strength": "pseudo",
            "components": {"s": [{"from": "1", "to": "1"}, {"from": "2", "to": "2"}]},
        }
        sim = parse_simulation(json.dumps(sim_doc))
        assert sim.strength == "pseudo"
        from spanauto.simulation import check_span_simulation

        assert check_span_simulation(sim, "pseudo").ok

    def test_path_endpoints(self, fixtures_dir, tmp_path):
        sim_doc = {
            "format_version": "1",
            "kind": "simulation",
            "source": str(fixtures_dir / "two_state.json"),
            "target": str(fixtures_dir / "two_state.json"),
            "strength": "lax",
            "components": {"s": [{"from": "1", "to": "1"}, {"from": "2", "to": "2"}]},
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(sim_doc))
        from spanauto.io import load_simulation

        sim = load_simulation(path)
        assert sim.source.initial == "1"

    def test_unknown_component_state(self, fixtures_dir):
        span_doc = json.loads((fixtures_dir / "two_state.json").read_text())
        sim_doc = {
            "format_version": "1",
            "kind": "simulation",
            "source": span_doc,
            "target": span_doc,
            "strength": "lax",
            "components": {"s": [{"from": "9", "to": "1"}]},
        }
        with pytest.raises(DocumentError) as err:
            parse_simulation(json.dumps(sim_doc))
        assert "components.s[0].from" in str(err.value)

    def test_simulation_round_trip(self):
        from spanauto.io import serialize_simulation
        from spanauto.simulation import canonical_det_simulation

        sim = canonical_det_simulation(two_state_example())
        text = serialize_simulation(sim)
        assert serialize_simulation(parse_simulation(text)) == text
        reparsed = parse_simulation(text)
        assert reparsed.strength == "lax"
        from spanauto.spans import to_matrix

        assert to_matrix(reparsed.components["s"]) == to_matrix(sim.components["s"])

    @pytest.mark.parametrize("strength", ["strict", "lax"])
    @pytest.mark.parametrize("given", ["relation", "span", "matrix"])
    def test_strength_alone_decides_counts(self, given, strength):
        # every component is stored as a counted span; only a non-strict document writes its counts
        a = two_state_example()
        q = a.fibers["s"]
        counts = {("1", "1"): 1, ("1", "2"): 1 if given == "relation" else 2, ("2", "2"): 1}
        feet = [p for p, n in counts.items() for _ in range(n)]
        component = {
            "relation": Relation(q, q, counts),
            "span": Span(q, q, [Token(f"t{i}", x, y) for i, (x, y) in enumerate(feet)]),
            "matrix": NatMatrix(q, q, counts),
        }[given]
        text = serialize_simulation(Simulation(a, a, {"s": component}, strength))
        assert serialize_simulation(parse_simulation(text)) == text
        entries = json.loads(text)["components"]["s"]
        if strength == "strict":
            assert entries == [{"from": x, "to": y} for x, y in counts]
        else:
            assert entries == [{"from": x, "to": y, "count": n} for (x, y), n in counts.items()]


class TestDot:
    def test_one_node_per_state_one_edge_per_token(self):
        a = two_state_example()
        dot = to_dot(a)
        states = sum(len(a.fibers[n]) for n in a.base.nodes)
        tokens = sum(len(s.apex) for s in a.transitions.values())
        assert dot.count("[shape=circle]") + dot.count("[shape=doublecircle]") == states
        assert dot.count("[label=") == tokens

    def test_finals_double_circled_and_initial_marked(self):
        dot = to_dot(two_state_example())
        assert '"2" [shape=doublecircle];' in dot
        assert '"__start" -> "1";' in dot

    def test_multiplicity_as_parallel_edges(self):
        from spanauto.spans import FinSet, Span, Token
        from spanauto.automata import BaseGraph

        base = BaseGraph(["n"], [("e", "e", "n", "n")])
        q = FinSet("Q", ["1"])
        a = SpanAutomaton(
            base, {"n": q}, {"e": Span(q, q, [Token("u", "1", "1"), Token("v", "1", "1")])}, "1", set()
        )
        dot = to_dot(a)
        assert dot.count('"1" -> "1" [label="e"];') == 2

    def test_colliding_cluster_ids_get_the_first_free_suffix(self):
        doc = {
            "format_version": "1", "kind": "rel",
            "base": {"nodes": ["a-b", "a_b", "a b", "a_b_2"], "edges": []},
            "fibers": {"a-b": ["1"], "a_b": ["2"], "a b": ["3"], "a_b_2": ["4"]},
            "transitions": {}, "initial": "1", "finals": [],
        }
        dot = to_dot(parse_automaton(doc))
        clusters = [line.split()[1] for line in dot.splitlines() if line.startswith("  subgraph ")]
        assert clusters == ["cluster_a_b", "cluster_a_b_2", "cluster_a_b_3", "cluster_a_b_2_2"]
        assert [line.strip() for line in dot.splitlines() if "label=" in line] == [
            'label="a-b";', 'label="a_b";', 'label="a b";', 'label="a_b_2";']

    def test_a_state_named_like_the_start_marker_keeps_its_own_node(self):
        doc = {
            "format_version": "1", "kind": "rel",
            "base": {"nodes": ["n"], "edges": [{"id": "e", "label": "e", "src": "n", "dst": "n"}]},
            "fibers": {"n": ["__start", "__start_2", "x"]},
            "transitions": {"e": [{"from": "x", "to": "__start"}]}, "initial": "x", "finals": ["__start"],
        }
        dot = to_dot(parse_automaton(doc)).splitlines()
        assert dot[2] == '  "__start_3" [shape=point];'
        assert '  "__start_3" -> "x";' in dot
        assert '    "__start" [shape=doublecircle];' in dot and '  "x" -> "__start" [label="e"];' in dot
        assert sum('"__start"' in line for line in dot) == 2


class TestCli:
    def run(self, *argv, capsys=None):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    def test_validate_ok(self, fixtures_dir, capsys):
        code, _, err = self.run("validate", str(fixtures_dir / "two_state.json"), capsys=capsys)
        assert code == 0 and err == ""

    @pytest.mark.parametrize(
        "name",
        ["no-such-file.json", "two_state.json/x", "x" * 300 + ".json"],
        ids=["missing", "not-a-directory", "name-too-long"],
    )
    def test_validate_missing_file(self, name, fixtures_dir, capsys):
        # every path the OS refuses to open is an input error, not a traceback
        code, out, err = self.run("validate", str(fixtures_dir / name), capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith("input-error:") and len(err.splitlines()) == 1

    def test_subset_labels_keep_odd_names_apart(self, tmp_path, capsys):
        # member names holding the label syntax: {a,b} against {"a,b"}, {"{a,b}"} against {"{a", "b}"},
        # and p:{"q}:{r"} against p:{q}:{r}; and the empty name: {""} against {}, and against "0" and "\0"
        comma = {"format_version": "1", "kind": "span",
                 "base": {"nodes": ["n"], "edges": [{"id": "e", "label": "e", "src": "n", "dst": "n"}]},
                 "fibers": {"n": ["a", "b", "a,b"]},
                 "transitions": {"e": [{"from": "a", "to": "a,b"}, {"from": "a,b", "to": "a"},
                                       {"from": "a,b", "to": "b"}]},
                 "initial": "a", "finals": ["b"]}
        odd = {"format_version": "1", "kind": "span",
               "base": {"nodes": ["p", "p:{q}"], "edges": [{"id": "g", "label": ",", "src": "p", "dst": "p"},
                                                          {"id": "e", "label": "{", "src": "p", "dst": "p:{q}"},
                                                          {"id": "f", "label": "\\", "src": "p:{q}", "dst": "p"}]},
               "fibers": {"p": ["a", "b", "a,b", "q}:{r"], "p:{q}": ["r", "\\", ",", "{}", "\\,"]},
               "transitions": {"g": [{"from": "a", "to": "a,b"}, {"from": "a,b", "to": "a"},
                                     {"from": "a,b", "to": "b"}],
                               "e": [{"from": "a", "to": "r"}, {"from": "b", "to": "\\"}, {"from": "b", "to": ","},
                                     {"from": "a,b", "to": "\\,"}],
                               "f": [{"from": "r", "to": "q}:{r"}, {"from": "\\", "to": "a"}, {"from": ",", "to": "b"},
                                     {"from": "{}", "to": "a,b"}]},
               "initial": "a", "finals": ["b", "{}"]}
        states = ["a", "b", "a,b", "\\", "\\,", "{a,b}", "{a", "b}", ":", "}"]
        classical = {"format_version": "1", "kind": "classical-nfa", "alphabet": ["x", ",", "{}\\:"],
                     "states": states,
                     "delta": [{"from": "a", "letter": "x", "to": ["a,b", "\\"]},
                               {"from": "a,b", "letter": "x", "to": ["a", "b"]},
                               {"from": "\\", "letter": ",", "to": ["\\,", "{a,b}", "a"]},
                               {"from": "{a,b}", "letter": "{}\\:", "to": [":", "}", "{a", "b}"]}],
                     "initial": "a", "finals": ["b", ":"]}
        empty = dict(comma, fibers={"n": ["", "x"]}, transitions={"e": [{"from": "x", "to": ""}]},
                     initial="x", finals=[""])
        empty_classical = dict(classical, alphabet=["x"], states=["", "0", "\\0", "x"], initial="x", finals=[""],
                               delta=[{"from": "x", "letter": "x", "to": [""]}, {"from": "", "letter": "x", "to": ["0"]},
                                      {"from": "0", "letter": "x", "to": ["\\0", ""]}])
        runs = {"comma": (comma, "det"), "comma pruned": (comma, "det", "--prune"), "odd": (odd, "det"),
                "odd pruned": (odd, "det", "--prune"), "classical": (classical, "classical"),
                "empty": (empty, "det"), "empty pruned": (empty, "det", "--prune"),
                "empty classical": (empty_classical, "classical")}
        labels = {}
        for name, (doc, *argv) in runs.items():
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            code, out, err = self.run(argv[0], str(path), *argv[1:], capsys=capsys)
            assert (code, err) == (0, ""), (name, err)
            labels[name] = [q for fiber in json.loads(out)["fibers"].values() for q in fiber]
            assert len(set(labels[name])) == len(labels[name]), (name, labels[name])
        assert labels["comma pruned"] == ["{a}", "{a\\,b}", "{a,b}"]
        assert {"p:{q\\}:\\{r}", "p:{q}:{r}", "p:{q}:{\\\\\\,}"} <= set(labels["odd pruned"])
        # a name whose braces pair up and hold its commas stands as it is, any other is escaped
        assert {"{a\\,b}", "{a,b}", "{{a,b}}", "{b\\},\\{a}", "{\\}}", "{\\\\}"} <= set(labels["classical"])
        # the empty name is written \0, a text no other member has
        assert labels["empty"] == ["{}", "{\\0}", "{x}", "{\\0,x}"]
        assert labels["empty pruned"] == ["{}", "{\\0}", "{x}"]
        assert {"{}", "{\\0}", "{0}", "{\\\\0}", "{\\0,0}", "{0,\\\\0}"} <= set(labels["empty classical"])

    def test_det_golden(self, fixtures_dir, golden_dir, capsys):
        for name in ("two_state", "two_phase"):
            code, out, _ = self.run("det", str(fixtures_dir / f"{name}.json"), capsys=capsys)
            assert code == 0
            assert out == (golden_dir / f"det_{name}.json").read_text()

    def test_mdet_golden(self, fixtures_dir, golden_dir, capsys):
        for name in ("two_state", "two_phase"):
            code, out, _ = self.run("mdet", str(fixtures_dir / f"{name}.json"), capsys=capsys)
            assert code == 0
            assert out == (golden_dir / f"mdet_{name}.json").read_text()

    def test_mdet_expand_golden(self, fixtures_dir, golden_dir, capsys):
        # the bounds close two_state and truncate two_phase
        for name in ("two_state", "two_phase"):
            code, out, _ = self.run(
                "mdet", str(fixtures_dir / f"{name}.json"), "--expand", "--max-states", "6", "--max-len", "3",
                capsys=capsys,
            )
            assert code == 0
            assert out == (golden_dir / f"mdet_expand_{name}.json").read_text()

    def test_lang_count_golden(self, fixtures_dir, golden_dir, capsys):
        for name in ("two_state", "two_phase"):
            code, out, _ = self.run(
                "lang", str(fixtures_dir / f"{name}.json"), "--max-len", "4", "--count", capsys=capsys
            )
            assert code == 0
            assert out == (golden_dir / f"lang_count_{name}.txt").read_text()

    @pytest.mark.parametrize("argv, golden, expected_code", [
        (["dot", "two_state.json"], "dot_two_state.dot", 0),
        (["dot", "two_phase.json"], "dot_two_phase.dot", 0),
        (["classical", "two_state_nfa.json"], "classical_two_state_nfa.json", 0),
        # the composite holds but the mate is no bisimulation, so factor exits 1
        (["factor", "sim_identity_det.json", "--target", "det"], "factor_det_identity.json", 1),
        (["factor", "sim_canonical_mdet.json", "--target", "mdet", "--max-len", "8"],
         "factor_mdet_canonical.json", 0),
    ])
    def test_more_goldens(self, argv, golden, expected_code, fixtures_dir, golden_dir, capsys):
        code, out, _ = self.run(argv[0], str(fixtures_dir / argv[1]), *argv[2:], capsys=capsys)
        assert code == expected_code
        assert out == (golden_dir / golden).read_text()

    def test_lang_matches_expected_counts(self, fixtures_dir, capsys):
        code, out, _ = self.run(
            "lang", str(fixtures_dir / "two_state.json"), "--max-len", "2", "--count", capsys=capsys
        )
        assert code == 0
        assert out.splitlines() == ["a\t1", "b\t1", "aa\t1", "ab\t2", "bb\t1"]

    def test_lang_disambiguates_label_collisions(self, tmp_path, capsys):
        # two edges share the label "a" on different node pairs, so two
        # different one-letter words print the same; edge ids resolve it
        doc = {
            "format_version": "1",
            "kind": "span",
            "base": {
                "nodes": ["n", "m"],
                "edges": [
                    {"id": "e1", "label": "a", "src": "n", "dst": "n"},
                    {"id": "e2", "label": "a", "src": "n", "dst": "m"},
                ],
            },
            "fibers": {"n": ["1"], "m": ["2"]},
            "transitions": {
                "e1": [{"from": "1", "to": "1", "count": 1}],
                "e2": [{"from": "1", "to": "2", "count": 1}],
            },
            "initial": "1",
            "finals": ["1", "2"],
        }
        path = tmp_path / "collide.json"
        path.write_text(json.dumps(doc))
        code, out, _ = self.run("lang", str(path), "--max-len", "1", capsys=capsys)
        assert code == 0
        assert out.splitlines() == ["", "a(e1)", "a(e2)"]

    def test_lang_matches_word_by_word_oracle(self, tmp_path, capsys):
        # oracle: every word by enumerate_words, its runs by count_paths, its
        # text by joining its labels; a text shared by two words shows edge ids
        from spanauto.automata import BaseGraph, count_paths
        from spanauto.spans import FinSet

        def expected(a, max_len, count):
            labels = {e.id: e.label for e in a.base.edges}
            words = [(w, count_paths(a, w)) for w in enumerate_words(a.base, a.initial_node, max_len)]
            words = [(w, n, "".join(labels[e] for e in w.edges)) for w, n in words if n]
            texts = [text for _, _, text in words]
            out = ""
            for w, n, text in words:
                if texts.count(text) > 1:
                    text = f"{text}({','.join(w.edges)})"
                out += f"{text}\t{n}\n" if count else f"{text}\n"
            return out, words

        def relabelled(a, rng):
            # multi-character labels, distinct per node pair, and every state
            # final, so that more words are accepted and their texts can collide
            pairs: dict = {}
            for e in a.base.edges:
                pairs.setdefault((e.src, e.dst), []).append(e)
            label = {e.id: lbl for group in pairs.values()
                     for e, lbl in zip(group, rng.sample(["a", "aa", "ba"], len(group)))}
            base = BaseGraph(a.base.nodes, [(e.id, label[e.id], e.src, e.dst) for e in a.base.edges])
            return SpanAutomaton(base, a.fibers, a.transitions, a.initial,
                                 {q for fiber in a.fibers.values() for q in fiber})

        rng = random.Random(10)
        cases = []
        for i in range(40):
            a = random_live_span_automaton(rng, max_nodes=3, max_states=3)
            while len(a.base.nodes) < 2:
                a = random_live_span_automaton(rng, max_nodes=3, max_states=3)
            # genlib labels the k-th edge of every node pair alike, so labels repeat across pairs
            cases.append((relabelled(a, rng), rng.randint(2, 4)) if i % 2 else (a, rng.randint(0, 4)))
        a = cases[0][0]
        cases.append((SpanAutomaton(a.base, a.fibers, a.transitions, a.initial, set()), 4))
        # the words e1.e1 and e2 both read aa
        q, r = FinSet("Q", ["1"]), FinSet("R", ["2"])
        base = BaseGraph(["n", "m"], [("e1", "a", "n", "n"), ("e2", "aa", "n", "m")])
        spans = {"e1": Span(q, q, [Token("u", "1", "1")]), "e2": Span(q, r, [Token("v", "1", "2"), Token("w", "1", "2")])}
        cases.append((SpanAutomaton(base, {"n": q, "m": r}, spans, "1", {"1", "2"}), 3))

        seen = set()
        for i, (a, max_len) in enumerate(cases):
            path = tmp_path / f"lang{i}.json"
            path.write_text(serialize_automaton(a))
            for flags in ((), ("--count",)):
                want, words = expected(a, max_len, bool(flags))
                got = self.run("lang", str(path), "--max-len", str(max_len), *flags, capsys=capsys)
                assert got == (0, want, "")
            if not words:
                seen.add("none accepted")
            for w, _, text in words:
                if not w.edges:
                    seen.add("empty word")
                for v, _, other in words:
                    if v != w and other == text:
                        seen.add("concatenation" if len(v) != len(w) else "repeated label")
        assert seen == {"none accepted", "empty word", "repeated label", "concatenation"}

    def test_det_then_lang_agrees(self, fixtures_dir, tmp_path, capsys):
        code, det_doc, _ = self.run("det", str(fixtures_dir / "two_phase.json"), capsys=capsys)
        assert code == 0
        det_path = tmp_path / "det.json"
        det_path.write_text(det_doc)
        code, det_lang, _ = self.run("lang", str(det_path), "--max-len", "4", capsys=capsys)
        assert code == 0
        code, orig_lang, _ = self.run(
            "lang", str(fixtures_dir / "two_phase.json"), "--max-len", "4", capsys=capsys
        )
        assert code == 0
        assert det_lang == orig_lang

    def test_classical(self, fixtures_dir, capsys):
        code, out, _ = self.run("classical", str(fixtures_dir / "two_state_nfa.json"), capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "det"
        assert doc["fibers"]["s"] == ["{}", "{1}", "{2}", "{1,2}"]

    def test_classical_refused_past_the_work_bound(self, tmp_path, capsys):
        # 2**20 subsets times 2 letters is past the bound of 1,000,000; refused before any subset is listed
        import time

        states = [f"q{i:02d}" for i in range(20)]
        doc = {
            "format_version": "1", "kind": "classical-nfa", "alphabet": ["a", "b"], "states": states,
            "delta": [{"from": q, "letter": "a", "to": [t]} for q, t in zip(states, states[1:])],
            "initial": "q00", "finals": ["q19"],
        }
        path = tmp_path / "wide_nfa.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = self.run("classical", str(path), capsys=capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"input-error: classical subset construction would take {2**21} subset steps, more than 1000000\n"

    def test_classical_rejects_fibered_documents(self, fixtures_dir, capsys):
        code, _, err = self.run("classical", str(fixtures_dir / "two_state.json"), capsys=capsys)
        assert code == 2 and err.startswith("input-error:")

    def test_mdet_expand(self, fixtures_dir, capsys):
        code, out, _ = self.run(
            "mdet", str(fixtures_dir / "two_state.json"), "--expand", "--max-len", "8",
            "--max-states", "64", capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "mdet-expanded"
        assert doc["truncated"] is False
        assert {s["label"] for s in doc["states"]} == {"(1,0)", "(1,1)", "(0,1)", "(0,0)", "(0,2)"}

    def test_mdet_on_rel_and_det_documents_matches_span_embedding(self, tmp_path, capsys):
        import random

        from genlib import random_span_automaton, span_automaton_of_rel
        from spanauto.determinize import det, rel_of
        from spanauto.fixtures import two_phase_example

        automata = [two_state_example(), two_phase_example(), random_span_automaton(random.Random(5), max_nodes=2)]
        for i, a in enumerate(automata):
            r, d = rel_of(a), det(a, prune=True)
            for name, doc, embedding in (
                ("rel", r, span_automaton_of_rel(r)),
                ("det", d, span_automaton_of_rel(rel_of(d))),
            ):
                path, span_path = tmp_path / f"{i}_{name}.json", tmp_path / f"{i}_{name}_span.json"
                path.write_text(serialize_automaton(doc))
                span_path.write_text(serialize_automaton(embedding))
                for flags in ((), ("--expand",), ("--expand", "--max-len", "3", "--max-states", "5")):
                    got = self.run("mdet", str(path), *flags, capsys=capsys)
                    want = self.run("mdet", str(span_path), *flags, capsys=capsys)
                    assert got == want and got[0] == 0 and got[1]

    def test_sim_check_pass_and_fail(self, fixtures_dir, tmp_path, capsys):
        span_doc = json.loads((fixtures_dir / "two_state.json").read_text())
        good = {
            "format_version": "1",
            "kind": "simulation",
            "source": span_doc,
            "target": span_doc,
            "strength": "pseudo",
            "components": {"s": [{"from": "1", "to": "1"}, {"from": "2", "to": "2"}]},
        }
        bad = dict(good)
        bad["components"] = {"s": [{"from": "1", "to": "2"}, {"from": "2", "to": "1"}]}
        good_path, bad_path = tmp_path / "good.json", tmp_path / "bad.json"
        good_path.write_text(json.dumps(good))
        bad_path.write_text(json.dumps(bad))
        code, _, _ = self.run("sim-check", str(good_path), "--mode", "pseudo", capsys=capsys)
        assert code == 0
        code, _, err = self.run("sim-check", str(bad_path), "--mode", "pseudo", capsys=capsys)
        assert code == 1
        assert err.splitlines()[-1].startswith("check-failed:")
        assert "'a'" in err

    def test_sim_check_strict_on_span_endpoints(self, fixtures_dir, tmp_path, capsys):
        from spanauto.io import serialize_simulation
        from spanauto.simulation import canonical_det_simulation

        # the membership simulation is natural at the relation level, not with counts
        path = tmp_path / "membership.json"
        path.write_text(serialize_simulation(canonical_det_simulation(two_state_example())))
        assert self.run("sim-check", str(path), "--mode", "strict", capsys=capsys) == (0, "", "")
        code, _, err = self.run("sim-check", str(path), "--mode", "pseudo", capsys=capsys)
        assert code == 1 and err.splitlines()[-1].startswith("check-failed:")
        span_doc = json.loads((fixtures_dir / "two_state.json").read_text())
        swapped = {
            "format_version": "1", "kind": "simulation", "source": span_doc, "target": span_doc,
            "strength": "strict", "components": {"s": [{"from": "1", "to": "2"}, {"from": "2", "to": "1"}]},
        }
        path.write_text(json.dumps(swapped))
        code, _, err = self.run("sim-check", str(path), "--mode", "strict", capsys=capsys)
        assert code == 1
        assert err.splitlines() == [
            "square at edge 'a' differs: lhs-only [('2', '1'), ('2', '2')], rhs-only [('1', '1'), ('1', '2')]",
            "check-failed: naturality fails at edge 'a'",
        ]

    def test_relative_endpoints_resolve_against_the_document(self, fixtures_dir, tmp_path, capsys,
                                                              monkeypatch):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "two_state.json").write_text((fixtures_dir / "two_state.json").read_text())
        sim_doc = {
            "format_version": "1", "kind": "simulation", "source": "two_state.json", "target": "two_state.json",
            "strength": "pseudo", "components": {"s": [{"from": "1", "to": "1"}, {"from": "2", "to": "2"}]},
        }
        (docs / "sim.json").write_text(json.dumps(sim_doc))
        # from another directory, where a path read against the working directory is missing
        monkeypatch.chdir(tmp_path)
        assert self.run("sim-check", "docs/sim.json", "--mode", "pseudo", capsys=capsys) == (0, "", "")
        (docs / "two_state.json").unlink()
        code, out, err = self.run("sim-check", "docs/sim.json", "--mode", "pseudo", capsys=capsys)
        assert (code, out) == (2, "") and err.startswith("input-error:") and "two_state.json" in err

    def test_factor(self, fixtures_dir, tmp_path, capsys):
        span_doc = json.loads((fixtures_dir / "two_state.json").read_text())
        det_code, det_doc, _ = self.run("det", str(fixtures_dir / "two_state.json"), capsys=capsys)
        assert det_code == 0
        det_json = json.loads(det_doc)
        components = []
        for lbl in det_json["fibers"]["s"]:
            for q in ("1", "2"):
                if q in lbl.strip("{}").split(","):
                    components.append({"from": lbl, "to": q})
        sim = {
            "format_version": "1",
            "kind": "simulation",
            "source": span_doc,
            "target": det_json,
            "strength": "lax",
            "components": {"s": components},
        }
        sim_path = tmp_path / "sim.json"
        sim_path.write_text(json.dumps(sim))
        code, out, _ = self.run("factor", str(sim_path), "--target", "det", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["composite_ok"] and doc["bisim_ok"]

    def test_factor_unique_ok_gate(self, tmp_path, capsys):
        # one loop e: 1 -> 1, 1 -> 2, 2 -> 2; count vectors (1, k) grow with the word length
        base = {"nodes": ["n"], "edges": [{"id": "e", "label": "e", "src": "n", "dst": "n"}]}
        source = {
            "format_version": "1", "kind": "span", "base": base, "fibers": {"n": ["1", "2"]},
            "transitions": {"e": [{"from": "1", "to": "1"}, {"from": "1", "to": "2"}, {"from": "2", "to": "2"}]},
            "initial": "1", "finals": ["2"],
        }

        def factor(states, components, strength, *flags):
            target = {
                "format_version": "1", "kind": "det", "base": base, "fibers": {"n": states},
                "transitions": {"e": [{"from": x, "to": x} for x in states]},
                "initial": states[0], "finals": [],
            }
            doc = {
                "format_version": "1", "kind": "simulation", "source": source, "target": target,
                "strength": strength, "components": {"n": components},
            }
            path = tmp_path / "sim.json"
            path.write_text(json.dumps(doc))
            code, out, _ = self.run("factor", str(path), *flags, capsys=capsys)
            result = json.loads(out)
            assert code == (0 if result["composite_ok"] and result["bisim_ok"] else 1)
            return result["unique_ok"]

        # det: at most two states per fiber and two edges
        closed = [{"from": "x", "to": "2"}, {"from": "y", "to": "1"}, {"from": "y", "to": "2"}]
        assert isinstance(factor(["x", "y"], closed, "strict", "--target", "det"), bool)
        assert factor(["x", "y", "z"], closed, "strict", "--target", "det") is None
        # mdet: at most 4096 functions; the expansion has max_len + 4 states and the target three
        rows = [{"from": "x", "to": "2"}, {"from": "z", "to": "2", "count": 2}]
        assert isinstance(factor(["x", "y", "z"], rows, "pseudo", "--target", "mdet", "--max-len", "12"), bool)
        assert factor(["x", "y", "z"], rows, "pseudo", "--target", "mdet", "--max-len", "13") is None

    def test_bad_arguments_end_in_one_input_error_line(self, fixtures_dir, capsys):
        doc = str(fixtures_dir / "two_state.json")
        # argparse words some of these messages differently across Python versions
        cases = [
            (["lang", doc], "input-error: spanauto lang: the following arguments are required: --max-len\n"),
            (["lang", doc, "--max-len", "x"], "spanauto lang: argument --max-len: invalid int value: 'x'"),
            (["lang", doc, "--max-len", "2", "--bogus"], "unrecognized arguments: --bogus"),
            (["bogus"], "invalid choice: 'bogus'"),
            ([], "spanauto: the following arguments are required: command"),
        ]
        for argv, fragment in cases:
            code, out, err = self.run(*argv, capsys=capsys)
            assert (code, out) == (2, "")
            assert err.startswith("input-error: spanauto") and err.endswith("\n") and err.count("\n") == 1
            assert fragment in err

    def test_help_still_exits_zero(self, capsys):
        for argv in (["--help"], ["lang", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            out, err = capsys.readouterr()
            assert exc.value.code == 0 and err == ""
            assert out.startswith("usage: spanauto")

    def test_help_prints_the_exit_contract_as_written(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "``" not in out
        assert any("check-failed:" in line for line in out.splitlines())
        for argv in (["mdet", "--help"], ["factor", "--help"]):
            with pytest.raises(SystemExit):
                main(argv)
            assert "--max-len L " in capsys.readouterr().out

    def test_argv_contract_matches_the_top_level_parse(self, fixtures_dir, capsys):
        # main parses with the named command's subparser; the top-level parse is the yardstick,
        # which keeps this test free of how each Python version words argparse's messages
        from spanauto.cli import build_parser

        def top_level(argv):
            try:
                build_parser().parse_args(argv)
            except ValueError as exc:
                return f"input-error: {exc}\n"
            raise AssertionError(f"{argv} parsed")

        doc = str(fixtures_dir / "two_state.json")
        cases = [
            [],
            ["bogus"],
            ["--bogus"],
            ["det"],
            ["det", doc, "extra"],
            ["det", doc, "--prune", "extra", "--more"],
            ["det", doc, "--bogus"],
            ["det", "--", doc, "extra"],
            ["lang", doc],
            ["lang", doc, "--max-len", "x"],
            ["lang", doc, "--max-len"],
            ["mdet", doc, "--expand", "--max-states", "x"],
            ["sim-check", doc],
            ["factor", doc, "--target", "nope"],
            ["laws", "--seed", "1", doc],
        ]
        for argv in cases:
            code, out, err = self.run(*argv, capsys=capsys)
            assert (code, out, err) == (2, "", top_level(argv)), argv
        for argv in (["--help"], ["lang", "--help"], ["det", doc, "--help"]):
            outs = []
            for parse in (main, build_parser().parse_args):
                with pytest.raises(SystemExit) as exc:
                    parse(argv)
                out, err = capsys.readouterr()
                assert exc.value.code == 0 and err == ""
                outs.append(out)
            assert outs[0] == outs[1] and outs[0].startswith("usage: spanauto")

    def test_parser_reuse_matches_fresh_processes(self, fixtures_dir, capsys):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import spanauto

        env = {**os.environ, "PYTHONPATH": str(Path(spanauto.__file__).parents[1])}
        calls = [
            ("lang", str(fixtures_dir / "two_state.json"), "--max-len", "-1x"),
            ("lang", str(fixtures_dir / "two_state.json"), "--max-len", "3", "--count"),
            ("det", str(fixtures_dir / "two_state.json"), "--prune"),
        ]
        codes = []
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, _ = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "spanauto.cli", *argv], env=env,
                                   capture_output=True, text=True, timeout=60)
            assert (code, out) == (fresh.returncode, fresh.stdout)
            codes.append(code)
        assert codes == [2, 0, 0]

    def test_law_instances_depend_only_on_their_arguments(self, monkeypatch):
        import random

        from lawlib import LAWS, random_finset, run_law

        drawn = []

        def probe(rng, size):
            drawn.append(random_finset(rng, size).elements)
            return None

        monkeypatch.setitem(LAWS, "probe", probe)
        run_law("probe", seed=3, cases=4)
        first, drawn[:] = list(drawn), []
        random_finset(random.Random(0))
        run_law("probe", seed=3, cases=4)
        assert drawn == first
        assert run_law("span-associativity", 3, 20) == run_law("span-associativity", 3, 20)

    def test_lang_negative_length_rejected(self, fixtures_dir, capsys):
        # every bound is checked when argv is parsed, whether or not the command would use it
        span, det_sim, mdet_sim = (str(fixtures_dir / f"{name}.json")
                                   for name in ("two_state", "sim_identity_det", "sim_canonical_mdet"))
        cases = [
            (["lang", span, "--max-len", "-1"], "--max-len: must be at least 0, got -1"),
            (["mdet", span, "--max-len", "-5", "--max-states", "0"], "--max-len: must be at least 0, got -5"),
            (["mdet", span, "--max-states", "0"], "--max-states: must be at least 1, got 0"),
            (["mdet", span, "--expand", "--max-len", "-5"], "--max-len: must be at least 0, got -5"),
            (["mdet", span, "--expand", "--max-states", "0"], "--max-states: must be at least 1, got 0"),
            (["factor", det_sim, "--target", "det", "--max-len", "-5"], "--max-len: must be at least 0, got -5"),
            (["factor", mdet_sim, "--target", "mdet", "--max-len", "-1"], "--max-len: must be at least 0, got -1"),
        ]
        for argv, fragment in cases:
            code, out, err = self.run(*argv, capsys=capsys)
            assert (code, out) == (2, ""), argv
            assert err.startswith("input-error:") and len(err.splitlines()) == 1 and fragment in err, argv
        # the least value of each bound is accepted
        for argv in (["lang", span, "--max-len", "0"], ["mdet", span, "--expand", "--max-len", "0", "--max-states", "1"]):
            assert self.run(*argv, capsys=capsys)[0] == 0, argv

    def test_boolean_counts_rejected(self, fixtures_dir, tmp_path, capsys):
        span_doc = json.loads((fixtures_dir / "two_state.json").read_text())
        bad_span = json.loads((fixtures_dir / "two_state.json").read_text())
        bad_span["transitions"]["a"][0]["count"] = True
        sim = {
            "format_version": "1",
            "kind": "simulation",
            "source": span_doc,
            "target": span_doc,
            "strength": "pseudo",
            "components": {"s": [{"from": "1", "to": "1", "count": True}, {"from": "2", "to": "2"}]},
        }
        span_path, sim_path = tmp_path / "span.json", tmp_path / "sim.json"
        span_path.write_text(json.dumps(bad_span))
        sim_path.write_text(json.dumps(sim))
        for argv in (("lang", str(span_path), "--max-len", "1"), ("sim-check", str(sim_path), "--mode", "pseudo")):
            code, _, err = self.run(*argv, capsys=capsys)
            assert code == 2
            assert err.startswith("input-error:") and "count must be a positive integer" in err

    def test_duplicate_pairs_rejected_at_their_entry(self, fixtures_dir, tmp_path, capsys):
        span_doc = json.loads((fixtures_dir / "two_state.json").read_text())
        doubled = json.loads((fixtures_dir / "two_state.json").read_text())
        doubled["transitions"]["a"].append({"from": "1", "to": "2", "count": 2})
        span_path = tmp_path / "span.json"
        span_path.write_text(json.dumps(doubled))
        code, out, err = self.run("validate", str(span_path), capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "input-error: transitions.a[2]: duplicate pair ('1', '2')\n"
        for strength in ("pseudo", "lax"):
            sim = {
                "format_version": "1", "kind": "simulation", "source": span_doc, "target": span_doc,
                "strength": strength,
                "components": {"s": [{"from": "1", "to": "1"}, {"from": "2", "to": "2"}, {"from": "1", "to": "1"}]},
            }
            sim_path = tmp_path / f"{strength}.json"
            sim_path.write_text(json.dumps(sim))
            code, out, err = self.run("sim-check", str(sim_path), "--mode", strength, capsys=capsys)
            assert (code, out) == (2, "")
            assert err == "input-error: components.s[2]: duplicate pair ('1', '1')\n"

    @staticmethod
    def _to_rel(doc):
        doc["kind"] = "rel"
        for entries in doc["transitions"].values():
            for entry in entries:
                del entry["count"]

    @pytest.mark.parametrize("change, line", [
        (lambda d: d["transitions"]["a"].append(5),
         "transitions.a[2]: expected an object"),
        # an unhashable state is reported, not looked up
        (lambda d: d["transitions"]["a"].append({"from": ["1"], "to": "2"}),
         "transitions.a[2].from: unknown state ['1'] in fiber 's'"),
        (lambda d: d["transitions"]["a"].append({"from": "2", "to": "9"}),
         "transitions.a[2].to: unknown state '9' in fiber 's'"),
        (lambda d: d["transitions"]["a"].append({"from": "2", "to": "1", "count": True}),
         "transitions.a[2].count: count must be a positive integer, got True"),
        (lambda d: (TestCli._to_rel(d), d["transitions"]["a"].append({"from": "2", "to": "1", "count": 1})),
         "transitions.a[2].count: counts are only valid in span documents"),
        (lambda d: d["transitions"]["a"].append({"from": "2", "to": "1", "weight": 2}),
         "transitions.a[2]: unknown keys ['weight']"),
        (lambda d: d["transitions"]["a"].append({"from": "2", "to": "1", "count": 1, "weight": 2}),
         "transitions.a[2]: unknown keys ['weight']"),
        (lambda d: d["transitions"]["a"].append({"from": "2", "to": "1", "count": 0, "weight": 2}),
         "transitions.a[2].count: count must be a positive integer, got 0"),
        (lambda d: d["transitions"]["a"].append({"from": "2", "to": "1", "count": None}),
         "transitions.a[2].count: count must be a positive integer, got None"),
        (lambda d: d["transitions"]["a"].append({"from": "2", "to": "1", "count": 2.0}),
         "transitions.a[2].count: count must be a positive integer, got 2.0"),
        (lambda d: (TestCli._to_rel(d), d["transitions"]["a"].append({"from": "2", "to": "1", "count": None})),
         "transitions.a[2].count: counts are only valid in span documents"),
        # the first bad entry wins, even when a later one is malformed too
        (lambda d: d["transitions"]["a"].extend([{"from": "1", "to": "1"}, {"from": "2", "to": "9"}]),
         "transitions.a[2]: duplicate pair ('1', '1')"),
    ])
    def test_entry_errors_in_order(self, change, line, fixtures_dir, tmp_path, capsys):
        doc = json.loads((fixtures_dir / "two_state.json").read_text())
        change(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert self.run("validate", str(path), capsys=capsys) == (2, "", f"input-error: {line}\n")

    def test_huge_counts_build_no_tokens(self, tmp_path, capsys, monkeypatch):
        # a count costs O(1): no command here may build one token per unit of it
        def no_tokens(cls, *args, **kwargs):
            raise AssertionError("a token was built")

        monkeypatch.setattr(Token, "__new__", no_tokens)
        huge = 10**18
        doc = {
            "format_version": "1", "kind": "span",
            "base": {"nodes": ["n"], "edges": [{"id": "e", "label": "e", "src": "n", "dst": "n"}]},
            "fibers": {"n": ["1", "2"]},
            "transitions": {"e": [{"from": "1", "to": "2", "count": huge}]},
            "initial": "1", "finals": ["2"],
        }
        sim = {
            "format_version": "1", "kind": "simulation", "source": doc, "target": doc, "strength": "pseudo",
            "components": {"n": [{"from": "1", "to": "1", "count": huge}, {"from": "2", "to": "2", "count": huge}]},
        }
        path, sim_path = tmp_path / "huge.json", tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        sim_path.write_text(json.dumps(sim))
        assert self.run("validate", str(path), capsys=capsys) == (0, "", "")
        assert self.run("lang", str(path), "--max-len", "1", "--count", capsys=capsys) == (0, f"e\t{huge}\n", "")
        code, out, _ = self.run("det", str(path), capsys=capsys)
        assert code == 0 and json.loads(out)["transitions"]["e"][1] == {"from": "{1}", "to": "{2}"}
        code, out, _ = self.run("mdet", str(path), capsys=capsys)
        assert code == 0 and json.loads(out)["matrices"]["e"] == [[0, huge], [0, 0]]
        code, out, _ = self.run("mdet", str(path), "--expand", capsys=capsys)
        states = [s["counts"] for s in json.loads(out)["states"]]
        assert code == 0 and states == [[1, 0], [0, huge], [0, 0]]
        for mode in ("pseudo", "lax"):
            assert self.run("sim-check", str(sim_path), "--mode", mode, capsys=capsys) == (0, "", "")

    def test_deeply_nested_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = self.run("det", str(path), capsys=capsys)
        assert code == 2 and out == ""
        assert err.startswith("input-error:") and len(err.splitlines()) == 1
        assert "nesting too deep" in err

    def test_unknown_top_level_keys_rejected(self, fixtures_dir, golden_dir, tmp_path, capsys):
        span_doc = json.loads((fixtures_dir / "two_state.json").read_text())
        docs = {
            "span": span_doc,
            "det": json.loads((golden_dir / "det_two_state.json").read_text()),
            "classical": json.loads((fixtures_dir / "two_state_nfa.json").read_text()),
            "sim": {
                "format_version": "1",
                "kind": "simulation",
                "source": span_doc,
                "target": span_doc,
                "strength": "pseudo",
                "components": {"s": [{"from": "1", "to": "1"}, {"from": "2", "to": "2"}]},
            },
        }
        for name, doc in docs.items():
            doc = dict(doc, bogus=1)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            argv = ("sim-check", str(path), "--mode", "pseudo") if name == "sim" else ("validate", str(path))
            code, _, err = self.run(*argv, capsys=capsys)
            assert code == 2
            assert err.startswith("input-error:") and len(err.splitlines()) == 1
            assert "'bogus'" in err

    def test_document_level_error_has_no_empty_path(self, fixtures_dir, tmp_path, capsys):
        doc = dict(json.loads((fixtures_dir / "two_state.json").read_text()), bogus=1)
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps(doc))
        code, _, err = self.run("validate", str(path), capsys=capsys)
        assert code == 2
        assert err == "input-error: unknown keys ['bogus']\n"
        path.write_text("{")
        code, _, err = self.run("validate", str(path), capsys=capsys)
        assert code == 2 and err.startswith("input-error: invalid JSON: ")

    def test_dot_cli(self, fixtures_dir, capsys):
        code, out, _ = self.run("dot", str(fixtures_dir / "two_phase.json"), capsys=capsys)
        assert code == 0
        assert out.startswith("digraph {")

    def test_dot_on_rel_det_and_classical_documents(self, fixtures_dir, tmp_path, capsys):
        from spanauto.determinize import det, rel_of

        a = two_state_example()
        span_dot = self.run("dot", str(fixtures_dir / "two_state.json"), capsys=capsys)
        assert span_dot[0] == 0 and span_dot[1].startswith("digraph {")
        # the NFA fixture is the span fixture read over the one-node base; it has
        # one token per pair, which the relation draws in sorted pair order
        assert self.run("dot", str(fixtures_dir / "two_state_nfa.json"), capsys=capsys) == span_dot
        rel_path, det_path = tmp_path / "rel.json", tmp_path / "det.json"
        rel_path.write_text(serialize_automaton(rel_of(a)))
        assert self.run("dot", str(rel_path), capsys=capsys) == span_dot
        d = det(a)
        det_path.write_text(serialize_automaton(d))
        code, out, err = self.run("dot", str(det_path), capsys=capsys)
        assert (code, err) == (0, "")
        edges = [line for line in out.splitlines() if "[label=" in line]
        assert edges == [
            f'  "{q}" -> "{d.transitions[e.id][q]}" [label="{e.label}"];' for e in d.base.edges for q in d.fibers[e.src]
        ]

    def test_dot_with_colliding_token_labels(self, tmp_path, capsys):
        # both entries would be token e:a>b>c#1; dot draws edges from the counts
        doc = {
            "format_version": "1", "kind": "span",
            "base": {"nodes": ["n"], "edges": [{"id": "e", "label": "e", "src": "n", "dst": "n"}]},
            "fibers": {"n": ["a>b", "c", "a", "b>c"]},
            "transitions": {"e": [{"from": "a>b", "to": "c", "count": 2}, {"from": "a", "to": "b>c"}]},
            "initial": "a", "finals": ["c"],
        }
        path = tmp_path / "collide.json"
        path.write_text(json.dumps(doc))
        code, out, err = self.run("dot", str(path), capsys=capsys)
        assert (code, err) == (0, "")
        edges = [line for line in out.splitlines() if '[label="e"]' in line]
        assert edges == ['  "a>b" -> "c" [label="e"];'] * 2 + ['  "a" -> "b>c" [label="e"];']

    def test_dot_refuses_huge_counts_before_drawing(self, tmp_path, capsys):
        # one edge line per unit of count would never finish at 10**18
        doc = {
            "format_version": "1", "kind": "span",
            "base": {"nodes": ["n"], "edges": [{"id": "e", "label": "e", "src": "n", "dst": "n"}]},
            "fibers": {"n": ["1"]},
            "transitions": {"e": [{"from": "1", "to": "1", "count": 10**18}]},
            "initial": "1", "finals": ["1"],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = self.run("dot", str(path), capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith("input-error:") and len(err.splitlines()) == 1

    def test_full_det_refused_before_listing_subsets(self, tmp_path, capsys):
        # 2**20 subsets of the one fiber times one out-edge is past the bound of 1,000,000
        import time

        states = [f"q{i:02d}" for i in range(20)]
        doc = {
            "format_version": "1", "kind": "span",
            "base": {"nodes": ["n"], "edges": [{"id": "e", "label": "e", "src": "n", "dst": "n"}]},
            "fibers": {"n": states},
            "transitions": {"e": [{"from": q, "to": t} for q, t in zip(states, states[1:])]},
            "initial": "q00", "finals": ["q19"],
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = self.run("det", str(path), capsys=capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"input-error: full det would take {2**20} subset steps, more than 1000000\n"
        code, out, err = self.run("det", str(path), "--prune", capsys=capsys)
        assert (code, err) == (0, "") and len(json.loads(out)["fibers"]["n"]) == 21

    def test_factor_det_decides_on_images_past_the_full_det_bound(self, tmp_path, capsys):
        # det of the 20-state chain would take 2**20 subset steps, but factor steps only the
        # 21 images; the mate is no bisimulation, since {q18,q19} is no image and steps to {q19}
        import time

        from genlib import chain_into_singletons

        path = tmp_path / "chain.json"
        path.write_text(serialize_simulation(chain_into_singletons(20)))
        start = time.perf_counter()
        code, out, err = self.run("factor", str(path), "--target", "det", capsys=capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (1, "check-failed: factorization does not satisfy the universal property\n")
        result = json.loads(out)
        assert (result["composite_ok"], result["bisim_ok"], result["unique_ok"]) == (True, False, None)
        assert len(result["mate_components"]["n"]) == 21

    def test_factor_refused_past_the_work_bound_in_its_own_words(self, tmp_path, capsys, monkeypatch):
        # the chain's closure reaches its 21 images; past the work bound factor names itself, and a
        # non-natural alpha is refused as such before the bound is met
        from genlib import chain_into_singletons
        from spanauto import determinize

        sim = chain_into_singletons(20)
        path, bent = tmp_path / "chain.json", tmp_path / "bent.json"
        path.write_text(serialize_simulation(sim))
        doc = json.loads(serialize_simulation(sim))
        doc["components"]["n"].append({"from": "x00", "to": "q05"})
        bent.write_text(json.dumps(doc))
        monkeypatch.setattr(determinize, "_WORK_BOUND", 5)
        assert self.run("factor", str(path), "--target", "det", capsys=capsys) == (
            2, "", "input-error: factor would take more than 5 subset steps\n")
        code, out, err = self.run("factor", str(bent), "--target", "det", capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith("input-error: alpha is not natural at the relation level: square at edge 'e' differs: ")

    def test_endpoints_on_different_bases_rejected(self, fixtures_dir, tmp_path, capsys):
        # the node sets differ, so no component can be read against the target's fibers
        doc = {
            "format_version": "1", "kind": "simulation",
            "source": str(fixtures_dir / "two_state.json"), "target": str(fixtures_dir / "two_phase.json"),
            "strength": "pseudo", "components": {"s": [{"from": "1", "to": "1"}]},
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        for argv in (("sim-check", "--mode", "pseudo"), ("factor", "--target", "det"), ("factor", "--target", "mdet")):
            code, out, err = self.run(argv[0], str(path), *argv[1:], capsys=capsys)
            assert (code, out) == (2, "")
            assert err == "input-error: target: simulation endpoints must share the base graph\n"

    def test_count_vector_commands_build_no_multisets(self, fixtures_dir, golden_dir, tmp_path, capsys,
                                                      monkeypatch):
        # an expanded state is its count vector from mdet_expand to the written document
        from spanauto.determinize import mdet_expand
        from spanauto.io import serialize_simulation
        from spanauto.simulation import multiplicity_span
        from spanauto.spans import Multiset

        sims = {}
        for name in ("two_state", "two_phase"):
            a = parse_automaton((fixtures_dir / f"{name}.json").read_text())
            exp = mdet_expand(a, 64, 8)
            components = {n: multiplicity_span(exp, n, a.fibers[n]) for n in a.base.nodes}
            sims[name] = tmp_path / f"{name}_sim.json"
            sims[name].write_text(serialize_simulation(Simulation(a, exp.as_det_automaton(), components, "pseudo")))

        def no_multisets(*args, **kwargs):
            raise AssertionError("a Multiset was built")

        monkeypatch.setattr(Multiset, "__init__", no_multisets)
        monkeypatch.setattr(Multiset, "_trusted", classmethod(no_multisets))
        for name in ("two_state", "two_phase"):
            code, out, _ = self.run(
                "mdet", str(fixtures_dir / f"{name}.json"), "--expand", "--max-states", "6", "--max-len", "3",
                capsys=capsys,
            )
            assert code == 0 and out == (golden_dir / f"mdet_expand_{name}.json").read_text()
            code, out, err = self.run("factor", str(sims[name]), "--target", "mdet", capsys=capsys)
            result = json.loads(out)
            assert (code, err) == (0, "") and result["composite_ok"] and result["bisim_ok"]
