"""Tests for document parsing, serialization, DOT output and the CLI."""

import json

import pytest

from spanauto.automata import SpanAutomaton
from spanauto.cli import main
from spanauto.determinize import ClassicalNFA
from spanauto.fixtures import two_state_example
from spanauto.io import (
    DocumentError,
    parse_automaton,
    parse_simulation,
    serialize_automaton,
    to_dot,
)


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
        from spanauto.determinize import det_span, rel_of

        a = two_state_example()
        for obj in (rel_of(a), det_span(a)):
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


class TestCli:
    def run(self, *argv, capsys=None):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    def test_validate_ok(self, fixtures_dir, capsys):
        code, _, err = self.run("validate", str(fixtures_dir / "two_state.json"), capsys=capsys)
        assert code == 0 and err == ""

    def test_validate_missing_file(self, capsys):
        code, _, err = self.run("validate", "no-such-file.json", capsys=capsys)
        assert code == 2
        assert err.startswith("input-error:")

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

    def test_lang_count_golden(self, fixtures_dir, golden_dir, capsys):
        for name in ("two_state", "two_phase"):
            code, out, _ = self.run(
                "lang", str(fixtures_dir / f"{name}.json"), "--max-len", "4", "--count", capsys=capsys
            )
            assert code == 0
            assert out == (golden_dir / f"lang_count_{name}.txt").read_text()

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

    def test_laws_cli(self, capsys):
        code, out, _ = self.run("laws", "--seed", "0", "--cases", "10", capsys=capsys)
        assert code == 0
        assert "passed" in out

    def test_laws_negative_cases_rejected(self, capsys):
        code, out, err = self.run("laws", "--cases", "-3", capsys=capsys)
        assert code == 2 and out == ""
        assert err.startswith("input-error:") and len(err.splitlines()) == 1

    def test_lang_negative_length_rejected(self, fixtures_dir, capsys):
        code, out, err = self.run("lang", str(fixtures_dir / "two_state.json"), "--max-len", "-1", capsys=capsys)
        assert code == 2 and out == ""
        assert err.startswith("input-error:") and len(err.splitlines()) == 1

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

    def test_dot_cli(self, fixtures_dir, capsys):
        code, out, _ = self.run("dot", str(fixtures_dir / "two_phase.json"), capsys=capsys)
        assert code == 0
        assert out.startswith("digraph {")
