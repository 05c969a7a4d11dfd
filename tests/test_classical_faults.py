"""The first-fault lines of a classical-nfa document.

Each case spoils ``fixtures/two_state_nfa.json`` in one way, or in two
where the first fault must win, and pins the exact ``input-error:`` line
that ``spanauto validate`` prints.  The loader reads only the JSON shape
(keys, types, the state labels, each ``delta`` entry as an object whose
``to`` is a list of strings); ``ClassicalNFA``'s constructor words every
structural fault, in document order: ``alphabet``, then ``delta`` entry
by entry, then ``initial``, then ``finals``.  So a fault of shape is named
before any fault of structure, wherever it stands in the document.
"""

import copy
import json

import pytest

from spanauto.cli import main
from spanauto.determinize import ClassicalNFA
from spanauto.io import DocumentError
from spanauto.spans import FinSet

GOOD = {
    "format_version": "1", "kind": "classical-nfa", "alphabet": ["a", "b"], "states": ["1", "2"],
    "delta": [{"from": "1", "letter": "a", "to": ["1", "2"]}, {"from": "1", "letter": "b", "to": ["2"]},
              {"from": "2", "letter": "b", "to": ["2"]}],
    "initial": "1", "finals": ["2"],
}


def spoiled(**fields):
    """GOOD with these top-level fields replaced, and ``delta_<i>`` replacing (or, at i = 3, adding) an entry."""
    doc = copy.deepcopy(GOOD)
    for key, value in fields.items():
        if key.startswith("delta_"):
            i = int(key[len("delta_"):])
            doc["delta"][i:i + 1] = [value]
        else:
            doc[key] = value
    return doc


def entry(**fields):
    """The second entry, ``1 --b--> [2]``, with these fields replaced (a ``None`` field left out)."""
    return {k: v for k, v in {**GOOD["delta"][1], **fields}.items() if v is not None}


CASES = {
    # faults of shape, named by the loader
    "non-object entry": (spoiled(delta_1=5), "delta[1]: expected an object"),
    "list entry": (spoiled(delta_1=["1", "b", ["2"]]), "delta[1]: expected an object"),
    "to not a list": (spoiled(delta_1=entry(to="2")), "delta[1].to: expected a list of strings"),
    "missing to": (spoiled(delta_1=entry(to=None)), "delta[1].to: expected a list of strings"),
    "non-string target": (spoiled(delta_1=entry(to=[2])), "delta[1].to: expected a list of strings"),
    "duplicate state label": (spoiled(states=["1", "2", "1"]), "states: duplicate state label '1'"),
    "non-string initial": (spoiled(initial=1), "initial: expected str, got int"),
    "finals not a list": (spoiled(finals="2"), "finals: expected list, got str"),
    "unknown key": (spoiled(weight=1), "unknown keys ['weight']"),
    # faults of structure, named by the constructor
    "duplicate letter": (spoiled(alphabet=["a", "b", "a"]), "alphabet: duplicate letter 'a'"),
    "unknown from": (spoiled(delta_1=entry(**{"from": "9"})), "delta[1].from: unknown state '9'"),
    "non-string from": (spoiled(delta_1=entry(**{"from": 1})), "delta[1].from: unknown state 1"),
    "unhashable from": (spoiled(delta_1=entry(**{"from": ["1"]})), "delta[1].from: unknown state ['1']"),
    "missing from": (spoiled(delta_1=entry(**{"from": None})), "delta[1].from: unknown state None"),
    "unknown letter": (spoiled(delta_1=entry(letter="c")), "delta[1].letter: unknown letter 'c'"),
    "unhashable letter": (spoiled(delta_1=entry(letter=["b"])), "delta[1].letter: unknown letter ['b']"),
    "unknown to": (spoiled(delta_1=entry(to=["2", "9"])), "delta[1].to: unknown state '9'"),
    "duplicate entry": (spoiled(delta_3=GOOD["delta"][0]), "delta[3]: duplicate entry for ('1', 'a')"),
    "duplicate empty entry": (spoiled(delta_1=entry(to=[]), delta_3=entry(to=[])),
                              "delta[3]: duplicate entry for ('1', 'b')"),
    "unknown initial": (spoiled(initial="nowhere"), "initial: unknown state 'nowhere'"),
    "unknown final": (spoiled(finals=["2", "9"]), "finals: unknown state '9'"),
    # the first fault wins: shape before structure, then alphabet, delta, initial, finals
    "unknown from, then a to not a list": (spoiled(delta_0=entry(**{"from": "9"}), delta_2=entry(to="2")),
                                           "delta[2].to: expected a list of strings"),
    "unknown from, then a non-string initial": (spoiled(delta_1=entry(**{"from": "9"}), initial=1),
                                                "initial: expected str, got int"),
    "unknown from, then a duplicate letter": (spoiled(delta_0=entry(**{"from": "9"}), alphabet=["a", "a"]),
                                              "alphabet: duplicate letter 'a'"),
    "unknown from, then an unknown letter": (spoiled(delta_1=entry(**{"from": "9"}), delta_2=entry(letter="c")),
                                             "delta[1].from: unknown state '9'"),
    "unknown from and letter": (spoiled(delta_1=entry(**{"from": "9"}, letter="c")),
                                "delta[1].from: unknown state '9'"),
    "unknown letter and to": (spoiled(delta_1=entry(letter="c", to=["9"])), "delta[1].letter: unknown letter 'c'"),
    "duplicate entry with an unknown to": (spoiled(delta_3=entry(to=["9"])), "delta[3].to: unknown state '9'"),
    "unknown to, then an unknown initial": (spoiled(delta_2=entry(to=["9"]), initial="nowhere"),
                                            "delta[2].to: unknown state '9'"),
    "unknown initial, then an unknown final": (spoiled(initial="nowhere", finals=["9"]),
                                               "initial: unknown state 'nowhere'"),
    "two unknown finals": (spoiled(finals=["9", "2", "8"]), "finals: unknown state '9'"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_first_fault_line(case, tmp_path, capsys):
    doc, line = CASES[case]
    path = tmp_path / "nfa.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"input-error: {line}\n")


def test_the_good_document_loads(tmp_path, capsys):
    path = tmp_path / "nfa.json"
    path.write_text(json.dumps(GOOD))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("args, line", [
    ((["a", "a"], {}, "1", ()), "alphabet: duplicate letter 'a'"),
    ((["a"], {("1", "a"): {"1"}, ("2", "a"): {"9"}}, "1", ()), "delta[1].to: unknown state '9'"),
    ((["a"], [(("1", "a"), ["1"]), (("1", "a"), [])], "1", ()), "delta[1]: duplicate entry for ('1', 'a')"),
    ((["a"], {}, "9", ()), "initial: unknown state '9'"),
    # finals given as a set have no order, so the least stray state is named
    ((["a"], {}, "1", {"9", "8", "1"}), "finals: unknown state '8'"),
], ids=["alphabet", "mapping entry", "pair list entry", "initial", "finals set"])
def test_the_constructor_words_each_fault_with_its_path(args, line):
    alphabet, delta, initial, finals = args
    with pytest.raises(DocumentError) as info:
        ClassicalNFA(alphabet, FinSet("Q", ["1", "2"]), delta, initial, finals)
    assert str(info.value) == line
