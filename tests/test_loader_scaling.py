"""The loader reads a document, or refuses a bad one, in time linear in its size.

Each probe builds one document at n and at 8n entries, checks that both
loads, or both refusals, say the same thing of them, and bounds the 8n
time by 20 times the n time plus 0.5 s: generous for a linear scan on a
loaded machine, and far below what a quadratic one takes at 8n.
"""

import time

import pytest

from spanauto.io import DocumentError, parse_automaton

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
