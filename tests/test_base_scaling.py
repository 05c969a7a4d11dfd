"""Walks over a base graph cost what they visit, not nodes times edges.

Each probe runs one walk over an n-node cycle and over an 8n-node one and
bounds the 8n time by 20 times the n time plus 0.5 s, as the loader
probes do: generous for a walk that looks each node's out-edges up, far
below what one that scans every edge per node takes at 8n.  The ``dot``
walk names every node with punctuation alone, so all its cluster ids
clean to one id and each node claims the next free suffix: far below
what retrying every suffix from ``_2`` per node takes at 8n.
"""

import re
import time

import pytest

from spanauto.automata import BaseGraph, SpanAutomaton, accepted_counts
from spanauto.determinize import det, mdet_expand
from spanauto.io import to_dot
from spanauto.spans import FinSet, NatMatrix, from_matrix

N = 1_500


def cycle(n: int, node_name=lambda i: f"n{i}") -> SpanAutomaton:
    """One state per node, and one edge from each node to the next, around a cycle of n nodes."""
    nodes = list(map(node_name, range(n)))
    base = BaseGraph(nodes, [(f"e{i}", "a", nodes[i], nodes[(i + 1) % n]) for i in range(n)])
    fibers = {v: FinSet(v, [f"q{i}"]) for i, v in enumerate(nodes)}
    spans = {e.id: from_matrix(NatMatrix(fibers[e.src], fibers[e.dst], {(f"q{i}", f"q{(i + 1) % n}"): 1}))
             for i, e in enumerate(base.edges)}
    return SpanAutomaton(base, fibers, spans, "q0", {"q0"})


# each walk, and what it finds on an n-node cycle: one subset per node, the
# empty word alone (q0 is the only final state), one count vector per node
WALKS = {
    "det --prune": (lambda a: sum(map(len, det(a, prune=True).fibers.values())), lambda n: n),
    "lang": (lambda a: len(accepted_counts(a, 2)), lambda n: 1),
    "mdet --expand": (lambda a: len(mdet_expand(a, len(a.base.nodes), len(a.base.nodes)).states), lambda n: n),
    "dot": (lambda a: len(set(re.findall(r"subgraph (\w+)", to_dot(a)))), lambda n: n),
}

PUNCTUATION = "!#$%&()*+-./:;<=>?@[]^`{|}~"


def punctuation_name(i: int) -> str:
    """The i-th name of four punctuation characters: every one cleans to the dot id ``____``."""
    digits = []
    for _ in range(4):
        i, d = divmod(i, len(PUNCTUATION))
        digits.append(PUNCTUATION[d])
    return "".join(digits)


@pytest.mark.parametrize("walk", WALKS)
def test_walk_is_linear_in_the_nodes(walk):
    run, found = WALKS[walk]

    def timed(n):
        a = cycle(n, punctuation_name) if walk == "dot" else cycle(n)
        start = time.perf_counter()
        size = run(a)
        return size, time.perf_counter() - start

    small, small_s = timed(N)
    large, large_s = timed(8 * N)
    assert (small, large) == (found(N), found(8 * N))
    assert large_s <= 20 * small_s + 0.5, (small_s, large_s)
