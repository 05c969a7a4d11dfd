"""Powerset determinization, pruning, and the classical cross-check.

Run with:  python3 demos/02_determinize.py
"""

from spanauto import (
    classical_subset_construction,
    det,
    language,
    prune_reachable,
    reachable_iso_check,
)
from spanauto.determinize import span_automaton_of_classical
from spanauto.fixtures import two_phase_example, two_state_classical, two_state_example
from spanauto.io import to_dot

a = two_state_example()
print("The two-state automaton: a steps 1->1 and 1->2, b steps 1->2 and 2->2.")
print("Its powerset machine has one state per subset of the fiber:\n")
d = det(a)
for edge in ("a", "b"):
    for src, dst in d.transitions[edge].items():
        print(f"  {src:6} --{edge}--> {dst}")
print("initial:", d.initial, " finals:", sorted(d.finals))

print("\nEvery subset is reachable here, so pruning keeps all four states:")
print("  ", list(prune_reachable(d).fibers["s"]))

print("\nThe textbook subset construction builds the same machine:")
nfa = two_state_classical()
classical = classical_subset_construction(nfa)
categorical = det(span_automaton_of_classical(nfa))
mapping = reachable_iso_check(classical, categorical)
print("  state correspondence:", mapping)

print("\nOn a two-node base the subsets never mix fibers:")
ex2 = two_phase_example()
d2 = det(ex2)
for node in d2.base.nodes:
    print(f"  over {node}:", list(d2.fibers[node]))
print("(a single global powerset would also build mixed subsets like {1,4})")

print("\nLanguages agree word for word:")
for w in language(ex2, 3):
    print("  accepted:", "".join(w.labels(ex2.base)))
print("  determinized language equal:", [w.edges for w in language(ex2, 6)] == [w.edges for w in language(d2, 6)])

print("\nGraphviz view of the original (paste into `dot -Tpng`):\n")
print(to_dot(a))
