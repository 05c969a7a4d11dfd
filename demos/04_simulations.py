"""Simulations, bisimulation checking and the universal factorizations.

Run with:  python3 demos/04_simulations.py
"""

from spanauto import (
    canonical_det_simulation,
    canonical_mdet_simulation,
    check_bisimulation,
    check_span_simulation,
    dagger_simulation,
    factor_det,
)
from spanauto.fixtures import two_state_example

a = two_state_example()

print("The membership simulation relates each subset state to its members:")
sim = canonical_det_simulation(a)
for t in sim.components["s"].apex:
    print(f"  {t.left:6} contains {t.right}")

print("\nIts naturality squares hold laxly (a span morphism exists) ...")
print("  lax:", check_span_simulation(sim, "lax").ok)
result = check_span_simulation(sim, "pseudo")
print("... but not pseudo:", result.ok, "-", result.detail)
print("The b-square sends {1,2} to 2 along two runs, the powerset machine")
print("records only one; that lost count is what the multiset machine keeps:")

msim = canonical_mdet_simulation(a, max_len=4)
print("  multiplicity simulation pseudo:", check_span_simulation(msim, "pseudo").ok)

print("\nA bisimulation needs the converse to be natural too.")
print("  membership simulation is a bisimulation:", check_bisimulation(sim))
print("  its forward direction alone was fine; the dagger is what fails.")

print("\nFactoring the membership simulation through the powerset machine")
print("returns the identity bisimulation (the triangle identity):")
from spanauto.determinize import det, rel_of, subset_state_label
from spanauto.spans import Relation, image, subsets_of
from spanauto import Simulation

r = rel_of(a)
d = det(a)
comps = {
    "s": Relation(
        d.fibers["s"],
        r.fibers["s"],
        {(subset_state_label("s", s, False), q) for s in subsets_of(r.fibers["s"]) for q in s},
    )
}
alpha = Simulation(r, d, comps, "strict")
res = factor_det(alpha)
print("  composite recovered:", res.composite_ok)
print("  mate is a bisimulation:", res.bisim_ok)
print("  mate pairs:", sorted(image(res.mate.components["s"]).pairs))
print("\nThe dagger of a simulation swaps its endpoints:")
print("  dagger strength:", dagger_simulation(sim).strength)
