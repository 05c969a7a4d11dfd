"""The counting determinization: matrices, runs and the explicit expansion.

Run with:  python3 demos/03_path_counting.py
"""

from spanauto import (
    Word,
    count_paths,
    mdet_expand,
    mdet_run,
)
from spanauto.fixtures import two_state_example

a = two_state_example()

print("Each letter becomes a counting matrix (rows = source states):")
for edge in ("a", "b"):
    print(f"  M_{edge} =", a.matrix(edge).rows())

print("\nRunning a word folds the matrices over the start vector.")
for letters in [(), ("a",), ("a", "b"), ("b", "b"), ("a", "a", "b")]:
    w = Word("s", letters)
    vec = mdet_run(a, w)
    word = "".join(letters) or "(empty)"
    print(f"  {word:8} -> {dict(vec.counts) or {} } accept count {count_paths(a, w)}")

print("\nThe counts are honest: explicit token-path enumeration agrees.")
w = Word("s", ("a", "b"))
runs = [(a.initial, ())]  # (state reached, token labels so far)
for e in w.path(a.base):
    runs = [(t.right, seq + (t.label,)) for q, seq in runs for t in a.transitions[e.id].apex if t.left == q]
for q, seq in runs:
    if q in a.finals:
        print("  run:", " then ".join(seq))
print("  count_paths:", count_paths(a, w))

print("\nThe multiset state space can be expanded breadth first:")
exp = mdet_expand(a, max_states=64, max_len=8)
print("  discovered states:", list(exp.fibers["s"]))
print("  truncated:", exp.truncated)
print("  accepting states (some run ends final):", sorted(exp.finals))
print("\nUnlike the powerset machine, (0,2) remembers there are TWO runs,")
print("which is exactly what the word 'ab' produces:", dict(mdet_run(a, w).counts))
