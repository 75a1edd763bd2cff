"""Memory matrices, admissibility, and the floor policies.

The learning method stores one number per ordered pair of sets: a floored
record of the last projection step length on that transition.  It will only
ever use transitions whose initial entry is positive, so the positive
entries must form a strongly connected digraph ("admissible").  This script
shows the stock initial matrices, what admissibility means, and how the
floor policies rewrite recorded values.

Run:  python demos/02_memory_matrices.py
"""
import numpy as np

from memproj import (
    DistanceMatrix,
    Memory,
    Policy,
    build_banded_bidirectional,
    build_banded_forward,
    build_dense,
    evaluate_policy,
    is_admissible,
    pam_select,
    pam_update,
    unreachable_pair,
)


def show(label, matrix):
    print(f"{label}: admissible = {is_admissible(matrix)}")
    print(np.array2string(matrix.to_array(), precision=2, suppress_small=True))
    print()


n = 6
show(f"dense, {n} sets", build_dense(n))
show("forward band, width 1 (the plain cyclic order)", build_banded_forward(n, 1))
show("forward band, width 2", build_banded_forward(n, 2))
show("bidirectional band, width 1", build_banded_bidirectional(n, 1))

# a matrix that silently strands part of the problem: row 2 is all zero,
# so nothing can be reached from set 2 and the chooser would starve
a = build_dense(4).to_array()
a[2, :] = 0.0
broken = DistanceMatrix(a)
print(f"broken matrix admissible = {is_admissible(broken)}")
print(f"witness pair with no connecting chain: {unreachable_pair(broken)}")
# the chooser checks admissibility once, when it is built, and refuses it
try:
    Memory(broken, Policy("min", 0.1))
except ValueError as exc:
    print(f"Memory(broken, ...) refuses it: {exc}\n")

# policies: the floor applied when a transition is rewritten
row_demo = DistanceMatrix([
    [0.0, 2.0, 4.0, 0.0],
    [1.0, 0.0, 1.0, 1.0],
    [1.0, 1.0, 0.0, 1.0],
    [1.0, 1.0, 1.0, 0.0],
])
for kind in ("min", "average"):
    v = evaluate_policy(Policy(kind, 0.5), 0, row_demo)
    print(f"policy {kind!r}, beta=0.5, on row (0, 2, 4, 0): floor = {v}")

# a few hand-driven steps: select by row argmax, record a step, repeat
print("\nfive hand-driven memory steps (dense start, min policy):")
memory = Memory(build_dense(4, scale=1.0), Policy("min", 0.1), seed=0)
fake_steps = [0.8, 0.05, 0.3, 0.0, 0.2]
for step in fake_steps:
    j = pam_select(memory)  # the pick becomes the pending transition
    print(f"  at set {memory.current_index}: choose {j}, record step {step}")
    pam_update(memory, step)  # records it and moves to set j
print("memory after those steps (note every entry stayed positive):")
print(np.array2string(memory.matrix.to_array(), precision=3, suppress_small=True))
