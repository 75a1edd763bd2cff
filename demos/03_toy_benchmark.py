"""The three methods head to head on the fan-of-lines problem.

Nine lines through the origin in R^3, nearly parallel (r = 0.05), unique
feasible point at the origin.  The fixed cyclic order only ever hops
between neighbouring lines, which barely moves; random shuffling realizes
the average achievable progress; the memory method discovers that hopping
between nearly opposite lines pays and starts replaying those transitions.

Run:  python demos/03_toy_benchmark.py
"""
import numpy as np

from memproj import residual_series, run_preset, transition_counts

ITERS = 315
report = run_preset("benchmark", seeds=range(10), iterations=ITERS)

print(f"fan of 9 lines, r=0.05, {ITERS} projections, 10 seeds\n")
print("residual (distance to the origin) at the end of the budget:")
for m in report.methods:
    res = m.residuals_at_budget()
    print(f"  {m.label:4s}  median {np.median(res):.4f}   "
          f"range [{res.min():.4f}, {res.max():.4f}]")

print("\nresidual along the run (seed 0), sampled every 45 projections:")
header = "  projections " + "".join(f"{k:>9d}" for k in range(0, ITERS + 1, 45))
print(header)
for m in report.methods:
    series = residual_series(m.traces[0], np.zeros(3))
    samples = "".join(f"{series[k]:>9.4f}" for k in range(0, ITERS + 1, 45))
    print(f"  {m.label:12s}{samples}")


def ascii_heatmap(counts):
    """Rows of the transition-count matrix as character shades."""
    shades = " .:-=+*#%@"
    peak = counts.max()
    lines = []
    for row in counts:
        lines.append("".join(
            shades[min(int(v / peak * (len(shades) - 1)), len(shades) - 1)]
            if peak else " "
            for v in row
        ))
    return lines


print("\ntransition frequencies, seed 0 (row = from set, column = to set):")
mats = {m.label: transition_counts(m.traces[0].set_indices, 9)
        for m in report.methods}
for label, counts in mats.items():
    print(f"\n  {label} (darker = more transitions)")
    for line in ascii_heatmap(counts):
        print("    " + line)

print("\nthe fixed cycle lives on one off-diagonal stripe; the shuffled")
print("method covers everything evenly; the memory method concentrates on")
print("a few profitable long-angle transitions once it has learned them.")
