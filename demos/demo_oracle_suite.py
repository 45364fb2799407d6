#!/usr/bin/env python3
"""The deterministic oracle suite: every closed-form integral on its own.

Nothing here touches the simulator.  The limiting-constant integral is an
exact identity (= 2 for every t); the appendix-style error bounds decay to
zero along an N ladder; the two-time integral converges to 2 min(t1,t2) at
O(1/log N) speed - slowly enough that the ladder plus a 1/log N
extrapolation is the meaningful check; the second-moment oracle, the
closed-form solution of the mild-form Volterra system, is the reference for
the simulated second moment.
"""

import numpy as np

from shelab import (lemma_2, lemma_s0, lemma_twotime, lemma_y,
                    limiting_constant, reduced_cov_integral,
                    second_moment_volterra)

print("limiting constant (exact value 2, independent of t):")
for t in (0.1, 1.0, 10.0):
    print(f"  t = {t:4g}: {limiting_constant(t).value:.8f}")

print("\nreduced covariance integral, (2x/t) value -> 2:")
for x in (10.0, 100.0, 1e3, 1e4):
    print(f"  x = {x:>7g}: {2 * x * reduced_cov_integral(1.0, x):.6f}")

print("\ntwo-time integral -> 2 min(t1,t2), approach is O(1/log N):")
ladder = [1e2, 1e4, 1e8, 1e16]
vals = [lemma_twotime(1.0, 2.0, N).value for N in ladder]
for N, v in zip(ladder, vals):
    print(f"  N = 1e{int(np.log10(N)):>2}: {v:.5f}")
slope, icept = np.polyfit(1.0 / np.log(ladder), vals, 1)
print(f"  extrapolated (1/log N -> 0): {icept:.4f}   [limit 2]")

print("\nerror-bound ladders (each strictly decreasing):")
for name, fn, t2 in (("lemma_s0", lemma_s0, 1.0),
                     ("lemma_2 ", lemma_2, 1.0),
                     ("lemma_y ", lemma_y, 2.0)):
    row = [fn(1.0, t2, N).value for N in (1e2, 1e3, 1e4)]
    print(f"  {name}: " + "  ".join(f"{v:.5f}" for v in row))

print("\nsecond-moment oracle at t = 0.5:")
print(f"  E[Z(0.5,0)^2]/p(0)^2 = {second_moment_volterra(0.5, 0.0, 0.0):.4f}")
print(f"  pair ratio at x=0.5, y=-0.5: {second_moment_volterra(0.5, 0.5, -0.5):.4f}")
