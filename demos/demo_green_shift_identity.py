#!/usr/bin/env python3
"""Shared-noise Green's functions and the shift identity.

Several Dirac sources ride one noise realization, so ratios of their
normalized values estimate shared-environment expectations directly.  The
shift identity relates E[Gbar(t,x;s,y)/Gbar(t,x;0,0)] to a z-integral of
Green factors; its right side needs G(t,0;s,z) for *every* z, which one
adjoint (backward) pass produces per replicate.

At (x, y) = (0, 0) the identity telescopes through the lattice
Chapman-Kolmogorov relation and holds replicate-by-replicate to roundoff;
at a generic probe both sides agree within Monte Carlo error.
"""

import math

from shelab import shift_identity_samples
from shelab.sim import GridSpec
from shelab.stats import mean_se

grid = GridSpec(dx=0.05, half_width=7.0, dt=0.00125)
t, s = 0.5, 0.25
M = 600

for (x, y) in [(0.0, 0.0), (1.0, 0.5)]:
    lhs, rhs, dropped = shift_identity_samples(grid, range(M), t, s, x, y,
                                               master_seed=99)
    lhs_m, lhs_se = mean_se(lhs)
    rhs_m, rhs_se = mean_se(rhs)
    print(f"shift identity at (x={x:g}, y={y:g}), t={t}, s={s}, M={M}:")
    print(f"  lhs = {lhs_m:.4f} +- {lhs_se:.4f}")
    print(f"  rhs = {rhs_m:.4f} +- {rhs_se:.4f}")
    print(f"  |diff| = {abs(lhs_m - rhs_m):.2e}  "
          f"(3 combined SE = {3 * math.hypot(lhs_se, rhs_se):.4f}, dropped {dropped})")
