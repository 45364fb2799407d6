#!/usr/bin/env python3
"""Brownian limit of the normalized spatial average.

X_N(t) = (N log N)^(-1/2) int_0^N (h(t,x) - E h) dx has variance -> 2t and
Gaussian marginals; pairs (X_N(t1), X_N(t2)) have covariance -> 2 min(t1,t2).
This demo estimates Var[X_N(1)]/2 at two N values, the KS normality p-value,
and the two-time covariance ratio at N = 50.

Note the resolution effect: the variance ratio sits well below 1 and
*decreases* from N = 50 to N = 200 at t = 1.  The lattice cuts off the t/x
covariance tail past x* ~ 2 sqrt(2) t/dx, about 28 at dx = 0.1: its first
chaos falls 0.654 -> 0.537 over these N while the exact continuum first
chaos rises 0.827 -> 0.867 (the paper's lemma integral,
lemma_twotime(1, 1, N)/2, rises 0.756 -> 0.815).  The Gaussianity of the
samples is already excellent.
"""

from shelab.experiments import ExperimentConfig, run

M = 400
print(f"variance ladder at t = 1 (M = {M}, takes a minute or two)")
clt = run(ExperimentConfig(
    kind="clt", master_seed=12, workers=2,
    dx=0.1, half_width=208.0, times=[1.0], n_values=[50.0, 200.0],
    replicates=M, calibration_replicates=16))
for N, d in clt.extras["ratios"].items():
    print(f"  N = {float(N):5g}:  Var[X_N(1)] / 2t = {d['ratio']:.3f} +- {d['se']:.3f}")
ks = [row for row in clt.tables["clt"] if row[0] == "ks_normality_p"][0]
print(f"  KS normality p-value of the N = 50 samples: {ks[3]:.3f}")

print(f"\ntwo-time covariance at N = 50 (M = {M} paired replicates)")
fdd = run(ExperimentConfig(
    kind="fdd", master_seed=13, workers=2,
    dx=0.1, half_width=62.0, times=[1.0, 2.0], n_values=[50.0],
    replicates=M, calibration_replicates=16))
print(f"  Cov[X_50(1), X_50(2)] / (2 min(t1,t2)) = "
      f"{fdd.extras['ratio']:.3f} +- {fdd.extras['se'] / 2:.3f}")
