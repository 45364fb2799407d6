#!/usr/bin/env python3
"""Spatial decorrelation of the height function: Cov[h(t,x), h(t,0)] ~ t/x.

Runs a modest replicate ensemble at t = 1, builds height residuals
r(x) = log Z - log p_t, estimates the lag covariance with translate
averaging (valid by stationarity of the residual law), and fits the decay.
Also prints the deterministic quadrature benchmark: the reduced integral
whose large-x behaviour fixes the t/x constant, and the limiting-constant
identity that evaluates to exactly 2.

At desk scale expect x cov(x)/t around 0.8: the exact-ratio correction to
the covariance integrand approaches 1 only as x -> infinity.
"""

import numpy as np

from shelab import limiting_constant, reduced_cov_integral
from shelab.experiments import ExperimentConfig, fit_decay, run
from shelab.stats import CovarianceEstimate

print("deterministic benchmarks")
print(f"  int_0^inf (pi s t^2)^-1/2 e^(-s/4t^2) ds = "
      f"{limiting_constant(1.0).value:.9f}  (exactly 2, any t)")
for x in (4.0, 8.0, 100.0):
    v = reduced_cov_integral(1.0, x)
    print(f"  reduced covariance integral, t=1, x={x:>5g}: (2x/t) value = {2*x*v:.4f}")

M, dx, half_width, workers = 1200, 0.1, 20.0, 2
print(f"\nsimulating M = {M} replicates at t = 1 on dx = {dx:g}, |x| <= {half_width:g}"
      f" ({round(2 * half_width / dx) + 1} cells), {workers} workers")
report = run(ExperimentConfig(
    kind="covariance", master_seed=7, workers=workers,
    dx=dx, half_width=half_width, times=[1.0],
    lags=[0.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0],
    bulk_window=[-12.0, 12.0], fit_window=[3.0, 10.0],
    replicates=M, calibration_replicates=20))

est = report.extras["estimate"]
print("\n lag      cov        se      x cov / t")
for lag, c, s in zip(est["lags"], est["cov"], est["se"]):
    tail = f"{lag * c:10.3f}" if lag > 0 else "      (var)"
    print(f"  {lag:4.1f}  {c:8.4f}  {s:8.4f} {tail}")

fit = report.extras["fit"]
print(f"\npower-law fit over lags in [3, 10]:")
print(f"  exponent b = {fit['exponent']:.3f} +- {fit['exponent_ci']:.3f}  (theory: 1)")
print(f"  constant c = {fit['constant']:.3f} +- {fit['constant_ci']:.3f}  (theory: t = 1 as x -> inf)")
