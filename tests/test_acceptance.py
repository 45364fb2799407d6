"""Acceptance suite: one test per criterion, at the stated tolerances.

Heavy ensembles are produced once per session through the experiment drivers
and shared across criteria.  Every test prints one PASS/FAIL line (visible
with pytest -s; always visible on failure).

Two sub-checks are marked xfail(strict=True) because the quantities they pin
provably cannot reach the stated bands at the stated parameters; the
measured values and the analysis live in the failing tests' output:

  * the two-time lemma integral at N = 1e4 sits at 2 - c/log N (c ~= 1.95),
    i.e. 1.785, far outside 2 +- 0.05; the band would need N ~ e^40.  The
    1/log N extrapolation of the ladder does hit the limit 2(t1^t2) to 1e-2,
    which is reported alongside.
  * Var[X_N(1)]/2t moves further from 1 between N = 50 and N = 200 (0.70 ->
    0.57 with SE ~ 0.025) because the lattice cuts off the t/x covariance
    tail: noise at source times s ~ 4t^2/x^2 below dt = dx^2/2 is not
    resolved, so at dx = 0.1 the tail is lost past x* ~ 2 sqrt(2) t/dx ~ 28.
    The lattice first-chaos ratio, with the driver's trapezoid weights,
    falls the same way (0.654 -> 0.537), while the exact continuum first
    chaos rises (0.827 -> 0.867); the paper's lemma integral,
    lemma_twotime(1, 1, N)/2, rises too (0.756 -> 0.815).
"""

import math
import os

import numpy as np
import pytest

from shelab.experiments import ExperimentConfig, run
from shelab.kernels import heat_kernel, kernel_product_identity, kernel_shift_identity
from shelab.noise import ZeroNoise
from shelab.sim import default_grid, evolve

WORKERS = min(2, os.cpu_count() or 1)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _verdict_of(report, needle):
    hits = [v for v in report.verdicts if needle in v["criterion"]]
    assert hits, f"no verdict matching {needle!r}"
    return hits[0]


# ---------------------------------------------------------------------------
# shared ensembles (session scope)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def cov_report():
    return run(ExperimentConfig(
        kind="covariance", master_seed=20260809, workers=WORKERS,
        dx=0.1, half_width=20.0, times=[1.0],
        lags=[0.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0],
        bulk_window=[-12.0, 12.0], fit_window=[3.0, 10.0],
        replicates=5000, calibration_replicates=50))


@pytest.fixture(scope="session")
def clt_report():
    return run(ExperimentConfig(
        kind="clt", master_seed=20260810, workers=WORKERS,
        dx=0.1, half_width=208.0, times=[1.0], n_values=[50.0, 200.0],
        replicates=1500, calibration_replicates=40))


@pytest.fixture(scope="session")
def fdd_report():
    return run(ExperimentConfig(
        kind="fdd", master_seed=20260811, workers=WORKERS,
        dx=0.1, half_width=112.0, times=[1.0, 2.0], n_values=[100.0],
        replicates=700, calibration_replicates=20))


@pytest.fixture(scope="session")
def moment_report():
    # criterion-pinned grid: dx = 0.05, dt = dx^2/2, L = 20, M = 2000
    return run(ExperimentConfig(
        kind="diagnostics", master_seed=20260812, workers=WORKERS,
        dx=0.05, half_width=20.0, times=[1.0],
        replicates=2000, calibration_replicates=10,
        first_moment_xmax=6.0,
        gbar_probe={"t": 0.5, "x": 0.0, "k": 2, "volterra_levels": 96}))


@pytest.fixture(scope="session")
def holder_report():
    return run(ExperimentConfig(
        kind="diagnostics", master_seed=20260813, workers=WORKERS,
        dx=0.015, half_width=3.0, dt=1e-4, times=[0.1],
        replicates=1500, calibration_replicates=10,
        first_moment_xmax=0.3,
        holder_s_values=[1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1]))


@pytest.fixture(scope="session")
def shift_report():
    return run(ExperimentConfig(
        kind="shift_check", master_seed=20260814, workers=WORKERS,
        dx=0.05, half_width=7.0, times=[0.5], shift_s=0.25,
        shift_probes=[[0.0, 0.0], [1.0, 0.5]],
        replicates=2500, calibration_replicates=1))


@pytest.fixture(scope="session")
def oracle_report():
    return run(ExperimentConfig(kind="oracle_suite"))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_kernel_identities():
    rng = np.random.default_rng(20260801)
    n = 10_000
    t = rng.uniform(0.05, 5.0, n)
    s = t * rng.uniform(0.02, 0.98, n)
    a = rng.uniform(-4, 4, n)
    b = rng.uniform(-4, 4, n)
    lhs, rhs = kernel_shift_identity(t, s, a, b)
    shift_ok = np.max(np.abs(lhs - rhs) / np.maximum(1.0, lhs)) <= 1e-12
    x = rng.uniform(-4, 4, n)
    y = rng.uniform(-4, 4, n)
    lhs2, rhs2 = kernel_product_identity(t, x, y)
    prod_ok = np.max(np.abs(lhs2 - rhs2) / np.maximum(lhs2, rhs2)) <= 1e-12
    assert _report(1, shift_ok and prod_ok,
                   f"10^4 randomized shift/product identities at 1e-12 "
                   f"(worst shift {np.max(np.abs(lhs - rhs) / np.maximum(1.0, lhs)):.2e})")


def test_criterion_02_noise_free_regression():
    errs = {}
    for dx in (0.05, 0.025):
        g = default_grid(dx, 20.0)
        k = g.step_of(1.0)
        Z = evolve(g, ZeroNoise(), [1.0])[0]
        x = g.positions()
        m = np.abs(x) <= 4.0
        oracle = heat_kernel(1.0, x[m]) * math.exp(-k * g.dt / (2 * g.dx))
        errs[dx] = float(np.max(np.abs(Z[m] - oracle) / oracle))
    order = math.log2(errs[0.05] / errs[0.025])
    ok = errs[0.05] <= 1e-3 and order >= 1.0
    assert _report(2, ok, f"max rel err {errs[0.05]:.2e} at dx=0.05, "
                          f"empirical order {order:.2f}")


def test_criterion_03_first_moment(moment_report):
    v = _verdict_of(moment_report, "first moment")
    assert _report(3, v["passed"],
                   f"E[Z(1,x)]/p within 1 +- (3SE + 2%) for |x|<=6; worst dev "
                   f"{v['detail']['worst_dev']:.4f} vs tol {v['detail']['worst_tol']:.4f} "
                   f"at x={v['detail']['worst_x']:g} (M=2000, dx=0.05, L=20)")


def test_criterion_04_second_moment_oracle(moment_report):
    v = _verdict_of(moment_report, "Volterra")
    d = v["detail"]
    assert _report(4, v["passed"],
                   f"E[Gbar(0.5,0)^2] MC {d['mc']:.3f} +- {d['mc_se']:.3f} vs "
                   f"oracle {d['oracle']:.3f}, tol {d['tolerance']:.3f}")


def test_criterion_05_covariance_decay(cov_report):
    checks = [v for v in cov_report.verdicts if "x*cov/t" in v["criterion"]]
    assert len(checks) == 3
    bands_ok = all(v["passed"] for v in checks)
    fit_e = _verdict_of(cov_report, "exponent")
    fit_c = _verdict_of(cov_report, "constant")
    vals = {v["criterion"].split("lag ")[1]: v["detail"]["x_cov_over_t"] for v in checks}
    ok = bands_ok and fit_e["passed"] and fit_c["passed"]
    assert _report(5, ok,
                   f"x cov/t at lags 4/6/8: "
                   f"{vals['4']:.3f}/{vals['6']:.3f}/{vals['8']:.3f} in [0.6,1.4]; "
                   f"exponent {fit_e['detail']['exponent']:.3f} in [0.7,1.3], "
                   f"constant {fit_c['detail']['constant']:.3f} in [0.6,1.4] (M=5000)")


def test_criterion_06_clt_variance_band(clt_report):
    v = _verdict_of(clt_report, "Var[X_N]/2t")
    assert _report(6, v["passed"],
                   f"Var[X_50(1)]/2t = {v['detail']['ratio']:.3f} "
                   f"+- {v['detail']['se']:.3f} in [0.55, 1.45] (M=1500)")


@pytest.mark.xfail(strict=True,
                   reason="lattice cutoff of the t/x covariance tail past "
                          "x* ~ 2 sqrt(2) t/dx ~ 28: the lattice first-chaos "
                          "ratio falls 0.654 -> 0.537 from N=50 to N=200 "
                          "while the exact continuum one rises 0.827 -> "
                          "0.867 (the lemma integral: 0.756 -> 0.815) "
                          "(see module docstring)")
def test_criterion_06_clt_variance_trend(clt_report):
    v = _verdict_of(clt_report, "shrinks")
    d = v["detail"]
    assert _report(6, v["passed"],
                   f"|Var ratio - 1| must shrink: N=50 -> {d['ratio_first']:.3f}, "
                   f"N=200 -> {d['ratio_last']:.3f}")


def test_criterion_07_clt_normality(clt_report):
    v = _verdict_of(clt_report, "Gaussianity")
    assert _report(7, v["passed"],
                   f"KS normality of X_50(1) samples: p = {v['detail']['p_value']:.3f} "
                   f">= 0.001 (n=1500)")


def test_criterion_08_two_time_covariance(fdd_report):
    v = fdd_report.verdicts[0]
    assert _report(8, v["passed"],
                   f"Cov[X_100(1), X_100(2)]/2 = {v['detail']['ratio']:.3f} "
                   f"+- {v['detail']['se']:.3f} in [0.5, 1.5] (M=700 paired)")


def test_criterion_09_shift_identity(shift_report):
    checks = shift_report.verdicts
    assert len(checks) == 2
    ok = all(v["passed"] for v in checks)
    msgs = []
    for v in checks:
        d = v["detail"]
        msgs.append(f"{v['criterion'].split('at ')[1].split(':')[0]}: "
                    f"|{d['lhs']:.4f} - {d['rhs']:.4f}| <= {d['tolerance']:.4f}")
    assert _report(9, ok, "; ".join(msgs) + " (t=0.5, s=0.25, M=2500)")


def test_criterion_10_oracle_suite_attainable(oracle_report):
    names = ("limiting_constant", "lemma_s0", "lemma_2", "lemma_y", "reduced_cov")
    checks = [v for v in oracle_report.verdicts
              if any(n in v["criterion"] for n in names)]
    assert len(checks) == 7
    ok = all(v["passed"] for v in checks)
    assert _report(10, ok,
                   "limiting_constant(0.1/1/10) = 2 +- 1e-6; s0/2/y ladders "
                   "strictly decreasing; reduced_cov (2x/t) value within 1e-2 "
                   "of 2 at x=1e4")


@pytest.mark.xfail(strict=True,
                   reason="the stated triple integral equals 2(t1^t2) - "
                          "c/log N with c ~= 1.95; at N=1e4 it is 1.785 "
                          "(two independent evaluation routes agree), so the "
                          "+-0.05 band is unattainable below N ~ e^40; the "
                          "ladder extrapolation does reach the limit")
def test_criterion_10_oracle_twotime_pinned_band(oracle_report):
    checks = [v for v in oracle_report.verdicts if "lemma_twotime" in v["criterion"]]
    assert len(checks) == 3
    vals = [v["detail"]["value"] for v in checks]
    ok = all(v["passed"] for v in checks)
    assert _report(10, ok,
                   f"lemma_twotime at N=1e4: {vals[0]:.3f}, {vals[1]:.3f}, "
                   f"{vals[2]:.3f} vs bands 2/2/1 +- 0.05")


def test_criterion_11_hoelder_exponent(holder_report):
    v = _verdict_of(holder_report, "Hoelder")
    assert _report(11, v["passed"],
                   f"fitted exponent of ||Z(s,0)/p_s(0) - 1||_2 over "
                   f"s in [1e-3, 1e-1]: {v['detail']['exponent']:.3f} in [0.2, 0.3]")


def test_criterion_12_stationarity(cov_report):
    v = _verdict_of(cov_report, "stationarity")
    assert _report(12, v["passed"],
                   f"two-sample KS over 10 bulk pairs: min p = "
                   f"{v['detail']['min_p']:.4f} >= {v['detail']['threshold']:g} "
                   f"(Bonferroni at 0.001)")


def test_criterion_13_determinism(tmp_path):
    base = dict(kind="covariance", master_seed=77, dx=0.1, half_width=12.0,
                times=[0.5], lags=[0.0, 1.0, 2.0, 3.0], bulk_window=[-3.0, 3.0],
                fit_window=[1.0, 3.0], replicates=48, calibration_replicates=4)
    bodies = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        run(ExperimentConfig(**base, workers=workers, out_dir=str(out)))
        bodies[workers] = {name: (out / name).read_bytes()
                           for name in sorted(os.listdir(out))
                           if name.endswith(".csv")}
    same = bodies[1] == bodies[2]
    # and a straight re-run reproduces the bytes
    out3 = tmp_path / "rerun"
    run(ExperimentConfig(**base, workers=2, out_dir=str(out3)))
    rerun_same = all((out3 / name).read_bytes() == blob
                     for name, blob in bodies[2].items())
    assert _report(13, same and rerun_same,
                   f"CSV bodies byte-identical across worker counts and "
                   f"re-runs ({len(bodies[1])} tables)")
