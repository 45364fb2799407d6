import csv
import json
import math
import os

import numpy as np
import pytest

from shelab.cli import main as cli_main
from shelab.experiments import (ConfigError, ExperimentConfig, FitDecayResult,
                                _gbar, fit_decay, run, write_csv)
from shelab.kernels import log_heat_kernel
from shelab.stats import CovarianceEstimate


def _tiny_cov_cfg(**over):
    base = dict(kind="covariance", master_seed=10, dx=0.1, half_width=12.0,
                times=[0.5], lags=[0.0, 1.0, 2.0, 3.0], bulk_window=[-3.0, 3.0],
                replicates=24, calibration_replicates=2, workers=1)
    base.update(over)
    return ExperimentConfig(**base)


def test_validation_collects_all_violations():
    cfg = ExperimentConfig(kind="covariance", dx=0.1, half_width=1.0,
                           times=[], lags=[], replicates=1,
                           calibration_replicates=0)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    msgs = "\n".join(err.value.violations)
    assert "replicates" in msgs
    assert "calibration_replicates" in msgs
    assert "times" in msgs
    assert len(err.value.violations) >= 3


def test_validation_grid_coverage_and_lattice():
    with pytest.raises(ConfigError) as err:
        _tiny_cov_cfg(half_width=4.0, bulk_window=[-3.0, 3.0]).validate()
    assert any("8 sqrt" in v for v in err.value.violations)
    with pytest.raises(ConfigError):
        _tiny_cov_cfg(lags=[0.15]).validate()
    with pytest.raises(ConfigError):
        _tiny_cov_cfg(times=[0.5003]).validate()


def _tiny_diag_cfg(**over):
    base = dict(kind="diagnostics", master_seed=3, dx=0.1, half_width=10.0,
                times=[0.5], replicates=8, calibration_replicates=1,
                first_moment_xmax=1.0, holder_s_values=[0.01, 0.02],
                gbar_probe={"t": 0.25, "x": 0.5, "k": 2}, workers=1)
    base.update(over)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("over, needle", [
    (dict(holder_s_values=[0.01, 0.0123]), "holder_s_values"),    # off dt lattice
    (dict(holder_s_values=[0.0, 0.01]), "holder_s_values"),       # not positive
    (dict(gbar_probe={"t": 0.2503}), "gbar_probe.t"),
    (dict(gbar_probe={"t": -0.25}), "gbar_probe.t"),
    (dict(gbar_probe={"x": 0.05}), "gbar_probe.x"),               # off dx lattice
    (dict(gbar_probe={"x": 11.0}), "gbar_probe.x"),               # outside the grid
    (dict(gbar_probe={"k": 3}), "gbar_probe.k"),                  # no oracle for k != 2
    (dict(gbar_probe={"x": 9.5}), "8 sqrt"),                      # truncation at the probe
    (dict(holder_s_values=[0.01, 2.0]), "8 sqrt"),                # truncation at the latest s
    (dict(holder_s_values=[0.01, 0.01]), "distinct"),             # one-point exponent fit
    (dict(gbar_probe={"t": 0.01, "x": 3.0}), "noise cone"),       # Z(0.01, 3) is exactly 0
    # Z(0.01, x) is exactly 0 for |x| > 2.2 (2 steps of 11 cells) and 1/p_t
    # overflows there: this config used to write NaN first-moment rows
    (dict(half_width=6.0, times=[0.01], first_moment_xmax=4.0, holder_s_values=[],
          gbar_probe={}), "first_moment_xmax 4 lies outside the noise cone"),
    (dict(first_moment_xmax=-1.0), "first_moment_xmax"),          # empty first-moment window
    (dict(gbar_probe={"tt": 0.3}), "unknown key 'tt'"),           # would run the default t
    # a repeated step writes a second holder_l2 row and moves the exponent fit
    (dict(holder_s_values=[0.01, 0.01, 0.05, 0.2]),
     "holder_s_values: 0.01, 0.01 fall on the same dt step"),
])
def test_validation_rejects_diagnostics_probes(over, needle):
    _tiny_diag_cfg().validate()
    with pytest.raises(ConfigError) as err:
        _tiny_diag_cfg(**over).validate()
    assert any(needle in v for v in err.value.violations)


def test_validation_rejects_reads_beyond_the_underflow_read_radius():
    # inside the noise cone and the truncation rule, but beyond the read
    # radius, about sqrt(2 t (600 - log dx)): 24.57 at t = 0.5 and 17.37 at
    # t = 0.25 on this grid
    wide = dict(half_width=40.0, holder_s_values=[])
    _tiny_diag_cfg(first_moment_xmax=24.5, gbar_probe={"t": 0.25, "x": 17.3},
                   **wide).validate()
    with pytest.raises(ConfigError) as err:
        _tiny_diag_cfg(first_moment_xmax=24.6, gbar_probe={"t": 0.25, "x": -17.4},
                       **wide).validate()
    msgs = err.value.violations
    assert len(msgs) == 2 and all("underflow" in v for v in msgs)
    assert "first_moment_xmax" in msgs[0] and "gbar_probe.x" in msgs[1]
    with pytest.raises(ConfigError) as err:
        _tiny_cov_cfg(half_width=40.0, bulk_window=[-30.0, 3.0]).validate()
    assert [v for v in err.value.violations if "underflow" in v] == [
        "bulk_window 30 lies beyond the underflow read radius |x| <= 24.566 at t=0.5"]


def test_diagnostics_report_gives_the_underflow_margin(tmp_path):
    # the read radius minus |x|, smallest over the absolute-engine reads:
    # the first moment at t = 0.5, the Hoelder cell x = 0 at each s and the
    # gbar probe at t = 0.25; it goes to report.json and no CSV
    from shelab.sim import read_radius
    cfg = _tiny_diag_cfg(out_dir=str(tmp_path))
    grid = cfg.grid()
    margin = run(cfg).extras["underflow_margin"]
    assert margin == min(read_radius(grid, 0.5) - 1.0, read_radius(grid, 0.01),
                         read_radius(grid, 0.02), read_radius(grid, 0.25) - 0.5)
    assert margin == read_radius(grid, 0.01)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["extras"]["underflow_margin"] == margin
    assert not any("underflow" in p.read_text() for p in tmp_path.glob("*.csv"))


def test_covariance_report_gives_the_underflow_margin(tmp_path):
    # the bulk window is the covariance run's one absolute-engine read: the
    # read radius at its time minus |x| of its farthest cell, in report.json
    # and no CSV; the default window [-w, w], w = 12 - 8 sqrt(0.5), ends at
    # the cell x = 6.3
    from shelab.sim import read_radius
    cfg = _tiny_cov_cfg(out_dir=str(tmp_path))
    grid = cfg.grid()
    margin = run(cfg).extras["underflow_margin"]
    assert margin == read_radius(grid, 0.5) - 3.0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["extras"]["underflow_margin"] == margin
    assert not any("underflow" in p.read_text() for p in tmp_path.glob("*.csv"))
    default = run(_tiny_cov_cfg(bulk_window=None, lags=[0.0, 1.0])).extras
    assert default["underflow_margin"] == read_radius(grid, 0.5) - grid.positions()[
        grid.window(-12 + 8 * 0.5 ** 0.5, 12 - 8 * 0.5 ** 0.5)].max()
    assert default["underflow_margin"] == read_radius(grid, 0.5) - 6.3


def test_validation_refuses_a_grid_without_a_cell_at_zero():
    # half_width 12.05 is not a multiple of dx = 0.1: the grid's cells would
    # sit at the half cells, with the Dirac at -dx/2
    with pytest.raises(ConfigError) as err:
        _tiny_cov_cfg(half_width=12.05).validate()
    assert [v for v in err.value.violations if v.startswith("grid:")] == [
        "grid: half_width=12.05 is not a positive multiple of dx=0.1: the grid "
        "needs a cell at x = 0 and one on each side"]
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(kind="oracle_suite", dx=0.1, half_width=1.05).validate()
    assert any(v.startswith("grid: half_width=1.05") for v in err.value.violations)


def test_cli_exits_2_on_a_grid_without_a_cell_at_zero(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(dx=0.1, half_width=4.95, times=[0.05],
                                        n_values=[3.0], replicates=50)))
    rc = cli_main(["clt", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "grid: half_width=4.95 is not a positive multiple of dx=0.1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_fdd_reports_the_lattice_first_chaos(tmp_path):
    # the lattice first chaos over 2 (t1 ^ t2) beside the fdd ratio, in
    # report.json and no CSV; below the continuum value at this coarse grid
    from shelab.oracles import lattice_first_chaos
    cfg = _tiny_fdd_cfg(out_dir=str(tmp_path))
    extras = run(cfg).extras
    assert extras["lattice_first_chaos"] == (
        lattice_first_chaos(cfg.grid(), [0.25, 0.5], 5.0)[0, 1] / 0.5)
    assert 0.0 < extras["lattice_first_chaos"] < extras["continuum_first_chaos"]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["extras"]["lattice_first_chaos"] == extras["lattice_first_chaos"]
    assert not any("lattice" in p.read_text() for p in tmp_path.glob("*.csv"))
    assert "lattice_first_chaos" not in run(_tiny_clt_cfg()).extras


@pytest.mark.parametrize("over", [
    {},
    # a lag past the run grid's edge: the first chaos takes a wider grid
    dict(bulk_window=[-6.3, 6.3], lags=[0.0, 1.0, 2.0, 12.5]),
])
def test_covariance_reports_the_first_chaos_per_lag(tmp_path, over):
    # the lattice and the continuum first chaos of Cov[h(t, x), h(t, 0)] at
    # each lag, in report.json and no CSV; the lattice one lies below
    from shelab.oracles import lattice_first_chaos_covariance, reduced_cov_integral
    cfg = _tiny_cov_cfg(out_dir=str(tmp_path), **over)
    extras = run(cfg).extras
    lags = [float(lag) for lag in cfg.lags]
    assert extras["lattice_first_chaos"] == dict(zip(
        map(str, lags), lattice_first_chaos_covariance(cfg.grid(), 0.5, lags).tolist()))
    assert extras["continuum_first_chaos"] == {
        str(lag): reduced_cov_integral(0.5, lag).value for lag in lags}
    for lag in map(str, lags):
        assert 0.0 < extras["lattice_first_chaos"][lag] < extras["continuum_first_chaos"][lag]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["extras"]["lattice_first_chaos"] == extras["lattice_first_chaos"]
    assert not any("chaos" in p.read_text() for p in tmp_path.glob("*.csv"))


def test_covariance_first_chaos_is_null_past_the_noise_cone():
    # after 2 steps the cone reaches 2.2, and the lag 4.0 of a window
    # [-2.2, 2.2] lies past it, where h(t, 4.0) = -inf
    from shelab.oracles import lattice_first_chaos_covariance
    cfg = ExperimentConfig(**_EDGE_CONFIGS["cov-lag-past-cone"][0])
    extras = run(cfg).extras
    assert extras["lattice_first_chaos"]["4.0"] is None
    assert extras["lattice_first_chaos"]["0.0"] == lattice_first_chaos_covariance(
        cfg.grid(), 0.01, [0.0])[0]
    assert math.isnan(lattice_first_chaos_covariance(cfg.grid(), 0.01, [4.0])[0])


def test_diagnostics_driver_reduces_synthetic_rows():
    # a driver is a reduction over the rows run() hands it: Z/p = 1 on every
    # cell passes the first-moment verdict with zero spread
    import shelab.experiments as ex
    cfg = _tiny_diag_cfg(holder_s_values=[], gbar_probe={})
    grid = cfg.grid()
    (probe,) = ex._probes(cfg, grid)
    wpos = grid.positions()[grid.window(-1.0, 1.0)]
    reads = {"first_moment_xmax": (probe, [np.ones((8, wpos.size))], wpos)}
    tables, verdicts, extras = ex._DRIVERS["diagnostics"](cfg, grid, reads)
    assert tables["first_moment"] == [("mean_gbar", 0.5, x, 1.0, 0.0, 8) for x in wpos]
    assert [v["passed"] for v in verdicts] == [True]
    assert extras["first_moment_worst"]["deviation"] == 0.0


def test_validation_accepts_any_gbar_probe_time_and_levels():
    # the closed-form second-moment oracle has no t or volterra_levels domain
    _tiny_diag_cfg(gbar_probe={"t": 1.2, "volterra_levels": 8}).validate()


def test_gbar_is_zero_on_a_zero_cell():
    t = 0.01
    x = np.array([4.0, 0.0, 0.3])
    Z = np.array([[0.0, 2.0, 0.7], [1.5, 0.0, 3.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        g = _gbar(Z, t, x)
        plain = Z * np.exp(-log_heat_kernel(t, x))     # 0 * inf = NaN at x = 4
    assert np.isnan(plain[0, 0])
    assert g[0, 0] == 0.0 and g[1, 1] == 0.0
    pos = Z > 0
    assert np.array_equal(g[pos], plain[pos])


def _tiny_shift_cfg(**over):
    base = dict(kind="shift_check", master_seed=3, dx=0.05, half_width=7.0,
                times=[0.5], shift_s=0.25, shift_probes=[[1.0, 0.5]],
                replicates=8, calibration_replicates=1, workers=1)
    base.update(over)
    return ExperimentConfig(**base)


def _tiny_clt_cfg(**over):
    base = dict(kind="clt", master_seed=3, dx=0.1, half_width=20.0, times=[0.5],
                n_values=[5.0, 10.0], replicates=50, calibration_replicates=2,
                workers=1)
    base.update(over)
    return ExperimentConfig(**base)


def _tiny_fdd_cfg(**over):
    return _tiny_clt_cfg(**{"kind": "fdd", "times": [0.25, 0.5], "n_values": [5.0],
                            **over})


@pytest.mark.parametrize("make, passes", [
    (_tiny_cov_cfg, 1), (_tiny_clt_cfg, 2), (_tiny_fdd_cfg, 1), (_tiny_diag_cfg, 3),
    (_tiny_shift_cfg, 0),
])
def test_run_reads_each_probe_once(make, passes, monkeypatch):
    # run() makes one engine pass per probe of _probes; only clt's
    # calibration pass, on the ids after the estimation set, comes on top
    import shelab.experiments as ex
    calls = []
    ensemble = ex._ensemble

    def counted(cfg, grid, ids, probe):
        calls.append((probe[0], list(ids)))
        return ensemble(cfg, grid, ids, probe)

    monkeypatch.setattr(ex, "_ensemble", counted)
    cfg = make()
    run(cfg)
    probes = ex._probes(cfg, cfg.grid())
    assert len(calls) == passes
    assert calls[:len(probes)] == [(p[0], list(range(cfg.replicates))) for p in probes]
    if cfg.kind == "clt":
        assert calls[1] == ("n_values", [50, 51])


def test_clt_and_fdd_report_the_tilted_variance_ratio(tmp_path):
    # the ratio at the largest read, (N/t) dt/dx cells/step: N = 9 at
    # t = 0.05 (fdd's earlier time) is 9 cells/step at dx = 0.1; it goes to
    # report.json, not to a CSV or a verdict
    from shelab.sim import tilted_variance_ratio
    for make, over in ((_tiny_clt_cfg, dict(times=[0.05], n_values=[5.0, 9.0])),
                       (_tiny_fdd_cfg, dict(times=[0.05, 0.1], n_values=[9.0]))):
        out = tmp_path / make.__name__
        cfg = make(out_dir=str(out), **over)
        result = run(cfg)
        ratio = result.extras["tilted_variance_ratio"]
        assert ratio == tilted_variance_ratio(cfg.grid(), 9.0)
        assert abs(ratio - 0.99879) < 1e-5
        assert not any("tilt" in v["criterion"] for v in result.verdicts)
        report = json.loads((out / "report.json").read_text())
        assert report["extras"]["tilted_variance_ratio"] == ratio
        assert not any("tilt" in p.read_text() for p in out.glob("*.csv"))


def test_clt_and_fdd_report_the_continuum_first_chaos(tmp_path):
    # the exact continuum first chaos over 2 (t1 ^ t2), beside each clt ratio
    # and the fdd ratio, in report.json and no CSV
    from shelab.oracles import continuum_first_chaos
    clt = run(_tiny_clt_cfg(out_dir=str(tmp_path / "clt"))).extras
    assert clt["continuum_first_chaos"] == {
        str(N): continuum_first_chaos(0.5, 0.5, N).value for N in (5.0, 10.0)}
    assert clt["continuum_first_chaos"].keys() == clt["ratios"].keys()
    fdd = run(_tiny_fdd_cfg(out_dir=str(tmp_path / "fdd"))).extras
    assert fdd["continuum_first_chaos"] == continuum_first_chaos(0.25, 0.5, 5.0).value / 0.5
    for kind in ("clt", "fdd"):
        report = json.loads((tmp_path / kind / "report.json").read_text())
        assert "continuum_first_chaos" in report["extras"]
        assert not any("chaos" in p.read_text() for p in (tmp_path / kind).glob("*.csv"))


@pytest.mark.parametrize("make, over, needle", [
    (_tiny_shift_cfg, dict(shift_s=0.2501), "shift_s"),            # off the dt lattice
    (_tiny_shift_cfg, dict(shift_probes=[[0.03, 0.0]]), "shift_probes"),  # off dx lattice
    (_tiny_cov_cfg, dict(fit_window=[2.0, 10.0]), "fit_window"),   # 2 positive lags
    (_tiny_clt_cfg, dict(n_values=[5.05]), "n_values"),            # off the dx lattice
    (_tiny_cov_cfg, dict(master_seed=1.5), "master_seed"),
    (_tiny_cov_cfg, dict(replicates=24.0), "replicates must be an integer"),
    (_tiny_cov_cfg, dict(calibration_replicates=2.5), "calibration_replicates"),
    (_tiny_cov_cfg, dict(workers=1.5), "workers"),
    (_tiny_shift_cfg, dict(half_width=20.0, shift_probes=[[14.3, -14.3]]), "z-window"),
    (_tiny_cov_cfg, dict(bulk_window=[-3.0]), "bulk_window"),      # one number
    (_tiny_cov_cfg, dict(bulk_window=[3.0, -3.0]), "lo < hi"),
    (_tiny_cov_cfg, dict(fit_window=[1.0]), "fit_window"),
    (_tiny_cov_cfg, dict(fit_window=[3.0, 1.0]), "lo < hi"),
    (_tiny_shift_cfg, dict(shift_probes=[[1.0]]), "two numbers"),
    (_tiny_shift_cfg, dict(shift_probes=[[1.0, 0.5], 1.0]), "two numbers"),
    (_tiny_fdd_cfg, dict(n_values=[5.0, 10.0]), "fdd reads one N"),  # would use the first
    (_tiny_clt_cfg, dict(replicates=10), "replicates >= 50"),      # KS would raise after the run
    (_tiny_cov_cfg, dict(out_dir=5), "out_dir must be a string"),
    (_tiny_fdd_cfg, dict(replicates=2), "fdd needs replicates >= 3"),  # NaN jackknife SE
    (_tiny_cov_cfg, dict(times=[0.01], bulk_window=[-2.5, 2.5]), "noise cone"),
    # 22 cells, none at x = 0: the grid is refused before any window rule
    # (the id names the empty first_moment_xmax window it used to reach)
    pytest.param(_tiny_diag_cfg, dict(half_width=1.05, times=[0.01], first_moment_xmax=0.0,
                                      holder_s_values=[], gbar_probe={}), "half_width",
                 id="_tiny_diag_cfg-over20-first_moment_xmax"),
    (_tiny_cov_cfg, dict(bulk_window=[0.01, 0.02], lags=[0.0]), "bulk_window"),  # no cell
    # one cell: CovarianceAccumulator.finalize would fail after the ensemble
    (_tiny_cov_cfg, dict(bulk_window=[-0.05, 0.05], lags=[0.0]), "bulk_window"),
    # the 61 cells of [-3.05, 3.05] span 6.0, not 6.1
    (_tiny_cov_cfg, dict(bulk_window=[-3.05, 3.05], lags=[0.0, 6.1]),
     "lag 6.1 exceeds the span 6 of the bulk_window cells"),
    # p_{t-s}(x - y) = p_0.05(10) underflows to 0
    (_tiny_shift_cfg, dict(half_width=15.0, shift_s=0.45, shift_probes=[[5.0, -5.0]]),
     "shift_probes (5, -5): probe configuration reaches heat-kernel underflow"),
    # two lags on one cell: the decay fit would count 3 lags over 2 distinct ones
    (_tiny_cov_cfg, dict(lags=[0.0, 3.0, 3.0, 5.0], fit_window=[1.0, 6.0]),
     "lags: 3, 3 fall on the same dx cell"),
    # two equal N: the trend verdict would compare N = 5 with itself and fail
    (_tiny_clt_cfg, dict(n_values=[5.0, 5.0]), "n_values: 5, 5 fall on the same dx cell"),
    # every kind but fdd reads times[-1] alone; an earlier time would be dropped
    (_tiny_clt_cfg, dict(times=[0.25, 0.5]), "clt reads one time; times holds 2"),
    (_tiny_cov_cfg, dict(times=[0.25, 0.5]), "covariance reads one time; times holds 2"),
    (_tiny_diag_cfg, dict(times=[0.25, 0.5]), "diagnostics reads one time; times holds 2"),
    (_tiny_shift_cfg, dict(times=[0.25, 0.5]), "shift_check reads one time; times holds 2"),
])
def test_validation_rejects_runs_that_fail_or_misreport(make, over, needle):
    make().validate()
    with pytest.raises(ConfigError) as err:
        make(**over).validate()
    assert any(needle in v for v in err.value.violations)


def test_validation_fdd_needs_two_times():
    cfg = ExperimentConfig(kind="fdd", dx=0.1, half_width=30.0,
                           times=[0.25, 0.5, 1.0], n_values=[5.0], replicates=1)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    msgs = "\n".join(err.value.violations)
    assert "exactly two times" in msgs and "replicates" in msgs


def test_validation_rejects_n_outside_noise_cone():
    # 23 taps reach 11 cells per step: |x| <= 2.2 after the 2 steps to t = 0.01
    cfg = ExperimentConfig(kind="clt", dx=0.1, half_width=20.0, times=[0.01],
                           n_values=[5.0, 10.0], replicates=1)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    msgs = "\n".join(err.value.violations)
    assert "noise cone" in msgs and "replicates" in msgs
    ExperimentConfig(kind="clt", dx=0.1, half_width=20.0, times=[0.1],
                     n_values=[5.0, 10.0]).validate()
    # fdd integrates at both times, so the earlier one must reach N too
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(kind="fdd", dx=0.1, half_width=20.0, times=[0.01, 0.1],
                         n_values=[5.0]).validate()
    assert any("noise cone" in v for v in err.value.violations)


def test_covariance_table_matches_estimator_on_reference_fields():
    from shelab.noise import NoiseStream
    from shelab.sim import evolve, log_residual
    from shelab.stats import CovarianceAccumulator

    cfg = _tiny_cov_cfg()
    grid, t = cfg.grid(), cfg.times[-1]
    window = grid.window(*cfg.bulk_window)
    x = grid.positions()[window]
    acc = CovarianceAccumulator(x)
    for r in range(cfg.replicates):
        Z = evolve(grid, NoiseStream(cfg.master_seed, r), [t])[0]
        acc.add(r, log_residual(Z[window], grid.step_of(t) * grid.dt, x))
    est = acc.finalize(t, cfg.lags)
    table = run(cfg).tables["covariance"]
    assert table == [["height_cov", t, lag, c, s, n]
                     for lag, c, s, n in zip(est.lags, est.cov, est.se, est.n_effective)]


def test_unknown_config_field_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "clt", "replicas": 5})


def test_kind_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nope").validate()


def test_simulate_kind_is_gone():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="simulate").validate()
    with pytest.raises(SystemExit) as exc:
        cli_main(["simulate"])
    assert exc.value.code == 2


def test_worker_pool_is_capped_at_the_chunk_count(monkeypatch):
    import shelab.experiments as ex

    seen = []

    class SerialPool:
        """Records max_workers and maps in this process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            return map(fn, *columns)

    def size(grid, chunk, seed):
        return len(chunk)

    monkeypatch.setattr(ex, "ProcessPoolExecutor", SerialPool)
    cfg = _tiny_cov_cfg()
    ids = range(3 * ex._CHUNK - 5)                      # 3 chunks
    serial = ex._chunk_map(cfg, cfg.grid(), size, ids)
    assert serial == [ex._CHUNK, ex._CHUNK, ex._CHUNK - 5]
    for workers, expected in ((5000, 3), (2, 2)):
        cfg.workers = workers
        assert ex._chunk_map(cfg, cfg.grid(), size, ids) == serial
        assert seen[-1] == expected


@pytest.mark.parametrize("make, over", [
    (_tiny_cov_cfg, dict(fit_window=[1.0, 3.0])),
    # 150 replicates make 3 chunks, so the pool maps shift_identity_samples
    # itself over more than one worker
    (_tiny_shift_cfg, dict(replicates=150)),
], ids=["covariance", "shift"])
def test_csv_bodies_identical_across_worker_counts(tmp_path, make, over):
    outs = {}
    for workers in (1, 3):
        d = tmp_path / f"w{workers}"
        run(make(workers=workers, out_dir=str(d), **over))
        outs[workers] = {
            name: (d / name).read_bytes()
            for name in os.listdir(d) if name.endswith(".csv")
        }
    assert outs[1].keys() == outs[3].keys()
    for name in outs[1]:
        assert outs[1][name] == outs[3][name], f"{name} differs across workers"


def test_rerun_reproduces_estimates_bit_identically(tmp_path):
    cfg = _tiny_cov_cfg(out_dir=str(tmp_path / "a"))
    r1 = run(cfg)
    r2 = run(_tiny_cov_cfg(out_dir=str(tmp_path / "b")))
    assert r1.tables == r2.tables
    body_a = (tmp_path / "a" / "covariance.csv").read_bytes()
    body_b = (tmp_path / "b" / "covariance.csv").read_bytes()
    assert body_a == body_b


def test_csv_schema_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, [("s", 1.0, 2.0, 1 / 3, 0.1, 5)])
    lines = path.read_text().splitlines()
    assert lines[0] == "# shelab-csv v1"
    assert lines[1] == "series,t,lag_or_N,estimate,se,n_effective"
    assert lines[2].startswith("s,1,2,0.33333333333333331,")


def test_shift_csv_rows_parse_into_the_header_fields(tmp_path):
    # the shift series names hold a comma ("x=1,y=0.5"), so they are quoted
    run(_tiny_shift_cfg(out_dir=str(tmp_path)))
    with open(tmp_path / "shift.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["series", "t", "lag_or_N", "estimate", "se", "n_effective"]
    assert [r[0] for r in rows[2:]] == ["shift_lhs_x=1,y=0.5", "shift_rhs_x=1,y=0.5"]
    assert all(len(r) == 6 for r in rows[1:])


def test_fit_decay_exact_models():
    lags = np.array([1.0, 2.0, 4.0, 8.0])
    est = CovarianceEstimate(t=1.0, lags=lags, cov=1.0 / lags,
                             se=np.full(4, 1e-3), n_effective=np.full(4, 10.0))
    fit = fit_decay(est, (1.0, 8.0))
    assert fit.exponent == pytest.approx(1.0, abs=1e-10)
    assert fit.constant == pytest.approx(1.0, abs=1e-10)
    est2 = CovarianceEstimate(t=1.0, lags=lags, cov=1.0 / lags ** 2,
                              se=np.full(4, 1e-3), n_effective=np.full(4, 10.0))
    fit2 = fit_decay(est2, (1.0, 8.0))
    assert fit2.exponent == pytest.approx(2.0, abs=1e-10)


def test_fit_decay_excludes_nonpositive_with_warning():
    lags = np.array([1.0, 2.0, 4.0, 8.0])
    cov = np.array([1.0, 0.5, -0.01, 0.125])
    est = CovarianceEstimate(t=1.0, lags=lags, cov=cov,
                             se=np.full(4, 1e-2), n_effective=np.full(4, 10.0))
    with pytest.warns(UserWarning):
        fit = fit_decay(est, (1.0, 8.0))
    assert fit.excluded == [4.0]
    assert fit.n_used == 3
    with pytest.raises(ValueError):
        fit_decay(est, (1.0, 2.0))   # fewer than 3 usable lags


def test_covariance_fit_shortfall_fails_its_verdicts(tmp_path):
    # the fit window holds 4 positive lags, so the config validates, but at
    # 4 replicates lags 3, 4 and 5 estimate a nonpositive covariance and
    # leave the fit 1 usable lag: both decay verdicts fail, and no fit is
    # reported
    cfg = ExperimentConfig(kind="covariance", master_seed=3, dx=0.1, half_width=10.0,
                           times=[0.5], lags=[0.0, 3.0, 4.0, 5.0, 6.0],
                           bulk_window=[-4.0, 4.0], fit_window=[3.0, 6.0],
                           replicates=4, out_dir=str(tmp_path))
    cfg.validate()
    report = run(cfg)
    decay = [v for v in report.verdicts if v["criterion"].startswith("decay ")]
    assert len(decay) == 2 and not any(v["passed"] for v in decay)
    assert all(v["detail"] == {"usable_lags": 1, "excluded": [3.0, 4.0, 5.0]}
               for v in decay)
    assert report.extras["fit"] is None and "fit" not in report.tables
    assert not (tmp_path / "fit.csv").exists()
    assert json.loads((tmp_path / "report.json").read_text())["extras"]["fit"] is None


def test_partial_outputs_cleaned_on_write_failure(tmp_path, monkeypatch):
    import shelab.experiments as ex

    real = ex.write_csv
    calls = {"n": 0}

    def failing(path, rows):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise OSError("disk full")
        real(path, rows)

    monkeypatch.setattr(ex, "write_csv", failing)
    out = tmp_path / "run"
    with pytest.raises(OSError):
        run(_tiny_cov_cfg(out_dir=str(out), fit_window=[1.0, 3.0]))
    leftovers = [p for p in os.listdir(out) if p.endswith((".csv", ".json"))]
    assert leftovers == []


def test_report_structure_and_verdicts(tmp_path):
    cfg = _tiny_cov_cfg(out_dir=str(tmp_path), fit_window=[1.0, 3.0])
    report = run(cfg)
    payload = json.loads(report.to_json())
    assert payload["schema_version"] == 1
    assert payload["config"]["kind"] == "covariance"
    assert "covariance" in payload["tables"]
    assert all(set(v) >= {"criterion", "passed", "detail"} for v in payload["verdicts"])
    assert (tmp_path / "report.json").exists()


def test_cli_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        kind="covariance", master_seed=10, dx=0.1, half_width=12.0,
        times=[0.5], lags=[0.0, 1.0], bulk_window=[-3.0, 3.0],
        replicates=12, calibration_replicates=2)))
    out = tmp_path / "run"
    rc = cli_main(["covariance", "--config", str(cfg_path), "--seed", "99",
                   "--workers", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["master_seed"] == 99
    rc2 = cli_main(["report", "--out", str(out)])
    assert rc2 == 0
    assert "table covariance" in capsys.readouterr().out


def test_cli_oracle_subcommand(tmp_path, capsys):
    rc = cli_main(["oracle", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "oracle.csv").exists()

    def refuse(name):
        raise ValueError(f"report.json holds {name}")

    # strict JSON: the extrapolated row's N = inf is null, not Infinity
    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)
    assert [None] == [row[2] for row in report["tables"]["oracle"]
                      if row[0] == "lemma_twotime_extrapolated_1_2"]
    text = capsys.readouterr().out
    assert "limiting_constant" in text


def test_cli_invalid_config_lists_violations(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(kind="covariance", replicates=0,
                                        times=[], lags=[])))
    rc = cli_main(["covariance", "--config", str(cfg_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "replicates" in err and "times" in err


@pytest.mark.parametrize("body, message", [
    (dict(kind="clt", boundary="dirichlet"), "unknown config field 'boundary'"),
    (dict(kind="covariance"), "is a 'covariance' config, not 'clt'"),
    ([{"kind": "clt"}], "a config file holds one JSON object"),
    # wrongly typed fields: ConfigError before any rule reads them
    (dict(n_values=None), "n_values must be a list of finite numbers"),
    (dict(lags=None), "lags must be a list of finite numbers"),
    (dict(n_values=[50, "a"]), "n_values must be a list of finite numbers"),
    (dict(times="1.0"), "times must be a list of finite numbers"),
    (dict(dx="0.1"), "dx must be a finite number"),
    (dict(dt="0.005"), "dt must be a finite number or null"),
    (dict(gbar_probe=[1, 2]), "gbar_probe must be a dict of finite numbers"),
    (dict(gbar_probe={"x": None}), "gbar_probe.x must be a finite number"),
    (dict(shift_probes=None), "shift_probes must be a list of [x, y] pairs"),
    (dict(n_values=[float("inf")]), "n_values must be a list of finite numbers"),
    (dict(lags=[float("nan")]), "lags must be a list of finite numbers"),
])
def test_cli_config_file_errors_exit_2(tmp_path, capsys, body, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(body))
    rc = cli_main(["clt", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, message", [
    (["clt", "--config", "{dir}/bad.json"], "not valid JSON"),
    (["clt", "--config", "{dir}/missing.json"], "cannot read the config file"),
    (["report", "--out", "{dir}"], "cannot read the run report"),
    (["oracle", "--out", "{dir}/bad.json"], "cannot create the run directory"),
])
def test_cli_unreadable_input_exits_2(tmp_path, capsys, argv, message):
    # a malformed config, a missing config, a run directory without a
    # report and an --out naming a file each print one message, with no
    # traceback
    (tmp_path / "bad.json").write_text('{"kind": "clt",')
    rc = cli_main([a.format(dir=tmp_path) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("body, key", [
    ({}, "config"),
    ([], "config"),
    ({"config": {"kind": "clt"}, "tables": {}, "verdicts": [], "wallclock_s": 1.0},
     "config.master_seed"),
])
def test_cli_report_without_run_report_keys_exits_2(tmp_path, capsys, body, key):
    # valid JSON that is not a run report names the missing key, with no traceback
    (tmp_path / "report.json").write_text(json.dumps(body))
    rc = cli_main(["report", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"not a run report: no key '{key}'" in err and "Traceback" not in err


_REPORT = {"config": {"kind": "clt", "master_seed": 1}, "tables": {"clt": []},
           "verdicts": [{"criterion": "c", "passed": True, "detail": {}}],
           "wallclock_s": 1.0}


@pytest.mark.parametrize("over, message", [
    ({"wallclock_s": "fast"}, "key 'wallclock_s' is not a number"),
    ({"tables": []}, "key 'tables' is not an object"),
    ({"verdicts": [{"criterion": "c"}]}, "no key 'verdicts[0].passed'"),
    ({"wallclock_s": False}, "key 'wallclock_s' is not a number"),
    ({"config": {"kind": "clt", "master_seed": True}},
     "key 'config.master_seed' is not an integer"),
])
def test_cli_report_with_wrongly_typed_values_exits_2(tmp_path, capsys, over, message):
    # a run report whose values _print_report cannot print names the first
    # bad key, with no traceback; the well-formed report prints
    (tmp_path / "report.json").write_text(json.dumps(_REPORT))
    assert cli_main(["report", "--out", str(tmp_path)]) == 0
    (tmp_path / "report.json").write_text(json.dumps({**_REPORT, **over}))
    rc = cli_main(["report", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"not a run report: {message}" in err and "Traceback" not in err


def test_cli_config_file_takes_kind_from_subcommand(tmp_path, capsys):
    # a file without `kind` is read as the subcommand's kind
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(replicates=0)))
    rc = cli_main(["clt", "--config", str(cfg_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid experiment config" in err and "replicates" in err



_COV = dict(dx=0.1, half_width=12.0, times=[0.5], replicates=24)


@pytest.mark.parametrize("command, body, needle", [
    # a grid with no cell at x = 0 is refused first (the id names the empty
    # first_moment_xmax window it used to reach)
    pytest.param("diagnostics", dict(dx=0.1, half_width=1.05, times=[0.01], replicates=8,
                                     first_moment_xmax=0.0), "half_width",
                 id="diagnostics-body0-first_moment_xmax"),
    ("covariance", dict(_COV, bulk_window=[0.01, 0.02], lags=[0.0]), "bulk_window"),
    ("covariance", dict(_COV, bulk_window=[-0.05, 0.05], lags=[0.0]), "bulk_window"),
    ("covariance", dict(_COV, bulk_window=[-3.05, 3.05], lags=[0.0, 6.1]), "bulk_window"),
    ("shift-check", dict(dx=0.05, half_width=15.0, times=[0.5], shift_s=0.45,
                         shift_probes=[[5.0, -5.0]], replicates=8), "shift_probes"),
])
def test_cli_exits_2_on_a_probe_the_scheme_cannot_serve(tmp_path, capsys, command,
                                                        body, needle):
    # every field passes its own rule, but the engine, the covariance
    # reduction or the shift identity cannot serve the probe: one message
    # naming the field, no traceback and no run directory
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(body))
    rc = cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


# small edge configs of every kind: grids with and without a cell at x = 0
# (half_width 3.0 gives 61 cells with one at x = 0; 2.95 would give 60 at
# the half cells, and GridSpec refuses it), windows of 0, 1 and 2 cells, a
# lag at the cell span, lags past the grid's edge and past the noise cone
# (the first chaos then needs a wider grid, or has none), reads at the noise
# cone's edge, and shift probes
# either side of heat-kernel underflow; True when validate() must refuse
# the config
_EDGE_COV = dict(kind="covariance", dx=0.1, half_width=3.0, times=[0.05], replicates=4)
_EDGE_CLT = dict(kind="clt", dx=0.1, half_width=5.0, times=[0.05], n_values=[3.0],
                 replicates=50, calibration_replicates=2)
_EDGE_DIAG = dict(kind="diagnostics", dx=0.1, half_width=1.0, times=[0.01],
                  replicates=4, first_moment_xmax=0.0)
_EDGE_SHIFT = dict(kind="shift_check", dx=0.1, half_width=12.0, times=[0.5],
                   shift_s=0.45, replicates=4)
_EDGE_CONFIGS = {
    "cov-0-cells": (dict(_EDGE_COV, bulk_window=[0.01, 0.02], lags=[0.0]), True),
    "cov-1-cell": (dict(_EDGE_COV, bulk_window=[-0.05, 0.05], lags=[0.0]), True),
    "cov-2-cells-lag-at-span": (dict(_EDGE_COV, bulk_window=[0.0, 0.1], lags=[0.0, 0.1]),
                                False),
    "cov-lag-at-span": (dict(_EDGE_COV, bulk_window=[-1.05, 1.05], lags=[0.0, 2.0]), False),
    "cov-lag-past-span": (dict(_EDGE_COV, bulk_window=[-1.05, 1.05], lags=[0.0, 2.1]),
                          True),
    "cov-default-window": (dict(_EDGE_COV, lags=[0.0, 0.5]), False),
    "cov-lag-past-grid-edge": (dict(_EDGE_COV, times=[0.02], bulk_window=[-1.8, 1.8],
                                    lags=[0.0, 3.5]), False),
    "cov-lag-past-cone": (dict(_EDGE_COV, times=[0.01], bulk_window=[-2.2, 2.2],
                               lags=[0.0, 4.0]), False),
    "cov-even-1-cell": (dict(_EDGE_COV, half_width=2.95, bulk_window=[0.0, 0.1],
                             lags=[0.0]), True),
    "cov-even-lag-at-span": (dict(_EDGE_COV, half_width=2.95, bulk_window=[-0.5, 0.5],
                                  lags=[0.0, 0.9]), True),
    "clt-odd": (_EDGE_CLT, False),
    "clt-even": (dict(_EDGE_CLT, half_width=4.95, n_values=[3.05]), True),
    "clt-cone-edge": (dict(_EDGE_CLT, times=[0.015], n_values=[3.3]), False),
    "clt-past-cone": (dict(_EDGE_CLT, times=[0.015], n_values=[3.4]), True),
    "fdd-odd": (dict(_EDGE_CLT, kind="fdd", times=[0.025, 0.05], replicates=3), False),
    "fdd-even": (dict(_EDGE_CLT, kind="fdd", half_width=4.95, times=[0.025, 0.05],
                      n_values=[3.05], replicates=3), True),
    "fdd-early-past-cone": (dict(_EDGE_CLT, kind="fdd", times=[0.01, 0.05], replicates=3),
                            True),
    "diag-even-0-cells": (dict(_EDGE_DIAG, half_width=1.05), True),
    "diag-1-cell": (_EDGE_DIAG, False),
    "diag-even-2-cells-holder": (dict(_EDGE_DIAG, half_width=1.05, first_moment_xmax=0.05,
                                      holder_s_values=[0.005, 0.01]), True),
    "diag-gbar-cone-edge": (dict(_EDGE_DIAG, half_width=3.0,
                                 gbar_probe={"t": 0.01, "x": 2.2}), False),
    "diag-gbar-past-cone": (dict(_EDGE_DIAG, half_width=3.0,
                                 gbar_probe={"t": 0.01, "x": 2.3}), True),
    "shift-near-underflow": (dict(_EDGE_SHIFT, shift_probes=[[3.7, -3.7]]), False),
    "shift-underflow": (dict(_EDGE_SHIFT, shift_probes=[[3.8, -3.8]]), True),
    "shift-first-and-last-step": (dict(_EDGE_SHIFT, half_width=7.0, shift_s=0.495,
                                       times=[0.5], shift_probes=[[0.0, 0.0]]), False),
    "oracle": (dict(kind="oracle_suite"), False),
}


@pytest.mark.parametrize("name", sorted(_EDGE_CONFIGS))
def test_edge_configs_are_refused_or_run(name):
    # validate() raises ConfigError or run() completes; any other exception
    # fails the test
    body, refused = _EDGE_CONFIGS[name]
    cfg = ExperimentConfig(**body)
    if refused:
        with pytest.raises(ConfigError):
            cfg.validate()
    else:
        run(cfg)
