import json
import os

import numpy as np
import pytest

from shelab.cli import main as cli_main
from shelab.experiments import (ConfigError, ExperimentConfig, FitDecayResult,
                                fit_decay, run, write_csv)
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
])
def test_validation_rejects_diagnostics_probes(over, needle):
    _tiny_diag_cfg().validate()
    with pytest.raises(ConfigError) as err:
        _tiny_diag_cfg(**over).validate()
    assert any(needle in v for v in err.value.violations)


def test_validation_fdd_needs_two_times():
    cfg = ExperimentConfig(kind="fdd", dx=0.1, half_width=30.0,
                           times=[0.25, 0.5, 1.0], n_values=[5.0], replicates=1)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    msgs = "\n".join(err.value.violations)
    assert "exactly two times" in msgs and "replicates" in msgs


def test_unknown_config_field_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "clt", "replicas": 5})


def test_kind_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nope").validate()


def test_csv_bodies_identical_across_worker_counts(tmp_path):
    outs = {}
    for workers in (1, 3):
        d = tmp_path / f"w{workers}"
        cfg = _tiny_cov_cfg(workers=workers, out_dir=str(d),
                            fit_window=[1.0, 3.0])
        run(cfg)
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


def test_simulate_kind_persists_fields(tmp_path):
    from shelab.fieldio import load_field
    from shelab.noise import NoiseStream
    from shelab.sim import evolve

    cfg = ExperimentConfig(kind="simulate", master_seed=3, dx=0.1,
                           half_width=3.0, times=[0.05, 0.1], replicates=2,
                           calibration_replicates=1, out_dir=str(tmp_path))
    report = run(cfg)
    files = sorted(p for p in os.listdir(tmp_path) if p.endswith(".shefld"))
    assert len(files) == 4
    f, rep = load_field(tmp_path / files[0])
    ref = evolve(f.grid, NoiseStream(3, rep), [f.time])[0]
    assert np.array_equal(f.values, ref.values)


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
