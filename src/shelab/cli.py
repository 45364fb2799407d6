"""Command-line entry point.

Subcommands mirror the experiment kinds:

    shelab simulate     --config cfg.json [--seed S] [--workers N] [--out DIR]
    shelab covariance   ...
    shelab clt          ...
    shelab fdd          ...
    shelab shift-check  ...
    shelab oracle       ...
    shelab diagnostics  ...
    shelab report       --out DIR     (pretty-print an existing run report)

The config file is JSON with the fields of ExperimentConfig; command-line
--seed/--workers/--out override the file.  Every run echoes its full config
into report.json next to the CSV tables.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import ConfigError, ExperimentConfig, run

_KIND_BY_COMMAND = {
    "simulate": "simulate",
    "covariance": "covariance",
    "clt": "clt",
    "fdd": "fdd",
    "shift-check": "shift_check",
    "oracle": "oracle_suite",
    "diagnostics": "diagnostics",
}


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.add_argument("--workers", type=int, help="worker processes (overrides config)")
    p.add_argument("--out", help="output directory (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shelab",
        description="Monte Carlo experiments on the stochastic heat equation")
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in _KIND_BY_COMMAND:
        p = sub.add_parser(cmd, help=f"run the {cmd} experiment")
        _add_common(p)
    p = sub.add_parser("report", help="pretty-print a run report")
    p.add_argument("--out", required=True, help="run directory containing report.json")
    return ap


def _print_report(report_dict):
    cfg = report_dict["config"]
    print(f"kind={cfg['kind']}  seed={cfg['master_seed']}  "
          f"replicates={cfg.get('replicates')}  wallclock={report_dict['wallclock_s']:.1f}s")
    for name, rows in report_dict["tables"].items():
        print(f"table {name}: {len(rows)} rows")
    for v in report_dict["verdicts"]:
        mark = "PASS" if v["passed"] else "FAIL"
        print(f"[{mark}] {v['criterion']}  {v['detail']}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        with open(f"{args.out}/report.json") as fh:
            _print_report(json.load(fh))
        return 0
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig(kind=_KIND_BY_COMMAND[args.command])
    cfg.kind = _KIND_BY_COMMAND[args.command]
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.workers is not None:
        cfg.workers = args.workers
    if args.out is not None:
        cfg.out_dir = args.out
    try:
        report = run(cfg)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    _print_report(json.loads(report.to_json()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
