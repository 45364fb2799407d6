"""Command-line entry point.

Subcommands mirror the experiment kinds:

    shelab covariance   --config cfg.json [--seed S] [--workers N] [--out DIR]
    shelab clt          ...
    shelab fdd          ...
    shelab shift-check  ...
    shelab oracle       ...
    shelab diagnostics  ...
    shelab report       --out DIR     (pretty-print an existing run report)

The config file is JSON with the fields of ExperimentConfig; its `kind` may
be left out, and must otherwise match the subcommand.  Command-line
--seed/--workers/--out override the file.  Every run echoes its full config
into report.json next to the CSV tables.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys

from .experiments import ConfigError, ExperimentConfig, run

_KIND_BY_COMMAND = {
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


# the values _print_report reads and their types; dotted keys are nested
_REPORT_KEYS = (("config", dict), ("tables", dict), ("verdicts", list),
                ("wallclock_s", numbers.Real), ("config.kind", str),
                ("config.master_seed", int))
_VERDICT_KEYS = (("criterion", str), ("passed", bool), ("detail", dict))
_TYPE_NAMES = {dict: "an object", list: "a list", numbers.Real: "a number",
               str: "a string", int: "an integer", bool: "a boolean"}


def _has_type(value, kind):
    """isinstance, except that a bool is not taken for a number: JSON's
    true and false load as Python bools, which are ints."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _report_problem(report_dict):
    """Why _print_report cannot print report_dict, naming its first missing
    or wrongly typed key, or None."""
    for key, kind in _REPORT_KEYS:
        node = report_dict
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                return f"no key '{key}'"
            node = node[part]
        if not _has_type(node, kind):
            return f"key '{key}' is not {_TYPE_NAMES[kind]}"
    for name, rows in report_dict["tables"].items():
        if not isinstance(rows, list):
            return f"key 'tables.{name}' is not a list"
    for i, verdict in enumerate(report_dict["verdicts"]):
        if not isinstance(verdict, dict):
            return f"key 'verdicts[{i}]' is not an object"
        for part, kind in _VERDICT_KEYS:
            if part not in verdict:
                return f"no key 'verdicts[{i}].{part}'"
            if not _has_type(verdict[part], kind):
                return f"key 'verdicts[{i}].{part}' is not {_TYPE_NAMES[kind]}"
    return None


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
        path = f"{args.out}/report.json"
        try:
            with open(path) as fh:
                report_dict = json.load(fh)
        except OSError as e:
            print(f"{path}: cannot read the run report: {e.strerror}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as e:
            print(f"{path}: not valid JSON: {e}", file=sys.stderr)
            return 2
        problem = _report_problem(report_dict)
        if problem is not None:
            print(f"{path}: not a run report: {problem}", file=sys.stderr)
            return 2
        _print_report(report_dict)
        return 0
    kind = _KIND_BY_COMMAND[args.command]
    try:
        if args.config:
            cfg = ExperimentConfig.from_json(args.config, kind=kind)
        else:
            cfg = ExperimentConfig(kind=kind)
        if args.seed is not None:
            cfg.master_seed = args.seed
        if args.workers is not None:
            cfg.workers = args.workers
        if args.out is not None:
            cfg.out_dir = args.out
        report = run(cfg)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    _print_report(json.loads(report.to_json()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
