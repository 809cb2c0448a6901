"""Command-line entry point.

    tasnic run --scenario FILE --out DIR [--format json|csv] [--seed N] [--trace]
    tasnic validate --scenario FILE [--dump-topology]
    tasnic sweep --dir SCENARIOS --out DIR [--format json|csv]

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import emit_report, run_scenario
from .scenario import Scenario, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _load(path: str) -> Scenario | int:
    """The scenario at ``path``, or the exit code once its errors are printed."""
    try:
        return load_scenario(path)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_IO
    except ScenarioError as exc:
        for err in exc.errors:
            print(f"validation: {err}", file=sys.stderr)
        return EXIT_VALIDATION


def _run_file(path: str, out: str, fmt: str, seed: int | None = None,
              trace: bool = False) -> int:
    """Load, run and report the scenario at ``path`` into ``out``; prints the
    written paths and returns the exit code."""
    scenario = _load(path)
    if isinstance(scenario, int):
        return scenario
    if seed is not None:
        scenario.seed = seed
    if trace:
        scenario.trace = True
    result = run_scenario(scenario)
    try:
        written = emit_report(result, fmt, out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    for written_path in written:
        print(written_path)
    return EXIT_OK


def _cmd_run(args) -> int:
    return _run_file(args.scenario, args.out, args.format, args.seed, args.trace)


def _cmd_validate(args) -> int:
    scenario = _load(args.scenario)
    if isinstance(scenario, int):
        return scenario
    print(f"ok: {args.scenario} (digest {scenario.digest()[:16]})")
    if args.dump_topology:
        print(scenario.build_fabric().echo())
    return EXIT_OK


def _cmd_sweep(args) -> int:
    src = Path(args.dir)
    if not src.is_dir():
        print(f"error: {src} is not a directory", file=sys.stderr)
        return EXIT_IO
    files = sorted(src.glob("*.json"))
    if not files:
        print(f"error: no scenario files in {src}", file=sys.stderr)
        return EXIT_VALIDATION
    worst = EXIT_OK
    for path in files:
        code = _run_file(str(path), str(Path(args.out) / path.stem), args.format)
        print(f"{'ok' if code == EXIT_OK else 'FAILED'}: {path}")
        worst = max(worst, code)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="tasnic",
                                     description="time-aware NIC fabric simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and emit a report")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--trace", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.add_argument("--dump-topology", action="store_true")
    p_val.set_defaults(fn=_cmd_validate)

    p_sweep = sub.add_parser("sweep", help="run every scenario in a directory")
    p_sweep.add_argument("--dir", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")
    p_sweep.set_defaults(fn=_cmd_sweep)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
