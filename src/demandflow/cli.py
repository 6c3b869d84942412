"""Command-line interface.

Exit codes: 0 on success, 1 when a golden comparison fails, 2 for
scenario, request or trace file problems, a negative `--ticks` and an
unknown `--log-level`, 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .model import OrchestrationError, ResourceKind, ScenarioError
from .runner import ScenarioRunner, build_system, deliver, drain
from .scenario import Scenario, load_request_file, load_scenario
from .tracing import assert_trace

EXIT_OK = 0
EXIT_DIFF = 1
EXIT_SCENARIO = 2
EXIT_RUNTIME = 3

DEFAULT_SCENARIO = "collective_perception"


def bundled_scenario_path(name: str) -> Path:
    return Path(__file__).parent / "scenarios" / f"{name}.yaml"


def _resolve_scenario(arg: str) -> Path:
    path = Path(arg)
    if path.exists():
        return path
    bundled = bundled_scenario_path(arg)
    if bundled.exists():
        return bundled
    raise ScenarioError(
        f"no scenario file {arg!r} and no bundled scenario of that name"
    )


def _load(arg: str, ticks: int | None = None) -> Scenario:
    scenario = load_scenario(_resolve_scenario(arg))
    if ticks is not None:
        if ticks < 0:
            raise ScenarioError("--ticks must be a non-negative integer")
        scenario = replace(scenario, tick_budget=ticks)
    return scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demandflow",
        description="Demand-driven application orchestration on a simulated "
        "vehicle/edge cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario end to end")
    run_p.add_argument("scenario", help="scenario file or bundled scenario name")
    run_p.add_argument("--trace-out", metavar="PATH", help="write the run trace here")
    run_p.add_argument(
        "--golden", metavar="PATH", help="compare the trace against this golden file"
    )
    run_p.add_argument(
        "--duplicate-delivery",
        action="store_true",
        help="deliver every request twice to exercise idempotency",
    )
    run_p.add_argument(
        "--ticks", type=int, metavar="N", help="override the scenario tick budget"
    )
    run_p.add_argument(
        "--log-level", default="WARNING", metavar="LEVEL",
        help="logging level (DEBUG, INFO, ...)",
    )

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("scenario", help="scenario file or bundled scenario name")

    inj_p = sub.add_parser(
        "inject", help="apply one hand-written request to a fresh system"
    )
    inj_p.add_argument("request_file", help="request file (yaml)")
    inj_p.add_argument(
        "--scenario",
        default=DEFAULT_SCENARIO,
        help="scenario supplying topology and applications "
        f"(default: {DEFAULT_SCENARIO})",
    )

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    level = logging.getLevelName(args.log_level.upper())
    if not isinstance(level, int):
        print(f"unknown --log-level {args.log_level!r}", file=sys.stderr)
        return EXIT_SCENARIO
    logging.basicConfig(level=level)
    try:
        scenario = _load(args.scenario, ticks=args.ticks)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    try:
        runner = ScenarioRunner(
            scenario, duplicate_delivery=args.duplicate_delivery
        )
        trace = runner.run()
    except OrchestrationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        if args.trace_out:
            trace.write(args.trace_out)
        report = assert_trace(trace, args.golden) if args.golden else None
    except (OSError, UnicodeDecodeError) as exc:
        print(f"trace file error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    live = len(runner.system.sim.instances())
    print(
        f"{scenario.name}: {scenario.tick_budget} ticks, "
        f"{len(trace.records)} trace records, {live} instances live"
    )
    if report is not None:
        if not report.ok:
            print(report.describe(), file=sys.stderr)
            return EXIT_DIFF
        print("trace matches golden")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        scenario = _load(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    timeline = scenario.timeline
    detail = (
        f"{len(timeline.events)} scripted events"
        if timeline.mode == "scripted"
        else f"waypoints for {len(timeline.waypoints)} vehicles"
    )
    print(
        f"ok: {scenario.name} ({len(scenario.entities)} entities, {detail}, "
        f"{scenario.tick_budget} ticks)"
    )
    return EXIT_OK


def _cmd_inject(args: argparse.Namespace) -> int:
    try:
        scenario = _load(args.scenario)
        request = load_request_file(args.request_file)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    try:
        system = build_system(scenario)
        deliver(system, request)
        drain(system)
    except OrchestrationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for line in system.trace.lines():
        print(line)
    for kind in ResourceKind:
        for name in system.store.list_crs(kind):
            resource = system.store.get_cr(kind, name)
            print(
                f"{kind.value}/{name}: generation={resource.generation} "
                f"phase={resource.status.phase.value} "
                f"support={','.join(resource.status.support)}"
            )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "inject": _cmd_inject,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
