"""The demandflow benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The program is imported from `src/` next
to this directory and nowhere else; without it the command exits with
code 2 and prints no result.  Everything runs in this one
single-threaded process.

--trace 0 times the public API (`ScenarioRunner(...)` -> `run()` ->
`Trace.render()`) with nothing wrapped, repeating whole runs until
--seconds are used, and reports the end-to-end metrics.  --trace 1
alternates that untraced run with a traced one whose layers are wrapped
from outside (see spans.py) and reports the per-layer metrics of the
median traced run.  --smoke runs the three bundled scenarios through the
same code once and compares `collective_perception` with its golden
trace.

Every run's output is checked: the rendered trace must have the same
digest on every run of an episode, traced or not; the system must end
with no instances and no custom resources; and on `scale` the fusion
service must be deployed once, reconfigured 2N-2 times and terminated
once.  ERROR trace records are counted as failed, against REQUEST
records as attempted; they do not stop the run.  The metric names and
units are those BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("scale", "churn", "drive")


class ProgramMissing(RuntimeError):
    pass


def load_program() -> None:
    """Make `demandflow` importable from this checkout's `src/` only."""
    if not (SRC / "demandflow" / "__init__.py").is_file():
        raise ProgramMissing(f"no demandflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import demandflow

    if SRC not in Path(demandflow.__file__).resolve().parents:
        raise ProgramMissing(f"demandflow imported from {demandflow.__file__}")


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the harness on the bundled scenarios")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2

    import measure
    from workloads import WORKLOADS

    if args.smoke:
        return 0 if measure.smoke() else 1

    workload = WORKLOADS[args.workload]
    episodes = workload.generate(args.seed)
    if args.trace:
        # Layers are split on the first episode only.
        spans_path = SPANS_DIR / f"spans-{workload.name}-{args.seed}.tsv.gz"
        metrics, runs = measure.traced_metrics(
            workload, episodes[0], args.seconds, spans_path
        )
    else:
        metrics, runs = measure.untraced_metrics(workload, episodes, args.seconds)

    units = declared_metrics(args.trace)
    problems = measure.report_problems(runs)
    if set(metrics) != set(units):
        problems.append(f"measured {sorted(metrics)}, declared {sorted(units)}")
    problems += [f"{name} is {value}" for name, value in metrics.items()
                 if not math.isfinite(value)]
    for digest in sorted({r.digest for r in runs}):
        print(f"trace digest {digest}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.requests for r in runs),
        "failed": sum(r.errors for r in runs),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
