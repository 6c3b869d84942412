"""Timed and traced runs of one workload, and the checks on their output.

Imported only after `run.load_program` has put this checkout's `src/`
on the path.  Every time here is calibrated (see calibrate.py): raw host
seconds times the calibration factor measured around the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
from demandflow import ScenarioRunner, Trace
from demandflow.cli import bundled_scenario_path
from demandflow.scenario import load_scenario
from demandflow.tracing import assert_trace
from spans import Counts, Spans, instrument, layer_metrics
from workloads import APP, SCALE_VEHICLES, Workload

# Set-ups timed before the runs; every run's own set-up is timed too.
SETUP_REPEATS = 15
# Calibration kernel samples before and after every measured run.
CALIBRATION_REPEATS = 3
# Layer self times must add up to the traced run within this share.
SELF_TIME_TOLERANCE = 0.03


class TickStamps(Trace):
    """A Trace that also stamps the host clock at the start of each tick."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[float] = []

    def at(self, step: int, tick: int) -> None:
        self.stamps.append(time.perf_counter())
        super().at(step, tick)


@dataclass
class RunResult:
    seconds: float          # run() + render(), calibrated
    wall: float             # raw host seconds of the whole measurement
    calibration: float      # factor from raw to calibrated seconds
    digest: str             # of the rendered trace
    requests: int           # REQUEST records
    errors: int             # ERROR records
    render_s: float = 0.0
    tick_ms: list[float] = field(default_factory=list)
    request_ticks: list[int] = field(default_factory=list)  # 0-based
    problems: list[str] = field(default_factory=list)
    episode: int = 0


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def check_run(workload_name: str, runner: ScenarioRunner, problems: list[str]) -> tuple[int, int]:
    """Check one finished run; returns (REQUEST records, ERROR records)."""
    system = runner.system
    live = system.sim.instances()
    if live:
        problems.append(f"{len(live)} instances still live")
    if system.store.total_resources():
        problems.append(f"{system.store.total_resources()} custom resources left")
    if workload_name == "scale":
        fusion = f"svc-{APP}-fusion-singleton"
        actions = Counter(
            record.get("action")
            for record in runner.trace.records
            if record.tag == "ACTION" and record.get("cr") == fusion
        )
        want = {"deploy": 1, "reconfigure": 2 * SCALE_VEHICLES - 2, "terminate": 1}
        if actions != want:
            problems.append(f"fusion actions {dict(actions)}, want {want}")
    tags = Counter(record.tag for record in runner.trace.records)
    return tags["REQUEST"], tags["ERROR"]


def timed_run(workload: Workload, raw) -> tuple[RunResult, float]:
    """Set up and run once untraced; returns the result and the set-up time."""
    stamps = TickStamps()
    gc.collect()
    begun = time.perf_counter()
    kernel_times = calibrate.sample(CALIBRATION_REPEATS)
    started = time.perf_counter()
    runner = workload.setup(raw, trace=stamps)
    ready = time.perf_counter()
    runner.run()
    ran = time.perf_counter()
    text = runner.trace.render()
    done = time.perf_counter()
    kernel_times += calibrate.sample(CALIBRATION_REPEATS)
    factor = calibrate.factor(kernel_times)

    problems: list[str] = []
    ticks = runner.scenario.tick_budget
    if len(stamps.stamps) != ticks:
        problems.append(f"{len(stamps.stamps)} tick stamps for {ticks} ticks")
    ends = stamps.stamps[1:] + [ran]
    requests, errors = check_run(workload.name, runner, problems)
    result = RunResult(
        seconds=(done - ready) * factor,
        wall=time.perf_counter() - begun,
        calibration=factor,
        digest=hashlib.sha256(text.encode()).hexdigest(),
        requests=requests,
        errors=errors,
        render_s=(done - ran) * factor,
        tick_ms=[(end - start) * 1e3 * factor for start, end in zip(stamps.stamps, ends)],
        request_ticks=sorted(
            {r.tick - 1 for r in runner.trace.records if r.tag == "REQUEST"}
        ),
        problems=problems,
    )
    return result, (ready - started) * factor


def traced_run(workload: Workload, raw) -> tuple[RunResult, Spans, dict[str, float]]:
    """Set up and run once with every layer wrapped; returns its layer metrics."""
    runner = workload.setup(raw, trace=Trace())
    spans, counts = Spans(), Counts()
    gc.collect()
    begun = time.perf_counter()
    kernel_times = calibrate.sample(CALIBRATION_REPEATS)
    with instrument(runner, spans, counts):
        started = time.perf_counter()
        runner.run()
        text = runner.trace.render()
        seconds = time.perf_counter() - started
    kernel_times += calibrate.sample(CALIBRATION_REPEATS)
    factor = calibrate.factor(kernel_times)

    problems: list[str] = []
    requests, errors = check_run(workload.name, runner, problems)
    metrics = layer_metrics(spans, counts, runner)
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] *= factor
    layer_sum = sum(v for k, v in metrics.items() if k.endswith("_s"))
    if abs(layer_sum - seconds * factor) > SELF_TIME_TOLERANCE * seconds * factor:
        problems.append(
            f"layer self times add up to {layer_sum:.6f} s, "
            f"traced run took {seconds * factor:.6f} s"
        )
    result = RunResult(
        seconds=seconds * factor,
        wall=time.perf_counter() - begun,
        calibration=factor,
        digest=hashlib.sha256(text.encode()).hexdigest(),
        requests=requests,
        errors=errors,
        problems=problems,
    )
    return result, spans, metrics


def time_setups(workload: Workload, episodes: list, repeats: int) -> tuple[list[float], list[float]]:
    """Time the program's scenario load and the runner construction apart.

    Set-ups cycle through the episodes.  One kernel sample runs between
    set-ups; each set-up is calibrated by the two samples around it.
    """
    build, construct = [], []
    kernel_times = calibrate.sample(1)
    for index in range(repeats):
        gc.collect()
        started = time.perf_counter()
        scenario = workload.load(episodes[index % len(episodes)])
        loaded = time.perf_counter()
        ScenarioRunner(scenario, duplicate_delivery=workload.duplicate_delivery)
        constructed = time.perf_counter()
        kernel_times += calibrate.sample(1)
        factor = calibrate.factor(kernel_times[-2:])
        build.append((loaded - started) * factor)
        construct.append((constructed - loaded) * factor)
    return build, construct


def keep_going(started: float, seconds: float, walls: list[float]) -> bool:
    """Another run fits in the budget if the last one would still fit."""
    if not walls:
        return True
    return time.perf_counter() - started + walls[-1] <= seconds


def untraced_metrics(workload: Workload, episodes: list, seconds: float) -> tuple[dict, list[RunResult]]:
    """End-to-end metrics over runs that cycle through the episodes."""
    build, construct = time_setups(workload, episodes, SETUP_REPEATS)
    setups = [b + c for b, c in zip(build, construct)]
    runs: list[RunResult] = []
    started = time.perf_counter()
    while len(runs) < len(episodes) or keep_going(started, seconds, [r.wall for r in runs]):
        result, setup = timed_run(workload, episodes[len(runs) % len(episodes)])
        result.episode = len(runs) % len(episodes)
        runs.append(result)
        setups.append(setup)
        print(
            f"run {len(runs)}: {result.seconds:.4f} s calibrated, "
            f"{result.seconds / result.calibration:.4f} s raw"
        )
    # The same tick of an episode does the same work in every run, so the
    # median over runs of its time drops host-speed bursts that hit a
    # minority of runs; percentiles are then taken over these medians.
    tick_ms: list[float] = []
    react_ms: list[float] = []
    run_s: list[float] = []
    for episode in range(len(episodes)):
        mine = [r for r in runs if r.episode == episode]
        ticks = [statistics.median(times) for times in zip(*(r.tick_ms for r in mine))]
        tick_ms += ticks
        react_ms += [ticks[t] for t in mine[0].request_ticks]
        # run() is the sum of its ticks, each taken at its median.
        run_s.append(sum(ticks) / 1e3 + statistics.median(r.render_s for r in mine))
    attempted = sum(r.requests for r in runs)
    failed = sum(r.errors for r in runs)
    print(
        f"{workload.name}: {len(runs)} runs of {len(episodes)} episode(s), "
        f"{len(tick_ms)} ticks ({len(react_ms)} with requests), "
        f"{len(setups)} set-ups, {failed} ERROR of {attempted} REQUEST records"
    )
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.fmean(run_s),
        "tick_ms_p50": statistics.median(tick_ms),
        "tick_ms_p99": percentile(tick_ms, 99),
        "react_ms_p50": statistics.median(react_ms),
        "react_ms_p95": percentile(react_ms, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1 - failed / attempted,
    }, runs


def traced_metrics(
    workload: Workload, raw, seconds: float, spans_path: Path
) -> tuple[dict, list[RunResult]]:
    """Per-layer metrics of the median traced run; its spans go to `spans_path`."""
    build, construct = time_setups(workload, [raw], SETUP_REPEATS)
    untraced: list[RunResult] = []
    traced: list[tuple[RunResult, Spans, dict[str, float]]] = []
    started = time.perf_counter()
    while keep_going(
        started, seconds, [u.wall + t[0].wall for u, t in zip(untraced, traced)]
    ):
        untraced.append(timed_run(workload, raw)[0])
        traced.append(traced_run(workload, raw))
    traced.sort(key=lambda item: item[0].seconds)
    median_run, spans, metrics = traced[(len(traced) - 1) // 2]
    metrics.update({
        "scenario.build_s": statistics.median(build),
        "runner.build_system_s": statistics.median(construct),
        "traced.run_s": median_run.seconds,
        "tracing.overhead": median_run.seconds
        / statistics.median(u.seconds for u in untraced),
    })
    spans.dump(spans_path)
    print(
        f"{workload.name}: {len(traced)} traced runs; median run has "
        f"{len(spans)} spans, written to {spans_path}"
    )
    return metrics, untraced + [run for run, _, _ in traced]


def report_problems(runs: list[RunResult]) -> list[str]:
    problems = [p for r in runs for p in r.problems]
    for episode in sorted({r.episode for r in runs}):
        digests = {r.digest for r in runs if r.episode == episode}
        if len(digests) != 1:
            problems.append(f"episode {episode}: {len(digests)} different trace digests")
    return problems


def smoke() -> bool:
    """Run the bundled scenarios once, untraced and traced, and check them.

    Also compares `collective_perception` with its golden trace.
    """
    ok = True
    for name in ("collective_perception", "collective_perception_upgrade",
                 "waypoint_drive"):
        path = bundled_scenario_path(name)
        workload = Workload(name, generate=lambda seed, path=path: [path], load=load_scenario)
        untraced, _ = timed_run(workload, path)
        traced, spans, _ = traced_run(workload, path)
        problems = report_problems([untraced, traced])
        if name == "collective_perception":
            runner = workload.setup(path)
            runner.run()
            report = assert_trace(runner.trace, path.with_suffix(".trace"))
            if not report.ok:
                problems.append(report.describe())
        ok = ok and not problems
        print(
            f"{name}: {'ok' if not problems else 'FAILED'}, "
            f"{len(untraced.tick_ms)} ticks, {untraced.requests} REQUEST, "
            f"{untraced.errors} ERROR, {len(spans)} spans"
            + "".join(f"\n  {p}" for p in problems)
        )
    return ok
