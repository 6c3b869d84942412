"""Layer spans recorded from outside the program.

`instrument` wraps public callables of a built runner's `System` and the
`demandflow.runner` module functions the runner calls once per tick,
request or node.  Per-message calls (`next_message`, `publish`) are never
wrapped: at millions of calls per run the wrappers would cost more than
the work they time.  Each span keeps a name, a start, an end and the
span that was open when it started; a layer's self time is its spans'
time minus the time of their child spans.
"""

from __future__ import annotations

import gzip
import math
import statistics
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import demandflow.runner as runner_module
from demandflow import ScenarioRunner
from demandflow.model import ServiceKind

# Span name -> the per-layer self-time metric it is charged to.  Every
# span is charged to exactly one metric, so the metrics add up to the
# root span (run) plus render.
SELF_TIME_METRICS = {
    "runner.run": "runner.self_s",
    "runner.deliver": "runner.deliver_s",
    "runner.drain": "runner.drain_s",
    "runner.publish_source_data": "cluster.publish_s",
    "cluster.tick": "cluster.tick_s",
    "cluster.topics_visible_at": "cluster.topics_s",
    "cluster.deploy_instance": "cluster.lifecycle_s",
    "cluster.terminate_instance": "cluster.lifecycle_s",
    "cluster.reconfigure_instance": "cluster.lifecycle_s",
    "detector.observe_pose": "detector.observe_pose_s",
    "detector.evaluate": "detector.evaluate_s",
    "manager.handle_request": "manager.handle_request_s",
    "manager.upgrade_application": "manager.handle_request_s",
    "catalog.resolve": "catalog.resolve_s",
    "store.apply_cr": "store.write_s",
    "store.delete_cr": "store.write_s",
    "store.update_status": "store.write_s",
    "store.get_cr": "store.read_s",
    "store.get_spec": "store.read_s",
    "store.exists": "store.read_s",
    "store.list_crs": "store.read_s",
    "operators.run_pending": "operators.reconcile_s",
    "operators.reconcile": "operators.reconcile_s",
    "tracing.request": "tracing.record_s",
    "tracing.cr_applied": "tracing.record_s",
    "tracing.ledger_state": "tracing.record_s",
    "tracing.instance_action": "tracing.record_s",
    "tracing.topics": "tracing.record_s",
    "tracing.error": "tracing.record_s",
    "tracing.render": "tracing.render_s",
}

STORE_WRITES = ("store.apply_cr", "store.delete_cr", "store.update_status")


class Spans:
    """In-memory span log: parallel arrays, one entry per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Callable[[object, tuple, float], None] | None = None,
    ) -> Callable:
        """`fn` recorded as span `name`.

        `after(result, args, seconds)` runs outside the span, so its cost
        is charged to the enclosing span's self time.
        """
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        name_ids, parents, starts, ends = (
            self.name_id, self.parent, self.start, self.end
        )
        stack = self._open

        def spanned(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args, ends[index] - starts[index])
            return result

        return spanned

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(own)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += own[index]
        return [o - c for o, c in zip(own, child)]

    def dump(self, path: Path) -> None:
        """Write one tab-separated line per span, times relative to the first."""
        origin = self.start[0] if len(self) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for index in range(len(self)):
                out.write(
                    f"{index}\t{self.parent[index]}\t"
                    f"{self.names[self.name_id[index]]}\t"
                    f"{self.start[index] - origin:.9f}\t"
                    f"{self.end[index] - origin:.9f}\n"
                )


class Counts:
    """Counters gathered at the same boundaries as the spans."""

    def __init__(self) -> None:
        self.request_ids: Counter[str] = Counter()
        self.transitions = 0
        self.produced = 0
        self.forwarded = 0
        self.instances = 0
        self.instances_max = 0
        self.senders: set[str] = set()  # one live sender per connection
        # (live connections, duration) per cluster tick
        self.tick_load: list[tuple[int, float]] = []

    def on_request(self, result, args, seconds) -> None:
        self.request_ids[args[0].request_id] += 1

    def on_evaluate(self, result, args, seconds) -> None:
        self.transitions += len(result)

    def on_deploy(self, instance_id, args, seconds) -> None:
        self.instances += 1
        self.instances_max = max(self.instances_max, self.instances)
        if args[0].service_kind is ServiceKind.COMM_SENDER:
            self.senders.add(instance_id)

    def on_terminate(self, result, args, seconds) -> None:
        self.instances -= 1
        self.senders.discard(args[0])

    def on_tick(self, report, args, seconds) -> None:
        self.produced += report.produced
        self.forwarded += report.forwarded
        self.tick_load.append((len(self.senders), seconds))


@contextmanager
def instrument(runner: ScenarioRunner, spans: Spans, counts: Counts) -> Iterator[None]:
    """Wrap the runner's layers for the duration of the block."""
    system = runner.system
    wrap = spans.wrap
    patches = [
        (runner, "run", "runner.run", None),
        (system.detector, "observe_pose", "detector.observe_pose", None),
        (system.detector, "evaluate", "detector.evaluate", counts.on_evaluate),
        (system.manager, "handle_request", "manager.handle_request", counts.on_request),
        (system.manager, "upgrade_application", "manager.upgrade_application", None),
        (system.catalog, "resolve", "catalog.resolve", None),
        (system.sim, "tick", "cluster.tick", counts.on_tick),
        (system.sim, "topics_visible_at", "cluster.topics_visible_at", None),
        (system.sim, "deploy_instance", "cluster.deploy_instance", counts.on_deploy),
        (system.sim, "terminate_instance", "cluster.terminate_instance",
         counts.on_terminate),
        (system.sim, "reconfigure_instance", "cluster.reconfigure_instance", None),
    ]
    for method in ("apply_cr", "delete_cr", "update_status",
                   "get_cr", "get_spec", "exists", "list_crs"):
        patches.append((system.store, method, f"store.{method}", None))
    for operator in (system.service_op, system.connection_op):
        patches.append((operator, "run_pending", "operators.run_pending", None))
        patches.append((operator, "reconcile", "operators.reconcile", None))
    for method in ("request", "cr_applied", "ledger_state",
                   "instance_action", "topics", "error", "render"):
        patches.append((system.trace, method, f"tracing.{method}", None))
    for function in ("deliver", "drain", "publish_source_data"):
        patches.append((runner_module, function, f"runner.{function}", None))

    applied = []
    try:
        for target, attr, name, after in patches:
            original = getattr(target, attr)
            setattr(target, attr, wrap(name, original, after))
            applied.append((target, attr, original))
        yield
    finally:
        for target, attr, original in applied:
            if target is runner_module:
                setattr(target, attr, original)
            else:
                # Drop the instance attribute so the class method shows again.
                delattr(target, attr)


def log_log_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(median duration) against log(load).

    Durations are first reduced to their median per load value, so the
    many ticks at one load do not outvote the few at another.
    """
    by_load: dict[int, list[float]] = defaultdict(list)
    for load, duration in points:
        if load > 0 and duration > 0:
            by_load[load].append(duration)
    if len(by_load) < 2:
        return float("nan")
    xs = [math.log(load) for load in by_load]
    ys = [math.log(statistics.median(d)) for d in by_load.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(spans: Spans, counts: Counts, runner: ScenarioRunner) -> dict[str, float]:
    """Per-layer self times and counts of one traced run."""
    self_times = spans.self_times()
    metrics: dict[str, float] = dict.fromkeys(sorted(set(SELF_TIME_METRICS.values())), 0.0)
    names = [spans.names[i] for i in spans.name_id]
    for name, seconds in zip(names, self_times):
        metrics[SELF_TIME_METRICS[name]] += seconds
    per_name = Counter(names)

    rounds: Counter[int] = Counter(
        parent
        for name, parent in zip(names, spans.parent)
        if name == "operators.run_pending" and parent >= 0
        and names[parent] == "runner.drain"
    )
    # Each drain round runs both operators once.
    drain_rounds_max = max(rounds.values(), default=0) // 2

    reconciles = per_name["operators.reconcile"]
    actions = per_name["tracing.instance_action"]
    system = runner.system
    metrics.update({
        "cluster.produced": counts.produced,
        "cluster.forwarded": counts.forwarded,
        "cluster.instances_max": counts.instances_max,
        "cluster.tick_growth": log_log_slope(counts.tick_load),
        "tracing.records": len(system.trace.records),
        "manager.requests": per_name["manager.handle_request"],
        "manager.redelivered": sum(n - 1 for n in counts.request_ids.values()),
        "store.writes": sum(per_name[n] for n in STORE_WRITES),
        "store.event_log_len": len(system.store.event_log),
        "operators.reconciles": reconciles,
        "operators.actions": actions,
        "operators.useful_ratio": actions / reconciles if reconciles else 0.0,
        "runner.drain_rounds_max": drain_rounds_max,
        "detector.transitions": counts.transitions,
    })
    return metrics
