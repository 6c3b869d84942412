"""Wires detector, manager, store, operators, and cluster into one run.

Each tick: move vehicles, evaluate the geofence, deliver any resulting
requests, drain both reconcile queues in one pass each (the names the
previous drain parked first), publish every entity's source data, then
advance the cluster one step.  The sources are one tuple for the whole
run, so after the first tick the cluster keeps them on its buses and
rebuilds only the nodes a tick can change.  Both timelines
keep one cache of each node's visible topics and its rendered TOPICS
tail: after every tick the nodes the cluster rebuilt are marked stale,
and a refresh recomputes only those, re-rendering a tail only when its
topics change.  Scripted timelines give each event a fixed window of
ticks, refresh at each window's end and write every node's tail from the
cache in one batch; waypoint timelines sample every vehicle on the first
tick, then each only on a leg between waypoints at different places,
refresh after every tick and write the tails of the nodes whose topics
changed.  A table built at the start lists each tick's moving vehicles
with their leg's two waypoints, so such a pose is one `along` call, no
scan of the route.
A request and an upgrade are traced alike: a REQUEST record, then one CR
record per resource written, or one ERROR record if the manager rejected
it.  A redelivered copy that the manager answers from its cache repeats
the first copy's lines, rendered once.  A run ends with one more drain,
so a name parked in the last tick is still retried.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import Catalog
from .cluster import ClusterSim
from .detector import EventDetector
from .manager import AppManager, AccessDomainPolicy, DeploymentRequest, RequestResult
from .model import ResourceKind, source_topic
from .operators import Operator
from .scenario import MODE_SCRIPTED, Scenario, along, interpolate
from .store import ResourceStore
from .tracing import Trace, topics_tail


@dataclass
class System:
    """Everything a running scenario is made of."""

    store: ResourceStore
    catalog: Catalog
    manager: AppManager
    sim: ClusterSim
    detector: EventDetector
    service_op: Operator
    connection_op: Operator
    trace: Trace
    # (node, topic) per entity capability: one message each per tick.
    sources: tuple[tuple[str, str], ...]


def build_system(
    scenario: Scenario,
    trace: Trace | None = None,
    policy: AccessDomainPolicy | None = None,
) -> System:
    trace = trace or Trace()
    topology = scenario.topology  # built once, while loading
    store = ResourceStore()
    catalog = Catalog(topology)
    for template in scenario.templates:
        catalog.register_application(template)
    manager = AppManager(store, catalog, policy)
    sim = ClusterSim()
    for entity in scenario.entities:
        sim.add_node(entity.node_id)
    detector = EventDetector(scenario.rule, topology)
    sources = tuple(
        (entity.node_id, source_topic(entity.entity_id, kind))
        for entity in scenario.entities
        for kind in entity.capabilities
    )
    return System(
        store=store,
        catalog=catalog,
        manager=manager,
        sim=sim,
        detector=detector,
        service_op=Operator(ResourceKind.MANAGED_SERVICE, store, sim, trace),
        connection_op=Operator(ResourceKind.MANAGED_CONNECTION, store, sim, trace),
        trace=trace,
        sources=sources,
    )


def drain(system: System) -> None:
    """One pass of each operator, services first.  Demand is written only
    before a drain, and an operator queues names of its own kind only."""
    system.service_op.run_pending()
    system.connection_op.run_pending()


def deliver(system: System, request: DeploymentRequest, copies: int = 1) -> None:
    """Hand a request to the manager, possibly more than once.

    Each copy traces a REQUEST record and its result's records.  A copy
    the manager answers with the very result it gave the first, from its
    cache, appends the first copy's lines again instead of rendering them.
    """
    trace, action = system.trace, request.action.value
    first = None
    for _ in range(copies):
        result = system.manager.handle_request(request)
        if result is first:
            trace.repeat(written)
            continue
        first = result
        trace.request(
            request.request_id,
            action,
            request.app_name,
            request.requesters,
            request.inputs,
        )
        written = 1 + _trace_result(trace, result, action, "request-rejected")


# What a CR record names each resource kind by.
KIND_NAMES = {kind: kind.value for kind in ResourceKind}


def _trace_result(
    trace: Trace, result: RequestResult, action: str, rejected: str
) -> int:
    """One CR record per write of an accepted result, else one ERROR;
    returns how many records that is."""
    if result.accepted:
        for kind, name, generation in result.applied_crs:
            trace.cr_applied(KIND_NAMES[kind], name, generation, action)
        return len(result.applied_crs)
    trace.error("manager", rejected, f"{result.request_id}:{result.reason}")
    return 1


def publish_source_data(system: System) -> None:
    """Every entity publishes one message per capability on its own node.

    Always the same tuple, so the cluster can keep it on its buses.
    """
    system.sim.publish_sources(system.sources)


class ScenarioRunner:
    def __init__(
        self,
        scenario: Scenario,
        duplicate_delivery: bool = False,
        trace: Trace | None = None,
        policy: AccessDomainPolicy | None = None,
    ):
        self.scenario = scenario
        self.duplicate_delivery = duplicate_delivery
        self.system = build_system(scenario, trace=trace, policy=policy)
        self.trace = self.system.trace
        # Each node's visible topics at the last refresh, in sorted order;
        # exact for the nodes not in `_stale`, as before tick 1 all are ().
        self._topics: dict[str, tuple[str, ...]] = dict.fromkeys(
            sorted(e.node_id for e in scenario.entities), ()
        )
        # The TOPICS tail of each node whose topics changed at a refresh;
        # a scripted run starts with every node's, in the same order.
        self._tails: dict[str, str] = {}
        # Nodes `changed_nodes` listed since the last refresh, in order.
        self._stale: dict[str, None] = {}

    def run(self) -> Trace:
        if self.scenario.timeline.mode == MODE_SCRIPTED:
            self._run_scripted()
        else:
            self._run_waypoints()
        drain(self.system)  # retries what the last tick gave up on
        return self.trace

    # -- scripted timelines ------------------------------------------------

    def _run_scripted(self) -> None:
        settle = self.scenario.timeline.settle_ticks
        budget = self.scenario.tick_budget
        rule = self.scenario.rule
        outside = (
            rule.center[0] + 2 * rule.d_stop + 10.0,
            rule.center[1],
        )
        tails = self._tails = {n: topics_tail(n, t) for n, t in self._topics.items()}
        trace, detector = self.trace, self.system.detector
        step = tick = 0
        # An event's fields are read once, for its whole window of ticks.
        for step, enter, leave, upgrade in self.scenario.timeline.events:
            if tick == budget:
                return
            tick += 1
            trace.at(step, tick)
            if enter is not None:
                detector.observe_pose(enter, rule.center)
            elif leave is not None:
                detector.observe_pose(leave, outside)
            elif upgrade is not None:
                self._apply_upgrade(*upgrade)
            self._tick(detector.evaluate(tick))
            end = tick + settle
            for tick in range(tick + 1, min(end, budget) + 1):
                trace.at(step, tick)
                self._tick(detector.evaluate(tick))
            if tick == end:
                self._refresh_topics()
                trace.topics(tails.values())
        # A budget past the last window runs on at the last step.
        for tick in range(tick + 1, budget + 1):
            trace.at(step, tick)
            self._tick(detector.evaluate(tick))

    def _apply_upgrade(self, app_name: str, version: str) -> None:
        result = self.system.manager.upgrade_application(app_name, version)
        self.trace.request(result.request_id, "upgrade", app_name, (), ())
        _trace_result(self.trace, result, "upgrade", "upgrade-rejected")

    # -- waypoint timelines ------------------------------------------------

    def _run_waypoints(self) -> None:
        # After tick 1 a pose moves only on a leg between two waypoints at
        # different places; elsewhere it equals the last one observed.  Each
        # tick of such a leg gets its own (vehicle, a, b) entry.
        budget = self.scenario.tick_budget
        waypoints = self.scenario.timeline.waypoints
        moving: dict[int, list] = {}
        for vehicle_id, route in waypoints.items():
            for a, b in zip(route, route[1:]):
                if (a.x, a.y) != (b.x, b.y):
                    for tick in range(max(a.tick + 1, 2), min(b.tick, budget) + 1):
                        moving.setdefault(tick, []).append((vehicle_id, a, b))
        # Looked up once, after any wrapping of the detector's methods.
        detector = self.system.detector
        observe_pose, evaluate = detector.observe_pose, detector.evaluate
        if budget:  # tick 1 samples every vehicle, wherever it is
            for vehicle_id, route in waypoints.items():
                observe_pose(vehicle_id, interpolate(route, 1))
        step = 0
        for tick in range(1, budget + 1):
            for vehicle_id, a, b in moving.pop(tick, ()):
                observe_pose(vehicle_id, along(a, b, tick))
            requests = evaluate(tick)
            if requests:
                step += 1
            self.trace.at(step, tick)
            self._tick(requests)
            changed = self._refresh_topics()
            if changed:
                self.trace.topics(changed)

    # -- shared per-tick body ----------------------------------------------

    def _tick(self, requests: list[DeploymentRequest]) -> None:
        copies = 2 if self.duplicate_delivery else 1
        for request in requests:
            deliver(self.system, request, copies=copies)
        drain(self.system)
        publish_source_data(self.system)
        sim = self.system.sim
        sim.tick()
        stale = self._stale
        for node in sim.changed_nodes():
            stale[node] = None

    def _refresh_topics(self) -> list[str]:
        """Recompute the stale nodes' topics; returns the changed nodes' tails."""
        topics_visible_at = self.system.sim.topics_visible_at
        cache, tails = self._topics, self._tails
        changed = []
        for node in self._stale:
            visible = topics_visible_at(node)
            if visible != cache[node]:
                cache[node] = visible
                tails[node] = tail = topics_tail(node, visible)
                changed.append(tail)
        self._stale.clear()
        return changed


def run_scenario(
    scenario: Scenario, duplicate_delivery: bool = False
) -> ScenarioRunner:
    """Run a scenario to completion and return the runner for inspection."""
    runner = ScenarioRunner(scenario, duplicate_delivery=duplicate_delivery)
    runner.run()
    return runner
