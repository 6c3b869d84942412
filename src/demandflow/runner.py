"""Wires detector, manager, store, operators, and cluster into one run.

Each tick: move vehicles, evaluate the geofence, deliver any resulting
requests, drain both reconcile queues to quiescence, publish every
entity's source data, then advance the cluster one step.  Scripted
timelines give each event a fixed window of ticks and snapshot node
topics at each window's end; waypoint timelines sample every route on
the first tick, then only the routes in motion, and snapshot topics
whenever they change.  A request and an upgrade are traced alike: a
REQUEST record, then one CR record per resource written, or one ERROR
record if the manager rejected it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import Catalog
from .cluster import ClusterSim
from .detector import EventDetector
from .manager import AppManager, AccessDomainPolicy, DeploymentRequest, RequestResult
from .model import (
    NonQuiescenceError,
    Topology,
    source_topic,
)
from .operators import ConnectionOperator, ServiceOperator
from .scenario import MODE_SCRIPTED, Scenario, interpolate
from .store import ResourceStore
from .tracing import Trace

MAX_DRAIN_ROUNDS = 50


@dataclass
class System:
    """Everything a running scenario is made of."""

    scenario: Scenario
    store: ResourceStore
    catalog: Catalog
    manager: AppManager
    sim: ClusterSim
    detector: EventDetector
    service_op: ServiceOperator
    connection_op: ConnectionOperator
    trace: Trace
    # (node, topic) per entity capability: one message each per tick.
    sources: tuple[tuple[str, str], ...]


def build_system(
    scenario: Scenario,
    trace: Trace | None = None,
    policy: AccessDomainPolicy | None = None,
) -> System:
    trace = trace or Trace()
    topology = Topology(scenario.entities)
    store = ResourceStore()
    catalog = Catalog(topology)
    for template in scenario.templates:
        catalog.register_application(template)
    manager = AppManager(store, catalog, policy)
    sim = ClusterSim()
    for entity in scenario.entities:
        sim.add_node(entity.node_id)
    service_op = ServiceOperator(store, sim, trace)
    connection_op = ConnectionOperator(store, sim, trace)
    detector = EventDetector(scenario.rule, topology)
    sources = tuple(
        (entity.node_id, source_topic(entity.entity_id, kind))
        for entity in scenario.entities
        for kind in entity.capabilities
    )
    return System(
        scenario=scenario,
        store=store,
        catalog=catalog,
        manager=manager,
        sim=sim,
        detector=detector,
        service_op=service_op,
        connection_op=connection_op,
        trace=trace,
        sources=sources,
    )


def drain(system: System, max_rounds: int = MAX_DRAIN_ROUNDS) -> None:
    """Run both operators until no watch or retry events remain."""
    rounds = 0
    while system.service_op.pending() or system.connection_op.pending():
        rounds += 1
        if rounds > max_rounds:
            raise NonQuiescenceError(
                f"reconcile queues still busy after {max_rounds} rounds"
            )
        system.service_op.run_pending()
        system.connection_op.run_pending()


def deliver(system: System, request: DeploymentRequest, copies: int = 1) -> None:
    """Hand a request to the manager, possibly more than once."""
    for _ in range(copies):
        system.trace.request(
            request.request_id,
            request.action.value,
            request.app_name,
            request.requesters,
            request.inputs,
        )
        result = system.manager.handle_request(request)
        _trace_result(system.trace, result, request.action.value, "request-rejected")


def _trace_result(
    trace: Trace, result: RequestResult, action: str, rejected: str
) -> None:
    """One CR record per write of an accepted result, else one ERROR."""
    if result.accepted:
        for kind, name, generation in result.applied_crs:
            trace.cr_applied(kind.value, name, generation, action)
    else:
        trace.error("manager", rejected, f"{result.request_id}:{result.reason}")


def publish_source_data(system: System) -> None:
    """Every entity publishes one message per capability on its own node."""
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
        self._nodes = tuple(e.node_id for e in scenario.entities)
        self._nodes_sorted = tuple(sorted(self._nodes))

    def run(self) -> Trace:
        if self.scenario.timeline.mode == MODE_SCRIPTED:
            self._run_scripted()
        else:
            self._run_waypoints()
        return self.trace

    # -- scripted timelines ------------------------------------------------

    def _run_scripted(self) -> None:
        timeline = self.scenario.timeline
        window = timeline.window
        events = timeline.events
        rule = self.scenario.rule
        outside = (
            rule.center[0] + 2 * rule.d_stop + 10.0,
            rule.center[1],
        )
        step = 0
        for tick in range(1, self.scenario.tick_budget + 1):
            index = (tick - 1) // window
            event = events[index] if index < len(events) else None
            if event is not None:
                step = event.step
            self.trace.at(step, tick)
            if event is not None and (tick - 1) % window == 0:
                if event.enter is not None:
                    self.system.detector.observe_pose(event.enter, rule.center)
                elif event.leave is not None:
                    self.system.detector.observe_pose(event.leave, outside)
                elif event.upgrade is not None:
                    self._apply_upgrade(*event.upgrade)
            self._tick(tick)
            if event is not None and tick % window == 0:
                self._snapshot_topics()

    def _apply_upgrade(self, app_name: str, version: str) -> None:
        result = self.system.manager.upgrade_application(app_name, version)
        self.trace.request(result.request_id, "upgrade", app_name, (), ())
        _trace_result(self.trace, result, "upgrade", "upgrade-rejected")

    # -- waypoint timelines ------------------------------------------------

    def _run_waypoints(self) -> None:
        # After tick 1 a pose moves only inside its route's span.
        routes = [
            (vehicle_id, route, route[0].tick, route[-1].tick)
            for vehicle_id, route in self.scenario.timeline.waypoints.items()
        ]
        detector = self.system.detector
        topics_visible_at = self.system.sim.topics_visible_at
        last_topics = dict.fromkeys(self._nodes, ())
        step = 0
        for tick in range(1, self.scenario.tick_budget + 1):
            for vehicle_id, route, first, last in routes:
                if tick == 1 or first < tick <= last:
                    detector.observe_pose(vehicle_id, interpolate(route, tick))
            requests = detector.evaluate(tick)
            if requests:
                step += 1
            self.trace.at(step, tick)
            self._tick(tick, requests=requests)
            for node in self._nodes:
                visible = topics_visible_at(node)
                if visible != last_topics[node]:
                    self.trace.topics(node, visible)
                    last_topics[node] = visible

    # -- shared per-tick body ----------------------------------------------

    def _tick(
        self, tick: int, requests: list[DeploymentRequest] | None = None
    ) -> None:
        if requests is None:
            requests = self.system.detector.evaluate(tick)
        copies = 2 if self.duplicate_delivery else 1
        for request in requests:
            deliver(self.system, request, copies=copies)
        drain(self.system)
        publish_source_data(self.system)
        self.system.sim.tick()

    def _snapshot_topics(self) -> None:
        for node in self._nodes_sorted:
            self.trace.topics(node, self.system.sim.topics_visible_at(node))


def run_scenario(
    scenario: Scenario, duplicate_delivery: bool = False
) -> ScenarioRunner:
    """Run a scenario to completion and return the runner for inspection."""
    runner = ScenarioRunner(scenario, duplicate_delivery=duplicate_delivery)
    runner.run()
    return runner
