"""Simulated multi-node cluster with a tick-driven pub/sub data plane.

Each node has its own topic bus; nothing crosses node boundaries unless a
deployed sender/receiver pair forwards it, with one tick of latency.
A bus carries topic names, one entry per message.  During a tick it is
an `(arrived, local)` pair of lists: the entries forwarded to the node
last tick and those published on it since.  Only local entries are
forwarded, which rules out multi-hop relays and forwarding loops.
The plan (the behaviors and a node -> topic -> receiver nodes table) is
built in one pass over the running instances on the first tick after a
deploy, terminate or reconfigure, and kept until the next one.
Detection and fusion instances run as stub behaviors inside the tick so
the data plane reacts to (re)configuration without any real perception
code.  One rule drives both: a behavior publishes its output topic once
when any of its trigger topics is on its node's bus.  A detector's
trigger is its first input topic, a fuser's are all of its input topics.
All detectors run before all fusers, each in creation order.
A tick rebuilds only the buses it can change, and `changed_nodes` lists
them.  Beyond its own published sources, a node's bus holds only the
outputs of behaviors on it and the entries routes delivered to it.  So
if a tick reads the same sources tuple as the last one, only nodes where
either tick ran a behavior or delivered arrivals can differ; every other
bus is kept as it is, and the sources stay on it rather than being queued
again.  Otherwise every bus is rebuilt.  A tick that runs the last tick's
plan on held sources, with the arrivals the last tick delivered, is a
fixed point: it touches no bus and returns the last report.
Everything is deterministic: no wall clock, no randomness, fixed
iteration orders.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .model import (
    CFG_FORWARD_TOPIC,
    CFG_INPUT_TOPIC,
    CFG_OUTPUT_TOPIC,
    ConfigItem,
    DuplicateNodeError,
    NotFoundError,
    NotRunningError,
    ServiceKind,
    UnknownNodeError,
    config_values,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class InstanceSpec:
    """What an operator asks the cluster to run."""

    cr_name: str
    service_kind: ServiceKind
    node_id: str
    config: tuple[ConfigItem, ...]
    version: str = ""


@dataclass
class ServiceInstance:
    instance_id: str
    cr_name: str
    service_kind: ServiceKind
    node_id: str
    config: tuple[ConfigItem, ...]
    version: str
    restart_count: int = 0
    config_version: int = 0
    # Topics parsed from `config` at deploy and on every reconfigure.
    input_topics: tuple[str, ...] = field(init=False, repr=False, compare=False)
    output_topic: str | None = field(init=False, repr=False, compare=False)
    forward_topics: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._parse_topics()

    def _parse_topics(self) -> None:
        self.input_topics = config_values(self.config, CFG_INPUT_TOPIC)
        outputs = config_values(self.config, CFG_OUTPUT_TOPIC)
        self.output_topic = outputs[0] if outputs else None
        self.forward_topics = frozenset(
            config_values(self.config, CFG_FORWARD_TOPIC)
        )


@dataclass(frozen=True)
class TickReport:
    produced: int
    forwarded: int


Bus = tuple[list[str], list[str]]  # (arrived, local) topics, one per message
Behavior = tuple[str, frozenset[str], str]  # node, trigger topics, output topic


class Plan(NamedTuple):
    """What a tick runs and where it forwards."""

    behaviors: list[Behavior]
    routes: dict[str, dict[str, list[str]]]  # node -> topic -> receiver nodes
    behavior_nodes: frozenset[str]  # nodes a behavior runs on
    receiver_nodes: frozenset[str]  # nodes of receivers: routes deliver there


class ClusterSim:
    def __init__(self) -> None:
        self._instances: dict[str, ServiceInstance] = {}
        self._plan: Plan | None = None  # dropped by every lifecycle call
        self._bus: dict[str, Bus] = {}  # what the last tick read, every node
        # Sources published since the last tick, and those the last tick
        # read: node -> topics, only nodes with some.
        self._queued: dict[str, list[str]] = {}
        self._sources: dict[str, list[str]] = {}
        # What the next tick reads: None if nothing was published, the
        # sources tuple of one whole publish, else a fresh object.
        self._published: object = None
        # What the last tick read.  Published again, a tuple is held: its
        # entries are still on the buses, so none is queued.
        self._held: object = None
        # Receiver node -> entries the next tick delivers, and the last did.
        self._arriving: dict[str, list[str]] = {}
        self._landed: dict[str, list[str]] = {}
        self._report = TickReport(0, 0)  # what the last tick returned
        # Nodes the last tick ran behaviors on or delivered arrivals to,
        # and those it rebuilt (None: every node).
        self._stirred: frozenset[str] = frozenset()
        self._rebuilt: frozenset[str] | None = frozenset()
        self._order: dict[str, int] = {}  # node -> its add_node index
        self._deploy_counts: dict[str, int] = {}
        self._iid_seq = 0

    # -- nodes -------------------------------------------------------------

    def add_node(self, node_id: str) -> None:
        if node_id in self._bus:
            raise DuplicateNodeError(f"node {node_id!r} already exists")
        self._bus[node_id] = ([], [])
        self._order[node_id] = len(self._order)

    def _require_node(self, node_id: str) -> None:
        if node_id not in self._bus:
            raise UnknownNodeError(f"unknown node {node_id!r}")

    # -- instance lifecycle ------------------------------------------------

    def deploy_instance(self, spec: InstanceSpec) -> str:
        """Start an instance; returns its id.

        restart_count records how many instances of the same resource ran
        before this one, so a first deployment always reads zero.
        """
        self._require_node(spec.node_id)
        self._iid_seq += 1
        instance_id = f"i-{self._iid_seq:04d}"
        lineage = self._deploy_counts.get(spec.cr_name, 0)
        self._deploy_counts[spec.cr_name] = lineage + 1
        self._instances[instance_id] = ServiceInstance(
            instance_id=instance_id,
            cr_name=spec.cr_name,
            service_kind=spec.service_kind,
            node_id=spec.node_id,
            config=spec.config,
            version=spec.version,
            restart_count=lineage,
        )
        self._plan = None
        log.debug("deployed %s (%s) on %s", instance_id, spec.cr_name, spec.node_id)
        return instance_id

    def reconfigure_instance(
        self, instance_id: str, config: tuple[ConfigItem, ...]
    ) -> None:
        """Swap the config in place; bumps config_version, never restarts."""
        instance = self._require_running(instance_id)
        instance.config = config
        instance._parse_topics()
        instance.config_version += 1
        self._plan = None

    def terminate_instance(self, instance_id: str) -> None:
        self._require_running(instance_id)
        del self._instances[instance_id]
        self._plan = None

    def get_instance(self, instance_id: str) -> ServiceInstance:
        try:
            return self._instances[instance_id]
        except KeyError:
            raise NotFoundError(f"no such instance {instance_id!r}") from None

    def instances(self) -> tuple[ServiceInstance, ...]:
        return tuple(self._instances.values())

    def _require_running(self, instance_id: str) -> ServiceInstance:
        instance = self._instances.get(instance_id)
        if instance is None:
            raise NotRunningError(f"instance {instance_id!r} is not running")
        return instance

    # -- publishing --------------------------------------------------------

    def publish_sources(self, sources: Iterable[tuple[str, str]]) -> None:
        """Queue one message per `(node, topic)` for the next tick.

        All or nothing: a call naming an unknown node queues nothing.
        """
        held = self._held
        once = self._published is None and type(sources) is tuple
        if once and sources is held:
            self._published = held  # still on the buses: queue nothing
            return
        entries = tuple(sources)
        for node_id, _ in entries:
            self._require_node(node_id)
        if self._published is held and held is not None:
            self._queue(held)  # not queued until now
        self._queue(entries)
        self._published = sources if once else object()

    def _queue(self, entries: tuple[tuple[str, str], ...]) -> None:
        for node_id, topic in entries:
            self._queued.setdefault(node_id, []).append(topic)

    # -- the tick ----------------------------------------------------------

    def tick(self) -> TickReport:
        """Advance time one step.

        Order inside a tick: queued arrivals and local publishes become
        visible, detection then fusion behaviors run (their outputs are
        visible and forwardable the same tick), then running connection
        pairs pick up locally published messages for delivery next tick.
        Only the buses that may differ from the last tick's are rebuilt,
        and none at a fixed point: the last tick's plan, held sources and
        the arrivals the last tick delivered give the last tick's buses.
        """
        plan, arrivals = self._plan, self._arriving
        held = self._published is self._held  # the same sources as last tick
        if plan is not None and held and arrivals == self._landed:
            self._published, self._rebuilt = None, frozenset()
            return self._report
        plan = plan or self._build_plan()
        bus = self._bus
        self._landed = arrivals
        stirred = plan.behavior_nodes.union(arrivals)
        if held:
            rebuilt = stirred | self._stirred
        else:
            self._sources, self._queued = self._queued, {}
            rebuilt = None
        sources = self._sources
        for node_id in bus if rebuilt is None else rebuilt:
            bus[node_id] = (arrivals.get(node_id) or [], list(sources.get(node_id, ())))

        produced = 0
        for node_id, triggers, output in plan.behaviors:
            arrived, local = bus[node_id]
            if triggers.isdisjoint(local) and triggers.isdisjoint(arrived):
                continue  # nothing consumed, e.g. before forwarded inputs land
            local.append(output)
            produced += 1

        arriving = self._arriving = {node: [] for node in plan.receiver_nodes}
        forwarded = 0
        for node_id, by_topic in plan.routes.items():
            for topic in bus[node_id][1]:
                for dst in by_topic.get(topic, ()):
                    arriving[dst].append(topic)
                    forwarded += 1

        self._held, self._published = self._published, None
        self._stirred, self._rebuilt = stirred, rebuilt
        self._report = TickReport(produced, forwarded)
        return self._report

    def changed_nodes(self) -> list[str]:
        """The nodes the last tick rebuilt, in `add_node` order.

        A superset of the nodes whose visible topics it changed; empty
        after a fixed point.
        """
        if self._rebuilt is None:
            return list(self._bus)
        return sorted(self._rebuilt, key=self._order.__getitem__)

    def _build_plan(self) -> Plan:
        """Detectors, then fusers, each in creation order: outputs feed later ones."""
        detectors: list[Behavior] = []
        fusers: list[Behavior] = []
        senders: list[ServiceInstance] = []
        receiver_nodes: dict[str, str] = {}
        for instance in self._instances.values():
            kind = instance.service_kind
            output = instance.output_topic
            if kind is ServiceKind.OBJECT_DETECTION and output is not None:
                triggers = frozenset(instance.input_topics[:1])
                detectors.append((instance.node_id, triggers, output))
            elif kind is ServiceKind.OBJECT_FUSION and output is not None:
                triggers = frozenset(instance.input_topics)
                fusers.append((instance.node_id, triggers, output))
            elif kind is ServiceKind.COMM_SENDER:
                senders.append(instance)
            elif kind is ServiceKind.COMM_RECEIVER:
                receiver_nodes.setdefault(instance.cr_name, instance.node_id)

        # node -> topic -> receiver nodes, one entry per sender carrying it
        routes: dict[str, dict[str, list[str]]] = {}
        for sender in senders:
            dst = receiver_nodes.get(sender.cr_name)
            if dst is None:
                continue
            by_topic = routes.setdefault(sender.node_id, {})
            for topic in sender.forward_topics:
                by_topic.setdefault(topic, []).append(dst)
        behaviors = detectors + fusers
        self._plan = Plan(
            behaviors,
            routes,
            frozenset([node for node, _, _ in behaviors]),
            frozenset(receiver_nodes.values()),
        )
        return self._plan

    def topics_visible_at(self, node_id: str) -> tuple[str, ...]:
        """Topics with at least one message on the node during the last tick."""
        bus = self._bus.get(node_id)
        if bus is None:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        arrived, local = bus
        topics = set(local)
        if arrived:
            topics.update(arrived)
        return tuple(sorted(topics))
