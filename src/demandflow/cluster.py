"""Simulated multi-node cluster with a tick-driven pub/sub data plane.

Each node has its own topic bus; nothing crosses node boundaries unless a
deployed sender/receiver pair forwards it, with one tick of latency.
During a tick a node's bus is an `(arrived, local)` pair of lists: the
messages forwarded to it last tick, then those published on it since.
Readers see arrived before local, and only local messages are forwarded,
which rules out multi-hop relays and forwarding loops.  Two bus sets
take turns: a tick reads the set filled since the last tick, and the set
the last tick read is cleared and takes the next tick's messages.  The
route plan (detectors, fusers and a node -> topic -> receiver nodes
table) is built in one pass over the running instances on the first
tick after a deploy, terminate or reconfigure, and kept until the next
one.  Forwarding walks the nodes in the order they were added, senders
in creation order within a node.
Detection and fusion instances run as stub behaviors inside the tick so
the data plane reacts to (re)configuration without any real perception
code.  Everything is deterministic: no wall clock, no randomness, fixed
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
    detections: int = 0  # outputs of the detection stub, its payload counter
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


class TopicMessage(NamedTuple):
    topic: str
    origin: str
    seq: int
    stamp: int
    payload: tuple[str, ...] = ()


@dataclass(frozen=True)
class TickReport:
    produced: int
    forwarded: int


Bus = tuple[list[TopicMessage], list[TopicMessage]]  # (arrived, local)


class Plan(NamedTuple):
    """What a tick runs and where it forwards, in creation order."""

    detectors: list[ServiceInstance]
    fusers: list[ServiceInstance]
    routes: dict[str, dict[str, list[str]]]  # node -> topic -> receiver nodes


class ClusterSim:
    def __init__(self) -> None:
        self._instances: dict[str, ServiceInstance] = {}
        self._plan: Plan | None = None  # dropped by every lifecycle call
        # Both bus sets hold every node, in the order nodes were added.
        self._next: dict[str, Bus] = {}  # the buses the next tick reads
        self._bus: dict[str, Bus] = {}  # the buses the last tick read
        self._seq: dict[tuple[str, str], int] = {}
        self._deploy_counts: dict[str, int] = {}
        self._iid_seq = 0
        self._time = 0

    # -- nodes -------------------------------------------------------------

    def add_node(self, node_id: str) -> None:
        if node_id in self._bus:
            raise DuplicateNodeError(f"node {node_id!r} already exists")
        self._next[node_id] = ([], [])
        self._bus[node_id] = ([], [])

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

    def instances_of(self, cr_name: str) -> tuple[ServiceInstance, ...]:
        return tuple(
            i for i in self._instances.values() if i.cr_name == cr_name
        )

    def _require_running(self, instance_id: str) -> ServiceInstance:
        instance = self._instances.get(instance_id)
        if instance is None:
            raise NotRunningError(f"instance {instance_id!r} is not running")
        return instance

    # -- publishing --------------------------------------------------------

    def publish(self, node_id: str, message: TopicMessage) -> None:
        """Queue a message on a node's bus for the next tick."""
        self._require_node(node_id)
        key = (message.origin, message.topic)
        last = self._seq.get(key, 0)
        if message.seq <= last:
            raise ValueError(
                f"seq must increase per (origin, topic); got {message.seq} "
                f"after {last} on {key}"
            )
        self._seq[key] = message.seq
        self._next[node_id][1].append(message)

    def publish_sources(
        self, sources: Iterable[tuple[str, str, str]]
    ) -> None:
        """`publish(node, next_message(origin, topic))` per source."""
        seq = self._seq
        buses = self._next
        stamp = self._time + 1
        for node_id, origin, topic in sources:
            bus = buses.get(node_id)
            if bus is None:
                raise UnknownNodeError(f"unknown node {node_id!r}")
            key = (origin, topic)
            n = seq[key] = seq.get(key, 0) + 1
            # TopicMessage(topic, origin, n, stamp), minus the __new__ frame
            bus[1].append(tuple.__new__(TopicMessage, (topic, origin, n, stamp, ())))

    def next_message(self, origin: str, topic: str) -> TopicMessage:
        """Build the next in-sequence message for (origin, topic)."""
        seq = self._seq.get((origin, topic), 0) + 1
        return TopicMessage(topic, origin, seq, self._time + 1)

    # -- the tick ----------------------------------------------------------

    def tick(self) -> TickReport:
        """Advance time one step.

        Order inside a tick: queued arrivals and local publishes become
        visible, detection then fusion behaviors run (their outputs are
        visible and forwardable the same tick), then running connection
        pairs pick up locally published messages for delivery next tick.
        """
        self._time += 1
        bus = self._next
        arriving = self._next = self._bus
        for arrived, local in arriving.values():
            arrived.clear()
            local.clear()
        plan = self._plan or self._build_plan()

        produced = 0
        for instance in plan.detectors:
            produced += self._run_detection(instance, bus[instance.node_id])
        for instance in plan.fusers:
            produced += self._run_fusion(instance, bus[instance.node_id])

        forwarded = 0
        for node_id, by_topic in plan.routes.items():
            for message in bus[node_id][1]:
                for dst in by_topic.get(message.topic, ()):
                    arriving[dst][0].append(message)
                    forwarded += 1

        self._bus = bus
        return TickReport(produced, forwarded)

    def _build_plan(self) -> Plan:
        """Creation order keeps behavior and forwarding order stable."""
        detectors: list[ServiceInstance] = []
        fusers: list[ServiceInstance] = []
        senders: list[ServiceInstance] = []
        receiver_nodes: dict[str, str] = {}
        for instance in self._instances.values():
            kind = instance.service_kind
            if kind is ServiceKind.OBJECT_DETECTION:
                detectors.append(instance)
            elif kind is ServiceKind.OBJECT_FUSION:
                fusers.append(instance)
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
        # Forwarding walks the nodes in the order they were added.
        routes = {n: routes[n] for n in self._bus if n in routes}
        self._plan = Plan(detectors, fusers, routes)
        return self._plan

    def topics_visible_at(self, node_id: str) -> tuple[str, ...]:
        """Topics with at least one message on the node during the last tick."""
        bus = self._bus.get(node_id)
        if bus is None:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        arrived, local = bus
        topics = {m.topic for m in local}
        if arrived:
            topics.update(m.topic for m in arrived)
        return tuple(sorted(topics))

    def messages_at(self, node_id: str, topic: str) -> tuple[TopicMessage, ...]:
        self._require_node(node_id)
        return tuple(
            m for part in self._bus[node_id] for m in part if m.topic == topic
        )

    # -- stub behaviors ----------------------------------------------------

    def _run_detection(self, instance: ServiceInstance, bus: Bus) -> int:
        inputs = instance.input_topics
        out_topic = instance.output_topic
        if not inputs or out_topic is None:
            return 0
        in_topic = inputs[0]
        hit = next(
            (m for part in bus for m in part if m.topic == in_topic), None
        )
        if hit is None:
            return 0
        instance.detections += 1
        bus[1].append(
            self._stamped(hit.origin, out_topic, (str(instance.detections),))
        )
        return 1

    def _run_fusion(self, instance: ServiceInstance, bus: Bus) -> int:
        inputs = set(instance.input_topics)
        out_topic = instance.output_topic
        if out_topic is None:
            return 0
        contributing = sorted(
            {m.origin for part in bus for m in part if m.topic in inputs}
        )
        if not contributing:
            # Nothing consumed: legal transient (e.g. right after deploy,
            # before forwarded inputs land); publish nothing.
            return 0
        bus[1].append(
            self._stamped(instance.node_id, out_topic, tuple(contributing))
        )
        return 1

    def _stamped(
        self, origin: str, topic: str, payload: tuple[str, ...]
    ) -> TopicMessage:
        key = (origin, topic)
        seq = self._seq.get(key, 0) + 1
        self._seq[key] = seq
        return TopicMessage(topic, origin, seq, self._time, payload)
