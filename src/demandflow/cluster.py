"""Simulated multi-node cluster with a tick-driven pub/sub data plane.

Each node has its own topic bus; nothing crosses node boundaries unless a
deployed sender/receiver pair forwards it, with one tick of latency.
Detection and fusion instances run as stub behaviors inside the tick so
the data plane reacts to (re)configuration without any real perception
code.  Everything is deterministic: no wall clock, no randomness, fixed
iteration orders.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .model import (
    CFG_FORWARD_TOPIC,
    CFG_INPUT_TOPIC,
    CFG_OUTPUT_TOPIC,
    ConfigItem,
    DuplicateNodeError,
    EntityRole,
    NotFoundError,
    NotRunningError,
    PayloadKind,
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

    def input_topics(self) -> tuple[str, ...]:
        return config_values(self.config, CFG_INPUT_TOPIC)

    def output_topic(self) -> str | None:
        values = config_values(self.config, CFG_OUTPUT_TOPIC)
        return values[0] if values else None

    def forward_topics(self) -> frozenset[str]:
        return frozenset(config_values(self.config, CFG_FORWARD_TOPIC))


@dataclass(frozen=True)
class TopicMessage:
    topic: str
    payload_kind: PayloadKind
    origin: str
    seq: int
    stamp: int
    payload: tuple[str, ...] = ()


@dataclass(frozen=True)
class TickReport:
    tick: int
    produced: int
    forwarded: int


@dataclass
class _BusEntry:
    message: TopicMessage
    # Locally published this tick (as opposed to having arrived over a
    # connection); only local entries are eligible for forwarding, which
    # rules out multi-hop relays and forwarding loops.
    local: bool


class ClusterSim:
    def __init__(self) -> None:
        self._nodes: dict[str, EntityRole] = {}
        self._instances: dict[str, ServiceInstance] = {}
        self._pending: dict[str, list[TopicMessage]] = {}
        self._inflight: dict[str, list[TopicMessage]] = {}
        self._bus: dict[str, list[_BusEntry]] = {}
        self._seq: dict[tuple[str, str], int] = {}
        self._deploy_counts: dict[str, int] = {}
        self._detect_counts: dict[str, int] = {}
        self._iid_seq = 0
        self._time = 0

    # -- nodes -------------------------------------------------------------

    def add_node(self, node_id: str, role: EntityRole) -> None:
        if node_id in self._nodes:
            raise DuplicateNodeError(f"node {node_id!r} already exists")
        self._nodes[node_id] = role
        self._pending[node_id] = []
        self._inflight[node_id] = []
        self._bus[node_id] = []

    def _require_node(self, node_id: str) -> None:
        if node_id not in self._nodes:
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
        log.debug("deployed %s (%s) on %s", instance_id, spec.cr_name, spec.node_id)
        return instance_id

    def reconfigure_instance(
        self, instance_id: str, config: tuple[ConfigItem, ...]
    ) -> None:
        """Swap the config in place; bumps config_version, never restarts."""
        instance = self._require_running(instance_id)
        instance.config = config
        instance.config_version += 1

    def terminate_instance(self, instance_id: str) -> None:
        self._require_running(instance_id)
        del self._instances[instance_id]

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

    def _running_of_kind(self, kind: ServiceKind) -> list[ServiceInstance]:
        # Insertion order is creation order, which keeps behavior order
        # stable.
        return [i for i in self._instances.values() if i.service_kind is kind]

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
        self._pending[node_id].append(message)

    def next_message(
        self,
        origin: str,
        topic: str,
        payload_kind: PayloadKind,
        payload: tuple[str, ...] = (),
    ) -> TopicMessage:
        """Build the next in-sequence message for (origin, topic)."""
        seq = self._seq.get((origin, topic), 0) + 1
        return TopicMessage(
            topic=topic,
            payload_kind=payload_kind,
            origin=origin,
            seq=seq,
            stamp=self._time + 1,
            payload=payload,
        )

    # -- the tick ----------------------------------------------------------

    @property
    def time(self) -> int:
        return self._time

    def tick(self) -> TickReport:
        """Advance time one step.

        Order inside a tick: queued arrivals and local publishes become
        visible, detection then fusion behaviors run (their outputs are
        visible and forwardable the same tick), then running connection
        pairs pick up locally published messages for delivery next tick.
        """
        self._time += 1
        produced = 0
        forwarded = 0

        bus: dict[str, list[_BusEntry]] = {}
        for node_id in self._nodes:
            entries = [
                _BusEntry(m, local=False) for m in self._inflight[node_id]
            ]
            entries.extend(
                _BusEntry(m, local=True) for m in self._pending[node_id]
            )
            self._inflight[node_id] = []
            self._pending[node_id] = []
            bus[node_id] = entries

        for instance in self._running_of_kind(ServiceKind.OBJECT_DETECTION):
            produced += self._run_detection(instance, bus)
        for instance in self._running_of_kind(ServiceKind.OBJECT_FUSION):
            produced += self._run_fusion(instance, bus)

        all_senders = self._running_of_kind(ServiceKind.COMM_SENDER)
        for node_id, entries in bus.items():
            senders = [s for s in all_senders if s.node_id == node_id]
            if not senders:
                continue
            for entry in entries:
                if not entry.local:
                    continue
                for sender in senders:
                    if entry.message.topic not in sender.forward_topics():
                        continue
                    receiver = self._receiver_for(sender.cr_name)
                    if receiver is None:
                        continue
                    self._inflight[receiver.node_id].append(entry.message)
                    forwarded += 1

        self._bus = bus
        return TickReport(
            tick=self._time,
            produced=produced,
            forwarded=forwarded,
        )

    def topics_visible_at(self, node_id: str) -> tuple[str, ...]:
        """Topics with at least one message on the node during the last tick."""
        self._require_node(node_id)
        return tuple(sorted({e.message.topic for e in self._bus[node_id]}))

    def messages_at(self, node_id: str, topic: str) -> tuple[TopicMessage, ...]:
        self._require_node(node_id)
        return tuple(
            e.message for e in self._bus[node_id] if e.message.topic == topic
        )

    # -- stub behaviors ----------------------------------------------------

    def _run_detection(
        self, instance: ServiceInstance, bus: dict[str, list[_BusEntry]]
    ) -> int:
        inputs = instance.input_topics()
        out_topic = instance.output_topic()
        if not inputs or out_topic is None:
            return 0
        in_topic = inputs[0]
        entries = bus[instance.node_id]
        hit = next(
            (e for e in entries if e.message.topic == in_topic), None
        )
        if hit is None:
            return 0
        count = self._detect_counts.get(instance.instance_id, 0) + 1
        self._detect_counts[instance.instance_id] = count
        origin = hit.message.origin
        message = self._stamped(
            origin, out_topic, PayloadKind.OBJECT_LIST, (str(count),)
        )
        entries.append(_BusEntry(message, local=True))
        return 1

    def _run_fusion(
        self, instance: ServiceInstance, bus: dict[str, list[_BusEntry]]
    ) -> int:
        inputs = set(instance.input_topics())
        out_topic = instance.output_topic()
        if out_topic is None:
            return 0
        entries = bus[instance.node_id]
        contributing = sorted(
            {e.message.origin for e in entries if e.message.topic in inputs}
        )
        if not contributing:
            # Nothing consumed: legal transient (e.g. right after deploy,
            # before forwarded inputs land); publish nothing.
            return 0
        message = self._stamped(
            instance.node_id,
            out_topic,
            PayloadKind.OBJECT_LIST,
            tuple(contributing),
        )
        entries.append(_BusEntry(message, local=True))
        return 1

    def _stamped(
        self,
        origin: str,
        topic: str,
        payload_kind: PayloadKind,
        payload: tuple[str, ...],
    ) -> TopicMessage:
        key = (origin, topic)
        seq = self._seq.get(key, 0) + 1
        self._seq[key] = seq
        return TopicMessage(
            topic=topic,
            payload_kind=payload_kind,
            origin=origin,
            seq=seq,
            stamp=self._time,
            payload=payload,
        )

    def _receiver_for(self, cr_name: str) -> ServiceInstance | None:
        for instance in self._instances.values():
            if (
                instance.cr_name == cr_name
                and instance.service_kind is ServiceKind.COMM_RECEIVER
            ):
                return instance
        return None
