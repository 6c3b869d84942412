"""Simulated multi-node cluster with a tick-driven pub/sub data plane.

Each node has its own topic bus; nothing crosses node boundaries unless a
deployed sender/receiver pair forwards it, with one tick of latency.
A bus carries topic names, one entry per message.  During a tick it is
an `(arrived, local)` pair: topic -> count of the entries forwarded to
the node last tick, and the list of those published on it since.  Only
local entries are forwarded, which rules out multi-hop relays and loops.
The plan (the behaviors, a node -> topic -> receiver nodes table and
the nodes they use) is a set of tables that a deploy, terminate or
reconfigure patches for its own instance, or its connection's routes.
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
again.  Otherwise every bus is rebuilt.  Each sender node keeps its share
of the arriving counts, and only the senders a tick rebuilt, or whose
routes a lifecycle call changed, are walked again.  A tick that runs the
last tick's plan on held sources, after one that changed no arriving
count, is a fixed point: it touches no bus and returns the last report.
Each node's visible topics are kept sorted from one read to the next: a
bus that holds the same arrived mapping and an equal local list gives
the same tuple, and any other is patched by bisection with the topics
that came and went.
Everything is deterministic: no wall clock, no randomness, fixed
iteration orders.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Mapping, NamedTuple

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
)

log = logging.getLogger(__name__)


class InstanceSpec(NamedTuple):
    """What an operator asks the cluster to run."""

    cr_name: str
    service_kind: ServiceKind
    node_id: str
    config: tuple[ConfigItem, ...]
    version: str = ""


def _topics(items: Iterable[ConfigItem]) -> tuple[list[str], list[str], str | None]:
    """The input and forward topics among config items, in order, and the
    first output topic; one pass."""
    inputs, forwards, output = [], [], None
    for kind, value in items:
        if kind == CFG_INPUT_TOPIC:
            inputs.append(value)
        elif kind == CFG_FORWARD_TOPIC:
            forwards.append(value)
        elif kind == CFG_OUTPUT_TOPIC and output is None:
            output = value
    return inputs, forwards, output


@dataclass
class ServiceInstance:
    """One running unit.  Its input, output and forward topics are parsed
    from `config` at deploy.  A reconfigure to a config that extends the
    running one parses only the appended items; any other config is
    parsed whole."""

    instance_id: str
    cr_name: str
    service_kind: ServiceKind
    node_id: str
    config: tuple[ConfigItem, ...]
    version: str
    input_topics: tuple[str, ...] = field(init=False, repr=False, compare=False)
    output_topic: str | None = field(init=False, repr=False, compare=False)
    forward_topics: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        inputs, forwards, self.output_topic = _topics(self.config)
        self.input_topics, self.forward_topics = tuple(inputs), frozenset(forwards)

    def reconfigure(self, config: tuple[ConfigItem, ...]) -> None:
        """Swap the config in place."""
        running, self.config = self.config, config
        if config[: len(running)] != running:
            self.__post_init__()  # parsed whole, as at deploy
            return
        inputs, forwards, output = _topics(config[len(running):])
        if inputs:
            self.input_topics += tuple(inputs)
        if forwards:
            self.forward_topics = self.forward_topics.union(forwards)
        if self.output_topic is None:
            self.output_topic = output


class TickReport(NamedTuple):
    produced: int
    forwarded: int


Bus = tuple[Mapping[str, int], list[str]]  # arrived topic -> count, local topics
Share = list[tuple[str, str]]  # (receiver node, topic) per entry forwarded
Behavior = tuple[str, frozenset[str], str]  # node, trigger topics, output topic
SENDER, RECEIVER = ServiceKind.COMM_SENDER, ServiceKind.COMM_RECEIVER
# Stub kinds in the order they run, and how many input topics trigger each.
TRIGGERS = {ServiceKind.OBJECT_DETECTION: 1, ServiceKind.OBJECT_FUSION: None}


def _count(counts: dict[str, int], node: str, sign: int) -> None:
    counts[node] = counts.get(node, 0) + sign
    if not counts[node]:  # only nodes with some are kept
        del counts[node]


class ClusterSim:
    def __init__(self) -> None:
        self._instances: dict[str, ServiceInstance] = {}
        # cr_name -> instance id -> each live instance, in deploy order.
        self._owned: dict[str, dict[str, ServiceInstance]] = {}
        # The plan: stub kind -> instance id -> behavior (None without an
        # output topic); node -> topic -> first receiver's node, once per
        # sender carrying the topic; and node -> how many behaviors, and
        # connections' first receivers, it has.
        self._behaviors: dict[ServiceKind, dict[str, Behavior | None]] = {
            kind: {} for kind in TRIGGERS
        }
        self._routes: dict[str, dict[str, list[str]]] = {}
        self._behavior_nodes: dict[str, int] = {}
        self._receiver_nodes: dict[str, int] = {}
        self._patched = False  # a lifecycle call since the last tick
        self._relinked: set[str] = set()  # sender nodes whose routes those changed
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
        # Receiver node (as of the last tick) -> topic -> entries the next
        # tick delivers.  A mapping a bus holds is replaced, never changed.
        self._arriving: dict[str, dict[str, int]] = {}
        self._shares: dict[str, Share] = {}  # sender node -> its share of them
        self._forwarded = 0  # entries in all shares
        self._moved = False  # the last tick changed `_arriving`
        self._report = TickReport(0, 0)  # what the last tick returned
        # Nodes the last tick ran behaviors on or delivered arrivals to,
        # and those it rebuilt (None: every node).
        self._stirred: AbstractSet[str] = frozenset()
        self._rebuilt: AbstractSet[str] | None = frozenset()
        self._order: dict[str, int] = {}  # node -> its add_node index
        # Node -> the bus `topics_visible_at` last read, its visible topics
        # and those sorted; a node gets one at its first read.
        self._views: dict[str, tuple[Bus, set[str], tuple[str, ...]]] = {}
        self._iid_seq = 0
        self._exit_watches: list[dict[str, None]] = []

    # -- nodes -------------------------------------------------------------

    def add_node(self, node_id: str) -> None:
        if node_id in self._bus:
            raise DuplicateNodeError(f"node {node_id!r} already exists")
        self._bus[node_id] = ({}, [])
        self._order[node_id] = len(self._order)

    def _require_node(self, node_id: str) -> None:
        if node_id not in self._bus:
            raise UnknownNodeError(f"unknown node {node_id!r}")

    # -- instance lifecycle ------------------------------------------------

    def deploy_instance(self, spec: InstanceSpec) -> str:
        """Start an instance; returns its id, new on every deploy."""
        self._require_node(spec.node_id)
        self._iid_seq += 1
        instance_id = f"i-{self._iid_seq:04d}"
        instance = ServiceInstance(
            instance_id=instance_id,
            cr_name=spec.cr_name,
            service_kind=spec.service_kind,
            node_id=spec.node_id,
            config=spec.config,
            version=spec.version,
        )
        self._patch(instance, -1)
        self._instances[instance_id] = instance
        self._owned.setdefault(spec.cr_name, {})[instance_id] = instance
        self._patch(instance, 1)
        log.debug("deployed %s (%s) on %s", instance_id, spec.cr_name, spec.node_id)
        return instance_id

    def reconfigure_instance(
        self, instance_id: str, config: tuple[ConfigItem, ...]
    ) -> None:
        """Swap the config in place; the instance keeps its id."""
        instance = self._require_running(instance_id)
        self._patch(instance, -1)
        instance.reconfigure(config)
        self._patch(instance, 1)

    def terminate_instance(self, instance_id: str) -> None:
        instance = self._require_running(instance_id)
        self._patch(instance, -1)
        del self._instances[instance_id]
        del self._owned[instance.cr_name][instance_id]
        if not self._owned[instance.cr_name]:
            del self._owned[instance.cr_name]
        self._patch(instance, 1)

    def exit_instance(self, instance_id: str) -> None:
        """End an instance as a crash does, and queue its owner's name on
        every exit watch, as controller-runtime's `Owns()` queues an owner;
        `terminate_instance`, the operators' own call, queues nothing."""
        owner = self._require_running(instance_id).cr_name
        self.terminate_instance(instance_id)
        for queue in self._exit_watches:
            queue[owner] = None

    def watch_exits(self) -> dict[str, None]:
        """A new queue of the names exit_instance queues, each once until popped."""
        queue: dict[str, None] = {}
        self._exit_watches.append(queue)
        return queue

    def unwatch_exits(self, queue: dict[str, None]) -> None:
        self._exit_watches = [q for q in self._exit_watches if q is not queue]

    def get_instance(self, instance_id: str) -> ServiceInstance:
        try:
            return self._instances[instance_id]
        except KeyError:
            raise NotFoundError(f"no such instance {instance_id!r}") from None

    def instances(self) -> tuple[ServiceInstance, ...]:
        return tuple(self._instances.values())

    def owned(self, cr_name: str) -> tuple[str, ...]:
        """The ids of the instances running under `cr_name`, in deploy order."""
        return tuple(self._owned.get(cr_name, ()))

    def owners(self) -> tuple[str, ...]:
        """The names with live instances, in the order their units began."""
        return tuple(self._owned)

    def _require_running(self, instance_id: str) -> ServiceInstance:
        instance = self._instances.get(instance_id)
        if instance is None:
            raise NotRunningError(f"instance {instance_id!r} is not running")
        return instance

    def _patch(self, instance: ServiceInstance, sign: int) -> None:
        """Take `instance`'s share of the plan out (-1), or put it in as the
        instance now is (1): its behavior, or its connection's routes.  A
        lifecycle call does both around its change, so slots stay in place.
        """
        self._patched = True
        kind, instance_id = instance.service_kind, instance.instance_id
        if kind is SENDER or kind is RECEIVER:
            self._link(self._owned.get(instance.cr_name, {}), sign)
        elif kind in self._behaviors:
            behaviors = self._behaviors[kind]
            if sign > 0 and instance_id not in self._instances:
                del behaviors[instance_id]
            elif sign > 0:
                output = instance.output_topic
                triggers = frozenset(instance.input_topics[: TRIGGERS[kind]])
                behavior = (instance.node_id, triggers, output)
                behaviors[instance_id] = None if output is None else behavior
            if behaviors.get(instance_id) is not None:
                _count(self._behavior_nodes, instance.node_id, sign)

    def _link(self, members: dict[str, ServiceInstance], sign: int) -> None:
        """Add (1) or remove (-1) the routes of one connection name."""
        receivers = [i for i in members.values() if i.service_kind is RECEIVER]
        if not receivers:
            return
        dst = receivers[0].node_id
        _count(self._receiver_nodes, dst, sign)
        for sender in members.values():
            if sender.service_kind is not SENDER:
                continue
            self._relinked.add(sender.node_id)
            by_topic = self._routes.setdefault(sender.node_id, {})
            for topic in sender.forward_topics:
                dsts = by_topic.setdefault(topic, [])
                if sign > 0:
                    dsts.append(dst)
                    continue
                dsts.remove(dst)
                if not dsts:
                    del by_topic[topic]
            if not by_topic:
                del self._routes[sender.node_id]

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
        and only the senders among them or with changed routes walked
        again; nothing at a fixed point: with no lifecycle call since, held
        sources and arriving counts the last tick left alone give its buses.
        """
        arriving = self._arriving
        held = self._published is self._held  # the same sources as last tick
        if not self._patched and held and not self._moved:
            self._published, self._rebuilt = None, frozenset()
            return self._report
        bus, routes = self._bus, self._routes
        stirred = self._behavior_nodes.keys() | arriving.keys()
        if held:
            rebuilt = stirred | self._stirred
        else:
            self._sources, self._queued = self._queued, {}
            rebuilt = None
        sources = self._sources
        for node_id in bus if rebuilt is None else rebuilt:
            bus[node_id] = (arriving.get(node_id, {}), list(sources.get(node_id, ())))

        produced = 0
        for behaviors in self._behaviors.values():  # skips None: no output
            for node_id, triggers, output in filter(None, behaviors.values()):
                arrived, local = bus[node_id]
                if triggers.isdisjoint(local) and triggers.isdisjoint(arrived):
                    continue  # nothing consumed, e.g. before inputs land
                local.append(output)
                produced += 1

        # Walk again only the senders rebuilt or with changed routes, and
        # apply what their shares changed to the arriving counts.  A bus
        # holds the counts it read, so a receiver's are copied before they
        # change; `replaced` keeps the ones from before.
        senders, shares, replaced = self._relinked, self._shares, {}
        senders.update(routes.keys() if rebuilt is None else rebuilt & routes.keys())
        for node_id in senders:
            by_topic, local = routes.get(node_id, {}), bus[node_id][1]
            share = [(dst, topic) for topic in local for dst in by_topic.get(topic, ())]
            old, shares[node_id] = shares.get(node_id, []), share
            if share == old:
                continue
            self._forwarded += len(share) - len(old)
            for sign, part in ((-1, old), (1, share)):
                for dst, topic in part:
                    counts = arriving.get(dst, {})
                    if dst not in replaced:
                        replaced[dst], counts = counts, dict(counts)
                        arriving[dst] = counts
                    counts[topic] = left = counts.get(topic, 0) + sign
                    if not left:
                        del counts[topic]
        moved = False
        for dst, old in replaced.items():  # equal if the changes cancelled out
            moved |= arriving[dst] != old
        if self._patched and arriving.keys() != self._receiver_nodes.keys():
            for node_id in arriving.keys() ^ self._receiver_nodes.keys():
                if arriving.pop(node_id, None) is None:  # a new receiver node
                    arriving[node_id] = {}
                moved = True
        self._moved, self._patched, self._relinked = moved, False, set()

        self._held, self._published = self._published, None
        self._stirred, self._rebuilt = stirred, rebuilt
        self._report = TickReport(produced, self._forwarded)
        return self._report

    def changed_nodes(self) -> list[str]:
        """The nodes the last tick rebuilt, in `add_node` order.

        A superset of the nodes whose visible topics it changed; empty
        after a fixed point.
        """
        if self._rebuilt is None:
            return list(self._bus)
        return sorted(self._rebuilt, key=self._order.__getitem__)

    def topics_visible_at(self, node_id: str) -> tuple[str, ...]:
        """Topics with at least one message on the node during the last tick,
        sorted.  The same tuple again while the node's bus holds the same
        arrived mapping and an equal local list; otherwise the last one
        patched by bisection with the topics that came and went."""
        bus = self._bus.get(node_id)
        if bus is None:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        view = self._views.get(node_id)
        if view is not None:
            seen, visible, ordered = view
            if seen is bus or seen[0] is bus[0] and seen[1] == bus[1]:
                self._views[node_id] = (bus, visible, ordered)
                return ordered
        arrived, local = bus
        topics = set(local)
        if arrived:
            topics.update(arrived)
        if view is None:
            ordered = tuple(sorted(topics))
        elif topics != visible:
            patched = list(ordered)
            for topic in visible - topics:
                del patched[bisect_left(patched, topic)]
            for topic in topics - visible:
                insort(patched, topic)
            ordered = tuple(patched)
        self._views[node_id] = (bus, topics, ordered)
        return ordered
