"""Application templates and the resolution of demand into concrete parts.

A template describes an application as a list of part rules.  Resolution
takes a request's demand (who is asking, and the (entity, topic kind)
inputs they bring along) and produces the concrete service parts plus
the connections that carry remote source topics to the node where they
are consumed.  Resolution is a pure function of (template, topology,
demand); it never inspects what is already deployed.  A part is its
resource name and its config items; its node(s), the service kind it
runs and the topics a connection forwards live only in those items.  It
also carries those items split as a fold counts them, built as the part
is composed.  A resolution also lists the nodes it touches.  Every part
of an application is placed on the single node holding its template's
placement role; that node is looked up once, when the template is
registered, and a template without one is refused there.
Registration also compiles each rule once: its node and service-kind
items, its parsed selectors and its output item.  Templates are
registered once and the topology is immutable, so the item of each
(entity, topic kind) input, the part of each (per-source rule, source)
pair and each connection part are prepared the first time a demand
needs them and shared by every later resolution that yields them.  A
resolution composes those with its singleton parts, which depend on the
whole demand.  The catalog keeps no per-demand memo: the app manager
keeps the writes of each demand it validated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .model import (
    CFG_DST,
    CFG_FORWARD_TOPIC,
    CFG_INPUT_TOPIC,
    CFG_NODE,
    CFG_OUTPUT_TOPIC,
    CFG_SERVICE_KIND,
    CFG_SOURCE,
    CFG_SRC,
    AlreadyRegisteredError,
    ConfigItem,
    EntityRole,
    ID_RE,
    ServiceKind,
    Topology,
    TOPIC_KINDS,
    UnknownApplicationError,
    UnknownVersionError,
    source_topic,
)
from .store import SplitConfig, multiplicities

# Selector prefixes understood in PartRule.input_selectors.
SELECT_DEMAND = "demand"
SELECT_OUTPUTS = "outputs"

# ROS 2 topic-name characters plus the `{source}` placeholder; see
# https://design.ros2.org/articles/topic_and_service_names.html
OUTPUT_TOPIC_RE = re.compile(r"(?:[A-Za-z0-9_/]|\{source\})*")


def service_cr_name(app_name: str, role: str, source: str | None = None) -> str:
    suffix = source if source is not None else "singleton"
    return f"svc-{app_name}-{role}-{suffix}"


def connection_cr_name(src_node: str, dst_node: str) -> str:
    return f"conn-{src_node}-{dst_node}"


@dataclass(frozen=True)
class PartRule:
    """How one kind of part of an application is instantiated.

    With `per_source_kind` set, one part is created per entity providing
    that topic kind; otherwise the rule yields a single part.  Input
    selectors are either ``demand:<kind>`` (all demanded topics of that
    kind) or ``outputs:<role>`` (output topics of an earlier rule).
    """

    role: str
    service_kind: ServiceKind
    placement_role: EntityRole
    per_source_kind: str | None = None
    input_selectors: tuple[str, ...] = ()
    output_topic: str | None = None


@dataclass(frozen=True)
class ApplicationTemplate:
    app_name: str
    version: str
    parts: tuple[PartRule, ...]

    @property
    def placement_role(self) -> EntityRole:
        """The role whose single node hosts every part (after `validate`)."""
        return self.parts[0].placement_role

    def validate(self) -> None:
        if not self.app_name or not self.version:
            raise ValueError("template needs a name and a version")
        if not self.parts:
            raise ValueError("template needs at least one part")
        seen_roles: set[str] = set()
        for rule in self.parts:
            if rule.placement_role is not self.placement_role:
                raise ValueError(
                    "all parts must share one placement role, found "
                    f"{self.placement_role.value!r} and {rule.placement_role.value!r}"
                )
            if not isinstance(rule.role, str) or not ID_RE.fullmatch(rule.role):
                raise ValueError(f"bad part role {rule.role!r}")
            if rule.role in seen_roles:
                raise ValueError(f"duplicate part role {rule.role!r}")
            topic = rule.output_topic
            if topic is not None and not (
                isinstance(topic, str) and OUTPUT_TOPIC_RE.fullmatch(topic)
            ):
                raise ValueError(f"bad output topic {topic!r}")
            if rule.per_source_kind is not None:
                if rule.per_source_kind not in TOPIC_KINDS:
                    raise ValueError(
                        f"unknown source kind {rule.per_source_kind!r}"
                    )
                if rule.input_selectors:
                    raise ValueError(
                        "per-source rules derive their input from the source"
                    )
            for selector in rule.input_selectors:
                if not isinstance(selector, str):
                    raise ValueError(f"bad selector {selector!r}")
                prefix, _, arg = selector.partition(":")
                if prefix == SELECT_DEMAND:
                    if arg not in TOPIC_KINDS:
                        raise ValueError(f"bad selector {selector!r}")
                elif prefix == SELECT_OUTPUTS:
                    if arg not in seen_roles:
                        raise ValueError(
                            f"selector {selector!r} must reference an earlier rule"
                        )
                else:
                    raise ValueError(f"bad selector {selector!r}")
            seen_roles.add(rule.role)


class PartSpec(NamedTuple):
    """A part: its resource name, its config items and those items split
    as a fold takes them."""

    cr_name: str
    config_items: tuple[ConfigItem, ...]
    split: SplitConfig


class ResolvedParts(NamedTuple):
    services: tuple[PartSpec, ...]
    connections: tuple[PartSpec, ...]
    # The placement node plus every source node off it, sorted.
    nodes: tuple[str, ...]


class _Rule(NamedTuple):
    """A part rule compiled once for its application and placement node."""

    role: str
    # The node and service-kind items every part of the rule starts with.
    head: tuple[ConfigItem, ...]
    # A per-source rule: its source kind, its output topic pattern and,
    # per source prepared so far, its part and its output as input items.
    source_kind: str | None
    output: str
    sourced: dict[str, tuple[PartSpec, tuple[ConfigItem, ...]]]
    # A singleton rule: its resource name, its selectors as (selects the
    # demand, topic kind or rule role), the output-topic item after its
    # input topics and its output as input items.
    cr_name: str
    selectors: tuple[tuple[bool, str], ...]
    tail: tuple[ConfigItem, ...]
    outputs: tuple[ConfigItem, ...]


class Catalog:
    """Registry of application templates, keyed by (name, version)."""

    def __init__(self, topology: Topology):
        self._topology = topology
        # entity -> its node, for every entity a demand has named so far
        self._node_of: dict[str, str] = {}
        self._templates: dict[tuple[str, str], ApplicationTemplate] = {}
        self._first_version: dict[str, str] = {}
        # (app_name, version) -> its placement node and compiled rules
        self._plans: dict[tuple[str, str], tuple[str, tuple[_Rule, ...]]] = {}
        # (app_name, placement node, rule) -> the rule compiled, shared by
        # the versions that hold an equal rule
        self._rules: dict[tuple[str, str, PartRule], _Rule] = {}
        # (entity, topic kind) -> the input-topic item of that input
        self._inputs: dict[tuple[str, str], ConfigItem] = {}
        # (placement node, source entity, its topic kinds...) -> the part
        self._connections: dict[tuple[str, ...], PartSpec] = {}

    def register_application(self, template: ApplicationTemplate) -> None:
        template.validate()
        key = (template.app_name, template.version)
        if key in self._templates:
            raise AlreadyRegisteredError(
                f"{template.app_name} {template.version} declared twice"
            )
        placed = self._topology.single_node_with_role(template.placement_role)
        self._plans[key] = placed, tuple(
            self._compile(template.app_name, placed, rule) for rule in template.parts
        )
        self._templates[key] = template
        self._first_version.setdefault(template.app_name, template.version)

    def versions(self, app_name: str) -> tuple[str, ...]:
        """Registered versions of an application, in registration order."""
        return tuple(v for name, v in self._templates if name == app_name)

    def first_version(self, app_name: str) -> str:
        version = self._first_version.get(app_name)
        if version is None:
            raise UnknownApplicationError(f"unknown application {app_name!r}")
        return version

    def template(self, app_name: str, version: str) -> ApplicationTemplate:
        template = self._templates.get((app_name, version))
        if template is None:
            self.first_version(app_name)  # raises UnknownApplicationError
            raise UnknownVersionError(f"{app_name} has no version {version!r}")
        return template

    # -- resolution --------------------------------------------------------

    def resolve(
        self,
        app_name: str,
        version: str,
        requesters: tuple[str, ...],
        inputs: tuple[tuple[str, str], ...],
    ) -> ResolvedParts:
        """The parts one application version needs for a demand.

        `requesters` are the entities asking; `inputs` are the (entity,
        topic kind) pairs they bring, in an order kept all the way into
        the rendered config items.
        """
        plan = self._plans.get((app_name, version))
        if plan is None:
            self.template(app_name, version)  # raises
        node_of = self._node_of
        for entity_id in requesters:
            if entity_id not in node_of:
                # raises UnknownEntityError
                node_of[entity_id] = self._topology.node_of(entity_id)
        # The demanded input-topic items in input order, by kind, and the
        # kinds each entity brings.
        prepared = self._inputs
        by_kind: dict[str, list[ConfigItem]] = {}
        by_entity: dict[str, list[str]] = {}
        for key in inputs:
            item = prepared.get(key) or self._input(inputs, key)
            entity_id, kind = key
            by_kind.setdefault(kind, []).append(item)
            by_entity.setdefault(entity_id, []).append(kind)
        placed, rules = plan

        services: list[PartSpec] = []
        outputs: dict[str, Sequence[ConfigItem]] = {}
        for rule in rules:
            kind = rule.source_kind
            if kind is None:
                selected: list[ConfigItem] = []
                for from_demand, arg in rule.selectors:
                    selected += (by_kind if from_demand else outputs).get(arg, ())
                services.append(PartSpec(
                    rule.cr_name,
                    (*rule.head, *selected, *rule.tail),
                    (multiplicities(selected), rule.head + rule.tail),
                ))
                outputs[rule.role] = rule.outputs
                continue
            made: list[ConfigItem] = []
            for source in sorted({e for e, k in inputs if k == kind}):
                part, out = rule.sourced.get(source) or self._sourced(
                    app_name, rule, source
                )
                services.append(part)
                made += out
            outputs[rule.role] = made

        # Every demanded source topic off the placement node is carried
        # there, one connection per source entity.
        connections: list[PartSpec] = []
        nodes = [placed]
        for entity_id in sorted(by_entity):
            node = node_of[entity_id]
            if node != placed:
                kinds = by_entity[entity_id]
                connections.append(
                    self._connections.get((placed, entity_id, *kinds))
                    or self._connection(placed, entity_id, kinds)
                )
                nodes.append(node)
        nodes.sort()
        return ResolvedParts(tuple(services), tuple(connections), tuple(nodes))

    def _compile(self, app_name: str, placed: str, rule: PartRule) -> _Rule:
        key = (app_name, placed, rule)
        compiled = self._rules.get(key)
        if compiled is None:
            head = (
                ConfigItem(CFG_NODE, placed),
                ConfigItem(CFG_SERVICE_KIND, rule.service_kind.value),
            )
            # A rule without a source kind yields one part, for source "".
            output = rule.output_topic or ""
            out = output.format(source="")
            tail = (ConfigItem(CFG_OUTPUT_TOPIC, out),) if out else ()
            selectors = tuple(
                (prefix == SELECT_DEMAND, arg)
                for prefix, _, arg in (s.partition(":") for s in rule.input_selectors)
            )
            compiled = self._rules[key] = _Rule(
                rule.role, head, rule.per_source_kind, output, {},
                service_cr_name(app_name, rule.role), selectors, tail,
                tuple(ConfigItem(CFG_INPUT_TOPIC, out) for _ in tail),
            )
        return compiled

    def _input(
        self, inputs: tuple[tuple[str, str], ...], key: tuple[str, str]
    ) -> ConfigItem:
        """Prepare an input's item on its first use.  Every input entity
        is looked up first, so an unknown one is reported before a bad
        kind, and the connections can read its node."""
        for entity_id, _ in inputs:
            # raises UnknownEntityError
            self._node_of[entity_id] = self._topology.node_of(entity_id)
        item = self._inputs[key] = ConfigItem(CFG_INPUT_TOPIC, source_topic(*key))
        return item

    def _sourced(
        self, app_name: str, rule: _Rule, source: str
    ) -> tuple[PartSpec, tuple[ConfigItem, ...]]:
        """Prepare the part a per-source rule yields for one source."""
        topic = self._inputs[source, rule.source_kind]
        out = rule.output.format(source=source)
        tail = (ConfigItem(CFG_OUTPUT_TOPIC, out),) if out else ()
        base = (*rule.head, ConfigItem(CFG_SOURCE, source))
        part = PartSpec(
            service_cr_name(app_name, rule.role, source),
            (*base, topic, *tail),
            ({topic: 1}, base + tail),
        )
        made = rule.sourced[source] = (
            part, tuple(ConfigItem(CFG_INPUT_TOPIC, out) for _ in tail)
        )
        return made

    def _connection(self, placed: str, entity_id: str, kinds: list[str]) -> PartSpec:
        """Prepare the connection carrying an entity's demanded topics."""
        src = self._node_of[entity_id]
        base = (ConfigItem(CFG_SRC, src), ConfigItem(CFG_DST, placed))
        forwarded = [
            ConfigItem(CFG_FORWARD_TOPIC, source_topic(entity_id, k)) for k in kinds
        ]
        part = self._connections[(placed, entity_id, *kinds)] = PartSpec(
            connection_cr_name(src, placed),
            (*base, *forwarded),
            (multiplicities(forwarded), base),
        )
        return part
