"""Application templates and the resolution of demand into concrete parts.

A template describes an application as a list of part rules.  Resolution
takes a demand description (who is asking, which source topics they bring
along) and produces the concrete service parts plus the connections that
carry remote source topics to the node where they are consumed.
Resolution is a pure function of (template, topology, demand); it never
inspects what is already deployed.  A part is its resource name, its
node(s) and its config items; the service kind it runs and the topics a
connection forwards live only in those items.  Every part of an
application is placed on the single node holding its template's
placement role; that node is looked up once, when the template is
registered, and a template without one is refused there.  Templates
are registered once and the topology is immutable, so `Catalog.resolve`
memoizes successful results per (application, version, demand), at most
one per distinct demand and version: for detector-built requests, one
per vehicle and version.  A call that raises stores nothing and raises
again when repeated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class DemandDescription:
    """Who is demanding an application and which source topics they bring.

    `inputs` is an ordered list of (entity, topic kind) pairs; order is
    preserved all the way into rendered config items.
    """

    requesters: tuple[str, ...]
    inputs: tuple[tuple[str, str], ...]

    def entities(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for entity_id, _ in self.inputs:
            seen.setdefault(entity_id)
        return tuple(seen)

    def entities_providing(self, kind: str) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for entity_id, k in self.inputs:
            if k == kind:
                seen.setdefault(entity_id)
        return tuple(seen)

    def topics_of(self, entity_id: str) -> tuple[str, ...]:
        return tuple(
            source_topic(eid, kind) for eid, kind in self.inputs if eid == entity_id
        )

    def topics_of_kind(self, kind: str) -> tuple[str, ...]:
        return tuple(
            source_topic(eid, k) for eid, k in self.inputs if k == kind
        )


@dataclass(frozen=True)
class ServicePartSpec:
    cr_name: str
    target_node: str
    config_items: tuple[ConfigItem, ...]


@dataclass(frozen=True)
class ConnectionPartSpec:
    cr_name: str
    src_node: str
    dst_node: str
    config_items: tuple[ConfigItem, ...]


@dataclass(frozen=True)
class ResolvedParts:
    services: tuple[ServicePartSpec, ...]
    connections: tuple[ConnectionPartSpec, ...]


class Catalog:
    """Registry of application templates, keyed by (name, version)."""

    def __init__(self, topology: Topology):
        self._topology = topology
        self._templates: dict[tuple[str, str], ApplicationTemplate] = {}
        # (app_name, version) -> the node every part of it is placed on
        self._placement: dict[tuple[str, str], str] = {}
        # (app_name, version, demand) -> its successful resolution
        self._resolved: dict[tuple, ResolvedParts] = {}

    @property
    def topology(self) -> Topology:
        return self._topology

    def register_application(self, template: ApplicationTemplate) -> None:
        template.validate()
        key = (template.app_name, template.version)
        if key in self._templates:
            raise AlreadyRegisteredError(
                f"{template.app_name} {template.version} is already registered"
            )
        role = template.placement_role
        self._placement[key] = self._topology.single_node_with_role(role)
        self._templates[key] = template

    def versions(self, app_name: str) -> tuple[str, ...]:
        """Registered versions of an application, in registration order."""
        return tuple(v for name, v in self._templates if name == app_name)

    def first_version(self, app_name: str) -> str:
        versions = self.versions(app_name)
        if not versions:
            raise UnknownApplicationError(f"unknown application {app_name!r}")
        return versions[0]

    def template(self, app_name: str, version: str) -> ApplicationTemplate:
        template = self._templates.get((app_name, version))
        if template is None:
            self.first_version(app_name)  # raises UnknownApplicationError
            raise UnknownVersionError(f"{app_name} has no version {version!r}")
        return template

    # -- resolution --------------------------------------------------------

    def resolve(
        self, app_name: str, version: str, demand: DemandDescription
    ) -> ResolvedParts:
        """The parts `demand` needs of one application version, memoized."""
        key = (app_name, version, demand)
        parts = self._resolved.get(key)
        if parts is None:
            parts = self._resolved[key] = self._resolve(app_name, version, demand)
        return parts

    def _resolve(
        self, app_name: str, version: str, demand: DemandDescription
    ) -> ResolvedParts:
        template = self.template(app_name, version)
        for entity_id in (*demand.requesters, *demand.entities()):
            self._topology.get(entity_id)  # raises UnknownEntityError
        # Every part lands on one node; every demanded source topic must
        # be made available there.
        placed = self._placement[(app_name, version)]

        services: list[ServicePartSpec] = []
        outputs_by_role: dict[str, list[str]] = {}
        for rule in template.parts:
            selected: list[str] = []
            for selector in rule.input_selectors:
                prefix, _, arg = selector.partition(":")
                if prefix == SELECT_DEMAND:
                    selected.extend(demand.topics_of_kind(arg))
                else:
                    selected.extend(outputs_by_role.get(arg, ()))
            # A rule without a source kind yields one part, for source None.
            kind = rule.per_source_kind
            sources = sorted(demand.entities_providing(kind)) if kind else [None]
            for source in sources:
                items = [
                    ConfigItem(CFG_NODE, placed),
                    ConfigItem(CFG_SERVICE_KIND, rule.service_kind.value),
                ]
                inputs = selected
                if source is not None:
                    items.append(ConfigItem(CFG_SOURCE, source))
                    inputs = [source_topic(source, kind)]
                items.extend(ConfigItem(CFG_INPUT_TOPIC, t) for t in inputs)
                out = (rule.output_topic or "").format(source=source or "")
                if out:
                    items.append(ConfigItem(CFG_OUTPUT_TOPIC, out))
                    outputs_by_role.setdefault(rule.role, []).append(out)
                services.append(
                    ServicePartSpec(
                        cr_name=service_cr_name(app_name, rule.role, source),
                        target_node=placed,
                        config_items=tuple(items),
                    )
                )

        connections: list[ConnectionPartSpec] = []
        for source in sorted(demand.entities()):
            src_node = self._topology.node_of(source)
            if src_node == placed:
                continue
            topics = demand.topics_of(source)
            connections.append(
                ConnectionPartSpec(
                    cr_name=connection_cr_name(src_node, placed),
                    src_node=src_node,
                    dst_node=placed,
                    config_items=(
                        ConfigItem(CFG_SRC, src_node),
                        ConfigItem(CFG_DST, placed),
                        *(ConfigItem(CFG_FORWARD_TOPIC, t) for t in topics),
                    ),
                )
            )
        return ResolvedParts(services=tuple(services), connections=tuple(connections))
