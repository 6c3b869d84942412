"""Application templates and the resolution of demand into concrete parts.

A template describes an application as a list of part rules.  Resolution
takes a request's demand (who is asking, and the (entity, topic kind)
inputs they bring along) and produces the concrete service parts plus
the connections that carry remote source topics to the node where they
are consumed.  Resolution is a pure function of (template, topology,
demand); it never inspects what is already deployed.  A part is its
resource name and its config items; its node(s), the service kind it
runs and the topics a connection forwards live only in those items.  It
also carries those items split as a fold counts them, and resolutions
that yield the same part share one object, so each part is split once.
A resolution also lists the nodes it touches.  Every part of an
application is placed on the single node holding its template's
placement role; that node is looked up once, when the template is
registered, and a template without one is refused there.  Templates are
registered once and the topology is immutable, so `Catalog.resolve`
memoizes successful results per (application, version, requesters,
inputs), at most one per distinct demand and version: for
detector-built requests, one per vehicle and version.  A call that
raises stores nothing and raises again when repeated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

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
from .store import SplitConfig, split_config

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


@dataclass(frozen=True)
class ResolvedParts:
    services: tuple[PartSpec, ...]
    connections: tuple[PartSpec, ...]
    # The placement node plus every source node off it, sorted.
    nodes: tuple[str, ...]


class Catalog:
    """Registry of application templates, keyed by (name, version)."""

    def __init__(self, topology: Topology):
        self._topology = topology
        self._templates: dict[tuple[str, str], ApplicationTemplate] = {}
        # (app_name, version) -> the node every part of it is placed on
        self._placement: dict[tuple[str, str], str] = {}
        # (app_name, version, requesters, inputs) -> its successful resolution
        self._resolved: dict[tuple, ResolvedParts] = {}
        # (cr_name, config items) -> every part resolved
        self._parts: dict[tuple[str, tuple[ConfigItem, ...]], PartSpec] = {}

    def register_application(self, template: ApplicationTemplate) -> None:
        template.validate()
        key = (template.app_name, template.version)
        if key in self._templates:
            raise AlreadyRegisteredError(
                f"{template.app_name} {template.version} declared twice"
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
        self,
        app_name: str,
        version: str,
        requesters: tuple[str, ...],
        inputs: tuple[tuple[str, str], ...],
    ) -> ResolvedParts:
        """The parts one application version needs for a demand, memoized.

        `requesters` are the entities asking; `inputs` are the (entity,
        topic kind) pairs they bring, in an order kept all the way into
        the rendered config items.
        """
        key = (app_name, version, requesters, inputs)
        parts = self._resolved.get(key)
        if parts is None:
            parts = self._resolved[key] = self._resolve(*key)
        return parts

    def _resolve(
        self,
        app_name: str,
        version: str,
        requesters: tuple[str, ...],
        inputs: tuple[tuple[str, str], ...],
    ) -> ResolvedParts:
        template = self.template(app_name, version)
        for entity_id in (*requesters, *(e for e, _ in inputs)):
            self._topology.get(entity_id)  # raises UnknownEntityError
        # The demanded source topics in input order, by kind and by entity.
        by_kind: dict[str, list[str]] = {}
        by_entity: dict[str, list[str]] = {}
        for entity_id, kind in inputs:
            topic = source_topic(entity_id, kind)
            by_kind.setdefault(kind, []).append(topic)
            by_entity.setdefault(entity_id, []).append(topic)
        # Every part lands on one node; every demanded source topic must
        # be made available there.
        placed = self._placement[(app_name, version)]

        services: list[PartSpec] = []
        outputs_by_role: dict[str, list[str]] = {}
        for rule in template.parts:
            selected: list[str] = []
            for selector in rule.input_selectors:
                prefix, _, arg = selector.partition(":")
                if prefix == SELECT_DEMAND:
                    selected.extend(by_kind.get(arg, ()))
                else:
                    selected.extend(outputs_by_role.get(arg, ()))
            # A rule without a source kind yields one part, for source None.
            kind = rule.per_source_kind
            sources = sorted({e for e, k in inputs if k == kind}) if kind else [None]
            for source in sources:
                items = [
                    ConfigItem(CFG_NODE, placed),
                    ConfigItem(CFG_SERVICE_KIND, rule.service_kind.value),
                ]
                topics = selected
                if source is not None:
                    items.append(ConfigItem(CFG_SOURCE, source))
                    topics = [source_topic(source, kind)]
                items.extend(ConfigItem(CFG_INPUT_TOPIC, t) for t in topics)
                out = (rule.output_topic or "").format(source=source or "")
                if out:
                    items.append(ConfigItem(CFG_OUTPUT_TOPIC, out))
                    outputs_by_role.setdefault(rule.role, []).append(out)
                services.append(
                    self._part(service_cr_name(app_name, rule.role, source), items)
                )

        connections: list[PartSpec] = []
        nodes = {placed}
        for source, topics in sorted(by_entity.items()):
            src_node = self._topology.node_of(source)
            if src_node == placed:
                continue
            nodes.add(src_node)
            connections.append(
                self._part(
                    connection_cr_name(src_node, placed),
                    (
                        ConfigItem(CFG_SRC, src_node),
                        ConfigItem(CFG_DST, placed),
                        *(ConfigItem(CFG_FORWARD_TOPIC, t) for t in topics),
                    ),
                )
            )
        return ResolvedParts(tuple(services), tuple(connections), tuple(sorted(nodes)))

    def _part(self, cr_name: str, items: Iterable[ConfigItem]) -> PartSpec:
        """The part, one object for every resolution that yields it, so its
        config is split once."""
        config = tuple(items)
        part = self._parts.get((cr_name, config))
        if part is None:
            part = PartSpec(cr_name, config, split_config(config))
            self._parts[cr_name, config] = part
        return part
