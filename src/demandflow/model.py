"""Shared domain primitives: entities, roles, topics, config items, errors.

Everything in here is dependency-free and imported by the rest of the
package.  Entity identifiers double as cluster node identifiers unless a
scenario maps them explicitly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class EntityRole(str, Enum):
    CV = "cv"          # connected vehicle
    RISU = "risu"      # roadside infrastructure station unit
    EDGE = "edge"
    CLOUD = "cloud"


class ResourceKind(str, Enum):
    MANAGED_SERVICE = "service"
    MANAGED_CONNECTION = "connection"


class DeltaAction(str, Enum):
    REQUEST = "request"
    RELEASE = "release"


class Phase(str, Enum):
    PENDING = "pending"
    RUNNING = "running"


class ChangeType(str, Enum):
    CREATED = "created"
    SPEC_UPDATED = "spec-updated"
    DELETED = "deleted"


class ServiceKind(str, Enum):
    OBJECT_DETECTION = "object-detection"
    OBJECT_FUSION = "object-fusion"
    COMM_SENDER = "comm-sender"
    COMM_RECEIVER = "comm-receiver"
    OTHER = "other"


# Entity, node, application and part role names; they become parts of
# trace fields, so they hold no space, comma, `=` or line break.
ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")

# Topic kinds an entity can provide as a data source.
TOPIC_KIND_EGO = "ego"
TOPIC_KIND_POINTCLOUD = "pointcloud"
TOPIC_KINDS = (TOPIC_KIND_EGO, TOPIC_KIND_POINTCLOUD)


def ego_topic(entity_id: str) -> str:
    return f"/{entity_id}/ego"


def points_topic(entity_id: str) -> str:
    return f"/{entity_id}/points"


def source_topic(entity_id: str, kind: str) -> str:
    """Topic name under which `entity_id` provides data of `kind`."""
    if kind == TOPIC_KIND_EGO:
        return ego_topic(entity_id)
    if kind == TOPIC_KIND_POINTCLOUD:
        return points_topic(entity_id)
    raise ValueError(f"unknown topic kind {kind!r}")


@dataclass(frozen=True, order=True)
class ConfigItem:
    """One typed configuration entry of a service or connection.

    `kind` is a short token such as ``input-topic`` or ``node``; items of
    the same kind may repeat with different values (e.g. several input
    topics).
    """

    kind: str
    value: str

    def render(self) -> str:
        return f"{self.kind}:{self.value}"


# ConfigItem kinds used across modules.
CFG_NODE = "node"
CFG_SERVICE_KIND = "service-kind"
CFG_SOURCE = "source"
CFG_INPUT_TOPIC = "input-topic"
CFG_OUTPUT_TOPIC = "output-topic"
CFG_SRC = "src"
CFG_DST = "dst"
CFG_FORWARD_TOPIC = "forward-topic"


def config_values(items: Iterable[ConfigItem], kind: str) -> tuple[str, ...]:
    return tuple(item.value for item in items if item.kind == kind)


def config_value(items: Iterable[ConfigItem], kind: str) -> str:
    values = config_values(items, kind)
    if len(values) != 1:
        raise ValueError(f"expected exactly one {kind!r} item, got {len(values)}")
    return values[0]


# --------------------------------------------------------------------------
# Errors
# --------------------------------------------------------------------------


class OrchestrationError(Exception):
    """Base class for all domain errors raised by this package."""


class NotFoundError(OrchestrationError):
    pass


class StaleStatusError(OrchestrationError):
    pass


class AlreadyRegisteredError(OrchestrationError):
    pass


class UnknownApplicationError(OrchestrationError):
    pass


class UnknownVersionError(OrchestrationError):
    pass


class UnknownEntityError(OrchestrationError):
    pass


class AccessDeniedError(OrchestrationError):
    pass


class MalformedRequestError(OrchestrationError):
    pass


class NothingRunningError(OrchestrationError):
    pass


class UnknownNodeError(OrchestrationError):
    pass


class DuplicateNodeError(OrchestrationError):
    pass


class NotRunningError(OrchestrationError):
    pass


class ScenarioError(OrchestrationError):
    """Base class for scenario file problems."""


class ScenarioParseError(ScenarioError):
    pass


class ScenarioValidationError(ScenarioError):
    pass


class NonQuiescenceError(OrchestrationError):
    """The reconcile queues failed to drain within the per-tick round budget."""


# --------------------------------------------------------------------------
# Entities and topology
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Entity:
    """One C-ITS participant and the cluster node it hosts."""

    entity_id: str
    role: EntityRole
    capabilities: tuple[str, ...] = ()
    node_id: str = ""

    def __post_init__(self) -> None:
        if not self.node_id:
            object.__setattr__(self, "node_id", self.entity_id)
        for kind in self.capabilities:
            if kind not in TOPIC_KINDS:
                raise ValueError(
                    f"entity {self.entity_id}: unknown capability {kind!r}"
                )

    def provides(self, kind: str) -> bool:
        return kind in self.capabilities


class Topology:
    """Immutable registry of the entities taking part in a scenario."""

    def __init__(self, entities: Iterable[Entity]):
        self._entities: dict[str, Entity] = {}
        nodes: set[str] = set()
        for entity in entities:
            if entity.entity_id in self._entities:
                raise ValueError(f"duplicate entity {entity.entity_id}")
            if entity.node_id in nodes:
                raise ValueError(
                    f"entities must map to distinct nodes, {entity.node_id!r} is taken"
                )
            nodes.add(entity.node_id)
            self._entities[entity.entity_id] = entity

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._entities

    def get(self, entity_id: str) -> Entity:
        try:
            return self._entities[entity_id]
        except KeyError:
            raise UnknownEntityError(f"unknown entity {entity_id!r}") from None

    def entities(self) -> tuple[Entity, ...]:
        return tuple(self._entities.values())

    def node_of(self, entity_id: str) -> str:
        return self.get(entity_id).node_id

    def with_role(self, role: EntityRole) -> tuple[Entity, ...]:
        """Entities of one role in order; a scan, called only at set-up."""
        return tuple(e for e in self._entities.values() if e.role is role)

    def single_node_with_role(self, role: EntityRole) -> str:
        matches = self.with_role(role)
        if len(matches) != 1:
            raise ValueError(
                f"expected exactly one {role.value} entity, found {len(matches)}"
            )
        return matches[0].node_id
