"""Deployment-request handling: validate, resolve, upsert demand deltas.

The manager is the write side of the control plane.  It turns one
deployment request into one demand delta per affected custom resource and
applies them to the store.  Its result cache keyed by request id is the
one idempotency layer: a redelivered request id gets the first result
back and never reaches the store again.  Beyond that cache it holds only
the per-application active version (flipped by upgrades) and the owning
application of each service resource (so an upgrade touches only its own).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .catalog import Catalog, ConnectionPartSpec, DemandDescription, ServicePartSpec
from .model import (
    AccessDeniedError,
    ConfigItem,
    DeltaAction,
    MalformedRequestError,
    NothingRunningError,
    OrchestrationError,
    ResourceKind,
    TOPIC_KINDS,
    UnknownEntityError,
)
from .store import DemandDelta, ResourceStore

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DeploymentRequest:
    request_id: str
    action: DeltaAction
    app_name: str
    requesters: tuple[str, ...]
    inputs: tuple[tuple[str, str], ...]
    issued_at: int = 0

    def demand(self) -> DemandDescription:
        return DemandDescription(requesters=self.requesters, inputs=self.inputs)


class Outcome(str, Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"


@dataclass(frozen=True)
class RequestResult:
    request_id: str
    outcome: Outcome
    applied_crs: tuple[tuple[ResourceKind, str, int], ...] = ()
    reason: str = ""

    @property
    def accepted(self) -> bool:
        return self.outcome is Outcome.ACCEPTED


class AccessDomainPolicy:
    """Per-node allowlist of application names.

    Nodes without an entry accept every application; an empty policy is
    therefore fully permissive.
    """

    def __init__(self, allowed: Mapping[str, Iterable[str]] | None = None):
        self._allowed: dict[str, frozenset[str]] = {
            node: frozenset(apps) for node, apps in (allowed or {}).items()
        }

    def allows(self, app_name: str, node_id: str) -> bool:
        entry = self._allowed.get(node_id)
        return entry is None or app_name in entry


class AppManager:
    def __init__(
        self,
        store: ResourceStore,
        catalog: Catalog,
        policy: AccessDomainPolicy | None = None,
    ):
        self._store = store
        self._catalog = catalog
        self._policy = policy or AccessDomainPolicy()
        # The topology is immutable, so its node set is built once.
        self._known_nodes = frozenset(
            e.node_id for e in catalog.topology.entities()
        )
        self._processed: dict[str, RequestResult] = {}
        self._active_version: dict[str, str] = {}
        self._owner: dict[str, str] = {}  # service cr name -> application
        self._upgrade_seq = 0

    # -- version bookkeeping ----------------------------------------------

    def active_version(self, app_name: str) -> str:
        version = self._active_version.get(app_name)
        if version is None:
            version = self._catalog.first_version(app_name)
        return version

    def check_access(self, app_name: str, node_id: str) -> bool:
        if node_id not in self._known_nodes:
            raise UnknownEntityError(f"unknown node {node_id!r}")
        return self._policy.allows(app_name, node_id)

    # -- request handling --------------------------------------------------

    def handle_request(self, request: DeploymentRequest) -> RequestResult:
        """Process one deployment request, exactly once per request id.

        Validation is atomic: a request that fails any check leaves the
        store untouched.  Redelivery of an already processed request id
        returns the original result without touching the store again.
        """
        cached = self._processed.get(request.request_id)
        if cached is not None:
            log.debug("request %s redelivered, returning cached result",
                      request.request_id)
            return cached

        try:
            version, services, connections = self._validate(request)
        except OrchestrationError as exc:
            result = _rejected(request.request_id, exc)
        else:
            for part in services:
                self._owner[part.cr_name] = request.app_name
            # Connections are shared plumbing without an application
            # version of their own, so their deltas carry none.
            writes = [
                (ResourceKind.MANAGED_SERVICE, p.cr_name, p.config_items, version)
                for p in services
            ]
            writes += [
                (ResourceKind.MANAGED_CONNECTION, p.cr_name, p.config_items, "")
                for p in connections
            ]
            result = self._write(
                request.request_id, request.action, request.requesters, writes
            )
        self._processed[request.request_id] = result
        return result

    def _write(
        self,
        write_id: str,
        action: DeltaAction,
        requesters: tuple[str, ...],
        writes: list[tuple[ResourceKind, str, tuple[ConfigItem, ...], str]],
    ) -> RequestResult:
        """Apply one delta per (kind, name, config items, version) write."""
        applied: list[tuple[ResourceKind, str, int]] = []
        for kind, name, config_items, app_version in writes:
            delta = DemandDelta(
                f"{write_id}/{name}", action, requesters, config_items, app_version
            )
            applied.append((kind, name, self._store.apply_cr(kind, name, delta)))
        return RequestResult(write_id, Outcome.ACCEPTED, tuple(applied))

    def _validate(
        self, request: DeploymentRequest
    ) -> tuple[str, tuple[ServicePartSpec, ...], tuple[ConnectionPartSpec, ...]]:
        if not request.requesters:
            raise MalformedRequestError("request carries no requesters")
        for entity_id, kind in request.inputs:
            if kind not in TOPIC_KINDS:
                raise MalformedRequestError(
                    f"input {entity_id}:{kind} names an unknown topic kind"
                )
        version = self.active_version(request.app_name)
        resolved = self._catalog.resolve(
            request.app_name, version, request.demand()
        )
        touched = {part.target_node for part in resolved.services}
        for conn in resolved.connections:
            touched.add(conn.src_node)
            touched.add(conn.dst_node)
        for node in sorted(touched):
            if not self.check_access(request.app_name, node):
                raise AccessDeniedError(
                    f"{request.app_name} is not allowed on node {node}"
                )
        return version, resolved.services, resolved.connections

    # -- upgrades ----------------------------------------------------------

    def upgrade_application(self, app_name: str, new_version: str) -> RequestResult:
        """Roll every live service of an application to a new version.

        Emits one version-only delta per live service resource; the
        operators replace the instances.  Connections are unversioned and
        untouched.
        """
        self._upgrade_seq += 1
        upgrade_id = f"upgrade-{self._upgrade_seq:03d}"
        try:
            self._catalog.template(app_name, new_version)
            live = [
                name
                for name in self._store.list_crs(ResourceKind.MANAGED_SERVICE)
                if self._owner.get(name) == app_name
            ]
            if not live:
                raise NothingRunningError(
                    f"no live services of {app_name} to upgrade"
                )
        except OrchestrationError as exc:
            return _rejected(upgrade_id, exc)

        result = self._write(
            upgrade_id,
            DeltaAction.REQUEST,
            (),
            [(ResourceKind.MANAGED_SERVICE, name, (), new_version) for name in live],
        )
        self._active_version[app_name] = new_version
        log.info("upgraded %s to %s across %d services",
                 app_name, new_version, len(live))
        return result


def _rejected(request_id: str, exc: OrchestrationError) -> RequestResult:
    reason = f"{type(exc).__name__}: {exc}"
    return RequestResult(request_id, Outcome.REJECTED, reason=reason)
