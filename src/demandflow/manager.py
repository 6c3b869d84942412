"""Deployment-request handling: validate, resolve, fold demand into specs.

The manager is the write side of the control plane.  It resolves one
deployment request into the custom resources it affects, checks the
access policy on each node the catalog's resolution lists, folds the
request's demand into each resource's current ledger and writes the
ledgers back as the new specs.  Every part is folded before any is
written, so a release that names more demand than some ledger holds
rejects the whole request and leaves the store untouched.  Its result
cache keyed by request id is the one idempotency layer: a redelivered
request id gets the first result back and never reaches the store
again.  It keeps the writes of each demand it validated, keyed by
(application, active version, requesters, inputs): templates are
registered once and the topology and the policy are fixed, so a
repeated demand (a release, a re-entry) goes straight to the fold.  A
demand that fails validation stores nothing.  Beyond that it holds only
the per-application active version (flipped by upgrades) and the owning
application of each service resource (so an upgrade touches only its
own).
"""

from __future__ import annotations

import logging
from typing import Iterable, Mapping, NamedTuple

from .catalog import Catalog
from .model import (
    AccessDeniedError,
    DeltaAction,
    MalformedRequestError,
    NothingRunningError,
    OrchestrationError,
    ResourceKind,
    TOPIC_KINDS,
)
from .store import (
    NO_CONFIG,
    DemandLedger,
    ResourceStore,
    SplitConfig,
    fold_demand,
    multiplicities,
)

log = logging.getLogger(__name__)


class DeploymentRequest(NamedTuple):
    request_id: str
    action: DeltaAction
    app_name: str
    requesters: tuple[str, ...]
    inputs: tuple[tuple[str, str], ...]
    issued_at: int = 0


class RequestResult(NamedTuple):
    request_id: str
    accepted: bool
    applied_crs: tuple[tuple[ResourceKind, str, int], ...] = ()
    reason: str = ""


# One change to fold into a resource: (kind, name, split config, version).
Write = tuple[ResourceKind, str, SplitConfig, str]


class _Validated(NamedTuple):
    """A validated demand: its writes, and the services it owns."""

    writes: tuple[Write, ...]
    services: tuple[str, ...]


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
        self._processed: dict[str, RequestResult] = {}
        self._active_version: dict[str, str] = {}
        # (application, version, requesters, inputs) -> its validated writes
        self._validated: dict[tuple, _Validated] = {}
        self._owner: dict[str, str] = {}  # service cr name -> application
        self._upgrade_seq = 0

    # -- version bookkeeping ----------------------------------------------

    def active_version(self, app_name: str) -> str:
        version = self._active_version.get(app_name)
        if version is None:
            version = self._catalog.first_version(app_name)
            self._active_version[app_name] = version
        return version

    # -- request handling --------------------------------------------------

    def handle_request(self, request: DeploymentRequest) -> RequestResult:
        """Process one deployment request, exactly once per request id.

        Validation is atomic: a request that fails any check, or releases
        more demand than a resource holds, leaves the store untouched.
        Redelivery of an already processed request id returns the
        original result without touching the store again.
        """
        cached = self._processed.get(request.request_id)
        if cached is not None:
            log.debug("request %s redelivered, returning cached result",
                      request.request_id)
            return cached

        app_name = request.app_name
        key = (
            app_name,
            self._active_version.get(app_name),
            request.requesters,
            request.inputs,
        )
        try:
            writes, services = self._validated.get(key) or self._validate(request)
            result = self._write(
                request.request_id, request.action, request.requesters, writes
            )
        except OrchestrationError as exc:
            result = _rejected(request.request_id, exc)
        else:
            for name in services:
                self._owner[name] = app_name
        self._processed[request.request_id] = result
        return result

    def _write(
        self,
        write_id: str,
        action: DeltaAction,
        requesters: tuple[str, ...],
        writes: Iterable[Write],
    ) -> RequestResult:
        """Fold one change per (kind, name, split config, version) write.

        The requesters are counted once for every write.  Every fold
        happens before the first store write, so a release that
        underflows any ledger raises and writes nothing.
        """
        sign = 1 if action is DeltaAction.REQUEST else -1
        counts = multiplicities(requesters)
        folded: dict[tuple[ResourceKind, str], DemandLedger] = {}
        for kind, name, config, app_version in writes:
            key = (kind, name)
            ledger = folded.get(key) or self._store.get_spec(kind, name)
            folded[key] = fold_demand(ledger, sign, counts, config, app_version)
        applied = tuple(
            (kind, name, self._store.apply_cr(kind, name, ledger))
            for (kind, name), ledger in folded.items()
        )
        return RequestResult(write_id, True, applied)

    def _validate(self, request: DeploymentRequest) -> _Validated:
        """Check a demand, resolve it at the active version and keep its
        writes under (application, version, requesters, inputs)."""
        if not request.requesters:
            raise MalformedRequestError("request carries no requesters")
        for entity_id, kind in request.inputs:
            if kind not in TOPIC_KINDS:
                raise MalformedRequestError(
                    f"input {entity_id}:{kind} names an unknown topic kind"
                )
        app_name = request.app_name
        requesters, inputs = request.requesters, request.inputs
        version = self.active_version(app_name)
        resolved = self._catalog.resolve(app_name, version, requesters, inputs)
        for node in resolved.nodes:
            if not self._policy.allows(app_name, node):
                raise AccessDeniedError(f"{app_name} is not allowed on node {node}")
        # Connections are shared plumbing without an application version
        # of their own, so their specs carry none.
        writes = [
            (ResourceKind.MANAGED_SERVICE, p.cr_name, p.split, version)
            for p in resolved.services
        ]
        writes += [
            (ResourceKind.MANAGED_CONNECTION, p.cr_name, p.split, "")
            for p in resolved.connections
        ]
        validated = self._validated[app_name, version, requesters, inputs] = (
            _Validated(tuple(writes), tuple(p.cr_name for p in resolved.services))
        )
        return validated

    # -- upgrades ----------------------------------------------------------

    def upgrade_application(self, app_name: str, new_version: str) -> RequestResult:
        """Roll every live service of an application to a new version.

        Sets the version of every live service resource's spec; the
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
            [(ResourceKind.MANAGED_SERVICE, name, NO_CONFIG, new_version)
             for name in live],
        )
        self._active_version[app_name] = new_version
        log.info("upgraded %s to %s across %d services",
                 app_name, new_version, len(live))
        return result


def _rejected(request_id: str, exc: OrchestrationError) -> RequestResult:
    reason = f"{type(exc).__name__}: {exc}"
    return RequestResult(request_id, False, reason=reason)
