"""Reconcile loops that drive the cluster towards each resource's ledger.

The spec of a custom resource is its desired state, the demand ledger the
app manager keeps: a counted multiset of requesters and one of countable
config items.  An operator reads the current spec, decides one action
from it and the resource's live instance, and executes it.  The support
set being empty is the one and only shutdown signal.  A cluster failure
re-queues the event; after MAX_ATTEMPTS failures in one drain the event
is parked until the next drain, so a failure delays convergence and
never drops demand.
"""

from __future__ import annotations

import logging
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum

from .cluster import ClusterSim, InstanceSpec, ServiceInstance
from .model import (
    CFG_NODE,
    CFG_SERVICE_KIND,
    CFG_SRC,
    CFG_DST,
    ChangeType,
    NotFoundError,
    NotRunningError,
    OrchestrationError,
    Phase,
    ResourceKind,
    ServiceKind,
    config_value,
)
from .store import DemandLedger, ResourceStatus, ResourceStore, WatchEvent
from .tracing import Trace

log = logging.getLogger(__name__)

# Reconcile attempts per resource in one drain before its event is parked.
MAX_ATTEMPTS = 3


class DecisionAction(str, Enum):
    DEPLOY = "deploy"
    RECONFIGURE = "reconfigure"
    REPLACE = "replace"
    SHUTDOWN = "shutdown"
    NOOP = "noop"


def decide(
    ledger: DemandLedger, instance: ServiceInstance | None
) -> DecisionAction:
    """Map a ledger plus the current instance onto one action.

    Shutdown exactly when support is empty; the decision depends only on
    the resulting state, never on how the ledger got there.
    """
    if ledger.is_empty():
        return DecisionAction.SHUTDOWN
    if instance is None:
        return DecisionAction.DEPLOY
    if ledger.version and instance.version != ledger.version:
        return DecisionAction.REPLACE
    if set(ledger.effective_config) != set(instance.config):
        return DecisionAction.RECONFIGURE
    return DecisionAction.NOOP


@dataclass
class _Resource:
    """What an operator knows about one custom resource."""

    ledger: DemandLedger | None = None  # last reconciled; None until one is
    observed: int = 0
    units: tuple[str, ...] = ()
    retiring: tuple[tuple[str, ...], tuple[str, ...]] | None = None  # units, nodes
    attempts: int = 0  # failed reconciles since the last success or parking


class Operator:
    """The reconcile loop, shared by both resource kinds.

    One watch event is processed at a time.  Reconciling is
    level-triggered: read the store's current spec, decide, execute
    against the cluster, then publish status and a ledger trace record;
    events at or below the observed generation are stale.  A cluster
    failure re-queues the event; the MAX_ATTEMPTS-th failure traces an
    error and parks the event without advancing the observed generation,
    and every event of a parked resource waits with it until `unpark`.

    Each resource has one `_Resource` record, dropped in one step on
    shutdown or delete.  Its units are created together by `_deploy_units`,
    the one hook per kind; the first unit is the one compared against the
    ledger and reconfigured in place.  Units that a replace or teardown
    must terminate wait in `retiring` until all are gone, so a step that
    failed halfway is finished, not repeated.
    """

    kind: ResourceKind
    source: str

    def __init__(self, store: ResourceStore, sim: ClusterSim, trace: Trace):
        self._store = store
        self._sim = sim
        self._trace = trace
        self._events = store.watch(self.kind)
        self._retry: deque[WatchEvent] = deque()
        self._parked: dict[str, WatchEvent] = {}
        self._resources: dict[str, _Resource] = {}

    # -- queue handling ----------------------------------------------------

    def pending(self) -> int:
        """Queued watch events and retries; parked events do not count."""
        return len(self._events) + len(self._retry)

    def unpark(self) -> None:
        """Re-queue every parked event for another round of attempts."""
        self._retry.extend(self._parked.values())
        self._parked.clear()

    def run_pending(self) -> int:
        """Process queued retries, then all queued watch events."""
        processed = 0
        retries = list(self._retry)
        self._retry.clear()
        for event in retries:
            self.reconcile(event)
            processed += 1
        while self._events:
            self.reconcile(self._events.popleft())
            processed += 1
        return processed

    def ledger(self, name: str) -> DemandLedger | None:
        record = self._resources.get(name)
        return record.ledger if record else None

    def ledgers(self) -> dict[str, DemandLedger]:
        records = self._resources.items()
        return {n: r.ledger for n, r in records if r.ledger is not None}

    # -- the reconcile step ------------------------------------------------

    def reconcile(self, event: WatchEvent) -> None:
        name = event.name
        if event.change is ChangeType.DELETED:
            record = self._resources.pop(name, None)
            if record is not None:
                with suppress(OrchestrationError):
                    self._teardown(name, record)
            return
        if name in self._parked:
            return  # the parked event covers it
        record = self._resources.get(name)
        if record is not None and event.generation <= record.observed:
            return  # stale or duplicate event
        try:
            resource = self._store.get_cr(self.kind, name)
        except NotFoundError:
            return  # deleted meanwhile; the deletion event is behind us
        if record is None:
            record = self._resources[name] = _Resource()

        ledger = resource.spec
        action = decide(ledger, self._primary_instance(record))
        try:
            self._execute(name, record, action, ledger)
        except OrchestrationError as exc:
            self._handle_failure(record, event, resource.generation, exc)
            return

        record.observed = resource.generation
        record.ledger = ledger
        record.attempts = 0
        if action is DecisionAction.SHUTDOWN:
            del self._resources[name]
            self._store.delete_cr(self.kind, name)
            self._trace.ledger_state(name, (), ())
        else:
            self._write_status(name, record, Phase.RUNNING)
            self._trace.ledger_state(
                name,
                ledger.support,
                (i.render() for i in ledger.effective_config),
            )

    def _handle_failure(
        self, record: _Resource, event: WatchEvent, target: int, exc: OrchestrationError
    ) -> None:
        record.attempts += 1
        if record.attempts < MAX_ATTEMPTS:
            log.debug("reconcile of %s failed (%s), attempt %d, re-queueing",
                      event.name, exc, record.attempts)
            self._write_status(event.name, record, Phase.PENDING)
            self._retry.append(event)
            return
        # Give up for this drain: the spec still holds the demand, so the
        # parked event retries it from the next drain on.
        record.attempts = 0
        self._parked[event.name] = event
        self._trace.error(
            self.source,
            "reconcile-failed",
            f"{event.name}@{target}:{type(exc).__name__}",
        )

    def _write_status(self, name: str, record: _Resource, phase: Phase) -> None:
        """Publish the committed ledger, units and generation of `name`."""
        self._store.update_status(
            self.kind,
            name,
            ResourceStatus(
                phase=phase,
                support=record.ledger.support if record.ledger is not None else (),
                instance_ids=record.units,
                observed_generation=record.observed,
            ),
        )

    # -- cluster side ------------------------------------------------------

    def _execute(
        self, name: str, record: _Resource, action: DecisionAction, ledger: DemandLedger
    ) -> None:
        self._retire(name, record)
        units = record.units
        if action is DecisionAction.DEPLOY:
            new = record.units = self._deploy_units(name, ledger)
            self._trace.instance_action(name, "deploy", new, self._nodes(new))
        elif action is DecisionAction.RECONFIGURE:
            primary = units[:1]
            self._sim.reconfigure_instance(units[0], ledger.effective_config)
            self._trace.instance_action(
                name, "reconfigure", primary, self._nodes(primary)
            )
        elif action is DecisionAction.REPLACE:
            # Record the new units before the old ones go, so a retry after
            # a failed terminate reuses them instead of deploying again.
            retiring = (units, self._nodes(units))
            record.units = self._deploy_units(name, ledger)
            record.retiring = retiring
            self._retire(name, record)
        elif action is DecisionAction.SHUTDOWN:
            self._teardown(name, record)

    def _deploy_units(self, name: str, ledger: DemandLedger) -> tuple[str, ...]:
        raise NotImplementedError

    def _deploy(
        self, name: str, ledger: DemandLedger, kind: ServiceKind, node_id: str
    ) -> str:
        """Start one unit of `name` running the ledger's config and version."""
        return self._sim.deploy_instance(
            InstanceSpec(
                cr_name=name,
                service_kind=kind,
                node_id=node_id,
                config=ledger.effective_config,
                version=ledger.version,
            )
        )

    def _teardown(self, name: str, record: _Resource) -> None:
        units, record.units = record.units, ()
        if units:
            record.retiring = (units, self._nodes(units))
        self._retire(name, record)

    def _retire(self, name: str, record: _Resource) -> None:
        """Terminate the units a replace or teardown still owes, then trace it.

        A unit that is already gone counts as terminated, so a retry after
        a partly failed attempt finishes the job.
        """
        if record.retiring is None:
            return
        units, nodes = record.retiring
        for unit in units:
            with suppress(NotRunningError):
                self._sim.terminate_instance(unit)
        record.retiring = None
        new = record.units
        if new:
            self._trace.instance_action(
                name, "replace", new, self._nodes(new), replaced=units
            )
        else:
            self._trace.instance_action(name, "terminate", units, nodes)

    def _primary_instance(self, record: _Resource) -> ServiceInstance | None:
        if not record.units:
            return None
        try:
            return self._sim.get_instance(record.units[0])
        except NotFoundError:
            return None

    def _nodes(self, units: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(self._sim.get_instance(u).node_id for u in units)


class ServiceOperator(Operator):
    """Reconciles managed services onto single cluster instances."""

    kind = ResourceKind.MANAGED_SERVICE
    source = "service-operator"

    def _deploy_units(self, name: str, ledger: DemandLedger) -> tuple[str, ...]:
        config = ledger.effective_config
        service_kind = ServiceKind(config_value(config, CFG_SERVICE_KIND))
        node_id = config_value(config, CFG_NODE)
        return (self._deploy(name, ledger, service_kind, node_id),)


class ConnectionOperator(Operator):
    """Reconciles managed connections onto sender/receiver instance pairs.

    The pair is atomic: a deploy that cannot complete both halves tears
    the first half down again, so no half-connected state survives.
    """

    kind = ResourceKind.MANAGED_CONNECTION
    source = "connection-operator"

    def _deploy_units(self, name: str, ledger: DemandLedger) -> tuple[str, ...]:
        config = ledger.effective_config
        src = config_value(config, CFG_SRC)
        dst = config_value(config, CFG_DST)
        receiver_id = self._deploy(name, ledger, ServiceKind.COMM_RECEIVER, dst)
        try:
            sender_id = self._deploy(name, ledger, ServiceKind.COMM_SENDER, src)
        except OrchestrationError:
            self._sim.terminate_instance(receiver_id)
            raise
        return sender_id, receiver_id
