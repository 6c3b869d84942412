"""Reference-counted demand bookkeeping and the reconcile loops.

The spec of a custom resource carries only the latest demand delta, so
the accumulated truth lives here, in each operator's ledgers: a counted
multiset of requesters and one of countable config items.  A requester or
config item stays part of the effective state while its count is
positive; release deltas decrement and a count reaching zero drops the
key.  The support set being empty is the one and only shutdown signal.
"""

from __future__ import annotations

import logging
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, TypeVar

from .cluster import ClusterSim, InstanceSpec, ServiceInstance
from .model import (
    CFG_FORWARD_TOPIC,
    CFG_INPUT_TOPIC,
    CFG_NODE,
    CFG_SERVICE_KIND,
    CFG_SRC,
    CFG_DST,
    ChangeType,
    ConfigItem,
    DeltaAction,
    NotFoundError,
    NotRunningError,
    OrchestrationError,
    Phase,
    ResourceKind,
    ServiceKind,
    config_value,
)
from .store import DemandDelta, ResourceStatus, ResourceStore, WatchEvent
from .tracing import Trace

log = logging.getLogger(__name__)

# Config item kinds subject to reference counting; everything else is
# adopted once from the first delta and kept as base config.
COUNTED_CONFIG_KINDS = frozenset({CFG_INPUT_TOPIC, CFG_FORWARD_TOPIC})

# Reconcile attempts per folded generation before its deltas are dropped.
MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class DemandLedger:
    """Accumulated demand for one custom resource.

    Dict fields are treated as immutable; apply_demand builds new dicts
    rather than mutating.  Key order is first-demand order, which keeps
    rendered support lists stable across runs.
    """

    requester_counts: dict[str, int] = field(default_factory=dict)
    config_counts: dict[ConfigItem, int] = field(default_factory=dict)
    base_config: tuple[ConfigItem, ...] = ()
    version: str = ""

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(self.requester_counts)

    @property
    def effective_config(self) -> tuple[ConfigItem, ...]:
        return self.base_config + tuple(self.config_counts)

    def is_empty(self) -> bool:
        return not self.requester_counts


@dataclass(frozen=True)
class LedgerRejection:
    """Why a delta could not be applied.  The ledger stays untouched."""

    kind: str
    detail: str


K = TypeVar("K")


def _fold(
    counts: dict[K, int], keys: Iterable[K], sign: int
) -> tuple[dict[K, int], K | None]:
    """Add `sign` times each key's multiplicity in `keys` to `counts`.

    Returns the new counts (keys in first-demand order, zero counts
    dropped) and None, or the old counts and the first key, in order of
    first appearance in `keys`, whose count would fall below zero.
    """
    changes: dict[K, int] = {}
    for key in keys:
        changes[key] = changes.get(key, 0) + sign
    folded = dict(counts)
    for key, change in changes.items():
        left = folded.get(key, 0) + change
        if left < 0:
            return counts, key
        if left:
            folded[key] = left
        else:
            del folded[key]
    return folded, None


def apply_demand(
    ledger: DemandLedger, delta: DemandDelta
) -> tuple[DemandLedger, LedgerRejection | None]:
    """Fold one demand delta into a ledger, atomically.

    A release that would push any requester or config count below zero is
    rejected as a whole; partial application never happens.  Only a
    request adopts base config and version; a version-only delta folds
    nothing, so it touches nothing but the version field.
    """
    base, version = ledger.base_config, ledger.version
    sign = 1 if delta.action is DeltaAction.REQUEST else -1
    requesters, missing = _fold(ledger.requester_counts, delta.requesters, sign)
    if missing is not None:
        return ledger, LedgerRejection("unknown-requester-release", missing)
    counted = [i for i in delta.config_items if i.kind in COUNTED_CONFIG_KINDS]
    config, missing = _fold(ledger.config_counts, counted, sign)
    if missing is not None:
        return ledger, LedgerRejection("unknown-config-release", missing.render())

    if sign > 0:
        base = base or tuple(
            i for i in delta.config_items if i.kind not in COUNTED_CONFIG_KINDS
        )
        version = delta.app_version or version
    return DemandLedger(requesters, config, base, version), None


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

    ledger: DemandLedger | None = None  # committed; None until a fold commits
    observed: int = 0
    units: tuple[str, ...] = ()
    retiring: tuple[tuple[str, ...], tuple[str, ...]] | None = None  # units, nodes
    # (target generation, failures at it); a failure at a later target
    # restarts the count, so the pair is never cleared
    attempts: tuple[int, int] | None = None


class Operator:
    """The reconcile loop, shared by both resource kinds.

    One watch event is processed at a time.  Reconciling is
    level-triggered: fold every spec generation up to the store's current
    one into the ledger, decide, execute against the cluster, then publish
    status and a ledger trace record; events at or below the folded
    generation are stale.  Cluster failures roll the attempt back and
    re-queue the event a bounded number of times before the folded deltas
    are dropped with an error record.

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
        self._resources: dict[str, _Resource] = {}

    # -- queue handling ----------------------------------------------------

    def pending(self) -> int:
        return len(self._events) + len(self._retry)

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
        record = self._resources.get(name)
        observed = record.observed if record else 0
        if event.generation <= observed:
            return  # stale or duplicate event
        try:
            target = self._store.generation(self.kind, name)
        except NotFoundError:
            return  # deleted meanwhile; the deletion event is behind us
        if record is None:
            record = self._resources[name] = _Resource()

        ledger = record.ledger or DemandLedger()
        rejections: list[tuple[int, LedgerRejection]] = []
        for generation in range(observed + 1, target + 1):
            delta = self._store.get_spec(self.kind, name, generation)
            ledger, rejection = apply_demand(ledger, delta)
            if rejection is not None:
                rejections.append((generation, rejection))

        action = decide(ledger, self._primary_instance(record))
        try:
            self._execute(name, record, action, ledger)
        except OrchestrationError as exc:
            self._handle_failure(record, event, target, exc)
            return

        record.observed = target
        record.ledger = ledger
        for generation, rejection in rejections:
            self._trace.error(
                self.source,
                rejection.kind,
                f"{name}@{generation}:{rejection.detail}",
            )
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
        last, attempts = record.attempts or (target, 0)
        attempts = attempts + 1 if last == target else 1
        if attempts < MAX_ATTEMPTS:
            record.attempts = (target, attempts)
            log.debug("reconcile of %s failed (%s), attempt %d, re-queueing",
                      event.name, exc, attempts)
            self._write_status(event.name, record, Phase.PENDING)
            self._retry.append(event)
            return
        # Give up: the folded deltas are dropped, the ledger keeps its last
        # good state, and the trace records what happened.
        record.observed = target
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
        return (
            self._sim.deploy_instance(
                InstanceSpec(
                    cr_name=name,
                    service_kind=ServiceKind(
                        config_value(config, CFG_SERVICE_KIND)
                    ),
                    node_id=config_value(config, CFG_NODE),
                    config=config,
                    version=ledger.version,
                )
            ),
        )


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
        receiver_id = self._sim.deploy_instance(
            InstanceSpec(
                cr_name=name,
                service_kind=ServiceKind.COMM_RECEIVER,
                node_id=dst,
                config=config,
                version=ledger.version,
            )
        )
        try:
            sender_id = self._sim.deploy_instance(
                InstanceSpec(
                    cr_name=name,
                    service_kind=ServiceKind.COMM_SENDER,
                    node_id=src,
                    config=config,
                    version=ledger.version,
                )
            )
        except OrchestrationError:
            self._sim.terminate_instance(receiver_id)
            raise
        return sender_id, receiver_id
