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
from collections import Counter, deque
from contextlib import suppress
from dataclasses import dataclass, field, replace
from enum import Enum

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
from .store import DemandDelta, ResourceStatus, ResourceStore, WatchEvent, Watcher
from .tracing import Trace

log = logging.getLogger(__name__)

# Config item kinds subject to reference counting; everything else is
# adopted once from the first delta and kept as base config.
COUNTED_CONFIG_KINDS = frozenset({CFG_INPUT_TOPIC, CFG_FORWARD_TOPIC})


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


def apply_demand(
    ledger: DemandLedger, delta: DemandDelta
) -> tuple[DemandLedger, LedgerRejection | None]:
    """Fold one demand delta into a ledger, atomically.

    A release that would push any requester or config count below zero is
    rejected as a whole; partial application never happens.  Version-only
    deltas touch nothing but the version field.
    """
    if delta.is_version_only():
        return replace(ledger, version=delta.app_version), None

    counted = [i for i in delta.config_items if i.kind in COUNTED_CONFIG_KINDS]
    base = tuple(
        i for i in delta.config_items if i.kind not in COUNTED_CONFIG_KINDS
    )

    if delta.action is DeltaAction.REQUEST:
        requesters = dict(ledger.requester_counts)
        for requester in delta.requesters:
            requesters[requester] = requesters.get(requester, 0) + 1
        config = dict(ledger.config_counts)
        for item in counted:
            config[item] = config.get(item, 0) + 1
        return DemandLedger(
            requester_counts=requesters,
            config_counts=config,
            base_config=ledger.base_config or base,
            version=delta.app_version or ledger.version,
        ), None

    needed_requesters = Counter(delta.requesters)
    for requester, n in needed_requesters.items():
        if ledger.requester_counts.get(requester, 0) < n:
            return ledger, LedgerRejection(
                "unknown-requester-release", requester
            )
    needed_config = Counter(counted)
    for item, n in needed_config.items():
        if ledger.config_counts.get(item, 0) < n:
            return ledger, LedgerRejection(
                "unknown-config-release", item.render()
            )

    requesters = dict(ledger.requester_counts)
    for requester, n in needed_requesters.items():
        remaining = requesters[requester] - n
        if remaining:
            requesters[requester] = remaining
        else:
            del requesters[requester]
    config = dict(ledger.config_counts)
    for item, n in needed_config.items():
        remaining = config[item] - n
        if remaining:
            config[item] = remaining
        else:
            del config[item]
    return replace(
        ledger, requester_counts=requesters, config_counts=config
    ), None


class DecisionAction(str, Enum):
    DEPLOY = "deploy"
    RECONFIGURE = "reconfigure"
    REPLACE = "replace"
    SHUTDOWN = "shutdown"
    NOOP = "noop"


@dataclass(frozen=True)
class ReconcileDecision:
    action: DecisionAction
    effective_config: tuple[ConfigItem, ...]
    target_version: str


def decide(
    ledger: DemandLedger, instance: ServiceInstance | None
) -> ReconcileDecision:
    """Map a ledger plus the current instance onto one action.

    Shutdown exactly when support is empty; the decision depends only on
    the resulting state, never on how the ledger got there.
    """
    config = ledger.effective_config
    if ledger.is_empty():
        return ReconcileDecision(DecisionAction.SHUTDOWN, config, ledger.version)
    if instance is None:
        return ReconcileDecision(DecisionAction.DEPLOY, config, ledger.version)
    if ledger.version and instance.version != ledger.version:
        return ReconcileDecision(DecisionAction.REPLACE, config, ledger.version)
    if set(config) != set(instance.config):
        return ReconcileDecision(
            DecisionAction.RECONFIGURE, config, ledger.version
        )
    return ReconcileDecision(DecisionAction.NOOP, config, ledger.version)


class Operator:
    """The reconcile loop, shared by both resource kinds.

    One watch event is processed at a time.  Reconciling is
    level-triggered: fold every spec generation up to the store's current
    one into the ledger, decide, execute against the cluster, then publish
    status and a ledger trace record; events at or below the folded
    generation are stale.  Cluster failures roll the attempt back and
    re-queue the event a bounded number of times before the folded deltas
    are dropped with an error record.

    Each resource is backed by a tuple of cluster units, created together
    by `_deploy_units`, the one hook per kind.  The first unit is the one
    compared against the ledger and reconfigured in place.  Units that a
    replace or teardown must terminate wait in `_retiring` until all are
    gone, so a step that failed halfway is finished, not repeated.
    """

    kind: ResourceKind
    source: str

    def __init__(
        self,
        store: ResourceStore,
        sim: ClusterSim,
        trace: Trace,
        max_attempts: int = 3,
    ):
        self._store = store
        self._sim = sim
        self._trace = trace
        self._max_attempts = max_attempts
        self._watcher: Watcher = store.watch(self.kind)
        self._ledgers: dict[str, DemandLedger] = {}
        self._observed: dict[str, int] = {}
        self._units: dict[str, tuple[str, ...]] = {}
        # Units still to terminate, with their nodes, per resource.
        self._retiring: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
        self._retry: deque[WatchEvent] = deque()
        self._attempts: dict[tuple[str, int], int] = {}

    # -- queue handling ----------------------------------------------------

    def pending(self) -> int:
        return self._watcher.pending() + len(self._retry)

    def run_pending(self) -> int:
        """Process queued retries, then all queued watch events."""
        processed = 0
        retries = list(self._retry)
        self._retry.clear()
        for event in retries:
            self.reconcile(event)
            processed += 1
        while (event := self._watcher.pop()) is not None:
            self.reconcile(event)
            processed += 1
        return processed

    def ledger(self, name: str) -> DemandLedger | None:
        return self._ledgers.get(name)

    def ledgers(self) -> dict[str, DemandLedger]:
        return dict(self._ledgers)

    # -- the reconcile step ------------------------------------------------

    def reconcile(self, event: WatchEvent) -> None:
        name = event.name
        if event.change is ChangeType.DELETED:
            with suppress(OrchestrationError):
                self._teardown(name)
            self._forget(name)
            return
        observed = self._observed.get(name, 0)
        if event.generation <= observed:
            return  # stale or duplicate event
        try:
            target = self._store.get_cr(self.kind, name).generation
        except NotFoundError:
            return  # deleted meanwhile; the deletion event is behind us

        ledger = self._ledgers.get(name, DemandLedger())
        rejections: list[tuple[int, LedgerRejection]] = []
        for generation in range(observed + 1, target + 1):
            delta = self._store.get_spec(self.kind, name, generation)
            ledger, rejection = apply_demand(ledger, delta)
            if rejection is not None:
                rejections.append((generation, rejection))

        decision = decide(ledger, self._primary_instance(name))
        try:
            self._execute(name, decision)
        except OrchestrationError as exc:
            self._handle_failure(name, event, target, exc)
            return

        self._attempts.pop((name, target), None)
        self._observed[name] = target
        self._ledgers[name] = ledger
        for generation, rejection in rejections:
            self._trace.error(
                self.source,
                rejection.kind,
                f"{name}@{generation}:{rejection.detail}",
            )
        if decision.action is DecisionAction.SHUTDOWN:
            self._forget(name)
            self._store.delete_cr(self.kind, name)
            self._trace.ledger_state(name, (), ())
        else:
            self._store.update_status(
                self.kind,
                name,
                ResourceStatus(
                    phase=Phase.RUNNING,
                    support=ledger.support,
                    instance_ids=self._units[name],
                    observed_generation=target,
                ),
            )
            self._trace.ledger_state(
                name,
                ledger.support,
                (i.render() for i in ledger.effective_config),
            )

    def _handle_failure(
        self, name: str, event: WatchEvent, target: int, exc: OrchestrationError
    ) -> None:
        key = (name, target)
        attempts = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempts
        if attempts < self._max_attempts:
            log.debug("reconcile of %s failed (%s), attempt %d, re-queueing",
                      name, exc, attempts)
            self._store.update_status(
                self.kind,
                name,
                ResourceStatus(
                    phase=Phase.PENDING,
                    support=self._ledgers.get(name, DemandLedger()).support,
                    instance_ids=self._units.get(name, ()),
                    observed_generation=self._observed.get(name, 0),
                ),
            )
            self._retry.append(event)
            return
        # Give up: the folded deltas are dropped, the ledger keeps its last
        # good state, and the trace records what happened.
        del self._attempts[key]
        self._observed[name] = target
        self._trace.error(
            self.source,
            "reconcile-failed",
            f"{name}@{target}:{type(exc).__name__}",
        )

    # -- cluster side ------------------------------------------------------

    def _execute(self, name: str, decision: ReconcileDecision) -> None:
        self._retire(name)
        action = decision.action
        units = self._units.get(name, ())
        if action is DecisionAction.DEPLOY:
            new = self._deploy_units(name, decision)
            self._units[name] = new
            self._trace.instance_action(name, "deploy", new, self._nodes(new))
        elif action is DecisionAction.RECONFIGURE:
            primary = units[:1]
            self._sim.reconfigure_instance(units[0], decision.effective_config)
            self._trace.instance_action(
                name, "reconfigure", primary, self._nodes(primary)
            )
        elif action is DecisionAction.REPLACE:
            # Record the new units before the old ones go, so a retry after
            # a failed terminate reuses them instead of deploying again.
            retiring = (units, self._nodes(units))
            self._units[name] = self._deploy_units(name, decision)
            self._retiring[name] = retiring
            self._retire(name)
        elif action is DecisionAction.SHUTDOWN:
            self._teardown(name)

    def _deploy_units(
        self, name: str, decision: ReconcileDecision
    ) -> tuple[str, ...]:
        raise NotImplementedError

    def _teardown(self, name: str) -> None:
        units = self._units.pop(name, ())
        if units:
            self._retiring[name] = (units, self._nodes(units))
        self._retire(name)

    def _retire(self, name: str) -> None:
        """Terminate the units a replace or teardown still owes, then trace it.

        A unit that is already gone counts as terminated, so a retry after
        a partly failed attempt finishes the job.
        """
        if name not in self._retiring:
            return
        units, nodes = self._retiring[name]
        for unit in units:
            with suppress(NotRunningError):
                self._sim.terminate_instance(unit)
        del self._retiring[name]
        new = self._units.get(name)
        if new:
            self._trace.instance_action(
                name, "replace", new, self._nodes(new), replaced=units
            )
        else:
            self._trace.instance_action(name, "terminate", units, nodes)

    def _primary_instance(self, name: str) -> ServiceInstance | None:
        units = self._units.get(name)
        if not units:
            return None
        try:
            return self._sim.get_instance(units[0])
        except NotFoundError:
            return None

    def _nodes(self, units: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(self._sim.get_instance(u).node_id for u in units)

    def _forget(self, name: str) -> None:
        self._ledgers.pop(name, None)
        self._observed.pop(name, None)
        self._units.pop(name, None)
        self._retiring.pop(name, None)


class ServiceOperator(Operator):
    """Reconciles managed services onto single cluster instances."""

    kind = ResourceKind.MANAGED_SERVICE
    source = "service-operator"

    def _deploy_units(
        self, name: str, decision: ReconcileDecision
    ) -> tuple[str, ...]:
        config = decision.effective_config
        return (
            self._sim.deploy_instance(
                InstanceSpec(
                    cr_name=name,
                    service_kind=ServiceKind(
                        config_value(config, CFG_SERVICE_KIND)
                    ),
                    node_id=config_value(config, CFG_NODE),
                    config=config,
                    version=decision.target_version,
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

    def _deploy_units(
        self, name: str, decision: ReconcileDecision
    ) -> tuple[str, ...]:
        config = decision.effective_config
        src = config_value(config, CFG_SRC)
        dst = config_value(config, CFG_DST)
        receiver_id = self._sim.deploy_instance(
            InstanceSpec(
                cr_name=name,
                service_kind=ServiceKind.COMM_RECEIVER,
                node_id=dst,
                config=tuple(
                    i for i in config if i.kind != CFG_FORWARD_TOPIC
                ),
                version=decision.target_version,
            )
        )
        try:
            sender_id = self._sim.deploy_instance(
                InstanceSpec(
                    cr_name=name,
                    service_kind=ServiceKind.COMM_SENDER,
                    node_id=src,
                    config=config,
                    version=decision.target_version,
                )
            )
        except OrchestrationError:
            self._sim.terminate_instance(receiver_id)
            raise
        return sender_id, receiver_id
