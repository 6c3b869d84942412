"""Reconcile loops that drive the cluster towards each resource's ledger.

The spec of a custom resource is its desired state, the demand ledger the
app manager keeps: a counted multiset of requesters and one of countable
config items.  An operator reconciles a resource by name: it reads the
current spec, decides one action from it and the resource's live
instance, and executes it.  The support set being empty is the one and
only shutdown signal.  The stored status is the only record of progress,
a deleted resource's too, which the store keeps as a finalizer until its
units are gone, so a restarted operator reads what a live one reads.  A
failed attempt is retried at once; after MAX_ATTEMPTS failures the name
is parked until the next pass, so a failure delays convergence and never
drops demand.  Whatever runs under a name besides the units its status
lists ends as a stray.
"""

from __future__ import annotations

import logging
from enum import Enum
from typing import Iterable

from .cluster import ClusterSim, InstanceSpec, ServiceInstance
from .model import (
    CFG_NODE,
    CFG_SERVICE_KIND,
    CFG_SRC,
    CFG_DST,
    OrchestrationError,
    Phase,
    ResourceKind,
    ServiceKind,
    config_value,
)
from .store import DemandLedger, ResourceStatus, ResourceStore
from .tracing import Trace

log = logging.getLogger(__name__)

# Reconcile attempts at a name, back to back, before it is parked.
MAX_ATTEMPTS = 3

# The cluster units of each resource kind, in status order: service kind
# (None: the one the config names) and the config key of the unit's node.
# The first unit is compared against the ledger and reconfigured in place.
UNITS: dict[ResourceKind, tuple[tuple[ServiceKind | None, str], ...]] = {
    ResourceKind.MANAGED_SERVICE: ((None, CFG_NODE),),
    ResourceKind.MANAGED_CONNECTION: (
        (ServiceKind.COMM_SENDER, CFG_SRC),
        (ServiceKind.COMM_RECEIVER, CFG_DST),
    ),
}


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
    config, running = ledger.effective_config, instance.config
    if config is running:
        return DecisionAction.NOOP
    # Items are unique, so configs of different lengths differ as sets.
    if len(config) != len(running) or (
        config != running and set(config) != set(running)
    ):
        return DecisionAction.RECONFIGURE
    return DecisionAction.NOOP


class Operator:
    """The reconcile loop of one resource kind.

    A watch of the store queues the name of every written or deleted
    resource, once until it is popped, and one name is processed at a
    time.  Reconciling is level-triggered: read the stored spec and
    status, decide, execute against the cluster, then publish status and
    a ledger trace record.  A name whose status observed its generation
    and lists units is reconciled already, so a duplicate costs one read
    and a restarted operator skips what the last one finished.  A live
    resource's empty spec is never observed, as its shutdown deletes it,
    so an observed empty spec is a finalizer's: its units go as on a
    shutdown, and once nothing runs under its name it is dropped,
    untraced.  A name gets MAX_ATTEMPTS attempts back to back, and a
    failed one writes the stored status back as pending; if all fail,
    the name traces one error and is parked, and the next pass runs it
    first.

    A resource's units are the `UNITS` row of its kind, started together
    by `_deploy_units`.  Each attempt first ends the strays, what else
    runs under the name, untraced.  A replace or teardown traces its
    `ACTION` before it terminates, and its pending status lists the new
    units, or none, so a retry ends the old ones as strays.  The cluster's
    exit watch queues the owner of a unit that exited on its own: if its
    status lists a unit that no longer runs, the set is gone, the rest
    stray, and a live spec deploys again.
    """

    def __init__(
        self, kind: ResourceKind, store: ResourceStore, sim: ClusterSim, trace: Trace
    ):
        self.kind = kind
        self._store = store
        self._sim = sim
        self._trace = trace
        self._names = store.watch(kind)
        self._exited = sim.watch_exits()  # checked by their next pass
        # A dict, not a set: the next pass runs them in parking order.
        self._parked: dict[str, None] = {}

    # -- queue handling ----------------------------------------------------

    def stop(self) -> None:
        """End the watches, as a replaced operator does."""
        self._store.unwatch(self.kind, self._names)
        self._sim.unwatch_exits(self._exited)

    def pending(self) -> int:
        """Queued names; parked names and exit notices do not count."""
        return len(self._names)

    def run_pending(self) -> int:
        """One pass: the names the last pass parked, then the owners of
        exited units, then every queued name.

        A name leaves the queue before its reconcile, so a write during it,
        such as its own delete, queues it again.
        """
        names, parked, self._parked = self._names, self._parked, {}
        if parked or self._exited:  # first, and once each
            queued = {**parked, **self._exited, **names}
            names.clear()
            names.update(queued)
        processed = 0
        while names:
            name = next(iter(names))
            del names[name]
            self.reconcile(name)
            processed += 1
        self._exited.clear()
        return processed

    def records(self) -> tuple[str, ...]:
        """The names of this kind whose status, or finalizer, lists units."""
        names = self._store.watch(self.kind)  # every name, finalizers too
        self._store.unwatch(self.kind, names)
        return tuple(n for n in names if self._store.find(self.kind, n)[2].instance_ids)

    # -- the reconcile step ------------------------------------------------

    def reconcile(self, name: str) -> None:
        """Attempt `name` up to MAX_ATTEMPTS times; park it if all fail."""
        if name in self._parked:
            return  # the next pass retries it
        for attempt in range(1, MAX_ATTEMPTS + 1):
            failure = self._attempt(name)
            if failure is None:
                return
            log.debug("reconcile of %s failed (%s), attempt %d", name, failure, attempt)
        # Give up for this pass: the spec still holds the demand, so the
        # parked name retries it in the next one.
        self._parked[name] = None
        _, generation, _ = self._store.find(self.kind, name)
        self._trace.error(
            f"{self.kind.value}-operator",
            "reconcile-failed",
            f"{name}@{generation}:{type(failure).__name__}",
        )

    def _attempt(self, name: str) -> OrchestrationError | None:
        """One reconcile of `name`; the cluster failure that ended it, or None."""
        stored = self._store.find(self.kind, name)
        if stored is None:
            return  # neither a resource nor a finalizer: nothing to end
        ledger, generation, status = stored
        units, owned = status.instance_ids, self._sim.owned(name)
        if name in self._exited and not set(units).issubset(owned):
            units = ()  # the set lost a unit: it is gone, and the rest stray
        observed = generation == status.observed_generation
        if observed and ledger.support and units:
            return  # reconciled at this generation already
        if observed and not (ledger.support or owned):
            self._store.delete_cr(self.kind, name)  # a finalizer with nothing left
            return

        primary = units[0] if units and units[0] in owned else None
        action = decide(ledger, primary and self._sim.get_instance(primary))
        try:
            if len(owned) > len(units):  # strays: not the listed units
                self._end(unit for unit in owned if unit not in units)
            if action is DecisionAction.DEPLOY:
                units = self._deploy_units(name, ledger)
                self._trace.instance_action(name, "deploy", units, self._nodes(units))
            elif action is DecisionAction.RECONFIGURE:
                primary = units[:1]
                self._sim.reconfigure_instance(units[0], ledger.effective_config)
                self._trace.instance_action(
                    name, "reconfigure", primary, self._nodes(primary)
                )
            elif action is DecisionAction.REPLACE:
                old, units = units, self._deploy_units(name, ledger)
                self._trace.instance_action(
                    name, "replace", units, self._nodes(units), replaced=old
                )
                self._end(old)
            elif action is DecisionAction.SHUTDOWN and units:
                self._trace.instance_action(
                    name, "terminate", units, self._nodes(units)
                )
                old, units = units, ()
                self._end(old)
        except OrchestrationError as exc:
            self._store.update_status(
                self.kind,
                name,
                status._replace(phase=Phase.PENDING, instance_ids=units),
            )
            return exc

        if action is DecisionAction.SHUTDOWN:
            self._store.delete_cr(self.kind, name)
            self._trace.ledger_state(name, (), ())
            return
        self._store.update_status(
            self.kind,
            name,
            ResourceStatus(Phase.RUNNING, ledger.support, units, generation),
        )
        self._trace.ledger_state(name, ledger.support, (ledger.rendered,))

    # -- cluster side ------------------------------------------------------

    def _deploy_units(self, name: str, ledger: DemandLedger) -> tuple[str, ...]:
        """Start every unit of `name`, last first; all of them or none.

        Returns them in status order; a connection's receiver starts before
        its sender.  A started unit whose rollback fails runs on under
        `name`, a stray the next attempt ends.
        """
        config = ledger.effective_config
        specs = [
            InstanceSpec(
                cr_name=name,
                service_kind=kind
                or ServiceKind(config_value(config, CFG_SERVICE_KIND)),
                node_id=config_value(config, node_key),
                config=config,
                version=ledger.version,
            )
            for kind, node_key in UNITS[self.kind]
        ]
        started: list[str] = []
        try:
            for spec in reversed(specs):
                started.append(self._sim.deploy_instance(spec))
        except OrchestrationError:
            self._end(started)
            raise
        return tuple(reversed(started))

    def _end(self, units: Iterable[str]) -> None:
        for unit in units:
            self._sim.terminate_instance(unit)

    def _nodes(self, units: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(self._sim.get_instance(u).node_id for u in units)
