"""Reconcile loops that drive the cluster towards each resource's ledger.

The spec of a custom resource is its desired state, the demand ledger the
app manager keeps: a counted multiset of requesters and one of countable
config items.  An operator reconciles a resource by name: it reads the
current spec, decides one action from it and the resource's live
instance, and executes it.  The support set being empty is the one and
only shutdown signal.  The resource's stored status records how far it
got, so a restarted operator carries on where the last one stopped.  A
failed attempt is retried at once; after MAX_ATTEMPTS failures the name
is parked until the next pass, so a failure delays convergence and never
drops demand.  A new record adopts the units its stored status lists;
whatever else runs under a name, read from the cluster, ends as a stray
or, with no resource left, as an orphan's.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .cluster import ClusterSim, InstanceSpec, ServiceInstance
from .model import (
    CFG_NODE,
    CFG_SERVICE_KIND,
    CFG_SRC,
    CFG_DST,
    NotFoundError,
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

# The cluster units of each resource kind, in record order: service kind
# (None: the one the config names) and the config key of the unit's node.
# The first unit is compared against the ledger and reconfigured in place.
UNITS: dict[ResourceKind, tuple[tuple[ServiceKind | None, str], ...]] = {
    ResourceKind.MANAGED_SERVICE: ((None, CFG_NODE),),
    ResourceKind.MANAGED_CONNECTION: (
        (ServiceKind.COMM_SENDER, CFG_SRC),
        (ServiceKind.COMM_RECEIVER, CFG_DST),
    ),
}
# The resource kind of each unit kind a row above fixes; any other is a service's.
UNIT_OWNERS = {unit: kind for kind, row in UNITS.items() for unit, _ in row if unit}


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


@dataclass
class _Resource:
    """The units an operator runs for one custom resource."""

    units: tuple[str, ...] = ()
    generation: int = 0  # last read from the store, for the give-up ERROR


class Operator:
    """The reconcile loop of one resource kind.

    A watch of the store queues the name of every written or deleted
    resource, once until it is popped, and one name is processed at a
    time.  Reconciling is
    level-triggered: read the store's current spec, decide, execute
    against the cluster, then publish status and a ledger trace record.
    The stored status is the only record of progress: a name whose
    generation equals its status's observed generation is reconciled
    already, so a duplicate costs one read, and a restarted operator
    skips what the last one finished.  A deleted resource's spec is
    empty, so its units go as on a shutdown; a re-created one starts at
    generation 1 with an empty status and the units left.  A name gets
    MAX_ATTEMPTS attempts back to back, and a failed one writes the
    stored status back as pending; if all fail, the name traces one
    error and is parked, and the next pass runs it first.

    Each resource has one `_Resource` record of its units, dropped on
    shutdown or delete.  They are the `UNITS` row of its kind, started
    together by `_deploy_units`; a new record, as after a restart,
    adopts the units its stored status lists.  A new operator also
    queues each name of its kind that runs units but has no resource,
    deleted while no operator ran; only such an orphan adopts the newest
    set running under its name, and shuts it down.
    Each attempt first ends the strays, what else runs there, untraced.
    A replace or teardown traces its `ACTION` before it terminates, even
    if that fails, and a retry then ends only the old units still running.
    """

    def __init__(
        self, kind: ResourceKind, store: ResourceStore, sim: ClusterSim, trace: Trace
    ):
        self.kind = kind
        self._store = store
        self._sim = sim
        self._trace = trace
        self._names = store.watch(kind)
        # A resource deleted while no operator ran left its units running
        # under a name no watch lists: queue such names of this kind too.
        self._names.update(
            (name, None) for name in sim.owners() if store.find(kind, name) is None
            and kind is UNIT_OWNERS.get(
                sim.get_instance(sim.owned(name)[0]).service_kind,
                ResourceKind.MANAGED_SERVICE,
            )
        )
        # A dict, not a set: the next pass runs them in parking order.
        self._parked: dict[str, None] = {}
        self._resources: dict[str, _Resource] = {}

    # -- queue handling ----------------------------------------------------

    def stop(self) -> None:
        """End the watch, as a replaced operator does."""
        self._store.unwatch(self.kind, self._names)

    def pending(self) -> int:
        """Queued names; parked names do not count."""
        return len(self._names)

    def run_pending(self) -> int:
        """One pass: the names the last pass parked, then every queued name.

        A name leaves the queue before its reconcile, so a write during it,
        such as its own delete, queues it again.
        """
        names, parked, self._parked = self._names, self._parked, {}
        if parked:  # first, and once each
            queued = {**parked, **names}
            names.clear()
            names.update(queued)
        processed = 0
        while names:
            name = next(iter(names))
            del names[name]
            self.reconcile(name)
            processed += 1
        return processed

    def records(self) -> tuple[str, ...]:
        """The names this operator keeps a record of units for."""
        return tuple(self._resources)

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
        self._trace.error(
            f"{self.kind.value}-operator",
            "reconcile-failed",
            f"{name}@{self._resources[name].generation}:{type(failure).__name__}",
        )

    def _attempt(self, name: str) -> OrchestrationError | None:
        """One reconcile of `name`; the cluster failure that ended it, or None."""
        record = self._resources.get(name)
        stored = self._store.find(self.kind, name)
        if record is None:
            if stored is not None:  # the units its last status listed
                units = stored[2].instance_ids
            elif self._sim.owned(name):  # an orphan: what runs under it
                units = self._adopt(name)
            else:
                return  # deleted, and nothing of it is left to end
            record = self._resources[name] = _Resource(units=units)
        if stored is None:
            ledger = DemandLedger()  # deleted: the empty spec shuts it down
        else:
            ledger, generation, status = stored
            if generation == status.observed_generation:
                return  # reconciled at this generation already
            record.generation = generation

        action = decide(ledger, self._primary_instance(record))
        try:
            self._execute(name, record, action, ledger)
        except OrchestrationError as exc:
            if stored is not None:
                self._store.update_status(
                    self.kind,
                    name,
                    status._replace(phase=Phase.PENDING, instance_ids=record.units),
                )
            return exc

        if action is DecisionAction.SHUTDOWN:
            del self._resources[name]
            if stored is not None:
                self._store.delete_cr(self.kind, name)
            self._trace.ledger_state(name, (), ())
            return
        self._store.update_status(
            self.kind,
            name,
            ResourceStatus(Phase.RUNNING, ledger.support, record.units, generation),
        )
        self._trace.ledger_state(name, ledger.support, (ledger.rendered,))

    # -- cluster side ------------------------------------------------------

    def _execute(
        self, name: str, record: _Resource, action: DecisionAction, ledger: DemandLedger
    ) -> None:
        units, owned = record.units, self._sim.owned(name)
        if len(owned) > len(units):  # strays: not this record's units
            self._end(unit for unit in owned if unit not in units)
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
            new = record.units = self._deploy_units(name, ledger)
            self._trace.instance_action(
                name, "replace", new, self._nodes(new), replaced=units
            )
            self._end(units)
        elif action is DecisionAction.SHUTDOWN and units:
            self._trace.instance_action(name, "terminate", units, self._nodes(units))
            record.units = ()
            self._end(units)

    def _deploy_units(self, name: str, ledger: DemandLedger) -> tuple[str, ...]:
        """Start every unit of `name`, last first; all of them or none.

        Returns them in record order; a connection's receiver starts before
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

    def _adopt(self, name: str) -> tuple[str, ...]:
        """The newest whole set of units under `name`, in record order, or ()."""
        owned, count = self._sim.owned(name), len(UNITS[self.kind])
        return owned[-count:][::-1] if len(owned) >= count else ()

    def _primary_instance(self, record: _Resource) -> ServiceInstance | None:
        if not record.units:
            return None
        try:
            return self._sim.get_instance(record.units[0])
        except NotFoundError:
            return None

    def _nodes(self, units: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(self._sim.get_instance(u).node_id for u in units)
