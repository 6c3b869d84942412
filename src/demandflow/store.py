"""Versioned custom-resource store with per-kind watch streams.

The store is the only shared state between the request side (app manager)
and the reconcile side (operators).  Each custom resource keeps its full
spec history, one demand delta per generation, so an operator that wakes
up late can replay every delta it has not applied yet.  Mutations are
plain method calls on one object and execute serially, which is what
makes apply/get/delete trivially linearizable here.  Every apply adds a
generation: redelivered requests are answered by the app manager's
request-id cache and never reach the store.  A watch is a plain deque of
events that the subscriber pops from.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .model import (
    ChangeType,
    ConfigItem,
    DeltaAction,
    NotFoundError,
    Phase,
    ResourceKind,
    StaleStatusError,
)


@dataclass(frozen=True)
class DemandDelta:
    """Spec payload of a custom resource: the latest change in demand.

    A delta carries the requesters and config items being added or
    removed, never accumulated totals.  A delta with no requesters and no
    config items is a version-only update (used for rolling upgrades) and
    is the single exception to the non-empty requesters rule.
    """

    demand_id: str
    action: DeltaAction
    requesters: tuple[str, ...] = ()
    config_items: tuple[ConfigItem, ...] = ()
    app_version: str = ""

    def is_version_only(self) -> bool:
        return not self.requesters and not self.config_items

    def validate(self) -> None:
        if not self.demand_id:
            raise ValueError("demand_id must be non-empty")
        if self.is_version_only():
            if self.action is not DeltaAction.REQUEST:
                raise ValueError("version-only delta must use the request action")
            if not self.app_version:
                raise ValueError("version-only delta must name a version")
        elif not self.requesters:
            raise ValueError("delta requesters must be non-empty")


@dataclass(frozen=True)
class ResourceStatus:
    phase: Phase = Phase.PENDING
    support: tuple[str, ...] = ()
    instance_ids: tuple[str, ...] = ()
    observed_generation: int = 0


@dataclass(frozen=True)
class WatchEvent:
    kind: ResourceKind
    name: str
    generation: int
    change: ChangeType


@dataclass(frozen=True)
class CustomResource:
    """Read-only snapshot of one stored resource."""

    kind: ResourceKind
    name: str
    spec: DemandDelta
    status: ResourceStatus
    generation: int


@dataclass
class _Record:
    spec_history: list[DemandDelta] = field(default_factory=list)
    status: ResourceStatus = ResourceStatus()

    @property
    def generation(self) -> int:
        return len(self.spec_history)


class ResourceStore:
    def __init__(self) -> None:
        self._records: dict[ResourceKind, dict[str, _Record]] = {
            kind: {} for kind in ResourceKind
        }
        self._watchers: dict[ResourceKind, list[deque[WatchEvent]]] = {
            kind: [] for kind in ResourceKind
        }
        # History of every real mutation, in order.  Synthetic snapshot
        # events handed to late subscribers are not part of it.
        self.event_log: list[WatchEvent] = []

    # -- mutations ---------------------------------------------------------

    def apply_cr(self, kind: ResourceKind, name: str, spec: DemandDelta) -> int:
        """Create the resource or append a new spec generation.

        Returns the resulting generation.
        """
        spec.validate()
        records = self._records[kind]
        record = records.get(name)
        created = record is None
        if record is None:
            record = _Record()
            records[name] = record
        record.spec_history.append(spec)
        change = ChangeType.CREATED if created else ChangeType.SPEC_UPDATED
        self._emit(WatchEvent(kind, name, record.generation, change))
        return record.generation

    def delete_cr(self, kind: ResourceKind, name: str) -> None:
        record = self._require(kind, name)
        generation = record.generation
        del self._records[kind][name]
        self._emit(WatchEvent(kind, name, generation, ChangeType.DELETED))

    def update_status(
        self, kind: ResourceKind, name: str, status: ResourceStatus
    ) -> None:
        """Replace the status subresource.  Emits no watch event."""
        record = self._require(kind, name)
        if status.observed_generation < record.status.observed_generation:
            raise StaleStatusError(
                f"observed generation may not move backwards on {kind.value}/{name}"
            )
        record.status = status

    # -- reads -------------------------------------------------------------

    def get_cr(self, kind: ResourceKind, name: str) -> CustomResource:
        record = self._require(kind, name)
        return CustomResource(
            kind=kind,
            name=name,
            spec=record.spec_history[-1],
            status=record.status,
            generation=record.generation,
        )

    def generation(self, kind: ResourceKind, name: str) -> int:
        """The current generation, without building a snapshot."""
        return self._require(kind, name).generation

    def get_spec(self, kind: ResourceKind, name: str, generation: int) -> DemandDelta:
        """The demand delta that produced `generation` of this resource."""
        record = self._require(kind, name)
        if not 1 <= generation <= record.generation:
            raise NotFoundError(
                f"{kind.value}/{name} has no generation {generation}"
            )
        return record.spec_history[generation - 1]

    def list_crs(self, kind: ResourceKind) -> tuple[str, ...]:
        return tuple(self._records[kind])

    def exists(self, kind: ResourceKind, name: str) -> bool:
        return name in self._records[kind]

    def total_resources(self) -> int:
        return sum(len(records) for records in self._records.values())

    # -- watching ----------------------------------------------------------

    def watch(self, kind: ResourceKind) -> deque[WatchEvent]:
        """Subscribe to changes of one kind; the store appends, you pop.

        The queue is primed with one synthetic Created event per existing
        resource (carrying its current generation) so a late subscriber
        can catch up before live events resume.
        """
        queue = deque(
            WatchEvent(kind, name, record.generation, ChangeType.CREATED)
            for name, record in self._records[kind].items()
        )
        self._watchers[kind].append(queue)
        return queue

    # -- internals ---------------------------------------------------------

    def _require(self, kind: ResourceKind, name: str) -> _Record:
        try:
            return self._records[kind][name]
        except KeyError:
            raise NotFoundError(f"no such resource {kind.value}/{name}") from None

    def _emit(self, event: WatchEvent) -> None:
        self.event_log.append(event)
        for queue in self._watchers[event.kind]:
            queue.append(event)


def replay_event_log(events: list[WatchEvent]) -> dict[tuple[ResourceKind, str], int]:
    """Fold a watch-event log into the surviving (kind, name) -> generation map.

    Used by tests to check that the event log alone reconstructs the
    final resource set.
    """
    state: dict[tuple[ResourceKind, str], int] = {}
    for event in events:
        key = (event.kind, event.name)
        if event.change is ChangeType.DELETED:
            state.pop(key, None)
        else:
            state[key] = event.generation
    return state
