"""Custom-resource store holding each resource's desired demand, with watches.

The store is the only shared state between the request side (app manager)
and the reconcile side (operators).  The spec of a custom resource is its
desired state: the whole demand ledger, a counted multiset of requesters
and one of countable config items.  The manager folds each change into
the current ledger and writes the result; an operator reads the current
spec and reconciles the cluster towards it.  A change is counted once
(`multiplicities`, `split_config`) and folded into every ledger it
touches, and a fold costs the change: a ledger derives its support,
config and rendered `LEDGER` config text at the fold, keeps the last
ledger's config and text when no counted key comes or goes, and extends
them when keys only come.  Every write bumps the resource's generation,
so a status can say which spec it observed.
A life of a name runs from its creation to its delete: a delete drops
the status too, and a re-create starts at generation 1 with an empty
status, so a status counts generations of its own life only.  The
status is the operators' record of reconcile progress.  Operators read
through `find`, a plain (spec, generation, status) tuple; `get_cr`
builds a `CustomResource` snapshot for the CLI, the tests and the
benchmark.
Mutations are plain method calls on one object and execute serially,
which is what makes apply/get/delete trivially linearizable here.
Redelivered requests are answered by the app manager's request-id cache
and never reach the store.  A watch is a plain queue of the names of
changed resources that the subscriber pops from and reads back, as a
controller-runtime request carries only a name; a name waits in it once
until popped, as in a client-go workqueue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, TypeVar

from .model import (
    CFG_FORWARD_TOPIC,
    CFG_INPUT_TOPIC,
    ConfigItem,
    DeltaAction,
    NotFoundError,
    Phase,
    ReleaseUnderflowError,
    ResourceKind,
    StaleStatusError,
)

# A watch: the names of changed resources, each once, in the order first queued.
Watch = dict[str, None]

# Config item kinds subject to reference counting; everything else is
# adopted once from the first request and kept as base config.
COUNTED_CONFIG_KINDS = frozenset({CFG_INPUT_TOPIC, CFG_FORWARD_TOPIC})


class DemandLedger(NamedTuple):
    """Accumulated demand for one custom resource: its spec.

    Key order is first-demand order, which keeps rendered support lists
    stable.  The fold derives `support`, `effective_config` (base config,
    then counted items) and `rendered`, the `LEDGER` config text, once per
    ledger.  `DemandLedger()` is the empty ledger; every empty ledger
    shares its `{}` defaults, which is safe as no ledger's dicts are
    mutated: `_fold` copies before it counts.
    """

    requester_counts: dict[str, int] = {}
    config_counts: dict[ConfigItem, int] = {}
    base_config: tuple[ConfigItem, ...] = ()
    version: str = ""
    support: tuple[str, ...] = ()
    effective_config: tuple[ConfigItem, ...] = ()
    rendered: str = ""

    def is_empty(self) -> bool:
        return not self.requester_counts


K = TypeVar("K")


def multiplicities(keys: Iterable[K]) -> dict[K, int]:
    """How often each key occurs, in order of first appearance."""
    counts: dict[K, int] = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return counts


# A change's config as the fold takes it: the multiplicity of each counted
# item, and the base items.
SplitConfig = tuple[dict[ConfigItem, int], tuple[ConfigItem, ...]]
NO_CONFIG: SplitConfig = ({}, ())


def split_config(items: tuple[ConfigItem, ...]) -> SplitConfig:
    counted = multiplicities(i for i in items if i.kind in COUNTED_CONFIG_KINDS)
    return counted, tuple(i for i in items if i.kind not in COUNTED_CONFIG_KINDS)


def _fold(
    counts: dict[K, int], changes: dict[K, int], sign: int
) -> tuple[dict[K, int], list[K] | None]:
    """Add `sign` times each key's multiplicity in `changes` to `counts`.

    Returns the new counts (keys in first-demand order, zero counts
    dropped) and the keys it added, in order, or None if it dropped one.
    Raises ReleaseUnderflowError naming the first key of `changes` whose
    count would fall below zero.
    """
    if not changes:
        return counts, []
    folded = dict(counts)
    added: list[K] | None = []
    for key, change in changes.items():
        had = folded.get(key, 0)
        left = had + sign * change
        if left > 0:
            folded[key] = left
            if not had and added is not None:
                added.append(key)
        elif not left:
            del folded[key]
            added = None
        else:
            what = (
                f"config {key.render()}" if isinstance(key, ConfigItem)
                else f"requester {key}"
            )
            raise ReleaseUnderflowError(f"release of unknown {what}")
    return folded, added


def _render(items: Iterable[ConfigItem]) -> str:
    return ",".join([f"{kind}:{value}" for kind, value in items])


def fold_demand(
    ledger: DemandLedger,
    sign: int,
    requesters: dict[str, int],
    config: SplitConfig = NO_CONFIG,
    version: str = "",
) -> DemandLedger:
    """`apply_demand` for a change counted once: `sign` 1 requests, -1
    releases, and the requesters' `multiplicities`.  A fold that adds or
    drops no counted key keeps the ledger's `effective_config` and
    `rendered` objects, and one that only adds keys extends them.
    """
    counted, base = config
    counts, _ = _fold(ledger.requester_counts, requesters, sign)
    config_counts, added = _fold(ledger.config_counts, counted, sign)
    kept_base, kept_version = ledger.base_config, ledger.version
    effective, rendered = ledger.effective_config, ledger.rendered
    if sign > 0:
        kept_version = version or kept_version
        if base and not kept_base:
            kept_base, added = base, None
    if added is None:
        effective = kept_base + tuple(config_counts)
        rendered = _render(effective)
    elif added:
        effective += tuple(added)
        tail = _render(added)
        rendered = f"{rendered},{tail}" if rendered else tail
    return DemandLedger(
        counts, config_counts, kept_base, kept_version, tuple(counts),
        effective, rendered,
    )


def apply_demand(
    ledger: DemandLedger,
    action: DeltaAction,
    requesters: tuple[str, ...],
    config_items: tuple[ConfigItem, ...] = (),
    version: str = "",
) -> DemandLedger:
    """Fold one change in demand into a ledger, atomically.

    A release that would push any requester or config count below zero
    raises ReleaseUnderflowError and changes nothing.  Only a request
    adopts base config and version; a request with no requesters and no
    config items (a rolling upgrade) touches nothing but the version.
    """
    sign = 1 if action is DeltaAction.REQUEST else -1
    return fold_demand(
        ledger, sign, multiplicities(requesters), split_config(config_items), version
    )


class ResourceStatus(NamedTuple):
    phase: Phase = Phase.PENDING
    support: tuple[str, ...] = ()
    instance_ids: tuple[str, ...] = ()
    observed_generation: int = 0


class CustomResource(NamedTuple):
    """Read-only snapshot of one stored resource."""

    kind: ResourceKind
    name: str
    spec: DemandLedger
    status: ResourceStatus
    generation: int


@dataclass
class _Record:
    spec: DemandLedger
    generation: int = 1
    status: ResourceStatus = ResourceStatus()


class ResourceStore:
    def __init__(self) -> None:
        self._records: dict[ResourceKind, dict[str, _Record]] = {
            kind: {} for kind in ResourceKind
        }
        self._watchers: dict[ResourceKind, list[Watch]] = {
            kind: [] for kind in ResourceKind
        }
        # The name of every real mutation, in order; the names a late
        # watch is primed with are not part of it.
        self.event_log: list[str] = []

    # -- mutations ---------------------------------------------------------

    def apply_cr(self, kind: ResourceKind, name: str, spec: DemandLedger) -> int:
        """Create the resource or replace its spec; returns the new generation."""
        records = self._records[kind]
        record = records.get(name)
        if record is None:
            record = records[name] = _Record(spec)
        else:
            record.spec = spec
            record.generation += 1
        self._emit(kind, name)
        return record.generation

    def delete_cr(self, kind: ResourceKind, name: str) -> None:
        self._require(kind, name)
        del self._records[kind][name]
        self._emit(kind, name)

    def update_status(
        self, kind: ResourceKind, name: str, status: ResourceStatus
    ) -> None:
        """Replace the status subresource.  Queues no name on a watch."""
        record = self._require(kind, name)
        if status.observed_generation < record.status.observed_generation:
            raise StaleStatusError(
                f"observed generation may not move backwards on {kind.value}/{name}"
            )
        record.status = status

    # -- reads -------------------------------------------------------------

    def get_cr(self, kind: ResourceKind, name: str) -> CustomResource:
        record = self._require(kind, name)
        return CustomResource(kind, name, record.spec, record.status, record.generation)

    def find(
        self, kind: ResourceKind, name: str
    ) -> tuple[DemandLedger, int, ResourceStatus] | None:
        """The (spec, generation, status) of a resource; None if there is none."""
        record = self._records[kind].get(name)
        if record is None:
            return None
        return record.spec, record.generation, record.status

    def get_spec(self, kind: ResourceKind, name: str) -> DemandLedger:
        """The desired demand of a resource; an empty ledger if it has none."""
        record = self._records[kind].get(name)
        return record.spec if record is not None else DemandLedger()

    def list_crs(self, kind: ResourceKind) -> tuple[str, ...]:
        return tuple(self._records[kind])

    def exists(self, kind: ResourceKind, name: str) -> bool:
        return name in self._records[kind]

    def total_resources(self) -> int:
        return sum(len(records) for records in self._records.values())

    # -- watching ----------------------------------------------------------

    def watch(self, kind: ResourceKind) -> Watch:
        """Subscribe to changes of one kind; the store queues names, you pop.

        A name is queued once until it is popped, as a client-go
        workqueue keeps a key: a write to a queued name leaves it where
        it is.  The queue is primed with the name of every existing
        resource, in creation order, so a late subscriber catches up
        before live changes resume.
        """
        queue: Watch = dict.fromkeys(self._records[kind])
        self._watchers[kind].append(queue)
        return queue

    def unwatch(self, kind: ResourceKind, queue: Watch) -> None:
        """End the watch that returned `queue`, by identity: queues compare equal."""
        self._watchers[kind] = [q for q in self._watchers[kind] if q is not queue]

    # -- internals ---------------------------------------------------------

    def _require(self, kind: ResourceKind, name: str) -> _Record:
        try:
            return self._records[kind][name]
        except KeyError:
            raise NotFoundError(f"no such resource {kind.value}/{name}") from None

    def _emit(self, kind: ResourceKind, name: str) -> None:
        self.event_log.append(name)
        for queue in self._watchers[kind]:
            queue[name] = None
