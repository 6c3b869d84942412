"""Store behavior: desired-state specs, generations, watches, event log."""

import random

import pytest

from demandflow.model import (
    ChangeType,
    DeltaAction,
    NotFoundError,
    Phase,
    ResourceKind,
    StaleStatusError,
)
from demandflow.store import (
    DemandLedger,
    ResourceStatus,
    ResourceStore,
    apply_demand,
)

SVC = ResourceKind.MANAGED_SERVICE
CONN = ResourceKind.MANAGED_CONNECTION


def spec(requesters=("A",), version=""):
    return apply_demand(
        DemandLedger(), DeltaAction.REQUEST, tuple(requesters), (), version
    )


@pytest.fixture
def store():
    return ResourceStore()


def test_generations_start_at_one_and_increment(store):
    first, second = spec(), spec(requesters=("B",))
    assert store.apply_cr(SVC, "x", first) == 1
    assert store.apply_cr(SVC, "x", second) == 2
    resource = store.get_cr(SVC, "x")
    assert resource.generation == 2
    # a write replaces the desired state; no earlier spec is kept
    assert resource.spec == second
    assert store.get_spec(SVC, "x") == second
    # a resource that does not exist wants nothing
    assert store.get_spec(SVC, "ghost") == DemandLedger()
    assert store.get_spec(CONN, "x").is_empty()


def test_names_are_scoped_per_kind(store):
    store.apply_cr(SVC, "x", spec())
    store.apply_cr(CONN, "x", spec())
    assert store.get_cr(SVC, "x").generation == 1
    assert store.get_cr(CONN, "x").generation == 1


def test_demand_ids_reset_with_a_new_lifecycle(store):
    store.apply_cr(SVC, "x", spec())
    store.delete_cr(SVC, "x")
    # the name is free again, with a fresh generation count
    assert store.apply_cr(SVC, "x", spec()) == 1


def test_generation_reads_the_current_generation(store):
    for n in range(1, 4):
        assert store.apply_cr(SVC, "x", spec(version=f"v{n}")) == n
        resource = store.get_cr(SVC, "x")
        assert (resource.generation, resource.spec.version) == (n, f"v{n}")
    store.apply_cr(CONN, "x", spec())
    assert store.get_cr(CONN, "x").generation == 1
    with pytest.raises(NotFoundError):
        store.get_cr(SVC, "ghost")
    store.delete_cr(SVC, "x")
    with pytest.raises(NotFoundError):
        store.get_cr(SVC, "x")
    assert store.get_cr(CONN, "x").generation == 1


def test_missing_resources_raise(store):
    with pytest.raises(NotFoundError):
        store.get_cr(SVC, "ghost")
    with pytest.raises(NotFoundError):
        store.delete_cr(SVC, "ghost")
    with pytest.raises(NotFoundError):
        store.update_status(SVC, "ghost", ResourceStatus())


def test_status_updates_emit_no_events(store):
    store.apply_cr(SVC, "x", spec())
    watcher = store.watch(SVC)
    watcher.popleft()  # synthetic snapshot event
    store.update_status(
        SVC, "x", ResourceStatus(phase=Phase.RUNNING, observed_generation=1)
    )
    assert len(watcher) == 0
    assert store.get_cr(SVC, "x").status.phase is Phase.RUNNING


def test_status_observed_generation_cannot_regress(store):
    store.apply_cr(SVC, "x", spec())
    store.apply_cr(SVC, "x", spec())
    store.update_status(SVC, "x", ResourceStatus(observed_generation=2))
    with pytest.raises(StaleStatusError):
        store.update_status(SVC, "x", ResourceStatus(observed_generation=1))


def test_watch_sees_live_changes_in_order(store):
    watcher = store.watch(SVC)
    store.apply_cr(SVC, "x", spec())
    store.apply_cr(SVC, "x", spec())
    store.delete_cr(SVC, "x")
    events = [watcher.popleft() for _ in range(3)]
    assert [(e.change, e.generation) for e in events] == [
        (ChangeType.CREATED, 1),
        (ChangeType.SPEC_UPDATED, 2),
        (ChangeType.DELETED, 2),
    ]
    assert not watcher


def test_late_watcher_gets_one_snapshot_event_per_resource(store):
    store.apply_cr(SVC, "x", spec())
    store.apply_cr(SVC, "x", spec())
    store.apply_cr(SVC, "y", spec())
    log_before = list(store.event_log)
    watcher = store.watch(SVC)
    events = list(watcher)
    # one synthetic Created per resource at its current generation
    assert [(e.name, e.change, e.generation) for e in events] == [
        ("x", ChangeType.CREATED, 2),
        ("y", ChangeType.CREATED, 1),
    ]
    # snapshot events are per-subscriber, not history
    assert store.event_log == log_before


def test_watchers_only_see_their_kind(store):
    watcher = store.watch(CONN)
    store.apply_cr(SVC, "x", spec())
    assert len(watcher) == 0


def _random_ops(seed, store):
    """Drive a random op sequence; returns the mirror of expected state."""
    rng = random.Random(seed)
    mirror = {}
    for _ in range(rng.randrange(10, 40)):
        kind = rng.choice([SVC, CONN])
        name = rng.choice("abc")
        key = (kind, name)
        if key in mirror and rng.random() < 0.25:
            store.delete_cr(kind, name)
            del mirror[key]
        else:
            store.apply_cr(kind, name, spec())
            mirror[key] = mirror.get(key, 0) + 1
    return mirror


@pytest.mark.parametrize("seed", range(20))
def test_per_name_generations_are_gap_free(seed, store):
    watcher_svc = store.watch(SVC)
    watcher_conn = store.watch(CONN)
    _random_ops(seed, store)
    expected_next = {}
    for watcher in (watcher_svc, watcher_conn):
        while watcher:
            event = watcher.popleft()
            key = (event.kind, event.name)
            if event.change is ChangeType.DELETED:
                # deletion carries the final generation and resets the count
                assert event.generation == expected_next[key] - 1
                expected_next[key] = 1
                continue
            assert event.generation == expected_next.get(key, 1)
            expected_next[key] = event.generation + 1


@pytest.mark.parametrize("seed", range(20))
def test_event_log_replay_reconstructs_final_state(seed, store):
    mirror = _random_ops(seed, store)
    # fold the log into the surviving (kind, name) -> generation map
    replayed = {}
    for event in store.event_log:
        key = (event.kind, event.name)
        if event.change is ChangeType.DELETED:
            replayed.pop(key, None)
        else:
            replayed[key] = event.generation
    assert replayed == mirror
    # and the replay agrees with the store's own listing
    listed = {
        (kind, name): store.get_cr(kind, name).generation
        for kind in (SVC, CONN)
        for name in store.list_crs(kind)
    }
    assert replayed == listed
