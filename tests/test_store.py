"""Store behavior: generations, watches, event sourcing."""

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
    DemandDelta,
    ResourceStatus,
    ResourceStore,
    replay_event_log,
)

SVC = ResourceKind.MANAGED_SERVICE
CONN = ResourceKind.MANAGED_CONNECTION


def delta(n, action=DeltaAction.REQUEST, requesters=("A",), version=""):
    return DemandDelta(
        demand_id=f"d-{n}",
        action=action,
        requesters=tuple(requesters),
        app_version=version,
    )


@pytest.fixture
def store():
    return ResourceStore()


def test_generations_start_at_one_and_increment(store):
    assert store.apply_cr(SVC, "x", delta(1)) == 1
    assert store.apply_cr(SVC, "x", delta(2)) == 2
    resource = store.get_cr(SVC, "x")
    assert resource.generation == 2
    assert resource.spec.demand_id == "d-2"
    # every generation's delta stays addressable
    assert store.get_spec(SVC, "x", 1).demand_id == "d-1"
    with pytest.raises(NotFoundError):
        store.get_spec(SVC, "x", 3)


def test_names_are_scoped_per_kind(store):
    store.apply_cr(SVC, "x", delta(1))
    store.apply_cr(CONN, "x", delta(2))
    assert store.get_cr(SVC, "x").generation == 1
    assert store.get_cr(CONN, "x").generation == 1


def test_demand_ids_reset_with_a_new_lifecycle(store):
    store.apply_cr(SVC, "x", delta(1))
    store.delete_cr(SVC, "x")
    # the name is free again, and so is the demand id
    assert store.apply_cr(SVC, "x", delta(1)) == 1


def test_generation_reads_the_current_generation(store):
    for n in range(1, 4):
        store.apply_cr(SVC, "x", delta(n))
        assert store.generation(SVC, "x") == store.get_cr(SVC, "x").generation == n
    store.apply_cr(CONN, "x", delta(9))
    assert store.generation(CONN, "x") == 1
    with pytest.raises(NotFoundError):
        store.generation(SVC, "ghost")
    store.delete_cr(SVC, "x")
    with pytest.raises(NotFoundError):
        store.generation(SVC, "x")
    assert store.generation(CONN, "x") == 1


def test_missing_resources_raise(store):
    with pytest.raises(NotFoundError):
        store.get_cr(SVC, "ghost")
    with pytest.raises(NotFoundError):
        store.delete_cr(SVC, "ghost")
    with pytest.raises(NotFoundError):
        store.update_status(SVC, "ghost", ResourceStatus())


def test_delta_validation():
    with pytest.raises(ValueError):
        DemandDelta(demand_id="", action=DeltaAction.REQUEST,
                    requesters=("A",)).validate()
    with pytest.raises(ValueError):
        delta(1, requesters=()).validate()  # empty but not version-only
    with pytest.raises(ValueError):
        delta(1, action=DeltaAction.RELEASE, requesters=(),
              version="v2").validate()
    # the version-only escape hatch
    delta(1, requesters=(), version="v2").validate()


def test_status_updates_emit_no_events(store):
    store.apply_cr(SVC, "x", delta(1))
    watcher = store.watch(SVC)
    watcher.popleft()  # synthetic snapshot event
    store.update_status(
        SVC, "x", ResourceStatus(phase=Phase.RUNNING, observed_generation=1)
    )
    assert len(watcher) == 0
    assert store.get_cr(SVC, "x").status.phase is Phase.RUNNING


def test_status_observed_generation_cannot_regress(store):
    store.apply_cr(SVC, "x", delta(1))
    store.apply_cr(SVC, "x", delta(2))
    store.update_status(SVC, "x", ResourceStatus(observed_generation=2))
    with pytest.raises(StaleStatusError):
        store.update_status(SVC, "x", ResourceStatus(observed_generation=1))


def test_watch_sees_live_changes_in_order(store):
    watcher = store.watch(SVC)
    store.apply_cr(SVC, "x", delta(1))
    store.apply_cr(SVC, "x", delta(2))
    store.delete_cr(SVC, "x")
    events = [watcher.popleft() for _ in range(3)]
    assert [(e.change, e.generation) for e in events] == [
        (ChangeType.CREATED, 1),
        (ChangeType.SPEC_UPDATED, 2),
        (ChangeType.DELETED, 2),
    ]
    assert not watcher


def test_late_watcher_gets_one_snapshot_event_per_resource(store):
    store.apply_cr(SVC, "x", delta(1))
    store.apply_cr(SVC, "x", delta(2))
    store.apply_cr(SVC, "y", delta(3))
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
    store.apply_cr(SVC, "x", delta(1))
    assert len(watcher) == 0


def _random_ops(seed, store):
    """Drive a random op sequence; returns the mirror of expected state."""
    rng = random.Random(seed)
    mirror = {}
    next_id = 0
    for _ in range(rng.randrange(10, 40)):
        kind = rng.choice([SVC, CONN])
        name = rng.choice("abc")
        key = (kind, name)
        if key in mirror and rng.random() < 0.25:
            store.delete_cr(kind, name)
            del mirror[key]
        else:
            next_id += 1
            store.apply_cr(kind, name, delta(f"{seed}-{next_id}"))
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
    replayed = replay_event_log(store.event_log)
    assert replayed == mirror
    # and the replay agrees with the store's own listing
    listed = {
        (kind, name): store.get_cr(kind, name).generation
        for kind in (SVC, CONN)
        for name in store.list_crs(kind)
    }
    assert replayed == listed
