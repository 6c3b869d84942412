"""Store behavior: desired-state specs, generations, watches, mutation log."""

import random

import pytest
from hypothesis import given, strategies as st

from demandflow.model import (
    ConfigItem,
    DeltaAction,
    NotFoundError,
    Phase,
    ReleaseUnderflowError,
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


def test_find_reads_spec_generation_and_status(store):
    assert store.find(SVC, "x") is None
    first = spec()
    store.apply_cr(SVC, "x", first)
    assert store.find(SVC, "x") == (first, 1, ResourceStatus())
    assert store.find(CONN, "x") is None  # names are scoped per kind
    running = ResourceStatus(Phase.RUNNING, ("A",), ("i-0001",), 1)
    store.update_status(SVC, "x", running)
    second = spec(requesters=("B",))
    store.apply_cr(SVC, "x", second)
    assert store.find(SVC, "x") == (second, 2, running)
    store.delete_cr(SVC, "x")
    assert store.find(SVC, "x") is None
    # another life: it starts at generation 1 with an empty status, so no
    # status of the last life can reach it
    store.apply_cr(SVC, "x", first)
    assert store.find(SVC, "x") == (first, 1, ResourceStatus())


CONFIG_POOL = [
    ConfigItem("node", "E"),
    ConfigItem("service-kind", "object-fusion"),
    ConfigItem("input-topic", "/a"),
    ConfigItem("input-topic", "/b"),
    ConfigItem("forward-topic", "/a"),
]
DEMAND_CHANGE = st.tuples(
    st.sampled_from([DeltaAction.REQUEST, DeltaAction.RELEASE]),
    st.lists(st.sampled_from("ABC"), max_size=3),
    st.lists(st.sampled_from(CONFIG_POOL), max_size=4),
    st.sampled_from(["", "v1"]),
)
UPGRADE = st.tuples(
    st.just(DeltaAction.REQUEST),
    st.just([]),
    st.just([]),
    st.sampled_from(["v2", "v3"]),
)


@given(st.lists(st.one_of(DEMAND_CHANGE, UPGRADE), max_size=12))
def test_a_ledger_derives_support_and_config_at_every_fold(changes):
    # Requests, releases and upgrades; a release that underflows is skipped.
    ledger = DemandLedger()
    for action, requesters, items, version in changes:
        try:
            ledger = apply_demand(
                ledger, action, tuple(requesters), tuple(items), version
            )
        except ReleaseUnderflowError:
            continue
        assert ledger.support == tuple(ledger.requester_counts)
        assert ledger.effective_config == (
            ledger.base_config + tuple(ledger.config_counts)
        )


def test_the_empty_ledger_is_what_a_missing_resource_wants(store):
    empty = DemandLedger()
    assert store.get_spec(SVC, "ghost") == empty
    assert (empty.support, empty.effective_config) == ((), ())
    assert empty.is_empty()


@pytest.mark.parametrize(
    "field",
    [
        "requester_counts",
        "config_counts",
        "base_config",
        "version",
        "support",
        "effective_config",
    ],
)
def test_a_ledger_is_read_only(field):
    ledger = spec(requesters=("A", "B"), version="v1")
    with pytest.raises(AttributeError):
        setattr(ledger, field, getattr(ledger, field))
    assert (ledger.support, ledger.version) == (("A", "B"), "v1")


@pytest.mark.parametrize(
    "field", ["phase", "support", "instance_ids", "observed_generation"]
)
def test_a_status_is_read_only(field):
    status = ResourceStatus(phase=Phase.RUNNING, support=("A",))
    with pytest.raises(AttributeError):
        setattr(status, field, getattr(status, field))
    assert status == ResourceStatus(Phase.RUNNING, ("A",), (), 0)
    assert ResourceStatus().phase is Phase.PENDING


@pytest.mark.parametrize(
    "field", ["kind", "name", "spec", "status", "generation"]
)
def test_a_read_resource_is_read_only(store, field):
    store.apply_cr(SVC, "x", spec())
    resource = store.get_cr(SVC, "x")
    with pytest.raises(AttributeError):
        setattr(resource, field, getattr(resource, field))
    assert (resource.kind, resource.name, resource.generation) == (SVC, "x", 1)


def test_status_updates_emit_no_events(store):
    store.apply_cr(SVC, "x", spec())
    watcher = store.watch(SVC)
    assert watcher.popleft() == "x"  # the name the watch is primed with
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
    # a create, an update and a delete each queue the name
    assert [watcher.popleft() for _ in range(3)] == ["x", "x", "x"]
    assert not watcher


def test_late_watcher_gets_one_snapshot_event_per_resource(store):
    store.apply_cr(SVC, "x", spec())
    store.apply_cr(SVC, "x", spec())
    store.apply_cr(SVC, "y", spec())
    log_before = list(store.event_log)
    watcher = store.watch(SVC)
    # one name per existing resource, in creation order
    assert list(watcher) == ["x", "y"]
    # the priming is per-subscriber, not history
    assert store.event_log == log_before


def test_unwatch_ends_that_watch_only(store):
    first, second = store.watch(SVC), store.watch(SVC)
    assert first == second  # equal deques, two watches
    store.unwatch(SVC, second)
    store.apply_cr(SVC, "x", spec())
    assert (list(first), list(second)) == (["x"], [])


def test_watchers_only_see_their_kind(store):
    watcher = store.watch(CONN)
    store.apply_cr(SVC, "x", spec())
    assert len(watcher) == 0


def _random_ops(seed, store, after_op=lambda kind, name, mirror: None):
    """Drive a random op sequence, calling `after_op` after each op.

    Returns the mirror of expected state, (kind, name) -> generation, and
    the (kind, name) of every op in order.
    """
    rng = random.Random(seed)
    mirror = {}
    ops = []
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
        ops.append(key)
        after_op(kind, name, mirror)
    return mirror, ops


@pytest.mark.parametrize("seed", range(20))
def test_per_name_generations_are_gap_free(seed, store):
    watchers = {SVC: store.watch(SVC), CONN: store.watch(CONN)}
    last = {}

    def check(kind, name, mirror):
        key = (kind, name)
        if key in mirror:
            # each write adds one; a life's first write is generation 1
            generation = store.get_cr(kind, name).generation
            assert generation == last.get(key, 0) + 1
            last[key] = generation
        else:
            # a delete ends the life; the next write restarts the count
            assert not store.exists(kind, name)
            del last[key]

    _, ops = _random_ops(seed, store, check)
    # each watch queued the name of every op on its kind, in order
    for kind, watcher in watchers.items():
        assert list(watcher) == [name for k, name in ops if k == kind]


@pytest.mark.parametrize("seed", range(20))
def test_event_log_replay_reconstructs_final_state(seed, store):
    mirror, ops = _random_ops(seed, store)
    # the log holds one name per real mutation, in order
    assert len(store.event_log) == len(ops)
    assert store.event_log == [name for _, name in ops]
    # and the store's own listing agrees with the mirror
    listed = {
        (kind, name): store.get_cr(kind, name).generation
        for kind in (SVC, CONN)
        for name in store.list_crs(kind)
    }
    assert listed == mirror
