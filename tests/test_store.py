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
    COUNTED_CONFIG_KINDS,
    DemandLedger,
    ResourceStatus,
    ResourceStore,
    apply_demand,
    fold_demand,
    multiplicities,
    split_config,
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
    # deleted: a finalizer, with an empty spec at the generation its status
    # observed, whose status can be written
    store.delete_cr(SVC, "x")
    assert store.find(SVC, "x") == (DemandLedger(), 1, running)
    pending = running._replace(phase=Phase.PENDING, instance_ids=())
    store.update_status(SVC, "x", pending)
    assert store.find(SVC, "x") == (DemandLedger(), 1, pending)
    # another life starts at generation 1 with the units the last one left,
    # and no other part of its status
    store.apply_cr(SVC, "x", first)
    assert store.find(SVC, "x") == (first, 1, ResourceStatus())
    store.update_status(SVC, "x", running)
    store.delete_cr(SVC, "x")
    store.apply_cr(SVC, "x", first)
    assert store.find(SVC, "x") == (
        first, 1, ResourceStatus(instance_ids=("i-0001",))
    )
    # a finalizer is kept whether or not its status lists units, and
    # deleting it drops it
    store.update_status(SVC, "x", ResourceStatus(observed_generation=1))
    store.delete_cr(SVC, "x")
    assert store.find(SVC, "x") == (
        DemandLedger(), 1, ResourceStatus(observed_generation=1)
    )
    store.delete_cr(SVC, "x")
    assert store.find(SVC, "x") is None


def test_deleting_a_finalizer_drops_it_unlogged_and_unqueued(store):
    store.apply_cr(SVC, "x", spec())
    store.update_status(SVC, "x", ResourceStatus(Phase.RUNNING, ("A",), ("i-0001",), 1))
    store.delete_cr(SVC, "x")
    watcher, log_before = store.watch(SVC), list(store.event_log)
    assert list(watcher) == ["x"]  # a late watch lists the finalizer
    watcher.clear()
    store.delete_cr(SVC, "x")
    assert store.find(SVC, "x") is None
    assert (list(watcher), store.event_log) == ([], log_before)
    with pytest.raises(NotFoundError):
        store.delete_cr(SVC, "x")


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


def recompute(ledger, action, requesters, items, version):
    """The fold done from scratch: every count copied and every key
    walked, and the support, effective config and rendered text derived
    anew from the counts."""
    sign = 1 if action is DeltaAction.REQUEST else -1

    def fold(counts, keys):
        folded = dict(counts)
        for key in dict.fromkeys(keys):
            left = folded.get(key, 0) + sign * keys.count(key)
            if left < 0:
                what = (
                    f"config {key.render()}" if isinstance(key, ConfigItem)
                    else f"requester {key}"
                )
                raise ReleaseUnderflowError(f"release of unknown {what}")
            folded[key] = left
        return {key: count for key, count in folded.items() if count}

    counted = [i for i in items if i.kind in COUNTED_CONFIG_KINDS]
    requester_counts = fold(ledger.requester_counts, list(requesters))
    config_counts = fold(ledger.config_counts, counted)
    base = ledger.base_config
    if sign > 0 and not base:
        base = tuple(i for i in items if i.kind not in COUNTED_CONFIG_KINDS)
    effective = base + tuple(config_counts)
    return DemandLedger(
        requester_counts,
        config_counts,
        base,
        version if sign > 0 and version else ledger.version,
        tuple(requester_counts),
        effective,
        ",".join(f"{k}:{v}" for k, v in effective),
    )


TWIN_POOL = CONFIG_POOL + [
    ConfigItem("forward-topic", "/c"),
    ConfigItem("input-topic", "/c"),
    ConfigItem("output-topic", "/o"),
]
TWIN_CHANGE = st.tuples(
    st.sampled_from([DeltaAction.REQUEST, DeltaAction.REQUEST, DeltaAction.RELEASE]),
    st.lists(st.sampled_from("ABCD"), max_size=4),
    st.lists(st.sampled_from(TWIN_POOL), max_size=6),
    st.sampled_from(["", "v1", "v2"]),
)


@given(st.lists(st.one_of(TWIN_CHANGE, UPGRADE), max_size=16))
def test_fold_against_a_full_recompute_twin(changes):
    """Repeated requesters and items, underflowing releases and upgrades:
    the same ledger, or the same error and the ledger left as it was."""
    ledger = DemandLedger()
    for action, requesters, items, version in changes:
        args = (ledger, action, tuple(requesters), tuple(items), version)
        try:
            want = recompute(*args)
        except ReleaseUnderflowError as exc:
            with pytest.raises(ReleaseUnderflowError) as raised:
                apply_demand(*args)
            assert str(raised.value) == str(exc)
            continue
        folded = apply_demand(*args)
        assert folded == want
        assert list(folded.requester_counts) == list(want.requester_counts)
        assert list(folded.config_counts) == list(want.config_counts)
        ledger = folded


@given(st.lists(st.one_of(TWIN_CHANGE, UPGRADE), max_size=16))
def test_rendered_config_kept_extended_or_rebuilt_twin(changes):
    """The `LEDGER` text always renders the effective config; a fold that
    adds or drops no counted key keeps both objects, and one that only
    adds keys appends to them."""
    ledger = DemandLedger()
    for action, requesters, items, version in changes:
        try:
            folded = apply_demand(
                ledger, action, tuple(requesters), tuple(items), version
            )
        except ReleaseUnderflowError:
            continue
        effective = folded.effective_config
        assert folded.rendered == ",".join(f"{k}:{v}" for k, v in effective)
        if folded.base_config is ledger.base_config:
            before, after = set(ledger.config_counts), set(folded.config_counts)
            if before == after:
                assert effective is ledger.effective_config
                assert folded.rendered is ledger.rendered
            elif before < after:
                assert effective[: len(ledger.effective_config)] == (
                    ledger.effective_config
                )
        ledger = folded


def test_fold_counts_a_change_once_for_every_resource():
    # the multiplicities and the split a request hands to each fold
    items = (
        ConfigItem("node", "E"),
        ConfigItem("input-topic", "/a"),
        ConfigItem("input-topic", "/a"),
        ConfigItem("forward-topic", "/b"),
    )
    counted, base = split_config(items)
    assert counted == {items[1]: 2, items[3]: 1}
    assert base == (items[0],)
    assert multiplicities(("A", "B", "A")) == {"A": 2, "B": 1}
    ledger = fold_demand(DemandLedger(), 1, {"A": 2}, (counted, base), "v1")
    assert ledger == apply_demand(
        DemandLedger(), DeltaAction.REQUEST, ("A", "A"), items, "v1"
    )
    # a release of more than is held names the first key that underflows
    with pytest.raises(ReleaseUnderflowError, match="requester B"):
        fold_demand(ledger, -1, {"A": 1, "B": 1})
    with pytest.raises(ReleaseUnderflowError, match="config input-topic:/a"):
        fold_demand(ledger, -1, {}, ({items[1]: 3, items[3]: 2}, ()))


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
        "rendered",
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
    assert list(watcher) == ["x"]  # the name the watch is primed with
    watcher.clear()
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
    store.apply_cr(SVC, "y", spec())
    store.apply_cr(SVC, "x", spec())
    # a create and an update queue a name once, where it was first queued
    assert list(watcher) == ["x", "y"]
    del watcher["x"]  # popped: a delete queues it again, last
    store.delete_cr(SVC, "x")
    assert list(watcher) == ["y", "x"]


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
    assert first == second  # equal queues, two watches
    store.unwatch(SVC, second)
    store.apply_cr(SVC, "x", spec())
    assert (list(first), list(second)) == (["x"], [])


def test_watchers_only_see_their_kind(store):
    watcher = store.watch(CONN)
    store.apply_cr(SVC, "x", spec())
    assert len(watcher) == 0


def _random_ops(seed, store, after_op=lambda kind, name, mirror: None):
    """Drive a random op sequence, calling `after_op` after each logged op.

    A delete leaves a finalizer: a re-create inherits the units its status
    lists, as a write may give it some, and a delete of it drops it,
    unlogged.  Returns the mirror of expected state,
    (kind, name) -> generation; the finalizers left, (kind, name) -> units;
    and the (kind, name) of every logged op in order.
    """
    rng = random.Random(seed)
    mirror, finalizers, ops = {}, {}, []
    for step in range(rng.randrange(10, 40)):
        kind = rng.choice([SVC, CONN])
        name = rng.choice("abc")
        key = (kind, name)
        if key in finalizers and rng.random() < 0.25:
            store.delete_cr(kind, name)
            del finalizers[key]
            continue
        if key in mirror and rng.random() < 0.25:
            units = store.get_cr(kind, name).status.instance_ids
            store.delete_cr(kind, name)
            del mirror[key]
            finalizers[key] = units
        else:
            generation = mirror[key] = mirror.get(key, 0) + 1
            store.apply_cr(kind, name, spec())
            if generation == 1:
                inherited = ResourceStatus(instance_ids=finalizers.pop(key, ()))
                assert store.get_cr(kind, name).status == inherited
            if rng.random() < 0.5:
                store.update_status(
                    kind, name,
                    ResourceStatus(Phase.RUNNING, ("A",), (f"i-{step}",), generation),
                )
        ops.append(key)
        after_op(kind, name, mirror)
    return mirror, finalizers, ops


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

    _, _, ops = _random_ops(seed, store, check)
    # each watch queued each name of an op on its kind once, in order
    for kind, watcher in watchers.items():
        assert list(watcher) == list(dict.fromkeys(n for k, n in ops if k == kind))


@pytest.mark.parametrize("seed", range(20))
def test_event_log_replay_reconstructs_final_state(seed, store):
    mirror, finalizers, ops = _random_ops(seed, store)
    # the log holds one name per logged mutation, in order
    assert len(store.event_log) == len(ops)
    assert store.event_log == [name for _, name in ops]
    # and the store's own listing agrees with the mirror: no reader but
    # `find` sees a finalizer
    listed = {
        (kind, name): store.get_cr(kind, name).generation
        for kind in (SVC, CONN)
        for name in store.list_crs(kind)
    }
    assert listed == mirror
    assert store.total_resources() == len(mirror)
    for (kind, name), units in finalizers.items():
        assert not store.exists(kind, name)
        assert store.get_spec(kind, name) == DemandLedger()
        with pytest.raises(NotFoundError):
            store.get_cr(kind, name)
        assert store.find(kind, name)[2].instance_ids == units
    # a late watch lists every resource, then every finalizer
    for kind in (SVC, CONN):
        assert list(store.watch(kind)) == [
            *store.list_crs(kind), *(n for k, n in finalizers if k == kind)
        ]
