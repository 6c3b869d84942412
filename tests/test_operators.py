"""Ledger arithmetic, reconcile decisions, and operator behavior."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from demandflow.cluster import ClusterSim, ServiceInstance
from demandflow.model import (
    ConfigItem,
    DeltaAction,
    NothingRunningError,
    Phase,
    ReleaseUnderflowError,
    ResourceKind,
    ServiceKind,
)
from demandflow.operators import (
    DecisionAction,
    MAX_ATTEMPTS,
    Operator,
    decide,
)
from demandflow.store import DemandLedger, ResourceStore, apply_demand
from demandflow.tracing import Trace

SVC = ResourceKind.MANAGED_SERVICE
CONN = ResourceKind.MANAGED_CONNECTION


def fold(
    ledger,
    action=DeltaAction.REQUEST,
    requesters=("V0", "S"),
    config=(),
    version="",
):
    return apply_demand(
        ledger, action, tuple(requesters), tuple(config), version
    )


def write_demand(store, kind, name, **change):
    """Fold one change into a resource's spec, as the app manager does."""
    return store.apply_cr(kind, name, fold(store.get_spec(kind, name), **change))


def in_topic(value):
    return ConfigItem("input-topic", value)


def instances_of(sim, cr_name):
    """The running instances of one resource, in creation order."""
    return tuple(i for i in sim.instances() if i.cr_name == cr_name)


BASE = (ConfigItem("node", "E"), ConfigItem("service-kind", "object-fusion"))


# -- apply_demand ----------------------------------------------------------


def test_request_counts_requesters_and_config():
    ledger = fold(
        DemandLedger(), config=BASE + (in_topic("/V0/ego"),), version="v1"
    )
    assert ledger.requester_counts == {"V0": 1, "S": 1}
    assert ledger.config_counts == {in_topic("/V0/ego"): 1}
    assert ledger.base_config == BASE
    assert ledger.version == "v1"
    assert ledger.support == ("V0", "S")
    assert ledger.effective_config == BASE + (in_topic("/V0/ego"),)


def test_shared_keys_accumulate_counts():
    ledger = DemandLedger()
    for vehicle in ["V0", "V1", "V2", "V3"]:
        ledger = fold(ledger, requesters=(vehicle, "S"))
    assert ledger.requester_counts == {
        "V0": 1, "S": 4, "V1": 1, "V2": 1, "V3": 1,
    }
    assert ledger.support == ("V0", "S", "V1", "V2", "V3")


def test_release_drops_only_exhausted_keys():
    # the crux of counted bookkeeping: a shared requester with remaining
    # references must survive a release that names it
    ledger = DemandLedger()
    for vehicle in ["V0", "V1", "V2", "V3"]:
        ledger = fold(ledger, requesters=(vehicle, "S"))
    ledger = fold(ledger, DeltaAction.RELEASE, requesters=("V0", "S"))
    assert ledger.requester_counts == {"S": 3, "V1": 1, "V2": 1, "V3": 1}
    assert ledger.support == ("S", "V1", "V2", "V3")


def test_release_unknown_requester_is_atomic():
    ledger = fold(DemandLedger(), requesters=("A",))
    with pytest.raises(ReleaseUnderflowError, match="unknown requester B$"):
        fold(ledger, DeltaAction.RELEASE, requesters=("A", "B"))
    # nothing was decremented, not even the valid half
    assert ledger.requester_counts == {"A": 1}


def test_release_counts_each_key_over_the_whole_delta():
    # "A" is named twice but held once, so the release underflows on "A"
    # even though "B" comes before its second appearance
    ledger = fold(DemandLedger(), requesters=("A",))
    with pytest.raises(ReleaseUnderflowError, match="unknown requester A$"):
        fold(ledger, DeltaAction.RELEASE, requesters=("A", "B", "A"))
    assert ledger.requester_counts == {"A": 1}


def test_release_unknown_config_is_atomic():
    ledger = fold(DemandLedger(), config=(in_topic("/a"),))
    with pytest.raises(
        ReleaseUnderflowError, match="unknown config input-topic:/b$"
    ):
        fold(
            ledger,
            DeltaAction.RELEASE,
            config=(in_topic("/a"), in_topic("/b")),
        )
    assert ledger.config_counts == {in_topic("/a"): 1}


def test_version_only_delta_touches_only_the_version():
    ledger = fold(DemandLedger(), config=BASE, version="v1")
    after = fold(ledger, requesters=(), version="v2")
    assert after.version == "v2"
    assert after.requester_counts == ledger.requester_counts
    assert after.config_counts == ledger.config_counts
    assert after.base_config == ledger.base_config


def test_release_leaves_version_and_base_alone():
    ledger = fold(DemandLedger(), config=BASE + (in_topic("/a"),), version="v1")
    after = fold(
        ledger,
        DeltaAction.RELEASE,
        config=(ConfigItem("node", "X"), in_topic("/a")),
        version="v2",
    )
    assert after.version == "v1"
    assert after.base_config == BASE
    assert after.config_counts == {}


def test_base_config_is_adopted_once():
    ledger = fold(DemandLedger(), config=BASE)
    ledger = fold(ledger, config=(ConfigItem("node", "X"),))
    assert ledger.base_config == BASE


def test_request_release_round_trip_counts_to_zero():
    config = BASE + (in_topic("/V0/ego"), in_topic("/S/points"))
    ledger = fold(DemandLedger(), config=config)
    ledger = fold(ledger, DeltaAction.RELEASE, config=config)
    assert ledger.is_empty()
    assert ledger.requester_counts == {}
    assert ledger.config_counts == {}


def test_effective_config_is_built_once_per_ledger():
    ledger = fold(DemandLedger(), config=BASE + (in_topic("/a"),))
    assert ledger.effective_config is ledger.effective_config
    # a fold builds a new ledger, and with it a new effective config
    grown = fold(ledger, config=(in_topic("/b"),))
    assert grown.effective_config == BASE + (in_topic("/a"), in_topic("/b"))
    assert ledger.effective_config == BASE + (in_topic("/a"),)


# A release only ever succeeds wholesale; on rejection the input ledger
# is untouched.

requester_lists = st.lists(
    st.sampled_from(["A", "B", "C", "D"]), min_size=1, max_size=4
)


@given(
    setup=st.lists(requester_lists, min_size=0, max_size=5),
    attempt=requester_lists,
)
def test_release_atomicity_property(setup, attempt):
    ledger = DemandLedger()
    for requesters in setup:
        ledger = fold(ledger, requesters=requesters)
    before = dict(ledger.requester_counts)
    available = Counter()
    for requesters in setup:
        available.update(requesters)
    feasible = not (Counter(attempt) - available)
    if feasible:
        after = fold(ledger, DeltaAction.RELEASE, requesters=attempt)
        expected = available - Counter(attempt)
        assert Counter(after.requester_counts) == expected
    else:
        with pytest.raises(ReleaseUnderflowError):
            fold(ledger, DeltaAction.RELEASE, requesters=attempt)
    assert ledger.requester_counts == before


# -- decide ----------------------------------------------------------------


def make_instance(config, version="v1"):
    return ServiceInstance(
        instance_id="i-0001",
        cr_name="svc-x",
        service_kind=ServiceKind.OBJECT_FUSION,
        node_id="E",
        config=tuple(config),
        version=version,
    )


def ledger_with(requesters=("V0",), config=(), version="v1"):
    return fold(
        DemandLedger(), requesters=requesters, config=config, version=version
    )


def test_decide_deploys_without_instance():
    after = ledger_with(config=BASE)
    assert decide(after, None) is DecisionAction.DEPLOY


def test_decide_shutdown_exactly_when_support_empty():
    empty = DemandLedger()
    assert decide(empty, make_instance(BASE)) is DecisionAction.SHUTDOWN
    # no instance to kill, still a shutdown (the resource must go)
    assert decide(empty, None) is DecisionAction.SHUTDOWN
    # non-empty support never shuts down
    populated = ledger_with(config=BASE)
    assert decide(populated, make_instance(BASE)) \
        is not DecisionAction.SHUTDOWN


def test_decide_reconfigures_on_config_set_change():
    after = ledger_with(config=BASE + (in_topic("/a"),))
    instance = make_instance(BASE)
    assert decide(after, instance) is DecisionAction.RECONFIGURE


def test_decide_ignores_config_order():
    after = ledger_with(config=BASE + (in_topic("/a"),))
    shuffled = tuple(reversed(after.effective_config))
    assert decide(after, make_instance(shuffled)) is DecisionAction.NOOP


def test_decide_replaces_on_version_change():
    after = ledger_with(config=BASE, version="v2")
    instance = make_instance(BASE, version="v1")
    assert decide(after, instance) is DecisionAction.REPLACE
    # an unversioned ledger (connections) never triggers replacement
    unversioned = ledger_with(config=BASE, version="")
    assert decide(unversioned, instance) is DecisionAction.NOOP


def decide_by_sets(ledger, instance):
    """`decide` as it was: the configs compared as two fresh sets."""
    if ledger.is_empty():
        return DecisionAction.SHUTDOWN
    if instance is None:
        return DecisionAction.DEPLOY
    if ledger.version and instance.version != ledger.version:
        return DecisionAction.REPLACE
    if set(ledger.effective_config) != set(instance.config):
        return DecisionAction.RECONFIGURE
    return DecisionAction.NOOP


COUNTED_POOL = [in_topic(f"/in/{i}") for i in range(4)] + [
    ConfigItem("forward-topic", "/fwd/0")
]


@given(
    changes=st.lists(
        st.tuples(
            st.sampled_from([DeltaAction.REQUEST, DeltaAction.RELEASE]),
            st.lists(st.sampled_from(COUNTED_POOL), min_size=1, max_size=3),
        ),
        max_size=8,
    ),
    data=st.data(),
)
def test_decide_twin_matches_set_comparison(changes, data):
    """Every ledger of a history against every unit config an earlier,
    the same or a later one gave, as that very tuple and reordered."""
    ledgers = [ledger_with(config=BASE)]
    for action, items in changes:
        try:
            ledgers.append(fold(ledgers[-1], action, requesters=(), config=items))
        except ReleaseUnderflowError:
            continue
    for ledger in ledgers:
        for given_by in ledgers:
            running = given_by.effective_config
            shuffled = tuple(data.draw(st.permutations(running)))
            for config in (running, shuffled):
                instance = make_instance(config)
                assert decide(ledger, instance) is decide_by_sets(ledger, instance)


def test_decide_twin_cases():
    ledger = ledger_with(config=BASE + (in_topic("/a"), in_topic("/b")))
    # the unit runs the ledger's own tuple
    assert decide(ledger, make_instance(ledger.effective_config)) \
        is DecisionAction.NOOP
    # a release and a re-request move one item to the end: same set
    again = fold(
        fold(ledger, DeltaAction.RELEASE, requesters=(), config=(in_topic("/a"),)),
        requesters=(), config=(in_topic("/a"),),
    )
    assert again.effective_config != ledger.effective_config
    assert decide(again, make_instance(ledger.effective_config)) \
        is DecisionAction.NOOP
    # another length, and the same length with another item
    grown = fold(ledger, requesters=(), config=(in_topic("/c"),))
    assert decide(grown, make_instance(ledger.effective_config)) \
        is DecisionAction.RECONFIGURE
    swapped = fold(
        fold(ledger, DeltaAction.RELEASE, requesters=(), config=(in_topic("/a"),)),
        requesters=(), config=(in_topic("/c"),),
    )
    assert len(swapped.effective_config) == len(ledger.effective_config)
    assert decide(swapped, make_instance(ledger.effective_config)) \
        is DecisionAction.RECONFIGURE


# -- operators against store + cluster ------------------------------------


@pytest.fixture
def rig():
    store = ResourceStore()
    sim = ClusterSim()
    for node in ("E", "S", "V0", "V1"):
        sim.add_node(node)
    trace = Trace()
    service_op = Operator(SVC, store, sim, trace)
    connection_op = Operator(CONN, store, sim, trace)
    return store, sim, trace, service_op, connection_op


def svc_config(extra=()):
    return (
        ConfigItem("node", "E"),
        ConfigItem("service-kind", "object-fusion"),
        ConfigItem("output-topic", "/fusion/objects"),
        *extra,
    )


def test_created_resource_deploys_an_instance(rig):
    store, sim, trace, service_op, _ = rig
    write_demand(
        store, SVC, "svc-x",
        config=svc_config((in_topic("/V0/ego"),)), version="v1",
    )
    assert service_op.run_pending() == 1
    instances = instances_of(sim, "svc-x")
    assert len(instances) == 1
    assert instances[0].node_id == "E"
    assert instances[0].version == "v1"
    status = store.get_cr(SVC, "svc-x").status
    assert status.phase is Phase.RUNNING
    assert status.support == ("V0", "S")
    assert status.observed_generation == 1
    assert status.instance_ids == (instances[0].instance_id,)


def test_growing_support_does_not_redeploy(rig):
    store, sim, trace, service_op, _ = rig
    write_demand(store, SVC, "svc-x", config=svc_config())
    service_op.run_pending()
    first = instances_of(sim, "svc-x")[0]
    write_demand(
        store, SVC, "svc-x", requesters=("V1", "S"), config=svc_config()
    )
    service_op.run_pending()
    (after,) = instances_of(sim, "svc-x")
    # the same instance, untouched: no redeploy and no reconfigure
    assert after is first
    assert after.config == svc_config()
    assert [r.get("action") for r in trace.records if r.tag == "ACTION"] == [
        "deploy"
    ]
    assert store.get_cr(SVC, "svc-x").status.support == ("V0", "S", "V1")


def test_config_change_reconfigures_in_place(rig):
    store, sim, trace, service_op, _ = rig
    write_demand(store, SVC, "svc-x", config=svc_config((in_topic("/V0/ego"),)))
    service_op.run_pending()
    (first,) = instances_of(sim, "svc-x")
    write_demand(
        store, SVC, "svc-x",
        requesters=("V1", "S"), config=svc_config((in_topic("/V1/ego"),)),
    )
    service_op.run_pending()
    # the running instance keeps its id; only its config moves
    (instance,) = instances_of(sim, "svc-x")
    assert instance.instance_id == first.instance_id
    assert set(instance.input_topics) == {"/V0/ego", "/V1/ego"}
    actions = [r for r in trace.records if r.tag == "ACTION"]
    assert [(r.get("action"), r.get("instances")) for r in actions] == [
        ("deploy", first.instance_id), ("reconfigure", first.instance_id)
    ]


def test_emptied_support_terminates_and_deletes(rig):
    store, sim, trace, service_op, _ = rig
    config = svc_config((in_topic("/V0/ego"),))
    write_demand(store, SVC, "svc-x", config=config)
    service_op.run_pending()
    write_demand(store, SVC, "svc-x", action=DeltaAction.RELEASE, config=config)
    seen = len(trace.records)
    # the delete leaves a finalizer, and the name's queued reconcile finds
    # nothing running under it and drops it, untraced
    assert service_op.run_pending() == 2
    assert instances_of(sim, "svc-x") == ()
    assert not store.exists(SVC, "svc-x")
    assert store.find(SVC, "svc-x") is None
    assert service_op.records() == ()
    assert [(r.tag, r.get("action")) for r in trace.records][seen:] == [
        ("ACTION", "terminate"), ("LEDGER", "")
    ]


def test_batched_events_apply_every_generation_once(rig):
    store, sim, trace, service_op, _ = rig
    # three writes before the operator runs at all queue the name once,
    # and its one reconcile reads the latest spec
    write_demand(store, SVC, "svc-x", config=svc_config())
    write_demand(store, SVC, "svc-x", requesters=("V1", "S"))
    write_demand(store, SVC, "svc-x", requesters=("V0", "S"))
    assert service_op.pending() == 1
    assert service_op.run_pending() == 1
    assert len(instances_of(sim, "svc-x")) == 1
    status = store.get_cr(SVC, "svc-x").status
    assert (status.support, status.observed_generation) == (("V0", "S", "V1"), 3)
    assert [r.tag for r in trace.records] == ["ACTION", "LEDGER"]


def test_a_shutdown_queues_its_name_again_and_the_pass_runs_it(rig):
    store, sim, trace, service_op, _ = rig
    write_demand(store, SVC, "svc-x", config=svc_config())
    service_op.run_pending()
    write_demand(store, SVC, "svc-x", action=DeltaAction.RELEASE)
    assert service_op.pending() == 1
    # the name leaves the queue before its reconcile, so the shutdown's
    # delete queues it again, and the same pass finds nothing left of it
    assert service_op.run_pending() == 2
    assert service_op.pending() == 0
    assert not store.exists(SVC, "svc-x") and not sim.owned("svc-x")
    assert [r.tag for r in trace.records] == ["ACTION", "LEDGER"] * 2


def test_a_support_only_change_keeps_the_running_config(rig):
    store, sim, trace, service_op, _ = rig
    write_demand(store, SVC, "svc-x", config=svc_config((in_topic("/V0/ego"),)))
    service_op.run_pending()
    (instance,) = instances_of(sim, "svc-x")
    # a new requester of the same topic adds no counted key: the fold
    # keeps the config object the instance runs, so nothing is compared
    write_demand(
        store, SVC, "svc-x", requesters=("V1",), config=(in_topic("/V0/ego"),)
    )
    spec = store.get_spec(SVC, "svc-x")
    assert spec.effective_config is instance.config
    assert decide(spec, instance) is DecisionAction.NOOP
    service_op.run_pending()
    assert [r.tag for r in trace.records] == ["ACTION", "LEDGER", "LEDGER"]
    ledger = trace.records[-1]
    assert (ledger.get("support"), ledger.get("config")) == ("V0,S,V1", spec.rendered)
    assert spec.rendered == ",".join(item.render() for item in instance.config)


def test_late_operator_replays_history(rig):
    store, sim, trace, _, _ = rig
    write_demand(store, SVC, "svc-x", config=svc_config())
    write_demand(store, SVC, "svc-x", requesters=("V1", "S"))
    # the late watch starts with the name once; the spec it reads
    # already holds every change made before
    late = Operator(SVC, store, sim, trace)
    assert late.pending() == 1
    late.run_pending()
    status = store.get_cr(SVC, "svc-x").status
    assert (status.support, status.observed_generation) == (("V0", "S", "V1"), 2)
    assert [r.get("support") for r in trace.records if r.tag == "LEDGER"] == [
        "V0,S,V1"
    ]


def test_stale_events_are_ignored(rig):
    store, sim, trace, service_op, _ = rig
    write_demand(store, SVC, "svc-x", config=svc_config())
    service_op.run_pending()
    before = store.get_cr(SVC, "svc-x").status
    ledgers = [r for r in trace.records if r.tag == "LEDGER"]
    service_op.reconcile("svc-x")  # a duplicate of the observed generation
    assert store.get_cr(SVC, "svc-x").status == before
    assert len(instances_of(sim, "svc-x")) == 1
    assert [r for r in trace.records if r.tag == "LEDGER"] == ledgers


def test_connection_pair_deploys_both_halves(rig):
    store, sim, _, _, connection_op = rig
    write_demand(
        store, CONN, "conn-V0-E",
        config=(
            ConfigItem("src", "V0"),
            ConfigItem("dst", "E"),
            ConfigItem("forward-topic", "/V0/ego"),
        ),
    )
    connection_op.run_pending()
    pair = instances_of(sim, "conn-V0-E")
    assert len(pair) == 2
    kinds = {i.service_kind for i in pair}
    assert kinds == {ServiceKind.COMM_SENDER, ServiceKind.COMM_RECEIVER}
    nodes = {i.service_kind: i.node_id for i in pair}
    assert nodes[ServiceKind.COMM_SENDER] == "V0"
    assert nodes[ServiceKind.COMM_RECEIVER] == "E"


def test_connection_pair_is_all_or_nothing(rig):
    store, sim, trace, _, connection_op = rig
    # src node does not exist: the sender can never start, so the
    # receiver must not survive either
    write_demand(
        store, CONN, "conn-X-E",
        config=(
            ConfigItem("src", "X"),
            ConfigItem("dst", "E"),
            ConfigItem("forward-topic", "/X/ego"),
        ),
    )
    for drain_no in (1, 2):
        # every attempt of the pass fails, and the give-up parks the name
        connection_op.run_pending()
        assert sim.instances() == ()
        errors = [r for r in trace.records if r.tag == "ERROR"]
        # one give-up per pass, and the demand is kept for the next one
        assert [r.get("kind") for r in errors] == ["reconcile-failed"] * drain_no
        assert connection_op.pending() == 0
        assert store.exists(CONN, "conn-X-E")


def test_failure_keeps_status_pending_until_giving_up(rig):
    store, sim, trace, service_op, _ = rig
    write_demand(
        store, SVC, "svc-x",
        config=(
            ConfigItem("node", "X"),  # unknown node
            ConfigItem("service-kind", "object-fusion"),
        ),
    )
    # the status each deploy attempt finds, the first one's included
    phases = []
    real = sim.deploy_instance

    def deploy(spec):
        phases.append(store.get_cr(SVC, "svc-x").status.phase)
        return real(spec)

    sim.deploy_instance = deploy
    service_op.run_pending()
    assert phases == [Phase.PENDING] * MAX_ATTEMPTS
    # given up for this pass: still pending, nothing observed, parked
    status = store.get_cr(SVC, "svc-x").status
    assert status.phase is Phase.PENDING
    assert status.observed_generation == 0
    assert [r.get("kind") for r in trace.records if r.tag == "ERROR"] == [
        "reconcile-failed"
    ]
    assert service_op.pending() == 0
    # the next pass runs the parked name first, with every attempt again
    assert service_op.run_pending() == 1
    assert phases == [Phase.PENDING] * (2 * MAX_ATTEMPTS)


def test_failed_reconfigure_of_a_running_resource_is_pending(rig):
    store, sim, _, service_op, _ = rig
    write_demand(store, SVC, "svc-x", config=svc_config((in_topic("/V0/ego"),)))
    service_op.run_pending()
    assert store.get_cr(SVC, "svc-x").status.phase is Phase.RUNNING

    def reconfigure(instance_id, config):
        raise NothingRunningError("injected reconfigure failure")

    sim.reconfigure_instance = reconfigure
    write_demand(
        store, SVC, "svc-x",
        requesters=("V1", "S"), config=svc_config((in_topic("/V1/ego"),)),
    )
    service_op.run_pending()
    status = store.get_cr(SVC, "svc-x").status
    assert status.phase is Phase.PENDING
    assert status.observed_generation == 1
    assert status.support == ("V0", "S")  # the committed ledger
    assert service_op.pending() == 0
    # once the cluster works again, the next pass commits the new ledger
    del sim.reconfigure_instance
    service_op.run_pending()
    status = store.get_cr(SVC, "svc-x").status
    assert status.phase is Phase.RUNNING
    assert status.observed_generation == 2
    assert status.support == ("V0", "S", "V1")


def test_recreated_resource_gets_every_attempt(rig):
    store, sim, trace, service_op, _ = rig
    config = (
        ConfigItem("node", "X"),  # unknown node: every deploy fails
        ConfigItem("service-kind", "object-fusion"),
    )
    deploys = []
    real = sim.deploy_instance

    def deploy(spec):
        deploys.append(spec.cr_name)
        return real(spec)

    sim.deploy_instance = deploy
    write_demand(store, SVC, "svc-x", config=config, requesters=("V0",))
    write_demand(store, SVC, "svc-x", config=config, requesters=("V1",))
    service_op.run_pending()
    assert len(deploys) == MAX_ATTEMPTS
    # an external delete ends the parked life, and a new life of the
    # name starts at generation 1 before the next pass
    store.delete_cr(SVC, "svc-x")
    write_demand(store, SVC, "svc-x", config=config)
    deploys.clear()
    service_op.run_pending()
    assert len(deploys) == MAX_ATTEMPTS
    errors = [r.get("detail") for r in trace.records if r.tag == "ERROR"]
    assert errors == [
        "svc-x@2:UnknownNodeError", "svc-x@1:UnknownNodeError"
    ]


def test_observed_generation_never_regresses(rig):
    store, _, _, service_op, _ = rig
    write_demand(store, SVC, "svc-x", config=svc_config())
    service_op.run_pending()
    seen = [store.get_cr(SVC, "svc-x").status.observed_generation]
    for _ in range(2, 6):
        write_demand(store, SVC, "svc-x", requesters=("V1", "S"))
        service_op.run_pending()
        seen.append(store.get_cr(SVC, "svc-x").status.observed_generation)
    assert seen == sorted(seen)
    assert seen[-1] == 5


# -- seeded sequences against an independent counting oracle ---------------


@pytest.mark.parametrize("seed", range(30))
def test_ledger_agrees_with_multiset_oracle(seed):
    rng = random.Random(seed)
    entities = ["A", "B", "C", "D", "E5", "F"]
    topics = [in_topic(f"/t{i}") for i in range(8)]
    ledger = DemandLedger()
    active = []  # changes requested and not yet released
    for _ in range(rng.randrange(5, 25)):
        if active and rng.random() < 0.45:
            requesters, config = active.pop(rng.randrange(len(active)))
            action = DeltaAction.RELEASE
        else:
            requesters = rng.sample(entities, rng.randrange(1, 4))
            config = rng.sample(topics, rng.randrange(0, 4))
            active.append((tuple(requesters), tuple(config)))
            action = DeltaAction.REQUEST
        ledger = fold(ledger, action, requesters=requesters, config=config)

        # the oracle: counts are the plain sum over unreleased changes
        expected_requesters = Counter()
        expected_config = Counter()
        for requesters, config in active:
            expected_requesters.update(requesters)
            expected_config.update(config)
        assert Counter(ledger.requester_counts) == expected_requesters
        assert Counter(ledger.config_counts) == expected_config
        assert set(ledger.support) == set(expected_requesters)


def test_same_tick_release_and_request_keep_the_new_demand(rig):
    store, sim, trace, service_op, _ = rig
    config = svc_config((in_topic("/V0/ego"),))
    write_demand(store, SVC, "svc-x", config=config)
    service_op.run_pending()
    # the last supporter leaves and a new one arrives before the drain
    write_demand(store, SVC, "svc-x", action=DeltaAction.RELEASE, config=config)
    write_demand(store, SVC, "svc-x", requesters=("V1", "S"), config=config)
    service_op.run_pending()
    assert store.exists(SVC, "svc-x")
    assert store.get_cr(SVC, "svc-x").status.support == ("V1", "S")
    assert service_op.records() == ("svc-x",)
    assert len(instances_of(sim, "svc-x")) == 1
    assert [r for r in trace.records if r.tag == "ERROR"] == []


def failing(sim, method, fail_calls):
    """Make the given 1-based calls of the cluster's `method` raise."""
    real = getattr(sim, method)
    calls = 0

    def wrapped(*args):
        nonlocal calls
        calls += 1
        if calls in fail_calls:
            raise NothingRunningError(f"injected {method} failure")
        return real(*args)

    setattr(sim, method, wrapped)


def test_failing_names_spend_their_attempts_in_turn(rig):
    store, sim, trace, service_op, _ = rig
    failing(sim, "deploy_instance", {1})
    deploys = []
    real = sim.deploy_instance
    sim.deploy_instance = lambda spec: deploys.append(spec.cr_name) or real(spec)
    # a single failed call costs one retry in the same pass, and no ERROR
    write_demand(store, SVC, "svc-c", config=svc_config())
    service_op.run_pending()
    assert deploys == ["svc-c", "svc-c"]
    assert store.get_cr(SVC, "svc-c").status.phase is Phase.RUNNING
    assert [r for r in trace.records if r.tag == "ERROR"] == []
    # two names that cannot deploy: each spends every attempt, then
    # gives up, before the next name's first attempt
    unknown = (ConfigItem("node", "X"), ConfigItem("service-kind", "object-fusion"))
    write_demand(store, SVC, "svc-a", config=unknown)
    write_demand(store, SVC, "svc-b", config=unknown)
    deploys.clear()
    assert service_op.run_pending() == 2
    assert deploys == ["svc-a"] * MAX_ATTEMPTS + ["svc-b"] * MAX_ATTEMPTS
    errors = [r.get("detail") for r in trace.records if r.tag == "ERROR"]
    assert errors == ["svc-a@1:UnknownNodeError", "svc-b@1:UnknownNodeError"]
    assert service_op.pending() == 0


def test_replace_retry_reuses_the_new_instance(rig):
    store, sim, trace, service_op, _ = rig
    write_demand(store, SVC, "svc-x", config=svc_config(), version="v1")
    service_op.run_pending()
    (old,) = instances_of(sim, "svc-x")
    failing(sim, "terminate_instance", {1, 2})
    # the status each terminate call finds
    seen = []
    real = sim.terminate_instance

    def terminate(unit):
        status = store.get_cr(SVC, "svc-x").status
        seen.append((status.phase, status.instance_ids))
        return real(unit)

    sim.terminate_instance = terminate
    write_demand(store, SVC, "svc-x", requesters=(), config=(), version="v2")
    service_op.run_pending()
    (live,) = instances_of(sim, "svc-x")
    assert live.version == "v2"
    # a failed attempt's pending status names the units it left running
    assert seen == [(Phase.RUNNING, (old.instance_id,))] + [
        (Phase.PENDING, (live.instance_id,))
    ] * 2
    assert store.get_cr(SVC, "svc-x").status.instance_ids == (
        live.instance_id,
    )
    replaces = [r for r in trace.records if r.get("action") == "replace"]
    assert [(r.get("instances"), r.get("replaced")) for r in replaces] == [
        (live.instance_id, old.instance_id)
    ]
    assert [r for r in trace.records if r.tag == "ERROR"] == []


def test_partly_failed_connection_teardown_completes_on_retry(rig):
    store, sim, trace, _, connection_op = rig
    config = (
        ConfigItem("src", "V0"),
        ConfigItem("dst", "E"),
        ConfigItem("forward-topic", "/V0/ego"),
    )
    write_demand(store, CONN, "conn-V0-E", config=config)
    connection_op.run_pending()
    pair = tuple(i.instance_id for i in instances_of(sim, "conn-V0-E"))
    # the first half goes, the second half fails once
    failing(sim, "terminate_instance", {2})
    write_demand(
        store, CONN, "conn-V0-E", action=DeltaAction.RELEASE, config=config
    )
    connection_op.run_pending()
    assert sim.instances() == ()
    assert not store.exists(CONN, "conn-V0-E")
    terminates = [r for r in trace.records if r.get("action") == "terminate"]
    assert len(terminates) == 1
    assert set(terminates[0].get("instances").split(",")) == set(pair)
    assert [r for r in trace.records if r.tag == "ERROR"] == []


def test_given_up_release_is_finished_by_the_next_drain(rig):
    store, sim, trace, service_op, _ = rig
    config = svc_config((in_topic("/V0/ego"),))
    write_demand(store, SVC, "svc-x", config=config)
    service_op.run_pending()
    failing(sim, "terminate_instance", set(range(1, MAX_ATTEMPTS + 1)))
    write_demand(store, SVC, "svc-x", action=DeltaAction.RELEASE, config=config)
    service_op.run_pending()
    # the give-up keeps both the instance and the emptied spec
    assert len(instances_of(sim, "svc-x")) == 1
    assert store.get_spec(SVC, "svc-x").is_empty()
    service_op.run_pending()
    assert sim.instances() == ()
    assert not store.exists(SVC, "svc-x")
    errors = [r.get("kind") for r in trace.records if r.tag == "ERROR"]
    assert errors == ["reconcile-failed"]


def test_a_failed_teardown_traces_its_terminate_once_before_giving_up(rig):
    store, sim, trace, _, connection_op = rig
    config = (
        ConfigItem("src", "V0"),
        ConfigItem("dst", "E"),
        ConfigItem("forward-topic", "/V0/ego"),
    )
    write_demand(store, CONN, "conn-V0-E", config=config)
    connection_op.run_pending()
    sender, receiver = store.get_cr(CONN, "conn-V0-E").status.instance_ids
    # the sender goes, then every attempt fails to end the receiver
    failing(sim, "terminate_instance", set(range(2, MAX_ATTEMPTS + 2)))
    terminated = []
    real = sim.terminate_instance
    sim.terminate_instance = lambda unit: terminated.append(unit) or real(unit)
    write_demand(
        store, CONN, "conn-V0-E", action=DeltaAction.RELEASE, config=config
    )
    connection_op.run_pending()
    # the step traces its terminate as it begins, once, then gives up
    traced = [
        (r.tag, r.get("action") or r.get("kind"))
        for r in trace.records if r.tag in ("ACTION", "ERROR")
    ]
    assert traced == [
        ("ACTION", "deploy"), ("ACTION", "terminate"), ("ERROR", "reconcile-failed")
    ]
    seen = len(trace.records)
    # the next pass's retry ends the receiver alone, with no further ACTION
    connection_op.run_pending()
    assert sim.instances() == ()
    assert not store.exists(CONN, "conn-V0-E")
    assert terminated == [sender] + [receiver] * (MAX_ATTEMPTS + 1)
    assert [r.tag for r in trace.records][seen:] == ["LEDGER"]


def test_external_delete_tears_down_like_a_shutdown(rig):
    store, sim, trace, service_op, connection_op = rig
    write_demand(store, SVC, "svc-x", config=svc_config())
    write_demand(
        store, CONN, "conn-V0-E",
        config=(
            ConfigItem("src", "V0"),
            ConfigItem("dst", "E"),
            ConfigItem("forward-topic", "/V0/ego"),
        ),
    )
    service_op.run_pending()
    connection_op.run_pending()
    assert len(sim.instances()) == 3
    store.delete_cr(SVC, "svc-x")
    store.delete_cr(CONN, "conn-V0-E")
    service_op.run_pending()
    connection_op.run_pending()
    assert sim.instances() == ()
    assert service_op.records() == ()
    assert connection_op.records() == ()
    terminates = [r for r in trace.records if r.get("action") == "terminate"]
    assert sorted(r.get("cr") for r in terminates) == ["conn-V0-E", "svc-x"]
    assert [r for r in trace.records if r.tag == "ERROR"] == []


def conn_config(src):
    return (
        ConfigItem("src", src),
        ConfigItem("dst", "E"),
        ConfigItem("forward-topic", f"/{src}/ego"),
    )


def test_units_of_a_resource_deleted_while_its_operator_is_down_are_ended(rig):
    store, sim, trace, service_op, connection_op = rig
    write_demand(store, SVC, "svc-x", config=svc_config())
    write_demand(store, CONN, "conn-V0-E", config=conn_config("V0"))
    write_demand(store, SVC, "svc-y", config=svc_config())
    write_demand(store, CONN, "conn-V1-E", config=conn_config("V1"))
    service_op.run_pending()
    connection_op.run_pending()
    kept = {n: sim.owned(n) for n in ("svc-y", "conn-V1-E")}
    assert sim.owned("svc-x") == ("i-0001",)
    # both operators are down while a resource of each kind is deleted
    service_op.stop()
    connection_op.stop()
    store.delete_cr(SVC, "svc-x")
    store.delete_cr(CONN, "conn-V0-E")
    seen = len(trace.records)
    # fresh operators' watches list the deleted resources' finalizers of
    # their kind, and leave the other kind's and the live ones alone
    fresh = Operator(SVC, store, sim, trace), Operator(CONN, store, sim, trace)
    assert [operator.run_pending() for operator in fresh] == [2, 2]
    assert sim.owners() == ("svc-y", "conn-V1-E")
    assert {n: sim.owned(n) for n in kept} == kept
    assert all(operator.records() == (n,) for operator, n in zip(fresh, kept))
    # each finalizer's units end as on a shutdown, traced alike; the live
    # resources' statuses are current, so they trace nothing
    traced = [
        (r.tag, r.get("cr"), r.get("action")) for r in trace.records
    ][seen:]
    assert traced == [
        ("ACTION", "svc-x", "terminate"), ("LEDGER", "svc-x", ""),
        ("ACTION", "conn-V0-E", "terminate"), ("LEDGER", "conn-V0-E", ""),
    ]


def restart_over_a_changed_spec(rig, failed_reconfigures):
    """Reconcile svc-x, stop the operator, write generation 2 and start a
    fresh operator whose listed reconfigure calls fail; returns it."""
    store, sim, trace, service_op, _ = rig
    write_demand(
        store, SVC, "svc-x",
        requesters=("V0",), config=svc_config((in_topic("/V0/ego"),)),
    )
    service_op.run_pending()
    service_op.stop()
    write_demand(
        store, SVC, "svc-x",
        requesters=("V1",), config=svc_config((in_topic("/V1/ego"),)),
    )
    failing(sim, "reconfigure_instance", failed_reconfigures)
    return Operator(SVC, store, sim, trace)


@pytest.mark.parametrize("restart", [False, True])
def test_a_resource_recreated_while_its_operator_is_down_keeps_its_unit(
    rig, restart
):
    # The deleted life's finalizer holds its unit, and the re-created
    # resource inherits it, so a fresh operator traces what a live one
    # does: the one deploy, then a LEDGER line for the new life.
    store, sim, trace, service_op, _ = rig
    write_demand(store, SVC, "svc-x", config=svc_config())
    service_op.run_pending()
    if restart:
        service_op.stop()
    store.delete_cr(SVC, "svc-x")
    write_demand(store, SVC, "svc-x", config=svc_config())
    if restart:
        service_op = Operator(SVC, store, sim, trace)
    service_op.run_pending()
    assert sim.owned("svc-x") == ("i-0001",)
    assert [(r.tag, r.get("action"), r.get("instances")) for r in trace.records] == [
        ("ACTION", "deploy", "i-0001"), ("LEDGER", "", ""), ("LEDGER", "", "")
    ]
    status = store.get_cr(SVC, "svc-x").status
    assert (status.phase, status.instance_ids, status.observed_generation) == (
        Phase.RUNNING, ("i-0001",), 1
    )
    assert service_op.records() == ("svc-x",)


def test_a_restarted_operator_survives_its_first_failed_reconcile(rig):
    # The fresh operator reads the status the last one wrote; a failed
    # attempt must not write generation 0 over it.
    store, sim, trace, _, _ = rig
    fresh = restart_over_a_changed_spec(rig, {1})
    assert fresh.run_pending() == 1
    status = store.get_cr(SVC, "svc-x").status
    assert status.phase is Phase.RUNNING
    assert status.observed_generation == 2
    assert status.support == ("V0", "V1")
    (unit,) = instances_of(sim, "svc-x")
    assert status.instance_ids == (unit.instance_id,)
    assert set(unit.input_topics) == {"/V0/ego", "/V1/ego"}
    assert [r for r in trace.records if r.tag == "ERROR"] == []


def test_a_restarted_operator_that_gives_up_keeps_the_stored_status(rig):
    store, sim, trace, _, _ = rig
    fresh = restart_over_a_changed_spec(rig, set(range(1, MAX_ATTEMPTS + 1)))
    fresh.run_pending()
    status = store.get_cr(SVC, "svc-x").status
    assert status.phase is Phase.PENDING
    assert status.support == ("V0",)
    assert status.observed_generation == 1
    assert status.instance_ids == (instances_of(sim, "svc-x")[0].instance_id,)
    errors = [r.get("detail") for r in trace.records if r.tag == "ERROR"]
    assert errors == ["svc-x@2:NothingRunningError"]


def test_failed_rollback_of_a_half_deployed_pair_is_finished_later(rig):
    store, sim, trace, _, connection_op = rig
    config = (
        ConfigItem("src", "V0"),
        ConfigItem("dst", "E"),
        ConfigItem("forward-topic", "/V0/ego"),
    )
    # the sender fails to start after its receiver did, and the terminate
    # that rolls the receiver back fails too
    failing(sim, "deploy_instance", {2})
    failing(sim, "terminate_instance", {1})
    write_demand(store, CONN, "conn-V0-E", config=config)
    connection_op.run_pending()
    pair = store.get_cr(CONN, "conn-V0-E").status.instance_ids
    assert {i.instance_id for i in sim.instances()} == set(pair)
    write_demand(
        store, CONN, "conn-V0-E", action=DeltaAction.RELEASE, config=config
    )
    connection_op.run_pending()
    assert sim.instances() == ()
    assert not store.exists(CONN, "conn-V0-E")
    # the stray receiver ends untraced, like a rollback that succeeds
    actions = [r for r in trace.records if r.tag == "ACTION"]
    assert [(r.get("action"), r.get("instances")) for r in actions] == [
        ("deploy", ",".join(pair)),
        ("terminate", ",".join(pair)),
    ]
    assert [r for r in trace.records if r.tag == "ERROR"] == []


@pytest.mark.parametrize("restart", [False, True])
def test_a_stray_of_a_resource_deleted_before_its_retry_is_ended(rig, restart):
    # Every attempt starts the receiver, fails to start the sender and
    # fails to roll the receiver back, so the status lists no units while
    # a stray runs.  The deleted resource's finalizer still queues its
    # name, for the live operator and for a fresh one alike.
    store, sim, trace, _, connection_op = rig
    failing(sim, "deploy_instance", {2, 4, 6})
    failing(sim, "terminate_instance", {1, 2, 3})
    write_demand(store, CONN, "conn-V0-E", config=conn_config("V0"))
    connection_op.run_pending()
    assert store.get_cr(CONN, "conn-V0-E").status.instance_ids == ()
    assert len(sim.instances()) == 1
    if restart:
        connection_op.stop()
    store.delete_cr(CONN, "conn-V0-E")
    if restart:
        connection_op = Operator(CONN, store, sim, trace)
    connection_op.run_pending()
    assert sim.instances() == ()
    assert store.find(CONN, "conn-V0-E") is None
    assert [r.tag for r in trace.records] == ["ERROR", "LEDGER"]


def test_failed_teardown_of_a_deleted_resource_is_retried(rig):
    store, sim, trace, service_op, _ = rig
    write_demand(store, SVC, "svc-x", config=svc_config())
    write_demand(store, SVC, "svc-x", requesters=("V1", "S"))
    service_op.run_pending()
    assert store.get_cr(SVC, "svc-x").status.observed_generation == 2
    # generation 3 is written and deleted before the operator reads it
    write_demand(store, SVC, "svc-x", requesters=("V2", "S"))
    failing(sim, "terminate_instance", set(range(1, MAX_ATTEMPTS + 1)))
    store.delete_cr(SVC, "svc-x")
    service_op.run_pending()
    # every attempt of this pass failed: the unit is kept, the name parked
    assert len(instances_of(sim, "svc-x")) == 1
    errors = [r.get("kind") for r in trace.records if r.tag == "ERROR"]
    assert errors == ["reconcile-failed"]
    # the give-up names the last generation the operator read
    assert trace.records[-1].get("detail") == "svc-x@2:NothingRunningError"
    # the resource is gone, and its finalizer's retry still tears down
    service_op.run_pending()
    assert sim.instances() == ()
    assert service_op.records() == ()
    errors = [r.get("kind") for r in trace.records if r.tag == "ERROR"]
    assert errors == ["reconcile-failed"]


def test_resource_recreated_during_a_failed_teardown_starts_afresh(rig):
    store, sim, trace, service_op, _ = rig
    write_demand(store, SVC, "svc-x", config=svc_config(), version="v1")
    service_op.run_pending()
    (old,) = instances_of(sim, "svc-x")
    failing(sim, "terminate_instance", set(range(1, MAX_ATTEMPTS + 1)))
    store.delete_cr(SVC, "svc-x")
    service_op.run_pending()
    write_demand(store, SVC, "svc-x", config=svc_config(), version="v2")
    service_op.run_pending()
    # the old unit goes before the new resource's own one starts
    (live,) = instances_of(sim, "svc-x")
    assert live.version == "v2"
    status = store.get_cr(SVC, "svc-x").status
    assert status.phase is Phase.RUNNING
    assert status.instance_ids == (live.instance_id,)
    assert status.observed_generation == 1
    actions = [r for r in trace.records if r.tag == "ACTION"]
    assert [(r.get("action"), r.get("instances")) for r in actions][1:] == [
        ("terminate", old.instance_id),
        ("deploy", live.instance_id),
    ]


def test_a_retry_of_a_deleted_life_leaves_the_recreated_one_alone(rig):
    store, sim, trace, service_op, _ = rig
    write_demand(store, SVC, "svc-x", config=svc_config())
    service_op.run_pending()
    (unit,) = instances_of(sim, "svc-x")
    # generation 2 fails to reconfigure and is parked; then the resource
    # is deleted and created again, a new life at generation 1
    failing(sim, "reconfigure_instance", set(range(1, MAX_ATTEMPTS + 1)))
    wanted = svc_config((in_topic("/V0/ego"),))
    write_demand(store, SVC, "svc-x", config=wanted)
    service_op.run_pending()
    errors = [r.get("detail") for r in trace.records if r.tag == "ERROR"]
    assert errors == ["svc-x@2:NothingRunningError"]
    store.delete_cr(SVC, "svc-x")
    write_demand(store, SVC, "svc-x", config=wanted)
    # the parked name's retry reads the new life
    service_op.run_pending()
    # the new life adopts the old unit and is observed at its own generation
    (live,) = instances_of(sim, "svc-x")
    assert live.instance_id == unit.instance_id
    assert set(live.config) == set(wanted)
    status = store.get_cr(SVC, "svc-x").status
    assert status.phase is Phase.RUNNING
    assert status.observed_generation == 1
    assert status.instance_ids == (unit.instance_id,)
    assert [r.get("detail") for r in trace.records if r.tag == "ERROR"] == errors
    # the queued names find the new life observed
    ledgers = [r for r in trace.records if r.tag == "LEDGER"]
    assert [r.get("support") for r in ledgers] == ["V0,S", "V0,S"]


def test_a_failed_retry_after_a_recreate_still_reconciles_the_new_life(rig):
    store, sim, trace, service_op, _ = rig
    write_demand(store, SVC, "svc-x", config=svc_config(), version="v1")
    service_op.run_pending()
    failing(sim, "terminate_instance", set(range(1, MAX_ATTEMPTS + 1)))
    store.delete_cr(SVC, "svc-x")
    service_op.run_pending()
    # the name is parked when the new life is created, so the next pass
    # runs it first, and only there, and the new life's first deploy
    # fails once
    write_demand(store, SVC, "svc-x", config=svc_config(), version="v2")
    failing(sim, "deploy_instance", {1})
    assert service_op.run_pending() == 1
    assert service_op.pending() == 0
    errors = [r.get("kind") for r in trace.records if r.tag == "ERROR"]
    assert errors == ["reconcile-failed"]  # the deleted life's give-up only
    (live,) = instances_of(sim, "svc-x")
    assert live.version == "v2"
    status = store.get_cr(SVC, "svc-x").status
    assert status.phase is Phase.RUNNING
    assert status.observed_generation == 1
    assert status.instance_ids == (live.instance_id,)
