"""Ledger arithmetic, reconcile decisions, and operator behavior."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from demandflow.cluster import ClusterSim, ServiceInstance
from demandflow.model import (
    ConfigItem,
    DeltaAction,
    EntityRole,
    NothingRunningError,
    Phase,
    ResourceKind,
    ServiceKind,
)
from demandflow.operators import (
    ConnectionOperator,
    DecisionAction,
    DemandLedger,
    LedgerRejection,
    MAX_ATTEMPTS,
    ServiceOperator,
    apply_demand,
    decide,
)
from demandflow.store import DemandDelta, ResourceStore
from demandflow.tracing import Trace

SVC = ResourceKind.MANAGED_SERVICE
CONN = ResourceKind.MANAGED_CONNECTION


def delta(
    action=DeltaAction.REQUEST,
    requesters=("V0", "S"),
    config=(),
    version="",
):
    return DemandDelta(
        action=action,
        requesters=tuple(requesters),
        config_items=tuple(config),
        app_version=version,
    )


def in_topic(value):
    return ConfigItem("input-topic", value)


BASE = (ConfigItem("node", "E"), ConfigItem("service-kind", "object-fusion"))


# -- apply_demand ----------------------------------------------------------


def test_request_counts_requesters_and_config():
    ledger, rejection = apply_demand(
        DemandLedger(),
        delta(config=BASE + (in_topic("/V0/ego"),), version="v1"),
    )
    assert rejection is None
    assert ledger.requester_counts == {"V0": 1, "S": 1}
    assert ledger.config_counts == {in_topic("/V0/ego"): 1}
    assert ledger.base_config == BASE
    assert ledger.version == "v1"
    assert ledger.support == ("V0", "S")
    assert ledger.effective_config == BASE + (in_topic("/V0/ego"),)


def test_shared_keys_accumulate_counts():
    ledger = DemandLedger()
    for vehicle in ["V0", "V1", "V2", "V3"]:
        ledger, _ = apply_demand(ledger, delta(requesters=(vehicle, "S")))
    assert ledger.requester_counts == {
        "V0": 1, "S": 4, "V1": 1, "V2": 1, "V3": 1,
    }
    assert ledger.support == ("V0", "S", "V1", "V2", "V3")


def test_release_drops_only_exhausted_keys():
    # the crux of counted bookkeeping: a shared requester with remaining
    # references must survive a release that names it
    ledger = DemandLedger()
    for vehicle in ["V0", "V1", "V2", "V3"]:
        ledger, _ = apply_demand(ledger, delta(requesters=(vehicle, "S")))
    ledger, rejection = apply_demand(
        ledger, delta(action=DeltaAction.RELEASE, requesters=("V0", "S"))
    )
    assert rejection is None
    assert ledger.requester_counts == {"S": 3, "V1": 1, "V2": 1, "V3": 1}
    assert ledger.support == ("S", "V1", "V2", "V3")


def test_release_unknown_requester_is_atomic():
    ledger, _ = apply_demand(DemandLedger(), delta(requesters=("A",)))
    after, rejection = apply_demand(
        ledger, delta(action=DeltaAction.RELEASE, requesters=("A", "B"))
    )
    assert rejection is not None
    assert rejection.kind == "unknown-requester-release"
    assert rejection.detail == "B"
    # nothing was decremented, not even the valid half
    assert after == ledger
    assert after.requester_counts == {"A": 1}


def test_release_counts_each_key_over_the_whole_delta():
    # "A" is named twice but held once, so the release underflows on "A"
    # even though "B" comes before its second appearance
    ledger, _ = apply_demand(DemandLedger(), delta(requesters=("A",)))
    after, rejection = apply_demand(
        ledger,
        delta(action=DeltaAction.RELEASE, requesters=("A", "B", "A")),
    )
    assert rejection == LedgerRejection("unknown-requester-release", "A")
    assert after == ledger
    assert after.requester_counts == {"A": 1}


def test_release_unknown_config_is_atomic():
    ledger, _ = apply_demand(
        DemandLedger(), delta(config=(in_topic("/a"),))
    )
    after, rejection = apply_demand(
        ledger,
        delta(
            action=DeltaAction.RELEASE,
            config=(in_topic("/a"), in_topic("/b")),
        ),
    )
    assert rejection is not None
    assert rejection.kind == "unknown-config-release"
    assert rejection.detail == "input-topic:/b"
    assert after == ledger


def test_version_only_delta_touches_only_the_version():
    ledger, _ = apply_demand(
        DemandLedger(), delta(config=BASE, version="v1")
    )
    after, rejection = apply_demand(
        ledger, delta(requesters=(), version="v2")
    )
    assert rejection is None
    assert after.version == "v2"
    assert after.requester_counts == ledger.requester_counts
    assert after.config_counts == ledger.config_counts
    assert after.base_config == ledger.base_config


def test_release_leaves_version_and_base_alone():
    ledger, _ = apply_demand(
        DemandLedger(), delta(config=BASE + (in_topic("/a"),), version="v1")
    )
    after, rejection = apply_demand(
        ledger,
        delta(
            action=DeltaAction.RELEASE,
            config=(ConfigItem("node", "X"), in_topic("/a")),
            version="v2",
        ),
    )
    assert rejection is None
    assert after.version == "v1"
    assert after.base_config == BASE
    assert after.config_counts == {}


def test_base_config_is_adopted_once():
    ledger, _ = apply_demand(DemandLedger(), delta(config=BASE))
    other_base = (ConfigItem("node", "X"),)
    ledger, _ = apply_demand(ledger, delta(config=other_base))
    assert ledger.base_config == BASE


def test_request_release_round_trip_counts_to_zero():
    config = BASE + (in_topic("/V0/ego"), in_topic("/S/points"))
    ledger, _ = apply_demand(DemandLedger(), delta(config=config))
    ledger, rejection = apply_demand(
        ledger, delta(action=DeltaAction.RELEASE, config=config)
    )
    assert rejection is None
    assert ledger.is_empty()
    assert ledger.requester_counts == {}
    assert ledger.config_counts == {}


# A release only ever succeeds wholesale; on rejection the ledger object
# that comes back must be the untouched input.

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
        ledger, rejection = apply_demand(ledger, delta(requesters=requesters))
        assert rejection is None
    before = ledger
    after, rejection = apply_demand(
        ledger, delta(action=DeltaAction.RELEASE, requesters=attempt)
    )
    available = Counter()
    for requesters in setup:
        available.update(requesters)
    feasible = not (Counter(attempt) - available)
    if feasible:
        assert rejection is None
        expected = available - Counter(attempt)
        assert Counter(after.requester_counts) == expected
    else:
        assert rejection is not None
        assert after == before


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
    ledger, _ = apply_demand(
        DemandLedger(),
        delta(requesters=requesters, config=config, version=version),
    )
    return ledger


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


# -- operators against store + cluster ------------------------------------


@pytest.fixture
def rig():
    store = ResourceStore()
    sim = ClusterSim()
    for node in ("E", "S", "V0", "V1"):
        sim.add_node(node)
    trace = Trace()
    service_op = ServiceOperator(store, sim, trace)
    connection_op = ConnectionOperator(store, sim, trace)
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
    store.apply_cr(
        SVC, "svc-x",
        delta(config=svc_config((in_topic("/V0/ego"),)), version="v1"),
    )
    assert service_op.run_pending() == 1
    instances = sim.instances_of("svc-x")
    assert len(instances) == 1
    assert instances[0].node_id == "E"
    assert instances[0].version == "v1"
    status = store.get_cr(SVC, "svc-x").status
    assert status.phase is Phase.RUNNING
    assert status.support == ("V0", "S")
    assert status.observed_generation == 1
    assert status.instance_ids == (instances[0].instance_id,)


def test_growing_support_does_not_redeploy(rig):
    store, sim, _, service_op, _ = rig
    store.apply_cr(SVC, "svc-x", delta(config=svc_config()))
    service_op.run_pending()
    first = sim.instances_of("svc-x")[0]
    store.apply_cr(
        SVC, "svc-x", delta(requesters=("V1", "S"), config=svc_config())
    )
    service_op.run_pending()
    after = sim.instances_of("svc-x")[0]
    assert after.instance_id == first.instance_id
    assert after.restart_count == 0
    assert after.config_version == 0
    assert store.get_cr(SVC, "svc-x").status.support == ("V0", "S", "V1")


def test_config_change_reconfigures_in_place(rig):
    store, sim, _, service_op, _ = rig
    store.apply_cr(
        SVC, "svc-x", delta(config=svc_config((in_topic("/V0/ego"),)))
    )
    service_op.run_pending()
    store.apply_cr(
        SVC, "svc-x",
        delta(requesters=("V1", "S"),
              config=svc_config((in_topic("/V1/ego"),))),
    )
    service_op.run_pending()
    instance = sim.instances_of("svc-x")[0]
    assert instance.config_version == 1
    assert instance.restart_count == 0
    assert set(instance.input_topics) == {"/V0/ego", "/V1/ego"}


def test_emptied_support_terminates_and_deletes(rig):
    store, sim, _, service_op, _ = rig
    config = svc_config((in_topic("/V0/ego"),))
    store.apply_cr(SVC, "svc-x", delta(config=config))
    service_op.run_pending()
    store.apply_cr(
        SVC, "svc-x",
        delta(action=DeltaAction.RELEASE, config=config),
    )
    service_op.run_pending()
    assert sim.instances_of("svc-x") == ()
    assert not store.exists(SVC, "svc-x")
    assert service_op.ledger("svc-x") is None


def test_batched_events_apply_every_generation_once(rig):
    store, sim, _, service_op, _ = rig
    # three deltas queue up before the operator runs at all
    store.apply_cr(SVC, "svc-x", delta(config=svc_config()))
    store.apply_cr(SVC, "svc-x", delta(requesters=("V1", "S")))
    store.apply_cr(SVC, "svc-x", delta(requesters=("V0", "S")))
    service_op.run_pending()
    ledger = service_op.ledger("svc-x")
    assert ledger.requester_counts == {"V0": 2, "S": 3, "V1": 1}
    assert len(sim.instances_of("svc-x")) == 1


def test_late_operator_replays_history(rig):
    store, sim, trace, _, _ = rig
    store.apply_cr(SVC, "svc-x", delta(config=svc_config()))
    store.apply_cr(SVC, "svc-x", delta(requesters=("V1", "S")))
    late = ServiceOperator(store, sim, trace)
    late.run_pending()
    assert late.ledger("svc-x").requester_counts == {"V0": 1, "S": 2, "V1": 1}


def test_stale_events_are_ignored(rig):
    store, sim, _, service_op, _ = rig
    store.apply_cr(SVC, "svc-x", delta(config=svc_config()))
    service_op.run_pending()
    watcher_event = store.event_log[0]
    before = service_op.ledger("svc-x")
    service_op.reconcile(watcher_event)  # replayed duplicate
    assert service_op.ledger("svc-x") == before
    assert len(sim.instances_of("svc-x")) == 1


def test_underflow_release_is_traced_and_skipped(rig):
    store, sim, trace, service_op, _ = rig
    # a release arriving for a resource that never saw the request
    store.apply_cr(
        SVC, "svc-x",
        delta(action=DeltaAction.RELEASE, config=svc_config()),
    )
    service_op.run_pending()
    errors = [r for r in trace.records if r.tag == "ERROR"]
    assert len(errors) == 1
    assert errors[0].get("kind") == "unknown-requester-release"
    # the bogus resource is cleaned up, nothing deployed
    assert not store.exists(SVC, "svc-x")
    assert sim.instances() == ()


def test_connection_pair_deploys_both_halves(rig):
    store, sim, _, _, connection_op = rig
    store.apply_cr(
        CONN, "conn-V0-E",
        delta(
            config=(
                ConfigItem("src", "V0"),
                ConfigItem("dst", "E"),
                ConfigItem("forward-topic", "/V0/ego"),
            ),
        ),
    )
    connection_op.run_pending()
    pair = sim.instances_of("conn-V0-E")
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
    store.apply_cr(
        CONN, "conn-X-E",
        delta(
            config=(
                ConfigItem("src", "X"),
                ConfigItem("dst", "E"),
                ConfigItem("forward-topic", "/X/ego"),
            ),
        ),
    )
    connection_op.run_pending()
    # first failure re-queues; drain the retries
    while connection_op.pending():
        connection_op.run_pending()
    assert sim.instances() == ()
    errors = [r for r in trace.records if r.tag == "ERROR"]
    assert len(errors) == 1
    assert errors[0].get("kind") == "reconcile-failed"
    assert connection_op.pending() == 0


def test_failure_keeps_status_pending_until_giving_up(rig):
    store, sim, _, service_op, _ = rig
    store.apply_cr(
        SVC, "svc-x",
        delta(config=(
            ConfigItem("node", "X"),  # unknown node
            ConfigItem("service-kind", "object-fusion"),
        )),
    )
    service_op.run_pending()
    assert store.get_cr(SVC, "svc-x").status.phase is Phase.PENDING
    assert service_op.pending() == 1  # re-queued for retry


def test_failed_reconfigure_of_a_running_resource_is_pending(rig):
    store, sim, _, service_op, _ = rig
    store.apply_cr(SVC, "svc-x", delta(config=svc_config((in_topic("/V0/ego"),))))
    service_op.run_pending()
    assert store.get_cr(SVC, "svc-x").status.phase is Phase.RUNNING

    def reconfigure(instance_id, config):
        raise NothingRunningError("injected reconfigure failure")

    sim.reconfigure_instance = reconfigure
    store.apply_cr(
        SVC, "svc-x",
        delta(requesters=("V1", "S"), config=svc_config((in_topic("/V1/ego"),))),
    )
    service_op.run_pending()
    status = store.get_cr(SVC, "svc-x").status
    assert status.phase is Phase.PENDING
    assert status.observed_generation == 1
    assert status.support == ("V0", "S")  # the committed ledger
    assert service_op.pending() == 1


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
    store.apply_cr(SVC, "svc-x", delta(config=config))
    service_op.run_pending()
    assert len(deploys) == 1
    # an external delete ends the lifecycle with one attempt spent
    store.delete_cr(SVC, "svc-x")
    service_op.run_pending()
    deploys.clear()

    store.apply_cr(SVC, "svc-x", delta(config=config))
    while service_op.pending():
        service_op.run_pending()
    assert len(deploys) == MAX_ATTEMPTS
    errors = [r for r in trace.records if r.tag == "ERROR"]
    assert [r.get("kind") for r in errors] == ["reconcile-failed"]


def test_observed_generation_never_regresses(rig):
    store, _, _, service_op, _ = rig
    store.apply_cr(SVC, "svc-x", delta(config=svc_config()))
    service_op.run_pending()
    seen = [store.get_cr(SVC, "svc-x").status.observed_generation]
    for _ in range(2, 6):
        store.apply_cr(SVC, "svc-x", delta(requesters=("V1", "S")))
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
    active = []  # deltas requested and not yet released
    for _ in range(rng.randrange(5, 25)):
        if active and rng.random() < 0.45:
            requesters, config = active.pop(rng.randrange(len(active)))
            d = delta(
                action=DeltaAction.RELEASE, requesters=requesters, config=config
            )
        else:
            requesters = rng.sample(entities, rng.randrange(1, 4))
            config = rng.sample(topics, rng.randrange(0, 4))
            active.append((tuple(requesters), tuple(config)))
            d = delta(requesters=requesters, config=config)
        ledger, rejection = apply_demand(ledger, d)
        assert rejection is None

        # the oracle: counts are the plain sum over unreleased deltas
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
    store.apply_cr(SVC, "svc-x", delta(config=config))
    service_op.run_pending()
    # the last supporter leaves and a new one arrives before the drain
    store.apply_cr(
        SVC, "svc-x", delta(action=DeltaAction.RELEASE, config=config)
    )
    store.apply_cr(
        SVC, "svc-x", delta(requesters=("V1", "S"), config=config)
    )
    while service_op.pending():
        service_op.run_pending()
    assert store.exists(SVC, "svc-x")
    assert store.get_cr(SVC, "svc-x").status.support == ("V1", "S")
    assert service_op.ledger("svc-x").support == ("V1", "S")
    assert len(sim.instances_of("svc-x")) == 1
    assert [r for r in trace.records if r.tag == "ERROR"] == []


def failing_terminate(sim, fail_calls):
    """Make the given 1-based calls of `sim.terminate_instance` raise."""
    real = sim.terminate_instance
    calls = []

    def terminate(instance_id):
        calls.append(instance_id)
        if len(calls) in fail_calls:
            raise NothingRunningError("injected terminate failure")
        real(instance_id)

    sim.terminate_instance = terminate
    return calls


def test_replace_retry_reuses_the_new_instance(rig):
    store, sim, trace, service_op, _ = rig
    store.apply_cr(SVC, "svc-x", delta(config=svc_config(), version="v1"))
    service_op.run_pending()
    (old,) = sim.instances_of("svc-x")
    failing_terminate(sim, {1, 2})
    store.apply_cr(
        SVC, "svc-x", delta(requesters=(), config=(), version="v2")
    )
    while service_op.pending():
        service_op.run_pending()
    (live,) = sim.instances_of("svc-x")
    assert live.version == "v2"
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
    store.apply_cr(CONN, "conn-V0-E", delta(config=config))
    connection_op.run_pending()
    pair = tuple(i.instance_id for i in sim.instances_of("conn-V0-E"))
    # the first half goes, the second half fails once
    failing_terminate(sim, {2})
    store.apply_cr(
        CONN, "conn-V0-E", delta(action=DeltaAction.RELEASE, config=config)
    )
    while connection_op.pending():
        connection_op.run_pending()
    assert sim.instances() == ()
    assert not store.exists(CONN, "conn-V0-E")
    terminates = [r for r in trace.records if r.get("action") == "terminate"]
    assert len(terminates) == 1
    assert set(terminates[0].get("instances").split(",")) == set(pair)
    assert [r for r in trace.records if r.tag == "ERROR"] == []


def test_external_delete_tears_down_like_a_shutdown(rig):
    store, sim, trace, service_op, connection_op = rig
    store.apply_cr(SVC, "svc-x", delta(config=svc_config()))
    store.apply_cr(
        CONN, "conn-V0-E",
        delta(config=(
            ConfigItem("src", "V0"),
            ConfigItem("dst", "E"),
            ConfigItem("forward-topic", "/V0/ego"),
        )),
    )
    service_op.run_pending()
    connection_op.run_pending()
    assert len(sim.instances()) == 3
    store.delete_cr(SVC, "svc-x")
    store.delete_cr(CONN, "conn-V0-E")
    service_op.run_pending()
    connection_op.run_pending()
    assert sim.instances() == ()
    assert service_op.ledgers() == {}
    assert connection_op.ledgers() == {}
    terminates = [r for r in trace.records if r.get("action") == "terminate"]
    assert sorted(r.get("cr") for r in terminates) == ["conn-V0-E", "svc-x"]
    assert [r for r in trace.records if r.tag == "ERROR"] == []
