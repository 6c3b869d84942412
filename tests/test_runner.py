"""End-to-end runs: determinism, idempotency, drain behavior, waypoints."""

import hashlib
import random
from collections import Counter

import pytest
import yaml

from demandflow.cli import bundled_scenario_path
from demandflow.detector import EventDetector
from demandflow.manager import AccessDomainPolicy
from demandflow.model import DeltaAction, NonQuiescenceError, OrchestrationError
from demandflow.runner import (
    ScenarioRunner,
    build_system,
    deliver,
    drain,
    run_scenario,
)
from demandflow.scenario import (
    interpolate,
    make_scale_scenario,
    scenario_from_mapping,
)
from demandflow.tracing import TAG_ACTION, TAG_ERROR, TAG_LEDGER, TAG_REQUEST


def records_with(trace, tag):
    return [r for r in trace.records if r.tag == tag]


def system_is_empty(system):
    return (
        not system.sim.instances()
        and system.store.total_resources() == 0
        and not system.service_op.ledgers()
        and not system.connection_op.ledgers()
    )


def test_reference_run_ends_empty(reference_scenario):
    runner = run_scenario(reference_scenario)
    assert system_is_empty(runner.system)
    # every step of the timeline shows up in the trace
    steps = {r.step for r in runner.trace.records}
    assert steps == {1, 2, 3, 4, 5, 6, 7, 8}


def test_runs_are_deterministic(reference_scenario):
    first = run_scenario(reference_scenario).trace.render()
    second = run_scenario(reference_scenario).trace.render()
    assert first == second


def test_duplicate_delivery_changes_nothing_observable(reference_scenario):
    plain = run_scenario(reference_scenario).trace
    doubled = run_scenario(reference_scenario, duplicate_delivery=True).trace
    assert len(records_with(doubled, TAG_REQUEST)) == 2 * len(
        records_with(plain, TAG_REQUEST)
    )
    for tag in (TAG_LEDGER, TAG_ACTION):
        assert records_with(plain, tag) == records_with(doubled, tag)
    assert not records_with(doubled, TAG_ERROR)


def test_enter_then_leave_nets_to_zero():
    raw = yaml.safe_load(
        bundled_scenario_path("collective_perception").read_text()
    )
    raw["timeline"]["events"] = [
        {"step": 1, "enter": "V0"},
        {"step": 2, "leave": "V0"},
    ]
    scenario = scenario_from_mapping(raw)
    runner = run_scenario(scenario)
    assert system_is_empty(runner.system)
    actions = [
        (r.get("action"), r.get("cr")) for r in records_with(runner.trace, TAG_ACTION)
    ]
    deploys = [cr for action, cr in actions if action == "deploy"]
    terminates = [cr for action, cr in actions if action == "terminate"]
    assert sorted(deploys) == sorted(terminates)


def test_empty_timeline_produces_no_records():
    raw = yaml.safe_load(
        bundled_scenario_path("collective_perception").read_text()
    )
    raw["timeline"]["events"] = []
    raw["tick_budget"] = 5
    runner = run_scenario(scenario_from_mapping(raw))
    assert len(runner.trace.records) == 0
    assert system_is_empty(runner.system)


def test_drain_round_limit(reference_scenario):
    system = build_system(reference_scenario)
    system.detector.observe_pose("V0", reference_scenario.rule.center)
    (request,) = system.detector.evaluate(1)
    deliver(system, request)
    with pytest.raises(NonQuiescenceError):
        drain(system, max_rounds=0)


def test_policy_rejection_is_traced_and_leaves_no_state(reference_scenario):
    # node E only admits some other application, so every placement fails
    policy = AccessDomainPolicy({"E": ["telemetry-only"]})
    runner = ScenarioRunner(reference_scenario, policy=policy)
    runner.run()
    errors = records_with(runner.trace, TAG_ERROR)
    assert errors, "every request should be rejected"
    assert all(r.get("kind") == "request-rejected" for r in errors)
    assert "AccessDeniedError" in errors[0].get("detail")
    assert not records_with(runner.trace, TAG_ACTION)
    assert system_is_empty(runner.system)


def test_upgrade_run_replaces_and_then_reconfigures_new_instances(
    upgrade_scenario,
):
    runner = run_scenario(upgrade_scenario)
    actions = records_with(runner.trace, TAG_ACTION)
    replaces = [r for r in actions if r.get("action") == "replace"]
    # one replacement per live service resource, none for connections
    assert sorted(r.get("cr") for r in replaces) == [
        "svc-object-detection-fusion-fusion-singleton",
        "svc-object-detection-fusion-objdet-S",
        "svc-object-detection-fusion-objdet-V0",
    ]
    fusion_replace = next(
        r
        for r in replaces
        if r.get("cr") == "svc-object-detection-fusion-fusion-singleton"
    )
    new_fusion = fusion_replace.values("instances")[0]
    old_fusion = fusion_replace.get("replaced")
    assert old_fusion and old_fusion != new_fusion
    # reconfigurations after the upgrade target the replacement instance
    later_reconfigs = [
        r
        for r in actions
        if r.get("action") == "reconfigure"
        and r.get("cr") == "svc-object-detection-fusion-fusion-singleton"
        and actions.index(r) > actions.index(fusion_replace)
    ]
    assert later_reconfigs
    assert all(
        r.values("instances") == (new_fusion,) for r in later_reconfigs
    )
    assert system_is_empty(runner.system)


@pytest.mark.xfail(
    strict=True,
    reason="a give-up drops the folded release; ROADMAP open item 1",
)
def test_failed_terminates_still_empty_the_system(reference_scenario):
    # Terminate calls 3-5 fail: the release of conn-V0-E gives up at
    # tick 13, and conn-V0-E with its receiver stays live to the end.
    runner = ScenarioRunner(reference_scenario)
    sim = runner.system.sim
    real = sim.terminate_instance
    calls = []

    def terminate(instance_id):
        calls.append(instance_id)
        if len(calls) in (3, 4, 5):
            raise OrchestrationError("injected terminate failure")
        real(instance_id)

    sim.terminate_instance = terminate
    runner.run()
    assert system_is_empty(runner.system)


def test_waypoint_run_matches_interpolation_oracle(waypoint_scenario):
    runner = run_scenario(waypoint_scenario)
    system = runner.system

    # independent replay: sample the same trajectories through a fresh
    # detector and compare emitted request ticks and actions
    oracle = EventDetector(waypoint_scenario.rule, system.topology)
    expected = []
    for tick in range(1, waypoint_scenario.tick_budget + 1):
        for vid, route in waypoint_scenario.timeline.waypoints.items():
            oracle.observe_pose(vid, interpolate(route, tick))
        for request in oracle.evaluate(tick):
            expected.append((tick, request.action, request.requesters[0]))

    seen = [
        (r.tick, DeltaAction(r.get("action")), r.values("requesters")[0])
        for r in records_with(runner.trace, TAG_REQUEST)
    ]
    assert seen == expected
    assert [t for t, _, _ in expected] == [25, 35, 58, 68]
    assert system_is_empty(runner.system)


def test_waypoint_topics_recorded_only_on_change(waypoint_scenario):
    runner = run_scenario(waypoint_scenario)
    per_node = {}
    for record in runner.trace.records:
        if record.tag != "TOPICS":
            continue
        node = record.get("node")
        topics = record.get("topics")
        assert per_node.get(node) != topics, (
            f"unchanged snapshot for {node} at tick {record.tick}"
        )
        per_node[node] = topics


def test_scripted_and_waypoint_runs_share_the_tick_body(reference_scenario):
    # the reference run must keep publishing source data every tick:
    # at any window end inside the run, V-entities' own ego topics are
    # visible at their own nodes
    runner = run_scenario(reference_scenario)
    topics_records = [
        r for r in runner.trace.records if r.tag == "TOPICS" and r.get("node") == "V1"
    ]
    assert topics_records
    assert all(
        "/V1/ego" in (r.get("topics") or "") for r in topics_records
    )


# Digests of make_scale_scenario(30) rendered before the data plane was
# rewritten; many live connections exercise forwarding order far more
# than the bundled scenarios do.
SCALE_30_DIGESTS = {
    False: ("9a3fb584919b7f924c92765c3bb1a68823673dc6368e57516fa138bfc37f6631", 2644),
    True: ("4bde63143f09eb3f1c749468ebec10c0076e0a67ef1fac84ee763d570d2000da", 2944),
}


@pytest.mark.parametrize("duplicate_delivery", [False, True])
def test_scale_run_trace_is_frozen(duplicate_delivery):
    runner = run_scenario(
        make_scale_scenario(30), duplicate_delivery=duplicate_delivery
    )
    text = runner.trace.render()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert (digest, text.count("\n")) == SCALE_30_DIGESTS[duplicate_delivery]


def churn_mapping():
    """A 120-step enter/leave walk of six vehicles, two of them lidar-carrying.

    Every step is a demand change and there is no settle window, so each
    tick reconciles; every 20 steps the application is rolled to the other
    version while something is live.
    """
    raw = yaml.safe_load(
        bundled_scenario_path("collective_perception_upgrade").read_text()
    )
    vehicles = [f"W{i}" for i in range(6)]
    raw["entities"] = [
        {
            "id": v,
            "role": "cv",
            "capabilities": ["ego", "pointcloud"] if i < 2 else ["ego"],
        }
        for i, v in enumerate(vehicles)
    ] + [e for e in raw["entities"] if e["role"] != "cv"]
    rng = random.Random(6)
    live, events, version = set(), [], 0
    for index in range(120):
        if index and index % 20 == 0 and live:
            version ^= 1
            events.append({
                "step": len(events) + 1,
                "upgrade": {
                    "application": "object-detection-fusion",
                    "version": ("v1", "v2")[version],
                },
            })
        vehicle = rng.choice(vehicles)
        kind = "leave" if vehicle in live else "enter"
        live ^= {vehicle}
        events.append({"step": len(events) + 1, kind: vehicle})
    for vehicle in sorted(live):
        events.append({"step": len(events) + 1, "leave": vehicle})
    raw["timeline"] = {"mode": "scripted", "settle_ticks": 0, "events": events}
    return raw


# Digests of the churn walk above, rendered before resolution was memoized
# and the ledger fold lost its Counter; repeated identical demands and a
# reconcile on every tick exercise the control plane far more than the
# bundled scenarios do.
CHURN_DIGESTS = {
    False: ("21fa79e3bc1f466bf63c141e448d7a2800adb69babbad35592fcbfe5c33d4980", 2703),
    True: ("325424bf0f1070754e2201f9562d1a1c01a277ba7f7c05c4d70bada5b74e8416", 3361),
}


@pytest.mark.parametrize("duplicate_delivery", [False, True])
def test_churn_run_trace_is_frozen(duplicate_delivery):
    runner = run_scenario(
        scenario_from_mapping(churn_mapping()),
        duplicate_delivery=duplicate_delivery,
    )
    text = runner.trace.render()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert (digest, text.count("\n")) == CHURN_DIGESTS[duplicate_delivery]
    actions = {r.get("action") for r in records_with(runner.trace, TAG_ACTION)}
    assert actions == {"deploy", "reconfigure", "replace", "terminate"}
    assert not records_with(runner.trace, TAG_ERROR)
    assert system_is_empty(runner.system)


# make_scale_scenario(400) rendered before the cluster kept its route plan
# and reused its buses; at this size the buses of hundreds of live nodes
# carry most of the run's messages.
SCALE_400_DIGEST = (
    "bb9ea4836eedf26087b8835363da593e15ca71305c28f52f7155444b0183d82f", 331204
)


@pytest.mark.slow
def test_large_scale_run_ends_empty():
    n = 400
    runner = run_scenario(make_scale_scenario(n))
    text = runner.trace.render()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert (digest, text.count("\n")) == SCALE_400_DIGEST
    app = "object-detection-fusion"
    actions = Counter(
        (r.get("cr"), r.get("action"))
        for r in records_with(runner.trace, TAG_ACTION)
    )
    fusion = f"svc-{app}-fusion-singleton"
    assert {a: c for (cr, a), c in actions.items() if cr == fusion} == {
        "deploy": 1, "reconfigure": 2 * (n - 1), "terminate": 1,
    }
    for cr in (f"svc-{app}-objdet-S", "conn-S-E"):
        assert actions[cr, "deploy"] == 1, cr
        assert actions[cr, "terminate"] == 1, cr
    assert system_is_empty(runner.system)
