"""End-to-end runs: determinism, idempotency, drain behavior, waypoints."""

import hashlib
import math
import random
from collections import Counter

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from demandflow.cli import bundled_scenario_path
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
    load_scenario,
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


def run_failing(scenario, method, failing):
    """Run `scenario` with the listed calls of the cluster's `method` failing.

    Calls count from 1.  Returns the runner and the number of calls made.
    """
    runner = ScenarioRunner(scenario)
    sim = runner.system.sim
    real = getattr(sim, method)
    calls = 0

    def wrapped(*args):
        nonlocal calls
        calls += 1
        if calls in failing:
            raise OrchestrationError(f"injected {method} failure")
        return real(*args)

    setattr(sim, method, wrapped)
    runner.run()
    return runner, calls


@pytest.mark.xfail(
    strict=True,
    reason="a give-up drops the folded release; ROADMAP open item 1",
)
def test_failed_terminates_still_empty_the_system(reference_scenario):
    # Terminate calls 3-5 fail: the release of conn-V0-E gives up at
    # tick 13, and conn-V0-E with its receiver stays live to the end.
    runner, _ = run_failing(reference_scenario, "terminate_instance", {3, 4, 5})
    assert system_is_empty(runner.system)


@pytest.mark.parametrize(
    "method", ["deploy_instance", "terminate_instance", "reconfigure_instance"]
)
@pytest.mark.parametrize("fixture", ["reference_scenario", "upgrade_scenario"])
def test_any_single_cluster_failure_is_retried_away(request, fixture, method):
    # One failed call costs one retry, well within MAX_ATTEMPTS, so each
    # run still serves and drops all of its demand.
    scenario = request.getfixturevalue(fixture)
    _, calls = run_failing(scenario, method, ())
    assert calls
    for k in range(1, calls + 1):
        runner, _ = run_failing(scenario, method, {k})
        assert system_is_empty(runner.system), f"call {k}"
        errors = records_with(runner.trace, TAG_ERROR)
        assert "reconcile-failed" not in [r.get("kind") for r in errors], f"call {k}"


def hysteresis_oracle(scenario):
    """(tick, action, vehicle) per zone transition, from a full scan.

    Every vehicle's distance is taken on every tick, in id order, with
    the enter and leave thresholds of the scenario's geofence.
    """
    rule = scenario.rule
    routes = scenario.timeline.waypoints
    inside = set()
    transitions = []
    for tick in range(1, scenario.tick_budget + 1):
        for vehicle in sorted(routes):
            distance = math.dist(rule.center, interpolate(routes[vehicle], tick))
            if vehicle not in inside and distance <= rule.d_start:
                inside.add(vehicle)
                transitions.append((tick, DeltaAction.REQUEST, vehicle))
            elif vehicle in inside and distance > rule.d_stop:
                inside.remove(vehicle)
                transitions.append((tick, DeltaAction.RELEASE, vehicle))
    return transitions


def request_transitions(trace):
    return [
        (r.tick, DeltaAction(r.get("action")), r.values("requesters")[0])
        for r in records_with(trace, TAG_REQUEST)
    ]


def test_waypoint_run_matches_interpolation_oracle(waypoint_scenario):
    runner = run_scenario(waypoint_scenario)
    expected = hysteresis_oracle(waypoint_scenario)
    assert request_transitions(runner.trace) == expected
    assert [t for t, _, _ in expected] == [25, 35, 58, 68]
    assert system_is_empty(runner.system)


# Coordinates on the thresholds and in the band, or anywhere near the zone.
coordinates = st.one_of(
    st.sampled_from([0.0, 150.0, 160.0, 170.0, -170.0, 171.0]),
    st.floats(-300.0, 300.0, allow_nan=False),
)
waypoint_routes = st.lists(
    st.tuples(st.integers(1, 12), coordinates, coordinates),
    min_size=1,
    max_size=4,
)


def fuzz_scenario(vehicle_routes):
    """The waypoint scenario with one vehicle per route.

    A route is a list of (ticks since the previous waypoint, x, y); the
    first waypoint's tick is its gap alone.
    """
    raw = yaml.safe_load(bundled_scenario_path("waypoint_drive").read_text())
    vehicles = [f"V{i}" for i in range(len(vehicle_routes))]
    raw["entities"] = [
        {"id": v, "role": "cv", "capabilities": ["ego", "pointcloud"][: 1 + i % 2]}
        for i, v in enumerate(vehicles)
    ] + [e for e in raw["entities"] if e["role"] != "cv"]
    waypoints = {}
    for vehicle, route in zip(vehicles, vehicle_routes):
        t = -1
        waypoints[vehicle] = [
            {"t": (t := t + gap), "x": x, "y": y} for gap, x, y in route
        ]
    raw["timeline"] = {"mode": "waypoints", "waypoints": waypoints}
    raw["tick_budget"] = 40
    return scenario_from_mapping(raw)


@settings(max_examples=60, deadline=None)
@given(st.lists(waypoint_routes, min_size=1, max_size=5))
# one waypoint; the first waypoint after tick 1, inside; ending inside
@example([[(1, 0.0, 0.0)], [(9, 10.0, 0.0), (5, 300.0, 0.0)],
          [(1, 300.0, 0.0), (8, 20.0, 5.0)]])
# dwells in the band on the way in and on the way out
@example([[(1, 300.0, 0.0), (3, 160.0, 0.0), (6, 160.0, 0.0), (2, 0.0, 0.0),
           (2, 160.0, 0.0), (5, 160.0, 0.0), (2, 300.0, 0.0)]])
# ends on d_start from outside, where plain interpolation rounds outward
@example([[(1, -261.0, -100.0), (10, -122.39765766268816, -86.71109155516032)]])
# three vehicles cross each threshold on the same ticks
@example([[(1, 300.0, 0.0), (4, 0.0, 0.0), (4, 300.0, 0.0)]] * 3)
def test_waypoint_requests_match_full_scan(vehicle_routes):
    scenario = fuzz_scenario(vehicle_routes)
    runner = run_scenario(scenario)
    assert request_transitions(runner.trace) == hysteresis_oracle(scenario)


def test_route_ending_on_d_start_enters_on_its_last_tick():
    scenario = fuzz_scenario(
        [[(1, -261.0, -100.0), (10, -122.39765766268816, -86.71109155516032)]]
    )
    runner = run_scenario(scenario)
    assert request_transitions(runner.trace) == [(10, DeltaAction.REQUEST, "V0")]


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


# Whole-run sums of TickReport.produced and .forwarded: the data plane's
# traffic, which no trace record shows.
TRAFFIC_TOTALS = {
    "collective_perception": (51, 81),
    "collective_perception_upgrade": (60, 99),
    "waypoint_drive": (116, 142),
    "scale-30": (352, 2877),
}


@pytest.mark.parametrize("name", sorted(TRAFFIC_TOTALS))
def test_run_traffic_totals_are_frozen(name):
    if name == "scale-30":
        scenario = make_scale_scenario(30)
    else:
        scenario = load_scenario(bundled_scenario_path(name))
    runner = ScenarioRunner(scenario)
    sim = runner.system.sim
    tick = sim.tick
    totals = [0, 0]

    def counted_tick():
        report = tick()
        totals[0] += report.produced
        totals[1] += report.forwarded
        return report

    sim.tick = counted_tick
    runner.run()
    assert tuple(totals) == TRAFFIC_TOTALS[name]


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


def waypoint_mapping(seed, vehicles=24, ticks=300):
    """Straight passes through the waypoint scenario's zone.

    Each vehicle starts 260 units before its closest approach, at a random
    tick, heading, offset and speed, and ends as far beyond it, so it
    enters and leaves exactly once.  About a quarter stop twice 160 units
    from the center, in the hysteresis band: on the way in, still outside,
    and on the way out, still inside.
    """
    raw = yaml.safe_load(bundled_scenario_path("waypoint_drive").read_text())
    rng = random.Random(seed)
    ids = [f"D{i:02d}" for i in range(vehicles)]
    raw["entities"] = [
        {
            "id": v,
            "role": "cv",
            "capabilities": ["ego", "pointcloud"] if rng.random() < 0.3 else ["ego"],
        }
        for v in ids
    ] + [e for e in raw["entities"] if e["role"] != "cv"]
    routes = {}
    for vehicle in ids:
        heading = rng.uniform(0.0, 2 * math.pi)
        dx, dy = math.cos(heading), math.sin(heading)
        offset = rng.uniform(-120.0, 120.0)
        speed = rng.uniform(5.0, 15.0)
        dwell = rng.randint(10, 40) if rng.random() < 0.25 else 0
        band = math.sqrt(160.0**2 - offset**2)
        stops = [-260.0, -band, band, 260.0] if dwell else [-260.0, 260.0]
        legs = [math.ceil((b - a) / speed) for a, b in zip(stops, stops[1:])]
        t = rng.randint(1, ticks - sum(legs) - 2 * dwell - 10)
        route = []
        for index, along in enumerate(stops):
            if index:
                t += legs[index - 1]
            point = {"x": -offset * dy + along * dx, "y": offset * dx + along * dy}
            route.append({"t": t, **point})
            if dwell and 0 < index < len(stops) - 1:
                t += dwell
                route.append({"t": t, **point})
        routes[vehicle] = route
    raw["timeline"] = {"mode": "waypoints", "waypoints": routes}
    raw["tick_budget"] = ticks
    return raw


# Digest of the waypoint walk above, rendered before the detector skipped
# unmoved vehicles; transitions of several vehicles in one tick write one
# resource twice before a drain.
WAYPOINT_DIGEST = (
    "3ca04bcd23ebcf3255e9eade48fea293e6221a90d385816ce89654164322517b", 629
)


def test_waypoint_run_trace_is_frozen():
    runner = run_scenario(scenario_from_mapping(waypoint_mapping(3)))
    text = runner.trace.render()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert (digest, text.count("\n")) == WAYPOINT_DIGEST
    per_tick = Counter(r.tick for r in records_with(runner.trace, TAG_REQUEST))
    assert max(per_tick.values()) >= 2
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
