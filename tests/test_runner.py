"""End-to-end runs: determinism, idempotency, drain behavior, waypoints."""

import hashlib
import math
import random
import sys
from collections import Counter
from itertools import count

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import demandflow.runner as runner_module
from demandflow.cli import bundled_scenario_path
from demandflow.manager import AccessDomainPolicy, DeploymentRequest, RequestResult
from demandflow.model import DeltaAction, OrchestrationError, ResourceKind
from demandflow.operators import Operator
from demandflow.runner import (
    ScenarioRunner,
    drain,
    run_scenario,
)
from demandflow.scenario import (
    interpolate,
    load_scenario,
    make_scale_scenario,
    scenario_from_mapping,
)
from demandflow.tracing import (
    TAG_ACTION,
    TAG_ERROR,
    TAG_LEDGER,
    TAG_REQUEST,
    Trace,
)
from test_tracing import LineTrace, assert_same_trace


def records_with(trace, tag):
    return [r for r in trace.records if r.tag == tag]


def system_is_empty(system):
    return (
        not system.sim.instances()
        and system.store.total_resources() == 0
        and not system.service_op.records()
        and not system.connection_op.records()
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


CLUSTER_CALLS = ("deploy_instance", "terminate_instance", "reconfigure_instance")


def run_failing(
    scenario, failing, methods=CLUSTER_CALLS, restart=False, duplicate_delivery=False
):
    """Run `scenario` with the listed calls of the cluster's `methods` failing.

    The methods count their calls together, from 1.  With `restart`, the
    operators restart before the first tick after the first failed call.
    Returns the runner and the number of calls made.
    """
    runner = ScenarioRunner(scenario, duplicate_delivery=duplicate_delivery)
    sim = runner.system.sim
    calls, failed = 0, False

    def failing_calls(method, real):
        def wrapped(*args):
            nonlocal calls, failed
            calls += 1
            if calls in failing:
                failed = True
                raise OrchestrationError(f"injected {method} failure")
            return real(*args)

        return wrapped

    for method in methods:
        setattr(sim, method, failing_calls(method, getattr(sim, method)))
    if restart:
        restart_operators_once(runner, lambda tick: failed)
    runner.run()
    return runner, calls


def test_failed_terminates_still_empty_the_system(reference_scenario):
    # Terminate calls 3-5 fail: the release of conn-V0-E gives up at
    # tick 13, and the parked name tears conn-V0-E down on the next tick.
    runner, _ = run_failing(
        reference_scenario, {3, 4, 5}, methods=("terminate_instance",)
    )
    assert system_is_empty(runner.system)
    errors = records_with(runner.trace, TAG_ERROR)
    assert [(r.tick, r.get("kind")) for r in errors] == [(13, "reconcile-failed")]


# Every call fails: `calls in EVERY_CALL` holds for any count.
EVERY_CALL = range(1, sys.maxsize)

# The ERROR lines of the persistent deploy outage below, in order: each
# name's attempts run back to back, so a tick's give-ups follow its queue.
OUTAGE_ERRORS_DIGEST = (
    "532cf3ae2c90f86de1b067900dfdfa811da47aa5b2cd65629d0005bcbb35af28"
)


def test_persistent_deploy_outage_retries_and_parks_in_a_fixed_order(
    reference_scenario,
):
    # No deploy ever succeeds: each failing resource costs MAX_ATTEMPTS
    # calls and one give-up per tick until its demand is released, and
    # the order of its give-ups is the order of its queue and parking.
    runner, calls = run_failing(
        reference_scenario, EVERY_CALL, ("deploy_instance",)
    )
    errors = records_with(runner.trace, TAG_ERROR)
    assert (calls, len(errors)) == (369, 123)
    assert {r.get("kind") for r in errors} == {"reconcile-failed"}
    # the last give-up comes three ticks before the run's 24 end
    assert (errors[-1].tick, errors[-1].get("detail")) == (
        21, "conn-V3-E@1:OrchestrationError"
    )
    lines = [line for line in runner.trace.render().splitlines()
             if line.startswith(TAG_ERROR)]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == OUTAGE_ERRORS_DIGEST
    assert not records_with(runner.trace, TAG_ACTION)
    assert system_is_empty(runner.system)


def assert_failures_retried_away(
    scenario, width, methods=CLUSTER_CALLS, restart=False
):
    """Fail calls k..k+width-1 of `methods`, for every k; each run ends empty.

    A give-up is the only error a run may trace, and none at width 1.
    """
    _, calls = run_failing(scenario, (), methods)
    assert calls
    allowed = {"reconcile-failed"} if width > 1 else set()
    for k in range(1, calls + 1):
        failing = set(range(k, k + width))
        runner, _ = run_failing(scenario, failing, methods, restart)
        burst = f"calls {k}..{k + width - 1}"
        assert system_is_empty(runner.system), burst
        kinds = {r.get("kind") for r in records_with(runner.trace, TAG_ERROR)}
        assert kinds <= allowed, burst


@pytest.mark.parametrize("method", CLUSTER_CALLS)
@pytest.mark.parametrize("fixture", ["reference_scenario", "upgrade_scenario"])
def test_any_single_cluster_failure_is_retried_away(request, fixture, method):
    # One failed call costs one retry, well within MAX_ATTEMPTS, so each
    # run still serves and drops all of its demand.  Three in a row may
    # exhaust a name's attempts; the parked name finishes the work on
    # the next tick, which both scenarios' settle windows provide.
    scenario = request.getfixturevalue(fixture)
    for width in (1, 3):
        assert_failures_retried_away(scenario, width, (method,))


@pytest.mark.parametrize("fixture", ["reference_scenario", "upgrade_scenario"])
def test_failure_windows_across_cluster_calls_are_retried_away(request, fixture):
    # Counted together, a window can fail a connection's sender deploy and
    # then the terminate that rolls its receiver back.
    scenario = request.getfixturevalue(fixture)
    for width in (2, 3):
        assert_failures_retried_away(scenario, width)


@pytest.mark.parametrize("fixture", ["reference_scenario", "upgrade_scenario"])
def test_no_drain_of_a_fault_burst_leaves_a_name_queued(
    request, fixture, monkeypatch
):
    # A drain is one pass of each operator: a failure spends its name's
    # attempts at once, and neither operator queues a name of the other's
    # kind, so each pass ends with both queues empty.
    real, drains = runner_module.drain, count()

    def drain_then_check(system):
        real(system)
        next(drains)
        assert [system.service_op.pending(), system.connection_op.pending()] == [0, 0]

    monkeypatch.setattr(runner_module, "drain", drain_then_check)
    scenario = request.getfixturevalue(fixture)
    for method in CLUSTER_CALLS:
        for width in (1, 2, 3):
            assert_failures_retried_away(scenario, width, (method,))
    assert next(drains), "drain was never called"


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


ROUTE_EXAMPLES = [
    # one waypoint; the first waypoint after tick 1, inside; ending inside
    [[(1, 0.0, 0.0)], [(9, 10.0, 0.0), (5, 300.0, 0.0)],
     [(1, 300.0, 0.0), (8, 20.0, 5.0)]],
    # dwells in the band on the way in and on the way out
    [[(1, 300.0, 0.0), (3, 160.0, 0.0), (6, 160.0, 0.0), (2, 0.0, 0.0),
      (2, 160.0, 0.0), (5, 160.0, 0.0), (2, 300.0, 0.0)]],
    # ends on d_start from outside, where plain interpolation rounds outward
    [[(1, -261.0, -100.0), (10, -122.39765766268816, -86.71109155516032)]],
    # three vehicles cross each threshold on the same ticks
    [[(1, 300.0, 0.0), (4, 0.0, 0.0), (4, 300.0, 0.0)]] * 3,
    # a leg that runs past the last tick
    [[(1, 300.0, 0.0), (50, 0.0, 0.0)]],
]


def with_fuzzed_routes(test):
    """Runs `test` on generated routes, and on each of ROUTE_EXAMPLES."""
    for routes in reversed(ROUTE_EXAMPLES):
        test = example(routes)(test)
    test = given(st.lists(waypoint_routes, min_size=1, max_size=5))(test)
    return settings(max_examples=60, deadline=None)(test)


@with_fuzzed_routes
def test_waypoint_requests_match_full_scan(vehicle_routes):
    scenario = fuzz_scenario(vehicle_routes)
    runner = run_scenario(scenario)
    assert request_transitions(runner.trace) == hysteresis_oracle(scenario)


def watch_detector(runner, on_evaluate):
    """Calls `on_evaluate(tick, vehicles observed since the last call)`
    before each of the run's `evaluate` calls."""
    detector = runner.system.detector
    observe_pose, evaluate = detector.observe_pose, detector.evaluate
    observed = []

    def observing(vehicle_id, position):
        observed.append(vehicle_id)
        observe_pose(vehicle_id, position)

    def evaluating(tick):
        on_evaluate(tick, observed[:])
        observed.clear()
        return evaluate(tick)

    detector.observe_pose, detector.evaluate = observing, evaluating


@with_fuzzed_routes
def test_waypoint_poses_match_interpolation_after_every_tick(vehicle_routes):
    scenario = fuzz_scenario(vehicle_routes)
    routes = scenario.timeline.waypoints
    runner = ScenarioRunner(scenario)
    poses = runner.system.detector._poses
    ticks = []

    def check(tick, _):
        assert poses == {v: interpolate(route, tick) for v, route in routes.items()}
        ticks.append(tick)

    watch_detector(runner, check)
    runner.run()
    assert ticks == list(range(1, scenario.tick_budget + 1))


def test_a_vehicle_parked_on_one_place_is_observed_once():
    # V0 holds one place from tick 0 to 5; V1 moves until tick 3, then holds
    scenario = fuzz_scenario(
        [[(1, 300.0, 0.0), (5, 300.0, 0.0)],
         [(1, 300.0, 0.0), (3, 0.0, 0.0), (3, 0.0, 0.0)]]
    )
    runner = ScenarioRunner(scenario)
    observed = {}
    watch_detector(runner, lambda tick, vehicles: observed.update({tick: vehicles}))
    runner.run()
    assert {tick: v for tick, v in observed.items() if v} == {
        1: ["V0", "V1"],
        2: ["V1"],
        3: ["V1"],
    }


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


def independent_render(position, request_id, action, app, requesters, inputs, result):
    """The lines one copy traces, rendered by a fresh trace."""
    trace = Trace()
    trace.at(*position)
    trace.request(request_id, action, app, requesters, inputs)
    if result.accepted:
        for kind, name, generation in result.applied_crs:
            trace.cr_applied(kind.value, name, generation, action)
    else:
        rejected = "upgrade-rejected" if action == "upgrade" else "request-rejected"
        trace.error("manager", rejected, f"{request_id}:{result.reason}")
    return trace.lines()


def test_a_redelivered_copy_traces_what_an_independent_render_does(upgrade_scenario):
    runner = ScenarioRunner(upgrade_scenario)
    system, trace = runner.system, runner.trace
    app = "object-detection-fusion"
    enter = DeploymentRequest(
        "r-1", DeltaAction.REQUEST, app, ("V0", "S"),
        (("V0", "ego"), ("V0", "pointcloud"), ("S", "pointcloud")),
    )
    # a release of demand nobody holds is rejected on its first copy
    release = DeploymentRequest(
        "r-2", DeltaAction.RELEASE, app, ("V1",), (("V1", "ego"),)
    )
    want = []
    for position, request, copies in (((1, 1), enter, 2), ((2, 4), release, 3)):
        trace.at(*position)
        runner_module.deliver(system, request, copies=copies)
        result = system.manager.handle_request(request)  # the cached one
        want += copies * independent_render(
            position, request.request_id, request.action.value, request.app_name,
            request.requesters, request.inputs, result,
        )
        assert trace.lines() == want
    # five CR lines follow each accepted copy; each rejected one, an ERROR
    tags = [line.split(" ", 1)[0] for line in want]
    assert tags[:7] == ["REQUEST", *["CR"] * 5, "REQUEST"]
    assert "release of unknown requester V1" in want[-1]
    # an upgrade is traced once, as an independent render gives it
    trace.at(3, 7)
    runner._apply_upgrade(app, "v2")
    upgraded = independent_render(
        (3, 7), "upgrade-001", "upgrade", app, (), (),
        RequestResult("upgrade-001", True, tuple(
            (ResourceKind.MANAGED_SERVICE, name, 2)
            for name in system.store.list_crs(ResourceKind.MANAGED_SERVICE)
        )),
    )
    assert len(upgraded) == 4 and trace.lines() == want + upgraded


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
    # Walks defined below: a churn of every-tick reconciles, and waypoint
    # passes with several transitions in one tick.
    "churn": (335, 632),
    "waypoint-3": (728, 1274),
}


@pytest.mark.parametrize("name", sorted(TRAFFIC_TOTALS))
def test_run_traffic_totals_are_frozen(name):
    if name == "scale-30":
        scenario = make_scale_scenario(30)
    elif name == "churn":
        scenario = scenario_from_mapping(churn_mapping())
    elif name == "waypoint-3":
        scenario = scenario_from_mapping(waypoint_mapping(3))
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


@pytest.mark.slow
@pytest.mark.parametrize(
    "methods",
    [(method,) for method in CLUSTER_CALLS] + [CLUSTER_CALLS],
    ids=[*CLUSTER_CALLS, "all"],
)
def test_failure_bursts_on_the_churn_walk_are_retried_away(methods):
    # One settle tick per step leaves every burst a tick after it.
    raw = churn_mapping()
    raw["timeline"]["settle_ticks"] = 1
    assert_failures_retried_away(scenario_from_mapping(raw), 3, methods)


@pytest.mark.parametrize("failing", [(175, 176, 177), (176, 177, 178)])
def test_give_up_in_the_last_tick_is_retried_before_the_run_ends(failing):
    # The walk makes 176 terminate calls, the last ones in its last tick
    # (129): the give-up there parks its name with no tick left to run it.
    scenario = scenario_from_mapping(churn_mapping())
    runner, _ = run_failing(scenario, set(failing), ("terminate_instance",))
    errors = records_with(runner.trace, TAG_ERROR)
    assert [(r.tick, r.get("kind")) for r in errors] == [
        (scenario.tick_budget, "reconcile-failed")
    ]
    assert system_is_empty(runner.system)


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


# Digests of the benchmark's seed-1 episodes, rendered before ledgers,
# specs, requests and results became NamedTuples: `scale` (N=100), the
# three `churn` walks with duplicate delivery, and a 1000-tick `drive`.
BENCHMARK_DIGESTS = {
    "churn": [
        ("b6160550e2a8af8562616b7cb2b091ba44f1dd2d76262a4fc72945bf0e5f4bfa", 33019),
        ("4bd57a94c3e959cf5d939e1d723bbb8094f8f1daa50de6763b02ff4338f271c4", 33063),
        ("458ec9b179d793e2b192b53cd86a00a3215530c3942443b411ed945fb232a9cf", 33036),
    ],
    "drive": [
        ("55d61c37abb6580e144681ee42b4bdbd4eb5f1bd0314fa108a8fc7ceedae1c5e", 2122),
    ],
    "scale": [
        ("0ec6a97c2acc427de3c226cd1ccd296a7e843938d477511bdd8d03167ff7bc24", 22804),
    ],
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_DIGESTS))
def test_benchmark_episode_traces_are_frozen(benchmark_workloads, name):
    workload = benchmark_workloads.WORKLOADS[name]
    digests = []
    for raw in workload.generate(1):
        text = workload.setup(raw).run().render()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        digests.append((digest, text.count("\n")))
    assert digests == BENCHMARK_DIGESTS[name]


# -- operator restarts ------------------------------------------------------


def restart_operators_once(runner, due, check=lambda system: None):
    """Before the first tick `due(tick)` allows, replace both operators by
    fresh ones over the same store, cluster and trace, and let them catch
    up on every listed resource before the tick's requests, as a restarted
    controller syncs; the old operators stop first.  `check(system)` runs
    after every tick."""
    system, tick_body, ticks = runner.system, runner._tick, count(1)
    restarted = False

    def tick(requests):
        nonlocal restarted
        if not restarted and due(next(ticks)):
            restarted = True
            for role in ("service_op", "connection_op"):
                old = getattr(system, role)
                old.stop()
                operator = Operator(old.kind, system.store, system.sim, system.trace)
                setattr(system, role, operator)
            drain(system)
        tick_body(requests)
        check(system)

    runner._tick = tick


def one_instance_per_unit(system):
    units = Counter((i.cr_name, i.service_kind) for i in system.sim.instances())
    assert max(units.values(), default=1) == 1, units


def assert_restarts_change_nothing(scenario, ticks, duplicate_delivery=False):
    """A restart before any one of `ticks` keeps every tick's units single,
    the whole trace of the run without one, and its empty end."""
    expected = run_scenario(scenario, duplicate_delivery).trace.render()
    for at in ticks:
        runner = ScenarioRunner(scenario, duplicate_delivery=duplicate_delivery)
        restart_operators_once(runner, at.__eq__, one_instance_per_unit)
        runner.run()
        assert runner.trace.render() == expected, f"restart at {at}"
        assert system_is_empty(runner.system), f"restart at {at}"


@pytest.mark.parametrize("duplicate_delivery", [False, True])
@pytest.mark.parametrize("fixture", ["reference_scenario", "upgrade_scenario"])
def test_restarted_operators_adopt_what_runs(request, fixture, duplicate_delivery):
    # The new operators' watches list every resource, and each reads the
    # units its stored status lists instead of deploying again.
    # Every status is current, so the catch-up reconciles and traces nothing.
    scenario = request.getfixturevalue(fixture)
    ticks = range(1, scenario.tick_budget + 1)
    assert_restarts_change_nothing(scenario, ticks, duplicate_delivery)


@pytest.mark.parametrize("duplicate_delivery", [False, True])
def test_restarted_operators_adopt_what_runs_on_the_churn_walk(duplicate_delivery):
    scenario = scenario_from_mapping(churn_mapping())
    ticks = range(3, scenario.tick_budget + 1, 9)
    assert_restarts_change_nothing(scenario, ticks, duplicate_delivery)


def test_a_stopped_operator_is_sent_no_more_names():
    # A replaced operator's queue must not collect every later name,
    # unread: without `unwatch`, 305 and 295 names here.
    runner = ScenarioRunner(scenario_from_mapping(churn_mapping()))
    old = (runner.system.service_op, runner.system.connection_op)
    restart_operators_once(runner, (10).__eq__)
    runner.run()
    assert [operator.pending() for operator in old] == [0, 0]
    assert system_is_empty(runner.system)


@pytest.mark.parametrize("fixture", ["reference_scenario", "upgrade_scenario"])
def test_a_restart_inside_a_fault_burst_is_retried_away(request, fixture):
    # The restart comes while the burst's names are parked or retrying,
    # with strays or a half-done replace or teardown running: the new
    # operators end what is not a whole set of units and finish the rest.
    scenario = request.getfixturevalue(fixture)
    assert_failures_retried_away(scenario, 3, restart=True)


@pytest.mark.parametrize(
    "methods",
    [(method,) for method in CLUSTER_CALLS] + [CLUSTER_CALLS],
    ids=[*CLUSTER_CALLS, "all"],
)
@pytest.mark.parametrize("fixture", ["reference_scenario", "upgrade_scenario"])
def test_a_restart_inside_a_longer_fault_burst_is_retried_away(
    request, fixture, methods
):
    # The burst outlasts a name's attempts, so the fresh operators' first
    # reconciles fail too, over statuses the old ones wrote: a failed
    # attempt keeps the stored observed generation.
    scenario = request.getfixturevalue(fixture)
    for width in (4, 5, 6):
        assert_failures_retried_away(scenario, width, methods, restart=True)


# -- units that exit on their own ----------------------------------------------


def dead_units(system):
    """The units that stored statuses list and that no longer run."""
    running = {i.instance_id for i in system.sim.instances()}
    return [
        unit
        for kind in ResourceKind
        for name in system.store.list_crs(kind)
        for unit in system.store.get_cr(kind, name).status.instance_ids
        if unit not in running
    ]


def test_a_unit_that_exits_on_its_own_is_repaired(
    reference_scenario, upgrade_scenario
):
    # At each tick from 2 on, the first or the last running instance exits
    # before the tick's requests, as a crash would, once per run.  Its
    # owner's name is queued, and the drain finds the set it belonged to
    # gone: what is left of it strays, and a live spec deploys again.
    kills = 0
    for scenario in (reference_scenario, upgrade_scenario):
        for duplicate_delivery in (False, True):
            for due in range(2, scenario.tick_budget + 1):
                for victim in (0, -1):
                    run = f"{scenario.name} {duplicate_delivery} {due} {victim}"
                    runner = ScenarioRunner(scenario, duplicate_delivery)
                    system, tick_body, ticks = runner.system, runner._tick, count(1)
                    killed = False

                    def tick(requests):
                        nonlocal killed, kills
                        if not killed and next(ticks) == due:
                            killed = True
                            running = system.sim.instances()
                            if running:
                                system.sim.exit_instance(running[victim].instance_id)
                                kills += 1
                        tick_body(requests)
                        assert not dead_units(system), run

                    runner._tick = tick
                    runner.run()
                    assert system_is_empty(system), run
                    assert not records_with(runner.trace, TAG_ERROR), run
    assert kills == 180


def unledgered_lines(trace):
    return [line for line in trace.render().splitlines()
            if not line.startswith(TAG_LEDGER)]


@pytest.mark.parametrize("duplicate_delivery", [False, True])
@pytest.mark.parametrize("fixture", ["reference_scenario", "upgrade_scenario"])
def test_a_restart_after_a_failed_call_traces_no_action_twice(
    request, fixture, duplicate_delivery
):
    # A given-up teardown traced its terminate and wrote no units into the
    # stored status; the new operator reads those units, not the ones still
    # running, so the restart neither repeats the terminate nor changes any
    # other line.  Only the catch-up's LEDGER lines may differ.
    scenario = request.getfixturevalue(fixture)
    for methods in [(method,) for method in CLUSTER_CALLS] + [CLUSTER_CALLS]:
        _, calls = run_failing(scenario, (), methods)
        for width in (1, 2, 3):
            for k in range(1, calls + 1):
                failing = set(range(k, k + width))
                plain, restarted = (
                    run_failing(
                        scenario, failing, methods, restart, duplicate_delivery
                    )[0]
                    for restart in (False, True)
                )
                burst = f"{methods} calls {k}..{k + width - 1}"
                want = unledgered_lines(plain.trace)
                assert unledgered_lines(restarted.trace) == want, burst
                assert system_is_empty(restarted.system), burst


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


def assert_snapshots_match_a_full_diff(scenario, duplicate_delivery=False):
    """A run renders the same trace when its snapshots compare every node."""
    every_node = ScenarioRunner(scenario, duplicate_delivery=duplicate_delivery)
    nodes = [entity.node_id for entity in scenario.entities]
    every_node.system.sim.changed_nodes = lambda: nodes
    listed = run_scenario(scenario, duplicate_delivery=duplicate_delivery)
    assert listed.trace.render() == every_node.run().render()


@pytest.mark.parametrize("seed", range(1, 9))
def test_waypoint_snapshots_match_a_diff_of_every_node(seed):
    # Each walk has dwells in the hysteresis band and a tick with two
    # transitions.
    assert_snapshots_match_a_full_diff(scenario_from_mapping(waypoint_mapping(seed)))


@pytest.mark.parametrize(
    "routes",
    [
        # dwells in the band on the way in and on the way out
        [[(1, 300.0, 0.0), (3, 160.0, 0.0), (6, 160.0, 0.0), (2, 0.0, 0.0),
          (2, 160.0, 0.0), (5, 160.0, 0.0), (2, 300.0, 0.0)]],
        # three vehicles cross each threshold on the same ticks
        [[(1, 300.0, 0.0), (4, 0.0, 0.0), (4, 300.0, 0.0)]] * 3,
    ],
    ids=["band-dwells", "same-tick"],
)
def test_fuzzed_waypoint_snapshots_match_a_diff_of_every_node(routes):
    assert_snapshots_match_a_full_diff(fuzz_scenario(routes))


@pytest.mark.parametrize("duplicate_delivery", [False, True])
def test_scale_snapshots_match_a_diff_of_every_node(duplicate_delivery):
    assert_snapshots_match_a_full_diff(make_scale_scenario(30), duplicate_delivery)


@pytest.mark.parametrize(
    "name", ["collective_perception", "collective_perception_upgrade"]
)
def test_bundled_scripted_snapshots_match_a_diff_of_every_node(name):
    assert_snapshots_match_a_full_diff(load_scenario(bundled_scenario_path(name)))


def test_churn_snapshots_match_a_diff_of_every_node():
    # One tick per step: every tick is a window end.
    assert_snapshots_match_a_full_diff(scenario_from_mapping(churn_mapping()))


@pytest.mark.parametrize("fixture", ["reference_scenario", "waypoint_scenario"])
def test_a_refresh_reads_only_the_nodes_changed_since_the_last_one(
    request, fixture
):
    # A node whose topics were read at one refresh is read again only once
    # a later tick lists it: the stale set empties at every refresh.
    runner = ScenarioRunner(request.getfixturevalue(fixture))
    sim = runner.system.sim
    listed, read, refreshes = {}, [], []
    real_changed, real_visible = sim.changed_nodes, sim.topics_visible_at
    real_refresh = runner._refresh_topics

    def changed_nodes():
        nodes = real_changed()
        listed.update(dict.fromkeys(nodes))
        return nodes

    def topics_visible_at(node):
        read.append(node)
        return real_visible(node)

    def refresh():
        read.clear()
        tails = real_refresh()
        refreshes.append((list(listed), list(read)))
        listed.clear()
        return tails

    sim.changed_nodes, sim.topics_visible_at = changed_nodes, topics_visible_at
    runner._refresh_topics = refresh
    runner.run()
    assert all(reads == nodes for nodes, reads in refreshes)
    # some refresh lists nodes, and a later one leaves some of them out
    assert any(
        set(earlier) - set(later)
        for (earlier, _), (later, _) in zip(refreshes, refreshes[1:])
    )


def changes_left_unlisted_at_window_ends(scenario):
    """Nodes that changed inside a window but are not listed at its end.

    Returns (tick, node) for each node whose topics changed on a tick
    before the window's last one, and that the last tick's
    `changed_nodes` leaves out.
    """
    runner = ScenarioRunner(scenario)
    sim = runner.system.sim
    nodes = [entity.node_id for entity in scenario.entities]
    tick = sim.tick
    per_tick = []  # (nodes whose topics changed, changed_nodes())

    def watched_tick():
        before = [sim.topics_visible_at(node) for node in nodes]
        report = tick()
        after = [sim.topics_visible_at(node) for node in nodes]
        moved = {n for n, b, a in zip(nodes, before, after) if b != a}
        per_tick.append((moved, set(sim.changed_nodes())))
        return report

    sim.tick = watched_tick
    runner.run()
    window = scenario.timeline.window
    unlisted = []
    for start in range(0, len(per_tick), window):
        *inside, (_, listed_at_end) = per_tick[start:start + window]
        for offset, (moved, _) in enumerate(inside):
            unlisted += [(start + offset + 1, n) for n in moved - listed_at_end]
    return unlisted


def test_changes_inside_a_window_reach_its_snapshot():
    # Three ticks per step: a node that changes on a step's first or
    # second tick and rests on its third is written from the stale set
    # gathered since the last snapshot, not from the last tick's list.
    # Past the first step, E does so whenever the last vehicle leaves.
    raw = churn_mapping()
    raw["timeline"]["settle_ticks"] = 2
    scenario = scenario_from_mapping(raw)
    unlisted = changes_left_unlisted_at_window_ends(scenario)
    assert any(tick > 3 for tick, _ in unlisted)
    assert_snapshots_match_a_full_diff(scenario)


# -- a scripted snapshot is one stored string ------------------------------


@pytest.mark.parametrize(
    "name",
    ["collective_perception", "collective_perception_upgrade", "waypoint_drive",
     "scale-20"],
)
def test_a_run_traces_as_its_per_line_twin_and_writes_its_render(name, tmp_path):
    if name == "scale-20":
        scenario = make_scale_scenario(20)
    else:
        scenario = load_scenario(bundled_scenario_path(name))
    trace = ScenarioRunner(scenario).run()
    assert_same_trace(trace, ScenarioRunner(scenario, trace=LineTrace()).run())
    trace.write(tmp_path / "trace.txt")
    assert (tmp_path / "trace.txt").read_text(encoding="utf-8") == trace.render()


@settings(max_examples=20, deadline=None)
@given(st.lists(waypoint_routes, min_size=1, max_size=5))
def test_a_fuzzed_waypoint_run_traces_as_its_per_line_twin(vehicle_routes):
    scenario = fuzz_scenario(vehicle_routes)
    reference = ScenarioRunner(scenario, trace=LineTrace()).run()
    assert_same_trace(ScenarioRunner(scenario).run(), reference)


@pytest.mark.parametrize("n", [1, 5, 20])
def test_a_scripted_snapshot_is_one_stored_string(n):
    runner = ScenarioRunner(make_scale_scenario(n))
    trace = runner.trace
    batch, stored = trace.topics, []

    def topics(tails):
        before = len(trace._stored)
        batch(tails)
        stored.append(len(trace._stored) - before)

    trace.topics = topics
    runner.run()
    windows = len(runner.scenario.timeline.events)
    assert stored == [1] * windows
    nodes = len(runner.scenario.entities)
    assert sum(r.tag == "TOPICS" for r in trace.records) == windows * nodes


# -- the visible topics are patched, not sorted again -----------------------


def check_visible_topics(runner, every_tick):
    """Check each read of a node's visible topics against a sort of its bus;
    with `every_tick`, read every node after every tick as well."""
    sim = runner.system.sim
    tick, visible_at = sim.tick, sim.topics_visible_at
    reads = []

    def checked(node):
        arrived, local = sim._bus[node]
        visible = visible_at(node)
        assert visible == tuple(sorted(set(local) | set(arrived)))
        reads.append(node)
        return visible

    def checked_tick():
        report = tick()
        if every_tick:
            for node in sim._bus:
                checked(node)
        return report

    sim.tick, sim.topics_visible_at = checked_tick, checked
    runner.run()
    return reads


@pytest.mark.parametrize("every_tick", [False, True])
@pytest.mark.parametrize("name", ["churn", "collective_perception_upgrade"])
def test_visible_topics_twin_on_scripted_runs_with_leaves_and_upgrades(
    name, every_tick
):
    if name == "churn":
        scenario = scenario_from_mapping(churn_mapping())
    else:
        scenario = load_scenario(bundled_scenario_path(name))
    runner = ScenarioRunner(scenario)
    assert check_visible_topics(runner, every_tick)
    # topics went as well as came
    sizes = [len(r.values("topics")) for r in records_with(runner.trace, "TOPICS")
             if r.get("node") == "E"]
    assert any(b < a for a, b in zip(sizes, sizes[1:]))
    assert any(b > a for a, b in zip(sizes, sizes[1:]))


@with_fuzzed_routes
def test_visible_topics_twin_on_fuzzed_waypoint_runs(vehicle_routes):
    check_visible_topics(ScenarioRunner(fuzz_scenario(vehicle_routes)), True)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2])
def test_large_fleet_snapshots_match_a_diff_of_every_node(seed):
    raw = waypoint_mapping(seed, vehicles=80, ticks=1000)
    assert_snapshots_match_a_full_diff(scenario_from_mapping(raw))


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
