"""Acceptance gate for the orchestration engine.

One test per criterion; the terminal summary (conftest.py) prints one
pass/fail line for each.  The expected bookkeeping, fusion-config, and
topic-visibility tables below were derived by hand from the reference
timeline before the engine produced its first trace, and are restated
here rather than read back from the golden file.
"""

import random
import time
from collections import Counter

import pytest

from demandflow.cli import bundled_scenario_path
from demandflow.manager import DeploymentRequest
from demandflow.model import ConfigItem, DeltaAction
from demandflow.operators import (
    COUNTED_CONFIG_KINDS,
    DemandLedger,
    apply_demand,
)
from demandflow.runner import build_system, deliver, drain, run_scenario
from demandflow.scenario import load_scenario, make_scale_scenario
from demandflow.store import DemandDelta
from demandflow.tracing import TAG_ACTION, TAG_LEDGER, TAG_TOPICS, assert_trace

APP = "object-detection-fusion"
OBJDET_S = f"svc-{APP}-objdet-S"
OBJDET_V0 = f"svc-{APP}-objdet-V0"
FUSION = f"svc-{APP}-fusion-singleton"
CONN_S = "conn-S-E"

STEPS = (1, 2, 3, 4, 5, 6, 7, 8)

# Live resources and their supporters at the end of each timeline step.
# Steps 1-4: V0, V1, V3, V2 enter in that order; steps 5-8: V0, V1, V2,
# V3 leave.  Every demand pairs one vehicle with the roadside unit S, so
# S's count on the shared resources climbs to four and back down.
EXPECTED_SUPPORT = {
    1: {
        OBJDET_S: {"V0", "S"},
        OBJDET_V0: {"V0", "S"},
        FUSION: {"V0", "S"},
        CONN_S: {"V0", "S"},
        "conn-V0-E": {"V0", "S"},
    },
    2: {
        OBJDET_S: {"V0", "V1", "S"},
        OBJDET_V0: {"V0", "S"},
        FUSION: {"V0", "V1", "S"},
        CONN_S: {"V0", "V1", "S"},
        "conn-V0-E": {"V0", "S"},
        "conn-V1-E": {"V1", "S"},
    },
    3: {
        OBJDET_S: {"V0", "V1", "V3", "S"},
        OBJDET_V0: {"V0", "S"},
        FUSION: {"V0", "V1", "V3", "S"},
        CONN_S: {"V0", "V1", "V3", "S"},
        "conn-V0-E": {"V0", "S"},
        "conn-V1-E": {"V1", "S"},
        "conn-V3-E": {"V3", "S"},
    },
    4: {
        OBJDET_S: {"V0", "V1", "V2", "V3", "S"},
        OBJDET_V0: {"V0", "S"},
        FUSION: {"V0", "V1", "V2", "V3", "S"},
        CONN_S: {"V0", "V1", "V2", "V3", "S"},
        "conn-V0-E": {"V0", "S"},
        "conn-V1-E": {"V1", "S"},
        "conn-V2-E": {"V2", "S"},
        "conn-V3-E": {"V3", "S"},
    },
    5: {
        OBJDET_S: {"V1", "V2", "V3", "S"},
        FUSION: {"V1", "V2", "V3", "S"},
        CONN_S: {"V1", "V2", "V3", "S"},
        "conn-V1-E": {"V1", "S"},
        "conn-V2-E": {"V2", "S"},
        "conn-V3-E": {"V3", "S"},
    },
    6: {
        OBJDET_S: {"V2", "V3", "S"},
        FUSION: {"V2", "V3", "S"},
        CONN_S: {"V2", "V3", "S"},
        "conn-V2-E": {"V2", "S"},
        "conn-V3-E": {"V3", "S"},
    },
    7: {
        OBJDET_S: {"V3", "S"},
        FUSION: {"V3", "S"},
        CONN_S: {"V3", "S"},
        "conn-V3-E": {"V3", "S"},
    },
    8: {},
}

# The fusion service's subscription set after each step while it lives.
EXPECTED_FUSION_INPUTS = {
    1: {"/V0/ego", "/detections/S/objects", "/detections/V0/objects"},
    2: {"/V0/ego", "/V1/ego", "/detections/S/objects", "/detections/V0/objects"},
    3: {"/V0/ego", "/V1/ego", "/V3/ego", "/detections/S/objects",
        "/detections/V0/objects"},
    4: {"/V0/ego", "/V1/ego", "/V2/ego", "/V3/ego", "/detections/S/objects",
        "/detections/V0/objects"},
    5: {"/V1/ego", "/V2/ego", "/V3/ego", "/detections/S/objects"},
    6: {"/V2/ego", "/V3/ego", "/detections/S/objects"},
    7: {"/V3/ego", "/detections/S/objects"},
}

# Topics visible on the edge node at each step's window end: forwarded
# source data, one detection stream per lidar-bearing source, and the
# fused output.  The cloud node C never sees anything.
EXPECTED_EDGE_TOPICS = {
    1: {"/S/points", "/V0/ego", "/V0/points", "/detections/S/objects",
        "/detections/V0/objects", "/fusion/objects"},
    2: {"/S/points", "/V0/ego", "/V0/points", "/V1/ego",
        "/detections/S/objects", "/detections/V0/objects", "/fusion/objects"},
    3: {"/S/points", "/V0/ego", "/V0/points", "/V1/ego", "/V3/ego",
        "/detections/S/objects", "/detections/V0/objects", "/fusion/objects"},
    4: {"/S/points", "/V0/ego", "/V0/points", "/V1/ego", "/V2/ego", "/V3/ego",
        "/detections/S/objects", "/detections/V0/objects", "/fusion/objects"},
    5: {"/S/points", "/V1/ego", "/V2/ego", "/V3/ego",
        "/detections/S/objects", "/fusion/objects"},
    6: {"/S/points", "/V2/ego", "/V3/ego", "/detections/S/objects",
        "/fusion/objects"},
    7: {"/S/points", "/V3/ego", "/detections/S/objects", "/fusion/objects"},
    8: set(),
}


def records(trace, tag):
    return [r for r in trace.records if r.tag == tag]


def actions_for(trace, cr_name, action):
    return [
        r
        for r in records(trace, TAG_ACTION)
        if r.get("cr") == cr_name and r.get("action") == action
    ]


def stepwise_support(trace):
    """Fold ledger records into the live cr -> support map after each step."""
    state = {}
    snapshots = {}
    for record in records(trace, TAG_LEDGER):
        support = frozenset(record.values("support"))
        if support:
            state[record.get("cr")] = support
        else:
            state.pop(record.get("cr"), None)
        snapshots[record.step] = dict(state)
    return snapshots


def assert_system_empty(system):
    assert not system.sim.instances(), "instances still running"
    assert system.store.total_resources() == 0, "resources still stored"
    assert not system.service_op.ledgers(), "service ledgers not empty"
    assert not system.connection_op.ledgers(), "connection ledgers not empty"


@pytest.fixture(scope="module")
def reference_run(reference_scenario):
    start = time.perf_counter()
    runner = run_scenario(reference_scenario)
    runner.elapsed = time.perf_counter() - start
    return runner


@pytest.fixture(scope="module")
def upgrade_run(upgrade_scenario):
    return run_scenario(upgrade_scenario)


def test_c01_stepwise_bookkeeping_matches_reference(reference_run):
    assert reference_run.elapsed < 5.0
    assert stepwise_support(reference_run.trace) == EXPECTED_SUPPORT


def test_c02_shared_resources_deploy_once(reference_run):
    trace = reference_run.trace
    # shared resources live across all eight steps: one deploy at step 1,
    # one terminate at step 8, nothing in between
    for cr in (OBJDET_S, FUSION, CONN_S):
        deploys = actions_for(trace, cr, "deploy")
        terminates = actions_for(trace, cr, "terminate")
        assert [r.step for r in deploys] == [1], cr
        assert [r.step for r in terminates] == [8], cr
        assert not actions_for(trace, cr, "replace"), cr
    # per-vehicle resources also deploy exactly once each
    for cr, start, stop in (
        (OBJDET_V0, 1, 5),
        ("conn-V0-E", 1, 5),
        ("conn-V1-E", 2, 6),
        ("conn-V2-E", 4, 7),
        ("conn-V3-E", 3, 8),
    ):
        assert [r.step for r in actions_for(trace, cr, "deploy")] == [start], cr
        assert [r.step for r in actions_for(trace, cr, "terminate")] == [stop], cr


def test_c03_fusion_reconfigures_in_place(reference_run):
    trace = reference_run.trace
    acts = [r for r in records(trace, TAG_ACTION) if r.get("cr") == FUSION]
    assert [(r.get("action"), r.step) for r in acts] == [
        ("deploy", 1),
        ("reconfigure", 2),
        ("reconfigure", 3),
        ("reconfigure", 4),
        ("reconfigure", 5),
        ("reconfigure", 6),
        ("reconfigure", 7),
        ("terminate", 8),
    ]
    # one instance from start to finish
    instance = acts[0].values("instances")
    assert len(instance) == 1
    assert all(r.values("instances") == instance for r in acts)

    observed_inputs = {}
    for record in records(trace, TAG_LEDGER):
        if record.get("cr") != FUSION or not record.values("support"):
            continue
        observed_inputs[record.step] = {
            item.split(":", 1)[1]
            for item in record.values("config")
            if item.startswith("input-topic:")
        }
    assert observed_inputs == EXPECTED_FUSION_INPUTS


def test_c04_edge_topic_visibility_per_step(reference_run):
    by_node = {}
    for record in records(reference_run.trace, TAG_TOPICS):
        node = record.get("node")
        by_node.setdefault(node, {})[record.step] = frozenset(
            record.values("topics")
        )
    assert by_node["E"] == EXPECTED_EDGE_TOPICS
    assert by_node["C"] == {step: frozenset() for step in STEPS}


def test_c05_ledger_matches_counting_oracle():
    started = time.perf_counter()
    requester_pool = ["V0", "V1", "V2", "V3", "S"]
    counted_pool = [ConfigItem("input-topic", f"/in/{i}") for i in range(4)]
    counted_pool.append(ConfigItem("forward-topic", "/fwd/0"))
    base = (ConfigItem("node", "E"), ConfigItem("service-kind", "object-fusion"))

    for seed in range(1000):
        rng = random.Random(seed)
        ledger = DemandLedger()
        active = []
        want_requesters = Counter()
        want_config = Counter()
        for _ in range(rng.randrange(2, 16)):
            if active and rng.random() < 0.45:
                requesters, config = active.pop(rng.randrange(len(active)))
                action = DeltaAction.RELEASE
                want_requesters.subtract(requesters)
                want_config.subtract(
                    c for c in config if c.kind in COUNTED_CONFIG_KINDS
                )
            else:
                requesters = tuple(
                    rng.choices(requester_pool, k=rng.randrange(1, 4))
                )
                config = base + tuple(
                    rng.sample(counted_pool, rng.randrange(0, 4))
                )
                active.append((requesters, config))
                action = DeltaAction.REQUEST
                want_requesters.update(requesters)
                want_config.update(
                    c for c in config if c.kind in COUNTED_CONFIG_KINDS
                )
            ledger, rejection = apply_demand(
                ledger,
                DemandDelta(
                    action=action,
                    requesters=requesters,
                    config_items=config,
                ),
            )
            assert rejection is None
            assert ledger.requester_counts == {
                k: v for k, v in want_requesters.items() if v > 0
            }
            assert ledger.config_counts == {
                k: v for k, v in want_config.items() if v > 0
            }
            assert ledger.base_config == base
    assert time.perf_counter() - started < 10.0


def test_c06_duplicate_delivery_is_idempotent(reference_scenario, reference_run):
    doubled = run_scenario(reference_scenario, duplicate_delivery=True).trace
    for tag in (TAG_LEDGER, TAG_ACTION, TAG_TOPICS):
        assert records(doubled, tag) == records(reference_run.trace, tag), tag


def test_c07_full_round_trip_drains_everything(reference_run, reference_scenario):
    assert_system_empty(reference_run.system)

    # and the same holds for a single hand-delivered request/release pair
    system = build_system(reference_scenario)
    shape = dict(
        app_name=APP,
        requesters=("V0", "S"),
        inputs=(("V0", "ego"), ("V0", "pointcloud"), ("S", "pointcloud")),
    )
    deliver(system, DeploymentRequest(
        request_id="round-1", action=DeltaAction.REQUEST, **shape
    ))
    drain(system)
    assert system.store.total_resources() == 5
    assert len(system.sim.instances()) == 7
    deliver(system, DeploymentRequest(
        request_id="round-2", action=DeltaAction.RELEASE, **shape
    ))
    drain(system)
    assert_system_empty(system)


def test_c08_rolling_upgrade_replaces_once_keeps_support(upgrade_run):
    trace = upgrade_run.trace
    replaces = [
        r for r in records(trace, TAG_ACTION) if r.get("action") == "replace"
    ]
    # exactly the three live service resources, each replaced once, all
    # inside the upgrade step; connections have no version and stay put
    assert sorted(r.get("cr") for r in replaces) == sorted(
        [OBJDET_S, OBJDET_V0, FUSION]
    )
    assert {r.step for r in replaces} == {4}
    for record in replaces:
        old = record.values("replaced")
        new = record.values("instances")
        assert old and new and set(old).isdisjoint(new)
    assert stepwise_support(trace) == EXPECTED_SUPPORT
    assert_system_empty(upgrade_run.system)


def test_c09_runs_are_deterministic_and_match_golden():
    for name in (
        "collective_perception",
        "collective_perception_upgrade",
        "waypoint_drive",
    ):
        scenario = load_scenario(bundled_scenario_path(name))
        first = run_scenario(scenario).trace
        second = run_scenario(scenario).trace
        assert first.render() == second.render(), name

        golden = bundled_scenario_path(name).with_suffix(".trace")
        report = assert_trace(first, golden)
        assert report.ok, f"{name}: {report.describe()}"
        assert first.render() == golden.read_text(encoding="utf-8"), name

        doubled = run_scenario(scenario, duplicate_delivery=True).trace
        report = assert_trace(doubled, golden)
        assert report.ok, f"{name} (duplicate delivery): {report.describe()}"


def test_c10_hundred_vehicle_scale_run():
    started = time.perf_counter()
    runner = run_scenario(make_scale_scenario(100))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"scale run took {elapsed:.1f}s"

    trace = runner.trace
    fusion_actions = Counter(
        r.get("action")
        for r in records(trace, TAG_ACTION)
        if r.get("cr") == FUSION
    )
    # grows by one input topic per arriving vehicle and shrinks again per
    # departing one: 99 + 99 reconfigurations around one deploy/terminate
    assert fusion_actions == {"deploy": 1, "reconfigure": 198, "terminate": 1}
    for cr in (OBJDET_S, CONN_S):
        assert len(actions_for(trace, cr, "deploy")) == 1, cr
        assert len(actions_for(trace, cr, "terminate")) == 1, cr
    assert_system_empty(runner.system)
