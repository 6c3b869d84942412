"""Checks on the benchmark's generators and harness.

    python3 -m pytest -q perfbench

Not part of the tier-1 suite: the drain-to-empty test runs every
workload once at full size, which takes tens of seconds.
"""

from collections import Counter

import pytest

import demandflow.runner as runner_module
import measure
import run
from demandflow.detector import EventDetector
from demandflow.model import Topology
from demandflow.scenario import interpolate, scenario_from_mapping
from workloads import (
    APP,
    CHURN_STEPS,
    CHURN_UPGRADE_EVERY,
    CHURN_VEHICLES,
    VERSIONS,
    WORKLOADS,
    churn_mapping,
    drive_mapping,
)


def test_command_line_names_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_input(name):
    generate = WORKLOADS[name].generate
    assert generate(7) == generate(7)


@pytest.mark.parametrize("generate", [churn_mapping, drive_mapping])
def test_seeds_differ(generate):
    assert generate(1) != generate(2)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_churn_leaves_only_present_vehicles_and_upgrades_only_live(seed):
    raw = churn_mapping(seed)
    live: set[str] = set()
    kinds = Counter()
    for event in raw["timeline"]["events"]:
        if "enter" in event:
            assert event["enter"] not in live
            live.add(event["enter"])
        elif "leave" in event:
            assert event["leave"] in live
            live.remove(event["leave"])
        else:
            assert live, f"upgrade at step {event['step']} with nothing live"
            assert event["upgrade"]["application"] == APP
            assert event["upgrade"]["version"] in VERSIONS
        kinds[next(k for k in ("enter", "leave", "upgrade") if k in event)] += 1
    assert not live
    assert kinds["upgrade"] >= CHURN_STEPS // CHURN_UPGRADE_EVERY - 1
    assert len(raw["entities"]) == CHURN_VEHICLES + 3


def test_drive_has_ticks_with_several_transitions():
    scenario = scenario_from_mapping(drive_mapping(1))
    detector = EventDetector(scenario.rule, Topology(scenario.entities))
    per_tick = []
    for tick in range(1, scenario.tick_budget + 1):
        for vehicle, route in scenario.timeline.waypoints.items():
            detector.observe_pose(vehicle, interpolate(route, tick))
        per_tick.append(len(detector.evaluate(tick)))
    assert max(per_tick) >= 2
    # every vehicle enters and leaves exactly once
    assert sum(per_tick) == 2 * len(scenario.timeline.waypoints)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_drains_to_empty(name):
    workload = WORKLOADS[name]
    for raw in workload.generate(1):
        result, _ = measure.timed_run(workload, raw)
        assert result.problems == []
        assert result.requests > 0
        assert len(result.tick_ms) == workload.load(raw).tick_budget


def test_smoke_passes_and_unwraps():
    originals = {f: getattr(runner_module, f) for f in ("deliver", "drain", "publish_source_data")}
    assert measure.smoke()
    for name, function in originals.items():
        assert getattr(runner_module, name) is function
