"""Seeded workload generators for the demandflow benchmark.

Each workload turns a seed into the inputs the program receives: raw
scenario mappings that `scenario_from_mapping` validates or, for
`scale`, the size passed to the generator the package ships.  A seed
gives one input per episode; measured runs cycle through the episodes.
The same seed always gives the same inputs.  Sizes are fixed per
workload so that seeds change which vehicles do what and when, not how
much work there is.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from demandflow import ScenarioRunner, make_scale_scenario
from demandflow.scenario import Scenario, scenario_from_mapping

APP = "object-detection-fusion"
VERSIONS = ("v1", "v2", "v3")
D_START = 150.0
D_STOP = 170.0
LIDAR_SHARE = 0.3

SCALE_VEHICLES = 100

CHURN_VEHICLES = 12
CHURN_STEPS = 1000
CHURN_UPGRADE_EVERY = 50
# Independent walks per seed.  The per-tick cost of one 1000-step walk
# depends on its seed by about 5% at the median and 10% at p99; longer
# walks mean longer runs, which calibrate worse (see calibrate.py).
CHURN_EPISODES = 3

DRIVE_VEHICLES = 80
DRIVE_TICKS = 1000
DRIVE_DWELL_SHARE = 0.25
DRIVE_APPROACH = 260.0     # start and end distance along the pass
DRIVE_MAX_OFFSET = 120.0   # closest approach, well inside d_start
DRIVE_BAND = 160.0         # dwell distance, inside the hysteresis band


def fusion_app(version: str) -> dict:
    """The reference detection-and-fusion application at one version."""
    return {
        "name": APP,
        "version": version,
        "parts": [
            {
                "role": "objdet",
                "kind": "object-detection",
                "placement": "edge",
                "per_source": "pointcloud",
                "output_topic": "/detections/{source}/objects",
            },
            {
                "role": "fusion",
                "kind": "object-fusion",
                "placement": "edge",
                "inputs": ["demand:ego", "outputs:objdet"],
                "output_topic": "/fusion/objects",
            },
        ],
    }


def _fleet(rng: random.Random, prefix: str, count: int) -> tuple[list[dict], list[str]]:
    """`count` vehicles, a fixed share of them lidar-carrying, chosen by `rng`."""
    ids = [f"{prefix}{i:03d}" for i in range(count)]
    lidar = set(rng.sample(ids, round(LIDAR_SHARE * count)))
    entities = [
        {
            "id": v,
            "role": "cv",
            "capabilities": ["ego", "pointcloud"] if v in lidar else ["ego"],
        }
        for v in ids
    ]
    return entities, ids


def _infrastructure() -> list[dict]:
    return [
        {"id": "S", "role": "risu", "capabilities": ["pointcloud"]},
        {"id": "E", "role": "edge"},
        {"id": "C", "role": "cloud"},
    ]


def _geofence() -> dict:
    return {
        "center": [0.0, 0.0],
        "d_start": D_START,
        "d_stop": D_STOP,
        "application": APP,
        "risu": "S",
    }


def churn_mapping(seed: int) -> dict:
    """A random enter/leave walk with a rolling upgrade every ~50 steps.

    Each step toggles one uniformly chosen vehicle, so no vehicle leaves
    without having entered.  An upgrade falls due every
    CHURN_UPGRADE_EVERY steps and is applied at the first step at which
    something is live, because upgrading nothing is rejected.
    """
    rng = random.Random(seed)
    entities, ids = _fleet(rng, "C", CHURN_VEHICLES)
    live: set[str] = set()
    events: list[dict] = []
    version = 0
    upgrade_due = False
    for index in range(CHURN_STEPS):
        if index and index % CHURN_UPGRADE_EVERY == 0:
            upgrade_due = True
        if upgrade_due and live:
            version = (version + 1) % len(VERSIONS)
            events.append({
                "step": len(events) + 1,
                "upgrade": {"application": APP, "version": VERSIONS[version]},
            })
            upgrade_due = False
        vehicle = rng.choice(ids)
        if vehicle in live:
            live.remove(vehicle)
            events.append({"step": len(events) + 1, "leave": vehicle})
        else:
            live.add(vehicle)
            events.append({"step": len(events) + 1, "enter": vehicle})
    for vehicle in sorted(live):
        events.append({"step": len(events) + 1, "leave": vehicle})
    return {
        "name": f"churn-{seed}",
        "entities": [*entities, *_infrastructure()],
        "applications": [fusion_app(v) for v in VERSIONS],
        "geofence": _geofence(),
        "timeline": {"mode": "scripted", "settle_ticks": 0, "events": events},
    }


def _point(heading: float, offset: float, along: float) -> dict[str, float]:
    """The point `along` units down a line that passes `offset` from the center."""
    dx, dy = math.cos(heading), math.sin(heading)
    return {"x": offset * -dy + along * dx, "y": offset * dx + along * dy}


def drive_mapping(seed: int) -> dict:
    """Straight passes through the zone at random times, headings and speeds.

    Every vehicle starts DRIVE_APPROACH units before its closest approach
    and ends as far beyond it, so it enters and leaves exactly once and
    is outside again before the last tick.  Speeds centre on the 10
    units per tick of the bundled waypoint scenario, so few vehicles are
    inside at once and the zone empties now and then.  A share of
    vehicles stop twice at DRIVE_BAND from the center, in the hysteresis
    band: on the way in, while still outside, and on the way out, while
    still inside.
    """
    rng = random.Random(seed)
    entities, ids = _fleet(rng, "D", DRIVE_VEHICLES)
    routes: dict[str, list[dict]] = {}
    for vehicle in ids:
        heading = rng.uniform(0.0, 2 * math.pi)
        offset = rng.uniform(-DRIVE_MAX_OFFSET, DRIVE_MAX_OFFSET)
        speed = rng.uniform(5.0, 15.0)
        dwell = rng.randint(20, 80) if rng.random() < DRIVE_DWELL_SHARE else 0
        band = math.sqrt(DRIVE_BAND**2 - offset**2)
        if dwell:
            stops = [(-DRIVE_APPROACH, 0), (-band, dwell), (band, dwell),
                     (DRIVE_APPROACH, 0)]
        else:
            stops = [(-DRIVE_APPROACH, 0), (DRIVE_APPROACH, 0)]
        duration = sum(
            math.ceil(abs(b - a) / speed) for (a, _), (b, _) in zip(stops, stops[1:])
        ) + 2 * dwell
        t = rng.randint(1, DRIVE_TICKS - duration - 10)
        route: list[dict] = []
        previous = None
        for along, hold in stops:
            if previous is not None:
                t += math.ceil(abs(along - previous) / speed)
            route.append({"t": t, **_point(heading, offset, along)})
            if hold:
                t += hold
                route.append({"t": t, **_point(heading, offset, along)})
            previous = along
        routes[vehicle] = route
    return {
        "name": f"drive-{seed}",
        "entities": [*entities, *_infrastructure()],
        "applications": [fusion_app("v1")],
        "geofence": _geofence(),
        "timeline": {"mode": "waypoints", "waypoints": routes},
        "tick_budget": DRIVE_TICKS,
    }


def churn_episodes(seed: int) -> list[dict]:
    return [
        churn_mapping(seed * CHURN_EPISODES + episode)
        for episode in range(CHURN_EPISODES)
    ]


@dataclass(frozen=True)
class Workload:
    """How to make one workload's inputs and hand one to the program.

    `generate` is the benchmark's own work and is not timed; it returns
    one input per episode.  `load` is the program's scenario generation
    or validation and is part of set-up.
    """

    name: str
    generate: Callable[[int], list[Any]]
    load: Callable[[Any], Scenario]
    duplicate_delivery: bool = False

    def setup(self, raw: Any, trace=None) -> ScenarioRunner:
        return ScenarioRunner(
            self.load(raw), duplicate_delivery=self.duplicate_delivery, trace=trace
        )


WORKLOADS = {
    "scale": Workload(
        "scale",
        generate=lambda seed: [SCALE_VEHICLES],
        load=make_scale_scenario,
    ),
    "churn": Workload(
        "churn",
        generate=churn_episodes,
        load=scenario_from_mapping,
        duplicate_delivery=True,
    ),
    "drive": Workload(
        "drive",
        generate=lambda seed: [drive_mapping(seed)],
        load=scenario_from_mapping,
    ),
}
