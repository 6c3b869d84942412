"""Geofence detector: hysteresis, request content, release symmetry."""

import random

import pytest

from demandflow.detector import EventDetector, GeofenceRule
from demandflow.model import (
    DeltaAction,
    Entity,
    EntityRole,
    Topology,
    UnknownEntityError,
)

from test_catalog import reference_topology

CENTER = (0.0, 0.0)


def make_rule(**overrides):
    kwargs = dict(
        app_name="object-detection-fusion",
        risu_id="S",
        center=CENTER,
        d_start=150.0,
        d_stop=170.0,
    )
    kwargs.update(overrides)
    return GeofenceRule(**kwargs)


@pytest.fixture
def detector():
    return EventDetector(make_rule(), reference_topology())


def test_rule_validation():
    with pytest.raises(ValueError):
        make_rule(d_start=180.0, d_stop=170.0)
    with pytest.raises(ValueError):
        make_rule(d_start=0.0, d_stop=10.0)
    # equal thresholds are allowed (degenerate but consistent)
    make_rule(d_start=150.0, d_stop=150.0)


def test_enter_emits_full_demand(detector):
    detector.observe_pose("V0", CENTER)
    (request,) = detector.evaluate(tick=3)
    assert request.request_id == "req-0001"
    assert request.action is DeltaAction.REQUEST
    assert request.app_name == "object-detection-fusion"
    assert request.requesters == ("V0", "S")
    # V0 has a sensor, so it contributes ego and pointcloud; the
    # infrastructure unit always contributes its pointcloud
    assert request.inputs == (
        ("V0", "ego"),
        ("V0", "pointcloud"),
        ("S", "pointcloud"),
    )
    assert request.issued_at == 3


def test_ego_only_vehicle_demands_only_ego(detector):
    detector.observe_pose("V1", CENTER)
    (request,) = detector.evaluate(tick=1)
    assert request.inputs == (("V1", "ego"), ("S", "pointcloud"))


def test_hysteresis_band_walk(detector):
    # d_start 150 inclusive, d_stop 170 exclusive on the way out
    steps = [
        ((200.0, 0.0), 0),  # far outside
        ((150.0, 0.0), 1),  # exactly d_start: enter
        ((160.0, 0.0), 0),  # inside the band: no flap
        ((170.0, 0.0), 0),  # exactly d_stop: still inside
        ((170.001, 0.0), 1),  # past d_stop: leave
        ((160.0, 0.0), 0),  # band again, now outside: stays out
        ((149.0, 0.0), 1),  # re-enter
    ]
    actions = []
    for tick, (pos, expected) in enumerate(steps):
        detector.observe_pose("V0", pos)
        emitted = detector.evaluate(tick)
        assert len(emitted) == expected, f"at pos {pos}"
        actions.extend(r.action for r in emitted)
    assert actions == [
        DeltaAction.REQUEST,
        DeltaAction.RELEASE,
        DeltaAction.REQUEST,
    ]
    assert detector.is_inside("V0")


def test_release_mirrors_request(detector):
    detector.observe_pose("V0", CENTER)
    (request,) = detector.evaluate(0)
    detector.observe_pose("V0", (500.0, 0.0))
    (release,) = detector.evaluate(1)
    assert release.action is DeltaAction.RELEASE
    assert release.requesters == request.requesters
    assert release.inputs == request.inputs
    assert release.request_id != request.request_id


def test_simultaneous_transitions_sorted_by_entity_id(detector):
    for vid in ("V2", "V0", "V1"):
        detector.observe_pose(vid, CENTER)
    requests = detector.evaluate(0)
    assert [r.requesters[0] for r in requests] == ["V0", "V1", "V2"]
    assert [r.request_id for r in requests] == [
        "req-0001",
        "req-0002",
        "req-0003",
    ]


def test_pose_is_last_writer_wins(detector):
    detector.observe_pose("V0", (500.0, 0.0))
    detector.observe_pose("V0", CENTER)
    assert len(detector.evaluate(0)) == 1


def test_only_vehicles_have_poses(detector):
    with pytest.raises(UnknownEntityError):
        detector.observe_pose("S", CENTER)
    with pytest.raises(UnknownEntityError):
        detector.observe_pose("E", CENTER)
    with pytest.raises(UnknownEntityError):
        detector.observe_pose("nope", CENTER)


def test_rule_requires_known_risu():
    with pytest.raises(UnknownEntityError):
        EventDetector(make_rule(risu_id="ghost"), reference_topology())


def test_detector_needs_an_edge_node():
    topology = Topology(
        entities=(
            Entity("V0", EntityRole.CV, capabilities=("ego",)),
            Entity("S", EntityRole.RISU, capabilities=("pointcloud",)),
        )
    )
    with pytest.raises(ValueError):
        EventDetector(make_rule(), topology)


@pytest.mark.parametrize("seed", range(20))
def test_random_walk_alternates_request_release(seed):
    # oracle: fold the hysteresis rule independently over the same walk
    rng = random.Random(seed)
    detector = EventDetector(make_rule(), reference_topology())
    inside = False
    history = []
    x = 300.0
    for tick in range(200):
        x = max(0.0, x + rng.uniform(-40.0, 40.0))
        detector.observe_pose("V0", (x, 0.0))
        emitted = detector.evaluate(tick)
        expected = None
        if not inside and x <= 150.0:
            inside = True
            expected = DeltaAction.REQUEST
        elif inside and x > 170.0:
            inside = False
            expected = DeltaAction.RELEASE
        if expected is None:
            assert emitted == []
        else:
            assert [r.action for r in emitted] == [expected]
            history.append(expected)
        assert detector.is_inside("V0") == inside
    # strict alternation starting with a request
    for i, action in enumerate(history):
        want = DeltaAction.REQUEST if i % 2 == 0 else DeltaAction.RELEASE
        assert action is want


def test_identical_walks_give_identical_requests():
    def run():
        detector = EventDetector(make_rule(), reference_topology())
        out = []
        for tick, x in enumerate([300, 100, 100, 400, 120]):
            detector.observe_pose("V0", (float(x), 0.0))
            out.extend(
                (r.request_id, r.action, r.requesters, r.inputs)
                for r in detector.evaluate(tick)
            )
        return out

    assert run() == run()
