"""Scenario schema: loading, validation errors, interpolation, generators."""

import copy
import math
import struct

import pytest
import yaml
from hypothesis import given, strategies as st

from demandflow.cli import bundled_scenario_path
from demandflow.manager import DeploymentRequest
from demandflow.model import (
    DeltaAction,
    EntityRole,
    ScenarioParseError,
    ScenarioValidationError,
)
from demandflow.scenario import (
    Waypoint,
    along,
    interpolate,
    load_request_file,
    load_scenario,
    make_scale_scenario,
    scenario_from_mapping,
)


@pytest.fixture(scope="module")
def reference_raw():
    path = bundled_scenario_path("collective_perception")
    return yaml.safe_load(path.read_text(encoding="utf-8"))


def variant(reference_raw, mutate):
    raw = copy.deepcopy(reference_raw)
    mutate(raw)
    return raw


def expect_invalid(raw, needle):
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_mapping(raw, origin="case")
    assert needle in str(info.value)
    assert str(info.value).startswith("case:")


def test_reference_scenario_loads(reference_scenario):
    s = reference_scenario
    assert s.name == "collective-perception"
    assert len(s.entities) == 7
    assert [t.version for t in s.templates] == ["v1"]
    assert s.rule.d_start == 150.0
    assert s.rule.d_stop == 170.0
    assert s.timeline.mode == "scripted"
    assert s.timeline.window == 3
    assert len(s.timeline.events) == 8
    # budget defaults to one window per event
    assert s.tick_budget == 24
    assert s.entity("V0").provides("pointcloud")
    assert not s.entity("V1").provides("pointcloud")
    with pytest.raises(KeyError):
        s.entity("nope")


def test_upgrade_scenario_loads(upgrade_scenario):
    assert [t.version for t in upgrade_scenario.templates] == ["v1", "v2"]
    upgrades = [e for e in upgrade_scenario.timeline.events if e.upgrade]
    assert [e.upgrade for e in upgrades] == [("object-detection-fusion", "v2")]


def test_waypoint_scenario_loads(waypoint_scenario):
    assert waypoint_scenario.timeline.mode == "waypoints"
    assert set(waypoint_scenario.timeline.waypoints) == {"V0", "V1"}
    assert waypoint_scenario.tick_budget == 100


def test_yaml_error_reports_line(tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("name: x\nentities:\n  - {id: V0, role: cv\n")
    with pytest.raises(ScenarioParseError) as info:
        load_scenario(bad)
    assert "broken.yaml" in str(info.value)
    assert "line" in str(info.value)


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ScenarioParseError):
        load_scenario(tmp_path / "missing.yaml")


def test_top_level_must_be_mapping():
    with pytest.raises(ScenarioValidationError):
        scenario_from_mapping(["not", "a", "mapping"])
    with pytest.raises(ScenarioValidationError):
        scenario_from_mapping({"entities": []})  # no name


def test_entity_validation(reference_raw):
    expect_invalid(
        variant(reference_raw, lambda r: r["entities"].append(
            {"id": "V0", "role": "cv"}
        )),
        "duplicate entity V0",
    )
    for bad_id in ("9bad", "V9\n"):
        expect_invalid(
            variant(reference_raw, lambda r: r["entities"].append(
                {"id": bad_id, "role": "cv"}
            )),
            "bad entity id",
        )
    expect_invalid(
        variant(reference_raw, lambda r: r["entities"].append(
            {"id": "X", "role": "submarine"}
        )),
        "unknown role",
    )
    expect_invalid(
        variant(reference_raw, lambda r: r["entities"].append(
            {"id": "X", "role": "cv", "capabilities": ["sonar"]}
        )),
        "unknown capability",
    )
    expect_invalid(
        variant(reference_raw, lambda r: r["entities"].append(
            {"id": "E2", "role": "edge"}
        )),
        "exactly one edge",
    )
    expect_invalid(
        variant(reference_raw, lambda r: r["entities"].pop(5)),  # drop E
        "exactly one edge",
    )
    expect_invalid(
        variant(reference_raw, lambda r: r["entities"][1].update(node="V0")),
        "distinct nodes",
    )
    for node in (5, None, "9bad", "V0\n"):
        expect_invalid(
            variant(reference_raw, lambda r: r["entities"][1].update(node=node)),
            "bad node id",
        )


def test_application_validation(reference_raw):
    def dup_role(r):
        parts = r["applications"][0]["parts"]
        parts.append(dict(parts[0]))

    expect_invalid(variant(reference_raw, dup_role), "duplicate part role")

    def bad_kind(r):
        r["applications"][0]["parts"][0]["kind"] = "teleport"

    expect_invalid(variant(reference_raw, bad_kind), "bad part")

    def forward_ref(r):
        r["applications"][0]["parts"][0]["inputs"] = ["outputs:fusion"]
        del r["applications"][0]["parts"][0]["per_source"]

    expect_invalid(variant(reference_raw, forward_ref), "object-detection-fusion")

    def twice(r):
        r["applications"].append(copy.deepcopy(r["applications"][0]))

    expect_invalid(variant(reference_raw, twice), "declared twice")

    def on_cloud(r):
        r["entities"].pop(6)  # drop C
        for part in r["applications"][0]["parts"]:
            part["placement"] = "cloud"

    expect_invalid(variant(reference_raw, on_cloud), "exactly one cloud")

    def on_vehicles(r):
        for part in r["applications"][0]["parts"]:
            part["placement"] = "cv"

    expect_invalid(variant(reference_raw, on_vehicles), "exactly one cv")

    def split(r):
        r["applications"][0]["parts"][1]["placement"] = "cloud"

    expect_invalid(variant(reference_raw, split), "one placement role")

    # Names that would split or blur a trace field.
    for bad in (" ", ",", "="):
        def role(r):
            r["applications"][0]["parts"][1]["role"] = f"fu{bad}sion"

        expect_invalid(variant(reference_raw, role), "bad part role")

        def output_topic(r):
            r["applications"][0]["parts"][1]["output_topic"] = f"/fusion{bad}objects"

        expect_invalid(variant(reference_raw, output_topic), "bad output topic")


def test_geofence_validation(reference_raw):
    expect_invalid(
        variant(reference_raw, lambda r: r["geofence"].update(center=[0.0])),
        "center must be [x, y]",
    )
    expect_invalid(
        variant(reference_raw, lambda r: r["geofence"].update(application="ghost")),
        "unknown application",
    )
    expect_invalid(
        variant(reference_raw, lambda r: r["geofence"].update(risu="V0")),
        "must have the risu role",
    )
    expect_invalid(
        variant(reference_raw, lambda r: r["geofence"].update(risu="ghost")),
        "unknown entity",
    )
    expect_invalid(
        variant(
            reference_raw,
            lambda r: r["geofence"].update(d_start=200.0, d_stop=150.0),
        ),
        "d_stop",
    )


@pytest.mark.parametrize("key", ["d_start", "d_stop"])
@pytest.mark.parametrize(
    "value",
    [[1], "150", True, float("nan"), float("inf"), 10**400],
    ids=["list", "string", "bool", "nan", "inf", "huge-int"],
)
def test_geofence_distances_must_be_finite_numbers(reference_raw, key, value):
    expect_invalid(
        variant(reference_raw, lambda r: r["geofence"].update({key: value})),
        "d_start and d_stop must be finite numbers",
    )


@pytest.mark.parametrize(
    "center", [[True, 0.0], [0.0, False], [float("nan"), 0.0], [0.0, -float("inf")]]
)
def test_geofence_center_must_be_finite_numbers(reference_raw, center):
    expect_invalid(
        variant(reference_raw, lambda r: r["geofence"].update(center=center)),
        "center must be [x, y] of finite numbers",
    )


def test_integer_geofence_numbers_are_read_as_floats(reference_raw):
    raw = variant(
        reference_raw, lambda r: r["geofence"].update(center=[1, 2], d_start=100)
    )
    rule = scenario_from_mapping(raw).rule
    assert (rule.center, rule.d_start) == ((1.0, 2.0), 100.0)
    assert type(rule.d_start) is float


def test_timeline_validation(reference_raw):
    expect_invalid(
        variant(
            reference_raw,
            lambda r: r["timeline"]["events"].insert(0, {"step": 99, "enter": "V0"}),
        ),
        "non-decreasing",
    )
    expect_invalid(
        variant(
            reference_raw,
            lambda r: r["timeline"]["events"].append({"step": 9}),
        ),
        "exactly one of enter/leave/upgrade",
    )
    expect_invalid(
        variant(
            reference_raw,
            lambda r: r["timeline"]["events"].append(
                {"step": 9, "enter": "V0", "leave": "V1"}
            ),
        ),
        "exactly one of enter/leave/upgrade",
    )
    expect_invalid(
        variant(
            reference_raw,
            lambda r: r["timeline"]["events"].append({"step": 9, "enter": "S"}),
        ),
        "only vehicles",
    )
    expect_invalid(
        variant(
            reference_raw,
            lambda r: r["timeline"]["events"].append({"step": 9, "enter": "ghost"}),
        ),
        "unknown entity",
    )
    expect_invalid(
        variant(
            reference_raw,
            lambda r: r["timeline"]["events"].append(
                {"step": 9, "upgrade": {"application": "object-detection-fusion",
                                        "version": "v9"}}
            ),
        ),
        "unknown application version",
    )
    expect_invalid(
        variant(
            reference_raw,
            lambda r: r["timeline"].update(settle_ticks=-1),
        ),
        "settle_ticks",
    )
    expect_invalid(
        variant(reference_raw, lambda r: r["timeline"].update(settle_ticks=True)),
        "settle_ticks",
    )
    expect_invalid(
        variant(reference_raw, lambda r: r.update(tick_budget=True)),
        "tick_budget",
    )
    expect_invalid(
        variant(reference_raw, lambda r: r["timeline"].update(mode="improv")),
        "unknown timeline mode",
    )


def test_boolean_timeline_step_is_rejected(reference_raw):
    # True == 1 and isinstance(True, int); a loaded `step: true` would
    # render as step=True and fail to parse back from the trace
    expect_invalid(
        variant(
            reference_raw,
            lambda r: r["timeline"]["events"][0].update(step=True),
        ),
        "non-decreasing",
    )


def _fusion(raw):
    return raw["applications"][0]["parts"][1]


def _upgrade_to(application):
    def mutate(r):
        r["timeline"]["events"].append(
            {"step": 9, "upgrade": {"application": application, "version": "v1"}}
        )

    return mutate


# A value of the wrong shape must be refused before any lookup, set
# membership or tuple() can raise a TypeError on it.
@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda r: r["entities"][0].update(capabilities=5), "capabilities must"),
        (lambda r: r["entities"][0].update(capabilities=None), "capabilities must"),
        (lambda r: r["timeline"]["events"][0].update(enter=["V0"]), "unknown entity"),
        (_upgrade_to(["x"]), "unknown application version"),
        (lambda r: r["geofence"].update(application=["x"]), "unknown application"),
        (lambda r: r["geofence"].update(risu=["S"]), "unknown entity"),
        (lambda r: _fusion(r).update(inputs=5), "inputs must be a list"),
        (lambda r: _fusion(r).update(inputs=[5]), "bad selector 5"),
    ],
    ids=[
        "capabilities-number",
        "capabilities-null",
        "enter-list",
        "upgrade-application-list",
        "geofence-application-list",
        "geofence-risu-list",
        "part-inputs-number",
        "part-input-number",
    ],
)
def test_a_value_of_the_wrong_shape_is_rejected(reference_raw, mutate, needle):
    expect_invalid(variant(reference_raw, mutate), needle)


def test_waypoint_timeline_validation(reference_raw):
    def to_waypoints(points):
        def mutate(r):
            r["timeline"] = {"mode": "waypoints", "waypoints": {"V0": points}}
            r["tick_budget"] = 10

        return mutate

    good = [{"t": 0, "x": 0.0, "y": 0.0}, {"t": 5, "x": 1.0, "y": 0.0}]
    scenario_from_mapping(variant(reference_raw, to_waypoints(good)))

    expect_invalid(
        variant(reference_raw, to_waypoints([{"t": 0, "x": 0.0}])),
        "needs t, x, y",
    )
    expect_invalid(
        variant(
            reference_raw,
            to_waypoints([{"t": 5, "x": 0.0, "y": 0.0},
                          {"t": 5, "x": 1.0, "y": 0.0}]),
        ),
        "increasing ticks",
    )

    for point in (
        {"t": 2.7, "x": 0.0, "y": 0.0},  # not truncated to tick 2
        {"t": True, "x": 0.0, "y": 0.0},  # not read as tick 1
        {"t": "3", "x": 0.0, "y": 0.0},
        {"t": 3, "x": float("nan"), "y": 0.0},
        {"t": 3, "x": 0.0, "y": float("inf")},
        {"t": 3, "x": "1.5", "y": 0.0},
        {"t": 3, "x": 0.0, "y": False},
        [3, 0.0, 0.0],
    ):
        expect_invalid(
            variant(reference_raw, to_waypoints([point])),
            "an integer tick, finite coordinates",
        )

    def risu_route(r):
        r["timeline"] = {"mode": "waypoints", "waypoints": {"S": good}}
        r["tick_budget"] = 10

    expect_invalid(variant(reference_raw, risu_route), "not a vehicle")

    def no_budget(r):
        r["timeline"] = {"mode": "waypoints", "waypoints": {"V0": good}}
        r.pop("tick_budget", None)

    expect_invalid(variant(reference_raw, no_budget), "tick_budget")


def test_empty_scripted_timeline_is_valid(reference_raw):
    raw = variant(reference_raw, lambda r: r["timeline"].update(events=[]))
    scenario = scenario_from_mapping(raw)
    assert scenario.timeline.events == ()
    assert scenario.tick_budget == 0


def test_interpolate_matches_linear_oracle():
    route = (
        Waypoint(0, 0.0, 0.0),
        Waypoint(10, 100.0, 0.0),
        Waypoint(20, 100.0, 50.0),
    )
    assert interpolate(route, -5) == (0.0, 0.0)
    assert interpolate(route, 0) == (0.0, 0.0)
    assert interpolate(route, 3) == (30.0, 0.0)
    assert interpolate(route, 10) == (100.0, 0.0)
    assert interpolate(route, 15) == (100.0, 25.0)
    assert interpolate(route, 99) == (100.0, 50.0)
    with pytest.raises(ValueError):
        interpolate((), 0)


def test_interpolate_returns_each_waypoint_exactly_on_its_tick():
    # Here a.x + 1.0 * (b.x - a.x) is not b.x: the last waypoint lies on
    # the d_start circle, but that sum puts it 150.00000000000003 away.
    start = Waypoint(0, -261.0, -100.0)
    end = Waypoint(10, -122.39765766268816, -86.71109155516032)
    assert math.dist((0.0, 0.0), (end.x, end.y)) == 150.0
    assert interpolate((start, end), 10) == (end.x, end.y)
    assert interpolate((start, end, Waypoint(20, 0.0, 0.0)), 10) == (end.x, end.y)


def inline_pose(route, tick):
    """The pose formula as it stood inline in `interpolate`, one scan."""
    if tick <= route[0].tick:
        return route[0].x, route[0].y
    for a, b in zip(route, route[1:]):
        if tick == b.tick:
            return b.x, b.y
        if tick < b.tick:
            f = (tick - a.tick) / (b.tick - a.tick)
            return a.x + f * (b.x - a.x), a.y + f * (b.y - a.y)
    return route[-1].x, route[-1].y


def bits(pose):
    return struct.pack("<2d", *pose)


coordinates = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def routes(draw):
    """Waypoints at strictly increasing ticks, 1 to 30 apart."""
    tick, route = draw(st.integers(-50, 50)), []
    for gap, x, y in draw(st.lists(
        st.tuples(st.integers(1, 30), coordinates, coordinates),
        min_size=1, max_size=6,
    )):
        route.append(Waypoint(tick, x, y))
        tick += gap
    return tuple(route)


@given(routes())
def test_along_interpolate_twin(route):
    # Every tick of every leg, its end tick included: `along` is the leg
    # formula `interpolate` ran inline, to the bit, and `interpolate` too.
    for a, b in zip(route, route[1:]):
        for tick in range(a.tick + 1, b.tick + 1):
            want = bits(inline_pose(route, tick))
            assert bits(along(a, b, tick)) == want
            assert bits(interpolate(route, tick)) == want
    for tick in (route[0].tick - 1, route[0].tick, route[-1].tick + 1):
        assert bits(interpolate(route, tick)) == bits(inline_pose(route, tick))


def test_scale_scenario_shape():
    scenario = make_scale_scenario(5)
    vehicles = [e for e in scenario.entities if e.role is EntityRole.CV]
    assert [v.entity_id for v in vehicles] == [
        "V000", "V001", "V002", "V003", "V004",
    ]
    assert all(v.capabilities == ("ego",) for v in vehicles)
    events = scenario.timeline.events
    assert len(events) == 10
    assert [e.enter for e in events[:5]] == [v.entity_id for v in vehicles]
    assert [e.leave for e in events[5:]] == [v.entity_id for v in vehicles]
    assert scenario.tick_budget == 10 * scenario.timeline.window
    with pytest.raises(ValueError):
        make_scale_scenario(0)


def test_request_file_round_trip(tmp_path):
    path = tmp_path / "request.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "request": {
                    "id": "manual-1",
                    "action": "request",
                    "application": "object-detection-fusion",
                    "requesters": ["V0", "S"],
                    "inputs": ["V0:ego", "S:pointcloud"],
                }
            }
        )
    )
    assert load_request_file(path) == DeploymentRequest(
        request_id="manual-1",
        action=DeltaAction.REQUEST,
        app_name="object-detection-fusion",
        requesters=("V0", "S"),
        inputs=(("V0", "ego"), ("S", "pointcloud")),
    )


def test_request_file_validation(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("request: {id: x, action: request}\n")
    with pytest.raises(ScenarioValidationError) as info:
        load_request_file(path)
    assert "missing" in str(info.value)
    path.write_text("[]\n")
    with pytest.raises(ScenarioValidationError):
        load_request_file(path)
    path.write_text("a: [b\n")
    with pytest.raises(ScenarioParseError) as info:
        load_request_file(path)
    assert str(info.value).startswith("bad.yaml at line 2:")
