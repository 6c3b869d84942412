"""Scenario files: schema, loading, validation, and generators.

A scenario bundles the entity topology, the application templates, the
geofence rule, and a timeline.  Timelines come in two flavors: scripted
(an ordered list of enter/leave/upgrade steps, each given a settle window
of ticks) and waypoints (per-vehicle piecewise-linear trajectories that
the runner samples while they move).  Loading is one pass over a mapping:
entities and scripted events become read-only tuples, the topology is
built once and kept for the runner, and each template gets the checks of
registering without a rule compiled, so a set-up compiles each rule once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, NamedTuple

import yaml

from .catalog import ApplicationTemplate, PartRule
from .detector import DEFAULT_D_START, DEFAULT_D_STOP, GeofenceRule
from .manager import DeploymentRequest
from .model import (
    AlreadyRegisteredError,
    DeltaAction,
    Entity,
    EntityRole,
    ID_RE,
    ScenarioParseError,
    ScenarioValidationError,
    ServiceKind,
    TOPIC_KINDS,
    Topology,
)

MODE_SCRIPTED = "scripted"
MODE_WAYPOINTS = "waypoints"

DEFAULT_SETTLE_TICKS = 2


class ScriptedEvent(NamedTuple):
    step: int
    enter: str | None = None
    leave: str | None = None
    upgrade: tuple[str, str] | None = None  # (application, version)


@dataclass(frozen=True)
class Waypoint:
    tick: int
    x: float
    y: float


@dataclass(frozen=True)
class Timeline:
    mode: str
    events: tuple[ScriptedEvent, ...] = ()
    waypoints: Mapping[str, tuple[Waypoint, ...]] = field(default_factory=dict)
    settle_ticks: int = DEFAULT_SETTLE_TICKS

    @property
    def window(self) -> int:
        """Ticks per scripted step: the event tick plus the settle ticks."""
        return 1 + self.settle_ticks


@dataclass(frozen=True)
class Scenario:
    name: str
    entities: tuple[Entity, ...]
    rule: GeofenceRule
    templates: tuple[ApplicationTemplate, ...]
    timeline: Timeline
    tick_budget: int
    # Built from `entities` while loading; the runner uses this one.
    topology: Topology = field(compare=False, repr=False)

    def entity(self, entity_id: str) -> Entity:
        for entity in self.entities:
            if entity.entity_id == entity_id:
                return entity
        raise KeyError(entity_id)


def interpolate(waypoints: tuple[Waypoint, ...], tick: int) -> tuple[float, float]:
    """Pose at `tick` along a piecewise-linear trajectory.

    On a waypoint's own tick the pose is that waypoint, exactly; outside
    the covered range it clamps to the first or last waypoint.
    """
    if not waypoints:
        raise ValueError("empty trajectory")
    if tick <= waypoints[0].tick:
        return waypoints[0].x, waypoints[0].y
    for a, b in zip(waypoints, waypoints[1:]):
        if tick <= b.tick:
            return along(a, b, tick)
    return waypoints[-1].x, waypoints[-1].y


def along(a: Waypoint, b: Waypoint, tick: int) -> tuple[float, float]:
    """Pose at `tick` on the leg from `a` to `b`, for a.tick < tick <= b.tick.

    On `b`'s own tick the pose is `b`, exactly: `a` plus the whole leg can
    differ from it in the last bit.
    """
    if tick == b.tick:
        return b.x, b.y
    f = (tick - a.tick) / (b.tick - a.tick)
    return a.x + f * (b.x - a.x), a.y + f * (b.y - a.y)


# --------------------------------------------------------------------------
# Loading
# --------------------------------------------------------------------------


def _finite(value: Any) -> bool:
    """An int or float that converts to a finite float; a bool is neither."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _read_yaml(path: Path) -> Any:
    """The YAML document in `path`; a syntax error names its line."""
    try:
        return yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ScenarioParseError(f"{path.name}{where}: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioParseError(f"{path.name}: nested too deeply to parse") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path.name}: {exc}") from exc
    except OSError as exc:
        raise ScenarioParseError(str(exc)) from exc


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return scenario_from_mapping(_read_yaml(path), origin=path.name)


def scenario_from_mapping(raw: Any, origin: str = "<inline>") -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioValidationError(f"{origin}: top level must be a mapping")

    def fail(message: str) -> ScenarioValidationError:
        return ScenarioValidationError(f"{origin}: {message}")

    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise fail("missing scenario name")

    entities = _parse_entities(raw.get("entities"), fail)
    by_id = {e.entity_id: e for e in entities}
    if sum(1 for e in entities if e.role is EntityRole.EDGE) != 1:
        raise fail("exactly one edge entity is required")
    try:
        topology = Topology(entities)
    except ValueError as exc:
        raise fail(str(exc)) from None
    templates = _parse_applications(raw.get("applications"), topology, fail)

    rule = _parse_geofence(raw.get("geofence"), by_id, templates, fail)

    timeline = _parse_timeline(raw.get("timeline"), by_id, templates, fail)

    budget = raw.get("tick_budget")
    if budget is None:
        if timeline.mode == MODE_SCRIPTED:
            budget = len(timeline.events) * timeline.window
        else:
            raise fail("waypoint scenarios must set tick_budget")
    if type(budget) is not int or budget < 0:
        raise fail("tick_budget must be a non-negative integer")

    return Scenario(
        name=name,
        entities=entities,
        rule=rule,
        templates=templates,
        timeline=timeline,
        tick_budget=budget,
        topology=topology,
    )


# Role value -> role: one lookup per entity instead of an Enum call.
_ROLES = {role.value: role for role in EntityRole}


def _parse_entities(raw: Any, fail) -> tuple[Entity, ...]:
    if not isinstance(raw, list) or not raw:
        raise fail("entities must be a non-empty list")
    entities: list[Entity] = []
    for item in raw:
        if not isinstance(item, dict):
            raise fail("each entity must be a mapping")
        entity_id = item.get("id")
        if not isinstance(entity_id, str) or not ID_RE.fullmatch(entity_id):
            raise fail(f"bad entity id {entity_id!r}")
        role_raw = item.get("role")
        try:
            role = _ROLES[role_raw]
        except (KeyError, TypeError):  # not a role value, or unhashable
            raise fail(f"entity {entity_id}: unknown role {role_raw!r}") from None
        capabilities = item.get("capabilities", [])
        if not isinstance(capabilities, list):
            raise fail(f"entity {entity_id}: capabilities must be a list")
        node_id = item.get("node", entity_id)  # the default is the id, matched above
        if node_id is not entity_id and not (
            isinstance(node_id, str) and ID_RE.fullmatch(node_id)
        ):
            raise fail(f"entity {entity_id}: bad node id {node_id!r}")
        try:
            entities.append(Entity(entity_id, role, tuple(capabilities), node_id))
        except ValueError as exc:
            raise fail(str(exc)) from None
    return tuple(entities)


def _parse_applications(
    raw: Any, topology: Topology, fail
) -> tuple[ApplicationTemplate, ...]:
    if not isinstance(raw, list) or not raw:
        raise fail("applications must be a non-empty list")
    templates: dict[tuple[str, str], ApplicationTemplate] = {}
    for item in raw:
        if not isinstance(item, dict):
            raise fail("each application must be a mapping")
        app_name = item.get("name")
        version = item.get("version")
        if not isinstance(app_name, str) or not ID_RE.fullmatch(app_name):
            raise fail(f"bad application name {app_name!r}")
        if not isinstance(version, str) or not version:
            raise fail(f"application {app_name}: missing version")
        parts_raw = item.get("parts")
        if not isinstance(parts_raw, list) or not parts_raw:
            raise fail(f"application {app_name}: parts must be a non-empty list")
        parts: list[PartRule] = []
        for part in parts_raw:
            if not isinstance(part, dict):
                raise fail(f"application {app_name}: each part must be a mapping")
            try:
                inputs = part.get("inputs", [])
                if not isinstance(inputs, list):
                    raise ValueError("inputs must be a list")
                parts.append(
                    PartRule(
                        role=part["role"],
                        service_kind=ServiceKind(part["kind"]),
                        placement_role=EntityRole(part.get("placement", "edge")),
                        per_source_kind=part.get("per_source"),
                        input_selectors=tuple(inputs),
                        output_topic=part.get("output_topic"),
                    )
                )
            except (KeyError, ValueError) as exc:
                raise fail(f"application {app_name}: bad part ({exc})") from None
        template = ApplicationTemplate(
            app_name=app_name, version=version, parts=tuple(parts)
        )
        try:
            template.check(topology, templates)
        except AlreadyRegisteredError as exc:
            raise fail(f"application {exc}") from None
        except ValueError as exc:
            raise fail(f"application {app_name} {version}: {exc}") from None
        templates[app_name, version] = template
    return tuple(templates.values())


def _parse_geofence(
    raw: Any,
    by_id: dict[str, Entity],
    templates: tuple[ApplicationTemplate, ...],
    fail,
) -> GeofenceRule:
    if not isinstance(raw, dict):
        raise fail("geofence must be a mapping")
    center = raw.get("center")
    if (
        not isinstance(center, list)
        or len(center) != 2
        or not all(_finite(v) for v in center)
    ):
        raise fail("geofence center must be [x, y] of finite numbers")
    d_start = raw.get("d_start", DEFAULT_D_START)
    d_stop = raw.get("d_stop", DEFAULT_D_STOP)
    if not (_finite(d_start) and _finite(d_stop)):
        raise fail("geofence d_start and d_stop must be finite numbers")
    app_name = raw.get("application")
    if not any(t.app_name == app_name for t in templates):
        raise fail(f"geofence names unknown application {app_name!r}")
    risu_id = raw.get("risu")
    risu = by_id.get(risu_id) if isinstance(risu_id, str) else None
    if risu is None:
        raise fail(f"geofence names unknown entity {risu_id!r}")
    if risu.role is not EntityRole.RISU:
        raise fail(f"geofence entity {risu_id} must have the risu role")
    if "pointcloud" not in risu.capabilities:
        raise fail(f"geofence entity {risu_id} must provide pointcloud data")
    try:
        return GeofenceRule(
            app_name=app_name,
            risu_id=risu_id,
            center=(float(center[0]), float(center[1])),
            d_start=float(d_start),
            d_stop=float(d_stop),
        )
    except ValueError as exc:
        raise fail(f"geofence: {exc}") from None


def _parse_timeline(
    raw: Any,
    by_id: dict[str, Entity],
    templates: tuple[ApplicationTemplate, ...],
    fail,
) -> Timeline:
    if not isinstance(raw, dict):
        raise fail("timeline must be a mapping")
    mode = raw.get("mode", MODE_SCRIPTED)
    if mode == MODE_SCRIPTED:
        settle = raw.get("settle_ticks", DEFAULT_SETTLE_TICKS)
        if type(settle) is not int or settle < 0:
            raise fail("settle_ticks must be a non-negative integer")
        events_raw = raw.get("events", [])
        if not isinstance(events_raw, list):
            raise fail("timeline events must be a list")
        events: list[ScriptedEvent] = []
        last_step = 0
        vehicle = EntityRole.CV
        keys = [(t.app_name, t.version) for t in templates]  # `==`, no hash
        for item in events_raw:
            if not isinstance(item, dict) or "step" not in item:
                raise fail("each timeline event needs a step number")
            step = item["step"]
            if type(step) is not int or step < last_step:
                raise fail(f"timeline steps must be non-decreasing (step {step})")
            last_step = step
            enter, leave = "enter" in item, "leave" in item
            if enter + leave + ("upgrade" in item) != 1:
                raise fail(
                    f"step {step}: exactly one of enter/leave/upgrade required"
                )
            if not (enter or leave):
                up = item["upgrade"]
                if (
                    not isinstance(up, dict)
                    or "application" not in up
                    or "version" not in up
                ):
                    raise fail(f"step {step}: upgrade needs application and version")
                if (up["application"], up["version"]) not in keys:
                    raise fail(
                        f"step {step}: unknown application version "
                        f"{up['application']} {up['version']}"
                    )
                events.append(
                    ScriptedEvent(
                        step=step, upgrade=(up["application"], up["version"])
                    )
                )
                continue
            entity_id = item["enter" if enter else "leave"]
            entity = by_id.get(entity_id) if isinstance(entity_id, str) else None
            if entity is None:
                raise fail(f"step {step}: unknown entity {entity_id!r}")
            if entity.role is not vehicle:
                raise fail(
                    f"step {step}: {entity_id} is a {entity.role.value}, "
                    "only vehicles enter or leave"
                )
            events.append(
                ScriptedEvent(step, entity_id) if enter
                else ScriptedEvent(step, None, entity_id)
            )
        return Timeline(
            mode=MODE_SCRIPTED, events=tuple(events), settle_ticks=settle
        )

    if mode == MODE_WAYPOINTS:
        routes_raw = raw.get("waypoints")
        if not isinstance(routes_raw, dict) or not routes_raw:
            raise fail("waypoint timelines need a waypoints mapping")
        routes: dict[str, tuple[Waypoint, ...]] = {}
        for entity_id, points in routes_raw.items():
            entity = by_id.get(entity_id)
            if entity is None:
                raise fail(f"waypoints name unknown entity {entity_id!r}")
            if entity.role is not EntityRole.CV:
                raise fail(f"waypoints: {entity_id} is not a vehicle")
            if not isinstance(points, list) or not points:
                raise fail(f"waypoints for {entity_id} must be a non-empty list")
            parsed: list[Waypoint] = []
            last_tick = -1
            for point in points:
                point = point if isinstance(point, dict) else {}
                t, x, y = point.get("t"), point.get("x"), point.get("y")
                if type(t) is not int or not (_finite(x) and _finite(y)):
                    raise fail(
                        f"waypoints for {entity_id}: each point needs t, x, y "
                        "(an integer tick, finite coordinates)"
                    )
                wp = Waypoint(t, float(x), float(y))
                if wp.tick <= last_tick:
                    raise fail(
                        f"waypoints for {entity_id} must have increasing ticks"
                    )
                last_tick = wp.tick
                parsed.append(wp)
            routes[entity_id] = tuple(parsed)
        return Timeline(mode=MODE_WAYPOINTS, waypoints=routes)

    raise fail(f"unknown timeline mode {mode!r}")


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------


def make_scale_scenario(n_vehicles: int) -> Scenario:
    """A scenario with `n_vehicles` vehicles entering then leaving in turn.

    Used for load testing: demand ramps up to all vehicles at once, then
    back down to nothing.
    """
    if n_vehicles < 1:
        raise ValueError("need at least one vehicle")
    vehicles = [f"V{i:03d}" for i in range(n_vehicles)]
    raw = {
        "name": f"scale-{n_vehicles}",
        "entities": [
            *(
                {"id": v, "role": "cv", "capabilities": ["ego"]}
                for v in vehicles
            ),
            {"id": "S", "role": "risu", "capabilities": ["pointcloud"]},
            {"id": "E", "role": "edge"},
            {"id": "C", "role": "cloud"},
        ],
        "applications": [_reference_application()],
        "geofence": {
            "center": [0.0, 0.0],
            "application": "object-detection-fusion",
            "risu": "S",
        },
        "timeline": {
            "mode": "scripted",
            "events": [
                *(
                    {"step": i + 1, "enter": v}
                    for i, v in enumerate(vehicles)
                ),
                *(
                    {"step": n_vehicles + i + 1, "leave": v}
                    for i, v in enumerate(vehicles)
                ),
            ],
        },
    }
    return scenario_from_mapping(raw, origin=f"scale-{n_vehicles}")


def _reference_application() -> dict:
    return {
        "name": "object-detection-fusion",
        "version": "v1",
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


# --------------------------------------------------------------------------
# Injected request files
# --------------------------------------------------------------------------


def load_request_file(path: str | Path) -> DeploymentRequest:
    """The one deployment request of a file for the inject command.

    Its names become REQUEST trace fields, so they follow the name rule;
    whether its entities exist is checked when the request is handled.
    """
    path = Path(path)
    raw = _read_yaml(path)

    def fail(message: str) -> ScenarioValidationError:
        return ScenarioValidationError(f"{path.name}: {message}")

    if not isinstance(raw, dict) or "request" not in raw:
        raise fail("expected a top-level request mapping")
    request = raw["request"]
    if not isinstance(request, dict):
        raise fail("request must be a mapping")
    required = {"id", "action", "application", "requesters", "inputs"}
    missing = required - set(request)
    if missing:
        raise fail(f"request is missing {sorted(missing)}")
    for key in ("requesters", "inputs"):
        values = request[key]
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise fail(f"{key} must be a list of strings")
    names = [("id", request["id"]), ("application", request["application"])]
    names += [("requester", r) for r in request["requesters"]]
    for key, name in names:
        if not isinstance(name, str) or not ID_RE.fullmatch(name):
            raise fail(f"bad {key} {name!r}")
    try:
        action = DeltaAction(request["action"])
    except ValueError:
        raise fail(f"bad action {request['action']!r}") from None
    inputs = []
    for item in request["inputs"]:
        entity_id, sep, kind = item.partition(":")
        if not sep or not ID_RE.fullmatch(entity_id) or kind not in TOPIC_KINDS:
            raise fail(f"bad input {item!r}, expected entity:kind")
        inputs.append((entity_id, kind))
    return DeploymentRequest(
        request_id=request["id"],
        action=action,
        app_name=request["application"],
        requesters=tuple(request["requesters"]),
        inputs=tuple(inputs),
    )
