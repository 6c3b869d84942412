"""Geofence-based event detection around an infrastructure-equipped zone.

The detector watches vehicle poses and emits deployment requests when a
vehicle enters the zone and release requests when it leaves.  Enter and
leave thresholds differ (hysteresis) so a vehicle hovering near the
boundary cannot flap the deployment.  The detector knows nothing about
what is currently deployed; a release is recomputed from scratch and
mirrors the content of the corresponding request by construction.

Only vehicles whose pose changed are evaluated again, which skips no
transition: once evaluated at pose p, a vehicle inside has d(p) <= d_stop
and one outside has d(p) > d_start, so neither can change sides at p.
A pose costs one set lookup of the vehicle ids, and an evaluation reads
the rule once and sorts the moved vehicles only when there are several.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .manager import DeploymentRequest
from .model import (
    DeltaAction,
    EntityRole,
    TOPIC_KIND_EGO,
    TOPIC_KIND_POINTCLOUD,
    Topology,
    UnknownEntityError,
)

log = logging.getLogger(__name__)

DEFAULT_D_START = 150.0
DEFAULT_D_STOP = 170.0


@dataclass(frozen=True)
class GeofenceRule:
    """One zone around an infrastructure unit and the application it wants.

    A vehicle is inside once its distance to the center is at most
    `d_start` and outside again once the distance exceeds `d_stop`;
    `d_stop >= d_start` is what provides the hysteresis band.
    """

    app_name: str
    risu_id: str
    center: tuple[float, float]
    d_start: float = DEFAULT_D_START
    d_stop: float = DEFAULT_D_STOP

    def __post_init__(self) -> None:
        if self.d_stop < self.d_start:
            raise ValueError("d_stop must be at least d_start")
        if self.d_start <= 0:
            raise ValueError("d_start must be positive")


class EventDetector:
    def __init__(self, rule: GeofenceRule, topology: Topology):
        topology.get(rule.risu_id)  # must exist
        topology.single_node_with_role(EntityRole.EDGE)  # exactly one
        self._rule = rule
        self._topology = topology
        self._vehicles = frozenset(
            e.entity_id for e in topology.with_role(EntityRole.CV)
        )
        self._poses: dict[str, tuple[float, float]] = {}
        self._inside: dict[str, bool] = {}
        self._moved: set[str] = set()  # pose changed since the last evaluate
        self._request_seq = 0

    def observe_pose(
        self, entity_id: str, position: tuple[float, float]
    ) -> None:
        """Record the latest pose of a vehicle (last writer wins)."""
        if entity_id not in self._vehicles:
            entity = self._topology.get(entity_id)  # raises if unknown
            raise UnknownEntityError(
                f"{entity_id} is a {entity.role.value}, only vehicles have poses"
            )
        if self._poses.get(entity_id) != position:
            self._poses[entity_id] = position
            self._moved.add(entity_id)

    def is_inside(self, entity_id: str) -> bool:
        return self._inside.get(entity_id, False)

    def evaluate(self, tick: int) -> list[DeploymentRequest]:
        """Emit one request per zone transition since the last evaluation.

        Moved vehicles are visited in id order so simultaneous transitions
        come out deterministically.
        """
        requests: list[DeploymentRequest] = []
        moved, self._moved = self._moved, set()
        if len(moved) > 1:
            moved = sorted(moved)
        rule, poses, inside_of = self._rule, self._poses, self._inside
        center, d_start, d_stop = rule.center, rule.d_start, rule.d_stop
        for entity_id in moved:
            distance = math.dist(center, poses[entity_id])
            inside = inside_of.get(entity_id, False)
            if not inside and distance <= d_start:
                inside_of[entity_id] = True
                log.debug("%s entered at d=%.1f (tick %d)", entity_id, distance, tick)
                requests.append(self._build(entity_id, DeltaAction.REQUEST, tick))
            elif inside and distance > d_stop:
                inside_of[entity_id] = False
                log.debug("%s left at d=%.1f (tick %d)", entity_id, distance, tick)
                requests.append(self._build(entity_id, DeltaAction.RELEASE, tick))
        return requests

    def _build(
        self, vehicle_id: str, action: DeltaAction, tick: int
    ) -> DeploymentRequest:
        self._request_seq += 1
        vehicle = self._topology.get(vehicle_id)
        risu_id = self._rule.risu_id  # checked at construction

        # The vehicle brings every source topic it is capable of; the
        # infrastructure unit is part of every demand at its zone.
        inputs: list[tuple[str, str]] = [(vehicle_id, TOPIC_KIND_EGO)]
        if vehicle.provides(TOPIC_KIND_POINTCLOUD):
            inputs.append((vehicle_id, TOPIC_KIND_POINTCLOUD))
        inputs.append((risu_id, TOPIC_KIND_POINTCLOUD))

        return DeploymentRequest(
            request_id=f"req-{self._request_seq:04d}",
            action=action,
            app_name=self._rule.app_name,
            requesters=(vehicle_id, risu_id),
            inputs=tuple(inputs),
            issued_at=tick,
        )
