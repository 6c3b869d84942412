"""Geofence-based event detection around an infrastructure-equipped zone.

The detector watches vehicle poses and emits deployment requests when a
vehicle enters the zone and release requests when it leaves.  Enter and
leave thresholds differ (hysteresis) so a vehicle hovering near the
boundary cannot flap the deployment.  The detector knows nothing about
what is currently deployed; a release is recomputed from scratch and
mirrors the content of the corresponding request by construction.
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

    def distance(self, position: tuple[float, float]) -> float:
        return math.dist(self.center, position)


class EventDetector:
    def __init__(self, rule: GeofenceRule, topology: Topology):
        topology.get(rule.risu_id)  # must exist
        topology.single_node_with_role(EntityRole.EDGE)  # exactly one
        self._rule = rule
        self._topology = topology
        self._poses: dict[str, tuple[float, float]] = {}
        self._inside: dict[str, bool] = {}
        self._request_seq = 0

    def observe_pose(
        self, entity_id: str, position: tuple[float, float]
    ) -> None:
        """Record the latest pose of a vehicle (last writer wins)."""
        entity = self._topology.get(entity_id)
        if entity.role is not EntityRole.CV:
            raise UnknownEntityError(
                f"{entity_id} is a {entity.role.value}, only vehicles have poses"
            )
        self._poses[entity_id] = position

    def is_inside(self, entity_id: str) -> bool:
        return self._inside.get(entity_id, False)

    def evaluate(self, tick: int) -> list[DeploymentRequest]:
        """Emit one request per zone transition since the last evaluation.

        Vehicles are visited in id order so simultaneous transitions come
        out deterministically.
        """
        requests: list[DeploymentRequest] = []
        for entity_id in sorted(self._poses):
            distance = self._rule.distance(self._poses[entity_id])
            inside = self._inside.get(entity_id, False)
            if not inside and distance <= self._rule.d_start:
                self._inside[entity_id] = True
                log.debug("%s entered at d=%.1f (tick %d)", entity_id, distance, tick)
                requests.append(self._build(entity_id, DeltaAction.REQUEST, tick))
            elif inside and distance > self._rule.d_stop:
                self._inside[entity_id] = False
                log.debug("%s left at d=%.1f (tick %d)", entity_id, distance, tick)
                requests.append(self._build(entity_id, DeltaAction.RELEASE, tick))
        return requests

    def _build(
        self, vehicle_id: str, action: DeltaAction, tick: int
    ) -> DeploymentRequest:
        self._request_seq += 1
        vehicle = self._topology.get(vehicle_id)
        risu = self._topology.get(self._rule.risu_id)

        # The vehicle brings every source topic it is capable of; the
        # infrastructure unit is part of every demand at its zone.
        inputs: list[tuple[str, str]] = [(vehicle_id, TOPIC_KIND_EGO)]
        if vehicle.provides(TOPIC_KIND_POINTCLOUD):
            inputs.append((vehicle_id, TOPIC_KIND_POINTCLOUD))
        inputs.append((risu.entity_id, TOPIC_KIND_POINTCLOUD))

        return DeploymentRequest(
            request_id=f"req-{self._request_seq:04d}",
            action=action,
            app_name=self._rule.app_name,
            requesters=(vehicle_id, risu.entity_id),
            inputs=tuple(inputs),
            issued_at=tick,
        )
