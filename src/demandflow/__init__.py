"""Demand-driven application orchestration on a simulated vehicle/edge cluster.

The chain: a geofence detector turns vehicle movement into deployment
requests, an application manager resolves them into per-resource demand
deltas, operators fold the deltas into reference-counted ledgers and
reconcile a simulated cluster, and the cluster's pub/sub data plane shows
the effect.  Demand is symmetric: every release mirrors a request, so
the whole system drains back to empty when the last requester leaves.
"""

from .catalog import (
    ApplicationTemplate,
    Catalog,
    PartRule,
    connection_cr_name,
    service_cr_name,
)
from .cluster import ClusterSim, InstanceSpec, TickReport
from .detector import EventDetector, GeofenceRule
from .manager import (
    AccessDomainPolicy,
    AppManager,
    DeploymentRequest,
    RequestResult,
)
from .model import (
    ConfigItem,
    DeltaAction,
    Entity,
    EntityRole,
    OrchestrationError,
    ResourceKind,
    ServiceKind,
    Topology,
)
from .operators import (
    ConnectionOperator,
    DemandLedger,
    ServiceOperator,
    apply_demand,
    decide,
)
from .runner import ScenarioRunner, build_system, run_scenario
from .scenario import Scenario, load_scenario, make_scale_scenario
from .store import DemandDelta, ResourceStore
from .tracing import Trace, assert_trace, diff_trace_lines

__version__ = "0.1.0"

__all__ = [
    "AccessDomainPolicy",
    "AppManager",
    "ApplicationTemplate",
    "Catalog",
    "ClusterSim",
    "ConfigItem",
    "ConnectionOperator",
    "DeltaAction",
    "DemandDelta",
    "DemandLedger",
    "DeploymentRequest",
    "Entity",
    "EntityRole",
    "EventDetector",
    "GeofenceRule",
    "InstanceSpec",
    "OrchestrationError",
    "PartRule",
    "RequestResult",
    "ResourceKind",
    "ResourceStore",
    "Scenario",
    "ScenarioRunner",
    "ServiceKind",
    "ServiceOperator",
    "TickReport",
    "Topology",
    "Trace",
    "apply_demand",
    "assert_trace",
    "build_system",
    "connection_cr_name",
    "decide",
    "diff_trace_lines",
    "load_scenario",
    "make_scale_scenario",
    "run_scenario",
    "service_cr_name",
]
