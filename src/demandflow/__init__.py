"""Demand-driven application orchestration on a simulated vehicle/edge cluster.

The chain: a geofence detector turns vehicle movement into deployment
requests, an application manager folds them into one reference-counted
demand ledger per resource, operators reconcile a simulated cluster
towards those ledgers, and the cluster's pub/sub data plane shows
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
from .operators import Operator, decide
from .runner import ScenarioRunner, build_system, run_scenario
from .scenario import Scenario, load_scenario, make_scale_scenario
from .store import DemandLedger, ResourceStore, apply_demand
from .tracing import Trace, assert_trace, diff_trace_lines

__version__ = "0.1.0"

__all__ = [
    "AccessDomainPolicy",
    "AppManager",
    "ApplicationTemplate",
    "Catalog",
    "ClusterSim",
    "ConfigItem",
    "DeltaAction",
    "DemandLedger",
    "DeploymentRequest",
    "Entity",
    "EntityRole",
    "EventDetector",
    "GeofenceRule",
    "InstanceSpec",
    "Operator",
    "OrchestrationError",
    "PartRule",
    "RequestResult",
    "ResourceKind",
    "ResourceStore",
    "Scenario",
    "ScenarioRunner",
    "ServiceKind",
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
