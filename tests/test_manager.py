"""Request handling: atomic validation, delta upserts, dedup, upgrades."""

from dataclasses import replace

from demandflow.catalog import Catalog
from demandflow.manager import AccessDomainPolicy, AppManager, DeploymentRequest
from demandflow.model import DeltaAction, ResourceKind
from demandflow.runner import build_system, drain
from demandflow.store import ResourceStore

from test_catalog import APP, reference_template, reference_topology

SVC = ResourceKind.MANAGED_SERVICE
CONN = ResourceKind.MANAGED_CONNECTION


def build_manager(policy=None, versions=("v1",)):
    store = ResourceStore()
    catalog = Catalog(reference_topology())
    for version in versions:
        catalog.register_application(reference_template(version))
    return store, AppManager(store, catalog, policy)


def request(
    rid="r-1",
    vehicle="V0",
    action=DeltaAction.REQUEST,
    lidar=None,
    app=APP,
):
    if lidar is None:
        lidar = vehicle == "V0"
    inputs = [(vehicle, "ego")]
    if lidar:
        inputs.append((vehicle, "pointcloud"))
    inputs.append(("S", "pointcloud"))
    return DeploymentRequest(
        request_id=rid,
        action=action,
        app_name=app,
        requesters=(vehicle, "S"),
        inputs=tuple(inputs),
    )


def test_accepted_request_upserts_one_delta_per_part():
    store, manager = build_manager()
    result = manager.handle_request(request())
    assert result.accepted
    assert result.applied_crs == (
        (SVC, f"svc-{APP}-objdet-S", 1),
        (SVC, f"svc-{APP}-objdet-V0", 1),
        (SVC, f"svc-{APP}-fusion-singleton", 1),
        (CONN, "conn-S-E", 1),
        (CONN, "conn-V0-E", 1),
    )
    spec = store.get_cr(SVC, f"svc-{APP}-objdet-S").spec
    assert spec.action is DeltaAction.REQUEST
    assert spec.requesters == ("V0", "S")
    assert spec.app_version == "v1"
    # connections are unversioned shared plumbing
    assert store.get_cr(CONN, "conn-S-E").spec.app_version == ""


def test_release_mirrors_request_content():
    store, manager = build_manager()
    manager.handle_request(request("r-1"))
    result = manager.handle_request(
        request("r-2", action=DeltaAction.RELEASE)
    )
    assert result.accepted
    for kind, name, generation in result.applied_crs:
        assert generation == 2
        first = store.get_spec(kind, name, 1)
        second = store.get_spec(kind, name, 2)
        assert second.action is DeltaAction.RELEASE
        assert second.requesters == first.requesters
        assert second.config_items == first.config_items


def test_overlapping_demands_share_resources():
    store, manager = build_manager()
    manager.handle_request(request("r-1", "V0"))
    result = manager.handle_request(request("r-2", "V1"))
    applied = dict(
        ((kind, name), generation)
        for kind, name, generation in result.applied_crs
    )
    # shared resources advance a generation, new ones start at 1
    assert applied[(SVC, f"svc-{APP}-objdet-S")] == 2
    assert applied[(SVC, f"svc-{APP}-fusion-singleton")] == 2
    assert applied[(CONN, "conn-S-E")] == 2
    assert applied[(CONN, "conn-V1-E")] == 1
    assert (SVC, f"svc-{APP}-objdet-V0") not in applied


def test_rejection_is_atomic():
    store, manager = build_manager()
    result = manager.handle_request(request(app="ghost-app"))
    assert not result.accepted
    assert "UnknownApplication" in result.reason
    assert store.event_log == []
    assert store.total_resources() == 0

    bad = DeploymentRequest(
        request_id="r-2",
        action=DeltaAction.REQUEST,
        app_name=APP,
        requesters=("V9", "S"),
        inputs=(("V9", "ego"), ("S", "pointcloud")),
    )
    result = manager.handle_request(bad)
    assert "UnknownEntity" in result.reason
    assert store.total_resources() == 0


def test_empty_requesters_rejected():
    store, manager = build_manager()
    empty = DeploymentRequest(
        request_id="r-1",
        action=DeltaAction.REQUEST,
        app_name=APP,
        requesters=(),
        inputs=(("V0", "ego"),),
    )
    result = manager.handle_request(empty)
    assert not result.accepted
    assert store.total_resources() == 0


def test_redelivery_returns_cached_result_without_mutation():
    store, manager = build_manager()
    first = manager.handle_request(request("r-1"))
    log_size = len(store.event_log)
    second = manager.handle_request(request("r-1"))
    assert second == first
    assert len(store.event_log) == log_size
    # rejections are cached the same way
    rejected = manager.handle_request(request("r-2", app="ghost-app"))
    assert manager.handle_request(request("r-2", app="ghost-app")) == rejected


def test_unknown_input_kind_is_rejected():
    store, manager = build_manager()
    radar = replace(request("r-1"), inputs=(("V0", "ego"), ("V0", "radar")))
    result = manager.handle_request(radar)
    assert not result.accepted
    assert result.reason.startswith("MalformedRequestError")
    assert "V0:radar" in result.reason
    assert store.total_resources() == 0
    assert store.event_log == []


def test_redelivery_after_shutdown_recreates_nothing(reference_scenario):
    # The manager's request-id cache is the one idempotency layer: once
    # the resources a request created are gone, a late copy of it must
    # not bring them back.
    system = build_system(reference_scenario)
    manager, store = system.manager, system.store
    first = manager.handle_request(request("r-1"))
    assert first.accepted
    drain(system)
    assert system.sim.instances()
    assert manager.handle_request(request("r-2", action=DeltaAction.RELEASE)).accepted
    drain(system)
    assert store.total_resources() == 0
    assert not system.sim.instances()
    log_size = len(store.event_log)

    assert manager.handle_request(request("r-1")) == first
    drain(system)
    assert store.total_resources() == 0
    assert len(store.event_log) == log_size
    assert not system.sim.instances()


def test_access_policy_blocks_disallowed_nodes():
    policy = AccessDomainPolicy({"E": ["some-other-app"]})
    store, manager = build_manager(policy)
    result = manager.handle_request(request())
    assert not result.accepted
    assert "AccessDenied" in result.reason
    assert store.total_resources() == 0
    # nodes without an entry stay permissive
    assert policy.allows(APP, "V0")
    assert not policy.allows(APP, "E")


def test_access_rejection_names_the_first_denied_node_in_order():
    # request() touches E, S and V0; the two sources are denied, listed
    # out of order
    policy = AccessDomainPolicy({"V0": ["some-other-app"], "S": ["some-other-app"]})
    store, manager = build_manager(policy)
    result = manager.handle_request(request())
    assert not result.accepted
    assert result.reason == f"AccessDeniedError: {APP} is not allowed on node S"
    assert store.total_resources() == 0


def test_resolution_depends_only_on_request_content():
    # same request against a fresh store and a pre-loaded one: identical deltas
    store_a, manager_a = build_manager()
    store_b, manager_b = build_manager()
    manager_b.handle_request(request("warmup", "V2", lidar=False))
    probe = request("r-9", "V1", lidar=False)
    result_a = manager_a.handle_request(probe)
    result_b = manager_b.handle_request(probe)
    assert len(result_a.applied_crs) == len(result_b.applied_crs)
    for (kind, name, gen_a), applied_b in zip(
        result_a.applied_crs, result_b.applied_crs
    ):
        assert applied_b[:2] == (kind, name)
        delta_a = store_a.get_spec(kind, name, gen_a)
        assert store_b.get_spec(kind, name, applied_b[2]) == delta_a


def test_upgrade_rolls_all_live_services():
    store, manager = build_manager(versions=("v1", "v2"))
    manager.handle_request(request("r-1"))
    result = manager.upgrade_application(APP, "v2")
    assert result.accepted
    upgraded = [name for _, name, _ in result.applied_crs]
    assert upgraded == [
        f"svc-{APP}-objdet-S",
        f"svc-{APP}-objdet-V0",
        f"svc-{APP}-fusion-singleton",
    ]
    for name in upgraded:
        spec = store.get_cr(SVC, name).spec
        assert spec.is_version_only()
        assert spec.app_version == "v2"
    # connections keep their single generation
    assert store.get_cr(CONN, "conn-S-E").generation == 1
    # new demand now resolves at the upgraded version
    assert manager.active_version(APP) == "v2"
    manager.handle_request(request("r-2", "V1"))
    assert store.get_cr(SVC, f"svc-{APP}-objdet-S").spec.app_version == "v2"


def test_upgrade_rejections():
    store, manager = build_manager(versions=("v1", "v2"))
    nothing = manager.upgrade_application(APP, "v2")
    assert not nothing.accepted
    assert "NothingRunning" in nothing.reason

    manager.handle_request(request("r-1"))
    unknown = manager.upgrade_application(APP, "v9")
    assert not unknown.accepted
    assert "UnknownVersion" in unknown.reason
    assert manager.active_version(APP) == "v1"


def test_upgrade_leaves_other_applications_alone():
    # "-" is legal in application names, so one app's name can prefix
    # another's resource names
    store = ResourceStore()
    catalog = Catalog(reference_topology())
    catalog.register_application(reference_template("v1"))
    catalog.register_application(reference_template("v2"))
    other = APP + "-x"
    catalog.register_application(
        replace(reference_template("v1"), app_name=other)
    )
    manager = AppManager(store, catalog)
    assert manager.handle_request(request("r-1")).accepted
    assert manager.handle_request(request("r-2", app=other)).accepted
    result = manager.upgrade_application(APP, "v2")
    assert result.accepted
    upgraded = [name for _, name, _ in result.applied_crs]
    assert upgraded == [
        f"svc-{APP}-objdet-S",
        f"svc-{APP}-objdet-V0",
        f"svc-{APP}-fusion-singleton",
    ]
    assert not [name for name in upgraded if name.startswith(f"svc-{other}-")]
    assert store.get_cr(SVC, f"svc-{other}-objdet-S").generation == 1
