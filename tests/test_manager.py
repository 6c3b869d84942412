"""Request handling: atomic validation, ledger folds, dedup, upgrades."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from demandflow.catalog import Catalog
from demandflow.manager import AccessDomainPolicy, AppManager, DeploymentRequest
from demandflow.model import DeltaAction, ResourceKind
from demandflow.runner import build_system, deliver, drain
from demandflow.store import ResourceStore
from demandflow.tracing import TAG_CR, TAG_ERROR, TAG_REQUEST

from test_catalog import APP, fresh_catalog, reference_template, reference_topology

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
    assert spec.requester_counts == {"V0": 1, "S": 1}
    assert spec.version == "v1"
    # connections are unversioned shared plumbing
    assert store.get_cr(CONN, "conn-S-E").spec.version == ""


def test_release_mirrors_request_content():
    store, manager = build_manager()
    manager.handle_request(request("r-1"))
    result = manager.handle_request(
        request("r-2", action=DeltaAction.RELEASE)
    )
    assert result.accepted
    # the release folds every part of the request back out, to nothing
    for kind, name, generation in result.applied_crs:
        assert generation == 2
        spec = store.get_spec(kind, name)
        assert spec.requester_counts == {}
        assert spec.config_counts == {}


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


@pytest.mark.parametrize(
    "field", ["request_id", "action", "app_name", "requesters", "inputs", "issued_at"]
)
def test_a_request_is_read_only(field):
    sent = request()
    with pytest.raises(AttributeError):
        setattr(sent, field, getattr(sent, field))
    assert sent.issued_at == 0


@pytest.mark.parametrize("field", ["request_id", "accepted", "applied_crs", "reason"])
def test_a_result_is_read_only(field):
    _, manager = build_manager()
    result = manager.handle_request(request())
    with pytest.raises(AttributeError):
        setattr(result, field, getattr(result, field))
    assert result.accepted and result.reason == ""


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
    radar = request("r-1")._replace(inputs=(("V0", "ego"), ("V0", "radar")))
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
    # same request against a fresh store and one whose earlier demand was
    # requested and released again: identical specs
    store_a, manager_a = build_manager()
    store_b, manager_b = build_manager()
    manager_b.handle_request(request("warmup", "V2", lidar=False))
    manager_b.handle_request(
        request("cooldown", "V2", lidar=False, action=DeltaAction.RELEASE)
    )
    probe = request("r-9", "V1", lidar=False)
    result_a = manager_a.handle_request(probe)
    result_b = manager_b.handle_request(probe)
    assert len(result_a.applied_crs) == len(result_b.applied_crs)
    for (kind, name, _), applied_b in zip(
        result_a.applied_crs, result_b.applied_crs
    ):
        assert applied_b[:2] == (kind, name)
        assert store_b.get_spec(kind, name) == store_a.get_spec(kind, name)


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
        resource = store.get_cr(SVC, name)
        # only the version moved; the demand stayed as it was
        assert resource.generation == 2
        assert resource.spec.version == "v2"
        assert resource.spec.requester_counts == {"V0": 1, "S": 1}
    # connections keep their single generation
    assert store.get_cr(CONN, "conn-S-E").generation == 1
    # new demand now resolves at the upgraded version
    assert manager.active_version(APP) == "v2"
    manager.handle_request(request("r-2", "V1"))
    assert store.get_cr(SVC, f"svc-{APP}-objdet-S").spec.version == "v2"


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


def store_state(store):
    return {
        (kind, name): (store.get_cr(kind, name).generation, store.get_spec(kind, name))
        for kind in (SVC, CONN)
        for name in store.list_crs(kind)
    }


def test_underflowing_release_is_rejected_whole(reference_scenario):
    # V1 asks without lidar, then releases with it: objdet-S folds the
    # release without complaint, but objdet-V1, the next part, never held
    # V1.  The whole release is refused before anything is written.
    system = build_system(reference_scenario)
    deliver(system, request("r-1", "V0"))
    deliver(system, request("r-2", "V1", lidar=False))
    drain(system)
    before = store_state(system.store)
    log_size = len(system.store.event_log)
    seen = len(system.trace.records)

    deliver(system, request("r-3", "V1", lidar=True, action=DeltaAction.RELEASE))
    new = list(system.trace.records)[seen:]
    assert [r.tag for r in new] == [TAG_REQUEST, TAG_ERROR]
    assert new[1].get("kind") == "request-rejected"
    assert new[1].get("detail") == (
        "r-3:ReleaseUnderflowError: release of unknown requester V1"
    )
    assert not [r for r in new if r.tag == TAG_CR]
    assert store_state(system.store) == before
    assert len(system.store.event_log) == log_size
    drain(system)
    assert store_state(system.store) == before


def test_a_repeated_demand_never_resolves_again():
    catalog = fresh_catalog("v1", "v2")
    resolved = []
    resolve = catalog.resolve
    catalog.resolve = lambda *demand: resolved.append(demand) or resolve(*demand)
    manager = AppManager(ResourceStore(), catalog)
    for rid, action in [("r-1", DeltaAction.REQUEST), ("r-2", DeltaAction.RELEASE),
                        ("r-3", DeltaAction.REQUEST)]:
        assert manager.handle_request(request(rid, action=action)).accepted
    assert len(resolved) == 1
    # an upgrade changes the version the demand is resolved at, once
    assert manager.upgrade_application(APP, "v2").accepted
    for rid, action in [("r-4", DeltaAction.RELEASE), ("r-5", DeltaAction.REQUEST)]:
        assert manager.handle_request(request(rid, action=action)).accepted
    assert [version for _, version, _, _ in resolved] == ["v1", "v2"]


class _NeverHit(dict):
    def get(self, key, default=None):
        return default


class AlwaysValidatingManager(AppManager):
    """A manager whose memo of validated writes always misses."""

    def __init__(self, *args):
        super().__init__(*args)
        self._validated = _NeverHit()


# Demands a history draws from: V1's with and without lidar, so a release
# can underflow, malformed ones, an unknown application and entity, and
# V3's, whose node the policy closes to the application.
TWIN_DEMANDS = [
    *((APP, sent.requesters, sent.inputs)
      for sent in (request(vehicle="V0"), request(vehicle="V1"),
                   request(vehicle="V1", lidar=True), request(vehicle="V3"))),
    (APP, (), (("V0", "ego"),)),
    (APP, ("V1", "S"), (("V1", "radar"),)),
    ("ghost-app", ("V0", "S"), (("V0", "ego"),)),
    (APP, ("V9", "S"), (("V9", "ego"), ("S", "pointcloud"))),
]

twin_steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(list(DeltaAction)),
            st.sampled_from(TWIN_DEMANDS),
            st.booleans(),  # redeliver the previous request id
        ),
        st.tuples(st.just("upgrade"), st.sampled_from(["v1", "v2", "v9"])),
    ),
    max_size=30,
)


@settings(max_examples=300)
@given(steps=twin_steps)
def test_manager_twin_matches_one_that_validates_every_demand(steps):
    policy = AccessDomainPolicy({"V3": ["some-other-app"]})
    store, manager = build_manager(policy, versions=("v1", "v2"))
    twin_store = ResourceStore()
    twin = AlwaysValidatingManager(twin_store, fresh_catalog("v1", "v2"), policy)
    for i, step in enumerate(steps):
        if step[0] == "upgrade":
            results = [m.upgrade_application(APP, step[1]) for m in (manager, twin)]
        else:
            action, (app, requesters, inputs), redeliver = step
            rid = f"r-{i - 1 if redeliver and i else i}"
            sent = DeploymentRequest(rid, action, app, requesters, inputs)
            results = [m.handle_request(sent) for m in (manager, twin)]
        assert results[0] == results[1]
        assert store_state(store) == store_state(twin_store)
