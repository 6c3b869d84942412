"""Demand resolution: which parts and connections a request turns into."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from demandflow.catalog import (
    ApplicationTemplate,
    Catalog,
    PartRule,
    connection_cr_name,
    service_cr_name,
)
from demandflow.model import (
    AlreadyRegisteredError,
    ConfigItem,
    Entity,
    EntityRole,
    ServiceKind,
    Topology,
    UnknownApplicationError,
    UnknownEntityError,
    UnknownVersionError,
    config_value,
    config_values,
)

APP = "object-detection-fusion"


def forwarded(conn):
    return config_values(conn.config_items, "forward-topic")


def kind_of(part):
    return ServiceKind(config_value(part.config_items, "service-kind"))


def reference_topology():
    return Topology(
        [
            Entity("V0", EntityRole.CV, ("ego", "pointcloud")),
            Entity("V1", EntityRole.CV, ("ego",)),
            Entity("V2", EntityRole.CV, ("ego",)),
            Entity("V3", EntityRole.CV, ("ego",)),
            Entity("S", EntityRole.RISU, ("pointcloud",)),
            Entity("E", EntityRole.EDGE),
            Entity("C", EntityRole.CLOUD),
        ]
    )


def reference_template(version="v1"):
    return ApplicationTemplate(
        app_name=APP,
        version=version,
        parts=(
            PartRule(
                role="objdet",
                service_kind=ServiceKind.OBJECT_DETECTION,
                placement_role=EntityRole.EDGE,
                per_source_kind="pointcloud",
                output_topic="/detections/{source}/objects",
            ),
            PartRule(
                role="fusion",
                service_kind=ServiceKind.OBJECT_FUSION,
                placement_role=EntityRole.EDGE,
                input_selectors=("demand:ego", "outputs:objdet"),
                output_topic="/fusion/objects",
            ),
        ),
    )


@pytest.fixture
def catalog():
    cat = Catalog(reference_topology())
    cat.register_application(reference_template())
    return cat


# A demand is a request's (requesters, inputs) pair.


def lidar_demand():
    return ("V0", "S"), (("V0", "ego"), ("V0", "pointcloud"), ("S", "pointcloud"))


def ego_demand(vehicle="V1"):
    return (vehicle, "S"), ((vehicle, "ego"), ("S", "pointcloud"))


def test_lidar_vehicle_demand_resolves_all_parts(catalog):
    parts = catalog.resolve(APP, "v1", *lidar_demand())

    names = [p.cr_name for p in parts.services]
    assert names == [
        service_cr_name(APP, "objdet", "S"),
        service_cr_name(APP, "objdet", "V0"),
        service_cr_name(APP, "fusion"),
    ]
    objdet_s, objdet_v0, fusion = parts.services
    assert parts.nodes == ("E", "S", "V0")
    assert objdet_s.config_items == (
        ConfigItem("node", "E"),
        ConfigItem("service-kind", "object-detection"),
        ConfigItem("source", "S"),
        ConfigItem("input-topic", "/S/points"),
        ConfigItem("output-topic", "/detections/S/objects"),
    )
    assert ConfigItem("input-topic", "/V0/points") in objdet_v0.config_items
    # fusion consumes the demanded ego topics plus both detection outputs
    fusion_inputs = [
        i.value for i in fusion.config_items if i.kind == "input-topic"
    ]
    assert fusion_inputs == [
        "/V0/ego",
        "/detections/S/objects",
        "/detections/V0/objects",
    ]

    conn_names = [c.cr_name for c in parts.connections]
    assert conn_names == [
        connection_cr_name("S", "E"),
        connection_cr_name("V0", "E"),
    ]
    by_name = {c.cr_name: c for c in parts.connections}
    assert forwarded(by_name["conn-S-E"]) == ("/S/points",)
    assert forwarded(by_name["conn-V0-E"]) == ("/V0/ego", "/V0/points")
    assert all(config_value(c.config_items, "dst") == "E" for c in parts.connections)


def test_ego_only_vehicle_demand_skips_own_detection(catalog):
    parts = catalog.resolve(APP, "v1", *ego_demand("V1"))
    names = [p.cr_name for p in parts.services]
    # no pointcloud from V1, so the only detection runs for S
    assert names == [
        service_cr_name(APP, "objdet", "S"),
        service_cr_name(APP, "fusion"),
    ]
    by_name = {c.cr_name: c for c in parts.connections}
    assert set(by_name) == {"conn-S-E", "conn-V1-E"}
    assert forwarded(by_name["conn-V1-E"]) == ("/V1/ego",)


def fresh_catalog(*versions):
    catalog = Catalog(reference_topology())
    for version in versions or ("v1",):
        catalog.register_application(reference_template(version))
    return catalog


def test_resolution_is_pure(catalog):
    first = catalog.resolve(APP, "v1", *lidar_demand())
    catalog.resolve(APP, "v1", *ego_demand("V2"))
    second = catalog.resolve(APP, "v1", *lidar_demand())
    assert first == second
    # a memoized answer must also be the answer of a catalog that never
    # saw the other demand
    assert second == fresh_catalog().resolve(APP, "v1", *lidar_demand())


def test_failed_resolution_raises_every_time(catalog):
    bad = ("V9", "S"), (("V9", "ego"), ("S", "pointcloud"))
    for _ in range(2):
        with pytest.raises(UnknownEntityError):
            catalog.resolve(APP, "v1", *bad)
        with pytest.raises(UnknownVersionError):
            catalog.resolve(APP, "v2", *lidar_demand())
    # a version registered after a failed call resolves from then on
    catalog.register_application(reference_template("v2"))
    assert catalog.resolve(APP, "v2", *lidar_demand()) == fresh_catalog(
        "v2"
    ).resolve(APP, "v2", *lidar_demand())


def test_connection_config_items():
    spec = Catalog(reference_topology())
    spec.register_application(reference_template())
    parts = spec.resolve(APP, "v1", *ego_demand("V1"))
    conn = [c for c in parts.connections if c.cr_name == "conn-V1-E"][0]
    assert conn.config_items == (
        ConfigItem("src", "V1"),
        ConfigItem("dst", "E"),
        ConfigItem("forward-topic", "/V1/ego"),
    )


def test_unknown_names_raise(catalog):
    with pytest.raises(UnknownApplicationError):
        catalog.resolve("ghost-app", "v1", *lidar_demand())
    with pytest.raises(UnknownVersionError):
        catalog.resolve(APP, "v9", *lidar_demand())
    bad = ("V9", "S"), (("V9", "ego"), ("S", "pointcloud"))
    with pytest.raises(UnknownEntityError):
        catalog.resolve(APP, "v1", *bad)


def test_an_unknown_requester_raises_even_when_every_input_is_known(catalog):
    bad = ("V9", "S"), (("S", "pointcloud"),)
    with pytest.raises(UnknownEntityError, match="V9"):
        catalog.resolve(APP, "v1", *bad)


def test_a_source_on_the_placement_node_needs_no_connection():
    catalog = Catalog(Topology([
        Entity("V1", EntityRole.CV, ("ego",)),
        Entity("E", EntityRole.EDGE, ("pointcloud",)),
    ]))
    catalog.register_application(reference_template())
    demand = ("V1", "E"), (("V1", "ego"), ("E", "pointcloud"))
    parts = catalog.resolve(APP, "v1", *demand)
    assert service_cr_name(APP, "objdet", "E") in [p.cr_name for p in parts.services]
    assert [c.cr_name for c in parts.connections] == [connection_cr_name("V1", "E")]
    assert parts.nodes == ("E", "V1")


def test_versions_coexist_and_register_once(catalog):
    catalog.register_application(reference_template("v2"))
    assert catalog.versions(APP) == ("v1", "v2")
    assert catalog.first_version(APP) == "v1"
    with pytest.raises(AlreadyRegisteredError):
        catalog.register_application(reference_template("v2"))


def test_placement_is_decided_at_registration():
    def template(*placements):
        return ApplicationTemplate(
            app_name=APP,
            version="v1",
            parts=tuple(
                PartRule(f"p{i}", ServiceKind.OTHER, role)
                for i, role in enumerate(placements)
            ),
        )

    catalog = Catalog(reference_topology())
    # parts on two roles, even when each role has a single holder
    with pytest.raises(ValueError, match="one placement role"):
        catalog.register_application(template(EntityRole.EDGE, EntityRole.CLOUD))
    # a role with several holders, and one with none
    with pytest.raises(ValueError, match="found 4"):
        catalog.register_application(template(EntityRole.CV))
    no_cloud = Catalog(Topology(
        [e for e in reference_topology().entities() if e.role is not EntityRole.CLOUD]
    ))
    with pytest.raises(ValueError, match="found 0"):
        no_cloud.register_application(template(EntityRole.CLOUD))
    with pytest.raises(ValueError, match="at least one part"):
        catalog.register_application(template())
    # nothing half-registered: the failed versions stay unknown
    assert catalog.versions(APP) == ()
    catalog.register_application(template(EntityRole.CLOUD, EntityRole.CLOUD))
    parts = catalog.resolve(APP, "v1", *ego_demand("V1"))
    assert {config_value(p.config_items, "node") for p in parts.services} == {"C"}
    assert {config_value(c.config_items, "dst") for c in parts.connections} == {"C"}
    assert parts.nodes == ("C", "S", "V1")


def test_template_validation_rejects_bad_rules():
    with pytest.raises(ValueError):
        ApplicationTemplate(
            app_name=APP,
            version="v1",
            parts=(
                PartRule("a", ServiceKind.OTHER, EntityRole.EDGE),
                PartRule("a", ServiceKind.OTHER, EntityRole.EDGE),
            ),
        ).validate()
    with pytest.raises(ValueError):
        # forward reference to a later rule
        ApplicationTemplate(
            app_name=APP,
            version="v1",
            parts=(
                PartRule(
                    "a",
                    ServiceKind.OTHER,
                    EntityRole.EDGE,
                    input_selectors=("outputs:b",),
                ),
                PartRule("b", ServiceKind.OTHER, EntityRole.EDGE),
            ),
        ).validate()
    with pytest.raises(ValueError):
        # per-source rules derive their input, selectors are not allowed
        ApplicationTemplate(
            app_name=APP,
            version="v1",
            parts=(
                PartRule(
                    "a",
                    ServiceKind.OTHER,
                    EntityRole.EDGE,
                    per_source_kind="pointcloud",
                    input_selectors=("demand:ego",),
                ),
            ),
        ).validate()


@pytest.mark.parametrize(
    "rule, message",
    [
        (
            PartRule("a", ServiceKind.OTHER, EntityRole.EDGE, per_source_kind="sonar"),
            "unknown source kind 'sonar'",
        ),
        (
            PartRule(
                "a",
                ServiceKind.OTHER,
                EntityRole.EDGE,
                input_selectors=("demand:sonar",),
            ),
            "bad selector 'demand:sonar'",
        ),
        (
            PartRule(
                "a", ServiceKind.OTHER, EntityRole.EDGE, input_selectors=("inputs:a",)
            ),
            "bad selector 'inputs:a'",
        ),
    ],
    ids=["per-source-kind", "demand-kind", "selector-prefix"],
)
def test_template_validation_rejects_unknown_kinds_and_selectors(rule, message):
    with pytest.raises(ValueError) as info:
        ApplicationTemplate(app_name=APP, version="v1", parts=(rule,)).validate()
    assert str(info.value) == message


@pytest.mark.parametrize("name, version", [("", "v1"), (APP, "")])
def test_registration_needs_a_name_and_a_version(name, version):
    catalog = Catalog(reference_topology())
    template = replace(reference_template(), app_name=name, version=version)
    with pytest.raises(ValueError, match="needs a name and a version"):
        catalog.register_application(template)
    assert catalog.versions(name) == ()


@pytest.mark.parametrize("role", ["obj det", "obj,det", "obj=det", "objdet\n", 7])
def test_template_validation_rejects_a_role_a_trace_line_cannot_carry(role):
    rule = PartRule(role, ServiceKind.OTHER, EntityRole.EDGE)
    with pytest.raises(ValueError, match="bad part role"):
        ApplicationTemplate(app_name=APP, version="v1", parts=(rule,)).validate()


@pytest.mark.parametrize(
    "topic", ["/fusion objects", "/fusion,objects", "/fusion=objects", "/{other}"]
)
def test_template_validation_rejects_a_non_ros_output_topic(topic):
    rule = PartRule("fusion", ServiceKind.OTHER, EntityRole.EDGE, output_topic=topic)
    with pytest.raises(ValueError, match="bad output topic"):
        ApplicationTemplate(app_name=APP, version="v1", parts=(rule,)).validate()


def test_template_validation_accepts_ros_topics_with_the_source_placeholder():
    ApplicationTemplate(
        app_name=APP,
        version="v1",
        parts=(
            PartRule(
                "objdet_2",
                ServiceKind.OTHER,
                EntityRole.EDGE,
                per_source_kind="pointcloud",
                output_topic="/detections/{source}/objects_2",
            ),
        ),
    ).validate()


# Whatever subset of vehicles takes part, resolution must cover the whole
# demand: one detection per pointcloud provider, every demanded topic
# carried by exactly one connection, fusion fed by all ego topics and all
# detection outputs.

vehicle_sets = st.lists(
    st.sampled_from(["V0", "V1", "V2", "V3"]), min_size=1, max_size=4, unique=True
)


def vehicle_demand(topology, vehicles):
    inputs = []
    for vehicle in vehicles:
        inputs.append((vehicle, "ego"))
        if topology.get(vehicle).provides("pointcloud"):
            inputs.append((vehicle, "pointcloud"))
    inputs.append(("S", "pointcloud"))
    return (*vehicles, "S"), tuple(inputs)


@given(vehicles=vehicle_sets)
def test_resolution_covers_any_demand(vehicles):
    catalog = fresh_catalog()
    requesters, inputs = vehicle_demand(reference_topology(), vehicles)

    parts = catalog.resolve(APP, "v1", requesters, inputs)

    pointcloud_sources = sorted(
        e for e, kind in inputs if kind == "pointcloud"
    )
    detections = [
        p for p in parts.services
        if kind_of(p) is ServiceKind.OBJECT_DETECTION
    ]
    assert sorted(
        p.cr_name.rsplit("-", 1)[1] for p in detections
    ) == pointcloud_sources

    fusion = [
        p for p in parts.services if kind_of(p) is ServiceKind.OBJECT_FUSION
    ][0]
    fusion_inputs = {
        i.value for i in fusion.config_items if i.kind == "input-topic"
    }
    expected = {f"/{v}/ego" for v in vehicles}
    expected |= {f"/detections/{s}/objects" for s in pointcloud_sources}
    assert fusion_inputs == expected

    carried = {}
    for conn in parts.connections:
        for topic in forwarded(conn):
            assert topic not in carried, "topic carried twice"
            carried[topic] = conn.cr_name
    demanded_topics = {
        f"/{e}/ego" if kind == "ego" else f"/{e}/points" for e, kind in inputs
    }
    assert set(carried) == demanded_topics


def two_version_catalog():
    """v1 plus a v2 with its own fusion output, so results depend on the version."""
    catalog = fresh_catalog()
    v2 = reference_template("v2")
    objdet, fusion = v2.parts
    fusion = replace(fusion, output_topic="/fusion/v2/objects")
    catalog.register_application(replace(v2, parts=(objdet, fusion)))
    return catalog


@given(
    demands=st.lists(
        st.tuples(vehicle_sets, st.sampled_from(["v1", "v2"])),
        min_size=1,
        max_size=12,
    )
)
def test_warm_resolution_matches_a_fresh_catalog(demands):
    warm = two_version_catalog()
    topology = reference_topology()
    for vehicles, version in demands:
        warm.resolve(APP, version, *vehicle_demand(topology, vehicles))
    for vehicles, version in demands:
        demand = vehicle_demand(topology, vehicles)
        assert warm.resolve(APP, version, *demand) == (
            two_version_catalog().resolve(APP, version, *demand)
        )


def cloud_template():
    template = reference_template()
    return replace(
        template,
        parts=tuple(
            replace(rule, placement_role=EntityRole.CLOUD) for rule in template.parts
        ),
    )


@given(
    vehicles=vehicle_sets,
    lidar=st.booleans(),
    template=st.sampled_from([reference_template(), cloud_template()]),
)
def test_resolution_nodes_are_the_node_items_of_its_parts(vehicles, lidar, template):
    catalog = Catalog(reference_topology())
    catalog.register_application(template)
    requesters, inputs = vehicle_demand(reference_topology(), vehicles)
    if not lidar:  # only the roadside unit brings a pointcloud
        inputs = tuple((e, kind) for e, kind in inputs if e == "S" or kind == "ego")

    parts = catalog.resolve(APP, "v1", requesters, inputs)

    node_items = {
        item.value
        for part in (*parts.services, *parts.connections)
        for item in part.config_items
        if item.kind in ("node", "src", "dst")
    }
    assert parts.nodes == tuple(sorted(node_items))
