"""Demand resolution: which parts and connections a request turns into."""

import sys
from dataclasses import replace
from typing import Iterable

import pytest
from hypothesis import given, strategies as st

from demandflow.catalog import (
    SELECT_DEMAND,
    ApplicationTemplate,
    Catalog,
    PartRule,
    PartSpec,
    ResolvedParts,
    connection_cr_name,
    service_cr_name,
)
from demandflow.model import (
    CFG_DST,
    CFG_FORWARD_TOPIC,
    CFG_INPUT_TOPIC,
    CFG_NODE,
    CFG_OUTPUT_TOPIC,
    CFG_SERVICE_KIND,
    CFG_SOURCE,
    CFG_SRC,
    TOPIC_KINDS,
    AlreadyRegisteredError,
    ConfigItem,
    Entity,
    EntityRole,
    OrchestrationError,
    ServiceKind,
    Topology,
    UnknownApplicationError,
    UnknownEntityError,
    UnknownVersionError,
    config_value,
    config_values,
    source_topic,
)
from demandflow.scenario import make_scale_scenario
from demandflow.store import split_config

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
    # an answer composed from parts prepared for other demands must also
    # be the answer of a catalog that never saw them
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


class ReferenceCatalog(Catalog):
    """The resolver that walks every rule for every demand, kept as the
    reference: nothing is prepared but the parts, which `_part` shares."""

    def __init__(self, topology: Topology):
        super().__init__(topology)
        self._placement: dict[tuple[str, str], str] = {}
        self._parts: dict[tuple[str, tuple[ConfigItem, ...]], PartSpec] = {}

    def register_application(self, template: ApplicationTemplate) -> None:
        super().register_application(template)
        self._placement[template.app_name, template.version] = (
            self._topology.single_node_with_role(template.placement_role)
        )

    def resolve(self, app_name, version, requesters, inputs) -> ResolvedParts:
        return self._resolve(app_name, version, requesters, inputs)

    def _resolve(
        self,
        app_name: str,
        version: str,
        requesters: tuple[str, ...],
        inputs: tuple[tuple[str, str], ...],
    ) -> ResolvedParts:
        template = self.template(app_name, version)
        for entity_id in (*requesters, *(e for e, _ in inputs)):
            self._topology.get(entity_id)  # raises UnknownEntityError
        # The demanded source topics in input order, by kind and by entity.
        by_kind: dict[str, list[str]] = {}
        by_entity: dict[str, list[str]] = {}
        for entity_id, kind in inputs:
            topic = source_topic(entity_id, kind)
            by_kind.setdefault(kind, []).append(topic)
            by_entity.setdefault(entity_id, []).append(topic)
        # Every part lands on one node; every demanded source topic must
        # be made available there.
        placed = self._placement[(app_name, version)]

        services: list[PartSpec] = []
        outputs_by_role: dict[str, list[str]] = {}
        for rule in template.parts:
            selected: list[str] = []
            for selector in rule.input_selectors:
                prefix, _, arg = selector.partition(":")
                if prefix == SELECT_DEMAND:
                    selected.extend(by_kind.get(arg, ()))
                else:
                    selected.extend(outputs_by_role.get(arg, ()))
            # A rule without a source kind yields one part, for source None.
            kind = rule.per_source_kind
            sources = sorted({e for e, k in inputs if k == kind}) if kind else [None]
            for source in sources:
                items = [
                    ConfigItem(CFG_NODE, placed),
                    ConfigItem(CFG_SERVICE_KIND, rule.service_kind.value),
                ]
                topics = selected
                if source is not None:
                    items.append(ConfigItem(CFG_SOURCE, source))
                    topics = [source_topic(source, kind)]
                items.extend(ConfigItem(CFG_INPUT_TOPIC, t) for t in topics)
                out = (rule.output_topic or "").format(source=source or "")
                if out:
                    items.append(ConfigItem(CFG_OUTPUT_TOPIC, out))
                    outputs_by_role.setdefault(rule.role, []).append(out)
                services.append(
                    self._part(service_cr_name(app_name, rule.role, source), items)
                )

        connections: list[PartSpec] = []
        nodes = {placed}
        for source, topics in sorted(by_entity.items()):
            src_node = self._topology.node_of(source)
            if src_node == placed:
                continue
            nodes.add(src_node)
            connections.append(
                self._part(
                    connection_cr_name(src_node, placed),
                    (
                        ConfigItem(CFG_SRC, src_node),
                        ConfigItem(CFG_DST, placed),
                        *(ConfigItem(CFG_FORWARD_TOPIC, t) for t in topics),
                    ),
                )
            )
        return ResolvedParts(tuple(services), tuple(connections), tuple(sorted(nodes)))

    def _part(self, cr_name: str, items: Iterable[ConfigItem]) -> PartSpec:
        """The part, one object for every resolution that yields it, so its
        config is split once."""
        config = tuple(items)
        part = self._parts.get((cr_name, config))
        if part is None:
            part = PartSpec(cr_name, config, split_config(config))
            self._parts[cr_name, config] = part
        return part


def outcome(catalog, version, requesters, inputs):
    """A resolution as (name, items, counted items in order, base items)
    per part, plus its nodes; or the error it raised, by type and text."""
    try:
        parts = catalog.resolve(APP, version, requesters, inputs)
    except OrchestrationError as exc:
        return type(exc), str(exc)
    assert isinstance(parts, ResolvedParts)
    return [
        [(p.cr_name, p.config_items, list(p.split[0].items()), p.split[1])
         for p in group]
        for group in (parts.services, parts.connections)
    ], parts.nodes


def twin_template(draw, version):
    """A per-source rule, a singleton that selects by demand and by
    outputs, and sometimes a second singleton fed by the first, all on
    the edge or all on the cloud node."""
    placement = draw(st.sampled_from([EntityRole.EDGE, EntityRole.CLOUD]))
    per_source = PartRule(
        "objdet",
        ServiceKind.OBJECT_DETECTION,
        placement,
        per_source_kind=draw(st.sampled_from(TOPIC_KINDS)),
        output_topic=draw(st.sampled_from(
            [None, "/detections/{source}/objects", "/detections/all"]
        )),
    )
    selectors = draw(st.lists(
        st.sampled_from(["demand:ego", "demand:pointcloud", "outputs:objdet"]),
        max_size=3,
    ))
    fusion = PartRule(
        "fusion",
        ServiceKind.OBJECT_FUSION,
        placement,
        input_selectors=tuple(selectors),
        output_topic=draw(st.sampled_from([None, "/fusion/objects", "/fusion/{source}"])),
    )
    rules = [per_source, fusion]
    if draw(st.booleans()):
        rules.append(PartRule(
            "track", ServiceKind.OTHER, placement,
            input_selectors=("outputs:fusion", "demand:ego"),
        ))
    return ApplicationTemplate(APP, version, tuple(rules))


@st.composite
def twin_cases(draw):
    lidar = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    entities = [
        Entity(f"V{i}", EntityRole.CV, ("ego", "pointcloud") if has else ("ego",))
        for i, has in enumerate(lidar)
    ]
    entities += [
        Entity("S", EntityRole.RISU, ("pointcloud",)),
        # a source on the edge node needs no connection when parts run there
        Entity("E", EntityRole.EDGE, ("pointcloud",) if draw(st.booleans()) else ()),
        Entity("C", EntityRole.CLOUD),
    ]
    templates = [twin_template(draw, v) for v in ("v1", "v2")]
    # V9 is no entity of the topology
    names = st.sampled_from([e.entity_id for e in entities] + ["V9"])
    demands = draw(st.lists(
        st.tuples(
            st.sampled_from(["v1", "v2", "v9"]),
            st.lists(names, min_size=1, max_size=3).map(tuple),
            st.lists(st.tuples(names, st.sampled_from(TOPIC_KINDS)), max_size=5).map(tuple),
        ),
        min_size=1,
        max_size=10,
    ))
    return Topology(entities), templates, demands


def prepared_parts(parts: ResolvedParts) -> Iterable[PartSpec]:
    """The connection parts and the parts of per-source rules."""
    yield from parts.connections
    yield from (
        p for p in parts.services
        if any(item.kind == CFG_SOURCE for item in p.config_items)
    )


@given(case=twin_cases())
def test_resolution_twin_matches_the_reference_resolver(case):
    # Per-source sources come from a set, so this runs under a second
    # hash seed too.
    topology, templates, demands = case
    catalog, reference = Catalog(topology), ReferenceCatalog(topology)
    for template in templates:
        catalog.register_application(template)
        reference.register_application(template)
    shared: dict[tuple, PartSpec] = {}
    for demand in demands:
        got = outcome(catalog, *demand)
        assert got == outcome(reference, *demand)
        if isinstance(got[0], type):
            continue
        for part in prepared_parts(catalog.resolve(APP, *demand)):
            assert shared.setdefault((part.cr_name, part.config_items), part) is part


def opcodes(call, *args) -> int:
    """How many bytecodes `call(*args)` executes, its callees included."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    return count


def test_a_new_vehicle_costs_a_fixed_count_of_bytecodes_under_the_reference():
    # A count, not a timing: it repeats exactly, and a resolution that
    # grew with the vehicles seen so far would give two counts.
    scenario = make_scale_scenario(200)
    opcodes(lambda: None)  # Python 3.12.1 counts 0 for a process's first trace
    counts = []
    for seen in (10, 100):
        new = Catalog(Topology(scenario.entities))
        old = ReferenceCatalog(Topology(scenario.entities))
        for catalog in (new, old):
            for template in scenario.templates:
                catalog.register_application(template)
            for i in range(seen):
                catalog.resolve(APP, "v1", *ego_demand(f"V{i:03d}"))
        demand = ego_demand("V150")
        count = opcodes(new.resolve, APP, "v1", *demand)
        assert count <= opcodes(old.resolve, APP, "v1", *demand) * 2 / 3
        assert new.resolve(APP, "v1", *demand) == old.resolve(APP, "v1", *demand)
        counts.append(count)
    assert counts[0] == counts[1]
