import pytest

from demandflow.model import (
    ConfigItem,
    Entity,
    EntityRole,
    Topology,
    UnknownEntityError,
    config_value,
    config_values,
    ego_topic,
    points_topic,
    source_topic,
)


def test_topic_naming():
    assert ego_topic("V0") == "/V0/ego"
    assert points_topic("S") == "/S/points"
    assert source_topic("V1", "ego") == "/V1/ego"
    assert source_topic("S", "pointcloud") == "/S/points"
    with pytest.raises(ValueError):
        source_topic("V0", "video")


def test_config_item_lookup():
    items = (
        ConfigItem("node", "E"),
        ConfigItem("input-topic", "/a"),
        ConfigItem("input-topic", "/b"),
    )
    assert config_values(items, "input-topic") == ("/a", "/b")
    assert config_value(items, "node") == "E"
    with pytest.raises(ValueError):
        config_value(items, "input-topic")  # not unique
    with pytest.raises(ValueError):
        config_value(items, "missing")


def test_config_item_renders_and_orders():
    assert ConfigItem("src", "V0").render() == "src:V0"
    assert ConfigItem("a", "1") < ConfigItem("b", "0")


@pytest.mark.parametrize(
    "kind, value", [("src", "V0"), ("input-topic", "/V1/ego"), ("", "")]
)
def test_config_item_hashes_as_its_fields(kind, value):
    """The hash of the (kind, value) pair, as the frozen dataclass had, so
    no set or dict of items iterates in another order."""
    assert hash(ConfigItem(kind, value)) == hash((kind, value))
    assert hash(ConfigItem(kind=kind, value=value)) == hash(ConfigItem(kind, value))


def test_config_item_compares_by_kind_then_value():
    items = [
        ConfigItem("node", "E"),
        ConfigItem("input-topic", "/b"),
        ConfigItem("input-topic", "/a"),
        ConfigItem("forward-topic", "/a"),
    ]
    assert sorted(items) == [items[3], items[2], items[1], items[0]]
    assert ConfigItem("a", "2") > ConfigItem("a", "10")  # values compare as text
    assert ConfigItem("src", "V0") == ConfigItem("src", "V0")
    assert ConfigItem("src", "V0") != ConfigItem("dst", "V0")
    assert ConfigItem("src", "V0") != ConfigItem("src", "V1")
    assert len({ConfigItem("src", "V0"), ConfigItem("src", "V0")}) == 1
    assert [item.render() for item in items] == [
        "node:E", "input-topic:/b", "input-topic:/a", "forward-topic:/a"
    ]
    with pytest.raises(AttributeError):
        items[0].value = "F"


def test_entity_defaults_node_to_its_id():
    entity = Entity("V0", EntityRole.CV, ("ego",))
    assert entity.node_id == "V0"
    assert entity.provides("ego")
    assert not entity.provides("pointcloud")


def test_entity_rejects_unknown_capability():
    with pytest.raises(ValueError):
        Entity("V0", EntityRole.CV, ("radar",))


def _entities():
    return [
        Entity("V0", EntityRole.CV, ("ego", "pointcloud")),
        Entity("S", EntityRole.RISU, ("pointcloud",)),
        Entity("E", EntityRole.EDGE),
    ]


def test_topology_lookup_and_roles():
    topology = Topology(_entities())
    assert topology.get("V0").entity_id == "V0"
    assert topology.get("S").role is EntityRole.RISU
    assert topology.node_of("E") == "E"
    assert topology.single_node_with_role(EntityRole.EDGE) == "E"
    with pytest.raises(UnknownEntityError):
        topology.get("V9")


def test_topology_rejects_duplicates_and_shared_nodes():
    with pytest.raises(ValueError):
        Topology(_entities() + [Entity("V0", EntityRole.CV, ("ego",))])
    with pytest.raises(ValueError):
        Topology(_entities() + [Entity("X", EntityRole.CV, ("ego",), node_id="E")])


def test_topology_requires_unique_role_holder():
    topology = Topology(_entities() + [Entity("E2", EntityRole.EDGE)])
    assert [e.entity_id for e in topology.with_role(EntityRole.EDGE)] == ["E", "E2"]
    assert topology.with_role(EntityRole.CLOUD) == ()
    with pytest.raises(ValueError):
        topology.single_node_with_role(EntityRole.EDGE)
    with pytest.raises(ValueError):
        topology.single_node_with_role(EntityRole.CLOUD)
