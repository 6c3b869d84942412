"""Data-plane behavior: locality, forwarding latency, stub services."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from demandflow.cluster import ClusterSim, InstanceSpec, ServiceInstance, TickReport
from demandflow.model import (
    CFG_FORWARD_TOPIC,
    CFG_INPUT_TOPIC,
    CFG_OUTPUT_TOPIC,
    ConfigItem,
    DuplicateNodeError,
    NotFoundError,
    NotRunningError,
    ServiceKind,
    UnknownNodeError,
    config_values,
)


def sim_with(*nodes):
    sim = ClusterSim()
    for node in nodes:
        sim.add_node(node)
    return sim


def pair_specs(src, dst, topics, cr_name=None):
    cr_name = cr_name or f"conn-{src}-{dst}"
    base = (ConfigItem("src", src), ConfigItem("dst", dst))
    fwd = tuple(ConfigItem("forward-topic", t) for t in topics)
    return (
        InstanceSpec(cr_name, ServiceKind.COMM_SENDER, src, base + fwd),
        InstanceSpec(cr_name, ServiceKind.COMM_RECEIVER, dst, base),
    )


def deploy_pair(sim, src, dst, topics, cr_name=None):
    sender, receiver = pair_specs(src, dst, topics, cr_name)
    return sim.deploy_instance(sender), sim.deploy_instance(receiver)


def feed(sim, node, topic):
    sim.publish_sources(((node, topic),))


def idle(sim, ticks=3):
    for _ in range(ticks):
        sim.tick()


def test_node_management():
    sim = sim_with("A")
    with pytest.raises(DuplicateNodeError):
        sim.add_node("A")
    with pytest.raises(UnknownNodeError):
        feed(sim, "B", "/a/ego")
    with pytest.raises(UnknownNodeError):
        sim.deploy_instance(
            InstanceSpec("svc-x", ServiceKind.OTHER, "B", ())
        )


@pytest.mark.parametrize(
    "field", ["cr_name", "service_kind", "node_id", "config", "version"]
)
def test_an_instance_spec_is_read_only(field):
    spec = InstanceSpec("svc-x", ServiceKind.OTHER, "A", ())
    with pytest.raises(AttributeError):
        setattr(spec, field, getattr(spec, field))
    assert spec.version == ""


@pytest.mark.parametrize("field", ["produced", "forwarded"])
def test_a_tick_report_is_read_only(field):
    report = TickReport(1, 2)
    with pytest.raises(AttributeError):
        setattr(report, field, getattr(report, field))
    assert (report.produced, report.forwarded) == (1, 2)


def test_instance_counters_track_lineage():
    # The instance id is the lineage: a reconfigure keeps it, and every
    # deploy of the same resource gets a new one.
    sim = sim_with("A")
    spec = InstanceSpec("svc-x", ServiceKind.OTHER, "A", ())
    first = sim.deploy_instance(spec)
    sim.reconfigure_instance(first, (ConfigItem("k", "v"),))
    assert sim.owned("svc-x") == (first,)
    assert sim.get_instance(first).config == (ConfigItem("k", "v"),)
    sim.terminate_instance(first)
    with pytest.raises(NotRunningError):
        sim.reconfigure_instance(first, ())
    second = sim.deploy_instance(spec)
    assert second != first
    assert sim.owned("svc-x") == (second,)


def test_messages_stay_node_local_without_a_connection():
    sim = sim_with("A", "E")
    feed(sim, "A", "/A/ego")
    sim.tick()
    assert sim.topics_visible_at("A") == ("/A/ego",)
    assert sim.topics_visible_at("E") == ()
    sim.tick()
    assert sim.topics_visible_at("E") == ()


def test_forwarding_has_one_tick_latency():
    sim = sim_with("A", "E")
    deploy_pair(sim, "A", "E", ["/A/ego"])
    feed(sim, "A", "/A/ego")
    assert sim.tick().forwarded == 1
    # visible at the source immediately, at the destination one tick later
    assert sim.topics_visible_at("A") == ("/A/ego",)
    assert sim.topics_visible_at("E") == ()
    assert sim.tick().forwarded == 0
    assert sim.topics_visible_at("E") == ("/A/ego",)
    assert sim.topics_visible_at("A") == ()


def test_every_message_is_forwarded_on_its_own():
    sim = sim_with("A", "E")
    deploy_pair(sim, "A", "E", ["/A/ego"])
    feed(sim, "A", "/A/ego")
    feed(sim, "A", "/A/ego")
    assert sim.tick().forwarded == 2
    sim.tick()
    assert sim.topics_visible_at("E") == ("/A/ego",)


def test_sender_only_forwards_listed_topics():
    sim = sim_with("A", "E")
    deploy_pair(sim, "A", "E", ["/A/ego"])
    feed(sim, "A", "/A/points")
    report = sim.tick()
    assert report.forwarded == 0
    sim.tick()
    assert sim.topics_visible_at("E") == ()


def test_terminated_pair_stops_forwarding():
    sim = sim_with("A", "E")
    sender_id, receiver_id = deploy_pair(sim, "A", "E", ["/A/ego"])
    feed(sim, "A", "/A/ego")
    sim.tick()
    sim.terminate_instance(sender_id)
    sim.terminate_instance(receiver_id)
    # the message forwarded before termination still lands
    sim.tick()
    assert sim.topics_visible_at("E") == ("/A/ego",)
    feed(sim, "A", "/A/ego")
    sim.tick()
    sim.tick()
    assert sim.topics_visible_at("E") == ()


def test_forwarded_messages_are_not_reforwarded():
    # A -> E and E -> B both active; a message from A must stop at E
    sim = sim_with("A", "E", "B")
    deploy_pair(sim, "A", "E", ["/A/ego"])
    deploy_pair(sim, "E", "B", ["/A/ego"])
    feed(sim, "A", "/A/ego")
    assert sim.tick().forwarded == 1
    for _ in range(4):
        assert sim.tick().forwarded == 0
        assert sim.topics_visible_at("B") == ()


def test_only_the_local_entries_of_a_topic_are_forwarded():
    sim = sim_with("A", "E", "B")
    deploy_pair(sim, "A", "E", ["/shared"])
    deploy_pair(sim, "E", "B", ["/shared"])
    feed(sim, "A", "/shared")
    sim.tick()
    feed(sim, "E", "/shared")
    # E holds an arrived and a local /shared; only the local one moves on
    assert sim.tick().forwarded == 1
    assert sim.topics_visible_at("E") == ("/shared",)
    sim.tick()
    assert sim.topics_visible_at("B") == ("/shared",)


DETECTION_SPEC = InstanceSpec(
    "svc-det-S",
    ServiceKind.OBJECT_DETECTION,
    "E",
    (
        ConfigItem("node", "E"),
        ConfigItem("service-kind", "object-detection"),
        ConfigItem("source", "S"),
        ConfigItem("input-topic", "/S/points"),
        ConfigItem("output-topic", "/detections/S/objects"),
    ),
)


def test_detection_consumes_pointclouds_and_counts():
    sim = sim_with("E")
    sim.deploy_instance(DETECTION_SPEC)
    for inputs in (1, 2, 3):
        for _ in range(inputs):
            feed(sim, "E", "/S/points")
        # one output per tick, however many inputs are on the bus
        assert sim.tick().produced == 1
        assert sim.topics_visible_at("E") == (
            "/S/points", "/detections/S/objects"
        )
    # no input this tick, no output
    assert sim.tick().produced == 0
    assert sim.topics_visible_at("E") == ()


def test_detection_fires_on_its_first_input_only():
    sim = sim_with("E")
    config = (
        ConfigItem("input-topic", "/S/points"),
        ConfigItem("input-topic", "/V0/ego"),
        ConfigItem("output-topic", "/detections/S/objects"),
    )
    sim.deploy_instance(
        InstanceSpec("svc-det-S", ServiceKind.OBJECT_DETECTION, "E", config)
    )
    feed(sim, "E", "/V0/ego")
    assert sim.tick().produced == 0


def test_lookups_of_unknown_names_raise():
    sim = sim_with("E")
    with pytest.raises(UnknownNodeError):
        sim.topics_visible_at("B")
    with pytest.raises(NotFoundError):
        sim.get_instance("i-9999")


@pytest.mark.parametrize(
    "kind", [ServiceKind.OBJECT_DETECTION, ServiceKind.OBJECT_FUSION]
)
@pytest.mark.parametrize("inputs", [(), ("/S/points",)], ids=["no-input", "one-input"])
def test_a_stub_without_an_output_topic_publishes_nothing(kind, inputs):
    sim = sim_with("E")
    config = tuple(ConfigItem("input-topic", t) for t in inputs)
    sim.deploy_instance(InstanceSpec("svc-x", kind, "E", config))
    feed(sim, "E", "/S/points")
    assert sim.tick().produced == 0
    assert sim.topics_visible_at("E") == ("/S/points",)


def test_terminated_instance_leaves_no_per_instance_state():
    sim = sim_with("E")
    instance_id = sim.deploy_instance(DETECTION_SPEC)
    feed(sim, "E", "/S/points")
    assert sim.tick().produced == 1
    sim.terminate_instance(instance_id)
    keyed_by_instance = [
        name
        for name, value in vars(sim).items()
        if isinstance(value, dict) and instance_id in value
    ]
    assert keyed_by_instance == []


def fusion_spec(inputs):
    return InstanceSpec(
        "svc-fusion",
        ServiceKind.OBJECT_FUSION,
        "E",
        (
            ConfigItem("node", "E"),
            ConfigItem("service-kind", "object-fusion"),
            *(ConfigItem("input-topic", t) for t in inputs),
            ConfigItem("output-topic", "/fusion/objects"),
        ),
    )


def test_fusion_aggregates_subscribed_origins():
    sim = sim_with("E")
    sim.deploy_instance(fusion_spec(["/V0/ego", "/detections/S/objects"]))
    feed(sim, "E", "/V0/ego")
    feed(sim, "E", "/detections/S/objects")
    # any one subscribed input fires it, and only once
    assert sim.tick().produced == 1
    assert "/fusion/objects" in sim.topics_visible_at("E")
    feed(sim, "E", "/detections/S/objects")
    assert sim.tick().produced == 1
    # an unsubscribed topic is nothing consumed: nothing published
    feed(sim, "E", "/V9/ego")
    assert sim.tick().produced == 0
    assert sim.topics_visible_at("E") == ("/V9/ego",)


def test_detection_feeds_fusion_in_the_same_tick():
    sim = sim_with("E")
    sim.deploy_instance(
        InstanceSpec(
            "svc-det-S",
            ServiceKind.OBJECT_DETECTION,
            "E",
            (
                ConfigItem("node", "E"),
                ConfigItem("service-kind", "object-detection"),
                ConfigItem("input-topic", "/S/points"),
                ConfigItem("output-topic", "/detections/S/objects"),
            ),
        )
    )
    sim.deploy_instance(fusion_spec(["/detections/S/objects"]))
    feed(sim, "E", "/S/points")
    assert sim.tick().produced == 2
    assert sim.topics_visible_at("E") == (
        "/S/points", "/detections/S/objects", "/fusion/objects"
    )


def test_stubs_consume_forwarded_inputs():
    sim = sim_with("A", "E")
    deploy_pair(sim, "A", "E", ["/S/points", "/V0/ego"])
    sim.deploy_instance(DETECTION_SPEC)
    sim.deploy_instance(fusion_spec(["/V0/ego"]))
    feed(sim, "A", "/S/points")
    feed(sim, "A", "/V0/ego")
    report = sim.tick()
    assert (report.produced, report.forwarded) == (0, 2)
    assert sim.tick().produced == 2
    assert sim.topics_visible_at("E") == (
        "/S/points", "/V0/ego", "/detections/S/objects", "/fusion/objects"
    )


def test_reconfigured_fusion_changes_subscriptions():
    sim = sim_with("E")
    iid = sim.deploy_instance(fusion_spec(["/V0/ego"]))
    feed(sim, "E", "/V1/ego")
    assert sim.tick().produced == 0
    assert sim.topics_visible_at("E") == ("/V1/ego",)
    sim.reconfigure_instance(iid, fusion_spec(["/V0/ego", "/V1/ego"]).config)
    feed(sim, "E", "/V1/ego")
    assert sim.tick().produced == 1
    assert sim.topics_visible_at("E") == ("/V1/ego", "/fusion/objects")


@pytest.mark.parametrize("seed", range(10))
def test_random_forwarding_respects_locality(seed):
    # random connection graphs and publishes: a topic may only ever show
    # up at its publish node or at the destination of a pair listing it
    rng = random.Random(seed)
    nodes = ["A", "B", "C", "D"]
    sim = ClusterSim()
    for node in nodes:
        sim.add_node(node)
    topics = [f"/t{i}" for i in range(5)]
    allowed = set()
    for i in range(rng.randrange(1, 5)):
        src, dst = rng.sample(nodes, 2)
        carried = rng.sample(topics, rng.randrange(1, 3))
        deploy_pair(sim, src, dst, carried, cr_name=f"conn-{i}")
        for topic in carried:
            allowed.add((src, dst, topic))
    publishes = []
    for _ in range(30):
        node = rng.choice(nodes)
        topic = rng.choice(topics)
        feed(sim, node, topic)
        publishes.append((node, topic))
        sim.tick()
        for check_node in nodes:
            for visible in sim.topics_visible_at(check_node):
                local = (check_node, visible) in {
                    (p_node, p_topic) for p_node, p_topic in publishes
                }
                received = any(
                    dst == check_node and topic == visible and any(
                        p_node == src and p_topic == visible
                        for p_node, p_topic in publishes
                    )
                    for src, dst, topic in allowed
                )
                assert local or received, (
                    f"{visible} leaked to {check_node}"
                )


def test_identical_runs_produce_identical_reports():
    def run():
        sim = sim_with("A", "E")
        deploy_pair(sim, "A", "E", ["/A/ego"])
        reports = []
        for _ in range(10):
            feed(sim, "A", "/A/ego")
            reports.append(sim.tick())
        return reports

    assert run() == run()


def test_behaviors_run_in_creation_order_past_four_digit_ids():
    sim = sim_with("E")
    filler = InstanceSpec("svc-filler", ServiceKind.OTHER, "E", ())
    for _ in range(9998):
        sim.terminate_instance(sim.deploy_instance(filler))

    def fusion(cr_name, source, output):
        return InstanceSpec(
            cr_name,
            ServiceKind.OBJECT_FUSION,
            "E",
            (
                ConfigItem("input-topic", source),
                ConfigItem("output-topic", output),
            ),
        )

    assert sim.deploy_instance(fusion("svc-a", "/x", "/f1")) == "i-9999"
    assert sim.deploy_instance(fusion("svc-b", "/f1", "/f2")) == "i-10000"
    feed(sim, "E", "/x")
    sim.tick()
    # B consumes A's output within the tick only if A runs first
    assert "/f2" in sim.topics_visible_at("E")


def test_reconfigured_sender_forwards_its_new_topics():
    sim = sim_with("A", "E")
    sender_id, _ = deploy_pair(sim, "A", "E", ["/A/ego"])
    feed(sim, "A", "/A/ego")
    idle(sim)
    sender, _ = pair_specs("A", "E", ["/A/points"])
    sim.reconfigure_instance(sender_id, sender.config)
    feed(sim, "A", "/A/ego")
    feed(sim, "A", "/A/points")
    assert sim.tick().forwarded == 1
    sim.tick()
    assert sim.topics_visible_at("E") == ("/A/points",)


def test_sender_without_a_live_receiver_forwards_nothing():
    sim = sim_with("A", "E")
    _, receiver_id = deploy_pair(sim, "A", "E", ["/A/ego"])
    sim.terminate_instance(receiver_id)
    sender, _ = pair_specs("A", "E", ["/A/ego"], cr_name="conn-lonely")
    sim.deploy_instance(sender)  # its receiver was never deployed
    feed(sim, "A", "/A/ego")
    assert sim.tick().forwarded == 0
    sim.tick()
    assert sim.topics_visible_at("E") == ()


def test_two_senders_on_one_node_both_deliver_a_topic():
    sim = sim_with("A", "B", "E")
    deploy_pair(sim, "A", "E", ["/A/ego"], cr_name="conn-1")
    deploy_pair(sim, "A", "B", ["/A/ego"], cr_name="conn-2")
    feed(sim, "A", "/A/ego")
    assert sim.tick().forwarded == 2
    sim.tick()
    assert sim.topics_visible_at("E") == ("/A/ego",)
    assert sim.topics_visible_at("B") == ("/A/ego",)


# -- topics parsed from a config ------------------------------------------


def assert_topics_match_config_values(instance):
    config = instance.config
    assert instance.input_topics == config_values(config, CFG_INPUT_TOPIC)
    outputs = config_values(config, CFG_OUTPUT_TOPIC)
    assert instance.output_topic == (outputs[0] if outputs else None)
    assert instance.forward_topics == frozenset(
        config_values(config, CFG_FORWARD_TOPIC)
    )


config_items = st.lists(
    st.builds(
        ConfigItem,
        st.sampled_from(
            [CFG_INPUT_TOPIC, CFG_OUTPUT_TOPIC, CFG_FORWARD_TOPIC, "node", "src"]
        ),
        st.sampled_from(["/a", "/b", "/c", "E"]),
    ),
    max_size=12,
)


@given(first=config_items, second=config_items, kind=st.sampled_from(ServiceKind))
def test_parse_topics_twin_matches_config_values(first, second, kind):
    """Each kind's topics, at deploy and after a reconfigure, as three
    `config_values` scans find them; repeats and several outputs too."""
    sim = sim_with("E")
    instance_id = sim.deploy_instance(InstanceSpec("x", kind, "E", tuple(first)))
    assert_topics_match_config_values(sim.get_instance(instance_id))
    sim.reconfigure_instance(instance_id, tuple(second))
    assert_topics_match_config_values(sim.get_instance(instance_id))


@given(
    first=config_items,
    steps=st.lists(st.tuples(st.booleans(), config_items), max_size=8),
    kind=st.sampled_from(ServiceKind),
)
def test_delta_parse_against_a_fresh_parse_twin(first, steps, kind):
    """After any sequence of reconfigures, each one appending items to the
    running config or replacing it, an instance's topics are those of a
    fresh parse of its config."""
    sim = sim_with("E")
    instance_id = sim.deploy_instance(InstanceSpec("x", kind, "E", tuple(first)))
    instance = sim.get_instance(instance_id)
    for extend, items in steps:
        config = instance.config + tuple(items) if extend else tuple(items)
        sim.reconfigure_instance(instance_id, config)
        fresh = ServiceInstance("i-fresh", "x", kind, "E", config, "")
        for topics in ("input_topics", "output_topic", "forward_topics"):
            assert getattr(instance, topics) == getattr(fresh, topics)
        assert_topics_match_config_values(instance)


def test_parse_topics_twin_cases():
    config = (
        ConfigItem(CFG_OUTPUT_TOPIC, "/first"),
        ConfigItem(CFG_FORWARD_TOPIC, "/a"),
        ConfigItem(CFG_INPUT_TOPIC, "/b"),
        ConfigItem(CFG_FORWARD_TOPIC, "/a"),
        ConfigItem(CFG_OUTPUT_TOPIC, "/second"),
        ConfigItem(CFG_INPUT_TOPIC, "/a"),
        ConfigItem(CFG_FORWARD_TOPIC, "/c"),
    )
    instance = ServiceInstance(
        "i-0001", "x", ServiceKind.OBJECT_FUSION, "E", config, "v1"
    )
    assert instance.output_topic == "/first"  # the first one wins
    assert instance.input_topics == ("/b", "/a")
    assert instance.forward_topics == frozenset({"/a", "/c"})
    assert_topics_match_config_values(instance)
    bare = ServiceInstance("i-0002", "x", ServiceKind.COMM_RECEIVER, "E", (), "")
    assert (bare.input_topics, bare.output_topic, bare.forward_topics) == (
        (), None, frozenset()
    )


# -- the route plan follows every lifecycle call ----------------------------


def test_receiver_deployed_after_idle_ticks_starts_receiving():
    sim = sim_with("A", "E")
    sender, receiver = pair_specs("A", "E", ["/A/ego"])
    sim.deploy_instance(sender)
    feed(sim, "A", "/A/ego")
    idle(sim)
    sim.deploy_instance(receiver)
    feed(sim, "A", "/A/ego")
    assert sim.tick().forwarded == 1
    sim.tick()
    assert sim.topics_visible_at("E") == ("/A/ego",)


def test_terminating_the_last_receiver_stops_forwarding():
    sim = sim_with("A", "E")
    _, first = deploy_pair(sim, "A", "E", ["/A/ego"])
    _, spare = pair_specs("A", "E", ["/A/ego"])
    second = sim.deploy_instance(spare)  # a replacement of the same pair
    feed(sim, "A", "/A/ego")
    idle(sim)
    sim.terminate_instance(first)
    feed(sim, "A", "/A/ego")
    assert sim.tick().forwarded == 1
    sim.terminate_instance(second)
    feed(sim, "A", "/A/ego")
    assert sim.tick().forwarded == 0


def test_detector_reconfigured_after_idle_ticks_reads_its_new_input():
    sim = sim_with("E")
    instance_id = sim.deploy_instance(DETECTION_SPEC)
    feed(sim, "E", "/S/points")
    idle(sim)
    config = tuple(
        ConfigItem("input-topic", "/T/points") if item.kind == "input-topic"
        else item
        for item in DETECTION_SPEC.config
    )
    sim.reconfigure_instance(instance_id, config)
    feed(sim, "E", "/S/points")
    assert sim.tick().produced == 0
    feed(sim, "E", "/T/points")
    assert sim.tick().produced == 1


# -- buses are reused from tick to tick -------------------------------------


def test_views_of_a_tick_survive_the_next_tick():
    sim = sim_with("A", "E")
    deploy_pair(sim, "A", "E", ["/A/ego"])
    feed(sim, "A", "/A/ego")
    sim.tick()
    feed(sim, "E", "/E/ego")
    sim.tick()
    topics = sim.topics_visible_at("E")
    assert topics == ("/A/ego", "/E/ego")
    sim.tick()  # rebuilds the bus that view was read from
    assert sim.topics_visible_at("E") == ()
    assert topics == ("/A/ego", "/E/ego")


def test_everything_published_between_ticks_is_seen_next_tick():
    sim = sim_with("A", "B", "E")
    published = {node: set() for node in ("A", "B", "E")}
    for round_ in range(4):
        for node, topics in published.items():
            for n in range(round_ + 1):
                topic = f"/{node}/t{n}"
                feed(sim, node, topic)
                topics.add(topic)
        sim.tick()
        for node, topics in published.items():
            assert sim.topics_visible_at(node) == tuple(sorted(topics))
            topics.clear()


def test_node_added_after_ticks_has_a_working_empty_bus():
    sim = sim_with("A")
    feed(sim, "A", "/A/ego")
    idle(sim)
    sim.add_node("E")
    assert sim.topics_visible_at("E") == ()
    deploy_pair(sim, "A", "E", ["/A/ego"])
    feed(sim, "A", "/A/ego")
    feed(sim, "E", "/E/ego")
    sim.tick()
    assert sim.topics_visible_at("E") == ("/E/ego",)
    sim.tick()
    assert sim.topics_visible_at("E") == ("/A/ego",)


# -- publishing every source in one call ------------------------------------


def test_publish_sources_matches_single_publishes():
    sources = (
        ("A", "/A/ego"),
        ("A", "/A/points"),
        ("A", "/A/points"),
        ("E", "/E/ego"),
    )

    def run(publish_all):
        sim = sim_with("A", "E")
        deploy_pair(sim, "A", "E", ["/A/points"])
        seen = []
        for _ in range(3):
            publish_all(sim)
            report = sim.tick()
            seen.append((report, *map(sim.topics_visible_at, ("A", "E"))))
        return seen

    def one_by_one(sim):
        for node, topic in sources:
            feed(sim, node, topic)

    assert run(lambda sim: sim.publish_sources(sources)) == run(one_by_one)


def test_publish_sources_rejects_an_unknown_node():
    sim = sim_with("A")
    with pytest.raises(UnknownNodeError):
        sim.publish_sources((("B", "/B/ego"),))


def test_a_rejected_publish_queues_nothing():
    sim = sim_with("A")
    with pytest.raises(UnknownNodeError):
        sim.publish_sources((("A", "/A/ego"), ("B", "/B/ego")))
    sim.tick()
    assert sim.topics_visible_at("A") == ()
    sources = (("A", "/A/ego"),)
    sim.publish_sources(sources)
    sim.tick()
    sim.publish_sources(sources)  # held on the buses, not queued
    with pytest.raises(UnknownNodeError):
        sim.publish_sources((("A", "/A/points"), ("B", "/B/ego")))
    sim.tick()
    assert sim.topics_visible_at("A") == ("/A/ego",)
    assert sim.changed_nodes() == []


def test_a_publish_after_the_held_sources_adds_to_them():
    sim = sim_with("A", "E")
    deploy_pair(sim, "A", "E", ["/A/ego"])
    sources = (("A", "/A/ego"),)
    sim.publish_sources(sources)
    assert sim.tick() == TickReport(0, 1)
    sim.publish_sources(sources)  # held on the buses
    feed(sim, "E", "/E/ego")
    assert sim.tick() == TickReport(0, 1)
    assert sim.changed_nodes() == ["A", "E"]
    assert sim.topics_visible_at("A") == ("/A/ego",)
    assert sim.topics_visible_at("E") == ("/A/ego", "/E/ego")


def test_the_same_sources_after_an_idle_tick_are_back_everywhere():
    sim = sim_with("A", "B", "E")
    sources = (("A", "/A/ego"), ("B", "/B/ego"))
    sim.publish_sources(sources)
    sim.tick()
    sim.tick()  # nothing published
    assert sim.changed_nodes() == ["A", "B", "E"]
    assert sim.topics_visible_at("A") == ()
    sim.publish_sources(sources)
    sim.tick()
    assert sim.changed_nodes() == ["A", "B", "E"]
    assert sim.topics_visible_at("A") == ("/A/ego",)
    assert sim.topics_visible_at("B") == ("/B/ego",)


def test_a_node_added_under_held_sources_stays_empty_and_unchanged():
    sim = sim_with("A")
    sources = (("A", "/A/ego"),)
    for _ in range(2):
        sim.publish_sources(sources)
        sim.tick()
    assert sim.changed_nodes() == []  # the sources were held
    sim.add_node("E")
    assert sim.topics_visible_at("E") == ()
    sim.publish_sources(sources)
    sim.tick()
    assert sim.changed_nodes() == []
    assert sim.topics_visible_at("A") == ("/A/ego",)
    assert sim.topics_visible_at("E") == ()


# -- the nodes a tick may have changed --------------------------------------

TOPICS = ("/a", "/b", "/c", "/d")
STUBS = (ServiceKind.OBJECT_DETECTION, ServiceKind.OBJECT_FUSION)


def stub_config(rng):
    """Zero to two input topics and, mostly, an output topic."""
    inputs = rng.sample(TOPICS, rng.randint(0, 2))
    items = [ConfigItem("input-topic", t) for t in inputs]
    if rng.random() < 0.8:
        items.append(ConfigItem("output-topic", rng.choice(TOPICS)))
    return tuple(items)


def change_something(rng, sim, nodes, live, name):
    """Deploy, terminate or reconfigure an instance, or add a node."""
    roll = rng.random()
    if roll < 0.3:  # a pair between any two nodes, not only into the edge
        src, dst = rng.sample(nodes, 2)
        carried = rng.sample(TOPICS, rng.randint(1, 2))
        live.extend(deploy_pair(sim, src, dst, carried, cr_name=f"conn-{name}"))
    elif roll < 0.5:
        kind = rng.choice(STUBS)
        spec = InstanceSpec(f"svc-{name}", kind, rng.choice(nodes), stub_config(rng))
        live.append(sim.deploy_instance(spec))
    elif roll < 0.75 and live:  # may end a receiver with arrivals in flight
        sim.terminate_instance(live.pop(rng.randrange(len(live))))
    elif roll < 0.95 and live:
        instance = sim.get_instance(rng.choice(live))
        sim.reconfigure_instance(instance.instance_id, new_config(rng, instance))
    elif roll >= 0.95:
        nodes.append(f"N{len(nodes)}")
        sim.add_node(nodes[-1])


def new_config(rng, instance):
    """A random stub config, or the instance's with other forward topics."""
    if instance.service_kind in STUBS:
        return stub_config(rng)
    carried = rng.sample(TOPICS, rng.randint(0, 2))
    return tuple(
        i for i in instance.config if i.kind != "forward-topic"
    ) + tuple(ConfigItem("forward-topic", t) for t in carried)


def runs_something(sim):
    """Whether a tick of `sim` runs a behavior or forwards along a route."""
    instances = sim.instances()
    received = {
        i.cr_name for i in instances if i.service_kind is ServiceKind.COMM_RECEIVER
    }
    return any(
        i.output_topic is not None
        if i.service_kind in STUBS
        else i.service_kind is ServiceKind.COMM_SENDER
        and i.cr_name in received
        and bool(i.forward_topics)
        for i in instances
    )


class Lockstep:
    """Makes each call on a sim and on its twin; returns the sim's result."""

    def __init__(self, sim, twin):
        self.sim, self.twin = sim, twin

    def __getattr__(self, name):
        def call(*args):
            getattr(self.twin, name)(*args)
            return getattr(self.sim, name)(*args)

        return call


@pytest.mark.parametrize("seed", range(30))
def test_nodes_left_out_of_changed_nodes_keep_their_topics(seed):
    # The twin is given lists, never taken for the last sources, so each
    # of its ticks rebuilds every node: a full recompute to compare with.
    rng = random.Random(seed)
    nodes = ["A", "B", "C", "E"]
    sim, twin = sim_with(*nodes), sim_with(*nodes)
    both = Lockstep(sim, twin)

    def sources():
        count = rng.randint(0, 6)
        return tuple((rng.choice(nodes), rng.choice(TOPICS)) for _ in range(count))

    def publish(*calls):
        for entries in calls:
            sim.publish_sources(entries)
        twin.publish_sources([e for entries in calls for e in entries])

    usual, other = sources(), sources()
    left_out = quiet = 0
    live = []
    for step in range(150):
        for _ in range(rng.choice((0, 0, 1, 2))):
            change_something(rng, both, nodes, live, step)
        before = {node: sim.topics_visible_at(node) for node in nodes}
        roll = rng.random()
        if roll < 0.7:
            publish(usual)  # the same tuple, as the runner does
        elif roll < 0.75:
            publish(other)
        elif roll < 0.8:
            usual = sources()  # equal or not, a new tuple
            publish(usual)
        elif roll < 0.85:
            publish(list(usual))
        elif roll < 0.9:
            publish(other, usual)
        elif roll < 0.95:
            publish(usual, usual)
        else:
            publish()  # nothing for the sim this tick
        assert sim.tick() == twin.tick(), step
        assert twin.changed_nodes() == nodes
        changed = sim.changed_nodes()
        assert changed == [node for node in nodes if node in changed]
        quiet += not changed and runs_something(sim)
        for node in nodes:
            assert sim.topics_visible_at(node) == twin.topics_visible_at(node)
            if node not in changed:
                left_out += 1
                assert sim.topics_visible_at(node) == before[node], (step, node)
    assert left_out
    assert quiet  # fixed points with behaviors or routes to skip


def test_arrivals_of_a_removed_connection_change_their_node_twice():
    sim = sim_with("A", "B", "E")
    sources = (("A", "/A/ego"), ("B", "/B/ego"))
    pair = deploy_pair(sim, "A", "E", ["/A/ego"])
    sim.publish_sources(sources)
    sim.tick()
    assert sim.changed_nodes() == ["A", "B", "E"]  # new sources
    for instance_id in pair:
        sim.terminate_instance(instance_id)
    sim.publish_sources(sources)
    sim.tick()  # the last forwarded entries land
    assert sim.topics_visible_at("E") == ("/A/ego",)
    assert sim.changed_nodes() == ["E"]
    sim.publish_sources(sources)
    sim.tick()  # and are gone
    assert sim.topics_visible_at("E") == ()
    assert sim.changed_nodes() == ["E"]
    sim.publish_sources(sources)
    sim.tick()
    assert sim.changed_nodes() == []


def test_behaviors_change_their_node_only_while_sources_stay_the_same():
    sim = sim_with("A", "E")
    detector = sim.deploy_instance(DETECTION_SPEC)
    sources = (("A", "/A/ego"), ("E", "/S/points"))
    assert sim.changed_nodes() == []  # no tick yet
    for _ in range(3):
        sim.publish_sources(sources)
        sim.tick()
    assert sim.changed_nodes() == []  # a fixed point since the second tick
    sim.terminate_instance(detector)
    sim.publish_sources(sources)
    sim.tick()  # its output is gone
    assert sim.topics_visible_at("E") == ("/S/points",)
    assert sim.changed_nodes() == ["E"]
    sim.publish_sources(sources)
    sim.tick()
    assert sim.changed_nodes() == []
    sim.publish_sources(sources[:1])
    sim.tick()
    assert sim.changed_nodes() == ["A", "E"]
    sim.tick()  # nothing published
    assert sim.changed_nodes() == ["A", "E"]
    sim.tick()
    assert sim.changed_nodes() == []


def test_a_list_of_sources_is_never_taken_for_the_last_ones():
    sim = sim_with("A", "E")
    sources = [("A", "/A/ego")]
    sim.publish_sources(sources)
    sim.tick()
    sources.append(("E", "/E/ego"))  # the same list, changed in place
    sim.publish_sources(sources)
    sim.tick()
    assert sim.topics_visible_at("E") == ("/E/ego",)
    assert sim.changed_nodes() == ["A", "E"]


# -- fixed points: ticks that change nothing --------------------------------


def tick_both(sim, twin, *calls):
    """Publish each of `calls` on the sim and their entries as one list on
    the twin, tick both and check they agree; returns the sim's report."""
    for entries in calls:
        sim.publish_sources(entries)
    twin.publish_sources([e for entries in calls for e in entries])
    report = sim.tick()
    assert report == twin.tick()
    for node in twin.changed_nodes():  # every node: the twin is fed lists
        assert sim.topics_visible_at(node) == twin.topics_visible_at(node), node
    return report


def detector_rig():
    """A detector on E, steady on held sources: a fixed point."""
    sim, twin = sim_with("A", "E"), sim_with("A", "E")
    both = Lockstep(sim, twin)
    detector = both.deploy_instance(DETECTION_SPEC)
    sources = (("A", "/A/ego"), ("E", "/S/points"))
    assert tick_both(sim, twin, sources) == TickReport(1, 0)
    assert sim.changed_nodes() == ["A", "E"]
    assert tick_both(sim, twin, sources) == TickReport(1, 0)
    assert sim.changed_nodes() == []
    return sim, twin, both, detector, sources


@pytest.mark.parametrize("call", ["deploy", "reconfigure", "terminate"])
def test_a_lifecycle_call_ends_a_fixed_point(call):
    sim, twin, both, detector, sources = detector_rig()
    if call == "deploy":
        both.deploy_instance(fusion_spec(["/detections/S/objects"]))
        want = TickReport(2, 0)
    elif call == "reconfigure":  # the same config still ends it
        both.reconfigure_instance(detector, DETECTION_SPEC.config)
        want = TickReport(1, 0)
    else:
        both.terminate_instance(detector)
        want = TickReport(0, 0)
    assert tick_both(sim, twin, sources) == want
    assert sim.changed_nodes() == ["E"]
    assert tick_both(sim, twin, sources) == want
    assert sim.changed_nodes() == []


@pytest.mark.parametrize(
    "publish",
    [
        lambda sources: [tuple(list(sources))],  # equal, but a new tuple
        lambda sources: [list(sources)],
        lambda sources: [sources, (("A", "/A/points"),)],  # more after the held
        lambda sources: [],  # nothing
    ],
    ids=["new-tuple", "list", "extra-publish", "nothing"],
)
def test_new_sources_end_a_fixed_point(publish):
    sim, twin, _, _, sources = detector_rig()
    calls = publish(sources)
    report = tick_both(sim, twin, *calls)
    assert sim.changed_nodes() == ["A", "E"]
    assert report == TickReport(1 if calls else 0, 0)
    if len(calls) == 1 and type(calls[0]) is tuple:
        assert tick_both(sim, twin, *calls) == report  # now held
        assert sim.changed_nodes() == []
    assert tick_both(sim, twin, sources) == TickReport(1, 0)
    assert sim.changed_nodes() == ["A", "E"]
    assert tick_both(sim, twin, sources) == TickReport(1, 0)
    assert sim.changed_nodes() == []


def chain_rig():
    """A -> E -> B: E fuses what A sends and sends the result on to B."""
    nodes = ("A", "B", "E")
    sim, twin = sim_with(*nodes), sim_with(*nodes)
    both = Lockstep(sim, twin)
    both.deploy_instance(fusion_spec(["/A/ego"]))
    deploy_pair(both, "E", "B", ["/fusion/objects"])
    return sim, twin, both


def test_arrivals_settle_one_and_two_ticks_after_a_connection_appears():
    sim, twin, both = chain_rig()
    sources = (("A", "/A/ego"),)
    for _ in range(3):
        assert tick_both(sim, twin, sources) == TickReport(0, 0)
    assert sim.changed_nodes() == []
    deploy_pair(both, "A", "E", ["/A/ego"])
    steps = []
    for _ in range(4):
        steps.append((tick_both(sim, twin, sources), sim.changed_nodes()))
    assert steps == [
        (TickReport(0, 1), ["B", "E"]),  # A sends; the plan is new
        (TickReport(1, 2), ["B", "E"]),  # E receives, fuses and sends on
        (TickReport(1, 2), ["B", "E"]),  # B receives
        (TickReport(1, 2), []),  # settled
    ]
    assert sim.topics_visible_at("B") == ("/fusion/objects",)


def test_arrivals_settle_one_and_two_ticks_after_a_connection_is_torn_down():
    sim, twin, both = chain_rig()
    sources = (("A", "/A/ego"),)
    upstream = deploy_pair(both, "A", "E", ["/A/ego"])
    for _ in range(4):
        tick_both(sim, twin, sources)
    assert tick_both(sim, twin, sources) == TickReport(1, 2)
    assert sim.changed_nodes() == []
    for instance_id in upstream:
        both.terminate_instance(instance_id)
    steps = []
    for _ in range(4):
        steps.append((tick_both(sim, twin, sources), sim.changed_nodes()))
    assert steps == [
        (TickReport(1, 1), ["B", "E"]),  # the last /A/ego lands on E
        (TickReport(0, 0), ["B", "E"]),  # E fuses nothing
        (TickReport(0, 0), ["B", "E"]),  # B's last arrival is gone
        (TickReport(0, 0), []),  # settled
    ]
    assert sim.topics_visible_at("B") == ()


def test_a_node_added_during_a_fixed_point_keeps_it_until_fed():
    sim, twin, both, _, sources = detector_rig()
    both.add_node("N")
    assert tick_both(sim, twin, sources) == TickReport(1, 0)
    assert sim.changed_nodes() == []
    assert sim.topics_visible_at("N") == ()
    assert tick_both(sim, twin, sources, (("N", "/N/ego"),)) == TickReport(1, 0)
    assert sim.changed_nodes() == ["A", "E", "N"]
    assert sim.topics_visible_at("N") == ("/N/ego",)


# -- the plan is patched by each lifecycle call, never rebuilt --------------


def full_plan(sim):
    """The plan built from scratch over the running instances.

    Behaviors: detectors, then fusers, each in creation order, without
    the stubs that have no output topic.  Routes: per (node, topic), one
    receiver node per sender carrying the topic, that of its connection
    name's first receiver in creation order.  Then how many behaviors run
    on each node, and how many connection names' first receivers are on it.
    """
    detectors, fusers, senders, first_receivers = [], [], [], {}
    for instance in sim.instances():
        kind, output = instance.service_kind, instance.output_topic
        if kind is ServiceKind.OBJECT_DETECTION and output is not None:
            triggers = frozenset(instance.input_topics[:1])
            detectors.append((instance.node_id, triggers, output))
        elif kind is ServiceKind.OBJECT_FUSION and output is not None:
            triggers = frozenset(instance.input_topics)
            fusers.append((instance.node_id, triggers, output))
        elif kind is ServiceKind.COMM_SENDER:
            senders.append(instance)
        elif kind is ServiceKind.COMM_RECEIVER:
            first_receivers.setdefault(instance.cr_name, instance.node_id)
    routes = {}
    for sender in senders:
        dst = first_receivers.get(sender.cr_name)
        for topic in sender.forward_topics if dst else ():
            routes.setdefault((sender.node_id, topic), []).append(dst)
    behaviors = detectors + fusers
    return (
        behaviors,
        {key: sorted(dsts) for key, dsts in routes.items()},
        Counter(node for node, _, _ in behaviors),
        Counter(first_receivers.values()),
    )


def patched_plan(sim):
    """The same four parts, read from the tables the lifecycle calls patch."""
    routes = {
        (node, topic): sorted(dsts)
        for node, by_topic in sim._routes.items()
        for topic, dsts in by_topic.items()
    }
    assert all(sim._routes.values()) and all(routes.values()), "empty routes kept"
    return (
        [b for table in sim._behaviors.values() for b in table.values() if b],
        routes,
        Counter(sim._behavior_nodes),
        Counter(sim._receiver_nodes),
    )


def check_plan(sim):
    """The patched plan is the rebuilt one, every running stub instance
    holds a slot, and every running instance is owned by its name, each in
    creation order, and every name that owns one is an owner."""
    assert patched_plan(sim) == full_plan(sim)
    running = sim.instances()
    stubs = [i.instance_id for k in STUBS for i in running if i.service_kind is k]
    assert [iid for table in sim._behaviors.values() for iid in table] == stubs
    owned = {}
    for instance in running:
        owned.setdefault(instance.cr_name, []).append(instance.instance_id)
    assert {name: list(members) for name, members in sim._owned.items()} == owned
    assert all(sim.owned(name) == tuple(ids) for name, ids in owned.items())
    assert sorted(sim.owners()) == sorted(owned)


class Checked:
    """Makes each call on a sim, failed or not, then checks its plan."""

    def __init__(self, sim):
        self.sim = sim

    def __getattr__(self, name):
        def call(*args):
            try:
                return getattr(self.sim, name)(*args)
            finally:
                check_plan(self.sim)

        return call


def patch_something(rng, sim, nodes, live):
    """A random lifecycle call.  Connection names repeat, so a name may get
    two senders or two receivers, and either end may come first."""
    roll = rng.random()
    name = rng.choice("xyz")
    if roll < 0.35:
        src, dst = rng.sample(nodes, 2)
        carried = rng.sample(TOPICS, rng.randint(0, 2))
        ends = pair_specs(src, dst, carried, cr_name=f"conn-{name}")
        live.append(sim.deploy_instance(rng.choice(ends)))
    elif roll < 0.55:
        kind, node = rng.choice(STUBS), rng.choice(nodes)
        spec = InstanceSpec(f"svc-{name}", kind, node, stub_config(rng))
        live.append(sim.deploy_instance(spec))
    elif roll < 0.75 and live:
        sim.terminate_instance(live.pop(rng.randrange(len(live))))
    elif roll < 0.95 and live:
        instance = sim.get_instance(rng.choice(live))
        sim.reconfigure_instance(instance.instance_id, new_config(rng, instance))
    else:
        with pytest.raises(NotRunningError):
            sim.reconfigure_instance("i-0000", ())


@pytest.mark.parametrize("seed", range(40))
def test_patched_plan_matches_a_rebuild(seed):
    rng = random.Random(seed)
    nodes = ["A", "B", "C", "E"]
    checked, live = Checked(sim_with(*nodes)), []
    for _ in range(150):
        patch_something(rng, checked, nodes, live)


def test_patched_plan_follows_each_kind_of_change():
    sim = sim_with("A", "B", "C", "E")
    checked = Checked(sim)
    first_sender, receiver = pair_specs("A", "E", ["/a", "/b"], cr_name="conn")
    second_sender, _ = pair_specs("B", "E", ["/a"], cr_name="conn")
    checked.deploy_instance(first_sender)  # senders before any receiver
    sender_id = checked.deploy_instance(second_sender)
    assert sim._routes == {}
    first = checked.deploy_instance(receiver)
    second = checked.deploy_instance(receiver._replace(node_id="C"))
    checked.reconfigure_instance(first, receiver.config)
    assert sim._routes == {"A": {"/a": ["E"], "/b": ["E"]}, "B": {"/a": ["E"]}}
    config = pair_specs("B", "E", ["/c", "/d"])[0].config
    checked.reconfigure_instance(sender_id, config)  # other forward topics
    checked.terminate_instance(first)  # the second receiver becomes first
    assert sim._routes["B"] == {"/c": ["C"], "/d": ["C"]}
    detector = checked.deploy_instance(DETECTION_SPEC)
    without_output = DETECTION_SPEC.config[:-1]
    checked.reconfigure_instance(detector, without_output)
    assert sim._behaviors[ServiceKind.OBJECT_DETECTION] == {detector: None}
    checked.reconfigure_instance(detector, DETECTION_SPEC.config)
    for instance_id in (second, detector, sender_id):
        checked.terminate_instance(instance_id)
    assert sim._routes == sim._receiver_nodes == sim._behavior_nodes == {}


def test_reconfigured_chained_fusers_keep_their_order():
    sim = sim_with("E")

    def fuser(cr_name, source, output):
        config = (
            ConfigItem("input-topic", source),
            ConfigItem("output-topic", output),
        )
        return InstanceSpec(cr_name, ServiceKind.OBJECT_FUSION, "E", config)

    upstream = sim.deploy_instance(fuser("svc-a", "/x", "/f1"))
    downstream = sim.deploy_instance(fuser("svc-b", "/f1", "/f2"))
    sources = (("E", "/x"),)
    sim.publish_sources(sources)
    report = sim.tick()
    assert report.produced == 2
    for instance_id in (downstream, upstream):  # re-added, B would run first
        sim.reconfigure_instance(instance_id, sim.get_instance(instance_id).config)
    sim.publish_sources(sources)
    assert sim.tick() == report
    assert sim.topics_visible_at("E") == ("/f1", "/f2", "/x")


def test_a_reconfigured_receiver_stays_its_connections_first():
    sim = sim_with("A", "B", "E")
    sender, receiver = pair_specs("A", "E", ["/A/ego"])
    sim.deploy_instance(sender)
    first = sim.deploy_instance(receiver)
    sim.deploy_instance(receiver._replace(node_id="B"))  # a second receiver
    sim.reconfigure_instance(first, receiver.config)
    feed(sim, "A", "/A/ego")
    assert sim.tick().forwarded == 1
    sim.tick()
    assert sim.topics_visible_at("E") == ("/A/ego",)
    assert sim.topics_visible_at("B") == ()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda sim, gone: sim.terminate_instance(gone), NotRunningError),
        (lambda sim, gone: sim.reconfigure_instance(gone, ()), NotRunningError),
        (lambda sim, gone: sim.terminate_instance("i-9999"), NotRunningError),
        (
            lambda sim, gone: sim.deploy_instance(DETECTION_SPEC._replace(node_id="B")),
            UnknownNodeError,
        ),
    ],
    ids=["terminate", "reconfigure", "never-deployed", "unknown-node"],
)
def test_a_failed_lifecycle_call_keeps_a_fixed_point(call, error):
    # operators make such calls in their teardown, suppressing the error
    sim = sim_with("A", "E")
    gone = sim.deploy_instance(DETECTION_SPEC)
    sim.terminate_instance(gone)
    sim.deploy_instance(DETECTION_SPEC)
    sources = (("A", "/A/ego"), ("E", "/S/points"))
    for _ in range(2):
        sim.publish_sources(sources)
        report = sim.tick()
    assert sim.changed_nodes() == []
    with pytest.raises(error):
        call(sim, gone)
    sim.publish_sources(sources)
    assert sim.tick() == report == TickReport(1, 0)
    assert sim.changed_nodes() == []


# -- differential forwarding: a tick walks only the senders that changed ----


def full_forward(sim):
    """What the last tick forwarded, walked over every route: a Counter of
    topics per receiver node (each receiver node, with entries or not),
    and how many entries in all."""
    arriving = {node: Counter() for node in sim._receiver_nodes}
    total = 0
    for node, by_topic in sim._routes.items():
        for topic in sim._bus[node][1]:
            for dst in by_topic.get(topic, ()):
                arriving[dst][topic] += 1
                total += 1
    return arriving, total


def check_forward(sim, report):
    """The arriving counts and `forwarded` equal a walk of every route."""
    arriving, total = full_forward(sim)
    assert sim._arriving == {node: dict(c) for node, c in arriving.items()}
    assert report.forwarded == total
    assert sim._arriving.keys() == sim._receiver_nodes.keys()


@pytest.mark.parametrize("seed", range(30))
def test_differential_forward_matches_a_walk_of_every_route(seed):
    rng = random.Random(seed)
    nodes = ["A", "B", "C", "E"]
    sim, live = sim_with(*nodes), []

    def sources():
        count = rng.randint(0, 6)
        return tuple((rng.choice(nodes), rng.choice(TOPICS)) for _ in range(count))

    usual = sources()
    forwarding = 0
    for _ in range(150):
        for _ in range(rng.choice((0, 0, 1, 2))):
            patch_something(rng, sim, nodes, live)
        roll = rng.random()
        if roll < 0.75:
            sim.publish_sources(usual)  # held
        elif roll < 0.85:
            usual = sources()
            sim.publish_sources(usual)
        elif roll < 0.95:
            sim.publish_sources(list(sources()))
        report = sim.tick()
        check_forward(sim, report)
        forwarding += report.forwarded > 0
    assert forwarding  # some ticks forward something


def test_differential_forward_follows_each_kind_of_change():
    sim = sim_with("A", "B", "C", "E")
    held = (("A", "/a"), ("A", "/b"), ("B", "/a"))
    steps = []

    def tick(sources=held):
        sim.publish_sources(sources)
        report = sim.tick()
        check_forward(sim, report)
        steps.append(report.forwarded)

    tick()
    sender, receiver = pair_specs("A", "E", ["/a"], cr_name="conn")
    first = sim.deploy_instance(receiver)
    tick()  # a receiver live across a tick before its sender
    sender_id = sim.deploy_instance(sender)
    tick()
    other = pair_specs("A", "E", ["/b"], cr_name="other")
    deploy_pair(sim, "B", "E", ["/a"])
    other_ids = [sim.deploy_instance(spec) for spec in other]  # two on A
    tick()
    config = pair_specs("A", "E", ["/b"])[0].config
    sim.reconfigure_instance(sender_id, config)  # other topics
    tick()
    second = sim.deploy_instance(receiver._replace(node_id="C"))
    sim.terminate_instance(first)  # the second receiver becomes first
    tick()
    assert sim._arriving["C"] == {"/b": 1}
    sim.terminate_instance(second)  # the last receiver of `conn`
    tick()
    tick((("A", "/b"), ("A", "/b"), ("B", "/c")))  # changed sources
    tick()  # held
    for instance_id in other_ids:
        sim.terminate_instance(instance_id)
    tick(held)
    assert steps == [0, 0, 1, 3, 3, 3, 2, 2, 2, 1]


def test_a_receiver_alone_changes_its_node_on_the_second_tick():
    # operators start a connection's receiver first; its node is listed
    # one tick late, as arrivals to it are delivered from then on
    sim = sim_with("A", "E")
    sources = (("A", "/A/ego"),)
    for _ in range(2):
        sim.publish_sources(sources)
        sim.tick()
    assert sim.changed_nodes() == []
    sim.deploy_instance(pair_specs("A", "E", ["/A/ego"])[1])
    steps = []
    for _ in range(3):
        sim.publish_sources(sources)
        check_forward(sim, sim.tick())
        steps.append(sim.changed_nodes())
    assert steps == [[], ["E"], []]


def test_differential_forward_changes_that_cancel_out_keep_a_fixed_point():
    # A stops forwarding /a to E as B starts: E's counts stay as they were
    sim = sim_with("A", "B", "E")
    sources = (("A", "/a"), ("B", "/a"))
    from_a = deploy_pair(sim, "A", "E", ["/a"], cr_name="x")[0]
    from_b = deploy_pair(sim, "B", "E", [], cr_name="y")[0]
    for _ in range(3):
        sim.publish_sources(sources)
        check_forward(sim, sim.tick())
    assert sim.changed_nodes() == []
    sim.reconfigure_instance(from_a, pair_specs("A", "E", [])[0].config)
    sim.reconfigure_instance(from_b, pair_specs("B", "E", ["/a"])[0].config)
    steps = []
    for _ in range(2):
        sim.publish_sources(sources)
        report = sim.tick()
        check_forward(sim, report)
        steps.append((report.forwarded, sim.changed_nodes()))
    assert steps == [(1, ["E"]), (1, [])]
    assert sim._shares["A"] == [] and sim._shares["B"] == [("E", "/a")]
