"""Data-plane behavior: locality, forwarding latency, stub services."""

import random

import pytest

from demandflow.cluster import ClusterSim, InstanceSpec
from demandflow.model import (
    ConfigItem,
    DuplicateNodeError,
    NotFoundError,
    NotRunningError,
    ServiceKind,
    UnknownNodeError,
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


def test_instance_counters_track_lineage():
    sim = sim_with("A")
    spec = InstanceSpec("svc-x", ServiceKind.OTHER, "A", ())
    first = sim.deploy_instance(spec)
    assert sim.get_instance(first).restart_count == 0
    sim.reconfigure_instance(first, (ConfigItem("k", "v"),))
    instance = sim.get_instance(first)
    assert instance.config_version == 1
    assert instance.restart_count == 0
    sim.terminate_instance(first)
    with pytest.raises(NotRunningError):
        sim.reconfigure_instance(first, ())
    # a new instance of the same resource remembers its predecessors
    second = sim.deploy_instance(spec)
    assert sim.get_instance(second).restart_count == 1


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
    sim.tick()  # clears and refills the buses that view was read from
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
