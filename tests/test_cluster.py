"""Data-plane behavior: locality, forwarding latency, stub services."""

import random

import pytest

from demandflow.cluster import ClusterSim, InstanceSpec
from demandflow.model import (
    ConfigItem,
    DuplicateNodeError,
    EntityRole,
    NotRunningError,
    PayloadKind,
    ServiceKind,
    UnknownNodeError,
)


def sim_with(*nodes):
    sim = ClusterSim()
    for node in nodes:
        sim.add_node(node, EntityRole.EDGE if node == "E" else EntityRole.CV)
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


def feed(sim, node, origin, topic, kind=PayloadKind.EGO):
    sim.publish(node, sim.next_message(origin, topic, kind))


def test_node_management():
    sim = sim_with("A")
    with pytest.raises(DuplicateNodeError):
        sim.add_node("A", EntityRole.CV)
    with pytest.raises(UnknownNodeError):
        sim.publish("B", sim.next_message("A", "/a/ego", PayloadKind.EGO))
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


def test_publish_requires_increasing_seq():
    sim = sim_with("A")
    message = sim.next_message("A", "/a/ego", PayloadKind.EGO)
    sim.publish("A", message)
    with pytest.raises(ValueError):
        sim.publish("A", message)


def test_messages_stay_node_local_without_a_connection():
    sim = sim_with("A", "E")
    feed(sim, "A", "A", "/A/ego")
    sim.tick()
    assert sim.topics_visible_at("A") == ("/A/ego",)
    assert sim.topics_visible_at("E") == ()
    sim.tick()
    assert sim.topics_visible_at("E") == ()


def test_forwarding_has_one_tick_latency():
    sim = sim_with("A", "E")
    deploy_pair(sim, "A", "E", ["/A/ego"])
    feed(sim, "A", "A", "/A/ego")
    sim.tick()
    # visible at the source immediately, at the destination one tick later
    assert sim.topics_visible_at("A") == ("/A/ego",)
    assert sim.topics_visible_at("E") == ()
    sim.tick()
    assert sim.topics_visible_at("E") == ("/A/ego",)
    arrived = sim.messages_at("E", "/A/ego")
    assert [m.origin for m in arrived] == ["A"]


def test_sender_only_forwards_listed_topics():
    sim = sim_with("A", "E")
    deploy_pair(sim, "A", "E", ["/A/ego"])
    feed(sim, "A", "A", "/A/points", PayloadKind.POINT_CLOUD)
    report = sim.tick()
    assert report.forwarded == 0
    sim.tick()
    assert sim.topics_visible_at("E") == ()


def test_terminated_pair_stops_forwarding():
    sim = sim_with("A", "E")
    sender_id, receiver_id = deploy_pair(sim, "A", "E", ["/A/ego"])
    feed(sim, "A", "A", "/A/ego")
    sim.tick()
    sim.terminate_instance(sender_id)
    sim.terminate_instance(receiver_id)
    # the message forwarded before termination still lands
    sim.tick()
    assert sim.topics_visible_at("E") == ("/A/ego",)
    feed(sim, "A", "A", "/A/ego")
    sim.tick()
    sim.tick()
    assert sim.topics_visible_at("E") == ()


def test_forwarded_messages_are_not_reforwarded():
    # A -> E and E -> B both active; a message from A must stop at E
    sim = sim_with("A", "E", "B")
    deploy_pair(sim, "A", "E", ["/A/ego"])
    deploy_pair(sim, "E", "B", ["/A/ego"])
    feed(sim, "A", "A", "/A/ego")
    for _ in range(4):
        sim.tick()
        assert sim.topics_visible_at("B") == ()


def test_detection_consumes_pointclouds_and_counts():
    sim = sim_with("E")
    sim.deploy_instance(
        InstanceSpec(
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
    )
    for expected_count in (1, 2, 3):
        feed(sim, "E", "S", "/S/points", PayloadKind.POINT_CLOUD)
        sim.tick()
        out = sim.messages_at("E", "/detections/S/objects")
        assert len(out) == 1
        assert out[0].origin == "S"
        assert out[0].payload == (str(expected_count),)
        assert out[0].seq == expected_count
    # no input this tick, no output
    sim.tick()
    assert sim.messages_at("E", "/detections/S/objects") == ()


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
    feed(sim, "E", "V0", "/V0/ego")
    feed(sim, "E", "S", "/detections/S/objects", PayloadKind.OBJECT_LIST)
    feed(sim, "E", "V9", "/V9/ego")  # not subscribed, must not contribute
    sim.tick()
    out = sim.messages_at("E", "/fusion/objects")
    assert len(out) == 1
    assert out[0].payload == ("S", "V0")
    # nothing consumed, nothing published
    sim.tick()
    assert sim.messages_at("E", "/fusion/objects") == ()


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
    feed(sim, "E", "S", "/S/points", PayloadKind.POINT_CLOUD)
    sim.tick()
    assert sim.messages_at("E", "/fusion/objects")[0].payload == ("S",)


def test_fusion_output_seq_is_gap_free_over_a_long_run():
    sim = sim_with("E")
    sim.deploy_instance(fusion_spec(["/V0/ego"]))
    last_seq = 0
    for _ in range(1000):
        feed(sim, "E", "V0", "/V0/ego")
        sim.tick()
        (message,) = sim.messages_at("E", "/fusion/objects")
        assert message.seq == last_seq + 1
        last_seq = message.seq
    assert last_seq == 1000


def test_reconfigured_fusion_changes_subscriptions():
    sim = sim_with("E")
    iid = sim.deploy_instance(fusion_spec(["/V0/ego"]))
    feed(sim, "E", "V1", "/V1/ego")
    sim.tick()
    assert sim.messages_at("E", "/fusion/objects") == ()
    sim.reconfigure_instance(iid, fusion_spec(["/V0/ego", "/V1/ego"]).config)
    feed(sim, "E", "V1", "/V1/ego")
    sim.tick()
    assert sim.messages_at("E", "/fusion/objects")[0].payload == ("V1",)


@pytest.mark.parametrize("seed", range(10))
def test_random_forwarding_respects_locality(seed):
    # random connection graphs and publishes: a topic may only ever show
    # up at its publish node or at the destination of a pair listing it
    rng = random.Random(seed)
    nodes = ["A", "B", "C", "D"]
    sim = ClusterSim()
    for node in nodes:
        sim.add_node(node, EntityRole.CV)
    topics = [f"/t{i}" for i in range(5)]
    allowed = set()
    for i in range(rng.randrange(1, 5)):
        src, dst = rng.sample(nodes, 2)
        carried = rng.sample(topics, rng.randrange(1, 3))
        deploy_pair(sim, src, dst, carried, cr_name=f"conn-{i}")
        for topic in carried:
            allowed.add((src, dst, topic))
    publishes = []
    for n in range(30):
        node = rng.choice(nodes)
        topic = rng.choice(topics)
        sim.publish(
            node,
            sim.next_message(f"o{n}", topic, PayloadKind.EGO),
        )
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
            feed(sim, "A", "A", "/A/ego")
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
    feed(sim, "E", "X", "/x")
    sim.tick()
    # B consumes A's output within the tick only if A runs first
    assert "/f2" in sim.topics_visible_at("E")


def test_reconfigured_sender_forwards_its_new_topics():
    sim = sim_with("A", "E")
    sender_id, _ = deploy_pair(sim, "A", "E", ["/A/ego"])
    sender, _ = pair_specs("A", "E", ["/A/points"])
    sim.reconfigure_instance(sender_id, sender.config)
    feed(sim, "A", "A", "/A/ego")
    feed(sim, "A", "A", "/A/points", PayloadKind.POINT_CLOUD)
    assert sim.tick().forwarded == 1
    sim.tick()
    assert sim.topics_visible_at("E") == ("/A/points",)


def test_forwarded_messages_arrive_in_node_order():
    sim = sim_with("A", "B", "E")
    # B's pair is created first; arrival order still follows the nodes
    deploy_pair(sim, "B", "E", ["/shared"])
    deploy_pair(sim, "A", "E", ["/shared"])
    feed(sim, "B", "B", "/shared")
    feed(sim, "A", "A", "/shared")
    sim.tick()
    sim.tick()
    assert [m.origin for m in sim.messages_at("E", "/shared")] == ["A", "B"]


def test_arrived_messages_come_before_local_ones():
    sim = sim_with("A", "E")
    deploy_pair(sim, "A", "E", ["/shared"])
    feed(sim, "A", "A", "/shared")
    sim.tick()
    feed(sim, "E", "E", "/shared")
    sim.tick()
    assert [m.origin for m in sim.messages_at("E", "/shared")] == ["A", "E"]


def test_sender_without_a_live_receiver_forwards_nothing():
    sim = sim_with("A", "E")
    _, receiver_id = deploy_pair(sim, "A", "E", ["/A/ego"])
    sim.terminate_instance(receiver_id)
    sender, _ = pair_specs("A", "E", ["/A/ego"], cr_name="conn-lonely")
    sim.deploy_instance(sender)  # its receiver was never deployed
    feed(sim, "A", "A", "/A/ego")
    assert sim.tick().forwarded == 0
    sim.tick()
    assert sim.topics_visible_at("E") == ()


def test_two_senders_on_one_node_both_deliver_a_topic():
    sim = sim_with("A", "B", "E")
    deploy_pair(sim, "A", "E", ["/A/ego"], cr_name="conn-1")
    deploy_pair(sim, "A", "B", ["/A/ego"], cr_name="conn-2")
    feed(sim, "A", "A", "/A/ego")
    assert sim.tick().forwarded == 2
    sim.tick()
    assert sim.topics_visible_at("E") == ("/A/ego",)
    assert sim.topics_visible_at("B") == ("/A/ego",)
