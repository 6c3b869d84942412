#!/usr/bin/env python3
"""Show that demand changes reconfigure the fusion service in place.

Drives the control plane by hand, one zone event at a time, and prints
the fusion instance after each drain.  While vehicles come and go the
instance id never changes; only its input topics move.  A version
upgrade is the one thing that actually replaces it, with a new id.
"""

from demandflow.cli import bundled_scenario_path
from demandflow.runner import build_system, deliver, drain
from demandflow.scenario import load_scenario

FUSION = "svc-object-detection-fusion-fusion-singleton"
OUTSIDE = (500.0, 0.0)


def show_fusion(system, label):
    instances = [i for i in system.sim.instances() if i.cr_name == FUSION]
    if not instances:
        print(f"{label:28s}  (no fusion instance)")
        return
    inst = instances[0]
    print(
        f"{label:28s}  id={inst.instance_id}  version={inst.version or '-'}  "
        f"inputs={len(inst.input_topics)}"
    )


def move(system, tick, vehicle, position):
    system.detector.observe_pose(vehicle, position)
    for request in system.detector.evaluate(tick):
        deliver(system, request)
    drain(system)


def main():
    # the upgrade scenario registers both v1 and v2 of the application
    scenario = load_scenario(
        bundled_scenario_path("collective_perception_upgrade")
    )
    system = build_system(scenario)
    center = scenario.rule.center

    move(system, 1, "V0", center)
    show_fusion(system, "V0 inside")
    move(system, 2, "V1", center)
    show_fusion(system, "V0+V1 inside")
    move(system, 3, "V2", center)
    show_fusion(system, "V0+V1+V2 inside")
    move(system, 4, "V1", OUTSIDE)
    show_fusion(system, "V1 gone again")

    print()
    print("rolling upgrade to v2 (every service instance is replaced):")
    result = system.manager.upgrade_application("object-detection-fusion", "v2")
    drain(system)
    print(f"  upgrade touched {len(result.applied_crs)} resources")
    show_fusion(system, "after upgrade")

    move(system, 5, "V3", center)
    show_fusion(system, "V3 joins the v2 instance")

    move(system, 6, "V0", OUTSIDE)
    move(system, 7, "V2", OUTSIDE)
    move(system, 8, "V3", OUTSIDE)
    show_fusion(system, "everyone gone")
    print()
    print(f"instances still running: {len(system.sim.instances())}")


if __name__ == "__main__":
    main()
