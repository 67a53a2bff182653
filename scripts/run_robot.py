#!/usr/bin/env python3
"""Remotely controlled robot in a 65x65 arena over a (2,2)-delay network.

Runs the whole pipeline from configs/robot.json: plant abstraction with
obstacle removal, network expansion, alternating-targets synthesis (a two
mode controller), a 500-step closed-loop run, and code emission.  Prints
a coverage map and a visit summary at the end.

Expect about a minute of synthesis time (about 65 s on a 2-core machine);
everything is exact, there is no sampling involved.  Each stage runs
through `ncsynth.cli.main`, so a failing stage ends the script with the
`ncsynth` exit code and message (6 and the stage name when it runs out
of memory).
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncsynth import cli
from ncsynth.inspect_tools import cont_coverage
from ncsynth.modelio import load_controller
from ncsynth.simulate import load_trace_json


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(Path(__file__).resolve().parent.parent
                                            / "configs" / "robot.json"))
    ap.add_argument("--out", default="out_robot")
    ap.add_argument("--coverage", action="store_true",
                    help="print the controller coverage map")
    args = ap.parse_args()

    out = Path(args.out)
    t0 = time.monotonic()
    for stage in cli.STAGES:
        rc = cli.main([stage, "--config", args.config, "--out", args.out])
        if rc:
            sys.exit(rc)
        if stage == "synth":
            build_time = time.monotonic() - t0
    print(f"\nmodel + controller construction: {build_time:.1f} s")

    trace = load_trace_json(out / "trace.json")
    raw = json.loads(Path(args.config).read_text())
    targets = raw["spec"]["targets"]
    obstacles = raw["spec"]["obstacles"]

    def in_box(x, box):
        return all(lo <= v <= hi for v, lo, hi in zip(x, box[0], box[1]))

    visits = [0] * len(targets)
    inside = [False] * len(targets)
    hit_obstacle = 0
    for r in trace.records:
        for i, box in enumerate(targets):
            now = in_box(r.x, box)
            if now and not inside[i]:
                visits[i] += 1
            inside[i] = now
        if any(in_box(r.x, box) for box in obstacles):
            hit_obstacle += 1
    for i, v in enumerate(visits):
        print(f"target {i + 1}: entered {v} times")
    print(f"obstacle violations: {hit_obstacle}")
    print(f"modes used: {sorted({r.mode for r in trace.records})}")

    if args.coverage:
        ctrl, _ = load_controller(out / "controller.bdd")
        print("\ncontroller coverage (newest measurement register):")
        print(cont_coverage(ctrl))


if __name__ == "__main__":
    main()
