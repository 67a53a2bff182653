#!/usr/bin/env python3
"""Remotely controlled robot in a 65x65 arena over a (2,2)-delay network.

Runs the whole pipeline from configs/robot.json: plant abstraction with
obstacle removal, network expansion, alternating-targets synthesis (a two
mode controller), a 500-step closed-loop run, and code emission.  Prints
a coverage map and a visit summary at the end.

Expect about a minute of synthesis time (about 65 s on a 2-core machine);
everything is exact, there is no sampling involved.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncsynth.cli import (cmd_abstract, cmd_codegen, cmd_expand, cmd_sim,
                         cmd_synth)
from ncsynth.config import RunConfig
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

    cfg = RunConfig.from_file(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    cmd_abstract(cfg, out)
    cmd_expand(cfg, out)
    cmd_synth(cfg, out)
    build_time = time.monotonic() - t0
    cmd_sim(cfg, out)
    cmd_codegen(cfg, out)
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
        print(cont_coverage(ctrl, ctrl.model))


if __name__ == "__main__":
    main()
