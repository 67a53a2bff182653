#!/usr/bin/env python3
"""Collision-free deployment of two robots sharing one arena.

The two planar robots are stacked into one 4-dimensional plant; each
robot cycles through its own two targets while avoiding its obstacles,
and the joint state must never enter a collision cell (both robots on
the same position).  The collision set is the diagonal of the position
product and is injected here as one point box per cell.

The full 16x16 configuration uses the published target/obstacle numbers;
its synthesis takes many hours in this pure-Python engine.  --demo runs
a 6x6 arena with a central block per robot instead, which exercises
exactly the same pipeline; under a 4 GB memory cap it finishes the
abstraction and the expansion, then runs out of memory in synthesis.

The config actually run is written to <out>/config.json.  Each stage
runs through `ncsynth.cli.main`, so a failing stage ends the script with
the `ncsynth` exit code and message (6 and the stage name when it runs
out of memory).
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncsynth import cli

DEMO_ARENA = 5
DEMO_SPEC = {
    "kind": "gen_buchi",
    "targets": [
        [[1, 1, 0, 0], [1, 1, DEMO_ARENA, DEMO_ARENA]],
        [[4, 4, 0, 0], [4, 4, DEMO_ARENA, DEMO_ARENA]],
        [[0, 0, 1, 4], [DEMO_ARENA, DEMO_ARENA, 1, 4]],
        [[0, 0, 4, 1], [DEMO_ARENA, DEMO_ARENA, 4, 1]],
    ],
    "obstacles": [
        [[2, 2, 0, 0], [3, 3, DEMO_ARENA, DEMO_ARENA]],
        [[0, 0, 2, 2], [DEMO_ARENA, DEMO_ARENA, 3, 3]],
    ],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(Path(__file__).resolve().parent.parent
                                            / "configs" / "two_robot.json"))
    ap.add_argument("--out", default="out_two_robots")
    ap.add_argument("--demo", action="store_true",
                    help="run the small feasibility-checked arena instead of "
                         "the full published one")
    args = ap.parse_args()

    raw = json.loads(Path(args.config).read_text())
    if args.demo:
        top = DEMO_ARENA
        raw["plant"]["grid"]["ub"] = [top] * 4
        raw["spec"] = DEMO_SPEC
        raw["sim"]["x0"] = [1, top - 1, top - 1, 1]
    top = int(raw["plant"]["grid"]["ub"][0])

    # both robots on the same cell is a crash: one point box per cell
    for i in range(top + 1):
        for j in range(top + 1):
            raw["spec"]["obstacles"].append([[i, j, i, j], [i, j, i, j]])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(raw))

    t0 = time.monotonic()
    for stage in cli.STAGES:
        rc = cli.main([stage, "--config", str(cfg_path), "--out", args.out])
        if rc:
            sys.exit(rc)
        if stage == "synth":
            print(f"construction + synthesis: {time.monotonic() - t0:.1f} s")


if __name__ == "__main__":
    main()
