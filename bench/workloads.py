"""The benchmark's workloads as pipeline configs.

Geometry and delays are fixed per workload; the seed draws only the
closed-loop start states (and, in `run.py`, the states the checks
sample).  Start states are free arena cells: every one of them is in the
winning set of these arenas, so no seed makes a simulation fail.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

# 15x15 arena in the style of configs/robot.json: two walls with gaps,
# scattered blocks, recurrence targets in opposite corners.  At delays
# (2,2) synthesis creates about 1.9M BDD nodes, so the node store passes
# the kernel's 1<<20 GC threshold once, about halfway through.
ARENA15 = {
    "size": 15,
    "targets": [[[10, 10], [13, 13]], [[1, 1], [3, 3]]],
    "obstacles": [[[5, 0], [5, 7]], [[5, 10], [5, 14]], [[9, 4], [9, 14]],
                  [[9, 0], [9, 1]], [[1, 7], [2, 7]], [[6, 12], [7, 12]],
                  [[11, 5], [13, 5]], [[2, 11], [3, 12]], [[6, 3], [7, 4]],
                  [[12, 1], [13, 2]], [[11, 8], [12, 8]]],
}

# configs/robot.json scaled from 65x65 to 17x17 (corners rounded to cells).
ARENA17 = {
    "size": 17,
    "targets": [[[12, 12], [14, 14]], [[1, 1], [2, 2]]],
    "obstacles": [[[5, 0], [6, 10]], [[5, 12], [6, 16]], [[10, 6], [10, 16]],
                  [[10, 0], [10, 4]], [[2, 7], [4, 8]], [[7, 2], [8, 3]],
                  [[7, 13], [8, 14]], [[12, 5], [13, 6]], [[14, 9], [14, 10]]],
}

SWEEP_PROLONGED = [(2, 2, n, n) for n in range(1, 10)]
SWEEP_TIME_VARYING = [(1, 1, 1, 3), (2, 2, 1, 4)]
SWEEP_STEPS = 200
ARENA_STEPS = 500
HORIZON_SIMS = 6
HORIZON_STEPS = 6000

WORKLOADS = ("arena_gen_buchi", "delay_sweep", "long_horizon_sim")


@dataclass
class Item:
    """One config of a workload: its pipeline runs once per round, with
    one simulation per entry of ``sims`` (each its own config, since the
    start state lives in the config)."""
    name: str
    sims: list
    codegen: bool = True
    configs: list = field(default_factory=list)   # RunConfig per sim

    @property
    def cfg(self):
        return self.sims[0]


def _config(name, plant, delays, spec, x0, steps):
    d = dict(zip(("nsc_min", "nsc_max", "nca_min", "nca_max"), delays))
    return {"plant": plant, "delays": d, "spec": spec,
            "sim": {"steps": steps, "x0": list(x0), "seed": 0},
            "codegen": {"targets": ["c", "verilog"], "name": name}}


def _arena_plant(size):
    return {"name": "robot", "tau": 1.0,
            "grid": {"lb": [0, 0], "ub": [size - 1, size - 1], "eta": [1, 1]},
            "input_grid": {"lb": [-1, -1], "ub": [1, 1], "eta": [1, 1]}}


def free_cells(arena):
    def inside(p, box):
        return all(a <= v <= b for v, a, b in zip(p, *box))
    return [p for p in itertools.product(range(arena["size"]), repeat=2)
            if not any(inside(p, b) for b in arena["obstacles"])]


def _arena_item(name, arena, delays, starts, steps):
    spec = {"kind": "gen_buchi", "targets": arena["targets"],
            "obstacles": arena["obstacles"]}
    sims = [_config(name, _arena_plant(arena["size"]), delays, spec, x0, steps)
            for x0 in starts]
    return Item(name=name, sims=sims)


def build(workload, seed):
    """The workload's items for ``seed``."""
    rng = random.Random(seed)
    if workload == "arena_gen_buchi":
        x0 = rng.choice(free_cells(ARENA15))
        return [_arena_item("arena", ARENA15, (2, 2, 2, 2), [x0], ARENA_STEPS)]
    if workload == "long_horizon_sim":
        starts = [rng.choice(free_cells(ARENA17)) for _ in range(HORIZON_SIMS)]
        return [_arena_item("horizon", ARENA17, (2, 2, 1, 1), starts, HORIZON_STEPS)]
    if workload == "delay_sweep":
        plant = {"name": "robot", "params": {"dim": 1}, "tau": 1.0,
                 "grid": {"lb": [0], "ub": [4], "eta": [1]},
                 "input_grid": {"lb": [-1], "ub": [1], "eta": [1]}}
        spec = {"kind": "gen_buchi", "targets": [[[0], [0]], [[4], [4]]]}
        items = []
        for delays in SWEEP_PROLONGED + SWEEP_TIME_VARYING:
            name = "sweep_" + "_".join(map(str, delays))
            x0 = (rng.randrange(5),)
            cfg = _config(name, plant, delays, spec, x0, SWEEP_STEPS)
            prolonged = delays[0] == delays[1] and delays[2] == delays[3]
            items.append(Item(name=name, sims=[cfg], codegen=prolonged))
        return items
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(items, directory):
    """Write every config file and parse it back with the program's
    config loader, as ``ncsynth`` would."""
    from ncsynth.config import RunConfig
    directory.mkdir(parents=True, exist_ok=True)
    for item in items:
        item.configs = []
        for i, cfg in enumerate(item.sims):
            path = directory / f"{item.name}.{i}.json"
            path.write_text(json.dumps(cfg, indent=1))
            item.configs.append(RunConfig.from_file(path))
