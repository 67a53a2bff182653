"""Self-tests of the benchmark's readers and checks.

    python3 bench/selftest.py        (from the root of a checkout)

The readers must reproduce the toy config's known sizes, the checks must
pass on the pipeline's own outputs, and each check must fail on an
artifact doctored in one place.
"""

from __future__ import annotations

import copy
import json
import random
import re
import shutil
import struct
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import checks  # noqa: E402
import oracles  # noqa: E402
import readers  # noqa: E402
from ncsynth import cli  # noqa: E402
from ncsynth.config import RunConfig  # noqa: E402

OUT = HERE / "out" / "selftest"

# a 7x7 arena with one wall, small enough to synthesize in about a second
ARENA = {
    "plant": {"name": "robot", "tau": 1.0,
              "grid": {"lb": [0, 0], "ub": [6, 6], "eta": [1, 1]},
              "input_grid": {"lb": [-1, -1], "ub": [1, 1], "eta": [1, 1]}},
    "delays": {"nsc_min": 2, "nsc_max": 2, "nca_min": 1, "nca_max": 1},
    "spec": {"kind": "gen_buchi", "targets": [[[5, 5], [6, 6]], [[0, 0], [1, 1]]],
             "obstacles": [[[3, 0], [3, 4]]]},
    "sim": {"steps": 120, "x0": [0, 6], "seed": 0},
    "codegen": {"targets": ["c", "verilog"], "name": "tiny"},
}

SWEEP = {
    "plant": {"name": "robot", "params": {"dim": 1}, "tau": 1.0,
              "grid": {"lb": [0], "ub": [4], "eta": [1]},
              "input_grid": {"lb": [-1], "ub": [1], "eta": [1]}},
    "delays": {"nsc_min": 2, "nsc_max": 2, "nca_min": 2, "nca_max": 2},
    "spec": {"kind": "gen_buchi", "targets": [[[0], [0]], [[4], [4]]]},
    "sim": {"steps": 60, "x0": [2], "seed": 0},
    "codegen": {"targets": ["c", "verilog"], "name": "sweep"},
}


def run_pipeline(cfg, name, stages=("abstract", "expand", "synth", "sim", "codegen")):
    d = OUT / name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    path = d / "config.json"
    path.write_text(json.dumps(cfg))
    run_cfg = RunConfig.from_file(path)
    for stage in stages:
        getattr(cli, f"cmd_{stage}")(run_cfg, d)
    return d


def doctored(src, name):
    """Fresh copy of a run directory to spoil."""
    d = OUT / name
    shutil.rmtree(d, ignore_errors=True)
    shutil.copytree(src, d)
    return d


class TestReaders(unittest.TestCase):
    """Toy config: 4 cells, 2 inputs, delays (2,2) -> 100 expanded states
    and 140 transitions."""

    @classmethod
    def setUpClass(cls):
        cls.cfg = json.loads((ROOT / "configs" / "toy.json").read_text())
        cls.dir = run_pipeline(cls.cfg, "toy", ("abstract", "expand"))

    def test_formulas(self):
        self.assertEqual(checks.model_sizes(self.cfg), (4, 7, 100, 140, 8))

    def test_bdd_reader_counts_transitions(self):
        model = readers.BddFile(self.dir / "ncs.bdd")
        self.assertEqual(model.sat_count(), 140)
        checks.check_model(self.cfg, self.dir)

    def test_layout_encodes_100_states(self):
        lay = readers.Layout(readers.BddFile(self.dir / "ncs.bdd").meta)
        cells = [None, (0,), (1,), (2,), (3,)]
        words = {lay.packed(lay.encode((a, b), (u, v)))
                 for a in cells for b in cells for u in [(0,), (1,)] for v in [(0,), (1,)]}
        self.assertEqual(len(words), 100)

    def test_oracle_sizes(self):
        plant = checks.plant_transitions(self.cfg)
        cells = [(i,) for i in range(4)]
        space, _, trans = oracles.expand_explicit(
            cells, [(0,), (1,)], {k: {v} for k, v in plant.items()}, cells, (2, 2, 2, 2))
        self.assertEqual((len(space), len(trans)), (100, 140))


class TestChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.arena = run_pipeline(ARENA, "arena")
        cls.sweep = run_pipeline(SWEEP, "sweep")

    def rng(self):
        return random.Random(5)

    def test_clean_outputs_pass(self):
        checks.check_model(ARENA, self.arena)
        checks.check_trace(ARENA, self.arena)
        checks.check_model(SWEEP, self.sweep)
        checks.check_explicit(SWEEP, self.sweep, oracles)
        checks.check_trace(SWEEP, self.sweep)
        for m in (0, 1):
            checks.check_netlist(self.arena, m, f"tiny_m{m}", self.rng(), 128, 1 << 20)
            checks.check_netlist(self.sweep, m, f"sweep_m{m}", self.rng(), 128, 1 << 20)

    def test_trace_state_in_obstacle(self):
        d = doctored(self.arena, "obstacle")
        payload = json.loads((d / "trace.json").read_text())
        payload["records"][40]["x"] = [3.0, 2.0]
        (d / "trace.json").write_text(json.dumps(payload))
        with self.assertRaisesRegex(checks.CheckFailed, "inside an obstacle"):
            checks.check_trace(ARENA, d)

    def test_trace_csv_differs_from_json(self):
        d = doctored(self.arena, "csv")
        lines = (d / "trace.csv").read_text().splitlines()
        fields = lines[10].split(",")
        fields[-1] = str(1 - int(fields[-1]))
        lines[10] = ",".join(fields)
        (d / "trace.csv").write_text("\n".join(lines) + "\n")
        with self.assertRaisesRegex(checks.CheckFailed, "CSV row"):
            checks.check_trace(ARENA, d)

    def test_trace_state_off_closed_form(self):
        d = doctored(self.sweep, "closedform")
        payload = json.loads((d / "trace.json").read_text())
        payload["records"][30]["x"][0] += 1.0
        (d / "trace.json").write_text(json.dumps(payload))
        with self.assertRaisesRegex(checks.CheckFailed, "tau\\*applied"):
            checks.check_trace(SWEEP, d)

    def test_mode_change_outside_target(self):
        d = doctored(self.sweep, "modes")
        payload = json.loads((d / "trace.json").read_text())
        recs = payload["records"]
        k = next(k for k in range(2, len(recs) - 1)
                 if recs[k]["delivered"] not in ([0], [4]))
        for r in recs[k + 1:]:
            r["mode"] = 1 - r["mode"]
        (d / "trace.json").write_text(json.dumps(payload))
        with self.assertRaisesRegex(checks.CheckFailed, "outside its target"):
            checks.check_trace(SWEEP, d)

    def test_flipped_netlist_node(self):
        d = doctored(self.arena, "netlist")
        path = d / "tiny_m0.v"
        text = path.read_text()
        root = re.search(r"assign valid = (n\d+);", text).group(1)
        pattern = re.compile(rf"(assign {root} = state\[\d+\] \? )(\S+) : (\S+);")
        text = pattern.sub(lambda m: f"{m.group(1)}{m.group(3)} : {m.group(2)};", text)
        path.write_text(text)
        with self.assertRaisesRegex(checks.CheckFailed, "valid="):
            checks.check_netlist(d, 0, "tiny_m0", self.rng(), 128, 0)

    def test_c_disagrees_with_netlist(self):
        if not shutil.which("gcc"):
            self.skipTest("gcc not found")
        d = doctored(self.sweep, "csource")
        path = d / "sweep_m1.c"
        path.write_text(path.read_text().replace(
            "return u;", "return u ^ 1u;"))
        with self.assertRaisesRegex(checks.CheckFailed, "compiled C"):
            checks.check_netlist(d, 1, "sweep_m1", self.rng(), 128, 1 << 20)

    def test_wrong_node_count(self):
        d = doctored(self.sweep, "nodecount")
        data = bytearray((d / "ncs.bdd").read_bytes())
        (meta_len,) = struct.unpack_from("<I", data, 6)
        off = 10 + meta_len + 4
        (n,) = struct.unpack_from("<Q", data, off)
        struct.pack_into("<Q", data, off, n - 1)
        (d / "ncs.bdd").write_bytes(bytes(data))
        with self.assertRaises(readers.FormatError):
            readers.BddFile(d / "ncs.bdd")

    def test_wrong_transition_count(self):
        d = doctored(self.sweep, "manifest")
        path = d / "expand.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["sizes"]["n_transitions"] += 1
        path.write_text(json.dumps(manifest))
        with self.assertRaisesRegex(checks.CheckFailed, "expanded transitions"):
            checks.check_model(SWEEP, d)

    def test_spoiled_controller_relation(self):
        d = doctored(self.sweep, "relation")
        path = d / "controller.m1.bdd"
        rel = readers.BddFile(path)
        newest = readers.Layout(readers.BddFile(d / "ncs.bdd").meta).blocks["x1"]
        # swap the children of the last-written node on the newest measurement
        i = max(i for i, (var, _, _) in enumerate(rel.nodes) if var in newest)
        data = bytearray(path.read_bytes())
        rec = len(data) - 8 - 20 * (len(rel.nodes) - i)
        var, lo, hi = struct.unpack_from("<IQQ", data, rec)
        struct.pack_into("<IQQ", data, rec, var, hi, lo)
        path.write_bytes(bytes(data))
        with self.assertRaisesRegex(checks.CheckFailed, "controller.m1.bdd"):
            checks.check_explicit(SWEEP, d, oracles)

    def test_trace_against_other_delays(self):
        for key, message in (("nsc", "delivered"), ("nca", "applied")):
            cfg = copy.deepcopy(SWEEP)
            cfg["delays"][f"{key}_max"] = cfg["delays"][f"{key}_min"] = 1
            with self.assertRaisesRegex(checks.CheckFailed, message):
                checks.check_trace(cfg, self.sweep)


if __name__ == "__main__":
    unittest.main()
