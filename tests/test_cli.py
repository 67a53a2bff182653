import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from ncsynth.bddfile import load
from ncsynth.cli import main
from ncsynth.codegen import generate
from ncsynth.config import ConfigError, RunConfig
from ncsynth.modelio import load_controller, load_ncs_model, load_plant_model
from ncsynth.ncs import expand_spec_set
from ncsynth.simulate import load_trace_json
from ncsynth.synthesis import (solve_gen_buchi, solve_persistence,
                                solve_reach, solve_recurrence)
from oracles import trace_csv_text

CONFIGS = Path(__file__).parent.parent / "configs"


def toy_config(tmp_path, **overrides):
    cfg = json.loads((CONFIGS / "toy.json").read_text())
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        node = cfg
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def gen_buchi_config(tmp_path):
    """The toy on cells 0..4 with inputs -1..1, cycling between both ends:
    a controller with two modes."""
    return toy_config(tmp_path, **{
        "plant.grid": {"lb": [0], "ub": [4], "eta": [1]},
        "plant.input_grid": {"lb": [-1], "ub": [1], "eta": [1]},
        "spec.kind": "gen_buchi", "spec.targets": [[[0], [0]], [[4], [4]]],
        "sim.x0": [2]})


_read_sinks = []   # lists that collect the files opened for reading


def _audit_reads(event, args):
    if event != "open" or not _read_sinks:
        return
    path, mode, flags = args
    if isinstance(mode, str):
        reading = not set(mode) & set("wax+")
    else:
        reading = not flags & (os.O_WRONLY | os.O_RDWR)
    if reading and isinstance(path, (str, bytes, os.PathLike)):
        for sink in _read_sinks:
            sink.append(Path(os.fsdecode(path)))


@pytest.fixture
def file_reads():
    """A list that collects every file the process opens for reading while
    the test runs, through an audit hook (which cannot be removed: it
    stays installed, idle, for the rest of the session)."""
    if not getattr(_audit_reads, "installed", False):
        sys.addaudithook(_audit_reads)
        _audit_reads.installed = True
    reads = []
    _read_sinks.append(reads)
    yield reads
    _read_sinks.remove(reads)


class TestConfigValidation:
    def test_missing_section(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"plant": {}}))
        with pytest.raises(ConfigError, match="delays"):
            RunConfig.from_file(p)

    def test_bad_delay_bounds(self, tmp_path):
        p = toy_config(tmp_path, **{"delays.nsc_min": 3})
        with pytest.raises(ConfigError, match="nsc_min"):
            RunConfig.from_file(p)

    def test_unknown_spec_kind(self, tmp_path):
        p = toy_config(tmp_path, **{"spec.kind": "liveness"})
        with pytest.raises(ConfigError, match="kind"):
            RunConfig.from_file(p)

    def test_reach_requires_targets(self, tmp_path):
        p = toy_config(tmp_path)
        cfg = json.loads(p.read_text())
        cfg["spec"].pop("targets")
        p.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="targets"):
            RunConfig.from_file(p)

    def test_exit_code_on_config_error(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        rc = main(["abstract", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        rc = main(["abstract", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("key, value", [
        ("sim.x0", [float("nan")]),
        ("sim.x0", [float("-inf")]),
        ("plant.grid.ub", [float("inf")]),
        ("plant.tau", float("nan")),
        ("sim.x0", [10 ** 400]),
        ("plant.tau", -10 ** 400),
    ])
    def test_non_finite_number_rejected_before_any_stage(self, tmp_path,
                                                         capsys, key, value):
        # json writes these as NaN / Infinity or as long digit strings,
        # which json.load reads back
        cfgp = toy_config(tmp_path, **{key: value})
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfgp), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {key}: expected" in err and "finite" in err
        assert not (out / "plant.bdd").exists()

    @pytest.mark.parametrize("key, value", [
        ("plant.grid.eta", [0.0]),
        ("plant.input_grid.lb", [5.0]),
    ])
    def test_bad_grid_rejected_before_any_stage(self, tmp_path, capsys,
                                                key, value):
        cfgp = toy_config(tmp_path, **{key: value})
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfgp), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {key.rsplit('.', 1)[0]}: " in err
        assert not (out / "plant.bdd").exists()

    @pytest.mark.parametrize("key, value", [
        ("codegen.name", "../escaped"),
        ("codegen.name", 5),
        ("codegen.name", "my ctl"),
        ("codegen", 5),
        ("codegen.targets", "c"),
        ("plant.name", "rocket"),
        ("plant.params", {"dim": 1, "bogus": 2}),
        ("plant.params", [1]),
        ("sim.seed", [1]),
        ("report_reachable", "no"),
        ("sim.x0", [9]),
        ("sim.x0", [-0.6]),
        ("sim.x0", [0, 1]),
        ("sim.u0", [7]),
        ("sim.u0", [0, 1]),
        ("sim.steps", -3),
        ("sim.steps", 0),
        ("sim.steps", True),
        ("sim.steps", 2.5),
        ("codegen.name", "module"),
        ("codegen.name", "uwire"),
        ("delays.nsc_min", True),
        ("sim.seed", True),
        ("sim.x0", [True]),
        ("plant.params.dim", "1"),
        ("plant.params.dim", True),
        ("plant.params.dim", 1.5),
        ("sim.stpes", 5),
        ("spec.target", [[[3], [3]]]),
        ("codegen.nmae", "ctl"),
        ("delays.nsc_mx", 2),
        ("plant.input_gird", {"lb": [0], "ub": [1], "eta": [1]}),
        ("plant.grid.etaa", [1]),
        ("plant.tau", 0),
        ("plant.tau", -1.0),
    ])
    def test_bad_value_refused_before_any_stage(self, tmp_path, capsys,
                                                key, value):
        cfgp = toy_config(tmp_path, **{key: value})
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfgp), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {key}: ") and "Traceback" not in err
        assert not (out / "plant.bdd").exists()
        assert not list(tmp_path.glob("escaped.*"))

    @pytest.mark.parametrize("key", ["targets", "obstacles", "safe"])
    @pytest.mark.parametrize("box", [[[3, 0], [3, 0]], [[3], [2]]])
    def test_spec_box_not_fitting_the_grid_refused_before_any_stage(
            self, tmp_path, capsys, key, box):
        # a box with the grid's dimension that misses its cells is allowed;
        # one of another dimension, or with lo > hi, is not
        cfgp = toy_config(tmp_path, **{f"spec.{key}": [[[9], [9]], box]})
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfgp), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: spec.{key}[1]: ") and "Traceback" not in err
        assert not (out / "plant.bdd").exists()

    def test_edge_points_and_keyword_case_accepted(self, tmp_path):
        # the toy's cells span [-0.5, 3.5] and its input cells [-0.5, 1.5];
        # Verilog keywords are lower case
        cfg = RunConfig.from_file(toy_config(tmp_path, **{
            "sim.x0": [3.5], "sim.u0": [-0.5], "sim.steps": 1,
            "codegen.name": "Module"}))
        assert cfg.sim.x0 == (3.5,) and cfg.sim.u0 == (-0.5,)
        assert cfg.codegen.name == "Module"

    def test_recurrence_refuses_safe_boxes(self, tmp_path, capsys):
        # solve_recurrence takes no safe set: the boxes would be ignored
        cfgp = toy_config(tmp_path, **{"spec.kind": "recurrence",
                                       "spec.safe": [[[0], [2]]]})
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfgp), "--out", str(out)])
        assert rc == 2
        assert "error: spec.safe: " in capsys.readouterr().err
        assert not (out / "plant.bdd").exists()


class TestToyPipeline:
    def test_full_chain_and_manifests(self, tmp_path, capsys):
        cfgp = toy_config(tmp_path)
        out = tmp_path / "out"
        for stage in ("abstract", "expand", "synth", "sim", "codegen"):
            rc = main([stage, "--config", str(cfgp), "--out", str(out)])
            assert rc == 0, stage
        for name in ("plant.bdd", "ncs.bdd", "ncs.init.bdd", "controller.bdd",
                     "trace.csv", "trace.json", "toyctl.c", "toyctl.h",
                     "toyctl.v"):
            assert (out / name).exists(), name
        expand_manifest = json.loads((out / "expand.manifest.json").read_text())
        assert expand_manifest["sizes"]["n_states_formula"] == 100
        assert expand_manifest["sizes"]["n_states_symbolic"] == 100
        assert "n_reachable" in expand_manifest["sizes"]
        synth_manifest = json.loads((out / "synth.manifest.json").read_text())
        assert synth_manifest["sizes"]["empty"] is False
        assert synth_manifest["inputs"]
        assert str(out / "plant.bdd") not in synth_manifest["inputs"]

    def test_synth_reads_only_the_expanded_model(self, tmp_path):
        cfgp = gen_buchi_config(tmp_path)
        outs = [tmp_path / "kept", tmp_path / "deleted"]
        for out in outs:
            for stage in ("abstract", "expand"):
                assert main([stage, "--config", str(cfgp),
                             "--out", str(out)]) == 0
        (outs[1] / "plant.bdd").unlink()
        for out in outs:
            assert main(["synth", "--config", str(cfgp), "--out", str(out)]) == 0
        kept, deleted = ({p.name: p.read_bytes() for p in out.iterdir()
                          if p.name.startswith("controller.")} for out in outs)
        assert "controller.bdd" in kept
        assert kept == deleted

    def test_codegen_bytes_follow_from_the_controller_file(self, tmp_path):
        # the header facts (sampling period, delays, register bits) are
        # those of the model that the controller file describes
        cfgp = toy_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 0
        ctrl, _ = load_controller(out / "controller.bdd")
        (art,) = generate(ctrl, "toyctl")
        assert "/* sampling period: 1.0 */" in art["header"]
        assert ("/* channel delays (samples): sensor-to-controller [2;2], "
                "controller-to-actuator [2;2] */") in art["header"]
        for key, suffix in (("header", ".h"), ("source", ".c"),
                            ("verilog", ".v")):
            assert (out / f"toyctl{suffix}").read_text() == art[key], key

    def test_reach_run_ends_at_first_target_sample(self, tmp_path):
        # a reach controller guarantees a visit, not a stay: past the
        # target it may have no input, so the run must end there
        cfgp = toy_config(tmp_path, **{
            "plant.grid": {"lb": [0], "ub": [4], "eta": [1]},
            "plant.input_grid": {"lb": [-1], "ub": [1], "eta": [1]},
            "delays": {"nsc_min": 1, "nsc_max": 1, "nca_min": 4, "nca_max": 4},
            "spec.targets": [[[4], [4]]], "sim.x0": [0], "sim.steps": 40})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 0
        records = json.loads((out / "trace.json").read_text())["records"]
        assert records[-1]["x"] == [4.0]
        assert all(r["x"] != [4.0] for r in records[:-1])
        assert len(records) < 40

    def test_sim_manifest_counts_distinct_records(self, tmp_path):
        cfgp = gen_buchi_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 0
        sizes = json.loads((out / "sim.manifest.json").read_text())["sizes"]
        records = load_trace_json(out / "trace.json").records
        distinct = {(struct.pack(f"{len(r.x)}d", *r.x), r.delivered,
                     r.chosen, struct.pack(f"{len(r.applied)}d", *r.applied),
                     r.mode) for r in records}
        assert sizes["distinct_records"] == len(distinct)
        # the two-mode loop shuttles between the ends and repeats itself
        assert len(distinct) < len(records) == sizes["steps"]

    def test_trace_files_match_library_writers(self, tmp_path):
        cfgp = toy_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 0
        text = (out / "trace.json").read_text()
        assert json.dumps(json.loads(text), indent=1) == text
        trace = load_trace_json(out / "trace.json")
        with open(out / "trace.csv", newline="") as fh:
            assert fh.read() == trace_csv_text(trace, trace.rows())

    def test_run_command_equivalent(self, tmp_path):
        cfgp = toy_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()

    def test_pipeline_determinism(self, tmp_path):
        cfgp = toy_config(tmp_path)
        hashes = []
        for i in range(2):
            out = tmp_path / f"out{i}"
            assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 0
            hashes.append({name: sha(out / name) for name in
                           ("plant.bdd", "ncs.bdd", "controller.bdd",
                            "trace.csv", "toyctl.c", "toyctl.v")})
        assert hashes[0] == hashes[1]

    @pytest.mark.filterwarnings("ignore:box does not intersect")
    def test_empty_controller_exit_code(self, tmp_path, capsys):
        # target disconnected from every state: unreachable box
        cfgp = toy_config(tmp_path, **{"spec.targets": [[[3], [3]]],
                                       "spec.kind": "safety",
                                       "spec.safe": [[[9], [9]]]})
        cfg = json.loads(cfgp.read_text())
        cfg["spec"] = {"kind": "safety", "safe": [[[9], [9]]]}
        cfgp.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["abstract", "--config", str(cfgp), "--out", str(out)]) == 0
        assert main(["expand", "--config", str(cfgp), "--out", str(out)]) == 0
        rc = main(["synth", "--config", str(cfgp), "--out", str(out)])
        assert rc == 3
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["reach", "recurrence"])
    def test_target_union_is_the_union_of_box_lifts(self, tmp_path, kind):
        spec = {"kind": kind, "targets": [[[3], [3]], [[0], [0]]]}
        if kind == "reach":
            spec["safe"] = [[[0], [3]]]
        cfgp = toy_config(tmp_path, spec=spec)
        out = tmp_path / "out"
        for stage in ("abstract", "expand", "synth"):
            assert main([stage, "--config", str(cfgp), "--out", str(out)]) == 0
        base, _ = load_plant_model(out / "plant.bdd")
        model, _ = load_ncs_model(out / "ncs.bdd")
        empty = base.pre_set.empty()
        target = model.mgr.false
        for box in spec["targets"]:
            target = target | expand_spec_set(empty.add_boxes([box]), model)
        if kind == "reach":
            ctrl = solve_reach(model, target & expand_spec_set(
                empty.add_boxes(spec["safe"]), model))
        else:
            ctrl = solve_recurrence(model, target)
        saved, _ = load(out / "controller.bdd", manager=model.mgr)
        assert saved == ctrl.relation

    def test_gen_buchi_modes_on_a_grid_with_a_marker_flag_bit(self, tmp_path):
        # every point count is a power of two, so the state registers carry
        # a flag bit past the grid bits, which the anchor cells leave out
        cfgp = CONFIGS / "buchi.json"
        spec = json.loads(cfgp.read_text())["spec"]
        out = tmp_path / "out"
        for stage in ("abstract", "expand", "synth"):
            assert main([stage, "--config", str(cfgp), "--out", str(out)]) == 0
        base, _ = load_plant_model(out / "plant.bdd")
        model, _ = load_ncs_model(out / "ncs.bdd")
        lay = model.layout
        assert lay.state_bits == lay.state_grid.total_bits + 1
        assert model.anchor_set.block == lay.x_pre[0][:-1]
        empty = base.pre_set.empty()

        def lift(boxes):
            return expand_spec_set(empty.add_boxes(boxes), model)

        targets = [lift([box]) for box in spec["targets"]]
        safe = (lift(spec["safe"]) & model.state_domain
                & ~lift(spec["obstacles"]))
        ctrl = solve_gen_buchi(model, targets, safe=safe)
        sidecar = json.loads((out / "controller.modes.json").read_text())
        assert len(sidecar["modes"]) == len(ctrl.modes) == 2
        for entry, mode in zip(sidecar["modes"], ctrl.modes):
            for key, f in (("relation", mode.relation), ("goal", mode.goal)):
                saved, _ = load(out / entry[key], manager=model.mgr)
                assert saved == f, entry[key]

    def test_persistence_controller_is_the_solver_on_the_safe_box(
            self, tmp_path):
        cfgp = toy_config(tmp_path, spec={"kind": "persistence",
                                          "safe": [[[1], [3]]]})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 0
        base, _ = load_plant_model(out / "plant.bdd")
        model, _ = load_ncs_model(out / "ncs.bdd")
        safe = expand_spec_set(base.pre_set.empty().add_box((1,), (3,)), model)
        saved, _ = load(out / "controller.bdd", manager=model.mgr)
        assert saved == solve_persistence(model, safe).relation

    def test_run_without_sim_section_stops_at_sim(self, tmp_path, capsys):
        cfgp = toy_config(tmp_path)
        cfg = json.loads(cfgp.read_text())
        del cfg["sim"]
        cfgp.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 2
        assert "sim.x0 is required" in capsys.readouterr().err
        assert (out / "controller.bdd").exists()
        assert not (out / "trace.csv").exists()

    def test_stage_ordering_enforced(self, tmp_path, capsys):
        cfgp = toy_config(tmp_path)
        rc = main(["expand", "--config", str(cfgp),
                   "--out", str(tmp_path / "fresh")])
        assert rc == 2
        assert "abstract" in capsys.readouterr().err


class TestManifests:
    def test_inputs_are_the_files_read_outputs_the_files_written(
            self, tmp_path, monkeypatch, file_reads):
        from ncsynth import cli
        out = tmp_path / "out"
        real_write_manifest = cli._write_manifest

        def write_manifest(*args):
            # hashing reads every input and output again: not a stage read
            _read_sinks.remove(file_reads)
            try:
                real_write_manifest(*args)
            finally:
                _read_sinks.append(file_reads)

        monkeypatch.setattr(cli, "_write_manifest", write_manifest)
        cfgp = gen_buchi_config(tmp_path)
        written = set()
        for stage in cli.STAGES:
            file_reads.clear()
            assert main([stage, "--config", str(cfgp), "--out", str(out)]) == 0
            read = {p.name for p in file_reads if p.parent == out}
            manifest = json.loads((out / f"{stage}.manifest.json").read_text())
            assert {Path(p).name for p in manifest["inputs"]} == read, stage
            written |= {Path(p).name for p in manifest["outputs"]}
        assert "controller.modes.json" in written
        assert written == {p.name for p in out.iterdir()
                           if not p.name.endswith(".manifest.json")}


class TestGuards:
    def test_random_channels_need_unsafe(self, tmp_path, capsys):
        cfgp = toy_config(tmp_path, **{"sim.channel_mode": "random"})
        out = tmp_path / "out"
        for stage in ("abstract", "expand", "synth"):
            assert main([stage, "--config", str(cfgp), "--out", str(out)]) == 0
        capsys.readouterr()  # drop stage progress; check the refusal alone
        rc = main(["sim", "--config", str(cfgp), "--out", str(out)])
        assert rc == 2
        assert "prolonged" in capsys.readouterr().err
        rc = main(["sim", "--config", str(cfgp), "--out", str(out), "--unsafe"])
        assert rc == 0

    def test_codegen_refuses_time_varying_delays(self, tmp_path, capsys):
        cfgp = toy_config(tmp_path, **{"delays.nsc_max": 3,
                                       "sim.steps": 3})
        out = tmp_path / "out"
        for stage in ("abstract", "expand", "synth"):
            assert main([stage, "--config", str(cfgp), "--out", str(out)]) == 0
        capsys.readouterr()  # drop stage progress; check the refusal alone
        rc = main(["codegen", "--config", str(cfgp), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "prolonged" in err and "buffering" in err

    def test_domain_violation_exit_code(self, tmp_path, capsys):
        # safety controller whose domain misses the configured start
        cfgp = toy_config(tmp_path)
        cfg = json.loads(cfgp.read_text())
        cfg["spec"] = {"kind": "safety", "safe": [[[2], [3]]]}
        cfg["sim"]["x0"] = [0]
        cfgp.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        for stage in ("abstract", "expand", "synth"):
            assert main([stage, "--config", str(cfgp), "--out", str(out)]) == 0
        rc = main(["sim", "--config", str(cfgp), "--out", str(out)])
        assert rc == 4

    def test_random_delays_can_leave_the_controller_domain(self, tmp_path,
                                                           capsys):
        """Random actuation delays lie outside the model's oldest-input
        step, so the refinement guarantee lapses: this loop reaches a
        register state that its mode does not cover, a clean exit 4."""
        cfgp = toy_config(tmp_path, **{
            "plant.grid": {"lb": [0], "ub": [6], "eta": [1]},
            "plant.input_grid": {"lb": [-1], "ub": [1], "eta": [1]},
            "delays": {"nsc_min": 1, "nsc_max": 2, "nca_min": 1, "nca_max": 2},
            "spec": {"kind": "gen_buchi", "targets": [[[1], [1]], [[5], [5]]]},
            "sim": {"steps": 200, "x0": [3], "seed": 1,
                    "channel_mode": "random"}})
        out = tmp_path / "out"
        rc = main(["run", "--unsafe", "--config", str(cfgp), "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "error: step 6: controller mode 0 has no input for the expanded "
            "state with newest measurement (0,)")
        assert "Traceback" not in err
        assert not (out / "trace.csv").exists()

    def test_seed_flag_refused(self, capsys):
        # the simulation seed is `sim.seed` of the config alone
        for command in ("sim", "run"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--seed", "1", "--config", "c.json"])
            assert exc.value.code == 2
            assert "--seed" in capsys.readouterr().err


class TestInspectCommands:
    def test_fsm_dump_explore(self, tmp_path, capsys, monkeypatch):
        cfgp = toy_config(tmp_path)
        out = tmp_path / "out"
        for stage in ("abstract", "expand", "synth"):
            assert main([stage, "--config", str(cfgp), "--out", str(out)]) == 0

        rel = tmp_path / "rel.csv"
        assert main(["fsm", str(out / "plant.bdd"), "--to", str(rel)]) == 0
        assert rel.exists()
        assert main(["dump", str(out / "plant.bdd")]) == 0
        assert "plant_model" in capsys.readouterr().out

        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("0\nquit\n"))
        assert main(["explore", str(out / "plant.bdd")]) == 0
        assert "state: (0,)" in capsys.readouterr().out

    def test_explore_controller_query_reads_the_controllers_model(
            self, tmp_path, capsys, monkeypatch):
        # `?` rows are states of the controller's (expanded) model, not of
        # the explored plant model: a plant row is refused with an error
        # line, a full register row is answered
        cfgp = toy_config(tmp_path)
        out = tmp_path / "out"
        for stage in ("abstract", "expand", "synth"):
            assert main([stage, "--config", str(cfgp), "--out", str(out)]) == 0
        capsys.readouterr()
        import io
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("? 0\n? 0 -1 0 0 2 2 2 2\nquit\n"))
        rc = main(["explore", str(out / "plant.bdd"),
                   "--controller", str(out / "controller.bdd")])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert lines[1].startswith("error: ")
        assert lines[2].startswith(("inputs: ", "no input"))
        assert "Traceback" not in captured.err

    def test_coverage_command_planar(self, tmp_path, capsys):
        cfg = {
            "plant": {"name": "robot", "tau": 1.0,
                      "grid": {"lb": [0, 0], "ub": [5, 5], "eta": [1, 1]},
                      "input_grid": {"lb": [-1, -1], "ub": [1, 1],
                                     "eta": [1, 1]}},
            "delays": {"nsc_min": 1, "nsc_max": 1, "nca_min": 1, "nca_max": 1},
            "spec": {"kind": "reach", "targets": [[[4, 4], [5, 5]]],
                     "obstacles": [[[2, 2], [3, 3]]]},
            "sim": {"steps": 10, "x0": [0, 0], "seed": 0},
        }
        cfgp = tmp_path / "planar.json"
        cfgp.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        for stage in ("abstract", "expand", "synth"):
            assert main([stage, "--config", str(cfgp), "--out", str(out)]) == 0
        assert main(["coverage", str(out / "controller.bdd"),
                     "--dims", "0,1"]) == 0
        art = capsys.readouterr().out.strip().splitlines()
        assert len(art) == 6 and all(len(row) == 6 for row in art)
        assert "#" in "".join(art)


class TestImports:
    def test_exact_pipeline_loads_neither_numpy_nor_scipy(self, tmp_path):
        """Only plants with a growth matrix import numpy and scipy: a fresh
        interpreter loads neither for the CLI, nor for the toy pipeline."""
        code = (
            "import sys\n"
            "from ncsynth.cli import main\n"
            "heavy = {'numpy', 'scipy'}\n"
            "assert not heavy & set(sys.modules), heavy & set(sys.modules)\n"
            f"assert main(['run', '--config', {str(CONFIGS / 'toy.json')!r},"
            f" '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "assert not heavy & set(sys.modules), heavy & set(sys.modules)\n")
        src = str(Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "toyctl.c").exists()


class TestStreams:
    """Stages report progress on stderr; stdout carries data only."""

    STATUS = {"abstract": "plant model: ", "expand": "expanded model: ",
              "synth": "controller: ", "sim": "simulated ",
              "codegen": "emitted "}

    def test_stages_write_progress_to_stderr(self, tmp_path, capsys):
        cfgp = toy_config(tmp_path)
        out = tmp_path / "out"
        for stage, status in self.STATUS.items():
            assert main([stage, "--config", str(cfgp), "--out", str(out)]) == 0
            captured = capsys.readouterr()
            assert captured.out == "", stage
            assert captured.err.startswith(status), stage
        rel = tmp_path / "rel.csv"
        assert main(["fsm", str(out / "plant.bdd"), "--to", str(rel)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wrote ")

    def test_run_writes_progress_to_stderr(self, tmp_path, capsys):
        cfgp = toy_config(tmp_path)
        assert main(["run", "--config", str(cfgp),
                     "--out", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == len(self.STATUS)
        for line, status in zip(lines, self.STATUS.values()):
            assert line.startswith(status)

    def test_data_commands_write_stdout(self, tmp_path, capsys):
        cfgp = toy_config(tmp_path, **{
            "plant.params.dim": 2,
            "plant.grid": {"lb": [0, 0], "ub": [2, 2], "eta": [1, 1]},
            "plant.input_grid": {"lb": [0, 0], "ub": [1, 1], "eta": [1, 1]},
            "delays": {"nsc_min": 1, "nsc_max": 1, "nca_min": 1,
                       "nca_max": 1},
            "spec.targets": [[[2, 2], [2, 2]]],
            "sim.x0": [0, 0]})
        out = tmp_path / "out"
        for stage in ("abstract", "expand", "synth"):
            assert main([stage, "--config", str(cfgp), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["dump", str(out / "plant.bdd")]) == 0
        captured = capsys.readouterr()
        assert "plant_model" in captured.out and captured.err == ""
        assert main(["coverage", str(out / "controller.bdd")]) == 0
        captured = capsys.readouterr()
        art = captured.out.splitlines()
        assert len(art) == 3 and all(len(row) == 3 for row in art)
        assert captured.err == ""

    def test_closed_stdout_ends_quietly(self, tmp_path):
        # `ncsynth dump plant.bdd | head -1`, with the reader gone before
        # the command prints anything
        cfgp = toy_config(tmp_path)
        out = tmp_path / "out"
        assert main(["abstract", "--config", str(cfgp), "--out", str(out)]) == 0
        src = str(Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ncsynth.cli", "dump", str(out / "plant.bdd")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0, err
        assert "Traceback" not in err and "BrokenPipeError" not in err


def integrator_config(tmp_path, delays, ub=4):
    """1-D integrator on cells 0..ub with inputs -1..1, safety on all."""
    cfg = {"plant": {"name": "robot", "params": {"dim": 1}, "tau": 1.0,
                     "grid": {"lb": [0], "ub": [ub], "eta": [1]},
                     "input_grid": {"lb": [-1], "ub": [1], "eta": [1]}},
           "delays": dict(zip(("nsc_min", "nsc_max", "nca_min", "nca_max"),
                              delays)),
           "spec": {"kind": "safety", "safe": [[[0], [ub]]]},
           "sim": {"steps": 5, "x0": [ub // 2], "seed": 0}}
    p = tmp_path / "integrator.json"
    p.write_text(json.dumps(cfg))
    return p


class TestCleanFailures:
    """Known limits end with a message and an exit code, not a traceback."""

    def test_state_wider_than_64_bits_exits_2(self, tmp_path, capsys):
        # 201 cells: eight 8-bit state registers plus a 2-bit input register
        cfgp = integrator_config(tmp_path, (8, 8, 1, 1), ub=200)
        rc = main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: state needs 66 bits" in err
        assert "Traceback" not in err

    def test_verilog_only_codegen_has_no_width_limit(self, tmp_path, capsys):
        # the 66-bit state above, with only the netlist asked for
        cfgp = integrator_config(tmp_path, (8, 8, 1, 1), ub=200)
        cfg = json.loads(cfgp.read_text())
        cfg["codegen"] = {"targets": ["verilog"], "name": "wide"}
        cfgp.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        rc = main(["run", "--config", str(cfgp), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 0, err
        assert "input  wire [65:0] state," in (out / "wide.v").read_text()
        assert not list(out.glob("wide.[ch]"))
        manifest = json.loads((out / "codegen.manifest.json").read_text())
        assert manifest["sizes"]["targets"] == ["verilog"]

    def test_controller_without_mode_automaton_exits_2(self, tmp_path,
                                                       capsys):
        cfgp = gen_buchi_config(tmp_path)
        out = tmp_path / "out"
        for stage in ("abstract", "expand", "synth"):
            assert main([stage, "--config", str(cfgp), "--out", str(out)]) == 0
        (out / "controller.modes.json").unlink()
        capsys.readouterr()
        for stage in ("sim", "codegen"):
            rc = main([stage, "--config", str(cfgp), "--out", str(out)])
            err = capsys.readouterr().err
            assert rc == 2, stage
            assert err.startswith("error: ") and "Traceback" not in err
            assert str(out / "controller.modes.json") in err, stage
        assert not list(out.glob("toyctl*"))
        assert not (out / "trace.csv").exists()

    def test_recursion_limit_exits_5(self, tmp_path, capsys):
        cfgp = integrator_config(tmp_path, (2, 2, 300, 300))
        out = str(tmp_path / "o")
        assert main(["abstract", "--config", str(cfgp), "--out", out]) == 0
        capsys.readouterr()
        rc = main(["expand", "--config", str(cfgp), "--out", out])
        err = capsys.readouterr().err
        assert rc == 5
        assert err.startswith("error: expand stage: ")
        assert "recursion limit" in err and "Traceback" not in err

    def test_files_of_another_layout_rejected(self, tmp_path, capsys):
        from ncsynth.bddfile import load, save
        cfgp = toy_config(tmp_path)
        out = tmp_path / "out"
        for stage in ("abstract", "expand", "synth"):
            assert main([stage, "--config", str(cfgp), "--out", str(out)]) == 0
        assert main(["dump", str(out / "ncs.bdd")]) == 0
        assert "layout version: 2" in capsys.readouterr().out
        # files written before the layout version existed carry no key
        for name in ("ncs.bdd", "controller.bdd"):
            f, meta = load(out / name)
            del meta["layout_version"]
            save(f, meta, out / name)
        assert main(["dump", str(out / "ncs.bdd")]) == 0
        assert "layout version: None" in capsys.readouterr().out
        for argv in (["fsm", str(out / "ncs.bdd"), "--to",
                      str(tmp_path / "rel.csv")],
                     ["synth", "--config", str(cfgp), "--out", str(out)],
                     ["sim", "--config", str(cfgp), "--out", str(out)],
                     ["codegen", "--config", str(cfgp), "--out", str(out)]):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert "re-run `ncsynth expand`" in err, argv[0]

    def test_out_of_memory_exits_6(self, tmp_path, capsys, monkeypatch):
        from ncsynth import cli

        def exhausted(cfg, out_dir):
            raise MemoryError

        cfgp = toy_config(tmp_path)
        monkeypatch.setattr(cli, "cmd_synth", exhausted)
        rc = main(["synth", "--config", str(cfgp), "--out",
                   str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 6
        assert err.startswith("error: synth stage: out of memory")
        assert "Traceback" not in err
