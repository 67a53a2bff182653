"""Command-line pipeline: plant model -> expanded model -> controller ->
simulation -> implementation code, plus the inspection helpers.

Every stage reads and writes BDD files in the working directory given by
--out, records a manifest (inputs, hashes, sizes, timings), and can be
run independently or chained.  Exit codes: 0 ok, 2 configuration or usage
error (including a model file of another variable layout and a controller
too wide for the emitted C), 3 the synthesized controller is empty, 4 the
simulation left the controller domain, 5 a BDD operation recursed past
Python's recursion limit (the model is too deep; the message names the
stage), 6 a stage ran out of memory (the message names the stage).
stdout carries data only (dump, coverage, explore); progress and errors
go to stderr.  A reader that closes stdout early (``ncsynth dump f |
head``) ends the command quietly, with exit 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import codegen as codegen_mod
from . import inspect_tools
from .abstraction import build_abstraction, remove_region
from .bddfile import BddFileError
from .config import ConfigError, RunConfig
from .modelio import (artifact_files, load_controller, load_model,
                      load_ncs_model, load_plant_model, save_controller,
                      save_ncs_model, save_plant_model)
from .ncs import expand, expand_spec_set, reachable
from .plants import make_plant
from .simulate import ClosedLoop, DomainViolation, export_trace
from .synthesis import (solve_gen_buchi, solve_persistence, solve_reach,
                        solve_recurrence, solve_safety)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY_CONTROLLER = 3
EXIT_DOMAIN_VIOLATION = 4
EXIT_RECURSION = 5
EXIT_OUT_OF_MEMORY = 6

STAGES = ("abstract", "expand", "synth", "sim", "codegen")


class UsageError(Exception):
    pass


class EmptyController(Exception):
    pass


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


_PRODUCER = {"plant.bdd": "abstract", "ncs.bdd": "expand",
             "controller.bdd": "synth"}


def _inputs(out_dir, *names):
    """Paths of the named files of `out_dir`; a missing one is refused with
    the name of the stage that writes it."""
    paths = [Path(out_dir) / name for name in names]
    for p in paths:
        if not p.exists():
            raise UsageError(f"{p} not found; run the {_PRODUCER[p.name]} "
                             f"stage first")
    return paths


def _write_manifest(out_dir, stage, cfg, inputs, outputs, sizes, t0):
    """`inputs` pairs each root file the stage read with its metadata; the
    manifest lists every file of those artifacts."""
    files = [f for root, meta in inputs for f in artifact_files(root, meta)]
    manifest = {
        "stage": stage,
        "config_sha256": cfg.sha256(),
        "inputs": {str(p): _sha256(p) for p in files},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "sizes": sizes,
        "seconds": round(time.monotonic() - t0, 3),
    }
    path = Path(out_dir) / f"{stage}.manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def _plant(cfg):
    return make_plant(cfg.plant.name, tau=cfg.plant.tau,
                      params=cfg.plant.params)


# ----------------------------------------------------------------------
# stages


def cmd_abstract(cfg, out_dir):
    t0 = time.monotonic()
    plant = _plant(cfg)
    ts = build_abstraction(plant, cfg.plant.grid, cfg.plant.input_grid)
    if cfg.spec.obstacles:
        region = ts.pre_set.empty().add_boxes(cfg.spec.obstacles)
        ts = remove_region(ts, region)
    outputs = save_plant_model(ts, Path(out_dir) / "plant.bdd")
    sizes = {
        "n_states": ts.n_states(),
        "n_transitions": ts.n_transitions(),
        "deterministic": ts.is_deterministic(),
        "state_bits": sum(ts.pre_set.grid.bits),
        "input_bits": sum(ts.input_set.grid.bits),
    }
    _write_manifest(out_dir, "abstract", cfg, [], outputs, sizes, t0)
    print(f"plant model: {sizes['n_transitions']} transitions over "
          f"{sizes['n_states']} cells "
          f"({'deterministic' if sizes['deterministic'] else 'nondeterministic'})",
          file=sys.stderr)
    return outputs[0]


def cmd_expand(cfg, out_dir):
    t0 = time.monotonic()
    plant_path, = _inputs(out_dir, "plant.bdd")
    base, plant_meta = load_plant_model(plant_path)
    model = expand(base, cfg.delays)
    outputs = save_ncs_model(model, Path(out_dir) / "ncs.bdd")
    sizes = {
        "n_states_formula": model.state_count(),
        "n_states_symbolic": model.n_states_symbolic(),
        "n_transitions": model.n_transitions(),
        "n_initial": model.n_initial(),
        "prolonged": model.bounds.prolonged,
    }
    if cfg.report_reachable:
        r = reachable(model)
        sizes["n_reachable"] = model.mgr.sat_count(r, model.pre_vars)
        sizes["n_transitions_from_reachable"] = model.mgr.sat_count(
            model.trans & r, model.all_vars)
    _write_manifest(out_dir, "expand", cfg, [(plant_path, plant_meta)],
                    outputs, sizes, t0)
    print(f"expanded model: {sizes['n_states_symbolic']} states, "
          f"{sizes['n_transitions']} transitions", file=sys.stderr)
    return outputs[0]


def _spec_sets(cfg, model):
    """Configured boxes as predicates over the expanded state set: each box
    is built on the cells of the newest state register
    (`model.anchor_set`) and lifted; one target per box for gen_buchi,
    else one of their union, lifted once (lifting commutes with union)."""
    empty = model.anchor_set.empty()
    boxes = cfg.spec.targets
    groups = ([[box] for box in boxes] if cfg.spec.kind == "gen_buchi"
              else [boxes])
    targets = [expand_spec_set(empty.add_boxes(g), model) for g in groups if g]
    safe = None
    if cfg.spec.safe:
        safe = expand_spec_set(empty.add_boxes(cfg.spec.safe), model)
    if cfg.spec.obstacles:
        blocked = expand_spec_set(empty.add_boxes(cfg.spec.obstacles), model)
        allowed = model.state_domain & ~blocked
        safe = allowed if safe is None else (safe & allowed)
    return targets, safe


def cmd_synth(cfg, out_dir):
    t0 = time.monotonic()
    ncs_path, = _inputs(out_dir, "ncs.bdd")
    model, ncs_meta = load_ncs_model(ncs_path)
    targets, safe = _spec_sets(cfg, model)

    kind = cfg.spec.kind
    if kind == "safety":
        ctrl = solve_safety(model, safe)
    elif kind == "reach":
        ctrl = solve_reach(model, targets[0] if safe is None
                           else targets[0] & safe)
    elif kind == "persistence":
        ctrl = solve_persistence(model, safe)
    elif kind == "recurrence":
        ctrl = solve_recurrence(model, targets[0])
    else:
        ctrl = solve_gen_buchi(model, targets, safe=safe)

    sizes = {
        "kind": kind,
        "iterations": ctrl.stats.get("iterations"),
        "modes": len(ctrl.modes) if ctrl.modes else 0,
        "empty": ctrl.is_empty,
        "domain_size": model.mgr.sat_count(ctrl.domain, model.pre_vars),
    }
    outputs = [] if ctrl.is_empty else save_controller(
        ctrl, Path(out_dir) / "controller.bdd",
        {"spec_kind": kind, "name": cfg.codegen.name})
    _write_manifest(out_dir, "synth", cfg, [(ncs_path, ncs_meta)], outputs,
                    sizes, t0)
    if ctrl.is_empty:
        raise EmptyController(f"{kind} specification is not enforceable on "
                              f"this model (empty controller)")
    print(f"controller: kind={kind} domain={sizes['domain_size']} "
          f"modes={sizes['modes']} iterations={sizes['iterations']}",
          file=sys.stderr)
    return outputs[0]


def cmd_sim(cfg, out_dir, unsafe=False):
    t0 = time.monotonic()
    ctrl_path, = _inputs(out_dir, "controller.bdd")
    ctrl, meta = load_controller(ctrl_path)
    plant = _plant(cfg)
    if not cfg.sim.x0:
        raise UsageError("sim.x0 is required for simulation")
    loop = ClosedLoop(plant, ctrl, x0=cfg.sim.x0, u0=cfg.sim.u0,
                      seed=cfg.sim.seed,
                      channel_mode=cfg.sim.channel_mode, unsafe=unsafe)
    stop = None
    if cfg.spec.kind == "reach":
        # a reach controller guarantees a visit, not a stay: end the run at
        # the first sampled cell in a target box, the register the target
        # is anchored on
        target = ctrl.model.anchor_set.empty().add_boxes(cfg.spec.targets)

        def stop(rec):
            return target.contains_point(rec.x)
    trace = loop.run(cfg.sim.steps, stop=stop)
    outputs = [Path(out_dir) / "trace.csv", Path(out_dir) / "trace.json"]
    for path in outputs:
        distinct = export_trace(trace, path)
    sizes = {"steps": len(trace.records),
             "final_state": list(trace.records[-1].x) if trace.records else None,
             "modes_visited": sorted({r.mode for r in trace.records}),
             "distinct_records": distinct}
    _write_manifest(out_dir, "sim", cfg, [(ctrl_path, meta)], outputs, sizes,
                    t0)
    print(f"simulated {sizes['steps']} steps; trace written to {outputs[0]}",
          file=sys.stderr)
    return outputs[0]


def cmd_codegen(cfg, out_dir):
    t0 = time.monotonic()
    ctrl_path, = _inputs(out_dir, "controller.bdd")
    ctrl, meta = load_controller(ctrl_path)
    if ctrl.model.bounds and not ctrl.model.bounds.prolonged:
        raise UsageError(
            "controller was synthesized for time-varying delays; code is "
            "only emitted for prolonged-delay models (equal lower and upper "
            "delay bounds per channel), where buffering makes the closed "
            "loop refine the symbolic guarantee")
    arts = codegen_mod.generate(ctrl, cfg.codegen.name, cfg.codegen.targets)
    outputs = []
    for art in arts:
        for key, suffix in (("header", ".h"), ("source", ".c"),
                            ("verilog", ".v")):
            if key in art:
                outputs.append(Path(out_dir) / (art["name"] + suffix))
                outputs[-1].write_text(art[key])
    sizes = {"artifacts": [a["name"] for a in arts],
             "targets": list(cfg.codegen.targets)}
    _write_manifest(out_dir, "codegen", cfg, [(ctrl_path, meta)], outputs,
                    sizes, t0)
    print(f"emitted {', '.join(sizes['artifacts'])} "
          f"({', '.join(sizes['targets'])})", file=sys.stderr)
    return outputs


def cmd_fsm(path, out_path, fmt):
    model, _ = load_model(path)
    n = inspect_tools.write_fsm(model, out_path, fmt=fmt)
    print(f"wrote {n} transitions to {out_path}", file=sys.stderr)


def cmd_dump(path):
    print(inspect_tools.bdd_dump(path))


def cmd_coverage(path, dims):
    if len(dims) != 2:
        raise UsageError("--dims takes exactly two dimensions")
    ctrl, meta = load_controller(path)
    print(inspect_tools.cont_coverage(ctrl, dims=dims))


def cmd_explore(path, controller_path=None):
    model, _ = load_model(path)
    ctrl = None
    if controller_path:
        ctrl, _ = load_controller(controller_path)
    inspect_tools.explorer_repl(model, ctrl)


# ----------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="ncsynth",
        description="symbolic models and controller synthesis for networked "
                    "control systems")
    sub = p.add_subparsers(dest="command", required=True)

    def add_config_cmd(name, help_):
        c = sub.add_parser(name, help=help_)
        c.add_argument("--config", required=True, help="run configuration (JSON)")
        c.add_argument("--out", default="out", help="working directory")
        return c

    add_config_cmd("abstract", "build the plant's symbolic model")
    add_config_cmd("expand", "lift the plant model over delayed channels")
    add_config_cmd("synth", "synthesize a controller for the configured spec")
    c = add_config_cmd("sim", "simulate the closed loop")
    c.add_argument("--unsafe", action="store_true",
                   help="allow random-delay channels (no refinement guarantee)")
    add_config_cmd("codegen", "emit C and Verilog implementations")
    c = add_config_cmd("run", "run abstract, expand, synth, sim, codegen")
    c.add_argument("--unsafe", action="store_true")

    c = sub.add_parser("fsm", help="export a transition relation")
    c.add_argument("model", help="plant or expanded model file")
    c.add_argument("--to", required=True, help="output path")
    c.add_argument("--format", choices=("csv", "fsm"), default="csv")
    c.set_defaults(handler=lambda a: cmd_fsm(a.model, a.to, a.format))

    c = sub.add_parser("dump", help="print BDD file metadata")
    c.add_argument("file")
    c.set_defaults(handler=lambda a: cmd_dump(a.file))

    c = sub.add_parser("coverage", help="ASCII controller coverage map")
    c.add_argument("controller")
    c.add_argument("--dims", default="0,1", help="two state dimensions, e.g. 0,1")
    c.set_defaults(handler=lambda a: cmd_coverage(
        a.controller, tuple(int(v) for v in a.dims.split(","))))

    c = sub.add_parser("explore", help="interactive transition/controller probe")
    c.add_argument("model")
    c.add_argument("--controller", default=None)
    c.set_defaults(handler=lambda a: cmd_explore(a.model, a.controller))
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    stage = args.command
    try:
        if args.command in STAGES + ("run",):
            cfg = RunConfig.from_file(args.config)
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            for stage in STAGES if args.command == "run" else (args.command,):
                # looked up at call time, so a patched cmd_<stage> runs
                opts = {"unsafe": args.unsafe} if stage == "sim" else {}
                globals()[f"cmd_{stage}"](cfg, out_dir, **opts)
        else:
            args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (EmptyController, DomainViolation, ConfigError, UsageError,
            BddFileError, codegen_mod.CodegenError, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {EmptyController: EXIT_EMPTY_CONTROLLER,
                DomainViolation: EXIT_DOMAIN_VIOLATION}.get(type(exc),
                                                            EXIT_CONFIG)
    except RecursionError:
        print(f"error: {stage} stage: a BDD operation recursed deeper than "
              f"Python's recursion limit ({sys.getrecursionlimit()}); the "
              f"model has too many variables for the recursive kernel, "
              f"reduce the delays or the grid", file=sys.stderr)
        return EXIT_RECURSION
    except MemoryError:
        print(f"error: {stage} stage: out of memory; the BDDs of this model "
              f"outgrew the memory available to the process, reduce the "
              f"delays or the grid, or raise the memory limit",
              file=sys.stderr)
        return EXIT_OUT_OF_MEMORY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
