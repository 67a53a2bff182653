"""Pipeline benchmark: drives ``ncsynth.cli``'s stage functions in process
on generated configs and checks every output apart from the program.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each run repeats whole rounds of the
workload (every config through abstract, expand, synth, sim and codegen,
each output checked) until ``--seconds`` have passed, then prints one
JSON object as the last line of stdout.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` wraps the pipeline's public functions
(see `tracing`) and reports the per-layer metrics instead, plus a span
file in ``bench/out/<workload>/spans.json``.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import readers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 3
NETLIST_SAMPLES = 128
C_SIZE_LIMIT = 40 * 1024     # gcc -O0 takes about 10 s per MB of emitted C
EXPLICIT_LIMIT = 5000        # expanded states up to which the explicit oracle runs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", type=Path, default=None, metavar="DIR",
                   help="import the package, write the inputs to DIR, exit")
    return p.parse_args(argv)


def measure_setup(args, out):
    """Median wall time of fresh processes that import the package and
    write the workload's inputs."""
    times = []
    for i in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0",
               "--setup-only", str(out / f"setup{i}")]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Round:
    """Outcome of one pass over a workload's items."""

    def __init__(self):
        self.pipeline_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = []                # checks that found a wrong output
        self.model_nodes = []          # (item name, nodes of ncs.bdd)
        self.controller_nodes = 0
        self.code_bytes = 0

    def run(self, ops):
        """Run (kind, label, thunk) operations in order; once one fails,
        the rest count as failed without running."""
        broken = False
        for kind, label, thunk in ops:
            self.attempted += 1
            if broken:
                self.failed += 1
                continue
            t0 = time.perf_counter()
            try:
                thunk()
            except (checks.CheckFailed, readers.FormatError) as exc:
                self.wrong.append(f"{label}: {exc}")
                print(f"  wrong output: {label}: {exc}", file=sys.stderr)
            except Exception as exc:       # a failed operation, reported
                self.failed += 1
                broken = True
                print(f"  failed: {label}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            finally:
                if kind == "stage":
                    self.pipeline_s += time.perf_counter() - t0


def item_ops(cli, item, d, rng, oracles):
    """The operations of one item, run in directory ``d``: stage calls and
    the checks of their outputs, in pipeline order."""
    cfg = item.cfg
    ops = [
        ("stage", f"{item.name} abstract", lambda: cli.cmd_abstract(item.configs[0], d)),
        ("stage", f"{item.name} expand", lambda: cli.cmd_expand(item.configs[0], d)),
        ("stage", f"{item.name} synth", lambda: cli.cmd_synth(item.configs[0], d)),
        ("check", f"{item.name} model", lambda: checks.check_model(cfg, d)),
    ]
    if checks.model_sizes(cfg)[2] <= EXPLICIT_LIMIT:
        ops.append(("check", f"{item.name} explicit",
                    lambda: checks.check_explicit(cfg, d, oracles)))
    for i, sim in enumerate(item.sims):
        run_cfg = item.configs[i]
        ops.append(("stage", f"{item.name} sim{i}", lambda c=run_cfg: cli.cmd_sim(c, d)))
        ops.append(("check", f"{item.name} trace{i}",
                    lambda s=sim: checks.check_trace(s, d)))
    if item.codegen:
        ops.append(("stage", f"{item.name} codegen",
                    lambda: cli.cmd_codegen(item.configs[0], d)))
        for m in range(len(cfg["spec"]["targets"])):
            name = f"{cfg['codegen']['name']}_m{m}"
            ops.append(("check", f"{item.name} netlist{m}",
                        lambda m=m, name=name: checks.check_netlist(
                            d, m, name, rng, NETLIST_SAMPLES, C_SIZE_LIMIT)))
    return ops


def run_round(cli, items, work, rng, oracles):
    r = Round()
    for item in items:
        d = work / item.name
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        r.run(item_ops(cli, item, d, rng, oracles))
        if (d / "ncs.bdd").exists():
            r.model_nodes.append((item.name, readers.BddFile(d / "ncs.bdd").node_count))
        if (d / "controller.modes.json").exists():
            r.controller_nodes += sum(readers.BddFile(p).node_count
                                      for p in checks.controller_files(d))
        r.code_bytes += sum(p.stat().st_size for p in d.iterdir()
                            if p.suffix in (".c", ".h", ".v"))
    return r


def growth(items, model_nodes):
    """ncs.bdd nodes at the workload's largest prolonged delay point, at
    the point before it, and their ratio (1 with a single point)."""
    prolonged = {i.name for i in items if i.codegen}
    nodes = [n for name, n in model_nodes if name in prolonged]
    largest = nodes[-1]
    prev = nodes[-2] if len(nodes) > 1 else largest
    return {"ncs.trans_nodes_growth": largest / prev,
            "ncs.trans_nodes_largest": largest, "ncs.trans_nodes_next": prev}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "ncsynth" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/ncsynth; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = HERE / "out" / args.workload
    if args.setup_only is not None:
        import ncsynth.cli  # noqa: F401  (the import is what is timed)
        workloads.write_inputs(workloads.build(args.workload, args.seed),
                               args.setup_only)
        return 0

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    setup_s = measure_setup(args, out) if not args.trace else None

    from ncsynth import cli
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    items = workloads.build(args.workload, args.seed)
    workloads.write_inputs(items, out / "inputs")
    check_rng = random.Random(f"checks-{args.seed}")
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    rounds, layers = [], []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        if tracer:
            tracer.reset_counters()
        r = run_round(cli, items, out / "work", check_rng, oracles)
        rounds.append(r)
        if tracer:
            m = tracer.layer_metrics()
            m.update(growth(items, r.model_nodes))
            m["trace.pipeline_s"] = r.pipeline_s
            layers.append(m)
        print(f"round {len(rounds)}: pipeline {r.pipeline_s:.3f} s, "
              f"{r.attempted} ops, {r.failed} failed, {len(r.wrong)} wrong",
              file=sys.stderr)
        if time.perf_counter() - t0 >= args.seconds:
            break

    counts = {(tuple(r.model_nodes), r.controller_nodes, r.code_bytes) for r in rounds}
    correct = not any(r.wrong for r in rounds) and len(counts) == 1
    if len(counts) != 1:
        print("error: artifact sizes differ between rounds", file=sys.stderr)
    last = rounds[-1]
    if tracer:
        tracer.write_spans(out / "spans.json", {
            "workload": args.workload, "seed": args.seed, "rounds": len(rounds)})
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in layers[0]}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": setup_s,
            "pipeline_s": statistics.median(r.pipeline_s for r in rounds),
            "peak_rss_mb": rss_mb,
            "model_nodes": sum(n for _, n in last.model_nodes),
            "controller_nodes": last.controller_nodes,
            "code_bytes": last.code_bytes,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if tracer else "end_to_end"]
    print(json.dumps({"correct": correct,
                      "attempted": sum(r.attempted for r in rounds),
                      "failed": sum(r.failed for r in rounds),
                      "metrics": {m["name"]: {"value": metrics[m["name"]],
                                              "unit": m["unit"]}
                                  for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
