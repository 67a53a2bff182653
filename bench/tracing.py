"""Spans and counters around the pipeline's public functions.

The tracer patches names where their callers look them up (``cli``
imports the stage helpers by name, the solvers call ``cpre`` as a module
global, ``modelio`` calls ``bddfile.load``/``save`` by name, ``generate``
calls the emitters as module globals), so nothing under ``src/`` changes.
Coarse calls get a span: name, start, end and parent.  Fine-grained calls
(BDD kernel operations, ``pick_input``, ``ClosedLoop.step``,
``integrate``) only feed counters, because a span for each of them would
cost more than the call.  Spans are held in memory and written once, by
`write_spans`, when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

_BDD_OPS = ("var", "apply", "negate", "ite", "quantify", "exist_and",
            "rename", "import_function", "restrict", "evaluate", "support",
            "sat_count", "cubes", "cube", "from_minterms", "equal_blocks")
_SOLVERS = ("solve_safety", "solve_reach", "solve_persistence",
            "solve_recurrence", "solve_gen_buchi")
_MODELIO = ("save_plant_model", "load_plant_model", "save_ncs_model",
            "load_ncs_model", "save_controller", "load_controller")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._open = []          # indices of the spans now running
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.peak_live_nodes = 0
        self._bdd_depth = 0

    # ------------------------------------------------------------------
    # wrappers

    def _spanned(self, name, fn, after=None):
        spans, stack = self.spans, self._open
        calls, seconds = self.calls, self.seconds

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = time.perf_counter()
                spans[idx][2] = end
                calls[name] += 1
                seconds[name] += end - spans[idx][1]
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _timed(self, name, fn):
        calls, seconds = self.calls, self.seconds

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - t0
                calls[name] += 1
        return wrapper

    def _bdd_op(self, name, fn):
        tracer = self
        calls = self.calls

        def wrapper(mgr, *args, **kwargs):
            if tracer._bdd_depth:
                return fn(mgr, *args, **kwargs)
            tracer._bdd_depth = 1
            try:
                return fn(mgr, *args, **kwargs)
            finally:
                tracer._bdd_depth = 0
                calls[name] += 1
                live = len(mgr._nodes)
                if live > tracer.peak_live_nodes:
                    tracer.peak_live_nodes = live
        return wrapper

    # ------------------------------------------------------------------

    def install(self):
        from ncsynth import abstraction, bdd, cli, codegen, modelio, simulate, synthesis

        for stage in ("abstract", "expand", "synth", "sim", "codegen"):
            attr = f"cmd_{stage}"
            setattr(cli, attr, self._spanned(f"cli.{attr}", getattr(cli, attr)))
        for attr in ("build_abstraction", "remove_region"):
            setattr(cli, attr, self._spanned(f"abstraction.{attr}",
                                                 getattr(cli, attr)))
        for attr in ("expand", "expand_spec_set"):
            setattr(cli, attr, self._spanned(f"ncs.{attr}", getattr(cli, attr)))
        for attr in _SOLVERS:
            setattr(cli, attr, self._spanned(
                f"synthesis.{attr}", getattr(cli, attr), self._after_solve))
        setattr(synthesis, "cpre", self._spanned("synthesis.cpre", synthesis.cpre))
        for attr in _MODELIO:
            setattr(cli, attr, self._spanned(f"modelio.{attr}", getattr(cli, attr)))
        setattr(modelio, "save", self._spanned("bddfile.save", modelio.save,
                                                   self._after_save))
        setattr(modelio, "load", self._spanned("bddfile.load", modelio.load))
        setattr(cli, "export_trace", self._spanned("simulate.export_trace",
                                                       cli.export_trace))
        loop = simulate.ClosedLoop
        setattr(loop, "run", self._spanned("simulate.run", loop.run))
        setattr(loop, "step", self._timed("simulate.step", loop.step))
        ctrl = synthesis.Controller
        setattr(ctrl, "pick_input", self._timed("synthesis.pick_input",
                                                    ctrl.pick_input))
        for owner in (abstraction, simulate):
            setattr(owner, "integrate", self._timed("plants.integrate",
                                                        owner.integrate))
        setattr(codegen, "generate", self._spanned("codegen.generate",
                                                       codegen.generate))
        for attr in ("determinize", "decompose_outputs"):
            setattr(codegen, attr, self._spanned(f"codegen.{attr}",
                                                     getattr(codegen, attr)))
        setattr(codegen, "emit_c", self._spanned(
            "codegen.emit_c", codegen.emit_c, self._after_emit_c))
        setattr(codegen, "emit_verilog", self._spanned(
            "codegen.emit_verilog", codegen.emit_verilog, self._after_emit_verilog))
        mgr = bdd.Manager
        for attr in _BDD_OPS:
            setattr(mgr, attr, self._bdd_op(f"bdd.{attr}", getattr(mgr, attr)))
        setattr(mgr, "collect", self._timed("bdd.collect", mgr.collect))

    def _after_solve(self, args, ctrl):
        self.counts["synthesis.iterations"] += ctrl.stats.get("iterations") or 0

    def _after_save(self, args, meta):
        self.counts["bddfile.bytes"] += os.path.getsize(args[2])

    def _after_emit_c(self, args, result):
        header, source = result
        self.counts["codegen.c_bytes"] += len(header) + len(source)

    def _after_emit_verilog(self, args, text):
        self.counts["codegen.verilog_bytes"] += len(text)

    # ------------------------------------------------------------------

    def reset_counters(self):
        """Start a new round; spans are kept for the span file."""
        self.calls.clear()
        self.seconds.clear()
        self.counts.clear()
        self.peak_live_nodes = 0

    def layer_metrics(self):
        """Per-layer numbers of the round since `reset_counters`."""
        calls, sec = self.calls, self.seconds

        def mean(name, scale):
            return sec[name] / calls[name] * scale if calls[name] else 0.0

        ops = sum(calls[f"bdd.{a}"] for a in _BDD_OPS)
        m = {f"cli.{stage}_s": sec[f"cli.cmd_{stage}"]
             for stage in ("abstract", "expand", "synth", "sim", "codegen")}
        m.update({
            "synthesis.solve_s": sum(sec[f"synthesis.{a}"] for a in _SOLVERS),
            "synthesis.cpre_calls": calls["synthesis.cpre"],
            "synthesis.cpre_ms": mean("synthesis.cpre", 1e3),
            "synthesis.iterations": self.counts["synthesis.iterations"],
            "synthesis.pick_input_us": mean("synthesis.pick_input", 1e6),
            "bdd.public_ops": ops,
            "bdd.restrict_calls": calls["bdd.restrict"],
            "bdd.gc_sweeps": calls["bdd.collect"],
            "bdd.gc_s": sec["bdd.collect"],
            "bdd.peak_live_nodes": self.peak_live_nodes,
            "simulate.step_us": mean("simulate.step", 1e6),
            "simulate.steps": calls["simulate.step"],
            "simulate.export_s": sec["simulate.export_trace"],
            "ncs.expand_s": sec["ncs.expand"],
            "abstraction.build_s": sec["abstraction.build_abstraction"],
            "plants.integrate_s": sec["plants.integrate"],
            "plants.integrate_calls": calls["plants.integrate"],
            "bddfile.save_s": sec["bddfile.save"],
            "bddfile.load_s": sec["bddfile.load"],
            "bddfile.bytes": self.counts["bddfile.bytes"],
            "codegen.determinize_s": sec["codegen.determinize"],
            "codegen.decompose_s": sec["codegen.decompose_outputs"],
            "codegen.emit_s": sec["codegen.emit_c"] + sec["codegen.emit_verilog"],
            "codegen.c_bytes": self.counts["codegen.c_bytes"],
            "codegen.verilog_bytes": self.counts["codegen.verilog_bytes"],
        })
        return m

    def write_spans(self, path, extra):
        """Write every span plus per-name call count, total and self time
        (span time minus the time its child spans cover)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        summary = {}
        t0 = spans[0][1] if spans else 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            s = summary.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
        payload = dict(extra)
        payload["summary"] = summary
        payload["spans"] = [[n, round(a - t0, 6), round(b - t0, 6), p]
                            for n, a, b, p in spans]
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
