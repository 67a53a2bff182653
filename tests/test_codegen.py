import ctypes
import itertools
import random
import re
import shutil
import subprocess

import pytest

from ncsynth.bdd import Manager
from ncsynth.bddfile import node_order
from ncsynth.codegen import (CodegenError, decompose_outputs, determinize,
                             emit_c, emit_verilog, generate,
                             is_deterministic_relation)
from ncsynth.synthesis import solve_gen_buchi, solve_reach, solve_safety

from conftest import build_explicit_ts, integrator_1d, state_set_to_bdd
from oracles import random_game


def enumerate_controller(c):
    """dict state-cube-code -> sorted input codes, plus the domain set."""
    mgr = c.mgr
    table = {}
    sup = tuple(sorted(c.pre_vars + c.input_vars))
    for bits in mgr.cubes(c.relation, sup):
        a = dict(zip(sup, bits))
        s = 0
        for j, v in enumerate(c.pre_vars):
            s |= (a[v] & 1) << j
        u = 0
        for j, v in enumerate(c.input_vars):
            u |= (a[v] & 1) << j
        table.setdefault(s, []).append(u)
    return {s: sorted(us) for s, us in table.items()}


def random_controller(seed, solver="safety"):
    rng = random.Random(seed)
    states, inputs, trans = random_game(rng, 24, 4)
    mgr = Manager()
    ts = build_explicit_ts(mgr, len(states), len(inputs), trans)
    region = state_set_to_bdd(ts, {x for x in states if rng.random() < 0.6})
    c = solve_safety(ts, region) if solver == "safety" else solve_reach(ts, region)
    return c


class TestDeterminize:
    def test_already_deterministic_unchanged(self):
        mgr = Manager()
        trans = {(0, 0): {1}, (1, 1): {1}}
        ts = build_explicit_ts(mgr, 2, 2, trans)
        c = solve_safety(ts, ts.state_domain)
        d1 = determinize(c)
        d2 = determinize(d1)
        assert d2.relation == d1.relation

    def test_minimum_code_kept(self):
        mgr = Manager()
        # one state, inputs {2, 5} admissible out of 8
        trans = {(0, 2): {0}, (0, 5): {0}}
        ts = build_explicit_ts(mgr, 1, 8, trans)
        c = solve_safety(ts, ts.state_domain)
        table = enumerate_controller(c)
        assert table == {0: [2, 5]}
        det = determinize(c)
        assert enumerate_controller(det) == {0: [2]}

    def test_exhaustive_single_input_and_domain_preserved(self):
        for seed in range(6):
            c = random_controller(seed)
            if c.is_empty:
                continue
            det = determinize(c)
            assert det.domain == c.domain
            table = enumerate_controller(det)
            orig = enumerate_controller(c)
            for s, us in table.items():
                assert len(us) == 1
                assert us[0] == min(orig[s])

    def test_idempotent(self):
        for seed in range(4):
            c = random_controller(seed)
            d1 = determinize(c)
            d2 = determinize(d1)
            assert d1.relation == d2.relation


class TestDecompose:
    def test_rejects_nondeterministic(self):
        mgr = Manager()
        trans = {(0, 0): {0}, (0, 1): {0}}   # two admissible inputs at state 0
        ts = build_explicit_ts(mgr, 1, 2, trans)
        c = solve_safety(ts, ts.state_domain)
        assert not is_deterministic_relation(c.mgr, c.relation, c.pre_vars,
                                             c.input_vars)
        with pytest.raises(CodegenError):
            decompose_outputs(c.mgr, c.relation, c.pre_vars, c.input_vars)

    def test_single_input_symbol_constant_bits(self):
        mgr = Manager()
        trans = {(0, 0): {1}, (1, 0): {0}}
        ts = build_explicit_ts(mgr, 2, 1, trans)
        c = determinize(solve_safety(ts, ts.state_domain))
        bits = decompose_outputs(c.mgr, c.relation, c.pre_vars, c.input_vars)
        # one input bit exists (2 symbols on the 1-wide grid? no: 1 symbol,
        # zero bits) -- the decomposition is empty and that is fine
        assert bits == []

    def test_recomposition_matches_relation(self):
        for seed in range(8):
            c = random_controller(seed, "reach")
            det = determinize(c)
            bits = decompose_outputs(det.mgr, det.relation, det.pre_vars,
                                     det.input_vars)
            table = enumerate_controller(det)
            for s, (u,) in table.items():
                a = {v: (s >> j) & 1 for j, v in enumerate(det.pre_vars)}
                rebuilt = 0
                for j, f in enumerate(bits):
                    if f.restrict(a).is_true:
                        rebuilt |= 1 << j
                assert rebuilt == u


def compile_and_load(tmp_path, name, header, source):
    """Compile the emitted C as strict, warning-free C99 and load it."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler available")
    (tmp_path / f"{name}.h").write_text(header)
    (tmp_path / f"{name}.c").write_text(source)
    so = tmp_path / f"{name}.so"
    subprocess.run([cc, "-std=c99", "-Wall", "-Wextra", "-pedantic", "-Werror",
                    "-O1", "-shared", "-fPIC", "-o", str(so),
                    str(tmp_path / f"{name}.c")], check=True,
                   capture_output=True)
    lib = ctypes.CDLL(str(so))
    ctrl = getattr(lib, f"{name}_control")
    ctrl.restype = ctypes.c_uint64
    ctrl.argtypes = [ctypes.c_uint64]
    dom = getattr(lib, f"{name}_domain")
    dom.restype = ctypes.c_bool
    dom.argtypes = [ctypes.c_uint64]
    return ctrl, dom


class TestEmitC:
    def test_constant_controller_collector_literal(self, tmp_path):
        mgr = Manager()
        trans = {(0, 1): {0}}
        ts = build_explicit_ts(mgr, 1, 2, trans)
        det = determinize(solve_safety(ts, ts.state_domain))
        bits = decompose_outputs(det.mgr, det.relation, det.pre_vars, det.input_vars)
        header, source = emit_c("konst", bits, det.domain, det.pre_vars)
        ctrl, dom = compile_and_load(tmp_path, "konst", header, source)
        assert dom(0)
        assert ctrl(0) == 1

    def test_compiled_agrees_with_relation_exhaustively(self, tmp_path):
        for seed in (0, 3, 5):
            c = random_controller(seed, "reach")
            if c.is_empty:
                continue
            det = determinize(c)
            bits = decompose_outputs(det.mgr, det.relation, det.pre_vars,
                                     det.input_vars)
            name = f"ctl{seed}"
            header, source = emit_c(name, bits, det.domain, det.pre_vars)
            ctrl, dom = compile_and_load(tmp_path, name, header, source)
            table = enumerate_controller(det)
            for s in range(1 << len(det.pre_vars)):
                if s in table:
                    assert dom(s)
                    assert ctrl(s) == table[s][0]
                else:
                    assert not dom(s)

    def test_node_table_size_per_node(self):
        # every state admits a random subset of the inputs, so the chosen
        # inputs and the domain follow no pattern the diagram could share
        rng = random.Random(7)
        trans = {(x, u): {x} for x in range(512) for u in range(8)
                 if rng.random() < 0.3}
        ts = build_explicit_ts(Manager(), 512, 8, trans)
        c = determinize(solve_safety(ts, ts.state_domain))
        bits = decompose_outputs(c.mgr, c.relation, c.pre_vars, c.input_vars)
        order, _ = node_order(c.mgr, [f.ref for f in bits + [c.domain]])
        assert len(order) >= 200
        _, source = emit_c("big", bits, c.domain, c.pre_vars)
        assert len(source) <= 24 * len(order)

    def test_emission_deterministic(self):
        c = determinize(random_controller(2))
        bits = decompose_outputs(c.mgr, c.relation, c.pre_vars, c.input_vars)
        out1 = emit_c("x", bits, c.domain, c.pre_vars)
        out2 = emit_c("x", bits, c.domain, c.pre_vars)
        assert out1 == out2


def eval_emitted_verilog(text, state_bits, state_value):
    """Tiny evaluator for the emitted combinational subset."""
    wires = {}

    def term(tok):
        tok = tok.strip().rstrip(";")
        if tok == "1'b0":
            return 0
        if tok == "1'b1":
            return 1
        m = re.match(r"state\[(\d+)\]", tok)
        if m:
            return (state_value >> int(m.group(1))) & 1
        return wires[tok]

    outputs = {}
    for line in text.splitlines():
        line = line.strip()
        m = re.match(r"assign (\w+|\w+\[\d+\]|valid) = (.+);", line)
        if not m:
            continue
        lhs, rhs = m.group(1), m.group(2)
        tern = re.match(r"(.+?) \? (.+?) : (.+)", rhs)
        val = (term(tern.group(2)) if term(tern.group(1)) else term(tern.group(3))) \
            if tern else term(rhs)
        if lhs.startswith("u[") or lhs == "valid":
            outputs[lhs] = val
        else:
            wires[lhs] = val
    u = 0
    for key, val in outputs.items():
        if key.startswith("u[") and val:
            u |= 1 << int(key[2:-1])
    return u, outputs["valid"]


class TestEmitVerilog:
    def test_port_widths_match_encoding(self):
        c = determinize(random_controller(0))
        bits = decompose_outputs(c.mgr, c.relation, c.pre_vars, c.input_vars)
        text = emit_verilog("widths", bits, c.domain, c.pre_vars)
        assert f"input  wire [{len(c.pre_vars) - 1}:0] state" in text
        assert f"output wire [{len(c.input_vars) - 1}:0] u" in text
        assert "output wire valid" in text

    def test_netlist_matches_relation(self):
        for seed in (1, 4):
            c = random_controller(seed, "reach")
            if c.is_empty:
                continue
            det = determinize(c)
            bits = decompose_outputs(det.mgr, det.relation, det.pre_vars,
                                     det.input_vars)
            text = emit_verilog("nl", bits, det.domain, det.pre_vars)
            table = enumerate_controller(det)
            for s in range(1 << len(det.pre_vars)):
                u, valid = eval_emitted_verilog(text, len(det.pre_vars), s)
                if s in table:
                    assert valid == 1 and u == table[s][0]
                else:
                    assert valid == 0

    def test_external_simulator_optional(self, tmp_path):
        if shutil.which("iverilog") is None:
            pytest.skip("no Verilog simulator in this environment")
        # exercised only where a simulator exists


def walker_controller():
    """Two-mode controller of a walker on 8 cells visiting cells 1 and 6."""
    mgr = Manager()
    trans = {}
    for x in range(8):
        trans[(x, 0)] = {max(x - 1, 0)}
        trans[(x, 1)] = {min(x + 1, 7)}
        trans[(x, 2)] = {x}
    ts = build_explicit_ts(mgr, 8, 3, trans)
    return solve_gen_buchi(ts, [state_set_to_bdd(ts, [1]),
                                state_set_to_bdd(ts, [6])])


class TestGenerate:
    def test_per_mode_artifacts(self):
        c = walker_controller()
        arts = generate(c, "walker")
        assert [a["name"] for a in arts] == ["walker_m0", "walker_m1"]
        for a in arts:
            assert "walker" in a["header"] and "module" in a["verilog"]

    def test_c_agrees_with_netlist_on_every_state_word(self, tmp_path):
        c = walker_controller()
        arts = generate(c, "walker")
        assert len(arts) == 2
        for a in arts:
            ctrl, dom = compile_and_load(tmp_path, a["name"], a["header"],
                                         a["source"])
            for s in range(1 << len(c.pre_vars)):
                u, valid = eval_emitted_verilog(a["verilog"],
                                                len(c.pre_vars), s)
                assert dom(s) == bool(valid)
                if valid:
                    assert ctrl(s) == u

    def test_state_width_limit(self):
        mgr = Manager()
        trans = {(0, 0): {0}}
        ts = build_explicit_ts(mgr, 1, 1, trans)
        c = determinize(solve_safety(ts, ts.state_domain))
        with pytest.raises(CodegenError):
            emit_c("wide", [], c.domain, tuple(range(70)))


class TestStateWordLayout:
    def test_header_bit_positions_pack_the_state_word(self, tmp_path):
        from ncsynth.ncs import DelayBounds, expand, expand_spec_set
        base = integrator_1d()
        model = expand(base, DelayBounds(2, 2, 2, 2))
        target = expand_spec_set(base.pre_set.empty().add_box((4.0,), (4.0,)),
                                 model)
        ctrl = solve_reach(model, target)
        (art,) = generate(ctrl, "slot")
        positions = {name: [int(p) for p in bits.split()] for name, bits in
                     re.findall(r"state word bits of (\w+), LSB first: "
                                r"([\d ]+) \*/", art["header"])}
        assert sorted(positions) == ["u1", "u2", "x1", "x2"]
        assert (sorted(p for ps in positions.values() for p in ps)
                == list(range(len(model.pre_vars))))
        c_ctrl, c_dom = compile_and_load(tmp_path, "slot", art["header"],
                                         art["source"])
        lay = model.layout
        cells = [None] + [(i,) for i in range(5)]
        inputs = [(i,) for i in range(3)]
        for xs in itertools.product(cells, repeat=2):
            for us in itertools.product(inputs, repeat=2):
                codes = {"x1": xs[0], "x2": xs[1], "u1": us[0], "u2": us[1]}
                header_word = 0
                for name, value in codes.items():
                    code = (lay.marker_code if value is None
                            else (model.input_grid if name[0] == "u"
                                  else model.state_grid).pack(value))
                    for b, p in enumerate(positions[name]):
                        header_word |= ((code >> b) & 1) << p
                a = model.encode_state(xs, us)
                word = sum(a[v] << i for i, v in enumerate(model.pre_vars))
                assert header_word == word
                u = ctrl.pick_input(a)
                assert c_dom(word) == (u is not None)
                if u is not None:
                    assert c_ctrl(word) == u
