"""Checks of the pipeline's outputs against computations made apart from
the program: closed forms for the integrator plants, the explicit-state
oracles of ``tests/oracles.py``, properties the method guarantees, and
the readers in `readers`.  Each check raises `CheckFailed` on the first
mismatch.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess

from readers import BddFile, Layout, Netlist, center, grid_points, quantize
from readers import read_trace_csv, read_trace_json


class CheckFailed(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _in_box(point, box):
    lo, hi = box
    return all(a <= v <= b for v, a, b in zip(point, lo, hi))


def _cells(grid):
    return list(itertools.product(*(range(n) for n in grid_points(grid))))


def plant_transitions(cfg):
    """Closed form of the integrator abstraction x' = x + tau * u: every
    cell/input pair whose successor center stays on the grid, with
    neither end in an obstacle.  Keys and values are index vectors."""
    grid, igrid = cfg["plant"]["grid"], cfg["plant"]["input_grid"]
    tau = cfg["plant"]["tau"]
    obstacles = cfg["spec"].get("obstacles", [])
    cells = set(_cells(grid))

    def blocked(idx):
        return any(_in_box(center(grid, idx), b) for b in obstacles)

    trans = {}
    for x in cells:
        if blocked(x):
            continue
        for u in _cells(igrid):
            nxt = [c + tau * v for c, v in zip(center(grid, x), center(igrid, u))]
            y = quantize(grid, nxt)
            if y in cells and center(grid, y) == tuple(nxt) and not blocked(y):
                trans[(x, u)] = y
    return trans


def model_sizes(cfg):
    """(cells, plant transitions, expanded states, expanded transitions,
    initial states) by the product formulas of the expansion."""
    d = cfg["delays"]
    s, c = d["nsc_max"], d["nca_max"]
    sc = d["nsc_max"] - d["nsc_min"] + 1
    ca = d["nca_max"] - d["nca_min"] + 1
    nx = math.prod(grid_points(cfg["plant"]["grid"]))
    nu = math.prod(grid_points(cfg["plant"]["input_grid"]))
    p = len(plant_transitions(cfg))
    states = (nx + 1) ** s * nu ** c * sc ** s * ca ** c
    trans = p * (nx + 1) ** (s - 1) * nu ** (c - 1) * nu * sc ** (s + 1) * ca ** (c + 1)
    return nx, p, states, trans, nx * nu


def check_model(cfg, out):
    """Manifests and the model files agree with the product formulas."""
    nx, p, states, trans, init = model_sizes(cfg)
    ab = json.loads((out / "abstract.manifest.json").read_text())["sizes"]
    expect(ab["n_states"] == nx, f"plant cells {ab['n_states']} != {nx}")
    expect(ab["n_transitions"] == p, f"plant transitions {ab['n_transitions']} != {p}")
    expect(ab["deterministic"], "integrator abstraction is not deterministic")
    ex = json.loads((out / "expand.manifest.json").read_text())["sizes"]
    expect(ex["n_states_symbolic"] == states,
           f"expanded states {ex['n_states_symbolic']} != {states}")
    expect(ex["n_transitions"] == trans,
           f"expanded transitions {ex['n_transitions']} != {trans}")
    model = BddFile(out / "ncs.bdd")
    expect(model.sat_count() == trans,
           f"ncs.bdd holds {model.sat_count()} transitions, formula {trans}")
    lay = Layout(model.meta)
    expect(lay.marker == model.meta["marker_code"],
           f"marker {model.meta['marker_code']} != first unused code {lay.marker}")
    initial = BddFile(out / "ncs.init.bdd")
    free = initial.var_count - len(lay.pre_vars)
    expect(initial.sat_count() == init << free,
           f"initial states {initial.sat_count() >> free} != {init}")


def controller_files(out):
    """Mode relation files in mode order (controller.bdd is mode 0)."""
    sidecar = json.loads((out / "controller.modes.json").read_text())
    return [out / m["relation"] for m in sidecar["modes"]]


def _admissible(rel, lay, bits, ncodes):
    return [u for u in range(ncodes) if rel.value(lay.with_label(bits, u))]


def check_explicit(cfg, out, oracles):
    """Winning set equals the explicit generalized-Buchi solution on the
    element-by-element expansion (``tests/oracles.py``), state by state."""
    d = cfg["delays"]
    bounds = (d["nsc_min"], d["nsc_max"], d["nca_min"], d["nca_max"])
    grid = cfg["plant"]["grid"]
    plant = plant_transitions(cfg)
    states = _cells(grid)
    inputs = _cells(cfg["plant"]["input_grid"])
    space, _, transitions = oracles.expand_explicit(
        states, inputs, {k: {v} for k, v in plant.items()}, states, bounds)
    _, _, n_states, n_trans, _ = model_sizes(cfg)
    expect(len(space) == n_states, f"explicit states {len(space)} != {n_states}")
    expect(len(transitions) == n_trans,
           f"explicit transitions {len(transitions)} != {n_trans}")
    game = {}
    for pre, label, post in transitions:
        game.setdefault((pre, label), set()).add(post)
    targets = [{q for q in space if q[0][0] is not None
                and _in_box(center(grid, q[0][0]), box)}
               for box in cfg["spec"]["targets"]]
    win = oracles.solve_gen_buchi_explicit(list(space), inputs, game, targets)
    synth = json.loads((out / "synth.manifest.json").read_text())["sizes"]
    expect(synth["domain_size"] == len(win),
           f"winning set {synth['domain_size']} != explicit {len(win)}")
    lay = Layout(BddFile(out / "ncs.bdd").meta)
    ncodes = 1 << len(lay.label)
    for path in controller_files(out):
        rel = BddFile(path)
        for q in space:
            bits = lay.encode(*q)
            dom = bool(_admissible(rel, lay, bits, ncodes))
            expect(dom == (q in win), f"{path.name}: state {q} in domain={dom}, "
                   f"explicit winner={q in win}")


def check_trace(cfg, out):
    """Closed-loop trace of ``cfg``'s simulation: integrator closed form,
    grid and obstacles, channel timing, mode order, target visits, and
    CSV equal to JSON."""
    x0, steps = cfg["sim"]["x0"], cfg["sim"]["steps"]
    grid, igrid = cfg["plant"]["grid"], cfg["plant"]["input_grid"]
    tau = cfg["plant"]["tau"]
    d = cfg["delays"]
    nsc, nca = d["nsc_max"], d["nca_max"]
    obstacles = cfg["spec"].get("obstacles", [])
    targets = cfg["spec"]["targets"]
    recs = read_trace_json(out / "trace.json")
    rows = read_trace_csv(out / "trace.csv")
    expect(len(recs) == steps, f"{len(recs)} records, {steps} steps asked")
    expect(recs[0]["x"] == list(x0), f"trace starts at {recs[0]['x']}, not {x0}")
    inp_np = grid_points(igrid)
    visited = set()
    for k, r in enumerate(recs):
        x = r["x"]
        expect(r["k"] == k, f"record {k} has k={r['k']}")
        expect(all(a <= v <= b for v, a, b in zip(x, grid["lb"], grid["ub"])),
               f"step {k}: state {x} outside the grid")
        expect(not any(_in_box(x, b) for b in obstacles),
               f"step {k}: state {x} inside an obstacle")
        visited.update(i for i, b in enumerate(targets) if _in_box(x, b))
        expect(all(0 <= i < n for i, n in zip(r["chosen"], inp_np)),
               f"step {k}: chosen input {r['chosen']} off the input grid")
    for k, r in enumerate(recs):
        if k + 1 < len(recs):
            nxt = [v + tau * a for v, a in zip(r["x"], r["applied"])]
            expect(recs[k + 1]["x"] == nxt, f"step {k}: x[k+1]={recs[k + 1]['x']}"
                   f" but x[k] + tau*applied[k] = {nxt}")
        if k >= nca:
            want = list(center(igrid, recs[k - nca]["chosen"]))
            expect(r["applied"] == want, f"step {k}: applied {r['applied']} is "
                   f"not the center {want} of chosen[k-{nca}]")
        else:
            expect(r["applied"] == recs[0]["applied"], f"step {k}: applied input "
                   f"changed before the first output arrived")
        if k >= nsc:
            want = list(quantize(grid, recs[k - nsc]["x"]))
            expect(r["delivered"] == want, f"step {k}: delivered "
                   f"{r['delivered']} does not quantize x[k-{nsc}] ({want})")
        else:
            expect(r["delivered"] is None, f"step {k}: delivery before {nsc} steps")
    expect(recs[0]["mode"] == 0, f"trace starts in mode {recs[0]['mode']}")
    for k in range(len(recs) - 1):
        m, m2 = recs[k]["mode"], recs[k + 1]["mode"]
        if m2 != m:
            expect(m2 == (m + 1) % len(targets), f"step {k}: mode {m} -> {m2}")
            cell = recs[k]["delivered"]
            expect(cell is not None and _in_box(center(grid, cell), targets[m]),
                   f"step {k}: mode {m} left with delivered cell {cell} "
                   f"outside its target")
    expect(visited == set(range(len(targets))),
           f"targets entered: {sorted(visited)} of {len(targets)}")
    _check_csv(recs, rows, grid, igrid)


def _flat(idx, npoints):
    if idx is None:
        return -1
    flat, stride = 0, 1
    for i, n in zip(idx, npoints):
        flat += i * stride
        stride *= n
    return flat


def _check_csv(recs, rows, grid, igrid):
    expect(len(rows) == len(recs), f"{len(rows)} CSV rows, {len(recs)} JSON records")
    snp, inp = grid_points(grid), grid_points(igrid)
    for r, row in zip(recs, rows):
        want = {"k": r["k"], "delivered_symbol": _flat(r["delivered"], snp),
                "chosen_input_symbol": _flat(r["chosen"], inp), "mode": r["mode"]}
        want.update({f"x{i}": v for i, v in enumerate(r["x"])})
        want.update({f"applied_u{i}": v for i, v in enumerate(r["applied"])})
        got = {k: (int(v) if k in ("k", "delivered_symbol", "chosen_input_symbol",
                                   "mode") else float(v)) for k, v in row.items()}
        expect(got == want, f"CSV row {row} != JSON record {r}")


def sample_states(lay, rng, count):
    """Seeded pre-states: three in four draw every register from its
    valid range (state registers may hold the marker), the rest are raw
    bit words, which may hold codes no cell uses."""
    cells = list(itertools.product(*(range(n) for n in lay.state_np)))
    inputs = list(itertools.product(*(range(n) for n in lay.input_np)))
    out = []
    for i in range(count):
        if i % 4 == 3:
            out.append(lay.unpacked(rng.getrandbits(len(lay.pre_vars))))
            continue
        xs = [None if rng.random() < 1 / (len(cells) + 1) else rng.choice(cells)
              for _ in range(lay.s)]
        us = [rng.choice(inputs) for _ in range(lay.c)]
        dsc = [rng.randint(lay.nsc_min, lay.nsc_max) for _ in range(lay.s)]
        dca = [rng.randint(lay.nca_min, lay.nca_max) for _ in range(lay.c)]
        out.append(lay.encode(xs, us, dsc, dca))
    return out


def check_netlist(out, mode, name, rng, count, c_limit):
    """The netlist's ``u`` is the smallest admissible input of the mode's
    relation wherever ``valid`` holds, and ``valid`` is domain
    membership.  Where the C file is at most ``c_limit`` bytes and gcc is
    present, the compiled C agrees with the netlist on the same states."""
    model_meta = BddFile(out / "ncs.bdd").meta
    lay = Layout(model_meta)
    rel = BddFile(controller_files(out)[mode])
    for key in ("state_grid", "input_grid", "delays"):
        expect(rel.meta[key] == model_meta[key],
               f"controller {key} differs from the model's")
    net = Netlist((out / f"{name}.v").read_text())
    expect(net.state_width == len(lay.pre_vars),
           f"netlist state width {net.state_width} != {len(lay.pre_vars)}")
    ncodes = 1 << len(lay.label)
    words, results = [], []
    for bits in sample_states(lay, rng, count):
        word = lay.packed(bits)
        u, valid = net.evaluate(word)
        adm = _admissible(rel, lay, bits, ncodes)
        expect(valid == bool(adm), f"{name}: valid={valid} at state word "
               f"{word}, domain membership {bool(adm)}")
        if adm:
            expect(u == adm[0], f"{name}: u={u} at state word {word}, smallest "
                   f"admissible input {adm[0]}")
        words.append(word)
        results.append((u, valid))
    csrc = out / f"{name}.c"
    if shutil.which("gcc") and csrc.stat().st_size <= c_limit:
        expect(run_c(out, name, words) == results, f"{name}: compiled C "
               f"disagrees with the netlist")


_C_MAIN = """#include <inttypes.h>
#include <stdio.h>
#include "{name}.h"
int main(void) {{
    unsigned long long s;
    while (scanf("%llu", &s) == 1)
        printf("%" PRIu64 " %d\\n", {name}_control((uint64_t)s),
               {name}_domain((uint64_t)s) ? 1 : 0);
    return 0;
}}
"""


def run_c(out, name, words):
    """Compile the emitted C with a small `main` and evaluate it."""
    build = out / "cc"
    build.mkdir(exist_ok=True)
    main_src = build / f"{name}_main.c"
    main_src.write_text(_C_MAIN.format(name=name))
    exe = build / name
    subprocess.run(["gcc", "-O0", "-std=c99", "-I", str(out), "-o", str(exe),
                    str(main_src), str(out / f"{name}.c")],
                   check=True, capture_output=True, timeout=120)
    proc = subprocess.run([str(exe)], input="\n".join(map(str, words)) + "\n",
                          capture_output=True, text=True, check=True, timeout=60)
    return [(int(a), b == "1") for a, b in
            (line.split() for line in proc.stdout.splitlines())]

