"""Turn synthesized controllers into C and Verilog implementations.

The controller relation is first restricted to one input per state (the
smallest packed binary input code, a reproducible stand-in for "first
available"), then split into one boolean function per input bit.  Both
back ends share one numbering of the diagram nodes under a mode's bit
functions and domain, that of the `.bdd` format (`Manager.postorder`:
children first, ids 0/1 for FALSE/TRUE, node i has id i + 2).  The C is
a `static const` table of (state-word bit, lo id, hi id) rows indexed by
that id, walked by one loop; the Verilog is a netlist with one ternary
wire per node.  Both are linear in the diagram.  Outputs outside the
controller domain are don't-cares; a domain membership predicate is
always emitted alongside.
"""

from __future__ import annotations

from dataclasses import replace

from .bddfile import node_order


class CodegenError(Exception):
    pass


def determinize(controller):
    """Restrict every mode to the minimum-code input per domain state."""
    mgr, input_vars = controller.mgr, controller.input_vars

    def det(rel):
        # resolve choice bit by bit from the most significant input bit: a
        # state keeps the 0-branch whenever any retained input has that bit 0
        for w in reversed(input_vars):
            v = mgr.var(w)
            with0 = rel & ~v
            some0 = with0.exists(input_vars)
            rel = with0 | (rel & v & ~some0)
        return rel

    rel = det(controller.relation)
    modes = None if controller.modes is None else [
        replace(m, relation=det(m.relation)) for m in controller.modes]
    return replace(controller, relation=rel, modes=modes,
                   stats=dict(controller.stats))


def is_deterministic_relation(mgr, rel, pre_vars, input_vars):
    support = tuple(sorted(set(pre_vars) | set(input_vars)))
    total = mgr.sat_count(rel, support)
    dom = rel.exists(input_vars)
    return total == mgr.sat_count(dom, pre_vars)


def decompose_outputs(mgr, rel, pre_vars, input_vars):
    """One boolean function per input bit of a deterministic relation."""
    if not is_deterministic_relation(mgr, rel, pre_vars, input_vars):
        raise CodegenError("relation is not deterministic; determinize first")
    return [mgr.exist_and(rel, mgr.var(w), input_vars) for w in input_vars]


def _node_table(bit_funcs, domain, pre_vars):
    """The numbering both back ends share: one (state-word bit, lo id, hi
    id) row per node under the bit functions and the domain, row i having
    id i + 2, and the ids of those roots, domain last."""
    mgr = domain.mgr
    roots = [r.ref for r in bit_funcs] + [domain.ref]
    pos = {v: i for i, v in enumerate(pre_vars)}
    order, ids = node_order(mgr, roots)
    rows = []
    for ref in order:
        var, lo, hi = mgr._nodes[ref]
        if var not in pos:
            raise CodegenError(f"function depends on variable {var}, which "
                               f"is not a state variable")
        rows.append((pos[var], ids[lo], ids[hi]))
    return rows, [ids[r] for r in roots]


_ROWS_PER_LINE = 8


def emit_c(name, bit_funcs, domain, pre_vars, model=None):
    """C sources for the bit functions, a collector, and the domain
    predicate.  The state is passed as a packed uint64_t whose bit i is
    state variable pre_vars[i]; the collector returns the packed input
    code.  The diagram is one `node` table, rows 0/1 the terminals, that
    `eval` walks from a root's row.  The header comments give the
    sampling period and channel delays of `model`, the controller's
    model, and each of its state registers' bits in the packed word.
    Returns (header text, source text)."""
    if len(pre_vars) > 64:
        raise CodegenError(f"state needs {len(pre_vars)} bits; the fixed "
                           f"width API supports at most 64")
    rows, root_ids = _node_table(bit_funcs, domain, pre_vars)
    cells = [f"{{{b},{lo},{hi}}}," for b, lo, hi in [(0, 0, 0), (0, 1, 1)] + rows]

    lines = []
    lines.append(f'#include "{name}.h"')
    lines.append("")
    lines.append("static const struct { uint8_t bit; uint32_t lo, hi; } node[] = {")
    for i in range(0, len(cells), _ROWS_PER_LINE):
        lines.append("".join(cells[i:i + _ROWS_PER_LINE]))
    lines.append("};")
    lines.append("")
    lines.append("static bool eval(uint32_t r, uint64_t s) {")
    lines.append("    while (r > 1)")
    lines.append("        r = (s >> node[r].bit & 1u) ? node[r].hi : node[r].lo;")
    lines.append("    return r;")
    lines.append("}")
    lines.append("")
    for j, r in enumerate(root_ids[:-1]):
        lines.append(f"bool {name}_out_b{j}(uint64_t s) {{ return eval({r}, s); }}")
    lines.append(f"bool {name}_domain(uint64_t s) {{ return eval({root_ids[-1]}, s); }}")
    lines.append("")
    lines.append(f"uint64_t {name}_control(uint64_t s) {{")
    lines.append("    uint64_t u = 0;")
    for j in range(len(bit_funcs)):
        lines.append(f"    if ({name}_out_b{j}(s)) u |= UINT64_C(1) << {j};")
    lines.append("    return u;")
    lines.append("}")
    source = "\n".join(lines) + "\n"

    hl = []
    guard = f"{name.upper()}_H"
    hl.append(f"#ifndef {guard}")
    hl.append(f"#define {guard}")
    hl.append("")
    hl.append("#include <stdbool.h>")
    hl.append("#include <stdint.h>")
    hl.append("")
    hl.append(f"/* state: {len(pre_vars)} packed bits; input: "
              f"{len(bit_funcs)} packed bits */")
    for line in _layout_comment(model, pre_vars):
        hl.append(f"/* {line} */")
    hl.append("")
    for j in range(len(bit_funcs)):
        hl.append(f"bool {name}_out_b{j}(uint64_t state);")
    hl.append(f"bool {name}_domain(uint64_t state);")
    hl.append(f"uint64_t {name}_control(uint64_t state);")
    hl.append("")
    hl.append(f"#endif /* {guard} */")
    header = "\n".join(hl) + "\n"
    return header, source


def emit_verilog(name, bit_funcs, domain, pre_vars, model=None):
    """Combinational module: packed state in, packed input plus a domain
    valid flag out; one ternary assign per diagram node, wire n<i> for the
    node of id i + 2.  The header comments are those of `emit_c`."""
    rows, root_ids = _node_table(bit_funcs, domain, pre_vars)

    def ref_expr(i):
        if i == 0:
            return "1'b0"
        if i == 1:
            return "1'b1"
        return f"n{i - 2}"

    sb = max(len(pre_vars), 1)
    ib = max(len(bit_funcs), 1)
    lines = []
    lines.append(f"// generated controller {name}")
    lines.append(f"// state width {len(pre_vars)}, input width {len(bit_funcs)}")
    for line in _layout_comment(model, pre_vars):
        lines.append(f"// {line}")
    lines.append(f"module {name} (")
    lines.append(f"    input  wire [{sb - 1}:0] state,")
    lines.append(f"    output wire [{ib - 1}:0] u,")
    lines.append("    output wire valid")
    lines.append(");")
    for i, (bit, lo, hi) in enumerate(rows):
        lines.append(f"  wire n{i};")
        lines.append(f"  assign n{i} = state[{bit}] ? "
                     f"{ref_expr(hi)} : {ref_expr(lo)};")
    for j, r in enumerate(root_ids[:-1]):
        lines.append(f"  assign u[{j}] = {ref_expr(r)};")
    if not bit_funcs:
        lines.append("  assign u[0] = 1'b0;")
    lines.append(f"  assign valid = {ref_expr(root_ids[-1])};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _layout_comment(model, pre_vars):
    if model is None:
        return []
    out = [f"sampling period: {model.tau}"]
    d = model.bounds
    if d is not None:
        out.append(f"channel delays (samples): sensor-to-controller "
                   f"[{d.nsc_min};{d.nsc_max}], controller-to-actuator "
                   f"[{d.nca_min};{d.nca_max}]")
    pos = {v: i for i, v in enumerate(pre_vars)}
    for reg, block in model.state_registers:
        out.append(f"state word bits of {reg}, LSB first: "
                   + " ".join(str(pos[v]) for v in block))
    return out


def generate(controller, name, targets=("c", "verilog")):
    """Emit the artifacts of the back ends in `targets` for a controller;
    one artifact set per mode.

    Returns a list of dicts with keys mode and name, plus header and
    source for "c" and verilog for "verilog".  A back end that is not
    asked for does not run, so the C limit of 64 state bits does not
    stop a netlist.
    """
    det = determinize(controller)
    mgr = det.mgr
    relations = ([(i, m.relation) for i, m in enumerate(det.modes)]
                 if det.modes else [(None, det.relation)])
    out = []
    for mode_idx, rel in relations:
        mode_name = name if mode_idx is None else f"{name}_m{mode_idx}"
        bits = decompose_outputs(mgr, rel, det.pre_vars, det.input_vars)
        domain = rel.exists(det.input_vars)
        art = {"mode": mode_idx, "name": mode_name}
        if "c" in targets:
            art["header"], art["source"] = emit_c(
                mode_name, bits, domain, det.pre_vars, det.model)
        if "verilog" in targets:
            art["verilog"] = emit_verilog(mode_name, bits, domain,
                                          det.pre_vars, det.model)
        out.append(art)
    return out
