"""Analysis helpers: relation export, file metadata dumps, coverage maps,
and an interactive state/input probe.

Export dialect: the text ("fsm") format declares each dimension as a
bounded-integer variable, one `var <name> <cardinality>` line per column,
a `---` separator, then one space-separated line per transition.  The CSV
format carries the same columns with a header row.  For expanded models a
state register with no measurement yet prints as -1 in all its columns.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .bddfile import load
from .grid import write_code


def _columns(model):
    """(names, cardinalities) of one transition row."""
    cols = ([("pre_" + n, c) for n, c in model.state_columns]
            + [(f"in_u{d}", n) for d, n in enumerate(model.input_grid.npoints)]
            + [("post_" + n, c) for n, c in model.state_columns])
    return [n for n, _ in cols], [c for _, c in cols]


def transition_rows(model):
    """All transitions as integer rows, lexicographically sorted."""
    rows = []
    sup = model.all_vars
    for bits in model.mgr.cubes(model.trans, sup):
        a = dict(zip(sup, bits))
        rows.append(model.decode_row(a, "pre") + model.input_set.decode_index(a)
                    + model.decode_row(a, "post"))
    return sorted(rows)


def write_fsm(model, path, fmt="csv"):
    """bdd2fsm: dump the transition relation for graph tooling."""
    names, cards = _columns(model)
    rows = transition_rows(model)
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(names)
            w.writerows(rows)
    elif fmt == "fsm":
        with open(path, "w") as fh:
            for n, c in zip(names, cards):
                fh.write(f"var {n} {c}\n")
            fh.write("---\n")
            for row in rows:
                fh.write(" ".join(str(v) for v in row) + "\n")
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    return len(rows)


def read_fsm_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [tuple(int(v) for v in row) for row in reader]
    return header, rows


def read_fsm(path):
    header, rows = [], []
    with open(path) as fh:
        body = False
        for line in fh:
            line = line.strip()
            if line == "---":
                body = True
                continue
            if not body:
                _, name, card = line.split()
                header.append((name, int(card)))
            elif line:
                rows.append(tuple(int(v) for v in line.split()))
    return header, rows


def bdd_dump(path):
    """bddDump: human-readable report of a BDD file's metadata."""
    f, meta = load(path)
    mgr = f.mgr
    lines = [f"file: {path}"]
    lines.append(f"kind: {meta.get('kind', 'unknown')}")
    if "name" in meta:
        lines.append(f"name: {meta['name']}")
    if "tau" in meta:
        lines.append(f"sampling period: {meta['tau']}")
    for key in ("state_grid", "input_grid"):
        if key in meta:
            g = meta[key]
            lines.append(f"{key}: lb={g['lb']} ub={g['ub']} eta={g['eta']}")
    if "delays" in meta:
        d = meta["delays"]
        lines.append(f"delays: sc [{d['nsc_min']};{d['nsc_max']}] "
                     f"ca [{d['nca_min']};{d['nca_max']}]")
    if meta.get("kind") == "ncs_model" or meta.get("model_kind") == "ncs":
        lines.append(f"layout version: {meta.get('layout_version')}")
    lines.append(f"declared variables: {mgr.var_count}")
    lines.append(f"nodes: {mgr.node_count()}")
    support = sorted(f.support())
    lines.append(f"support: {len(support)} variables")
    if support:
        lines.append(f"satisfying assignments over support: "
                     f"{f.sat_count(support)}")
    roles = meta.get("var_roles")
    if roles:
        lines.append("variable roles:")
        for r in roles:
            desc = " ".join(f"{k}={r[k]}" for k in sorted(r) if k != "var")
            lines.append(f"  var {r['var']}: {desc}")
    return "\n".join(lines)


def cont_coverage(controller, dims=(0, 1)):
    """contCoverage: ASCII map of the controller domain over two state
    dimensions of its model ('#': covered, '.': not); remaining variables
    are existentially projected.  For expanded models the newest state
    register is shown."""
    model = controller.model
    grid = model.state_grid
    if grid.dim < 2:
        raise ValueError("coverage maps need at least two state dimensions")
    a, b = dims
    if not (0 <= a < grid.dim and 0 <= b < grid.dim and a != b):
        raise ValueError(f"bad dimension pair {dims} for a {grid.dim}-D grid")
    fields = model.anchor_set.var_ids
    keep = set(fields[a]) | set(fields[b])
    domain = controller.domain
    others = [v for v in domain.support() if v not in keep]
    proj = domain.exists(others) if others else domain
    lines = []
    for j in range(grid.npoints[b] - 1, -1, -1):
        row = []
        for i in range(grid.npoints[a]):
            assignment = write_code(write_code({}, fields[a], i), fields[b], j)
            row.append("#" if proj.restrict(assignment).is_true else ".")
        lines.append("".join(row))
    return "\n".join(lines)


def explore_model(model, state, input_sequence):
    """sysExplorer core: post-state sets after each input of the sequence.

    `state` is a flat state row of the model (for plant models the index
    vector; for expanded models the flattened register vector, -1 marking
    a register without a measurement).  Returns a list of sets of state
    rows, one per input.
    """
    mgr = model.mgr
    cur = mgr.cube(model.encode_row(state))
    input_dim = model.input_grid.dim
    if len(input_sequence) % input_dim:
        raise ValueError(f"input sequence length must be a multiple of "
                         f"{input_dim}")
    steps = [tuple(input_sequence[i:i + input_dim])
             for i in range(0, len(input_sequence), input_dim)]

    out = []
    for u in steps:
        img = model.post_image(cur & model.input_set.cell_cube(u))
        out.append({model.decode_row(dict(zip(model.pre_vars, bits)), "pre")
                    for bits in mgr.cubes(img, model.pre_vars)})
        cur = img
    return out


def explore_controller(controller, state):
    """Admissible input index vectors at a state row of the controller's
    model, or None when the state is outside the controller domain."""
    model = controller.model
    codes = controller.admissible_inputs(model.encode_row(state))
    if not codes:
        return None
    return [model.input_grid.unpack(code) for code in codes]


def explorer_repl(model, controller=None, stdin=None, stdout=None):
    """Line-oriented interactive probe: one query per line, `quit` exits.

    Model queries: `<state fields> [input fields]...` echoes the state
    when no inputs follow, otherwise prints the post-state set after each
    input.  With a controller loaded, `? <state fields>` prints the
    admissible inputs; its state fields are those of the controller's
    model, which need not be the explored one.
    """
    import sys
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    state_len = len(model.state_columns)
    print("one query per line; 'quit' to exit", file=stdout)
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        if line in ("quit", "exit", "q"):
            break
        try:
            if line.startswith("?"):
                if controller is None:
                    print("no controller loaded", file=stdout)
                    continue
                state = [int(t) for t in line[1:].split()]
                inputs = explore_controller(controller, state)
                if inputs is None:
                    print("no input", file=stdout)
                else:
                    print("inputs: " + " ".join(str(i) for i in inputs),
                          file=stdout)
                continue
            tokens = [int(t) for t in line.split()]
            state, rest = tokens[:state_len], tokens[state_len:]
            if len(state) < state_len:
                print(f"error: state needs {state_len} integers", file=stdout)
                continue
            if not rest:
                print(f"state: {tuple(state)}", file=stdout)
                continue
            for k, cells in enumerate(explore_model(model, state, rest)):
                shown = " ".join(str(c) for c in sorted(cells)) or "(blocked)"
                print(f"after input {k + 1}: {shown}", file=stdout)
        except (ValueError, KeyError) as exc:
            print(f"error: {exc}", file=stdout)
