"""Independent reference implementations used to check the symbolic code.

Boolean functions over n variables are represented as truth-table
integers: bit k of the integer is the function value under the assignment
whose code is k, with the first (topmost) variable as the most
significant code bit.  Transition systems are plain dicts.  Nothing here
touches the decision-diagram algorithms under test beyond constructing
inputs.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from functools import lru_cache

# ----------------------------------------------------------------------
# truth-table oracle


def tt_mask(n):
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def _half_mask(n, s):
    """Positions k in [0, 2^n) whose bit s is zero."""
    m = 0
    for k in range(1 << n):
        if not (k >> s) & 1:
            m |= 1 << k
    return m


def tt_not(a, n):
    return ~a & tt_mask(n)

def tt_and(a, b):
    return a & b

def tt_or(a, b):
    return a | b

def tt_xor(a, b):
    return a ^ b


def tt_exists(a, n, position):
    """Quantify out the variable at `position` (0 = most significant)."""
    s = n - 1 - position
    m = _half_mask(n, s)
    width = 1 << s
    lo = a & m
    hi = (a >> width) & m
    res = lo | hi
    return res | (res << width)


def tt_forall(a, n, position):
    s = n - 1 - position
    m = _half_mask(n, s)
    width = 1 << s
    lo = a & m
    hi = (a >> width) & m
    res = lo & hi
    return res | (res << width)


def tt_count(a):
    return bin(a).count("1")


def tt_eval(a, n, code):
    return (a >> code) & 1


def bdd_to_tt(f, variables):
    """Truth table of a Bdd over the given variable list (sorted ascending;
    must cover the support)."""
    mgr = f.mgr
    variables = list(variables)
    n = len(variables)
    memo = {}

    def rec(ref, i):
        if i == n:
            assert ref <= 1, "variable list does not cover the support"
            return ref
        key = (ref, i)
        got = memo.get(key)
        if got is not None:
            return got
        v = variables[i]
        if ref > 1 and mgr._nodes[ref][0] == v:
            _, lo, hi = mgr._nodes[ref]
        elif ref > 1 and mgr._nodes[ref][0] < v:
            raise AssertionError("variable list does not cover the support")
        else:
            lo = hi = ref
        width = 1 << (n - 1 - i)
        res = rec(lo, i + 1) | (rec(hi, i + 1) << width)
        memo[key] = res
        return res

    return rec(f.ref, 0)


def tt_to_codes(a, n):
    return [k for k in range(1 << n) if (a >> k) & 1]


# ----------------------------------------------------------------------
# explicit network expansion (element-by-element definition)


def expand_explicit(states, inputs, trans, init, bounds, input_selector=None):
    """Enumerative expansion of a plant model over delay channels.

    states/inputs: lists of hashable symbols; trans: dict (x, u) -> set of
    successors; init: iterable of initial states; bounds: (nsc_min,
    nsc_max, nca_min, nca_max).  Returns (state set, initial set,
    transition set) where an expanded state is the tuple

        (x_regs, u_regs, sc_delays, ca_delays)

    with x_regs[0] the newest entry and None the no-measurement marker,
    and a transition is (pre, label, post).
    """
    nsc_min, nsc_max, nca_min, nca_max = bounds
    s, c = nsc_max, nca_max
    sel = input_selector or (lambda dsc, dca: 0)

    x_dom = list(states) + [None]
    sc_vals = range(nsc_min, nsc_max + 1)
    ca_vals = range(nca_min, nca_max + 1)

    space = set()
    for xs in itertools.product(x_dom, repeat=s):
        for us in itertools.product(inputs, repeat=c):
            for dsc in itertools.product(sc_vals, repeat=s):
                for dca in itertools.product(ca_vals, repeat=c):
                    space.add((xs, us, dsc, dca))

    initial = set()
    for x0 in init:
        for u0 in inputs:
            initial.add(((x0,) + (None,) * (s - 1), (u0,) * c,
                         (nsc_max,) * s, (nca_max,) * c))

    transitions = set()
    for pre in space:
        xs, us, dsc, dca = pre
        head = xs[0]
        if head is None:
            continue
        j = sel(dsc, dca)
        applied = us[c - 1 - j]
        succs = trans.get((head, applied), ())
        if not succs:
            continue
        for label in inputs:
            for xp in succs:
                for nsc in sc_vals:
                    for nca in ca_vals:
                        post = ((xp,) + xs[:-1], (label,) + us[:-1],
                                (nsc,) + dsc[:-1], (nca,) + dca[:-1])
                        transitions.add((pre, label, post))
    return space, initial, transitions


def reachable_explicit(initial, transitions):
    succ = {}
    for pre, _, post in transitions:
        succ.setdefault(pre, set()).add(post)
    seen = set(initial)
    frontier = list(initial)
    while frontier:
        nxt = []
        for q in frontier:
            for p in succ.get(q, ()):
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


# ----------------------------------------------------------------------
# explicit fixed-point game solving


def all_pairs(states, inputs):
    return {(x, u) for x in states for u in inputs}


def cpre_explicit(states, inputs, trans, Z):
    proj = {x for (x, _) in Z}
    out = set()
    for x in states:
        for u in inputs:
            succs = trans.get((x, u), set())
            if succs and succs.issubset(proj):
                out.add((x, u))
    return out


def solve_safety_explicit(states, inputs, trans, safe):
    constraint = {(x, u) for x in safe for u in inputs}
    Z = constraint
    while True:
        nxt = cpre_explicit(states, inputs, trans, Z) & constraint
        if nxt == Z:
            return Z
        Z = nxt


def solve_reach_explicit(states, inputs, trans, target):
    Z = {(x, u) for x in target for u in inputs}
    while True:
        nxt = Z | cpre_explicit(states, inputs, trans, Z)
        if nxt == Z:
            return Z
        Z = nxt


def solve_persistence_explicit(states, inputs, trans, safe):
    safe_pairs = {(x, u) for x in safe for u in inputs}
    everything = all_pairs(states, inputs)
    Z = set()
    while True:
        Y = everything
        while True:
            nxt = ((safe_pairs & cpre_explicit(states, inputs, trans, Y))
                   | cpre_explicit(states, inputs, trans, Z))
            if nxt == Y:
                break
            Y = nxt
        if Y == Z:
            return Z
        Z = Y


def solve_recurrence_explicit(states, inputs, trans, target):
    target_pairs = {(x, u) for x in target for u in inputs}
    Y = all_pairs(states, inputs)
    while True:
        reentry = target_pairs & cpre_explicit(states, inputs, trans, Y)
        Z = set(reentry)
        while True:
            nxt = Z | cpre_explicit(states, inputs, trans, Z)
            if nxt == Z:
                break
            Z = nxt
        if Z == Y:
            return Y
        Y = Z


def solve_gen_buchi_explicit(states, inputs, trans, targets, safe=None):
    """Mutual constrained-reachability fixed point; each visit must come
    with a continuation into the next mode's domain.  Returns the common
    winning state set."""
    safe = set(safe) if safe is not None else set(states)
    safe_pairs = {(x, u) for x in safe for u in inputs}
    m = len(targets)
    domains = [set(safe) for _ in range(m)]
    while True:
        changed = False
        for i in range(m):
            into_next = cpre_explicit(
                states, inputs, trans,
                {(x, u) for x in (domains[(i + 1) % m] & safe) for u in inputs})
            Z = ({(x, u) for x in targets[i] for u in inputs}
                 & into_next & safe_pairs)
            while True:
                nxt = Z | (cpre_explicit(states, inputs, trans, Z) & safe_pairs)
                if nxt == Z:
                    break
                Z = nxt
            d = {x for (x, _) in Z}
            if d != domains[i]:
                domains[i] = d
                changed = True
        if not changed:
            break
    for d in domains[1:]:
        assert d == domains[0]
    return domains[0]


def random_game(rng, max_states=64, max_inputs=4, density=0.5,
                blocking_fraction=0.15):
    """Seeded random nondeterministic game graph."""
    n = rng.randint(1, max_states)
    m = rng.randint(1, max_inputs)
    states = list(range(n))
    inputs = list(range(m))
    trans = {}
    for x in states:
        for u in inputs:
            if rng.random() < blocking_fraction:
                continue
            k = 1 + min(rng.randrange(3), rng.randrange(3))
            succs = {rng.randrange(n) for _ in range(k)}
            if rng.random() < density:
                succs.add(rng.randrange(n))
            trans[(x, u)] = succs
    return states, inputs, trans


# ----------------------------------------------------------------------
# trace file renderings: the plain library writers that export_trace's
# template writers must match byte for byte


def trace_json_text(trace):
    """trace.json as ``json.dump(payload, fh, indent=1)`` writes it."""
    def vec(v):
        return list(v) if v is not None else None

    payload = {"meta": trace.meta,
               "records": [{"k": r.k, "x": list(r.x),
                            "delivered": vec(r.delivered),
                            "chosen": vec(r.chosen),
                            "applied": list(r.applied), "mode": r.mode}
                           for r in trace.records]}
    buf = io.StringIO()
    json.dump(payload, buf, indent=1)
    return buf.getvalue()


def trace_rows(trace):
    """One dict per record, columns named and filled field by field."""
    def flat(idx, npoints):
        if idx is None:
            return -1
        code, stride = 0, 1
        for i, n in zip(idx, npoints):
            code += i * stride
            stride *= n
        return code

    rows = []
    for r in trace.records:
        row = {"k": r.k}
        row.update((f"x{d}", v) for d, v in enumerate(r.x))
        row["delivered_symbol"] = flat(r.delivered, trace.meta["state_npoints"])
        row["chosen_input_symbol"] = flat(r.chosen, trace.meta["input_npoints"])
        row.update((f"applied_u{d}", v) for d, v in enumerate(r.applied))
        row["mode"] = r.mode
        rows.append(row)
    return rows


def trace_csv_text(trace, rows=None):
    """trace.csv as ``csv.DictWriter`` writes `rows` (by default
    `trace_rows`), floats by their repr."""
    rows = trace_rows(trace) if rows is None else rows
    if rows:
        fields = list(rows[0])
    else:
        n = len(trace.meta.get("state_npoints", []))
        m = len(trace.meta.get("input_npoints", []))
        fields = (["k"] + [f"x{d}" for d in range(n)]
                  + ["delivered_symbol", "chosen_input_symbol"]
                  + [f"applied_u{d}" for d in range(m)] + ["mode"])
    buf = io.StringIO(newline="")
    w = csv.DictWriter(buf, fieldnames=fields)
    w.writeheader()
    for row in rows:
        w.writerow({k: repr(v) if isinstance(v, float) else v
                    for k, v in row.items()})
    return buf.getvalue()
