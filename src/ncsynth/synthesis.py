"""Fixed-point synthesis of symbolic controllers.

All solvers work over any model exposing the symbolic-game protocol
(pre_vars / input_vars / post_vars, pre_to_post, and the game predicates
valid_pairs, nonblocking and not_trans of `abstraction.SymbolicModel`),
so the same code serves plant models and expanded networked models.
Winning sets are sets of state-input pairs; the controllable predecessor
keeps a pair iff it has at least one successor and every successor stays
inside the projection of the current set.  Since that projection is all
`cpre` reads, reach fixed points iterate on the winning states and form
the winning pairs once, at the end (`_reach_fixpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .bdd import Bdd
from .grid import read_code


class SynthesisError(Exception):
    pass


@dataclass
class Mode:
    """One discrete state of a mode-switching controller."""
    relation: Bdd
    goal: Bdd          # predicate on the measured cell (anchor register)
    next_mode: int


@dataclass
class Controller:
    relation: Bdd
    pre_vars: tuple
    input_vars: tuple
    modes: list = None
    stats: dict = field(default_factory=dict)
    model: object = None

    @classmethod
    def of(cls, model, relation, stats, modes=None):
        """A controller over the state and input variables of `model`."""
        return cls(relation=relation, pre_vars=model.pre_vars,
                   input_vars=model.input_vars, modes=modes, stats=stats,
                   model=model)

    @property
    def mgr(self):
        return self.relation.mgr

    @cached_property
    def domain(self):
        return self.relation.exists(self.input_vars)

    @property
    def is_empty(self):
        return self.domain.is_false

    def mode_relations(self):
        if self.modes:
            return [m.relation for m in self.modes]
        return [self.relation]

    def pick_input(self, assignment, relation=None):
        """Smallest admissible input code at a state, or None.

        The order is the packed binary input code, matching the
        determinization rule used for code emission.  One memoised walk
        of the relation, allocating no nodes: state variables follow the
        assignment, input bit b branches and weighs 1 << b, and an input
        bit the path skips is free and so counts as 0.
        """
        rel = relation if relation is not None else self.relation
        weight = {v: 1 << b for b, v in enumerate(self.input_vars)}
        nodes = self.mgr._nodes
        memo = {0: None, 1: 0}

        def least(r):
            if r in memo:
                return memo[r]
            v, lo, hi = nodes[r]
            bit = assignment.get(v)
            if bit is not None and v not in weight:
                res = least(hi if bit else lo)
            else:
                # an input bit, or a state bit the assignment leaves free
                up = least(hi)
                res = _min_code(least(lo),
                                None if up is None else up + weight.get(v, 0))
            memo[r] = res
            return res

        return least(rel.ref)

    def admissible_inputs(self, assignment):
        """All admissible input codes at a state."""
        f = self.relation.restrict(assignment)
        return sorted(read_code(dict(zip(self.input_vars, bits)), self.input_vars)
                      for bits in self.mgr.cubes(f, self.input_vars))


def _min_code(a, b):
    """Smaller of two input codes, None meaning no input."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def cpre(model, Z, allowed=None):
    """Controllable predecessor of a set of state-input pairs, within
    `allowed` (a subset of the nonblocking pairs, all of them by default).

    Computed as allowed & forall post.(~trans | P'), with P' the
    projection of Z renamed onto the successor register: the dual of the
    relational product, so no function that changes per call is negated.
    """
    proj_post = Z.exists(model.input_vars).rename(model.pre_to_post)
    closed = model.mgr.forall_or(model.not_trans, proj_post, model.post_vars)
    return (model.nonblocking if allowed is None else allowed) & closed


def _pairs(model, states):
    return states & model.valid_pairs


def solve_safety(model, safe):
    """Greatest fixed point: stay inside `safe` forever."""
    constraint = _pairs(model, safe)
    allowed = model.nonblocking & constraint
    Z = constraint
    iterations = 0
    while True:
        nxt = cpre(model, Z, allowed)
        iterations += 1
        if nxt == Z:
            break
        Z = nxt
    return Controller.of(model, Z, {"iterations": iterations, "kind": "safety"})


def _reach_fixpoint(model, target_pairs, within=None, collect=True):
    """Least fixed point of Z0 | cpre(Z), Z0 = target_pairs, optionally
    constrained to `within` pairs at every step.  Returns (winning pairs,
    winning states, first-entry relation, iterations); without `collect`
    the relation is left at the target pairs.

    `cpre` reads only the projection of Z, so the layers run on the
    winning states D: a layer's fresh pairs are those of `cpre(D)` at
    states outside D, and only they are projected.  The pair set is
    Z0 | step for the last `step`.  A loop over pairs would stop at the
    same layer, or one later when the last layer only added pairs at
    states already winning; `iterations` counts that layer too.
    """
    allowed = model.nonblocking
    Z0 = target_pairs
    if within is not None:
        allowed = allowed & within
        Z0 = Z0 & within
    relation = Z0
    D = Z0.exists(model.input_vars)
    step = model.mgr.false
    iterations = 0
    while True:
        prev, step = step, cpre(model, D, allowed)
        fresh = step & ~D
        iterations += 1
        if fresh.is_false:
            break
        if collect:
            relation = relation | fresh
        D = D | fresh.exists(model.input_vars)
    Z = Z0 | step
    if Z != Z0 | prev:
        iterations += 1
    return Z, D, relation, iterations


def solve_reach(model, target):
    """Least fixed point; the controller keeps, for every state, the inputs
    available when the state first entered the winning set, so progress
    toward the target is strictly decreasing in rank.  Target states keep
    every valid input."""
    target_pairs = _pairs(model, target)
    _, _, relation, iterations = _reach_fixpoint(model, target_pairs)
    return Controller.of(model, relation,
                         {"iterations": iterations, "kind": "reach"})


def solve_persistence(model, safe):
    """Eventually stay in `safe` forever: least fixed point over reach
    layers whose inner greatest fixed point allows lingering inside safe
    as long as the layer below stays available."""
    safe_pairs = _pairs(model, safe)
    all_pairs = model.valid_pairs
    Z = model.mgr.false
    relation = model.mgr.false
    domain = model.mgr.false
    outer = inner_total = 0
    while True:
        Y = all_pairs
        below = cpre(model, Z)      # Z is fixed for the inner loop
        while True:
            nxt = (safe_pairs & cpre(model, Y)) | below
            inner_total += 1
            if nxt == Y:
                break
            Y = nxt
        outer += 1
        if Y == Z:
            break
        relation = relation | (Y & ~domain)
        domain = Y.exists(model.input_vars)
        Z = Y
    return Controller.of(model, relation,
                         {"iterations": outer, "inner_iterations": inner_total,
                          "kind": "persistence"})


def solve_recurrence(model, target):
    """Visit `target` infinitely often: greatest fixed point over the set
    from which the target is reachable while keeping the ability to
    return.  The controller is the reach strategy toward the final
    re-entry pairs."""
    target_pairs = _pairs(model, target)
    Y = model.valid_pairs
    outer = inner_total = 0
    while True:
        reentry = target_pairs & cpre(model, Y)
        Z, _, _, inner = _reach_fixpoint(model, reentry, collect=False)
        inner_total += inner
        outer += 1
        if Z == Y:
            break
        Y = Z
    reentry = target_pairs & cpre(model, Y)
    _, _, relation, _ = _reach_fixpoint(model, reentry)
    return Controller.of(model, relation,
                         {"iterations": outer, "inner_iterations": inner_total,
                          "kind": "recurrence"})


def solve_gen_buchi(model, targets, safe=None):
    """Visit every target infinitely often while staying safe.

    Solved as mutually dependent constrained-reachability problems: mode i
    drives into target_i pairs whose successors all lie in the next mode's
    domain (so the visit always has a continuation), without leaving
    `safe`; domains are iterated to their joint fixed point, at which they
    all coincide with the winning set.  The result is a mode-switching
    controller cycling through the targets.
    """
    if not targets:
        raise SynthesisError("at least one target is required")
    mgr = model.mgr
    m = len(targets)
    safe_pairs = _pairs(model, safe) if safe is not None else model.valid_pairs
    domains = [safe_pairs.exists(model.input_vars) for _ in range(m)]
    outer = 0

    def reentry(i):
        into_next = cpre(model, domains[(i + 1) % m])
        return _pairs(model, targets[i]) & into_next & safe_pairs

    # the sweep that confirms the fixed point already recomputes every
    # mode's reach layers with the final domains, so its first-entry
    # relations double as the extracted controllers
    relations = [None] * m
    while True:
        changed = False
        for i in range(m):
            _, d, relations[i], _ = _reach_fixpoint(model, reentry(i),
                                                    within=safe_pairs)
            if d != domains[i]:
                domains[i] = d
                changed = True
        outer += 1
        if not changed:
            break

    win = domains[0]
    for d in domains[1:]:
        if d != win:
            raise SynthesisError("mode domains failed to converge to a "
                                 "common winning set")
    if win.is_false:
        return Controller.of(model, mgr.false,
                             {"iterations": outer, "kind": "gen_buchi",
                              "empty": True}, modes=[])

    modes = []
    for i in range(m):
        if relations[i].exists(model.input_vars) != win:
            raise SynthesisError("goal-anchored extraction lost part of the "
                                 "winning set")
        modes.append(Mode(relation=relations[i], goal=targets[i],
                          next_mode=(i + 1) % m))
    return Controller.of(model, modes[0].relation,
                         {"iterations": outer, "kind": "gen_buchi"}, modes=modes)
