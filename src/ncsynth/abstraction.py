"""Finite transition-system abstraction of a sampled plant.

Each (cell, input) pair gets as successors every cell whose interior
overlaps the box [x' - r', x' + r'], where x' is the integrated cell
center and r' the grown cell radius.  Pairs whose successor box is not
contained in the gridded domain are blocking: leaving the domain is
treated like hitting an obstacle, so no partial successor sets are kept.

Variable layout of the produced system: input bits first, then state
bits with pre and post interleaved per bit (pre_j, post_j adjacent).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from functools import cached_property

from .bdd import Bdd, Manager
from .grid import SymbolicSet, slot_blocks
from .plants import growth_radius, integrate

_FUZZ = 1e-9


class SymbolicModel:
    """The members that the plant model and the expanded model derive alike
    from their mgr, trans, pre_vars, input_vars, post_vars, pre_to_post,
    state_domain and input_domain.

    The game predicates are computed from `trans` once, on first use, so
    a model's relation must not change once it is built.
    """

    @property
    def all_vars(self):
        return tuple(sorted(self.pre_vars + self.input_vars + self.post_vars))

    def n_transitions(self):
        return self.mgr.sat_count(self.trans, self.all_vars)

    def post_image(self, states):
        """Successors of a set of state-input pairs (or of states, every
        input allowed), over the pre-state variables."""
        quant = tuple(sorted(self.pre_vars + self.input_vars))
        back = {b: a for a, b in self.pre_to_post.items()}
        return self.mgr.exist_and(self.trans, states, quant).rename(back)

    @cached_property
    def valid_pairs(self):
        """Pairs of a valid state and a valid input."""
        return self.state_domain & self.input_domain

    @cached_property
    def nonblocking(self):
        """State-input pairs with at least one successor."""
        return self.trans.exists(self.post_vars)

    @cached_property
    def not_trans(self):
        return ~self.trans


@dataclasses.dataclass
class TransitionSystem(SymbolicModel):
    """Symbolic system (states, initial states, inputs, transitions).

    It shares its model protocol with the expanded model (`NcsModel`):
    state_grid, input_grid, anchor_set (the cells of the newest
    measurement, here the state itself), input_set (the controller
    output), bounds (None: no delay channels), state_registers (the
    state, one register "x"), state_columns, encode_state, encode_row and
    decode_row; the members derived from these come from `SymbolicModel`.
    """

    bounds = None

    mgr: Manager
    pre_set: SymbolicSet
    input_set: SymbolicSet
    post_set: SymbolicSet
    trans: Bdd
    initial: Bdd
    tau: float = 0.0
    name: str = "plant"

    def __post_init__(self):
        self.pre_vars = self.pre_set.support
        self.input_vars = self.input_set.support
        self.post_vars = self.post_set.support
        self.pre_to_post = {}
        for pre_ids, post_ids in zip(self.pre_set.var_ids, self.post_set.var_ids):
            for a, b in zip(pre_ids, post_ids):
                self.pre_to_post[a] = b
        self.state_domain = self.pre_set.domain()
        self.input_domain = self.input_set.domain()
        self.state_grid = self.pre_set.grid
        self.input_grid = self.input_set.grid
        self.anchor_set = self.pre_set
        self.state_registers = (("x", self.pre_set.block),)
        self.state_columns = tuple((f"x{d}", n) for d, n
                                   in enumerate(self.state_grid.npoints))

    def n_states(self):
        return self.pre_set.grid.size()

    def is_deterministic(self):
        """True iff every (pre, input) with a successor has exactly one."""
        return self.n_transitions() == self.mgr.sat_count(
            self.nonblocking, tuple(sorted(self.pre_vars + self.input_vars)))

    def transitions(self):
        """Iterate (pre index vector, input index vector, post index vector)."""
        sup = self.all_vars
        for bits in self.mgr.cubes(self.trans, sup):
            a = dict(zip(sup, bits))
            yield (self.pre_set.decode_index(a),
                   self.input_set.decode_index(a),
                   self.post_set.decode_index(a))

    def encode_state(self, xs, us):
        """Register-vector form of `encode_row`: a plant state is one state
        register and no input register."""
        if len(xs) != 1 or us:
            raise ValueError("register vectors have wrong length")
        return self.pre_set.assignment(xs[0])

    def encode_row(self, row):
        """Assignment of one flat state row (the state's index vector)."""
        return self.pre_set.assignment(row)

    def decode_row(self, assignment, which):
        """Index vector of the pre or post state of an assignment."""
        sset = self.pre_set if which == "pre" else self.post_set
        return sset.decode_index(assignment)


def plant_system(mgr, state_grid, input_grid, ids, trans, tau, name):
    """Plant system whose sets cover their whole grids and whose initial
    states are all cells; ids holds the per-dimension variable ids of the
    (input, pre, post) sets."""
    input_set, pre_set, post_set = (
        SymbolicSet(mgr, grid, var_ids).full()
        for grid, var_ids in zip((input_grid, state_grid, state_grid), ids))
    return TransitionSystem(mgr=mgr, pre_set=pre_set, input_set=input_set,
                            post_set=post_set, trans=trans,
                            initial=pre_set.chi, tau=tau, name=name)


def allocate_layout(mgr, state_grid, input_grid):
    """Reserve variables: input block, then interleaved pre/post state bits.
    Returns the per-dimension variable ids of the input, pre and post
    sets."""
    blocks, end = slot_blocks(
        [("input",), ("pre", "post")],
        lambda key: (input_grid if key == "input" else state_grid).total_bits,
        mgr.var_count)
    mgr.add_vars(end - mgr.var_count)
    return tuple(list(grid.fields(blocks[key])) for grid, key in
                 ((input_grid, "input"), (state_grid, "pre"),
                  (state_grid, "post")))


def _post_cell_ranges(grid, center, radius):
    """Cells whose interior overlaps [center-radius, center+radius]; None if
    the box pokes outside the domain (blocking) or selects nothing."""
    ranges = []
    for d in range(grid.dim):
        lo = center[d] - radius[d]
        hi = center[d] + radius[d]
        half = grid.eta[d] / 2
        # strict overlap: cell i spans (i*eta+lb-half, i*eta+lb+half)
        a = int(math.floor((lo - grid.lb[d]) / grid.eta[d] + 0.5))
        if grid.lb[d] + a * grid.eta[d] + half <= lo + _FUZZ * grid.eta[d]:
            a += 1
        b = int(math.ceil((hi - grid.lb[d]) / grid.eta[d] - 0.5))
        if grid.lb[d] + b * grid.eta[d] - half >= hi - _FUZZ * grid.eta[d]:
            b -= 1
        if a > b:
            return None
        if a < 0 or b > grid.npoints[d] - 1:
            return None
        ranges.append((a, b))
    return ranges


def build_abstraction(spec, state_grid, input_grid):
    """Construct the plant's symbolic model over fresh variables."""
    if spec.dim != state_grid.dim:
        raise ValueError(f"plant dimension {spec.dim} != state grid dimension "
                         f"{state_grid.dim}")
    if spec.input_dim != input_grid.dim:
        raise ValueError(f"plant input dimension {spec.input_dim} != input "
                         f"grid dimension {input_grid.dim}")
    mgr = Manager()
    ids = allocate_layout(mgr, state_grid, input_grid)
    ts = plant_system(mgr, state_grid, input_grid, ids, mgr.false, spec.tau,
                      spec.name)

    support = sorted(ts.input_vars + ts.pre_vars + ts.post_vars)
    width = len(support)
    shift = {v: width - 1 - i for i, v in enumerate(support)}

    def minterms(sset):
        # from_minterms takes support[0] as the most significant code bit
        return {idx: sum(bit << shift[v] for v, bit in sset.assignment(idx).items())
                for idx in sset.grid.indices()}

    post_codes = minterms(ts.post_set)
    inputs = [(input_grid.center(idx), code)
              for idx, code in minterms(ts.input_set).items()]
    radius = tuple(e / 2 for e in state_grid.eta)
    codes = []
    for pre_idx, pre_code in minterms(ts.pre_set).items():
        x = state_grid.center(pre_idx)
        for u, u_code in inputs:
            xp = integrate(spec, x, u)
            rp = growth_radius(spec, radius, u)
            ranges = _post_cell_ranges(state_grid, xp, rp)
            if ranges is None:
                continue
            head = pre_code | u_code
            for post_idx in itertools.product(*(range(a, b + 1)
                                                for a, b in ranges)):
                codes.append(head | post_codes[post_idx])
    return dataclasses.replace(ts, trans=mgr.from_minterms(support, codes))


def remove_region(ts, region):
    """Drop every transition entering or leaving the region."""
    if region.grid != ts.pre_set.grid:
        raise ValueError("region must live on the system's state grid")
    mask_pre = region.chi
    if region.var_ids != ts.pre_set.var_ids:
        raise ValueError("region must use the system's pre variables")
    mask_post = mask_pre.rename(ts.pre_to_post)
    return dataclasses.replace(ts, trans=ts.trans & ~mask_pre & ~mask_post)
