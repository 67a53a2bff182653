"""Expansion of a plant model into a networked-control-system model.

The expanded state stacks shift registers onto the plant state: one
register per sampling period of sensor-to-controller delay (holding past
state symbols, with a reserved marker for "no measurement yet" during
channel fill-up), one register per period of controller-to-actuator delay
(holding past controller outputs), and, when a channel's delay range is
not a singleton, registers recording the delay drawn for each in-flight
packet.  A transition shifts every register by one, requires the new head
state to be a plant successor of the old head under the oldest buffered
input, and lets fresh delay values range over their channel bounds.

Everything here is built from rename/apply/quantify steps on the plant's
transition relation; the element-by-element semantics only appears in the
test oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .bdd import Bdd, Manager
from .abstraction import SymbolicModel
from .grid import SymbolicSet, dim_interval, read_code, slot_blocks, write_code


@dataclass(frozen=True)
class DelayBounds:
    nsc_min: int
    nsc_max: int
    nca_min: int
    nca_max: int

    def __post_init__(self):
        for name in ("nsc", "nca"):
            lo = getattr(self, name + "_min")
            hi = getattr(self, name + "_max")
            if not (isinstance(lo, int) and isinstance(hi, int)):
                raise ValueError("delay bounds must be integers")
            if not (1 <= lo <= hi):
                raise ValueError(f"need 1 <= {name}_min <= {name}_max")

    @property
    def prolonged(self):
        return self.nsc_min == self.nsc_max and self.nca_min == self.nca_max

    @property
    def sc_range(self):
        return self.nsc_max - self.nsc_min + 1

    @property
    def ca_range(self):
        return self.nca_max - self.nca_min + 1


def _delay_bits(rng):
    return (rng - 1).bit_length() if rng > 1 else 0


def state_code_layout(grid):
    """(total code bits incl. marker flag, marker code, per-dim bit offsets).

    The no-measurement marker is the smallest binary code no grid cell
    uses; if every code is taken (all per-dimension point counts are
    powers of two) one extra flag bit is appended instead.
    """
    bits, offsets = grid.bits, grid.offsets
    total = grid.total_bits
    candidates = [grid.npoints[d] << offsets[d]
                  for d in range(grid.dim)
                  if grid.npoints[d] < (1 << bits[d])]
    if candidates:
        return total, min(candidates), offsets
    return total + 1, 1 << total, offsets


# version of the NcsLayout variable order, stamped into every expanded
# model and controller file; 1 was the former bit-major order
LAYOUT_VERSION = 2


def _shift_groups(name, n, head=()):
    """Time slots of a shift chain of n registers: `head` with post[0],
    then (pre[i], post[i+1]), then the oldest pre register alone."""
    return ([head + ((name, "post", 0),)]
            + [((name, "pre", i), (name, "post", i + 1)) for i in range(n - 1)]
            + [((name, "pre", n - 1),)])


class NcsLayout:
    """Variable positions for the expanded model, in time-slot order.

    Registers that one constraint of the transition relation links share a
    slot: a contiguous run of variables with their bits interleaved (bit 0
    of each block, then bit 1, ...).  From the top:

    - inputs: (label, u_post[0]), (u_pre[i], u_post[i+1]) for i < c-1,
      then u_pre[c-1], the input the plant step applies, right above it;
    - states: (x_pre[0], x_post[0], x_post[1]), (x_pre[i], x_post[i+1]),
      then x_pre[s-1];
    - sensor-to-controller, then controller-to-actuator delay registers,
      slotted like the inputs with post[0] (the fresh draw) alone.

    Each shift equality and each validity constraint then spans one slot,
    so the relation grows linearly with the delays.
    """

    def __init__(self, bounds, state_grid, input_grid):
        s = bounds.nsc_max
        c = bounds.nca_max
        ib = input_grid.total_bits
        sbq, marker, _ = state_code_layout(state_grid)
        self.s = s
        self.c = c
        self.state_bits = sbq
        self.marker_code = marker
        self.sc_range = bounds.sc_range
        self.ca_range = bounds.ca_range
        self.sc_bits = _delay_bits(bounds.sc_range)
        self.ca_bits = _delay_bits(bounds.ca_range)

        # the plant step links x_post[0] to x_pre[0]: they share a slot
        x = _shift_groups("x", s)
        states = [x[1][:1] + x[0] + x[1][1:]] + x[2:]
        groups = (_shift_groups("u", c, head=(("label", "pre", 0),)) + states
                  + _shift_groups("dsc", s) + _shift_groups("dca", c))
        width = {"label": ib, "u": ib, "x": sbq,
                 "dsc": self.sc_bits, "dca": self.ca_bits}
        blocks, self.var_count = slot_blocks(groups, lambda key: width[key[0]])

        def regs(name, which, n):
            return tuple(blocks[name, which, i] for i in range(n))

        self.label = blocks["label", "pre", 0]
        self.u_pre, self.u_post = regs("u", "pre", c), regs("u", "post", c)
        self.x_pre, self.x_post = regs("x", "pre", s), regs("x", "post", s)
        self.dsc_pre, self.dsc_post = regs("dsc", "pre", s), regs("dsc", "post", s)
        self.dca_pre, self.dca_post = regs("dca", "pre", c), regs("dca", "post", c)

        self.state_grid = state_grid
        self.input_grid = input_grid

    def registers(self, which):
        """(state, input, sc delay, ca delay) register blocks, "pre" or
        "post"."""
        if which == "pre":
            return self.x_pre, self.u_pre, self.dsc_pre, self.dca_pre
        return self.x_post, self.u_post, self.dsc_post, self.dca_post

    def named_registers(self, which):
        """(name, block) of every register, "pre" or "post": x1..xs,
        u1..uc, dsc1..dscs, dca1..dcac, 1 being the newest."""
        return [(f"{name}{r + 1}", block)
                for name, regs in zip(("x", "u", "dsc", "dca"),
                                      self.registers(which))
                for r, block in enumerate(regs)]

    def _vars(self, which):
        return tuple(sorted(v for regs in self.registers(which)
                            for reg in regs for v in reg))

    @property
    def pre_vars(self):
        return self._vars("pre")

    @property
    def post_vars(self):
        return self._vars("post")

    @property
    def pre_to_post(self):
        return {a: b for pre, post in zip(self.registers("pre"),
                                          self.registers("post"))
                for pre_reg, post_reg in zip(pre, post)
                for a, b in zip(pre_reg, post_reg)}


@dataclass
class NcsModel(SymbolicModel):
    """Expanded model over a layout.

    It shares its model protocol with the plant model
    (`TransitionSystem`): state_grid, input_grid, anchor_set (the cells of
    the newest state register, which goals and spec sets anchor on),
    input_set (the controller output, i.e. the label), bounds,
    state_registers, state_columns, encode_state, encode_row and
    decode_row; the members derived from these come from `SymbolicModel`.
    """

    mgr: Manager
    layout: NcsLayout
    bounds: DelayBounds
    trans: Bdd
    initial: Bdd
    base_name: str = "plant"
    tau: float = 0.0
    base_deterministic: bool = False

    def __post_init__(self):
        lay = self.layout
        self.pre_vars = lay.pre_vars
        self.post_vars = lay.post_vars
        self.input_vars = lay.label
        self.pre_to_post = lay.pre_to_post
        self.state_grid = lay.state_grid
        self.input_grid = lay.input_grid
        self.anchor_set = _block_set(self.mgr, lay.state_grid, lay.x_pre[0])
        self.input_set = _block_set(self.mgr, lay.input_grid, lay.label).full()
        self.state_domain = _state_domain(self.mgr, lay)
        self.input_domain = self.input_set.chi
        self.state_registers = tuple((name, block) for name, block
                                     in lay.named_registers("pre") if block)
        b = self.bounds
        self.state_columns = tuple(
            [(f"x{r + 1}_{d}", n) for r in range(lay.s)
             for d, n in enumerate(lay.state_grid.npoints)]
            + [(f"u{r + 1}_{d}", n) for r in range(lay.c)
               for d, n in enumerate(lay.input_grid.npoints)]
            + [(f"dsc{r + 1}", b.nsc_max + 1) for r in range(lay.s)]
            + [(f"dca{r + 1}", b.nca_max + 1) for r in range(lay.c)])

    def state_count(self):
        """Size of the expanded state set by the defining product formula."""
        b = self.bounds
        nx = self.state_grid.size()
        nu = self.input_grid.size()
        return ((nx + 1) ** b.nsc_max * nu ** b.nca_max
                * b.sc_range ** b.nsc_max * b.ca_range ** b.nca_max)

    def n_states_symbolic(self):
        return self.mgr.sat_count(self.state_domain, self.pre_vars)

    def n_initial(self):
        return self.mgr.sat_count(self.initial, self.pre_vars)

    # -- decoding ------------------------------------------------------

    def decode_state(self, assignment, which="pre"):
        """Decode one expanded state into
        (state regs, input regs, sc delays, ca delays); the no-measurement
        marker decodes to None."""
        lay = self.layout
        if not isinstance(assignment, dict):
            sup = self.pre_vars if which == "pre" else self.post_vars
            assignment = dict(zip(sup, assignment))
        xs, us, dsc, dca = ([read_code(assignment, reg) for reg in regs]
                            for regs in lay.registers(which))
        return (tuple(None if code == lay.marker_code
                      else self.state_grid.unpack(code) for code in xs),
                tuple(self.input_grid.unpack(code) for code in us),
                tuple(self.bounds.nsc_min + code for code in dsc),
                tuple(self.bounds.nca_min + code for code in dca))

    def decode_label(self, assignment):
        if not isinstance(assignment, dict):
            assignment = dict(zip(self.input_vars, assignment))
        return self.input_grid.unpack(read_code(assignment, self.layout.label))

    def encode_state(self, xs, us, dsc=None, dca=None):
        """Assignment dict for one expanded pre-state; None marks a state
        register with no measurement."""
        lay = self.layout
        b = self.bounds
        if len(xs) != lay.s or len(us) != lay.c:
            raise ValueError("register vectors have wrong length")
        if dsc is None:
            dsc = (b.nsc_max,) * lay.s
        if dca is None:
            dca = (b.nca_max,) * lay.c
        assignment = {}
        for reg, x in zip(lay.x_pre, xs):
            write_code(assignment, reg, lay.marker_code if x is None
                       else self.state_grid.pack(x))
        for reg, u in zip(lay.u_pre, us):
            write_code(assignment, reg, self.input_grid.pack(u))
        for reg, d in zip(lay.dsc_pre, dsc):
            write_code(assignment, reg, d - b.nsc_min)
        for reg, d in zip(lay.dca_pre, dca):
            write_code(assignment, reg, d - b.nca_min)
        return assignment

    # -- flat state rows (see state_columns) ---------------------------

    def encode_row(self, row):
        """Assignment of one flat state row; -1 in a state register's first
        column marks it as holding no measurement."""
        lay = self.layout
        n, m = self.state_grid.dim, self.input_grid.dim
        if len(row) != len(self.state_columns):
            raise ValueError(f"expanded state needs {len(self.state_columns)} "
                             f"integers, got {len(row)}")
        row = tuple(row)
        xs = [None if row[i] < 0 else row[i:i + n]
              for i in range(0, lay.s * n, n)]
        off = lay.s * n
        us = [row[i:i + m] for i in range(off, off + lay.c * m, m)]
        off += lay.c * m
        return self.encode_state(xs, us, row[off:off + lay.s],
                                 row[off + lay.s:])

    def decode_row(self, assignment, which):
        """Flat state row of the pre or post state of an assignment."""
        xs, us, dsc, dca = self.decode_state(assignment, which)
        row = []
        for x in xs:
            row.extend((-1,) * self.state_grid.dim if x is None else x)
        for u in us:
            row.extend(u)
        return tuple(row) + dsc + dca


def _block_set(mgr, grid, block):
    """The cell set of `grid` on a register block; a state block's marker
    flag bit, when it has one, lies past the grid's bits."""
    return SymbolicSet(mgr, grid, grid.fields(block))


def _reg_is_state(mgr, lay, block):
    """The state block holds a real (in-range, non-marker) state symbol."""
    r = _block_set(mgr, lay.state_grid, block).domain()
    if lay.state_bits > lay.state_grid.total_bits:
        r = r & ~mgr.var(block[-1])
    return r


def _reg_is_marker(mgr, lay, block):
    return mgr.cube(write_code({}, block, lay.marker_code))


def _input_valid(mgr, lay, block):
    return _block_set(mgr, lay.input_grid, block).domain()


def _delay_valid(mgr, block, rng):
    return dim_interval(mgr, block, 0, rng - 1)


def _state_domain(mgr, lay):
    d = mgr.true
    for block in lay.x_pre:
        d = d & (_reg_is_state(mgr, lay, block) | _reg_is_marker(mgr, lay, block))
    for block in lay.u_pre:
        d = d & _input_valid(mgr, lay, block)
    for block in lay.dsc_pre:
        d = d & _delay_valid(mgr, block, lay.sc_range)
    for block in lay.dca_pre:
        d = d & _delay_valid(mgr, block, lay.ca_range)
    return d


def expand(base, bounds):
    """Lift a plant model over delayed channels (pure BDD pipeline); the
    plant step always applies the oldest buffered input."""
    base_det = base.is_deterministic()
    if bounds.prolonged and not base_det:
        warnings.warn(
            "plant model is nondeterministic: the expanded model is still "
            "well defined, but controller refinement over prolonged delays "
            "requires a deterministic plant model", stacklevel=2)

    lay = NcsLayout(bounds, base.pre_set.grid, base.input_set.grid)
    mgr = Manager(var_count=lay.var_count)

    # the plant step on the newest state registers under the oldest input;
    # zip leaves out a state block's marker flag bit
    pairs = ((base.input_set, lay.u_pre[-1]),
             (base.pre_set, lay.x_pre[0]), (base.post_set, lay.x_post[0]))
    step = {v: t for sset, block in pairs for v, t in zip(sset.block, block)}
    rel = (mgr.import_function(base.trans, step)
           & _reg_is_state(mgr, lay, lay.x_pre[0])
           & _reg_is_state(mgr, lay, lay.x_post[0]))

    # every register shifts by one: post[i] holds what pre[i - 1] held
    rel = rel & mgr.equal_blocks(lay.u_post[0], lay.label)
    for pre, post in zip(lay.registers("pre"), lay.registers("post")):
        for dst, src in zip(post[1:], pre):
            rel = rel & mgr.equal_blocks(dst, src)
    rel = rel & _delay_valid(mgr, lay.dsc_post[0], bounds.sc_range)
    rel = rel & _delay_valid(mgr, lay.dca_post[0], bounds.ca_range)

    # membership of the source tuple and of the controller output
    rel = rel & _state_domain(mgr, lay) & _input_valid(mgr, lay, lay.label)

    init = mgr.import_function(base.initial,
                               dict(zip(base.pre_set.block, lay.x_pre[0])))
    init = init & _reg_is_state(mgr, lay, lay.x_pre[0])
    for block in lay.x_pre[1:]:
        init = init & _reg_is_marker(mgr, lay, block)
    init = init & _input_valid(mgr, lay, lay.u_pre[0])
    for newer, older in zip(lay.u_pre, lay.u_pre[1:]):
        init = init & mgr.equal_blocks(older, newer)
    for reg in lay.dsc_pre:
        init = init & mgr.cube(write_code({}, reg, bounds.sc_range - 1))
    for reg in lay.dca_pre:
        init = init & mgr.cube(write_code({}, reg, bounds.ca_range - 1))

    return NcsModel(mgr=mgr, layout=lay, bounds=bounds, trans=rel, initial=init,
                    base_name=base.name, tau=base.tau,
                    base_deterministic=base_det)


def expand_spec_set(sset, model):
    """Lift a predicate on the plant grid to the expanded state set by
    constraining the newest state register; all other registers range
    freely over their domains.  The no-measurement marker never satisfies
    the lifted predicate."""
    lay = model.layout
    block = lay.x_pre[0]
    lifted = model.mgr.import_function(sset.chi, dict(zip(sset.block, block)))
    return lifted & _reg_is_state(model.mgr, lay, block) & model.state_domain


def reachable(model):
    """Least fixed point of the forward image from the initial states."""
    r = model.initial
    while True:
        nxt = r | model.post_image(r)
        if nxt == r:
            return r
        r = nxt
