"""Uniform quantization of continuous spaces and its binary encoding.

A grid covers [lb, ub] per dimension with cells of width eta centered on
lattice points lb + i*eta; both endpoint cells are included, so dimension
d has floor((ub-lb)/eta) + 1 points.  Cell membership everywhere in this
package is by cell-center inclusion.

The cell codec lives here and nowhere else.  A cell's packed code holds
dimension 0 in the low bits and grid.bits[d] bits for dimension d
(`UniformGrid.pack` / `unpack`); a code sits on a block of BDD variables
least significant bit first (`write_code` / `read_code`).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

from .bdd import BddError

_FUZZ = 1e-9


class OutOfDomainError(Exception):
    """A continuous point falls outside the quantized domain."""


@dataclass(frozen=True)
class UniformGrid:
    lb: tuple
    ub: tuple
    eta: tuple

    def __post_init__(self):
        lb = tuple(float(v) for v in self.lb)
        ub = tuple(float(v) for v in self.ub)
        eta = tuple(float(v) for v in self.eta)
        if not (len(lb) == len(ub) == len(eta)) or not lb:
            raise ValueError("lb, ub, eta must be nonempty and equally long")
        for d, (a, b, e) in enumerate(zip(lb, ub, eta)):
            if e <= 0:
                raise ValueError(f"eta[{d}] must be positive")
            if a > b:
                raise ValueError(f"lb[{d}] > ub[{d}]")
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)
        object.__setattr__(self, "eta", eta)

    @property
    def dim(self):
        return len(self.lb)

    @cached_property
    def npoints(self):
        return tuple(int(math.floor((b - a) / e + _FUZZ)) + 1
                     for a, b, e in zip(self.lb, self.ub, self.eta))

    @cached_property
    def bits(self):
        return tuple(max(1, (n - 1).bit_length()) if n > 1 else 0
                     for n in self.npoints)

    @cached_property
    def offsets(self):
        """Position of each dimension's lowest bit in the packed code."""
        return tuple(itertools.accumulate(self.bits[:-1], initial=0))

    @property
    def total_bits(self):
        return sum(self.bits)

    def size(self):
        n = 1
        for k in self.npoints:
            n *= k
        return n

    def point_to_symbol(self, x):
        """Quantize a point to its per-dimension index vector.

        Ties at cell boundaries round up (half-up rule).
        """
        x = tuple(float(v) for v in x)
        if len(x) != self.dim:
            raise ValueError(f"point has dimension {len(x)}, grid has {self.dim}")
        idx = []
        for d, (v, a, b, e, n) in enumerate(
                zip(x, self.lb, self.ub, self.eta, self.npoints)):
            if v < a - e / 2 - _FUZZ or v > b + e / 2 + _FUZZ:
                raise OutOfDomainError(
                    f"coordinate {d}: {v} outside [{a - e / 2}, {b + e / 2}]")
            i = int(math.floor((v - a) / e + 0.5))
            idx.append(min(max(i, 0), n - 1))
        return tuple(idx)

    def center(self, idx):
        """Cell center of an index vector."""
        if len(idx) != self.dim:
            raise ValueError("index vector has wrong dimension")
        for d, (i, n) in enumerate(zip(idx, self.npoints)):
            if not (0 <= i < n):
                raise ValueError(f"index {i} out of range for dimension {d}")
        return tuple(a + i * e for i, a, e in zip(idx, self.lb, self.eta))

    def pack(self, idx):
        """Packed code of an index vector."""
        if len(idx) != self.dim:
            raise ValueError("index vector has wrong dimension")
        code = 0
        for d, (i, n, off) in enumerate(zip(idx, self.npoints, self.offsets)):
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for dimension {d}")
            code |= i << off
        return code

    def unpack(self, code):
        """Index vector of a packed code."""
        return tuple((code >> off) & ((1 << b) - 1)
                     for off, b in zip(self.offsets, self.bits))

    def fields(self, block):
        """Split a variable block holding a packed code into per-dimension
        variable tuples, least significant bit first."""
        return tuple(tuple(block[off:off + b])
                     for off, b in zip(self.offsets, self.bits))

    def indices(self):
        """All index vectors in ascending packed-code order."""
        for idx in itertools.product(*map(range, reversed(self.npoints))):
            yield idx[::-1]

    def box_index_ranges(self, lo, hi):
        """Per-dimension index interval of cells whose centers lie in [lo, hi],
        clipped to the grid; None when empty in some dimension."""
        if len(lo) != self.dim or len(hi) != self.dim:
            raise ValueError("box has wrong dimension")
        ranges = []
        for d in range(self.dim):
            if lo[d] > hi[d]:
                raise ValueError(f"box dimension {d} has lo > hi")
            a = math.ceil((lo[d] - self.lb[d]) / self.eta[d] - _FUZZ)
            b = math.floor((hi[d] - self.lb[d]) / self.eta[d] + _FUZZ)
            a = max(a, 0)
            b = min(b, self.npoints[d] - 1)
            if a > b:
                return None
            ranges.append((a, b))
        return ranges


def write_code(assignment, block, code):
    """Set the variables of `block` to `code`, least significant bit first;
    returns the assignment."""
    for k, v in enumerate(block):
        assignment[v] = (code >> k) & 1
    return assignment


def read_code(assignment, block):
    """The code that `block` holds under an assignment {var: bit}."""
    code = 0
    for k, v in enumerate(block):
        code |= (assignment[v] & 1) << k
    return code


def slot_blocks(slots, width, start=0):
    """Variable blocks of a slot order, numbered from `start`.

    `slots` lists groups of block keys, top first; a group's blocks, each
    `width(first key)` bits wide, share one contiguous slot with their
    bits interleaved (bit 0 of each block, then bit 1, ...).  Returns
    ({key: tuple of variable ids}, the next free id).
    """
    blocks = {}
    for group in slots:
        n = len(group)
        end = start + n * width(group[0])
        for i, key in enumerate(group):
            blocks[key] = tuple(range(start + i, end, n))
        start = end
    return blocks, start


def _bit_reverse(value, width):
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def dim_interval(mgr, var_ids, a, b):
    """BDD over one dimension's bit variables (LSB first) for a <= index <= b."""
    m = len(var_ids)
    if m == 0:
        return mgr.true if a <= 0 <= b else mgr.false
    codes = [_bit_reverse(i, m) for i in range(a, b + 1)]
    # from_minterms treats the lowest variable as the most significant code
    # bit; reversing each index compensates, since LSB-first var ids are
    # allocated in ascending order
    return mgr.from_minterms(sorted(var_ids), codes)


class SymbolicSet:
    """A grid plus a characteristic function over its bit variables.

    var_ids holds one list of BDD variable indices per dimension, least
    significant bit first; their concatenation, `block`, holds a cell's
    packed code.  Value semantics: mutators return new sets.
    """

    def __init__(self, mgr, grid, var_ids, chi=None):
        if len(var_ids) != grid.dim:
            raise ValueError("var_ids must have one entry per dimension")
        for d, (ids, b) in enumerate(zip(var_ids, grid.bits)):
            if len(ids) != b:
                raise ValueError(f"dimension {d} needs {b} bit variables, got {len(ids)}")
        self.mgr = mgr
        self.grid = grid
        self.var_ids = tuple(tuple(ids) for ids in var_ids)
        self.block = tuple(v for ids in self.var_ids for v in ids)
        self.chi = chi if chi is not None else mgr.false

    @property
    def support(self):
        return tuple(sorted(v for ids in self.var_ids for v in ids))

    def domain(self):
        """Characteristic function of all in-range codes."""
        d = self.mgr.true
        for ids, n in zip(self.var_ids, self.grid.npoints):
            d = d & dim_interval(self.mgr, ids, 0, n - 1)
        return d

    def full(self):
        """Copy covering the whole grid."""
        return SymbolicSet(self.mgr, self.grid, self.var_ids, self.domain())

    def empty(self):
        return SymbolicSet(self.mgr, self.grid, self.var_ids, self.mgr.false)

    def add_box(self, lo, hi):
        """Union with all cells whose centers lie in the box [lo, hi]."""
        ranges = self.grid.box_index_ranges(lo, hi)
        if ranges is None:
            warnings.warn("box does not intersect the grid; set unchanged",
                          stacklevel=2)
            return SymbolicSet(self.mgr, self.grid, self.var_ids, self.chi)
        box = self.mgr.true
        for ids, (a, b) in zip(self.var_ids, ranges):
            box = box & dim_interval(self.mgr, ids, a, b)
        return SymbolicSet(self.mgr, self.grid, self.var_ids, self.chi | box)

    def add_boxes(self, boxes):
        s = self
        for lo, hi in boxes:
            s = s.add_box(lo, hi)
        return s

    def assignment(self, idx):
        """Assignment {var: bit} of one cell's index vector."""
        return write_code({}, self.block, self.grid.pack(idx))

    def cell_cube(self, idx):
        """Cube BDD selecting exactly one cell."""
        return self.mgr.cube(self.assignment(idx))

    def decode_index(self, assignment):
        """Index vector of a satisfying assignment ({var: bit} or a bit
        tuple aligned with self.support)."""
        if not isinstance(assignment, dict):
            sup = self.support
            if len(assignment) != len(sup):
                raise ValueError("bit tuple does not match support width")
            assignment = dict(zip(sup, assignment))
        try:
            idx = self.grid.unpack(read_code(assignment, self.block))
        except KeyError as exc:
            raise BddError(f"assignment misses variable {exc.args[0]}") from None
        for d, (i, n) in enumerate(zip(idx, self.grid.npoints)):
            if i >= n:
                raise ValueError(f"assignment decodes outside the grid "
                                 f"(dimension {d}: {i} >= {n})")
        return idx

    def contains_index(self, idx):
        return self.mgr.evaluate(self.chi, self.assignment(idx))

    def contains_point(self, x):
        return self.contains_index(self.grid.point_to_symbol(x))

    def count(self):
        return self.mgr.sat_count(self.chi, self.support)

    def indices(self):
        """Iterate index vectors of all member cells."""
        for bits in self.mgr.cubes(self.chi, self.support):
            yield self.decode_index(bits)

    def with_chi(self, chi):
        return SymbolicSet(self.mgr, self.grid, self.var_ids, chi)
