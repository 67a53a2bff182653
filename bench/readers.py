"""Readers for the pipeline's artifacts, written from the formats in the
README and sharing no code with ``ncsynth``.

- `BddFile`: the binary BDD format (magic, version, metadata, node
  records, root); node counts, evaluation and model counting.
- `Layout`: the expanded-state encoding rebuilt from an ``ncs.bdd``
  metadata block (grids, delays, variable roles).
- `Netlist`: the emitted Verilog module, one ternary ``assign`` per node.
- `read_trace_csv` / `read_trace_json`: the two trace files.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
from pathlib import Path

MAGIC = b"SNSB"
_NODE = struct.Struct("<IQQ")


class FormatError(Exception):
    """An artifact does not follow its documented format."""


class BddFile:
    """One BDD file: ``meta``, ``var_count``, ``nodes`` and ``root``.

    ``nodes[i]`` is the record ``(var, lo, hi)`` of id ``i + 2``; ids 0
    and 1 are the FALSE and TRUE terminals.  Loading checks that the
    diagram is ordered and reduced, as a canonical ROBDD must be.
    """

    def __init__(self, path):
        data = Path(path).read_bytes()
        self.path = str(path)
        if data[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic")
        (version,) = struct.unpack_from("<H", data, 4)
        if version != 1:
            raise FormatError(f"{path}: version {version}")
        (meta_len,) = struct.unpack_from("<I", data, 6)
        off = 10 + meta_len
        self.meta = json.loads(data[10:off].decode("utf-8"))
        self.var_count, node_count = struct.unpack_from("<IQ", data, off)
        off += 12
        end = off + node_count * _NODE.size
        if end + 8 != len(data):
            raise FormatError(f"{path}: {len(data)} bytes do not hold "
                              f"{node_count} nodes and a root")
        self.nodes = list(_NODE.iter_unpack(data[off:end]))
        (self.root,) = struct.unpack_from("<Q", data, end)
        self._check()

    def _check(self):
        seen = set()
        for i, node in enumerate(self.nodes):
            var, lo, hi = node
            if var >= self.var_count:
                raise FormatError(f"{self.path}: node {i + 2} has variable {var}")
            if lo >= i + 2 or hi >= i + 2:
                raise FormatError(f"{self.path}: node {i + 2} is not children-first")
            if lo == hi:
                raise FormatError(f"{self.path}: node {i + 2} is redundant")
            if self.var_of(lo) <= var or self.var_of(hi) <= var:
                raise FormatError(f"{self.path}: node {i + 2} breaks the order")
            if node in seen:
                raise FormatError(f"{self.path}: node {i + 2} is a duplicate")
            seen.add(node)
        if self.root >= len(self.nodes) + 2:
            raise FormatError(f"{self.path}: root {self.root} out of range")

    @property
    def node_count(self):
        return len(self.nodes)

    def var_of(self, ref):
        return self.nodes[ref - 2][0] if ref > 1 else self.var_count

    def value(self, bits):
        """Function value under ``bits``, a mapping from variable to 0/1
        that covers every variable on the evaluated path."""
        r = self.root
        nodes = self.nodes
        while r > 1:
            var, lo, hi = nodes[r - 2]
            r = hi if bits[var] else lo
        return r == 1

    def sat_count(self):
        """Satisfying assignments over all ``var_count`` variables."""
        counts = [0, 1]
        for var, lo, hi in self.nodes:
            counts.append((counts[lo] << (self.var_of(lo) - var - 1))
                          + (counts[hi] << (self.var_of(hi) - var - 1)))
        return counts[self.root] << self.var_of(self.root)


def grid_points(grid):
    """Points per dimension: floor((ub - lb) / eta) + 1."""
    return tuple(int(math.floor((b - a) / e + 1e-9)) + 1
                 for a, b, e in zip(grid["lb"], grid["ub"], grid["eta"]))


def grid_bits(npoints):
    return tuple((n - 1).bit_length() if n > 1 else 0 for n in npoints)


def quantize(grid, x):
    """Index vector of the cell whose center is nearest to ``x``
    (half-up ties)."""
    return tuple(int(math.floor((v - a) / e + 0.5 + 1e-9))
                 for v, a, e in zip(x, grid["lb"], grid["eta"]))


def center(grid, idx):
    return tuple(a + i * e for i, a, e in zip(idx, grid["lb"], grid["eta"]))


class Layout:
    """Encoding of expanded states, rebuilt from model metadata.

    A state register holds a cell as the packed code sum(i_d << off_d)
    (dimension 0 in the lowest bits) or the no-measurement marker, the
    smallest code no cell uses (one extra flag bit when every code is
    taken).  Input registers hold packed input codes, delay registers
    hold delay minus the channel minimum.  Register x1 / u1 is the
    newest.
    """

    def __init__(self, meta):
        self.state_grid = meta["state_grid"]
        self.input_grid = meta["input_grid"]
        d = meta["delays"]
        self.nsc_min, self.nsc_max = d["nsc_min"], d["nsc_max"]
        self.nca_min, self.nca_max = d["nca_min"], d["nca_max"]
        self.s, self.c = self.nsc_max, self.nca_max
        self.state_np = grid_points(self.state_grid)
        self.input_np = grid_points(self.input_grid)
        self.state_bits = grid_bits(self.state_np)
        self.input_bits = grid_bits(self.input_np)
        blocks = {}
        label = {}
        for r in meta["var_roles"]:
            if r["role"] == "input":
                label[r["bit"]] = r["var"]
            elif r["role"] == "pre":
                blocks.setdefault(r["block"], {})[r["bit"]] = r["var"]
        self.label = [label[b] for b in range(len(label))]
        self.blocks = {name: [bits[b] for b in range(len(bits))]
                       for name, bits in blocks.items()}
        self.pre_vars = sorted(v for bits in self.blocks.values() for v in bits)
        self.marker = self._marker()

    def _marker(self):
        total = sum(self.state_bits)
        for code in range(1 << total):
            if self.cell_of(code) is None:
                return code
        return 1 << total

    @staticmethod
    def _pack(idx, bits):
        code, off = 0, 0
        for i, b in zip(idx, bits):
            code |= i << off
            off += b
        return code

    @staticmethod
    def _unpack(code, bits):
        idx = []
        for b in bits:
            idx.append(code & ((1 << b) - 1))
            code >>= b
        return tuple(idx), code

    def cell_of(self, code):
        idx, rest = self._unpack(code, self.state_bits)
        if rest or any(i >= n for i, n in zip(idx, self.state_np)):
            return None
        return idx

    def _put(self, bits, block, value):
        for b, v in enumerate(self.blocks.get(block, ())):
            bits[v] = (value >> b) & 1

    def encode(self, xs, us, dsc=None, dca=None):
        """Pre-state bits for register contents; ``None`` in ``xs`` is the
        marker, absent delays default to the channel maxima."""
        bits = {}
        for i, x in enumerate(xs):
            code = self.marker if x is None else self._pack(x, self.state_bits)
            self._put(bits, f"x{i + 1}", code)
        for i, u in enumerate(us):
            self._put(bits, f"u{i + 1}", self._pack(u, self.input_bits))
        for i in range(self.s):
            n = dsc[i] if dsc else self.nsc_max
            self._put(bits, f"dsc{i + 1}", n - self.nsc_min)
        for i in range(self.c):
            n = dca[i] if dca else self.nca_max
            self._put(bits, f"dca{i + 1}", n - self.nca_min)
        return bits

    def with_label(self, bits, code):
        out = dict(bits)
        for b, v in enumerate(self.label):
            out[v] = (code >> b) & 1
        return out

    def packed(self, bits):
        """The packed state word of the emitted code: bit i is the i-th
        smallest pre-state variable."""
        word = 0
        for i, v in enumerate(self.pre_vars):
            word |= bits[v] << i
        return word

    def unpacked(self, word):
        return {v: (word >> i) & 1 for i, v in enumerate(self.pre_vars)}


_WIRE = re.compile(r"\s*assign (n\d+|u\[\d+\]|valid) = "
                   r"(?:state\[(\d+)\] \? (\S+) : (\S+)|(\S+));$")


class Netlist:
    """The emitted Verilog module, evaluated by walking its ternaries."""

    def __init__(self, text):
        self.nodes = {}
        self.outputs = {}
        self.state_width = None
        for line in text.splitlines():
            m = re.match(r"\s*input\s+wire \[(\d+):0\] state,", line)
            if m:
                self.state_width = int(m.group(1)) + 1
                continue
            m = _WIRE.match(line)
            if not m:
                continue
            name, sel, hi, lo, plain = m.groups()
            if name.startswith("n"):
                if name in self.nodes or sel is None:
                    raise FormatError(f"node {name} is not one ternary")
                self.nodes[name] = (int(sel), hi, lo)
            else:
                self.outputs[name] = plain
        if self.state_width is None or "valid" not in self.outputs:
            raise FormatError("module header or valid output missing")
        self.u_width = sum(1 for k in self.outputs if k.startswith("u["))

    def _eval(self, ref, word):
        while ref not in ("1'b0", "1'b1"):
            sel, hi, lo = self.nodes[ref]
            ref = hi if (word >> sel) & 1 else lo
        return ref == "1'b1"

    def evaluate(self, word):
        """(packed u, valid) for a packed state word."""
        u = 0
        for j in range(self.u_width):
            u |= self._eval(self.outputs[f"u[{j}]"], word) << j
        return u, self._eval(self.outputs["valid"], word)


def read_trace_json(path):
    with open(path) as fh:
        return json.load(fh)["records"]


def read_trace_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
