"""Binary on-disk format for BDDs plus a JSON metadata block.

Layout (little-endian):

    magic   4 bytes  b"SNSB"
    version u16      1
    meta    u32 length, then UTF-8 JSON (canonical: sorted keys, compact)
    vars    u32      variable count of the owning manager
    nodes   u64      internal node count
            node_count entries of (u32 var, u64 lo, u64 hi), children
            before parents, each child on a variable below its parent's
            (a greater index); entry i gets id i + 2 (ids 0/1 are the
            FALSE/TRUE terminals)
    root    u64      id of the root (0 or 1 for constant functions)

Metadata carries whatever the producing stage wants downstream tools to
know: sampling period, grid bounds and quantization widths, bits per
dimension, variable roles.  The block is stored canonically so identical
dicts serialize to identical bytes.
"""

from __future__ import annotations

import json
import struct

from .bdd import Bdd, Manager

MAGIC = b"SNSB"
VERSION = 1

_NODE = struct.Struct("<IQQ")


class BddFileError(Exception):
    """Corrupt, truncated, or incompatible BDD file."""


def canonical_meta_bytes(meta):
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def node_order(mgr, refs):
    """`mgr.postorder(refs)` with the ids of this format.  Returns (order,
    ids), where ids maps a node to its id (order[i] gets i + 2) and the
    FALSE/TRUE terminals to 0/1."""
    order = mgr.postorder(refs)
    return order, dict(zip([0, 1] + order, range(len(order) + 2)))


def save(bdd, meta, path):
    """Write one function and its metadata; bit-exact round trip."""
    if not isinstance(bdd, Bdd):
        raise BddFileError("save expects a Bdd")
    mgr = bdd.mgr
    meta_bytes = canonical_meta_bytes(meta if meta is not None else {})
    order, ids = node_order(mgr, [bdd.ref])
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", mgr.var_count))
        fh.write(struct.pack("<Q", len(order)))
        for ref in order:
            var, lo, hi = mgr._nodes[ref]
            fh.write(_NODE.pack(var, ids[lo], ids[hi]))
        fh.write(struct.pack("<Q", ids[bdd.ref]))


def load(path, manager=None):
    """Read a file back; returns (Bdd, meta).

    A fresh manager is created unless one is supplied; a supplied manager
    is grown if it declares fewer variables than the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    view = memoryview(data)
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(data):
            raise BddFileError(f"{path}: truncated file")
        chunk = view[off:off + n]
        off += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise BddFileError(f"{path}: bad magic, not a BDD file")
    (version,) = struct.unpack("<H", take(2))
    if version != VERSION:
        raise BddFileError(f"{path}: unsupported version {version} (expected {VERSION})")
    (meta_len,) = struct.unpack("<I", take(4))
    meta_raw = bytes(take(meta_len))
    try:
        meta = json.loads(meta_raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BddFileError(f"{path}: corrupt metadata block: {exc}") from None
    (var_count,) = struct.unpack("<I", take(4))
    (node_count,) = struct.unpack("<Q", take(8))

    if manager is None:
        manager = Manager(var_count=var_count)
    elif manager.var_count < var_count:
        manager.add_vars(var_count - manager.var_count)

    refs = [0, 1]
    levels = [var_count, var_count]     # variable of each id, terminals last
    for i in range(node_count):
        var, lo, hi = _NODE.unpack(take(_NODE.size))
        if var >= var_count:
            raise BddFileError(f"{path}: node {i} references variable {var} "
                               f"outside declared count {var_count}")
        if lo >= i + 2 or hi >= i + 2:
            raise BddFileError(f"{path}: node {i} is not in topological order")
        if levels[lo] <= var or levels[hi] <= var:
            raise BddFileError(f"{path}: node {i} on variable {var} has a "
                               f"child on a variable not below it")
        refs.append(manager._make(var, refs[lo], refs[hi]))
        levels.append(var)
    (root_id,) = struct.unpack("<Q", take(8))
    if root_id >= len(refs):
        raise BddFileError(f"{path}: root id {root_id} out of range")
    if off != len(data):
        raise BddFileError(f"{path}: {len(data) - off} trailing bytes")
    return Bdd(manager, refs[root_id]), meta
