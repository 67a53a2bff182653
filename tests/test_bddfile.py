import random
import struct

import pytest

from ncsynth.bdd import Manager
from ncsynth.bddfile import BddFileError, canonical_meta_bytes, load, save
from ncsynth.cli import main

from oracles import bdd_to_tt, tt_mask


def test_round_trip_constants(tmp_path):
    mgr = Manager(var_count=3)
    meta = {"tau": 0.5, "note": "constant"}
    p = tmp_path / "t.bdd"
    save(mgr.true, meta, p)
    back, meta2 = load(p)
    assert back.is_true
    assert meta2 == meta


def test_round_trip_thousand_node_function(tmp_path):
    rng = random.Random(11)
    mgr = Manager(var_count=13)
    codes = rng.sample(range(1 << 13), 3000)
    f = mgr.from_minterms(range(13), codes)
    assert mgr.node_count() >= 1000
    p = tmp_path / "big.bdd"
    save(f, {"k": 1}, p)
    back, _ = load(p)
    assert bdd_to_tt(back, range(13)) == bdd_to_tt(f, range(13))
    # canonical store: reloading into a fresh manager reproduces the same
    # node count
    assert back.mgr.node_count() == mgr.node_count()


def test_meta_survives_byte_for_byte(tmp_path):
    meta = {"tau": 0.25, "eta": [1.0, 0.5], "bounds": {"lb": [0, -1], "ub": [64, 1]},
            "roles": ["pre", "post"]}
    mgr = Manager(var_count=2)
    p = tmp_path / "m.bdd"
    save(mgr.var(1), meta, p)
    _, meta2 = load(p)
    assert canonical_meta_bytes(meta2) == canonical_meta_bytes(meta)
    assert meta2 == meta


def test_load_into_existing_manager(tmp_path):
    mgr = Manager(var_count=4)
    f = mgr.var(0) ^ mgr.var(3)
    p = tmp_path / "x.bdd"
    save(f, {}, p)
    back, _ = load(p, manager=mgr)
    assert back == f


def test_bad_magic(tmp_path):
    p = tmp_path / "junk.bdd"
    p.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(BddFileError, match="magic"):
        load(p)


def test_version_mismatch(tmp_path):
    mgr = Manager(var_count=1)
    p = tmp_path / "v.bdd"
    save(mgr.var(0), {}, p)
    raw = bytearray(p.read_bytes())
    raw[4:6] = struct.pack("<H", 9)
    p.write_bytes(bytes(raw))
    with pytest.raises(BddFileError, match="version"):
        load(p)


def test_truncation_detected(tmp_path):
    mgr = Manager(var_count=6)
    f = mgr.var(0) & mgr.var(5) | mgr.var(2)
    p = tmp_path / "t.bdd"
    save(f, {"a": 1}, p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-5])
    with pytest.raises(BddFileError, match="truncated"):
        load(p)


def test_trailing_garbage_detected(tmp_path):
    mgr = Manager(var_count=1)
    p = tmp_path / "g.bdd"
    save(mgr.var(0), {}, p)
    p.write_bytes(p.read_bytes() + b"zz")
    with pytest.raises(BddFileError, match="trailing"):
        load(p)


def test_hundred_random_round_trips(tmp_path):
    rng = random.Random(2024)
    for i in range(100):
        n = rng.randint(1, 8)
        mgr = Manager(var_count=n)
        tt = rng.randrange(tt_mask(n) + 1)
        codes = [k for k in range(1 << n) if (tt >> k) & 1]
        f = mgr.from_minterms(range(n), codes)
        meta = {"case": i, "tau": rng.random(), "eta": [rng.random()]}
        p = tmp_path / f"r{i}.bdd"
        save(f, meta, p)
        back, meta2 = load(p)
        assert bdd_to_tt(back, range(n)) == tt
        assert meta2 == meta
        assert canonical_meta_bytes(meta2) == canonical_meta_bytes(meta)


def test_child_above_its_parent_refused(tmp_path, capsys):
    # node 1 on variable 1 has node 0, on variable 0, as its lo child: read
    # as given, it would be var0 | var1 as a function but not as a ref
    meta = canonical_meta_bytes({})
    raw = (b"SNSB" + struct.pack("<HI", 1, len(meta)) + meta
           + struct.pack("<IQ", 2, 2)
           + struct.pack("<IQQ", 0, 0, 1) + struct.pack("<IQQ", 1, 2, 1)
           + struct.pack("<Q", 3))
    p = tmp_path / "order.bdd"
    p.write_bytes(raw)
    with pytest.raises(BddFileError, match=r"order\.bdd: node 1 "):
        load(p)
    assert main(["dump", str(p)]) == 2
    assert "node 1" in capsys.readouterr().err


def _raw_file(meta, var_count, nodes, root):
    """The bytes of a BDD file with these fields, checked by nothing."""
    return (b"SNSB" + struct.pack("<HI", 1, len(meta)) + meta
            + struct.pack("<IQ", var_count, len(nodes))
            + b"".join(struct.pack("<IQQ", *node) for node in nodes)
            + struct.pack("<Q", root))


@pytest.mark.parametrize("meta", [b"{not json", b"\xff\xfe"])
def test_corrupt_metadata_refused(tmp_path, meta):
    p = tmp_path / "meta.bdd"
    p.write_bytes(_raw_file(meta, 1, [(0, 0, 1)], 2))
    with pytest.raises(BddFileError, match="corrupt metadata"):
        load(p)


def test_node_variable_outside_the_declared_count_refused(tmp_path):
    p = tmp_path / "var.bdd"
    p.write_bytes(_raw_file(b"{}", 2, [(2, 0, 1)], 2))
    with pytest.raises(BddFileError, match="node 0 references variable 2 "
                                           "outside declared count 2"):
        load(p)


@pytest.mark.parametrize("node", [(0, 2, 1), (0, 0, 3)])
def test_child_id_not_below_its_node_refused(tmp_path, node):
    # node 0 gets id 2: a child id of 2 or more is itself or a later node
    p = tmp_path / "child.bdd"
    p.write_bytes(_raw_file(b"{}", 1, [node], 2))
    with pytest.raises(BddFileError, match="node 0 is not in topological "
                                           "order"):
        load(p)


def test_root_id_out_of_range_refused(tmp_path):
    p = tmp_path / "root.bdd"
    p.write_bytes(_raw_file(b"{}", 1, [(0, 0, 1)], 3))
    with pytest.raises(BddFileError, match="root id 3 out of range"):
        load(p)
    # ids 0 and 1 are the terminals, 2 the one node
    p.write_bytes(_raw_file(b"{}", 1, [(0, 0, 1)], 2))
    f, meta = load(p)
    assert meta == {} and f.support() == {0}
