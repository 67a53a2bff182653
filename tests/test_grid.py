import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ncsynth.bdd import Manager
from ncsynth.grid import (OutOfDomainError, SymbolicSet, UniformGrid,
                          read_code, write_code)


def unit_grid():
    return UniformGrid(lb=(0.0,), ub=(64.0,), eta=(1.0,))


class TestQuantizer:
    def test_exact_lattice_point(self):
        assert unit_grid().point_to_symbol((10.0,)) == (10,)

    def test_rounding_rule(self):
        g = unit_grid()
        assert g.point_to_symbol((10.49,)) == (10,)
        assert g.point_to_symbol((10.51,)) == (11,)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            unit_grid().point_to_symbol((65.0,))

    def test_edge_clamping_within_half_cell(self):
        g = unit_grid()
        assert g.point_to_symbol((-0.4,)) == (0,)
        assert g.point_to_symbol((64.4,)) == (64,)

    def test_planar_arena_size_and_bits(self):
        g = UniformGrid(lb=(0.0, 0.0), ub=(64.0, 64.0), eta=(1.0, 1.0))
        assert g.npoints == (65, 65)
        assert g.size() == 65 * 65 == 4225
        assert g.bits == (7, 7)

    def test_decode_endpoints(self):
        g = unit_grid()
        assert g.center((0,)) == (0.0,)
        assert g.center((64,)) == (64.0,)


def planar_set(lb=0.0, ub=15.0):
    mgr = Manager()
    grid = UniformGrid(lb=(lb, lb), ub=(ub, ub), eta=(1.0, 1.0))
    ids = []
    for b in grid.bits:
        ids.append(tuple(mgr.add_vars(b)))
    return SymbolicSet(mgr, grid, ids)


class TestSymbolicSet:
    def test_add_box_whole_domain(self):
        s = planar_set()
        full = s.add_box((0.0, 0.0), (15.0, 15.0))
        assert full.chi == s.domain()
        assert full.count() == 16 * 16

    def test_add_box_two_by_two(self):
        s = planar_set()
        boxed = s.add_box((2.0, 2.0), (3.0, 3.0))
        assert boxed.count() == 4
        assert sorted(boxed.indices()) == [(2, 2), (2, 3), (3, 2), (3, 3)]

    def test_add_box_idempotent(self):
        s = planar_set().add_box((1.0, 5.0), (4.0, 9.0))
        again = s.add_box((1.0, 5.0), (4.0, 9.0))
        assert again.chi == s.chi

    def test_add_box_outside_warns_and_keeps(self):
        s = planar_set()
        with pytest.warns(UserWarning):
            out = s.add_box((40.0, 40.0), (50.0, 50.0))
        assert out.chi.is_false

    def test_unused_codes_never_appear(self):
        # 65 points use 7 bits; codes 65..127 must stay excluded
        mgr = Manager()
        grid = UniformGrid(lb=(0.0,), ub=(64.0,), eta=(1.0,))
        s = SymbolicSet(mgr, grid, [tuple(mgr.add_vars(7))])
        full = s.add_box((0.0,), (64.0,))
        assert full.count() == 65
        for bits in mgr.cubes(full.chi, s.support):
            s.decode_index(bits)  # raises if out of range

    def test_decode_of_index_zero_is_lb(self):
        s = planar_set(lb=-3.0, ub=4.0)
        assert s.grid.center((0, 0)) == (-3.0, -3.0)

    def test_encode_decode_round_trip(self):
        s = planar_set()
        for idx in [(0, 0), (3, 11), (15, 15), (7, 0)]:
            cube = s.cell_cube(idx)
            bits = next(iter(s.mgr.cubes(cube, s.support)))
            assert s.decode_index(bits) == idx
            center = s.grid.center(idx)
            assert s.grid.point_to_symbol(center) == idx


@settings(max_examples=60, deadline=None)
@given(a0=st.integers(0, 15), a1=st.integers(0, 15),
       b0=st.integers(0, 15), b1=st.integers(0, 15),
       grow=st.integers(0, 4))
def test_add_box_monotone(a0, a1, b0, b1, grow):
    lo = (min(a0, b0), min(a1, b1))
    hi = (max(a0, b0), max(a1, b1))
    big_lo = (max(lo[0] - grow, 0), max(lo[1] - grow, 0))
    big_hi = (min(hi[0] + grow, 15), min(hi[1] + grow, 15))
    s = planar_set()
    small = s.add_box(tuple(map(float, lo)), tuple(map(float, hi)))
    big = s.add_box(tuple(map(float, big_lo)), tuple(map(float, big_hi)))
    assert (small.chi & ~big.chi).is_false


def test_box_index_ranges_clip():
    g = UniformGrid(lb=(0.0,), ub=(9.0,), eta=(1.0,))
    assert g.box_index_ranges((-5.0,), (3.2,)) == [(0, 3)]
    assert g.box_index_ranges((8.0,), (30.0,)) == [(8, 9)]
    assert g.box_index_ranges((20.0,), (30.0,)) is None


@st.composite
def grids(draw, max_dim):
    """Unit-spaced grids of 1 to max_dim dimensions, 1 to 9 points each."""
    npoints = draw(st.lists(st.integers(1, 9), min_size=1, max_size=max_dim))
    lb = draw(st.lists(st.integers(-5, 5), min_size=len(npoints),
                       max_size=len(npoints)))
    return UniformGrid(lb=tuple(map(float, lb)),
                       ub=tuple(float(a + n - 1) for a, n in zip(lb, npoints)),
                       eta=(1.0,) * len(npoints))


class TestCellCodec:
    @settings(max_examples=200, deadline=None)
    @given(grid=grids(3))
    @example(grid=UniformGrid(lb=(0.0, 0.0, 0.0), ub=(1.0, 3.0, 7.0),
                              eta=(1.0, 1.0, 1.0)))
    def test_pack_unpack_round_trip(self, grid):
        codes = [grid.pack(idx) for idx in grid.indices()]
        # every cell once, in ascending code order, within total_bits
        assert codes == sorted(set(codes)) and len(codes) == grid.size()
        assert all(0 <= c < 1 << grid.total_bits for c in codes)
        for idx, code in zip(grid.indices(), codes):
            assert grid.unpack(code) == idx
            # dimension 0 in the low bits, bits[d] bits for dimension d
            assert code == sum(i << sum(grid.bits[:d])
                               for d, i in enumerate(idx))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_index_to_variables_and_back(self, data):
        grid = data.draw(grids(3))
        mgr = Manager(var_count=3 * grid.total_bits)
        ids = data.draw(st.permutations(range(mgr.var_count)))
        fields, off = [], 0
        for b in grid.bits:
            fields.append(tuple(ids[off:off + b]))
            off += b
        s = SymbolicSet(mgr, grid, fields)
        assert grid.fields(s.block) == s.var_ids
        idx = data.draw(st.tuples(*(st.integers(0, n - 1)
                                    for n in grid.npoints)))
        a = s.assignment(idx)
        assert read_code(a, s.block) == grid.pack(idx)
        # least significant bit first within each dimension's variables
        for ids_d, i in zip(s.var_ids, idx):
            assert [a[v] for v in ids_d] == [(i >> k) & 1
                                             for k in range(len(ids_d))]
        assert s.decode_index(a) == idx
        bits = next(iter(mgr.cubes(s.cell_cube(idx), s.support)))
        assert s.decode_index(bits) == idx

    @settings(max_examples=50, deadline=None)
    @given(code=st.integers(0, 255), block=st.permutations(range(8)))
    def test_code_on_a_block(self, code, block):
        a = write_code({}, block, code)
        assert read_code(a, block) == code
        assert a[block[0]] == code & 1

    def test_out_of_range_index_rejected(self):
        g = UniformGrid(lb=(0.0, 0.0), ub=(4.0, 2.0), eta=(1.0, 1.0))
        with pytest.raises(ValueError):
            g.pack((5, 0))
        with pytest.raises(ValueError):
            g.pack((0, -1))
        with pytest.raises(ValueError):
            planar_set().cell_cube((16, 0))
