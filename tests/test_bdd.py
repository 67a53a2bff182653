"""Engine correctness against an exhaustive truth-table oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ncsynth.bdd import Bdd, BddError, Manager
from ncsynth.synthesis import cpre

from conftest import build_explicit_ts
from oracles import (bdd_to_tt, random_game, tt_and, tt_count, tt_exists,
                     tt_forall, tt_mask, tt_not, tt_or, tt_to_codes, tt_xor)


def make(mgr, tt, n):
    return mgr.from_minterms(range(n), tt_to_codes(tt, n))


def fresh(n, **kw):
    m = Manager(**kw)
    m.add_vars(n)
    return m


class TestTrivialIdentities:
    def test_and_true_is_identity(self, mgr):
        mgr.add_vars(2)
        g = mgr.var(0) & mgr.var(1)
        assert mgr.apply("and", mgr.true, g) == g

    def test_xor_self_cancels(self, mgr):
        mgr.add_vars(3)
        f = (mgr.var(0) | mgr.var(2)) & mgr.var(1)
        assert (f ^ f).is_false

    def test_negate_true(self, mgr):
        assert (~mgr.true).is_false

    def test_negate_involution(self, mgr):
        mgr.add_vars(1)
        assert ~~mgr.var(0) == mgr.var(0)

    def test_exists_conjunction(self, mgr):
        mgr.add_vars(2)
        f = mgr.var(0) & mgr.var(1)
        assert f.exists([0]) == mgr.var(1)

    def test_forall_disjunction(self, mgr):
        mgr.add_vars(2)
        f = mgr.var(0) | mgr.var(1)
        assert f.forall([0]) == mgr.var(1)

    def test_rename_single(self, mgr):
        mgr.add_vars(4)
        assert mgr.var(0).rename({0: 3}) == mgr.var(3)

    def test_rename_identity(self, mgr):
        mgr.add_vars(3)
        f = mgr.var(0) ^ mgr.var(2)
        assert f.rename({0: 0, 2: 2}) == f

    def test_sat_count_true(self, mgr):
        mgr.add_vars(3)
        assert mgr.true.sat_count([0, 1, 2]) == 8

    def test_sat_count_cube(self, mgr):
        mgr.add_vars(2)
        assert (mgr.var(0) & mgr.var(1)).sat_count([0, 1]) == 1

    def test_cubes_false_empty(self, mgr):
        mgr.add_vars(2)
        assert list(mgr.false.cubes([0, 1])) == []

    def test_cubes_free_variable(self, mgr):
        mgr.add_vars(2)
        cubes = list(mgr.var(1).cubes([0, 1]))
        assert cubes == [(0, 1), (1, 1)]


class TestSpecExamples:
    def test_or_three_vars_truth_table(self):
        mgr = fresh(3)
        f = (mgr.var(0) & mgr.var(1)) | mgr.var(2)
        for bits in itertools.product((0, 1), repeat=3):
            a = dict(zip(range(3), bits))
            assert f.evaluate(a) == bool((bits[0] and bits[1]) or bits[2])


def test_exists_equals_or_of_cofactors():
    rng = random.Random(5)
    mgr = fresh(5)
    for _ in range(25):
        tt = rng.randrange(1 << 32)
        f = make(mgr, tt, 5)
        quant = f.exists([0, 1])
        expected = mgr.false
        for b0, b1 in itertools.product((0, 1), repeat=2):
            expected = expected | f.restrict({0: b0, 1: b1})
        assert quant == expected


@settings(max_examples=120, deadline=None)
@given(a=st.integers(0, tt_mask(6)), b=st.integers(0, tt_mask(6)))
def test_de_morgan(a, b):
    mgr = fresh(6)
    f, g = make(mgr, a, 6), make(mgr, b, 6)
    assert ~(f & g) == (~f | ~g)


@settings(max_examples=120, deadline=None)
@given(tt=st.integers(0, tt_mask(8)), data=st.data())
def test_rename_round_trip(tt, data):
    mgr = fresh(16)
    f = make(mgr, tt, 8)
    targets = data.draw(st.permutations(range(8, 16)))
    fwd = dict(zip(range(8), targets))
    back = {t: s for s, t in fwd.items()}
    assert f.rename(fwd).rename(back) == f


@settings(max_examples=60, deadline=None)
@given(tt=st.integers(0, tt_mask(6)), data=st.data())
def test_rename_pointwise_semantics(tt, data):
    mgr = fresh(6)
    f = make(mgr, tt, 6)
    perm = data.draw(st.permutations(range(6)))
    g = f.rename(dict(zip(range(6), perm)))
    for code in range(64):
        bits = [(code >> (5 - i)) & 1 for i in range(6)]
        assert (g.evaluate({perm[i]: bits[i] for i in range(6)})
                == f.evaluate({i: bits[i] for i in range(6)}))


@settings(max_examples=120, deadline=None)
@given(a=st.integers(0, tt_mask(6)), b=st.integers(0, tt_mask(6)))
def test_sat_count_additivity(a, b):
    mgr = fresh(6)
    f, g = make(mgr, a, 6), make(mgr, b, 6)
    sup = range(6)
    assert ((f | g).sat_count(sup) + (f & g).sat_count(sup)
            == f.sat_count(sup) + g.sat_count(sup))


@settings(max_examples=100, deadline=None)
@given(a=st.integers(0, tt_mask(5)), b=st.integers(0, tt_mask(5)))
def test_canonicity_equal_iff_same_function(a, b):
    mgr = fresh(5)
    f, g = make(mgr, a, 5), make(mgr, b, 5)
    assert (f == g) == (a == b)


class TestOracleAgreement:
    """Exhaustive on <= 4 variables, randomized above."""

    def test_exhaustive_small(self):
        n = 2
        mgr = fresh(n)
        full = tt_mask(n)
        for a in range(full + 1):
            f = make(mgr, a, n)
            assert bdd_to_tt(f, range(n)) == a
            assert bdd_to_tt(~f, range(n)) == tt_not(a, n)
            for b in range(full + 1):
                g = make(mgr, b, n)
                assert bdd_to_tt(f & g, range(n)) == tt_and(a, b)
                assert bdd_to_tt(f | g, range(n)) == tt_or(a, b)
                assert bdd_to_tt(f ^ g, range(n)) == tt_xor(a, b)

    def test_exhaustive_quantifiers_3vars(self):
        n = 3
        mgr = fresh(n)
        for a in range(tt_mask(n) + 1):
            f = make(mgr, a, n)
            for p in range(n):
                assert (bdd_to_tt(f.exists([p]), range(n))
                        == tt_exists(a, n, p))
                assert (bdd_to_tt(f.forall([p]), range(n))
                        == tt_forall(a, n, p))

    def test_randomized_8vars(self):
        rng = random.Random(99)
        n = 8
        mgr = fresh(n)
        for _ in range(300):
            a = rng.randrange(tt_mask(n) + 1)
            b = rng.randrange(tt_mask(n) + 1)
            f, g = make(mgr, a, n), make(mgr, b, n)
            assert bdd_to_tt(f & g, range(n)) == tt_and(a, b)
            assert bdd_to_tt(f | g, range(n)) == tt_or(a, b)
            assert bdd_to_tt(f ^ g, range(n)) == tt_xor(a, b)
            assert bdd_to_tt(~f, range(n)) == tt_not(a, n)
            p = rng.randrange(n)
            assert bdd_to_tt(f.exists([p]), range(n)) == tt_exists(a, n, p)
            assert f.sat_count(range(n)) == tt_count(a)


def test_cache_transparency():
    rng = random.Random(3)
    plain = fresh(6, cache_enabled=False)
    cached = fresh(6)
    for _ in range(40):
        a = rng.randrange(tt_mask(6) + 1)
        b = rng.randrange(tt_mask(6) + 1)
        for m in (plain, cached):
            f, g = make(m, a, 6), make(m, b, 6)
            r = (f & g) ^ f.exists([1, 4])
            assert bdd_to_tt(r, range(6)) == tt_xor(
                tt_and(a, b), tt_exists(tt_exists(a, 6, 1), 6, 4))


def test_exist_and_matches_two_step():
    rng = random.Random(17)
    mgr = fresh(8)
    for _ in range(60):
        a = rng.randrange(tt_mask(8) + 1)
        b = rng.randrange(tt_mask(8) + 1)
        f, g = make(mgr, a, 8), make(mgr, b, 8)
        vars = sorted(rng.sample(range(8), rng.randint(1, 4)))
        assert mgr.exist_and(f, g, vars) == (f & g).exists(vars)


def _operand_pool(rng, n, k):
    """Truth tables of k random functions plus the shapes that reach the
    kernels' terminal cases: constants, a literal, and a function next to
    its complement."""
    a = rng.randrange(tt_mask(n) + 1)
    pool = [0, tt_mask(n), tt_mask(n) >> (1 << (n - 1)), a, tt_not(a, n)]
    return pool + [rng.randrange(tt_mask(n) + 1) for _ in range(k)]


@pytest.mark.parametrize("cache_enabled", [False, True])
def test_forall_or_and_ite_match_oracle(cache_enabled):
    rng = random.Random(41)
    n = 6
    mgr = fresh(n, cache_enabled=cache_enabled)
    pool = _operand_pool(rng, n, 12)
    for _ in range(150):
        a, b, c = (rng.choice(pool) for _ in range(3))
        f, g, h = (make(mgr, t, n) for t in (a, b, c))
        vars = rng.sample(range(n), rng.randint(0, n))
        want = tt_or(a, b)
        for p in vars:
            want = tt_forall(want, n, p)
        assert bdd_to_tt(mgr.forall_or(f, g, vars), range(n)) == want
        want = tt_and(a, b)
        for p in vars:
            want = tt_exists(want, n, p)
        assert bdd_to_tt(mgr.exist_and(f, g, vars), range(n)) == want
        assert bdd_to_tt(mgr.ite(f, g, h), range(n)) == tt_or(
            tt_and(a, b), tt_and(tt_not(a, n), c))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cpre_matches_negated_relational_product(seed):
    rng = random.Random(seed)
    states, inputs, trans = random_game(rng, 24, 3)
    mgr = Manager()
    ts = build_explicit_ts(mgr, len(states), len(inputs), trans)
    Z, within = mgr.false, mgr.false
    for x in states:
        for u in inputs:
            pair = ts.pre_set.cell_cube((x,)) & ts.input_set.cell_cube((u,))
            if rng.random() < 0.6:
                Z = Z | pair
            if rng.random() < 0.7:
                within = within | pair
    # cpre before the dual form, kept as the reference
    nonblocking = ts.trans.exists(ts.post_vars)
    proj_post = Z.exists(ts.input_vars).rename(ts.pre_to_post)
    escapes = mgr.exist_and(ts.trans, ~proj_post, ts.post_vars)
    reference = nonblocking & ~escapes
    assert cpre(ts, Z) == reference
    assert cpre(ts, Z, nonblocking & within) == reference & within


def test_from_minterms_matches_cube_fold():
    rng = random.Random(23)
    mgr = fresh(6)
    for _ in range(30):
        codes = rng.sample(range(64), rng.randint(0, 20))
        direct = mgr.from_minterms(range(6), codes)
        folded = mgr.false
        for c in codes:
            folded = folded | mgr.cube({v: (c >> (5 - v)) & 1 for v in range(6)})
        assert direct == folded


def test_enumeration_count_cross_check():
    rng = random.Random(7)
    mgr = fresh(7)
    for _ in range(20):
        tt = rng.randrange(tt_mask(7) + 1)
        f = make(mgr, tt, 7)
        cubes = list(f.cubes(range(7)))
        assert len(cubes) == f.sat_count(range(7))
        assert len(set(cubes)) == len(cubes)
        assert cubes == sorted(cubes)


class TestErrors:
    def test_manager_mismatch(self):
        a, b = fresh(1), fresh(1)
        with pytest.raises(BddError):
            a.apply("and", a.var(0), b.var(0))

    def test_quantify_out_of_range(self, mgr):
        mgr.add_vars(2)
        with pytest.raises(BddError):
            mgr.var(0).exists([5])

    def test_rename_non_injective(self, mgr):
        mgr.add_vars(3)
        with pytest.raises(BddError):
            mgr.var(0).rename({0: 2, 1: 2})

    def test_support_too_small(self, mgr):
        mgr.add_vars(3)
        f = mgr.var(0) & mgr.var(2)
        with pytest.raises(BddError):
            f.sat_count([0, 1])


def test_garbage_collection_keeps_pinned():
    mgr = fresh(8, gc_threshold=64)
    keep = make(mgr, 0x12345678ABCDEF11, 6)
    tt = bdd_to_tt(keep, range(6))
    rng = random.Random(0)
    for _ in range(50):
        make(mgr, rng.randrange(tt_mask(6) + 1), 6)
    mgr.collect()
    assert bdd_to_tt(keep, range(6)) == tt
    assert mgr.node_count() <= 80


def test_sweep_counts_computed_table_entries():
    # f reads the even variables only, so quantifying odd ones returns f:
    # every such operation fills the computed tables and makes no node
    budget = 1000
    mgr = fresh(16, gc_threshold=budget)
    evens, odds = list(range(0, 16, 2)), list(range(1, 16, 2))
    tt = random.Random(8).randrange(tt_mask(8) + 1)
    f = mgr.from_minterms(evens, tt_to_codes(tt, 8))
    sweeps = []
    sweep = mgr.collect

    def counted():
        sweeps.append(mgr.node_count())
        sweep()

    mgr.collect = counted
    for k in range(1, 5):
        for vars in itertools.combinations(odds, k):
            assert f.exists(vars) == f
            assert f.forall(vars) == f
    assert sweeps
    assert max(sweeps) < budget
    assert bdd_to_tt(f, evens) == tt


def test_explicit_pin_survives_collection():
    mgr = fresh(6)
    f = make(mgr, 0xDEADBEEF, 5)
    tt = bdd_to_tt(f, range(5))
    mgr.pin(f)
    ref = f.ref
    del f
    mgr.collect()
    back = Bdd(mgr, ref)
    assert bdd_to_tt(back, range(5)) == tt
    mgr.unpin(back)


def test_rename_swap_blocks():
    mgr = fresh(4)
    f = mgr.var(0) & ~mgr.var(2)
    swapped = f.rename({0: 2, 2: 0})
    assert swapped == (mgr.var(2) & ~mgr.var(0))
