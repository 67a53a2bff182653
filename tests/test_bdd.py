"""Engine correctness against an exhaustive truth-table oracle."""

import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ncsynth.bdd import FALSE, TRUE, Bdd, BddError, Manager
from ncsynth.bddfile import load, save
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


def test_sweep_doubles_a_budget_that_live_nodes_fill():
    # 36 pinned single-variable nodes fill 90% of a budget of 40 entries;
    # each OR of two of them adds a node and a computed-table entry
    budget = 40
    mgr = fresh(36, gc_threshold=budget)
    keep = [mgr.var(i) for i in range(36)]
    sweeps = []     # live nodes after each sweep
    sweep = mgr.collect

    def counted():
        sweep()
        sweeps.append(mgr.node_count())

    mgr.collect = counted
    for i in range(20):
        assert (keep[i] | keep[i + 1]).support() == {i, i + 1}
        if not sweeps:
            continue
        # the one sweep kept the 36 live nodes, more than 3/4 of the
        # budget, so it doubled the budget, and no operation after it
        # sweeps again
        assert sweeps == [36] and mgr._gc_threshold == 2 * budget
    assert len(sweeps) == 1 and mgr.node_count() > 36
    assert [f.support() for f in keep] == [{i} for i in range(36)]


def test_rename_swap_blocks():
    mgr = fresh(4)
    f = mgr.var(0) & ~mgr.var(2)
    swapped = f.rename({0: 2, 2: 0})
    assert swapped == (mgr.var(2) & ~mgr.var(0))


class TestReaderChecks:
    def test_import_map_misses_a_variable(self):
        src, dst = fresh(3), fresh(3)
        f = src.var(0) & src.var(2)
        with pytest.raises(BddError, match="variable 2 of source"):
            dst.import_function(f, {0: 0, 1: 1})

    @pytest.mark.parametrize("support", [
        (0, 1, 3, 5), (1, 2, 3, 5), (1, 3, 5, 6), (0, 1, 2, 3, 4, 5, 6)],
        ids=["gap_top", "gap_middle", "gap_bottom", "gaps_everywhere"])
    def test_sat_count_over_a_wider_support(self, support):
        rng = random.Random(13)
        mgr = fresh(7)
        pool = _operand_pool(rng, 3, 10)
        for tt in pool:
            f = mgr.from_minterms((1, 3, 5), tt_to_codes(tt, 3))
            assert f.sat_count(support) == tt_count(tt) << (len(support) - 3)


def test_deep_diagrams_need_no_recursion(tmp_path):
    # a chain of 1,500 variables is deeper than Python's default recursion
    # limit; the OR is built bottom up with _make, because `|` recurses
    n = 1500
    mgr = fresh(n)
    ref = FALSE
    for v in reversed(range(n)):
        ref = mgr._make(v, ref, TRUE)
    bits = {v: v % 2 for v in range(n)}
    for f, count in ((mgr.cube(bits), 1), (Bdd(mgr, ref), (1 << n) - 1)):
        assert f.support() == set(range(n))
        assert f.sat_count(range(n)) == count
        other = fresh(n)
        g = other.import_function(f, {v: v for v in range(n)})
        assert other.node_count() == n
        assert g.sat_count(range(n)) == count
        save(f, {}, tmp_path / "deep.bdd")
        back, _ = load(tmp_path / "deep.bdd", manager=other)
        assert back == g


def _run_every_keyed_operation(mgr, n, rng):
    """One of each operation whose computed table is keyed by an int, on
    random functions of n variables (mgr has 2n), each checked against the
    truth-table oracle: `&`, `|`, `exists`, `forall`, `exist_and`,
    `forall_or`, `ite` and `rename`, the last both onto fresh variables
    and as a permutation in place (which relabels through `ite`)."""
    pool = _operand_pool(rng, n, 8)
    for _ in range(40):
        a, b, c = (rng.choice(pool) for _ in range(3))
        f, g, h = (make(mgr, t, n) for t in (a, b, c))
        vars = rng.sample(range(n), rng.randint(1, n))
        assert bdd_to_tt(f & g, range(n)) == tt_and(a, b)
        assert bdd_to_tt(f | g, range(n)) == tt_or(a, b)
        assert bdd_to_tt(mgr.ite(f, g, h), range(n)) == tt_or(
            tt_and(a, b), tt_and(tt_not(a, n), c))
        some, every, product, dual = a, a, tt_and(a, b), tt_or(a, b)
        for p in vars:
            some, every = tt_exists(some, n, p), tt_forall(every, n, p)
            product, dual = tt_exists(product, n, p), tt_forall(dual, n, p)
        assert bdd_to_tt(f.exists(vars), range(n)) == some
        assert bdd_to_tt(f.forall(vars), range(n)) == every
        assert bdd_to_tt(mgr.exist_and(f, g, vars), range(n)) == product
        assert bdd_to_tt(mgr.forall_or(f, g, vars), range(n)) == dual
        shifted = f.rename({i: i + n for i in range(n)})
        assert bdd_to_tt(shifted, range(n, 2 * n)) == a
        perm = rng.sample(range(n), n)
        permuted = f.rename(dict(zip(range(n), perm)))
        for code in range(1 << n):
            bits = [(code >> (n - 1 - i)) & 1 for i in range(n)]
            assert (permuted.evaluate({perm[i]: bits[i] for i in range(n)})
                    == f.evaluate(dict(enumerate(bits))))


def test_int_keyed_tables_stay_out_of_the_cyclic_collector():
    # a dict of ints only is never tracked by CPython's cyclic collector;
    # one tuple key would make the table tracked, and every young
    # collection would then visit its entries
    mgr = fresh(12)
    _run_every_keyed_operation(mgr, 6, random.Random(61))
    int_keyed = [t for t in mgr._tables if t is not mgr._ite_cache]
    # and, or and negation, one exist_and and one forall_or table per
    # variable set, one table per rename map
    assert len(int_keyed) > 3 + 2 * 2 + 2
    assert all(len(t) for t in (mgr._and_cache, mgr._or_cache))
    assert any(len(t) for vs in mgr._varsets.values() for t in vs[:2])
    assert any(len(t) for t in mgr._maps.values())
    assert not any(gc.is_tracked(t) for t in int_keyed)


def test_huge_refs_keep_every_key_exact():
    # refs from 2**62 up: the pair key g * g + f is about 2**125, past any
    # fixed-width pairing, and must still tell every pair apart
    mgr = fresh(12)
    mgr._refs = itertools.count(2 ** 62)
    _run_every_keyed_operation(mgr, 6, random.Random(67))
    assert min(mgr._nodes) >= 2 ** 62
    assert mgr.table_entries() > 0


def test_uncached_manager_keeps_no_table_entries():
    mgr = fresh(12, cache_enabled=False)
    _run_every_keyed_operation(mgr, 6, random.Random(71))
    assert len(mgr._varsets) > 1 and len(mgr._maps) > 1
    own = [t for vs in mgr._varsets.values() for t in vs[:2]]
    own += mgr._maps.values()
    assert not any(map(len, own))
    assert sum(map(len, mgr._tables)) == 0


def test_collect_counts_its_sweeps():
    mgr = fresh(12)
    _run_every_keyed_operation(mgr, 6, random.Random(73))
    assert mgr.sweeps == 0 and mgr.table_entries() > 0
    mgr.collect()
    mgr.collect()
    assert mgr.sweeps == 2 and mgr.table_entries() == 0


def test_dropped_manager_is_freed_without_the_cyclic_collector():
    # the kernel's dual templates are class attributes, not closures over
    # a manager, and its self-calling walks leave no cycle behind, so a
    # manager and its functions go as soon as the last reference does
    enabled = gc.isenabled()
    gc.disable()
    try:
        mgr = fresh(12)
        _run_every_keyed_operation(mgr, 6, random.Random(79))
        # the oracle's own walk is a self-calling closure: its cyclic
        # garbage is cleared here, while `mgr` is still referenced
        gc.collect()
        f = mgr.from_minterms(range(6), [3, 9, 40])
        assert f.restrict({0: 0}).sat_count(range(6)) == 4
        assert len(list(f.cubes(range(6)))) == 3
        assert mgr.table_entries() > 0
        alive = weakref.ref(mgr)
        del mgr, f
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
