import dataclasses
import math
import random

import pytest

from ncsynth.abstraction import build_abstraction, remove_region
from ncsynth.grid import SymbolicSet, UniformGrid
from ncsynth.plants import (EXACT, PlantSpec, double_integrator, growth_radius,
                            integrate, make_plant, robot)


class TestIntegrate:
    def test_velocity_plant_exact_step(self):
        p = robot(tau=1.0)
        assert integrate(p, (10.0, 10.0), (1.0, 0.0)) == (11.0, 10.0)

    def test_zero_input_fixed_point(self):
        p = robot(tau=1.0)
        assert integrate(p, (3.0, 4.0), (0.0, 0.0)) == (3.0, 4.0)

    def test_double_integrator_closed_form(self):
        p = double_integrator(tau=0.5)
        x = integrate(p, (0.0, 0.0), (1.0,))
        assert x == pytest.approx((0.125, 0.5))

    def test_rk4_matches_closed_form_on_di(self):
        p = double_integrator(tau=0.5)
        p_rk = PlantSpec(name="di_rk", dim=2, input_dim=1, rhs=p.rhs, tau=0.5,
                         growth=[[0.0, 1.0], [0.0, 0.0]])
        for x0 in [(-1.0, 2.0), (0.5, -0.25)]:
            for u in [(-1.0,), (0.0,), (2.0,)]:
                assert integrate(p_rk, x0, u) == pytest.approx(
                    integrate(p, x0, u), abs=1e-12)


class TestGrowthRadius:
    def test_zero_matrix_keeps_radius(self):
        p = PlantSpec(name="z", dim=2, input_dim=1,
                      rhs=lambda x, u: (0.0, 0.0), tau=0.5,
                      growth=[[0.0, 0.0], [0.0, 0.0]])
        assert growth_radius(p, (0.3, 0.7), (0.0,)) == pytest.approx((0.3, 0.7))

    def test_exact_mode_keeps_radius(self):
        p = robot(tau=2.0)
        assert growth_radius(p, (0.5, 0.5), (1.0, 1.0)) == (0.5, 0.5)

    def test_nilpotent_matrix_by_hand(self):
        # expm([[0,1],[0,0]] * 0.5) = [[1, 0.5], [0, 1]]
        p = PlantSpec(name="h", dim=2, input_dim=1,
                      rhs=lambda x, u: (x[1], u[0]), tau=0.5,
                      growth=[[0.0, 1.0], [0.0, 0.0]])
        assert growth_radius(p, (0.5, 0.5), (0.0,)) == pytest.approx((0.75, 0.5))

    def test_array_matrix_accepted(self):
        # the exact flag is compared only against a string
        np = pytest.importorskip("numpy")
        p = PlantSpec(name="h", dim=2, input_dim=1,
                      rhs=lambda x, u: (x[1], u[0]), tau=0.5,
                      growth=np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert growth_radius(p, (0.5, 0.5), (0.0,)) == pytest.approx((0.75, 0.5))

    def test_copied_matrix_plant_accepted(self):
        # dataclasses.replace re-runs the check on the stored array
        p = dataclasses.replace(double_integrator(), tau=0.25)
        assert not p.is_exact
        assert growth_radius(p, (0.5, 0.5), (0.0,)) == pytest.approx((0.625, 0.5))

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(ValueError):
            PlantSpec(name="bad", dim=2, input_dim=1,
                      rhs=lambda x, u: x, tau=1.0,
                      growth=[[0.0, -1.0], [0.0, 0.0]])


def small_arena(n=8):
    state = UniformGrid(lb=(0.0, 0.0), ub=(float(n), float(n)), eta=(1.0, 1.0))
    inputs = UniformGrid(lb=(-1.0, -1.0), ub=(1.0, 1.0), eta=(1.0, 1.0))
    return state, inputs


class TestBuildAbstraction:
    def test_frozen_plant_is_identity_relation(self):
        p = PlantSpec(name="still", dim=1, input_dim=1,
                      rhs=lambda x, u: (0.0,), tau=1.0, growth=EXACT,
                      exact_step=lambda x, u, tau: x)
        state = UniformGrid(lb=(0.0,), ub=(3.0,), eta=(1.0,))
        inputs = UniformGrid(lb=(0.0,), ub=(0.0,), eta=(1.0,))
        ts = build_abstraction(p, state, inputs)
        assert ts.n_transitions() == 4
        assert sorted(ts.transitions()) == [((i,), (0,), (i,)) for i in range(4)]

    def test_drift_plant_blocks_at_boundary(self):
        p = PlantSpec(name="drift", dim=1, input_dim=1,
                      rhs=lambda x, u: (1.0,), tau=1.0, growth=EXACT,
                      exact_step=lambda x, u, tau: (x[0] + tau,))
        state = UniformGrid(lb=(0.0,), ub=(3.0,), eta=(1.0,))
        inputs = UniformGrid(lb=(0.0,), ub=(0.0,), eta=(1.0,))
        ts = build_abstraction(p, state, inputs)
        assert ts.n_transitions() == 3
        assert sorted(ts.transitions()) == [((i,), (0,), (i + 1,)) for i in range(3)]

    def test_velocity_plant_deterministic_and_blocking(self):
        state, inputs = small_arena()
        ts = build_abstraction(robot(tau=1.0), state, inputs)
        assert ts.is_deterministic()
        # one successor per in-range move; moves that exit the arena block
        per_dim = 8 + 9 + 8   # u=-1 from cells 1..8, u=0 everywhere, u=+1 from 0..7
        assert ts.n_transitions() == per_dim * per_dim
        # cell 0 with input -1 has no transition in either dimension
        pairs = ts.trans.exists(ts.post_vars)
        a = {}
        for ids, i in zip(ts.pre_set.var_ids, (0, 4)):
            for b, v in enumerate(ids):
                a[v] = (i >> b) & 1
        for ids, i in zip(ts.input_set.var_ids, (0, 1)):   # (-1, 0)
            for b, v in enumerate(ids):
                a[v] = (i >> b) & 1
        assert not pairs.evaluate(a)

    def test_transitions_imply_membership(self):
        state, inputs = small_arena(5)
        ts = build_abstraction(robot(tau=1.0), state, inputs)
        post_domain = ts.state_domain.rename(ts.pre_to_post)
        assert (ts.trans & ~ts.state_domain).is_false
        assert (ts.trans & ~ts.input_domain).is_false
        assert (ts.trans & ~post_domain).is_false

    def test_dimension_mismatch_rejected(self):
        state, inputs = small_arena()
        with pytest.raises(ValueError):
            build_abstraction(double_integrator(),
                              UniformGrid(lb=(0.0,), ub=(1.0,), eta=(1.0,)),
                              inputs)


class TestMonteCarloSoundness:
    def test_sampled_trajectories_stay_in_abstract_posts(self):
        rng = random.Random(42)
        state, inputs = small_arena(6)
        p = robot(tau=1.0)
        ts = build_abstraction(p, state, inputs)
        succ = {}
        for pre, u, post in ts.transitions():
            succ.setdefault((pre, u), set()).add(post)
        for _ in range(400):
            pre = (rng.randrange(7), rng.randrange(7))
            u_idx = (rng.randrange(3), rng.randrange(3))
            cx = state.center(pre)
            # sample strictly inside the cell
            x = tuple(c + (rng.random() - 0.5) * 0.98 for c in cx)
            u = inputs.center(u_idx)
            xp = integrate(p, x, u)
            try:
                cell = state.point_to_symbol(xp)
            except Exception:
                cell = None
            posts = succ.get((pre, u_idx))
            if posts is None:
                # blocked pair: the true successor must not be safely inside
                if cell is not None:
                    inside = all(0 <= v <= 6 for v in xp)
                    assert not inside or cell not in posts if posts else True
                continue
            assert cell in posts


class TestRemoveRegion:
    def build(self):
        state, inputs = small_arena(5)
        ts = build_abstraction(robot(tau=1.0), state, inputs)
        return ts

    def test_remove_empty_region_is_noop(self):
        ts = self.build()
        region = SymbolicSet(ts.mgr, ts.pre_set.grid, ts.pre_set.var_ids)
        assert remove_region(ts, region).trans == ts.trans

    def test_remove_everything_kills_relation(self):
        ts = self.build()
        region = ts.pre_set.full()
        assert remove_region(ts, region).trans.is_false

    def test_removed_cells_absent_from_both_roles(self):
        ts = self.build()
        region = ts.pre_set.empty().add_box((2.0, 2.0), (3.0, 3.0))
        out = remove_region(ts, region)
        hit_pre = out.trans & region.chi
        hit_post = out.trans & region.chi.rename(ts.pre_to_post)
        assert hit_pre.is_false and hit_post.is_false
        for pre, _, post in out.transitions():
            assert not (2 <= pre[0] <= 3 and 2 <= pre[1] <= 3)
            assert not (2 <= post[0] <= 3 and 2 <= post[1] <= 3)


def test_named_plants_smoke():
    for name in ("di", "robot", "jet", "dcdc", "vehicle", "pendulum", "two_robot"):
        p = make_plant(name)
        x = tuple(0.1 for _ in range(p.dim))
        u = tuple(1.0 for _ in range(p.input_dim))
        out = integrate(p, x, u)
        assert len(out) == p.dim
        assert all(math.isfinite(v) for v in out)
        r = growth_radius(p, tuple(0.5 for _ in range(p.dim)), u)
        assert all(v >= 0 for v in r)
