import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ncsynth import bddfile, synthesis
from ncsynth.bdd import Manager
from ncsynth.cli import _spec_sets, main
from ncsynth.config import RunConfig
from ncsynth.modelio import make_shell_ncs_model, save_controller
from ncsynth.synthesis import (Controller, SynthesisError, cpre,
                               solve_gen_buchi, solve_persistence,
                               solve_reach, solve_recurrence, solve_safety)

from conftest import build_explicit_ts, state_set_to_bdd
from oracles import (all_pairs, cpre_explicit, random_game,
                     solve_gen_buchi_explicit, solve_persistence_explicit,
                     solve_reach_explicit, solve_recurrence_explicit,
                     solve_safety_explicit)


def pairs_to_set(ts, Z):
    sup = tuple(sorted(ts.pre_vars + ts.input_vars))
    out = set()
    for bits in ts.mgr.cubes(Z, sup):
        a = dict(zip(sup, bits))
        out.add((ts.pre_set.decode_index(a)[0], ts.input_set.decode_index(a)[0]))
    return out


def domain_to_set(ts, dom):
    out = set()
    for bits in ts.mgr.cubes(dom, ts.pre_vars):
        a = dict(zip(ts.pre_vars, bits))
        out.add(ts.pre_set.decode_index(a)[0])
    return out


class TestCpre:
    def test_everything_gives_nonblocking_pairs(self):
        mgr = Manager()
        trans = {(0, 0): {1}, (1, 0): {0, 1}}   # (1,1) and (0,1) block
        ts = build_explicit_ts(mgr, 2, 2, trans)
        Z = ts.state_domain & ts.input_domain
        got = pairs_to_set(ts, cpre(ts, Z))
        assert got == {(0, 0), (1, 0)}

    def test_empty_gives_empty(self):
        mgr = Manager()
        ts = build_explicit_ts(mgr, 2, 2, {(0, 0): {1}})
        assert cpre(ts, mgr.false).is_false

    def test_straddling_pair_excluded(self):
        # nondeterministic pair with successors both inside and outside Z
        mgr = Manager()
        trans = {(0, 0): {1, 2}, (1, 0): {1}, (2, 0): {2}}
        ts = build_explicit_ts(mgr, 3, 1, trans)
        Z = state_set_to_bdd(ts, [1]) & ts.input_domain
        got = pairs_to_set(ts, cpre(ts, Z))
        assert got == {(1, 0)}
        exp = cpre_explicit([0, 1, 2], [0], trans, {(1, 0)})
        assert got == exp


class TestSafety:
    def test_all_safe_complete_model(self):
        mgr = Manager()
        trans = {(x, u): {(x + u) % 3} for x in range(3) for u in range(2)}
        ts = build_explicit_ts(mgr, 3, 2, trans)
        c = solve_safety(ts, ts.state_domain)
        assert pairs_to_set(ts, c.relation) == all_pairs([0, 1, 2], [0, 1])

    def test_empty_safe_set(self):
        mgr = Manager()
        ts = build_explicit_ts(mgr, 2, 1, {(0, 0): {0}})
        c = solve_safety(ts, mgr.false)
        assert c.is_empty

    def test_trap_state_excluded(self):
        # 3 is a trap with no exits; 2 is forced into it
        mgr = Manager()
        trans = {(0, 0): {0}, (0, 1): {1},
                 (1, 0): {0}, (1, 1): {2},
                 (2, 0): {3}, (2, 1): {3}}
        ts = build_explicit_ts(mgr, 4, 2, trans)
        safe = state_set_to_bdd(ts, [0, 1, 2, 3])
        c = solve_safety(ts, safe)
        dom = domain_to_set(ts, c.domain)
        exp = solve_safety_explicit(range(4), range(2), trans, {0, 1, 2, 3})
        assert dom == {x for x, _ in exp} == {0, 1}

    def test_safety_closure(self):
        rng = random.Random(8)
        for _ in range(20):
            states, inputs, trans = random_game(rng, 16, 3)
            safe = {x for x in states if rng.random() < 0.8}
            mgr = Manager()
            ts = build_explicit_ts(mgr, len(states), len(inputs), trans)
            c = solve_safety(ts, state_set_to_bdd(ts, safe))
            dom = domain_to_set(ts, c.domain)
            for x, u in pairs_to_set(ts, c.relation):
                assert x in safe
                assert trans[(x, u)], "controller kept a blocking pair"
                assert trans[(x, u)].issubset(dom)


class TestReach:
    def test_target_everything(self):
        mgr = Manager()
        trans = {(0, 0): {1}, (1, 0): {1}}
        ts = build_explicit_ts(mgr, 2, 1, trans)
        c = solve_reach(ts, ts.state_domain)
        assert domain_to_set(ts, c.domain) == {0, 1}
        assert pairs_to_set(ts, c.relation) == {(0, 0), (1, 0)}

    def test_unreachable_target_keeps_only_target(self):
        mgr = Manager()
        trans = {(0, 0): {0}}
        ts = build_explicit_ts(mgr, 3, 1, trans)
        c = solve_reach(ts, state_set_to_bdd(ts, [2]))
        assert domain_to_set(ts, c.domain) == {2}

    def test_chain_ranking_shortest_path(self):
        # chain 0 -> 1 -> ... -> 4 with a self-loop input everywhere
        mgr = Manager()
        trans = {}
        for x in range(5):
            trans[(x, 0)] = {min(x + 1, 4)}
            trans[(x, 1)] = {x}
        ts = build_explicit_ts(mgr, 5, 2, trans)
        c = solve_reach(ts, state_set_to_bdd(ts, [4]))
        rel = pairs_to_set(ts, c.relation)
        # away from the target only the advancing input is kept
        for x in range(4):
            assert (x, 0) in rel
            assert (x, 1) not in rel
        # at the target everything stays admissible
        assert (4, 0) in rel and (4, 1) in rel

    def test_ranking_progress(self):
        rng = random.Random(99)
        for _ in range(20):
            states, inputs, trans = random_game(rng, 20, 3)
            target = {x for x in states if rng.random() < 0.2}
            mgr = Manager()
            ts = build_explicit_ts(mgr, len(states), len(inputs), trans)
            c = solve_reach(ts, state_set_to_bdd(ts, target))
            rel = pairs_to_set(ts, c.relation)
            dom = {x for x, _ in rel}
            # rank = first iteration of membership, computed explicitly
            rank = {x: 0 for x in target}
            Z = {(x, u) for x in target for u in inputs}
            k = 0
            while True:
                k += 1
                step = cpre_explicit(states, inputs, trans, Z)
                nxt = Z | step
                if nxt == Z:
                    break
                for x, u in step:
                    rank.setdefault(x, k)
                Z = nxt
            for x, u in rel:
                if x in target:
                    continue
                assert all(rank[y] < rank[x] for y in trans[(x, u)])


class TestPersistence:
    def test_safe_all_on_complete_model(self):
        mgr = Manager()
        trans = {(x, u): {(x + u) % 3} for x in range(3) for u in range(2)}
        ts = build_explicit_ts(mgr, 3, 2, trans)
        c = solve_persistence(ts, ts.state_domain)
        s = solve_safety(ts, ts.state_domain)
        assert c.domain == s.domain

    def test_empty(self):
        mgr = Manager()
        ts = build_explicit_ts(mgr, 2, 1, {(0, 0): {0}})
        assert solve_persistence(ts, mgr.false).is_empty

    def test_reach_the_invariant_kernel(self):
        # safe = {0,1}: 1 loops inside, 0 is forced out, 2 can enter 1
        mgr = Manager()
        trans = {(0, 0): {2}, (1, 0): {1}, (2, 0): {1},
                 (0, 1): {2}, (1, 1): {2}, (2, 1): {2}}
        ts = build_explicit_ts(mgr, 3, 2, trans)
        safe = {0, 1}
        c = solve_persistence(ts, state_set_to_bdd(ts, safe))
        exp = solve_persistence_explicit([0, 1, 2], [0, 1], trans, safe)
        assert domain_to_set(ts, c.domain) == {x for x, _ in exp} == {0, 1, 2}

    def test_cpre_of_lower_layer_once_per_outer_iteration(self, monkeypatch):
        # 8-state walker: input 0 steps left (0 stays), 1 steps right (7
        # stays), 2 stays or steps right
        trans = {}
        for x in range(8):
            trans[x, 0] = {max(x - 1, 0)}
            trans[x, 1] = {min(x + 1, 7)}
            trans[x, 2] = {x, min(x + 1, 7)}
        ts = build_explicit_ts(Manager(), 8, 3, trans)
        calls = []
        real_cpre = synthesis.cpre

        def counted(*args):
            calls.append(args)
            return real_cpre(*args)

        monkeypatch.setattr(synthesis, "cpre", counted)
        safe = {5, 6, 7}
        c = solve_persistence(ts, state_set_to_bdd(ts, safe))
        stats = c.stats
        assert len(calls) == stats["inner_iterations"] + stats["iterations"] == 23
        exp = solve_persistence_explicit(list(range(8)), [0, 1, 2], trans, safe)
        assert domain_to_set(ts, c.domain) == {x for x, _ in exp}


class TestRecurrence:
    def test_target_all_nonblocking_forever(self):
        mgr = Manager()
        trans = {(0, 0): {1}, (1, 0): {0}}
        ts = build_explicit_ts(mgr, 3, 1, trans)   # state 2 blocks
        c = solve_recurrence(ts, ts.state_domain)
        assert domain_to_set(ts, c.domain) == {0, 1}

    def test_unreachable_target_empty(self):
        mgr = Manager()
        trans = {(0, 0): {0}}
        ts = build_explicit_ts(mgr, 2, 1, trans)
        assert solve_recurrence(ts, state_set_to_bdd(ts, [1])).is_empty

    def test_cycle_with_on_cycle_target(self):
        mgr = Manager()
        n = 6
        trans = {(x, 0): {(x + 1) % n} for x in range(n)}
        ts = build_explicit_ts(mgr, n, 1, trans)
        c = solve_recurrence(ts, state_set_to_bdd(ts, [3]))
        assert domain_to_set(ts, c.domain) == set(range(n))


class TestOracleAgreement:
    def test_random_games_all_solvers(self):
        rng = random.Random(12345)
        for _ in range(25):
            states, inputs, trans = random_game(rng, 24, 3)
            region = {x for x in states if rng.random() < 0.5}
            mgr = Manager()
            ts = build_explicit_ts(mgr, len(states), len(inputs), trans)
            chi = state_set_to_bdd(ts, region)
            got = {
                "safety": domain_to_set(ts, solve_safety(ts, chi).domain),
                "reach": domain_to_set(ts, solve_reach(ts, chi).domain),
                "persistence": domain_to_set(ts, solve_persistence(ts, chi).domain),
                "recurrence": domain_to_set(ts, solve_recurrence(ts, chi).domain),
            }
            exp = {
                "safety": solve_safety_explicit(states, inputs, trans, region),
                "reach": solve_reach_explicit(states, inputs, trans, region),
                "persistence": solve_persistence_explicit(states, inputs, trans, region),
                "recurrence": solve_recurrence_explicit(states, inputs, trans, region),
            }
            for kind in got:
                assert got[kind] == {x for x, _ in exp[kind]}, kind

    def test_cpre_monotone(self):
        rng = random.Random(5150)
        for _ in range(20):
            states, inputs, trans = random_game(rng, 12, 2)
            mgr = Manager()
            ts = build_explicit_ts(mgr, len(states), len(inputs), trans)
            small = {x for x in states if rng.random() < 0.3}
            big = small | {x for x in states if rng.random() < 0.4}
            z1 = state_set_to_bdd(ts, small) & ts.input_domain
            z2 = state_set_to_bdd(ts, big) & ts.input_domain
            assert (cpre(ts, z1) & ~cpre(ts, z2)).is_false


class TestGenBuchi:
    def test_single_target_reduces_to_recurrence(self):
        rng = random.Random(77)
        for _ in range(10):
            states, inputs, trans = random_game(rng, 16, 2)
            target = {x for x in states if rng.random() < 0.3}
            mgr = Manager()
            ts = build_explicit_ts(mgr, len(states), len(inputs), trans)
            chi = state_set_to_bdd(ts, target)
            gb = solve_gen_buchi(ts, [chi])
            rec = solve_recurrence(ts, chi)
            assert gb.domain == rec.domain

    def test_disjoint_unreachable_targets_empty(self):
        mgr = Manager()
        trans = {(0, 0): {0}}
        ts = build_explicit_ts(mgr, 3, 1, trans)
        c = solve_gen_buchi(ts, [state_set_to_bdd(ts, [1]),
                                 state_set_to_bdd(ts, [2])])
        assert c.is_empty
        assert c.stats.get("empty")

    def test_requires_a_target(self):
        mgr = Manager()
        ts = build_explicit_ts(mgr, 2, 1, {(0, 0): {0}})
        with pytest.raises(SynthesisError):
            solve_gen_buchi(ts, [])

    def two_room_toy(self):
        """8-state strip, rooms {0..3} and {4..7}, door between 3 and 4.

        input 0 moves left, input 1 moves right, input 2 stays."""
        trans = {}
        for x in range(8):
            trans[(x, 0)] = {max(x - 1, 0)}
            trans[(x, 1)] = {min(x + 1, 7)}
            trans[(x, 2)] = {x}
        return trans

    def test_two_room_alternation(self):
        trans = self.two_room_toy()
        mgr = Manager()
        ts = build_explicit_ts(mgr, 8, 3, trans)
        t1 = state_set_to_bdd(ts, [1])
        t2 = state_set_to_bdd(ts, [6])
        c = solve_gen_buchi(ts, [t1, t2])
        assert not c.is_empty
        assert len(c.modes) == 2
        assert domain_to_set(ts, c.domain) == set(range(8))
        exp = solve_gen_buchi_explicit(list(range(8)), [0, 1, 2], trans,
                                       [{1}, {6}])
        assert domain_to_set(ts, c.domain) == exp

        # closed-loop run on the graph: both rooms visited repeatedly
        x, mode = 0, 0
        visits = {1: 0, 6: 0}
        goals = {0: 1, 1: 6}
        for _ in range(50):
            a = {}
            for ids, i in zip(ts.pre_set.var_ids, (x,)):
                for b, v in enumerate(ids):
                    a[v] = (i >> b) & 1
            code = c.pick_input(a, c.modes[mode].relation)
            assert code is not None
            (x,) = iter(trans[(x, code)])
            if x in visits:
                visits[x] += 1
            if x == goals[mode]:
                mode = c.modes[mode].next_mode
        assert visits[1] >= 2 and visits[6] >= 2

    def test_obstacle_safety_respected(self):
        trans = self.two_room_toy()
        mgr = Manager()
        ts = build_explicit_ts(mgr, 8, 3, trans)
        safe = state_set_to_bdd(ts, [0, 1, 2, 3, 4, 5, 6])   # 7 is lava
        c = solve_gen_buchi(ts, [state_set_to_bdd(ts, [1]),
                                 state_set_to_bdd(ts, [6])], safe=safe)
        assert not c.is_empty
        assert 7 not in domain_to_set(ts, c.domain)
        exp = solve_gen_buchi_explicit(list(range(8)), [0, 1, 2], trans,
                                       [{1}, {6}], safe=set(range(7)))
        assert domain_to_set(ts, c.domain) == exp


def test_iteration_counts_reported():
    mgr = Manager()
    trans = {(x, 0): {min(x + 1, 4)} for x in range(5)}
    ts = build_explicit_ts(mgr, 5, 1, trans)
    c = solve_reach(ts, state_set_to_bdd(ts, [4]))
    assert c.stats["iterations"] >= 4
    assert c.stats["kind"] == "reach"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pick_input_is_smallest_admissible(data):
    # a random relation over state and input variables in a random
    # interleaving, probed at a random state
    n_state = data.draw(st.integers(1, 5))
    n_input = data.draw(st.integers(0, 4))
    n = n_state + n_input
    order = data.draw(st.permutations(range(n)))
    input_vars = tuple(sorted(order[:n_input]))
    pre_vars = tuple(sorted(order[n_input:]))
    mgr = Manager(var_count=n)
    codes = data.draw(st.sets(st.integers(0, (1 << n) - 1)))
    ctrl = Controller(relation=mgr.from_minterms(range(n), codes),
                      pre_vars=pre_vars, input_vars=input_vars)
    state = data.draw(st.integers(0, (1 << n_state) - 1))
    a = {v: (state >> i) & 1 for i, v in enumerate(pre_vars)}
    admissible = ctrl.admissible_inputs(a)
    assert ctrl.pick_input(a) == (min(admissible) if admissible else None)


@st.composite
def explicit_games(draw, max_states=10, max_inputs=3):
    """A random explicit game: (state count, input count, successor
    sets), where a pair without successors blocks."""
    n = draw(st.integers(1, max_states))
    m = draw(st.integers(1, max_inputs))
    trans = {}
    for x in range(n):
        for u in range(m):
            succs = draw(st.sets(st.integers(0, n - 1), max_size=3))
            if succs:
                trans[(x, u)] = succs
    return n, m, trans


def _pair_layers(model, target_pairs, within=None, collect=True):
    """Reach layers on the pair set Z, as `_reach_fixpoint` ran them
    before it ran on the winning states: the reference for its results."""
    allowed = model.nonblocking
    Z = target_pairs
    if within is not None:
        allowed = allowed & within
        Z = Z & within
    relation = Z
    domain = Z.exists(model.input_vars)
    iterations = 0
    while True:
        step = cpre(model, Z, allowed)
        nxt = Z | step
        iterations += 1
        if nxt == Z:
            break
        if collect:
            relation = relation | (step & ~domain)
            domain = nxt.exists(model.input_vars)
        Z = nxt
    return (Z, Z.exists(model.input_vars), relation if collect else Z,
            iterations)


class TestStateLayers:
    @settings(max_examples=200, deadline=None)
    @given(explicit_games(), st.data())
    def test_cpre_reads_only_the_state_projection(self, game, data):
        n, m, trans = game
        ts = build_explicit_ts(Manager(), n, m, trans)
        pairs = st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)))

        def pair_set(ps):
            f = ts.mgr.false
            for x, u in ps:
                f = f | (ts.pre_set.cell_cube((x,)) & ts.input_set.cell_cube((u,)))
            return f

        Z = pair_set(data.draw(pairs))
        allowed = data.draw(st.none() | pairs.map(
            lambda ps: pair_set(ps) & ts.nonblocking))
        assert cpre(ts, Z, allowed) == cpre(ts, Z.exists(ts.input_vars), allowed)

    @settings(max_examples=150, deadline=None)
    @given(explicit_games(), st.data())
    def test_solvers_match_pair_layers(self, game, data):
        n, m, trans = game
        ts = build_explicit_ts(Manager(), n, m, trans)
        states = st.sets(st.integers(0, n - 1)).map(
            lambda s: state_set_to_bdd(ts, s))
        region = data.draw(states)
        targets = data.draw(st.lists(states, min_size=1, max_size=2))
        safe = data.draw(st.none() | states)
        pairs = synthesis._pairs(ts, region)
        within = synthesis._pairs(ts, data.draw(states))
        assert (synthesis._reach_fixpoint(ts, pairs, within)
                == _pair_layers(ts, pairs, within))
        Z, D, _, iterations = synthesis._reach_fixpoint(ts, pairs, collect=False)
        ref = _pair_layers(ts, pairs, collect=False)
        assert (Z, D, iterations) == (ref[0], ref[1], ref[3])
        solves = [lambda: solve_reach(ts, region),
                  lambda: solve_recurrence(ts, region),
                  lambda: solve_persistence(ts, region),
                  lambda: solve_gen_buchi(ts, targets, safe=safe)]
        for solve in solves:
            new = solve()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(synthesis, "_reach_fixpoint", _pair_layers)
                old = solve()
            assert new.relation == old.relation
            assert new.mode_relations() == old.mode_relations()
            assert new.stats == old.stats


def test_gen_buchi_that_sweeps_saves_the_same_controller(tmp_path):
    # configs/buchi.json solved in a manager whose budget forces kernel
    # sweeps between operations writes the bytes `ncsynth synth` writes
    # with the default budget, which never sweeps on this model
    config = Path(__file__).parent.parent / "configs" / "buchi.json"
    out = tmp_path / "out"
    for stage in ("abstract", "expand", "synth"):
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0

    mgr = Manager(gc_threshold=5000)
    trans, meta = bddfile.load(out / "ncs.bdd", manager=mgr)
    initial, _ = bddfile.load(out / "ncs.init.bdd", manager=mgr)
    model = make_shell_ncs_model(meta, mgr, trans, initial)
    cfg = RunConfig.from_file(config)
    targets, safe = _spec_sets(cfg, model)
    sweeps = []
    sweep = mgr.collect

    def counted():
        sweeps.append(mgr.node_count())
        sweep()

    mgr.collect = counted
    ctrl = solve_gen_buchi(model, targets, safe=safe)
    assert sweeps
    files = save_controller(ctrl, tmp_path / "controller.bdd",
                            {"spec_kind": cfg.spec.kind,
                             "name": cfg.codegen.name})
    assert len(files) == 5      # two mode relations, two goals, the sidecar
    for f in files:
        assert f.read_bytes() == (out / f.name).read_bytes(), f.name
