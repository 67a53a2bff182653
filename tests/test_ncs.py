import random

import pytest
from hypothesis import given, settings, strategies as st

from ncsynth.abstraction import allocate_layout
from ncsynth.bdd import Manager
from ncsynth.grid import SymbolicSet, UniformGrid
from ncsynth.ncs import (DelayBounds, NcsLayout, NcsModel, expand,
                         expand_spec_set, reachable, state_code_layout)

from conftest import (build_explicit_ts, decoded_states, decoded_transitions,
                      integrator_1d, state_set_to_bdd)
from oracles import expand_explicit, reachable_explicit
from test_grid import grids


def complete_toy(mgr, n_states=4, n_inputs=2):
    """Complete deterministic base: successor = (x + u) mod n."""
    trans = {(x, u): {(x + u + 1) % n_states}
             for x in range(n_states) for u in range(n_inputs)}
    return build_explicit_ts(mgr, n_states, n_inputs, trans), trans


def scalar(pre):
    return pre


class TestDelayBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            DelayBounds(0, 1, 1, 1)
        with pytest.raises(ValueError):
            DelayBounds(2, 1, 1, 1)
        assert DelayBounds(2, 2, 2, 2).prolonged
        assert not DelayBounds(1, 2, 2, 2).prolonged


class TestVariableIds:
    """Exact variable ids of both layouts, as README's "Variable order"
    and the abstraction module describe them."""

    def test_plant_layout(self):
        # state bits (2, 3), input bits (1, 2); two variables already exist
        state = UniformGrid(lb=(0.0, 0.0), ub=(2.0, 4.0), eta=(1.0, 1.0))
        inputs = UniformGrid(lb=(0.0, 0.0), ub=(1.0, 2.0), eta=(1.0, 1.0))
        mgr = Manager(var_count=2)
        input_ids, pre_ids, post_ids = allocate_layout(mgr, state, inputs)
        # the input block, then each state bit's pre and post side by side
        assert [tuple(ids) for ids in input_ids] == [(2,), (3, 4)]
        assert [tuple(ids) for ids in pre_ids] == [(5, 7), (9, 11, 13)]
        assert [tuple(ids) for ids in post_ids] == [(6, 8), (10, 12, 14)]
        assert mgr.var_count == 15

    @pytest.mark.parametrize("bounds, delay_regs", [
        ((2, 2, 2, 2), (((), ()),) * 4),
        ((1, 2, 1, 2), (((19,), (21,)), ((18,), (20,)),
                        ((23,), (25,)), ((22,), (24,)))),
    ])
    def test_ncs_layout(self, bounds, delay_regs):
        # three cells and three inputs: two bits each, marker code 3
        state = UniformGrid(lb=(0.0,), ub=(2.0,), eta=(1.0,))
        inputs = UniformGrid(lb=(-1.0,), ub=(1.0,), eta=(1.0,))
        lay = NcsLayout(DelayBounds(*bounds), state, inputs)
        # slots from the top: (label, u1'), (u1, u2'), u2,
        # (x1, x1', x2'), x2, then the delay registers slotted alike
        assert lay.label == (0, 2)
        assert lay.u_post == ((1, 3), (5, 7))
        assert lay.u_pre == ((4, 6), (8, 9))
        assert lay.x_pre == ((10, 13), (16, 17))
        assert lay.x_post == ((11, 14), (12, 15))
        assert (lay.dsc_pre, lay.dsc_post, lay.dca_pre,
                lay.dca_post) == delay_regs
        assert lay.var_count == 18 + sum(len(r) for regs in delay_regs
                                         for r in regs)


class TestMarkerEncoding:
    def test_non_power_of_two_uses_spare_code(self):
        g = UniformGrid(lb=(0.0,), ub=(4.0,), eta=(1.0,))   # 5 points, 3 bits
        bits, marker, offs = state_code_layout(g)
        assert bits == 3 and marker == 5 and offs == (0,)

    def test_power_of_two_allocates_flag_bit(self):
        g = UniformGrid(lb=(0.0,), ub=(3.0,), eta=(1.0,))   # 4 points, 2 bits
        bits, marker, offs = state_code_layout(g)
        assert bits == 3 and marker == 4

    def test_mixed_dims_take_first_gap(self):
        g = UniformGrid(lb=(0.0, 0.0), ub=(64.0, 64.0), eta=(1.0, 1.0))
        bits, marker, offs = state_code_layout(g)
        assert bits == 14 and marker == 65 and offs == (0, 7)


class TestToyExpansion:
    def test_state_count_formula(self):
        mgr = Manager()
        base, _ = complete_toy(mgr)
        model = expand(base, DelayBounds(2, 2, 2, 2))
        assert model.state_count() == (4 + 1) ** 2 * 2 ** 2 == 100
        assert model.n_states_symbolic() == 100
        # delay registers are elided for singleton ranges
        assert model.layout.sc_bits == 0 and model.layout.ca_bits == 0

    def test_initial_states_form(self):
        mgr = Manager()
        base, trans = complete_toy(mgr)
        model = expand(base, DelayBounds(2, 2, 2, 2))
        assert model.n_initial() == 4 * 2
        got = decoded_states(model, model.initial)
        expected = {((x, None), (u, u), (2, 2), (2, 2))
                    for x in range(4) for u in range(2)}
        assert got == expected

    def test_matches_explicit_enumeration(self):
        mgr = Manager()
        base, trans = complete_toy(mgr)
        model = expand(base, DelayBounds(2, 2, 2, 2))
        space, init, transitions = expand_explicit(
            list(range(4)), list(range(2)), trans, list(range(4)),
            (2, 2, 2, 2))
        assert decoded_states(model, model.initial) == init
        assert decoded_transitions(model) == transitions

    def test_projection_soundness_and_shift(self):
        mgr = Manager()
        base, trans = complete_toy(mgr, 5, 3)
        model = expand(base, DelayBounds(2, 2, 3, 3))
        for pre, label, post in decoded_transitions(model):
            xs, us, dsc, dca = pre
            xs2, us2, dsc2, dca2 = post
            # base step consumed: head state under the oldest buffered input
            assert xs2[0] in trans[(xs[0], us[-1])]
            # registers shift right by one
            assert xs2[1:] == xs[:-1]
            assert us2[1:] == us[:-1]
            assert dsc2[1:] == dsc[:-1]
            assert dca2[1:] == dca[:-1]
            assert us2[0] == label

    def test_transitions_imply_state_space_membership(self):
        mgr = Manager()
        base, _ = complete_toy(mgr, 5, 3)
        model = expand(base, DelayBounds(2, 2, 2, 2))
        post_domain = model.state_domain.rename(model.pre_to_post)
        assert (model.trans & ~model.state_domain).is_false
        assert (model.trans & ~post_domain).is_false
        assert (model.trans & ~model.input_domain).is_false
        assert (model.initial & ~model.state_domain).is_false

    def test_nondeterministic_base_warns_in_prolonged_mode(self):
        mgr = Manager()
        trans = {(0, 0): {0, 1}, (1, 0): {0}}
        base = build_explicit_ts(mgr, 2, 1, trans)
        with pytest.warns(UserWarning, match="deterministic"):
            expand(base, DelayBounds(1, 1, 1, 1))


class TestGeneralDelays:
    def test_delay_registers_allocated(self):
        mgr = Manager()
        base, trans = complete_toy(mgr)
        model = expand(base, DelayBounds(1, 2, 1, 3))
        assert model.layout.sc_bits == 1
        assert model.layout.ca_bits == 2
        assert model.state_count() == 5 ** 2 * 2 ** 3 * 2 ** 2 * 3 ** 3

    def test_matches_explicit_enumeration(self):
        mgr = Manager()
        base, trans = complete_toy(mgr, 3, 2)
        model = expand(base, DelayBounds(1, 2, 1, 2))
        space, init, transitions = expand_explicit(
            list(range(3)), list(range(2)), trans, list(range(3)),
            (1, 2, 1, 2))
        assert decoded_states(model, model.initial) == init
        assert decoded_transitions(model) == transitions
        assert model.n_states_symbolic() == len(space)


class TestSpecSetLifting:
    def setup_model(self):
        mgr = Manager()
        base, trans = complete_toy(mgr)
        model = expand(base, DelayBounds(2, 2, 2, 2))
        return mgr, base, model

    def test_lift_full_state_set(self):
        mgr, base, model = self.setup_model()
        lifted = expand_spec_set(base.pre_set.full(), model)
        # newest register is a real symbol, everything else free
        assert model.mgr.sat_count(lifted, model.pre_vars) == 4 * 5 * 4

    def test_lift_empty(self):
        mgr, base, model = self.setup_model()
        lifted = expand_spec_set(base.pre_set.empty(), model)
        assert lifted.is_false

    def test_lift_singleton_counts_free_registers(self):
        mgr, base, model = self.setup_model()
        single = base.pre_set.empty().add_box((2.0,), (2.0,))
        lifted = expand_spec_set(single, model)
        assert model.mgr.sat_count(lifted, model.pre_vars) == 1 * 5 * 4

    def test_marker_never_satisfies_lift(self):
        mgr, base, model = self.setup_model()
        lifted = expand_spec_set(base.pre_set.full(), model)
        for xs, _, _, _ in decoded_states(model, lifted):
            assert xs[0] is not None


class TestReachable:
    def test_empty_base_reaches_only_initial(self):
        mgr = Manager()
        base = build_explicit_ts(mgr, 3, 2, {})
        model = expand(base, DelayBounds(2, 2, 1, 1))
        assert reachable(model) == model.initial

    def test_matches_explicit_bfs(self):
        mgr = Manager()
        base, trans = complete_toy(mgr, 4, 2)
        model = expand(base, DelayBounds(2, 2, 2, 2))
        _, init, transitions = expand_explicit(
            list(range(4)), list(range(2)), trans, list(range(4)),
            (2, 2, 2, 2))
        got = decoded_states(model, reachable(model))
        assert got == reachable_explicit(init, transitions)

    def test_markers_flushed_after_fillup(self):
        mgr = Manager()
        base, trans = complete_toy(mgr, 4, 2)
        model = expand(base, DelayBounds(3, 3, 1, 1))
        r = reachable(model)
        quant = tuple(sorted(model.pre_vars + model.input_vars))
        back = {b: a for a, b in model.pre_to_post.items()}
        layer = model.initial
        for _ in range(3):
            layer = model.mgr.exist_and(model.trans, layer, quant).rename(back)
        for xs, _, _, _ in decoded_states(model, layer):
            assert all(x is not None for x in xs)
        # reachability stays inside the declared state space
        assert (r & ~model.state_domain).is_false


def _cells(grid):
    return st.tuples(*(st.integers(0, n - 1) for n in grid.npoints))


@settings(max_examples=120, deadline=None)
@given(data=st.data(),
       bounds=st.sampled_from([(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 1, 1),
                               (1, 2, 1, 3), (2, 3, 1, 2)]))
def test_encode_decode_state_round_trip(data, bounds):
    """encode_state -> decode_state on random grids (power-of-two sizes
    take the marker flag bit), with marker registers, at prolonged and at
    time-varying bounds, where delay registers are present."""
    state_grid = data.draw(grids(max_dim=2))
    input_grid = data.draw(grids(max_dim=2))
    b = DelayBounds(*bounds)
    lay = NcsLayout(b, state_grid, input_grid)
    mgr = Manager(var_count=lay.var_count)
    model = NcsModel(mgr=mgr, layout=lay, bounds=b, trans=mgr.false,
                     initial=mgr.false)
    xs = tuple(data.draw(st.none() | _cells(state_grid))
               for _ in range(b.nsc_max))
    us = tuple(data.draw(_cells(input_grid)) for _ in range(b.nca_max))
    dsc = tuple(data.draw(st.integers(b.nsc_min, b.nsc_max))
                for _ in range(b.nsc_max))
    dca = tuple(data.draw(st.integers(b.nca_min, b.nca_max))
                for _ in range(b.nca_max))
    a = model.encode_state(xs, us, dsc, dca)
    assert sorted(a) == list(model.pre_vars)
    assert mgr.evaluate(model.state_domain, a)
    assert model.decode_state(a) == (xs, us, dsc, dca)
    bits = tuple(a[v] for v in model.pre_vars)
    assert model.decode_state(bits) == (xs, us, dsc, dca)
    # the flat row form carries the same state
    row = model.decode_row(a, "pre")
    assert len(row) == len(model.state_columns)
    assert model.encode_row(row) == a
    # omitted delays default to the channel maxima
    assert model.decode_state(model.encode_state(xs, us))[2:] == (
        (b.nsc_max,) * b.nsc_max, (b.nca_max,) * b.nca_max)


def _dag_size(f):
    """Internal nodes reachable from f."""
    nodes = f.mgr._nodes
    seen, stack = set(), [f.ref]
    while stack:
        r = stack.pop()
        if r > 1 and r not in seen:
            seen.add(r)
            stack.extend(nodes[r][1:])
    return len(seen)


@pytest.mark.parametrize("channel", ["nca", "nsc"])
def test_relation_and_domain_grow_linearly_with_delay(channel):
    # 1-D integrator, 5 cells, inputs -1..1; one channel's delay n runs
    # 1..8 with the other at 2.  Every added register adds a fixed number
    # of nodes (a layout whose constraints span the registers doubles).
    base = integrator_1d()
    sizes = {}
    for n in range(1, 9):
        bounds = (2, 2, n, n) if channel == "nca" else (n, n, 2, 2)
        model = expand(base, DelayBounds(*bounds))
        sizes[n] = (_dag_size(model.trans), _dag_size(model.state_domain))
    for k in (0, 1):
        steps = {sizes[n][k] - sizes[n - 1][k] for n in range(3, 9)}
        assert len(steps) == 1 and steps.pop() > 0, (channel, k, sizes)
