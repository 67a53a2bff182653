import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ncsynth.abstraction import (TransitionSystem, allocate_layout,
                                 build_abstraction)
from ncsynth.bdd import Manager
from ncsynth.grid import SymbolicSet, UniformGrid
from ncsynth.plants import robot


@pytest.fixture
def mgr():
    return Manager()


def build_explicit_ts(mgr, n_states, n_inputs, trans, init=None, name="toy"):
    """Symbolic system from an explicit graph: 1-D grids with unit spacing,
    states and inputs are their own grid indices."""
    state_grid = UniformGrid(lb=(0.0,), ub=(float(n_states - 1),), eta=(1.0,))
    input_grid = UniformGrid(lb=(0.0,), ub=(float(n_inputs - 1),), eta=(1.0,))
    input_ids, pre_ids, post_ids = allocate_layout(mgr, state_grid, input_grid)

    support = sorted(v for ids in (input_ids + pre_ids + post_ids) for v in ids)
    width = len(support)
    shift = {v: width - 1 - i for i, v in enumerate(support)}

    def pack(idx, ids):
        code = 0
        for dim_ids, i in zip(ids, idx):
            for b, v in enumerate(dim_ids):
                if (i >> b) & 1:
                    code |= 1 << shift[v]
        return code

    codes = []
    for (x, u), succs in trans.items():
        head = pack((x,), pre_ids) | pack((u,), input_ids)
        for xp in succs:
            codes.append(head | pack((xp,), post_ids))
    rel = mgr.from_minterms(support, codes)

    pre_set = SymbolicSet(mgr, state_grid, pre_ids)
    pre_set = pre_set.with_chi(pre_set.domain())
    post_set = SymbolicSet(mgr, state_grid, post_ids)
    post_set = post_set.with_chi(post_set.domain())
    input_set = SymbolicSet(mgr, input_grid, input_ids)
    input_set = input_set.with_chi(input_set.domain())

    if init is None:
        initial = pre_set.domain()
    else:
        initial = mgr.false
        for x in init:
            initial = initial | pre_set.cell_cube((x,))
    return TransitionSystem(mgr=mgr, pre_set=pre_set, input_set=input_set,
                            post_set=post_set, trans=rel, initial=initial,
                            tau=1.0, name=name)


def state_set_to_bdd(ts, states):
    """Predicate over pre variables for a collection of scalar states."""
    chi = ts.mgr.false
    for x in states:
        chi = chi | ts.pre_set.cell_cube((x,))
    return chi


def decoded_transitions(model):
    """Expanded transitions as oracle-style tuples with scalar symbols."""
    sup = model.all_vars
    out = set()
    for bits in model.mgr.cubes(model.trans, sup):
        a = dict(zip(sup, bits))
        pre = _scalarize(model.decode_state(a, "pre"))
        post = _scalarize(model.decode_state(a, "post"))
        label = model.decode_label(a)[0]
        out.add((pre, label, post))
    return out


def decoded_states(model, chi):
    out = set()
    for bits in model.mgr.cubes(chi, model.pre_vars):
        a = dict(zip(model.pre_vars, bits))
        out.add(_scalarize(model.decode_state(a, "pre")))
    return out


def _scalarize(decoded):
    xs, us, dsc, dca = decoded
    return (tuple(x if x is None else x[0] for x in xs),
            tuple(u[0] for u in us), tuple(dsc), tuple(dca))


def integrator_1d():
    """Plant model of the 1-D integrator: 5 cells, inputs -1..1."""
    return build_abstraction(robot(tau=1.0, dim=1),
                             UniformGrid(lb=(0.0,), ub=(4.0,), eta=(1.0,)),
                             UniformGrid(lb=(-1.0,), ub=(1.0,), eta=(1.0,)))
