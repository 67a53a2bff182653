import json

import pytest

from ncsynth.abstraction import build_abstraction
from ncsynth.bdd import Manager
from ncsynth.bddfile import BddFileError, load, save
from ncsynth.grid import UniformGrid
from ncsynth.modelio import (artifact_files, load_controller, load_model,
                             load_ncs_model, load_plant_model,
                             make_shell_ncs_model, save_controller,
                             save_ncs_model, save_plant_model)
from ncsynth.ncs import DelayBounds, expand, expand_spec_set
from ncsynth.plants import robot
from ncsynth.synthesis import solve_gen_buchi, solve_reach

from conftest import build_explicit_ts, decoded_transitions


def small_pipeline():
    plant = robot(tau=1.0)
    sg = UniformGrid(lb=(0.0, 0.0), ub=(6.0, 6.0), eta=(1.0, 1.0))
    ig = UniformGrid(lb=(-1.0, -1.0), ub=(1.0, 1.0), eta=(1.0, 1.0))
    ts = build_abstraction(plant, sg, ig)
    model = expand(ts, DelayBounds(2, 2, 2, 2))
    return plant, ts, model


def test_plant_model_round_trip(tmp_path):
    _, ts, _ = small_pipeline()
    p = tmp_path / "plant.bdd"
    save_plant_model(ts, p)
    back, meta = load_plant_model(p)
    assert back.n_transitions() == ts.n_transitions()
    assert sorted(back.transitions()) == sorted(ts.transitions())
    assert meta["deterministic"] is True
    assert back.pre_set.grid == ts.pre_set.grid


def test_ncs_model_round_trip_counts(tmp_path):
    _, ts, model = small_pipeline()
    p = tmp_path / "ncs.bdd"
    save_ncs_model(model, p)
    back, meta = load_ncs_model(p)
    assert back.n_transitions() == model.n_transitions()
    assert back.n_initial() == model.n_initial()
    assert back.state_count() == model.state_count()


def test_ncs_model_round_trip_exact_on_toy(tmp_path):
    mgr = Manager()
    trans = {(x, u): {(x + u) % 3} for x in range(3) for u in range(2)}
    ts = build_explicit_ts(mgr, 3, 2, trans)
    model = expand(ts, DelayBounds(2, 2, 2, 2))
    p = tmp_path / "toy.bdd"
    save_ncs_model(model, p)
    back, _ = load_ncs_model(p)
    assert decoded_transitions(back) == decoded_transitions(model)


def test_wrong_kind_rejected(tmp_path):
    _, ts, model = small_pipeline()
    p = tmp_path / "ncs.bdd"
    save_ncs_model(model, p)
    with pytest.raises(BddFileError, match="expected a plant model"):
        load_plant_model(p)


def test_static_controller_round_trip(tmp_path):
    _, ts, model = small_pipeline()
    target = expand_spec_set(ts.pre_set.empty().add_box((5.0, 5.0), (6.0, 6.0)),
                             model)
    ctrl = solve_reach(model, target)
    extra = {"kind": "controller", "model_kind": "ncs", "name": "r",
             "tau": 1.0,
             "state_grid": {"lb": [0, 0], "ub": [6, 6], "eta": [1, 1]},
             "input_grid": {"lb": [-1, -1], "ub": [1, 1], "eta": [1, 1]},
             "delays": {"nsc_min": 2, "nsc_max": 2, "nca_min": 2, "nca_max": 2},
             "var_base": 0}
    p = tmp_path / "ctrl.bdd"
    save_controller(ctrl, p, extra)
    back, meta = load_controller(p)
    assert back.modes is None
    assert back.pre_vars == ctrl.pre_vars
    assert back.input_vars == ctrl.input_vars
    # same function: compare satisfying counts and spot checks
    sup = tuple(sorted(ctrl.pre_vars + ctrl.input_vars))
    assert (back.relation.sat_count(sup) == ctrl.relation.sat_count(sup))


def test_dynamic_controller_round_trip(tmp_path):
    _, ts, model = small_pipeline()
    t1 = expand_spec_set(ts.pre_set.empty().add_box((5.0, 5.0), (6.0, 6.0)), model)
    t2 = expand_spec_set(ts.pre_set.empty().add_box((0.0, 0.0), (1.0, 1.0)), model)
    ctrl = solve_gen_buchi(model, [t1, t2])
    assert len(ctrl.modes) == 2
    extra = {"kind": "controller", "model_kind": "ncs", "name": "gb",
             "tau": 1.0,
             "state_grid": {"lb": [0, 0], "ub": [6, 6], "eta": [1, 1]},
             "input_grid": {"lb": [-1, -1], "ub": [1, 1], "eta": [1, 1]},
             "delays": {"nsc_min": 2, "nsc_max": 2, "nca_min": 2, "nca_max": 2},
             "var_base": 0}
    p = tmp_path / "gb.bdd"
    save_controller(ctrl, p, extra)
    assert (tmp_path / "gb.modes.json").exists()
    assert (tmp_path / "gb.m1.bdd").exists()
    assert (tmp_path / "gb.goal0.bdd").exists()
    back, meta = load_controller(p)
    assert len(back.modes) == 2
    assert back.modes[0].next_mode == 1 and back.modes[1].next_mode == 0
    sup = tuple(sorted(ctrl.pre_vars + ctrl.input_vars))
    for a, b in zip(ctrl.modes, back.modes):
        assert a.relation.sat_count(sup) == b.relation.sat_count(sup)
        assert (a.goal.sat_count(ctrl.pre_vars)
                == b.goal.sat_count(ctrl.pre_vars))


def test_shell_model_decodes_like_original(tmp_path):
    _, ts, model = small_pipeline()
    meta = {"state_grid": {"lb": [0, 0], "ub": [6, 6], "eta": [1, 1]},
            "input_grid": {"lb": [-1, -1], "ub": [1, 1], "eta": [1, 1]},
            "delays": {"nsc_min": 2, "nsc_max": 2, "nca_min": 2, "nca_max": 2},
            "var_base": 0, "name": "robot", "tau": 1.0}
    shell = make_shell_ncs_model(meta)
    assert shell.pre_vars == model.pre_vars
    assert shell.input_vars == model.input_vars
    a = model.encode_state(((3, 3), None), ((1, 1), (0, 2)))
    b = shell.encode_state(((3, 3), None), ((1, 1), (0, 2)))
    assert a == b


def _two_mode_controller(model, ts):
    box = ts.pre_set.empty().add_box
    return solve_gen_buchi(model, [
        expand_spec_set(box((5.0, 5.0), (6.0, 6.0)), model),
        expand_spec_set(box((0.0, 0.0), (1.0, 1.0)), model)])


def test_saves_return_the_files_that_artifact_files_lists(tmp_path):
    _, ts, model = small_pipeline()
    ctrl = _two_mode_controller(model, ts)
    written = (save_plant_model(ts, tmp_path / "plant.bdd")
               + save_ncs_model(model, tmp_path / "ncs.bdd")
               + save_controller(ctrl, tmp_path / "ctl.bdd", {"name": "c"}))
    assert sorted(written) == sorted(tmp_path.iterdir())
    assert {p.name for p in written} == {
        "plant.bdd", "ncs.bdd", "ncs.init.bdd", "ctl.bdd", "ctl.m1.bdd",
        "ctl.goal0.bdd", "ctl.goal1.bdd", "ctl.modes.json"}
    listed = []
    for name, load_fn in (("plant.bdd", load_plant_model),
                          ("ncs.bdd", load_ncs_model),
                          ("ctl.bdd", load_controller)):
        files = artifact_files(tmp_path / name, load_fn(tmp_path / name)[1])
        assert files[0] == tmp_path / name
        listed += files
    assert sorted(listed) == sorted(written)


def test_controller_metadata_comes_from_its_model(tmp_path):
    _, ts, model = small_pipeline()
    save_ncs_model(model, tmp_path / "ncs.bdd")
    _, ncs_meta = load_ncs_model(tmp_path / "ncs.bdd")
    save_controller(_two_mode_controller(model, ts), tmp_path / "ctl.bdd",
                    {"spec_kind": "gen_buchi", "name": "c"})
    _, meta = load_controller(tmp_path / "ctl.bdd")
    assert (meta["kind"], meta["model_kind"]) == ("controller", "ncs")
    assert (meta["spec_kind"], meta["name"]) == ("gen_buchi", "c")
    for key in ("tau", "state_grid", "input_grid", "delays", "var_base",
                "layout_version"):
        assert meta[key] == ncs_meta[key], key


def test_plant_controller_round_trip(tmp_path):
    # a controller synthesized on the plant model itself, without delays
    _, ts, _ = small_pipeline()
    ctrl = solve_reach(ts, ts.pre_set.empty().add_box((5.0, 5.0),
                                                      (6.0, 6.0)).chi)
    assert save_controller(ctrl, tmp_path / "p.bdd") == [tmp_path / "p.bdd"]
    back, meta = load_controller(tmp_path / "p.bdd")
    assert meta["model_kind"] == "plant"
    assert back.pre_vars == ctrl.pre_vars
    assert back.input_vars == ctrl.input_vars
    sup = tuple(sorted(ctrl.pre_vars + ctrl.input_vars))
    assert back.relation.sat_count(sup) == ctrl.relation.sat_count(sup)
    assert back.model.pre_set.grid == ts.pre_set.grid


def test_mode_switching_controller_needs_its_automaton(tmp_path):
    _, ts, model = small_pipeline()
    save_controller(_two_mode_controller(model, ts), tmp_path / "ctl.bdd")
    (tmp_path / "ctl.modes.json").unlink()
    with pytest.raises(BddFileError, match="ctl.modes.json"):
        load_controller(tmp_path / "ctl.bdd")


def test_load_model_reads_either_model_kind(tmp_path):
    _, ts, model = small_pipeline()
    save_plant_model(ts, tmp_path / "plant.bdd")
    save_ncs_model(model, tmp_path / "ncs.bdd")
    plant, meta = load_model(tmp_path / "plant.bdd")
    assert meta["kind"] == "plant_model"
    assert plant.n_transitions() == ts.n_transitions()
    ncs, meta = load_model(tmp_path / "ncs.bdd")
    assert meta["kind"] == "ncs_model"
    assert ncs.n_initial() == model.n_initial()
    ctrl = solve_reach(model, expand_spec_set(
        ts.pre_set.empty().add_box((5.0, 5.0), (6.0, 6.0)), model))
    save_controller(ctrl, tmp_path / "ctl.bdd")
    with pytest.raises(BddFileError, match="expected a plant model or an "
                                           "expanded model"):
        load_model(tmp_path / "ctl.bdd")


def _edit_sidecar(path, edit):
    content = json.loads(path.read_text())
    edit(content)
    path.write_text(json.dumps(content))


def _set_next(i, value):
    return lambda c: c["modes"][i].update(next=value)


@pytest.mark.parametrize("edit, message", [
    (_set_next(0, 7), "mode entry 0 has 'next' 7, not a mode in 0..1"),
    (_set_next(1, -1), "mode entry 1 has 'next' -1, not a mode in 0..1"),
    (_set_next(0, "1"), "mode entry 0 has 'next' '1', not a mode in 0..1"),
    (_set_next(1, True), "mode entry 1 has 'next' True, not a mode in 0..1"),
    (lambda c: c["modes"][1].pop("next"),
     "mode entry 1 has 'next' None, not a mode in 0..1"),
    (lambda c: c["modes"][0].pop("relation"),
     "mode entry 0 has no 'relation' file name"),
    (lambda c: c["modes"][1].pop("goal"),
     "mode entry 1 has no 'goal' file name"),
    (lambda c: c.update(mode_count=3), "mode_count 3 but 2 mode entries"),
    (lambda c: c.pop("mode_count"), "mode_count None but 2 mode entries"),
    (lambda c: c.update(modes=[]), "no list of mode entries"),
], ids=["next-7", "next-negative", "next-str", "next-bool", "next-missing",
        "relation-missing", "goal-missing", "mode-count-3",
        "mode-count-missing", "no-modes"])
def test_malformed_mode_automaton_is_refused(tmp_path, edit, message):
    _, ts, model = small_pipeline()
    save_controller(_two_mode_controller(model, ts), tmp_path / "ctl.bdd")
    sidecar = tmp_path / "ctl.modes.json"
    _edit_sidecar(sidecar, edit)
    with pytest.raises(BddFileError) as info:
        load_controller(tmp_path / "ctl.bdd")
    assert str(info.value) == f"{sidecar}: {message}"



def test_mode_automaton_that_is_not_json_is_refused(tmp_path):
    _, ts, model = small_pipeline()
    save_controller(_two_mode_controller(model, ts), tmp_path / "ctl.bdd")
    (tmp_path / "ctl.modes.json").write_text('{"mode_count": 2,')
    with pytest.raises(BddFileError, match="ctl.modes.json: not JSON"):
        load_controller(tmp_path / "ctl.bdd")

@pytest.mark.parametrize("drop", [("state_grid",), ("vars",),
                                  ("input_grid", "eta")])
def test_plant_model_without_a_metadata_key_is_refused(tmp_path, drop):
    _, ts, _ = small_pipeline()
    p = tmp_path / "plant.bdd"
    save_plant_model(ts, p)
    f, meta = load(p)
    node = meta
    for key in drop[:-1]:
        node = node[key]
    del node[drop[-1]]
    save(f, meta, p)
    with pytest.raises(BddFileError) as info:
        load_plant_model(p)
    assert str(info.value) == f"{p}: metadata has no key '{'.'.join(drop)}'"


@pytest.mark.parametrize("drop", ["delays", "nca_max", "state_grid"])
def test_expanded_model_without_a_metadata_key_is_refused(tmp_path, drop):
    _, _, model = small_pipeline()
    p = tmp_path / "ncs.bdd"
    save_ncs_model(model, p)
    f, meta = load(p)
    (meta["delays"] if drop == "nca_max" else meta).pop(drop)
    save(f, meta, p)
    where = "delays.nca_max" if drop == "nca_max" else drop
    with pytest.raises(BddFileError, match=f"no key '{where}'"):
        load_ncs_model(p)
