"""Persisting models and controllers as BDD files with rich metadata.

Each file stores exactly one function; composite artifacts use sibling
files plus a JSON sidecar.  The metadata block carries everything needed
to reinterpret the variables downstream: grids, sampling period, delay
bounds, and the variable layout, so tools can decode states without the
construction config.
"""

from __future__ import annotations

import json
from pathlib import Path

from .abstraction import plant_system
from .bdd import Manager
from .bddfile import BddFileError, load, save
from .grid import UniformGrid
from .ncs import LAYOUT_VERSION, DelayBounds, NcsLayout, NcsModel
from .synthesis import Controller, Mode


def _grid_meta(grid):
    return {"lb": list(grid.lb), "ub": list(grid.ub), "eta": list(grid.eta)}


def _grid_from_meta(m):
    return UniformGrid(lb=tuple(m["lb"]), ub=tuple(m["ub"]), eta=tuple(m["eta"]))


def _var_roles_plant(ts):
    roles = []
    for d, ids in enumerate(ts.input_set.var_ids):
        for b, v in enumerate(ids):
            roles.append({"var": v, "role": "input", "dim": d, "bit": b})
    for d, (pre, post) in enumerate(zip(ts.pre_set.var_ids, ts.post_set.var_ids)):
        for b, (vp, vq) in enumerate(zip(pre, post)):
            roles.append({"var": vp, "role": "pre", "dim": d, "bit": b})
            roles.append({"var": vq, "role": "post", "dim": d, "bit": b})
    return sorted(roles, key=lambda r: r["var"])


def _var_roles_ncs(lay):
    roles = []
    for b, v in enumerate(lay.label):
        roles.append({"var": v, "role": "input", "bit": b})
    for which in ("pre", "post"):
        for name, block in lay.named_registers(which):
            for b, v in enumerate(block):
                roles.append({"var": v, "role": which, "block": name, "bit": b})
    return sorted(roles, key=lambda r: (r["var"], r["role"]))


def save_plant_model(ts, path):
    meta = {
        "kind": "plant_model",
        "name": ts.name,
        "tau": ts.tau,
        "state_grid": _grid_meta(ts.pre_set.grid),
        "input_grid": _grid_meta(ts.input_set.grid),
        "vars": {
            "input": [list(ids) for ids in ts.input_set.var_ids],
            "pre": [list(ids) for ids in ts.pre_set.var_ids],
            "post": [list(ids) for ids in ts.post_set.var_ids],
        },
        "deterministic": ts.is_deterministic(),
        "initial": "domain",
        "var_roles": _var_roles_plant(ts),
    }
    save(ts.trans, meta, path)
    return meta


def load_plant_model(path):
    trans, meta = load(path)
    if meta.get("kind") != "plant_model":
        raise BddFileError(f"{path}: expected a plant model, found "
                           f"{meta.get('kind')!r}")
    return _plant_from_meta(meta, trans.mgr, trans), meta


def _plant_from_meta(meta, mgr, trans):
    ids = tuple([tuple(v) for v in meta["vars"][key]]
                for key in ("input", "pre", "post"))
    return plant_system(mgr, _grid_from_meta(meta["state_grid"]),
                        _grid_from_meta(meta["input_grid"]), ids, trans,
                        meta.get("tau", 0.0), meta.get("name", "plant"))


def _grown_manager(mgr, total):
    """`mgr`, or a fresh manager, declaring at least `total` variables."""
    if mgr is None:
        return Manager(var_count=total)
    if mgr.var_count < total:
        mgr.add_vars(total - mgr.var_count)
    return mgr


def layout_meta(model):
    """The layout keys that `_layout_from_meta` and `make_shell_ncs_model`
    read, for expanded-model and controller files alike."""
    b = model.bounds
    return {
        "tau": model.tau,
        "state_grid": _grid_meta(model.state_grid),
        "input_grid": _grid_meta(model.input_grid),
        "delays": {"nsc_min": b.nsc_min, "nsc_max": b.nsc_max,
                   "nca_min": b.nca_min, "nca_max": b.nca_max},
        "var_base": 0,  # variables start at id 0; kept for the file bytes
    }


def _init_path(path):
    p = Path(path)
    return p.with_name(p.stem + ".init" + p.suffix)


def save_ncs_model(model, path):
    meta = {"kind": "ncs_model", "name": model.base_name,
            **layout_meta(model), "layout_version": LAYOUT_VERSION,
            "base_deterministic": model.base_deterministic,
            "marker_code": model.layout.marker_code,
            "var_roles": _var_roles_ncs(model.layout)}
    save(model.trans, meta, path)
    save(model.initial, meta, _init_path(path))
    return meta


def _layout_from_meta(meta):
    bounds = DelayBounds(**meta["delays"])
    state_grid = _grid_from_meta(meta["state_grid"])
    input_grid = _grid_from_meta(meta["input_grid"])
    lay = NcsLayout(bounds, state_grid, input_grid)
    return bounds, lay


def _check_layout_version(meta, path):
    """Refuse files whose variables were laid out by another NcsLayout:
    decoding them with this one would read the wrong bits."""
    found = meta.get("layout_version")
    if found != LAYOUT_VERSION:
        raise BddFileError(
            f"{path}: expanded-model variable layout version {found!r}, "
            f"this ncsynth reads version {LAYOUT_VERSION}; re-run "
            f"`ncsynth expand` and the later stages to rebuild it")


def load_ncs_model(path):
    trans, meta = load(path)
    if meta.get("kind") != "ncs_model":
        raise BddFileError(f"{path}: expected an expanded model, found "
                           f"{meta.get('kind')!r}")
    _check_layout_version(meta, path)
    initial, meta2 = load(_init_path(path), manager=trans.mgr)
    bounds, lay = _layout_from_meta(meta)
    model = NcsModel(mgr=trans.mgr, layout=lay, bounds=bounds, trans=trans,
                     initial=initial, base_name=meta.get("name", "plant"),
                     tau=meta.get("tau", 0.0),
                     base_deterministic=meta.get("base_deterministic", False))
    return model, meta


def make_shell_ncs_model(meta, mgr=None):
    """Model carcass from controller metadata: layout, grids, and bounds
    for simulation and decoding; the transition relation is not loaded."""
    bounds, lay = _layout_from_meta(meta)
    mgr = _grown_manager(mgr, lay.var_count)
    return NcsModel(mgr=mgr, layout=lay, bounds=bounds, trans=mgr.false,
                    initial=mgr.false, base_name=meta.get("name", "plant"),
                    tau=meta.get("tau", 0.0))


def make_shell_plant_model(meta, mgr=None):
    total = 1 + max(v for vs in meta["vars"].values() for ids in vs for v in ids)
    mgr = _grown_manager(mgr, total)
    return _plant_from_meta(meta, mgr, mgr.false)


def _modes_path(path):
    p = Path(path)
    return p.with_name(p.stem + ".modes.json")


def save_controller(ctrl, path, extra_meta=None):
    """Relation plus, for mode-switching controllers, one file per mode
    relation and goal and a JSON sidecar listing the automaton."""
    path = Path(path)
    meta = dict(extra_meta or {})
    meta.setdefault("kind", "controller")
    if meta.get("model_kind") == "ncs":
        meta["layout_version"] = LAYOUT_VERSION
    meta["stats"] = {k: v for k, v in ctrl.stats.items()
                     if isinstance(v, (int, float, str, bool))}
    meta["dynamic"] = bool(ctrl.modes)
    save(ctrl.relation, meta, path)
    if not ctrl.modes:
        return meta
    sidecar = {"mode_count": len(ctrl.modes), "modes": []}
    for i, mode in enumerate(ctrl.modes):
        rel_name = path.name if i == 0 else f"{path.stem}.m{i}{path.suffix}"
        goal_name = f"{path.stem}.goal{i}{path.suffix}"
        if i > 0:
            save(mode.relation, meta, path.with_name(rel_name))
        save(mode.goal, meta, path.with_name(goal_name))
        sidecar["modes"].append({"relation": rel_name, "goal": goal_name,
                                 "next": mode.next_mode})
    with open(_modes_path(path), "w") as fh:
        json.dump(sidecar, fh, indent=1)
    return meta


def load_controller(path):
    path = Path(path)
    relation, meta = load(path)
    if meta.get("kind") != "controller":
        raise BddFileError(f"{path}: expected a controller, found "
                           f"{meta.get('kind')!r}")
    mgr = relation.mgr
    if meta.get("model_kind") == "ncs":
        _check_layout_version(meta, path)
        model = make_shell_ncs_model(meta, mgr)
    else:
        model = make_shell_plant_model(meta, mgr)
    modes = None
    sidecar_path = _modes_path(path)
    if meta.get("dynamic") and sidecar_path.exists():
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
        modes = []
        for i, entry in enumerate(sidecar["modes"]):
            rel = (relation if i == 0
                   else load(path.with_name(entry["relation"]), manager=mgr)[0])
            goal = load(path.with_name(entry["goal"]), manager=mgr)[0]
            modes.append(Mode(relation=rel, goal=goal, next_mode=entry["next"]))
    ctrl = Controller(relation=relation, pre_vars=tuple(sorted(model.pre_vars)),
                      input_vars=tuple(model.input_vars), modes=modes,
                      stats=dict(meta.get("stats", {})), model=model)
    return ctrl, meta
