"""Persisting models and controllers as BDD files with rich metadata.

Each file stores exactly one function; composite artifacts use sibling
files plus a JSON sidecar, named here alone (`artifact_files`).  The
metadata carries everything needed to reinterpret the variables: grids,
sampling period, delay bounds and the variable layout, so tools can
decode states without the construction config.
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
    roles = [{"var": v, "role": role, "dim": d, "bit": b}
             for role, s in (("input", ts.input_set), ("pre", ts.pre_set),
                             ("post", ts.post_set))
             for d, ids in enumerate(s.var_ids) for b, v in enumerate(ids)]
    return sorted(roles, key=lambda r: r["var"])


def _var_roles_ncs(lay):
    roles = [{"var": v, "role": "input", "bit": b}
             for b, v in enumerate(lay.label)]
    roles += [{"var": v, "role": which, "block": name, "bit": b}
              for which in ("pre", "post")
              for name, block in lay.named_registers(which)
              for b, v in enumerate(block)]
    return sorted(roles, key=lambda r: (r["var"], r["role"]))


def _plant_keys(ts):
    """The keys `_plant_from_meta` reads, for plant-model and controller
    files alike."""
    return {
        "name": ts.name,
        "tau": ts.tau,
        "state_grid": _grid_meta(ts.pre_set.grid),
        "input_grid": _grid_meta(ts.input_set.grid),
        "vars": {key: [list(ids) for ids in s.var_ids] for key, s in
                 (("input", ts.input_set), ("pre", ts.pre_set),
                  ("post", ts.post_set))},
    }


def save_plant_model(ts, path):
    """Write the plant model; returns the files written."""
    meta = {"kind": "plant_model", **_plant_keys(ts),
            "deterministic": ts.is_deterministic(), "initial": "domain",
            "var_roles": _var_roles_plant(ts)}
    save(ts.trans, meta, path)
    return [Path(path)]


class _Meta(dict):
    """The metadata of the file `path`, nested objects included: a key
    that a loader reads and does not find is a `BddFileError` naming the
    file and the key."""

    def __init__(self, path, items, prefix=""):
        super().__init__((k, _Meta(path, v, f"{prefix}{k}.")
                          if isinstance(v, dict) else v)
                         for k, v in items.items())
        self._where = (path, prefix)

    def __missing__(self, key):
        path, prefix = self._where
        raise BddFileError(f"{path}: metadata has no key '{prefix}{key}'")


_KIND_NAMES = {"plant_model": "a plant model",
               "ncs_model": "an expanded model", "controller": "a controller"}


def _read(path, *kinds):
    """Function and metadata of `path`, whose kind must be in `kinds` and
    whose expanded-model layout, if any, must be this one."""
    f, meta = load(path)
    meta = _Meta(path, meta)
    if meta.get("kind") not in kinds:
        raise BddFileError(f"{path}: expected "
                           f"{' or '.join(_KIND_NAMES[k] for k in kinds)}, "
                           f"found {meta.get('kind')!r}")
    if meta["kind"] == "ncs_model" or meta.get("model_kind") == "ncs":
        _check_layout_version(meta, path)
    return f, meta


def load_model(path, kinds=("plant_model", "ncs_model")):
    """The plant or expanded model stored in `path`, built as its kind
    says; a kind outside `kinds` is refused."""
    f, meta = _read(path, *kinds)
    if meta["kind"] == "plant_model":
        return _plant_from_meta(meta, f.mgr, f), meta
    initial, _ = load(artifact_files(path, meta)[1], manager=f.mgr)
    return make_shell_ncs_model(meta, f.mgr, f, initial), meta


def load_plant_model(path):
    return load_model(path, ("plant_model",))


def load_ncs_model(path):
    return load_model(path, ("ncs_model",))


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
    """The layout keys that `make_shell_ncs_model` reads, for
    expanded-model and controller files alike."""
    b = model.bounds
    return {
        "tau": model.tau,
        "state_grid": _grid_meta(model.state_grid),
        "input_grid": _grid_meta(model.input_grid),
        "delays": {"nsc_min": b.nsc_min, "nsc_max": b.nsc_max,
                   "nca_min": b.nca_min, "nca_max": b.nca_max},
        "var_base": 0,  # variables start at id 0; kept for the file bytes
    }


def _sibling(path, tail):
    """`<stem>.<tail>` next to `path`."""
    return path.with_name(f"{path.stem}.{tail}")


def _read_sidecar(path):
    """Path and content of the mode automaton of controller `path`,
    refused unless each entry names its relation and goal files and a
    successor mode, and `mode_count` counts the entries."""
    sidecar = _sibling(path, "modes.json")
    try:
        with open(sidecar) as fh:
            content = json.load(fh)
    except FileNotFoundError:
        raise BddFileError(f"{path}: mode-switching controller without its "
                           f"mode automaton {sidecar}") from None
    except json.JSONDecodeError as exc:
        raise BddFileError(f"{sidecar}: not JSON: {exc}") from None
    modes = content.get("modes") if isinstance(content, dict) else None
    if not isinstance(modes, list) or not modes:
        raise BddFileError(f"{sidecar}: no list of mode entries")
    if content.get("mode_count") != len(modes):
        raise BddFileError(f"{sidecar}: mode_count "
                           f"{content.get('mode_count')!r} but "
                           f"{len(modes)} mode entries")
    for i, e in enumerate(modes):
        e = e if isinstance(e, dict) else {}
        for key in ("relation", "goal"):
            if not isinstance(e.get(key), str):
                raise BddFileError(f"{sidecar}: mode entry {i} has no "
                                   f"'{key}' file name")
        if type(e.get("next")) is not int or not 0 <= e["next"] < len(modes):
            raise BddFileError(f"{sidecar}: mode entry {i} has 'next' "
                               f"{e.get('next')!r}, not a mode in "
                               f"0..{len(modes) - 1}")
    return sidecar, content


def artifact_files(path, meta):
    """Every file of the model or controller whose root file is `path` and
    whose root metadata is `meta`, root first: what its save writes and
    what its load opens."""
    path = Path(path)
    if meta.get("kind") == "ncs_model":
        return [path, _sibling(path, "init" + path.suffix)]
    if not meta.get("dynamic"):
        return [path]
    sidecar, content = _read_sidecar(path)
    names = {e[k] for e in content["modes"] for k in ("relation", "goal")}
    return [path, *(path.with_name(n) for n in sorted(names - {path.name})),
            sidecar]


def save_ncs_model(model, path):
    """Write the relation and its initial states; returns the files
    written."""
    meta = {"kind": "ncs_model", "name": model.base_name,
            **layout_meta(model), "layout_version": LAYOUT_VERSION,
            "base_deterministic": model.base_deterministic,
            "marker_code": model.layout.marker_code,
            "var_roles": _var_roles_ncs(model.layout)}
    root, init = artifact_files(path, meta)
    save(model.trans, meta, root)
    save(model.initial, meta, init)
    return [root, init]


def _check_layout_version(meta, path):
    """Refuse files whose variables were laid out by another NcsLayout:
    decoding them with this one would read the wrong bits."""
    found = meta.get("layout_version")
    if found != LAYOUT_VERSION:
        raise BddFileError(
            f"{path}: expanded-model variable layout version {found!r}, "
            f"this ncsynth reads version {LAYOUT_VERSION}; re-run "
            f"`ncsynth expand` and the later stages to rebuild it")


def make_shell_ncs_model(meta, mgr=None, trans=None, initial=None):
    """The expanded model that `meta` describes.  Without `trans` and
    `initial` it is a carcass, as a controller file describes its model:
    layout, grids and bounds for simulation and decoding, no relation."""
    d = meta["delays"]
    bounds = DelayBounds(d["nsc_min"], d["nsc_max"], d["nca_min"], d["nca_max"])
    lay = NcsLayout(bounds, _grid_from_meta(meta["state_grid"]),
                    _grid_from_meta(meta["input_grid"]))
    mgr = _grown_manager(mgr, lay.var_count)
    return NcsModel(mgr=mgr, layout=lay, bounds=bounds,
                    trans=mgr.false if trans is None else trans,
                    initial=mgr.false if initial is None else initial,
                    base_name=meta.get("name", "plant"),
                    tau=meta.get("tau", 0.0),
                    base_deterministic=meta.get("base_deterministic", False))


def make_shell_plant_model(meta, mgr=None):
    total = 1 + max(v for vs in meta["vars"].values() for ids in vs for v in ids)
    mgr = _grown_manager(mgr, total)
    return _plant_from_meta(meta, mgr, mgr.false)


def save_controller(ctrl, path, extra_meta=None):
    """Relation plus, for mode-switching controllers, one file per mode
    relation and goal and a JSON sidecar listing the automaton.  The
    metadata describes `ctrl.model`; `extra_meta` adds keys such as the
    spec kind and the name.  Returns the files written."""
    path = Path(path)
    if isinstance(ctrl.model, NcsModel):
        meta = {"model_kind": "ncs", **layout_meta(ctrl.model),
                "layout_version": LAYOUT_VERSION}
    else:
        meta = {"model_kind": "plant", **_plant_keys(ctrl.model)}
    meta = {"kind": "controller", **meta, **(extra_meta or {}),
            "stats": {k: v for k, v in ctrl.stats.items()
                      if isinstance(v, (int, float, str, bool))},
            "dynamic": bool(ctrl.modes)}
    save(ctrl.relation, meta, path)
    if not ctrl.modes:
        return [path]
    files, sidecar = [path], {"mode_count": len(ctrl.modes), "modes": []}
    for i, mode in enumerate(ctrl.modes):
        rel = _sibling(path, f"m{i}{path.suffix}") if i else path
        goal = _sibling(path, f"goal{i}{path.suffix}")
        if i:
            save(mode.relation, meta, rel)
            files.append(rel)
        save(mode.goal, meta, goal)
        files.append(goal)
        sidecar["modes"].append({"relation": rel.name, "goal": goal.name,
                                 "next": mode.next_mode})
    files.append(_sibling(path, "modes.json"))
    with open(files[-1], "w") as fh:
        json.dump(sidecar, fh, indent=1)
    return files


def load_controller(path):
    path = Path(path)
    relation, meta = _read(path, "controller")
    mgr = relation.mgr
    model = (make_shell_ncs_model if meta.get("model_kind") == "ncs"
             else make_shell_plant_model)(meta, mgr)
    modes = None
    if meta.get("dynamic"):
        _, sidecar = _read_sidecar(path)
        modes = []
        for i, entry in enumerate(sidecar["modes"]):
            rel = (relation if i == 0
                   else load(path.with_name(entry["relation"]), manager=mgr)[0])
            goal = load(path.with_name(entry["goal"]), manager=mgr)[0]
            modes.append(Mode(relation=rel, goal=goal, next_mode=entry["next"]))
    return Controller.of(model, relation, dict(meta.get("stats", {})),
                         modes=modes), meta
