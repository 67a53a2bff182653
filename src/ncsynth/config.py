"""Run configuration: one JSON document drives every pipeline stage."""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import re
from dataclasses import dataclass, field

from .grid import OutOfDomainError, UniformGrid
from .ncs import DelayBounds
from .plants import _BUILDERS


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


def _section(d, where, known):
    """Refuse `d` unless it is an object holding only the keys `known`."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in d:
        if key not in known:
            raise ConfigError(f"{where}.{key}: unknown key; {where} takes "
                              f"{sorted(known)}")


def _require(d, key, kind, where):
    if key not in d:
        raise ConfigError(f"{where}: missing required key {key!r}")
    v = d[key]
    if kind is float and type(v) in (int, float):
        v = _finite(v, f"{where}.{key}")
    # a JSON boolean is a Python int, but no key takes one here
    if type(v) is bool or not isinstance(v, kind):
        raise ConfigError(f"{where}.{key}: expected {kind.__name__}, "
                          f"got {type(v).__name__}")
    return v


def _finite(v, tag):
    """A JSON number as a float; NaN, Infinity and integers beyond the
    float range are refused."""
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise ConfigError(f"{tag}: expected a finite number, got "
                          f"{json.dumps(v)}")
    return f


def _vector(d, key, where, optional=False):
    if key not in d:
        if optional:
            return None
        raise ConfigError(f"{where}: missing required key {key!r}")
    v = d[key]
    if (not isinstance(v, list) or not v
            or not all(type(x) in (int, float) for x in v)):
        raise ConfigError(f"{where}.{key}: expected a nonempty number list")
    return tuple(_finite(x, f"{where}.{key}") for x in v)


def _boxes(d, key, where):
    boxes = d.get(key, [])
    if not isinstance(boxes, list):
        raise ConfigError(f"{where}.{key}: expected a list of [lo, hi] boxes")
    out = []
    for i, box in enumerate(boxes):
        tag = f"{where}.{key}[{i}]"
        if (not isinstance(box, list) or len(box) != 2):
            raise ConfigError(f"{tag}: expected [lo, hi] corner pair")
        lo = _vector({"lo": box[0]}, "lo", tag)
        hi = _vector({"hi": box[1]}, "hi", tag)
        if len(lo) != len(hi):
            raise ConfigError(f"{tag}: corner dimensions differ")
        out.append((lo, hi))
    return tuple(out)


def _grid(d, where):
    _section(d, where, ("lb", "ub", "eta"))
    lb = _vector(d, "lb", where)
    ub = _vector(d, "ub", where)
    eta = _vector(d, "eta", where)
    try:
        return UniformGrid(lb=lb, ub=ub, eta=eta)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class PlantConfig:
    name: str
    tau: float
    grid: UniformGrid
    input_grid: UniformGrid
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d):
        _section(d, "plant", ("name", "params", "tau", "grid", "input_grid"))
        name = _require(d, "name", str, "plant")
        if name not in _BUILDERS:
            raise ConfigError(f"plant.name: unknown plant {name!r}; have "
                              f"{sorted(_BUILDERS)}")
        params = {} if d.get("params") is None else d["params"]
        if not isinstance(params, dict):
            raise ConfigError("plant.params: expected an object")
        # tau comes from plant.tau; a value has the type of the builder's
        # default, where an int may stand for a float
        known = dict(inspect.signature(_BUILDERS[name]).parameters)
        del known["tau"]
        if params.keys() - known:
            raise ConfigError(f"plant.params: unknown keys "
                              f"{sorted(params.keys() - known)} for plant "
                              f"{name!r}, which takes {sorted(known)}")
        for key in params:
            _require(params, key, type(known[key].default), "plant.params")
        tau = _require(d, "tau", float, "plant")
        if tau <= 0:
            raise ConfigError(f"plant.tau: expected a positive sampling "
                              f"period, got {tau}")
        return cls(name=name, tau=tau,
                   grid=_grid(d.get("grid"), "plant.grid"),
                   input_grid=_grid(d.get("input_grid"), "plant.input_grid"),
                   params=params)


def _delays(d):
    keys = ("nsc_min", "nsc_max", "nca_min", "nca_max")
    _section(d, "delays", keys)
    vals = {key: _require(d, key, int, "delays") for key in keys}
    try:
        return DelayBounds(**vals)
    except ValueError as exc:
        raise ConfigError(f"delays: {exc}") from None


_SPEC_KINDS = ("safety", "reach", "persistence", "recurrence", "gen_buchi")


@dataclass(frozen=True)
class SpecConfig:
    kind: str
    targets: tuple = ()
    obstacles: tuple = ()
    safe: tuple = ()

    @classmethod
    def from_dict(cls, d):
        _section(d, "spec", ("kind", "targets", "obstacles", "safe"))
        kind = _require(d, "kind", str, "spec")
        if kind not in _SPEC_KINDS:
            raise ConfigError(f"spec.kind: {kind!r} is not one of {_SPEC_KINDS}")
        spec = cls(kind=kind,
                   targets=_boxes(d, "targets", "spec"),
                   obstacles=_boxes(d, "obstacles", "spec"),
                   safe=_boxes(d, "safe", "spec"))
        if kind in ("reach", "recurrence", "gen_buchi") and not spec.targets:
            raise ConfigError(f"spec: kind {kind!r} requires targets")
        if kind in ("safety", "persistence") and not (spec.safe or spec.obstacles):
            raise ConfigError(f"spec: kind {kind!r} requires safe boxes or "
                              f"obstacles")
        if kind == "recurrence" and spec.safe:
            raise ConfigError("spec.safe: kind 'recurrence' reads no safe boxes;"
                              " use obstacles, or gen_buchi with one target")
        return spec


@dataclass(frozen=True)
class SimConfig:
    steps: int = 100
    x0: tuple = ()
    seed: int = 0
    channel_mode: str = "prolonged"
    u0: tuple = None

    @classmethod
    def from_dict(cls, d):
        if d is None:
            return cls()
        _section(d, "sim", ("steps", "x0", "seed", "channel_mode", "u0"))
        mode = d.get("channel_mode", "prolonged")
        if mode not in ("prolonged", "random"):
            raise ConfigError(f"sim.channel_mode: unknown mode {mode!r}")
        steps = d.get("steps", 100)
        if type(steps) is not int or steps < 1:
            raise ConfigError(f"sim.steps: expected a positive integer, got "
                              f"{json.dumps(steps)}")
        return cls(steps=steps,
                   x0=_vector(d, "x0", "sim"),
                   seed=_require(d, "seed", int, "sim") if "seed" in d else 0,
                   channel_mode=mode,
                   u0=_vector(d, "u0", "sim", optional=True))


def _in_cells(point, grid, tag, where):
    """Refuse a point that has not the grid's dimension or lies in none of
    its cells."""
    try:
        grid.point_to_symbol(point)
    except (ValueError, OutOfDomainError) as exc:
        raise ConfigError(f"{tag}: not a point of {where}: {exc}") from None


# IEEE 1364-2005, Annex B: the emitted module is named after codegen.name
_VERILOG_KEYWORDS = frozenset("""
    always and assign automatic begin buf bufif0 bufif1 case casex casez cell
    cmos config deassign default defparam design disable edge else end
    endcase endconfig endfunction endgenerate endmodule endprimitive
    endspecify endtable endtask event for force forever fork function
    generate genvar highz0 highz1 if ifnone incdir include initial inout
    input instance integer join large liblist library localparam
    macromodule medium module nand negedge nmos nor noshowcancelled not
    notif0 notif1 or output parameter pmos posedge primitive pull0 pull1
    pulldown pullup pulsestyle_ondetect pulsestyle_onevent rcmos real
    realtime reg release repeat rnmos rpmos rtran rtranif0 rtranif1 scalared
    showcancelled signed small specify specparam strong0 strong1 supply0
    supply1 table task time tran tranif0 tranif1 tri tri0 tri1 triand trior
    trireg unsigned use uwire vectored wait wand weak0 weak1 while wire wor
    xnor xor""".split())


@dataclass(frozen=True)
class CodegenConfig:
    targets: tuple = ("c", "verilog")
    name: str = "controller"

    @classmethod
    def from_dict(cls, d):
        if d is None:
            return cls()
        _section(d, "codegen", ("targets", "name"))
        targets = d.get("targets", ["c", "verilog"])
        if not isinstance(targets, list):
            raise ConfigError("codegen.targets: expected a list")
        for t in targets:
            if t not in ("c", "verilog"):
                raise ConfigError(f"codegen.targets: unknown target {t!r}")
        # the name starts C and Verilog identifiers and the output files,
        # which are written in --out
        name = d.get("name", "controller")
        if not (isinstance(name, str)
                and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name)):
            raise ConfigError(f"codegen.name: {json.dumps(name)} is not a C "
                              f"identifier ([A-Za-z_][A-Za-z0-9_]*)")
        if name in _VERILOG_KEYWORDS:
            raise ConfigError(f"codegen.name: {name!r} is a Verilog reserved "
                              f"word")
        return cls(targets=tuple(targets), name=name)


@dataclass(frozen=True)
class RunConfig:
    plant: PlantConfig
    delays: DelayBounds
    spec: SpecConfig
    sim: SimConfig
    codegen: CodegenConfig
    report_reachable: bool = False
    raw: dict = field(default_factory=dict, compare=False)

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError("top level: expected a JSON object")
        unknown = set(d) - {"plant", "delays", "spec", "sim", "codegen",
                            "report_reachable"}
        if unknown:
            raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
        if "plant" not in d:
            raise ConfigError("missing required section 'plant'")
        if "delays" not in d:
            raise ConfigError("missing required section 'delays'")
        if "spec" not in d:
            raise ConfigError("missing required section 'spec'")
        if not isinstance(d.get("report_reachable", False), bool):
            raise ConfigError("report_reachable: expected true or false")
        plant = PlantConfig.from_dict(d["plant"])
        delays = _delays(d["delays"])
        spec = SpecConfig.from_dict(d["spec"])
        # a box may miss the grid's cells, but it must fit its dimensions
        for key in ("targets", "obstacles", "safe"):
            for i, box in enumerate(getattr(spec, key)):
                try:
                    plant.grid.box_index_ranges(*box)
                except ValueError as exc:
                    raise ConfigError(f"spec.{key}[{i}]: not a box of "
                                      f"plant.grid: {exc}") from None
        sim = SimConfig.from_dict(d.get("sim"))
        if sim.x0:
            _in_cells(sim.x0, plant.grid, "sim.x0", "plant.grid")
        if sim.u0 is not None:
            _in_cells(sim.u0, plant.input_grid, "sim.u0", "plant.input_grid")
        return cls(plant=plant, delays=delays, spec=spec, sim=sim,
                   codegen=CodegenConfig.from_dict(d.get("codegen")),
                   report_reachable=d.get("report_reachable", False),
                   raw=d)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        return cls.from_dict(raw)

    def sha256(self):
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()
