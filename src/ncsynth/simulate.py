"""Closed-loop simulation: plant, delayed channels, symbolic controller.

One sampling step runs sample -> deliver measurements -> control ->
deliver inputs -> actuate -> integrate; with this ordering a measurement
sent at step k reaches the controller at step k + N_sc and an input
chosen at step k reaches the hold at step k + N_ca, matching the shift
register semantics of the expanded model exactly.

Prolonged channels release every packet at exactly the channel maximum
(the buffering discipline that makes controller refinement sound); the
random mode exists for demonstration only and must be enabled explicitly.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import random
import struct
from collections import deque
from dataclasses import dataclass, field

from .grid import OutOfDomainError
from .plants import integrate


class DomainViolation(RuntimeError):
    """The closed loop left the controller's domain."""


class DelayChannel:
    """FIFO of (send time, payload) with per-packet delivery delay.

    prolonged: every packet is held until its age reaches n_max, so
    delivery time minus send time is exactly n_max, and FIFO order is
    preserved; send times must not decrease.  random: each packet draws a
    delay in [n_min, n_max].
    """

    def __init__(self, n_min, n_max, mode="prolonged", rng=None):
        if not (1 <= n_min <= n_max):
            raise ValueError("channel bounds must satisfy 1 <= min <= max")
        if mode not in ("prolonged", "random"):
            raise ValueError(f"unknown channel mode {mode!r}")
        self.n_min = n_min
        self.n_max = n_max
        self.mode = mode
        self.rng = rng
        self.queue = deque()        # (send_time, payload, delay)
        self.deliveries = []        # (send_time, deliver_time)

    def send(self, payload, t):
        if self.mode == "prolonged":
            if self.queue and t < self.queue[-1][0]:
                raise ValueError(f"send at {t} after a send at "
                                 f"{self.queue[-1][0]}: a prolonged channel "
                                 f"takes send times in order")
            delay = self.n_max
        else:
            delay = self.rng.randint(self.n_min, self.n_max)
        self.queue.append((t, payload, delay))

    def deliver(self, t):
        """Pop and return payloads whose delay elapses at time t, oldest
        send first."""
        queue = self.queue
        if self.mode == "prolonged":
            # one delay for all and send times in order: the packets due
            # are a prefix of the queue
            out = []
            while queue and t - queue[0][0] >= queue[0][2]:
                send_t, payload, _ = queue.popleft()
                out.append(payload)
                self.deliveries.append((send_t, t))
            return out
        out = []
        remaining = deque()
        for send_t, payload, delay in queue:
            if t - send_t >= delay:
                out.append((send_t, payload))
                self.deliveries.append((send_t, t))
            else:
                remaining.append((send_t, payload, delay))
        self.queue = remaining
        out.sort(key=lambda e: e[0])
        return [p for _, p in out]


class _Wire:
    """The link of a model without delay channels: a packet arrives in the
    step it is sent."""

    def send(self, payload, t):
        self.payload = payload

    def deliver(self, t):
        return [self.payload]


@dataclass
class StepRecord:
    k: int
    x: tuple                    # plant state, floats
    delivered: tuple            # measured cell index vector, or None
    chosen: tuple               # input index vector, or None
    applied: tuple              # input values held by the ZOH, floats
    mode: int


@functools.cache
def _packer(n):
    """The struct of n doubles."""
    return struct.Struct(f"{n}d")


def _bits(v):
    """Key of a float vector that tells apart any two vectors whose bits
    differ: 0.0 and -0.0 compare and hash equal but print apart."""
    return _packer(len(v)).pack(*v)


def _unbits(key):
    """The float vector whose `_bits` are `key`."""
    return _packer(len(key) // 8).unpack(key)


def _record_key(r):
    """A record's text after its k is a function of this key, x and
    applied holding floats as the closed loop writes them."""
    return (_bits(r.x), r.delivered, r.chosen, _bits(r.applied), r.mode)


def _per_distinct(records, render):
    """[render(r) for r in records], calling render once per distinct
    `_record_key`, and the number of distinct keys."""
    memo = {}
    out = []
    for r in records:
        key = _record_key(r)
        text = memo.get(key)
        if text is None:
            text = memo[key] = render(r)
        out.append(text)
    return out, len(memo)


@dataclass
class Trace:
    records: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def columns(self):
        """CSV column names, one per grid dimension of `meta`."""
        n = len(self.meta.get("state_npoints", []))
        m = len(self.meta.get("input_npoints", []))
        return (["k"] + [f"x{d}" for d in range(n)]
                + ["delivered_symbol", "chosen_input_symbol"]
                + [f"applied_u{d}" for d in range(m)] + ["mode"])

    def _tail(self, r):
        """Record r's values after k, in the order of `columns`."""
        meta = self.meta
        return [*r.x, _flat(r.delivered, meta["state_npoints"]),
                _flat(r.chosen, meta["input_npoints"]), *r.applied, r.mode]

    def rows(self):
        """Canonical flat rows: one dict per record, keyed by `columns`."""
        cols = self.columns()
        return [dict(zip(cols, [r.k, *self._tail(r)])) for r in self.records]


def _flat(idx, npoints):
    if idx is None:
        return -1
    flat = 0
    stride = 1
    for i, n in zip(idx, npoints):
        flat += i * stride
        stride *= n
    return flat


class ClosedLoop:
    """Simulation state for one plant/controller pair.

    With an expanded model the loop reconstructs the full register state
    every step and evaluates the controller on it; the delivered (aged)
    measurement is logged and drives mode switching.  A plain plant model
    has no delay channels: it is one state register and no input register,
    and the chosen input acts within the same step.

    Every pure per-step call is memoised per loop with `functools.cache`,
    since a deterministic controller soon revisits the same situations:
    the controller's input per (mode, register contents), its goal check
    per (mode, delivered cell), the cell of a state, the center of an input
    cell and the plant step per (state, held input cell).  The cell is
    keyed on the state's value, since equal floats lie in one cell; the
    plant step on the state's `_bits`, because 0.0 and -0.0 are equal keys
    of a dict but print apart.  A call that raises stores nothing, so it
    raises again.
    """

    def __init__(self, plant, controller, x0, u0=None, seed=0,
                 channel_mode="prolonged", unsafe=False):
        self.plant = plant
        self.controller = controller
        self.model = controller.model
        if self.model is None:
            raise ValueError("the controller carries no model")
        if channel_mode == "random" and not unsafe:
            raise ValueError(
                "random-delay channels void the refinement guarantee, which "
                "holds for prolonged (buffered, constant-delay) channels "
                "only; pass unsafe=True (--unsafe) to simulate anyway")
        self.channel_mode = channel_mode
        self.rng = random.Random(seed)
        self.seed = seed
        self.state_grid = self.model.state_grid
        self.input_grid = self.model.input_grid

        b = self.model.bounds
        if b is not None:
            self.sc = DelayChannel(b.nsc_min, b.nsc_max, channel_mode, self.rng)
            self.ca = DelayChannel(b.nca_min, b.nca_max, channel_mode, self.rng)
            self.s, self.c = b.nsc_max, b.nca_max
        else:
            self.sc, self.ca = _Wire(), _Wire()
            self.s, self.c = 1, 0

        self.x = tuple(float(v) for v in x0)
        self.k = 0
        self.mode = 0
        # the registers besides the newest sample, as `_pick` and
        # `encode_state` take them: x2..xs newest first (None until
        # sampled) and u1..uc (set with the initialization input)
        self._older = (None,) * (self.s - 1)
        self._outputs = ()
        # the memos of the class doc, shadowing the methods they wrap
        self._symbol = functools.cache(self.state_grid.point_to_symbol)
        self._center = functools.cache(self.input_grid.center)
        self._pick = functools.cache(self._pick)
        self._goal_hit = functools.cache(self._goal_hit)
        self._successor = functools.cache(self._successor)

        self._init_mode_and_u0(self._symbol(self.x), u0)
        # preload the actuation channel: the hold applies the
        # initialization input until the first real output arrives
        for age in range(self.c, 0, -1):
            self.ca.send(self.held, -age)

    # ------------------------------------------------------------------

    def _pick(self, mode, xs, outputs):
        """Input index vector chosen in `mode` at the registers xs and
        outputs of `encode_state`, or None when the mode admits no input
        there; the delay registers always take their defaults."""
        rel = self.controller.mode_relations()[mode]
        code = self.controller.pick_input(
            self.model.encode_state(xs, outputs), rel)
        return None if code is None else self.input_grid.unpack(code)

    def _goal_hit(self, mode, delivered):
        """Whether the delivered cell meets the goal of `mode`: goals
        constrain the newest-measurement register alone, so a hit is
        satisfiability after fixing the anchor bits to the cell."""
        anchor = self.model.anchor_set.assignment(delivered)
        return not self.controller.modes[mode].goal.restrict(anchor).is_false

    def _successor(self, x_key, held):
        """The plant step from the state whose `_bits` are x_key, with the
        center of input cell `held` in the hold."""
        # the module's name, looked up per call, so a patched one runs
        return integrate(self.plant, _unbits(x_key), self._center(held))

    def _init_mode_and_u0(self, x0_sym, u0):
        candidates = (list(self.input_grid.indices()) if u0 is None
                      else [self.input_grid.point_to_symbol(tuple(u0))])
        xs = (x0_sym,) + self._older
        for mode_idx, rel in enumerate(self.controller.mode_relations()):
            for u in candidates:
                self._outputs = (u,) * self.c
                a = self.model.encode_state(xs, self._outputs)
                if self.controller.pick_input(a, rel) is not None:
                    self.mode = mode_idx
                    self.held = u
                    return
        raise DomainViolation(
            f"initial state {x0_sym} admits no initialization input in any "
            f"controller mode")

    def step(self):
        """Advance one sampling period; returns the StepRecord."""
        k = self.k
        try:
            x_sym = self._symbol(self.x)
        except OutOfDomainError as exc:
            raise DomainViolation(f"step {k}: the plant state {self.x} left "
                                  f"the state grid ({exc})") from None

        self.sc.send(x_sym, k)
        arrivals = self.sc.deliver(k)
        delivered = arrivals[-1] if arrivals else None

        chosen = self._pick(self.mode, (x_sym,) + self._older, self._outputs)
        if chosen is None:
            raise DomainViolation(
                f"step {k}: controller mode {self.mode} has no input for the "
                f"expanded state with newest measurement {x_sym}")

        self.ca.send(chosen, k)
        u_arrivals = self.ca.deliver(k)
        if u_arrivals:
            self.held = u_arrivals[-1]

        x_next = self._successor(_bits(self.x), self.held)
        record = StepRecord(k=k, x=self.x, delivered=delivered, chosen=chosen,
                            applied=self._center(self.held), mode=self.mode)

        # bookkeeping for the next expanded state
        self._older = ((x_sym,) + self._older)[:self.s - 1]
        self._outputs = ((chosen,) + self._outputs)[:self.c]

        if self.controller.modes and delivered is not None:
            self._maybe_switch_mode(delivered, x_next)

        self.x = x_next
        self.k = k + 1
        return record

    def _maybe_switch_mode(self, delivered, x_next):
        if not self._goal_hit(self.mode, delivered):
            return
        nxt = self.controller.modes[self.mode].next_mode
        try:
            xs = (self._symbol(x_next),) + self._older
        except OutOfDomainError:
            return
        # the question step k + 1 asks in the new mode, so a hit there
        if self._pick(nxt, xs, self._outputs) is not None:
            self.mode = nxt

    def run(self, steps, stop=None):
        """Iterate `step`; the trace is fully determined by config + seed."""
        records = []
        for _ in range(steps):
            rec = self.step()
            records.append(rec)
            if stop is not None and stop(rec):
                break
        meta = {
            "plant": getattr(self.plant, "name", "plant"),
            "x0": list(records[0].x) if records else list(self.x),
            "seed": self.seed,
            "channel_mode": self.channel_mode,
            "state_npoints": list(self.state_grid.npoints),
            "input_npoints": list(self.input_grid.npoints),
        }
        return Trace(records=records, meta=meta)


# ----------------------------------------------------------------------
# trace export


def export_trace(trace, path):
    """Write a trace as JSON when `path` ends in .json, as CSV (columns of
    Trace.columns) otherwise; returns how many distinct records
    (`_record_key`) it rendered.

    The JSON text is exactly what ``json.dump(payload, fh, indent=1)``
    writes for the payload ``{"meta": ..., "records": [...]}``, and the
    CSV text what ``csv.writer`` writes for the rows of `Trace.rows`.
    Either format renders a record's text after k once per distinct
    `_record_key`, by ``json`` or ``csv`` itself, and the records that
    repeat it reuse that text.
    """
    if str(path).endswith(".json"):
        text, distinct = _json_text(trace)
        with open(path, "w") as fh:
            fh.write(text)
    else:
        text, distinct = _csv_text(trace)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return distinct


def _csv_line(values):
    """One row as csv.writer writes it; a float's str is its repr."""
    buf = io.StringIO()
    csv.writer(buf).writerow(values)
    return buf.getvalue()


def _csv_text(trace):
    lines, distinct = _per_distinct(
        trace.records, lambda r: _csv_line(trace._tail(r)))
    # csv.writer writes an int k as its str
    return (_csv_line(trace.columns())
            + "".join([f"{r.k},{line}"
                       for r, line in zip(trace.records, lines)]), distinct)


def _json_tail(r):
    """A record's text after its k: json's rendering of the other fields,
    re-indented to a record's depth in the payload."""
    text = json.dumps({"x": r.x, "delivered": r.delivered, "chosen": r.chosen,
                       "applied": r.applied, "mode": r.mode}, indent=1)
    return "," + text[1:].replace("\n", "\n  ")         # drop "{"


def _json_text(trace):
    head = json.dumps({"meta": trace.meta}, indent=1)[:-2]     # drop "\n}"
    if not trace.records:
        return head + ',\n "records": []\n}', 0
    tails, distinct = _per_distinct(trace.records, _json_tail)
    records = [f'{{\n   "k": {r.k}{tail}'
               for r, tail in zip(trace.records, tails)]
    return (head + ',\n "records": [\n  ' + ",\n  ".join(records)
            + "\n ]\n}"), distinct


def load_trace_csv(path):
    """Rows back as dicts with numeric types restored."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            row = {}
            for key, val in raw.items():
                if key in ("k", "delivered_symbol", "chosen_input_symbol", "mode"):
                    row[key] = int(val)
                else:
                    row[key] = float(val)
            rows.append(row)
    return rows


def load_trace_json(path):
    with open(path) as fh:
        payload = json.load(fh)
    records = [StepRecord(k=r["k"], x=tuple(r["x"]),
                          delivered=tuple(r["delivered"]) if r["delivered"] is not None else None,
                          chosen=tuple(r["chosen"]) if r["chosen"] is not None else None,
                          applied=tuple(r["applied"]), mode=r["mode"])
               for r in payload["records"]]
    return Trace(records=records, meta=payload["meta"])
