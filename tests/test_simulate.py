import math
import random
import tempfile
from array import array
from collections import deque
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import trace_csv_text, trace_json_text
from ncsynth.abstraction import build_abstraction
from ncsynth.bdd import Manager
from ncsynth.grid import UniformGrid
from ncsynth.ncs import DelayBounds, expand, expand_spec_set
from ncsynth.plants import EXACT, PlantSpec, integrate, robot
from ncsynth.simulate import (ClosedLoop, DelayChannel, DomainViolation,
                              StepRecord, Trace, _bits, export_trace,
                              load_trace_csv, load_trace_json)
from ncsynth.synthesis import solve_reach, solve_safety


def line_plant():
    return PlantSpec(name="line", dim=1, input_dim=1,
                     rhs=lambda x, u: u, tau=1.0, growth=EXACT,
                     exact_step=lambda x, u, tau: (x[0] + u[0] * tau,))


def line_setup(n=8, bounds=(2, 2, 2, 2)):
    plant = line_plant()
    state = UniformGrid(lb=(0.0,), ub=(float(n),), eta=(1.0,))
    inputs = UniformGrid(lb=(-1.0,), ub=(1.0,), eta=(1.0,))
    ts = build_abstraction(plant, state, inputs)
    model = expand(ts, DelayBounds(*bounds))
    return plant, ts, model


class TestDelayChannel:
    def test_prolonged_exact_delivery(self):
        ch = DelayChannel(2, 2)
        out = []
        for t in range(10):
            ch.send(t, t)
            out.append(ch.deliver(t))
        assert out[0] == [] and out[1] == []
        assert [o[0] for o in out[2:]] == list(range(8))
        assert all(d - s == 2 for s, d in ch.deliveries)

    def test_prolonged_fifo(self):
        ch = DelayChannel(3, 3)
        for t in range(6):
            ch.send(f"p{t}", t)
        got = []
        for t in range(3, 9):
            got.extend(ch.deliver(t))
        assert got == [f"p{t}" for t in range(6)]

    def test_random_within_bounds(self):
        rng = random.Random(1)
        ch = DelayChannel(1, 3, mode="random", rng=rng)
        for t in range(200):
            ch.send(t, t)
            ch.deliver(t)
        for t in range(200, 210):
            ch.deliver(t)
        assert len(ch.deliveries) == 200
        assert all(1 <= d - s <= 3 for s, d in ch.deliveries)

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            DelayChannel(0, 2)

    def test_prolonged_refuses_send_times_out_of_order(self):
        ch = DelayChannel(2, 2)
        ch.send("a", 5)
        with pytest.raises(ValueError, match="in order"):
            ch.send("b", 4)


def scan_and_sort(queue, deliveries, t):
    """Reference delivery: scan the whole queue, sort what is due by send
    time.  Returns the payloads and the remaining queue."""
    out, remaining = [], deque()
    for send_t, payload, delay in queue:
        if t - send_t >= delay:
            out.append((send_t, payload))
            deliveries.append((send_t, t))
        else:
            remaining.append((send_t, payload, delay))
    out.sort(key=lambda e: e[0])
    return [p for _, p in out], remaining


@st.composite
def send_schedules(draw):
    """Channel bounds and mode, preloaded packets with ascending negative
    send times (as ClosedLoop loads the actuation channel), then events at
    nondecreasing times: each sends 0-2 packets and may deliver."""
    n_min = draw(st.integers(1, 4))
    n_max = draw(st.integers(n_min, 5))
    mode = draw(st.sampled_from(["prolonged", "random"]))
    preload = draw(st.integers(0, n_max))
    events, t = [], 0
    for _ in range(draw(st.integers(0, 25))):
        t += draw(st.integers(0, 3))
        events.append((t, draw(st.integers(0, 2)), draw(st.booleans())))
    return n_min, n_max, mode, preload, events


class TestDeliverAgainstScan:
    @settings(max_examples=200, deadline=None)
    @given(send_schedules(), st.integers(0, 2**16))
    def test_matches_scan_and_sort(self, schedule, seed):
        n_min, n_max, mode, preload, events = schedule
        ch = DelayChannel(n_min, n_max, mode, random.Random(seed))
        for age in range(preload, 0, -1):
            ch.queue.append((-age, f"pre{age}", n_max))
        ref_queue, ref_deliveries = deque(ch.queue), []
        for i, (t, sends, deliver) in enumerate(events):
            for j in range(sends):
                ch.send(f"p{i}.{j}", t)
                ref_queue.append(ch.queue[-1])
            if deliver:
                want, ref_queue = scan_and_sort(ref_queue, ref_deliveries, t)
                assert ch.deliver(t) == want
                assert ch.deliveries == ref_deliveries
                assert list(ch.queue) == list(ref_queue)


class TestClosedLoopNetworked:
    def controller(self, model, ts, lo, hi):
        target = expand_spec_set(ts.pre_set.empty().add_box((lo,), (hi,)), model)
        return solve_reach(model, target)

    def test_initial_blind_phase_and_hold(self):
        plant, ts, model = line_setup()
        c = self.controller(model, ts, 6.0, 8.0)
        loop = ClosedLoop(plant, c, x0=(2.0,), u0=(0.0,))
        trace = loop.run(6)
        assert trace.records[0].delivered is None
        assert trace.records[1].delivered is None
        assert trace.records[2].delivered == (2,)
        # the hold applies the initialization input while the pipe fills
        assert trace.records[0].applied == (0.0,)
        assert trace.records[1].applied == (0.0,)

    def test_choice_applied_two_steps_later(self):
        plant, ts, model = line_setup()
        c = self.controller(model, ts, 6.0, 8.0)
        loop = ClosedLoop(plant, c, x0=(2.0,), u0=(0.0,))
        trace = loop.run(10)
        grid = model.input_grid
        for k in range(len(trace.records) - 2):
            chosen_then = grid.center(trace.records[k].chosen)
            assert trace.records[k + 2].applied == chosen_then

    def test_reaches_target(self):
        plant, ts, model = line_setup()
        c = self.controller(model, ts, 6.0, 8.0)
        loop = ClosedLoop(plant, c, x0=(1.0,), u0=(0.0,))
        trace = loop.run(20, stop=lambda r: 6.0 <= r.x[0] <= 8.0)
        assert any(6.0 <= r.x[0] for r in trace.records)

    def test_same_seed_identical_traces(self, tmp_path):
        plant, ts, model = line_setup()
        c = self.controller(model, ts, 6.0, 8.0)
        blobs = []
        for run in range(2):
            loop = ClosedLoop(plant, c, x0=(2.0,), u0=(0.0,), seed=7)
            trace = loop.run(12, stop=lambda r: r.x[0] >= 6.0)
            p = tmp_path / f"t{run}.csv"
            export_trace(trace, p)
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]

    def test_domain_violation_outside(self):
        plant, ts, model = line_setup()
        # target reachable only from its right, start far left with walls:
        # make an unwinnable start by restricting the safe region instead
        c = self.controller(model, ts, 6.0, 8.0)
        # x0 = 0 is in the domain here, so force a violation via a
        # controller whose domain excludes the start
        safe = expand_spec_set(ts.pre_set.empty().add_box((6.0,), (8.0,)), model)
        tight = solve_safety(model, safe)
        with pytest.raises(DomainViolation):
            ClosedLoop(plant, tight, x0=(0.0,))

    def test_plant_leaving_the_grid_is_a_domain_violation(self):
        plant, ts, model = line_setup()
        c = self.controller(model, ts, 6.0, 8.0)
        # the controller was made for a plant that moves at most 1 a period
        fast = PlantSpec(name="fast", dim=1, input_dim=1,
                         rhs=lambda x, u: (5.0,), tau=1.0, growth=EXACT,
                         exact_step=lambda x, u, tau: (x[0] + 5.0,))
        loop = ClosedLoop(fast, c, x0=(2.0,), u0=(0.0,))
        with pytest.raises(DomainViolation,
                           match=r"step 2: the plant state \(12\.0,\) left"):
            loop.run(5)

    def test_random_mode_needs_unsafe_flag(self):
        plant, ts, model = line_setup()
        c = self.controller(model, ts, 6.0, 8.0)
        with pytest.raises(ValueError, match="prolonged"):
            ClosedLoop(plant, c, x0=(2.0,), channel_mode="random")
        loop = ClosedLoop(plant, c, x0=(2.0,), u0=(0.0,),
                          channel_mode="random", unsafe=True, seed=3)
        loop.run(5)

    def test_delivery_exactness_in_loop(self):
        plant, ts, model = line_setup()
        c = self.controller(model, ts, 6.0, 8.0)
        loop = ClosedLoop(plant, c, x0=(2.0,), u0=(0.0,))
        loop.run(15, stop=lambda r: r.x[0] >= 6.0)
        for s, d in loop.sc.deliveries:
            assert d - s == 2
        for s, d in loop.ca.deliveries:
            assert d - s == 2


class TestClosedLoopSafety:
    def test_safety_controller_never_leaves_safe(self):
        plant, ts, model = line_setup(n=10)
        safe_box = ts.pre_set.empty().add_box((2.0,), (8.0,))
        c = solve_safety(model, expand_spec_set(safe_box, model))
        assert not c.is_empty
        rng = random.Random(4)
        ran = 0
        for _ in range(12):
            x0 = float(rng.randint(2, 8))
            try:
                loop = ClosedLoop(plant, c, x0=(x0,))
            except DomainViolation:
                continue
            trace = loop.run(60)
            ran += 1
            for r in trace.records:
                cell = model.state_grid.point_to_symbol(r.x)
                assert 2 <= cell[0] <= 8
        assert ran >= 1


class TestModeProgression:
    def test_mode_changes_only_on_delivered_goal(self):
        from ncsynth.synthesis import solve_gen_buchi
        plant, ts, model = line_setup(n=9)
        t1 = expand_spec_set(ts.pre_set.empty().add_box((8.0,), (9.0,)), model)
        t2 = expand_spec_set(ts.pre_set.empty().add_box((0.0,), (1.0,)), model)
        c = solve_gen_buchi(model, [t1, t2])
        assert len(c.modes) == 2
        loop = ClosedLoop(plant, c, x0=(4.0,))
        trace = loop.run(120)
        switches = 0
        boxes = [(8.0, 9.0), (0.0, 1.0)]
        for prev, cur in zip(trace.records, trace.records[1:]):
            if cur.mode != prev.mode:
                switches += 1
                # goal of the mode being left, checked on the delivered cell
                lo, hi = boxes[prev.mode]
                assert prev.delivered is not None
                center = model.state_grid.center(prev.delivered)[0]
                assert lo <= center <= hi, (prev.k, prev.delivered)
        assert switches >= 4
        # both ends visited repeatedly
        xs = [r.x[0] for r in trace.records]
        assert sum(1 for v in xs if v >= 8) >= 2
        assert sum(1 for v in xs if v <= 1) >= 2


class TestDelayRegisterDefaults:
    def test_modes_and_goals_are_cylinders_over_the_delay_registers(self):
        """The closed loop encodes the delay registers at the channel
        maxima (`encode_state`'s defaults), also with time-varying delays.
        That is exact: within the state domain no mode relation or goal
        depends on them, so every register value gets the same answer."""
        from ncsynth.synthesis import solve_gen_buchi
        plant, ts, model = line_setup(n=6, bounds=(1, 2, 1, 2))
        ends = [ts.pre_set.empty().add_box((1.0,), (1.0,)),
                ts.pre_set.empty().add_box((5.0,), (5.0,))]
        c = solve_gen_buchi(model, [expand_spec_set(t, model) for t in ends])
        assert len(c.modes) == 2
        lay = model.layout
        delay_vars = [v for reg in lay.dsc_pre + lay.dca_pre for v in reg]
        # the relation reads them; the winning predicates do not
        assert set(delay_vars) & set(model.trans.support())
        for f in c.mode_relations() + [m.goal for m in c.modes]:
            assert not f.is_false
            assert f == f.exists(delay_vars) & model.state_domain


@pytest.fixture(scope="class")
def buchi_line():
    """Two-mode gen_buchi controller on the 1-D line at delays (2,2,1,1):
    the closed loop shuttles between the ends and so revisits its states."""
    from ncsynth.synthesis import solve_gen_buchi
    plant, ts, model = line_setup(n=9, bounds=(2, 2, 1, 1))
    ends = [ts.pre_set.empty().add_box((8.0,), (9.0,)),
            ts.pre_set.empty().add_box((0.0,), (1.0,))]
    c = solve_gen_buchi(model, [expand_spec_set(t, model) for t in ends])
    assert len(c.modes) == 2
    return plant, model, c


def loop_registers(model, trace, x_end):
    """Register contents (xs, us) the controller sees at each step k of a
    trace, k = 0..len(trace), rebuilt from the trace alone; x_end is the
    state after the last step."""
    grid, b = model.state_grid, model.bounds
    records = trace.records
    syms = [grid.point_to_symbol(r.x) for r in records]
    syms.append(grid.point_to_symbol(x_end))
    # the hold applies the initialization input until the first output
    u0 = model.input_grid.point_to_symbol(records[0].applied)
    outputs = [r.chosen for r in records]
    regs = []
    for k in range(len(syms)):
        xs = tuple(syms[k - i] if k - i >= 0 else None
                   for i in range(b.nsc_max))
        us = tuple(outputs[k - 1 - j] if k - 1 - j >= 0 else u0
                   for j in range(b.nca_max))
        regs.append((xs, us))
    return regs


def float_bits(v):
    return array("d", v).tobytes()


def signed_line_plant():
    """The line plant's step x + u, computed as -(-x - u): the same values,
    but 1 - 1 gives -0.0, and each zero stays itself under input 0."""
    return PlantSpec(name="signed", dim=1, input_dim=1,
                     rhs=lambda x, u: u, tau=1.0, growth=EXACT,
                     exact_step=lambda x, u, tau: (-(-x[0] - u[0] * tau),))


class TestMemoisedDecisions:
    """Long closed loops against the unmemoised controller questions."""

    STEPS = 1200

    def goal_hit(self, model, c, mode, delivered):
        goal = c.modes[mode].goal
        return not goal.restrict(model.anchor_set.assignment(delivered)).is_false

    def test_matches_unmemoised_reference(self, buchi_line):
        plant, model, c = buchi_line
        loop = ClosedLoop(plant, c, x0=(4.0,))
        trace = loop.run(self.STEPS)
        regs = loop_registers(model, trace, loop.x)
        records = trace.records
        assert len(records) == self.STEPS
        for k, r in enumerate(records):
            code = c.pick_input(model.encode_state(*regs[k]),
                                c.modes[r.mode].relation)
            assert code is not None
            assert r.chosen == model.input_grid.unpack(code), k
        switches = 0
        for k, (r, nxt) in enumerate(zip(records, records[1:])):
            expected = r.mode
            if r.delivered is not None and self.goal_hit(model, c, r.mode,
                                                         r.delivered):
                succ = c.modes[r.mode].next_mode
                a = model.encode_state(*regs[k + 1])
                if c.pick_input(a, c.modes[succ].relation) is not None:
                    expected = succ
            assert nxt.mode == expected, k
            switches += nxt.mode != r.mode
        assert switches >= 20

    def test_each_question_asked_once(self, buchi_line, monkeypatch):
        plant, model, c = buchi_line
        picks = []
        restricts = []
        pick_input, restrict = c.pick_input, c.mgr.restrict

        def counted_pick(assignment, relation=None):
            picks.append(1)
            return pick_input(assignment, relation)

        def counted_restrict(f, assignment):
            restricts.append(1)
            return restrict(f, assignment)

        monkeypatch.setattr(c, "pick_input", counted_pick)
        monkeypatch.setattr(c.mgr, "restrict", counted_restrict)
        loop = ClosedLoop(plant, c, x0=(4.0,))
        init_picks = len(picks)
        trace = loop.run(self.STEPS)
        n_picks, n_restricts = len(picks), len(restricts)

        regs = loop_registers(model, trace, loop.x)
        keys = set()
        goals = set()
        for k, r in enumerate(trace.records):
            keys.add((r.mode, regs[k]))
            if r.delivered is None:
                continue
            goals.add((r.mode, r.delivered))
            if self.goal_hit(model, c, r.mode, r.delivered):
                keys.add((c.modes[r.mode].next_mode, regs[k + 1]))
        assert n_picks == init_picks + len(keys)
        assert n_restricts == len(goals)
        # the loop settles into a cycle, so keys repeat many times over
        assert len(keys) < self.STEPS // 4

    def test_successors_match_integrate_bit_for_bit(self, buchi_line):
        _, _, c = buchi_line
        plant = signed_line_plant()
        loop = ClosedLoop(plant, c, x0=(0.0,))
        trace = loop.run(self.STEPS)
        xs = [r.x for r in trace.records] + [loop.x]
        for k, r in enumerate(trace.records):
            assert (float_bits(xs[k + 1])
                    == float_bits(integrate(plant, r.x, r.applied))), k
        # both zeros meet the same held input, where a step memo keyed on
        # == hands one of them the other's successor
        zeros = {(float_bits(r.x), r.applied) for r in trace.records
                 if r.x == (0.0,)}
        assert {(float_bits((0.0,)), (0.0,)),
                (float_bits((-0.0,)), (0.0,))} <= zeros


class TestOneStepDelayEquivalence:
    def test_matches_shifted_hand_loop(self):
        """With both delays at one sample, the networked loop must follow
        x_{k+1} = x_k + u_{k-1}, with u_k drawn from the controller at the
        expanded state (x_k, u_{k-1}); checked against an independent
        reimplementation."""
        plant, ts, model = line_setup(bounds=(1, 1, 1, 1))
        target = expand_spec_set(ts.pre_set.empty().add_box((6.0,), (8.0,)), model)
        c = solve_reach(model, target)
        loop = ClosedLoop(plant, c, x0=(2.0,), u0=(0.0,))
        steps = 9
        trace = loop.run(steps, stop=lambda r: r.x[0] >= 6.0)

        grid = model.state_grid
        ugrid = model.input_grid
        x, u_prev = (2.0,), (1,)          # index of input value 0.0
        xs, chosen = [], []
        for _ in range(len(trace.records)):
            sym = grid.point_to_symbol(x)
            a = model.encode_state((sym,), (u_prev,))
            code = c.pick_input(a)
            assert code is not None
            u_idx = (code,) if ugrid.bits[0] else (0,)
            # decode packed code to the per-dimension index
            u_idx = (code & ((1 << ugrid.bits[0]) - 1),)
            xs.append(x)
            chosen.append(u_idx)
            x = (x[0] + ugrid.center(u_prev)[0],)
            u_prev = u_idx
        assert [r.x for r in trace.records] == xs
        assert [r.chosen for r in trace.records] == chosen


class TestDirectLoop:
    def test_matches_hand_rolled_loop(self):
        plant = line_plant()
        state = UniformGrid(lb=(0.0,), ub=(8.0,), eta=(1.0,))
        inputs = UniformGrid(lb=(-1.0,), ub=(1.0,), eta=(1.0,))
        ts = build_abstraction(plant, state, inputs)
        target = ts.pre_set.empty().add_box((7.0,), (8.0,))
        c = solve_reach(ts, target.chi)

        loop = ClosedLoop(plant, c, x0=(1.0,))
        trace = loop.run(10, stop=lambda r: r.x[0] >= 7.0)

        # independent reimplementation of the direct semantics
        x = (1.0,)
        xs = []
        for _ in range(len(trace.records)):
            cell = state.point_to_symbol(x)
            a = {}
            for ids, i in zip(ts.pre_set.var_ids, cell):
                for b, v in enumerate(ids):
                    a[v] = (i >> b) & 1
            code = c.pick_input(a)
            assert code is not None
            u = inputs.center(tuple(
                (code >> sum(inputs.bits[:d])) & ((1 << inputs.bits[d]) - 1)
                for d in range(inputs.dim)))
            xs.append(x)
            x = (x[0] + u[0],)
        assert [r.x for r in trace.records] == xs


class TestTraceExport:
    def make_trace(self):
        plant, ts, model = line_setup()
        target = expand_spec_set(ts.pre_set.empty().add_box((6.0,), (8.0,)), model)
        c = solve_reach(model, target)
        loop = ClosedLoop(plant, c, x0=(2.0,), u0=(0.0,))
        return loop.run(8)

    def test_csv_round_trip(self, tmp_path):
        trace = self.make_trace()
        p = tmp_path / "trace.csv"
        export_trace(trace, p)
        rows = load_trace_csv(p)
        assert rows == trace.rows()
        header = p.read_text().splitlines()[0]
        assert header.startswith("k,x0,delivered_symbol,chosen_input_symbol")

    def test_csv_header_always_emitted(self, tmp_path):
        trace = Trace(records=[], meta={"state_npoints": [9], "input_npoints": [3]})
        p = tmp_path / "empty.csv"
        export_trace(trace, p)
        lines = p.read_text().splitlines()
        assert len(lines) == 1 and lines[0].split(",")[0] == "k"

    def test_row_count_is_step_count(self, tmp_path):
        trace = self.make_trace()
        p = tmp_path / "t.csv"
        export_trace(trace, p)
        assert len(load_trace_csv(p)) == len(trace.records) == 8

    def test_json_round_trip(self, tmp_path):
        trace = self.make_trace()
        p = tmp_path / "trace.json"
        export_trace(trace, p)
        back = load_trace_json(p)
        assert back.records == trace.records
        assert back.meta == trace.meta


EDGE_FLOATS = [-0.0, 0.0, 1e-07, 1e16, 0.1 + 0.2, math.nan, math.inf, -math.inf]
trace_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


@st.composite
def traces(draw):
    """Traces of 1-3 state and input dimensions: edge floats, missing
    delivered and chosen vectors, a plant name with quotes and non-ASCII
    text."""
    state_np = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    input_np = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))

    def index(npoints):
        return st.one_of(st.none(), st.tuples(*[st.integers(0, n - 1)
                                                for n in npoints]))

    records = []
    for k in range(draw(st.integers(0, 6))):
        records.append(StepRecord(
            k=k,
            x=tuple(draw(st.lists(trace_floats, min_size=len(state_np),
                                  max_size=len(state_np)))),
            delivered=draw(index(state_np)), chosen=draw(index(input_np)),
            applied=tuple(draw(st.lists(trace_floats, min_size=len(input_np),
                                        max_size=len(input_np)))),
            mode=draw(st.integers(0, 3))))
    name = draw(st.one_of(st.just('robot "ärm" \\ ☃'), st.text(max_size=8)))
    meta = {"plant": name, "x0": list(records[0].x) if records else [0.5],
            "seed": draw(st.integers(-3, 2**40)), "channel_mode": "prolonged",
            "state_npoints": state_np, "input_npoints": input_np}
    return Trace(records=records, meta=meta)


@st.composite
def vector_pairs(draw):
    """A float vector and a copy of it with one entry negated, one entry
    redrawn, or nothing changed."""
    a = draw(st.lists(trace_floats, max_size=4))
    b = list(a)
    if b:
        i = draw(st.integers(0, len(b) - 1))
        change = draw(st.sampled_from(["none", "negate", "redraw"]))
        if change == "negate":
            b[i] = -b[i]
        elif change == "redraw":
            b[i] = draw(trace_floats)
    return a, b


class TestBitKey:
    """The closed loop's memos key a float vector on its bits."""

    @given(vector_pairs())
    @example(([0.0], [-0.0]))
    @example(([math.nan, 1.0], [math.nan, 1.0]))
    def test_key_separates_vectors_whose_bits_differ(self, pair):
        a, b = pair
        assert ((_bits(tuple(a)) == _bits(tuple(b)))
                == (float_bits(a) == float_bits(b)))


class TestWritersAgainstLibrary:
    """export_trace writes what json.dump(..., indent=1) and csv.DictWriter
    write for the same trace."""

    @settings(max_examples=150, deadline=None)
    @given(traces())
    @example(Trace(records=[], meta={"plant": "empty", "state_npoints": [3],
                                     "input_npoints": [2, 2]}))
    @example(Trace(  # equal (==) records that print apart, then NaNs
        records=[StepRecord(k=k, x=(z, 1.0), delivered=(0, 1), chosen=(1,),
                            applied=(-z,), mode=0)
                 for k, z in enumerate([0.0, -0.0, 0.0, -0.0])]
        + [StepRecord(k=k, x=(float("nan"), -0.0), delivered=None,
                      chosen=None, applied=(float("nan"),), mode=1)
           for k in (4, 5)],
        meta={"plant": "zeros", "state_npoints": [2, 2],
              "input_npoints": [2]}))
    def test_bytes_equal_library_rendering(self, trace):
        with tempfile.TemporaryDirectory() as d:
            export_trace(trace, Path(d) / "t.json")
            export_trace(trace, Path(d) / "t.csv")
            json_bytes = (Path(d) / "t.json").read_bytes()
            csv_bytes = (Path(d) / "t.csv").read_bytes()
        assert json_bytes == trace_json_text(trace).encode()
        assert csv_bytes == trace_csv_text(trace).encode()
