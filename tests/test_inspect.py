import io

import pytest

from ncsynth.abstraction import build_abstraction, remove_region
from ncsynth.bdd import Manager
from ncsynth.bddfile import BddFileError, save
from ncsynth.grid import UniformGrid
from ncsynth.inspect_tools import (bdd_dump, cont_coverage, explore_controller,
                                   explore_model, explorer_repl, read_fsm,
                                   read_fsm_csv, transition_rows, write_fsm)
from ncsynth.modelio import (load_plant_model, save_controller,
                             save_ncs_model, save_plant_model)
from ncsynth.ncs import DelayBounds, expand, expand_spec_set
from ncsynth.plants import robot
from ncsynth.simulate import ClosedLoop
from ncsynth.synthesis import solve_reach, solve_safety

from conftest import build_explicit_ts, state_set_to_bdd


def planar_model(n=8, obstacles=()):
    plant = robot(tau=1.0)
    sg = UniformGrid(lb=(0.0, 0.0), ub=(float(n), float(n)), eta=(1.0, 1.0))
    ig = UniformGrid(lb=(-1.0, -1.0), ub=(1.0, 1.0), eta=(1.0, 1.0))
    ts = build_abstraction(plant, sg, ig)
    if obstacles:
        region = ts.pre_set.empty()
        for lo, hi in obstacles:
            region = region.add_box(lo, hi)
        ts = remove_region(ts, region)
    return plant, ts


class TestFsmExport:
    def test_empty_relation_header_only(self, tmp_path):
        mgr = Manager()
        ts = build_explicit_ts(mgr, 2, 1, {})
        p = tmp_path / "empty.csv"
        n = write_fsm(ts, p)
        assert n == 0
        header, rows = read_fsm_csv(p)
        assert header == ["pre_x0", "in_u0", "post_x0"]
        assert rows == []

    def test_row_count_matches_sat_count(self, tmp_path):
        _, ts = planar_model(5)
        p = tmp_path / "rel.csv"
        n = write_fsm(ts, p)
        assert n == ts.n_transitions()
        _, rows = read_fsm_csv(p)
        assert len(rows) == n
        assert rows == sorted(rows)

    def test_reimport_equals_relation(self, tmp_path):
        _, ts = planar_model(5)
        p = tmp_path / "rel.csv"
        write_fsm(ts, p)
        _, rows = read_fsm_csv(p)
        expected = {(pre[0], pre[1], u[0], u[1], post[0], post[1])
                    for pre, u, post in ts.transitions()}
        assert set(rows) == expected

    def test_fsm_text_format(self, tmp_path):
        mgr = Manager()
        ts = build_explicit_ts(mgr, 3, 2, {(0, 1): {2}, (2, 0): {0}})
        p = tmp_path / "rel.fsm"
        write_fsm(ts, p, fmt="fsm")
        header, rows = read_fsm(p)
        assert header == [("pre_x0", 3), ("in_u0", 2), ("post_x0", 3)]
        assert set(rows) == {(0, 1, 2), (2, 0, 0)}

    def test_expanded_model_columns(self, tmp_path):
        mgr = Manager()
        ts = build_explicit_ts(mgr, 2, 2, {(0, 0): {1}, (1, 1): {0}})
        model = expand(ts, DelayBounds(2, 2, 1, 1))
        p = tmp_path / "ncs.csv"
        n = write_fsm(model, p)
        header, rows = read_fsm_csv(p)
        assert header == ["pre_x1_0", "pre_x2_0", "pre_u1_0", "pre_dsc1",
                          "pre_dsc2", "pre_dca1", "in_u0", "post_x1_0",
                          "post_x2_0", "post_u1_0", "post_dsc1", "post_dsc2",
                          "post_dca1"]
        assert len(rows) == n == model.n_transitions()
        # initialization rows carry the -1 marker
        assert any(-1 in row for row in rows)


class TestDump:
    def test_reports_written_fields(self, tmp_path):
        _, ts = planar_model(5)
        p = tmp_path / "plant.bdd"
        save_plant_model(ts, p)
        report = bdd_dump(p)
        assert "kind: plant_model" in report
        assert "sampling period: 1.0" in report
        assert "eta=[1.0, 1.0]" in report
        assert f"satisfying assignments over support: {ts.n_transitions()}" in report

    def test_node_count_matches_engine(self, tmp_path):
        mgr = Manager(var_count=6)
        f = mgr.from_minterms(range(6), [1, 5, 9, 33, 60])
        p = tmp_path / "f.bdd"
        save(f, {"kind": "set"}, p)
        report = bdd_dump(p)
        fresh = Manager(var_count=6)
        g = fresh.from_minterms(range(6), [1, 5, 9, 33, 60])
        assert f"nodes: {fresh.node_count()}" in report

    def test_unknown_version_explicit_error(self, tmp_path):
        p = tmp_path / "bad.bdd"
        p.write_bytes(b"SNSB\x07\x00" + b"\x00" * 16)
        with pytest.raises(BddFileError, match="version"):
            bdd_dump(p)


class TestCoverage:
    def test_full_domain_all_hash(self):
        _, ts = planar_model(4)
        c = solve_safety(ts, ts.state_domain)
        art = cont_coverage(c)
        lines = art.splitlines()
        assert len(lines) == 5 and all(len(l) == 5 for l in lines)
        assert set("".join(lines)) == {"#"}

    def test_empty_all_dots(self):
        _, ts = planar_model(4)
        c = solve_safety(ts, ts.mgr.false)
        art = cont_coverage(c)
        assert set("".join(art.splitlines())) == {"."}

    def test_obstacle_holes_match_boxes(self):
        obstacles = [((2.0, 2.0), (3.0, 4.0))]
        _, ts = planar_model(6, obstacles)
        c = solve_safety(ts, ts.state_domain)
        art = cont_coverage(c)
        lines = art.splitlines()
        # row for y = j is lines[npoints-1-j]
        for j in range(7):
            for i in range(7):
                ch = lines[6 - j][i]
                if 2 <= i <= 3 and 2 <= j <= 4:
                    assert ch == "."
                else:
                    assert ch == "#", (i, j)

    def test_needs_two_dims(self):
        mgr = Manager()
        ts = build_explicit_ts(mgr, 4, 2, {(0, 0): {1}})
        c = solve_safety(ts, ts.state_domain)
        with pytest.raises(ValueError):
            cont_coverage(c)


class TestExplorer:
    def test_empty_sequence_echoes_state(self):
        _, ts = planar_model(4)
        assert explore_model(ts, (2, 2), []) == []

    def test_deterministic_singletons(self):
        _, ts = planar_model(6)
        # inputs indexed 0..2 per dim: 2 = move +1, 1 = stay
        out = explore_model(ts, (1, 1), [2, 2, 2, 2, 2, 1])
        assert out == [{(2, 2)}, {(3, 3)}, {(4, 3)}]
        assert all(len(s) == 1 for s in out)

    def test_blocking_gives_empty_set(self):
        _, ts = planar_model(4)
        out = explore_model(ts, (0, 0), [0, 1])   # move -1 in x at the wall
        assert out == [set()]

    def test_controller_lookup(self):
        _, ts = planar_model(6)
        target = ts.pre_set.empty().add_box((5.0, 5.0), (6.0, 6.0))
        c = solve_reach(ts, target.chi)
        inputs = explore_controller(c, (4, 4))
        assert inputs and (2, 2) in inputs

    def test_out_of_domain_says_no_input(self):
        _, ts = planar_model(6)
        target = ts.pre_set.empty().add_box((5.0, 5.0), (6.0, 6.0))
        c = solve_reach(ts, target.chi)
        blocked = solve_safety(ts, ts.mgr.false)
        assert explore_controller(blocked, (4, 4)) is None

    def test_expanded_controller_reads_its_own_model(self):
        # rows and coverage cells are those of the expanded model the
        # controller was synthesized on: its newest state register
        _, ts = planar_model(6)
        model = expand(ts, DelayBounds(1, 1, 1, 1))
        target = expand_spec_set(
            ts.pre_set.empty().add_box((5.0, 5.0), (6.0, 6.0)), model)
        c = solve_reach(model, target)
        assert c.model is model
        row = (4, 4, 1, 1, 1, 1)    # x1, u1 (held input: stay), dsc1, dca1
        assert explore_controller(c, row) == [(2, 2)]
        lines = cont_coverage(c).splitlines()
        assert len(lines) == 7 and all(len(l) == 7 for l in lines)
        for j in range(7):
            for i in range(7):
                cell = model.anchor_set.empty().add_box((i, j), (i, j)).chi
                covered = not (c.domain & cell).is_false
                assert lines[6 - j][i] == ("#" if covered else "."), (i, j)

    def test_repl_protocol(self):
        _, ts = planar_model(6)
        target = ts.pre_set.empty().add_box((5.0, 5.0), (6.0, 6.0))
        c = solve_reach(ts, target.chi)
        stdin = io.StringIO("1 1\n1 1 2 2\n? 4 4\nquit\n")
        stdout = io.StringIO()
        explorer_repl(ts, c, stdin=stdin, stdout=stdout)
        out = stdout.getvalue()
        assert "state: (1, 1)" in out
        assert "after input 1: (2, 2)" in out
        assert "inputs:" in out

    def test_repl_no_input_response(self):
        _, ts = planar_model(6)
        blocked = solve_safety(ts, ts.mgr.false)
        stdin = io.StringIO("? 3 3\nq\n")
        stdout = io.StringIO()
        explorer_repl(ts, blocked, stdin=stdin, stdout=stdout)
        assert "no input" in stdout.getvalue()

    def test_multi_step_matches_explicit_bfs(self):
        import random
        rng = random.Random(61)
        trans = {}
        for x in range(6):
            for u in range(3):
                if rng.random() < 0.2:
                    continue
                trans[(x, u)] = {rng.randrange(6)
                                 for _ in range(1 + (rng.random() < 0.5))}
        mgr = Manager()
        ts = build_explicit_ts(mgr, 6, 3, trans)
        seq = [rng.randrange(3) for _ in range(4)]
        got = explore_model(ts, (2,), seq)
        cur = {2}
        for k, u in enumerate(seq):
            cur = {xp for x in cur for xp in trans.get((x, u), ())}
            assert got[k] == {(x,) for x in cur}

    def test_expanded_model_exploration(self):
        mgr = Manager()
        ts = build_explicit_ts(mgr, 3, 2, {(0, 0): {1}, (1, 0): {2}, (2, 0): {0},
                                           (0, 1): {0}, (1, 1): {1}, (2, 1): {2}})
        model = expand(ts, DelayBounds(1, 1, 1, 1))
        # expanded state: x1, u1, dsc1, dca1
        out = explore_model(model, [0, 1, 1, 1], [0])
        # applied input is the buffered one (1: stay), label becomes new u1
        assert out == [{(0, 0, 1, 1)}]
