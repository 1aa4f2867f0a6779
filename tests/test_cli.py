import csv
import json
import os
import subprocess
import sys

import pytest

import cdnsim.assignment
import cdnsim.profiles
import cdnsim.simulation
from cdnsim import generate_users, optimize, replay
from cdnsim.cli import main
from cdnsim.rng import left_sum
from conftest import desk_topology, random_connected_topology

GRAPHML_3 = """<?xml version="1.0" encoding="utf-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <graph edgedefault="undirected">
    <node id="A"/><node id="B"/><node id="C"/>
    <edge source="A" target="B"/>
    <edge source="B" target="C"/>
  </graph>
</graphml>
"""


def graphml_for(topo) -> str:
    nodes = "".join(f'<node id="{n}"/>' for n in topo.node_ids)
    edges = "".join(
        f'<edge source="{a}" target="{b}"/>' for a, b, _ in topo.edges
    )
    return (
        '<?xml version="1.0" encoding="utf-8"?>'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
        f'<graph edgedefault="undirected">{nodes}{edges}</graph></graphml>'
    )


@pytest.fixture
def topo3(tmp_path):
    path = tmp_path / "topo3.graphml"
    path.write_text(GRAPHML_3)
    return path


@pytest.fixture
def topo12(tmp_path):
    topo = random_connected_topology(21, 12)
    path = tmp_path / "topo12.graphml"
    path.write_text(graphml_for(topo))
    return path


@pytest.fixture
def desk(tmp_path):
    path = tmp_path / "desk.graphml"
    path.write_text(graphml_for(desk_topology()))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestValidate:
    def test_ok(self, topo3, capsys):
        assert main(["validate", "--topology", str(topo3)]) == 0
        assert "3 nodes" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--topology", str(tmp_path / "nope.graphml")]) == 3

    def test_malformed(self, tmp_path):
        bad = tmp_path / "bad.graphml"
        bad.write_text("<graphml><graph>")
        assert main(["validate", "--topology", str(bad)]) == 1


class TestNonFiniteInput:
    """Infinite weights and priorities, a NaN or infinite Zipf exponent and
    finite values whose priority x distance overflows are configuration
    errors, not numbers to compute with."""

    def graphml(self, tmp_path, weight="1", priority="1"):
        path = tmp_path / "t.graphml"
        path.write_text(GRAPHML_3.replace(
            '<node id="A"/>',
            f'<node id="A"><data key="p">{priority}</data></node>').replace(
            '<edge source="A" target="B"/>',
            f'<edge source="A" target="B"><data key="w">{weight}</data></edge>'))
        return str(path)

    def test_validate_infinite_weight(self, tmp_path, capsys):
        topo = self.graphml(tmp_path, weight="inf")
        assert main(["validate", "--topology", topo, "--weight-key", "w"]) == 1
        assert capsys.readouterr().err == (
            "error: edge ('A', 'B') weight must be a finite real > 0, got inf\n")

    def test_place_infinite_priority(self, tmp_path, capsys):
        topo = self.graphml(tmp_path, priority="inf")
        argv = ["place", "--topology", topo, "--priority-key", "p", "--k", "1",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: node 'A' priority must be a finite real > 0, got inf\n"
        assert "objective" not in captured.out

    def test_place_overflowing_priority(self, tmp_path, capsys):
        # 1e308 x distance 2 is inf; no numpy overflow warning may come first
        topo = self.graphml(tmp_path, priority="1e308")
        argv = ["place", "--topology", topo, "--priority-key", "p", "--k", "1",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "priority x distance overflows" in captured.err
        assert "objective" not in captured.out
        assert not (tmp_path / "out").exists()

    def test_assign_overflowing_priority(self, tmp_path, capsys):
        # the placement loads, then relocating its server overflows
        placement = tmp_path / "placement.json"
        placement.write_text('["A"]')
        argv = ["assign", "--topology", self.graphml(tmp_path, priority="1e308"),
                "--priority-key", "p", "--placement", str(placement),
                "--universe", "5", "--profile-size", "3", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "priority x distance overflows" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "cache_size", "--values", "1,2"]],
                             ids=["run", "sweep"])
    def test_simulate_overflowing_network_load(self, tmp_path, sweep, capsys):
        # every distance is finite, but 300 requests of about 1e306 each are not
        graph = GRAPHML_3
        for end in ("B", "C"):  # the path A-B-C with weights 1e306
            graph = graph.replace(f'target="{end}"/>',
                                  f'target="{end}"><data key="w">1e306</data></edge>')
        path = tmp_path / "heavy.graphml"
        path.write_text(graph)
        out = tmp_path / "out"
        argv = ["simulate", "--topology", str(path), "--weight-key", "w", "--k", "1",
                "--universe", "3", "--profile-size", "2", "--out", str(out), *sweep]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: network load overflows to inf\n"
        assert "network_load" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_assign_non_finite_alpha(self, topo3, tmp_path, alpha, capsys):
        placement = tmp_path / "placement.json"
        placement.write_text('["A"]')
        argv = ["assign", "--topology", str(topo3), "--placement", str(placement),
                "--alpha", alpha, "--universe", "5", "--profile-size", "3",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: alpha must be a finite real >= 0, got {alpha}\n"

    def test_place_underflowing_alpha(self, topo3, tmp_path, capsys):
        """At alpha 300, 1/100^alpha is 0: profiles would like fewer services than asked."""
        argv = ["place", "--topology", str(topo3), "--k", "1", "--alpha", "300",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: alpha=300.0 is too large for n=100: "
                                "rank 100 underflows to 0\n")
        assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["validate", "--out", "x"],
    ["validate", "--seed", "1"],
    ["simulate", "--k", "2", "--scenario", "f.json"],
], ids=["validate-out", "validate-seed", "simulate-scenario"])
def test_flags_a_command_does_not_read_are_rejected(topo12, argv, capsys):
    # validate writes nothing and draws nothing; simulate reads no scenario file
    assert main([*argv, "--topology", str(topo12)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


class TestPlace:
    def test_three_node_fixture(self, topo3, tmp_path):
        out = tmp_path / "out"
        code = main(["place", "--topology", str(topo3), "--k", "1",
                     "--universe", "10", "--profile-size", "3",
                     "--out", str(out), "--seed", "1"])
        assert code == 0
        placement = json.loads((out / "placement.json").read_text())
        assert placement == ["B"]
        log = read_csv(out / "placement_log.csv")
        assert log[0] == ["iteration", "server", "from", "to", "max_dist", "avg_dist"]

    def test_infeasible_k(self, topo3, tmp_path):
        assert main(["place", "--topology", str(topo3), "--k", "99",
                     "--out", str(tmp_path)]) == 2

    def test_missing_topology_file(self, tmp_path):
        assert main(["place", "--topology", str(tmp_path / "gone.graphml"),
                     "--k", "1", "--out", str(tmp_path)]) == 3

    def test_bad_flag_value(self, topo3, tmp_path):
        assert main(["place", "--topology", str(topo3), "--k", "NaNopes",
                     "--out", str(tmp_path)]) == 1


class TestAssign:
    def test_identical_profiles_zero_moves(self, topo3, tmp_path):
        out = tmp_path / "out"
        placement_file = tmp_path / "placement.json"
        placement_file.write_text('["A", "C"]')
        # trace gives every node the same profile -> no reassignments
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "node_id,service_id,count\n"
            "A,x,3\nA,y,1\nB,x,3\nB,y,1\nC,x,3\nC,y,1\n"
        )
        code = main(["assign", "--topology", str(topo3),
                     "--placement", str(placement_file),
                     "--trace", str(trace), "--out", str(out)])
        assert code == 0
        log = read_csv(out / "assignment_log.csv")
        assert log[1][1] == "0"  # zero proposals in the terminating round
        rows = read_csv(out / "assignment.csv")
        assert rows[0] == ["user_node", "server_node", "rho", "distance"]
        assert len(rows) == 4

    def test_cluster_fixture_goes_pure(self, topo3, tmp_path):
        out = tmp_path / "out"
        placement_file = tmp_path / "placement.json"
        placement_file.write_text('["A", "C"]')
        trace = tmp_path / "trace.csv"
        # A and B share one interest, C the opposite; adversarial geometry
        trace.write_text(
            "node_id,service_id,count\n"
            "A,x,9\nA,y,1\nB,x,9\nB,y,1\nC,y,9\nC,x,1\n"
        )
        code = main(["assign", "--topology", str(topo3),
                     "--placement", str(placement_file),
                     "--trace", str(trace), "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "assignment.csv")[1:]
        servers = {u: s for u, s, _, _ in rows}
        assert servers["A"] == servers["B"] != servers["C"]

    def test_accepted_batch_prints_no_warning(self, topo3, tmp_path, capsys):
        out = tmp_path / "out"
        placement_file = tmp_path / "placement.json"
        placement_file.write_text('["A", "C"]')
        trace = tmp_path / "trace.csv"
        # B is equidistant and goes to A first, but shares C's interest
        trace.write_text(
            "node_id,service_id,count\n"
            "A,x,9\nA,y,1\nB,y,9\nB,x,1\nC,y,9\nC,x,1\n"
        )
        code = main(["assign", "--topology", str(topo3),
                     "--placement", str(placement_file),
                     "--trace", str(trace), "--out", str(out)])
        assert code == 0
        assert read_csv(out / "assignment_log.csv")[1][1:] == ["1", "2.0", "3.0", "True"]
        assert capsys.readouterr().err == ""

    def test_desk_instance_rho_column_and_rejected_batch_warning(self, desk, tmp_path, capsys):
        common = ["--topology", str(desk), "--seed", "124", "--out", str(tmp_path)]
        assert main(["place", "--k", "10", *common]) == 0
        capsys.readouterr()
        assert main(["assign", "--placement", str(tmp_path / "placement.json"),
                     *common]) == 0
        captured = capsys.readouterr()
        # the column reports the optimized coefficients: in file order they
        # sum to the printed objective exactly
        total = float(captured.out.split("total_corr: ")[1].split()[0])
        rows = read_csv(tmp_path / "assignment.csv")[1:]
        assert left_sum(float(rho) for _, _, rho, _ in rows) == total
        assert rows[0][:3] == ["n000", "n001", "0.501023102310231"]
        # the first batch proposes 118 moves, lowers the total and is rejected
        warnings = captured.err.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: the correlation greedy rejected "
                                      "its first batch of 118 moves")

    def test_bad_placement_reference(self, topo3, tmp_path):
        placement_file = tmp_path / "placement.json"
        placement_file.write_text('["Z"]')
        assert main(["assign", "--topology", str(topo3),
                     "--placement", str(placement_file),
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("entries", ['[["A"]]', '[{"a": 1}]', '["A", 1]'])
    def test_non_string_placement_entry(self, topo3, tmp_path, entries, capsys):
        placement_file = tmp_path / "placement.json"
        placement_file.write_text(entries)
        assert main(["assign", "--topology", str(topo3),
                     "--placement", str(placement_file),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: placement entries must be node id strings, not ")


@pytest.mark.parametrize("source", ["trace", "placement"])
def test_input_file_that_is_not_utf8(topo3, tmp_path, source, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b"node_id,service_id,count\nA,\xff,3\n")
    placement = tmp_path / "placement.json"
    placement.write_bytes(b'["A"\xff]')
    argv = {"trace": ["place", "--k", "1", "--trace", str(trace)],
            "placement": ["assign", "--placement", str(placement)]}[source]
    assert main([*argv, "--topology", str(topo3), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    message = {"trace": "trace is not UTF-8", "placement": "bad placement JSON"}[source]
    assert len(err) == 1 and err[0].startswith(f"error: {message}: ") and "0xff" in err[0]


@pytest.mark.parametrize("source", ["origin", "trace", "placement", "simulate_placement",
                                    "assign_trace", "simulate_trace", "pareto_trace"])
def test_unknown_node_from_outside_input(topo3, tmp_path, source, capsys):
    """A node the topology lacks, named by a flag, a trace row or a placement
    file, gets the one message `Topology.index` gives, whichever command reads it."""
    trace = tmp_path / "trace.csv"
    trace.write_text("node_id,service_id,count\nA,x,3\nZ,x,1\n")
    placement = tmp_path / "placement.json"
    placement.write_text('["Z"]')
    known = tmp_path / "known.json"
    known.write_text('["A"]')
    argv = {"origin": ["simulate", "--k", "1", "--origin", "Z"],
            "trace": ["place", "--k", "1", "--trace", str(trace)],
            "placement": ["assign", "--placement", str(placement)],
            "simulate_placement": ["simulate", "--placement", str(placement)],
            "assign_trace": ["assign", "--placement", str(known), "--trace", str(trace)],
            "simulate_trace": ["simulate", "--k", "1", "--trace", str(trace)],
            "pareto_trace": ["pareto", "--k", "1", "--trace", str(trace)]}[source]
    assert main([*argv, "--topology", str(topo3), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: unknown node 'Z'\n"


@pytest.mark.parametrize("command", ["assign", "simulate"])
@pytest.mark.parametrize("entries, message", [
    ('["A", "A"]', "placement contains duplicate nodes"),
    ("[]", "placement JSON must be a non-empty list of node ids"),
    ("{}", "placement JSON must be a non-empty list of node ids"),
])
def test_bad_placement_file(topo3, tmp_path, command, entries, message, capsys):
    """A placement file is read as JSON by the CLI and checked by the library,
    one message each, whichever command reads it."""
    placement = tmp_path / "placement.json"
    placement.write_text(entries)
    assert main([command, "--placement", str(placement), "--topology", str(topo3),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


class TestSimulate:
    def test_single_run(self, topo12, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--topology", str(topo12), "--k", "2",
                     "--capacity", "4", "--universe", "20", "--profile-size", "5",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "simulation.csv")
        assert rows[0][0] == "axis_value"
        assert len(rows) == 2

    def test_sweep_belady_monotone(self, topo12, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--topology", str(topo12), "--k", "2",
                     "--policy", "BELADY", "--universe", "20", "--profile-size", "5",
                     "--sweep", "cache_size", "--values", "1,2,4,8,12",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "simulation.csv")[1:]
        ratios = [float(r[1]) for r in rows]
        assert all(ratios[i] >= ratios[i + 1] for i in range(len(ratios) - 1))

    def test_empty_sweep_values(self, topo12, tmp_path, monkeypatch, capsys):
        """Values that parse to an empty list fail before any planning or run."""
        calls = []

        def counting(name, call):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return call(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cdnsim.assignment, "optimize", counting("optimize", optimize))
        monkeypatch.setattr(cdnsim.simulation, "optimize", counting("optimize", optimize))
        monkeypatch.setattr(cdnsim.simulation, "run", counting("run", cdnsim.simulation.run))
        for values in (",", " , "):
            assert main(["simulate", "--topology", str(topo12), "--k", "2",
                         "--sweep", "cache_size", "--values", values,
                         "--out", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err == "error: sweep needs at least one value\n"
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_server_count_sweep_plans_each_value_once(self, topo12, tmp_path, monkeypatch):
        planned = []

        def counting_optimize(*args, **kwargs):
            planned.append(kwargs["k"])
            return optimize(*args, **kwargs)

        monkeypatch.setattr(cdnsim.assignment, "optimize", counting_optimize)
        monkeypatch.setattr(cdnsim.simulation, "optimize", counting_optimize)
        assert main(["simulate", "--topology", str(topo12),
                     "--optimizer", "correlation", "--universe", "20", "--profile-size", "5",
                     "--sweep", "server_count", "--values", "1,2,3",
                     "--out", str(tmp_path)]) == 0
        assert planned == [1, 2, 3]

    @pytest.mark.parametrize("argv, planned, code, message", [
        (["--k", "2", "--sweep", "cache_size", "--values", "50,x"], 0, 1,
         "bad sweep value: invalid literal for int() with base 10: 'x'"),
        (["--k", "2", "--sweep", "cache_size", "--values", "50,100,0"], 1, 1,
         "cache capacity must be an int >= 1, got 0"),
        (["--k", "2", "--sweep", "policy", "--values", "LRU,LFU,lru"], 1, 1,
         "unknown policy 'lru'; one of ('LRU', 'LRU2', 'LFU', 'LIRS', 'BELADY')"),
        (["--sweep", "server_count", "--values", "2,3,999"], 3, 2, "k=999 out of range 1..12"),
        (["--sweep", "server_count", "--values", "2,3", "--requests", "50"], 0, 1,
         "requests_per_user must be an int >= 100, got 50"),
    ], ids=["unparsable", "capacity", "policy", "server_count", "server_count_base"])
    def test_a_bad_sweep_value_fails_before_any_replay(self, topo12, tmp_path, monkeypatch,
                                                       argv, planned, code, message, capsys):
        """An unparsable value fails before the plan, and every value is checked
        before the first replay."""
        plans, replays = [], []

        def counting_optimize(*args, **kwargs):
            plans.append(kwargs["k"])
            return optimize(*args, **kwargs)

        def counting_replay(*args):
            replays.append(args)
            return replay(*args)

        monkeypatch.setattr(cdnsim.assignment, "optimize", counting_optimize)
        monkeypatch.setattr(cdnsim.simulation, "optimize", counting_optimize)
        monkeypatch.setattr(cdnsim.simulation, "replay", counting_replay)
        assert main(["simulate", "--topology", str(topo12), "--universe", "20",
                     "--profile-size", "5", *argv, "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert (len(plans), replays) == (planned, [])

    def test_server_count_sweep_needs_no_k(self, topo12, tmp_path):
        common = ["simulate", "--topology", str(topo12), "--universe", "20",
                  "--profile-size", "5", "--sweep", "server_count", "--values", "1,2,3"]
        assert main([*common, "--k", "3", "--out", str(tmp_path / "k")]) == 1
        assert main([*common, "--out", str(tmp_path / "none")]) == 0
        assert not (tmp_path / "k" / "simulation.csv").exists()
        assert (tmp_path / "none" / "simulation.csv").exists()

    @pytest.mark.parametrize("axis, values, flag, value", [
        ("server_count", "1,2", "--k", "2"),
        ("server_count", "1,2", "--placement", None),  # None: a valid placement file
        ("policy", "LRU", "--policy", "LFU"),
        ("cache_size", "5", "--capacity", "77"),
    ], ids=["server_count-k", "server_count-placement", "policy-policy",
            "cache_size-capacity"])
    def test_sweep_rejects_the_flag_it_sets(self, topo12, tmp_path, axis, values, flag, value,
                                            capsys):
        # the swept values replace the flag's, which would be dropped unread
        placement = tmp_path / "placement.json"
        placement.write_text('["n00", "n05"]')
        k = [] if axis == "server_count" else ["--k", "2"]
        assert main(["simulate", "--topology", str(topo12), *k, "--sweep", axis,
                     "--values", values, flag, value or str(placement),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {flag} is not allowed with --sweep {axis}\n"
        assert not (tmp_path / "out").exists()

    def test_server_count_sweep_checks_its_values(self, topo12, tmp_path):
        assert main(["simulate", "--topology", str(topo12), "--sweep", "server_count",
                     "--values", "999", "--out", str(tmp_path)]) == 2

    def test_k_and_placement_exclude_each_other(self, topo12, tmp_path, capsys):
        placement = tmp_path / "placement.json"
        placement.write_text('["n00", "n05"]')
        common = ["simulate", "--topology", str(topo12), "--universe", "20",
                  "--profile-size", "5", "--out", str(tmp_path / "out")]
        assert main([*common, "--k", "9", "--placement", str(placement)]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "out" / "simulation.csv").exists()
        assert main([*common, "--placement", str(placement),
                     "--sweep", "server_count", "--values", "1,2"]) == 1

    @pytest.mark.parametrize("flag", ["--placement", "--trace"])
    def test_missing_input_file_is_an_io_failure(self, topo12, tmp_path, flag, capsys):
        missing = tmp_path / "gone"
        k = [] if flag == "--placement" else ["--k", "2"]  # --k excludes --placement
        assert main(["simulate", "--topology", str(topo12), *k, flag, str(missing),
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_needs_some_placement_source(self, topo12, tmp_path, capsys):
        assert main(["simulate", "--topology", str(topo12),
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: simulate needs --placement or --k\n"

    @pytest.mark.parametrize("values", [None, ""], ids=["absent", "empty"])
    def test_sweep_needs_values(self, topo12, tmp_path, values, capsys):
        flag = [] if values is None else ["--values", values]
        assert main(["simulate", "--topology", str(topo12), "--k", "2",
                     "--sweep", "cache_size", *flag, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: --sweep requires --values\n"
        assert not (tmp_path / "out").exists()

    def test_values_need_a_sweep(self, topo12, tmp_path, monkeypatch, capsys):
        """The sweep flags are checked before any profile is drawn."""
        drawn = []

        def counting_generate_users(*args):
            drawn.append(args)
            return generate_users(*args)

        monkeypatch.setattr(cdnsim.profiles, "generate_users", counting_generate_users)
        common = ["simulate", "--topology", str(topo12), "--k", "2", "--out", str(tmp_path)]
        assert main([*common, "--values", "1,2,banana"]) == 1
        assert capsys.readouterr().err == "error: --values requires --sweep\n"
        assert not (tmp_path / "simulation.csv").exists()
        assert drawn == []
        assert main([*common, "--sweep", "cache_size", "--values", "1"]) == 0
        assert len(drawn) == 1  # the counter sees the draw a valid run makes

    def test_an_unreadable_topology_fails_before_the_sweep_flags(self, tmp_path, capsys):
        """`main` reads --topology before the command runs, so a missing file
        is reported ahead of `--values` without `--sweep`."""
        assert main(["simulate", "--topology", str(tmp_path / "gone.graphml"), "--k", "2",
                     "--values", "1", "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")
        assert not (tmp_path / "out").exists()

    def test_desk_placement_runs_the_correlation_optimizer(self, desk, tmp_path):
        # --placement with --optimizer correlation simulates the plan `assign` writes
        common = ["--topology", str(desk), "--seed", "124"]
        assert main(["place", "--k", "10", *common, "--out", str(tmp_path)]) == 0
        placement = str(tmp_path / "placement.json")
        assert main(["assign", "--placement", placement, *common,
                     "--out", str(tmp_path)]) == 0
        out = tmp_path / "sim"
        assert main(["simulate", "--placement", placement, "--optimizer", "correlation",
                     *common, "--out", str(out)]) == 0
        avg_dist = float(read_csv(out / "simulation.csv")[1][3])
        distances = [float(r[3]) for r in read_csv(tmp_path / "assignment.csv")[1:]]
        assert avg_dist == sum(distances) / len(distances) == 1.9193548387096775

    def test_desk_correlation_warns_once_when_the_greedy_stalls(self, desk, tmp_path, capsys):
        assert main(["simulate", "--k", "10", "--optimizer", "correlation",
                     "--topology", str(desk), "--seed", "124", "--out", str(tmp_path)]) == 0
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: the correlation greedy rejected "
                                      "its first batch of 118 moves")


    @pytest.mark.parametrize("sweep", [[], ["--sweep", "policy", "--values", "LRU,LFU"]])
    def test_desk_unknown_origin_fails_before_planning(self, desk, tmp_path, sweep,
                                                       monkeypatch, capsys):
        """A bad origin, cache or request count fails when the scenario is built,
        before `optimize` runs; the correlation greedy stalls on this instance, so
        planning would warn first."""
        plans = []

        def counting_optimize(*args, **kwargs):
            plans.append(kwargs["k"])
            return optimize(*args, **kwargs)

        monkeypatch.setattr(cdnsim.assignment, "optimize", counting_optimize)
        for flags, message in [(["--origin", "Z"], "unknown node 'Z'"),
                               (["--capacity", "0"], "cache capacity must be an int >= 1, got 0"),
                               (["--requests", "50"],
                                "requests_per_user must be an int >= 100, got 50")]:
            assert main(["simulate", "--k", "10", "--optimizer", "correlation", *flags,
                         *sweep, "--topology", str(desk), "--seed", "124",
                         "--out", str(tmp_path)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert plans == []


class TestPareto:
    def test_steps_two_max_two_rows(self, topo12, tmp_path):
        out = tmp_path / "out"
        code = main(["pareto", "--topology", str(topo12), "--k", "2",
                     "--steps", "2", "--universe", "12", "--profile-size", "4",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "pareto.csv")
        assert rows[0] == ["avg_dist", "total_corr", "max_dist", "miss_ratio",
                           "placement", "seed", "step"]
        assert len(rows) - 1 <= 2
        assert all(r[3] == "" for r in rows[1:])  # miss_ratio stays empty

    @pytest.mark.parametrize("flag", [["--policy", "LRU"], ["--capacity", "5"],
                                      ["--origin", "n0"]])
    def test_simulation_flags_rejected(self, topo12, tmp_path, flag):
        # the front is not simulated, so pareto takes no cache or origin settings
        assert main(["pareto", "--topology", str(topo12), "--k", "2",
                     *flag, "--out", str(tmp_path)]) == 1

    def test_output_has_no_dominated_pair(self, topo12, tmp_path):
        out = tmp_path / "out"
        main(["pareto", "--topology", str(topo12), "--k", "2", "--steps", "25",
              "--universe", "12", "--profile-size", "4", "--seed", "4",
              "--out", str(out)])
        rows = read_csv(out / "pareto.csv")[1:]
        pts = [(float(r[0]), float(r[1])) for r in rows]
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                if i == j:
                    continue
                assert not (a[0] <= b[0] and a[1] >= b[1] and a != b)

    def test_seed_does_not_reach_the_walk(self, topo12, tmp_path):
        # a trace fixes the profiles, so the seed could only reach the front
        # through the walk; it is echoed in the seed column and nowhere else
        trace = tmp_path / "trace.csv"
        trace.write_text("node_id,service_id,count\n" + "".join(
            f"n{i:02d},s{(i + 7 * j) % 10},{1 + i * j % 7}\n"
            for i in range(12) for j in range(1, 5)))
        fronts = []
        for seed in ("5", "99"):
            out = tmp_path / f"out{seed}"
            assert main(["pareto", "--topology", str(topo12), "--k", "2", "--steps", "20",
                         "--trace", str(trace), "--seed", seed, "--out", str(out)]) == 0
            rows = read_csv(out / "pareto.csv")
            assert {r[5] for r in rows[1:]} == {seed}
            fronts.append([r[:5] + r[6:] for r in rows])
        assert fronts[0] == fronts[1]

    def test_one_step_fails_after_loading_and_leaves_no_out(self, topo12, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["pareto", "--topology", str(topo12), "--k", "2", "--steps", "1",
                     "--universe", "12", "--profile-size", "4", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: steps must be an int >= 2, got 1\n"
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["place", "--k", "1"],
    ["assign", "--placement", "{placement}"],
    ["simulate", "--k", "1"],
    ["pareto", "--k", "1", "--steps", "2"],
], ids=lambda argv: argv[0])
def test_out_naming_a_file_is_an_io_failure(topo3, tmp_path, argv, capsys):
    """The command's work succeeds, then --out cannot be a directory: exit 3,
    no summary on stdout, and the file is left as it was."""
    placement = tmp_path / "placement.json"
    placement.write_text('["A"]')
    out = tmp_path / "out"
    out.write_text("not a directory")
    argv = [str(placement) if a == "{placement}" else a for a in argv]
    assert main([*argv, "--topology", str(topo3), "--universe", "5", "--profile-size", "3",
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno 17] File exists")
    assert captured.out == ""
    assert out.read_text() == "not a directory"


class TestDeterminism:
    def test_rerun_byte_identical(self, topo12, tmp_path):
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = main(["simulate", "--topology", str(topo12), "--k", "2",
                         "--sweep", "cache_size", "--values", "1,2,4",
                         "--universe", "15", "--profile-size", "4",
                         "--seed", "9", "--out", str(out)])
            assert code == 0
            outputs.append((out / "simulation.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestProcess:
    """A `python -m cdnsim` process ends through `cli.main_and_exit`, which
    skips interpreter teardown: its piped output and exit code still arrive."""

    @staticmethod
    def cdnsim(*argv):
        # a pipe is block-buffered unless PYTHONUNBUFFERED is set
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return subprocess.run([sys.executable, "-m", "cdnsim", *argv],
                              capture_output=True, text=True, timeout=120, env=env)

    def test_piped_stdout_gets_every_line(self, topo12, tmp_path, capsys):
        argv = ["place", "--topology", str(topo12), "--k", "3"]
        proc = self.cdnsim(*argv, "--out", str(tmp_path / "process"))
        assert main([*argv, "--out", str(tmp_path / "in-process")]) == 0
        assert proc.returncode == 0
        assert proc.stdout == capsys.readouterr().out
        assert [line.split(":")[0] for line in proc.stdout.splitlines()] == ["placement",
                                                                           "objective"]
        for name in ("placement.json", "placement_log.csv"):
            assert ((tmp_path / "process" / name).read_bytes()
                    == (tmp_path / "in-process" / name).read_bytes())

    @pytest.mark.parametrize("argv, code, stream, text", [
        (["validate"], 0, "stdout", "topology ok: 3 nodes, 2 edges\n"),
        (["place", "--k", "x"], 1, "stderr", "error: argument --k: invalid int value"),
        (["place", "--k", "5"], 2, "stderr", "error: k=5 out of range 1..3\n"),
        (["validate", "--missing"], 3, "stderr", "error: [Errno 2]"),
        (["--help"], 0, "stdout", "usage: cdnsim"),
    ], ids=["ok", "bad_flag", "infeasible_k", "missing_topology", "help"])
    def test_exit_codes_come_through(self, topo3, tmp_path, argv, code, stream, text):
        if argv == ["validate", "--missing"]:
            argv = ["validate", "--topology", str(tmp_path / "missing.graphml")]
        elif argv != ["--help"]:
            argv = [*argv, "--topology", str(topo3)]
            if argv[0] == "place":
                argv += ["--out", str(tmp_path / "out")]
        proc = self.cdnsim(*argv)
        assert proc.returncode == code
        assert text in getattr(proc, stream)

