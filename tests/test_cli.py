import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import pxtmesh
from pxtmesh import experiments
from pxtmesh.cli import main
from pxtmesh.traffic import MAX_DEMANDS


@pytest.fixture
def runner():
    return CliRunner()


def run_cli_process(*args: str) -> subprocess.CompletedProcess:
    """`python -m pxtmesh.cli` in a child process, importing this checkout's pxtmesh."""
    src = str(Path(pxtmesh.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "pxtmesh.cli", *args], env=env,
                          capture_output=True, text=True, timeout=60)


class TestTopo:
    def test_builtin(self, runner):
        r = runner.invoke(main, ["topo", "--graph", "icosahedron"])
        assert r.exit_code == 0
        assert "12 nodes, 30 links, distance sum 108" in r.output

    def test_write_file(self, runner, tmp_path):
        out = tmp_path / "g.graph"
        r = runner.invoke(main, ["topo", "--graph", "k66", "--out", str(out)])
        assert r.exit_code == 0
        assert out.read_text().startswith("node a0")

    def test_unknown(self, runner):
        r = runner.invoke(main, ["topo", "--graph", "petersen"])
        assert r.exit_code == 2
        assert "neither a known topology nor a graph file" in r.output

    def test_murakami_needs_file(self, runner):
        r = runner.invoke(main, ["topo", "--graph", "murakami_kim"])
        assert r.exit_code == 2


class TestTraffic:
    def test_uniform_to_file(self, runner, tmp_path):
        out = tmp_path / "demands.txt"
        r = runner.invoke(main, ["traffic", "--graph", "k66", "--pattern", "uniform",
                                 "--out", str(out)])
        assert r.exit_code == 0
        assert "330 demands" in r.output
        assert out.read_text().splitlines()[0] == "demand a0 a1 5"

    def test_seeded_shuffle(self, runner):
        a = runner.invoke(main, ["traffic", "--graph", "k66", "--pattern", "neighbor",
                                 "--seed", "7"])
        b = runner.invoke(main, ["traffic", "--graph", "k66", "--pattern", "neighbor",
                                 "--seed", "7"])
        assert a.output == b.output

    def test_unbalanced_custom_large(self, runner):
        r = runner.invoke(main, ["traffic", "--graph", "k66", "--pattern", "unbalanced",
                                 "--large", "a0,a1,b0"])
        assert r.exit_code == 0

    def test_bad_large(self, runner):
        r = runner.invoke(main, ["traffic", "--graph", "k66", "--pattern", "unbalanced",
                                 "--large", "a0,a1,zz"])
        assert r.exit_code == 2


class TestRouteValidateSimulate:
    def test_round_trip(self, runner, tmp_path):
        plan_file = tmp_path / "plan.txt"
        r = runner.invoke(main, ["route", "--graph", "icosahedron", "--pattern",
                                 "neighbor", "--seed", "3", "--scheme", "pxt",
                                 "--out", str(plan_file)])
        assert r.exit_code == 0, r.output
        assert "working 300" in r.output
        v = runner.invoke(main, ["validate", "--graph", "icosahedron",
                                 "--plan", str(plan_file)])
        assert v.exit_code == 0, v.output
        assert "plan ok" in v.output
        assert "branch points: none" in v.output
        csv = tmp_path / "audit.csv"
        s = runner.invoke(main, ["simulate", "--graph", "icosahedron",
                                 "--plan", str(plan_file), "--csv", str(csv)])
        assert s.exit_code == 0, s.output
        assert "30 failures audited" in s.output
        assert csv.read_text().startswith("failure,affected")

    def test_validate_counts_trails_without_rule_d(self, runner, tmp_path):
        """A shared-path plan does not enforce rule d, so it keeps no trails;
        the count comes from the protection paths."""
        demands = tmp_path / "d.txt"
        demands.write_text("demand l0 l1 3\n")
        plan_file = tmp_path / "plan.txt"
        r = runner.invoke(main, ["route", "--graph", "icosahedron", "--demands", str(demands),
                                 "--scheme", "shared-path", "--out", str(plan_file)])
        assert r.exit_code == 0, r.output
        assert "enforce abc\n" in plan_file.read_text()
        v = runner.invoke(main, ["validate", "--graph", "icosahedron", "--plan", str(plan_file)])
        assert v.exit_code == 0, v.output
        assert v.output == ("plan ok: 3 demands, working 3, protection 6, total 9, "
                            "3 trails, branch points: none\n")

    def test_route_demands_file(self, runner, tmp_path):
        demands = tmp_path / "d.txt"
        demands.write_text("demand n s 2\ndemand u0 u1 1\n")
        r = runner.invoke(main, ["route", "--graph", "icosahedron",
                                 "--demands", str(demands), "--scheme", "one-plus-one"])
        assert r.exit_code == 0
        assert "3 demands routed" in r.output

    def test_route_needs_exactly_one_source(self, runner):
        r = runner.invoke(main, ["route", "--graph", "k66"])
        assert r.exit_code == 2

    def test_verbose_trace(self, runner):
        r = runner.invoke(main, ["route", "--graph", "k66", "--pattern", "neighbor",
                                 "--scheme", "pxt", "--verbose"])
        assert r.exit_code == 0
        assert "demand 0" in r.output

    def test_validate_rejects_bad_plan(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        # two copies on the same working route sharing one protection path
        bad.write_text(
            "pxtmesh-plan 1\nmode node\nenforce ab\n"
            "entry 0 n s | working n n~u0#0 u0 l0~u0#0 l0 l0~s#0 s "
            "| protection n n~u1#0 u1 l1~u1#0 l1 l1~s#0 s\n"
            "entry 1 n s | working n n~u0#1 u0 l0~u0#1 l0 l0~s#1 s "
            "| protection n n~u1#0 u1 l1~u1#0 l1 l1~s#0 s\n")
        r = runner.invoke(main, ["validate", "--graph", "icosahedron",
                                 "--plan", str(bad)])
        assert r.exit_code == 1
        assert "condition c" in r.output

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_malformed_plan_fails_without_traceback(self, tmp_path, command):
        bad = tmp_path / "bad.txt"
        bad.write_text("pxtmesh-plan 1\nmode\n")
        run = run_cli_process(command, "--graph", "k66", "--plan", str(bad))
        assert run.returncode == 1
        assert run.stderr == "error: unparseable plan: line 2: 'mode' needs an argument\n"
        assert "Traceback" not in run.stderr + run.stdout

    def test_refused_entry_names_its_line(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text(
            "pxtmesh-plan 1\nmode node\nenforce abcd\n"
            "entry 0 a0 b0 | working a0 a0~b0#0 b0 | protection a0 a0~b1#0 b1 a1~b1#0 a1 a1~b0#0 b0\n"
            "entry 9999 a0 b0 | working a0 a0~b0#0 b0 "
            "| protection a0 a0~b1#0 b1 a1~b1#0 a1 a1~b0#0 b0\n")
        run = run_cli_process("validate", "--graph", "k66", "--plan", str(bad))
        assert run.returncode == 1
        assert run.stderr == (
            "error: unparseable plan: line 5: condition b (demands 9999): working edge "
            "a0~b0#0 already working; condition c (demands 9999,0): shared protection edge "
            "a0~b1#0 but conflicting workings\n")

    def test_audit_error_names_its_failure_once(self, runner, tmp_path):
        # a link-mode plan swept for node failures: some protection path runs
        # through a transit node of its own working path
        plan_file = tmp_path / "plan.txt"
        r = runner.invoke(main, ["route", "--graph", "k66", "--pattern", "uniform",
                                 "--scheme", "pxt", "--mode", "link", "--out", str(plan_file)])
        assert r.exit_code == 0, r.output
        s = runner.invoke(main, ["simulate", "--graph", "k66", "--plan", str(plan_file),
                                 "--mode", "node"])
        assert s.exit_code == 1
        assert isinstance(s.exception, SystemExit)
        assert s.output == ("error: node:a0: protection of demand 285 is hit by the same "
                            "failure; working and protection were not disjoint\n")

    def test_resource_limit_exit_code(self, runner):
        r = runner.invoke(main, ["route", "--graph", "k66", "--pattern", "uniform",
                                 "--scheme", "pxt", "--max-work", "50"])
        assert r.exit_code == 3
        assert "work limit" in r.output


class TestRun:
    def test_csv_output(self, runner, tmp_path):
        r = runner.invoke(main, ["run", "--graph", "k66", "--pattern", "neighbor",
                                 "--scheme", "one-plus-one", "--seed", "1",
                                 "--out", str(tmp_path)])
        assert r.exit_code == 0, r.output
        csv = (tmp_path / "runs.csv").read_text()
        assert csv.splitlines()[0] == \
            "graph,pattern,scheme,seed,working,protection,total,runtime_ms"
        assert csv.splitlines()[1] == "k66,neighbor,one-plus-one,1,360,1080,1440,0"

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["run", "--graph", "icosahedron", "--pattern", "uniform",
                "--scheme", "pxt", "--seed", "42", "--runs", "2"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output

    def test_runs_must_be_positive(self, runner):
        for command in (["run", "--graph", "k66", "--pattern", "neighbor", "--scheme", "pxt"],
                        ["table1", "--pattern", "neighbor"]):
            r = runner.invoke(main, [*command, "--runs", "0"])
            assert r.exit_code == 2, r.output
            assert "Invalid value for '--runs': 0 is not in the range x>=1." in r.output


class TestTable1Command:
    def test_neighbor_only(self, runner, tmp_path):
        r = runner.invoke(main, ["table1", "--pattern", "neighbor", "--runs", "2",
                                 "--out", str(tmp_path)])
        assert r.exit_code == 0, r.output
        assert "NEIGHBOR" in r.output
        assert (tmp_path / "table1.txt").exists()
        csv = (tmp_path / "table1.csv").read_text()
        assert "neighbor,k66,working,360,360,exact" in csv


@pytest.mark.parametrize("scheme", ["shared-path", "one-plus-one"])
@pytest.mark.parametrize("command", ["route", "run"])
def test_baseline_without_disjoint_pair_fails_cleanly(runner, tmp_path, command, scheme):
    # on the path a-b-c no terminal pair has a disjoint pair: the baselines
    # report it as PXT reports no protection route, an error with exit 1
    graph = tmp_path / "path.graph"
    graph.write_text("node a\nnode b\nnode c\nlink a b\nlink b c\n")
    demands = tmp_path / "d.txt"
    demands.write_text("demand a c 1\n")
    source = ["--demands", str(demands)] if command == "route" else ["--pattern", "uniform"]
    r = runner.invoke(main, [command, "--graph", str(graph), *source, "--scheme", scheme])
    assert r.exit_code == 1, r.output
    assert isinstance(r.exception, SystemExit)
    assert "error: no node-disjoint path pair between a and" in r.output


@pytest.mark.parametrize("scheme", ["shared-path", "one-plus-one"])
def test_baseline_routes_pair_beside_pendant_node(runner, tmp_path, scheme):
    # d hangs off the triangle a-b-c, so no pair with d has a disjoint pair;
    # the demand a-b has one, and only demanded pairs matter
    graph = tmp_path / "pendant.graph"
    graph.write_text("node a\nnode b\nnode c\nnode d\n"
                     "link a b\nlink b c\nlink a c\nlink c d\n")
    demands = tmp_path / "d.txt"
    demands.write_text("demand a b 1\n")
    r = runner.invoke(main, ["route", "--graph", str(graph), "--demands", str(demands),
                             "--scheme", scheme])
    assert r.exit_code == 0, r.output
    assert "1 demands routed" in r.output
    assert "working 1, protection 2, total 3" in r.output


UNREADABLE_INPUTS = {
    "run --graph": ["run", "--graph", "{dir}", "--pattern", "neighbor"],
    "table1 --murakami-file": ["table1", "--pattern", "neighbor", "--runs", "1",
                               "--murakami-file", "{dir}"],
    "table1 --murakami-file missing": ["table1", "--pattern", "neighbor", "--runs", "1",
                                       "--murakami-file", "{dir}/missing.graph"],
    "validate --plan": ["validate", "--graph", "k66", "--plan", "{dir}"],
    "simulate --plan": ["simulate", "--graph", "k66", "--plan", "{dir}"],
    "route --demands": ["route", "--graph", "k66", "--demands", "{dir}"],
}


@pytest.mark.parametrize("name", UNREADABLE_INPUTS)
def test_unreadable_input_file_is_a_usage_error(runner, tmp_path, name):
    args = [a.format(dir=tmp_path) for a in UNREADABLE_INPUTS[name]]
    r = runner.invoke(main, args)
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert "error: " in r.output
    assert "Traceback" not in r.output
    # a child process shows what a user sees: CliRunner catches exceptions itself
    run = run_cli_process(*args)
    assert run.returncode == 2
    assert run.stderr.startswith("error: ")
    assert "Traceback" not in run.stderr + run.stdout


@pytest.mark.parametrize("args", [
    ["topo", "--graph", "{file}"],
    ["table1", "--pattern", "neighbor", "--runs", "1", "--murakami-file", "{file}"],
], ids=["topo --graph", "table1 --murakami-file"])
def test_malformed_graph_file_is_a_usage_error(tmp_path, args):
    # lines 3 and 4 are both wrong; the error names the earlier one
    f = tmp_path / "bad.graph"
    f.write_text("node a\nnode b\nlink a zz\nnode b\n")
    run = run_cli_process(*[a.format(file=f) for a in args])
    assert run.returncode == 2
    assert run.stderr == "error: line 3: unknown node zz in link\n"
    assert "Traceback" not in run.stderr + run.stdout


def test_table1_reads_murakami_file_before_the_first_row(runner, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "run_instance", lambda *a, **k: calls.append(a))
    r = runner.invoke(main, ["table1", "--runs", "1",
                             "--murakami-file", str(tmp_path / "missing.graph")])
    assert r.exit_code == 2, r.output
    assert "missing.graph" in r.output
    assert calls == []


def test_table1_working_mismatch_fails_cleanly(runner, monkeypatch):
    def run_instance(graph_name, g, pattern, scheme, seed, **kwargs):
        return SimpleNamespace(working=1 if scheme == "pxt" else 2, protection=0)

    monkeypatch.setattr(experiments, "run_instance", run_instance)
    r = runner.invoke(main, ["table1", "--pattern", "neighbor", "--runs", "1"])
    assert r.exit_code == 1, r.output
    assert isinstance(r.exception, SystemExit)
    assert "error: working bandwidth differs across schemes: {1, 2}\n" in r.output
    assert "Traceback" not in r.output


def test_demand_file_over_the_cap_is_a_usage_error(runner, tmp_path):
    demands = tmp_path / "d.txt"
    demands.write_text("demand a0 b0 999999999999\n")
    r = runner.invoke(main, ["route", "--graph", "k66", "--demands", str(demands)])
    assert r.exit_code == 2, r.output
    assert f"error: line 1: more than {MAX_DEMANDS} demands in one file" in r.output


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("option", ["--max-partial-paths", "--max-work"])
@pytest.mark.parametrize("command", [
    ["route", "--graph", "k66", "--pattern", "neighbor"],
    ["run", "--graph", "k66", "--pattern", "neighbor"],
    ["table1", "--pattern", "neighbor", "--runs", "1"],
], ids=lambda args: args[0])
def test_search_limits_must_be_positive(runner, command, option, value):
    # neither the default (0 used to stand for it) nor a crash in SearchLimits
    r = runner.invoke(main, [*command, option, value])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert f"Invalid value for '{option}': {value} is not in the range x>=1." in r.output
    assert "Traceback" not in r.output
