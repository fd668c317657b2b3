import inspect
import itertools

import pytest
from click.testing import CliRunner

from conftest import walk
from pxtmesh import experiments
from pxtmesh.cli import main
from pxtmesh.experiments import (
    CSV_HEADER,
    REFERENCE,
    run_instance,
    table1,
    traffic_spec,
)
from pxtmesh.graph import dump_graph
from pxtmesh.plan import AllocationPlan, Demand, PlanEntry, PlanError
from pxtmesh.topologies import standard_topology


class TestRunInstance:
    def test_one_plus_one_pinned_row(self, icosahedron):
        r = run_instance("icosahedron", icosahedron, "neighbor", "one-plus-one", 0)
        assert (r.working, r.protection) == (300, 600)
        assert r.total == 900
        assert r.runtime_ms == 0

    def test_pxt_row_and_audit(self, k66):
        r = run_instance("k66", k66, "neighbor", "pxt", 1)
        assert r.working == 360
        assert r.plan.validate() == []
        assert r.plan.branch_points() == set()

    def test_shared_path_only_d_violations(self, grid3x4):
        r = run_instance("grid3x4", grid3x4, "neighbor", "shared-path", 0)
        assert {v.condition for v in r.plan.validate()} <= {"d"}

    def test_measure_runtime(self, k66):
        r = run_instance("k66", k66, "neighbor", "one-plus-one", 0, measure_runtime=True)
        assert r.runtime_ms >= 0

    def test_working_equal_across_schemes(self, tietze):
        rows = [run_instance("tietze", tietze, "uniform", s, 3)
                for s in ("pxt", "one-plus-one", "shared-path")]
        assert len({r.working for r in rows}) == 1


def run_csv(tmp_path, *args: str) -> tuple[str, str]:
    """`pxtmesh run` with `args`: its summary line and the runs.csv it wrote."""
    r = CliRunner().invoke(main, ["run", *args, "--out", str(tmp_path)])
    assert r.exit_code == 0, r.output
    return r.output.splitlines()[0], (tmp_path / "runs.csv").read_text()


class TestRunExperiment:
    """One experiment instance over consecutive seeds, through `pxtmesh run`."""

    def test_csv_shape_and_determinism(self, tmp_path):
        args = ["--graph", "icosahedron", "--pattern", "neighbor", "--scheme", "pxt",
                "--seed", "5", "--runs", "2"]
        a = run_csv(tmp_path / "a", *args)[1]
        b = run_csv(tmp_path / "b", *args)[1]
        assert a == b
        lines = a.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("icosahedron,neighbor,pxt,5,300,")
        assert lines[1].endswith(",0")

    def test_seeds_vary_protection(self, tmp_path):
        csv = run_csv(tmp_path, "--graph", "k66", "--pattern", "uniform", "--scheme", "pxt",
                      "--seed", "0", "--runs", "3")[1]
        assert [row.split(",")[3] for row in csv.splitlines()[1:]] == ["0", "1", "2"]

    def test_summary_mentions_median(self, tmp_path):
        summary = run_csv(tmp_path, "--graph", "k66", "--pattern", "neighbor",
                          "--scheme", "one-plus-one", "--seed", "0", "--runs", "1")[0]
        assert "median" in summary

    def test_graph_file_path(self, tmp_path):
        f = tmp_path / "ico.graph"
        f.write_text(dump_graph(standard_topology("icosahedron")))
        csv = run_csv(tmp_path, "--graph", str(f), "--pattern", "neighbor",
                      "--scheme", "one-plus-one")[1]
        assert csv.splitlines()[1].split(",")[0] == "ico"


@pytest.fixture(scope="module")
def quick_report():
    # two seeds keep this fast; the acceptance suite runs the full ten
    return table1(runs=2, seed=0, patterns=("neighbor",))


class TestTable1:

    def test_shape(self, quick_report):
        assert len(quick_report.rows) == 6
        skipped = [r for r in quick_report.rows if r.skipped]
        assert [r.graph for r in skipped] == ["murakami_kim"]
        assert any("murakami" in n for n in quick_report.notices)

    def test_working_column_exact(self, quick_report):
        for row in quick_report.rows:
            if row.skipped:
                continue
            assert row.working.status == "exact"
            assert row.working.value == REFERENCE[(row.pattern, row.graph)][0]

    def test_one_plus_one_exact(self, quick_report):
        for row in quick_report.rows:
            if not row.skipped:
                assert row.one_plus_one.status == "exact"

    def test_render_and_csv(self, quick_report):
        text = quick_report.render()
        assert "NEIGHBOR" in text
        assert "skipped" in text
        csv = quick_report.to_csv()
        assert csv.splitlines()[0] == "pattern,graph,column,value,reference,status"
        # 6 rows x 4 columns
        assert len(csv.splitlines()) == 25

    def test_pattern_filter(self):
        report = table1(runs=1, patterns=("uniform",))
        assert {r.pattern for r in report.rows} == {"uniform"}


def test_traffic_spec_unknown_large():
    g = standard_topology("icosahedron")
    with pytest.raises(ValueError, match="no default large-node set"):
        traffic_spec("unbalanced", "mystery", 0)


# -- which rules check_plan judges a plan by -----------------------------------------

def _entry(did, u, v, working, protection):
    return PlanEntry(Demand(did, u, v), working, protection)


# on the five-node fixture (links AB, CD, CA, AE, EB, ED, DB): entries that
# break only the named rule, or (None) none, in node mode
RULE_BREAKERS = {
    None: [_entry(0, "A", "B", walk("A", ("A", "B", 0), "B"),
                  walk("A", ("A", "E", 0), "E", ("E", "D", 0), "D", ("D", "B", 0), "B")),
           _entry(1, "C", "D", walk("C", ("C", "D", 0), "D"),
                  walk("C", ("C", "A", 0), "A", ("A", "E", 0), "E", ("E", "D", 0), "D"))],
    # working and protection meet at E
    "a": [_entry(0, "A", "B", walk("A", ("A", "E", 0), "E", ("E", "B", 0), "B"),
                 walk("A", ("A", "E", 1), "E", ("E", "D", 1), "D", ("D", "B", 1), "B"))],
    # two workings on edge A~B#0
    "b": [_entry(0, "A", "B", walk("A", ("A", "B", 0), "B"),
                 walk("A", ("A", "E", 0), "E", ("E", "B", 0), "B")),
          _entry(1, "A", "B", walk("A", ("A", "B", 0), "B"),
                 walk("A", ("C", "A", 0), "C", ("C", "D", 0), "D", ("D", "B", 0), "B"))],
    # workings on the same link share one protection
    "c": [_entry(0, "A", "B", walk("A", ("A", "B", 0), "B"),
                 walk("A", ("A", "E", 0), "E", ("E", "B", 0), "B")),
          _entry(1, "A", "B", walk("A", ("A", "B", 1), "B"),
                 walk("A", ("A", "E", 0), "E", ("E", "B", 0), "B"))],
    # A~E#0 would be cross-connected at E to both E~B#0 and E~D#0
    "d": [_entry(0, "A", "B", walk("A", ("A", "B", 0), "B"),
                 walk("A", ("A", "E", 0), "E", ("E", "B", 0), "B")),
          _entry(1, "C", "D", walk("C", ("C", "D", 0), "D"),
                 walk("C", ("C", "A", 0), "A", ("A", "E", 0), "E", ("E", "D", 0), "D"))],
}
ENFORCE_SETS = ["".join(c) for n in range(5) for c in itertools.combinations("abcd", n)]


@pytest.fixture
def audited(monkeypatch):
    """The plans check_plan hands to audit(), which records them and passes."""
    calls = []
    monkeypatch.setattr(experiments, "audit", lambda plan, mode=None: calls.append(plan))
    return calls


def verdicts(g, rule, audited) -> dict[str, tuple[bool, bool]]:
    """Per enforce set, whether check_plan refuses the plan that breaks only
    `rule`, and whether it audits it.  The entries go in through add_entry
    under the other rules, and then the plan declares the whole set."""
    out = {}
    for enforce in ENFORCE_SETS:
        plan = AllocationPlan(g, mode="node", enforce=set(enforce) - {rule})
        for entry in RULE_BREAKERS[rule]:
            plan.add_entry(entry)
        plan.enforce = frozenset(enforce)
        assert {v.condition for v in plan.validate()} == ({rule} - {None})
        audited.clear()
        try:
            experiments.check_plan(plan)
            refused = False
        except PlanError as exc:
            assert {v.condition for v in exc.violations} == {rule}
            refused = True
        out[enforce] = refused, audited == [plan]
    return out


def expected_verdicts(rule) -> dict[str, tuple[bool, bool]]:
    """Rules a-c always refuse; rule d refuses where it is enforced; a plan
    that passes is audited exactly when it enforces d."""
    out = {}
    for enforce in ENFORCE_SETS:
        refused = rule in ("a", "b", "c") or (rule == "d" and "d" in enforce)
        out[enforce] = refused, not refused and "d" in enforce
    return out


@pytest.mark.parametrize("rule", ["a", "b", "c", "d", None])
def test_check_plan_judges_a_plan_by_the_rules_it_enforces(five_node, audited, rule):
    assert verdicts(five_node, rule, audited) == expected_verdicts(rule)


# (text in check_plan's source, what the mutant has in its place)
VALIDATED = "plan.validate(rule_d=enforces_d)"
AUDITED = "audit(plan) if enforces_d else None"
CHECK_PLAN_MUTANTS = {
    "drops rule a": (VALIDATED, f'[v for v in {VALIDATED} if v.condition != "a"]'),
    "drops rule b": (VALIDATED, f'[v for v in {VALIDATED} if v.condition != "b"]'),
    "drops rule c": (VALIDATED, f'[v for v in {VALIDATED} if v.condition != "c"]'),
    "drops rule d where enforced": ("rule_d=enforces_d", "rule_d=False"),
    "keeps rule d where not enforced": ("rule_d=enforces_d", "rule_d=True"),
    "audits every plan": (AUDITED, "audit(plan)"),
    "audits no plan": (AUDITED, "None"),
}


@pytest.mark.parametrize("old,new", CHECK_PLAN_MUTANTS.values(), ids=CHECK_PLAN_MUTANTS)
def test_rule_selection_test_catches_mutants(five_node, audited, monkeypatch, old, new):
    real = experiments.check_plan
    source = inspect.getsource(real)
    assert source.count(old) == 1
    monkeypatch.setattr(experiments, "check_plan", real)  # put back after the test
    exec(source.replace(old, new), vars(experiments))
    assert experiments.check_plan is not real
    assert any(verdicts(five_node, rule, audited) != expected_verdicts(rule)
               for rule in RULE_BREAKERS)


def test_check_plan_describes_no_rule_it_does_not_judge(five_node, monkeypatch):
    """A plan that does not enforce d is checked without describing its
    branch points: the five-node plan that breaks only rule d, declaring
    abc, passes with the rule-d describer made to raise."""
    plan = AllocationPlan(five_node, mode="node", enforce="abc")
    for entry in RULE_BREAKERS["d"]:
        plan.add_entry(entry)
    assert plan.branch_points() == {"E"}

    def describe(self, branched):
        raise AssertionError("rule d described for a plan that does not enforce it")

    monkeypatch.setattr(AllocationPlan, "_branch_violations", describe)
    assert experiments.check_plan(plan) is None
