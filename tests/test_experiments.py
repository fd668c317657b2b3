import pytest
from click.testing import CliRunner

from pxtmesh.cli import main
from pxtmesh.experiments import (
    CSV_HEADER,
    REFERENCE,
    run_instance,
    table1,
    traffic_spec,
)
from pxtmesh.graph import dump_graph
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
