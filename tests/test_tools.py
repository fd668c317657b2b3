"""Smoke tests for the measurement scripts in tools/."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from pxtmesh import graph, router, traffic

TOOLS = Path(__file__).resolve().parents[1] / "tools"
PHASES = ["find_working", "collect_subtrails", "build_aux", "solve", "add_entry", "route_demand"]


def run_tool(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOLS / name), *args],
                          capture_output=True, text=True, timeout=60, check=False)


def test_phase_times_prints_each_phase_and_the_routed_plan():
    run = run_tool("phase_times.py", "--side", "3", "--seed", "4", "--passes", "2")
    assert run.returncode == 0, run.stderr
    head, *rows, digest = run.stdout.splitlines()
    assert head.startswith("3x3 link seed 4: 36 demands, median of 2 passes")
    times = {row.split()[0]: float(row.split()[1]) for row in rows}
    assert list(times) == PHASES and all(t > 0 for t in times.values())
    # the phases run inside the routing loop, and a median of two is a mean
    assert sum(times.values()) - times["route_demand"] < times["route_demand"]
    # the same order routed here, unwrapped, gives the plan it reports
    spec = importlib.util.spec_from_file_location("plan_memory", TOOLS / "plan_memory.py")
    plan_memory = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plan_memory)
    g = plan_memory.grid(graph, 3)
    state = router.RouterState(g, mode="link")
    for d in traffic.generate(g, traffic.uniform(1, seed=4)):
        router.route_demand(state, d)
    assert digest == f"sha256 {hashlib.sha256(state.plan.serialize().encode()).hexdigest()}"


@pytest.mark.parametrize("args", [["--side", "1"], ["--passes", "0"]])
def test_phase_times_refuses_bad_sizes(args):
    run = run_tool("phase_times.py", *args)
    assert run.returncode == 2 and "must be at least" in run.stderr


def test_plan_memory_prints_bytes_and_tracked_objects_per_entry():
    run = run_tool("plan_memory.py", "--side", "3", "--seed", "4")
    assert run.returncode == 0, run.stderr
    bytes_line, tracked_line = run.stdout.splitlines()
    assert bytes_line.startswith("3x3 link seed 4: 36 entries, ")
    assert bytes_line.endswith(" B per entry") and int(bytes_line.split()[-4]) > 0
    head, _, listed = tracked_line.partition(" (")
    total = float(head.removeprefix("gc-tracked per entry: "))
    per_type = {name: float(k) for k, name in (item.split() for item in
                                               listed.removesuffix(")").split(", "))}
    # each entry holds two walks and itself; each trail adds a canonical walk
    assert per_type["PlanEntry"] == 1.0 and per_type["Walk"] >= 2.0
    assert total == pytest.approx(sum(per_type.values()), abs=0.01 * len(per_type))
