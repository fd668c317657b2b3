"""Acceptance suite: one test per release criterion, each printing a PASS line
(run with -s to watch them go by; a failed assertion is the FAIL line).

The trail-scheme experiment runs here use link-disjointness, which is what
reproduces the published protection figures; the baselines use node-disjoint
pairs as published.  Routing rules a-d are enforced incrementally on every
insertion, so a violating prefix cannot be constructed; on top of that the
full from-scratch validation is re-run on every prefix for two seeds per
instance and on sampled prefixes plus the final plan for the rest.
"""

import random
import time

import pytest
from click.testing import CliRunner

from pxtmesh.baselines import route_1plus1, route_shared_path
from pxtmesh.cdijkstra import DEFAULT_LIMITS, ResourceLimitExceeded, solve
from pxtmesh.cli import main as cli_main
from pxtmesh.experiments import REFERENCE
from pxtmesh.failsim import audit
from pxtmesh.router import RouterState, route_demand
from pxtmesh.topologies import standard_topology
from pxtmesh.traffic import generate, neighbor, unbalanced, uniform

from conftest import reflection_grid, symmetrize
from test_cdijkstra import brute_force_lengths, classic_dijkstra, random_instance, solve_each

SEEDS = list(range(10))
COMMITTED = ("cycle12plus3", "grid3x4", "tietze", "icosahedron", "k66")
PATTERNS = ("uniform", "neighbor", "unbalanced")

WORKING_REF = {(p, g): REFERENCE[(p, g)][0] for p in PATTERNS for g in COMMITTED}
ONE_PLUS_ONE_REF = {(p, g): REFERENCE[(p, g)][1] for p in PATTERNS for g in COMMITTED}
PATH_REF = {(p, g): REFERENCE[(p, g)][2] for p in PATTERNS for g in COMMITTED}
PXT_REF = {(p, g): REFERENCE[(p, g)][3] for p in PATTERNS for g in COMMITTED}


def median(values):
    s = sorted(values)
    n = len(s)
    return (s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2)


def spec_for(pattern, name, seed=None):
    from pxtmesh.topologies import LARGE_NODE_SETS

    if pattern == "uniform":
        return uniform(5, seed=seed)
    if pattern == "neighbor":
        return neighbor(10, seed=seed)
    return unbalanced(LARGE_NODE_SETS[name], seed=seed)


@pytest.fixture(scope="module")
def pxt_runs():
    """All committed instances routed with the trail scheme over ten seeds,
    with the criterion-4 invariant sweep applied as each plan grows."""
    runs = {}
    for name in COMMITTED:
        g = standard_topology(name)
        for pattern in PATTERNS:
            for seed in SEEDS:
                full_sweep = seed in SEEDS[:2]
                state = RouterState(g, mode="link")
                demands = generate(g, spec_for(pattern, name, seed))
                for i, d in enumerate(demands):
                    route_demand(state, d)
                    if full_sweep or i % 25 == 24:
                        assert state.plan.validate() == [], \
                            f"{name}/{pattern}/seed{seed} prefix {i + 1}"
                        assert state.plan.branch_points() == set()
                assert state.plan.validate() == []
                assert state.plan.branch_points() == set()
                runs[(pattern, name, seed)] = state.plan
    return runs


def test_criterion_1_working_bandwidth_exact():
    failures = []
    for (pattern, name), want in WORKING_REF.items():
        g = standard_topology(name)
        plan = route_1plus1(g, generate(g, spec_for(pattern, name)))
        got = plan.bandwidth()[0]
        if got != want:
            failures.append(f"{name}/{pattern}: working {got} != {want}")
    assert not failures, failures
    print("\ncriterion 1 PASS: working bandwidth exact on all 15 committed instances "
          "(murakami_kim rows skipped: external data file)")


def test_criterion_2_one_plus_one_exact():
    pinned = {("uniform", "k66"): 840, ("neighbor", "k66"): 1080,
              ("unbalanced", "k66"): 840, ("neighbor", "icosahedron"): 600}
    failures = []
    for (pattern, name), want in ONE_PLUS_ONE_REF.items():
        g = standard_topology(name)
        got = route_1plus1(g, generate(g, spec_for(pattern, name))).bandwidth()[1]
        if (pattern, name) in pinned:
            assert got == pinned[(pattern, name)]
        if got != want:
            failures.append(f"{name}/{pattern}: 1+1 {got} != {want}")
    assert not failures, failures
    print("criterion 2 PASS: dedicated-protection bandwidth exact on all 15 "
          "committed instances (four analytically pinned, rest oracle goldens)")


def test_criterion_3_shared_path_bands():
    failures = []
    for (pattern, name), ref in PATH_REF.items():
        g = standard_topology(name)
        demands = generate(g, spec_for(pattern, name, seed=0))
        got = route_shared_path(g, demands).bandwidth()[1]
        dedicated = route_1plus1(g, demands).bandwidth()[1]
        assert got <= dedicated, f"{name}/{pattern}: shared {got} > 1+1 {dedicated}"
        if not (0.9 * ref <= got <= 1.1 * ref):
            failures.append(f"{name}/{pattern}: shared-path {got} outside "
                            f"+-10% of {ref}")
    assert not failures, failures
    print("criterion 3 PASS: shared-path protection within +-10% of the "
          "reference and never above dedicated")


def test_criterion_4_pxt_bands_and_invariants(pxt_runs):
    failures = []
    for name in COMMITTED:
        for pattern in PATTERNS:
            ref = PXT_REF[(pattern, name)]
            med = median([pxt_runs[(pattern, name, s)].bandwidth()[1] for s in SEEDS])
            if not (0.8 * ref <= med <= 1.2 * ref):
                failures.append(f"{name}/{pattern}: median {med} outside "
                                f"+-20% of {ref}")
    assert not failures, failures
    print("criterion 4 PASS: trail-scheme medians within +-20% of the reference "
          "on all 15 instances; rules a-d and no-branch-points held on every "
          "routed prefix of every seed")


def test_criterion_5_constrained_search_oracle():
    start = time.perf_counter()
    for seed in range(220):
        g = symmetrize(random_instance(random.Random(10_000 + seed)))
        got = {n: p.length for n, p in solve_each(g).items()}
        assert got == brute_force_lengths(g), f"instance seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"criterion 5 PASS: constrained search equals brute force on 220 "
          f"random instances in {elapsed:.1f}s")


def test_criterion_6_degenerate_matches_dijkstra():
    for seed in range(100):
        g = random_instance(random.Random(20_000 + seed), n_rivals=0)
        assert {n: p.length for n, p in solve_each(g).items()} == classic_dijkstra(g)
    print("criterion 6 PASS: with no rivals the search equals classic Dijkstra "
          "on 100 random weighted graphs")


def test_criterion_7_graceful_exit_on_exponential_family():
    g = reflection_grid(25)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitExceeded) as exc:
        solve(g, DEFAULT_LIMITS, target="-25,-25")
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    assert exc.value.limit in ("stored", "work")
    assert exc.value.result.paths == {}
    # what the search settles before its limits must be right: above the
    # mirror line the rival constraint cannot bind, so lengths equal
    # Manhattan distance; each node within 10 hops of the source is settled
    # long before the limits
    near = 0
    for node in g.nodes:
        x, y = map(int, node.split(","))
        if (25 - x) + (25 - y) <= 10:
            assert solve(g, DEFAULT_LIMITS, target=node).paths[node].length == \
                (25 - x) + (25 - y)
            near += 1
    assert near == 66
    print(f"criterion 7 PASS: n=25 reflection grid exits with a {exc.value.limit} "
          f"limit error in {elapsed:.1f}s; the {near} nearest targets are all optimal")


def test_criterion_8_restoration_audit(pxt_runs):
    audited = 0
    for (pattern, name, seed), plan in pxt_runs.items():
        report = audit(plan)  # link-mode plans: every single link failure
        assert report.max_concurrent_load <= 1
        audited += report.failures_checked
    # node-mode plans additionally face node failures
    for name in COMMITTED:
        g = standard_topology(name)
        state = RouterState(g, mode="node")
        for d in generate(g, spec_for("neighbor", name, seed=0)):
            route_demand(state, d)
        assert state.plan.validate() == []
        report = audit(state.plan, mode="node")
        assert report.max_concurrent_load <= 1
        audited += report.failures_checked
    print(f"criterion 8 PASS: {audited} single-failure audits clean "
          "(edge-disjoint activations, full pre-cross-connection, "
          "terminal-only switching)")


def test_criterion_9_byte_identical_reruns(tmp_path):
    runner = CliRunner()
    outputs = []
    for attempt in ("a", "b"):
        out = tmp_path / attempt
        r = runner.invoke(cli_main, [
            "run", "--graph", "tietze", "--pattern", "uniform", "--scheme", "pxt",
            "--seed", "7", "--runs", "2", "--out", str(out)])
        assert r.exit_code == 0, r.output
        outputs.append((out / "runs.csv").read_bytes())
    assert outputs[0] == outputs[1]
    print("criterion 9 PASS: identical seed, byte-identical CSV")
