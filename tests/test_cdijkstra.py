import random

import pytest

from pxtmesh.cdijkstra import (
    Arc,
    PartialPath,
    ResourceLimitExceeded,
    RivalGraph,
    SearchLimits,
    reflection_grid,
    solve,
    symmetrize,
)


def worked_example() -> RivalGraph:
    """Six-node instance reproducing the documented search walk-through.

    The unconstrained optimum v1->v3 rides e4 then e6, which are rivals, so
    the admissible optimum detours via v4.  Lengths/rivals are pinned by the
    optimal paths and the search counters asserted below.
    """
    arcs = [
        Arc("e1", "v1", "v2", 4),
        Arc("e2", "v2", "v3", 1),
        Arc("e3", "v1", "v4", 1),
        Arc("e4", "v1", "v5", 0, frozenset({"e1", "e6"})),
        Arc("e5", "v5", "v4", 1),
        Arc("e6", "v5", "v2", 1),
        Arc("e7", "v6", "v3", 9),
        Arc("e8", "v2", "v6", 9),
        Arc("e9", "v4", "v5", 0),
        Arc("e10", "v4", "v6", 9),
        Arc("e11", "v5", "v6", 2, frozenset({"e5"})),
    ]
    return RivalGraph([f"v{i}" for i in range(1, 7)], arcs, "v1")


class TestConstructionChecks:
    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="negative length"):
            Arc("x", "a", "b", -1)

    def test_arcs_equal_field_by_field(self):
        assert Arc("x", "a", "b", 1) == Arc("x", "a", "b", 1, frozenset(), 0)
        assert Arc("x", "a", "b", 1) != Arc("x", "a", "b", 1, tiebreak=1)

    @pytest.mark.parametrize("build", [RivalGraph, RivalGraph._symmetric_by_construction])
    def test_duplicate_arc_id_rejected(self, build):
        with pytest.raises(ValueError, match="duplicate arc id"):
            build("ab", [Arc("x", "a", "b", 1), Arc("x", "b", "a", 1)], "a")

    @pytest.mark.parametrize("build", [RivalGraph, RivalGraph._symmetric_by_construction])
    def test_unknown_node_rejected(self, build):
        with pytest.raises(ValueError, match="unknown node"):
            build("ab", [Arc("x", "a", "c", 1)], "a")


    @pytest.mark.parametrize("build", [RivalGraph, RivalGraph._symmetric_by_construction])
    def test_unknown_source_rejected(self, build):
        with pytest.raises(ValueError, match="unknown source"):
            build("ab", [Arc("x", "a", "b", 1)], "c")


class TestSymmetrize:
    def test_one_directional_becomes_mutual(self):
        g = worked_example()
        sym = symmetrize(g)
        assert "e4" in sym.arcs["e6"].rivals
        assert "e6" in sym.arcs["e4"].rivals

    def test_empty_unchanged(self):
        g = RivalGraph("ab", [Arc("x", "a", "b", 1)], "a")
        assert symmetrize(g).arcs["x"].rivals == frozenset()

    def test_idempotent(self):
        g = symmetrize(worked_example())
        again = symmetrize(g)
        assert {a: arc.rivals for a, arc in g.arcs.items()} == \
               {a: arc.rivals for a, arc in again.arcs.items()}

    def test_unknown_rival_rejected(self):
        g = RivalGraph("ab", [Arc("x", "a", "b", 1, frozenset({"ghost"}))], "a")
        with pytest.raises(ValueError, match="unknown rival"):
            symmetrize(g)


class TestWorkedExample:
    def test_lengths_and_paths(self):
        res = solve(worked_example())
        got = {n: res.paths[n].length for n in res.paths}
        assert got == {"v1": 0, "v2": 2, "v3": 3, "v4": 1, "v5": 0, "v6": 2}
        assert res.paths["v2"].arcs == ("e3", "e9", "e6")
        # the final hop of the v3 optimum rides e6 (not e9 twice: a path
        # cannot repeat an arc, whatever a hasty transcription may suggest)
        assert res.paths["v3"].arcs == ("e3", "e9", "e6", "e2")
        assert res.paths["v6"].arcs == ("e4", "e11")

    def test_results_do_not_form_a_tree(self):
        res = solve(worked_example())
        p2, p6 = res.paths["v2"], res.paths["v6"]
        shared = set(p2.path) & set(p6.path) - {"v1"}
        assert "v5" in shared
        i2, i6 = p2.path.index("v5"), p6.path.index("v5")
        assert p2.arcs[:i2] != p6.arcs[:i6]

    def test_counters_follow_the_walkthrough(self):
        # arcs probed and partial paths stored (net of those displaced);
        # a dropped or extra extension anywhere in the walk-through moves them
        res = solve(worked_example())
        assert (res.stored, res.work) == (10, 14)
        res = solve(worked_example(), target="v4")
        assert (res.stored, res.work) == (5, 6)


def brute_force_lengths(g: RivalGraph) -> dict[str, float]:
    """Minimum admissible length per node over all simple arc sequences."""
    g = symmetrize(g)
    best = {g.source: 0.0}

    def rec(node, visited, forb, length):
        for arc in g.out[node]:
            if arc.head in visited or arc.id in forb:
                continue
            nl = length + arc.length
            if nl < best.get(arc.head, float("inf")):
                best[arc.head] = nl
            rec(arc.head, visited | {arc.head}, forb | arc.rivals, nl)

    rec(g.source, {g.source}, frozenset(), 0.0)
    return best


def random_instance(rng: random.Random, n_nodes=8, n_arcs=20, n_rivals=6,
                    zero_lengths=True) -> RivalGraph:
    nodes = [f"n{i}" for i in range(rng.randint(2, n_nodes))]
    arcs = []
    for i in range(rng.randint(1, n_arcs)):
        tail, head = rng.sample(nodes, 2) if len(nodes) > 1 else (nodes[0], nodes[0])
        lo = 0 if zero_lengths else 1
        arcs.append(Arc(f"a{i}", tail, head, rng.randint(lo, 9)))
    ids = [a.id for a in arcs]
    rivals: dict[str, set] = {i: set() for i in ids}
    for _ in range(rng.randint(0, n_rivals)):
        x, y = rng.choice(ids), rng.choice(ids)
        if x != y:
            rivals[x].add(y)
    arcs = [Arc(a.id, a.tail, a.head, a.length, frozenset(rivals[a.id])) for a in arcs]
    return RivalGraph(nodes, arcs, nodes[0])


def classic_dijkstra(g: RivalGraph) -> dict[str, float]:
    import heapq
    dist = {g.source: 0.0}
    heap = [(0.0, g.source)]
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for arc in g.out[node]:
            nd = d + arc.length
            if nd < dist.get(arc.head, float("inf")):
                dist[arc.head] = nd
                heapq.heappush(heap, (nd, arc.head))
    return dist


def assert_matches_brute_force(g: RivalGraph) -> None:
    expected = brute_force_lengths(g)
    res = solve(g)
    assert {n: p.length for n, p in res.paths.items()} == expected
    assert res.unreachable == set(g.nodes) - set(expected)


@pytest.mark.parametrize("seed", range(40))
def test_oracle_equivalence_sample(seed):
    assert_matches_brute_force(random_instance(random.Random(seed)))


@pytest.mark.parametrize("seed", range(25))
def test_pruning_soundness(seed):
    """Small dense instances, on which domination pruning drops many
    partial paths: what survives still reaches every optimum."""
    g = random_instance(random.Random(2000 + seed), n_nodes=6, n_arcs=12)
    assert_matches_brute_force(g)


@pytest.mark.parametrize("seed", range(20))
def test_degenerate_matches_dijkstra(seed):
    rng = random.Random(1000 + seed)
    g = random_instance(rng, n_rivals=0)
    res = solve(g)
    assert {n: p.length for n, p in res.paths.items()} == classic_dijkstra(g)


@pytest.mark.parametrize("seed", range(30))
def test_returned_paths_admissible_and_simple(seed):
    g = symmetrize(random_instance(random.Random(3000 + seed)))
    res = solve(g)
    for node, p in res.paths.items():
        assert len(set(p.path)) == len(p.path)
        used = set(p.arcs)
        for aid in p.arcs:
            assert not (g.arcs[aid].rivals & used)
        assert sum(g.arcs[a].length for a in p.arcs) == p.length


class TestLimits:
    def test_stored_limit_on_small_grid(self):
        g = reflection_grid(6)
        with pytest.raises(ResourceLimitExceeded) as exc:
            solve(g, SearchLimits(max_stored=200, max_work=10**7))
        assert exc.value.limit == "stored"
        res = exc.value.result
        assert res.undecided
        # decided nodes are genuinely optimal: above the anti-diagonal the
        # rival constraint cannot bind, so lengths equal Manhattan distance
        for node, p in res.paths.items():
            x, y = map(int, node.split(","))
            assert x + y >= 0
            assert p.length == (6 - x) + (6 - y)

    def test_work_limit(self):
        g = reflection_grid(4)
        with pytest.raises(ResourceLimitExceeded) as exc:
            solve(g, SearchLimits(max_stored=10**6, max_work=50))
        assert exc.value.limit == "work"

    def test_target_short_circuits(self):
        g = worked_example()
        res = solve(g, target="v4")
        assert res.paths["v4"].length == 1
        assert "v3" in res.undecided

    def test_target_result_holds_the_target_path_only(self):
        res = solve(worked_example(), target="v4")
        assert res.paths == {"v4": PartialPath(("v1", "v4"), ("e3",), 1)}
        # v1 and v5 were settled on the way: neither undecided nor unreachable
        assert res.undecided == {"v2", "v3", "v6"}
        assert res.unreachable == set()
        cut = RivalGraph("abc", [Arc("x", "a", "b", 1), Arc("y", "b", "a", 1)], "a")
        res = solve(cut, target="c")
        assert (res.paths, res.undecided, res.unreachable) == ({}, set(), {"c"})

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            SearchLimits(max_stored=0)
