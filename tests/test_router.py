import collections
import hashlib
import importlib.util
import itertools
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pxtmesh
from pxtmesh import router
from pxtmesh.experiments import PATTERNS, route_with_scheme, traffic_spec
from pxtmesh.cdijkstra import NO_ARCS, Arc, ArcSet, SearchLimits, solve
from pxtmesh.graph import (
    UNBOUNDED,
    EdgeId,
    Graph,
    Walk,
    _avoiding,
    classify,
    disjoint,
    is_path,
    link_of,
    shortest_route_dag,
)
from pxtmesh.plan import PXT, AllocationPlan, Demand, PlanEntry, PlanError, _Trail
from pxtmesh.router import (
    AuxEdge,
    AuxGraph,
    RouterState,
    RoutingError,
    _expand_route,
    _protection_feasible,
    _Work,
    build_aux,
    collect_subtrails,
    cut_segment,
    find_working,
    route_demand,
)
from pxtmesh.topologies import standard_topology
from pxtmesh.traffic import generate

from conftest import (
    conflicts_oracle,
    is_symmetric,
    may_share_oracle,
    random_connected_graph,
    repeat_horizon_oracle,
    rival_graph,
    set_role,
    sharing_oracle,
    shortest_paths_oracle,
    used_on_link,
    walk,
)
from test_cdijkstra import assert_matches_frozenset_search, outcome

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def reuse_graph():
    """U-V demand can ride the middle of an existing protection trail."""
    return Graph(["A", "B", "P", "U", "V"], [
        ("A", "B", UNBOUNDED), ("A", "U", UNBOUNDED), ("U", "P", UNBOUNDED),
        ("P", "V", UNBOUNDED), ("V", "B", UNBOUNDED), ("U", "V", UNBOUNDED),
    ])


@pytest.fixture
def two_triangles():
    return Graph("ABCD", [
        ("A", "B", 1), ("A", "C", UNBOUNDED), ("C", "B", UNBOUNDED),
        ("A", "D", UNBOUNDED), ("D", "B", UNBOUNDED),
    ])


class TestFindWorking:
    def test_adjacent_terminals(self, icosahedron):
        state = RouterState(icosahedron)
        w = find_working(state, Demand(0, "n", "u0"))
        assert w.length == 1

    def test_direct_link(self, five_node):
        state = RouterState(five_node)
        w = find_working(state, Demand(0, "A", "B"))
        assert w.nodes == ("A", "B")

    def test_saturated_link_routed_around(self, two_triangles):
        state = RouterState(two_triangles)
        route_demand(state, Demand(0, "A", "B"))
        entry = route_demand(state, Demand(1, "A", "B"))
        # the direct link is full; the second working spreads onto the empty
        # triangle, freeing it to ride the first demand's protection trail
        assert entry.working.nodes == ("A", "D", "B")
        assert entry.protection.nodes == ("A", "C", "B")
        assert state.plan.validate() == []
        assert state.plan.bandwidth()[1] == 2

    def test_no_route(self):
        # saturate the only link, then no working path exists
        g = Graph("AB", [("A", "B", 1)])
        state = RouterState(g)
        set_role(state.plan, g.edge("A", "B", 0), "working")
        with pytest.raises(RoutingError, match="no working route"):
            find_working(state, Demand(1, "A", "B"))


def detour_trap() -> Graph:
    """Three shortest routes A-F; the first-ranked, A-B-C-F, leaves no
    detour in either mode, since D reaches F only through C."""
    return Graph("ABCDEF", [(a, b, UNBOUNDED) for a, b in
                            ["AB", "AD", "BC", "DC", "CF", "FE", "EB"]])


@pytest.mark.parametrize("mode", ["node", "link"])
def test_first_route_without_detour_is_passed_over(mode):
    state = RouterState(detour_trap(), mode=mode)
    demand = Demand(0, "A", "F")
    assert ranked_working_oracle(state, demand) == (("A", "B", "E", "F"), 1)
    assert find_working(state, demand).nodes == ("A", "B", "E", "F")


@pytest.mark.parametrize("max_work", [3, 8, 16])
@pytest.mark.parametrize("mode", ["node", "link"])
def test_working_search_work_limit(mode, max_work):
    # the limits bind in the first route's detour search, in the heap and
    # in the second route's detour search; the whole search takes 17 (node
    # mode) or 20 (link mode)
    state = RouterState(detour_trap(), mode=mode, limits=SearchLimits(max_work=max_work))
    with pytest.raises(RoutingError, match="working-route search exceeded the work limit") \
            as info:
        find_working(state, Demand(0, "A", "F"))
    assert info.value.resource_limit == "work"
    state = RouterState(detour_trap(), mode=mode, limits=SearchLimits(max_work=20))
    assert find_working(state, Demand(0, "A", "F")).nodes == ("A", "B", "E", "F")


def ranked_working_oracle(state: RouterState, demand: Demand):
    """find_working before the cached DAG: list every shortest route over
    links with spare capacity, sort by (usage, nodes) and take the first with
    a detour, else the first.  Returns (route, its rank), with rank None when
    no route has a detour and (None, None) when there is no route."""
    plan = state.plan

    def rank(p):
        usage = sum(used_on_link(plan, p[i], p[i + 1]) for i in range(len(p) - 1))
        return (usage, p)

    ranked = sorted(shortest_paths_oracle(state.graph, demand.u, demand.v, plan.has_free_edge),
                    key=rank)
    if not ranked:
        return None, None
    pick = next((i for i, p in enumerate(ranked) if feasible(state, p)), None)
    return ranked[pick or 0], pick


def feasible(state: RouterState, route: tuple[str, ...]) -> bool:
    """_protection_feasible under a work limit that never binds."""
    return _protection_feasible(state, route, _Work(10**12, Demand(0, route[0], route[-1])))


def random_grid_graph(rng: random.Random) -> Graph:
    """A random connected part of an r x c grid of 8-40 nodes: a random
    spanning tree plus about half the other grid links, so many routes tie
    on length; 40% of the links carry 1-3 units."""
    r = rng.randint(2, 6)
    c = rng.randint(-(-8 // r), 40 // r)
    nodes = [f"n{i:02d}" for i in range(r * c)]
    grid = [(i, i + 1) for i in range(r * c) if (i + 1) % c]
    grid += [(i, i + c) for i in range(r * c - c)]
    rng.shuffle(grid)
    root = list(range(r * c))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    links = []
    for a, b in grid:
        if find(a) != find(b) or rng.random() < 0.5:
            root[find(a)] = find(b)
            cap = rng.randint(1, 3) if rng.random() < 0.4 else UNBOUNDED
            links.append((nodes[a], nodes[b], cap))
    return Graph(nodes, links)


def compare_working_routes(mode: str, seeds=range(40), steps=15, checks=4):
    """Counts of find_working against the oracle, on random grids as random
    demands are routed into them: before each routed demand, `checks`
    random pairs are compared on the same plan."""
    seen = collections.Counter()
    for seed in seeds:
        rng = random.Random(seed)
        g = random_grid_graph(rng)
        nodes = g.sorted_nodes()
        state = RouterState(g, mode=mode)
        for did in range(steps):
            for _ in range(checks):
                demand = Demand(did, *rng.sample(nodes, 2))
                want, pick = ranked_working_oracle(state, demand)
                try:
                    got = find_working(state, demand).nodes
                except (RoutingError, PlanError):
                    got = None
                seen["mismatch"] += got != want
                seen["no route" if want is None else "none feasible" if pick is None
                     else "first feasible" if pick == 0 else "first rejected"] += 1
            try:
                route_demand(state, demand)
            except (RoutingError, PlanError):  # a PlanError is a mismatch counted above
                pass
    return seen


@pytest.mark.parametrize("mode", ["node", "link"])
def test_find_working_matches_ranked_enumeration(mode):
    seen = compare_working_routes(mode)
    assert seen["mismatch"] == 0, seen
    assert min(seen[k] for k in ("first rejected", "none feasible", "no route")) > 0, seen
    assert seen["first feasible"] > 300, seen


def test_ranked_enumeration_sees_a_dag_cache_blind_to_full_links(monkeypatch):
    """A DAG cached per target alone, kept after links fill, is caught."""
    cached = {}
    real = RouterState.working_dag

    def by_target_alone(state, target):
        if (state, target) not in cached:
            cached[state, target] = real(state, target)
        return cached[state, target]

    monkeypatch.setattr(RouterState, "working_dag", by_target_alone)
    assert compare_working_routes("node", seeds=range(8))["mismatch"] > 5


@pytest.mark.parametrize("mode", ["node", "link"])
def test_working_dags_live_on_the_fresh_arc_snapshot(mode):
    """While no link fills, working_dag hands back the same DAG object and
    fresh_arcs the same snapshot; once a link fills, both are rebuilt
    together, and each new DAG is the one built from scratch."""
    seen = collections.Counter()
    for seed in range(6):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(8, 20), tight=True)
        nodes = g.sorted_nodes()
        state = RouterState(g, mode=mode)
        targets = rng.sample(nodes, 3)
        for did in range(30):
            snapshot = state.fresh_arcs()
            dags = {t: state.working_dag(t) for t in targets}
            assert all(state.working_dag(t) is dags[t] for t in targets)
            free = len(state.plan._free)
            try:
                route_demand(state, Demand(did, *rng.sample(nodes, 2)))
            except RoutingError:
                pass
            kept = len(state.plan._free) == free
            seen["kept" if kept else "filled"] += 1
            assert (state.fresh_arcs() is snapshot) == kept
            for t in targets:
                dag = state.working_dag(t)
                assert (dag is dags[t]) == kept
                assert state.fresh_arcs().dags[t] is dag
                assert dag == shortest_route_dag(g, t, state.plan.has_free_edge)
    assert seen["kept"] > 100 and seen["filled"] > 20, seen


def segment_walks(state: RouterState, demand: Demand) -> list[Walk]:
    """collect_subtrails' cuts as the segment walks build_aux would make."""
    return [cut_segment(cut) for cut in collect_subtrails(state, demand)]


def whole(w: Walk) -> tuple[Walk, int, int]:
    """The cut that offers all of `w`, as build_aux takes it."""
    return (w, 0, w.length)


class TestCollectSubtrails:
    def seeded_state(self, five_node):
        state = RouterState(five_node)
        state.plan.add_entry(PlanEntry(
            Demand(0, "A", "B"),
            walk("A", ("A", "B", 0), "B"),
            walk("A", ("A", "E", 0), "E", ("E", "D", 0), "D", ("D", "B", 0), "B")))
        state.plan.add_entry(PlanEntry(
            Demand(1, "C", "D"),
            walk("C", ("C", "D", 0), "D"),
            walk("C", ("C", "A", 0), "A", ("A", "E", 0), "E", ("E", "D", 0), "D")))
        return state  # one PXT: C-A-E-D-B

    def test_whole_trail_between_terminal_occurrences(self, five_node):
        state = self.seeded_state(five_node)
        subs = segment_walks(state, Demand(2, "B", "C"))
        assert len(subs) == 1
        assert subs[0].length == 4
        assert set(subs[0].ends) == {"B", "C"}
        # the terminals sit at the trail's ends, so nothing cuts it
        assert subs[0] is state.plan.pxts[0].walk

    def test_interior_occurrences_cut(self, five_node):
        state = self.seeded_state(five_node)
        subs = segment_walks(state, Demand(2, "D", "C"))
        spans = sorted(((frozenset(s.ends), s.length) for s in subs),
                       key=lambda x: x[1])
        assert spans == [(frozenset({"B", "D"}), 1), (frozenset({"C", "D"}), 3)]

    def test_no_occurrence_yields_end_to_end(self, five_node):
        state = RouterState(five_node)
        state.plan.add_entry(PlanEntry(
            Demand(0, "A", "B"),
            walk("A", ("A", "B", 0), "B"),
            walk("A", ("A", "E", 0), "E", ("E", "B", 0), "B")))
        subs = segment_walks(state, Demand(1, "C", "D"))
        assert len(subs) == 1
        assert subs[0].nodes in (("A", "E", "B"), ("B", "E", "A"))
        # neither end is a terminal: the segment is the cached trail walk itself
        assert not set(subs[0].ends) & {"C", "D"}
        [pxt] = state.plan.pxts
        assert subs[0] is pxt.walk
        assert segment_walks(state, Demand(2, "C", "D"))[0] is pxt.walk

    def test_closed_pxt_without_terminal_contributes_nothing(self):
        g = Graph("ABCXY", [("A", "B", 2), ("B", "C", 2), ("A", "C", 2),
                            ("X", "A", UNBOUNDED), ("X", "Y", UNBOUNDED),
                            ("Y", "B", UNBOUNDED)])
        plan_state = RouterState(g)
        # close a triangle PXT A-B-C out of three compatible demands
        plan_state.plan.add_entry(PlanEntry(
            Demand(0, "A", "B"), walk("A", ("A", "B", 0), "B"),
            walk("A", ("A", "C", 1), "C", ("C", "B", 1), "B")))
        plan_state.plan.add_entry(PlanEntry(
            Demand(1, "B", "C"), walk("B", ("B", "C", 0), "C"),
            walk("B", ("A", "B", 1), "A", ("A", "C", 1), "C")))
        plan_state.plan.add_entry(PlanEntry(
            Demand(2, "A", "C"), walk("A", ("A", "C", 0), "C"),
            walk("A", ("A", "B", 1), "B", ("B", "C", 1), "C")))
        [pxt] = plan_state.plan.pxts
        assert pxt.closed
        assert segment_walks(plan_state, Demand(3, "X", "Y")) == []
        # with only one terminal on the ring it still contributes nothing
        assert segment_walks(plan_state, Demand(4, "A", "X")) == []
        # with both terminals on it, the ring is cut at their occurrences
        subs = segment_walks(plan_state, Demand(5, "A", "B"))
        assert sorted(s.length for s in subs) == [1, 2]
        assert all(set(s.ends) == {"A", "B"} for s in subs)


def prohibited_edges(state: RouterState, working: Walk):
    """Predicate over edges that the protection route must not contain, one
    edge at a time: the admission oracle for build_aux's segments.

    An edge is prohibited when it touches the working interior (node mode),
    when it lies on a link of the working path (they could never be
    disjoint), or when it belongs to the protection path of a demand whose
    working conflicts with this one (those backups may be needed at the same
    time, so sharing is off).
    """
    plan = state.plan
    avoid = _avoiding(working.nodes, plan.mode)
    conflicts = conflicts_oracle(plan, working)

    def prohibited(e: EdgeId) -> bool:
        return not (avoid(e.u, e.v) and may_share_oracle(plan, e, conflicts))

    return prohibited


def admitted(aux) -> list[Walk]:
    """The segments build_aux turned into shortcuts, in order."""
    return [e.segment for e in aux.edges.values() if e.segment is not None]


class TestProhibitedEdges:
    @staticmethod
    def assert_build_aux_agrees(state, demand, working, edges):
        # each edge as a one-edge segment: build_aux admits the allowed ones
        segments = [Walk((e.u, e.v), (e,)) for e in edges]
        prohibited = prohibited_edges(state, working)
        assert admitted(build_aux(state, demand, working, list(map(whole, segments)))) == \
            [s for s in segments if not prohibited(s.edges[0])]

    def test_rules(self, five_node):
        state = RouterState(five_node)
        state.plan.add_entry(PlanEntry(
            Demand(0, "A", "B"),
            walk("A", ("A", "B", 0), "B"),
            walk("A", ("A", "E", 0), "E", ("E", "B", 0), "B")))
        # new demand C-B working through A
        working = walk("C", ("C", "A", 1), "A", ("A", "B", 1), "B")
        prohibited = prohibited_edges(state, working)
        assert prohibited(EdgeId("A", "E", 0))      # endnode in working interior
        assert prohibited(EdgeId("C", "A", 2))      # on a working link
        assert prohibited(EdgeId("E", "B", 0))      # protection of conflicting demand
        assert not prohibited(EdgeId("E", "D", 0))  # far from everything
        # E-D #0 is on no protection path: shareable, not a KeyError
        self.assert_build_aux_agrees(state, Demand(1, "B", "C"), working, [
            EdgeId("A", "E", 0), EdgeId("C", "A", 2), EdgeId("E", "B", 0),
            EdgeId("E", "D", 0)])

    def test_disjoint_demand_allows_sharing(self, five_node):
        state = RouterState(five_node)
        state.plan.add_entry(PlanEntry(
            Demand(0, "A", "B"),
            walk("A", ("A", "B", 0), "B"),
            walk("A", ("A", "E", 0), "E", ("E", "B", 0), "B")))
        working = walk("C", ("C", "D", 0), "D")
        prohibited = prohibited_edges(state, working)
        assert not prohibited(EdgeId("A", "E", 0))
        self.assert_build_aux_agrees(state, Demand(1, "C", "D"), working,
                                     [EdgeId("A", "E", 0), EdgeId("E", "B", 0)])


class TestBuildAux:
    def test_no_pxts_means_no_rivals(self, five_node):
        state = RouterState(five_node)
        d = Demand(0, "A", "B")
        working = find_working(state, d)
        aux = build_aux(state, d, working, [])
        assert all(e.segment is None for e in aux.edges.values())
        assert all(not a.rivals for a in aux.graph.arcs.values())
        # the working link must not appear
        assert all({e.u, e.v} != {"A", "B"} for e in aux.edges.values())

    def test_crossing_subtrails_are_rivals(self):
        g = Graph("ABCDX", [("A", "X", 2), ("X", "B", 2), ("C", "X", 2),
                            ("X", "D", 2), ("A", "B", 2), ("C", "D", 2)])
        state = RouterState(g)
        s1 = walk("A", ("A", "X", 0), "X", ("X", "B", 0), "B")
        s2 = walk("C", ("C", "X", 0), "X", ("X", "D", 0), "D")
        d = Demand(0, "A", "B")
        working = walk("A", ("A", "B", 0), "B")
        aux = build_aux(state, d, working, [whole(s1), whole(s2)])
        shortcuts = [i for i, e in aux.edges.items() if e.segment is not None]
        assert [aux.edges[i].segment for i in shortcuts] == [s1, s2]
        assert [(aux.edges[i].u, aux.edges[i].v) for i in shortcuts] == [("A", "B"), ("C", "D")]
        i, j = shortcuts
        assert 2 * j in aux.graph.arcs[2 * i].rivals
        # shortcut arcs cost nothing and lose ties to fresh arcs
        for a in aux.graph.arcs.values():
            fresh = aux.edges[a.id // 2].segment is None
            assert (a.length, a.tiebreak) == ((1, 0) if fresh else (0, 1))

    def test_unused_arc_into_subtrail_interior_is_rival(self, five_node):
        state = RouterState(five_node)
        seg = walk("A", ("A", "E", 0), "E", ("E", "B", 0), "B")
        d = Demand(0, "C", "D")
        working = walk("C", ("C", "D", 0), "D")
        aux = build_aux(state, d, working, [whole(seg)])
        (si,) = [i for i, e in aux.edges.items() if e.segment is not None]
        assert aux.edges[si].segment is seg
        # unused arcs reaching E would land inside the A..B segment
        for pair in ({"E", "D"}, {"A", "E"}):
            (ui,) = [i for i, e in aux.edges.items()
                     if e.segment is None and {e.u, e.v} == pair]
            assert 2 * si in aux.graph.arcs[2 * ui].rivals
        # a disjoint unused arc is not a rival
        (ui,) = [i for i, e in aux.edges.items()
                 if e.segment is None and {e.u, e.v} == {"C", "A"}]
        assert 2 * si not in aux.graph.arcs[2 * ui].rivals


class TestRouteDemand:
    def test_two_stage_sharing(self, five_node):
        state = RouterState(five_node)
        e1 = route_demand(state, Demand(0, "A", "B"))
        assert e1.working.nodes == ("A", "B")
        assert e1.protection.nodes == ("A", "E", "B")
        w0, p0, _ = state.plan.bandwidth()
        e2 = route_demand(state, Demand(1, "C", "D"))
        w1, p1, _ = state.plan.bandwidth()
        assert e2.working.nodes == ("C", "D")
        # reuses the whole A-E-B trail by a zero-cost jump plus two new edges
        assert p1 - p0 == 2
        assert state.plan.validate() == []
        assert state.plan.branch_points() == set()

    def test_single_demand_no_sharing(self, five_node):
        state = RouterState(five_node)
        entry = route_demand(state, Demand(0, "C", "D"))
        assert entry.protection.length == state.plan.bandwidth()[1]
        assert is_path(entry.protection)

    def test_zero_cost_reuse(self, reuse_graph):
        state = RouterState(reuse_graph)
        state.plan.add_entry(PlanEntry(
            Demand(0, "A", "B"),
            walk("A", ("A", "B", 0), "B"),
            walk("A", ("A", "U", 0), "U", ("U", "P", 0), "P",
                 ("P", "V", 0), "V", ("V", "B", 0), "B")))
        before = state.plan.bandwidth()[1]
        entry = route_demand(state, Demand(1, "U", "V"))
        assert entry.working.nodes == ("U", "V")
        assert entry.protection.nodes == ("U", "P", "V")
        assert state.plan.bandwidth()[1] == before
        assert state.plan.validate() == []

    def test_copies_never_share(self, reuse_graph):
        state = RouterState(reuse_graph)
        route_demand(state, Demand(0, "U", "V"))
        route_demand(state, Demand(1, "U", "V"))
        p1, p2 = state.plan.entries[0].protection, state.plan.entries[1].protection
        assert not (p1.edge_set() & p2.edge_set())
        assert state.plan.validate() == []

    def test_log_trace(self, five_node):
        log: list[str] = []
        state = RouterState(five_node, log=log)
        route_demand(state, Demand(0, "A", "B"))
        assert len(log) == 1
        assert "demand 0 A-B" in log[0]
        assert "cost=2" in log[0]


def simple_node_paths(graph, u, v, limit=None):
    out = []

    def rec(cur, path):
        if cur == v:
            out.append(tuple(path))
            return
        for w in graph.neighbors(cur):
            if w not in path:
                rec(w, path + [w])

    rec(u, [u])
    return out


def protection_oracle(graph, base_text, demand, working, mode="node"):
    """Exhaustive minimum count of fresh protection edges, trying every simple
    path with every per-hop choice of an existing protection edge or a fresh
    one, and accepting whatever the plan rules accept."""
    base = AllocationPlan.parse(graph, base_text)
    best = None
    for nodes in simple_node_paths(graph, demand.u, demand.v):
        hop_options = []
        for i in range(len(nodes) - 1):
            u, v = nodes[i], nodes[i + 1]
            options = [e for e, r in base._roles.items()
                       if r == "protection" and {e.u, e.v} == {u, v}]
            if base.has_free_edge(u, v):
                options.append(base.fresh_edge(u, v))
            hop_options.append(options)
        for combo in itertools.product(*hop_options):
            if len(set(combo)) != len(combo):
                continue
            cost = sum(1 for e in combo if e not in base._roles)
            if best is not None and cost >= best:
                continue
            trial = AllocationPlan.parse(graph, base_text)
            try:
                trial.add_entry(PlanEntry(demand, working, Walk(nodes, combo)))
            except Exception:
                continue
            best = cost
    return best


@pytest.mark.parametrize("seed", range(6))
def test_stepwise_optimality_five_node(five_node, seed):
    rng = random.Random(seed)
    state = RouterState(five_node)
    nodes = sorted(five_node.nodes)
    for did in range(6):
        u, v = rng.sample(nodes, 2)
        before_text = state.plan.serialize()
        before_bw = state.plan.bandwidth()[1]
        entry = route_demand(state, Demand(did, u, v))
        added = state.plan.bandwidth()[1] - before_bw
        oracle = protection_oracle(five_node, before_text, entry.demand, entry.working)
        assert oracle is not None
        assert added == oracle
        assert state.plan.validate() == []
        assert state.plan.branch_points() == set()
        assert state.plan.extract_pxts() == state.plan.pxts


@pytest.mark.parametrize("seed", range(4))
def test_stepwise_optimality_reuse_graph(reuse_graph, seed):
    rng = random.Random(100 + seed)
    state = RouterState(reuse_graph)
    nodes = sorted(reuse_graph.nodes)
    for did in range(7):
        u, v = rng.sample(nodes, 2)
        before_text = state.plan.serialize()
        before_bw = state.plan.bandwidth()[1]
        entry = route_demand(state, Demand(did, u, v))
        added = state.plan.bandwidth()[1] - before_bw
        oracle = protection_oracle(reuse_graph, before_text, entry.demand, entry.working)
        assert added == oracle
        assert state.plan.validate() == []


def test_invariants_on_benchmark_topology():
    g = standard_topology("icosahedron")
    rng = random.Random(7)
    state = RouterState(g)
    nodes = sorted(g.nodes)
    for did in range(60):
        u, v = rng.sample(nodes, 2)
        entry = route_demand(state, Demand(did, u, v))
        assert classify(entry.protection) == "path"
    assert state.plan.validate() == []
    assert state.plan.branch_points() == set()
    assert state.plan.extract_pxts() == state.plan.pxts


def test_expand_route_rejects_mismatched_shortcut(five_node):
    state = RouterState(five_node)
    d = Demand(0, "C", "D")
    seg = walk("A", ("A", "E", 0), "E", ("E", "B", 0), "B")
    aux = build_aux(state, d, walk("C", ("C", "D", 0), "D"), [whole(seg)])
    (si,) = [i for i, e in aux.edges.items() if e.segment is not None]
    # the route starts at C, but the shortcut's arc leaves from A
    with pytest.raises(RoutingError, match="does not continue"):
        _expand_route(state, d, aux, (2 * si,))


# sha256 of plan.serialize() for the committed instances routed with the
# default PXT settings at seed 0, recorded before the router's bookkeeping
# was made incremental: any change to these plans shows here
GOLDEN_PXT_PLANS = {
    ("cycle12plus3", "uniform"): "9c4f3e157142b5eb989ae094b62306b2b572166bd33ac0cce238fe2f94a5b434",
    ("cycle12plus3", "neighbor"): "63611da01152ee169db93aeafcb12f01ac8b04b5d8bfab69e5fd2c934cda2313",
    ("cycle12plus3", "unbalanced"): "988c6892ff2e494ef04d5597e1772ba6706c9969ed86aa11e96cca37ec7a8eb1",
    ("grid3x4", "uniform"): "dda8c5f0d7ac2f4935e0d52f50f8b8d743f4952497367f7a454af4864c2d36ce",
    ("grid3x4", "neighbor"): "9739bc51ad3e0c740bc2bc287fddd5a534b3075b6cc0a7b1a4b17642b14338cd",
    ("grid3x4", "unbalanced"): "0a5ff35d16bf9b326a3beb7ce5085c800f7dbd5e476678f1412f7e91dac50ef0",
    ("tietze", "uniform"): "675fd3b1b4e324e2ca29a4e7b3bb4b33eb0270c4e37cdb054ec883648c14287f",
    ("tietze", "neighbor"): "9028a7521aa92206e9b2da8819d13df2bfa6fdfe4a6fc8d97eb7ac632d59a6d3",
    ("tietze", "unbalanced"): "cce02a886b23047fcbaa73eafbb309c67ef69af173a0c798677fb4d45038c0e5",
    ("icosahedron", "uniform"): "91637b77e16ebbd16b6f0df85253ae2c16d7c24929cc849825a7fc1d89ff3d45",
    ("icosahedron", "neighbor"): "6f28939f2798136e2edf75bd06bbfacef854c3db5c6845353871692429f34e24",
    ("icosahedron", "unbalanced"): "3f6f77950e0badde86aa733fe4c18f21bf160a89d82000cbf29d5cb801a5f0ac",
    ("k66", "uniform"): "db74a13a2e755f6847062dbaa8047e9561241ae6713a71e98ea55318aa7ef3b5",
    ("k66", "neighbor"): "8d53415f29938c78891a2fcdf21c753024d9139593160840aaa480006966c5ca",
    ("k66", "unbalanced"): "f10d16d6868a53c10e57e16f06e333b39212f6e97fda1fa248bd563f9cf5369e",
}


@pytest.mark.parametrize("name", ["cycle12plus3", "grid3x4", "tietze", "icosahedron", "k66"])
def test_pxt_plans_byte_identical(name):
    g = standard_topology(name)
    for pattern in PATTERNS:
        plan = route_with_scheme(g, "pxt", generate(g, traffic_spec(pattern, name, 0)))
        got = hashlib.sha256(plan.serialize().encode()).hexdigest()
        assert got == GOLDEN_PXT_PLANS[(name, pattern)], (name, pattern)


# the committed instances routed at seed 0 in each mode: the summed `stored`
# and `work` of every protection search, node mode then link mode, and the
# sha256 of the node-mode plan (GOLDEN_PXT_PLANS has the link-mode ones); a
# change in the search's order, pruning or counting shows here
SEARCH_COUNTERS = {
    ("cycle12plus3", "uniform"): (7029, 27943, 7127, 21981,
        "fdd73ce5fd6082f68a6c7a89f0aba7fddbc5e98a4f8720a979d293c716c518d5"),
    ("cycle12plus3", "neighbor"): (1474, 2836, 1474, 2836,
        "d0b2a6e4dbccfe41c4464e0b25f921371b4d903a22ff3def52f65b21a5a1579f"),
    ("cycle12plus3", "unbalanced"): (5998, 26694, 7473, 32126,
        "c5b248ae3cf879f95a0dff08b8ed6da764286189db0e8ee64c3a71b4a3065390"),
    ("grid3x4", "uniform"): (4875, 11725, 6470, 22251,
        "c49119356794b2398f6953395ac9ea3d94d40874c112120f3effdfdafb32760d"),
    ("grid3x4", "neighbor"): (2871, 9044, 2871, 9044,
        "50423eaa57d4fae038806d6b4ed7a959e0c2b403f33bd30e97b8e6633bbffa49"),
    ("grid3x4", "unbalanced"): (5880, 23753, 6518, 24338,
        "73e199d57ff2778519bd91897bf4f7b59832b23996ff9b776fc18ee1736c3175"),
    ("tietze", "uniform"): (3689, 7007, 4141, 7645,
        "8fea3bd81a2f298d8b67950774212b7b4f476ad0e9156892963c33a28b53390e"),
    ("tietze", "neighbor"): (2001, 3902, 2001, 3902,
        "496836a007bbfb2371f0ba0f7fb2aa71bb12b508ce5f9f44e5f9658ff1c1978f"),
    ("tietze", "unbalanced"): (4110, 8177, 3757, 6980,
        "3ee7d2180d9ab5dcb75cfbe78b0c45351dff529b6c00c4dda291e13665019430"),
    ("icosahedron", "uniform"): (4202, 9596, 4407, 9335,
        "55a198163a35e89c9166f24d7381c1ed3e829a63127985b68a85da18a5f8b640"),
    ("icosahedron", "neighbor"): (4378, 10196, 4378, 10196,
        "23f49459c2f19946f13ed6d5146b6f4c4c460634735930b12ae8d0238706065c"),
    ("icosahedron", "unbalanced"): (4529, 10685, 4447, 9840,
        "faaac7b143ad941f8724810d0041006a4b9e06bed6118ced68123df451fd614c"),
    ("k66", "uniform"): (3926, 9430, 3603, 7600,
        "b7a92d940613e3d0285d64aa4b859c73385226f1a5945bc8276d4d7def293df1"),
    ("k66", "neighbor"): (4382, 10854, 4382, 10854,
        "106978a3d6126f43a7ffdb42160d4be1d37885f2fbd320dfed407a26bf3c882c"),
    ("k66", "unbalanced"): (3786, 9585, 3995, 9433,
        "271509486241cd0146df5fd7cd4dc5f373a4d73387b297c68b78c6dcf1e05479"),
}


@pytest.mark.parametrize("name", ["cycle12plus3", "grid3x4", "tietze", "icosahedron", "k66"])
def test_search_counters_pinned(monkeypatch, name):
    real_solve = router.solve
    total = collections.Counter()

    def counting_solve(g, limits, *, target):
        res = real_solve(g, limits, target=target)
        total.update(stored=res.stored, work=res.work)
        return res

    monkeypatch.setattr(router, "solve", counting_solve)
    g = standard_topology(name)
    for pattern in PATTERNS:
        got = []
        for mode in ("node", "link"):
            total.clear()
            plan = route_with_scheme(g, "pxt", generate(g, traffic_spec(pattern, name, 0)),
                                     mode=mode)
            got += [total["stored"], total["work"]]
            if mode == "node":
                digest = hashlib.sha256(plan.serialize().encode()).hexdigest()
        assert (*got, digest) == SEARCH_COUNTERS[(name, pattern)], (name, pattern)


def pairwise_rivals(aux_edges: dict[int, AuxEdge]) -> set[tuple[int, int]]:
    """Reference rival rule over edges by index: expansions share a node
    that is not an endpoint of both; two fresh-capacity edges are never
    rivals.  A fresh edge expands to its two endpoints, a shortcut to every
    node of its segment."""
    endpoints = {i: frozenset((e.u, e.v)) for i, e in aux_edges.items()}
    expansions = {i: endpoints[i] if e.segment is None else frozenset(e.segment.nodes)
                  for i, e in aux_edges.items()}
    out = set()
    for i, j in itertools.combinations(sorted(aux_edges), 2):
        if aux_edges[i].segment is None and aux_edges[j].segment is None:
            continue
        if (expansions[i] & expansions[j]) - (endpoints[i] & endpoints[j]):
            out.add((i, j))
    return out


def rival_pairs(aux) -> set[tuple[int, int]]:
    """The rival relation of aux's arcs, as pairs of edge indices."""
    arcs = aux.graph.arcs
    out = set()
    for i in aux.edges:
        fwd, back = arcs[2 * i].rivals, arcs[2 * i + 1].rivals
        assert fwd == back
        assert all(r ^ 1 in fwd for r in fwd)  # both arcs of a rival edge
        out.update((min(i, r // 2), max(i, r // 2)) for r in fwd)
    return out


@pytest.mark.parametrize("mode", ["node", "link"])
@pytest.mark.parametrize("seed", range(6))
def test_incremental_bookkeeping_matches_oracles(monkeypatch, mode, seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randint(8, 40), tight=seed % 2 == 1)
    nodes = g.sorted_nodes()

    def demands(first, count):
        return [Demand(first + i, *rng.sample(nodes, 2)) for i in range(count)]

    # entries seeded straight into the plan, not routed by this state
    donor = RouterState(g, mode=mode)
    for d in demands(0, 4):
        try:
            route_demand(donor, d)
        except RoutingError:
            pass
    state = RouterState(g, mode=mode)
    for entry in donor.plan.entries:
        state.plan.add_entry(entry)

    real_build_aux = router.build_aux
    built = []

    def checked_build_aux(state, demand, working, subtrails):
        aux = real_build_aux(state, demand, working, subtrails)
        assert is_symmetric(aux.graph)
        assert rival_pairs(aux) == pairwise_rivals(aux.edges)
        plan = state.plan
        expect = {i for i, e in enumerate(plan.entries)
                  if not disjoint(e.working, working, plan.mode)}
        assert conflicts_oracle(plan, working) == expect
        mask = plan.conflicts(working)
        assert all(plan.may_share((e,), mask) == sharing_oracle(plan, e, working)
                   for e in plan._blockers)
        built.append(aux)
        return aux

    monkeypatch.setattr(router, "build_aux", checked_build_aux)
    for d in demands(100, 25):
        try:
            route_demand(state, d)
        except RoutingError:
            continue
        assert state.plan.pxts == state.plan.extract_pxts()
    assert built
    assert state.plan.validate() == []


def parent_rival_arcs(aux_edges: list[AuxEdge], n_unused: int) -> list[ArcSet]:
    """Per aux edge, the arc ids of its rivals.

    Aux edge i owns arcs 2i and 2i+1.  Two aux edges are rivals when their
    expansions share a node that is not an endpoint of both.  The first
    `n_unused` edges are fresh-capacity edges, which expand to their two
    endpoints only, so two of them never are; a shortcut expands to every
    node of its segment.  The rivals are read off two node -> arc bitset
    indexes instead of comparing every pair: an edge's rivals are the arcs
    of every other edge covering one of its interior nodes, plus those of
    every edge having one of its endpoints as an interior node.  Only
    shortcuts have interior nodes, so `inner` is built from them alone and
    `covers` only at their interior nodes.  A fresh edge's rivals are
    `inner[u] | inner[v]`; a shortcut's add the OR of `covers` over its
    interior nodes, less its own two arcs.
    """
    inner: dict[str, int] = {}  # node -> arcs with it as an interior node
    for i in range(n_unused, len(aux_edges)):
        own = 3 << 2 * i
        for n in aux_edges[i].segment.nodes[1:-1]:
            inner[n] = inner.get(n, 0) | own
    if not inner:
        return [NO_ARCS] * len(aux_edges)
    # node -> arcs whose expansion covers it, only where some edge's rivals ask
    covers = dict.fromkeys(inner, 0)
    for i, e in enumerate(aux_edges):
        own = 3 << 2 * i
        for n in (e.u, e.v) if i < n_unused else e.segment.nodes:
            if n in covers:
                covers[n] |= own
    out = []
    for i, e in enumerate(aux_edges):
        rivals = inner.get(e.u, 0) | inner.get(e.v, 0)
        if i >= n_unused:
            for n in e.segment.nodes[1:-1]:
                rivals |= covers[n]
            rivals &= ~(3 << 2 * i)
        out.append(ArcSet(rivals) if rivals else NO_ARCS)
    return out


def parent_build_aux(state: RouterState, demand: Demand, working: Walk,
                     segments: list[Walk]) -> AuxGraph:
    """The eager build, kept as the differential oracle of the lazy one:
    every aux edge numbered by position, fresh ones first, and every arc and
    out-list built up front.  As it was but for two calls whose code is
    gone: the fresh edges come from `fresh_edges_from_scratch`, and the
    graph is eager, and its rival sets are asserted symmetric here, since
    solve does not check them."""
    plan = state.plan
    avoid = _avoiding(working.nodes, plan.mode)
    aux_edges = [e for e in fresh_edges_from_scratch(plan) if avoid(e.u, e.v)]
    n_unused = len(aux_edges)
    # a segment is admitted whole or not at all: it keeps off the working
    # interior (node mode) and the working links, and the plan may share
    # each of its edges with this working
    interior = set(working.nodes[1:-1]) if plan.mode == "node" else set()
    links = working.link_set()
    conflicts = conflicts_oracle(plan, working)
    for seg in segments:
        if (interior.isdisjoint(seg.nodes) and links.isdisjoint(map(link_of, seg.edges))
                and all(may_share_oracle(plan, e, conflicts) for e in seg.edges)):
            aux_edges.append(AuxEdge(*seg.ends, seg))

    arcs = []
    for i, (e, rival_arcs) in enumerate(zip(aux_edges, parent_rival_arcs(aux_edges, n_unused))):
        length, tiebreak = (1, 0) if e.segment is None else (0, 1)
        arcs.append(Arc(2 * i, e.u, e.v, length, rival_arcs, tiebreak))
        arcs.append(Arc(2 * i + 1, e.v, e.u, length, rival_arcs, tiebreak))
    rg = rival_graph(state.graph.sorted_nodes(), arcs, demand.u)
    assert is_symmetric(rg)
    return AuxGraph(rg, aux_edges)


def out_list_shapes(aux, position) -> dict[str, list[tuple]]:
    """Each node's out-list as (edge, direction, length, tiebreak, rivals),
    edges named by their position in aux.edges, and the rivals effective
    ones: the graph's `through` at both ends folded in."""
    def arc_name(a):
        return position[a >> 1], a & 1

    through = aux.graph.through.get
    return {n: [(*arc_name(a.id), a.length, a.tiebreak,
                 {arc_name(r) for r in ArcSet(a.rivals | through(n, 0) | through(a.head, 0))})
                for a in aux.graph.out[n]] for n in aux.graph.nodes}


@pytest.mark.parametrize("mode", ["node", "link"])
def test_lazy_aux_graph_matches_eager_build(monkeypatch, mode):
    """The lazy aux graph is the eager one with edges renumbered: the same
    edges in the same order, the same rivals and out-lists, and the same
    search, counters and protection route."""
    real_build_aux = router.build_aux
    skeletons = collections.defaultdict(list)  # state -> skeletons it used
    made = total = 0

    def checked_build_aux(state, demand, working, cuts):
        nonlocal made, total
        eager = parent_build_aux(state, demand, working, list(map(cut_segment, cuts)))
        eager = AuxGraph(eager.graph, dict(enumerate(eager.edges)))
        lazy = real_build_aux(state, demand, working, cuts)
        skeleton = state.fresh_arcs()
        if not skeletons[state] or skeletons[state][-1] is not skeleton:
            skeletons[state].append(skeleton)
        assert [(e.u, e.v, e.segment) for e in lazy.edges.values()] == \
            [(e.u, e.v, e.segment) for e in eager.edges.values()]
        position = {i: p for p, i in enumerate(lazy.edges)}

        got = outcome(solve, lazy.graph, state.limits, demand.v)
        want = outcome(solve, eager.graph, state.limits, demand.v)
        assert got[0] is None and want[0] is None
        assert got[2:] == want[2:]  # stored, work
        assert got[1].keys() == want[1].keys()
        if demand.v in got[1]:
            assert _expand_route(state, demand, lazy, got[1][demand.v].arcs) == \
                _expand_route(state, demand, eager, want[1][demand.v].arcs)
        made += len(lazy.graph.out)
        total += len(lazy.graph.nodes)

        assert {(position[i], position[j]) for i, j in rival_pairs(lazy)} == \
            rival_pairs(eager)
        assert out_list_shapes(lazy, position) == \
            out_list_shapes(eager, dict(enumerate(eager.edges)))
        return real_build_aux(state, demand, working, cuts)

    monkeypatch.setattr(router, "build_aux", checked_build_aux)
    routed_random_plans(mode)
    # the skeleton is rebuilt only when a link fills, which only tight graphs see
    rebuilds = {tight: [len(seen) - 1 for state, seen in skeletons.items()
                        if tight == any(state.graph.capacity(u, v) is not UNBOUNDED
                                        for u, v in state.graph.links())]
                for tight in (False, True)}
    assert rebuilds[False] == [0, 0] and min(rebuilds[True]) > 0, rebuilds
    # the search made fewer out-lists than there are nodes
    assert made < total


@pytest.mark.parametrize("mode", ["node", "link"])
def test_reading_arcs_view_changes_no_search(monkeypatch, mode):
    """The traced benchmark's `_count_aux` reads `aux.graph.arcs` before
    solve: that makes none of the search's out-lists and changes no result."""
    count_aux = load_benchmark_tracing()._count_aux
    real_build_aux = router.build_aux
    checked = 0

    def checked_build_aux(*args):
        nonlocal checked
        aux = real_build_aux(*args)
        count_aux(collections.Counter(), aux, None, args, {})
        assert dict(aux.graph.out) == {}
        untouched = real_build_aux(*args).graph
        state, demand = args[:2]
        assert outcome(solve, aux.graph, state.limits, demand.v) == \
            outcome(solve, untouched, state.limits, demand.v)
        assert list(aux.graph.out) == list(untouched.out)
        checked += 1
        return real_build_aux(*args)

    monkeypatch.setattr(router, "build_aux", checked_build_aux)
    routed_random_plans(mode, seeds=range(2))
    assert checked > 50


@pytest.mark.parametrize("mode", ["node", "link"])
def test_benchmark_shortcut_count_matches_route(monkeypatch, mode):
    """The traced benchmark's `_count_solve` counts used shortcuts as the
    tiebreaks of `g.arcs[a]` along the found path, after solve; on routed
    plans that is the number of shortcut edges on the chosen route."""
    count_solve = load_benchmark_tracing()._count_solve
    real_build_aux, real_solve = router.build_aux, router.solve
    built = []
    used = 0

    def keep_build_aux(*args):
        built.append(real_build_aux(*args))
        return built[-1]

    def checked_solve(g, limits, target=None):
        nonlocal used
        res = real_solve(g, limits, target=target)
        aux = built[-1]
        assert aux.graph is g
        counts = collections.Counter()
        count_solve(counts, res, None, (g, limits), {"target": target})
        best = res.paths.get(target)
        expect = 0 if best is None else \
            sum(1 for a in best.arcs if aux.edges[a // 2].segment is not None)
        assert counts["router.shortcuts_used"] == expect
        assert (counts["cdijkstra.solve.work"], counts["cdijkstra.solve.stored"]) == \
            (res.work, res.stored)
        used += expect
        return res

    monkeypatch.setattr(router, "build_aux", keep_build_aux)
    monkeypatch.setattr(router, "solve", checked_solve)
    routed_random_plans(mode)
    assert used > 20, used


@pytest.mark.parametrize("mode", ["node", "link"])
def test_fresh_arcs_are_the_snapshots_own(monkeypatch, mode):
    """Every fresh arc in an out-list the search made is the snapshot's own
    Arc, not a copy; the `arcs` view reports each arc's rivals with the
    graph's `through` at both ends folded in, and those are symmetric."""
    real_build_aux, real_solve = router.build_aux, router.solve
    built = []
    seen = collections.Counter()

    def keep_build_aux(*args):
        built.append((args[0], real_build_aux(*args)))
        return built[-1][1]

    def checked_solve(g, limits, target=None):
        res = real_solve(g, limits, target=target)
        state, aux = built[-1]
        assert aux.graph is g
        own = {arc.id: arc for out in state.fresh_arcs().out.values() for arc in out}
        for arcs in g.out.values():
            for arc in arcs:
                if aux.edges[arc.id >> 1].segment is None:
                    assert arc is own[arc.id]
                    seen["fresh"] += 1
                else:
                    seen["shortcut"] += 1
        through = g.through.get
        view = g.arcs
        for n in g.nodes:
            for arc in g.out.make(n):
                assert view[arc.id].rivals == \
                    arc.rivals | through(arc.tail, 0) | through(arc.head, 0)
                seen["through"] += bool(through(arc.tail, 0) | through(arc.head, 0))
        assert is_symmetric(g)
        return res

    monkeypatch.setattr(router, "build_aux", keep_build_aux)
    monkeypatch.setattr(router, "solve", checked_solve)
    routed_random_plans(mode)
    assert min(seen.values()) > 100, seen


@pytest.mark.parametrize("mode", ["node", "link"])
def test_rejected_cut_builds_no_walk(monkeypatch, mode):
    """build_aux makes a segment Walk for each admitted cut, by one
    `Walk._trusted` call unless the cut is its whole trail walk, and none
    for a cut it refuses."""
    real_build_aux, real_trusted = router.build_aux, Walk._trusted
    calls = 0
    counts = collections.Counter()

    def counting_trusted(cls, nodes, edges):
        nonlocal calls
        calls += 1
        return real_trusted(nodes, edges)

    def checked_build_aux(state, demand, working, cuts):
        before = calls
        aux = real_build_aux(state, demand, working, cuts)
        segs = admitted(aux)
        # a whole trail walk is offered as itself
        uncut = sum(1 for seg in segs if any(seg is cut[0] for cut in cuts))
        assert calls - before == len(segs) - uncut
        counts["built"] += calls - before
        counts["uncut"] += uncut
        counts["rejected"] += len(cuts) - len(segs)
        return aux

    monkeypatch.setattr(Walk, "_trusted", classmethod(counting_trusted))
    monkeypatch.setattr(router, "build_aux", checked_build_aux)
    routed_random_plans(mode)
    assert min(counts.values()) > 50, counts


def routed_random_plans(mode, seeds=range(4), demands=40):
    """Route random demands on seeded random graphs, half of them tight."""
    for seed in seeds:
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(8, 30), tight=seed % 2 == 1)
        nodes = g.sorted_nodes()
        state = RouterState(g, mode=mode)
        for did in range(demands):
            try:
                route_demand(state, Demand(did, *rng.sample(nodes, 2)))
            except RoutingError:
                pass


@pytest.mark.parametrize("mode", ["node", "link"])
def test_segment_admission_matches_prohibited_oracle(monkeypatch, mode):
    """build_aux admits exactly the segments with no prohibited edge."""
    real_build_aux = router.build_aux
    counts = {"admitted": 0, "apart": 0, "shared": 0}

    def checked_build_aux(state, demand, working, cuts):
        aux = real_build_aux(state, demand, working, cuts)
        subtrails = list(map(cut_segment, cuts))
        prohibited = prohibited_edges(state, working)
        avoid = _avoiding(working.nodes, state.plan.mode)
        expect = [s for s in subtrails if not any(prohibited(e) for e in s.edges)]
        assert admitted(aux) == expect
        counts["admitted"] += len(expect)
        for s in subtrails:
            if not all(avoid(e.u, e.v) for e in s.edges):
                counts["apart"] += 1
            elif s not in expect:  # refused only by the sharing verdict
                counts["shared"] += 1
        return aux

    monkeypatch.setattr(router, "build_aux", checked_build_aux)
    routed_random_plans(mode, seeds=range(6), demands=60)
    assert min(counts.values()) > 100, counts


@pytest.mark.parametrize("mode", ["node", "link"])
def test_aux_search_matches_frozenset_search(monkeypatch, mode):
    """On the router's own aux graphs the bitset search finds what the
    frozenset search did, with the same counters."""
    real_solve = router.solve
    probes = 0

    def checked_solve(g, limits, target=None):
        nonlocal probes
        probes += assert_matches_frozenset_search(g, limits, target).work
        return real_solve(g, limits, target=target)

    monkeypatch.setattr(router, "solve", checked_solve)
    routed_random_plans(mode)
    assert probes > 1000


def load_benchmark_tracing():
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", ROOT / "benchmarks" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["node", "link"])
def test_benchmark_aux_counters_match_pairwise_rule(monkeypatch, mode):
    """The traced benchmark counts rival pairs from `len(a.rivals)` and
    `a.id % 2`; on routed plans its count is the pairwise rule's."""
    count_aux = load_benchmark_tracing()._count_aux
    real_build_aux = router.build_aux
    pairs = 0

    def checked_build_aux(state, demand, working, subtrails):
        nonlocal pairs
        aux = real_build_aux(state, demand, working, subtrails)
        counts = collections.Counter()
        count_aux(counts, aux, None, (state, demand, working, subtrails), {})
        expect = len(pairwise_rivals(aux.edges))
        assert counts == {"router.build_aux.aux_edges": len(aux.edges),
                          "router.build_aux.rival_pairs": expect}
        pairs += expect
        return aux

    monkeypatch.setattr(router, "build_aux", checked_build_aux)
    routed_random_plans(mode, seeds=range(2))
    assert pairs > 100


@pytest.mark.parametrize("mode", ["node", "link"])
def test_protection_feasible_matches_shortest_path(mode):
    """The early-exit search answers as a full shortest-path search would."""
    answers = {True: 0, False: 0}
    saturated = 0  # checks made while some link was full
    for seed in range(8):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(8, 30), tight=True)
        nodes = g.sorted_nodes()
        state = RouterState(g, mode=mode)
        plan = state.plan
        for did in range(40):
            try:
                route_demand(state, Demand(did, *rng.sample(nodes, 2)))
            except RoutingError:
                pass
            u, v = rng.sample(nodes, 2)
            routes = list(itertools.islice(shortest_paths_oracle(g, u, v), 4))
            for _ in range(2):
                routes.append(tuple(rng.sample(nodes, rng.randint(2, 5))))
            for route in routes:
                avoid = _avoiding(route, mode)
                expect = next(shortest_paths_oracle(g, route[0], route[-1], lambda a, b: (
                    avoid(a, b) and plan.has_free_edge(a, b))), None) is not None
                assert feasible(state, route) == expect, (seed, route)
                answers[expect] += 1
                saturated += len(plan._free) < 2 * g.num_links()
    assert min(answers.values()) > 100 and saturated > 100, (answers, saturated)


def full_scan_subtrails(plan: AllocationPlan, demand: Demand) -> list[Walk]:
    """collect_subtrails before the position index: every PXT of the
    from-scratch decomposition is scanned node by node, each segment is a
    validated Walk, and non-paths are dropped at the end."""
    return scan_pxts(plan.extract_pxts(), demand)


def scan_pxts(pxts: list[PXT], demand: Demand) -> list[Walk]:
    u, v = demand.u, demand.v
    out = []
    for pxt in pxts:
        nodes, edges = pxt.walk.nodes, pxt.walk.edges
        k = len(edges)
        if pxt.closed:
            ring = nodes[:-1]
            positions = [i for i in range(k) if ring[i] in (u, v)]
            if not any(ring[i] == u for i in positions) or \
               not any(ring[i] == v for i in positions):
                continue
            for j, a in enumerate(positions):
                b = positions[(j + 1) % len(positions)]
                if b > a:
                    seg = Walk(nodes[a:b + 1], edges[a:b])
                else:
                    seg = Walk(nodes[a:k] + nodes[:b + 1], edges[a:] + edges[:b])
                assert seg.nodes[0] in (u, v) and seg.nodes[-1] in (u, v)
                out.append(seg)
        else:
            positions = sorted({0, k} | {i for i in range(k + 1) if nodes[i] in (u, v)})
            for a, b in zip(positions, positions[1:]):
                out.append(Walk(nodes[a:b + 1], edges[a:b]))
    return [s for s in out if is_path(s)]


def fresh_edges_from_scratch(plan: AllocationPlan) -> list[AuxEdge]:
    out = []
    for u, v in plan.graph.links():
        cap = plan.graph.capacity(u, v)
        if cap is None or used_on_link(plan, u, v) < cap:
            out.append(AuxEdge(u, v))
    return out


def routing_steps(mode: str, tight: bool):
    """(rng, state, did) after each of 40 random demands, routed or refused,
    on each of 8 random graphs; the rng drew them and draws on."""
    for seed in range(8):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(8, 40), tight)
        nodes = g.sorted_nodes()
        state = RouterState(g, mode=mode)
        for did in range(40):
            try:
                route_demand(state, Demand(did, *rng.sample(nodes, 2)))
            except RoutingError:
                pass
            yield rng, state, did


@pytest.mark.parametrize("mode", ["node", "link"])
@pytest.mark.parametrize("tight", [False, True])
def test_cached_subtrails_and_fresh_edges_match_full_scans(mode, tight):
    closed_pairs = 0
    for rng, state, did in routing_steps(mode, tight):
        g, nodes = state.graph, state.graph.sorted_nodes()
        plan = state.plan
        fresh = fresh_edges_from_scratch(plan)
        skeleton = state.fresh_arcs()
        assert list(skeleton.edges.values()) == fresh
        assert [(u, v) for u, v in g.links()
                if plan.has_free_edge(u, v) and plan.has_free_edge(v, u)] == \
            [(e.u, e.v) for e in fresh]
        # link index i owns arcs 2i (u -> v) and 2i+1 (v -> u); a node
        # lists its fresh arcs in link order, and masks both arcs of each
        links = g.links()
        out = {n: [] for n in nodes}
        mask = dict.fromkeys(nodes, 0)
        for e in fresh:
            i = links.index((e.u, e.v))
            out[e.u].append(Arc(2 * i, e.u, e.v, 1))
            out[e.v].append(Arc(2 * i + 1, e.v, e.u, 1))
            mask[e.u] |= 3 << 2 * i
            mask[e.v] |= 3 << 2 * i
        assert [links[i] for i in skeleton.edges] == [(e.u, e.v) for e in fresh]
        assert skeleton.out == out and skeleton.mask == mask
        pairs = [rng.sample(nodes, 2) for _ in range(3)]
        for pxt in plan.pxts:
            if pxt.closed:
                pairs.append(rng.sample(sorted(set(pxt.walk.nodes)), 2))
                closed_pairs += 1
        for u, v in pairs:
            d = Demand(1000 + did, u, v)
            offered = segment_walks(state, d)
            assert offered == full_scan_subtrails(plan, d)
            # build_aux relies on it: no offered segment starts where it ends
            assert all(s.ends[0] != s.ends[1] for s in offered)
    assert closed_pairs


@st.composite
def trails(draw):
    """A _Trail on nodes a-f, open or closed, that may repeat nodes: no
    two consecutive nodes are equal, and its k-th edge has ordinal k."""
    closed = draw(st.booleans())
    nodes = [draw(st.sampled_from("abcdef"))]
    for _ in range(draw(st.integers(min_value=2 if closed else 1, max_value=12))):
        nodes.append(draw(st.sampled_from([n for n in "abcdef" if n != nodes[-1]])))
    if closed:
        if nodes[-1] == nodes[0]:
            nodes.pop()
        nodes.append(nodes[0])
    trail = _Trail(nodes, [EdgeId(a, b, k) for k, (a, b) in enumerate(zip(nodes, nodes[1:]))])
    trail.closed = closed
    return trail


@given(trail=trails(), ends=st.permutations("abcdef"))
@settings(max_examples=300, deadline=None)
def test_segments_of_any_trail_match_full_scan(trail, ends):
    # rings that repeat a node among them, which routed plans hardly make
    demand = Demand(0, ends[0], ends[1])
    state = types.SimpleNamespace(plan=types.SimpleNamespace(_ranked_trails=lambda: [trail]))
    assert segment_walks(state, demand) == scan_pxts([trail.canonical()[1]], demand)


@pytest.mark.parametrize("mode", ["node", "link"])
@pytest.mark.parametrize("tight", [False, True])
def test_cached_horizons_match_scratch(mode, tight):
    # every demand cuts every trail first, so each cut index is cached when
    # add_entry extends, merges or closes its trail
    seen = collections.Counter()
    for _, state, _ in routing_steps(mode, tight):
        for trail in state.plan._ranked_trails():
            pxt = trail.canonical()[1]
            nodes = pxt.walk.nodes[:-1] if pxt.closed else pxt.walk.nodes
            horizon = trail.positions()[1]
            assert horizon == repeat_horizon_oracle(nodes, pxt.closed)
            seen[pxt.closed, horizon is not None] += 1
    # open trails with and without repeats, and rings that were open trails
    # from a node back to it; rings that repeat a node do not arise here,
    # test_segments_of_any_trail_match_full_scan cuts those
    assert {(False, False), (False, True), (True, False)} <= set(seen)


O_SCRIPT = """
import hashlib
from pxtmesh.experiments import check_plan, route_with_scheme, traffic_spec
from pxtmesh.topologies import standard_topology
from pxtmesh.traffic import generate

g = standard_topology("cycle12plus3")
plan = route_with_scheme(g, "pxt", generate(g, traffic_spec("neighbor", "cycle12plus3", 0)))
check_plan(plan, "pxt")
print(__debug__, hashlib.sha256(plan.serialize().encode()).hexdigest())
"""


def test_pxt_plan_and_checks_under_python_O():
    # the invariant guards are exceptions, not asserts, so -O keeps them
    src = str(Path(pxtmesh.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-O", "-c", O_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert run.stdout.split() == ["False", GOLDEN_PXT_PLANS[("cycle12plus3", "neighbor")]]
