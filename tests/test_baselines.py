import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conflicts_oracle, held_ordinals, may_share_oracle
from test_graph import grid
from pxtmesh.baselines import (
    DisjointPair,
    PairError,
    disjoint_pair,
    fixed_pair_routes,
    route_1plus1,
    route_shared_path,
)
from pxtmesh.experiments import PATTERNS, route_with_scheme, traffic_spec
from pxtmesh.graph import (UNBOUNDED, Graph, Walk, _avoiding, all_shortest_paths, link_key,
                           ranked_routes, shortest_route_dag)
from pxtmesh.plan import AllocationPlan, Demand, PlanEntry, PlanError
from pxtmesh.topologies import LARGE_NODE_SETS, standard_topology
from pxtmesh.traffic import TrafficSpec, generate, neighbor, unbalanced, uniform


def demands_for(g, spec):
    return generate(g, spec)


class TestDisjointPair:
    def test_k66_cross_side(self, k66):
        pair = disjoint_pair(k66, "a0", "b0")
        assert len(pair.working) - 1 == 1
        assert len(pair.protection) - 1 == 3

    def test_k66_same_side(self, k66):
        pair = disjoint_pair(k66, "a0", "a1")
        assert len(pair.working) - 1 == 2
        assert len(pair.protection) - 1 == 2
        assert pair.working[1] != pair.protection[1]

    def test_cut_vertex_fails(self):
        g = Graph("ABC", [("A", "B", UNBOUNDED), ("B", "C", UNBOUNDED)])
        with pytest.raises(PairError):
            disjoint_pair(g, "A", "C")

    def test_link_mode_tolerates_shared_interior(self):
        # the only alternate corridor passes back through B: acceptable when
        # only links must differ, impossible when interiors must be avoided
        g = Graph("ABCXY", [
            ("A", "B", UNBOUNDED), ("B", "C", UNBOUNDED),
            ("A", "X", UNBOUNDED), ("X", "B", UNBOUNDED),
            ("B", "Y", UNBOUNDED), ("Y", "C", UNBOUNDED),
        ])
        pair = disjoint_pair(g, "A", "C", mode="link")
        assert pair.working == ("A", "B", "C")
        assert pair.protection == ("A", "X", "B", "Y", "C")
        with pytest.raises(PairError):
            disjoint_pair(g, "A", "C", mode="node")

    def test_relabeling_invariance(self, tietze):
        mapping = {n: f"x{i}" for i, n in enumerate(sorted(tietze.nodes))}
        relabeled = Graph(
            [mapping[n] for n in tietze.nodes],
            [(mapping[u], mapping[v], None) for u, v in tietze.links()])
        for u in sorted(tietze.nodes):
            for v in sorted(tietze.nodes):
                if u >= v:
                    continue
                a = disjoint_pair(tietze, u, v)
                b = disjoint_pair(relabeled, mapping[u], mapping[v])
                assert len(a.working) == len(b.working)
                assert len(a.protection) == len(b.protection)


# protection bandwidth goldens computed by the exhaustive pair search; they
# land exactly on the published reference figures for every committed fixture
GOLDEN_1P1 = {
    ("uniform", "cycle12plus3"): 1440,
    ("uniform", "grid3x4"): 1070,
    ("uniform", "tietze"): 1125,
    ("uniform", "icosahedron"): 690,
    ("uniform", "k66"): 840,
    ("neighbor", "cycle12plus3"): 510,
    ("neighbor", "grid3x4"): 510,
    ("neighbor", "tietze"): 690,
    ("neighbor", "icosahedron"): 600,
    ("neighbor", "k66"): 1080,
    ("unbalanced", "cycle12plus3"): 1368,
    ("unbalanced", "grid3x4"): 1004,
    ("unbalanced", "tietze"): 1152,
    ("unbalanced", "icosahedron"): 690,
    ("unbalanced", "k66"): 840,
}


def spec_for(pattern, name):
    if pattern == "uniform":
        return uniform()
    if pattern == "neighbor":
        return neighbor()
    return unbalanced(LARGE_NODE_SETS[name])


class TestOnePlusOne:
    @pytest.mark.parametrize("pattern,name", sorted(GOLDEN_1P1))
    def test_protection_goldens(self, pattern, name):
        g = standard_topology(name)
        plan = route_1plus1(g, demands_for(g, spec_for(pattern, name)))
        working, protection, total = plan.bandwidth()
        assert protection == GOLDEN_1P1[(pattern, name)]
        assert total == working + protection

    def test_plans_fully_valid(self, icosahedron):
        plan = route_1plus1(icosahedron, demands_for(icosahedron, neighbor(k=2)))
        assert plan.validate() == []
        assert plan.branch_points() == set()

    def test_protection_equals_sum_of_lengths(self, k66):
        demands = demands_for(k66, uniform(k=1))
        plan = route_1plus1(k66, demands)
        assert plan.bandwidth()[1] == sum(e.protection.length for e in plan.entries)

    def test_empty(self, k66):
        assert route_1plus1(k66, []).bandwidth() == (0, 0, 0)


class TestSharedPath:
    def test_disjoint_demands_share(self, five_node):
        # A-B and C-D ride protections that overlap on no-conflict links
        demands = [Demand(0, "A", "B"), Demand(1, "C", "D")]
        plan = route_shared_path(five_node, demands)
        w, p, t = plan.bandwidth()
        assert p < sum(e.protection.length for e in plan.entries) or \
            not (set(plan.entries[0].protection.edges) & set(plan.entries[1].protection.edges))
        assert all(v.condition == "d" for v in plan.validate())

    def test_five_copies_need_five_protections(self, k66):
        demands = [Demand(i, "a0", "b0") for i in range(5)]
        plan = route_shared_path(k66, demands)
        edge_sets = [frozenset(e.protection.edges) for e in plan.entries]
        for i in range(5):
            for j in range(i + 1, 5):
                assert not (edge_sets[i] & edge_sets[j])
        assert plan.bandwidth()[1] == 15

    def test_k66_uniform_band(self, k66):
        plan = route_shared_path(k66, demands_for(k66, uniform()))
        protection = plan.bandwidth()[1]
        assert abs(protection - 365) <= 36.5
        # conditions a-c hold; only branch points are tolerated
        assert {v.condition for v in plan.validate()} <= {"d"}

    @pytest.mark.parametrize("name", ["grid3x4", "tietze", "icosahedron", "k66"])
    def test_never_worse_than_dedicated(self, name):
        g = standard_topology(name)
        demands = demands_for(g, neighbor())
        shared = route_shared_path(g, demands).bandwidth()[1]
        dedicated = route_1plus1(g, demands).bandwidth()[1]
        assert shared <= dedicated

    def test_working_identical_to_1plus1(self, grid3x4):
        demands = demands_for(grid3x4, uniform(k=1))
        assert route_shared_path(grid3x4, demands).bandwidth()[0] == \
            route_1plus1(grid3x4, demands).bandwidth()[0]


# sha256 of plan.serialize() for the committed instances routed by both
# baselines at seed 0, recorded before the baselines' path enumeration moved
# to graph.all_shortest_paths: any change to these plans shows here
GOLDEN_BASELINE_PLANS = {
    ("cycle12plus3", "uniform", "one-plus-one"): "7fd104876ce04861a2c71eba42d437496e638a74335b9641e5e9801ce0156770",
    ("cycle12plus3", "uniform", "shared-path"): "c7308defe9f932709c265c51a4eb6878ce5b2679cc5511de0806a6a7a21592fb",
    ("cycle12plus3", "neighbor", "one-plus-one"): "e0d7bb912adce8234a6aeec556d1227b4f1e6c48fa9dc8a83b45585872acff0f",
    ("cycle12plus3", "neighbor", "shared-path"): "fb83a4bf645db80cdb2f1a326383890ecec7a15e7bdf1d56bbe4c0195514fe9c",
    ("cycle12plus3", "unbalanced", "one-plus-one"): "e8f37f142edb7668ddf7b54422e6c9e411c4b34fb2b03702fbcb7e535cd7533a",
    ("cycle12plus3", "unbalanced", "shared-path"): "b270d544e2e29168d1da820843689621863493b7084929d7c2b3e85d4d60e2f7",
    ("grid3x4", "uniform", "one-plus-one"): "6a469f20a46f4e88d2483fc70d797355d496b5b5281e664f839b2840571c7a9c",
    ("grid3x4", "uniform", "shared-path"): "1d63b1d782e3efcd59b275e3b1164bc141e9a30340271bc5bb7f4aaca4b1b970",
    ("grid3x4", "neighbor", "one-plus-one"): "eb28b44164c3b450b60608b83a331eac7a5fcb0449c8265349e98a8ba295e3be",
    ("grid3x4", "neighbor", "shared-path"): "b37d2e68c5e46e384a5d1e4debfb290fb3e96de03526b13ba4071a9a194113b3",
    ("grid3x4", "unbalanced", "one-plus-one"): "d4f0e2ae76308f892c1261617be30b6f1cbf4cf6aa1ee405d351824e9ab15915",
    ("grid3x4", "unbalanced", "shared-path"): "b79392e5a67a2ada3e15c99eb283c962417dab6d423b94b67fabe260e41b29cd",
    ("tietze", "uniform", "one-plus-one"): "fe6a7554922593cd4ad6f7fe9e34da61e27a5e8b33e9c002468750fd16953e5a",
    ("tietze", "uniform", "shared-path"): "2f348068a4547d3694993e1f8ad37d1b916c074dc8295d681dbe67eb7f9f5da0",
    ("tietze", "neighbor", "one-plus-one"): "1577f6c14ce8f239e39f04d2c04c3fcefc69e854188e56783a8d3659d53c51d5",
    ("tietze", "neighbor", "shared-path"): "02ac3da7238cf6f4a6efaceffad3a04ac2383182190e39aa710c742f136b5fda",
    ("tietze", "unbalanced", "one-plus-one"): "12a1963adbff4b9d1f6fc1a0ce0f820febb8cac9911c89ad46ae452d06608134",
    ("tietze", "unbalanced", "shared-path"): "c67a981423a2b079111b540a8598dfc4e23fbc8716cf700b6ea5a6b1246d062d",
    ("icosahedron", "uniform", "one-plus-one"): "325ddbe091f4043da0f03d5947de93e866f9e5a8b50c51040c74d5bc1d6d6715",
    ("icosahedron", "uniform", "shared-path"): "7290b8db0a8720b6bde5abb0478e178cd83535f2fb3696e1f5005081b2e70c78",
    ("icosahedron", "neighbor", "one-plus-one"): "5b5096febe113e229ea0d821e9494b0adfb0a4a89a83b640e4ada19dd96627b6",
    ("icosahedron", "neighbor", "shared-path"): "97f27f030d1695022d9633a1aad6d1be20ddf08734b09297ac4162a3d3adf4c1",
    ("icosahedron", "unbalanced", "one-plus-one"): "dc9c29bfc627359827924d0b77bdaae7ffa8d62f54e3da075855888ecb128fe9",
    ("icosahedron", "unbalanced", "shared-path"): "0c736368e7c2c727957885e32bef2798f90c1b4e08019e838feaf6c2b1455605",
    ("k66", "uniform", "one-plus-one"): "789732c5be40d3010b849e77844d1771d9269a69364a79f89dfa3fc763b932da",
    ("k66", "uniform", "shared-path"): "653b1dc7976d2c4fb80da653e50f1318ed157c742593c20c10cbd8641b73adaf",
    ("k66", "neighbor", "one-plus-one"): "f94b4c7f22d464eb0dc762b36a3afb69994d19fe266a6d9b5d1b812ba53ffe3d",
    ("k66", "neighbor", "shared-path"): "f0be2180f46575665d41f113815b1cc7edf422a68443e693cc7a4ce46e6d8637",
    ("k66", "unbalanced", "one-plus-one"): "5e3bb2b66572e42eddfb055b9687c06308b3bff6e81ad07158935e56a5a281fe",
    ("k66", "unbalanced", "shared-path"): "c2fd7a03203fcf0237922643b8c2b986e963d347a1f5eb53b76bbdc43a1ece0a",
}


@pytest.mark.parametrize("name", ["cycle12plus3", "grid3x4", "tietze", "icosahedron", "k66"])
def test_baseline_plans_byte_identical(name):
    g = standard_topology(name)
    for pattern in PATTERNS:
        demands = generate(g, traffic_spec(pattern, name, 0))
        for scheme in ("one-plus-one", "shared-path"):
            plan = route_with_scheme(g, scheme, demands)
            got = hashlib.sha256(plan.serialize().encode()).hexdigest()
            assert got == GOLDEN_BASELINE_PLANS[(name, pattern, scheme)], (name, pattern, scheme)


def shared_path_by_full_scan(g, demands, mode):
    """route_shared_path before it kept its own per-link list: each
    protection hop scans every used ordinal on its link, in order, for a
    protection edge the plan may share, and every fresh edge is the first
    unused ordinal counted from 0."""
    plan = AllocationPlan(g, mode="link", enforce="abc")
    pairs = fixed_pair_routes(g, mode) if demands else {}

    def fresh(a, b):
        if not plan.has_free_edge(a, b):
            raise PlanError(f"link {a}-{b} capacity exhausted")
        used, k = held_ordinals(plan, a, b), 0
        while k in used:
            k += 1
        return g.edge(a, b, k)

    def oriented(nodes, start):
        return nodes if nodes[0] == start else nodes[::-1]

    for d in demands:
        pair = pairs[d.terminals]
        w_nodes = oriented(pair.working, d.u)
        working = Walk(w_nodes, tuple(fresh(a, b) for a, b in zip(w_nodes, w_nodes[1:])))
        conflicts = conflicts_oracle(plan, working)
        p_nodes = oriented(pair.protection, d.u)
        p_edges = []
        for a, b in zip(p_nodes, p_nodes[1:]):
            chosen = None
            for k in sorted(held_ordinals(plan, a, b)):
                e = g.edge(a, b, k)
                if plan.role(e) == "protection" and may_share_oracle(plan, e, conflicts):
                    chosen = e
                    break
            p_edges.append(chosen if chosen is not None else fresh(a, b))
        plan.add_entry(PlanEntry(d, working, Walk(p_nodes, tuple(p_edges))))
    return plan


def random_ring_graph(rng: random.Random, bounded: bool) -> Graph:
    """A ring with random chords; with `bounded`, most links carry 4-30
    units.  A chord can leave some pair's shortest routes without a
    disjoint partner, which fixed_pair_routes leaves out: callers skip those
    graphs."""
    n = rng.randint(5, 12)
    nodes = [f"n{i}" for i in range(n)]
    links = {link_key(nodes[i], nodes[(i + 1) % n]) for i in range(n)}
    for _ in range(rng.randint(0, n)):
        links.add(link_key(*rng.sample(nodes, 2)))

    def cap():
        return rng.randint(4, 30) if bounded and rng.random() < 0.7 else UNBOUNDED

    return Graph(nodes, [(u, v, cap()) for u, v in sorted(links)])


@pytest.mark.parametrize("mode", ["node", "link"])
def test_shared_path_choice_matches_full_scan(mode):
    # plans compared, bounded ones among them, and runs out of capacity in both
    outcomes = {"plan": 0, "bounded": 0, "full": 0}
    reused = 0
    for seed in range(40):
        rng = random.Random(seed)
        bounded = seed % 2 == 1
        g = random_ring_graph(rng, bounded)
        n = len(g.nodes)
        if len(fixed_pair_routes(g, mode)) < n * (n - 1) // 2:
            continue
        nodes = g.sorted_nodes()
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(2, 8))]
        demands = [Demand(i, *rng.choice(pairs)) for i in range(rng.randint(4, 24))]
        try:
            expect = shared_path_by_full_scan(g, demands, mode)
        except PlanError as exc:
            with pytest.raises(PlanError, match="capacity exhausted") as got:
                route_shared_path(g, demands, mode)
            assert str(got.value) == str(exc)
            outcomes["full"] += 1
            continue
        plan = route_shared_path(g, demands, mode)
        assert plan.serialize() == expect.serialize()
        outcomes["plan"] += 1
        outcomes["bounded"] += bounded
        reused += sum(e.protection.length for e in plan.entries) - plan.bandwidth()[1]
    assert outcomes["plan"] >= 25 and outcomes["bounded"] >= 8 and outcomes["full"]
    assert reused


def triangle_with_pendant() -> Graph:
    """Triangle a-b-c with d hanging off c: every pair with d has no
    disjoint pair, the triangle's pairs do."""
    return Graph("abcd", [("a", "b", UNBOUNDED), ("b", "c", UNBOUNDED),
                          ("a", "c", UNBOUNDED), ("c", "d", UNBOUNDED)])


class TestPairsWithoutDisjointPair:
    @pytest.mark.parametrize("mode", ["node", "link"])
    def test_fixed_pairs_leave_out_only_those_pairs(self, mode):
        pairs = fixed_pair_routes(triangle_with_pendant(), mode)
        assert set(pairs) == {frozenset("ab"), frozenset("ac"), frozenset("bc")}
        assert pairs[frozenset("ab")] == disjoint_pair(triangle_with_pendant(), "a", "b", mode)

    def test_demanded_pairs_route_under_both_baselines(self):
        g = triangle_with_pendant()
        demands = [Demand(0, "a", "b")]
        assert route_1plus1(g, demands).bandwidth() == (1, 2, 3)
        plan = route_shared_path(g, demands)
        assert plan.bandwidth() == (1, 2, 3)
        assert plan.entries[0].protection.nodes == ("a", "c", "b")

    @pytest.mark.parametrize("mode", ["node", "link"])
    def test_demand_without_pair_still_refused(self, mode):
        g = triangle_with_pendant()
        demands = [Demand(0, "a", "b"), Demand(1, "d", "a")]
        with pytest.raises(PairError, match=f"no {mode}-disjoint path pair between a and d"):
            route_shared_path(g, demands, mode)
        with pytest.raises(PairError, match=f"no {mode}-disjoint path pair between a and d"):
            route_1plus1(g, demands, mode)



def disjoint_pair_by_full_scan(g, u, v, mode="node", cost=None):
    """disjoint_pair before it stopped early: every shortest working gets
    its first ranked avoiding protection, and the least key of all wins."""
    if u == v:
        raise PairError("terminals must be distinct")
    best = None
    for working in all_shortest_paths(g, u, v):
        dag = shortest_route_dag(g, v, _avoiding(working, mode), until=u)
        protection = next(ranked_routes(dag, u, v, cost), None)
        if protection is not None:
            price = 0 if cost is None else sum(map(cost, protection, protection[1:]))
            key = (len(protection), price, working, protection)
            if best is None or key < best:
                best = key
    if best is None:
        raise PairError(f"no {mode}-disjoint path pair between {u} and {v}")
    return DisjointPair(best[2], best[3])


@st.composite
def priced_graphs(draw):
    """A connected graph of 4-9 nodes, a spanning tree plus chords, and a
    price of 0-3 per link: few prices, so equal-length protections tie on
    price and the lexicographic order has to decide."""
    n = draw(st.integers(min_value=4, max_value=9))
    nodes = [f"n{i}" for i in range(n)]
    links = {link_key(nodes[i], nodes[draw(st.integers(0, i - 1))]) for i in range(1, n)}
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            links.add(link_key(nodes[i], nodes[j]))
    prices = {link: draw(st.integers(0, 3)) for link in sorted(links)}
    return Graph(nodes, [(u, v, UNBOUNDED) for u, v in sorted(links)]), prices


@pytest.mark.parametrize("mode", ["node", "link"])
@given(drawn=priced_graphs())
@settings(max_examples=120, deadline=None)
def test_disjoint_pair_matches_full_scan(mode, drawn):
    g, prices = drawn

    def cost(a, b):
        return prices[link_key(a, b)]

    for u, v in itertools.permutations(g.sorted_nodes(), 2):
        for c in (None, cost):
            try:
                expect = disjoint_pair_by_full_scan(g, u, v, mode, c)
            except PairError as exc:
                with pytest.raises(PairError) as got:
                    disjoint_pair(g, u, v, mode, c)
                assert str(got.value) == str(exc)
                continue
            assert disjoint_pair(g, u, v, mode, c) == expect


@pytest.mark.parametrize("mode", ["node", "link"])
def test_disjoint_pair_stops_once_no_working_can_win(mode, monkeypatch):
    # 4x4 grid corners: 20 shortest workings, and a protection as short and
    # as cheap as any route exists for the first, so two DAGs are built: the
    # unrestricted one, and the one avoiding the first working
    import pxtmesh.baselines as baselines
    g = grid(4)
    assert len(list(all_shortest_paths(g, "r0c0", "r3c3"))) == 20
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return shortest_route_dag(*args, **kwargs)

    monkeypatch.setattr(baselines, "shortest_route_dag", counted)
    for cost in (None, lambda a, b: 1):
        builds.clear()
        got = disjoint_pair(g, "r0c0", "r3c3", mode, cost)
        assert got == disjoint_pair_by_full_scan(g, "r0c0", "r3c3", mode, cost)
        assert len(builds) == 2
