"""Comparison schemes: dedicated 1+1 pairs and naive shared-path protection.

Both route every demand on a fixed disjoint path pair per terminal pair, as
disjoint_pair picks it.  The 1+1 scheme dedicates fresh bandwidth to each
copy; the shared-path scheme reuses protection edges whenever the
edge-exclusivity and conflicting-working rules allow, but pays no attention
to branch points, so its plans are not pre-cross-connectable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .graph import (Edge, Graph, GraphError, Walk, _avoiding, link_key, ranked_routes,
                    shortest_route_dag)
from .plan import AllocationPlan, Demand, PlanEntry


class PairError(ValueError):
    """No disjoint working/protection pair exists for a terminal pair."""


@dataclass(frozen=True)
class DisjointPair:
    working: tuple[str, ...]
    protection: tuple[str, ...]


def disjoint_pair(g: Graph, u: str, v: str, mode: str = "node",
                  cost: Callable[[str, str], int] | None = None) -> DisjointPair:
    """Shortest working, then the shortest protection disjoint from it.

    The working length always equals the plain shortest-path distance; among
    all shortest workings the one admitting the shortest protection wins,
    then the one whose protection costs least, summing `cost(a, b)` per hop,
    with lexicographic order deciding any remaining tie.  Each working's
    protection is the first ranked route of the shortest-route DAG that
    avoids it, built only up to u's layer.

    The workings come in lexicographic order, and no protection is shorter
    than the distance d or, at length d, cheaper than the first ranked route
    of the unrestricted DAG.  So once the best pair reaches that length and
    price, no later working can win, and the search stops.
    """
    if u == v:
        raise PairError("terminals must be distinct")
    nodes = g.nodes
    if u not in nodes or v not in nodes:
        raise GraphError(f"unknown terminal {u if u not in nodes else v}")

    def price(route: tuple[str, ...]) -> int:
        return 0 if cost is None else sum(map(cost, route, route[1:]))

    dag = shortest_route_dag(g, v, until=u)  # every shortest u-v route
    best = least = None  # least: the least price of a length-d route, once needed
    for working in ranked_routes(dag, u, v):
        avoiding = shortest_route_dag(g, v, _avoiding(working, mode), until=u)
        protection = next(ranked_routes(avoiding, u, v, cost), None)
        if protection is not None:
            key = (len(protection), price(protection), working, protection)
            if best is None or key < best:
                best = key
                if len(protection) == len(working):
                    if least is None:
                        least = price(next(ranked_routes(dag, u, v, cost)))
                    if key[1] == least:
                        break
    if best is None:
        raise PairError(f"no {mode}-disjoint path pair between {u} and {v}")
    return DisjointPair(best[2], best[3])


def route_1plus1(g: Graph, demands: list[Demand], mode: str = "node") -> AllocationPlan:
    """Dedicated protection: every copy gets fresh bandwidth on both paths."""
    plan = AllocationPlan(g, mode=mode)
    cache: dict[frozenset, DisjointPair] = {}
    for d in demands:
        if d.terminals not in cache:
            cache[d.terminals] = disjoint_pair(g, d.u, d.v, mode)
        pair = cache[d.terminals]
        working = plan.fresh_walk(_orient(pair.working, d.u))
        protection = plan.fresh_walk(_orient(pair.protection, d.u))
        plan.add_entry(PlanEntry(d, working, protection))
    return plan


OVERLAP_CAP = 3  # earlier protections counted per link in fixed_pair_routes' tie-break


def fixed_pair_routes(g: Graph, mode: str = "node") -> dict[frozenset, DisjointPair]:
    """One disjoint pair per terminal pair, placed to cluster protections.

    Pairs are computed in lexicographic terminal order with the same
    lexicographic length objective through disjoint_pair, but ties prefer
    protection routes over links already chosen for other pairs' protections
    (counting each link up to OVERLAP_CAP).  Clustering protections onto
    common corridors is what lets copies of different demands share edges.
    A hop costs OVERLAP_CAP less that count, so a working's first ranked
    protection overlaps most, then comes first lexicographically.

    It enumerates the shortest workings of every terminal pair, until no
    later one can win, and has no limit, because the inputs it serves are
    small: a 12-node fixture has 66 terminal pairs and few shortest routes
    between any two nodes.  Grids much larger than the fixtures would need a
    bound, as the count of shortest routes grows exponentially with their
    side.

    A terminal pair with no disjoint pair gets no entry and leaves the
    clustering counts alone: only a demand for that pair fails.
    """
    chosen: dict[frozenset, DisjointPair] = {}
    used: dict[tuple[str, str], int] = {}

    def cost(a: str, b: str) -> int:
        return OVERLAP_CAP - min(OVERLAP_CAP, used.get(link_key(a, b), 0))

    for u, v in itertools.combinations(sorted(g.nodes), 2):
        try:
            pair = disjoint_pair(g, u, v, mode, cost)
        except PairError:
            continue
        chosen[frozenset((u, v))] = pair
        for link in map(link_key, pair.protection, pair.protection[1:]):
            used[link] = used.get(link, 0) + 1
    return chosen


def route_shared_path(g: Graph, demands: list[Demand], mode: str = "node") -> AllocationPlan:
    """Greedy sharing on fixed pair routes, ignoring branch points.

    Every copy of a terminal pair rides that pair's fixed routes.  A
    protection hop reuses the lowest-ordinal existing protection edge whose
    current users' workings are all link-disjoint from this copy's working
    (no shared link means no common failure), otherwise a fresh edge is
    materialized.  `mode` picks the disjointness of each pair's fixed routes;
    a demand for a pair that has none raises PairError.

    The protection edges allocated so far are kept per link, in ordinal
    order: a fresh edge is appended, and that keeps the order, because
    fresh_edge returns an ordinal above every one in use and this plan
    never frees one.
    """
    plan = AllocationPlan(g, mode="link", enforce="abc")
    pairs = fixed_pair_routes(g, mode) if demands else {}
    protecting: dict[tuple[str, str], list[Edge]] = {}
    for d in demands:
        pair = pairs.get(d.terminals)
        if pair is None:
            raise PairError(f"no {mode}-disjoint path pair between {d.u} and {d.v}")
        working = plan.fresh_walk(_orient(pair.working, d.u))
        mask = plan.conflicts(working)
        p_nodes = _orient(pair.protection, d.u)
        p_edges = []
        for a, b in zip(p_nodes, p_nodes[1:]):
            link = link_key(a, b)
            chosen = plan.first_shareable(protecting.get(link, ()), mask)
            if chosen is None:
                chosen = plan.fresh_edge(a, b)
                protecting.setdefault(link, []).append(chosen)
            p_edges.append(chosen)
        plan.add_entry(PlanEntry(d, working, Walk(p_nodes, tuple(p_edges))))
    return plan


def _orient(nodes: tuple[str, ...], start: str) -> tuple[str, ...]:
    return nodes if nodes[0] == start else nodes[::-1]
