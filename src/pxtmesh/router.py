"""Online demand routing: cheapest branch-point-free protection reuse.

One demand at a time: the working path takes the shortest route over links
with spare capacity; the protection path is found in an auxiliary graph.  A
segment is a plain `Walk`: a reusable piece of an existing PXT between
occurrences of the demand's terminals, or open trail ends.  Each aux edge
either carries a segment, and its arcs are zero-cost shortcuts (tiebreak 1)
over that whole segment, or carries none, and its arcs are unit-cost fresh
edges (tiebreak 0) of one link.  Arc pairs whose expansions would collide in
the real graph are marked rivals, and the constrained search guarantees the
expanded protection route is a simple path.

Routing one demand reuses what earlier demands left behind instead of
recomputing it:

- rival marks come from node -> arc indexes, not from comparing every pair
  of aux edges; aux-edge order, arc ids, tie-breaks and the rival sets are
  those of the pairwise rule, so plans are unchanged;
- rival marks are int bitsets over the arc ids, from those indexes through
  the search's forbidden sets, so marking and probing OR and AND ints
  instead of building and hashing frozensets;
- the aux graph is symmetric by construction, so the search skips its
  per-call symmetry check;
- the plan indexes every entry's working path by link and by node as
  add_entry commits it, and answers `conflicts` from that index, so shared
  protection is read off it rather than compared entry by entry;
- a segment is admitted whole or not at all, by set tests against the
  working's interior nodes and links and by the plan's `may_share` on its
  edges, which reads the protection users add_entry keeps;
- the plan caches each trail's canonical PXT and sort key, and the map from
  each node to its positions on that PXT; merging or closing a trail drops
  both, and nothing else invalidates them;
- the plan caches its trails in canonical order; a new trail, or merging or
  closing one, drops that order;
- segments are slices of those PXTs, cut where the position index puts the
  terminals and built without re-validation; an open trail without a cut
  inside offers its cached canonical walk itself;
- the plan keeps the set of links with spare capacity, and RouterState keeps
  the fresh-capacity aux edges built from it; they are rebuilt only when that
  set shrinks, and filtered by the working path per demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cdijkstra import (
    DEFAULT_LIMITS,
    NO_ARCS,
    Arc,
    ArcSet,
    ResourceLimitExceeded,
    RivalGraph,
    SearchLimits,
    solve,
)
from .graph import (
    EdgeId,
    Graph,
    Walk,
    _avoiding,
    all_shortest_paths,
    is_path,
    link_of,
)
from .plan import AllocationPlan, Demand, PlanEntry, PlanError


class RoutingError(RuntimeError):
    def __init__(self, message: str, resource_limit: str | None = None):
        super().__init__(message)
        self.resource_limit = resource_limit


@dataclass(slots=True)
class AuxEdge:
    """One undirected auxiliary-graph edge u-v.

    With `segment` None it is a fresh edge of link u-v: length 1, tiebreak
    0.  Otherwise `segment` is the PXT segment `Walk` from u to v, usable
    only in its entirety: length 0, tiebreak 1.
    """

    u: str
    v: str
    segment: Walk | None = None


@dataclass
class AuxGraph:
    graph: RivalGraph  # directed, rival-annotated; edge i owns arcs 2i, 2i+1
    edges: list[AuxEdge]


class RouterState:
    """Owns the growing plan; route() calls must stay sequential."""

    def __init__(self, graph: Graph, mode: str = "node",
                 limits: SearchLimits = DEFAULT_LIMITS,
                 log: list[str] | None = None):
        self.graph = graph
        self.plan = AllocationPlan(graph, mode=mode)
        self.limits = limits
        self.log = log
        # a fresh aux edge per link with spare capacity, as of when the plan
        # had `_fresh_free` free link orientations
        self._fresh: list[AuxEdge] = []
        self._fresh_free = -1

    def route(self, demand: Demand) -> PlanEntry:
        return route_demand(self, demand)

    def fresh_aux_edges(self) -> list[AuxEdge]:
        """A fresh aux edge per link with spare capacity, in link order."""
        if self._fresh_free != len(self.plan._free):
            self._fresh = [AuxEdge(u, v) for u, v in self.graph.links()
                           if self.plan.has_free_edge(u, v)]
            self._fresh_free = len(self.plan._free)
        return self._fresh


def _protection_feasible(state: RouterState, nodes: tuple[str, ...]) -> bool:
    """Cheap sufficient check: a disjoint all-fresh detour exists.

    A depth-first search from one end over links with spare capacity that
    keep off the route, stopping the first time it reaches the other end.
    """
    plan = state.plan
    start, goal = nodes[0], nodes[-1]
    route = {(a, b) for a, b in zip(nodes, nodes[1:])}
    route |= {(b, a) for a, b in route}
    free = plan._free
    # the interior counts as seen, so the search never enters it
    seen = {start, *nodes[1:-1]} if plan.mode == "node" else {start}
    stack = [start]
    neighbors = state.graph.neighbors
    while stack:
        x = stack.pop()
        for w in neighbors(x):
            if w not in seen and (x, w) in free and (x, w) not in route:
                if w == goal:
                    return True
                seen.add(w)
                stack.append(w)
    return False


def find_working(state: RouterState, demand: Demand) -> Walk:
    """Shortest route over links with spare capacity, materialized fresh.

    Ties between equal-length routes go to the one over the least-used links
    (spreading copies of repeated demands apart so their backups can share),
    then lexicographically.  Routes whose interior would cut the terminals
    off from any disjoint protection are avoided when an alternative exists.
    """
    plan = state.plan

    def rank(p):
        usage = sum(plan.used_on_link(p[i], p[i + 1]) for i in range(len(p) - 1))
        return (usage, p)

    ranked = sorted(all_shortest_paths(state.graph, demand.u, demand.v, plan.has_free_edge),
                    key=rank)
    if not ranked:
        raise RoutingError(f"demand {demand.id}: no working route "
                           f"between {demand.u} and {demand.v}")
    # the first feasible route in rank order is the best feasible one, so
    # the detour search runs only until one is found
    nodes = next((p for p in ranked if _protection_feasible(state, p)), ranked[0])
    edges = tuple(plan.fresh_edge(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1))
    return Walk(nodes, edges)


def collect_subtrails(state: RouterState, demand: Demand) -> list[Walk]:
    """Cut every PXT into maximal reusable segments for this demand.

    Closed PXTs are usable only when both terminals occur on them.  Open PXTs
    are additionally cut at their two ends, since a protection route may enter
    there by extending the trail.  Segments that are not simple paths are
    discarded: they could never be part of a protection path.  An open PXT
    with no cut inside yields its cached canonical walk itself.
    """
    u, v = demand.u, demand.v
    # slices of a valid trail are valid walks: build them unchecked
    trusted = Walk._trusted
    out: list[Walk] = []
    for trail in state.plan._ranked_trails():
        pxt = trail.canonical()[1]
        walk = pxt.walk
        nodes, edges = walk.nodes, walk.edges
        k = len(edges)
        pos = trail.positions()
        at_u, at_v = pos.get(u, []), pos.get(v, [])
        # no segment is empty, so a path is one that repeats no node; on a
        # trail that repeats none, every segment is one
        simple = len(pos) == (k if pxt.closed else k + 1)
        if pxt.closed:
            if not (at_u and at_v):
                continue
            cuts = sorted(at_u + at_v)
            for a, b in zip(cuts, cuts[1:] + cuts[:1]):
                if b > a:
                    seg_nodes, seg_edges = nodes[a:b + 1], edges[a:b]
                else:
                    seg_nodes = nodes[a:k] + nodes[:b + 1]
                    seg_edges = edges[a:] + edges[:b]
                if simple or len(set(seg_nodes)) == len(seg_nodes):
                    out.append(trusted(seg_nodes, seg_edges))
        else:
            cuts = sorted({0, k, *at_u, *at_v})
            for a, b in zip(cuts, cuts[1:]):
                seg_nodes = nodes[a:b + 1]
                if simple or len(set(seg_nodes)) == len(seg_nodes):
                    # uncut, the segment is the cached trail walk itself
                    out.append(walk if b - a == k else trusted(seg_nodes, edges[a:b]))
    return out


def _rival_arcs(aux_edges: list[AuxEdge], n_unused: int) -> list[ArcSet]:
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


def build_aux(state: RouterState, demand: Demand, working: Walk,
              segments: list[Walk]) -> AuxGraph:
    """Auxiliary search graph: unit-cost fresh-capacity arcs plus zero-cost
    shortcut arcs, with rival marks wherever two expansions would collide."""
    plan = state.plan
    avoid = _avoiding(working.nodes, plan.mode)
    aux_edges = [e for e in state.fresh_aux_edges() if avoid(e.u, e.v)]
    n_unused = len(aux_edges)
    # a segment is admitted whole or not at all: it keeps off the working
    # interior (node mode) and the working links, and the plan may share
    # each of its edges with this working
    interior = set(working.nodes[1:-1]) if plan.mode == "node" else set()
    links = working.link_set()
    conflicts = plan.conflicts(working)
    may_share = plan.may_share
    for seg in segments:
        if (interior.isdisjoint(seg.nodes) and links.isdisjoint(map(link_of, seg.edges))
                and all(may_share(e, conflicts) for e in seg.edges)):
            aux_edges.append(AuxEdge(*seg.ends, seg))

    arcs = []
    for i, (e, rival_arcs) in enumerate(zip(aux_edges, _rival_arcs(aux_edges, n_unused))):
        length, tiebreak = (1, 0) if e.segment is None else (0, 1)
        arcs.append(Arc(2 * i, e.u, e.v, length, rival_arcs, tiebreak))
        arcs.append(Arc(2 * i + 1, e.v, e.u, length, rival_arcs, tiebreak))
    rg = RivalGraph._symmetric_by_construction(state.graph.sorted_nodes(), arcs, demand.u)
    return AuxGraph(rg, aux_edges)


def _expand_route(state: RouterState, demand: Demand, aux: AuxGraph,
                  arc_ids: tuple[int, ...]) -> Walk:
    nodes: list[str] = [demand.u]
    edges: list[EdgeId] = []
    for arc_id in arc_ids:
        edge = aux.edges[arc_id // 2]
        seg = edge.segment
        if seg is None:
            tail = nodes[-1]
            head = edge.v if tail == edge.u else edge.u
            edges.append(state.plan.fresh_edge(tail, head))
            nodes.append(head)
        else:
            if arc_id % 2:  # the reverse arc
                seg = seg.reversed()
            if seg.nodes[0] != nodes[-1]:
                raise RoutingError(
                    f"demand {demand.id}: shortcut {edge.u}-{edge.v} does not "
                    f"continue the route at {nodes[-1]}")
            nodes.extend(seg.nodes[1:])
            edges.extend(seg.edges)
    return Walk(tuple(nodes), tuple(edges))


def route_demand(state: RouterState, demand: Demand) -> PlanEntry:
    """Route one demand and commit it to the plan; the plan stays valid."""
    working = find_working(state, demand)
    segments = collect_subtrails(state, demand)
    aux = build_aux(state, demand, working, segments)
    try:
        res = solve(aux.graph, state.limits, target=demand.v)
    except ResourceLimitExceeded as exc:
        raise RoutingError(
            f"demand {demand.id}: protection search exceeded the "
            f"{exc.limit} limit", resource_limit=exc.limit) from exc
    best = res.paths.get(demand.v)
    if best is None:
        raise RoutingError(f"demand {demand.id}: no admissible protection route")
    protection = _expand_route(state, demand, aux, best.arcs)
    if not is_path(protection):  # pragma: no cover - guarded by rival marks
        raise RoutingError(f"demand {demand.id}: expansion is not a path")
    entry = PlanEntry(demand, working, protection)
    try:
        state.plan.add_entry(entry)
    except PlanError as exc:  # pragma: no cover - internal consistency guard
        raise RoutingError(f"demand {demand.id}: routed entry violates the "
                           f"plan invariants: {exc}") from exc
    if state.log is not None:
        n_short = sum(1 for a in best.arcs if aux.edges[a // 2].segment is not None)
        state.log.append(
            f"demand {demand.id} {demand.u}-{demand.v}: "
            f"working={'-'.join(working.nodes)} "
            f"subtrails={len(segments)} aux_edges={len(aux.edges)} "
            f"cost={int(best.length)} shortcuts={n_short} "
            f"protection={'-'.join(protection.nodes)}")
    return entry
