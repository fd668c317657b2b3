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

What holds, so that a demand reuses what earlier demands left behind:

- rival marks are int bitsets over arc ids.  The aux graph's effective
  rival sets, an arc's own rivals ORed with the graph's `through` at its two
  ends, are symmetric by construction, as the search requires without
  checking.  The graph is lazy: a node's out-arcs are listed when the search
  first expands the node;
- a segment is admitted whole or not at all, by `shareable_cuts`, one call
  per demand, on its cut's edges with the working's `conflicts` mask, which
  also keeps it off the working's links and (node mode) its interior;
- segments are offered as cuts of the plan's cached canonical PXTs, cut
  where each trail's cached cut index puts the terminals, and an open trail
  without them whole.  A cut is a simple path exactly when it ends before
  its start's repeat horizon, and only an admitted cut becomes a `Walk`;
- `FreshArcs`, RouterState's snapshot of the links with spare capacity, is
  rebuilt whole only when that set shrinks: the fresh aux edges and arcs,
  with stable ids by link index, and per target the shortest-route DAG over
  those links.  A working excludes fresh arcs by one bitset, so no fresh
  arc is copied per demand;
- the working routes are drawn from the target's DAG by
  `graph.ranked_routes` in rank order, least usage then nodes, until one
  leaves a disjoint detour.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cdijkstra import (
    DEFAULT_LIMITS,
    Arc,
    ArcSet,
    ResourceLimitExceeded,
    RivalGraph,
    SearchLimits,
    solve,
)
from .graph import (
    Edge,
    Graph,
    GraphError,
    Walk,
    is_path,
    link_key,
    ranked_routes,
    shortest_route_dag,
)
from .plan import AllocationPlan, Cut, Demand, PlanEntry, PlanError, cut_edges


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
    graph: RivalGraph  # directed, rival-annotated, out-arcs made lazily
    # the edges present, by index: link L of graph.links() is edge L and the
    # j-th admitted shortcut edge n_links + j; edge i owns arcs 2i and 2i+1
    edges: dict[int, AuxEdge]


@dataclass(slots=True)
class FreshArcs:
    """A snapshot of the links with spare capacity: their fresh-capacity aux
    edges and arcs, prebuilt without rivals (link index L owns arcs 2L,
    u -> v, and 2L+1, v -> u), and the shortest-route DAGs over them, filled
    per target by `RouterState.working_dag`.  Anything else cached per set of
    free links belongs here too, so that one rebuild drops it all."""

    free: int  # len(plan._free) when built
    edges: dict[int, AuxEdge]  # link index -> fresh aux edge, in link order
    out: dict[str, list[Arc]]  # node -> its fresh out-arcs, in link order
    mask: dict[str, int]  # node -> the bits of every fresh arc at it
    dags: dict[str, dict[str, list[str]]]  # target -> shortest-route DAG, once asked for


class RouterState:
    """Owns the growing plan; route_demand calls on it must stay sequential."""

    def __init__(self, graph: Graph, mode: str = "node",
                 limits: SearchLimits = DEFAULT_LIMITS,
                 log: list[str] | None = None):
        self.graph = graph
        self.plan = AllocationPlan(graph, mode=mode)
        self.limits = limits
        self.log = log
        self.node_bits = RivalGraph.node_bits(graph.sorted_nodes())
        self.link_index = {link: i for i, link in enumerate(graph.links())}
        self._fresh: FreshArcs | None = None

    def fresh_arcs(self) -> FreshArcs:
        """The snapshot of every link with spare capacity, rebuilt, its DAGs
        dropped, only when the plan's set of free links has shrunk."""
        free = self.plan._free
        if self._fresh is None or self._fresh.free != len(free):
            edges = {i: AuxEdge(u, v) for (u, v), i in self.link_index.items()
                     if (u, v) in free}
            arcs = [Arc(2 * i + back, *ends, 1) for i, e in edges.items()
                    for back, ends in enumerate(((e.u, e.v), (e.v, e.u)))]
            # out_lists' id, duplicate and node checks, once per rebuild; read
            # at every node, so the snapshot lists each, if only with no arcs
            out = RivalGraph.out_lists(self.node_bits, arcs)
            mask = {n: sum(3 << (a.id & ~1) for a in out[n]) for n in self.node_bits}
            self._fresh = FreshArcs(len(free), edges, out, mask, {})
        return self._fresh

    def working_dag(self, target: str) -> dict[str, list[str]]:
        """The shortest-route DAG towards `target` over links with spare
        capacity, kept on the fresh-arc snapshot."""
        dags = self.fresh_arcs().dags
        dag = dags.get(target)
        if dag is None:
            dag = dags[target] = shortest_route_dag(self.graph, target, self.plan.has_free_edge)
        return dag


class _Work:
    """The probe work of one working-route search, against `max_work`."""

    __slots__ = ("done", "limit", "demand")

    def __init__(self, limit: int, demand: Demand):
        self.done = 0
        self.limit = limit
        self.demand = demand

    def add(self, n: int) -> None:
        self.done += n
        if self.done > self.limit:
            raise RoutingError(f"demand {self.demand.id}: working-route search "
                               f"exceeded the work limit", resource_limit="work")


def _protection_feasible(state: RouterState, nodes: tuple[str, ...], work: _Work) -> bool:
    """Cheap sufficient check: a disjoint all-fresh detour exists.

    A depth-first search from one end over links with spare capacity that
    keep off the route, stopping the first time it reaches the other end.
    It steps first to the neighbours one hop closer to the goal in the
    goal's cached working DAG, so it heads for the goal rather than
    wandering; the order changes no answer.  The links at each node it
    expands count against `work`.
    """
    plan = state.plan
    start, goal = nodes[0], nodes[-1]
    route = {(a, b) for a, b in zip(nodes, nodes[1:])}
    route |= {(b, a) for a, b in route}
    free = plan._free
    closer = state.working_dag(goal)
    # the interior counts as seen, so the search never enters it
    seen = {start, *nodes[1:-1]} if plan.mode == "node" else {start}
    stack = [start]
    neighbors = state.graph.neighbors
    while stack:
        x = stack.pop()
        work.add(len(neighbors(x)))
        ahead = closer.get(x, ())
        nearer = []  # pushed last, so expanded first
        for w in neighbors(x):
            if w not in seen and (x, w) in free and (x, w) not in route:
                if w == goal:
                    return True
                seen.add(w)
                (nearer if w in ahead else stack).append(w)
        stack += nearer
    return False


def find_working(state: RouterState, demand: Demand) -> Walk:
    """Shortest route over links with spare capacity, materialized fresh.

    Ties between equal-length routes go to the one over the least-used links
    (spreading copies of repeated demands apart so their backups can share),
    then lexicographically.  Routes whose interior would cut the terminals
    off from any disjoint protection are avoided when an alternative exists.

    The routes are drawn in that rank order from the target's cached DAG by
    `ranked_routes`, never listed, and only until one has a detour.  The
    prefixes its search expands and the links the detour searches probe
    count against `limits.max_work`.
    """
    u, v = demand.u, demand.v
    nodes = state.graph.nodes
    if u not in nodes or v not in nodes:
        raise GraphError(f"unknown terminal {u if u not in nodes else v}")
    load = state.plan._load.get  # link key -> how many of its edges are held
    work = _Work(state.limits.max_work, demand)
    first = None
    for route in ranked_routes(state.working_dag(v), u, v,
                               lambda x, w: load(link_key(x, w), 0), work.add):
        if _protection_feasible(state, route, work):
            return state.plan.fresh_walk(route)
        first = first or route
    if first is None:
        raise RoutingError(f"demand {demand.id}: no working route "
                           f"between {u} and {v}")
    return state.plan.fresh_walk(first)


def collect_subtrails(state: RouterState, demand: Demand) -> list[Cut]:
    """Cut every PXT into maximal reusable segments for this demand.

    Closed PXTs are usable only when both terminals occur on them.  Open PXTs
    are additionally cut at their two ends, since a protection route may enter
    there by extending the trail.  Segments that are not simple paths are
    discarded: they could never be part of a protection path.  One cached
    `cut_index()` per trail gives its walk, node positions and repeat
    horizon, which tells which those are, one lookup per cut.

    A segment is returned as its cut `(walk, a, b)` (see `cut_edges`), an
    open trail with no terminal on it as one whole cut, nothing sorted.
    `build_aux` makes a `Walk`, by `cut_segment`, only of the cuts it admits.
    """
    u, v = demand.u, demand.v
    out: list[Cut] = []
    for trail in state.plan._ranked_trails():
        walk, pos, horizon = trail.cut_index()
        k = len(walk.edges)
        at_u, at_v = pos.get(u, ()), pos.get(v, ())
        if not (at_u or at_v or trail.closed):  # offered whole
            if horizon is None:  # a path: it repeats no node
                out.append((walk, 0, k))
            continue
        if trail.closed:
            if not (at_u and at_v):
                continue
            cuts = sorted(at_u + at_v)
            ends = cuts[1:] + [cuts[0] + k]  # the last cut wraps
        else:
            cuts = sorted({0, k, *at_u, *at_v})
            ends = cuts[1:]
        for a, b in zip(cuts, ends):  # the cut a..b is a path exactly when b < horizon[a]
            if horizon is None or b < horizon[a]:
                out.append((walk, a, b))
    return out


def cut_segment(cut: Cut) -> Walk:
    """The segment `Walk` of a cut, built without re-validation, as a slice
    of a valid trail is a valid walk; a cut over the whole walk is the
    trail's cached walk itself."""
    walk, a, b = cut
    nodes = walk.nodes
    k = len(walk.edges)
    if a == 0 and b == k:
        return walk
    return Walk._trusted(nodes[a:b + 1] if b <= k else nodes[a:k] + nodes[:b - k + 1],
                         cut_edges(cut))


def build_aux(state: RouterState, demand: Demand, working: Walk,
              cuts: list[Cut]) -> AuxGraph:
    """Auxiliary search graph: unit-cost fresh-capacity arcs plus zero-cost
    shortcut arcs, with rival marks wherever two expansions would collide.

    The cuts of `collect_subtrails` are admitted by one `shareable_cuts`
    call, and only an admitted cut becomes a segment `Walk`.

    Two aux edges are rivals when their expansions share a node that is not
    an endpoint of both.  A fresh edge expands to its two endpoints and a
    shortcut to every node of its segment, so only shortcuts have interior
    nodes and two fresh edges are never rivals.  The rivals are read off two
    node -> arc bitset indexes built from the shortcuts alone: `inner`, the
    arcs with the node as an interior node, and `covers`, at those nodes
    only, the arcs whose expansion covers it: `inner`, the fresh arcs left
    there and the shortcuts that end there.  `inner` is the graph's
    `through`, so the search adds `inner[u] | inner[v]` to every arc u-v
    itself: a fresh arc carries no rivals of its own, and a shortcut's are
    the OR of `covers` over its interior nodes, less its own two arcs.

    Only what depends on the demand is built here; the fresh arcs come
    prebuilt from `state.fresh_arcs()`, and a node's out-arcs are listed when
    the search first expands the node: the snapshot's fresh arcs, in link
    order, less any the working excludes, then its shortcut arcs, in
    admission order.
    """
    plan, fresh, link_index = state.plan, state.fresh_arcs(), state.link_index
    # the fresh edges the working excludes: its own links and, in node mode,
    # every link at one of its interior nodes
    gone = {link_index[e[:2]] for e in working.edges}
    for n in working.nodes[1:-1] if plan.mode == "node" else ():
        gone.update(arc.id >> 1 for arc in fresh.out[n])
    edges = dict(fresh.edges)
    excluded = 0
    for i in gone:
        edges.pop(i, None)
        excluded |= 3 << 2 * i
    # a segment is admitted whole or not at all, by one call for every cut:
    # the plan may share its edges with this working, which also keeps them
    # off the working links and (node mode) the working interior
    shortcuts = [cut_segment(cut) for cut in plan.shareable_cuts(cuts, plan.conflicts(working))]

    first = len(link_index)
    inner: dict[str, int] = {}
    for i, seg in enumerate(shortcuts, first):
        own = 3 << 2 * i
        for n in seg.nodes[1:-1]:
            inner[n] = inner.get(n, 0) | own
    fresh_mask, fresh_out = fresh.mask, fresh.out
    covers = {n: fresh_mask[n] & ~excluded | bits for n, bits in inner.items()}
    for i, seg in enumerate(shortcuts, first):
        for n in seg.ends:
            if n in covers:
                covers[n] |= 3 << 2 * i
    arcs = []
    for i, seg in enumerate(shortcuts, first):
        u, v = seg.ends
        rivals = 0
        for n in seg.nodes[1:-1]:
            rivals |= covers[n]
        rivals = ArcSet(rivals & ~(3 << 2 * i))
        arcs += (Arc(2 * i, u, v, 0, rivals, 1), Arc(2 * i + 1, v, u, 0, rivals, 1))
        edges[i] = AuxEdge(u, v, seg)
    # out_lists' id, duplicate and node checks, on the shortcut arcs
    shortcut_out = RivalGraph.out_lists(state.node_bits, arcs).get

    def out_arcs(x: str) -> list[Arc]:
        out = fresh_out[x]
        if fresh_mask[x] & excluded:  # the working excludes a fresh arc at x
            out = [arc for arc in out if not excluded >> arc.id & 1]
        return out + shortcut_out(x, [])

    return AuxGraph(RivalGraph(state.node_bits, demand.u, out_arcs, inner), edges)


def _expand_route(state: RouterState, demand: Demand, aux: AuxGraph,
                  arc_ids: tuple[int, ...]) -> Walk:
    nodes: list[str] = [demand.u]
    edges: list[Edge] = []
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
    cuts = collect_subtrails(state, demand)
    aux = build_aux(state, demand, working, cuts)
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
            f"subtrails={len(cuts)} aux_edges={len(aux.edges)} "
            f"cost={int(best.length)} shortcuts={n_short} "
            f"protection={'-'.join(protection.nodes)}")
    return entry
