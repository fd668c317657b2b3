"""Undirected multigraph model: links with capacity pools, walks, disjointness.

An edge is one unit of switchable bandwidth; a link is the set of all parallel
edges between two adjacent nodes.  Edges are implicit: a link of capacity c
owns edge ordinals 0..c-1 (every ordinal for unbounded links), and an edge is
the exact tuple (u, v, index), u < v, that `EdgeId` builds: the interpreter's
tuple fast paths take it, the collector drops it, and `edge_str` and
`parse_edge` write and read it as `u~v#index`.  Which ordinals are in use is
tracked by allocation plans, so Graph itself stays immutable and safe to share.

Shortest routes have one enumerator: `ranked_routes` draws the routes of a
`shortest_route_dag` by least total cost, ties lexicographic, as in
Eppstein's best-first k-shortest-paths search; with no cost it is
`all_shortest_paths`.  The router and both baselines rank through it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from operator import itemgetter
from sys import intern
from typing import Callable, Iterable, Iterator

UNBOUNDED = None

# reserved by the edge/plan serialization formats
_FORBIDDEN_ID_CHARS = set("~#|")


class GraphError(ValueError):
    """Malformed graph construction or query."""


class GraphParseError(GraphError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def link_key(u: str, v: str) -> tuple[str, str]:
    """Canonical unordered link key (lexicographic)."""
    return (u, v) if u <= v else (v, u)


Edge = tuple[str, str, int]  # (u, v, index), u < v: see EdgeId
link_of = itemgetter(slice(2))  # an edge's link (u, v)


def EdgeId(u: str, v: str, index: int) -> Edge:
    """The edge of ordinal `index` in the pool of link u-v, its ends in order."""
    if u == v:
        raise GraphError(f"self-loop edge {u}")
    if index < 0:
        raise GraphError(f"negative edge ordinal {index}")
    return (u, v, index) if u <= v else (v, u, index)


def edge_str(e: Edge) -> str:
    """The token `u~v#index` that plan text and messages name an edge by."""
    return f"{e[0]}~{e[1]}#{e[2]}"


def parse_edge(token: str) -> Edge:
    """The edge `edge_str` writes as `token`, its node names interned."""
    try:
        pair, index = token.rsplit("#", 1)
        u, v = pair.split("~")
        return EdgeId(intern(u), intern(v), int(index))
    except (ValueError, GraphError) as exc:
        raise GraphError(f"bad edge token {token!r}") from exc


def _is_node_id(name: str) -> bool:
    return bool(name) and not any(ch.isspace() or ch in _FORBIDDEN_ID_CHARS for ch in name)


class Graph:
    """Immutable set of nodes plus capacitated links between them.

    Node names are interned (`sys.intern`), as are the names `parse_edge`
    and `Walk.parse` read, so the names of a parsed walk are the graph's own
    objects, and comparing them stops at identity."""

    def __init__(self, nodes: Iterable[str], links: Iterable[tuple[str, str, int | None]]):
        for name in (names := list(nodes)):
            if not _is_node_id(name):
                raise GraphError(f"invalid node id {name!r}")
        self._nodes = frozenset(map(intern, names))
        # link -> its capacity, inf when unbounded: the bound every edge check reads
        self.bounds: dict[tuple[str, str], int | float] = {}
        adj: dict[str, set[str]] = {n: set() for n in self._nodes}
        for u, v, cap in links:
            if u not in self._nodes or v not in self._nodes:
                raise GraphError(f"link {u}-{v} references unknown node")
            u, v = intern(u), intern(v)
            if u == v:
                raise GraphError(f"self-loop link at {u}")
            key = link_key(u, v)
            if key in self.bounds:
                raise GraphError(f"duplicate link {key[0]}-{key[1]}")
            if cap is not UNBOUNDED and cap <= 0:
                raise GraphError(f"link {u}-{v} capacity must be positive")
            self.bounds[key] = inf if cap is UNBOUNDED else cap
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {n: tuple(sorted(neigh)) for n, neigh in adj.items()}

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    def sorted_nodes(self) -> list[str]:
        return sorted(self._nodes)

    def links(self) -> list[tuple[str, str]]:
        return sorted(self.bounds)

    def num_links(self) -> int:
        return len(self.bounds)

    def capacity(self, u: str, v: str) -> int | None:
        key = link_key(u, v)
        if key not in self.bounds:
            raise GraphError(f"no link {key[0]}-{key[1]}")
        return UNBOUNDED if self.bounds[key] == inf else self.bounds[key]

    def neighbors(self, node: str) -> tuple[str, ...]:
        if node not in self._adj:
            raise GraphError(f"unknown node {node}")
        return self._adj[node]

    def invalid_edges(self, edges: set[Edge]) -> set[Edge]:
        """The edges of `edges` on no link, or past their link's capacity."""
        bounds = self.bounds  # a link the graph lacks has bound 0
        tight = {l for l in set(map(link_of, edges)) if bounds.get(l, 0) < inf}
        if not tight:  # every link known and unbounded: no edge to look at
            return set()
        return {e for e in edges if e[:2] in tight and e[2] >= bounds.get(e[:2], 0)}

    def edge(self, u: str, v: str, index: int = 0) -> Edge:
        """Materialize an edge, validating the link and capacity bound."""
        self._check_ordinal(u, v, index)
        return EdgeId(u, v, index)

    def _check_ordinal(self, u: str, v: str, index: int) -> None:
        if index >= self.bounds.get(link_key(u, v), 0):
            cap = self.capacity(u, v)  # raises GraphError for an unknown link
            raise GraphError(f"edge ordinal {index} exceeds capacity {cap} on {u}-{v}")


@dataclass(frozen=True)
class Walk:
    """Alternating node/edge sequence; len(nodes) == len(edges) + 1."""

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        nodes = self.nodes
        if len(nodes) != len(self.edges) + 1 or not nodes:
            raise GraphError("walk must alternate nodes and edges")
        for a, b, e in zip(nodes, nodes[1:], self.edges):
            u, v, _ = e
            if not (u == a and v == b or u == b and v == a):
                raise GraphError(f"edge {edge_str(e)} does not join {a} and {b}")

    @classmethod
    def _trusted(cls, nodes: tuple[str, ...], edges: tuple[Edge, ...]) -> "Walk":
        """Construct without the alternation check, for pieces of walks that
        passed it already (slices and reversals)."""
        walk = object.__new__(cls)
        object.__setattr__(walk, "nodes", nodes)
        object.__setattr__(walk, "edges", edges)
        return walk

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def closed(self) -> bool:
        return self.nodes[0] == self.nodes[-1]

    @property
    def ends(self) -> tuple[str, str]:
        return (self.nodes[0], self.nodes[-1])

    def edge_set(self) -> set[Edge]:
        return set(self.edges)

    def link_set(self) -> set[tuple[str, str]]:
        return set(map(link_of, self.edges))

    def reversed(self) -> "Walk":
        return Walk._trusted(self.nodes[::-1], self.edges[::-1])

    def __str__(self) -> str:
        parts = [self.nodes[0]]
        for i, e in enumerate(self.edges):
            parts.append(edge_str(e))
            parts.append(self.nodes[i + 1])
        return " ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Walk":
        """The walk `str` writes, one edge object per distinct edge token."""
        return cls.from_tokens(text.split(), {})

    @classmethod
    def from_tokens(cls, tokens: list[str], edges: dict[str, Edge]) -> "Walk":
        """The walk of alternating node and edge tokens, names interned.
        `edges` maps each edge token read so far to its edge: parse_edge
        reads each distinct token once, and a bad one, never kept, raises."""
        if not tokens:
            raise GraphError("empty walk")
        return cls(tuple(map(intern, tokens[0::2])),
                   tuple([edges.get(t) or edges.setdefault(t, parse_edge(t))
                          for t in tokens[1::2]]))


def classify(walk: Walk) -> str:
    """Most specific kind: path > (closed-)trail > (closed-)walk.

    A single node is a length-0 path; longer closed sequences are never paths.
    """
    if len(set(walk.nodes)) == len(walk.nodes):
        return "path"
    edges_distinct = len(set(walk.edges)) == len(walk.edges)
    if walk.closed:
        return "closed-trail" if edges_distinct else "closed-walk"
    return "trail" if edges_distinct else "walk"


def is_path(walk: Walk) -> bool:
    return classify(walk) == "path"


def disjoint(w1: Walk, w2: Walk, mode: str = "node") -> bool:
    """Disjointness of two walks.

    edge: no shared edge; link: no shared link; node: link-disjoint and no
    node of either walk lies in the interior of the other.
    """
    if mode == "edge":
        return not (w1.edge_set() & w2.edge_set())
    if mode not in ("link", "node"):
        raise ValueError(f"unknown disjointness mode {mode!r}")
    if not w1.link_set().isdisjoint(w2.link_set()):
        return False
    return mode == "link" or (set(w1.nodes[1:-1]).isdisjoint(w2.nodes)
                              and set(w2.nodes[1:-1]).isdisjoint(w1.nodes))


def _avoiding(nodes: tuple[str, ...], mode: str) -> Callable[[str, str], bool]:
    """Link predicate for routes disjoint from the path `nodes`: it rejects
    the path's links and, in node mode, every link touching its interior."""
    interior = set(nodes[1:-1]) if mode == "node" else set()
    hops = set(zip(nodes, nodes[1:])) | set(zip(nodes[1:], nodes))

    def usable(a: str, b: str) -> bool:
        return (a, b) not in hops and a not in interior and b not in interior

    return usable


def validate_walk(graph: Graph, walk: Walk) -> None:
    """Check every node exists and every edge is within its link's capacity."""
    nodes, bounds = graph.nodes, graph.bounds
    for n in walk.nodes:
        if n not in nodes:
            raise GraphError(f"unknown node {n}")
    for e in walk.edges:
        if e[2] >= bounds.get(e[:2], 0):
            graph._check_ordinal(*e)  # raises, naming the unknown link or the bound


def bfs_distances(graph: Graph, source: str) -> dict[str, int]:
    """Hop distance from source to every node it reaches."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for w in graph.neighbors(x):
            if w not in dist:
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist


def shortest_route_dag(graph: Graph, target: str,
                       usable: Callable[[str, str], bool] | None = None,
                       until: str | None = None) -> dict[str, list[str]]:
    """Each node that reaches `target` over links accepted by `usable` ->
    its successors, the neighbours one hop closer, in neighbour order.  One
    breadth-first pass works out every successor, so the DAG stays as built
    whatever `usable` answers later; it decides the undirected link a-b, and
    is asked at most once per link.  With `until`, the pass stops at that
    node's layer: every node up to its distance has all its successors, and
    they are all that `ranked_routes` reads for routes from it."""
    succ: dict[str, list[str]] = {target: []}
    layer = [target]
    neighbors = graph.neighbors  # neighbors(target) raises for an unknown one
    while layer:
        ahead: dict[str, list[str]] = {}  # the next layer's successor lists
        for x in layer:  # in sorted order, so each list comes out sorted
            for w in neighbors(x):
                if w not in succ and (usable is None or usable(x, w)):
                    ahead.setdefault(w, []).append(x)
        succ.update(ahead)
        layer = [] if until in ahead else sorted(ahead)
    return succ


def ranked_routes(dag: dict[str, list[str]], u: str, v: str,
                  cost: Callable[[str, str], int] | None = None,
                  work: Callable[[int], None] | None = None
                  ) -> Iterator[tuple[str, ...]]:
    """The u-v routes of `dag`, a shortest-route DAG towards v, by least
    total cost, ties lexicographic; nothing if u is not in it.

    `cost(x, w)`, a non-negative int, prices the hop to successor w; without
    it every route costs 0.  With `h[x]` the least cost left from x, the
    first route steps to the first successor w with cost + h[w] == h[x].
    The rest come, when asked for, from a best-first search on (prefix cost
    + h, prefix), a lower bound on the key (cost, nodes) of every route
    through the prefix; each prefix it expands reports its successor count
    to `work`, which may raise to stop it.
    """
    if u not in dag:
        return
    # the part of the DAG that u reaches, layer by layer up to v's
    layers = []
    layer = {u: None}
    while v not in layer:
        layers.append(layer)
        layer = dict.fromkeys([w for x in layer for w in dag[x]])
    # steps[x]: (the least cost left from x through successor w, w)
    h = {v: 0}
    steps = {}
    for layer in reversed(layers):
        for x in layer:
            steps[x] = step = [(h[w] if cost is None else cost(x, w) + h[w], w)
                               for w in dag[x]]
            h[x] = min(step)[0]
    route = [u]
    while (x := route[-1]) != v:
        route.append(next(w for t, w in steps[x] if t == h[x]))
    first = tuple(route)
    yield first
    heap = [(h[u], (u,))]
    while heap:
        key, prefix = heappop(heap)
        x = prefix[-1]
        if x != v:
            if work is not None:
                work(len(steps[x]))
            g = key - h[x]  # the cost of the prefix
            for t, w in steps[x]:
                heappush(heap, (g + t, prefix + (w,)))
        elif prefix != first:
            yield prefix


def all_shortest_paths(graph: Graph, u: str, v: str,
                       usable: Callable[[str, str], bool] | None = None
                       ) -> Iterator[tuple[str, ...]]:
    """Every minimum-hop node sequence from u to v over links accepted by
    `usable`, in lexicographic order; nothing if v is unreachable."""
    if u not in graph.nodes or v not in graph.nodes:
        raise GraphError(f"unknown terminal {u if u not in graph.nodes else v}")
    return ranked_routes(shortest_route_dag(graph, v, usable), u, v)


def shortest_path(graph: Graph, u: str, v: str,
                  usable: Callable[[str, str], bool] | None = None) -> tuple[str, ...] | None:
    """The lexicographically smallest minimum-hop node sequence from u to
    v, or None if disconnected."""
    return next(all_shortest_paths(graph, u, v, usable), None)


def distance_sum(graph: Graph) -> int:
    """Sum of shortest-path hop distances over unordered node pairs."""
    total = 0
    nodes = graph.sorted_nodes()
    for i, u in enumerate(nodes):
        dist = bfs_distances(graph, u)
        if len(dist) != len(nodes):
            raise GraphError("graph is disconnected")
        total += sum(dist[v] for v in nodes[i + 1:])
    return total


def load_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Lines: `# comment`, `node <id>`, `link <u> <v> [<capacity>|unbounded]`.
    A link may come before its nodes' `node` lines, but a node that no
    well-formed `node` line declares is an error.  Duplicate node or link
    declarations are errors.  The lines are checked once each, in line
    order, against the lines before them and the declared nodes, so of
    several errors the one on the earliest line is raised.
    """
    lines = [(lineno, fields) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (fields := raw.split("#", 1)[0].split())]
    declared = {f[1] for _, f in lines if f[0] == "node" and len(f) == 2 and _is_node_id(f[1])}
    nodes: set[str] = set()
    links: dict[tuple[str, str], tuple[str, str, int | None]] = {}
    for lineno, fields in lines:
        kind = fields[0]
        if kind == "node":
            if len(fields) != 2:
                raise GraphParseError(lineno, "expected: node <id>")
            name = fields[1]
            if name in nodes:
                raise GraphParseError(lineno, f"duplicate node {name}")
            if not _is_node_id(name):
                raise GraphParseError(lineno, f"invalid node id {name!r}")
            nodes.add(name)
        elif kind == "link":
            if len(fields) not in (3, 4):
                raise GraphParseError(lineno, "expected: link <u> <v> [capacity]")
            u, v = fields[1], fields[2]
            cap: int | None = UNBOUNDED
            if len(fields) == 4 and fields[3] != "unbounded":
                try:
                    cap = int(fields[3])
                except ValueError:
                    raise GraphParseError(lineno, f"bad capacity {fields[3]!r}") from None
                if cap <= 0:
                    raise GraphParseError(lineno, "capacity must be positive")
            for x in (u, v):
                if x not in declared:
                    raise GraphParseError(lineno, f"unknown node {x} in link")
            if u == v:
                raise GraphParseError(lineno, f"self-loop link at {u}")
            if (key := link_key(u, v)) in links:
                raise GraphParseError(lineno, f"duplicate link {u}-{v}")
            links[key] = (u, v, cap)
        else:
            raise GraphParseError(lineno, f"unknown directive {kind!r}")
    return Graph(nodes, links.values())


def dump_graph(graph: Graph) -> str:
    """Inverse of load_graph, in canonical sorted order."""
    lines = [f"node {n}" for n in graph.sorted_nodes()]
    for u, v in graph.links():
        cap = graph.capacity(u, v)
        lines.append(f"link {u} {v}" + ("" if cap is UNBOUNDED else f" {cap}"))
    return "\n".join(lines) + "\n"
