import random
from collections import deque
from sys import intern

import pytest

from pxtmesh.cdijkstra import Arc, ArcId, ArcSet, RivalGraph
from pxtmesh.graph import (UNBOUNDED, EdgeId, Graph, GraphError, GraphParseError, Walk, _avoiding,
                           disjoint, link_key)
from pxtmesh.plan import AllocationPlan, Demand, PlanEntry, PlanError, PlanViolation
from pxtmesh.topologies import standard_topology


def walk(*seq) -> Walk:
    """The walk of an alternating node, edge, node, ... sequence, each edge
    an EdgeId or its (u, v, ordinal) tuple."""
    items = [EdgeId(*x) if isinstance(x, tuple) else x for x in seq]
    return Walk(tuple(items[0::2]), tuple(items[1::2]))


def arc_set(ids) -> ArcSet:
    """The ArcSet of the given arc ids."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return ArcSet(mask)


def used_on_link(plan: AllocationPlan, u: str, v: str) -> int:
    """How many ordinals of link u-v the plan uses."""
    return len(plan._used_ordinals.get(link_key(u, v), ()))


def protection_users(plan: AllocationPlan, edge: EdgeId) -> tuple[int, ...]:
    """The indices of the entries whose protection rides `edge`, in order."""
    return tuple(i for i, en in enumerate(plan.entries) if edge in en.protection.edges)


# -- protection sharing: the entry index that the plan's footprints replaced --

def conflicts_oracle(plan: AllocationPlan, working: Walk) -> set[int]:
    """Indices of the entries whose working path is not disjoint from
    `working`: sharing a link, or (node mode) a node interior to either.

    Read off an index of the entries by where their working path runs: per
    link, and (node mode only) per node, split by whether it is an end or an
    interior node.
    """
    on_link, end, interior = {}, {}, {}
    for idx, entry in enumerate(plan.entries):
        nodes = entry.working.nodes
        for e in entry.working.edges:
            on_link.setdefault(e.link, []).append(idx)
        if plan.mode == "node":
            for n in nodes[1:-1]:
                interior.setdefault(n, []).append(idx)
            for n in (nodes[0], nodes[-1]):
                end.setdefault(n, []).append(idx)
    hits: set[int] = set()
    for link in working.link_set():
        hits.update(on_link.get(link, ()))
    if plan.mode == "node":
        nodes = working.nodes
        for n in nodes[1:-1]:
            hits.update(interior.get(n, ()))
            hits.update(end.get(n, ()))
        for n in (nodes[0], nodes[-1]):
            hits.update(interior.get(n, ()))
    return hits


def may_share_oracle(plan: AllocationPlan, edge: EdgeId, conflicts: set[int]) -> bool:
    """Whether no entry of `conflicts` protects over `edge`."""
    return conflicts.isdisjoint(protection_users(plan, edge))


def sharing_oracle(plan: AllocationPlan, edge: EdgeId, working: Walk) -> bool:
    """What `plan.may_share((edge,), plan.conflicts(working))` must answer:
    `edge` keeps off `working` (link-disjoint, and in node mode off its
    interior), and no entry whose working conflicts with it protects over it."""
    return (disjoint(Walk((edge.u, edge.v), (edge,)), working, plan.mode)
            and may_share_oracle(plan, edge, conflicts_oracle(plan, working)))


# -- committing an entry: add_entry as it was before its screen ---------------------

def _reference_own_bits(plan: AllocationPlan, e: EdgeId) -> int:
    return plan._footprint(e[:2], (e,), True)


def _reference_entry_violations(plan: AllocationPlan, entry: PlanEntry) -> list[PlanViolation]:
    """_entry_violations as it was, its may_share spelled out on the blockers."""
    d = entry.demand
    out = plan._disjointness(entry) if "a" in plan.enforce else []
    if "b" in plan.enforce:
        for e in entry.working.edges:
            role = plan._roles.get(e)
            if role is not None:
                out.append(PlanViolation("b", (d.id,), f"working edge {e} already {role}"))
        for e in entry.protection.edges:
            if plan._roles.get(e) == "working":
                out.append(PlanViolation("b", (d.id,), f"protection reuses working edge {e}"))
    if "c" in plan.enforce:
        mask = plan._footprint(entry.working.nodes, entry.working.edges, False)
        flagged = set()
        for e in entry.protection.edges:
            if not (plan._blockers.get(e) or _reference_own_bits(plan, e)) & mask:
                continue
            for other in plan.entries:  # the edge's users, in entry order
                if (e in other.protection.edges and other.demand.id not in flagged
                        and not disjoint(other.working, entry.working, plan.mode)):
                    flagged.add(other.demand.id)
                    out.append(PlanViolation(
                        "c", (d.id, other.demand.id),
                        f"shared protection edge {e} but conflicting workings"))
    if "d" in plan.enforce:
        for i in range(len(entry.protection.edges) - 1):
            e, f = entry.protection.edges[i], entry.protection.edges[i + 1]
            x = entry.protection.nodes[i + 1]
            for a, b in ((e, f), (f, e)):
                cur = plan._partner.get((a, x))
                if cur is not None and cur != b:
                    out.append(PlanViolation(
                        "d", (d.id,),
                        f"branch point at {x}: {a} already cross-connected to {cur}, "
                        f"needs {b}"))
    return out


def set_role(plan: AllocationPlan, e: EdgeId, role: str) -> None:
    """Give `e` a role and hold its ordinal, as add_entry once did per
    edge; a test can so fill a link without an entry."""
    plan._roles[e] = role
    used = plan._used_ordinals.setdefault(e.link, set())
    used.add(e.index)
    cap = plan.graph.capacity(e.u, e.v)
    if cap is not None and len(used) >= cap:
        plan._free.difference_update(((e.u, e.v), (e.v, e.u)))


def reference_add_entry(plan: AllocationPlan, entry: PlanEntry) -> None:
    """plan.add_entry(entry) as it was before it had a screen: every check
    run in full on every entry, then each write through a per-edge helper.
    The differential oracle for the screen and the one-pass writes."""
    did = entry.demand.id
    if did in plan._demand_ids:
        raise PlanError([PlanViolation("structure", (did,),
                                       f"demand {did} is already in the plan")])
    violations = (plan._structural_violations(entry)
                  or _reference_entry_violations(plan, entry))
    if violations:
        raise PlanError(violations)
    untrailed = [e for e in entry.protection.edges if e not in plan._blockers]
    for e in entry.working.edges:
        set_role(plan, e, "working")
    footprint = plan._footprint(entry.working.nodes, entry.working.edges, True)
    blockers = plan._blockers
    for e in entry.protection.edges:
        if e not in plan._roles:
            set_role(plan, e, "protection")
        blockers[e] = (blockers.get(e) or _reference_own_bits(plan, e)) | footprint
    if "d" in plan.enforce:
        for e in untrailed:
            plan._new_singleton_trail(e)
        for i in range(len(entry.protection.edges) - 1):
            e, f = entry.protection.edges[i], entry.protection.edges[i + 1]
            x = entry.protection.nodes[i + 1]
            if plan._partner.get((e, x)) != f:
                plan._connect(e, f, x)
    plan._demand_ids.add(did)
    plan.entries.append(entry)


# -- graph files: the two-pass reader that graph.load_graph replaced --

def reference_load_graph(text: str) -> Graph:
    """load_graph as it was: a read pass that checks each line's own fields
    and queues the links, then a pass over the queued links, each stopping
    past the earliest error.  The differential oracle for the one-pass
    reader; it keeps its own copy of the node-id rule."""
    nodes: list[str] = []
    seen: set[str] = set()
    links: list[tuple[str, str, int | None]] = []
    pending: list[tuple[int, str, str, int | None]] = []

    def read(lineno: int, fields: list[str]) -> None:
        kind = fields[0]
        if kind == "node":
            if len(fields) != 2:
                raise GraphParseError(lineno, "expected: node <id>")
            name = fields[1]
            if name in seen:
                raise GraphParseError(lineno, f"duplicate node {name}")
            if not name or any(ch.isspace() or ch in "~#|" for ch in name):
                raise GraphParseError(lineno, f"invalid node id {name!r}")
            seen.add(name)
            nodes.append(name)
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
            pending.append((lineno, u, v, cap))
        else:
            raise GraphParseError(lineno, f"unknown directive {kind!r}")

    keys: set[tuple[str, str]] = set()

    def add_link(lineno: int, u: str, v: str, cap: int | None) -> None:
        for x in (u, v):
            if x not in seen:
                raise GraphParseError(lineno, f"unknown node {x} in link")
        if u == v:
            raise GraphParseError(lineno, f"self-loop link at {u}")
        key = link_key(u, v)
        if key in keys:
            raise GraphParseError(lineno, f"duplicate link {u}-{v}")
        keys.add(key)
        links.append((u, v, cap))

    first: GraphParseError | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                read(lineno, line.split())
            except GraphParseError as exc:
                first = first or exc
    for lineno, u, v, cap in pending:
        if first is not None and first.lineno < lineno:
            break
        try:
            add_link(lineno, u, v, cap)
        except GraphParseError as exc:
            first = exc
            break
    if first is not None:
        raise first
    return Graph(nodes, links)


# -- plan entry lines: the reader that parsed every edge token anew --

def reference_parse_entry(lineno: int, line: str) -> PlanEntry:
    """plan._parse_entry as it was: each walk joined again and read by the
    old Walk.parse, which split, interned and checked every edge token, a
    repeated one too.  The differential oracle for the reader that looks
    each distinct token up once."""
    def parse_walk(text: str) -> Walk:
        tokens = text.split()
        if not tokens:
            raise GraphError("empty walk")
        nodes = tuple(map(intern, tokens[0::2]))
        edges = [EdgeId.parse(t) for t in tokens[1::2]]
        return Walk(nodes, tuple(edges))

    try:
        [_, did, u, v], [w, *working], [p, *protection] = (f.split() for f in line.split("|"))
        if (w, p) != ("working", "protection"):
            raise ValueError
        return PlanEntry(Demand(int(did), intern(u), intern(v)),
                         parse_walk(" ".join(working)), parse_walk(" ".join(protection)))
    except GraphError as exc:
        raise PlanError(f"line {lineno}: {exc}") from exc
    except ValueError:
        raise PlanError(f"line {lineno}: expected "
                        f"'entry <id> <u> <v> | working ... | protection ...'") from None


# -- shortest routes: the depth-first enumerator that graph.ranked_routes replaced --

def repeat_horizon_oracle(seq, closed: bool) -> list[int] | None:
    """A trail's repeat horizon by its definition, None when `seq`, the
    trail's walk (its ring when closed), repeats no node.  For s, `seq` or
    the ring written twice, position i gets the least j > i at which s[j]
    already occurs in s[i:j], or len(s) if there is none."""
    if len(set(seq)) == len(seq):
        return None
    s = list(seq) * 2 if closed else list(seq)
    return [next((j for j in range(i + 1, len(s)) if s[j] in s[i:j]), len(s))
            for i in range(len(s))]


def shortest_paths_oracle(graph: Graph, u: str, v: str, usable=None):
    """Every minimum-hop node sequence from u to v over links accepted by
    `usable`, in lexicographic order; nothing if v is unreachable.

    A BFS from v, then the DAG towards v walked depth-first over the sorted
    neighbour lists, each node's successors worked out once, when the walk
    first reaches it.
    """
    if u not in graph.nodes or v not in graph.nodes:
        raise GraphError(f"unknown terminal {u if u not in graph.nodes else v}")
    dist = {v: 0}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for w in graph.neighbors(x):
            if w not in dist and (usable is None or usable(x, w)):
                dist[w] = dist[x] + 1
                queue.append(w)
    if u not in dist:
        return
    if u == v:
        yield (u,)
        return
    succ: dict[str, tuple[str, ...]] = {}

    def successors(x: str):
        if x not in succ:
            step = dist[x] - 1
            succ[x] = tuple(w for w in graph.neighbors(x)
                            if dist.get(w) == step and (usable is None or usable(x, w)))
        return iter(succ[x])

    path = [u]
    branches = [successors(u)]
    while branches:
        w = next(branches[-1], None)
        if w is None:
            branches.pop()
            path.pop()
        elif w == v:
            yield (*path, w)
        else:
            path.append(w)
            branches.append(successors(w))


# -- rival graphs: what solve requires of its input, built, checked, repaired --

def rival_graph(nodes, arcs, source: str) -> RivalGraph:
    """An eager graph: every out-list built and checked by `out_lists` up
    front, then handed to the search as it is."""
    nodes = tuple(nodes)
    return RivalGraph(RivalGraph.node_bits(nodes), source,
                      RivalGraph.out_lists(nodes, arcs).__getitem__, {})


def check_rivals(g: RivalGraph) -> dict[ArcId, Arc]:
    """g's arcs by id, once every rival they list is known to be one of them."""
    arcs = g.arcs
    known = sum(1 << a for a in arcs)
    for arc in arcs.values():
        if arc.rivals & ~known:
            rid = next(r for r in arc.rivals if r not in arcs)
            raise ValueError(f"arc {arc.id!r} lists unknown rival {rid!r}")
    return arcs


def is_symmetric(g: RivalGraph) -> bool:
    """Whether every arc is listed back by each of its rivals, as solve needs."""
    arcs = check_rivals(g)
    return all(arcs[rid].rivals >> arc.id & 1
               for arc in arcs.values() for rid in arc.rivals)


def symmetrize(g: RivalGraph) -> RivalGraph:
    """Close the rival relation under symmetry; admissibility is unchanged."""
    arcs = check_rivals(g)
    masks: dict[ArcId, int] = {a: arc.rivals for a, arc in arcs.items()}
    for arc in arcs.values():
        for rid in arc.rivals:
            masks[rid] |= 1 << arc.id
    return rival_graph(g.nodes, [Arc(a.id, a.tail, a.head, a.length, ArcSet(masks[a.id]),
                                     a.tiebreak) for a in arcs.values()], g.source)


def reflection_grid(n: int) -> RivalGraph:
    """Worst-case family: the (2n+1)x(2n+1) south/west grid where every arc's
    rival is its mirror image across the line x + y = 0.

    From source (n, n) the number of undominated partial paths roughly doubles
    per step, so any fixed limit is exceeded for moderate n; used to exercise
    graceful failure.
    """
    nodes = [f"{x},{y}" for x in range(-n, n + 1) for y in range(-n, n + 1)]

    def reflect(start, end):
        # reflection across x + y = 0 maps (x, y) to (-y, -x); re-orient the
        # image so it points south or west again
        a, b = (-start[1], -start[0]), (-end[1], -end[0])
        return max(a, b), min(a, b)

    # arcs numbered in the order built: per node, south before west
    ends = [((x, y), (x + dx, y + dy)) for x in range(-n, n + 1) for y in range(-n, n + 1)
            for dx, dy in ((0, -1), (-1, 0)) if x + dx >= -n and y + dy >= -n]
    arc_id = {e: i for i, e in enumerate(ends)}
    label = "{},{}".format
    arcs = [Arc(i, label(*start), label(*end), 1, ArcSet(1 << arc_id[reflect(start, end)]))
            for i, (start, end) in enumerate(ends)]
    return rival_graph(nodes, arcs, f"{n},{n}")


@pytest.fixture(scope="session")
def icosahedron():
    return standard_topology("icosahedron")


@pytest.fixture(scope="session")
def k66():
    return standard_topology("k66")


@pytest.fixture(scope="session")
def grid3x4():
    return standard_topology("grid3x4")


@pytest.fixture(scope="session")
def tietze():
    return standard_topology("tietze")


@pytest.fixture(scope="session")
def cycle12plus3():
    return standard_topology("cycle12plus3")


@pytest.fixture
def five_node():
    """The two-triangle example network: A-B and C-D have direct links, with
    E bridging both triangles (links AB, CD, CA, AE, EB, ED, DB)."""
    return Graph("ABCDE", [
        ("A", "B", UNBOUNDED),
        ("C", "D", UNBOUNDED),
        ("C", "A", UNBOUNDED),
        ("A", "E", UNBOUNDED),
        ("E", "B", UNBOUNDED),
        ("E", "D", UNBOUNDED),
        ("D", "B", UNBOUNDED),
    ])


@pytest.fixture
def multigraph():
    """Five-node multigraph with a doubled D-E link (named edges a..f in tests)."""
    return Graph("ABCDE", [
        ("A", "B", 2),
        ("B", "C", 2),
        ("B", "D", 2),
        ("C", "D", 2),
        ("D", "E", 2),
    ])


def _random_simple_path(rng, g, u, v, usable=None):
    """Some simple u-v path, by depth-first search over shuffled neighbors."""
    path, seen = [u], {u}

    def dfs(x):
        if x == v:
            return True
        options = [w for w in g.neighbors(x)
                   if w not in seen and (usable is None or usable(x, w))]
        rng.shuffle(options)
        for w in options:
            seen.add(w)
            path.append(w)
            if dfs(w):
                return True
            path.pop()
        return False

    return tuple(path) if dfs(u) else None


def random_connected_graph(rng: random.Random, n: int, tight: bool) -> Graph:
    """A random spanning tree plus extra links; with `tight`, many links
    carry 1-3 units so capacity runs out while routing."""
    nodes = [f"n{i}" for i in range(n)]
    pairs = {tuple(sorted((nodes[i], nodes[rng.randrange(i)]))) for i in range(1, n)}
    while len(pairs) < int(1.8 * n):
        pairs.add(tuple(sorted(rng.sample(nodes, 2))))

    def cap():
        return rng.randint(1, 3) if tight and rng.random() < 0.4 else UNBOUNDED

    return Graph(nodes, [(u, v, cap()) for u, v in sorted(pairs)])


RANDOM_ENFORCE = ("", "abd", "ab", "abcd", "d", "bd")


def _random_plan(seed, mode, enforce=None):
    """A plan on a random connected graph of 6-10 nodes, grown from random
    entries by add_entry (entries it refuses are dropped).  `enforce`
    defaults to RANDOM_ENFORCE[seed % len(RANDOM_ENFORCE)].

    Ordinals come from a pool of two or three per link, so workings collide,
    protections are shared and trails branch: with enforce="" the plans break
    all four rules.  About one protection in five ignores the working path.
    """
    if enforce is None:
        enforce = RANDOM_ENFORCE[seed % len(RANDOM_ENFORCE)]
    rng = random.Random(seed)
    n = rng.randint(6, 10)
    nodes = [f"n{i}" for i in range(n)]
    links = {}
    for i in range(1, n):
        links[link_key(nodes[i], nodes[rng.randrange(i)])] = rng.choice((None, 2, 3))
    for _ in range(n):
        a, b = rng.sample(nodes, 2)
        links.setdefault(link_key(a, b), rng.choice((None, 2, 3)))
    g = Graph(nodes, [(a, b, cap) for (a, b), cap in links.items()])
    plan = AllocationPlan(g, mode=mode, enforce=enforce)

    def materialize(seq, pool):
        edges = []
        for a, b in zip(seq, seq[1:]):
            cap = g.capacity(a, b)
            edges.append(EdgeId(a, b, rng.randrange(min(pool, cap or pool))))
        return Walk(seq, tuple(edges))

    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(6)]
    last = {}
    for did in range(rng.randint(8, 24)):
        u, v = rng.choice(pairs)
        if (u, v) in last and rng.random() < 0.3:
            # a copy on its pair's last routes, sharing the whole protection
            working, protection = last[(u, v)]
        else:
            working = _random_simple_path(rng, g, u, v)
            protection = None
            if rng.random() < 0.8:
                protection = _random_simple_path(rng, g, u, v, _avoiding(working, mode))
            if protection is None:
                protection = _random_simple_path(rng, g, u, v)
            protection = materialize(protection, 2)
        last[(u, v)] = working, protection
        try:
            plan.add_entry(PlanEntry(Demand(did, u, v), materialize(working, 3), protection))
        except PlanError:
            pass
    return plan


@pytest.fixture(scope="session")
def random_plan():
    """random_plan(seed, mode, enforce=None) -> AllocationPlan; see _random_plan."""
    return _random_plan
