import random

import pytest

from pxtmesh.graph import UNBOUNDED, EdgeId, Graph, Walk, _avoiding, link_key
from pxtmesh.plan import AllocationPlan, Demand, PlanEntry, PlanError
from pxtmesh.topologies import standard_topology


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
