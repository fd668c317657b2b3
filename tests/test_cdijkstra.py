import heapq
import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pxtmesh.cdijkstra import (
    DEFAULT_LIMITS,
    Arc,
    ArcSet,
    PartialPath,
    ResourceLimitExceeded,
    RivalGraph,
    SearchLimits,
    solve,
)

from conftest import arc_set, is_symmetric, reflection_grid, rival_graph, symmetrize


def one_way_worked_example() -> RivalGraph:
    """Six-node instance reproducing the documented search walk-through,
    each rival pair marked on one of its arcs only.

    The unconstrained optimum v1->v3 rides e4 then e6, which are rivals, so
    the admissible optimum detours via v4.  Lengths/rivals are pinned by the
    optimal paths and the search counters asserted below.  Arc ei has id i.
    """
    arcs = [
        Arc(1, "v1", "v2", 4),
        Arc(2, "v2", "v3", 1),
        Arc(3, "v1", "v4", 1),
        Arc(4, "v1", "v5", 0, arc_set({1, 6})),
        Arc(5, "v5", "v4", 1),
        Arc(6, "v5", "v2", 1),
        Arc(7, "v6", "v3", 9),
        Arc(8, "v2", "v6", 9),
        Arc(9, "v4", "v5", 0),
        Arc(10, "v4", "v6", 9),
        Arc(11, "v5", "v6", 2, arc_set({5})),
    ]
    return rival_graph([f"v{i}" for i in range(1, 7)], arcs, "v1")


def worked_example() -> RivalGraph:
    """The worked example with every rival pair marked both ways, as solve
    requires."""
    return symmetrize(one_way_worked_example())


def lazy_graph(nodes, arcs, source) -> RivalGraph:
    """A graph whose out-lists are fresh copies made on first expansion, as
    the router's are, over arcs checked by `out_lists` as the router checks
    them."""
    out = RivalGraph.out_lists(nodes, arcs)
    return RivalGraph(RivalGraph.node_bits(nodes), source, lambda n: list(out[n]), {})


# "RivalGraph": out-lists built up front and handed out as they are;
# "lazy_graph": copies made on first expansion, as the router's are
BUILDERS = [pytest.param(rival_graph, id="RivalGraph"), lazy_graph]


class TestConstructionChecks:
    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="negative length"):
            Arc(0, "a", "b", -1)

    def test_arcs_equal_field_by_field(self):
        assert Arc(0, "a", "b", 1) == Arc(0, "a", "b", 1, ArcSet(), 0)
        assert Arc(0, "a", "b", 1) != Arc(0, "a", "b", 1, tiebreak=1)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_duplicate_arc_id_rejected(self, build):
        with pytest.raises(ValueError, match="duplicate arc id"):
            build("ab", [Arc(0, "a", "b", 1), Arc(0, "b", "a", 1)], "a")

    @pytest.mark.parametrize("build", BUILDERS)
    def test_unknown_node_rejected(self, build):
        with pytest.raises(ValueError, match="unknown node"):
            build("ab", [Arc(0, "a", "c", 1)], "a")

    @pytest.mark.parametrize("build", BUILDERS)
    def test_unknown_source_rejected(self, build):
        with pytest.raises(ValueError, match="unknown source"):
            build("ab", [Arc(0, "a", "b", 1)], "c")

    @pytest.mark.parametrize("bad_id", ["x", -1, True, False, 1.0, None])
    @pytest.mark.parametrize("build", BUILDERS)
    def test_arc_id_must_be_a_non_negative_int(self, build, bad_id):
        # ids are bit positions, so a name, a negative or a bool is refused
        with pytest.raises(ValueError, match="not a non-negative int"):
            build("ab", [Arc(0, "b", "a", 1), Arc(bad_id, "a", "b", 1)], "a")

    @pytest.mark.parametrize("build", BUILDERS)
    def test_unknown_rival_bit_rejected(self, build):
        g = build("ab", [Arc(0, "a", "b", 1, arc_set({0, 70}))], "a")
        with pytest.raises(ValueError, match="unknown rival 70"):
            is_symmetric(g)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_unknown_target_rejected(self, build):
        g = build("ab", [Arc(0, "a", "b", 1), Arc(1, "b", "a", 1)], "a")
        with pytest.raises(ValueError, match="unknown target 'c'"):
            solve(g, target="c")

    def test_lazy_target_with_unmade_list_accepted(self):
        # c is known but no arc reaches it, so its out-list is never made
        g = lazy_graph("abc", [Arc(0, "a", "b", 1), Arc(1, "b", "a", 1)], "a")
        res = solve(g, target="c")
        assert (res.paths, res.stored, res.work) == ({}, 2, 2)
        assert set(g.out) == {"a", "b"}

    def test_lazy_lists_made_on_first_expansion_only(self):
        made = []
        eager = worked_example()

        def make(n):
            made.append(n)
            return list(eager.out[n])

        g = RivalGraph(eager.nodes, "v1", make, {})
        assert made == [] and dict(g.out) == {}
        # the view copies every list and keeps none of them
        assert g.arcs == eager.arcs
        assert len(made) == 6 and dict(g.out) == {}
        made.clear()
        # the search makes the lists of the nodes it expands, in that order:
        # v4 is settled before it is expanded
        res = solve(g, target="v4")
        assert (res.stored, res.work) == (5, 6)
        assert made == list(g.out) == ["v1", "v5"]


class TestSymmetrize:
    def test_one_directional_becomes_mutual(self):
        g = one_way_worked_example()
        sym = symmetrize(g)
        assert 4 in sym.arcs[6].rivals
        assert 6 in sym.arcs[4].rivals
        assert set(sym.arcs[1].rivals) == {4}
        assert is_symmetric(sym) and not is_symmetric(g)

    def test_empty_unchanged(self):
        g = rival_graph("ab", [Arc(0, "a", "b", 1)], "a")
        assert symmetrize(g).arcs[0].rivals == ArcSet()

    def test_idempotent(self):
        g = symmetrize(one_way_worked_example())
        again = symmetrize(g)
        assert {a: arc.rivals for a, arc in g.arcs.items()} == \
               {a: arc.rivals for a, arc in again.arcs.items()}

    def test_unknown_rival_rejected(self):
        g = rival_graph("ab", [Arc(0, "a", "b", 1, arc_set({3}))], "a")
        with pytest.raises(ValueError, match="unknown rival 3"):
            symmetrize(g)


# the worked example, target by target: (path, arcs, length) and the search's
# (stored, work), each a separate search that stops when it settles the target
WORKED_TARGETS = {
    "v1": (("v1",), (), 0, 1, 0),
    "v2": (("v1", "v4", "v5", "v2"), (3, 9, 6), 2, 8, 11),
    # the final hop of the v3 optimum rides e2 after e6 (not e9 twice: a
    # path cannot repeat an arc, whatever a hasty transcription may suggest)
    "v3": (("v1", "v4", "v5", "v2", "v3"), (3, 9, 6, 2), 3, 10, 14),
    "v4": (("v1", "v4"), (3,), 1, 5, 6),
    "v5": (("v1", "v5"), (4,), 0, 4, 3),
    "v6": (("v1", "v5", "v6"), (4, 11), 2, 9, 13),
}


def solve_each(g: RivalGraph, limits: SearchLimits = DEFAULT_LIMITS) -> dict[str, PartialPath]:
    """One search per target: the path of every node that has one."""
    paths = {}
    for t in g.nodes:
        paths.update(solve(g, limits, target=t).paths)
    return paths


class TestWorkedExample:
    @pytest.mark.parametrize("target", WORKED_TARGETS)
    def test_path_and_counters_per_target(self, target):
        path, arcs, length, stored, work = WORKED_TARGETS[target]
        res = solve(worked_example(), target=target)
        assert res.paths == {target: PartialPath(path, arcs, length)}
        assert (res.stored, res.work) == (stored, work)
        assert outcome(solve, worked_example(), target=target) == \
            outcome(all_targets_solve, worked_example(), target=target)

    def test_lengths_and_paths(self):
        paths = solve_each(worked_example())
        got = {n: p.length for n, p in paths.items()}
        assert got == {"v1": 0, "v2": 2, "v3": 3, "v4": 1, "v5": 0, "v6": 2}
        assert paths["v2"].arcs == (3, 9, 6)
        assert paths["v3"].arcs == (3, 9, 6, 2)
        assert paths["v6"].arcs == (4, 11)
        assert paths == all_targets_solve(worked_example()).paths

    def test_results_do_not_form_a_tree(self):
        paths = solve_each(worked_example())
        p2, p6 = paths["v2"], paths["v6"]
        shared = set(p2.path) & set(p6.path) - {"v1"}
        assert "v5" in shared
        i2, i6 = p2.path.index("v5"), p6.path.index("v5")
        assert p2.arcs[:i2] != p6.arcs[:i6]

    def test_counters_follow_the_walkthrough(self):
        # arcs probed and partial paths stored (net of those displaced);
        # a dropped or extra extension anywhere in the walk-through moves them
        res = all_targets_solve(worked_example())
        assert (res.stored, res.work) == (10, 14)
        res = solve(worked_example(), target="v4")
        assert (res.stored, res.work) == (5, 6)
        # v3 is settled last, so its search is the whole walk-through
        res = solve(worked_example(), target="v3")
        assert (res.stored, res.work) == (10, 14)


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
            rec(arc.head, visited | {arc.head}, forb.union(arc.rivals), nl)

    rec(g.source, {g.source}, frozenset(), 0.0)
    return best


def random_instance(rng: random.Random, n_nodes=8, n_arcs=20, n_rivals=6,
                    zero_lengths=True) -> RivalGraph:
    nodes = [f"n{i}" for i in range(rng.randint(2, n_nodes))]
    arcs = []
    for i in range(rng.randint(1, n_arcs)):
        tail, head = rng.sample(nodes, 2) if len(nodes) > 1 else (nodes[0], nodes[0])
        lo = 0 if zero_lengths else 1
        arcs.append(Arc(i, tail, head, rng.randint(lo, 9)))
    ids = [a.id for a in arcs]
    rivals: dict[int, set] = {i: set() for i in ids}
    for _ in range(rng.randint(0, n_rivals)):
        x, y = rng.choice(ids), rng.choice(ids)
        if x != y:
            rivals[x].add(y)
    arcs = [Arc(a.id, a.tail, a.head, a.length, arc_set(rivals[a.id])) for a in arcs]
    return rival_graph(nodes, arcs, nodes[0])


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
    paths = solve_each(g)
    # a node without a path is one whose search ran dry
    assert {n: p.length for n, p in paths.items()} == expected
    assert all_targets_solve(g).unreachable == set(g.nodes) - set(expected)


@pytest.mark.parametrize("seed", range(40))
def test_oracle_equivalence_sample(seed):
    assert_matches_brute_force(symmetrize(random_instance(random.Random(seed))))


@pytest.mark.parametrize("seed", range(25))
def test_pruning_soundness(seed):
    """Small dense instances, on which domination pruning drops many
    partial paths: what survives still reaches every optimum."""
    g = symmetrize(random_instance(random.Random(2000 + seed), n_nodes=6, n_arcs=12))
    assert_matches_brute_force(g)


@pytest.mark.parametrize("seed", range(20))
def test_degenerate_matches_dijkstra(seed):
    rng = random.Random(1000 + seed)
    g = random_instance(rng, n_rivals=0)
    assert {n: p.length for n, p in solve_each(g).items()} == classic_dijkstra(g)


@pytest.mark.parametrize("seed", range(30))
def test_returned_paths_admissible_and_simple(seed):
    g = symmetrize(random_instance(random.Random(3000 + seed)))
    for node, p in solve_each(g).items():
        assert len(set(p.path)) == len(p.path)
        used = set(p.arcs)
        for aid in p.arcs:
            assert used.isdisjoint(g.arcs[aid].rivals)
        assert sum(g.arcs[a].length for a in p.arcs) == p.length


class TestLimits:
    def test_stored_limit_on_small_grid(self):
        g = reflection_grid(6)
        limits = SearchLimits(max_stored=200, max_work=10**7)
        with pytest.raises(ResourceLimitExceeded) as exc:
            all_targets_solve(g, limits)
        assert exc.value.limit == "stored"
        res = exc.value.result
        assert res.undecided
        # decided nodes are genuinely optimal: above the anti-diagonal the
        # rival constraint cannot bind, so lengths equal Manhattan distance
        for node, p in res.paths.items():
            x, y = map(int, node.split(","))
            assert x + y >= 0
            assert p.length == (6 - x) + (6 - y)
        # target by target, solve settles exactly the nodes the oracle
        # decided, on the same counters, and hits the limit for the rest
        hit = set()
        for t in g.nodes:
            got = outcome(solve, g, limits, t)
            assert got == outcome(all_targets_solve, g, limits, t)
            if got.limit is None:
                assert got.paths == {t: res.paths[t]}
            else:
                assert (got.limit, got.paths) == ("stored", {})
                hit.add(t)
        assert hit == res.undecided

    def test_work_limit(self):
        g = reflection_grid(4)
        with pytest.raises(ResourceLimitExceeded) as exc:
            solve(g, SearchLimits(max_stored=10**6, max_work=50), target="-4,-4")
        assert exc.value.limit == "work"
        assert (exc.value.result.paths, exc.value.result.work) == ({}, 51)

    def test_target_short_circuits(self):
        g = worked_example()
        res = solve(g, target="v4")
        assert res.paths["v4"].length == 1
        # it stopped with v3 unsettled: the oracle's same search says so
        assert outcome(solve, g, target="v4") == outcome(all_targets_solve, g, target="v4")
        assert "v3" in all_targets_solve(g, target="v4").undecided

    def test_target_result_holds_the_target_path_only(self):
        res = solve(worked_example(), target="v4")
        assert res.paths == {"v4": PartialPath(("v1", "v4"), (3,), 1)}
        # v1 and v5 were settled on the way: neither undecided nor unreachable
        oracle = all_targets_solve(worked_example(), target="v4")
        assert oracle.paths == res.paths
        assert oracle.undecided == {"v2", "v3", "v6"}
        assert oracle.unreachable == set()
        cut = rival_graph("abc", [Arc(0, "a", "b", 1), Arc(1, "b", "a", 1)], "a")
        assert solve(cut, target="c").paths == {}
        res = all_targets_solve(cut, target="c")
        assert (res.paths, res.undecided, res.unreachable) == ({}, set(), {"c"})

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            SearchLimits(max_stored=0)


# -- differential oracles: the all-targets search and the frozenset search -----

@dataclass
class OracleResult:
    """An oracle search's result: the path of each node it settled (of the
    target alone, with a target), the nodes proven to have none and those
    left unsettled, and the counters."""

    paths: dict[str, PartialPath] = field(default_factory=dict)
    unreachable: set[str] = field(default_factory=set)
    undecided: set[str] = field(default_factory=set)
    stored: int = 0
    work: int = 0


class Label:
    """One partial path of the oracle searches."""

    __slots__ = ("node", "arc", "parent", "length", "forb", "nodes",
                 "secondary", "alive")

    def __init__(self, node, arc, parent, length, forb, nodes, secondary):
        self.node = node
        self.arc = arc
        self.parent = parent
        self.length = length
        self.forb = forb
        self.nodes = nodes
        self.secondary = secondary
        self.alive = True

    def tie_key(self):
        rev = []
        cur = self
        while cur is not None:
            rev.append(cur.node)
            cur = cur.parent
        return (self.secondary, tuple(reversed(rev)))

    def materialize(self) -> PartialPath:
        rev_nodes, rev_arcs = [], []
        cur = self
        while cur is not None:
            rev_nodes.append(cur.node)
            if cur.arc is not None:
                rev_arcs.append(cur.arc)
            cur = cur.parent
        return PartialPath(tuple(reversed(rev_nodes)), tuple(reversed(rev_arcs)), self.length)


class BitsetNodeStore:
    """One node's partial paths: the settled (inked) one, and the penciled
    ones keyed by their forbidden-arc bitset and grouped by its size."""

    __slots__ = ("inked", "pencil", "by_size")

    def __init__(self):
        self.inked: Label | None = None
        self.pencil: dict[int, Label] = {}
        self.by_size: dict[int, set[int]] = {}

    def dominated(self, entry: Label) -> bool:
        length, forb = entry.length, entry.forb
        ink = self.inked
        if ink is not None and ink.length <= length and ink.forb & forb == ink.forb:
            return True
        # a same-size dominator must be the exact same set: hash, don't scan
        same = self.pencil.get(forb)
        if same is not None and same.length <= length:
            if not (same.length == length and entry.tie_key() < same.tie_key()):
                return True
        size = forb.bit_count()
        for s, bucket in self.by_size.items():
            if s >= size:
                continue
            for f in bucket:
                if f & forb == f and self.pencil[f].length <= length:
                    return True
        return False

    def insert(self, entry: Label) -> list[Label]:
        """Store entry; returns the penciled entries it displaces."""
        removed = []
        forb = entry.forb
        size = forb.bit_count()
        same = self.pencil.get(forb)
        if same is not None and entry.length <= same.length:
            removed.append(same)
            self._remove(forb)
        for s in [s for s in self.by_size if s > size]:
            for f in list(self.by_size[s]):
                old = self.pencil[f]
                if entry.length <= old.length and forb & f == forb:
                    removed.append(old)
                    self._remove(f)
        self.pencil[forb] = entry
        self.by_size.setdefault(size, set()).add(forb)
        return removed

    def _remove(self, f: int) -> None:
        entry = self.pencil.pop(f)
        entry.alive = False
        size = f.bit_count()
        bucket = self.by_size[size]
        bucket.discard(f)
        if not bucket:
            del self.by_size[size]


def all_targets_solve(g: RivalGraph, limits: SearchLimits = DEFAULT_LIMITS,
                      target: str | None = None) -> OracleResult:
    """Shortest admissible path from g.source to every node (or to `target`).

    The search as it was before solve() took one target, kept as the
    differential oracle: the same pop order, counters and paths, with an
    object per probe, a store per node and a closing sweep over every node.

    Nodes proven to have no admissible path are reported unreachable; nodes
    the search never settled (early target exit) are undecided.  Exceeding a
    limit raises ResourceLimitExceeded carrying the partial result, with all
    unsettled nodes undecided.

    With a `target`, `paths` holds the target's path alone, if it has one:
    the other nodes the search settled are in none of `paths`, `undecided`
    and `unreachable`.  `undecided` and `unreachable` still name every node
    left unsettled.
    """
    node_bit = {n: 1 << i for i, n in enumerate(g.nodes)}
    if target is not None and target not in node_bit:
        raise ValueError(f"unknown target {target!r}")
    stores: defaultdict[str, BitsetNodeStore] = defaultdict(BitsetNodeStore)
    heap: list = []
    seq = 0
    stored = 0
    work = 0
    blacks = 0

    root = Label(g.source, None, None, 0, 0, node_bit[g.source], 0)
    stores[g.source].inked = root
    blacks += 1
    stored += 1
    heapq.heappush(heap, (0, 0, 0, g.source, seq, root))

    def result(undecided_rest: bool) -> OracleResult:
        res = OracleResult(stored=stored, work=work)
        for n in g.nodes:
            ink = stores[n].inked if n in stores else None
            if ink is not None:
                if target is None or n == target:
                    res.paths[n] = ink.materialize()
            elif undecided_rest:
                res.undecided.add(n)
            else:
                res.unreachable.add(n)
        return res

    while heap:
        key = heapq.heappop(heap)
        active = key[5]
        if not active.alive:
            continue
        node = active.node
        forb, visited = active.forb, active.nodes
        store = stores[node]
        if store.inked is None:
            store.pencil.pop(forb, None)
            size = key[2]
            bucket = store.by_size.get(size)
            if bucket is not None:
                bucket.discard(forb)
                if not bucket:
                    del store.by_size[size]
            store.inked = active
            blacks += 1
        if target is not None and stores[target].inked is not None:
            return result(undecided_rest=True)
        if blacks == len(g.nodes):
            return result(undecided_rest=False)
        for arc in g.out[node]:
            work += 1
            if work > limits.max_work:
                raise ResourceLimitExceeded("work", result(undecided_rest=True))
            head_bit = node_bit[arc.head]
            if forb >> arc.id & 1 or visited & head_bit:
                continue
            nlen = active.length + arc.length
            nforb = forb | arc.rivals
            head_store = stores[arc.head]
            seq += 1
            entry = Label(arc.head, arc.id, active, nlen, nforb,
                          visited | head_bit, active.secondary + arc.tiebreak)
            if head_store.dominated(entry):
                continue
            removed = head_store.insert(entry)
            stored += 1 - len(removed)
            if stored > limits.max_stored:
                raise ResourceLimitExceeded("stored", result(undecided_rest=True))
            heapq.heappush(heap, (nlen, entry.secondary, nforb.bit_count(), arc.head, seq, entry))
    return result(undecided_rest=False)


class FrozensetNodeStore:
    __slots__ = ("inked", "pencil", "by_size")

    def __init__(self):
        self.inked: Label | None = None
        self.pencil: dict[frozenset, Label] = {}
        self.by_size: dict[int, set[frozenset]] = {}

    def dominated(self, entry: Label) -> bool:
        length, forb = entry.length, entry.forb
        ink = self.inked
        if ink is not None and ink.length <= length and ink.forb <= forb:
            return True
        # a same-size dominator must be the exact same set: hash, don't scan
        same = self.pencil.get(forb)
        if same is not None and same.length <= length:
            if not (same.length == length and entry.tie_key() < same.tie_key()):
                return True
        size = len(forb)
        for s, bucket in self.by_size.items():
            if s >= size:
                continue
            for f in bucket:
                if self.pencil[f].length <= length and f <= forb:
                    return True
        return False

    def insert(self, entry: Label) -> list[Label]:
        """Store entry; returns the penciled entries it displaces."""
        removed = []
        size = len(entry.forb)
        same = self.pencil.get(entry.forb)
        if same is not None and entry.length <= same.length:
            removed.append(same)
            self._remove(entry.forb)
        for s in [s for s in self.by_size if s > size]:
            for f in list(self.by_size[s]):
                old = self.pencil[f]
                if entry.length <= old.length and entry.forb <= f:
                    removed.append(old)
                    self._remove(f)
        self.pencil[entry.forb] = entry
        self.by_size.setdefault(size, set()).add(entry.forb)
        return removed

    def _remove(self, f: frozenset) -> None:
        entry = self.pencil.pop(f)
        entry.alive = False
        bucket = self.by_size[len(f)]
        bucket.discard(f)
        if not bucket:
            del self.by_size[len(f)]


def frozenset_solve(g: RivalGraph, limits: SearchLimits = DEFAULT_LIMITS,
                    target: str | None = None) -> OracleResult:
    """Shortest admissible path from g.source to every node (or to `target`).

    The search as it was before rival sets became int bitsets, kept as the
    differential oracle: it needs arcs whose rivals are frozensets of ids.

    Nodes proven to have no admissible path are reported unreachable; nodes
    the search never settled (early target exit) are undecided.  Exceeding a
    limit raises ResourceLimitExceeded carrying the partial result, with all
    unsettled nodes undecided.

    With a `target`, `paths` holds the target's path alone, if it has one:
    the other nodes the search settled are in none of `paths`, `undecided`
    and `unreachable`.  `undecided` and `unreachable` still name every node
    left unsettled.
    """
    if target is not None and target not in g.nodes:
        raise ValueError(f"unknown target {target!r}")

    stores: defaultdict[str, FrozensetNodeStore] = defaultdict(FrozensetNodeStore)  # made as paths reach nodes
    heap: list = []
    seq = 0
    stored = 0
    work = 0
    blacks = 0

    root = Label(g.source, None, None, 0, frozenset(), frozenset((g.source,)), 0)
    stores[g.source].inked = root
    blacks += 1
    stored += 1
    heapq.heappush(heap, (0, 0, 0, g.source, seq, root))

    def result(undecided_rest: bool) -> OracleResult:
        res = OracleResult(stored=stored, work=work)
        for n in g.nodes:
            ink = stores[n].inked if n in stores else None
            if ink is not None:
                if target is None or n == target:
                    res.paths[n] = ink.materialize()
            elif undecided_rest:
                res.undecided.add(n)
            else:
                res.unreachable.add(n)
        return res

    while heap:
        key = heapq.heappop(heap)
        active = key[5]
        if not active.alive:
            continue
        node = active.node
        store = stores[node]
        if store.inked is None:
            store.pencil.pop(active.forb, None)
            bucket = store.by_size.get(len(active.forb))
            if bucket is not None:
                bucket.discard(active.forb)
                if not bucket:
                    del store.by_size[len(active.forb)]
            store.inked = active
            blacks += 1
        if target is not None and stores[target].inked is not None:
            return result(undecided_rest=True)
        if blacks == len(g.nodes):
            return result(undecided_rest=False)
        for arc in g.out[node]:
            work += 1
            if work > limits.max_work:
                raise ResourceLimitExceeded("work", result(undecided_rest=True))
            if arc.id in active.forb or arc.head in active.nodes:
                continue
            nlen = active.length + arc.length
            nforb = active.forb | arc.rivals
            head_store = stores[arc.head]
            seq += 1
            entry = Label(arc.head, arc.id, active, nlen, nforb,
                          active.nodes | {arc.head}, active.secondary + arc.tiebreak)
            if head_store.dominated(entry):
                continue
            removed = head_store.insert(entry)
            stored += 1 - len(removed)
            if stored > limits.max_stored:
                raise ResourceLimitExceeded("stored", result(undecided_rest=True))
            heapq.heappush(heap, (nlen, entry.secondary, len(nforb), arc.head, seq, entry))
    return result(undecided_rest=False)


def with_frozenset_rivals(g: RivalGraph) -> RivalGraph:
    """The same symmetric graph with every rival set a frozenset of arc ids,
    as frozenset_solve reads it."""
    assert is_symmetric(g)
    arcs = [Arc(a.id, a.tail, a.head, a.length, frozenset(a.rivals), a.tiebreak)
            for a in g.arcs.values()]
    return rival_graph(g.nodes, arcs, g.source)


def relabeled(g: RivalGraph, new_id) -> RivalGraph:
    """g with arc id i renamed new_id(i), arc order kept."""
    arcs = [Arc(new_id(a.id), a.tail, a.head, a.length,
                arc_set(map(new_id, a.rivals)), a.tiebreak) for a in g.arcs.values()]
    return rival_graph(g.nodes, arcs, g.source)


class Outcome(NamedTuple):
    limit: str | None  # the limit hit, if one was
    paths: dict[str, PartialPath]
    stored: int
    work: int


def outcome(solver, g, limits=DEFAULT_LIMITS, target=None) -> Outcome:
    """What `solve` or an oracle returns, or carries out of a limit."""
    try:
        res, limit = solver(g, limits, target=target), None
    except ResourceLimitExceeded as exc:
        res, limit = exc.result, exc.limit
    return Outcome(limit, res.paths, res.stored, res.work)


def unsettled(solver, g, limits=DEFAULT_LIMITS) -> tuple[set[str], set[str]]:
    """An all-targets oracle's unreachable and undecided nodes."""
    try:
        res = solver(g, limits)
    except ResourceLimitExceeded as exc:
        res = exc.result
    return res.unreachable, res.undecided


def assert_matches_frozenset_search(g: RivalGraph, limits=DEFAULT_LIMITS, target=None):
    """solve, or without a target the all-targets oracle, against the
    frozenset search."""
    frozen = with_frozenset_rivals(g)
    got = outcome(all_targets_solve if target is None else solve, g, limits, target)
    assert got == outcome(frozenset_solve, frozen, limits, target)
    if target is None:
        assert unsettled(all_targets_solve, g, limits) == \
            unsettled(frozenset_solve, frozen, limits)
    return got


@pytest.mark.parametrize("seed", range(60))
def test_bitset_search_matches_frozenset_search(seed):
    rng = random.Random(5000 + seed)
    dense = seed % 3 == 0  # domination displaces many penciled paths
    g = random_instance(rng, n_nodes=10, n_arcs=40 if dense else 20,
                        n_rivals=30 if dense else 8)
    if seed % 2:
        # ids past one machine word, and not consecutive
        g = relabeled(g, lambda i: 7 * i + 61)
    g = symmetrize(g)
    assert_matches_frozenset_search(g)
    for target in g.nodes:
        assert_matches_frozenset_search(g, target=target)


@pytest.mark.parametrize("limits", [
    SearchLimits(max_stored=40, max_work=10**6),
    SearchLimits(max_stored=200, max_work=10**6),
    SearchLimits(max_stored=10**6, max_work=50),
    SearchLimits(max_stored=10**6, max_work=700),
], ids=lambda lim: f"stored{lim.max_stored}-work{lim.max_work}")
@pytest.mark.parametrize("n", [3, 5, 6])
def test_bitset_search_matches_frozenset_search_under_limits(n, limits):
    got = assert_matches_frozenset_search(reflection_grid(n), limits)
    target = assert_matches_frozenset_search(reflection_grid(n), limits, target=f"{-n},{-n}")
    assert got[0] is not None and target[0] is not None


def test_bitset_search_matches_frozenset_search_to_completion():
    limit, paths, *_ = assert_matches_frozenset_search(reflection_grid(3))
    assert limit is None and len(paths) == 49


@st.composite
def symmetric_rival_graphs(draw) -> RivalGraph:
    """2-7 nodes and up to 18 arcs with short lengths and tiebreaks 0-2, so
    that equal-length paths often tie on their forbidden sets too, and up to
    12 rival pairs, each marked on both of its arcs."""
    n = draw(st.integers(min_value=2, max_value=7))
    nodes = [f"n{i}" for i in range(n)]
    node = st.integers(min_value=0, max_value=n - 1)
    ends = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                         min_size=1, max_size=18))
    arc = st.integers(min_value=0, max_value=len(ends) - 1)
    pairs = draw(st.lists(st.tuples(arc, arc), max_size=12))
    rivals = [0] * len(ends)
    for a, b in pairs:
        if a != b:
            rivals[a] |= 1 << b
            rivals[b] |= 1 << a
    arcs = [Arc(i, nodes[t], nodes[h], draw(st.integers(min_value=0, max_value=3)),
                ArcSet(rivals[i]), draw(st.integers(min_value=0, max_value=2)))
            for i, (t, h) in enumerate(ends)]
    return rival_graph(nodes, arcs, nodes[0])


small_limits = st.builds(SearchLimits, st.integers(min_value=1, max_value=25),
                         st.integers(min_value=1, max_value=60))


@settings(max_examples=300, deadline=None)
@given(symmetric_rival_graphs(), st.one_of(st.just(DEFAULT_LIMITS), small_limits))
def test_solve_matches_all_targets_oracle(g, limits):
    """For every target, solve hits the same limit, finds the same path and
    counts the same `stored` and `work` as the all-targets search did."""
    for t in g.nodes:
        assert outcome(solve, g, limits, t) == outcome(all_targets_solve, g, limits, t)


@st.composite
def through_graphs(draw) -> tuple[RivalGraph, RivalGraph]:
    """A symmetric rival graph given random `through` bits, each node's a
    set of arc ids that may hold the node's own arcs, and the same graph as
    it was represented before `through`: every arc a copy whose rivals have
    `through` at its tail and head folded in."""
    g = draw(symmetric_rival_graphs())
    arcs = list(g.arcs.values())  # g has no `through`, so these are its own arcs
    arc_ids = st.sampled_from([a.id for a in arcs])
    through = {n: arc_set(ids) for n in g.nodes
               if (ids := draw(st.sets(arc_ids, max_size=4)))}
    out = RivalGraph.out_lists(g.nodes, arcs)
    lazy = RivalGraph(g.nodes, g.source, lambda n: list(out[n]), through)
    folded = rival_graph(g.nodes, [
        Arc(a.id, a.tail, a.head, a.length,
            arc_set(set(a.rivals) | set(through.get(a.tail, ())) | set(through.get(a.head, ()))),
            a.tiebreak) for a in arcs], g.source)
    return lazy, folded


@settings(max_examples=300, deadline=None)
@given(through_graphs(), st.one_of(st.just(DEFAULT_LIMITS), small_limits))
def test_through_matches_folded_rivals(graphs, limits):
    """`through` stands for the rivals it adds: for every target the search
    hits the same limit, finds the same path and counts the same `stored`
    and `work` as on per-arc copies that carry them, and the `arcs` view
    reports those copies' rivals."""
    g, folded = graphs
    assert g.arcs == folded.arcs
    for t in g.nodes:
        assert outcome(solve, g, limits, t) == outcome(solve, folded, limits, t)


# -- ArcSet reads as the set of its bit positions -------------------------------

ids = st.frozensets(st.integers(min_value=0, max_value=200), max_size=12)


@given(ids, ids, st.integers(min_value=-3, max_value=210))
def test_arcset_agrees_with_frozenset(a_ids, b_ids, probe):
    a, b = arc_set(a_ids), arc_set(b_ids)
    assert len(a) == len(a_ids)
    assert (probe in a) == (probe in a_ids)
    assert list(a) == sorted(a_ids)
    assert frozenset(ArcSet(a | b)) == a_ids | b_ids
    assert frozenset(ArcSet(a & b)) == a_ids & b_ids
    assert ((a & b) == a) == (a_ids <= b_ids)
    assert eval(repr(a)) == a
    assert bool(a) == bool(a_ids)
