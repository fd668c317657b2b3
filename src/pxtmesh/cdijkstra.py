"""Shortest admissible single-source paths under rival-arc exclusion.

A directed graph where each arc carries a set of "rival" arcs; a path is
admissible when it contains no arc together with one of that arc's rivals.
The search keeps, per node, a set of partial paths (path, length, forbidden
arcs), prunes with the domination order (no longer and forbids no more), and
extends the globally shortest one first.  It returns one shortest path per
node it settles.  Worst-case cost is exponential, so hard limits on stored
paths and probe work make it fail gracefully instead of hanging.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Hashable, Iterable

ArcId = Hashable


@dataclass(slots=True)
class Arc:
    """One directed arc; the router builds arcs per demand, so it is slotted
    rather than frozen.  Nothing hashes an Arc: graphs key arcs by id."""

    id: ArcId
    tail: str
    head: str
    length: float
    rivals: frozenset = frozenset()
    tiebreak: int = 0  # secondary cost, used only to order equal-length results

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"arc {self.id} has negative length")


class RivalGraph:
    """Directed arcs with rival sets; arc order fixes all tie-breaking."""

    def __init__(self, nodes: Iterable[str], arcs: Iterable[Arc], source: str):
        self.nodes = tuple(dict.fromkeys(nodes))
        # each node's out-arcs in arc order, filled in the one pass over arcs
        self.out: dict[str, list[Arc]] = {n: [] for n in self.nodes}
        self.arcs: dict[ArcId, Arc] = {}
        for arc in arcs:
            if arc.id in self.arcs:
                raise ValueError(f"duplicate arc id {arc.id!r}")
            if arc.tail not in self.out or arc.head not in self.out:
                raise ValueError(f"arc {arc.id!r} references unknown node")
            self.arcs[arc.id] = arc
            self.out[arc.tail].append(arc)
        if source not in self.out:
            raise ValueError(f"unknown source {source!r}")
        self.source = source
        self._known_symmetric = False

    @classmethod
    def _symmetric_by_construction(cls, nodes: Iterable[str], arcs: Iterable[Arc],
                                   source: str) -> "RivalGraph":
        """A graph whose rival sets are symmetric by construction, such as
        the router's auxiliary graph: solve() skips its symmetry check."""
        g = cls(nodes, arcs, source)
        g._known_symmetric = True
        return g

    def is_symmetric(self) -> bool:
        for arc in self.arcs.values():
            for rid in arc.rivals:
                if rid not in self.arcs:
                    raise ValueError(f"arc {arc.id!r} lists unknown rival {rid!r}")
                if arc.id not in self.arcs[rid].rivals:
                    return False
        return True


def symmetrize(g: RivalGraph) -> RivalGraph:
    """Close the rival relation under symmetry; admissibility is unchanged."""
    extra: dict[ArcId, set] = {a: set(arc.rivals) for a, arc in g.arcs.items()}
    for arc in g.arcs.values():
        for rid in arc.rivals:
            if rid not in g.arcs:
                raise ValueError(f"arc {arc.id!r} lists unknown rival {rid!r}")
            extra[rid].add(arc.id)
    arcs = [Arc(a.id, a.tail, a.head, a.length, frozenset(extra[a.id]), a.tiebreak)
            for a in g.arcs.values()]
    return RivalGraph(g.nodes, arcs, g.source)


@dataclass(frozen=True)
class SearchLimits:
    max_stored: int = 1_000_000
    max_work: int = 10_000_000

    def __post_init__(self):
        if self.max_stored <= 0 or self.max_work <= 0:
            raise ValueError("search limits must be positive")


DEFAULT_LIMITS = SearchLimits()


@dataclass(frozen=True)
class PartialPath:
    """Search result for one node: a shortest admissible path from the source."""

    path: tuple[str, ...]
    arcs: tuple[ArcId, ...]
    length: float


@dataclass
class SolveResult:
    paths: dict[str, PartialPath] = field(default_factory=dict)
    unreachable: set[str] = field(default_factory=set)
    undecided: set[str] = field(default_factory=set)
    stored: int = 0
    work: int = 0


class ResourceLimitExceeded(RuntimeError):
    """Search gave up; `result` holds whatever was decided before the limit."""

    def __init__(self, limit: str, result: SolveResult):
        super().__init__(f"constrained search exceeded {limit} limit")
        self.limit = limit
        self.result = result


class _Entry:
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


class _NodeStore:
    __slots__ = ("inked", "pencil", "by_size")

    def __init__(self):
        self.inked: _Entry | None = None
        self.pencil: dict[frozenset, _Entry] = {}
        self.by_size: dict[int, set[frozenset]] = {}

    def dominated(self, entry: _Entry) -> bool:
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

    def insert(self, entry: _Entry) -> list[_Entry]:
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


def solve(g: RivalGraph, limits: SearchLimits = DEFAULT_LIMITS,
          target: str | None = None) -> SolveResult:
    """Shortest admissible path from g.source to every node (or to `target`).

    Nodes proven to have no admissible path are reported unreachable; nodes
    the search never settled (early target exit) are undecided.  Exceeding a
    limit raises ResourceLimitExceeded carrying the partial result, with all
    unsettled nodes undecided.

    With a `target`, `paths` holds the target's path alone, if it has one:
    the other nodes the search settled are in none of `paths`, `undecided`
    and `unreachable`.  `undecided` and `unreachable` still name every node
    left unsettled.
    """
    if not (g._known_symmetric or g.is_symmetric()):
        g = symmetrize(g)
    if target is not None and target not in g.out:
        raise ValueError(f"unknown target {target!r}")

    stores: defaultdict[str, _NodeStore] = defaultdict(_NodeStore)  # made as paths reach nodes
    heap: list = []
    seq = 0
    stored = 0
    work = 0
    blacks = 0

    root = _Entry(g.source, None, None, 0, frozenset(), frozenset((g.source,)), 0)
    stores[g.source].inked = root
    blacks += 1
    stored += 1
    heapq.heappush(heap, (0, 0, 0, g.source, seq, root))

    def result(undecided_rest: bool) -> SolveResult:
        res = SolveResult(stored=stored, work=work)
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
            entry = _Entry(arc.head, arc.id, active, nlen, nforb,
                           active.nodes | {arc.head}, active.secondary + arc.tiebreak)
            if head_store.dominated(entry):
                continue
            removed = head_store.insert(entry)
            stored += 1 - len(removed)
            if stored > limits.max_stored:
                raise ResourceLimitExceeded("stored", result(undecided_rest=True))
            heapq.heappush(heap, (nlen, entry.secondary, len(nforb), arc.head, seq, entry))
    return result(undecided_rest=False)


def reflection_grid(n: int) -> RivalGraph:
    """Worst-case family: the (2n+1)x(2n+1) south/west grid where every arc's
    rival is its mirror image across the line x + y = 0.

    From source (n, n) the number of undominated partial paths roughly doubles
    per step, so any fixed limit is exceeded for moderate n; used to exercise
    graceful failure.
    """
    nodes = [f"{x},{y}" for x in range(-n, n + 1) for y in range(-n, n + 1)]
    arcs = []

    def reflect(x1, y1, x2, y2):
        # reflection across x + y = 0 maps (x, y) to (-y, -x); re-orient the
        # image so it points south or west again
        a, b = (-y1, -x1), (-y2, -x2)
        (sx, sy), (tx, ty) = max(a, b), min(a, b)
        return sx, sy, tx, ty

    def arc_id(x1, y1, x2, y2):
        return f"{x1},{y1}->{x2},{y2}"

    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            for dx, dy in ((0, -1), (-1, 0)):  # south, west
                x2, y2 = x + dx, y + dy
                if x2 < -n or y2 < -n:
                    continue
                rx1, ry1, rx2, ry2 = reflect(x, y, x2, y2)
                rival = arc_id(rx1, ry1, rx2, ry2)
                arcs.append(Arc(arc_id(x, y, x2, y2), f"{x},{y}", f"{x2},{y2}",
                                1, frozenset((rival,))))
    return RivalGraph(nodes, arcs, f"{n},{n}")
