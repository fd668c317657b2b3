"""Shortest admissible single-source paths under rival-arc exclusion.

A directed graph where each arc carries a set of "rival" arcs; a path is
admissible when it contains no arc together with one of that arc's rivals.
The search keeps, per node, a set of partial paths (path, length, forbidden
arcs), prunes with the domination order (no longer and forbids no more), and
extends the globally shortest one first.  It returns one shortest path per
node it settles.  Worst-case cost is exponential, so hard limits on stored
paths and probe work make it fail gracefully instead of hanging.

Arc ids are non-negative ints, and every arc set is an int bitset with bit i
set for arc i: an arc's rivals are an `ArcSet`, and a partial path's
forbidden arcs, like its visited nodes (bit i for `g.nodes[i]`), a plain
int.  The bitset must stand for exactly the arc set it replaces: the heap
orders equal-length paths by the size of that set and domination is subset
order, so search order, the `stored` and `work` counters and the paths found
all depend on it.  They depend on nothing else about the ids: relabelling
arcs consistently, each node's out-arc order kept, changes no result.

The graph has one constructor, and it is lazy: a node's out-arcs are made
when the search first expands the node, so the arcs of nodes it never
expands are never built.  Rival sets must be symmetric, as the router's
auxiliary graph is by construction: solve neither checks nor repairs them.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator

ArcId = int


class ArcSet(int):
    """A set of arc ids as an int bitset: bit i set means arc i is a member.

    `len`, `in` and iteration (in increasing id order) read it as a set.
    Arithmetic and bitwise operators are int's own, so `a | b` and `a & b`
    are the plain-int masks of the union and the intersection; wrap one in
    ArcSet to read it as a set again.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return self.bit_count()

    def __contains__(self, arc_id: object) -> bool:
        return isinstance(arc_id, int) and arc_id >= 0 and self >> arc_id & 1 == 1

    def __iter__(self) -> Iterator[ArcId]:
        mask = int(self)
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __repr__(self) -> str:
        return f"ArcSet({' | '.join(f'1 << {i}' for i in self) or 0})"


NO_ARCS = ArcSet()


@dataclass(slots=True)
class Arc:
    """One directed arc; the router builds arcs per demand, so it is slotted
    rather than frozen.  Nothing hashes an Arc: graphs key arcs by id.

    `id` is a non-negative int and `rivals` the `ArcSet` of the ids of the
    arcs that may not share a path with this one.
    """

    id: ArcId
    tail: str
    head: str
    length: float
    rivals: ArcSet = NO_ARCS
    tiebreak: int = 0  # secondary cost, used only to order equal-length results

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"arc {self.id} has negative length")


class _OutLists(dict):
    """node -> out-arcs; a node's list is made by `make` on first access."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[str], list[Arc]]):
        super().__init__()
        self.make = make

    def __missing__(self, node: str) -> list[Arc]:
        arcs = self[node] = self.make(node)
        return arcs


class RivalGraph:
    """Directed arcs with rival sets.  `make_out(node)` builds a node's
    out-list when the search first expands the node; each node's out-arc
    order fixes all tie-breaking.  The caller puts the arcs `make_out`
    returns through `out_lists`' checks, and makes every rival set
    symmetric: solve() neither checks nor repairs them.  Only the source is
    checked here."""

    def __init__(self, nodes: Iterable[str], source: str,
                 make_out: Callable[[str], list[Arc]]):
        self.nodes = tuple(dict.fromkeys(nodes))
        if source not in self.nodes:
            raise ValueError(f"unknown source {source!r}")
        self.source = source
        self.out = _OutLists(make_out)

    @staticmethod
    def out_lists(nodes: Iterable[str], arcs: Iterable[Arc]) -> dict[str, list[Arc]]:
        """Each node's out-arcs in arc order, filled in one pass over arcs
        that checks every arc id is a non-negative int used once and every
        arc joins two of `nodes`."""
        out: dict[str, list[Arc]] = {n: [] for n in nodes}
        seen: set[ArcId] = set()
        for arc in arcs:
            aid = arc.id
            if type(aid) is not int or aid < 0:  # a bool is no arc id either
                raise ValueError(f"arc id {aid!r} is not a non-negative int")
            if aid in seen:
                raise ValueError(f"duplicate arc id {aid!r}")
            if arc.tail not in out or arc.head not in out:
                raise ValueError(f"arc {aid!r} references unknown node")
            seen.add(aid)
            out[arc.tail].append(arc)
        return out

    @cached_property
    def arcs(self) -> dict[ArcId, Arc]:
        """Every arc by id, node by node in out-list order.  The first read
        builds its own copy of every list, so it makes none of the lists the
        search reads: what the search builds, the search pays for."""
        make = self.out.make
        return {arc.id: arc for n in self.nodes for arc in make(n)}


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
    """One node's partial paths: the settled (inked) one, and the penciled
    ones keyed by their forbidden-arc bitset and grouped by its size."""

    __slots__ = ("inked", "pencil", "by_size")

    def __init__(self):
        self.inked: _Entry | None = None
        self.pencil: dict[int, _Entry] = {}
        self.by_size: dict[int, set[int]] = {}

    def dominated(self, entry: _Entry) -> bool:
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

    def insert(self, entry: _Entry) -> list[_Entry]:
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

    Every rival set must be symmetric, as RivalGraph says: an arc that one
    of its rivals does not list back can share a path with it.
    """
    node_bit = {n: 1 << i for i, n in enumerate(g.nodes)}
    if target is not None and target not in node_bit:
        raise ValueError(f"unknown target {target!r}")
    stores: defaultdict[str, _NodeStore] = defaultdict(_NodeStore)  # made as paths reach nodes
    heap: list = []
    seq = 0
    stored = 0
    work = 0
    blacks = 0

    root = _Entry(g.source, None, None, 0, 0, node_bit[g.source], 0)
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
            entry = _Entry(arc.head, arc.id, active, nlen, nforb,
                           visited | head_bit, active.secondary + arc.tiebreak)
            if head_store.dominated(entry):
                continue
            removed = head_store.insert(entry)
            stored += 1 - len(removed)
            if stored > limits.max_stored:
                raise ResourceLimitExceeded("stored", result(undecided_rest=True))
            heapq.heappush(heap, (nlen, entry.secondary, nforb.bit_count(), arc.head, seq, entry))
    return result(undecided_rest=False)

