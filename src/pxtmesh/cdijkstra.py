"""Shortest admissible path from a source to one target under rival-arc
exclusion.

A directed graph where each arc carries a set of "rival" arcs; a path is
admissible when it contains no arc together with one of that arc's rivals.
The search is label-setting, as in resource-constrained shortest paths: it
keeps, per node, a set of partial paths (labels: path, length, forbidden
arcs), prunes with the domination order (no longer and forbids no more), and
extends the globally shortest one first.  It returns as soon as it settles
the target; the router asks for one target per demand, so no other node's
path is kept.  Worst-case cost is exponential, so hard limits on stored
paths and probe work make it fail gracefully instead of hanging.

Arc ids are non-negative ints, and every arc set is an int bitset with bit i
set for arc i: an arc's rivals are an `ArcSet`, and a partial path's
forbidden arcs, like its visited nodes (the bit `g.nodes` maps each to), a
plain int.  The bitset must stand for exactly the arc set it replaces: the heap
orders equal-length paths by the size of that set and domination is subset
order, so search order, the `stored` and `work` counters and the path found
all depend on it.  They depend on nothing else about the ids: relabelling
arcs consistently, each node's out-arc order kept, changes no result.

The graph has one constructor, and it is lazy: a node's out-arcs are made
when the search first expands the node, so the arcs of nodes it never
expands are never built.  Besides its arcs' own rivals it carries `through`:
per node, the arcs that pass through that node in their interior, each a
rival of every arc at the node.  An arc's effective rivals are its own
`rivals` ORed with `through` at its tail and at its head, so an arc that
gains rivals only from where it goes is never copied to carry them.  The
effective rival sets must be symmetric, as the router's auxiliary graph's
are by construction: solve neither checks nor repairs them.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator

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
    """Directed arcs with rival sets.  `nodes` maps each node to its bit in
    a path's visited set, as `node_bits` makes it, and `through` each node to
    the bitset of the arcs with that node in their interior; a node it
    leaves out has none.  `make_out(node)` builds a node's out-list when the
    search first expands the node; each node's out-arc order fixes all
    tie-breaking.  The caller puts the arcs `make_out` returns through
    `out_lists`' checks, and makes every effective rival set, an arc's
    `rivals | through[tail] | through[head]`, symmetric: solve() neither
    checks nor repairs them.  Only the source is checked here."""

    def __init__(self, nodes: dict[str, int], source: str,
                 make_out: Callable[[str], list[Arc]], through: dict[str, int]):
        self.nodes = nodes
        if source not in nodes:
            raise ValueError(f"unknown source {source!r}")
        self.source = source
        self.through = through
        self.out = _OutLists(make_out)

    @staticmethod
    def node_bits(nodes: Iterable[str]) -> dict[str, int]:
        """Each node's visited bit, 1 << i for the i-th distinct node; built
        once per node set and shared by every graph over it."""
        return {n: 1 << i for i, n in enumerate(dict.fromkeys(nodes))}

    @staticmethod
    def out_lists(nodes: Collection[str], arcs: Iterable[Arc]) -> defaultdict[str, list[Arc]]:
        """Each node's out-arcs in arc order, filled in one pass over arcs
        that checks every arc id is a non-negative int used once and every
        arc joins two of `nodes`.  A node without arcs gets its empty list
        when first read, so nothing is built per node up front."""
        out: defaultdict[str, list[Arc]] = defaultdict(list)
        seen: set[ArcId] = set()
        for arc in arcs:
            aid = arc.id
            if type(aid) is not int or aid < 0:  # a bool is no arc id either
                raise ValueError(f"arc id {aid!r} is not a non-negative int")
            if aid in seen:
                raise ValueError(f"duplicate arc id {aid!r}")
            if arc.tail not in nodes or arc.head not in nodes:
                raise ValueError(f"arc {aid!r} references unknown node")
            seen.add(aid)
            out[arc.tail].append(arc)
        return out

    @cached_property
    def arcs(self) -> dict[ArcId, Arc]:
        """Every arc by id, node by node in out-list order, each a copy whose
        `rivals` are its effective rivals, `through` at both ends folded in.
        The first read builds its own copy of every list, so it makes none
        of the lists the search reads: what the search builds, the search
        pays for."""
        make, through = self.out.make, self.through.get
        return {arc.id: Arc(arc.id, arc.tail, arc.head, arc.length,
                            ArcSet(arc.rivals | through(arc.tail, 0) | through(arc.head, 0)),
                            arc.tiebreak)
                for n in self.nodes for arc in make(n)}


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
    """`paths` maps the target to its path, or is empty; `stored` counts the
    partial paths kept (net of those displaced) and `work` the arcs probed."""

    paths: dict[str, PartialPath]
    stored: int
    work: int


class ResourceLimitExceeded(RuntimeError):
    """Search gave up; `result` holds the counters at the limit and no path,
    since the search stops as soon as the target is settled."""

    def __init__(self, limit: str, result: SolveResult):
        super().__init__(f"constrained search exceeded {limit} limit")
        self.limit = limit
        self.result = result


# A label is one partial path, kept as the tuple
#     (length, secondary, len(forb), node, seq, arc, parent, forb, visited)
# whose first five fields are its heap key.  `arc` is the id of its last arc
# (None at the source), `parent` the label it extends, `forb` the bitset of
# the arcs it may no longer use and `visited` the bitset of its nodes.


def _nodes(label) -> list[str]:
    """The label's node sequence, from the source."""
    rev = []
    while label is not None:
        rev.append(label[3])
        label = label[6]
    rev.reverse()
    return rev


def _path(label) -> PartialPath:
    rev_arcs = []
    cur = label
    while cur[5] is not None:
        rev_arcs.append(cur[5])
        cur = cur[6]
    return PartialPath(tuple(_nodes(label)), tuple(reversed(rev_arcs)), label[0])


def _new_ranks_first(nsec, parent, head: str, old) -> bool:
    """Whether a new label at `head`, with secondary `nsec` and extending
    `parent`, beats `old`, with the same set and length: by secondary, then
    by node sequence, which is built only when the secondaries tie."""
    if nsec != old[1]:
        return nsec < old[1]
    return _nodes(parent) + [head] < _nodes(old)


def _dominated(by_size, nforb, nsize, nlen, nsec, parent, head) -> bool:
    """Whether a penciled label beats the probe: one whose forbidden set is
    within `nforb` and whose length is at most `nlen`, where the same set at
    the same length beats it unless the probe wins the tie.  Only a smaller
    set can be a proper subset, so the probe's own size is looked up, not
    scanned."""
    for size, bucket in by_size.items():
        if size < nsize:
            for f, old in bucket.items():
                if f & nforb == f and old[0] <= nlen:
                    return True
        elif size == nsize:
            old = bucket.get(nforb)
            if old is not None and old[0] <= nlen and (
                    old[0] < nlen or not _new_ranks_first(nsec, parent, head, old)):
                return True
    return False


def _displace(by_size, nforb, nsize, nlen) -> int:
    """Drop the penciled labels that a probe `_dominated` let through beats:
    those whose forbidden set contains `nforb` and whose length is at least
    `nlen`.  Returns how many."""
    n = 0
    for size, bucket in by_size.items():
        if size > nsize:
            gone = [f for f, old in bucket.items() if f & nforb == nforb and old[0] >= nlen]
            for f in gone:
                del bucket[f]
            n += len(gone)
        elif size == nsize and nforb in bucket:
            del bucket[nforb]
            n += 1
    return n


def solve(g: RivalGraph, limits: SearchLimits = DEFAULT_LIMITS, *,
          target: str) -> SolveResult:
    """Shortest admissible path from g.source to `target`.

    Labels pop in order of (length, secondary, forbidden-set size, node,
    seq); the first label popped at a node is inked, and the search returns
    when it inks the target, with the target's path in `paths`, or when the
    heap runs dry, with `paths` empty.  Each node keeps its penciled labels
    in dicts keyed by forbidden-arc bitset, one per size of that set, so a
    probe looks up its own size and scans only the others: on the worst-case
    families every label at a node has the same size.  A probe is dropped
    when the ink or a penciled label has a subset of its forbidden arcs and
    is no longer, unless it is the same set and length and the probe wins
    the tie (secondary, then node sequence); otherwise it displaces every
    penciled label with a superset and no shorter length.  Only a probe that
    is kept becomes a label.

    `seq` numbers the labels as they are pushed, so labels with equal keys
    pop first in, first out.  It is unique, so the heap never compares past
    it, and any count that increases push by push orders them the same.

    Exceeding a limit raises ResourceLimitExceeded carrying `stored` and
    `work` at that point.  A probe forbids the arc's effective rivals: its
    `rivals` and `through` at its tail and head, the tail's read once per
    expanded label.  Every effective rival set must be symmetric, as
    RivalGraph says: an arc that one of its rivals does not list back can
    share a path with it.
    """
    node_bit = g.nodes
    if target not in node_bit:
        raise ValueError(f"unknown target {target!r}")
    max_stored, max_work = limits.max_stored, limits.max_work
    out, through = g.out, g.through.get
    heappop, heappush = heapq.heappop, heapq.heappush
    root = (0, 0, 0, g.source, 0, None, None, 0, node_bit[g.source])
    inked: dict[str, tuple] = {}
    pencil: dict[str, dict[int, dict[int, tuple]]] = {g.source: {0: {0: root}}}
    heap = [root]
    seq = work = 0
    stored = 1

    while heap:
        label = heappop(heap)
        length, secondary, size, node, _, _, _, forb, visited = label
        bucket = pencil[node][size]
        if bucket.get(forb) is not label:  # displaced since it was pushed
            continue
        if node not in inked:
            inked[node] = label
            del bucket[forb]
            if node == target:
                return SolveResult({target: _path(label)}, stored, work)
        base = forb | through(node, 0)
        for arc in out[node]:
            work += 1
            if work > max_work:
                raise ResourceLimitExceeded("work", SolveResult({}, stored, work))
            aid, head = arc.id, arc.head
            bit = node_bit[head]
            if forb >> aid & 1 or visited & bit:
                continue
            nlen = length + arc.length
            nforb = base | arc.rivals | through(head, 0)
            ink = inked.get(head)
            if ink is not None and ink[0] <= nlen and ink[7] & nforb == ink[7]:
                continue
            nsec = secondary + arc.tiebreak
            nsize = nforb.bit_count()
            by_size = pencil.get(head)
            if by_size is None:
                by_size = pencil[head] = {}
            elif _dominated(by_size, nforb, nsize, nlen, nsec, label, head):
                continue
            else:
                stored -= _displace(by_size, nforb, nsize, nlen)
            stored += 1
            seq += 1
            new = (nlen, nsec, nsize, head, seq, aid, label, nforb, visited | bit)
            same_size = by_size.get(nsize)
            if same_size is None:
                by_size[nsize] = {nforb: new}
            else:
                same_size[nforb] = new
            if stored > max_stored:
                raise ResourceLimitExceeded("stored", SolveResult({}, stored, work))
            heappush(heap, new)
    return SolveResult({}, stored, work)
