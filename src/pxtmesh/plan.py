"""Allocation plans: working/protection path pairs under the four sharing rules.

The rules, checked per plan and referred to by letter throughout:
  a. each demand's working and protection paths are node-disjoint
     (link-disjoint when the plan's mode is "link");
  b. an edge in any working path appears in no other path;
  c. demands whose working paths are not disjoint have edge-disjoint
     protection paths;
  d. no branch points: an edge is cross-connected to at most one partner
     at each of its endnodes.

Rule d is what makes the protection edges decompose into pre-cross-connected
trails (PXTs): chains of protection edges statically joined at shared nodes,
so intermediate nodes never switch in real time.

Protection sharing (rule c) is decided in one place, AllocationPlan.conflicts,
may_share and first_shareable, asked by rule c, the router and shared-path.
add_entry ORs each working's footprint into its protection edges' blockers,
fixed-width ints, and keeps no list of who uses an edge: a refused entry's
rule-c witnesses are read off the entries.

validate(), branch_points() and extract_pxts() re-check a plan from its
entries alone and read nothing add_entry keeps, so they stay independent
oracles for it.  Between calls they keep one cache, _Tallies, derived from
the entries alone and trusted while `entries` starts with the very objects
it folded (see _tallied): a call folds only the entries appended since the
last one, and describes only the suspects the tallies name.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import inf
from operator import is_
from sys import intern

from .graph import (
    EdgeId,
    Graph,
    GraphError,
    Walk,
    disjoint,
    is_path,
    link_key,
    link_of,
    validate_walk,
)

ALL_CONDITIONS = frozenset("abcd")
PLAN_HEADER = "pxtmesh-plan 1"  # the first line of every plan file, format 1


@dataclass(frozen=True, order=True)
class Demand:
    """One unit-capacity request between two distinct terminals."""

    id: int
    u: str
    v: str

    def __post_init__(self):
        if self.u == self.v:
            raise GraphError(f"demand {self.id} terminals must be distinct")
        if self.u > self.v:
            u, v = self.v, self.u
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)

    @property
    def terminals(self) -> frozenset[str]:
        return frozenset((self.u, self.v))


@dataclass(frozen=True)
class PlanEntry:
    demand: Demand
    working: Walk
    protection: Walk

    def serialize(self) -> str:
        d = self.demand
        return (f"entry {d.id} {d.u} {d.v} | working {self.working} "
                f"| protection {self.protection}")


@dataclass(frozen=True)
class PlanViolation:
    condition: str           # 'a'..'d', or 'structure'
    demands: tuple[int, ...]
    witness: str

    def __str__(self) -> str:
        who = ",".join(str(d) for d in self.demands)
        return f"condition {self.condition} (demands {who}): {self.witness}"


class PlanError(ValueError):
    """Rule violations; one built from a message has that message as its text."""

    def __init__(self, violations: list[PlanViolation] | str):
        if isinstance(violations, str):
            super().__init__(violations)
            violations = [PlanViolation("structure", (), violations)]
        else:
            super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


@dataclass(frozen=True)
class PXT:
    """A maximal trail of cross-connected protection edges."""

    walk: Walk
    closed: bool

    def serialize(self) -> str:
        return f"pxt {'closed' if self.closed else 'open'} {self.walk}"


class _Trail:
    """Mutable trail under incremental extension/merging.

    `cached` holds the trail's (sort key, canonical PXT) and `pos` its cut
    index: the map from each node to its positions on that canonical walk
    (on the ring when closed), and the walk's repeat horizon, None when no
    node repeats (see `_repeat_horizon`).  Both are computed on first use.
    Every change to the trail must reset both to None, and the plan's
    canonical trail order with them.
    """

    __slots__ = ("nodes", "edges", "closed", "cached", "pos")

    def __init__(self, nodes: list[str], edges: list[EdgeId]):
        self.nodes = nodes
        self.edges = edges
        self.closed = False
        self.cached: tuple[tuple, PXT] | None = None
        self.pos: tuple[dict[str, list[int]], list[int] | None] | None = None

    def canonical(self) -> tuple[tuple, PXT]:
        if self.cached is None:
            pxt = _canonical_pxt(self.nodes, self.edges, self.closed)
            self.cached = (_pxt_sort_key(pxt), pxt)
        return self.cached

    def positions(self) -> tuple[dict[str, list[int]], list[int] | None]:
        """The cut index: node -> its positions, and the repeat horizon."""
        if self.pos is None:
            nodes = self.canonical()[1].walk.nodes
            seq = nodes[:-1] if self.closed else nodes
            pos: dict[str, list[int]] = {}
            for i, n in enumerate(seq):
                pos.setdefault(n, []).append(i)
            self.pos = (pos, _repeat_horizon(seq, self.closed) if len(pos) < len(seq) else None)
        return self.pos

    def reverse(self) -> None:
        self.nodes.reverse()
        self.edges.reverse()


def _canonical_pxt(nodes: list[str], edges: list[EdgeId], closed: bool) -> PXT:
    """The trail as the smallest of its walks in either direction, from any
    start when closed (nodes[0] == nodes[-1]), so equal PXT sets print equal."""
    if closed:
        first = min(nodes)  # the smallest walk starts there; min() holds one walk at a time
        walks = ((tuple(wn[s:-1] + wn[:s + 1]), tuple(we[s:] + we[:s]))
                 for wn, we in ((nodes, edges), (nodes[::-1], edges[::-1]))
                 for s in range(len(edges)) if wn[s] == first)
    else:
        walks = [(tuple(nodes), tuple(edges)), (tuple(nodes[::-1]), tuple(edges[::-1]))]
    return PXT(Walk(*min(walks)), closed)


def _repeat_horizon(seq: tuple[str, ...], closed: bool) -> list[int]:
    """h[i]: the least j > i at which a node of s[i..j] occurs a second
    time, or len(s) if none does, where s is `seq`, or the ring `seq` written
    twice when closed.  So s[a..b] repeats no node exactly when b < h[a]; a
    wrapping cut (a, b) of a ring of k nodes, b <= a, is s[a..b + k].  One
    reverse pass: h[i] is the least next occurrence of any s[j], j >= i."""
    s = seq * 2 if closed else seq
    h = [0] * len(s)
    after: dict[str, int] = {}  # node -> its next position so far
    least = len(s)
    for i in range(len(s) - 1, -1, -1):
        least = min(least, after.get(s[i], least))
        after[s[i]] = i
        h[i] = least
    return h


def _pxt_sort_key(p: PXT):
    return (str(min(p.walk.edges)), p.walk.nodes, p.walk.edges)


def _screen(entry: PlanEntry, node_mode: bool) -> bool:
    """validate()'s quick look at one entry: whether its structure or rule a
    needs the full check.  Edges on known links, which validate() checks
    apart, put a walk on known nodes."""
    d, w, p = entry.demand, entry.working, entry.protection
    nodes = set(w.nodes)
    meet = not set(map(link_of, w.edges)).isdisjoint(map(link_of, p.edges))
    if node_mode:
        meet = meet or not (set(w.nodes[1:-1]).isdisjoint(p.nodes)
                            and nodes.isdisjoint(p.nodes[1:-1]))
    return meet or not (len(nodes) == len(w.nodes) and len(set(p.nodes)) == len(p.nodes)
                        and {w.nodes[0], w.nodes[-1]} == {p.nodes[0], p.nodes[-1]}
                        == {d.u, d.v})


class _KeyBits(dict):
    """A working link or node -> its own even bit, 1 << 2k, handed out in
    the order the keys are first looked up."""

    def __missing__(self, key) -> int:
        self[key] = bit = 1 << 2 * len(self)
        return bit


class _Tallies:
    """What the checks derive from the entries in `seen`, folded in one at a
    time and kept in sets and dicts keyed by the entries' own edges: rule d
    for all of `seen`, which is all branch_points() and extract_pxts() read,
    and for its first `sharing` entries the verdicts and rules b and c.

    `verdicts` maps the index of each entry that fails validate()'s screen
    or capacity check to that entry's own violations of structure and rule
    a, in index order.

    Each rule keeps its suspects: edges, or for d slots (edge, node), that
    may break it.  Every one that does is a suspect; validate() describes
    them from all the entries, so a false suspect flags nothing, and the
    suspects may differ from another pass's, as for the repeated edges of a
    working that is no path.
      b: `working` and the keys of `filed` hold the working and protection
         edges; an edge two entries use, one as working, is a suspect.
      c: `filed` maps each protection edge to the keys of the workings it
         protects: each link and (node mode) interior node on its even bit,
         each end node on its odd bit (see _KeyBits).  A new entry's edge is
         a suspect when that int meets the entry's mask, one AND: its links
         and interior nodes against both kinds, its end nodes against the
         interior ones, so exactly when the two workings are not disjoint.
      d: `low` and `high` map each edge to the first partner a protection
         joins to it at its low end and at its high end; a slot joined to
         another partner later is kept in `branched`.
    """

    __slots__ = ("seen", "low", "high", "branched", "sharing",
                 "verdicts", "bits", "working", "filed", "shared", "conflicting")

    def __init__(self):
        self.seen: list[PlanEntry] = []
        self.low: dict[EdgeId, EdgeId] = {}
        self.high: dict[EdgeId, EdgeId] = {}
        self.branched: set[tuple[EdgeId, str]] = set()
        self.sharing = 0
        self.verdicts: dict[int, tuple[PlanViolation, ...]] = {}
        self.bits = _KeyBits()
        self.working: set[EdgeId] = set()
        self.filed: dict[EdgeId, int] = {}
        self.shared: set[EdgeId] = set()  # rule-b suspects
        self.conflicting: set[EdgeId] = set()  # rule-c suspects

    def fold_joins(self, entries: list[PlanEntry]) -> None:
        """Fold `entries`, the ones appended after `seen`, into rule d."""
        low, high, branched = self.low, self.high, self.branched
        for entry in entries:
            p = entry.protection
            pe = p.edges
            for e, x, f in zip(pe, p.nodes[1:], pe[1:]):
                if (low if x == e[0] else high).setdefault(e, f) != f:
                    branched.add((e, x))
                if (low if x == f[0] else high).setdefault(f, e) != e:
                    branched.add((f, x))
        self.seen += entries

    def fold_sharing(self, node_mode: bool) -> None:
        """Fold the entries of `seen` past the first `sharing` into rules b and c."""
        bits, working, filed = self.bits, self.working, self.filed
        protection = filed.keys()
        for entry in self.seen[self.sharing:]:
            w, pe = entry.working, entry.protection.edges
            we = w.edges
            if not (working.isdisjoint(we) and protection.isdisjoint(we)):
                self.shared.update(working.intersection(we), protection & we)
            if not working.isdisjoint(pe):
                self.shared.update(working.intersection(pe))
            working.update(we)
            keys = 0
            for e in we:
                keys |= bits[e[:2]]
            if node_mode:
                for x in w.nodes[1:-1]:
                    keys |= bits[x]
                ends = (bits[w.nodes[0]] | bits[w.nodes[-1]]) << 1
                mask, keys = keys | keys << 1 | ends >> 1, keys | ends
            else:
                mask = keys
            for e in pe:
                old = filed.get(e, 0)
                if old & mask:
                    self.conflicting.add(e)
                filed[e] = old | keys
        self.sharing = len(self.seen)


class AllocationPlan:
    """Single-owner mutable plan; grows by add_entry, never rewrites history."""

    def __init__(self, graph: Graph, mode: str = "node",
                 enforce: frozenset[str] | str = ALL_CONDITIONS):
        if mode not in ("node", "link"):
            raise ValueError(f"unknown disjointness mode {mode!r}")
        self.graph = graph
        self.mode = mode
        self.enforce = frozenset(enforce)
        if not self.enforce <= ALL_CONDITIONS:
            raise ValueError(f"unknown conditions {set(self.enforce) - set(ALL_CONDITIONS)}")
        self.entries: list[PlanEntry] = []
        self._demand_ids: set[int] = set()  # of the entries add_entry took
        self._roles: dict[EdgeId, str] = {}
        self._used_ordinals: dict[tuple[str, str], set[int]] = {}
        self._unused_from: dict[tuple[str, str], int] = {}  # fresh_edge's low-water marks
        # (u, v) and (v, u) for every link with spare capacity
        self._free = {pair for u, v in graph.links() for pair in ((u, v), (v, u))}
        # footprint bits (see conflicts): one per link, then regions A and C
        self._link_bit = {link: 1 << i for i, link in enumerate(graph.links())}
        self._node_bit = {n: 1 << i for i, n in enumerate(graph.sorted_nodes(), graph.num_links())}
        self._region_c = len(graph.nodes)  # a node's bit in C is its bit in A shifted this far
        # per link, from the graph alone: its own blocker bits (its link bit and,
        # in node mode, its end nodes in A) and its capacity, inf when unbounded
        nb = self._node_bit
        self._own = {(u, v): b | nb[u] | nb[v] if mode == "node" else b
                     for (u, v), b in self._link_bit.items()}
        self._capacity = {link: graph.capacity(*link) or inf for link in self._link_bit}
        self._blockers: dict[EdgeId, int] = {}  # each protection edge -> bits it may not meet
        # cross-connect pairing and incremental trail state (only when rule d
        # is enforced; without it the pairing is not well defined)
        self._partner: dict[tuple[EdgeId, str], EdgeId] = {}
        self._trails: set[_Trail] = set()
        self._trail_ends: dict[tuple[EdgeId, str], _Trail] = {}
        self._ranked: list[_Trail] | None = None  # trails in canonical order
        # what validate(), branch_points() and extract_pxts() keep; see _tallied
        self._tallies = _Tallies()

    # -- edge pool ---------------------------------------------------------

    def has_free_edge(self, u: str, v: str) -> bool:
        if (u, v) in self._free:
            return True
        self.graph.capacity(u, v)  # raises GraphError for an unknown link
        return False

    def fresh_edge(self, u: str, v: str) -> EdgeId:
        """Smallest unused ordinal on the link; raises when capacity is full.

        The scan resumes from the link's low-water mark, the smallest unused
        ordinal the last call found.  Used ordinals only ever grow, so every
        ordinal below the mark is still used: the answer is the same as a
        scan from 0, also after parse leaves gaps or when a returned edge is
        never committed.
        """
        if not self.has_free_edge(u, v):
            raise PlanError(f"link {u}-{v} capacity exhausted")
        link = link_key(u, v)
        used = self._used_ordinals.get(link, ())
        k = self._unused_from.get(link, 0)
        while k in used:
            k += 1
        self._unused_from[link] = k
        return self.graph.edge(u, v, k)

    def fresh_walk(self, nodes: tuple[str, ...]) -> Walk:
        """The route through `nodes` over each link's fresh_edge, in order."""
        return Walk(nodes, tuple(self.fresh_edge(a, b) for a, b in zip(nodes, nodes[1:])))

    def role(self, edge: EdgeId) -> str | None:
        return self._roles.get(edge)

    def crossconnect_partner(self, edge: EdgeId, node: str) -> EdgeId | None:
        return self._partner.get((edge, node))

    # -- protection sharing --------------------------------------------------

    def _footprint(self, nodes: tuple[str, ...], edges: tuple[EdgeId, ...],
                   protected: bool) -> int:
        """A walk's link bits and, in node mode, its node bits: as a protected
        working's footprint (`protected`), every node in region A and the
        interior in C; as a query mask, the interior in A and the ends in C."""
        bits = 0
        for e in edges:
            bits |= self._link_bit[e[:2]]
        if self.mode == "node":
            node, inner = self._node_bit, 0
            for n in nodes[1:-1]:
                inner |= node[n]
            ends = node[nodes[0]] | node[nodes[-1]]
            bits |= (ends | inner | inner << self._region_c if protected
                     else inner | ends << self._region_c)
        return bits

    def conflicts(self, working: Walk) -> int:
        """The mask `may_share` tests for `working`: its links and, in node
        mode, its interior nodes in region A and its end nodes in region C.

        Bits 0..L-1 stand for the L links, and regions A and C, bits L..L+N-1
        and L+N..L+2N-1, for the N nodes, all in sorted order.  A protection
        edge's blockers are its own link and, in node mode, its end nodes in
        A, ORed with the footprint of each working it protects: its links and,
        in node mode, all its nodes in A and its interior nodes in C.  A
        footprint meets the mask exactly when the two workings share a link or
        a node interior to either, that is when they are not disjoint.  Rule
        c forbids the edge when any of its workings is, an OR of set
        intersections, so the union of the footprints decides it exactly.
        """
        return self._footprint(working.nodes, working.edges, False)

    def may_share(self, edges: tuple[EdgeId, ...], mask: int) -> bool:
        """Whether no edge of `edges` has a blocker in `mask`, from conflicts:
        each keeps off the working's links and (node mode) interior, and no
        working it protects meets that working.  One AND per edge; an edge
        that protects nothing yet has only its own bits."""
        blockers = self._blockers
        for e in edges:
            if (blockers.get(e) or self._own[e[:2]]) & mask:
                return False
        return True

    def first_shareable(self, edges: list[EdgeId], mask: int) -> EdgeId | None:
        """The first edge of `edges` that may_share admits alone for `mask`, or None."""
        blockers, own = self._blockers, self._own
        return next((e for e in edges if not (blockers.get(e) or own[e[:2]]) & mask), None)

    # -- construction ------------------------------------------------------

    def _structural_violations(self, entry: PlanEntry) -> list[PlanViolation]:
        d = entry.demand
        problems = []
        for label, walk in (("working", entry.working), ("protection", entry.protection)):
            try:
                validate_walk(self.graph, walk)
            except GraphError as exc:
                problems.append(f"{label} path invalid: {exc}")
                continue
            if not is_path(walk):
                problems.append(f"{label} route is not a path")
            if set(walk.ends) != {d.u, d.v}:
                problems.append(f"{label} path does not connect {d.u} and {d.v}")
        return [PlanViolation("structure", (d.id,), p) for p in problems]

    def _disjointness(self, entry: PlanEntry) -> list[PlanViolation]:
        """Rule a for `entry`: nothing, or the one violation."""
        if disjoint(entry.working, entry.protection, self.mode):
            return []
        return [PlanViolation("a", (entry.demand.id,),
                              f"working and protection are not {self.mode}-disjoint")]

    def _entry_violations(self, entry: PlanEntry) -> list[PlanViolation]:
        """Violations that adding `entry` would introduce, per enforced rule."""
        d = entry.demand
        out = self._disjointness(entry) if "a" in self.enforce else []
        if "b" in self.enforce:
            for e in entry.working.edges:
                role = self._roles.get(e)
                if role is not None:
                    out.append(PlanViolation("b", (d.id,), f"working edge {e} already {role}"))
            for e in entry.protection.edges:
                if self._roles.get(e) == "working":
                    out.append(PlanViolation("b", (d.id,), f"protection reuses working edge {e}"))
        if "c" in self.enforce:
            mask = self.conflicts(entry.working)
            flagged = set()
            for e in entry.protection.edges:
                if self.may_share((e,), mask):
                    continue
                for other in self.entries:  # the edge's users, in entry order
                    if (e in other.protection.edges and other.demand.id not in flagged
                            and not disjoint(other.working, entry.working, self.mode)):
                        flagged.add(other.demand.id)
                        out.append(PlanViolation(
                            "c", (d.id, other.demand.id),
                            f"shared protection edge {e} but conflicting workings"))
        if "d" in self.enforce:
            for i in range(len(entry.protection.edges) - 1):
                e, f = entry.protection.edges[i], entry.protection.edges[i + 1]
                x = entry.protection.nodes[i + 1]
                for a, b in ((e, f), (f, e)):
                    cur = self._partner.get((a, x))
                    if cur is not None and cur != b:
                        out.append(PlanViolation(
                            "d", (d.id,),
                            f"branch point at {x}: {a} already cross-connected to {cur}, "
                            f"needs {b}"))
        return out

    def _admits(self, entry: PlanEntry) -> bool:
        """add_entry's screen: True only when neither _structural_violations
        nor _entry_violations would find anything.  A False can be too
        cautious only under rule c without rule a, where a protection that
        meets its own working fails may_share.  Rule a is decided by the
        same bits exactly (see conflicts): two paths between the demand's
        terminals meet exactly where some protection edge's own bits meet
        the working's mask."""
        d, w, p = entry.demand, entry.working, entry.protection
        capacity, nodes = self._capacity, self.graph.nodes
        for e in chain(w.edges, p.edges):
            if e[2] >= capacity.get(e[:2], 0):
                return False
        wn, pn = w.nodes, p.nodes
        ws, ps = set(wn), set(pn)
        if not (len(ws) == len(wn) and len(ps) == len(pn) and ws <= nodes and ps <= nodes
                and {wn[0], wn[-1]} == {pn[0], pn[-1]} == {d.u, d.v}):
            return False
        enforce, roles = self.enforce, self._roles
        if "b" in enforce and not (roles.keys().isdisjoint(w.edges)
                                   and "working" not in map(roles.get, p.edges)):
            return False
        if "c" in enforce:  # blockers hold their edge's own bits: this decides a too
            if not self.may_share(p.edges, self.conflicts(w)):
                return False
        elif "a" in enforce:
            own, mask = self._own, self.conflicts(w)
            if any(own[e[:2]] & mask for e in p.edges):
                return False
        if "d" in enforce:
            partner, pe = self._partner, p.edges
            for e, x, f in zip(pe, pn[1:], pe[1:]):
                if partner.get((e, x), f) != f or partner.get((f, x), e) != e:
                    return False
        return True

    def add_entry(self, entry: PlanEntry) -> None:
        """Append one routed demand; raises PlanError rather than mutate on failure.

        The screen, _admits, decides.  Only an entry it turns down goes to
        _structural_violations and _entry_violations, which describe the
        refusal; should they find nothing, the screen was merely cautious
        and the entry is taken.  Every check comes before the first write.
        A demand id already in the plan is refused; a rule-c refusal reads
        its witnesses off the entries.

        The writes then run in one pass and build only what the plan keeps:
        each held edge's link is taken once, and gets an ordinal set only if
        it has none.  Capacity needs no check of its own: the checks bound
        each ordinal below its link's capacity and only edges with a role
        hold one.  The trail updates cannot fail: each protection edge has a
        trail (a singleton for an edge not yet in the blockers, whatever its
        role), and rule d leaves every slot to connect either already paired
        or a trail end.
        """
        did = entry.demand.id
        if did in self._demand_ids:
            raise PlanError([PlanViolation("structure", (did,),
                                           f"demand {did} is already in the plan")])
        if not self._admits(entry):
            violations = self._structural_violations(entry) or self._entry_violations(entry)
            if violations:
                raise PlanError(violations)
        w, p = entry.working, entry.protection
        roles, blockers, own = self._roles, self._blockers, self._own
        held = [e for e in w.edges if e not in roles]  # edges that take up an ordinal
        roles.update(dict.fromkeys(w.edges, "working"))
        footprint = self._footprint(w.nodes, w.edges, True)
        untrailed = []
        for e in p.edges:
            if e not in roles:
                roles[e] = "protection"
                held.append(e)
            if e in blockers:
                blockers[e] |= footprint
            else:
                blockers[e] = own[e[:2]] | footprint
                untrailed.append(e)
        for e in held:
            link = e[:2]
            if (used := self._used_ordinals.get(link)) is None:
                used = self._used_ordinals[link] = set()
            used.add(e[2])
            if len(used) >= self._capacity[link]:
                self._free.difference_update((link, link[::-1]))
        if "d" in self.enforce:
            for e in untrailed:
                self._new_singleton_trail(e)
            pe, partner = p.edges, self._partner
            for e, x, f in zip(pe, p.nodes[1:], pe[1:]):
                if partner.get((e, x)) != f:
                    self._connect(e, f, x)
        self._demand_ids.add(did)
        self.entries.append(entry)

    # -- incremental PXT maintenance ----------------------------------------

    def _new_singleton_trail(self, e: EdgeId) -> None:
        t = _Trail([e[0], e[1]], [e])
        self._trails.add(t)
        self._trail_ends[(e, e[0])] = t
        self._trail_ends[(e, e[1])] = t
        self._ranked = None

    def _connect(self, e: EdgeId, f: EdgeId, x: str) -> None:
        a = self._trail_ends.pop((e, x))
        b = self._trail_ends.pop((f, x))
        self._partner[(e, x)] = f
        self._partner[(f, x)] = e
        a.cached = a.pos = None
        self._ranked = None
        if a is b:
            a.closed = True
            return
        self._trails.remove(b)
        if a.edges[-1] != e or a.nodes[-1] != x:
            a.reverse()
        if b.edges[0] != f or b.nodes[0] != x:
            b.reverse()
        a.nodes.extend(b.nodes[1:])
        a.edges.extend(b.edges)
        # b's far end, the only end slot it had left, is now a's
        self._trail_ends[(a.edges[-1], a.nodes[-1])] = a

    def _ranked_trails(self) -> list[_Trail]:
        """The trails in canonical PXT order, cached until a trail changes."""
        if self._ranked is None:
            # the key is unique per trail, so the set's order never shows
            self._ranked = sorted(self._trails, key=lambda t: t.canonical()[0])
        return self._ranked

    @property
    def pxts(self) -> list[PXT]:
        """PXTs from the incrementally maintained trails, canonically ordered."""
        return [t.canonical()[1] for t in self._ranked_trails()]

    # -- derived views -------------------------------------------------------

    def bandwidth(self) -> tuple[int, int, int]:
        working = sum(1 for r in self._roles.values() if r == "working")
        protection = sum(1 for r in self._roles.values() if r == "protection")
        return working, protection, working + protection

    def _tallied(self) -> _Tallies:
        """The plan's one cache of derived facts (_Tallies), rule d folded
        for all of `entries`, and the verdicts and rules b and c left for
        validate() to bring up to date.  It is trusted only while `entries`
        starts with the very objects it folded (`is`), and derived afresh
        otherwise: after an entry is replaced, after the list shrinks
        (whether or not it grew again), or for a new list of other entries.
        Else only the entries appended since the last call are folded."""
        tallies, entries = self._tallies, self.entries
        if len(tallies.seen) > len(entries) or not all(map(is_, tallies.seen, entries)):
            tallies = self._tallies = _Tallies()
        tallies.fold_joins(entries[len(tallies.seen):])
        return tallies

    def branch_points(self) -> set[str]:
        """Nodes where some edge would need two different cross-connect
        partners: the nodes of the branched slots of the rule-d tally (see
        _tallied), which screens no entry and reads nothing add_entry keeps."""
        return {x for _, x in self._tallied().branched}

    def validate(self, *, rule_d: bool = True) -> list[PlanViolation]:
        """Full re-check of rules a-d from the entries alone, reading nothing
        add_entry maintains: each entry's own violations of structure, rule
        a and capacity, in entry order, then those of rules b, c and d.
        With `rule_d` false rule d is not described, but the cache is folded
        all the same.

        Only the entries appended since the cache was last brought up to
        date (see _tallied) are screened; each that fails the quick screen
        or the capacity check is re-checked in full and its verdict kept
        (_Tallies.verdicts).  Rules b-d start from the suspects of the
        tallies, and only those are described, each rule by one pass over
        all the entries: a suspect's sharers for b, the pairs of workings
        protected over a suspect edge for c, and who joins at a branched
        slot for d.  The cache holds only what the entries give, so
        validate() stays an independent oracle for add_entry.  A call on a
        plan whose tallies name no suspect, as for every valid plan, costs
        an identity scan plus the entries appended since the last call."""
        entries = self.entries
        node_mode = self.mode == "node"
        tallies = self._tallied()
        new = range(tallies.sharing, len(entries))
        tallies.fold_sharing(node_mode)
        bad = self.graph.invalid_edges(
            {e for i in new for e in entries[i].working.edges + entries[i].protection.edges}
            if new.start else tallies.working.union(tallies.filed))
        for i in new:  # the full check for those the screen or the capacity check fails
            en = entries[i]
            if _screen(en, node_mode) or bad and not bad.isdisjoint(
                    en.working.edges + en.protection.edges):
                tallies.verdicts[i] = (*self._structural_violations(en), *self._disjointness(en))
        out = [v for found in tallies.verdicts.values() for v in found]
        suspects = tallies.shared
        sharers: dict[EdgeId, set[int]] = {e: set() for e in suspects}
        for entry in entries if suspects else ():
            for e in suspects.intersection(entry.working.edges + entry.protection.edges):
                sharers[e].add(entry.demand.id)
        shared = sorted((str(e), tuple(sorted(ids))) for e, ids in sharers.items() if len(ids) > 1)
        out.extend(PlanViolation("b", ids, f"working edge {name} shared") for name, ids in shared)
        suspects = tallies.conflicting
        protecting: dict[EdgeId, list[PlanEntry]] = {}
        for entry in entries if suspects else ():
            for e in filter(suspects.__contains__, dict.fromkeys(entry.protection.edges)):
                protecting.setdefault(e, []).append(entry)
        flagged: set[tuple[int, int]] = set()
        for e, users in protecting.items():
            for a, b in combinations(users, 2):
                pair = (a.demand.id, b.demand.id)
                if pair not in flagged and not disjoint(a.working, b.working, self.mode):
                    flagged.add(pair)
                    out.append(PlanViolation(
                        "c", pair, f"shared protection edge {e} but conflicting workings"))
        out.extend(self._branch_violations(tallies.branched) if rule_d else ())
        return out

    def _branch_violations(self, branched: set) -> list[PlanViolation]:
        """Rule d: each slot of `branched`, all joined to two or more
        partners, with its partners and who joins them there, in slot order."""
        if not branched:
            return []
        who: dict[tuple[EdgeId, str], set[int]] = {slot: set() for slot in branched}
        partners: dict[tuple[EdgeId, str], set[EdgeId]] = {slot: set() for slot in branched}
        for entry in self.entries:
            p = entry.protection
            for e, x, f in zip(p.edges, p.nodes[1:], p.edges[1:]):
                for slot, other in (((e, x), f), ((f, x), e)):
                    if slot in who:
                        who[slot].add(entry.demand.id)
                        partners[slot].add(other)
        out = []
        for (e, x), ids in sorted(who.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
            names = ", ".join(sorted(str(p) for p in partners[(e, x)]))
            out.append(PlanViolation("d", tuple(sorted(ids)),
                                     f"branch point at {x}: {e} cross-connected to {names}"))
        return out

    def extract_pxts(self) -> list[PXT]:
        """The PXTs recomputed from the entries alone, a cross-check of
        `pxts`: the trails that join each cross-connect slot to its first
        partner in the rule-d tally (see _tallied), or PlanError naming every
        branch point.  The tally keys a slot by which end of its edge it is
        at, so each protection must be a walk whose edges meet at their real
        endpoints, as add_entry guarantees."""
        tallies = self._tallied()
        if tallies.branched:
            raise PlanError(self._branch_violations(tallies.branched))
        seen: set[EdgeId] = set()
        out = []
        for start in sorted({e for en in self.entries for e in en.protection.edges}, key=str):
            if start not in seen:
                nodes, trail, closed = self._walk_trail(start, tallies.low, tallies.high)
                seen.update(trail)
                out.append(_canonical_pxt(nodes, trail, closed))
        return sorted(out, key=_pxt_sort_key)

    @staticmethod
    def _walk_trail(start: EdgeId, low: dict[EdgeId, EdgeId], high: dict[EdgeId, EdgeId]):
        """(nodes, edges, closed) of the trail that joins `start` to each
        edge's partner at its low end, `low`, and at its high end, `high`."""
        def extend(node: str) -> tuple[list[str], list[EdgeId], bool]:
            # the nodes and edges after start, leaving it at node; True if they wrap
            nodes, edges, cur = [], [], start
            while (nxt := (low if node == cur[0] else high).get(cur)) is not None and nxt != start:
                node = nxt.other(node)
                nodes.append(node)
                edges.append(nxt)
                cur = nxt
            return nodes, edges, nxt == start

        fwd_nodes, fwd_edges, closed = extend(start.v)
        if closed:
            return [start.u, start.v] + fwd_nodes, [start] + fwd_edges, True
        bwd_nodes, bwd_edges, _ = extend(start.u)
        return (bwd_nodes[::-1] + [start.u, start.v] + fwd_nodes,
                bwd_edges[::-1] + [start] + fwd_edges, False)

    # -- serialization -------------------------------------------------------

    def serialize(self) -> str:
        lines = [PLAN_HEADER, f"mode {self.mode}",
                 f"enforce {''.join(sorted(self.enforce))}"]
        for entry in self.entries:
            lines.append(entry.serialize())
        if "d" in self.enforce:
            pxt_lines, xc_lines = self._trail_lines()
            lines += pxt_lines + xc_lines
        return "\n".join(lines) + "\n"

    def _trail_lines(self) -> tuple[list[str], list[str]]:
        """The `pxt` lines and the `xc` lines that serialize writes under rule d."""
        xcs = set()
        for (e, x), f in self._partner.items():
            xcs.add((x,) + tuple(sorted((str(e), str(f)))))
        return ([p.serialize() for p in self.pxts],
                [f"xc {x} {e} {f}" for x, e, f in sorted(xcs)])

    @classmethod
    def parse(cls, graph: Graph, text: str) -> "AllocationPlan":
        """Inverse of serialize.  Malformed lines raise PlanError naming the
        line, a first line other than the header `pxtmesh-plan 1` among them,
        and so does an entry that add_entry refuses, with its violations;
        a bare `enforce` line is the empty rule set serialize writes.
        `pxt` and `xc` lines, which serialize writes only under rule d, are
        refused in a plan without it.  One table of edge tokens serves the
        whole text: each distinct token is parsed once, the plan holds one
        EdgeId per edge, and a bad token is reported at its first line."""
        lines = text.splitlines() or [""]
        if lines[0].strip() != PLAN_HEADER:
            raise PlanError(f"line 1: expected {PLAN_HEADER!r}, got {lines[0].strip()!r}")
        mode = "node"
        enforce: frozenset[str] = ALL_CONDITIONS
        plan: AllocationPlan | None = None
        pxt_lines, xc_lines = [], []
        edges: dict[str, EdgeId] = {}  # edge token -> EdgeId, for the whole text
        first_trail_line: tuple[int, str] | None = None
        for lineno, raw in enumerate(lines[1:], start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            kind, *rest = line.split(None, 1)
            rest = rest[0] if rest else ""
            if not rest and kind != "enforce":
                raise PlanError(f"line {lineno}: {kind!r} needs an argument")
            if kind in ("mode", "enforce") and plan is not None:
                raise PlanError(f"line {lineno}: {kind!r} after the first entry")
            if kind == "mode":
                if rest not in ("node", "link"):
                    raise PlanError(f"line {lineno}: unknown mode {rest!r}")
                mode = rest
            elif kind == "enforce":
                if not set(rest) <= ALL_CONDITIONS:
                    raise PlanError(f"line {lineno}: unknown conditions in {rest!r}")
                enforce = frozenset(rest)
            elif kind == "entry":
                if plan is None:
                    plan = cls(graph, mode=mode, enforce=enforce)
                entry = _parse_entry(lineno, line, edges)
                try:
                    plan.add_entry(entry)
                except PlanError as exc:
                    exc.args = (f"line {lineno}: {exc}",)  # .violations stay as they are
                    raise
            elif kind in ("pxt", "xc"):
                (pxt_lines if kind == "pxt" else xc_lines).append(line)
                first_trail_line = first_trail_line or (lineno, kind)
            else:
                raise PlanError(f"line {lineno}: unknown plan directive {kind!r}")
        if plan is None:
            plan = cls(graph, mode=mode, enforce=enforce)
        if "d" in plan.enforce:
            expect_pxt, expect_xc = plan._trail_lines()
            if pxt_lines and pxt_lines != expect_pxt:
                raise PlanError("pxt lines do not match the entries' cross-connects")
            if xc_lines and xc_lines != expect_xc:
                raise PlanError("xc lines do not match the entries' cross-connects")
        elif first_trail_line:
            raise PlanError("line {}: {!r} line in a plan that does not enforce rule d"
                            .format(*first_trail_line))
        return plan


def _parse_entry(lineno: int, line: str, edges: dict[str, EdgeId]) -> PlanEntry:
    """One `entry <id> <u> <v> | working <walk> | protection <walk>` line."""
    try:
        [_, did, u, v], [w, *working], [p, *protection] = (f.split() for f in line.split("|"))
        if (w, p) != ("working", "protection"):
            raise ValueError
        return PlanEntry(Demand(int(did), intern(u), intern(v)),
                         Walk.from_tokens(working, edges), Walk.from_tokens(protection, edges))
    except GraphError as exc:
        raise PlanError(f"line {lineno}: {exc}") from exc
    except ValueError:
        raise PlanError(f"line {lineno}: expected "
                        f"'entry <id> <u> <v> | working ... | protection ...'") from None
