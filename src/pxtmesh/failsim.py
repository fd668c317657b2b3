"""Single-failure restoration semantics over a finished plan.

Restoration is modeled structurally: which demands lose their working path,
whether their protection paths are intact and fully pre-cross-connected, and
which nodes have to act.  In a branch-point-free plan the only real-time
actions are bridging at the demand terminals plus breaking a terminal-side
cross-connect where the trail continues past the endnode; every intermediate
node passes traffic through connections that already exist.  `audit` derives
each entry's share once, sums them per failure and raises at the first bad one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Edge, Graph, edge_str, link_of
from .plan import AllocationPlan


@dataclass(frozen=True)
class Failure:
    kind: str                       # "link" | "node"
    element: tuple[str, str] | str

    def __post_init__(self):
        if self.kind not in ("link", "node"):
            raise ValueError(f"unknown failure kind {self.kind!r}")

    @property
    def id(self) -> str:
        if self.kind == "link":
            return f"link:{self.element[0]}-{self.element[1]}"
        return f"node:{self.element}"


def enumerate_failures(g: Graph, mode: str = "link") -> list[Failure]:
    """All single link failures, plus node failures when mode is "node"."""
    if mode not in ("node", "link"):
        raise ValueError(f"unknown failure mode {mode!r}")
    out = [Failure("link", l) for l in g.links()]
    if mode == "node":
        out.extend(Failure("node", n) for n in g.sorted_nodes())
    return out


@dataclass
class AuditRow:
    failure: str
    affected: int
    unrestorable: int
    switch_events: int
    pass_through: int


@dataclass
class AuditReport:
    """One sweep's rows.  audit() raises where any protection edge is needed
    twice, so the load it reports is 1 if a row restores a demand, else 0."""

    mode: str
    rows: list[AuditRow] = field(default_factory=list)
    max_concurrent_load: int = 0

    @property
    def failures_checked(self) -> int:
        return len(self.rows)

    def to_csv(self) -> str:
        lines = ["failure,affected,unrestorable,switch_events,pass_through"]
        for r in self.rows:
            lines.append(f"{r.failure},{r.affected},{r.unrestorable},"
                         f"{r.switch_events},{r.pass_through}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        return (f"{self.failures_checked} failures audited ({self.mode} mode); "
                f"max concurrent protection-edge load "
                f"{self.max_concurrent_load}; "
                f"{sum(r.affected for r in self.rows)} restorations, "
                f"{sum(r.switch_events for r in self.rows)} switch events, "
                f"{sum(r.pass_through for r in self.rows)} pass-throughs")


class AuditError(RuntimeError):
    def __init__(self, failure: Failure, message: str, demands: tuple[int, ...] = ()):
        super().__init__(f"{failure.id}: {message}")
        self.failure = failure
        self.demands = demands


def audit(plan: AllocationPlan, mode: str | None = None) -> AuditReport:
    """Sweep every single failure and assert ring-speed restoration semantics.

    A failure makes each demand whose working path it cuts unrestorable (a
    node failure at a terminal) or restored over its protection path.  Each
    activated protection path must be untouched by the failure and fully
    pre-cross-connected, the activated paths must be pairwise edge-disjoint,
    and only the demand's terminals, the protection's ends, switch: each
    bridges, and breaks the cross-connect where the trail continues past it.
    Each entry's facts are derived once per call and not kept; a failure sums
    those of the entries it hits, in entry order.  The first of them that
    shares the failed element or misses a cross-connect, else an edge needed
    twice, raises AuditError naming the witness demands.  A plan that keeps
    no cross-connects fails at its first protection of two or more edges.
    """
    mode = mode or plan.mode
    partner = plan.crossconnect_partner
    # each entry's facts, filed under the links and (node sweeps) nodes of its working
    hit_by: dict[tuple[str, str] | str, list[tuple]] = {}
    for entry in plan.entries:
        d, edges, hops = entry.demand, entry.protection.edges, entry.protection.nodes
        keys = entry.working.link_set()
        meet = keys.intersection(map(link_of, edges))
        if mode == "node":
            nodes = set(entry.working.nodes)
            meet.update(nodes.intersection(hops).difference((d.u, d.v)))
            keys |= nodes
        defect = next((f"protection of demand {d.id} is not pre-cross-connected at {x}"
                       for e, x, f in zip(edges, hops[1:], edges[1:]) if partner(e, x) != f), None)
        # a bridge at each end, and a break where the trail runs on past it
        switches = (2 + (partner(edges[0], hops[0]) is not None)
                    + (partner(edges[-1], hops[-1]) is not None))
        fact = ((d.u, d.v), meet or None, defect, len(hops) - 2, switches, edges, d.id)
        for key in keys:
            hit_by.setdefault(key, []).append(fact)
    report = AuditReport(mode)
    for failure in enumerate_failures(plan.graph, mode):
        element = failure.element  # a link never equals a terminal
        unrestorable = switch_events = pass_through = needed = 0
        hits, used = hit_by.get(element, ()), set()
        for terminals, meet, defect, hops, switches, edges, did in hits:
            if element in terminals:
                unrestorable += 1
                continue
            if meet is not None and element in meet:
                raise AuditError(failure, f"protection of demand {did} is hit by the same "
                                 f"failure; working and protection were not disjoint", (did,))
            if defect is not None:
                raise AuditError(failure, defect, (did,))
            pass_through += hops
            switch_events += switches
            needed += len(edges)
            used.update(edges)
        if len(used) != needed:
            edge_users: dict[Edge, list[int]] = {}  # of the restored protections
            for terminals, *_, edges, did in hits:
                for e in edges if element not in terminals else ():
                    edge_users.setdefault(e, []).append(did)
            e = min((e for e, users in edge_users.items() if len(users) > 1), key=edge_str)
            users = sorted(edge_users[e])
            raise AuditError(failure, f"protection edge {edge_str(e)} needed by demands "
                             f"{users} at once", tuple(users))
        report.max_concurrent_load |= len(hits) > unrestorable  # no edge is needed twice
        report.rows.append(AuditRow(failure.id, len(hits) - unrestorable, unrestorable,
                                    switch_events, pass_through))
    return report
