"""Single-failure restoration semantics over a finished plan.

Restoration is modeled structurally: which demands lose their working path,
whether their protection paths are intact and fully pre-cross-connected, and
which nodes have to act.  In a branch-point-free plan the only real-time
actions are bridging at the demand terminals plus breaking a terminal-side
cross-connect where the trail continues past the endnode; every intermediate
node passes traffic through connections that already exist.  `audit` counts
these per failure and raises on the first one that breaks the semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import EdgeId, Graph
from .plan import AllocationPlan, PlanEntry


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
    and only the demand's terminals switch: each bridges, and breaks the
    cross-connect where the trail continues past it.  add_entry makes them
    the protection's ends.  Per failure the report counts restorations,
    unrestorable demands, switch events and pass-through nodes.  Violations
    raise AuditError naming the failure and the witness demands.
    """
    mode = mode or plan.mode
    report = AuditReport(mode)
    partner = plan.crossconnect_partner
    # entries by the links (link_key tuples) and nodes their workings touch
    hit_by: dict[tuple[str, str] | str, list[PlanEntry]] = {}
    for entry in plan.entries:
        for element in entry.working.link_set() | entry.working.node_set():
            hit_by.setdefault(element, []).append(entry)
    for failure in enumerate_failures(plan.graph, mode):
        affected = unrestorable = switch_events = pass_through = 0
        edge_users: dict[EdgeId, list[int]] = {}
        for entry in hit_by.get(failure.element, ()):
            d, p = entry.demand, entry.protection
            if failure.kind == "node" and failure.element in (d.u, d.v):
                unrestorable += 1
                continue
            if failure.element in (p.link_set() if failure.kind == "link" else p.nodes):
                raise AuditError(
                    failure, f"protection of demand {d.id} is hit by the same "
                    f"failure; working and protection were not disjoint", (d.id,))
            for i in range(len(p.edges) - 1):
                x = p.nodes[i + 1]
                if partner(p.edges[i], x) != p.edges[i + 1]:
                    raise AuditError(
                        failure, f"protection of demand {d.id} is not "
                        f"pre-cross-connected at {x}", (d.id,))
            affected += 1
            pass_through += len(p.nodes) - 2
            # a bridge at each end, and a break where the trail runs on past it
            switch_events += (2 + (partner(p.edges[0], p.nodes[0]) is not None)
                              + (partner(p.edges[-1], p.nodes[-1]) is not None))
            for e in p.edges:
                edge_users.setdefault(e, []).append(d.id)
        contended = [e for e, users in edge_users.items() if len(users) > 1]
        if contended:
            e = min(contended, key=str)
            users = sorted(edge_users[e])
            raise AuditError(failure, f"protection edge {e} needed by demands {users} at once",
                             tuple(users))
        report.max_concurrent_load = max(
            report.max_concurrent_load,
            max((len(u) for u in edge_users.values()), default=0))
        report.rows.append(AuditRow(failure.id, affected, unrestorable,
                                    switch_events, pass_through))
    return report
