"""Single-failure restoration semantics over a finished plan.

Restoration is modeled structurally: which demands lose their working path,
whether their protection paths are intact and fully pre-cross-connected, and
which nodes have to act.  In a branch-point-free plan the only real-time
actions are bridging at the demand terminals plus breaking a terminal-side
cross-connect where the trail continues past the endnode; every intermediate
node passes traffic through connections that already exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import EdgeId, Graph, Walk
from .plan import AllocationPlan, PlanEntry, PlanError


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


@dataclass(frozen=True)
class SwitchEvent:
    node: str
    action: str  # "bridge-at-endnode" | "break-crossconnect-at-endnode"
    demand: int


@dataclass
class RestorationResult:
    failure: Failure
    affected: list[int] = field(default_factory=list)
    unrestorable: list[int] = field(default_factory=list)
    activated: dict[int, Walk] = field(default_factory=dict)
    switch_events: list[SwitchEvent] = field(default_factory=list)
    pass_through: int = 0


class RestorationError(RuntimeError):
    def __init__(self, message: str, demands: tuple[int, ...] = ()):
        super().__init__(message)
        self.demands = demands


def enumerate_failures(g: Graph, mode: str = "link") -> list[Failure]:
    """All single link failures, plus node failures when mode is "node"."""
    if mode not in ("node", "link"):
        raise ValueError(f"unknown failure mode {mode!r}")
    out = [Failure("link", l) for l in g.links()]
    if mode == "node":
        out.extend(Failure("node", n) for n in g.sorted_nodes())
    return out


def _hits_walk(failure: Failure, walk: Walk) -> bool:
    if failure.kind == "link":
        return failure.element in walk.link_set()
    return failure.element in walk.node_set()


def restore(plan: AllocationPlan, failure: Failure) -> RestorationResult:
    """Activate protection for every demand whose working path the failure cuts."""
    violations = plan.validate()
    if violations:
        raise PlanError(violations)
    return _restore_hit(plan, failure, [e for e in plan.entries if _hits_walk(failure, e.working)])


def _restore_hit(plan: AllocationPlan, failure: Failure,
                 hit: list[PlanEntry]) -> RestorationResult:
    """restore() over the entries whose working paths the failure cuts, in entry order."""
    result = RestorationResult(failure)
    for entry in hit:
        d = entry.demand
        if failure.kind == "node" and failure.element in (d.u, d.v):
            result.unrestorable.append(d.id)
            continue
        if _hits_walk(failure, entry.protection):
            raise RestorationError(
                f"{failure.id}: protection of demand {d.id} is hit by the same "
                f"failure; working and protection were not disjoint", (d.id,))
        result.affected.append(d.id)
        result.activated[d.id] = entry.protection
        p = entry.protection
        for i in range(len(p.edges) - 1):
            x = p.nodes[i + 1]
            if plan.crossconnect_partner(p.edges[i], x) != p.edges[i + 1]:
                raise RestorationError(
                    f"{failure.id}: protection of demand {d.id} is not "
                    f"pre-cross-connected at {x}", (d.id,))
        result.pass_through += len(p.nodes) - 2
        for terminal, end_edge in ((p.nodes[0], p.edges[0]), (p.nodes[-1], p.edges[-1])):
            result.switch_events.append(
                SwitchEvent(terminal, "bridge-at-endnode", d.id))
            if plan.crossconnect_partner(end_edge, terminal) is not None:
                result.switch_events.append(
                    SwitchEvent(terminal, "break-crossconnect-at-endnode", d.id))
    return result


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

    For each failure: activated protection paths are pairwise edge-disjoint,
    each is fully pre-cross-connected, and every switch event happens at a
    terminal of the demand it serves.  Violations raise AuditError naming the
    failure and the witness demands.
    """
    mode = mode or plan.mode
    report = AuditReport(mode)
    terminals = {e.demand.id: e.demand.terminals for e in plan.entries}
    # entries by the links (link_key tuples) and nodes their workings touch
    hit_by: dict[tuple[str, str] | str, list[PlanEntry]] = {}
    for entry in plan.entries:
        for element in entry.working.link_set() | entry.working.node_set():
            hit_by.setdefault(element, []).append(entry)
    for failure in enumerate_failures(plan.graph, mode):
        try:
            r = _restore_hit(plan, failure, hit_by.get(failure.element, []))
        except RestorationError as exc:
            raise AuditError(failure, str(exc), exc.demands) from exc
        edge_users: dict[EdgeId, list[int]] = {}
        for did, walk in r.activated.items():
            for e in walk.edges:
                edge_users.setdefault(e, []).append(did)
        contended = [e for e, users in edge_users.items() if len(users) > 1]
        if contended:
            e = min(contended, key=str)
            users = sorted(edge_users[e])
            raise AuditError(failure, f"protection edge {e} needed by demands {users} at once",
                             tuple(users))
        report.max_concurrent_load = max(
            report.max_concurrent_load,
            max((len(u) for u in edge_users.values()), default=0))
        for ev in r.switch_events:
            if ev.node not in terminals[ev.demand]:
                raise AuditError(
                    failure, f"switch event at non-terminal {ev.node} "
                    f"for demand {ev.demand}", (ev.demand,))
        report.rows.append(AuditRow(failure.id, len(r.affected), len(r.unrestorable),
                                    len(r.switch_events), r.pass_through))
    return report
