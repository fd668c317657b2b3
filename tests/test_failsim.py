import copy
import functools
import hashlib
from dataclasses import dataclass, field

import pytest

from pxtmesh.experiments import route_with_scheme, traffic_spec
from pxtmesh.failsim import (
    AuditError,
    AuditReport,
    AuditRow,
    Failure,
    audit,
    enumerate_failures,
)
from pxtmesh.graph import Walk, link_key
from pxtmesh.plan import AllocationPlan, Demand, PlanEntry, PlanError
from pxtmesh.topologies import standard_topology
from pxtmesh.traffic import generate, uniform

from conftest import walk
from test_graph import grid


def link_failure(u: str, v: str) -> Failure:
    return Failure("link", link_key(u, v))


def node_failure(x: str) -> Failure:
    return Failure("node", x)


@pytest.fixture
def shared_plan(five_node):
    """Two demands sharing the middle of one PXT C-A-E-D-B."""
    plan = AllocationPlan(five_node)
    plan.add_entry(PlanEntry(
        Demand(0, "A", "B"),
        walk("A", ("A", "B", 0), "B"),
        walk("A", ("A", "E", 0), "E", ("E", "D", 0), "D", ("D", "B", 0), "B")))
    plan.add_entry(PlanEntry(
        Demand(1, "C", "D"),
        walk("C", ("C", "D", 0), "D"),
        walk("C", ("C", "A", 0), "A", ("A", "E", 0), "E", ("E", "D", 0), "D")))
    return plan


class TestRestore:
    """The oracle restoration of one failure, and audit()'s row for it."""

    def test_fail_first_working(self, shared_plan):
        failure = link_failure("A", "B")
        r = oracle_restore(shared_plan, failure)
        assert r.affected == [0]
        assert r.activated[0].nodes == ("A", "E", "D", "B")
        assert {e.node for e in r.switch_events} == {"A", "B"}
        assert r.pass_through == 2  # E and D pass through
        # the trail continues past A to C, so A must break that connect
        breaks = [e for e in r.switch_events if e.action == "break-crossconnect-at-endnode"]
        assert [(b.node, b.demand) for b in breaks] == [("A", 0)]
        assert audit_row(shared_plan, failure) == row_of(r) == AuditRow("link:A-B", 1, 0, 3, 2)

    def test_fail_second_working(self, shared_plan):
        failure = link_failure("C", "D")
        r = oracle_restore(shared_plan, failure)
        assert r.affected == [1]
        assert r.activated[1].nodes == ("C", "A", "E", "D")
        breaks = [e for e in r.switch_events if e.action == "break-crossconnect-at-endnode"]
        assert [(b.node, b.demand) for b in breaks] == [("D", 1)]
        assert {e.node for e in r.switch_events} == {"C", "D"}
        assert audit_row(shared_plan, failure) == row_of(r) == AuditRow("link:C-D", 1, 0, 3, 2)

    def test_fail_idle_link(self, shared_plan):
        failure = link_failure("E", "B")
        r = oracle_restore(shared_plan, failure)
        assert r.affected == []
        assert r.switch_events == []
        assert audit_row(shared_plan, failure) == row_of(r) == AuditRow("link:B-E", 0, 0, 0, 0)

    def test_node_failure_at_terminal_unrestorable(self, shared_plan):
        failure = node_failure("A")
        r = oracle_restore(shared_plan, failure)
        assert r.unrestorable == [0]
        assert r.affected == []
        assert audit_row(shared_plan, failure) == row_of(r) == AuditRow("node:A", 0, 1, 0, 0)

    def test_node_failure_missing_nobody(self, shared_plan):
        failure = node_failure("E")
        r = oracle_restore(shared_plan, failure)
        assert r.affected == [] and r.unrestorable == []
        assert audit_row(shared_plan, failure) == row_of(r) == AuditRow("node:E", 0, 0, 0, 0)

    def test_interior_node_failure(self, five_node):
        plan = AllocationPlan(five_node)
        plan.add_entry(PlanEntry(
            Demand(0, "C", "B"),
            walk("C", ("C", "A", 0), "A", ("A", "B", 0), "B"),
            walk("C", ("C", "D", 0), "D", ("D", "B", 0), "B")))
        failure = node_failure("A")
        r = oracle_restore(plan, failure)
        assert r.affected == [0]
        assert r.activated[0].nodes == ("C", "D", "B")
        assert audit_row(plan, failure) == row_of(r) == AuditRow("node:A", 1, 0, 2, 1)

    def test_read_only(self, shared_plan):
        before = shared_plan.serialize()
        oracle_restore(shared_plan, link_failure("A", "B"))
        audit(shared_plan, "node")
        assert shared_plan.serialize() == before

    def test_invalid_plan_rejected(self, five_node):
        plan = AllocationPlan(five_node, enforce="abc")
        plan.add_entry(PlanEntry(
            Demand(0, "A", "B"),
            walk("A", ("A", "B", 0), "B"),
            walk("A", ("A", "E", 0), "E", ("E", "B", 0), "B")))
        plan.add_entry(PlanEntry(
            Demand(1, "C", "D"),
            walk("C", ("C", "D", 0), "D"),
            walk("C", ("C", "A", 0), "A", ("A", "E", 0), "E", ("E", "D", 0), "D")))
        assert plan.validate()
        # without rule d nothing is cross-connected, so nothing restores
        failure = link_failure("A", "B")
        with pytest.raises(AuditError) as oracle:
            oracle_restore(plan, failure)
        with pytest.raises(AuditError) as exc:
            audit(plan, "link")
        assert str(exc.value) == str(oracle.value) == \
            "link:A-B: protection of demand 0 is not pre-cross-connected at E"
        assert (exc.value.failure, exc.value.demands) == (failure, (0,))


class TestEnumerate:
    def test_link_mode(self, icosahedron):
        assert len(enumerate_failures(icosahedron, "link")) == 30

    def test_node_mode(self, k66):
        failures = enumerate_failures(k66, "node")
        assert len(failures) == 36 + 12

    def test_empty_graph(self):
        from pxtmesh.graph import Graph
        assert enumerate_failures(Graph([], []), "node") == []

    @pytest.mark.parametrize("mode", ["nodes", "Node", ""])
    def test_unknown_mode_rejected(self, k66, shared_plan, mode):
        with pytest.raises(ValueError, match=f"unknown failure mode {mode!r}"):
            enumerate_failures(k66, mode)
        if mode:  # an empty mode is audit's default, the plan's own
            with pytest.raises(ValueError, match=f"unknown failure mode {mode!r}"):
                audit(shared_plan, mode=mode)


class TestAudit:
    def test_shared_plan_passes(self, shared_plan):
        report = audit(shared_plan, mode="node")
        assert report.failures_checked == 7 + 5
        assert report.max_concurrent_load <= 1
        assert "max concurrent" in report.summary()
        csv = report.to_csv()
        assert csv.splitlines()[0] == \
            "failure,affected,unrestorable,switch_events,pass_through"
        assert len(csv.splitlines()) == 13

    def test_contention_reported(self, five_node):
        # two copies with identical workings riding the very same protection
        # edges: one link failure would need each shared unit twice
        plan = AllocationPlan(five_node, enforce="abd")
        protection = walk("C", ("C", "D", 0), "D", ("D", "B", 0), "B")
        plan.add_entry(PlanEntry(
            Demand(0, "C", "B"),
            walk("C", ("C", "A", 0), "A", ("A", "B", 0), "B"),
            protection))
        plan.add_entry(PlanEntry(
            Demand(1, "C", "B"),
            walk("C", ("C", "A", 1), "A", ("A", "B", 1), "B"),
            protection))
        assert {v.condition for v in plan.validate()} == {"c"}
        with pytest.raises(AuditError) as exc:
            audit(plan, mode="link")
        assert "needed by demands" in str(exc.value)
        assert exc.value.demands == (0, 1)
        # both protection edges are contended; the least by name is the witness
        assert str(exc.value) == "link:A-B: protection edge B~D#0 needed by demands [0, 1] at once"

    def test_contention_between_entries_of_one_demand_id(self, five_node):
        # as above, but both copies carry demand id 0: add_entry refuses the
        # second, so no audit witness can name one id twice
        plan = AllocationPlan(five_node, enforce="abd")
        protection = walk("C", ("C", "D", 0), "D", ("D", "B", 0), "B")
        first, second = (PlanEntry(
            Demand(0, "C", "B"),
            walk("C", ("C", "A", k), "A", ("A", "B", k), "B"),
            protection) for k in (0, 1))
        plan.add_entry(first)
        before = plan.serialize()
        with pytest.raises(PlanError) as exc:
            plan.add_entry(second)
        assert str(exc.value) == "condition structure (demands 0): demand 0 is already in the plan"
        assert plan.entries == [first] and plan.serialize() == before
        assert audit(plan, mode="link").max_concurrent_load == 1

    def test_empty_plan_vacuous(self, five_node):
        report = audit(AllocationPlan(five_node), mode="link")
        assert report.failures_checked == 7
        assert report.max_concurrent_load == 0


# -- audit() against its full-scan oracles ---------------------------------------


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


def oracle_restore(plan, failure):
    """The restoration of one failure, as audit() once built it before counting
    it, without the per-failure entry index: every entry is tested against
    the failure, and every activated walk and switch event is kept."""
    def hits(walk):
        if failure.kind == "link":
            return failure.element in {e.link for e in walk.edges}
        return failure.element in walk.nodes

    result = RestorationResult(failure)
    for entry in plan.entries:
        d = entry.demand
        if not hits(entry.working):
            continue
        if failure.kind == "node" and failure.element in (d.u, d.v):
            result.unrestorable.append(d.id)
            continue
        if hits(entry.protection):
            raise AuditError(
                failure, f"protection of demand {d.id} is hit by the same "
                f"failure; working and protection were not disjoint", (d.id,))
        result.affected.append(d.id)
        result.activated[d.id] = entry.protection
        p = entry.protection
        for i in range(len(p.edges) - 1):
            x = p.nodes[i + 1]
            if plan.crossconnect_partner(p.edges[i], x) != p.edges[i + 1]:
                raise AuditError(
                    failure, f"protection of demand {d.id} is not "
                    f"pre-cross-connected at {x}", (d.id,))
        result.pass_through += len(p.nodes) - 2
        for terminal, end_edge in ((p.nodes[0], p.edges[0]), (p.nodes[-1], p.edges[-1])):
            result.switch_events.append(SwitchEvent(terminal, "bridge-at-endnode", d.id))
            if plan.crossconnect_partner(end_edge, terminal) is not None:
                result.switch_events.append(
                    SwitchEvent(terminal, "break-crossconnect-at-endnode", d.id))
    return result


def row_of(r: RestorationResult) -> AuditRow:
    """The audit row a restoration adds up to."""
    return AuditRow(r.failure.id, len(r.affected), len(r.unrestorable),
                    len(r.switch_events), r.pass_through)


def audit_row(plan, failure) -> AuditRow:
    """audit()'s row for `failure`, from a sweep of that failure's kind."""
    return next(r for r in audit(plan, failure.kind).rows if r.failure == failure.id)


def oracle_audit(plan, mode):
    """audit() as it was before the per-failure entry index: a full restore
    per failure, and every activated edge sorted."""
    report = AuditReport(mode)
    terminals = {e.demand.id: e.demand.terminals for e in plan.entries}
    for failure in enumerate_failures(plan.graph, mode):
        r = oracle_restore(plan, failure)
        edge_users = {}
        for did, w in r.activated.items():
            for e in w.edges:
                edge_users.setdefault(e, []).append(did)
        for e, users in sorted(edge_users.items(), key=lambda kv: str(kv[0])):
            if len(users) > 1:
                raise AuditError(
                    failure, f"protection edge {e} needed by demands "
                    f"{sorted(users)} at once", tuple(sorted(users)))
        report.max_concurrent_load = max(
            report.max_concurrent_load,
            max((len(u) for u in edge_users.values()), default=0))
        for ev in r.switch_events:
            if ev.node not in terminals[ev.demand]:
                raise AuditError(
                    failure, f"switch event at non-terminal {ev.node} "
                    f"for demand {ev.demand}", (ev.demand,))
        report.rows.append(row_of(r))
    return report


def outcome(fn, *args):
    """What a call returned, or the type, message and demands of what it raised."""
    try:
        result = fn(*args)
    except AuditError as exc:
        return type(exc).__name__, str(exc), exc.demands
    if isinstance(result, AuditReport):
        return result.to_csv(), result.max_concurrent_load
    return result


@pytest.mark.parametrize("mode", ["node", "link"])
@pytest.mark.parametrize("seed", range(16))
def test_audit_and_restore_match_oracles(random_plan, seed, mode):
    plan = random_plan(seed, mode)
    for failure_mode in ("link", "node"):
        assert outcome(audit, plan, failure_mode) == outcome(oracle_audit, plan, failure_mode)
    # each row of the sweep is the oracle restoration of its failure; where the
    # sweep stops, the oracle fails the same way or restores with contention
    try:
        report, stop = audit(plan, "node"), None
    except AuditError as exc:
        report, stop = None, exc
    for i, failure in enumerate(enumerate_failures(plan.graph, "node")):
        restored = outcome(oracle_restore, plan, failure)
        if stop is None:
            assert report.rows[i] == row_of(restored)
        elif failure == stop.failure:
            if isinstance(restored, RestorationResult):
                assert "needed by demands" in str(stop)
            else:
                assert restored == outcome(audit, plan, "node")
            break
        else:
            assert isinstance(restored, RestorationResult)
    else:
        assert stop is None


@pytest.mark.parametrize("mode", ["node", "link"])
def test_returned_load_is_whether_anything_restores(random_plan, mode):
    # audit() raises on any edge needed twice, so a returned load is 0 or 1
    returned = 0
    for seed in range(16):
        plan = random_plan(seed, mode)
        for failure_mode in ("link", "node"):
            try:
                report = audit(plan, failure_mode)
            except AuditError:
                continue
            returned += 1
            assert report.max_concurrent_load == int(any(r.affected for r in report.rows))
    assert returned


def test_random_plans_reach_every_audit_outcome(random_plan):
    # passes, contention, and both restoration errors all occur
    kinds = set()
    for seed in range(16):
        for mode in ("node", "link"):
            result = outcome(audit, random_plan(seed, mode), mode)
            if len(result) == 2:
                kinds.add("pass")
            else:
                kinds.add(next(k for k in ("needed by demands", "pre-cross-connected",
                                           "hit by the same failure") if k in result[1]))
    assert kinds == {"pass", "needed by demands", "pre-cross-connected",
                     "hit by the same failure"}


# -- routed plans: audit reports pinned byte for byte -----------------------------

FIXTURES = ("cycle12plus3", "grid3x4", "tietze", "icosahedron", "k66")


@functools.cache
def routed_plan(name: str, scheme: str, mode: str) -> AllocationPlan:
    """The seed-0 uniform plan of fixture `name` (or "grid5", the 5x5 grid
    under uniform k=1 traffic) routed by `scheme` in `mode`.  Shared between
    tests, so never to be modified."""
    if name == "grid5":
        g = grid(5)
        demands = generate(g, uniform(1, seed=0))
    else:
        g = standard_topology(name)
        demands = generate(g, traffic_spec("uniform", name, 0))
    return route_with_scheme(g, scheme, demands, mode=mode)


# sha256 of to_csv() + summary() of audit(plan, mode) for the plan
# routed_plan(name, scheme, mode), recorded before audit() derived each
# entry's facts once per call: any change to a report shows here
GOLDEN_AUDIT_REPORTS = {
    ("cycle12plus3", "pxt", "link"): "07d786b58a1314f011bd0d8e7bb2138416cd69167a912a4e757f2d1c1c17e079",
    ("cycle12plus3", "pxt", "node"): "837ed1064aa35f996810d2831b97dbe47b16672b3a13deba2f0e9d516eed97f9",
    ("cycle12plus3", "one-plus-one", "node"): "34bb8ed9a6ecbfe339825ab9cf2ab6e631f56eb01555645f9b1ce3ab76bb0a36",
    ("grid3x4", "pxt", "link"): "ed0e80fa9918c406758fc9c75035b68daf466987e1c7ae38ab9dec0d3058930a",
    ("grid3x4", "pxt", "node"): "c3dd8bf42ba5e4f149ee3a59387dcb19fce4b2c193e7c8a7cfb42fefcf8516c5",
    ("grid3x4", "one-plus-one", "node"): "525a72537c11979c8957fc114879beb3956d0d57c7182be6d34c7783133f75f3",
    ("tietze", "pxt", "link"): "534475b1dc7f07c68e3681d6afced92e3b5d9077112868186daa719f9d57305e",
    ("tietze", "pxt", "node"): "ead73cec3ab95f3c42b7400a46ecaec098dc5aa5170029fc790ee75adbdf7f06",
    ("tietze", "one-plus-one", "node"): "1d46acbaf7b1e95c47ecf27895ed2b31be5facf40785cfbf29730c7ffafe89e9",
    ("icosahedron", "pxt", "link"): "17c5a985af1912ea100f915d7b5628c5a354d2ff1ab5f637835d24286cafd102",
    ("icosahedron", "pxt", "node"): "b69f72f19596bad637b3b15ca6c7748896250a6f0e651e4f2f964fe26e5466eb",
    ("icosahedron", "one-plus-one", "node"): "c952db7e01a758909fce30cd11d97115c11563d4f142eaffc2d18b6d3ef6ab99",
    ("k66", "pxt", "link"): "66d773037e860b732706639ae479f2c53f8c9b656382f08df9d3c7a0cbd8f079",
    ("k66", "pxt", "node"): "c0989546b8837fdb3092b45fb9a9df2b3d3d2932a0aa94adac3fa0519c728b36",
    ("k66", "one-plus-one", "node"): "7b0625ed9796b084d63181bf0f71bcd89269fead088ee94d1848e413bfdee2e2",
    ("grid5", "pxt", "link"): "0f4d66187b685a15e56a2bad06958a93112d2f388eb24b26810d81845c691985",
}


@pytest.mark.parametrize("name, scheme, mode", sorted(GOLDEN_AUDIT_REPORTS))
def test_audit_reports_byte_identical(name, scheme, mode):
    report = audit(routed_plan(name, scheme, mode), mode)
    got = hashlib.sha256((report.to_csv() + report.summary()).encode()).hexdigest()
    assert got == GOLDEN_AUDIT_REPORTS[(name, scheme, mode)]


# -- routed plans, intact and broken on purpose, against the oracle ---------------

def broken(plan: AllocationPlan, how: str) -> AllocationPlan:
    """A deep copy of `plan` broken as `how` says, around the first entry
    from the middle on whose protection has a join: "intact" leaves it
    whole; "join" removes the last cross-connect of that protection;
    "meet" appends, behind add_entry's back, a copy of the entry working
    over its own protection; "contend" appends a copy of the whole entry
    under a new demand id, so each working failure needs its edges twice."""
    plan = copy.deepcopy(plan)
    entries = plan.entries
    entry = next(en for en in entries[len(entries) // 2:] if len(en.protection.edges) > 1)
    d, p = entry.demand, entry.protection
    twin = Demand(max(en.demand.id for en in entries) + 1, d.u, d.v)
    if how == "join":
        e, x, f = p.edges[-2], p.nodes[-2], p.edges[-1]
        assert plan._partner.pop((e, x)) == f and plan._partner.pop((f, x)) == e
    elif how == "meet":
        entries.append(PlanEntry(twin, p, p))
    elif how == "contend":
        entries.append(PlanEntry(twin, entry.working, p))
    return plan


# what each break raises in the plan's own sweep
BREAKS = {"intact": None, "join": "pre-cross-connected", "meet": "hit by the same failure",
          "contend": "needed by demands"}


@pytest.mark.parametrize("how", sorted(BREAKS))
@pytest.mark.parametrize("name, scheme, mode", sorted(GOLDEN_AUDIT_REPORTS))
def test_routed_plans_match_oracle(name, scheme, mode, how):
    plan = broken(routed_plan(name, scheme, mode), how)
    for failure_mode in ("link", "node"):
        assert outcome(audit, plan, failure_mode) == outcome(oracle_audit, plan, failure_mode)
    result = outcome(audit, plan, mode)
    if BREAKS[how] is None:
        assert len(result) == 2  # a report
    else:
        assert BREAKS[how] in result[1]


def test_partner_lookups_per_call_bounded_by_entries():
    plan = copy.deepcopy(routed_plan("k66", "one-plus-one", "node"))
    calls = 0
    lookup = plan.crossconnect_partner

    def counting(edge, node):
        nonlocal calls
        calls += 1
        return lookup(edge, node)

    plan.crossconnect_partner = counting
    bound = sum(len(en.protection.edges) + 1 for en in plan.entries)
    first = audit(plan, "node")
    assert first.failures_checked == 36 + 12
    assert 0 < calls <= bound
    once = calls
    # a second call pays again: nothing is kept between calls
    assert audit(plan, "node") == first
    assert calls == 2 * once
