import collections
import copy
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pxtmesh
from conftest import (
    RANDOM_ENFORCE,
    conflicts_oracle,
    protection_users,
    random_connected_graph,
    reference_add_entry,
    reference_parse_entry,
    repeat_horizon_oracle,
    sharing_oracle,
    used_on_link,
    walk,
)
from pxtmesh.baselines import route_1plus1, route_shared_path
from pxtmesh.experiments import PATTERNS, route_with_scheme, traffic_spec
from pxtmesh.graph import UNBOUNDED, EdgeId, Graph, GraphError, Walk, disjoint, link_key
from pxtmesh.plan import (
    AllocationPlan,
    Demand,
    PlanEntry,
    PlanError,
    PlanViolation,
    PXT,
    _Tallies,
    _Trail,
    _canonical_pxt,
    _parse_entry,
    _pxt_sort_key,
    _repeat_horizon,
)
from pxtmesh.router import RouterState, RoutingError, route_demand
from pxtmesh.topologies import standard_topology
from pxtmesh.traffic import generate, uniform


def entry(did, u, v, working, protection):
    return PlanEntry(Demand(did, u, v), working, protection)


# shared edge specs on the five-node fixture (fresh ordinals as each scheme
# would materialize them: workings take ordinal 0 of their direct links)
AB = ("A", "B", 0)
CD = ("C", "D", 0)
CA = ("C", "A", 0)
AE = ("A", "E", 0)
EB = ("E", "B", 0)
ED = ("E", "D", 0)
DB = ("D", "B", 0)


ENTRY0 = "entry 0 A B | working A A~B#0 B | protection A A~E#0 E E~B#0 B"


# (plan body after the header, line named in the error, what it says)
MALFORMED_PLAN_LINES = [
    ("mode", 2, "needs an argument"),
    ("entry", 2, "needs an argument"),
    ("pxt", 2, "needs an argument"),
    ("mode node\nxc", 3, "needs an argument"),
    ("mode ring", 2, "unknown mode"),
    ("enforce abx", 2, "unknown conditions"),
    ("entry 0 A B", 2, "expected 'entry"),
    ("entry zero A B | working A A~B#0 B | protection A A~E#0 E E~B#0 B", 2, "expected 'entry"),
    ("entry 0 A B | working A A~B#0 B", 2, "expected 'entry"),
    ("entry 0 A B | | protection A A~E#0 E E~B#0 B", 2, "expected 'entry"),
    ("entry 0 A B | protection A A~B#0 B | working A A~E#0 E E~B#0 B", 2, "expected 'entry"),
    ("entry 0 A B | working A A~B#0 B | protection A AE E", 2, "bad edge token"),
    (f"{ENTRY0}\nmode link", 3, "after the first entry"),
    (f"{ENTRY0}\nenforce ab", 3, "after the first entry"),
    ("frobnicate 1", 2, "unknown plan directive"),
    ("enforce abc\nxc zz yy xx", 3, "'xc' line in a plan that does not enforce rule d"),
    ("mode link\npxt open A A~B#0 B\nenforce ab", 3, "'pxt' line .* does not enforce rule d"),
]


def d1_shared(five_node):
    """First demand routed as in the shared-bandwidth example: protection rides
    A-E-D-B so both its middle links can be shared later."""
    return entry(0, "A", "B", walk("A", AB, "B"), walk("A", AE, "E", ED, "D", DB, "B"))


def d2_shared():
    return entry(1, "C", "D", walk("C", CD, "D"), walk("C", CA, "A", AE, "E", ED, "D"))


class TestAddEntry:
    def test_single_entry_single_pxt(self, five_node):
        plan = AllocationPlan(five_node)
        plan.add_entry(entry(0, "A", "B", walk("A", AB, "B"), walk("A", AE, "E", EB, "B")))
        assert plan.validate() == []
        [pxt] = plan.pxts
        assert not pxt.closed
        assert pxt.walk.edges == (EdgeId(*AE), EdgeId(*EB))

    def test_ordinal_beyond_capacity_refused(self, multigraph):
        """The structural check is add_entry's only capacity guard."""
        plan = AllocationPlan(multigraph, enforce="")
        protection = walk("A", ("A", "B", 1), "B", ("B", "C", 1), "C")
        for working, problem in (
                (walk("A", ("A", "B", 2), "B", ("B", "C", 0), "C"),
                 "edge ordinal 2 exceeds capacity 2 on A-B"),
                (walk("A", ("A", "C", 0), "C"), "no link A-C")):
            with pytest.raises(PlanError) as exc:
                plan.add_entry(entry(0, "A", "C", working, protection))
            assert str(exc.value) == (
                f"condition structure (demands 0): working path invalid: {problem}")
            assert plan.entries == [] and used_on_link(plan, "A", "B") == 0

    def test_repeated_demand_id_refused(self, five_node):
        """A demand id names one entry; the plan is unchanged by the refusal,
        and the id stays taken by its first entry alone."""
        plan = AllocationPlan(five_node)
        plan.add_entry(d1_shared(five_node))
        before = plan.serialize()
        again = entry(0, "A", "B", walk("A", ("A", "B", 1), "B"),
                      walk("A", ("A", "E", 1), "E", ("E", "B", 1), "B"))
        with pytest.raises(PlanError) as exc:
            plan.add_entry(again)
        assert exc.value.violations == [
            PlanViolation("structure", (0,), "demand 0 is already in the plan")]
        assert plan.serialize() == before and used_on_link(plan, "A", "E") == 1
        plan.add_entry(entry(1, "A", "B", again.working, again.protection))
        assert [e.demand.id for e in plan.entries] == [0, 1]

    def test_parse_refuses_a_repeated_demand_id(self, five_node):
        plan = AllocationPlan(five_node)
        plan.add_entry(d1_shared(five_node))
        line = plan.entries[0].serialize()
        with pytest.raises(PlanError, match="demand 0 is already in the plan"):
            AllocationPlan.parse(five_node, f"pxtmesh-plan 1\nenforce abc\n{line}\n{line}\n")

    def test_overlapping_protections_merge_into_one_pxt(self, five_node):
        plan = AllocationPlan(five_node)
        plan.add_entry(d1_shared(five_node))
        plan.add_entry(d2_shared())
        assert plan.validate() == []
        [pxt] = plan.pxts
        assert not pxt.closed
        assert pxt.walk.length == 4
        assert pxt.walk.nodes in (("C", "A", "E", "D", "B"), ("B", "D", "E", "A", "C"))

    def test_branch_point_rejected(self, five_node):
        # same two demands, but the first protection goes A-E-B: sharing A-E
        # then forces E to choose between E-B and E-D
        plan = AllocationPlan(five_node)
        plan.add_entry(entry(0, "A", "B", walk("A", AB, "B"), walk("A", AE, "E", EB, "B")))
        with pytest.raises(PlanError) as exc:
            plan.add_entry(d2_shared())
        v = exc.value.violations[0]
        assert v.condition == "d"
        assert "at E" in v.witness
        # failed add must not have mutated anything
        assert len(plan.entries) == 1
        assert plan.validate() == []

    def test_capacity_exhausted(self):
        g = Graph("ABC", [("A", "B", 1), ("B", "C", UNBOUNDED), ("A", "C", UNBOUNDED)])
        plan = AllocationPlan(g)
        plan.add_entry(entry(0, "A", "B", walk("A", AB, "B"),
                             walk("A", ("A", "C", 0), "C", ("C", "B", 0), "B")))
        with pytest.raises(PlanError, match="capacity"):
            plan.fresh_edge("A", "B")

    def test_condition_a_rejected(self, five_node):
        plan = AllocationPlan(five_node)
        bad = entry(0, "A", "B", walk("A", AB, "B"), walk("A", ("A", "B", 1), "B"))
        with pytest.raises(PlanError) as exc:
            plan.add_entry(bad)
        assert exc.value.violations[0].condition == "a"

    def test_condition_b_rejected(self, five_node):
        plan = AllocationPlan(five_node)
        plan.add_entry(entry(0, "A", "B", walk("A", AB, "B"), walk("A", AE, "E", EB, "B")))
        reuse = entry(1, "A", "B", walk("A", AB, "B"), walk("A", ("A", "E", 1), "E", ("E", "B", 1), "B"))
        with pytest.raises(PlanError) as exc:
            plan.add_entry(reuse)
        assert {v.condition for v in exc.value.violations} == {"b"}

    def test_condition_c_rejected(self, five_node):
        # two copies of the same demand must not share a protection edge
        plan = AllocationPlan(five_node)
        plan.add_entry(entry(0, "A", "B", walk("A", AB, "B"), walk("A", AE, "E", EB, "B")))
        copy = entry(1, "A", "B", walk("A", ("A", "B", 1), "B"), walk("A", AE, "E", EB, "B"))
        with pytest.raises(PlanError) as exc:
            plan.add_entry(copy)
        assert exc.value.violations[0].condition == "c"

    def test_protection_over_working_edges_without_rule_b(self):
        # rule d alone lets demand 1 protect over demand 0's working edges;
        # those edges have a role but no trail until then
        ring = Graph("ABCD", [(a, b, UNBOUNDED) for a, b in ("AB", "BC", "CD", "DA")])
        plan = AllocationPlan(ring, mode="link", enforce="d")
        abc = walk("A", AB, "B", ("B", "C", 0), "C")
        adc = walk("A", ("A", "D", 0), "D", ("D", "C", 0), "C")
        plan.add_entry(entry(0, "A", "C", abc, adc))
        plan.add_entry(entry(1, "A", "C", adc, abc))
        assert protection_users(plan, EdgeId(*AB)) == (1,)
        assert plan.crossconnect_partner(EdgeId(*AB), "B") == EdgeId("B", "C", 0)
        assert plan.pxts == plan.extract_pxts()
        assert [p.walk.nodes for p in plan.pxts] == [tuple("ABC"), tuple("ADC")]


def _probe_path(rng: random.Random, g: Graph) -> Walk:
    """A random simple path of at least one link, grown from a random node."""
    nodes = [rng.choice(g.sorted_nodes())]
    while True:
        options = [w for w in g.neighbors(nodes[-1]) if w not in nodes]
        if not options or (len(nodes) > 1 and rng.random() < 0.3):
            break
        nodes.append(rng.choice(options))
    if len(nodes) == 1:
        nodes.append(g.neighbors(nodes[0])[0])
    return Walk(tuple(nodes), tuple(EdgeId(a, b, 0) for a, b in zip(nodes, nodes[1:])))


def _verdicts(plan: AllocationPlan, working: Walk) -> dict[EdgeId, bool]:
    """`may_share` on each protection edge alone, for `working`."""
    mask = plan.conflicts(working)
    return {e: plan.may_share((e,), mask) for e in plan._blockers}


@pytest.mark.parametrize("mode", ["node", "link"])
@pytest.mark.parametrize("enforce", ["d", "bd", "abd", "abcd"])
def test_add_entry_is_atomic(monkeypatch, random_plan, enforce, mode):
    """Each add_entry either succeeds with the incremental PXTs equal to the
    from-scratch ones, the new entry in the oracle's conflicts exactly where
    its working meets the query and `may_share` answering as the oracle, or
    raises PlanError and changes nothing, `may_share`'s answers included."""
    real = AllocationPlan.add_entry
    rng = random.Random(0)
    outcomes = set()

    def checked(plan, new):
        text = plan.serialize()
        users = {e: protection_users(plan, e) for e in plan._blockers}
        blockers = dict(plan._blockers)
        over_working = any(plan.role(e) == "working" for e in new.protection.edges)
        queries = (new.working, _probe_path(rng, plan.graph))
        before = [conflicts_oracle(plan, w) for w in queries]
        shares = [_verdicts(plan, w) for w in queries]
        try:
            real(plan, new)
        except PlanError:
            outcomes.add("refused")
            assert plan.serialize() == text
            assert {e: protection_users(plan, e) for e in plan._blockers} == users
            assert [conflicts_oracle(plan, w) for w in queries] == before
            assert plan._blockers == blockers
            assert [_verdicts(plan, w) for w in queries] == shares
            raise
        outcomes.add("added")
        if over_working:
            outcomes.add("protection over an earlier working edge")
        assert plan.pxts == plan.extract_pxts()
        idx = len(plan.entries) - 1
        for w, hits in zip(queries, before):
            meets = not disjoint(new.working, w, plan.mode)
            assert conflicts_oracle(plan, w) == (hits | {idx} if meets else hits)
            assert _verdicts(plan, w) == {e: sharing_oracle(plan, e, w)
                                          for e in plan._blockers}

    monkeypatch.setattr(AllocationPlan, "add_entry", checked)
    for seed in range(12):
        random_plan(seed, mode, enforce)
    expect = {"added", "refused"}
    if "b" not in enforce:
        expect.add("protection over an earlier working edge")
    assert outcomes == expect


@pytest.mark.parametrize("mode", ["node", "link"])
def test_blockers_keyed_by_exactly_the_protection_edges(monkeypatch, random_plan, mode):
    """add_entry reads the blockers' keys as the edges that already have a
    trail: after every add_entry, taken or refused, they are the protection
    edges of the entries, under every RANDOM_ENFORCE set."""
    real = AllocationPlan.add_entry
    seen = collections.Counter()

    def checked(plan, new):
        try:
            real(plan, new)
            seen["taken"] += 1
        except PlanError:
            seen["refused"] += 1
            raise
        finally:
            assert set(plan._blockers) == {e for en in plan.entries for e in en.protection.edges}

    monkeypatch.setattr(AllocationPlan, "add_entry", checked)
    for enforce in RANDOM_ENFORCE:
        for seed in range(16):
            random_plan(seed, mode, enforce)
    assert seen["taken"] and seen["refused"]


def _scan_conflicts(plan: AllocationPlan, working: Walk) -> set[int]:
    return {i for i, e in enumerate(plan.entries) if not disjoint(e.working, working, plan.mode)}


def _edge_walk(e: EdgeId) -> Walk:
    return Walk((e.u, e.v), (e,))


@pytest.mark.parametrize("mode", ["node", "link"])
def test_conflicts_match_disjoint_scan(monkeypatch, random_plan, grid3x4, mode):
    """After every insertion, the oracle's conflicts name exactly the entries
    a disjoint() scan does, for the new working and a random probe path, and
    `may_share` admits exactly the edges that keep off that path and that
    none of those entries protects over."""
    real = AllocationPlan.add_entry
    rng = random.Random(1)
    checked_plans = {}  # id -> plan, holding each plan so no id is reused

    def checked(plan, new):
        real(plan, new)
        checked_plans[id(plan)] = plan
        for w in (new.working, _probe_path(rng, plan.graph)):
            hits = _scan_conflicts(plan, w)
            assert conflicts_oracle(plan, w) == hits
            mask = plan.conflicts(w)
            for e in plan._blockers:
                assert plan.may_share((e,), mask) == (
                    disjoint(_edge_walk(e), w, plan.mode)
                    and all(e not in plan.entries[i].protection.edges for i in hits))

    monkeypatch.setattr(AllocationPlan, "add_entry", checked)
    for enforce in RANDOM_ENFORCE:
        for seed in range(16):
            plan = random_plan(seed, mode, enforce)
            again = AllocationPlan.parse(plan.graph, plan.serialize())
            assert again.serialize() == plan.serialize()
            assert all(conflicts_oracle(again, e.working) == _scan_conflicts(plan, e.working)
                       for e in plan.entries)
            assert again._blockers == plan._blockers
    demands = generate(grid3x4, uniform(1, seed=0))
    shared = route_shared_path(grid3x4, demands, mode=mode)
    dedicated = route_1plus1(grid3x4, demands, mode=mode)
    assert (shared.mode, dedicated.mode) == ("link", mode)
    assert len(shared.entries) == len(dedicated.entries) == len(demands)
    assert len(checked_plans) == 2 * len(RANDOM_ENFORCE) * 16 + 2


def _sharing_case(plan: AllocationPlan, e: EdgeId, w: Walk) -> str:
    """Which part of the blockers decides `may_share((e,), conflicts(w))`:
    "own link" or "own node" when e itself meets w (by its link alone, or at
    w's interior), else "first user", "later user" or "end at interior" (node
    mode: only an end of w meets the interior of the workings that e
    protects) when a working e protects meets w, else "shared" or "unused"."""
    node_mode = plan.mode == "node"
    if not disjoint(_edge_walk(e), w, plan.mode):
        interior = set(w.nodes[1:-1]) if node_mode else set()
        return "own node" if interior & {e.u, e.v} else "own link"
    users = [plan.entries[i].working for i in protection_users(plan, e)]
    meets = [not disjoint(u, w, plan.mode) for u in users]
    if not any(meets):
        return "shared" if users else "unused"
    if node_mode and all(disjoint(u, w, "link") and set(w.nodes[1:-1]).isdisjoint(u.nodes)
                         for u, m in zip(users, meets) if m):
        return "end at interior"
    return "first user" if meets[0] else "later user"


@pytest.mark.parametrize("mode", ["node", "link"])
def test_may_share_matches_disjoint_scan(monkeypatch, random_plan, mode):
    """After every add_entry, taken or refused, `may_share` on each
    protection edge alone answers for the new working and a random probe
    path what a disjoint() scan of the edge and of the workings it protects
    does: on random plans under every RANDOM_ENFORCE set, and on routed
    plans over random graphs, half of them tight.  Every part of the
    blockers decides some answers, so dropping any of them shows."""
    real = AllocationPlan.add_entry
    rng = random.Random(2)
    seen = collections.Counter()

    def checked(plan, new):
        try:
            real(plan, new)
            seen["taken"] += 1
        except PlanError:
            seen["refused"] += 1
            raise
        finally:
            for w in (new.working, _probe_path(rng, plan.graph)):
                mask = plan.conflicts(w)
                for e in plan._blockers:
                    case = _sharing_case(plan, e, w)
                    seen[case] += 1
                    assert plan.may_share((e,), mask) == (case == "shared"), (e, w, case)

    monkeypatch.setattr(AllocationPlan, "add_entry", checked)
    for enforce in RANDOM_ENFORCE:
        for seed in range(16):
            random_plan(seed, mode, enforce)
    for seed in range(6):
        rng_g = random.Random(seed)
        g = random_connected_graph(rng_g, rng_g.randint(8, 30), tight=seed % 2 == 1)
        state = RouterState(g, mode=mode)
        for did in range(40):
            try:
                route_demand(state, Demand(did, *rng_g.sample(g.sorted_nodes(), 2)))
            except RoutingError:
                seen["unroutable"] += 1
    cases = ["taken", "refused", "unroutable", "own link", "first user", "later user", "shared"]
    if mode == "node":
        cases += ["own node", "end at interior"]
    assert min(seen[c] for c in cases) > 20, seen


class TestValidate:
    def test_empty_plan(self, five_node):
        assert AllocationPlan(five_node).validate() == []

    def test_branch_point_reported(self, five_node):
        plan = AllocationPlan(five_node, enforce="abc")
        plan.add_entry(entry(0, "A", "B", walk("A", AB, "B"), walk("A", AE, "E", EB, "B")))
        plan.add_entry(d2_shared())
        violations = plan.validate()
        assert [v.condition for v in violations] == ["d"]
        assert "at E" in violations[0].witness
        assert "A~E#0" in violations[0].witness
        assert plan.branch_points() == {"E"}

    def test_clean_shared_plan_has_no_branch_points(self, five_node):
        plan = AllocationPlan(five_node)
        plan.add_entry(d1_shared(five_node))
        plan.add_entry(d2_shared())
        assert plan.branch_points() == set()

    def test_condition_c_between_copies(self, five_node):
        plan = AllocationPlan(five_node, enforce="ab")
        plan.add_entry(entry(0, "A", "B", walk("A", AB, "B"), walk("A", AE, "E", EB, "B")))
        plan.add_entry(entry(1, "A", "B", walk("A", ("A", "B", 1), "B"),
                             walk("A", AE, "E", EB, "B")))
        conditions = {v.condition for v in plan.validate()}
        assert "c" in conditions


class TestPXTs:
    def test_closed_pxt(self):
        # triangle: three demands whose protections chain around the cycle
        g = Graph("ABC", [("A", "B", 2), ("B", "C", 2), ("A", "C", 2)])
        plan = AllocationPlan(g)
        plan.add_entry(entry(0, "A", "B", walk("A", ("A", "B", 0), "B"),
                             walk("A", ("A", "C", 1), "C", ("C", "B", 1), "B")))
        plan.add_entry(entry(1, "B", "C", walk("B", ("B", "C", 0), "C"),
                             walk("B", ("A", "B", 1), "A", ("A", "C", 1), "C")))
        plan.add_entry(entry(2, "A", "C", walk("A", ("A", "C", 0), "C"),
                             walk("A", ("A", "B", 1), "B", ("B", "C", 1), "C")))
        assert plan.validate() == []
        [pxt] = plan.pxts
        assert pxt.closed
        assert pxt.walk.length == 3
        assert pxt.walk.closed

    def test_closed_canonical_is_least_rotation(self):
        # a figure eight through A: the least node starts two rotations per direction
        nodes = ["C", "A", "D", "E", "A", "B", "C"]
        edges = [EdgeId(u, v, 0) for u, v in zip(nodes, nodes[1:])]
        rotations = [(tuple(wn[s:-1] + wn[:s + 1]), tuple(we[s:] + we[:s]))
                     for wn, we in ((nodes, edges), (nodes[::-1], edges[::-1]))
                     for s in range(len(edges))]
        pxt = _canonical_pxt(nodes, edges, True)
        assert (pxt.walk.nodes, pxt.walk.edges) == min(rotations)
        assert pxt.walk.nodes == ("A", "B", "C", "A", "D", "E", "A")

    def test_closed_canonical_memory_is_linear(self):
        # all 2 * 600 rotations of this ring held at once would take over 10 MB
        n = 600
        nodes = [f"n{(i * 7) % n:03d}" for i in range(n)] + ["n000"]
        edges = [EdgeId(u, v, 0) for u, v in zip(nodes, nodes[1:])]
        tracemalloc.start()
        try:
            pxt = _canonical_pxt(nodes, edges, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pxt.walk.nodes[0] == "n000"
        assert peak < 1_000_000

    def test_extract_matches_incremental(self, five_node):
        plan = AllocationPlan(five_node)
        plan.add_entry(d1_shared(five_node))
        assert plan.extract_pxts() == plan.pxts
        plan.add_entry(d2_shared())
        assert plan.extract_pxts() == plan.pxts

    def test_extraction_partitions_protection_edges(self, five_node):
        plan = AllocationPlan(five_node)
        plan.add_entry(d1_shared(five_node))
        plan.add_entry(d2_shared())
        pxts = plan.extract_pxts()
        all_edges = [e for p in pxts for e in p.walk.edges]
        assert len(all_edges) == len(set(all_edges))
        expected = {e for en in plan.entries for e in en.protection.edges}
        assert set(all_edges) == expected

    def test_extract_on_invalid_plan_raises(self, five_node):
        plan = AllocationPlan(five_node, enforce="abc")
        plan.add_entry(entry(0, "A", "B", walk("A", AB, "B"), walk("A", AE, "E", EB, "B")))
        plan.add_entry(d2_shared())
        with pytest.raises(PlanError):
            plan.extract_pxts()


@given(seq=st.lists(st.sampled_from("abcde"), min_size=1, max_size=12), closed=st.booleans())
@settings(max_examples=300, deadline=None)
def test_repeat_horizon_marks_exactly_the_simple_cuts(seq, closed):
    # open: every cut a..b; closed, the ring seq: every cut a -> b around it,
    # read as a..b + k when it wraps (b <= a, the whole ring when b == a)
    seq, k = tuple(seq), len(seq)
    horizon = _repeat_horizon(seq, closed)
    assert len(horizon) == (2 * k if closed else k)
    assert repeat_horizon_oracle(seq, closed) in (None, horizon)
    for a, b in itertools.product(range(k), repeat=2):
        if a < b or (a == b and not closed):
            cut, end = seq[a:b + 1], b
        elif closed:
            cut, end = seq[a:] + seq[:b + 1], b + k
        else:
            continue
        assert (end < horizon[a]) == (len(set(cut)) == len(cut)), (a, b)


class TestBandwidth:
    def test_shared_edges_counted_once(self, five_node):
        plan = AllocationPlan(five_node)
        plan.add_entry(d1_shared(five_node))
        plan.add_entry(d2_shared())
        assert plan.bandwidth() == (2, 4, 6)

    def test_empty(self, five_node):
        assert AllocationPlan(five_node).bandwidth() == (0, 0, 0)

    def test_no_sharing_sums_lengths(self, five_node):
        plan = AllocationPlan(five_node)
        plan.add_entry(entry(0, "A", "B", walk("A", AB, "B"), walk("A", AE, "E", EB, "B")))
        plan.add_entry(entry(1, "C", "D", walk("C", CD, "D"),
                             walk("C", CA, "A", ("A", "E", 1), "E", ("E", "D", 0), "D")))
        w, p, t = plan.bandwidth()
        assert (w, p, t) == (2, 5, 7)


class TestSerialization:
    def test_round_trip(self, five_node):
        plan = AllocationPlan(five_node)
        plan.add_entry(d1_shared(five_node))
        plan.add_entry(d2_shared())
        text = plan.serialize()
        again = AllocationPlan.parse(five_node, text)
        assert again.serialize() == text
        assert again.validate() == plan.validate() == []
        assert again.bandwidth() == plan.bandwidth()
        assert again.extract_pxts() == plan.extract_pxts()

    def test_cap_and_grow_preserves_existing_entries(self, five_node):
        plan = AllocationPlan(five_node)
        plan.add_entry(d1_shared(five_node))
        before = [e.serialize() for e in plan.entries]
        plan.add_entry(d2_shared())
        after = [e.serialize() for e in plan.entries[:1]]
        assert before == after

    def test_parse_rejects_garbage(self, five_node):
        with pytest.raises(PlanError):
            AllocationPlan.parse(five_node, "not a plan\n")
        for body, lineno, match in MALFORMED_PLAN_LINES:
            with pytest.raises(PlanError, match=f"line {lineno}: .*{match}"):
                AllocationPlan.parse(five_node, f"pxtmesh-plan 1\n{body}\n")

    @pytest.mark.parametrize("header", ["pxtmesh-plan 2", "pxtmesh-planX", "pxtmesh-plan",
                                        "pxtmesh-plan 1 1", "pxtmesh-plan 10", "mode node", ""])
    def test_parse_refuses_any_other_header(self, five_node, header):
        body = f"mode node\nenforce abcd\n{ENTRY0}\n"
        with pytest.raises(PlanError, match="^line 1: expected 'pxtmesh-plan 1'"):
            AllocationPlan.parse(five_node, f"{header}\n{body}")
        assert len(AllocationPlan.parse(five_node, f" pxtmesh-plan 1 \n{body}").entries) == 1

    def test_parse_names_the_line_of_a_refused_entry(self, five_node):
        """An entry add_entry refuses is reported with its line, and the
        error keeps add_entry's violations."""
        again = ENTRY0.replace("entry 0", "entry 1")
        text = f"pxtmesh-plan 1\nenforce abcd\n# two copies of one route\n{ENTRY0}\n{again}\n"
        with pytest.raises(PlanError) as exc:
            AllocationPlan.parse(five_node, text)
        assert str(exc.value) == (
            "line 5: condition b (demands 1): working edge A~B#0 already working; "
            "condition c (demands 1,0): shared protection edge A~E#0 but conflicting workings")
        assert exc.value.violations == [
            PlanViolation("b", (1,), "working edge A~B#0 already working"),
            PlanViolation("c", (1, 0), "shared protection edge A~E#0 but conflicting workings")]

    def test_error_from_message_prints_the_message(self):
        err = PlanError("x")
        assert str(err) == "x"
        assert err.violations == [PlanViolation("structure", (), "x")]

    def test_parse_bare_enforce_is_no_rules(self, five_node):
        plan = AllocationPlan(five_node, enforce="")
        plan.add_entry(d1_shared(five_node))
        again = AllocationPlan.parse(five_node, plan.serialize())
        assert again.enforce == frozenset()
        assert again.serialize() == plan.serialize()

    def test_serialize_mentions_crossconnects(self, five_node):
        plan = AllocationPlan(five_node)
        plan.add_entry(d1_shared(five_node))
        text = plan.serialize()
        assert "xc E A~E#0 D~E#0" in text
        assert any(l.startswith("pxt open") for l in text.splitlines())


class TestFreshEdges:
    def test_ordinals_increase(self, five_node):
        plan = AllocationPlan(five_node)
        assert plan.fresh_edge("A", "B") == EdgeId("A", "B", 0)
        plan.add_entry(entry(0, "A", "B", walk("A", AB, "B"), walk("A", AE, "E", EB, "B")))
        assert plan.fresh_edge("A", "B") == EdgeId("A", "B", 1)
        assert plan.fresh_edge("A", "E") == EdgeId("A", "E", 1)
        assert plan.fresh_edge("C", "D") == EdgeId("C", "D", 0)

    def test_unknown_link_raises(self, five_node):
        plan = AllocationPlan(five_node)
        with pytest.raises(GraphError, match="no link"):
            plan.has_free_edge("C", "E")
        with pytest.raises(GraphError, match="no link"):
            plan.has_free_edge("A", "Z")

    # fresh_edge against the scan from 0 it replaced
    def assert_fresh_edge_agrees(self, plan, u, v):
        try:
            expect = fresh_edge_from_zero(plan, u, v)
        except PlanError:
            with pytest.raises(PlanError, match="capacity exhausted"):
                plan.fresh_edge(u, v)
            return None
        assert plan.fresh_edge(u, v) == expect
        return expect

    @pytest.mark.parametrize("mode", ["node", "link"])
    def test_matches_scan_from_zero_over_random_entries(self, random_plan, mode):
        """Replays random plans, whose ordinals leave gaps and fill links to
        capacity, asking fresh_edge on random links before every entry."""
        full = gaps = 0
        for seed in range(16):
            source = random_plan(seed, mode, "")
            rng = random.Random(seed)
            links = source.graph.links()
            plan = AllocationPlan(source.graph, mode=mode, enforce="")
            for en in source.entries:
                for u, v in rng.sample(links, min(5, len(links))):
                    got = self.assert_fresh_edge_agrees(plan, *rng.sample((u, v), 2))
                    full += got is None
                    used = plan._used_ordinals.get(link_key(u, v), ())
                    gaps += got is not None and any(k > got.index for k in used)
                plan.add_entry(en)
        assert full and gaps

    def test_parsed_gaps_are_filled_in_order(self, five_node):
        plan = AllocationPlan(five_node)
        plan.add_entry(entry(0, "A", "B", walk("A", ("A", "B", 2), "B"),
                             walk("A", ("A", "E", 0), "E", ("E", "B", 3), "B")))
        plan.add_entry(entry(1, "A", "B", walk("A", ("A", "B", 0), "B"),
                             walk("A", CA, "C", ("C", "D", 1), "D", DB, "B")))
        parsed = AllocationPlan.parse(five_node, plan.serialize())
        assert self.assert_fresh_edge_agrees(parsed, "A", "B") == EdgeId("A", "B", 1)
        assert self.assert_fresh_edge_agrees(parsed, "E", "B") == EdgeId("B", "E", 0)
        parsed.add_entry(entry(2, "A", "B", walk("A", ("A", "B", 1), "B"),
                               walk("A", ("A", "E", 1), "E", ("E", "B", 0), "B")))
        assert self.assert_fresh_edge_agrees(parsed, "A", "B") == EdgeId("A", "B", 3)
        assert self.assert_fresh_edge_agrees(parsed, "B", "E") == EdgeId("B", "E", 1)
        assert self.assert_fresh_edge_agrees(parsed, "A", "E") == EdgeId("A", "E", 2)

    def test_uncommitted_edge_is_returned_again(self, five_node):
        plan = AllocationPlan(five_node)
        first = plan.fresh_edge("C", "D")
        assert self.assert_fresh_edge_agrees(plan, "D", "C") == first == EdgeId("C", "D", 0)
        plan.add_entry(entry(0, "C", "D", walk("C", first, "D"),
                             walk("C", CA, "A", ("A", "E", 0), "E", ED, "D")))
        assert self.assert_fresh_edge_agrees(plan, "C", "D") == EdgeId("C", "D", 1)

    def test_bounded_link_filled_to_capacity(self):
        g = Graph("ABC", [("A", "B", 2), ("B", "C", UNBOUNDED), ("A", "C", UNBOUNDED)])
        plan = AllocationPlan(g)
        for did in range(2):
            e = self.assert_fresh_edge_agrees(plan, "A", "B")
            plan.add_entry(entry(did, "A", "B", walk("A", e, "B"),
                                 walk("A", ("A", "C", did), "C", ("C", "B", did), "B")))
        assert self.assert_fresh_edge_agrees(plan, "A", "B") is None
        assert self.assert_fresh_edge_agrees(plan, "A", "C") == EdgeId("A", "C", 2)


def fresh_edge_from_zero(plan, u, v):
    """fresh_edge before its low-water mark: the smallest unused ordinal,
    scanned for from 0 on every call."""
    if not plan.has_free_edge(u, v):
        raise PlanError(f"link {u}-{v} capacity exhausted")
    used = plan._used_ordinals.get(link_key(u, v), set())
    k = 0
    while k in used:
        k += 1
    return plan.graph.edge(u, v, k)


# -- validate() against its pairwise oracle -------------------------------------


def _oracle_disjoint(w1, w2, mode):
    links = not ({e.link for e in w1.edges} & {e.link for e in w2.edges})
    if mode == "link" or not links:
        return links
    return not (set(w1.nodes[1:-1]) & set(w2.nodes) or set(w2.nodes[1:-1]) & set(w1.nodes))


def oracle_validate(plan):
    """validate() as it was before the indexed rule-c check: every pair of
    users of every protection edge is compared, and every edge is sorted.
    Protection edges are taken in path order, so the result is reproducible."""
    out = []
    for entry in plan.entries:
        out.extend(plan._structural_violations(entry))
        if not _oracle_disjoint(entry.working, entry.protection, plan.mode):
            out.append(PlanViolation(
                "a", (entry.demand.id,),
                f"working and protection are not {plan.mode}-disjoint"))
    usage = {}
    for entry in plan.entries:
        for e in entry.working.edges:
            usage.setdefault(e, []).append((entry.demand.id, "working"))
        for e in entry.protection.edges:
            usage.setdefault(e, []).append((entry.demand.id, "protection"))
    for e, users in sorted(usage.items(), key=lambda kv: str(kv[0])):
        w_users = {d for d, kind in users if kind == "working"}
        others = {d for d, _ in users} - w_users
        if w_users and (others or len(w_users) > 1):
            ids = tuple(sorted({d for d, _ in users}))
            out.append(PlanViolation("b", ids, f"working edge {e} shared"))
    shared_flagged = set()
    users_by_edge = {}
    for i, entry in enumerate(plan.entries):
        for e in dict.fromkeys(entry.protection.edges):
            users_by_edge.setdefault(e, []).append(i)
    for e, idxs in users_by_edge.items():
        for ai in range(len(idxs)):
            for bi in range(ai + 1, len(idxs)):
                e1, e2 = plan.entries[idxs[ai]], plan.entries[idxs[bi]]
                pair = (e1.demand.id, e2.demand.id)
                if pair in shared_flagged:
                    continue
                if not _oracle_disjoint(e1.working, e2.working, plan.mode):
                    shared_flagged.add(pair)
                    out.append(PlanViolation(
                        "c", pair, f"shared protection edge {e} but conflicting workings"))
    pairs = {}
    for entry in plan.entries:
        p = entry.protection
        for i in range(len(p.edges) - 1):
            e, f, x = p.edges[i], p.edges[i + 1], p.nodes[i + 1]
            pairs.setdefault((e, x), set()).add(f)
            pairs.setdefault((f, x), set()).add(e)
    for (e, x), partners in sorted(pairs.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        if len(partners) > 1:
            ids = set()
            for entry in plan.entries:
                p = entry.protection
                for i in range(len(p.edges) - 1):
                    if p.nodes[i + 1] == x and e in (p.edges[i], p.edges[i + 1]):
                        ids.add(entry.demand.id)
            names = ", ".join(sorted(str(p) for p in partners))
            out.append(PlanViolation("d", tuple(sorted(ids)),
                                     f"branch point at {x}: {e} cross-connected to {names}"))
    return out


@pytest.mark.parametrize("mode", ["node", "link"])
@pytest.mark.parametrize("seed", range(16))
def test_validate_matches_pairwise_oracle(random_plan, seed, mode):
    plan = random_plan(seed, mode)
    replay = AllocationPlan(plan.graph, mode=mode, enforce=plan.enforce)
    for entry in plan.entries:
        replay.add_entry(entry)
        assert replay.validate() == oracle_validate(replay)
    d_violations = [v for v in oracle_validate(plan) if v.condition == "d"]
    if d_violations:
        with pytest.raises(PlanError) as exc:
            plan.extract_pxts()
        assert exc.value.violations == d_violations
    elif "d" in plan.enforce:
        assert plan.extract_pxts() == plan.pxts


def _broken(rng, entry, did):
    """A copy of `entry`, as demand `did`, with one route broken the way
    add_entry would refuse: an unknown node, ordinal 7 (past every capacity
    the random graphs give a link), a working or protection route that is
    not a path, a route one edge short of its end, or a protection that
    repeats an edge."""
    d, w, p = entry.demand, entry.working, entry.protection

    def detour(walk, ordinal):
        # back over the last link on `ordinal` and forth again on the last edge
        e = walk.edges[-1]
        a, b = walk.nodes[-2:]
        return Walk(walk.nodes + (a, b), walk.edges + (EdgeId(e.u, e.v, ordinal), e))

    kind = rng.randrange(6)
    if kind == 0:
        w = Walk((d.u, "zz", d.v), (EdgeId(d.u, "zz", 0), EdgeId("zz", d.v, 0)))
    elif kind == 1:
        e = w.edges[0]
        w = Walk(w.nodes, (EdgeId(e.u, e.v, 7),) + w.edges[1:])
    elif kind == 2:
        w = detour(w, w.edges[-1].index + 1)
    elif kind == 3:
        p = detour(p, p.edges[-1].index + 1)
    elif kind == 4:
        w, p = (w, Walk(p.nodes[:-1], p.edges[:-1])) if rng.random() < 0.5 else (
            Walk(w.nodes[:-1], w.edges[:-1]), p)
    else:
        p = detour(p, p.edges[-1].index)
    return PlanEntry(Demand(did, d.u, d.v), w, p)


@pytest.mark.parametrize("mode", ["node", "link"])
def test_validate_matches_oracle_past_add_entry(random_plan, mode):
    """Entries appended to `entries` behind add_entry's back reach the
    structural re-check, which random plans grown by add_entry never do.
    After each one validate() still equals the oracle, in content and order."""
    seen = set()
    for seed in range(16):
        plan = random_plan(seed, mode)
        rng = random.Random(seed)
        replay = AllocationPlan(plan.graph, mode=mode, enforce=plan.enforce)
        for i, entry in enumerate(plan.entries):
            replay.entries.append(entry)
            if rng.random() < 0.4:
                replay.entries.append(_broken(rng, entry, rng.choice((entry.demand.id, 100 + i))))
            got = replay.validate()
            assert got == oracle_validate(replay)
            seen.update(v.witness for v in got if v.condition == "structure")
    witnesses = "\n".join(seen)
    for problem in ("path invalid: unknown node zz", "exceeds capacity", "does not connect",
                    "working route is not a path", "protection route is not a path"):
        assert problem in witnesses


@pytest.mark.parametrize("mode", ["node", "link"])
def test_validate_without_rule_d_leaves_out_only_rule_d(random_plan, mode):
    """validate(rule_d=False) is validate() with the rule-d violations left
    out, in the same order: asked before validate() as entries are
    appended, so that it is the call that folds the cache, and asked of a
    never-checked copy, whose full validate() then agrees too.  The plans
    are grown under every RANDOM_ENFORCE set, with broken entries appended
    behind add_entry's back, and show structure and every rule."""
    conditions = set()
    for enforce in RANDOM_ENFORCE:
        for seed in range(8):
            rng = random.Random(seed)
            routed = random_plan(seed, mode, enforce)
            plan = AllocationPlan(routed.graph, mode=mode, enforce=enforce)
            for i, entry in enumerate(routed.entries):
                plan.entries.append(entry)
                if rng.random() < 0.3:
                    plan.entries.append(_broken(rng, entry, rng.choice((entry.demand.id, 100 + i))))
                rule_d = rng.random() < 0.5
                got = plan.validate(rule_d=rule_d)
                full = plan.validate()
                assert got == [v for v in full if rule_d or v.condition != "d"]
                conditions.update(v.condition for v in full)
            fresh = AllocationPlan(plan.graph, mode=mode, enforce=enforce)
            fresh.entries = list(plan.entries)
            assert fresh.validate(rule_d=False) == [v for v in full if v.condition != "d"]
            assert fresh.validate() == full
    assert conditions == {"structure", "a", "b", "c", "d"}


def test_validate_matches_oracle_on_routed_plans(k66):
    """Every prefix of a routed k66 uniform PXT plan, about ten users to a
    protection edge, and every tenth of the node-disjoint shared-path routes
    read as a node-mode plan, which breaks rules c and d."""
    demands = generate(k66, uniform())
    pxt = route_with_scheme(k66, "pxt", demands)
    shared = route_shared_path(k66, demands, mode="node")
    users = [len(protection_users(pxt, e)) for en in pxt.entries for e in en.protection.edges]
    assert max(users) >= 9
    for routed, mode, step in ((pxt, pxt.mode, 1), (shared, "node", 10)):
        plan = AllocationPlan(k66, mode=mode, enforce="")
        for i, entry in enumerate(routed.entries, start=1):
            plan.entries.append(entry)
            if i % step == 0 or i == len(routed.entries):
                assert plan.validate() == oracle_validate(plan)
        if routed is pxt:
            assert plan.validate() == []
    assert {v.condition for v in plan.validate()} == {"c", "d"}


class _Untouchable:
    """Stands in for state that add_entry keeps: any use of it raises."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("validate() read state that add_entry keeps")

    __getattr__ = __getitem__ = __contains__ = __iter__ = __len__ = __bool__ = _refuse
    __eq__ = __hash__ = _refuse


INCREMENTAL_STATE = ("_roles", "_used_ordinals", "_unused_from", "_free", "_blockers",
                     "_partner", "_trails", "_trail_ends", "_ranked")


@pytest.mark.parametrize("mode", ["node", "link"])
def test_validate_reads_nothing_add_entry_keeps(random_plan, mode):
    """validate() is an oracle for the incremental state: with all of that
    state replaced by objects that raise when used, it returns the same."""
    broken = 0
    for seed in range(16):
        plan = random_plan(seed, mode, "" if seed % 2 else None)
        expected = plan.validate()
        blind = copy.deepcopy(plan)
        for name in INCREMENTAL_STATE:
            setattr(blind, name, _Untouchable())
        assert blind.validate() == expected
        with pytest.raises(AssertionError, match="add_entry keeps"):
            first = plan.entries[0]
            blind.may_share(first.protection.edges, blind.conflicts(first.working))
        broken += bool(expected)
    assert broken >= 8


# -- the checks' cache against plans never checked --------------------------------


def _extraction(extract):
    """What extract_pxts() gives: the PXTs, or the type and text of the error."""
    try:
        return extract()
    except (PlanError, GraphError) as exc:
        return type(exc), str(exc)


def _assert_checks_agree(plan, parse=True):
    """validate() and branch_points() of `plan`, which may have been checked
    before, equal those of a never-checked plan holding the same entries, of
    a never-checked parse(serialize()) when add_entry took every entry, and
    of the oracles; so does what extract_pxts() gives, asked first, against
    a second never-checked copy and its oracle.  Returns validate()'s
    violations."""
    pxts = _extraction(plan.extract_pxts)
    got = (plan.validate(), plan.branch_points())
    fresh = AllocationPlan(plan.graph, mode=plan.mode, enforce=plan.enforce)
    fresh.entries = list(plan.entries)
    assert got == (fresh.validate(), fresh.branch_points())
    if parse:
        parsed = AllocationPlan.parse(plan.graph, plan.serialize())
        assert got == (parsed.validate(), parsed.branch_points())
    assert got[0] == oracle_validate(plan)
    assert got[1] == {x for (_, x), partners in _oracle_pairs(plan).items() if len(partners) > 1}
    unchecked = AllocationPlan(plan.graph, mode=plan.mode, enforce=plan.enforce)
    unchecked.entries = list(plan.entries)
    assert pxts == _extraction(unchecked.extract_pxts) == _extraction(
        lambda: _oracle_extract_pxts(plan))
    return got[0]


@pytest.mark.parametrize("mode", ["node", "link"])
def test_checked_plan_matches_never_checked_copies(random_plan, mode):
    """validate() keeps each entry's own verdict from call to call.  Checked
    after every insertion, after entries are appended and replaced behind
    add_entry's back, and as a deep copy, a plan answers as one never
    checked does, under every RANDOM_ENFORCE set."""
    witnesses, conditions = set(), set()
    for enforce in RANDOM_ENFORCE:
        for seed in range(8):
            rng = random.Random(seed)
            routed = random_plan(seed, mode, enforce)
            plan = AllocationPlan(routed.graph, mode=mode, enforce=enforce)
            for entry in routed.entries:
                plan.add_entry(entry)
                _assert_checks_agree(plan)
            for i, entry in enumerate(routed.entries[:4]):
                plan.entries.append(_broken(rng, entry, rng.choice((entry.demand.id, 100 + i))))
                witnesses.update(v.witness for v in _assert_checks_agree(plan, parse=False))
            j = rng.randrange(len(routed.entries))
            plan.entries[j] = _broken(rng, routed.entries[j], routed.entries[j].demand.id)
            _assert_checks_agree(plan, parse=False)
            plan.entries[j] = copy.copy(routed.entries[j])  # equal, but not the checked object
            _assert_checks_agree(plan, parse=False)
            clone = copy.deepcopy(plan)
            _assert_checks_agree(clone, parse=False)
            clone.entries[j] = _broken(rng, routed.entries[j], routed.entries[j].demand.id)
            del clone.entries[-2:]
            _assert_checks_agree(clone, parse=False)
            conditions.update(v.condition for v in _assert_checks_agree(plan, parse=False))
    for problem in ("path invalid: unknown node zz", "exceeds capacity", "does not connect",
                    "route is not a path", "-disjoint"):
        assert problem in "\n".join(witnesses)
    assert set("abcd") <= conditions


def test_each_entry_is_screened_once(monkeypatch, random_plan):
    """Counting, not timing: repeated validate() and branch_points() calls on
    an unchanged plan screen each entry once, and the cache holds exactly the
    plan's entries.  An entry replaced in `entries`, or entries cut off, leave
    no prefix to trust, so every entry is screened once more."""
    screened = []
    real = pxtmesh.plan._screen

    def counting(entry, node_mode):
        screened.append(entry)
        return real(entry, node_mode)

    monkeypatch.setattr(pxtmesh.plan, "_screen", counting)
    routed = random_plan(3, "node", "")
    plan = AllocationPlan(routed.graph, mode="node", enforce="")
    for entry in routed.entries:
        plan.add_entry(entry)
        plan.validate()
        plan.branch_points()
        assert len(plan._tallies.seen) == len(plan.entries)
    for _ in range(3):
        plan.validate()
        plan.branch_points()
    assert screened == routed.entries and plan.validate()
    plan.entries[2] = copy.copy(plan.entries[2])
    plan.validate()
    plan.validate()
    replaced = list(plan.entries)
    assert screened == routed.entries + replaced
    del plan.entries[-3:]
    plan.validate()
    assert len(plan._tallies.seen) == len(plan.entries) == len(routed.entries) - 3
    assert screened == routed.entries + replaced + replaced[:-3]


# -- the cross-entry tallies against plans never checked --------------------------

TALLY_STEPS = ("add", "broken", "replace", "regrow", "new list", "deepcopy")


@pytest.mark.parametrize("enforce", RANDOM_ENFORCE)
@pytest.mark.parametrize("mode", ["node", "link"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 63), start=st.integers(0, 24),
       steps=st.lists(st.tuples(st.sampled_from(TALLY_STEPS), st.integers(0, 2 ** 16)),
                      min_size=1, max_size=8))
def test_tallies_follow_any_edit_of_entries(random_plan, mode, enforce, seed, start, steps):
    """The tallies of rules b-d are kept for a prefix of the entries.  After
    any interleaving of add_entry, entries appended, replaced (also by an
    equal copy) or cut off and regrown behind its back, `entries` swapped
    for a new list, and deep copies, a plan checked after every step answers
    as one never checked does, and as the oracles."""
    routed = random_plan(seed, mode, enforce)
    pool = random_plan(seed, mode, "").entries  # every entry routed tried, rules or not
    assume(routed.entries)
    plan = AllocationPlan(routed.graph, mode=mode, enforce=enforce)
    for entry in routed.entries[:start]:
        plan.add_entry(entry)
    _assert_checks_agree(plan, parse=False)
    unused = iter(routed.entries[start:])
    for k, (step, param) in enumerate(steps):
        rng = random.Random(param)
        entries = plan.entries

        def other():
            # an entry of the pool, intact, as an equal copy or broken
            base = rng.choice(pool)
            return rng.choice((base, copy.copy(base),
                               _broken(rng, base, rng.choice((base.demand.id, 100 + k)))))

        if step == "add":
            try:
                plan.add_entry(next(unused, None) or other())
            except PlanError:
                pass
        elif step == "broken":
            entries.append(_broken(rng, rng.choice(pool), 100 + k))
        elif step == "replace" and entries:
            j = rng.randrange(len(entries))
            entries[j] = rng.choice((copy.copy(entries[j]), other()))
        elif step == "regrow" and entries:
            del entries[-rng.randint(1, len(entries)):]
            entries.extend(other() for _ in range(rng.randint(0, 4)))
        elif step == "new list":
            plan.entries = rng.choice((list(entries), rng.sample(entries, len(entries))))
        elif step == "deepcopy":
            plan = copy.deepcopy(plan)
        _assert_checks_agree(plan, parse=False)


def test_tallies_fold_each_entry_once(monkeypatch, random_plan):
    """Counting, not timing: a plan replayed and checked at every prefix
    folds each entry once into each tally, a warm call on an unchanged plan
    folds none, and one broken prefix rebuilds the tallies once."""
    folded, built = collections.Counter(), []
    fold_joins, fold_sharing, init = _Tallies.fold_joins, _Tallies.fold_sharing, _Tallies.__init__

    def counting_joins(tallies, entries):
        folded["joins"] += len(entries)
        fold_joins(tallies, entries)

    def counting_sharing(tallies, node_mode):
        folded["sharing"] += len(tallies.seen) - tallies.sharing
        fold_sharing(tallies, node_mode)

    def counting_init(tallies):
        built.append(tallies)
        init(tallies)

    routed = random_plan(3, "node", "")
    monkeypatch.setattr(_Tallies, "fold_joins", counting_joins)
    monkeypatch.setattr(_Tallies, "fold_sharing", counting_sharing)
    monkeypatch.setattr(_Tallies, "__init__", counting_init)
    n = len(routed.entries)
    plan = AllocationPlan(routed.graph, mode="node", enforce="")
    for entry in routed.entries:
        plan.add_entry(entry)
        plan.validate()
        plan.branch_points()
    assert folded == {"joins": n, "sharing": n} and len(built) == 1
    for _ in range(3):
        plan.validate()
        plan.branch_points()
    assert folded == {"joins": n, "sharing": n} and plan.validate()
    plan.entries[2] = copy.copy(plan.entries[2])
    for _ in range(3):
        plan.validate()
        plan.branch_points()
    assert folded == {"joins": 2 * n, "sharing": 2 * n} and len(built) == 2


def test_extract_pxts_folds_each_entry_once(monkeypatch, random_plan):
    """Counting, not timing: extract_pxts() on a never-checked plan folds
    each entry into rule d once, and a second call, or one after validate()
    or branch_points(), folds none."""
    folded = []
    fold_joins = _Tallies.fold_joins

    def counting_joins(tallies, entries):
        folded.extend(entries)
        fold_joins(tallies, entries)

    routed = random_plan(3, "node", "abcd")
    assert routed.entries and routed.pxts
    monkeypatch.setattr(_Tallies, "fold_joins", counting_joins)
    for first in ("extract_pxts", "validate", "branch_points"):
        plan = AllocationPlan.parse(routed.graph, routed.serialize())
        folded.clear()
        getattr(plan, first)()
        assert folded == plan.entries, first
        assert plan.extract_pxts() == plan.extract_pxts() == routed.pxts
        assert folded == plan.entries, first


# -- add_entry's screen and one-pass writes against the add_entry they replaced --

ENTRY_KINDS = ("next", "copy", "renumbered", "broken", "unknown link", "at capacity")


def _offered(rng, graph, pool, routed, kind, did):
    """An entry to offer add_entry: the next entry of `routed`, an entry of
    `pool` under its own id or as demand `did`, one _broken makes, or one
    with a route over a link the graph lacks or an ordinal equal to its
    link's capacity.  Where a kind finds nothing to build on (`routed` is
    used up, no such link or no bounded link), a pool entry as `did`."""
    base = rng.choice(pool)
    d, w, p = base.demand, base.working, base.protection
    if kind == "next":
        nxt = next(routed, None)
        if nxt is not None:
            return nxt
    elif kind == "copy":
        return base
    elif kind == "broken":
        return _broken(rng, base, rng.choice((d.id, did)))
    elif kind == "unknown link":
        far = [x for x in graph.sorted_nodes() if x not in (d.u, d.v) + graph.neighbors(d.u)]
        if far:
            x = rng.choice(far)
            route = Walk((d.u, x, d.v), (EdgeId(d.u, x, 0), EdgeId(x, d.v, 0)))
            w, p = (route, p) if rng.random() < 0.5 else (w, route)
    elif kind == "at capacity":
        walks = [w, p]
        i = rng.randrange(2)
        bounded = [j for j, e in enumerate(walks[i].edges) if graph.capacity(e.u, e.v)]
        if bounded:
            j = rng.choice(bounded)
            e = walks[i].edges[j]
            edges = list(walks[i].edges)
            edges[j] = EdgeId(e.u, e.v, graph.capacity(e.u, e.v))
            walks[i] = Walk(walks[i].nodes, tuple(edges))
            w, p = walks
    return PlanEntry(Demand(did, d.u, d.v), w, p)


def _frozen(value):
    """A comparable copy of a plan's incremental state: dicts as their
    items in order, sets sorted, a trail as (nodes, edges, closed)."""
    if isinstance(value, _Trail):
        return tuple(value.nodes), tuple(value.edges), value.closed
    if isinstance(value, dict):
        return [(k, _frozen(v)) for k, v in value.items()]
    if isinstance(value, (set, frozenset)):
        return sorted((_frozen(v) for v in value), key=repr)
    if isinstance(value, list):
        return [_frozen(v) for v in value]
    return value


# rule c without rule a is where add_entry's screen may be cautious
@pytest.mark.parametrize("enforce", RANDOM_ENFORCE + ("c",))
@pytest.mark.parametrize("mode", ["node", "link"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 63),
       picks=st.lists(st.tuples(st.sampled_from(ENTRY_KINDS), st.integers(0, 2 ** 16)),
                      min_size=1, max_size=40))
def test_add_entry_matches_the_unscreened_reference(random_plan, mode, enforce, seed, picks):
    """add_entry against reference_add_entry, which checks every entry in
    full: over any sequence of entries offered to both, each is taken by
    both, or refused by both with the same message and violations, and the
    two plans agree on serialize(), pxts and every attribute of
    INCREMENTAL_STATE, in content and order.  The describing helpers run
    for an entry add_entry takes only where its screen may be cautious:
    rule c enforced, rule a not, and the entry's own walks not disjoint."""
    unruled = random_plan(seed, mode, "")  # takes every entry routed, whatever the rules
    pool, graph = unruled.entries, unruled.graph
    routed = iter(pool)
    plan = AllocationPlan(graph, mode=mode, enforce=enforce)
    reference = AllocationPlan(graph, mode=mode, enforce=enforce)
    described = []
    for name in ("_structural_violations", "_entry_violations"):
        real = getattr(plan, name)
        setattr(plan, name, lambda entry, real=real: described.append(entry) or real(entry))
    for k, (kind, param) in enumerate(picks):
        new = _offered(random.Random(param), graph, pool, routed, kind, 100 + k)
        del described[:]
        outcomes = []
        for target, add in ((plan, AllocationPlan.add_entry), (reference, reference_add_entry)):
            try:
                add(target, new)
                outcomes.append("taken")
            except PlanError as exc:
                outcomes.append((str(exc), exc.violations))
        assert outcomes[0] == outcomes[1]
        if outcomes[0] == "taken" and described:
            assert "c" in enforce and "a" not in enforce
            assert not disjoint(new.working, new.protection, mode)
        assert plan.serialize() == reference.serialize()
        assert [_frozen(getattr(plan, name)) for name in INCREMENTAL_STATE] == \
            [_frozen(getattr(reference, name)) for name in INCREMENTAL_STATE]
        assert plan.pxts == reference.pxts


def test_routed_entries_are_never_described(monkeypatch):
    """Counting, not timing: routing the seed-0 PXT and baseline plans of
    the five fixtures, and parsing each one back, commits every entry on
    add_entry's screen alone, without one call to the helpers that describe
    a refusal; a refused entry calls each of them at most once."""
    calls = collections.Counter()
    for name in ("_structural_violations", "_entry_violations"):
        def counting(plan, entry, real=getattr(AllocationPlan, name), name=name):
            calls[name] += 1
            return real(plan, entry)

        monkeypatch.setattr(AllocationPlan, name, counting)
    plans = []
    for name in ("cycle12plus3", "grid3x4", "tietze", "icosahedron", "k66"):
        g = standard_topology(name)
        for pattern in PATTERNS:
            demands = generate(g, traffic_spec(pattern, name, 0))
            for scheme in ("pxt", "one-plus-one", "shared-path"):
                plans.append(route_with_scheme(g, scheme, demands))
                AllocationPlan.parse(g, plans[-1].serialize())
    assert len(plans) == 45 and not calls
    rng = random.Random(0)
    for plan in plans:
        for entry in rng.sample(plan.entries, 2):
            for new in (PlanEntry(Demand(-1, entry.demand.u, entry.demand.v),
                                  entry.working, entry.protection), _broken(rng, entry, -1)):
                calls.clear()
                with pytest.raises(PlanError):
                    plan.add_entry(new)
                assert calls["_structural_violations"] == 1
                assert calls["_entry_violations"] <= 1


def test_parsed_names_are_the_graphs_own(random_plan):
    """parse reads every node name, of a demand, a walk or an edge, as the
    graph's own str object."""
    for seed in range(4):
        plan = random_plan(seed, "node")
        parsed = AllocationPlan.parse(plan.graph, plan.serialize())
        own = {n: n for n in plan.graph.nodes}
        names = [x for en in parsed.entries for w in (en.working, en.protection)
                 for x in w.nodes + tuple(x for e in w.edges for x in e[:2])]
        names += [x for en in parsed.entries for x in (en.demand.u, en.demand.v)]
        assert names and all(own[x] is x for x in names)


# -- the entry reader against the one that parsed every token anew ---------------

# a-b holds two edges and c-d one; z is no node and a-c no link
READER_GRAPH = Graph("abcd", [("a", "b", 2), ("b", "c", UNBOUNDED), ("c", "d", 1),
                              ("a", "d", UNBOUNDED)])
READER_NODES = ["a", "b", "c", "d", "z"]
READER_EDGES = ["a~b#0", "a~b#1", "b~c#0", "b~c#7", "c~d#0", "a~d#0", "a~d#3",
                "a~b#2", "c~d#1", "a~c#0", "a~z#0",  # past capacity, no link, no node
                "a~b", "a#1", "a~a#0", "a~b#-1", "a~b#x"]  # malformed
# walks between a and b that alternate and join, over edges in and out of the graph
READER_WALKS = ["a a~b#0 b", "b a~b#1 a", "a a~d#0 d c~d#0 c b~c#0 b",
                "a a~d#3 d c~d#0 c b~c#7 b", "a a~b#2 b", "a a~c#0 c b~c#0 b",
                "a a~z#0 z", "a a~d#0 d c~d#1 c b~c#0 b"]
# what each reader may answer, the entry reader's own errors first
ENTRY_MESSAGES = ("expected 'entry", "empty walk", "bad edge token", "walk must alternate",
                  "does not join", "terminals must be distinct")
PLAN_MESSAGES = ("unknown node", "no link", "exceeds capacity")


@st.composite
def entry_lines(draw):
    """An entry line whose walks are each one of READER_WALKS; a random node
    followed by 0-3 random (edge, node) hops, now and then with one more
    edge; or a run of 0-5 random node and edge tokens.  The edges are good
    or malformed, so that tokens repeat, counts are odd and edges do not
    join; now and then a bad id, equal terminals or a broken frame."""
    def walk_text():
        kind = draw(st.sampled_from(["route", "hops", "tokens"]))
        if kind == "route":
            return draw(st.sampled_from(READER_WALKS))
        edge, node = st.sampled_from(READER_EDGES), st.sampled_from(READER_NODES)
        if kind == "hops":
            hops = draw(st.lists(st.tuples(edge, node), max_size=3))
            tail = draw(st.lists(edge, max_size=1))
            return " ".join([draw(node), *(t for hop in hops for t in hop), *tail])
        return " ".join(draw(st.lists(st.one_of(node, edge), max_size=5)))

    did = draw(st.sampled_from(["0", "1", "2", "x"]))
    u, v = draw(st.sampled_from(["a b", "b a", "a b", "a a", "a z"])).split()
    line = f"entry {did} {u} {v} | working {walk_text()} | protection {walk_text()}"
    frame = draw(st.sampled_from(["", "", "", "|", "working", "entry 0"]))
    return line.replace(frame, "work", 1) if frame == "working" else \
        line.replace(frame, "", 1) if frame else line


def _outcome(read, *args):
    try:
        return read(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "violations", None)


def _message_kind(outcome, messages):
    if not isinstance(outcome, tuple):
        return "read"
    return next((m for m in messages if m in outcome[1]), outcome[1])


def test_entry_reader_matches_reference():
    """_parse_entry, which looks each token up in one table, gives the
    entry the reference reader gives, or the same error on the same line,
    on runs of random lines that share the table."""
    seen = set()

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(entry_lines(), min_size=1, max_size=4))
    def check(lines):
        edges = {}
        for lineno, line in enumerate(lines, start=2):
            got = _outcome(_parse_entry, lineno, line, edges)
            assert got == _outcome(reference_parse_entry, lineno, line)
            seen.add(_message_kind(got, ENTRY_MESSAGES))

    check()
    assert seen >= {"read", *ENTRY_MESSAGES}


def test_plan_reader_matches_reference():
    """parse gives the same plan with either entry reader, or the same
    error on the same line, with add_entry's violations for a refused
    entry, on random plan texts."""
    seen = set()

    def read(text):
        return AllocationPlan.parse(READER_GRAPH, text).serialize()

    # entries whose walks all alternate and join, so that add_entry judges them
    routed_lines = st.builds("entry {} a b | working {} | protection {}".format,
                             st.integers(0, 3), st.sampled_from(READER_WALKS),
                             st.sampled_from(READER_WALKS))

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.sampled_from(["", "mode link\n", "mode node\n"]),
           st.sampled_from(["", "enforce abcd\n", "enforce\n", "enforce ab\n"]),
           st.lists(st.one_of(entry_lines(), routed_lines), min_size=1, max_size=4))
    def check(mode, enforce, lines):
        text = "pxtmesh-plan 1\n" + mode + enforce + "\n".join(lines) + "\n"
        got = _outcome(read, text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("pxtmesh.plan._parse_entry",
                       lambda lineno, line, edges: reference_parse_entry(lineno, line))
            assert got == _outcome(read, text)
        seen.add(_message_kind(got, ENTRY_MESSAGES + PLAN_MESSAGES))

    check()
    assert seen >= {"read", *ENTRY_MESSAGES, *PLAN_MESSAGES}


@pytest.fixture(scope="module")
def seed0_pxt_texts():
    """(graph, serialized plan) for the seed-0 PXT plans of the five
    fixtures, one per traffic pattern."""
    texts = []
    for name in ("cycle12plus3", "grid3x4", "tietze", "icosahedron", "k66"):
        g = standard_topology(name)
        for pattern in PATTERNS:
            demands = generate(g, traffic_spec(pattern, name, 0))
            texts.append((g, route_with_scheme(g, "pxt", demands).serialize()))
    return texts


def _edge_tokens(text):
    """The edge tokens of a plan text's entry lines, repeats included."""
    return [t for line in text.splitlines() if line.startswith("entry ")
            for part in line.split("|")[1:] for t in part.split()[2::2]]


def test_parse_holds_one_edge_object_per_edge(seed0_pxt_texts):
    """A parsed plan shares one EdgeId object among all uses of an edge, as
    a routed plan does."""
    for g, text in seed0_pxt_texts:
        plan = AllocationPlan.parse(g, text)
        edges = [e for en in plan.entries for w in (en.working, en.protection) for e in w.edges]
        assert len(edges) > len(set(edges))  # some edge is used twice
        assert len({id(e) for e in edges}) == len(set(edges))


def test_parse_reads_each_edge_token_once(seed0_pxt_texts, monkeypatch):
    """Counting, not timing: parse calls EdgeId.parse once per distinct
    edge token of the text."""
    calls = collections.Counter()

    def counting(token, real=EdgeId.parse):
        calls[token] += 1
        return real(token)

    monkeypatch.setattr(EdgeId, "parse", staticmethod(counting))
    for g, text in seed0_pxt_texts:
        calls.clear()
        AllocationPlan.parse(g, text)
        tokens = _edge_tokens(text)
        assert len(tokens) > len(set(tokens))
        assert calls == collections.Counter(set(tokens))


# -- the cross-connect pairing against its set-per-slot oracle -------------------


def _oracle_pairs(plan):
    """The cross-connect pairing from the protection paths alone, as a set
    of partners for every slot: the oracle for the rule-d tally."""
    pairs = {}
    for entry in plan.entries:
        p = entry.protection
        for i in range(len(p.edges) - 1):
            e, f = p.edges[i], p.edges[i + 1]
            x = p.nodes[i + 1]
            pairs.setdefault((e, x), set()).add(f)
            pairs.setdefault((f, x), set()).add(e)
    return pairs


def _oracle_branch_violations(plan, pairs):
    branched = {slot: set() for slot, partners in pairs.items() if len(partners) > 1}
    for entry in plan.entries:
        p = entry.protection
        for e, x, f in zip(p.edges, p.nodes[1:], p.edges[1:]):
            for slot in branched.keys() & {(e, x), (f, x)}:
                branched[slot].add(entry.demand.id)
    out = []
    for (e, x), ids in sorted(branched.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        names = ", ".join(sorted(str(p) for p in pairs[(e, x)]))
        out.append(PlanViolation("d", tuple(sorted(ids)),
                                 f"branch point at {x}: {e} cross-connected to {names}"))
    return out


def _oracle_extract_pxts(plan):
    pairs = _oracle_pairs(plan)
    violations = _oracle_branch_violations(plan, pairs)
    if violations:
        raise PlanError(violations)
    # the walk leaves an edge only at its real endpoints, so no other slot is read
    low = {e: next(iter(partners)) for (e, x), partners in pairs.items() if x == e[0]}
    high = {e: next(iter(partners)) for (e, x), partners in pairs.items() if x == e[1]}
    seen, out = set(), []
    for start in sorted({e for en in plan.entries for e in en.protection.edges}, key=str):
        if start not in seen:
            nodes, trail, closed = plan._walk_trail(start, low, high)
            seen.update(trail)
            out.append(_canonical_pxt(nodes, trail, closed))
    return sorted(out, key=_pxt_sort_key)


def _pxts_or_error(extract):
    try:
        return extract()
    except PlanError as exc:
        return str(exc)


@pytest.mark.parametrize("mode", ["node", "link"])
def test_pairing_matches_set_per_slot_oracle(monkeypatch, random_plan, mode):
    """After every insertion, branch_points(), the rule-d violations of
    validate() and extract_pxts() (or its error) equal what the set-per-slot
    pairing gives."""
    real = AllocationPlan.add_entry
    seen = set()

    def checked(plan, new):
        real(plan, new)
        pairs = _oracle_pairs(plan)
        branches = {x for (_, x), partners in pairs.items() if len(partners) > 1}
        assert plan.branch_points() == branches
        assert ([v for v in plan.validate() if v.condition == "d"]
                == _oracle_branch_violations(plan, pairs))
        got = _pxts_or_error(plan.extract_pxts)
        assert got == _pxts_or_error(lambda: _oracle_extract_pxts(plan))
        seen.add("branched" if branches else "pxts")
        if any(len(partners) > 2 for partners in pairs.values()):
            seen.add("a slot with three partners")

    monkeypatch.setattr(AllocationPlan, "add_entry", checked)
    for enforce in RANDOM_ENFORCE:
        for seed in range(16):
            random_plan(seed, mode, enforce)
    assert seen == {"branched", "pxts", "a slot with three partners"}


def _pairwise_rule_c(plan, new):
    """Rule c as _entry_violations checked it before footprints: disjoint()
    once per protection edge and user."""
    out, flagged = [], set()
    for e in new.protection.edges:
        for idx in protection_users(plan, e):
            other = plan.entries[idx]
            if other.demand.id in flagged:
                continue
            if not disjoint(new.working, other.working, plan.mode):
                flagged.add(other.demand.id)
                out.append(PlanViolation(
                    "c", (new.demand.id, other.demand.id),
                    f"shared protection edge {e} but conflicting workings"))
    return out


@pytest.mark.parametrize("mode", ["node", "link"])
def test_rule_c_matches_pairwise_loop(random_plan, mode):
    flagged = 0
    for seed in range(16):
        plan = random_plan(seed, mode, "")
        replay = AllocationPlan(plan.graph, mode=mode, enforce="")
        for new in plan.entries:
            replay.enforce = frozenset("c")
            got = replay._entry_violations(new)
            replay.enforce = frozenset()
            assert got == _pairwise_rule_c(replay, new)
            flagged += len(got)
            replay.add_entry(new)
    assert flagged


def test_random_plans_break_every_rule(random_plan):
    # the differential test above is only as strong as the plans it sees
    seen = {v.condition for seed in range(16) for mode in ("node", "link")
            for v in random_plan(seed, mode, "").validate()}
    assert seen == set("abcd")


HASH_SEED_SCRIPT = """
from pxtmesh.graph import EdgeId, Graph, Walk
from pxtmesh.plan import AllocationPlan, Demand, PlanEntry

g = Graph("ABCDE", [(a, b, None) for a, b in ("AB", "BC", "AD", "DE", "EC")])
plan = AllocationPlan(g, mode="link", enforce="")
protection = Walk(tuple("ADEC"), (EdgeId("A", "D", 0), EdgeId("D", "E", 0), EdgeId("E", "C", 0)))
for k in range(2):
    working = Walk(tuple("ABC"), (EdgeId("A", "B", k), EdgeId("B", "C", k)))
    plan.add_entry(PlanEntry(Demand(k, "A", "C"), working, protection))
for v in plan.validate():
    print(v)
"""


def test_condition_c_witness_independent_of_hash_seed():
    src = str(Path(pxtmesh.__file__).resolve().parent.parent)
    outputs = set()
    for hash_seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        outputs.add(run.stdout)
    assert outputs == {"condition c (demands 0,1): shared protection edge A~D#0 "
                       "but conflicting workings\n"}
