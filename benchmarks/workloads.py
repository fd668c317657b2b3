"""The benchmark's workloads: set-up, one timed pass, and the correctness gates.

Every workload drives pxtmesh from outside, through its public functions,
on one thread.  Demands are routed strictly one after another (a closed loop
with a single caller), because `RouterState.route` must stay sequential.
The workload seed reaches pxtmesh only through `traffic.generate`, as the
shuffled demand order.

Functions are always looked up on their module at call time, so that the
traced run's wrappers are the ones called.
"""

from __future__ import annotations

import hashlib
import importlib
import statistics
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

MODULES = ("graph", "plan", "cdijkstra", "router", "baselines", "traffic",
           "failsim", "topologies", "experiments")

# The committed fixtures; murakami_kim needs an external data file.
FIXTURES = ("cycle12plus3", "grid3x4", "tietze", "icosahedron", "k66")

# grid6: side of the square grid, and demand orders routed per pass.  Run
# time differs by up to 1.5x between orders of the same demands, so one pass
# routes several orders to keep a run's figures close to their median.
GRID_SIDE = 6
GRID_ORDERS = 6

# verify: set-ups per run.  Each set-up routes its own demand order, and the
# routing metrics pool all of them, since five plans of one order leave those
# metrics at the mercy of that order; the pass replays the last set-up's plans.
VERIFY_SETUPS = 5

# A pass has only 5 or 6 checks on grid6 and verify, each a single operation
# that host noise can slow unseen, so each check is timed this many times.
CHECK_REPEATS = 3


def fresh_import() -> SimpleNamespace:
    """Import pxtmesh from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "pxtmesh" or m.startswith("pxtmesh.")]:
        del sys.modules[name]
    ns = SimpleNamespace(pxtmesh=importlib.import_module("pxtmesh"))
    for name in MODULES:
        setattr(ns, name, importlib.import_module(f"pxtmesh.{name}"))
    return ns


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# The host this benchmark runs on changes speed by up to 1.5x for seconds at
# a time, as other tenants come and go.  A timed operation is therefore
# scaled by the host's speed at that moment, measured with a fixed reference
# loop between operations: seconds * REFERENCE_S / (reference loop's time).
# REFERENCE_S is the loop's typical time on the 2-core host the baseline
# figures were recorded on, so scaled figures read as that host's seconds.
REFERENCE_S = 1.5e-3
SAMPLE_EVERY_S = 0.05


def _reference() -> int:
    """Fixed pure-Python work with the router's mix of dict, set and tuple use."""
    seen: dict[tuple[int, int], int] = {}
    for i in range(2000):
        key = (i % 61, i % 7)
        seen[key] = seen.get(key, 0) + len(frozenset((i % 5, i % 3, key)))
    return len(seen)


class Meter:
    """Times operations in reference-scaled seconds; see REFERENCE_S."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.raw_s = 0.0
        self._sample()

    def _sample(self) -> None:
        start = perf_counter()
        _reference()
        self._last = perf_counter()
        self.samples.append(self._last - start)

    def stop(self, start: float) -> float:
        """Scaled duration of the operation begun at perf_counter() `start`."""
        raw = perf_counter() - start
        self.raw_s += raw
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self._sample()  # after a long operation, this brackets it
        return raw * REFERENCE_S / statistics.median(self.samples[-3:])

    def span(self, start: float, first: int) -> float:
        """Scaled duration of a stretch begun at `start`, when `first`
        samples had been taken, by the median of the samples around it."""
        raw = perf_counter() - start
        self._sample()
        return raw * REFERENCE_S / statistics.median(self.samples[max(first - 1, 0):])


@dataclass
class Tally:
    """What one set-up or one timed pass measured and checked."""

    timed: bool = True            # a timed pass; False for a set-up
    meter: Meter = field(default_factory=Meter)
    wall_s: float = 0.0           # every timed operation, scaled
    routings: list[list[float]] = field(default_factory=list)  # PXT latencies (s), arrival order
    scheme_s: Counter = field(default_factory=Counter)        # the two baselines
    scheme_demands: Counter = field(default_factory=Counter)
    protection: Counter = field(default_factory=Counter)
    check_s: float = 0.0
    check_entries: int = 0
    verify_entries: int = 0       # verify_ms_per_demand is wall_s over these
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: list[tuple[str, str]] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def stop(self, start: float) -> float:
        """Scaled duration of one timed operation, also added to wall_s."""
        seconds = self.meter.stop(start)
        self.wall_s += seconds
        return seconds

    def metrics(self) -> dict[str, float]:
        """Every metric this tally has the data for."""
        out: dict[str, float] = {}
        if self.timed:
            out["wall_s"] = self.wall_s
            out["wall_raw_s"] = self.meter.raw_s
            out["host.reference_ms"] = 1e3 * statistics.median(self.meter.samples)
        lat = [x for run in self.routings for x in run]
        if lat:
            q = statistics.quantiles(lat, n=100)
            late = [x for run in self.routings for x in run[len(run) - len(run) // 4:]]
            out["pxt_ms_per_demand"] = 1e3 * sum(lat) / len(lat)
            out["pxt_latency_p50_ms"] = 1e3 * q[49]
            out["pxt_latency_p99_ms"] = 1e3 * q[98]
            out["pxt_late_ms_per_demand"] = 1e3 * sum(late) / len(late)
            out["protection_edges_pxt"] = self.protection["pxt"]
            out["router.latency_samples"] = len(lat)
            deciles: list[list[float]] = [[] for _ in range(10)]
            for run in self.routings:
                for i, x in enumerate(run):
                    deciles[10 * i // len(run)].append(x)
            for i, xs in enumerate(deciles):
                out[f"router.latency_decile{i}_ms"] = 1e3 * sum(xs) / len(xs) if xs else 0.0
        for scheme, key in (("shared-path", "shared_path"), ("one-plus-one", "one_plus_one")):
            if self.scheme_demands[scheme]:
                out[f"{key}_ms_per_demand"] = (
                    1e3 * self.scheme_s[scheme] / self.scheme_demands[scheme])
        if self.scheme_demands["shared-path"]:
            out["protection_edges_shared_path"] = self.protection["shared-path"]
        if self.check_entries:
            out["check_ms_per_demand"] = 1e3 * self.check_s / self.check_entries
        if self.verify_entries:
            out["verify_ms_per_demand"] = 1e3 * self.wall_s / self.verify_entries
        return out


# -- shared steps ----------------------------------------------------------------

def route_pxt(ns, probe, tally: Tally, g, demands, label: str):
    """Route demands one by one with the online PXT router, timing each call."""
    state = ns.router.RouterState(g, mode=ns.experiments.SCHEME_DEFAULT_MODE["pxt"])
    latencies = []
    for d in demands:
        probe.trace(f"{label}#{d.id}")
        start = perf_counter()
        try:
            ns.router.route_demand(state, d)
        except ns.router.RoutingError as exc:
            tally.fail(f"{label}: {exc}")
        latencies.append(tally.stop(start))
    probe.trace(None)
    tally.routings.append(latencies)
    tally.attempted += len(demands)
    return state.plan


def route_baseline(ns, tally: Tally, g, demands, scheme: str, label: str):
    """One of the two baselines through experiments.route_with_scheme, timed."""
    tally.attempted += len(demands)
    start = perf_counter()
    try:
        plan = ns.experiments.route_with_scheme(g, scheme, demands)
    except (ns.baselines.PairError, ns.plan.PlanError) as exc:
        tally.fail(f"{label}: {exc}")
        plan = None
    tally.scheme_s[scheme] += tally.stop(start)
    tally.scheme_demands[scheme] += len(demands)
    return plan


def check(ns, probe, tally: Tally, plan, scheme: str, label: str) -> None:
    """experiments.check_plan, timed: validate() and, where it applies, audit().

    The check leaves the plan as it is, so it runs CHECK_REPEATS times and
    counts the median time; the repeats record no spans.
    """
    tally.attempted += 1
    times = []
    for i in range(CHECK_REPEATS):
        with probe.off() if i else nullcontext():
            start = perf_counter()
            try:
                ns.experiments.check_plan(plan, scheme)
            except (ns.plan.PlanError, ns.failsim.AuditError) as exc:
                if not i:
                    tally.fail(f"{label}: check failed: {exc}")
            times.append(tally.meter.stop(start))
    seconds = statistics.median(times)
    tally.wall_s += seconds
    tally.check_s += seconds
    tally.check_entries += len(plan.entries)


def gate(ns, probe, tally: Tally, plan, scheme: str, label: str) -> str:
    """Untimed gates on a finished plan; returns its serialized text."""
    with probe.off():
        text = plan.serialize()
        tally.digests.append((label, digest(text)))
        tally.protection[scheme] += plan.bandwidth()[1]
        if scheme != "shared-path":  # no pairing to extract without rule d
            tally.attempted += 1
            try:
                if plan.extract_pxts() != plan.pxts:
                    tally.fail(f"{label}: extract_pxts() differs from the incremental pxts")
            except ns.plan.PlanError as exc:
                tally.fail(f"{label}: extract_pxts() failed: {exc}")
    return text


# -- table1 -------------------------------------------------------------------------

def table1_prepare(ns, seed: int, rep: int, probe, tally: Tally):
    """One seed of the published comparison: 5 fixtures x 3 patterns."""
    inputs = []
    for pattern in ns.experiments.PATTERNS:
        for name in FIXTURES:
            g = ns.topologies.standard_topology(name)
            spec = ns.experiments.traffic_spec(pattern, name, seed)
            inputs.append((f"{pattern}/{name}", g, ns.traffic.generate(g, spec)))
    return inputs


def table1_pass(ns, inputs, probe) -> Tally:
    """The calls experiments.table1 makes for one seed: every instance under
    1+1, shared-path and PXT, each followed by check_plan."""
    tally = Tally()
    for label, g, demands in inputs:
        workings = set()
        for scheme in ("one-plus-one", "shared-path", "pxt"):
            name = f"{label}/{scheme}"
            if scheme == "pxt":
                plan = route_pxt(ns, probe, tally, g, demands, name)
            else:
                plan = route_baseline(ns, tally, g, demands, scheme, name)
            if plan is not None:
                check(ns, probe, tally, plan, scheme, name)
                gate(ns, probe, tally, plan, scheme, name)
                workings.add(plan.bandwidth()[0])
        tally.attempted += 1
        if len(workings) != 1:
            tally.fail(f"{label}: working bandwidth differs across schemes: {sorted(workings)}")
    return tally


# -- grid6 --------------------------------------------------------------------------

def grid_graph(ns, n: int):
    """n x n grid of unbounded links; nodes r<row>c<col>."""
    unbounded = ns.graph.UNBOUNDED
    nodes = [f"r{r}c{c}" for r in range(n) for c in range(n)]
    links = [(f"r{r}c{c}", f"r{r}c{c + 1}", unbounded) for r in range(n) for c in range(n - 1)]
    links += [(f"r{r}c{c}", f"r{r + 1}c{c}", unbounded) for r in range(n - 1) for c in range(n)]
    return ns.graph.Graph(nodes, links)


def grid_prepare(ns, seed: int, rep: int, probe, tally: Tally):
    """Uniform k=1 traffic on the grid, in GRID_ORDERS arrival orders."""
    g = grid_graph(ns, GRID_SIDE)
    orders = [ns.traffic.generate(g, ns.traffic.uniform(1, seed=seed * GRID_ORDERS + k))
              for k in range(GRID_ORDERS)]
    return g, orders


def grid_pass(ns, inputs, probe) -> Tally:
    """PXT routing of every order into a fresh plan, then check_plan."""
    g, orders = inputs
    tally = Tally()
    for k, demands in enumerate(orders):
        label = f"grid{GRID_SIDE}/order{k}/pxt"
        plan = route_pxt(ns, probe, tally, g, demands, label)
        check(ns, probe, tally, plan, "pxt", label)
        gate(ns, probe, tally, plan, "pxt", label)
    return tally


# -- verify -------------------------------------------------------------------------

def verify_prepare(ns, seed: int, rep: int, probe, tally: Tally):
    """Route PXT plans for the uniform instances, in this set-up's order."""
    order = seed * VERIFY_SETUPS + rep
    plans = []
    for name in FIXTURES:
        g = ns.topologies.standard_topology(name)
        demands = ns.traffic.generate(g, ns.experiments.traffic_spec("uniform", name, order))
        label = f"uniform/{name}/order{order}/pxt"
        plan = route_pxt(ns, probe, tally, g, demands, label)
        plans.append((label, plan, gate(ns, probe, tally, plan, "pxt", label)))
    return plans


def verify_pass(ns, inputs, probe) -> Tally:
    """Replay each plan entry by entry, re-checking it after every insertion,
    then round-trip it through text and audit it."""
    tally = Tally()
    for label, routed, text in inputs:
        plan = ns.plan.AllocationPlan(routed.graph, mode=routed.mode)
        for i, entry in enumerate(routed.entries):
            probe.trace(f"{label}#{i}")
            tally.attempted += 1
            start = perf_counter()
            try:
                plan.add_entry(entry)
            except ns.plan.PlanError as exc:
                tally.stop(start)
                tally.fail(f"{label}: replay of entry {i} failed: {exc}")
                continue
            violations = plan.validate()
            branches = plan.branch_points()
            tally.stop(start)
            if violations or branches:
                tally.fail(f"{label}: prefix {i + 1} has violations {violations} "
                           f"and branch points {sorted(branches)}")
        probe.trace(None)
        tally.attempted += 2
        start = perf_counter()
        try:
            parsed = ns.plan.AllocationPlan.parse(plan.graph, plan.serialize())
            same_pxts = parsed.extract_pxts() == parsed.pxts
        except ns.plan.PlanError as exc:
            tally.fail(f"{label}: the serialized plan does not parse: {exc}")
            continue
        finally:
            tally.stop(start)
        if not same_pxts:
            tally.fail(f"{label}: extract_pxts() differs from the incremental pxts")
        check(ns, probe, tally, parsed, "pxt", label)
        tally.verify_entries += len(routed.entries)
        tally.attempted += 1
        with probe.off():
            if parsed.serialize() != text:
                tally.fail(f"{label}: the replayed plan serializes differently")
        tally.digests.append((label, digest(text)))
    return tally


@dataclass(frozen=True)
class Workload:
    name: str
    setups: int  # set-ups per run, rep 0 .. setups-1; setup_s is their median
    prepare: Callable
    run_pass: Callable


WORKLOADS = {w.name: w for w in (
    Workload("table1", 5, table1_prepare, table1_pass),
    Workload(f"grid{GRID_SIDE}", 5, grid_prepare, grid_pass),
    Workload("verify", VERIFY_SETUPS, verify_prepare, verify_pass),
)}
