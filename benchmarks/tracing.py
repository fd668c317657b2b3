"""Span tracing for the benchmark's traced run.

The tracer wraps public pxtmesh functions from the outside, for one run
only, and puts the originals back afterwards.  Every wrapped call records a
span (name, start, end, parent span, trace id) in memory; the spans are
written out as JSON lines when the run ends.  Counters are taken from the
wrapped calls' return values at the same boundaries.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter_ns

# Spans whose self time is reported, in the order they are printed.
SPANS = (
    "router.route_demand",
    "router.find_working",
    "router.collect_subtrails",
    "router.build_aux",
    "cdijkstra.solve",
    "plan.add_entry",
    "plan.validate",
    "plan.branch_points",
    "plan.parse",
    "plan.serialize",
    "plan.extract_pxts",
    "failsim.audit",
    "baselines.route_shared_path",
    "baselines.route_1plus1",
    "traffic.generate",
)

# Bookkeeping done inside the tracer while a span is open is recorded as a
# child span of this name, so that it is not charged to the layer.
_HOOK_SPAN = "trace.hooks"


class NullProbe:
    """What the workloads see in untraced runs: every call is a no-op."""

    def trace(self, key) -> None:
        pass

    def off(self):
        return nullcontext()


class Tracer:
    """Records spans around wrapped calls; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._trace_id = None
        self._paused = False
        self._saved: list[tuple[object, str, object]] = []

    # -- probe interface used by the workloads -----------------------------

    def trace(self, key) -> None:
        """Spans opened from now on belong to the trace `key` (one demand)."""
        self._trace_id = key

    @contextmanager
    def off(self):
        """Benchmark-side checks run in here and record no spans."""
        paused, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = paused

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, targets, count=None, before=None) -> None:
        """Replace `attr` on every `(owner, attr)` in targets by one wrapper.

        `before(*args, **kwargs)` runs ahead of the call; `count(counts,
        result, pre, args, kwargs)` runs after it returns, with `pre` what
        `before` gave back.
        """
        original = getattr(*targets[0])

        def wrapper(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            pre = self._hook(before, args, kwargs) if before else None
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._trace_id)
            if count:
                self._hook(count, (self.counts, result, pre, args, kwargs), {})
            return result

        for owner, attr in targets:
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            setattr(owner, attr,
                    staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper)

    def _hook(self, fn, args, kwargs):
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            if self._stack:
                self.spans.append((_HOOK_SPAN, start, perf_counter_ns(),
                                   self._stack[-1], self._trace_id))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- results ---------------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Span duration minus the duration of its direct children, summed
        per span name."""
        total: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            total[name] += dur
            if parent >= 0:
                total[self.spans[parent][0]] -= dur
        return {name: ns / 1e6 for name, ns in total.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i, (name, start, end, parent, trace_id) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent,
                                      "trace": trace_id}) + "\n")


# -- counters taken from return values ---------------------------------------

def _count_subtrails(counts, result, pre, args, kwargs):
    counts["router.collect_subtrails.offered"] += len(result)


def _count_aux(counts, result, pre, args, kwargs):
    counts["router.build_aux.aux_edges"] += len(result.edges)
    # aux edge i owns arcs 2i and 2i+1; each rival edge adds two rival arcs to
    # both arcs of edge i, and every pair is seen from both of its edges
    counts["router.build_aux.rival_pairs"] += sum(
        len(a.rivals) for a in result.graph.arcs.values() if a.id % 2 == 0) // 4


def _count_solve(counts, result, pre, args, kwargs):
    counts["cdijkstra.solve.work"] += result.work
    counts["cdijkstra.solve.stored"] += result.stored
    target = kwargs.get("target", args[2] if len(args) > 2 else None)
    best = result.paths.get(target)
    if best is not None:
        # the router gives shortcut arcs tiebreak 1 and fresh-capacity arcs 0
        arcs = args[0].arcs
        counts["router.shortcuts_used"] += sum(arcs[a].tiebreak for a in best.arcs)


def _protection_before(plan, entry):
    edges = entry.protection.edges
    return sum(1 for e in edges if plan.role(e) == "protection"), len(edges)


def _count_add_entry(counts, result, pre, args, kwargs):
    counts["plan.add_entry.reused_protection_edges"] += pre[0]
    counts["plan.add_entry.protection_edges"] += pre[1]


def _count_audit(counts, result, pre, args, kwargs):
    counts["failsim.audit.failures"] += len(result.rows)


def install(tracer: Tracer, ns) -> None:
    """Wrap the layer boundaries of one freshly imported pxtmesh."""
    router, plan_cls = ns.router, ns.plan.AllocationPlan
    tracer.wrap("router.route_demand", [(router, "route_demand")])
    tracer.wrap("router.find_working", [(router, "find_working")])
    tracer.wrap("router.collect_subtrails", [(router, "collect_subtrails")],
                count=_count_subtrails)
    tracer.wrap("router.build_aux", [(router, "build_aux")], count=_count_aux)
    tracer.wrap("cdijkstra.solve", [(router, "solve"), (ns.cdijkstra, "solve")],
                count=_count_solve)
    tracer.wrap("plan.add_entry", [(plan_cls, "add_entry")],
                count=_count_add_entry, before=_protection_before)
    for method in ("validate", "branch_points", "parse", "serialize", "extract_pxts"):
        tracer.wrap(f"plan.{method}", [(plan_cls, method)])
    tracer.wrap("failsim.audit", [(ns.failsim, "audit"), (ns.experiments, "audit")],
                count=_count_audit)
    for fn in ("route_shared_path", "route_1plus1"):
        tracer.wrap(f"baselines.{fn}", [(ns.baselines, fn), (ns.experiments, fn)])
    tracer.wrap("traffic.generate", [(ns.traffic, "generate"), (ns.experiments, "generate")])


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times (ms) and counters of one traced run."""
    self_ms = tracer.self_ms()
    c = tracer.counts
    out = {f"{name}.self_ms": self_ms.get(name, 0.0) for name in SPANS}
    for key in ("router.collect_subtrails.offered", "router.build_aux.aux_edges",
                "router.build_aux.rival_pairs", "cdijkstra.solve.work",
                "cdijkstra.solve.stored", "failsim.audit.failures"):
        out[key] = c[key]
    offered = c["router.collect_subtrails.offered"]
    out["router.shortcut_use_ratio"] = c["router.shortcuts_used"] / offered if offered else 0.0
    prot = c["plan.add_entry.protection_edges"]
    out["plan.add_entry.reused_protection_share"] = (
        c["plan.add_entry.reused_protection_edges"] / prot if prot else 0.0)
    out["trace.spans"] = sum(1 for s in tracer.spans if s[0] != _HOOK_SPAN)
    return out
