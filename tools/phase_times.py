"""Print the time each routing phase takes per demand, untraced but for a clock.

    python3 tools/phase_times.py [--side N] [--seed S] [--passes P] [CHECKOUT]

Routes one uniform k=1 order in link mode on an N x N grid of unbounded
links (as tools/plan_memory.py builds it), N >= 2, with the pxtmesh in
CHECKOUT/src, this repository by default, so two checkouts can be compared
by running the script once for each.  Each of P passes routes the whole
order into a fresh RouterState, with `find_working`, `collect_subtrails`,
`build_aux`, `solve` and `AllocationPlan.add_entry` each wrapped in nothing
but a `perf_counter_ns` pair.  Per phase it prints the raw microseconds per
demand, the median over the passes, then the whole routing loop's, then the
sha256 of the routed plan, which every pass must reproduce.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

from plan_memory import grid


def timed(fn, phase: str, totals: Counter):
    def wrapper(*args, **kwargs):
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        totals[phase] += perf_counter_ns() - start
        return result
    return wrapper


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parents[1],
                        type=Path)
    parser.add_argument("--side", type=int, default=6)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.side < 2:
        parser.error("--side must be at least 2")
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from pxtmesh import graph, router, traffic

    g = grid(graph, args.side)
    demands = traffic.generate(g, traffic.uniform(1, seed=args.seed))
    cls = router.AllocationPlan
    phases = {"find_working": router, "collect_subtrails": router, "build_aux": router,
              "solve": router, "add_entry": cls}
    totals: Counter = Counter()
    for phase, owner in phases.items():
        setattr(owner, phase, timed(getattr(owner, phase), phase, totals))
    samples: dict[str, list[float]] = {phase: [] for phase in [*phases, "route_demand"]}
    digests = set()
    for _ in range(args.passes):
        totals.clear()
        state = router.RouterState(g, mode="link")
        start = perf_counter_ns()
        for d in demands:
            router.route_demand(state, d)
        totals["route_demand"] = perf_counter_ns() - start
        for phase, ns in totals.items():
            samples[phase].append(ns / 1000 / len(demands))
        digests.add(hashlib.sha256(state.plan.serialize().encode()).hexdigest())
    if len(digests) != 1:
        print(f"passes routed {len(digests)} different plans", file=sys.stderr)
        return 1
    print(f"{args.side}x{args.side} link seed {args.seed}: {len(demands)} demands, "
          f"median of {args.passes} passes, us per demand")
    for phase, values in samples.items():
        print(f"  {phase:<18} {statistics.median(values):9.1f}")
    print(f"sha256 {digests.pop()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
