"""Print the memory a routed PXT plan retains per entry, and what the collector tracks.

    python3 tools/plan_memory.py [--side N] [--seed S] [--top K] [CHECKOUT]

Routes one uniform k=1 order in link mode on an N x N grid of unbounded
links (nodes r<row>c<col>, as the benchmark's grid6 builds them), N >= 2,
with the pxtmesh in CHECKOUT/src, this repository by default, so two
checkouts can be compared by running the script once for each.  Tracing starts after the graph and
the demands are built and before the RouterState is made; the state is then
dropped, so only the plan and what it references stay, and after a full
collection the traced bytes still held are divided by the routed entries.
With --top K the K source lines that hold the most of them are listed.
The second line gives the objects the cyclic collector tracks per entry, by
type: those tracked after routing and that collection, less those tracked
before routing, as `gc.get_objects()` lists them; a full collection scans
every one of them.
"""

from __future__ import annotations

import argparse
import collections
import gc
import sys
import tracemalloc
from pathlib import Path


def grid(graph_module, n: int):
    nodes = [f"r{r}c{c}" for r in range(n) for c in range(n)]
    links = [(f"r{r}c{c}", f"r{r}c{c + 1}", None) for r in range(n) for c in range(n - 1)]
    links += [(f"r{r}c{c}", f"r{r + 1}c{c}", None) for r in range(n - 1) for c in range(n)]
    return graph_module.Graph(nodes, links)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parents[1],
                        type=Path)
    parser.add_argument("--side", type=int, default=9)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--top", type=int, default=0)
    args = parser.parse_args(argv)
    if args.side < 2:
        parser.error("--side must be at least 2")
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from pxtmesh import graph, router, traffic

    g = grid(graph, args.side)
    demands = traffic.generate(g, traffic.uniform(1, seed=args.seed))
    gc.collect()
    before = collections.Counter(map(type, gc.get_objects()))
    tracemalloc.start()
    state = router.RouterState(g, mode="link")
    for d in demands:
        router.route_demand(state, d)
    plan = state.plan
    del state
    gc.collect()
    tracked = collections.Counter(map(type, gc.get_objects()))
    tracked.subtract(before)
    retained = tracemalloc.get_traced_memory()[0]
    snapshot = tracemalloc.take_snapshot() if args.top else None
    tracemalloc.stop()
    n = len(plan.entries)
    print(f"{args.side}x{args.side} link seed {args.seed}: {n} entries, "
          f"{retained} B retained, {retained / n:.0f} B per entry")
    by_type = sorted(((k, t.__qualname__) for t, k in tracked.items() if k), reverse=True)
    print(f"gc-tracked per entry: {sum(tracked.values()) / n:.2f} ("
          + ", ".join(f"{k / n:.2f} {name}" for k, name in by_type) + ")")
    for stat in snapshot.statistics("lineno")[:args.top] if snapshot else ():
        frame = stat.traceback[0]
        print(f"  {stat.size / n:7.0f} B/entry  {Path(frame.filename).name}:{frame.lineno}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
