"""pxtmesh benchmark: one workload, one seed, every metric with its unit.

    python3 benchmarks/run.py --workload table1 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; pxtmesh is imported from its `src/`.
The run sets the workload up several times (`setup_s` is the median), then
repeats the timed pass until `--seconds` have passed, at least once, and
reports each metric as its median over the passes.  With `--trace 1` it
then sets up and runs one more pass with the layer boundaries wrapped, and
reports the per-layer metrics instead; the spans go to
`.bench_trace/<workload>-seed<seed>.jsonl`.

Every plan is checked (see workloads.py).  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  Exit code 0 when
every check passed, 1 when one failed, 2 when pxtmesh cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS, Tally, digest, fresh_import

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def median_metrics(tallies) -> dict[str, float]:
    """Per metric, the median over the tallies that measured it."""
    values: dict[str, list[float]] = {}
    for t in tallies:
        for key, value in t.metrics().items():
            values.setdefault(key, []).append(value)
    return {key: statistics.median(v) for key, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pxtmesh" / "__init__.py").is_file():
        print(f"error: no pxtmesh sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    setup_times, setups = [], []
    for rep in range(workload.setups):
        tally = Tally(timed=False)
        first = len(tally.meter.samples)
        start = perf_counter()
        ns = fresh_import()
        inputs = workload.prepare(ns, args.seed, rep, tracing.NullProbe(), tally)
        setup_times.append(tally.meter.span(start, first))
        setups.append(tally)
    if Path(ns.pxtmesh.__file__).resolve().parent != SRC / "pxtmesh":
        print(f"error: pxtmesh was imported from {ns.pxtmesh.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        gc.collect()
        passes.append(workload.run_pass(ns, inputs, tracing.NullProbe()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        ns_traced = fresh_import()
        tracing.install(tracer, ns_traced)
        try:
            traced.append(Tally(timed=False))
            inputs_traced = workload.prepare(ns_traced, args.seed, workload.setups - 1,
                                             tracer, traced[0])
            gc.collect()
            traced.append(workload.run_pass(ns_traced, inputs_traced, tracer))
        finally:
            tracer.restore()
        tracer.write(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl")

    everything = setups + passes + traced
    failures = [msg for t in everything for msg in t.failures]
    # same inputs, same plans: the traced set-up repeats the last one, and
    # every pass and the traced pass replay or route the same inputs
    for group in (setups[-1:] + traced[:1], passes + traced[1:]):
        if any(t.digests != group[0].digests for t in group):
            failures.append("plans differ between repetitions of the same inputs")
    attempted = sum(t.attempted for t in everything)

    digests = [d for t in setups for d in t.digests] + passes[0].digests
    seen = set()
    for label, sha in digests:
        if label not in seen:
            seen.add(label)
            print(f"plan {label} sha256:{sha}")
    combined = digest("".join(sha for _, sha in digests))
    print(f"plans {args.workload} seed {args.seed} sha256:{combined}")
    for msg in failures[:20]:
        print(f"FAILED {msg}")

    pooled = Tally(timed=False)  # what the set-ups routed, as one sample
    for t in setups:
        pooled.routings += t.routings
        pooled.protection += t.protection
    measured = median_metrics([pooled] + passes)
    measured["setup_s"] = statistics.median(setup_times)
    measured["peak_rss_mb"] = peak_rss_mb
    if args.trace:
        measured.update(tracing.layer_metrics(tracer))
        measured["trace.overhead_s"] = traced[1].wall_s - statistics.median(
            t.wall_s for t in passes)
        measured["ops_failed_share"] = len(failures) / attempted
    # BENCHMARK.json names what to print; a layer that did no work reads 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(f"workload {args.workload} seed {args.seed}: {len(setups)} set-ups, "
          f"{len(passes)} timed pass(es), {measured.get('router.latency_samples', 0)} "
          f"routing samples")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
