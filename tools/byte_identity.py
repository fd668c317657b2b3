"""Check that two checkouts of pxtmesh produce byte-identical benchmark output.

    python3 tools/byte_identity.py PARENT_DIR CHANGE_DIR

Runs `benchmarks/run.py --seconds 1 --trace 1` at seeds 3 and 5 on every
workload that PARENT_DIR's BENCHMARK.json lists, in each checkout, one run at
a time.  Each pair of runs must print the same `sha256:` lines (one per plan,
and the combined digest), the same value of every metric whose unit is
`count` or `ratio`, and the same `failed` and `correct`.  Timings are ignored,
and so is `attempted`: at one second, `verify` makes as many passes as fit, so
its count follows host speed.  Exits 1 on any difference, naming each.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SEEDS = (3, 5)
COMPARED_UNITS = ("count", "ratio")


def identity(checkout: Path, workload: str, seed: int) -> dict[str, object]:
    """What must not change between checkouts, from one traced run."""
    run = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = run.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{checkout}: {workload} seed {seed} printed no result "
                 f"(exit {run.returncode}):\n{run.stderr[-2000:]}")
    result = json.loads(lines[-1])
    found: dict[str, object] = {"sha256": [line for line in lines if " sha256:" in line],
                                "failed": result["failed"], "correct": result["correct"]}
    for name, metric in result["metrics"].items():
        if metric["unit"] in COMPARED_UNITS:
            found[name] = metric["value"]
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    differences = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            before, after = identity(parent, workload, seed), identity(change, workload, seed)
            differ = sorted(k for k in before.keys() | after.keys()
                            if before.get(k) != after.get(k))
            differences += len(differ)
            print(f"{workload} seed {seed}: {len(before['sha256'])} sha256 lines, "
                  + (f"DIFFERENT: {', '.join(differ)}" if differ else "identical"))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
