"""Demand list generation: uniform, nearest-neighbor, and unbalanced patterns.

Arrival order matters to the online scheme, so shuffling uses an explicitly
specified generator (SplitMix64 feeding a Fisher-Yates pass) rather than any
platform default; the same 64-bit seed reproduces the same order everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .plan import Demand

_MASK = (1 << 64) - 1

# The paper's unbalanced multiplicities: copies of a demand between two small
# nodes, a small and a large node, and two large nodes.
K_SS, K_SL, K_LL = 2, 8, 14

# The most demands one demand file may hold, so that no count makes
# load_demands allocate without bound; the largest published instance has 360.
MAX_DEMANDS = 100_000


class SplitMix64:
    """Tiny deterministic PRNG (the standard SplitMix64 constants)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK


def shuffled(items: list, seed: int) -> list:
    """Fisher-Yates permutation driven by SplitMix64(seed)."""
    out = list(items)
    rng = SplitMix64(seed)
    for i in range(len(out) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


@dataclass(frozen=True)
class TrafficSpec:
    pattern: str                     # uniform | neighbor | unbalanced
    k: int = 0                       # per-pair copies (uniform/neighbor)
    large: tuple[str, ...] = ()      # unbalanced "large" nodes
    seed: int | None = None

    def __post_init__(self):
        if self.pattern not in ("uniform", "neighbor", "unbalanced"):
            raise ValueError(f"unknown traffic pattern {self.pattern!r}")
        if self.pattern in ("uniform", "neighbor") and self.k <= 0:
            raise ValueError("k must be positive")
        if self.pattern == "unbalanced" and not self.large:
            raise ValueError("unbalanced traffic needs a large-node set")


def uniform(k: int = 5, seed: int | None = None) -> TrafficSpec:
    return TrafficSpec("uniform", k=k, seed=seed)


def neighbor(k: int = 10, seed: int | None = None) -> TrafficSpec:
    return TrafficSpec("neighbor", k=k, seed=seed)


def unbalanced(large: tuple[str, ...], seed: int | None = None) -> TrafficSpec:
    return TrafficSpec("unbalanced", large=tuple(large), seed=seed)


def base_pairs(g: Graph, spec: TrafficSpec) -> list[tuple[str, str]]:
    """Deterministic unshuffled demand multiset: lexicographic pairs, copies
    consecutive."""
    nodes = g.sorted_nodes()
    out: list[tuple[str, str]] = []
    if spec.pattern == "uniform":
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                out.extend([(u, v)] * spec.k)
    elif spec.pattern == "neighbor":
        for u, v in g.links():
            out.extend([(u, v)] * spec.k)
    else:
        large = set(spec.large)
        missing = large - set(nodes)
        if missing:
            raise ValueError(f"large nodes not in graph: {sorted(missing)}")
        mult = {0: K_SS, 1: K_SL, 2: K_LL}
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                out.extend([(u, v)] * mult[(u in large) + (v in large)])
    return out


def generate(g: Graph, spec: TrafficSpec) -> list[Demand]:
    """Demand list in arrival order; ids follow that order."""
    pairs = base_pairs(g, spec)
    if spec.seed is not None:
        pairs = shuffled(pairs, spec.seed)
    return [Demand(i, u, v) for i, (u, v) in enumerate(pairs)]


def dump_demands(demands: list[Demand]) -> str:
    """demand <u> <v> <count> lines; consecutive identical pairs coalesce."""
    lines = []
    i = 0
    while i < len(demands):
        j = i
        while j < len(demands) and (demands[j].u, demands[j].v) == (demands[i].u, demands[i].v):
            j += 1
        lines.append(f"demand {demands[i].u} {demands[i].v} {j - i}")
        i = j
    return "\n".join(lines) + ("\n" if lines else "")


def load_demands(g: Graph, text: str) -> list[Demand]:
    """Parse `demand <u> <v> [count]` lines, at most MAX_DEMANDS in all."""
    out: list[Demand] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "demand" or len(fields) not in (3, 4):
            raise ValueError(f"line {lineno}: expected 'demand <u> <v> [count]'")
        u, v = fields[1], fields[2]
        try:
            count = int(fields[3]) if len(fields) == 4 else 1
        except ValueError:
            raise ValueError(f"line {lineno}: bad count {fields[3]!r}") from None
        for x in (u, v):
            if x not in g.nodes:
                raise ValueError(f"line {lineno}: unknown node {x}")
        if u == v:
            raise ValueError(f"line {lineno}: terminals must be distinct")
        if count <= 0:
            raise ValueError(f"line {lineno}: count must be positive")
        if len(out) + count > MAX_DEMANDS:
            raise ValueError(f"line {lineno}: more than {MAX_DEMANDS} demands in one file")
        for _ in range(count):
            out.append(Demand(len(out), u, v))
    return out
