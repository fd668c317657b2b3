"""The six 12-node benchmark topologies and their pinned experiment fixtures.

murakami_kim is data-file-only: the exact topology is not public, so a user
supplied graph file is required (12 nodes, 24 links, all-pairs distance sum
120 -- enforced on load).
"""

from __future__ import annotations

from pathlib import Path

from .graph import UNBOUNDED, Graph, distance_sum, load_graph

TOPOLOGY_NAMES = (
    "cycle12plus3",
    "grid3x4",
    "tietze",
    "murakami_kim",
    "icosahedron",
    "k66",
)

# expected (links, distance_sum) per topology
TOPOLOGY_STATS = {
    "cycle12plus3": (15, 168),
    "grid3x4": (17, 154),
    "tietze": (18, 129),
    "murakami_kim": (24, 120),
    "icosahedron": (30, 108),
    "k66": (36, 96),
}

# The "large" node triples used by unbalanced traffic.  grid3x4 is the middle
# row's three leftmost nodes; tietze's are the three attachment nodes of its
# triangle (the unique triple reproducing both reference bandwidth figures);
# cycle12plus3's are chord endpoints; icosahedron uses a triangle and k66 one
# side, which on those two (distance-regular) graphs any triple would match.
LARGE_NODE_SETS = {
    "cycle12plus3": ("0", "3", "4"),
    "grid3x4": ("r1c0", "r1c1", "r1c2"),
    "tietze": ("i0", "o1", "o4"),
    "icosahedron": ("n", "u0", "u1"),
    "k66": ("a0", "a1", "a2"),
}


def _cycle12plus3() -> Graph:
    # 12-cycle plus three evenly spaced distance-3 chords; the unique chord
    # shape (up to rotation) whose distance sum is 168 while also matching
    # the reference 1+1 figures exactly.
    nodes = [str(i) for i in range(12)]
    links = [(str(i), str((i + 1) % 12), UNBOUNDED) for i in range(12)]
    links += [("0", "3", UNBOUNDED), ("4", "7", UNBOUNDED), ("8", "11", UNBOUNDED)]
    return Graph(nodes, links)


def _grid3x4() -> Graph:
    nodes = [f"r{r}c{c}" for r in range(3) for c in range(4)]
    links = []
    for r in range(3):
        for c in range(4):
            if c + 1 < 4:
                links.append((f"r{r}c{c}", f"r{r}c{c + 1}", UNBOUNDED))
            if r + 1 < 3:
                links.append((f"r{r}c{c}", f"r{r + 1}c{c}", UNBOUNDED))
    return Graph(nodes, links)


def _tietze() -> Graph:
    # Petersen graph (outer cycle o0..o4, inner pentagram i0..i4, spokes)
    # with vertex o0 replaced by the triangle t0-t1-t2.
    links = []
    for i in range(5):
        links.append((f"o{i}", f"o{(i + 1) % 5}"))
        links.append((f"i{i}", f"i{(i + 2) % 5}"))
        links.append((f"o{i}", f"i{i}"))
    drop = {frozenset(p) for p in [("o0", "o1"), ("o4", "o0"), ("o0", "i0")]}
    links = [l for l in links if frozenset(l) not in drop]
    links += [("t0", "t1"), ("t1", "t2"), ("t2", "t0"),
              ("t0", "o1"), ("t1", "o4"), ("t2", "i0")]
    nodes = sorted({u for l in links for u in l})
    return Graph(nodes, [(u, v, UNBOUNDED) for u, v in links])


def _icosahedron() -> Graph:
    # pentagonal antiprism (u0..u4 over l0..l4) capped by poles n and s
    nodes = ["n", "s"] + [f"u{i}" for i in range(5)] + [f"l{i}" for i in range(5)]
    links = []
    for i in range(5):
        links.append(("n", f"u{i}", UNBOUNDED))
        links.append(("s", f"l{i}", UNBOUNDED))
        links.append((f"u{i}", f"u{(i + 1) % 5}", UNBOUNDED))
        links.append((f"l{i}", f"l{(i + 1) % 5}", UNBOUNDED))
        links.append((f"u{i}", f"l{i}", UNBOUNDED))
        links.append((f"u{i}", f"l{(i + 1) % 5}", UNBOUNDED))
    return Graph(nodes, links)


def _k66() -> Graph:
    nodes = [f"a{i}" for i in range(6)] + [f"b{i}" for i in range(6)]
    links = [(f"a{i}", f"b{j}", UNBOUNDED) for i in range(6) for j in range(6)]
    return Graph(nodes, links)


_BUILDERS = {
    "cycle12plus3": _cycle12plus3,
    "grid3x4": _grid3x4,
    "tietze": _tietze,
    "icosahedron": _icosahedron,
    "k66": _k66,
}


class TopologyError(ValueError):
    pass


def standard_topology(name: str, data_file: str | Path | None = None) -> Graph:
    """Return a named benchmark topology.

    murakami_kim requires `data_file`; the file is checked against the
    documented constraints (12 nodes, 24 links, distance sum 120).
    """
    if name == "murakami_kim":
        if data_file is None:
            raise TopologyError(
                "murakami_kim needs an external graph file (12 nodes, 24 links, "
                "all-pairs distance sum 120)")
        g = load_graph(Path(data_file).read_text())
        if len(g.nodes) != 12 or (g.num_links(), distance_sum(g)) != TOPOLOGY_STATS[name]:
            raise TopologyError(
                f"{data_file} does not satisfy the murakami_kim constraints "
                f"(12 nodes, 24 links, distance sum 120)")
        return g
    if name not in _BUILDERS:
        raise TopologyError(f"unknown topology {name!r} (expected one of {', '.join(TOPOLOGY_NAMES)})")
    return _BUILDERS[name]()


def load_topology(spec: str, data_file: str | Path | None = None) -> tuple[str, Graph]:
    """Resolve a CLI graph argument: a builtin name or a path to a graph file."""
    if spec in TOPOLOGY_NAMES:
        return spec, standard_topology(spec, data_file)
    path = Path(spec)
    if path.exists():
        return path.stem, load_graph(path.read_text())
    raise TopologyError(f"{spec!r} is neither a known topology nor a graph file")
