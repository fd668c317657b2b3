import copy
import math
import pickle
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pxtmesh.graph import (
    UNBOUNDED,
    EdgeId,
    Graph,
    GraphError,
    GraphParseError,
    Walk,
    all_shortest_paths,
    bfs_distances,
    classify,
    disjoint,
    distance_sum,
    dump_graph,
    edge_str,
    link_key,
    link_of,
    load_graph,
    parse_edge,
    ranked_routes,
    shortest_path,
    shortest_route_dag,
)
from pxtmesh.topologies import TOPOLOGY_STATS, standard_topology

from conftest import reference_load_graph, shortest_paths_oracle, walk


def W(multigraph, *seq):
    """Walk from alternating node / edge-spec sequence, e.g. 'C', ('C','D',0), 'D'."""
    return walk(*seq)


# named edges of the multigraph fixture
a = ("A", "B", 0)
b = ("B", "C", 0)
c = ("B", "D", 0)
d = ("C", "D", 0)
e = ("D", "E", 0)
f = ("D", "E", 1)


class TestEdgeId:
    def test_canonical_order(self):
        assert EdgeId("E", "D", 1) == EdgeId("D", "E", 1)
        assert edge_str(EdgeId("E", "D", 1)) == "D~E#1"
        eid = EdgeId("E", "D", 1)
        assert (eid[0], eid[1], eid[2]) == ("D", "E", 1)
        assert link_of(eid) == link_key("E", "D") and type(link_of(eid)) is tuple

    def test_parse_round_trip(self):
        eid = parse_edge("D~E#1")
        assert eid == EdgeId("D", "E", 1) and type(eid) is tuple
        assert parse_edge(edge_str(eid)) == eid
        assert parse_edge("E~D#1") == eid  # read in either node order

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match=r"^self-loop edge A$"):
            EdgeId("A", "A", 0)

    def test_negative_ordinal_rejected(self):
        with pytest.raises(GraphError, match=r"^negative edge ordinal -1$"):
            EdgeId("B", "A", -1)

    def test_is_the_plain_tuple(self):
        eid = EdgeId("E", "D", 1)
        assert eid == ("D", "E", 1) and tuple(eid) is eid and type(eid) is tuple
        assert hash(eid) == hash(("D", "E", 1))
        assert not hasattr(eid, "__dict__")
        with pytest.raises(AttributeError):
            eid.u = "A"
        with pytest.raises(TypeError):
            eid[0] = "A"

    def test_set_order_matches_plain_tuples(self):
        rng = random.Random(5)
        raw = [(f"n{rng.randrange(12)}", f"m{rng.randrange(12)}", rng.randrange(4))
               for _ in range(200)]
        assert list(set(EdgeId(*t) for t in raw)) == list(set(link_key(u, v) + (i,)
                                                           for u, v, i in raw))

    def test_sorted_by_u_v_index(self):
        edges = [EdgeId("B", "C", 0), EdgeId("A", "C", 1), EdgeId("C", "A", 0),
                 EdgeId("A", "B", 2), EdgeId("B", "A", 10)]
        assert [edge_str(e) for e in sorted(edges)] == [
            "A~B#2", "A~B#10", "A~C#0", "A~C#1", "B~C#0"]

    def test_repr_unchanged(self):
        # the text form is edge_str's; repr is the plain tuple's
        assert edge_str(EdgeId("B", "A", 3)) == "A~B#3"
        assert repr(EdgeId("B", "A", 3)) == "('A', 'B', 3)"

    def test_pickle_and_copy_round_trip(self):
        eid = EdgeId("E", "D", 1)
        for again in (pickle.loads(pickle.dumps(eid)), copy.copy(eid), copy.deepcopy(eid)):
            assert type(again) is tuple
            assert again == eid and edge_str(again) == edge_str(eid)
            assert parse_edge(edge_str(again)) == eid


def test_node_names_are_interned():
    """A graph keeps one str object per node name, in its node set, its
    adjacency and its link keys, and parse_edge and Walk.parse read names
    as those objects."""
    def fresh(name):  # an object of its own, not the interned one
        return "".join(list(name))

    g = Graph([fresh("n1"), fresh("n2"), fresh("n3")],
              [(fresh("n1"), fresh("n2"), None), (fresh("n3"), fresh("n2"), 2)])
    own = {n: n for n in g.nodes}
    assert fresh("n1") is not fresh("n1")
    assert all(own[x] is x for x in g._adj) and all(own[x] is x for xs in g._adj.values() for x in xs)
    assert all(own[x] is x for link in g.bounds for x in link)
    w = Walk.parse(fresh("n1 n1~n2#0 n2 n2~n3#1 n3"))
    assert all(own[x] is x for x in w.nodes + tuple(x for e in w.edges for x in e[:2]))
    assert all(own[x] is x for x in parse_edge(fresh("n3~n2#1"))[:2])


class TestGraphFile:
    def test_minimal(self):
        g = load_graph("node A\nnode B\nlink A B")
        assert g.nodes == {"A", "B"}
        assert g.links() == [("A", "B")]
        assert g.capacity("A", "B") is UNBOUNDED

    def test_self_loop_link(self):
        with pytest.raises(GraphParseError) as exc:
            load_graph("node A\nlink A A")
        assert "self-loop" in str(exc.value)

    def test_duplicate_link(self):
        with pytest.raises(GraphParseError):
            load_graph("node A\nnode B\nlink A B\nlink B A")

    def test_duplicate_node(self):
        with pytest.raises(GraphParseError):
            load_graph("node A\nnode A")

    def test_unknown_node_in_link(self):
        with pytest.raises(GraphParseError) as exc:
            load_graph("node A\nlink A B")
        assert "line 2" in str(exc.value)

    def test_link_before_its_nodes(self):
        # a link is checked against the nodes that well-formed node lines
        # declare anywhere in the file, so line order never matters
        ordered = load_graph("node a\nnode b\nnode c\nlink a b\nlink b c 2")
        for text in ("node a\nlink a b\nnode b\nlink b c 2\nnode c",
                     "link b c 2\nlink a b\nnode c\nnode b\nnode a"):
            g = load_graph(text)
            assert dump_graph(g) == dump_graph(ordered)
            assert g.capacity("c", "b") == 2

    @pytest.mark.parametrize("text,message", [
        ("node a\nlink a zz\nnode b\nnode b", "line 2: unknown node zz in link"),
        ("node a\nnode b\nlink a b\nnode b\nlink b a", "line 4: duplicate node b"),
        ("link a b\nlink b a\nnode a\nnode a\nnode b", "line 2: duplicate link b-a"),
        ("link a b 0\nlink a zz\nnode a\nnode b", "line 1: capacity must be positive"),
        ("node a\nlink a b\nnode b|c\nnode b\nfoo", "line 3: invalid node id 'b|c'"),
        ("link a c\nnode a\nnode b\nlink a a\nnode c", "line 4: self-loop link at a"),
    ])
    def test_earliest_line_error_is_raised(self, text, message):
        # the lines are checked in order, each against the lines before it and
        # the nodes declared anywhere, so the earliest line's error is reported
        with pytest.raises(GraphParseError) as exc:
            load_graph(text)
        assert str(exc.value) == message
        assert exc.value.lineno == int(message.split()[1].rstrip(":"))

    def test_capacity_and_comments(self):
        g = load_graph("# caps\nnode A\nnode B\nlink A B 3  # three fibers")
        assert g.capacity("A", "B") == 3
        with pytest.raises(GraphError):
            g.edge("A", "B", 3)
        assert g.edge("A", "B", 2) == EdgeId("A", "B", 2)

    def test_dump_round_trip(self, grid3x4):
        text = dump_graph(grid3x4)
        again = load_graph(text)
        assert dump_graph(again) == text


def _graph_outcome(load, text):
    """What a graph reader makes of `text`: the canonical dump of the graph,
    or the type, text and line number of the GraphParseError it raises."""
    try:
        return dump_graph(load(text))
    except GraphParseError as exc:
        return type(exc), str(exc), exc.lineno


@st.composite
def graph_texts(draw):
    """Graph files of well-formed lines, the nodes a, b and c and some links
    between them, mixed in any order with 1-3 more: node and link lines with
    0-3 names, valid or not (b|c, e~f) and declared or not (d), so that
    nodes repeat, links repeat in either order or loop, and a link's third
    field is any capacity; comments, blank lines and unknown directives.  Half
    the files add a link to d or e~f and a node line for it, well-formed or
    not, in either order.  Any line may carry a trailing comment."""
    name = st.sampled_from(["a", "b", "c", "d", "b|c", "e~f"])
    cap = st.sampled_from(["0", "-1", "x", "unbounded", "3"])
    lines = ["node a", "node b", "node c"]
    for pair in draw(st.lists(st.sampled_from(["ab", "bc", "ac"]), unique=True)):
        u, v = draw(st.permutations(pair))
        lines.append(f"link {u} {v}{draw(st.sampled_from(['', ' 3', ' unbounded']))}")
    lines += draw(st.lists(st.one_of(
        st.lists(name, max_size=3).map(lambda f: " ".join(["node", *f])),
        st.builds("link {} {}".format, name, name),
        st.builds("link {} {} {}".format, name, name, cap),
        st.lists(name, max_size=3).map(lambda f: " ".join(["link", *f])),
        st.sampled_from(["", "   ", "# a comment", "foo a", "edge a b"])), min_size=1, max_size=3))
    if draw(st.booleans()):
        x, tail = draw(st.sampled_from(["d", "e~f"])), draw(st.sampled_from(["", " a"]))
        lines += [f"link {draw(st.sampled_from('abc'))} {x}", f"node {x}{tail}"]
    lines = draw(st.permutations(lines))
    comments = draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
    return "\n".join(f"{line}  # note" if c else line for line, c in zip(lines, comments))


def test_one_pass_reader_matches_two_pass_reference():
    """load_graph checks each line once, in line order; the two-pass reader
    it replaced read every line, then checked the queued links.  On random
    files both give the same graph, or the same error on the same line."""
    seen = set()

    @settings(max_examples=1000, deadline=None)
    @given(graph_texts())
    def check(text):
        got = _graph_outcome(load_graph, text)
        assert got == _graph_outcome(reference_load_graph, text)
        seen.add("graph" if isinstance(got, str) else got[1].split(": ", 1)[1][:13])

    check()
    assert seen >= {"graph", "expected: nod", "duplicate nod", "invalid node ",
                    "expected: lin", "bad capacity ", "capacity must", "unknown node ",
                    "self-loop lin", "duplicate lin", "unknown direc"}


class TestTopologies:
    @pytest.mark.parametrize("name,links,dsum", [
        (n, s[0], s[1]) for n, s in TOPOLOGY_STATS.items() if n != "murakami_kim"
    ])
    def test_stats(self, name, links, dsum):
        g = standard_topology(name)
        assert len(g.nodes) == 12
        assert g.num_links() == links
        assert distance_sum(g) == dsum

    def test_unknown_name(self):
        from pxtmesh.topologies import TopologyError
        with pytest.raises(TopologyError):
            standard_topology("petersen")

    def test_murakami_requires_file(self):
        from pxtmesh.topologies import TopologyError
        with pytest.raises(TopologyError, match="external graph file"):
            standard_topology("murakami_kim")

    @pytest.mark.parametrize("jump,dsum", [(3, 120), (2, 126)])
    def test_murakami_file_checked(self, tmp_path, jump, dsum):
        """The circulant C12(1, jump) has 24 links; only distance sum 120 is
        accepted as murakami_kim."""
        from pxtmesh.topologies import TopologyError
        nodes = [f"n{i:02d}" for i in range(12)]
        links = [(nodes[i], nodes[(i + s) % 12], UNBOUNDED) for i in range(12) for s in (1, jump)]
        f = tmp_path / "mk.graph"
        f.write_text(dump_graph(Graph(nodes, links)))
        if dsum == 120:
            assert distance_sum(standard_topology("murakami_kim", f)) == 120
        else:
            with pytest.raises(TopologyError, match="does not satisfy"):
                standard_topology("murakami_kim", f)

    def test_k66_bipartite_girth_four(self, k66):
        sides = {n[0] for n in k66.nodes}
        assert sides == {"a", "b"}
        for u, v in k66.links():
            assert u[0] != v[0]
        # shortest cycle: any two cross links between the same two pairs
        assert distance_sum(k66) == 96

    def test_grid_link_count(self, grid3x4):
        assert grid3x4.num_links() == 2 * 3 * 4 - 3 - 4


class TestClassify:
    def test_repeated_edge_is_only_a_walk(self, multigraph):
        w = W(multigraph, "C", d, "D", f, "E", e, "D", d, "C")
        assert classify(w) == "closed-walk"

    def test_closed_trail_not_path(self, multigraph):
        w = W(multigraph, "C", d, "D", f, "E", e, "D", c, "B", b, "C")
        assert classify(w) == "closed-trail"

    def test_single_node_is_zero_length_path(self):
        assert classify(Walk(("A",), ())) == "path"

    def test_open_trail_with_repeated_node(self, multigraph):
        w = W(multigraph, "C", d, "D", f, "E", e, "D", c, "B")
        assert classify(w) == "trail"

    def test_simple_path(self, multigraph):
        w = W(multigraph, "A", a, "B", c, "D")
        assert classify(w) == "path"

    def test_mismatched_edge_rejected(self):
        with pytest.raises(GraphError):
            Walk((("A"), "B"), (EdgeId("C", "D", 0),))


def alternation_by_sets(nodes, edges) -> str | None:
    """Walk's alternation check as it was, with two sets per edge: the
    GraphError message it raises, or None when the sequence is a walk."""
    if len(nodes) != len(edges) + 1 or not nodes:
        return "walk must alternate nodes and edges"
    for i, e in enumerate(edges):
        if {nodes[i], nodes[i + 1]} != {e[0], e[1]}:
            return f"edge {edge_str(e)} does not join {nodes[i]} and {nodes[i + 1]}"
    return None


def alternation_error(nodes, edges) -> str | None:
    try:
        Walk(tuple(nodes), tuple(edges))
    except GraphError as exc:
        return str(exc)
    return None


class TestAlternation:
    @pytest.mark.parametrize("nodes, edges, message", [
        ("AB", [("C", "D", 0)], "edge C~D#0 does not join A and B"),
        # the edge is named as stored, u < v, and the nodes in walk order
        ("BAC", [("A", "B", 1), ("A", "B", 2)], "edge A~B#2 does not join A and C"),
        ("AA", [("A", "B", 0)], "edge A~B#0 does not join A and A"),
        ("ABC", [("A", "B", 0)], "walk must alternate nodes and edges"),
        ("", [], "walk must alternate nodes and edges"),
    ])
    def test_error_text(self, nodes, edges, message):
        edges = [EdgeId(*e) for e in edges]
        with pytest.raises(GraphError) as exc:
            Walk(tuple(nodes), tuple(edges))
        assert str(exc.value) == message
        assert alternation_by_sets(tuple(nodes), edges) == message

    def test_either_direction_accepted(self):
        e = EdgeId("A", "B", 0)
        assert Walk(("B", "A"), (e,)).edges == Walk(("A", "B"), (e,)).edges == (e,)


edge_ids = st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"),
                     st.integers(min_value=0, max_value=2)).filter(
    lambda t: t[0] != t[1]).map(lambda t: EdgeId(*t))


@st.composite
def node_edge_sequences(draw):
    """Node and edge sequences that are mostly walks: each edge joins its two
    nodes unless drawn at random, and now and then a length is off by one."""
    nodes = draw(st.lists(st.sampled_from("abcd"), max_size=7))
    edges = []
    for a, b in zip(nodes, nodes[1:]):
        if a != b and draw(st.booleans()):
            edges.append(EdgeId(a, b, draw(st.integers(min_value=0, max_value=2))))
        else:
            edges.append(draw(st.one_of(edge_ids, st.none())))
    edges = [e for e in edges if e is not None]
    return nodes, edges


@settings(max_examples=500, deadline=None)
@given(node_edge_sequences())
def test_alternation_matches_set_check(seq):
    nodes, edges = seq
    assert alternation_error(nodes, edges) == alternation_by_sets(nodes, edges)


class TestDisjoint:
    def test_parallel_edges(self, multigraph):
        w1 = W(multigraph, "D", e, "E")
        w2 = W(multigraph, "D", f, "E")
        assert disjoint(w1, w2, "edge")
        assert not disjoint(w1, w2, "link")
        assert not disjoint(w1, w2, "node")

    def test_shared_endpoint_is_node_disjoint(self, multigraph):
        w1 = W(multigraph, "A", a, "B", b, "C")
        w2 = W(multigraph, "E", e, "D", d, "C")
        assert disjoint(w1, w2, "node")

    def test_interior_overlap(self, multigraph):
        w1 = W(multigraph, "A", a, "B", c, "D")
        w2 = W(multigraph, "C", b, "B")
        assert not disjoint(w1, w2, "node")
        assert disjoint(w1, w2, "link")


def _random_walks(graph, max_len=8):
    """Hypothesis strategy: structurally valid random walks on `graph`."""
    nodes = graph.sorted_nodes()

    @st.composite
    def walk(draw):
        start = draw(st.sampled_from(nodes))
        length = draw(st.integers(min_value=0, max_value=max_len))
        seq_nodes = [start]
        seq_edges = []
        cur = start
        for _ in range(length):
            neigh = graph.neighbors(cur)
            nxt = draw(st.sampled_from(list(neigh)))
            cap = graph.capacity(cur, nxt)
            hi = (cap - 1) if cap is not None else 1
            idx = draw(st.integers(min_value=0, max_value=hi))
            seq_edges.append(EdgeId(cur, nxt, idx))
            seq_nodes.append(nxt)
            cur = nxt
        return Walk(tuple(seq_nodes), tuple(seq_edges))

    return walk()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_classification_hierarchy(data):
    g = standard_topology("grid3x4")
    w = data.draw(_random_walks(g))
    kind = classify(w)
    edges_distinct = len(set(w.edges)) == len(w.edges)
    nodes_distinct = len(set(w.nodes)) == len(w.nodes)
    if kind == "path":
        assert nodes_distinct or w.length == 0
        assert edges_distinct  # every path is a trail
    if kind in ("trail", "closed-trail"):
        assert edges_distinct  # every trail is a walk, with distinct edges
    if kind in ("closed-trail", "closed-walk"):
        assert w.closed


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_disjointness_hierarchy_and_symmetry(data):
    g = standard_topology("icosahedron")
    w1 = data.draw(_random_walks(g, max_len=5))
    w2 = data.draw(_random_walks(g, max_len=5))
    for mode in ("edge", "link", "node"):
        assert disjoint(w1, w2, mode) == disjoint(w2, w1, mode)
    if disjoint(w1, w2, "node"):
        assert disjoint(w1, w2, "link")
    if disjoint(w1, w2, "link"):
        assert disjoint(w1, w2, "edge")


class TestShortestPath:
    def test_antipodal_icosahedron(self, icosahedron):
        p = shortest_path(icosahedron, "n", "s")
        assert p is not None and len(p) - 1 == 3

    def test_k66_same_side(self, k66):
        p = shortest_path(k66, "a0", "a1")
        assert len(p) - 1 == 2

    def test_trivial(self, icosahedron):
        assert shortest_path(icosahedron, "n", "n") == ("n",)

    def test_none_when_unusable(self, five_node):
        assert shortest_path(five_node, "A", "B", usable=lambda u, v: False) is None

    @pytest.mark.parametrize("name", ["cycle12plus3", "grid3x4", "tietze",
                                      "icosahedron", "k66"])
    def test_matches_bfs_everywhere(self, name):
        g = standard_topology(name)
        for u in g.sorted_nodes():
            dist = bfs_distances(g, u)
            for v in g.sorted_nodes():
                p = shortest_path(g, u, v)
                assert len(p) - 1 == dist[v]
                assert p == next(all_shortest_paths(g, u, v), None)

    def test_lexicographic_tie_break(self, k66):
        # many 2-hop routes a0-b?-a1; must pick the smallest intermediate
        assert shortest_path(k66, "a0", "a1") == ("a0", "b0", "a1")


def grid(n: int) -> Graph:
    nodes = [f"r{r}c{c}" for r in range(n) for c in range(n)]
    links = [(f"r{r}c{c}", f"r{r}c{c + 1}", UNBOUNDED) for r in range(n) for c in range(n - 1)]
    links += [(f"r{r}c{c}", f"r{r + 1}c{c}", UNBOUNDED) for r in range(n - 1) for c in range(n)]
    return Graph(nodes, links)


def recursive_shortest_paths(g, u, v, usable):
    """Reference enumerator: BFS from v, then every descending walk from u,
    collected recursively into a list."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for w in g.neighbors(x):
            if usable(x, w) and w not in dist:
                dist[w] = dist[x] + 1
                queue.append(w)
    if u not in dist:
        return []
    out = []

    def rec(cur, acc):
        if cur == v:
            out.append(tuple(acc))
            return
        for w in g.neighbors(cur):
            if usable(cur, w) and dist.get(w, -2) == dist[cur] - 1:
                rec(w, acc + [w])

    rec(u, [u])
    return out


class TestAllShortestPaths:
    def test_grid_corner_to_corner(self):
        paths = list(all_shortest_paths(grid(5), "r0c0", "r4c4"))
        assert len(paths) == math.comb(8, 4) == 70
        assert len(set(paths)) == 70
        assert paths == sorted(paths)
        assert all(len(p) - 1 == 8 and p[0] == "r0c0" and p[-1] == "r4c4" for p in paths)

    def test_same_terminal(self, icosahedron):
        assert list(all_shortest_paths(icosahedron, "n", "n")) == [("n",)]

    def test_unreachable_yields_nothing(self, five_node):
        g = Graph("ABCD", [("A", "B", UNBOUNDED), ("C", "D", UNBOUNDED)])
        assert list(all_shortest_paths(g, "A", "D")) == []
        assert list(all_shortest_paths(five_node, "A", "B", usable=lambda a, b: False)) == []

    def test_unknown_terminal(self, five_node):
        with pytest.raises(GraphError):
            list(all_shortest_paths(five_node, "A", "Z"))
        with pytest.raises(GraphError):
            list(all_shortest_paths(five_node, "Z", "A"))

    def test_asks_usable_once_per_link_direction(self):
        g = grid(4)
        asked = []

        def usable(a, b):
            asked.append((a, b))
            return True

        assert len(list(all_shortest_paths(g, "r0c0", "r3c3", usable))) == math.comb(6, 3)
        assert len(asked) == len(set(asked))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_recursive_enumerator(self, seed):
        rng = random.Random(seed)
        n = rng.randint(6, 30)
        nodes = [f"n{i}" for i in range(n)]
        pairs = {link_key(nodes[i], nodes[rng.randrange(i)]) for i in range(1, n)}
        while len(pairs) < int(1.8 * n):
            pairs.add(link_key(*rng.sample(nodes, 2)))
        g = Graph(nodes, [(u, v, UNBOUNDED) for u, v in sorted(pairs)])
        banned = set(rng.sample(sorted(pairs), len(pairs) // 5))

        def usable(a, b):
            return link_key(a, b) not in banned

        for _ in range(20):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert list(all_shortest_paths(g, u, v, usable)) == \
                recursive_shortest_paths(g, u, v, usable)
            assert list(all_shortest_paths(g, u, v)) == \
                recursive_shortest_paths(g, u, v, lambda a, b: True)


def random_costed_grid(rng: random.Random):
    """A random part of an r x c grid, so many shortest routes tie on length,
    with a cost of 0-2 on each link and a fifth of the links unusable;
    returns the graph, the usable predicate and the cost function."""
    r, c = rng.randint(2, 5), rng.randint(2, 5)
    full = grid(max(r, c))
    nodes = [f"r{i}c{j}" for i in range(r) for j in range(c)]
    keep = set(nodes)
    links = [(a, b) for a, b in full.links() if a in keep and b in keep and rng.random() < 0.85]
    g = Graph(nodes, [(a, b, UNBOUNDED) for a, b in links])
    costs = {link: rng.randint(0, 2) for link in links}
    banned = set(rng.sample(links, len(links) // 5))

    def usable(a, b):
        return link_key(a, b) not in banned

    def cost(a, b):
        return costs[link_key(a, b)]

    return g, usable, cost


class TestRankedRoutes:
    """ranked_routes against the depth-first oracle, its routes sorted by
    (total cost, nodes)."""

    def test_matches_sorted_oracle(self):
        seen = {"reordered": 0, "tied": 0, "unreachable": 0}
        for seed in range(10):
            rng = random.Random(seed)
            for _ in range(6):
                g, usable, cost = random_costed_grid(rng)
                nodes = g.sorted_nodes()
                for _ in range(12):
                    u, v = rng.choice(nodes), rng.choice(nodes)
                    dag = shortest_route_dag(g, v, usable)
                    plain = list(shortest_paths_oracle(g, u, v, usable))
                    ranked = sorted(plain, key=lambda p: (sum(map(cost, p, p[1:])), p))
                    assert list(ranked_routes(dag, u, v, cost)) == ranked, (seed, u, v)
                    assert list(ranked_routes(dag, u, v)) == plain, (seed, u, v)
                    prices = [sum(map(cost, p, p[1:])) for p in ranked]
                    seen["reordered"] += ranked != plain
                    seen["tied"] += len(prices) != len(set(prices))
                    seen["unreachable"] += not plain
        assert min(seen.values()) > 20, seen

    def test_dag_cut_at_the_source_layer_ranks_the_same(self):
        # built only up to u's layer, the DAG yields the full DAG's routes
        # from u, the first of them included, with and without costs
        seen = {"cut": 0, "unreachable": 0, "same": 0}
        for seed in range(10):
            rng = random.Random(100 + seed)
            for _ in range(6):
                g, usable, cost = random_costed_grid(rng)
                nodes = g.sorted_nodes()
                for _ in range(12):
                    u, v = rng.choice(nodes), rng.choice(nodes)
                    full = shortest_route_dag(g, v, usable)
                    short = shortest_route_dag(g, v, usable, until=u)
                    assert next(ranked_routes(short, u, v, cost), None) == \
                        next(ranked_routes(full, u, v, cost), None), (seed, u, v)
                    assert list(ranked_routes(short, u, v, cost)) == \
                        list(ranked_routes(full, u, v, cost))
                    assert list(ranked_routes(short, u, v)) == list(ranked_routes(full, u, v))
                    assert short.items() <= full.items()
                    seen["cut"] += len(short) < len(full)
                    seen["unreachable"] += u not in full
                    seen["same"] += u == v
        assert min(seen.values()) > 5, seen

    def test_same_terminal(self):
        g, usable, cost = random_costed_grid(random.Random(1))
        dag = shortest_route_dag(g, "r0c0", usable)
        assert list(ranked_routes(dag, "r0c0", "r0c0", cost)) == [("r0c0",)]

    def test_unreachable_target(self):
        g = Graph("ABCD", [("A", "B", UNBOUNDED), ("C", "D", UNBOUNDED)])
        dag = shortest_route_dag(g, "D")
        assert sorted(dag) == ["C", "D"]
        assert list(ranked_routes(dag, "A", "D", lambda a, b: 1)) == []

    def test_unknown_terminal(self, five_node):
        with pytest.raises(GraphError, match="unknown node Z"):
            shortest_route_dag(five_node, "Z")
        dag = shortest_route_dag(five_node, "A")
        assert list(ranked_routes(dag, "Z", "A")) == []

    def test_work_sees_each_expansion(self):
        # the 70 corner-to-corner routes of a 5x5 grid, all at cost 0: the
        # first is drawn greedily, the rest expand every prefix once
        g = grid(5)
        dag = shortest_route_dag(g, "r4c4")
        reported = []
        routes = list(ranked_routes(dag, "r0c0", "r4c4", work=reported.append))
        assert len(routes) == 70 and routes == sorted(routes)
        prefixes = {p[:i] for p in routes for i in range(1, len(p))}
        assert sorted(reported) == sorted(len(dag[p[-1]]) for p in prefixes)

    def test_dag_keeps_links_usable_when_built(self, five_node):
        open_links = {link_key(a, b) for a, b in five_node.links()}
        dag = shortest_route_dag(five_node, "B", lambda a, b: link_key(a, b) in open_links)
        open_links.clear()
        assert list(ranked_routes(dag, "C", "B")) == [("C", "A", "B"), ("C", "D", "B")]


def test_distance_sum_disconnected():
    g = Graph("ABCD", [("A", "B", UNBOUNDED), ("C", "D", UNBOUNDED)])
    with pytest.raises(GraphError):
        distance_sum(g)
