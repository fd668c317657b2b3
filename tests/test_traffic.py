import time

import pytest

from pxtmesh.plan import Demand
from pxtmesh.topologies import LARGE_NODE_SETS, standard_topology
from pxtmesh.traffic import (
    MAX_DEMANDS,
    SplitMix64,
    TrafficSpec,
    base_pairs,
    dump_demands,
    generate,
    load_demands,
    neighbor,
    shuffled,
    unbalanced,
    uniform,
)


class TestCounts:
    def test_uniform(self, icosahedron):
        assert len(generate(icosahedron, uniform(5))) == 5 * 66

    def test_neighbor(self, icosahedron):
        assert len(generate(icosahedron, neighbor(10))) == 300

    def test_unbalanced(self, grid3x4):
        demands = generate(grid3x4, unbalanced(LARGE_NODE_SETS["grid3x4"]))
        assert len(demands) == 36 * 2 + 27 * 8 + 3 * 14

    def test_neighbor_scales_with_links(self, k66):
        assert len(generate(k66, neighbor(10))) == 360


class TestSpecValidation:
    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            TrafficSpec("poisson", k=1)

    def test_unbalanced_needs_large_set(self):
        with pytest.raises(ValueError, match="large"):
            TrafficSpec("unbalanced")

    def test_large_nodes_must_exist(self, k66):
        with pytest.raises(ValueError, match="not in graph"):
            base_pairs(k66, unbalanced(("a0", "nope", "a2")))


class TestShuffling:
    def test_splitmix_reference_values(self):
        # standard SplitMix64 test vector for seed 1234567
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973

    def test_permutation(self, icosahedron):
        base = base_pairs(icosahedron, uniform(5))
        mixed = shuffled(base, 42)
        assert sorted(mixed) == sorted(base)
        assert mixed != base

    def test_same_seed_same_order(self, icosahedron):
        a = generate(icosahedron, uniform(5, seed=99))
        b = generate(icosahedron, uniform(5, seed=99))
        assert a == b

    def test_different_seeds_differ(self, icosahedron):
        a = generate(icosahedron, uniform(5, seed=1))
        b = generate(icosahedron, uniform(5, seed=2))
        assert [(d.u, d.v) for d in a] != [(d.u, d.v) for d in b]

    def test_no_seed_keeps_base_order(self, icosahedron):
        demands = generate(icosahedron, uniform(5))
        assert [(d.u, d.v) for d in demands] == base_pairs(icosahedron, uniform(5))

    def test_ids_follow_arrival_order(self, icosahedron):
        demands = generate(icosahedron, uniform(5, seed=7))
        assert [d.id for d in demands] == list(range(len(demands)))


class TestDemandFiles:
    def test_round_trip(self, icosahedron):
        demands = generate(icosahedron, uniform(2, seed=5))
        text = dump_demands(demands)
        again = load_demands(icosahedron, text)
        assert [(d.u, d.v) for d in again] == [(d.u, d.v) for d in demands]

    def test_counts_coalesce(self, icosahedron):
        demands = generate(icosahedron, neighbor(10))
        text = dump_demands(demands)
        assert " 10" in text.splitlines()[0]
        assert len(text.splitlines()) == 30

    def test_unknown_node_rejected(self, icosahedron):
        with pytest.raises(ValueError, match="unknown node"):
            load_demands(icosahedron, "demand n nowhere 1")

    def test_bad_count_rejected(self, icosahedron):
        with pytest.raises(ValueError):
            load_demands(icosahedron, "demand n s 0")

    @pytest.mark.parametrize("line,reason", [
        ("demand a0 b0 x", "bad count 'x'"),
        ("demand a0 a0 2", "terminals must be distinct"),
    ])
    def test_malformed_line_named(self, k66, line, reason):
        with pytest.raises(ValueError) as exc:
            load_demands(k66, line + "\n")
        assert str(exc.value) == f"line 1: {reason}"

    def test_count_over_the_cap_fails_before_allocating(self, k66):
        text = "demand a0 b0 3\n# a count that would exhaust memory\ndemand a0 b1 999999999999\n"
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            load_demands(k66, text)
        assert time.perf_counter() - start < 1.0
        assert str(exc.value) == f"line 3: more than {MAX_DEMANDS} demands in one file"

    def test_cap_counts_the_whole_file(self, k66):
        half = MAX_DEMANDS // 2
        assert len(load_demands(k66, f"demand a0 b0 {half}\ndemand a0 b1 {half}\n")) \
            == 2 * half
        with pytest.raises(ValueError, match="^line 2: more than"):
            load_demands(k66, f"demand a0 b0 {half}\ndemand a0 b1 {half + 1}\n")
