import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdvmatch.core import (
    HostTree,
    RdvInstance,
    VertexPath,
    adjacency_oracle,
    oracle_adjacency,
    validate_instance,
)
from rdvmatch.gen import (
    GenConfig,
    fixture_trampoline,
    fixture_trampoline_instance,
    gen_comb,
    gen_dense,
    gen_random,
    intervals_to_rdv,
)
from rdvmatch.geometry import assign_coordinates
from rdvmatch.io import write_instance

from conftest import topological
from test_acceptance import GROWTH_FAMILIES, _star
from test_matching import adversarial_instances, chain_instance

# every test runs on the native route, then on the pure one: see conftest.route
pytestmark = pytest.mark.usefixtures("route")


def edge_count(inst):
    return sum(len(a) for a in oracle_adjacency(inst)) // 2


def ancestor_walk_reference(cfg):
    """Plain gen_random as first written: the same random tree, then per
    vertex a uniform bottom and a uniform entry of its ancestor chain."""
    rng = random.Random(cfg.seed)
    parents = [0] * cfg.tree_nodes
    open_nodes = [1]
    child_count = [0] * (cfg.tree_nodes + 1)
    for node in range(2, cfg.tree_nodes + 1):
        pick = rng.randrange(len(open_nodes))
        parent = open_nodes[pick]
        parents[node - 1] = parent
        child_count[parent] += 1
        if child_count[parent] >= cfg.max_branching:
            open_nodes[pick] = open_nodes[-1]
            open_nodes.pop()
        open_nodes.append(node)
    tree = HostTree(parents)
    vertices = []
    for _ in range(cfg.n_vertices):
        bottom = rng.randint(1, cfg.tree_nodes)
        chain = [bottom]
        while tree.parent(chain[-1]) != 0:
            chain.append(tree.parent(chain[-1]))
        vertices.append(VertexPath(chain[rng.randrange(len(chain))], bottom))
    return RdvInstance(tree, tuple(vertices), 1)


class TestGenRandom:
    def test_single_node_tree_forces_clique(self):
        inst = gen_random(GenConfig(seed=5, tree_nodes=1, n_vertices=3))
        assert all(
            adjacency_oracle(inst, i, j)
            for i in range(1, 4)
            for j in range(i + 1, 4)
        )

    def test_equal_seeds_serialize_identically(self):
        cfg = GenConfig(seed=77, tree_nodes=30, n_vertices=25, max_branching=3, delta=2)
        assert write_instance(gen_random(cfg)) == write_instance(gen_random(cfg))

    def test_different_seeds_differ(self):
        a = GenConfig(seed=1, tree_nodes=30, n_vertices=25)
        b = GenConfig(seed=2, tree_nodes=30, n_vertices=25)
        assert write_instance(gen_random(a)) != write_instance(gen_random(b))

    def test_soundness_sweep(self):
        for seed in range(100):
            cfg = GenConfig(
                seed=seed,
                tree_nodes=1 + seed % 37,
                n_vertices=seed % 23,
                max_branching=1 + seed % 5,
                delta=1 + seed % 3,
            )
            assert validate_instance(gen_random(cfg)) == []

    def test_max_branching_respected(self):
        inst = gen_random(GenConfig(seed=9, tree_nodes=200, n_vertices=0, max_branching=1))
        # branching 1 forces a path
        assert all(
            len(inst.tree.children(u)) <= 1
            for u in range(1, inst.tree.node_count + 1)
        )

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            gen_random(GenConfig(seed=1, tree_nodes=0, n_vertices=1))
        with pytest.raises(ValueError):
            gen_random(GenConfig(seed=1, tree_nodes=3, n_vertices=1, max_branching=0))

    def test_plain_vertices_equal_ancestor_walk(self):
        """Tops resolved in one preorder pass give the same file as
        walking each bottom's ancestor chain, on every branching bound."""
        for max_branching in range(1, 6):
            for seed in range(30):
                cfg = GenConfig(
                    seed=seed,
                    tree_nodes=1 + (seed * 37) % 300,
                    n_vertices=(seed * 11) % 200,
                    max_branching=max_branching,
                )
                assert write_instance(gen_random(cfg)) == write_instance(
                    ancestor_walk_reference(cfg)
                ), cfg


class TestGenDense:
    def test_smallest_family_member(self):
        inst = gen_dense(4)
        assert inst.tree.node_count == 4
        assert validate_instance(inst) == []
        assert edge_count(inst) >= 4

    def test_density_constant_at_64(self):
        inst = gen_dense(64)
        assert edge_count(inst) >= 64 * 64 // 8

    def test_tree_stays_linear(self):
        for n in (2, 7, 33, 100):
            inst = gen_dense(n)
            assert inst.tree.node_count == n
            assert validate_instance(inst) == []

    def test_edges_grow_quadratically(self):
        counts = {n: edge_count(gen_dense(n)) for n in (32, 64, 128)}
        assert 3.0 <= counts[64] / counts[32] <= 5.0
        assert 3.0 <= counts[128] / counts[64] <= 5.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gen_dense(1)


class TestGenComb:
    def test_no_edge(self):
        for n in (1, 2, 9, 40):
            inst = gen_comb(n, seed=n)
            assert validate_instance(inst) == []
            assert edge_count(inst) == 0

    def test_spine_leaf_ranges_are_suffixes(self):
        n = 37
        inst = gen_comb(n, seed=5)
        coords = assign_coordinates(inst.tree)
        assert coords.leaf_count == n
        tops = [inst.top(v) for v in range(1, n + 1)]
        ranges = sorted((coords.x[t], coords.r[t]) for t in tops)
        assert ranges == [(i, n) for i in range(1, n + 1)]

    def test_seed_permutes_vertex_ids(self):
        a, b = gen_comb(30, seed=1), gen_comb(30, seed=2)
        assert write_instance(a) != write_instance(b)
        assert sorted(a.vertices) == sorted(b.vertices)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gen_comb(0, seed=1)


class TestIntervalsToRdv:
    def test_disjoint_intervals(self):
        inst = intervals_to_rdv([(1, 2), (5, 6)])
        assert not adjacency_oracle(inst, 1, 2)

    def test_nested_intervals(self):
        inst = intervals_to_rdv([(1, 10), (3, 4)])
        assert adjacency_oracle(inst, 1, 2)

    def test_touching_intervals_intersect(self):
        inst = intervals_to_rdv([(1, 3), (3, 7)])
        assert adjacency_oracle(inst, 1, 2)

    def test_malformed_interval_rejected(self):
        with pytest.raises(ValueError, match="interval 2"):
            intervals_to_rdv([(1, 2), (5, 4)])

    def test_overlap_matrix_matches_oracle(self):
        rng = random.Random(321)
        intervals = [
            tuple(sorted((rng.randint(0, 60), rng.randint(0, 60))))
            for _ in range(200)
        ]
        inst = intervals_to_rdv(intervals)
        assert validate_instance(inst) == []
        adj = oracle_adjacency(inst)
        for i in range(200):
            lo1, hi1 = intervals[i]
            for j in range(i + 1, 200):
                lo2, hi2 = intervals[j]
                overlap = lo1 <= hi2 and lo2 <= hi1
                assert ((j + 1) in adj[i + 1]) == overlap

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)).map(
                lambda p: (min(p), max(p))
            ),
            min_size=2,
            max_size=12,
        )
    )
    def test_overlap_property(self, intervals):
        inst = intervals_to_rdv(intervals)
        for i in range(len(intervals)):
            for j in range(i + 1, len(intervals)):
                lo1, hi1 = intervals[i]
                lo2, hi2 = intervals[j]
                assert adjacency_oracle(inst, i + 1, j + 1) == (
                    lo1 <= hi2 and lo2 <= hi1
                )


class TestTrampolineFixture:
    def test_structure(self):
        adj, order = fixture_trampoline()
        assert order == [1, 2, 3, 4, 5, 6, 7, 8]
        inner = {5, 6, 7, 8}
        for a in inner:
            assert inner - {a} <= set(adj[a])
        for a in (1, 2, 3, 4):
            assert not set(adj[a]) & {1, 2, 3, 4}
            assert len(adj[a]) == 2

    def test_instance_realizes_same_graph(self):
        adj, _ = fixture_trampoline()
        inst = fixture_trampoline_instance()
        assert validate_instance(inst) == []
        assert inst.delta == 2
        for i in range(1, 9):
            for j in range(i + 1, 9):
                assert adjacency_oracle(inst, i, j) == (j in adj[i])

    def test_shipped_example_file_matches_fixture(self):
        from pathlib import Path

        from rdvmatch.io import load_instance

        path = Path(__file__).resolve().parent.parent / "docs" / "trampoline.rdv"
        assert load_instance(path) == fixture_trampoline_instance()


def test_every_generator_writes_a_topological_parent_column():
    """Node 1 is the root and every other node comes after its parent, in
    every tree the generators and the tests' chain and star builders
    write, so their instances (the benchmark's workloads and C6d's
    families among them) take the native kernel's scan route, whatever
    the machine's timings."""
    trees = [
        gen_random(
            GenConfig(seed=seed, tree_nodes=300, n_vertices=50, delta=delta, max_branching=b)
        ).tree
        for seed in range(3)
        for delta in (1, 2, 3)
        for b in range(1, 6)
    ]
    trees += [gen_random(GenConfig(seed=seed, tree_nodes=1, n_vertices=3)).tree for seed in range(3)]
    for n in (2, 3, 64, 301):
        trees += [gen_dense(n).tree, gen_comb(n, seed=n).tree, _star(n).tree]
        trees += [inst.tree for _, inst in adversarial_instances(1, n) + adversarial_instances(2, n)]
    trees += [chain_instance(k).tree for k in (4, 64, 300)]
    trees += [make(n).tree for make in GROWTH_FAMILIES.values() for n in (64, 1024)]
    trees.append(intervals_to_rdv([(0, 3), (2, 5), (7, 7)]).tree)
    assert all(map(topological, trees))
    # and the check itself refuses a child before its parent, or node 1 not the root
    assert not topological(HostTree([0, 3, 1])) and not topological(HostTree([2, 0]))
