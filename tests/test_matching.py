import pytest

from rdvmatch.core import (
    HostTree,
    InvalidInstanceError,
    Matching,
    RdvInstance,
    VertexPath,
    VertexSubtree,
    adjacency_oracle,
    bottom_up_order,
    oracle_adjacency,
)
from rdvmatch.gen import (
    GenConfig,
    fixture_trampoline,
    fixture_trampoline_instance,
    gen_comb,
    gen_dense,
    gen_random,
)
from rdvmatch.geometry import assign_coordinates
from rdvmatch.matching import (
    _shoot_greedy,
    delayed_greedy,
    delayed_greedy_delta,
    greedy_reference,
    is_simple_vertex,
    maximum_matching_oracle,
    rayshoot_greedy,
)

from conftest import random_instance


def adjacency_of(edges, n):
    adj = [[] for _ in range(n + 1)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def adversarial_instances(delta, n=200):
    """(name, instance) pairs of extreme shapes with n vertices.

    * caterpillar: ``gen_comb``, no edge, every ray misses and every
      vertex inserts, so the index buckets grow to n;
    * chain: the delete-side worst case of the ray-shooting buckets (see
      ``chain_instance``);
    * dense: ``gen_dense``, a deep path with ~n^2/4 edges;
    * star: every vertex runs from the root to one leaf (two leaves when
      ``delta`` is 2), so the graph is a clique.
    """
    leaves = [2 + (i + k) % n for i in range(n) for k in range(delta)]
    star = RdvInstance(
        HostTree([0] + [1] * n),
        tuple(VertexSubtree(1, tuple(leaves[delta * i:delta * (i + 1)])) for i in range(n)),
        delta,
    )
    return [
        ("caterpillar", gen_comb(n, seed=n)),
        ("chain", chain_instance(n)),
        ("dense", gen_dense(n)),
        ("star", star),
    ]


def chain_instance(k):
    """Path tree p_1..p_k (root p_1) with k vertices, k a multiple of 4.

    The single-node vertices p_j -> p_j of the deep half, then those of the
    quarter above it, miss and insert into the one bucket of the path's
    single leaf.  The last k/4 vertices p_1 -> p_k each hit and delete the
    oldest live entry of that bucket, the one every later entry was
    inserted after.
    """
    deep = [VertexPath(j, j) for j in range(k // 2 + 1, k + 1)]
    above = [VertexPath(i, i) for i in range(k // 4 + 1, k // 2 + 1)]
    long = [VertexPath(1, k)] * (k // 4)
    return RdvInstance(HostTree([0] + list(range(1, k))), tuple(deep + above + long), 1)


class TestGreedyReference:
    def test_edgeless_graph(self):
        assert greedy_reference(adjacency_of([], 4), [1, 2, 3, 4]) == Matching()

    def test_single_edge(self):
        m = greedy_reference(adjacency_of([(1, 2)], 2), [2, 1])
        assert m.edges() == [(1, 2)]

    def test_trampoline_trace(self):
        adj, order = fixture_trampoline()
        m = greedy_reference(adj, order)
        assert m.edges() == [(1, 6), (2, 5), (3, 8)]
        assert m.vertices() == {1, 2, 3, 5, 6, 8}  # 4 and 7 stay free

    def test_prefers_earliest_in_order(self):
        adj = adjacency_of([(1, 2), (1, 3)], 3)
        assert greedy_reference(adj, [3, 2, 1]).edges() == [(1, 3)]
        assert greedy_reference(adj, [2, 3, 1]).edges() == [(1, 2)]

    def test_equals_pair_built_matching(self):
        for seed in range(20):
            inst = random_instance(seed, delta=1 + seed % 2)
            order = bottom_up_order(inst, assign_coordinates(inst.tree))
            m = greedy_reference(oracle_adjacency(inst), order)
            rebuilt = Matching(m.edges())
            assert m == rebuilt and rebuilt == m and hash(m) == hash(rebuilt)


class TestDelayedGreedy:
    def test_single_vertex(self):
        inst = RdvInstance(HostTree([0]), (VertexPath(1, 1),), 1)
        assert delayed_greedy(inst) == Matching()

    def test_k2_at_root(self):
        inst = RdvInstance(HostTree([0]), (VertexPath(1, 1), VertexPath(1, 1)), 1)
        assert delayed_greedy(inst).edges() == [(1, 2)]

    def test_invalid_instance_rejected(self):
        inst = RdvInstance(HostTree([0, 1]), (VertexPath(2, 1),), 1)
        with pytest.raises(InvalidInstanceError):
            delayed_greedy(inst)

    def test_delta_instance_rejected(self):
        with pytest.raises(ValueError, match="plain"):
            delayed_greedy(fixture_trampoline_instance())

    def test_matches_exact_oracle_on_random_instances(self):
        for seed in range(60):
            inst = random_instance(seed)
            m = delayed_greedy(inst)
            opt, witness = maximum_matching_oracle(oracle_adjacency(inst))
            assert len(m) == opt, f"seed {seed}"
            assert len(witness) == opt

    def test_equals_greedy_reference_with_same_order(self):
        cases = [
            (f"seed {seed}", random_instance(seed, n=40, tree_nodes=50))
            for seed in range(25)
        ]
        for name, inst in cases + adversarial_instances(delta=1):
            coords = assign_coordinates(inst.tree)
            order = bottom_up_order(inst, coords)
            ref = greedy_reference(oracle_adjacency(inst), order)
            assert delayed_greedy(inst) == ref, name

    def test_every_pair_is_an_edge(self):
        inst = random_instance(17, n=30, tree_nodes=35)
        for i, j in delayed_greedy(inst).edges():
            assert adjacency_oracle(inst, i, j)


class TestDelayedGreedyDelta:
    def test_plain_instances_degenerate_to_delayed(self):
        for seed in range(25):
            inst = random_instance(seed)
            assert delayed_greedy_delta(inst) == delayed_greedy(inst)

    def test_trampoline_is_maximal_but_not_maximum(self):
        inst = fixture_trampoline_instance()
        m = delayed_greedy_delta(inst)
        assert m.edges() == [(1, 6), (2, 5), (3, 8)]
        opt, _ = maximum_matching_oracle(oracle_adjacency(inst))
        assert opt == 4

    def test_equals_greedy_reference_on_delta_instances(self):
        cases = [
            (f"seed {seed}", random_instance(seed, n=30, tree_nodes=40, delta=2))
            for seed in range(25)
        ]
        for name, inst in cases + adversarial_instances(delta=2):
            coords = assign_coordinates(inst.tree)
            order = bottom_up_order(inst, coords)
            ref = greedy_reference(oracle_adjacency(inst), order)
            assert delayed_greedy_delta(inst) == ref, name

    def test_multi_ray_any_hit_equals_oracle(self):
        # per-pair form of the subtree query: some bottom ray hits the
        # earlier segment iff the subtrees intersect
        from rdvmatch.geometry import (
            build_ray,
            build_segment,
            segment_intersects,
            segment_top_bound,
        )

        for seed in range(10):
            inst = random_instance(seed, n=25, tree_nodes=30, delta=3)
            coords = assign_coordinates(inst.tree)
            order = bottom_up_order(inst, coords)
            n = inst.n
            segs = [build_segment(inst, coords, order, r) for r in range(1, n + 1)]
            for rj in range(2, n + 1):
                vj = order[rj - 1]
                bound = segment_top_bound(inst, coords, vj)
                rays = [build_ray(inst, coords, vj, b) for b in inst.bottoms(vj)]
                for ri in range(1, rj):
                    vi = order[ri - 1]
                    hit = any(
                        segment_intersects(segs[ri - 1], q, bound) for q in rays
                    )
                    assert hit == adjacency_oracle(inst, vi, vj)


def fast_loop_corpus(n=4096):
    """(name, instance) pairs: the adversarial shapes at delta 1 and 2 and
    random trees at delta 1, 2 and 3."""
    cases = [
        (f"{name} delta={delta}", inst)
        for delta in (1, 2)
        for name, inst in adversarial_instances(delta, n)
        if inst.delta == delta  # only the star differs between the two
    ]
    cases += [
        (
            f"random delta={delta}",
            gen_random(GenConfig(seed=delta, tree_nodes=n, n_vertices=n, delta=delta)),
        )
        for delta in (1, 2, 3)
    ]
    return cases


def test_fast_loop_equals_rayshoot_reference():
    # the tree find must reproduce the paper's ray-shooting reduction,
    # adversarial shapes included
    for name, inst in fast_loop_corpus():
        ref = rayshoot_greedy(inst)
        assert delayed_greedy_delta(inst) == ref, name
        assert _shoot_greedy(inst) == ref, name
        if inst.delta == 1:
            assert delayed_greedy(inst) == ref, name


@pytest.mark.parametrize("entry", [delayed_greedy, delayed_greedy_delta])
@pytest.mark.parametrize(
    "parents",
    [[0, 0, 1], [0, 3, 2], [0, 9, 1]],
    ids=["forest", "unreachable-cycle", "parent-out-of-range"],
)
def test_malformed_tree_raises_invalid_instance(entry, parents):
    inst = RdvInstance(HostTree(parents), (VertexPath(1, 1), VertexPath(1, 3)), 1)
    with pytest.raises(InvalidInstanceError):
        entry(inst)


class TestMaximumMatchingOracle:
    def test_k2(self):
        assert maximum_matching_oracle(adjacency_of([(1, 2)], 2))[0] == 1

    def test_four_cycle(self):
        adj = adjacency_of([(1, 2), (2, 3), (3, 4), (4, 1)], 4)
        size, witness = maximum_matching_oracle(adj)
        assert size == 2
        assert len(witness) == 2

    def test_trampoline_has_perfect_matching(self):
        adj, _ = fixture_trampoline()
        assert maximum_matching_oracle(adj)[0] == 4

    def test_bound_is_enforced(self):
        adj = adjacency_of([], 30)
        with pytest.raises(ValueError, match="bound"):
            maximum_matching_oracle(adj, bound=24)

    def test_witness_pairs_are_disjoint_edges(self):
        adj, _ = fixture_trampoline()
        size, witness = maximum_matching_oracle(adj)
        for i, j in witness.edges():
            assert j in adj[i]

    def test_witness_equals_pair_built_matching(self):
        graphs = [fixture_trampoline()[0]]
        graphs += [oracle_adjacency(random_instance(seed)) for seed in range(10)]
        for adj in graphs:
            size, witness = maximum_matching_oracle(adj)
            rebuilt = Matching(witness.edges())
            assert witness == rebuilt and rebuilt == witness
            assert hash(witness) == hash(rebuilt) and len(rebuilt) == size


class TestIsSimpleVertex:
    def test_isolated_vertex_is_simple(self):
        adj = adjacency_of([], 3)
        assert is_simple_vertex(adj, 2, {1, 2, 3})

    def test_path_center_is_not_simple(self):
        adj = adjacency_of([(1, 2), (2, 3)], 3)
        assert not is_simple_vertex(adj, 2, {1, 2, 3})

    def test_path_end_is_simple(self):
        adj = adjacency_of([(1, 2), (2, 3)], 3)
        assert is_simple_vertex(adj, 1, {1, 2, 3})

    def test_dead_vertex_rejected(self):
        adj = adjacency_of([], 2)
        with pytest.raises(ValueError):
            is_simple_vertex(adj, 2, {1})

    def test_bottom_up_peeling_keeps_vertices_simple(self):
        for seed in range(15):
            inst = random_instance(seed, n=30, tree_nodes=35)
            adj = oracle_adjacency(inst)
            coords = assign_coordinates(inst.tree)
            order = bottom_up_order(inst, coords)
            alive = set(range(1, inst.n + 1))
            for v in order:
                assert is_simple_vertex(adj, v, alive), f"seed {seed} vertex {v}"
                alive.remove(v)
