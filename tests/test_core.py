from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdvmatch.core import (
    HostTree,
    InvalidInstanceError,
    Matching,
    RdvInstance,
    VertexPath,
    VertexSubtree,
    adjacency_oracle,
    bottom_up_order,
    compress_tree,
    oracle_adjacency,
    validate_instance,
)
from rdvmatch.geometry import assign_coordinates
from rdvmatch.io import parse_instance, write_instance
from rdvmatch.matching import delayed_greedy, delayed_greedy_delta

from conftest import random_instance

# every test runs on the native route, then on the pure one: see conftest.route
pytestmark = pytest.mark.usefixtures("route")


class TestValidate:
    def test_smallest_instance_is_valid(self):
        inst = RdvInstance(HostTree([0]), (VertexPath(1, 1),), 1)
        assert validate_instance(inst) == []

    def test_inverted_path_reported(self):
        # two-node path rooted at node 1; vertex points the wrong way
        inst = RdvInstance(HostTree([0, 1]), (VertexPath(2, 1),), 1)
        violations = validate_instance(inst)
        assert any("top 2 not ancestor of bottom 1" in v for v in violations)

    def test_forest_rejected(self):
        inst = RdvInstance(HostTree([0, 0]), (VertexPath(1, 1),), 1)
        violations = validate_instance(inst)
        assert any("multiple roots" in v for v in violations)

    def test_cycle_rejected(self):
        inst = RdvInstance(HostTree([2, 1]), (), 1)
        assert any("no root" in v for v in validate_instance(inst))

    def test_parent_cycle_below_root(self):
        # 1 is root; 2 and 3 point at each other
        inst = RdvInstance(HostTree([0, 3, 2]), (), 1)
        assert any("reachable" in v for v in validate_instance(inst))

    def test_out_of_range_ids(self):
        inst = RdvInstance(HostTree([0, 9]), (VertexPath(1, 7),), 1)
        violations = validate_instance(inst)
        assert any("parent 9 out of range" in v for v in violations)
        assert any("vertex 1: node id 7 out of range" in v for v in violations)

    def test_delta_one_requires_single_bottom(self):
        inst = RdvInstance(HostTree([0, 1, 1]), (VertexSubtree(1, (2, 3)),), 1)
        assert any("delta=1" in v for v in validate_instance(inst))

    def test_bottoms_cannot_exceed_delta(self):
        inst = RdvInstance(
            HostTree([0, 1, 1, 1]), (VertexSubtree(1, (2, 3, 4)),), 2
        )
        assert any("exceeds delta" in v for v in validate_instance(inst))

    def test_generated_instances_are_valid(self):
        for seed in range(40):
            inst = random_instance(seed, delta=1 + seed % 3)
            assert validate_instance(inst) == []

    def test_ancestry_agrees_with_parent_walk_on_every_pair(self):
        # max_branching=1 (every fourth size) makes a path, whose nodes all
        # share one leaf range, so only the depth test can tell them apart
        for size in range(1, 61):
            tree = random_instance(
                size, n=0, tree_nodes=size, max_branching=1 + size % 4
            ).tree
            pairs = [(t, b) for t in range(1, size + 1) for b in range(1, size + 1)]
            inst = RdvInstance(tree, tuple(VertexPath(t, b) for t, b in pairs), 1)
            expected = []
            for v, (t, b) in enumerate(pairs, start=1):
                node = b
                while node and node != t:
                    node = tree.parent(node)
                if node != t:
                    expected.append(f"vertex {v}: top {t} not ancestor of bottom {b}")
            assert validate_instance(inst) == expected, f"size {size}"


class TestBottomUpOrder:
    def test_all_tops_at_root_keeps_input_order(self):
        inst = RdvInstance(
            HostTree([0, 1, 1]),
            (VertexPath(1, 2), VertexPath(1, 3), VertexPath(1, 1)),
            1,
        )
        coords = assign_coordinates(inst.tree)
        assert bottom_up_order(inst, coords) == [1, 2, 3]

    def test_order_is_permutation_with_decreasing_depth(self):
        inst = random_instance(11, n=50, tree_nodes=60)
        coords = assign_coordinates(inst.tree)
        order = bottom_up_order(inst, coords)
        assert sorted(order) == list(range(1, 51))
        depths = [coords.y[inst.top(v)] for v in order]
        assert all(a >= b for a, b in zip(depths, depths[1:]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_depth_monotonicity_property(self, seed):
        inst = random_instance(seed)
        coords = assign_coordinates(inst.tree)
        order = bottom_up_order(inst, coords)
        depths = [coords.y[inst.top(v)] for v in order]
        assert sorted(order) == list(range(1, inst.n + 1))
        assert all(a >= b for a, b in zip(depths, depths[1:]))

    def test_ties_broken_by_ascending_id(self):
        # tops at equal depth, ids shuffled in the input
        inst = RdvInstance(
            HostTree([0, 1, 1]),
            (VertexPath(3, 3), VertexPath(2, 2), VertexPath(3, 3)),
            1,
        )
        coords = assign_coordinates(inst.tree)
        assert bottom_up_order(inst, coords) == [1, 2, 3]


class TestAdjacencyOracle:
    def test_identical_paths_are_adjacent(self):
        inst = RdvInstance(
            HostTree([0, 1]), (VertexPath(1, 2), VertexPath(1, 2)), 1
        )
        assert adjacency_oracle(inst, 1, 2) is True

    def test_disjoint_subtrees_are_non_adjacent(self):
        # root with two branches; one path in each branch
        inst = RdvInstance(
            HostTree([0, 1, 1]), (VertexPath(2, 2), VertexPath(3, 3)), 1
        )
        assert adjacency_oracle(inst, 1, 2) is False

    def test_rejects_equal_indices(self):
        inst = RdvInstance(HostTree([0]), (VertexPath(1, 1),), 1)
        with pytest.raises(ValueError):
            adjacency_oracle(inst, 1, 1)

    def test_symmetry(self):
        inst = random_instance(7, n=18, tree_nodes=25)
        for i in range(1, 19):
            for j in range(i + 1, 19):
                assert adjacency_oracle(inst, i, j) == adjacency_oracle(inst, j, i)

    def test_batch_matches_single_queries(self):
        # max_branching=1 is a path tree
        for delta, max_branching in ((1, None), (2, None), (3, None), (1, 1)):
            inst = random_instance(
                13, n=20, tree_nodes=30, max_branching=max_branching, delta=delta
            )
            adj = oracle_adjacency(inst)
            for i in range(1, 21):
                assert adj[i] == sorted(adj[i])
                for j in range(i + 1, 21):
                    assert (j in adj[i]) == adjacency_oracle(inst, i, j)

    def test_delta_subtrees_meeting_at_fork(self):
        # v1 owns the fork node, v2 sits in one branch below it
        inst = RdvInstance(
            HostTree([0, 1, 1]),
            (VertexSubtree(1, (2, 3)), VertexSubtree(2, (2,))),
            2,
        )
        assert adjacency_oracle(inst, 1, 2) is True

    def test_cycle_off_the_walks_is_harmless(self):
        # nodes 2 and 3 are each other's parent; vertex 1 walks 3 -> 2
        # and stops at its top, vertex 2 sits on the root
        inst = RdvInstance(
            HostTree([0, 3, 2]), (VertexPath(2, 3), VertexPath(1, 1)), 1
        )
        assert adjacency_oracle(inst, 1, 2) is False

    @pytest.mark.parametrize(
        "parents, vertex",
        [
            ([0, 3, 2], VertexPath(1, 3)),  # the walk circles 3 -> 2 -> 3
            ([0, 1, 2], VertexPath(3, 1)),  # top below its bottom on a path
            ([0, 1, 2], VertexPath(1, 4)),  # bottom beyond node_count
        ],
        ids=["cycle", "top-below-bottom", "bottom-out-of-range"],
    )
    def test_walk_that_misses_its_top_raises(self, parents, vertex):
        inst = RdvInstance(HostTree(parents), (vertex, VertexPath(1, 1)), 1)
        message = f"vertex 1: top {vertex.top} not ancestor of bottom {vertex.bottom}"
        with pytest.raises(InvalidInstanceError, match=message):
            adjacency_oracle(inst, 1, 2)
        with pytest.raises(InvalidInstanceError, match=message):
            oracle_adjacency(inst)


def graphs_equal(a, b):
    assert a.n == b.n
    for i in range(1, a.n + 1):
        for j in range(i + 1, a.n + 1):
            if adjacency_oracle(a, i, j) != adjacency_oracle(b, i, j):
                return False
    return True


class TestCompressTree:
    def test_chain_with_one_spanning_vertex_becomes_single_node(self):
        inst = RdvInstance(
            HostTree(list(range(0, 10))), (VertexPath(1, 10),), 1
        )
        out = compress_tree(inst)
        assert out.tree.node_count == 1
        assert out.vertices == (VertexPath(1, 1),)

    def test_minimal_instance_is_fixpoint(self):
        inst = RdvInstance(
            HostTree([0, 1, 1]),
            (VertexPath(1, 2), VertexPath(1, 3), VertexPath(2, 2)),
            1,
        )
        out = compress_tree(inst)
        assert out.tree.node_count == inst.tree.node_count
        assert graphs_equal(inst, out)

    def test_unused_nodes_are_removed(self):
        # root used by one vertex, five unused leaves below
        inst = RdvInstance(HostTree([0, 1, 1, 1, 1, 1]), (VertexPath(1, 1),), 1)
        out = compress_tree(inst)
        assert out.tree.node_count == 1

    def test_graph_preserved_on_random_instances(self):
        for seed in range(20):
            inst = random_instance(seed, n=30, tree_nodes=50 + seed)
            out = compress_tree(inst)
            assert graphs_equal(inst, out)
            assert validate_instance(out) == []

    def test_size_bound_and_idempotence(self):
        for seed in range(30):
            inst = random_instance(
                seed, n=2 + seed % 25, tree_nodes=10 + seed * 3, delta=1 + seed % 3
            )
            once = compress_tree(inst)
            assert once.tree.node_count <= 2 * inst.n
            twice = compress_tree(once)
            assert write_instance(twice) == write_instance(once)

    def test_new_ids_follow_bfs_then_dfs_preorder(self):
        # node 2 is used by no vertex, so node 4 hangs from node 1 once it
        # is spliced out; node 1's used children keep their BFS order, 3
        # before 4, where a preorder walk in file order would reach 4 first
        inst = RdvInstance(
            HostTree([0, 1, 1, 2]), (VertexPath(1, 1), VertexPath(3, 3), VertexPath(4, 4)), 1
        )
        assert write_instance(compress_tree(inst)) == (
            "tree 3\nparents 0 1 1\nvertices 3 1\nv 1 1\nv 2 2\nv 3 3\n"
        )

    def test_fresh_root_joins_top_level_parts(self):
        # nodes 1 and 3 are used by no vertex, so the used nodes split into
        # the parts {2, 4} and {5}, and a fresh root joins them
        inst = RdvInstance(
            HostTree([0, 1, 1, 2, 3]), (VertexPath(4, 4), VertexPath(5, 5), VertexPath(2, 4)), 1
        )
        assert write_instance(compress_tree(inst)) == (
            "tree 4\nparents 0 1 2 1\nvertices 3 1\nv 3 3\nv 4 4\nv 2 3\n"
        )

    def test_no_vertices_collapses_to_one_node(self):
        inst = RdvInstance(HostTree([0, 1, 2]), (), 1)
        out = compress_tree(inst)
        assert out.tree.node_count == 1
        assert out.n == 0


class TestMatchingType:
    def test_duplicate_endpoint_rejected(self):
        with pytest.raises(ValueError, match="more than one pair"):
            Matching([(1, 2), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Matching([(4, 4)])

    def test_pair_check_messages(self):
        with pytest.raises(ValueError, match=r"^vertex 4 cannot be matched to itself$"):
            Matching([(1, 2), (4, 4)])
        with pytest.raises(ValueError, match=r"^vertex 2 appears in more than one pair$"):
            Matching([(1, 2), (3, 2)])
        with pytest.raises(ValueError, match=r"^vertex 1 appears in more than one pair$"):
            Matching([(1, 2), (1, 3)])
        with pytest.raises(
            ValueError, match=r"^vertex 0 is not a vertex id \(ids start at 1\)$"
        ):
            Matching([(1, 2), (0, 3)])

    def test_mate_array_equals_pair_built(self):
        by_mates = Matching.from_mates(array("q", [0, 3, 5, 1, 0, 2, 0]), 2)
        by_pairs = Matching([(5, 2), (1, 3)])
        assert by_mates == by_pairs and by_pairs == by_mates
        assert hash(by_mates) == hash(by_pairs)
        assert len(by_mates) == len(by_pairs) == 2
        assert by_mates.edges() == by_pairs.edges() == [(1, 3), (2, 5)]
        assert by_mates.to_text() == by_pairs.to_text() == "matching 2\ne 1 3\ne 2 5\n"
        assert by_mates.pairs == by_pairs.pairs
        assert by_mates.vertices() == by_pairs.vertices() == {1, 2, 3, 5}
        assert list(by_mates) == list(by_pairs)
        assert repr(by_mates) == repr(by_pairs)
        assert by_mates != Matching([(1, 3)])
        assert Matching.from_mates(array("q", [0, 0, 0]), 0) == Matching()

    def test_solver_matchings_equal_pair_built(self):
        for seed in range(30):
            inst = random_instance(seed, n=40, tree_nodes=50, delta=1 + seed % 2)
            entry = delayed_greedy if inst.delta == 1 else delayed_greedy_delta
            got = entry(inst)
            rebuilt = Matching(got.edges())
            assert got == rebuilt and hash(got) == hash(rebuilt)
            assert len(got) == len(rebuilt)
            assert got.to_text() == rebuilt.to_text()
            # mate arrays of equal length compare directly
            assert got == entry(parse_instance(write_instance(inst)))


    def test_normalization_and_text(self):
        m = Matching([(5, 2), (1, 3)])
        assert m.edges() == [(1, 3), (2, 5)]
        assert m.to_text() == "matching 2\ne 1 3\ne 2 5\n"
        assert m == Matching([(2, 5), (3, 1)])


class TestColumns:
    def test_plain_instance_has_no_offsets(self):
        inst = RdvInstance(HostTree([0, 1]), (VertexPath(1, 2), VertexPath(2, 2)), 1)
        assert inst.offsets is None
        assert list(inst.tops) == [1, 2] and list(inst.bots) == [2, 2]
        assert inst.vertices == (VertexPath(1, 2), VertexPath(2, 2))

    def test_offsets_index_the_bottoms(self):
        inst = RdvInstance(
            HostTree([0, 1, 1]), (VertexSubtree(1, (2, 3)), VertexSubtree(2, (2,))), 2
        )
        assert list(inst.offsets) == [0, 2, 3]
        assert list(inst.bots) == [2, 3, 2]
        assert inst.bottoms(1) == (2, 3) and inst.bottoms(2) == (2,)
        assert inst.vertices == (VertexSubtree(1, (2, 3)), VertexSubtree(2, (2,)))

    def test_views_read_as_the_parser_builds(self):
        # a single bottom reads as a VertexPath exactly when delta is 1
        tree = HostTree([0, 1, 1])
        plain = RdvInstance(tree, (VertexSubtree(1, (2,)),), 1)
        assert plain.offsets is None and plain.vertices == (VertexPath(1, 2),)
        mixed = RdvInstance(tree, (VertexPath(1, 2), VertexSubtree(1, (2, 3))), 1)
        assert mixed.vertices == (VertexPath(1, 2), VertexSubtree(1, (2, 3)))
        assert parse_instance(write_instance(mixed)) == mixed

    def test_columns_and_tuples_build_equal_instances(self):
        for seed in range(20):
            inst = random_instance(seed, delta=1 + seed % 3)
            again = RdvInstance(inst.tree, inst.vertices, inst.delta)
            assert again == inst and hash(again) == hash(inst)
            assert again.vertices == inst.vertices

    def test_instance_is_immutable(self):
        inst = RdvInstance(HostTree([0]), (VertexPath(1, 1),), 1)
        with pytest.raises(AttributeError):
            inst.delta = 2

    def test_tree_children_in_file_order(self):
        tree = HostTree([3, 3, 0, 1, 3, 1])
        assert tree.children(3) == (1, 2, 5)
        assert tree.children(1) == (4, 6)
        assert tree.children(2) == ()
        assert tree.roots() == [3] and tree.root == 3
        odd = HostTree([0, 7, -1, 1])
        assert odd.children(1) == (4,)
        assert odd.roots() == [1]

    def test_tree_builds_from_an_array_of_any_typecode(self):
        """The parent column is an ``array('i')`` whatever integer array
        it was built from, and a list once a parent does not fit in 32
        bits."""
        for typecode in "bBhHiIlLqQ":
            tree = HostTree(array(typecode, [0, 1, 1, 2]))
            assert tree == HostTree([0, 1, 1, 2]) and tree._parent.typecode == "i", typecode
        wide = HostTree(array("q", [0, 1, 2**31]))
        assert wide._parent == [0, 0, 1, 2**31] and wide.parents() == (0, 1, 2**31)
