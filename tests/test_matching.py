import random
import shlex
import shutil
import sysconfig
from array import array

import pytest

from rdvmatch import _kernel
from rdvmatch.core import (
    HostTree,
    InvalidInstanceError,
    Matching,
    RdvInstance,
    VertexPath,
    VertexSubtree,
    adjacency_oracle,
    bottom_up_order,
    checked_coordinates,
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

# every test runs on the native route, then on the pure one: see conftest.route
pytestmark = pytest.mark.usefixtures("route")


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


def relabeled(inst, seed):
    """``inst`` with its node ids permuted by a seeded shuffle: the same
    graph and vertex ids, but about half the nodes now have a parent with
    a larger id, which no generator writes."""
    ids = list(range(1, inst.tree.node_count + 1))
    random.Random(seed).shuffle(ids)
    return renumbered(inst, [0, *ids])


def renumbered(inst, new_id):
    """``inst`` with node ``i`` renamed ``new_id[i]``, a permutation of
    the node ids after ``new_id[0] == 0`` (a root's parent stays 0)."""
    parents = [0] * inst.tree.node_count
    for node, p in enumerate(inst.tree.parents(), start=1):
        parents[new_id[node] - 1] = new_id[p]
    tops = array("q", [new_id[t] for t in inst.tops])
    bots = array("q", [new_id[b] for b in inst.bots])
    return RdvInstance.from_columns(HostTree(parents), tops, bots, inst.offsets, inst.delta)


def relabeled_cases(n=4096):
    """(name, instance, relabeled instance) triples: comb, dense, a path
    tree and random trees at delta 1 and 2, each with its node ids
    permuted by :func:`relabeled`."""
    cases = [
        ("comb", gen_comb(n, seed=n)),
        ("dense", gen_dense(n)),
        ("path", gen_random(GenConfig(seed=n, tree_nodes=n, n_vertices=n, max_branching=1))),
        ("random delta=1", gen_random(GenConfig(seed=1, tree_nodes=n, n_vertices=n))),
        ("random delta=2", gen_random(GenConfig(seed=2, tree_nodes=n, n_vertices=n, delta=2))),
    ]
    return [(name, inst, relabeled(inst, seed)) for seed, (name, inst) in enumerate(cases)]


def fast_loop_corpus(n=4096):
    """(name, instance) pairs: the adversarial shapes at delta 1 and 2,
    random trees at delta 1, 2 and 3, and the relabeled instances of
    :func:`relabeled_cases`."""
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
    cases += [(f"relabeled {name}", inst) for name, _, inst in relabeled_cases(n)]
    return cases


def fifo_shoot_greedy(inst):
    """The find loop of ``_shoot_greedy`` as it was with a FIFO queue of
    free vertices per node (``head``, ``tail``, and ``nxt`` per rank):
    the matching, and how often a miss appended to a nonempty queue."""
    coords = checked_coordinates(inst)
    order = bottom_up_order(inst, coords)
    y, parent, tops = coords.y, inst.tree._parent, inst.tops
    link, head, tail = [0] * len(parent), [0] * len(parent), [0] * len(parent)
    nxt = [0] * (inst.n + 1)
    mate = array("q", [0]) * (inst.n + 1)
    size = appends = 0
    for rank, v in enumerate(order, start=1):
        top = tops[v - 1]
        best = rank
        for u in inst.bottoms(v):
            while not head[u] and y[u] > y[top]:
                w = link[u]
                w = link[u] = (link[w] or w) if w else parent[u]
                u = w
            if 0 < head[u] < best:
                best = head[u]
        if best < rank:
            w = order[best - 1]
            head[tops[w - 1]] = nxt[best]
            mate[w], mate[v] = v, w
            size += 1
        elif head[top]:
            appends += 1
            nxt[tail[top]] = rank
            tail[top] = rank
        else:
            head[top] = tail[top] = rank
    return Matching.from_mates(mate, size), appends


def test_route_is_in_force(route):
    """The pure runs see no kernel, and the native runs the one the import
    built, which every machine with a C compiler builds."""
    if route == "pure":
        assert _kernel.kernel is None
    else:
        cc = shlex.split(sysconfig.get_config_var("CC") or "")
        if cc and shutil.which(cc[0]):
            assert _kernel.kernel is not None, _kernel.LOAD_ERROR


def test_no_node_ever_holds_two_free_vertices():
    # a node that holds a free vertex is never linked, so a later vertex
    # with the same top always hits: the queue the loop once kept per
    # node never took a second vertex, and one rank per node suffices
    corpus = fast_loop_corpus(512) + [
        (f"seed={seed}", random_instance(seed, max_branching=1 + seed % 5, delta=1 + seed % 3))
        for seed in range(600)
    ]
    for name, inst in corpus:
        matching, appends = fifo_shoot_greedy(inst)
        assert appends == 0, name
        assert _shoot_greedy(inst)[0] == matching._mate, name
        assert delayed_greedy_delta(inst) == matching, name


def test_fast_loop_equals_rayshoot_reference():
    # the tree find must reproduce the paper's ray-shooting reduction,
    # adversarial shapes included
    for name, inst in fast_loop_corpus():
        ref = rayshoot_greedy(inst)
        assert delayed_greedy_delta(inst) == ref, name
        assert _shoot_greedy(inst)[0] == ref._mate, name
        if inst.delta == 1:
            assert delayed_greedy(inst) == ref, name


def shuffled_vertices(inst, seed):
    """``inst`` (delta 1, one bottom each) with its vertex ids permuted by
    a seeded shuffle: the same tree and vertex paths, so the same graph,
    with the ties among tops of one depth ranked another way."""
    assert inst.offsets is None
    ids = list(range(inst.n))
    random.Random(seed).shuffle(ids)
    tops = array("q", [inst.tops[i] for i in ids])
    bots = array("q", [inst.bots[i] for i in ids])
    return RdvInstance.from_columns(inst.tree, tops, bots, None, 1)


def test_tie_order_within_a_depth_keeps_the_size():
    # the bottom-up order ranks tops of one depth by vertex id, and for
    # delta = 1 any order of those ties gives a maximum matching: the
    # oracle's size on small instances, one size across orders at scale
    for seed in range(400):
        inst = random_instance(seed, n=2 + seed % 13)
        maximum, _ = maximum_matching_oracle(oracle_adjacency(inst))
        for shuffle in range(8 * seed, 8 * seed + 8):
            assert len(delayed_greedy(shuffled_vertices(inst, shuffle))) == maximum, seed
    n = 2**12
    shapes = {
        "random": gen_random(GenConfig(seed=n, tree_nodes=n, n_vertices=n)),
        "path": gen_random(GenConfig(seed=n, tree_nodes=n, n_vertices=n, max_branching=1)),
        "dense": gen_dense(n),
        "comb": gen_comb(n, seed=n),
    }
    for name, inst in shapes.items():
        sizes = {len(delayed_greedy(shuffled_vertices(inst, seed))) for seed in range(5)}
        assert sizes == {len(delayed_greedy(inst))}, (name, sizes)


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

    def test_equals_blossom_on_general_graphs(self):
        """The search is exact on any graph, not only on RDV graphs: its
        size equals networkx's blossom maximum on every labelled graph with
        at most 5 vertices and on 300 seeded G(n, p) graphs with n <= 14,
        the sparse ones with isolated vertices, and its witness is a
        matching of that size made of the graph's edges."""
        nx = pytest.importorskip("networkx")
        graphs = []
        for n in range(1, 6):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            for bits in range(1 << len(pairs)):
                graphs.append(
                    (n, [pair for k, pair in enumerate(pairs) if bits >> k & 1])
                )
        rng = random.Random(0x0AC1E)
        isolated = 0
        for _ in range(300):
            n, p = rng.randint(1, 14), rng.choice((0.1, 0.2, 0.35, 0.5, 0.8))
            edges = [
                (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p
            ]
            isolated += len({v for pair in edges for v in pair}) < n
            graphs.append((n, edges))
        assert isolated >= 100
        for n, edges in graphs:
            g = nx.Graph(edges)
            g.add_nodes_from(range(1, n + 1))
            adj = adjacency_of(edges, n)
            size, witness = maximum_matching_oracle(adj)
            assert size == len(nx.max_weight_matching(g, maxcardinality=True)), (n, edges)
            pairs = witness.edges()
            ends = [v for pair in pairs for v in pair]
            assert all(g.has_edge(i, j) for i, j in pairs), (n, edges)
            assert len(ends) == len(set(ends)), (n, edges)
            assert len(witness) == len(pairs) == size, (n, edges)


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
