"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <id> ...: PASS`` line on success
(run with ``pytest -s`` to see them); a failure carries the offending
seed/instance in its assertion message.  All tolerances are exact except
the growth-ratio gate, whose threshold is fixed at 2.8x per doubling.
"""

import random
import sys
import tracemalloc

import pytest

from rdvmatch import _kernel
from rdvmatch.bench import bench_sweep, doubling_ratios
from rdvmatch.core import (
    HostTree,
    RdvInstance,
    VertexPath,
    adjacency_oracle,
    bottom_up_order,
    compress_tree,
    oracle_adjacency,
    validate_instance,
)
from rdvmatch.gen import (
    GenConfig,
    fixture_trampoline,
    gen_comb,
    gen_dense,
    gen_random,
    intervals_to_rdv,
)
from rdvmatch.geometry import (
    assign_coordinates,
    build_ray,
    build_segment,
    segment_intersects,
    segment_top_bound,
)
from rdvmatch.matching import (
    _shoot_greedy,
    delayed_greedy,
    delayed_greedy_delta,
    greedy_reference,
    is_simple_vertex,
    maximum_matching_oracle,
)
from rdvmatch.io import parse_instance, write_instance
from rdvmatch.rayshoot import RayShootIndex

from test_matching import chain_instance


def _mixed_instance(seed, n_max, delta=1, tree_factor=2):
    """Seed-deterministic instance with varied size and tree shape."""
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    tree_nodes = rng.randint(1, max(2, tree_factor * n))
    return gen_random(
        GenConfig(
            seed=seed,
            tree_nodes=tree_nodes,
            n_vertices=n,
            max_branching=rng.randint(1, 5),
            delta=delta,
        )
    )


def test_c1_delayed_greedy_is_maximum():
    """C1: delayed greedy matches the exact search oracle on 500 instances."""
    instances = 500
    for seed in range(instances):
        inst = _mixed_instance(seed, n_max=22)
        got = len(delayed_greedy(inst))
        want, _ = maximum_matching_oracle(oracle_adjacency(inst), bound=22)
        assert got == want, f"seed {seed}: delayed {got} != maximum {want}"
    print(f"ACCEPTANCE C1 optimality vs exact oracle: PASS ({instances} instances, n <= 22)")


def _star(n):
    """Every vertex runs from the root to one of n leaves: a clique."""
    leaves = [VertexPath(1, 2 + i % n) for i in range(n)]
    return RdvInstance(HostTree([0] + [1] * n), tuple(leaves), 1)


def test_c1b_delayed_greedy_is_maximum_at_scale():
    """C1b: delayed greedy matches Edmonds' blossom algorithm at n ~ 1000.

    The graph comes from ``oracle_adjacency``, and networkx's
    ``max_weight_matching(G, maxcardinality=True)`` gives the maximum.
    Shapes whose graph has Theta(n^2) edges (dense, chain, star and the
    random path tree) run at the size where they hold 35k-61k edges, as
    many as the random tree has at n = 1000, so that the whole check
    stays within a few seconds.
    """
    nx = pytest.importorskip("networkx")
    rng = random.Random(0xC1B)
    shapes = {
        "random": gen_random(GenConfig(seed=1, tree_nodes=1000, n_vertices=1000)),
        "comb": gen_comb(1000, seed=1),
        "intervals": intervals_to_rdv(
            [(a, a + rng.randint(0, 30)) for a in (rng.randint(0, 3000) for _ in range(1000))]
        ),
        "dense": gen_dense(400),
        "chain": chain_instance(400),
        "star": _star(300),
        "path": gen_random(GenConfig(seed=2, tree_nodes=500, n_vertices=500, max_branching=1)),
    }
    for name, inst in shapes.items():
        adjacency = oracle_adjacency(inst)
        graph = nx.Graph()
        graph.add_nodes_from(range(1, inst.n + 1))
        graph.add_edges_from((i, j) for i in range(1, inst.n + 1) for j in adjacency[i] if i < j)
        want = len(nx.max_weight_matching(graph, maxcardinality=True))
        got = len(delayed_greedy(inst))
        assert got == want, f"{name}: delayed {got} != maximum {want}"
    print(f"ACCEPTANCE C1b optimality vs blossom: PASS ({len(shapes)} shapes, n <= 1000)")


def test_c2_segment_query_equals_path_oracle():
    """C2: ray/segment intersection == path intersection, all rank pairs."""
    instances = 100
    pairs = 0
    for seed in range(instances):
        inst = _mixed_instance(10_000 + seed, n_max=200)
        coords = assign_coordinates(inst.tree)
        order = bottom_up_order(inst, coords)
        n = inst.n
        segs = [build_segment(inst, coords, order, r) for r in range(1, n + 1)]
        adj = oracle_adjacency(inst)
        neighbor_sets = [set(a) for a in adj]
        for rj in range(2, n + 1):
            vj = order[rj - 1]
            ray = build_ray(inst, coords, vj, inst.bottoms(vj)[0])
            bound = segment_top_bound(inst, coords, vj)
            for ri in range(1, rj):
                vi = order[ri - 1]
                geometric = segment_intersects(segs[ri - 1], ray, bound)
                assert geometric == (vj in neighbor_sets[vi]), (
                    f"seed {seed}: pair ({vi}, {vj}) geometric={geometric}"
                )
                pairs += 1
    print(f"ACCEPTANCE C2 segment/oracle equivalence: PASS ({instances} instances, {pairs} pairs)")


def test_c3_delayed_equals_greedy_reference():
    """C3: both greedy phrasings emit identical edge sets, n up to 2000."""
    sizes = [2 + (seed * 13) % 299 for seed in range(88)]
    sizes += [301 + (seed * 53) % 500 for seed in range(9)]
    sizes += [1500, 1800, 2000]
    for seed, n in enumerate(sizes):
        rng = random.Random(20_000 + seed)
        inst = gen_random(
            GenConfig(
                seed=20_000 + seed,
                tree_nodes=rng.randint(max(2, n // 2), 2 * n),
                n_vertices=n,
                max_branching=rng.randint(1, 5),
            )
        )
        coords = assign_coordinates(inst.tree)
        order = bottom_up_order(inst, coords)
        reference = greedy_reference(oracle_adjacency(inst), order)
        delayed = delayed_greedy(inst)
        assert delayed.edges() == reference.edges(), f"seed {seed}, n {n}"
    print(f"ACCEPTANCE C3 delayed == greedy reference: PASS ({len(sizes)} instances, n <= 2000)")


def test_c4_rayshoot_replay_against_shadow():
    """C4: >= 1e5 randomized index ops agree with a linear-scan shadow."""
    ops = 110_000
    x_max = 512
    capacity = 60_000
    rng = random.Random(0xC4)
    idx = RayShootIndex(x_max, capacity)
    shadow = {}
    ys_pool = list(range(1, 3 * ops))
    rng.shuffle(ys_pool)
    next_owner = 1
    shoots = inserts = deletes = 0
    for _ in range(ops):
        roll = rng.random()
        if not shadow or (roll < 0.40 and len(shadow) < 256 and next_owner <= capacity):
            owner = next_owner
            next_owner += 1
            x_lo = rng.randint(1, x_max)
            x_hi = min(x_max, x_lo + rng.choice((0, 1, 3, 17, 80, x_max)))
            ys = ys_pool.pop()
            idx.insert(owner, x_lo, x_hi, ys)
            shadow[owner] = (x_lo, x_hi, ys)
            inserts += 1
        elif roll < 0.55:
            owner = rng.choice(sorted(shadow))
            idx.delete(owner)
            del shadow[owner]
            deletes += 1
        else:
            x = rng.randint(1, x_max)
            y_origin = rng.randint(0, 3 * ops)
            best = None
            best_ys = -1
            for owner, (x_lo, x_hi, ys) in shadow.items():
                if x_lo <= x <= x_hi and best_ys < ys <= y_origin:
                    best, best_ys = owner, ys
            assert idx.shoot(x, y_origin) == best, f"diverged at shoot ({x}, {y_origin})"
            shoots += 1
        assert len(idx) == len(shadow)
    print(
        "ACCEPTANCE C4 rayshoot shadow replay: PASS "
        f"({ops} ops: {inserts} inserts, {deletes} deletes, {shoots} shoots)"
    )


def test_c5_trampoline_fixture():
    """C5: ordered greedy yields the size-3 trace; true maximum is 4."""
    adj, order = fixture_trampoline()
    greedy = greedy_reference(adj, order)
    assert greedy.edges() == [(1, 6), (2, 5), (3, 8)]
    assert greedy.vertices() == {1, 2, 3, 5, 6, 8}  # 4 and 7 left free
    maximum, _ = maximum_matching_oracle(adj)
    assert maximum == 4
    print("ACCEPTANCE C5 trampoline fixture: PASS (greedy 3 with 4,7 free; maximum 4)")


def test_c6_dense_family_growth_ratio():
    """C6: on ~n^2/4 edges, median time grows <= 2.8x per doubling of n.

    Size 2^k runs 7 * 2^(16 - k) repeats, so that every size spans about
    the wall time of the 7 repeats at 2^16: a slow stretch of a loaded
    machine then covers a similar share of each size's repeats, instead
    of most of a small size's few milliseconds.
    """
    records = [
        rec
        for k in range(10, 17)
        for rec in bench_sweep("dense", range(k, k + 1), repeats=7 << (16 - k))
    ]
    ratios = doubling_ratios(records)
    assert all(r <= 2.8 for r in ratios), (
        f"growth ratios {['%.2f' % r for r in ratios]} exceed 2.8, "
        f"medians {[rec.median_ns for rec in records]}"
    )
    pretty = ", ".join(f"{r:.2f}" for r in ratios)
    print(f"ACCEPTANCE C6 quasi-linear growth on dense family: PASS (ratios {pretty})")


def _line_events(solve, inst):
    """Python line events executed by ``solve(inst)``."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        solve(inst)
    finally:
        sys.settrace(outer)
    return count


# C6b's and C6d's families: the shapes where a find without skip pointers
# would climb long runs of empty nodes (dense, chain and a random path
# tree) plus the edgeless comb and a typical random tree
GROWTH_FAMILIES = {
    "comb": lambda n: gen_comb(n, seed=n),
    "chain": chain_instance,
    "dense": gen_dense,
    "random": lambda n: gen_random(
        GenConfig(seed=n, tree_nodes=n, n_vertices=n, max_branching=3)
    ),
    "path": lambda n: gen_random(
        GenConfig(seed=n, tree_nodes=n, n_vertices=n, max_branching=1)
    ),
}


def test_c6b_line_event_growth_ratio():
    """C6b: line events of the pure route grow <= 2.25x per doubling of n.

    The machine-independent twin of C6 for the pure route of the entry
    points, ``_shoot_greedy`` (validation, order and the find loop),
    which runs wherever the native kernel is not built or refuses an
    instance.
    """
    worst = 0.0
    for name, make in GROWTH_FAMILIES.items():
        counts = [_line_events(_shoot_greedy, make(1 << k)) for k in range(10, 14)]
        ratios = [b / a for a, b in zip(counts, counts[1:])]
        assert all(r <= 2.25 for r in ratios), (
            f"{name}: line-event ratios {['%.2f' % r for r in ratios]} exceed 2.25, "
            f"counts {counts}"
        )
        worst = max(worst, *ratios)
    print(
        "ACCEPTANCE C6b line-event growth: PASS "
        f"({len(GROWTH_FAMILIES)} families, n = 2^10..2^13, worst ratio {worst:.2f})"
    )


@pytest.mark.skipif(_kernel.kernel is None, reason=f"kernel not built: {_kernel.LOAD_ERROR}")
def test_c6d_find_step_growth_ratio():
    """C6d: find steps of the native kernel grow <= 2.25x per doubling of n.

    The machine-independent twin of C6 for the native solve: the kernel
    adds every step of every find to a counter, so a find that stopped
    halving its path (or linking empty nodes at all) reads quadratic on
    the path-shaped families.
    """
    worst = 0.0
    for name, make in GROWTH_FAMILIES.items():
        counts = []
        for k in range(10, 17):
            code, _, steps = _kernel.solve(make(1 << k))
            assert code == 0, f"{name}: the kernel refused n = 2^{k} (code {code})"
            counts.append(steps)
        ratios = [b / a for a, b in zip(counts, counts[1:])]
        assert all(r <= 2.25 for r in ratios), (
            f"{name}: find-step ratios {['%.2f' % r for r in ratios]} exceed 2.25, "
            f"counts {counts}"
        )
        worst = max(worst, *ratios)
    print(
        "ACCEPTANCE C6d find-step growth: PASS "
        f"({len(GROWTH_FAMILIES)} families, n = 2^10..2^16, worst ratio {worst:.2f})"
    )


# bytes per vertex of the tracemalloc peak below; the solve measured 193,
# and the instance model of tuples per vertex and per node measured 490
PEAK_BYTES_PER_VERTEX = 245


def test_c6c_peak_memory_per_vertex():
    """C6c: parsing and solving a random instance peaks at <= 245 bytes
    per vertex.

    The machine-independent memory gate next to C6 and C6b: tracemalloc
    counts the bytes Python allocates, whatever the machine's speed.
    """
    n = 1 << 13
    text = write_instance(
        gen_random(GenConfig(seed=1, tree_nodes=n, n_vertices=n, max_branching=3))
    )
    tracemalloc.start()
    try:
        delayed_greedy(parse_instance(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_vertex = peak / n
    assert per_vertex <= PEAK_BYTES_PER_VERTEX, (
        f"peak {peak} bytes is {per_vertex:.0f} per vertex, over {PEAK_BYTES_PER_VERTEX}"
    )
    print(f"ACCEPTANCE C6c peak memory: PASS ({per_vertex:.0f} bytes/vertex at n = {n})")


def test_c7_bottom_up_peeling_is_simple():
    """C7: peeling in bottom-up order only ever removes simple vertices."""
    instances = 200
    for seed in range(instances):
        inst = _mixed_instance(30_000 + seed, n_max=100)
        adj = oracle_adjacency(inst)
        coords = assign_coordinates(inst.tree)
        order = bottom_up_order(inst, coords)
        alive = set(range(1, inst.n + 1))
        for v in order:
            assert is_simple_vertex(adj, v, alive), f"seed {seed}, vertex {v}"
            alive.remove(v)
    print(f"ACCEPTANCE C7 simple-vertex peeling: PASS ({instances} instances, n <= 100)")


def test_c8_delta_generalization():
    """C8: delta=1 degenerates exactly; delta=2 equals the greedy reference."""
    for seed in range(100):
        inst = _mixed_instance(40_000 + seed, n_max=200)
        assert delayed_greedy_delta(inst).edges() == delayed_greedy(inst).edges(), (
            f"seed {seed}"
        )
    for seed in range(100):
        inst = _mixed_instance(50_000 + seed, n_max=100, delta=2)
        coords = assign_coordinates(inst.tree)
        order = bottom_up_order(inst, coords)
        reference = greedy_reference(oracle_adjacency(inst), order)
        assert delayed_greedy_delta(inst).edges() == reference.edges(), f"seed {seed}"
    print("ACCEPTANCE C8 delta generalization: PASS (100 delta=1 + 100 delta=2 instances)")


def test_c9_compression_preserves_graph_within_2n():
    """C9: compression keeps the graph and lands at no more than 2n nodes."""
    instances = 100
    for seed in range(instances):
        delta = 1 if seed % 2 else 2
        inst = _mixed_instance(60_000 + seed, n_max=100, delta=delta, tree_factor=4)
        out = compress_tree(inst)
        assert validate_instance(out) == [], f"seed {seed}"
        assert out.tree.node_count <= 2 * inst.n, (
            f"seed {seed}: {out.tree.node_count} nodes for n={inst.n}"
        )
        for i in range(1, inst.n + 1):
            for j in range(i + 1, inst.n + 1):
                assert adjacency_oracle(inst, i, j) == adjacency_oracle(out, i, j), (
                    f"seed {seed}: pair ({i}, {j}) changed"
                )
    print(f"ACCEPTANCE C9 compression: PASS ({instances} instances, |T'| <= 2n)")
