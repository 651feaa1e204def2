"""Benchmark workloads: one generated instance family each.

The seed is a benchmark argument; the program under test only ever sees
the generated instance text.  Every workload runs at ``n = 2**16``
vertices, large enough that ``comb``'s growth ratio departs from
``random``'s (see README.md for what each workload loads and predicts).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from rdvmatch.core import HostTree, RdvInstance, VertexPath
from rdvmatch.gen import GenConfig, gen_dense, gen_random


def gen_comb(n: int, seed: int) -> RdvInstance:
    """Caterpillar with ``n`` spine nodes and one leaf per spine node.

    Spine node ``s_i`` is tree node ``2i - 1`` and its leaf ``l_i`` is node
    ``2i``, so the leaf comes first among ``s_i``'s children and the leaf
    ranges of the spine nodes are suffixes ``[i, n]``.  Vertex paths are
    ``s_i -> l_i``: they are pairwise disjoint, so the graph has no edge,
    every ray misses and every vertex inserts its segment.  The seed
    permutes the vertex ids.
    """
    if n < 1:
        raise ValueError(f"comb needs n >= 1, got {n}")
    parents = [0] * (2 * n)
    for i in range(1, n + 1):
        if i > 1:
            parents[2 * i - 2] = 2 * i - 3
        parents[2 * i - 1] = 2 * i - 1
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    vertices: list[VertexPath] = [VertexPath(0, 0)] * n
    for i, v in enumerate(ids, start=1):
        vertices[v] = VertexPath(2 * i - 1, 2 * i)
    return RdvInstance(HostTree(parents), tuple(vertices), 1)


def comb_problems(ref, adjacency: list[list[int]]) -> list[str]:
    """Shape checks for a small comb: no edge, and the leaf ranges of the
    spine nodes are exactly the suffixes ``[i, n]`` (leaf-first order)."""
    out = []
    if any(adjacency[1:]):
        out.append("comb graph has an edge")
    ranges = sorted((ref.x[t], ref.r[t]) for t in ref.tops[1:])
    if ranges != [(i, ref.leaf_count) for i in range(1, ref.n + 1)]:
        out.append("spine leaf ranges are not the suffixes [i, n]")
    return out


def _random(delta: int) -> Callable[[int, int], RdvInstance]:
    def make(n: int, seed: int) -> RdvInstance:
        return gen_random(
            GenConfig(seed=seed, tree_nodes=n, n_vertices=n, max_branching=3, delta=delta)
        )

    return make


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    entry: str  # rdvmatch entry point each solve calls
    make: Callable[[int, int], RdvInstance]  # (n, seed) -> instance
    check_n: int  # size of the set-up cross-check against greedy_reference
    closed_size: Callable[[int], int] | None = None  # matching size from n
    shape_problems: Callable | None = None  # (Reference, adjacency) -> problems


N = 1 << 16

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "random", N, "delayed_greedy", _random(1), 1 << 10,
        ),
        Workload(
            # oracle_adjacency walks O(n) nodes per pair on a path tree
            "dense", N, "delayed_greedy", lambda n, seed: gen_dense(n), 1 << 9,
            closed_size=lambda n: n // 2,
        ),
        Workload(
            "comb", N, "delayed_greedy", gen_comb, 1 << 10,
            closed_size=lambda n: 0, shape_problems=comb_problems,
        ),
        Workload(
            "delta2", N, "delayed_greedy_delta", _random(2), 1 << 10,
        ),
    )
}
