"""Instance generators and test fixtures.

Random instances for property sweeps, a dense family whose edge count
grows quadratically while the tree stays linear (for growth-rate
benchmarks), the edgeless comb that makes every ray miss, an
interval-to-instance converter, and the 4-trampoline fixture on which
ordered greedy provably underperforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import HostTree, RdvInstance, Vertex, VertexSubtree, _column


@dataclass(frozen=True)
class GenConfig:
    """Knobs for :func:`gen_random`; all counts positive."""

    seed: int
    tree_nodes: int
    n_vertices: int
    max_branching: int = 3
    delta: int = 1


def gen_random(cfg: GenConfig) -> RdvInstance:
    """Seed-deterministic random instance.

    The tree attaches each new node to a uniformly random earlier node
    that still has room under ``max_branching``.  Plain vertices pick a
    uniform bottom node and a uniform ancestor-or-self as top; for
    delta > 1 a vertex picks a uniform top and up to delta bottoms among
    its descendants.
    """
    if cfg.tree_nodes < 1 or cfg.n_vertices < 0 or cfg.delta < 1:
        raise ValueError(f"bad generator config: {cfg}")
    if cfg.max_branching < 1:
        raise ValueError("max_branching must be at least 1")
    rng = random.Random(cfg.seed)

    parents = [0] * cfg.tree_nodes
    open_nodes = [1]  # nodes with fewer than max_branching children
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

    if cfg.delta == 1:
        tops, bottoms = _plain_vertices(tree, cfg.n_vertices, rng)
        return RdvInstance.from_columns(tree, _column(tops), _column(bottoms), None, 1)
    descendants = _descendant_lists(tree)
    tops = []
    bottoms = []
    offsets = [0]
    for _ in range(cfg.n_vertices):
        top = rng.randint(1, cfg.tree_nodes)
        pool = descendants[top]
        k = rng.randint(1, cfg.delta)
        picked: list[int] = []
        for _ in range(k):
            b = pool[rng.randrange(len(pool))]
            if b not in picked:
                picked.append(b)
        tops.append(top)
        bottoms += picked
        offsets.append(len(bottoms))
    return RdvInstance.from_columns(
        tree, _column(tops), _column(bottoms), _column(offsets), cfg.delta
    )


def _plain_vertices(
    tree: HostTree, n: int, rng: random.Random
) -> tuple[list[int], list[int]]:
    """Tops and bottoms of ``n`` vertices, each a uniform bottom node
    below a uniform ancestor-or-self of it as top.

    The depth of each vertex's top is drawn first; one preorder pass then
    resolves every top at once from the path of ancestors of the node it
    visits.  Linear in tree size plus n, however deep the tree.  Nodes
    must be numbered after their parents.
    """
    node_count = tree.node_count
    parent = tree._parent
    depth = [0] * (node_count + 1)
    for node in range(2, node_count + 1):
        depth[node] = depth[parent[node]] + 1

    bottoms = [0] * n
    top_depth = [0] * n
    first = [-1] * (node_count + 1)  # vertices sharing a bottom, linked
    nxt = [-1] * n
    for v in range(n):
        b = bottoms[v] = rng.randint(1, node_count)
        top_depth[v] = depth[b] - rng.randrange(depth[b] + 1)
        nxt[v] = first[b]
        first[b] = v

    tops = [0] * n
    path = [0] * (max(depth) + 1)  # path[d]: ancestor at depth d of node
    kid_first, kids = tree._csr
    stack = [1]
    while stack:
        node = stack.pop()
        path[depth[node]] = node
        v = first[node]
        while v >= 0:
            tops[v] = path[top_depth[v]]
            v = nxt[v]
        stack.extend(kids[kid_first[node] : kid_first[node + 1]])
    return tops, bottoms


def _descendant_lists(tree: HostTree) -> list[list[int]]:
    """Descendants-or-self per node, in BFS order from the node."""
    n = tree.node_count
    children = [tree.children(u) for u in range(n + 1)]
    out: list[list[int]] = [[] for _ in range(n + 1)]
    for node in range(1, n + 1):
        acc = [node]
        head = 0
        while head < len(acc):
            acc.extend(children[acc[head]])
            head += 1
        out[node] = acc
    return out


def gen_dense(n: int) -> RdvInstance:
    """Edge-heavy family: a path tree of n nodes where vertex i spans
    nodes ceil(i/2)..i, giving about n^2/4 edges on an n-node tree.

    Lets benchmarks show run time tracking the vertex count rather than
    the (quadratic) edge count.
    """
    if n < 2:
        raise ValueError(f"dense family needs n >= 2, got {n}")
    parents = [0] + list(range(1, n))
    tops = _column([(i + 1) // 2 for i in range(1, n + 1)])
    bottoms = _column(range(1, n + 1))
    return RdvInstance.from_columns(HostTree(parents), tops, bottoms, None, 1)


def gen_comb(n: int, seed: int) -> RdvInstance:
    """Leaf-first caterpillar: n spine nodes with one leaf each.

    Spine node ``s_i`` is tree node ``2i - 1`` and its leaf ``l_i`` is node
    ``2i``, the first child of ``s_i``, so the leaf ranges of the spine
    nodes are the suffixes ``[i, n]``.  The vertex paths ``s_i -> l_i`` are
    pairwise disjoint: the graph has no edge, every ray misses and every
    vertex inserts its segment, so the ray-shooting buckets grow to n.
    The seed permutes the vertex ids.
    """
    if n < 1:
        raise ValueError(f"comb family needs n >= 1, got {n}")
    parents = [0] * (2 * n)
    for i in range(1, n + 1):
        if i > 1:
            parents[2 * i - 2] = 2 * i - 3  # s_i hangs below s_{i-1}
        parents[2 * i - 1] = 2 * i - 1  # l_i hangs below s_i
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    tops = [0] * n
    for i, v in enumerate(ids, start=1):
        tops[v] = 2 * i - 1
    bottoms = [t + 1 for t in tops]
    return RdvInstance.from_columns(HostTree(parents), _column(tops), _column(bottoms), None, 1)


def intervals_to_rdv(intervals: list[tuple[int, int]]) -> RdvInstance:
    """Closed integer intervals as downward paths in a path-shaped tree.

    Endpoints are ranked with all left endpoints ahead of right endpoints
    at equal values, so touching intervals stay intersecting.  The graph
    of the result equals interval overlap.
    """
    for k, (lo, hi) in enumerate(intervals, start=1):
        if lo > hi:
            raise ValueError(f"interval {k}: lo {lo} > hi {hi}")
    events: list[tuple[int, int, int]] = []  # (value, side, interval idx)
    for k, (lo, hi) in enumerate(intervals):
        events.append((lo, 0, k))
        events.append((hi, 1, k))
    events.sort()
    top = [0] * len(intervals)
    bottom = [0] * len(intervals)
    for rank, (_value, side, k) in enumerate(events, start=1):
        if side == 0:
            top[k] = rank
        else:
            bottom[k] = rank
    n_nodes = max(2 * len(intervals), 1)
    parents = [0] + list(range(1, n_nodes))
    return RdvInstance.from_columns(HostTree(parents), _column(top), _column(bottom), None, 1)


def fixture_trampoline() -> tuple[list[list[int]], list[int]]:
    """The 4-trampoline (4-sun) as explicit adjacency plus greedy order.

    Inner clique {5,6,7,8}; outer vertices 1..4 each adjacent to two inner
    ones (1: 6,7; 2: 5,7; 3: 6,8; 4: 5,8).  With order 1..8 the greedy
    matches (1,6), (2,5), (3,8) and strands 4 and 7, although a perfect
    matching of size 4 exists.
    """
    edges = [
        (1, 6), (1, 7),
        (2, 5), (2, 7),
        (3, 6), (3, 8),
        (4, 5), (4, 8),
        (5, 6), (5, 7), (5, 8),
        (6, 7), (6, 8),
        (7, 8),
    ]
    adjacency: list[list[int]] = [[] for _ in range(9)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for lst in adjacency:
        lst.sort()
    return adjacency, list(range(1, 9))


def fixture_trampoline_instance() -> RdvInstance:
    """The 4-trampoline as a delta=2 clique-tree instance.

    Host tree: node 1 carries the outer clique {1,6,7}, node 2 the inner
    clique {5,6,7,8}, nodes 3..5 the outer cliques of vertices 2, 3, 4.
    Its bottom-up order makes both greedy routes reproduce the size-3
    matching while the true maximum is 4.
    """
    tree = HostTree([0, 1, 2, 2, 2])
    vertices: tuple[Vertex, ...] = (
        VertexSubtree(1, (1,)),        # v1 in clique node 1 only
        VertexSubtree(3, (3,)),        # v2
        VertexSubtree(4, (4,)),        # v3
        VertexSubtree(5, (5,)),        # v4
        VertexSubtree(2, (3, 5)),      # v5 in nodes 2, 3, 5
        VertexSubtree(1, (4,)),        # v6 on the path 1-2-4
        VertexSubtree(1, (3,)),        # v7 on the path 1-2-3
        VertexSubtree(2, (4, 5)),      # v8 in nodes 2, 4, 5
    )
    return RdvInstance(tree, vertices, 2)
