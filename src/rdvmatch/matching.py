"""Matching algorithms over clique-tree path representations.

Three routes to a matching:

* :func:`greedy_reference` is the textbook greedy scan over explicit
  neighbor lists, the reference both faster routes must reproduce.
* :func:`delayed_greedy_delta` runs the same greedy without ever
  materializing edges.  One traversal of the host tree yields the node
  coordinates, which both validate the instance and place the vertices;
  vertices are then processed in bottom-up order, free vertices live as
  horizontal segments in a ray-shooting index, and each vertex shoots one
  upward ray per bottom node.  For delta > 1 the greedy itself is no
  longer guaranteed to be maximum (the 4-trampoline fixture is the
  standard witness).
* :func:`delayed_greedy` is the delta = 1 case of that one loop: one ray
  per vertex, and on plain instances a maximum matching in
  O(|T| + n * polylog n) time.

:func:`maximum_matching_oracle` provides an exact exponential-time answer
for cross-checking at small sizes.
"""

from __future__ import annotations

from array import array

from .core import Matching, RdvInstance, bottom_up_order, checked_coordinates
from .geometry import NodeCoords, ray_origin, segment_height
from .rayshoot import get_index_class


def greedy_reference(adjacency: list[list[int]], order: list[int]) -> Matching:
    """Greedy matching: scan vertices in order; match each unmatched
    vertex to its unmatched neighbor earliest in the order.

    ``adjacency`` is 1-based neighbor lists (entry 0 unused) and must be
    symmetric.  O(n + m).
    """
    pos = [0] * len(adjacency)
    for p, v in enumerate(order, start=1):
        pos[v] = p
    matched = [False] * len(adjacency)
    pairs: list[tuple[int, int]] = []
    for v in order:
        if matched[v]:
            continue
        best = None
        best_pos = len(order) + 1
        for u in adjacency[v]:
            if not matched[u] and pos[u] < best_pos:
                best = u
                best_pos = pos[u]
        if best is not None:
            matched[v] = matched[best] = True
            pairs.append((v, best))
    return Matching(pairs)


def delayed_greedy(inst: RdvInstance, backend: str = "auto") -> Matching:
    """Maximum matching of a plain instance without touching its edges.

    The delta = 1 case of :func:`delayed_greedy_delta`: one ray per
    vertex, and the greedy it reproduces is maximum on plain instances.
    """
    coords = checked_coordinates(inst)
    if inst.delta != 1:
        raise ValueError("delayed_greedy requires a plain instance (delta=1)")
    return _shoot_greedy(inst, coords, backend)


def delayed_greedy_delta(inst: RdvInstance, backend: str = "auto") -> Matching:
    """Greedy matching for instances whose vertices have up to delta
    bottoms: shoot one ray per bottom, keep the hit with maximum ys.

    Maximal for the processing order, but not necessarily maximum once
    delta exceeds 1.
    """
    return _shoot_greedy(inst, checked_coordinates(inst), backend)


def _shoot_greedy(inst: RdvInstance, coords: NodeCoords, backend: str) -> Matching:
    """The matching loop shared by both entry points.

    Vertices go in bottom-up order.  A vertex matches the hit with maximum
    ys (equivalently, minimum bottom-up rank) among its rays' hits, or,
    with no hit, becomes free and inserts its own segment.  ``free_ys``
    holds the ys of each free vertex's live segment, flat, so that the
    loop keeps no per-vertex object alive.
    """
    order = bottom_up_order(inst, coords)
    n = inst.n
    index = get_index_class(backend)(max(coords.leaf_count, 1), n)
    x, y, r = coords.x, coords.y, coords.r
    free_ys = array("q", [0]) * (n + 1)
    pairs: list[tuple[int, int]] = []
    for rank, v in enumerate(order, start=1):
        best = None
        best_ys = 0
        for b in inst.bottoms(v):
            hit = index.shoot(x[b], ray_origin(y[b], n))
            if hit is not None and free_ys[hit] > best_ys:
                best = hit
                best_ys = free_ys[hit]
        if best is not None:
            index.delete(best)
            pairs.append((best, v))
        else:
            top = inst.top(v)
            ys = free_ys[v] = segment_height(y[top], n, rank)
            index.insert(v, x[top], r[top], ys)
    return Matching(pairs)


def maximum_matching_oracle(
    adjacency: list[list[int]], bound: int = 24
) -> tuple[int, Matching]:
    """Exact maximum matching size (plus one witness) by branch and bound.

    Branches on the lowest-id vertex that still has a neighbor: leave it
    unmatched, or match it to each neighbor in turn; prune whenever the
    current size plus half the remaining vertices cannot beat the best.
    Exponential worst case; refuses graphs above ``bound`` vertices.
    """
    n = len(adjacency) - 1
    if n > bound:
        raise ValueError(f"graph has {n} vertices, oracle bound is {bound}")
    masks = [0] * (n + 1)
    for v in range(1, n + 1):
        for u in adjacency[v]:
            masks[v] |= 1 << u
    best_size = 0
    best_pairs: list[tuple[int, int]] = []
    stack_pairs: list[tuple[int, int]] = []

    def search(alive: int, size: int) -> None:
        nonlocal best_size, best_pairs
        if size + (alive.bit_count() >> 1) <= best_size:
            return
        v = 0
        rest = alive
        while rest:
            cand = (rest & -rest).bit_length() - 1
            if masks[cand] & alive:
                v = cand
                break
            rest &= rest - 1
        if v == 0:
            if size > best_size:
                best_size = size
                best_pairs = list(stack_pairs)
            return
        nbrs = masks[v] & alive
        while nbrs:
            u = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            stack_pairs.append((v, u))
            search(alive & ~((1 << v) | (1 << u)), size + 1)
            stack_pairs.pop()
        search(alive & ~(1 << v), size)

    full = (1 << (n + 1)) - 2  # bits 1..n
    if n >= 1:
        search(full, 0)
    return best_size, Matching(best_pairs)


def is_simple_vertex(adjacency: list[list[int]], v: int, alive: set[int]) -> bool:
    """Is v simple in the subgraph induced by ``alive``?

    Simple means the closed neighborhood of v is a clique whose members'
    closed neighborhoods form a chain under inclusion.  Tested by sorting
    members by neighborhood size and checking consecutive containment.
    """
    if v not in alive:
        raise ValueError(f"vertex {v} is not alive")
    closed = {v, *(u for u in adjacency[v] if u in alive)}
    hoods = {
        w: {w, *(u for u in adjacency[w] if u in alive)} for w in closed
    }
    for w in closed:
        if not closed <= hoods[w]:
            return False  # some pair in N[v] is non-adjacent
    chain = sorted(closed, key=lambda w: (len(hoods[w]), w))
    for a, b in zip(chain, chain[1:]):
        if not hoods[a] <= hoods[b]:
            return False
    return True
