"""Matching algorithms over clique-tree path representations.

Four routes to a matching:

* :func:`greedy_reference` is the textbook greedy scan over explicit
  neighbor lists, the reference every faster route must reproduce.
* :func:`rayshoot_greedy` is the paper's reduction: vertices go in
  bottom-up order, free vertices live as horizontal segments in a
  general ray-shooting index, and each vertex shoots one upward ray per
  bottom node.  It is kept as the reference for the fast loop.
* :func:`delayed_greedy_delta` runs the same greedy without ever
  materializing edges or touching that index, and is the one place that
  picks the route.  The C kernel of :mod:`rdvmatch._kernel` validates
  the instance, orders it and runs the loop natively.  When the kernel
  refuses an instance, or could not be built, :func:`_shoot_greedy` runs
  the pure route: one traversal of the host tree yields the node
  coordinates, which both validate the instance and place the vertices,
  and each ray is answered by a nearest-free-ancestor find over the host
  tree itself.  The pure route is also the reference the kernel is
  tested against.  For delta > 1 the greedy itself is no longer
  guaranteed to be maximum (the 4-trampoline fixture is the standard
  witness).
* :func:`delayed_greedy` is the delta = 1 case of that one loop: one ray
  per vertex, and on plain instances a maximum matching in
  O(|T| + n log |T|) time.  It refuses any other delta and otherwise
  calls :func:`delayed_greedy_delta`.

:func:`maximum_matching_oracle` provides an exact exponential-time answer
for cross-checking at small sizes.
"""

from __future__ import annotations

from array import array

from . import _kernel
from .core import Matching, RdvInstance, bottom_up_order, checked_coordinates
from .geometry import ray_origin, segment_height
from .rayshoot import RayShootIndex


def greedy_reference(adjacency: list[list[int]], order: list[int]) -> Matching:
    """Greedy matching: scan vertices in order; match each unmatched
    vertex to its unmatched neighbor earliest in the order.

    ``adjacency`` is 1-based neighbor lists (entry 0 unused) and must be
    symmetric.  O(n + m).
    """
    pos = [0] * len(adjacency)
    for p, v in enumerate(order, start=1):
        pos[v] = p
    mate = array("q", [0]) * len(adjacency)
    for v in order:
        if mate[v]:
            continue
        best = 0
        best_pos = len(order) + 1
        for u in adjacency[v]:
            if not mate[u] and pos[u] < best_pos:
                best = u
                best_pos = pos[u]
        if best:
            mate[v] = best
            mate[best] = v
    return Matching.from_mates(mate)


def delayed_greedy(inst: RdvInstance) -> Matching:
    """Maximum matching of a plain instance without touching its edges.

    The delta = 1 case of :func:`delayed_greedy_delta`: one ray per
    vertex, and the greedy it reproduces is maximum on plain instances.
    An invalid instance raises
    :class:`~rdvmatch.core.InvalidInstanceError` before any other delta
    is refused.
    """
    if inst.delta != 1:
        checked_coordinates(inst)
        raise ValueError("delayed_greedy requires a plain instance (delta=1)")
    return delayed_greedy_delta(inst)


def delayed_greedy_delta(inst: RdvInstance) -> Matching:
    """Greedy matching for instances whose vertices have up to delta
    bottoms: shoot one ray per bottom, keep the earliest-ranked hit.

    Maximal for the processing order, but not necessarily maximum once
    delta exceeds 1.  The native kernel solves the instance; when it
    refuses, or was not built, :func:`_shoot_greedy` does.
    """
    mate = _kernel.solve(inst)[1]
    if mate is not None:
        return Matching.from_mates(mate)
    return _shoot_greedy(inst)


def _shoot_greedy(inst: RdvInstance) -> Matching:
    """The pure matching loop of both entry points, and the reference for
    the native kernel, which runs the same loop.

    Vertices go in bottom-up order.  A vertex matches the hit with minimum
    bottom-up rank among its rays' hits, or, with no hit, becomes free and
    joins the queue of its top node.  Minimum rank is maximum ys: the
    order sorts by decreasing top depth, so an earlier rank never has a
    shallower top, and ties in depth go to the earlier rank.  So the loop
    keeps each free vertex's rank (``rank_of``) and never computes a
    height.

    The host tree is its own segment tree.  A free vertex's segment spans
    the leaf range of its top node t, and its height orders it first by
    the depth of t, then by rank.  Every free vertex's top is at least as
    deep as the current vertex's top, so the ray from bottom b hits
    exactly the free vertices whose top is an ancestor-or-self of b, and
    the earliest-ranked hit is the front of the queue of the nearest
    ancestor-or-self of b that holds one.  Queues are FIFO in rank order
    (``head``/``tail`` per node, ``nxt`` per vertex).  A node deeper than
    the current top that holds no free vertex never gets one again, so
    it links to its parent (``link``), and a shot is a find with path
    halving that stops at a node holding a free vertex or not deeper than
    the current top: O(log |T|) amortized per ray, as path halving
    without ranks guarantees.

    The instance is validated first (:func:`checked_coordinates`), and the
    loop reads its columns and writes each pair into a mate array, which
    becomes the :class:`Matching` as it is.
    """
    coords = checked_coordinates(inst)
    order = bottom_up_order(inst, coords)
    tops, bots, offsets = inst.tops, inst.bots, inst.offsets
    plain = offsets is None
    n = len(tops)
    y = coords.y
    parent = inst.tree._parent
    link = [0] * len(parent)  # 0 until the node is linked
    head = [0] * len(parent)
    tail = [0] * len(parent)
    nxt = [0] * (n + 1)
    rank_of = [0] * (n + 1)
    mate = array("q", [0]) * (n + 1)
    for rank, v in enumerate(order, start=1):
        top = tops[v - 1]
        depth = y[top]
        best = best_node = 0
        best_rank = rank  # every hit ranks earlier
        # one ray per bottom: a 1-tuple on a plain instance, else the
        # vertex's slice of the bottoms column
        for u in (bots[v - 1],) if plain else bots[offsets[v - 1] : offsets[v]]:
            while not head[u] and y[u] > depth:
                # u stays empty for good: link it to its parent on the
                # first visit, later halve the path through its link
                w = link[u]
                w = link[u] = (link[w] or w) if w else parent[u]
                u = w
            hit = head[u]
            if hit and rank_of[hit] < best_rank:
                best = hit
                best_rank = rank_of[hit]
                best_node = u
        if best:
            head[best_node] = nxt[best]
            mate[best] = v
            mate[v] = best
        else:
            rank_of[v] = rank
            if head[top]:
                nxt[tail[top]] = v
            else:
                head[top] = v
            tail[top] = v
    return Matching.from_mates(mate)


def rayshoot_greedy(inst: RdvInstance) -> Matching:
    """The paper's reduction, kept as the reference for the fast loop.

    The same greedy as :func:`delayed_greedy_delta`, with the free
    vertices held as horizontal segments in the general ray-shooting
    index of :mod:`rdvmatch.rayshoot`; each vertex shoots one upward ray
    per bottom node.  ``free_ys`` holds the ys of each free vertex's live
    segment, flat, so that the loop keeps no per-vertex object alive.
    """
    coords = checked_coordinates(inst)
    order = bottom_up_order(inst, coords)
    n = inst.n
    index = RayShootIndex(max(coords.leaf_count, 1), n)
    x, y, r = coords.x, coords.y, coords.r
    free_ys = array("q", [0]) * (n + 1)
    mate = array("q", [0]) * (n + 1)
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
            mate[best] = v
            mate[v] = best
        else:
            top = inst.top(v)
            ys = free_ys[v] = segment_height(y[top], n, rank)
            index.insert(v, x[top], r[top], ys)
    return Matching.from_mates(mate)


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
    mate = array("q", [0]) * (n + 1)
    for v, u in best_pairs:
        mate[v] = u
        mate[u] = v
    return best_size, Matching.from_mates(mate)


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
