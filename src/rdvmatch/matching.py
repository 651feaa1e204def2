"""Matching algorithms over clique-tree path representations.

Four routes to a matching:

* :func:`greedy_reference` is the textbook greedy scan over explicit
  neighbor lists, the reference every faster route must reproduce.
* :func:`rayshoot_greedy` is the paper's reduction: vertices go in
  bottom-up order, free vertices live as horizontal segments in a
  general ray-shooting index, and each vertex shoots one upward ray per
  bottom node.  It is kept as the reference for the fast loop.
* :func:`delayed_greedy_delta` runs the same greedy without ever
  materializing edges or touching that index; :func:`_solve` picks its
  route and states the contract both routes keep.  The C kernel of
  :mod:`rdvmatch._kernel` validates the instance, orders it and runs the
  loop natively.  When the kernel
  refuses an instance, or could not be built, :func:`_shoot_greedy` runs
  the pure route: one traversal of the host tree yields the node
  coordinates, which both validate the instance and place the vertices,
  and each ray is answered by a nearest-free-ancestor find over the host
  tree itself, whose nodes hold the bottom-up ranks of their free
  vertices.  The pure route is also the reference the kernel is tested
  against.  For delta > 1 the greedy itself is no longer guaranteed to
  be maximum (the 4-trampoline fixture is the standard witness).
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
    size = 0
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
            size += 1
    return Matching.from_mates(mate, size)


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
    delta exceeds 1.  :func:`_solve` picks the route.
    """
    mate, steps = _solve(inst)
    return Matching.from_mates(mate, steps[1])


def _solve(inst: RdvInstance) -> tuple[array, array]:
    """``(mate, steps)`` of the one matching loop, on the only switch
    between its routes: the native kernel (:func:`rdvmatch._kernel.solve`)
    first, and :func:`_shoot_greedy` whenever the kernel refuses the
    instance or was not built.

    Both routes keep one contract.  ``mate`` is an ``array('q')`` of
    ``n + 1`` slots in which vertex v is matched to ``mate[v]``, or free
    (0); ``steps`` is an ``array('q')`` of three counters: the find steps,
    one per step of a find's halving walk and none of the compression walk
    after it, the pairs, and 1 when the kernel's vertex checks and order
    prefetched (0 on the pure route).  The first two are equal on both
    routes.  An invalid instance raises
    :class:`~rdvmatch.core.InvalidInstanceError` from the pure route.
    """
    code, mate, steps = _kernel.solve(inst)
    return _shoot_greedy(inst) if code else (mate, steps)


def _shoot_greedy(inst: RdvInstance) -> tuple[array, array]:
    """The pure matching loop of both entry points, and the reference for
    the native kernel, which runs the same loop.

    Vertices go in bottom-up order.  A vertex matches the hit with minimum
    bottom-up rank among its rays' hits, or, with no hit, becomes free and
    is held by its top node.

    The host tree is its own segment tree.  A free vertex's segment spans
    the leaf range of its top node t, and its height orders it first by
    the depth of t, then by rank.  Every free vertex's top is at least as
    deep as the current vertex's top, so the ray from bottom b hits
    exactly the free vertices whose top is an ancestor-or-self of b, and
    the earliest-ranked hit is the free vertex of the nearest
    ancestor-or-self of b that holds one.  The order sorts by decreasing
    top depth, so across rays too the earliest-ranked hit is the highest,
    and the loop computes no height.  No node ever holds two free
    vertices: a node that holds one is never linked, so every find of a
    later vertex with that top stops there or at an earlier hit.  ``head``
    holds each node's free vertex by rank (0: none), a vertex's hit is
    the smallest nonzero head its finds stop at, and ``order[best - 1]``
    is the vertex of rank ``best``.  A node below the current top that
    holds no free vertex is dead: every later top is at most as deep, so
    it never gets one again.  Each node's ``link`` starts at its parent,
    and a shot is a find from the bottom that stops at a node holding a
    free vertex or at the top, halving its path across every dead node.
    It never passes the top: every link points at an ancestor no
    shallower than the top it was set under, and tops come in
    non-increasing depth, so the find reads no depth.  A second walk from
    the same start then points every link of the first at the node where
    it stopped (path compression): the nodes in between are dead.  Halving and compression each cost
    O(log |T|) amortized per find without ranks (Tarjan & van Leeuwen,
    JACM 1984); the compression walk revisits only the nodes the halving
    walk stepped through, so a find costs at most twice its halving
    steps, the ones both routes count, and it only moves a link further
    along its own path, so no link path ever grows.

    The instance is validated first (:func:`checked_coordinates`), and the
    loop reads its columns and writes each pair into a mate array; it
    returns that array and its counters, as :func:`_solve` states them.
    """
    coords = checked_coordinates(inst)
    order = bottom_up_order(inst, coords)
    tops, bots, offsets = inst.tops, inst.bots, inst.offsets
    plain = offsets is None
    n = len(tops)
    link = list(inst.tree._parent)  # each node's parent until a find moves it
    head = [0] * len(link)  # 0 while the node holds no free vertex
    mate = array("q", [0]) * (n + 1)
    size = steps = 0
    for rank, v in enumerate(order, start=1):
        top = tops[v - 1]
        best = rank  # every hit ranks earlier
        # one ray per bottom: a 1-tuple on a plain instance, else the
        # vertex's slice of the bottoms column
        for start in (bots[v - 1],) if plain else bots[offsets[v - 1] : offsets[v]]:
            u = start
            # u is dead (below the top, empty for good): step to its link,
            # and across that node too when it is dead.  The walk never
            # passes the top, but only because validation placed every
            # bottom below its top
            while u != top and not head[u]:
                w = link[u]
                if w != top and not head[w]:
                    w = link[w]
                link[u] = w
                u = w
                steps += 1
            # then point every link of the walk at u, where it stopped:
            # the nodes between are dead
            w = start
            while w != u and link[w] != u:
                link[w], w = u, link[w]
            if 0 < head[u] < best:
                best = head[u]
        if best < rank:
            w = order[best - 1]
            head[tops[w - 1]] = 0
            mate[w] = v
            mate[v] = w
            size += 1
        else:
            head[top] = rank
    return mate, array("q", [steps, size, 0])


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
    size = 0
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
            size += 1
        else:
            top = inst.top(v)
            ys = free_ys[v] = segment_height(y[top], n, rank)
            index.insert(v, x[top], r[top], ys)
    return Matching.from_mates(mate, size)


def maximum_matching_oracle(
    adjacency: list[list[int]], bound: int = 24
) -> tuple[int, Matching]:
    """Exact maximum matching size (plus one witness) by branch and bound.

    Branches on a vertex v with the fewest live neighbors, matching it to
    each of them in turn; vertices with no live neighbor leave the search
    during the same scan.  Leaving v unmatched is never needed: if v is
    free in a maximum matching M, its live neighbor u is matched to some
    w (else M + uv would be larger), and M - uw + uv is a maximum
    matching that covers v.  Karp and Sipser's degree-1 rule is the case
    of one neighbor.  Prunes whenever the current size plus half the
    remaining vertices cannot beat the best.  Exponential worst case;
    refuses graphs above ``bound`` vertices.
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
        fewest = n
        rest = alive
        while rest:
            low = rest & -rest
            cand = low.bit_length() - 1
            rest ^= low
            degree = (masks[cand] & alive).bit_count()
            if degree == 0:
                alive ^= low
            elif degree < fewest:
                v, fewest = cand, degree
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

    full = (1 << (n + 1)) - 2  # bits 1..n
    if n >= 1:
        search(full, 0)
    mate = array("q", [0]) * (n + 1)
    for v, u in best_pairs:
        mate[v] = u
        mate[u] = v
    return best_size, Matching.from_mates(mate, best_size)


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
