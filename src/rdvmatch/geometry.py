"""Tree coordinates and the segment view of adjacency.

Every host-tree node gets a point: ``x`` is the index of its leftmost
descendant leaf (leaves numbered 1..L left to right in fixed children
order), ``y`` its depth below the root, and ``r`` the index of its
rightmost descendant leaf.  A vertex with top node t and bottom node b
then becomes

* a horizontal segment at the depth of t spanning x(t)..r(t), and
* an upward vertical ray starting at (x(b), depth of b).

For vertices processed in bottom-up order, the ray of a later vertex hits
the segment of an earlier one exactly when the two downward paths share a
tree node, which lets a matching algorithm discover neighbors with ray
shooting instead of edge scans.

Segments at the same depth are separated by an integer perturbation: with
n vertices, the segment of the vertex at bottom-up rank i sits at

    ys = y(t) * n + (n - i + 1)

and a ray from bottom node b reaches up from scaled origin (y(b) + 1) * n.
All comparisons stay exact in integer arithmetic, and ``ys <= origin``
holds iff ``y(t) <= y(b)`` unscaled.  The offset is strictly positive, so
a segment one level deeper can never collide with a ray origin, and among
segments at equal depth the maximum ys belongs to the minimum rank.

:func:`assign_coordinates` is the one traversal of the host tree a solve
makes: validation reads ancestry from its output
(:func:`rdvmatch.core.checked_coordinates`) and the matching loop reads
the same arrays.  The perturbation is written once, in
:func:`segment_height` and :func:`ray_origin`.  The reference loop
:func:`rdvmatch.matching.rayshoot_greedy` passes their values straight to
a ray-shooting index.  The fast loop answers the same shots with a find
over the host tree, whose leaf ranges are the segments' x-ranges, and
ranks the hits of several rays by bottom-up rank, which orders them as
their heights do; it calls neither function.
:class:`HSegment` and :class:`RayQuery` are the per-vertex view used by
the ``rdvmatch segments`` dump and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .core import HostTree, RdvInstance


@dataclass(frozen=True)
class NodeCoords:
    """Per-node coordinates; 1-based arrays with slot 0 unused."""

    x: tuple[int, ...]
    y: tuple[int, ...]
    r: tuple[int, ...]
    leaf_count: int


class HSegment(NamedTuple):
    """Horizontal segment of one vertex: [x_lo, x_hi] at scaled height ys."""

    owner: int
    ys: int
    x_lo: int
    x_hi: int


class RayQuery(NamedTuple):
    """Vertical ray from scaled origin y_origin at abscissa x, directed
    upward (toward smaller y)."""

    x: int
    y_origin: int


def assign_coordinates(tree: HostTree) -> NodeCoords:
    """Compute x, y, r for every node in one pass over the tree.

    Iterative traversal (host trees can be deep paths, so no recursion).
    Leaves are numbered in their left-to-right traversal order; a node's
    x is the number of the next leaf when it is entered, and its r the
    last leaf numbered when it is left.
    The tree needs exactly one root; nodes it does not reach (a parent
    cycle) keep ``x == 0``, which is how validation finds them.
    """
    n = tree.node_count
    x = [0] * (n + 1)
    y = [0] * (n + 1)
    r = [0] * (n + 1)
    first, kids = tree._csr

    # depth-first, children left to right; an internal node also pushes
    # its exit mark ~node, popped once its whole subtree is numbered.
    # Children are pushed one by one, last first, straight from the
    # children column (no slice per node).  ``leaf`` is the last leaf
    # numbered and ``next_leaf`` the next; every node entered or left
    # stores one of those two objects, so a tree allocates one int per
    # leaf, not one per coordinate
    stack = [tree.root]
    push = stack.append
    depth = leaf = 0
    next_leaf = 1
    while stack:
        node = stack.pop()
        if node < 0:
            r[~node] = leaf
            depth -= 1
            continue
        y[node] = depth
        x[node] = next_leaf
        lo = first[node]
        hi = first[node + 1] - 1
        if lo > hi:
            r[node] = leaf = next_leaf
            next_leaf = leaf + 1
            continue
        push(~node)
        depth += 1
        while hi >= lo:
            push(kids[hi])
            hi -= 1

    return NodeCoords(tuple(x), tuple(y), tuple(r), leaf)


def segment_height(top_depth: int, n: int, rank: int) -> int:
    """Scaled height ys of the segment of the vertex at bottom-up rank
    ``rank`` (1-based) among ``n``, whose top node is at ``top_depth``."""
    return top_depth * n + (n - rank + 1)


def ray_origin(bottom_depth: int, n: int) -> int:
    """Scaled origin of the upward ray from a bottom node at ``bottom_depth``."""
    return (bottom_depth + 1) * n


def build_segment(
    inst: RdvInstance, coords: NodeCoords, order: list[int], rank: int
) -> HSegment:
    """Horizontal segment for the vertex at bottom-up rank ``rank`` (1-based)."""
    n = len(order)
    v = order[rank - 1]
    top = inst.top(v)
    return HSegment(
        owner=v,
        ys=segment_height(coords.y[top], n, rank),
        x_lo=coords.x[top],
        x_hi=coords.r[top],
    )


def build_ray(inst: RdvInstance, coords: NodeCoords, j: int, bottom: int) -> RayQuery:
    """Upward ray for vertex ``j`` from one of its bottom nodes."""
    return RayQuery(x=coords.x[bottom], y_origin=ray_origin(coords.y[bottom], inst.n))


def segment_top_bound(inst: RdvInstance, coords: NodeCoords, j: int) -> int:
    """Scaled lower bound on ys for segments the finite query of vertex j
    may report.

    ``bound <= ys`` holds exactly when the segment's depth is at least the
    depth of t(v_j); the +1 closes the corner where a rank-1 segment one
    level higher would otherwise tie the bound.
    """
    n = inst.n
    return coords.y[inst.top(j)] * n + 1


def segment_intersects(s: HSegment, q: RayQuery, as_segment_top: int) -> bool:
    """Finite-segment intersection test in scaled coordinates.

    True iff the vertical segment from ``as_segment_top`` down to
    ``q.y_origin`` at abscissa ``q.x`` crosses ``s``.  The ray form used
    by the matching loop drops the ``as_segment_top`` bound: there it is
    implied, because live segments only ever belong to vertices processed
    earlier, whose tops are at least as deep.
    """
    return s.x_lo <= q.x <= s.x_hi and as_segment_top <= s.ys <= q.y_origin
