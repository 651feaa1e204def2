"""Instance model for rooted clique-tree representations.

An instance is a rooted host tree plus, for every graph vertex, a downward
path in that tree (given by its top and bottom node).  Two vertices are
adjacent exactly when their paths share a tree node; the graph itself is
never materialized.  A generalized instance may attach up to ``delta``
downward paths to one vertex (a subtree with at most ``delta`` leaves),
stored as a top node plus one bottom node per path.

Node ids and vertex ids are 1-based dense integers throughout.  Internal
per-node arrays have length ``node_count + 1`` with slot 0 unused.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

from .geometry import NodeCoords, assign_coordinates


class VertexPath(NamedTuple):
    """Downward path of one vertex: ``top`` is an ancestor of ``bottom``."""

    top: int
    bottom: int


class VertexSubtree(NamedTuple):
    """Vertex subtree split into downward paths sharing the top node."""

    top: int
    bottoms: tuple[int, ...]


Vertex = Union[VertexPath, VertexSubtree]


class HostTree:
    """Rooted ordered tree over nodes ``1..node_count``.

    Built from a parent array where entry ``i`` (0-based) is the parent of
    node ``i + 1`` and ``0`` marks the root.  Children keep the order in
    which they appear in the parent array; coordinates depend on it, so it
    is fixed once and never reordered.

    Construction is permissive (out-of-range parents, several roots and
    cycles are representable) so that :func:`validate_instance` can report
    violations instead of crashing.

    The package's per-node loops index the tables ``_parent`` (slot 0
    holds 0) and ``_children`` directly instead of calling
    :meth:`parent` and :meth:`children` once per node.
    """

    __slots__ = ("node_count", "_parent", "_children")

    def __init__(self, parents: Sequence[int]):
        n = len(parents)
        self.node_count = n
        par = self._parent = (0, *parents)
        # children grouped by parent, in file order within each group (the
        # sort is stable); slicing that one tuple builds the table without
        # a temporary list per node
        counts = Counter(parents)
        by_parent = tuple(sorted(range(1, n + 1), key=par.__getitem__))
        kids: list[tuple[int, ...]] = [()] * (n + 1)
        start = 0
        for p in sorted(counts):
            end = start + counts[p]
            if 1 <= p <= n:
                kids[p] = by_parent[start:end]
            start = end
        self._children = tuple(kids)

    def parent(self, node: int) -> int:
        """Parent id of ``node``, or 0 for a root."""
        return self._parent[node]

    def children(self, node: int) -> tuple[int, ...]:
        return self._children[node]

    def parents(self) -> tuple[int, ...]:
        """Parent array in file order (entry k is the parent of node k+1)."""
        return self._parent[1:]

    def roots(self) -> list[int]:
        return [i for i in range(1, self.node_count + 1) if self._parent[i] == 0]

    @property
    def root(self) -> int:
        if self._parent.count(0) != 2:  # slot 0 and the one root
            raise ValueError(f"tree has {len(self.roots())} roots, expected exactly one")
        return self._parent.index(0, 1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HostTree) and self._parent == other._parent

    def __hash__(self) -> int:
        return hash(self._parent)

    def __repr__(self) -> str:
        return f"HostTree({list(self.parents())!r})"


@dataclass(frozen=True)
class RdvInstance:
    """Host tree plus one downward path (or path bundle) per vertex.

    ``delta`` bounds the number of bottom nodes any vertex may carry;
    plain instances have ``delta == 1`` and every vertex a single bottom.
    Immutable after construction; safe to share across threads.
    """

    tree: HostTree
    vertices: tuple[Vertex, ...]
    delta: int = 1

    @property
    def n(self) -> int:
        return len(self.vertices)

    def top(self, v: int) -> int:
        return self.vertices[v - 1].top

    def bottoms(self, v: int) -> tuple[int, ...]:
        vert = self.vertices[v - 1]
        if isinstance(vert, VertexPath):
            return (vert.bottom,)
        return vert.bottoms


class Matching:
    """Set of matched vertex pairs with no shared endpoint."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        seen: set[int] = set()
        norm: set[tuple[int, int]] = set()
        for a, b in pairs:
            if a == b:
                raise ValueError(f"vertex {a} cannot be matched to itself")
            if a in seen or b in seen:
                dup = a if a in seen else b
                raise ValueError(f"vertex {dup} appears in more than one pair")
            seen.add(a)
            seen.add(b)
            norm.add((a, b) if a < b else (b, a))
        self._pairs = frozenset(norm)

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return self._pairs

    def edges(self) -> list[tuple[int, int]]:
        """Pairs as (i, j) with i < j, sorted lexicographically."""
        return sorted(self._pairs)

    def vertices(self) -> set[int]:
        return {v for pair in self._pairs for v in pair}

    def to_text(self) -> str:
        lines = [f"matching {len(self._pairs)}"]
        lines.extend(f"e {i} {j}" for i, j in self.edges())
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self):
        return iter(self.edges())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Matching):
            return self._pairs == other._pairs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"Matching({self.edges()!r})"


class InvalidInstanceError(ValueError):
    """Raised by algorithms that require a well-formed instance."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid instance: " + "; ".join(violations))


def validate_instance(inst: RdvInstance) -> list[str]:
    """Check every structural invariant and return the violations found.

    An empty list means the instance is well-formed.  Violations carry the
    offending node/vertex ids.  Structural tree defects (multiple roots,
    cycles) suppress the per-vertex ancestry checks, which are only
    meaningful on a valid tree.
    """
    return _validate(inst)[0]


def checked_coordinates(inst: RdvInstance) -> NodeCoords:
    """Node coordinates of a well-formed instance.

    Validation and coordinates share one traversal of the host tree.
    Raises :class:`InvalidInstanceError` with every violation otherwise.
    """
    violations, coords = _validate(inst)
    if violations:
        raise InvalidInstanceError(violations)
    return coords


def _validate(inst: RdvInstance) -> tuple[list[str], NodeCoords | None]:
    """Violations of ``inst``, plus its coordinates when the tree is sound.

    Range and root checks come first, because :func:`assign_coordinates`
    needs exactly one root.  Its output then answers the rest: nodes the
    root does not reach keep ``x == 0``, and node t is an ancestor-or-self
    of node b iff ``x(t) <= x(b)``, ``r(b) <= r(t)`` and ``y(t) <= y(b)``
    (leaf ranges nest, and the depth test separates the nodes of a unary
    chain, which share one range).
    """
    tree = inst.tree
    n_nodes = tree.node_count
    parent = tree._parent
    violations: list[str] = []

    if n_nodes < 1:
        return ["tree has no nodes"], None

    # slot 0 holds 0, so it changes neither bound
    if min(parent) < 0 or max(parent) > n_nodes:
        for i in range(1, n_nodes + 1):
            p = parent[i]
            if p != 0 and not (1 <= p <= n_nodes):
                violations.append(f"node {i}: parent {p} out of range 1..{n_nodes}")

    n_roots = parent.count(0) - 1
    if n_roots == 0:
        violations.append("no root: every node has a parent (cycle)")
    elif n_roots > 1:
        violations.append("multiple roots: nodes " + ", ".join(map(str, tree.roots())))

    coords = None
    if not violations:
        coords = assign_coordinates(tree)
        reached = n_nodes + 1 - coords.x.count(0)  # slot 0 is always 0
        if reached != n_nodes:
            violations.append(
                f"only {reached} of {n_nodes} nodes reachable from root (cycle)"
            )
            coords = None

    delta = inst.delta
    if delta < 1:
        violations.append(f"delta must be at least 1, got {delta}")

    if coords is not None:
        x, y, r = coords.x, coords.y, coords.r
    for v, vert in enumerate(inst.vertices, start=1):
        top = vert[0]
        if isinstance(vert, VertexPath):
            b = vert[1]
            if 1 <= top <= n_nodes and 1 <= b <= n_nodes and delta >= 1:
                # a single bottom in range: only its ancestry can fail
                if coords is not None and not (
                    x[top] <= x[b] and r[b] <= r[top] and y[top] <= y[b]
                ):
                    violations.append(f"vertex {v}: top {top} not ancestor of bottom {b}")
                continue
            bottoms: tuple[int, ...] = (b,)
        else:
            bottoms = vert[1]
        ids_ok = True
        for node in (top, *bottoms):
            if not (1 <= node <= n_nodes):
                violations.append(f"vertex {v}: node id {node} out of range")
                ids_ok = False
        if len(bottoms) == 0:
            violations.append(f"vertex {v}: no bottom nodes")
            continue
        if delta == 1 and len(bottoms) != 1:
            violations.append(
                f"vertex {v}: {len(bottoms)} bottoms but delta=1 requires exactly one"
            )
        elif len(bottoms) > delta:
            violations.append(
                f"vertex {v}: {len(bottoms)} bottoms exceeds delta={delta}"
            )
        if coords is not None and ids_ok:
            for b in bottoms:
                if not (x[top] <= x[b] and r[b] <= r[top] and y[top] <= y[b]):
                    violations.append(
                        f"vertex {v}: top {top} not ancestor of bottom {b}"
                    )
    return violations, coords


def bottom_up_order(inst: RdvInstance, coords) -> list[int]:
    """Vertices sorted by decreasing depth of their top node.

    Ties are broken by ascending vertex id, which makes the order (and
    everything downstream of it) reproducible.  Counting sort over depth
    values, linear in tree size plus vertex count.

    ``coords`` comes from :func:`rdvmatch.geometry.assign_coordinates`.
    """
    depth_of = coords.y
    depths = [depth_of[vert[0]] for vert in inst.vertices]
    if not depths:
        return []
    # counting sort with no list per depth: first count each depth, then
    # turn the counts into the next free slot of each depth, deepest first
    slot_of = [0] * (max(depths) + 1)
    for d in depths:
        slot_of[d] += 1
    slot = 0
    for d in range(len(slot_of) - 1, -1, -1):
        slot, slot_of[d] = slot + slot_of[d], slot
    out = [0] * len(depths)
    for v, d in enumerate(depths, start=1):
        out[slot_of[d]] = v
        slot_of[d] += 1
    return out


def _walk_depth(tree: HostTree, node: int) -> int:
    d = 0
    while tree.parent(node) != 0:
        node = tree.parent(node)
        d += 1
    return d


def adjacency_oracle(inst: RdvInstance, i: int, j: int) -> bool:
    """Do the subtrees of vertices i and j share a host-tree node?

    Reference test working directly on the tree via parent walks; it never
    touches coordinates or segments, so it can independently check the
    geometric query path.  Costs O(depth) per constituent path pair, which
    is fine for an oracle but not for the fast matching route.
    """
    if i == j:
        raise ValueError("adjacency oracle requires two distinct vertices")
    tree = inst.tree
    depths: dict[int, int] = {}

    def depth(u: int) -> int:
        d = depths.get(u)
        if d is None:
            d = depths[u] = _walk_depth(tree, u)
        return d

    ti = inst.top(i)
    tj = inst.top(j)
    for bi in inst.bottoms(i):
        for bj in inst.bottoms(j):
            # the topmost node common to two downward paths is one of the
            # two top nodes, so checking both tops suffices
            for u, t, b in ((ti, tj, bj), (tj, ti, bi)):
                du, dt, db = depth(u), depth(t), depth(b)
                if dt <= du <= db:
                    node = b
                    for _ in range(db - du):
                        node = tree.parent(node)
                    if node == u:
                        return True
    return False


def oracle_adjacency(inst: RdvInstance) -> list[list[int]]:
    """Materialize neighbor lists by exhaustive pairwise oracle queries.

    Batch variant of :func:`adjacency_oracle` (same parent-walk logic, one
    shared depth precomputation).  Quadratic in the vertex count; meant for
    cross-checks, not for the matching fast path.
    """
    tree = inst.tree
    n = inst.n
    depths = _bfs_depths(tree)
    parent = tree.parent
    tops = [0] * (n + 1)
    bots: list[tuple[int, ...]] = [()] * (n + 1)
    for v in range(1, n + 1):
        tops[v] = inst.top(v)
        bots[v] = inst.bottoms(v)
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(1, n + 1):
        ti = tops[i]
        for j in range(i + 1, n + 1):
            tj = tops[j]
            hit = False
            for u, t, other_bots in ((ti, tj, bots[j]), (tj, tops[i], bots[i])):
                if hit:
                    break
                du = depths[u]
                if depths[t] > du:
                    continue
                for b in other_bots:
                    if depths[b] < du:
                        continue
                    node = b
                    for _ in range(depths[b] - du):
                        node = parent(node)
                    if node == u:
                        hit = True
                        break
            if hit:
                adj[i].append(j)
                adj[j].append(i)
    return adj


def _bfs_depths(tree: HostTree) -> list[int]:
    depths = [0] * (tree.node_count + 1)
    queue = [tree.root]
    while queue:
        nxt: list[int] = []
        for node in queue:
            d = depths[node] + 1
            for c in tree.children(node):
                depths[c] = d
                nxt.append(c)
        queue = nxt
    return depths


def compress_tree(inst: RdvInstance) -> RdvInstance:
    """Shrink the host tree without changing the represented graph.

    Two reductions are applied until neither fires:

    * nodes used by no vertex are spliced out (their children reattach to
      the nearest used ancestor); if that leaves several top-level used
      components, a single fresh root joins them,
    * adjacent nodes used by exactly the same vertex set are merged.

    The result has at most ``2n`` nodes and is a fixpoint: compressing
    again returns a byte-identical instance.  Runs in time proportional to
    the total size of all vertex subtrees, which is fine at cross-check
    scale (the fast matching path never needs compression).
    """
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstanceError(violations)
    tree = inst.tree
    n_nodes = tree.node_count

    users: list[set[int]] = [set() for _ in range(n_nodes + 1)]
    for v in range(1, inst.n + 1):
        top = inst.top(v)
        for b in inst.bottoms(v):
            node = b
            while True:
                users[node].add(v)
                if node == top:
                    break
                node = tree.parent(node)

    if inst.n == 0:
        return RdvInstance(HostTree([0]), (), inst.delta)

    # splice out unused nodes: up_used[u] = u if used, else nearest used
    # strict ancestor (0 if none); computed top-down in BFS order
    up_used = [0] * (n_nodes + 1)
    order = [tree.root]
    head = 0
    while head < len(order):
        node = order[head]
        head += 1
        p = tree.parent(node)
        if users[node]:
            up_used[node] = node
        else:
            up_used[node] = up_used[p] if p else 0
        order.extend(tree.children(node))

    used_children: list[list[int]] = [[] for _ in range(n_nodes + 1)]
    top_roots: list[int] = []
    for node in order:
        if not users[node]:
            continue
        p = up_used[tree.parent(node)] if tree.parent(node) else 0
        if p:
            used_children[p].append(node)
        else:
            top_roots.append(node)

    # merge adjacent equal-user-set nodes while assigning new ids in DFS
    # preorder; a fresh empty root joins several top-level components
    new_parents: list[int] = []
    rep = [0] * (n_nodes + 1)

    def new_node(parent_new: int) -> int:
        new_parents.append(parent_new)
        return len(new_parents)

    connector = new_node(0) if len(top_roots) > 1 else 0
    stack = [(r, connector) for r in reversed(top_roots)]
    while stack:
        node, parent_new = stack.pop()
        p_old = up_used[tree.parent(node)] if tree.parent(node) else 0
        if p_old and users[node] == users[p_old]:
            rep[node] = rep[p_old]
        else:
            rep[node] = new_node(parent_new)
        for c in reversed(used_children[node]):
            stack.append((c, rep[node]))

    new_tree = HostTree(new_parents)
    new_vertices: list[Vertex] = []
    for vert in inst.vertices:
        if isinstance(vert, VertexPath):
            new_vertices.append(VertexPath(rep[vert.top], rep[vert.bottom]))
        else:
            seen: list[int] = []
            for b in vert.bottoms:
                rb = rep[b]
                if rb not in seen:
                    seen.append(rb)
            new_vertices.append(VertexSubtree(rep[vert.top], tuple(seen)))
    return RdvInstance(new_tree, tuple(new_vertices), inst.delta)
