"""Instance model for rooted clique-tree representations.

An instance is a rooted host tree plus, for every graph vertex, a downward
path in that tree (given by its top and bottom node).  Two vertices are
adjacent exactly when their paths share a tree node; the graph itself is
never materialized.  A generalized instance may attach up to ``delta``
downward paths to one vertex (a subtree with at most ``delta`` leaves),
stored as a top node plus one bottom node per path.

Node ids and vertex ids are 1-based dense integers throughout.  Per-node
tables have length ``node_count + 1`` with slot 0 unused; per-vertex
columns are 0-based, so vertex v sits at index ``v - 1``.  Both are flat
integer columns (``array('q')``) from parse to solve.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, count, repeat
from operator import itemgetter
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

IntColumn = Union["array[int]", list]


def _column(values: Sequence[int]) -> IntColumn:
    """``values`` as an ``array('q')``, or as a list when one of them does
    not fit in 64 bits (validation then reports it as out of range)."""
    try:
        return array("q", values)
    except OverflowError:
        return list(values)


class HostTree:
    """Rooted ordered tree over nodes ``1..node_count``.

    Built from a parent array where entry ``i`` (0-based) is the parent of
    node ``i + 1`` and ``0`` marks the root.  Children keep the order in
    which they appear in the parent array; coordinates depend on it, so it
    is fixed once and never reordered.

    Construction is permissive (out-of-range parents, several roots and
    cycles are representable) so that :func:`validate_instance` can report
    violations instead of crashing.

    The tables are flat integer columns, built when the tree is: the
    parent of each node in ``_parent`` (slot 0 holds 0), and the children
    in compressed sparse row form, grouped by parent.  The children of
    node p are ``_kids[_first[p]:_first[p + 1]]``; group 0 holds the
    roots, and one last group the nodes whose parent is out of range.
    The package's per-node loops index these tables directly instead of
    calling :meth:`parent` and :meth:`children`, which build a value per
    call.
    """

    __slots__ = ("node_count", "_parent", "_first", "_kids")

    def __init__(self, parents: Sequence[int]):
        n = len(parents)
        self.node_count = n
        par = array("q", [0])
        try:
            par.extend(parents)
        except OverflowError:
            par = [0, *parents]
        self._parent = par
        keys = par.tolist() if isinstance(par, array) else par
        if n and (min(keys) < 0 or max(keys) > n):
            keys = [p if 0 <= p <= n else n + 1 for p in keys]
        sizes = [0] * (n + 2)
        for p in keys:
            sizes[p] += 1
        sizes[0] -= 1  # slot 0 is no node
        self._first = array("q", accumulate(sizes, initial=0))
        # a stable sort keeps file order within each group
        self._kids = array("q", sorted(range(1, n + 1), key=keys.__getitem__))

    def parent(self, node: int) -> int:
        """Parent id of ``node``, or 0 for a root."""
        return self._parent[node]

    def children(self, node: int) -> tuple[int, ...]:
        """Children of ``node`` (1..node_count) in file order."""
        first = self._first
        return tuple(self._kids[first[node] : first[node + 1]])

    def parents(self) -> tuple[int, ...]:
        """Parent array in file order (entry k is the parent of node k+1)."""
        return tuple(self._parent[1:])

    def roots(self) -> list[int]:
        return list(self._kids[: self._first[1]])

    @property
    def root(self) -> int:
        if self._first[1] != 1:
            raise ValueError(f"tree has {self._first[1]} roots, expected exactly one")
        return self._kids[0]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HostTree) and self._parent == other._parent

    def __hash__(self) -> int:
        return hash(tuple(self._parent))

    def __repr__(self) -> str:
        return f"HostTree({list(self.parents())!r})"


class RdvInstance:
    """Host tree plus one downward path (or path bundle) per vertex.

    ``delta`` bounds the number of bottom nodes any vertex may carry;
    plain instances have ``delta == 1`` and every vertex a single bottom.

    The vertices are flat integer columns: ``tops``, and ``bots``, the
    bottom nodes of all vertices in vertex order.  A plain instance has
    one bottom per vertex and no ``offsets``; any other has ``offsets``
    (length ``n + 1``), and the bottoms of vertex v are
    ``bots[offsets[v - 1]:offsets[v]]``.  The columns are ``array('q')``,
    or lists when an id does not fit in 64 bits.

    ``RdvInstance(tree, vertices, delta)`` builds the columns from
    :class:`VertexPath` and :class:`VertexSubtree` tuples;
    :meth:`from_columns` takes them as they are.  :attr:`vertices`,
    :meth:`top` and :meth:`bottoms` are read-only views, and a vertex
    reads as a :class:`VertexPath` exactly when ``delta == 1`` and it has
    one bottom, as the parser builds it.  Immutable after construction;
    safe to share across threads.
    """

    __slots__ = ("tree", "tops", "bots", "offsets", "delta")

    def __init__(self, tree: HostTree, vertices: Iterable[Vertex], delta: int = 1):
        vertices = tuple(vertices)
        tops = list(map(itemgetter(0), vertices))
        if set(map(type, vertices)) <= {VertexPath}:
            bots = list(map(itemgetter(1), vertices))
            sizes = None
        else:
            groups = [(v[1],) if isinstance(v, VertexPath) else v[1] for v in vertices]
            bots = list(chain.from_iterable(groups))
            sizes = list(map(len, groups))
        offsets = None
        if delta != 1 or not (sizes is None or sizes.count(1) == len(sizes)):
            offsets = array("q", accumulate(sizes or repeat(1, len(tops)), initial=0))
        self._init(tree, _column(tops), _column(bots), offsets, delta)

    @classmethod
    def from_columns(
        cls,
        tree: HostTree,
        tops: IntColumn,
        bots: IntColumn,
        offsets: array | None,
        delta: int,
    ) -> RdvInstance:
        """Instance over columns laid out as the class describes; they
        are kept, not copied.  ``offsets`` must be None exactly when
        ``delta == 1`` and every vertex has one bottom."""
        inst = object.__new__(cls)
        inst._init(tree, tops, bots, offsets, delta)
        return inst

    def _init(self, tree, tops, bots, offsets, delta) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "tree", tree)
        setattr_(self, "tops", tops)
        setattr_(self, "bots", bots)
        setattr_(self, "offsets", offsets)
        setattr_(self, "delta", delta)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: RdvInstance is immutable")

    __delattr__ = __setattr__

    @property
    def n(self) -> int:
        return len(self.tops)

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """One tuple per vertex, built anew on each access (linear time)."""
        new = tuple.__new__
        tops, bots, offsets = self.tops, self.bots, self.offsets
        if offsets is None:
            return tuple(map(new, repeat(VertexPath), zip(tops, bots)))
        plain = self.delta == 1
        out: list[Vertex] = []
        for top, lo, hi in zip(tops, offsets, offsets[1:]):
            group = tuple(bots[lo:hi])
            if plain and len(group) == 1:
                out.append(new(VertexPath, (top, group[0])))
            else:
                out.append(new(VertexSubtree, (top, group)))
        return tuple(out)

    def top(self, v: int) -> int:
        return self.tops[v - 1]

    def bottoms(self, v: int) -> tuple[int, ...]:
        offsets = self.offsets
        if offsets is None:
            return (self.bots[v - 1],)
        return tuple(self.bots[offsets[v - 1] : offsets[v]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RdvInstance):
            return NotImplemented
        return (
            self.delta == other.delta
            and self.tree == other.tree
            and self.tops == other.tops
            and self.bots == other.bots
            and self.offsets == other.offsets
        )

    def __hash__(self) -> int:
        return hash((self.tree, self.vertices, self.delta))

    def __repr__(self) -> str:
        return (
            f"RdvInstance(tree={self.tree!r}, vertices={self.vertices!r}, "
            f"delta={self.delta!r})"
        )


class Matching:
    """Set of matched vertex pairs with no shared endpoint.

    A matching is a mate array (``array('q')``, slot 0 unused): vertex v
    is matched to ``mate[v]``, or free when ``mate[v] == 0``.  The
    matching loops build one with :meth:`from_mates`, which keeps their
    array as it is; ``Matching(pairs)`` checks hand-built pairs and
    sizes the array by their largest id.
    """

    __slots__ = ("_mate", "_size")

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        pairs = list(pairs)
        mate = array("q", [0]) * (max(map(max, pairs), default=0) + 1)
        for a, b in pairs:
            if a == b:
                raise ValueError(f"vertex {a} cannot be matched to itself")
            if a < 1 or b < 1:
                raise ValueError(f"vertex {min(a, b)} is not a vertex id (ids start at 1)")
            if mate[a] or mate[b]:
                dup = a if mate[a] else b
                raise ValueError(f"vertex {dup} appears in more than one pair")
            mate[a] = b
            mate[b] = a
        self._mate = mate
        self._size = len(pairs)

    @classmethod
    def from_mates(cls, mate: array) -> Matching:
        """Matching whose vertex v is matched to ``mate[v]``, or free when
        ``mate[v] == 0`` (slot 0 unused).  The caller guarantees that
        ``mate`` is a symmetric ``array('q')``; only the pairs are
        counted."""
        m = object.__new__(cls)
        m._mate = mate
        m._size = (len(mate) - mate.count(0)) // 2
        return m

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges())

    def edges(self) -> list[tuple[int, int]]:
        """Pairs as (i, j) with i < j, sorted lexicographically."""
        return [(v, m) for v, m in enumerate(self._mate) if v < m]

    def vertices(self) -> set[int]:
        return {v for pair in self.edges() for v in pair}

    def to_text(self) -> str:
        lines = [f"matching {self._size}"]
        lines.extend(f"e {i} {j}" for i, j in self.edges())
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(self.edges())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        mine, theirs = self._mate, other._mate
        if len(mine) == len(theirs):
            return mine == theirs
        return self.edges() == other.edges()

    def __hash__(self) -> int:
        return hash(tuple(self.edges()))

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
    chain, which share one range).  One walk over the vertex columns then
    both decides whether the vertices are sound and names each violation.
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

    n_roots = tree._first[1]
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

    if inst.delta < 1:
        violations.append(f"delta must be at least 1, got {inst.delta}")

    violations.extend(_vertex_violations(inst, coords))
    return violations, coords


def _vertex_violations(inst: RdvInstance, coords: NodeCoords | None) -> list[str]:
    """Every per-vertex violation, in vertex order.

    A vertex's ids must lie in ``1..node_count``; it must have 1..delta
    bottoms, exactly one when ``delta == 1``; and, when ``coords`` is
    given (the tree is sound), its top must be an ancestor-or-self of
    each bottom.  One pass over the columns: the bottoms of a vertex are
    its slice of ``bots``, read as :meth:`RdvInstance.bottoms` reads them.
    """
    n_nodes, delta = inst.tree.node_count, inst.delta
    bots, offsets = inst.bots, inst.offsets
    if offsets is None:
        groups = zip(bots)  # one 1-tuple per vertex
    else:
        groups = map(bots.__getitem__, map(slice, offsets, offsets[1:]))
    if coords is not None:
        x, y, r = coords.x, coords.y, coords.r
    out: list[str] = []
    for v, top, bottoms in zip(count(1), inst.tops, groups):
        ids_ok = True
        for node in (top, *bottoms):
            if not (1 <= node <= n_nodes):
                out.append(f"vertex {v}: node id {node} out of range")
                ids_ok = False
        if not bottoms:
            out.append(f"vertex {v}: no bottom nodes")
            continue
        if delta == 1 and len(bottoms) != 1:
            out.append(
                f"vertex {v}: {len(bottoms)} bottoms but delta=1 requires exactly one"
            )
        elif len(bottoms) > delta:
            out.append(f"vertex {v}: {len(bottoms)} bottoms exceeds delta={delta}")
        if coords is not None and ids_ok:
            for b in bottoms:
                if not (x[top] <= x[b] and r[b] <= r[top] and y[top] <= y[b]):
                    out.append(f"vertex {v}: top {top} not ancestor of bottom {b}")
    return out


def bottom_up_order(inst: RdvInstance, coords) -> list[int]:
    """Vertices sorted by decreasing depth of their top node.

    Ties are broken by ascending vertex id, which makes the order (and
    everything downstream of it) reproducible.

    ``coords`` comes from :func:`rdvmatch.geometry.assign_coordinates`.
    """
    y = coords.y
    # top depth per vertex id, slot 0 unused; the sort is stable even in
    # reverse, so equal depths keep ascending ids
    depth = [0]
    depth += [y[top] for top in inst.tops]
    return sorted(range(1, len(depth)), key=depth.__getitem__, reverse=True)


def _vertex_nodes(inst: RdvInstance, v: int) -> set[int]:
    """Host-tree nodes of vertex v: the parent walk from each bottom up
    to the top.

    The walk reads parent pointers only, never coordinates, so the
    oracles built on it check the geometric route independently.  A walk
    that leaves ``1..node_count``, or does not reach the top within
    ``node_count`` steps (a parent cycle), raises
    :class:`InvalidInstanceError`.
    """
    tree = inst.tree
    parent, n_nodes = tree._parent, tree.node_count
    top = inst.top(v)
    nodes: set[int] = set()
    for b in inst.bottoms(v):
        node, steps = b, 0
        while 1 <= node <= n_nodes and steps < n_nodes:
            nodes.add(node)
            if node == top:
                break
            node = parent[node]
            steps += 1
        else:
            fault = f"vertex {v}: top {top} not ancestor of bottom {b}"
            raise InvalidInstanceError([fault])
    return nodes


def adjacency_oracle(inst: RdvInstance, i: int, j: int) -> bool:
    """Do the subtrees of vertices i and j share a host-tree node?

    Reference test straight from the definition: it collects both node
    sets by parent walks and never touches coordinates or segments, so
    it can independently check the geometric query path.  Costs the
    length of both walks, which is fine for an oracle but not for the
    fast matching route.
    """
    if i == j:
        raise ValueError("adjacency oracle requires two distinct vertices")
    return not _vertex_nodes(inst, i).isdisjoint(_vertex_nodes(inst, j))


def oracle_adjacency(inst: RdvInstance) -> list[list[int]]:
    """Neighbor lists of the whole graph, each in ascending order.

    The same definition as :func:`adjacency_oracle`: the neighbors of v
    are the other vertices that hold one of v's nodes.  Costs, summed
    over every vertex and each of its nodes, the vertices that hold that
    node: up to cubic on a path tree.  Meant for cross-checks, not for
    the matching fast path.
    """
    nodes = [_vertex_nodes(inst, v) for v in range(1, inst.n + 1)]
    holders: list[list[int]] = [[] for _ in range(inst.tree.node_count + 1)]
    for v, own in enumerate(nodes, start=1):
        for node in own:
            holders[node].append(v)
    adj: list[list[int]] = [[]]
    for v, own in enumerate(nodes, start=1):
        nbrs: set[int] = set()
        for node in own:
            nbrs.update(holders[node])
        nbrs.discard(v)
        adj.append(sorted(nbrs))
    return adj


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
    checked_coordinates(inst)
    tree = inst.tree
    n_nodes = tree.node_count

    users: list[set[int]] = [set() for _ in range(n_nodes + 1)]
    for v in range(1, inst.n + 1):
        for node in _vertex_nodes(inst, v):
            users[node].add(v)

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
