"""Independent result check for the benchmark.

It reads the instance text with its own tokenizer and answers every
question with its own tree code (Euler intervals over the parent array).
It never calls rdvmatch's io, geometry or rayshoot layers, so a defect in
one of them cannot vouch for itself.
"""

from __future__ import annotations


class Reference:
    """Host tree and vertex subtrees of one instance, indexed for O(1)
    ancestor tests.

    Node ``a`` is an ancestor-or-self of ``b`` iff
    ``tin[a] <= tin[b] <= tout[a]``.  ``x``/``r`` are the first and last
    leaf index below a node, leaves numbered left to right in children
    order (children keep parent-array order).
    """

    def __init__(self, text: str):
        lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln]
        if lines[0][0] != "tree" or lines[1][0] != "parents" or lines[2][0] != "vertices":
            raise ValueError("instance text does not start with tree/parents/vertices")
        self.parent = [0, *map(int, lines[1][1:])]
        self.node_count = int(lines[0][1])
        self.n = int(lines[2][1])
        self.tops = [0] * (self.n + 1)
        self.bottoms: list[tuple[int, ...]] = [()] * (self.n + 1)
        for v, ln in enumerate(lines[3:], start=1):
            self.tops[v] = int(ln[1])
            self.bottoms[v] = tuple(map(int, ln[2:]))
        if len(self.parent) != self.node_count + 1 or len(lines) - 3 != self.n:
            raise ValueError("instance text has wrong record counts")
        self._index()
        self.checked = None  # a matching that passed problems(), set by the caller

    def _index(self) -> None:
        size = self.node_count + 1
        children: list[list[int]] = [[] for _ in range(size)]
        roots = []
        for node in range(1, size):
            p = self.parent[node]
            if p:
                children[p].append(node)
            else:
                roots.append(node)
        if len(roots) != 1:
            raise ValueError(f"tree has {len(roots)} roots")
        tin = [0] * size
        tout = [0] * size
        depth = [0] * size
        x = [0] * size
        r = [0] * size
        preorder: list[int] = []
        clock = leaves = 0
        stack = [(roots[0], False)]
        while stack:
            node, done = stack.pop()
            if done:
                tout[node] = clock
                r[node] = leaves
                continue
            clock += 1
            tin[node] = clock
            preorder.append(node)
            x[node] = leaves + 1
            kids = children[node]
            if not kids:
                leaves += 1
            stack.append((node, True))
            for c in reversed(kids):
                depth[c] = depth[node] + 1
                stack.append((c, False))
        if clock != self.node_count:
            raise ValueError("tree has a cycle")
        self.tin, self.tout, self.depth = tin, tout, depth
        self.x, self.r, self.leaf_count = x, r, leaves
        self.preorder = preorder

    def is_anc(self, a: int, b: int) -> bool:
        return self.tin[a] <= self.tin[b] <= self.tout[a]

    def adjacent(self, u: int, w: int) -> bool:
        """Do the subtrees of vertices u and w share a tree node?

        The topmost node of two intersecting subtrees is the deeper of the
        two tops, so it suffices to test whether that top lies in the other
        subtree.
        """
        tu, tw = self.tops[u], self.tops[w]
        if self.depth[tu] < self.depth[tw]:
            u, w, tu, tw = w, u, tw, tu
        return self.is_anc(tw, tu) and any(self.is_anc(tu, b) for b in self.bottoms[w])

    def greedy_order(self) -> list[int]:
        """Vertices by decreasing depth of their top, ties by id."""
        depth, tops = self.depth, self.tops
        return sorted(range(1, self.n + 1), key=lambda v: (-depth[tops[v]], v))

    def problems(self, pairs, size: int | None = None, limit: int = 5) -> list[str]:
        """What is wrong with ``pairs`` as a maximal matching; empty if
        nothing is.

        Checks, in O(|T| + n * delta): ids in range, each vertex in at most
        one pair, every pair shares a tree node, no two unmatched vertices
        share one, and the size equals ``size`` when that is given.
        """
        out: list[str] = []
        n = self.n
        mate = [0] * (n + 1)
        count = 0
        for a, b in pairs:
            count += 1
            if not (1 <= a <= n and 1 <= b <= n) or a == b:
                out.append(f"pair ({a}, {b}) is not two distinct vertex ids")
            elif mate[a] or mate[b]:
                out.append(f"pair ({a}, {b}) reuses a matched vertex")
            elif not self.adjacent(a, b):
                out.append(f"pair ({a}, {b}) shares no tree node")
            else:
                mate[a], mate[b] = b, a
        if size is not None and count != size:
            out.append(f"matching size {count}, expected {size}")

        # an unmatched vertex w meets another unmatched one iff a second
        # unmatched top sits at t(w) or strictly below it on a path of w
        marks = [0] * (self.node_count + 1)
        for v in range(1, n + 1):
            if not mate[v]:
                marks[self.tops[v]] += 1
        below = [0] * (self.node_count + 1)  # marks on the root path, inclusive
        parent = self.parent
        for node in self.preorder:
            below[node] = below[parent[node]] + marks[node]
        for w in range(1, n + 1):
            if mate[w]:
                continue
            t = self.tops[w]
            if marks[t] > 1 or any(below[b] > below[t] for b in self.bottoms[w]):
                out.append(f"unmatched vertex {w} shares a node with another unmatched vertex")
                if len(out) >= limit:
                    break
        return out[:limit]
