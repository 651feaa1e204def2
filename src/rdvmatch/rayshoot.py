"""Dynamic orthogonal ray-shooting index behind ``rayshoot_greedy``.

Static segment tree over the x-domain [1, x_max]; each tree node keeps the
negated heights ``-ys`` of the segments assigned to it in an ascending list
(owners in a parallel list), so the matching loop's strictly decreasing
heights always land at the end of a bucket.  A horizontal segment lands on
the O(log x_max) canonical nodes covering its x-range; an upward ray at
abscissa x walks the root-to-leaf path for x and takes, per node, the
largest ys not above the ray origin.  Insert costs
O(log x_max * (log n + shift)), where the shift is zero for decreasing
heights; delete shifts the entries inserted after it into the same bucket;
queries cost O(log x_max * log n).  Any insert order stays correct.

Heights are non-negative, and callers guarantee pairwise-distinct ys
values for live segments, which the exact-integer perturbation of the
geometry layer provides.
"""

from __future__ import annotations

from bisect import bisect_left

# kept only for the environment line of perfbench/run.py; they go with the
# next benchmark change
DEFAULT_BACKEND = "pure"


def available_backends() -> list[str]:
    return ["pure"]


class RayShootIndex:
    """Insert/delete horizontal segments; shoot vertical rays upward.

    Segments are identified by an owner id in 1..capacity.  ``shoot``
    returns the owner of the first segment hit (the one with maximum ys
    at or below the ray origin) or None on a miss.
    """

    __slots__ = ("x_max", "capacity", "_half", "_negs", "_owners", "_live")

    def __init__(self, x_max: int, capacity: int):
        if x_max < 1:
            raise ValueError(f"x_max must be positive, got {x_max}")
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.x_max = x_max
        self.capacity = capacity
        half = 1
        while half < x_max:
            half <<= 1
        self._half = half
        self._negs: list[list[int]] = [[] for _ in range(2 * half)]
        self._owners: list[list[int]] = [[] for _ in range(2 * half)]
        # owner -> (x_lo, x_hi, -ys) for live segments
        self._live: dict[int, tuple[int, int, int]] = {}

    def __len__(self) -> int:
        return len(self._live)

    def insert(self, owner: int, x_lo: int, x_hi: int, ys: int) -> None:
        if not 1 <= owner <= self.capacity:
            raise ValueError(f"owner {owner} out of range 1..{self.capacity}")
        if owner in self._live:
            raise ValueError(f"segment for owner {owner} is already live")
        if not (1 <= x_lo <= x_hi <= self.x_max):
            raise ValueError(
                f"segment x-range [{x_lo}, {x_hi}] invalid for domain [1, {self.x_max}]"
            )
        if ys < 0:
            raise ValueError(f"segment height {ys} is negative")
        # one negated int, shared by every canonical node and by _live
        neg = -ys
        self._live[owner] = (x_lo, x_hi, neg)
        lo = x_lo - 1 + self._half
        hi = x_hi + self._half
        while lo < hi:
            if lo & 1:
                self._node_add(lo, neg, owner)
                lo += 1
            if hi & 1:
                hi -= 1
                self._node_add(hi, neg, owner)
            lo >>= 1
            hi >>= 1

    def delete(self, owner: int) -> None:
        seg = self._live.pop(owner, None)
        if seg is None:
            raise ValueError(f"no live segment for owner {owner}")
        x_lo, x_hi, neg = seg
        lo = x_lo - 1 + self._half
        hi = x_hi + self._half
        while lo < hi:
            if lo & 1:
                self._node_remove(lo, neg)
                lo += 1
            if hi & 1:
                hi -= 1
                self._node_remove(hi, neg)
            lo >>= 1
            hi >>= 1

    def shoot(self, x: int, y_origin: int) -> int | None:
        """Owner of the live segment with maximum ys <= y_origin whose
        x-range contains x, or None."""
        if not 1 <= x <= self.x_max:
            return None
        # the smallest -ys at or above -y_origin; 1 still accepts ys == 0
        neg_origin = -y_origin
        best_neg = 1
        best_owner = None
        node = x - 1 + self._half
        neg_lists = self._negs
        owner_lists = self._owners
        while node >= 1:
            negs = neg_lists[node]
            # skip a bucket with no entry at or below the origin
            if negs and negs[-1] >= neg_origin:
                pos = bisect_left(negs, neg_origin)
                if negs[pos] < best_neg:
                    best_neg = negs[pos]
                    best_owner = owner_lists[node][pos]
            node >>= 1
        return best_owner

    def _node_add(self, node: int, neg: int, owner: int) -> None:
        lst = self._negs[node]
        pos = bisect_left(lst, neg)
        lst.insert(pos, neg)
        self._owners[node].insert(pos, owner)

    def _node_remove(self, node: int, neg: int) -> None:
        lst = self._negs[node]
        pos = bisect_left(lst, neg)
        del lst[pos]
        del self._owners[node][pos]
