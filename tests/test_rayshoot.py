import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdvmatch import matching
from rdvmatch.gen import GenConfig, gen_comb, gen_dense, gen_random
from rdvmatch.rayshoot import RayShootIndex


def shadow_shoot(live, x, y_origin):
    """Linear-scan reference: max-ys live segment stabbed at or below the
    origin."""
    best = None
    best_ys = -1
    for owner, (x_lo, x_hi, ys) in live.items():
        if x_lo <= x <= x_hi and ys <= y_origin and ys > best_ys:
            best = owner
            best_ys = ys
    return best


class TestBasics:
    def test_insert_into_empty(self):
        idx = RayShootIndex(10, 5)
        idx.insert(1, 2, 6, 100)
        assert len(idx) == 1
        assert idx.shoot(4, 200) == 1

    def test_reinsertion_after_delete(self):
        idx = RayShootIndex(10, 5)
        idx.insert(1, 2, 6, 100)
        idx.delete(1)
        assert idx.shoot(4, 200) is None
        idx.insert(1, 2, 6, 100)
        assert len(idx) == 1
        assert idx.shoot(2, 150) == 1

    def test_duplicate_insert_reported(self):
        idx = RayShootIndex(10, 5)
        idx.insert(1, 1, 1, 5)
        with pytest.raises(ValueError, match="already live"):
            idx.insert(1, 2, 3, 6)

    def test_delete_non_live_reported(self):
        idx = RayShootIndex(10, 5)
        with pytest.raises(ValueError, match="no live segment"):
            idx.delete(3)

    def test_owner_range_checked(self):
        idx = RayShootIndex(10, 5)
        with pytest.raises(ValueError, match="out of range"):
            idx.insert(6, 1, 1, 5)

    def test_bad_x_range_rejected(self):
        idx = RayShootIndex(10, 5)
        with pytest.raises(ValueError):
            idx.insert(1, 5, 3, 7)
        with pytest.raises(ValueError):
            idx.insert(1, 0, 3, 7)
        with pytest.raises(ValueError):
            idx.insert(1, 3, 11, 7)

    def test_miss_on_empty(self):
        assert RayShootIndex(4, 2).shoot(1, 10**9) is None

    def test_first_hit_is_max_ys_at_or_below_origin(self):
        idx = RayShootIndex(8, 4)
        idx.insert(1, 1, 8, 5)
        idx.insert(2, 1, 8, 9)
        idx.insert(3, 1, 8, 12)
        assert idx.shoot(4, 10) == 2
        idx.delete(2)
        assert idx.shoot(4, 10) == 1

    def test_stacked_segments_fall_through(self):
        idx = RayShootIndex(4, 3)
        idx.insert(1, 2, 3, 10)
        idx.insert(2, 1, 4, 20)
        assert idx.shoot(2, 100) == 2
        idx.delete(2)
        assert idx.shoot(2, 100) == 1

    def test_x_outside_domain_misses(self):
        idx = RayShootIndex(4, 2)
        idx.insert(1, 1, 4, 3)
        assert idx.shoot(0, 100) is None
        assert idx.shoot(5, 100) is None


class TestPureHeights:
    def test_height_zero_is_hit(self):
        idx = RayShootIndex(4, 2)
        idx.insert(1, 1, 4, 0)
        assert idx.shoot(2, 0) == 1
        assert idx.shoot(2, 5) == 1
        idx.insert(2, 2, 3, 3)
        assert idx.shoot(2, 2) == 1
        assert idx.shoot(2, 3) == 2

    def test_negative_height_rejected(self):
        idx = RayShootIndex(4, 2)
        with pytest.raises(ValueError, match="negative"):
            idx.insert(1, 1, 4, -3)
        assert len(idx) == 0
        assert idx.shoot(2, 5) is None


class _ShiftCountingBucket(list):
    """A bucket that counts the entries each ``insert`` moves."""

    moved = 0

    def insert(self, pos, item):
        _ShiftCountingBucket.moved += len(self) - pos
        super().insert(pos, item)


@pytest.mark.parametrize(
    "make",
    [
        lambda n: gen_comb(n, seed=3),
        gen_dense,
        lambda n: gen_random(GenConfig(seed=3, tree_nodes=n, n_vertices=n, delta=1)),
        lambda n: gen_random(GenConfig(seed=3, tree_nodes=n, n_vertices=n, delta=2)),
    ],
    ids=["comb", "dense", "random", "random-delta2"],
)
def test_matching_loop_inserts_move_no_bucket_entry(monkeypatch, make):
    # the reference loop inserts in strictly decreasing heights, so every
    # bucket insert of the pure index must be an append; a layout that
    # shifts on insert moves ~n^2/2 entries on the comb
    class CountingIndex(RayShootIndex):
        def __init__(self, x_max, capacity):
            super().__init__(x_max, capacity)
            self._negs = [_ShiftCountingBucket() for _ in self._negs]

    monkeypatch.setattr(matching, "RayShootIndex", CountingIndex)
    monkeypatch.setattr(_ShiftCountingBucket, "moved", 0)
    matching.rayshoot_greedy(make(4096))
    assert _ShiftCountingBucket.moved == 0


class TestAgainstShadow:
    def test_bulk_insert_count(self):
        idx = RayShootIndex(500, 10_000)
        rng = random.Random(99)
        shadow = {}
        for owner in range(1, 10_001):
            x_lo = rng.randint(1, 500)
            x_hi = rng.randint(x_lo, 500)
            ys = owner * 7  # distinct
            idx.insert(owner, x_lo, x_hi, ys)
            shadow[owner] = (x_lo, x_hi, ys)
        assert len(idx) == len(shadow) == 10_000

    def test_random_interleavings_match_shadow(self):
        rng = random.Random(4242)
        x_max = 64
        idx = RayShootIndex(x_max, 2_000)
        shadow = {}
        next_owner = 1
        ys_pool = list(range(1, 20_001))
        rng.shuffle(ys_pool)
        for step in range(4_000):
            roll = rng.random()
            if (roll < 0.5 and next_owner <= 2_000) or not shadow:
                owner = next_owner
                next_owner += 1
                x_lo = rng.randint(1, x_max)
                x_hi = rng.randint(x_lo, x_max)
                ys = ys_pool.pop()
                idx.insert(owner, x_lo, x_hi, ys)
                shadow[owner] = (x_lo, x_hi, ys)
            elif roll < 0.7:
                owner = rng.choice(sorted(shadow))
                idx.delete(owner)
                del shadow[owner]
            else:
                x = rng.randint(0, x_max + 1)
                y_origin = rng.randint(0, 21_000)
                assert idx.shoot(x, y_origin) == shadow_shoot(shadow, x, y_origin)
            assert len(idx) == len(shadow)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=30,
    ),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=60),
)
def test_shoot_equals_linear_scan(segments, x, y_origin):
    # owners get distinct ys by construction
    idx = RayShootIndex(12, len(segments) or 1)
    shadow = {}
    for owner, (a, b, y) in enumerate(segments, start=1):
        x_lo, x_hi = min(a, b), max(a, b)
        ys = y * len(segments) + owner
        idx.insert(owner, x_lo, x_hi, ys)
        shadow[owner] = (x_lo, x_hi, ys)
    assert idx.shoot(x, y_origin) == shadow_shoot(shadow, x, y_origin)
