"""``VirtualClock.tick``'s one-bucket fast path changes no float.

Figure 2 is read straight off the clock's ``_busy`` map, so the fast path
must leave exactly the time and the map (keys, key order and float
values) that the bucket-splitting loop alone produces.  The reference
below is that loop, applied to a second clock.
"""

from __future__ import annotations

import random

import pytest

from repro.machine.clock import VirtualClock


def reference_tick(clock: VirtualClock, tid: int, instructions: int = 1) -> None:
    """The bucket-splitting loop with no fast path."""
    remaining = instructions * clock.instr_cost_us
    while remaining > 0:
        bucket = int(clock._now_us // clock.bucket_us)
        room = (bucket + 1) * clock.bucket_us - clock._now_us
        step = min(remaining, room)
        clock._busy[(bucket, tid)] += step
        clock._now_us += step
        remaining -= step


def _instructions(rng: random.Random, clock: VirtualClock) -> int:
    roll = rng.random()
    if roll < 0.75:
        return 1
    if roll < 0.8:
        return 0
    if roll < 0.9:
        return rng.randint(2, 40)
    # Bursts of one to several buckets.
    per_bucket = clock.bucket_us / clock.instr_cost_us
    return max(1, int(per_bucket * rng.uniform(0.5, 4.0)))


def _idle(rng: random.Random, clock: VirtualClock) -> float:
    roll = rng.random()
    if roll < 0.3:
        return 0.0
    if roll < 0.6:
        # Land exactly on, or just short of, the next bucket boundary.
        now = clock.now_us
        edge = (int(now // clock.bucket_us) + 1) * clock.bucket_us - now
        return max(0.0, edge - rng.choice((0.0, clock.instr_cost_us, 1e-7)))
    return rng.uniform(0, 3 * clock.bucket_us)


@pytest.mark.parametrize("seed", range(30))
def test_fast_tick_matches_the_reference_loop(seed):
    rng = random.Random(seed)
    cost = rng.choice((30.0, 0.5, 7.3, 1 / 3, 999.9))
    bucket = rng.choice((100_000, 1_000, 97, 60))
    fast = VirtualClock(instr_cost_us=cost, bucket_us=bucket)
    slow = VirtualClock(instr_cost_us=cost, bucket_us=bucket)
    for _ in range(3_000):
        if rng.random() < 0.05:
            gap = _idle(rng, fast)
            fast.idle(gap)
            slow.idle(gap)
        else:
            tid = rng.randint(1, 4)
            n = _instructions(rng, fast)
            fast.tick(tid, n)
            reference_tick(slow, tid, n)
        assert fast._now_us == slow._now_us
    assert list(fast._busy.items()) == list(slow._busy.items())
    for tid in range(1, 5):
        assert fast.utilization_series(tid) == slow.utilization_series(tid)
