"""The forward loop gives the same CFGs however the records are fed.

``DynamicCFGBuilder.feed_many`` is the one forward loop: ``build_cfgs``
feeds it the whole trace, ``IncrementalCDI.feed`` one epoch at a time,
and ``feed`` one record at a time.  On fuzz traces (well-formed,
multi-threaded, multi-frame) and on hand-built unbalanced ones, all
three must agree with each other and with the plain per-record rule
below, and every ``IncrementalCDI`` snapshot must equal a
``ControlDependenceIndex`` built over the same prefix.
"""

from __future__ import annotations

import random

import pytest

from repro.machine import FN_SPAN
from repro.profiler.cdg import ControlDependenceIndex
from repro.profiler.cfg import DynamicCFGBuilder, FunctionCFG, build_cfgs
from repro.profiler.incremental import IncrementalCDI
from repro.trace.records import InstrKind, TraceRecord
from repro.workloads.fuzz import random_frame_trace, random_trace


def _reference_cfgs(records):
    """The forward rule spelled out record by record (no caching)."""
    cfgs = {}
    stacks = {}  # tid -> [[fn, last_pc, awaiting_callee], ...]
    for rec in records:
        stack = stacks.setdefault(rec.tid, [])
        if not stack or stack[-1][2] or stack[-1][0] != rec.fn:
            if stack:
                stack[-1][2] = False
            stack.append([rec.fn, None, False])
        frame = stack[-1]
        cfg = cfgs.setdefault(rec.fn, FunctionCFG(rec.fn))
        cfg.add_node(rec.pc)
        if frame[1] is None:
            cfg.entries.add(rec.pc)
        else:
            cfg.add_edge(frame[1], rec.pc)
        frame[1] = rec.pc
        if rec.kind == InstrKind.BRANCH:
            cfg.branch_pcs.add(rec.pc)
        elif rec.kind == InstrKind.CALL:
            frame[2] = True
        elif rec.kind == InstrKind.RET:
            cfg.exits.add(rec.pc)
            stack.pop()
    for stack in stacks.values():
        for fn, last_pc, _ in stack:
            if last_pc is not None:
                cfgs[fn].exits.add(last_pc)
    for cfg in cfgs.values():
        cfg.seal()
    return cfgs


def _shape(cfgs):
    return {
        fn: (cfg.succs, cfg.preds, cfg.entries, cfg.exits, cfg.branch_pcs)
        for fn, cfg in cfgs.items()
    }


def _unbalanced_trace(seed: int, n: int = 600):
    """Interleaved threads with CALL/RET in no particular order.

    RETs without a CALL, CALLs at the end of a thread, function changes
    with no CALL between them: the forward rule must tolerate them all.
    """
    rng = random.Random(seed)
    kinds = (InstrKind.OP, InstrKind.CMP, InstrKind.BRANCH, InstrKind.CALL, InstrKind.RET)
    records = []
    for _ in range(n):
        fn = rng.randrange(4)
        records.append(TraceRecord(
            tid=rng.choice((1, 2, 3)),
            pc=(fn + 1) * FN_SPAN + rng.randrange(6),
            kind=rng.choices(kinds, weights=(6, 1, 2, 2, 2))[0],
            fn=fn,
        ))
    return records


def _traces():
    for seed in range(6):
        yield f"random_trace({seed})", random_trace(seed, target_records=900).records()
    for seed in range(4):
        yield f"random_frame_trace({seed})", random_frame_trace(seed).records()
    for seed in range(8):
        yield f"unbalanced({seed})", _unbalanced_trace(seed)


TRACES = list(_traces())


def _splits(n: int, rng: random.Random):
    """Random epoch boundaries over ``range(n)``, empty epochs included."""
    cuts = sorted(rng.choice((0, n, rng.randrange(n + 1))) for _ in range(rng.randrange(1, 9)))
    return list(zip([0] + cuts, cuts + [n]))


@pytest.mark.parametrize("label,records", TRACES, ids=[label for label, _ in TRACES])
def test_every_feeding_gives_the_reference_cfgs(label, records):
    reference = _shape(_reference_cfgs(records))
    assert _shape(build_cfgs(records)) == reference, label

    one_at_a_time = DynamicCFGBuilder()
    for rec in records:
        one_at_a_time.feed(rec)
    assert _shape(one_at_a_time.finish()) == reference, label

    rng = random.Random(label)
    for _ in range(3):
        epochs = DynamicCFGBuilder()
        for lo, hi in _splits(len(records), rng):
            epochs.feed_many(records[lo:hi])
        assert _shape(epochs.finish()) == reference, label


@pytest.mark.parametrize("label,records", TRACES, ids=[label for label, _ in TRACES])
def test_incremental_snapshots_match_each_prefix(label, records):
    rng = random.Random(label)
    cdi = IncrementalCDI()
    for lo, hi in _splits(len(records), rng):
        cdi.feed(records[lo:hi])
        cdi.snapshot()
        full = ControlDependenceIndex(build_cfgs(records[:hi]))
        assert cdi._cd == full._cd, f"{label}: prefix of {hi}"
