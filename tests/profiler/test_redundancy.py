"""Cross-frame redundancy profiling invariants."""

import pytest

from repro.browser import BrowserEngine
from repro.machine import Tracer
from repro.machine.tracer import TILE_MARKER
from repro.profiler import BackwardSlicer, analyze_frames, frame_pixel_criteria
from repro.profiler.cdg import build_index
from repro.profiler.redundancy import _stability_pass
from repro.trace.records import InstrKind
from repro.workloads import benchmark
from repro.workloads.fuzz import random_frame_trace


@pytest.fixture(scope="module")
def ticker_store():
    bench = benchmark("ticker")
    engine = BrowserEngine(bench.config)
    engine.load_page(bench.page)
    engine.run_session(bench.actions)
    return engine.trace_store()


@pytest.fixture(scope="module")
def ticker_report(ticker_store):
    return analyze_frames(ticker_store)


def test_one_result_per_complete_frame(ticker_store, ticker_report):
    spans = ticker_store.frame_spans()
    assert len(ticker_report.frames) == len(spans) >= 5
    for frame, span in zip(ticker_report.frames, spans):
        assert frame.frame_id == span.frame_id
        assert frame.kind == span.kind
        assert frame.total == span.n_records()


def test_breakdown_partitions_each_frame(ticker_report):
    for frame in ticker_report.frames:
        assert frame.in_slice + frame.redundant + frame.fresh_unnecessary == frame.total
        assert frame.unnecessary == frame.redundant + frame.fresh_unnecessary
        assert 0.0 <= frame.slice_fraction <= 1.0
        assert 0.0 <= frame.redundant_fraction <= 1.0


def test_load_frame_has_no_redundancy(ticker_report):
    # Frame 0 computes everything for the first time; nothing executed in
    # an earlier frame, so (almost) nothing can be frame-redundant.
    load = ticker_report.first()
    assert load.kind == "load"
    assert load.redundant_fraction < 0.01


def test_update_frames_detect_redundancy(ticker_report):
    updates = ticker_report.updates()
    assert updates
    assert any(frame.redundant > 0 for frame in updates)


def test_steady_state_ratio(ticker_report):
    ratio = ticker_report.steady_state_ratio()
    assert ratio is not None
    assert ratio < 0.5, f"update frames should be well under half of load, got {ratio:.1%}"


def test_report_is_engine_invariant(ticker_store, ticker_report):
    """The incremental engine's one streaming pass must reproduce the
    sequential report field for field (satellite of the incremental
    engine PR: the redundant/fresh split is engine-invariant)."""
    incremental = analyze_frames(ticker_store, engine="incremental")
    assert len(incremental.frames) == len(ticker_report.frames)
    for inc, seq in zip(incremental.frames, ticker_report.frames):
        assert inc == seq


def test_frame_criteria_restrict_to_span(ticker_store):
    spans = ticker_store.frame_spans()
    crits = frame_pixel_criteria(ticker_store, spans[1])
    assert crits.window_end == spans[1].end
    for crit in crits.criteria:
        assert spans[1].begin <= crit.index <= spans[1].end


def test_frameless_trace_is_rejected():
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    tracer.op("work", writes=(0x10,))
    tracer.marker(TILE_MARKER, cells=(0x10,))
    with pytest.raises(ValueError, match="no complete frame epochs"):
        analyze_frames(tracer.store)


def test_stability_pass_sees_silent_writes():
    # b rereads a cell rewritten only by a stable re-execution of a: the
    # rewrite is silent, so b stays stable (transitive redundancy).
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    a0 = tracer.op("produce", reads=(0x1,), writes=(0x10,))
    b0 = tracer.op("consume", reads=(0x10,), writes=(0x20,))
    a1 = tracer.op("produce", reads=(0x1,), writes=(0x10,))  # silent rewrite
    b1 = tracer.op("consume", reads=(0x10,), writes=(0x20,))
    c = tracer.op("invalidate", writes=(0x10,))  # genuinely new write
    b2 = tracer.op("consume", reads=(0x10,), writes=(0x20,))
    prev, stable = _stability_pass(tracer.store)
    assert stable[a1] and prev[a1] == a0
    assert stable[b1] and prev[b1] == b0
    assert not stable[b2], "a changing write must break stability"


# -- the windowed per-frame walk ------------------------------------------- #


def full_slice_frames(store):
    """Per-frame (total, in_slice, redundant) from full-trace slices.

    The reference the windowed walk must match: every frame sliced over
    the whole trace, counted record by record.
    """
    cdi = build_index(store.records())
    records = store.records()
    prev, stable = _stability_pass(store)
    rows = []
    for span in store.frame_spans():
        criteria = frame_pixel_criteria(store, span)
        flags = (
            BackwardSlicer(store, cdi, criteria).run().flags
            if criteria.criteria
            else bytearray(len(records))
        )
        window = range(span.begin, span.end + 1)
        redundant = sum(
            1
            for i in window
            if not flags[i]
            and records[i].kind == InstrKind.OP
            and stable[i]
            and 0 <= prev[i] < span.begin
        )
        rows.append((span.n_records(), sum(flags[i] for i in window), redundant))
    return rows


def frame_rows(report):
    return [(f.total, f.in_slice, f.redundant) for f in report.frames]


@pytest.mark.parametrize("seed", range(120))
def test_windowed_frames_match_full_slices(seed):
    n_frames = 2 + seed % 4
    store = random_frame_trace(
        seed,
        n_frames=n_frames,
        records_per_frame=120 + 40 * (seed // 12 % 3),
        n_threads=1 + seed // 4 % 3,
        empty_frame_at=seed // 36 % n_frames if seed % 3 == 0 else None,
    )
    report = analyze_frames(store)
    assert frame_rows(report) == full_slice_frames(store), (
        f"random_frame_trace({seed}) diverged"
    )


def _frame_trace():
    tracer = Tracer()
    tracer.spawn_thread(1, "CrRendererMain", "main_loop")
    return tracer


def test_invocation_returning_inside_the_frame_is_closed_below_begin():
    # f starts before frame:begin and returns inside the frame; only its
    # write below begin feeds the pixels, so only the walk below begin
    # makes f needed, and its CALL there flags its RET inside the frame.
    tracer = _frame_trace()
    tracer.call("f")
    tracer.op("produce", writes=(0x10,))
    tracer.frame_begin(0, "load")
    tracer.op("noise", writes=(0x99,))
    tracer.ret()
    ret_index = len(tracer.store) - 1
    tracer.op("paint", reads=(0x10,), writes=(0x20,))
    tracer.marker(TILE_MARKER, cells=(0x20,))
    tracer.frame_end(0)
    store = tracer.store

    expected = full_slice_frames(store)
    assert frame_rows(analyze_frames(store)) == expected

    span = store.frame_spans()[0]
    cdi = build_index(store.records())
    criteria = frame_pixel_criteria(store, span)
    assert BackwardSlicer(store, cdi, criteria).run().flags[ret_index]
    stopped = BackwardSlicer(store, cdi, criteria).run(lo=span.begin, hi=span.end)
    assert not stopped.flags[ret_index], "stopping at begin must miss the RET"


def test_invocation_open_at_frame_end_starts_from_its_stack():
    # g is open at frame:end and returns after it.  Inside the frame g
    # calls itself; with g's frames on the stack the inner CALL closes a
    # needed invocation and joins, from empty stacks it does not.
    tracer = _frame_trace()
    tracer.call("g")
    tracer.frame_begin(0, "load")
    tracer.call("g")
    inner_call = len(tracer.store) - 1
    tracer.op("paint", writes=(0x20,))
    tracer.marker(TILE_MARKER, cells=(0x20,))
    tracer.frame_end(0)
    tracer.ret()
    tracer.ret()
    store = tracer.store

    expected = full_slice_frames(store)
    assert frame_rows(analyze_frames(store)) == expected

    span = store.frame_spans()[0]
    cdi = build_index(store.records())
    criteria = frame_pixel_criteria(store, span)
    assert BackwardSlicer(store, cdi, criteria).run().flags[inner_call]
    empty = BackwardSlicer(store, cdi, criteria).run(
        lo=span.begin, hi=span.end, close_calls=True
    )
    assert not empty.flags[inner_call], "empty stacks must miss the inner CALL"


def test_ticker_frame_walks_visit_under_two_traces(ticker_store, ticker_report):
    # A whole-trace slice per frame walks n records per frame; the
    # stack-only pass plus the frame windows must stay under two traces.
    n = len(ticker_store)
    assert len(ticker_report.frames) * n > 2 * n
    assert 0 < ticker_report.visited < 2 * n


def test_full_range_walk_is_the_default_walk(ticker_store):
    cdi = build_index(ticker_store.records())
    criteria = frame_pixel_criteria(ticker_store, ticker_store.frame_spans()[0])
    default = BackwardSlicer(ticker_store, cdi, criteria, sample_every=500).run()
    ranged = BackwardSlicer(ticker_store, cdi, criteria, sample_every=500).run(
        lo=0, hi=len(ticker_store) - 1, stacks={}, close_calls=True
    )
    assert bytes(ranged.flags) == bytes(default.flags)
    assert ranged.timeline == default.timeline
    assert ranged.visited == default.visited == len(ticker_store)
