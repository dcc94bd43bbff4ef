"""Workload ``traces``: stored trace -> reports ("collect once, profile many").

The input is the corpus -- two Table II pages and the multi-frame
pages -- collected once and saved as UCWA2.  Set-up converts all but the
two largest to UCWA3 with ``convert_trace``, which builds the slice
index, so a cost moved into the index shows in ``setup_s``.  The corpus
and the converted share are fixed and the seed orders the visits:
random pages landed at the median visit, and a seeded conversion moved
the large pages between formats, so either moved the latency metrics
with the seed rather than with the program.  ``amazon_mobile`` is left
out: its UCWA2 visit took either about 0.6 or about 0.87 reference
seconds on this host, next to ``livefeed``'s steady 0.7, so the median
visit flipped between the two (a 25% spread over ten seeds).  ``bing``
is left out for run time: its visits were 3.4 of every 7.8 reference
seconds.  Both are answered in ``pages``.

A visit loads one stored trace with ``load_any_trace``, creates one
``Profiler`` and answers the pixels, syscalls and pixels+syscalls
questions with the default engine, each with statistics and
categorization; traces with more than one complete frame also get
``analyze_frames``.  No browser runs while measuring: this is the trace
read side, where parsing and the slicer dominate.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time

import common
import layers

#: The two largest traces (the Table II pages) stay UCWA2, where parsing
#: dominates; the rest are converted to UCWA3 in set-up.
KEEP_V2 = 2
#: answer_ms_tail percentile: a run makes at least ``MIN_VISITS`` visits
#: (four cycles of the five traces), which leaves ten above p50 -- so on
#: this workload the rule's tail is the median visit, the second of the
#: four ``livefeed`` visits, whose neighbours by time are 2x away.
TAIL_P = 50
MIN_VISITS = 20


def corpus_names():
    """The traces of the corpus, in collection order."""
    from repro.workloads import MULTIFRAME_BENCHMARKS

    return ("amazon_desktop", "google_maps") + MULTIFRAME_BENCHMARKS


def collect(name: str):
    """Run one registered page's browser session and return its trace store.

    ``metrics_ticks=2`` is ``run_benchmark``'s recipe, so the Table II
    traces match the paper-number goldens.
    """
    from repro.harness import experiments
    from repro.workloads import benchmark

    return experiments.run_engine(benchmark(name), metrics_ticks=2).trace_store()


def collect_corpus(work, tracer):
    """Collect every page once and save it as UCWA2 (the ``collect`` step).

    This generates the workload's input and is not part of set-up.  The
    references come from each in-memory trace, computed in a forked
    child so the oracle's memory stays out of this process's peak RSS;
    only one trace is in memory at a time.  Returns ([(name, path,
    records)], references by name).
    """
    from repro.trace import store

    corpus, refs = [], {}
    for name in corpus_names():
        trace = collect(name)
        path = work / f"{name}.v2.ucwa"
        store.save_trace(trace, path)
        with common.span(tracer, "bench.reference"):
            refs[name] = common.in_child(references, name, trace)
        corpus.append((name, path, len(trace)))
        del trace
    return corpus, refs


def convert_smaller(corpus, work):
    """Set-up: convert all but the ``KEEP_V2`` largest traces to UCWA3.

    The conversion builds each trace's slice index.  Returns the (name,
    path) pairs the visits read.
    """
    from repro.trace import columnar

    keep = {item[0] for item in sorted(corpus, key=lambda item: item[2])[-KEEP_V2:]}
    stored = []
    for name, path, _ in corpus:
        if name not in keep:
            v3_path = work / f"{name}.v3.ucwa"
            columnar.convert_trace(path, v3_path)
            path = v3_path
        stored.append((name, path))
    return stored


def multi_frame(trace) -> bool:
    return sum(1 for span in trace.frame_spans() if span.complete) > 1


def references(name: str, trace) -> dict:
    """Oracle flag digests per criteria, per-frame slice sizes, golden check."""
    from repro.profiler import criteria_from_name, frame_pixel_criteria
    from repro.profiler.cdg import build_index

    cdi = build_index(trace.forward())
    ref = {
        crit: common.oracle_reference(trace, criteria_from_name(trace, crit), cdi)
        for crit in common.CRITERIA
    }
    if multi_frame(trace):
        from repro.profiler.oracle import oracle_slice

        ref["frames"] = []
        for span in trace.frame_spans():
            if not span.complete:
                continue
            crit = frame_pixel_criteria(trace, span)
            flags = oracle_slice(trace, crit, cdi=cdi).flags if crit.criteria else b""
            ref["frames"].append(sum(flags[span.begin : span.end + 1]))
    return ref


def visit(path):
    """The timed unit: one stored trace -> every report."""
    from repro.profiler import Profiler, criteria_from_name, redundancy
    from repro.trace import store

    trace = store.load_any_trace(path)
    profiler = Profiler(trace)
    answers = {}
    for crit in common.CRITERIA:
        result = profiler.slice(criteria_from_name(trace, crit))
        answers[crit] = (result, profiler.statistics(result), profiler.categorize(result))
    frames = redundancy.analyze_frames(trace) if multi_frame(trace) else None
    return trace, answers, frames


def verify(name, trace, answers, frames, ref, goldens) -> None:
    for crit, (result, stats, _) in answers.items():
        common.check_flags(f"{name} {crit}", result.flags, ref[crit])
    if name in goldens:
        stats = answers["pixels"][1]
        common.check_golden(name, stats.fraction, stats.total, goldens)
    if frames is not None:
        got = [frame.in_slice for frame in frames.frames]
        if got != ref["frames"]:
            raise common.WrongAnswer(f"{name} frames: in-slice {got} != {ref['frames']}")


def engine_sweep(corpus, refs, tracer) -> tuple:
    """Every registered engine on the pixels question of every corpus trace.

    The forward pass is built first, so each timing is the backward pass
    alone.  Returns (mean seconds per slice by engine, wrong answers,
    slices run).
    """
    from repro.profiler import Profiler, criteria_from_name
    from repro.profiler.api import ENGINES
    from repro.trace import store

    seconds = {engine: 0.0 for engine in ENGINES}
    slices = 0
    wrong = []
    for name, path in corpus:
        trace = store.load_any_trace(path)
        profiler = Profiler(trace)
        profiler.control_dependence_index()
        questions = [("pixels", criteria_from_name(trace, "pixels"))]
        slices += len(questions)
        for engine in ENGINES:
            with tracer.span(f"profiler.sweep.{engine}"):
                for crit, criteria in questions:
                    start = time.perf_counter()
                    result = profiler.slice(criteria, engine=engine)
                    seconds[engine] += time.perf_counter() - start
                    try:
                        common.check_flags(f"{name} {crit} {engine}", result.flags, refs[name][crit])
                    except common.WrongAnswer as err:
                        wrong.append(str(err))
    sweep = {f"profiler.backward.{e}_s": s / slices for e, s in seconds.items()}
    return sweep, wrong, slices * len(ENGINES)


def run(seed: int, seconds: float, tracer) -> common.Outcome:
    outcome = common.Outcome()
    work = common.fresh_dir(f"traces-{os.getpid()}")
    try:
        return _run(seed, seconds, tracer, outcome, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(seed, seconds, tracer, outcome, work) -> common.Outcome:
    goldens = common.load_goldens()
    instr = layers.Instrumentation(tracer) if tracer is not None else None
    if instr is not None:
        instr.on()
    corpus, refs = collect_corpus(work, tracer)
    setup_s, paths = common.timed_setup(lambda rep: convert_smaller(corpus, work), tracer)
    if instr is not None:
        small = min(corpus, key=lambda item: item[2])[1]
        outcome.metrics["bench.tracing_overhead_share"] = instr.overhead_share(lambda: visit(small))

    rng = random.Random(seed)
    latencies, wall, fractions = [], [], []
    records = 0
    cycles = 0
    begin = time.perf_counter()
    while sum(wall) < seconds or len(latencies) < MIN_VISITS:
        # Whole cycles only: every trace is visited equally often.
        order = paths[:]
        rng.shuffle(order)
        cycles += 1
        for name, path in order:
            outcome.attempted += 1
            try:
                (trace, answers, frames), elapsed, reference = common.measure(
                    lambda: visit(path), tracer, rid=outcome.attempted
                )
            except Exception as err:  # a crashing answer is a failed one
                outcome.fail(f"{name}: {type(err).__name__}: {err}")
                continue
            wall.append(elapsed)
            latencies.append(reference)
            records += len(trace)
            fractions.append(answers["pixels"][1].fraction)
            with common.span(tracer, "bench.verify"):
                try:
                    verify(name, trace, answers, frames, refs[name], goldens)
                except common.WrongAnswer as err:
                    outcome.fail(str(err))
                del trace, answers, frames
                # Each answer starts from the same collector state, so its
                # time does not depend on what the previous answer left.
                gc.collect()
    end = time.perf_counter()

    outcome.notes.update(
        visits=len(latencies),
        cycles=cycles,
        corpus=" ".join(f"{name}:{path.suffixes[0][1:]}" for name, path in paths),
        tail_percentile=f"p{TAIL_P} ({len(latencies) - round(len(latencies) * TAIL_P / 100)} beyond)",
        wall_records_per_s=f"{records / sum(wall):.6g}",
        wall_answer_ms_p50=f"{common.median(wall) * 1e3:.6g}",
        host_speed=f"{sum(latencies) / sum(wall):.4f} reference s per wall s",
    )
    if tracer is None:
        outcome.metrics.update(
            setup_s=setup_s,
            records_per_s=records / sum(latencies),
            answer_ms_p50=common.median(latencies) * 1e3,
            answer_ms_tail=common.nearest_rank(latencies, TAIL_P) * 1e3,
            peak_rss_mb=common.peak_rss_mb(),
        )
        return outcome
    instr.off()
    sweep, wrong, slices = engine_sweep(paths, refs, tracer)
    outcome.attempted += slices
    for message in wrong:
        outcome.fail(message)
    outcome.metrics.update(layers.per_layer(tracer))
    outcome.metrics.update(common.unexercised("service."))
    outcome.metrics.update(sweep)
    outcome.metrics.update(
        {
            "profiler.slice_fraction": sum(fractions) / len(fractions),
            "bench.untraced_share": tracer.uncovered_share("bench.answer", begin, end),
            "bench.generator_late_ms_tail": 0.0,
        }
    )
    common.self_time_notes(outcome, tracer, begin, end)
    return outcome
