"""The benchmark's own checks: references catch wrong answers, seeds
reproduce inputs, and the statistics and spans mean what they say.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import shutil
import subprocess
import sys
import time

import pytest

import common
import wl_pages
import wl_service
import wl_traces
from spans import Tracer


@pytest.fixture(scope="module")
def small_page():
    from repro.workloads.fuzz import random_page

    return random_page(3)


@pytest.fixture(scope="module")
def answered(small_page, tmp_path_factory):
    path = tmp_path_factory.mktemp("page") / "page.ucwa"
    return wl_pages.answer(small_page, path), path


# -- references catch wrong answers ------------------------------------- #


def test_page_answer_matches_oracle(small_page, answered):
    result, _ = answered
    wl_pages.verify(small_page, result, goldens={})


def test_corrupted_oracle_reference_is_caught(answered):
    from repro.profiler import pixel_criteria

    result, _ = answered
    reference = common.oracle_reference(result.store, pixel_criteria(result.store))
    corrupted = "0" * 64 if reference != "0" * 64 else "1" * 64
    common.check_flags("page", result.pixel.flags, reference)
    with pytest.raises(common.WrongAnswer):
        common.check_flags("page", result.pixel.flags, corrupted)


def test_wrong_flags_are_caught(answered):
    result, _ = answered
    flipped = bytearray(result.pixel.flags)
    flipped[len(flipped) // 2] ^= 1
    reference = common.flags_digest(result.pixel.flags)
    with pytest.raises(common.WrongAnswer):
        common.check_flags("page", flipped, reference)


def test_corrupted_golden_is_caught():
    goldens = common.load_goldens()
    golden = goldens["bing"]
    common.check_golden("bing", golden["all_fraction"], golden["total_instructions"], goldens)
    bad = {"bing": dict(golden, all_fraction=golden["all_fraction"] + 1e-6)}
    with pytest.raises(common.WrongAnswer):
        common.check_golden("bing", golden["all_fraction"], golden["total_instructions"], bad)
    bad = {"bing": dict(golden, total_instructions=golden["total_instructions"] + 1)}
    with pytest.raises(common.WrongAnswer):
        common.check_golden("bing", golden["all_fraction"], golden["total_instructions"], bad)


def test_traces_visit_checks_every_answer(answered):
    _, path = answered
    trace, answers, frames = wl_traces.visit(path)
    ref = wl_traces.references("page", trace)
    wl_traces.verify("page", trace, answers, frames, ref, goldens={})
    for key in common.CRITERIA:
        bad = dict(ref, **{key: "0" * 64})
        with pytest.raises(common.WrongAnswer):
            wl_traces.verify("page", trace, answers, frames, bad, goldens={})
    if frames is not None:
        bad = dict(ref, frames=[n + 1 for n in ref["frames"]])
        with pytest.raises(common.WrongAnswer):
            wl_traces.verify("page", trace, answers, frames, bad, goldens={})


def test_service_check_rejects_wrong_answers():
    question = ("t", "pixels", None)
    load = wl_service.Load(None, {}, {question: "a" * 64}, {"t": "d" * 64})
    good = {"outcome": "ok", "result": {"trace_digest": "d" * 64, "flags_sha256": "a" * 64}}
    assert load._check(question, good) is None
    wrong_flags = {"outcome": "ok", "result": {"trace_digest": "d" * 64, "flags_sha256": "b" * 64}}
    assert load._check(question, wrong_flags) is not None
    wrong_trace = {"outcome": "ok", "result": {"trace_digest": "e" * 64, "flags_sha256": "a" * 64}}
    assert load._check(question, wrong_trace) is not None
    assert load._check(question, {"outcome": "error", "error": {}}) is not None


# -- the seed reproduces the inputs ------------------------------------- #


def test_same_seed_same_pages_and_trace_digests(tmp_path):
    from repro.trace.store import file_digest

    names = [[page.name for page in wl_pages.page_pass(seed, 1)] for seed in (7, 7, 8)]
    assert names[0] == names[1] != names[2]

    def random_names(pages):
        return {p.name for p in pages if p.name.startswith("fuzz_")}

    # every pass draws fresh random pages
    assert not random_names(wl_pages.page_pass(7, 0)) & random_names(wl_pages.page_pass(7, 1))
    page = next(p for p in wl_pages.page_pass(7, 1) if p.name.startswith("fuzz_"))
    digests = []
    for i in range(2):
        wl_pages.answer(page, tmp_path / f"{i}.ucwa")
        digests.append(file_digest(tmp_path / f"{i}.ucwa"))
    assert digests[0] == digests[1]


def test_same_seed_same_schedule():
    space = [("t", crit, frame) for crit in common.CRITERIA for frame in (None, 0, 1)]
    plans = [wl_service.schedule(seed, 30.0, 5.0, space) for seed in (3, 3, 4)]
    assert plans[0] == plans[1] != plans[2]
    offsets = [t for t, _ in plans[0]]
    assert offsets == sorted(offsets) and 0 <= offsets[0] and offsets[-1] < 5.0
    assert len(offsets) == 150  # the offered load is exact


def test_schedule_asks_every_question_new_once_evenly_spaced():
    space = [(t, crit, frame) for t in ("a", "b") for crit in common.CRITERIA for frame in (None, 0)]
    plan = wl_service.schedule(9, 30.0, 10.0, space)
    assert len(plan) == 300
    firsts = {}
    for t, question in plan:
        firsts.setdefault(question, t)
    assert set(firsts) == set(space)  # every question gets asked
    times = sorted(firsts.values())
    gap = 10.0 / len(space)
    assert all(abs(b - a - gap) < 1e-9 for a, b in zip(times, times[1:]))
    for t, question in plan:  # a repeat comes after its question settled
        assert t == firsts[question] or t - firsts[question] >= wl_service.REPEAT_AFTER_S


# -- statistics and spans ----------------------------------------------- #


def test_tail_percentile_leaves_ten_samples():
    for n in (11, 36, 100, 450):
        p = common.tail_percentile(n)
        beyond = n - int(-(-n * p // 100))
        assert beyond >= 10
    assert common.tail_percentile(36) == 72
    assert common.nearest_rank([3, 1, 2, 4], 50) == 2
    # the fixed per-workload tails leave ten samples at the minimum run size
    assert common.tail_percentile(wl_pages.MIN_PASSES * (4 + wl_pages.RANDOM_PER_PASS)) >= wl_pages.TAIL_P
    assert common.tail_percentile(wl_traces.MIN_VISITS) >= wl_traces.TAIL_P
    seconds = common.benchmark_spec()["run_seconds"]
    answers = round(wl_service.RATE * seconds)
    assert common.tail_percentile(answers) >= wl_service.TAIL_P
    space = 2 * len(common.CRITERIA) + len(common.CRITERIA) * (1 + wl_service.FRAMES_ASKED)
    assert common.tail_percentile(space) >= wl_service.COLD_TAIL_P


def test_self_time_and_uncovered_share():
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.span("bench.answer", rid=1):
        with tracer.span("profiler.backward"):
            time.sleep(0.02)
        time.sleep(0.01)
    time.sleep(0.02)
    t1 = time.perf_counter()
    calls = tracer.by_name()
    assert calls["profiler.backward"][0] == 1
    assert calls["profiler.backward"][1] >= 0.02
    assert 0.009 <= calls["bench.answer"][1] < 0.02
    assert tracer.spans[1].rid == 1  # the child inherits the request id
    assert 0.2 < tracer.uncovered_share("bench.answer", t0, t1) < 0.5
    events = tracer.chrome_events()["traceEvents"]
    assert [e["name"] for e in events] == ["bench.answer", "profiler.backward"]
    assert events[1]["args"]["parent"] == 0 and events[0]["ph"] == "X"


def test_wrappers_install_and_uninstall():
    import layers
    from repro.profiler.api import Profiler

    original = Profiler.slice
    instr = layers.Instrumentation(Tracer())
    instr.on()
    assert Profiler.slice is not original
    instr.off()
    assert Profiler.slice is original


def test_metric_names_match_benchmark_json():
    import layers

    spec = common.benchmark_spec()
    per_layer = {row["name"] for row in spec["per_layer"]}
    assert {name + "_s" for name in layers.SPAN_METRICS} <= per_layer
    from repro.profiler.api import ENGINES

    assert {f"profiler.backward.{e}_s" for e in ENGINES} <= per_layer


def test_fails_without_program_source(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pages", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_reference_time_scales_with_host_speed():
    ref = common.CALIBRATION_REF_S
    assert common.reference_s(1.0, ref, ref) == 1.0
    assert common.reference_s(1.0, 2 * ref, 2 * ref) == 0.5  # a host half as fast
    assert common.calibration_s() > 0
