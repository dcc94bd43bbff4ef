"""Shared pieces of the benchmark: paths, statistics, references, output."""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench") / "out"  # relative: keeps the socket path short
GOLDENS = ROOT / "tests" / "harness" / "goldens" / "paper_numbers.json"
CRITERIA = ("pixels", "syscalls", "pixels+syscalls")
#: Tolerance for comparing a fraction with its golden value.
GOLDEN_TOL = 1e-9


class WrongAnswer(Exception):
    """An answer that disagrees with its reference."""


# -- statistics ---------------------------------------------------------- #


def nearest_rank(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile that leaves at least ten samples beyond it."""
    if n <= 10:
        return 0
    return int(math.floor(100.0 * (n - 10) / n))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- host speed ---------------------------------------------------------- #

#: The host is shared: its speed for one pure-Python thread drifts by up
#: to 1.5x within a minute, more than the bounds allow.  So interpreter-
#: bound timings are reported at a reference speed: a span of T wall
#: seconds bracketed by calibration passes that took C seconds on
#: average reads T * CALIBRATION_REF_S / C.  The loop runs no program
#: code, so a change to the program moves the reported time exactly as
#: it moves the wall time at equal host speed.  Like the program, the
#: loop is interpreter-bound with scattered memory reads: a random walk
#: over a buffer four times the per-core L2 cache, so it slows with the
#: same neighbours the program slows with.
CALIBRATION_LOOPS = 150_000
#: The loop's time on the reference host: a 2-vCPU Xeon virtual machine
#: (2 MiB L2 per core), Python 3.11, in a quiet stretch.
CALIBRATION_REF_S = 0.030
_calibration_buffer: List[bytearray] = []


def calibration_s() -> float:
    """CPU seconds one pass of the calibration loop takes now.

    CPU time of the calling thread, so a pass that another thread or
    process kept waiting does not read as a slow host.
    """
    if not _calibration_buffer:
        _calibration_buffer.append(bytearray(range(256)) * (1 << 15))  # 8 MiB
    buf = _calibration_buffer[0]
    mask = len(buf) - 1
    start = time.thread_time()
    j = total = 0
    for _ in range(CALIBRATION_LOOPS):
        j = (j * 1103515245 + 12345) & mask
        total += buf[j]
    return time.thread_time() - start


class Calibrator:
    """Calibration passes on request, in a process of their own.

    For timings taken while other threads of this process are busy: a
    pass here would hold the interpreter lock they need, and be slowed
    by them.  The process is a fresh interpreter, so it holds none of
    this process's memory.
    """

    def __init__(self) -> None:
        here = str(Path(__file__).resolve().parent)
        code = f"import sys; sys.path.insert(0, {here!r}); import common; common.serve_calibration()"
        self.proc = subprocess.Popen(
            [sys.executable, "-c", code], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.lock = threading.Lock()
        self.pass_s()  # started and warm before the first timing

    def pass_s(self) -> float:
        """One calibration pass, in CPU seconds."""
        with self.lock:
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            return float(self.proc.stdout.readline())

    def stop(self) -> None:
        self.proc.stdin.close()  # the child sees the end of its input and exits
        self.proc.wait()
        self.proc.stdout.close()


def serve_calibration() -> None:
    """The calibrator's side: one pass per line read, its time written back."""
    for _ in sys.stdin:
        print(repr(calibration_s()), flush=True)


def measure(fn: Callable[[], object], tracer=None, name: str = "bench.answer", rid=None):
    """``fn()`` timed, in span ``name``; (result, wall seconds, reference seconds).

    The host's speed is the mean of a calibration pass just before and
    one just after the call, both outside the timed region and the span.
    """
    before = calibration_s()
    start = time.perf_counter()
    with span(tracer, name, rid):
        result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed, reference_s(elapsed, before, calibration_s())


def reference_s(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` wall seconds, bracketed by passes of ``before`` and
    ``after`` seconds, in reference seconds."""
    return elapsed * 2.0 * CALIBRATION_REF_S / (before + after)


def timed_setup(step: Callable[[int], object], tracer=None, repeats: int = 3, undo=None):
    """Run set-up ``repeats`` times; (median reference seconds, last result).

    ``undo(result)``, when given, releases every result but the last,
    outside the timed region.
    """
    durations: List[float] = []
    result = None
    for rep in range(repeats):
        if rep and undo is not None:
            undo(result)
        result, _, reference = measure(lambda: step(rep), tracer, "bench.setup")
        durations.append(reference)
    return statistics.median(durations), result


def in_child(fn: Callable, *args):
    """``fn(*args)`` in a forked child; returns its (picklable) result.

    The child sees this process's memory as it is, and what it allocates
    never counts towards this process's peak RSS.
    """
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main, args=(fn, args, sender))
    proc.start()
    sender.close()
    try:
        ok, value = receiver.recv()
    finally:
        receiver.close()
        proc.join()
    if not ok:
        raise RuntimeError(f"child computation failed: {value}")
    return value


def _child_main(fn, args, sender) -> None:
    try:
        sender.send((True, fn(*args)))
    except Exception as err:  # report, do not hang the parent
        sender.send((False, f"{type(err).__name__}: {err}"))
    finally:
        sender.close()


def span(tracer, name: str, rid=None):
    """A tracer span, or nothing when the run is untraced."""
    return nullcontext() if tracer is None else tracer.span(name, rid)


def fresh_dir(name: str) -> Path:
    path = OUT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- references ---------------------------------------------------------- #


def flags_digest(flags) -> str:
    return hashlib.sha256(bytes(flags)).hexdigest()


def load_goldens() -> Dict[str, dict]:
    return json.loads(GOLDENS.read_text())["table2"]


def check_golden(name: str, fraction: float, total: int, goldens: Dict[str, dict]) -> None:
    """A Table II page's pixel slice must reproduce the frozen paper numbers."""
    golden = goldens[name]
    if total != golden["total_instructions"]:
        raise WrongAnswer(f"{name}: {total} records, golden {golden['total_instructions']}")
    if abs(fraction - golden["all_fraction"]) > GOLDEN_TOL:
        raise WrongAnswer(f"{name}: fraction {fraction!r}, golden {golden['all_fraction']!r}")


def oracle_reference(store, criteria, cdi=None) -> str:
    """Digest of the reference slicer's flags for ``criteria`` on ``store``."""
    from repro.profiler.oracle import oracle_slice

    return flags_digest(oracle_slice(store, criteria, cdi=cdi).flags)


def check_flags(label: str, flags, expected: str) -> None:
    got = flags_digest(flags)
    if got != expected:
        raise WrongAnswer(f"{label}: flags {got[:12]} differ from reference {expected[:12]}")


# -- output -------------------------------------------------------------- #


class Outcome:
    """What one run measured, before it is rendered."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def unexercised(*prefixes: str) -> Dict[str, float]:
    """Per-layer rows of layers this workload never crosses: reported as 0."""
    return {
        row["name"]: 0.0
        for row in benchmark_spec()["per_layer"]
        if row["name"].startswith(prefixes)
    }


def self_time_notes(outcome: Outcome, tracer, begin: float, end: float) -> None:
    """Self seconds per layer over the measured phase, for the readable report."""
    for layer, seconds in sorted(tracer.layer_self(begin, end).items()):
        outcome.notes[f"self_s.{layer}"] = f"{seconds:.3f} of {end - begin:.3f} wall"


def emit(outcome: Outcome, names: Dict[str, str], trace_file: Optional[Path]) -> int:
    """Print the readable report, then the one-line JSON result."""
    missing = [name for name in names if name not in outcome.metrics]
    if missing:
        print(f"benchmark error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for message in outcome.errors:
        print(f"WRONG: {message}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"failed_share = {share:.6f} ({outcome.failed} of {outcome.attempted})")
    for key, value in sorted(outcome.notes.items()):
        print(f"note {key} = {value}")
    for name, unit in names.items():
        print(f"{name} = {outcome.metrics[name]:.6g} {unit}")
    if trace_file is not None:
        print(f"spans written to {trace_file}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in names.items()
        },
    }
    print(json.dumps(result))
    return 0
