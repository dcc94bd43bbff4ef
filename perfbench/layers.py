"""Span wrappers around the public calls of each layer (traced runs only).

``install(tracer)`` replaces each boundary below with a wrapper that
opens a span (or bumps a counter) and calls the original; it returns a
function that puts every original back.  The program itself is never
edited: the wrappers live only in the benchmark's process.

Span names are ``<layer>.<stage>``; the layers are the repository's
modules: ``browser`` (simulated engine host stages), ``trace`` (store,
UCWA2 save/load, UCWA3 convert/load), ``profiler`` (forward pass,
backward pass, statistics, categorization, frames) and ``service``
(client calls into the daemon).
"""

from __future__ import annotations

import functools
import gc
import os
import statistics
import time
from typing import Callable, List

from spans import Tracer


def _spanning(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        current = tracer.current()
        if current is not None and current.name == name:
            return fn(*args, **kwargs)  # recursion stays inside one span
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _counting(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.count(name + "_s", time.perf_counter() - start)
            tracer.count(name + "_calls")

    return wrapper


def _file_size_counter(tracer: Tracer, name: str, fn: Callable, dst_arg: int) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.count(name, os.path.getsize(args[dst_arg]))
        tracer.count(name + "_files")
        return result

    return wrapper


def _session(tracer: Tracer, fn: Callable, trace_store: Callable) -> Callable:
    """A browser session; also counts the records its trace holds."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span("browser.session"):
            engine = fn(*args, **kwargs)
        tracer.count("machine.records", len(trace_store(engine)))
        return engine

    return wrapper


def _forward(tracer: Tracer, fn: Callable) -> Callable:
    """The forward pass runs once per profiler; later calls reuse it."""

    @functools.wraps(fn)
    def wrapper(self):
        if self._cdi is not None:
            return fn(self)
        with tracer.span("profiler.forward"):
            return fn(self)

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    from repro.browser import engine as browser_engine
    from repro.browser.compositor.host import CompositorHost
    from repro.browser.compositor.tiles import CompositedLayer
    from repro.browser.html.parser import HTMLParser
    from repro.browser.js.interpreter import Interpreter
    from repro.browser.layout.engine import LayoutEngine
    from repro.browser.paint.painter import Painter
    from repro.browser.style.resolver import StyleResolver
    from repro.harness import experiments
    from repro.profiler import redundancy
    from repro.profiler.api import Profiler
    from repro.service.client import ServiceClient
    from repro.trace import columnar, store

    spans = [
        (HTMLParser, "parse", "browser.html_parse"),
        (browser_engine, "parse_css", "browser.css_parse"),
        (Interpreter, "execute_script", "browser.js"),
        (Interpreter, "call_function_value", "browser.js"),
        (StyleResolver, "resolve_document", "browser.style"),
        (StyleResolver, "resolve_subtree", "browser.style"),
        (LayoutEngine, "layout_document", "browser.layout"),
        (LayoutEngine, "relayout_subtree", "browser.layout"),
        (Painter, "paint_document", "browser.paint"),
        (Painter, "repaint_layer", "browser.paint"),
        (Painter, "repaint_subtree", "browser.paint"),
        (CompositorHost, "commit", "browser.commit"),
        (CompositorHost, "recommit_layer", "browser.commit"),
        (CompositorHost, "recommit_span", "browser.commit"),
        (CompositorHost, "raster_tile", "browser.raster"),
        (CompositorHost, "draw_frame", "browser.draw"),
        (browser_engine.BrowserEngine, "trace_store", "trace.store_build"),
        (store, "save_trace", "trace.save_v2"),
        (store, "load_trace", "trace.load_v2"),
        (columnar, "convert_trace", "trace.convert_v3"),
        (columnar, "load_columnar", "trace.load_v3"),
        (Profiler, "slice", "profiler.backward"),
        (Profiler, "statistics", "profiler.stats"),
        (Profiler, "categorize", "profiler.categorize"),
        (redundancy, "analyze_frames", "profiler.frames"),
        (ServiceClient, "upload_trace", "service.upload"),
        (ServiceClient, "submit", "service.submit"),
    ]
    originals: List[tuple] = []
    trace_store = browser_engine.BrowserEngine.trace_store

    def patch(owner, attr: str, replacement: Callable) -> None:
        originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for owner, attr, name in spans:
        patch(owner, attr, _spanning(tracer, name, getattr(owner, attr)))
    patch(experiments, "run_engine", _session(tracer, experiments.run_engine, trace_store))
    patch(Profiler, "control_dependence_index", _forward(tracer, Profiler.control_dependence_index))
    patch(CompositedLayer, "items_for_tile",
          _counting(tracer, "browser.items_for_tile", CompositedLayer.items_for_tile))
    # Sizes are read after the wrapped write returns (dst is argument 1).
    patch(store, "save_trace", _file_size_counter(tracer, "trace.v2_bytes", store.save_trace, 1))
    patch(columnar, "convert_trace",
          _file_size_counter(tracer, "trace.v3_bytes", columnar.convert_trace, 1))

    def uninstall() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return uninstall


class Instrumentation:
    """Switches the wrappers of :func:`install` on and off."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._uninstall = None

    def on(self) -> None:
        if self._uninstall is None:
            self._uninstall = install(self.tracer)

    def off(self) -> None:
        if self._uninstall is not None:
            self._uninstall()
            self._uninstall = None

    def overhead_share(self, unit: Callable[[], object], repeats: int = 5) -> float:
        """Traced over untraced median wall time of ``unit``, minus one.

        Untraced and traced runs alternate, each after a collection, so
        drift in the host's speed and leftover garbage fall on both sides.
        """
        timings = {False: [], True: []}
        for _ in range(repeats):
            for traced in (False, True):
                if traced:
                    self.on()
                else:
                    self.off()
                gc.collect()
                start = time.perf_counter()
                unit()
                timings[traced].append(time.perf_counter() - start)
        self.on()
        return statistics.median(timings[True]) / statistics.median(timings[False]) - 1.0


#: Spans reported as mean self seconds per call (metric ``<span>_s``).
SPAN_METRICS = (
    "browser.session", "browser.html_parse", "browser.css_parse", "browser.js",
    "browser.style", "browser.layout", "browser.paint", "browser.commit",
    "browser.raster", "browser.draw",
    "trace.store_build", "trace.save_v2", "trace.convert_v3", "trace.load_v2",
    "trace.load_v3",
    "profiler.forward", "profiler.backward", "profiler.stats",
    "profiler.categorize", "profiler.frames",
)


def per_layer(tracer: Tracer) -> dict:
    """Per-layer metrics derived from every span and counter of the run.

    Times are mean self seconds per call of the boundary (0 when the
    workload never crosses it); per-session counts divide by the number
    of browser sessions; byte sizes are means per file written.
    """
    calls = tracer.by_name()
    counters = tracer.counters
    out = {}
    for name in SPAN_METRICS:
        n, seconds = calls.get(name, (0, 0.0))
        out[name + "_s"] = seconds / n if n else 0.0
    sessions = calls.get("browser.session", (0, 0.0))[0]
    per_session = (lambda total: total / sessions) if sessions else (lambda total: 0.0)
    out["browser.raster_tiles"] = per_session(calls.get("browser.raster", (0, 0.0))[0])
    out["browser.items_for_tile_calls"] = per_session(counters["browser.items_for_tile_calls"])
    out["browser.items_for_tile_s"] = per_session(counters["browser.items_for_tile_s"])
    out["machine.records"] = per_session(counters["machine.records"])
    session_s = sum(s.end - s.start for s in tracer.spans if s.name == "browser.session")
    out["machine.records_per_s"] = counters["machine.records"] / session_s if session_s else 0.0
    for size in ("trace.v2_bytes", "trace.v3_bytes"):
        files = counters[size + "_files"]
        out[size] = counters[size] / files if files else 0.0
    return out
