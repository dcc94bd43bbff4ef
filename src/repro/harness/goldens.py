"""Frozen paper-number collection for regression goldens.

:func:`collect_paper_numbers` computes the headline fractions behind
Table I, Table II, and Figure 2 from fresh benchmark runs — the same
quantities the reports print, but as raw floats.  The checked-in golden
(``tests/harness/goldens/paper_numbers.json``) freezes them so slicer
and engine refactors cannot silently shift the reproduced numbers; the
regression test asserts equality within 1e-9.

Regenerate the golden (after an *intentional* change to the measured
numbers) with::

    PYTHONPATH=src python -m repro.harness.goldens tests/harness/goldens/paper_numbers.json

:func:`collect_trace_digests` freezes the traces themselves: the
``trace_digest`` of every registered workload and of a few random pages
(``tests/harness/goldens/trace_digests.json``).  Host-side speed-ups of
the browser, tracer or trace codec must leave every digest unchanged;
regenerate with::

    PYTHONPATH=src python -m repro.harness.goldens --digests tests/harness/goldens/trace_digests.json
"""

from __future__ import annotations

import json
from typing import Dict

from ..analysis.coverage import coverage_row
from ..analysis.utilization import busy_fraction, find_spikes
from ..browser.context import MAIN_THREAD
from ..trace.store import trace_digest
from ..workloads import benchmark_names
from ..workloads.fuzz import random_page
from . import paper
from .experiments import cached_run, run_engine

#: (site label, benchmark name) pairs per Table I condition.
TABLE1_RUNS = {
    "Only Load": (
        ("Amazon", "amazon_desktop"),
        ("Bing", "bing_load_only"),
        ("Google Maps", "google_maps"),
    ),
    "Load and Browse": (
        ("Amazon", "amazon_desktop_browse"),
        ("Bing", "bing"),
        ("Google Maps", "google_maps_browse"),
    ),
}


def collect_paper_numbers() -> Dict:
    """All golden-frozen headline numbers, as plain JSON-able data."""
    numbers: Dict = {"table2": {}, "table1": {}, "figure2": {}}

    for name in paper.TABLE2:
        result = cached_run(name)
        stats = result.stats
        rasters = stats.threads_by_prefix("CompositorTileWorker")
        numbers["table2"][name] = {
            "all_fraction": stats.fraction,
            "main_fraction": stats.thread_by_name("CrRendererMain").fraction,
            "compositor_fraction": stats.thread_by_name("Compositor").fraction,
            "rasterizer_fractions": [t.fraction for t in rasters],
            "total_instructions": stats.total,
        }

    for condition, runs in TABLE1_RUNS.items():
        for site, bench_name in runs:
            row = coverage_row(cached_run(bench_name), site, condition)
            numbers["table1"][f"{site}|{condition}"] = {
                "unused_fraction": row.unused_fraction,
                "unused_bytes": row.unused_bytes,
                "total_bytes": row.total_bytes,
            }

    fig2 = cached_run("amazon_desktop_browse")
    series = fig2.utilization(MAIN_THREAD)
    numbers["figure2"] = {
        "mean_utilization": busy_fraction(series),
        "spike_count": len(find_spikes(series)),
    }
    return numbers


#: ``random_page`` seeds whose trace digests are frozen beside the workloads.
DIGEST_RANDOM_PAGES = (0, 1, 2)


def collect_trace_digests() -> Dict[str, str]:
    """``trace_digest`` of every registered workload and frozen random page.

    Workloads are collected through :func:`cached_run` (the same traces
    the paper-number goldens measure); random pages are keyed
    ``random_page(<seed>)``.
    """
    digests = {name: trace_digest(cached_run(name).store) for name in benchmark_names()}
    for seed in DIGEST_RANDOM_PAGES:
        # metrics_ticks as in run_benchmark, so these are the traces it profiles.
        store = run_engine(random_page(seed), metrics_ticks=2).trace_store()
        digests[f"random_page({seed})"] = trace_digest(store)
    return digests


def main(argv) -> int:
    digests = argv[:1] == ["--digests"]
    if digests:
        argv = argv[1:]
    if len(argv) != 1:
        print(__doc__)
        return 2
    path = argv[0]
    numbers = collect_trace_digests() if digests else collect_paper_numbers()
    with open(path, "w") as fh:
        json.dump(numbers, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    import sys

    raise SystemExit(main(sys.argv[1:]))
