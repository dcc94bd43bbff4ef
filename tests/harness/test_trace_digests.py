"""Golden regression test for the collected traces themselves.

``goldens/trace_digests.json`` freezes ``trace_digest`` (sha256 of the
canonical UCWA2 image) for every registered workload and a few random
pages.  Speeding up the host side of collection — the browser's
untraced bookkeeping, the tracer's emit path, the trace codec — must not
change one byte of any trace; an *intentional* change to the simulated
work is recorded by regenerating the golden::

    PYTHONPATH=src python -m repro.harness.goldens --digests tests/harness/goldens/trace_digests.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.goldens import DIGEST_RANDOM_PAGES, collect_trace_digests
from repro.workloads import benchmark_names

GOLDEN_PATH = Path(__file__).parent / "goldens" / "trace_digests.json"


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def measured():
    return collect_trace_digests()


def test_golden_covers_every_workload_and_random_page(golden):
    expected = set(benchmark_names())
    expected |= {f"random_page({seed})" for seed in DIGEST_RANDOM_PAGES}
    assert set(golden) == expected


def test_trace_digests_match_golden(measured, golden):
    changed = sorted(name for name in golden if measured.get(name) != golden[name])
    assert not changed, f"trace digests changed for {changed}"
