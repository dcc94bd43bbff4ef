"""Golden regression test for the profiler's outputs on every workload.

``goldens/slice_digests.json`` freezes, per registered workload, the
control-dependence map, and per criteria family the slice flags, the
Figure 4 timeline and the join reasons (as sha256s, plus the per-kind
reason counts); for the multi-frame workloads also every frame's
``(total, in_slice, redundant)``.  Making the forward pass, the
backward walk or the statistics cheaper must not change any of them; an
*intentional* change is recorded by regenerating the golden::

    PYTHONPATH=src python -m repro.harness.goldens --slices tests/harness/goldens/slice_digests.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.goldens import SLICE_CRITERIA, collect_slice_digests
from repro.workloads import MULTIFRAME_BENCHMARKS, benchmark_names

GOLDEN_PATH = Path(__file__).parent / "goldens" / "slice_digests.json"


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def measured():
    return collect_slice_digests()


def test_golden_covers_every_workload_and_criteria(golden):
    assert set(golden) == set(benchmark_names())
    for name, entry in golden.items():
        expected = {"cdg", *SLICE_CRITERIA}
        if name in MULTIFRAME_BENCHMARKS:
            expected.add("frames")
        assert set(entry) == expected, name


def test_reason_counts_sum_to_a_nonempty_slice(golden):
    for name, entry in golden.items():
        for family in SLICE_CRITERIA:
            assert sum(entry[family]["reason_counts"].values()) > 0, (name, family)


@pytest.mark.parametrize("name", benchmark_names())
def test_slice_digests_match_golden(measured, golden, name):
    assert measured[name] == golden[name]
