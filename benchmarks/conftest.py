"""Shared fixture for the speedup-margin benchmarks.

The modules here (engines, parallel, counts, checkpoint, jit) measure
speedups that the registry-derived ``repro.bench run`` grid does not: each
times its workloads at the ``quick`` preset through
:func:`repro.bench.timing.measure`, collects :class:`repro.bench.suite.CaseResult`
rows via the :func:`suite_cases` fixture, and asserts its margins only
under ``REPRO_BENCH_ASSERT=1``.  When ``REPRO_BENCH_DIR`` is set, each
module writes one normalized, schema-versioned suite JSON (its
``BENCH_SUITE_FILENAME``), the same format the ``python -m repro.bench``
CLI produces.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench.suite import BenchSuite, CaseResult
from repro.bench.timing import calibration_seconds


@pytest.fixture(scope="module")
def suite_cases(request) -> list[CaseResult]:
    """Per-module collector of normalized benchmark cases.

    Tests append :class:`CaseResult` rows; at module teardown the collected
    cases are written as one :class:`BenchSuite` to
    ``$REPRO_BENCH_DIR/<module's BENCH_SUITE_FILENAME>`` when that
    environment variable is set (the CI bench job sets it to upload the
    suites as artifacts).  Without it the cases are simply discarded — the
    assertions in the tests themselves are the point of a plain pytest run.
    """
    cases: list[CaseResult] = []
    yield cases
    out_dir = os.environ.get("REPRO_BENCH_DIR")
    filename = getattr(request.module, "BENCH_SUITE_FILENAME", None)
    if not out_dir or filename is None or not cases:
        return
    suite = BenchSuite(
        cases=tuple(cases),
        warmup=0,
        repeats=1,
        calibration_seconds=calibration_seconds(),
    )
    suite.save(Path(out_dir) / filename)
