"""Tests of the benchmark itself: span arithmetic, inputs, metric names, restoration.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

from perfbench import run, tracing
from perfbench.tracing import Span
from perfbench.workloads import (
    SERVE_MISSES,
    SERVE_REQUESTS,
    SERVE_SCENARIOS,
    WORKLOADS,
    UnitResult,
    request_stream,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent, None)


# ------------------------------------------------------------- span arithmetic


def test_self_time_subtracts_child_coverage():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),  # overlaps a: union 1..6 = 5
        _span(3, "leaf", 2.0, 3.0, parent=1),
        _span(4, "late", 9.0, 12.0, parent=0),  # clipped to the parent: 9..10
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def test_layer_totals_count_outermost_calls_only():
    spans = [
        _span(0, "resize", 0.0, 4.0),
        _span(1, "resize", 1.0, 3.0, parent=0),  # delegating call of the same layer
        _span(2, "quantiles", 1.5, 2.0, parent=1),
        _span(3, "resize", 5.0, 6.0),
    ]
    totals = tracing.layer_totals(spans)
    assert totals["resize"]["calls"] == 2
    assert totals["resize"]["self_s"] == pytest.approx(2.0 + 1.5 + 1.0)
    assert totals["quantiles"] == {"self_s": pytest.approx(0.5), "calls": 1}


def test_uncovered_time_merges_roots_across_threads():
    spans = [
        _span(0, "client", 0.0, 2.0),
        _span(1, "job", 1.0, 5.0),  # another thread's root span
        _span(2, "inner", 1.5, 1.7, parent=1),
        _span(3, "outside", 20.0, 21.0),
    ]
    assert tracing.uncovered_seconds(spans, 0.0, 8.0) == pytest.approx(3.0)


# ----------------------------------------------------------------- the inputs


def test_request_stream_is_determined_by_the_seed():
    assert request_stream(7) == request_stream(7)
    assert request_stream(7) != request_stream(8)


def test_request_stream_composition():
    stream = request_stream(3)
    misses = [r for r in stream if r.repeat_of is None]
    assert len(stream) == SERVE_REQUESTS
    assert len(misses) == SERVE_MISSES
    assert stream[0].repeat_of is None
    assert len({(r.scenario, r.seed, r.workers) for r in misses}) == SERVE_MISSES
    for scenario in SERVE_SCENARIOS:
        ours = [r for r in misses if r.scenario == scenario]
        assert len(ours) == SERVE_MISSES // len(SERVE_SCENARIOS)
        assert sum(r.workers == 2 for r in ours) == len(ours) // 2
    for index, request in enumerate(stream):
        if request.repeat_of is not None:
            first = stream[request.repeat_of]
            assert request.repeat_of < index and first.repeat_of is None
            assert (first.scenario, first.seed, first.workers) == (
                request.scenario, request.seed, request.workers
            )


# -------------------------------------------------------------- metric names


def _emitted_layer_metrics() -> set[str]:
    report = run.Report("synthetic")
    run._layer_metrics(tracing.Tracer(), UnitResult(), (0.0, 1.0), 1.0, report)
    return set(report.values)


def test_metric_names_are_well_formed_and_declared():
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME.fullmatch(name) for name in declared)
    assert _emitted_layer_metrics() == {m["name"] for m in SPEC["per_layer"]}


def test_workloads_match_their_declarations():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        declared = run._declaration(workload)
        assert declared["engine"] and declared["jit"], workload


def test_tail_percentile_rule():
    assert run.tail_percentile(list(range(240))) == (95, 227, True)
    pct, value, wanted = run.tail_percentile(list(range(120)))
    assert (pct, wanted) == (91, False) and value == 109  # 10 samples beyond
    assert run.tail_percentile([5.0, 1.0, 2.0]) == (50, 2.0, False)


# ------------------------------------------------------------ restoration


def _bindings():
    """Every module and class binding the tracer may replace, by identity."""
    found = {}
    for target in tracing.TARGETS:
        owner, attr, original = tracing._resolve(target)
        found[(target.module, target.qualname)] = original
        for module, name in tracing._aliases(original):
            found[(module.__name__, name)] = getattr(module, name)
    return found


def test_wrapped_functions_are_restored_after_the_traced_run():
    import repro.engine.api as api
    import repro.engine.recorder as recorder
    import repro.serve.service as service

    _bindings()  # imports every traced module first, so both snapshots see the same modules
    before = _bindings()
    original_quantiles = api.quantiles
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer):
            assert api.quantiles is not original_quantiles
            assert recorder.quantiles is api.quantiles  # a direct import is wrapped too
            assert service.run_scenario.__wrapped__ is not None
            assert api.quantiles([3.0, 1.0, 2.0]) == (1.0, 2.0, 3.0)
            raise RuntimeError("the block fails; the originals must still come back")
    assert [span.name for span in tracer.spans] == ["snapshot.quantiles"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert api.quantiles is original_quantiles
    assert not any(hasattr(fn, "__wrapped__") for fn in after.values())


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    import shutil
    import subprocess

    bench = tmp_path / "perfbench"
    shutil.copytree(ROOT / "perfbench", bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3_batched", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
