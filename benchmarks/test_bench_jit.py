"""Compiled-kernel benchmarks: the jit backend's speedup, measured and gated.

One loop-bound workload — the fig3 shape (small-to-medium populations x
many trials x a real horizon), where per-batch Python overhead dominates
the NumPy kernels — measured four ways on the dynamic-counting protocol:

* ``looped batched`` — the plain batched engine, trials run one at a time.
  This is the committed baseline's loop-bound configuration
  (``fig3@quick``), and the reference all speedups are quoted against.
* ``plain ensemble`` — the stacked NumPy path (``fig3[engine=ensemble]``).
* ``jit batched`` / ``jit ensemble`` — the same two engines with the fused
  compiled kernels of :mod:`repro.kernels`.

Gated margins (``REPRO_BENCH_ASSERT``, skipped when numba is unavailable —
the no-numba CI leg proves the *fallback*, this module proves the *win*):

* jit ensemble >= 10x over looped batched.  The stacked NumPy path alone
  measures 7.3-8.3x at quick effort on a 2-vCPU x86_64 Xeon VM (Python
  3.11, NumPy 2.4); the compiled kernels remove the remaining
  gather/scatter temporaries on top.
* jit batched >= 2x over looped batched.  Same-engine speedup is bounded
  by Amdahl: pair drawing and the sub-batch loop stay on the NumPy side,
  so only the kernel body (~3/4 of the per-step cost) compiles away.
* jit ensemble >= 1.2x over plain ensemble — compiled must beat
  interpreted on its own engine, else the backend is pointless.

Without ``REPRO_BENCH_ASSERT`` (or without numba) the module still runs
and records honest rows — on a numba-less machine the jit cases measure
the logged NumPy fallback.  Rows land in
``$REPRO_BENCH_DIR/BENCH_jit.json``; the committed
``benchmarks/BENCH_baseline.json`` fig3 cases are attached (calibration
and all) as a non-asserted anchor in ``extra``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench.suite import CaseResult, load_suite
from repro.bench.timing import measure
from repro.core.dynamic_counting import DynamicSizeCounting
from repro.engine.registry import make_engine
from repro.kernels import availability, compile_warmup

#: Suite file the ``suite_cases`` collector writes under ``REPRO_BENCH_DIR``.
BENCH_SUITE_FILENAME = "BENCH_jit.json"

#: (population sizes, trials, parallel-time horizon) — the fig3 shape,
#: loop-bound: the smallest populations make per-batch Python overhead the
#: dominant cost, which is exactly what the compiled kernels remove.
WORKLOAD = ((10, 100, 1000), 16, 60)

#: Gated floors (see module docstring for why each is where it is).
JIT_ENSEMBLE_VS_LOOPED_FLOOR = 10.0
JIT_BATCHED_VS_LOOPED_FLOOR = 2.0
JIT_ENSEMBLE_VS_PLAIN_FLOOR = 1.2

_BASELINE_PATH = Path(__file__).parent / "BENCH_baseline.json"


def _run_batched_looped(ns, trials, horizon, *, jit):
    for n in ns:
        for trial in range(trials):
            make_engine(
                "batched", DynamicSizeCounting(), n, seed=100 + trial, jit=jit
            ).run(horizon)


def _run_ensemble(ns, trials, horizon, *, jit):
    for n in ns:
        make_engine(
            "ensemble", DynamicSizeCounting(), n, seed=100, trials=trials, jit=jit
        ).run(horizon)


def _baseline_anchor():
    """The committed baseline's loop-bound fig3 cases, for context only.

    The baseline measures the full fig3 scenario (engine selection, metric
    extraction and all), this module a stripped engine loop — the shapes
    match but the harnesses differ, so the anchor is recorded, never
    asserted.
    """
    if not _BASELINE_PATH.exists():
        return {"missing": str(_BASELINE_PATH)}
    baseline = load_suite(_BASELINE_PATH)
    cases = baseline.by_case_id()
    anchor = {"calibration_seconds": baseline.calibration_seconds}
    for case_id in ("fig3@quick", "fig3[engine=ensemble]@quick"):
        case = cases.get(case_id)
        if case is not None:
            anchor[case_id] = case.median_seconds
    return anchor


def test_bench_jit_speedup(suite_cases):
    """Four-way measurement of the loop-bound fig3 shape, jit floors gated."""
    ns, trials, horizon = WORKLOAD
    compiled = availability().enabled
    warmup_fn = compile_warmup if compiled else None

    looped = measure(
        lambda: _run_batched_looped(ns, trials, horizon, jit=False),
        warmup=0,
        repeats=1,
    )
    plain_ensemble = measure(
        lambda: _run_ensemble(ns, trials, horizon, jit=False), warmup=0, repeats=1
    )
    # compile_warmup runs once, before the first jit measurement, so njit
    # compilation lands in compile_seconds instead of a sample.
    jit_batched = measure(
        lambda: _run_batched_looped(ns, trials, horizon, jit=True),
        warmup=0,
        repeats=1,
        warmup_fn=warmup_fn,
    )
    jit_ensemble = measure(
        lambda: _run_ensemble(ns, trials, horizon, jit=True), warmup=0, repeats=1
    )

    work = sum(n * horizon for n in ns) * trials
    status = availability()
    shared_extra = {
        "population_sizes": list(ns),
        "trials": trials,
        "parallel_time": horizon,
        "jit_available": status.enabled,
        "jit_reason": status.reason,
        "looped_batched_seconds": looped.minimum,
        "plain_ensemble_seconds": plain_ensemble.minimum,
        "jit_batched_seconds": jit_batched.minimum,
        "jit_ensemble_seconds": jit_ensemble.minimum,
        "jit_batched_speedup_vs_looped": looped.minimum / jit_batched.minimum,
        "jit_ensemble_speedup_vs_looped": looped.minimum / jit_ensemble.minimum,
        "jit_ensemble_speedup_vs_plain": plain_ensemble.minimum
        / jit_ensemble.minimum,
        "baseline_anchor": _baseline_anchor(),
    }

    for case_id, engine, timing, jit_flag in (
        ("jit-speedup[engine=batched]@quick", "batched", looped, False),
        ("jit-speedup[engine=ensemble]@quick", "ensemble", plain_ensemble, False),
        ("jit-speedup[engine=batched,jit=on]@quick", "batched", jit_batched, True),
        ("jit-speedup[engine=ensemble,jit=on]@quick", "ensemble", jit_ensemble, True),
    ):
        suite_cases.append(
            CaseResult(
                case_id=case_id,
                scenario="jit-speedup",
                engine=engine,
                seconds=(timing.minimum,),
                work_interactions=work,
                compile_seconds=timing.compile_seconds if jit_flag else None,
                extra=shared_extra,
            )
        )

    assert looped.minimum > 0 and plain_ensemble.minimum > 0
    assert jit_batched.minimum > 0 and jit_ensemble.minimum > 0

    if not os.environ.get("REPRO_BENCH_ASSERT"):
        return
    if not compiled:
        pytest.skip(f"compiled kernels unavailable ({status.reason})")
    assert (
        shared_extra["jit_ensemble_speedup_vs_looped"]
        >= JIT_ENSEMBLE_VS_LOOPED_FLOOR
    ), shared_extra
    assert (
        shared_extra["jit_batched_speedup_vs_looped"] >= JIT_BATCHED_VS_LOOPED_FLOOR
    ), shared_extra
    assert (
        shared_extra["jit_ensemble_speedup_vs_plain"] >= JIT_ENSEMBLE_VS_PLAIN_FLOOR
    ), shared_extra
