"""Counts-engine benchmarks: the n-independent per-step cost, measured.

Two workloads, recorded as normalized :class:`repro.bench.suite.CaseResult`
rows (written to ``$REPRO_BENCH_DIR/BENCH_counts.json`` when set):

* **speedup vs batched** — seconds per parallel-time step of the counts
  engine vs the batched engine on the dynamic-counting protocol at
  ``n = 10^6``.  The counts cost is amortized over a realistic horizon
  because its first ~30 steps traverse the warm-up state-space peak; the
  batched engine's per-step cost is constant, so a short probe suffices.
* **per-step flatness** — steady-state (post-warm-up) seconds per step of
  the counts engine at ``n = 10^4`` vs ``n = 10^7``.  The state count
  |Q| grows only logarithmically with ``n``, so the per-step cost must be
  measurably flat across three orders of magnitude of population size.

As everywhere in this suite, the wall-clock assertions gate on
``REPRO_BENCH_ASSERT`` (set by the dedicated CI bench job) so shared-runner
noise can never fail a plain test run.
"""

from __future__ import annotations

import os

from repro.bench.suite import CaseResult
from repro.bench.timing import measure
from repro.core.dynamic_counting import DynamicSizeCounting
from repro.engine.registry import make_engine

#: Suite file the ``suite_cases`` collector writes under ``REPRO_BENCH_DIR``.
BENCH_SUITE_FILENAME = "BENCH_counts.json"

#: (population size, batched steps, counts steps).  The batched engine's
#: per-step cost is flat in the horizon, so it gets a short probe; the counts
#: engine runs long enough to amortize its warm-up.
SPEEDUP = (1_000_000, 8, 100)

#: (small n, huge n) for the per-step flatness probe, plus how many steps to
#: skip as warm-up and how many to time at steady state.
FLATNESS = (10_000, 10_000_000)
FLATNESS_WARMUP_STEPS = 30
FLATNESS_TIMED_STEPS = 20


def test_bench_counts_speedup_vs_batched(suite_cases):
    """Counts vs batched on dynamic counting at n = 10^6.

    Measured margins: a 10x floor, set when CI measured ~14x (batched
    ~0.4 s per parallel step at ``n = 10^6``, counts ~0.03 s amortized,
    ~0.007 s at steady state).  On a 2-vCPU x86_64 Xeon VM (Python 3.11,
    NumPy 2.4) batched takes 0.20-0.24 s per step over this short probe and
    counts 0.019-0.023 s amortized, with the pair table drawn over
    descending-probability responder classes; the ratio measured
    10.1-11.7x over ten runs, so the floor holds with little margin.
    """
    n, batched_steps, counts_steps = SPEEDUP

    def run_batched() -> None:
        make_engine("batched", DynamicSizeCounting(), n, seed=1).run(batched_steps)

    def run_counts() -> None:
        make_engine("counts", DynamicSizeCounting(), n, seed=1).run(counts_steps)

    batched_timing = measure(run_batched, warmup=0, repeats=1)
    counts_timing = measure(run_counts, warmup=0, repeats=1)
    batched_per_step = batched_timing.minimum / batched_steps
    counts_per_step = counts_timing.minimum / counts_steps
    speedup = batched_per_step / counts_per_step

    shared_extra = {
        "population_size": n,
        "batched_steps": batched_steps,
        "counts_steps": counts_steps,
        "batched_seconds_per_step": batched_per_step,
        "counts_seconds_per_step": counts_per_step,
        "per_step_speedup": speedup,
    }
    suite_cases.append(
        CaseResult(
            case_id=f"counts-speedup[engine=batched,n={n}]@quick",
            scenario="counts-speedup",
            engine="batched",
            seconds=(batched_timing.minimum,),
            work_interactions=n * batched_steps,
            extra=shared_extra,
        )
    )
    suite_cases.append(
        CaseResult(
            case_id=f"counts-speedup[engine=counts,n={n}]@quick",
            scenario="counts-speedup",
            engine="counts",
            seconds=(counts_timing.minimum,),
            work_interactions=n * counts_steps,
            extra=shared_extra,
        )
    )

    assert batched_per_step > 0 and counts_per_step > 0
    if os.environ.get("REPRO_BENCH_ASSERT"):
        assert speedup >= 10.0, shared_extra


def test_bench_counts_per_step_flat_in_population_size(suite_cases):
    """Steady-state per-step seconds at n = 10^4 vs n = 10^7.

    The occupied state count settles around 400 at 10^4 and 1000 at 10^7,
    so the steady-state per-step cost grows ~3x while the population grows
    1000x; asserted with a generous 10x allowance.
    """
    per_step: dict[int, float] = {}
    for n in FLATNESS:
        engine = make_engine("counts", DynamicSizeCounting(), n, seed=1)
        for _ in range(FLATNESS_WARMUP_STEPS):
            engine.step_parallel_round()

        def steady(engine=engine) -> None:
            for _ in range(FLATNESS_TIMED_STEPS):
                engine.step_parallel_round()

        timing = measure(steady, warmup=0, repeats=1)
        per_step[n] = timing.minimum / FLATNESS_TIMED_STEPS

    small, huge = FLATNESS
    extra = {
        "seconds_per_step": {str(n): s for n, s in per_step.items()},
        "population_ratio": huge / small,
        "per_step_ratio": per_step[huge] / per_step[small],
        "warmup_steps": FLATNESS_WARMUP_STEPS,
        "timed_steps": FLATNESS_TIMED_STEPS,
    }
    suite_cases.append(
        CaseResult(
            case_id=f"counts-flatness[n={small}..{huge}]@quick",
            scenario="counts-flatness",
            engine="counts",
            seconds=(sum(per_step.values()) * FLATNESS_TIMED_STEPS,),
            work_interactions=(small + huge) * FLATNESS_TIMED_STEPS,
            extra=extra,
        )
    )

    assert all(s > 0 for s in per_step.values())
    if os.environ.get("REPRO_BENCH_ASSERT"):
        # 1000x more agents may cost at most 10x per step (measured ~3x).
        assert per_step[huge] <= 10.0 * per_step[small], extra
