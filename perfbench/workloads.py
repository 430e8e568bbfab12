"""The benchmark's three seeded workloads and the checks on their outputs.

Every input is generated from the benchmark's ``--seed``: presets via
``ExperimentPreset.with_overrides(seed=...)`` and the serve request stream
from a seeded :class:`random.Random`.  The program sees only those presets
and requests, through its public surfaces
(:func:`repro.scenarios.run_scenario` and
:class:`repro.serve.SimulationService`).

One *unit* is one complete pass over a workload's inputs; a run repeats
units (see ``run.py``).  A unit returns a :class:`UnitResult` with its wall
time, per-operation latencies and failures, a digest of the result rows,
the valid-configuration tally and the provenance of what actually ran.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

__all__ = [
    "SERVE_SCENARIOS",
    "ServeRequest",
    "UnitResult",
    "WORKLOADS",
    "Workload",
    "request_stream",
    "valid_units",
]

#: Scenarios of the serve request stream, one quarter of the misses each.
SERVE_SCENARIOS = ("churn", "oscillate", "flash_crowd", "failover")
#: Two units give 200 latencies, the fewest with ten samples beyond p95.
SERVE_REQUESTS = 100
SERVE_MISSES = 40  # the other 60 requests (60%) repeat an earlier key
SERVE_N = 1000
SERVE_PARALLEL_TIME = 300
SERVE_TRIALS = 4
#: Trials of a ``workers=2`` miss: with the runner's 8-trial row-shards this
#: is the smallest count that splits into two shards, so the request really
#: fans out over the process pool.
SERVE_SHARDED_TRIALS = 9
SERVE_CHECKPOINT_EVERY = 100
#: Ceiling on one job; far above any healthy request of this workload.
SERVE_JOB_TIMEOUT_S = 120.0


def derived_seed(workload: str, seed: int) -> int:
    """The program-facing root seed of a workload for a benchmark seed."""
    return random.Random(f"perfbench:{workload}:{seed}").randrange(1, 2**31)


@dataclass
class UnitResult:
    """Outcome of one unit.

    ``failures`` holds ``(operation index, message)`` pairs; ``op_digests``
    one result-row digest per operation (``None`` where it failed).
    """

    wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[tuple[int, str]] = field(default_factory=list)
    op_digests: list[str | None] = field(default_factory=list)
    nominal_interactions: int = 0
    valid: int = 0
    checked: int = 0
    engines: Counter = field(default_factory=Counter)  # points per resolved engine
    jit: set = field(default_factory=set)
    workers_requested: set = field(default_factory=set)
    hits: int = 0
    submits: int = 0
    queue_wait_s: float = 0.0
    job_run_s: float = 0.0


def rows_digest(rows: Any) -> str:
    """SHA-256 of the rows' canonical JSON (same rows, same digest)."""
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True, default=str).encode()
    ).hexdigest()


def valid_units(rows: Sequence[dict], series: dict[str, dict]) -> tuple[int, int]:
    """(valid, checked) units of one result under ``estimates_valid``.

    Series-bearing results are checked on every post-convergence snapshot
    (the second half of each series); Fig. 3 rows on their steady-window
    ``relative_minimum`` / ``relative_maximum`` per point.
    """
    from repro.analysis.estimates import estimates_valid, steady_state_window
    from repro.engine import SnapshotStats

    snapshots = []
    if series:
        for columns in series.values():
            snapshots.extend(
                steady_state_window(
                    [
                        SnapshotStats(int(t), int(size), lo, med, hi)
                        for t, size, lo, med, hi in zip(
                            columns["parallel_time"],
                            columns["population_size"],
                            columns["minimum"],
                            columns["median"],
                            columns["maximum"],
                        )
                    ]
                )
            )
    else:
        for row in rows:
            log_n = math.log2(row["n"])
            snapshots.append(
                SnapshotStats(
                    0,
                    int(row["n"]),
                    row["relative_minimum"] * log_n,
                    row["relative_median"] * log_n,
                    row["relative_maximum"] * log_n,
                )
            )
    return sum(1 for snap in snapshots if estimates_valid(snap)), len(snapshots)


def _record_result(
    unit: UnitResult, rows: Sequence[dict], series: dict[str, dict], metadata: dict
) -> None:
    """Provenance and validity of one computed result."""
    execution = metadata["execution"]
    engines = execution["engines"]
    if len(engines) == 1:
        unit.engines[engines[0]] += len(rows)
    else:
        unit.engines["mixed"] += len(rows)
    unit.jit.add(execution["jit"])
    unit.workers_requested.add(execution.get("workers_requested"))
    valid, checked = valid_units(rows, series)
    unit.valid += valid
    unit.checked += checked


def _nominal(preset: Any) -> int:
    """Nominal interactions of a preset: sum of n * T * trials over its points."""
    return sum(n * preset.parallel_time * preset.trials for n in preset.population_sizes)


# ----------------------------------------------------------- serial workloads


def _serial_unit(scenario: str, preset: Any) -> UnitResult:
    from repro.scenarios import run_scenario

    unit = UnitResult(attempted=1, nominal_interactions=_nominal(preset))
    started = time.perf_counter()
    try:
        result = run_scenario(scenario, preset=preset)
    except Exception as exc:  # a failed operation is a benchmark outcome, not a crash
        unit.wall_s = time.perf_counter() - started
        unit.failures.append((0, f"{scenario}: {type(exc).__name__}: {exc}"))
        unit.op_digests.append(None)
        return unit
    unit.wall_s = time.perf_counter() - started
    unit.latencies_ms.append(unit.wall_s * 1e3)
    unit.op_digests.append(rows_digest(result.rows))
    _record_result(unit, result.rows, result.series, result.metadata)
    return unit


def _fig3_preset(seed: int) -> Any:
    from repro.experiments.config import PRESETS

    return PRESETS["fig3"]["quick"].with_overrides(
        population_sizes=(10, 1_000, 100_000),
        parallel_time=300,
        trials=2,
        seed=derived_seed("fig3_batched", seed),
    )


def _decimation_preset(seed: int) -> Any:
    from repro.experiments.config import PRESETS

    # The paper preset (n = 10^6, floor 500) with a period that fits five
    # halvings into T = 300.
    return PRESETS["repeated_decimation"]["paper"].with_overrides(
        parallel_time=300,
        trials=3,
        seed=derived_seed("decimation_counts", seed),
        extra={"period": 60},
    )


# --------------------------------------------------------------- serve stream


@dataclass(frozen=True)
class ServeRequest:
    """One request of the stream; ``repeat_of`` is the index of the miss it repeats."""

    scenario: str
    seed: int
    workers: int | None
    repeat_of: int | None = None

    @property
    def trials(self) -> int:
        return SERVE_SHARDED_TRIALS if self.workers else SERVE_TRIALS


def request_stream(seed: int) -> list[ServeRequest]:
    """The seeded serve stream: 40 distinct runs plus 60 repeats of earlier ones.

    Each scenario gets 10 misses, half of them with ``workers=2`` (and
    ``SERVE_SHARDED_TRIALS`` trials, so they shard); every repeat names a
    run already requested earlier in the stream, so it must be served from
    the cache.
    """
    rng = random.Random(f"perfbench:serve_mixed:{seed}")
    per_scenario = SERVE_MISSES // len(SERVE_SCENARIOS)
    seeds = iter(rng.sample(range(1, 2**31), SERVE_MISSES))  # distinct, so distinct keys
    misses = [
        ServeRequest(scenario, next(seeds), 2 if index % 2 else None)
        for scenario in SERVE_SCENARIOS
        for index in range(per_scenario)
    ]
    rng.shuffle(misses)
    kinds = ["miss"] * (SERVE_MISSES - 1) + ["hit"] * (SERVE_REQUESTS - SERVE_MISSES)
    rng.shuffle(kinds)
    kinds.insert(0, "miss")  # a repeat needs an earlier run
    stream: list[ServeRequest] = []
    issued: list[int] = []
    pending = iter(misses)
    for kind in kinds:
        if kind == "miss":
            issued.append(len(stream))
            stream.append(next(pending))
        else:
            target = rng.choice(issued)
            first = stream[target]
            stream.append(ServeRequest(first.scenario, first.seed, first.workers, target))
    return stream


def _run_request(request: ServeRequest) -> Any:
    from repro.serve import RunRequest

    return RunRequest(
        request.scenario,
        seed=request.seed,
        workers=request.workers,
        overrides={"n": SERVE_N, "trials": request.trials, "parallel_time": SERVE_PARALLEL_TIME},
    )


def _serve_unit(stream: Sequence[ServeRequest], work_dir: Path, tracer: Any = None) -> UnitResult:
    """One closed-loop pass of the stream (1 client) against a fresh service."""
    from repro.scenarios import runner
    from repro.serve import SimulationService

    cache_dir = work_dir / "serve-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    unit = UnitResult()
    # The runners are looked up here, not bound at import, so a traced unit
    # drives the traced run_scenario.
    service = SimulationService(
        cache_dir,
        max_workers=1,
        checkpoint_every=SERVE_CHECKPOINT_EVERY,
        scenario_runner=runner.run_scenario,
        sweep_runner=runner.run_sweep,
    )
    first_bodies: dict[int, bytes] = {}
    started = time.perf_counter()
    try:
        for index, request in enumerate(stream):
            if tracer is not None:
                tracer.op = index
            unit.attempted += 1
            sent = time.perf_counter()
            try:
                status = service.submit(_run_request(request))
                run_id = status["run_id"]
                job = None
                if not status["cached"]:
                    job = service.queue.wait(run_id, timeout=SERVE_JOB_TIMEOUT_S, poll=0.001)
                payload = service.result_payload(run_id)
                body = json.dumps(payload, sort_keys=True, default=str).encode()
            except Exception as exc:  # counted as a failed request
                unit.failures.append((index, f"{type(exc).__name__}: {exc}"))
                unit.op_digests.append(None)
                continue
            unit.latencies_ms.append((time.perf_counter() - sent) * 1e3)
            unit.submits += 1
            unit.op_digests.append(rows_digest([r["rows"] for r in payload["results"]]))
            if status["cached"]:
                unit.hits += 1
            if request.repeat_of is None:
                if status["cached"]:
                    unit.failures.append((index, "first request of a run was a cache hit"))
                    continue
                first_bodies[index] = body
                unit.nominal_interactions += SERVE_N * SERVE_PARALLEL_TIME * request.trials
                unit.queue_wait_s += job.started - job.created
                unit.job_run_s += job.seconds
                computed = payload["results"][0]
                _record_result(unit, computed["rows"], computed["series"], computed["metadata"])
            elif not status["cached"]:
                unit.failures.append(
                    (index, f"repeat of request {request.repeat_of} missed the cache")
                )
            elif body != first_bodies.get(request.repeat_of):
                unit.failures.append(
                    (index, f"cached payload differs from request {request.repeat_of}'s")
                )
    finally:
        unit.wall_s = time.perf_counter() - started
        service.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    return unit


# ------------------------------------------------------------------ workloads


@dataclass(frozen=True)
class Workload:
    """A benchmark workload: the scenarios it needs set up and its unit."""

    name: str
    scenarios: tuple[str, ...]
    run_unit: Callable[[int, Path, Any], UnitResult]
    serve: bool = False

    def setup(self, work_dir: Path) -> None:
        """Imports, scenario registry and (serve) an empty service: what precedes the first op."""
        from repro.scenarios import get_scenario

        for scenario in self.scenarios:
            get_scenario(scenario)
        if self.serve:
            from repro.serve import SimulationService

            cache_dir = work_dir / "setup-cache"
            shutil.rmtree(cache_dir, ignore_errors=True)
            service = SimulationService(cache_dir, max_workers=1)
            service.close()
            shutil.rmtree(cache_dir, ignore_errors=True)


WORKLOADS: dict[str, Workload] = {
    "fig3_batched": Workload(
        "fig3_batched",
        ("fig3",),
        run_unit=lambda seed, work_dir, tracer: _serial_unit("fig3", _fig3_preset(seed)),
    ),
    "decimation_counts": Workload(
        "decimation_counts",
        ("repeated_decimation",),
        run_unit=lambda seed, work_dir, tracer: _serial_unit(
            "repeated_decimation", _decimation_preset(seed)
        ),
    ),
    "serve_mixed": Workload(
        "serve_mixed",
        SERVE_SCENARIOS,
        run_unit=lambda seed, work_dir, tracer: _serve_unit(
            request_stream(seed), work_dir, tracer
        ),
        serve=True,
    ),
}
