"""Scenario execution: one entry point for every registered workload.

:func:`run_scenario` turns a :class:`repro.scenarios.spec.ScenarioSpec` into
an :class:`repro.experiments.base.ExperimentResult`: it resolves the effort
preset, applies any protocol-parameter overrides, expands the spec into
workload points, picks an engine per point (the spec's pinned engine, an
explicit request, or :func:`repro.engine.registry.choose_engine` when
neither is given), runs each point through the shared estimate-trace
machinery, and summarises it with the spec's metric extractors.

:func:`run_sweep` does the same for every combination of a
:class:`~repro.scenarios.spec.SweepSpec` parameter grid.

Execution settings are plain keyword arguments.  Engine, workers and jit
are checked by :func:`check_execution`, the checkpoint settings by
:func:`repro.engine.runner.checkpoint_settings` and the effort by
:func:`resolve_preset` — all *before* any simulation starts, so a bad
combination fails in milliseconds with a one-line error instead of a
mid-run traceback.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.params import ProtocolParameters
from repro.engine.errors import ConfigurationError, UnsupportedEngineError
from repro.engine.options import execution_metadata
from repro.engine.parallel import execute_shards, resolve_workers
from repro.engine.registry import choose_engine, engine_names
from repro.engine.runner import checkpoint_settings
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec, SweepSpec

if TYPE_CHECKING:  # pragma: no cover - the experiments layer imports this
    # module at definition time, so runtime imports of it happen lazily
    # inside the functions below.
    from repro.experiments.base import ExperimentPreset, ExperimentResult

__all__ = [
    "check_execution",
    "run_scenario",
    "run_sweep",
    "resolve_preset",
    "resolve_params",
]


def _resolve_spec(spec_or_name: ScenarioSpec | str) -> ScenarioSpec:
    if isinstance(spec_or_name, ScenarioSpec):
        return spec_or_name
    return get_scenario(spec_or_name)


def resolve_preset(
    spec: ScenarioSpec, effort: str, preset: "ExperimentPreset | None" = None
) -> "ExperimentPreset":
    """The preset a scenario runs at: explicit, or looked up by effort."""
    from repro.experiments.config import PRESETS

    if preset is not None:
        return preset
    by_effort = PRESETS.get(spec.id)
    if by_effort is None:
        raise ConfigurationError(
            f"scenario {spec.name!r} has no presets registered under "
            f"{spec.id!r}; pass an explicit preset"
        )
    if effort not in by_effort:
        raise ConfigurationError(
            f"scenario {spec.name!r} has no {effort!r} preset; available "
            f"efforts: {', '.join(sorted(by_effort))}"
        )
    return by_effort[effort]


def resolve_params(spec: ScenarioSpec, preset: "ExperimentPreset") -> ProtocolParameters:
    """Protocol constants for a run, with sweep overrides applied.

    Overriding ``k`` without ``grv_samples`` re-derives the per-call sample
    count from the new ``k`` (the Algorithm 3 default), mirroring how
    :class:`~repro.core.params.ProtocolParameters` behaves at construction.
    """
    params = spec.params_factory()
    overrides = preset.extra.get("params_overrides")
    if overrides:
        overrides = dict(overrides)
        if "k" in overrides and "grv_samples" not in overrides:
            overrides["grv_samples"] = 0  # sentinel: re-derive from k
        try:
            params = dataclasses.replace(params, **overrides)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"invalid protocol parameter overrides {overrides!r}: {exc}"
            ) from exc
    return params


def check_execution(
    spec: ScenarioSpec, *, engine: str | None, workers: int | str | None, jit: bool
) -> int | None:
    """Pre-flight check of the engine, workers and jit settings of a run.

    The one validator behind :func:`run_scenario`, :func:`run_sweep`, the
    serving layer and the CLI.  ``engine`` must be ``None``, ``"auto"`` or
    a registered engine the spec supports
    (:class:`~repro.engine.errors.UnsupportedEngineError` otherwise),
    ``jit`` a ``bool``; ``workers`` is resolved through
    :func:`repro.engine.parallel.resolve_workers`, whose result is
    returned.
    """
    if engine is not None and engine != "auto":
        if engine not in engine_names():
            raise ConfigurationError(
                f"unknown engine {engine!r}; available engines: "
                f"{', '.join(engine_names())} (or 'auto')"
            )
        if not spec.supports_engine(engine):
            raise UnsupportedEngineError(
                f"scenario {spec.name!r} supports engine(s) "
                f"{', '.join(spec.engines)}, got {engine!r}"
            )
    if not isinstance(jit, bool):
        raise ConfigurationError(f"jit must be a bool, got {jit!r}")
    return resolve_workers(workers)


def _engine_for_point(
    spec: ScenarioSpec,
    requested: str | None,
    point_trials: int,
    point_n: int,
    params: ProtocolParameters,
) -> str:
    if requested is not None and requested != "auto":
        return requested
    if requested is None and spec.engine is not None:
        return spec.engine
    chosen = choose_engine(spec.protocol_factory(params), point_trials, point_n)
    if chosen not in spec.engines:
        chosen = spec.engines[0]
    return chosen


def _checkpoint_slug(label: str) -> str:
    """A filesystem-safe directory name for one point/combination label."""
    return re.sub(r"[^A-Za-z0-9._=,+-]+", "_", label) or "point"


def _subdir(root: Any, label: str) -> str | None:
    """The per-point/per-combo checkpoint directory under ``root``."""
    if root is None:
        return None
    return str(Path(root) / _checkpoint_slug(label))


def run_scenario(
    spec_or_name: ScenarioSpec | str,
    *,
    effort: str = "quick",
    preset: ExperimentPreset | None = None,
    engine: str | None = None,
    workers: int | str | None = None,
    jit: bool = False,
    checkpoint_every: int | None = None,
    checkpoint_dir: Any = None,
    resume_from: Any = None,
    interrupt_after: int | None = None,
) -> ExperimentResult:
    """Run one scenario and return its :class:`ExperimentResult`.

    Parameters
    ----------
    spec_or_name:
        A :class:`ScenarioSpec` or the name of a registered scenario.
    effort:
        Preset effort level (``"quick"`` / ``"default"`` / ``"paper"``);
        ignored when an explicit ``preset`` is passed.
    engine:
        Engine name to force for every point, ``"auto"`` to auto-select per
        point even if the spec pins an engine, or ``None`` (default) to use
        the spec's pinned engine — falling back to auto-selection via
        :func:`repro.engine.registry.choose_engine` when none is pinned.
    workers:
        Sharded execution of every point's trials (see
        :mod:`repro.engine.parallel`): ``None`` (default) keeps the serial
        path, ``"auto"`` uses the capped CPU count, an integer fans each
        point's row-shards over that many worker processes.  Per-trial
        results are bit-identical for any ``workers >= 1`` — only
        wall-clock time changes.  Bespoke-executor scenarios (recorder
        workloads pinned to the sequential engine) always run serially;
        requesting workers for them is recorded in the result metadata but
        has no effect.
    jit:
        Request the compiled kernel backend (:mod:`repro.kernels`) for
        every point that runs on an engine supporting it.  Best effort
        end to end: points on other engines, and machines where the
        backend is unavailable, run the NumPy reference kernels — the
        request and the availability outcome are recorded in the result
        metadata.
    checkpoint_every / checkpoint_dir / resume_from / interrupt_after:
        Crash recovery for long-horizon runs (see
        :func:`repro.engine.runner.run_engine_trials`): each workload
        point checkpoints into its own subdirectory of ``checkpoint_dir``
        (named after the point's series label), and ``resume_from``
        continues an interrupted invocation — completed points return
        instantly from their final checkpoints, the interrupted point
        resumes mid-run, and the rest run fresh.  ``resume_from`` alone is
        enough: the cadence is recovered from the run's own manifests.
        Bespoke-executor scenarios run uncheckpointed (recorded in the
        result metadata).  A resumed result is bit-identical to an
        uninterrupted one.
    """
    # Imported here: the experiments layer imports repro.scenarios at
    # definition time, so the reverse dependency must stay lazy.
    from repro.experiments.base import ExperimentResult
    from repro.experiments.figures import run_estimate_trace

    spec = _resolve_spec(spec_or_name)
    requested_workers = workers
    workers = check_execution(spec, engine=engine, workers=workers, jit=jit)
    checkpointing, checkpoint_every, checkpoint_dir = checkpoint_settings(
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        resume_from=resume_from,
        interrupt_after=interrupt_after,
        depth=1,
    )
    preset = resolve_preset(spec, effort, preset)
    params = resolve_params(spec, preset)

    if spec.executor is not None:
        resolved = _engine_for_point(
            spec, engine, preset.trials, max(preset.population_sizes, default=2), params
        )
        result = spec.executor(spec, preset, params, resolved)
        if workers is not None:
            result.metadata.setdefault("workers", "serial-only (bespoke executor)")
        if jit:
            result.metadata.setdefault("jit", "ignored (bespoke executor)")
        if checkpointing:
            result.metadata.setdefault(
                "checkpointing", "ignored (bespoke executor)"
            )
        execution = execution_metadata(
            requested_engine=engine,
            engines_used=[resolved],
            workers=None,  # bespoke executors always run serially
            jit=False,  # ... and never reach the vectorised kernels
        )
        execution["workers_requested"] = requested_workers
        execution["jit_requested"] = jit
        result.metadata["execution"] = execution
        return result

    points = tuple(spec.points(preset, params))
    if not points:
        raise ConfigurationError(
            f"scenario {spec.name!r} expanded to no workload points for "
            f"preset {preset.name!r}"
        )

    rows: list[dict[str, Any]] = []
    series: dict[str, dict[str, list[float]]] = {}
    engines_used: list[str] = []
    shard_timings: dict[str, list[dict[str, Any]]] = {}
    phases: dict[str, list[dict[str, Any]]] = {}
    for point in points:
        if point.info.get("phases"):
            # Multi-phase points carry their boundaries; stamp them into
            # the result metadata so tables/figures can split by phase.
            phases[point.series_label] = [
                dict(boundary) for boundary in point.info["phases"]
            ]
        point_engine = _engine_for_point(spec, engine, point.trials, point.n, params)
        engines_used.append(point_engine)
        trace = run_estimate_trace(
            point.n,
            point.parallel_time,
            trials=point.trials,
            seed=point.seed,
            params=params,
            resize_schedule=point.resize_schedule,
            initial_estimate=point.initial_estimate,
            engine=point_engine,
            workers=workers,
            jit=jit,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=_subdir(checkpoint_dir, point.series_label),
            resume_from=_subdir(resume_from, point.series_label),
            interrupt_after=interrupt_after,
        )
        row: dict[str, Any] = {}
        for metric in spec.metrics:
            row.update(metric(trace, point, preset, params))
        rows.append(row)
        if spec.keep_series:
            series[point.series_label] = trace.series()
        if trace.shard_timings:
            shard_timings[point.series_label] = trace.shard_timings

    engine_label = engines_used[0] if len(set(engines_used)) == 1 else "auto"
    execution = execution_metadata(
        requested_engine=engine,
        engines_used=engines_used,
        workers=workers,
        jit=jit,
    )
    execution["workers_requested"] = requested_workers
    if checkpointing:
        execution["checkpoint_every"] = checkpoint_every
        execution["checkpoint_dir"] = (
            None if checkpoint_dir is None else str(checkpoint_dir)
        )
        execution["resumed_from"] = None if resume_from is None else str(resume_from)
    metadata: dict[str, Any] = {
        "preset": preset.name,
        "params": params.describe(),
        "engine": engine_label,
        "scenario": spec.name,
        "execution": execution,
    }
    if phases:
        metadata["phases"] = phases
    if workers is not None:
        metadata["workers"] = workers
        metadata["shard_timings"] = shard_timings
    if jit:
        metadata["jit"] = execution["jit"]
    return ExperimentResult(
        experiment=spec.id,
        description=spec.description_for(preset),
        rows=rows,
        series=series,
        metadata=metadata,
    )


def _run_sweep_combo(payload: dict[str, Any]) -> "ExperimentResult":
    """Run one sweep combination; module-level so worker processes can
    unpickle it.  The scenario travels by registry name (the spec itself
    may hold non-picklable factories) and is re-resolved in the worker.
    """
    return run_scenario(payload["scenario"], **payload["settings"])


def run_sweep(
    sweep: SweepSpec,
    *,
    effort: str = "quick",
    preset: ExperimentPreset | None = None,
    engine: str | None = None,
    workers: int | str | None = None,
    jit: bool = False,
    checkpoint_every: int | None = None,
    checkpoint_dir: Any = None,
    resume_from: Any = None,
    interrupt_after: int | None = None,
) -> list[tuple[str, ExperimentResult]]:
    """Run every combination of a sweep grid; returns ``(label, result)`` pairs.

    The execution settings are the keyword arguments of
    :func:`run_scenario`, checked once for the whole grid and passed on to
    every combination.

    The whole grid is expanded and validated up front — protocol-parameter
    axes *and* workload points (schedules, population sizes) — so a bad axis
    value fails before the first simulation instead of mid-sweep after
    earlier combinations already ran.

    ``workers`` shards the sweep: with more than one combination, each grid
    point becomes an independent job and the jobs fan out over the worker
    pool (each combination runs serially inside its worker); a single
    combination instead delegates ``workers`` to :func:`run_scenario`,
    which shards that combination's trials.  Either way the split is a pure
    function of the grid — results are bit-identical for any
    ``workers >= 1`` and are returned in grid order with per-combination
    wall-clock seconds in ``metadata["sweep_seconds"]``.

    The checkpoint knobs behave as in :func:`run_scenario`, one level up:
    each grid combination checkpoints into its own subdirectory of
    ``checkpoint_dir`` named after the combination label, so an
    interrupted sweep resumed with ``resume_from`` skips completed
    combinations via their final checkpoints and continues the
    interrupted one mid-run.
    """
    spec = _resolve_spec(sweep.scenario)
    resolved_workers = check_execution(spec, engine=engine, workers=workers, jit=jit)
    _, checkpoint_every, checkpoint_dir = checkpoint_settings(
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        resume_from=resume_from,
        interrupt_after=interrupt_after,
        depth=2,
    )
    expanded = sweep.expand(resolve_preset(spec, effort, preset))
    for _, combo_preset in expanded:
        combo_params = resolve_params(spec, combo_preset)
        if spec.executor is None:
            # Point construction validates population sizes, trial counts
            # and resize schedules for every engine.
            tuple(spec.points(combo_preset, combo_params))

    def combo_settings(
        label: str, combo_preset: ExperimentPreset, combo_workers: int | str | None
    ) -> dict[str, Any]:
        """One combination's keywords: its preset and checkpoint subdirs."""
        return {
            "effort": effort,
            "preset": combo_preset,
            "engine": engine,
            "workers": combo_workers,
            "jit": jit,
            "checkpoint_every": checkpoint_every,
            "checkpoint_dir": _subdir(checkpoint_dir, label),
            "resume_from": _subdir(resume_from, label),
            "interrupt_after": interrupt_after,
        }

    if resolved_workers is None or len(expanded) == 1:
        # Serial path (or a single combination, where trial-level sharding
        # inside run_scenario is the better use of the pool).
        results = []
        for label, combo_preset in expanded:
            result = run_scenario(spec, **combo_settings(label, combo_preset, workers))
            result.metadata["sweep"] = label
            results.append((label, result))
        return results

    payloads = [
        {
            "scenario": sweep.scenario,
            # Combinations are the unit of parallelism; each runs serially
            # inside its worker so results match workers=1 bit for bit.
            "settings": combo_settings(label, combo_preset, None),
        }
        for label, combo_preset in expanded
    ]
    combo_results, timings = execute_shards(
        _run_sweep_combo, payloads, workers=resolved_workers
    )
    results = []
    for (label, _), result, timing in zip(expanded, combo_results, timings):
        result.metadata["sweep"] = label
        result.metadata["workers"] = resolved_workers
        result.metadata["sweep_seconds"] = timing.seconds
        # Each combination ran serially inside its worker; the sweep-level
        # fan-out is the resolved parallelism for this result.
        result.metadata["execution"]["sweep_workers"] = resolved_workers
        results.append((label, result))
    return results
