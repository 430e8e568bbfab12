"""Multi-trial orchestration.

Every data point in the paper's evaluation aggregates 96 independent
simulation runs.  :func:`run_engine_trials` is the one executor for that
pattern: it fans a root seed out into independent per-trial random
streams, builds a fresh engine per trial (or one stacked ensemble engine
for many trials) through a caller-supplied factory, runs them, and returns
the per-trial snapshot series; :func:`aggregate_series` reduces those
element-wise to the min / median / max the paper plots.

Trials are independent by construction — every trial's random stream is
derived from its *address* in a :class:`repro.engine.rng.SeedTree`
(``root seed -> trial index``), not from its position in an execution
schedule — so the trials can run synchronously in-process (the default —
the experiment presets are sized so that a full figure regenerates in
minutes on a laptop) or shard across a process pool via the opt-in
``workers`` parameter (see :mod:`repro.engine.parallel`).  Any two worker
counts produce bit-identical outcomes for the same root seed, and for the
looped engines so does the serial default.

The ``"ensemble"`` engine executes trials as ``(trials, n)`` stacked
state — no per-trial Python loop at all.  Combined with ``workers`` (or
checkpointing), the stack is split into row-shards (layout independent of
the worker count, each shard's stream derived from the seed tree) and the
shards run across the pool.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.engine.api import matrix_quantiles
from repro.engine.checkpoint import (
    CheckpointInterrupted,
    read_checkpoint,
    write_checkpoint,
)
from repro.engine.errors import CheckpointError, ConfigurationError
from repro.engine.parallel import (
    ShardTiming,
    execute_shards,
    merge_shard_results,
    plan_shards,
    resolve_workers,
)
from repro.engine.rng import RandomSource, SeedTree

__all__ = [
    "AggregatedSeries",
    "SHARD_NAMESPACE",
    "aggregate_series",
    "checkpoint_settings",
    "run_engine_trials",
]


@dataclass
class AggregatedSeries:
    """Element-wise aggregation of one numeric series across trials.

    ``minimum``, ``median`` and ``maximum`` have one entry per time index and
    are computed across trials, which is exactly how the paper's plots
    report "Minimum / Median / Maximum" over its 96 runs.
    """

    name: str
    index: list[float]
    minimum: list[float]
    median: list[float]
    maximum: list[float]

    def as_dict(self) -> dict[str, list[float]]:
        return {
            "index": list(self.index),
            "minimum": list(self.minimum),
            "median": list(self.median),
            "maximum": list(self.maximum),
        }


def aggregate_series(
    name: str,
    index: Sequence[float],
    per_trial_values: Sequence[Sequence[float]],
) -> AggregatedSeries:
    """Aggregate per-trial series element-wise into min/median/max.

    Trials may have different lengths (e.g. early-stopped runs); the
    aggregate is truncated to the shortest trial so that every reported
    point covers all trials.  The columns are reduced in one
    :func:`repro.engine.api.matrix_quantiles` partition pass over the
    stacked ``(trials, length)`` matrix rather than a Python loop per time
    index; the output is unchanged — plain float lists, with the
    even-count median averaging the two middle values exactly like
    ``statistics.median``.
    """
    if not per_trial_values:
        return AggregatedSeries(name=name, index=[], minimum=[], median=[], maximum=[])
    length = min(len(v) for v in per_trial_values)
    length = min(length, len(index))
    stacked = np.array(
        [np.asarray(values, dtype=float)[:length] for values in per_trial_values]
    )
    minima, medians, maxima = matrix_quantiles(stacked.T)
    return AggregatedSeries(
        name=name,
        index=[float(x) for x in index[:length]],
        minimum=minima.tolist(),
        median=medians.tolist(),
        maximum=maxima.tolist(),
    )


#: Seed-tree namespace of the stacked ensemble row-shards: shard streams
#: are addressed ``tree.child(SHARD_NAMESPACE, first_trial)``, so a
#: shard's stream depends on which trials it covers, never on which
#: worker runs it or how many siblings exist.
SHARD_NAMESPACE = "shard"


# --------------------------------------------------------------- checkpoints
#
# Long-horizon runs segment each shard's engine at multiples of
# ``checkpoint_every`` parallel time: roughly every ``checkpoint_every``
# of parallel time (mid-trial segment boundaries, plus trial boundaries
# once the cadence has elapsed since the last write) the shard writes
# one atomic, checksummed ``shard_<start>-<stop>.ckpt`` file (see
# :mod:`repro.engine.checkpoint`) holding everything needed to continue —
# the series of already-finished trials, the in-flight engine's
# :meth:`~repro.engine.api.Engine.checkpoint_payload`, and the partial
# segment series of the in-flight trial.  Because every random stream is
# derived from a seed-tree *address* and engine counters persist across
# ``run()`` calls, a resumed shard replays bit-identically to an
# uninterrupted one.  The parent writes a ``manifest.json`` pinning the
# workload; resuming against a different workload fails loudly with
# :class:`~repro.engine.errors.CheckpointError` instead of silently mixing
# runs.

#: Name of the workload manifest inside a checkpoint directory.
CHECKPOINT_MANIFEST = "manifest.json"


def _shard_checkpoint_path(directory: str | Path, start: int, stop: int) -> Path:
    """The checkpoint file of the shard covering trials ``[start, stop)``."""
    return Path(directory) / f"shard_{start}-{stop}.ckpt"


def _shard_workload(payload: Mapping[str, Any]) -> dict[str, Any]:
    """The workload fingerprint pinned into a shard checkpoint.

    A checkpoint is a *same-workload* recovery mechanism, not a migration
    format: every knob that shapes the shard's trajectory (engine, trial
    range, horizon, cadences, root seed) is recorded and must match
    exactly on resume.
    """
    return {
        "engine": payload["engine"],
        "start": int(payload["start"]),
        "stop": int(payload["stop"]),
        "parallel_time": int(payload["parallel_time"]),
        "snapshot_every": int(payload["snapshot_every"]),
        "checkpoint_every": int(payload["checkpoint_every"]),
        "seed": payload["seed"],
    }


def _resume_shard_state(payload: Mapping[str, Any]) -> dict[str, Any] | None:
    """The shard checkpoint to continue from; ``None`` means a fresh start.

    A shard resumes only when the payload names a ``resume_from``
    directory holding its checkpoint.  A present-but-corrupt file and a
    workload mismatch both raise
    :class:`~repro.engine.errors.CheckpointError` — a resume must never
    silently fall back to recomputing (masking data loss) or continue a
    different run's state.
    """
    resume_from = payload.get("resume_from")
    if resume_from is None:
        return None
    path = _shard_checkpoint_path(resume_from, payload["start"], payload["stop"])
    if not path.exists():
        return None
    expected = _shard_workload(payload)
    state = read_checkpoint(path, kind="shard")
    if state.get("workload") != expected:
        raise CheckpointError(
            f"shard checkpoint {path.name} was taken for a different workload "
            f"({state.get('workload')!r} != {expected!r})"
        )
    return state


def _write_shard_checkpoint(
    payload: Mapping[str, Any], state: dict[str, Any], *, writes: int
) -> int:
    """Persist one shard checkpoint; returns the updated write count.

    The payload's ``interrupt_after`` is the deterministic fault-injection
    knob: after the N-th *completed* write this raises
    :class:`~repro.engine.checkpoint.CheckpointInterrupted`, so tests and
    CI can kill a run at an exactly reproducible point and resume from a
    checkpoint that is guaranteed to be on disk.
    """
    path = _shard_checkpoint_path(
        payload["checkpoint_dir"], payload["start"], payload["stop"]
    )
    write_checkpoint(
        path, {"workload": _shard_workload(payload), **state}, kind="shard"
    )
    writes += 1
    interrupt_after = payload.get("interrupt_after")
    if interrupt_after is not None and writes >= interrupt_after:
        raise CheckpointInterrupted(
            f"injected interruption after checkpoint write {writes} ({path.name})"
        )
    return writes


def _concat_series(
    segments: Sequence[Mapping[str, list[float]]],
) -> dict[str, list[float]]:
    """Stitch per-segment series columns into one continuous series.

    Engine counters persist across ``run()`` calls and each call returns
    only its own snapshots, so concatenation reproduces exactly the series
    of one uninterrupted run over the whole horizon.
    """
    return {
        key: [value for segment in segments for value in segment[key]]
        for key in segments[0]
    }


def _run_looped_engine_shard_checkpointed(
    payload: dict[str, Any],
) -> list[dict[str, list[float]]]:
    """Run one row-shard of looped-engine trials; module-level for pickling.

    Each trial in the shard gets the stream at its own tree address
    (``tree.trial(t)``) — bit-identical to a serial per-trial loop no
    matter how trials are grouped into shards.  With
    ``checkpoint_every=None`` every trial runs as one segment to the
    horizon and nothing touches disk.

    Otherwise the engine of the in-flight trial is segmented at multiples
    of ``checkpoint_every`` parallel time.  A checkpoint is written at
    every mid-trial segment boundary, and at the first trial boundary once
    at least ``checkpoint_every`` parallel time has accrued since the last
    write — so when trials are shorter than the cadence, write frequency
    still follows the cadence instead of the trial count.  The final
    ``done`` checkpoint is always written.  The restored RNG state
    overwrites whatever the factory drew, so an interrupted-and-resumed
    shard is bit-identical to an uninterrupted one.
    """
    tree: SeedTree = payload["tree"]
    start, stop = payload["start"], payload["stop"]
    parallel_time = payload["parallel_time"]
    snapshot_every = payload["snapshot_every"]
    checkpoint_every = payload.get("checkpoint_every")
    segment_time = checkpoint_every or parallel_time

    completed: list[dict[str, list[float]]] = []
    trial = start
    engine_payload: dict[str, Any] | None = None
    segments: list[dict[str, list[float]]] = []
    state = _resume_shard_state(payload)
    if state is not None:
        if state["done"]:
            return state["completed"]
        completed = state["completed"]
        trial = state["trial"]
        engine_payload = state["engine_payload"]
        segments = state["segments"]

    writes = 0
    since_last_write = 0
    while trial < stop:
        simulator = payload["factory"](payload["engine"], tree.trial(trial).source(), None)
        if engine_payload is not None:
            simulator.apply_checkpoint_payload(engine_payload)
            engine_payload = None
        else:
            segments = []
        while simulator.parallel_time < parallel_time:
            step = min(segment_time, parallel_time - simulator.parallel_time)
            result = simulator.run(step, snapshot_every=snapshot_every)
            segments.append(result.series())
            since_last_write += step
            if checkpoint_every is not None and simulator.parallel_time < parallel_time:
                writes = _write_shard_checkpoint(
                    payload,
                    {
                        "completed": completed,
                        "trial": trial,
                        # copy=False: the payload is pickled by the write
                        # below, before the simulator advances again.
                        "engine_payload": simulator.checkpoint_payload(copy=False),
                        "segments": segments,
                        "done": False,
                    },
                    writes=writes,
                )
                since_last_write = 0
        completed.append(_concat_series(segments))
        segments = []
        trial += 1
        if checkpoint_every is not None and (
            trial >= stop or since_last_write >= checkpoint_every
        ):
            writes = _write_shard_checkpoint(
                payload,
                {
                    "completed": completed,
                    "trial": trial,
                    "engine_payload": None,
                    "segments": [],
                    "done": trial >= stop,
                },
                writes=writes,
            )
            since_last_write = 0
    return completed


def _run_ensemble_engine_shard_checkpointed(
    payload: dict[str, Any],
) -> list[dict[str, list[float]]]:
    """Run one row-shard of an ensemble workload as its own stacked engine.

    The stack's stream is addressed ``tree.child(SHARD_NAMESPACE, start)``.
    With ``checkpoint_every=None`` the stack runs as one segment to the
    horizon and nothing touches disk; otherwise it is segmented at
    multiples of ``checkpoint_every`` and every segment boundary writes
    the stack's engine payload plus the per-segment lists of per-trial
    series.  The per-trial view is stitched only once the horizon is
    reached.
    """
    tree: SeedTree = payload["tree"]
    start, stop = payload["start"], payload["stop"]
    parallel_time = payload["parallel_time"]
    snapshot_every = payload["snapshot_every"]
    checkpoint_every = payload.get("checkpoint_every")
    segment_time = checkpoint_every or parallel_time

    segments: list[list[dict[str, list[float]]]] = []
    state = _resume_shard_state(payload)
    if state is not None:
        segments = state["segments"]
    if state is None or not state["done"]:
        rng = tree.child(SHARD_NAMESPACE, start).source()
        simulator = payload["factory"]("ensemble", rng, stop - start)
        if state is not None and state["engine_payload"] is not None:
            simulator.apply_checkpoint_payload(state["engine_payload"])
        writes = 0
        while simulator.parallel_time < parallel_time:
            step = min(segment_time, parallel_time - simulator.parallel_time)
            result = simulator.run(step, snapshot_every=snapshot_every)
            segments.append([tr.series() for tr in result.trial_results])
            if checkpoint_every is not None:
                done = simulator.parallel_time >= parallel_time
                writes = _write_shard_checkpoint(
                    payload,
                    {
                        # copy=False: pickled by the write below, before
                        # the next segment.
                        "engine_payload": None
                        if done
                        else simulator.checkpoint_payload(copy=False),
                        "segments": segments,
                        "done": done,
                    },
                    writes=writes,
                )
    return [
        _concat_series([segment[i] for segment in segments])
        for i in range(stop - start)
    ]


def _prepare_checkpoint_run(
    checkpoint_dir: Path,
    resume_from: Path | None,
    manifest: dict[str, Any],
) -> None:
    """Create the checkpoint directory and pin/validate its manifest.

    The manifest records the full workload; an existing manifest (in the
    resume source or the target directory) that disagrees means the caller
    is about to mix two different runs' checkpoints — a
    :class:`~repro.engine.errors.CheckpointError`, never a silent restart.
    """

    def check(path: Path) -> None:
        if not path.exists():
            return
        try:
            existing = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable checkpoint manifest {path}: {exc}") from exc
        if existing != manifest:
            raise CheckpointError(
                f"checkpoint manifest {path} does not match this workload "
                f"({existing!r} != {manifest!r}); checkpoints are same-workload "
                "recovery only"
            )

    if resume_from is not None:
        check(resume_from / CHECKPOINT_MANIFEST)
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    target = checkpoint_dir / CHECKPOINT_MANIFEST
    check(target)
    if not target.exists():
        fd, tmp = tempfile.mkstemp(
            prefix=CHECKPOINT_MANIFEST + ".", suffix=".tmp", dir=checkpoint_dir
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(manifest, indent=2, sort_keys=True))
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def manifest_cadence(directory: str | Path, depth: int = 0) -> int | None:
    """The checkpoint cadence recorded by the run manifests under ``directory``.

    ``depth`` is how many directory levels sit between ``directory`` and
    the manifests: ``0`` for a :func:`run_engine_trials` checkpoint
    directory, ``1`` for a scenario's per-point subdirectories, ``2`` for a
    sweep's per-combination, per-point ones.  Every run of one invocation
    shares the cadence, so the first manifest pins it; this is what lets
    ``resume_from`` alone continue a run.  Returns ``None`` when no
    manifest exists yet; an unreadable one raises
    :class:`~repro.engine.errors.CheckpointError`.
    """
    pattern = "*/" * depth + CHECKPOINT_MANIFEST
    for path in sorted(Path(directory).glob(pattern)):
        try:
            return int(json.loads(path.read_text())["checkpoint_every"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"unreadable checkpoint manifest {path}: {exc}") from exc
    return None


def checkpoint_settings(
    *,
    checkpoint_every: int | None,
    checkpoint_dir: str | Path | None,
    resume_from: str | Path | None,
    interrupt_after: int | None,
    depth: int = 0,
) -> tuple[bool, int | None, str | Path | None]:
    """Validate and complete the crash-recovery settings of one run.

    The one place every checkpoint setting is checked, at each nesting
    ``depth`` of :func:`manifest_cadence`: ``checkpoint_every`` and
    ``interrupt_after`` must be positive integers, and ``interrupt_after``
    needs checkpointing.  ``checkpoint_dir`` defaults to ``resume_from``,
    and a missing cadence is read from the manifests under
    ``resume_from``.  Returns ``(checkpointing, checkpoint_every,
    checkpoint_dir)``.

    Only a :func:`run_engine_trials` run (depth ``0``) insists on a
    cadence and a directory: above it, points that never started take the
    cadence from those that did, and bespoke executors never checkpoint.
    """
    for name, value in (
        ("checkpoint_every", checkpoint_every),
        ("interrupt_after", interrupt_after),
    ):
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 1
        ):
            raise ConfigurationError(
                f"{name} must be a positive integer or None, got {value!r}"
            )
    checkpointing = (
        checkpoint_every is not None
        or checkpoint_dir is not None
        or resume_from is not None
    )
    if not checkpointing:
        if interrupt_after is not None:
            raise ConfigurationError(
                "interrupt_after only applies to checkpointed runs "
                "(pass checkpoint_every/checkpoint_dir/resume_from)"
            )
        return False, None, None
    if checkpoint_dir is None:
        checkpoint_dir = resume_from
    if checkpoint_every is None and resume_from is not None:
        checkpoint_every = manifest_cadence(resume_from, depth)
    if depth == 0:
        if checkpoint_every is None:
            raise ConfigurationError(
                "checkpoint_every is required when checkpoint_dir is given "
                "(or resume_from names a directory without a manifest)"
            )
        if checkpoint_dir is None:
            raise ConfigurationError(
                "checkpoint_every requires checkpoint_dir (or resume_from)"
            )
    return True, checkpoint_every, checkpoint_dir


def run_engine_trials(
    engine_factory: Callable[[str, RandomSource, int | None], Any],
    *,
    engine: str,
    trials: int,
    seed: int | None,
    parallel_time: int,
    snapshot_every: int = 1,
    workers: int | str | None = None,
    timing_sink: list[ShardTiming] | None = None,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | Path | None = None,
    resume_from: str | Path | None = None,
    interrupt_after: int | None = None,
) -> list[dict[str, list[float]]]:
    """Run ``trials`` repetitions of one workload and return per-trial series.

    This is the one place that knows how a multi-trial workload maps onto an
    engine: the looped engines get one freshly built engine per trial, each
    with its own random stream at the trial's seed-tree address under the
    root ``seed``, while the ``"ensemble"`` engine stacks trials into
    struct-of-arrays passes.

    ``engine_factory(engine_name, rng, trials)`` builds the engine; it
    receives ``trials`` only in ensemble mode (``None`` otherwise, where the
    engine runs exactly one trial).  Each returned entry is one trial's
    snapshot series (:meth:`repro.engine.api.RunResult.series` columns), in
    trial order — the same shape regardless of the execution mode.
    ``trials`` and ``parallel_time`` must both be at least 1.

    ``workers`` selects the sharded execution path of
    :mod:`repro.engine.parallel`: ``None`` (default) runs every shard
    serially in-process without recording timings, ``1`` does the same
    through the executor, and higher counts (or ``"auto"``) fan the shards
    over a process pool — ``engine_factory`` must then be picklable (a
    module-level function or :func:`functools.partial` over one).  The
    shard layout is independent of the worker count, and every random
    stream is derived from its seed-tree address, so any two worker counts
    produce bit-identical per-trial results.  The one exception is the
    stacked ensemble engine with ``workers=None``: it runs all trials as a
    single stack seeded by the root seed, so its results differ from the
    per-shard stacks (statistically equivalent, pinned by the conformance
    tests).  ``timing_sink``, when given, receives one
    :class:`~repro.engine.parallel.ShardTiming` per shard executed through
    the executor.

    Long-horizon runs opt into crash recovery with ``checkpoint_every=C``
    (parallel time between checkpoints, a multiple of ``snapshot_every``)
    and ``checkpoint_dir=D``: each shard persists an atomic, checksummed
    ``shard_<start>-<stop>.ckpt`` roughly every ``C`` of parallel time (an
    interrupted run loses at most about that much progress per shard), and
    a ``manifest.json`` pins the workload.  ``resume_from=D`` continues an
    interrupted run from those files (``checkpoint_dir`` defaults to the
    resume directory, the cadence to the manifest's); missing files mean a
    fresh start, corrupt files or a workload mismatch raise
    :class:`~repro.engine.errors.CheckpointError`.  A resumed run is
    bit-identical to an uninterrupted one.  Checkpointed runs always go
    through the executor (serially when ``workers`` is ``None``), so a
    checkpointed ensemble run matches ``workers=1``, not the single-stack
    mode.  ``interrupt_after=N`` injects a deterministic
    :class:`~repro.engine.checkpoint.CheckpointInterrupted` after the N-th
    checkpoint write (per shard) for kill-and-resume tests.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if parallel_time < 1:
        raise ValueError(f"parallel_time must be at least 1, got {parallel_time}")
    resolved = resolve_workers(workers)
    checkpointing, checkpoint_every, checkpoint_dir = checkpoint_settings(
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        resume_from=resume_from,
        interrupt_after=interrupt_after,
    )
    if checkpointing:
        if checkpoint_every % snapshot_every != 0:
            raise ConfigurationError(
                f"checkpoint_every ({checkpoint_every}) must be a multiple of "
                f"snapshot_every ({snapshot_every}) so that checkpoint "
                "boundaries land exactly on snapshot boundaries"
            )
        if resolved is None:
            resolved = 1
    if resolved is None and engine == "ensemble":
        simulator = engine_factory(engine, RandomSource.from_seed(seed), trials)
        result = simulator.run(parallel_time, snapshot_every=snapshot_every)
        return [trial_result.series() for trial_result in result.trial_results]

    tree = SeedTree.from_seed(seed)
    shards = plan_shards(trials)
    shard_fn = (
        _run_ensemble_engine_shard_checkpointed
        if engine == "ensemble"
        else _run_looped_engine_shard_checkpointed
    )
    payloads = [
        {
            "factory": engine_factory,
            "engine": engine,
            "tree": tree,
            "start": shard.start,
            "stop": shard.stop,
            "parallel_time": parallel_time,
            "snapshot_every": snapshot_every,
            "checkpoint_every": checkpoint_every,
            "checkpoint_dir": None if checkpoint_dir is None else str(checkpoint_dir),
            "resume_from": None if resume_from is None else str(resume_from),
            "seed": seed,
            "interrupt_after": interrupt_after,
        }
        for shard in shards
    ]
    if checkpointing:
        _prepare_checkpoint_run(
            Path(checkpoint_dir),
            None if resume_from is None else Path(resume_from),
            {
                "schema_version": 1,
                "kind": "trial-run",
                "engine": engine,
                "trials": trials,
                "seed": seed,
                "parallel_time": parallel_time,
                "snapshot_every": snapshot_every,
                "checkpoint_every": checkpoint_every,
                "shards": [[shard.start, shard.stop] for shard in shards],
            },
        )
    if resolved is None:
        per_shard = [shard_fn(payload) for payload in payloads]
    else:
        per_shard, timings = execute_shards(
            shard_fn, payloads, workers=resolved, shards=shards
        )
        if timing_sink is not None:
            timing_sink.extend(timings)
    return merge_shard_results(shards, per_shard)
