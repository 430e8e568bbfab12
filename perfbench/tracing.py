"""In-memory span tracing of the program's layers for the benchmark's traced run.

:func:`traced` wraps the functions and methods named in :data:`TARGETS` for
the duration of one ``with`` block and restores the originals afterwards.  A
module-level function is also replaced in every ``repro`` module that
imported it by name, so ``from repro.engine.api import quantiles`` call sites
are traced too.  Each call records a :class:`Span` (name, start, end, parent
span, operation id); spans stay in memory until :func:`write_spans` is
called.  Counts the layers expose at the same boundaries (interactions per
kernel call, shard timings, bytes written) are recorded by small observers
that run after the span has ended.

Nothing here runs inside shard worker processes: spans recorded there are
lost with the worker, which is why sharded requests are accounted through
the :class:`~repro.engine.parallel.ShardTiming` records that
``execute_shards`` returns.

Which end-to-end metric each layer should move, and where (the workloads
after the slash bypass the layer, so the prediction there is no change)::

    rng.*                      wall_s          fig3_batched, serve_mixed / decimation_counts
    vectorized.*               wall_s, p95     fig3_batched, serve_mixed / decimation_counts
    counts.*                   wall_s          decimation_counts / fig3_batched
    snapshot.quantiles         wall_s          all (small share)
    resize                     wall_s, p95     decimation_counts, serve_mixed / fig3_batched
    registry.*                 setup_s, wall_s decimation_counts, serve_mixed
    figures.*, runner.*        wall_s          all
    scenarios.run_scenario     wall_s, p50     all
    parallel.*                 p95             serve_mixed / both serial workloads
    checkpoint.*               p95             serve_mixed / both serial workloads
    serve.keys, serve.cache.*  p50             serve_mixed
    serve.jobs.*, serve.result_payload, serve.submit
                               p50, p95        serve_mixed

(``p50`` / ``p95`` are ``request_p50_ms`` / ``request_p95_ms``.)
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

__all__ = [
    "Span",
    "Target",
    "TARGETS",
    "Tracer",
    "layer_totals",
    "self_times",
    "traced",
    "uncovered_seconds",
    "write_spans",
]


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module`` + ``qualname`` (``func`` or ``Class.method``)."""

    module: str
    qualname: str
    span: str


#: Layer boundaries the traced run wraps; several callables may share a span
#: name, which then aggregates them (``snapshot.quantiles``, ``resize``).
TARGETS: tuple[Target, ...] = (
    Target("repro.engine.rng", "RandomSource.ordered_pairs", "rng.ordered_pairs"),
    Target("repro.engine.rng", "RandomSource.ordered_pair_matrix", "rng.ordered_pair_matrix"),
    Target(
        "repro.core.vectorized",
        "VectorizedDynamicCounting.interact_batch",
        "vectorized.interact_batch",
    ),
    Target(
        "repro.core.vectorized",
        "VectorizedDynamicCounting.interact_ensemble",
        "vectorized.interact_ensemble",
    ),
    Target("repro.engine.counts_engine", "CountsSimulator.step_parallel_round", "counts.step"),
    Target("repro.engine.counts_engine", "PackedCountsKernel.apply", "counts.apply"),
    Target("repro.engine.counts_engine", "multiset_sample", "counts.multiset_sample"),
    Target("repro.engine.api", "quantiles", "snapshot.quantiles"),
    Target("repro.engine.api", "matrix_quantiles", "snapshot.quantiles"),
    Target("repro.engine.counts_engine", "weighted_quantiles", "snapshot.quantiles"),
    Target("repro.engine.api", "ArrayStateEngine.resize_to", "resize"),
    Target("repro.engine.ensemble_engine", "EnsembleSimulator.resize_to", "resize"),
    Target("repro.engine.counts_engine", "CountsSimulator.resize_to", "resize"),
    Target("repro.engine.registry", "make_engine", "registry.make_engine"),
    Target("repro.experiments.figures", "run_estimate_trace", "figures.run_estimate_trace"),
    Target("repro.engine.runner", "run_engine_trials", "runner.run_engine_trials"),
    Target("repro.scenarios.runner", "run_scenario", "scenarios.run_scenario"),
    Target("repro.engine.parallel", "execute_shards", "parallel.execute_shards"),
    Target("repro.engine.checkpoint", "write_checkpoint", "checkpoint.write"),
    Target("repro.engine.checkpoint", "read_checkpoint", "checkpoint.read"),
    Target("repro.serve.keys", "canonical_cache_key", "serve.keys"),
    Target("repro.serve.keys", "run_encoding", "serve.keys"),
    Target("repro.serve.keys", "normalize_engine_request", "serve.keys"),
    Target("repro.serve.cache", "ResultCache.get", "serve.cache.get"),
    Target("repro.serve.cache", "ResultCache.put", "serve.cache.put"),
    Target("repro.serve.service", "SimulationService.submit", "serve.submit"),
    Target("repro.serve.service", "SimulationService.result_payload", "serve.result_payload"),
)


@dataclass(frozen=True)
class Span:
    """One traced call; ``parent`` is the enclosing span on the same thread."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    """Span and counter store for one traced run.

    ``op`` is the operation id stamped on every span recorded while it is
    set (the benchmark sets it per request), so the spans a request causes
    on the service's job thread share the request's id.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        observe: Callable[["Tracer", tuple, Any, float], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording a span named ``name`` per call, then ``observe``."""
        tracer = self

        @functools.wraps(fn)
        def traced_call(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, name, start, end, parent, tracer.op))
            if observe is not None:
                observe(tracer, args, result, end - start)
            return result

        return traced_call


# ------------------------------------------------------------------ observers


def _observe_batch(tracer: Tracer, args: tuple, result: Any, seconds: float) -> None:
    # (self, arrays, initiators, responders, rng): one interaction per initiator.
    tracer.counters["vectorized.interact_batch.interactions"] += args[2].size


def _observe_counts_step(tracer: Tracer, args: tuple, result: Any, seconds: float) -> None:
    tracer.samples["counts.states"].append(args[0].state.num_states)


def _observe_shards(tracer: Tracer, args: tuple, result: Any, seconds: float) -> None:
    _, timings = result
    tracer.counters["parallel.shards"] += len(timings)
    shard_seconds = [timing.seconds for timing in timings]
    tracer.counters["parallel.shard_compute_s"] += sum(shard_seconds)
    tracer.counters["parallel.dispatch_overhead_s"] += seconds - max(shard_seconds, default=0.0)


def _observe_checkpoint_write(tracer: Tracer, args: tuple, result: Any, seconds: float) -> None:
    tracer.counters["checkpoint.write.bytes"] += os.path.getsize(result)


def _observe_cache_put(tracer: Tracer, args: tuple, result: Any, seconds: float) -> None:
    tracer.counters["serve.cache.put.bytes"] += sum(
        path.stat().st_size for path in Path(result.path).rglob("*") if path.is_file()
    )


_OBSERVERS: dict[str, Callable[[Tracer, tuple, Any, float], None]] = {
    "vectorized.interact_batch": _observe_batch,
    "counts.step": _observe_counts_step,
    "parallel.execute_shards": _observe_shards,
    "checkpoint.write": _observe_checkpoint_write,
    "serve.cache.put": _observe_cache_put,
}


# ------------------------------------------------------------------- patching


def _resolve(target: Target) -> tuple[Any, str, Callable[..., Any]]:
    """(owner, attribute, original) for a target; the original must be a plain function."""
    owner: Any = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    if not inspect.isfunction(original):
        raise TypeError(f"{target.module}.{target.qualname} is not a plain function")
    return owner, attr, original


def _aliases(original: Callable[..., Any]) -> list[tuple[Any, str]]:
    """Every ``repro`` module attribute bound to ``original`` (direct imports included)."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
    return found


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap :data:`TARGETS` with ``tracer`` for the block; always restore the originals."""
    patches: list[tuple[Any, str, Any]] = []
    try:
        for target in TARGETS:
            owner, attr, original = _resolve(target)
            wrapper = tracer.wrap(original, target.span, _OBSERVERS.get(target.span))
            places = [(owner, attr)] if isinstance(owner, type) else _aliases(original)
            for place, name in places:
                patches.append((place, name, original))
                setattr(place, name, wrapper)
        yield tracer
    finally:
        for place, name, original in reversed(patches):
            setattr(place, name, original)


# ------------------------------------------------------------------- analysis


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
            if end > span.start and start < span.end
        ]
        result[span.id] = (span.end - span.start) - _union_length(clipped)
    return result


def layer_totals(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed ``self_s`` and ``calls`` (outermost spans of that name).

    A span nested inside a span of the same name (a recursive or delegating
    call) adds its self time but is not counted as another call.
    """
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for span in spans:
        entry = totals[span.name]
        entry["self_s"] += own[span.id]
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if parent is None:
            entry["calls"] += 1
    return dict(totals)


def uncovered_seconds(spans: Sequence[Span], start: float, end: float) -> float:
    """Wall time in ``[start, end]`` that no root span (on any thread) covers."""
    roots = [
        (max(span.start, start), min(span.end, end))
        for span in spans
        if span.parent is None and span.end > start and span.start < end
    ]
    return (end - start) - _union_length(roots)


def write_spans(spans: Sequence[Span], path: Path) -> None:
    """Write spans as gzip'd JSON lines (one object per span)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as stream:
        for span in spans:
            stream.write(
                json.dumps(
                    {
                        "id": span.id,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "op": span.op,
                    }
                )
            )
            stream.write("\n")
