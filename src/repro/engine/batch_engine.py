"""Batched (vectorised) simulation engine for large populations.

The paper simulates populations of up to 10^6 agents.  Executing 5000
parallel time steps at that size means 5 * 10^9 sequential interactions —
out of reach for a pure-Python loop.  The authors solved this with a custom
C++ simulator; we solve it with a *batched* NumPy engine.

Approximation
-------------
The batched engine processes one parallel time step (``n`` interactions) at
a time.  Within a batch it draws ``n`` ordered pairs of distinct agents and
applies the protocol's vectorised transition with the *responder state taken
from the beginning of the batch*, while initiator updates are applied
last-writer-wins.  This is the standard "synchronous rounds" approximation
of the sequential scheduler: information spreads at the same asymptotic rate
(an epidemic still needs Theta(log n) rounds), but the exact interleaving
within one parallel time unit is not preserved.

All figure-scale experiments that use this engine are cross-validated at
small n against the exact :class:`repro.engine.simulator.Simulator` and the
exact struct-of-arrays :class:`repro.engine.array_engine.ArraySimulator`
(see ``tests/test_engine_equivalence.py``); the qualitative shapes of
Figs. 2–5 are insensitive to the within-round interleaving.

Protocols opt in by implementing the :class:`VectorizedProtocol` interface,
which represents the whole population as a struct-of-arrays dictionary of
NumPy vectors.  The registry in :mod:`repro.engine.registry` maps scalar
protocol classes to their vectorised counterparts.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.engine.api import ArrayStateEngine, EngineSnapshot, RunResult
from repro.engine.errors import ConfigurationError
from repro.engine.rng import RandomSource

__all__ = [
    "VectorizedProtocol",
    "BatchSnapshot",
    "BatchedRunResult",
    "BatchedSimulator",
    "flat_lanes",
    "flat_state_view",
]


def flat_state_view(arr: np.ndarray) -> np.ndarray:
    """Flat *view* of a stacked ``(trials, n)`` state array.

    The ensemble transitions index the stacked state through flat
    coordinates (``trial * n + slot``), which is substantially faster than
    broadcast 2-D fancy indexing — but only safe on a view: a silent copy
    would discard every write.  The ensemble engine always keeps its state
    C-contiguous; this guard turns any violation into a loud error.
    """
    if not arr.flags.c_contiguous:
        raise ConfigurationError(
            "ensemble state arrays must be C-contiguous for flat indexing; "
            "got a non-contiguous array (pass np.ascontiguousarray data)"
        )
    return arr.reshape(-1)


def flat_lanes(
    arrays: dict[str, np.ndarray], initiators: np.ndarray, responders: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Flat views and flat lanes of one stacked ``(trials, batch)`` sub-batch.

    Returns the :func:`flat_state_view` of every ``(trials, n)`` plane and
    the index matrices moved to flat coordinates (``trial * n + slot``) and
    ravelled row-major, so each row keeps its batch order and only touches
    its own slots.  The ensemble engine picks int32 indices only when
    ``trials * n < 2**31``, so the offsets cannot overflow.
    """
    flat = {key: flat_state_view(arr) for key, arr in arrays.items()}
    trials, n = next(iter(arrays.values())).shape
    offsets = np.arange(trials, dtype=initiators.dtype)[:, None] * n
    return flat, np.add(initiators, offsets).ravel(), np.add(responders, offsets).ravel()


class VectorizedProtocol(abc.ABC):
    """Interface for protocols that support the struct-of-arrays engines.

    The population state is a dictionary mapping variable names to NumPy
    arrays of equal length ``n`` ("struct of arrays").  The protocol defines
    how to create initial arrays, how to apply one batch of interactions,
    and how to compute the reported output per agent.

    Protocols that additionally implement :meth:`interact_one` — the same
    transition applied to a single ``(initiator, responder)`` slot pair —
    can also run on the exact :class:`repro.engine.array_engine.
    ArraySimulator`, which preserves sequential semantics over the array
    state.
    """

    #: Human-readable name used in experiment metadata.
    name: str = "vectorized-protocol"

    #: Optional per-variable dtype overrides applied by the ensemble engine
    #: when stacking state (e.g. ``{"time": np.float32}``).  Protocols whose
    #: state values are exactly representable in narrower types can halve
    #: the memory traffic of the stacked hot loop; ``None`` keeps the
    #: dtypes of :meth:`initial_arrays`.  Only the ensemble engine applies
    #: these — the 1-D array/batched engines are unaffected.
    ensemble_state_dtypes: dict[str, np.dtype] | None = None

    @abc.abstractmethod
    def initial_arrays(self, n: int, rng: RandomSource) -> dict[str, np.ndarray]:
        """Create the state arrays for a fresh population of ``n`` agents."""

    @abc.abstractmethod
    def interact_batch(
        self,
        arrays: dict[str, np.ndarray],
        initiators: np.ndarray,
        responders: np.ndarray,
        rng: RandomSource,
    ) -> None:
        """Apply one batch of interactions in place.

        ``initiators`` and ``responders`` are index arrays of equal length;
        element ``i`` describes the ``i``-th interaction of the batch.
        Responder states are read from the arrays as they are at call time
        (start of the batch); initiator writes may overlap, in which case
        later interactions of the batch win.

        Implementations may read and write only the slots the index arrays
        name and must not assume the planes have length ``n``: the default
        :meth:`interact_ensemble` calls this method on flat views of a whole
        ``(trials, n)`` stack.
        """

    def interact_one(
        self,
        arrays: dict[str, np.ndarray],
        initiator: int,
        responder: int,
        rng: RandomSource,
    ) -> None:
        """Apply a single interaction to slots ``initiator`` / ``responder``.

        Optional: only needed for the exact :class:`repro.engine.
        array_engine.ArraySimulator`.  Implementations must mirror the
        scalar protocol's transition *including its random-draw order* so
        that the array engine reproduces the sequential engine's trajectory
        under a shared seed.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement interact_one(); it can "
            "run on the batched engine but not on the exact array engine"
        )

    def interact_ensemble(
        self,
        arrays: dict[str, np.ndarray],
        initiators: np.ndarray,
        responders: np.ndarray,
        rng: RandomSource,
    ) -> None:
        """Apply one batch of interactions to every trial of a stacked ensemble.

        ``arrays`` holds 2-D state of shape ``(trials, n)`` and
        ``initiators`` / ``responders`` are ``(trials, batch)`` index
        matrices: row ``t`` describes the batch of trial ``t``, with the
        same within-batch semantics as :meth:`interact_batch`.

        The default runs :meth:`interact_batch` once over :func:`flat_lanes`
        (flat views and ``trial * n + slot`` lanes), so row ``t`` behaves
        exactly as one batched run of trial ``t`` and draws its random
        numbers in row order.  Only protocols whose stacked transition
        differs from the batched one override this (see
        :class:`repro.core.vectorized.VectorizedDynamicCounting`).
        """
        flat, flat_u, flat_v = flat_lanes(arrays, initiators, responders)
        self.interact_batch(flat, flat_u, flat_v, rng)

    @abc.abstractmethod
    def output_array(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        """Per-agent reported output (e.g. the estimate of log n)."""

    def tick_count_array(self, arrays: dict[str, np.ndarray]) -> np.ndarray | None:
        """Optional per-agent cumulative tick (reset) counts for clock analysis."""
        return None

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "class": type(self).__name__}


#: Shared snapshot type under its historical batched-engine name.
BatchSnapshot = EngineSnapshot


@dataclass
class BatchedRunResult(RunResult):
    """Outcome of a batched run: per-snapshot statistics plus metadata.

    A :class:`repro.engine.api.RunResult` under its historical name; the
    ``stopped_early`` flag records whether a ``stop_when`` condition fired
    before the horizon, exactly as on the sequential engine.
    """


class BatchedSimulator(ArrayStateEngine):
    """Vectorised engine executing one parallel time step per batch.

    Parameters
    ----------
    protocol:
        A :class:`VectorizedProtocol`.
    n:
        Initial population size.
    rng / seed:
        Random source (or a seed to build one).
    resize_schedule:
        Optional list of ``(parallel_time, target_size)`` pairs applied at
        snapshot granularity; shrinking keeps a uniformly random subset,
        growing appends agents in the protocol's initial state.  This mirrors
        :class:`repro.engine.adversary.ResizeSchedule` for the array world.
    sub_batches:
        Number of sub-batches one parallel time step is split into.  Larger
        values refresh the responder snapshot more often and bring the
        dynamics closer to the exact sequential scheduler at a modest cost;
        the default of 8 keeps the round length of the dynamic size counting
        protocol within a few percent of the exact engine (see
        ``tests/test_engine_equivalence.py``).
    """

    name = "batched"

    def __init__(
        self,
        protocol: VectorizedProtocol,
        n: int,
        *,
        rng: RandomSource | None = None,
        seed: int | None = None,
        resize_schedule: Iterable[tuple[int, int]] = (),
        initial_arrays: dict[str, np.ndarray] | None = None,
        sub_batches: int = 8,
    ) -> None:
        if sub_batches < 1:
            raise ConfigurationError(f"sub_batches must be at least 1, got {sub_batches}")
        self.sub_batches = int(sub_batches)
        super().__init__(
            protocol,
            n,
            rng=rng,
            seed=seed,
            resize_schedule=resize_schedule,
            initial_arrays=initial_arrays,
        )

    # ------------------------------------------------------------------- run

    def run(
        self,
        parallel_time: int,
        *,
        snapshot_every: int = 1,
        stop_when: Callable[..., bool] | None = None,
    ) -> BatchedRunResult:
        """Run for ``parallel_time`` steps, recording a snapshot every ``snapshot_every``."""
        result = super().run(
            parallel_time, stop_when=stop_when, snapshot_every=snapshot_every
        )
        assert isinstance(result, BatchedRunResult)
        return result

    def _advance_one_parallel_step(self) -> None:
        self.step_parallel_round()

    def step_parallel_round(self) -> None:
        """Execute one parallel time step (``n`` interactions, in sub-batches)."""
        n = self._require_interactable()
        remaining = n
        chunk = max(1, n // self.sub_batches)
        while remaining > 0:
            batch = min(chunk, remaining)
            initiators, responders = self.rng.ordered_pairs(n, batch)
            self.protocol.interact_batch(self.arrays, initiators, responders, self.rng)
            remaining -= batch
        self.interactions_executed += n
        self.parallel_time += 1

    def _build_result(
        self, snapshots: list[EngineSnapshot], stopped_early: bool
    ) -> BatchedRunResult:
        return BatchedRunResult(
            parallel_time=self.parallel_time,
            interactions=self.interactions_executed,
            final_size=self.size,
            stopped_early=stopped_early,
            snapshots=snapshots,
            metadata={"protocol": self.protocol.describe(), "engine": self.name},
        )
