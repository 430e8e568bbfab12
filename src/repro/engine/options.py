"""The execution block stamped on every scenario result.

Execution settings (effort/preset, engine, workers, jit and the four
checkpoint settings) are plain keyword arguments of
:func:`repro.scenarios.runner.run_scenario` and
:func:`repro.scenarios.runner.run_sweep`.  Each is checked in one place:
:func:`repro.scenarios.runner.check_execution` for engine, workers and
jit, and :func:`repro.engine.runner.checkpoint_settings` for
checkpointing.  This module records what actually ran: the resolved
engine(s), worker count and jit outcome in ``metadata["execution"]``.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["execution_metadata", "jit_status"]


def jit_status(jit: bool) -> str:
    """Resolved jit mode: ``"off"``, ``"compiled"`` or ``"fallback: <why>"``."""
    if not jit:
        return "off"
    from repro.kernels import availability

    status = availability()
    return "compiled" if status.enabled else f"fallback: {status.reason}"


def execution_metadata(
    *,
    requested_engine: str | None,
    engines_used: Sequence[str],
    workers: int | None,
    jit: bool,
) -> dict[str, Any]:
    """The fully resolved execution config stamped on every result.

    Auto-resolved knobs (``engine=None``/``"auto"``, ``workers="auto"``)
    are recorded *after* resolution so cached artifacts are self-describing:
    the block alone reproduces the run without re-deriving the auto policy.
    """
    engines = list(dict.fromkeys(engines_used))
    return {
        "requested_engine": requested_engine,
        "engine": engines[0] if len(engines) == 1 else "mixed",
        "engines": engines,
        "workers": workers,
        "jit_requested": jit,
        "jit": jit_status(jit),
    }
