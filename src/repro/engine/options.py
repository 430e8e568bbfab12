"""A single frozen bundle for the execution knobs of the scenario layer.

The same eight keyword arguments — effort/preset, engine, workers, jit and
the four checkpoint fields — had accreted independently on
:func:`repro.scenarios.runner.run_scenario`,
:func:`repro.scenarios.runner.run_sweep`, the CLI and
:class:`repro.serve.service.SimulationService`.  :class:`ExecutionOptions`
is the one canonical place they are declared, validated and stamped into
``metadata["execution"]``.

``run_scenario`` and ``run_sweep`` keep accepting the legacy keyword
arguments (they build an ``ExecutionOptions`` internally via
:meth:`ExecutionOptions.merge`); passing *both* an options object and a
conflicting legacy keyword raises a
:class:`~repro.engine.errors.ConfigurationError` instead of silently
preferring one.  The layer below,
:func:`repro.engine.runner.run_engine_trials`, takes the workers and
checkpoint knobs as plain keywords only.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Sequence

from repro.engine.errors import ConfigurationError

__all__ = ["ExecutionOptions", "execution_metadata", "jit_status"]


@dataclasses.dataclass(frozen=True)
class ExecutionOptions:
    """How to execute a workload — everything except *what* to run.

    Parameters
    ----------
    effort:
        Preset effort level (``"quick"`` / ``"default"`` / ``"paper"``).
        Ignored whenever an explicit ``preset`` is given.
    preset:
        An explicit :class:`~repro.experiments.base.ExperimentPreset`,
        overriding the effort lookup.  Scenario layer only.
    engine:
        Engine name to force, ``"auto"`` to auto-select, or ``None`` to
        defer to the spec's pinned engine / auto policy.
    workers:
        ``None`` (serial), ``"auto"`` (capped CPU count) or an integer
        worker-process count for sharded execution.
    jit:
        Request the compiled kernel backend (best effort; the availability
        outcome is recorded in the result metadata).
    checkpoint_every / checkpoint_dir / resume_from / interrupt_after:
        Crash-recovery knobs, as documented on
        :func:`repro.engine.runner.run_engine_trials`.
    """

    effort: str = "quick"
    preset: Any = None
    engine: str | None = None
    workers: int | str | None = None
    jit: bool = False
    checkpoint_every: int | None = None
    checkpoint_dir: Any = None
    resume_from: Any = None
    interrupt_after: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.effort, str) or not self.effort:
            raise ConfigurationError(
                f"effort must be a non-empty string, got {self.effort!r}"
            )
        if self.engine is not None and self.engine != "auto":
            from repro.engine.registry import engine_names

            if self.engine not in engine_names():
                raise ConfigurationError(
                    f"unknown engine {self.engine!r}; available engines: "
                    f"{', '.join(engine_names())} (or 'auto')"
                )
        if self.workers is not None and self.workers != "auto":
            if not isinstance(self.workers, int) or isinstance(self.workers, bool):
                raise ConfigurationError(
                    f"workers must be a positive integer, 'auto' or None, "
                    f"got {self.workers!r}"
                )
            if self.workers < 1:
                raise ConfigurationError(
                    f"workers must be >= 1, got {self.workers}"
                )
        if not isinstance(self.jit, bool):
            raise ConfigurationError(f"jit must be a bool, got {self.jit!r}")
        for name in ("checkpoint_every", "interrupt_after"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigurationError(
                    f"{name} must be a positive integer or None, got {value!r}"
                )
        if self.interrupt_after is not None and not (
            self.checkpoint_every is not None
            or self.checkpoint_dir is not None
            or self.resume_from is not None
        ):
            raise ConfigurationError(
                "interrupt_after requires checkpointing "
                "(checkpoint_every/checkpoint_dir/resume_from)"
            )

    @property
    def checkpointing(self) -> bool:
        """Whether any crash-recovery knob is active."""
        return (
            self.checkpoint_every is not None
            or self.checkpoint_dir is not None
            or self.resume_from is not None
        )

    def replace(self, **changes: Any) -> "ExecutionOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def merge(
        cls, options: "ExecutionOptions | None", **legacy: Any
    ) -> "ExecutionOptions":
        """Combine an explicit options object with legacy keyword arguments.

        With ``options=None`` the legacy keywords simply build a new
        ``ExecutionOptions``.  With an options object, every legacy keyword
        must still sit at its default — passing both is ambiguous and
        raises a :class:`ConfigurationError` naming the offenders.
        """
        unknown = [name for name in legacy if name not in _FIELD_DEFAULTS]
        if unknown:
            raise ConfigurationError(
                f"unknown execution option(s): {', '.join(sorted(unknown))}"
            )
        if options is None:
            return cls(**legacy)
        if not isinstance(options, cls):
            raise ConfigurationError(
                f"options must be an ExecutionOptions, got {type(options).__name__}"
            )
        conflicts = sorted(
            name
            for name, value in legacy.items()
            if value != _FIELD_DEFAULTS[name]
        )
        if conflicts:
            raise ConfigurationError(
                "pass execution settings either via options=ExecutionOptions(...) "
                "or as keyword arguments, not both; conflicting keyword(s): "
                + ", ".join(conflicts)
            )
        return options


_FIELD_DEFAULTS: Mapping[str, Any] = {
    field.name: field.default for field in dataclasses.fields(ExecutionOptions)
}


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
