"""Normalized, schema-versioned benchmark suite results.

One benchmark run — whatever produced it (the ``repro.bench run`` CLI, the
speedup-margin modules under ``benchmarks/``) — serializes to a single
``BENCH_*.json`` with a fixed schema: per-case wall-time samples plus
derived median/min and interactions-per-second throughput, machine and git
provenance, and the calibration measurement that makes cross-machine
comparison meaningful.  :data:`SCHEMA_VERSION` is bumped on any
incompatible change; :func:`load_suite` refuses to read a suite written
under a different schema so a comparison can never silently mix formats.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.bench.timing import Timing
from repro.engine.errors import ConfigurationError

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "SUITE_KIND",
    "SchemaVersionError",
    "CaseResult",
    "BenchSuite",
    "machine_metadata",
    "git_metadata",
    "load_suite",
]

#: Bumped on any incompatible change to the suite JSON layout.
#: Version history: 1 — initial layout; 2 — cases gained an optional
#: ``compile_seconds`` field (one-shot JIT compile cost, never part of the
#: measured samples).
SCHEMA_VERSION = 2

#: Versions :meth:`BenchSuite.from_dict` still reads.  Version-1 suites load
#: with ``compile_seconds=None`` on every case, so baselines committed
#: before the compiled-kernel backend stay usable in ``compare``.
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

#: ``kind`` marker distinguishing suite files from other BENCH_*.json.
SUITE_KIND = "repro-bench-suite"


class SchemaVersionError(ConfigurationError):
    """A suite file was written under an incompatible schema version."""


@dataclass(frozen=True)
class CaseResult:
    """Measured result of one benchmark case.

    ``case_id`` is the join key for comparisons; ``seconds`` keeps every
    measured sample so that consumers can recompute statistics;
    ``work_interactions`` is the nominal interaction count of the workload
    (see :func:`repro.bench.spec.nominal_work`) and ``0`` when no work
    measure applies; ``compile_seconds`` is the one-shot JIT compile cost
    of the case's ``warmup_fn`` (``None`` for cases without one); ``extra``
    carries free-form case diagnostics (per-point speedups, worker scaling
    tables, ...).
    """

    case_id: str
    scenario: str
    seconds: tuple[float, ...]
    engine: str | None = None
    workers: int | None = None
    effort: str = "quick"
    work_interactions: int = 0
    compile_seconds: float | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.case_id:
            raise ConfigurationError("a case result needs a case_id")
        # Validates non-empty, non-negative samples and compile cost.
        Timing(tuple(self.seconds), compile_seconds=self.compile_seconds)
        object.__setattr__(self, "seconds", tuple(float(s) for s in self.seconds))

    @property
    def timing(self) -> Timing:
        return Timing(self.seconds)

    @property
    def median_seconds(self) -> float:
        return self.timing.median

    @property
    def min_seconds(self) -> float:
        return self.timing.minimum

    @property
    def interactions_per_second(self) -> float:
        """Nominal throughput (agent interactions per wall-clock second)."""
        if self.work_interactions <= 0 or self.median_seconds == 0:
            return 0.0
        return self.work_interactions / self.median_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "case_id": self.case_id,
            "scenario": self.scenario,
            "engine": self.engine,
            "workers": self.workers,
            "effort": self.effort,
            "seconds": list(self.seconds),
            "median_seconds": self.median_seconds,
            "min_seconds": self.min_seconds,
            "work_interactions": self.work_interactions,
            "interactions_per_second": self.interactions_per_second,
            "compile_seconds": self.compile_seconds,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CaseResult":
        compile_seconds = data.get("compile_seconds")
        return cls(
            case_id=data["case_id"],
            scenario=data["scenario"],
            engine=data.get("engine"),
            workers=data.get("workers"),
            effort=data.get("effort", "quick"),
            seconds=tuple(data["seconds"]),
            work_interactions=int(data.get("work_interactions", 0)),
            compile_seconds=None if compile_seconds is None else float(compile_seconds),
            extra=dict(data.get("extra", {})),
        )


def machine_metadata() -> dict[str, Any]:
    """Provenance of the machine a suite was produced on."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _git(args: list[str]) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def git_metadata() -> dict[str, Any]:
    """Commit/branch/dirty provenance (all ``None`` outside a checkout)."""
    commit = _git(["rev-parse", "HEAD"])
    branch = _git(["rev-parse", "--abbrev-ref", "HEAD"])
    status = _git(["status", "--porcelain"])
    return {
        "commit": commit,
        "branch": branch,
        "dirty": bool(status) if status is not None else None,
    }


@dataclass(frozen=True)
class BenchSuite:
    """One complete benchmark run: cases plus provenance.

    ``calibration_seconds`` is the median wall time of the fixed
    calibration workload (:func:`repro.bench.timing.calibration_seconds`)
    on the producing machine; comparisons rescale by the ratio of the two
    suites' calibrations, so a baseline committed from one machine remains
    a usable reference on another.  ``None`` means the producer skipped
    calibration (comparisons then assume equal machines).
    """

    cases: tuple[CaseResult, ...]
    effort: str = "quick"
    warmup: int = 1
    repeats: int = 3
    calibration_seconds: float | None = None
    created_unix: float = field(default_factory=time.time)
    machine: Mapping[str, Any] = field(default_factory=machine_metadata)
    git: Mapping[str, Any] = field(default_factory=git_metadata)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for case in self.cases:
            if case.case_id in seen:
                raise ConfigurationError(
                    f"duplicate case_id {case.case_id!r} in suite; case ids "
                    "are the comparison join key and must be unique"
                )
            seen.add(case.case_id)

    def by_case_id(self) -> dict[str, CaseResult]:
        return {case.case_id: case for case in self.cases}

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": SUITE_KIND,
            "schema_version": SCHEMA_VERSION,
            "created_unix": self.created_unix,
            "effort": self.effort,
            "warmup": self.warmup,
            "repeats": self.repeats,
            "calibration_seconds": self.calibration_seconds,
            "machine": dict(self.machine),
            "git": dict(self.git),
            "cases": [case.to_dict() for case in self.cases],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, source: str = "<dict>") -> "BenchSuite":
        version = data.get("schema_version")
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            supported = ", ".join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)
            raise SchemaVersionError(
                f"{source}: suite schema version {version!r} is not a "
                f"supported version ({supported}); regenerate the suite "
                "with this checkout's `python -m repro.bench run`"
            )
        if data.get("kind") not in (None, SUITE_KIND):
            raise SchemaVersionError(
                f"{source}: not a bench suite file (kind={data.get('kind')!r})"
            )
        return cls(
            cases=tuple(CaseResult.from_dict(case) for case in data.get("cases", [])),
            effort=data.get("effort", "quick"),
            warmup=int(data.get("warmup", 1)),
            repeats=int(data.get("repeats", 3)),
            calibration_seconds=data.get("calibration_seconds"),
            created_unix=float(data.get("created_unix", 0.0)),
            machine=dict(data.get("machine", {})),
            git=dict(data.get("git", {})),
        )


def load_suite(path: str | Path) -> BenchSuite:
    """Read a suite file, refusing schema-version mismatches."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"no such suite file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{path} does not contain a suite object")
    return BenchSuite.from_dict(data, source=str(path))
