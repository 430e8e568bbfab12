"""Execution settings: keyword arguments, each checked in one place.

Every malformed setting is rejected by all three entry points —
``run_scenario``, ``run_sweep`` and the serving layer — before any engine
is built, and the service enqueues no job for it.
"""

from __future__ import annotations

import pytest

from repro.engine.errors import ConfigurationError
from repro.engine.options import execution_metadata, jit_status
from repro.experiments.base import ExperimentPreset
from repro.scenarios.runner import run_scenario, run_sweep
from repro.scenarios.spec import SweepSpec
from repro.serve.service import RunRequest, SimulationService


def tiny_preset(**overrides) -> ExperimentPreset:
    data = dict(
        name="tiny", population_sizes=(80,), parallel_time=30, trials=2, seed=11
    )
    data.update(overrides)
    return ExperimentPreset(**data)


@pytest.fixture
def no_engines(monkeypatch):
    """Fail the test if any engine is built (estimate traces or bespoke)."""

    def built(*args, **kwargs):
        raise AssertionError("an engine was built for a malformed request")

    monkeypatch.setattr("repro.experiments.figures.make_engine", built)
    monkeypatch.setattr("repro.experiments.memory_table.Simulator", built)


def _run_scenario(scenario, settings):
    run_scenario(scenario, preset=tiny_preset(), **settings)


def _run_sweep(scenario, settings):
    sweep = SweepSpec.from_mapping(scenario, {"n": (60, 90)})
    run_sweep(sweep, preset=tiny_preset(), **settings)


def _serve(scenario, settings):
    """Request fields go on the RunRequest, checkpointing on the service."""
    fields = {k: v for k, v in settings.items() if k in ("engine", "workers", "jit")}
    service = SimulationService("cache", checkpoint_every=settings.get("checkpoint_every"))
    try:
        request = RunRequest(scenario=scenario, overrides={"n": 80}, **fields)
        with pytest.raises(ConfigurationError):
            service.resolve(request)
        try:
            service.submit(request)
        finally:
            assert all(count == 0 for count in service.queue.depth().values())
    finally:
        service.close()


ENTRY_POINTS = {"run_scenario": _run_scenario, "run_sweep": _run_sweep, "serve": _serve}

MALFORMED = {
    "unknown-engine": ("fig2", {"engine": "warp_drive"}),
    "unsupported-engine": ("memory", {"engine": "ensemble"}),
    "workers-zero": ("fig2", {"workers": 0}),
    "workers-bool": ("fig2", {"workers": True}),
    "jit-not-bool": ("fig2", {"jit": "yes"}),
    "checkpoint-every-zero": ("fig2", {"checkpoint_every": 0, "checkpoint_dir": "ckpt"}),
    "interrupt-without-checkpointing": ("fig2", {"interrupt_after": 1}),
    "bespoke-interrupt-without-checkpointing": ("memory", {"interrupt_after": 1}),
}

# The service has no interrupt_after setting: it checkpoints on its own
# cadence and never injects faults.
CASES = [
    pytest.param(entry, case, id=f"{entry}-{case}")
    for entry in ENTRY_POINTS
    for case in MALFORMED
    if not (entry == "serve" and "interrupt" in case)
]


@pytest.mark.parametrize("entry,case", CASES)
def test_malformed_setting_rejected_before_any_engine(
    tmp_path, monkeypatch, no_engines, entry, case
):
    monkeypatch.chdir(tmp_path)
    scenario, settings = MALFORMED[case]
    with pytest.raises(ConfigurationError):
        ENTRY_POINTS[entry](scenario, settings)
    assert not (tmp_path / "ckpt").exists()


class TestMetadataHelpers:
    def test_execution_metadata_shape(self):
        block = execution_metadata(
            requested_engine=None, engines_used=["batched", "batched"], workers=None, jit=False
        )
        assert block == {
            "requested_engine": None,
            "engine": "batched",
            "engines": ["batched"],
            "workers": None,
            "jit_requested": False,
            "jit": "off",
        }
        mixed = execution_metadata(
            requested_engine="auto",
            engines_used=["batched", "counts"],
            workers=2,
            jit=False,
        )
        assert mixed["engine"] == "mixed"
        assert mixed["engines"] == ["batched", "counts"]

    def test_jit_status_off(self):
        assert jit_status(False) == "off"
        # True resolves to "compiled" or a fallback reason, never "off".
        assert jit_status(True) != "off"
