"""The unified ExecutionOptions API.

One frozen bundle, validated in one place, accepted by every scenario-level
entry point (`run_scenario`, `run_sweep`, serve's `RunRequest`), with the
legacy keyword arguments still working — and passing both sides raising a
clear error instead of silently preferring one.
"""

from __future__ import annotations

import pytest

from repro.engine.errors import ConfigurationError
from repro.engine.options import ExecutionOptions, execution_metadata, jit_status
from repro.experiments.base import ExperimentPreset
from repro.scenarios.runner import run_scenario, run_sweep
from repro.scenarios.spec import SweepSpec
from repro.serve.service import RunRequest


def tiny_preset(**overrides) -> ExperimentPreset:
    data = dict(
        name="tiny", population_sizes=(80,), parallel_time=30, trials=2, seed=11
    )
    data.update(overrides)
    return ExperimentPreset(**data)


class TestValidation:
    def test_defaults_valid(self):
        opts = ExecutionOptions()
        assert opts.effort == "quick"
        assert not opts.checkpointing

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ExecutionOptions(effort="")
        with pytest.raises(ConfigurationError):
            ExecutionOptions(engine="warp_drive")
        with pytest.raises(ConfigurationError):
            ExecutionOptions(workers=0)
        with pytest.raises(ConfigurationError):
            ExecutionOptions(workers=True)
        with pytest.raises(ConfigurationError):
            ExecutionOptions(jit="yes")
        with pytest.raises(ConfigurationError):
            ExecutionOptions(checkpoint_every=0, checkpoint_dir="x")
        # interrupt_after is a fault-injection knob *on* checkpointing.
        with pytest.raises(ConfigurationError):
            ExecutionOptions(interrupt_after=1)

    def test_accepts_auto_spellings(self):
        opts = ExecutionOptions(engine="auto", workers="auto")
        assert opts.engine == "auto"
        assert opts.workers == "auto"

    def test_replace_revalidates(self):
        opts = ExecutionOptions(workers=2)
        assert opts.replace(workers=4).workers == 4
        with pytest.raises(ConfigurationError):
            opts.replace(workers=-1)


class TestMerge:
    def test_legacy_only_builds_options(self):
        opts = ExecutionOptions.merge(None, effort="default", workers=2)
        assert opts == ExecutionOptions(effort="default", workers=2)

    def test_options_pass_through(self):
        opts = ExecutionOptions(engine="batched")
        assert ExecutionOptions.merge(opts, effort="quick", engine=None) is opts

    def test_both_sides_conflict(self):
        with pytest.raises(ConfigurationError, match="conflicting keyword"):
            ExecutionOptions.merge(ExecutionOptions(engine="batched"), engine="counts")
        with pytest.raises(ConfigurationError, match="effort"):
            ExecutionOptions.merge(ExecutionOptions(), effort="paper")

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown execution option"):
            ExecutionOptions.merge(None, worker_count=3)


class TestRunScenario:
    def test_options_equivalent_to_legacy(self):
        preset = tiny_preset()
        legacy = run_scenario("oscillate", preset=preset, engine="batched")
        bundled = run_scenario(
            "oscillate", options=ExecutionOptions(preset=preset, engine="batched")
        )
        assert bundled.rows == legacy.rows
        assert bundled.metadata["execution"] == legacy.metadata["execution"]

    def test_both_sides_rejected(self):
        with pytest.raises(ConfigurationError, match="conflicting keyword"):
            run_scenario(
                "oscillate",
                options=ExecutionOptions(preset=tiny_preset()),
                engine="batched",
            )


class TestRunSweep:
    def test_options_accepted(self):
        sweep = SweepSpec.from_mapping("oscillate", {"n": (60, 90)})
        results = run_sweep(
            sweep, options=ExecutionOptions(preset=tiny_preset(), engine="batched")
        )
        assert [label for label, _ in results] == ["n=60", "n=90"]

    def test_both_sides_rejected(self):
        sweep = SweepSpec.from_mapping("oscillate", {"n": (60,)})
        with pytest.raises(ConfigurationError, match="conflicting keyword"):
            run_sweep(sweep, options=ExecutionOptions(), effort="paper")


class TestRunRequest:
    def test_options_flatten_to_fields(self):
        via_options = RunRequest(
            scenario="fig2",
            options=ExecutionOptions(effort="default", engine="batched", workers=2),
        )
        via_fields = RunRequest(
            scenario="fig2", effort="default", engine="batched", workers=2
        )
        # Equal requests -> equal summaries -> one cache key downstream.
        assert via_options == via_fields
        assert via_options.summary() == via_fields.summary()
        assert "options" not in via_options.summary()

    def test_both_sides_rejected(self):
        with pytest.raises(ConfigurationError, match="conflicting field"):
            RunRequest(
                scenario="fig2",
                engine="counts",
                options=ExecutionOptions(engine="batched"),
            )

    def test_checkpoint_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="checkpointing"):
            RunRequest(
                scenario="fig2",
                options=ExecutionOptions(checkpoint_every=10, checkpoint_dir="x"),
            )


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


def test_scenarios_reexports_options():
    from repro.scenarios import ExecutionOptions as reexported

    assert reexported is ExecutionOptions
