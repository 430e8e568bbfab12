"""Kill-and-resume through the scenario layer with ``resume_from`` alone.

``tests/test_checkpoint.py`` drives :func:`run_engine_trials` directly;
these tests interrupt a whole :func:`run_scenario` / :func:`run_sweep`
invocation mid-run and resume it passing nothing but ``resume_from``, so
the checkpoint cadence must be recovered from the per-point manifests the
interrupted run left behind.
"""

from __future__ import annotations

import pytest

from repro.engine.checkpoint import CheckpointInterrupted
from repro.experiments.base import ExperimentPreset
from repro.scenarios.runner import run_scenario, run_sweep
from repro.scenarios.spec import SweepSpec

PRESET = ExperimentPreset(
    name="resume", population_sizes=(40, 80), parallel_time=40, trials=3, seed=11
)


def test_scenario_resumes_from_manifests_alone(tmp_path):
    uninterrupted = run_scenario("fig3", preset=PRESET, engine="batched")
    with pytest.raises(CheckpointInterrupted):
        run_scenario(
            "fig3",
            preset=PRESET,
            engine="batched",
            checkpoint_every=10,
            checkpoint_dir=tmp_path,
            interrupt_after=2,
        )
    resumed = run_scenario("fig3", preset=PRESET, engine="batched", resume_from=tmp_path)
    assert resumed.rows == uninterrupted.rows
    assert resumed.metadata["execution"]["checkpoint_every"] == 10


def test_sweep_resumes_from_manifests_alone(tmp_path):
    sweep = SweepSpec.from_mapping("fig3", {"seed": (11, 12)})
    uninterrupted = run_sweep(sweep, preset=PRESET, engine="batched")
    # The first combination's first point is interrupted, so the second
    # combination never starts and has no manifest yet.
    with pytest.raises(CheckpointInterrupted):
        run_sweep(
            sweep,
            preset=PRESET,
            engine="batched",
            checkpoint_every=10,
            checkpoint_dir=tmp_path,
            interrupt_after=2,
        )
    assert len(list(tmp_path.iterdir())) == 1
    resumed = run_sweep(sweep, preset=PRESET, engine="batched", resume_from=tmp_path)
    assert [label for label, _ in resumed] == [label for label, _ in uninterrupted]
    for (_, left), (_, right) in zip(resumed, uninterrupted):
        assert left.rows == right.rows
