"""Bit-identity oracle for the compressed-lane batched transition.

``VectorizedDynamicCounting.interact_batch`` applies the rare branches
(reset, backup GRV, adoption) only on their ``np.flatnonzero`` lanes and
keeps one patched scale array.  ``_reference_interact_batch`` below is the
earlier full-width ``np.where`` formulation of the same kernel, kept here as
a test-only oracle: driven with twin generators, both must leave every
state plane bit-identical after every sub-batch, consume the same draws, and
agree on the hand-built edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import empirical_parameters, theory_parameters
from repro.core.vectorized import VectorizedDynamicCounting
from repro.engine.rng import RandomSource

PLANES = ("max", "last_max", "time", "interactions", "resets")


def _reference_interact_batch(protocol, arrays, initiators, responders, rng) -> None:
    """Full-width ``np.where`` formulation of Algorithm 2 on one batch."""
    params = protocol.params
    tau1, tau2, tau3 = params.tau1, params.tau2, params.tau3
    over = params.overestimation
    u_max = arrays["max"][initiators]
    u_last = arrays["last_max"][initiators]
    u_time = arrays["time"][initiators]
    u_inter = arrays["interactions"][initiators]
    v_max = arrays["max"][responders]
    v_last = arrays["last_max"][responders]
    v_time = arrays["time"][responders]

    u_scale = np.maximum(u_max, u_last)
    v_scale = np.maximum(v_max, v_last)
    u_exchange = u_time >= tau2 * u_scale
    u_reset_phase = u_time < tau3 * u_scale
    v_exchange = v_time >= tau2 * v_scale
    v_reset_phase = v_time < tau3 * v_scale

    reset_mask = (
        (u_time <= 0) | (u_reset_phase & v_exchange) | (~u_exchange & (u_max != v_max))
    )
    fresh = np.zeros(u_max.shape, dtype=np.float64)
    fresh[reset_mask] = over * protocol._sample_grv_max(rng, int(reset_mask.sum()))
    new_time = np.where(reset_mask, tau1 * np.maximum(u_max, fresh), u_time)
    new_last = np.where(reset_mask, u_max, u_last)
    new_max = np.where(reset_mask, fresh, u_max)
    new_inter = np.where(reset_mask, 0, u_inter)

    backup_due = new_inter > params.tau_prime * np.maximum(new_max, new_last)
    backup_raw = np.zeros(u_max.shape, dtype=np.float64)
    backup_raw[backup_due] = protocol._sample_grv_max(rng, int(backup_due.sum()))
    new_inter = np.where(backup_due, 0, new_inter)
    adopt_backup = backup_due & (backup_raw > new_max)
    boosted = over * backup_raw
    new_time = np.where(adopt_backup, tau1 * boosted, new_time)
    new_max = np.where(adopt_backup, boosted, new_max)

    u_exchange_now = new_time >= tau2 * np.maximum(new_max, new_last)
    adopt = u_exchange_now & v_exchange & (new_max < v_max)
    new_time = np.where(adopt, tau1 * v_max, new_time)
    new_max = np.where(adopt, v_max, new_max)
    new_last = np.where(adopt, v_last, new_last)

    u_exchange_final = new_time >= tau2 * np.maximum(new_max, new_last)
    share_last = (new_max == v_max) & ~(u_exchange_final & v_reset_phase)
    new_last = np.where(share_last, np.maximum(new_last, v_last), new_last)

    new_time = np.maximum(new_time, v_time) - 1
    new_inter = new_inter + 1

    arrays["max"][initiators] = new_max
    arrays["last_max"][initiators] = new_last
    arrays["time"][initiators] = new_time
    arrays["interactions"][initiators] = new_inter
    np.add.at(arrays["resets"], np.unique(initiators[reset_mask]), 1)


def _assert_planes_equal(actual, expected, context="") -> None:
    for key in PLANES:
        assert actual[key].dtype == expected[key].dtype, (key, context)
        np.testing.assert_array_equal(actual[key], expected[key], err_msg=f"{key} {context}")


def _twin_sources(seed: int) -> tuple[RandomSource, RandomSource]:
    return RandomSource.from_seed(seed), RandomSource.from_seed(seed)


def _twin_batch(protocol, arrays, initiators, responders, seed=7):
    """Run both kernels on copies of ``arrays``; return (new, reference, rngs)."""
    new = {key: plane.copy() for key, plane in arrays.items()}
    ref = {key: plane.copy() for key, plane in arrays.items()}
    rng_new, rng_ref = _twin_sources(seed)
    protocol.interact_batch(new, initiators, responders, rng_new)
    _reference_interact_batch(protocol, ref, initiators, responders, rng_ref)
    return new, ref, (rng_new, rng_ref)


def _same_stream_position(rng_a: RandomSource, rng_b: RandomSource) -> bool:
    return rng_a.generator.bit_generator.state == rng_b.generator.bit_generator.state


PARAMS = {"empirical": empirical_parameters, "theory": lambda: theory_parameters(k=2)}


def _scrambled_arrays(protocol, n: int, seed: int) -> dict[str, np.ndarray]:
    """Agents spread over every phase, some due a backup, some at ``max = 1``.

    Fresh and Fig. 5 starts under the theory constants stay in their first
    countdown for thousands of steps; this start reaches the reset, backup
    and adoption branches in the first batch under either preset.
    """
    params = protocol.params
    gen = np.random.default_rng(seed)
    arrays = protocol.initial_arrays_with_estimate(n, 1.0)
    for key in ("max", "last_max"):
        arrays[key][:] = gen.integers(1, 12, n) * np.where(
            gen.random(n) < 0.5, 1.0, params.overestimation
        )
    scale = np.maximum(arrays["max"], arrays["last_max"])
    arrays["time"][:] = np.floor(gen.uniform(-0.1, params.tau1, n) * scale)
    arrays["interactions"][:] = np.floor(gen.uniform(0.0, 1.2, n) * params.tau_prime * scale)
    return arrays


class TestOracle:
    """The compressed-lane kernel matches the reference plane for plane."""

    @pytest.mark.parametrize("params", sorted(PARAMS))
    @pytest.mark.parametrize("start", ["fresh", "estimate", "scrambled"])
    @pytest.mark.parametrize("n", [2, 3, 10, 5_000])
    @pytest.mark.parametrize("sub_batches", [1, 8])
    def test_bit_identical_after_every_sub_batch(self, params, start, n, sub_batches):
        protocol = VectorizedDynamicCounting(PARAMS[params]())
        rng_new, rng_ref = _twin_sources(n + sub_batches)
        if start == "fresh":
            arrays = protocol.initial_arrays(n, rng_new)
        elif start == "estimate":
            arrays = protocol.initial_arrays_with_estimate(n, 3.0)
        else:
            arrays = _scrambled_arrays(protocol, n, seed=n)
        ref = {key: plane.copy() for key, plane in arrays.items()}
        # Long enough for n = 5000 to leave the warm-up and settle into
        # the converged regime, where the rare branches are sparse.
        steps = 300 if n >= 1_000 else 150
        chunk = max(1, n // sub_batches)
        for step in range(steps):
            remaining = n
            while remaining > 0:
                batch = min(chunk, remaining)
                initiators, responders = rng_new.ordered_pairs(n, batch)
                ref_initiators, ref_responders = rng_ref.ordered_pairs(n, batch)
                protocol.interact_batch(arrays, initiators, responders, rng_new)
                _reference_interact_batch(protocol, ref, ref_initiators, ref_responders, rng_ref)
                _assert_planes_equal(arrays, ref, f"step {step}")
                remaining -= batch
        assert _same_stream_position(rng_new, rng_ref)
        if params == "empirical" and start != "scrambled" and n == 5_000:
            # The run reached the converged regime: estimates near log2 n.
            estimate = np.median(protocol.output_array(arrays))
            assert 0.5 * np.log2(n) <= estimate <= 3 * np.log2(n)

    @pytest.mark.parametrize("sub_batches", [1, 8])
    def test_bit_identical_across_a_mid_run_shrink(self, sub_batches):
        protocol = VectorizedDynamicCounting()
        rng_new, rng_ref = _twin_sources(41)
        arrays = protocol.initial_arrays(4_000, rng_new)
        ref = {key: plane.copy() for key, plane in arrays.items()}
        for step in range(240):
            if step == 120:
                keep = np.sort(np.random.default_rng(3).choice(4_000, 250, replace=False))
                arrays = {key: plane[keep] for key, plane in arrays.items()}
                ref = {key: plane[keep] for key, plane in ref.items()}
            n = arrays["max"].size
            initiators, responders = rng_new.ordered_pairs(n, n)
            np.testing.assert_array_equal(rng_ref.ordered_pairs(n, n), (initiators, responders))
            for part_u, part_v in zip(
                np.array_split(initiators, sub_batches), np.array_split(responders, sub_batches)
            ):
                protocol.interact_batch(arrays, part_u, part_v, rng_new)
                _reference_interact_batch(protocol, ref, part_u, part_v, rng_ref)
                _assert_planes_equal(arrays, ref, f"step {step}")
        assert _same_stream_position(rng_new, rng_ref)


class TestCompressedLaneEdgeCases:
    @pytest.fixture
    def protocol(self) -> VectorizedDynamicCounting:
        return VectorizedDynamicCounting(empirical_parameters())

    @pytest.fixture
    def arrays(self, protocol) -> dict[str, np.ndarray]:
        # tau1 = 6, tau2 = 4, tau3 = 2.  Agent 0 holds (time 30 in [20, 40)
        # at scale 10), so it resets against any responder whose max
        # differs from 10 and shares lastMax with agent 2.
        arrays = protocol.initial_arrays_with_estimate(4, 10.0)
        arrays["max"][:] = [10, 12, 10, 8]
        arrays["last_max"][:] = [10, 12, 11, 8]
        arrays["time"][:] = [30, 60, 35, 40]
        return arrays

    def test_repeated_initiator_last_writer_wins(self, protocol, arrays):
        # Lanes 0 -> 1 and 0 -> 3 reset; the last lane 0 -> 2 does not.
        initiators = np.array([0, 0, 0], dtype=np.int64)
        responders = np.array([1, 3, 2], dtype=np.int64)
        new, ref, rngs = _twin_batch(protocol, arrays, initiators, responders)
        _assert_planes_equal(new, ref)
        assert _same_stream_position(*rngs)
        # The surviving state is lane 0 -> 2's: no reset, lastMax shared,
        # countdown from max(30, 35).
        assert new["max"][0] == 10
        assert new["last_max"][0] == 11
        assert new["time"][0] == 34
        assert new["interactions"][0] == 1
        assert new["resets"].tolist() == [1, 0, 0, 0]
        for key in PLANES:
            np.testing.assert_array_equal(new[key][1:], arrays[key][1:])

    def test_repeated_initiator_with_a_reset_lane_last(self, protocol, arrays):
        initiators = np.array([0, 0, 0], dtype=np.int64)
        responders = np.array([2, 1, 3], dtype=np.int64)
        new, ref, rngs = _twin_batch(protocol, arrays, initiators, responders)
        _assert_planes_equal(new, ref)
        assert _same_stream_position(*rngs)
        # The surviving state is lane 0 -> 3's reset: lastMax keeps the old max.
        assert new["last_max"][0] == 10
        assert new["interactions"][0] == 1
        assert new["resets"].tolist() == [1, 0, 0, 0]

    def test_every_lane_resets(self, protocol, arrays):
        arrays["time"][:] = [0, -3, 0, -1]
        initiators = np.array([0, 1, 2, 3, 1, 2], dtype=np.int64)
        responders = np.array([1, 0, 3, 2, 3, 0], dtype=np.int64)
        new, ref, rngs = _twin_batch(protocol, arrays, initiators, responders)
        _assert_planes_equal(new, ref)
        assert _same_stream_position(*rngs)
        assert new["resets"].tolist() == [1, 1, 1, 1]
        np.testing.assert_array_equal(new["last_max"], arrays["max"])
        assert np.all(new["interactions"] == 1)

    def test_empty_batch_changes_nothing_and_draws_nothing(self, protocol, arrays):
        empty = np.empty(0, dtype=np.int64)
        rng = RandomSource.from_seed(7)
        before = rng.generator.bit_generator.state
        new = {key: plane.copy() for key, plane in arrays.items()}
        protocol.interact_batch(new, empty, empty, rng)
        _assert_planes_equal(new, arrays)
        assert rng.generator.bit_generator.state == before


class TestOrderedPairsStream:
    @pytest.mark.parametrize("n", [2, 3, 1_000])
    @pytest.mark.parametrize("count", [0, 1, 10_000])
    def test_matches_the_np_where_formula(self, n, count):
        rng_new, rng_old = _twin_sources(n * 31 + count)
        initiators, responders = rng_new.ordered_pairs(n, count)
        gen = rng_old.generator
        old_initiators = gen.integers(0, n, size=count)
        old_responders = gen.integers(0, n - 1, size=count)
        old_responders = np.where(
            old_responders >= old_initiators, old_responders + 1, old_responders
        )
        np.testing.assert_array_equal(initiators, old_initiators)
        np.testing.assert_array_equal(responders, old_responders)
        assert initiators.dtype == np.int64
        assert responders.dtype == np.int64
        assert np.all(initiators != responders)
        assert np.all((initiators >= 0) & (initiators < n))
        assert np.all((responders >= 0) & (responders < n))
        assert _same_stream_position(rng_new, rng_old)
