"""Tests for the prefill/decode inference latency model."""

import pytest

from repro.hardware.gpu import H200, MI250_GCD
from repro.inferserve.latency import (
    decode_bound_batch_size,
    decode_seconds_per_token,
    prefill_seconds,
    request_latency,
)
from repro.models.catalog import GPT3_175B, LLAMA3_70B, MIXTRAL_8X22B


class TestPrefill:
    def test_scales_with_prompt_and_batch(self):
        short = prefill_seconds(LLAMA3_70B, H200, 8, 1, 256)
        long = prefill_seconds(LLAMA3_70B, H200, 8, 1, 2048)
        batched = prefill_seconds(LLAMA3_70B, H200, 8, 8, 256)
        assert long > short
        assert batched > short

    def test_more_gpus_faster(self):
        assert prefill_seconds(LLAMA3_70B, H200, 16, 1, 512) < (
            prefill_seconds(LLAMA3_70B, H200, 8, 1, 512)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            prefill_seconds(LLAMA3_70B, H200, 0, 1, 512)


class TestDecode:
    def test_memory_bound_independent_of_prompt(self):
        per_token = decode_seconds_per_token(LLAMA3_70B, H200, 8, 1)
        # 70B params x 2B over 8 GPUs at 4.8 TB/s: ~3.7 ms/token.
        assert 0.002 < per_token < 0.01

    def test_moe_decodes_faster_than_dense_at_equal_size(self):
        """MoE streams only active experts: 141B Mixtral decodes faster
        than a hypothetical equal-size dense read."""
        moe = decode_seconds_per_token(MIXTRAL_8X22B, H200, 8, 1)
        dense_equal = (
            MIXTRAL_8X22B.total_params * 2 / 8 / H200.hbm_bandwidth_bytes_per_s
        )
        assert moe < dense_equal

    def test_slower_hbm_slower_decode(self):
        assert decode_seconds_per_token(LLAMA3_70B, MI250_GCD, 8, 1) > (
            decode_seconds_per_token(LLAMA3_70B, H200, 8, 1)
        )


class TestRequestLatency:
    def test_decode_dominates_long_generations(self):
        latency = request_latency(
            GPT3_175B, H200, 8, batch_size=1, prompt_tokens=512,
            output_tokens=512,
        )
        assert latency.decode_fraction > 0.5
        assert latency.total_s == pytest.approx(
            latency.prefill_s + latency.decode_s
        )

    def test_prefill_dominates_long_prompts_short_outputs(self):
        latency = request_latency(
            GPT3_175B, H200, 8, batch_size=8, prompt_tokens=2048,
            output_tokens=4,
        )
        assert latency.decode_fraction < 0.5


class TestDecodeBoundBatch:
    def test_crossover_is_substantial_on_h200(self):
        """H200's FLOP/byte ratio puts the decode crossover at a large
        batch — why decode batching is nearly free."""
        crossover = decode_bound_batch_size(LLAMA3_70B, H200)
        assert crossover > 20

    def test_crossover_smaller_on_mi250(self):
        assert decode_bound_batch_size(LLAMA3_70B, MI250_GCD) < (
            decode_bound_batch_size(LLAMA3_70B, H200)
        )
