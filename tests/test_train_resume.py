"""Checkpoint→resume determinism for the pre-trainers and the full pipeline.

The contract under test is the acceptance criterion of the resumable training
engine: interrupting a run after a checkpoint and rerunning with resume
produces the *exact* final losses and weights of an uninterrupted run, and a
second run with a warm artifact cache skips preprocessing (visible in the
stage timers).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core import NetTAGConfig, NetTAGPipeline
from repro.encoders import ExprLLM, TextEncoderConfig
from repro.pretrain import ExprLLMPretrainer, ExprPretrainConfig


EXPRESSIONS = [
    "a & b", "a | !b", "a ^ (b & c)", "!(a | b) & c", "(a & b) | (c & d)",
    "!a ^ b", "a & (b | c)", "!(a ^ c)", "(a | b) ^ (c | d)", "a & b & c",
]


def _expr_params(model: ExprLLM):
    return {name: param.data.copy() for name, param in model.named_parameters()}


class TestExprPretrainerResume:
    def test_interrupt_and_resume_is_bit_identical(self, tmp_path):
        config = ExprPretrainConfig(num_steps=10, batch_size=4, seed=2)

        reference_model = ExprLLM(TextEncoderConfig.preset("small"), rng=np.random.default_rng(0))
        reference = ExprLLMPretrainer(reference_model, config).run(EXPRESSIONS)
        assert reference.completed and len(reference.losses) == 10

        ckpt = tmp_path / "expr.ckpt.npz"
        interrupted_model = ExprLLM(TextEncoderConfig.preset("small"), rng=np.random.default_rng(0))
        partial = ExprLLMPretrainer(interrupted_model, config).run(
            EXPRESSIONS, checkpoint_path=ckpt, checkpoint_every=2, max_steps=5
        )
        assert not partial.completed
        assert partial.steps == 5

        resumed = ExprLLMPretrainer(interrupted_model, config).run(
            EXPRESSIONS, checkpoint_path=ckpt, checkpoint_every=2, resume=True
        )
        assert resumed.completed
        assert resumed.resumed_from_step == 5
        assert resumed.losses == reference.losses

        reference_params = _expr_params(reference_model)
        resumed_params = _expr_params(interrupted_model)
        assert set(reference_params) == set(resumed_params)
        for name, value in reference_params.items():
            np.testing.assert_array_equal(value, resumed_params[name])

    def test_lora_adapters_survive_resume(self, tmp_path):
        config = ExprPretrainConfig(num_steps=4, batch_size=4, seed=0, use_lora=True)
        ckpt = tmp_path / "lora.ckpt.npz"
        model = ExprLLM(TextEncoderConfig.preset("small"), rng=np.random.default_rng(0))
        ExprLLMPretrainer(model, config).run(
            EXPRESSIONS, checkpoint_path=ckpt, checkpoint_every=1, max_steps=2
        )
        # The resumed run wraps a *fresh* model with LoRA in setup, then loads
        # adapter weights from the snapshot.
        fresh = ExprLLM(TextEncoderConfig.preset("small"), rng=np.random.default_rng(0))
        resumed = ExprLLMPretrainer(fresh, config).run(
            EXPRESSIONS, checkpoint_path=ckpt, checkpoint_every=1, resume=True
        )
        assert resumed.completed
        assert any("lora_" in name for name, _ in fresh.named_parameters())


def _rewrite_train_state(path: Path, **updates) -> None:
    """Overwrite keys of a training checkpoint's saved engine state."""
    with np.load(path) as archive:
        payload = {name: archive[name] for name in archive.files}
    blob = json.loads(payload["__train_state__"].tobytes().decode("utf-8"))
    blob["state"].update(updates)
    payload["__train_state__"] = np.frombuffer(json.dumps(blob).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as handle:
        np.savez(handle, **payload)


class TestResumeGuards:
    """A checkpoint resumes only under the schedule and engine that wrote it."""

    CONFIG = ExprPretrainConfig(num_steps=6, batch_size=4, seed=3)

    def _interrupted(self, tmp_path):
        ckpt = tmp_path / "expr.ckpt.npz"
        model = ExprLLM(TextEncoderConfig.preset("small"), rng=np.random.default_rng(0))
        ExprLLMPretrainer(model, self.CONFIG).run(
            EXPRESSIONS, checkpoint_path=ckpt, checkpoint_every=1, max_steps=2
        )
        return ckpt

    def _resume(self, ckpt):
        model = ExprLLM(TextEncoderConfig.preset("small"), rng=np.random.default_rng(0))
        return ExprLLMPretrainer(model, self.CONFIG).run(
            EXPRESSIONS, checkpoint_path=ckpt, resume=True
        )

    def test_parallel_engine_checkpoint_is_refused(self, tmp_path):
        # Earlier releases wrote engine="parallel" checkpoints from a sliced
        # data-parallel step; resuming one sequentially would diverge.
        ckpt = self._interrupted(tmp_path)
        _rewrite_train_state(ckpt, engine="parallel")
        with pytest.raises(ValueError, match="parallel engine"):
            self._resume(ckpt)

    def test_shard_schedule_mismatch_is_refused(self, tmp_path):
        # Earlier releases could stream the corpus from shards under a
        # shard-local ShardStreamPlan; resuming such a checkpoint under the
        # in-memory SamplingPlan would silently draw different minibatches.
        ckpt = self._interrupted(tmp_path)
        _rewrite_train_state(ckpt, plan_kind="ShardStreamPlan", plan_shard_size=8)
        with pytest.raises(
            ValueError, match="ShardStreamPlan schedule but this run uses SamplingPlan"
        ) as refused:
            self._resume(ckpt)
        assert "Restart without resume" in str(refused.value)


_MATRIX_SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from repro.encoders import ExprLLM, TextEncoderConfig
    from repro.pretrain import ExprLLMPretrainer, ExprPretrainConfig

    if __name__ == "__main__":
        out_path = sys.argv[1]
        expressions = [
            "a & b", "a | !b", "a ^ (b & c)", "!(a | b) & c", "(a & b) | (c & d)",
            "!a ^ b", "a & (b | c)", "!(a ^ c)", "(a | b) ^ (c | d)", "a & b & c",
            "c | (a & !b)", "!(c & d) | a", "a ^ b ^ c", "(a | c) & (b | d)",
        ]
        config = ExprPretrainConfig(num_steps=4, batch_size=8, seed=5)
        model = ExprLLM(TextEncoderConfig.preset("small"), rng=np.random.default_rng(0))
        result = ExprLLMPretrainer(model, config).run(expressions)
        payload = {"losses": np.asarray(result.losses, dtype=np.float64)}
        for name, param in model.named_parameters():
            payload["param::" + name] = param.data
        np.savez(out_path, **payload)
    """
)


class TestDeterminismMatrix:
    """Loss curves and weights are invariant to PYTHONHASHSEED.

    A short pre-train run under three different hash seeds —
    three fresh interpreters — produces byte-identical loss curves and final
    weights.  This guards against set/dict iteration order leaking into
    training (the ``WExpr.ordered_signals`` bug class).
    """

    def test_hash_seed_matrix_is_byte_identical(self, tmp_path):
        script = tmp_path / "matrix_run.py"
        script.write_text(_MATRIX_SCRIPT)
        repo_src = Path(__file__).resolve().parents[1] / "src"

        outputs = {}
        for hash_seed in ("0", "1", "31337"):
            out = tmp_path / f"run-h{hash_seed}.npz"
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(repo_src) + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, str(script), str(out)],
                capture_output=True, text=True, timeout=600, env=env,
            )
            assert proc.returncode == 0, (
                f"matrix run (hash seed {hash_seed}) failed:\n{proc.stdout}\n{proc.stderr}"
            )
            outputs[hash_seed] = dict(np.load(out))

        reference_key = "0"
        reference = outputs[reference_key]
        assert len(reference["losses"]) == 4
        assert any(key.startswith("param::") for key in reference)
        for key, payload in outputs.items():
            if key == reference_key:
                continue
            assert set(payload) == set(reference), f"array set diverged for {key}"
            for array_name, want in reference.items():
                got = payload[array_name]
                assert got.tobytes() == want.tobytes(), (
                    f"{array_name} diverged for hash seed {key}"
                )


@pytest.fixture(scope="module")
def reference_run():
    """Uninterrupted fast pipeline run used as the ground truth."""
    pipeline = NetTAGPipeline(NetTAGConfig.fast())
    summary = pipeline.pretrain(designs_per_suite=1)
    return pipeline, summary


class TestPipelineResume:
    def test_mid_stage_interrupt_then_resume_matches_reference(self, tmp_path, reference_run):
        reference_pipeline, reference_summary = reference_run

        work = tmp_path / "run"
        interrupted = NetTAGPipeline(NetTAGConfig.fast(), cache_dir=work)
        partial = interrupted.pretrain(
            designs_per_suite=1, checkpoint_every=2,
            max_steps={"expr_pretrain": 3},
        )
        assert partial.stopped_after == "expr_pretrain"
        assert not partial.expr_result.completed

        resumed = NetTAGPipeline(NetTAGConfig.fast(), cache_dir=work)
        summary = resumed.pretrain(designs_per_suite=1, checkpoint_every=2, resume=True)
        assert summary.stopped_after is None
        assert resumed.is_pretrained

        assert summary.expr_result.losses == reference_summary.expr_result.losses
        assert summary.tag_result.total_losses == reference_summary.tag_result.total_losses
        reference_params = dict(reference_pipeline.model.named_parameters())
        resumed_params = dict(resumed.model.named_parameters())
        assert set(reference_params) == set(resumed_params)
        for name, param in reference_params.items():
            np.testing.assert_array_equal(param.data, resumed_params[name].data)

        # The artifact cache absorbed the preprocessing on the second run.
        cached = {t.name: t.cached for t in summary.stage_timings}
        assert cached["preprocess"] and cached["expr_corpus"]
        # The interrupted Step-1 stage really retrained (not a replay).
        assert not cached["expr_pretrain"]

    def test_warm_cache_skips_preprocessing_and_reproduces_losses(self, tmp_path, reference_run):
        _, reference_summary = reference_run
        work = tmp_path / "cache"

        cold = NetTAGPipeline(NetTAGConfig.fast(), cache_dir=work)
        cold_summary = cold.pretrain(designs_per_suite=1)
        cold_cached = {t.name: t.cached for t in cold_summary.stage_timings}
        assert not cold_cached["preprocess"]

        warm = NetTAGPipeline(NetTAGConfig.fast(), cache_dir=work, checkpoint_dir=tmp_path / "ckpt")
        warm_summary = warm.pretrain(designs_per_suite=1)
        warm_cached = {t.name: t.cached for t in warm_summary.stage_timings}
        assert warm_cached["preprocess"]
        assert warm_cached["expr_corpus"]
        assert warm_cached["samples"]
        assert warm_summary.cache_stats["hits"] >= 3

        # Cached artefacts round-trip losslessly: the training curves match
        # the cache-free reference bit for bit.
        assert warm_summary.expr_result.losses == reference_summary.expr_result.losses
        assert warm_summary.tag_result.total_losses == reference_summary.tag_result.total_losses

    def test_config_change_invalidates_cache_and_checkpoints(self, tmp_path):
        work = tmp_path / "cache"
        first = NetTAGPipeline(NetTAGConfig.fast(), cache_dir=work)
        first.pretrain(designs_per_suite=1, checkpoint_every=2,
                       max_steps={"expr_pretrain": 2})

        different = NetTAGPipeline(NetTAGConfig.fast(seed=7), cache_dir=work)
        summary = different.pretrain(designs_per_suite=1, stop_after="preprocess")
        cached = {t.name: t.cached for t in summary.stage_timings}
        assert not cached["preprocess"]  # different seed -> different key

    def test_stop_after_validation(self):
        pipeline = NetTAGPipeline(NetTAGConfig.fast())
        with pytest.raises(ValueError):
            pipeline.pretrain(designs_per_suite=1, stop_after="nonsense")

    def test_max_steps_interrupts_alignment_stage(self, tmp_path):
        pipeline = NetTAGPipeline(NetTAGConfig.fast(), cache_dir=tmp_path / "c")
        summary = pipeline.pretrain(
            designs_per_suite=1, checkpoint_every=1,
            max_steps={"rtl_align": 2},
        )
        # The pipeline must stop at the interrupted stage, not silently train
        # Step 2 against a half-trained alignment encoder.
        assert summary.stopped_after == "rtl_align"
        assert summary.tag_result is None
        assert not pipeline.is_pretrained

    def test_custom_corpus_content_change_invalidates_cache(self, tmp_path):
        from repro.rtl import make_gnnre_design

        work = tmp_path / "cache"
        module_a = make_gnnre_design(1, seed=3)
        first = NetTAGPipeline(NetTAGConfig.fast(), cache_dir=work)
        first.pretrain(corpus={"unit": [module_a]}, stop_after="preprocess")

        # Same module name, different logic: must be a cache miss.
        module_b = make_gnnre_design(2, seed=9)
        module_b.name = module_a.name
        second = NetTAGPipeline(NetTAGConfig.fast(), cache_dir=work)
        summary = second.pretrain(corpus={"unit": [module_b]}, stop_after="preprocess")
        assert not summary.stage_timings[0].cached
