"""Tests for saving and reloading a pre-trained NetTAG model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import NetTAG, NetTAGConfig
from repro.netlist import netlist_to_tag


class TestConfigSerialisation:
    def test_round_trip_preserves_every_field(self):
        config = NetTAGConfig.fast(model_size="medium", data_fraction=0.5, seed=3)
        rebuilt = NetTAGConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_nested_pretrain_configs_survive(self):
        config = NetTAGConfig.fast()
        rebuilt = NetTAGConfig.from_dict(config.to_dict())
        assert rebuilt.expr_pretrain == config.expr_pretrain
        assert rebuilt.tag_pretrain == config.tag_pretrain

    def test_config_saved_with_data_parallel_settings_still_loads(self):
        """Earlier releases saved ``num_workers``/``world_size``/``shard_size``
        in both pre-training configs; those keys are dropped on load."""
        config = NetTAGConfig.fast(seed=2)
        data = config.to_dict()
        for section in ("expr_pretrain", "tag_pretrain"):
            data[section] = dict(data[section], num_workers=2, world_size=4, shard_size=16)
        assert NetTAGConfig.from_dict(data) == config


class TestModelCheckpoint:
    def test_untrained_model_round_trip(self, comb_netlist, tmp_path):
        model = NetTAG(NetTAGConfig.fast(seed=5), rng=np.random.default_rng(5))
        tag = netlist_to_tag(comb_netlist)
        reference_nodes, reference_graph = model.encode_tag_multigrained(tag)

        path = model.save(tmp_path / "nettag.npz")
        restored = NetTAG.load(path, rng=np.random.default_rng(99))
        assert restored.config == model.config
        nodes, graph = restored.encode_tag_multigrained(tag)
        assert np.allclose(nodes, reference_nodes)
        assert np.allclose(graph, reference_graph)

    def test_pretrained_model_round_trip(self, pretrained_pipeline, comb_netlist, tmp_path):
        """A Step-1/Step-2 pre-trained model (with LoRA adapters) reloads exactly."""
        model = pretrained_pipeline.model
        tag = netlist_to_tag(comb_netlist)
        reference_nodes, reference_graph = model.encode_tag_multigrained(tag)

        path = model.save(tmp_path / "pretrained.npz")
        restored = NetTAG.load(path)
        nodes, graph = restored.encode_tag_multigrained(tag)
        assert np.allclose(nodes, reference_nodes, atol=1e-8)
        assert np.allclose(graph, reference_graph, atol=1e-8)

    def test_model_saved_with_data_parallel_settings_loads(self, tmp_path):
        from repro import nn

        model = NetTAG(NetTAGConfig.fast(seed=5), rng=np.random.default_rng(5))
        config = model.config.to_dict()
        for section in ("expr_pretrain", "tag_pretrain"):
            config[section] = dict(config[section], num_workers=0, world_size=0, shard_size=0)
        path = nn.save_checkpoint(
            model, tmp_path / "earlier.npz", metadata={"config": config, "preset": "fast"}
        )
        restored = NetTAG.load(path)
        assert restored.config == model.config
        assert restored.fingerprint() == model.fingerprint()

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            NetTAG.load(tmp_path / "nope.npz")


class TestCheckpointMetadata:
    def test_save_stamps_library_version_and_preset(self, tmp_path):
        import repro
        from repro import nn

        model = NetTAG(NetTAGConfig.fast(seed=1), rng=np.random.default_rng(1))
        path = model.save(tmp_path / "meta.npz")
        metadata = nn.peek_metadata(path)
        assert metadata["library_version"] == repro.__version__
        assert metadata["preset"] == "fast"

    def test_corpus_fingerprint_recorded_via_extra_metadata(self, tmp_path):
        from repro import nn

        model = NetTAG(NetTAGConfig.fast(seed=1), rng=np.random.default_rng(1))
        path = model.save(tmp_path / "meta.npz", extra_metadata={"corpus_fingerprint": "abc123"})
        assert nn.peek_metadata(path)["corpus_fingerprint"] == "abc123"

    def test_load_warns_on_library_version_mismatch(self, tmp_path):
        from repro import nn

        model = NetTAG(NetTAGConfig.fast(seed=1), rng=np.random.default_rng(1))
        path = nn.save_checkpoint(
            model, tmp_path / "old.npz",
            metadata={"config": model.config.to_dict(), "library_version": "0.0.1-ancient"},
        )
        with pytest.warns(UserWarning, match="library_version"):
            NetTAG.load(path)

    def test_load_warns_on_expected_metadata_mismatch(self, tmp_path):
        model = NetTAG(NetTAGConfig.fast(seed=1), rng=np.random.default_rng(1))
        path = model.save(tmp_path / "meta.npz", extra_metadata={"corpus_fingerprint": "abc123"})
        with pytest.warns(UserWarning, match="corpus_fingerprint"):
            NetTAG.load(path, expected_metadata={"corpus_fingerprint": "zzz999"})

    def test_load_is_silent_when_metadata_matches(self, tmp_path):
        import warnings

        model = NetTAG(NetTAGConfig.fast(seed=1), rng=np.random.default_rng(1))
        path = model.save(tmp_path / "meta.npz", extra_metadata={"corpus_fingerprint": "abc123"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            NetTAG.load(path, expected_metadata={"corpus_fingerprint": "abc123"})
