"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.netlist import write_verilog
from repro.rtl import make_gnnre_design
from repro.synth import synthesize


class TestArgumentParsing:
    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestStatsCommand:
    def test_stats_prints_every_suite_and_total(self, capsys):
        assert main(["stats", "--designs-per-suite", "1"]) == 0
        output = capsys.readouterr().out
        for source in ("ITC99", "OpenCores", "Chipyard", "VexRiscv", "Total"):
            assert source in output


class TestPretrainAndEmbedCommands:
    def test_pretrain_then_embed_round_trip(self, tmp_path, capsys):
        checkpoint = tmp_path / "model.npz"
        assert main([
            "pretrain", "--output", str(checkpoint), "--preset", "fast",
            "--designs-per-suite", "1", "--seed", "1",
        ]) == 0
        assert checkpoint.exists()

        netlist = synthesize(make_gnnre_design(1, seed=3)).netlist
        verilog_path = tmp_path / "design.v"
        write_verilog(netlist, path=verilog_path)
        output = tmp_path / "design_embeddings.npz"
        assert main([
            "embed", str(verilog_path), "--checkpoint", str(checkpoint), "--output", str(output),
        ]) == 0
        assert output.exists()

        with np.load(output) as archive:
            assert "graph_embedding" in archive.files
            gate_embeddings = archive["gate_embeddings"]
            gate_names = archive["gate_names"]
        assert gate_embeddings.shape[0] == len(gate_names) == netlist.num_gates
        stdout = capsys.readouterr().out
        assert "checkpoint written" in stdout
        assert "embeddings written" in stdout

    @pytest.mark.parametrize("checkpoint_every, hint", [
        ("1", "rerun with --resume to continue from"),
        ("0", "nothing to resume from"),
    ])
    def test_pretrain_interrupt_exits_130_with_a_resume_hint(
        self, tmp_path, capsys, monkeypatch, checkpoint_every, hint
    ):
        from repro.core import NetTAGPipeline

        def interrupted(self, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(NetTAGPipeline, "pretrain", interrupted)
        checkpoint = tmp_path / "model.npz"
        assert main([
            "pretrain", "--output", str(checkpoint), "--preset", "fast",
            "--checkpoint-every", checkpoint_every,
        ]) == 130
        assert hint in capsys.readouterr().out
        assert not checkpoint.exists()

    def test_batch_embed_directory(self, tmp_path, capsys):
        checkpoint = tmp_path / "model.npz"
        assert main([
            "pretrain", "--output", str(checkpoint), "--preset", "fast",
            "--designs-per-suite", "1", "--seed", "1",
        ]) == 0

        netlist_dir = tmp_path / "netlists"
        netlist_dir.mkdir()
        netlists = {}
        for i, seed in ((1, 3), (2, 5)):
            netlist = synthesize(make_gnnre_design(i, seed=seed)).netlist
            write_verilog(netlist, path=netlist_dir / f"design{i}.v")
            netlists[f"design{i}"] = netlist
        output_dir = tmp_path / "embeddings"
        assert main([
            "embed", str(netlist_dir), "--batch",
            "--checkpoint", str(checkpoint), "--output", str(output_dir),
        ]) == 0

        stdout = capsys.readouterr().out
        assert "one batched pass" in stdout
        for stem, netlist in netlists.items():
            with np.load(output_dir / f"{stem}.embeddings.npz") as archive:
                assert archive["gate_embeddings"].shape[0] == netlist.num_gates

    def test_batch_embed_rejects_file_argument(self, tmp_path, capsys):
        checkpoint = tmp_path / "model.npz"
        assert main([
            "pretrain", "--output", str(checkpoint), "--preset", "fast",
            "--designs-per-suite", "1", "--seed", "1",
        ]) == 0
        lone = tmp_path / "lone.v"
        write_verilog(synthesize(make_gnnre_design(1, seed=3)).netlist, path=lone)
        assert main(["embed", str(lone), "--batch", "--checkpoint", str(checkpoint)]) == 2


class TestPretrainResumeFlags:
    def test_cache_dir_and_resume_round_trip(self, tmp_path, capsys):
        checkpoint = tmp_path / "model.npz"
        cache = tmp_path / "cache"
        args = [
            "pretrain", "--output", str(checkpoint), "--preset", "fast",
            "--designs-per-suite", "1", "--seed", "2",
            "--cache-dir", str(cache), "--checkpoint-every", "2",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "stage preprocess" in first
        assert "(computed)" in first

        # Second run resumes from the final snapshots and hits the artifact
        # cache; the stage report makes both observable.
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert checkpoint.exists()


class TestIndexCommands:
    @pytest.fixture()
    def checkpoint(self, tmp_path, small_model):
        """A saved (untrained) model checkpoint — index commands only encode."""
        path = tmp_path / "model.npz"
        small_model.save(path)
        return path

    @pytest.fixture()
    def netlist_dir(self, tmp_path):
        from repro.rtl import make_controller

        directory = tmp_path / "corpus"
        directory.mkdir()
        for name, seed in (("alpha", 21), ("beta", 22)):
            netlist = synthesize(make_controller(name, seed=seed, num_states=4)).netlist
            write_verilog(netlist, path=directory / f"{name}.v")
        return directory

    def test_build_stats_query_add_round_trip(self, tmp_path, checkpoint, netlist_dir, capsys):
        index_dir = tmp_path / "index"
        assert main([
            "index", "build", str(netlist_dir),
            "--checkpoint", str(checkpoint), "--index", str(index_dir),
            "--shard-size", "8",
        ]) == 0
        assert "indexed" in capsys.readouterr().out
        assert (index_dir / "manifest.json").exists()

        assert main(["index", "stats", "--index", str(index_dir)]) == 0
        stats_out = capsys.readouterr().out
        assert "entries" in stats_out and "kind cone" in stats_out

        query_path = netlist_dir / "alpha.v"
        assert main([
            "index", "query", str(query_path),
            "--checkpoint", str(checkpoint), "--index", str(index_dir), "-k", "2",
        ]) == 0
        query_out = capsys.readouterr().out
        assert "alpha" in query_out  # the indexed circuit retrieves itself

        assert main([
            "index", "query", str(query_path), "--cones",
            "--checkpoint", str(checkpoint), "--index", str(index_dir), "-k", "2",
        ]) == 0
        cones_out = capsys.readouterr().out
        assert "alpha::" in cones_out

        # Appending another netlist grows the index.
        from repro.rtl import make_controller

        extra = synthesize(make_controller("gamma", seed=23, num_states=3)).netlist
        extra_path = tmp_path / "gamma.v"
        write_verilog(extra, path=extra_path)
        assert main([
            "index", "add", str(extra_path),
            "--checkpoint", str(checkpoint), "--index", str(index_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["index", "stats", "--index", str(index_dir)]) == 0
        assert "gamma" not in capsys.readouterr().out  # stats prints counts, not keys
        from repro.serve import EmbeddingIndex

        assert "gamma" in EmbeddingIndex.open(index_dir)

    def test_query_searcher_algorithms_and_compact(
        self, tmp_path, checkpoint, netlist_dir, capsys
    ):
        index_dir = tmp_path / "index"
        assert main([
            "index", "build", str(netlist_dir),
            "--checkpoint", str(checkpoint), "--index", str(index_dir),
            "--shard-size", "8",
        ]) == 0
        capsys.readouterr()

        query_path = netlist_dir / "alpha.v"
        outputs = {}
        for searcher in ("exact", "hnsw"):
            assert main([
                "index", "query", str(query_path), "--cones",
                "--searcher", searcher,
                "--checkpoint", str(checkpoint), "--index", str(index_dir),
                "-k", "2",
            ]) == 0
            outputs[searcher] = capsys.readouterr().out
            assert "alpha::" in outputs[searcher]
        with pytest.raises(SystemExit) as rejected:
            main([
                "index", "query", str(query_path), "--cones", "--searcher", "ivf",
                "--checkpoint", str(checkpoint), "--index", str(index_dir),
            ])
        assert rejected.value.code == 2
        assert "invalid choice: 'ivf'" in capsys.readouterr().err

        from repro.serve import EmbeddingIndex

        index = EmbeddingIndex.open(index_dir)
        index.remove(index.keys()[:1])
        index.save()
        assert main(["index", "compact", "--index", str(index_dir)]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "tombstones dropped" in out
        assert not EmbeddingIndex.open(index_dir).stats()["tombstones"]

    def test_build_refuses_empty_directory(self, tmp_path, checkpoint):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([
            "index", "build", str(empty),
            "--checkpoint", str(checkpoint), "--index", str(tmp_path / "idx"),
        ]) == 2

    def test_build_twice_requires_force(self, tmp_path, checkpoint, netlist_dir, capsys):
        index_dir = tmp_path / "index"
        base = [
            "index", "build", str(netlist_dir),
            "--checkpoint", str(checkpoint), "--index", str(index_dir),
        ]
        assert main(base) == 0
        with pytest.raises(FileExistsError):
            main(base)
        assert main(base + ["--force"]) == 0


class TestCrossModalCommands:
    @pytest.fixture()
    def checkpoint(self, tmp_path, small_model):
        path = tmp_path / "model.npz"
        small_model.save(path)
        return path

    def test_synthetic_build_then_query_every_direction(self, tmp_path, checkpoint, capsys):
        index_dir = tmp_path / "mm-index"
        assert main([
            "index", "build", "--synthetic", "1",
            "--checkpoint", str(checkpoint), "--index", str(index_dir), "--force",
        ]) == 0
        build_out = capsys.readouterr().out
        assert "cross-modal index" in build_out
        for kind in ("circuit=", "cone=", "rtl=", "layout="):
            assert kind in build_out

        # An RTL snippet retrieves netlist cones...
        from repro.rtl import make_controller, render_register_cone

        module = make_controller("probe", seed=77, num_states=4, data_width=4)
        rtl_path = tmp_path / "probe.rtl"
        rtl_path.write_text(render_register_cone(module, module.registers[0].name))
        assert main([
            "index", "query", str(rtl_path), "--from", "rtl", "--to", "cone",
            "--checkpoint", str(checkpoint), "--index", str(index_dir), "-k", "3",
        ]) == 0
        rtl_out = capsys.readouterr().out
        assert "top-3 cone entries (from rtl)" in rtl_out
        assert rtl_out.count("+0.") + rtl_out.count("-0.") + rtl_out.count("+1.") >= 3

        # ...and a netlist's layout retrieves the RTL namespace.
        netlist = synthesize(module).netlist
        netlist_path = tmp_path / "probe.v"
        write_verilog(netlist, path=netlist_path)
        assert main([
            "index", "query", str(netlist_path), "--from", "layout", "--to", "rtl",
            "--checkpoint", str(checkpoint), "--index", str(index_dir), "-k", "2",
        ]) == 0
        assert "rtl entries (from layout)" in capsys.readouterr().out

        assert main(["index", "stats", "--index", str(index_dir)]) == 0
        stats_out = capsys.readouterr().out
        assert "kind rtl" in stats_out and "kind layout" in stats_out

    def test_directory_build_supports_layout_but_not_rtl(self, tmp_path, checkpoint, capsys):
        from repro.rtl import make_controller

        directory = tmp_path / "corpus"
        directory.mkdir()
        netlist = synthesize(make_controller("delta", seed=31, num_states=3)).netlist
        write_verilog(netlist, path=directory / "delta.v")

        # rtl rows need RTL sources the .v corpus cannot provide.
        assert main([
            "index", "build", str(directory), "--modalities", "cone,rtl",
            "--checkpoint", str(checkpoint), "--index", str(tmp_path / "idx-a"),
        ]) == 2
        assert "rtl rows need RTL sources" in capsys.readouterr().err

        # layout rows are derived from the netlists themselves.
        index_dir = tmp_path / "idx-b"
        assert main([
            "index", "build", str(directory), "--modalities", "circuit,cone,layout",
            "--checkpoint", str(checkpoint), "--index", str(index_dir),
        ]) == 0
        assert "layout=" in capsys.readouterr().out
        assert main([
            "index", "query", str(directory / "delta.v"), "--from", "cone", "--to", "layout",
            "--checkpoint", str(checkpoint), "--index", str(index_dir), "-k", "2",
        ]) == 0
        assert "layout entries (from cone)" in capsys.readouterr().out

        # An rtl query against this rtl-less sidecar fails with a friendly
        # message instead of a traceback from inside the scheduler.
        rtl_path = tmp_path / "probe.rtl"
        rtl_path.write_text("assign x = a & b;")
        assert main([
            "index", "query", str(rtl_path), "--from", "rtl",
            "--checkpoint", str(checkpoint), "--index", str(index_dir),
        ]) == 2
        assert "built without the 'rtl' modality" in capsys.readouterr().err

        # A directory corpus plus --synthetic is ambiguous and refused.
        assert main([
            "index", "build", str(directory), "--synthetic", "1",
            "--checkpoint", str(checkpoint), "--index", str(tmp_path / "idx-c"),
        ]) == 2
        assert "not both" in capsys.readouterr().err

    def test_unknown_modality_fails(self, tmp_path, checkpoint, capsys):
        assert main([
            "index", "build", "--synthetic", "1", "--modalities", "cone,hologram",
            "--checkpoint", str(checkpoint), "--index", str(tmp_path / "idx"),
        ]) == 2
        assert "unknown modalities" in capsys.readouterr().err

    def test_cross_modal_query_without_sidecar_fails(self, tmp_path, checkpoint, capsys):
        from repro.rtl import make_controller

        directory = tmp_path / "corpus"
        directory.mkdir()
        netlist = synthesize(make_controller("plain", seed=41, num_states=3)).netlist
        write_verilog(netlist, path=directory / "plain.v")
        index_dir = tmp_path / "plain-idx"
        assert main([
            "index", "build", str(directory),
            "--checkpoint", str(checkpoint), "--index", str(index_dir),
        ]) == 0
        capsys.readouterr()
        rtl_path = tmp_path / "q.rtl"
        rtl_path.write_text("assign x = a & b;")
        assert main([
            "index", "query", str(rtl_path), "--from", "rtl",
            "--checkpoint", str(checkpoint), "--index", str(index_dir),
        ]) == 2
        assert "no multimodal sidecar" in capsys.readouterr().err

    def test_build_without_corpus_source_fails(self, tmp_path, checkpoint, capsys):
        assert main([
            "index", "build",
            "--checkpoint", str(checkpoint), "--index", str(tmp_path / "idx"),
        ]) == 2
        assert "netlist directory" in capsys.readouterr().err


class TestIndexReplicaCommands:
    """`index fit-hnsw` and `index serve` run without a model checkpoint."""

    @pytest.fixture()
    def built_index(self, tmp_path):
        from repro.serve import EmbeddingIndex

        directory = tmp_path / "ix"
        rng = np.random.default_rng(0)
        index = EmbeddingIndex.create(directory, dim=12, shard_size=16)
        kinds = ["cone" if i % 2 else "circuit" for i in range(48)]
        index.add([f"row{i:03d}" for i in range(48)],
                  rng.normal(size=(48, 12)), kinds=kinds)
        index.save()
        return directory

    def test_fit_hnsw_writes_loadable_sidecar(self, built_index, capsys):
        from repro.serve import HNSWSearcher, hnsw_sidecar_path

        assert main([
            "index", "fit-hnsw", "--index", str(built_index),
            "--kind", "cone", "--M", "8",
            "--ef-construction", "32", "--ef-search", "24",
        ]) == 0
        output = capsys.readouterr().out
        sidecar = hnsw_sidecar_path(built_index, "cone")
        assert sidecar.exists()
        assert str(sidecar) in output
        loaded = HNSWSearcher.load(sidecar)
        assert loaded.structure_digest() in output
        assert loaded.kind == "cone"

    def test_serve_probes_round_robin_and_reports_stats(self, built_index, capsys):
        assert main([
            "index", "serve", "--index", str(built_index),
            "--replicas", "2", "--probe", "2", "-k", "3",
        ]) == 0
        output = capsys.readouterr().out
        assert "replica 0: generation" in output
        assert "replica 1: generation" in output
        assert "served 2 probes across 2 replica processes" in output

    def test_serve_rejects_empty_index(self, tmp_path, capsys):
        from repro.serve import EmbeddingIndex

        directory = tmp_path / "empty"
        EmbeddingIndex.create(directory, dim=8).save()
        assert main(["index", "serve", "--index", str(directory)]) == 2
        assert "no live rows" in capsys.readouterr().err
