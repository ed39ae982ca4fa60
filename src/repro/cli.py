"""Command-line interface for the NetTAG reproduction.

Three subcommands cover the typical workflow of a downstream user:

``pretrain``
    Pre-train a NetTAG foundation model on the synthetic corpus and save the
    checkpoint (weights + configuration) to a ``.npz`` file.  Pre-training is
    resumable: ``--checkpoint-every N`` snapshots the full training state
    every N optimiser steps, ``--resume`` continues an interrupted run
    bit-identically, and ``--cache-dir`` caches preprocessing artefacts so
    reruns skip straight to training.

``embed``
    Load a checkpoint, read one structural Verilog netlist (or, with
    ``--batch``, a whole directory of them) and write gate / cone / circuit
    embeddings to ``.npz`` files.  Batch mode packs every netlist through one
    shared batched encoding pass.

``stats``
    Print the Table-II style dataset statistics of the synthetic corpora
    (useful as a fast smoke test of the EDA substrates).

``index``
    Maintain and query a persistent embedding index (``repro.serve``):
    ``index build`` embeds a directory of netlists into a fresh sharded
    index (``--modalities`` adds cross-modal ``rtl``/``layout`` rows, and
    ``--synthetic N`` builds the corpus from the RTL generators so the RTL
    side exists), ``index add`` appends to an existing one, ``index query``
    retrieves the top-k nearest entries for a query in any modality
    (``--from rtl --to cone`` finds the register cones implementing an RTL
    snippet; ``--searcher exact|hnsw`` picks the retrieval algorithm),
    ``index compact`` rewrites live rows into dense shards,
    ``index stats`` prints occupancy and provenance, ``index fit-hnsw``
    persists an HNSW graph sidecar that read replicas load instead of
    refitting, and ``index serve --replicas N`` probe-serves the index from
    N read-only replica processes over the shared mmap'd shards.

Run ``python -m repro --help`` for details.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import nn


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NetTAG reproduction: netlist foundation model via text-attributed graphs.",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(nn.available_backends()),
        default=None,
        help="numeric kernel backend for the whole command (default: the "
        "REPRO_BACKEND environment variable, else 'reference'; 'fast' "
        "selects the float32 fused kernels)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    pretrain = subparsers.add_parser("pretrain", help="pre-train NetTAG and save a checkpoint")
    pretrain.add_argument("--output", type=Path, default=Path("nettag.npz"),
                          help="checkpoint path (default: nettag.npz)")
    pretrain.add_argument("--preset", choices=("fast", "paper"), default="fast",
                          help="configuration preset (default: fast)")
    pretrain.add_argument("--model-size", choices=("small", "medium", "large"), default=None,
                          help="override the ExprLLM backbone preset")
    pretrain.add_argument("--designs-per-suite", type=int, default=1,
                          help="pre-training designs per benchmark suite (default: 1)")
    pretrain.add_argument("--seed", type=int, default=0)
    pretrain.add_argument("--cache-dir", type=Path, default=None,
                          help="cache preprocessing artefacts here; a warm cache skips "
                               "completed stages on reruns")
    pretrain.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                          help="snapshot the full training state every N optimiser steps")
    pretrain.add_argument("--resume", action="store_true",
                          help="resume an interrupted run from its training checkpoints")

    embed = subparsers.add_parser("embed", help="embed structural Verilog netlists")
    embed.add_argument("netlist", type=Path,
                       help="structural Verilog file (or a directory with --batch)")
    embed.add_argument("--checkpoint", type=Path, required=True, help="NetTAG checkpoint (.npz)")
    embed.add_argument("--output", type=Path, default=None,
                       help="output .npz path (default: <netlist>.embeddings.npz); "
                            "with --batch, an output directory")
    embed.add_argument("--batch", action="store_true",
                       help="treat NETLIST as a directory of .v files and embed them all "
                            "through one batched encoding pass")

    stats = subparsers.add_parser("stats", help="print Table-II style corpus statistics")
    stats.add_argument("--designs-per-suite", type=int, default=1)
    stats.add_argument("--seed", type=int, default=0)

    index = subparsers.add_parser(
        "index", help="build / extend / query a persistent embedding index"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)

    def add_common(sub, checkpoint: bool = True):
        sub.add_argument("--index", type=Path, required=True, metavar="DIR",
                         help="embedding index directory")
        if checkpoint:
            sub.add_argument("--checkpoint", type=Path, required=True,
                             help="NetTAG checkpoint (.npz)")

    build = index_sub.add_parser(
        "build", help="embed a corpus (directory of .v files, or --synthetic) into a fresh index"
    )
    build.add_argument("netlists", type=Path, nargs="?", default=None,
                       help="directory of structural Verilog files (omit with --synthetic)")
    add_common(build)
    build.add_argument("--shard-size", type=int, default=1024,
                       help="rows per on-disk shard (default: 1024)")
    build.add_argument("--force", action="store_true",
                       help="overwrite an existing index at --index")
    build.add_argument("--modalities", type=str, default=None, metavar="KINDS",
                       help="comma list among circuit,cone,rtl,layout (or 'all') to build "
                            "a cross-modal index; rtl rows need --synthetic (RTL sources)")
    build.add_argument("--synthetic", type=int, default=None, metavar="N",
                       help="build the corpus from the synthetic RTL generators "
                            "(N designs per suite) instead of a netlist directory")

    add = index_sub.add_parser("add", help="append netlists to an existing index")
    add.add_argument("netlists", type=Path, help="a .v file or a directory of .v files")
    add_common(add)

    query = index_sub.add_parser(
        "query", help="embed one query (netlist or RTL text) and retrieve its nearest entries"
    )
    query.add_argument("netlist", type=Path,
                       help="structural Verilog file (an RTL text file with --from rtl)")
    add_common(query)
    query.add_argument("-k", type=int, default=5, help="results per query (default: 5)")
    query.add_argument("--from", dest="from_kind", default=None,
                       choices=("circuit", "netlist", "cone", "rtl", "layout"),
                       help="query modality ('netlist' is an alias for 'circuit'; "
                            "default: circuit; rtl/layout need a cross-modal index)")
    query.add_argument("--to", dest="to_kind", default=None,
                       choices=("circuit", "netlist", "cone", "rtl", "layout"),
                       help="target namespace to retrieve from (default: the query "
                            "modality for circuit/cone, cone for rtl/layout)")
    query.add_argument("--cones", action="store_true",
                       help="shorthand for --from cone --to cone")
    query.add_argument("--searcher", default="exact", choices=("exact", "hnsw"),
                       help="retrieval algorithm: exact brute-force scan (default) "
                            "or an HNSW proximity graph")

    compact = index_sub.add_parser(
        "compact", help="rewrite live rows into dense shards and drop tombstones"
    )
    add_common(compact, checkpoint=False)

    istats = index_sub.add_parser("stats", help="print index occupancy and provenance")
    add_common(istats, checkpoint=False)

    fit_hnsw = index_sub.add_parser(
        "fit-hnsw",
        help="fit an HNSW graph over an existing index and persist it as a "
             "sidecar file replicas load instead of refitting",
    )
    add_common(fit_hnsw, checkpoint=False)
    fit_hnsw.add_argument("--kind", default=None,
                          help="restrict the graph to one row namespace "
                               "(default: all rows)")
    fit_hnsw.add_argument("--M", type=int, default=16, dest="M",
                          help="max links per node per layer (default: 16)")
    fit_hnsw.add_argument("--ef-construction", type=int, default=80,
                          help="beam width while building (default: 80)")
    fit_hnsw.add_argument("--ef-search", type=int, default=64,
                          help="default beam width at query time (default: 64)")
    fit_hnsw.add_argument("--seed", type=int, default=0,
                          help="level-assignment seed (default: 0)")

    serve = index_sub.add_parser(
        "serve",
        help="serve an index read-only from N replica processes over the "
             "shared mmap'd shards (smoke/probe runner)",
    )
    add_common(serve, checkpoint=False)
    serve.add_argument("--replicas", type=int, default=2,
                       help="number of read-replica processes (default: 2)")
    serve.add_argument("--searcher", default="exact",
                       choices=("exact", "hnsw"),
                       help="retrieval algorithm each probe uses (default: exact)")
    serve.add_argument("--kind", default=None,
                       help="restrict probes to one row namespace")
    serve.add_argument("--probe", type=int, default=4,
                       help="number of round-robin probe queries drawn from the "
                            "index's own rows (default: 4)")
    serve.add_argument("-k", type=int, default=5,
                       help="results per probe query (default: 5)")
    serve.add_argument("--poll-interval", type=float, default=0.25,
                       help="replica manifest poll interval in seconds "
                            "(default: 0.25)")

    return parser


def _run_pretrain(args: argparse.Namespace) -> int:
    from .core import NetTAGConfig, NetTAGPipeline

    factory = NetTAGConfig.fast if args.preset == "fast" else NetTAGConfig.paper
    overrides = {"seed": args.seed}
    if args.model_size:
        overrides["model_size"] = args.model_size
    config = factory(**overrides)
    checkpoint_dir = None
    if args.checkpoint_every or args.resume:
        # Training snapshots live in a sidecar directory next to the output
        # (or inside the cache directory when one is given).
        checkpoint_dir = (
            args.cache_dir / "checkpoints"
            if args.cache_dir is not None
            else args.output.with_suffix("").with_name(args.output.stem + ".train")
        )
    pipeline = NetTAGPipeline(config, cache_dir=args.cache_dir, checkpoint_dir=checkpoint_dir)
    try:
        summary = pipeline.pretrain(
            designs_per_suite=args.designs_per_suite,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
        )
    except KeyboardInterrupt:
        if checkpoint_dir is not None:
            print(f"\ninterrupted; rerun with --resume to continue from {checkpoint_dir}")
        else:
            print("\ninterrupted (no --checkpoint-every, nothing to resume from)")
        return 130
    for line in summary.stage_report():
        print(line)
    path = pipeline.save_model(args.output)
    print(f"pre-trained on {summary.num_designs} designs / {summary.num_cones} cones "
          f"/ {summary.num_expressions} expressions in {summary.total_seconds:.1f}s")
    print(f"checkpoint written to {path}")
    return 0


def _embedding_payload(embedding) -> dict:
    payload = {
        "graph_embedding": embedding.graph_embedding,
        "gate_embeddings": embedding.gate_embeddings,
        "gate_names": np.asarray(embedding.gate_names),
    }
    for register, vector in embedding.cone_embeddings.items():
        payload[f"cone::{register}"] = vector
    return payload


def _run_embed(args: argparse.Namespace) -> int:
    from .core import NetTAG
    from .netlist import read_verilog

    model = NetTAG.load(args.checkpoint)
    if args.batch:
        if not args.netlist.is_dir():
            print(f"--batch expects a directory, got {args.netlist}", file=sys.stderr)
            return 2
        paths = sorted(args.netlist.glob("*.v"))
        if not paths:
            print(f"no .v netlists found in {args.netlist}", file=sys.stderr)
            return 2
        netlists = [read_verilog(path) for path in paths]
        embeddings = model.encode_netlists(netlists)
        output_dir = args.output or args.netlist
        output_dir.mkdir(parents=True, exist_ok=True)
        for path, netlist, embedding in zip(paths, netlists, embeddings):
            output = output_dir / (path.stem + ".embeddings.npz")
            np.savez_compressed(output, **_embedding_payload(embedding))
            print(f"embedded {netlist.name}: {netlist.num_gates} gates, "
                  f"{len(embedding.cone_embeddings)} register cones -> {output}")
        print(f"embedded {len(netlists)} netlists in one batched pass")
        return 0

    netlist = read_verilog(args.netlist)
    embedding = model.embed_circuit(netlist)
    output = args.output or args.netlist.with_suffix(".embeddings.npz")
    np.savez_compressed(output, **_embedding_payload(embedding))
    print(f"embedded {netlist.name}: {netlist.num_gates} gates, "
          f"{len(embedding.cone_embeddings)} register cones, dim {embedding.dim}")
    print(f"embeddings written to {output}")
    return 0


def _netlist_paths(target: Path) -> list:
    if target.is_dir():
        return sorted(target.glob("*.v"))
    return [target]


def _run_index(args: argparse.Namespace) -> int:
    from .serve import EmbeddingIndex

    if args.index_command == "stats":
        index = EmbeddingIndex.open(args.index)
        stats = index.stats()
        print(f"embedding index at {args.index}")
        for field in ("entries", "rows", "shards", "tombstones", "dim", "metric",
                      "payload_bytes"):
            print(f"  {field:<14} {stats[field]}")
        for kind, count in sorted(stats["kinds"].items()):
            print(f"  kind {kind:<9} {count}")
        for name, value in sorted(stats["fingerprints"].items()):
            print(f"  fingerprint {name} = {value}")
        return 0

    if args.index_command == "compact":
        index = EmbeddingIndex.open(args.index)
        result = index.compact()
        print(f"compacted {args.index}: {result['rows_before']} rows -> "
              f"{result['rows_after']} ({result['tombstones_dropped']} tombstones dropped)")
        return 0

    if args.index_command == "fit-hnsw":
        return _run_index_fit_hnsw(args)

    if args.index_command == "serve":
        return _run_index_serve(args)

    from .core import NetTAG
    from .netlist import read_verilog
    from .serve import NetTAGService

    model = NetTAG.load(args.checkpoint)

    if args.index_command == "build":
        return _run_index_build(args, model)

    if args.index_command == "add":
        paths = [p for p in _netlist_paths(args.netlists) if p.exists()]
        if not paths:
            print(f"no .v netlists found at {args.netlists}", file=sys.stderr)
            return 2
        index = NetTAGService.open_index(model, args.index)
        with NetTAGService(model, index=index) as service:
            netlists = [read_verilog(path) for path in paths]
            added = service.add_netlists(netlists)
        print(f"indexed {added} embeddings from {len(netlists)} netlists -> {args.index} "
              f"({index.num_shards} shards, {len(index)} entries)")
        return 0

    return _run_index_query(args, model)


def _run_index_fit_hnsw(args: argparse.Namespace) -> int:
    # No model / checkpoint needed: the graph is built from the stored
    # vectors, so this runs on any machine that can read the index directory.
    from .serve import EmbeddingIndex, HNSWSearcher, hnsw_sidecar_path

    index = EmbeddingIndex.open(args.index)
    searcher = HNSWSearcher(
        M=args.M,
        ef_construction=args.ef_construction,
        ef_search=args.ef_search,
        seed=args.seed,
        kind=args.kind,
    )
    searcher.fit(index)
    path = searcher.save(hnsw_sidecar_path(args.index, args.kind))
    scope = args.kind or "all kinds"
    print(f"fitted HNSW graph over {args.index} ({scope}), "
          f"generation {index.generation}")
    print(f"  structure digest {searcher.structure_digest()}")
    print(f"  sidecar written to {path}")
    return 0


def _run_index_serve(args: argparse.Namespace) -> int:
    from .serve import EmbeddingIndex, ReplicaPool

    if args.replicas < 1:
        print("--replicas must be at least 1", file=sys.stderr)
        return 2

    # Probe queries come from the index's own live rows: every probe must
    # retrieve itself as the top hit, which makes this a self-checking
    # smoke test of the whole replica path.
    index = EmbeddingIndex.open(args.index)
    probes = []  # (key, kind, vector)
    for (keys, kinds, matrix, _), (_, _, live_rows) in zip(
        index.iter_segments(), index.search_metadata()
    ):
        for row in live_rows:
            if args.kind is not None and kinds[row] != args.kind:
                continue
            probes.append((keys[row], kinds[row], np.asarray(matrix[row])))
            if len(probes) >= args.probe:
                break
        if len(probes) >= args.probe:
            break
    if not probes:
        print(f"index at {args.index} has no live rows to probe", file=sys.stderr)
        return 2

    with ReplicaPool(
        args.index, num_replicas=args.replicas, poll_interval=args.poll_interval
    ) as pool:
        mismatches = 0
        for i, (key, kind, vector) in enumerate(probes):
            hits = pool.query(
                vector[None, :], k=args.k, kind=args.kind,
                algorithm=args.searcher, replica=i % args.replicas,
            )[0]
            top = hits[0].key if hits else None
            flag = "" if top == key else "  <-- expected top hit " + key
            print(f"probe {i} (replica {i % args.replicas}, {kind}):"
                  f" top-{args.k}{flag}")
            for hit in hits:
                print(f"  {hit.score:+.4f}  {hit.key}")
            if top != key:
                mismatches += 1
        for slot, stats in enumerate(pool.stats()):
            print(f"replica {slot}: generation {stats['generation']}, "
                  f"reopens {stats['reopens']}, "
                  f"hnsw loaded/synced/refit "
                  f"{stats['hnsw_loaded']}/{stats['hnsw_synced']}/{stats['hnsw_refits']}")
    if mismatches:
        print(f"{mismatches} probe(s) missed their own row", file=sys.stderr)
        return 1
    print(f"served {len(probes)} probes across {args.replicas} replica processes")
    return 0


def _parse_modalities(raw: Optional[str]):
    from .serve import MODALITY_KINDS

    if raw is None or raw == "all":
        return tuple(MODALITY_KINDS)
    modalities = tuple(part.strip() for part in raw.split(",") if part.strip())
    unknown = set(modalities) - set(MODALITY_KINDS)
    if unknown:
        raise ValueError(
            f"unknown modalities {sorted(unknown)}; choose from {MODALITY_KINDS}"
        )
    return modalities


def _run_index_build(args: argparse.Namespace, model) -> int:
    from .netlist import read_verilog
    from .serve import NetTAGService

    try:
        modalities = _parse_modalities(args.modalities) if args.modalities else None
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.synthetic is not None:
        if args.netlists is not None:
            print("index build takes a netlist directory OR --synthetic, not both "
                  "(the synthetic corpus would silently replace your directory)",
                  file=sys.stderr)
            return 2
        # Pipeline-built multimodal corpus: the RTL generators supply every
        # modality (RTL cone texts, synthesised netlists, cone layouts).
        from .core import NetTAGPipeline

        pipeline = NetTAGPipeline(model=model)
        pipeline.preprocess_corpus(designs_per_suite=args.synthetic)
        index, encoder = pipeline.build_multimodal_index(
            args.index,
            modalities=modalities,
            shard_size=args.shard_size,
            overwrite=args.force,
        )
        kinds = index.stats()["kinds"]
        print(f"built cross-modal index from {len(pipeline.designs)} synthetic designs "
              f"-> {args.index}")
        print("  kinds: " + ", ".join(f"{kind}={count}" for kind, count in sorted(kinds.items())))
        return 0

    if args.netlists is None:
        print("index build needs a netlist directory (or --synthetic N)", file=sys.stderr)
        return 2
    paths = [p for p in _netlist_paths(args.netlists) if p.exists()]
    if not paths:
        print(f"no .v netlists found at {args.netlists}", file=sys.stderr)
        return 2
    netlists = [read_verilog(path) for path in paths]

    if modalities is None:
        index = NetTAGService.create_index(
            model, args.index, shard_size=args.shard_size, overwrite=args.force
        )
        with NetTAGService(model, index=index) as service:
            added = service.add_netlists(netlists)
        print(f"indexed {added} embeddings from {len(netlists)} netlists -> {args.index} "
              f"({index.num_shards} shards, {len(index)} entries)")
        return 0

    from .serve import (
        LAYOUT_KIND,
        RTL_KIND,
        CrossModalEncoder,
        build_multimodal_index,
        items_from_netlists,
    )

    if RTL_KIND in modalities:
        print("rtl rows need RTL sources; use --synthetic N (the generators) or "
              "drop 'rtl' from --modalities for a .v-only corpus", file=sys.stderr)
        return 2
    layout_encoder = None
    if LAYOUT_KIND in modalities:
        import numpy as np

        from .encoders import LayoutEncoder

        layout_encoder = LayoutEncoder(rng=np.random.default_rng(model.config.seed))
    encoder = CrossModalEncoder(model, layout_encoder=layout_encoder)
    # The per-cone physical flow (place + optimise + parasitics) is the
    # expensive part of a layout build — skip it when layouts aren't wanted.
    items = items_from_netlists(netlists, build_layouts=LAYOUT_KIND in modalities)
    index = build_multimodal_index(
        encoder, args.index, netlists, items, modalities=modalities,
        shard_size=args.shard_size, overwrite=args.force,
    )
    kinds = index.stats()["kinds"]
    print(f"built cross-modal index from {len(netlists)} netlists -> {args.index}")
    print("  kinds: " + ", ".join(f"{kind}={count}" for kind, count in sorted(kinds.items())))
    return 0


def _run_index_query(args: argparse.Namespace, model) -> int:
    from .netlist import extract_register_cones, read_verilog
    from .serve import (
        CIRCUIT_KIND,
        CONE_KIND,
        LAYOUT_KIND,
        RTL_KIND,
        CrossModalEncoder,
        NetTAGService,
    )

    alias = {"netlist": CIRCUIT_KIND}
    from_kind = args.from_kind or (CONE_KIND if args.cones else CIRCUIT_KIND)
    from_kind = alias.get(from_kind, from_kind)
    default_to = {CIRCUIT_KIND: CIRCUIT_KIND, CONE_KIND: CONE_KIND,
                  RTL_KIND: CONE_KIND, LAYOUT_KIND: CONE_KIND}
    to_kind = alias.get(args.to_kind, args.to_kind) or default_to[from_kind]

    crossmodal = None
    if RTL_KIND in (from_kind, to_kind) or LAYOUT_KIND in (from_kind, to_kind):
        if not CrossModalEncoder.available(args.index):
            print(f"index at {args.index} has no multimodal sidecar; rebuild it with "
                  "--modalities (and --synthetic for rtl rows)", file=sys.stderr)
            return 2
        crossmodal = CrossModalEncoder.load(args.index, model)
        if from_kind in (RTL_KIND, LAYOUT_KIND) and not crossmodal.supports(from_kind):
            print(f"the index at {args.index} was built without the {from_kind!r} "
                  f"modality; rebuild with --modalities including {from_kind}",
                  file=sys.stderr)
            return 2

    # One (label, item) pair per query the modality implies for the input file.
    if from_kind == RTL_KIND:
        queries = [(args.netlist.name, args.netlist.read_text())]
    else:
        netlist = read_verilog(args.netlist)
        if from_kind == CIRCUIT_KIND:
            queries = [(netlist.name, netlist)]
        else:
            cones = extract_register_cones(netlist)
            if not cones:
                print(f"{netlist.name} has no register cones to query", file=sys.stderr)
                return 2
            if from_kind == CONE_KIND:
                queries = [(f"{netlist.name}::{c.register_name}", c) for c in cones]
            else:  # layout queries: one per register-cone layout
                from .physical import derive_layout_graph

                queries = [
                    (f"{netlist.name}::{cone.register_name}",
                     derive_layout_graph(cone.netlist))
                    for cone in cones
                ]

    index = NetTAGService.open_index(model, args.index)
    with NetTAGService(model, index=index, crossmodal=crossmodal) as service:
        futures = [
            service.submit_query(item, from_kind, to_kind=to_kind, k=args.k,
                                 algorithm=args.searcher)
            for _, item in queries
        ]
        for (label, _), future in zip(queries, futures):
            hits = future.result()
            print(f"{label}: top-{args.k} {to_kind} entries (from {from_kind})")
            for hit in hits:
                print(f"  {hit.score:+.4f}  {hit.key}")
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    from .bench.table2 import collect_suite_statistics
    from .netlist import aggregate_statistics

    rows = collect_suite_statistics(designs_per_suite=args.designs_per_suite, seed=args.seed)
    rows = list(rows) + [aggregate_statistics(rows)]
    header = f"{'Source':<12}{'# Expr':>8}{'Avg tokens':>12}{'# Cones':>9}{'Avg nodes':>11}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row.source:<12}{row.num_expressions:>8}{row.avg_expression_tokens:>12.1f}"
              f"{row.num_cones:>9}{row.avg_cone_nodes:>11.1f}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script."""
    args = _build_parser().parse_args(argv)
    if args.backend is not None:
        nn.set_backend(args.backend)
    handlers = {
        "pretrain": _run_pretrain,
        "embed": _run_embed,
        "stats": _run_stats,
        "index": _run_index,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
