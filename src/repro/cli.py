"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``datasets``
    Print Table II (dataset statistics) at a chosen scale.
``fit``
    Train TGAE on a dataset (or an edge-list file) and save the generator;
    ``--resume`` continues a saved (format-v2) checkpoint bit-identically
    instead of starting over.
``update``
    Append new observed edges to a saved generator and warm-start training
    from its current weights/optimizer state (online ingestion).
``generate``
    Load a saved generator, sample a graph, write it as an edge list.
``evaluate``
    Compare an observed and a generated edge list on all metrics.
``table``
    Regenerate one of the paper's tables (4, 5, 6 or 7) on one dataset.
``sensitivity``
    Run a hyper-parameter sweep (Sec. V parameter-sensitivity experiment).
``stats``
    Print the full statistic report for one graph: Table III statistics on
    the final cumulative snapshot, the extended structural statistics, and
    the temporal signature.
``convert``
    Bin a continuous-time event stream (``src dst time`` with float times)
    into a ``T``-snapshot edge list, or smear a snapshot edge list back into
    an event stream.
``report``
    Full markdown evaluation report (statistics, extended, temporal,
    downstream utility) for an observed/generated edge-list pair.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench import (
    ablation_table,
    dataset_table,
    evaluation_report,
    format_table,
    format_value,
    motif_table,
    quality_table,
    render_report,
    render_sensitivity,
    sweep_parameter,
)
from .core import TGAEConfig, TGAEGenerator, fast_config, load_generator, save_generator
from .datasets import available_datasets, load_dataset
from .graph import (
    TemporalGraph,
    from_temporal_graph,
    load_edge_list,
    load_event_stream,
    save_edge_list,
    save_event_stream,
    snapshot_at,
)
from .metrics import (
    EXTENDED_STATISTIC_FUNCTIONS,
    compare_graphs,
    compute_all_statistics,
    motif_distribution,
    motif_mmd,
    temporal_signature,
)


def _load_graph(args: argparse.Namespace):
    if args.dataset:
        return load_dataset(args.dataset, scale=args.scale)
    if args.input:
        return load_edge_list(args.input)
    raise SystemExit("either --dataset or --input is required")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=available_datasets(), help="registry dataset")
    parser.add_argument("--scale", default="small", choices=["small", "medium", "paper"])
    parser.add_argument("--input", help="edge-list file (src dst t per line)")


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=int, default=120)
    parser.add_argument("--radius", type=int, default=2)
    parser.add_argument("--threshold", type=int, default=10)
    parser.add_argument("--initial-nodes", type=int, default=64)
    parser.add_argument("--learning-rate", type=float, default=1e-2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--candidate-limit",
        type=int,
        default=0,
        help="candidate-set size C for the streaming sampled-softmax engine "
        "(0 = exact dense decoder; positive values keep fit+generate at "
        "O(E + n*C) memory for large graphs)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count for sharded training and generation (1 = sequential; "
        "output is bit-identical for every worker count)",
    )
    parser.add_argument(
        "--train-shard-size",
        type=int,
        default=None,
        help="centre rows per data-parallel training shard (default: "
        "--initial-nodes / 4; the partitioning never depends on --workers, "
        "so training is bit-identical for every worker count)",
    )
    parser.add_argument(
        "--checkpoint-attention",
        action="store_true",
        help="activation checkpointing: recompute attention activations in "
        "backward, cutting training peak memory without changing the loss "
        "trajectory by a single bit",
    )
    parser.add_argument(
        "--no-embed-cache",
        dest="embed_cache",
        action="store_false",
        help="disable the versioned inference embedding cache (on by "
        "default: repeat generate/score calls against an unchanged model "
        "reuse cached encoder embeddings and run decode-only; outputs are "
        "bit-identical either way)",
    )
    parser.add_argument(
        "--dtype",
        default="float32",
        choices=["float32", "float64"],
        help="floating-point policy for parameters, activations and shm "
        "segments (float32 = fast production default; float64 = the "
        "bit-reproducible golden path)",
    )
    parser.add_argument(
        "--max-shard-retries",
        type=int,
        default=2,
        help="in-rung re-dispatches of a shard that failed transiently "
        "(OSError/pickling/worker crash) before the pool degrades one rung "
        "down the shm->thread->sequential ladder; retried shards "
        "are bit-identical (0 disables retries)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help="per-shard wall-clock budget in seconds; a straggler past it "
        "is re-dispatched (and, if it finishes anyway, bit-compared "
        "against its replacement). default: no timeout",
    )


def _config_from(args: argparse.Namespace) -> TGAEConfig:
    return fast_config(
        epochs=args.epochs,
        radius=args.radius,
        neighbor_threshold=args.threshold,
        num_initial_nodes=args.initial_nodes,
        learning_rate=args.learning_rate,
        seed=args.seed,
        candidate_limit=args.candidate_limit,
        workers=args.workers,
        train_shard_size=getattr(args, "train_shard_size", None),
        embed_cache=getattr(args, "embed_cache", True),
        checkpoint_attention=getattr(args, "checkpoint_attention", False),
        dtype=getattr(args, "dtype", "float32"),
        max_shard_retries=getattr(args, "max_shard_retries", 2),
        shard_timeout=getattr(args, "shard_timeout", None),
    )


def cmd_datasets(args: argparse.Namespace) -> int:
    table = dataset_table(available_datasets(), scale=args.scale)
    print(f"{'dataset':12s} {'nodes':>9s} {'edges':>9s} {'timestamps':>11s}")
    for name, stats in table.items():
        print(f"{name:12s} {stats['nodes']:9d} {stats['edges']:9d} {stats['timestamps']:11d}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    if args.resume:
        if args.dataset or args.input:
            raise SystemExit(
                "--resume continues training on the checkpoint's stored graph; "
                "use the `update` command to append new edges"
            )
        generator = load_generator(args.resume)
        completed = generator.train_state.epoch if generator.train_state else 0
        cold = " (weights-only checkpoint: cold optimizer)" if completed == 0 else ""
        print(
            f"resuming {args.resume}: observed {generator.observed}, "
            f"{completed} epochs completed{cold}"
        )
        generator.update(
            epochs=args.epochs,
            verbose=args.verbose,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.model if args.checkpoint_every else None,
        )
    else:
        graph = _load_graph(args)
        print(f"observed: {graph}")
        generator = TGAEGenerator(_config_from(args)).fit(
            graph,
            verbose=args.verbose,
            track_memory=args.verbose,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.model if args.checkpoint_every else None,
        )
    history = generator.history
    losses = history.losses
    print(f"trained {len(losses)} epochs: loss {losses[0]:.3f} -> {losses[-1]:.3f}")
    print(
        f"wall-clock {history.total_seconds:.2f}s "
        f"({history.total_seconds / len(losses):.2f}s/epoch)"
        + (
            f", peak traced memory {history.peak_memory / 1e6:.1f} MB"
            if history.peak_memory
            else ""
        )
    )
    save_generator(generator, args.model)
    print(f"saved model to {args.model}")
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    from .graph import load_edge_list as _load_raw

    generator = load_generator(args.model)
    observed = generator.observed
    print(f"loaded {args.model}: observed {observed}")
    new_edges = None
    if args.edges:
        # Raw ids: the file must address the checkpoint's node/timestamp
        # universe directly (no reindexing -- appends cannot renumber).
        batch = _load_raw(
            args.edges,
            num_nodes=observed.num_nodes,
            num_timestamps=observed.num_timestamps,
            reindex=False,
        )
        print(f"appending {batch.num_edges} edges from {args.edges}")
        new_edges = batch
    generator.update(new_edges, epochs=args.epochs, verbose=args.verbose)
    losses = generator.history.losses
    if losses:
        print(f"trained {len(losses)} epochs: loss {losses[0]:.3f} -> {losses[-1]:.3f}")
    output = args.output or args.model
    save_generator(generator, output)
    print(f"saved model to {output}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    import dataclasses

    generator = load_generator(args.model)
    if not getattr(args, "embed_cache", True):
        generator.config = dataclasses.replace(generator.config, embed_cache=False)
    # workers > 1 runs on a pool opened for this call from the config above.
    generated = generator.generate(seed=args.seed, workers=args.workers)
    save_edge_list(generated, args.output)
    print(f"wrote {generated} to {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    observed, generated = _load_pair(args)
    scores = compare_graphs(observed, generated, reduction=args.reduction)
    print(f"{'statistic':16s} {'score':>10s}")
    for metric, value in scores.items():
        print(f"{metric:16s} {format_value(value):>10s}")
    mmd = motif_mmd(
        motif_distribution(observed, args.delta),
        motif_distribution(generated, args.delta),
    )
    print(f"{'motif_mmd':16s} {format_value(mmd):>10s}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    config = _config_from(args)
    if args.number in (4, 5):
        reduction = "median" if args.number == 4 else "mean"
        table = quality_table(graph, reduction=reduction, tgae_config=config)
        print(format_table(table))
    elif args.number == 6:
        scores = motif_table(graph, delta=args.delta, tgae_config=config)
        for method, value in sorted(scores.items(), key=lambda kv: kv[1]):
            print(f"{method:10s} {format_value(value)}")
    elif args.number == 7:
        table = ablation_table(graph, config=config, delta=args.delta)
        print(format_table(table))
    else:
        raise SystemExit("table number must be 4, 5, 6, or 7")
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    config = _config_from(args)
    points = sweep_parameter(graph, config, args.parameter, args.values, seed=args.seed)
    print(render_sensitivity(points))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    final = snapshot_at(graph, graph.num_timestamps - 1)
    print(f"graph: n={graph.num_nodes} m={graph.num_edges} T={graph.num_timestamps}")
    print("\nTable III statistics (final cumulative snapshot)")
    for metric, value in compute_all_statistics(final).items():
        print(f"  {metric:20s} {format_value(value):>12s}")
    print("\nextended structural statistics")
    for metric, func in EXTENDED_STATISTIC_FUNCTIONS.items():
        print(f"  {metric:20s} {format_value(func(final)):>12s}")
    print("\ntemporal signature")
    for metric, value in temporal_signature(graph).items():
        print(f"  {metric:20s} {format_value(value):>12s}")
    return 0


def _load_pair(args: argparse.Namespace):
    """The observed file as ``fit`` reads it, and the generated file in its universe.

    The generated file is not reindexed: its timestamps already address the
    observed ``[0, T)``, so an empty timestamp stays empty instead of
    shifting every later one down.  Its node universe is the observed one,
    widened if the file names a higher id.
    """
    observed = load_edge_list(args.observed)
    generated = load_edge_list(
        args.generated, reindex=False, num_timestamps=observed.num_timestamps
    )
    if generated.num_nodes < observed.num_nodes:
        generated = TemporalGraph(
            observed.num_nodes, generated.src, generated.dst, generated.t,
            num_timestamps=observed.num_timestamps, validate=False,
        )
    return observed, generated


def cmd_report(args: argparse.Namespace) -> int:
    observed, generated = _load_pair(args)
    report = evaluation_report(
        observed,
        generated,
        delta=args.delta,
        include_utility=not args.fast,
        include_significance=not args.fast,
    )
    text = render_report(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    if args.to == "snapshots":
        stream = load_event_stream(args.input)
        graph = stream.to_temporal_graph(args.bins, policy=args.policy)
        save_edge_list(graph, args.output)
        print(f"wrote {graph} to {args.output}")
    else:
        graph = load_edge_list(args.input)
        stream = from_temporal_graph(
            graph, bin_width=args.bin_width, spread=args.spread, seed=args.seed
        )
        save_event_stream(stream, args.output)
        print(f"wrote {stream} to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TGAE temporal graph simulation (ICDE 2025 repro)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="print Table II dataset statistics")
    p.add_argument("--scale", default="small", choices=["small", "medium", "paper"])
    p.set_defaults(fn=cmd_datasets)

    p = sub.add_parser("fit", help="train TGAE and save the generator")
    _add_graph_source(p)
    _add_config(p)
    p.add_argument("--model", required=True, help="output .npz path")
    p.add_argument(
        "--resume",
        help="continue training from this saved checkpoint instead of "
        "starting over: runs --epochs more epochs on its stored graph, "
        "bit-identical to an uninterrupted run (format-v2 checkpoints; "
        "v1 resumes weights-only with a cold optimizer)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="crash-safe autosave cadence: atomically write the --model "
        "checkpoint every N completed epochs, so an interrupted fit can be "
        "continued bit-identically with --resume",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="print per-epoch loss/grad-norm/wall-clock/peak-memory lines",
    )
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser(
        "update",
        help="append new observed edges to a saved generator and warm-start "
        "training from its current weights/optimizer state",
    )
    p.add_argument("--model", required=True, help="input .npz checkpoint")
    p.add_argument(
        "--edges",
        help="edge-list file (raw `src dst t` in the checkpoint's id "
        "universe, no reindexing); omit for a pure training resume",
    )
    p.add_argument(
        "--epochs",
        type=int,
        default=None,
        help="warm-start epochs to run (default: the saved config's epochs)",
    )
    p.add_argument("--output", help="output .npz path (default: overwrite --model)")
    p.add_argument(
        "--verbose",
        action="store_true",
        help="print per-epoch loss/grad-norm/wall-clock lines",
    )
    p.set_defaults(fn=cmd_update)

    p = sub.add_parser("generate", help="sample a graph from a saved generator")
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True, help="output edge-list path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="override the saved config's worker count for this generation "
        "(output is bit-identical for every worker count)",
    )
    p.add_argument(
        "--no-embed-cache",
        dest="embed_cache",
        action="store_false",
        help="disable the versioned inference embedding cache for this "
        "generation (see `fit --no-embed-cache`)",
    )
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("evaluate", help="compare observed vs generated edge lists")
    p.add_argument("--observed", required=True)
    p.add_argument("--generated", required=True)
    p.add_argument("--reduction", default="mean", choices=["mean", "median"])
    p.add_argument("--delta", type=int, default=3)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("table", help="regenerate a paper table on one dataset")
    p.add_argument("number", type=int, choices=[4, 5, 6, 7])
    _add_graph_source(p)
    _add_config(p)
    p.add_argument("--delta", type=int, default=2)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("sensitivity", help="hyper-parameter sensitivity sweep")
    _add_graph_source(p)
    _add_config(p)
    p.add_argument("--parameter", default="num_initial_nodes")
    p.add_argument("--values", type=int, nargs="+", default=[16, 32, 64])
    p.set_defaults(fn=cmd_sensitivity)

    p = sub.add_parser("stats", help="print the full statistic report for one graph")
    _add_graph_source(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("report", help="full markdown evaluation report for a simulation")
    p.add_argument("--observed", required=True)
    p.add_argument("--generated", required=True)
    p.add_argument("--output", help="write markdown here instead of stdout")
    p.add_argument("--delta", type=int, default=2)
    p.add_argument("--fast", action="store_true",
                   help="skip the utility and significance sections")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("convert", help="convert between event streams and snapshots")
    p.add_argument("--to", required=True, choices=["snapshots", "events"])
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--bins", type=int, default=16, help="T for --to snapshots")
    p.add_argument(
        "--policy", default="equal_width", choices=["equal_width", "equal_frequency"]
    )
    p.add_argument("--bin-width", type=float, default=1.0, help="for --to events")
    p.add_argument("--spread", default="uniform", choices=["uniform", "start"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_convert)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
