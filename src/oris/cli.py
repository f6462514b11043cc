"""Command-line entry point: gen-synth | train-agent | run-al | aggregate."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import corpus
from .config import ConfigError, parse_config
from .dqn import train_agent, write_training_log
from .harness import aggregate_records, read_record, run_experiment, write_aggregate, write_record
from .nnet import load_checkpoint, save_checkpoint


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oris", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic corpus as loadable dataset files")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("train-agent", help="train the sampling agent and save a checkpoint",
                       description="Train the sampling agent with the first entry of seeds only.")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="training-log CSV (default: <out>.log.csv)")

    p = sub.add_parser("run-al", help="run the online active-learning experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--agent", default=None, help="override harness.agent from the config")
    p.add_argument("--checkpoint", default=None, help="trained net (required for --agent oris)")
    p.add_argument("--out", required=True, help="results CSV")

    p = sub.add_parser("aggregate", help="mean/std per interval over result CSVs")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    return parser


def _require(cfg, *keys):
    missing = [key for key in keys if cfg[key] is None]
    if missing:
        raise ValueError(f"config key(s) required for this command: {', '.join(missing)}")


def _cmd_gen_synth(args) -> int:
    cfg = parse_config(args.config)
    labels = cfg.label_space()
    train_counts = cfg["synth.train_per_class"]
    test_counts = cfg["synth.test_per_class"]
    if not train_counts or not test_counts:
        raise ValueError("gen-synth needs synth.train_per_class and synth.test_per_class")
    docs, splits = [], []  # every split is generated before any file is written
    for name, counts, seed in zip(("train.tsv", "test.tsv", "rl.tsv"),
                                  (train_counts, test_counts, cfg["synth.rl_per_class"]),
                                  np.random.SeedSequence(cfg["synth.seed"]).spawn(3)):
        if counts:  # rl.tsv is optional
            split = corpus.generate_synthetic(labels, counts, cfg["synth.dim"], cfg["synth.sep"],
                                              seed, start_id=len(docs))
            splits.append((name, split))
            docs += split

    os.makedirs(args.out_dir, exist_ok=True)
    for name, split in splits:
        corpus.write_synthetic_corpus(split, labels, os.path.join(args.out_dir, name))
    corpus.write_word_vectors(corpus.surrogate_table(docs),
                              os.path.join(args.out_dir, "vectors.vec"))
    print(f"wrote {', '.join(name for name, _ in splits)} and vectors.vec to {args.out_dir}")
    return 0


def _cmd_train_agent(args) -> int:
    cfg = parse_config(args.config)
    path_key = "data.rl_train" if cfg["data.rl_train"] is not None else "data.train"
    _require(cfg, path_key, "data.vectors")
    table = corpus.load_word_vectors(cfg["data.vectors"])
    docs = corpus.load_dataset(cfg[path_key], table, cfg.label_space())
    net, logs = train_agent(
        docs, cfg.label_space(), cfg.agent_config(),
        reward_cfg=cfg.reward_config(),
        k=cfg["encoder.k"], dt_scale=cfg["encoder.dt_scale"],
        seed=cfg.seeds[0],
    )
    save_checkpoint(net, args.out)
    log_path = args.log if args.log is not None else args.out + ".log.csv"
    write_training_log(logs, log_path)
    print(f"trained {len(logs)} episodes; checkpoint {args.out}, log {log_path}")
    return 0


def _cmd_run_al(args) -> int:
    cfg = parse_config(args.config)
    harness_cfg = cfg.harness_config(agent=args.agent)
    net = None
    if harness_cfg.agent == "oris":
        if args.checkpoint is None:
            raise ValueError("--checkpoint is required for the oris agent")
        net = load_checkpoint(args.checkpoint)
    _require(cfg, "data.train", "data.test", "data.vectors")
    if os.path.samefile(cfg["data.train"], cfg["data.test"]):
        raise ValueError(f"data.test is data.train ({cfg['data.test']}): the classifier "
                         "would be scored on its own training stream")
    table = corpus.load_word_vectors(cfg["data.vectors"])
    train_docs = corpus.load_dataset(cfg["data.train"], table, cfg.label_space())
    test_docs = corpus.load_dataset(cfg["data.test"], table, cfg.label_space(),
                                    start_id=len(train_docs))
    record = run_experiment(train_docs, test_docs, harness_cfg, net=net)
    write_record(record, args.out)
    note = f" (partial runs: {sorted(record.partial_runs)})" if record.partial_runs else ""
    print(f"wrote {len(record.rows)} rows to {args.out}{note}")
    return 0


def _cmd_aggregate(args) -> int:
    records = [read_record(path) for path in args.inputs]
    write_aggregate(aggregate_records(records), args.out)
    print(f"aggregated {len(records)} record(s) into {args.out}")
    return 0


_COMMANDS = {
    "gen-synth": _cmd_gen_synth,
    "train-agent": _cmd_train_agent,
    "run-al": _cmd_run_al,
    "aggregate": _cmd_aggregate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
