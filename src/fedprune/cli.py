"""Command-line entry point.

    fedprune run --config exp.cfg --out results/
    fedprune validate --config exp.cfg
"""

from __future__ import annotations

import argparse
import sys

from . import config as config_mod
from . import report
from .federation import ExperimentAborted, ExperimentConfig, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fedprune")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write reports")
    run.add_argument("--config", required=True, help="experiment config file")
    run.add_argument("--out", default="results", help="output directory")
    run.add_argument("--mode", choices=["admm", "masked", "dense"])
    run.add_argument("--seed", type=int)
    run.add_argument("--rounds", type=int, help="override the pruning round budget")
    run.add_argument("--clients", type=int, help="override num_clients")
    run.add_argument("--clients-per-round", type=int)
    run.add_argument("--data-dir", help="dataset directory (or $ESMFL_DATA_DIR)")
    run.add_argument("--quiet", action="store_true")

    val = sub.add_parser("validate", help="check a config without running")
    val.add_argument("--config", required=True)
    return p


def _load(args) -> ExperimentConfig:
    overrides = dict(mode=args.mode, seed=args.seed, pruning_rounds=args.rounds,
                     num_clients=args.clients, clients_per_round=args.clients_per_round,
                     data_dir=args.data_dir) if args.command == "run" else {}
    return config_mod.load_config(args.config, **overrides)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        notes = config_mod.validate_config(cfg)
    except (config_mod.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        for note in notes:
            print(note)
        print("config ok")
        return 0

    def progress(m):
        if not args.quiet:
            print(f"round {m.round_index:3d} [{m.phase:15s}] "
                  f"acc={m.accuracy:.4f} keep={m.keep_fraction:.4f} "
                  f"up={m.bytes_up}B total={m.total_s:.2f}s")

    try:
        result = run_experiment(cfg, progress=progress)
    except ExperimentAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.partial.metrics:
            paths = report.write_report(exc.partial, args.out, partial=True)
            print(f"partial metrics flushed to {paths['rounds']}", file=sys.stderr)
        return 1

    paths = report.write_report(result, args.out)
    print(open(paths["summary"]).read(), end="")
    print(f"report written to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
