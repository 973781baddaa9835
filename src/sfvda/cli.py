"""Command-line surface for reproducible experiments.

Every command exits 0 on success and prints one machine-parsable
``error: ...`` line to stderr otherwise. Config precedence is inline
``--set key=value`` overrides > ``--config`` file > defaults, and the
effective config is echoed next to every output. The environment counts only
through OPENBLAS_NUM_THREADS and OMP_NUM_THREADS, which default to 1 (one BLAS thread).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .config import RunConfig, apply_overrides, emit_config, load_config
from .data import generate_domain_pair, read_dataset, write_dataset
from .model import load_checkpoint, save_checkpoint
from .pipeline import (
    ablation_csv,
    adapt_target,
    check_compatible,
    evaluate,
    export_embeddings,
    run_ablation,
    train_source,
    write_metrics,
)

__all__ = ["main"]


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = load_config(args.config, base=cfg)
    overrides = {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    return apply_overrides(cfg, overrides)


def _echo_config(cfg: RunConfig, out_path: str, command: str) -> None:
    with open(out_path + ".config", "w") as fh:
        fh.write(f"# effective config for {command}\n")
        fh.write(emit_config(cfg))


def _read_labeled(path, command: str):
    ds = read_dataset(path)
    if ds.labels is None:
        raise ValueError(f"{path}: {command} needs a labeled dataset, and this one has no labels")
    return ds


def _read_model_and_data(model_path, data_path, labeled_for: str | None = None):
    """A command's checkpoint and dataset, checked against each other."""
    model = load_checkpoint(model_path)
    ds = read_dataset(data_path) if labeled_for is None else _read_labeled(data_path, labeled_for)
    check_compatible(model, ds, f"{model_path}, {data_path}: ")
    if not model.bn_initialized:
        raise ValueError(
            f"{model_path}: checkpoint: field 'batch_norm.initialized': must be true, got false "
            "(an untrained model has no running statistics)"
        )
    return model, ds


def _cmd_gen_data(args) -> None:
    cfg = _build_config(args)
    os.makedirs(args.out, exist_ok=True)
    source, target = generate_domain_pair(cfg.domain_spec())
    write_dataset(source, os.path.join(args.out, "source.jsonl"))
    write_dataset(target, os.path.join(args.out, "target.jsonl"))
    with open(os.path.join(args.out, "gen-data.config"), "w") as fh:
        fh.write(emit_config(cfg))
    print(f"wrote {len(source)} source and {len(target)} target videos to {args.out}")


def _cmd_train_source(args) -> None:
    cfg = _build_config(args)
    source = _read_labeled(args.data, "train-source")
    model, rows = train_source(source, cfg)
    save_checkpoint(model, args.out)
    write_metrics(rows, args.out + ".metrics.csv")
    _echo_config(cfg, args.out, "train-source")
    best = max(row.accuracy for row in rows)
    print(f"trained {cfg.epochs_source} epochs; best source accuracy {best:.4f}")


def _cmd_adapt(args) -> None:
    cfg = _build_config(args)
    if args.variant:
        cfg = apply_overrides(cfg, {"variant": args.variant})
    model, target = _read_model_and_data(args.source_model, args.target_data)
    adapted, rows = adapt_target(model, target, cfg)
    save_checkpoint(adapted, args.out)
    write_metrics(rows, args.out + ".metrics.csv")
    # adaptation took the model sizes from the source checkpoint
    _echo_config(replace(cfg, d_enc=model.d_enc, d=model.d, d_b=model.d_b, m_max=model.m_max), args.out, "adapt")
    print(f"adapted variant {cfg.variant} for {len(rows)} epochs")


def _cmd_eval(args) -> None:
    model, ds = _read_model_and_data(args.model, args.data, labeled_for="eval")
    result = evaluate(model, ds)
    print(f"accuracy {result.accuracy!r}")
    for c in sorted(result.per_class):
        correct, count = result.per_class[c]
        rate = repr(correct / count) if count else ""
        print(f"class {c} accuracy {rate} ({correct}/{count})")


def _cmd_ablate(args) -> None:
    cfg = _build_config(args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"--seeds expects comma-separated integers, got {args.seeds!r}") from None
    if not variants or not seeds:
        raise ValueError("ablate: need at least one variant and one seed")
    results = run_ablation(cfg, variants, seeds)
    csv_text = ablation_csv(results, seeds)
    with open(args.out, "w") as fh:
        fh.write(csv_text)
    _echo_config(cfg, args.out, "ablate")
    print(csv_text, end="")


def _cmd_export_embeddings(args) -> None:
    model, ds = _read_model_and_data(args.model, args.data)
    export_embeddings(model, ds, args.level, args.out)
    print(f"wrote {args.level} embeddings to {args.out}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sfvda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="inline config override")

    p = sub.add_parser("gen-data", help="generate a synthetic source/target domain pair")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train-source", help="train the source model")
    common(p)
    p.add_argument("--data", required=True, help="labeled source dataset file")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(fn=_cmd_train_source)

    p = sub.add_parser("adapt", help="source-free adaptation to a target dataset")
    common(p)
    p.add_argument("--source-model", required=True, help="source checkpoint")
    p.add_argument("--target-data", required=True, help="target dataset file")
    p.add_argument("--variant", help="adaptation variant")
    p.add_argument("--out", required=True, help="adapted checkpoint path")
    p.set_defaults(fn=_cmd_adapt)

    p = sub.add_parser("eval", help="top-1 accuracy of a checkpoint on a labeled dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("ablate", help="run a variant x seed grid and write a CSV table")
    common(p)
    p.add_argument("--variants", required=True, help="comma-separated variant list")
    p.add_argument("--seeds", required=True, help="comma-separated seed list")
    p.add_argument("--out", required=True, help="results CSV path")
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("export-embeddings", help="export eval-mode features to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--level", required=True, choices=("local", "overall"))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_embeddings)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # every op checks its own output for finiteness, so numpy's warnings
        # would only print a second report ahead of the error line
        with np.errstate(all="ignore"):
            args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
