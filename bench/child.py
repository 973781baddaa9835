"""One fresh process of a benchmark repetition.

    child.py cli --trace FILE -- <sfvda arguments>
        Run one ``sfvda`` command traced. Untraced repetitions call
        ``python -m sfvda`` directly.
    child.py adapt_unlabeled --seed N [--trace FILE] [--setup-only [--save DIR]] [--load DIR]
        Do the workload's set-up, time its work, check the outputs and
        print one JSON line as the last line of standard output. Its
        ``digest`` hashes the adapted parameters. ``--save`` keeps the
        set-up's outputs; ``--load`` starts from them.

Timestamps are ``time.monotonic()``, which the parent process shares, so
the parent measures set-up from the moment it spawned this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import replace

import tracer


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _start_trace(trace_path):
    if not trace_path:
        return None
    recorder = tracer.Tracer()
    tracer.install(recorder)
    return recorder


def run_cli(trace_path, argv) -> int:
    recorder = _start_trace(trace_path)
    from sfvda import cli

    try:
        return cli.main(argv)
    finally:
        recorder.dump(trace_path)


def adapt_unlabeled(seed: int, trace_path, setup_only: bool, save_dir, load_dir) -> dict:
    """Deployed source-free adaptation: unlabeled target, no file I/O.

    Set-up generates the domains and trains the source model; with
    ``save_dir`` it then writes that model and the labeled target there.
    With ``load_dir``, set-up reads them back instead of making them."""
    from sfvda import RunConfig, evaluate, generate_domain_pair, train_source
    from sfvda import load_checkpoint, read_dataset, save_checkpoint, write_dataset

    cfg = RunConfig(
        classes=8,
        videos_per_class=40,
        frames=8,
        frame_dim=32,
        shift_severity=0.7,
        epochs_source=10,
        epochs_adapt=6,
        batch_size=16,
        variant="full",
        seed=seed,
    )
    if load_dir:
        source_model = load_checkpoint(os.path.join(load_dir, "source.json"))
        target = read_dataset(os.path.join(load_dir, "target.jsonl"))
    else:
        source, target = generate_domain_pair(cfg.domain_spec())
        source_model, _ = train_source(source, replace(cfg, batch_size=64))
    unlabeled = target.without_labels()
    if setup_only:
        t_start = time.monotonic()
        if save_dir:
            save_checkpoint(source_model, os.path.join(save_dir, "source.json"))
            write_dataset(target, os.path.join(save_dir, "target.jsonl"))
        return {"t_start": t_start}

    recorder = _start_trace(trace_path)
    from sfvda import pipeline

    t_start, cpu_start = time.monotonic(), _cpu_s()
    adapted, rows = pipeline.adapt_target(source_model, unlabeled, cfg)
    t_end, cpu_end = time.monotonic(), _cpu_s()
    if recorder:
        recorder.dump(trace_path)

    top1 = evaluate(adapted, target).accuracy
    source_top1 = evaluate(source_model, target).accuracy
    checks = {
        "epochs_run": len(rows) == cfg.epochs_adapt,
        "no_label_reads": all(row.accuracy is None for row in rows),
        "beats_source_only": top1 > source_top1,
    }
    digest = hashlib.sha256()
    for _, tensor in adapted.named_parameters():
        digest.update(tensor.data.tobytes())
    digest.update(adapted.bn_mean.tobytes() + adapted.bn_var.tobytes())
    return {
        "t_start": t_start,
        "t_end": t_end,
        "cpu_s": cpu_end - cpu_start,
        "top1": top1,
        "checks": checks,
        "digest": digest.hexdigest(),
        "detail": {"source_top1": source_top1},
    }


WORKLOADS = {"adapt_unlabeled": adapt_unlabeled}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "cli":
        parser = argparse.ArgumentParser(prog="child.py cli")
        parser.add_argument("--trace", required=True)
        parser.add_argument("rest", nargs=argparse.REMAINDER)
        args = parser.parse_args(argv[1:])
        rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest
        return run_cli(args.trace, rest)
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    parser.add_argument("--save", help="with --setup-only: write the set-up's outputs to this directory")
    parser.add_argument("--load", help="read the set-up's outputs from this directory instead of making them")
    args = parser.parse_args(argv)
    print(json.dumps(WORKLOADS[args.workload](args.seed, args.trace, args.setup_only, args.save, args.load)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
