"""The sfvda benchmark: two workloads, end-to-end metrics and layer traces.

    python3 bench/run.py --workload seed_cli --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Every repetition runs in fresh processes, one at a time, and the
reported metrics are medians over repetitions. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and prints per-function layer metrics. The last line of
standard output is one JSON object. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")

PROCESS_TIMEOUT_S = 150
# setup_s is a median of at least this many set-ups, covering this much time.
MIN_SETUP_SAMPLES = 3
MIN_SETUP_TOTAL_S = 3.0
MAX_SETUP_SAMPLES = 15

# Calibration data scale (README full-scale flow) with reduced epochs.
SEED_CLI_CONFIG = """\
classes = 8
videos_per_class = 200
frames = 5
frame_dim = 32
shift_severity = 0.7
epochs_source = 6
epochs_adapt = 3
seed = {seed}
"""
SEED_CLI_VIDEOS = 8 * 200
SEED_CLI_FRAMES = 5
SEED_CLI_SETUP = ["gen-data", "--config", "bench.config", "--out", "data"]
SEED_CLI_COMMANDS = [
    ["train-source", "--config", "bench.config", "--data", "{data}/source.jsonl", "--out", "source.json"],
    ["eval", "--model", "source.json", "--data", "{data}/target.jsonl"],
    [
        "adapt",
        "--config",
        "bench.config",
        "--source-model",
        "source.json",
        "--target-data",
        "{data}/target.jsonl",
        "--variant",
        "full",
        "--out",
        "adapted.json",
    ],
    ["eval", "--model", "adapted.json", "--data", "{data}/target.jsonl"],
    ["export-embeddings", "--model", "adapted.json", "--data", "{data}/target.jsonl", "--level", "local", "--out", "local.csv"],
]

EXPECTED_LAYERS = {
    "seed_cli": list(tracer.TARGETS),
    "adapt_unlabeled": ["data", "model", "tensor", "losses", "lwm", "pseudolabel", "pipeline"],
}
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "target_top1": "fraction"}
THREAD_VARIABLES = [
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "OMP_PROC_BIND",
    "OMP_WAIT_POLICY",
]


@dataclasses.dataclass
class Finished:
    """Outcome of one child process, with its own resource usage."""

    started: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def spawn(argv, cwd) -> Finished:
    """Run one child to completion; ``wait4`` gives that child's rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out_path, err_path = os.path.join(cwd, ".stdout"), os.path.join(cwd, ".stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return Finished(
        started, wall_s, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr
    )


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _accuracy(stdout: str) -> float | None:
    for line in stdout.splitlines():
        if line.startswith("accuracy "):
            return float(line.split()[1])
    return None


def seed_cli_rep(seed: int, rep_dir: str, trace_dir: str | None, setup_only: bool, data_dir: str | None) -> dict:
    """gen-data as set-up, then five ``sfvda`` processes timed in sequence.
    Given ``data_dir``, the timed commands read the dataset an earlier
    set-up wrote under it, and this repetition runs no set-up of its own."""
    with open(os.path.join(rep_dir, "bench.config"), "w") as fh:
        fh.write(SEED_CLI_CONFIG.format(seed=seed))

    def command(words, index):
        if trace_dir is None:
            return spawn([sys.executable, "-m", "sfvda", *words], rep_dir)
        trace_path = os.path.join(trace_dir, f"cmd{index}-{words[0]}.json")
        return spawn([sys.executable, CHILD, "cli", "--trace", trace_path, "--", *words], rep_dir)

    rep = {"checks": {}}
    if data_dir is None:
        setup = command(SEED_CLI_SETUP, 0)
        rep["setup_s"] = setup.wall_s
        rep["checks"]["setup_exit_0"] = setup.returncode == 0
        if setup.returncode != 0:
            rep["error"] = setup.stderr[-2000:]
            return rep
        rep["data_digest"] = _sha256(os.path.join(rep_dir, "data", "source.jsonl")) + _sha256(
            os.path.join(rep_dir, "data", "target.jsonl")
        )
        if setup_only:
            return rep
        data_dir = rep_dir
    data = os.path.join(os.path.relpath(data_dir, rep_dir), "data")
    done = []
    for index, template in enumerate(SEED_CLI_COMMANDS, start=1):
        words = [word.format(data=data) for word in template]
        finished = command(words, index)
        done.append(finished)
        if finished.returncode != 0:
            rep["error"] = f"{words[0]}: {finished.stderr[-2000:]}"
            break
    rep["checks"]["commands_exit_0"] = len(done) == len(SEED_CLI_COMMANDS) and all(f.returncode == 0 for f in done)
    rep["wall_parts_s"] = [f.wall_s for f in done]
    rep["cpu_parts_s"] = [f.cpu_s for f in done]
    rep["wall_s"] = sum(rep["wall_parts_s"])
    rep["cpu_s"] = sum(rep["cpu_parts_s"])
    rep["peak_rss_mb"] = max(f.peak_rss_mb for f in done)
    if not rep["checks"]["commands_exit_0"]:
        return rep
    source_top1, adapted_top1 = _accuracy(done[1].stdout), _accuracy(done[3].stdout)
    rep["target_top1"] = adapted_top1
    rep["source_top1"] = source_top1
    rep["checks"]["adapted_beats_source"] = (
        source_top1 is not None and adapted_top1 is not None and adapted_top1 > source_top1
    )
    with open(os.path.join(rep_dir, "local.csv")) as fh:
        rows = sum(1 for _ in fh) - 1
    rep["checks"]["export_rows_n_times_scales"] = rows == SEED_CLI_VIDEOS * (SEED_CLI_FRAMES - 1)
    rep["digest"] = _sha256(os.path.join(rep_dir, "adapted.json"))
    # A repetition with its own gen-data (traced runs) traces that too, so
    # its traced region is set-up plus timed run.
    rep["region_s"] = rep.get("setup_s", 0.0) + rep["wall_s"]
    return rep


def library_rep(
    workload: str, seed: int, rep_dir: str, trace_dir: str | None, setup_only: bool, data_dir: str | None
) -> dict:
    """One child process: set-up, timed library call, checks after timing.
    A set-up-only child saves its outputs in ``rep_dir``; given
    ``data_dir``, the child loads an earlier set-up's outputs from there."""
    argv = [sys.executable, CHILD, workload, "--seed", str(seed)]
    if trace_dir is not None:
        argv += ["--trace", os.path.join(trace_dir, f"{workload}.json")]
    if setup_only:
        argv += ["--setup-only", "--save", rep_dir]
    if data_dir is not None:
        argv += ["--load", data_dir]
    finished = spawn(argv, rep_dir)
    if finished.returncode != 0:
        return {"checks": {"exit_0": False}, "error": finished.stderr[-2000:]}
    report = json.loads(finished.stdout.strip().splitlines()[-1])
    rep = {"setup_s": report["t_start"] - finished.started, "checks": {"exit_0": True}}
    if setup_only:
        rep["data_digest"] = _sha256(os.path.join(rep_dir, "source.json")) + _sha256(os.path.join(rep_dir, "target.jsonl"))
        return rep
    rep.update(
        wall_s=report["t_end"] - report["t_start"],
        cpu_s=report["cpu_s"],
        wall_parts_s=[report["t_end"] - report["t_start"]],
        cpu_parts_s=[report["cpu_s"]],
        peak_rss_mb=finished.peak_rss_mb,
        target_top1=report["top1"],
        region_s=report["t_end"] - report["t_start"],
        digest=report["digest"],
        detail=report["detail"],
    )
    rep["checks"].update(report["checks"])
    return rep


def run_rep(
    workload: str,
    seed: int,
    work: str,
    number: int,
    trace_dir: str | None,
    setup_only: bool = False,
    data_dir: str | None = None,
    keep: bool = False,
) -> dict:
    """One repetition in its own directory, removed afterwards unless ``keep``."""
    rep_dir = os.path.join(work, f"rep{number}")
    os.makedirs(rep_dir)
    if trace_dir is not None:
        trace_dir = os.path.join(trace_dir, f"rep{number}")
        os.makedirs(trace_dir)
    try:
        run = seed_cli_rep if workload == "seed_cli" else functools.partial(library_rep, workload)
        rep = run(seed, rep_dir, trace_dir, setup_only, data_dir)
    finally:
        if not keep:
            shutil.rmtree(rep_dir, ignore_errors=True)
    rep.update(traced=trace_dir is not None, trace_dir=trace_dir, setup_only=setup_only, rep_dir=rep_dir)
    return rep


def blas_info() -> dict:
    """BLAS name, version and the thread count numpy's BLAS will use."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps") as fh:
        libraries = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
        if threads is not None:
            break
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: ") :]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        **blas_info(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "concurrent_processes": 1,
        "git_commit": git_commit(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "platform": platform.platform(),
    }


def _median(reps, key):
    values = [rep[key] for rep in reps if key in rep]
    return statistics.median(values) if values else None


def _sum_of_part_medians(reps, key):
    """Sum over the parts of a timed run (the processes of ``seed_cli``) of
    each part's median over repetitions. A slow spell of the machine that
    straddles two repetitions hits different parts of each, so it moves
    this less than it moves the median of whole repetitions."""
    parts = [rep[key] for rep in reps if key in rep]
    return sum(statistics.median(column) for column in zip(*parts)) if parts else None


def mark_failures(reps: list[dict]) -> None:
    """A repetition fails on any failed check, or when its output or
    generated dataset differs from the first repetition's: (config, seed)
    fixes every byte."""
    for key, check in (("digest", "same_output_as_first_rep"), ("data_digest", "same_data_as_first_rep")):
        digests = [rep[key] for rep in reps if key in rep]
        for rep in reps:
            if key in rep:
                rep["checks"][check] = rep[key] == digests[0]
    for rep in reps:
        timed = "setup_s" in rep if rep["setup_only"] else "wall_s" in rep
        rep["failed"] = not all(rep["checks"].values()) or not timed


def _is_count(name: str) -> bool:
    return name.endswith(".calls") or name == tracer.NODES


def layer_metrics(workload: str, traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Median layer metrics over traced reps, which counts repeat exactly,
    and which expected layers recorded no call."""
    summaries = []
    for rep in traced:
        paths = sorted(os.path.join(rep["trace_dir"], name) for name in os.listdir(rep["trace_dir"]))
        summaries.append(tracer.summarize(paths))
    metrics = {}
    inexact = []
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        if _is_count(key):
            metrics[key] = values[0]
            if any(v != values[0] for v in values):
                inexact.append(key)
        else:
            metrics[key] = statistics.median(values)
    traced_wall, untraced_wall = _median(traced, "region_s"), _median(untraced, "region_s")
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.counts_exact"] = 0 if inexact else 1
    silent = [
        layer
        for layer in EXPECTED_LAYERS[workload]
        if not any(metrics[f"{layer}.{path}.calls"] for path in tracer.TARGETS[layer])
    ]
    return metrics, inexact, silent


def unit_of(name: str) -> str:
    if _is_count(name):
        return "count"
    if name == "trace.counts_exact":
        return "flag"
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED_LAYERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sfvda", "cli.py")):
        print(f"error: no sfvda sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2

    env = environment()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    spans = os.path.join(OUT, f"spans-{args.workload}") if args.trace else None
    if spans:
        shutil.rmtree(spans, ignore_errors=True)
        os.makedirs(spans)
    os.makedirs(work)
    reps: list[dict] = []
    longest: dict[str, float] = {}
    deadline = time.monotonic() + args.seconds

    def step(kind, **options):
        """Run one repetition and remember the longest of its kind."""
        began = time.monotonic()
        traced = spans if kind == "traced pair" else None
        if traced:
            reps.append(run_rep(args.workload, args.seed, work, len(reps), None))
        reps.append(run_rep(args.workload, args.seed, work, len(reps), traced, **options))
        longest[kind] = max(longest.get(kind, 0.0), time.monotonic() - began)

    def fits(kind) -> bool:
        return time.monotonic() + longest.get(kind, 0.0) <= deadline

    def need_setup() -> bool:
        attempts = [rep for rep in reps if rep["setup_only"]]
        setups = [rep["setup_s"] for rep in attempts if "setup_s" in rep]
        return len(attempts) < MAX_SETUP_SAMPLES and (
            len(setups) < MIN_SETUP_SAMPLES or sum(setups) < MIN_SETUP_TOTAL_S
        )

    try:
        # Untimed: compiles bytecode and fills the file cache once.
        spawn([sys.executable, "-c", "import sfvda.cli"], work)
        if args.trace:
            # Untraced and traced repetitions alternate, at least two of
            # each, so both the overhead and the repeatability of counts show.
            while len(reps) < 4 or fits("traced pair"):
                step("traced pair")
        else:
            # The first set-up writes the inputs every timed repetition reads.
            step("setup", setup_only=True, keep=True)
            data_dir = reps[-1]["rep_dir"]
            set_up = all(reps[-1]["checks"].values())
            # Timed repetitions until the next would overrun --seconds, with
            # set-up-only processes between them until setup_s is the median
            # of several.
            while set_up and ("timed" not in longest or fits("timed")):
                step("timed", data_dir=data_dir)
                if need_setup() and fits("setup"):
                    step("setup", setup_only=True)
            while set_up and need_setup():
                step("setup", setup_only=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mark_failures(reps)
    timed = [rep for rep in reps if not rep["setup_only"] and not rep["failed"]]
    untraced = [rep for rep in timed if not rep["traced"]]
    traced = [rep for rep in timed if rep["traced"]]
    failed = sum(rep["failed"] for rep in reps)
    result = {"env": env, "args": vars(args), "reps": reps}

    if args.trace == 0:
        metrics = {name: _median(untraced, name) for name in END_TO_END_UNITS}
        metrics["wall_s"] = _sum_of_part_medians(untraced, "wall_parts_s")
        metrics["cpu_s"] = _sum_of_part_medians(untraced, "cpu_parts_s")
        metrics["setup_s"] = _median([rep for rep in reps if rep["setup_only"] and not rep["failed"]], "setup_s")
        units = END_TO_END_UNITS
    elif traced and untraced:
        metrics, inexact, silent = layer_metrics(args.workload, traced, untraced)
        result.update(inexact_counts=inexact, silent_layers=silent)
        if silent:
            failed += len(traced)
            print(f"error: expected layers recorded no calls: {', '.join(silent)}", file=sys.stderr)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics, units = {}, {}

    for rep in reps:
        if rep["failed"]:
            print(f"failed rep: checks {rep['checks']} {rep.get('error', '')}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {failed} of {len(reps)} runs failed ({failed / len(reps):.1%})")
    wall = metrics.get("trace.wall_s")
    for name, value in metrics.items():
        line = f"  {name:<48} {value!r:>24} {units[name]}"
        if args.trace and _is_count(name):
            line += "  exact" if name not in result.get("inexact_counts", []) else "  varies"
        if args.trace and wall and name.endswith(("self_s", "total_s")):
            line += f"  {100.0 * value / wall:5.1f}% of traced wall"
        print(line)
    result["metrics"] = metrics
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    correct = failed == 0 and bool(metrics) and all(v is not None for v in metrics.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(reps),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
