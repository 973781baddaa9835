"""Every sfvda process runs BLAS on one thread unless its caller says
otherwise, and the thread count changes no output byte."""

import os
import subprocess
import sys

import pytest

from cli_runner import child_env, run_sfvda

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
UNSET = dict.fromkeys(THREAD_VARS)

# enough videos that the eval-pass GEMMs are large enough for OpenBLAS to
# split them over threads when it is allowed to
FLOW_CONFIG = (
    "classes = 3\n"
    "videos_per_class = 40\n"
    "frames = 4\n"
    "frame_dim = 8\n"
    "d_enc = 16\n"
    "d = 16\n"
    "d_b = 16\n"
    "epochs_source = 2\n"
    "epochs_adapt = 2\n"
    "batch_size = 20\n"
    "seed = 5\n"
)
FLOW_OUTPUTS = [
    "data/source.jsonl",
    "data/target.jsonl",
    "source.json",
    "source.json.metrics.csv",
    "adapted.json",
    "adapted.json.metrics.csv",
    "local.csv",
]


def thread_settings(env, code="import sfvda, os; print(*(os.environ[v] for v in %r))" % (THREAD_VARS,)):
    out = subprocess.run([sys.executable, "-c", code], env=child_env(env), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_import_sets_one_thread_by_default():
    assert thread_settings(UNSET) == ["1", "1"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_numpy_loaded_after_sfvda_starts_no_blas_thread():
    code = "import sfvda, numpy, os; print(len(os.listdir('/proc/self/task')))"
    assert thread_settings(UNSET, code) == ["1"]


def test_import_keeps_a_value_the_caller_set():
    assert thread_settings({**UNSET, "OPENBLAS_NUM_THREADS": "2"}) == ["2", "1"]


def run_flow(workdir, env):
    workdir.mkdir()
    (workdir / "flow.config").write_text(FLOW_CONFIG)
    for args in (
        ("gen-data", "--config", "flow.config", "--out", "data"),
        ("train-source", "--config", "flow.config", "--data", "data/source.jsonl", "--out", "source.json"),
        (
            "adapt", "--config", "flow.config", "--source-model", "source.json",
            "--target-data", "data/target.jsonl", "--variant", "full", "--out", "adapted.json",
        ),
        (
            "export-embeddings", "--model", "adapted.json", "--data", "data/target.jsonl",
            "--level", "local", "--out", "local.csv",
        ),
    ):
        out = run_sfvda(*args, cwd=workdir, env=env)
        assert out.returncode == 0, out.stderr
    return {name: (workdir / name).read_bytes() for name in FLOW_OUTPUTS}


def test_thread_count_changes_no_output_byte(tmp_path):
    one = run_flow(tmp_path / "default", UNSET)
    two = run_flow(tmp_path / "two", {**UNSET, "OPENBLAS_NUM_THREADS": "2"})
    for name in FLOW_OUTPUTS:
        assert one[name] == two[name], f"{name} differs between one and two BLAS threads"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_pytest_process_runs_numpy_on_one_thread():
    # tests/conftest.py sets the variables before any test module loads
    # numpy, so the in-process tests (the criterion-5 grid among them) do
    # not pay for a second BLAS thread spinning on small matrices
    import numpy as np

    np.ones((64, 64)) @ np.ones((64, 64))
    assert len(os.listdir("/proc/self/task")) == 1
