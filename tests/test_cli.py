import json
import pathlib

import pytest

from cli_runner import run_sfvda
from oracles import float64_base64

TINY = (
    "classes = 3\n"
    "videos_per_class = 6\n"
    "frames = 4\n"
    "frame_dim = 6\n"
    "noise_std = 0.05\n"
    "d_enc = 8\n"
    "d = 8\n"
    "d_b = 8\n"
    "epochs_source = 2\n"
    "epochs_adapt = 1\n"
    "batch_size = 6\n"
    "seed = 3\n"
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    (ws / "tiny.config").write_text(TINY)
    out = run_sfvda("gen-data", "--config", "tiny.config", "--out", "data", cwd=ws)
    assert out.returncode == 0, out.stderr
    out = run_sfvda(
        "train-source", "--config", "tiny.config", "--data", "data/source.jsonl",
        "--out", "source.ckpt.json", cwd=ws,
    )
    assert out.returncode == 0, out.stderr
    return ws


def test_gen_data_outputs(workspace):
    header = json.loads((workspace / "data" / "source.jsonl").read_text().splitlines()[0])
    assert header["count"] == 18
    assert (workspace / "data" / "gen-data.config").exists()


def test_eval_prints_accuracy(workspace):
    out = run_sfvda("eval", "--model", "source.ckpt.json", "--data", "data/source.jsonl", cwd=workspace)
    assert out.returncode == 0, out.stderr
    first = out.stdout.splitlines()[0]
    assert first.startswith("accuracy ")
    assert 0.0 <= float(first.split()[1]) <= 1.0


def test_adapt_source_only_equals_eval_of_source(workspace):
    out = run_sfvda(
        "adapt", "--config", "tiny.config", "--source-model", "source.ckpt.json",
        "--target-data", "data/target.jsonl", "--variant", "source_only",
        "--out", "noop.ckpt.json", cwd=workspace,
    )
    assert out.returncode == 0, out.stderr
    direct = run_sfvda("eval", "--model", "source.ckpt.json", "--data", "data/target.jsonl", cwd=workspace)
    via_adapt = run_sfvda("eval", "--model", "noop.ckpt.json", "--data", "data/target.jsonl", cwd=workspace)
    assert direct.stdout == via_adapt.stdout


def test_adapt_and_metrics(workspace):
    out = run_sfvda(
        "adapt", "--config", "tiny.config", "--source-model", "source.ckpt.json",
        "--target-data", "data/target.jsonl", "--variant", "fc",
        "--out", "adapted.ckpt.json", cwd=workspace,
    )
    assert out.returncode == 0, out.stderr
    lines = (workspace / "adapted.ckpt.json.metrics.csv").read_text().splitlines()
    assert lines[0].startswith("epoch,")
    assert len(lines) == 2
    assert (workspace / "adapted.ckpt.json.config").read_text().count("variant = fc") == 1


def test_adapt_echoes_the_model_sizes_it_used(workspace):
    # d_enc, d, d_b and m_max come from the source checkpoint, not the config
    out = run_sfvda(
        "adapt", "--config", "tiny.config", "--source-model", "source.ckpt.json",
        "--target-data", "data/target.jsonl", "--variant", "fc", "--set", "d=99", "--set", "m_max=1",
        "--out", "resized.ckpt.json", cwd=workspace,
    )
    assert out.returncode == 0, out.stderr
    echoed = (workspace / "resized.ckpt.json.config").read_text().splitlines()
    hyperparams = json.loads((workspace / "resized.ckpt.json").read_text())["hyperparams"]
    assert hyperparams["d"] == 8 and hyperparams["M_max"] == 3
    for line in ("d_enc = 8", "d = 8", "d_b = 8", "m_max = 3", "variant = fc"):
        assert line in echoed, line


def test_unknown_config_key_names_the_key(workspace):
    bad = workspace / "bad.config"
    bad.write_text(TINY + "betaa_fc = 1.0\n")
    out = run_sfvda("gen-data", "--config", "bad.config", "--out", "x", cwd=workspace)
    assert out.returncode != 0
    assert out.stderr.startswith("error:")
    assert "betaa_fc" in out.stderr
    assert len(out.stderr.strip().splitlines()) == 1


def test_bad_weight_fails_before_any_file_is_read(tmp_path, capsys):
    from sfvda import cli

    args = ["--source-model", "none.json", "--target-data", "none.jsonl", "--out", str(tmp_path / "z.json")]
    code = cli.main(["adapt", "--set", "lam=-1", *args])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and len(lines) == 1
    assert lines[0] == "error: config key 'lam': must be >= 0.0, got -1.0", lines


def test_batch_size_larger_than_dataset_is_one_error_line(workspace):
    out = run_sfvda(
        "train-source", "--config", "tiny.config", "--set", "batch_size=100",
        "--data", "data/source.jsonl", "--out", "never.json", cwd=workspace,
    )
    assert out.returncode == 1
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr
    assert "batch_size 100" in lines[0] and "18 videos" in lines[0]
    assert not (workspace / "never.json").exists()


def test_checkpoint_in_a_missing_directory_is_one_error_line_and_makes_none(workspace):
    # train-source writes its checkpoint before the metrics and the config
    # echo, so a missing --out directory fails there and nothing creates it
    out = run_sfvda(
        "train-source", "--config", "tiny.config", "--data", "data/source.jsonl",
        "--out", "missing/m.json", cwd=workspace,
    )
    assert out.returncode == 1
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr
    assert "missing/m.json" in lines[0]
    assert not (workspace / "missing").exists()


def test_unparsable_value_is_one_error_line_naming_the_key(workspace):
    out = run_sfvda(
        "gen-data", "--config", "tiny.config", "--set", "frames=abc", "--out", "never", cwd=workspace
    )
    assert out.returncode == 1
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr
    assert "'frames'" in lines[0] and "'abc'" in lines[0]
    assert not (workspace / "never").exists()


def test_ablate_bad_seed_names_the_flag(workspace):
    out = run_sfvda(
        "ablate", "--config", "tiny.config", "--variants", "full", "--seeds", "1,x",
        "--out", "never.csv", cwd=workspace,
    )
    assert out.returncode == 1
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr
    assert "--seeds" in lines[0]


@pytest.mark.parametrize(
    "command, error",
    [
        (["gen-data", "--config", "tiny.config", "--set", "seed=-1", "--out", "never"],
         "config key 'seed': must be >= 0, got -1"),
        (["gen-data", "--config", "negative-seed.config", "--out", "never"],
         "negative-seed.config: config key 'seed': must be >= 0, got -1"),
        (["ablate", "--config", "tiny.config", "--variants", "full", "--seeds", "1,-2", "--out", "never.csv"],
         "config key 'seed': must be >= 0, got -2"),
        (["ablate", "--config", "tiny.config", "--variants", "full", "--seeds", "1,2,1", "--out", "never.csv"],
         "seed 1 is listed twice"),
        (["ablate", "--config", "tiny.config", "--variants", "fc,full,fc", "--seeds", "1", "--out", "never.csv"],
         "variant 'fc' is listed twice"),
        # checked with the config, before the (here missing) dataset is opened
        (["train-source", "--config", "tiny.config", "--set", "batch_size=1", "--data", "none.jsonl", "--out", "never"],
         "config key 'batch_size': must be >= 2, got 1"),
        (["gen-data", "--config", "tiny.config", "--set", "batch_size=0", "--out", "never"],
         "config key 'batch_size': must be >= 2, got 0"),
        (["train-source", "--config", "tiny.config", "--set", "lr_source=-1", "--data", "none.jsonl", "--out", "never"],
         "config key 'lr_source': must be >= 0.0, got -1.0"),
    ],
    ids=[
        "gen-data-set", "gen-data-config", "ablate-negative", "ablate-repeated-seed", "ablate-repeated-variant",
        "train-source-batch-size", "gen-data-batch-size", "train-source-lr",
    ],
)
def test_bad_seed_or_repeat_is_one_error_line_before_any_training(workspace, monkeypatch, capsys, command, error):
    from sfvda import cli
    from sfvda import pipeline as P

    def no_training(*args, **kwargs):
        raise AssertionError("a source model was trained")

    (workspace / "negative-seed.config").write_text(TINY + "seed = -1\n")
    monkeypatch.setattr(P, "train_source", no_training)
    monkeypatch.chdir(workspace)
    code = cli.main(command)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [f"error: {error}"]
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (workspace / "never").exists() and not (workspace / "never.csv").exists()


def test_missing_file_errors(workspace):
    out = run_sfvda("eval", "--model", "nope.json", "--data", "data/source.jsonl", cwd=workspace)
    assert out.returncode != 0
    assert out.stderr.startswith("error:")


def test_dimension_mismatch_names_field(workspace):
    other = workspace / "other.config"
    other.write_text(TINY.replace("frame_dim = 6", "frame_dim = 7"))
    out = run_sfvda("gen-data", "--config", "other.config", "--out", "data7", cwd=workspace)
    assert out.returncode == 0, out.stderr
    out = run_sfvda("eval", "--model", "source.ckpt.json", "--data", "data7/source.jsonl", cwd=workspace)
    assert out.returncode != 0
    assert "d_in" in out.stderr


def test_set_overrides_config_file(workspace):
    out = run_sfvda(
        "gen-data", "--config", "tiny.config", "--set", "videos_per_class=4",
        "--out", "data4", cwd=workspace,
    )
    assert out.returncode == 0, out.stderr
    header = json.loads((workspace / "data4" / "source.jsonl").read_text().splitlines()[0])
    assert header["count"] == 12
    assert "videos_per_class = 4" in (workspace / "data4" / "gen-data.config").read_text()


def test_export_embeddings_cli(workspace):
    out = run_sfvda(
        "export-embeddings", "--model", "source.ckpt.json", "--data", "data/target.jsonl",
        "--level", "overall", "--out", "emb.csv", cwd=workspace,
    )
    assert out.returncode == 0, out.stderr
    lines = (workspace / "emb.csv").read_text().splitlines()
    assert len(lines) == 1 + 18


def test_ablate_cli(workspace):
    out = run_sfvda(
        "ablate", "--config", "tiny.config", "--variants", "source_only,fc",
        "--seeds", "3,4", "--out", "ablation.csv", cwd=workspace,
    )
    assert out.returncode == 0, out.stderr
    lines = (workspace / "ablation.csv").read_text().splitlines()
    assert lines[0] == "variant,seed3,seed4,mean"
    assert len(lines) == 3


def test_gen_data_deterministic_bytes(workspace):
    for name in ("rerun1", "rerun2"):
        out = run_sfvda("gen-data", "--config", "tiny.config", "--out", name, cwd=workspace)
        assert out.returncode == 0
    a = (workspace / "rerun1" / "target.jsonl").read_bytes()
    b = (workspace / "rerun2" / "target.jsonl").read_bytes()
    assert a == b


def test_malformed_checkpoint_is_one_error_line_naming_file_and_field(workspace):
    doc = json.loads((workspace / "source.ckpt.json").read_text())
    doc["parameters"]["enc_b1"] = float64_base64([0.0])
    (workspace / "bad.ckpt.json").write_text(json.dumps(doc))
    out = run_sfvda("eval", "--model", "bad.ckpt.json", "--data", "data/source.jsonl", cwd=workspace)
    assert out.returncode == 1
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr
    assert "bad.ckpt.json" in lines[0] and "'parameters.enc_b1'" in lines[0]
    assert out.stdout == ""


@pytest.mark.parametrize("field", ["aggregation"])
def test_unknown_checkpoint_string_is_one_error_line_naming_file_and_field(workspace, field):
    doc = json.loads((workspace / "source.ckpt.json").read_text())
    doc[field] = "bogus"
    (workspace / f"bad-{field}.ckpt.json").write_text(json.dumps(doc))
    out = run_sfvda("eval", "--model", f"bad-{field}.ckpt.json", "--data", "data/source.jsonl", cwd=workspace)
    assert out.returncode == 1
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr
    assert f"bad-{field}.ckpt.json" in lines[0] and f"'{field}'" in lines[0] and "'bogus'" in lines[0]
    assert out.stdout == ""


def test_format_1_checkpoint_is_one_error_line_naming_format_version(workspace):
    doc = json.loads((workspace / "source.ckpt.json").read_text())
    doc["format_version"] = 1
    (workspace / "format-1.ckpt.json").write_text(json.dumps(doc))
    out = run_sfvda("eval", "--model", "format-1.ckpt.json", "--data", "data/source.jsonl", cwd=workspace)
    assert out.returncode == 1
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr
    assert "format-1.ckpt.json" in lines[0] and "format_version 1" in lines[0]
    assert out.stdout == ""


@pytest.mark.parametrize(
    "key, value", [("literal_eq8", "true"), ("pc_overall_weighted", "false"), ("confidence_mode", "raw")]
)
def test_removed_config_key_is_one_error_line_naming_it(workspace, key, value):
    # keys that older configs may still carry: each must stop the command
    # with one line before any output is written
    (workspace / f"removed-{key}.config").write_text(TINY + f"{key} = {value}\n")
    for args in (("--config", f"removed-{key}.config"), ("--config", "tiny.config", "--set", f"{key}={value}")):
        out = run_sfvda("gen-data", *args, "--out", f"removed-{key}", cwd=workspace)
        assert out.returncode == 1
        lines = out.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr
        assert f"unknown config key '{key}'" in lines[0]
        assert not (workspace / f"removed-{key}").exists()


def test_checkpoint_with_raised_k_is_one_error_line_before_any_model_is_drawn(workspace, monkeypatch, capsys):
    # shapes only: the stored names and shapes are compared against the
    # hyperparams before anything is allocated, so an edited dimension
    # never reaches init_model (a large one would exhaust memory there)
    from sfvda import cli
    from sfvda import model as M

    doc = json.loads((workspace / "source.ckpt.json").read_text())
    doc["hyperparams"]["k"] += 1
    path = workspace / "raised-k.ckpt.json"
    path.write_text(json.dumps(doc))

    def no_draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a model")

    monkeypatch.setattr(M, "init_model", no_draw)
    code = cli.main(["eval", "--model", str(path), "--data", str(workspace / "data" / "source.jsonl")])
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "raised-k.ckpt.json" in lines[0] and f"'parameters.rel{doc['hyperparams']['k']}_w1'" in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize(
    "kind, command",
    [
        ("dataset", ["eval", "--model", "source.ckpt.json", "--data", "{bad}"]),
        ("checkpoint", ["eval", "--model", "{bad}", "--data", "data/source.jsonl"]),
        ("config", ["gen-data", "--config", "{bad}", "--out", "never"]),
    ],
)
def test_non_utf8_file_is_one_error_line_naming_file_and_offset(workspace, monkeypatch, capsys, kind, command):
    from sfvda import cli

    bad = workspace / f"latin1.{kind}"
    bad.write_bytes(b'{"format_version": 2}\n\xff\n')
    monkeypatch.chdir(workspace)
    code = cli.main([arg.format(bad=bad.name) for arg in command])
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0] == f"error: {bad.name}: line 2: byte 22 (0xff) is not UTF-8", captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (workspace / "never").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--model", "source.ckpt.json", "--data", "unlabeled.jsonl"],
        ["train-source", "--config", "tiny.config", "--data", "unlabeled.jsonl", "--out", "never.json"],
    ],
    ids=["eval", "train-source"],
)
def test_unlabeled_dataset_is_one_error_line_naming_the_file(workspace, monkeypatch, capsys, command):
    from sfvda import cli

    lines = (workspace / "data" / "target.jsonl").read_text().splitlines()
    records = [json.loads(line) | {"label": None} for line in lines[1:]]
    (workspace / "unlabeled.jsonl").write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")
    monkeypatch.chdir(workspace)
    code = cli.main(command)
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: unlabeled.jsonl: "), captured.err
    assert f"{command[0]} needs a labeled dataset" in lines[0]
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (workspace / "never.json").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--model", "k5.ckpt.json", "--data", "data/source.jsonl"],
        ["adapt", "--config", "tiny.config", "--source-model", "k5.ckpt.json", "--target-data", "data/target.jsonl",
         "--out", "never.json"],
        ["export-embeddings", "--model", "k5.ckpt.json", "--data", "data/target.jsonl", "--level", "local",
         "--out", "never.csv"],
    ],
    ids=["eval", "adapt", "export-embeddings"],
)
def test_checkpoint_dataset_mismatch_is_one_error_line_naming_both_files(workspace, monkeypatch, capsys, command):
    from sfvda import cli
    from sfvda.model import init_model, save_checkpoint

    save_checkpoint(init_model(k=5, d_in=6, n_classes=3, d_enc=8, d=8, d_b=8), workspace / "k5.ckpt.json")
    monkeypatch.chdir(workspace)
    code = cli.main(command)
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    dataset = command[command.index("--data" if "--data" in command else "--target-data") + 1]
    assert code == 1
    assert lines == [f"error: k5.ckpt.json, {dataset}: checkpoint/dataset mismatch on k: checkpoint 5, dataset 4"]
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (workspace / "never.json").exists() and not (workspace / "never.csv").exists()


@pytest.mark.parametrize("kind, version", [("dataset", 1), ("checkpoint", 2)])
def test_previous_format_is_one_error_line_naming_file_and_format_version(workspace, kind, version):
    if kind == "dataset":
        old = "format-1.jsonl"
        lines = (workspace / "data" / "source.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        header["format_version"] = version
        (workspace / old).write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        args = ["--model", "source.ckpt.json", "--data", old]
    else:
        old = "format-2.ckpt.json"
        doc = json.loads((workspace / "source.ckpt.json").read_text())
        doc["format_version"] = version
        (workspace / old).write_text(json.dumps(doc))
        args = ["--model", old, "--data", "data/source.jsonl"]
    out = run_sfvda("eval", *args, cwd=workspace)
    assert out.returncode == 1
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr
    assert old in lines[0] and f"format_version {version}" in lines[0]
    assert out.stdout == ""


def test_overflow_is_one_error_line_without_a_numpy_warning(tmp_path, capsys):
    # every op checks its output, so a numpy warning would be a second report
    import warnings

    from sfvda import cli

    golden = pathlib.Path(__file__).resolve().parent / "golden" / "quickstart"
    command = [
        "train-source", "--config", str(golden / "quickstart.config"), "--set", "lr_source=1e300",
        "--data", str(golden / "demo-data__source.jsonl"), "--out", str(tmp_path / "never.json"),
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(command)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == ["error: matmul: output contains non-finite values"]
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--model", "untrained.ckpt.json", "--data", "data/source.jsonl"],
        ["export-embeddings", "--model", "untrained.ckpt.json", "--data", "data/target.jsonl", "--level", "overall",
         "--out", "never.csv"],
        ["adapt", "--config", "tiny.config", "--source-model", "untrained.ckpt.json", "--target-data",
         "data/target.jsonl", "--out", "never.json"],
    ],
    ids=["eval", "export-embeddings", "adapt"],
)
def test_untrained_checkpoint_is_one_error_line_naming_file_and_field(workspace, monkeypatch, capsys, command):
    from sfvda import cli
    from sfvda.model import init_model, load_checkpoint, save_checkpoint

    path = workspace / "untrained.ckpt.json"
    save_checkpoint(init_model(k=4, d_in=6, n_classes=3, d_enc=8, d=8, d_b=8), path)
    assert not load_checkpoint(path).bn_initialized  # loading accepts it
    monkeypatch.chdir(workspace)
    code = cli.main(command)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [
        "error: untrained.ckpt.json: checkpoint: field 'batch_norm.initialized': must be true, got false "
        "(an untrained model has no running statistics)"
    ]
    assert captured.out == ""
    assert not (workspace / "never.json").exists() and not (workspace / "never.csv").exists()
