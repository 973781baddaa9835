"""Every malformed input ends in one ``error:`` line that names the file and
the line or field, and never in a traceback.

The cases come from the quickstart goldens. Each field of the dataset header
and of the first record, each checkpoint field (top level, ``hyperparams``,
every parameter and ``batch_norm``) and each config key is deleted, given a
value of another JSON type, set to NaN or infinity, emptied, cut off
mid-line, or given a byte that is not UTF-8. Each base64 array also gets a
character outside the alphabet, bad padding, and one value too few or too
many. JSON nested deeper than the recursion limit is one more case for a
checkpoint and for a dataset record, and a negative running variance one
more for a checkpoint. Every case runs in-process through
``cli.main``.
"""

import copy
import json
import math
import pathlib

import pytest

from oracles import float64_base64, floats_of_base64
from sfvda import cli
from sfvda import model as M
from sfvda.config import RunConfig

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "quickstart"
DATASET = GOLDEN / "demo-data__source.jsonl"
CHECKPOINT = GOLDEN / "demo-source.json"
CONFIG = GOLDEN / "demo-data__gen-data.config"

_DELETE = object()
_MARK = "@@mutated@@"
_JSON_KINDS = {bool: "bool", int: "int", float: "float", str: "str", list: "list", type(None): "null", dict: "object"}


def retyped(value, kind):
    """A value of each other JSON type, keyed by type. An int becomes the
    float of the same value, and a float no int: JSON writes both as numbers."""
    samples = {
        "int": 1, "float": float(value) if kind == "int" else 1.5, "str": "x", "list": [1], "null": None,
        "object": {"x": 1},
    }
    skip = {kind, "int"} if kind == "float" else {kind}
    return {f"type-{name}": sample for name, sample in samples.items() if name not in skip}


def value_mutations(value, array: bool):
    """Mutation name -> the value that replaces ``value`` (``_DELETE`` drops it)."""
    mutations = {"delete": _DELETE, "nan": math.nan, "inf": math.inf, **retyped(value, _JSON_KINDS[type(value)])}
    if array:
        values = floats_of_base64(value)
        mutations |= {
            "empty": "",
            "nan-value": float64_base64([math.nan, *values[1:]]),
            "inf-value": float64_base64([math.inf, *values[1:]]),
            "bad-character": "!" + value[1:],
            "bad-padding": value[:-3] + "===",
            "one-value-short": float64_base64(values[:-1]),
            "one-value-long": float64_base64([*values, 0.0]),
        }
    elif isinstance(value, dict):
        mutations["empty"] = {}
    return mutations


def edited(doc, parents, name, value):
    """The JSON text of ``doc`` with field ``name`` of the object at
    ``parents`` set to ``value``, or dropped for ``_DELETE``."""
    doc = copy.deepcopy(doc)
    owner = doc
    for parent in parents:
        owner = owner[parent]
    if value is _DELETE:
        del owner[name]
    else:
        owner[name] = value
    return json.dumps(doc, sort_keys=True)


def json_cases(kind, lines, row, sections=(), arrays=()):
    """(id, kind, file bytes, locator) for each mutation of each field of the
    JSON object on line ``row`` (0-based) and of its object fields
    ``sections``, plus one unknown field in each of those objects.
    ``arrays`` names the base64 fields (a section name covers all its
    fields). The locator is the text the error must hold besides the file
    name: the dotted field for a checkpoint, else the line."""
    doc = json.loads(lines[row])

    def case(mutation, dotted, text, locator=None):
        if locator is None:
            locator = dotted if kind == "checkpoint" else f"line {row + 1}"
        # surrogateescape writes the lone surrogate U+DCFF as the byte 0xff
        return f"{kind}-{dotted}-{mutation}", kind, text.encode("utf-8", "surrogateescape"), locator

    def whole(line):
        return "\n".join([*lines[:row], line, *lines[row + 1 :]]) + "\n"

    fields = [((), name) for name in doc] + [((section,), name) for section in sections for name in doc[section]]
    for parents, name in fields:
        dotted = ".".join((*parents, name))
        value = doc[parents[0]][name] if parents else doc[name]
        array = isinstance(value, str) and (name in arrays or bool(set(parents) & set(arrays)))
        for mutation, replacement in value_mutations(value, array).items():
            yield case(mutation, dotted, whole(edited(doc, parents, name, replacement)))
        marked = edited(doc, parents, name, _MARK)
        cut = "\n".join([*lines[:row], marked[: marked.index(f'"{_MARK}"')]])
        yield case("cut", dotted, cut, f"line {row + 1}")
        yield case("utf8", dotted, whole(marked).replace(_MARK, "\udcff"), f"line {row + 1}")
    for parents in [(), *((section,) for section in sections)]:
        yield case("unknown-field", ".".join((*parents, "bogus")), whole(edited(doc, parents, "bogus", 1)))


def config_cases():
    """The same mutations for each config key, as text. Deleting a key is
    valid (every key has a default)."""
    lines = CONFIG.read_text().splitlines()
    defaults = RunConfig()
    for row, line in enumerate(lines):
        key, _, raw = line.partition(" = ")
        kind = type(getattr(defaults, key))
        retypes = retyped(kind(raw), _JSON_KINDS[kind])
        mutations = {"nan": "nan", "inf": "inf", "empty": "", **{m: json.dumps(v) for m, v in retypes.items()}}
        for mutation, text in mutations.items():
            changed = "\n".join([*lines[:row], f"{key} = {text}", *lines[row + 1 :]]) + "\n"
            yield f"config-{key}-{mutation}", "config", changed.encode(), f"'{key}'"
        cut = "\n".join([*lines[:row], key[: max(1, len(key) // 2)]])
        yield f"config-{key}-cut", "config", cut.encode(), f"line {row + 1}"
        bad = "\n".join([*lines[:row], f"{key} = \udcff", *lines[row + 1 :]]) + "\n"
        yield f"config-{key}-utf8", "config", bad.encode("utf-8", "surrogateescape"), f"line {row + 1}"


def deep_nesting_cases(depth=200_000):
    """JSON nested deeper than the interpreter's recursion limit: a whole
    checkpoint, and the first record of a dataset."""
    header = DATASET.read_text().splitlines()[0]
    yield "checkpoint-deep-nesting", "checkpoint", b"[" * depth, "checkpoint: JSON nested too deeply"
    yield "dataset-record-deep-nesting", "dataset", f"{header}\n{'[' * depth}\n".encode(), "line 2"


def negative_variance_case():
    """Every running variance set to -1.0: finite, the right length, and a
    value no save writes."""
    doc = json.loads(CHECKPOINT.read_text())
    count = len(floats_of_base64(doc["batch_norm"]["running_var"]))
    text = edited(doc, ("batch_norm",), "running_var", float64_base64([-1.0] * count)) + "\n"
    locator = "checkpoint: field 'batch_norm.running_var': must hold no negative value"
    yield "checkpoint-batch_norm.running_var-negative", "checkpoint", text.encode(), locator


CASES = [
    *json_cases("dataset", DATASET.read_text().splitlines(), 0),
    *json_cases("dataset", DATASET.read_text().splitlines(), 1, arrays=("frames",)),
    *json_cases(
        "checkpoint",
        CHECKPOINT.read_text().splitlines(),
        0,
        sections=("hyperparams", "parameters", "batch_norm"),
        arrays=("parameters", "running_mean", "running_var"),
    ),
    *config_cases(),
    *deep_nesting_cases(),
    *negative_variance_case(),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@pytest.mark.parametrize("kind, content, locator", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_malformed_input_is_one_error_line_naming_file_and_place(workdir, capsys, kind, content, locator):
    path = workdir / f"mutated.{kind}"
    path.write_bytes(content)
    out = workdir / "never"
    command = {
        "dataset": ["eval", "--model", str(CHECKPOINT), "--data", str(path)],
        "checkpoint": ["eval", "--model", str(path), "--data", str(DATASET)],
        "config": ["gen-data", "--config", str(path), "--out", str(out)],
    }[kind]
    code = cli.main(command)
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert str(path) in lines[0] and locator in lines[0], lines[0]
    assert "Traceback" not in captured.err and captured.out == "" and not out.exists()


def _with_k(kind: str, k: int) -> str:
    """The quickstart config, dataset or checkpoint with its frame count set to ``k``."""
    if kind == "config":
        return CONFIG.read_text().replace("frames = 4\n", f"frames = {k}\n")
    source = DATASET if kind == "dataset" else CHECKPOINT
    first, rest = source.read_text().split("\n", 1)
    doc = json.loads(first)
    (doc if kind == "dataset" else doc["hyperparams"])["k"] = k
    return json.dumps(doc, sort_keys=True) + "\n" + rest


@pytest.mark.parametrize("kind", ["config", "dataset", "checkpoint"])
def test_frames_above_16_end_before_any_clip_table(workdir, capsys, monkeypatch, kind):
    # the clip tables grow as k * 2^k, so the bound is checked where k is read
    def no_table(k, r):
        raise AssertionError(f"clip table C({k}, {r}) built")

    monkeypatch.setattr(M, "_combinations", no_table)
    path = workdir / f"k17.{kind}"
    path.write_text(_with_k(kind, 17))
    out = workdir / "never"
    command = {
        "config": ["train-source", "--config", str(path), "--data", str(DATASET), "--out", str(out)],
        "dataset": ["train-source", "--data", str(path), "--out", str(out)],
        "checkpoint": ["eval", "--model", str(path), "--data", str(DATASET)],
    }[kind]
    code = cli.main(command)
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1, lines
    assert str(path) in lines[0] and lines[0].endswith("must lie in [3, 16], got 17"), lines[0]
    assert not out.exists()
