"""Hash every output of every adaptation variant under both freeze scopes.

The listing is committed as ``tests/golden/variant_hashes.txt``, and
``tests/test_variant_hashes.py`` checks it in every test run, so a change
that claims to keep every output byte needs that test to pass. When a move
is intended, regenerate the copy and record each moved line:

    PYTHONPATH=src python tests/variant_hashes.py > tests/golden/variant_hashes.txt

One source model is trained for two epochs on a 3-class, 5-frame, 120-video
domain pair, then adapted with each of the 10 variants under each of the 2
settings. Two epochs keep the whole listing to a few seconds; the
configuration is the one earlier listings used, so they stay comparable.
Each run prints the sha256 of the in-memory parameters and batch-norm
statistics (``params``), of the checkpoint, of its re-save after a load, of
the metrics CSV and of both export levels, and the target accuracy. The
first lines, ``source/data`` and ``target/data``, hash each domain's frames
(little-endian float64), ids (UTF-8, one per line) and labels (little-endian
int64), and ``target/eval_clips`` hashes the target videos' eval clip
arrays, so a change to the generator or to the clip derivation shows even
where no output moves. The ``params``, ``metrics``, ``export_*`` and
``accuracy`` lines do not depend on the checkpoint format, so a format
change must leave them identical. The ``pl_rounds2`` lines follow the
variants: ``params``, ``accuracy`` and ``metrics`` of ``full`` under
``head_all`` with ``pl_rounds = 2``, two rounds of pseudo-label
clustering. The ``frames8`` lines come last: the same configuration at 8
frames, with ``full`` under ``head_all`` adapted on the target without its
labels, the shape of the deployed workload (``bench/child.py``), where
every scale but the last has M_r = 3 clips drawn from up to 70
combinations.
pytest does not collect this file.
"""

import hashlib
import pathlib
import tempfile
from dataclasses import replace

from sfvda import model as M
from sfvda import pipeline as P
from sfvda.config import VARIANTS, RunConfig
from sfvda.data import generate_domain_pair

BASE = RunConfig(classes=3, videos_per_class=40, frames=5, frame_dim=8, d_enc=16, d=16, d_b=16, seed=3)
BASE = replace(BASE, epochs_source=2, epochs_adapt=3, batch_size=16)
PL_ROUNDS_2 = replace(BASE, variant="full", freeze_scope="head_all", pl_rounds=2)
FRAMES_8 = replace(BASE, frames=8, variant="full", freeze_scope="head_all")
SETTINGS = {
    "head_all": {},
    "last_layer_only": {"freeze_scope": "last_layer_only"},
}


def emit_model(label, model, target):
    digest = hashlib.sha256()
    for t in model.tensors.values():
        digest.update(t.data.tobytes())
    digest.update(model.bn_mean.tobytes() + model.bn_var.tobytes())
    print(f"{label}/params", digest.hexdigest())
    print(f"{label}/accuracy", repr(P.evaluate(model, target).accuracy))


def main() -> None:
    source, target = generate_domain_pair(BASE.domain_spec())
    for ds in (source, target):
        ids = "\n".join(ds.ids).encode()
        digest = hashlib.sha256(ds.frames.astype("<f8").tobytes() + ids + ds.labels.astype("<i8").tobytes())
        print(f"{ds.domain}/data", digest.hexdigest())
    clips = M.eval_clip_set(target.ids, target.k, BASE.m_max)
    print("target/eval_clips", hashlib.sha256(b"".join(clips[r].astype("<i8").tobytes() for r in clips)).hexdigest())
    source_model, source_rows = P.train_source(source, BASE)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp)

        def emit(label, name, write):
            write(path / name)
            print(label, hashlib.sha256((path / name).read_bytes()).hexdigest())

        emit_model("source", source_model, target)
        emit("source/checkpoint", "source.json", lambda p: M.save_checkpoint(source_model, p))
        emit("source/metrics", "source.csv", lambda p: P.write_metrics(source_rows, p))
        for setting, overrides in SETTINGS.items():
            for variant in VARIANTS:
                model, rows = P.adapt_target(source_model, target, replace(BASE, variant=variant, **overrides))
                run = f"{variant}/{setting}"
                emit_model(run, model, target)
                emit(f"{run}/checkpoint", "adapted.json", lambda p: M.save_checkpoint(model, p))
                reloaded = M.load_checkpoint(path / "adapted.json")
                emit(f"{run}/resave", "resaved.json", lambda p: M.save_checkpoint(reloaded, p))
                emit(f"{run}/metrics", "adapted.csv", lambda p: P.write_metrics(rows, p))
                for level in ("local", "overall"):
                    emit(f"{run}/export_{level}", "export.csv", lambda p: P.export_embeddings(model, target, level, p))
        model, rows = P.adapt_target(source_model, target, PL_ROUNDS_2)
        emit_model("pl_rounds2/full/head_all", model, target)
        emit("pl_rounds2/full/head_all/metrics", "adapted.csv", lambda p: P.write_metrics(rows, p))
    source, target = generate_domain_pair(FRAMES_8.domain_spec())
    source_model, _ = P.train_source(source, FRAMES_8)
    emit_model("frames8/full/head_all", P.adapt_target(source_model, target.without_labels(), FRAMES_8)[0], target)


if __name__ == "__main__":
    main()
