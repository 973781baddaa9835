"""Span tracing of sfvda from outside the package.

``install`` wraps each function in ``TARGETS`` and rebinds it wherever a
loaded sfvda module holds it. ``pipeline`` and ``cli`` import names with
``from .x import y``, so patching only the defining module would miss their
calls. Methods are patched on their class. Spans (name, start, end, parent)
stay in memory until ``Tracer.dump`` writes them; ``summarize`` turns span
files into per-function calls, self time and total time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Public functions timed per module (the repo's layers). ``Class.method``
# entries are patched on the class.
TARGETS = {
    "cli": ["main"],
    "config": ["load_config", "apply_overrides"],
    "data": ["generate_domain_pair", "read_dataset", "write_dataset", "batch_iterator"],
    "model": [
        "encode_frames",
        "local_temporal_features",
        "classify",
        "aggregate_overall",
        "sample_clips",
        "eval_clip_set",
        "save_checkpoint",
        "load_checkpoint",
        "ModelParams.copy",
    ],
    "tensor": ["Tensor.backward", "Graph.trace", "Graph.run"],
    "losses": [
        "feature_consistency_total",
        "local_prediction_consistency",
        "overall_prediction_consistency",
        "information_maximization",
        "smoothed_cross_entropy",
        "pseudo_label_cross_entropy",
    ],
    "lwm": ["local_relevance_weight", "apply_weights"],
    "pseudolabel": ["generate_pseudo_labels"],
    "pipeline": ["train_source", "adapt_target", "evaluate", "export_embeddings", "run_ablation", "SGD.step"],
}
FUNCTIONS = [f"{module}.{path}" for module, paths in TARGETS.items() for path in paths]
# Spans that contain other traced spans also report their inclusive time.
COARSE = [
    "cli.main",
    "tensor.Tensor.backward",
    "pipeline.train_source",
    "pipeline.adapt_target",
    "pipeline.evaluate",
    "pipeline.export_embeddings",
    "pipeline.run_ablation",
    "model.eval_clip_set",
]
# ``cli.main`` spans are named after the command they ran.
CLI_COMMANDS = ["gen-data", "train-source", "eval", "adapt", "export-embeddings"]
NODES = "tensor.Graph.trace.nodes"


class Tracer:
    """In-memory span recorder; one per process, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.nodes = 0
        self.bindings: dict[str, int] = {}  # rebound names per traced function

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return functools.wraps(fn)(traced)

    def wrap_generator(self, name: str, fn):
        """Time each pull from the generator, not its creation."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        return functools.wraps(fn)(traced)

    def wrap_graph_trace(self, name: str, fn):
        """Count the nodes of every traced backward graph."""
        timed = self.wrap(name, fn)

        def traced(root):
            graph = timed(root)
            self.nodes += len(graph.nodes)
            return graph

        return functools.wraps(fn)(traced)

    def wrap_cli_main(self, fn):
        """One span per command, named ``cli.main.<command>``."""

        def traced(argv=None):
            words = sys.argv[1:] if argv is None else list(argv)
            command = next((w for w in words if not w.startswith("-")), "none")
            return self.wrap(f"cli.main.{command}", fn)(argv)

        return functools.wraps(fn)(traced)

    def dump(self, path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[index[name], start, end, parent] for name, start, end, parent in self.spans],
            "counts": {NODES: self.nodes},
            "bindings": self.bindings,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _wrapper(tracer: Tracer, name: str, fn):
    if name == "cli.main":
        return tracer.wrap_cli_main(fn)
    if name == "data.batch_iterator":
        return tracer.wrap_generator(name, fn)
    if name == "tensor.Graph.trace":
        return tracer.wrap_graph_trace(name, fn)
    return tracer.wrap(name, fn)


def install(tracer: Tracer) -> None:
    """Wrap every target at each binding; ``tracer.bindings`` counts them."""
    for module_name in TARGETS:
        importlib.import_module(f"sfvda.{module_name}")
    modules = [m for n, m in list(sys.modules.items()) if n == "sfvda" or n.startswith("sfvda.")]
    for module_name, paths in TARGETS.items():
        module = sys.modules[f"sfvda.{module_name}"]
        for path in paths:
            name = f"{module_name}.{path}"
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(_wrapper(tracer, name, raw.__func__)))
                else:
                    setattr(owner, attr, _wrapper(tracer, name, raw))
                tracer.bindings[name] = 1
                continue
            fn = getattr(module, attr)
            wrapped = _wrapper(tracer, name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        tracer.bindings[name] = tracer.bindings.get(name, 0) + 1


def summarize(paths) -> dict[str, float]:
    """Sum calls, self time and total time per function over span files."""
    calls = {name: 0 for name in FUNCTIONS}
    self_s = {name: 0.0 for name in FUNCTIONS}
    total_s = {name: 0.0 for name in FUNCTIONS}
    commands = {name: 0.0 for name in CLI_COMMANDS}
    nodes = 0
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        nodes += doc["counts"][NODES]
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name_index, start, end, _) in enumerate(spans):
            name = doc["names"][name_index]
            duration = end - start
            if name.startswith("cli.main."):
                command = name[len("cli.main.") :]
                commands[command] = commands.get(command, 0.0) + duration
                name = "cli.main"
            calls[name] += 1
            self_s[name] += duration - child_time[i]
            total_s[name] += duration
    out: dict[str, float] = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in COARSE:
        out[f"{name}.total_s"] = total_s[name]
    for command in CLI_COMMANDS:
        out[f"cli.main.{command}.total_s"] = commands[command]
    out[NODES] = nodes
    return out
