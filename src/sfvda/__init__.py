"""Source-free video domain adaptation on a desk-scale temporal relation model.

Train a multi-scale temporal-relation classifier on a labeled synthetic
source domain, drop the source data, then adapt to an unlabeled shifted
target domain using feature consistency across temporal scales, source
prediction consistency, entropy-based local weighting, information
maximization, and centroid pseudo-labels — all against a frozen source
classifier.
"""

import os

# One BLAS thread: a second does not speed up matrices this small. It only takes effect
# where sfvda loads before numpy (each CLI process, not pytest); a preset value is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import RunConfig, parse_config, emit_config, load_config
from .data import Dataset, DomainSpec, batch_iterator, generate_domain_pair, read_dataset, write_dataset
from .model import ModelParams, init_model, load_checkpoint, sample_clips, save_checkpoint
from .pipeline import adapt_target, evaluate, export_embeddings, run_ablation, train_source
from .tensor import Tensor, finite_diff_check, no_grad

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "parse_config",
    "emit_config",
    "load_config",
    "Dataset",
    "DomainSpec",
    "batch_iterator",
    "generate_domain_pair",
    "read_dataset",
    "write_dataset",
    "ModelParams",
    "init_model",
    "load_checkpoint",
    "sample_clips",
    "save_checkpoint",
    "adapt_target",
    "evaluate",
    "export_embeddings",
    "run_ablation",
    "train_source",
    "Tensor",
    "finite_diff_check",
    "no_grad",
    "__version__",
]
