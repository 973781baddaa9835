"""Dense float64 tensors with reverse-mode automatic differentiation.

Small eager autograd engine on numpy storage: each operation computes its
value immediately and, while gradients are enabled, records parent links
and a local vector-Jacobian closure. ``Tensor.backward`` walks the recorded
graph once in reverse topological order, accumulates gradients into the
``.grad`` buffer of every leaf that requires them, and frees each operation
as it passes it, so a second backward through the graph raises. An optional
per-leaf callback gets each leaf as soon as its gradient is complete, so an
optimizer can step the leaf and drop its gradient mid-sweep.

The model and the losses build their layers as fused operations with
closed-form VJPs on ``Tensor._from_op``; this module holds the two generic
ones, ``stack`` and ``weighted_sum``, and the array steps layers share: the
one softmax ``log_softmax_rows``, ``_scale_mean`` and ``_standardize``.

Design constraints honoured throughout:
  * float64 everywhere (finite-difference checks are meaningless in 32-bit),
  * every operation validates that its output is finite and raises
    instead of propagating NaN/Inf,
  * ``log_softmax_rows`` acts over the last axis and subtracts the row max,
  * gradient accumulation is additive; the optimizer step drops each one,
  * every op lists each leaf it reads as a parent (see ``Graph``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "Graph",
    "no_grad",
    "log_softmax_rows",
    "stack",
    "weighted_sum",
    "GradCheckReport",
    "finite_diff_check",
]

_grad_enabled = True


class no_grad:
    """Context manager that suspends graph recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _ensure_finite(data: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(data).all():
        raise ValueError(f"{op}: output contains non-finite values")
    return data


class Tensor:
    """A dense float64 array, optionally tracked by the autograd graph.

    ``data`` is treated as immutable once the tensor participates in a
    graph; only ``.grad`` and optimizer updates may mutate state, the latter
    between steps or from the backward sweep's per-leaf callback.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = _ensure_finite(arr, "tensor")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._consumed = False

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, op: str, parents, vjp) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = _ensure_finite(np.asarray(data, dtype=np.float64), op)
        out.grad = None
        out._consumed = False
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
        else:
            out.requires_grad = False
            out._parents = ()
            out._vjp = None
        return out

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- backward ----------------------------------------------------------------

    def backward(self, on_leaf=None) -> None:
        """Accumulate dSelf/dLeaf into every requiring leaf, adding to any
        ``.grad`` already there, freeing the graph as the sweep goes: a second
        backward raises. ``on_leaf``, if given, is called during the sweep
        with each leaf once its gradient is complete (see ``Graph``)."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.shape}")
        Graph.trace(self).run(np.ones_like(self.data), on_leaf)


class Graph:
    """Topologically ordered record of the operations reaching one root.

    Each node appears exactly once, parents before children, so the reverse
    sweep in :meth:`run` visits every operation a single time and leaf
    gradients accumulate additively across all their uses. A leaf keeps the
    array a VJP returns as its gradient, uncopied, so every VJP returns
    arrays that nothing else holds or writes.

    ``run`` frees each op once its VJP has run. A leaf comes before every op
    that reads it, so the reverse sweep reaches it only after all of their
    VJPs have run: its gradient is then complete, and ``run`` hands the leaf
    to ``on_leaf``, which may update its ``data`` in place. That holds
    because every op lists each leaf it reads as a parent, parameters
    included.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @staticmethod
    def trace(root: Tensor) -> "Graph":
        order: list[Tensor] = []
        visited: set[int] = set()
        pending: list[tuple[Tensor, bool]] = [(root, False)]
        while pending:
            node, expanded = pending.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node._consumed:
                raise RuntimeError("backward through a consumed graph")
            pending.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    pending.append((parent, False))
        return Graph(order)

    def run(self, seed: np.ndarray, on_leaf=None) -> None:
        grads: dict[int, np.ndarray] = {id(self.nodes[-1]): seed}
        for node in reversed(self.nodes):
            g = grads.pop(id(node), None)
            parents, vjp = node._parents, node._vjp
            if vjp is not None:
                node._parents, node._vjp, node._consumed = (), None, True
            if g is None:
                continue
            if vjp is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                    if on_leaf is not None:
                        on_leaf(node)
                continue
            for parent, pg in zip(parents, vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


# -- primitive operations ---------------------------------------------------------


def stack(tensors) -> Tensor:
    """Equal-shape tensors stacked on a new leading axis, as one op."""
    tensors = tuple(tensors)
    out = np.stack([t.data for t in tensors])  # raises on no tensors or unequal shapes
    return Tensor._from_op(out, "stack", tensors, lambda g: tuple(part.copy() for part in g))


def weighted_sum(terms) -> Tensor:
    """sum_i c_i * t_i over (coefficient, tensor) pairs of one shape, as one
    op; a lone term with coefficient 1 is returned as it is."""
    terms = [(float(c), t) for c, t in terms]
    if not terms:
        raise ValueError("weighted_sum: need at least one term")
    if len(terms) == 1 and terms[0][0] == 1.0:
        return terms[0][1]
    shapes = {t.shape for _, t in terms}
    if len(shapes) > 1:
        raise ValueError(f"weighted_sum: shape mismatch {sorted(shapes)}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = terms[0][0] * terms[0][1].data
        for c, t in terms[1:]:
            out = out + c * t.data
    return Tensor._from_op(out, "weighted_sum", tuple(t for _, t in terms), lambda g: tuple(c * g for c, _ in terms))


def log_softmax_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-softmax and softmax of a plain array over the last axis, with max
    subtraction."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    return _ensure_finite(shifted - np.log(total), "log_softmax"), e / total


def _scale_mean(x: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The (S, B, n) stack ``x`` scaled per (video, scale) by the (B, S)
    ``weights`` when given, their (S, B, 1) column (None without weights),
    and the mean over scales of the scaled stack."""
    n_scales, batch, _ = x.shape
    column = None
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (batch, n_scales):
            raise ValueError(f"weights shape {weights.shape} does not match batch {batch} x scales {n_scales}")
        column = weights.T[:, :, None]
        x = _ensure_finite(x * column, "mul")
    return x, column, x.sum(axis=0) * (1.0 / n_scales)


@np.errstate(all="ignore")  # every stage is checked, so a warning would be a second report
def _standardize(x: np.ndarray, eps: float):
    """(z, mean, var, sigma) of the (G, B, d) ``x`` standardized over each
    group's batch, sigma = sqrt(var + eps); every stage is checked for
    finiteness under the name of the operation it once was."""
    mean = _ensure_finite(x.mean(axis=1, keepdims=True), "mean")
    centered = x - mean
    var = _ensure_finite(np.mean(centered * centered, axis=1, keepdims=True), "variance")
    _ensure_finite(centered, "sub")
    sigma = _ensure_finite(np.sqrt(_ensure_finite(var + eps, "add")), "sqrt")
    return _ensure_finite(centered / sigma, "div"), mean, var, sigma


def _standardize_vjp(g: np.ndarray, z: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The gradient of ``x`` from that of ``z``, back through ``_standardize``."""
    return (g - g.mean(axis=1, keepdims=True) - z * np.mean(g * z, axis=1, keepdims=True)) / sigma


# -- gradient checking ---------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool
    analytic: np.ndarray
    numeric: np.ndarray


def finite_diff_check(f, point: Tensor, rel_tol: float = 1e-4, step: float = 1e-6) -> GradCheckReport:
    """Compare analytic gradients of scalar ``f`` with central differences.

    ``f`` must rebuild its graph on every call and be deterministic; value
    drift between two probe evaluations at the base point raises. The
    relative error of component i is |a_i - n_i| / max(1, |a_i|, |n_i|).
    """
    base = np.asarray(point.data, dtype=np.float64)
    probe_a = float(f(Tensor(base.copy())).item())
    probe_b = float(f(Tensor(base.copy())).item())
    if probe_a != probe_b:
        raise RuntimeError("finite_diff_check: function value drifts at the base point")

    leaf = Tensor(base.copy(), requires_grad=True)
    f(leaf).backward()
    analytic = leaf.grad.copy() if leaf.grad is not None else np.zeros_like(base)

    numeric = np.zeros_like(base)
    flat = numeric.reshape(-1)
    with no_grad():
        for i in range(base.size):
            bumped = base.reshape(-1).copy()
            bumped[i] += step
            hi = float(f(Tensor(bumped.reshape(base.shape))).item())
            bumped[i] -= 2.0 * step
            lo = float(f(Tensor(bumped.reshape(base.shape))).item())
            flat[i] = (hi - lo) / (2.0 * step)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel = np.abs(analytic - numeric) / denom
    worst = float(rel.max()) if rel.size else 0.0
    return GradCheckReport(worst, worst <= rel_tol, analytic, numeric)
