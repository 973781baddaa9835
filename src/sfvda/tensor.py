"""Dense float64 tensors with reverse-mode automatic differentiation.

Small eager autograd engine on numpy storage: each operation computes its
value immediately and, while gradients are enabled, records parent links
and a local vector-Jacobian closure. ``Tensor.backward`` walks the recorded
graph once in reverse topological order and accumulates gradients into the
``.grad`` buffer of every leaf that requires them.

Design constraints honoured throughout:
  * float64 everywhere (finite-difference checks are meaningless in 32-bit),
  * every public operation validates that its output is finite and raises
    instead of propagating NaN/Inf,
  * softmax / log_softmax act over the last axis and subtract the row max,
  * gradient accumulation is additive; callers zero grads between steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "Graph",
    "no_grad",
    "softmax_rows",
    "matmul",
    "add",
    "sub",
    "scale",
    "concat",
    "relu",
    "log_softmax",
    "softmax",
    "mean",
    "variance",
    "absolute",
    "square",
    "mul",
    "div",
    "log",
    "sqrt",
    "tensor_sum",
    "transpose",
    "reshape",
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
    graph; only ``.grad`` and explicit optimizer updates between steps may
    mutate state.
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

    def backward(self, free_graph: bool = False) -> None:
        """Accumulate dSelf/dLeaf into every requiring leaf.

        Repeated calls add to existing ``.grad`` buffers. With
        ``free_graph=True`` the recorded closures are dropped afterwards and
        any further backward through this graph raises.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.shape}")
        graph = Graph.trace(self)
        graph.run(np.ones_like(self.data))
        if free_graph:
            graph.free()


class Graph:
    """Topologically ordered record of the operations reaching one root.

    Each node appears exactly once, parents before children, so the reverse
    sweep in :meth:`run` visits every operation a single time and leaf
    gradients accumulate additively across all their uses.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @staticmethod
    def trace(root: Tensor) -> "Graph":
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node._consumed:
                raise RuntimeError("backward through a consumed graph")
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        return Graph(order)

    def run(self, seed: np.ndarray) -> None:
        grads: dict[int, np.ndarray] = {id(self.nodes[-1]): seed}
        for node in reversed(self.nodes):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                if node.requires_grad:
                    node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    def free(self) -> None:
        for node in self.nodes:
            if node._vjp is not None:
                node._parents = ()
                node._vjp = None
                node._consumed = True


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- primitive operations ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul: expected 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: shape mismatch {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return Tensor._from_op(out, "matmul", (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ValueError(f"add: shape mismatch {a.shape} + {b.shape}") from exc

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor._from_op(out, "add", (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError as exc:
        raise ValueError(f"sub: shape mismatch {a.shape} - {b.shape}") from exc

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor._from_op(out, "sub", (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return Tensor._from_op(a.data * s, "scale", (a,), lambda g: (g * s,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError as exc:
        raise ValueError(f"mul: shape mismatch {a.shape} * {b.shape}") from exc

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor._from_op(out, "mul", (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = a.data / b.data
    except ValueError as exc:
        raise ValueError(f"div: shape mismatch {a.shape} / {b.shape}") from exc

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return Tensor._from_op(out, "div", (a, b), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    return Tensor._from_op(out, "concat", tuple(tensors), vjp)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (a.data > 0.0),)

    return Tensor._from_op(out, "relu", (a,), vjp)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax of a plain array over the last axis, with max subtraction."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max subtraction."""
    out = softmax_rows(a.data)

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return Tensor._from_op(out, "softmax", (a,), vjp)


def log_softmax(a: Tensor) -> Tensor:
    """Log of softmax over the last axis, same max-subtraction stabilisation."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def vjp(g):
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return Tensor._from_op(out, "log_softmax", (a,), vjp)


def _expand_reduced(g: np.ndarray, shape, axis, keepdims) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.shape[axis]

    def vjp(g):
        return (_expand_reduced(g, a.shape, axis, keepdims) / n,)

    return Tensor._from_op(out, "mean", (a,), vjp)


def variance(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Population variance (divide by n) along ``axis``."""
    centered = a.data - a.data.mean(axis=axis, keepdims=True)
    out = np.mean(centered * centered, axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.shape[axis]

    def vjp(g):
        return (_expand_reduced(g, a.shape, axis, keepdims) * 2.0 * centered / n,)

    return Tensor._from_op(out, "variance", (a,), vjp)


def tensor_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        return (np.array(_expand_reduced(g, a.shape, axis, keepdims)),)

    return Tensor._from_op(out, "sum", (a,), vjp)


def absolute(a: Tensor) -> Tensor:
    def vjp(g):
        return (g * np.sign(a.data),)

    return Tensor._from_op(np.abs(a.data), "abs", (a,), vjp)


def square(a: Tensor) -> Tensor:
    def vjp(g):
        return (g * 2.0 * a.data,)

    return Tensor._from_op(a.data * a.data, "square", (a,), vjp)


def log(a: Tensor) -> Tensor:
    def vjp(g):
        return (g / a.data,)

    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    return Tensor._from_op(out, "log", (a,), vjp)


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        out = np.sqrt(a.data)

    def vjp(g):
        return (g * 0.5 / out,)

    return Tensor._from_op(out, "sqrt", (a,), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"transpose: expected a matrix, got shape {a.shape}")

    def vjp(g):
        return (g.T,)

    return Tensor._from_op(a.data.T, "transpose", (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    return Tensor._from_op(out, "reshape", (a,), lambda g: (g.reshape(a.shape),))


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
