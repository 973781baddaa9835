import numpy as np
import pytest

from probes import inner, squared_norm
from sfvda import tensor as T
from sfvda.tensor import Tensor, finite_diff_check


def test_softmax_rows_symmetry():
    assert np.allclose(T.log_softmax_rows(np.array([0.0, 0.0]))[1], [0.5, 0.5], atol=0, rtol=0)


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = squared_norm(x)
    loss.backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_constant_writes_no_gradients():
    c = Tensor(3.0)
    c.backward()
    assert c.grad is None


def test_backward_accumulates():
    x = Tensor([1.0, 2.0], requires_grad=True)
    squared_norm(x).backward()
    squared_norm(x).backward()
    assert np.array_equal(x.grad, [4.0, 8.0])


def test_consumed_graph_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = squared_norm(T.stack([x]))
    loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        T.stack([x, x]).backward()


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="weighted_sum"):
        T.weighted_sum([(1.0, Tensor(np.ones((2, 3)))), (1.0, Tensor(np.ones((4, 5))))])
    with pytest.raises(ValueError, match="weighted_sum"):
        T.weighted_sum([])
    with pytest.raises(ValueError, match="same shape"):
        T.stack([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))])
    with pytest.raises(ValueError, match="at least one"):
        T.stack([])


def test_non_finite_output_raises():
    with pytest.raises(ValueError, match="weighted_sum: output contains non-finite values"):
        T.weighted_sum([(1e308, Tensor([10.0])), (1.0, Tensor([0.0]))])
    with pytest.raises(ValueError, match="non-finite"):
        Tensor([np.inf])


def test_weighted_sum_value_and_lone_unit_term():
    a, b = Tensor([1.0, -2.0]), Tensor([0.5, 4.0])
    assert np.array_equal(T.weighted_sum([(2.0, a), (-1.0, b)]).data, [1.5, -8.0])
    assert T.weighted_sum([(1.0, a)]) is a
    assert np.array_equal(T.weighted_sum([(3.0, a)]).data, [3.0, -6.0])


def test_finite_diff_check_square():
    report = finite_diff_check(squared_norm, Tensor(np.array(3.0)))
    assert report.passed
    assert abs(report.analytic - 6.0) < 1e-12
    assert abs(report.numeric - 6.0) < 1e-8


def test_finite_diff_check_flags_nondeterminism():
    state = {"n": 0}

    def f(x):
        state["n"] += 1
        return T.weighted_sum([(float(state["n"]), squared_norm(x))])

    with pytest.raises(RuntimeError, match="drift"):
        finite_diff_check(f, Tensor([1.0, 2.0]))


OPS = [
    ("stack", lambda x: squared_norm(T.stack([x, T.weighted_sum([(0.5, x)])]))),
    ("weighted_sum", lambda x: squared_norm(T.weighted_sum([(2.0, T.stack([x])), (-0.5, T.stack([x]))]))),
]


@pytest.mark.parametrize("name,f", OPS, ids=[op[0] for op in OPS])
def test_op_gradients_match_finite_differences(name, f):
    rng = np.random.default_rng(len(name))
    report = finite_diff_check(f, Tensor(rng.normal(size=(4, 5))), rel_tol=1e-4)
    assert report.passed, f"{name}: max rel error {report.max_rel_error}"


def test_stack_gradients():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 2))
    g = rng.normal(size=(2, 3, 2))

    def f(x):
        return inner(T.stack([x, Tensor(b)]), g)

    assert finite_diff_check(f, Tensor(a), rel_tol=1e-4).passed

    def h(x):
        return inner(T.stack([Tensor(a), x]), g)

    assert finite_diff_check(h, Tensor(b), rel_tol=1e-4).passed


def test_stack_gives_each_input_its_own_gradient_array():
    # a leaf keeps the array a VJP returns, so the slices must not share memory
    a, b = Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.ones((2, 3)), requires_grad=True)
    g = np.arange(12.0).reshape(2, 2, 3)
    inner(T.stack([a, b]), g).backward()
    assert np.array_equal(a.grad, g[0]) and np.array_equal(b.grad, g[1])
    assert a.grad.flags.owndata and b.grad.flags.owndata


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(123)
        x = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        loss = squared_norm(T.stack([T.weighted_sum([(0.3, x), (-1.7, w)]), w]))
        loss.backward()
        return loss.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


def test_no_grad_suppresses_graph():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        out = T.stack([x, x])
    assert not out.requires_grad
    assert out._vjp is None


def test_grad_shape_matches_leaf():
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    squared_norm(x).backward()
    assert x.grad.shape == x.shape


def test_graph_visits_each_node_once():
    x = Tensor(np.ones(3), requires_grad=True)
    y = T.weighted_sum([(2.0, x)])
    loss = inner(T.weighted_sum([(1.0, y), (3.0, y)]), np.ones(3))  # y reused on two paths
    graph = T.Graph.trace(loss)
    ids = [id(node) for node in graph.nodes]
    assert len(ids) == len(set(ids))
    loss.backward()
    # d/dx of sum(2x + 3 * 2x) = 8
    assert np.array_equal(x.grad, np.full(3, 8.0))



def test_on_leaf_gets_each_leaf_once_with_its_complete_gradient():
    # x is read by two ops; the sweep hands it over only after both VJPs ran,
    # and has freed each op it passed by then
    x = Tensor(np.ones(3), requires_grad=True)
    y = T.weighted_sum([(2.0, x)])
    loss = inner(T.weighted_sum([(1.0, y), (3.0, x)]), np.ones(3))
    seen = []
    loss.backward(lambda leaf: seen.append((leaf, leaf.grad.copy(), y._vjp is None and loss._vjp is None)))
    assert len(seen) == 1 and seen[0][0] is x
    assert np.array_equal(seen[0][1], np.full(3, 5.0)) and seen[0][2]
