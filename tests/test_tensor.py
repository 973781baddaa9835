import numpy as np
import pytest

from sfvda import tensor as T
from sfvda.tensor import Tensor, finite_diff_check


def test_matmul_identity():
    out = T.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[3.0], [4.0]])


def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=0, rtol=0)


def test_relu_definition():
    assert np.array_equal(T.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tensor_sum(T.square(x))
    loss.backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_constant_writes_no_gradients():
    c = Tensor(3.0)
    c.backward()
    assert c.grad is None


def test_backward_accumulates():
    x = Tensor([1.0, 2.0], requires_grad=True)
    T.tensor_sum(T.square(x)).backward()
    T.tensor_sum(T.square(x)).backward()
    assert np.array_equal(x.grad, [4.0, 8.0])


def test_repeated_backward_same_graph_accumulates():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tensor_sum(T.square(x))
    loss.backward()
    loss.backward()
    assert np.array_equal(x.grad, [4.0, 8.0])


def test_consumed_graph_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tensor_sum(T.square(x))
    loss.backward(free_graph=True)
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        T.square(x).backward()


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="matmul"):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ValueError, match="add"):
        T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def test_non_finite_output_raises():
    with pytest.raises(ValueError, match="non-finite"):
        T.log(Tensor([0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        Tensor([np.inf])


def test_mean_relu_matmul_matches_finite_differences():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(3, 3))
    x = rng.normal(size=(3, 3)) + 0.1

    def f(wt):
        return T.mean(T.relu(T.matmul(wt, Tensor(x))))

    report = finite_diff_check(f, Tensor(w), rel_tol=1e-4)
    assert report.passed, f"max rel error {report.max_rel_error}"


def test_finite_diff_check_square():
    report = finite_diff_check(lambda x: T.square(x), Tensor(np.array(3.0)))
    assert report.passed
    assert abs(report.analytic - 6.0) < 1e-12
    assert abs(report.numeric - 6.0) < 1e-8


def test_finite_diff_check_flags_nondeterminism():
    state = {"n": 0}

    def f(x):
        state["n"] += 1
        return T.scale(T.tensor_sum(x), float(state["n"]))

    with pytest.raises(RuntimeError, match="drift"):
        finite_diff_check(f, Tensor([1.0, 2.0]))


PRIMITIVES = [
    ("add", lambda x: T.mean(T.add(x, T.square(x)))),
    ("sub", lambda x: T.mean(T.sub(T.square(x), x))),
    ("scale", lambda x: T.mean(T.scale(x, -2.5))),
    ("mul", lambda x: T.mean(T.mul(x, T.add(x, Tensor(np.full((4, 5), 0.5)))))),
    ("div", lambda x: T.mean(T.div(x, T.add(T.square(x), Tensor(np.full((4, 5), 1.0)))))),
    ("relu", lambda x: T.mean(T.relu(x))),
    ("softmax", lambda x: T.mean(T.square(T.softmax(x)))),
    ("log_softmax", lambda x: T.mean(T.square(T.log_softmax(x)))),
    ("mean_axis", lambda x: T.tensor_sum(T.square(T.mean(x, axis=0)))),
    ("variance", lambda x: T.tensor_sum(T.square(T.variance(x, axis=0)))),
    ("variance_all", lambda x: T.variance(x)),
    ("abs", lambda x: T.mean(T.absolute(x))),
    ("square", lambda x: T.mean(T.square(x))),
    ("sqrt", lambda x: T.mean(T.sqrt(T.add(T.square(x), Tensor(np.full((4, 5), 0.1)))))),
    ("log", lambda x: T.mean(T.log(T.add(T.square(x), Tensor(np.full((4, 5), 0.5)))))),
    ("transpose", lambda x: T.mean(T.square(T.matmul(T.transpose(x), x)))),
    ("sum", lambda x: T.tensor_sum(T.square(T.tensor_sum(x, axis=1, keepdims=True)))),
]


@pytest.mark.parametrize("name,f", PRIMITIVES, ids=[p[0] for p in PRIMITIVES])
def test_primitive_gradients_match_finite_differences(name, f):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = rng.normal(size=(4, 5)) + 0.05
    report = finite_diff_check(f, Tensor(x), rel_tol=1e-4)
    assert report.passed, f"{name}: max rel error {report.max_rel_error}"


def test_concat_gradients():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 4))

    def f(x):
        return T.mean(T.square(T.concat([x, Tensor(b)], axis=1)))

    report = finite_diff_check(f, Tensor(a), rel_tol=1e-4)
    assert report.passed

    def g(x):
        return T.mean(T.square(T.concat([Tensor(a), x], axis=1)))

    assert finite_diff_check(g, Tensor(b), rel_tol=1e-4).passed


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-20.0, 20.0, size=(6, 8))
        direct = T.log_softmax(Tensor(x)).data
        composed = np.log(T.softmax(Tensor(x)).data)
        assert np.max(np.abs(direct - composed)) < 1e-12


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(123)
        x = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        loss = T.mean(T.square(T.softmax(T.matmul(T.relu(x), w))))
        loss.backward()
        return loss.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


def test_no_grad_suppresses_graph():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        out = T.square(x)
    assert not out.requires_grad
    assert out._vjp is None


def test_grad_shape_matches_leaf():
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    T.mean(T.square(x)).backward()
    assert x.grad.shape == x.shape


def test_graph_visits_each_node_once():
    x = Tensor(np.ones(3), requires_grad=True)
    y = T.square(x)
    loss = T.tensor_sum(T.add(T.mul(y, y), y))  # y reused on three paths
    graph = T.Graph.trace(loss)
    ids = [id(node) for node in graph.nodes]
    assert len(ids) == len(set(ids))
    loss.backward()
    # d/dx of sum(x^4 + x^2) = 4x^3 + 2x at x=1
    assert np.allclose(x.grad, 6.0)
