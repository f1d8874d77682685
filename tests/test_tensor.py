import gc
import tracemalloc

import numpy as np
import pytest

from twins_lab.tensor import (ShapeError, Tensor, _conv2d_forward, _im2col,
                              backprop, batch_norm,
                              conv2d, conv2d_weight_grad, finite_diff_grad,
                              global_avg_pool, kl_div_logits, linear,
                              softmax_cross_entropy, untracked)

NO_BIAS = Tensor(np.zeros(2))


def test_matmul_identity():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    eye = Tensor(np.eye(2))
    assert np.array_equal(linear(eye, a, NO_BIAS).data, a.data)


def test_matmul_annihilator():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    zero = Tensor(np.zeros((2, 2)))
    assert np.array_equal(linear(a, zero, NO_BIAS).data, np.zeros((2, 2)))


def test_matmul_hand_value():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    bias = Tensor(np.array([1.0, -1.0]))
    assert np.array_equal(linear(a, b, bias).data,
                          np.array([[20.0, 21.0], [44.0, 49.0]]))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))),
               Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))),
               Tensor(np.zeros(3)))


@pytest.mark.parametrize("op", ["add", "mul"])
def test_elementwise_shape_mismatch_raises(op):
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    apply = (lambda u, v: u + v) if op == "add" else (lambda u, v: u * v)
    for other in (Tensor(np.ones(3)), Tensor(np.ones((1, 3))),
                  Tensor(np.ones(())), np.ones((3, 2)), np.ones(3)):
        with pytest.raises(ShapeError):
            apply(a, other)
    # a scalar or a same-shaped operand is accepted
    assert apply(a, 2.0).shape == (2, 3)
    assert apply(a, np.full((2, 3), 2.0)).shape == (2, 3)
    assert apply(a, Tensor(np.ones((2, 3)))).shape == (2, 3)


def test_conv2d_identity_kernel():
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 5, 5)))
    k = np.zeros((3, 3, 1, 1))
    for c in range(3):
        k[c, c, 0, 0] = 1.0
    out = conv2d(x, Tensor(k), stride=1, pad=0)
    assert np.allclose(out.data, x.data)


def test_conv2d_zero_kernel():
    x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 4, 4)))
    out = conv2d(x, Tensor(np.zeros((4, 2, 3, 3))), stride=1, pad=1)
    assert np.array_equal(out.data, np.zeros((1, 4, 4, 4)))


def test_conv2d_hand_value():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    k = Tensor(np.array([[[[1.0, 0.0], [0.0, 1.0]]]]))
    assert conv2d(x, k).data.reshape(-1)[0] == 5.0


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.ones((1, 3, 4, 4))), Tensor(np.ones((2, 2, 3, 3))))


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("ksize", [1, 3])
def test_conv2d_gradients_match_finite_diff(stride, pad, ksize):
    rng = np.random.default_rng(10 * stride + 3 * pad + ksize)
    ps = {"x": Tensor(rng.normal(size=(2, 3, 5, 7)), requires_grad=True),
          "k": Tensor(rng.normal(size=(4, 3, ksize, ksize)),
                      requires_grad=True)}
    out_shape = conv2d(ps["x"], ps["k"], stride, pad).shape
    weights = rng.normal(size=out_shape)

    def loss():
        return (conv2d(ps["x"], ps["k"], stride, pad) * weights).sum()

    grads = backprop(loss(), ps)
    fd = finite_diff_grad(lambda: loss().item(), ps)
    for name in ("x", "k"):
        assert grads[name].shape == ps[name].shape
        assert np.allclose(grads[name], fd[name], rtol=1e-7, atol=1e-8)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("ksize", [1, 3])
def test_conv2d_weight_grad_reuses_forward_columns_bitwise(stride, pad, ksize):
    rng = np.random.default_rng(20 * stride + 5 * pad + ksize)
    x = rng.normal(size=(3, 2, 6, 5)).astype(np.float32)
    k = rng.normal(size=(4, 2, ksize, ksize)).astype(np.float32)
    out, cols = _conv2d_forward(x, k, stride, pad)
    g = rng.normal(size=out.shape).astype(np.float32)
    rebuilt = conv2d_weight_grad(x, g, ksize, ksize, stride, pad)
    reused = conv2d_weight_grad(x, g, ksize, ksize, stride, pad, cols=cols)
    assert reused.shape == k.shape and reused.dtype == k.dtype
    assert np.array_equal(reused, rebuilt)
    # the contraction over the unreshaped strided view forms the same GEMM
    strided, _, _ = _im2col(x, ksize, ksize, stride, pad)
    assert np.array_equal(
        reused, np.tensordot(g, strided, axes=([0, 2, 3], [0, 4, 5])))


def _identity_bn(x):
    """Fixed-statistics BN whose affine is exactly the identity, so its
    output is the ReLU of `x`."""
    c, dt = x.shape[1], x.dtype
    return batch_norm(x, Tensor(np.ones(c, dt)), Tensor(np.zeros(c, dt)), 0.0,
                      (np.zeros(c, dt), np.ones(c, dt)))[0]


def test_relu_forward_matches_masked_select():
    rng = np.random.default_rng(11)
    for dtype in (np.float32, np.float64):
        a = rng.normal(size=(8, 4, 3, 3)).astype(dtype)
        a[0, 0, 0] = 0.0
        y = _identity_bn(Tensor(a)).data
        assert y.dtype == dtype
        assert np.array_equal(y, np.where(a > 0, a, 0.0))


def test_relu_values_and_adjoint():
    # each BN node's output is exactly 0 at its middle entry, where the
    # adjoint is cut as at a negative one
    x = Tensor(np.array([-1.0, 0.0, 2.0]).reshape(3, 1, 1, 1),
               requires_grad=True)
    y = _identity_bn(x)
    assert np.array_equal(y.data.reshape(-1), [0.0, 0.0, 2.0])
    y.sum().backward()
    assert np.array_equal(x.grad.reshape(-1), [0.0, 0.0, 1.0])
    gamma, beta = (Tensor(np.ones(1), requires_grad=True),
                   Tensor(np.zeros(1), requires_grad=True))
    x = Tensor(np.array([-1.0, 0.0, 1.0]).reshape(3, 1, 1, 1))
    y, _, _ = batch_norm(x, gamma, beta, 0.0)
    flat = y.data.reshape(-1)
    assert flat[0] == 0.0 and flat[1] == 0.0 and flat[2] > 0.0
    y.sum().backward()
    # d/dbeta counts the positive outputs; d/dgamma sums their x-hat
    assert np.array_equal(beta.grad, [1.0])
    assert np.array_equal(gamma.grad, [flat[2]])


def test_global_avg_pool_constant():
    x = Tensor(np.full((2, 3, 4, 4), 7.5))
    assert np.allclose(global_avg_pool(x).data, 7.5)


def test_global_avg_pool_hand_mean_and_adjoint():
    x = Tensor(np.array([[[[1.0, 3.0], [5.0, 7.0]]]]), requires_grad=True)
    y = global_avg_pool(x)
    assert y.data.reshape(-1)[0] == 4.0
    y.sum().backward()
    assert np.allclose(x.grad, 0.25)


def test_cross_entropy_uniform_logits():
    for k in (2, 5, 9):
        logits = Tensor(np.zeros((3, k)))
        loss = softmax_cross_entropy(logits, np.zeros(3, dtype=int))
        assert loss.item() == pytest.approx(np.log(k), abs=1e-12)


def test_cross_entropy_confident_limit():
    logits = np.zeros((1, 3))
    logits[0, 1] = 60.0
    loss = softmax_cross_entropy(Tensor(logits), np.array([1]))
    assert loss.item() < 1e-12


def test_cross_entropy_hand_value():
    loss = softmax_cross_entropy(Tensor(np.array([[1.0, 0.0]])),
                                 np.array([0]))
    assert loss.item() == pytest.approx(np.log(1 + np.exp(-1.0)), abs=1e-12)


def test_cross_entropy_label_range():
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_cross_entropy_shift_invariance():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(4, 6))
    labels = rng.integers(0, 6, size=4)
    base = softmax_cross_entropy(Tensor(logits), labels).item()
    shifted = softmax_cross_entropy(
        Tensor(logits + rng.normal(size=(4, 1))), labels).item()
    assert abs(base - shifted) <= 1e-12


def test_kl_identity_is_zero():
    rng = np.random.default_rng(4)
    p = rng.normal(size=(5, 4))
    assert abs(kl_div_logits(Tensor(p), Tensor(p.copy())).item()) <= 1e-12


def test_kl_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rng.normal(size=(3, 5))
        q = rng.normal(size=(3, 5))
        assert kl_div_logits(Tensor(p), Tensor(q)).item() >= 0.0


def test_kl_hand_value():
    # KL(softmax([0,0]) || softmax([ln3,0])) = 0.5*ln(4/3), computed
    # independently from the definition sum p*ln(p/q) with p=(1/2,1/2),
    # q=(3/4,1/4)
    p = Tensor(np.array([[0.0, 0.0]]))
    q = Tensor(np.array([[np.log(3.0), 0.0]]))
    assert kl_div_logits(p, q).item() == pytest.approx(0.5 * np.log(4.0 / 3.0),
                                                       abs=1e-12)


def test_backprop_linear_case():
    w = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    ps = {"w": w}
    x = Tensor(np.array([4.0, 5.0, 6.0]))
    grads = backprop((w * x).sum(), ps)
    assert np.array_equal(grads["w"], x.data)


def test_backprop_dead_relu():
    gamma = Tensor(np.array([1.0]), requires_grad=True)
    beta = Tensor(np.array([-1.0]), requires_grad=True)
    ps = {"gamma": gamma, "beta": beta}
    x = Tensor(np.zeros((2, 1, 2, 2)), requires_grad=True)
    y, _, _ = batch_norm(x, gamma, beta, 0.0, (np.zeros(1), np.ones(1)))
    assert np.array_equal(y.data, np.zeros((2, 1, 2, 2)))
    grads = backprop(y.sum(), ps)
    assert np.array_equal(grads["gamma"], [0.0])
    assert np.array_equal(grads["beta"], [0.0])


def test_backprop_rejects_nonscalar():
    w = Tensor(np.ones(3), requires_grad=True)
    ps = {"w": w}
    with pytest.raises(ShapeError):
        backprop(w * 2.0, ps)


def test_finite_diff_quadratic():
    ps = {"x": Tensor(np.array([3.0]), requires_grad=True)}
    grads = finite_diff_grad(lambda: float(ps["x"].data[0] ** 2), ps, h=1e-4)
    assert grads["x"][0] == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_linear_exact():
    ps = {"x": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    c = np.array([2.5, -4.0])
    for h in (1e-2, 1e-5):
        grads = finite_diff_grad(lambda: float((c * ps["x"].data).sum()),
                                 ps, h=h)
        assert np.allclose(grads["x"], c, atol=1e-9)


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda: 0.0, {}, h=0.0)


def _two_layer_loss(ps, x, y):
    h = linear(Tensor(x), ps["w1"], ps["b1"])
    return softmax_cross_entropy(linear(h * h, ps["w2"], ps["b2"]), y)


def _two_layer_params(rng):
    return {"w1": Tensor(rng.normal(size=(5, 7)), requires_grad=True),
            "b1": Tensor(rng.normal(size=7), requires_grad=True),
            "w2": Tensor(rng.normal(size=(7, 3)), requires_grad=True),
            "b2": Tensor(rng.normal(size=3), requires_grad=True)}


def test_backprop_matches_finite_diff_two_layer_net():
    rng = np.random.default_rng(6)
    ps = _two_layer_params(rng)
    x = rng.normal(size=(4, 5))
    y = rng.integers(0, 3, size=4)
    grads = backprop(_two_layer_loss(ps, x, y), ps)
    fd = finite_diff_grad(lambda: _two_layer_loss(ps, x, y).item(), ps)
    for name in ps:
        err = np.abs(grads[name] - fd[name])
        rel = err / np.maximum(np.abs(fd[name]), 1e-8)
        assert rel[np.abs(grads[name]) > 1e-8].max() <= 1e-4


@pytest.mark.parametrize("seed", range(3))
def test_elementwise_ops_match_finite_diff(seed):
    rng = np.random.default_rng(100 + seed)
    ps = {name: Tensor(rng.uniform(-2.0, 2.0, size=(3, 4)),
                       requires_grad=True) for name in ("a", "b")}
    weights = rng.normal(size=(3, 4))

    def loss():
        a, b = ps["a"], ps["b"]
        u = a * b + 0.5 * b
        out = (u * u) * a + (a * a) * 1e-3 + 2.0
        return (out * weights).sum()

    grads = backprop(loss(), ps)
    fd = finite_diff_grad(lambda: loss().item(), ps)
    for name in ps:
        rel = np.abs(grads[name] - fd[name]) / np.maximum(
            np.abs(fd[name]), 1e-8)
        assert rel.max() <= 1e-4


def test_replay_is_bitwise_deterministic():
    rng = np.random.default_rng(7)
    ps = _two_layer_params(rng)
    x = rng.normal(size=(4, 5))
    y = rng.integers(0, 3, size=4)
    g1 = backprop(_two_layer_loss(ps, x, y), ps)
    g2 = backprop(_two_layer_loss(ps, x, y), ps)
    for name in ps:
        assert np.array_equal(g1[name], g2[name])


def test_fan_out_node_gets_the_summed_gradient():
    x = Tensor(np.array([-1.5, 0.0, 0.25, 3.0]), requires_grad=True)
    ((x * x) + x).sum().backward()
    assert np.array_equal(x.grad, 2.0 * x.data + 1.0)


def test_backprop_gives_zeros_to_a_parameter_no_path_reaches():
    w = Tensor(np.ones(3), requires_grad=True, dtype=np.float32)
    ps = {"w": w, "unused": Tensor(np.ones((2, 2)), requires_grad=True,
                                   dtype=np.float32)}
    grads = backprop((w * 2.0).sum(), ps)
    assert np.array_equal(grads["w"], np.full(3, 2.0, np.float32))
    assert grads["unused"].dtype == np.float32
    assert np.array_equal(grads["unused"], np.zeros((2, 2)))


def test_backprop_single_name_matches_full_map_bitwise():
    rng = np.random.default_rng(9)
    ps = _two_layer_params(rng)
    x = rng.normal(size=(4, 5))
    y = rng.integers(0, 3, size=4)
    full = backprop(_two_layer_loss(ps, x, y), ps)
    for name in ps:
        one = backprop(_two_layer_loss(ps, x, y), ps, names=[name])
        assert list(one) == [name]
        assert np.array_equal(one[name], full[name])


def test_float32_mode_preserved_through_ops():
    x = Tensor(np.ones((2, 2), dtype=np.float32))
    y = x * 2.0 + 1.0
    assert (y * y).dtype == np.float32


def _kept_bytes(fn):
    """Bytes that `fn()`'s result still holds once it returns, measured on
    a second call, so that no first-call warm-up is counted."""
    fn()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def _param_node_cases(rng):
    """(op, input, parameter arrays, whether the node then keeps only its
    output) for each op that takes parameters; the input is channels-last,
    like the activations the ops receive. Adaptive BN keeps x-hat, which
    its input gradient reads. The last op is a conv, BN and ReLU layer."""
    x4 = np.ascontiguousarray(rng.normal(size=(8, 5, 6, 4))).transpose(
        0, 3, 1, 2)
    c = x4.shape[1]
    mean, var = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)
    cases = [
        (lambda x, k: conv2d(x, k, stride=2, pad=1), x4,
         [rng.normal(size=(6, c, 3, 3))], True),
        (lambda x, g, b: batch_norm(x, g, b, 1e-5, (mean, var))[0], x4,
         [rng.uniform(0.5, 2.0, size=c), rng.normal(size=c)], True),
        (lambda x, g, b: batch_norm(x, g, b, 1e-5)[0], x4,
         [rng.uniform(0.5, 2.0, size=c), rng.normal(size=c)], False),
        (linear, rng.normal(size=(8, 12)),
         [rng.normal(size=(12, 3)), rng.normal(size=3)], True),
    ]
    stats = rng.normal(size=6), rng.uniform(0.5, 2.0, size=6)
    k = rng.normal(size=(6, c, 3, 3))
    gamma, beta = rng.uniform(0.5, 2.0, size=6), rng.normal(size=6)
    cases.append(
        (lambda x, k, g, b: batch_norm(conv2d(x, k, stride=2, pad=1), g, b,
                                       1e-5, stats)[0], x4,
         [k, gamma, beta], True))
    return cases


@pytest.mark.parametrize("case", range(5))
def test_untracked_parameters_are_neither_written_nor_kept(case):
    op, x, arrays, output_only = _param_node_cases(
        np.random.default_rng(20))[case]
    grads, kept = {}, {}
    for tracked in (True, False):
        params = [Tensor(a, requires_grad=tracked) for a in arrays]
        stale = [np.full_like(a, 7.0) for a in arrays]
        for p, s in zip(params, stale):
            p.grad = s  # left over from an earlier pass
        xt = Tensor(x, requires_grad=True)
        out, kept[tracked] = _kept_bytes(lambda: op(xt, *params))
        (out * out).sum().backward()
        grads[tracked] = xt.grad
        if not tracked:
            assert all(p.grad is s for p, s in zip(params, stale))
    assert np.array_equal(grads[False], grads[True])
    assert kept[False] <= kept[True], kept
    if output_only:
        # the output and its graph bookkeeping; the dropped buffer (x-hat
        # or the im2col columns) alone is larger than 4 KiB here
        assert kept[False] < out.data.nbytes + 4096, kept


def test_untracked_restores_every_flag_when_its_body_raises():
    ps = {name: Tensor(np.ones(2), requires_grad=True) for name in ("a", "b")}
    ps["b"].requires_grad = False
    with pytest.raises(RuntimeError, match="body"):
        with untracked(ps):
            assert not any(p.requires_grad for _, p in ps.items())
            raise RuntimeError("body")
    assert {name: p.requires_grad for name, p in ps.items()} == {
        "a": True, "b": False}
