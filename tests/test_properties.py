"""Property tests for the autodiff nodes and for PGD.

For the nodes (conv, batch norm with its ReLU, the linear head, pooling
and the feature distance), Hypothesis draws the shapes, the geometry and the
input's memory layout (NCHW-contiguous, a channels-last view, or one
channel); every result is checked against a direct float64 reference or
`finite_diff_grad`. Batch norm's W*C-wide rows are also checked bitwise
against the per-channel broadcast formulas, in both float dtypes. For PGD it draws the budget, the step size, the
number of steps and the attacked branch, and checks the attack's
invariants (Madry et al., arXiv 1706.06083), and that an attack on two
CPUs, whose halves run in two threads at once, is bitwise the attack on
one CPU. For experiment configs it draws a key and a value of the wrong
type, and for each key with a range a value of the right type outside it;
either must fail as a `ConfigError` naming the key.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twins_lab import attack
from twins_lab.attack import AttackConfig, pgd_attack
from twins_lab.experiment import ConfigError, parse_config
from twins_lab.network import BranchMode, MiniCNN, ModelConfig, bn_forward
from twins_lab.tensor import (Tensor, _channel_sum,
                              _conv2d_forward, backprop, batch_norm,
                              conv2d, conv2d_weight_grad,
                              feature_distance, finite_diff_grad,
                              global_avg_pool, linear)
from twins_lab.training import METHODS

# derandomized, so tier-1 runs the same examples every time
PROFILE = settings(derandomize=True, database=None, deadline=None,
                   max_examples=50)

LAYOUTS = ("nchw", "channels-last", "one-channel")


def _in_layout(a, layout):
    """`a` (NCHW in shape) with the memory order `layout` names."""
    if layout == "nchw":
        return np.ascontiguousarray(a)
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _is_channels_last(a):
    return a.transpose(0, 2, 3, 1).flags.c_contiguous


def _memory_order(a):
    """The axes of extent > 1, from the slowest-varying to the fastest."""
    return sorted((ax for ax in range(a.ndim) if a.shape[ax] > 1),
                  key=lambda ax: -a.strides[ax])


@st.composite
def conv_cases(draw):
    layout = draw(st.sampled_from(LAYOUTS))
    c = 1 if layout == "one-channel" else draw(st.integers(2, 3))
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pad = draw(st.integers(0, 2))
    # down to H < kernel + pad, as long as the padded input holds a window
    h = draw(st.integers(max(1, kh - 2 * pad), kh + 3))
    w = draw(st.integers(max(1, kw - 2 * pad), kw + 3))
    return {"n": draw(st.integers(1, 2)), "c": c, "h": h, "w": w,
            "o": draw(st.integers(1, 3)), "kh": kh, "kw": kw,
            "stride": draw(st.integers(1, 4)),  # stride > kernel included
            "pad": pad, "layout": layout,
            "seed": draw(st.integers(0, 2**16))}


def _conv_reference(x, k, stride, pad):
    """Cross-correlation by explicit loops over output positions."""
    n, c, h, w = x.shape
    o, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for i in range(ho):
        for j in range(wo):
            win = xp[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
            out[:, :, i, j] = np.tensordot(win, k, axes=([1, 2, 3], [1, 2, 3]))
    return out


@PROFILE
@given(conv_cases())
def test_conv2d_matches_reference_and_finite_diff(case):
    rng = np.random.default_rng(case["seed"])
    x = Tensor(_in_layout(rng.normal(
        size=(case["n"], case["c"], case["h"], case["w"])), case["layout"]),
        requires_grad=True)
    k = Tensor(rng.normal(size=(case["o"], case["c"], case["kh"],
                                case["kw"])), requires_grad=True)
    ps = {"x": x, "k": k}
    stride, pad = case["stride"], case["pad"]
    out = conv2d(x, k, stride, pad)
    assert out.shape == _conv_reference(x.data, k.data, stride, pad).shape
    assert np.allclose(out.data, _conv_reference(x.data, k.data, stride, pad),
                       rtol=1e-12, atol=1e-12)
    assert _is_channels_last(out.data)
    weights = rng.normal(size=out.shape)

    def loss():
        return (conv2d(x, k, stride, pad) * weights).sum()

    grads = backprop(loss(), ps)
    # the input gradient comes back in the input's memory order
    assert _memory_order(x.grad) == _memory_order(x.data)
    fd = finite_diff_grad(lambda: loss().item(), ps, h=1e-6)
    for name in ("x", "k"):
        assert np.allclose(grads[name], fd[name], rtol=1e-6, atol=1e-8)


@PROFILE
@given(conv_cases(), st.sampled_from(("nchw", "channels-last")))
def test_conv2d_weight_grad_with_and_without_cols_bitwise(case, grad_layout):
    rng = np.random.default_rng(case["seed"])
    x = _in_layout(rng.normal(size=(case["n"], case["c"], case["h"],
                                    case["w"])), case["layout"])
    k = rng.normal(size=(case["o"], case["c"], case["kh"], case["kw"]))
    args = (case["kh"], case["kw"], case["stride"], case["pad"])
    out, cols = _conv2d_forward(x, k, case["stride"], case["pad"])
    g = _in_layout(rng.normal(size=out.shape), grad_layout)
    reused = conv2d_weight_grad(x, g, *args, cols=cols)
    assert reused.shape == k.shape
    assert np.array_equal(reused, conv2d_weight_grad(x, g, *args))


@st.composite
def layer_cases(draw):
    """A conv case with a batch of 2 or 3 and a branch mode."""
    case = draw(conv_cases())
    case.update(n=draw(st.integers(2, 3)),
                mode=draw(st.sampled_from(list(BranchMode))))
    return case


@PROFILE
@given(layer_cases())
def test_bn_matches_reference_and_finite_diff(case):
    """A conv, BN and ReLU layer, recorded as one node, against the loop
    convolution and the per-channel formulas."""
    rng = np.random.default_rng(case["seed"])
    o, mode = case["o"], case["mode"]
    model = MiniCNN(ModelConfig(widths=(o,), dtype="float64", bn_eps=1e-3))
    ps, state = model.params, model.bn[0]
    for t in (state.gamma_a, state.gamma_f):
        t.data = rng.uniform(0.5, 2.0, size=o)
    for t in (state.beta_a, state.beta_f):
        t.data = rng.normal(size=o)
    state.running_mean, state.frozen_mean = rng.normal(size=(2, o))
    state.running_var, state.frozen_var = rng.uniform(0.5, 2.0, size=(2, o))
    x = ps["x"] = Tensor(_in_layout(rng.normal(
        1.0, 2.0, size=(case["n"], case["c"], case["h"], case["w"])),
        case["layout"]), requires_grad=True)
    k = ps["k"] = Tensor(rng.normal(
        size=(o, case["c"], case["kh"], case["kw"])), requires_grad=True)
    branch = "f" if mode is BranchMode.FROZEN_TRAIN else "a"
    gamma, beta = ps[f"bn1.gamma_{branch}"], ps[f"bn1.beta_{branch}"]
    stats = {BranchMode.ADAPTIVE_TRAIN: None,
             BranchMode.FROZEN_TRAIN: (state.frozen_mean, state.frozen_var),
             BranchMode.INFERENCE: (state.running_mean, state.running_var)
             }[mode]

    def layer():
        pre = conv2d(x, k, case["stride"], case["pad"])
        return batch_norm(pre, gamma, beta, 1e-3, stats)

    y, mean, var = layer()
    assert y._prev == (x, k, gamma, beta)
    pre = _conv_reference(x.data, k.data, case["stride"], case["pad"])
    if stats is None:
        assert np.allclose(mean, pre.mean(axis=(0, 2, 3)), rtol=1e-12,
                           atol=1e-12)
        assert np.allclose(var, pre.var(axis=(0, 2, 3)), rtol=1e-12,
                           atol=1e-12)
    shape = (1, o, 1, 1)
    ref = np.maximum((pre - mean.reshape(shape))
                     / np.sqrt(var + 1e-3).reshape(shape)
                     * gamma.data.reshape(shape) + beta.data.reshape(shape),
                     0.0)
    assert y.shape == pre.shape
    assert np.allclose(y.data, ref, rtol=1e-12, atol=1e-12)
    assert _is_channels_last(y.data)

    weights = rng.normal(size=y.shape)

    def loss():
        return (layer()[0] * weights).sum()

    names = ["x", "k", f"bn1.gamma_{branch}", f"bn1.beta_{branch}"]
    grads = backprop(loss(), ps, names)
    # the input gradient comes back in the input's memory order
    assert _memory_order(x.grad) == _memory_order(x.data)
    # the ReLU's mask: beta's gradient sums the weights where y > 0
    assert np.allclose(grads[names[3]],
                       (weights * (ref > 0)).sum(axis=(0, 2, 3)),
                       rtol=1e-12, atol=1e-12)
    # a step of 1e-5: at 1e-6 the central difference's rounding error
    # through a conv and BN reaches 1.7e-8, above atol
    fd = finite_diff_grad(lambda: loss().item(), ps, h=1e-5, names=names)
    for name in names:
        assert np.allclose(grads[name], fd[name], rtol=1e-6, atol=1e-8)


def _broadcast_bn(x, gamma, beta, eps, dy, stats=None):
    """(y, mean, var, dx, dgamma, dbeta) of batch norm and ReLU by the
    per-channel broadcast formulas over the (N, H, W, C) view, with
    `_channel_sum`'s sums; batch statistics unless fixed `stats` are
    given. `dy` is the adjoint of the ReLU output."""
    xt = x.transpose(0, 2, 3, 1)
    inv_m = 1.0 / (xt.size // xt.shape[3])
    if stats is None:
        mean = _channel_sum(xt) * inv_m
        xhat = xt - mean
        var = _channel_sum(np.square(xhat)) * inv_m
    else:
        mean, var = stats
        xhat = xt - mean
    std = np.sqrt(var + eps)
    xhat /= std
    y = np.maximum(xhat * gamma + beta, 0)
    dyt = (dy * (y.transpose(0, 3, 1, 2) > 0)).transpose(0, 2, 3, 1)
    dbeta = _channel_sum(dyt)
    dgamma = _channel_sum(dyt * xhat)
    if stats is None:
        dx = xhat * (-inv_m * dgamma)
        dx += dyt
        dx -= inv_m * dbeta
        dx *= gamma / std
    else:
        dx = dyt * (gamma / std)
    return (y.transpose(0, 3, 1, 2), mean, var, dx.transpose(0, 3, 1, 2),
            dgamma, dbeta)


def _bn_layout(a, layout):
    """`a` as NCHW-contiguous, channels-last, or a non-contiguous view
    (every other column of a channels-last buffer)."""
    if layout != "strided":
        return _in_layout(a, layout)
    n, c, h, w = a.shape
    buf = np.zeros((n, h, 2 * w, c), a.dtype)
    buf[:, :, ::2] = a.transpose(0, 2, 3, 1)
    return buf[:, :, ::2].transpose(0, 3, 1, 2)


BN_LAYOUTS = ("nchw", "channels-last", "strided")


@st.composite
def bn_row_cases(draw):
    layout = draw(st.sampled_from(BN_LAYOUTS))
    # a one-image batch in any other layout is summed in another order
    # than the rows give; the network only feeds BN channels-last input
    n = draw(st.integers(1 if layout == "channels-last" else 2, 3))
    return {"shape": (n, draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                      draw(st.integers(1, 5))),
            "layout": layout, "dy_layout": draw(st.sampled_from(BN_LAYOUTS)),
            "dtype": draw(st.sampled_from((np.float32, np.float64))),
            "fixed": draw(st.booleans()),
            "seed": draw(st.integers(0, 2**16))}


@PROFILE
@given(bn_row_cases())
def test_bn_rows_match_broadcast_formulas_bitwise(case):
    rng = np.random.default_rng(case["seed"])
    shape, dt = case["shape"], case["dtype"]
    c = shape[1]
    x = _bn_layout(rng.normal(1.0, 2.0, size=shape).astype(dt), case["layout"])
    dy = _bn_layout(rng.normal(size=shape).astype(dt), case["dy_layout"])
    gamma = rng.uniform(0.5, 2.0, size=c).astype(dt)
    beta = rng.normal(size=c).astype(dt)
    stats = None
    if case["fixed"]:
        stats = (rng.normal(size=c).astype(dt),
                 rng.uniform(0.5, 2.0, size=c).astype(dt))
    leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
    y, mean, var = batch_norm(*leaves, 1e-3, stats)
    # the node's own backward on the adjoint `dy`, in dy's memory layout
    y._backward(dy)
    ref = _broadcast_bn(x, gamma, beta, 1e-3, dy, stats)
    got = (y.data, mean, var) + tuple(t.grad for t in leaves)
    for name, a, b in zip(("y", "mean", "var", "dx", "dgamma", "dbeta"),
                          got, ref):
        assert a.dtype == dt, name
        assert np.array_equal(a, b), name
    assert _is_channels_last(y.data)


def _check_grads(ps, out, rng):
    """Backprop of the node `out()` under random weights matches
    `finite_diff_grad` for every parameter in `ps`; returns the gradients."""
    weights = rng.normal(size=out().shape)

    def loss():
        return (out() * weights).sum()

    grads = backprop(loss(), ps)
    fd = finite_diff_grad(lambda: loss().item(), ps, h=1e-6)
    for name in ps:
        assert grads[name].shape == ps[name].shape
        assert np.allclose(grads[name], fd[name], rtol=1e-6, atol=1e-8), name
    return grads


@st.composite
def image_cases(draw):
    layout = draw(st.sampled_from(LAYOUTS))
    c = 1 if layout == "one-channel" else draw(st.integers(2, 3))
    return {"shape": (draw(st.integers(1, 3)), c, draw(st.integers(1, 3)),
                      draw(st.integers(1, 3))),
            "layout": layout, "seed": draw(st.integers(0, 2**16))}


@PROFILE
@given(st.one_of(image_cases(),
                 st.fixed_dictionaries({
                     "shape": st.tuples(st.integers(1, 3), st.integers(1, 5)),
                     "layout": st.just(None),
                     "seed": st.integers(0, 2**16)})),
       st.integers(1, 3))
def test_linear_matches_reference_and_finite_diff(case, k):
    rng = np.random.default_rng(case["seed"])
    x = rng.normal(size=case["shape"])
    if case["layout"] is not None:
        x = _in_layout(x, case["layout"])
    n, d = x.shape[0], x[0].size
    ps = {"x": Tensor(x, requires_grad=True),
          "w": Tensor(rng.normal(size=(d, k)), requires_grad=True),
          "b": Tensor(rng.normal(size=k), requires_grad=True)}
    out = linear(ps["x"], ps["w"], ps["b"])
    assert out.shape == (n, k)
    assert np.allclose(out.data, x.reshape(n, d) @ ps["w"].data + ps["b"].data,
                       rtol=1e-12, atol=1e-12)
    _check_grads(ps, lambda: linear(ps["x"], ps["w"], ps["b"]), rng)


@PROFILE
@given(image_cases())
def test_global_avg_pool_matches_reference_and_finite_diff(case):
    rng = np.random.default_rng(case["seed"])
    x = Tensor(_in_layout(rng.normal(size=case["shape"]), case["layout"]),
               requires_grad=True)
    ps = {"x": x}
    out = global_avg_pool(x)
    assert np.allclose(out.data, x.data.mean(axis=(2, 3)),
                       rtol=1e-12, atol=1e-12)
    _check_grads(ps, lambda: global_avg_pool(x), rng)


@PROFILE
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_feature_distance_matches_reference_and_finite_diff(n, d, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    ref = rng.normal(size=(n, d))
    feats = rng.normal(size=(n, d))
    # at least one row at distance 0, where the gradient is 0
    equal = data.draw(st.lists(st.integers(0, n - 1), min_size=1))
    feats[equal] = ref[equal]
    ps = {"f": Tensor(feats, requires_grad=True)}
    out = feature_distance(ps["f"], ref)
    assert np.allclose(out.data, np.linalg.norm(feats - ref, axis=1).mean(),
                       rtol=1e-12, atol=1e-12)
    grads = _check_grads(ps, lambda: feature_distance(ps["f"], ref), rng)
    assert np.array_equal(grads["f"][equal], np.zeros((len(equal), d)))


def _attack_model(dtype="float32"):
    """A MiniCNN whose four BN statistic sets all differ."""
    model = MiniCNN(ModelConfig(input_shape=(3, 8, 8), widths=(4, 6),
                                target_classes=3, dtype=dtype),
                    rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for state in model.bn:
        c = state.channels
        state.running_mean, state.frozen_mean = (
            rng.normal(0.0, 0.1, size=(2, c)).astype(dtype))
        state.running_var, state.frozen_var = (
            rng.uniform(0.5, 2.0, size=(2, c)).astype(dtype))
    return model


@st.composite
def attack_cases(draw, epsilon=st.floats(0.0, 0.1)):
    return {"cfg": AttackConfig(
                epsilon=draw(epsilon), alpha=draw(st.floats(0.0, 0.05)),
                steps=draw(st.integers(0, 4)),
                rand_init=draw(st.booleans()),
                loss_kind=draw(st.sampled_from(("ce", "kl_to_clean")))),
            "branch": draw(st.sampled_from(list(BranchMode))),
            "seed": draw(st.integers(0, 2**16))}


def _attack(model, case):
    rng = np.random.default_rng(case["seed"])
    x = rng.uniform(size=(4, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 3, size=4)
    return x, pgd_attack(model, case["branch"], x, y, case["cfg"], rng=rng)


@PROFILE
@given(attack_cases())
def test_pgd_stays_in_the_ball_and_leaves_bn_statistics(case):
    model = _attack_model()
    stats = {k: v.copy() for k, v in model.stat_arrays().items()}
    x, adv = _attack(model, case)
    assert adv.shape == x.shape and adv.dtype == x.dtype
    # the bounds x ± epsilon are rounded to float32, by under 6e-8 below 1
    dist = np.abs(adv.astype(np.float64) - x.astype(np.float64)).max()
    assert dist <= case["cfg"].epsilon + 6e-8
    assert adv.min() >= 0.0 and adv.max() <= 1.0
    for name, value in model.stat_arrays().items():
        assert np.array_equal(value, stats[name]), name


@PROFILE
@given(attack_cases(epsilon=st.just(0.0)))
def test_pgd_with_zero_budget_returns_the_input(case):
    x, adv = _attack(_attack_model(), case)
    assert adv.dtype == x.dtype
    assert np.array_equal(adv, x)


@st.composite
def split_cases(draw):
    return {"cfg": AttackConfig(
                epsilon=draw(st.floats(0.001, 0.1)),
                alpha=draw(st.floats(0.0, 0.05)),
                steps=draw(st.integers(1, 3)),
                rand_init=draw(st.booleans()),
                loss_kind=draw(st.sampled_from(("ce", "kl_to_clean")))),
            "branch": draw(st.sampled_from((BranchMode.INFERENCE,
                                            BranchMode.FROZEN_TRAIN))),
            "dtype": draw(st.sampled_from(("float32", "float64"))),
            "n": draw(st.integers(1, 8)),  # even batches split, odd do not
            "seed": draw(st.integers(0, 2**16))}


@PROFILE
@given(split_cases())
def test_pgd_on_two_cpus_is_bitwise_the_one_cpu_attack(case):
    model = _attack_model(case["dtype"])
    rng = np.random.default_rng(case["seed"])
    x = rng.uniform(size=(case["n"], 3, 8, 8)).astype(case["dtype"])
    y = rng.integers(0, 3, size=case["n"])
    adv = {}
    for cpus in (2, 1):
        # every even batch splits, down to halves of one image
        with mock.patch.object(attack, "_usable_cpus", return_value=cpus), \
                mock.patch.object(attack, "_MIN_SPLIT_BATCH", 2):
            adv[cpus] = pgd_attack(model, case["branch"], x, y, case["cfg"],
                                   rng=np.random.default_rng(case["seed"]))
    assert adv[2].dtype == x.dtype
    assert np.array_equal(adv[2], adv[1])


# what each kind of config value must not be
_WRONG = {
    "int": st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                     st.floats(allow_nan=False),
                     st.lists(st.integers(), max_size=2)),
    "number": st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                        st.lists(st.floats(allow_nan=False), max_size=2)),
    "bool": st.one_of(st.integers(), st.text(max_size=3), st.none()),
    "str": st.one_of(st.integers(), st.floats(allow_nan=False),
                     st.booleans(), st.none(), st.lists(st.text(), max_size=2)),
    "ints": st.one_of(st.text(max_size=3), st.integers(), st.none(),
                      st.lists(st.one_of(st.text(max_size=2), st.booleans(),
                                         st.floats(allow_nan=False),
                                         st.none()),
                               min_size=1, max_size=3)),
    "seeds": st.one_of(st.text(max_size=3), st.integers(), st.just([]),
                       st.lists(st.one_of(st.text(max_size=2), st.none(),
                                          st.floats(allow_nan=False)),
                                min_size=1, max_size=3)),
}

# (section, key, kind of value)
_CONFIG_KEYS = (
    [((), "out_dir", "str"), ((), "seeds", "seeds")]
    + [(("model",), key, kind) for key, kind in (
        ("input_shape", "ints"), ("widths", "ints"), ("target_classes", "int"),
        ("source_classes", "int"), ("dtype", "str"), ("bn_eps", "number"),
        ("bn_momentum", "number"))]
    + [(("target_data",), key, kind) for key, kind in (
        ("source", "str"), ("classes", "int"), ("image_shape", "ints"),
        ("per_class", "int"), ("noise_std", "number"), ("seed", "int"),
        ("val_fraction", "number"), ("images_path", "str"),
        ("labels_path", "str"))]
    + [(("finetune",), key, kind) for key, kind in (
        ("method", "str"), ("eta", "number"), ("lambda_wd", "number"),
        ("momentum", "number"), ("lambda_twins", "number"), ("beta", "number"),
        ("batch", "int"), ("epochs", "int"), ("milestones", "ints"),
        ("decay", "number"), ("seed", "int"), ("warmup_epochs", "int"))]
    + [(("finetune", "attack"), key, kind) for key, kind in (
        ("epsilon", "number"), ("alpha", "number"), ("steps", "int"),
        ("rand_init", "bool"), ("loss_kind", "str"))])


def _config():
    return {
        "out_dir": "out", "seeds": [0],
        "model": {"input_shape": [3, 8, 8], "widths": [4, 6],
                  "target_classes": 2},
        "target_data": {"source": "synthetic", "classes": 2,
                        "image_shape": [3, 8, 8], "per_class": 24},
        "finetune": {"method": "at", "epochs": 2, "batch": 8,
                     "milestones": [1], "attack": {"steps": 1}},
    }


@PROFILE
@given(st.data())
def test_wrong_typed_config_value_is_a_config_error_naming_its_key(data):
    section, key, kind = data.draw(st.sampled_from(_CONFIG_KEYS))
    value = data.draw(_WRONG[kind])
    raw = _config()
    parent = raw
    for name in section:
        parent = parent[name]
    parent[key] = value
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        parse_config(raw)


_NEGATIVE = st.floats(max_value=0.0, exclude_max=True)
_NOT_FINITE = st.sampled_from((float("inf"), float("nan")))


def _ints_below(least):
    return st.integers(max_value=least - 1)


def _shapes_out_of_range():
    """Lists of positive integers but not 3 of them, or 3 integers with one
    below 1."""
    return st.one_of(
        st.lists(st.integers(1, 8), max_size=5).filter(lambda v: len(v) != 3),
        st.tuples(_ints_below(1), st.integers(1, 8), st.integers(1, 8)).map(
            list))


def _text_not_in(options):
    return st.text(max_size=12).filter(lambda t: t not in options)


# what each kind of range rejects: below 0 or not finite; outside [0, 1]
# (or [0, 1), which also rejects 1)
_NON_NEGATIVE_BAD = st.one_of(_NEGATIVE, _NOT_FINITE)
_UNIT_BAD = st.one_of(_NEGATIVE, st.floats(min_value=1.0, exclude_min=True),
                      st.just(float("nan")))
_UNIT_OPEN_BAD = st.one_of(_NEGATIVE, st.floats(min_value=1.0),
                           st.just(float("nan")))

# (section, key, values of the right type outside the key's range)
_RANGED_KEYS = (
    [((), "seeds", st.lists(_ints_below(0), min_size=1, max_size=3))]
    + [(("model",), key, bad) for key, bad in (
        ("input_shape", _shapes_out_of_range()),
        ("widths", st.lists(st.integers(max_value=0), max_size=3)),
        ("target_classes", _ints_below(1)),
        ("source_classes", _ints_below(0)),
        ("dtype", _text_not_in(("float32", "float64"))),
        ("bn_eps", _NON_NEGATIVE_BAD), ("bn_momentum", _UNIT_BAD))]
    + [(("target_data",), key, bad) for key, bad in (
        ("source", _text_not_in(("synthetic", "idx-files", "npz"))),
        ("classes", _ints_below(1)), ("image_shape", _shapes_out_of_range()),
        ("per_class", _ints_below(1)), ("noise_std", _NON_NEGATIVE_BAD),
        ("seed", _ints_below(0)), ("val_fraction", _UNIT_OPEN_BAD))]
    + [(("finetune",), key, _NON_NEGATIVE_BAD) for key in (
        "eta", "lambda_wd", "momentum", "lambda_twins", "lambda_lwf",
        "lambda_uot", "beta", "decay")]
    + [(("finetune",), key, bad) for key, bad in (
        ("method", _text_not_in(METHODS)), ("batch", _ints_below(2)),
        ("epochs", _ints_below(1)), ("seed", _ints_below(0)),
        ("warmup_epochs", _ints_below(0)))]
    + [(("finetune", "attack"), key, bad) for key, bad in (
        ("epsilon", _UNIT_BAD), ("alpha", _NON_NEGATIVE_BAD),
        ("steps", _ints_below(0)),
        ("loss_kind", _text_not_in(("ce", "kl_to_clean"))))])


@pytest.mark.parametrize("section, key, bad", _RANGED_KEYS,
                         ids=[".".join(s + (k,)) for s, k, _ in _RANGED_KEYS])
@settings(PROFILE, max_examples=10)
@given(st.data())
def test_out_of_range_config_value_is_a_config_error_naming_its_key(
        section, key, bad, data):
    raw = _config()
    parent = raw
    for name in section:
        parent = parent[name]
    parent[key] = data.draw(bad)
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        parse_config(raw)
