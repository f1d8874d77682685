import numpy as np
import pytest

from twins_lab.network import (BNLayerState, BranchMode, MiniCNN, ModelConfig,
                               bn_forward, bn_update_running, copy_model,
                               make_finetune_model)
from twins_lab.tensor import (ParamStore, Tensor, backprop, finite_diff_grad,
                              softmax_cross_entropy)
from twins_lab.training import TrainConfig, run_training
from twins_lab.attack import AttackConfig


def _bn_state(eps=0.0):
    ps = ParamStore()
    return BNLayerState(1, ps, "bn1", np.float64, eps=eps, momentum=0.1)


def _model(dtype="float64", widths=(4, 6), classes=3, source_classes=0,
           seed=0, shape=(3, 8, 8), eps=1e-5):
    cfg = ModelConfig(input_shape=shape, widths=widths,
                      target_classes=classes, source_classes=source_classes,
                      dtype=dtype, bn_eps=eps)
    return MiniCNN(cfg, rng=np.random.default_rng(seed))


def test_frozen_bn_hand_value():
    state = _bn_state()
    state.frozen_mean = np.array([0.0])
    state.frozen_var = np.array([4.0])
    x = Tensor(np.full((1, 1, 1, 1), 4.0))
    y, stats = bn_forward(x, state, BranchMode.FROZEN_TRAIN)
    assert stats is None
    assert y.data.reshape(-1)[0] == 2.0


def test_frozen_bn_at_population_mean_returns_beta():
    state = _bn_state()
    state.frozen_mean = np.array([1.7])
    state.frozen_var = np.array([2.3])
    state.beta_f.data = np.array([0.5])
    x = Tensor(np.full((2, 1, 3, 3), 1.7))
    y, _ = bn_forward(x, state, BranchMode.FROZEN_TRAIN)
    assert np.allclose(y.data, 0.5, atol=1e-15)


def test_adaptive_bn_standardizes_pair():
    state = _bn_state(eps=0.0)
    x = Tensor(np.array([1.0, 3.0]).reshape(2, 1, 1, 1))
    y, (mean, var) = bn_forward(x, state, BranchMode.ADAPTIVE_TRAIN)
    # standardized to -1 and 1; the layer's ReLU clamps the -1
    assert np.array_equal(y.data.reshape(-1), [0.0, 1.0])
    assert mean[0] == 2.0 and var[0] == 1.0
    state.beta_a.data = np.array([2.0])
    y, _ = bn_forward(x, state, BranchMode.ADAPTIVE_TRAIN)
    assert np.array_equal(y.data.reshape(-1), [1.0, 3.0])


def test_adaptive_bn_rejects_singleton_batch():
    state = _bn_state()
    with pytest.raises(ValueError):
        bn_forward(Tensor(np.ones((1, 1, 2, 2))), state,
                   BranchMode.ADAPTIVE_TRAIN)


def _bn_case(mode, seed=0):
    """Float64 BN layer (3 channels) with non-trivial stats and affines,
    its input registered as parameter "x", and a loss that weighs each
    output element differently."""
    rng = np.random.default_rng(seed)
    ps = ParamStore()
    state = BNLayerState(3, ps, "bn1", np.float64, eps=1e-3)
    for t in (state.gamma_a, state.gamma_f):
        t.data = rng.uniform(0.5, 2.0, size=3)
    for t in (state.beta_a, state.beta_f):
        t.data = rng.normal(size=3)
    state.running_mean = rng.normal(size=3)
    state.frozen_mean = rng.normal(size=3)
    state.running_var = rng.uniform(0.5, 2.0, size=3)
    state.frozen_var = rng.uniform(0.5, 2.0, size=3)
    ps.add("x", rng.normal(1.0, 2.0, size=(4, 3, 3, 2)))
    weights = rng.normal(size=(4, 3, 3, 2))

    def loss():
        y, _ = bn_forward(ps["x"], state, mode)
        return (y * weights).sum()

    return ps, state, loss


def _affine_names(mode):
    branch = "f" if mode is BranchMode.FROZEN_TRAIN else "a"
    return [f"bn1.gamma_{branch}", f"bn1.beta_{branch}"]


@pytest.mark.parametrize("mode", list(BranchMode))
def test_bn_gradients_match_finite_diff(mode):
    ps, state, loss = _bn_case(mode)
    names = ["x"] + _affine_names(mode)
    grads = backprop(loss(), ps, names)
    fd = finite_diff_grad(lambda: loss().item(), ps, h=1e-6, names=names)
    for name in names:
        assert np.abs(grads[name]).max() > 1e-3
        assert np.allclose(grads[name], fd[name], rtol=1e-6, atol=1e-8)


def test_adaptive_batch_stats_match_numpy():
    ps, state, _ = _bn_case(BranchMode.ADAPTIVE_TRAIN, seed=1)
    x = ps["x"].data
    _, (mean, var) = bn_forward(ps["x"], state, BranchMode.ADAPTIVE_TRAIN)
    assert mean.shape == var.shape == (3,)
    assert np.allclose(mean, x.mean(axis=(0, 2, 3)), rtol=1e-14, atol=1e-15)
    assert np.allclose(var, x.var(axis=(0, 2, 3)), rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("mode", list(BranchMode))
def test_bn_forward_records_one_node(mode):
    ps, state, _ = _bn_case(mode)
    y, _ = bn_forward(ps["x"], state, mode)
    operands = [ps[name] for name in ["x"] + _affine_names(mode)]
    assert [id(t) for t in y._prev] == [id(t) for t in operands]


def test_running_ema_from_zero():
    state = _bn_state()
    bn_update_running(state, (np.array([1.0]), np.array([1.0])))
    assert state.running_mean[0] == pytest.approx(0.1, abs=1e-15)


def test_running_ema_fixed_point():
    state = _bn_state()
    state.running_mean = np.array([0.7])
    state.running_var = np.array([1.3])
    bn_update_running(state, (np.array([0.7]), np.array([1.3])))
    assert state.running_mean[0] == pytest.approx(0.7, abs=1e-15)
    assert state.running_var[0] == pytest.approx(1.3, abs=1e-15)


def test_running_ema_composes():
    state = _bn_state()
    s = 2.5
    bn_update_running(state, (np.array([s]), np.array([1.0])))
    bn_update_running(state, (np.array([s]), np.array([1.0])))
    assert state.running_mean[0] == pytest.approx(0.19 * s, abs=1e-15)


def test_inference_uses_running_stats():
    state = _bn_state(eps=0.0)
    state.running_mean = np.array([1.0])
    state.running_var = np.array([9.0])
    x = Tensor(np.full((1, 1, 1, 1), 7.0))
    y, _ = bn_forward(x, state, BranchMode.INFERENCE)
    assert y.data.reshape(-1)[0] == 2.0


def test_bn_forward_never_mutates_state():
    state = _bn_state(eps=1e-5)
    before = (state.running_mean.copy(), state.running_var.copy(),
              state.frozen_mean.copy(), state.frozen_var.copy())
    x = Tensor(np.random.default_rng(0).normal(size=(4, 1, 3, 3)))
    for mode in BranchMode:
        bn_forward(x, state, mode)
    after = (state.running_mean, state.running_var,
             state.frozen_mean, state.frozen_var)
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_branches_share_conv_weights():
    model = _model()
    x = np.random.default_rng(1).uniform(size=(4, 3, 8, 8))
    _, frozen_before = model.forward(x, BranchMode.FROZEN_TRAIN)
    model.params["conv1"].data = model.params["conv1"].data * 2.0
    _, frozen_after = model.forward(x, BranchMode.FROZEN_TRAIN)
    _, infer_after = model.forward(x, BranchMode.INFERENCE)
    # a single kernel edit is visible from every branch
    assert not np.allclose(frozen_before.data, frozen_after.data)
    assert not np.allclose(frozen_before.data, infer_after.data)


def test_adaptive_branch_invariant_to_kernel_rescaling():
    model = _model(eps=0.0)  # invariance is exact only without the eps floor
    x = np.random.default_rng(2).uniform(size=(6, 3, 8, 8))
    _, base = model.forward(x, BranchMode.ADAPTIVE_TRAIN,
                            update_running=False)
    model.params["conv1"].data = model.params["conv1"].data * 5.0
    _, scaled = model.forward(x, BranchMode.ADAPTIVE_TRAIN,
                              update_running=False)
    assert np.abs(scaled.data - base.data).max() <= 1e-6


def test_frozen_branch_not_invariant_to_kernel_rescaling():
    model = _model()
    x = np.random.default_rng(3).uniform(size=(6, 3, 8, 8))
    _, base = model.forward(x, BranchMode.FROZEN_TRAIN)
    model.params["conv1"].data = model.params["conv1"].data * 5.0
    _, scaled = model.forward(x, BranchMode.FROZEN_TRAIN)
    assert np.abs(scaled.data - base.data).max() > 1e-3


def test_frozen_stats_untouched_by_training():
    model = _model(dtype="float32", classes=2)
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(32, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 2, size=32)
    before = {k: v.copy() for k, v in model.stat_arrays().items()
              if "frozen" in k}
    running_before = {k: v.copy() for k, v in model.stat_arrays().items()
                      if "running" in k}
    cfg = TrainConfig(method="at", eta=0.01, epochs=1, batch=8,
                      milestones=(), seed=0,
                      attack=AttackConfig(epsilon=2 / 255, alpha=1 / 255,
                                          steps=2))
    run_training(cfg, (x, y), (x[:8], y[:8]), model)
    after = model.stat_arrays()
    for k, v in before.items():
        assert np.array_equal(v, after[k])
    assert any(not np.array_equal(v, after[k])
               for k, v in running_before.items())


def test_head_selection_and_errors():
    model = _model(source_classes=0)
    with pytest.raises(ValueError):
        model.head_names("source")
    with pytest.raises(ValueError):
        model.head_names("bogus")
    model = _model(source_classes=5)
    assert model.head_names("source") == ("src_head.w", "src_head.b")


def test_copy_model_is_bitwise_and_independent():
    model = _model()
    clone = copy_model(model)
    x = np.random.default_rng(5).uniform(size=(3, 3, 8, 8))
    _, a = model.forward(x, BranchMode.INFERENCE)
    _, b = clone.forward(x, BranchMode.INFERENCE)
    assert np.array_equal(a.data, b.data)
    clone.params["conv1"].data = clone.params["conv1"].data + 1.0
    assert not np.array_equal(model.params["conv1"].data,
                              clone.params["conv1"].data)


def test_finetune_model_inherits_backbone_and_stats():
    pre = _model(classes=4, seed=9)
    for state in pre.bn:
        state.running_mean = np.random.default_rng(6).normal(
            size=state.channels)
        state.running_var = np.random.default_rng(7).uniform(
            0.5, 2.0, size=state.channels)
    ft = make_finetune_model(pre, target_classes=3, seed=1)
    for name in pre.conv_names():
        assert np.array_equal(ft.params[name].data, pre.params[name].data)
    for s_pre, s_ft in zip(pre.bn, ft.bn):
        assert np.array_equal(s_ft.frozen_mean, s_pre.running_mean)
        assert np.array_equal(s_ft.frozen_var, s_pre.running_var)
        assert np.array_equal(s_ft.gamma_f.data, s_pre.gamma_a.data)
    assert np.array_equal(ft.params["src_head.w"].data,
                          pre.params["head.w"].data)
    assert ft.params["head.w"].data.shape == (pre.config.widths[-1], 3)


def test_finetune_target_head_depends_on_seed():
    pre = _model(classes=4, seed=9)
    a = make_finetune_model(pre, 3, seed=1)
    b = make_finetune_model(pre, 3, seed=2)
    assert not np.array_equal(a.params["head.w"].data,
                              b.params["head.w"].data)
    c = make_finetune_model(pre, 3, seed=1)
    assert np.array_equal(a.params["head.w"].data, c.params["head.w"].data)


def test_update_running_defaults_by_mode():
    model = _model()
    x = np.random.default_rng(8).uniform(size=(4, 3, 8, 8))
    before = model.bn[0].running_mean.copy()
    model.forward(x, BranchMode.INFERENCE)
    model.forward(x, BranchMode.FROZEN_TRAIN)
    model.forward(x, BranchMode.ADAPTIVE_TRAIN)
    assert np.array_equal(model.bn[0].running_mean, before)
    model.forward(x, BranchMode.ADAPTIVE_TRAIN, update_running=True)
    assert not np.array_equal(model.bn[0].running_mean, before)


@pytest.mark.parametrize("mode", list(BranchMode))
def test_conv_outputs_are_channels_last_and_input_grads_keep_layout(mode):
    model = _model(dtype="float32")
    rng = np.random.default_rng(9)
    x = Tensor(rng.uniform(size=(5, 3, 8, 8)).astype(np.float32),
               requires_grad=True)
    capture = {}
    _, logits = model.forward(x, mode, update_running=False, capture=capture)
    softmax_cross_entropy(logits, rng.integers(0, 3, size=5)).backward()
    for i, width in enumerate(model.config.widths, start=1):
        pre = capture[f"bn{i}.pre"]
        assert pre.shape[:2] == (5, width)  # NCHW in shape
        assert pre.strides[1] == pre.itemsize  # channels innermost in memory
        # each conv's input gradient has its input's memory order
        conv_in = capture[f"bn{i}.in"]
        assert conv_in.grad.strides == conv_in.data.strides
    assert capture["bn1.in"].data.flags.c_contiguous
    assert not capture["bn2.in"].data.flags.c_contiguous
