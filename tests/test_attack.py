import threading

import numpy as np
import pytest

from twins_lab import attack, tensor
from twins_lab.attack import AttackConfig, pgd_attack, project_linf
from twins_lab.network import BranchMode, MiniCNN, ModelConfig
from twins_lab.tensor import (Tensor, backprop, finite_diff_grad,
                              kl_div_logits, linear, softmax_cross_entropy,
                              untracked)


class LinearSoftmaxModel:
    """Flatten -> linear -> softmax classifier, convex CE in the input."""

    def __init__(self, w, b):
        self.config = ModelConfig(dtype="float64")
        self.params = {
            "w": Tensor(w, requires_grad=True, dtype=np.float64),
            "b": Tensor(b, requires_grad=True, dtype=np.float64)}
        self.w = self.params["w"].data
        self.b = self.params["b"].data

    def forward(self, x, mode, head="target", update_running=False,
                capture=None):
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float64))
        return x, linear(x, self.params["w"], self.params["b"])


def _linear_setup(seed=0, n=5, d=12, k=3):
    rng = np.random.default_rng(seed)
    model = LinearSoftmaxModel(rng.normal(size=(d, k)), rng.normal(size=k))
    x = rng.uniform(0.2, 0.8, size=(n, 1, 3, 4))
    y = rng.integers(0, k, size=n)
    return model, x, y


def _ce_value(model, x, y):
    _, logits = model.forward(x, BranchMode.INFERENCE)
    return softmax_cross_entropy(logits, y).item()


def test_project_identity_inside_ball():
    x = np.array([0.5, 0.5])
    assert np.array_equal(project_linf(x.copy(), x, 0.1), x)


def test_project_clamps_to_ball_face():
    x_adv = np.array([0.9])
    x = np.array([0.5])
    assert project_linf(x_adv, x, 0.1)[0] == pytest.approx(0.6, abs=1e-15)


def test_project_respects_pixel_range():
    x = np.array([0.02, 0.98])
    out = project_linf(np.array([-0.5, 1.5]), x, 0.1)
    assert out[0] == 0.0 and out[1] == 1.0


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        AttackConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        AttackConfig(loss_kind="fgsm")


def test_zero_epsilon_returns_input_bitwise():
    model, x, y = _linear_setup()
    cfg = AttackConfig(epsilon=0.0, alpha=0.01, steps=5)
    adv = pgd_attack(model, BranchMode.INFERENCE, x, y, cfg)
    assert np.array_equal(adv, x)
    assert adv is not x


def test_single_step_matches_closed_form_bitwise():
    model, x, y = _linear_setup(seed=1)
    cfg = AttackConfig(epsilon=0.05, alpha=0.02, steps=1, rand_init=False)
    adv = pgd_attack(model, BranchMode.INFERENCE, x, y, cfg)

    n = len(y)
    flat = x.reshape(n, -1)
    z = flat @ model.w + model.b
    ls = (z - z.max(axis=1, keepdims=True))
    ls = ls - np.log(np.exp(ls).sum(axis=1, keepdims=True))
    g = np.exp(ls)
    g[np.arange(n), y] -= 1.0
    gx = ((np.ones(()) * g) / n) @ model.w.T
    expected = project_linf(x + cfg.alpha * np.sign(gx.reshape(x.shape)),
                            x, cfg.epsilon)
    assert np.array_equal(adv, expected)


def test_multi_step_matches_iterated_closed_form_bitwise():
    model, x, y = _linear_setup(seed=2)
    cfg = AttackConfig(epsilon=0.06, alpha=0.015, steps=3, rand_init=False)
    adv = pgd_attack(model, BranchMode.INFERENCE, x, y, cfg)

    n = len(y)
    cur = x.copy()
    for _ in range(cfg.steps):
        flat = cur.reshape(n, -1)
        z = flat @ model.w + model.b
        ls = z - z.max(axis=1, keepdims=True)
        ls = ls - np.log(np.exp(ls).sum(axis=1, keepdims=True))
        g = np.exp(ls)
        g[np.arange(n), y] -= 1.0
        gx = ((np.ones(()) * g) / n) @ model.w.T
        cur = project_linf(cur + cfg.alpha * np.sign(gx.reshape(x.shape)),
                           x, cfg.epsilon)
    assert np.array_equal(adv, cur)


def test_loss_nondecreasing_for_convex_objective():
    model, x, y = _linear_setup(seed=3)
    losses = [_ce_value(model, x, y)]
    for steps in range(1, 8):
        cfg = AttackConfig(epsilon=0.08, alpha=0.01, steps=steps,
                           rand_init=False)
        adv = pgd_attack(model, BranchMode.INFERENCE, x, y, cfg)
        losses.append(_ce_value(model, adv, y))
    for a, b in zip(losses, losses[1:]):
        assert b >= a - 1e-12


def _mini_model(seed=0):
    cfg = ModelConfig(input_shape=(3, 8, 8), widths=(4, 6),
                      target_classes=3, dtype="float64")
    return MiniCNN(cfg, rng=np.random.default_rng(seed))


def test_attack_stays_in_ball_and_pixel_range():
    model = _mini_model()
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(6, 3, 8, 8))
    y = rng.integers(0, 3, size=6)
    cfg = AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=10)
    adv = pgd_attack(model, BranchMode.INFERENCE, x, y, cfg,
                     rng=np.random.default_rng(0))
    assert np.abs(adv - x).max() <= cfg.epsilon + 1e-12
    assert adv.min() >= 0.0 and adv.max() <= 1.0


def test_attack_deterministic_without_random_start():
    model = _mini_model()
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(4, 3, 8, 8))
    y = rng.integers(0, 3, size=4)
    cfg = AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=5,
                       rand_init=False)
    a = pgd_attack(model, BranchMode.ADAPTIVE_TRAIN, x, y, cfg)
    b = pgd_attack(model, BranchMode.ADAPTIVE_TRAIN, x, y, cfg)
    assert np.array_equal(a, b)


def test_attack_never_updates_running_stats():
    model = _mini_model()
    rng = np.random.default_rng(6)
    x = rng.uniform(size=(4, 3, 8, 8))
    y = rng.integers(0, 3, size=4)
    before = {k: v.copy() for k, v in model.stat_arrays().items()}
    cfg = AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=5)
    pgd_attack(model, BranchMode.ADAPTIVE_TRAIN, x, y, cfg,
               rng=np.random.default_rng(0))
    after = model.stat_arrays()
    for k, v in before.items():
        assert np.array_equal(v, after[k])


def test_kl_attack_moves_away_from_clean_prediction():
    model = _mini_model(seed=7)
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(6, 3, 8, 8))
    y = rng.integers(0, 3, size=6)
    # the random start matters: at the clean point the divergence
    # gradient vanishes exactly
    cfg = AttackConfig(epsilon=0.1, alpha=0.03, steps=10, rand_init=True,
                       loss_kind="kl_to_clean")
    adv = pgd_attack(model, BranchMode.INFERENCE, x, y, cfg,
                     rng=np.random.default_rng(0))
    _, clean = model.forward(x, BranchMode.INFERENCE)
    _, pert = model.forward(adv, BranchMode.INFERENCE)
    # the attacked logits must actually have moved
    assert np.abs(pert.data - clean.data).max() > 1e-4


def _attack_loss(model, xt, x, y, branch, loss_kind):
    """The objective one pgd_attack step differentiates."""
    _, logits = model.forward(xt, branch, update_running=False)
    if loss_kind == "ce":
        return softmax_cross_entropy(logits, y)
    _, clean = model.forward(Tensor(x), branch, update_running=False)
    return kl_div_logits(logits, Tensor(clean.data.copy()))


@pytest.mark.parametrize("loss_kind", ["ce", "kl_to_clean"])
@pytest.mark.parametrize("branch", list(BranchMode))
def test_input_only_pass_matches_full_pass_bitwise(branch, loss_kind):
    model = _mini_model(seed=9)
    rng = np.random.default_rng(10)
    x = rng.uniform(size=(4, 3, 8, 8))
    y = rng.integers(0, 3, size=4)
    xt = Tensor(np.clip(x + rng.uniform(-0.05, 0.05, size=x.shape), 0, 1),
                requires_grad=True)
    loss = _attack_loss(model, xt, x, y, branch, loss_kind)
    loss.backward()
    full = xt.grad.copy()
    assert np.abs(full).max() > 0.0
    for _, p in model.params.items():
        p.grad = None
    with untracked(model.params):
        loss = _attack_loss(model, xt, x, y, branch, loss_kind)
        loss.backward()
    assert np.array_equal(xt.grad, full)
    for name, p in model.params.items():
        assert p.grad is None, name


def test_attack_computes_no_kernel_gradient(monkeypatch):
    calls = []
    original = tensor.conv2d_weight_grad

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(tensor, "conv2d_weight_grad", counting)
    model = _mini_model()
    rng = np.random.default_rng(11)
    x = rng.uniform(size=(4, 3, 8, 8))
    y = rng.integers(0, 3, size=4)
    for branch in BranchMode:
        for loss_kind in ("ce", "kl_to_clean"):
            cfg = AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=3,
                               loss_kind=loss_kind)
            pgd_attack(model, branch, x, y, cfg,
                       rng=np.random.default_rng(0))
    assert calls == []
    _, logits = model.forward(x, BranchMode.ADAPTIVE_TRAIN,
                              update_running=False)
    backprop(softmax_cross_entropy(logits, y), model.params)
    assert len(calls) == len(model.conv_names())


def test_backprop_after_attack_matches_finite_diff():
    cfg = ModelConfig(input_shape=(2, 6, 6), widths=(3, 4),
                      target_classes=3, dtype="float64")
    model = MiniCNN(cfg, rng=np.random.default_rng(12))
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(4, 2, 6, 6))
    y = rng.integers(0, 3, size=4)
    adv = pgd_attack(model, BranchMode.ADAPTIVE_TRAIN, x, y,
                     AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=2),
                     rng=np.random.default_rng(0))

    def loss():
        _, logits = model.forward(adv, BranchMode.ADAPTIVE_TRAIN,
                                  update_running=False)
        return softmax_cross_entropy(logits, y)

    grads = backprop(loss(), model.params)
    fd = finite_diff_grad(lambda: loss().item(), model.params)
    live = 0
    for name in model.params:
        mask = np.abs(grads[name]) > 1e-8
        live += int(mask.sum())
        rel = (np.abs(grads[name] - fd[name])
               / np.maximum(np.abs(fd[name]), 1e-12))
        assert rel[mask].max(initial=0.0) <= 1e-4, name
    assert live > 0


def _record_forwards(monkeypatch, model):
    """(thread id, batch size) of every `model.forward` call; appending
    is atomic, so calls from any thread are recorded."""
    calls = []
    forward = model.forward

    def recording(x, mode, *args, **kwargs):
        calls.append((threading.get_ident(), x.shape[0]))
        return forward(x, mode, *args, **kwargs)

    monkeypatch.setattr(model, "forward", recording)
    return calls


@pytest.mark.parametrize("branch, n, cpus, threads, rows", [
    # fixed statistics, even batch of at least 128: two halves, at once
    # on two CPUs ...
    (BranchMode.INFERENCE, 128, 2, 2, 64),
    (BranchMode.FROZEN_TRAIN, 130, 2, 2, 65),
    # ... and one after the other in the calling thread on one CPU
    (BranchMode.INFERENCE, 128, 1, 1, 64),
    # batch statistics, an odd or a smaller batch: the whole batch at once
    (BranchMode.ADAPTIVE_TRAIN, 128, 2, 1, 128),
    (BranchMode.INFERENCE, 129, 2, 1, 129),
    (BranchMode.FROZEN_TRAIN, 126, 2, 1, 126),
])
def test_attack_split_rule(monkeypatch, branch, n, cpus, threads, rows):
    monkeypatch.setattr(attack, "_usable_cpus", lambda: cpus)
    model = _mini_model()
    rng = np.random.default_rng(14)
    x = rng.uniform(size=(n, 3, 8, 8))
    y = rng.integers(0, 3, size=n)
    calls = _record_forwards(monkeypatch, model)
    cfg = AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=3,
                       loss_kind="kl_to_clean")
    pgd_attack(model, branch, x, y, cfg, rng=np.random.default_rng(0))
    assert len({ident for ident, _ in calls}) == threads
    assert {size for _, size in calls} == {rows}
    # per part: one clean pass for the divergence target, one per step
    assert len(calls) == (n // rows) * (1 + cfg.steps)
    if threads == 1:
        assert {ident for ident, _ in calls} == {threading.get_ident()}


def test_attack_half_failure_is_raised_by_the_caller(monkeypatch):
    monkeypatch.setattr(attack, "_usable_cpus", lambda: 2)
    model = _mini_model()
    flags = {name: p.requires_grad for name, p in model.params.items()}
    x = np.random.default_rng(15).uniform(size=(128, 3, 8, 8))
    y = np.zeros(128, int)
    y[-1] = 7  # out of range, in the second half only
    cfg = AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=2)
    with pytest.raises(ValueError, match="labels must lie in"):
        pgd_attack(model, BranchMode.INFERENCE, x, y, cfg,
                   rng=np.random.default_rng(0))
    assert {name: p.requires_grad for name, p in model.params.items()} == flags


def test_attack_restores_each_parameter_flag_and_stale_gradient():
    model = _mini_model()
    model.params["conv2"].requires_grad = False  # a flag to restore as is
    flags = {name: p.requires_grad for name, p in model.params.items()}
    stale = {name: np.full_like(p.data, 7.0)
             for name, p in model.params.items()}
    for name, p in model.params.items():
        p.grad = stale[name]
    rng = np.random.default_rng(16)
    x = rng.uniform(size=(4, 3, 8, 8))
    y = rng.integers(0, 3, size=4)
    for branch in BranchMode:
        pgd_attack(model, branch, x, y,
                   AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=2),
                   rng=np.random.default_rng(0))
    assert {name: p.requires_grad for name, p in model.params.items()} == flags
    # no attack graph holds a parameter, so none is written to
    for name, p in model.params.items():
        assert p.grad is stale[name], name
