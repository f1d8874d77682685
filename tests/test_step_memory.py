"""Each training and attack step frees its autodiff graph before the next
step builds one, so a loop of steps peaks at about one step's memory; a
prediction builds no graph at all. A conv, BN and ReLU layer is one graph
node, so an attack step's graph keeps no pre-BN array or its adjoint."""

import gc
import tracemalloc

import numpy as np
import pytest

from twins_lab import attack, tensor
from twins_lab.attack import AttackConfig, pgd_attack
from twins_lab.network import BranchMode, MiniCNN, ModelConfig, predict
from twins_lab.tensor import Tensor, backprop, batch_norm, conv2d, untracked
from twins_lab.training import (TrainConfig, batch_loss, run_training,
                                trainable_names)

# a loop that keeps one step's graph while it builds the next reads
# 1.4-1.7x here; one that frees it first reads 1.04-1.08x
BOUND = 1.3

# float32 values per image at the peak of one std training step on 64
# images: 8,821 when each convolution frees its im2col columns once it has
# taken its kernel gradient, 11,126 when they lived through the rest of the
# pass; the bound leaves 10% headroom over 8,821
TRAIN_STEP_VALUES_PER_IMAGE = 9700

# float32 values per image at the peak of one INFERENCE attack step on
# 128 images: 5,458 with one graph node per layer, 9,619 when each layer
# was a conv node and a BN node, whose graph kept the pre-BN array and its
# adjoint; the bound leaves 19% headroom over 5,458
STEP_VALUES_PER_IMAGE = 6500


def _model():
    cfg = ModelConfig(input_shape=(3, 16, 16), widths=(16, 32),
                      target_classes=3)
    return MiniCNN(cfg, rng=np.random.default_rng(0))


def _std_config(batch):
    return TrainConfig(method="std", eta=0.01, epochs=1, batch=batch,
                       milestones=(),
                       attack=AttackConfig(epsilon=2 / 255, alpha=1 / 255,
                                           steps=1))


def _data(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 3, 16, 16)).astype(np.float32)
    return x, rng.integers(0, 3, size=n)


def _peak_bytes(fn):
    """Peak traced bytes that `fn()` allocates above what was live before."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_training_loop_peaks_at_one_step():
    model = _model()
    cfg = _std_config(64)
    train, val = _data(4 * 64), _data(8, seed=1)
    names = trainable_names(model, cfg.method)

    def one_step():
        loss = batch_loss(model, train[0][:64], train[1][:64], cfg,
                          np.random.default_rng(0))
        backprop(loss, model.params, names)

    step = _peak_bytes(one_step)
    loop = _peak_bytes(lambda: run_training(cfg, train, val, model))
    assert loop < BOUND * step, (loop, step)


def test_attack_loop_peaks_at_one_step():
    model = _model()
    x, y = _data(64)

    def attack(steps):
        cfg = AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=steps,
                           rand_init=False)
        return lambda: pgd_attack(model, BranchMode.ADAPTIVE_TRAIN, x, y,
                                  cfg, np.random.default_rng(0))

    one = _peak_bytes(attack(1))
    many = _peak_bytes(attack(5))
    assert many < BOUND * one, (many, one)


@pytest.mark.parametrize("branch", [BranchMode.ADAPTIVE_TRAIN,
                                    BranchMode.INFERENCE])
def test_kl_attack_peaks_like_a_ce_attack(monkeypatch, branch):
    """The kl_to_clean target keeps the clean logits' values, not the
    clean pass's graph; holding that graph read 1.5x here."""
    # one CPU, so an INFERENCE attack's halves never overlap and its
    # peak does not depend on how two threads interleave
    monkeypatch.setattr(attack, "_usable_cpus", lambda: 1)
    model = _model()
    x, y = _data(128)

    def attack_with(loss_kind):
        cfg = AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=2,
                           loss_kind=loss_kind)
        return lambda: pgd_attack(model, branch, x, y, cfg,
                                  np.random.default_rng(0))

    ce = _peak_bytes(attack_with("ce"))
    kl = _peak_bytes(attack_with("kl_to_clean"))
    assert kl < 1.1 * ce, (kl, ce)


def test_prediction_records_no_graph(monkeypatch):
    """A prediction keeps no im2col columns, x-hat or head input for a
    parameter gradient: it peaks at 2.9 MiB here, and a tracked forward
    at 4.3 MiB."""
    model = _model()
    x, _ = _data(128)
    outputs = []
    forward = model.forward

    def recording(*args, **kwargs):
        outputs.append(forward(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(model, "forward", recording)
    predict(model, x, BranchMode.INFERENCE)
    assert outputs[0][1]._prev == ()
    outputs.clear()
    monkeypatch.undo()

    def tracked():
        _, logits = model.forward(x, BranchMode.INFERENCE)
        return logits.data.argmax(axis=1)

    untracked = _peak_bytes(lambda: predict(model, x, BranchMode.INFERENCE))
    full = _peak_bytes(tracked)
    assert untracked < 0.8 * full, (untracked, full)


def _recorded_nodes(root):
    """The graph nodes below `root` that an op recorded (leaves excluded)."""
    count, stack, seen = 0, [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._prev:
            seen.add(id(node))
            count += 1
            stack.extend(node._prev)
    return count


@pytest.mark.parametrize("mode", list(BranchMode))
def test_branch_forward_records_four_nodes(mode):
    """One node per conv, BN and ReLU layer, then pooling and the head; an
    untracked forward of an untracked input records none."""
    model = _model()
    x, _ = _data(4)
    _, logits = model.forward(x, mode)
    assert len(model.bn) == 2 and _recorded_nodes(logits) == 4
    with untracked(model.params):
        _, logits = model.forward(x, mode)
    assert _recorded_nodes(logits) == 0


def test_inference_attack_step_peaks_under_a_per_image_bound():
    """One signed-gradient step on 128 images, the size of each half of
    an evaluation batch's attack."""
    model = _model()
    x, y = _data(128)
    cfg = AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=1)

    def step():
        with untracked(model.params):
            attack._ascent_sign(model, BranchMode.INFERENCE, x, y, None,
                                cfg, "target")

    step()  # warm-up, so that first-call allocations are not counted
    per_image = _peak_bytes(step) / x.itemsize / len(x)
    assert per_image < STEP_VALUES_PER_IMAGE, per_image


def test_training_step_peaks_under_a_per_image_bound():
    """One std step, forward and backward, on 64 images; the input
    gradient's buffers reuse the memory of the im2col columns that the
    kernel gradient was taken from."""
    model = _model()
    x, y = _data(64)
    cfg = _std_config(64)
    names = trainable_names(model, cfg.method)

    def step():
        loss = batch_loss(model, x, y, cfg, np.random.default_rng(0))
        backprop(loss, model.params, names)

    step()  # warm-up, so that first-call allocations are not counted
    per_image = _peak_bytes(step) / x.itemsize / len(x)
    assert per_image < TRAIN_STEP_VALUES_PER_IMAGE, per_image


def test_second_pass_rebuilds_the_freed_columns(monkeypatch):
    """A convolution keeps its im2col columns only until its kernel
    gradient is taken, so differentiating the same conv, BN and ReLU graph
    again rebuilds them, once, and gives a bitwise-equal gradient."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 3, 6, 6)), requires_grad=True)
    k = Tensor(rng.normal(size=(5, 3, 3, 3)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, size=5), requires_grad=True)
    beta = Tensor(rng.normal(size=5), requires_grad=True)
    weight = rng.normal(size=(4, 5, 6, 6))
    y, _, _ = batch_norm(conv2d(x, k, pad=1), gamma, beta, 1e-5)
    loss = (y * weight).sum()
    loss.backward()
    k_grad, x_grad = k.grad.copy(), x.grad.copy()

    builds = []
    im2col = tensor._im2col_matrix

    def counting(*args):
        builds.append(args)
        return im2col(*args)

    monkeypatch.setattr(tensor, "_im2col_matrix", counting)
    loss.backward()
    assert len(builds) == 1
    assert np.array_equal(k.grad, k_grad)
    assert np.array_equal(x.grad, x_grad)
