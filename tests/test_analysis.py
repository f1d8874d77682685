import numpy as np
import pytest

from twins_lab.analysis import (evaluate, frozen_grad_formula_check,
                                grad_norm_epoch_stats, overfitting_gap,
                                scale_probe, weight_distance)
from twins_lab import analysis
from twins_lab import attack as attack_module
from twins_lab import network
from twins_lab.attack import AttackConfig
from twins_lab.network import MiniCNN, ModelConfig


def test_grad_norm_stats_hand_values():
    mu, sigma, cv = grad_norm_epoch_stats([3.0, 4.0, 5.0])
    assert mu == pytest.approx(4.0, abs=1e-15)
    assert sigma == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
    assert cv == pytest.approx(np.sqrt(2.0 / 3.0) / 4.0, abs=1e-12)


def test_grad_norm_stats_constant_log():
    mu, sigma, cv = grad_norm_epoch_stats([2.5, 2.5, 2.5, 2.5])
    assert (mu, sigma, cv) == (2.5, 0.0, 0.0)


def test_grad_norm_stats_zero_mean_has_zero_cv():
    assert grad_norm_epoch_stats([0.0, 0.0]) == (0.0, 0.0, 0.0)


def test_grad_norm_stats_rejects_bad_logs():
    with pytest.raises(ValueError):
        grad_norm_epoch_stats([])
    with pytest.raises(ValueError):
        grad_norm_epoch_stats([1.0, -0.5])


def test_weight_distance_hand_value():
    theta = {"a": np.array([3.0]), "b": np.array([4.0])}
    ref = {"a": np.array([0.0]), "b": np.array([0.0])}
    assert weight_distance(theta, ref) == pytest.approx(5.0, abs=1e-15)


def test_weight_distance_zero_at_reference():
    theta = {"w": np.random.default_rng(0).normal(size=(3, 3))}
    assert weight_distance(theta, {k: v.copy() for k, v in theta.items()}) == 0


def test_weight_distance_validates_inputs():
    with pytest.raises(ValueError):
        weight_distance({"a": np.zeros(2)}, {"b": np.zeros(2)})
    with pytest.raises(ValueError):
        weight_distance({"a": np.zeros(2)}, {"a": np.zeros(3)})


def test_overfitting_gap_hand_values():
    best, final, gap = overfitting_gap([50.0, 53.0, 52.4])
    assert best == 53.0 and final == 52.4
    assert gap == pytest.approx(0.6, abs=1e-12)


def test_overfitting_gap_typical_magnitudes():
    best, final, gap = overfitting_gap([51.84, 49.41])
    assert gap == pytest.approx(2.43, abs=1e-12)


def test_overfitting_gap_monotone_history_is_zero():
    assert overfitting_gap([0.1, 0.2, 0.3])[2] == 0.0


def test_overfitting_gap_rejects_empty():
    with pytest.raises(ValueError):
        overfitting_gap([])


def _model(seed=0, classes=3):
    cfg = ModelConfig(input_shape=(3, 8, 8), widths=(4, 6),
                      target_classes=classes, dtype="float64")
    model = MiniCNN(cfg, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for state in model.bn:
        state.frozen_mean = rng.normal(0, 0.1, size=state.channels)
        state.frozen_var = rng.uniform(0.5, 2.0, size=state.channels)
    return model


def _batch(seed=0, n=6, classes=3):
    rng = np.random.default_rng(seed)
    return (rng.uniform(size=(n, 3, 8, 8)), rng.integers(0, classes, size=n))


def test_scale_probe_identity_gamma():
    model = _model()
    reports = scale_probe(model, "conv1", [1.0], _batch())
    assert len(reports) == 2
    for rep in reports:
        assert rep.forward_delta == 0.0
        assert rep.grad_ratio_min == 1.0 and rep.grad_ratio_max == 1.0
        assert rep.argmax_equal


def test_scale_probe_restores_kernel():
    model = _model()
    before = model.params["conv1"].data.copy()
    scale_probe(model, "conv1", [0.5, 2.0], _batch())
    assert np.array_equal(model.params["conv1"].data, before)


def test_scale_probe_rejects_non_bn_layer():
    model = _model()
    with pytest.raises(ValueError):
        scale_probe(model, "head.w", [2.0], _batch())


def test_frozen_grad_formula_on_random_model():
    model = _model(seed=3)
    auto, analytic = frozen_grad_formula_check(model, "conv1", _batch(seed=3))
    assert auto.shape == analytic.shape
    denom = max(np.abs(analytic).max(), 1e-12)
    assert np.abs(auto - analytic).max() / denom <= 1e-9


def test_frozen_grad_formula_follows_network_geometry(monkeypatch):
    # 1x1 kernels at stride 1: the check must take its kernel size from
    # the kernel and its stride and padding from the network
    monkeypatch.setitem(network.CONV_GEOMETRY, "stride", 1)
    model = _model(seed=5)
    rng = np.random.default_rng(6)
    for name in model.conv_names():
        o, c = model.params[name].data.shape[:2]
        model.params[name].data = rng.normal(size=(o, c, 1, 1))
    for layer in model.conv_names():
        auto, analytic = frozen_grad_formula_check(model, layer,
                                                   _batch(seed=7))
        denom = max(np.abs(analytic).max(), 1e-12)
        assert np.abs(auto - analytic).max() / denom <= 1e-9


def test_evaluate_chance_level_on_random_labels():
    model = _model(seed=4, classes=4)
    rng = np.random.default_rng(5)
    n = 400
    x = rng.uniform(size=(n, 3, 8, 8))
    y = rng.integers(0, 4, size=n)  # independent of x by construction
    clean, robust = evaluate(model, (x, y))
    assert robust is None
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert abs(clean - 0.25) <= 3 * sigma


def test_evaluate_zero_epsilon_robust_equals_clean():
    model = _model(seed=6)
    x, y = _batch(seed=7, n=40)
    attack = AttackConfig(epsilon=0.0, alpha=0.01, steps=5)
    clean, robust = evaluate(model, (x, y), attack,
                             rng=np.random.default_rng(0))
    assert robust == clean


def test_evaluate_with_attack_returns_valid_fraction():
    model = _model(seed=8)
    x, y = _batch(seed=9, n=60)
    attack = AttackConfig(epsilon=0.1, alpha=0.03, steps=5)
    _, robust = evaluate(model, (x, y), attack,
                         rng=np.random.default_rng(1))
    assert 0.0 <= robust <= 1.0


def test_evaluate_rejects_an_empty_dataset():
    x, y = _batch(n=6)
    with pytest.raises(ValueError, match="empty"):
        evaluate(_model(), (x[:0], y[:0]), AttackConfig(epsilon=0.0))


def _count_forwarded_images(monkeypatch, model):
    """Branch mode -> images passed through `model.forward`, summed once
    the returned `total()` is called. Each call appends one (mode, count)
    pair; appending is atomic, so calls from any thread are counted."""
    calls = []
    forward = model.forward

    def counting(x, mode, *args, **kwargs):
        calls.append((mode, x.shape[0]))
        return forward(x, mode, *args, **kwargs)

    def total():
        images = {}
        for mode, count in calls:
            images[mode] = images.get(mode, 0) + count
        return images

    monkeypatch.setattr(model, "forward", counting)
    return total


FORWARDS_PER_BATCH = [
    # the attack returns the batch unchanged: clean predictions are reused
    (AttackConfig(epsilon=0.0, alpha=0.01, steps=5), 1),
    (AttackConfig(epsilon=0.1, alpha=0.01, steps=0, rand_init=False), 1),
    # clean and robust predictions, plus one pass per attack step
    (AttackConfig(epsilon=0.1, alpha=0.01, steps=0), 2),
    (AttackConfig(epsilon=0.1, alpha=0.03, steps=2, rand_init=False), 4),
]


@pytest.mark.parametrize("attack, per_batch", FORWARDS_PER_BATCH)
def test_evaluate_forwards_per_batch(monkeypatch, attack, per_batch):
    _check_forwards_per_batch(monkeypatch, attack, per_batch)


@pytest.mark.parametrize("attack, per_batch", FORWARDS_PER_BATCH)
def test_evaluate_forwards_per_batch_with_split_attacks(monkeypatch, attack,
                                                        per_batch):
    # every batch's attack runs as two halves, of 8 or 4 images
    monkeypatch.setattr(attack_module, "_MIN_SPLIT_BATCH", 2)
    _check_forwards_per_batch(monkeypatch, attack, per_batch)


def _check_forwards_per_batch(monkeypatch, attack, per_batch):
    monkeypatch.setattr(analysis, "EVAL_BATCH", 16)
    x, y = _batch(seed=10, n=40)
    reference = evaluate(_model(seed=11), (x, y), attack,
                         rng=np.random.default_rng(2))
    model = _model(seed=11)
    forwarded = _count_forwarded_images(monkeypatch, model)
    clean, robust = evaluate(model, (x, y), attack,
                             rng=np.random.default_rng(2))
    # each of the 40 images passes per_batch times, however a batch's
    # attack steps are split
    assert forwarded() == {network.BranchMode.INFERENCE: per_batch * len(y)}
    assert (clean, robust) == reference
    if per_batch == 1:
        assert robust == clean
