import gc

import numpy as np
import pytest

from twins_lab.attack import AttackConfig, pgd_attack
from twins_lab.data import DatasetSpec, gen_synthetic_dataset, split_train_val
from twins_lab.network import (BranchMode, MiniCNN, ModelConfig, copy_model,
                               make_finetune_model)
from twins_lab.tensor import (Tensor, backprop, feature_distance,
                              softmax_cross_entropy)
from twins_lab.training import (METHODS, TrainConfig, batch_loss, lr_at_epoch,
                                run_training, sgd_update, trainable_names,
                                warmup_bn)

ATTACK = AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=3,
                      rand_init=False)


def _finetune_model(seed=0, bn_momentum=0.1):
    cfg = ModelConfig(input_shape=(3, 8, 8), widths=(4, 6),
                      target_classes=4, dtype="float64",
                      bn_momentum=bn_momentum)
    pre = MiniCNN(cfg, rng=np.random.default_rng(seed))
    for state in pre.bn:
        rng = np.random.default_rng(seed + 13)
        state.running_mean = rng.normal(0, 0.1, size=state.channels)
        state.running_var = rng.uniform(0.5, 2.0, size=state.channels)
    return make_finetune_model(pre, target_classes=3, seed=seed + 1)


def _batch(seed=0, n=8, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 3, 8, 8))
    y = rng.integers(0, classes, size=n)
    return x, y


def _method_batch(method, dtype):
    """A fine-tuning model, batch, config and `batch_loss`'s reference and
    source keywords for `method`."""
    pre = MiniCNN(ModelConfig(input_shape=(3, 8, 8), widths=(4, 6),
                              target_classes=4, dtype=dtype),
                  rng=np.random.default_rng(0))
    model = make_finetune_model(pre, target_classes=3, seed=1)
    x, y = _batch(n=8)
    x = x.astype(dtype)
    inputs = {"reference": copy_model(model), "source": (x, y)}
    cfg = TrainConfig(method=method, attack=ATTACK, lambda_lwf=0.5,
                      lambda_uot=0.5)
    return model, x, y, cfg, inputs


def _graph_nodes(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._prev)
    return nodes


@pytest.mark.parametrize("method", METHODS)
def test_batch_graph_is_freed_without_the_cyclic_collector(method):
    model, x, y, cfg, inputs = _method_batch(method, "float32")
    gc.collect()
    gc.disable()
    try:
        loss = batch_loss(model, x, y, cfg, np.random.default_rng(2),
                          **inputs)
        backprop(loss, model.params, trainable_names(model, method))
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("method", METHODS)
def test_every_gradient_has_its_node_dtype_and_shape(method, dtype):
    model, x, y, cfg, inputs = _method_batch(method, dtype)
    loss = batch_loss(model, x, y, cfg, np.random.default_rng(2), **inputs)
    loss.backward()
    nodes = _graph_nodes(loss)
    assert len(nodes) > 10
    for node in nodes:
        assert isinstance(node.grad, np.ndarray)
        assert node.grad.dtype == node.dtype
        assert node.grad.shape == node.shape


def test_lr_schedule_values():
    cfg = TrainConfig(eta=3e-3, epochs=60, milestones=(30, 50), decay=0.1)
    assert lr_at_epoch(cfg, 0) == 3e-3
    assert lr_at_epoch(cfg, 29) == 3e-3
    assert lr_at_epoch(cfg, 30) == pytest.approx(3e-4)
    assert lr_at_epoch(cfg, 49) == pytest.approx(3e-4)
    assert lr_at_epoch(cfg, 50) == pytest.approx(3e-5)
    assert lr_at_epoch(cfg, 59) == pytest.approx(3e-5)
    with pytest.raises(ValueError):
        lr_at_epoch(cfg, 60)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(method="twins-qt")
    with pytest.raises(ValueError):
        TrainConfig(method="twins-at", batch=7)
    with pytest.raises(ValueError):
        TrainConfig(eta=-1.0)


def test_sgd_hand_steps():
    ps = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    velocity = {}
    # no decay, momentum 0.9, grad 1, rate 0.1:
    # v: 1, 1.9; w: 1 -> 0.9 -> 0.71
    sgd_update(ps, {"w": np.array([1.0])}, velocity, 0.1, 0.0, 0.9)
    assert ps["w"].data[0] == pytest.approx(0.9, abs=1e-15)
    assert velocity["w"][0] == pytest.approx(1.0, abs=1e-15)
    sgd_update(ps, {"w": np.array([1.0])}, velocity, 0.1, 0.0, 0.9)
    assert ps["w"].data[0] == pytest.approx(0.71, abs=1e-15)
    assert velocity["w"][0] == pytest.approx(1.9, abs=1e-15)


def test_sgd_weight_decay_coupled():
    ps = {"w": Tensor(np.array([2.0]), requires_grad=True)}
    # g_eff = 0 + 0.5*2 = 1, step = 0.1
    sgd_update(ps, {"w": np.array([0.0])}, {}, 0.1, 0.5, 0.0)
    assert ps["w"].data[0] == pytest.approx(1.9, abs=1e-15)


def test_sgd_missing_grad_raises():
    ps = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    with pytest.raises(KeyError):
        sgd_update(ps, {}, {}, 0.1, 0.0, 0.9)


def test_feature_distance_hand_value():
    feats = Tensor(np.array([[3.0, 4.0], [1.0, 1.0]]))
    ref = np.array([[0.0, 0.0], [1.0, 2.0]])
    # rows at distance 5 and 1
    assert feature_distance(feats, ref).item() == pytest.approx(3.0,
                                                                abs=1e-15)


def _shared_adv(model, x, y):
    return pgd_attack(model, BranchMode.ADAPTIVE_TRAIN, x, y, ATTACK)


def _loss(model, x, y, adv, method, reference=None, source=None, **kw):
    cfg = TrainConfig(method=method, batch=8, attack=ATTACK, **kw)
    return batch_loss(model, x, y, cfg, None, reference=reference,
                      source=source, adv=adv, update_running=False)


def test_twins_at_zero_penalty_reduces_to_at_bitwise():
    model = _finetune_model()
    x, y = _batch()
    adv = _shared_adv(model, x, y)
    twins = _loss(model, x, y, adv, "twins-at", lambda_twins=0.0)
    plain = _loss(model, x[:4], y[:4], adv[:4], "at")
    assert twins.item() == plain.item()


def test_trades_zero_beta_reduces_to_at_bitwise():
    model = _finetune_model(seed=2)
    x, y = _batch(seed=2)
    adv = _shared_adv(model, x, y)
    trades = _loss(model, x, y, adv, "trades", beta=0.0)
    plain = _loss(model, x, y, adv, "at")
    assert trades.item() == plain.item()


def test_twins_trades_zero_penalty_reduces_to_trades_bitwise():
    model = _finetune_model(seed=3)
    x, y = _batch(seed=3)
    adv = _shared_adv(model, x, y)
    twins = _loss(model, x, y, adv, "twins-trades", lambda_twins=0.0,
                  beta=6.0)
    plain = _loss(model, x[:4], y[:4], adv[:4], "trades", beta=6.0)
    assert twins.item() == plain.item()


def test_lwf_zero_penalty_reduces_to_at_bitwise():
    model = _finetune_model(seed=4)
    x, y = _batch(seed=4)
    adv = _shared_adv(model, x, y)
    lwf = _loss(model, x, y, adv, "lwf", reference=model, lambda_lwf=0.0)
    plain = _loss(model, x, y, adv, "at")
    assert lwf.item() == plain.item()


def test_lwf_penalty_adds_the_feature_distance():
    """lwf's loss is at's plus lambda_lwf times the distance from the
    adversarial features to the pre-trained copy's."""
    model = _finetune_model(seed=4)
    x, y = _batch(seed=4)
    adv = _shared_adv(model, x, y)
    pretrained = copy_model(model)
    lwf = _loss(model, x, y, adv, "lwf", reference=pretrained,
                lambda_lwf=0.5)
    plain = _loss(model, x, y, adv, "at")
    feats, _ = model.forward(adv, BranchMode.ADAPTIVE_TRAIN)
    ref, _ = pretrained.forward(adv, BranchMode.INFERENCE)
    distance = feature_distance(feats, ref.data).item()
    assert distance > 0
    assert lwf.item() == pytest.approx(plain.item() + 0.5 * distance,
                                       rel=1e-12)


def test_joint_zero_penalty_reduces_to_at_bitwise():
    model = _finetune_model(seed=5)
    x, y = _batch(seed=5)
    adv = _shared_adv(model, x, y)
    joint = _loss(model, x, y, adv, "joint", source=(x, y), lambda_uot=0.0)
    plain = _loss(model, x, y, adv, "at")
    assert joint.item() == plain.item()


def test_twins_gradient_is_weighted_sum_of_wings():
    model = _finetune_model(seed=6)
    x, y = _batch(seed=6)
    adv = _shared_adv(model, x, y)
    lam = 0.7
    names = model.conv_names()
    total = backprop(_loss(model, x, y, adv, "twins-at", lambda_twins=lam),
                     model.params, names)
    adaptive = backprop(_loss(model, x[:4], y[:4], adv[:4], "at"),
                        model.params, names)
    _, frozen_logits = model.forward(adv[4:], BranchMode.FROZEN_TRAIN)
    frozen = backprop(softmax_cross_entropy(frozen_logits, y[4:]),
                      model.params, names)
    for name in names:
        assert np.linalg.norm(adaptive[name]) > 0
        assert np.linalg.norm(frozen[name]) > 0
        combined = adaptive[name] + lam * frozen[name]
        assert np.allclose(total[name], combined, rtol=1e-9, atol=1e-14)


def test_twins_losses_reject_odd_batches():
    model = _finetune_model(seed=7)
    x, y = _batch(seed=7, n=5)
    cfg = TrainConfig(method="twins-at", batch=8, attack=ATTACK)
    with pytest.raises(ValueError):
        batch_loss(model, x, y, cfg, None)


def test_joint_requires_source_head():
    cfg = ModelConfig(input_shape=(3, 8, 8), widths=(4, 6),
                      target_classes=3, dtype="float64")
    model = MiniCNN(cfg, rng=np.random.default_rng(0))
    x, y = _batch(seed=8)
    tcfg = TrainConfig(method="joint", attack=ATTACK)
    with pytest.raises(ValueError, match="source-task head"):
        batch_loss(model, x, y, tcfg, None, source=(x, y))


@pytest.mark.parametrize("method", METHODS)
def test_trainable_names_per_method(method):
    """The frozen affines train iff the method is twins, which also needs
    an even batch; the source head trains iff it is joint; every other
    parameter trains under every method."""
    model = _finetune_model()
    frozen = {f"bn{i}.{p}" for i in (1, 2) for p in ("gamma_f", "beta_f")}
    source = {"src_head.w", "src_head.b"}
    every = set(model.params)
    assert frozen | source < every
    twins = method.startswith("twins")
    expected = ((every - frozen - source) | (frozen if twins else set())
                | (source if method == "joint" else set()))
    assert set(trainable_names(model, method)) == expected
    if twins:
        with pytest.raises(ValueError, match="even batch"):
            TrainConfig(method=method, batch=9)
    else:
        assert TrainConfig(method=method, batch=9).batch == 9


def test_batch_loss_rejects_unknown_method():
    model = _finetune_model(seed=12)
    x, y = _batch(seed=12)
    cfg = TrainConfig(method="at", attack=ATTACK)
    cfg.method = "twins-qt"
    with pytest.raises(ValueError, match="unknown training method"):
        batch_loss(model, x, y, cfg, np.random.default_rng(0))


def test_warmup_zero_epochs_leaves_stats_untouched():
    model = _finetune_model(seed=9)
    x, _ = _batch(seed=9, n=16)
    before = {k: v.copy() for k, v in model.stat_arrays().items()}
    warmup_bn(model, x, ATTACK, warmup_epochs=0)
    after = model.stat_arrays()
    for k, v in before.items():
        assert np.array_equal(v, after[k])


def _hand_warmup(model, x, m):
    """Each BN layer's frozen (mean, var) after one warmup batch `x`,
    folded with momentum `m`."""
    expected = []
    _, logits = model.forward(x, BranchMode.INFERENCE, head="source",
                              update_running=False)
    pseudo = np.argmax(logits.data, axis=1)
    adv = pgd_attack(model, BranchMode.ADAPTIVE_TRAIN, x, pseudo, ATTACK,
                     head="source")
    capture = {}
    model.forward(adv, BranchMode.FROZEN_TRAIN, head="source",
                  update_running=False, capture=capture)
    for i, state in enumerate(model.bn, start=1):
        pre = capture[f"bn{i}.pre"]
        expected.append(((1 - m) * state.frozen_mean
                         + m * pre.mean(axis=(0, 2, 3)),
                         (1 - m) * state.frozen_var
                         + m * pre.var(axis=(0, 2, 3))))
    return expected


def test_warmup_single_batch_ema_matches_hand_computation():
    model = _finetune_model(seed=10)
    x, _ = _batch(seed=10, n=8)
    expected = _hand_warmup(model, x, 0.1)
    warmup_bn(model, x, ATTACK, warmup_epochs=1, batch=8)
    for state, (em, ev) in zip(model.bn, expected):
        assert np.abs(state.frozen_mean - em).max() <= 1e-12
        assert np.abs(state.frozen_var - ev).max() <= 1e-12


def test_warmup_folds_with_the_model_bn_momentum():
    """Warmup folds with the momentum the running statistics train with,
    the one a checkpoint carries, not a separate setting."""
    model = _finetune_model(seed=12, bn_momentum=0.3)
    assert all(state.momentum == 0.3 for state in model.bn)
    x, _ = _batch(seed=12, n=8)
    expected = _hand_warmup(model, x, 0.3)
    default = _hand_warmup(model, x, 0.1)
    warmup_bn(model, x, ATTACK, warmup_epochs=1, batch=8)
    for state, (em, ev), (dm, _) in zip(model.bn, expected, default):
        assert np.abs(state.frozen_mean - em).max() <= 1e-12
        assert np.abs(state.frozen_var - ev).max() <= 1e-12
        assert np.abs(state.frozen_mean - dm).max() > 1e-6


def test_warmup_only_touches_frozen_stats():
    model = _finetune_model(seed=11)
    x, _ = _batch(seed=11, n=8)
    running = {k: v.copy() for k, v in model.stat_arrays().items()
               if "running" in k}
    params = {n: t.data.copy() for n, t in model.params.items()}
    warmup_bn(model, x, ATTACK, warmup_epochs=1, batch=8)
    after = model.stat_arrays()
    for k, v in running.items():
        assert np.array_equal(v, after[k])
    for n, v in params.items():
        assert np.array_equal(v, model.params[n].data)


def _tiny_task(seed=0):
    spec = DatasetSpec(classes=2, image_shape=(3, 8, 8), per_class=24,
                       noise_std=0.15, seed=seed)
    x, y = gen_synthetic_dataset(spec)
    return split_train_val(x, y, 0.25, seed=seed)


def _tiny_model(seed=0, classes=2):
    cfg = ModelConfig(input_shape=(3, 8, 8), widths=(4, 6),
                      target_classes=classes, dtype="float32")
    return MiniCNN(cfg, rng=np.random.default_rng(seed))


def test_train_config_rejects_out_of_range_counts():
    """A run trains at least one epoch, and neither the warmup nor the LR
    decay may be negative; each error names its key."""
    for key, value in (("epochs", 0), ("epochs", -1), ("warmup_epochs", -2),
                       ("decay", -1.0)):
        with pytest.raises(ValueError, match=key):
            TrainConfig(method="std", milestones=(), batch=8, **{key: value})


def test_run_training_history_bookkeeping():
    train, val = _tiny_task()
    model = _tiny_model()
    cfg = TrainConfig(method="at", eta=0.02, epochs=3, batch=12,
                      milestones=(2,), seed=1,
                      attack=AttackConfig(epsilon=2 / 255, alpha=1 / 255,
                                          steps=2))
    _, history = run_training(cfg, train, val, model)
    assert len(history) == 3
    for e, rec in enumerate(history):
        assert rec.epoch == e
        assert rec.lr == lr_at_epoch(cfg, e)
        assert np.isfinite(rec.train_loss)
        assert 0.0 <= rec.clean_acc <= 1.0
        assert 0.0 <= rec.pgd_acc <= 1.0
        assert rec.grad_norm_mean >= 0.0
        assert rec.weight_dist >= 0.0
    assert history[-1].lr == pytest.approx(cfg.eta * 0.1)


@pytest.mark.parametrize("method", METHODS)
def test_run_training_seeded_bitwise_reproducibility(method):
    cfg = TrainConfig(method=method, eta=0.02, epochs=2, batch=12,
                      milestones=(), seed=3,
                      attack=AttackConfig(epsilon=2 / 255, alpha=1 / 255,
                                          steps=2))
    finetune = method in ("lwf", "joint")
    states, histories = [], []
    for _ in range(2):
        train, val = _tiny_task()
        source, _ = _tiny_task(seed=1) if finetune else (None, None)
        model = _finetune_model(seed=5) if finetune else _tiny_model(seed=5)
        model, history = run_training(cfg, train, val, model,
                                      source_data=source)
        states.append(model.state_dict())
        histories.append(history)
    for name in states[0]:
        assert np.array_equal(states[0][name], states[1][name])
    assert histories[0] == histories[1]


def test_run_training_joint_needs_source_data():
    train, val = _tiny_task()
    model = _finetune_model()
    cfg = TrainConfig(method="joint", epochs=1, batch=8, milestones=())
    with pytest.raises(ValueError):
        run_training(cfg, train, val, model)
