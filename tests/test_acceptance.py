"""Acceptance gate: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print. Criteria 8 and 9 train small models end to end and dominate
the runtime (a few minutes total on a laptop CPU).
"""

import time

import numpy as np
import pytest

from twins_lab.analysis import (evaluate, frozen_grad_formula_check,
                                overfitting_gap, scale_probe)
from twins_lab.attack import AttackConfig, pgd_attack, project_linf
from twins_lab.checkpoint import load_checkpoint, save_checkpoint
from twins_lab.data import DatasetSpec, load_dataset
from twins_lab.network import (BranchMode, MiniCNN, ModelConfig,
                               make_finetune_model)
from twins_lab.tensor import backprop, finite_diff_grad, softmax_cross_entropy
from twins_lab.training import (TrainConfig, batch_loss, run_training,
                                warmup_bn)

# pytest's default import mode puts tests/ on sys.path
from test_attack import LinearSoftmaxModel


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num} ({desc}): {status}{suffix}")
    assert ok, f"criterion {num} ({desc}) failed {suffix}"


def _mini(seed=0, classes=3, source_classes=0, eps=1e-5, widths=(3, 4),
          shape=(2, 6, 6)):
    cfg = ModelConfig(input_shape=shape, widths=widths,
                      target_classes=classes, source_classes=source_classes,
                      dtype="float64", bn_eps=eps)
    model = MiniCNN(cfg, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1000)
    for state in model.bn:
        state.frozen_mean = rng.normal(0, 0.2, size=state.channels)
        state.frozen_var = rng.uniform(0.5, 2.0, size=state.channels)
        state.running_mean = rng.normal(0, 0.2, size=state.channels)
        state.running_var = rng.uniform(0.5, 2.0, size=state.channels)
    return model


def _batch(seed, model, n=4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n,) + model.config.input_shape)
    y = rng.integers(0, model.config.target_classes, size=n)
    return x, y


def test_criterion_1_gradient_oracle():
    start = time.time()
    model = _mini(seed=1)
    x, y = _batch(11, model)
    worst = 0.0
    for mode in (BranchMode.ADAPTIVE_TRAIN, BranchMode.FROZEN_TRAIN):

        def loss():
            _, logits = model.forward(x, mode, update_running=False)
            return softmax_cross_entropy(logits, y)

        grads = backprop(loss(), model.params)
        fd = finite_diff_grad(lambda: loss().item(), model.params)
        for name in model.params:
            mask = np.abs(grads[name]) > 1e-8
            if not mask.any():
                continue
            rel = (np.abs(grads[name] - fd[name])
                   / np.maximum(np.abs(fd[name]), 1e-12))
            worst = max(worst, float(rel[mask].max()))
    elapsed = time.time() - start
    _report(1, "gradient oracle", worst <= 1e-4 and elapsed < 30,
            f"max rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_scale_law():
    start = time.time()
    gammas = [0.5, 2.0, 10.0]
    ok = True
    worst_ratio = 0.0
    worst_forward = 0.0
    frozen_variant = False
    for draw in range(3):
        model = _mini(seed=20 + draw, eps=0.0)
        batch = _batch(30 + draw, model, n=6)
        reports = scale_probe(model, "conv1", gammas, batch)
        for rep in reports:
            if rep.branch == "adaptive":
                target = 1.0 / rep.gamma
                err = max(abs(rep.grad_ratio_min - target),
                          abs(rep.grad_ratio_max - target)) / target
                worst_ratio = max(worst_ratio, err)
                worst_forward = max(worst_forward, rep.forward_delta)
                ok = ok and err <= 1e-6 and rep.forward_delta <= 1e-6
                ok = ok and rep.argmax_equal
            else:
                if rep.forward_delta > 1e-6:
                    frozen_variant = True
    elapsed = time.time() - start
    ok = ok and frozen_variant and elapsed < 10
    _report(2, "scale law", ok,
            f"ratio err {worst_ratio:.3e}, forward delta "
            f"{worst_forward:.3e}, frozen variant {frozen_variant}, "
            f"{elapsed:.1f}s")


def test_criterion_3_frozen_gradient_formula():
    start = time.time()
    worst = 0.0
    for draw in range(3):
        model = _mini(seed=40 + draw)
        batch = _batch(50 + draw, model, n=6)
        for layer in model.conv_names():
            auto, analytic = frozen_grad_formula_check(model, layer, batch)
            denom = max(np.abs(analytic).max(), 1e-12)
            worst = max(worst, float(np.abs(auto - analytic).max() / denom))
    elapsed = time.time() - start
    _report(3, "frozen gradient formula", worst <= 1e-6 and elapsed < 10,
            f"max rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_4_pgd_closed_form():
    rng = np.random.default_rng(60)
    model = LinearSoftmaxModel(rng.normal(size=(12, 3)), rng.normal(size=3))
    n = 5
    x = rng.uniform(0.2, 0.8, size=(n, 1, 3, 4))
    y = rng.integers(0, 3, size=n)
    cfg = AttackConfig(epsilon=0.05, alpha=0.02, steps=1, rand_init=False)
    adv = pgd_attack(model, BranchMode.INFERENCE, x, y, cfg)

    flat = x.reshape(n, -1)
    z = flat @ model.w + model.b
    ls = z - z.max(axis=1, keepdims=True)
    ls = ls - np.log(np.exp(ls).sum(axis=1, keepdims=True))
    g = np.exp(ls)
    g[np.arange(n), y] -= 1.0
    gx = ((np.ones(()) * g) / n) @ model.w.T
    expected = project_linf(x + cfg.alpha * np.sign(gx.reshape(x.shape)),
                            x, cfg.epsilon)
    step_bitwise = np.array_equal(adv, expected)

    zero = pgd_attack(model, BranchMode.INFERENCE, x, y,
                      AttackConfig(epsilon=0.0, alpha=0.02, steps=5))
    eps0_bitwise = np.array_equal(zero, x)
    _report(4, "pgd closed form", step_bitwise and eps0_bitwise,
            f"step bitwise {step_bitwise}, eps=0 bitwise {eps0_bitwise}")


def test_criterion_5_loss_reduction_identities():
    model = _mini(seed=70, classes=3, source_classes=4)
    x, y = _batch(71, model, n=8)
    attack = AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=3,
                          rand_init=False)
    adv = pgd_attack(model, BranchMode.ADAPTIVE_TRAIN, x, y, attack)

    def loss(method, xs, ys, advs, reference=None, source=None, **kw):
        cfg = TrainConfig(method=method, batch=8, attack=attack, **kw)
        return batch_loss(model, xs, ys, cfg, None, reference=reference,
                          source=source, adv=advs,
                          update_running=False).item()

    at_half = loss("at", x[:4], y[:4], adv[:4])
    at_full = loss("at", x, y, adv)
    checks = {
        "twins-at(l=0)=at": loss("twins-at", x, y, adv,
                                 lambda_twins=0.0) == at_half,
        "trades(b=0)=at": loss("trades", x, y, adv, beta=0.0) == at_full,
        "twins-trades(l=0)=trades": loss(
            "twins-trades", x, y, adv, lambda_twins=0.0, beta=6.0)
        == loss("trades", x[:4], y[:4], adv[:4], beta=6.0),
        "lwf(l=0)=at": loss("lwf", x, y, adv, reference=model,
                            lambda_lwf=0.0) == at_full,
        "joint(l=0)=at": loss("joint", x, y, adv, source=(x, y),
                              lambda_uot=0.0) == at_full,
    }
    _report(5, "loss reduction identities", all(checks.values()),
            ", ".join(f"{k}:{v}" for k, v in checks.items()))


def test_criterion_6_warmup_ema():
    model = _mini(seed=80, classes=3, source_classes=4)
    x, _ = _batch(81, model, n=8)
    attack = AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=3,
                          rand_init=False)

    before = {k: v.copy() for k, v in model.stat_arrays().items()}
    warmup_bn(model, x, attack, warmup_epochs=0)
    zero_noop = all(np.array_equal(v, model.stat_arrays()[k])
                    for k, v in before.items())

    _, logits = model.forward(x, BranchMode.INFERENCE, head="source",
                              update_running=False)
    pseudo = np.argmax(logits.data, axis=1)
    adv = pgd_attack(model, BranchMode.ADAPTIVE_TRAIN, x, pseudo, attack,
                     head="source")
    capture = {}
    model.forward(adv, BranchMode.FROZEN_TRAIN, head="source",
                  update_running=False, capture=capture)
    expected = []
    for i, state in enumerate(model.bn, start=1):
        pre = capture[f"bn{i}.pre"]
        expected.append((0.9 * state.frozen_mean
                         + 0.1 * pre.mean(axis=(0, 2, 3)),
                         0.9 * state.frozen_var
                         + 0.1 * pre.var(axis=(0, 2, 3))))
    warmup_bn(model, x, attack, warmup_epochs=1, batch=8)
    worst = 0.0
    for state, (em, ev) in zip(model.bn, expected):
        worst = max(worst, float(np.abs(state.frozen_mean - em).max()),
                    float(np.abs(state.frozen_var - ev).max()))
    _report(6, "warmup EMA", zero_noop and worst <= 1e-12,
            f"zero-epoch no-op {zero_noop}, max EMA err {worst:.3e}")


def test_criterion_7_persistence(tmp_path):
    spec = DatasetSpec(classes=2, image_shape=(3, 8, 8), per_class=30,
                       noise_std=0.15, seed=90)
    train, val = load_dataset(spec)
    attack = AttackConfig(epsilon=2 / 255, alpha=1 / 255, steps=2)
    cfg = TrainConfig(method="at", eta=0.02, epochs=2, batch=8,
                      milestones=(), seed=0, attack=attack)
    model = MiniCNN(ModelConfig(input_shape=(3, 8, 8), widths=(4, 6),
                                target_classes=2),
                    rng=np.random.default_rng(91))
    model, _ = run_training(cfg, train, val, model)
    pre_eval = evaluate(model, val, attack, rng=np.random.default_rng(5))

    path = str(tmp_path / "resume.ckpt")
    save_checkpoint(path, model, {"stage": "acceptance"})
    restored, _ = load_checkpoint(path)
    state_ok = all(np.array_equal(v, restored.state_dict()[k])
                   for k, v in model.state_dict().items())
    post_eval = evaluate(restored, val, attack, rng=np.random.default_rng(5))
    eval_ok = pre_eval == post_eval
    _report(7, "persistence", state_ok and eval_ok,
            f"state bitwise {state_ok}, eval {pre_eval} == {post_eval}")


def test_criterion_8_trend_suite():
    start = time.time()
    src_spec = DatasetSpec(classes=4, image_shape=(3, 16, 16), per_class=120,
                           noise_std=0.3, seed=11)
    tgt_spec = DatasetSpec(classes=3, image_shape=(3, 16, 16), per_class=120,
                           noise_std=0.35, seed=42)
    src_train, src_val = load_dataset(src_spec)
    tgt_train, tgt_val = load_dataset(tgt_spec)

    pre_cfg = TrainConfig(method="at", eta=0.05, epochs=10, batch=64,
                          milestones=(8,), seed=7,
                          attack=AttackConfig(epsilon=4 / 255,
                                              alpha=1 / 255, steps=10))
    pre = MiniCNN(ModelConfig(input_shape=(3, 16, 16), widths=(16, 32),
                              target_classes=4),
                  rng=np.random.default_rng(7))
    pre, _ = run_training(pre_cfg, src_train, src_val, pre)

    stats = {}
    for method, lam in (("at", 0.0), ("twins-at", 0.3)):
        for seed in (0, 1, 2):
            cfg = TrainConfig(method=method, eta=0.02, epochs=20, batch=64,
                              milestones=(10, 16), lambda_twins=lam,
                              seed=seed,
                              attack=AttackConfig(epsilon=8 / 255,
                                                  alpha=2 / 255, steps=10))
            model = make_finetune_model(pre, 3, seed=seed)
            _, hist = run_training(cfg, tgt_train, tgt_val, model)
            gm = float(np.mean([h.grad_norm_mean for h in hist]))
            wd25 = hist[len(hist) // 4].weight_dist
            _, _, gap = overfitting_gap([h.pgd_acc for h in hist])
            stats[(method, seed)] = (gm, wd25, gap)

    gm_wins = sum(stats[("twins-at", s)][0] > stats[("at", s)][0]
                  for s in (0, 1, 2))
    wd_wins = sum(stats[("twins-at", s)][1] > stats[("at", s)][1]
                  for s in (0, 1, 2))
    gap_wins = sum(stats[("twins-at", s)][2] <= stats[("at", s)][2]
                   for s in (0, 1, 2))
    elapsed = time.time() - start
    ok = gm_wins >= 2 and wd_wins >= 2 and gap_wins >= 2 and elapsed < 1200
    _report(8, "trend suite", ok,
            f"grad-norm {gm_wins}/3, weight-dist {wd_wins}/3, "
            f"gap {gap_wins}/3, {elapsed:.0f}s")


def test_criterion_9_smoke_convergence():
    start = time.time()
    results = []
    for seed in (0, 1, 2):
        spec = DatasetSpec(classes=2, image_shape=(3, 12, 12), per_class=60,
                           noise_std=0.12, seed=21)
        train, val = load_dataset(spec)
        cfg = TrainConfig(method="at", eta=0.05, epochs=8, batch=32,
                          milestones=(6,), seed=seed,
                          attack=AttackConfig(epsilon=2 / 255,
                                              alpha=1 / 255, steps=10))
        model = MiniCNN(ModelConfig(input_shape=(3, 12, 12), widths=(8, 16),
                                    target_classes=2),
                        rng=np.random.default_rng(seed + 50))
        _, hist = run_training(cfg, train, val, model)
        results.append((hist[-1].clean_acc, hist[-1].pgd_acc))
    ok = all(c >= 0.95 and r >= 0.8 for c, r in results)
    elapsed = time.time() - start
    _report(9, "smoke convergence", ok,
            f"per-seed (clean, robust) {results}, {elapsed:.0f}s")
