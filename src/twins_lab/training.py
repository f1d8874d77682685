"""Training objectives, SGD with momentum, LR schedule and the epoch loop.

Methods: std (clean), at, trades, twins-at, twins-trades, lwf, joint.
Sub-batch terms are per-sub-batch means so the twins penalty weight is
batch-size independent.
"""

from dataclasses import dataclass, field

import numpy as np

from .attack import AttackConfig, pgd_attack
from .network import BranchMode, copy_model, predict
from .tensor import (backprop, feature_distance, kl_div_logits,
                     softmax_cross_entropy, untracked)

METHODS = ("std", "at", "trades", "twins-at", "twins-trades", "lwf", "joint")


@dataclass
class TrainConfig:
    method: str = "at"
    eta: float = 3e-3
    lambda_wd: float = 1e-4
    momentum: float = 0.9
    lambda_twins: float = 0.3
    lambda_lwf: float = 0.01
    lambda_uot: float = 0.01
    beta: float = 6.0
    batch: int = 64
    epochs: int = 20
    milestones: tuple = (10, 16)
    decay: float = 0.1
    seed: int = 0
    attack: AttackConfig = field(default_factory=AttackConfig)
    warmup_epochs: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown training method: {self.method!r}")
        if self.batch < 1:
            raise ValueError(f"batch must be at least 1, got {self.batch}")
        if self.method.startswith("twins") and self.batch % 2 != 0:
            raise ValueError("twins methods need an even batch size")
        for name in ("eta", "lambda_wd", "momentum", "lambda_twins",
                     "lambda_lwf", "lambda_uot", "beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class DivergenceError(ValueError):
    """A training step produced a non-finite loss or gradient norm."""


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    clean_acc: float
    pgd_acc: float
    grad_norm_mean: float
    grad_norm_cv: float
    weight_dist: float


def lr_at_epoch(cfg, epoch):
    if not 0 <= epoch < cfg.epochs:
        raise ValueError("epoch out of range")
    drops = sum(1 for m in cfg.milestones if m <= epoch)
    return cfg.eta * cfg.decay ** drops


def sgd_update(params, grads, velocity, rate, lambda_wd, momentum,
               names=None):
    """Coupled weight decay on all parameters, then momentum step.

    `velocity` maps parameter names to their momentum buffers; a missing
    buffer starts at zero.
    """
    if names is None:
        names = params.names()
    for name in names:
        if name not in grads:
            raise KeyError(f"missing gradient for parameter {name!r}")
        p = params[name]
        g = grads[name] + lambda_wd * p.data
        if name not in velocity:
            velocity[name] = np.zeros_like(p.data)
        v = velocity[name]
        v *= momentum
        v += g
        p.data = p.data - rate * v


def _wing(model, x, adv, y, mode, cfg, update_running):
    """One branch's loss on one (sub-)batch: mean CE on the adversarial
    inputs, plus beta-weighted KL(adv || clean) for the trades methods.
    Returns the loss and the adversarial features."""
    trades = cfg.method.endswith("trades")
    if trades:
        _, clean = model.forward(x, mode, update_running=update_running)
    feats, logits = model.forward(adv, mode,
                                  update_running=update_running and not trades)
    loss = softmax_cross_entropy(logits, y)
    if trades:
        loss = loss + cfg.beta * kl_div_logits(logits, clean)
    return loss, feats


def warmup_bn(model, x_data, attack_cfg, rng=None, warmup_epochs=1,
              batch=64):
    """EMA-update the frozen statistics with adversarial target data.

    Adversarial examples are generated with the source head, driven by
    CE against the head's own argmax pseudo-labels; they are then pushed
    through the Frozen branch, untracked, and each BN layer's input batch
    statistics are folded into the frozen statistics with the layer's
    `state.momentum`, the momentum its running statistics train with.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = len(x_data)
    for _ in range(warmup_epochs):
        for start in range(0, n, batch):
            xb = x_data[start:start + batch]
            if len(xb) < 2:
                continue
            pseudo = predict(model, xb, BranchMode.INFERENCE, head="source")
            adv = pgd_attack(model, BranchMode.ADAPTIVE_TRAIN, xb, pseudo,
                             attack_cfg, rng, head="source")
            capture = {}
            with untracked(model.params):
                model.forward(adv, BranchMode.FROZEN_TRAIN, head="source",
                              capture=capture)
            for i, state in enumerate(model.bn, start=1):
                pre = capture[f"bn{i}.pre"].data
                mean = pre.mean(axis=(0, 2, 3))
                var = pre.var(axis=(0, 2, 3))
                m = state.momentum
                state.frozen_mean = (1.0 - m) * state.frozen_mean + m * mean
                state.frozen_var = (1.0 - m) * state.frozen_var + m * var
            # frees the frozen pass's activations before the next attack
            del capture


def batch_loss(model, xb, yb, cfg, rng, aux=None, adv=None,
               update_running=True):
    """The objective of `cfg.method` on one mini-batch.

    std is the clean CE. Every other method attacks the Adaptive branch
    once, unless `adv` is given, and applies one wing to the batch. The
    twins methods apply it to the first half through the Adaptive branch
    plus, weighted by lambda_twins, to the second half through the Frozen
    branch. lwf adds a feature-distance penalty to the pre-trained copy
    `aux["pretrained"]`; joint adds the source-task CE on a batch from
    `aux["source_batch"]`, attacked through the source head.
    """
    method = cfg.method
    if method not in METHODS:
        raise ValueError(f"unknown training method: {method!r}")
    twins = method.startswith("twins")
    if twins and len(yb) % 2 != 0:
        raise ValueError("twins losses need an even batch")
    if method == "joint":
        if "src_head.w" not in model.params:
            raise ValueError("joint training needs a source-task head")
        # drawn before the target attack, which also consumes `rng`
        xs, ys = aux["source_batch"](len(yb))
    if method == "std":
        adv = xb
    elif adv is None:
        adv = pgd_attack(model, BranchMode.ADAPTIVE_TRAIN, xb, yb, cfg.attack,
                         rng)
    if twins:
        half = len(yb) // 2
        la, _ = _wing(model, xb[:half], adv[:half], yb[:half],
                      BranchMode.ADAPTIVE_TRAIN, cfg, update_running)
        lf, _ = _wing(model, xb[half:], adv[half:], yb[half:],
                      BranchMode.FROZEN_TRAIN, cfg, False)
        return la + cfg.lambda_twins * lf
    loss, feats = _wing(model, xb, adv, yb, BranchMode.ADAPTIVE_TRAIN, cfg,
                        update_running)
    if method == "lwf" and cfg.lambda_lwf != 0.0:
        pretrained = aux["pretrained"]
        if pretrained.feature_width != model.feature_width:
            raise ValueError("feature width mismatch with the pre-trained copy")
        with untracked(pretrained.params):
            ref, _ = pretrained.forward(adv, BranchMode.INFERENCE)
        loss = loss + cfg.lambda_lwf * feature_distance(feats, ref.data)
    if method == "joint" and cfg.lambda_uot != 0.0:
        adv_src = pgd_attack(model, BranchMode.ADAPTIVE_TRAIN, xs, ys,
                             cfg.attack, rng, head="source")
        _, logits = model.forward(adv_src, BranchMode.ADAPTIVE_TRAIN,
                                  head="source")
        loss = loss + cfg.lambda_uot * softmax_cross_entropy(logits, ys)
    return loss


def flat_grad_norm(grads, names):
    total = 0.0
    for name in names:
        g = grads[name]
        total += float((g.astype(np.float64) ** 2).sum())
    return float(np.sqrt(total))


def require_val_split(n_val):
    """Raise ValueError if the validation split holds no image (`n_val`
    is its size)."""
    if n_val == 0:
        raise ValueError("the validation split is empty: raise the "
                         "dataset's val_fraction so that it holds at least "
                         "one image")


def run_training(cfg, train_data, val_data, model, source_data=None):
    """The per-epoch / per-batch loop; returns (model, history).

    `train_data`/`val_data` are (x, y) pairs of arrays. Robust
    pre-training is this same loop with method "at" from random init.
    An empty validation split fails before the first epoch.
    """
    from .analysis import evaluate, grad_norm_epoch_stats, weight_distance

    if cfg.method not in METHODS:
        raise ValueError(f"unknown training method: {cfg.method!r}")
    require_val_split(len(val_data[1]))
    x_train, y_train = train_data
    rng = np.random.default_rng(cfg.seed)
    names = model.trainable_names(cfg.method)
    init_params = {n: model.params[n].data.copy() for n in names}
    velocity = {}

    aux = {}
    if cfg.method == "lwf":
        aux["pretrained"] = copy_model(model)
    if cfg.method == "joint":
        if source_data is None:
            raise ValueError("joint training needs source data")
        xs_all, ys_all = source_data

        def draw_source(count):
            idx = rng.integers(0, len(ys_all), size=count)
            return xs_all[idx], ys_all[idx]

        aux["source_batch"] = draw_source

    history = []
    for epoch in range(cfg.epochs):
        rate = lr_at_epoch(cfg, epoch)
        order = rng.permutation(len(y_train))
        losses = []
        norms = []
        starts = range(0, len(order) - cfg.batch + 1, cfg.batch)
        for batch, start in enumerate(starts):
            idx = order[start:start + cfg.batch]
            loss = batch_loss(model, x_train[idx], y_train[idx], cfg, rng, aux)
            grads = backprop(loss, model.params, names)
            losses.append(loss.item())
            # frees the batch's graph, so the next batch reuses its memory
            del loss
            norms.append(flat_grad_norm(grads, names))
            if not (np.isfinite(losses[-1]) and np.isfinite(norms[-1])):
                raise DivergenceError(
                    f"training diverged at epoch {epoch}, batch {batch}: "
                    f"loss {losses[-1]}, gradient norm {norms[-1]}")
            sgd_update(model.params, grads, velocity, rate, cfg.lambda_wd,
                       cfg.momentum, names)
            del grads
        clean_acc, pgd_acc = evaluate(model, val_data, cfg.attack,
                                      rng=np.random.default_rng(
                                          cfg.seed * 100003 + epoch))
        gmean, _, gcv = grad_norm_epoch_stats(norms)
        current = {n: model.params[n].data for n in names}
        history.append(EpochRecord(
            epoch=epoch, lr=rate,
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            clean_acc=clean_acc, pgd_acc=pgd_acc,
            grad_norm_mean=gmean, grad_norm_cv=gcv,
            weight_dist=weight_distance(current, init_params)))
    return model, history
