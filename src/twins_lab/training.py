"""Training objectives, SGD with momentum, LR schedule and the epoch loop.

Methods: std (clean), at, trades, twins-at, twins-trades, lwf, joint.
Sub-batch terms are per-sub-batch means so the twins penalty weight is
batch-size independent.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import (evaluate, grad_norm_epoch_stats, l2_norm,
                       weight_distance)
from .attack import AttackConfig, pgd_attack
from .network import BranchMode, bn_ema, copy_model, predict
from .schema import check, choice, integer, integers, number, section
from .tensor import (backprop, feature_distance, kl_div_logits,
                     softmax_cross_entropy, untracked)


@dataclass(frozen=True)
class Method:
    """How a training method departs from CE on its clean batch."""
    attack: bool = True  # its wings see PGD examples of the batch
    trades: bool = False  # each wing adds beta * KL(adv || clean)
    twins: bool = False  # even batches, half through the Frozen branch
    lwf: bool = False  # adds the feature distance to a pre-trained copy
    joint: bool = False  # adds the source-task CE, training the source head


METHODS = {  # in the order config messages list them
    "std": Method(attack=False),
    "at": Method(),
    "trades": Method(trades=True),
    "twins-at": Method(twins=True),
    "twins-trades": Method(trades=True, twins=True),
    "lwf": Method(lwf=True),
    "joint": Method(joint=True),
}


@dataclass
class TrainConfig:
    method: str = choice("at", METHODS)
    eta: float = number(3e-3)
    lambda_wd: float = number(1e-4)
    momentum: float = number(0.9)
    lambda_twins: float = number(0.3)
    lambda_lwf: float = number(0.01)
    lambda_uot: float = number(0.01)
    beta: float = number(6.0)
    batch: int = integer(64, least=2)
    epochs: int = integer(20, least=1)
    milestones: tuple = integers((10, 16))
    decay: float = number(0.1)
    seed: int = integer(0, least=0)
    attack: AttackConfig = section(AttackConfig, AttackConfig)
    warmup_epochs: int = integer(0, least=0)

    def __post_init__(self):
        check(self)
        # each half goes through one branch; the Adaptive half needs two
        if METHODS[self.method].twins and (self.batch % 2 or self.batch < 4):
            raise ValueError(f"twins methods need an even batch size of at "
                             f"least 4, got batch {self.batch}")


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
        names = list(params)
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


def _wing(model, x, adv, y, mode, beta, update_running):
    """One branch's loss on one (sub-)batch: mean CE on the adversarial
    inputs, plus beta-weighted KL(adv || clean) unless `beta` is None.
    Returns the loss and the adversarial features."""
    trades = beta is not None
    if trades:
        _, clean = model.forward(x, mode, update_running=update_running)
    feats, logits = model.forward(adv, mode,
                                  update_running=update_running and not trades)
    loss = softmax_cross_entropy(logits, y)
    if trades:
        loss = loss + beta * kl_div_logits(logits, clean)
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
                pre = capture[f"bn{i}.pre"]
                state.frozen_mean, state.frozen_var = bn_ema(
                    (state.frozen_mean, state.frozen_var),
                    (pre.mean(axis=(0, 2, 3)), pre.var(axis=(0, 2, 3))),
                    state.momentum)
            # frees the frozen pass's activations before the next attack
            del capture


def batch_loss(model, xb, yb, cfg, rng, reference=None, source=None,
               adv=None, update_running=True):
    """The objective of the method `METHODS[cfg.method]` on one mini-batch.

    A method that attacks does so once, on the Adaptive branch, unless
    `adv` is given. A twins method applies its wing to the first half
    through the Adaptive branch plus, weighted by lambda_twins, to the
    second half through the Frozen branch; any other applies it to the
    batch and adds its extra term: lwf a feature-distance penalty to
    `reference`, the pre-trained copy, joint the source-task CE on
    `source`, an (x, y) batch attacked through the source head.
    """
    method = METHODS.get(cfg.method)
    if method is None:
        raise ValueError(f"unknown training method: {cfg.method!r}")
    if method.twins and len(yb) % 2 != 0:
        raise ValueError("twins losses need an even batch")
    if method.joint and "src_head.w" not in model.params:
        raise ValueError("joint training needs a source-task head")
    if not method.attack:
        adv = xb
    elif adv is None:
        adv = pgd_attack(model, BranchMode.ADAPTIVE_TRAIN, xb, yb, cfg.attack,
                         rng)
    beta = cfg.beta if method.trades else None
    if method.twins:
        half = len(yb) // 2
        la, _ = _wing(model, xb[:half], adv[:half], yb[:half],
                      BranchMode.ADAPTIVE_TRAIN, beta, update_running)
        lf, _ = _wing(model, xb[half:], adv[half:], yb[half:],
                      BranchMode.FROZEN_TRAIN, beta, False)
        return la + cfg.lambda_twins * lf
    loss, feats = _wing(model, xb, adv, yb, BranchMode.ADAPTIVE_TRAIN, beta,
                        update_running)
    if method.lwf and cfg.lambda_lwf != 0.0:
        with untracked(reference.params):
            ref, _ = reference.forward(adv, BranchMode.INFERENCE)
        loss = loss + cfg.lambda_lwf * feature_distance(feats, ref.data)
    if method.joint and cfg.lambda_uot != 0.0:
        xs, ys = source
        adv_src = pgd_attack(model, BranchMode.ADAPTIVE_TRAIN, xs, ys,
                             cfg.attack, rng, head="source")
        _, logits = model.forward(adv_src, BranchMode.ADAPTIVE_TRAIN,
                                  head="source")
        loss = loss + cfg.lambda_uot * softmax_cross_entropy(logits, ys)
    return loss


def trainable_names(model, method):
    """The names of the parameters of `model` that `method` trains."""
    m = METHODS[method]
    return [name for name in model.params
            if (m.twins or not name.endswith((".gamma_f", ".beta_f")))
            and (m.joint or not name.startswith("src_head"))]


def run_training(cfg, train_data, val_data, model, source_data=None):
    """The per-epoch / per-batch loop; returns (model, history).

    `train_data`/`val_data` are (x, y) pairs of arrays. Robust
    pre-training is this same loop with method "at" from random init.
    An empty validation split fails in `evaluate`, after the first epoch.
    """
    x_train, y_train = train_data
    rng = np.random.default_rng(cfg.seed)
    names = trainable_names(model, cfg.method)
    init_params = {n: model.params[n].data.copy() for n in names}
    velocity = {}

    method = METHODS[cfg.method]
    if method.joint and source_data is None:
        raise ValueError("joint training needs source data")
    reference = copy_model(model) if method.lwf else None
    source = None  # joint's source rows, drawn per batch

    history = []
    for epoch in range(cfg.epochs):
        rate = lr_at_epoch(cfg, epoch)
        order = rng.permutation(len(y_train))
        losses = []
        norms = []
        starts = range(0, len(order) - cfg.batch + 1, cfg.batch)
        for batch, start in enumerate(starts):
            idx = order[start:start + cfg.batch]
            if method.joint:
                # drawn before the target attack, which also consumes `rng`
                pick = rng.integers(0, len(source_data[1]), size=len(idx))
                source = source_data[0][pick], source_data[1][pick]
            # a diverging step overflows here, and the check below names it
            with np.errstate(over="ignore", invalid="ignore"):
                loss = batch_loss(model, x_train[idx], y_train[idx], cfg,
                                  rng, reference, source)
                grads = backprop(loss, model.params, names)
            losses.append(loss.item())
            # frees the batch's graph, so the next batch reuses its memory
            del loss
            norms.append(l2_norm(grads[n] for n in names))
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
            train_loss=float(np.mean(losses)),
            clean_acc=clean_acc, pgd_acc=pgd_acc,
            grad_norm_mean=gmean, grad_norm_cv=gcv,
            weight_dist=weight_distance(current, init_params)))
    return model, history
