"""l-inf bounded PGD adversarial example generation.

Attack passes use the attacked branch's train-time normalization but
never commit running-statistic updates, so generating adversarial
examples leaves the model state untouched.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, kl_div_logits, softmax_cross_entropy


@dataclass
class AttackConfig:
    epsilon: float = 8.0 / 255.0
    alpha: float = 2.0 / 255.0
    steps: int = 10
    rand_init: bool = True
    loss_kind: str = "ce"  # "ce" or "kl_to_clean"

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.alpha < 0 or self.steps < 0:
            raise ValueError("alpha and steps must be non-negative")
        if self.loss_kind not in ("ce", "kl_to_clean"):
            raise ValueError(f"unknown attack loss kind: {self.loss_kind!r}")


def _linf_bounds(x_orig, epsilon):
    """The lower and upper corners of the eps-ball around `x_orig`,
    intersected with [0, 1]."""
    return np.maximum(x_orig - epsilon, 0.0), np.minimum(x_orig + epsilon, 1.0)


def _clamp(x, lo, hi):
    # np.clip(x, lo, hi) by definition, at about a third of its cost;
    # in place, so a step allocates no more than clip does
    out = np.maximum(x, lo)
    return np.minimum(out, hi, out=out)


def project_linf(x_adv, x_orig, epsilon):
    """Clamp into [x_orig - eps, x_orig + eps] intersected with [0, 1]."""
    return _clamp(x_adv, *_linf_bounds(x_orig, epsilon))


def pgd_attack(model, branch, x, y, cfg, rng=None, head="target"):
    """Iterated signed-gradient ascent projected into the eps-ball.

    `y` is ignored for the kl_to_clean loss, which pushes the attacked
    branch's predictive distribution away from its clean-input one.
    Each step differentiates toward the input only, so no parameter
    gradient is computed. Returns a detached array; BN running
    statistics are never updated.
    """
    x = np.asarray(x, dtype=model.config.np_dtype())
    if cfg.epsilon == 0.0:
        return x.copy()
    clean_logits = None
    if cfg.loss_kind == "kl_to_clean":
        _, cl = model.forward(Tensor(x), branch, head=head)
        clean_logits = Tensor(cl.data.copy())
    x_adv = x.copy()
    if cfg.rand_init:
        if rng is None:
            rng = np.random.default_rng()
        # the noise is freed at once; the steps hold the bounds instead
        x_adv = project_linf(
            x + rng.uniform(-cfg.epsilon, cfg.epsilon,
                            size=x.shape).astype(x.dtype), x, cfg.epsilon)
    lo, hi = _linf_bounds(x, cfg.epsilon)
    for _ in range(cfg.steps):
        step = _ascent_sign(model, branch, x_adv, y, clean_logits, cfg, head)
        x_adv = _clamp(x_adv + cfg.alpha * step, lo, hi)
    return x_adv


def _ascent_sign(model, branch, x_adv, y, clean_logits, cfg, head):
    """Sign of the attack loss's gradient at `x_adv`. The step's graph is
    freed on return, before the next step builds its own."""
    xt = Tensor(x_adv, requires_grad=True)
    _, logits = model.forward(xt, branch, head=head)
    if cfg.loss_kind == "ce":
        loss = softmax_cross_entropy(logits, y)
    else:
        loss = kl_div_logits(logits, clean_logits)
    loss.backward(inputs=(xt,))
    return np.sign(xt.grad)
