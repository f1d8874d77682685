"""l-inf bounded PGD adversarial example generation.

Attack passes use the attacked branch's train-time normalization but
never commit running-statistic updates, so generating adversarial
examples leaves the model state untouched. For an attack's duration the
model's parameters do not require gradients, so its graphs hold only
what the input gradient needs and contain no parameter node.

Under fixed statistics (INFERENCE and FROZEN_TRAIN) each image's
gradient is independent of the rest of its batch, so an even batch of
at least `_MIN_SPLIT_BATCH` images is attacked as two equal halves,
each on its own graph, both writing into one output array. Where the
process may run on two or more CPUs, the second half runs in a worker
thread while the first runs in the calling thread; on one CPU the halves
run one after the other. Every array operation sees the same operands
either way, so results are bit-identical on any number of CPUs. The
random start is still drawn for the whole batch first. ADAPTIVE_TRAIN
attacks stay whole, because batch statistics couple the images, and so
do odd and smaller batches.

The halves also reproduce the whole-batch attack wherever BLAS rounds a
row the same way in products of n and n/2 rows: a half's mean loss
divides by n/2 where the whole batch's divides by n, so each value of
its backward pass is the whole batch's times exactly 2; a power-of-two
scale commutes with every rounding short of underflow, and the sign of
the input gradient is unchanged. OpenBLAS 0.3.31 on an AVX-512 CPU
rounds alike for batches of 128 images of 3x16x16, but not for every
shape: a product with a row count off its kernels' unroll, or one small
enough for its small-matrix kernels, may round differently. That is why
the halves, and not the whole batch, are the computation on every CPU
count.
"""

import os
import threading
from dataclasses import dataclass

import numpy as np

from .network import BranchMode
from .tensor import Tensor, kl_div_logits, softmax_cross_entropy, untracked

# the branches that normalize with fixed statistics
_PER_IMAGE_BRANCHES = (BranchMode.INFERENCE, BranchMode.FROZEN_TRAIN)

# The smallest batch attacked as two halves. Two threads pay only when
# the halves' array operations are long next to the GIL handoffs between
# them: on a 2-vCPU VM, PGD on 3x16x16 images took 9-25% less time at
# batch 128, but 30% more at batch 90 and 50% more at 48.
_MIN_SPLIT_BATCH = 128


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


def _usable_cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        return os.cpu_count() or 1


def pgd_attack(model, branch, x, y, cfg, rng=None, head="target"):
    """Iterated signed-gradient ascent projected into the eps-ball.

    `y` is ignored for the kl_to_clean loss, which pushes the attacked
    branch's predictive distribution away from its clean-input one.
    The parameters are untracked throughout, so a step's graph has the
    input as its only leaf and no parameter gradient is computed.
    Returns a detached array; BN running statistics are never updated.
    """
    x = np.asarray(x, dtype=model.config.np_dtype())
    if cfg.epsilon == 0.0:
        return x.copy()
    with untracked(model.params):
        x_adv = x.copy()
        if cfg.rand_init:
            if rng is None:
                rng = np.random.default_rng()
            # the noise is freed at once; the steps hold the bounds instead
            x_adv = project_linf(
                x + rng.uniform(-cfg.epsilon, cfg.epsilon,
                                size=x.shape).astype(x.dtype), x, cfg.epsilon)
        lo, hi = _linf_bounds(x, cfg.epsilon)
        n = len(x)
        if (branch not in _PER_IMAGE_BRANCHES or n < _MIN_SPLIT_BATCH
                or n % 2):
            return _ascend(model, branch, x, x_adv, y, lo, hi, cfg, head)
        y = None if y is None else np.asarray(y)
        first, second = slice(0, n // 2), slice(n // 2, None)

        def ascend(rows):
            x_adv[rows] = _ascend(model, branch, x[rows], x_adv[rows],
                                  None if y is None else y[rows],
                                  lo[rows], hi[rows], cfg, head)

        if _usable_cpus() < 2:
            ascend(first)
            ascend(second)
            return x_adv
        failures = []

        def ascend_second():
            try:
                ascend(second)
            except BaseException as exc:  # re-raised in the calling thread
                failures.append(exc)

        worker = threading.Thread(target=ascend_second)
        worker.start()
        try:
            ascend(first)
        finally:
            worker.join()
        if failures:
            raise failures[0]
        return x_adv


def _ascend(model, branch, x, x_adv, y, lo, hi, cfg, head):
    """`x_adv` after `cfg.steps` signed-gradient steps, each clamped
    into [lo, hi]. The kl_to_clean target is the branch's prediction on
    the same rows of `x`, so a step at `x` itself has a zero gradient."""
    clean_logits = None
    if cfg.loss_kind == "kl_to_clean":
        # the values only, so no graph of the clean pass stays alive
        clean_logits = Tensor(model.forward(Tensor(x), branch,
                                            head=head)[1].data)
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
    loss.backward()
    return np.sign(xt.grad)
