"""l-inf bounded PGD adversarial example generation.

Attack passes use the attacked branch's train-time normalization but
never commit running-statistic updates, so generating adversarial
examples leaves the model state untouched. For an attack's duration the
model's parameters do not require gradients, so its graphs hold only
what the input gradient needs and contain no parameter node.

Under fixed statistics (INFERENCE and FROZEN_TRAIN) each image's
gradient is independent of the rest of its batch, so an even batch of
at least `_MIN_SPLIT_BATCH` images is attacked as two equal halves,
each on its own graph, each step writing into its rows of one output
array in place. `evaluate`'s full batches of 256 images make halves of
128. Where the process may run on two or more CPUs, the second half
runs in a worker thread while the first runs in the calling thread; on
one CPU the halves run one after the other. Every array operation sees
the same operands either way, so results are bit-identical on any
number of CPUs. The random start is still drawn for the whole batch
first. ADAPTIVE_TRAIN attacks stay whole, because batch statistics
couple the images, and so do odd and smaller batches.

The halves also reproduce the whole-batch attack wherever BLAS rounds a
row the same way in products of n and n/2 rows: a half's mean loss
divides by n/2 where the whole batch's divides by n, so each value of
its backward pass is the whole batch's times exactly 2; a power-of-two
scale commutes with every rounding short of underflow, and the sign of
the input gradient is unchanged. OpenBLAS 0.3.31 on an AVX-512 CPU
rounds alike for batches of 128, 176 and 256 images of 3x16x16 (PGD-10
with widths 16/32), but not for every shape: a product with a row count
off its kernels' unroll, or one small enough for its small-matrix
kernels, may round differently. That is why
the halves, and not the whole batch, are the computation on every CPU
count.
"""

import os
import threading
from dataclasses import dataclass

import numpy as np

from .network import BranchMode
from .schema import check, choice, flag, integer, number
from .tensor import Tensor, kl_div_logits, softmax_cross_entropy, untracked

# the branches that normalize with fixed statistics
_PER_IMAGE_BRANCHES = (BranchMode.INFERENCE, BranchMode.FROZEN_TRAIN)

# The smallest batch attacked as two halves. Two threads pay only when
# the halves' array operations are long next to the GIL handoffs between
# them, which cost per numpy call, not per image: on a 2-vCPU VM, 400
# INFERENCE steps on 3x16x16 images ran about 1.0x as fast in two threads
# as in one with 64-image halves, and about 1.6x with 128-image halves
# (batch 90 took 30% more time split than whole, and batch 48 50% more).
_MIN_SPLIT_BATCH = 128

# `evaluate`'s batch, whose attacks split into halves of the smallest size
EVAL_BATCH = 2 * _MIN_SPLIT_BATCH


@dataclass
class AttackConfig:
    epsilon: float = number(8.0 / 255.0, high=1, closed=True)
    alpha: float = number(2.0 / 255.0)
    steps: int = integer(10, least=0)
    rand_init: bool = flag(True)
    loss_kind: str = choice("ce", ("ce", "kl_to_clean"))

    __post_init__ = check


def _linf_bounds(x_orig, epsilon):
    """The lower and upper corners of the eps-ball around `x_orig`,
    intersected with [0, 1]."""
    return np.maximum(x_orig - epsilon, 0.0), np.minimum(x_orig + epsilon, 1.0)


def _clamp(x, lo, hi, out=None):
    # np.clip(x, lo, hi) by definition, at about a third of its cost;
    # into `out` when given, else into one new array, as clip allocates
    out = np.maximum(x, lo, out=out)
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
        if cfg.rand_init:
            if rng is None:
                rng = np.random.default_rng()
            # the noise is freed at once; the steps hold the bounds instead
            x_adv = project_linf(
                x + rng.uniform(-cfg.epsilon, cfg.epsilon,
                                size=x.shape).astype(x.dtype), x, cfg.epsilon)
        else:
            x_adv = x.copy()
        lo, hi = _linf_bounds(x, cfg.epsilon)
        n = len(x)
        if (branch not in _PER_IMAGE_BRANCHES or n < _MIN_SPLIT_BATCH
                or n % 2):
            return _ascend(model, branch, x, x_adv, y, lo, hi, cfg, head)
        y = None if y is None else np.asarray(y)
        first, second = slice(0, n // 2), slice(n // 2, None)

        def ascend(rows):
            _ascend(model, branch, x[rows], x_adv[rows],
                    None if y is None else y[rows], lo[rows], hi[rows], cfg,
                    head)

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
    """Take `cfg.steps` signed-gradient steps from `x_adv`, each clamped
    into [lo, hi], writing each step into `x_adv` in place; returns
    `x_adv`. The kl_to_clean target is the branch's prediction on the
    same rows of `x`, so a step at `x` itself has a zero gradient."""
    clean_logits = None
    if cfg.loss_kind == "kl_to_clean":
        # the values only, so no graph of the clean pass stays alive
        clean_logits = Tensor(model.forward(Tensor(x), branch,
                                            head=head)[1].data)
    for _ in range(cfg.steps):
        step = _ascent_sign(model, branch, x_adv, y, clean_logits, cfg, head)
        step *= cfg.alpha
        x_adv += step
        del step  # freed before the next step's graph is built
        _clamp(x_adv, lo, hi, out=x_adv)
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
