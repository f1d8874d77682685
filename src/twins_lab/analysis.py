"""Diagnostics: gradient-norm statistics, weight distance, robust
overfitting gap, the scale-law probe and clean/robust evaluation."""

from dataclasses import dataclass

import numpy as np

from .attack import EVAL_BATCH, pgd_attack
from .network import CONV_GEOMETRY, BranchMode, predict
from .tensor import backprop, conv2d_weight_grad, softmax_cross_entropy


def grad_norm_epoch_stats(log):
    """(mean, population std, cv) over one epoch's step gradient norms."""
    if len(log) == 0:
        raise ValueError("empty gradient-norm log")
    arr = np.asarray(log, dtype=np.float64)
    if (arr < 0).any():
        raise ValueError("gradient norms must be non-negative")
    mu = float(arr.mean())
    sigma = float(arr.std())  # population std
    cv = sigma / mu if mu > 0 else 0.0
    return mu, sigma, cv


def l2_norm(arrays):
    """The float64 Euclidean norm of the arrays, concatenated."""
    return float(np.sqrt(sum(
        float((np.asarray(a, dtype=np.float64) ** 2).sum()) for a in arrays)))


def weight_distance(theta, theta_ref):
    """Euclidean norm of the concatenated parameter difference."""
    if set(theta) != set(theta_ref):
        raise ValueError("parameter sets differ")
    for name, cur in theta.items():
        if np.shape(cur) != np.shape(theta_ref[name]):
            raise ValueError(f"shape mismatch for {name!r}")
    return l2_norm(np.subtract(cur, theta_ref[name], dtype=np.float64)
                   for name, cur in theta.items())


def overfitting_gap(history):
    """(best, final, best - final) of a robust-accuracy history."""
    if len(history) == 0:
        raise ValueError("empty robust-accuracy history")
    arr = np.asarray(history, dtype=np.float64)
    best = float(arr.max())
    final = float(arr[-1])
    return best, final, best - final


@dataclass
class ScaleProbeEntry:
    gamma: float
    branch: str
    forward_delta: float  # max relative change of the final logits
    grad_ratio_min: float  # per-vector grad-norm ratio vs the unscaled run
    grad_ratio_max: float
    argmax_equal: bool


def _probe_pass(model, layer, branch, x, y):
    _, logits = model.forward(x, branch)
    loss = softmax_cross_entropy(logits, y)
    grads = backprop(loss, model.params, [layer])
    g = grads[layer]
    vec_norms = np.sqrt((g.reshape(g.shape[0], -1) ** 2).sum(axis=1))
    return logits.data.copy(), vec_norms


def scale_probe(model, layer, gamma_list, batch):
    """Rescale one pre-BN conv kernel and report forward/gradient effects.

    For each gamma and branch: every output vector of `layer` is scaled
    by gamma, loss and gradients are recomputed on the fixed batch, and
    the report lists the final-logit change and the range of per-vector
    gradient-norm ratios relative to the unscaled run.
    """
    x, y = batch
    idx = int(layer.replace("conv", "")) if layer.startswith("conv") else -1
    if not (1 <= idx <= len(model.bn)):
        raise ValueError(f"layer {layer!r} does not feed a BN layer")
    kernel = model.params[layer]
    base = kernel.data.copy()
    reports = []
    try:
        for branch in (BranchMode.ADAPTIVE_TRAIN, BranchMode.FROZEN_TRAIN):
            logits0, norms0 = _probe_pass(model, layer, branch, x, y)
            for gamma in gamma_list:
                kernel.data = base * gamma
                logits, norms = _probe_pass(model, layer, branch, x, y)
                kernel.data = base.copy()
                scale = np.abs(logits0).max()
                delta = float(np.abs(logits - logits0).max() / scale)
                # vectors with zero baseline gradient carry no ratio
                live = norms0 > 0
                ratios = (norms[live] / norms0[live] if live.any()
                          else np.array([np.nan]))
                reports.append(ScaleProbeEntry(
                    gamma=float(gamma), branch=branch.value,
                    forward_delta=delta,
                    grad_ratio_min=float(ratios.min()),
                    grad_ratio_max=float(ratios.max()),
                    argmax_equal=bool(
                        (logits.argmax(axis=1) == logits0.argmax(axis=1)
                         ).all())))
    finally:
        kernel.data = base
    return reports


def frozen_grad_formula_check(model, layer, batch):
    """Compare the autodiff gradient of a pre-frozen-BN kernel with the
    analytic form: BN-output adjoint scaled by 1/sigma_pt, correlated
    with the layer input. Returns (autodiff, analytic) arrays."""
    x, y = batch
    idx = int(layer.replace("conv", ""))
    state = model.bn[idx - 1]
    capture = {}
    _, logits = model.forward(x, BranchMode.FROZEN_TRAIN, capture=capture)
    loss = softmax_cross_entropy(logits, y)
    grads = backprop(loss, model.params, [layer])
    bn_out = capture[f"bn{idx}.out"]
    h_prev = capture[f"bn{idx}.in"]
    c = state.channels
    # BN-output adjoint, where ReLU passed it; the affine peels off gamma
    g_norm = (bn_out.grad * (bn_out.data > 0)
              * state.gamma_f.data.reshape(1, c, 1, 1))
    sigma = np.sqrt(state.frozen_var + state.eps).reshape(1, c, 1, 1)
    kh, kw = model.params[layer].data.shape[2:]
    analytic = conv2d_weight_grad(h_prev.data, g_norm / sigma, kh, kw,
                                  **CONV_GEOMETRY)
    return grads[layer], analytic


def evaluate(model, data, attack_cfg=None, rng=None):
    """(clean accuracy, robust accuracy) on a labelled dataset, in
    batches of `EVAL_BATCH` images.

    Clean predictions use Inference normalization; the attack, when
    given, targets the branch used at inference. Robust inputs are
    re-checked against the eps-ball and pixel-range invariants. A batch
    the attack returns unchanged (epsilon 0, or no steps and no random
    start) reuses its clean predictions instead of a second forward.
    """
    x_all, y_all = data
    n = len(y_all)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    correct = 0
    robust = 0
    for start in range(0, n, EVAL_BATCH):
        xb = x_all[start:start + EVAL_BATCH]
        yb = y_all[start:start + EVAL_BATCH]
        hits = int((predict(model, xb, BranchMode.INFERENCE) == yb).sum())
        correct += hits
        if attack_cfg is not None:
            adv = pgd_attack(model, BranchMode.INFERENCE, xb, yb, attack_cfg,
                             rng)
            if np.abs(adv - xb).max() > attack_cfg.epsilon + 1e-7:
                raise AssertionError("adversarial input left the eps-ball")
            if adv.min() < 0.0 or adv.max() > 1.0:
                raise AssertionError("adversarial input left pixel range")
            if not np.array_equal(adv, xb):
                hits = int((predict(model, adv, BranchMode.INFERENCE) == yb)
                           .sum())
            robust += hits
    clean_acc = correct / n
    robust_acc = robust / n if attack_cfg is not None else None
    return clean_acc, robust_acc
