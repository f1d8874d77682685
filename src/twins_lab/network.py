"""MiniCNN with dual-branch batch normalization.

One set of convolution kernels and classifier weights is shared by two
normalization branches: the Adaptive branch normalizes with current batch
statistics and maintains running estimates, the Frozen branch normalizes
with fixed population statistics captured before fine-tuning. Inference
always goes through the Adaptive branch's running statistics.
"""

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .schema import check, choice, integer, integers, number
from .tensor import (Tensor, batch_norm, conv2d, global_avg_pool, linear,
                     untracked)

# stride and zero padding of every MiniCNN convolution
CONV_GEOMETRY = {"stride": 2, "pad": 1}

# per-channel statistic arrays of every BNLayerState, in checkpoint order
_BN_STATS = ("running_mean", "running_var", "frozen_mean", "frozen_var")


class BranchMode(Enum):
    ADAPTIVE_TRAIN = "adaptive"
    FROZEN_TRAIN = "frozen"
    INFERENCE = "inference"


@dataclass
class ModelConfig:
    input_shape: tuple = integers((3, 16, 16), least=1, length=3)
    widths: tuple = integers((16, 32), least=1, nonempty=True)
    target_classes: int = integer(2, least=1)
    source_classes: int = integer(0, least=0)
    dtype: str = choice("float32", ("float32", "float64"))
    # bn_eps 0 is allowed: it makes BN exactly scale-invariant
    bn_eps: float = number(1e-5)
    bn_momentum: float = number(0.1, high=1, closed=True)

    __post_init__ = check

    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


class BNLayerState:
    """Per-channel affines plus two statistic sets (running and frozen).

    Affine parameters (one pair per branch) are entries of the model's
    `params` dict; statistics are plain arrays and never receive
    gradients.
    """

    def __init__(self, channels, params, prefix, dtype, eps=1e-5, momentum=0.1):
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.prefix = prefix
        for name, init in (("gamma_a", np.ones), ("beta_a", np.zeros),
                           ("gamma_f", np.ones), ("beta_f", np.zeros)):
            t = Tensor(init(channels, dtype), requires_grad=True)
            params[f"{prefix}.{name}"] = t
            setattr(self, name, t)
        self.running_mean = np.zeros(channels, dtype)
        self.running_var = np.ones(channels, dtype)
        self.frozen_mean = np.zeros(channels, dtype)
        self.frozen_var = np.ones(channels, dtype)


def bn_forward(x, state, mode):
    """Normalize `x` per channel by the branch mode, then apply ReLU.

    Returns (y, batch_stats); batch_stats is a (mean, var) pair of plain
    arrays in ADAPTIVE_TRAIN mode and None otherwise. Each branch records
    one graph node, into which x's own node (MiniCNN's conv) is folded,
    so x must feed nothing else. Never mutates the state; committing
    batch stats is `bn_update_running`'s job.
    """
    if mode is BranchMode.ADAPTIVE_TRAIN:
        if x.shape[0] < 2:
            raise ValueError("adaptive BN needs a batch of at least 2")
        y, mean, var = batch_norm(x, state.gamma_a, state.beta_a, state.eps)
        return y, (mean, var)
    if mode is BranchMode.FROZEN_TRAIN:
        stats, gamma, beta = ((state.frozen_mean, state.frozen_var),
                              state.gamma_f, state.beta_f)
    elif mode is BranchMode.INFERENCE:
        stats, gamma, beta = ((state.running_mean, state.running_var),
                              state.gamma_a, state.beta_a)
    else:
        raise ValueError(f"unknown branch mode: {mode!r}")
    return batch_norm(x, gamma, beta, state.eps, stats)[0], None


def bn_ema(old, batch, momentum):
    """(1 - momentum) * old + momentum * batch, pair by pair: every BN EMA."""
    return tuple((1.0 - momentum) * o + momentum * b
                 for o, b in zip(old, batch))


def bn_update_running(state, batch_stats):
    """`bn_ema` of the running statistics with the (mean, var) batch pair."""
    if batch_stats is None:
        raise ValueError("batch statistics required for a running update")
    state.running_mean, state.running_var = bn_ema(
        (state.running_mean, state.running_var), batch_stats, state.momentum)


class MiniCNN:
    """Conv3x3/s2 -> BN -> ReLU -> Conv3x3/s2 -> BN -> ReLU -> GAP -> linear.

    Desk-scale stand-in for a large pre-trained backbone; two BN branches
    per conv block, weights shared between branches.
    """

    def __init__(self, config: ModelConfig, rng=None):
        self.config = config
        rng = rng if rng is not None else np.random.default_rng(0)
        dt = config.np_dtype()
        self.params = {}  # name -> trainable Tensor, in checkpoint order
        self.bn = []
        c_in = config.input_shape[0]
        for i, c_out in enumerate(config.widths, start=1):
            fan_in = c_in * 9
            k = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                           size=(c_out, c_in, 3, 3)).astype(dt)
            self.params[f"conv{i}"] = Tensor(k, requires_grad=True)
            self.bn.append(BNLayerState(c_out, self.params, f"bn{i}", dt,
                                        eps=config.bn_eps,
                                        momentum=config.bn_momentum))
            c_in = c_out
        feat = config.widths[-1]
        self._init_head(rng, "head", feat, config.target_classes, dt)
        if config.source_classes:
            self._init_head(rng, "src_head", feat, config.source_classes, dt)

    def _init_head(self, rng, name, feat, classes, dt):
        w = rng.normal(0.0, 1.0 / np.sqrt(feat), size=(feat, classes)).astype(dt)
        self.params[f"{name}.w"] = Tensor(w, requires_grad=True)
        self.params[f"{name}.b"] = Tensor(np.zeros(classes, dt),
                                          requires_grad=True)

    def conv_names(self):
        return [f"conv{i}" for i in range(1, len(self.bn) + 1)]

    def head_names(self, head="target"):
        if head == "target":
            return "head.w", "head.b"
        if head == "source":
            if "src_head.w" not in self.params:
                raise ValueError("model has no source-task head")
            return "src_head.w", "src_head.b"
        raise ValueError(f"unknown head: {head!r}")

    def forward(self, x, mode, head="target", update_running=False,
                capture=None):
        """Run one branch end to end; returns (features, logits).

        `update_running` commits the batch statistics to the running
        estimates in ADAPTIVE_TRAIN and is ignored in the other modes.
        Each conv, BN and ReLU layer is one graph node. `capture`, if a
        dict, receives per layer its input and output nodes ("bn{i}.in",
        "bn{i}.out") and its pre-BN activation as a plain array
        ("bn{i}.pre"); the graph itself keeps no pre-BN array.
        """
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.config.np_dtype()))
        wname, bname = self.head_names(head)
        h = x
        for i, state in enumerate(self.bn, start=1):
            pre = conv2d(h, self.params[f"conv{i}"], **CONV_GEOMETRY)
            if capture is not None:
                capture[f"bn{i}.in"] = h
                capture[f"bn{i}.pre"] = pre.data
            h, stats = bn_forward(pre, state, mode)
            del pre  # the pre-BN array is freed before the next conv runs
            if capture is not None:
                capture[f"bn{i}.out"] = h
            if mode is BranchMode.ADAPTIVE_TRAIN and update_running:
                bn_update_running(state, stats)
        features = global_avg_pool(h)
        logits = linear(features, self.params[wname], self.params[bname])
        return features, logits

    # -- state handling --------------------------------------------------

    def arrays(self):
        """(name, holder, attribute) of every array, in checkpoint order:
        each parameter's `data`, then each BN layer's `_BN_STATS`."""
        return ([(name, t, "data") for name, t in self.params.items()]
                + [(f"{state.prefix}.{stat}", state, stat)
                   for state in self.bn for stat in _BN_STATS])

    def stat_arrays(self):
        return {name: getattr(holder, attr)
                for name, holder, attr in self.arrays() if attr != "data"}

    def state_dict(self):
        """All tensors (parameters and statistics) as plain arrays."""
        return {name: getattr(holder, attr).copy()
                for name, holder, attr in self.arrays()}

    def load_state_dict(self, tensors):
        for name, holder, attr in self.arrays():
            own = getattr(holder, attr)
            arr = np.array(tensors[name], dtype=own.dtype)  # a copy
            if arr.shape != own.shape:
                raise ValueError(f"shape mismatch for {name!r}: {arr.shape}, "
                                 f"expected {own.shape}")
            setattr(holder, attr, arr)


def predict(model, x, mode, head="target"):
    """Each row's argmax class under one branch, without updating running
    statistics. The forward runs untracked, so it records no graph."""
    with untracked(model.params):
        _, logits = model.forward(x, mode, head=head)
    return logits.data.argmax(axis=1)


def copy_model(model):
    clone = MiniCNN(model.config, rng=np.random.default_rng(0))
    clone.load_state_dict(model.state_dict())
    return clone


# TWINS' start: the pre-trained array each fine-tuning array copies, by
# layer and array name; any other name copies its own
_FROM_PRETRAINED = {"gamma_f": "gamma_a", "beta_f": "beta_a",
                    "frozen_mean": "running_mean",
                    "frozen_var": "running_var", "src_head": "head"}


def make_finetune_model(pretrained, target_classes, seed=0):
    """A fine-tuning model of a pre-trained MiniCNN: both branches start
    from its adaptive affines, the Frozen branch from its running
    (population) statistics, the source head from its classifier, and the
    target head is the fresh model's draw."""
    cfg = pretrained.config
    model = MiniCNN(replace(cfg, target_classes=target_classes,
                            source_classes=cfg.target_classes),
                    rng=np.random.default_rng(seed))
    src = pretrained.state_dict()
    start = model.state_dict()
    for name in start:
        layer, dot, part = name.rpartition(".")
        if layer != "head":
            start[name] = src[_FROM_PRETRAINED.get(layer, layer) + dot
                              + _FROM_PRETRAINED.get(part, part)]
    model.load_state_dict(start)
    return model
