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
from .tensor import (ParamStore, Tensor, batch_norm, conv2d, global_avg_pool,
                     linear, untracked)

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

    Affine parameters live in the shared ParamStore (one pair per branch);
    statistics are plain arrays and never receive gradients.
    """

    def __init__(self, channels, params, prefix, dtype, eps=1e-5, momentum=0.1):
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.prefix = prefix
        self.gamma_a = params.add(f"{prefix}.gamma_a", np.ones(channels, dtype))
        self.beta_a = params.add(f"{prefix}.beta_a", np.zeros(channels, dtype))
        self.gamma_f = params.add(f"{prefix}.gamma_f", np.ones(channels, dtype))
        self.beta_f = params.add(f"{prefix}.beta_f", np.zeros(channels, dtype))
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
        self.params = ParamStore()
        self.bn = []
        c_in = config.input_shape[0]
        for i, c_out in enumerate(config.widths, start=1):
            fan_in = c_in * 9
            k = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                           size=(c_out, c_in, 3, 3)).astype(dt)
            self.params.add(f"conv{i}", k)
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
        self.params.add(f"{name}.w", w)
        self.params.add(f"{name}.b", np.zeros(classes, dt))

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

    def stat_arrays(self):
        return {f"{state.prefix}.{stat}": getattr(state, stat)
                for state in self.bn for stat in _BN_STATS}

    def state_dict(self):
        """All tensors (parameters and statistics) as plain arrays."""
        out = {name: t.data.copy() for name, t in self.params.items()}
        out.update({k: v.copy() for k, v in self.stat_arrays().items()})
        return out

    def load_state_dict(self, tensors):
        for name, t in self.params.items():
            arr = np.asarray(tensors[name], dtype=t.data.dtype)
            if arr.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {name!r}")
            t.data = arr.copy()
        for state in self.bn:
            for stat in _BN_STATS:
                name = f"{state.prefix}.{stat}"
                arr = np.asarray(tensors[name],
                                 dtype=getattr(state, stat).dtype)
                if arr.shape != (state.channels,):
                    raise ValueError(
                        f"shape mismatch for {name!r}: {arr.shape}, "
                        f"expected ({state.channels},)")
                setattr(state, stat, arr.copy())


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


def make_finetune_model(pretrained, target_classes, seed=0):
    """Build a fine-tuning model from a pre-trained MiniCNN.

    Shared weights and adaptive affines come from the pre-trained model;
    both branches start from its state. Frozen statistics are set to the
    pre-trained running (population) statistics. The pre-trained
    classifier becomes the source head and a fresh target head is drawn.
    """
    cfg = pretrained.config
    new_cfg = replace(cfg, target_classes=target_classes,
                      source_classes=cfg.target_classes)
    rng = np.random.default_rng(seed)
    model = MiniCNN(new_cfg, rng=rng)
    src = pretrained.state_dict()
    for name in model.conv_names():
        model.params[name].data = src[name].copy()
    for state in model.bn:
        p = state.prefix
        state.gamma_a.data = src[f"{p}.gamma_a"].copy()
        state.beta_a.data = src[f"{p}.beta_a"].copy()
        state.gamma_f.data = src[f"{p}.gamma_a"].copy()
        state.beta_f.data = src[f"{p}.beta_a"].copy()
        state.running_mean = src[f"{p}.running_mean"].copy()
        state.running_var = src[f"{p}.running_var"].copy()
        state.frozen_mean = src[f"{p}.running_mean"].copy()
        state.frozen_var = src[f"{p}.running_var"].copy()
    model.params["src_head.w"].data = src["head.w"].copy()
    model.params["src_head.b"].data = src["head.b"].copy()
    return model
