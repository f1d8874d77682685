"""The mechanism TWINS rests on, as one number per conv filter.

Under batch statistics a conv filter W_o is scale-invariant, so the
gradient of any loss behind it is orthogonal to it: the radial fraction
|<W_o, dW_o>| / (|W_o| |dW_o|) is 0 up to float rounding at bn_eps 0, and
up to a term of order bn_eps otherwise (van Laarhoven, arXiv 1706.05350).
The Frozen branch normalizes with fixed statistics, which breaks the
invariance, so a twins objective gives the filters a radial component:
the paper's "relationship between weight norm and gradient norm ... is
broken". Each property checks one `batch_loss` plus `backprop` of a
float64 fine-tune model whose frozen statistics come from a pre-training
run, on a drawn batch of 32 images.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twins_lab.attack import AttackConfig
from twins_lab.data import (DatasetSpec, gen_synthetic_dataset,
                            split_train_val)
from twins_lab.network import (MiniCNN, ModelConfig, copy_model,
                               make_finetune_model)
from twins_lab.tensor import backprop
from twins_lab.training import TrainConfig, batch_loss, run_training

PROFILE = settings(derandomize=True, database=None, deadline=None,
                   max_examples=50)

ADAPTIVE_ONLY = ("std", "at", "trades", "lwf", "joint")
TWINS = ("twins-at", "twins-trades")
ATTACK = AttackConfig(epsilon=8 / 255, alpha=2 / 255, steps=2)

# Bounds derived from float64 readings of `radial_fractions` for seeds
# 0-399, every method and both bn_eps values (x86-64, numpy 2.4.6,
# OpenBLAS):
# - adaptive-only at bn_eps 0: largest fraction 4.2e-15; the bound 1e-13
#   leaves 24x headroom over float rounding
# - adaptive-only at bn_eps 1e-5: largest fraction 7.9e-5 (7.9 * bn_eps);
#   the bound 1e-13 + 30 * bn_eps = 3e-4 leaves 3.8x headroom
# - twins: the smallest largest-filter fraction of a draw was 1.15e-2 and
#   the smallest median 1.78e-3; the floors 3e-3 and 5e-4 leave 3.8x and
#   3.6x margin, and lie 10x and 1.7x above the adaptive-only bound at
#   bn_eps 1e-5, so the two properties separate the methods
ROUNDING_BOUND = 1e-13
EPS_SLOPE = 30
TWINS_MAX_FLOOR = 3e-3
TWINS_MEDIAN_FLOOR = 5e-4


@functools.lru_cache(maxsize=None)
def _pretrained(bn_eps):
    """A 2-epoch `std` pre-training of widths 4/6 on 3x8x8 images."""
    x, y = gen_synthetic_dataset(DatasetSpec(
        classes=3, image_shape=(3, 8, 8), per_class=40, noise_std=0.3))
    train, val = split_train_val(x.astype(np.float64), y, 0.25)
    model = MiniCNN(ModelConfig(input_shape=(3, 8, 8), widths=(4, 6),
                                target_classes=3, dtype="float64",
                                bn_eps=bn_eps),
                    rng=np.random.default_rng(0))
    cfg = TrainConfig(method="std", eta=0.05, epochs=2, batch=32,
                      milestones=(), attack=ATTACK)
    return run_training(cfg, train, val, model)[0]


def radial_fractions(method, bn_eps, seed):
    """Each conv filter's radial fraction after one step's `batch_loss`
    and `backprop` of `method` on a batch of 32 drawn from `seed`."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(32, 3, 8, 8))
    y = rng.integers(0, 2, size=32)
    model = make_finetune_model(_pretrained(bn_eps), 2, seed=seed)
    cfg = TrainConfig(method=method, batch=32, attack=ATTACK, lambda_lwf=1.0,
                      lambda_uot=1.0)
    names = model.conv_names()
    grads = backprop(batch_loss(model, x, y, cfg, rng,
                                reference=copy_model(model), source=(x, y)),
                     model.params, names)
    fractions = []
    for name in names:
        w = model.params[name].data.reshape(len(grads[name]), -1)
        g = grads[name].reshape(len(w), -1)
        fractions.extend(np.abs((w * g).sum(axis=1))
                         / (np.linalg.norm(w, axis=1)
                            * np.linalg.norm(g, axis=1)))
    return np.array(fractions)


@PROFILE
@given(st.sampled_from(ADAPTIVE_ONLY), st.sampled_from((0.0, 1e-5)),
       st.integers(0, 2**16))
def test_adaptive_only_gradient_is_orthogonal_to_each_filter(method, bn_eps,
                                                             seed):
    fractions = radial_fractions(method, bn_eps, seed)
    assert fractions.max() <= ROUNDING_BOUND + EPS_SLOPE * bn_eps


@PROFILE
@given(st.sampled_from(TWINS), st.sampled_from((0.0, 1e-5)),
       st.integers(0, 2**16))
def test_frozen_branch_gives_the_filters_a_radial_component(method, bn_eps,
                                                            seed):
    fractions = radial_fractions(method, bn_eps, seed)
    assert fractions.max() >= TWINS_MAX_FLOOR
    assert np.median(fractions) >= TWINS_MEDIAN_FLOOR
