"""Desk-scale laboratory for dual-branch batch-norm adversarial
fine-tuning: tensor engine, MiniCNN, PGD attacks, training objectives,
gradient-dynamics diagnostics and experiment orchestration."""

from .attack import AttackConfig, pgd_attack, project_linf
from .network import BNLayerState, BranchMode, MiniCNN, ModelConfig
from .tensor import Tensor, backprop, finite_diff_grad
from .training import TrainConfig, run_training

__all__ = [
    "AttackConfig", "BNLayerState", "BranchMode", "MiniCNN", "ModelConfig",
    "Tensor", "TrainConfig", "backprop", "finite_diff_grad", "pgd_attack",
    "project_linf", "run_training",
]
