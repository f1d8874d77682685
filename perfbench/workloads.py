"""The three benchmark workloads: their inputs, commands and checks.

Every input is derived from the benchmark's `--seed`; the program sees
only the generated files and configs. `setup(name, seed)` writes the
inputs into the current directory and returns the commands of one pass.
Commands write their artifacts under OUT.
All paths are relative, so outputs (and their digests) do not depend on
where the run happens.
"""

import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from twins_lab.attack import AttackConfig
from twins_lab.checkpoint import load_checkpoint, save_checkpoint
from twins_lab.data import DatasetSpec, gen_synthetic_dataset, save_idx
from twins_lab.network import MiniCNN, ModelConfig, make_finetune_model
from twins_lab.training import TrainConfig, run_training

import checks

OUT = "out"


@dataclass
class Command:
    argv: list
    images: int  # images this command counts towards images_per_s
    check: Callable[[str], list]  # printed output -> problems


def derive_seeds(seed):
    """Data-generation and training seeds for one benchmark seed."""
    rng = random.Random(seed)
    draw = lambda: rng.randrange(1, 2**31 - 1)
    return {"source_data": draw(), "target_data": draw(), "pretrain": draw(),
            "finetune": [draw(), draw(), draw()], "eval": draw()}


def split_sizes(n, val_fraction):
    """(train, val) sizes as `twins_lab.data.split_train_val` cuts them."""
    n_val = int(round(n * val_fraction))
    return n - n_val, n_val


def step_images(spec, batch, epochs):
    """Images consumed by optimizer steps; trailing partial batches are
    dropped by the training loop."""
    n_train, _ = split_sizes(spec["classes"] * spec["per_class"],
                             spec.get("val_fraction", 0.25))
    return n_train // batch * batch * epochs


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def readme_config(seeds):
    """The README example config, shapes and batch kept, epochs cut to
    one and the fine-tune warmup switched on."""
    return {
        "out_dir": OUT,
        "seeds": seeds["finetune"],
        "model": {"input_shape": [3, 16, 16], "widths": [16, 32],
                  "target_classes": 3},
        "source_data": {"source": "synthetic", "classes": 4,
                        "image_shape": [3, 16, 16], "per_class": 120,
                        "noise_std": 0.3, "seed": seeds["source_data"]},
        "target_data": {"source": "synthetic", "classes": 3,
                        "image_shape": [3, 16, 16], "per_class": 120,
                        "noise_std": 0.35, "seed": seeds["target_data"]},
        "pretrain": {"method": "at", "eta": 0.05, "epochs": 1, "batch": 64,
                     "milestones": [], "seed": seeds["pretrain"],
                     "attack": {"epsilon": 0.0157, "alpha": 0.0039,
                                "steps": 10}},
        "finetune": {"method": "twins-at", "eta": 0.02, "epochs": 1,
                     "batch": 64, "milestones": [], "lambda_twins": 0.3,
                     "warmup_epochs": 1,
                     "attack": {"epsilon": 0.0314, "alpha": 0.0078,
                                "steps": 10}},
    }


def setup_readme_run(seed):
    seeds = derive_seeds(seed)
    cfg = readme_config(seeds)
    _write_json("readme.json", cfg)
    pre, ft = cfg["pretrain"], cfg["finetune"]
    ft_images = step_images(cfg["target_data"], ft["batch"], ft["epochs"])
    run_seeds = cfg["seeds"]
    trades_seed = run_seeds[0]

    def check_run(printed):
        problems = checks.check_summary(f"{OUT}/summary.json", run_seeds,
                                        printed)
        problems += checks.check_metrics_csv(f"{OUT}/pretrain_metrics.csv",
                                             pre["epochs"])
        problems += checks.check_checkpoint(f"{OUT}/pretrained.ckpt",
                                            load_checkpoint, "pretrain", "at")
        for s in run_seeds:
            problems += checks.check_metrics_csv(f"{OUT}/metrics_seed{s}.csv",
                                                 ft["epochs"])
            problems += checks.check_checkpoint(
                f"{OUT}/finetuned_seed{s}.ckpt", load_checkpoint, "finetune",
                "twins-at")
        return problems

    def check_finetune(printed):
        tag = f"twins-trades_seed{trades_seed}"
        problems = checks.check_metrics_csv(f"{OUT}/metrics_{tag}.csv",
                                            ft["epochs"])
        problems += checks.check_checkpoint(f"{OUT}/finetuned_{tag}.ckpt",
                                            load_checkpoint, "finetune",
                                            "twins-trades")
        if not printed.startswith(f"seed {trades_seed}: clean "):
            problems.append(f"finetune: printed {printed[:60]!r}")
        return problems

    return [
        Command(["run", "readme.json"],
                step_images(cfg["source_data"], pre["batch"], pre["epochs"])
                + len(run_seeds) * ft_images, check_run),
        Command(["finetune", "readme.json", "--method", "twins-trades",
                 "--seed", str(trades_seed),
                 "--checkpoint", f"{OUT}/pretrained.ckpt"],
                ft_images, check_finetune),
    ]


def setup_robust_eval(seed):
    """A large held-out split attacked with PGD-20 through a fine-tune
    checkpoint trained briefly here, so its running statistics are real."""
    seeds = derive_seeds(seed)
    target = {"source": "synthetic", "classes": 3, "image_shape": [3, 16, 16],
              "per_class": 500, "noise_std": 0.35, "val_fraction": 0.8,
              "seed": seeds["target_data"]}
    cfg = {"out_dir": OUT,
           "model": {"input_shape": [3, 16, 16], "widths": [16, 32],
                     "target_classes": 3},
           "target_data": target,
           "finetune": {"method": "twins-at", "batch": 64},
           "eval_attack": {"epsilon": 0.0314, "alpha": 0.0078, "steps": 20}}
    _write_json("eval.json", cfg)

    ckpt = "finetuned.ckpt"
    x, y = gen_synthetic_dataset(DatasetSpec(**{
        **target, "image_shape": tuple(target["image_shape"]),
        "per_class": 100}))
    pretrained = MiniCNN(ModelConfig(input_shape=(3, 16, 16),
                                     widths=(16, 32), target_classes=4),
                         rng=np.random.default_rng(seeds["pretrain"]))
    model = make_finetune_model(pretrained, 3, seed=seeds["finetune"][0])
    model, _ = run_training(
        TrainConfig(method="std", eta=0.05, epochs=1, batch=50,
                    milestones=(), seed=seeds["finetune"][0],
                    attack=AttackConfig(epsilon=0.0)),
        (x[50:], y[50:]), (x[:50], y[:50]), model)
    save_checkpoint(ckpt, model, {"stage": "finetune", "method": "std",
                                  "seed": seeds["finetune"][0], "epochs": 1})
    problems = checks.check_checkpoint(ckpt, load_checkpoint, "finetune",
                                       "std")
    if problems:
        raise RuntimeError("; ".join(problems))

    _, n_val = split_sizes(target["classes"] * target["per_class"],
                           target["val_fraction"])
    return [
        Command(["eval", "eval.json", "--checkpoint", ckpt,
                 "--seed", str(seeds["eval"])],
                n_val, lambda printed: checks.check_eval_output(printed,
                                                                ckpt)),
    ]


def setup_clean_pretrain(seed):
    """MNIST-shaped IDX files and a clean `std` pre-training at batch 256;
    epsilon 0 keeps the per-epoch evaluation clean."""
    seeds = derive_seeds(seed)
    source = {"classes": 10, "per_class": 120}
    x, y = gen_synthetic_dataset(DatasetSpec(
        classes=source["classes"], image_shape=(1, 28, 28),
        per_class=source["per_class"], noise_std=0.3,
        seed=seeds["source_data"]))
    save_idx(x, y, "images.idx", "labels.idx")
    pre = {"method": "std", "eta": 0.05, "epochs": 2, "batch": 256,
           "milestones": [1], "seed": seeds["pretrain"],
           "attack": {"epsilon": 0.0}}
    cfg = {"out_dir": OUT,
           "model": {"input_shape": [1, 28, 28], "widths": [16, 32],
                     "target_classes": 10},
           "source_data": {"source": "idx-files", "classes": 10,
                           "image_shape": [1, 28, 28],
                           "images_path": "images.idx",
                           "labels_path": "labels.idx",
                           "seed": seeds["source_data"]},
           "target_data": {"source": "synthetic", "classes": 2,
                           "image_shape": [1, 28, 28], "per_class": 4,
                           "seed": seeds["target_data"]},
           "pretrain": pre,
           "finetune": {"method": "std"}}
    _write_json("clean.json", cfg)

    def check_pretrain(printed):
        problems = checks.check_metrics_csv(f"{OUT}/pretrain_metrics.csv",
                                            pre["epochs"],
                                            clean_equals_robust=True)
        problems += checks.check_checkpoint(f"{OUT}/pretrained.ckpt",
                                            load_checkpoint, "pretrain",
                                            "std")
        if not printed.startswith("pre-training done: "):
            problems.append(f"pretrain: printed {printed[:60]!r}")
        return problems

    return [
        Command(["pretrain", "clean.json", "--out", OUT],
                step_images(source, pre["batch"], pre["epochs"]),
                check_pretrain),
    ]


def setup(name, seed):
    return {"readme-run": setup_readme_run,
            "robust-eval": setup_robust_eval,
            "clean-pretrain": setup_clean_pretrain}[name](seed)
