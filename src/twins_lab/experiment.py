"""Config-driven experiment orchestration and metrics emission."""

import dataclasses
import json
import os

import numpy as np

from .analysis import evaluate
from .attack import AttackConfig
from .checkpoint import atomic_open, save_checkpoint
from .data import DatasetSpec, load_dataset, split_sizes
from .network import MiniCNN, ModelConfig, make_finetune_model
from .schema import REQUIRED, check, integers, section, text
from .training import (TrainConfig, require_val_split, run_training,
                       warmup_bn)

METRICS_HEADER = ("epoch,lr,train_loss,clean_acc,pgd_acc,"
                  "grad_norm_mean,grad_norm_cv,weight_dist")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _build(cls, raw, context=""):
    """The config dataclass `cls` of the JSON object `raw`, with its nested
    sections (null for an optional one means absent); a bad, unknown or
    missing key raises ConfigError prefixed `context`, the dotted name of
    the section, which is empty at the top level."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: expected an object" if context
                          else "the config must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}" if context
                          else f"unknown top-level keys {unknown}")
    for name, field in fields.items():
        if name not in raw and field.default is REQUIRED \
                and field.default_factory is REQUIRED:
            raise ConfigError(f"missing required key {name!r}")
    kwargs = {}
    for key, value in raw.items():
        cls_of = fields[key].metadata["section"]
        kwargs[key] = (_build(cls_of, value,
                              f"{context}.{key}" if context else key)
                       if cls_of and value is not None else value)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}" if context else str(exc)) \
            from exc


@dataclasses.dataclass
class ExperimentConfig:
    """A whole experiment, checked on construction and so on every
    `dataclasses.replace`: each field against its kind, then the rules
    that relate sections, each raising ConfigError that names its key.
    `eval_attack` defaults to the fine-tuning attack."""
    out_dir: str = text(REQUIRED)
    model: ModelConfig = section(ModelConfig, REQUIRED)
    target_data: DatasetSpec = section(DatasetSpec, REQUIRED)
    finetune: TrainConfig = section(TrainConfig, REQUIRED)
    source_data: DatasetSpec = section(DatasetSpec, None)
    pretrain: TrainConfig = section(TrainConfig, None)
    eval_attack: AttackConfig = section(AttackConfig, None)
    seeds: tuple = integers((0,), least=0, nonempty=True)

    def __post_init__(self):
        check(self)
        if self.eval_attack is None:
            self.eval_attack = self.finetune.attack
        if self.pretrain is not None and self.source_data is None:
            raise ConfigError("pretrain stage declared without source_data")
        # a target's classes are its label bound, whatever its source
        model = self.model
        if self.target_data.classes > model.target_classes:
            raise ConfigError(f"target_data: classes "
                              f"{self.target_data.classes} exceeds "
                              f"model.target_classes {model.target_classes}")
        for key, spec in (("target_data", self.target_data),
                          ("source_data", self.source_data)):
            if spec is None:
                continue
            for path in (spec.images_path, spec.labels_path):
                if path and not os.path.exists(path):
                    raise ConfigError(f"{key}: referenced file {path!r} "
                                      "missing")
            if (spec.source == "synthetic"
                    and tuple(spec.image_shape) != model.input_shape):
                raise ConfigError(f"{key}: image_shape "
                                  f"{list(spec.image_shape)} differs from "
                                  f"model.input_shape "
                                  f"{list(model.input_shape)}")


def parse_config(raw):
    """The ExperimentConfig of the JSON object `raw`."""
    return _build(ExperimentConfig, raw)


def load_config(path):
    """The ExperimentConfig of the JSON file at `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))


def stage(cfg, name):
    """The TrainConfig of `cfg`'s stage `name` ("pretrain" or "finetune");
    ConfigError if the config declares none."""
    train = getattr(cfg, name)
    if train is None:
        raise ConfigError(f"{name}: the config declares no {name} stage")
    return train


def require_stages(cfg, *names):
    """Raise ConfigError, naming the key, unless each stage in `names` is
    declared and its batch fits the train split of its data (source_data
    or target_data: a partial batch is dropped, so a larger batch would
    train no step), and ValueError naming the data if that data's
    validation split is empty. Each command calls this once for the
    stages it runs, before it writes anything."""
    for name in names:
        batch = stage(cfg, name).batch
        key = "source_data" if name == "pretrain" else "target_data"
        n_train, n_val = split_sizes(getattr(cfg, key))
        if batch > n_train:
            raise ConfigError(f"{name}: batch {batch} exceeds the "
                              f"{n_train} images of {key}'s train split")
        require_val_split(n_val, key)


def write_metrics(history, path):
    """CSV with the fixed metrics header, one row per epoch."""
    if len(history) == 0:
        raise ValueError("refusing to write an empty metrics file")
    lines = [METRICS_HEADER]
    for rec in history:
        lines.append(",".join([
            str(rec.epoch), f"{rec.lr:.12g}", f"{rec.train_loss:.12g}",
            f"{rec.clean_acc:.12g}", f"{rec.pgd_acc:.12g}",
            f"{rec.grad_norm_mean:.12g}", f"{rec.grad_norm_cv:.12g}",
            f"{rec.weight_dist:.12g}"]))
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_metrics(path):
    """The rows of a metrics CSV as {column: float}. A file without rows,
    or a row without one number per header column, raises ValueError
    naming the file (and the line)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    if lines[0] != METRICS_HEADER:
        raise ValueError(f"{path}: unexpected metrics header")
    if len(lines) == 1:
        raise ValueError(f"{path}: no metrics rows below the header")
    cols = METRICS_HEADER.split(",")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        values = line.split(",")
        where = f"{path}, line {number}"
        if len(values) != len(cols):
            raise ValueError(f"{where}: {len(values)} fields, but the "
                             f"header has {len(cols)}")
        try:
            rows.append({c: float(v) for c, v in zip(cols, values)})
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return rows


def _source_model_config(cfg):
    return dataclasses.replace(cfg.model,
                               target_classes=cfg.source_data.classes,
                               source_classes=0)


def joint_source(cfg):
    """The source (train, val) pair `joint` fine-tuning draws from, or
    None for every other method. Load it once per command and pass it to
    `run_pretrain` and to `run_finetune` for every seed."""
    if cfg.finetune.method != "joint":
        return None
    if cfg.source_data is None:
        raise ConfigError("joint fine-tuning needs source_data")
    return load_dataset(cfg.source_data)


def run_pretrain(cfg, out_dir=None, source=None):
    """Robust source-task pre-training from random init; returns the
    trained model and writes a checkpoint when out_dir is given.

    `source` is the (train, val) pair of `cfg.source_data` when the
    caller has already loaded it."""
    train, val = load_dataset(cfg.source_data) if source is None else source
    model = MiniCNN(_source_model_config(cfg),
                    rng=np.random.default_rng(cfg.pretrain.seed))
    model, history = run_training(cfg.pretrain, train, val, model)
    if out_dir is not None:
        save_checkpoint(os.path.join(out_dir, "pretrained.ckpt"), model,
                        {"stage": "pretrain", "method": cfg.pretrain.method,
                         "seed": cfg.pretrain.seed,
                         "epochs": cfg.pretrain.epochs})
        write_metrics(history, os.path.join(out_dir, "pretrain_metrics.csv"))
    return model, history


def run_finetune(cfg, pretrained, seed, target, source=None, out_dir=None,
                 tag=""):
    """Warmup (optional) plus fine-tuning for one seed.

    `target` is the (train, val) pair `load_dataset(cfg.target_data)`
    returns, and `source` the pair `joint_source(cfg)` returns; both are
    only read, so one load can serve every seed.
    """
    train, val = target
    ft = dataclasses.replace(cfg.finetune, seed=seed)
    model = make_finetune_model(pretrained, cfg.model.target_classes,
                                seed=seed)
    if ft.warmup_epochs > 0:
        warmup_bn(model, train[0], ft.attack,
                  rng=np.random.default_rng(seed + 7919),
                  warmup_epochs=ft.warmup_epochs, batch=ft.batch)
    model, history = run_training(ft, train, val, model, source_data=(
        None if source is None else source[0]))
    if out_dir is not None:
        suffix = f"{tag}_seed{seed}" if tag else f"seed{seed}"
        save_checkpoint(os.path.join(out_dir, f"finetuned_{suffix}.ckpt"),
                        model, {"stage": "finetune", "method": ft.method,
                                "seed": seed, "epochs": ft.epochs})
        write_metrics(history,
                      os.path.join(out_dir, f"metrics_{suffix}.csv"))
    return model, history


def run_experiment(cfg):
    """Full pipeline of the ExperimentConfig `cfg`: optional pre-training,
    then per-seed warmup, fine-tuning and evaluation. Artifacts land in
    `cfg.out_dir`, which is made only once every stage has passed
    `require_stages`."""
    require_stages(cfg, *(("finetune",) if cfg.pretrain is None
                          else ("pretrain", "finetune")))
    source = joint_source(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.pretrain is not None:
        pretrained, _ = run_pretrain(cfg, out_dir=cfg.out_dir, source=source)
    else:
        pretrained = MiniCNN(_source_model_config(cfg) if cfg.source_data
                             else dataclasses.replace(cfg.model,
                                                      source_classes=0),
                             rng=np.random.default_rng(cfg.finetune.seed))
    target = load_dataset(cfg.target_data)
    results = {}
    for seed in cfg.seeds:
        model, history = run_finetune(cfg, pretrained, seed, target, source,
                                      out_dir=cfg.out_dir)
        clean, robust = evaluate(model, target[1], cfg.eval_attack,
                                 rng=np.random.default_rng(seed + 104729))
        results[seed] = {"clean_acc": clean, "pgd_acc": robust}
    with atomic_open(os.path.join(cfg.out_dir, "summary.json"), "w",
                     encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    return results
