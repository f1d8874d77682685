"""Config-driven experiment orchestration and metrics emission."""

import dataclasses
import json
import os

import numpy as np

from .analysis import evaluate
from .attack import AttackConfig
from .checkpoint import atomic_open, save_checkpoint
from .data import DatasetSpec, load_dataset, val_split_size
from .network import (MiniCNN, ModelConfig, _is_int, _is_real,
                      make_finetune_model)
from .training import (TrainConfig, require_val_split, run_training,
                       warmup_bn)

METRICS_HEADER = ("epoch,lr,train_loss,clean_acc,pgd_acc,"
                  "grad_norm_mean,grad_norm_cv,weight_dist")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _int_list(value):
    return isinstance(value, (list, tuple)) and all(map(_is_int, value))


# (kind of a field's default, test of a config value, what the test asks)
_KINDS = ((bool, lambda v: isinstance(v, bool), "true or false"),
          (int, _is_int, "an integer"),
          (float, _is_real, "a number"),
          (str, lambda v: isinstance(v, str), "a string"),
          (tuple, _int_list, "a list of integers"))


def _check_type(field, value, context):
    """Raise ConfigError unless `value` has the type of `field`'s default."""
    for kind, test, wanted in _KINDS:
        if isinstance(field.default, kind):
            if not test(value):
                raise ConfigError(f"{context}: {field.name} must be "
                                  f"{wanted}, got {value!r}")
            return


def _build(cls, raw, context, converters=None):
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: expected an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(converters or {}) - set(fields)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        if converters and key in converters:
            kwargs[key] = converters[key](value)
            continue
        if cls is not ModelConfig:  # ModelConfig checks its own values
            _check_type(fields[key], value, context)
        if isinstance(value, list):
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def parse_attack_config(raw, context="attack"):
    return _build(AttackConfig, raw, context)


def parse_train_config(raw, context="train"):
    return _build(TrainConfig, raw, context,
                  converters={"attack": parse_attack_config})


def parse_dataset_spec(raw, context="dataset"):
    spec = _build(DatasetSpec, raw, context)
    for path in (spec.images_path, spec.labels_path):
        if path and not os.path.exists(path):
            raise ConfigError(f"{context}: referenced file {path!r} missing")
    return spec


class ExperimentConfig:
    """Validated JSON experiment description.

    Top-level keys: out_dir, seeds, model, target_data, source_data
    (optional), pretrain (optional), finetune, eval_attack (optional,
    else the fine-tuning attack). Unknown keys are rejected everywhere.
    """

    _TOP_KEYS = {"out_dir", "seeds", "model", "target_data", "source_data",
                 "pretrain", "finetune", "eval_attack"}

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("the config must be a JSON object")
        unknown = set(raw) - self._TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
        for key in ("out_dir", "model", "target_data", "finetune"):
            if key not in raw:
                raise ConfigError(f"missing required key {key!r}")
        if not isinstance(raw["out_dir"], str):
            raise ConfigError(f"out_dir must be a string, got "
                              f"{raw['out_dir']!r}")
        seeds = raw.get("seeds", [0])
        if not (isinstance(seeds, list) and seeds and _int_list(seeds)):
            raise ConfigError(f"seeds must be a non-empty list of integers, "
                              f"got {seeds!r}")
        self.out_dir = raw["out_dir"]
        self.seeds = list(seeds)
        self.model = _build(ModelConfig, raw["model"], "model")
        self.target_data = parse_dataset_spec(raw["target_data"],
                                              "target_data")
        self.source_data = (parse_dataset_spec(raw["source_data"],
                                               "source_data")
                            if raw.get("source_data") else None)
        self.pretrain = (parse_train_config(raw["pretrain"], "pretrain")
                         if raw.get("pretrain") else None)
        self.finetune = parse_train_config(raw["finetune"], "finetune")
        self.eval_attack = (parse_attack_config(raw["eval_attack"],
                                                "eval_attack")
                            if raw.get("eval_attack")
                            else self.finetune.attack)
        if self.pretrain is not None and self.source_data is None:
            raise ConfigError("pretrain stage declared without source_data")
        self._check_data()

    def _check_data(self):
        """Raise ConfigError, naming the key, where a dataset disagrees with
        the model: a synthetic one with images of another shape, or a
        target of any source that declares more classes, its label bound,
        than the target head has."""
        model = self.model
        if self.target_data.classes > model.target_classes:
            raise ConfigError(f"target_data: classes "
                              f"{self.target_data.classes} exceeds "
                              f"model.target_classes {model.target_classes}")
        for key, spec in (("target_data", self.target_data),
                          ("source_data", self.source_data)):
            if spec is None or spec.source != "synthetic":
                continue
            if tuple(spec.image_shape) != model.input_shape:
                raise ConfigError(f"{key}: image_shape "
                                  f"{list(spec.image_shape)} differs from "
                                  f"model.input_shape "
                                  f"{list(model.input_shape)}")

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))


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
    """The rows of a metrics CSV as {column: float}. A row without one
    number per header column raises ValueError naming the file and
    line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    if lines[0] != METRICS_HEADER:
        raise ValueError(f"{path}: unexpected metrics header")
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
    if cfg.source_data is None or cfg.pretrain is None:
        raise ConfigError("pre-training needs source_data and pretrain")
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
    require_val_split(len(val[1]))
    ft = dataclasses.replace(cfg.finetune, seed=seed)
    model = make_finetune_model(pretrained, cfg.model.target_classes,
                                seed=seed)
    if ft.warmup_epochs > 0:
        warmup_bn(model, train[0], ft.attack,
                  rng=np.random.default_rng(seed + 7919),
                  warmup_epochs=ft.warmup_epochs, batch=ft.batch)
    source_train = None
    if ft.method == "joint":
        if source is None:
            raise ConfigError("joint fine-tuning needs the source dataset")
        source_train = source[0]
    model, history = run_training(ft, train, val, model,
                                  source_data=source_train)
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
    `cfg.out_dir`. An empty target validation split fails before
    pre-training."""
    require_val_split(val_split_size(cfg.target_data))
    os.makedirs(cfg.out_dir, exist_ok=True)
    source = joint_source(cfg)
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
