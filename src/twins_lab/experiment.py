"""Config-driven experiment orchestration and metrics emission."""

import dataclasses
import json
import os

import numpy as np

from .analysis import evaluate
from .attack import AttackConfig
from .checkpoint import atomic_open, save_checkpoint
from .data import DatasetSpec, load_dataset, split_sizes, val_split_size
from .network import MiniCNN, ModelConfig, make_finetune_model
from .schema import check, integers, text
from .training import (TrainConfig, require_val_split, run_training,
                       warmup_bn)

METRICS_HEADER = ("epoch,lr,train_loss,clean_acc,pgd_acc,"
                  "grad_norm_mean,grad_norm_cv,weight_dist")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _build(cls, raw, context):
    """The config dataclass `cls` of the JSON object `raw`, with nested
    sections; a bad key or value raises ConfigError prefixed `context`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: expected an object")
    sections = {f.name: f.metadata["section"] for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(sections)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    kwargs = {key: _build(sections[key], value, f"{context}.{key}")
              if sections[key] else value for key, value in raw.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def parse_train_config(raw, context="train"):
    return _build(TrainConfig, raw, context)


def parse_dataset_spec(raw, context="dataset"):
    spec = _build(DatasetSpec, raw, context)
    for path in (spec.images_path, spec.labels_path):
        if path and not os.path.exists(path):
            raise ConfigError(f"{context}: referenced file {path!r} missing")
    return spec


@dataclasses.dataclass
class _TopLevel:
    """The config's values outside every section."""
    out_dir: str = text("")
    seeds: tuple = integers((0,), least=0, nonempty=True)

    __post_init__ = check


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
        try:
            top = _TopLevel(**{k: raw[k] for k in ("out_dir", "seeds")
                               if k in raw})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.out_dir = top.out_dir
        self.seeds = list(top.seeds)
        self.model = _build(ModelConfig, raw["model"], "model")
        self.target_data = parse_dataset_spec(raw["target_data"],
                                              "target_data")
        self.source_data = (parse_dataset_spec(raw["source_data"],
                                               "source_data")
                            if raw.get("source_data") else None)
        self.pretrain = (parse_train_config(raw["pretrain"], "pretrain")
                         if raw.get("pretrain") else None)
        self.finetune = parse_train_config(raw["finetune"], "finetune")
        self.eval_attack = (_build(AttackConfig, raw["eval_attack"],
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


def require_full_batch(cfg, *stages):
    """Raise ConfigError, naming the key, where a stage of `cfg`
    ("pretrain" or "finetune") has a batch larger than the train split of
    its data (source_data or target_data): a partial batch is dropped, so
    the stage would train no step."""
    for stage, key in (("pretrain", "source_data"),
                       ("finetune", "target_data")):
        train, spec = getattr(cfg, stage), getattr(cfg, key)
        if stage not in stages or train is None or spec is None:
            continue
        n_train = split_sizes(spec)[0]
        if train.batch > n_train:
            raise ConfigError(f"{stage}: batch {train.batch} exceeds the "
                              f"{n_train} images of {key}'s train split")


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
    pre-training, and so does a batch larger than its train split."""
    require_val_split(val_split_size(cfg.target_data))
    require_full_batch(cfg, "pretrain", "finetune")
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
