"""Config-driven experiment orchestration and metrics emission."""

import dataclasses
import json
import os

import numpy as np

from .analysis import evaluate
from .attack import AttackConfig
from .checkpoint import atomic_open, save_checkpoint
from .data import DatasetSpec, load_dataset
from .network import MiniCNN, ModelConfig, make_finetune_model
from .schema import REQUIRED, check, integers, section, text
from .training import (METHODS, EpochRecord, TrainConfig, run_training,
                       warmup_bn)

# the metrics CSV's columns, in order
METRICS_HEADER = ",".join(f.name for f in dataclasses.fields(EpochRecord))


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
        if self.pretrain is not None:
            if self.source_data is None:
                raise ConfigError("pretrain stage declared without "
                                  "source_data")
            if METHODS[self.pretrain.method].joint:
                raise ConfigError("pretrain: method 'joint' needs a source "
                                  "head, and pre-training has none")
            if self.pretrain.warmup_epochs:
                raise ConfigError(f"pretrain: warmup_epochs must be 0, got "
                                  f"{self.pretrain.warmup_epochs}: only "
                                  "fine-tuning warms up")
        model = self.model
        if model.source_classes:
            raise ConfigError(f"model.source_classes must be 0, got "
                              f"{model.source_classes}: pre-training or "
                              "the checkpoint sets the source head")
        for key, spec in (("target_data", self.target_data),
                          ("source_data", self.source_data)):
            if spec is None:
                continue
            for path in (spec.images_path, spec.labels_path):
                if path and not os.path.exists(path):
                    raise ConfigError(f"{key}: referenced file {path!r} "
                                      "missing")


def parse_config(raw):
    """The ExperimentConfig of the JSON object `raw`."""
    return _build(ExperimentConfig, raw)


def load_config(path, edits=None):
    """The ExperimentConfig of the JSON file at `path`, each dotted key of
    `edits` ("out_dir", "finetune.method", ...) set to its value first,
    in a section the file declares, so that it is checked as the file's
    own value would be."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    for key, value in (edits or {}).items():
        section, _, name = key.rpartition(".")
        target = raw.get(section) if section and isinstance(raw, dict) else raw
        if isinstance(target, dict):  # else the check names the fault
            target[name] = value
    return parse_config(raw)


# each stage's dataset, and whether it trains on it; eval attacks it instead
_READS = {"pretrain": ("source_data", True),
          "finetune": ("target_data", True), "eval": ("target_data", False)}


def load_data(cfg, stages, model, model_from):
    """(target, source): the (train, val) pairs of the datasets `stages`
    read (`_READS`, and joint's source), each loaded once and checked
    against the model that reads it; None for a dataset no stage reads.
    `model` is the ModelConfig of `model_from` ("the config" or
    "checkpoint PATH"), the model eval attacks or fine-tuning starts
    from. ConfigError, naming the key, for an undeclared stage, joint
    without source_data, or more classes than the head that reads them
    has (the config's for finetune's target, `model`'s for eval's target
    and joint's source), before loading; then for images not of
    model.input_shape, or a batch larger than its train split (it would
    train no step). ValueError naming the key for an empty val split, and
    MemoryError naming it for a dataset too large to allocate."""
    for name in stages:
        if _READS[name][1] and getattr(cfg, name) is None:
            raise ConfigError(f"{name}: the config declares no {name} stage")
    # (dataset, ModelConfig of the head that reads its labels, its name)
    heads = [("target_data", model, model_from)] if "eval" in stages else []
    if "finetune" in stages:
        heads.append(("target_data", cfg.model, "the config"))
        if METHODS[cfg.finetune.method].joint:
            if cfg.source_data is None:
                raise ConfigError("joint fine-tuning needs source_data")
            heads.append(("source_data", model, model_from))
    for key, head, head_from in heads:
        classes = getattr(cfg, key).classes
        if classes > head.target_classes:
            raise ConfigError(f"{key}: classes {classes} exceeds "
                              f"model.target_classes {head.target_classes} "
                              f"of {head_from}")
    reads = {_READS[name][0] for name in stages} | {h[0] for h in heads}
    data = {}
    for key in ("target_data", "source_data"):
        if key in reads:
            try:
                data[key] = load_dataset(getattr(cfg, key))
            except MemoryError as exc:
                raise MemoryError(f"{key}: {exc}") from exc
    for key, (train, _) in data.items():
        shape = train[0].shape[1:]
        if shape != model.input_shape:
            raise ConfigError(f"{key.removesuffix('_data')} images are "
                              f"{list(shape)}, but {model_from} has "
                              f"model.input_shape {list(model.input_shape)}")
    for name in stages:
        key, trains = _READS[name]
        (_, y_train), (_, y_val) = data[key]
        batch = getattr(cfg, name).batch if trains else 0
        if batch > len(y_train):
            raise ConfigError(f"{name}: batch {batch} exceeds the "
                              f"{len(y_train)} images of {key}'s train "
                              "split")
        if len(y_val) == 0:
            raise ValueError(f"the validation split is empty: raise {key}'s "
                             "val_fraction so that it holds at least one "
                             "image")
    return data.get("target_data"), data.get("source_data")


def write_metrics(history, path):
    """CSV with the fixed metrics header, one row per epoch."""
    if len(history) == 0:
        raise ValueError("refusing to write an empty metrics file")
    lines = [METRICS_HEADER]
    for rec in history:  # format(v, "") is str(v)
        lines.append(",".join(
            format(getattr(rec, name), "" if name == "epoch" else ".12g")
            for name in METRICS_HEADER.split(",")))
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_metrics(path):
    """The rows of a metrics CSV as {column: float}. A file that is not
    UTF-8 text, a file without rows, or a row without one number per
    header column raises ValueError naming the file (and the line)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a metrics CSV ({exc})") from exc
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


def pretrained_config(cfg):
    """The ModelConfig of `cfg`'s pre-trained model: cfg.model, with its
    head over source_data's classes if the config has source data."""
    if cfg.source_data is None:
        return cfg.model
    return dataclasses.replace(cfg.model,
                               target_classes=cfg.source_data.classes)


def run_pretrain(cfg, source):
    """Robust source-task pre-training from random init on `source`, the
    (train, val) pair of `cfg.source_data`; writes its checkpoint and
    metrics to cfg.out_dir and returns (model, history)."""
    train, val = source
    model = MiniCNN(pretrained_config(cfg),
                    rng=np.random.default_rng(cfg.pretrain.seed))
    model, history = run_training(cfg.pretrain, train, val, model)
    save_checkpoint(os.path.join(cfg.out_dir, "pretrained.ckpt"), model,
                    {"stage": "pretrain", "method": cfg.pretrain.method,
                     "seed": cfg.pretrain.seed,
                     "epochs": cfg.pretrain.epochs})
    write_metrics(history, os.path.join(cfg.out_dir, "pretrain_metrics.csv"))
    return model, history


def run_finetune(cfg, pretrained, seed, target, source=None, tag=""):
    """Warmup (for a twins method, the only ones that read the Frozen
    branch) plus fine-tuning for one seed, whose checkpoint and metrics
    go to cfg.out_dir.

    `target` and `source` are the pairs `load_data` returns; `source` is
    None unless the method is `joint`. Both are only read, so one load
    can serve every seed.
    """
    train, val = target
    ft = dataclasses.replace(cfg.finetune, seed=seed)
    model = make_finetune_model(pretrained, cfg.model.target_classes,
                                seed=seed)
    if ft.warmup_epochs > 0 and METHODS[ft.method].twins:
        warmup_bn(model, train[0], ft.attack,
                  rng=np.random.default_rng(seed + 7919),
                  warmup_epochs=ft.warmup_epochs, batch=ft.batch)
    model, history = run_training(ft, train, val, model, source_data=(
        None if source is None else source[0]))
    suffix = f"{tag}_seed{seed}" if tag else f"seed{seed}"
    save_checkpoint(os.path.join(cfg.out_dir, f"finetuned_{suffix}.ckpt"),
                    model, {"stage": "finetune", "method": ft.method,
                            "seed": seed, "epochs": ft.epochs})
    write_metrics(history, os.path.join(cfg.out_dir, f"metrics_{suffix}.csv"))
    return model, history


def run_experiment(cfg):
    """Full pipeline of the ExperimentConfig `cfg`: optional pre-training,
    then per-seed warmup, fine-tuning and evaluation. Artifacts land in
    `cfg.out_dir`, which the first of them makes."""
    pretrained_cfg = pretrained_config(cfg)
    target, source = load_data(
        cfg, ("finetune",) if cfg.pretrain is None
        else ("pretrain", "finetune"), pretrained_cfg, "the config")
    if cfg.pretrain is not None:
        pretrained, _ = run_pretrain(cfg, source)
    else:
        pretrained = MiniCNN(pretrained_cfg,
                             rng=np.random.default_rng(cfg.finetune.seed))
    if not METHODS[cfg.finetune.method].joint:
        source = None  # not held through fine-tuning
    results = {}
    for seed in cfg.seeds:
        model, history = run_finetune(cfg, pretrained, seed, target, source)
        clean, robust = evaluate(model, target[1], cfg.eval_attack,
                                 rng=np.random.default_rng(seed + 104729))
        results[seed] = {"clean_acc": clean, "pgd_acc": robust}
    with atomic_open(os.path.join(cfg.out_dir, "summary.json"), "w",
                     encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    return results
