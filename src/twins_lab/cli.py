"""Command-line surface: gen-data, pretrain, finetune, eval, analyze, run."""

import argparse
import ctypes
import json
import os
import sys

import numpy as np

from .analysis import evaluate, grad_norm_epoch_stats, overfitting_gap
from .checkpoint import atomic_open, load_checkpoint
# load_dataset stays bound here: the benchmark's traced runs wrap it by name
from .data import load_dataset, load_records, save_idx, val_count
from .experiment import (ConfigError, load_config, load_data,
                         pretrained_config, read_metrics, run_experiment,
                         run_finetune, run_pretrain)


def _load_config(args, seed_key=None):
    """The config at `args.config` with `--out` set as out_dir, `--method`
    as finetune.method and `--seed` as `seed_key` ("seeds" or
    "pretrain.seed") before the file is checked."""
    edits = {"out_dir": getattr(args, "out", None),
             "finetune.method": getattr(args, "method", None)}
    if seed_key and args.seed is not None:
        edits[seed_key] = [args.seed] if seed_key == "seeds" else args.seed
    return load_config(args.config,
                       {k: v for k, v in edits.items() if v is not None})


def _cmd_gen_data(args):
    """Write each dataset's records in `load_dataset`'s pre-split order, so
    an "npz" or "idx-files" spec with the same seed and val_fraction reads
    back the same (train, val) split."""
    cfg = _load_config(args)
    for name, spec in (("target", cfg.target_data),
                       ("source", cfg.source_data)):
        if spec is None:
            continue
        x, y = load_records(spec)
        if x.shape[1] == 1:
            save_idx(x, y, os.path.join(cfg.out_dir, f"{name}-images.idx"),
                     os.path.join(cfg.out_dir, f"{name}-labels.idx"))
        else:
            with atomic_open(os.path.join(cfg.out_dir, f"{name}.npz"),
                             "wb") as fh:
                np.savez(fh, x=x, y=y)
        n_val = val_count(len(y), spec.val_fraction)
        print(f"{name}: {len(y)} samples "
              f"({len(y) - n_val} train / {n_val} val)")
    return 0


def _cmd_pretrain(args):
    cfg = _load_config(args, "pretrain.seed")
    _, source = load_data(cfg, ("pretrain",), pretrained_config(cfg),
                          "the config")
    _, history = run_pretrain(cfg, source)
    print(f"pre-training done: final clean acc {history[-1].clean_acc:.3f}, "
          f"pgd acc {history[-1].pgd_acc:.3f}")
    return 0


def _cmd_finetune(args):
    cfg = _load_config(args, "seeds")
    ckpt = args.checkpoint or os.path.join(cfg.out_dir, "pretrained.ckpt")
    pretrained, _ = load_checkpoint(ckpt)
    target, source = load_data(cfg, ("finetune",), pretrained.config,
                               f"checkpoint {ckpt}")
    for seed in cfg.seeds:
        _, history = run_finetune(cfg, pretrained, seed, target, source,
                                  tag=cfg.finetune.method)
        print(f"seed {seed}: clean {history[-1].clean_acc:.3f}, "
              f"pgd {history[-1].pgd_acc:.3f}")
    return 0


def _cmd_eval(args):
    cfg = _load_config(args)
    seed = args.seed or 0
    if seed < 0:
        # no config key holds it, so no config check covers it
        raise ConfigError(f"--seed (the attack's random start) must be an "
                          f"integer >= 0, got {seed}")
    model, meta = load_checkpoint(args.checkpoint)
    # only the val split is held through evaluation
    val = load_data(cfg, ("eval",), model.config,
                    f"checkpoint {args.checkpoint}")[0][1]
    clean, robust = evaluate(model, val, cfg.eval_attack,
                             rng=np.random.default_rng(seed))
    print(json.dumps({"checkpoint": args.checkpoint,
                      "method": meta.get("method"),
                      "clean_acc": clean, "pgd_acc": robust}, indent=2))
    return 0


def _cmd_analyze(args):
    for path in args.metrics:
        rows = read_metrics(path)
        robust = [r["pgd_acc"] for r in rows]
        best, final, gap = overfitting_gap(robust)
        gmean, _, gcv = grad_norm_epoch_stats(
            [r["grad_norm_mean"] for r in rows])
        print(f"{path}: epochs={len(rows)} best_pgd={best:.4f} "
              f"final_pgd={final:.4f} gap={gap:.4f} "
              f"grad_norm_mean={gmean:.4g} grad_norm_cv={gcv:.4g} "
              f"final_weight_dist={rows[-1]['weight_dist']:.4g}")
    return 0


def _cmd_run(args):
    results = run_experiment(_load_config(args, "seeds"))
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twins-lab",
        description="Dual-branch batch-norm adversarial fine-tuning lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        return p

    for name, fn in (("gen-data", _cmd_gen_data), ("pretrain", _cmd_pretrain),
                     ("finetune", _cmd_finetune), ("eval", _cmd_eval),
                     ("run", _cmd_run)):
        p = add(name, fn)
        p.add_argument("config", help="experiment config (JSON)")
        if name != "eval":
            p.add_argument("--out", default=None, help="output directory")
        if name != "gen-data":
            p.add_argument("--seed", type=int, default=None)
        if name in ("finetune", "run"):
            p.add_argument("--method", default=None,
                           help="override the fine-tuning method")
        if name in ("finetune", "eval"):
            p.add_argument("--checkpoint", default=None,
                           required=(name == "eval"),
                           help="checkpoint path")
    p = add("analyze", _cmd_analyze)
    p.add_argument("metrics", nargs="+", help="metrics CSV files")
    return parser


# (glibc mallopt parameter, value): M_MMAP_THRESHOLD (-3) at 32 MiB, its
# largest value on 64-bit systems, M_TRIM_THRESHOLD (-1) at 128 MiB, and
# M_ARENA_MAX (-8) at 1, so the attack's worker thread reuses the memory
# the main thread frees instead of filling an arena of its own
_MALLOPTS = ((-3, 32 << 20), (-1, 128 << 20), (-8, 1))


def keep_freed_memory():
    """Let the process keep the memory it frees instead of returning it to
    the OS, so each training or attack step's arrays reuse the pages the
    previous step's graph held rather than faulting in fresh ones.

    Applies glibc's mallopt; returns whether every setting took. Where
    the C library has no mallopt (macOS, Windows, musl), does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a list, so that one refused setting does not skip the others
    return all([mallopt(param, value) == 1 for param, value in _MALLOPTS])


def main(argv=None):
    keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as exc:
        oom = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {oom}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
