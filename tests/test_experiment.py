import dataclasses
import io
import json
import os
import platform
import warnings

import numpy as np
import pytest

from twins_lab import cli, experiment, training
from twins_lab.cli import main
from twins_lab.experiment import (METRICS_HEADER, ConfigError, load_config,
                                  parse_config, read_metrics, run_experiment,
                                  write_metrics)
from twins_lab.checkpoint import load_checkpoint, save_checkpoint
from twins_lab.data import NpzFormatError, load_dataset, save_idx
from twins_lab.network import MiniCNN, make_finetune_model
from twins_lab.training import DivergenceError, EpochRecord, run_training


def _base_config(out_dir):
    return {
        "out_dir": out_dir,
        "seeds": [0],
        "model": {"input_shape": [3, 8, 8], "widths": [4, 6],
                  "target_classes": 2, "dtype": "float32"},
        "target_data": {"source": "synthetic", "classes": 2,
                        "image_shape": [3, 8, 8], "per_class": 24,
                        "noise_std": 0.15, "seed": 0},
        "finetune": {"method": "std", "eta": 0.02, "epochs": 2,
                     "batch": 8, "milestones": [], "seed": 0,
                     "attack": {"epsilon": 0.00784, "alpha": 0.004,
                                "steps": 1}},
    }


def _write_config(tmp_path, cfg, name="cfg.json"):
    path = str(tmp_path / name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


def _records(n=3):
    return [EpochRecord(epoch=i, lr=0.01, train_loss=1.0 / (i + 1),
                        clean_acc=0.5 + 0.1 * i, pgd_acc=0.4 + 0.1 * i,
                        grad_norm_mean=2.0, grad_norm_cv=0.1,
                        weight_dist=float(i)) for i in range(n)]


def test_metrics_header_is_fixed():
    assert METRICS_HEADER == ("epoch,lr,train_loss,clean_acc,pgd_acc,"
                              "grad_norm_mean,grad_norm_cv,weight_dist")


def test_metrics_round_trip(tmp_path):
    path = str(tmp_path / "m.csv")
    recs = _records()
    write_metrics(recs, path)
    rows = read_metrics(path)
    assert len(rows) == 3
    for rec, row in zip(recs, rows):
        assert row["epoch"] == rec.epoch
        assert row["pgd_acc"] == pytest.approx(rec.pgd_acc, rel=1e-9)
        assert row["weight_dist"] == pytest.approx(rec.weight_dist, rel=1e-9)


def test_metrics_refuses_empty_history(tmp_path):
    with pytest.raises(ValueError):
        write_metrics([], str(tmp_path / "m.csv"))


def test_metrics_rejects_foreign_header(tmp_path):
    path = str(tmp_path / "m.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_metrics(path)


def test_metrics_rows_are_fixed(tmp_path):
    path = str(tmp_path / "m.csv")
    write_metrics(_records(2), path)
    with open(path, "rb") as fh:
        assert fh.read() == (METRICS_HEADER.encode() + b"\n"
                             b"0,0.01,1,0.5,0.4,2,0.1,0\n"
                             b"1,0.01,0.5,0.6,0.5,2,0.1,1\n")


def test_analyze_names_a_file_that_is_not_text(tmp_path, capsys):
    path = str(tmp_path / "model.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"TWNS\xfa\x00\x01")
    assert main(["analyze", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a metrics CSV")


def test_config_rejects_unknown_method_before_training():
    with pytest.raises(ConfigError):
        experiment._build(training.TrainConfig, {"method": "twins-qt"},
                          "finetune")


def test_config_rejects_unknown_keys(tmp_path):
    for key, value in (("learning_rate", 0.1), ("sum_mode", True),
                       ("kl_clean_first", True)):
        cfg = _base_config(str(tmp_path / "out"))
        cfg["finetune"][key] = value
        with pytest.raises(ConfigError, match=key):
            parse_config(cfg)
    cfg = _base_config(str(tmp_path / "out"))
    cfg["typo_section"] = {}
    with pytest.raises(ConfigError):
        parse_config(cfg)


@pytest.mark.parametrize("key,value", [("widths", []), ("dtype", "float16"),
                                       ("input_shape", [3, 0, 8])])
def test_config_rejects_bad_model_values(tmp_path, key, value):
    cfg = _base_config(str(tmp_path / "out"))
    cfg["model"][key] = value
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg)


def test_config_requires_core_sections(tmp_path):
    cfg = _base_config(str(tmp_path / "out"))
    del cfg["finetune"]
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_config_pretrain_needs_source_data(tmp_path):
    cfg = _base_config(str(tmp_path / "out"))
    cfg["pretrain"] = dict(cfg["finetune"])
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_config_missing_idx_file_rejected(tmp_path):
    cfg = _base_config(str(tmp_path / "out"))
    cfg["target_data"] = {"source": "idx-files",
                          "images_path": str(tmp_path / "nope.idx"),
                          "labels_path": str(tmp_path / "nope2.idx")}
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_run_experiment_produces_artifacts(tmp_path):
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, _base_config(out))
    results = run_experiment(load_config(path))
    assert set(results) == {0}
    assert 0.0 <= results[0]["clean_acc"] <= 1.0
    assert os.path.exists(os.path.join(out, "summary.json"))
    rows = read_metrics(os.path.join(out, "metrics_seed0.csv"))
    assert len(rows) == 2
    assert os.path.exists(os.path.join(out, "finetuned_seed0.ckpt"))


def test_run_experiment_is_deterministic(tmp_path):
    cfg = _base_config("ignored")
    path = _write_config(tmp_path, cfg)
    for sub in ("a", "b"):
        cfg = load_config(path)
        cfg.out_dir = str(tmp_path / sub)
        run_experiment(cfg)
    with open(tmp_path / "a" / "metrics_seed0.csv", "rb") as fh:
        a = fh.read()
    with open(tmp_path / "b" / "metrics_seed0.csv", "rb") as fh:
        b = fh.read()
    assert a == b


def test_cli_run_and_analyze(tmp_path, capsys):
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, _base_config(out))
    assert main(["run", path]) == 0
    metrics = os.path.join(out, "metrics_seed0.csv")
    assert main(["analyze", metrics]) == 0
    captured = capsys.readouterr()
    assert "gap=" in captured.out


@pytest.mark.parametrize("row, problem", [
    ("0,0.1,1.0", "3 fields, but the header has 8"),
    ("0,0.1,1.0,0.5,0.4,2.0,0.1,0.0,7", "9 fields, but the header has 8"),
    ("0,0.1,1.0,0.5,high,2.0,0.1,0.0", "could not convert"),
], ids=["short", "long", "not-a-number"])
def test_cli_analyze_names_the_malformed_row(tmp_path, capsys, row, problem):
    path = str(tmp_path / "m.csv")
    write_metrics(_records(2), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    assert main(["analyze", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}, line 4: {problem}")
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_analyze_names_a_file_without_rows(tmp_path, capsys):
    good, empty = str(tmp_path / "good.csv"), str(tmp_path / "empty.csv")
    write_metrics(_records(2), good)
    with open(empty, "w", encoding="utf-8") as fh:
        fh.write(METRICS_HEADER + "\n")
    assert main(["analyze", good, empty]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {empty}: no metrics rows")
    assert "Traceback" not in err


def test_cli_run_flags_equal_the_config_edits(tmp_path):
    cfg = _base_config(str(tmp_path / "unused"))
    cfg["seeds"] = [0, 1]
    path = _write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "flags"),
                 "--seed", "3", "--method", "at"]) == 0
    cfg.update(out_dir=str(tmp_path / "edited"), seeds=[3])
    cfg["finetune"]["method"] = "at"
    assert main(["run", _write_config(tmp_path, cfg, "edited.json")]) == 0
    flags = _artifacts(tmp_path / "flags")
    assert sorted(flags) == ["finetuned_seed3.ckpt", "metrics_seed3.csv",
                             "summary.json"]
    assert flags == _artifacts(tmp_path / "edited")
    assert not (tmp_path / "unused").exists()


@pytest.mark.parametrize("argv", [
    ["gen-data", "cfg.json", "--seed", "1"],
    ["eval", "cfg.json", "--checkpoint", "model.ckpt", "--out", "d"]])
def test_cli_refuses_a_flag_the_command_ignores(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "finetune"])
def test_cli_rejects_a_checkpoint_of_another_input_shape(tmp_path, capsys,
                                                         monkeypatch,
                                                         command):
    monkeypatch.setattr(training, "batch_loss", _no_training)
    monkeypatch.setattr(experiment, "warmup_bn", _no_training)
    monkeypatch.setattr(cli, "evaluate", _no_training)
    out = tmp_path / "out"
    cfg = _base_config(str(out))
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, MiniCNN(parse_config(cfg).model))  # 3x8x8
    cfg["model"]["input_shape"] = [3, 16, 16]
    cfg["target_data"]["image_shape"] = [3, 16, 16]
    cfg["finetune"]["warmup_epochs"] = 1
    path = _write_config(tmp_path, cfg)
    assert main([command, path, "--checkpoint", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: target images are [3, 16, 16], but "
                          f"checkpoint {ckpt} has model.input_shape "
                          "[3, 8, 8]")
    assert not out.exists()


def test_cli_eval_on_checkpoint(tmp_path, capsys):
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, _base_config(out))
    assert main(["run", path]) == 0
    ckpt = os.path.join(out, "finetuned_seed0.ckpt")
    capsys.readouterr()  # drop the run output
    assert main(["eval", path, "--checkpoint", ckpt]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checkpoint"] == ckpt
    assert 0.0 <= report["clean_acc"] <= 1.0


def test_cli_gen_data(tmp_path):
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, _base_config(out))
    assert main(["gen-data", path]) == 0
    assert os.path.exists(os.path.join(out, "target.npz"))


def test_failed_gen_data_leaves_no_partial_idx_file(tmp_path, capsys,
                                                    disk_full):
    out = tmp_path / "out"
    cfg = _base_config(str(out))
    cfg["target_data"]["image_shape"] = [1, 8, 8]
    cfg["model"]["input_shape"] = [1, 8, 8]
    path = _write_config(tmp_path, cfg)
    disk_full("target-images.idx")
    assert main(["gen-data", path]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert os.listdir(out) == []


@pytest.mark.parametrize("channels", [1, 3])
def test_gen_data_reads_back_the_same_split(tmp_path, channels):
    out = str(tmp_path / "out")
    cfg = _base_config(out)
    cfg["target_data"].update(image_shape=[channels, 8, 8], seed=7,
                              val_fraction=0.3)
    cfg["model"]["input_shape"] = [channels, 8, 8]
    spec = parse_config(cfg).target_data
    (xt, yt), (xv, yv) = load_dataset(spec)
    assert main(["gen-data", _write_config(tmp_path, cfg)]) == 0
    if channels == 1:
        read_back = dataclasses.replace(
            spec, source="idx-files",
            images_path=os.path.join(out, "target-images.idx"),
            labels_path=os.path.join(out, "target-labels.idx"))
    else:
        read_back = dataclasses.replace(
            spec, source="npz", images_path=os.path.join(out, "target.npz"))
    (rt, ryt), (rv, ryv) = load_dataset(read_back)
    assert np.array_equal(ryt, yt) and np.array_equal(ryv, yv)
    if channels == 1:  # IDX stores pixels rounded to 8 bits
        assert np.abs(rt - xt).max() <= 0.5 / 255 + 1e-7
        assert np.abs(rv - xv).max() <= 0.5 / 255 + 1e-7
    else:
        assert np.array_equal(rt, xt) and np.array_equal(rv, xv)


@pytest.mark.parametrize("arrays, message", [
    ({"x": np.zeros((4, 3, 2, 2), np.float32)}, "holds no array"),
    ({"x": np.zeros((4, 3, 2, 2), np.float32),
      "y": np.zeros(3, np.int64)}, "4 images but 3 labels"),
    ({"x": np.zeros((2, 3, 2, 2), np.float32),
      "y": np.array([0, 2])}, "label 2 of record 1"),
])
def test_npz_source_rejects_malformed_archives(tmp_path, capsys, arrays,
                                               message):
    archive = str(tmp_path / "data.npz")
    np.savez(archive, **arrays)
    cfg = _base_config(str(tmp_path / "out"))
    cfg["target_data"] = {"source": "npz", "classes": 2,
                          "image_shape": [3, 2, 2], "images_path": archive}
    with pytest.raises(NpzFormatError, match=message):
        load_dataset(parse_config(cfg).target_data)
    assert main(["gen-data", _write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def _npz_bytes(**arrays):
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


@pytest.mark.parametrize("body", [
    b"not an archive",
    _npz_bytes(x=np.zeros((2, 3, 2, 2)), y=np.zeros(2, np.int64))[:60],
    None,  # a plain .npy array
], ids=["garbage", "truncated", "one-array"])
def test_npz_source_rejects_a_file_that_is_no_archive(tmp_path, capsys,
                                                       body):
    path = str(tmp_path / "data.npz")
    with open(path, "wb") as fh:
        if body is None:
            np.save(fh, np.zeros(3))
        else:
            fh.write(body)
    cfg = _base_config(str(tmp_path / "out"))
    cfg["target_data"] = {"source": "npz", "classes": 2,
                          "image_shape": [3, 2, 2], "images_path": path}
    with pytest.raises(NpzFormatError):
        load_dataset(parse_config(cfg).target_data)
    assert main(["gen-data", _write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_rejects_bad_config(tmp_path):
    cfg = _base_config(str(tmp_path / "out"))
    cfg["finetune"]["method"] = "twins-qt"
    path = _write_config(tmp_path, cfg)
    assert main(["run", path]) == 1
    assert not os.path.exists(os.path.join(str(tmp_path / "out"),
                                           "metrics_seed0.csv"))


def test_diverged_run_stops_naming_epoch_and_batch(tmp_path, capsys):
    cfg = _base_config(str(tmp_path / "out"))
    cfg["finetune"].update(method="at", eta=1e6, batch=16, epochs=4)
    exp = parse_config(cfg)
    train, val = load_dataset(exp.target_data)
    model = MiniCNN(exp.model, rng=np.random.default_rng(0))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match=r"epoch \d+, batch \d+"):
        run_training(exp.finetune, train, val, model)
    path = _write_config(tmp_path, cfg)
    # numpy's overflow warnings once came before the error on stderr; any
    # warning fails the run here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", path]) == 1
    assert capsys.readouterr().err.startswith("error: training diverged at "
                                              "epoch")
    assert not os.path.exists(os.path.join(str(tmp_path / "out"),
                                           "metrics_seed0.csv"))


def _set(path, value):
    """An edit of a config that sets the dotted `path` to `value`."""
    def edit(cfg):
        *parents, key = path.split(".")
        section = cfg
        for name in parents:
            section = section[name]
        section[key] = value
        return cfg
    return edit


@pytest.mark.parametrize("edit, key", [
    (_set("finetune.epochs", "1"), "epochs"),
    (_set("finetune.batch", 0), "batch"),
    (_set("finetune.attack.rand_init", "no"), "rand_init"),
    (_set("target_data.per_class", "10"), "per_class"),
    (_set("seeds", []), "seeds"),
    (lambda cfg: [cfg], "JSON object"),
], ids=["epochs", "batch", "rand_init", "per_class", "seeds", "list"])
def test_cli_rejects_wrong_typed_config_values(tmp_path, capsys, monkeypatch,
                                               edit, key):
    monkeypatch.setattr(training, "batch_loss", _no_training)
    out = tmp_path / "out"
    path = _write_config(tmp_path, edit(_base_config(str(out))))
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


def _with_source_data(image_shape):
    def edit(cfg):
        cfg["source_data"] = dict(cfg["target_data"],
                                  image_shape=image_shape)
        cfg["pretrain"] = dict(cfg["finetune"])
        return cfg
    return edit


def _npz_target(classes):
    """An edit that makes the target an npz archive, written beside the
    output directory, of 60 images with labels 0..classes-1."""
    def edit(cfg):
        rng = np.random.default_rng(0)
        archive = os.path.join(os.path.dirname(cfg["out_dir"]), "data.npz")
        np.savez(archive,
                 x=rng.uniform(size=(60, 3, 8, 8)).astype(np.float32),
                 y=np.arange(60) % classes)
        cfg["target_data"] = {"source": "npz", "classes": classes,
                              "image_shape": [3, 8, 8],
                              "images_path": archive}
        return cfg
    return edit


def _twins_batch(stage, batch):
    """An edit that makes `stage` a twins-at stage of batch `batch`."""
    def edit(cfg):
        if stage == "pretrain":
            _with_pretrain(cfg)
        cfg[stage].update(method="twins-at", batch=batch)
        return cfg
    return edit


def _idx_target(labels):
    """An edit that makes the target a pair of IDX files, written beside
    the output directory, of 1x8x8 images with `labels`."""
    def edit(cfg):
        where = os.path.dirname(cfg["out_dir"])
        ip, lp = os.path.join(where, "i.idx"), os.path.join(where, "l.idx")
        save_idx(np.random.default_rng(0).uniform(size=(len(labels), 1, 8, 8)),
                 labels, ip, lp)
        cfg["model"]["input_shape"] = [1, 8, 8]
        cfg["target_data"] = {"source": "idx-files", "classes": 2,
                              "images_path": ip, "labels_path": lp}
        return cfg
    return edit


@pytest.mark.parametrize("edit, key", [
    (_set("finetune.epochs", 0), "epochs"),
    (_set("finetune.epochs", -1), "epochs"),
    (_set("finetune.warmup_epochs", -2), "warmup_epochs"),
    (_set("finetune.decay", -1.0), "decay"),
    (_set("target_data.classes", 300), "classes"),
    (_set("target_data.image_shape", [3, 0, 8]), "image_shape"),
    # checked once loaded, against the model that reads it
    (_with_source_data([1, 8, 8]), "source images are [1, 8, 8]"),
    # `classes` bounds a file's labels too
    (_npz_target(5), "target_data: classes"),
    (_set("target_data.per_class", -1), "target_data: per_class"),
    (_set("target_data.noise_std", -1.0), "target_data: noise_std"),
    (_set("seeds", [-1]), "seeds"),
    (_set("finetune.seed", -3), "finetune: seed"),
    (_set("target_data.seed", -3), "target_data: seed"),
    # read by nothing: pre-training or the checkpoint sets the source head
    (_set("model.source_classes", 7), "model.source_classes"),
    # one image per branch: the Adaptive half needs two
    (_twins_batch("pretrain", 2), "pretrain: twins methods need an even "
     "batch size of at least 4, got batch 2"),
    (_twins_batch("finetune", 2), "finetune: twins methods need an even "
     "batch size of at least 4, got batch 2"),
], ids=["epochs-0", "epochs-negative", "warmup_epochs", "decay", "classes",
        "target-image_shape", "source-image_shape", "npz-classes",
        "per_class", "noise_std", "seeds", "finetune-seed",
        "target_data-seed", "source_classes", "pretrain-twins-batch",
        "finetune-twins-batch"])
def test_cli_rejects_out_of_range_config_values(tmp_path, capsys,
                                                monkeypatch, edit, key):
    """Values of the right type that no run can use fail when the config
    is read, before anything is trained or written."""
    monkeypatch.setattr(training, "batch_loss", _no_training)
    out = tmp_path / "out"
    path = _write_config(tmp_path, edit(_base_config(str(out))))
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


def _with_pretrain(cfg):
    cfg["source_data"] = dict(cfg["target_data"], seed=1)
    cfg["pretrain"] = dict(cfg["finetune"])
    return cfg


def _source_checkpoint(tmp_path, cfg):
    """The path of a fresh checkpoint of `cfg`'s pre-training model."""
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, MiniCNN(
        experiment.pretrained_config(parse_config(cfg))))
    return path


@pytest.mark.parametrize("command, stage", [
    ("run", "finetune"), ("run", "pretrain"), ("pretrain", "pretrain"),
    ("finetune", "finetune")])
def test_cli_rejects_a_batch_larger_than_the_train_split(
        tmp_path, capsys, monkeypatch, command, stage):
    """48 synthetic images split into 36 train and 12 val; a batch of 64
    would train no step."""
    monkeypatch.setattr(training, "batch_loss", _no_training)
    monkeypatch.setattr(experiment, "warmup_bn", _no_training)
    out = tmp_path / "out"
    cfg = _with_pretrain(_base_config(str(out)))
    cfg[stage]["batch"] = 64
    argv = [command, _write_config(tmp_path, cfg)]
    if command == "finetune":
        argv += ["--checkpoint", _source_checkpoint(tmp_path, cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}: batch 64 exceeds the 36 images")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["run", "--seed", "-1"], "seeds"),
    (["finetune", "--seed", "-1"], "seeds"),
    (["pretrain", "--seed", "-1"], "pretrain: seed"),
    (["run", "--method", "twins-qt"], "finetune: method"),
], ids=["run-seed", "finetune-seed", "pretrain-seed", "method"])
def test_cli_checks_a_flag_as_the_config_key_it_sets(tmp_path, capsys,
                                                     monkeypatch, argv, key):
    """A flag's value fails as the same value in the config file would,
    before anything is trained or written."""
    monkeypatch.setattr(training, "batch_loss", _no_training)
    monkeypatch.setattr(experiment, "warmup_bn", _no_training)
    out = tmp_path / "out"
    cfg = _with_pretrain(_base_config(str(out)))
    command, *flags = argv
    argv = [command, _write_config(tmp_path, cfg)] + flags
    if command == "finetune":
        argv += ["--checkpoint", _source_checkpoint(tmp_path, cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err.splitlines()[0]
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, edit", [
    (["--method", "at"], _twins_batch("finetune", 7)),
    (["--out", "OUT"],
     lambda cfg: {k: v for k, v in cfg.items() if k != "out_dir"}),
], ids=["method", "out"])
def test_cli_flag_sets_its_key_before_the_file_is_checked(tmp_path, capsys,
                                                          flags, edit):
    """A file whose only fault is the value a flag replaces runs: an odd
    twins batch under `--method at`, a missing out_dir under `--out`."""
    out = tmp_path / "out"
    path = _write_config(tmp_path, edit(_base_config(str(out))))
    flags = [str(out) if flag == "OUT" else flag for flag in flags]
    assert main(["run", path] + flags) == 0
    assert capsys.readouterr().err == ""
    assert sorted(os.listdir(out)) == ["finetuned_seed0.ckpt",
                                       "metrics_seed0.csv", "summary.json"]


@pytest.mark.parametrize("command, edit, error", [
    ("gen-data", _idx_target(np.arange(16) % 3), "label 2 of record 2"),
    ("run", _set("finetune.eta", 1e30), "training diverged at epoch 0"),
], ids=["gen-data-label", "run-diverged"])
def test_a_failure_before_the_first_artifact_leaves_no_directory(
        tmp_path, capsys, command, edit, error):
    """The output directory is made by the first artifact written, so a
    command that stops before it leaves none."""
    out = tmp_path / "out"
    path = _write_config(tmp_path, edit(_base_config(str(out))))
    assert main([command, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and error in err.splitlines()[0]
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--seed", "3"]],
                         ids=["plain", "seed"])
def test_cli_pretrain_needs_a_pretrain_stage(tmp_path, capsys, flags):
    out = tmp_path / "out"
    argv = ["pretrain", _write_config(tmp_path, _base_config(str(out)))]
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pretrain: the config declares no pretrain "
                          "stage")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("method", "joint"),
                                        ("warmup_epochs", 1)])
@pytest.mark.parametrize("command", ["pretrain", "run"])
def test_cli_refuses_pretrain_keys_pretraining_never_reads(
        tmp_path, capsys, command, key, value):
    """Pre-training starts from random init: it has no source head for
    joint to train and no frozen statistics for a warmup to fill."""
    out = tmp_path / "out"
    cfg = _with_pretrain(_base_config(str(out)))
    cfg["pretrain"][key] = value
    assert main([command, _write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: pretrain: {key}")
    assert "Traceback" not in err
    assert not out.exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 1.36 PiB for an array")


@pytest.mark.parametrize("command, module, loader", [
    ("gen-data", cli, "load_records"), ("run", experiment, "load_dataset")],
    ids=["gen-data", "run"])
def test_cli_reports_running_out_of_memory(tmp_path, capsys, monkeypatch,
                                           command, module, loader):
    """A dataset too large to allocate stops with an error line, as numpy
    refuses an array of 10^12 images at once."""
    monkeypatch.setattr(module, loader, _out_of_memory)
    out = tmp_path / "out"
    assert main([command, _write_config(tmp_path,
                                        _base_config(str(out)))]) == 1
    err = capsys.readouterr().err
    assert err == ("error: out of memory: Unable to allocate 1.36 PiB for "
                   "an array\n")
    assert not out.exists()


def test_cli_finetune_reads_its_checkpoint_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    ckpt = str(tmp_path / "absent.ckpt")
    argv = ["finetune", _write_config(tmp_path, _base_config(str(out))),
            "--checkpoint", ckpt]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and ckpt in err
    assert not out.exists()


def test_cli_pretrain_checks_only_the_pretrain_batch(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _with_pretrain(_base_config(str(out)))
    cfg["finetune"]["batch"] = 64
    assert main(["pretrain", _write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().out.startswith("pre-training done")


def test_cli_missing_config_file(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 1


def _artifacts(out):
    blobs = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


def _assert_loads_per_command(tmp_path, monkeypatch, commands):
    """Each (argv, loads) command calls `load_dataset` `loads` times and
    writes the same artifacts as a run whose loaded arrays are writable."""
    for cmd, _ in commands:
        assert main(cmd + ["--out", str(tmp_path / "fresh")]) == 0

    calls = []
    load = experiment.load_dataset

    def read_only(spec):
        calls.append(spec)
        pairs = load(spec)
        for arr in (a for pair in pairs for a in pair):
            arr.flags.writeable = False  # any write into shared data fails
        return pairs

    monkeypatch.setattr(experiment, "load_dataset", read_only)
    for cmd, loads in commands:
        calls.clear()
        assert main(cmd + ["--out", str(tmp_path / "once")]) == 0
        assert len(calls) == loads
    assert _artifacts(tmp_path / "once") == _artifacts(tmp_path / "fresh")


def _two_seed_config(tmp_path, method):
    cfg = _base_config("ignored")
    cfg["seeds"] = [0, 1]
    cfg["finetune"].update(method=method, epochs=1, warmup_epochs=1)
    cfg["source_data"] = dict(cfg["target_data"], per_class=16, seed=5)
    cfg["pretrain"] = dict(cfg["finetune"], method="std", warmup_epochs=0)
    return _write_config(tmp_path, cfg)


def test_cli_loads_target_data_once_per_command(tmp_path, monkeypatch):
    path = _two_seed_config(tmp_path, "twins-at")
    # run loads source and target data, finetune the target data
    _assert_loads_per_command(tmp_path, monkeypatch, (
        (["run", path], 2), (["finetune", path, "--method", "at"], 1)))


def test_cli_loads_joint_source_data_once_per_command(tmp_path, monkeypatch):
    path = _two_seed_config(tmp_path, "joint")
    # pre-training and both joint seeds share one source load
    _assert_loads_per_command(tmp_path, monkeypatch, (
        (["run", path], 2), (["finetune", path, "--method", "joint"], 2)))


def test_failed_metrics_write_keeps_previous_file(tmp_path, disk_full):
    path = str(tmp_path / "m.csv")
    write_metrics(_records(), path)
    with open(path, "rb") as fh:
        before = fh.read()
    disk_full("m.csv")
    with pytest.raises(OSError):
        write_metrics(_records(4), path)
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["m.csv"]


def test_failed_summary_write_keeps_previous_file(tmp_path, disk_full):
    out = tmp_path / "out"
    path = _write_config(tmp_path, _base_config(str(out)))
    run_experiment(load_config(path))
    with open(out / "summary.json", "rb") as fh:
        before = fh.read()
    disk_full("summary.json")
    with pytest.raises(OSError):
        run_experiment(load_config(path))
    with open(out / "summary.json", "rb") as fh:
        assert fh.read() == before
    assert not [n for n in os.listdir(out) if n.endswith(".tmp")]


def test_cli_rejects_idx_label_outside_classes(tmp_path, capsys):
    labels = np.array([0, 1] * 8)
    labels[5] = 2
    images = np.random.default_rng(0).uniform(size=(16, 1, 8, 8))
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    save_idx(images, labels, ip, lp)
    out = tmp_path / "out"
    cfg = _base_config(str(out))
    cfg["model"]["input_shape"] = [1, 8, 8]
    cfg["target_data"]["image_shape"] = [1, 8, 8]
    cfg["source_data"] = {"source": "idx-files", "classes": 2,
                          "images_path": ip, "labels_path": lp}
    cfg["pretrain"] = dict(cfg["finetune"])
    assert main(["pretrain", _write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "label 2 of record 5" in err
    assert not (out / "pretrain_metrics.csv").exists()


def test_cli_rejects_an_idx_file_with_bytes_past_its_last_record(tmp_path,
                                                                 capsys):
    images = np.random.default_rng(0).uniform(size=(16, 1, 8, 8))
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    save_idx(images, np.arange(16) % 2, ip, lp)
    with open(ip, "ab") as fh:
        fh.write(b"\0")
    out = tmp_path / "out"
    cfg = _base_config(str(out))
    cfg["model"]["input_shape"] = [1, 8, 8]
    cfg["target_data"]["image_shape"] = [1, 8, 8]
    cfg["source_data"] = {"source": "idx-files", "classes": 2,
                          "images_path": ip, "labels_path": lp}
    cfg["pretrain"] = dict(cfg["finetune"])
    assert main(["pretrain", _write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: IDX image file holds 1041 bytes")
    assert not (out / "pretrain_metrics.csv").exists()


@pytest.mark.parametrize("x", [
    np.arange(48 * 3 * 8 * 8).reshape(48, 3, 8, 8).astype(np.uint8),
    np.full((48, 3, 8, 8), np.nan, np.float32),
    np.full((48, 3, 8, 8), -0.5),
], ids=["uint8", "nan", "negative"])
def test_cli_run_rejects_npz_pixels_outside_the_unit_range(tmp_path, capsys,
                                                           monkeypatch, x):
    monkeypatch.setattr(training, "batch_loss", _no_training)
    archive = str(tmp_path / "data.npz")
    np.savez(archive, x=x, y=np.arange(48) % 2)
    out = tmp_path / "out"
    cfg = _base_config(str(out))
    cfg["target_data"] = {"source": "npz", "classes": 2,
                          "image_shape": [3, 8, 8], "images_path": archive}
    assert main(["run", _write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {archive}: pixels must be finite")
    assert not out.exists()


def test_cli_run_loads_its_target_before_pre_training(tmp_path, capsys,
                                                      monkeypatch):
    """A target that fails to load stops `run` before the source stage
    trains or writes anything, `pretrained.ckpt` included."""
    monkeypatch.setattr(training, "batch_loss", _no_training)
    archive = str(tmp_path / "data.npz")
    np.savez(archive, x=np.full((48, 3, 8, 8), -0.5), y=np.arange(48) % 2)
    out = tmp_path / "out"
    cfg = _with_pretrain(_base_config(str(out)))
    cfg["target_data"] = {"source": "npz", "classes": 2,
                          "images_path": archive}
    assert main(["run", _write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {archive}: pixels must be finite")
    assert "Traceback" not in err
    assert not out.exists()


def _npz_data(tmp_path, shape):
    """An npz spec of 48 images of `shape` and labels 0, 1."""
    path = str(tmp_path / "data.npz")
    x = np.random.default_rng(0).uniform(size=(48, *shape))
    np.savez(path, x=x, y=np.arange(48) % 2)
    return {"source": "npz", "classes": 2, "images_path": path}


def _idx_data(tmp_path, shape):
    """An idx-files spec of 48 images of `shape` and labels 0, 1."""
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    save_idx(np.random.default_rng(0).uniform(size=(48, *shape)),
             np.arange(48) % 2, ip, lp)
    return {"source": "idx-files", "classes": 2, "images_path": ip,
            "labels_path": lp}


@pytest.mark.parametrize("command, input_shape, key, data, shape", [
    ("run", [3, 16, 16], "target_data", _npz_data, [3, 8, 8]),
    ("run", [3, 8, 8], "target_data", _npz_data, [1, 8, 8]),
    ("pretrain", [1, 16, 16], "source_data", _idx_data, [1, 8, 8]),
    ("finetune", [3, 8, 8], "source_data", _npz_data, [3, 4, 4]),
], ids=["run-size", "run-channels", "pretrain-idx", "joint-source"])
def test_cli_checks_loaded_images_against_the_model(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    input_shape, key, data,
                                                    shape):
    """Every dataset's images are checked once loaded, against the model
    that reads them: the config's (`run`, `pretrain`) or the
    checkpoint's (`finetune`), before anything is trained or written."""
    monkeypatch.setattr(training, "batch_loss", _no_training)
    monkeypatch.setattr(experiment, "warmup_bn", _no_training)
    out = tmp_path / "out"
    cfg = _base_config(str(out))
    cfg["model"]["input_shape"] = input_shape
    cfg["target_data"]["image_shape"] = input_shape
    cfg = _with_pretrain(cfg)
    cfg[key] = data(tmp_path, shape)
    argv = [command, _write_config(tmp_path, cfg)]
    model = "the config"
    if command == "finetune":
        ckpt = _source_checkpoint(tmp_path, cfg)
        argv += ["--method", "joint", "--checkpoint", ckpt]
        model = f"checkpoint {ckpt}"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key.removesuffix('_data')} images are "
                          f"{shape}, but {model} has model.input_shape "
                          f"{input_shape}")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_eval_checks_its_seed(tmp_path, capsys):
    cfg = _base_config(str(tmp_path / "out"))
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, MiniCNN(parse_config(cfg).model))
    path = _write_config(tmp_path, cfg)
    assert main(["eval", path, "--checkpoint", ckpt, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --seed (the attack's random "
                                   "start) must be an integer >= 0, got -1")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("epsilon", [None, 0.0], ids=["pgd", "clean"])
def test_cli_eval_checks_target_classes_against_the_checkpoint(
        tmp_path, capsys, epsilon):
    """A 3-class target on a 2-class checkpoint once failed naming only
    the labels or, with no attack to run, printed a clean accuracy."""
    cfg = _base_config(str(tmp_path / "out"))
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, MiniCNN(parse_config(cfg).model))  # 2 classes
    cfg["model"]["target_classes"] = 3
    cfg["target_data"]["classes"] = 3
    if epsilon is not None:
        cfg["eval_attack"] = dict(cfg["finetune"]["attack"], epsilon=epsilon)
    path = _write_config(tmp_path, cfg)
    assert main(["eval", path, "--checkpoint", ckpt]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error: target_data: classes 3 exceeds model.target_classes 2 of "
        f"checkpoint {ckpt}")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("fine_tuned", [False, True],
                         ids=["pretrained", "fine-tuned"])
def test_cli_joint_checks_source_classes_against_the_checkpoint(
        tmp_path, capsys, monkeypatch, fine_tuned):
    """joint trains the checkpoint's target head on source_data, so a
    3-class source on a 2-class head once failed naming only the labels,
    after the output directory was made."""
    monkeypatch.setattr(training, "batch_loss", _no_training)
    monkeypatch.setattr(experiment, "warmup_bn", _no_training)
    out = tmp_path / "out"
    cfg = _with_pretrain(_base_config(str(out)))  # 2 source classes
    ckpt = _source_checkpoint(tmp_path, cfg)
    if fine_tuned:
        model = make_finetune_model(load_checkpoint(ckpt)[0], 2)
        ckpt = str(tmp_path / "finetuned.ckpt")
        save_checkpoint(ckpt, model)
    cfg["source_data"]["classes"] = 3
    argv = ["finetune", _write_config(tmp_path, cfg), "--method", "joint",
            "--checkpoint", ckpt]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: source_data: classes 3 exceeds "
                          f"model.target_classes 2 of checkpoint {ckpt}")
    assert "Traceback" not in err
    assert not out.exists()


def _checkpoint_of(tmp_path, cfg, **model):
    """The path of a fresh checkpoint of `cfg`'s model with `model`'s
    keys replaced."""
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, MiniCNN(dataclasses.replace(
        parse_config(cfg).model, **model)))
    return path


@pytest.mark.parametrize("command", ["finetune", "eval"])
def test_cli_checks_a_synthetic_target_against_the_checkpoint(
        tmp_path, capsys, command):
    """Synthetic 1x8x8 images fit a 1x8x8 checkpoint, whatever the
    config's model.input_shape; they once failed against the config's."""
    out = tmp_path / "out"
    cfg = _base_config(str(out))  # model.input_shape [3, 8, 8]
    ckpt = _checkpoint_of(tmp_path, cfg, input_shape=(1, 8, 8))
    cfg["target_data"]["image_shape"] = [1, 8, 8]
    argv = [command, _write_config(tmp_path, cfg), "--checkpoint", ckpt]
    assert main(argv) == 0, capsys.readouterr().err
    if command == "finetune":
        assert load_checkpoint(str(out / "finetuned_std_seed0.ckpt"))[0] \
            .config.input_shape == (1, 8, 8)


def test_cli_eval_reads_the_checkpoints_classes(tmp_path, capsys):
    """eval attacks the checkpoint's head, so a 3-class target fits a
    3-class checkpoint whatever the config's model.target_classes."""
    cfg = _base_config(str(tmp_path / "out"))  # model.target_classes 2
    ckpt = _checkpoint_of(tmp_path, cfg, target_classes=3)
    cfg["target_data"]["classes"] = 3
    argv = ["eval", _write_config(tmp_path, cfg), "--checkpoint", ckpt]
    assert main(argv) == 0, capsys.readouterr().err
    assert 0.0 <= json.loads(capsys.readouterr().out)["pgd_acc"] <= 1.0


def test_cli_finetune_checks_target_classes_against_the_config(
        tmp_path, capsys, monkeypatch):
    """finetune gives the model a new head of the config's
    model.target_classes, not the checkpoint's, so a 3-class target
    fails on a 3-class checkpoint when the config asks for 2."""
    monkeypatch.setattr(training, "batch_loss", _no_training)
    out = tmp_path / "out"
    cfg = _base_config(str(out))  # model.target_classes 2
    ckpt = _checkpoint_of(tmp_path, cfg, target_classes=3)
    cfg["target_data"]["classes"] = 3
    argv = ["finetune", _write_config(tmp_path, cfg), "--checkpoint", ckpt]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: target_data: classes 3 exceeds "
                          "model.target_classes 2 of the config")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_warms_up_only_a_twins_method(tmp_path):
    """Only a twins method reads the Frozen branch, whose statistics the
    warmup fills, so `at` writes the same files at any warmup_epochs."""
    cfg = _base_config("ignored")
    cfg["finetune"]["method"] = "at"
    for warmup in (0, 1):
        cfg["finetune"]["warmup_epochs"] = warmup
        argv = ["run", _write_config(tmp_path, cfg), "--out",
                str(tmp_path / f"w{warmup}")]
        assert main(argv) == 0
    assert _artifacts(tmp_path / "w1") == _artifacts(tmp_path / "w0")


@pytest.mark.parametrize("command, stage", [
    ("pretrain", "pretrain"), ("run", "finetune")])
def test_cli_rejects_a_batch_of_one(tmp_path, capsys, monkeypatch, command,
                                    stage):
    """Every method trains through the Adaptive branch, whose batch
    statistics need two images; a batch of 1 once failed there, naming
    no key, after the output directory was made."""
    monkeypatch.setattr(training, "batch_loss", _no_training)
    monkeypatch.setattr(experiment, "warmup_bn", _no_training)
    out = tmp_path / "out"
    cfg = _with_pretrain(_base_config(str(out)))
    cfg[stage]["batch"] = 1
    assert main([command, _write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}: batch must be an integer >= 2")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "finetune"])
def test_cli_joint_needs_source_data(tmp_path, capsys, command):
    out = tmp_path / "out"
    cfg = _base_config(str(out))  # declares no source_data
    argv = [command, _write_config(tmp_path, cfg), "--method", "joint"]
    if command == "finetune":
        ckpt = str(tmp_path / "model.ckpt")
        save_checkpoint(ckpt, MiniCNN(parse_config(cfg).model))
        argv += ["--checkpoint", ckpt]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: joint fine-tuning needs source_data")
    assert "Traceback" not in err
    assert not out.exists()


class _FakeLibc:
    """A C library whose mallopt returns `result` and records its calls."""

    def __init__(self, result):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="mallopt's parameters are glibc's")
def test_glibc_keeps_freed_memory():
    assert cli.keep_freed_memory()


def test_main_sets_the_allocator_policy_first(monkeypatch, tmp_path):
    libc = _FakeLibc(1)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    assert main(["analyze", str(tmp_path / "missing.csv")]) == 1
    assert libc.calls == [(-3, 32 << 20), (-1, 128 << 20), (-8, 1)]


def test_refused_allocator_setting_is_reported(monkeypatch):
    libc = _FakeLibc(0)  # a mallopt that refuses every parameter
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    assert not cli.keep_freed_memory()
    assert len(libc.calls) == 3


def _no_libc(name):
    raise TypeError("LoadLibrary() argument 1 must be str, not None")


# macOS has a C library without mallopt; on Windows CDLL(None) raises
@pytest.mark.parametrize("cdll", [lambda name: object(), _no_libc])
def test_no_mallopt_leaves_the_allocator_alone(monkeypatch, tmp_path, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert not cli.keep_freed_memory()
    assert main(["analyze", str(tmp_path / "missing.csv")]) == 1


def _no_training(*args, **kwargs):
    raise AssertionError("a training step ran")


@pytest.mark.parametrize("command, split, val_fraction", [
    ("run", "target_data", 0.0), ("run", "target_data", 0.001),
    ("run", "source_data", 0.0), ("pretrain", "source_data", 0.0),
    ("finetune", "target_data", 0.0), ("eval", "target_data", 0.0)])
def test_cli_stops_on_an_empty_validation_split(tmp_path, capsys,
                                                monkeypatch, command, split,
                                                val_fraction):
    """Every command that reads data names the key; eval once failed
    naming neither, in `evaluate`."""
    # 0.001 of 48 images rounds to an empty split
    monkeypatch.setattr(training, "batch_loss", _no_training)
    monkeypatch.setattr(experiment, "warmup_bn", _no_training)
    out = tmp_path / "out"
    cfg = _base_config(str(out))
    cfg["source_data"] = dict(cfg["target_data"], seed=1)
    cfg["pretrain"] = dict(cfg["finetune"])
    cfg["finetune"]["warmup_epochs"] = 1
    cfg[split]["val_fraction"] = val_fraction
    argv = [command, _write_config(tmp_path, cfg)]
    if command in ("finetune", "eval"):
        argv += ["--checkpoint", _source_checkpoint(tmp_path, cfg)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the validation split is empty: "
                                   f"raise {split}'s val_fraction")
    assert "Traceback" not in captured.err and captured.out == ""
    assert set(os.listdir(tmp_path)) <= {"cfg.json", "model.ckpt"}
