import dataclasses
import io
import json
import os
import platform

import numpy as np
import pytest

from twins_lab import cli, experiment, training
from twins_lab.cli import main
from twins_lab.experiment import (METRICS_HEADER, ConfigError,
                                  ExperimentConfig, parse_train_config,
                                  read_metrics, run_experiment,
                                  write_metrics)
from twins_lab.checkpoint import save_checkpoint
from twins_lab.data import NpzFormatError, load_dataset, save_idx
from twins_lab.network import MiniCNN
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


def test_config_rejects_unknown_method_before_training():
    with pytest.raises(ConfigError):
        parse_train_config({"method": "twins-qt"})


def test_config_rejects_unknown_keys(tmp_path):
    for key, value in (("learning_rate", 0.1), ("sum_mode", True),
                       ("kl_clean_first", True)):
        cfg = _base_config(str(tmp_path / "out"))
        cfg["finetune"][key] = value
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(cfg)
    cfg = _base_config(str(tmp_path / "out"))
    cfg["typo_section"] = {}
    with pytest.raises(ConfigError):
        ExperimentConfig(cfg)


@pytest.mark.parametrize("key,value", [("widths", []), ("dtype", "float16"),
                                       ("input_shape", [3, 0, 8])])
def test_config_rejects_bad_model_values(tmp_path, key, value):
    cfg = _base_config(str(tmp_path / "out"))
    cfg["model"][key] = value
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(cfg)


def test_config_requires_core_sections(tmp_path):
    cfg = _base_config(str(tmp_path / "out"))
    del cfg["finetune"]
    with pytest.raises(ConfigError):
        ExperimentConfig(cfg)


def test_config_pretrain_needs_source_data(tmp_path):
    cfg = _base_config(str(tmp_path / "out"))
    cfg["pretrain"] = dict(cfg["finetune"])
    with pytest.raises(ConfigError):
        ExperimentConfig(cfg)


def test_config_missing_idx_file_rejected(tmp_path):
    cfg = _base_config(str(tmp_path / "out"))
    cfg["target_data"] = {"source": "idx-files",
                          "images_path": str(tmp_path / "nope.idx"),
                          "labels_path": str(tmp_path / "nope2.idx")}
    with pytest.raises(ConfigError):
        ExperimentConfig(cfg)


def test_run_experiment_produces_artifacts(tmp_path):
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, _base_config(out))
    results = run_experiment(path)
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
        run_experiment(path, out_override=str(tmp_path / sub))
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


@pytest.mark.parametrize("channels", [1, 3])
def test_gen_data_reads_back_the_same_split(tmp_path, channels):
    out = str(tmp_path / "out")
    cfg = _base_config(out)
    cfg["target_data"].update(image_shape=[channels, 8, 8], seed=7,
                              val_fraction=0.3)
    spec = ExperimentConfig(cfg).target_data
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
        load_dataset(ExperimentConfig(cfg).target_data)
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
        load_dataset(ExperimentConfig(cfg).target_data)
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
    exp = ExperimentConfig(cfg)
    train, val = load_dataset(exp.target_data)
    model = MiniCNN(exp.model, rng=np.random.default_rng(0))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match=r"epoch \d+, batch \d+"):
        run_training(exp.finetune, train, val, model)
    path = _write_config(tmp_path, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", path]) == 1
    assert "error: training diverged at epoch" in capsys.readouterr().err
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
    monkeypatch.setattr(cli, "load_dataset", read_only)
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
    run_experiment(path)
    with open(out / "summary.json", "rb") as fh:
        before = fh.read()
    disk_full("summary.json")
    with pytest.raises(OSError):
        run_experiment(path)
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
    assert not out.exists() or os.listdir(out) == []


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
    ("finetune", "target_data", 0.0)])
def test_cli_stops_on_an_empty_validation_split(tmp_path, capsys,
                                                monkeypatch, command, split,
                                                val_fraction):
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
    if command == "finetune":
        argv += ["--checkpoint", str(tmp_path / "model.ckpt")]
        save_checkpoint(argv[-1], MiniCNN(
            experiment._source_model_config(ExperimentConfig(cfg))))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the validation split is empty")
    assert "Traceback" not in err
    assert not out.exists() or os.listdir(out) == []


def test_cli_eval_stops_on_an_empty_validation_split(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base_config(str(out))
    cfg["target_data"]["val_fraction"] = 0.0
    exp = ExperimentConfig(cfg)
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, MiniCNN(exp.model, rng=np.random.default_rng(0)))
    path = _write_config(tmp_path, cfg)
    assert main(["eval", path, "--checkpoint", ckpt]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot evaluate on an empty")
    assert "Traceback" not in captured.err and captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "model.ckpt"]
