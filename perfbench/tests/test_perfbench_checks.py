"""Output checks fail on broken artifacts; the seed reaches every input."""

import json
import os

import pytest

import checks
import run
import worker
import workloads
from twins_lab import cli
from twins_lab.checkpoint import load_checkpoint


@pytest.fixture(scope="module")
def clean_outputs(tmp_path_factory):
    """One passing clean-pretrain command: (commands, printed output, the
    directory its relative paths start from)."""
    where = str(tmp_path_factory.mktemp("clean"))
    old = os.getcwd()
    os.chdir(where)
    try:
        commands = workloads.setup("clean-pretrain", 0)
        rc, printed, _, _ = worker.run_command(cli, commands[0].argv)
    finally:
        os.chdir(old)
    assert rc == 0
    return commands, printed, where


def _corrupt(path, edit):
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(edit(blob))
    return blob


def test_metrics_csv_check(clean_outputs):
    _, _, where = clean_outputs
    path = os.path.join(where, "out", "pretrain_metrics.csv")
    assert checks.check_metrics_csv(path, 2) == []
    assert checks.check_metrics_csv(path, 3)  # one row per epoch
    for edit in (lambda b: b.replace(b"epoch,lr", b"epoch,rate"),
                 lambda b: b.replace(b"\n1,", b"\n1,0.5,"),
                 lambda b: b[:b.rindex(b",")] + b",nan\n",
                 lambda b: b[:b.rindex(b",")] + b",inf\n",
                 lambda b: b.rsplit(b"\n", 2)[0] + b"\n",
                 lambda b: b.rstrip(b"\n")):
        blob = _corrupt(path, edit)
        try:
            assert checks.check_metrics_csv(path, 2)
        finally:
            _corrupt(path, lambda _: blob)


def test_accuracy_outside_unit_interval_fails(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(checks.METRICS_HEADER + "\n0,0.1,1.0,1.5,0.5,1,0,0\n")
    assert checks.check_metrics_csv(str(path), 1)
    path.write_text(checks.METRICS_HEADER + "\n0,0.1,1.0,0.5,0.4,1,0,0\n")
    assert checks.check_metrics_csv(str(path), 1) == []
    assert checks.check_metrics_csv(str(path), 1, clean_equals_robust=True)


def test_truncated_checkpoint_fails(clean_outputs, monkeypatch):
    commands, printed, where = clean_outputs
    path = os.path.join(where, "out", "pretrained.ckpt")
    assert checks.check_checkpoint(path, load_checkpoint, "pretrain",
                                   "std") == []
    assert checks.check_checkpoint(path, load_checkpoint, "finetune", "std")
    for cut in (0.5, 0.02):
        blob = _corrupt(path, lambda b: b[:int(len(b) * cut)])
        try:
            assert checks.check_checkpoint(path, load_checkpoint, "pretrain",
                                           "std")
            monkeypatch.chdir(where)
            assert commands[0].check(printed)
        finally:
            _corrupt(path, lambda _: blob)


def test_eval_and_summary_checks(tmp_path):
    ok = json.dumps({"checkpoint": "c.ckpt", "clean_acc": 0.5,
                     "pgd_acc": 0.25})
    assert checks.check_eval_output(ok, "c.ckpt") == []
    assert checks.check_eval_output(ok, "d.ckpt")
    assert checks.check_eval_output(ok.replace("0.25", "-1"), "c.ckpt")
    assert checks.check_eval_output(ok[:-1], "c.ckpt")
    summary = {"3": {"clean_acc": 0.5, "pgd_acc": 0.1}}
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary))
    assert checks.check_summary(str(path), [3], json.dumps(summary)) == []
    assert checks.check_summary(str(path), [4], json.dumps(summary))
    assert checks.check_summary(str(path), [3], "{}")


def test_digest_covers_file_bytes_names_and_printed_text(tmp_path):
    (tmp_path / "a").write_bytes(b"xy")
    base = checks.digest(str(tmp_path), ["out"])
    assert checks.digest(str(tmp_path), ["out"]) == base
    assert checks.digest(str(tmp_path), ["out2"]) != base
    (tmp_path / "a").write_bytes(b"xz")
    assert checks.digest(str(tmp_path), ["out"]) != base


def _inputs(tmp_path, name, seed, tag=""):
    where = tmp_path / f"{name}-{seed}{tag}"
    where.mkdir()
    old = os.getcwd()
    os.chdir(where)
    try:
        commands = workloads.setup(name, seed)
    finally:
        os.chdir(old)
    files = {p: (where / p).read_bytes() for p in sorted(os.listdir(where))}
    return commands, files


@pytest.mark.parametrize("name,config", [("readme-run", "readme.json"),
                                         ("robust-eval", "eval.json"),
                                         ("clean-pretrain", "clean.json")])
def test_seed_reaches_data_generation_and_training(tmp_path, name, config):
    cmds1, files1 = _inputs(tmp_path, name, 1)
    cmds1b, files1b = _inputs(tmp_path, name, 1, "-again")
    cmds2, files2 = _inputs(tmp_path, name, 2)
    assert files1 == files1b
    assert [c.argv for c in cmds1] == [c.argv for c in cmds1b]
    cfg1, cfg2 = (json.loads(f[config]) for f in (files1, files2))
    assert cfg1["target_data"]["seed"] != cfg2["target_data"]["seed"]
    if name == "readme-run":
        assert cfg1["source_data"]["seed"] != cfg2["source_data"]["seed"]
        assert cfg1["pretrain"]["seed"] != cfg2["pretrain"]["seed"]
        assert cfg1["seeds"] != cfg2["seeds"]
        assert cmds1[1].argv != cmds2[1].argv
    if name == "robust-eval":
        assert files1["finetuned.ckpt"] != files2["finetuned.ckpt"]
        assert cmds1[0].argv != cmds2[0].argv
    if name == "clean-pretrain":
        assert files1["images.idx"] != files2["images.idx"]
        assert cfg1["pretrain"]["seed"] != cfg2["pretrain"]["seed"]


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "readme-run", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
