"""Span arithmetic and the wrapper install/uninstall guarantees."""

import pytest

import spans
import worker
import workloads
from spans import Span
from twins_lab import cli


def test_self_time_of_a_nested_span_tree():
    tree = [
        Span(0, None, "cli.main", 0, 100, "0.0"),
        Span(1, 0, "experiment.run_pretrain", 10, 40, "0.0"),
        Span(2, 1, "tensor.conv2d", 15, 25, "0.0"),
        Span(3, 0, "analysis.evaluate", 50, 90, "0.0"),
        Span(4, 3, "attack.pgd_attack", 55, 70, "0.0"),
        Span(5, 3, "tensor.conv2d", 60, 80, "0.0"),  # overlaps its sibling
    ]
    assert spans.self_times(tree) == {0: 30, 1: 20, 2: 10, 3: 15, 4: 15,
                                      5: 20}


def test_layer_metrics_average_over_passes_and_count_useful_grads():
    tree = []
    for p in ("1", "3"):
        base = len(tree)
        t0 = 1000 * base
        tree += [
            Span(base, None, "tensor.backprop", t0, t0 + 10, f"{p}.0"),
            Span(base + 1, base, "tensor.conv2d_weight_grad", t0 + 1, t0 + 3,
                 f"{p}.0", {"flop": 4}),
            Span(base + 2, None, "tensor.conv2d_weight_grad", t0 + 20,
                 t0 + 26, f"{p}.0", {"flop": 4}),
        ]
    m = spans.layer_metrics(tree, ["1", "3"])
    assert m["tensor.conv2d_weight_grad.calls"]["value"] == 2
    assert m["tensor.conv2d_weight_grad.useful_ratio"]["value"] == 0.5
    assert m["tensor.conv2d_weight_grad.self_ms"]["value"] == 8 / 1e6
    assert m["tensor.backprop.ms"]["value"] == 10 / 1e6
    assert m["tensor.kl_div_logits.calls"]["value"] == 0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert spans.tail_percentile(list(range(21)))[1:] == (10, 50)
    assert spans.tail_percentile(list(range(100)))[1:] == (75, 75)
    assert spans.tail_percentile(list(range(101)))[1:] == (90, 90)


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = spans.snapshot()
    patched = spans.install(spans.Recorder())
    try:
        replaced = set(spans.replaced_since(before))
    finally:
        spans.uninstall(patched)
    for name in ("twins_lab.network.conv2d", "twins_lab.training.pgd_attack",
                 "twins_lab.analysis.pgd_attack", "twins_lab.pgd_attack",
                 "twins_lab.experiment.run_training",
                 "twins_lab.experiment.load_dataset",
                 "twins_lab.cli.load_dataset", "twins_lab.cli.load_checkpoint",
                 "twins_lab.tensor.Tensor.backward",
                 "twins_lab.network.MiniCNN.forward"):
        assert name in replaced
    assert spans.replaced_since(before) == []


@pytest.fixture
def clean_commands(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return workloads.setup("clean-pretrain", 0)


def test_untraced_pass_replaces_nothing_and_records_nothing(clean_commands):
    before = spans.snapshot()
    result = worker.run_pass(cli, clean_commands, 0, None)
    assert spans.replaced_since(before) == []
    assert not result["traced"]
    assert result["problems"] == [[]]


def test_traced_pass_records_spans_then_restores(clean_commands):
    before = spans.snapshot()
    recorder = spans.Recorder()
    result = worker.run_pass(cli, clean_commands, 0, recorder)
    assert spans.replaced_since(before) == []
    assert result["problems"] == [[]]
    names = {s.name for s in recorder.spans}
    assert {"cli.main", "tensor.conv2d", "data.load_idx"} <= names
    assert "attack.project_linf" not in names  # epsilon 0 returns early
    assert all(s.trace == "0.0" and s.end >= s.start for s in recorder.spans)
