import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twins_lab.checkpoint import (MAGIC, BadMagicError, BadVersionError,
                                  CheckpointError, PayloadBoundsError,
                                  load_checkpoint, load_tensors,
                                  save_checkpoint, save_tensors)
from twins_lab.cli import main
from twins_lab.network import BranchMode, MiniCNN, ModelConfig


def _model(dtype="float32", seed=0):
    cfg = ModelConfig(input_shape=(3, 8, 8), widths=(4, 6),
                      target_classes=3, source_classes=2, dtype=dtype)
    model = MiniCNN(cfg, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for state in model.bn:
        state.running_mean = rng.normal(size=state.channels).astype(
            cfg.np_dtype())
        state.frozen_var = rng.uniform(0.5, 2.0, size=state.channels).astype(
            cfg.np_dtype())
    return model


def test_failed_save_keeps_previous_file(tmp_path, disk_full):
    path = str(tmp_path / "t.ckpt")
    save_tensors(path, {"a": np.arange(3.0)}, {"step": 1})
    with open(path, "rb") as fh:
        before = fh.read()
    disk_full("t.ckpt")
    with pytest.raises(OSError):
        save_tensors(path, {"a": np.ones(3)}, {"step": 2})
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.ckpt"]


def test_tensor_round_trip_bitwise(tmp_path):
    path = str(tmp_path / "t.ckpt")
    rng = np.random.default_rng(0)
    tensors = {"a": rng.normal(size=(3, 4)),
               "b": rng.normal(size=(5,)).astype(np.float32)}
    save_tensors(path, tensors, {"tag": 7})
    loaded, meta = load_tensors(path)
    assert meta == {"tag": 7}
    assert set(loaded) == {"a", "b"}
    for name in tensors:
        assert loaded[name].dtype == tensors[name].dtype
        assert np.array_equal(loaded[name], tensors[name])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_model_round_trip_bitwise(tmp_path, dtype):
    path = str(tmp_path / "m.ckpt")
    model = _model(dtype=dtype)
    save_checkpoint(path, model, {"stage": "test"})
    restored, meta = load_checkpoint(path)
    assert meta["stage"] == "test"
    orig = model.state_dict()
    back = restored.state_dict()
    assert set(orig) == set(back)
    for name in orig:
        assert np.array_equal(orig[name], back[name])


def test_header_model_config_is_the_model_config(tmp_path):
    path = str(tmp_path / "m.ckpt")
    model = _model()
    save_checkpoint(path, model)
    _, meta = load_tensors(path)
    fields = [f.name for f in dataclasses.fields(ModelConfig)]
    assert list(meta["model_config"]) == fields
    # JSON stores the tuple fields as lists
    assert meta["model_config"] == json.loads(
        json.dumps(dataclasses.asdict(model.config)))
    assert ModelConfig(**meta["model_config"]) == model.config


def test_restored_model_predicts_identically(tmp_path):
    path = str(tmp_path / "m.ckpt")
    model = _model()
    save_checkpoint(path, model)
    restored, _ = load_checkpoint(path)
    x = np.random.default_rng(3).uniform(size=(4, 3, 8, 8))
    for mode in (BranchMode.INFERENCE, BranchMode.FROZEN_TRAIN):
        _, a = model.forward(x, mode)
        _, b = restored.forward(x, mode)
        assert np.array_equal(a.data, b.data)


def test_bad_magic(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"NOTACKPT" + bytes(64))
    with pytest.raises(BadMagicError):
        load_tensors(path)


def test_truncated_header(tmp_path):
    path = str(tmp_path / "trunc.ckpt")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", 1000) + b"{}")
    with pytest.raises(CheckpointError):
        load_tensors(path)


def test_bad_version(tmp_path):
    path = str(tmp_path / "ver.ckpt")
    header = json.dumps({"version": 99, "metadata": {},
                         "tensors": []}).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(BadVersionError):
        load_tensors(path)


def test_tensor_outside_payload(tmp_path):
    path = str(tmp_path / "oob.ckpt")
    header = json.dumps({
        "version": 1, "metadata": {},
        "tensors": [{"name": "w", "shape": [4], "dtype": "float64",
                     "offset": 0, "length": 32}]}).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(header)) + header + bytes(8))
    with pytest.raises(PayloadBoundsError):
        load_tensors(path)


def test_tensor_size_mismatch(tmp_path):
    path = str(tmp_path / "size.ckpt")
    header = json.dumps({
        "version": 1, "metadata": {},
        "tensors": [{"name": "w", "shape": [5], "dtype": "float64",
                     "offset": 0, "length": 32}]}).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(header)) + header + bytes(32))
    with pytest.raises(PayloadBoundsError):
        load_tensors(path)


def test_missing_model_tensor(tmp_path):
    path = str(tmp_path / "miss.ckpt")
    model = _model()
    tensors = model.state_dict()
    meta = {"model_config": {
        "input_shape": [3, 8, 8], "widths": [4, 6], "target_classes": 3,
        "source_classes": 2, "dtype": "float32", "bn_eps": 1e-5,
        "bn_momentum": 0.1}}
    del tensors["conv1"]
    save_tensors(path, tensors, meta)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _write_raw(path, header, payload=b""):
    raw = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(raw)) + raw + payload)


def _drop_model_config(header):
    del header["metadata"]["model_config"]


def _drop_model_config_key(header):
    del header["metadata"]["model_config"]["bn_eps"]


def _drop_tensor_list(header):
    del header["tensors"]


def _drop_metadata(header):
    del header["metadata"]


def _unknown_dtype(header):
    header["tensors"][0]["dtype"] = "float16"


def _drop_record_field(header):
    del header["tensors"][0]["offset"]


def _string_name(header):
    header["tensors"][0]["name"] = ["conv1"]


def _non_list_shape(header):
    header["tensors"][0]["shape"] = "4,3,3,3"


def _negative_extent(header):
    header["tensors"][0]["shape"] = [-1, -108]


def _list_dtype(header):
    header["tensors"][0]["dtype"] = ["float32"]


def _string_offset(header):
    header["tensors"][0]["offset"] = "0"


def _string_length(header):
    header["tensors"][0]["length"] = str(header["tensors"][0]["length"])


@pytest.mark.parametrize("corrupt", [
    _drop_model_config, _drop_model_config_key, _drop_tensor_list,
    _drop_metadata, _unknown_dtype, _drop_record_field, _string_name,
    _non_list_shape, _negative_extent, _list_dtype, _string_offset,
    _string_length])
def test_eval_reports_malformed_header_as_error(tmp_path, capsys, corrupt):
    good = str(tmp_path / "good.ckpt")
    save_checkpoint(good, _model())
    with open(good, "rb") as fh:
        blob = fh.read()
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + header_len])
    corrupt(header)
    bad = str(tmp_path / "bad.ckpt")
    _write_raw(bad, header, blob[12 + header_len:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    _assert_eval_fails(tmp_path, capsys, bad)


@pytest.mark.parametrize("length", [1, 5])
def test_eval_reports_bn_stat_of_wrong_length(tmp_path, capsys, length):
    model = _model()  # bn1 has 4 channels
    model.bn[0].frozen_var = np.ones(length, np.float32)
    bad = str(tmp_path / "bad.ckpt")
    save_checkpoint(bad, model)
    with pytest.raises(CheckpointError, match="bn1.frozen_var"):
        load_checkpoint(bad)
    _assert_eval_fails(tmp_path, capsys, bad)


# (key, value) pairs that each once crashed `twins-lab eval` with a
# traceback or loaded as a different model than the checkpoint describes
BAD_MODEL_CONFIGS = [
    ("widths", 5), ("widths", None), ("widths", []), ("widths", [4, True]),
    ("input_shape", [0, 16, 16]), ("input_shape", [3]),
    ("target_classes", "3"), ("target_classes", 0), ("source_classes", -1),
    ("dtype", "float16"), ("bn_eps", "x"), ("bn_eps", -1e-5),
    ("bn_momentum", 1.5)]


@pytest.mark.parametrize("key,value", BAD_MODEL_CONFIGS)
def test_bad_model_config_value_is_a_checkpoint_error(tmp_path, capsys, key,
                                                      value):
    good = str(tmp_path / "good.ckpt")
    save_checkpoint(good, _model())
    with open(good, "rb") as fh:
        blob = fh.read()
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + header_len])
    header["metadata"]["model_config"][key] = value
    bad = str(tmp_path / "bad.ckpt")
    _write_raw(bad, header, blob[12 + header_len:])
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(bad)
    _assert_eval_fails(tmp_path, capsys, bad)


def _assert_eval_fails(tmp_path, capsys, bad):
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump({"out_dir": str(tmp_path / "out"),
                   "model": {"input_shape": [3, 8, 8], "widths": [4, 6],
                             "target_classes": 3},
                   "target_data": {"source": "synthetic", "classes": 3,
                                   "image_shape": [3, 8, 8],
                                   "per_class": 4},
                   "finetune": {"method": "std"}}, fh)
    capsys.readouterr()
    assert main(["eval", cfg, "--checkpoint", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_non_object_header(tmp_path):
    path = str(tmp_path / "list.ckpt")
    _write_raw(path, [1, 2, 3])
    with pytest.raises(CheckpointError):
        load_tensors(path)


def test_undecodable_header(tmp_path):
    path = str(tmp_path / "junk.ckpt")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", 4) + b"\xff\xfe{[")
    with pytest.raises(CheckpointError):
        load_tensors(path)


# -- byte-level fuzz ---------------------------------------------------------
#
# A malformed file must fail with CheckpointError, never another exception
# and never a silent load of other data. Bytes of the tensor payload carry
# no check in format version 1, so a flip there loads as other weights;
# the header flips below must fail or load the very same tensors.


def _good_blob(tmp_path):
    path = str(tmp_path / "good.ckpt")
    save_checkpoint(path, _model(), {"stage": "fuzz"})
    with open(path, "rb") as fh:
        return fh.read()


def _write_blob(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)
    return str(path)


def _split(blob):
    """(header bytes, payload bytes) of a well-formed checkpoint."""
    (header_len,) = struct.unpack("<I", blob[8:12])
    return blob[12:12 + header_len], blob[12 + header_len:]


def _assemble(header, payload):
    return MAGIC + struct.pack("<I", len(header)) + header + payload


def test_every_truncated_checkpoint_is_a_checkpoint_error(tmp_path):
    blob = _good_blob(tmp_path)
    path = tmp_path / "cut.ckpt"
    for size in range(len(blob)):
        with pytest.raises(CheckpointError):
            load_checkpoint(_write_blob(path, blob[:size]))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_flipped_header_byte_fails_or_loads_the_same_tensors(tmp_path_factory,
                                                            data):
    tmp = tmp_path_factory.getbasetemp()
    blob = _good_blob(tmp)
    header, _ = _split(blob)
    at = data.draw(st.integers(0, 12 + len(header) - 1), label="byte")
    mask = data.draw(st.integers(1, 255), label="xor mask")
    bad = bytearray(blob)
    bad[at] ^= mask
    try:
        model, _ = load_checkpoint(_write_blob(tmp / "flip.ckpt", bytes(bad)))
    except CheckpointError:
        return
    # the flip hit a value that leaves every tensor where it was, such as
    # the metadata or bn_eps
    original = _model().state_dict()
    loaded = model.state_dict()
    assert set(loaded) == set(original)
    for name, value in original.items():
        assert np.array_equal(loaded[name], value), name


def _other_model_header(blob, tmp_path):
    other = MiniCNN(ModelConfig(input_shape=(3, 8, 8), widths=(5, 6),
                                target_classes=3, source_classes=2))
    path = str(tmp_path / "other.ckpt")
    save_checkpoint(path, other)
    with open(path, "rb") as fh:
        other_header, _ = _split(fh.read())
    return _assemble(other_header, _split(blob)[1])


def _other_model_payload(blob, tmp_path):
    other = MiniCNN(ModelConfig(input_shape=(3, 8, 8), widths=(4, 5),
                                target_classes=3, source_classes=2))
    path = str(tmp_path / "other.ckpt")
    save_checkpoint(path, other)
    with open(path, "rb") as fh:
        other_payload = _split(fh.read())[1]
    return _assemble(_split(blob)[0], other_payload)


def _length_prefix(delta):
    def splice(blob, tmp_path):
        (header_len,) = struct.unpack("<I", blob[8:12])
        return blob[:8] + struct.pack("<I", header_len + delta) + blob[12:]
    splice.__name__ = f"length_prefix_{delta:+d}"
    return splice


def _two_files_back_to_back(blob, tmp_path):
    return blob + blob


def _header_twice(blob, tmp_path):
    header, payload = _split(blob)
    return _assemble(header + header, payload)


def _deeply_nested_header(blob, tmp_path):
    return _assemble(b"[" * 100_000 + b"]" * 100_000, _split(blob)[1])


def _record_edit(**fields):
    def splice(blob, tmp_path):
        header, payload = _split(blob)
        parsed = json.loads(header)
        parsed["tensors"][0].update(fields)
        return _assemble(json.dumps(parsed).encode(), payload)
    splice.__name__ = "record_" + "_".join(fields)
    return splice


def _record_reads_its_neighbour(blob, tmp_path):
    """bn1.beta_a's record points at bn1.gamma_a's bytes, of equal size."""
    header, payload = _split(blob)
    parsed = json.loads(header)
    records = {rec["name"]: rec for rec in parsed["tensors"]}
    records["bn1.beta_a"]["offset"] = records["bn1.gamma_a"]["offset"]
    return _assemble(json.dumps(parsed).encode(), payload)


SPLICES = [
    _other_model_header, _other_model_payload,
    _length_prefix(-1), _length_prefix(1), _length_prefix(8),
    _two_files_back_to_back, _header_twice, _deeply_nested_header,
    # a length that is not a whole number of elements
    _record_edit(length=5, shape=[1]),
    # extents whose int64 product wraps to the record's size of 0
    _record_edit(length=0, shape=[2**32, 2**32, 1]),
    _record_edit(shape=[2**70]),
    _record_reads_its_neighbour,
]


@pytest.mark.parametrize("splice", SPLICES, ids=lambda f: f.__name__)
def test_spliced_checkpoint_is_a_checkpoint_error(tmp_path, capsys, splice):
    bad = _write_blob(tmp_path / "bad.ckpt",
                      splice(_good_blob(tmp_path), tmp_path))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    _assert_eval_fails(tmp_path, capsys, bad)


@pytest.mark.parametrize("cut", [0, 7, 11, 12, 100, -1])
def test_eval_reports_truncated_checkpoint_as_error(tmp_path, capsys, cut):
    blob = _good_blob(tmp_path)
    header_len = len(_split(blob)[0])
    size = {100: 12 + header_len + 100, -1: len(blob) - 1}.get(cut, cut)
    _assert_eval_fails(tmp_path, capsys,
                       _write_blob(tmp_path / "cut.ckpt", blob[:size]))
