import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twins_lab.checkpoint import (MAGIC, CheckpointError, load_checkpoint,
                                  save_checkpoint)
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


def _seal(body):
    """`body` with the SHA-256 trailer a well-formed file ends with."""
    return body + hashlib.sha256(body).digest()


def _assemble(header, payload):
    return _seal(MAGIC + struct.pack("<I", len(header)) + header + payload)


def _split(blob):
    """(header bytes, payload bytes) of a well-formed checkpoint."""
    (header_len,) = struct.unpack("<I", blob[8:12])
    return (blob[12:12 + header_len],
            blob[12 + header_len:-hashlib.sha256().digest_size])


def _write_raw(path, header, payload=b""):
    """Write `header` as JSON and `payload` under a matching trailer, so
    that only they can be at fault."""
    with open(path, "wb") as fh:
        fh.write(_assemble(json.dumps(header).encode(), payload))


def test_failed_save_keeps_previous_file(tmp_path, disk_full):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(path, _model(), {"step": 1})
    with open(path, "rb") as fh:
        before = fh.read()
    disk_full("t.ckpt")
    with pytest.raises(OSError):
        save_checkpoint(path, _model(seed=1), {"step": 2})
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.ckpt"]


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
    _, meta = load_checkpoint(path)
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
    with pytest.raises(CheckpointError, match="^bad checkpoint magic in "):
        load_checkpoint(path)


def test_truncated_header(tmp_path):
    path = str(tmp_path / "trunc.ckpt")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", 1000) + b"{}")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_bad_version(tmp_path):
    path = str(tmp_path / "ver.ckpt")
    _write_raw(path, {"version": 99, "metadata": {}})
    with pytest.raises(CheckpointError,
                       match="^unsupported checkpoint version: 99$"):
        load_checkpoint(path)


def test_version_1_file_names_its_version(tmp_path):
    """A well-formed file of format version 1: a record per tensor in the
    header, the payload after it, and no trailer."""
    model = _model()
    records, payload = [], b""
    for name, arr in model.state_dict().items():
        raw = arr.astype("<f4").tobytes()
        records.append({"name": name, "shape": list(arr.shape),
                        "dtype": "float32", "offset": len(payload),
                        "length": len(raw)})
        payload += raw
    header = json.dumps({
        "version": 1,
        "metadata": {"model_config": dataclasses.asdict(model.config)},
        "tensors": records}).encode()
    path = str(tmp_path / "v1.ckpt")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(header)) + header + payload)
    with pytest.raises(CheckpointError,
                       match="^unsupported checkpoint version: 1$"):
        load_checkpoint(path)


def test_missing_model_tensor(tmp_path):
    path = str(tmp_path / "miss.ckpt")
    model = _model()
    tensors = model.state_dict()
    meta = {"model_config": {
        "input_shape": [3, 8, 8], "widths": [4, 6], "target_classes": 3,
        "source_classes": 2, "dtype": "float32", "bn_eps": 1e-5,
        "bn_momentum": 0.1}}
    del tensors["conv1"]
    _write_raw(path, {"version": 2, "metadata": meta},
               b"".join(arr.astype("<f4").tobytes()
                        for arr in tensors.values()))
    with pytest.raises(CheckpointError, match="^checkpoint payload is "
                       r"\d+ bytes, but its model_config needs \d+$"):
        load_checkpoint(path)


def test_tensor_size_mismatch(tmp_path):
    """A payload longer than its model_config's arrays."""
    header, payload = _good_parts(tmp_path)
    path = str(tmp_path / "size.ckpt")
    _write_raw(path, header, payload + bytes(8))
    with pytest.raises(CheckpointError, match="^checkpoint payload is "
                       r"\d+ bytes, but its model_config needs \d+$"):
        load_checkpoint(path)


def _drop_model_config(header):
    del header["metadata"]["model_config"]


def _drop_model_config_key(header):
    del header["metadata"]["model_config"]["bn_eps"]


def _drop_metadata(header):
    del header["metadata"]


def _good_parts(tmp_path):
    """(parsed header, payload bytes) of a checkpoint of `_model()`."""
    good = str(tmp_path / "good.ckpt")
    save_checkpoint(good, _model())
    with open(good, "rb") as fh:
        header, payload = _split(fh.read())
    return json.loads(header), payload


@pytest.mark.parametrize("corrupt", [
    _drop_model_config, _drop_model_config_key, _drop_metadata])
def test_eval_reports_malformed_header_as_error(tmp_path, capsys, corrupt):
    header, payload = _good_parts(tmp_path)
    corrupt(header)
    bad = str(tmp_path / "bad.ckpt")
    _write_raw(bad, header, payload)
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    _assert_eval_fails(tmp_path, capsys, bad)


@pytest.mark.parametrize("length", [1, 5])
def test_eval_reports_bn_stat_of_wrong_length(tmp_path, capsys, length):
    """The file holds no shapes to check on load, so save refuses such a
    state and writes nothing; eval then has no file to read."""
    model = _model()  # bn1 has 4 channels
    model.bn[0].frozen_var = np.ones(length, np.float32)
    bad = str(tmp_path / "bad.ckpt")
    with pytest.raises(CheckpointError, match="bn1.frozen_var"):
        save_checkpoint(bad, model)
    assert list(tmp_path.iterdir()) == []
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
    header, payload = _good_parts(tmp_path)
    header["metadata"]["model_config"][key] = value
    bad = str(tmp_path / "bad.ckpt")
    _write_raw(bad, header, payload)
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
        load_checkpoint(path)


def test_undecodable_header(tmp_path):
    path = str(tmp_path / "junk.ckpt")
    with open(path, "wb") as fh:
        fh.write(_assemble(b"\xff\xfe{[", b""))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# -- byte-level fuzz ---------------------------------------------------------
#
# A malformed file must fail with CheckpointError, never another exception
# and never a silent load of other data. Each splice below that rebuilds
# the file ends it with a matching trailer, so that the checks after the
# SHA-256 must catch it.


def _good_blob(tmp_path):
    path = str(tmp_path / "good.ckpt")
    save_checkpoint(path, _model(), {"stage": "fuzz"})
    with open(path, "rb") as fh:
        return fh.read()


def _write_blob(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)
    return str(path)


def test_every_truncated_checkpoint_is_a_checkpoint_error(tmp_path):
    blob = _good_blob(tmp_path)
    path = tmp_path / "cut.ckpt"
    for size in range(len(blob)):
        with pytest.raises(CheckpointError):
            load_checkpoint(_write_blob(path, blob[:size]))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_flipped_byte_is_a_checkpoint_error(tmp_path_factory, data):
    """Any byte of the file, in the header, the payload or the trailer,
    flipped with any mask."""
    tmp = tmp_path_factory.getbasetemp()
    blob = _good_blob(tmp)
    at = data.draw(st.integers(0, len(blob) - 1), label="byte")
    mask = data.draw(st.integers(1, 255), label="xor mask")
    bad = bytearray(blob)
    bad[at] ^= mask
    with pytest.raises(CheckpointError):
        load_checkpoint(_write_blob(tmp / "flip.ckpt", bytes(bad)))


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
        header, payload = _split(blob)
        return _seal(MAGIC + struct.pack("<I", len(header) + delta)
                     + header + payload)
    splice.__name__ = f"length_prefix_{delta:+d}"
    return splice


def _two_files_back_to_back(blob, tmp_path):
    return blob + blob


def _header_twice(blob, tmp_path):
    header, payload = _split(blob)
    return _assemble(header + header, payload)


def _deeply_nested_header(blob, tmp_path):
    return _assemble(b"[" * 100_000 + b"]" * 100_000, _split(blob)[1])


SPLICES = [
    _other_model_header, _other_model_payload,
    _length_prefix(-1), _length_prefix(1), _length_prefix(8),
    _two_files_back_to_back, _header_twice, _deeply_nested_header,
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
