"""Bit-exact binary checkpoint format for one MiniCNN.

Layout (format version 2): 8-byte magic "TWINSCKP", 4-byte little-endian
header length, a UTF-8 JSON header {version, metadata} whose
`metadata.model_config` is the model's ModelConfig, then the arrays of
`MiniCNN(model_config).state_dict()` back to back in its order,
little-endian in the config's dtype, then the 32-byte SHA-256 of every
byte before it. The config fixes each array's name, shape and dtype, so
the header lists none of them.
"""

import contextlib
import dataclasses
import hashlib
import json
import os
import struct

import numpy as np

from .network import MiniCNN, ModelConfig

MAGIC = b"TWINSCKP"
VERSION = 2
_DIGEST_SIZE = hashlib.sha256().digest_size


class CheckpointError(ValueError):
    """A malformed checkpoint file, or a model it cannot hold."""


@contextlib.contextmanager
def atomic_open(path, mode, **kwargs):
    """Make `path`'s directory, then open a temp file beside `path` for
    writing; on a clean exit it replaces `path` with `os.replace`, on an
    exception it is removed. A reader sees the old file or the whole new
    one, never a part."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _payload_dtype(config):
    return np.dtype(config.np_dtype()).newbyteorder("<")


def save_checkpoint(path, model, metadata=None):
    """Persist a model (parameters, both affine sets, all statistics). A
    state whose arrays do not fit its model_config raises CheckpointError
    naming the array, and no file is written."""
    meta = dict(metadata or {})
    meta["model_config"] = dataclasses.asdict(model.config)
    # the file stores no shapes, so the state must be the one its config
    # builds; load_state_dict names the first array that is not
    fitted = MiniCNN(model.config)
    try:
        fitted.load_state_dict(model.state_dict())
    except ValueError as exc:
        raise CheckpointError(f"checkpoint tensor mismatch: {exc}") from exc
    dtype = _payload_dtype(model.config)
    header = json.dumps({"version": VERSION, "metadata": meta}).encode("utf-8")
    body = b"".join([MAGIC, struct.pack("<I", len(header)), header] + [
        arr.astype(dtype).tobytes() for arr in fitted.state_dict().values()])
    with atomic_open(path, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())


def load_checkpoint(path):
    """Rebuild a model from a checkpoint; returns (model, metadata)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path}")
    if len(blob) < 12:
        raise CheckpointError("truncated checkpoint header")
    (header_len,) = struct.unpack("<I", blob[8:12])
    header_end = 12 + header_len
    if header_end > len(blob):
        raise CheckpointError("truncated checkpoint header")
    try:
        header = json.loads(blob[12:header_end].decode("utf-8"))
    # undecodable bytes, malformed JSON, or arrays nested too deep to parse
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    if header.get("version") != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version: {header.get('version')}")
    payload_end = len(blob) - _DIGEST_SIZE
    if (payload_end < header_end
            or hashlib.sha256(blob[:payload_end]).digest()
            != blob[payload_end:]):
        raise CheckpointError(f"checkpoint {path} fails its SHA-256 checksum")
    meta = header.get("metadata")
    mc = meta.get("model_config") if isinstance(meta, dict) else None
    if not isinstance(mc, dict):
        raise CheckpointError("checkpoint metadata has no model_config")
    keys = [f.name for f in dataclasses.fields(ModelConfig)]
    missing = [k for k in keys if k not in mc]
    if missing:
        raise CheckpointError(f"checkpoint model_config misses {missing}")
    try:
        cfg = ModelConfig(**{k: mc[k] for k in keys})
    except ValueError as exc:  # a value of the wrong type or range
        raise CheckpointError(f"checkpoint model_config: {exc}") from exc
    model = MiniCNN(cfg)
    state = model.state_dict()
    dtype = _payload_dtype(cfg)
    need = sum(arr.size for arr in state.values()) * dtype.itemsize
    if payload_end - header_end != need:
        raise CheckpointError(
            f"checkpoint payload is {payload_end - header_end} bytes, but "
            f"its model_config needs {need}")
    at = header_end
    for name, arr in state.items():
        state[name] = np.frombuffer(blob, dtype, count=arr.size,
                                    offset=at).reshape(arr.shape)
        at += arr.size * dtype.itemsize
    model.load_state_dict(state)
    return model, meta
