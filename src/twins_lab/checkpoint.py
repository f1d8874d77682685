"""Bit-exact binary checkpoint format for named tensors.

Layout: 8-byte magic "TWINSCKP", 4-byte little-endian header length, a
UTF-8 JSON header {version, metadata, tensors:[{name, shape, dtype,
offset, length}]}, then a raw little-endian payload. Offsets are
relative to the payload start; the tensors lie back to back in record
order and fill the payload exactly.
"""

import contextlib
import dataclasses
import json
import math
import os
import struct

import numpy as np

from .network import MiniCNN, ModelConfig
from .schema import is_int

MAGIC = b"TWINSCKP"
VERSION = 1
_DTYPES = {"float32": "<f4", "float64": "<f8"}


class CheckpointError(ValueError):
    """Base class for malformed checkpoint files."""


class BadMagicError(CheckpointError):
    pass


class BadVersionError(CheckpointError):
    pass


class PayloadBoundsError(CheckpointError):
    pass


@contextlib.contextmanager
def atomic_open(path, mode, **kwargs):
    """Open a temp file beside `path` for writing; on a clean exit it
    replaces `path` with `os.replace`, on an exception it is removed. A
    reader sees the old file or the whole new one, never a part."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_tensors(path, tensors, metadata):
    records = []
    chunks = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        dtype = "float64" if arr.dtype == np.float64 else "float32"
        raw = arr.astype(_DTYPES[dtype]).tobytes()
        records.append({"name": name, "shape": list(arr.shape),
                        "dtype": dtype, "offset": offset, "length": len(raw)})
        chunks.append(raw)
        offset += len(raw)
    header = json.dumps({"version": VERSION, "metadata": metadata,
                         "tensors": records}).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for raw in chunks:
            fh.write(raw)


def load_tensors(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise BadMagicError(f"bad checkpoint magic in {path}")
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
        raise BadVersionError(
            f"unsupported checkpoint version: {header.get('version')}")
    records = header.get("tensors")
    if not isinstance(records, list) or "metadata" not in header:
        raise CheckpointError("checkpoint header lacks tensors or metadata")
    payload = blob[header_end:]
    tensors = {}
    end = 0  # where the previous tensor's bytes end
    for rec in records:
        try:
            name, shape, dtype, start, length = (
                rec[k] for k in ("name", "shape", "dtype", "offset", "length"))
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"malformed tensor record in checkpoint header: {rec!r}"
            ) from exc
        if not (isinstance(name, str) and isinstance(dtype, str)
                and isinstance(shape, list) and all(map(is_int, shape))
                and is_int(start) and is_int(length)):
            raise CheckpointError(
                f"tensor record has a field of the wrong type: {rec!r}")
        if dtype not in _DTYPES:
            raise CheckpointError(
                f"tensor {name!r} has unknown dtype {dtype!r}")
        if start < 0 or length < 0 or start + length > len(payload):
            raise PayloadBoundsError(
                f"tensor {name!r} lies outside the payload")
        if start != end:
            raise PayloadBoundsError(
                f"tensor {name!r} does not start where the previous one ends")
        end = start + length
        itemsize = np.dtype(_DTYPES[dtype]).itemsize
        # exact in Python ints, however large the header's extents
        if (min(shape, default=0) < 0
                or length != math.prod(shape) * itemsize):
            raise PayloadBoundsError(
                f"tensor {name!r} has inconsistent size")
        arr = np.frombuffer(payload[start:start + length],
                            dtype=_DTYPES[dtype])
        tensors[name] = arr.reshape(shape).copy()
    if end != len(payload):
        raise PayloadBoundsError(
            f"checkpoint has {len(payload) - end} bytes past its last tensor")
    return tensors, header["metadata"]


def save_checkpoint(path, model, metadata=None):
    """Persist a model (parameters, both affine sets, all statistics)."""
    meta = dict(metadata or {})
    meta["model_config"] = dataclasses.asdict(model.config)
    save_tensors(path, model.state_dict(), meta)


def load_checkpoint(path):
    """Rebuild a model from a checkpoint; returns (model, metadata)."""
    tensors, meta = load_tensors(path)
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
    model = MiniCNN(cfg, rng=np.random.default_rng(0))
    try:
        model.load_state_dict(tensors)
    except KeyError as exc:
        raise CheckpointError(f"checkpoint misses tensor {exc}") from exc
    except ValueError as exc:  # a tensor of the wrong shape
        raise CheckpointError(f"checkpoint tensor mismatch: {exc}") from exc
    return model, meta
