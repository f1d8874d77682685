"""Dataset provisioning: seeded synthetic template tasks, IDX files and
npz archives."""

import math
import os
import struct
import zipfile
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_open
from .schema import check, choice, integer, integers, number, text

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX header, a file size other than its header declares,
    image and label files of different record counts, or an out-of-range
    label."""


class NpzFormatError(ValueError):
    """Unreadable npz archive, missing `x`/`y` array, mismatched record
    counts, a pixel outside [0, 1] or an out-of-range label."""


@dataclass
class DatasetSpec:
    source: str = choice("synthetic", ("synthetic", "idx-files", "npz"))
    classes: int = integer(2, least=1)
    image_shape: tuple = integers((3, 16, 16), least=1, length=3)
    per_class: int = integer(100, least=1)
    noise_std: float = number(0.2)
    seed: int = integer(0, least=0)
    val_fraction: float = number(0.25, high=1)
    images_path: str = text("")  # the archive for "npz"
    labels_path: str = text("")

    def __post_init__(self):
        check(self)
        if self.source == "synthetic" and self.classes < 2:
            raise ValueError("synthetic datasets need at least 2 classes")


def gen_synthetic_dataset(spec):
    """Per class: one fixed template in [0,1], samples are the template
    plus clamped Gaussian noise. Balanced labels, fully seeded."""
    if spec.source != "synthetic":
        raise ValueError("spec does not describe a synthetic dataset")
    rng = np.random.default_rng(spec.seed)
    c, h, w = spec.image_shape
    templates = rng.uniform(0.0, 1.0, size=(spec.classes, c, h, w))
    n = spec.per_class
    x = np.empty((spec.classes * n, c, h, w), dtype=np.float32)
    for k in range(spec.classes):
        block = rng.normal(0.0, 1.0, size=(n, c, h, w))
        block *= spec.noise_std
        block += templates[k]
        # each class is made in float64 and cast as soon as it is made,
        # which rounds as casting the whole set would, without its copy
        x[k * n:(k + 1) * n] = np.clip(block, 0.0, 1.0, out=block)
        # freed before the next draw: no two float64 blocks, nor a block
        # and the final x[order] gather, are alive at once
        del block
    y = np.repeat(np.arange(spec.classes, dtype=np.int64), n)
    order = rng.permutation(len(y))
    return x[order], y[order]


def val_count(n, val_fraction):
    """How many of n records the validation split holds."""
    return int(round(n * val_fraction))


def split_train_val(x, y, val_fraction, seed=0):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(y))
    n_val = val_count(len(y), val_fraction)
    val_idx, train_idx = order[:n_val], order[n_val:]
    return (x[train_idx], y[train_idx]), (x[val_idx], y[val_idx])


def load_records(spec):
    """All of `spec`'s records (x, y), in the order `load_dataset` splits.

    Labels read from files must lie in [0, spec.classes).
    """
    if spec.source == "synthetic":
        return gen_synthetic_dataset(spec)
    if spec.source == "npz":
        x, y = load_npz(spec.images_path)
        error, where = NpzFormatError, spec.images_path
    else:
        x, y = load_idx(spec.images_path, spec.labels_path)
        error, where = IdxFormatError, spec.labels_path
    bad = np.flatnonzero((y < 0) | (y >= spec.classes))
    if bad.size:
        raise error(f"label {y[bad[0]]} of record {bad[0]} in {where} is "
                    f"not in [0, classes={spec.classes})")
    return x, y


def load_dataset(spec):
    """The (train, val) split of `spec`'s records."""
    x, y = load_records(spec)
    return split_train_val(x, y, spec.val_fraction, seed=spec.seed)


def load_npz(path):
    """Read an npz archive's `x` (N, C, H, W) images and `y` (N,) labels."""
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh)
            arrays = ({k: archive[k] for k in ("x", "y") if k in archive}
                      if isinstance(archive, np.lib.npyio.NpzFile) else {})
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise NpzFormatError(f"{path} is not a readable npz archive: "
                                 f"{exc}") from exc
    missing = {"x", "y"} - set(arrays)
    if missing:
        raise NpzFormatError(f"{path} holds no array {sorted(missing)}")
    x, y = arrays["x"], arrays["y"]
    if y.ndim != 1 or not np.issubdtype(y.dtype, np.integer):
        raise NpzFormatError(f"{path}: y must be (N,) integer labels, got "
                             f"{y.shape} {y.dtype}")
    if x.ndim != 4:
        raise NpzFormatError(f"{path}: x must be (N, C, H, W) images, got "
                             f"{x.shape}")
    if len(x) != len(y):
        raise NpzFormatError(f"{path}: {len(x)} images but {len(y)} labels")
    x = x.astype(np.float32)
    # NaN fails both comparisons
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        raise NpzFormatError(f"{path}: pixels must be finite and lie in "
                             f"[0, 1], got values in [{x.min()}, {x.max()}]")
    return x, y.astype(np.int64)


def _read_exact(fh, count, what):
    data = fh.read(count)
    if len(data) != count:
        raise IdxFormatError(f"truncated IDX file while reading {what}")
    return data


def _idx_sizes(fh, fmt, magic, what):
    """The sizes in the header of the IDX file `fh`, which must hold one
    byte per entry after its header, and nothing more."""
    head = struct.calcsize(fmt)
    fields = struct.unpack(fmt, _read_exact(fh, head, "header"))
    if fields[0] != magic:
        raise IdxFormatError(f"bad IDX {what} magic: {fields[0]}")
    sizes = fields[1:]
    if min(sizes) < 0:
        raise IdxFormatError(f"negative size in IDX {what} header: {sizes}")
    need = head + math.prod(sizes)
    have = os.fstat(fh.fileno()).st_size
    if have != need:
        raise IdxFormatError(f"IDX {what} file holds {have} bytes, but its "
                             f"header {sizes} declares {need}")
    return sizes


def load_idx(images_path, labels_path):
    """Parse big-endian IDX image/label files; pixels scaled to [0,1]."""
    with open(images_path, "rb") as fh:
        n, rows, cols = _idx_sizes(fh, ">iiii", IDX_IMAGES_MAGIC, "image")
        raw = _read_exact(fh, n * rows * cols, "pixel data")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, rows, cols)
    with open(labels_path, "rb") as fh:
        n_labels, = _idx_sizes(fh, ">ii", IDX_LABELS_MAGIC, "label")
        raw = _read_exact(fh, n_labels, "label data")
    if n_labels != n:
        raise IdxFormatError(f"{n} images but {n_labels} labels")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    x = images.astype(np.float32)
    x /= 255.0
    return x, labels


def save_idx(images, labels, images_path, labels_path):
    """Write a dataset in IDX format (single-channel, uint8 pixels), each
    file atomically."""
    arr = np.asarray(images)
    if arr.ndim == 4:
        if arr.shape[1] != 1:
            raise ValueError("IDX files hold single-channel images")
        arr = arr[:, 0]
    pix = np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)
    n, rows, cols = pix.shape
    with atomic_open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(pix.tobytes())
    with atomic_open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", IDX_LABELS_MAGIC, n))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())
