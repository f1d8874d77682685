import struct
import tracemalloc

import numpy as np
import pytest

from twins_lab.data import (DatasetSpec, IdxCountMismatchError,
                            IdxFormatError, gen_synthetic_dataset,
                            load_dataset, load_idx, save_idx,
                            split_train_val, val_split_size)


def test_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(source="csv")
    with pytest.raises(ValueError):
        DatasetSpec(classes=1)
    with pytest.raises(ValueError):
        DatasetSpec(val_fraction=1.0)


def test_synthetic_seeded_determinism():
    spec = DatasetSpec(classes=3, per_class=10, seed=5)
    x1, y1 = gen_synthetic_dataset(spec)
    x2, y2 = gen_synthetic_dataset(spec)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_synthetic_different_seeds_differ():
    x1, _ = gen_synthetic_dataset(DatasetSpec(per_class=10, seed=0))
    x2, _ = gen_synthetic_dataset(DatasetSpec(per_class=10, seed=1))
    assert not np.array_equal(x1, x2)


def test_synthetic_balance_shape_and_range():
    spec = DatasetSpec(classes=4, image_shape=(3, 8, 8), per_class=15, seed=2)
    x, y = gen_synthetic_dataset(spec)
    assert x.shape == (60, 3, 8, 8)
    assert x.dtype == np.float32
    assert x.min() >= 0.0 and x.max() <= 1.0
    assert np.array_equal(np.bincount(y), np.full(4, 15))


def test_synthetic_zero_noise_collapses_to_templates():
    spec = DatasetSpec(classes=2, per_class=6, noise_std=0.0, seed=3)
    x, y = gen_synthetic_dataset(spec)
    for k in (0, 1):
        cls = x[y == k]
        assert np.array_equal(cls, np.broadcast_to(cls[0], cls.shape))


def _float64_then_cast(spec):
    """The synthetic formula with every image in float64, cast at the end."""
    rng = np.random.default_rng(spec.seed)
    c, h, w = spec.image_shape
    templates = rng.uniform(0.0, 1.0, size=(spec.classes, c, h, w))
    xs, ys = [], []
    for k in range(spec.classes):
        noise = rng.normal(0.0, 1.0, size=(spec.per_class, c, h, w))
        xs.append(np.clip(templates[k] + spec.noise_std * noise, 0.0, 1.0))
        ys.append(np.full(spec.per_class, k, dtype=np.int64))
    x = np.concatenate(xs).astype(np.float32)
    y = np.concatenate(ys)
    order = rng.permutation(len(y))
    return x[order], y[order]


@pytest.mark.parametrize("spec", [
    DatasetSpec(classes=3, image_shape=(3, 16, 16), per_class=40,
                noise_std=0.35, seed=42),
    DatasetSpec(classes=10, image_shape=(1, 28, 28), per_class=7,
                noise_std=2.0, seed=7),
    DatasetSpec(classes=2, image_shape=(2, 5, 3), per_class=1,
                noise_std=0.0, seed=0)])
def test_synthetic_matches_float64_formula_bitwise(spec):
    x, y = gen_synthetic_dataset(spec)
    x_ref, y_ref = _float64_then_cast(spec)
    assert x.dtype == x_ref.dtype and y.dtype == y_ref.dtype
    assert x.tobytes() == x_ref.tobytes()
    assert np.array_equal(y, y_ref)


def test_synthetic_allocates_no_float64_copy_of_the_set():
    spec = DatasetSpec(classes=4, image_shape=(3, 16, 16), per_class=200,
                       seed=1)
    tracemalloc.start()
    try:
        x, _ = gen_synthetic_dataset(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result, its shuffled copy and one class in float64: 2.5x; a
    # float64 copy of the whole set alone would be 2x more
    assert peak < 3 * x.nbytes


def test_split_partitions_dataset():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(40, 2))
    y = np.arange(40)
    (xt, yt), (xv, yv) = split_train_val(x, y, 0.25, seed=1)
    assert len(yt) == 30 and len(yv) == 10
    assert sorted(np.concatenate([yt, yv]).tolist()) == list(range(40))


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    # pixel values on the uint8 grid so the round trip is exact
    images = rng.integers(0, 256, size=(7, 1, 5, 4)).astype(np.float32) / 255
    labels = rng.integers(0, 9, size=7).astype(np.int64)
    ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
    save_idx(images, labels, ip, lp)
    loaded_x, loaded_y = load_idx(ip, lp)
    assert np.allclose(loaded_x, images, atol=1e-7)
    assert np.array_equal(loaded_y, labels)


def test_idx_rejects_multichannel(tmp_path):
    with pytest.raises(ValueError):
        save_idx(np.zeros((2, 3, 4, 4)), np.zeros(2),
                 str(tmp_path / "a"), str(tmp_path / "b"))


def _write_pair(tmp_path, n_images=3, n_labels=3, image_magic=0x803,
                label_magic=0x801, truncate=0):
    ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
    pix = np.zeros((n_images, 2, 2), dtype=np.uint8)
    body = struct.pack(">iiii", image_magic, n_images, 2, 2) + pix.tobytes()
    if truncate:
        body = body[:-truncate]
    with open(ip, "wb") as fh:
        fh.write(body)
    with open(lp, "wb") as fh:
        fh.write(struct.pack(">ii", label_magic, n_labels)
                 + bytes(n_labels))
    return ip, lp


def test_idx_bad_image_magic(tmp_path):
    ip, lp = _write_pair(tmp_path, image_magic=0x123)
    with pytest.raises(IdxFormatError):
        load_idx(ip, lp)


def test_idx_bad_label_magic(tmp_path):
    ip, lp = _write_pair(tmp_path, label_magic=0x123)
    with pytest.raises(IdxFormatError):
        load_idx(ip, lp)


def test_idx_truncated_pixels(tmp_path):
    ip, lp = _write_pair(tmp_path, truncate=3)
    with pytest.raises(IdxFormatError):
        load_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    ip, lp = _write_pair(tmp_path, n_images=3, n_labels=4)
    with pytest.raises(IdxCountMismatchError):
        load_idx(ip, lp)


def _corruptions(body, header):
    """`body` with each bit of its first `header` bytes flipped, cut at
    every length, and with one byte appended."""
    for i in range(header):
        for bit in range(8):
            yield body[:i] + bytes([body[i] ^ (1 << bit)]) + body[i + 1:]
    for length in range(len(body)):
        yield body[:length]
    yield body + b"\0"


def test_idx_rejects_every_header_flip_cut_and_extra_byte(tmp_path):
    n = 4
    rng = np.random.default_rng(12)
    images = (struct.pack(">iiii", 0x803, n, 28, 28)
              + rng.integers(0, 256, size=n * 28 * 28, dtype=np.uint8)
              .tobytes())
    labels = struct.pack(">ii", 0x801, n) + bytes([0, 1, 0, 1])
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    cases = ([(bad, labels) for bad in _corruptions(images, 16)]
             + [(images, bad) for bad in _corruptions(labels, 8)])
    assert len(cases) == 128 + len(images) + 1 + 64 + len(labels) + 1
    for image_bytes, label_bytes in cases:
        ip.write_bytes(image_bytes)
        lp.write_bytes(label_bytes)
        with pytest.raises((IdxFormatError, IdxCountMismatchError)):
            load_idx(str(ip), str(lp))
    ip.write_bytes(images)
    lp.write_bytes(labels)
    assert load_idx(str(ip), str(lp))[0].shape == (n, 1, 28, 28)


@pytest.mark.parametrize("fraction", [0.0, 0.001, 0.25, 0.5])
@pytest.mark.parametrize("source", ["synthetic", "idx-files", "npz"])
def test_val_split_size_counts_what_load_dataset_splits(tmp_path, source,
                                                        fraction):
    spec = DatasetSpec(classes=3, image_shape=(1, 4, 4), per_class=7, seed=4,
                       val_fraction=fraction)
    x, y = gen_synthetic_dataset(spec)
    if source == "idx-files":
        spec.images_path = str(tmp_path / "images.idx")
        spec.labels_path = str(tmp_path / "labels.idx")
        save_idx(x, y, spec.images_path, spec.labels_path)
    elif source == "npz":
        spec.images_path = str(tmp_path / "data.npz")
        np.savez(spec.images_path, x=x, y=y)
    spec.source = source
    assert val_split_size(spec) == len(load_dataset(spec)[1][1])


def test_val_split_size_reads_no_idx_image(tmp_path):
    """The count comes from the label header alone."""
    images, labels = str(tmp_path / "images.idx"), str(tmp_path / "labels.idx")
    save_idx(np.zeros((8, 1, 2, 2)), np.zeros(8, np.int64), images, labels)
    with open(images, "wb") as fh:
        fh.write(b"not an IDX file")
    spec = DatasetSpec(source="idx-files", classes=2, image_shape=(1, 2, 2),
                       images_path=images, labels_path=labels,
                       val_fraction=0.25)
    assert val_split_size(spec) == 2
    with pytest.raises(IdxFormatError):
        load_dataset(spec)
