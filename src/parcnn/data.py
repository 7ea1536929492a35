"""Dataset ingestion: IDX files, deterministic synthetic data, batching.

IDX layout (big-endian): images carry magic 0x00000803 followed by count,
rows, cols and raw uint8 pixels; labels carry magic 0x00000801 followed by
count and raw uint8 labels. Pixels are scaled by 1/255 on load. Files may
be gzip-compressed (``.gz`` suffix).
"""
from __future__ import annotations

import gzip
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

MNIST_TRAIN_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")
MNIST_TEST_FILES = ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")

# bytes of standard-normal draws per block of synthetic images: bounds the
# block's temporaries; the result does not depend on it
_SYNTH_BLOCK_BYTES = 2 * 1024 * 1024


@dataclass
class Dataset:
    """Images in [0, 1] shaped (N, 1, H, W) plus integer class labels."""

    images: np.ndarray
    labels: np.ndarray
    classes: int = 0

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise ValueError(f"image/label count mismatch: {len(self.images)} vs "
                             f"{len(self.labels)}")
        if self.classes == 0:
            self.classes = int(self.labels.max()) + 1 if len(self.labels) else 0
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= self.classes):
            raise ValueError("labels out of range for the declared class count")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, count: int) -> "Dataset":
        """The first ``count`` samples (all of them if there are fewer)."""
        if count < 0:
            raise ValueError(f"subset count must be non-negative, got {count}")
        return Dataset(self.images[:count], self.labels[:count], classes=self.classes)


def _open_maybe_gzip(path: Path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(f, count: int, path: Path) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise DataFormatError(f"{path}: truncated payload "
                              f"(wanted {count} bytes, got {len(data)})")
    return data


def load_mnist_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Load an IDX image/label file pair into a Dataset."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    for p in (images_path, labels_path):
        if not p.exists():
            raise DataFormatError(f"file not found: {p}")

    with _open_maybe_gzip(images_path) as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, images_path))
        if magic != IMAGES_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad magic 0x{magic:08x} (expected 0x{IMAGES_MAGIC:08x})")
        raw = _read_exact(f, count * rows * cols, images_path)
        if f.read(1):
            raise DataFormatError(f"{images_path}: trailing bytes after payload")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, 1, rows, cols)

    with _open_maybe_gzip(labels_path) as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, labels_path))
        if magic != LABELS_MAGIC:
            raise DataFormatError(
                f"{labels_path}: bad magic 0x{magic:08x} (expected 0x{LABELS_MAGIC:08x})")
        raw = _read_exact(f, label_count, labels_path)
        if f.read(1):
            raise DataFormatError(f"{labels_path}: trailing bytes after payload")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    if count != label_count:
        raise DataFormatError(f"image count {count} != label count {label_count}")
    return Dataset(pixels.astype(np.float32) / 255.0, labels)


def save_mnist_idx(dataset: Dataset, images_path: str | Path,
                   labels_path: str | Path) -> None:
    """Write a Dataset back to IDX; pixels are quantized to the uint8 grid."""
    images = np.round(dataset.images * 255.0).astype(np.uint8)
    n, _, rows, cols = dataset.images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGES_MAGIC, n, rows, cols))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABELS_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def find_mnist(data_dir: str | Path | None = None) -> dict[str, tuple[Path, Path]] | None:
    """Locate MNIST IDX files under ``data_dir`` or $MNIST_DIR.

    Returns {"train": (images, labels), "test": (images, labels)} or None.
    """
    root = Path(data_dir) if data_dir else \
        (Path(os.environ["MNIST_DIR"]) if os.environ.get("MNIST_DIR") else None)
    if root is None or not root.is_dir():
        return None

    def resolve(name: str) -> Path | None:
        for candidate in (root / name, root / (name + ".gz")):
            if candidate.exists():
                return candidate
        return None

    paths = [resolve(n) for n in MNIST_TRAIN_FILES + MNIST_TEST_FILES]
    if any(p is None for p in paths):
        return None
    return {"train": (paths[0], paths[1]), "test": (paths[2], paths[3])}


def make_synthetic(classes: int, per_class: int, seed: int,
                   image_size: int = 28, separation: float = 5.0,
                   noise: float = 0.02) -> Dataset:
    """Gaussian-blob images, one blob location per class.

    Class centers sit on a circle; each sample jitters its center by a
    Gaussian whose sigma is (adjacent-center distance) / separation, so
    larger ``separation`` means an easier problem. Pixels are quantized to
    the uint8 grid so IDX round trips are exact.

    Images are made in blocks of ``_SYNTH_BLOCK_BYTES`` of draws. Per image
    the generator stream holds two jitter draws, then H*W noise draws when
    ``noise`` is set; one (B, 2 + H*W) ``standard_normal`` draw per block
    reads it in the same order, and ``rng.normal(0.0, s)`` is ``0.0 + s*z``,
    so the bytes are those of drawing image by image.
    """
    if classes < 1 or per_class < 1:
        raise ValueError("classes and per_class must be positive")
    if image_size < 4:
        raise ValueError(f"image_size must be >= 4, got {image_size}")
    if separation <= 0:
        raise ValueError("separation must be positive")
    if noise < 0:
        # a scaled draw would flip the noise's sign rather than raise
        raise ValueError(f"noise must be non-negative, got {noise}")
    rng = np.random.default_rng(seed)
    n = classes * per_class
    center = (image_size - 1) / 2.0
    radius = 0.32 * image_size
    angles = 2 * np.pi * np.arange(classes) / classes
    centers = np.stack([center + radius * np.cos(angles),
                        center + radius * np.sin(angles)], axis=1)
    if classes > 1:
        min_dist = 2 * radius * np.sin(np.pi / classes)
    else:
        min_dist = radius
    sigma_jitter = min_dist / separation
    blob_width = image_size / 9.0

    ys, xs = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
    images = np.empty((n, 1, image_size, image_size), dtype=np.float32)
    labels = np.repeat(np.arange(classes), per_class)
    draws = 2 + (image_size * image_size if noise else 0)
    block = max(_SYNTH_BLOCK_BYTES // (8 * draws), 1)
    for start in range(0, n, block):
        z = rng.standard_normal((min(block, n - start), draws))
        jittered = centers[labels[start:start + len(z)]] + (sigma_jitter * z[:, :2] + 0.0)
        cy, cx = jittered.T[:, :, None, None]
        img = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * blob_width ** 2))
        if noise:
            img += (noise * z[:, 2:] + 0.0).reshape(img.shape)
        images[start:start + len(z), 0] = np.clip(img, 0.0, 1.0)
    images *= 255.0
    np.round(images, out=images)
    images /= 255.0
    order = rng.permutation(n)
    return Dataset(images[order], labels[order], classes=classes)


def batch_indices(n: int, batch_size: int, shuffle_seed: int | None = None):
    """Yield the sample indices of each minibatch over ``n`` samples; the
    final partial batch is kept.

    A given shuffle seed fixes the order; None keeps dataset order.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if shuffle_seed is None:
        order = np.arange(n)
    else:
        order = np.random.default_rng(shuffle_seed).permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def batches(dataset: Dataset, batch_size: int, shuffle_seed: int | None = None):
    """Yield (images, labels) minibatches in ``batch_indices`` order."""
    for idx in batch_indices(len(dataset), batch_size, shuffle_seed):
        yield dataset.images[idx], dataset.labels[idx]
