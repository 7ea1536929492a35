"""Dataset ingestion: IDX parsing, synthetic data, batching."""
import struct

import numpy as np
import pytest

from parcnn.data import (Dataset, batch_indices, batches, load_mnist_idx,
                         make_synthetic, save_mnist_idx, find_mnist)
from parcnn.errors import DataFormatError


def _write_idx_pair(tmp_path, images: np.ndarray, labels: np.ndarray,
                    images_magic=0x803, labels_magic=0x801, prefix=""):
    n, rows, cols = images.shape
    ip = tmp_path / f"{prefix}images-idx3-ubyte"
    lp = tmp_path / f"{prefix}labels-idx1-ubyte"
    with open(ip, "wb") as f:
        f.write(struct.pack(">IIII", images_magic, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(lp, "wb") as f:
        f.write(struct.pack(">II", labels_magic, len(labels)))
        f.write(labels.astype(np.uint8).tobytes())
    return ip, lp


class TestIdxLoader:
    def test_load_scales_and_shapes(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(6, 5, 4)).astype(np.uint8)
        labels = np.array([0, 1, 2, 0, 1, 2], np.uint8)
        ip, lp = _write_idx_pair(tmp_path, images, labels)
        ds = load_mnist_idx(ip, lp)
        assert ds.images.shape == (6, 1, 5, 4)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        np.testing.assert_allclose(ds.images[:, 0] * 255.0, images, atol=1e-4)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_first_label_matches_independent_byte_reader(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(4, 3, 3)).astype(np.uint8)
        labels = np.array([7, 1, 3, 2], np.uint8)
        ip, lp = _write_idx_pair(tmp_path, images, labels)
        # independent oracle: seek past the 8-byte header and read one byte
        raw = lp.read_bytes()
        magic, count = struct.unpack(">II", raw[:8])
        assert magic == 0x801 and count == 4
        first = raw[8]
        assert load_mnist_idx(ip, lp).labels[0] == first == 7

    def test_corrupted_magic_rejected(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(2, 3, 3)).astype(np.uint8)
        labels = np.array([1, 0], np.uint8)
        ip, lp = _write_idx_pair(tmp_path, images, labels, images_magic=0x807)
        with pytest.raises(DataFormatError, match="bad magic"):
            load_mnist_idx(ip, lp)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8)
        labels = np.array([0, 1, 2], np.uint8)
        ip, lp = _write_idx_pair(tmp_path, images, labels)
        ip.write_bytes(ip.read_bytes()[:-5])
        with pytest.raises(DataFormatError, match="truncated"):
            load_mnist_idx(ip, lp)

    def test_count_mismatch_rejected(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8)
        ip, _ = _write_idx_pair(tmp_path, images, np.array([0, 1, 2], np.uint8))
        _, lp = _write_idx_pair(tmp_path, images[:2], np.array([0, 1], np.uint8),
                                prefix="short-")
        with pytest.raises(DataFormatError, match="!= label count"):
            load_mnist_idx(ip, lp)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            load_mnist_idx(tmp_path / "nope", tmp_path / "also-nope")

    def test_round_trip_bit_identical(self, tmp_path):
        ds = make_synthetic(classes=3, per_class=5, seed=4, image_size=9)
        ip, lp = tmp_path / "i", tmp_path / "l"
        save_mnist_idx(ds, ip, lp)
        back = load_mnist_idx(ip, lp)
        assert back.images.tobytes() == ds.images.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()

    def test_gzip_transparent(self, tmp_path, rng):
        import gzip
        images = rng.integers(0, 256, size=(2, 3, 3)).astype(np.uint8)
        labels = np.array([1, 0], np.uint8)
        ip, lp = _write_idx_pair(tmp_path, images, labels)
        gz_ip = tmp_path / "images-idx3-ubyte.gz"
        gz_lp = tmp_path / "labels-idx1-ubyte.gz"
        gz_ip.write_bytes(gzip.compress(ip.read_bytes()))
        gz_lp.write_bytes(gzip.compress(lp.read_bytes()))
        ds = load_mnist_idx(gz_ip, gz_lp)
        np.testing.assert_array_equal(ds.labels, labels)


class TestSynthetic:
    def test_same_seed_identical(self):
        a = make_synthetic(classes=4, per_class=6, seed=9)
        b = make_synthetic(classes=4, per_class=6, seed=9)
        assert a.images.tobytes() == b.images.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_counts(self):
        ds = make_synthetic(classes=2, per_class=10, seed=0)
        assert len(ds) == 20
        assert sorted(np.bincount(ds.labels).tolist()) == [10, 10]

    def test_pixels_in_unit_interval(self):
        ds = make_synthetic(classes=3, per_class=4, seed=1)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic(classes=0, per_class=5, seed=0)
        with pytest.raises(ValueError):
            make_synthetic(classes=2, per_class=0, seed=0)
        with pytest.raises(ValueError, match=r"^image_size must be >= 4, got 3$"):
            make_synthetic(classes=2, per_class=5, seed=0, image_size=3)
        assert make_synthetic(classes=2, per_class=5, seed=0,
                              image_size=4).images.shape == (10, 1, 4, 4)

    def test_linear_classifier_separates_well_separated_blobs(self):
        # independent oracle: one-vs-all least squares on raw pixels
        train = make_synthetic(classes=4, per_class=50, seed=3, separation=5.0)
        test = make_synthetic(classes=4, per_class=25, seed=30, separation=5.0)
        x = train.images.reshape(len(train), -1)
        onehot = np.eye(4, dtype=np.float64)[train.labels]
        x1 = np.hstack([x, np.ones((len(train), 1), np.float32)])
        coef, *_ = np.linalg.lstsq(x1.astype(np.float64), onehot, rcond=None)
        xt = np.hstack([test.images.reshape(len(test), -1),
                        np.ones((len(test), 1), np.float32)])
        pred = (xt.astype(np.float64) @ coef).argmax(axis=1)
        accuracy = (pred == test.labels).mean()
        assert accuracy >= 0.95


class TestBatches:
    def test_sizes_with_partial_final_batch(self):
        ds = make_synthetic(classes=4, per_class=25, seed=0, image_size=6)
        sizes = [len(labels) for _, labels in batches(ds, 64, shuffle_seed=1)]
        assert sizes == [64, 36]

    def test_same_seed_same_order(self):
        ds = make_synthetic(classes=4, per_class=10, seed=0, image_size=6)
        first = [labels.tolist() for _, labels in batches(ds, 16, shuffle_seed=5)]
        second = [labels.tolist() for _, labels in batches(ds, 16, shuffle_seed=5)]
        assert first == second

    def test_each_sample_emitted_exactly_once(self, rng):
        ds = make_synthetic(classes=3, per_class=17, seed=2, image_size=6)
        marks = np.zeros(len(ds), np.int64)
        for images, labels in batches(ds, 8, shuffle_seed=3):
            for img in images:
                # identify the source sample by exact pixel match
                hits = np.where((ds.images == img).all(axis=(1, 2, 3)))[0]
                assert len(hits) >= 1
                marks[hits[0]] += 1
        assert marks.sum() == len(ds)

    @pytest.mark.parametrize("shuffle_seed", [None, 3])
    def test_batches_follow_batch_indices(self, shuffle_seed):
        ds = make_synthetic(classes=3, per_class=7, seed=2, image_size=6)
        pairs = zip(batch_indices(len(ds), 8, shuffle_seed),
                    batches(ds, 8, shuffle_seed=shuffle_seed), strict=True)
        for idx, (images, labels) in pairs:
            np.testing.assert_array_equal(images, ds.images[idx])
            np.testing.assert_array_equal(labels, ds.labels[idx])

    def test_invalid_batch_size_rejected(self):
        ds = make_synthetic(classes=2, per_class=3, seed=0, image_size=6)
        with pytest.raises(ValueError, match="batch_size"):
            list(batches(ds, 0))

    def test_dataset_invariants(self):
        with pytest.raises(ValueError, match="count mismatch"):
            Dataset(np.zeros((3, 1, 4, 4), np.float32), np.zeros(2, np.int64))
        with pytest.raises(ValueError, match="out of range"):
            Dataset(np.zeros((2, 1, 4, 4), np.float32),
                    np.array([0, 5]), classes=3)

    def test_subset_takes_the_first_samples(self):
        ds = make_synthetic(classes=2, per_class=3, seed=0, image_size=6)
        assert ds.subset(4).labels.tolist() == ds.labels[:4].tolist()
        assert len(ds.subset(0)) == 0 and len(ds.subset(100)) == 6
        # a negative count would slice from the end and silently drop samples
        with pytest.raises(ValueError, match="non-negative, got -1"):
            ds.subset(-1)


class TestFindMnist:
    def test_returns_none_when_absent(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MNIST_DIR", raising=False)
        assert find_mnist(tmp_path) is None
        assert find_mnist(None) is None

    def test_finds_standard_names(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(2, 3, 3)).astype(np.uint8)
        labels = np.array([0, 1], np.uint8)
        for img_name, lab_name in (("train-images-idx3-ubyte",
                                    "train-labels-idx1-ubyte"),
                                   ("t10k-images-idx3-ubyte",
                                    "t10k-labels-idx1-ubyte")):
            ip, lp = _write_idx_pair(tmp_path, images, labels)
            ip.rename(tmp_path / img_name)
            lp.rename(tmp_path / lab_name)
        found = find_mnist(tmp_path)
        assert found is not None
        assert found["train"][0].name == "train-images-idx3-ubyte"

    def test_mnist_dir_environment_variable(self, tmp_path, rng, monkeypatch):
        images = rng.integers(0, 256, size=(2, 3, 3)).astype(np.uint8)
        labels = np.array([0, 1], np.uint8)
        for img_name, lab_name in (("train-images-idx3-ubyte",
                                    "train-labels-idx1-ubyte"),
                                   ("t10k-images-idx3-ubyte",
                                    "t10k-labels-idx1-ubyte")):
            ip, lp = _write_idx_pair(tmp_path, images, labels, prefix="t-")
            ip.rename(tmp_path / img_name)
            lp.rename(tmp_path / lab_name)
        monkeypatch.setenv("MNIST_DIR", str(tmp_path))
        assert find_mnist(None) is not None
