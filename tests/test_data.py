"""Dataset ingestion: IDX parsing, synthetic data, batching."""
import struct

import numpy as np
import pytest

from parcnn import data
from parcnn.data import (Dataset, batch_indices, batches, load_mnist_idx,
                         make_synthetic, save_mnist_idx, find_mnist)
from parcnn.errors import DataFormatError


def ref_make_synthetic(classes, per_class, seed, image_size=28, separation=5.0,
                       noise=0.02):
    """``make_synthetic`` drawing image by image: the byte oracle of its
    block draws."""
    rng = np.random.default_rng(seed)
    n = classes * per_class
    center = (image_size - 1) / 2.0
    radius = 0.32 * image_size
    angles = 2 * np.pi * np.arange(classes) / classes
    centers = np.stack([center + radius * np.cos(angles),
                        center + radius * np.sin(angles)], axis=1)
    min_dist = 2 * radius * np.sin(np.pi / classes) if classes > 1 else radius
    sigma_jitter = min_dist / separation
    blob_width = image_size / 9.0
    ys, xs = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
    images = np.empty((n, 1, image_size, image_size), dtype=np.float32)
    labels = np.repeat(np.arange(classes), per_class)
    for i, label in enumerate(labels):
        cy, cx = centers[label] + rng.normal(0.0, sigma_jitter, size=2)
        img = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * blob_width ** 2))
        if noise:
            img = img + rng.normal(0.0, noise, size=img.shape)
        images[i, 0] = np.clip(img, 0.0, 1.0)
    images = np.round(images * 255.0).astype(np.float32) / 255.0
    order = rng.permutation(n)
    return Dataset(images[order], labels[order], classes=classes)


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

    @pytest.mark.parametrize("kwargs", [
        # kd-synthetic's training and test sets: four and two 2 MB blocks
        dict(classes=10, per_class=120, seed=100, separation=3.0, noise=0.03),
        dict(classes=10, per_class=50, seed=900, separation=3.0, noise=0.03),
        # train-res18's
        dict(classes=10, per_class=4, seed=1),
        dict(classes=3, per_class=40, seed=5, noise=0.0),
        dict(classes=1, per_class=30, seed=6),
        dict(classes=4, per_class=90, seed=7, image_size=48, noise=0.1)],
        ids=["kd-train", "kd-test", "res18", "noise0", "one-class", "48px"])
    @pytest.mark.parametrize("block_bytes", [None, 100 * 1024, 1],
                             ids=["2MB", "100KB", "one-image"])
    def test_block_draws_equal_image_by_image_draws(self, kwargs, block_bytes,
                                                    monkeypatch):
        if block_bytes is not None:
            monkeypatch.setattr(data, "_SYNTH_BLOCK_BYTES", block_bytes)
        ds, ref = make_synthetic(**kwargs), ref_make_synthetic(**kwargs)
        assert ds.images.tobytes() == ref.images.tobytes()
        assert ds.labels.tobytes() == ref.labels.tobytes()

    def test_negative_noise_rejected_before_drawing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew from the generator")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=r"^noise must be non-negative, got -0.01$"):
            make_synthetic(classes=2, per_class=5, seed=0, noise=-0.01)

    def test_peak_memory_bounded_by_one_block(self):
        import tracemalloc
        tracemalloc.start()
        try:
            ds = make_synthetic(classes=10, per_class=600, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the images are quantised in place, and the shuffle copies them
        # once; the draws add one block and its float64 temporaries (one
        # draw for all 6000 images peaks above 120 MB)
        bound = 2 * ds.images.nbytes + 4 * data._SYNTH_BLOCK_BYTES
        assert peak <= bound, f"{peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"

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
