import sys

import numpy as np
import pytest

from greenfl.errors import EmptyDataset, InvalidAlpha
from greenfl.partition import (
    ClientPartition,
    LabeledDatasetDescriptor,
    PartitionConfig,
    dirichlet_partition,
    largest_remainder_counts,
    validate_partition,
)

# Frozen from an independent re-derivation of the documented procedure
# (PCG64 via default_rng, per-class Gamma(1,1) draws normalized, contiguous
# blocks by largest-remainder rounding): 60k samples, 10 classes, 6 clients,
# alpha 1.0, seed 0.
FROZEN_CLASS_COUNTS = np.array(
    [
        [1046, 297, 1754, 488, 1604, 248, 2151, 695, 2048, 944],
        [1568, 333, 56, 2371, 382, 1437, 113, 1211, 496, 1156],
        [30, 1244, 826, 59, 414, 632, 1076, 392, 2841, 662],
        [4, 2674, 656, 215, 1709, 1004, 826, 1105, 97, 154],
        [846, 1451, 2434, 1637, 1592, 1232, 1394, 157, 251, 2469],
        [2506, 1, 274, 1230, 299, 1447, 440, 2440, 267, 615],
    ]
)


def block_labels(num_classes=10, per_class=6000):
    return LabeledDatasetDescriptor(
        num_samples=num_classes * per_class,
        num_classes=num_classes,
        labels=np.repeat(np.arange(num_classes), per_class),
    )


def oracle_class_counts(labels, num_classes, num_clients, alpha, seed):
    """Straightforward independent re-derivation of the sampling procedure."""
    rng = np.random.default_rng(seed)
    counts = np.zeros((num_clients, num_classes), dtype=int)
    for cls in range(num_classes):
        n = int(np.sum(labels == cls))
        g = rng.gamma(alpha, 1.0, num_clients)
        p = g / g.sum()
        exact = p * n
        c = np.floor(exact).astype(int)
        left = n - c.sum()
        order = np.argsort(-(exact - c), kind="stable")
        c[order[:left]] += 1
        counts[:, cls] = c
    return counts


def class_counts(dataset, partitions):
    counts = np.zeros((len(partitions), dataset.num_classes), dtype=int)
    for part in partitions:
        for cls in range(dataset.num_classes):
            counts[part.client_id, cls] = int(np.sum(dataset.labels[part.sample_indices] == cls))
    return counts


def test_single_client_gets_everything_in_order():
    dataset = block_labels(num_classes=3, per_class=5)
    parts = dirichlet_partition(dataset, PartitionConfig(1, 1.0, 0))
    assert len(parts) == 1
    np.testing.assert_array_equal(parts[0].sample_indices, np.arange(15))


def test_matches_frozen_independent_oracle():
    dataset = block_labels()
    parts = dirichlet_partition(dataset, PartitionConfig(6, 1.0, 0))
    counts = class_counts(dataset, parts)
    np.testing.assert_array_equal(counts, FROZEN_CLASS_COUNTS)
    np.testing.assert_array_equal(
        counts, oracle_class_counts(dataset.labels, 10, 6, 1.0, 0)
    )


def test_large_alpha_concentrates_at_uniform():
    dataset = block_labels(num_classes=5, per_class=1000)
    worst = 0.0
    for seed in range(20):
        parts = dirichlet_partition(dataset, PartitionConfig(4, 10_000.0, seed))
        counts = class_counts(dataset, parts)
        fractions = counts / counts.sum(axis=0, keepdims=True)
        worst = max(worst, float(np.abs(fractions - 0.25).max()))
    assert worst < 0.02


@pytest.mark.parametrize("alpha", [1e308, sys.float_info.max])
def test_overflowing_alpha_partitions_uniformly(alpha):
    # the Gamma draws are finite but their sum overflows: the alpha -> inf limit, uniform shares
    dataset = block_labels(num_classes=3, per_class=200)
    parts = dirichlet_partition(dataset, PartitionConfig(6, alpha, 0))
    assert validate_partition(dataset, parts).ok
    # 200 = 6 * 33 + 2: the two leftover samples of each class go to the lowest client ids
    expected = [[34] * 3] * 2 + [[33] * 3] * 4
    np.testing.assert_array_equal(class_counts(dataset, parts), expected)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("alpha", [0.1, 1.0, 50.0])
def test_disjoint_and_exhaustive(seed, alpha):
    dataset = block_labels(num_classes=7, per_class=311)
    parts = dirichlet_partition(dataset, PartitionConfig(5, alpha, seed))
    report = validate_partition(dataset, parts)
    assert report.ok
    assert sum(report.client_sample_counts) == dataset.num_samples


def test_same_seed_bit_identical_different_seeds_differ():
    dataset = block_labels(num_classes=4, per_class=500)
    cfg = PartitionConfig(4, 1.0, 42)
    a = dirichlet_partition(dataset, cfg)
    b = dirichlet_partition(dataset, cfg)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.sample_indices, pb.sample_indices)
    differing = 0
    for s1, s2 in [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15), (16, 17), (18, 19)]:
        x = dirichlet_partition(dataset, PartitionConfig(4, 1.0, s1))
        y = dirichlet_partition(dataset, PartitionConfig(4, 1.0, s2))
        if any(not np.array_equal(px.sample_indices, py.sample_indices) for px, py in zip(x, y)):
            differing += 1
    assert differing == 10


def test_largest_remainder_bound():
    dataset = block_labels(num_classes=6, per_class=997)
    cfg = PartitionConfig(5, 0.5, 3)
    parts = dirichlet_partition(dataset, cfg)
    # re-draw the proportions the implementation used
    rng = np.random.default_rng(cfg.seed)
    counts = class_counts(dataset, parts)
    for cls in range(6):
        g = rng.gamma(cfg.alpha, 1.0, cfg.num_clients)
        p = g / g.sum()
        assert np.all(np.abs(counts[:, cls] - p * 997) <= 1.0 + 1e-9)


def test_largest_remainder_counts_sum_and_bound(rng):
    for _ in range(50):
        k = int(rng.integers(1, 8))
        total = int(rng.integers(0, 500))
        p = rng.dirichlet(np.full(k, 0.7))
        counts = largest_remainder_counts(p, total)
        assert counts.sum() == total
        assert np.all(np.abs(counts - p * total) <= 1.0 + 1e-9)


def test_validator_flags_duplicate_index():
    dataset = block_labels(num_classes=2, per_class=5)
    parts = [
        ClientPartition(0, np.array([0, 1, 2, 3, 4])),
        ClientPartition(1, np.array([4, 5, 6, 7, 8, 9])),
    ]
    report = validate_partition(dataset, parts)
    assert not report.disjoint
    assert any("disjointness" in v for v in report.violations)


def test_validator_flags_missing_index():
    dataset = block_labels(num_classes=2, per_class=5)
    parts = [
        ClientPartition(0, np.array([0, 1, 2, 3])),
        ClientPartition(1, np.array([5, 6, 7, 8, 9])),
    ]
    report = validate_partition(dataset, parts)
    assert not report.exhaustive
    assert any("exhaustiveness" in v for v in report.violations)


def test_empty_dataset_rejected():
    dataset = LabeledDatasetDescriptor(0, 1, np.array([], dtype=np.int64))
    with pytest.raises(EmptyDataset):
        dirichlet_partition(dataset, PartitionConfig(1, 1.0, 0))


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_invalid_alpha_rejected(alpha):
    with pytest.raises(InvalidAlpha):
        dirichlet_partition(block_labels(2, 5), PartitionConfig(2, alpha, 0))
