import contextlib
import dataclasses
import itertools
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenfl import orchestrator, workload
from greenfl.config import build_dataset, build_shards, bundled_config_path, load_config
from greenfl.errors import Diverged, EmptyClientData, WorkerFailed
from greenfl.orchestrator import fedavg_aggregate, run_job
from greenfl.workload import (
    ModelParams,
    SyntheticDataset,
    TrainConfig,
    _client_groups,
    batches,
    evaluate,
    local_train,
    make_blobs,
    steps_per_round,
    train_clients,
    update_payload_bytes,
)

from conftest import fail_in_the_worker, run_python


def softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def loss_and_grad(params, features, labels):
    """Mean softmax cross-entropy and its analytic gradient, one sample per row."""
    n = features.shape[0]
    probs = softmax(features @ params.weights.T + params.bias)
    loss = -np.mean(np.log(probs[np.arange(n), labels] + 1e-300))
    probs[np.arange(n), labels] -= 1.0
    grad_w = probs.T @ features / n
    grad_b = probs.mean(axis=0)
    return loss, grad_w, grad_b


def reference_local_train(params, data, cfg):
    """One client's SGD, one `loss_and_grad` step per batch: the reference
    the lockstep stepper is checked against."""
    rng = np.random.default_rng(cfg.seed)
    weights = params.weights.copy()
    bias = params.bias.copy()
    n = data.num_samples
    steps = 0
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            _, grad_w, grad_b = loss_and_grad(ModelParams(weights, bias), data.features[batch], data.labels[batch])
            weights -= cfg.learning_rate * grad_w
            bias -= cfg.learning_rate * grad_b
            steps += 1
    return ModelParams(weights, bias), steps


def tiny_blobs(seed=0):
    return make_blobs(num_classes=3, num_features=8, samples_per_class=40, separation=6.0, seed=seed)


def finite_difference_grad(params, features, labels, eps=1e-5):
    grad_w = np.zeros_like(params.weights)
    grad_b = np.zeros_like(params.bias)

    def loss_at(w, b):
        return loss_and_grad(ModelParams(w, b), features, labels)[0]

    for idx in np.ndindex(params.weights.shape):
        w = params.weights.copy()
        w[idx] += eps
        up = loss_at(w, params.bias)
        w[idx] -= 2 * eps
        down = loss_at(w, params.bias)
        grad_w[idx] = (up - down) / (2 * eps)
    for i in range(params.bias.size):
        b = params.bias.copy()
        b[i] += eps
        up = loss_at(params.weights, b)
        b[i] -= 2 * eps
        down = loss_at(params.weights, b)
        grad_b[i] = (up - down) / (2 * eps)
    return grad_w, grad_b


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_analytic_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(7, 5))
    labels = rng.integers(0, 4, size=7)
    params = ModelParams(rng.normal(size=(4, 5)) * 0.3, rng.normal(size=4) * 0.3)
    _, grad_w, grad_b = loss_and_grad(params, features, labels)
    fd_w, fd_b = finite_difference_grad(params, features, labels)
    scale = max(np.abs(fd_w).max(), np.abs(fd_b).max())
    assert np.abs(grad_w - fd_w).max() / scale < 1e-4
    assert np.abs(grad_b - fd_b).max() / scale < 1e-4


def test_zero_learning_rate_leaves_params_bitwise_unchanged():
    data = tiny_blobs()
    params = ModelParams.zeros(3, 8)
    trained, steps = local_train(params, data, TrainConfig(local_epochs=2, batch_size=16, learning_rate=0.0))
    assert steps == 2 * -(-data.num_samples // 16)
    np.testing.assert_array_equal(trained.weights, params.weights)
    np.testing.assert_array_equal(trained.bias, params.bias)


def test_single_step_applies_gradient_exactly():
    rng = np.random.default_rng(5)
    data = SyntheticDataset.of(rng.normal(size=(1, 4)), np.array([1]), 3)
    params = ModelParams(rng.normal(size=(3, 4)), rng.normal(size=3))
    lr = 0.2
    _, grad_w, grad_b = loss_and_grad(params, data.features, data.labels)
    trained, steps = local_train(params, data, TrainConfig(local_epochs=1, batch_size=1, learning_rate=lr))
    assert steps == 1
    np.testing.assert_allclose(trained.weights, params.weights - lr * grad_w, rtol=1e-12)
    np.testing.assert_allclose(trained.bias, params.bias - lr * grad_b, rtol=1e-12)


def test_separable_classes_reach_high_training_accuracy():
    data = make_blobs(num_classes=2, num_features=10, samples_per_class=200, separation=8.0, seed=1)
    params = ModelParams.zeros(2, 10)
    trained, _ = local_train(params, data, TrainConfig(local_epochs=5, batch_size=40, learning_rate=0.2))
    assert evaluate(trained, data) >= 0.99


def test_evaluate_perfect_prototype_classifier():
    # weights equal to class means -> nearest-mean behaviour on noiseless points
    means = np.eye(4, 12) * 9.0
    data = SyntheticDataset.of(means, np.arange(4), 4)
    params = ModelParams(means, np.zeros(4))
    assert evaluate(params, data) == 1.0


def test_evaluate_random_params_near_chance():
    accs = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(2000, 6))
        labels = rng.integers(0, 10, size=2000)
        params = ModelParams(rng.normal(size=(10, 6)), rng.normal(size=10))
        accs.append(evaluate(params, SyntheticDataset.of(features, labels, 10)))
    assert np.mean(accs) == pytest.approx(0.1, abs=0.05)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), num_classes=st.integers(2, 12))
def test_evaluate_predicts_as_the_two_temporary_expression(dtype, seed, n, num_classes):
    # the bias is added in place on the matmul result: the same fl(z) + b
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 9)).astype(dtype)
    params = ModelParams(rng.normal(size=(num_classes, 9)).astype(dtype), rng.normal(size=num_classes).astype(dtype))
    predictions = np.argmax(features @ params.weights.T + params.bias, axis=1)
    # labelled with the old predictions, the accuracy is 1 only if every prediction agrees
    assert evaluate(params, SyntheticDataset.of(features, predictions, num_classes)) == 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_evaluate_on_the_design_view_matches_a_contiguous_copy(dtype):
    # `features` is a view with a row stride of F + 1 values; the logits of
    # every row must be those of the same rows stored contiguously
    blobs = make_blobs(num_classes=5, num_features=11, samples_per_class=60, separation=1.5, seed=7)
    data = SyntheticDataset.of(blobs.features.astype(dtype), blobs.labels, blobs.num_classes)
    assert not data.features.flags.c_contiguous
    rng = np.random.default_rng(8)
    params = ModelParams(rng.normal(size=(5, 11)).astype(dtype), rng.normal(size=5).astype(dtype))
    logits = np.ascontiguousarray(data.features) @ params.weights.T
    logits += params.bias
    predictions = np.argmax(logits, axis=1)
    assert evaluate(params, data) == float(np.mean(predictions == data.labels))
    # labelled with the contiguous predictions, the accuracy is 1 only if every prediction agrees
    assert evaluate(params, SyntheticDataset(data.design, predictions, data.num_classes)) == 1.0


def test_evaluate_peak_is_within_the_logits_rule():
    # one `evaluate` holds one block of rows: its logits, its predictions
    # (intp) and their comparison with the labels (bool), together at most
    # EVAL_BYTES however many samples x classes the dataset has.  Each shape
    # holds 8 to 12 MB of whole-dataset logits
    rng = np.random.default_rng(0)
    for classes, samples, features in [(1000, 2000, 10), (10**4, 200, 3), (10, 300_000, 2)]:
        x = rng.standard_normal((samples, features)).astype(np.float32)
        data = SyntheticDataset.of(x, np.arange(samples) % classes, classes)
        params = ModelParams(
            rng.standard_normal((classes, features)).astype(np.float32), np.zeros(classes, np.float32)
        )
        tracemalloc.start()
        try:
            evaluate(params, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 64 KiB for Python objects
        assert peak <= workload.EVAL_BYTES + (1 << 16), (classes, samples, peak)


# (features, model) dtypes: each alone, and a float64 model on float32 data
EVAL_DTYPES = [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    num_classes=st.integers(2, 12),
    num_features=st.integers(1, 9),
    rows=st.integers(1, 40),
    dtypes=st.sampled_from(EVAL_DTYPES),
)
def test_evaluate_in_blocks_counts_as_the_whole_array(seed, n, num_classes, num_features, rows, dtypes):
    # EVAL_BYTES holds `rows` rows, so most datasets take several blocks and
    # a ragged last one
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, num_features)).astype(dtypes[0])
    w = rng.normal(size=(num_classes, num_features)).astype(dtypes[1])
    b = rng.normal(size=num_classes).astype(dtypes[1])
    predictions = np.argmax(features @ w.T + b, axis=1)
    # most labels are the predictions, so a prediction that differs shows
    labels = np.where(rng.random(n) < 0.7, predictions, rng.integers(0, num_classes, n))
    itemsize = np.result_type(dtypes[0], dtypes[1]).itemsize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "EVAL_BYTES", rows * (num_classes * itemsize + 9))
        got = evaluate(ModelParams(w, b), SyntheticDataset.of(features, labels, num_classes))
    # a Python float: numpy's scalars print otherwise
    assert type(got) is float and got == float(np.mean(predictions == labels))


def test_a_float64_model_evaluates_float32_data_in_float64():
    # the classes' logits differ by 1e-12, which a float32 block rounds to a
    # tie that the first class wins
    data = SyntheticDataset.of(np.ones((5, 1), np.float32), np.ones(5, np.intp), 2)
    assert evaluate(ModelParams(np.array([[1.0], [1.0 + 1e-12]]), np.zeros(2)), data) == 1.0


def test_make_blobs_holds_its_features_in_the_design_matrix():
    data = make_blobs(num_classes=3, num_features=5, samples_per_class=7, seed=2)
    design = data.design
    assert design.shape == (21, 6) and design.dtype == np.float32 and design.flags.c_contiguous
    assert np.shares_memory(data.features, design)
    np.testing.assert_array_equal(design[:, :5], data.features)
    assert np.all(design[:, 5] == 1.0)


def test_make_blobs_peak_memory_is_one_copy_of_the_features():
    # cifar shape: a second copy of the float32 features would add 21.6 MB
    num_classes, num_features, samples_per_class = 10, 90, 6000
    make_blobs(2, 3, 4)  # first-call imports and caches stay out of the trace
    tracemalloc.start()
    try:
        data = make_blobs(num_classes, num_features, samples_per_class, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk of the float64 draw, not a class block; the labels, the
    # class means and small temporaries fit in the slack
    assert peak <= data.design.nbytes + workload.DRAW_BYTES + data.labels.nbytes + (1 << 17), peak


@settings(max_examples=100, deadline=None)
@given(
    num_classes=st.integers(1, 4),
    num_features=st.integers(1, 40),
    samples_per_class=st.integers(1, 30),
    draw_bytes=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_make_blobs_chunked_draw_is_the_whole_block_draw(num_classes, num_features, samples_per_class, draw_bytes, seed):
    # chunks of whole rows, of part of a row, and chunks that end mid-block
    args = num_classes, num_features, samples_per_class, 4.0, seed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "DRAW_BYTES", 1 << 40)
        whole = make_blobs(*args)
        mp.setattr(workload, "DRAW_BYTES", draw_bytes)
        chunked = make_blobs(*args)
    assert chunked.design.tobytes() == whole.design.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dataset_copies_a_callers_array_once(dtype):
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 3, 9)
    bare = rng.normal(size=(9, 4)).astype(dtype)
    # a [:, :F] view is copied whatever its last column holds, ones included
    wide = rng.normal(size=(9, 5)).astype(dtype)
    ones = np.ones((9, 5), dtype)
    for features in (bare, wide[:, :4], ones[:, :4]):
        before = features.copy()
        data = SyntheticDataset.of(features, labels, 3)
        assert not np.shares_memory(data.design, features)
        assert data.design.dtype == dtype and data.design.flags.c_contiguous
        np.testing.assert_array_equal(data.features, before)
        np.testing.assert_array_equal(data.design[:, 4], np.ones(9, dtype))
        np.testing.assert_array_equal(features, before)
    # the features of a dataset are kept: another labelling shares its matrix
    relabelled = SyntheticDataset(data.design, labels[::-1].copy(), 3)
    assert relabelled.design is data.design


def with_one_last_entry_not_one(design):
    design = design.copy()
    design[5, -1] = 0.5
    return design


NOT_DESIGN_MATRICES = {
    "bare": lambda design: design[:, :-1].copy(),
    "strided_rows": lambda design: np.repeat(design, 2, axis=0)[::2],
    "column_major": np.asfortranarray,
    "last_column_not_1": with_one_last_entry_not_one,
    "one_dimensional": lambda design: design[:, -1].copy(),
    "no_columns": lambda design: design[:, :0].copy(),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", NOT_DESIGN_MATRICES)
def test_dataset_takes_only_a_contiguous_design_matrix(kind, dtype):
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, 8)
    design = SyntheticDataset.of(rng.normal(size=(8, 4)).astype(dtype), labels, 3).design
    assert SyntheticDataset(design, labels, 3).num_features == 4
    with pytest.raises(ValueError, match="design must be a C-contiguous"):
        SyntheticDataset(NOT_DESIGN_MATRICES[kind](design), labels, 3)


def test_empty_data_rejected():
    empty = SyntheticDataset.of(np.empty((0, 3)), np.empty(0, dtype=np.int64), 2)
    with pytest.raises(EmptyClientData):
        evaluate(ModelParams.zeros(2, 3), empty)
    with pytest.raises(EmptyClientData):
        local_train(ModelParams.zeros(2, 3), empty, TrainConfig())
    with pytest.raises(EmptyClientData):
        train_clients(ModelParams.zeros(3, 8), tiny_blobs(), [np.arange(10), np.arange(0)], TrainConfig(), [0, 1])


def test_payload_bytes_counts_32bit_values():
    assert update_payload_bytes(10, 90) == (900 + 10) * 4
    assert update_payload_bytes(1, 1) == 8


def test_steps_per_round_formula():
    cfg = TrainConfig(local_epochs=10, batch_size=600)
    assert steps_per_round(10_000, cfg) == 10 * 17
    assert steps_per_round(600, cfg) == 10


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 10**8),
    local_epochs=st.integers(0, 1000),
    batch_size=st.one_of(st.integers(1, 10**9), st.integers(1, 2**1100)),
)
def test_steps_per_round_counts_the_batches_of_range(n, local_epochs, batch_size):
    # a batch_size beyond the float range is still one batch per epoch
    cfg = TrainConfig(local_epochs=local_epochs, batch_size=batch_size)
    assert steps_per_round(n, cfg) == cfg.local_epochs * len(range(0, n, cfg.batch_size))


def test_training_is_deterministic_for_fixed_seed():
    data = tiny_blobs()
    cfg = TrainConfig(local_epochs=3, batch_size=16, learning_rate=0.1, seed=99)
    a, _ = local_train(ModelParams.zeros(3, 8), data, cfg)
    b, _ = local_train(ModelParams.zeros(3, 8), data, cfg)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.bias, b.bias)


def test_mean_loss_does_not_increase_on_separable_data():
    improved = 0
    for seed in range(10):
        data = make_blobs(num_classes=3, num_features=6, samples_per_class=80, separation=7.0, seed=seed)
        params = ModelParams.zeros(3, 6)
        before = loss_and_grad(params, data.features, data.labels)[0]
        trained, _ = local_train(
            params, data, TrainConfig(local_epochs=1, batch_size=40, learning_rate=0.05, seed=seed)
        )
        after = loss_and_grad(trained, data.features, data.labels)[0]
        if after <= before:
            improved += 1
    assert improved == 10


@st.composite
def client_sets(draw):
    """Shard sizes, a train config and a seed for 1-6 clients, including
    shards smaller than the batch, batch_size=1, no epochs and lr=0."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    cfg = TrainConfig(
        local_epochs=draw(st.integers(0, 3)),
        batch_size=draw(st.sampled_from([1, 2, 3, 7, 16, 50])),
        learning_rate=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
    )
    return sizes, cfg, draw(st.integers(0, 2**32 - 1))


# float64 against the float64 reference: the two sum in different orders, so
# a weight that SGD drives near zero can differ by more than 1e-12 of itself
# while the error stays at the roundoff of the parameter scale.
FLOAT64_TOLERANCE = 1e-12


def random_clients(sizes, seed, dtype, num_classes=3, num_features=5):
    """A dataset, its shards, the client seeds and start params for `sizes`."""
    rng = np.random.default_rng(seed)
    dataset = SyntheticDataset.of(
        rng.normal(size=(sum(sizes), num_features)).astype(dtype), rng.integers(0, num_classes, sum(sizes)), num_classes
    )
    shards = np.split(rng.permutation(sum(sizes)), np.cumsum(sizes)[:-1])
    seeds = [int(s) for s in rng.integers(0, 2**32, len(sizes))]
    params = ModelParams(
        rng.normal(size=(num_classes, num_features)).astype(dtype), rng.normal(size=num_classes).astype(dtype)
    )
    return dataset, shards, seeds, params


# CLASS_MAJOR_WORK values that step every drawn shape (at most 40 lanes x 5
# features x 3 classes) feature-major, then class-major
LAYOUTS = (0, 1 << 30)


@contextlib.contextmanager
def layout(class_major_work):
    """Within the block, θ is class-major below `class_major_work` step work."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "CLASS_MAJOR_WORK", class_major_work)
        yield


# GATHER_BYTES values that gather one step per `take`; a few steps, so a
# run's last chunk is often shorter than the others; and a whole prefix run
GATHERS = (0, 1000, 1 << 30)


@contextlib.contextmanager
def gather(gather_bytes):
    """Within the block, a `take` gathers up to `gather_bytes` of batches, and at least one step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "GATHER_BYTES", gather_bytes)
        yield


# (CLASS_MAJOR_WORK, GATHER_BYTES) settings: each layout with each gather
STEPPINGS = list(itertools.product(LAYOUTS, GATHERS))


@contextlib.contextmanager
def stepping(class_major_work, gather_bytes):
    """Within the block, the θ layout and the gather of one of `STEPPINGS`."""
    with layout(class_major_work), gather(gather_bytes):
        yield


def assert_matches_reference(sizes, cfg, seed):
    dataset, shards, seeds, params = random_clients(sizes, seed, np.float64)

    trained = train_clients(params, dataset, shards, cfg, seeds)

    for shard, client_seed, got in zip(shards, seeds, trained):
        client_cfg = TrainConfig(cfg.local_epochs, cfg.batch_size, cfg.learning_rate, client_seed)
        client_data = SyntheticDataset.of(dataset.features[shard], dataset.labels[shard], dataset.num_classes)
        want, _ = reference_local_train(params, client_data, client_cfg)
        atol = FLOAT64_TOLERANCE * max(1.0, np.abs(want.weights).max(), np.abs(want.bias).max())
        np.testing.assert_allclose(got.weights, want.weights, rtol=1e-12, atol=atol)
        np.testing.assert_allclose(got.bias, want.bias, rtol=1e-12, atol=atol)


@settings(max_examples=200, deadline=None)
@given(client_sets())
# a weight near zero that differed by 2.6e-17 (1.4e-12 relative) on a scale of 1.9
@example(([1, 12], TrainConfig(local_epochs=3, batch_size=2, learning_rate=1.0), 172386))
def test_lockstep_stepper_matches_per_client_reference(case):
    for setting in STEPPINGS:
        with stepping(*setting):
            assert_matches_reference(*case)


def at_least_one_batch(case):
    """`case` with every shard raised to at least `batch_size` samples, so
    the lane width is `batch_size` however the clients are grouped."""
    sizes, cfg, seed = case
    return [max(n, cfg.batch_size) for n in sizes], cfg, seed


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=100, deadline=None)
@given(case=client_sets().map(at_least_one_batch))
def test_lockstep_grouping_does_not_change_bits(dtype, case):
    # the epoch-synchronous schedule relies on this: a client's arithmetic
    # is the same whichever clients step beside it
    sizes, cfg, seed = case
    dataset, shards, seeds, params = random_clients(sizes, seed, dtype)
    for setting in STEPPINGS:
        with stepping(*setting):
            together = train_clients(params, dataset, shards, cfg, seeds)
            for shard, client_seed, got in zip(shards, seeds, together):
                (alone,) = train_clients(params, dataset, [shard], cfg, [client_seed])
                assert np.array_equal(got.weights, alone.weights)
                assert np.array_equal(got.bias, alone.bias)


@contextlib.contextmanager
def groups_on(cores):
    """Within the block, clients split into up to `cores` groups, however small their step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "MIN_GROUP_WORK", 1)
        mp.setattr(workload, "_usable_cores", lambda: cores)
        yield


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=100, deadline=None)
@given(case=client_sets(), cores=st.integers(2, 4))
def test_worker_groups_match_one_group(dtype, case, cores):
    # shards narrower than the batch included: every group steps at the
    # lane width of the whole call, and a worker's θ comes back bit for bit
    sizes, cfg, seed = case
    dataset, shards, seeds, params = random_clients(sizes, seed, dtype)
    for work, chunk in itertools.product(LAYOUTS, GATHERS):
        with layout(work), gather(chunk):
            with groups_on(1):
                want = train_clients(params, dataset, shards, cfg, seeds)
            with groups_on(cores):
                got = train_clients(params, dataset, shards, cfg, seeds)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g.weights, w.weights)
            assert np.array_equal(g.bias, w.bias)


@pytest.mark.parametrize("cores", [1, 2])
def test_lockstep_takes_each_group_largest_shard_first(cores):
    # `_client_groups` is the one place that orders the clients; `_lockstep`
    # takes them as given, and the clients still stepping form a prefix only
    # if they come largest shard first.  The shards come smallest first, and
    # each holds at least one batch, so every call steps at the batch width.
    # A spy sees the calling process's group only: the others train in workers
    sizes = [3, 4, 7, 11, 18]
    cfg = TrainConfig(local_epochs=2, batch_size=3, learning_rate=0.3)
    dataset, shards, seeds, params = random_clients(sizes, 5, np.float64)
    with groups_on(cores):
        groups = _client_groups(sizes, 3 * dataset.num_features * dataset.num_classes, cores)
    assert len(groups) == cores
    for group in groups:
        lengths = [sizes[c] for c in group]
        assert lengths == sorted(lengths, reverse=True), groups
    lockstep = workload._lockstep
    received = []

    def spy(params, dataset, shards, *args):
        received.append([len(shard) for shard in shards])
        return lockstep(params, dataset, shards, *args)

    with groups_on(cores), pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "_lockstep", spy)
        got = train_clients(params, dataset, shards, cfg, seeds)
    assert received == [[sizes[c] for c in groups[0]]]
    with groups_on(1):
        want = train_clients(params, dataset, shards, cfg, seeds)
    for shard, seed, g, w in zip(shards, seeds, got, want, strict=True):
        (alone,) = train_clients(params, dataset, [shard], cfg, [seed])
        for trained in (g, w):
            assert np.array_equal(trained.weights, alone.weights)
            assert np.array_equal(trained.bias, alone.bias)


def test_divergence_in_a_worker_process_is_raised():
    # the calling process trains the group with the largest shard; only the
    # small shard, trained in the worker, overflows
    rng = np.random.default_rng(4)
    features = rng.normal(size=(60, 4)).astype(np.float32)
    features[:5] = 3e38
    data = SyntheticDataset.of(features, rng.integers(0, 3, 60), 3)
    cfg = TrainConfig(local_epochs=2, batch_size=7, learning_rate=0.05)
    shards = [np.arange(5), np.arange(5, 60)]
    params = ModelParams.zeros(3, 4, np.float32)
    with groups_on(2):
        assert _client_groups([5, 55], 7 * 4 * 3, 2) == [[1], [0]]
        with pytest.raises(Diverged, match="model parameters must be finite"):
            train_clients(params, data, shards, cfg, [0, 1])
    (alone,) = train_clients(params, data, shards[1:], cfg, [1])
    assert np.all(np.isfinite(alone.weights))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


WORKER_FAILURES = [
    ("raise", "a client group's worker failed: MemoryError: no room for the epoch tables"),
    ("exit", "a client group's worker exited before its reply"),
]


@pytest.mark.parametrize("how, message", WORKER_FAILURES)
def test_a_failed_worker_raises_worker_failed(how, message):
    dataset, shards, seeds, params = random_clients([6, 9], 2, np.float32)
    with groups_on(2), pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "_lockstep", fail_in_the_worker(how))
        with pytest.raises(WorkerFailed, match=f"^{message}$"):
            train_clients(params, dataset, shards, TrainConfig(local_epochs=1, batch_size=4), seeds)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "serve",
    [
        # the caller's send may meet a closed connection or land before the
        # worker exits; either way the caller finds the worker gone
        pytest.param(lambda self, g, *ends: 0, id="at_once"),
        # exits with the request unread, so the caller's read meets a reset connection
        pytest.param(lambda self, g, conn: conn.poll(None) and 0, id="request_unread"),
    ],
)
def test_a_worker_gone_before_its_first_request_raises_worker_failed(serve):
    dataset, shards, seeds, params = random_clients([6, 9], 2, np.float32)
    with groups_on(2), pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload.ClientGroups, "_serve", serve)
        with pytest.raises(WorkerFailed, match="^a client group's worker exited before its reply$"):
            train_clients(params, dataset, shards, TrainConfig(local_epochs=1, batch_size=4), seeds)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def keep_aggregates(mp):
    """Patch `run_job`'s aggregation, within `mp`, to keep each round's
    aggregate in the list returned."""
    aggregates = []

    def keep(updates):
        aggregates.append(fedavg_aggregate(updates))
        return aggregates[-1]

    mp.setattr(orchestrator, "fedavg_aggregate", keep)
    return aggregates


@settings(max_examples=12, deadline=None)
@given(case=client_sets(), cores=st.integers(1, 4), num_rounds=st.integers(1, 5))
def test_run_job_accuracies_are_each_rounds_evaluation(case, cores, num_rounds):
    # with k groups, each process evaluates every k-th round's aggregate, and
    # a worker's floats come back over its connection with the caller's
    # bits.  Few examples: each forks
    sizes, cfg, seed = case
    dataset, shards, _, _ = random_clients(sizes, seed, np.float32)
    with groups_on(cores), pytest.MonkeyPatch.context() as mp:
        aggregates = keep_aggregates(mp)
        accuracies, _ = run_job(num_rounds, cfg, dataset, shards)
    want = [evaluate(params, dataset) for params in aggregates]
    assert np.array(accuracies).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("cores", [2, 3])
def test_each_rounds_evaluation_comes_back_in_round_order(cores):
    # an evaluation that names its aggregate, so any mix-up of rounds
    # between the processes shows
    dataset, shards, _, _ = random_clients([9, 14, 6, 11], 3, np.float64)
    cfg = TrainConfig(local_epochs=1, batch_size=4, learning_rate=0.3)
    with groups_on(cores), pytest.MonkeyPatch.context() as mp:
        aggregates = keep_aggregates(mp)
        mp.setattr(workload, "evaluate", lambda params, data: float(params.bias[0]))
        accuracies, _ = run_job(7, cfg, dataset, shards)
    assert accuracies == [float(params.bias[0]) for params in aggregates]
    assert len(set(accuracies)) == 7


@pytest.mark.parametrize("how, message", WORKER_FAILURES)
def test_a_worker_that_fails_evaluating_raises_worker_failed(how, message):
    # two groups: the worker evaluates the second round of each pair
    dataset, shards, _, _ = random_clients([6, 9], 2, np.float32)
    with groups_on(2), pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "evaluate", fail_in_the_worker(how, "evaluate"))
        with pytest.raises(WorkerFailed, match=f"^{message}$"):
            run_job(3, TrainConfig(local_epochs=1, batch_size=4), dataset, shards)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupt_while_evaluating_propagates_and_reaps_the_worker():
    dataset, shards, _, _ = random_clients([6, 9], 2, np.float32)
    caller, live = os.getpid(), []

    def interrupt(params, data):
        if os.getpid() != caller:
            return evaluate(params, data)
        live.append(os.waitpid(-1, os.WNOHANG))  # (0, 0): a worker runs and has not exited
        raise KeyboardInterrupt

    with groups_on(2), pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "evaluate", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_job(2, TrainConfig(local_epochs=1, batch_size=4), dataset, shards)
    assert live == [(0, 0)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "scenario, clients",
    [
        pytest.param("cifar_tiers_high", 3, id="cifar_tiers_high"),
        pytest.param("retina_gpuswap_h100", 5, id="retina_gpuswap_h100"),
    ],
)
def test_a_blas_bound_group_trains_in_passes_largest_first(scenario, clients):
    # on two cores the calling process trains cifar's BLAS-bound group of 3
    # clients, the other 3 train in a worker, and retina's call-bound step
    # trains its 5 clients in one group.  Either group is one `_lockstep`
    # call, its clients largest shard first.  A spy sees the calling
    # process's calls only
    spec = load_config(bundled_config_path(scenario)).spec
    dataset, shards = build_dataset(spec), build_shards(spec)
    params = ModelParams.zeros(dataset.num_classes, dataset.num_features, dataset.design.dtype)
    cfg = dataclasses.replace(spec.train, local_epochs=1)
    seeds = list(range(len(shards)))
    lockstep = workload._lockstep
    received = []

    def spy(params, dataset, shards, *args):
        received.append([len(shard) for shard in shards])
        return lockstep(params, dataset, shards, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "_usable_cores", lambda: 2)
        mp.setattr(workload, "_lockstep", spy)
        got = train_clients(params, dataset, shards, cfg, seeds)
    assert [len(lengths) for lengths in received] == [clients]
    assert received[0] == sorted(received[0], reverse=True)
    with groups_on(1):
        want = train_clients(params, dataset, shards, cfg, seeds)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g.weights, w.weights)
        assert np.array_equal(g.bias, w.bias)


@pytest.mark.parametrize(
    "scenario, cores, count",
    [
        # 600 lanes x 90 features x 10 classes x 6 clients = 3.24M multiply-adds per step
        ("cifar_tiers_high", 2, 2),
        ("cifar_tiers_high", 1, 1),
        # 20 x 64 x 2 x 5 = 12.8k: a worker costs more than it saves
        ("retina_gpuswap_h100", 2, 1),
        ("retina_gpuswap_h100", 1, 1),
    ],
)
def test_client_groups_split_only_a_blas_bound_step(scenario, cores, count):
    spec = load_config(bundled_config_path(scenario)).spec
    dataset = build_dataset(spec)
    sizes = [len(shard) for shard in build_shards(spec)]
    lane = min(spec.train.batch_size, max(sizes))
    groups = _client_groups(sizes, lane * dataset.num_features * dataset.num_classes, cores)
    assert len(groups) == count
    assert sorted(c for group in groups for c in group) == list(range(len(sizes)))
    loads = [sum(sizes[c] for c in group) for group in groups]
    assert max(loads) - min(loads) <= max(sizes)


@pytest.mark.parametrize("scenario, class_major", [("retina_gpuswap_h100", True), ("cifar_tiers_high", False)])
def test_theta_layout_is_chosen_from_one_clients_step_work(scenario, class_major):
    spec = load_config(bundled_config_path(scenario)).spec
    dataset = build_dataset(spec)
    shards = build_shards(spec)
    params = ModelParams.zeros(dataset.num_classes, dataset.num_features, dataset.features.dtype)
    seeds = list(range(len(shards)))
    lane = min(spec.train.batch_size, max(len(shard) for shard in shards))
    client_work = lane * dataset.num_features * dataset.num_classes
    lockstep = workload._lockstep
    chosen = []

    def spy(*args):
        chosen.append(args[-1])
        return lockstep(*args)

    # at its own value, then just above and at one client's step work, which
    # is below the whole call's: a choice that read the client count, the
    # groups or the cores would differ between the calls
    no_epochs = dataclasses.replace(spec.train, local_epochs=0)
    for work, want in [(workload.CLASS_MAJOR_WORK, class_major), (client_work + 1, True), (client_work, False)]:
        for cores in (1, 2):
            chosen.clear()
            with layout(work), pytest.MonkeyPatch.context() as mp:
                mp.setattr(workload, "_lockstep", spy)
                mp.setattr(workload, "_usable_cores", lambda: cores)
                train_clients(params, dataset, shards, no_epochs, seeds)
                train_clients(params, dataset, shards[:1], no_epochs, seeds[:1])
            assert chosen and set(chosen) == {want}, (work, cores, chosen)

    # the two layouts give equal bits at the bundled shapes, so no artifact
    # depends on the constant
    rounds = []
    for work in LAYOUTS:
        with layout(work):
            rounds.append(train_clients(params, dataset, shards, spec.train, seeds))
    for a, b in zip(*rounds, strict=True):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_cli_import_leaves_out_what_the_worker_imports(tmp_path):
    # `signal` and `multiprocessing` are imported only to fork a worker,
    # which a retina run never does; and the config parser sits below the
    # engine: it loads no orchestrator
    retina = f"greenfl.cli.main(['run', '--config', 'retina_gpuswap_h100', '--out', {str(tmp_path)!r}])"
    for module, unloaded in (
        ("greenfl.cli", ["signal", "multiprocessing"]),
        (f"greenfl.cli; {retina}", ["signal", "multiprocessing"]),
        ("greenfl.config", ["greenfl.orchestrator"]),
    ):
        code = f"import sys, {module}; sys.exit(sorted(set({unloaded!r}) & set(sys.modules)) or 0)"
        result = run_python("-c", code)
        assert result.returncode == 0, (module, result.stderr)


# the other call's [classes, features] differ from random_clients' default [3, 5]
OTHER_SHAPES = st.tuples(st.integers(2, 6), st.integers(1, 9)).filter(lambda shape: shape != (3, 5))


@pytest.mark.parametrize("dtype, other_dtype", [(np.float32, np.float64), (np.float64, np.float32)])
@settings(max_examples=50, deadline=None)
@given(case=client_sets(), other=client_sets(), other_shape=OTHER_SHAPES)
def test_train_clients_keeps_no_state_between_calls(dtype, other_dtype, case, other, other_shape):
    # the step's buffers and views are made per call; none may leak into the
    # next call, here one of another shape and dtype
    sizes, cfg, seed = case
    dataset, shards, seeds, params = random_clients(sizes, seed, dtype)
    first = train_clients(params, dataset, shards, cfg, seeds)
    other_sizes, other_cfg, other_seed = other
    other_dataset, other_shards, other_seeds, other_params = random_clients(
        other_sizes, other_seed, other_dtype, *other_shape
    )
    train_clients(other_params, other_dataset, other_shards, other_cfg, other_seeds)
    again = train_clients(params, dataset, shards, cfg, seeds)
    for got, want in zip(again, first):
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.bias, want.bias)


@pytest.mark.parametrize("scenario", ["cifar_tiers_high", "retina_gpuswap_h100"])
def test_table_memory_is_per_epoch(scenario):
    # a round-long [client, step, lane] table grew with the epoch count; the
    # per-epoch tables, the step's buffers and its views do not.  One group:
    # with two, a worker's allocations are not traced
    spec = load_config(bundled_config_path(scenario)).spec
    dataset = build_dataset(spec)
    shards = build_shards(spec)
    params = ModelParams.zeros(dataset.num_classes, dataset.num_features, dataset.features.dtype)
    seeds = list(range(len(shards)))
    peaks = {}
    for epochs in (1, 10):
        cfg = dataclasses.replace(spec.train, local_epochs=epochs)
        tracemalloc.start()
        try:
            with groups_on(1):
                train_clients(params, dataset, shards, cfg, seeds)
            peaks[epochs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[10] <= 1.1 * peaks[1], peaks


@pytest.mark.parametrize("scenario", ["cifar_tiers_high", "retina_gpuswap_h100"])
def test_gathered_batches_are_bounded(scenario):
    # a whole epoch's batches would be about 22 MB on cifar; a call holds at
    # most max(GATHER_BYTES, one step's bytes) of them.  The rest of a
    # call's peak does not depend on GATHER_BYTES, so the peaks are compared
    # with that of one step per `take`.  One group, as above
    spec = load_config(bundled_config_path(scenario)).spec
    dataset = build_dataset(spec)
    shards = build_shards(spec)
    params = ModelParams.zeros(dataset.num_classes, dataset.num_features, dataset.features.dtype)
    cfg = dataclasses.replace(spec.train, local_epochs=1)
    sizes = [len(shard) for shard in shards]
    lane = min(cfg.batch_size, max(sizes))
    row = lane * (dataset.num_features + 1) * dataset.design.itemsize  # one client's batch
    step = len(sizes) * row
    peaks = {}
    for gather_bytes in (0, workload.GATHER_BYTES, 1 << 30):
        tracemalloc.start()
        try:
            with groups_on(1), gather(gather_bytes):
                train_clients(params, dataset, shards, cfg, list(range(len(shards))))
            peaks[gather_bytes] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a whole prefix run per `take` holds the largest run's batches, so one
    # step per `take` holds one step.  With one step per `take` there is a
    # chunk per step of an epoch, and each holds views of well under 1 KiB
    ends = sorted((batches(n, lane) for n in sizes), reverse=True) + [0]
    whole_run = max(active * (ends[active - 1] - ends[active]) for active in range(1, len(sizes) + 1)) * row
    views = (1 << 10) * ends[0]
    assert peaks[1 << 30] - peaks[0] >= whole_run - step - views, (peaks, whole_run, step)
    assert peaks[workload.GATHER_BYTES] - peaks[0] <= max(workload.GATHER_BYTES, step) - step, (peaks, step)


@pytest.mark.parametrize(
    "classes, features, samples, batch, epochs",
    [
        # 10^6 steps per epoch, within the rules only if a call keeps nothing per step
        pytest.param(2, 1, 10**6, 1, 0, id="steps"),
        pytest.param(2, 1, 10**6, 100, 1, id="per_call"),
        pytest.param(1000, 4000, 2, 2, 1, id="per_step"),
    ],
)
def test_lockstep_peak_is_within_the_size_rules(classes, features, samples, batch, epochs):
    # one client, so one group; at `per_call` the epoch tables dominate, at
    # `per_step` θ and the arrays of its shape
    rng = np.random.default_rng(0)
    x = rng.standard_normal((samples, features)).astype(np.float32)
    dataset = SyntheticDataset.of(x, np.arange(samples) % classes, classes)
    params = ModelParams.zeros(classes, features, np.float32)
    shards = [np.arange(samples)]
    cfg = TrainConfig(local_epochs=epochs, batch_size=batch)
    tracemalloc.start()
    try:
        train_clients(params, dataset, shards, cfg, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 4-byte values the lockstep rule counts
    values = workload.lockstep_values([samples], batch, classes, features)
    # the rule counts one step's gather, a chunk holds up to GATHER_BYTES;
    # the finiteness check makes a bool copy of a client's weights; 1 MiB
    # for Python objects
    slack = workload.GATHER_BYTES + classes * features + (1 << 20)
    assert peak <= 4 * values + slack, (peak, values)


@pytest.mark.parametrize("past_end", [False, True])
def test_shard_index_out_of_range_is_rejected_before_training(past_end):
    # the batches are gathered in `clip` mode: unchecked, -1 would train on
    # row 0 and n on row n - 1, each beside another row's label
    dataset, shards, seeds, params = random_clients([4, 6], 3, np.float32)
    shards[1] = np.append(shards[1], dataset.num_samples if past_end else -1)
    cfg = TrainConfig(local_epochs=1, batch_size=3)
    trained = []
    for work in LAYOUTS:
        with layout(work), pytest.MonkeyPatch.context() as mp:
            mp.setattr(workload, "_lockstep", lambda *args: trained.append(args))
            with pytest.raises(IndexError, match=r"^client 1: shard indices must lie in \[0, 10\)$"):
                train_clients(params, dataset, shards, cfg, seeds)
    assert not trained


@pytest.mark.parametrize("sizes", [[40], [5, 17, 40]])
def test_batch_wider_than_every_shard_trains_each_shard_whole(sizes):
    # lanes are bounded by the largest shard; a table of 10**9 lanes per step would not fit in memory
    assert_matches_reference(sizes, TrainConfig(local_epochs=3, batch_size=10**9, learning_rate=0.3), 11)


def test_stepper_leaves_input_params_untouched():
    data = tiny_blobs()
    params = ModelParams.zeros(3, 8)
    shards = [np.arange(0, 50), np.arange(50, 120)]
    train_clients(params, data, shards, TrainConfig(local_epochs=2, batch_size=16, learning_rate=0.5), [1, 2])
    np.testing.assert_array_equal(params.weights, np.zeros((3, 8)))
    np.testing.assert_array_equal(params.bias, np.zeros(3))


def memory_of(array):
    """The array that owns the memory `array` views."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cores", [1, 2])
def test_trained_params_are_contiguous_and_share_no_memory(dtype, cores):
    # each client trains in a row of one shared parameter tensor; a param
    # handed back as a view of it would alias the clients and keep the
    # whole tensor alive for as long as any one client's params
    dataset, shards, seeds, params = random_clients([7, 12, 30, 3], 5, dtype)
    cfg = TrainConfig(local_epochs=2, batch_size=8, learning_rate=0.1)
    with groups_on(cores):
        trained = train_clients(params, dataset, shards, cfg, seeds)
    arrays = [array for client in trained for array in (client.weights, client.bias)]
    assert all(array.flags.c_contiguous for array in arrays)
    for i, array in enumerate(arrays):
        for other in arrays[i + 1 :]:
            assert not np.shares_memory(memory_of(array), memory_of(other))


def test_diverging_learning_rate_rejected():
    rng = np.random.default_rng(2)
    data = SyntheticDataset.of(rng.normal(size=(60, 4)), rng.integers(0, 3, 60), 3)  # not separable
    cfg = TrainConfig(local_epochs=20, batch_size=7, learning_rate=1e308)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="model parameters must be finite"):
        local_train(ModelParams.zeros(3, 4), data, cfg)
    # one client diverges while the other stops early: the NaN survives to the end of the round
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="model parameters must be finite"):
        train_clients(ModelParams.zeros(3, 4), data, [np.arange(5), np.arange(5, 60)], cfg, [0, 1])


@pytest.mark.parametrize("dtype, learning_rate", [(np.float32, 1e40), (np.float64, 1e308)])
def test_overflowing_lane_weight_diverges_without_a_warning(dtype, learning_rate):
    # the lane table holds learning_rate / len(batch): 1e40 / 4 overflows
    # float32 in its cast, and 1e308 / 4 overflows float64 in the first
    # steps; either must end in Diverged, not in a RuntimeWarning
    dataset, shards, seeds, params = random_clients([7, 12], 3, dtype)
    cfg = TrainConfig(local_epochs=2, batch_size=4, learning_rate=learning_rate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diverged, match="model parameters must be finite"):
            train_clients(params, dataset, shards, cfg, seeds)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_params_keep_the_dataset_dtype(dtype):
    blobs = tiny_blobs()
    data = SyntheticDataset.of(blobs.features.astype(dtype), blobs.labels, blobs.num_classes)
    shards = [np.arange(0, 50), np.arange(50, 120)]
    cfg = TrainConfig(local_epochs=2, batch_size=16, learning_rate=0.3)
    # float64 params are cast to the data's dtype, as criterion 6 passes them
    for start in (ModelParams.zeros(3, 8, dtype), ModelParams.zeros(3, 8)):
        trained = train_clients(start, data, shards, cfg, [1, 2])
        for params in trained:
            assert (params.weights.dtype, params.bias.dtype) == (dtype, dtype)
    merged = fedavg_aggregate([(trained[0], 50), (trained[1], np.int64(70))])
    assert (merged.weights.dtype, merged.bias.dtype) == (dtype, dtype)
    accuracy, final = run_job(2, cfg, data, shards)
    assert (final.weights.dtype, final.bias.dtype) == (dtype, dtype)
    assert all(isinstance(a, float) for a in accuracy)
    assert update_payload_bytes(*final.weights.shape) == (3 * 8 + 3) * 4


def pairwise_blobs(num_classes, num_features, samples_per_class, separation, seed):
    """`make_blobs` features, drawn block by block in float64 and rounded once,
    with the class means scaled by the minimum of the whole pairwise distance matrix."""
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, num_features))
    dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
    means *= separation / dists[~np.eye(num_classes, dtype=bool)].min()
    return np.concatenate(
        [means[c] + rng.normal(size=(samples_per_class, num_features)) for c in range(num_classes)]
    ).astype(np.float32)


@pytest.mark.parametrize("seed", [0, 5])
def test_make_blobs_is_the_float64_draw_rounded_to_float32(seed):
    num_classes, num_features, samples_per_class, separation = 4, 7, 30, 3.0
    want = pairwise_blobs(num_classes, num_features, samples_per_class, separation, seed)
    got = make_blobs(num_classes, num_features, samples_per_class, separation, seed)
    assert got.features.dtype == np.float32
    assert got.features.tobytes() == want.tobytes()
    np.testing.assert_array_equal(got.labels, np.repeat(np.arange(num_classes), samples_per_class))


# the cifar and retina shapes, many classes over few features, and the reverse
@pytest.mark.parametrize("num_classes, num_features", [(10, 90), (2, 64), (40, 3), (3, 300)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_make_blobs_row_by_row_separation_is_bit_equal_to_the_pairwise_matrix(num_classes, num_features, seed):
    got = make_blobs(num_classes, num_features, 3, 5.0, seed)
    assert got.features.tobytes() == pairwise_blobs(num_classes, num_features, 3, 5.0, seed).tobytes()


def test_make_blobs_builds_no_class_by_class_difference_array():
    # 200 classes x 200 features: a [K, K, F] float64 difference array is 64 MB,
    # while the design matrix, the labels and the class means are under 0.5 MB
    make_blobs(2, 3, 4)  # first-call imports and caches stay out of the trace
    tracemalloc.start()
    try:
        make_blobs(200, 200, 1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


# float32 against the float64 reference on the same (float32-representable)
# inputs.  float32 rounds at u = 2**-24 ~ 6e-8; a step rounds the logits,
# the softmax, the gradient and the update a handful of times, about 8u
# relative to the parameter scale, and a client takes at most 120 steps
# (3 epochs of 40 one-sample batches), so linear accumulation gives about
# 6e-5.  The bound below is 1e-4 of the parameter scale; over 4000 random
# draws of `client_sets()` the worst error was 1.5e-6.
FLOAT32_TOLERANCE = 1e-4


@settings(max_examples=200, deadline=None)
@given(client_sets())
def test_float32_stepper_tracks_float64_reference(case):
    sizes, cfg, seed = case
    dataset, shards, seeds, params = random_clients(sizes, seed, np.float32)
    start = ModelParams(params.weights.astype(np.float64), params.bias.astype(np.float64))
    wants = []
    for shard, client_seed in zip(shards, seeds):
        client_cfg = TrainConfig(cfg.local_epochs, cfg.batch_size, cfg.learning_rate, client_seed)
        client_data = SyntheticDataset.of(
            dataset.features[shard].astype(np.float64), dataset.labels[shard], dataset.num_classes
        )
        wants.append(reference_local_train(start, client_data, client_cfg)[0])

    for work in LAYOUTS:
        with layout(work):
            trained = train_clients(params, dataset, shards, cfg, seeds)

        for got, want in zip(trained, wants):
            assert got.weights.dtype == np.float32
            scale = max(1.0, np.abs(want.weights).max(), np.abs(want.bias).max())
            np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=FLOAT32_TOLERANCE * scale)
            np.testing.assert_allclose(got.bias, want.bias, rtol=0, atol=FLOAT32_TOLERANCE * scale)
