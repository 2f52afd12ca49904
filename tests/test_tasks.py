import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from recadamlab.errors import DimensionError, InvalidBatchError, UnsupportedTaskError
from recadamlab.numkit import RandomSource
from recadamlab.tasks import (DATASET_KINDS, TASK_KINDS, LinearRegressionTask,
                              LogisticRegressionTask, MlpTask, QuadraticTask, TransferPair,
                              _sigmoid, batch_stream, gen_task, gen_transfer_pair)

from grad_oracle import finite_diff_grad


def rel_err(approx, exact):
    return np.max(np.abs(approx - exact) / np.maximum(np.abs(exact), 1e-8))


def make_each_kind(seed=0, dim=6):
    rng = RandomSource(seed)
    return [
        gen_task("quadratic", dim, rng.child("q")),
        gen_task("linear-regression", dim, rng.child("lin"), n_samples=40),
        gen_task("logistic-regression", dim, rng.child("log"), n_samples=40),
        gen_task("mlp-1h", 0, rng.child("mlp"), dim_in=3, hidden=4, classes=2, n_samples=40),
    ]


class TestQuadratic:
    def test_minimum_is_exact(self):
        task = QuadraticTask(np.eye(2), np.zeros(2))
        loss, grad = task.loss_and_grad(np.zeros(2))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_identity_bowl_by_hand(self):
        task = QuadraticTask(np.eye(2), np.zeros(2))
        loss, grad = task.loss_and_grad(np.array([3.0, 4.0]))
        assert loss == 12.5
        assert np.array_equal(grad, [3.0, 4.0])

    def test_generated_center_is_exact_zero(self):
        task = gen_task("quadratic", 9, RandomSource(3))
        loss, grad = task.loss_and_grad(task.center)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(9))

    def test_curvature_is_spd_with_moderate_conditioning(self):
        task = gen_task("quadratic", 14, RandomSource(4))
        eig = np.linalg.eigvalsh(task.curvature)
        assert eig.min() > 0
        assert eig.max() / eig.min() <= 100.0 + 1e-6

    def test_asymmetric_curvature_rejected(self):
        A = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            QuadraticTask(A, np.zeros(2))


class TestGradientCorrectness:
    @pytest.mark.parametrize("task_index", range(4))
    def test_analytic_matches_central_differences(self, task_index):
        rng = np.random.default_rng(task_index)
        for trial in range(20):
            task = make_each_kind(seed=trial)[task_index]
            theta = rng.normal(size=task.dim)
            batch = None
            if task.dataset_size():
                batch = rng.choice(task.dataset_size(), size=13, replace=False)
            _, grad = task.loss_and_grad(theta, batch)
            fd = finite_diff_grad(task, theta, batch, h=1e-5)
            assert rel_err(fd, grad) < 1e-5

    def test_constant_loss_task_has_zero_gradient(self):
        # zero features make the squared-error loss flat in theta
        task = LinearRegressionTask(np.zeros((10, 3)), np.ones(10))
        fd = finite_diff_grad(task, np.array([0.3, -1.0, 2.0]), None, h=1e-5)
        assert np.array_equal(fd, np.zeros(3))

    def test_finite_diff_rejects_bad_h(self):
        task = make_each_kind()[0]
        with pytest.raises(ValueError):
            finite_diff_grad(task, np.zeros(task.dim), None, h=0.0)


class TestBatches:
    def test_batch_mean_linearity(self):
        task = gen_task("linear-regression", 5, RandomSource(8), n_samples=60)
        theta = RandomSource(9).normal(5)
        full_loss, full_grad = task.loss_and_grad(theta, None)
        idx = np.arange(60)
        parts = [idx[:20], idx[20:50], idx[50:]]
        weighted_loss = sum(len(p) * task.loss_and_grad(theta, p)[0] for p in parts) / 60
        weighted_grad = sum(len(p) * task.loss_and_grad(theta, p)[1] for p in parts) / 60
        assert abs(weighted_loss - full_loss) < 1e-10
        assert np.max(np.abs(weighted_grad - full_grad)) < 1e-10

    def test_stream_covers_each_epoch_without_replacement(self):
        stream = batch_stream(10, 3, RandomSource(1))
        seen = np.concatenate([next(stream) for _ in range(4)])
        assert sorted(seen.tolist()) == sorted(range(10))

    def test_same_seed_same_batches(self):
        a = [next(batch_stream(50, 8, RandomSource(5))) for _ in range(5)]
        b = [next(batch_stream(50, 8, RandomSource(5))) for _ in range(5)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_invalid_batches_rejected(self):
        task = gen_task("linear-regression", 4, RandomSource(2), n_samples=20)
        with pytest.raises(InvalidBatchError):
            task.loss_and_grad(np.zeros(4), np.array([], dtype=int))
        with pytest.raises(InvalidBatchError):
            task.loss_and_grad(np.zeros(4), np.array([25]))
        with pytest.raises(InvalidBatchError):
            batch_stream(10, 0, RandomSource(0))
        with pytest.raises(InvalidBatchError):  # refused at the call, not at the first draw
            batch_stream(0, 4, RandomSource(0))
        # an empty list reads as float64; floats would read rows [0, 1], booleans [1, 0]
        for batch in ([], [0.7, 1.9], [True, False]):
            with pytest.raises(InvalidBatchError):
                task.loss_and_grad(np.zeros(4), np.array(batch))

    def test_integer_batches_of_any_width_read_the_same_rows(self):
        task = gen_task("linear-regression", 4, RandomSource(2), n_samples=20)
        theta = RandomSource(3).normal(4)
        expected = task.loss_and_grad(theta, np.array([1, 0], dtype=np.intp))
        for dtype in (np.int8, np.int32, np.uint16, np.uint64):
            loss, grad = task.loss_and_grad(theta, np.array([1, 0], dtype=dtype))
            assert loss == expected[0] and np.array_equal(grad, expected[1])
        with pytest.raises(InvalidBatchError):
            task.loss_and_grad(theta, np.array([-1], dtype=np.int32))

    @pytest.mark.parametrize("batch", [[-1], [0, -5], [1.0]],
                             ids=["minus-one", "minus-five", "float"])
    @pytest.mark.parametrize("kind", DATASET_KINDS)
    def test_negative_batch_index_rejected(self, kind, batch):
        task = gen_task(kind, 0 if kind == "mlp-1h" else 4, RandomSource(2), dim_in=2,
                        hidden=3, classes=2, n_samples=20)
        with pytest.raises(InvalidBatchError):
            task.loss_and_grad(np.zeros(task.dim), np.array(batch))
        with pytest.raises(InvalidBatchError):
            task.per_sample_loglik_grads(np.zeros(task.dim), np.array(batch))

    @pytest.mark.parametrize("kind", DATASET_KINDS)
    def test_dataset_is_read_only(self, kind):
        pair = gen_transfer_pair(kind, 0 if kind == "mlp-1h" else 4, 0.5, RandomSource(2),
                                 dim_in=2, hidden=3, classes=2, n_samples=20)
        task = pair.target
        for array in (task.features, task.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        # the regressions' source and target still hold one noise array as features;
        # mlp-1h features add each member's own class centers to the noise
        shared = np.shares_memory(pair.source.features, pair.target.features)
        assert shared == (kind != "mlp-1h")

    @pytest.mark.parametrize("kind", TASK_KINDS)
    def test_every_array_of_a_generated_task_is_read_only(self, kind):
        # built here, outside the harness's memo: the task layer alone makes them read-only
        sizes = dict(dim_in=2, hidden=3, classes=2, n_samples=20)
        dim = 0 if kind == "mlp-1h" else 4
        pair = gen_transfer_pair(kind, dim, 0.5, RandomSource(2), **sizes)
        for task in (pair.source, pair.target, gen_task(kind, dim, RandomSource(3), **sizes)):
            arrays = [v for v in vars(task).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == 2
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 1

    @pytest.mark.parametrize("build", [LinearRegressionTask, LogisticRegressionTask,
                                       lambda X, y: MlpTask(2, 3, 2, X, y), QuadraticTask],
                             ids=["linear", "logistic", "mlp", "quadratic"])
    def test_hand_built_task_leaves_the_caller_arrays_writeable(self, build):
        if build is QuadraticTask:
            features, labels = np.eye(2), np.ones(2)  # the curvature and the center
        else:
            features, labels = np.zeros((6, 2)), np.ones(6, dtype=np.intp)
        task = build(features, labels)
        held = (task.curvature, task.center) if build is QuadraticTask else (task.features,)
        assert not any(array.flags.writeable for array in held)
        features[0, 0] = labels[0] = 0  # raises if the task had made them read-only

    @pytest.mark.parametrize("kind", DATASET_KINDS)
    def test_full_data_loss_copies_no_dataset(self, kind, traced_peak):
        # 8192 x 64 float64 features: 4 MiB, which a gather of every row would copy
        task = gen_task(kind, 0 if kind == "mlp-1h" else 64, RandomSource(4), dim_in=64,
                        hidden=4, classes=2, n_samples=8192)
        theta = RandomSource(5).normal(task.dim)
        assert task.features.nbytes == 4 << 20
        assert traced_peak(lambda: task.loss_and_grad(theta, None)) < task.features.nbytes


def sigmoid_oracle(z: float) -> float:
    """The two-branch logistic function on one Python float.  The exponential
    is NumPy's: math.exp differs from it by one ulp at some arguments (at
    -36.0 with NumPy 2.4 on x86-64), which is not what this compares."""
    if z >= 0:
        return 1.0 / (1.0 + float(np.exp(-z)))
    e = float(np.exp(z))
    return e / (1.0 + e)


def test_sigmoid_is_bit_equal_to_the_two_branch_form():
    special = [s * v for v in (0.0, 1e-300, 36.0, 710.0, math.inf) for s in (1.0, -1.0)]
    z = np.concatenate([special, np.random.default_rng(0).normal(size=2000) * 40])
    expected = np.array([sigmoid_oracle(v) for v in z.tolist()])
    assert _sigmoid(z).tobytes() == expected.tobytes()


class TestMlp:
    def test_parameter_count(self):
        task = gen_task("mlp-1h", 0, RandomSource(0), dim_in=2, hidden=3, classes=2,
                        n_samples=10)
        assert task.dim == 17

    def test_zero_weights_balanced_two_class_loss_is_ln2(self):
        task = gen_task("mlp-1h", 0, RandomSource(1), dim_in=4, hidden=5, classes=2,
                        n_samples=16)
        loss, _ = task.loss_and_grad(np.zeros(task.dim), None)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            gen_task("mlp-1h", 0, RandomSource(0), dim_in=0, hidden=3, classes=2, n_samples=10)

    def test_label_noise_flips_some_labels(self):
        sizes = dict(dim_in=3, hidden=4, classes=3, n_samples=400)
        clean = gen_task("mlp-1h", 0, RandomSource(7), **sizes, label_noise=0.0)
        noisy = gen_task("mlp-1h", 0, RandomSource(7), **sizes, label_noise=0.3)
        assert np.array_equal(clean.features, noisy.features)
        assert 0 < np.sum(clean.labels != noisy.labels) < 400


def _oracle_forward(task, theta, X, y):
    """The reference MLP forward pass, with NumPy's own reductions and 2-D indexing:
    the expressions every pinned mlp-1h trace was made with."""
    h, din, C = task.hidden, task.dim_in, task.classes
    i = 0
    W1 = theta[i:i + h * din].reshape(h, din); i += h * din
    b1 = theta[i:i + h]; i += h
    W2 = theta[i:i + C * h].reshape(C, h); i += C * h
    b2 = theta[i:i + C]
    H = np.tanh(X @ W1.T + b1)
    logits = H @ W2.T + b2
    mx = logits.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
    rows = np.arange(y.size)
    ce = lse - logits[rows, y]
    logits -= lse[:, None]
    dlogits = np.exp(logits, out=logits)
    dlogits[rows, y] -= 1.0
    return W2, H, ce, dlogits


def _oracle_loss_and_grad(task, theta, X, y):
    W2, H, ce, dlogits = _oracle_forward(task, theta, X, y)
    n = y.size
    loss = float(ce.sum() / n)
    dlogits /= n
    dW2 = dlogits.T @ H
    db2 = dlogits.sum(axis=0)
    dH = dlogits @ W2
    dZ1 = dH * (1.0 - H * H)
    dW1 = dZ1.T @ X
    db1 = dZ1.sum(axis=0)
    return loss, np.concatenate([dW1.ravel(), db1, dW2.ravel(), db2])


def _oracle_per_sample_loglik_grads(task, theta, X, y):
    W2, H, _, dlogits = _oracle_forward(task, theta, X, y)
    n = y.size
    dW2 = np.einsum("bc,bh->bch", dlogits, H)
    dH = dlogits @ W2
    dZ1 = dH * (1.0 - H * H)
    dW1 = np.einsum("bh,bd->bhd", dZ1, X)
    return -np.concatenate([dW1.reshape(n, -1), dZ1, dW2.reshape(n, -1), dlogits], axis=1)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestMlpBits:
    """The MLP's loss and gradients are bit-equal to the oracle expressions above,
    whatever NumPy calls compute them."""

    @pytest.mark.parametrize("classes", [1, 2, 3, 5])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 30.0])
    def test_loss_and_gradients_match_the_oracle_bitwise(self, classes, scale):
        task = gen_task("mlp-1h", 0, RandomSource(classes), dim_in=3, hidden=7,
                        classes=classes, n_samples=300)
        rng = np.random.default_rng(classes)
        *_, short_last = itertools.islice(batch_stream(300, 64, RandomSource(9)), 5)
        assert short_last.size == 44  # the last batch of an epoch
        batches = [np.array([11]), rng.permutation(300)[:64], short_last, None]
        for _ in range(4):
            theta = scale * rng.standard_normal(task.dim)
            for batch in batches:
                rows = np.arange(300) if batch is None else batch
                X, y = task.features[rows], task.labels[rows]
                loss, grad = task.loss_and_grad(theta, batch)
                want_loss, want_grad = _oracle_loss_and_grad(task, theta, X, y)
                assert _bits(loss) == _bits(want_loss)
                assert np.array_equal(_bits(grad), _bits(want_grad))
                got = task.per_sample_loglik_grads(theta, rows)
                want = _oracle_per_sample_loglik_grads(task, theta, X, y)
                assert np.array_equal(_bits(got), _bits(want))

    def test_a_float32_task_and_theta_match_the_oracle_bitwise(self):
        task = gen_task("mlp-1h", 0, RandomSource(6), dim_in=3, hidden=5, classes=3,
                        n_samples=50)
        task32 = MlpTask(3, 5, 3, task.features.astype(np.float32), task.labels)
        theta = np.random.default_rng(6).standard_normal(task.dim).astype(np.float32)
        rows = np.arange(9)
        loss, grad = task32.loss_and_grad(theta, rows)
        want_loss, want_grad = _oracle_loss_and_grad(task32, theta, task32.features[rows],
                                                     task32.labels[rows])
        assert grad.dtype == want_grad.dtype == np.float32
        assert _bits(loss) == _bits(want_loss)
        assert np.array_equal(grad.view(np.int32), want_grad.view(np.int32))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64])
    def test_labels_of_any_integer_dtype_give_the_same_bits(self, dtype):
        task = gen_task("mlp-1h", 0, RandomSource(4), dim_in=3, hidden=5, classes=3,
                        n_samples=50)
        other = MlpTask(3, 5, 3, task.features, task.labels.astype(dtype))
        theta = np.random.default_rng(4).standard_normal(task.dim)
        for batch in (np.arange(7), None):
            loss, grad = task.loss_and_grad(theta, batch)
            other_loss, other_grad = other.loss_and_grad(theta, batch)
            assert _bits(loss) == _bits(other_loss)
            assert np.array_equal(_bits(grad), _bits(other_grad))


class TestTransferPairs:
    def test_rho_one_gives_identical_tasks(self):
        pair = gen_transfer_pair("quadratic", 8, 1.0, RandomSource(10))
        assert np.array_equal(pair.source.center, pair.target.center)
        assert np.array_equal(pair.source.curvature, pair.target.curvature)
        pair = gen_transfer_pair("mlp-1h", 0, 1.0, RandomSource(10),
                                 dim_in=4, hidden=5, classes=3, n_samples=30)
        assert np.array_equal(pair.source.features, pair.target.features)
        assert np.array_equal(pair.source.labels, pair.target.labels)

    def test_determinism_bitwise(self):
        a = gen_transfer_pair("logistic-regression", 6, 0.4, RandomSource(11),
                              n_samples=25)
        b = gen_transfer_pair("logistic-regression", 6, 0.4, RandomSource(11),
                              n_samples=25)
        assert np.array_equal(a.source.features, b.source.features)
        assert np.array_equal(a.target.labels, b.target.labels)

    def test_mixture_recomputed_from_split_streams(self):
        # target center must equal rho * source + (1 - rho) * independent,
        # where both components regenerate from the labelled child streams
        rho = 0.5
        root = RandomSource(7)
        pair = gen_transfer_pair("quadratic", 20, rho, root)
        from recadamlab.tasks import _KINDS
        draw = _KINDS["quadratic"].draw
        src = draw(root.child("source-params"), {"dim": 20})
        ind = draw(root.child("independent-params"), {"dim": 20})
        expected = rho * src["center"] + (1 - rho) * ind["center"]
        assert np.array_equal(pair.target.center, expected)
        assert np.array_equal(pair.source.center, src["center"])

    def test_rho_zero_target_is_independent(self):
        pair = gen_transfer_pair("linear-regression", 30, 0.0, RandomSource(13),
                                 n_samples=10)
        root = RandomSource(13)
        from recadamlab.tasks import _KINDS
        draw = _KINDS["linear-regression"].draw
        ind = draw(root.child("independent-params"), {"dim": 30})
        src = draw(root.child("source-params"), {"dim": 30})
        # exact independent draw, uncorrelated with the source weights
        target_w = ind["weights"]
        assert abs(np.corrcoef(target_w, src["weights"])[0, 1]) < 0.5

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            gen_transfer_pair("quadratic", 4, 1.5, RandomSource(0))
        with pytest.raises(UnsupportedTaskError):
            gen_transfer_pair("rbf", 4, 0.5, RandomSource(0))

    def test_source_and_target_dims_match(self):
        pair = gen_transfer_pair("mlp-1h", 0, 0.3, RandomSource(5),
                                 dim_in=3, hidden=4, classes=2, n_samples=12)
        assert pair.source.dim == pair.target.dim == 4 * 4 + 2 * 5


def array_digest(task):
    """sha256 over a task's arrays: field name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for f in dataclasses.fields(task):
        value = getattr(task, f.name)
        if isinstance(value, np.ndarray):
            h.update(f"{f.name}:{value.dtype.str}:{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


# (kind, dim, seed, sizes) -> digest of every array the task holds.  The
# digests were taken from the per-kind generators the task table replaced;
# the linear-regression ones were re-taken when its label column was renamed
# from targets to labels, which changes the hashed field name, not the bytes.
SINGLE_TASKS = {
    "quadratic": (
        ("quadratic", 7, 3, {}),
        "62b8d691034905892509a70c6055bbc4c24030669f38cef46563365f07cc418e"),
    "linear-regression": (
        ("linear-regression", 5, 4, {"n_samples": 40}),
        "d9e5387c3d4a9444cf84965489758127be8d8fce3dfffdb8b6cf4cdf97049787"),
    "linear-regression-noise": (
        ("linear-regression", 5, 4, {"n_samples": 40, "noise_std": 0.3}),
        "c98da7a015cb29386901ea44495d5148689d64a1b01b3a11a395098e03816242"),
    "logistic-regression": (
        ("logistic-regression", 6, 5, {"n_samples": 50}),
        "8e19ef5c551478654547cf7e352daa04051c44834bbef8dd1df5fe964df80b7f"),
    "mlp-1h": (
        ("mlp-1h", 0, 6, {"dim_in": 3, "hidden": 4, "classes": 2, "n_samples": 40}),
        "6acf3ea6b71a115398a9a99e5511d4559b99a80827e6651856f046a311f4774e"),
    "mlp-1h-options": (
        ("mlp-1h", 0, 7, {"dim_in": 3, "hidden": 4, "classes": 3, "n_samples": 60,
                          "center_scale": 2.5, "noise_std": 0.5, "label_noise": 0.2}),
        "3c7f4d76e6abc8f5f581dc650e394e128bab09c6843d523bf5219726a8e614a8"),
}

# (kind, dim, rho, seed, sizes) -> digests of the source and the target
TRANSFER_PAIRS = {
    "quadratic": (
        ("quadratic", 6, 0.3, 8, {}),
        ("a9cb8cf44d8c1dd2d2a43860ae54c328297ff11a5d466ac31e32042bf7f49a5b",
         "4e0e637e370484b4ba5ecacf79bd653eed7ad91909ffc84b2a21a1f697561794")),
    "linear-regression": (
        ("linear-regression", 5, 0.6, 9, {"n_samples": 30, "noise_std": 0.25}),
        ("f4f162e79bc34bc0bebcc14492f3d616cd8828cd4c6f87ffe2fef4904ec05baa",
         "4a559260e2881e2ff1927bfdf2bad8de7ecefc1abffdb5c8bdb119841bbfdef8")),
    "linear-regression-default": (
        ("linear-regression", 4, 0.2, 12, {"n_samples": 20}),
        ("e2d43a8644da504a387092189839e8214889cac471f9c8fdea03aa7eb13edc79",
         "02799585276f8b6d9820cf82560a816745b2c430fcf75ae2a4ac35f5938cbba1")),
    "logistic-regression": (
        ("logistic-regression", 4, 0.5, 10, {"n_samples": 35}),
        ("1376c19a62c0101eff076444924584930625aea52ee04d4d1891e63f84c60f87",
         "32acaa749f6ee35bc2348816f5051864ac9b0ebae98f3e5bcea8bee96b7e2325")),
    "mlp-1h-default": (
        ("mlp-1h", 0, 0.4, 13, {"dim_in": 2, "hidden": 3, "classes": 2, "n_samples": 15}),
        ("624394b9f7d73f674a380c6fdd70b3865e7531784777cf973220cf71d5839914",
         "8f9f08fa1fc120d93efcbe8b7342b1f0a405aaaa649d71432013417c4ac7db27")),
    "mlp-1h": (
        ("mlp-1h", 0, 0.7, 11, {"dim_in": 3, "hidden": 4, "classes": 3, "n_samples": 25,
                                "center_scale": 1.5, "noise_std": 0.8, "label_noise": 0.25}),
        ("8ef2bd3ec35cc2877c494db7a4796e9a7b1933585e5064bd3807429af6ba2118",
         "7a618bb02718ded71625dcfe4c2f9751de8e23316c2ea32f1a5d4acb36ff795c")),
}

class TestGeneratorBits:
    @pytest.mark.parametrize("case", sorted(SINGLE_TASKS))
    def test_single_task_arrays_are_pinned(self, case):
        (kind, dim, seed, sizes), expected = SINGLE_TASKS[case]
        task = gen_task(kind, dim, RandomSource(seed), **sizes)
        assert array_digest(task) == expected

    @pytest.mark.parametrize("case", sorted(TRANSFER_PAIRS))
    def test_transfer_pair_arrays_are_pinned(self, case):
        (kind, dim, rho, seed, sizes), expected = TRANSFER_PAIRS[case]
        pair = gen_transfer_pair(kind, dim, rho, RandomSource(seed), **sizes)
        assert (array_digest(pair.source), array_digest(pair.target)) == expected

    def test_spec_is_the_generator_arguments_plus_seed(self):
        task = gen_task("mlp-1h", 0, RandomSource(6), dim_in=3, hidden=4, classes=2,
                        n_samples=40)
        assert task.spec == {"kind": "mlp-1h", "dim": 26, "seed": 6, "dim_in": 3,
                             "hidden": 4, "classes": 2, "n_samples": 40,
                             "center_scale": 1.0, "noise_std": 1.0, "label_noise": 0.0}
        pair = gen_transfer_pair("quadratic", 6, 0.3, RandomSource(8), n_samples=512)
        assert pair.target.spec == pair.source.spec == {"kind": "quadratic", "dim": 6, "seed": 8}


class TestSizeChecks:
    def test_quadratic_needs_a_positive_dim(self):
        with pytest.raises(ValueError, match="dim"):
            gen_transfer_pair("quadratic", 0, 0.5, RandomSource(0))
        with pytest.raises(ValueError, match="dim"):
            gen_task("quadratic", 0, RandomSource(0))

    @pytest.mark.parametrize("kind, dim, sizes", [
        ("linear-regression", 4, {}), ("logistic-regression", 4, {}),
        ("mlp-1h", 0, {"dim_in": 3, "hidden": 4, "classes": 2})])
    def test_data_kinds_need_samples(self, kind, dim, sizes):
        with pytest.raises(ValueError, match="n_samples"):
            gen_transfer_pair(kind, dim, 0.5, RandomSource(0), n_samples=0, **sizes)
        with pytest.raises(ValueError, match="n_samples"):
            gen_task(kind, dim, RandomSource(0), n_samples=-3, **sizes)

    def test_mlp_dim_must_match_its_layer_sizes(self):
        with pytest.raises(DimensionError, match="parameter count is 17"):
            gen_task("mlp-1h", 16, RandomSource(0), dim_in=2, hidden=3, classes=2)

    def test_label_noise_is_a_probability(self):
        with pytest.raises(ValueError, match="label_noise"):
            gen_task("mlp-1h", 0, RandomSource(0), dim_in=2, hidden=3, classes=2,
                     label_noise=2.0)

    def test_unknown_keyword_is_an_error(self):
        with pytest.raises(TypeError, match="n_sample"):
            gen_task("linear-regression", 4, RandomSource(0), n_sample=10)


# hand-built tasks, one per constructor check and per theta length check
REFUSED = {
    "non-square-curvature": (
        lambda: QuadraticTask(np.eye(3)[:2], np.zeros(3)), DimensionError, "dim x dim"),
    "non-positive-curvature-diagonal": (
        lambda: QuadraticTask(np.diag([1.0, 0.0]), np.zeros(2)), ValueError, "positive"),
    "linear-labels-rows": (
        lambda: LinearRegressionTask(np.zeros((4, 2)), np.zeros(5)), DimensionError,
        "one row per feature row"),
    "logistic-labels-rows": (
        lambda: LogisticRegressionTask(np.zeros((4, 2)), np.zeros(3, dtype=int)),
        DimensionError, "one row per feature row"),
    "mlp-labels-rows": (
        lambda: MlpTask(2, 2, 2, np.zeros((4, 2)), np.zeros(5, dtype=int)), DimensionError,
        "one row per feature row"),
    "mlp-feature-width": (
        lambda: MlpTask(3, 2, 2, np.zeros((4, 2)), np.zeros(4, dtype=int)), DimensionError,
        "feature width"),
    "linear-one-dim-features": (
        lambda: LinearRegressionTask(np.zeros(4), np.zeros(4)), DimensionError,
        "one row per feature row"),
    "logistic-one-dim-features": (
        lambda: LogisticRegressionTask(np.zeros(4), np.zeros(4)), DimensionError,
        "one row per feature row"),
    "mlp-one-dim-features": (
        lambda: MlpTask(2, 3, 2, np.zeros(4), np.zeros(4, dtype=int)), DimensionError,
        "one row per feature row"),
    "mlp-negative-label": (
        lambda: MlpTask(2, 3, 2, np.ones((4, 2)), np.array([0, 1, -1, 1])), ValueError,
        r"labels must be integers in \[0, 2\)"),
    "mlp-label-equal-to-classes": (
        lambda: MlpTask(2, 3, 2, np.ones((4, 2)), np.array([0, 1, 2, 1])), ValueError,
        r"labels must be integers in \[0, 2\)"),
    "mlp-float-labels": (
        lambda: MlpTask(2, 3, 2, np.ones((4, 2)), np.array([0.0, 1.0, 0.0, 1.0])), ValueError,
        r"labels must be integers in \[0, 2\)"),
    "linear-theta-length": (
        lambda: LinearRegressionTask(np.zeros((4, 2)), np.zeros(4)).loss_and_grad(
            np.zeros(3)), DimensionError, "theta length 3"),
    "logistic-theta-length": (
        lambda: LogisticRegressionTask(np.zeros((4, 2)), np.zeros(4, dtype=int)).loss_and_grad(
            np.zeros(3)), DimensionError, "theta length 3"),
    "mlp-theta-length": (
        lambda: MlpTask(2, 2, 2, np.zeros((4, 2)), np.zeros(4, dtype=int)).loss_and_grad(
            np.zeros(3)), DimensionError, "theta length 3"),
    "transfer-pair-dims": (
        lambda: TransferPair(QuadraticTask(np.eye(2), np.zeros(2)),
                             QuadraticTask(np.eye(3), np.zeros(3))), DimensionError,
        "dimensions must match"),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_refused_inputs(case):
    build, error, message = REFUSED[case]
    with pytest.raises(error, match=message):
        build()
