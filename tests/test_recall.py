import numpy as np
import pytest

from recadamlab.errors import DimensionError, UnsupportedTaskError
from recadamlab.numkit import RandomSource
from recadamlab.recall import (FISHER_BLOCK_ROWS, PenaltyModel, _penalty_values,
                               estimate_diag_fisher, penalty_grad, penalty_loss)
from recadamlab.tasks import (DATASET_KINDS, LinearRegressionTask, LogisticRegressionTask,
                              gen_task)


def fd_penalty_grad(pen, theta, h=1.0):
    # quadratic penalties have no truncation error, so a large h is exact up
    # to rounding and keeps cancellation noise well under the 1e-8 bound
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy(); up[i] += h
        dn = theta.copy(); dn[i] -= h
        grad[i] = (penalty_loss(pen, up) - penalty_loss(pen, dn)) / (2 * h)
    return grad


class TestPenalty:
    def test_zero_at_anchor_for_every_kind(self):
        anchor = np.array([0.5, -1.0, 2.0])
        for pen in (PenaltyModel.none(anchor),
                    PenaltyModel.isotropic(anchor, 5000.0),
                    PenaltyModel.diagonal_fisher(anchor, np.array([1.0, 2.0, 3.0]), 4)):
            assert penalty_loss(pen, anchor) == 0.0
            assert np.array_equal(penalty_grad(pen, anchor), np.zeros(3))

    def test_isotropic_default_gamma_by_hand(self):
        anchor = np.zeros(2)
        pen = PenaltyModel.isotropic(anchor, 5000.0)
        assert penalty_loss(pen, np.array([0.01, 0.01])) == pytest.approx(0.5, rel=1e-12)
        grad = penalty_grad(pen, np.array([0.01, -0.02]))
        assert grad == pytest.approx([50.0, -100.0], rel=1e-12)

    def test_unit_fisher_with_integer_n_equals_isotropic_exactly(self):
        anchor = RandomSource(1).normal(8)
        theta = RandomSource(2).normal(8)
        iso = PenaltyModel.isotropic(anchor, 7.0)
        fisher = PenaltyModel.diagonal_fisher(anchor, np.ones(8), 7)
        assert penalty_loss(iso, theta) == penalty_loss(fisher, theta)
        assert np.array_equal(penalty_grad(iso, theta), penalty_grad(fisher, theta))

    @pytest.mark.parametrize("kind", ["none", "isotropic", "diagonal-fisher"])
    def test_a_stack_gives_each_run_its_lone_gradient(self, kind):
        rng = np.random.default_rng(5)
        theta, anchor, fisher = rng.normal(size=(3, 4)), rng.normal(size=4), rng.random(4)
        pen = PenaltyModel(kind, anchor, gamma=2.0, fisher_diag=fisher, n_obs=7)
        gammas = np.array([[2.0], [0.5], [3.0]])
        stacked = penalty_grad(pen, theta, gammas)
        assert stacked.shape == (3, 4)
        for row, gamma, grad in zip(theta, gammas[:, 0], stacked):
            lone = PenaltyModel(kind, anchor, gamma=gamma, fisher_diag=fisher, n_obs=7)
            assert np.array_equal(penalty_grad(lone, row), grad)

    @pytest.mark.parametrize("kind", ["none", "isotropic", "diagonal-fisher"])
    def test_grad_matches_finite_differences(self, kind):
        rng = np.random.default_rng(["none", "isotropic", "diagonal-fisher"].index(kind))
        for _ in range(20):
            dim = int(rng.integers(2, 12))
            anchor = rng.normal(size=dim)
            if kind == "none":
                pen = PenaltyModel.none(anchor)
            elif kind == "isotropic":
                pen = PenaltyModel.isotropic(anchor, float(rng.uniform(0.1, 100)))
            else:
                pen = PenaltyModel.diagonal_fisher(anchor, rng.uniform(0, 5, dim),
                                                   int(rng.integers(1, 50)))
            theta = anchor + rng.normal(size=dim)
            exact = penalty_grad(pen, theta)
            approx = fd_penalty_grad(pen, theta)
            assert np.max(np.abs(approx - exact) /
                          np.maximum(np.abs(exact), 1e-8)) < 1e-8

    def test_dimension_and_validation_errors(self):
        pen = PenaltyModel.isotropic(np.zeros(3), 1.0)
        with pytest.raises(DimensionError):
            penalty_loss(pen, np.zeros(4))
        with pytest.raises(ValueError):
            PenaltyModel.isotropic(np.zeros(2), -1.0)
        with pytest.raises(ValueError):
            PenaltyModel.diagonal_fisher(np.zeros(2), np.array([1.0, -0.5]), 3)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_gamma_rejected(self, bad):
        with pytest.raises(ValueError):
            PenaltyModel.isotropic(np.zeros(2), bad)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_fisher_diag_rejected(self, bad):
        with pytest.raises(ValueError):
            PenaltyModel.diagonal_fisher(np.zeros(2), np.array([1.0, bad]), 3)


def _logistic_task():
    return LogisticRegressionTask(np.ones((4, 3)), np.array([0, 1, 0, 1]))


@pytest.mark.parametrize("build, error, message", [
    (lambda: PenaltyModel("ridge", np.zeros(2)), ValueError, "unknown penalty kind"),
    (lambda: PenaltyModel("diagonal-fisher", np.zeros(2)), ValueError, "needs fisher_diag"),
    (lambda: PenaltyModel.diagonal_fisher(np.zeros(2), np.ones(2), 0), ValueError, "n_obs"),
    (lambda: estimate_diag_fisher(_logistic_task(), np.zeros(3), 0, RandomSource(0)),
     ValueError, "n_samples"),
    (lambda: estimate_diag_fisher(_logistic_task(), np.zeros(4), 8, RandomSource(0)),
     DimensionError, "theta_star length"),
], ids=["unknown-kind", "fisher-without-diag", "zero-n-obs", "zero-fisher-samples",
        "fisher-theta-star-length"])
def test_refused_inputs(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestFisherEstimation:
    def test_degenerate_dataset_gives_zero_fisher(self):
        # all-zero features make every per-sample gradient vanish
        task = LinearRegressionTask(np.zeros((30, 4)), np.zeros(30))
        fisher, n_obs = estimate_diag_fisher(task, np.zeros(4), 100, RandomSource(0))
        assert np.array_equal(fisher, np.zeros(4))
        assert n_obs == 30

    @pytest.mark.parametrize("cls", [LinearRegressionTask, LogisticRegressionTask])
    def test_integer_features_give_the_float_estimate(self, cls):
        # a task built by hand may hold integer features; the per-sample
        # gradients are still float
        features = np.arange(-20, 20).reshape(10, 4)
        targets = (np.arange(10) % 2).astype(np.float64)
        theta_star = np.array([0.1, -0.2, 0.3, 0.05])
        estimates = [estimate_diag_fisher(cls(X, targets), theta_star, 32, RandomSource(0))
                     for X in (features, features.astype(np.float64))]
        assert estimates[0][0].tobytes() == estimates[1][0].tobytes()

    def test_gaussian_mean_model_recovers_unit_fisher(self):
        # x ~ Normal(theta*, 1) as a 1-feature regression on a constant input:
        # dlog p / dtheta = (x - theta*), so the Fisher tends to 1
        n = 400_000
        theta_star = 0.7
        draws = RandomSource(300).child("obs").normal(n)
        task = LinearRegressionTask(np.ones((n, 1)), theta_star + draws)
        fisher, n_obs = estimate_diag_fisher(task, np.array([theta_star]),
                                             100_000, RandomSource(42))
        assert n_obs == n
        assert 0.99 <= fisher[0] <= 1.01

    def test_logistic_estimate_matches_analytic_diagonal(self):
        rng = RandomSource(31)
        dim, n = 4, 40_000
        w_true = rng.child("w").normal(dim)
        X = rng.child("x").normal((n, dim))
        z = X @ w_true
        p = 1.0 / (1.0 + np.exp(-z))
        y = (rng.child("y").uniform(size=n) < p).astype(np.float64)
        task = LogisticRegressionTask(X, y)
        analytic = np.mean((p * (1 - p))[:, None] * X * X, axis=0)
        fisher, _ = estimate_diag_fisher(task, w_true, 10_000, RandomSource(7))
        assert np.max(np.abs(fisher - analytic) / analytic) < 0.02

    def test_invariant_to_dataset_row_order(self):
        rng = RandomSource(55)
        X = rng.child("x").normal((500, 3))
        y = rng.child("y").normal(500)
        task = LinearRegressionTask(X, y)
        theta = rng.child("t").normal(3)
        fisher_a, _ = estimate_diag_fisher(task, theta, 4000, RandomSource(9))
        perm = RandomSource(66).permutation(500)
        task_b = LinearRegressionTask(X[perm], y[perm])
        # same draw indices hit permuted rows; estimates agree in distribution
        # and, averaged over the same multiset of rows, numerically too
        inv = np.empty(500, dtype=int)
        inv[perm] = np.arange(500)
        indices = RandomSource(9).child("fisher-samples").integers(0, 500, size=4000)
        grads_a = task.per_sample_loglik_grads(theta, indices)
        grads_b = task_b.per_sample_loglik_grads(theta, inv[indices])
        assert np.allclose(np.mean(grads_a**2, axis=0),
                           np.mean(grads_b**2, axis=0), rtol=1e-10)
        assert fisher_a.shape == (3,)

    def test_variance_quarters_when_sample_count_quadruples(self):
        # 1/sqrt(n) convergence: estimator variance scales like 1/n
        n_rows = 50_000
        draws = RandomSource(5).child("obs").normal(n_rows)
        task = LinearRegressionTask(np.ones((n_rows, 1)), 0.3 + draws)
        theta = np.array([0.3])
        small, large = [], []
        for seed in range(50):
            f_small, _ = estimate_diag_fisher(task, theta, 500, RandomSource(1000 + seed))
            f_large, _ = estimate_diag_fisher(task, theta, 2000, RandomSource(2000 + seed))
            small.append(f_small[0])
            large.append(f_large[0])
        ratio = np.var(large) / np.var(small)
        assert 0.25 * 0.75 <= ratio <= 0.25 * 1.25

    def test_quadratic_task_is_unsupported(self):
        task = gen_task("quadratic", 3, RandomSource(0))
        with pytest.raises(UnsupportedTaskError):
            estimate_diag_fisher(task, np.zeros(3), 10, RandomSource(0))

    @pytest.mark.parametrize("n_samples", [1, FISHER_BLOCK_ROWS - 1, FISHER_BLOCK_ROWS,
                                           FISHER_BLOCK_ROWS + 1, 3 * FISHER_BLOCK_ROWS + 17])
    @pytest.mark.parametrize("kind, dim", [(kind, 0 if kind == "mlp-1h" else 6)
                                           for kind in DATASET_KINDS]
                             + [("logistic-regression", 1)])
    def test_blocked_estimate_is_the_one_shot_mean(self, kind, dim, n_samples,
                                                   monkeypatch):
        task = gen_task(kind, dim, RandomSource(12), dim_in=3, hidden=4, classes=3,
                        n_samples=300)
        theta_star = RandomSource(13).normal(task.dim)
        indices = RandomSource(14).child("fisher-samples").integers(0, 300, size=n_samples)
        grads = task.per_sample_loglik_grads(theta_star, indices)
        expected = (grads * grads).mean(axis=0)
        blocks, per_sample = [], task.per_sample_loglik_grads

        def recording(theta, rows):
            block = per_sample(theta, rows)
            blocks.append(block.copy())
            return block

        monkeypatch.setattr(task, "per_sample_loglik_grads", recording)
        fisher, _ = estimate_diag_fisher(task, theta_star, n_samples, RandomSource(14))
        assert fisher.tobytes() == expected.tobytes()
        # the blocks hold the one-shot rows bit for bit, which a lone 1-row block
        # (NumPy's vector product) often would not; one rounding can hide that in the sum
        assert np.concatenate(blocks).tobytes() == grads.tobytes()
        # a d = 1 column is summed pairwise, not row by row, so it is one block
        assert len(blocks) == 1 if dim == 1 else max(map(len, blocks)) <= FISHER_BLOCK_ROWS + 1

    # one-shot: 16 MiB of per-sample gradients; 256 blocks: 2 MiB of row indices
    @pytest.mark.parametrize("n_samples", [32 * FISHER_BLOCK_ROWS, 256 * FISHER_BLOCK_ROWS])
    def test_estimate_memory_does_not_grow_with_the_sample_count(self, traced_peak, n_samples):
        dim = 64
        task = gen_task("logistic-regression", dim, RandomSource(15), n_samples=2048)
        theta_star = RandomSource(16).normal(dim)
        peak = traced_peak(lambda: estimate_diag_fisher(task, theta_star, n_samples,
                                                        RandomSource(17)))
        assert peak < 4 * FISHER_BLOCK_ROWS * dim * 8

    def test_mlp_per_sample_grads_square_to_batch_consistency(self):
        # mean per-sample log-lik gradient equals -batch gradient
        task = gen_task("mlp-1h", 0, RandomSource(71), dim_in=3, hidden=4, classes=3,
                        n_samples=50)
        theta = RandomSource(72).normal(task.dim)
        per_sample = task.per_sample_loglik_grads(theta, np.arange(50))
        _, batch_grad = task.loss_and_grad(theta, None)
        assert np.allclose(per_sample.mean(axis=0), -batch_grad, atol=1e-12)


def read_only_copies(arrays):
    """Copies of the arrays, which are made read-only, to compare them with later."""
    before = [a.copy() for a in arrays]
    for a in arrays:
        a.flags.writeable = False
    return before


class TestPurity:
    """The penalty terms and the Fisher estimate allocate what they return
    and write none of their inputs."""

    @pytest.mark.parametrize("rows", [1, 3], ids=["lone", "stacked"])
    @pytest.mark.parametrize("kind", ["none", "isotropic", "diagonal-fisher"])
    def test_penalty_terms_write_no_input(self, kind, rows):
        rng = np.random.default_rng(0)
        theta, theta_star, fisher = rng.normal(size=(rows, 5)), rng.normal(size=5), rng.random(5)
        gamma = np.full((rows, 1), 3.0)
        pen = PenaltyModel(kind, theta_star, gamma=2.0, fisher_diag=fisher, n_obs=7)
        inputs = [theta, theta_star, fisher, gamma]
        before = read_only_copies(inputs)
        outputs = [*_penalty_values(pen, theta[:, None], gamma), penalty_grad(pen, theta, gamma),
                   *_penalty_values(pen, theta), penalty_grad(pen, theta)]
        if rows == 1:
            outputs.append(penalty_grad(pen, theta[0]))
            assert penalty_loss(pen, theta[0]) == outputs[3][0]
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)
        for a in outputs:
            assert not any(np.shares_memory(a, b) for b in inputs)

    @pytest.mark.parametrize("kind", DATASET_KINDS)
    def test_fisher_estimate_writes_no_input(self, kind):
        task = gen_task(kind, 0 if kind == "mlp-1h" else 6, RandomSource(3), dim_in=3,
                        hidden=4, classes=3, n_samples=40)
        theta_star = RandomSource(4).normal(task.dim)
        inputs = [task.features, theta_star]
        before = read_only_copies(inputs)
        fisher, _ = estimate_diag_fisher(task, theta_star, 64, RandomSource(5))
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)
        assert fisher.shape == (task.dim,)


class TestAnalyticHessian:
    def test_identity_curvature(self):
        from recadamlab.tasks import QuadraticTask
        task = QuadraticTask(np.eye(3), np.zeros(3))
        # the gradient is linear, so its differences are the Hessian's columns
        grad0 = task.loss_and_grad(np.zeros(3))[1]
        hess = np.column_stack([task.loss_and_grad(e)[1] - grad0 for e in np.eye(3)])
        assert np.array_equal(hess, task.curvature)

    def test_laplace_expansion_reproduces_loss_exactly(self):
        task = gen_task("quadratic", 10, RandomSource(17))
        hess = task.curvature  # the exact Hessian of a quadratic task
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = task.center + rng.normal(size=10)
            expansion = 0.5 * (theta - task.center) @ hess @ (theta - task.center)
            loss, _ = task.loss_and_grad(theta)
            assert abs(expansion - loss) <= 1e-12 * max(1.0, abs(loss))


class TestIsotropicFit:
    def test_chain_slack_is_tracked(self, capsys):
        # isotropic-vs-diagonal approximation errors on a near-isotropic bowl;
        # measured and reported, not asserted as an ordering theorem
        rng = np.random.default_rng(12)
        dim = 6
        perturb = 0.05 * rng.normal(size=(dim, dim))
        A = 3.0 * np.eye(dim) + (perturb + perturb.T) / 2
        from recadamlab.tasks import QuadraticTask
        task = QuadraticTask(A, np.zeros(dim))
        gamma = np.mean(np.diag(task.curvature))  # least-squares scalar fit
        iso_err, diag_err, truths = [], [], []
        for _ in range(200):
            delta = rng.normal(size=dim)
            delta *= 0.1 / np.linalg.norm(delta)
            truth = 0.5 * delta @ A @ delta
            iso_err.append(abs(0.5 * gamma * delta @ delta - truth))
            diag_err.append(abs(0.5 * np.sum(np.diag(A) * delta * delta) - truth))
            truths.append(truth)
        iso_err, diag_err = np.mean(iso_err), np.mean(diag_err)
        print(f"approximation-chain slack: isotropic {iso_err:.3e}, "
              f"diagonal {diag_err:.3e}, mean truth {np.mean(truths):.3e}")
        assert iso_err < 0.2 * np.mean(truths)
        assert diag_err < 0.2 * np.mean(truths)

