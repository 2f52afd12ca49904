import numpy as np
import pytest

from recadamlab.errors import DimensionError, NumericError
from recadamlab.numkit import RandomSource
from recadamlab.optim import (AdamConfig, AdamState, ScheduleMultiplier,
                              adam_step, adamw_step, coupled_recadam_step,
                              recadam_step, recadam_step_parts,
                              schedule_multiplier)

from scalar_oracle import ScalarAdamOracle, quadratic_bowl_trace

DEFAULTS = AdamConfig(alpha=0.1)


def run_trace(stepper, theta0, grads, **kwargs):
    theta = np.array(theta0, dtype=np.float64)
    state = AdamState.fresh(theta.size)
    out = []
    for g in grads:
        theta, state = stepper(theta, state, **kwargs, grad=np.asarray(g, dtype=np.float64))
        out.append(theta)
    return out, state


class TestAdam:
    def test_zero_gradient_from_fresh_state_is_a_fixed_point(self):
        theta = np.array([1.0, -2.0])
        theta2, state = adam_step(theta, AdamState.fresh(2), DEFAULTS, 1.0, np.zeros(2))
        assert np.array_equal(theta2, theta)
        assert np.array_equal(state.m, np.zeros(2))
        assert np.array_equal(state.v, np.zeros(2))
        assert state.t == 1

    def test_first_step_on_scalar_bowl_matches_hand_value(self):
        theta, _ = adam_step(np.array([1.0]), AdamState.fresh(1), DEFAULTS, 1.0,
                             np.array([1.0]))
        # theta1 = 1 - 0.1 * 1 / (1 + 1e-8)
        assert theta[0] == pytest.approx(0.9000000010, abs=1e-9)

    def test_hundred_step_scalar_trace_matches_oracle(self):
        expected = quadratic_bowl_trace(100, alpha=0.1)
        theta = np.array([1.0])
        state = AdamState.fresh(1)
        for exp in expected:
            theta, state = adam_step(theta, state, DEFAULTS, 1.0, theta.copy())
            assert abs(theta[0] - exp) <= 1e-12

    def test_bias_correction_after_one_step_within_one_ulp(self):
        # mhat = ((1-b1)g)/(1-b1) and vhat = ((1-b2)g^2)/(1-b2) recover the raw
        # gradient and its square up to one double-rounding ulp
        rng = np.random.default_rng(3)
        g = rng.normal(size=1000) * 10.0 ** rng.uniform(-6, 6, 1000)
        cfg = AdamConfig(alpha=0.1)
        m = cfg.beta1 * 0.0 + (1 - cfg.beta1) * g
        mhat = m / (1 - cfg.beta1**1)
        assert np.all(np.abs(mhat - g) <= np.spacing(np.abs(g)))
        v = cfg.beta2 * 0.0 + (1 - cfg.beta2) * (g * g)
        vhat = v / (1 - cfg.beta2**1)
        assert np.all(np.abs(vhat - g * g) <= np.spacing(g * g))

    def test_second_moment_stays_nonnegative(self):
        rng = np.random.default_rng(5)
        theta = rng.normal(size=6)
        state = AdamState.fresh(6)
        for _ in range(200):
            theta, state = adam_step(theta, state, DEFAULTS, 1.0, rng.normal(size=6))
            assert np.all(state.v >= 0)

    def test_converges_on_strongly_convex_quadratic(self):
        # full-batch gradients; loss must dip below 1e-10 within 5000 steps
        rng = RandomSource(2)
        dim = 12
        M = rng.child("rot").normal((dim, dim))
        Q, R = np.linalg.qr(M)
        Q = Q * np.sign(np.diag(R))
        lam = 10.0 ** rng.child("eig").uniform(-1, 1, dim)
        A = (Q * lam) @ Q.T
        A = (A + A.T) / 2
        c = rng.child("c").normal(dim)
        theta = np.zeros(dim)
        state = AdamState.fresh(dim)
        best = np.inf
        for _ in range(5000):
            diff = theta - c
            best = min(best, 0.5 * float(diff @ A @ diff))
            theta, state = adam_step(theta, state, DEFAULTS, 1.0, A @ diff)
        assert best < 1e-10

    def test_nonfinite_gradient_raises_with_step_index(self):
        with pytest.raises(NumericError) as err:
            adam_step(np.zeros(2), AdamState.fresh(2), DEFAULTS, 1.0,
                      np.array([1.0, np.nan]))
        assert err.value.step == 1

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            adam_step(np.zeros(2), AdamState.fresh(2), DEFAULTS, 1.0, np.zeros(3))


class TestAdamW:
    def test_zero_decay_reduces_to_adam_bitwise(self):
        rng = np.random.default_rng(9)
        grads = rng.normal(size=(100, 4))
        theta0 = rng.normal(size=4)
        a_trace, _ = run_trace(adam_step, theta0, grads, config=DEFAULTS, eta_t=1.0)
        w_trace, _ = run_trace(
            lambda th, st, config, eta_t, grad: adamw_step(th, st, config, eta_t, grad, 0.0),
            theta0, grads, config=DEFAULTS, eta_t=1.0)
        for a, w in zip(a_trace, w_trace):
            assert np.array_equal(a, w)

    def test_pure_decay_step(self):
        theta, _ = adamw_step(np.array([1.0, 1.0]), AdamState.fresh(2), DEFAULTS,
                              1.0, np.zeros(2), weight_decay=0.01)
        assert np.array_equal(theta, [0.99, 0.99])

    def test_hundred_step_trace_matches_scalar_oracle(self):
        oracle = ScalarAdamOracle(alpha=0.05, weight_decay=0.02)
        theta = np.array([0.7])
        state = AdamState.fresh(1)
        cfg = AdamConfig(alpha=0.05)
        x = 0.7
        for _ in range(100):
            g = 0.3 * x  # gradient of 0.15 x^2, evaluated at the oracle point
            x = oracle.step(x, g, eta=0.9)
            theta, state = adamw_step(theta, state, cfg, 0.9,
                                      np.array([g]), weight_decay=0.02)
            assert abs(theta[0] - x) <= 1e-12

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            adamw_step(np.zeros(1), AdamState.fresh(1), DEFAULTS, 1.0,
                       np.zeros(1), weight_decay=-0.1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_decay_rejected(self, bad):
        with pytest.raises(ValueError):
            adamw_step(np.zeros(1), AdamState.fresh(1), DEFAULTS, 1.0,
                       np.zeros(1), weight_decay=bad)


class TestRecallVariants:
    def _random_inputs(self, seed, steps=100, dim=5):
        rng = np.random.default_rng(seed)
        return rng.normal(size=dim), rng.normal(size=(steps, dim)), rng.normal(size=dim)

    def test_recadam_lambda_one_reduces_to_adam_bitwise(self):
        theta0, grads, anchor = self._random_inputs(21)
        a_theta = theta0.copy()
        r_theta = theta0.copy()
        a_state = AdamState.fresh(5)
        r_state = AdamState.fresh(5)
        for g in grads:
            pen = 3.0 * (r_theta - anchor)
            a_theta, a_state = adam_step(a_theta, a_state, DEFAULTS, 1.0, g)
            r_theta, r_state = recadam_step(r_theta, r_state, DEFAULTS, 1.0, g,
                                            1.0, pen)
            assert np.array_equal(a_theta, r_theta)
            assert np.array_equal(a_state.m, r_state.m)
            assert np.array_equal(a_state.v, r_state.v)

    def test_coupled_lambda_one_reduces_to_adam_bitwise(self):
        theta0, grads, anchor = self._random_inputs(22)
        a_theta = theta0.copy()
        c_theta = theta0.copy()
        a_state = AdamState.fresh(5)
        c_state = AdamState.fresh(5)
        for g in grads:
            pen = 3.0 * (c_theta - anchor)
            a_theta, a_state = adam_step(a_theta, a_state, DEFAULTS, 1.0, g)
            c_theta, c_state = coupled_recadam_step(c_theta, c_state, DEFAULTS,
                                                    1.0, g, 1.0, pen)
            assert np.array_equal(a_theta, c_theta)

    def test_pure_recall_step_with_zero_gradient(self):
        theta = np.array([2.0, -1.0])
        pen = np.array([0.5, 0.25])
        theta2, state = recadam_step(theta, AdamState.fresh(2), DEFAULTS, 1.0,
                                     np.zeros(2), 0.5, pen)
        assert np.array_equal(theta2, theta - 0.5 * pen)
        assert np.array_equal(state.m, np.zeros(2))
        assert np.array_equal(state.v, np.zeros(2))

    def test_decoupling_invariant_every_coordinate_every_step(self):
        # the penalty displacement term equals eta*(1-lambda)*penalty_grad
        # exactly, and theta' = theta - (adam_term + penalty_term)
        rng = np.random.default_rng(23)
        theta = rng.normal(size=4)
        anchor = rng.normal(size=4)
        state = AdamState.fresh(4)
        for t in range(1, 101):
            g = rng.normal(size=4)
            lam = 1.0 / (1.0 + np.exp(-(0.1 * (t - 50))))
            eta = min(1.0, t / 40)
            pen = 2.5 * (theta - anchor)
            theta2, state2, adam_term, pen_term = recadam_step_parts(
                theta, state, DEFAULTS, eta, g, lam, pen)
            assert np.array_equal(pen_term, eta * ((1 - lam) * pen))
            assert np.array_equal(theta2, theta - (adam_term + pen_term))
            theta, state = theta2, state2

    @pytest.mark.parametrize("stepper", [recadam_step, coupled_recadam_step])
    @pytest.mark.parametrize("lambda_t", [1.5, np.nan, np.array([[0.5], [1.5], [0.2]])],
                             ids=["scalar-1.5", "scalar-nan", "column"])
    def test_lambda_outside_unit_interval_rejected(self, stepper, lambda_t):
        with pytest.raises(ValueError, match=r"lambda_t must lie in \[0, 1\]"):
            stepper(np.zeros((3, 2)), AdamState.fresh((3, 2)), DEFAULTS, 1.0,
                    np.ones((3, 2)), lambda_t, np.ones((3, 2)))

    @pytest.mark.parametrize("stepper", [recadam_step, coupled_recadam_step])
    def test_lambda_column_steps_each_row_as_its_scalar(self, stepper):
        # the training loop passes one lambda per run as an (S, 1) column
        rng = np.random.default_rng(24)
        theta, grad, pen, m = rng.normal(size=(4, 3, 5))
        state = AdamState(2, m, rng.random((3, 5)))
        lambdas = np.array([[0.0], [0.3], [1.0]])
        stacked, stacked_state = stepper(theta, state, DEFAULTS, 0.7, grad, lambdas, pen)
        for i in range(3):
            lone, lone_state = stepper(theta[i], AdamState(2, state.m[i], state.v[i]), DEFAULTS,
                                       0.7, grad[i], float(lambdas[i, 0]), pen[i])
            assert np.array_equal(stacked[i], lone)
            assert np.array_equal(stacked_state.m[i], lone_state.m)
            assert np.array_equal(stacked_state.v[i], lone_state.v)

    def test_recadam_moments_consume_raw_gradient_only(self):
        # identical gradients but a huge penalty: moments must match adam's
        rng = np.random.default_rng(24)
        theta_a = theta_r = rng.normal(size=3)
        state_a = AdamState.fresh(3)
        state_r = AdamState.fresh(3)
        g = rng.normal(size=3)
        _, state_a = adam_step(theta_a, state_a, DEFAULTS, 1.0, g)
        _, state_r = recadam_step(theta_r, state_r, DEFAULTS, 1.0, g, 0.5,
                                  np.full(3, 1e6))
        assert np.array_equal(state_a.m, state_r.m)
        assert np.array_equal(state_a.v, state_r.v)

    def test_coupled_penalty_is_rescaled_on_high_gradient_coordinate(self):
        # coordinate 0 sees 100x the gradient of coordinate 1; the penalty is
        # identical on both.  After moment warm-up, the coupled variant's
        # penalty-attributable displacement on coordinate 0 is < 0.5x that on
        # coordinate 1 (brute-force counterfactual decomposition), while the
        # decoupled variant penalizes both coordinates identically.
        cfg = AdamConfig(alpha=0.01)
        lam = 0.5
        pen = np.array([0.2, 0.2])
        grad = np.array([100.0, 1.0])
        theta = np.zeros(2)
        state = AdamState.fresh(2)
        for _ in range(50):
            theta, state = coupled_recadam_step(theta, state, cfg, 1.0, grad, lam, pen)
        with_pen, _ = coupled_recadam_step(theta, state, cfg, 1.0, grad, lam, pen)
        without_pen, _ = coupled_recadam_step(theta, state, cfg, 1.0, grad, lam,
                                              np.zeros(2))
        pen_displacement = np.abs(with_pen - without_pen)
        assert pen_displacement[0] < 0.5 * pen_displacement[1]

        _, _, _, pen_term = recadam_step_parts(theta, state, cfg, 1.0, grad, lam, pen)
        assert pen_term[0] == pen_term[1]

    def test_missing_penalty_grad_rejected(self):
        with pytest.raises(ValueError):
            recadam_step(np.zeros(2), AdamState.fresh(2), DEFAULTS, 1.0,
                         np.zeros(2), 0.5, None)
        with pytest.raises(ValueError):
            coupled_recadam_step(np.zeros(2), AdamState.fresh(2), DEFAULTS, 1.0,
                                 np.zeros(2), 1.5, np.zeros(2))

    @pytest.mark.parametrize("stepper", [recadam_step, coupled_recadam_step])
    def test_nonfinite_penalty_grad_raises_with_step_index(self, stepper):
        with pytest.raises(NumericError) as err:
            stepper(np.zeros(2), AdamState.fresh(2), DEFAULTS, 1.0, np.zeros(2), 0.5,
                    np.array([1.0, np.inf]))
        assert err.value.step == 1


class TestPurity:
    """The steppers allocate what they return and write none of their
    inputs, for one run (d,) and for a stack of runs (S, d): the inputs are
    read-only, keep their values, and share no memory with the outputs."""

    STEPPERS = {
        "adam": lambda th, st, g, lam, pg: adam_step(th, st, DEFAULTS, 0.5, g),
        "adamw": lambda th, st, g, lam, pg: adamw_step(th, st, DEFAULTS, 0.5, g, 0.01),
        "recadam": lambda th, st, g, lam, pg: recadam_step(th, st, DEFAULTS, 0.5, g, lam, pg),
        "recadam-coupled": lambda th, st, g, lam, pg: coupled_recadam_step(
            th, st, DEFAULTS, 0.5, g, lam, pg),
        "recadam-parts": lambda th, st, g, lam, pg: recadam_step_parts(
            th, st, DEFAULTS, 0.5, g, lam, pg),
    }

    @pytest.mark.parametrize("shape", [(5,), (3, 5)], ids=["lone", "stacked"])
    @pytest.mark.parametrize("stepper", sorted(STEPPERS))
    def test_stepper_writes_no_input(self, stepper, shape):
        rng = np.random.default_rng(0)
        theta, m, grad, pgrad = (rng.normal(size=shape) for _ in range(4))
        v = rng.random(shape)
        lam = 0.3 if len(shape) == 1 else np.array([[0.2], [0.5], [0.9]])
        inputs = [theta, m, v, grad, pgrad] + ([] if len(shape) == 1 else [lam])
        before = [a.copy() for a in inputs]
        for a in inputs:
            a.flags.writeable = False
        state = AdamState(4, m, v)
        out = self.STEPPERS[stepper](theta, state, grad, lam, pgrad)
        outputs = [out[0], out[1].m, out[1].v, *out[2:]]
        assert state.t == 4 and state.m is m and state.v is v
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)
        for a in outputs:
            assert a.shape == shape
            assert not any(np.shares_memory(a, b) for b in inputs + outputs if b is not a)


class TestSchedule:
    def test_constant(self):
        sched = ScheduleMultiplier("constant")
        assert schedule_multiplier(sched, 1) == 1.0
        assert schedule_multiplier(sched, 10**7) == 1.0

    def test_warmup_midpoint(self):
        sched = ScheduleMultiplier("linear-warmup-constant", warmup_steps=100)
        assert schedule_multiplier(sched, 50) == 0.5
        assert schedule_multiplier(sched, 100) == 1.0
        assert schedule_multiplier(sched, 5000) == 1.0

    def test_warmup_then_linear_decay(self):
        sched = ScheduleMultiplier("linear-warmup-linear-decay",
                                   warmup_steps=100, total_steps=1000)
        assert schedule_multiplier(sched, 550) == pytest.approx(0.5, abs=1e-15)
        assert schedule_multiplier(sched, 100) == 1.0
        assert schedule_multiplier(sched, 1000) == 0.0
        assert schedule_multiplier(sched, 2000) == 0.0

    def test_bounds_and_errors(self):
        sched = ScheduleMultiplier("linear-warmup-constant", warmup_steps=7)
        for t in range(1, 30):
            assert 0.0 <= schedule_multiplier(sched, t) <= 1.0
        with pytest.raises(ValueError):
            schedule_multiplier(sched, 0)
        with pytest.raises(ValueError):
            ScheduleMultiplier("linear-warmup-linear-decay", warmup_steps=10,
                               total_steps=10)
        with pytest.raises(ValueError):
            ScheduleMultiplier("cosine")

    @pytest.mark.parametrize("build, message", [
        (lambda: AdamState(t=-1, m=np.zeros(2), v=np.zeros(2)), "step counter"),
        (lambda: ScheduleMultiplier("linear-warmup-constant", warmup_steps=-1),
         "warmup_steps"),
    ], ids=["negative-step-counter", "negative-warmup"])
    def test_negative_counts_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestAdamConfig:
    def test_defaults_match_contract(self):
        cfg = AdamConfig(alpha=0.001)
        assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdamConfig(alpha=0.0)
        with pytest.raises(ValueError):
            AdamConfig(alpha=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            AdamConfig(alpha=0.1, eps=0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("field", ["alpha", "eps"])
    def test_nonfinite_values_rejected(self, field, bad):
        with pytest.raises(ValueError):
            AdamConfig(**{"alpha": 0.1, field: bad})
