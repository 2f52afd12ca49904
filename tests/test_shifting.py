import numpy as np
import pytest

from recadamlab.shifting import AnnealSchedule, composite_loss, lambda_at

# frozen with mpmath at 50 digits:
#   1/(1+exp(-0.1*(300-250))) = 0.99330714907571514444...
#   1/(1+exp(-0.1*(1-250)))   = 1.5348551671189766606e-11
LAMBDA_300 = 0.9933071490757153
LAMBDA_1 = 1.5348551671189767e-11


def test_midpoint_is_exactly_half_for_any_k():
    for k in (0.0, 0.05, 0.1, 1.0, 1000.0):
        assert lambda_at(AnnealSchedule(k=k, t0=250), 250) == 0.5


def test_k_zero_is_the_constant_multitask_mixture():
    sched = AnnealSchedule(k=0.0, t0=500)
    for t in (1, 100, 10**6):
        assert lambda_at(sched, t) == 0.5


def test_frozen_values():
    sched = AnnealSchedule(k=0.1, t0=250)
    assert lambda_at(sched, 300) == pytest.approx(LAMBDA_300, abs=1e-9)
    assert lambda_at(sched, 1) == pytest.approx(LAMBDA_1, rel=1e-12)


def test_strictly_increasing_for_positive_k():
    sched = AnnealSchedule(k=0.05, t0=250)
    values = [lambda_at(sched, t) for t in range(1, 700)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_symmetry_about_t0_within_1e15():
    sched = AnnealSchedule(k=0.013, t0=10_000)
    for delta in (1, 7, 93, 1024, 9999):
        total = lambda_at(sched, 10_000 + delta) + lambda_at(sched, 10_000 - delta)
        assert total == pytest.approx(1.0, abs=1e-15)


def test_finetuning_limit_underflows_to_exactly_one():
    sched = AnnealSchedule(k=1000.0, t0=100)
    for t in (101, 102, 500, 10**6):
        assert lambda_at(sched, t) == 1.0


def test_no_overflow_over_the_whole_operating_range():
    rng = np.random.default_rng(0)
    for _ in range(500):
        k = float(rng.uniform(0, 1000))
        t0 = int(rng.integers(0, 10**6))
        t = int(rng.integers(1, 10**7))
        lam = lambda_at(AnnealSchedule(k=k, t0=t0), t)
        assert 0.0 <= lam <= 1.0 and np.isfinite(lam)


def test_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(k=-0.1, t0=100)
    with pytest.raises(ValueError):
        AnnealSchedule(k=0.1, t0=-1)
    with pytest.raises(ValueError):
        lambda_at(AnnealSchedule(k=0.1, t0=100), 0)


def test_composite_loss():
    assert composite_loss(1.0, 2.0, 4.0) == 2.0
    assert composite_loss(0.0, 2.0, 4.0) == 4.0
    assert composite_loss(0.5, 2.0, 4.0) == 3.0
    with pytest.raises(ValueError):
        composite_loss(1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        composite_loss(-0.1, 1.0, 1.0)


def test_composite_loss_of_columns_is_the_scalar_call_per_element():
    rng = np.random.default_rng(0)
    lam = np.concatenate([[0.0, 1.0, 0.5], rng.random(200)])
    loss_t = np.concatenate([[np.inf, 1e308, -0.0], rng.normal(size=200) * 1e3])
    loss_s = np.concatenate([[2.0, 1e308, 0.0], rng.exponential(size=200)])
    mixed = composite_loss(lam, loss_t, loss_s)
    scalar = [composite_loss(*values) for values in zip(lam.tolist(), loss_t.tolist(),
                                                         loss_s.tolist())]
    assert mixed.tobytes() == np.array(scalar).tobytes()
    for bad in (1.5, np.nan):
        with pytest.raises(ValueError):
            composite_loss(np.array([0.5, bad]), np.ones(2), np.ones(2))
