import numpy as np
import pytest

from recadamlab.errors import DimensionError, NumericError
from recadamlab.numkit import RandomSource, ensure_finite, l2_distance

# frozen with mpmath (50 digits): sqrt(1000) = 31.62277660168379331998...
SQRT_1000 = 31.622776601683793


def test_l2_identity_is_exactly_zero():
    a = np.array([0.3, -1.7, 2.2])
    assert l2_distance(a, a) == 0.0


def test_l2_three_four_five():
    assert l2_distance(np.array([3.0, 0.0]), np.array([0.0, 4.0])) == 5.0


def test_l2_high_dim_frozen_value():
    ones = np.ones(1000)
    zeros = np.zeros(1000)
    assert l2_distance(ones, zeros) == pytest.approx(SQRT_1000, rel=1e-12)


def test_l2_symmetry_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=17)
        b = rng.normal(size=17)
        assert l2_distance(a, b) == l2_distance(b, a)


def test_l2_triangle_inequality_within_4_ulp():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a, b, c = (rng.normal(size=8) * 10 ** rng.uniform(-3, 3) for _ in range(3))
        lhs = l2_distance(a, c)
        rhs = l2_distance(a, b) + l2_distance(b, c)
        assert lhs <= rhs + 4 * np.spacing(rhs)


def test_l2_length_mismatch():
    with pytest.raises(DimensionError):
        l2_distance(np.array([1.0]), np.array([1.0, 2.0]))


def test_random_source_same_seed_same_stream():
    a = RandomSource(12345).normal(10_000)
    b = RandomSource(12345).normal(10_000)
    assert np.array_equal(a, b)


def test_random_source_children_are_labelled_and_stable():
    parent = RandomSource(99)
    first = parent.child("data").normal(100)
    parent.normal(1000)  # consuming the parent must not move child streams
    second = parent.child("data").normal(100)
    assert np.array_equal(first, second)
    other = parent.child("init").normal(100)
    assert not np.array_equal(first, other)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, -3])
def test_random_source_draws_are_philox_draws(seed):
    source = RandomSource(seed)
    source.child("batches")  # deriving a child must not build or move the stream
    assert "_gen" not in vars(source)
    gen = np.random.Generator(np.random.Philox(seed & (2**64 - 1)))
    draws = [source.normal(50, scale=0.5), source.uniform(-1.0, 2.0, 30),
             source.integers(0, 1000, 40), source.permutation(25), source.normal()]
    expected = [0.5 * gen.standard_normal(50), gen.uniform(-1.0, 2.0, 30),
                gen.integers(0, 1000, size=40), gen.permutation(25), gen.standard_normal()]
    for got, want in zip(draws, expected):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("n", [7, 8192, 2**31 + 5, 2**40])
@pytest.mark.parametrize("chunks", [(1, 1, 1), (1, 2, 3, 1), (5, 1, 2),
                                    (1024, 1024, 1025), (1023, 1, 1024, 17), (1, 3089)])
def test_chunked_integer_draws_are_one_draw(n, chunks):
    """Integers drawn a chunk at a time are the integers of one draw of the
    total, odd chunks and 32-bit ranges included: estimate_diag_fisher draws
    its row indices one block at a time."""
    source = RandomSource(23)
    chunked = np.concatenate([source.integers(0, n, size=c) for c in chunks])
    assert chunked.tobytes() == RandomSource(23).integers(0, n, size=sum(chunks)).tobytes()


def test_random_source_child_streams_look_independent():
    parent = RandomSource(5)
    a = parent.child("a").normal(20_000)
    b = parent.child("b").normal(20_000)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02



def test_ensure_finite_always_checks():
    ensure_finite(np.array([1.0, -2.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericError) as err:
            ensure_finite(np.array([1.0, bad]), step=7)
        assert err.value.step == 7
        assert err.value.rows.shape == () and not err.value.rows  # one vector: one row
        stack = np.ones((3, 4))
        stack[1, 2] = bad
        with pytest.raises(NumericError) as err:
            ensure_finite(stack)
        assert err.value.rows.tolist() == [True, False, True]
