"""Oracle layer: stream keys, the synthetic model, and the four
finite-difference samplers."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bvbal import (
    BiasOrder,
    NoisyFunction,
    StreamKey,
    SyntheticOracleSpec,
    bfd_sample,
    cfd_sample,
    ffd_sample,
    sp_sample,
    synthetic_sample,
)

from helpers import unit_spec


# ---------------------------------------------------------------- streams


def test_stream_key_is_deterministic():
    a = StreamKey(42).generator().standard_normal(8)
    b = StreamKey(42).generator().standard_normal(8)
    assert np.array_equal(a, b)


def test_stream_key_children_are_distinct():
    root = StreamKey(42)
    a = root.child(0).generator().standard_normal(8)
    b = root.child(1).generator().standard_normal(8)
    c = root.generator().standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_key_child_composes():
    root = StreamKey(7, (3,))
    assert root.child(1, 4).path == (3, 1, 4)
    assert root.child(1).child(4) == root.child(1, 4)


def test_stream_key_validation():
    with pytest.raises(ValueError):
        StreamKey(-1)
    with pytest.raises(ValueError):
        StreamKey(2**64)
    with pytest.raises(ValueError):
        StreamKey(3, (0, -2))
    StreamKey(2**64 - 1)  # top of the legal range


def test_bias_order_derived_exponents():
    order = BiasOrder(2.0, 1.0)
    assert order.alpha == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert order.mse_exponent == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert BiasOrder(1.0, 1.0).alpha == 0.25
    with pytest.raises(ValueError):
        BiasOrder(0.0, 1.0)
    with pytest.raises(ValueError):
        BiasOrder(2.0, -1.0)
    with pytest.raises(ValueError):
        BiasOrder(2.0, math.inf)


# ------------------------------------------------------- synthetic oracle


def test_noiseless_sample_is_the_mean():
    spec = unit_spec(q1=2.0, q2=1.0, theta=0.0, B=1.0, sigma=0.0)
    assert spec.sample(0.5, StreamKey(0))[0] == 0.25
    spec5 = unit_spec(theta=5.0, B=1e-3, sigma=0.0)
    assert spec5.sample(1e-8, StreamKey(0))[0] == pytest.approx(5.0, abs=1e-10)


@given(
    theta=st.floats(-10, 10),
    B=st.floats(-10, 10),
    hob=st.floats(-5, 5),
    q1=st.floats(0.5, 4),
    q2=st.floats(0.5, 4),
    delta=st.floats(0.05, 2.0),
)
# the bias terms cancel about 40x here, so an ulp of difference between
# two power routines would show as an 8e-15 relative error
@example(theta=0.0, B=3.25, hob=-1.75, q1=1.7651940034611098, q2=1.0, delta=1.8125)
def test_noiseless_sample_matches_mean_everywhere(theta, B, hob, q1, q2, delta):
    spec = unit_spec(q1=q1, q2=q2, theta=theta, B=B, sigma=0.0, hob=hob)
    draw = spec.sample(delta, StreamKey(11))
    # mean and sample share one mean expression
    assert np.allclose(draw, spec.mean(delta), rtol=5e-15, atol=1e-300)


def test_one_draw_replays_through_any_schedule():
    # samples mapped from one shared draw equal sample_path's, bit for bit,
    # and mapping leaves the draw untouched
    spec = SyntheticOracleSpec(
        theta=np.array([1.0, -2.0]), B=np.array([2.0, 0.5]),
        noise_scale=np.array([1.0, 3.0]), order=BiasOrder(2.0, 1.0),
        higher_order_bias=np.array([1.5, -0.7]),
    )
    key = StreamKey(23, (4, 1))
    n = 500
    z = spec.draw(n, key)
    before = z.copy()
    for deltas in (np.full(n, 0.3), np.geomspace(1.0, 0.01, n), 0.9 * np.arange(1, n + 1.0) ** -0.2):
        assert np.array_equal(spec.transform(deltas, z), spec.sample_path(deltas, key))
    assert np.array_equal(z, before)
    with pytest.raises(ValueError):
        spec.transform(np.full(n - 1, 0.3), z)


def test_mean_includes_higher_order_term():
    spec = unit_spec(q1=2.0, q2=1.0, theta=1.0, B=2.0, sigma=1.0, hob=1.5)
    assert spec.mean(0.3)[0] == pytest.approx(1.0 + 2.0 * 0.09 + 1.5 * 0.027, rel=1e-14)


def test_sample_moments_match_model():
    # 1e5 draws at delta = 0.3: mean within 4 se, variance within 10%
    spec = unit_spec(q1=2.0, q2=1.0, theta=1.0, B=2.0, sigma=1.0, hob=1.5)
    n = 100_000
    draws = spec.sample_path(np.full(n, 0.3), StreamKey(314))[:, 0]
    true_mean = spec.mean(0.3)[0]
    true_var = (1.0 / 0.3) ** 2
    se = math.sqrt(true_var / n)
    assert abs(draws.mean() - true_mean) < 4 * se
    assert abs(draws.var(ddof=1) - true_var) < 0.1 * true_var


def test_sample_variance_frozen_example():
    # sigma = 1, q2 = 1, delta = 0.1: per-draw variance 100, 1e6 draws
    spec = unit_spec(sigma=1.0)
    draws = spec.sample_path(np.full(1_000_000, 0.1), StreamKey(2024))[:, 0]
    assert abs(draws.var(ddof=1) - 100.0) < 1.0


def test_sample_path_prefix_is_reproducible():
    spec = unit_spec(sigma=2.0)
    deltas = np.geomspace(1.0, 0.1, 50)
    full = spec.sample_path(deltas, StreamKey(9, (4,)))
    head = spec.sample_path(deltas[:20], StreamKey(9, (4,)))
    assert np.array_equal(full[:20], head)


def test_sample_is_sample_path_of_length_one():
    spec = unit_spec(sigma=1.5)
    key = StreamKey(77)
    assert np.array_equal(spec.sample(0.4, key), spec.sample_path([0.4], key)[0])
    assert np.array_equal(synthetic_sample(spec, 0.4, key), spec.sample(0.4, key))


def test_spec_validation():
    order = BiasOrder(2.0, 1.0)
    with pytest.raises(ValueError):
        SyntheticOracleSpec(np.zeros(2), np.ones(3), np.ones(2), order)
    with pytest.raises(ValueError):
        SyntheticOracleSpec(np.zeros(1), np.ones(1), -np.ones(1), order)
    with pytest.raises(ValueError):
        SyntheticOracleSpec(np.zeros(2), np.ones(2), np.ones(2), order,
                            higher_order_bias=np.ones(3))
    with pytest.raises(ValueError):
        SyntheticOracleSpec(np.array([np.nan]), np.ones(1), np.ones(1), order)
    with pytest.raises(ValueError):
        unit_spec().sample(0.0, StreamKey(0))
    with pytest.raises(ValueError):
        unit_spec().sample_path(np.array([0.5, -0.1]), StreamKey(0))


def test_degenerate_flag():
    assert unit_spec(B=0.0).degenerate
    assert unit_spec(sigma=0.0).degenerate
    assert not unit_spec().degenerate
    two = SyntheticOracleSpec(np.zeros(2), np.array([0.0, 1.0]), np.ones(2),
                              BiasOrder(2.0, 1.0))
    assert not two.degenerate  # one nonzero coordinate is enough


# ------------------------------------------------- finite-difference eval


def _noiseless(expr):
    return NoisyFunction(lambda x, stream: expr(x), "noiseless test function")


def test_cfd_quadratic_frozen():
    f = _noiseless(lambda x: float(x[0] ** 2))
    assert cfd_sample(f, [1.0], 0, 0.5, StreamKey(0)) == 2.0


def test_cfd_cubic_frozen():
    # (1.1**3 - 0.9**3) / 0.2 = 3.01, the 3 x**2 + delta**2 curvature bias
    f = _noiseless(lambda x: float(x[0] ** 3))
    got = cfd_sample(f, [1.0], 0, 0.1, StreamKey(0))
    assert got == pytest.approx(3.01, rel=1e-12)


def test_ffd_bfd_quadratic_frozen():
    f = _noiseless(lambda x: float(x[0] ** 2))
    assert ffd_sample(f, [1.0], 0, 0.5, StreamKey(0)) == 2.5
    assert bfd_sample(f, [1.0], 0, 0.5, StreamKey(0)) == 1.5


def test_fd_constant_and_linear():
    const = _noiseless(lambda x: 3.25)
    lin = _noiseless(lambda x: float(4.0 * x[0] - 2.0))
    for sampler in (cfd_sample, ffd_sample, bfd_sample):
        assert sampler(const, [0.3], 0, 0.7, StreamKey(1)) == 0.0
        assert sampler(lin, [0.3], 0, 0.7, StreamKey(1)) == pytest.approx(4.0, rel=1e-14)


def test_fd_acts_on_one_coordinate():
    f = _noiseless(lambda x: float(x[0] ** 2 + 10.0 * x[1]))
    assert cfd_sample(f, [1.0, 5.0], 1, 0.25, StreamKey(0)) == pytest.approx(10.0, rel=1e-13)


def test_fd_child_slots_and_crn():
    def noisy(x, stream):
        return float(x[0] ** 2) + float(stream.generator().standard_normal())

    f = NoisyFunction(noisy, "x**2 plus unit noise")
    key = StreamKey(123)
    # crn shares child(0) between both evaluations, so the noise cancels
    assert cfd_sample(f, [1.0], 0, 0.5, key, crn=True) == pytest.approx(2.0, rel=1e-12)
    # independent evaluations keep the noise
    assert cfd_sample(f, [1.0], 0, 0.5, key, crn=False) != pytest.approx(2.0, rel=1e-6)
    # the exact child addresses are part of the contract
    z0 = float(StreamKey(123).child(0).generator().standard_normal())
    z1 = float(StreamKey(123).child(1).generator().standard_normal())
    expected = ((1.5**2 + z0) - (0.5**2 + z1)) / 1.0
    assert cfd_sample(f, [1.0], 0, 0.5, key) == expected


def test_fd_validation():
    f = _noiseless(lambda x: float(x[0]))
    with pytest.raises(ValueError):
        cfd_sample(f, [1.0], 0, 0.0, StreamKey(0))
    with pytest.raises(ValueError):
        cfd_sample(f, [1.0], 1, 0.1, StreamKey(0))
    with pytest.raises(ValueError):
        ffd_sample(f, [1.0], -1, 0.1, StreamKey(0))
    with pytest.raises(ValueError):
        bfd_sample(f, np.eye(2), 0, 0.1, StreamKey(0))


# -------------------------------------------- simultaneous perturbation


def test_sp_two_dim_hand_values():
    f = _noiseless(lambda x: float(x[0] + x[1]))
    got = sp_sample(f, [0.0, 0.0], 0.5, StreamKey(0), h=np.array([1.0, 1.0]))
    assert np.allclose(got, [2.0, 2.0], rtol=1e-14)
    got = sp_sample(f, [0.0, 0.0], 0.5, StreamKey(0), h=np.array([1.0, -1.0]))
    assert np.array_equal(got, [0.0, 0.0])


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_sp_affine_mean_over_directions_is_gradient(p):
    rng = np.random.default_rng(p)
    g = rng.normal(size=p)
    b = float(rng.normal())
    x = rng.normal(size=p)
    f = _noiseless(lambda y: float(g @ y + b))
    total = np.zeros(p)
    for signs in itertools.product((-1.0, 1.0), repeat=p):
        total += sp_sample(f, x, 0.3, StreamKey(0), h=np.array(signs))
    assert np.allclose(total / 2**p, g, rtol=1e-12, atol=1e-12)


def test_sp_pure_quadratic_vanishes_at_origin():
    f = _noiseless(lambda x: float(x @ x))
    for signs in itertools.product((-1.0, 1.0), repeat=3):
        got = sp_sample(f, np.zeros(3), 0.4, StreamKey(0), h=np.array(signs))
        assert np.allclose(got, 0.0, atol=1e-14)


def test_sp_components_share_one_difference():
    # both components are the same scalar difference divided by delta h_i
    def noisy(x, stream):
        return float(x[0] ** 2 + 3.0 * x[1] + stream.generator().standard_normal())

    f = NoisyFunction(noisy, "")
    got = sp_sample(f, [1.0, 2.0], 0.2, StreamKey(5))
    assert abs(got[0]) == pytest.approx(abs(got[1]), rel=1e-14)


def test_sp_drawn_direction_and_children_are_stable():
    f = _noiseless(lambda x: float(x[0] - x[1]))
    key = StreamKey(17)
    u = key.child(0).generator().random(2)
    h = np.where(u < 0.5, -1.0, 1.0)
    expected = sp_sample(f, [0.5, 0.5], 0.3, key, h=h)
    assert np.array_equal(sp_sample(f, [0.5, 0.5], 0.3, key), expected)


def test_sp_validation():
    f = _noiseless(lambda x: float(x[0]))
    with pytest.raises(ValueError):
        sp_sample(f, [1.0, 2.0], 0.3, StreamKey(0), h=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        sp_sample(f, [1.0, 2.0], 0.3, StreamKey(0), h=np.array([1.0]))
    with pytest.raises(ValueError):
        sp_sample(f, [1.0], 0.0, StreamKey(0))
    with pytest.raises(ValueError):
        sp_sample(f, np.eye(2), 0.1, StreamKey(0))


def test_noisy_function_coerces_to_float():
    f = NoisyFunction(lambda x, stream: np.float32(2.5), "constant")
    out = f([0.0], StreamKey(0))
    assert isinstance(out, float) and out == 2.5
    assert NoisyFunction(lambda x, s: 0.0).mean_description == ""
