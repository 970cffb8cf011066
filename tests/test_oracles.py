"""Oracle layer: stream keys, the synthetic model, and the
finite-difference oracle under its four schemes."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bvbal import (
    BatchedFunction,
    BiasOrder,
    FiniteDifferenceOracle,
    StreamKey,
    SyntheticOracleSpec,
)
from bvbal.oracles import SampleOracle

from helpers import check_prepared, difference_expression, synthetic_expression, unit_spec


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
    assert isinstance(spec, SampleOracle)
    z = spec.draw(n, key)
    before = z.copy()
    for deltas in (np.full(n, 0.3), np.geomspace(1.0, 0.01, n), 0.9 * np.arange(1, n + 1.0) ** -0.2):
        assert np.array_equal(spec.prepare(deltas).transform(z), spec.sample_path(deltas, key))
    assert np.array_equal(z, before)
    with pytest.raises(ValueError):
        spec.prepare(np.full(n - 1, 0.3)).transform(z)


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


def _fn(expr, x, noise=None):
    """A batched test function: ``expr`` of the point's coordinates plus
    ``noise`` of each (evaluation, draw) entry's single variate."""

    def fn(points, v):
        value = expr(*points) + (0.0 if noise is None else noise(v))
        return np.broadcast_to(value, v.shape[:2])

    return BatchedFunction(x, (1,), fn, _centre)


def _centre(u):
    # uniforms on [0, 1) -> noise on [-0.5, 0.5), in place
    np.subtract(u, 0.5, out=u)


def _fd(expr, x, scheme="cfd", coord=0, crn=False, noise=None):
    return FiniteDifferenceOracle(_fn(expr, x, noise), scheme, coord, crn)


def _unit_noise(v):
    return 10.0 * v[..., 0]


def test_cfd_quadratic_frozen():
    assert _fd(lambda x: x**2, [1.0]).sample(0.5, StreamKey(0))[0] == 2.0


def test_cfd_cubic_frozen():
    # (1.1**3 - 0.9**3) / 0.2 = 3.01, the 3 x**2 + delta**2 curvature bias
    got = _fd(lambda x: x**3, [1.0]).sample(0.1, StreamKey(0))[0]
    assert got == pytest.approx(3.01, rel=1e-12)


def test_ffd_bfd_quadratic_frozen():
    assert _fd(lambda x: x**2, [1.0], "ffd").sample(0.5, StreamKey(0))[0] == 2.5
    assert _fd(lambda x: x**2, [1.0], "bfd").sample(0.5, StreamKey(0))[0] == 1.5


def test_fd_constant_and_linear():
    for scheme in ("cfd", "ffd", "bfd"):
        const = _fd(lambda x: 3.25, [0.3], scheme)
        lin = _fd(lambda x: 4.0 * x - 2.0, [0.3], scheme)
        assert const.sample(0.7, StreamKey(1))[0] == 0.0
        assert lin.sample(0.7, StreamKey(1))[0] == pytest.approx(4.0, rel=1e-14)


def test_fd_acts_on_one_coordinate():
    oracle = _fd(lambda x, y: x**2 + 10.0 * y, [1.0, 5.0], coord=1)
    assert oracle.sample(0.25, StreamKey(0))[0] == pytest.approx(10.0, rel=1e-13)
    assert oracle.dim == 1


def test_fd_bias_orders():
    # the scheme fixes the bias order: one-sided differences keep the
    # first-order term, central differences and sp cancel it
    for scheme, q1 in (("cfd", 2.0), ("ffd", 1.0), ("bfd", 1.0), ("sp", 2.0)):
        assert _fd(lambda x: x, [1.0], scheme).order == BiasOrder(q1, 1.0)


def test_fd_child_slots_and_crn():
    key = StreamKey(123)
    x2 = lambda x: x**2  # noqa: E731
    # crn makes both evaluations read slot 0, so the noise cancels
    crn = _fd(x2, [1.0], crn=True, noise=_unit_noise)
    assert crn.sample(0.5, key)[0] == pytest.approx(2.0, rel=1e-12)
    # independent evaluations keep the noise
    plain = _fd(x2, [1.0], noise=_unit_noise)
    assert plain.sample(0.5, key)[0] != pytest.approx(2.0, rel=1e-6)
    # the block layout is part of the contract: row j holds one (1,)
    # variate block per slot, + evaluation first, prepared once
    u = StreamKey(123).generator().random((1, 2, 1))
    assert np.array_equal(plain.draw(1, key), u - 0.5)
    z0, z1 = 10.0 * (u[0, 0, 0] - 0.5), 10.0 * (u[0, 1, 0] - 0.5)
    expected = ((1.5**2 + z0) - (0.5**2 + z1)) / 1.0
    assert plain.sample(0.5, key)[0] == expected


def test_fd_validation():
    with pytest.raises(ValueError):
        _fd(lambda x: x, [1.0]).sample(0.0, StreamKey(0))
    with pytest.raises(ValueError):
        _fd(lambda x: x, [1.0], coord=1)
    with pytest.raises(ValueError):
        _fd(lambda x: x, [1.0], "ffd", coord=-1)
    with pytest.raises(ValueError):
        _fd(lambda x: x, np.eye(2), "bfd")
    with pytest.raises(ValueError):
        _fd(lambda x: x, [1.0], "fd")
    # a coordinate is an integer: a float would fail only at sampling,
    # and a bool would be read as 0 or 1
    for coord in (0.5, 1.0, True, False, "0", None):
        with pytest.raises(ValueError, match="coord must be an integer"):
            _fd(lambda x, y: x, [1.0, 2.0], coord=coord)
    assert _fd(lambda x, y: y, [1.0, 2.0], coord=np.int64(1)).sample(0.5, StreamKey(0)).shape == (1,)


def test_fd_positive_domain_caps_delta():
    # a positive function's perturbed coordinates must stay above 0:
    # only the schemes that step down are capped, by the moved coordinate
    f = BatchedFunction([2.0, 0.5], (1,), lambda pts, v: v[..., 0], positive=True)
    FiniteDifferenceOracle(f, "ffd", 1).sample(3.0, StreamKey(0))
    FiniteDifferenceOracle(f, "cfd", 0).sample(1.0, StreamKey(0))
    for scheme, coord, delta in (("cfd", 1, 0.5), ("bfd", 0, 2.0), ("sp", 0, 0.5)):
        with pytest.raises(ValueError):
            FiniteDifferenceOracle(f, scheme, coord).sample(delta, StreamKey(0))
    with pytest.raises(ValueError):
        BatchedFunction([1.0, 0.0], (1,), lambda pts, v: v[..., 0], positive=True)


# -------------------------------------------- simultaneous perturbation


def _sp_at(oracle, delta, signs):
    # an sp draw with its direction columns overwritten by ``signs``
    block = oracle.draw(1, StreamKey(0))
    block[:, :len(signs)] = signs
    return oracle.prepare([delta]).transform(block)[0]


def test_sp_two_dim_hand_values():
    oracle = _fd(lambda x, y: x + y, [0.0, 0.0], "sp")
    assert np.allclose(_sp_at(oracle, 0.5, [1.0, 1.0]), [2.0, 2.0], rtol=1e-14)
    assert np.array_equal(_sp_at(oracle, 0.5, [1.0, -1.0]), [0.0, 0.0])


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_sp_affine_mean_over_directions_is_gradient(p):
    rng = np.random.default_rng(p)
    g = rng.normal(size=p)
    b = float(rng.normal())
    x = rng.normal(size=p)
    oracle = _fd(lambda *y: sum(gi * yi for gi, yi in zip(g, y)) + b, x, "sp")
    total = np.zeros(p)
    for signs in itertools.product((-1.0, 1.0), repeat=p):
        total += _sp_at(oracle, 0.3, signs)
    assert np.allclose(total / 2**p, g, rtol=1e-12, atol=1e-12)


def test_sp_pure_quadratic_vanishes_at_origin():
    oracle = _fd(lambda *y: sum(yi * yi for yi in y), np.zeros(3), "sp")
    for signs in itertools.product((-1.0, 1.0), repeat=3):
        assert np.allclose(_sp_at(oracle, 0.4, signs), 0.0, atol=1e-14)


def test_sp_components_share_one_difference():
    # both components are the same scalar difference divided by delta h_i
    quad = lambda x, y: x**2 + 3.0 * y  # noqa: E731
    got = _fd(quad, [1.0, 2.0], "sp", noise=_unit_noise).sample(0.2, StreamKey(5))
    assert abs(got[0]) == pytest.approx(abs(got[1]), rel=1e-14)
    # under crn both evaluations read slot 0 and the noise cancels
    crn = _fd(quad, [1.0, 2.0], "sp", crn=True, noise=_unit_noise)
    h = crn.draw(1, StreamKey(5))[0, :2]
    assert np.allclose(crn.sample(0.2, StreamKey(5)), _sp_at(_fd(quad, [1.0, 2.0], "sp"), 0.2, h),
                       rtol=1e-12)


def test_sp_drawn_direction_and_children_are_stable():
    oracle = _fd(lambda x, y: x - y, [0.5, 0.5], "sp")
    key = StreamKey(17)
    # row layout: 2 direction uniforms, then one (1,) block per slot
    u = key.generator().random((1, 4))
    h = np.where(u[0, :2] < 0.5, -1.0, 1.0)
    block = oracle.draw(1, key)
    assert np.array_equal(block[0, :2], h)
    assert np.array_equal(block[0, 2:], u[0, 2:] - 0.5)
    assert np.array_equal(oracle.sample(0.3, key), _sp_at(oracle, 0.3, h))
    assert oracle.dim == 2 and oracle.sample_path([0.3, 0.2], key).shape == (2, 2)


def test_sp_validation():
    oracle = _fd(lambda x, y: x, [1.0, 2.0], "sp")
    with pytest.raises(ValueError):
        _sp_at(oracle, 0.3, [1.0, 0.5])
    with pytest.raises(ValueError):
        oracle.prepare([0.3]).transform(oracle.draw(1, StreamKey(0))[:, 1:])
    with pytest.raises(ValueError):
        oracle.sample(0.0, StreamKey(0))
    with pytest.raises(ValueError):
        _fd(lambda x: x, np.eye(2), "sp")


def test_fd_one_draw_replays_through_any_schedule():
    # every scheme: transform of one shared draw equals sample_path's,
    # and mapping leaves the draw untouched
    n = 200
    for scheme in ("cfd", "ffd", "bfd", "sp"):
        for crn in (False, True):
            oracle = _fd(lambda x, y: x * y, [1.0, 2.0], scheme, crn=crn, noise=_unit_noise)
            key = StreamKey(31, (2,))
            block = oracle.draw(n, key)
            before = block.copy()
            for deltas in (np.full(n, 0.2), np.geomspace(0.9, 0.01, n)):
                got = oracle.prepare(deltas).transform(block)
                assert np.array_equal(got, oracle.sample_path(deltas, key))
                contiguous = oracle.prepare(deltas).transform(np.ascontiguousarray(block))
                assert contiguous.tobytes() == got.tobytes()
            assert np.array_equal(block, before)


# ------------------------------------------------- prepared transforms


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("hob", [False, True])
@pytest.mark.parametrize("q", [(2.0, 1.0), (1.0, 1.0), (1.5, 0.5), (1.0, 2.0)])
def test_prepared_synthetic_transform_is_the_expression_bit_for_bit(dim, hob, q):
    rng = np.random.default_rng(5)
    spec = SyntheticOracleSpec(
        theta=rng.normal(size=dim), B=rng.normal(size=dim),
        noise_scale=rng.uniform(0.5, 2.0, dim), order=BiasOrder(*q),
        higher_order_bias=rng.normal(size=dim) if hob else None,
    )
    n = 1000
    schedules = [np.geomspace(1.7, 1e-3, n), 0.9 * np.arange(1, n + 1.0) ** -0.2]
    check_prepared(spec, synthetic_expression, spec.draw(n, StreamKey(8, (dim,))), schedules)


@pytest.mark.parametrize("q2", [1.0, 2.0, 0.5])
def test_prepared_synthetic_constants_are_read_only_and_reuse_the_schedule(q2):
    spec = SyntheticOracleSpec(theta=[0.5, 1.0], B=[1.0, -2.0], noise_scale=[1.0, 0.5],
                               order=BiasOrder(2.0, q2))
    deltas = np.geomspace(1.0, 1e-2, 50)
    prepared = spec.prepare(deltas)
    divisor, means = prepared.constants
    # at q2 = 1 the divisor is the schedule itself: no second n-vector
    assert np.shares_memory(divisor, prepared.deltas) == (q2 == 1.0)
    assert divisor.tobytes() == (deltas[:, None] ** q2).tobytes()
    assert means.shape == (50, 2)
    assert means[7].tobytes() == spec.mean(deltas[7]).tobytes()
    for arr in (divisor, means):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert deltas.flags.writeable  # the caller's schedule is left writeable


@pytest.mark.parametrize("scheme", ["cfd", "ffd", "bfd", "sp"])
@pytest.mark.parametrize("crn", [False, True])
def test_prepared_difference_transform_is_the_expression_bit_for_bit(scheme, crn):
    oracle = _fd(lambda x, y: x * y + x**3, [1.0, 2.0], scheme, 1, crn, _unit_noise)
    n = 400
    schedules = [np.geomspace(0.9, 0.01, n), np.full(n, 0.2)]
    check_prepared(oracle, difference_expression, oracle.draw(n, StreamKey(9)), schedules)


@pytest.mark.parametrize("scheme", ["cfd", "ffd", "bfd", "sp"])
@pytest.mark.parametrize("crn", [False, True])
def test_a_map_calls_fn_once_on_a_view_of_the_block(scheme, crn):
    # both evaluations of every draw are one fn call, whose variates are
    # the block's own memory with the evaluation slot first (stride 0
    # under crn); the moved coordinates arrive as (2, n) arrays and the
    # others as the base point's floats
    calls = []
    inner = _fn(lambda x, y: x * y + x**3, [1.0, 2.0], _unit_noise)

    def fn(points, v):
        calls.append((points, v))
        return inner.fn(points, v)

    oracle = FiniteDifferenceOracle(dataclasses.replace(inner, fn=fn), scheme, 1, crn)
    n = 50
    block = oracle.draw(n, StreamKey(10))
    for deltas in (np.geomspace(0.9, 0.01, n), np.full(n, 0.2)):
        calls.clear()
        oracle.prepare(deltas).transform(block)
        assert len(calls) == 1
        (points, v), = calls
        assert v.shape == (2, n, 1) and np.shares_memory(v, block)
        assert (v.strides[0] == 0) == crn
        for i, point in enumerate(points):
            if scheme == "sp" or i == 1:
                assert point.shape == (2, n)
            else:
                assert point == 1.0 and isinstance(point, float)


@pytest.mark.parametrize("scheme", ["cfd", "sp"])
def test_a_function_of_the_one_evaluation_contract_raises(scheme):
    # v[:, 0] was one evaluation's (n,) column; on (2, n, 1) variates it
    # is a (2, 1) array that would broadcast over the draws unchecked
    oracle = FiniteDifferenceOracle(BatchedFunction([1.0, 2.0], (1,), lambda pts, v: v[:, 0]),
                                    scheme)
    with pytest.raises(ValueError, match=r"fn must return shape \(2, 5\)"):
        oracle.sample_path(np.full(5, 0.1), StreamKey(0))


def test_prepared_transform_keeps_every_validation():
    spec = unit_spec()
    for bad in ([0.5, 0.0], [0.5, -0.1], np.ones((2, 2))):
        with pytest.raises(ValueError):
            spec.prepare(bad)
    with pytest.raises(ValueError):
        spec.prepare(np.full(3, 0.5)).transform(spec.draw(4, StreamKey(0)))
    f = BatchedFunction([2.0, 0.5], (1,), lambda pts, v: v[..., 0], positive=True)
    with pytest.raises(ValueError):  # the positive-coordinate cap
        FiniteDifferenceOracle(f, "cfd", 1).prepare([0.1, 0.5])
    sp = _fd(lambda x, y: x, [1.0, 2.0], "sp")
    prepared = sp.prepare([0.3])
    with pytest.raises(ValueError):  # wrong block shape
        prepared.transform(sp.draw(2, StreamKey(0)))
    block = sp.draw(1, StreamKey(0))
    block[:, 1] = 0.5
    with pytest.raises(ValueError):  # a direction that is not +-1
        prepared.transform(block)


# --------------------------------------------------- the shared contract


class _Shifted(SampleOracle):
    """The smallest oracle on the shared contract: uniforms shifted by
    their deltas, in two coordinates.  It defines only ``dim``, ``draw``
    and the three hooks, and its map asserts that it gets its output
    buffer; the contract checks its schedules."""

    dim = 2

    def draw(self, n, stream):
        return stream.generator().random((int(n), 2))

    def _block_shape(self, n):
        return (n, 2)

    def _constants(self, deltas):
        return deltas

    def _map(self, deltas, block, out):
        assert out.shape == (deltas.shape[0], 2)
        return np.add(block, deltas[:, None], out=out)


class _Duck:
    """An oracle by duck typing: the public names and none of the hooks."""

    dim = 1

    def draw(self, n, stream): ...

    def prepare(self, deltas): ...

    def sample_path(self, deltas, stream): ...

    def sample(self, delta, stream): ...


def test_an_oracle_with_only_its_hooks_inherits_the_contract():
    oracle = _Shifted()
    assert isinstance(oracle, SampleOracle) and isinstance(_Duck(), SampleOracle)
    n, key = 40, StreamKey(5, (2,))
    block = oracle.draw(n, key)
    check_prepared(oracle, lambda o, d, b: b + d[:, None], block,
                   [np.full(n, 0.5), np.geomspace(1.0, 0.1, n)])
    deltas = np.linspace(0.1, 2.0, n)
    prepared = oracle.prepare(deltas)
    assert oracle.sample_path(deltas, key).tobytes() == prepared.transform(block).tobytes()
    assert oracle.sample(0.3, key).tobytes() == oracle.sample_path([0.3], key)[0].tobytes()
    with pytest.raises(ValueError, match="variate block has shape"):
        prepared.transform(block[:-1])
    with pytest.raises(ValueError, match="positive"):
        oracle.sample_path([0.1, -1.0], key)
