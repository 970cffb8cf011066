"""Calibration layer: power sums, the two-decay constraint system, the
minimax weight solver, and the closed-form risk-ratio limits."""

import dataclasses
import gc
import hashlib
import itertools
import math
import sys
import threading
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bvbal.calibration as calibration
from bvbal import BiasOrder, InfeasibleError
from bvbal.calibration import (
    _BLOCK,
    WeightScheme,
    WeightSolution,
    _bounded_sums,
    _exact_sum,
    _exact_sums,
    _ExactSum,
    _memo,
    amrr_general,
    amrr_recursive_free,
    amrr_recursive_tied,
    brute_force_weights,
    eta_balance,
    feasible_intervals,
    optimal_weights,
    phi_sum,
    pilot_a,
    solve_a_star,
    solve_weights,
    weight_decay_exponents,
    xi_matrix,
    ztilde_squared,
)

Q21 = BiasOrder(2.0, 1.0)
Q11 = BiasOrder(1.0, 1.0)


def objective(a, xi):
    """Size-free worst-case risk recomputed from public pieces."""
    q1, q2 = xi.order.q1, xi.order.q2
    s = q1 + q2
    return np.abs(a) ** (2.0 * q2 / s) * ztilde_squared(a, xi) ** (q1 / s)


# ------------------------------------------------------------- power sums


def test_phi_sum_hand_values():
    assert phi_sum(1.0, 3) == pytest.approx(11.0 / 6.0, rel=1e-15)
    assert phi_sum(-1.0, 3) == 6.0
    assert phi_sum(0.5, 2, n0=5) == pytest.approx(6.0**-0.5 + 7.0**-0.5, rel=1e-15)
    assert phi_sum(0.0, 7) == 7.0


def test_phi_sum_validation():
    with pytest.raises(ValueError):
        phi_sum(1.0, 0)
    with pytest.raises(ValueError):
        phi_sum(1.0, 5, n0=-1)
    with pytest.raises(ValueError):
        phi_sum(math.nan, 5)


# ----------------------------------------------------- exact-sum kernel

_MIXED = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 900))
_FINITE = st.floats(-(2.0**900), 2.0**900)  # subnormals included


def _fsum_outcome(fn, x):
    try:
        return fn(x).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.one_of(_MIXED, _FINITE), max_size=60),
    cancel=st.integers(0, 60),
    reps=st.integers(1, 700),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_sum_is_fsum_bit_for_bit(values, cancel, reps, seed):
    # mixed exponents, subnormals and cancelling +- pairs, tiled across
    # block boundaries and shuffled
    x = np.tile(np.array(values + [-v for v in values[:cancel]], dtype=float), reps)
    np.random.default_rng(seed).shuffle(x)
    assert _exact_sum(x).hex() == math.fsum(x).hex()


@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_exact_sum_at_block_boundaries(size):
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size) * 2.0 ** rng.integers(-60, 60, size).astype(float)
    x[-1] = -math.fsum(x[:-1]) * 0.999  # heavy cancellation across blocks
    assert _exact_sum(x).hex() == math.fsum(x).hex()
    j = np.arange(1, size + 1, dtype=float) + 500
    y = -0.0128 * j ** (-5.0 / 6.0) + 0.00246 * j ** (-1.0 / 3.0)  # two-decay weights
    assert _exact_sum(y).hex() == math.fsum(y).hex()


def test_exact_sum_falls_back_for_the_whole_input():
    rng = np.random.default_rng(7)
    tiny = rng.integers(1, 2**52, 3 * _BLOCK + 5) * 2.0**-1074
    tiny *= rng.choice([-1.0, 1.0], tiny.shape[0])
    assert _exact_sum(tiny).hex() == math.fsum(tiny).hex()
    # a block that needs a subnormal grid beside a block that holds half an
    # ulp of 1: summing the first block on its own rounds 1 + 2**-1060 to 1,
    # and then 1 + 2**-53 ties to even, which is 2**-52 below the true sum
    x = np.zeros(2 * _BLOCK)
    x[0], x[1], x[_BLOCK] = 1.0, 2.0**-1060, 2.0**-53
    for arr in (x, x[::-1].copy()):
        assert _exact_sum(arr) == math.fsum(arr) == 1.0 + 2.0**-52


def _passes(x):
    """The exact sum of x through one `_ExactSum`, the number of
    extraction passes it made, and whether it fell back to fsum."""
    (total,) = _exact_sums(x.shape[0], lambda lo, hi: (x[lo:hi],), 1)
    return total.value(), len(total._parts), total._fallback


def test_exact_sum_jumps_to_the_residual_exponent():
    # each pass takes its grid from the residual's own largest magnitude:
    # two clusters 600 binades apart take one pass each, where stepping
    # the grid down a fixed 44 binades per pass took 15 passes
    rng = np.random.default_rng(3)
    high = rng.integers(-(2**20), 2**20, 100).astype(float)
    x = np.concatenate([high, high[::-1] * 2.0**-600])
    rng.shuffle(x)
    total, passes, fallback = _passes(x)
    assert total.hex() == math.fsum(x).hex()
    assert (passes, fallback) == (2, False)
    # with subnormals among them, the block falls back after the two
    # clusters' passes (stepping down made 23 first), with fsum's bits
    x[::3] = rng.integers(1, 2**52, x[::3].shape[0]) * 2.0**-1074
    total, passes, fallback = _passes(x)
    assert total.hex() == math.fsum(x).hex()
    assert (passes, fallback) == (2, True)


_SPREAD = st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.sampled_from([0, -600, -1100]))


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.one_of(_SPREAD, st.sampled_from([0.0, -0.0, 5e-324, -5e-324])),
                    min_size=1, max_size=80),
    reps=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_sum_of_wide_and_subnormal_blocks_is_fsum(values, reps, seed):
    # integers at three scales 500-600 binades apart (the lowest one
    # subnormal), signed zeros and the smallest subnormals, in mixed
    # signs, tiled across block boundaries and shuffled
    x = np.tile(np.array(values, dtype=float), reps)
    np.random.default_rng(seed).shuffle(x)
    assert _exact_sum(x).hex() == math.fsum(x).hex()


@pytest.mark.parametrize(
    "values",
    [[math.inf, 1.0], [math.nan], [math.inf, -math.inf], [1e308, 1e308],
     [], [0.0] * (_BLOCK + 1), [-0.0], [-0.0] * (_BLOCK + 1), [0.0, -0.0]],
    ids=["inf", "nan", "inf-inf", "overflow", "empty", "zeros", "neg-zero",
         "neg-zeros", "mixed-zeros"],
)
def test_exact_sum_edge_cases_match_fsum(values):
    x = np.array(values, dtype=float)
    assert _fsum_outcome(_exact_sum, x) == _fsum_outcome(math.fsum, x)


@pytest.mark.parametrize(
    "values",
    [[], [0.0] * (3 * _BLOCK + 1), [-0.0] * (3 * _BLOCK + 1),
     [-0.0] * (3 * _BLOCK) + [0.0], [0.0] + [-0.0] * (2 * _BLOCK)],
    ids=["empty", "zeros", "neg-zeros", "neg-then-zero", "zero-then-neg"],
)
def test_exact_sum_of_zeros_is_fsums_zero_directly(values, monkeypatch):
    # an all-zero input returns fsum's zero, sign included, without
    # handing the whole input to fsum after the scan
    x = np.array(values, dtype=float)
    want = math.fsum(x)
    fsum, lengths = math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda v: (lengths.append(len(v)), fsum(v))[1])
    assert _exact_sum(x).hex() == want.hex()
    assert max(lengths, default=0) <= 1


# ------------------------------------------- streaming exact-sum kernel


def _adversarial_streams(size):
    """Term streams of one length that reach every branch of the kernel:
    cancellation across blocks, signed zeros, inf, nan, values at and past
    2**960, subnormals and blocks spanning hundreds of binades."""
    rng = np.random.default_rng(size)
    spread = rng.standard_normal(size) * 2.0 ** rng.integers(-60, 60, size).astype(float)
    spread[-1] = -math.fsum(spread[:-1]) * 0.999
    zeros = np.where(rng.random(size) < 0.5, -0.0, 0.0)
    neg_zeros = np.full(size, -0.0)
    late_zero = neg_zeros.copy()
    late_zero[-1] = 0.0
    one_value = zeros.copy()
    one_value[size // 3] = -3.5
    inf = spread.copy()
    inf[-2] = math.inf
    inf_inf = np.zeros(size)
    inf_inf[0], inf_inf[-1] = math.inf, -math.inf
    nan = spread.copy()
    nan[size // 2] = math.nan
    huge = rng.standard_normal(size)
    huge[1], huge[-1] = 2.0**960, -(2.0**960)
    overflow = np.full(size, 1e308)
    subnormal = rng.integers(1, 2**52, size) * 2.0**-1074 * rng.choice([-1.0, 1.0], size)
    binades = rng.standard_normal(size) * 2.0 ** rng.integers(-1000, 1000, size).astype(float)
    return [spread, zeros, neg_zeros, late_zero, one_value, inf, inf_inf, nan,
            huge, overflow, subnormal, binades]


@pytest.mark.parametrize("size", [5, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 1])
def test_streamed_sums_are_fsum_bit_for_bit(size):
    # every stream is copied into one shared block buffer, as the solver's
    # passes reuse theirs, and each sum is fsum's outcome over its stream
    streams = _adversarial_streams(size)
    buf = np.empty(_BLOCK)

    def blocks(lo, hi):
        for x in streams:
            b = buf[: hi - lo]
            b[:] = x[lo:hi]
            yield b

    sums = _exact_sums(size, blocks, len(streams))
    for x, total in zip(streams, sums):
        assert _fsum_outcome(lambda _: total.value(), x) == _fsum_outcome(math.fsum, x)


def test_streamed_sums_fall_back_lazily_in_the_callers_order():
    # fsum's exception for a stream comes only when that stream's value is
    # asked for, so a caller that checks one sum before the next raises
    # what the unstreamed code raised
    streams = [np.array([math.inf, -math.inf]), np.array([1e308, 1e308]), np.array([1.0, 2.0])]
    first, second, third = _exact_sums(2, lambda lo, hi: (x[lo:hi] for x in streams), 3)
    assert third.value() == 3.0
    with pytest.raises(OverflowError):
        second.value()
    with pytest.raises(ValueError):
        first.value()


# ------------------------------------------------------ bounded-sum pass


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.one_of(_SPREAD, st.sampled_from([0.0, -0.0, 5e-324, -5e-324])),
                    min_size=1, max_size=80),
    size=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 40_000]),
    poison=st.sampled_from([None, math.inf, -math.inf, math.nan]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bounded_sum_brackets_fsum(values, size, poison, seed):
    # the inputs of the exact kernel's wide-and-subnormal test, at lengths
    # around the block edges: the estimate is within its bound of fsum's
    # correctly rounded sum, and any inf or nan leaves the pass undecided
    rng = np.random.default_rng(seed)
    x = np.resize(np.array(values, dtype=float), size)
    rng.shuffle(x)
    if poison is not None:
        x[rng.integers(size)] = poison
    bounded = _bounded_sums(size, lambda: lambda lo, hi: (x[lo:hi], -x[lo:hi]), 2)
    if poison is not None:
        assert bounded is None
        return
    want = math.fsum(x)
    for (total, bound), sign in zip(bounded, (1.0, -1.0)):
        assert abs(total - sign * want) <= bound


def test_bounded_sum_is_undecided_when_a_total_is_not_finite():
    # finite block sums whose total overflows, a block sum that overflows,
    # and infinities of both signs in different blocks
    x = np.zeros(2 * _BLOCK)
    x[0] = x[_BLOCK] = 1e308
    y = np.zeros(2 * _BLOCK)
    y[0], y[_BLOCK] = math.inf, -math.inf
    for z in (x, x[: _BLOCK + 1][::-1].copy(), y):
        assert _bounded_sums(z.shape[0], lambda: lambda lo, hi: (z[lo:hi],), 1) is None
    one = np.ones(3)
    assert _bounded_sums(3, lambda: lambda lo, hi: (one[lo:hi], one[lo:hi] * 1e308), 2) is None


def _fsum_phi(kappa, n, n0):
    """`math.fsum` of all n terms (j + n0)**(-kappa) of one arange: the
    bits `phi_sum` must return at every n.  At n <= 2**20 they are also
    the bits of the phi_sum that rounded each run of 2**20 terms, then
    the run sums."""
    return math.fsum(np.power(np.arange(1 + n0, n + 1 + n0, dtype=float), -kappa).tolist())


@pytest.mark.parametrize("kappa, n, n0", [
    (0.5, (1 << 20) - 1, 0), (1.0, (1 << 20) + 1, 500), (2.0 / 3.0, 3_000_000, 7),
    (1.0, 10, 2**53 + 1), (-400.0, 100, 0), (300.0, 50, 1000),
], ids=["2^20-1", "2^20+1", "3e6", "past-2^53", "inf", "subnormal"])
def test_phi_sum_keeps_the_two_level_bits(kappa, n, n0):
    if n + n0 > 2**53:
        # past 2**53 the terms' j + n0 are not exact doubles, so there are
        # no bits to keep: the budget is rejected
        with pytest.raises(ValueError, match=r"n \+ n0 must be at most 2\*\*53"):
            phi_sum(kappa, n, n0)
        return
    with np.errstate(over="ignore"):
        assert phi_sum(kappa, n, n0).hex() == _fsum_phi(kappa, n, n0).hex()


@pytest.mark.parametrize("order, n, n0", [
    (Q21, (1 << 20) + 1, 0), (BiasOrder(1.5, 0.7), (1 << 20) - 1, 500), (Q11, 3_000_000, 7),
], ids=["2^20+1", "2^20-1", "3e6"])
def test_xi_matrix_one_pass_keeps_the_two_level_bits(order, n, n0):
    xi = xi_matrix(order, n, n0)
    kf, ks = weight_decay_exponents(order)
    want = [_fsum_phi(kappa, n, n0).hex() for kappa in (1.0, kf, ks)]
    assert [xi.phi11.hex(), xi.phi12.hex(), xi.phi22.hex()] == want


def test_optimal_weights_holds_one_n_length_array():
    # the solver's passes run through block buffers: the weights are the
    # only n-length array, so the peak stays near their 8n bytes (numpy
    # reports its data buffers to tracemalloc)
    n = 200_000
    optimal_weights(1_000, 0, Q21, 2.0)
    _memo.clear()  # measure a cold solve
    tracemalloc.start()
    try:
        optimal_weights(n, 0, Q21, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n


def test_weight_decay_exponents():
    assert weight_decay_exponents(Q21) == (pytest.approx(2.0 / 3.0), pytest.approx(1.0 / 3.0))
    assert weight_decay_exponents(Q11) == (pytest.approx(0.75), pytest.approx(0.5))


# ------------------------------------------------- constraint Gram matrix


def test_xi_matrix_hand_inverse_n2():
    xi = xi_matrix(Q21, 2)
    p11, p12, p22 = 1.5, 1.0 + 2.0 ** (-2.0 / 3.0), 1.0 + 2.0 ** (-1.0 / 3.0)
    assert xi.phi11 == pytest.approx(p11, rel=1e-15)
    assert xi.phi12 == pytest.approx(p12, rel=1e-15)
    assert xi.phi22 == pytest.approx(p22, rel=1e-15)
    det = p11 * p22 - p12 * p12
    assert xi.xi11 == pytest.approx(p22 / det, rel=1e-13)
    assert xi.xi12 == pytest.approx(-p12 / det, rel=1e-13)
    assert xi.xi22 == pytest.approx(p11 / det, rel=1e-13)


@given(
    n=st.integers(2, 2000),
    n0=st.integers(0, 500),
    q1=st.floats(0.5, 3.0),
    q2=st.floats(0.5, 3.0),
)
def test_xi_matrix_inverts_phi(n, n0, q1, q2):
    xi = xi_matrix(BiasOrder(q1, q2), n, n0)
    phi = xi.phi_array()
    # tiny n at large n0 makes the rows nearly collinear and caps the
    # attainable product error at cond * eps; 1e-8 is ample elsewhere
    tol = max(1e-8, 64.0 * np.finfo(float).eps * np.linalg.cond(phi))
    inverse = np.array([[xi.xi11, xi.xi12], [xi.xi12, xi.xi22]])
    assert np.allclose(phi @ inverse, np.eye(2), atol=tol)


def test_xi_matrix_validation():
    with pytest.raises(ValueError, match="singular"):
        xi_matrix(Q21, 1)
    with pytest.raises(ValueError):
        xi_matrix(Q21, 10, n0=-3)


def test_ztilde_is_the_constraint_quadratic():
    xi = xi_matrix(Q21, 50)
    for a in (-1.3, 0.2, 4.0):
        quadratic = xi.xi11 * a * a + 2.0 * xi.xi12 * a + xi.xi22
        assert ztilde_squared(a, xi) == pytest.approx(quadratic, rel=1e-13)
    arr = ztilde_squared(np.array([-1.3, 0.2]), xi)
    assert arr.shape == (2,)


@given(
    n=st.integers(3, 50),
    n0=st.sampled_from([0, 5]),
    q1=st.floats(0.5, 3.0),
    q2=st.floats(0.5, 3.0),
    mag=st.floats(0.01, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=60)
def test_two_decay_weights_match_raw_kkt(n, n0, q1, q2, mag, sign):
    # closed form: w = lambda1 j**-kf + lambda2 j**-ks with Phi lambda = (a, 1)
    order = BiasOrder(q1, q2)
    a = sign * mag
    xi = xi_matrix(order, n, n0)
    lam = np.linalg.solve(xi.phi_array(), np.array([a, 1.0]))
    kf, ks = weight_decay_exponents(order)
    j = np.arange(1, n + 1, dtype=float) + n0
    closed = lam[0] * j**-kf + lam[1] * j**-ks
    raw = brute_force_weights(n, n0, order, a)
    assert np.allclose(closed, raw, atol=1e-8, rtol=1e-8)
    # and the attained variance proxy is the quadratic in a
    proxy = float(np.sum(closed**2 * j ** (2.0 * order.alpha * order.q2)))
    assert proxy == pytest.approx(ztilde_squared(a, xi), rel=1e-6)


def test_brute_force_guards():
    with pytest.raises(ValueError):
        brute_force_weights(51, 0, Q21, 0.1)
    with pytest.raises(ValueError):
        brute_force_weights(1, 0, Q21, 0.1)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_brute_force_rejects_a_level_that_is_not_finite(a):
    # these returned all-nan weights
    with pytest.raises(ValueError, match="bias-sum level a must be finite"):
        brute_force_weights(10, 0, Q21, a)


# --------------------------------------------------------- feasible region


def test_feasible_intervals_structure():
    for n, K in ((100, 1.0), (100, 0.9), (2000, 1.5), (30, 2.0)):
        xi = xi_matrix(Q21, n)
        intervals = feasible_intervals(xi, Q21, K)
        assert 1 <= len(intervals) <= 2
        for lo, hi in intervals:
            assert lo < hi
            assert not lo < 0.0 < hi  # a = 0 is never feasible
            probe = lo + 1.0 if math.isinf(hi) else (hi - 1.0 if math.isinf(lo) else 0.5 * (lo + hi))
            assert eta_balance(probe, xi) <= K + 1e-9
            for end in (lo, hi):
                if math.isfinite(end):
                    assert eta_balance(end, xi) == pytest.approx(K, rel=1e-6)


def test_a_cap_past_the_overflow_bound_is_rejected_with_the_bound():
    # K**(2 (q1 + q2)) overflowed below the solver; a cap just under the
    # bound still solves
    xi = xi_matrix(Q21, 100)
    for call in (lambda K: feasible_intervals(xi, Q21, K),
                 lambda K: solve_weights(100, 0, Q21, K)):
        with pytest.raises(ValueError, match=r"K must be below 2\.376e\+51, .* got 1e\+60"):
            call(1e60)
    assert [len(iv) for iv in feasible_intervals(xi, Q21, 2e51)] == [2, 2]
    assert solve_weights(100, 0, Q21, 1e50).regime == "boundary"


def test_closed_forms_of_a_huge_cap_underflow_instead_of_raising():
    # amrr_general and pilot_a divide by a power of K: past its overflow
    # they return the quotient, tiny or 0.0; in range they keep their bits
    xi = xi_matrix(Q21, 100)
    assert amrr_general(Q21, 1e150) == 2.0 / (3.0 * 1e150**2.0)
    assert amrr_general(Q21, 1e154) == pytest.approx(2.0 / 3.0 / 1e154 / 1e154, rel=1e-12)
    assert amrr_general(Q21, 1e160) == pytest.approx(2.0 / 3.0 / 1e160 / 1e160, rel=1e-9)
    assert amrr_general(Q21, 1e200) == amrr_general(Q21, 1.7e308) == 0.0
    root, scale = math.sqrt(2.0 / 3.0), 100.0 ** (1.0 / 3.0)
    assert pilot_a(xi, 1e100) == root / (1e100**3.0 * scale)
    assert pilot_a(xi, 1e102) == pytest.approx(root / scale / 1e306, rel=1e-12)
    assert pilot_a(xi, 1e103) == pytest.approx(root / scale / 1e306 / 1e3, rel=1e-9)
    assert pilot_a(xi, 1e110) == 0.0


def test_feasible_intervals_empty_when_cap_too_small():
    xi = xi_matrix(Q21, 1000)
    assert feasible_intervals(xi, Q21, 0.5) == []


def test_eta_balance_rejects_zero():
    # nan and +-inf gave nan with a RuntimeWarning
    xi = xi_matrix(Q21, 10)
    for a in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="a must be finite and nonzero"):
            eta_balance(a, xi)


def test_infeasible_error_names_the_minimal_cap():
    xi = xi_matrix(Q21, 1000)
    k_min = xi.phi11 ** -Q21.alpha
    with pytest.raises(InfeasibleError) as exc:
        solve_a_star(xi, Q21, 0.5)
    msg = str(exc.value)
    assert "n=1000" in msg and "K=0.5" in msg
    assert f"(needs K >= {k_min!r})" in msg
    # the threshold itself is sharp: just above it the solve succeeds
    assert solve_a_star(xi, Q21, k_min * 1.001) > 0.0


def test_solver_rejects_an_order_the_gram_matrix_was_not_built_for():
    # unchecked, a (1, 1) cap and objective mixed with a (2, 1) Gram matrix
    # returned a* = 0.0321 without a word
    xi = xi_matrix(Q21, 1000)
    with pytest.raises(ValueError, match="differs"):
        feasible_intervals(xi, BiasOrder(1.0, 1.0), 2.0)
    with pytest.raises(ValueError, match="differs"):
        solve_a_star(xi, BiasOrder(1, 1), 2.0)
    assert solve_a_star(xi, BiasOrder(2, 1), 2.0) == solve_a_star(xi, Q21, 2.0)


def test_solver_rejects_a_gram_matrix_without_negative_xi12():
    # the positive-interval search rests on xi12 < 0, which every Gram
    # matrix has; only a hand-built one can break it
    for v in (0.0, 0.5):
        xi = dataclasses.replace(xi_matrix(Q21, 100), xi12=v)
        with pytest.raises(ValueError, match="xi12 must be negative"):
            feasible_intervals(xi, Q21, 2.0)
        with pytest.raises(ValueError, match="xi12 must be negative"):
            solve_a_star(xi, Q21, 2.0)


# ------------------------------------------------------------- the solver


def test_solver_beats_dense_grid():
    # the solver searches the positive interval only; a* must also beat a
    # dense grid on the negative one, where there is one.  The last input
    # is a huge cap whose best negative level is within 4e-14 relative
    cases = [(Q21, n, 0, K) for n, K in ((200, 1.2), (50, 1.0), (1000, 0.8))]
    cases += [(Q21, 10_000, 500, 2.0), (Q21, 10_000, 500, 4.0),
              (Q11, 10_000, 0, 2.0), (BiasOrder(0.5, 2.0), 10_000, 0, 2.0),
              (BiasOrder(4.0, 0.5), 10_000, 500, 2.0), (BiasOrder(1.0, 3.0), 10_000, 0, 1.0),
              (BiasOrder(4.0, 0.5), 10_000, 0, 1e3)]
    for order, n, n0, K in cases:
        xi = xi_matrix(order, n, n0)
        a_star = solve_a_star(xi, order, K)
        assert a_star > 0.0
        best = objective(a_star, xi)
        pilot = pilot_a(xi, K)
        for lo, hi in feasible_intervals(xi, order, K):
            lo = max(lo, -1e3 * pilot) if math.isinf(lo) else lo
            hi = min(hi, 1e3 * pilot) if math.isinf(hi) else hi
            sign = math.copysign(1.0, lo + hi)
            grid = sign * np.geomspace(max(abs(lo), 1e-12 * pilot), abs(hi), 200_000)
            grid = grid[(grid >= lo) & (grid <= hi)]
            assert best <= objective(grid, xi).min() * (1.0 + 1e-9)


def test_boundary_regime_spends_the_whole_cap():
    # at n0 = 0 and moderate n the optimum sits on the feasible boundary
    for n in (3000, 100_000):
        xi = xi_matrix(Q21, n)
        a_star = solve_a_star(xi, Q21, 1.0)
        assert eta_balance(a_star, xi) == pytest.approx(1.0, rel=1e-9)


def test_interior_regime_pins():
    # large n0 moves the optimum inside the cap: K stops mattering and the
    # stationarity condition 3 xi11 a**2 + 4 xi12 a + xi22 = 0 holds
    xi = xi_matrix(Q21, 10_000, 500)
    a1 = solve_a_star(xi, Q21, 1.0)
    a2 = solve_a_star(xi, Q21, 2.0)
    assert a1 == pytest.approx(a2, rel=1e-7)
    assert a1 == pytest.approx(0.06399730213079043, rel=1e-6)
    assert eta_balance(a1, xi) == pytest.approx(0.8584867900849797, rel=1e-6)
    resid = 3.0 * xi.xi11 * a1 * a1 + 4.0 * xi.xi12 * a1 + xi.xi22
    scale = abs(3.0 * xi.xi11 * a1 * a1) + abs(4.0 * xi.xi12 * a1) + abs(xi.xi22)
    assert abs(resid) < 1e-8 * scale


def test_an_optimum_past_the_first_grid_cap_extends_the_cap(monkeypatch):
    # at (4, 0.5), n = 10, n0 = 500 the first grid of the unbounded positive
    # interval tops out at 0.05138, below a*, so the grid argmin lands on
    # the cap and the cap is extended before the golden refinement
    order = BiasOrder(4.0, 0.5)
    tops = []
    geomspace = np.geomspace

    def spy(lo, hi, num):
        tops.append(hi)
        return geomspace(lo, hi, num)

    monkeypatch.setattr(calibration.np, "geomspace", spy)
    s = solve_weights(10, 500, order, 10.0)
    monkeypatch.undo()
    assert len(tops) >= 2 and tops[0] == pytest.approx(0.05138457046468482, rel=1e-12)
    assert tops[0] < s.a_star < tops[-1]
    assert s.a_star == pytest.approx(0.06285661625428447, rel=1e-9)
    assert s.regime == "interior"
    # the interior optimum is the larger root of the stationarity condition
    # (q1+q2) xi11 a**2 + (q1+2 q2) xi12 a + q2 xi22 = 0
    xi = xi_matrix(order, 10, 500)
    A, B, C = 4.5 * xi.xi11, 5.0 * xi.xi12, 0.5 * xi.xi22
    root = (-B + math.sqrt(B * B - 4.0 * A * C)) / (2.0 * A)
    assert root == pytest.approx(0.0628566162882338, rel=1e-12)
    assert s.a_star == pytest.approx(root, rel=1e-8)


def test_a_one_point_interval_below_k_min_is_infeasible_and_names_k_min():
    # at (0.5, 2), n = 10, n0 = 1e6, K = 10 lies below k_min = 10.000011, but
    # rounding leaves the one-point interval [lo, lo]: the search returns
    # lo, and the eta post-check rejects it with the cap it needs
    order = BiasOrder(0.5, 2.0)
    xi = xi_matrix(order, 10, 1_000_000)
    k_min = xi.phi11 ** -order.alpha
    assert 10.0 < k_min < 10.00002
    [(lo, hi)] = feasible_intervals(xi, order, 10.0)
    assert lo == hi
    assert solve_a_star(xi, order, 10.0) == lo
    with pytest.raises(InfeasibleError) as exc:
        solve_weights(10, 1_000_000, order, 10.0)
    assert str(exc.value) == ("solver returned an infeasible bias-sum level at "
                              f"n=10, K=10.0 (needs K >= {k_min!r})")
    assert solve_weights(10, 1_000_000, order, k_min * 1.001).a_star > 0.0


def test_large_budget_regression_pins():
    # frozen solver state at n = 1e6 (the slow drift toward the asymptote
    # is the point: these sit well above the amrr_general limits)
    xi = xi_matrix(Q21, 1_000_000)
    assert xi.phi11 ** -Q21.alpha == pytest.approx(0.6411743695242302, rel=1e-9)
    s1 = optimal_weights(1_000_000, 0, Q21, 1.0)
    assert s1.scaled_s_star == pytest.approx(0.8056825923526234, rel=1e-6)
    assert s1.a_star * 1e6 ** (1.0 / 3.0) == pytest.approx(0.897598235488809, rel=1e-6)
    s2 = optimal_weights(1_000_000, 0, Q21, 2.0)
    assert s2.scaled_s_star == pytest.approx(0.2679399594916069, rel=1e-6)
    assert s2.a_star * 1e6 ** (1.0 / 3.0) == pytest.approx(0.1294072929483707, rel=1e-6)


# sha256 of weights.tobytes() and repr((lambda1, lambda2, a_star, eta_star,
# s_star)) of optimal_weights(n, n0, (2, 1), K)
_SOLVER_PINS = {
    (10_000, 500, 1.0): (
        "20d73bf94aeb140028839b0f04e0481048042f98abe3674c80b7215d4a13ec01",
        "(-0.012809533666993578, 0.002459326986256176, 0.06399730213079043, "
        "0.8584867900849797, 0.0022246300534407627)",
    ),
    (10_000, 500, 2.0): (
        "951f00e758ef608a672499812c0ff78e6194c1d644047829cc348a577cea3a5c",
        "(-0.012809536707436859, 0.0024593271900556716, 0.06399730141106647, "
        "0.8584867949123198, 0.0022246300534407605)",
    ),
    (100_000, 0, 1.0): (
        "15f7fc0eeb65201c6ce9b3261b4c7f651dc3b9c0e3aedee9061681f81390305d",
        "(-0.0035859805444540768, 0.00046137621624710057, 0.019761383538287644, "
        "1.0, 0.0003905122793473061)",
    ),
    (100_000, 0, 2.0): (
        "346c5136b412e1202f7385ce2bf8a98100a00bcb180d587e80931b9dccfb16c9",
        "(-0.006255931289899772, 0.0005744326126031034, 0.002947439653354333, "
        "2.0, 0.00013899840816264825)",
    ),
    ((1 << 20) + 3, 7, 2.0): (
        "d42342fedc36c977db8095079484fccc194e1e339a0f4b266567385b351ccda1",
        "(-0.0029564221812297645, 0.00012171544458520842, 0.0013561553924478318, "
        "2.0, 2.9426519175445344e-05)",
    ),
}


@pytest.mark.parametrize("n, n0, K", list(_SOLVER_PINS), ids=str)
def test_optimal_weights_bit_pins(n, n0, K):
    """The solver's output, bit for bit: interior regime (n = 1e4,
    n0 = 500), boundary regime (n = 1e5, n0 = 0), and a budget past
    2**20 terms.

    The pin is exact because the reports are that sensitive: one ulp up
    on phi_sum(1.0, 1e4, 500) moves the interior a* by 8.8e-9 relative
    and the reproduce-table 5 report rows by 3.7e-8, far past the 1e-9
    at which the benchmark's golden rows are checked.
    """
    s = optimal_weights(n, n0, Q21, K)
    fields = repr((s.lambda1, s.lambda2, s.a_star, s.eta_star, s.s_star))
    assert (hashlib.sha256(s.weights.tobytes()).hexdigest(), fields) == _SOLVER_PINS[n, n0, K]


@pytest.mark.parametrize("n, n0, K", list(_SOLVER_PINS), ids=str)
def test_solve_then_materialise_is_optimal_weights(n, n0, K):
    solution = solve_weights(n, n0, Q21, K)
    scheme = solution.materialise()
    want = optimal_weights(n, n0, Q21, K)
    # every solved field, bit for bit (repr), on all three: the regime and
    # K_min too, which a scheme once dropped
    for f in dataclasses.fields(WeightSolution):
        got = {repr(getattr(s, f.name)) for s in (solution, scheme, want)}
        assert len(got) == 1, (f.name, got)
    pinned = repr((want.lambda1, want.lambda2, want.a_star, want.eta_star, want.s_star))
    assert pinned == _SOLVER_PINS[n, n0, K][1]
    assert solution.scaled_s_star == scheme.scaled_s_star == want.scaled_s_star
    assert scheme.weights.tobytes() == want.weights.tobytes()
    assert not scheme.weights.flags.writeable
    # the regime: a* is an endpoint of its feasible interval exactly when
    # the cap binds (the interior pin is n = 1e4 at n0 = 500)
    xi = xi_matrix(Q21, n, n0)
    assert solution.regime == ("interior" if n0 == 500 else "boundary")
    assert (solution.regime == "boundary") == (solution.eta_star == K)
    assert solution.k_min == xi.phi11 ** -Q21.alpha
    with pytest.raises(AttributeError):
        solution.a_star = 0.0


def _solved(n, n0, order, K):
    """What a call returns, bit for bit, or what it raises."""
    try:
        s = optimal_weights(n, n0, order, K)
    except (InfeasibleError, ValueError) as exc:
        return type(exc), str(exc)
    return (s.weights.tobytes(), repr((s.lambda1, s.lambda2, s.a_star, s.eta_star, s.s_star)),
            s.K, s.n0, s.order)


@pytest.mark.parametrize("n", [2, 1_000, 100_000])
def test_memoised_solves_match_a_cold_solve(n):
    keys = [(K, n0) for K in (1.0, 2.0) for n0 in (0, 500)]
    for order in (Q21, Q11, BiasOrder(1.5, 0.7)):
        cold = {}
        for K, n0 in keys:
            _memo.clear()
            cold[K, n0] = _solved(n, n0, order, K)
        _memo.clear()
        # interleaved: caps sharing a budget's Gram matrix, repeats, and
        # (at n = 2, n0 = 500) infeasible caps between feasible ones
        for K, n0 in keys + keys[::-1] + keys[1::2] + keys[::2]:
            assert _solved(n, n0, order, K) == cold[K, n0]


def test_every_call_returns_a_fresh_read_only_weights_array():
    first, second = (optimal_weights(1_000, 0, Q21, 2.0) for _ in range(2))
    assert first.weights is not second.weights
    assert not np.shares_memory(first.weights, second.weights)
    assert not first.weights.flags.writeable and not second.weights.flags.writeable
    with pytest.raises(ValueError):
        first.weights[0] = 0.0
    assert first.weights.tobytes() == second.weights.tobytes()


def _grams():
    """The Gram matrices the memo holds."""
    return sum(key[0] == "gram" for key in _memo.parts)


def test_memo_keeps_no_n_length_array():
    n = 200_000
    _memo.clear()
    tracemalloc.start()
    try:
        scheme = optimal_weights(n, 0, Q21, 2.0)
        assert scheme.weights.nbytes == 8 * n
        del scheme
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _grams() == len(_memo.parts) == 1
    assert kept < 0.05 * 8 * n


@pytest.mark.parametrize("args, error, message", [
    ((0, -1, Q21, -1.0), ValueError, "n must be an integer >= 1, got 0"),
    ((2.5, 0, Q21, 1.0), ValueError, "n must be an integer >= 1, got 2.5"),
    ((10, -1, Q21, 1.0), ValueError, "n0 must be a non-negative integer, got -1"),
    ((1, 0, Q21, -1.0), ValueError,
     "n must be at least 2, got 1: with one draw the constraint system is singular"),
    ((1_000, 0, Q21, -1.0), ValueError, "K must be positive, got -1.0"),
    ((1_000, 0, Q21, math.nan), ValueError, "K must be positive, got nan"),
    ((1_000, 0, Q21, 0.5), InfeasibleError,
     "no feasible weight scheme at n=1000, K=0.5: the inflation cap excludes "
     "every bias-sum level (needs K >= 0.7149848057696866)"),
    ((2, 500, BiasOrder(2, 1), 2), InfeasibleError,
     "no feasible weight scheme at n=2, K=2: the inflation cap excludes "
     "every bias-sum level (needs K >= 2.5111544110598554)"),
], ids=["n", "fractional-n", "n0", "n-below-2", "negative-K", "nan-K", "infeasible",
        "infeasible-int-K"])
def test_invalid_and_infeasible_inputs_raise_on_every_call(args, error, message):
    # the messages and their order (counts, then n >= 2, then K) are the
    # unmemoised solver's; a failed Gram matrix leaves no memo entry, a
    # failed cap keeps its budget's valid one
    _memo.clear()
    optimal_weights(1_000, 0, Q21, 2.0)
    for _ in range(3):
        for solve in (solve_weights, optimal_weights):
            with pytest.raises(error) as exc:
                solve(*args)
            assert str(exc.value) == message
    gram_ok = error is InfeasibleError or message.startswith("K must be positive")
    assert _grams() == 1 + (gram_ok and args[:2] != (1_000, 0))


def _counting_builds(monkeypatch):
    """Record every Gram matrix build from here on."""
    builds = []
    monkeypatch.setattr(calibration, "xi_matrix",
                        lambda *args: builds.append(args) or xi_matrix(*args))
    return builds


def _pinned(n, n0, K):
    s = optimal_weights(n, n0, Q21, K)
    fields = repr((s.lambda1, s.lambda2, s.a_star, s.eta_star, s.s_star))
    return hashlib.sha256(s.weights.tobytes()).hexdigest(), fields


def test_equal_keys_share_one_memo_entry_and_the_bits(monkeypatch):
    want = _SOLVER_PINS[100_000, 0, 2.0]
    _memo.clear()
    builds = _counting_builds(monkeypatch)
    for n, n0, order, K in [
        (100_000, 0, BiasOrder(2, 1), 2),
        (np.int64(100_000), np.int64(0), Q21, 2.0),
        (1e5, 0, BiasOrder(2.0, 1.0), np.array(2.0)),
        (100_000, 0.0, BiasOrder(np.float64(2.0), 1), np.float64(2.0)),
    ]:
        s = optimal_weights(n, n0, order, K)
        fields = repr((s.lambda1, s.lambda2, s.a_star, s.eta_star, s.s_star))
        assert (hashlib.sha256(s.weights.tobytes()).hexdigest(), fields) == want
        assert (s.n, s.n0, s.K, s.order) == (100_000, 0, 2.0, order)
    assert len(builds) == 1 and _grams() == 1


def test_an_evicted_gram_matrix_rebuilds_to_the_same_bits(monkeypatch):
    # a bound of one part: each new budget evicts the last one's Gram
    # matrix, which a later solve rebuilds, bit for bit; clear() empties
    # the memo, so the next solve builds once and the one after none
    monkeypatch.setattr(calibration, "_MEMO_BYTES", calibration._ENTRY_BYTES)
    _memo.clear()
    builds = _counting_builds(monkeypatch)
    keys = [(100_000, 0, 2.0), (10_000, 500, 1.0), (100_000, 0, 1.0), (10_000, 500, 2.0)]
    for n, n0, K in keys:
        assert _pinned(n, n0, K) == _SOLVER_PINS[n, n0, K]
        assert _grams() == len(_memo.parts) == 1
    assert len(builds) == 4
    _memo.clear()
    for _ in range(2):
        assert _pinned(10_000, 500, 2.0) == _SOLVER_PINS[10_000, 500, 2.0]
    assert len(builds) == 5


def test_pilot_a_formula():
    # sqrt(q1/(q1+q2)) / (K**(q1+q2) n**(q1/(2(q1+q2)))) at q1 = 2, q2 = 1
    want = math.sqrt(2.0 / 3.0) / 100 ** (1.0 / 3.0)
    assert pilot_a(xi_matrix(Q21, 100), 1.0) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("K", [0.0, -1.0, math.nan, math.inf])
def test_pilot_a_rejects_a_cap_that_is_not_positive_and_finite(K):
    # 0 raised ZeroDivisionError, -1 gave -0.176, nan gave nan, inf gave 0.0
    with pytest.raises(ValueError, match="K must be positive"):
        pilot_a(xi_matrix(Q21, 100), K)


# ---------------------------------------------------------- weight schemes


def test_optimal_weights_self_consistency():
    scheme = optimal_weights(500, 0, Q21, 1.0)
    w = scheme.weights
    assert w.shape == (500,)
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-10)
    j = np.arange(1, 501, dtype=float)
    bias_sum = math.fsum(w * j ** (-Q21.alpha * Q21.q1))
    assert bias_sum == pytest.approx(scheme.a_star, abs=1e-10)
    xi = xi_matrix(Q21, 500)
    # the realized multiplier is the balance point, capped by K
    assert scheme.eta_star == pytest.approx(eta_balance(scheme.a_star, xi), rel=1e-12)
    assert scheme.eta_star <= 1.0
    assert scheme.K == 1.0 and scheme.n == 500 and scheme.n0 == 0
    # calibrated schedule: eta* d (j + n0)**(-alpha)
    assert np.allclose(scheme.deltas(2.0), scheme.eta_star * 2.0 * j ** (-Q21.alpha), rtol=1e-15)
    # s_star is the objective at a_star
    assert scheme.s_star == pytest.approx(float(objective(scheme.a_star, xi)), rel=1e-12)
    assert scheme.scaled_s_star == pytest.approx(500 ** (2.0 / 3.0) * scheme.s_star, rel=1e-15)


def test_weight_shape_across_budgets():
    w = {n: optimal_weights(n, 0, Q21, 1.0).weights for n in (100, 300, 1000, 2000)}
    for n, weights in w.items():
        assert weights.shape == (n,)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-10)
    # the negative head and positive tail at the reference budget
    assert w[1000][0] < 0.0 < w[1000][-1]
    # the largest magnitude shrinks with the budget once the head has
    # formed (n = 100 is still pre-asymptotic)
    peaks = [np.abs(w[n]).max() for n in (300, 1000, 2000)]
    assert peaks[0] > peaks[1] > peaks[2]


def test_weight_scheme_is_a_solution_with_its_weights():
    names = [f.name for f in dataclasses.fields(WeightScheme)]
    assert names == [f.name for f in dataclasses.fields(WeightSolution)] + ["weights"]
    scheme = optimal_weights(50, 0, Q21, 1.0)
    assert isinstance(scheme, WeightSolution)
    # perfbench's tracer wraps the schedule where the class defines it
    assert "deltas" in WeightScheme.__dict__


def test_weight_scheme_rejects_tampering():
    scheme = optimal_weights(50, 0, Q21, 1.0)
    fields = {f.name: getattr(scheme, f.name) for f in dataclasses.fields(WeightSolution)}
    WeightScheme(weights=scheme.weights, **fields)  # the untampered scheme passes
    with pytest.raises(ValueError):
        WeightScheme(weights=scheme.weights * 1.01, **fields)
    # eta* above the cap or not positive, an infinite cap, an unknown regime
    # and a non-finite k_min: values no solve produces
    for tampered in ({"eta_star": scheme.K + 1.0}, {"eta_star": -math.inf},
                     {"eta_star": 0.0}, {"K": math.inf, "eta_star": 1e300},
                     {"regime": "nonsense"}, {"k_min": math.nan}):
        with pytest.raises(ValueError):
            WeightScheme(weights=scheme.weights, **{**fields, **tampered})
    # a* off by 1e-3, or not finite: the NaN-safe check rejects every one
    for a_star in (scheme.a_star + 1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="bias sum"):
            WeightScheme(weights=scheme.weights, **{**fields, "a_star": a_star})
    # weights whose length is not n
    for weights in (scheme.weights[:-1], np.append(scheme.weights, 0.0),
                    scheme.weights.reshape(5, 10)):
        with pytest.raises(ValueError, match=r"weights must have shape \(50,\)"):
            WeightScheme(weights=weights, **fields)
    with pytest.raises(ValueError):
        scheme.deltas(0.0)


def _count_exact_adds(monkeypatch) -> list:
    """Patch `_ExactSum.add` to log each call; returns the log."""
    calls, add = [], _ExactSum.add

    def logged(self, block):
        calls.append(block.shape[0])
        return add(self, block)

    monkeypatch.setattr(_ExactSum, "add", logged)
    return calls


def _reference_check(w, n0, a_star):
    """`WeightScheme`'s two sum checks on math.fsum: the message of the
    first one that fails, or None."""
    total = math.fsum(w)
    if not abs(total - 1.0) <= 1e-10 * max(1.0, abs(total)):
        return f"weights must sum to 1 within 1e-10, got {total!r}"
    j = np.arange(1, w.shape[0] + 1, dtype=float) + n0
    bias_sum = math.fsum(j ** (-Q21.alpha * Q21.q1) * w)
    if not (math.isfinite(a_star) and abs(bias_sum - a_star) <= 1e-10 * max(1.0, abs(a_star))):
        return f"weights reproduce bias sum {bias_sum!r}, expected a*={a_star!r}"
    return None


def _steps(x, ulps):
    """x moved by ``ulps`` ulps, up when positive."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def test_weight_checks_decide_as_fsum_at_the_tolerance_edges(monkeypatch):
    # weights and a* tampered so the exact sums land a few ulps either side
    # of 1 +- 1e-10 and a* +- 1e-10 max(1, |a*|), and +-1e12 entries that
    # cancel: no bound is clear of the tolerance, and WeightScheme accepts
    # or rejects each as the fsum reference does, with its message
    n0 = 500
    scheme = optimal_weights(40_000, n0, Q21, 2.0)
    fields = {f.name: getattr(scheme, f.name) for f in dataclasses.fields(WeightSolution)}
    cases = []
    for edge in (1.0 - 1e-10, 1.0 + 1e-10):
        for ulps in range(-3, 4):
            target, w = _steps(edge, ulps), scheme.weights.copy()
            w[-1] += target - math.fsum(w)  # its ulp is far below 1's
            assert math.fsum(w) == target
            cases.append((w, n0, scheme.a_star))
    cancelling = scheme.weights.copy()
    cancelling[:3] = 1e12, -1e12, math.fsum(cancelling[:3])
    j = np.arange(1, scheme.n + 1, dtype=float) + n0
    for w in (scheme.weights, cancelling):
        bias_sum = math.fsum(j ** (-Q21.alpha * Q21.q1) * w)  # |a*| < 1, then about 8e7
        for sign in (-1.0, 1.0):
            edge = bias_sum + sign * 1e-10 * max(1.0, abs(bias_sum))
            cases += [(w, n0, _steps(edge, ulps)) for ulps in range(-3, 4)]
    cases.append((cancelling, n0, bias_sum))
    # three weights (n0 = 0) whose left-to-right sum drops the 1.5e-10
    # that the exact sum keeps: only the bound keeps the bounded pass off
    lossy = np.array([2.0**40, 1.0 + 1.5e-10, -(2.0**40)])
    cases.append((lossy, 0, math.fsum(np.arange(1.0, 4.0) ** (-Q21.alpha * Q21.q1) * lossy)))
    calls = _count_exact_adds(monkeypatch)
    outcomes = set()
    for w, n0, a_star in cases:
        want = _reference_check(w, n0, a_star)
        del calls[:]
        try:
            WeightScheme(weights=w, **{**fields, "n": w.shape[0], "n0": n0, "a_star": a_star})
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want
        assert calls  # the exact sums decided it
        outcomes.add(want and want.startswith("weights must sum"))
    assert outcomes == {None, True, False}  # accepted, and each check failing


@pytest.mark.parametrize("n0", [0, 500])
@pytest.mark.parametrize("K", [1.0, 2.0])
def test_weight_checks_take_the_bounded_pass(n0, K, monkeypatch):
    # a solved scheme's sums are far inside the tolerance, so the bounded
    # pass decides both checks and the exact kernel never runs (the Gram
    # matrix's power sums are memoised by the first call)
    optimal_weights(2e5, n0, Q21, K)
    calls = _count_exact_adds(monkeypatch)
    optimal_weights(2e5, n0, Q21, K)
    assert calls == []


def _hand_solution(n, n0, order):
    """A `WeightSolution` whose weights put half their mass on each decay
    component (any n0, where a solve may fail), with a* their exact bias
    sum, and those weights from whole arrays."""
    kf, ks = weight_decay_exponents(order)
    j = np.arange(1, n + 1, dtype=float) + n0
    lambda1, lambda2 = 0.5 / math.fsum(j**-kf), 0.5 / math.fsum(j**-ks)
    w = j**-kf * lambda1 + j**-ks * lambda2
    a_star = math.fsum(j ** (-order.alpha * order.q1) * w)
    solution = WeightSolution(lambda1=lambda1, lambda2=lambda2, a_star=a_star, eta_star=1.0,
                              s_star=1.0, n=n, n0=n0, K=2.0, order=order,
                              regime="boundary", k_min=1.0)
    return solution, w


_FUSED_ORDERS = {"2-1": (Q21, True), "1-0.5": (BiasOrder(1.0, 0.5), True),
                 "1-1": (Q11, False), "1.5-0.5": (BiasOrder(1.5, 0.5), False),
                 "1-3": (BiasOrder(1.0, 3.0), False)}


@pytest.mark.parametrize("name", list(_FUSED_ORDERS))
@pytest.mark.parametrize("n0", [0, 500, 10**9])
@pytest.mark.parametrize("n", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_materialise_checks_the_blocks_it_fills(name, n0, n, monkeypatch):
    # materialise fills each weight block as the bounded pass reads it; its
    # (estimate, bound) pairs are, bit for bit, those of the same pass over
    # the blocks the constructor reads from the finished array, and the
    # weights are those of whole-array arithmetic.  Where q1 = 2 q2 the
    # check's bias power is kappa_slow's, and the fill reuses it
    order, shared = _FUSED_ORDERS[name]
    assert (-weight_decay_exponents(order)[1] == -order.alpha * order.q1) == shared
    solution, w = _hand_solution(n, n0, order)
    pairs, bounded = [], calibration._bounded_sums
    monkeypatch.setattr(calibration, "_bounded_sums",
                        lambda *args: pairs.append(bounded(*args)) or pairs[-1])
    scheme = solution.materialise()
    assert scheme.weights.tobytes() == w.tobytes()
    WeightScheme(weights=w, **{f.name: getattr(solution, f.name)
                               for f in dataclasses.fields(WeightSolution)})
    assert len(pairs) == 2 and pairs[0] is not None
    assert [(t.hex(), e.hex()) for t, e in pairs[0]] == [(t.hex(), e.hex()) for t, e in pairs[1]]


def test_materialise_rejects_weights_its_fill_overflows():
    # the fill runs inside the bounded pass, which leaves an overflow
    # undecided; the finished array's finiteness check then rejects it
    solution = dataclasses.replace(_hand_solution(3, 0, Q21)[0], lambda1=1e308, lambda2=1e308)
    with pytest.raises(ValueError, match="weights must be finite"):
        solution.materialise()


def test_the_usable_cores_fall_back_to_the_cpu_count_then_to_one(monkeypatch):
    monkeypatch.setattr(calibration.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert calibration._usable_cores() == 3
    monkeypatch.delattr(calibration.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(calibration.os, "cpu_count", lambda: 6)
    assert calibration._usable_cores() == 6
    monkeypatch.setattr(calibration.os, "cpu_count", lambda: None)
    assert calibration._usable_cores() == 1


@pytest.mark.parametrize("stop, pieces, step, want", [
    (10, 1, 1, [(0, 10)]), (10, 2, 1, [(0, 5), (5, 10)]), (10, 3, 1, [(0, 3), (3, 6), (6, 10)]),
    (2, 5, 1, [(0, 1), (1, 2)]), (5, 2, _BLOCK, [(0, 5)]),
    (9 * _BLOCK + 5, 3, _BLOCK, [(0, 3 * _BLOCK), (3 * _BLOCK, 6 * _BLOCK),
                                 (6 * _BLOCK, 9 * _BLOCK + 5)]),
    (9 * _BLOCK + 5, 4, _BLOCK, [(0, 2 * _BLOCK), (2 * _BLOCK, 5 * _BLOCK),
                                 (5 * _BLOCK, 7 * _BLOCK), (7 * _BLOCK, 9 * _BLOCK + 5)]),
])
def test_spans_cut_a_range_into_contiguous_whole_steps(stop, pieces, step, want):
    assert calibration._spans(stop, pieces, step) == want


@pytest.mark.parametrize("n", [9 * _BLOCK + 5, (1 << 20) + 3])
def test_the_weights_and_their_checks_do_not_depend_on_the_span_count(n, monkeypatch):
    # the bounded pass runs one span per usable core (here every n splits,
    # however short its spans); each span fills its own slice of the
    # weights, and the block sums join in block order, so every order's
    # weights and (estimate, bound) pairs are the one-span pass's, bit for
    # bit, on hand-built solutions and on a solve's Gram totals alike
    monkeypatch.setattr(calibration, "_SPAN_MIN", _BLOCK)
    pairs, counts = [], []
    bounded, run_spans = calibration._bounded_sums, calibration._run_spans
    monkeypatch.setattr(calibration, "_bounded_sums",
                        lambda *args: pairs.append(bounded(*args)) or pairs[-1])
    monkeypatch.setattr(calibration, "_run_spans",
                        lambda run, spans: counts.append(len(spans)) or run_spans(run, spans))
    makes = [_hand_solution(n, 500, order)[0].materialise for order, _ in _FUSED_ORDERS.values()]
    makes.append(partial(optimal_weights, n, 7, Q21, 2.0))
    for make in makes:
        got = set()
        for cores in (1, 2, 3, 5):
            monkeypatch.setattr(calibration, "_usable_cores", lambda: cores)
            del pairs[:], counts[:]
            w = make().weights
            assert counts == [cores] and len(pairs) == 1 and pairs[0] is not None
            got.add((w.tobytes(), tuple((t.hex(), e.hex()) for t, e in pairs[0])))
        assert len(got) == 1


@pytest.mark.parametrize("n, cores, want", [
    (2 * calibration._SPAN_MIN - 1, 2, 1), (2 * calibration._SPAN_MIN, 2, 2),
    (2 * calibration._SPAN_MIN, 1, 1), (3 * calibration._SPAN_MIN, 5, 3),
])
def test_the_check_pass_splits_only_into_spans_of_span_min_terms(n, cores, want, monkeypatch):
    # one span per usable core, but none shorter than _SPAN_MIN terms, so
    # n = 1e5 (the CLI workload of the benchmark) stays on one thread
    counts, run_spans = [], calibration._run_spans
    monkeypatch.setattr(calibration, "_usable_cores", lambda: cores)
    monkeypatch.setattr(calibration, "_run_spans",
                        lambda run, spans: counts.append(len(spans)) or run_spans(run, spans))
    _hand_solution(n, 0, Q21)[0].materialise()
    assert counts == [want]


def test_a_fill_that_overflows_in_the_last_span_is_rejected(monkeypatch):
    # the last of three spans runs on a pool thread and overflows there:
    # its block sums leave the pass undecided, without a warning from any
    # thread, and the finished array's finiteness check rejects it
    monkeypatch.setattr(calibration, "_usable_cores", lambda: 3)
    monkeypatch.setattr(calibration, "_SPAN_MIN", _BLOCK)
    n = 9 * _BLOCK + 5
    solution, w = _hand_solution(n, 0, Q21)
    last = calibration._spans(n, 3, _BLOCK)[-1][0]
    here, overflowed = threading.get_ident(), []

    def fill(wb, jb, power):
        np.copyto(wb, w[int(jb[0]) - 1: int(jb[-1])])
        if jb[0] > last:
            wb *= 2.0**1000
            wb *= 2.0**1000
            overflowed.append(threading.get_ident())

    fields = {f.name: getattr(solution, f.name) for f in dataclasses.fields(WeightSolution)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="weights must be finite"):
            WeightScheme(weights=np.empty(n), _fill=fill, **fields)
    assert len(overflowed) == 4 and here not in overflowed  # the last span's four blocks


def test_two_threads_solving_at_once_keep_the_pinned_bits(monkeypatch):
    # two callers, each splitting its own check pass into three spans (six
    # threads on this many or fewer cores), switching as often as the
    # interpreter allows, build the weights test_optimal_weights_bit_pins pins
    monkeypatch.setattr(calibration, "_usable_cores", lambda: 3)
    key = ((1 << 20) + 3, 7, 2.0)
    start, digests, errors = threading.Barrier(2), [], []

    def solve():
        try:
            for _ in range(3):
                start.wait(timeout=60)
                w = optimal_weights(key[0], key[1], Q21, key[2]).weights
                digests.append(hashlib.sha256(w.tobytes()).hexdigest())
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=solve) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert digests == [_SOLVER_PINS[key][0]] * 6


def _solution_and_gram(order, n, n0, K):
    """`optimal_weights`'s solution and Gram matrix, or None where the solve raises."""
    try:
        return calibration._solve(n, n0, order, K)
    except (InfeasibleError, ValueError, np.linalg.LinAlgError):
        return None


@pytest.mark.parametrize("name", list(_FUSED_ORDERS))
def test_gram_totals_bound_the_magnitudes_of_the_filled_weights(name, monkeypatch):
    # the Gram totals are at least the fsum of |w| and of |w mu| over the
    # finished weights, and the estimates t of the pass that uses them are,
    # bit for bit, those of the data-magnitude pass over the finished array
    order = _FUSED_ORDERS[name][0]
    pairs, bounded = [], calibration._bounded_sums

    def logged(n, blocks, count, sizes=None):
        pairs.append((sizes, bounded(n, blocks, count, sizes)))
        return pairs[-1][1]

    monkeypatch.setattr(calibration, "_bounded_sums", logged)
    used = 0
    for n, n0, K in itertools.product([2, _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 7],
                                      [0, 500, 10**6], [1.0, 2.0, 10.0]):
        if (solved := _solution_and_gram(order, n, n0, K)) is None:
            continue
        solution, xi = solved
        totals = calibration._gram_totals(solution, xi)
        # a Gram matrix of another (order, n, n0) gives no totals
        for other in (xi_matrix(order, n + 1, n0), xi_matrix(order, n, n0 + 1),
                      xi_matrix(Q11 if order != Q11 else Q21, n, n0)):
            assert calibration._gram_totals(solution, other) is None
        del pairs[:]
        try:
            w = solution.materialise(_gram=xi).weights
        except ValueError:  # weights that fail their checks
            continue
        mu = np.power(np.arange(1, n + 1, dtype=float) + n0, -order.alpha * order.q1)
        assert totals[0] >= math.fsum(np.abs(w)) and totals[1] >= math.fsum(np.abs(w * mu))
        WeightScheme(weights=w, **{f.name: getattr(solution, f.name)
                                   for f in dataclasses.fields(WeightSolution)})
        ((sizes, fused), (no_sizes, data)) = pairs
        assert no_sizes is None
        assert [t.hex() for t, _ in fused] == [t.hex() for t, _ in data]
        used += any(size is not None for size in sizes)
    assert used >= 10  # most solved inputs take the Gram totals


# `scripts/solver_grid.py`'s grid (every n at most 1e4), and the n = 2e5
# inputs of test_weight_checks_take_the_bounded_pass
_SAME_PATH_INPUTS = [
    *itertools.product([2, 3, 10, 100, 10_000], [0, 1, 500, 10**6, 10**9],
                       [0.7, 1.0, 2.0, 10.0, 1e3],
                       [(2.0, 1.0), (1.0, 1.0), (0.5, 2.0), (4.0, 0.5), (1.0, 3.0)]),
    *itertools.product([200_000], [0, 500], [1.0, 2.0], [(2.0, 1.0)]),
]


def test_gram_totals_keep_the_exact_kernel_where_the_data_path_needs_it(monkeypatch):
    # optimal_weights reaches the exact kernel exactly when the bounded pass
    # on the data's own magnitudes (materialise without the Gram matrix)
    # is undecided, with the same weights or message: a Gram total too
    # loose to decide gives way to those magnitudes
    calls = _count_exact_adds(monkeypatch)
    paths = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n, n0, K, q in _SAME_PATH_INPUTS:
            if (solved := _solution_and_gram(BiasOrder(*q), n, n0, K)) is None:
                continue
            outcomes = []
            for make in (partial(optimal_weights, n, n0, BiasOrder(*q), K),
                         solved[0].materialise):
                del calls[:]  # the Gram matrix is memoised by the solve
                try:
                    outcome = make().weights.tobytes()
                except ValueError as exc:
                    outcome = str(exc)
                outcomes.append((bool(calls), outcome))
            assert outcomes[0] == outcomes[1], (n, n0, K, q)
            paths.add(outcomes[0][0])
    assert paths == {False, True}


@pytest.mark.parametrize("start, m", [
    (1, _BLOCK), (1 + 500, _BLOCK - 1), (_BLOCK, _BLOCK), (_BLOCK + 1, 1),
    (3 * _BLOCK + 1 + 10**9, 7), (2**53 - _BLOCK + 1, _BLOCK), (2**53 - 2, 3), (2**53, 1),
])
def test_arange_into_is_an_arange_block(start, m):
    # one add gives the block of np.arange bit for bit: at the first block,
    # at block edges and up to n + n0 = 2**53
    out = np.empty(m)
    assert calibration._arange_into(out, start) is out
    assert out.tobytes() == np.arange(start, start + m, dtype=float).tobytes()
    assert out[-1] == float(start + m - 1)


@pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
def test_weight_scheme_deltas_reject_a_non_finite_scale(d):
    # an infinite d would give an all-inf schedule, which DeltaSchedule
    # rejects for its own scale
    with pytest.raises(ValueError, match="d must be positive"):
        optimal_weights(50, 0, Q21, 1.0).deltas(d)


def test_s_star_strictly_decreasing_in_cap():
    values = [optimal_weights(2000, 0, Q21, K).s_star for K in (0.8, 1.0, 1.5, 2.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_optimal_weights_infeasible_cap_raises():
    with pytest.raises(InfeasibleError):
        optimal_weights(1000, 0, Q21, 0.5)


# ----------------------------------------------------- closed-form limits


def test_amrr_general_frozen_values():
    assert amrr_general(Q21, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert amrr_general(Q21, 0.5) == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert amrr_general(Q11, 2.0) == pytest.approx(0.125, rel=1e-15)
    with pytest.raises(ValueError):
        amrr_general(Q21, 0.0)
    # strictly decreasing in K
    grid = [amrr_general(Q21, k) for k in (0.5, 1.0, 1.5, 2.0)]
    assert all(a > b for a, b in zip(grid, grid[1:]))


def test_amrr_recursive_tied_frozen_values():
    opt = amrr_recursive_tied(Q21)
    assert opt.ratio == pytest.approx(49.0 / 36.0, rel=1e-15)
    assert opt.c_opt == pytest.approx(7.0 / 3.0, rel=1e-15)
    opt = amrr_recursive_tied(Q11)
    assert opt.ratio == pytest.approx(81.0 / 64.0, rel=1e-15)
    assert opt.c_opt == pytest.approx(9.0 / 4.0, rel=1e-15)


def test_amrr_recursive_free_frozen_values():
    opt = amrr_recursive_free(Q21)
    assert opt.ratio == pytest.approx(2.0 ** (2.0 / 3.0) * (4.0 / 3.0) ** (-4.0 / 3.0), rel=1e-14)
    assert opt.ratio == pytest.approx(1.0816872, rel=1e-6)
    assert opt.d_scale == pytest.approx((1.0 / 3.0) ** (1.0 / 6.0), rel=1e-14)
    assert opt.c_opt == 1.0
    opt = amrr_recursive_free(Q11)
    assert opt.ratio == pytest.approx(2.0 * 1.5**-1.5, rel=1e-14)
    assert opt.d_scale == pytest.approx(0.375**0.25, rel=1e-14)
