"""Gauss-Legendre rules, tensor integration, and the order ladder."""

import math
import tracemalloc

import numpy as np
import pytest

from critline import quad
from critline.quad import (
    QuadratureError,
    gauss_rule,
    integrate_converged,
    integrate_cube,
)


def test_gauss_rule_basics():
    rule = gauss_rule(8)
    assert rule.nodes.shape == rule.weights.shape == (8,)
    assert np.all((rule.nodes > 0) & (rule.nodes < 1))
    assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(quad.N_MAX + 1)


@pytest.mark.parametrize("n", [2, 5, 16])
def test_monomial_exactness_up_to_degree_2n_minus_1(n):
    rule = gauss_rule(n)
    for k in range(2 * n):
        value = float(np.sum(rule.nodes**k * rule.weights))
        assert value == pytest.approx(1.0 / (k + 1), rel=1e-13), f"x^{k} at n={n}"


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cube_separable_polynomial(d):
    rule = gauss_rule(6)

    def f(*xs):
        out = np.ones_like(xs[0])
        for x in xs:
            out = out * (3.0 * x * x)  # integrates to 1 per axis
        return out

    assert integrate_cube(f, d, rule) == pytest.approx(1.0, rel=1e-12)


def test_cube_rejects_bad_dimension():
    with pytest.raises(ValueError):
        integrate_cube(lambda x: x, 5, gauss_rule(4))


def test_cube_chunking_is_exact(monkeypatch):
    rule = gauss_rule(16)
    f = lambda x, y, z: np.exp(x) * np.cos(y) * z  # noqa: E731
    whole, default = integrate_cube(f, 3, rule), quad._CHUNK
    monkeypatch.setattr(quad, "_CHUNK", 97)
    chunked = integrate_cube(f, 3, rule)
    assert chunked == pytest.approx(whole, rel=1e-14)


# -- the order ladder --------------------------------------------------------

FIRST, SECOND = list(quad.ladder(1))[:2]


def test_converged_exponential_closed_form():
    R = 1.28
    value, trace = integrate_converged(lambda v: np.exp(2.0 * R * v), 1, tol=1e-12)
    assert value == pytest.approx((math.exp(2 * R) - 1) / (2 * R), rel=1e-13)
    assert trace[0][0] == quad.N_SEQUENCE_START
    assert trace[0][1] is None
    assert trace[-1][1] < 1e-12


def test_converged_respects_n_start():
    _, trace = integrate_converged(lambda x: x, 1, tol=1e-10, n_start=8)
    assert trace[0][0] == 8


def test_non_convergence_raises_with_trace():
    # |x - 1/2| has a kink, so no rung up to N_MAX can hit 1e-15
    with pytest.raises(QuadratureError, match="did not converge") as exc_info:
        integrate_converged(lambda x: np.abs(x - 0.5), 1, tol=1e-15)
    trace = exc_info.value.trace
    assert [n for n, _ in trace] == list(quad.ladder(1))
    assert trace[-1][0] == quad.N_MAX
    assert trace[0][1] is None and all(delta >= 1e-15 for _, delta in trace[1:])


def test_non_finite_order_raises_at_once():
    # a NaN cannot converge; the ladder must stop at the first order, not run to its end
    with pytest.raises(QuadratureError, match="non-finite") as exc_info:
        integrate_converged(lambda *xs: np.full_like(xs[0], np.nan), 4)
    assert exc_info.value.trace == [(FIRST, None)]
    # an order that turns non-finite after a finite one stops there too
    calls = []

    def late_nan(x):
        calls.append(x.size)
        return np.full_like(x, np.nan if len(calls) > 1 else 1.0)

    with pytest.raises(QuadratureError) as exc_info:
        integrate_converged(late_nan, 1, tol=1e-12)
    # the failing order is listed with no delta: a NaN is not a distance
    assert [n for n, _ in exc_info.value.trace] == [FIRST, SECOND]
    assert exc_info.value.trace[-1] == (SECOND, None)
    assert calls == [FIRST, SECOND]


def test_ladder_grows_by_three_halves():
    # 1-D to 3-D ladders end at the rule cap (256^3 is the node budget),
    # 4-D ladders at the last rung within the budget (93^4 > 2^24)
    assert 256**3 <= quad.NODE_BUDGET < 93**4
    for d in (1, 2, 3):
        assert list(quad.ladder(d)) == [12, 18, 27, 41, 62, 93, 140, 210, 256]
    assert list(quad.ladder(4)) == [12, 18, 27, 41, 62]
    assert list(quad.ladder(4, 8)) == [8, 12, 18, 27, 41, 62]


@pytest.mark.parametrize("n_start", [1, 5, quad.N_SEQUENCE_START])
@pytest.mark.parametrize("n_max", [1, 2, 30, 100, 255, quad.N_MAX])
def test_ladder_terminates_and_clamps_to_n_max(monkeypatch, n_start, n_max):
    # the last rung is clamped to the rule cap N_MAX, whatever the cap
    monkeypatch.setattr(quad, "N_MAX", n_max)
    orders = list(quad.ladder(1, n_start))
    if n_start > n_max:
        assert orders == []
        return
    assert orders[0] == n_start and orders[-1] == n_max
    for n, nxt in zip(orders, orders[1:]):
        assert n < nxt <= math.ceil(1.5 * n)
    # the quadrature walks the same rungs
    with pytest.raises(QuadratureError) as exc_info:
        integrate_converged(lambda x: np.abs(x - 0.5), 1, tol=1e-300, n_start=n_start)
    assert [n for n, _ in exc_info.value.trace] == orders


def test_node_budget_stops_a_4d_ladder():
    # a kink in 4-D cannot reach 1e-15; the ladder ends at n = 62, the last
    # rung within the node budget, and the error carries the whole trace
    with pytest.raises(QuadratureError, match="4-D quadrature did not converge") as exc_info:
        integrate_converged(lambda *xs: np.abs(xs[0] - 0.5), 4, tol=1e-15)
    trace = exc_info.value.trace
    assert [n for n, _ in trace] == list(quad.ladder(4)) == [12, 18, 27, 41, 62]
    assert trace[0][1] is None and all(delta >= 1e-15 for _, delta in trace[1:])
    assert str(trace) in str(exc_info.value)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        integrate_converged(lambda x: x, 1, tol=0.0)
    with pytest.raises(ValueError):
        integrate_converged(lambda x: x, 1, tol=math.nan)
    with pytest.raises(ValueError):
        integrate_converged(lambda *xs: xs[0], 5)


# -- array-valued integrands -------------------------------------------------


def test_array_integrand_matches_componentwise(monkeypatch):
    # members first, then one node axis per coordinate; 97 nodes is 9 rows of
    # 10, so the 2-D rule takes two slabs
    monkeypatch.setattr(quad, "_CHUNK", 97)
    rule = gauss_rule(10)

    def f(u, v):
        return np.stack(np.broadcast_arrays(u * v, u, v))

    value = integrate_cube(f, 2, rule)
    assert value.shape == (3,)
    assert value[0] == pytest.approx(0.25, rel=1e-13)  # int uv
    assert value[1] == pytest.approx(0.5, rel=1e-13)  # int u
    assert value[2] == pytest.approx(0.5, rel=1e-13)  # int v
    for k, g in enumerate((lambda u, v: u * v, lambda u, v: u, lambda u, v: v)):
        assert value[k] == integrate_cube(g, 2, rule)


def test_array_integrand_convergence():
    def f(u):
        # [exp(u), -u^2]: the second entry is d^2/dxdy of exp(u x - u y) at 0
        return np.stack([np.exp(u), -u * u])

    value, _ = integrate_converged(f, 1, tol=1e-12)
    assert value[0] == pytest.approx(math.e - 1.0, rel=1e-12)
    assert value[1] == pytest.approx(-1.0 / 3.0, rel=1e-12)


def test_array_delta_is_the_largest_relative_change():
    # both entries have a kink, so both still move between the first two rungs
    entries = (lambda x: 1e3 * np.abs(x - 0.5), lambda x: np.abs(x - 0.3))

    def rel_change(g):
        old, new = integrate_cube(g, 1, gauss_rule(FIRST)), integrate_cube(g, 1, gauss_rule(SECOND))
        return abs(new - old) / max(abs(new), abs(old), 1.0)

    changes = [rel_change(g) for g in entries]
    assert min(changes) > 0
    with pytest.raises(QuadratureError) as exc_info:
        integrate_converged(lambda x: np.stack([g(x) for g in entries]), 1, tol=1e-15)
    assert exc_info.value.trace[:2] == [(FIRST, None), (SECOND, max(changes))]


def test_array_integrand_chunking_is_exact(monkeypatch):
    rule = gauss_rule(16)

    def f(x, y, z):
        base = np.exp(x) * np.cos(y) * z
        members = np.stack(np.broadcast_arrays(base, base * x, np.sin(z)))
        return members[:, None] * np.array([1.0, -2.0])[:, None, None, None]

    def g(x, y, z):
        # symmetric in (y, z), for the pair rule
        base = np.exp(x) * np.cos(y) * np.cos(z)
        members = np.stack(np.broadcast_arrays(base, base * (y + z), np.sin(y * z)))
        return members[:, None] * np.array([1.0, -2.0]).reshape((2,) + (1,) * (members.ndim - 1))

    whole, default = integrate_cube(f, 3, rule), quad._CHUNK
    monkeypatch.setattr(quad, "_CHUNK", 97)
    chunked = integrate_cube(f, 3, rule)
    assert whole.shape == chunked.shape == (3, 2)
    np.testing.assert_allclose(chunked, whole, rtol=1e-14, atol=0.0)
    # the pair rule of order m has rows of m (m + 1) / 2 nodes of 6 values:
    # one slab of all 16 rows at the default, one row per slab at 97, 3 rows
    # per slab when the slab holds 3 rows of values; the same bits every way,
    # on the square's order and on a lower pair order than x's
    for m in (16, 11):
        pair = gauss_rule(m)
        monkeypatch.setattr(quad, "_CHUNK", default)
        pairs = integrate_cube(g, 3, rule, pair=pair)
        assert pairs.shape == (3, 2)
        monkeypatch.setattr(quad, "_CHUNK", 97)
        for members in (1, 6):
            np.testing.assert_array_equal(integrate_cube(g, 3, rule, pair=pair, members=members), pairs)
        monkeypatch.setattr(quad, "_CHUNK", 3 * (m * (m + 1) // 2) * 6)
        np.testing.assert_array_equal(integrate_cube(g, 3, rule, pair=pair, members=6), pairs)
    np.testing.assert_allclose(integrate_cube(g, 3, rule, pair=rule), integrate_cube(g, 3, rule),
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("m", [1, 4, 8])
def test_pair_rule_is_the_tensor_rule_on_symmetric_polynomials(m):
    # an m-point rule is exact to degree 2m - 1 in each coordinate, and the
    # pair rule, its tensor rule summed over a triangle, is exact where that
    # is, whatever the order of the rule on the other axes: the same m, or
    # a higher one, as on the ladder's lagged pair plane
    pair = gauss_rule(m)
    for rule in (pair, gauss_rule(m + 4)):
        # in 4-D the pair shares the last axis, after t and r on ``rule``,
        # which is exact for r^j and no lower rule is
        j = 2 * rule.nodes.size - 1
        for k in range(2 * m):
            total_exact = (2.0 ** (k + 2) - 2.0) / ((k + 1) * (k + 2))
            product = integrate_cube(lambda u, v: (u * v) ** k, 2, rule, pair=pair)
            total = integrate_cube(lambda u, v: (u + v) ** k, 2, rule, pair=pair)
            assert product == pytest.approx(1.0 / (k + 1) ** 2, rel=1e-13), k
            assert total == pytest.approx(total_exact, rel=1e-13), k
            value = integrate_cube(lambda t, r, u, v: t * r ** j * (u + v) ** k, 4, rule, pair=pair)
            assert value == pytest.approx(total_exact / (2.0 * (j + 1)), rel=1e-13), (k, j)
    # on the square's own order it is the square summed in another order
    for k in range(2 * m):
        f = lambda t, r, u, v: t * r ** (k // 2) * (u + v) ** k * (u * v)  # noqa: E731
        value = integrate_cube(f, 4, pair, pair=pair)
        assert value == pytest.approx(integrate_cube(f, 4, pair), rel=1e-14), k
    with pytest.raises(ValueError, match="two coordinates"):
        integrate_cube(lambda u: u, 1, pair, pair=pair)


def test_pair_rule_takes_the_pairs_on_one_axis():
    n = 5
    seen = []

    def f(t, r, u, v):
        seen.append([x.shape for x in (t, r, u, v)])
        return t + r + u * v

    integrate_cube(f, 4, gauss_rule(n), pair=gauss_rule(4))
    assert seen == [[(n, 1, 1), (1, n, 1), (1, 1, 10), (1, 1, 10)]]
    value, trace = integrate_converged(lambda u, v: np.exp(u + v), 2, tol=1e-12, symmetric=True)
    assert value == pytest.approx((math.e - 1.0) ** 2, rel=1e-13)
    assert trace[0] == (quad.N_SEQUENCE_START, None)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_coordinates_arrive_on_separate_axes(d):
    n = 5
    seen = []

    def f(*xs):
        seen.append([x.shape for x in xs])
        return sum(xs)

    integrate_cube(f, d, gauss_rule(n))
    shapes = seen[0]
    assert len(seen) == 1 and len(shapes) == d
    for k, shape in enumerate(shapes):
        assert shape == tuple(n if j == k else 1 for j in range(d))


def test_omitted_axis_integrates_as_if_broadcast(monkeypatch):
    # an integrand of z alone keeps length 1 on the x and y axes, members too
    monkeypatch.setattr(quad, "_CHUNK", 97)
    rule = gauss_rule(12)

    def lean(x, y, z):
        return np.stack([np.exp(z), z * z])

    def full(x, y, z):
        shape = np.broadcast_shapes(x.shape, y.shape, z.shape)
        return np.stack([np.broadcast_to(g, shape) for g in lean(x, y, z)])

    got, want = integrate_cube(lean, 3, rule), integrate_cube(full, 3, rule)
    assert got.shape == want.shape == (2,)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert got[0] == pytest.approx(math.e - 1.0, rel=1e-13)
    assert got[1] == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_results_are_floats_and_a_zero_is_positive():
    # a scalar integrand returns a Python float, members an array of their
    # shape, and a lone -0.0 comes back as 0.0
    for n in (1, 12):
        rule = gauss_rule(n)
        whole = integrate_cube(lambda x: np.stack([np.exp(x) / 3.0, -0.0 * x, np.sin(7.0 * x)]), 1, rule)
        assert isinstance(whole, np.ndarray) and whole.shape == (3,)
        assert whole[1] == 0.0 and not np.signbit(whole[1])
        for d in (1, 4):
            scalar = integrate_cube(lambda *xs: -0.0 * xs[0], d, rule)
            assert type(scalar) is float and scalar == 0.0 and not np.signbit(scalar)


def test_4d_memory_stays_within_a_few_slabs():
    # at n = 62 one slab is a single row of 62^3 nodes; the whole rule would
    # be 62 times that, and the peak must stay near the slab, not the rule
    n = 62
    slab_bytes = 8 * n**3
    tracemalloc.start()
    try:
        value = integrate_cube(lambda t, r, u, v: np.exp(t) * r * u * v, 4, gauss_rule(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx((math.e - 1.0) / 8.0, rel=1e-13)
    assert peak <= 6 * slab_bytes, peak / slab_bytes


def test_nan_in_one_entry_raises_at_the_first_order():
    def f(x):
        out = np.stack([x, x * x, np.exp(x)])
        out[1, 3] = np.nan
        return out

    with pytest.raises(QuadratureError, match="non-finite") as exc_info:
        integrate_converged(f, 1)
    assert exc_info.value.trace == [(FIRST, None)]
