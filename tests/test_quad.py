"""Gauss-Legendre rules, tensor integration, and the order ladder."""

import math

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


def test_cube_chunking_is_exact():
    rule = gauss_rule(16)
    f = lambda x, y, z: np.exp(x) * np.cos(y) * z  # noqa: E731
    whole = integrate_cube(f, 3, rule)
    chunked = integrate_cube(f, 3, rule, chunk=97)
    assert chunked == pytest.approx(whole, rel=1e-14)


# -- the order ladder --------------------------------------------------------

FIRST, SECOND = list(quad.ladder())[:2]


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
    # |x - 1/2| has a kink, so no rung up to 32 can hit 1e-15
    with pytest.raises(QuadratureError) as exc_info:
        integrate_converged(lambda x: np.abs(x - 0.5), 1, tol=1e-15, n_max=32)
    trace = exc_info.value.trace
    assert [n for n, _ in trace] == list(quad.ladder(n_max=32))
    assert trace[-1][0] == 32
    assert trace[0][1] is None and all(delta >= 1e-15 for _, delta in trace[1:])


def test_non_finite_order_raises_at_once():
    # a NaN cannot converge; the ladder must stop at the first order, not run to n_max
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
    assert [n for n, _ in exc_info.value.trace] == [FIRST, SECOND]
    assert calls == [FIRST, SECOND]


def test_ladder_grows_by_three_halves():
    assert list(quad.ladder()) == [12, 18, 27, 41, 62, 93, 140, 210, 256]
    assert list(quad.ladder(8, 64)) == [8, 12, 18, 27, 41, 62, 64]


@pytest.mark.parametrize("n_start", [1, 5, quad.N_SEQUENCE_START])
@pytest.mark.parametrize("n_max", [1, 2, 30, 100, 255, quad.N_MAX])
def test_ladder_terminates_and_clamps_to_n_max(n_start, n_max):
    orders = list(quad.ladder(n_start, n_max))
    if n_start > n_max:
        assert orders == []
        return
    assert orders[0] == n_start and orders[-1] == n_max
    for n, nxt in zip(orders, orders[1:]):
        assert n < nxt <= math.ceil(1.5 * n)
    # the quadrature walks the same rungs
    with pytest.raises(QuadratureError) as exc_info:
        integrate_converged(lambda x: np.abs(x - 0.5), 1, tol=1e-300, n_start=n_start, n_max=n_max)
    assert [n for n, _ in exc_info.value.trace] == orders


def test_node_budget_stops_a_4d_ladder():
    # a kink in 4-D cannot reach 1e-15; the ladder stops before 93^4 > 2^24 nodes
    assert 62**4 <= quad.NODE_BUDGET < 93**4
    with pytest.raises(QuadratureError, match="node budget") as exc_info:
        integrate_converged(lambda *xs: np.abs(xs[0] - 0.5), 4, tol=1e-15)
    trace = exc_info.value.trace
    assert [n for n, _ in trace] == [12, 18, 27, 41, 62]
    assert all(delta >= 1e-15 for _, delta in trace[1:])


def test_invalid_arguments():
    with pytest.raises(ValueError):
        integrate_converged(lambda x: x, 1, tol=0.0)
    with pytest.raises(ValueError):
        integrate_converged(lambda x: x, 1, tol=math.nan)
    with pytest.raises(ValueError):
        integrate_converged(lambda *xs: xs[0], 5)


# -- array-valued integrands -------------------------------------------------


def test_array_integrand_matches_componentwise():
    rule = gauss_rule(10)

    def f(u, v):
        return np.stack([u * v, u, v])

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
        integrate_converged(
            lambda x: np.stack([g(x) for g in entries]), 1, tol=1e-15, n_max=SECOND
        )
    assert exc_info.value.trace == [(FIRST, None), (SECOND, max(changes))]


def test_array_integrand_chunking_is_exact():
    rule = gauss_rule(16)

    def f(x, y, z):
        base = np.exp(x) * np.cos(y) * z
        return np.stack([base, base * x, np.sin(z)])[:, None, :] * np.array([1.0, -2.0])[:, None]

    whole = integrate_cube(f, 3, rule)
    chunked = integrate_cube(f, 3, rule, chunk=97)
    assert whole.shape == chunked.shape == (3, 2)
    np.testing.assert_allclose(chunked, whole, rtol=1e-14, atol=0.0)


def test_nan_in_one_entry_raises_at_the_first_order():
    def f(x):
        out = np.stack([x, x * x, np.exp(x)])
        out[1, 3] = np.nan
        return out

    with pytest.raises(QuadratureError, match="non-finite") as exc_info:
        integrate_converged(f, 1)
    assert exc_info.value.trace == [(FIRST, None)]
