"""Ring axioms, exp, and exact mixed partials of the truncated Taylor jets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critline.jet import Jet, JetError, jet_eval_poly
from critline.poly import Polynomial


def random_jet(data, mx=2, my=2):
    coeffs = np.array(data).reshape(mx + 1, my + 1)
    return Jet(mx, my, coeffs)


jet_coeffs = st.lists(
    st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=9, max_size=9
)


def assert_jets_close(a: Jet, b: Jet, atol=1e-9):
    np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=1e-9, atol=atol)


# -- constructors and shape discipline --------------------------------------


def test_constant_and_linear():
    c = Jet.constant(2.5, 2, 2)
    assert c.coeffs[0, 0] == 2.5
    assert np.count_nonzero(c.coeffs) == 1
    lin = Jet.linear(1.0, 2.0, 3.0, 1, 1)
    assert lin.coeffs[0, 0] == 1.0
    assert lin.coeffs[1, 0] == 2.0
    assert lin.coeffs[0, 1] == 3.0


def test_linear_rejects_out_of_cap_terms():
    with pytest.raises(JetError):
        Jet.linear(0.0, 1.0, 0.0, 0, 2)
    with pytest.raises(JetError):
        Jet.linear(0.0, 0.0, 1.0, 2, 0)
    # zero coefficients outside caps are fine
    Jet.linear(1.0, 0.0, 0.0, 0, 0)


def test_cap_mismatch_raises():
    with pytest.raises(JetError):
        Jet.constant(1.0, 1, 1) * Jet.constant(1.0, 2, 2)
    with pytest.raises(JetError):
        Jet.constant(1.0, 1, 1) + Jet.constant(1.0, 1, 2)


def test_mixed_partial_beyond_caps_raises():
    with pytest.raises(JetError):
        Jet.constant(1.0, 1, 1).mixed_partial(2, 0)


# -- ring axioms -------------------------------------------------------------


@settings(max_examples=50)
@given(jet_coeffs, jet_coeffs)
def test_multiplication_commutes(a, b):
    x, y = random_jet(a), random_jet(b)
    assert_jets_close(x * y, y * x)


@settings(max_examples=50)
@given(jet_coeffs, jet_coeffs, jet_coeffs)
def test_multiplication_associates(a, b, c):
    x, y, z = random_jet(a), random_jet(b), random_jet(c)
    assert_jets_close((x * y) * z, x * (y * z), atol=1e-7)


@settings(max_examples=50)
@given(jet_coeffs, jet_coeffs, jet_coeffs)
def test_distributivity(a, b, c):
    x, y, z = random_jet(a), random_jet(b), random_jet(c)
    assert_jets_close(x * (y + z), x * y + x * z, atol=1e-8)


def test_scalar_ops_and_negation():
    x = random_jet(range(9))
    assert_jets_close(2.0 * x, x + x)
    assert_jets_close(x + (-1.0) * x, Jet.constant(0.0, 2, 2))
    assert_jets_close(1.0 + x + (-1.0), x)


# -- truncation semantics ----------------------------------------------------


def test_truncation_is_exact():
    # (x*y)^2 has x^2y^2 coefficient 1 at caps (2,2), and x^3 terms vanish
    xy = Jet.linear(0.0, 1.0, 0.0, 2, 2) * Jet.linear(0.0, 0.0, 1.0, 2, 2)
    sq = xy * xy
    assert sq.mixed_partial(2, 2) == pytest.approx(4.0)  # 2! * 2! * 1
    x = Jet.linear(0.0, 1.0, 0.0, 2, 2)
    cube = x * x * x  # x^3 truncates to zero
    assert np.allclose(cube.coeffs, 0.0)


# -- exp ---------------------------------------------------------------------


@settings(max_examples=30)
@given(jet_coeffs, jet_coeffs)
def test_exp_is_a_homomorphism(a, b):
    x, y = random_jet(a), random_jet(b)
    lhs, rhs = (x + y).exp(), x.exp() * y.exp()
    scale = max(1.0, float(np.max(np.abs(lhs.coeffs))), float(np.max(np.abs(rhs.coeffs))))
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-9 * scale)


def test_exp_of_linear_closed_form():
    c0, cx, cy = 0.3, -0.7, 1.1
    e = Jet.linear(c0, cx, cy, 2, 2).exp()
    for i in range(3):
        for j in range(3):
            expected = cx**i * cy**j * math.exp(c0)
            assert e.mixed_partial(i, j) == pytest.approx(expected, rel=1e-13)


def test_exp_matches_finite_differences():
    h = 1e-4

    def f(x, y):
        return math.exp(0.2 + 0.5 * x - 0.3 * y + x * y)

    arg = Jet.linear(0.2, 0.5, -0.3, 1, 1) + Jet.linear(0.0, 1.0, 0.0, 1, 1) * Jet.linear(
        0.0, 0.0, 1.0, 1, 1
    )
    jet_d = arg.exp().mixed_partial(1, 1)
    fd = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)
    assert jet_d == pytest.approx(fd, rel=1e-6)


# -- polynomial evaluation ---------------------------------------------------


def test_jet_eval_poly_chain_rule():
    p = Polynomial((1.0, 2.0, 3.0, 4.0))
    a0 = 0.4
    arg = Jet.linear(a0, 1.0, 2.0, 1, 1)
    val = jet_eval_poly(p, arg)
    assert val.mixed_partial(0, 0) == pytest.approx(p(a0), rel=1e-14)
    assert val.mixed_partial(1, 0) == pytest.approx(p.derivative()(a0), rel=1e-13)
    assert val.mixed_partial(0, 1) == pytest.approx(2.0 * p.derivative()(a0), rel=1e-13)
    second = p.derivative().derivative()(a0)
    assert val.mixed_partial(1, 1) == pytest.approx(2.0 * second, rel=1e-12)


# -- batched coefficients ----------------------------------------------------


def test_batched_jets_match_scalar_loop():
    nodes = np.linspace(0.1, 0.9, 7)
    batched = jet_eval_poly(
        Polynomial((0.0, 1.0, 1.0)), Jet.linear(nodes, 1.0, -1.0, 1, 1)
    ).exp()
    partial = batched.mixed_partial(1, 1)
    assert partial.shape == nodes.shape
    for k, a in enumerate(nodes):
        single = jet_eval_poly(
            Polynomial((0.0, 1.0, 1.0)), Jet.linear(a, 1.0, -1.0, 1, 1)
        ).exp()
        assert partial[k] == pytest.approx(single.mixed_partial(1, 1), rel=1e-12)
