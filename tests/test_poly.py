"""Polynomial arithmetic and the three constrained smoothing families."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from critline.poly import ConfigError, InY, Polynomial, make_p1, make_p2, make_q

coeff_lists = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=6
)


def test_normal_form_drops_trailing_zeros():
    p = Polynomial((1.0, 2.0, 0.0, 0.0))
    assert p.coeffs == (1.0, 2.0)
    assert p.degree == 1


def test_zero_polynomial():
    p = Polynomial((0.0, 0.0, 0.0))
    assert p.coeffs == (0.0,)
    assert p.is_zero
    assert not Polynomial((0.0, 1.0)).is_zero


def test_horner_matches_numpy_polyval():
    p = Polynomial((1.0, -2.0, 0.5, 3.0))
    xs = np.linspace(-2, 2, 17)
    expected = np.polynomial.polynomial.polyval(xs, np.array(p.coeffs))
    assert np.allclose(p(xs), expected, rtol=1e-14)
    assert p(0.75) == pytest.approx(float(np.polynomial.polynomial.polyval(0.75, np.array(p.coeffs))))


def horner_from_zero(p, x):
    """The Horner loop ``Polynomial.__call__`` ran before it started from the
    leading coefficient: a float64 zeros array (0.0 for a scalar) times x."""
    acc = np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def horner_inputs():
    grid = np.linspace(-1.5, 1.5, 7)  # includes 0.0
    third = np.longdouble(1) / np.longdouble(3)
    return {
        "float64 array": grid,
        "float64 2-d array": np.outer(grid, grid[:3]),
        "long-double array": grid.astype(np.longdouble) * third,
        "float32 array": grid.astype(np.float32),
        "int array": np.arange(-3, 4),
        "python float": 0.37,
        "python int": -2,
        "float64 scalar": np.float64(-0.61),
        "long-double scalar": third,
        "float32 scalar": np.float32(0.3),
        "int64 scalar": np.int64(3),
        "0-d float64 array": np.array(0.37),
        "0-d long-double array": np.array(third),
        "0-d int array": np.array(2),
    }


@pytest.mark.parametrize("degree", range(8))
def test_horner_from_the_leading_coefficient_changes_nothing(degree):
    # value, dtype, type and shape all match the zero-started loop, bit for bit
    rng = np.random.default_rng(100 + degree)
    polys = [Polynomial(tuple(rng.uniform(-2.0, 2.0, size=degree + 1)))]
    if degree == 0:
        polys.append(Polynomial((0.0,)))
    for p in polys:
        assert p.degree == degree
        for name, x in horner_inputs().items():
            got, want = p(x), horner_from_zero(p, x)
            assert type(got) is type(want), name
            assert np.result_type(got) == np.result_type(want), name
            assert np.shape(got) == np.shape(want), name
            assert np.array_equal(got, want), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name


def term_by_term_q(const, odd, x):
    """Q(x) summed term by term: the constant, then c * (1 - 2x)^k power by
    power, each power a product of k factors."""
    total = const + 0.0 * x
    for j, c in enumerate(odd):
        total = total + c * (1.0 - 2.0 * x) ** (2 * j + 1)
    return total


def test_make_q_matches_the_term_by_term_expansion():
    # make_q places the coefficients at y^0 and the odd powers of y = 1 - 2x,
    # the even ones exactly 0, and its values are the term-by-term sum's to
    # rounding relative to sum |q_k|, whatever the degree
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 1.0, 33)
    for n_odd in (0, 1, 4, 12, 50):
        for scale in (1e-3, 1.0, 10.0):
            odd = tuple(scale * rng.standard_normal(n_odd))
            const = 1.0 - sum(odd)
            q = make_q(const, odd)
            coeffs = (const, *(v for c in odd for v in (c, 0.0)))
            assert q.coeffs == Polynomial(coeffs).coeffs
            size = abs(const) + sum(map(abs, odd))
            assert np.max(np.abs(q(x) - term_by_term_q(const, odd, x))) <= 1e-14 * size, (n_odd, scale)


def test_q_in_y_keeps_a_high_degree_accurate():
    # (1 - 2x)^k has monomial coefficients whose magnitudes sum to 3^k, so a
    # monomial Q of degree 41 rounds to about 1e-16 * 3^41 = 4e3; in y it
    # stays at rounding level, here against 40-digit arithmetic
    import mpmath

    odd = tuple(np.random.default_rng(41).uniform(-1.0, 1.0, 21))
    q = make_q(0.25, odd)
    assert q.degree == 41
    with mpmath.workdps(40):
        for x in np.linspace(0.0, 1.0, 17):
            y = 1 - 2 * mpmath.mpf(x)
            want = 0.25 + mpmath.fsum(c * y ** (2 * j + 1) for j, c in enumerate(odd))
            assert abs(q(x) - want) <= 1e-14, x


def test_q_in_y_derivative_and_scale():
    # the kernels differentiate Q in y: its Taylor list of step -2 gives
    # d/dx p(1 - 2x) = -2 p'(1 - 2x), against the derivative of Q's monomial
    # expansion; scale multiplies the values and keeps Q in y
    from critline.moments import Family, _taylor

    q = make_q(0.492, (0.604, -0.08, -0.06, 0.046))
    monomial = np.polynomial.Polynomial(q.coeffs)(np.polynomial.Polynomial([1.0, -2.0]))
    x = np.linspace(0.0, 1.0, 9)
    _, dq = _taylor(Family(np.array([q.coeffs]), 0), 1, -2.0)
    assert np.allclose(dq(1.0 - 2.0 * x), monomial.deriv()(x), rtol=0.0, atol=1e-13)
    assert dq.degree == q.degree - 1
    assert isinstance(q.scale(-3.0), InY)
    assert np.allclose(q.scale(-3.0)(x), -3.0 * q(x), rtol=0.0, atol=1e-14)


def test_derivative_and_antiderivative():
    p = Polynomial((2.0, 3.0, 4.0))  # 2 + 3x + 4x^2
    assert p.derivative().coeffs == (3.0, 8.0)
    assert Polynomial((5.0,)).derivative().is_zero


@given(coeff_lists, st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_scale_is_pointwise(a, factor):
    p = Polynomial(tuple(a))
    xs = np.linspace(0.0, 1.0, 5)
    assert np.allclose(p.scale(factor)(xs), factor * p(xs), rtol=1e-12, atol=1e-12)


# -- Q family ---------------------------------------------------------------


def symmetry_defect(q):
    """Max deviation of Q(x) + Q(1-x) from Q(0) + Q(1), x on 21 points of [0, 1]."""
    x = np.linspace(0.0, 1.0, 21)
    return float(np.max(np.abs(q(x) + q(1.0 - x) - (q(0.0) + q(1.0)))))


@given(
    st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), max_size=6),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
)
@example(odd=[0.6, 0.2, -0.3, 0.4, -0.5, 0.6], const=-0.3)
def test_make_q_symmetry(odd, const):
    q = make_q(const, odd)
    assert symmetry_defect(q) <= 1e-10
    # Q(x) + Q(1-x) collapses to twice the basis constant
    assert q(0.3) + q(0.7) == pytest.approx(2.0 * const, abs=1e-10)


def test_make_q_value_at_zero():
    odd = (0.604, -0.08, -0.06, 0.046)
    q = make_q(0.492, odd)
    assert q(0.0) == pytest.approx(0.492 + sum(odd), abs=1e-12)


# -- P1 family --------------------------------------------------------------


def test_make_p1_verbatim_tolerance():
    make_p1((0.5, 0.5))  # P1(1) = 1 exactly
    with pytest.raises(ConfigError):
        make_p1((0.5, 0.6))  # P1(1) = 1.1


# -- P2 family --------------------------------------------------------------


def test_make_p2_vanishes_to_third_order():
    p = make_p2((2.0, -1.0))
    assert p.coeffs[:3] == (0.0, 0.0, 0.0)
    assert p.coeffs[3:] == (2.0, -1.0)


def test_make_p2_empty_is_zero():
    assert make_p2(()).is_zero
