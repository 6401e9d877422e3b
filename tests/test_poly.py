"""Polynomial arithmetic and the three constrained smoothing families."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from critline import poly
from critline.poly import (
    Polynomial,
    PolynomialError,
    QSpec,
    make_p1,
    make_p2,
    make_q,
    q_symmetry_defect,
)

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


def horner_out_of_place(p, x):
    """The Horner loop ``Polynomial.__call__`` ran on arrays before it updated
    one accumulator in place: a fresh ``acc * x + c`` at every step."""
    *lower, lead = p.coeffs
    acc = np.full(np.shape(x), lead, dtype=np.result_type(x, float))
    for c in reversed(lower):
        acc = acc * x + c
    return acc


def test_in_place_horner_matches_the_out_of_place_loop():
    # degree 7 on 24^3 grids, as the finite-difference oracle evaluates Q;
    # bit for bit, in the input's float type, and the input left as it was
    rng = np.random.default_rng(7)
    p = Polynomial(tuple(rng.uniform(-2.0, 2.0, size=8)))
    grid = rng.uniform(-1.5, 1.5, size=(24, 24, 24))
    for x in (grid, grid.astype(np.longdouble) / np.longdouble(3)):
        before = x.copy()
        got, want = p(x), horner_out_of_place(p, x)
        assert got.dtype == want.dtype == x.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(x, before)
    # the docstring's dtype rules: an array evaluates in result_type(x, float)
    assert p(np.arange(3)).dtype == np.float64
    assert p(np.ones(3, dtype=np.float32)).dtype == np.float64
    assert type(p(0.5)) is float
    assert type(p(np.float32(0.5))) is np.float32
    assert type(p(np.array(0.5, dtype=np.longdouble))) is np.longdouble


def term_by_term_q(spec):
    """Q's monomial coefficients as ``make_q`` expanded them before its basis
    was cached: the constant, then c * (1 - 2x)^k added power by power."""
    out = np.zeros(max(spec.powers(), default=0) + 1)
    out[0] = spec.const
    for c, k in zip(spec.odd_coeffs, spec.powers()):
        term = np.polynomial.polynomial.polypow(np.array([1.0, -2.0]), k)
        out[: len(term)] += c * term
    return Polynomial(tuple(out))


def test_make_q_matches_the_term_by_term_expansion():
    # the cached basis changes no bit of Q, and callers cannot write to it
    rng = np.random.default_rng(11)
    for n_odd in range(7):
        for scale in (1e-3, 1.0, 10.0):
            odd = tuple(scale * rng.standard_normal(n_odd))
            spec = QSpec(odd_coeffs=odd, const=1.0 - sum(odd))
            assert make_q(spec).coeffs == term_by_term_q(spec).coeffs, (n_odd, scale)
    with pytest.raises(ValueError):
        poly._q_basis((1, 3))[1, 0] = 0.0


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


def test_qspec_default_powers():
    assert QSpec(odd_coeffs=(0.1, 0.2, 0.3)).powers() == (1, 3, 5)
    assert QSpec().powers() == ()


@given(
    st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), max_size=6),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
)
@example(odd=[0.6, 0.2, -0.3, 0.4, -0.5, 0.6], const=-0.3)  # defect 2.4e-12 from rounding
def test_make_q_symmetry(odd, const):
    q = make_q(QSpec(odd_coeffs=tuple(odd), const=const))
    assert q_symmetry_defect(q) <= 1e-10
    # Q(x) + Q(1-x) collapses to twice the basis constant
    assert q(0.3) + q(0.7) == pytest.approx(2.0 * const, abs=1e-10)


def test_make_q_rejects_a_wrong_basis(monkeypatch):
    # an even power, (1 - 2x)^10, makes Q(x) + Q(1 - x) vary by twice its
    # coefficient: far above the tolerance, which scales with sum |q_k|
    monkeypatch.setattr(QSpec, "powers", lambda self: (1, 3, 5, 7, 9, 10))
    with pytest.raises(PolynomialError, match="deviates from constant"):
        make_q(QSpec(odd_coeffs=(0.6, 0.2, -0.3, 0.4, -0.5, 1e-3), const=0.5))


@pytest.mark.parametrize("top", [647, 651])
def test_a_q_basis_that_overflows_raises(top):
    # sum |coeffs| of (1 - 2x)^k is 3^k, past the largest double from k = 647
    # (a coefficient itself from k = 651): no tolerance can check such a row
    with pytest.raises(PolynomialError, match=r"\(1 - 2x\)\^647 overflows"):
        poly._q_basis(tuple(range(1, top + 1, 2)))
    assert poly._q_basis(tuple(range(1, 646, 2))).shape == (324, 646)


def test_make_q_value_at_zero():
    spec = QSpec(odd_coeffs=(0.604, -0.08, -0.06, 0.046), const=0.492)
    q = make_q(spec)
    assert q(0.0) == pytest.approx(spec.const + sum(spec.odd_coeffs), abs=1e-12)


@pytest.mark.parametrize(
    "spec",
    [QSpec(odd_coeffs=(math.nan,)), QSpec(odd_coeffs=(0.5, math.inf)), QSpec(const=math.inf)],
    ids=["nan-odd", "inf-odd", "inf-const"],
)
def test_make_q_rejects_non_finite_input(spec):
    with pytest.raises(PolynomialError, match="non-finite"):
        make_q(spec)


# -- P1 family --------------------------------------------------------------


def test_make_p1_verbatim_tolerance():
    make_p1((0.5, 0.5))  # P1(1) = 1 exactly
    with pytest.raises(PolynomialError):
        make_p1((0.5, 0.6))  # P1(1) = 1.1


def test_make_p1_normalize():
    p = make_p1((1.0, 3.0), normalize=True)
    assert p(1.0) == pytest.approx(1.0, abs=1e-15)
    assert p.coeffs == (0.0, 0.25, 0.75)
    with pytest.raises(PolynomialError):
        make_p1((1.0, -1.0), normalize=True)  # P1(1) = 0


# -- P2 family --------------------------------------------------------------


def test_make_p2_vanishes_to_third_order():
    p = make_p2((2.0, -1.0))
    assert p.coeffs[:3] == (0.0, 0.0, 0.0)
    assert p.coeffs[3:] == (2.0, -1.0)


def test_make_p2_empty_is_zero():
    assert make_p2(()).is_zero
