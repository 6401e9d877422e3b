"""Unit checks of the verification oracles themselves."""

import cmath
import math

import numpy as np
import pytest

from critline import oracle
from critline.oracle import (
    ArithmeticTables,
    ContourSpec,
    OracleError,
    check_contour_identity,
    check_euler_maclaurin,
    check_mellin_pair,
    check_mobius_identities,
    check_q_operator,
    contour_circle,
)
from critline.poly import Polynomial, QSpec, make_p1, make_q


# -- arithmetic tables -------------------------------------------------------


def test_mobius_small_values():
    mu = ArithmeticTables(30).mu
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 10: 1, 12: 0, 30: -1}
    for n, value in expected.items():
        assert mu[n] == value


def test_mu2_is_mobius_convolved_with_itself():
    t = ArithmeticTables(30)
    # mu * mu at 2: mu(1)mu(2) + mu(2)mu(1) = -2; at 4: mu(2)^2 = 1; at 6: 4
    assert t.mu2[1] == 1
    assert t.mu2[2] == -2
    assert t.mu2[4] == 1
    assert t.mu2[6] == 4
    assert t.mu2[8] == 0


def test_divisor_functions():
    t = ArithmeticTables(100)
    assert t.dk(1)[10] == 1
    assert t.dk(2)[12] == 6  # divisors of 12
    assert t.dk(3)[4] == 6  # ordered triples with product 4
    assert t.dk(3)[7] == 3
    with pytest.raises(OracleError):
        t.dk(6)


def test_tables_bounds():
    with pytest.raises(OracleError):
        ArithmeticTables(0)
    with pytest.raises(OracleError):
        ArithmeticTables(2_000_000)


# -- contour integration -----------------------------------------------------


def test_contour_residue_of_simple_pole():
    value = contour_circle(lambda z: 1.0 / z, ContourSpec(radius=1.0))
    assert abs(value - 1.0) < 1e-13


def test_contour_residue_of_double_pole():
    # e^z / z^2 has residue 1 at the origin
    value = contour_circle(lambda z: cmath.exp(z) / z**2, ContourSpec(radius=0.5))
    assert abs(value - 1.0) < 1e-13


def test_contour_no_enclosed_pole():
    value = contour_circle(lambda z: 1.0 / (z - 2.0), ContourSpec(radius=1.0))
    assert abs(value) < 1e-13


def test_contour_spec_validation():
    with pytest.raises(OracleError):
        ContourSpec(radius=0.0)
    with pytest.raises(OracleError):
        ContourSpec(n_points=8)


def test_contour_extended_precision_path():
    spec = ContourSpec(radius=1.0, dps=40)
    value = contour_circle(lambda z: 1.0 / z, spec)
    assert abs(value - 1.0) < 1e-14


# -- identity checks ---------------------------------------------------------


def test_fixed_contour_identities_pass():
    assert check_contour_identity("K1", i=2, alpha=0.0, beta=0.0, logq=10.0).passed
    assert check_contour_identity("K2", j=3, alpha=0.03, beta=0.02, logq=20.0).passed
    assert check_contour_identity("L1", i=3, alpha=0.05, beta=-0.04, logq=15.0).passed
    assert check_contour_identity("F_residues", j=1, k=2, s=0.5, logx=5.0).passed


def test_contour_identity_validation():
    with pytest.raises(OracleError):
        check_contour_identity("K1", i=0, logq=5.0)
    with pytest.raises(OracleError):
        check_contour_identity("K2", j=2, logq=5.0)
    with pytest.raises(OracleError):
        check_contour_identity("K1", i=1, alpha=0.5, logq=5.0)
    with pytest.raises(OracleError):
        check_contour_identity("F_residues", j=0, k=0, s=0.0, logx=5.0)
    with pytest.raises(OracleError):
        check_contour_identity("parabola", logq=5.0)


def test_mobius_identities_exact():
    result = check_mobius_identities(2000)
    assert result.passed
    assert result.error == 0.0


def test_mellin_pair_inside_and_outside():
    p1 = make_p1((0.5, 0.5))
    y1 = 1e4
    inside = check_mellin_pair(p1, y1, 10.0)
    assert inside.passed
    assert inside.params["expected"] == pytest.approx(p1(math.log(y1 / 10.0) / math.log(y1)))
    outside = check_mellin_pair(p1, y1, 2 * y1)
    assert outside.passed
    assert outside.params["expected"] == 0.0
    with pytest.raises(OracleError):
        check_mellin_pair(p1, y1, 0.5)


def test_q_operator_constant_q_is_exact():
    result = check_q_operator(Polynomial((1.0,)), X=100.0, T=1e6)
    assert result.passed
    assert result.error < 1e-15


def test_q_operator_preset_style_q():
    q = make_q(QSpec(odd_coeffs=(0.604, -0.08, -0.06, 0.046), const=0.492))
    result = check_q_operator(q, X=(1e8) ** (4.0 / 7.0), T=1e8, alpha=-0.1 / math.log(1e8))
    assert result.passed


def test_euler_maclaurin_validation():
    with pytest.raises(OracleError):
        check_euler_maclaurin("basic", l=0, s=0.5, x=1e4)  # |s| too large
    with pytest.raises(OracleError):
        check_euler_maclaurin("helix", l=0, s=0.0, x=1e4)


def test_out_of_scope_listing():
    assert len(oracle.OUT_OF_SCOPE) == 3


def test_run_suite_unknown_name():
    with pytest.raises(OracleError):
        oracle.run_suite("everything")


def test_qop_suite_passes():
    results = oracle.run_suite("qop")
    assert results and all(r.passed for r in results)
