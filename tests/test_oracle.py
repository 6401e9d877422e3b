"""Unit checks of the verification oracles themselves."""

import ast
import inspect
import math

import mpmath
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
from critline.presets import kappa_preset, kappa_star_preset


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
    value = contour_circle(lambda z: mpmath.exp(z) / z**2, ContourSpec(radius=0.5))
    assert abs(value - 1.0) < 1e-13


def test_contour_no_enclosed_pole():
    value = contour_circle(lambda z: 1.0 / (z - 2.0), ContourSpec(radius=1.0))
    assert abs(value) < 1e-13


def test_contour_spec_validation():
    with pytest.raises(OracleError):
        ContourSpec(radius=0.0)
    with pytest.raises(OracleError):
        ContourSpec(radius=-1.0)


@pytest.mark.parametrize(
    "center, radius",
    [(math.nan, 1.0), (math.inf, 1.0), (complex(0.0, math.nan), 1.0),
     (0.0, math.nan), (0.0, math.inf)],
)
def test_contour_spec_rejects_non_finite(center, radius):
    with pytest.raises(OracleError):
        ContourSpec(center=center, radius=radius)


def _contour_circle_per_point(f, spec):
    """contour_circle with every node computed by its own exp: the form the
    shared roots of unity replaced."""
    n = oracle.CONTOUR_POINTS
    with mpmath.workdps(oracle.CONTOUR_DPS):
        total = mpmath.mpc(0)
        for k in range(n):
            z = spec.center + spec.radius * mpmath.exp(2j * mpmath.pi * k / n)
            total += f(z) * (z - spec.center)
        return complex(total / n)


def test_shared_contour_nodes_change_no_value():
    def f(z):
        return mpmath.exp(3.0 * z) / ((z + 0.2) * z**3)

    for spec in (
        ContourSpec(center=0.0, radius=0.3),
        ContourSpec(center=-0.2, radius=0.1),
        ContourSpec(center=complex(0.1, -0.05), radius=0.45),
    ):
        expected = _contour_circle_per_point(f, spec)
        assert contour_circle(f, spec) == expected
        assert contour_circle(f, spec) == expected


def test_parameters_converted_once_change_no_value():
    # float -> mpf is exact, so converting per circle instead of per point
    # gives the same bits
    alpha, beta, logq = 0.037, -0.081, 13.7
    a, b, lq = map(mpmath.mpf, (alpha, beta, logq))
    spec = ContourSpec(center=0.0, radius=0.3)
    per_point = contour_circle(
        lambda s: mpmath.exp(logq * s) * (alpha + s) * (-beta + s) / s**4, spec
    )
    per_circle = contour_circle(lambda s: mpmath.exp(lq * s) * (a + s) * (-b + s) / s**4, spec)
    assert per_circle == per_point


def test_contour_node_cache_is_bounded():
    for radius in (0.5, 1.0, 2.0):
        contour_circle(lambda z: 1.0 / z, ContourSpec(radius=radius))
    info = oracle._roots_of_unity.cache_info()
    assert info.currsize == info.maxsize == 1
    assert len(oracle._roots_of_unity()) == oracle.CONTOUR_POINTS


def test_contour_extended_precision_path():
    value = contour_circle(lambda z: 1.0 / z, ContourSpec(radius=1.0))
    assert abs(value - 1.0) < 1e-14


def test_oracle_does_not_import_quad():
    # the oracles must not share code paths with the quadrature they check
    tree = ast.parse(inspect.getsource(oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any(name.split(".")[-1] == "quad" for name in imported), imported
    assert "quad" not in vars(oracle)


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


# -- finite-difference oracle ------------------------------------------------


def _tensor_integral_ld(f, d, n):
    """Tensor-product Gauss-Legendre on [0,1]^d in long double, evaluating f
    at every node of a meshgrid: the form the factored scalars replaced."""
    x64, w64 = np.polynomial.legendre.leggauss(n)
    x = ((x64 + 1.0) / 2.0).astype(np.longdouble)
    w = (w64 / 2.0).astype(np.longdouble)
    grids = np.meshgrid(*([x] * d), indexing="ij")
    weight = np.longdouble(1.0)
    for g in np.meshgrid(*([w] * d), indexing="ij"):
        weight = weight * g
    values = f(*[g.ravel() for g in grids])
    return np.sum(values * weight.ravel())


def _c12_scalar_meshgrid(cfg, x, y, n):
    ld = np.longdouble
    th1, th2, R = ld(cfg.theta1), ld(cfg.theta2), ld(cfg.R)
    x, y = ld(x), ld(y)
    Q, P1 = cfg.Q, cfg.P1
    P2dd = cfg.P2.derivative().derivative()

    def f(s, t, u):
        a = s
        b = (1.0 - s) * t
        jac = 1.0 - s
        expo = np.exp(R * (th1 * (y - x) + u * th2 * (a - b)))
        return (
            u * u * (1.0 - u) * expo
            * Q(-x * th1 + a * u * th2) * Q(1.0 + y * th1 - b * u * th2)
            * P1(x + y + 1.0 - (1.0 - u) * th2 / th1)
            * P2dd((1.0 - a - b) * u) * jac
        )

    value = _tensor_integral_ld(f, 3, n)
    return 4.0 * (th2**2 / th1**2) * np.exp(R) * value


def _c2_scalar_meshgrid(cfg, x, y, n):
    ld = np.longdouble
    th2, R = ld(cfg.theta2), ld(cfg.R)
    x, y = ld(x), ld(y)
    Q = cfg.Q
    P2dd = cfg.P2.derivative().derivative()

    def f(t, r, u, v):
        E = x + y - v * (y + r) - u * (x + r)
        G = 1.0 + th2 * E
        return (
            (1.0 - r) ** 4 * (1.0 / th2 + E) * np.exp(-th2 * R * E)
            * Q(th2 * (-y + u * (x + r)) + t * G) * np.exp(2.0 * R * t * G)
            * Q(th2 * (-x + v * (y + r)) + t * G)
            * (x + r) * (y + r) * P2dd((1.0 - u) * (x + r)) * P2dd((1.0 - v) * (y + r))
        )

    return (2.0 / 3.0) * _tensor_integral_ld(f, 4, n)


@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset])
def test_factored_fd_scalars_match_the_meshgrid_form(preset):
    cfg = preset()
    h = oracle.FD_H
    offsets = [(0.0, 0.0), (h, -2 * h), (-2 * h, 2 * h), (2 * h, h), (0.3, -0.2)]
    for n in (6, 8):
        for x, y in offsets:
            for factored, reference in (
                (oracle._c12_scalar, _c12_scalar_meshgrid),
                (oracle._c2_scalar, _c2_scalar_meshgrid),
            ):
                got = factored(cfg, x, y, n=n)
                want = reference(cfg, x, y, n=n)
                assert got.dtype == np.longdouble
                assert abs(got - want) <= 1e-17 * abs(want), (n, x, y, factored.__name__)


def test_jet_operators_pass_at_the_kappa_preset():
    result = oracle.check_jet_operators(kappa_preset())
    assert result.passed, result
