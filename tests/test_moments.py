"""The moment constants: closed forms, scaling structure, and validation."""

import math

import numpy as np
import pytest

from critline import moments, quad
from critline.jet import Jet, jet_eval_poly
from critline.moments import (
    SIMPLE_ZEROS,
    ConfigError,
    MollifierConfig,
    blocks,
    compute_kappa,
    evaluate,
    renormalized_q,
)
from critline.poly import P2Spec, Polynomial, QSpec, make_p1, make_p2, make_q
from critline.presets import kappa_preset, kappa_star_preset

THETA1 = 4.0 / 7.0
THETA2 = 0.5

ONE = Polynomial((1.0,))
IDENT = make_p1((1.0,))  # P1(x) = x


def small_config(**overrides):
    base = dict(
        theta1=THETA1,
        theta2=THETA2,
        R=1.1,
        Q=make_q(QSpec(odd_coeffs=(0.3,), const=0.7)),
        P1=make_p1((0.6, 0.4)),
        P2=make_p2(P2Spec((0.05, -0.01))),
    )
    base.update(overrides)
    return MollifierConfig(**base)


# -- validation --------------------------------------------------------------


def test_config_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        small_config(R=0.0)
    with pytest.raises(ConfigError):
        small_config(theta2=0.6, theta1=0.55)  # theta2 > theta1
    with pytest.raises(ConfigError):
        small_config(theta1=0.6)  # > 4/7
    with pytest.raises(ConfigError):
        small_config(theta2=-0.1)
    with pytest.raises(ConfigError):
        small_config(mode="everything")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite_inputs(bad):
    with pytest.raises(ConfigError, match="finite"):
        small_config(R=bad)
    with pytest.raises(ConfigError):
        small_config(theta1=bad)
    with pytest.raises(ConfigError):
        small_config(theta2=bad)
    with pytest.raises(ConfigError, match="P2"):
        small_config(P2=make_p2(P2Spec((bad,))))
    with pytest.raises(ConfigError, match="Q"):
        small_config(Q=Polynomial((0.7, bad)))
    with pytest.raises(ConfigError, match="P1"):
        small_config(P1=Polynomial((0.0, 1.0, bad)))


def test_simple_zeros_requires_linear_q():
    cfg = small_config(Q=make_q(QSpec(odd_coeffs=(0.5,), const=0.5)), mode=SIMPLE_ZEROS)
    assert cfg.mode == SIMPLE_ZEROS
    with pytest.raises(ConfigError):
        small_config(
            Q=make_q(QSpec(odd_coeffs=(0.3, 0.1), const=0.6)), mode=SIMPLE_ZEROS
        )


def test_theta_boundaries_are_inclusive():
    small_config(theta1=4.0 / 7.0, theta2=0.5)  # the published point


def form(cfg, left, right, tol, n_start=quad.N_SEQUENCE_START):
    """The (c1 - 1, c12, c2) values of :func:`moments.blocks` between two
    (P1, P2) sides at cfg's (Q, R, theta1, theta2)."""
    return [value for value, _ in blocks(
        cfg.Q, left, right, cfg.R, cfg.theta1, cfg.theta2, tol, n_start, quad.N_MAX
    )]


# -- c1 ----------------------------------------------------------------------


def test_c1_closed_form():
    # Q = 1, P1 = x: the double integral separates into elementary pieces
    R, t1 = 1.28, THETA1
    cfg = small_config(Q=ONE, R=R)
    c1 = 1.0 + form(cfg, (IDENT, None), (IDENT, None), tol=1e-13)[0]
    expected = 1.0 + (math.expm1(2 * R)) * ((1 + t1 * R) ** 3 - 1) / (6 * t1**2 * R**2)
    assert abs(c1 - expected) <= 1e-12


def test_c1_at_least_one():
    # c1 - 1 is a weighted square integral, so it can never be negative
    for R in (0.5, 1.28, 2.0):
        cfg = small_config(R=R)
        assert 1.0 + form(cfg, (cfg.P1, None), (cfg.P1, None), tol=1e-9)[0] >= 1.0


# -- scaling structure -------------------------------------------------------


def test_c12_is_bilinear_in_p1_p2():
    cfg = small_config()
    lam, mu = 1.7, -0.6
    base = form(cfg, (cfg.P1, cfg.P2), (cfg.P1, cfg.P2), tol=1e-6, n_start=8)[1]
    p1, p2 = cfg.P1.scale(lam), cfg.P2.scale(mu)
    scaled = form(cfg, (p1, p2), (p1, p2), tol=1e-6, n_start=8)[1]
    assert scaled == pytest.approx(lam * mu * base, rel=1e-9)


def test_c2_is_quadratic_in_p2():
    cfg = small_config()
    mu = 2.3
    base = form(cfg, (cfg.P1, cfg.P2), (cfg.P1, cfg.P2), tol=1e-6, n_start=8)[2]
    p2 = cfg.P2.scale(mu)
    scaled = form(cfg, (cfg.P1, p2), (cfg.P1, p2), tol=1e-6, n_start=8)[2]
    assert scaled == pytest.approx(mu * mu * base, rel=1e-9)


def test_c2_bilinear_hook_polarizes():
    cfg = small_config()
    other = make_p2(P2Spec((0.02, 0.01)))

    def c2(a, b):
        return form(cfg, (cfg.P1, a), (cfg.P1, b), tol=1e-6, n_start=8)[2]

    cross = c2(cfg.P2, other)
    swapped = c2(other, cfg.P2)
    assert cross == pytest.approx(swapped, rel=1e-9)
    # polarization identity: B(a+b, a+b) = B(a,a) + 2 B(a,b) + B(b,b)
    total = Polynomial(tuple(np.polynomial.polynomial.polyadd(cfg.P2.coeffs, other.coeffs)))
    both = c2(total, total)
    aa = c2(cfg.P2, cfg.P2)
    bb = c2(other, other)
    assert both == pytest.approx(aa + 2 * cross + bb, rel=1e-8)


def test_zero_p2_kills_cross_and_diagonal_terms():
    cfg = small_config(P2=make_p2(P2Spec()))
    report = evaluate(cfg, tol=1e-9)
    assert report.c12 == 0.0
    assert report.c2 == 0.0
    assert report.c == report.c1
    assert report.diagnostics["c12_trace"] == []


# -- kappa and reports -------------------------------------------------------


def test_compute_kappa_closed_form():
    assert compute_kappa(math.e, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert compute_kappa(1.0, 2.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        compute_kappa(-1.0, 1.0)
    with pytest.raises(ValueError):
        compute_kappa(2.0, 0.0)


def test_evaluate_report_shape():
    cfg = small_config()
    report = evaluate(cfg, tol=1e-6)
    assert report.c == pytest.approx(report.c1 + 2 * report.c12 + report.c2, rel=1e-15)
    assert report.kappa == pytest.approx(1.0 - math.log(report.c) / cfg.R, rel=1e-14)
    payload = report.to_dict()
    assert payload["schema"] == 1
    for key in ("theta1", "theta2", "R", "mode", "Q", "P1", "P2",
                "c1", "c12", "c2", "c", "kappa", "diagnostics"):
        assert key in payload
    # every ladder trace must end converged
    for name in ("c1_trace", "c12_trace", "c2_trace"):
        trace = payload["diagnostics"][name]
        assert trace[-1][1] < 1e-6


def test_renormalized_q():
    cfg = small_config(Q=make_q(QSpec(odd_coeffs=(0.3,), const=0.704)))
    q0 = cfg.Q(0.0)
    assert q0 != 1.0
    normed = renormalized_q(cfg)
    assert normed.Q(0.0) == pytest.approx(1.0, abs=1e-15)
    assert normed.Q.coeffs == tuple(c / q0 for c in cfg.Q.coeffs)
    with pytest.raises(ConfigError):
        renormalized_q(small_config(Q=Polynomial((0.0, 1.0))))


def test_renormalization_rescales_the_quadratic_part():
    # every constant is quadratic in Q, so c - 1 scales by 1/Q(0)^2
    cfg = small_config(Q=make_q(QSpec(odd_coeffs=(0.3,), const=0.704)))
    q0 = cfg.Q(0.0)
    raw = evaluate(cfg, tol=1e-6)
    normed = evaluate(renormalized_q(cfg), tol=1e-6)
    assert normed.c - 1.0 == pytest.approx((raw.c - 1.0) / q0**2, rel=1e-9)


# -- closed-form kernels against the jet ring ---------------------------------


def jet_c12_integrand(Q, P1, P2, R, theta1, theta2):
    """The (1,1)-jet c12 integrand the closed-form kernel replaced."""
    P2dd = P2.derivative().derivative()

    def integrand(s, t, u):
        a = s
        b = (1.0 - s) * t
        jac = 1.0 - s
        expo = Jet.linear(R * u * theta2 * (a - b), -R * theta1, R * theta1, 1, 1).exp()
        qa = jet_eval_poly(Q, Jet.linear(a * u * theta2, -theta1, 0.0, 1, 1))
        qb = jet_eval_poly(Q, Jet.linear(1.0 - b * u * theta2, 0.0, theta1, 1, 1))
        p1 = jet_eval_poly(P1, Jet.linear(1.0 - (1.0 - u) * theta2 / theta1, 1.0, 1.0, 1, 1))
        scalar = u * u * (1.0 - u) * P2dd((1.0 - a - b) * u) * jac
        return expo * qa * qb * p1 * scalar

    return integrand


def jet_c2_integrand(Q, P2, P2_other, R, theta2):
    """The (2,2)-jet c2 integrand the closed-form kernel replaced."""
    Add = P2.derivative().derivative()
    Bdd = P2_other.derivative().derivative()

    def integrand(t, r, u, v):
        e0, ex, ey = -r * (u + v), 1.0 - u, 1.0 - v
        g0, gx, gy = 1.0 + theta2 * e0, theta2 * ex, theta2 * ey
        E = Jet.linear(e0, ex, ey, 2, 2)
        exp_e = Jet.linear(-theta2 * R * e0, -theta2 * R * ex, -theta2 * R * ey, 2, 2).exp()
        exp_g = Jet.linear(2.0 * R * t * g0, 2.0 * R * t * gx, 2.0 * R * t * gy, 2, 2).exp()
        qa = jet_eval_poly(
            Q, Jet.linear(theta2 * u * r + t * g0, theta2 * u + t * gx, -theta2 + t * gy, 2, 2)
        )
        qb = jet_eval_poly(
            Q, Jet.linear(theta2 * v * r + t * g0, -theta2 + t * gx, theta2 * v + t * gy, 2, 2)
        )
        xr = Jet.linear(r, 1.0, 0.0, 2, 2)
        yr = Jet.linear(r, 0.0, 1.0, 2, 2)
        p2a = jet_eval_poly(Add, Jet.linear((1.0 - u) * r, 1.0 - u, 0.0, 2, 2))
        p2b = jet_eval_poly(Bdd, Jet.linear((1.0 - v) * r, 0.0, 1.0 - v, 2, 2))
        front = ((1.0 / theta2) + E) * ((1.0 - r) ** 4)
        return front * exp_e * exp_g * qa * qb * (xr * yr) * (p2a * p2b)

    return integrand


def coefficient_grid(jet_integrand):
    """The jet's coefficient grid per node, an array integrand for quad."""
    return lambda *xs: jet_integrand(*xs).coeffs


def kernel_panel():
    """Seeded configurations plus the two presets: Q of degree 1 to 7, and a
    second P2 factor that differs from the first."""
    rng = np.random.default_rng(20261018)
    panel = []
    for n_odd in (1, 2, 3, 4):
        odd = tuple(rng.uniform(-0.5, 0.8, size=n_odd))
        p1 = rng.uniform(-0.5, 1.0, size=int(rng.integers(2, 6)))
        panel.append(dict(
            Q=make_q(QSpec(odd_coeffs=odd, const=1.0 - sum(odd))),
            P1=make_p1(tuple(p1 / p1.sum()), normalize=True),
            P2=make_p2(P2Spec(tuple(rng.uniform(-0.5, 0.5, size=3)))),
            P2_other=make_p2(P2Spec(tuple(rng.uniform(-0.5, 0.5, size=2)))),
            R=float(rng.uniform(0.8, 1.6)),
            theta2=float(rng.uniform(0.3, 0.5)),
        ))
    for preset in (kappa_preset(), kappa_star_preset()):
        panel.append(dict(Q=preset.Q, P1=preset.P1, P2=preset.P2, P2_other=preset.P2,
                          R=preset.R, theta2=preset.theta2))
    return panel


@pytest.mark.parametrize("point", kernel_panel())
def test_closed_form_kernels_match_the_jet_ring(point):
    rule = quad.gauss_rule(8)
    Q, P1, P2, other, R, th2 = (point[k] for k in ("Q", "P1", "P2", "P2_other", "R", "theta2"))
    c12 = quad.integrate_cube(moments.c12_integrand(Q, P1, P2, R, THETA1, th2), 3, rule)
    c12_jet = quad.integrate_cube(coefficient_grid(jet_c12_integrand(Q, P1, P2, R, THETA1, th2)), 3, rule)
    assert c12 == pytest.approx(float(c12_jet[1, 1]), rel=1e-13, abs=0.0)
    c2 = quad.integrate_cube(moments.c2_integrand(Q, P2, other, R, th2), 4, rule)
    c2_jet = quad.integrate_cube(coefficient_grid(jet_c2_integrand(Q, P2, other, R, th2)), 4, rule)
    assert c2 == pytest.approx(float(c2_jet[2, 2]), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset])
def test_preset_ladders_stop_at_the_second_rung(preset):
    report = evaluate(renormalized_q(preset()))
    for name in ("c1_trace", "c12_trace", "c2_trace"):
        assert [n for n, _ in report.diagnostics[name]] == list(quad.ladder())[:2] == [12, 18], name


# -- the ladder's certificate against a higher-order reference ----------------


def assert_certificate_honest(cfg):
    """For c1, c12 and c2 the ladder's last delta bounds the relative error of
    the converged integral against the n = 48 rule, up to a 1e-13 floor: c1's
    integral scatters by about 4e-14 between orders once converged."""
    kernels = (
        ("c1", moments.c1_integrand(cfg.Q, cfg.P1, cfg.P1, cfg.R, cfg.theta1), 2),
        ("c12", moments.c12_integrand(cfg.Q, cfg.P1, cfg.P2, cfg.R, cfg.theta1, cfg.theta2), 3),
        ("c2", moments.c2_integrand(cfg.Q, cfg.P2, cfg.P2, cfg.R, cfg.theta2), 4),
    )
    rule = quad.gauss_rule(48)
    for name, integrand, d in kernels:
        value, trace = quad.integrate_converged(integrand, d)
        reference = quad.integrate_cube(integrand, d, rule)
        error = abs(value - reference) / max(abs(value), abs(reference), 1.0)
        assert error <= trace[-1][1] + 1e-13, (name, error, trace)


@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset])
def test_certificate_bounds_the_error_at_presets(preset):
    assert_certificate_honest(renormalized_q(preset()))


@pytest.mark.slow
def test_certificate_bounds_the_error_on_the_random_panel():
    from test_acceptance import random_config

    rng = np.random.default_rng(12345)
    for _ in range(10):
        assert_certificate_honest(random_config(rng))
