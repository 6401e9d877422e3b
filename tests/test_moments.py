"""The moment constants: closed forms, scaling structure, and validation."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from critline import moments, quad
from critline.jet import Jet, jet_eval_poly
from critline.moments import (
    SIMPLE_ZEROS,
    ConfigError,
    Family,
    MollifierConfig,
    blocks,
    compute_kappa,
    evaluate,
    renormalized_q,
)
from critline.poly import InY, Polynomial, make_p1, make_p2, make_q
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
        Q=make_q(0.7, (0.3,)),
        P1=make_p1((0.6, 0.4)),
        P2=make_p2((0.05, -0.01)),
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
        small_config(P2=make_p2((bad,)))
    with pytest.raises(ConfigError, match="Q"):
        small_config(Q=InY(Polynomial((0.7, bad))))
    with pytest.raises(ConfigError, match="P1"):
        small_config(P1=Polynomial((0.0, 1.0, bad)))


def test_simple_zeros_requires_linear_q():
    cfg = small_config(Q=make_q(0.5, (0.5,)), mode=SIMPLE_ZEROS)
    assert cfg.mode == SIMPLE_ZEROS
    with pytest.raises(ConfigError, match="simple mode searches a linear Q"):
        small_config(
            Q=make_q(0.6, (0.3, 0.1)), mode=SIMPLE_ZEROS
        )


def test_theta_boundaries_are_inclusive():
    small_config(theta1=4.0 / 7.0, theta2=0.5)  # the published point


def rows(p):
    """A slot of :func:`moments.blocks`: a polynomial as one coefficient row
    (Q's in y), an array of rows as it is, ``None`` as it is."""
    return p if p is None or isinstance(p, np.ndarray) else np.array([p.coeffs])


def form(cfg, p, tol, n_start=quad.N_SEQUENCE_START):
    """The (c1 - 1, c12, c2) blocks of :func:`moments.blocks` on the side
    (cfg's Q, *p), p a (P1, P2) pair, each slot as coefficient rows, at cfg's
    (R, theta1, theta2)."""
    return [value for value, _ in blocks(
        tuple(rows(slot) for slot in (cfg.Q, *p)), cfg.R, cfg.theta1, cfg.theta2, tol, n_start
    )]


# -- families of coefficient rows ----------------------------------------------


FAMILY_ROWS = {
    # criterion 6's Q = 1, in y: degree 0, whose derivative is a zero row
    "Q = 1": np.array([[1.0]]),
    "kappa Q in y": np.array([kappa_preset().Q.coeffs]),
    "P2 monomials": np.eye(6)[3:],
    "random": np.random.default_rng(7).uniform(-1.0, 1.0, (3, 6)),
}


def assert_family_is_the_polynomials(family, x):
    """Each row of ``family`` at x has the bits of :class:`Polynomial` on it,
    the reference; one row evaluates on x's shape, and m rows put their
    members on the family's axis, the unit axes left of it left out."""
    got, m = family(x), len(family.coeffs)
    members = (m,) + (1,) * (3 - family.axis) if m > 1 else ()
    assert np.shape(got) == members + np.shape(x)
    for row, value in zip(family.coeffs, np.reshape(got, (m,) + np.shape(x))):
        want = Polynomial(tuple(row))(x)
        assert np.asarray(value).tobytes() == np.asarray(want, dtype=float).tobytes(), (row, x)


@pytest.mark.parametrize("axis", range(4))
@pytest.mark.parametrize("name", FAMILY_ROWS)
def test_family_is_polynomial_bit_for_bit(name, axis):
    coeffs = FAMILY_ROWS[name]
    family = Family(coeffs, axis)
    grid = np.random.default_rng(11).uniform(-1.5, 1.5, (2, 3, 4))
    for x in (0.37, -1.25, np.float64(0.6), np.linspace(-1.0, 1.0, 7), grid):
        assert_family_is_the_polynomials(family, x)
        assert_family_is_the_polynomials(family.derivative(), x)
        assert_family_is_the_polynomials(family.derivative().derivative(), x)
    # the derivative's rows are Polynomial's (up to its trailing zeros),
    # degree 0 a zero row
    for row, drow in zip(coeffs, family.derivative().coeffs):
        assert Polynomial(tuple(drow)).coeffs == Polynomial(tuple(row)).derivative().coeffs
    assert family.derivative().degree == max(family.degree - 1, 0)


# -- c1 ----------------------------------------------------------------------


def test_c1_closed_form():
    # Q = 1, P1 = x: the double integral separates into elementary pieces
    R, t1 = 1.28, THETA1
    cfg = small_config(Q=ONE, R=R)
    c1 = 1.0 + form(cfg, (IDENT, None), tol=1e-13)[0]
    expected = 1.0 + (math.expm1(2 * R)) * ((1 + t1 * R) ** 3 - 1) / (6 * t1**2 * R**2)
    assert abs(c1 - expected) <= 1e-12


class Counted:
    """A polynomial that counts its evaluations, and its derivative's (a
    scaled polynomial counts as the one it scales)."""

    def __init__(self, p, calls, name):
        self.p, self.calls, self.name = p, calls, name
        self.degree = p.degree

    def __call__(self, x):
        self.calls[self.name] += 1
        return self.p(x)

    def derivative(self):
        return Counted(self.p.derivative(), self.calls, self.name + "'")

    def scale(self, factor):
        return Counted(self.p.scale(factor), self.calls, self.name)


def q_and_derivative(Q, v):
    """Q(v) and Q'(v) = -2 p'(1 - 2v) for Q = p(1 - 2x)."""
    y = 1.0 - 2.0 * v
    return Q.p(y), -2.0 * Q.p.derivative()(y)


def tensor_c1(Q, P1, P1_other, R, theta1):
    """c1 - 1 between P1 and P1_other as the 24 x 24 tensor rule's sum of
    e^{2Rv} L(P1) L(P1_other) over (u, v), normalized.

    The rule's nodes and weights are mpmath's, rounded from 100 bits, not
    ``quad.gauss_rule``'s: a rule computed apart from the code under test
    keeps a fault in that rule from showing up on both sides of the 1e-14
    comparison, where it would cancel.  24 nodes are exact in u for degrees
    up to 47 and converged in v."""
    rule = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(4, 100)
    nodes = np.array([float((x + 1) / 2) for x, _ in rule])
    weights_1d = np.array([float(w / 2) for _, w in rule])
    u, v = (g.ravel() for g in np.meshgrid(nodes, nodes, indexing="ij"))
    weights = np.outer(weights_1d, weights_1d).ravel()
    Qv, Qdv = q_and_derivative(Q, v)

    def L(P):
        return Qv * P.derivative()(u) + theta1 * Qdv * P(u) + theta1 * R * Qv * P(u)

    K = np.sum(np.exp(2.0 * R * v) * L(P1) * L(P1_other) * weights, axis=-1)
    return K / theta1


def test_c1_kernel_evaluates_each_factor_once():
    # building the kernel evaluates each side's P(u) and P'(u) once, for the
    # exact u-moments; each call evaluates Q(v), Q'(v) and the other side's
    # two once each, and no P
    cfg, other = small_config(), make_p1((0.3, 0.7))
    other_q = make_q(0.7, (0.2, 0.1))
    calls = {name: 0 for name in ("Q", "Q'", "P", "P'", "R", "R'", "O", "O'")}
    # the kernels take Q as p in y = 1 - 2x
    integrand = moments.c1_integrand(
        Counted(cfg.Q.p, calls, "Q"), Counted(cfg.P1, calls, "P"),
        Counted(other_q.p, calls, "R"), Counted(other, calls, "O"), cfg.R, cfg.theta1,
    )
    assert calls == {"Q": 0, "Q'": 0, "P": 1, "P'": 1, "R": 0, "R'": 0, "O": 1, "O'": 1}
    v = np.linspace(1.0, 0.0, 7)
    value = integrand(v)
    assert calls == {"Q": 1, "Q'": 1, "P": 1, "P'": 1, "R": 1, "R'": 1, "O": 1, "O'": 1}
    integrand(v)
    assert calls == {"Q": 2, "Q'": 2, "P": 1, "P'": 1, "R": 2, "R'": 2, "O": 1, "O'": 1}

    # the u-integral of e^{2Rv} L_Q(P1) L_R(other) on a 12-node rule, exact
    # for its degree-4 u-part, at each v
    rule = quad.gauss_rule(12)
    u, w = rule.nodes[:, None], rule.weights[:, None]

    def L(Q, P):
        (q, qd), Pd = q_and_derivative(Q, v), P.derivative()
        return q * Pd(u) + cfg.theta1 * qd * P(u) + cfg.theta1 * cfg.R * q * P(u)

    expected = np.exp(2.0 * cfg.R * v) * np.sum(L(cfg.Q, cfg.P1) * L(other_q, other) * w, axis=0)
    assert np.allclose(value, expected, rtol=1e-14, atol=0.0)


C1_FAMILIES = {
    "preset P1": lambda cfg: np.array([cfg.P1.coeffs]),
    "monomials d1=5": lambda cfg: np.eye(6)[1:],
    "monomials d1=9": lambda cfg: np.eye(10)[1:],
}


@pytest.mark.parametrize("family", C1_FAMILIES)
@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset])
def test_c1_block_matches_the_tensor_rule(preset, family):
    # the 1-D kernel over exact u-moments against the 24 x 24 tensor rule of
    # the 2-D integrand, entry by entry; coefficient rows are P1's members on
    # axes 2 (left) and 3 (right)
    cfg = renormalized_q(preset())
    p1 = C1_FAMILIES[family](cfg)
    m = len(p1)
    got = form(cfg, (p1, None), tol=1e-12)[0]
    assert np.shape(got) == (1, 1, m, m)
    want = np.reshape(tensor_c1(cfg.Q, Family(p1, 2), Family(p1, 3), cfg.R, cfg.theta1), (m, m))
    got = got[0, 0]
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), np.max(np.abs(got / want - 1.0))


def test_c1_at_least_one():
    # c1 - 1 is a weighted square integral, so it can never be negative
    for R in (0.5, 1.28, 2.0):
        cfg = small_config(R=R)
        assert 1.0 + form(cfg, (cfg.P1, None), tol=1e-9)[0] >= 1.0


# -- scaling structure -------------------------------------------------------


def test_c12_is_bilinear_in_p1_p2():
    cfg = small_config()
    lam, mu = 1.7, -0.6
    base = form(cfg, (cfg.P1, cfg.P2), tol=1e-6, n_start=8)[1]
    p1, p2 = cfg.P1.scale(lam), cfg.P2.scale(mu)
    scaled = form(cfg, (p1, p2), tol=1e-6, n_start=8)[1]
    assert scaled == pytest.approx(lam * mu * base, rel=1e-9)


def test_c2_is_quadratic_in_p2():
    cfg = small_config()
    mu = 2.3
    base = form(cfg, (cfg.P1, cfg.P2), tol=1e-6, n_start=8)[2]
    p2 = cfg.P2.scale(mu)
    scaled = form(cfg, (cfg.P1, p2), tol=1e-6, n_start=8)[2]
    assert scaled == pytest.approx(mu * mu * base, rel=1e-9)


def test_c2_bilinear_hook_polarizes():
    # P2 as the rows a, b, a + b: the c2 block holds B(x, y) for each pair
    cfg = small_config()
    a, b = np.array(cfg.P2.coeffs), np.array(make_p2((0.02, 0.01)).coeffs)
    assert a.shape == b.shape
    block = form(cfg, (cfg.P1, np.array([a, b, a + b])), tol=1e-6, n_start=8)[2]
    assert block.shape == (1, 1, 3, 3)
    B = block[0, 0]
    assert B == pytest.approx(B.T, rel=1e-9)
    # polarization identity: B(a+b, a+b) = B(a,a) + 2 B(a,b) + B(b,b)
    assert B[2, 2] == pytest.approx(B[0, 0] + 2 * B[0, 1] + B[1, 1], rel=1e-8)


def test_zero_p2_kills_cross_and_diagonal_terms():
    cfg = small_config(P2=make_p2(()))
    report = evaluate(cfg)
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
    # log(2)/R overflows to inf: no certified number, so no kappa
    with pytest.raises(ValueError, match="not finite"):
        compute_kappa(2.0, 1e-320)


def test_evaluate_report_shape():
    cfg = small_config()
    report = evaluate(cfg)
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


@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset])
def test_p1_normalized_kappa_is_the_rescaled_evaluation(preset):
    # the published P1 is rounded, so P1(1) is 0.99999951 at kappa; the
    # diagnostics give kappa at P1 / P1(1) without evaluating it
    cfg = preset()
    diagnostics = evaluate(cfg).diagnostics
    assert diagnostics["p1_at_1"] == cfg.P1(1.0)
    rescaled = evaluate(replace(cfg, P1=cfg.P1.scale(1.0 / cfg.P1(1.0))))
    assert diagnostics["kappa_p1_normalized"] == pytest.approx(rescaled.kappa, abs=1e-12)


def test_p1_normalized_kappa_is_left_out_when_undefined():
    # P1(1) = 0: no rescaling exists, and the evaluation still stands
    report = evaluate(small_config(P1=Polynomial((0.0, 1.0, -1.0))))
    assert report.diagnostics["p1_at_1"] == 0.0
    assert "kappa_p1_normalized" not in report.diagnostics
    assert math.isfinite(report.kappa)
    # a rescaled c <= 0 has no kappa: 1 + (c1 - 1) + 2 c12 + c2 = -1 here
    assert moments._p1_normalized(ONE, 1.0, c1=1.0, c12=-1.0, c2=0.0) == {"p1_at_1": 1.0}


def test_renormalized_q():
    cfg = small_config(Q=make_q(0.704, (0.3,)))
    q0 = cfg.Q(0.0)
    assert q0 != 1.0
    normed = renormalized_q(cfg)
    assert normed.Q(0.0) == pytest.approx(1.0, abs=1e-15)
    assert normed.Q.coeffs == tuple(c / q0 for c in cfg.Q.coeffs)
    vanishing = make_q(-0.5, (0.5,))  # Q(x) = -x
    with pytest.raises(ConfigError):
        renormalized_q(small_config(Q=vanishing))
    with pytest.raises(ConfigError, match="cannot renormalize"):
        evaluate(small_config(Q=vanishing))


def raw_c(cfg):
    """c at the config as given, Q(0) = 1 or not: one :func:`blocks` pass on
    one coefficient row per slot."""
    side = (rows(cfg.Q), rows(cfg.P1), None if cfg.P2.is_zero else rows(cfg.P2))
    (c1, _), (c12, _), (c2, _) = blocks(side, cfg.R, cfg.theta1, cfg.theta2,
                                        quad.DEFAULT_TOL, quad.N_SEQUENCE_START)
    return 1.0 + c1.item() + 2.0 * c12.item() + c2.item()


def test_renormalization_rescales_the_quadratic_part():
    # every constant is quadratic in Q, so c - 1 scales by 1/Q(0)^2
    cfg = small_config(Q=make_q(0.704, (0.3,)))
    q0 = cfg.Q(0.0)
    normed = evaluate(cfg)
    assert normed.config.Q(0.0) == pytest.approx(1.0, abs=1e-15)
    assert normed.c - 1.0 == pytest.approx((raw_c(cfg) - 1.0) / q0**2, rel=1e-9)


def test_evaluate_normalizes_preset_q(monkeypatch):
    # stub the constants: evaluate must renormalize Q(0) = 1.002 -> 1, run
    # blocks once, and derive the verbatim values from the normalized c;
    # Q(0) is the sum of Q's row in y = 1 - 2x
    q0s = []

    def fake_blocks(side, *args):
        q0s.append(side[0].sum())
        return (np.ones((1, 1, 1, 1)), []), (np.zeros((1, 1, 1, 1)), []), (np.zeros((1, 1, 1, 1)), [])

    monkeypatch.setattr(moments, "blocks", fake_blocks)
    diagnostics = evaluate(kappa_preset()).diagnostics
    assert q0s == [pytest.approx(1.0, abs=1e-12)]  # the normalized run only
    assert list(diagnostics)[-3:] == ["q0_verbatim", "kappa_verbatim", "c_verbatim"]
    assert diagnostics["q0_verbatim"] == pytest.approx(1.002)
    assert diagnostics["c_verbatim"] == pytest.approx(1.0 + 1.002**2 * (2.0 - 1.0), rel=1e-14)
    assert diagnostics["kappa_verbatim"] == pytest.approx(
        1.0 - math.log(diagnostics["c_verbatim"]) / 1.28, rel=1e-14
    )


def test_evaluate_runs_blocks_once(monkeypatch):
    # the verbatim diagnostics follow from the one normalized blocks pass and
    # agree with a direct blocks pass at the verbatim preset
    calls = []
    real_blocks = moments.blocks

    def counting_blocks(side, *args):
        calls.append(side[0].sum())
        return real_blocks(side, *args)

    monkeypatch.setattr(moments, "blocks", counting_blocks)
    diagnostics = evaluate(kappa_preset()).diagnostics
    assert calls == [pytest.approx(1.0, abs=1e-12)]
    cfg = kappa_preset()
    c = raw_c(cfg)
    assert diagnostics["q0_verbatim"] == pytest.approx(1.002, abs=1e-12)
    assert diagnostics["c_verbatim"] == pytest.approx(c, rel=1e-12)
    assert diagnostics["kappa_verbatim"] == pytest.approx(compute_kappa(c, cfg.R), abs=1e-12)


# -- closed-form kernels against the jet ring ---------------------------------


def jet_q(Q, a):
    """Q at the jet a: p(1 - 2a), with p read off Q's coefficients in y."""
    return jet_eval_poly(Polynomial(Q.coeffs), a * -2.0 + 1.0)


def jet_c12_integrand(Q, P1, P2, R, theta1, theta2):
    """The (1,1)-jet c12 integrand the closed-form kernel replaced."""
    P2dd = P2.derivative().derivative()

    def integrand(s, t, u):
        a = s
        b = (1.0 - s) * t
        jac = 1.0 - s
        expo = Jet.linear(R * u * theta2 * (a - b), -R * theta1, R * theta1, 1, 1).exp()
        qa = jet_q(Q, Jet.linear(a * u * theta2, -theta1, 0.0, 1, 1))
        qb = jet_q(Q, Jet.linear(1.0 - b * u * theta2, 0.0, theta1, 1, 1))
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
        qa = jet_q(
            Q, Jet.linear(theta2 * u * r + t * g0, theta2 * u + t * gx, -theta2 + t * gy, 2, 2)
        )
        qb = jet_q(
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
        P1 = Polynomial((0.0, *(p1 / p1.sum())))
        panel.append(dict(
            Q=make_q(1.0 - sum(odd), odd),
            P1=P1.scale(1.0 / P1(1.0)),
            P2=make_p2(tuple(rng.uniform(-0.5, 0.5, size=3))),
            P2_other=make_p2(tuple(rng.uniform(-0.5, 0.5, size=2))),
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
    q = Q.p  # the kernels take Q as p in y = 1 - 2x
    c12 = quad.integrate_cube(moments.c12_integrand(q, P1, q, P2, R, THETA1, th2), 3, rule)
    c12_jet = quad.integrate_cube(coefficient_grid(jet_c12_integrand(Q, P1, P2, R, THETA1, th2)), 3, rule)
    assert c12 == pytest.approx(float(c12_jet[1, 1]), rel=1e-13, abs=0.0)
    c2 = quad.integrate_cube(moments.c2_integrand(q, P2, q, other, R, th2), 4, rule)
    c2_jet = quad.integrate_cube(coefficient_grid(jet_c2_integrand(Q, P2, other, R, th2)), 4, rule)
    assert c2 == pytest.approx(float(c2_jet[2, 2]), rel=1e-13, abs=0.0)


# -- the 4-linear kernels against the bilinear kernels they replaced ----------
#
# Before Q_other, each kernel took one Q for both of its Q factors.  These are
# those kernels as they were, the reference for the 4-linear ones at
# Q_other = Q, with Q = p(1 - 2x) read through p as the kernels read it now.


def bilinear_c1_integrand(Q, P1, P1_other, R, theta1):
    rule = quad.gauss_rule((P1.degree + P1_other.degree) // 2 + 1)
    u = rule.nodes
    a, ad = P1(u), P1.derivative()(u)
    b, bd = P1_other(u), P1_other.derivative()(u)
    U0, U1, U2 = (np.sum(f * rule.weights, axis=-1, keepdims=True)
                  for f in (ad * bd, ad * b + a * bd, a * b))
    def integrand(v):
        q, qd = q_and_derivative(Q, v)
        qp = theta1 * (qd + R * q)
        return np.exp(2.0 * R * v) * (U0 * (q * q) + U1 * (q * qp) + U2 * (qp * qp))

    return integrand


def bilinear_grid(taylor, c0, cx, cy, cap):
    t = [p(c0) for p in taylor]
    px, py = [1.0, cx, cx * cx], [1.0, cy, cy * cy]
    return [[math.comb(i + j, i) * t[i + j] * px[i] * py[j] for j in range(cap + 1)]
            for i in range(cap + 1)]


def bilinear_c12_integrand(Q, P1, P2, R, theta1, theta2):
    q = moments._taylor(Q.p, 1, -2.0)
    p1 = moments._taylor(P1, 2)
    P2dd = P2.derivative().derivative()

    def integrand(s, t, u):
        a = s
        b = (1.0 - s) * t
        jac = 1.0 - s
        X = moments._times_exp(moments._series(q, 1.0 - 2.0 * (a * u * theta2), -theta1), -R * theta1)
        Y = moments._times_exp(moments._series(q, 1.0 - 2.0 * (1.0 - b * u * theta2), theta1),
                               R * theta1)
        XY = [[xi * yj for yj in Y] for xi in X]
        grid = bilinear_grid(p1, 1.0 - (1.0 - u) * theta2 / theta1, 1.0, 1.0, 1)
        scalar = u * u * (1.0 - u) * P2dd((1.0 - a - b) * u) * jac
        return moments._coeff(XY, grid, 1, 1) * np.exp(R * u * theta2 * (a - b)) * scalar

    return integrand


def bilinear_c2_integrand(Q, P2, P2_other, R, theta2):
    q = moments._taylor(Q.p, 4, -2.0)
    pa = moments._taylor(P2.derivative().derivative(), 2)
    pb = moments._taylor(P2_other.derivative().derivative(), 2)

    def side(taylor, r, w, L):
        D = moments._series(taylor, w * r, w)
        return moments._times_exp([r * D[0], D[0] + r * D[1], D[1] + r * D[2]], L)

    def integrand(t, r, u, v):
        e0, ex, ey = -r * (u + v), 1.0 - u, 1.0 - v
        g0, gx, gy = 1.0 + theta2 * e0, theta2 * ex, theta2 * ey
        rt = 2.0 * R * t
        L0 = rt * g0 - theta2 * R * e0
        Lx = rt * gx - theta2 * R * ex
        Ly = rt * gy - theta2 * R * ey
        tg0, tgx, tgy = t * g0, t * gx, t * gy
        qa = bilinear_grid(q, 1.0 - 2.0 * (theta2 * u * r + tg0), theta2 * u + tgx, tgy - theta2, 2)
        qb = bilinear_grid(q, 1.0 - 2.0 * (theta2 * v * r + tg0), tgx - theta2, theta2 * v + tgy, 2)
        qq = [[moments._coeff(qa, qb, k, l) for l in range(3)] for k in range(3)]
        X = side(pa, r, ex, Lx)
        Y = side(pb, r, ey, Ly)
        XY = [[xi * yj for yj in Y] for xi in X]
        g = (
            (1.0 / theta2 + e0) * moments._coeff(XY, qq, 2, 2)
            + ex * moments._coeff(XY, qq, 1, 2)
            + ey * moments._coeff(XY, qq, 2, 1)
        )
        return g * np.exp(L0) * (1.0 - r) ** 4

    return integrand


@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset])
def test_four_linear_kernels_at_q_other_q_match_the_bilinear_ones(preset):
    cfg = renormalized_q(preset())
    Q, P1, P2, R, th1, th2 = cfg.Q, cfg.P1, cfg.P2, cfg.R, cfg.theta1, cfg.theta2
    q = Q.p  # the kernels take Q as p in y = 1 - 2x
    pairs = {
        "c1": (moments.c1_integrand(q, P1, q, P1, R, th1),
               bilinear_c1_integrand(Q, P1, P1, R, th1), 1),
        "c12": (moments.c12_integrand(q, P1, q, P2, R, th1, th2),
                bilinear_c12_integrand(Q, P1, P2, R, th1, th2), 3),
        "c2": (moments.c2_integrand(q, P2, q, P2, R, th2),
               bilinear_c2_integrand(Q, P2, P2, R, th2), 4),
    }
    for n in (12, 18):
        rule = quad.gauss_rule(n)
        for name, (kernel, reference, d) in pairs.items():
            got = quad.integrate_cube(kernel, d, rule)
            want = quad.integrate_cube(reference, d, rule)
            assert abs(got - want) <= 1e-15 * abs(want), (name, n, got / want - 1.0)


# -- the separated-axis quadrature against a flat-rule reference --------------


def flat_integrate_cube(f, d, rule, chunk=1 << 14):
    """The tensor rule on a flat node index: coordinates and weight products
    rebuilt per chunk of ``chunk`` nodes, the node axis last, and the chunk
    partials added entry by entry with ``fsum``."""
    n = rule.nodes.size
    parts = []
    for start in range(0, n**d, chunk):
        multi = np.unravel_index(np.arange(start, min(start + chunk, n**d)), (n,) * d)
        weights = np.prod(np.stack([rule.weights[m] for m in multi]), axis=0)
        values = f(*(rule.nodes[m] for m in multi))
        parts.append(np.sum(values * weights, axis=-1))
    stacked = np.stack(parts)
    columns = stacked.reshape(len(parts), -1).T
    return np.array([math.fsum(col) for col in columns]).reshape(stacked.shape[1:])


def assert_matches_flat_rule(integrand, d):
    for n in (12, 18):
        rule = quad.gauss_rule(n)
        got, want = quad.integrate_cube(integrand, d, rule), flat_integrate_cube(integrand, d, rule)
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (n, np.max(np.abs(got / want - 1.0)))


def kernels(cfg, p1_rows, p1_cols, p2_rows, p2_cols):
    Q, R, th1, th2 = cfg.Q.p, cfg.R, cfg.theta1, cfg.theta2
    return {
        "c1": (moments.c1_integrand(Q, p1_rows, Q, p1_cols, R, th1), 1),
        "c12": (moments.c12_integrand(Q, p1_rows, Q, p2_cols, R, th1, th2), 3),
        "c2": (moments.c2_integrand(Q, p2_rows, Q, p2_cols, R, th2), 4),
    }


@pytest.mark.parametrize("name", ["c1", "c12", "c2"])
def test_gram_blocks_match_the_flat_rule(name):
    # d1 = d2 = 5: P1 powers 1..5, P2 powers 3..5, at the kappa preset's (Q, R)
    cfg = renormalized_q(kappa_preset())
    integrand, d = kernels(
        cfg, Family(np.eye(6)[1:], 2), Family(np.eye(6)[1:], 3),
        Family(np.eye(6)[3:], 2), Family(np.eye(6)[3:], 3),
    )[name]
    assert_matches_flat_rule(integrand, d)


@pytest.mark.parametrize("name", ["c1", "c12", "c2"])
@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset])
def test_scalar_kernels_match_the_flat_rule(preset, name):
    cfg = renormalized_q(preset())
    integrand, d = kernels(cfg, cfg.P1, cfg.P1, cfg.P2, cfg.P2)[name]
    assert_matches_flat_rule(integrand, d)


# -- c2's mirror symmetry and its triangle -------------------------------------


def random_polynomial(rng, degree):
    return Polynomial(tuple(rng.uniform(-1.0, 1.0, degree + 1)))


def mirror_grid(k=5, seed=0):
    """k random points per coordinate in (0, 1), each on its own axis."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.0, 1.0, k).reshape((1,) * j + (k,) + (1,) * (3 - j)) for j in range(4)]


def assert_mirrored(kernel, mirror):
    """kernel(t, r, u, v) = mirror(t, r, v, u) to 1e-14 of the largest value:
    single nodes cancel to well below it, where only rounding is left."""
    t, r, u, v = mirror_grid()
    got, want = kernel(t, r, u, v), mirror(t, r, v, u)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_c2_kernel_is_unchanged_by_the_mirror():
    # exchanging the sides (Q, P2) and (Q_other, P2_other), and u with v
    rng = np.random.default_rng(20261018)
    R, th2 = 1.3, 0.5
    for _ in range(12):
        Q, P2, Qo, P2o = (random_polynomial(rng, int(rng.integers(1, 12))) for _ in range(4))
        assert_mirrored(moments.c2_integrand(Q, P2, Qo, P2o, R, th2),
                        moments.c2_integrand(Qo, P2o, Q, P2, R, th2))
    # families: each member pair of the block, on the mirrored axes
    left = Family(rng.uniform(-1.0, 1.0, (3, 8)), 0), Family(np.eye(6)[3:], 2)
    right = Family(rng.uniform(-1.0, 1.0, (2, 5)), 1), Family(rng.uniform(-1.0, 1.0, (4, 7)), 3)
    assert_mirrored(moments.c2_integrand(*left, *right, R, th2),
                    moments.c2_integrand(*right, *left, R, th2))


def assert_triangle_is_the_square(integrand):
    for n in (12, 18):
        rule = quad.gauss_rule(n)
        got = quad.integrate_cube(integrand, 4, rule, pair=rule)
        want = quad.integrate_cube(integrand, 4, rule)
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (n, np.max(np.abs(got / want - 1.0)))


@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset])
def test_c2_triangle_matches_the_square_at_presets(preset):
    cfg = renormalized_q(preset())
    q = cfg.Q.p
    assert_triangle_is_the_square(moments.c2_integrand(q, cfg.P2, q, cfg.P2, cfg.R, cfg.theta2))


def test_symmetrized_c2_block_triangle_matches_the_square():
    # d1 = d2 = 5 at the kappa preset's (Q, R): each P2 member is made
    # symmetric in (u, v), and its triangle sums the unsymmetrized square
    cfg = renormalized_q(kappa_preset())
    p2, swapped = Family(np.eye(6)[3:], 2), Family(np.eye(6)[3:], 3)
    kernel = moments.c2_integrand(cfg.Q.p, p2, cfg.Q.p, swapped, cfg.R, cfg.theta2)
    symmetric = moments._symmetrized(kernel)
    assert_triangle_is_the_square(symmetric)
    for n in (12, 18):
        rule = quad.gauss_rule(n)
        got = quad.integrate_cube(symmetric, 4, rule, pair=rule)
        want = flat_integrate_cube(kernel, 4, rule)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (n, np.max(np.abs(got / want - 1.0)))


def test_blocks_use_the_triangle_for_mirrored_sides_only(monkeypatch):
    # evaluate's c2 reaches the module's integrate_cube with a QuadratureRule
    # as its third positional argument, the signature tools that wrap the
    # quadrature rely on, and a pair rule one rung behind it: 8 at n = 12,
    # 12 at 18, and in a search tensor 6 at n = 8, 8 at 12; c12 keeps the
    # square
    from critline import optimize

    calls = []
    real = quad.integrate_cube

    def recording(f, d, *args, **kwargs):
        calls.append((d, args, kwargs))
        return real(f, d, *args, **kwargs)

    def orders(d):
        return [(args[0].nodes.size, None if kwargs["pair"] is None else kwargs["pair"].nodes.size)
                for dim, args, kwargs in calls if dim == d]

    monkeypatch.setattr(quad, "integrate_cube", recording)
    report = evaluate(kappa_preset())
    cfg = report.config
    assert all(isinstance(args[0], quad.QuadratureRule) for _, args, _ in calls)
    assert [n for n, _ in report.diagnostics["c2_trace"]] == [12, 18]
    assert orders(4) == [(12, 8), (18, 12)]
    assert orders(3) == [(12, None), (18, None)]
    calls.clear()
    optimize.build_tensor(np.array([cfg.Q.coeffs]), cfg.R, cfg.theta1, cfg.theta2, 5, 5,
                          optimize.SEARCH_GRAM_TOL)
    assert orders(4) == [(8, 6), (12, 8)]
    assert orders(3) == [(8, None), (12, None)]


def test_q_rows_alone_symmetrize_c2():
    # three Q rows in y = 1 - 2x and one P2 row: c2 is symmetrized per
    # node, which makes its block symmetric under the swap of both
    # member-axis pairs
    from critline import optimize

    cfg = renormalized_q(kappa_preset())
    side = (np.eye(8)[[0, 1, 3]], rows(cfg.P1), rows(cfg.P2))
    _, _, (c2, _) = blocks(side, cfg.R, cfg.theta1, cfg.theta2,
                           optimize.SEARCH_GRAM_TOL, optimize.GRAM_N_START)
    assert c2.shape == (3, 3, 1, 1)
    assert np.max(np.abs(c2 - c2.transpose(1, 0, 3, 2))) <= 1e-15 * np.max(np.abs(c2))


@pytest.mark.parametrize("powers", [(1,), (1, 3)])
def test_q_orders_past_its_degree_change_no_bit(powers):
    # c2's kernel takes Q's Taylor series to deg Q only when deg Q < 4: the
    # same basis padded with zero columns (degree 6) takes it to order 4 and
    # multiplies the zero orders through, to the same bits
    basis = np.eye(max(powers) + 1)[[0, *powers]]
    padded = np.hstack([basis, np.zeros((len(basis), 6 - basis.shape[1] + 1))])
    args = (1.2, THETA1, THETA2, quad.DEFAULT_TOL, quad.N_SEQUENCE_START)
    p_rows = (np.eye(4)[1:], np.eye(5)[3:])
    for (want, want_trace), (got, got_trace) in zip(blocks((padded, *p_rows), *args),
                                                    blocks((basis, *p_rows), *args)):
        assert np.array_equal(got, want)
        assert got_trace == want_trace


@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset])
def test_preset_ladders_stop_at_the_second_rung(preset):
    report = evaluate(preset())
    for name in ("c1_trace", "c12_trace", "c2_trace"):
        assert [n for n, _ in report.diagnostics[name]] == list(quad.ladder(4))[:2] == [12, 18], name


# evaluate's (c1, c12, c2) at each preset on the exact Gauss rules, which a
# [41, 62] ladder reproduces to 1 ulp: a kernel or rule edit that moves a
# bit fails here, not only at the 1e-12 kappa pin
PRESET_CONSTANTS = {
    kappa_preset: (2.131360378253949, -0.004717859481200117, 0.004717864237794673),
    kappa_star_preset: (1.9535287309271243, -0.008064081647835227, 0.008064080136967165),
}


@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset])
def test_preset_constants_are_pinned(preset):
    report = evaluate(preset())
    for got, want in zip((report.c1, report.c12, report.c2), PRESET_CONSTANTS[preset]):
        assert abs(got - want) <= 1e-15 * abs(want), (got, want)


# -- the ladder's certificate against a higher-order reference ----------------


def assert_certificate_honest(cfg):
    """For c1, c12 and c2 the ladder's last delta bounds the relative error of
    the converged integral against the n = 48 rule, up to a 2e-15 floor for
    the rounding of the sums: over both presets and the random panel the
    error beyond the delta is at most 5.8e-16 (c1), where numpy's
    ``leggauss`` weights, off by up to 1.2e-12, left 3.3e-14.  c2 is
    checked on the square and on the path :func:`moments.blocks` takes for
    mirrored sides, its (u, v) pair plane a rung behind t and r."""
    q = cfg.Q.p  # the kernels take Q as p in y = 1 - 2x
    c2 = moments.c2_integrand(q, cfg.P2, q, cfg.P2, cfg.R, cfg.theta2)
    kernels = (
        ("c1", moments.c1_integrand(q, cfg.P1, q, cfg.P1, cfg.R, cfg.theta1), 1, False),
        ("c12", moments.c12_integrand(q, cfg.P1, q, cfg.P2, cfg.R, cfg.theta1,
                                      cfg.theta2), 3, False),
        ("c2", c2, 4, False),
        ("c2 pairs", c2, 4, True),
    )
    rule = quad.gauss_rule(48)
    for name, integrand, d, symmetric in kernels:
        value, trace = quad.integrate_converged(integrand, d, symmetric=symmetric)
        reference = quad.integrate_cube(integrand, d, rule)
        error = abs(value - reference) / max(abs(value), abs(reference), 1.0)
        assert error <= trace[-1][1] + 2e-15, (name, error, trace)


@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset])
def test_certificate_bounds_the_error_at_presets(preset):
    assert_certificate_honest(renormalized_q(preset()))


@pytest.mark.slow
def test_certificate_bounds_the_error_on_the_random_panel():
    from test_acceptance import random_config

    rng = np.random.default_rng(12345)
    for _ in range(10):
        assert_certificate_honest(random_config(rng))
