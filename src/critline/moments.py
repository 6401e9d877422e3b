"""The mollified second-moment constants c1, c12, c2 and the kappa bound.

The total constant is c = c1 + 2*c12 + c2 and the zero-proportion bound is
kappa >= 1 - log(c)/R.  c1 is a double integral over (u, v) whose u-part is a
polynomial: its kernel integrates that part exactly, once, so c1's quadrature
runs over v alone.  c12 and c2 carry the formal derivative operators d^2/dxdy and
d^4/dx^2dy^2 at x = y = 0.  Every argument in their kernels is linear in
(x, y), so each integrand returns, per quadrature node, the closed-form
Taylor coefficient the operator reads ([xy] for c12, [x^2 y^2] for c2); the
operators are exact and quadrature is the only error source.  The quadrature
ladder's delta is measured on that coefficient.

Each kernel is bilinear in its two smoothing polynomials (P1 and P1 for c1,
P1 and P2 for c12, P2 and P2 for c2).  Given :class:`Monomials` families in
their place, the same kernel returns a whole block of the bilinear form per
node.  :func:`blocks` is the one path from kernel to constant, for
:func:`evaluate` and for the Gram matrix of :mod:`critline.optimize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from . import quad
from .poly import Polynomial

THETA1_MAX = 4.0 / 7.0
THETA2_MAX = 0.5
_THETA_SLACK = 1e-9

ALL_ZEROS = "all_zeros"
SIMPLE_ZEROS = "simple_zeros"


class ConfigError(ValueError):
    pass


def check_thetas(theta1: float, theta2: float) -> None:
    """Raise ConfigError unless the mollifier exponents satisfy
    0 < theta2 < theta1 <= 4/7 and theta2 <= 1/2 (to ``_THETA_SLACK``)."""
    if not (math.isfinite(theta1) and math.isfinite(theta2)):
        raise ConfigError("theta1 and theta2 must be finite")
    if not 0 < theta2:
        raise ConfigError("theta2 must be positive")
    if not theta2 < theta1 + _THETA_SLACK:
        raise ConfigError("theta2 must be < theta1")
    if not theta1 <= THETA1_MAX + _THETA_SLACK:
        raise ConfigError("theta1 must be <= 4/7")
    if not theta2 <= THETA2_MAX + _THETA_SLACK:
        raise ConfigError("theta2 must be <= 1/2")


def check_mode(mode: str, q_degree: int) -> None:
    """Raise ConfigError unless ``mode`` is known and, in simple mode, Q has
    degree at most 1."""
    if mode not in (ALL_ZEROS, SIMPLE_ZEROS):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == SIMPLE_ZEROS and q_degree > 1:
        raise ConfigError(f"simple mode searches a linear Q: its degree must be <= 1, got {q_degree}")


def check_p1_degree(degree: int) -> None:
    """Raise ConfigError unless c1's exact u-rule, deg P1 + 1 nodes, is within quad.N_MAX."""
    if degree >= quad.N_MAX:
        raise ConfigError(f"P1 degree {degree} exceeds {quad.N_MAX - 1}: c1's exact u-rule"
                          f" needs deg P1 + 1 <= {quad.N_MAX} nodes")


@dataclass(frozen=True)
class MollifierConfig:
    """One full parameter point: exponents, offset scale, and polynomials."""

    theta1: float
    theta2: float
    R: float
    Q: Polynomial
    P1: Polynomial
    P2: Polynomial
    mode: str = ALL_ZEROS

    def __post_init__(self):
        check_thetas(self.theta1, self.theta2)
        if not math.isfinite(self.R):
            raise ConfigError("R must be finite")
        for name in ("Q", "P1", "P2"):
            if not all(math.isfinite(c) for c in getattr(self, name).coeffs):
                raise ConfigError(f"{name} has a non-finite coefficient")
        if not self.R > 0:
            raise ConfigError("R must be positive")
        check_p1_degree(self.P1.degree)
        check_mode(self.mode, self.Q.degree)


@dataclass(frozen=True)
class KappaReport:
    c1: float
    c12: float
    c2: float
    c: float
    kappa: float
    config: MollifierConfig
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        cfg = self.config
        return {
            "schema": 1,
            "theta1": cfg.theta1,
            "theta2": cfg.theta2,
            "R": cfg.R,
            "mode": cfg.mode,
            "Q": list(cfg.Q.coeffs),
            "P1": list(cfg.P1.coeffs),
            "P2": list(cfg.P2.coeffs),
            "c1": self.c1,
            "c12": self.c12,
            "c2": self.c2,
            "c": self.c,
            "kappa": self.kappa,
            "diagnostics": self.diagnostics,
        }


# -- c1: a 1-D integral in v over exact u-moments ---------------------------


def c1_integrand(Q: Polynomial, P1: Polynomial, P1_other: Polynomial, R: float, theta1: float):
    """e^{2Rv} times the u-integral of L(P1) L(P1_other), a function of v alone,
    bilinear in (P1, P1_other), with L(P) = Q(v)P'(u) + th1 (Q'(v) + R Q(v)) P(u).

    With q = Q(v) and qp = th1 (Q'(v) + R Q(v)) the product is
    q^2 P1'P1o' + q qp (P1'P1o + P1 P1o') + qp^2 P1 P1o (P1o = P1_other), and
    its u-part has degree at most deg P1 + deg P1_other.  A Gauss rule of
    (deg P1 + deg P1_other) // 2 + 1 nodes integrates it exactly, so the three
    u-moments U0, U1, U2 are computed once here and the quadrature ladder runs
    over v alone: the integrand is e^{2Rv} (U0 q^2 + U1 q qp + U2 qp^2).
    """
    rule = quad.gauss_rule((P1.degree + P1_other.degree) // 2 + 1)
    u = rule.nodes
    a, ad = P1(u), P1.derivative()(u)
    b, bd = P1_other(u), P1_other.derivative()(u)

    # the u-axis is summed away and kept as length 1: v's node axis
    U0, U1, U2 = (np.sum(f * rule.weights, axis=-1, keepdims=True)
                  for f in (ad * bd, ad * b + a * bd, a * b))
    Qd = Q.derivative()

    def integrand(v):
        q = Q(v)
        qp = theta1 * (Qd(v) + R * q)
        return np.exp(2.0 * R * v) * (U0 * (q * q) + U1 * (q * qp) + U2 * (qp * qp))

    return integrand


# -- closed-form Taylor coefficients -----------------------------------------
#
# Every argument in the c12 and c2 integrands is linear in the formal offsets
# (x, y), so the Taylor coefficients of a polynomial of it, and of its
# exponential, are closed forms (Taylor-mode differentiation specialized to
# degree-1 inputs).  Coefficient series are lists indexed by power, grids are
# lists of lists indexed [i][j] for x^i y^j; entries are per-node arrays.


def _taylor(p: Polynomial, order: int) -> list[Polynomial]:
    """``p^(k) / k!`` for k = 0..order: at c0 they give the coefficients of
    h^k in p(c0 + h)."""
    out = [p]
    for k in range(1, order + 1):
        out.append(out[-1].derivative().scale(1.0 / k))
    return out


def _series(taylor: list[Polynomial], c0, c) -> list:
    """Coefficients of h^k, k < len(taylor), in p(c0 + c*h)."""
    out, ck = [taylor[0](c0)], c
    for p in taylor[1:]:
        out.append(p(c0) * ck)
        ck = ck * c
    return out


def _grid(taylor: list[Polynomial], c0, cx, cy, cap: int) -> list[list]:
    """Coefficients of x^i y^j, i, j <= cap, in p(c0 + cx*x + cy*y): that is
    p^(i+j)(c0) cx^i cy^j / (i! j!), read from ``taylor`` (order 2*cap)."""
    t = [p(c0) for p in taylor]
    px, py = [1.0, cx, cx * cx], [1.0, cy, cy * cy]
    return [
        [math.comb(i + j, i) * t[i + j] * px[i] * py[j] for j in range(cap + 1)]
        for i in range(cap + 1)
    ]


def _times_exp(s: list, L) -> list:
    """Coefficients of e^(L*h) * s(h), truncated at the length of s."""
    e = [1.0, L, 0.5 * L * L][: len(s)]
    return [_coeff(e, s, k) for k in range(len(s))]


def _coeff(a: list, b: list, k: int, l: int | None = None):
    """The coefficient of h^k (series) or x^k y^l (grids) in the product a*b."""
    if l is None:
        terms = (a[m] * b[k - m] for m in range(k + 1))
    else:
        terms = (a[i][j] * b[k - i][l - j] for i in range(k + 1) for j in range(l + 1))
    acc = next(terms)
    for term in terms:
        acc = acc + term
    return acc


# -- monomial families: a Gram block per kernel call -------------------------


class Monomials:
    """Monomials c_k x^(p_k) evaluated together, members on the leading axes:
    (na, 1) for :meth:`rows`, (1, nb) for :meth:`columns`.  A call appends one
    length-1 axis per axis of its argument, so the node axes follow.  Passed
    to the c1, c12 and c2 kernels in place of a :class:`Polynomial` (they use
    only evaluation, ``degree``, ``derivative`` and ``scale``), two families
    make the unchanged kernel arithmetic broadcast to a whole (na, nb) block.
    """

    def __init__(self, coeffs: np.ndarray, powers: np.ndarray):
        self.coeffs = coeffs
        self.powers = powers

    @classmethod
    def rows(cls, powers) -> "Monomials":
        return cls(np.ones((len(powers), 1)), np.reshape(powers, (-1, 1)))

    @classmethod
    def columns(cls, powers) -> "Monomials":
        return cls(np.ones((1, len(powers))), np.reshape(powers, (1, -1)))

    @property
    def degree(self) -> int:
        return int(self.powers.max())

    def __call__(self, x):
        c, p = (a.reshape(a.shape + (1,) * np.ndim(x)) for a in (self.coeffs, self.powers))
        return c * x**p

    def derivative(self) -> "Monomials":
        return Monomials(self.coeffs * self.powers, np.maximum(self.powers - 1, 0))

    def scale(self, factor: float) -> "Monomials":
        return Monomials(factor * self.coeffs, self.powers)


# -- c12: [xy] over simplex(a,b) x [0,1] -------------------------------------


def c12_integrand(
    Q: Polynomial, P1: Polynomial, P2: Polynomial, R: float, theta1: float, theta2: float
):
    """Per-node [xy] coefficient of the c12 kernel on the cube (s, t, u).

    The kernel is e^(R u th2 (a-b)) * e^(-R th1 x) Q(a u th2 - th1 x)
    * e^(R th1 y) Q(1 - b u th2 + th1 y) * P1(1 - (1-u) th2/th1 + x + y)
    * u^2 (1-u) P2''((1-a-b)u) with a = s, b = (1-s)t and Jacobian 1-s.  The
    two exponential-times-Q factors depend on x only and on y only, so they
    form a rank-1 outer product that contracts against P1's (1,1) grid.
    """
    q = _taylor(Q, 1)
    p1 = _taylor(P1, 2)
    P2dd = P2.derivative().derivative()

    def integrand(s, t, u):
        a = s
        b = (1.0 - s) * t
        jac = 1.0 - s
        X = _times_exp(_series(q, a * u * theta2, -theta1), -R * theta1)
        Y = _times_exp(_series(q, 1.0 - b * u * theta2, theta1), R * theta1)
        XY = [[xi * yj for yj in Y] for xi in X]
        grid = _grid(p1, 1.0 - (1.0 - u) * theta2 / theta1, 1.0, 1.0, 1)
        scalar = u * u * (1.0 - u) * P2dd((1.0 - a - b) * u) * jac
        return _coeff(XY, grid, 1, 1) * np.exp(R * u * theta2 * (a - b)) * scalar

    return integrand


# -- c2: [x^2 y^2] over [0,1]^4 ----------------------------------------------


def c2_integrand(Q: Polynomial, P2: Polynomial, P2_other: Polynomial, R: float, theta2: float):
    """Per-node [x^2 y^2] coefficient of the c2 kernel on the cube (t, r, u, v).

    With E = x + y - v(y+r) - u(x+r) and G = 1 + th2 E, the kernel is
    (1/th2 + E)(1-r)^4 * e^(-th2 R E + 2 R t G) * Q(th2(u(x+r) - y) + tG)
    * Q(th2(v(y+r) - x) + tG) * (x+r) P2''((1-u)(x+r)) * (y+r) P2_other''((1-v)(y+r)).
    The exponential splits into e^L0 e^(Lx x) e^(Ly y); with the x-only and
    y-only P2 factors it is a rank-1 outer product X(x) Y(y).  The linear
    front factor shifts the index, so only three coefficients of
    X Y Q Q are needed.
    """
    q = _taylor(Q, 4)
    pa = _taylor(P2.derivative().derivative(), 2)
    pb = _taylor(P2_other.derivative().derivative(), 2)

    def side(taylor, r, w, L):
        # e^(L h) (h + r) P''(w (h + r)), h = x or y
        D = _series(taylor, w * r, w)
        return _times_exp([r * D[0], D[0] + r * D[1], D[1] + r * D[2]], L)

    def integrand(t, r, u, v):
        e0, ex, ey = -r * (u + v), 1.0 - u, 1.0 - v
        g0, gx, gy = 1.0 + theta2 * e0, theta2 * ex, theta2 * ey
        rt = 2.0 * R * t
        L0 = rt * g0 - theta2 * R * e0
        Lx = rt * gx - theta2 * R * ex
        Ly = rt * gy - theta2 * R * ey
        tg0, tgx, tgy = t * g0, t * gx, t * gy
        qa = _grid(q, theta2 * u * r + tg0, theta2 * u + tgx, tgy - theta2, 2)
        qb = _grid(q, theta2 * v * r + tg0, tgx - theta2, theta2 * v + tgy, 2)
        qq = [[_coeff(qa, qb, k, l) for l in range(3)] for k in range(3)]
        X = side(pa, r, ex, Lx)
        Y = side(pb, r, ey, Ly)
        XY = [[xi * yj for yj in Y] for xi in X]
        # front = (1/th2 + e0) + ex x + ey y
        g = (
            (1.0 / theta2 + e0) * _coeff(XY, qq, 2, 2)
            + ex * _coeff(XY, qq, 1, 2)
            + ey * _coeff(XY, qq, 2, 1)
        )
        return g * np.exp(L0) * (1.0 - r) ** 4

    return integrand


# -- the bilinear form: every kernel integral goes through here ---------------


def blocks(Q, left, right, R: float, theta1: float, theta2: float, tol: float, n_start: int):
    """The c1 - 1, c12 and c2 blocks of the bilinear form between two sides,
    each as ``(block, trace)``, integrated to ``tol`` on the quadrature ladder
    from ``n_start`` and normalized: c1 in 1-D (v; its u-part is exact in the
    kernel), c12 in 3-D and c2 in 4-D.

    A side is a ``(P1, P2)`` pair of :class:`Polynomial` objects or of
    :class:`Monomials` families (rows left, columns right); a ``None`` P2
    means no second piece, and c12 and c2 are then ``(0.0, [])``.  c12 pairs
    the left P1 with the right P2.  Each factor of a kernel lives on the axes
    it depends on (c2's X on (a, t, r, u), its Y on (b, t, r, v)).  The
    diagonal blocks c1 and c2 are stored as (K + K')/2, the quadratic form
    they define; for scalars that is K.
    """
    (P1, P2), (P1_other, P2_other) = left, right

    def integral(integrand, d: int):
        return quad.integrate_converged(integrand, d, tol=tol, n_start=n_start)

    K1, t1 = integral(c1_integrand(Q, P1, P1_other, R, theta1), 1)
    c1 = 0.5 * (K1 + np.transpose(K1)) / theta1
    if P2 is None or P2_other is None:
        return (c1, t1), (0.0, []), (0.0, [])
    K12, t12 = integral(c12_integrand(Q, P1, P2_other, R, theta1, theta2), 3)
    # d^2/dxdy = 1! 1! [xy]
    # the ratio, not the squares: theta1**2 underflows for a tiny theta1
    c12 = 4.0 * (theta2 / theta1) ** 2 * math.exp(R) * K12
    K2, t2 = integral(c2_integrand(Q, P2, P2_other, R, theta2), 4)
    # d^4/dx^2dy^2 = 2! 2! [x^2 y^2]
    c2 = (2.0 / 3.0) * (4.0 * (0.5 * (K2 + np.transpose(K2))))
    return (c1, t1), (c12, t12), (c2, t2)


# -- public per-config operations ------------------------------------------


def compute_kappa(c: float, R: float) -> float:
    if c <= 0:
        raise ValueError(f"total constant must be positive, got {c}")
    if R <= 0:
        raise ValueError("R must be positive")
    kappa = 1.0 - math.log(c) / R
    if not math.isfinite(kappa):
        raise ValueError(f"kappa = 1 - log({c!r})/{R!r} is not finite")
    return kappa


def evaluate(cfg: MollifierConfig, tol=quad.DEFAULT_TOL) -> KappaReport:
    side = (cfg.P1, None if cfg.P2.is_zero else cfg.P2)
    (c1, t1), (c12, t12), (c2, t2) = blocks(cfg.Q, side, side, cfg.R, cfg.theta1, cfg.theta2,
                                            tol, quad.N_SEQUENCE_START)
    c1, c12, c2 = 1.0 + float(c1), float(c12), float(c2)
    c = c1 + 2.0 * c12 + c2
    return KappaReport(
        c1=c1,
        c12=c12,
        c2=c2,
        c=c,
        kappa=compute_kappa(c, cfg.R),
        config=cfg,
        diagnostics={"quad_tol": tol, "c1_trace": t1, "c12_trace": t12, "c2_trace": t2},
    )


def renormalized_q(cfg: MollifierConfig) -> MollifierConfig:
    """Config with Q rescaled so Q(0) = 1 exactly (the verbatim preset has 1.002)."""
    q0 = cfg.Q(0.0)
    if q0 == 0.0:
        raise ConfigError("cannot renormalize: Q(0) = 0")
    return replace(cfg, Q=cfg.Q.scale(1.0 / q0))
