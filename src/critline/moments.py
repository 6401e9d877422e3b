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

Each kernel is linear in each of its four polynomials, a (Q, P) pair per
side.  Given :class:`Family` objects in their place, the same kernel returns
a whole block of that 4-linear form per node.  c is a symmetric form, so
:func:`blocks` takes one side and pairs it with its mirror; it is the one
path from kernel to constant, for :func:`evaluate` and the tensors of
:mod:`critline.optimize`, and it sums c2 over a triangle of the (u, v) plane,
ruled one rung of the ladder behind t and r.
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


def c1_integrand(Q, P1, Q_other, P1_other, R: float, theta1: float):
    """e^{2Rv} times the u-integral of L_Q(P1) L_Qo(P1o), a function of v
    alone, with L_Q(P) = Q(v)P'(u) + th1 (Q'(v) + R Q(v)) P(u), Qo = Q_other
    and P1o = P1_other.

    With q = Q(v), qp = th1 (Q'(v) + R Q(v)) and qo, qpo the same of Qo, the
    product is q qo P1'P1o' + q qpo P1'P1o + qp qo P1 P1o' + qp qpo P1 P1o.
    Its u-part has degree at most deg P1 + deg P1o, so a Gauss rule of
    (deg P1 + deg P1o) // 2 + 1 nodes gives the four u-moments exactly, once,
    and the quadrature ladder runs over v alone.  The two mixed terms are
    added first: they are equal when Qo = Q and P1o = P1, and their sum exact.
    """
    rule = quad.gauss_rule((P1.degree + P1_other.degree) // 2 + 1)
    u = rule.nodes
    a, ad = P1(u), P1.derivative()(u)
    b, bd = P1_other(u), P1_other.derivative()(u)

    # the u-axis is summed away and kept as length 1: v's node axis
    U_dd, U_d0, U_0d, U_00 = (np.sum(f * rule.weights, axis=-1, keepdims=True)
                              for f in (ad * bd, ad * b, a * bd, a * b))
    Qd, Qod = Q.derivative(), Q_other.derivative()

    def integrand(v):
        q, qo = Q(v), Q_other(v)
        qp = theta1 * (Qd(v) + R * q)
        qpo = theta1 * (Qod(v) + R * qo)
        mixed = U_d0 * (q * qpo) + U_0d * (qp * qo)
        return np.exp(2.0 * R * v) * (U_dd * (q * qo) + mixed + U_00 * (qp * qpo))

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
    p^(i+j)(c0) cx^i cy^j / (i! j!), read from ``taylor`` (order up to
    2*cap).  An entry whose order i + j is past the end of ``taylor`` (past
    p's degree) is 0 and is left ``None``, which :func:`_coeff` skips."""
    t = [p(c0) for p in taylor]
    px, py = [1.0, cx, cx * cx], [1.0, cy, cy * cy]
    return [
        [t[i + j] * (math.comb(i + j, i) * px[i] * py[j]) if i + j < len(t) else None
         for j in range(cap + 1)]
        for i in range(cap + 1)
    ]


def _times_exp(s: list, L) -> list:
    """Coefficients of e^(L*h) * s(h), truncated at the length of s."""
    e = [1.0, L, 0.5 * L * L][: len(s)]
    return [_coeff(e, s, k) for k in range(len(s))]


def _coeff(a: list, b: list, k: int, l: int | None = None):
    """The coefficient of h^k (series) or x^k y^l (grids) in the product a*b,
    skipping the ``None`` (zero) entries of the grid b."""
    if l is None:
        terms = (a[m] * b[k - m] for m in range(k + 1))
    else:
        terms = (a[i][j] * b[k - i][l - j] for i in range(k + 1) for j in range(l + 1)
                 if b[k - i][l - j] is not None)
    acc = next(terms)
    for term in terms:
        acc = acc + term
    return acc


# -- polynomial families: a block of the form per kernel call ---------------


class Family:
    """Polynomials as the rows of a coefficient matrix (ascending powers),
    evaluated together by Horner, their members on axis ``axis`` of four
    leading axes, then the argument's axes.  In place of a
    :class:`Polynomial` (the kernels use only evaluation, ``degree``,
    ``derivative`` and ``scale``), families on distinct axes make a kernel
    return a whole block."""

    def __init__(self, coeffs: np.ndarray, axis: int):
        self.coeffs = coeffs
        self.axis = axis

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def __call__(self, x):
        shape = [1] * (4 + np.ndim(x))
        shape[self.axis] = len(self.coeffs)
        acc = 0.0
        for c in self.coeffs.T[::-1]:
            acc = acc * x + c.reshape(shape)
        return acc

    def derivative(self) -> "Family":
        return Family(np.polynomial.polynomial.polyder(self.coeffs, axis=1), self.axis)

    def scale(self, factor: float) -> "Family":
        return Family(factor * self.coeffs, self.axis)


# -- c12: [xy] over simplex(a,b) x [0,1] -------------------------------------


def c12_integrand(Q, P1, Q_other, P2, R: float, theta1: float, theta2: float):
    """Per-node [xy] coefficient of the c12 kernel on the cube (s, t, u).

    The kernel is e^(R u th2 (a-b)) * e^(-R th1 x) Q(a u th2 - th1 x)
    * e^(R th1 y) Q_other(1 - b u th2 + th1 y) * P1(1 - (1-u) th2/th1 + x + y)
    * u^2 (1-u) P2''((1-a-b)u) with a = s, b = (1-s)t and Jacobian 1-s.  The
    two exponential-times-Q factors depend on x only and on y only, so they
    form a rank-1 outer product that contracts against P1's (1,1) grid.
    """
    q, qo = _taylor(Q, 1), _taylor(Q_other, 1)
    p1 = _taylor(P1, 2)
    P2dd = P2.derivative().derivative()

    def integrand(s, t, u):
        a = s
        b = (1.0 - s) * t
        jac = 1.0 - s
        X = _times_exp(_series(q, a * u * theta2, -theta1), -R * theta1)
        Y = _times_exp(_series(qo, 1.0 - b * u * theta2, theta1), R * theta1)
        XY = [[xi * yj for yj in Y] for xi in X]
        grid = _grid(p1, 1.0 - (1.0 - u) * theta2 / theta1, 1.0, 1.0, 1)
        scalar = u * u * (1.0 - u) * P2dd((1.0 - a - b) * u) * jac
        return _coeff(XY, grid, 1, 1) * np.exp(R * u * theta2 * (a - b)) * scalar

    return integrand


# -- c2: [x^2 y^2] over [0,1]^4 ----------------------------------------------


def c2_integrand(Q, P2, Q_other, P2_other, R: float, theta2: float):
    """Per-node [x^2 y^2] coefficient of the c2 kernel on the cube (t, r, u, v).

    With E = x + y - v(y+r) - u(x+r) and G = 1 + th2 E, the kernel is
    (1/th2 + E)(1-r)^4 * e^(-th2 R E + 2 R t G) * Q(th2(u(x+r) - y) + tG)
    * Q_other(th2(v(y+r) - x) + tG) * (x+r) P2''((1-u)(x+r))
    * (y+r) P2_other''((1-v)(y+r)).  The exponential splits into
    e^L0 e^(Lx x) e^(Ly y); with the x-only and y-only P2 factors it is a
    rank-1 outer product X(x) Y(y).  The linear front factor
    (1/th2 + e0) + ex x + ey y, split by variable as (fx + ex x) + (fy + ey y),
    folds into X and Y on their own axes (A and B), so the grid Z of
    front X Y is A Y + X B.  Z times Q's grid qa is W, and [x^2 y^2] of
    W times Q_other's grid qb is nine products: only there do Q_other's
    members meet the P members.  Exchanging (Q, P2) with (Q_other, P2_other)
    and u with v exchanges x with y and leaves the coefficient unchanged.
    Q's grids need its Taylor series to order 4, or to deg Q when that is
    lower (a linear Q in simple mode): the orders past it are absent, not
    zeros multiplied through.
    """
    q, qo = (_taylor(p, min(4, p.degree)) for p in (Q, Q_other))
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
        qb = _grid(qo, theta2 * v * r + tg0, tgx - theta2, theta2 * v + tgy, 2)
        X = side(pa, r, ex, Lx)
        Y = side(pb, r, ey, Ly)
        fx, fy = 0.5 / theta2 - r * u, 0.5 / theta2 - r * v
        A = [fx * X[0], fx * X[1] + ex * X[0], fx * X[2] + ex * X[1]]
        B = [fy * Y[0], fy * Y[1] + ey * Y[0], fy * Y[2] + ey * Y[1]]
        Z = [[a * yj + xi * b for yj, b in zip(Y, B)] for xi, a in zip(X, A)]
        W = [[_coeff(Z, qa, i, j) for j in range(3)] for i in range(3)]
        return _coeff(W, qb, 2, 2) * np.exp(L0) * (1.0 - r) ** 4

    return integrand


# -- the 4-linear form: every kernel integral goes through here -------------


def _sides(slot, axis: int):
    """A slot's left and right halves: a :class:`Polynomial` twice, or its
    coefficient rows as families on member axis ``axis`` and the next."""
    if isinstance(slot, np.ndarray):
        return Family(slot, axis), Family(slot, axis + 1)
    return slot, slot


def _symmetrized(integrand):
    """0.5 (F + F with member axes 0, 1 and 2, 3 swapped) per node: each
    member of a block between mirrored families is then symmetric in (u, v)."""

    def symmetric(*xs):
        F = integrand(*xs)
        return 0.5 * (F + F.transpose((1, 0, 3, 2) + tuple(range(4, F.ndim))))

    return symmetric


def blocks(side, R: float, theta1: float, theta2: float, tol: float, n_start: int):
    """The c1 - 1, c12 and c2 blocks of the form between ``side`` and its
    mirror, each as ``(block, trace)``, integrated to ``tol`` on the
    quadrature ladder from ``n_start`` and normalized: c1 in 1-D (v; its
    u-part is exact in the kernel), c12 in 3-D and c2 in 4-D.

    ``side`` is ``(Q, P1, P2)``, P2 ``None`` for no second piece (c12 and
    c2 are then ``(0.0, [])``).  A :class:`Polynomial` slot is its own
    mirror; an array of coefficient rows puts its members on member axis 0
    (Q) or 2 (P) on the left and the next axis on the right.  c12 pairs the
    left (Q, P1) with the right (Q, P2).  c2's kernel is unchanged when its
    sides, x with y and u with v are exchanged, so c2 is summed over the
    (u, v) triangle of node pairs i <= j of the rule of order ceil(2n/3),
    one rung behind the order n of t and r, which its trace lists.  When Q
    or P2 is an array, c2 is first symmetrized per node, which leaves the
    block's integral as it is: a member alone is not symmetric in (u, v),
    and its triangle would have a kink on the diagonal.  c1 and c12 are not
    symmetrized; each caller symmetrizes what it builds.
    """
    # a kernel that overflows (a huge R or coefficient) yields inf or nan,
    # which the ladder's non-finite check reports; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        (Q, Q_other), (P1, P1_other), (P2, P2_other) = (
            _sides(slot, axis) for slot, axis in zip(side, (0, 2, 2)))

        def integral(integrand, d: int, symmetric: bool = False):
            return quad.integrate_converged(integrand, d, tol=tol, n_start=n_start,
                                            symmetric=symmetric)

        K1, t1 = integral(c1_integrand(Q, P1, Q_other, P1_other, R, theta1), 1)
        c1 = K1 / theta1
        if P2 is None:
            return (c1, t1), (0.0, []), (0.0, [])
        K12, t12 = integral(c12_integrand(Q, P1, Q_other, P2_other, R, theta1, theta2), 3)
        # d^2/dxdy = 1! 1! [xy]
        # the ratio, not the squares: theta1**2 underflows for a tiny theta1
        c12 = 4.0 * (theta2 / theta1) ** 2 * math.exp(R) * K12
        kernel = c2_integrand(Q, P2, Q_other, P2_other, R, theta2)
        if isinstance(Q, Family) or isinstance(P2, Family):
            kernel = _symmetrized(kernel)
        K2, t2 = integral(kernel, 4, symmetric=True)
        # d^4/dx^2dy^2 = 2! 2! [x^2 y^2]
        c2 = (2.0 / 3.0) * (4.0 * K2)
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


def _p1_normalized(P1: Polynomial, R: float, c1: float, c12: float, c2: float) -> dict:
    """P1(1) and the kappa of P1 rescaled to P1(1) = 1, from the constants at
    P1: c1 - 1 is quadratic in P1, c12 linear and c2 free of it, so with
    lam = 1/P1(1) the rescaled c is 1 + lam^2 (c1 - 1) + 2 lam c12 + c2.  The
    kappa is left out when P1(1) = 0 or that c gives no finite kappa."""
    p1_at_1 = float(P1(1.0))
    out = {"p1_at_1": p1_at_1}
    if p1_at_1 != 0.0:
        lam = 1.0 / p1_at_1
        try:
            out["kappa_p1_normalized"] = compute_kappa(
                1.0 + lam * lam * (c1 - 1.0) + 2.0 * lam * c12 + c2, R)
        except ValueError:
            pass
    return out


def evaluate(cfg: MollifierConfig) -> KappaReport:
    """The constants and kappa, every ladder certified to ``quad.DEFAULT_TOL``."""
    tol = quad.DEFAULT_TOL
    side = (cfg.Q, cfg.P1, None if cfg.P2.is_zero else cfg.P2)
    (c1, t1), (c12, t12), (c2, t2) = blocks(side, cfg.R, cfg.theta1, cfg.theta2,
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
        diagnostics={"quad_tol": tol, "c1_trace": t1, "c12_trace": t12, "c2_trace": t2,
                     **_p1_normalized(cfg.P1, cfg.R, c1, c12, c2)},
    )


def renormalized_q(cfg: MollifierConfig) -> MollifierConfig:
    """Config with Q rescaled so Q(0) = 1 exactly (the verbatim preset has 1.002)."""
    q0 = cfg.Q(0.0)
    if q0 == 0.0:
        raise ConfigError("cannot renormalize: Q(0) = 0")
    return replace(cfg, Q=cfg.Q.scale(1.0 / q0))
