"""Independent numerical verification of the exactly-checkable identities.

Everything here deliberately avoids the moment evaluation paths it is
checking, the quadrature included: contour integrals use the trapezoid rule
on circles in 40-digit mpmath arithmetic, sums use sieved arithmetic tables,
real integrals use this module's own Gauss-Legendre rule, and derivative
operators get 4th-order finite differences of long-double tensor-product
Gauss integrals.  Work that does not change between evaluations is done
once: the circles share their roots of unity, each circle converts its float
parameters to mpmath numbers once, and each finite-difference integrand is
evaluated factor by factor on the axes it depends on.  All are the same rules
as the plain per-point forms, only with loop-invariant work hoisted.
Asymptotic statements are tested as bounded-normalized-error properties (their
O(.) constants are not quantified), never as equalities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial
from typing import Any, Callable

import numpy as np

from . import moments
from .jet import Jet
from .poly import Polynomial

EXACT_TOL = 1e-10
QOP_TOL = 1e-12
MELLIN_TOL = 1e-3
ASYMPTOTIC_CONSTANT = 10.0  # calibrated bound for the normalized error ratios
DEFAULT_N = 100_000

# Analytic statements that cannot be verified at desk scale.  These are the
# limits of the oracle suites: everything below is taken on faith from the
# underlying analysis, and only the exactly-checkable identities feeding into
# it are verified numerically.
OUT_OF_SCOPE = (
    "the full-size asymptotic of the mollified second moment "
    "(only its limiting constants are computed)",
    "the off-diagonal error-term bounds discarded en route to those constants",
    "the twisted fourth-moment estimates underlying the second mollifier piece",
)


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification: the measured error against its threshold."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)
    error: float = 0.0
    threshold: float = 0.0
    passed: bool = False

    @staticmethod
    def from_error(name: str, params: dict[str, Any], error: float, threshold: float):
        return CheckResult(
            name=name, params=params, error=float(error), threshold=threshold,
            passed=bool(error <= threshold),
        )


# -- arithmetic tables ------------------------------------------------------


class ArithmeticTables:
    """Sieved Mobius, Mobius-squared-convolution, and divisor-function tables.

    ``mu2`` holds the Dirichlet coefficients of 1/zeta^2, i.e. mu * mu under
    Dirichlet convolution.  ``dk(k)`` is the k-fold divisor function.
    """

    def __init__(self, N: int = DEFAULT_N):
        if not 1 <= N <= 1_000_000:
            raise OracleError("N must be in [1, 10^6]")
        self.N = N
        self.mu = self._sieve_mu(N)
        self.mu2 = self._dirichlet(self.mu, self.mu)
        self._dk: dict[int, np.ndarray] = {}

    @staticmethod
    def _sieve_mu(N: int) -> np.ndarray:
        mu = np.ones(N + 1, dtype=np.int64)
        mu[0] = 0
        is_prime = np.ones(N + 1, dtype=bool)
        is_prime[:2] = False
        for p in range(2, N + 1):
            if not is_prime[p]:
                continue
            is_prime[2 * p :: p] = False
            mu[p::p] *= -1
            if p * p <= N:
                mu[p * p :: p * p] = 0
        return mu

    @staticmethod
    def _dirichlet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        N = a.size - 1
        out = np.zeros(N + 1, dtype=np.int64)
        for d in range(1, N + 1):
            if a[d]:
                m = N // d
                out[d::d] += a[d] * b[1 : m + 1]
        return out

    def dk(self, k: int) -> np.ndarray:
        """d_k(n) for n <= N: the number of ordered k-factorizations."""
        if not 1 <= k <= 5:
            raise OracleError("k must be in [1, 5]")
        if k not in self._dk:
            if k == 1:
                table = np.ones(self.N + 1, dtype=np.int64)
                table[0] = 0
            else:
                prev = self.dk(k - 1)
                table = np.zeros(self.N + 1, dtype=np.int64)
                for d in range(1, self.N + 1):
                    table[d::d] += prev[d]
            self._dk[k] = table
        return self._dk[k]


# -- contour integration ----------------------------------------------------

# Every circle runs at this many decimal digits with this many trapezoid
# points: residues extracted from large cancelling circle values need the
# head-room.
CONTOUR_DPS = 40
CONTOUR_POINTS = 512


@dataclass(frozen=True)
class ContourSpec:
    """A circle for (1/2*pi*i) closed contour integration by the trapezoid
    rule, which is spectrally accurate for integrands analytic near the
    circle.  Points and accumulation use mpmath at ``CONTOUR_DPS`` digits,
    ``CONTOUR_POINTS`` points per circle.
    """

    center: complex = 0.0
    radius: float = 1.0

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and math.isfinite(self.radius)):
            raise OracleError("center and radius must be finite")
        if self.radius <= 0:
            raise OracleError("radius must be positive")


@lru_cache(maxsize=1)
def _roots_of_unity() -> tuple:
    """The trapezoid nodes exp(2*pi*i*k/n) on the unit circle, k < n =
    ``CONTOUR_POINTS``, as mpmath numbers computed at ``CONTOUR_DPS`` digits.

    Every circle shares them and forms its points as center + radius * node.
    """
    import mpmath

    n = CONTOUR_POINTS
    with mpmath.workdps(CONTOUR_DPS):
        return tuple(mpmath.exp(2j * mpmath.pi * k / n) for k in range(n))


def contour_circle(f: Callable[[Any], Any], spec: ContourSpec) -> complex:
    """(1/2*pi*i) times the integral of f around the circle; ``f`` takes and
    returns mpmath numbers."""
    import mpmath

    with mpmath.workdps(CONTOUR_DPS):
        # converted once (exactly) instead of at every point
        center, radius = mpmath.mpmathify(spec.center), mpmath.mpmathify(spec.radius)
        total = mpmath.mpc(0)
        for node in _roots_of_unity():
            z = center + radius * node
            total += f(z) * (z - center)
        return complex(total / CONTOUR_POINTS)


# -- Euler-Maclaurin style sum/integral comparisons -------------------------


def _gauss_integral_01(g: Callable[[np.ndarray], np.ndarray]) -> float:
    nodes, weights = _gauss_rule(96)
    return float(np.sum(g(nodes) * weights))


def check_euler_maclaurin(kind: str, **params) -> CheckResult:
    """Compare a weighted divisor sum with its integral main term.

    ``basic``: sum of n^{-1-s} log(x/n)^l vs (log x)^{l+1} x^{-s} times the
    moment integral.  ``cross``: the d_k sum against the single-integral form
    (params k, F, H, x, z, s).  ``diag``: the z = x special case.  The error
    is normalized by the power of log the remainder carries.
    """
    if kind == "basic":
        l, s, x = int(params["l"]), float(params["s"]), float(params["x"])
        if abs(s) > 1.0 / math.log(x):
            raise OracleError("need |s| <= 1/log x")
        n = np.arange(1, int(x) + 1, dtype=float)
        lhs = float(np.sum(n ** (-1.0 - s) * np.log(x / n) ** l))
        rhs = math.log(x) ** (l + 1) * x ** (-s) * _gauss_integral_01(
            lambda a: x ** (s * a) * a**l
        )
        normalizer = math.log(3 * x) ** l
    elif kind in ("cross", "diag"):
        k = int(params["k"])
        F: Polynomial = params["F"]
        H: Polynomial = params["H"]
        x, s = float(params["x"]), float(params["s"])
        z = x if kind == "diag" else float(params["z"])
        if z > x:
            raise OracleError("need z <= x")
        if abs(s) > 1.0 / math.log(x):
            raise OracleError("need |s| <= 1/log x")
        tables = params.get("tables") or ArithmeticTables(int(z))
        dk = tables.dk(k)[1 : int(z) + 1].astype(float)
        n = np.arange(1, int(z) + 1, dtype=float)
        lhs = float(
            np.sum(dk * n ** (-1.0 - s) * F(np.log(x / n) / math.log(x))
                   * H(np.log(z / n) / math.log(z)))
        )
        logz, logx = math.log(z), math.log(x)
        rhs = (logz**k / factorial(k - 1)) * z ** (-s) * _gauss_integral_01(
            lambda u: (1 - u) ** (k - 1) * F(1 - (1 - u) * logz / logx) * H(u)
            * z ** (u * s)
        )
        normalizer = math.log(3 * z) ** (k - 1)
    else:
        raise OracleError(f"unknown kind {kind!r}")
    error = abs(lhs - rhs) / normalizer
    return CheckResult.from_error(
        f"euler_maclaurin[{kind}]", dict(params, lhs=lhs, rhs=rhs),
        error, ASYMPTOTIC_CONSTANT,
    )


def check_logsave(k: int, sigma: float, x: float, tables: ArithmeticTables | None = None):
    """Bounded-ratio check of the log-saving divisor-sum estimate."""
    if not -1.0 <= sigma <= 0.0:
        raise OracleError("need -1 <= sigma <= 0")
    tables = tables or ArithmeticTables(int(x))
    dk = tables.dk(k)[1 : int(x) + 1].astype(float)
    n = np.arange(1, int(x) + 1, dtype=float)
    lhs = float(np.sum(dk / n * (x / n) ** sigma))
    log3x = math.log(3 * x)
    bound = log3x ** (k - 1) * (log3x if sigma == 0.0 else min(1.0 / abs(sigma), log3x))
    ratio = lhs / bound
    return CheckResult.from_error(
        "logsave", {"k": k, "sigma": sigma, "x": x, "lhs": lhs, "bound": bound},
        ratio, ASYMPTOTIC_CONSTANT,
    )


@lru_cache(maxsize=8)
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1] (read-only arrays).

    Kept separate from the quad module on purpose: the oracles must not share
    code paths with what they check.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gauss_rule_ld(n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_gauss_rule` widened to extended precision."""
    nodes, weights = _gauss_rule(n)
    return nodes.astype(np.longdouble), weights.astype(np.longdouble)


# -- contour identities -----------------------------------------------------


def _k1_pair(i: int, alpha: float, beta: float, logq: float):
    import mpmath

    # float -> mpf is exact: converted once per circle, not at every point
    a, b, lq = map(mpmath.mpf, (alpha, beta, logq))
    lhs = contour_circle(
        lambda s: mpmath.exp(lq * s) * (a + s) * (-b + s) / s ** (i + 1),
        ContourSpec(center=0.0, radius=0.3),
    )
    expo = Jet.linear(0.0, alpha, -beta, 1, 1).exp()
    base = Jet.linear(logq, 1.0, 1.0, 1, 1)
    power = Jet.constant(1.0, 1, 1)
    for _ in range(i):
        power = power * base
    rhs = (expo * power).mixed_partial(1, 1) / factorial(i)
    return lhs, rhs


def _k2_pair(j: int, alpha: float, beta: float, logq: float):
    import mpmath

    a, b, lq = map(mpmath.mpf, (alpha, beta, logq))
    # the circle must enclose every pole: 0, -alpha and beta
    lhs = 4.0 * contour_circle(
        lambda u: mpmath.exp(lq * u) / ((a + u) * (-b + u) * u ** (j - 1)),
        ContourSpec(center=0.0, radius=0.25),
    )
    # triangle via b = (1 - a)t; extended precision because the logq^j
    # prefactor amplifies the quadrature sum's rounding
    xs, ws = _gauss_rule_ld(96)
    a = xs[:, None]
    b = (1.0 - a) * xs[None, :]
    vals = (1.0 - a - b) ** (j - 2) * np.exp(logq * (-a * alpha + b * beta)) * (1.0 - a)
    inner = np.sum(vals * ws[:, None] * ws[None, :])
    rhs = float(4.0 * np.longdouble(logq) ** j / factorial(j - 2) * inner)
    return lhs, rhs


def _l1_pair(i: int, alpha: float, beta: float, logq: float):
    import mpmath

    a, b, lq = map(mpmath.mpf, (alpha, beta, logq))
    # poles at 0 and -alpha; (beta + s)^2 is entire
    lhs = contour_circle(
        lambda s: mpmath.exp(lq * s) * (b + s) ** 2 / ((a + s) * s ** (i - 1)),
        ContourSpec(center=0.0, radius=0.25),
    )

    def integrand(u):
        expo = Jet.linear(-logq * alpha * u, beta - alpha * u, 0.0, 2, 0).exp()
        return expo * ((1.0 - u) ** (i - 2))

    nodes, weights = _gauss_rule(96)
    inner = Jet(2, 0, np.sum(integrand(nodes).coeffs * weights, axis=-1))
    base = Jet.linear(logq, 1.0, 0.0, 2, 0)
    power = Jet.constant(1.0, 2, 0)
    for _ in range(i - 1):
        power = power * base
    rhs = (power * inner).mixed_partial(2, 0) / factorial(i - 2)
    return lhs, rhs


def _f_residue_pair(j: int, k: int, s: float, logx: float):
    if s == 0.0:
        raise OracleError("s must be nonzero")
    import mpmath

    radius = 0.4 * abs(s)
    mp_s, mp_logx = mpmath.mpf(s), mpmath.mpf(logx)

    def f(u):
        return mpmath.exp(mp_logx * u) / ((u + mp_s) ** (j + 1) * u ** (k + 1))

    lhs0 = contour_circle(f, ContourSpec(center=0.0, radius=radius))
    rhs0 = sum(
        (-1) ** l * comb(j + l, j) * logx ** (k - l) / (s ** (j + l + 1) * factorial(k - l))
        for l in range(k + 1)
    )
    # residue at u = -s: shift u -> u - s, which swaps j and k and brings x^{-s}
    lhs1 = contour_circle(f, ContourSpec(center=-s, radius=radius))
    rhs1 = math.exp(-logx * s) * sum(
        (-1) ** l * comb(k + l, k) * logx ** (j - l)
        / ((-s) ** (k + l + 1) * factorial(j - l))
        for l in range(j + 1)
    )
    return (lhs0, rhs0), (lhs1, rhs1)


def check_contour_identity(kind: str, **params) -> CheckResult:
    """Contour integral vs closed form for the K1/K2/L1/F-residue identities."""
    alpha = float(params.get("alpha", 0.0))
    beta = float(params.get("beta", 0.0))
    if max(abs(alpha), abs(beta)) > 0.1:
        raise OracleError("need |alpha|, |beta| <= 0.1")
    if kind == "K1":
        i = int(params["i"])
        if i < 1:
            raise OracleError("K1 needs i >= 1")
        lhs, rhs = _k1_pair(i, alpha, beta, float(params["logq"]))
        error = abs(lhs - rhs)
    elif kind == "K2":
        j = int(params["j"])
        if j < 3:
            raise OracleError("K2 needs j >= 3")
        lhs, rhs = _k2_pair(j, alpha, beta, float(params["logq"]))
        # values scale like logq^j, so normalize by the magnitude
        error = abs(lhs - rhs) / max(1.0, abs(rhs))
    elif kind == "L1":
        i = int(params["i"])
        if i < 3:
            raise OracleError("L1 needs i >= 3")
        lhs, rhs = _l1_pair(i, alpha, beta, float(params["logq"]))
        error = abs(lhs - rhs)
    elif kind == "F_residues":
        pair0, pair1 = _f_residue_pair(
            int(params["j"]), int(params["k"]), float(params["s"]), float(params["logx"])
        )
        error = max(abs(pair0[0] - pair0[1]), abs(pair1[0] - pair1[1]))
        lhs, rhs = pair0
    else:
        raise OracleError(f"unknown kind {kind!r}")
    return CheckResult.from_error(
        f"contour[{kind}]", dict(params, lhs=complex(lhs), rhs=complex(rhs)),
        error, EXACT_TOL,
    )


# -- exact arithmetic identities --------------------------------------------


def check_mobius_identities(N: int = DEFAULT_N, tables: ArithmeticTables | None = None):
    """Divisor-sum collapses that make the arithmetical factors identically 1.

    For every m <= N: sum of mu(n) over n | m is [m = 1], and sum of mu2(h)
    over h | m is mu(m).  Verified in exact integer arithmetic.
    """
    tables = tables or ArithmeticTables(N)
    mu, mu2 = tables.mu[: N + 1], tables.mu2[: N + 1]
    unit = np.zeros(N + 1, dtype=np.int64)
    mob = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        unit[d::d] += mu[d]
        mob[d::d] += mu2[d]
    expected_unit = np.zeros(N + 1, dtype=np.int64)
    expected_unit[1] = 1
    failures = int(np.count_nonzero(unit[1:] - expected_unit[1:])) + int(
        np.count_nonzero(mob[1:] - mu[1:])
    )
    return CheckResult.from_error("mobius", {"N": N}, float(failures), 0.0)


# -- Mellin pair ------------------------------------------------------------

_MELLIN_PANELS = (0.0, 0.25, 1.0, 4.0, 16.0, 64.0, 250.0, 1000.0)


def check_mellin_pair(P1: Polynomial, y1: float, n: float) -> CheckResult:
    """Vertical-line Mellin integral against the polynomial it represents.

    The line sits at Re s = 1/log y1; the integral is truncated at height
    10^3 and integrated panel-wise (Gauss-Legendre per panel), using the
    conjugate symmetry of the integrand.
    """
    if n < 1 or y1 <= 1:
        raise OracleError("need y1 > 1 and n >= 1")
    logy = math.log(y1)
    c = 1.0 / logy
    logq = math.log(y1 / n)
    coeffs = P1.coeffs

    nodes, weights = _gauss_rule(64)
    total = 0.0
    for i, a_i in enumerate(coeffs):
        if i == 0 or a_i == 0.0:
            continue
        # (1/2*pi) * integral over t of (y1/n)^{c+it} / (c+it)^{i+1}, symmetrized
        part = 0.0
        for lo, hi in zip(_MELLIN_PANELS[:-1], _MELLIN_PANELS[1:]):
            t = lo + (hi - lo) * nodes
            svals = c + 1j * t
            vals = np.exp(logq * svals) / svals ** (i + 1)
            part += (hi - lo) * float(np.sum(vals.real * weights))
        total += (a_i * factorial(i) / logy**i) * part / math.pi
    expected = P1(logq / logy) if n <= y1 else 0.0
    return CheckResult.from_error(
        "mellin_pair", {"y1": y1, "n": n, "value": total, "expected": expected},
        abs(total - expected), MELLIN_TOL,
    )


# -- Q as a differential operator -------------------------------------------


def check_q_operator(Q: Polynomial, X: float, T: float, alpha: float = 0.0):
    """Q(-(1/log T) d/d alpha) applied to X^{-alpha} equals Q(log X/log T)
    times X^{-alpha}; the derivatives are taken with a univariate jet rather
    than the power rule."""
    if X <= 1 or T <= 1:
        raise OracleError("need X, T > 1")
    logX, logT = math.log(X), math.log(T)
    deg = max(Q.degree, 1)
    expo = Jet.linear(-alpha * logX, -logX, 0.0, deg, 0).exp()
    lhs = 0.0
    for k_idx, q_k in enumerate(Q.coeffs):
        if q_k == 0.0:
            continue
        deriv_k = expo.mixed_partial(k_idx, 0)  # d^k/d alpha^k of X^{-alpha}
        lhs += q_k * (-1.0 / logT) ** k_idx * deriv_k
    rhs = Q(logX / logT) * math.exp(-alpha * logX)
    scale = max(abs(rhs), 1.0)
    return CheckResult.from_error(
        "q_operator", {"X": X, "T": T, "alpha": alpha, "lhs": lhs, "rhs": rhs},
        abs(lhs - rhs) / scale, QOP_TOL,
    )


# -- finite-difference oracle for the jet operators -------------------------

FD_H = 1e-3
# Gauss orders of the extended-precision c12 (3-D) and c2 (4-D) integrals
FD_C12_ORDER = 32
FD_C2_ORDER = 24
JET_OPERATOR_TOL = 1e-6
_D1_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_D1_WEIGHTS = (1.0, -8.0, 8.0, -1.0)
_D2_OFFSETS = (-2.0, -1.0, 0.0, 1.0, 2.0)
_D2_WEIGHTS = (-1.0, 16.0, -30.0, 16.0, -1.0)


def _c12_scalar(cfg: moments.MollifierConfig, x, y, n: int = 32):
    """The c12 integrand's inner integral at real offsets (x, y), pre-factor
    included; finite differences of this reproduce the kernel's c12.

    A tensor-product Gauss rule of order n on [0,1]^3 in extended precision:
    the stencil divides by h^2, which amplifies double rounding of the plain
    integrals beyond the 1e-6 comparison floor.  The axes are (s, t, u) with
    the triangle point (a, b) = (s, (1 - s) t); each factor is evaluated on
    the axes it depends on and broadcast, which is the same rule as
    evaluating it at every node.
    """
    ld = np.longdouble
    th1, th2, R = ld(cfg.theta1), ld(cfg.theta2), ld(cfg.R)
    x, y = ld(x), ld(y)
    Q, P1 = cfg.Q, cfg.P1
    P2dd = cfg.P2.derivative().derivative()
    nodes, weights = _gauss_rule_ld(n)
    s, t, u = nodes[:, None, None], nodes[None, :, None], nodes[None, None, :]
    a = s
    b = (1.0 - s) * t
    jac = 1.0 - s
    expo = np.exp(R * (th1 * (y - x) + u * th2 * (a - b)))
    values = (
        u * u * (1.0 - u) * expo
        * Q(-x * th1 + a * u * th2) * Q(1.0 + y * th1 - b * u * th2)
        * P1(x + y + 1.0 - (1.0 - u) * th2 / th1)
        * P2dd((1.0 - a - b) * u) * jac
    )
    weight = weights[:, None, None] * weights[None, :, None] * weights[None, None, :]
    value = np.sum(values * weight)
    return 4.0 * (th2**2 / th1**2) * np.exp(R) * value


def _c2_scalar(cfg: moments.MollifierConfig, x, y, n: int = 32):
    """The c2 inner integral at real offsets (x, y) (pre-factor 2/3 included).

    A tensor-product Gauss rule of order n on [0,1]^4 over (t, r, u, v) in
    extended precision (the stencil divides by 144 h^4), with the integrand
    split by axis: only Q(A + tG), exp(2RtG) and Q(B + tG) depend on t, with
    A = theta2 (-y + u (x + r)) and B = theta2 (-x + v (y + r)), so every
    other factor is built once on the (r, u, v) grid.  The t-dependent
    factors are contracted with the t weights one node at a time, then the
    (r, u, v) sum is taken; this is the same rule as summing the full
    integrand over all n^4 nodes.
    """
    ld = np.longdouble
    th2, R = ld(cfg.theta2), ld(cfg.R)
    x, y = ld(x), ld(y)
    Q = cfg.Q
    P2dd = cfg.P2.derivative().derivative()
    nodes, weights = _gauss_rule_ld(n)
    r, u, v = nodes[:, None, None], nodes[None, :, None], nodes[None, None, :]
    E = x + y - v * (y + r) - u * (x + r)
    G = 1.0 + th2 * E
    A = th2 * (-y + u * (x + r))
    B = th2 * (-x + v * (y + r))
    outer = (
        (1.0 - r) ** 4 * (1.0 / th2 + E) * np.exp(-th2 * R * E)
        * (x + r) * (y + r) * P2dd((1.0 - u) * (x + r)) * P2dd((1.0 - v) * (y + r))
        * (weights[:, None, None] * weights[None, :, None] * weights[None, None, :])
    )
    inner = np.zeros_like(G)
    for t, w in zip(nodes, weights):
        tG = t * G
        inner += w * (Q(A + tG) * np.exp(2.0 * R * tG) * Q(B + tG))
    return (2.0 / 3.0) * np.sum(inner * outer)


def fd_c12(cfg: moments.MollifierConfig) -> float:
    """4th-order central-difference d^2/dx dy at the origin of the c12 kernel."""
    total = np.longdouble(0.0)
    for ox, wx in zip(_D1_OFFSETS, _D1_WEIGHTS):
        for oy, wy in zip(_D1_OFFSETS, _D1_WEIGHTS):
            total += wx * wy * _c12_scalar(cfg, ox * FD_H, oy * FD_H, n=FD_C12_ORDER)
    return float(total / np.longdouble(12.0 * FD_H) ** 2)


def fd_c2(cfg: moments.MollifierConfig) -> float:
    """4th-order central-difference d^4/dx^2 dy^2 at the origin of the c2
    kernel."""
    total = np.longdouble(0.0)
    for ox, wx in zip(_D2_OFFSETS, _D2_WEIGHTS):
        for oy, wy in zip(_D2_OFFSETS, _D2_WEIGHTS):
            if wx == 0.0 or wy == 0.0:
                continue
            total += wx * wy * _c2_scalar(cfg, ox * FD_H, oy * FD_H, n=FD_C2_ORDER)
    return float(total / np.longdouble(12.0 * FD_H * FD_H) ** 2)


def check_jet_operators(cfg: moments.MollifierConfig):
    """c12 and c2 of :func:`moments.evaluate` against the finite-difference oracle."""
    report = moments.evaluate(cfg)
    c12_jet, c2_jet = report.c12, report.c2
    c12_fd = fd_c12(cfg)
    c2_fd = fd_c2(cfg)
    err12 = abs(c12_jet - c12_fd) / max(abs(c12_jet), 1e-12)
    err2 = abs(c2_jet - c2_fd) / max(abs(c2_jet), 1e-12)
    return CheckResult.from_error(
        "jet_operators",
        {"c12_jet": c12_jet, "c12_fd": c12_fd, "c2_jet": c2_jet, "c2_fd": c2_fd},
        max(err12, err2), JET_OPERATOR_TOL,
    )


# -- suites -----------------------------------------------------------------


def _euler_suite() -> list[CheckResult]:
    out = []
    ident = Polynomial((0.0, 1.0))
    one = Polynomial((1.0,))
    for l in (0, 1, 2):
        for s in (0.0, 0.05, -0.05):
            out.append(check_euler_maclaurin("basic", l=l, s=s, x=1e4))
    tables = ArithmeticTables(10_000)
    for k in (1, 2, 3):
        out.append(check_euler_maclaurin("diag", k=k, F=one, H=one, x=1e4, s=0.0,
                                         tables=tables))
        out.append(check_euler_maclaurin("cross", k=k, F=ident, H=ident, x=1e4,
                                         z=5e3, s=0.0, tables=tables))
    for k in (1, 2, 3, 4, 5):
        for sigma in (0.0, -0.25, -1.0):
            out.append(check_logsave(k, sigma, 1e4, tables=tables))
    return out


def _contour_suite(n_random: int = 10) -> list[CheckResult]:
    rng = np.random.default_rng(31415)
    out = [
        check_contour_identity("K1", i=2, alpha=0.0, beta=0.0, logq=10.0),
        check_contour_identity("K2", j=3, alpha=0.03, beta=0.02, logq=20.0),
        check_contour_identity("L1", i=3, alpha=0.05, beta=-0.04, logq=15.0),
        check_contour_identity("F_residues", j=1, k=2, s=0.5, logx=5.0),
    ]
    for _ in range(n_random):
        alpha, beta = rng.uniform(-0.1, 0.1, size=2)
        logq = rng.uniform(5.0, 25.0)
        out.append(check_contour_identity("K1", i=int(rng.integers(1, 6)),
                                          alpha=alpha, beta=beta, logq=logq))
        out.append(check_contour_identity("K2", j=int(rng.integers(3, 6)),
                                          alpha=alpha, beta=beta, logq=logq))
        out.append(check_contour_identity("L1", i=int(rng.integers(3, 6)),
                                          alpha=alpha, beta=beta, logq=logq))
        out.append(check_contour_identity(
            "F_residues", j=int(rng.integers(0, 4)), k=int(rng.integers(0, 4)),
            s=float(rng.uniform(0.3, 1.5) * rng.choice((-1.0, 1.0))),
            logx=float(rng.uniform(2.0, 8.0)),
        ))
    return out


def _mobius_suite() -> list[CheckResult]:
    return [check_mobius_identities(DEFAULT_N)]


def _mellin_suite() -> list[CheckResult]:
    from .presets import KAPPA_P1
    from .poly import make_p1

    P1 = make_p1(KAPPA_P1)
    y1 = 1e4
    return [
        check_mellin_pair(P1, y1, 1.0),
        check_mellin_pair(P1, y1, y1**0.5),
        check_mellin_pair(P1, y1, y1),
        check_mellin_pair(P1, y1, 2 * y1),
    ]


def _qop_suite() -> list[CheckResult]:
    from .presets import KAPPA_QSPEC, KAPPA_STAR_QSPEC
    from .poly import make_q

    T = 1e8
    out = []
    for spec, theta in ((KAPPA_QSPEC, 4.0 / 7.0), (KAPPA_STAR_QSPEC, 0.5)):
        Q = make_q(spec)
        X = T**theta
        out.append(check_q_operator(Q, X, T, alpha=0.0))
        out.append(check_q_operator(Q, X, T, alpha=-1.28 / math.log(T)))
    out.append(check_q_operator(Polynomial((1.0,)), 100.0, 1e6))
    return out


def _jets_suite() -> list[CheckResult]:
    from .presets import kappa_preset

    return [check_jet_operators(kappa_preset())]


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "euler": _euler_suite,
    "contour": _contour_suite,
    "mobius": _mobius_suite,
    "mellin": _mellin_suite,
    "qop": _qop_suite,
    "jets": _jets_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        raise OracleError(f"unknown suite {name!r}; choose from all, {', '.join(SUITES)}")
    return SUITES[name]()
