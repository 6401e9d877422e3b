"""Independent numerical verification of the exactly-checkable identities.

Everything here deliberately avoids the moment evaluation paths it is
checking, the quadrature and the jet ring included: contour integrals use
the trapezoid rule on circles in 40-digit mpmath arithmetic, climbing n = 64,
128, 256, 512 points until the difference from the n/2-point sum (its every
other node) is at most 1e-14, relative to the largest point value where that
is below 1, which certifies the value far inside every check's threshold.
Every circle is centred on the real axis and every integrand has real
parameters, so term(conj w) = conj(term(w)) (Schwarz reflection): each
n-point rule is summed over the n/2 + 1 nodes of the closed upper half
circle and its value is real, half the term evaluations of the plain rule
for the same rule summed in another order.  Their closed forms are
product-rule Taylor coefficients (K1, L1), a triangle integral (K2) and
finite sums (the F residues); the Q operator's derivatives are Cauchy
integrals on one more such circle.  Each integrand is written in its
circle's own coordinate, as a term of the unit node w: a pole of order m at
the centre is radius^-m conj(w)^m there, a product where the point form took
a negative complex power and a division.  Sums use sieved arithmetic tables,
real integrals use this module's own Gauss-Legendre rule, and derivative
operators of the moment kernels get 4th-order finite differences of
long-double tensor-product Gauss integrals.  Work that does not change
between evaluations is done once: the circles share the upper half's roots
of unity, each circle converts its float parameters and its pole powers
radius^-m to mpmath numbers once, the two F circles (one radius, centres 0
and -s) share each node's exp(logx radius w), the c12 stencil sums the t
axis once per y offset and evaluates every other factor on the axes it
depends on, the c2 stencil evaluates each of its symmetric offset pairs once
and each offset's axis moments once, and every divisor sum is one Dirichlet
convolution split at isqrt(N), about 2 isqrt(N) strided slices instead of N.
All are the same rules as the plain per-point forms, only with
loop-invariant work hoisted.
The c2 integral's (u, v) plane is summed per (r, t) slice through its u- and
v-moments (a sum factorization: the Q factors are expanded as polynomials in
(u, v) and every other factor splits into a u part and a v part), which is
the same rule summed in another order, exact in exact arithmetic.
Asymptotic statements are tested as bounded-normalized-error properties (their
O(.) constants are not quantified), never as equalities.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial
from typing import Any, Callable, NamedTuple

import numpy as np

from . import moments
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
        """mu(n) for n <= N, sieving with the primes p <= D = isqrt(N) alone.

        Each such p strikes its composite multiples, flips the sign of every
        multiple and zeroes the multiples of p^2.  A number n <= N has at
        most one prime factor p > D, and then n = k p with k <= N // (D + 1):
        one step per k flips the signs of all those k p at once.  Integer
        arithmetic, so the order of the flips does not change a bit.
        """
        D = math.isqrt(N)
        mu = np.ones(N + 1, dtype=np.int64)
        mu[0] = 0
        is_prime = np.ones(N + 1, dtype=bool)
        is_prime[:2] = False
        for p in range(2, D + 1):
            if not is_prime[p]:
                continue
            is_prime[p * p :: p] = False
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
        large = np.flatnonzero(is_prime[D + 1 :]) + (D + 1)
        for k in range(1, N // (D + 1) + 1):
            mu[k * large[: np.searchsorted(large, N // k, side="right")]] *= -1
        return mu

    @staticmethod
    def _dirichlet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The Dirichlet convolution out[m] = sum of a[d] b[e] over de = m,
        for 1 <= m <= N = a.size - 1 (index 0 of either input is unused).

        Hyperbola split at D = isqrt(N): every pair with de <= N has d <= D,
        summed one d at a time over all its e, or d > D and then
        e <= N // (D + 1), summed one e at a time over all its d > D.  Each
        term is one strided slice, so the loop runs at most 2 D times.
        Integer arithmetic: the sum order does not change a bit.
        """
        N = a.size - 1
        D = math.isqrt(N)
        out = np.zeros(N + 1, dtype=np.int64)
        for d in range(1, D + 1):
            out[d::d] += a[d] * b[1 : N // d + 1]
        for e in range(1, N // (D + 1) + 1):
            top = N // e
            out[(D + 1) * e : top * e + 1 : e] += a[D + 1 : top + 1] * b[e]
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
                table = self._dirichlet(self.dk(k - 1), self.dk(1))
            self._dk[k] = table
        return self._dk[k]


# -- contour integration ----------------------------------------------------

# Every circle runs at this many decimal digits: residues extracted from
# large cancelling circle values need the head-room.  Its trapezoid ladder
# starts at CONTOUR_START_POINTS, doubles up to CONTOUR_POINTS, and stops at
# the first rung whose certificate |T_n - T_{n/2}| is at most CONTOUR_FLOOR
# times min(1, largest point value |term(w)|): relative for small
# values, and never above an absolute CONTOUR_FLOOR, so a certificate stays
# below every check threshold however large the circle's values are.
CONTOUR_DPS = 40
CONTOUR_POINTS = 512
CONTOUR_START_POINTS = 64
CONTOUR_FLOOR = 1e-14


class ContourValue(NamedTuple):
    """One circle's integral: the trapezoid value at the rung where the
    ladder stopped (real, as a complex with imaginary part exactly 0), its
    certificate |T_n - T_{n/2}| (``inf`` when no rung up to
    ``CONTOUR_POINTS`` met the floor) and the number of points n of that
    rung's rule (n/2 + 1 of which were evaluated)."""

    value: complex
    certificate: float
    points: int


@lru_cache(maxsize=1)
def _roots_of_unity() -> tuple:
    """The trapezoid nodes exp(2*pi*i*k/n) of the closed upper half circle,
    k = 0 .. n/2 with n = ``CONTOUR_POINTS``, as mpmath numbers computed at
    ``CONTOUR_DPS`` digits.

    Every circle shares them: each is the unit node w of a circle's term,
    and the lower half's nodes are their conjugates, which no term is
    evaluated at.  Rung m uses every (n/m)-th node; n/m is a power of two,
    so these are bit-identical to the m-th roots of unity.
    """
    import mpmath

    n = CONTOUR_POINTS
    with mpmath.workdps(CONTOUR_DPS):
        return tuple(mpmath.exp(2j * mpmath.pi * k / n) for k in range(n // 2 + 1))


def _magnitude(value):
    """|value| as a double, or at 40 digits where the double would fall
    below the smallest normal one, so a tiny term keeps a relative floor."""
    double = abs(complex(value))
    return double if double >= sys.float_info.min else abs(value)


def contour_circle(term: Callable[[Any], Any]) -> ContourValue:
    """(1/2*pi*i) times the integral of f around a circle, given as the term
    ``term(w) = f(center + radius*w) * radius*w`` of the unit node w
    (mpmath numbers in and out): with z = center + radius*w, dz/(2*pi*i) is
    radius*w dtheta/(2*pi), so the trapezoid value is the mean of the terms.
    The term is the circle's own coordinate: a pole of order m at the centre
    is radius^-m conj(w)^m there, since |w| = 1, and a factor like
    exp(L z) is exp(L center) exp(L radius w), formed once per circle.  The
    trapezoid rule converges geometrically for an f analytic near the
    circle; the terms and their sum use mpmath at ``CONTOUR_DPS`` digits.

    The term must satisfy term(conj w) = conj(term(w)) (Schwarz reflection),
    as it does for every circle here: each is centred on the real axis and
    each term has real parameters.  The n-point rule is then

        T_n = [term(1) + term(-1) + 2 Re sum_{0<k<n/2} term(w_k)] / n,

    which is real: only the n/2 + 1 nodes of the closed upper half circle
    are evaluated.  Each rung evaluates only its new (odd-indexed) nodes and
    keeps the real part and the magnitude of every term; T_{n/2} and the
    certificate come from the same stored values.
    """
    import mpmath

    nodes = _roots_of_unity()
    half = len(nodes) - 1
    with mpmath.workdps(CONTOUR_DPS):

        def values(indices):
            terms = [term(nodes[k]) for k in indices]
            return [value.real for value in terms], max(map(_magnitude, terms))

        def trapezoid(reals):
            # the ends are w = 1 and w = -1; each inner node stands for itself
            # and its conjugate
            inner = mpmath.mpf(0)
            for value in reals[1:-1]:
                inner += value
            return (reals[0] + reals[-1] + 2 * inner) / (2 * (len(reals) - 1))

        n = CONTOUR_START_POINTS
        stride = CONTOUR_POINTS // n
        reals, scale = values(range(0, half + 1, stride))
        previous = trapezoid(reals[::2])
        while True:
            total = trapezoid(reals)
            certificate = abs(total - previous)
            if certificate <= CONTOUR_FLOOR * min(1.0, scale):
                return ContourValue(complex(total), float(certificate), n)
            if n == CONTOUR_POINTS:
                return ContourValue(complex(total), math.inf, n)
            stride //= 2
            fresh, fresh_scale = values(range(stride, half, 2 * stride))
            scale = max(scale, fresh_scale)
            reals = [value for pair in zip(reals, fresh) for value in pair] + reals[-1:]
            previous, n = total, 2 * n


# -- Euler-Maclaurin style sum/integral comparisons -------------------------


def _tables_up_to(n: int, tables: ArithmeticTables | None) -> ArithmeticTables:
    """``tables`` if it reaches n, fresh tables up to n if it is None."""
    if tables is None:
        return ArithmeticTables(n)
    if tables.N < n:
        raise OracleError(f"need tables.N >= {n}, got tables.N = {tables.N}")
    return tables


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
        tables = _tables_up_to(int(z), params.get("tables"))
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
    tables = _tables_up_to(int(x), tables)
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


@lru_cache(maxsize=8)
def _gauss_rule_ld(n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_gauss_rule` widened to extended precision (read-only arrays)."""
    nodes, weights = (a.astype(np.longdouble) for a in _gauss_rule(n))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# -- contour identities -----------------------------------------------------


def _k1_pair(i: int, alpha: float, beta: float, logq: float):
    import mpmath

    # the circle |s| = 0.3
    with mpmath.workdps(CONTOUR_DPS):
        # float -> mpf is exact: converted once per circle, not at every point
        a, b, r = map(mpmath.mpf, (alpha, beta, 0.3))
        lqr, pole = logq * r, r**-i

    # f(s) = e^{logq s} (alpha + s) (s - beta) / s^{i+1} at s = r w, times r w
    def term(w):
        rw = r * w
        return mpmath.exp(lqr * w) * (a + rw) * (rw - b) * pole * w.conjugate() ** i

    circle = contour_circle(term)
    # [xy] of e^{alpha x - beta y} (logq + x + y)^i by the product rule
    last = i * (i - 1) * logq ** (i - 2) if i >= 2 else 0.0
    rhs = (-alpha * beta * logq**i + i * (alpha - beta) * logq ** (i - 1) + last) / factorial(i)
    return circle.value, rhs, circle


def _k2_pair(j: int, alpha: float, beta: float, logq: float):
    import mpmath

    # the circle |u| = 0.25 must enclose every pole: 0, -alpha and beta
    with mpmath.workdps(CONTOUR_DPS):
        a, b, r = map(mpmath.mpf, (alpha, beta, 0.25))
        lqr, pole = logq * r, r ** (2 - j)

    # f(u) = e^{logq u} / ((alpha + u) (u - beta) u^{j-1}) at u = r w, times r w
    def term(w):
        rw = r * w
        return mpmath.exp(lqr * w) * pole * w.conjugate() ** (j - 2) / ((a + rw) * (rw - b))

    circle = contour_circle(term)
    # triangle via b = (1 - a)t; extended precision because the logq^j
    # prefactor amplifies the quadrature sum's rounding
    xs, ws = _gauss_rule_ld(96)
    ta = xs[:, None]
    tb = (1.0 - ta) * xs[None, :]
    vals = (1.0 - ta - tb) ** (j - 2) * np.exp(logq * (-ta * alpha + tb * beta)) * (1.0 - ta)
    inner = np.sum(vals * ws[:, None] * ws[None, :])
    rhs = float(4.0 * np.longdouble(logq) ** j / factorial(j - 2) * inner)
    return 4.0 * circle.value, rhs, circle


def _l1_pair(i: int, alpha: float, beta: float, logq: float):
    import mpmath

    # the circle |s| = 0.25 about the poles 0 and -alpha; (beta + s)^2 is entire
    with mpmath.workdps(CONTOUR_DPS):
        a, b, r = map(mpmath.mpf, (alpha, beta, 0.25))
        lqr, pole = logq * r, r ** (2 - i)

    # f(s) = e^{logq s} (beta + s)^2 / ((alpha + s) s^{i-1}) at s = r w, times r w
    def term(w):
        rw = r * w
        return mpmath.exp(lqr * w) * (b + rw) ** 2 * pole * w.conjugate() ** (i - 2) / (a + rw)

    circle = contour_circle(term)
    # 2! [x^2] of (logq + x)^{i-1} (its [x^k] is g[k]) times the integral over
    # u of e^{-logq alpha u + (beta - alpha u) x} (1 - u)^{i-2} (h[k])
    u, w = _gauss_rule(96)
    weighted = np.exp(-logq * alpha * u) * (1.0 - u) ** (i - 2) * w
    h = [float(np.sum(weighted * (beta - alpha * u) ** k)) / factorial(k) for k in range(3)]
    g = (logq ** (i - 1), (i - 1) * logq ** (i - 2), (i - 1) * (i - 2) * logq ** (i - 3) / 2)
    rhs = 2.0 * (g[0] * h[2] + g[1] * h[1] + g[2] * h[0]) / factorial(i - 2)
    return circle.value, rhs, circle


def _f_residue_pair(j: int, k: int, s: float, logx: float):
    """Both residues of f(u) = x^u / ((u + s)^{j+1} u^{k+1}), on circles of
    radius 0.3 |s| about 0 and about -s, so the other pole sits at 1/0.3 radii.

    Both circles have the same radius, so with u = r w about 0 and
    u = -s + r w about -s, x^u is exp(logx r w) and x^{-s} exp(logx r w):
    each node's exp(logx r w) is computed once for the pair.
    """
    if s == 0.0:
        raise OracleError("s must be nonzero")
    import mpmath

    with mpmath.workdps(CONTOUR_DPS):
        mp_s, r = mpmath.mpf(s), mpmath.mpf(0.3 * abs(s))
        lr, shift = logx * r, mpmath.exp(-logx * mp_s)
        pole0, pole1 = r**-k, shift * r**-j
    @lru_cache(maxsize=None)
    def exp_lrw(w):
        return mpmath.exp(lr * w)

    # f(r w) r w: the pole u^{k+1} at the centre, (u + s)^{j+1} off it
    def term0(w):
        return exp_lrw(w) * pole0 * w.conjugate() ** k / (r * w + mp_s) ** (j + 1)

    # f(-s + r w) r w: the pole (u + s)^{j+1} at the centre, u^{k+1} off it
    def term1(w):
        return exp_lrw(w) * pole1 * w.conjugate() ** j / (r * w - mp_s) ** (k + 1)

    circle0 = contour_circle(term0)
    rhs0 = sum(
        (-1) ** l * comb(j + l, j) * logx ** (k - l) / (s ** (j + l + 1) * factorial(k - l))
        for l in range(k + 1)
    )
    # residue at u = -s: shift u -> u - s, which swaps j and k and brings x^{-s}
    circle1 = contour_circle(term1)
    rhs1 = math.exp(-logx * s) * sum(
        (-1) ** l * comb(k + l, k) * logx ** (j - l)
        / ((-s) ** (k + l + 1) * factorial(j - l))
        for l in range(j + 1)
    )
    return (circle0.value, rhs0, circle0), (circle1.value, rhs1, circle1)


# kind -> (pair, name of its index, least index)
_INDEXED_PAIRS = {"K1": (_k1_pair, "i", 1), "K2": (_k2_pair, "j", 3), "L1": (_l1_pair, "i", 3)}


def check_contour_identity(kind: str, **params) -> CheckResult:
    """Contour integral vs closed form for the K1/K2/L1/F-residue identities.

    ``params`` gains the circles' ``trapezoid_points`` (summed) and
    ``trapezoid_certificate`` (the largest); a circle the ladder could not
    certify fails the check with an infinite error.
    """
    alpha = float(params.get("alpha", 0.0))
    beta = float(params.get("beta", 0.0))
    if max(abs(alpha), abs(beta)) > 0.1:
        raise OracleError("need |alpha|, |beta| <= 0.1")
    if kind in _INDEXED_PAIRS:
        pair, index, least = _INDEXED_PAIRS[kind]
        n = int(params[index])
        if n < least:
            raise OracleError(f"{kind} needs {index} >= {least}")
        lhs, rhs, circle = pair(n, alpha, beta, float(params["logq"]))
        circles = (circle,)
        # K2's values scale like logq^j, so it is normalized by the magnitude
        error = abs(lhs - rhs) / (max(1.0, abs(rhs)) if kind == "K2" else 1.0)
    elif kind == "F_residues":
        pair0, pair1 = _f_residue_pair(
            int(params["j"]), int(params["k"]), float(params["s"]), float(params["logx"])
        )
        circles = (pair0[2], pair1[2])
        error = max(abs(pair0[0] - pair0[1]), abs(pair1[0] - pair1[1]))
        lhs, rhs, _ = pair0
    else:
        raise OracleError(f"unknown kind {kind!r}")
    certificate = max(circle.certificate for circle in circles)
    if certificate == math.inf:
        error = math.inf
    return CheckResult.from_error(
        f"contour[{kind}]",
        dict(params, lhs=complex(lhs), rhs=complex(rhs),
             trapezoid_points=sum(circle.points for circle in circles),
             trapezoid_certificate=certificate),
        error, EXACT_TOL,
    )


# -- exact arithmetic identities --------------------------------------------


def check_mobius_identities(N: int = DEFAULT_N):
    """Divisor-sum collapses that make the arithmetical factors identically 1.

    For every m <= N: sum of mu(n) over n | m is [m = 1], and sum of mu2(h)
    over h | m is mu(m).  Verified in exact integer arithmetic.

    Both divisor sums, ``mu2`` and the ``dk`` tables come from one helper,
    :meth:`ArithmeticTables._dirichlet`.  The unit identity is what pins that
    shared helper: its input is the independently sieved mu, and its expected
    value [m = 1] comes from no convolution at all.
    """
    tables = ArithmeticTables(N)
    mu, mu2, one = tables.mu, tables.mu2, tables.dk(1)
    unit = tables._dirichlet(mu, one)
    mob = tables._dirichlet(mu2, one)
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
    times X^{-alpha}.  Each derivative is a Cauchy integral: the left side is
    one circle of radius 1/4 about 0 over X^{-(alpha + z)} times
    sum_k q_k k! (-1/log T)^k z^{-k-1}, sharing no formula with the right.
    An uncertified circle fails the check with an infinite error."""
    if X <= 1 or T <= 1:
        raise OracleError("need X, T > 1")
    import mpmath

    logX, logT = math.log(X), math.log(T)
    with mpmath.workdps(CONTOUR_DPS):
        r, lx, step = mpmath.mpf(0.25), mpmath.mpf(logX), -1 / mpmath.mpf(logT)
        front, lxr = mpmath.exp(-lx * alpha), lx * r
        # z^{-k-1} times dz = r w is r^{-k} conj(w)^k on the circle
        weights = [q_k * factorial(k) * (step / r) ** k for k, q_k in enumerate(Q.coeffs)]

    def term(w):
        series, cw = 0, w.conjugate()  # Horner in conj(w)
        for weight in reversed(weights):
            series = series * cw + weight
        return front * mpmath.exp(-lxr * w) * series

    circle = contour_circle(term)
    lhs, rhs = circle.value.real, Q(logX / logT) * math.exp(-alpha * logX)
    error = math.inf if circle.certificate == math.inf else abs(lhs - rhs) / max(abs(rhs), 1.0)
    return CheckResult.from_error(
        "q_operator", {"X": X, "T": T, "alpha": alpha, "lhs": lhs, "rhs": rhs,
                       "trapezoid_points": circle.points,
                       "trapezoid_certificate": circle.certificate},
        error, QOP_TOL,
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


def _c12_scalars(cfg: moments.MollifierConfig, xs, ys, n: int) -> np.ndarray:
    """The c12 integrand's inner integral at every pair of real offsets,
    pre-factor included: entry [i, j] is at (xs[i], ys[j]), and finite
    differences of these reproduce the kernel's c12.

    A tensor-product Gauss rule of order n on [0,1]^3 in extended precision:
    the stencil divides by h^2, which amplifies double rounding of the plain
    integrals beyond the 1e-6 comparison floor.  The axes are (s, t, u) with
    the triangle point (a, b) = (s, (1 - s) t).  Only the factor
    exp(R theta2 u (s - b)) Q(1 + y theta1 - b u theta2) P2''((1 - s - b) u)
    depends on t, and of the offsets only on y, so its t-sum G_y(s, u) is
    formed once per y; the pair (x, y) is then the (s, u) sum of G_y times
    Q(-x theta1 + s u theta2) and P1(x + y + 1 - (1 - u) theta2/theta1) with
    their rule weights, and exp(R theta1 (y - x)) joins the pre-factor: the
    same rule as evaluating the integrand at every node of every pair.
    """
    ld = np.longdouble
    th1, th2, R = ld(cfg.theta1), ld(cfg.theta2), ld(cfg.R)
    xs, ys = np.asarray(xs, dtype=ld), np.asarray(ys, dtype=ld)
    Q, P1 = cfg.Q, cfg.P1
    P2dd = cfg.P2.derivative().derivative()
    nodes, weights = _gauss_rule_ld(n)
    s, t, u = nodes[:, None, None], nodes[None, :, None], nodes[None, None, :]
    b = (1.0 - s) * t
    common = np.exp(R * th2 * u * (s - b)) * P2dd((1.0 - s - b) * u)
    g = np.stack([np.einsum("stu,t->su", common * Q(1.0 + y * th1 - b * u * th2), weights)
                  for y in ys])
    x = xs[:, None, None]
    # on (x, s, u) and on (x, y, u), with the s and u weights
    qx = (weights * (1.0 - nodes))[:, None] * Q(-x * th1 + nodes[:, None] * nodes * th2)
    p1 = weights * nodes * nodes * (1.0 - nodes) * P1(
        x + ys[:, None] + 1.0 - (1.0 - nodes) * th2 / th1)
    value = np.einsum("xsu,xyu,ysu->xy", qx, p1, g)
    return 4.0 * (th2**2 / th1**2) * np.exp(R * (1.0 + th1 * (ys - xs[:, None]))) * value


def _powers_ld(a, k: int) -> np.ndarray:
    """a^0 .. a^k on a new trailing axis, by repeated multiplication."""
    out = np.empty(np.shape(a) + (k + 1,), dtype=np.longdouble)
    out[..., 0] = 1.0
    for m in range(1, k + 1):
        out[..., m] = out[..., m - 1] * a
    return out


def _taylor_rows_ld(Q: Polynomial) -> np.ndarray:
    """Row k holds the ascending coefficients of T_k = Q^(k)/k!, in extended
    precision: T_k(c) = sum_m C(m + k, k) q_(m+k) c^m.

    Built from Q's coefficients rather than by repeated
    :meth:`Polynomial.derivative`, whose float64 k q_k rounds.
    """
    q = np.array(Q.coeffs, dtype=np.longdouble)
    d = Q.degree
    rows = np.zeros((d + 1, d + 1), dtype=np.longdouble)
    for k in range(d + 1):
        for m in range(d + 1 - k):
            rows[k, m] = comb(m + k, k) * q[m + k]
    return rows


def _c2_scalars(cfg: moments.MollifierConfig, pairs, n: int) -> np.ndarray:
    """The c2 inner integral at each pair of real offsets (x, y) in ``pairs``
    (pre-factor 2/3 included).

    The tensor-product Gauss rule of order n on [0,1]^4 over (t, r, u, v) in
    extended precision (the stencil divides by 144 h^4), with the (u, v)
    plane of each (r, t) slice summed through moments.  With p = x + r,
    q = y + r and g0 = 1 + theta2 (x + y), the Q arguments are linear in
    (u, v):

        A + tG = (-theta2 y + t g0) + (1 - t) theta2 p u - t theta2 q v
        B + tG = (-theta2 x + t g0) - t theta2 p u + (1 - t) theta2 q v.

    Expanded about the centre of the (u, v) square, Q(c + alpha u + beta v)
    is sum_ij T_(i+j)(c') C(i+j, i) alpha^i beta^j (u - 1/2)^i (v - 1/2)^j
    with c' = c + (alpha + beta)/2 and T_k = Q^(k)/k!: a coefficient matrix
    Qa (for A) or Qb (for B) per slice.  The centre halves each term's reach:
    for a degree-11 Q, expanding about u = v = 0 put the scalar 1.2e-17
    (relative) off the node-by-node sum, and the centre 1.6e-18.  Every other
    factor splits into a u part and a v part:
    exp(-theta2 R E) exp(2RtG) = exp(-theta2 R (x + y) + 2Rt g0)
    exp(R (1 - 2t) theta2 p u) exp(R (1 - 2t) theta2 q v), the front factor
    1/theta2 + E is (1/(2 theta2) + x - p u) + (1/(2 theta2) + y - q v), and
    each P2'' factor depends on one of u, v.  So the slice's (u, v) sum is
    Qa^T H_u Qb : H_v over the two halves of the front factor, where H_u and
    H_v are the Hankel matrices of the u- and v-moments
    sum_u w_u (u factors) (u - 1/2)^k, k <= 2 deg Q.  That is the same rule
    as summing the full integrand over all n^4 nodes, exact in exact
    arithmetic, at O(n deg Q + deg Q^3) per slice instead of O(n^2 deg Q).
    The u-moments at offset x are the v-moments at offset y = x, so each
    distinct offset's moments are built once for all pairs.  The expansions
    and moments are built for all slices at once; the matrices are formed one
    t node at a time, so each step holds n of them.

    Swapping (x, u) with (y, v) swaps p and q, turns Qa into Qb^T and Qb
    into Qa^T, and swaps H_u and H_v; the trace of the four-matrix product is
    invariant under that, and u and v share one rule, so the scalar is
    symmetric in (x, y) up to rounding.
    """
    ld = np.longdouble
    th2, R = ld(cfg.theta2), ld(cfg.R)
    d = cfg.Q.degree
    P2dd = cfg.P2.derivative().derivative()
    nodes, weights = _gauss_rule_ld(n)
    t, r = nodes[:, None], nodes[None, :]  # the slices, t on the leading axis
    rows = _taylor_rows_ld(cfg.Q).T[::-1]
    hankel = np.add.outer(np.arange(d + 1), np.arange(d + 1))
    binom = np.array([[comb(a + b, a) if a + b <= d else 0 for b in range(d + 1)]
                      for a in range(d + 1)], dtype=ld)
    centred = _powers_ld(nodes - 0.5, 2 * d)

    def expansion(c, alpha, beta):
        # T_(i+j) at the centre and the powers of alpha and beta, per slice
        centre = (c + 0.5 * (alpha + beta))[..., None]
        taylor = np.zeros(centre.shape[:-1] + (d + 1,), dtype=ld)
        for row in rows:
            taylor = taylor * centre + row
        return taylor, _powers_ld(alpha, d), _powers_ld(beta, d)

    @lru_cache(maxsize=None)
    def axis_moments(offset):
        # sum_u w_u exp(R (1 - 2t) theta2 s u) P2''((1 - u) s) (u - 1/2)^k per
        # slice with s = offset + r, bare and times the axis's half of the
        # front factor; the same on the u axis at x and the v axis at y
        s = offset + r
        base = (weights * P2dd((1.0 - nodes) * s[..., None])) * np.exp(
            (R * th2 * (1.0 - 2.0 * t) * s)[..., None] * nodes)
        front = 1.0 / (2.0 * th2) + offset - s[..., None] * nodes
        return np.stack((base, base * front)) @ centred

    def matrix(taylor, alpha_powers, beta_powers):
        # [(u - 1/2)^i (v - 1/2)^j] Q(c + alpha u + beta v) on one t node
        return (taylor[..., np.minimum(hankel, d)] * binom
                * alpha_powers[..., :, None] * beta_powers[..., None, :])

    out = np.empty(len(pairs), dtype=ld)
    for i, (x, y) in enumerate(pairs):
        x, y = ld(x), ld(y)
        p, q = x + r, y + r
        g0 = 1.0 + th2 * (x + y)
        qa = expansion(-th2 * y + t * g0, (1.0 - t) * th2 * p, -t * th2 * q)
        qb = expansion(-th2 * x + t * g0, -t * th2 * p, (1.0 - t) * th2 * q)
        mu, mv = axis_moments(x), axis_moments(y)
        slices = np.empty((n, n), dtype=ld)
        for k in range(n):
            a = np.swapaxes(matrix(*(part[k] for part in qa)), -1, -2)
            b = matrix(*(part[k] for part in qb))
            # Qa^T H_u Qb : (H_v front) + Qa^T (H_u front) Qb : H_v on each r
            hu, hv = mu[:, k][..., hankel], mv[:, k][..., hankel]
            slices[k] = np.sum((a @ hu @ b) * hv[::-1], axis=(0, -2, -1))
        outer = (
            ld(2) / 3 * (1.0 - r) ** 4 * p * q * weights
            * (weights * np.exp(R * (2.0 * nodes * g0 - th2 * (x + y))))[:, None]
        )
        out[i] = np.sum(slices * outer)
    return out


def fd_c12(cfg: moments.MollifierConfig) -> float:
    """4th-order central-difference d^2/dx dy at the origin of the c12 kernel."""
    offsets = np.array(_D1_OFFSETS) * FD_H
    weights = np.array(_D1_WEIGHTS, dtype=np.longdouble)
    scalars = _c12_scalars(cfg, offsets, offsets, n=FD_C12_ORDER)
    return float(weights @ scalars @ weights / np.longdouble(12.0 * FD_H) ** 2)


def fd_c2(cfg: moments.MollifierConfig) -> float:
    """4th-order central-difference d^4/dx^2 dy^2 at the origin of the c2
    kernel.

    The c2 scalar is symmetric in its offsets (see :func:`_c2_scalars`) and
    the stencil is the same on both axes, so each unordered offset pair is
    evaluated once and an off-diagonal one counts twice: 15 scalars, not 25.
    """
    pairs, factors = [], []
    for i, (ox, wx) in enumerate(zip(_D2_OFFSETS, _D2_WEIGHTS)):
        for oy, wy in zip(_D2_OFFSETS[i:], _D2_WEIGHTS[i:]):
            pairs.append((ox * FD_H, oy * FD_H))
            factors.append((1.0 if oy == ox else 2.0) * wx * wy)
    total = np.longdouble(0.0)
    for factor, scalar in zip(factors, _c2_scalars(cfg, pairs, n=FD_C2_ORDER)):
        total += factor * scalar
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


# The contour suite's ten drawn parameter sets, pinned so that no numpy
# version can change them: (alpha, beta, logq, K1's i, K2's j, L1's i, then
# F's j, k, s and logx), each value as numpy.random.default_rng(31415) first
# drew it in that order (alpha, beta in (-0.1, 0.1); logq in (5, 25); i in
# 1..5, j in 3..5, i in 3..5; j, k in 0..3; |s| in (0.3, 1.5) of either sign;
# logx in (2, 8)).
_CONTOUR_PANEL = (
    (-6.21340943451898e-05, -0.07695949217087875, 22.243544505256402, 5, 5, 3,
     0, 3, 1.1443234710813297, 3.473351977548039),
    (0.0643040208926163, -0.05679321861023499, 5.060956055668722, 5, 4, 3,
     0, 3, -0.9350781259255849, 3.324728068674541),
    (0.06737539015292407, -0.028420217047110327, 24.140835848179158, 4, 4, 4,
     1, 2, 0.8498152756573971, 5.441815763404741),
    (-0.07004100550242398, -0.0182939623462582, 22.883431967753577, 4, 3, 4,
     1, 2, 1.3427568278330748, 2.4629131371948083),
    (0.02266580498400128, -0.0567700845959787, 14.090435535343966, 1, 3, 3,
     1, 0, 0.3738231424585195, 2.133387322731164),
    (0.0021061131150166973, 0.04642495454412904, 14.072841494505667, 3, 5, 4,
     0, 0, -1.485176807447335, 7.083795208745406),
    (-0.09203658762152891, -0.09962782073244428, 23.290881288839184, 5, 3, 3,
     2, 1, 0.4727714374588491, 3.48118018511503),
    (-0.09660323122540596, 0.014115697081835535, 18.039630951580833, 5, 5, 3,
     1, 2, -1.1774763494719453, 4.696048927024201),
    (0.09597948226240877, -0.05603324287720018, 7.4229807754676695, 2, 4, 3,
     1, 1, 1.3640286059289874, 2.433712813825201),
    (-0.07387678681867121, -0.048224934282154776, 9.789078312500543, 4, 5, 4,
     2, 0, 0.5330766547513714, 3.766775280719954),
)


def _contour_suite() -> list[CheckResult]:
    out = [
        check_contour_identity("K1", i=2, alpha=0.0, beta=0.0, logq=10.0),
        check_contour_identity("K2", j=3, alpha=0.03, beta=0.02, logq=20.0),
        check_contour_identity("L1", i=3, alpha=0.05, beta=-0.04, logq=15.0),
        check_contour_identity("F_residues", j=1, k=2, s=0.5, logx=5.0),
    ]
    for alpha, beta, logq, i1, j2, i3, j, k, s, logx in _CONTOUR_PANEL:
        out.append(check_contour_identity("K1", i=i1, alpha=alpha, beta=beta, logq=logq))
        out.append(check_contour_identity("K2", j=j2, alpha=alpha, beta=beta, logq=logq))
        out.append(check_contour_identity("L1", i=i3, alpha=alpha, beta=beta, logq=logq))
        out.append(check_contour_identity("F_residues", j=j, k=k, s=s, logx=logx))
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
    from .presets import KAPPA_QSPEC, KAPPA_R, KAPPA_STAR_QSPEC
    from .poly import make_q

    T = 1e8
    out = []
    for spec, theta in ((KAPPA_QSPEC, 4.0 / 7.0), (KAPPA_STAR_QSPEC, 0.5)):
        Q = make_q(spec)
        X = T**theta
        out.append(check_q_operator(Q, X, T, alpha=0.0))
        out.append(check_q_operator(Q, X, T, alpha=-KAPPA_R / math.log(T)))
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
