"""Maximizing the kappa bound over R and the polynomial coefficients.

At fixed (R, theta1, theta2), c - 1 is a quadratic form in Q and one in
(P1, P2) (Conrey's quadratic-form optimization): c = 1 + sum T[a, b, k, l]
q_a q_b w_k w_l, with q Q's coefficients at y^0 and the odd powers of
y = 1 - 2x (``poly.InY``) and w those of P1 and P2 on monomials.
:func:`build_tensor` integrates T once per R.  Contracted on its Q axes it
is the Gram matrix M of (P1, P2), contracted on its P axes that of Q
(:func:`gram_at`).  The constraints P1(1) = 1 and Q(0) = sum(q) = 1 have
the same form, the first d1 coordinates of w summing to 1 (d1 the size of
P1's part, or all of q), so one solve serves both: :func:`solve_constrained`
minimizes 1 + w'Mw under it.  :func:`alternate` alternates the two solves,
and R is the only searched parameter.
The (Q, P1, P2) the search solved at its best R is the reported point, and
:func:`moments.evaluate` certifies it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from . import moments, presets, quad
from .moments import ALL_ZEROS, SIMPLE_ZEROS, KappaReport, MollifierConfig
from .poly import make_p1, make_p2, make_q

# the search's quadrature: its tolerance and first rung
SEARCH_GRAM_TOL = 1e-5
GRAM_N_START = 8
MAX_ITERATIONS = 200
Q_DEGREE_MAX = 23  # from 25 on, Q's Gram matrix is not positive definite to rounding
# the R search: admissible range, first bracketing step, final bracket width
R_RANGE = (0.1, 5.0)
R_STEP = 0.05
R_TOL = 1e-6
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# alternation at one R: stop once a round lowers c by at most this, relatively
ROUND_TOL = 1e-15
MAX_ROUNDS = 100


class OptimizeError(RuntimeError):
    pass


# -- Gram matrices ----------------------------------------------------------


def check_degrees(d1: int, d2: int) -> None:
    """Raise ConfigError unless P1 has powers 1..d1 with 1 <= d1 < quad.N_MAX
    and P2 powers 3..d2 with d2 >= 3, or d2 = 0 to disable the second piece."""
    if d1 < 1:
        raise moments.ConfigError(f"d1 must be >= 1 (P1 has powers 1..d1), got {d1}")
    moments.check_p1_degree(d1)
    if d2 != 0 and d2 < 3:
        raise moments.ConfigError(f"d2 must be 0 or >= 3 (P2 starts at x^3), got {d2}")


def build_tensor(
    basis: np.ndarray, R: float, theta1: float, theta2: float, d1: int, d2: int, tol: float
) -> np.ndarray:
    """T with c = 1 + sum T[a, b, k, l] q_a q_b w_k w_l for
    Q = sum_a q_a basis[a] (coefficients in y = 1 - 2x, one row per member)
    and w the P1 and P2 monomial coefficients (none of P2 if d2 = 0).

    One :func:`moments.blocks` pass on the side (basis, P1's monomials,
    P2's monomials): Q's rows land on member axes 0 and 1, the P rows on 2
    and 3, so a node holds m^2 * na * nb members, and c2 is summed over its
    (u, v) triangle, ruled one rung behind t and r.  The P2-P1 blocks are
    the P1-P2 ones with both axis pairs swapped.  T is not symmetrized;
    :func:`gram_at` symmetrizes what it contracts.
    """
    check_degrees(d1, d2)
    m, n = len(basis), d1 + (d2 - 2 if d2 else 0)
    # P1 has powers 1..d1 and P2 powers 3..d2: rows of the identity
    side = (basis, np.eye(d1 + 1)[1:], np.eye(d2 + 1)[3:] if d2 else None)
    (c1, _), (c12, _), (c2, _) = moments.blocks(side, R, theta1, theta2, tol, GRAM_N_START)
    T = np.empty((m, m, n, n))
    T[:, :, :d1, :d1] = c1
    if d2:
        T[:, :, :d1, d1:] = c12
        T[:, :, d1:, d1:] = c2
        T[:, :, d1:, :d1] = T[:, :, :d1, d1:].transpose(1, 0, 3, 2)
    return T


def gram_at(T: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The symmetrized Gram matrix M of T's last two axes with v on its
    first two: of (P1, P2) at Q's coefficients v, or of Q at v = (P1, P2)
    when T's axis pairs are swapped.  Plain einsum, without ``optimize=``,
    calls no BLAS, so the thread count cannot change a bit of the search."""
    M = np.einsum("a,b,abkl->kl", v, v, T)
    return 0.5 * (M + M.T)


@lru_cache(maxsize=16)
def _surface(n: int, d1: int) -> tuple[np.ndarray, np.ndarray]:
    """The constraint surface e'w = 1 for e = (1 x d1, 0 x (n - d1)): its
    point e/d1 and an orthonormal basis of null(e'), as columns; read-only,
    since every Gram of this size shares them."""
    e = np.concatenate([np.ones(d1), np.zeros(n - d1)])
    w0, null_basis = e / d1, np.linalg.qr(e.reshape(-1, 1), mode="complete")[0][:, 1:]
    w0.setflags(write=False)
    null_basis.setflags(write=False)
    return w0, null_basis


def solve_constrained(M: np.ndarray, d1: int) -> tuple[np.ndarray, float]:
    """Minimize c(w) = 1 + w'Mw on the constraint surface e'w = 1, ``e`` 1 on
    the first d1 coordinates and 0 after: P1(1) = 1 over the monomials
    x^1..x^d1 of P1 and x^3..x^d2 of P2, or Q(0) = 1 over Q's powers of y,
    each 1 at x = 0 (d1 the number of powers).  Returns w and its c.

    There w = e/d1 + Nz, the columns of N an orthonormal basis of null(e'),
    and the minimum solves (N'MN) z = -N'M e/d1.  c is a mean square, so N'MN
    is positive semidefinite in exact arithmetic, and one Cholesky
    factorization both tests that the minimum exists and solves for it.  If
    it fails (quadrature or conditioning noise), raise :class:`OptimizeError`
    rather than return a stationary point that is not a minimum.
    """
    w0, null_basis = _surface(len(M), d1)
    try:
        chol = np.linalg.cholesky(null_basis.T @ M @ null_basis)
    except np.linalg.LinAlgError as exc:
        raise OptimizeError("Gram matrix is not positive definite on the constraint surface") from exc
    z = np.linalg.solve(chol.T, np.linalg.solve(chol, -null_basis.T @ M @ w0))
    w = w0 + null_basis @ z
    return w, 1.0 + float(w @ M @ w)


def alternate(T: np.ndarray, q: np.ndarray, d1: int) -> tuple[np.ndarray, list[float]]:
    """Lower c at one R from Q's coefficients q (sum(q) = 1) by alternating
    the exact solves for (P1, P2) and for q, neither of which can raise c,
    until a round lowers c by at most ``ROUND_TOL`` relatively or after
    ``MAX_ROUNDS`` rounds.  Returns the last q and c after every solve."""
    history: list[float] = []
    for _ in range(MAX_ROUNDS):
        w, c_w = solve_constrained(gram_at(T, q), d1)
        q, c_q = solve_constrained(gram_at(T.transpose(2, 3, 0, 1), w), len(q))
        history += [c_w, c_q]
        if len(history) > 2 and history[-3] - c_q <= ROUND_TOL * c_q:
            break
    return q, history


# -- the search over R --------------------------------------------------------


def _search_R(score: Callable[[float], float], R0: float, budget: int) -> None:
    """Minimize ``score`` over ``R_RANGE``, calling it at most 1 + ``budget``
    times: bracket from R0 and R0 + ``R_STEP``, stepping downhill with each
    step ``GOLDEN`` times the last until the score rises or the range ends,
    then narrow the bracket to ``R_TOL`` by Brent's method (R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 5).  It
    keeps the best R so far, x, the second best, w, and the one before, v,
    starting from the bracket's three points.  Each step goes to the vertex
    of the parabola through them when that lies inside the bracket and is
    shorter than half the step before last, and otherwise 1/GOLDEN^2 of the
    way into the larger part of the bracket.  No step is shorter than
    ``R_TOL`` / 4, so every scored R lies strictly inside the bracket and
    none is scored twice."""
    values: dict[float, float] = {}

    def f(R: float) -> float:
        if R not in values:
            values[R] = score(R)
        return values[R]

    a, b = R0, min(R0 + R_STEP, R_RANGE[1])
    f(a)
    if len(values) > budget:
        return
    if f(b) > f(a):
        a, b = b, a
    c = b
    while len(values) <= budget:
        c = min(max(b + GOLDEN * (b - a), R_RANGE[0]), R_RANGE[1])
        if c == b or f(c) >= f(b):
            break
        a, b = b, c
    lo, hi = min(a, c), max(a, c)
    x, (w, v) = b, sorted((lo, hi), key=f)
    least = R_TOL / 4  # the shortest step; inside a bracket wider than R_TOL it is a new R
    step = last = hi - lo  # the bracket's width stands in for the steps before the first
    while hi - lo > R_TOL and len(values) <= budget:
        mid = (lo + hi) / 2
        golden = True
        if abs(last) > least:
            # x + p / q is the vertex of the parabola through x, w and v
            r, q = (x - w) * (f(x) - f(v)), (x - v) * (f(x) - f(w))
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q = (-p, q) if q > 0 else (p, -q)
            if abs(p) < abs(0.5 * q * last) and q * (lo - x) < p < q * (hi - x):
                golden, last, step = False, step, p / q
                if min(x + step - lo, hi - x - step) < 2 * least:
                    # a vertex next to an end: the shortest step toward the middle
                    step = math.copysign(least, mid - x)
        if golden:
            # 1/GOLDEN^2 of the way into the larger part
            last = (lo - x) if x >= mid else (hi - x)
            step = last / GOLDEN**2
        u = x + (step if abs(step) >= least else math.copysign(least, step))
        if f(u) <= f(x):
            # u is the new best, and x bounds the bracket on its side
            lo, hi = (x, hi) if u >= x else (lo, x)
            v, w, x = w, x, u
        else:
            # u bounds the bracket on its side, and ranks against w and v
            lo, hi = (u, hi) if u < x else (lo, u)
            if f(u) <= f(w) or w == x:
                v, w = w, u
            elif f(u) <= f(v) or v in (x, w):
                v = u


# -- full optimization ------------------------------------------------------


def _published_start(mode: str, q_degree: int) -> tuple[float, np.ndarray]:
    """R and the odd-power coefficients of the ``mode`` preset's Q, cut or padded to q_degree."""
    if mode == SIMPLE_ZEROS:
        R, (_, odd) = presets.KAPPA_STAR_R, presets.KAPPA_STAR_Q
    else:
        R, (_, odd) = presets.KAPPA_R, presets.KAPPA_Q
    n_odd = (q_degree + 1) // 2
    return R, np.array((odd + (0.0,) * n_odd)[:n_odd])


def optimize_full(
    theta1: float,
    theta2: float,
    d1: int,
    d2: int,
    q_degree: int,
    mode: str = ALL_ZEROS,
    max_iterations: int = MAX_ITERATIONS,
) -> KappaReport:
    """Search R alone, with the exact alternating solve for (Q, P1, P2) at
    each R: one :func:`build_tensor` at ``SEARCH_GRAM_TOL``, then
    :func:`alternate`, from the published Q (cut or padded to ``q_degree``)
    at the published R and from the best Q so far at every later R.
    ``max_iterations`` caps the tensor builds after the first.  A quadrature
    failure, a failed solve or a c that is not a positive number at any R
    raises :class:`OptimizeError` naming that R.  At each R, P is solved once
    more at the final Q on the same tensor; the R with the best search c
    reports that (Q, P1, P2), which :func:`moments.evaluate` certifies.
    Q(0) = 1 throughout; simple mode takes only ``q_degree = 1``, and
    ``d2 = 0`` disables the P2 piece.  Inputs it cannot use raise
    ConfigError before any tensor build, a ``q_degree`` above
    ``Q_DEGREE_MAX`` among them.
    """
    moments.check_thetas(theta1, theta2)
    check_degrees(d1, d2)
    if q_degree < 1 or q_degree % 2 != 1:
        raise moments.ConfigError(f"q_degree must be a positive odd integer, got {q_degree}")
    if q_degree > Q_DEGREE_MAX:
        raise moments.ConfigError(f"q_degree {q_degree} exceeds {Q_DEGREE_MAX}: from 25 on, Q's"
                                  f" Gram matrix is not positive definite to rounding")
    moments.check_mode(mode, q_degree)
    if max_iterations < 0:
        raise moments.ConfigError(f"max_iterations must be >= 0, got {max_iterations}")

    R0, odd0 = _published_start(mode, q_degree)
    start = np.array([1.0 - odd0.sum(), *odd0])
    # y^0, y^1, y^3, ..., y^q_degree: rows of the identity
    basis = np.eye(q_degree + 1)[[0, *range(1, q_degree + 1, 2)]]
    points: dict[float, tuple] = {}  # R -> (kappa, q, (P1, P2), c of (q, P1, P2) on R's tensor)
    rounds = 0

    def score(R: float) -> float:
        nonlocal rounds
        q = max(points.values(), key=lambda point: point[0])[1] if points else start
        try:
            T = build_tensor(basis, R, theta1, theta2, d1, d2, SEARCH_GRAM_TOL)
            q, history = alternate(T, q, d1)
            w, c_w = solve_constrained(gram_at(T, q), d1)
        except (quad.QuadratureError, OptimizeError) as exc:
            raise OptimizeError(f"search failed at R = {R!r}: {exc}") from exc
        rounds += len(history) // 2
        c = history[-1]
        if not 0.0 < c < math.inf:
            raise OptimizeError(f"total constant {c!r} is not a positive number at R = {R!r}")
        P = make_p1(w[:d1]), make_p2(tuple(w[d1:]))
        points[R] = (moments.compute_kappa(c, R), q, P, c_w)
        return -points[R][0]

    _search_R(score, R0, max_iterations)

    R = max(points, key=lambda R: points[R][0])
    _, q, (P1, P2), c_min = points[R]
    Q = make_q(q[0], q[1:])
    report = moments.evaluate(MollifierConfig(theta1, theta2, R, Q, P1, P2, mode))
    report.diagnostics.update(
        outer_evaluations=len(points),
        alternation_rounds=rounds,
        inner_c_min=c_min,
    )
    return report
