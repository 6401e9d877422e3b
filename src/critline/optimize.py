"""Maximizing the kappa bound over polynomial coefficients and R.

For fixed (Q, R, theta1, theta2) the total constant c is an inhomogeneous
quadratic form in the concatenated coefficient vector w = (P1 coeffs, P2
coeffs): c(w) = 1 + w'Mw.  The inner problem (best P1, P2 subject to
P1(1) = 1) is therefore a linear solve on the constraint surface, one
Cholesky factorization of M restricted to it (Conrey's quadratic-form
optimization), and only the few outer parameters (R and Q's odd-basis
coefficients) need derivative-free search.  M is assembled from the bilinear
c1, c12 and c2 blocks of :func:`critline.moments.blocks`, one quadrature
pass per block (1-D in v for c1, whose u-integral is exact in its kernel;
3-D for c12 and 4-D for c2), with the monomial basis on both sides.  What
depends only on sizes (Q's odd basis, the constraint's null basis) is built
once per size and shared by every outer step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np

from . import moments, presets, quad
from .moments import ALL_ZEROS, SIMPLE_ZEROS, KappaReport, MollifierConfig, Monomials
from .poly import Polynomial, QSpec, make_p1, make_p2, make_q

# Gram quadrature tolerance: the final re-solve, and the cheaper search
GRAM_TOL = 1e-9
SEARCH_GRAM_TOL = 1e-5
GRAM_N_START = 8
INITIAL_STEP = 0.05
DIAMETER_TOL = 1e-6
MAX_ITERATIONS = 200
# why optimize_full scored an outer point 1e6; counted in its diagnostics
REJECTION_REASONS = (
    "R_out_of_range", "c_min_nonpositive", "optimize_error", "quadrature_error", "value_error",
)


class OptimizeError(RuntimeError):
    pass


# -- Gram system ------------------------------------------------------------


def check_degrees(d1: int, d2: int) -> None:
    """Raise ConfigError unless P1 has powers 1..d1 with 1 <= d1 < quad.N_MAX
    and P2 powers 3..d2 with d2 >= 3, or d2 = 0 to disable the second piece."""
    if d1 < 1:
        raise moments.ConfigError(f"d1 must be >= 1 (P1 has powers 1..d1), got {d1}")
    moments.check_p1_degree(d1)
    if d2 != 0 and d2 < 3:
        raise moments.ConfigError(f"d2 must be 0 or >= 3 (P2 starts at x^3), got {d2}")


@dataclass(frozen=True)
class GramSystem:
    """c(w) = 1 + w'Mw over the monomial basis x^1..x^d1 for P1 and
    x^3..x^d2 for P2; ``e`` encodes the constraint P1(1) = 1."""

    M: np.ndarray
    d1: int

    @property
    def e(self) -> np.ndarray:
        return np.concatenate([np.ones(self.d1), np.zeros(len(self.M) - self.d1)])

    def split(self, w: np.ndarray) -> tuple[Polynomial, Polynomial]:
        """Translate a coefficient vector back into (P1, P2)."""
        a, b = w[: self.d1], w[self.d1 :]
        return make_p1(tuple(a), normalize=True), make_p2(tuple(b))

    def total(self, w: np.ndarray) -> float:
        return 1.0 + float(w @ self.M @ w)


def build_gram(
    Q: Polynomial,
    R: float,
    theta1: float,
    theta2: float,
    d1: int,
    d2: int,
    tol: float = GRAM_TOL,
) -> GramSystem:
    """Assemble M on the monomial basis with one quadrature pass per block.

    :func:`moments.blocks` with a :class:`~critline.moments.Monomials` family
    on each side (orders from ``GRAM_N_START``) returns the c1 (d1 x d1), c12
    (d1 x (d2 - 2)) and c2 ((d2 - 2) x (d2 - 2)) blocks, the diagonal ones
    symmetric; this function only places them into M.
    ``d2 = 0`` disables the second mollifier piece entirely (no P2 columns,
    one pass); otherwise ``d2 >= 3`` since P2 vanishes to third order.
    """
    check_degrees(d1, d2)
    n_p2 = 0 if d2 == 0 else d2 - 2

    def side(family):
        return family(range(1, d1 + 1)), family(range(3, d2 + 1)) if n_p2 else None

    (c1, _), (c12, _), (c2, _) = moments.blocks(
        Q, side(Monomials.rows), side(Monomials.columns), R, theta1, theta2, tol, GRAM_N_START
    )
    M = np.block([[c1, c12], [c12.T, c2]]) if n_p2 else c1
    return GramSystem(M=M, d1=d1)


@lru_cache(maxsize=16)
def _null_basis(n: int, d1: int) -> np.ndarray:
    """An orthonormal basis of null(e') for e = (1 x d1, 0 x (n - d1)), as
    columns; read-only, since every Gram of this size shares it."""
    e = np.concatenate([np.ones(d1), np.zeros(n - d1)])
    basis = np.linalg.qr(e.reshape(-1, 1), mode="complete")[0][:, 1:]
    basis.setflags(write=False)
    return basis


def solve_constrained(sys: GramSystem) -> tuple[np.ndarray, float]:
    """Minimize 1 + w'Mw on the constraint surface e'w = 1.

    There w = e/d1 + Nz, the columns of N an orthonormal basis of null(e'),
    and the minimum solves (N'MN) z = -N'M e/d1.  c is a mean square, so N'MN
    is positive semidefinite in exact arithmetic, and one Cholesky
    factorization both tests that the minimum exists and solves for it.  If
    it fails (quadrature or conditioning noise), raise :class:`OptimizeError`
    rather than return a stationary point that is not a minimum.
    """
    null_basis = _null_basis(len(sys.M), sys.d1)
    w0 = sys.e / sys.d1
    try:
        chol = np.linalg.cholesky(null_basis.T @ sys.M @ null_basis)
    except np.linalg.LinAlgError as exc:
        raise OptimizeError("Gram matrix is not positive definite on the constraint surface") from exc
    z = np.linalg.solve(chol.T, np.linalg.solve(chol, -null_basis.T @ sys.M @ w0))
    w = w0 + null_basis @ z
    return w, sys.total(w)


# -- Nelder-Mead ------------------------------------------------------------


def nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: Sequence[float],
    diameter_tol: float = DIAMETER_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> tuple[np.ndarray, float]:
    """Downhill simplex with reflection 1, expansion 2, contraction 1/2,
    shrink 1/2 and first steps of ``INITIAL_STEP``; stops when the simplex
    diameter drops below ``diameter_tol`` or after ``max_iterations`` steps."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise OptimizeError("x0 must be a nonempty vector")
    f0 = f(x0)
    if not math.isfinite(f0):
        raise OptimizeError("objective is not finite at x0")

    n = x0.size
    simplex = [x0]
    for k in range(n):
        step = np.zeros(n)
        step[k] = INITIAL_STEP if x0[k] == 0.0 else INITIAL_STEP * max(abs(x0[k]), 1.0)
        simplex.append(x0 + step)
    values = [f0] + [f(x) for x in simplex[1:]]

    for _ in range(max_iterations):
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(np.max(np.abs(x - simplex[0])) for x in simplex[1:])
        if diameter < diameter_tol:
            break

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_r = f(reflected)
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = f(expanded)
            simplex[-1], values[-1] = (expanded, f_e) if f_e < f_r else (reflected, f_r)
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            f_c = f(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                best = simplex[0]
                simplex = [best] + [best + 0.5 * (x - best) for x in simplex[1:]]
                values = [values[0]] + [f(x) for x in simplex[1:]]

    i_best = int(np.argmin(values))
    return simplex[i_best], values[i_best]


# -- full optimization ------------------------------------------------------

_SEED_SCALES = (0.02, 0.05, 0.1)
EXTRA_SEEDS = len(_SEED_SCALES)


def _published_seed(mode: str, q_degree: int) -> np.ndarray:
    """R and odd-basis Q coefficients of the ``mode`` preset, Q cut or padded to ``q_degree``."""
    if mode == SIMPLE_ZEROS:
        R, spec = presets.KAPPA_STAR_R, presets.KAPPA_STAR_QSPEC
    else:
        R, spec = presets.KAPPA_R, presets.KAPPA_QSPEC
    n_odd = (q_degree + 1) // 2
    return np.array([R, *(spec.odd_coeffs + (0.0,) * n_odd)[:n_odd]])


def optimize_full(
    theta1: float,
    theta2: float,
    d1: int,
    d2: int,
    q_degree: int,
    mode: str = ALL_ZEROS,
    max_iterations: int = MAX_ITERATIONS,
    extra_seeds: int = EXTRA_SEEDS,
) -> KappaReport:
    """Outer Nelder-Mead over (R, Q odd-basis coefficients) with an exact
    constrained quadratic solve for (P1, P2) at every outer point.

    Q's constant term is always 1 - sum(odd coefficients), so Q(0) = 1 holds
    exactly throughout the search; simple mode takes only ``q_degree = 1``.
    ``d2 = 0`` disables the P2 piece.  The search starts from the published
    point and from ``extra_seeds`` (0 to 3) perturbations of it.  It uses a
    cheap Gram quadrature (``SEARCH_GRAM_TOL``); once the outer point is
    settled, the inner problem is re-solved at ``GRAM_TOL`` and the winning
    configuration is re-evaluated with fully converged quadrature.  Inputs
    it cannot use, thetas and mode included, raise ConfigError before any
    outer step.
    """
    moments.check_thetas(theta1, theta2)
    check_degrees(d1, d2)
    if q_degree < 1 or q_degree % 2 != 1:
        raise moments.ConfigError(f"q_degree must be a positive odd integer, got {q_degree}")
    moments.check_mode(mode, q_degree)
    if max_iterations < 0:
        raise moments.ConfigError(f"max_iterations must be >= 0, got {max_iterations}")
    if not 0 <= extra_seeds <= len(_SEED_SCALES):
        raise moments.ConfigError(f"the number of extra seeds must be in [0, {len(_SEED_SCALES)}]")
    evaluations = admissible = 0
    best: dict[str, Any] = {"kappa": -math.inf}
    # outer points scored 1e6 instead of a kappa, by reason
    rejected = dict.fromkeys(REJECTION_REASONS, 0)

    def reject(reason: str) -> float:
        rejected[reason] += 1
        return 1e6

    def objective(params: np.ndarray) -> float:
        nonlocal evaluations, admissible
        evaluations += 1
        R = float(params[0])
        if not 0.1 <= R <= 5.0:
            return reject("R_out_of_range")
        odd = tuple(float(v) for v in params[1:])
        try:
            Q = make_q(QSpec(odd_coeffs=odd, const=1.0 - sum(odd)))
            sys = build_gram(Q, R, theta1, theta2, d1, d2, tol=SEARCH_GRAM_TOL)
            _, c_min = solve_constrained(sys)
        except OptimizeError:
            return reject("optimize_error")
        except quad.QuadratureError:
            return reject("quadrature_error")
        except ValueError:
            return reject("value_error")
        if c_min <= 0:
            return reject("c_min_nonpositive")
        admissible += 1
        kappa = moments.compute_kappa(c_min, R)
        if kappa > best["kappa"]:
            best.update(kappa=kappa, R=R, Q=Q)
        return -kappa

    seed0 = _published_seed(mode, q_degree)
    rng = np.random.default_rng(20260826)
    seeds = [seed0] + [
        seed0 + scale * rng.standard_normal(seed0.size) for scale in _SEED_SCALES[:extra_seeds]
    ]
    for seed in seeds:
        nelder_mead(objective, seed, max_iterations=max_iterations)

    if "R" not in best:
        raise OptimizeError("no admissible outer point found")
    R, Q = best["R"], best["Q"]
    sys = build_gram(Q, R, theta1, theta2, d1, d2, tol=GRAM_TOL)
    w, c_min = solve_constrained(sys)
    P1, P2 = sys.split(w)
    report = moments.evaluate(MollifierConfig(theta1, theta2, R, Q, P1, P2, mode))
    report.diagnostics.update(
        outer_evaluations=evaluations,
        admissible_evaluations=admissible,
        rejected_evaluations=rejected,
        inner_c_min=c_min,
        seeds=len(seeds),
    )
    return report
