"""Real polynomials and the three constrained smoothing-polynomial families.

Coefficients are stored in ascending powers: ``coeffs[k]`` multiplies ``x**k``.
The three families are:

* ``Q``: built on the ``(1 - 2x)`` odd-power basis plus a constant, which makes
  ``Q(x) + Q(1-x)`` constant by construction.
* ``P1``: no constant term, normalized (or tolerance-checked) to ``P1(1) = 1``.
* ``P2``: vanishing to third order at 0, i.e. coefficients start at ``x**3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

P1_VERBATIM_TOL = 1e-5
Q_SYMMETRY_TOL = 1e-12
# where q_symmetry_defect compares Q(x) + Q(1-x), x on 21 points of [0, 1]
_SYMMETRY_GRID = np.linspace(0.0, 1.0, 21)
_SYMMETRY_MIRROR = 1.0 - _SYMMETRY_GRID
_SYMMETRY_GRID.setflags(write=False)
_SYMMETRY_MIRROR.setflags(write=False)


class PolynomialError(ValueError):
    """Invalid polynomial construction or violated family constraint."""


@dataclass(frozen=True)
class Polynomial:
    """Immutable dense polynomial with real coefficients in ascending powers."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        # normal form: drop trailing zeros, keep (0.0,) for the zero polynomial
        n = len(c)
        while n > 1 and c[n - 1] == 0.0:
            n -= 1
        object.__setattr__(self, "coeffs", c[:n] if n else (0.0,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, x):
        """Horner evaluation; accepts scalars or numpy arrays.

        An array evaluates in ``np.result_type(x, float)``.  A scalar or 0-d
        array keeps the type that ``0.0 * x + c`` gives it (a Python float
        for a Python number, a numpy scalar otherwise)."""
        *lower, lead = self.coeffs
        if np.ndim(x):
            # one accumulator, updated in place: the same operations in the
            # same order as acc * x + c, without two temporaries per step
            acc = np.full(np.shape(x), lead, dtype=np.result_type(x, float))
            for c in reversed(lower):
                np.multiply(acc, x, out=acc)
                np.add(acc, c, out=acc)
            return acc
        acc = 0.0 * x + lead
        for c in reversed(lower):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial(tuple(factor * c for c in self.coeffs))


@dataclass(frozen=True)
class QSpec:
    """Q in the ``(1 - 2x)`` basis: ``const + sum_k odd_coeffs[k] * (1-2x)**k_odd``.

    Only odd powers appear, so ``Q(x) + Q(1-x) = 2 * const`` identically.
    """

    odd_coeffs: tuple[float, ...] = ()
    const: float = 1.0

    def powers(self) -> tuple[int, ...]:
        return tuple(range(1, 2 * len(self.odd_coeffs) + 1, 2))


@lru_cache(maxsize=32)
def _q_basis(powers: tuple[int, ...]) -> np.ndarray:
    """Monomial coefficients of 1 and of (1 - 2x)^k for k in ``powers``, one
    row each; read-only, since every caller with these powers shares it.

    Each row must make Q(x) + Q(1-x) constant, so every Q built on the basis
    does; the defect is checked here, once per basis, to guard against future
    basis changes.  Expanding and evaluating a row round in proportion to its
    monomial coefficients, so the tolerance is ``Q_SYMMETRY_TOL`` times
    ``max(1, sum |row|)``.  That sum is 3^k, and from k = 647 on it overflows
    (a coefficient does from k = 651), so such a power raises before any
    check.
    """
    basis = np.zeros((len(powers) + 1, max(powers, default=0) + 1))
    basis[0, 0] = 1.0
    for row, k in enumerate(powers, start=1):
        term = np.polynomial.polynomial.polypow(np.array([1.0, -2.0]), k)
        basis[row, : len(term)] = term
    with np.errstate(over="ignore"):
        scales = np.maximum(1.0, np.sum(np.abs(basis), axis=1))
    finite = np.isfinite(scales)
    if not finite.all():
        k = powers[int(np.argmin(finite)) - 1]
        raise PolynomialError(f"(1 - 2x)^{k} overflows: its coefficients' magnitudes sum to 3^{k}")
    for row, scale in zip(basis, scales):
        defect = q_symmetry_defect(Polynomial(tuple(row)))
        if defect > Q_SYMMETRY_TOL * scale:
            raise PolynomialError(f"Q(x) + Q(1-x) deviates from constant by {defect:.3e}")
    basis.setflags(write=False)
    return basis


def make_q(spec: QSpec) -> Polynomial:
    """Expand a QSpec into monomial coefficients.

    The expansion weights the rows of the cached ``(1 - 2x)^k`` basis and sums
    them in row order: the constant first, then the powers in turn, so every
    coefficient rounds as in a term-by-term expansion.  The basis rows are
    symmetry-checked, so the result satisfies the symmetry constraint.
    """
    weights = np.array((spec.const, *spec.odd_coeffs), dtype=float)
    out = np.sum(weights[:, None] * _q_basis(spec.powers()), axis=0)
    if not np.all(np.isfinite(out)):
        raise PolynomialError("Q has a non-finite coefficient")
    return Polynomial(tuple(out))


def q_symmetry_defect(q: Polynomial) -> float:
    """Max deviation of Q(x) + Q(1-x) from Q(0) + Q(1) on a grid in [0, 1]."""
    vals = q(_SYMMETRY_GRID) + q(_SYMMETRY_MIRROR)
    return float(np.max(np.abs(vals - (q(0.0) + q(1.0)))))


def make_p1(coeffs: Sequence[float], normalize: bool = False) -> Polynomial:
    """Build P1 from coefficients of powers 1..d (no constant term allowed).

    In verbatim mode the printed coefficients must satisfy |P1(1) - 1| <= 1e-5;
    with ``normalize`` the polynomial is rescaled so P1(1) = 1 exactly.
    """
    p = Polynomial((0.0,) + tuple(coeffs))
    if p.coeffs[0] != 0.0:
        raise PolynomialError("P1 must have zero constant term")
    at_one = p(1.0)
    if normalize:
        if at_one == 0.0:
            raise PolynomialError("cannot normalize P1 with P1(1) = 0")
        return p.scale(1.0 / at_one)
    if abs(at_one - 1.0) > P1_VERBATIM_TOL:
        raise PolynomialError(f"P1(1) = {at_one!r} violates |P1(1) - 1| <= {P1_VERBATIM_TOL}")
    return p


def make_p2(coeffs: Iterable[float]) -> Polynomial:
    """Build P2 from the coefficients of x**3, x**4, ...; lower powers are zero."""
    return Polynomial((0.0, 0.0, 0.0) + tuple(coeffs))
