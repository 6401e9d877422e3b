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
from typing import Iterable, Sequence

import numpy as np

Q0_VERBATIM_TOL = 5e-3
P1_VERBATIM_TOL = 1e-5
Q_SYMMETRY_TOL = 1e-12


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
            acc = np.full(np.shape(x), lead, dtype=np.result_type(x, float))
        else:
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


@dataclass(frozen=True)
class P2Spec:
    """P2 coefficients for powers >= 3 only; lower powers are structurally zero."""

    coeffs: tuple[float, ...] = ()


def make_q(spec: QSpec) -> Polynomial:
    """Expand a QSpec into monomial coefficients.

    The result automatically satisfies the symmetry constraint; the defect is
    re-checked to guard against future basis changes.
    """
    out = np.zeros(max(spec.powers(), default=0) + 1)
    out[0] = spec.const
    base = np.array([1.0, -2.0])  # 1 - 2x
    for c, k in zip(spec.odd_coeffs, spec.powers()):
        term = np.polynomial.polynomial.polypow(base, k)
        out[: len(term)] += c * term
    if not np.all(np.isfinite(out)):
        raise PolynomialError("Q has a non-finite coefficient")
    q = Polynomial(tuple(out))
    defect = q_symmetry_defect(q)
    if defect > Q_SYMMETRY_TOL:
        raise PolynomialError(f"Q(x) + Q(1-x) deviates from constant by {defect:.3e}")
    return q


def q_symmetry_defect(q: Polynomial) -> float:
    """Max deviation of Q(x) + Q(1-x) from Q(0) + Q(1) on a grid in [0, 1]."""
    xs = np.linspace(0.0, 1.0, 21)
    vals = q(xs) + q(1.0 - xs)
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


def make_p2(spec: P2Spec | Iterable[float]) -> Polynomial:
    """Build P2 with structurally zero coefficients below x**3."""
    coeffs = tuple(spec.coeffs) if isinstance(spec, P2Spec) else tuple(spec)
    if not coeffs:
        return Polynomial((0.0,))
    return Polynomial((0.0, 0.0, 0.0) + tuple(coeffs))
