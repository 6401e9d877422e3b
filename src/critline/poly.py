"""Real polynomials and the three constrained smoothing-polynomial families.

Coefficients are stored in ascending powers: ``coeffs[k]`` multiplies ``x**k``
(``y**k`` for Q).
The three families are:

* ``Q``: a constant plus odd powers of ``y = 1 - 2x``, held as a polynomial in
  y (:class:`InY`), which makes ``Q(x) + Q(1-x)`` constant by construction.
* ``P1``: no constant term, and ``|P1(1) - 1| <= 1e-5``, else :class:`ConfigError`.
* ``P2``: vanishing to third order at 0, i.e. coefficients start at ``x**3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

P1_VERBATIM_TOL = 1e-5


class ConfigError(ValueError):
    """An invalid parameter point (also ``moments.ConfigError``)."""


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
class InY:
    """Q(x) = p(1 - 2x) for a :class:`Polynomial` p in y = 1 - 2x; ``coeffs``
    are p's.  It has what a config reads of Q: evaluation, ``coeffs``,
    ``degree`` and ``scale``; the kernels take p's coefficients as rows."""

    p: Polynomial

    @property
    def coeffs(self):
        return self.p.coeffs

    @property
    def degree(self) -> int:
        return self.p.degree

    def __call__(self, x):
        return self.p(1.0 - 2.0 * x)

    def scale(self, factor: float) -> "InY":
        return InY(self.p.scale(factor))


def make_q(const: float, odd_coeffs: Sequence[float]) -> InY:
    """Q in y = 1 - 2x: ``const`` at y^0 and ``odd_coeffs`` at y, y^3, ...,
    so Q(x) + Q(1-x) = 2 const."""
    coeffs = np.zeros(2 * len(odd_coeffs) + 1)
    coeffs[0] = const
    coeffs[1::2] = odd_coeffs
    return InY(Polynomial(tuple(coeffs)))


def make_p1(coeffs: Sequence[float]) -> Polynomial:
    """P1 from the coefficients of x, x^2, ...; raises :class:`ConfigError`
    unless |P1(1) - 1| <= ``P1_VERBATIM_TOL``."""
    p = Polynomial((0.0, *coeffs))
    at_one = p(1.0)
    if abs(at_one - 1.0) > P1_VERBATIM_TOL:
        raise ConfigError(f"P1(1) = {at_one!r} violates |P1(1) - 1| <= {P1_VERBATIM_TOL}")
    return p


def make_p2(coeffs: Iterable[float]) -> Polynomial:
    """Build P2 from the coefficients of x**3, x**4, ...; lower powers are zero."""
    return Polynomial((0.0, 0.0, 0.0) + tuple(coeffs))
