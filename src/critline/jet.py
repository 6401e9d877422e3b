"""Bivariate truncated Taylor scalars ("jets") in two formal variables (x, y).

A jet with caps (mx, my) stores the Taylor coefficients of x**i * y**j for
i <= mx, j <= my on a dense grid; everything beyond the caps is truncated
exactly.  Mixed partial derivatives at x = y = 0 are read off the grid.  The
verification oracles use this ring for exact derivatives of their kernels; the
moment constants use closed-form Taylor coefficients instead, and the tests
rebuild the jet form of those kernels as a reference.

Coefficients may themselves be numpy arrays (a shared "batch" of quadrature
nodes), so a single jet expression evaluates the integrand at every node at
once.  Jets are immutable values: arithmetic always allocates a new grid.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .poly import Polynomial


class JetError(ValueError):
    pass


class Jet:
    __slots__ = ("mx", "my", "coeffs")

    def __init__(self, mx: int, my: int, coeffs: np.ndarray):
        if coeffs.shape[:2] != (mx + 1, my + 1):
            raise JetError(f"coefficient grid {coeffs.shape} does not match caps ({mx},{my})")
        self.mx = mx
        self.my = my
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, mx: int, my: int) -> "Jet":
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros((mx + 1, my + 1) + value.shape)
        coeffs[0, 0] = value
        return Jet(mx, my, coeffs)

    @staticmethod
    def linear(c0, cx, cy, mx: int, my: int) -> "Jet":
        """The jet c0 + cx*x + cy*y; arguments broadcast to a common batch."""
        c0, cx, cy = np.broadcast_arrays(
            np.asarray(c0, dtype=float), np.asarray(cx, dtype=float), np.asarray(cy, dtype=float)
        )
        coeffs = np.zeros((mx + 1, my + 1) + c0.shape)
        coeffs[0, 0] = c0
        if mx >= 1:
            coeffs[1, 0] = cx
        elif np.any(cx):
            raise JetError("x coefficient outside caps")
        if my >= 1:
            coeffs[0, 1] = cy
        elif np.any(cy):
            raise JetError("y coefficient outside caps")
        return Jet(mx, my, coeffs)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[2:]

    # -- ring operations ---------------------------------------------------

    def _check_caps(self, other: "Jet"):
        if (self.mx, self.my) != (other.mx, other.my):
            raise JetError(
                f"order-cap mismatch: ({self.mx},{self.my}) vs ({other.mx},{other.my})"
            )

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_caps(other)
            return Jet(self.mx, self.my, self.coeffs + other.coeffs)
        out = self.coeffs.copy()
        out[0, 0] = out[0, 0] + np.asarray(other, dtype=float)
        return Jet(self.mx, self.my, out)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Jet):
            # scalar or per-node array factor applied to every coefficient
            return Jet(self.mx, self.my, self.coeffs * np.asarray(other, dtype=float))
        self._check_caps(other)
        a, b = self.coeffs, other.coeffs
        shape = np.broadcast_shapes(a.shape, b.shape)
        out = np.zeros(shape)
        for i in range(self.mx + 1):
            for j in range(self.my + 1):
                for p in range(i + 1):
                    for q in range(j + 1):
                        out[i, j] += a[p, q] * b[i - p, j - q]
        return Jet(self.mx, self.my, out)

    __rmul__ = __mul__

    def exp(self) -> "Jet":
        """exp of the jet: exp(c00) times the finite series on the nilpotent part."""
        nil_coeffs = self.coeffs.copy()
        c00 = nil_coeffs[0, 0].copy()
        nil_coeffs[0, 0] = 0.0
        nil = Jet(self.mx, self.my, nil_coeffs)
        order = self.mx + self.my  # nil**(order+1) == 0 exactly
        acc = Jet.constant(np.ones(self.batch_shape), self.mx, self.my)
        for k in range(order, 0, -1):
            acc = (nil * acc) * (1.0 / k) + 1.0
        return acc * np.exp(c00)

    def mixed_partial(self, i: int, j: int):
        """d^(i+j) / dx^i dy^j at x = y = 0."""
        if i > self.mx or j > self.my:
            raise JetError(f"partial ({i},{j}) beyond caps ({self.mx},{self.my})")
        val = self.coeffs[i, j] * (factorial(i) * factorial(j))
        return float(val) if val.ndim == 0 else val


def jet_eval_poly(p: Polynomial, a: Jet) -> Jet:
    """Horner evaluation of a real polynomial over the jet ring."""
    acc = Jet.constant(np.zeros(a.batch_shape), a.mx, a.my)
    for c in reversed(p.coeffs):
        acc = acc * a + c
    return acc
