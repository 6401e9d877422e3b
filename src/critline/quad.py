"""Gauss-Legendre tensor quadrature on [0,1]^d.

All integrands in this project are entire (polynomials times exponentials), so
fixed-order tensor rules converge geometrically in the order; there is no
adaptive subdivision.  :func:`integrate_converged` climbs the ladder
n = 12, 18, 27, 41, ... (n -> ceil(3n/2), the last rung clamped to ``N_MAX``)
and stops when two successive rungs agree.  The rule cap and the node budget
are its only bounds: it ends before any rung of more than ``NODE_BUDGET``
nodes, so 1-D to 3-D ladders end at n = 256 and 4-D ladders at n = 62.
Integrands must be vectorized: coordinate k arrives on its own axis of d
(shape 1 x ... x n x ... x 1), and the integrand returns its member axes, if
any, then the d node axes (length 1 where it does not depend on one).  Members
are independent integrals done in one pass (a whole Gram block); the result
has their shape, and the ladder's delta is the largest relative change over
its entries.  An integrand symmetric in its last two coordinates can take
them on one shared axis of the node pairs i <= j of a pair rule of order m
(``pair``): that rule's tensor rule summed over a triangle of the plane,
n^(d-2) * m (m + 1) / 2 nodes instead of n^(d-2) * m^2.  With ``symmetric``
the ladder rules that plane one rung behind the other axes, m = ceil(2n/3):
c2's 4-D rungs at n = 12 and 18 take m = 8 and 12, 5,184 and 25,272 nodes
(the n^4 square took 20,736 and 104,976), and the search's first rung,
n = 8, takes m = 6.  The rule is contracted an axis at a time, last to
first, with plain numpy sums (no BLAS, so the thread count cannot change a
bit); the first axis is cut into slabs of whole rows of at most ``_CHUNK``
values to bound memory, and contracted once after the last slab, so the
slab size does not set the order of the reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-10
N_SEQUENCE_START = 12
N_MAX = 256
# Largest rung, in nodes n**d.  2^24 = 256^3, so every rule order fits in 1-D
# to 3-D; a 4-D ladder that has not converged by n = 62 (62^4 = 1.5e7 nodes)
# fails there instead of climbing to 256^4 = 4.3e9 nodes.
NODE_BUDGET = 1 << 24
# Values per integrand call (nodes times the values f returns per node), in
# whole rows of the first axis (at least one).  The kappa preset's evaluate and
# a d1 = d2 = 5 Gram build at its (Q, R), each cold in a fresh process, took
# (medians of 5, 2-core x86-64 VM, numpy 2.4; peak RSS in brackets): 36 and 54
# ms (31 and 33 MB) at 2^11, 34 and 54 (31, 34) at 2^12, 25 and 49 (33, 34) at
# 2^13, 23 and 51 (36, 34) at 2^14, 29 and 30 (41, 35) at 2^15, 33 and 31 (51,
# 42) at 2^16.  The benchmark's evaluate workload read the same wall time at
# 2^13 and 2^14, and 37.2 against 40.5 MB peak RSS.
_CHUNK = 1 << 13


class QuadratureError(RuntimeError):
    """Raised when the order ladder fails to converge; carries the trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=32)
def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule mapped affinely to [0, 1]."""
    if not 1 <= n <= N_MAX:
        raise ValueError(f"rule order {n} outside [1, {N_MAX}]")
    x, w = np.polynomial.legendre.leggauss(n)
    rule = QuadratureRule(nodes=(x + 1.0) / 2.0, weights=w / 2.0)
    rule.nodes.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


def integrate_cube(f, d: int, rule: QuadratureRule, pair: QuadratureRule | None = None,
                   members: int = 1):
    """Tensor-product quadrature of ``f(x1, ..., xd)`` over [0, 1]^d.

    With a ``pair`` rule, f must be symmetric in its last two coordinates:
    they share one node axis of the pair rule's node pairs i <= j, weighted
    2 w_i w_j off the diagonal and w_i^2 on it, which is the pair rule's
    tensor rule summed over a triangle of its plane (m (m + 1) / 2 nodes
    instead of m^2 for a rule of order m); ``rule`` rules the other axes.
    ``None`` is the square: ``rule`` on every axis.  ``members`` is the
    number of values f returns per node; slabs hold at most ``_CHUNK``
    values."""
    if not 1 <= d <= 4:
        raise ValueError(f"dimension {d} outside [1, 4]")
    if pair is not None and d < 2:
        raise ValueError("a pair rule needs two coordinates")
    x, w = rule.nodes, rule.weights
    points, weights, axis_of = [x] * d, [w] * d, list(range(d))
    if pair is not None:
        # the last two coordinates share one axis, which has one weight
        x, w = pair.nodes, pair.weights
        i, j = np.triu_indices(x.size)
        points[-2:] = x[i], x[j]
        axis_of[-1] = d - 2
        weights[-2:] = [np.where(i == j, 1.0, 2.0) * (w[i] * w[j])]
    axes = len(weights)
    coords = [p.reshape((1,) * k + (-1,) + (1,) * (axes - 1 - k)) for p, k in zip(points, axis_of)]
    n0, row_nodes = weights[0].size, math.prod(wk.size for wk in weights[1:])
    rows = max(1, _CHUNK // (members * row_nodes))
    parts = []
    for start in range(0, n0, rows):
        # ``values`` stays bound through the next slab's call, so the heap above
        # it is not trimmed and that call reuses this one's pages (the kappa
        # preset's c2 at n = 18: 1.3k minor faults instead of 8.7k)
        values = f(*(c[start:start + rows] if k == 0 else c for c, k in zip(coords, axis_of)))
        part = values
        # contract the node axes last to second, leaving one partial per row
        for wk in weights[:0:-1]:
            part = np.sum(part * wk, axis=-1)
        parts.append(np.broadcast_to(part, np.shape(part)[:-1] + (min(rows, n0 - start),)))
    total = np.sum(np.concatenate(parts, axis=-1) * weights[0], axis=-1)
    return float(total) if total.ndim == 0 else total


def _rel_diff(new, old) -> float:
    """The largest entry of |new - old| / max(|new|, |old|, 1)."""
    scale = np.maximum(np.maximum(np.abs(new), np.abs(old)), 1.0)
    return float(np.max(np.abs(new - old) / scale))


def ladder(d: int, n_start: int = N_SEQUENCE_START):
    """The orders n_start, ceil(3 n_start / 2), ..., the last clamped to
    ``N_MAX``, up to the last whose d-D rule has at most ``NODE_BUDGET`` nodes."""
    n = n_start
    while n <= N_MAX and n**d <= NODE_BUDGET:
        yield n
        if n == N_MAX:
            return
        n = min(-(-3 * n // 2), N_MAX)


def integrate_converged(f, d: int, tol: float = DEFAULT_TOL, n_start: int = N_SEQUENCE_START,
                        symmetric: bool = False):
    """Integrate ``f`` over [0, 1]^d on the rungs of :func:`ladder`, n = 12,
    18, 27, ..., until the change between two successive rungs, scaled by
    max(|value|, 1) (:func:`_rel_diff`), drops below ``tol``: a relative
    bound where |value| >= 1 and an absolute one below, as for c12's and
    c2's integrals (4e-4 to 3e-3 at the presets).  With ``symmetric`` (f symmetric in its last two
    coordinates), each rung of order n takes those two on one pair axis of
    the rule of order ceil(2n/3), the previous rung's order up to n = 27, and
    n on the others; the delta between two rungs still measures the change
    on every axis.

    Returns ``(value, trace)`` where the trace lists ``(n, delta)`` pairs
    (delta is None for the first order); n is the order on the axes outside
    the pair.  Raises :class:`QuadratureError` with the trace at the first
    order whose value is not finite (more nodes cannot repair a NaN or an
    overflow; that order is listed with delta None), and when the ladder
    ends unconverged.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    trace = []
    prev = None
    for n in ladder(d, n_start):
        # the first rung is sized as if f were scalar; its result tells the
        # later rungs how many values f returns per node
        members = 1 if prev is None else np.size(prev)
        pair = gauss_rule(-(-2 * n // 3)) if symmetric else None
        value = integrate_cube(f, d, gauss_rule(n), pair=pair, members=members)
        if not np.all(np.isfinite(value)):
            trace.append((n, None))
            raise QuadratureError(f"non-finite integral at n = {n}: trace {trace}", trace)
        delta = None if prev is None else _rel_diff(value, prev)
        trace.append((n, delta))
        if delta is not None and delta < tol:
            return value, trace
        prev = value
    raise QuadratureError(
        f"{d}-D quadrature did not converge to {tol:g} by its last rung: trace {trace}",
        trace,
    )
