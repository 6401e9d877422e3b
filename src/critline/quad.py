"""Gauss-Legendre tensor quadrature on [0,1]^d.

All integrands in this project are entire (polynomials times exponentials), so
fixed-order tensor rules converge geometrically in the order; there is no
adaptive subdivision.  :func:`integrate_converged` climbs the ladder
n = 12, 18, 27, 41, ... (n -> ceil(3n/2), the last rung clamped to ``N_MAX``)
and stops when two successive rungs agree.  The rule cap and the node budget
are its only bounds: it ends before any rung of more than ``NODE_BUDGET``
nodes, so 1-D to 3-D ladders end at n = 256 and 4-D ladders at n = 62.
Integrands must be vectorized: they receive one numpy array per coordinate
and return an array whose last axis is the node axis.  Leading axes, if any,
are independent integrals done in the same pass (a whole Gram block at once);
the result has their shape, and the ladder's delta is the largest relative
change over its entries.

Node evaluation is chunked so high orders in four dimensions stay within
memory.  The chunk size is a constant, not an option, because it fixes the
order of the floating-point reduction and so the last bits of every result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import fsum

import numpy as np

DEFAULT_TOL = 1e-10
N_SEQUENCE_START = 12
N_MAX = 256
# Largest rung, in nodes n**d.  2^24 = 256^3, so every rule order fits in 1-D
# to 3-D; a 4-D ladder that has not converged by n = 62 (62^4 = 1.5e7 nodes)
# fails there instead of climbing to 256^4 = 4.3e9 nodes.
NODE_BUDGET = 1 << 24
# Nodes per integrand call.  Measured on the kappa preset's c2 (n = 16 and 32,
# 2-core x86-64 VM, numpy 2.4): 0.87-0.93 s at 2^19, 0.52-0.58 s at 2^16,
# 0.38-0.44 s at 2^13 and 2^14, 0.44-0.54 s at 2^12, 0.66-0.77 s at 2^11.
# Small chunks pay per-call overhead; large ones push the kernel's temporaries
# out of cache.
_CHUNK = 1 << 14


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


def _accumulate(parts: list[np.ndarray]):
    """Sum the per-chunk partials entry by entry with ``fsum``; a float for a
    scalar integrand, an array of the leading shape otherwise.  One chunk's
    partial skips ``fsum``: the ``fsum`` of one term is that term plus 0.0,
    which changes only a -0.0 (to 0.0)."""
    if len(parts) == 1:
        total = parts[0] + 0.0
    else:
        stacked = np.stack(parts)
        columns = stacked.reshape(len(parts), -1).T
        total = np.array([fsum(col) for col in columns]).reshape(stacked.shape[1:])
    return float(total) if total.ndim == 0 else total


def integrate_cube(f, d: int, rule: QuadratureRule):
    """Tensor-product quadrature of ``f(x1, ..., xd)`` over [0, 1]^d."""
    if not 1 <= d <= 4:
        raise ValueError(f"dimension {d} outside [1, 4]")
    n = rule.nodes.size
    total_nodes = n**d
    parts = []
    # coordinates are materialized per chunk so high orders in 4-D stay in memory
    for start in range(0, total_nodes, _CHUNK):
        stop = min(start + _CHUNK, total_nodes)
        multi = np.unravel_index(np.arange(start, stop), (n,) * d)
        coords = [rule.nodes[m] for m in multi]
        weights = np.prod(np.stack([rule.weights[m] for m in multi]), axis=0)
        values = f(*coords)
        parts.append(np.sum(values * weights, axis=-1))
    return _accumulate(parts)


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


def integrate_converged(f, d: int, tol: float = DEFAULT_TOL, n_start: int = N_SEQUENCE_START):
    """Integrate ``f`` over [0, 1]^d on the rungs of :func:`ladder`, n = 12,
    18, 27, ..., until the relative change between two successive rungs drops
    below ``tol``.

    Returns ``(value, trace)`` where the trace lists ``(n, delta)`` pairs
    (delta is None for the first order).  Raises :class:`QuadratureError` with
    the trace at the first order whose value is not finite (more nodes cannot
    repair a NaN or an overflow), and when the ladder ends unconverged.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    trace = []
    prev = None
    for n in ladder(d, n_start):
        value = integrate_cube(f, d, gauss_rule(n))
        delta = None if prev is None else _rel_diff(value, prev)
        trace.append((n, delta))
        if not np.all(np.isfinite(value)):
            raise QuadratureError(f"non-finite integral at n = {n}: trace {trace}", trace)
        if delta is not None and delta < tol:
            return value, trace
        prev = value
    raise QuadratureError(
        f"{d}-D quadrature did not converge to {tol:g} by its last rung: trace {trace}",
        trace,
    )
