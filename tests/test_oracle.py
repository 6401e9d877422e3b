"""Unit checks of the verification oracles themselves."""

import ast
import dataclasses
import inspect
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critline import moments, oracle
from critline.jet import Jet
from critline.oracle import (
    OracleError,
    check_divisor_sum,
    check_euler_maclaurin,
    check_f_residues,
    check_k1,
    check_k2,
    check_l1,
    check_logsave,
    check_mellin_pair,
    check_mobius_identities,
    check_q_operator,
    contour_circle,
)
from critline.poly import Polynomial, make_p1, make_p2, make_q
from critline.presets import kappa_preset, kappa_star_preset


# -- arithmetic tables -------------------------------------------------------


def test_mobius_small_values():
    mu = oracle._sieve_mu(30)
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 10: 1, 12: 0, 30: -1}
    for n, value in expected.items():
        assert mu[n] == value


def test_mu2_is_mobius_convolved_with_itself():
    mu = oracle._sieve_mu(30)
    mu2 = oracle._dirichlet(mu, mu)
    # mu * mu at 2: mu(1)mu(2) + mu(2)mu(1) = -2; at 4: mu(2)^2 = 1; at 6: 4
    assert mu2[1] == 1
    assert mu2[2] == -2
    assert mu2[4] == 1
    assert mu2[6] == 4
    assert mu2[8] == 0


def test_divisor_functions():
    dk = oracle.divisor_counts
    assert dk(1, 100)[10] == 1
    assert dk(2, 100)[12] == 6  # divisors of 12
    assert dk(3, 100)[4] == 6  # ordered triples with product 4
    assert dk(3, 100)[7] == 3
    with pytest.raises(OracleError):
        dk(6, 100)


def test_divisor_counts_are_shared_and_read_only(monkeypatch):
    # one cached array per (k, N), which no reader can change: two checks at
    # the same (k, N) read the same object
    table = oracle.divisor_counts(2, 1000)
    with pytest.raises(ValueError):
        table[1] = 0
    cached, read = oracle.divisor_counts, []

    def recording(k, N):
        read.append(cached(k, N))
        return read[-1]

    monkeypatch.setattr(oracle, "divisor_counts", recording)
    one = Polynomial((1.0,))
    assert check_divisor_sum(k=2, F=one, H=one, x=1e3, s=0.0).passed
    assert check_logsave(2, 0.0, 1e3).passed
    assert len(read) == 2 and read[0] is table and read[1] is table


def _dirichlet_double_loop(a, b):
    """out[m] = sum of a[d] b[e] over de = m, one pair at a time."""
    N = len(a) - 1
    out = [0] * (N + 1)
    for d in range(1, N + 1):
        for e in range(1, N // d + 1):
            out[d * e] += int(a[d]) * int(b[e])
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 15, 16, 17, 99, 100, 101, 1000])
def test_dirichlet_matches_the_double_loop(N):
    # squares and their neighbours, where the isqrt(N) split moves; index 0
    # is filled too, and must not reach the result
    rng = np.random.default_rng(N)
    a = rng.integers(-1000, 1001, size=N + 1)
    b = rng.integers(-1000, 1001, size=N + 1)
    got = oracle._dirichlet(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == _dirichlet_double_loop(a, b)


class _CountingArray(np.ndarray):
    """An array that counts how often it is indexed."""

    reads = 0

    def __getitem__(self, key):
        _CountingArray.reads += 1
        return super().__getitem__(key)


def test_dirichlet_runs_about_two_square_roots_of_steps():
    # each loop step reads the left factor once, so its reads count the steps
    N = 10**5
    a = np.ones(N + 1, dtype=np.int64).view(_CountingArray)
    _CountingArray.reads = 0
    oracle._dirichlet(a, np.ones(N + 1, dtype=np.int64))
    assert 0 < _CountingArray.reads <= 2 * math.isqrt(N) + 2, _CountingArray.reads


def _factorize(n):
    """The prime exponents of n by trial division."""
    exponents = []
    p = 2
    while p * p <= n:
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        if a:
            exponents.append(a)
        p += 1
    if n > 1:
        exponents.append(1)
    return exponents


def test_tables_match_direct_counting():
    # both are multiplicative: mu * mu is 1, -2, 1, 0, 0, ... at p^0, p^1,
    # p^2, ... (the coefficients of (1 - x)^2), and d_k(p^a) counts the
    # ordered ways to split a among k factors, C(a + k - 1, k - 1)
    N = 2000
    mu = oracle._sieve_mu(N)
    mu2 = oracle._dirichlet(mu, mu)
    dk = {k: oracle.divisor_counts(k, N) for k in range(1, 6)}
    mu2_at_prime_power = (1, -2, 1)
    for n in range(1, N + 1):
        exponents = _factorize(n)
        assert mu2[n] == math.prod(mu2_at_prime_power[a] if a < 3 else 0 for a in exponents), n
        for k in range(1, 6):
            assert dk[k][n] == math.prod(math.comb(a + k - 1, k - 1) for a in exponents), (n, k)


def _sieve_mu_every_p(N):
    """The Mobius sieve ``_sieve_mu`` ran before it sieved with the primes
    up to isqrt(N) alone: every p in 2..N, composites skipped."""
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


@pytest.mark.parametrize("N", [1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 10**4, 10**5])
def test_sieve_mu_matches_the_every_p_loop(N):
    # squares and their neighbours, where isqrt(N) moves, and the sizes the
    # mobius suite uses
    got = oracle._sieve_mu(N)
    assert got.dtype == np.int64
    assert np.array_equal(got, _sieve_mu_every_p(N))


def test_tables_bounds():
    for N in (0, 2_000_000):
        with pytest.raises(OracleError, match=r"N must be in \[1, 10\^6\]"):
            oracle.divisor_counts(1, N)
        with pytest.raises(OracleError, match=r"N must be in \[1, 10\^6\]"):
            check_mobius_identities(N)


# -- contour integration -----------------------------------------------------


def _term(f, center, radius):
    """f on the circle |z - center| = radius as the term ``contour_circle``
    takes: the unit node w goes to f(center + radius*w) * radius*w."""
    with mpmath.workdps(oracle.CONTOUR_DPS):
        center, radius = mpmath.mpmathify(center), mpmath.mpmathify(radius)
    return lambda w: f(center + radius * w) * radius * w


def _circle(f, center, radius):
    """``contour_circle`` of f(z) on the circle |z - center| = radius."""
    return contour_circle(_term(f, center, radius))


def test_contour_residue_of_simple_pole():
    value = _circle(lambda z: 1.0 / z, 0.0, 1.0).value
    assert abs(value - 1.0) < 1e-13


def test_contour_residue_of_double_pole():
    # e^z / z^2 has residue 1 at the origin
    value = _circle(lambda z: mpmath.exp(z) / z**2, 0.0, 0.5).value
    assert abs(value - 1.0) < 1e-13


def test_contour_no_enclosed_pole():
    value = _circle(lambda z: 1.0 / (z - 2.0), 0.0, 1.0).value
    assert abs(value) < 1e-13


def _contour_circle_per_point(term, n):
    """The plain n-point trapezoid rule with every node computed by its own
    exp: the form the shared roots of unity and the ladder replaced."""
    with mpmath.workdps(oracle.CONTOUR_DPS):
        total = mpmath.mpc(0)
        for k in range(n):
            total += term(mpmath.exp(2j * mpmath.pi * k / n))
        return total / n


def _composed(term, exponent=0, pole=0):
    """The whole term ``contour_circle(term, exponent=..., pole=...)`` sums,
    e^(exponent w) conj(w)^pole term(w), each factor computed at the point."""

    def full(w):
        with mpmath.workdps(oracle.CONTOUR_DPS):
            return mpmath.exp(exponent * w) * w.conjugate() ** pole * term(w)

    return full


def test_shared_contour_nodes_change_no_value():
    def f(z):
        return mpmath.exp(3.0 * z) / ((z + 0.2) * z**3)

    # the folded sum is the plain rule in another order: the same real part
    # to far below a double's rounding, and an imaginary part that is 0
    # exactly, where the plain sum keeps a 40-digit rounding residue
    rungs = set()
    for circle_at in ((0.0, 0.3), (-0.2, 0.1), (0.1, 0.45), (0.0, 1.5)):
        term = _term(f, *circle_at)
        circle = contour_circle(term)
        expected = complex(_contour_circle_per_point(term, circle.points))
        assert abs(circle.value.real - expected.real) <= 1e-30 * abs(expected), circle_at
        assert circle.value.imag == 0.0
        assert contour_circle(term) == circle
        rungs.add(circle.points)
    # the value is the plain rule at a rung above the first one too
    assert len(rungs) > 1, rungs


def test_parameters_converted_once_change_no_value():
    # float -> mpf is exact, so converting per circle instead of per point
    # gives the same bits
    alpha, beta, logq = 0.037, -0.081, 13.7
    a, b, lq = map(mpmath.mpf, (alpha, beta, logq))
    per_point = _circle(
        lambda s: mpmath.exp(logq * s) * (alpha + s) * (-beta + s) / s**4, 0.0, 0.3
    ).value
    per_circle = _circle(
        lambda s: mpmath.exp(lq * s) * (a + s) * (-b + s) / s**4, 0.0, 0.3
    ).value
    assert per_circle == per_point


def test_contour_node_cache_is_bounded():
    for radius in (0.5, 1.0, 2.0):
        _circle(lambda z: 1.0 / z, 0.0, radius)
    info = oracle._roots_of_unity.cache_info()
    assert info.currsize == info.maxsize == 1
    assert len(oracle._roots_of_unity()) == oracle.CONTOUR_POINTS // 2 + 1


def test_contour_extended_precision_path():
    value = _circle(lambda z: 1.0 / z, 0.0, 1.0).value
    assert abs(value - 1.0) < 1e-14


@pytest.mark.parametrize("radius", [0.5, 4.0, 12.0, 20.0])
@pytest.mark.parametrize(
    "f", [lambda z: mpmath.exp(z) / z**2, lambda z: 1.0 / z], ids=["exp(z)/z^2", "1/z"]
)
def test_contour_certificate_bounds_the_true_error(f, radius):
    # both residues are 1; the returned double adds at most one rounding of
    # the 40-digit value, which the certificate does not cover
    circle = _circle(f, 0.0, radius)
    assert math.isfinite(circle.certificate)
    assert abs(circle.value - 1.0) <= circle.certificate + 2.0**-52


def test_contour_ladder_climbs_until_certified():
    # e^z / z^2 on |z| = 20, whose point values e^z / z peak at e^20 / 20, so
    # the floor is the absolute CONTOUR_FLOOR: T_64 aliases e's Taylor tail
    # at 2.2e-8, far above it, and T_128 is exact to the 40-digit rounding
    # (7.8e-35), so the ladder stops at 256, where |T_256 - T_128| is T_128's
    # error
    def f(z):
        return mpmath.exp(z) / z**2

    circle = _circle(f, 0.0, 20.0)
    assert circle.points == 256
    assert circle.certificate <= 1e-30
    short = _circle(f, 0.0, 0.5)
    assert short.points == oracle.CONTOUR_START_POINTS


def test_contour_pole_near_the_circle_is_uncertified():
    # a pole at 0.99 of the radius: the trapezoid error falls only like
    # 0.99^n, so no rung up to 512 meets the floor
    circle = _circle(lambda z: 1.0 / (z - 0.99), 0.0, 1.0)
    assert circle.points == oracle.CONTOUR_POINTS
    assert circle.certificate == math.inf


# each circle check by the kind its result is named after
_CIRCLE_CHECKS = {"K1": check_k1, "K2": check_k2, "L1": check_l1,
                  "F_residues": check_f_residues, "q_operator": check_q_operator}


@pytest.mark.parametrize(
    "kind, params",
    [("K1", dict(i=2, alpha=0.0, beta=0.0, logq=10.0)),
     ("F_residues", dict(j=1, k=2, s=0.5, logx=5.0)),
     ("q_operator", dict(Q=make_q(0.492, (0.604, -0.08, -0.06, 0.046)),
                         X=(1e8) ** (4.0 / 7.0), T=1e8))],
)
def test_uncertified_circle_fails_its_check(monkeypatch, kind, params):
    ladder = oracle.contour_circle

    def with_near_pole(term, **factors):
        # 1 / (z - pole) with the pole at center + 0.99 radius, as a term of
        # w, times the circle's own exponential and pole factors
        return ladder(lambda w: term(w) + w / (w - 0.99), **factors)

    monkeypatch.setattr(oracle, "contour_circle", with_near_pole)
    result = _CIRCLE_CHECKS[kind](**params)
    assert result.error == math.inf
    assert not result.passed
    assert result.params["trapezoid_certificate"] == math.inf


def test_contour_suite_point_budget():
    # the work the suite does, counted from the checks' own params: the
    # ladder stops at 64, 128 or 256 points on these circles (5376 in total;
    # each F circle, of radius 0.3 |s|, stops at 64 or 128), and every
    # certificate alone proves its check's threshold
    results = oracle._contour_suite()
    assert len(results) == 44 and all(r.passed for r in results)
    total = sum(r.params["trapezoid_points"] for r in results)
    assert total <= 5376, total
    assert all(r.params["trapezoid_certificate"] <= r.threshold for r in results)


@pytest.mark.parametrize("suite, circles, term_budget", [("contour", 55, 2743), ("qop", 5, 165)])
def test_folded_ladder_on_every_suite_circle(monkeypatch, suite, circles, term_budget):
    # every circle the suite draws, through the module global the checks and
    # perfbench's spans look up: its term is conjugate-symmetric, the folded
    # value is the plain rule at the rung where the ladder stopped, and the
    # fold evaluates n/2 + 1 terms for an n-point rule
    ladder = oracle.contour_circle
    recorded, calls = [], [0]

    def recording(term, **factors):
        def counted(w):
            calls[0] += 1
            return term(w)

        circle = ladder(counted, **factors)
        recorded.append((_composed(term, **factors), circle))
        return circle

    monkeypatch.setattr(oracle, "contour_circle", recording)
    assert all(r.passed for r in oracle.run_suite(suite))
    assert len(recorded) == circles
    assert calls[0] <= term_budget, calls[0]
    nodes = oracle._roots_of_unity()
    for k, (term, circle) in enumerate(recorded):
        with mpmath.workdps(oracle.CONTOUR_DPS):
            for w in (nodes[1], nodes[37], nodes[128], nodes[255]):
                assert term(w.conjugate()) == term(w).conjugate(), (k, w)
            expected = complex(_contour_circle_per_point(term, circle.points))
        assert abs(circle.value.real - expected.real) <= 1e-30 * abs(expected), k
        assert circle.value.imag == 0.0


@settings(max_examples=30, deadline=None)
@given(
    exponent=st.floats(min_value=-12.0, max_value=12.0),
    pole=st.integers(min_value=0, max_value=5),
    zeros=st.lists(st.floats(min_value=-2.0, max_value=2.0), max_size=2),
    poles=st.lists(st.floats(min_value=-0.6, max_value=0.6), max_size=2),
    pair=st.tuples(st.floats(min_value=-0.5, max_value=0.5),
                   st.floats(min_value=0.05, max_value=0.5)),
)
def test_exponent_and_pole_factors_match_the_per_point_rule(exponent, pole, zeros, poles, pair):
    # g is rational with real coefficients: real zeros, real poles and a
    # conjugate pair of poles, all inside the unit circle.  The mirrored
    # exponentials and the table's powers of conj(w) give the rule that
    # computes e^(L w) and conj(w)^m at every point, to far below a double
    with mpmath.workdps(oracle.CONTOUR_DPS):
        zeros, poles = [mpmath.mpf(z) for z in zeros], [mpmath.mpf(p) for p in poles]
        re, im = map(mpmath.mpf, pair)

    def g(w):
        value = 1 / ((w - re) ** 2 + im**2)
        for z in zeros:
            value *= w - z
        for p in poles:
            value /= w - p
        return value

    circle = contour_circle(g, exponent=exponent, pole=pole)
    expected = complex(_contour_circle_per_point(_composed(g, exponent, pole), circle.points))
    assert abs(circle.value.real - expected.real) <= 1e-30 * max(abs(expected), 1.0)
    assert circle.value.imag == 0.0


def test_contour_suite_exponential_budget(monkeypatch):
    # exp is taken at the nodes k <= n/4 of each circle, the mirrored nodes
    # take a reciprocal, and circles with one rate share their nodes' values:
    # one complex exp per term took 2,359 calls
    oracle._roots_of_unity()
    oracle._node_exponential.cache_clear()
    exp, calls = mpmath.exp, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return exp(*args, **kwargs)

    monkeypatch.setattr(mpmath, "exp", counted)
    assert all(r.passed for r in oracle._contour_suite())
    assert calls[0] <= 1450, calls[0]


def _f_of_z(kind, params):
    """The integrand of each kind's circles as a function of z: the form the
    oracle's unit-node terms replaced (both F circles share one)."""
    alpha, beta = params.get("alpha", 0.0), params.get("beta", 0.0)
    if kind == "K1":
        i, lq = params["i"], params["logq"]
        return lambda s: mpmath.exp(lq * s) * (alpha + s) * (-beta + s) / s ** (i + 1)
    if kind == "K2":
        j, lq = params["j"], params["logq"]
        return lambda u: mpmath.exp(lq * u) / ((alpha + u) * (-beta + u) * u ** (j - 1))
    if kind == "L1":
        i, lq = params["i"], params["logq"]
        return lambda s: mpmath.exp(lq * s) * (beta + s) ** 2 / ((alpha + s) * s ** (i - 1))
    if kind == "F_residues":
        j, k, s, logx = params["j"], params["k"], params["s"], params["logx"]
        return lambda u: mpmath.exp(logx * u) / ((u + s) ** (j + 1) * u ** (k + 1))
    lx = math.log(params["X"])
    with mpmath.workdps(oracle.CONTOUR_DPS):
        step = -1 / mpmath.mpf(math.log(params["T"]))
        q = oracle.q_monomials(params["Q"], mpmath.mpf)
        weights = [q_k * math.factorial(k) * step**k for k, q_k in enumerate(q)]

    def q_operator(z):
        series = 0
        for weight in reversed(weights):
            series = (series + weight) / z
        return mpmath.exp(-lx * (alpha + z)) * series

    return q_operator


def _circles_of(kind, params):
    """The (center, radius) of each kind's circles, in the order drawn."""
    if kind == "K1":
        return [(0.0, 0.3)]
    if kind == "F_residues":
        s = params["s"]
        return [(0.0, 0.3 * abs(s)), (-s, 0.3 * abs(s))]
    return [(0.0, 0.25)]


@pytest.mark.parametrize(
    "kind, params",
    [("K1", dict(i=1, alpha=0.07, beta=-0.03, logq=12.0)),
     ("K1", dict(i=4, alpha=-0.02, beta=0.09, logq=22.0)),
     ("K2", dict(j=4, alpha=0.03, beta=0.02, logq=20.0)),
     ("L1", dict(i=5, alpha=0.05, beta=-0.04, logq=15.0)),
     ("F_residues", dict(j=2, k=0, s=0.5, logx=5.0)),
     ("F_residues", dict(j=1, k=3, s=-1.3, logx=7.5)),
     ("q_operator", dict(Q=make_q(0.492, (0.604, -0.08, -0.06, 0.046)),
                         X=(1e8) ** (4.0 / 7.0), T=1e8, alpha=-0.1 / math.log(1e8))),
     # the circle about -s stops at 64 points with the larger certificate
     ("F_residues", dict(j=0, k=0, s=-1.485176807447335, logx=7.083795208745406))],
)
def test_unit_node_terms_match_the_f_of_z_form(monkeypatch, kind, params):
    # each circle's term against f(center + radius w) radius w through the
    # same ladder: the same rung, and the same 40-digit sum there to 1e-30.
    # The result counts every circle's points and keeps the largest
    # certificate
    ladder = oracle.contour_circle
    circles, values = [], []

    def recording(term, **factors):
        circles.append((term, factors))
        values.append(ladder(term, **factors))
        return values[-1]

    monkeypatch.setattr(oracle, "contour_circle", recording)
    result = _CIRCLE_CHECKS[kind](**params)
    assert result.passed
    assert result.params["trapezoid_points"] == sum(value.points for value in values)
    assert result.params["trapezoid_certificate"] == max(value.certificate for value in values)
    f = _f_of_z(kind, params)
    circles_at = _circles_of(kind, params)
    assert len(circles) == len(circles_at)
    for (term, factors), circle_at in zip(circles, circles_at):
        reference = _term(f, *circle_at)
        got, want = ladder(term, **factors), ladder(reference)
        assert got.points == want.points
        with mpmath.workdps(oracle.CONTOUR_DPS):
            a = _contour_circle_per_point(_composed(term, **factors), got.points)
            b = _contour_circle_per_point(reference, got.points)
            assert abs(a - b) <= 1e-30 * abs(b), (circle_at, a, b)


def test_oracle_does_not_import_quad():
    # the oracles must not share code paths with the quadrature they check,
    # and they take their derivatives by closed forms and Cauchy integrals,
    # not through the jet ring
    tree = ast.parse(inspect.getsource(oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    for module in ("quad", "jet"):
        assert not any(name.split(".")[-1] == module for name in imported), imported
        assert module not in vars(oracle)
    assert "Jet" not in vars(oracle)


def test_oracle_evaluates_q_only_through_its_own_expansion(monkeypatch):
    # the finite differences and the Q operator read Q's coefficients in y
    # and expand them to monomials themselves: every method of the config's
    # Q class and of the families the kernels evaluate Q through fails
    # here, and the checks still pass
    from critline.moments import Family
    from critline.poly import InY

    cfg = moments.renormalized_q(kappa_preset())
    report = moments.evaluate(cfg)
    c12, c2 = report.c12, report.c2

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called InY or Family")

    for name in ("__call__", "scale"):
        monkeypatch.setattr(InY, name, refuse)
    monkeypatch.setattr(InY, "degree", property(refuse))
    for name in ("__call__", "derivative", "scale"):
        monkeypatch.setattr(Family, name, refuse)
    monkeypatch.setattr(Family, "degree", property(refuse))
    assert all(result.passed for result in oracle.run_suite("qop"))
    assert abs(oracle.fd_c12(cfg) - c12) <= oracle.JET_OPERATOR_TOL * abs(c12)
    assert abs(oracle.fd_c2(cfg) - c2) <= oracle.JET_OPERATOR_TOL * abs(c2)


def test_fd_oracle_evaluates_p1_and_p2_only_through_its_own_horner(monkeypatch):
    # the c12 and c2 kernels evaluate P1 and differentiate P2 through
    # Polynomial; the finite differences read their coefficients alone
    cfg = kappa_preset()
    report = moments.evaluate(cfg)
    c12, c2 = report.c12, report.c2

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called Polynomial")

    for name in ("__call__", "derivative"):
        monkeypatch.setattr(Polynomial, name, refuse)
    assert abs(oracle.fd_c12(report.config) - c12) <= oracle.JET_OPERATOR_TOL * abs(c12)
    assert abs(oracle.fd_c2(report.config) - c2) <= oracle.JET_OPERATOR_TOL * abs(c2)


# -- identity checks ---------------------------------------------------------


def test_fixed_contour_identities_pass():
    assert check_k1(i=2, alpha=0.0, beta=0.0, logq=10.0).passed
    assert check_k2(j=3, alpha=0.03, beta=0.02, logq=20.0).passed
    assert check_l1(i=3, alpha=0.05, beta=-0.04, logq=15.0).passed
    assert check_f_residues(j=1, k=2, s=0.5, logx=5.0).passed


def test_contour_identity_validation():
    with pytest.raises(OracleError, match=re.escape("K1 needs i >= 1")):
        check_k1(i=0, alpha=0.0, beta=0.0, logq=5.0)
    with pytest.raises(OracleError, match=re.escape("K2 needs j >= 3")):
        check_k2(j=2, alpha=0.0, beta=0.0, logq=5.0)
    with pytest.raises(OracleError, match=re.escape("L1 needs i >= 3")):
        check_l1(i=2, alpha=0.0, beta=0.0, logq=5.0)
    with pytest.raises(OracleError, match=re.escape("need |alpha|, |beta| <= 0.1")):
        check_k1(i=1, alpha=0.5, beta=0.0, logq=5.0)
    with pytest.raises(OracleError, match="s must be nonzero"):
        check_f_residues(j=0, k=0, s=0.0, logx=5.0)


def _k1_rhs_jet(i, alpha, beta, logq):
    """The K1 right side as the jet ring takes it: d^2/dx dy at 0 of
    e^{alpha x - beta y} (logq + x + y)^i / i!."""
    expo = Jet.linear(0.0, alpha, -beta, 1, 1).exp()
    base = Jet.linear(logq, 1.0, 1.0, 1, 1)
    power = Jet.constant(1.0, 1, 1)
    for _ in range(i):
        power = power * base
    return (expo * power).mixed_partial(1, 1) / math.factorial(i)


def _l1_rhs_jet(i, alpha, beta, logq):
    """The L1 right side as the jet ring takes it: d^2/dx^2 at 0 of
    (logq + x)^{i-1} times the 96-point Gauss integral over u of
    e^{-logq alpha u + (beta - alpha u) x} (1 - u)^{i-2}, over (i - 2)!."""
    nodes, weights = oracle._gauss_rule(96)
    expo = Jet.linear(-logq * alpha * nodes, beta - alpha * nodes, 0.0, 2, 0).exp()
    integrand = expo * ((1.0 - nodes) ** (i - 2))
    inner = Jet(2, 0, np.sum(integrand.coeffs * weights, axis=-1))
    base = Jet.linear(logq, 1.0, 0.0, 2, 0)
    power = Jet.constant(1.0, 2, 0)
    for _ in range(i - 1):
        power = power * base
    return (power * inner).mixed_partial(2, 0) / math.factorial(i - 2)


def test_closed_form_contour_sides_match_the_jet_ring(monkeypatch):
    # the right sides alone: a stub circle keeps the 200 draws cheap
    monkeypatch.setattr(oracle, "contour_circle",
                        lambda term, **factors: oracle.ContourValue(0j, 0.0, 0))
    rng = np.random.default_rng(2718)
    for _ in range(200):
        alpha, beta = rng.uniform(-0.1, 0.1, size=2)
        logq = rng.uniform(5.0, 25.0)
        i = int(rng.integers(1, 6))
        rhs = check_k1(i=i, alpha=alpha, beta=beta, logq=logq).params["rhs"]
        assert abs(rhs - _k1_rhs_jet(i, alpha, beta, logq)) <= 1e-12, (i, alpha, beta, logq)
        i = int(rng.integers(3, 6))
        rhs = check_l1(i=i, alpha=alpha, beta=beta, logq=logq).params["rhs"]
        assert abs(rhs - _l1_rhs_jet(i, alpha, beta, logq)) <= 1e-12, (i, alpha, beta, logq)
    # logq = 0 at i = 1 is a legal input: the i(i - 1) logq^{i-2} term is absent
    rhs = check_k1(i=1, alpha=0.05, beta=-0.02, logq=0.0).params["rhs"]
    assert rhs == pytest.approx(_k1_rhs_jet(1, 0.05, -0.02, 0.0), abs=1e-15)


def test_mobius_identities_exact():
    result = check_mobius_identities(2000)
    assert result.passed
    assert result.error == 0.0


def test_mellin_pair_inside_and_outside():
    p1 = make_p1((0.5, 0.5))
    y1 = 1e4
    inside = check_mellin_pair(p1, y1, 10.0)
    assert inside.passed
    assert inside.params["expected"] == pytest.approx(p1(math.log(y1 / 10.0) / math.log(y1)))
    outside = check_mellin_pair(p1, y1, 2 * y1)
    assert outside.passed
    assert outside.params["expected"] == 0.0
    with pytest.raises(OracleError):
        check_mellin_pair(p1, y1, 0.5)


def test_q_operator_constant_q_is_exact():
    result = check_q_operator(Polynomial((1.0,)), X=100.0, T=1e6)
    assert result.passed
    assert result.error < 1e-15


def test_q_monomials_expand_q_in_y_exactly():
    # in rational arithmetic the expansion is exact: at x = 1/3 its
    # monomials sum to sum_k p_k (1/3)^k, and in floats they match the
    # program's Q; a constant is its own expansion
    q = make_q(0.492, (0.604, -0.08, -0.06, 0.046))
    monomials = oracle.q_monomials(q, Fraction)
    x = Fraction(1, 3)
    assert sum(m * x**j for j, m in enumerate(monomials)) == sum(
        Fraction(p) * (1 - 2 * x) ** k for k, p in enumerate(q.coeffs))
    grid = np.linspace(0.0, 1.0, 11)
    values = np.polynomial.polynomial.polyval(grid, oracle.q_monomials(q))
    assert np.max(np.abs(values - q(grid))) <= 1e-14
    assert oracle.q_monomials(Polynomial((1.0,))) == [1.0]


def test_q_operator_preset_style_q():
    q = make_q(0.492, (0.604, -0.08, -0.06, 0.046))
    result = check_q_operator(q, X=(1e8) ** (4.0 / 7.0), T=1e8, alpha=-0.1 / math.log(1e8))
    assert result.passed


def test_euler_maclaurin_validation():
    one = Polynomial((1.0,))
    with pytest.raises(OracleError, match=re.escape("need |s| <= 1/log x")):
        check_euler_maclaurin(l=0, s=0.5, x=1e4)
    with pytest.raises(OracleError, match=re.escape("need |s| <= 1/log x")):
        check_divisor_sum(k=2, F=one, H=one, x=1e4, s=0.5)
    with pytest.raises(OracleError, match="need z <= x"):
        check_divisor_sum(k=2, F=one, H=one, x=1e3, s=0.0, z=2e3)


def test_euler_maclaurin_rejects_a_parameter_its_kind_does_not_take():
    # each check takes its own keywords: an unknown one, or one of the other
    # check, is an error and never lands silently in the result's params; the
    # divisor sum is diag without z and cross with it
    one = Polynomial((1.0,))
    diag = dict(k=2, F=one, H=one, x=1e3, s=0.0)
    assert check_divisor_sum(**diag).name == "euler_maclaurin[diag]"
    cross = check_divisor_sum(**diag, z=5e2)
    assert cross.name == "euler_maclaurin[cross]" and cross.params["z"] == 5e2
    with pytest.raises(TypeError, match="tables"):
        check_divisor_sum(**diag, tables="stale")
    with pytest.raises(TypeError, match="zz"):
        check_divisor_sum(**diag, zz=3)
    with pytest.raises(TypeError, match="'k'"):
        check_euler_maclaurin(l=0, k=2, s=0.0, x=1e4)


_ONE = Polynomial((1.0,))
# valid arguments of every public check
_EVERY_CHECK = (
    (check_k1, dict(i=2, alpha=0.05, beta=0.0, logq=10.0)),
    (check_k2, dict(j=3, alpha=0.03, beta=0.02, logq=20.0)),
    (check_l1, dict(i=3, alpha=0.05, beta=-0.04, logq=15.0)),
    (check_f_residues, dict(j=1, k=2, s=0.5, logx=5.0)),
    (check_euler_maclaurin, dict(l=0, s=0.0, x=1e4)),
    (check_divisor_sum, dict(k=2, F=_ONE, H=_ONE, x=1e3, s=0.0)),
    (check_logsave, dict(k=2, sigma=0.0, x=1e3)),
    (check_mellin_pair, dict(P1=make_p1((0.5, 0.5)), y1=1e4, n=10.0)),
    (check_q_operator, dict(Q=_ONE, X=100.0, T=1e6)),
    (check_mobius_identities, dict(N=2000)),
    (oracle.check_jet_operators, dict(cfg=kappa_preset())),
)


@pytest.mark.parametrize("check, params", _EVERY_CHECK, ids=[c.__name__ for c, _ in _EVERY_CHECK])
@pytest.mark.parametrize("stray", ["alpah", "zz"])
def test_a_misspelled_keyword_is_an_error(check, params, stray):
    # a check's signature names its parameters: a misspelled one is rejected,
    # never run with a default and recorded in the result's params.  alpah
    # takes alpha's place where the check has one, and goes beside the
    # parameters elsewhere, as zz does
    params = dict(params)
    value = params.pop("alpha", 3) if stray == "alpah" else 3
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{stray}'"):
        check(**params, **{stray: value})


def test_out_of_scope_listing():
    assert len(oracle.OUT_OF_SCOPE) == 3


def test_run_suite_unknown_name():
    with pytest.raises(OracleError):
        oracle.run_suite("everything")


# every check verify runs, in order, with its threshold
_CHECK_INVENTORY = (
    [("euler_maclaurin[basic]", 10.0)] * 9
    + [("euler_maclaurin[diag]", 10.0), ("euler_maclaurin[cross]", 10.0)] * 3
    + [("logsave", 10.0)] * 15
    + [(f"contour[{kind}]", 1e-10) for kind in ("K1", "K2", "L1", "F_residues")] * 11
    + [("mobius", 0.0)]
    + [("mellin_pair", 1e-3)] * 4
    + [("q_operator", 1e-12)] * 5
    + [("jet_operators", 1e-6)]
)


def test_run_suite_all_runs_the_pinned_checks():
    # a refactor must not drop, add, reorder or rename a check silently
    results = oracle.run_suite("all")
    assert len(_CHECK_INVENTORY) == 85
    assert [(r.name, r.threshold) for r in results] == _CHECK_INVENTORY


def test_qop_suite_passes():
    results = oracle.run_suite("qop")
    assert results and all(r.passed for r in results)
    assert all(r.params["trapezoid_certificate"] <= oracle.QOP_TOL for r in results)


# -- finite-difference oracle ------------------------------------------------


def _tensor_integral_ld(f, d, n):
    """Tensor-product Gauss-Legendre on [0,1]^d in long double, evaluating f
    at every node of a meshgrid: the form the factored scalars replaced, on
    the oracle's own rule."""
    x, w = oracle._gauss_rule_ld(n)
    grids = np.meshgrid(*([x] * d), indexing="ij")
    weight = np.longdouble(1.0)
    for g in np.meshgrid(*([w] * d), indexing="ij"):
        weight = weight * g
    values = f(*[g.ravel() for g in grids])
    return np.sum(values * weight.ravel())


def oracle_q(cfg):
    """Q as the oracle evaluates it: its own monomial expansion, in long double."""
    q = oracle.q_monomials(cfg.Q, np.longdouble)
    return lambda z: np.polynomial.polynomial.polyval(z, q)


def _c12_scalar_meshgrid(cfg, x, y, n):
    ld = np.longdouble
    th1, th2, R = ld(cfg.theta1), ld(cfg.theta2), ld(cfg.R)
    x, y = ld(x), ld(y)
    Q, P1 = oracle_q(cfg), cfg.P1
    P2dd = cfg.P2.derivative().derivative()

    def f(s, t, u):
        a = s
        b = (1.0 - s) * t
        jac = 1.0 - s
        expo = np.exp(R * (th1 * (y - x) + u * th2 * (a - b)))
        return (
            u * u * (1.0 - u) * expo
            * Q(-x * th1 + a * u * th2) * Q(1.0 + y * th1 - b * u * th2)
            * P1(x + y + 1.0 - (1.0 - u) * th2 / th1)
            * P2dd((1.0 - a - b) * u) * jac
        )

    value = _tensor_integral_ld(f, 3, n)
    return 4.0 * (th2**2 / th1**2) * np.exp(R) * value


def _c2_scalar_meshgrid(cfg, x, y, n):
    ld = np.longdouble
    th2, R = ld(cfg.theta2), ld(cfg.R)
    x, y = ld(x), ld(y)
    Q = oracle_q(cfg)
    P2dd = cfg.P2.derivative().derivative()

    def f(t, r, u, v):
        E = x + y - v * (y + r) - u * (x + r)
        G = 1.0 + th2 * E
        return (
            (1.0 - r) ** 4 * (1.0 / th2 + E) * np.exp(-th2 * R * E)
            * Q(th2 * (-y + u * (x + r)) + t * G) * np.exp(2.0 * R * t * G)
            * Q(th2 * (-x + v * (y + r)) + t * G)
            * (x + r) * (y + r) * P2dd((1.0 - u) * (x + r)) * P2dd((1.0 - v) * (y + r))
        )

    return np.longdouble(2) / 3 * _tensor_integral_ld(f, 4, n)


def _constant_q():
    # Q = 1: each per-slice moment expansion is a 1 x 1 Hankel matrix
    return dataclasses.replace(kappa_preset(), Q=Polynomial((1.0,)))


def _degree_11_q():
    # the largest --q-degree searched for kappa
    Q = make_q(0.492, (0.604, -0.08, -0.06, 0.046, -0.02, 0.01))
    return dataclasses.replace(kappa_preset(), Q=Q)


def _cubic_p2():
    # P2 of degree 3: P2'' is linear and vanishes at 0
    return dataclasses.replace(kappa_preset(), P2=make_p2((0.03,)))


@pytest.mark.parametrize(
    "preset", [kappa_preset, kappa_star_preset, _constant_q, _degree_11_q, _cubic_p2]
)
def test_factored_fd_scalars_match_the_meshgrid_form(preset):
    # c12 at every (x, y) of the offsets' x and y values, c2 at the listed
    # pairs, which share offsets across their x and y axes
    cfg = preset()
    h = oracle.FD_H
    offsets = [(0.0, 0.0), (h, -2 * h), (-2 * h, 2 * h), (2 * h, h), (0.3, -0.2)]
    for n, pairs in ((6, offsets), (8, offsets), (oracle.FD_C2_ORDER, [(-h, 2 * h)])):
        # n = FD_C2_ORDER is the order verify runs c2 at
        xs, ys = zip(*pairs)
        grid = oracle._c12_scalars(cfg, xs, ys, n=n)
        assert grid.dtype == np.longdouble and grid.shape == (len(xs), len(ys))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                want = _c12_scalar_meshgrid(cfg, x, y, n=n)
                assert abs(grid[i, j] - want) <= 1e-17 * abs(want), (n, x, y, "c12")
        scalars = oracle._c2_scalars(cfg, pairs, n=n)
        assert scalars.dtype == np.longdouble and scalars.shape == (len(pairs),)
        for (x, y), got in zip(pairs, scalars):
            want = _c2_scalar_meshgrid(cfg, x, y, n=n)
            assert abs(got - want) <= 1e-17 * abs(want), (n, x, y, "c2")


def test_jet_operators_pass_at_the_kappa_preset():
    result = oracle.check_jet_operators(kappa_preset())
    assert result.passed, result


@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset])
def test_fd_oracle_agrees_with_evaluate_to_its_floor(preset):
    # a hundredth of JET_OPERATOR_TOL: the stencil's 1/(144 h^4) amplifies
    # long-double rounding of each scalar to 1.1e-9 (kappa) and 9.3e-10
    # (kappa-star) relative in c2, between 8e-11 and 2e-9 at any order from
    # 10 to 40
    report = moments.evaluate(preset())
    cfg = report.config
    assert abs(oracle.fd_c12(cfg) - report.c12) <= 1e-8 * abs(report.c12)
    assert abs(oracle.fd_c2(cfg) - report.c2) <= 1e-8 * abs(report.c2)


@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset])
def test_fd_orders_resolve_every_stencil_scalar(preset):
    # every scalar the stencils take is converged at the orders verify runs:
    # within 1e-15 (relative) of orders 36 and 40
    cfg = moments.evaluate(preset()).config
    h = oracle.FD_H
    offsets = np.array(oracle._D1_OFFSETS) * h
    pairs = [(x * h, y * h) for i, x in enumerate(oracle._D2_OFFSETS)
             for y in oracle._D2_OFFSETS[i:]]
    c12 = oracle._c12_scalars(cfg, offsets, offsets, n=oracle.FD_C12_ORDER)
    c2 = oracle._c2_scalars(cfg, pairs, n=oracle.FD_C2_ORDER)
    for n in (36, 40):
        assert np.all(np.abs(c12 / oracle._c12_scalars(cfg, offsets, offsets, n=n) - 1) <= 1e-15), n
        assert np.all(np.abs(c2 / oracle._c2_scalars(cfg, pairs, n=n) - 1) <= 1e-15), n


@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset])
def test_c2_scalar_is_symmetric_in_its_offsets(preset):
    # swapping (x, u) with (y, v) maps the integrand to itself, so only the
    # summation order differs
    cfg = preset()
    h = oracle.FD_H
    offsets = [(h, -2 * h), (-2 * h, 2 * h), (2 * h, h), (-h, 0.0), (0.3, -0.2)]
    for x, y in offsets:
        xy, yx = oracle._c2_scalars(cfg, [(x, y), (y, x)], n=oracle.FD_C2_ORDER)
        assert abs(xy - yx) <= 1e-17 * abs(xy), (x, y)


def _fd_c2_full_stencil(cfg):
    """fd_c2 summing all 25 offset pairs: the form the folded stencil
    replaced."""
    total = np.longdouble(0.0)
    for ox, wx in zip(oracle._D2_OFFSETS, oracle._D2_WEIGHTS):
        for oy, wy in zip(oracle._D2_OFFSETS, oracle._D2_WEIGHTS):
            (scalar,) = oracle._c2_scalars(
                cfg, [(ox * oracle.FD_H, oy * oracle.FD_H)], n=oracle.FD_C2_ORDER
            )
            total += wx * wy * scalar
    return float(total / np.longdouble(12.0 * oracle.FD_H * oracle.FD_H) ** 2)


def test_folded_c2_stencil_matches_the_full_stencil():
    # the reduction order differs, and the stencil divides by 144 h^4
    cfg = kappa_preset()
    folded = oracle.fd_c2(cfg)
    full = _fd_c2_full_stencil(cfg)
    assert abs(folded - full) <= 1e-8 * abs(full), (folded, full)
