"""Acceptance gate: the nine exit criteria, one test per criterion.

These are slow, end-to-end checks (several minutes total); the per-criterion
tolerances are pinned here and must not be loosened to make a red test green.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from critline import moments, optimize, oracle, quad
from critline.cli import EXIT_OK, main
from critline.poly import Polynomial, QSpec, make_p1, make_p2, make_q
from critline.presets import KAPPA_P1, kappa_preset, kappa_star_preset

pytestmark = pytest.mark.slow

THETA1 = 4.0 / 7.0
THETA2 = 0.5


def run_reproduce(preset, tmp_path):
    out = tmp_path / f"{preset}.json"
    assert main(["reproduce", "--preset", preset, "--json", str(out)]) == EXIT_OK
    return json.loads(out.read_text())


def assert_traces_stable(payload, tol=1e-8):
    for name in ("c1_trace", "c12_trace", "c2_trace"):
        trace = payload["diagnostics"][name]
        if trace:  # empty when the corresponding piece vanishes
            assert trace[-1][1] < tol, f"{name} last doubling delta {trace[-1][1]}"


def test_criterion_1_kappa_preset(tmp_path):
    """reproduce --preset kappa: kappa >= 0.41049, stable under doubling,
    and the jet evaluation agrees with the finite-difference oracle."""
    payload = run_reproduce("kappa", tmp_path)
    assert payload["kappa"] >= 0.41049
    assert_traces_stable(payload)
    fd = oracle.check_jet_operators(moments.renormalized_q(kappa_preset()))
    assert fd.threshold == 1e-6
    assert fd.passed, fd.params


def test_criterion_2_kappa_star_preset(tmp_path):
    """reproduce --preset kappa-star: kappa* >= 0.40579 under the same
    stability conditions."""
    payload = run_reproduce("kappa-star", tmp_path)
    assert payload["kappa"] >= 0.40579
    assert_traces_stable(payload)


def test_criterion_3_ablation_without_second_piece():
    """With the second mollifier piece disabled, the optimizer lands in the
    historical single-piece window [0.4083, 0.4093]."""
    report = optimize.optimize_full(
        theta1=THETA1, theta2=THETA2, d1=5, d2=0, q_degree=7,
        mode=moments.ALL_ZEROS, max_iterations=400,
    )
    assert 0.4083 <= report.kappa <= 0.4093, report.kappa


def test_criterion_4_optimizer_sanity():
    """Seeded optimization is no worse than the preset minus 1e-6, and the
    inner solve at the published (Q, R) cannot beat the published coefficients
    by more than numerical noise."""
    preset_report = moments.evaluate(kappa_star_preset())
    opt_report = optimize.optimize_full(
        theta1=THETA1, theta2=THETA2, d1=5, d2=5, q_degree=1,
        mode=moments.SIMPLE_ZEROS, max_iterations=2,
    )
    assert opt_report.kappa >= preset_report.kappa - 1e-6

    cfg = kappa_preset()
    T = optimize.build_tensor(np.array([cfg.Q.coeffs]), cfg.R, cfg.theta1, cfg.theta2, 5, 5, 1e-8)
    _, c_min = optimize.solve_constrained(optimize.gram_at(T, np.ones(1)), 5)
    reference = moments.evaluate(replace(cfg, P1=make_p1(KAPPA_P1, normalize=True)))
    assert c_min <= reference.c + 1e-9, (c_min, reference.c)


def random_config(rng):
    n_odd = int(rng.integers(1, 4))
    odd = tuple(rng.uniform(-0.5, 0.8, size=n_odd))
    q = make_q(QSpec(odd_coeffs=odd, const=1.0 - sum(odd)))
    n_p1 = int(rng.integers(2, 5))
    p1 = rng.uniform(-0.5, 1.0, size=n_p1)
    p1 /= p1.sum()
    n_p2 = int(rng.integers(1, 3))
    p2 = tuple(rng.uniform(-0.5, 0.5, size=n_p2))
    theta2 = float(rng.uniform(0.3, 0.5))
    return moments.MollifierConfig(
        theta1=THETA1, theta2=theta2, R=float(rng.uniform(0.8, 1.6)),
        Q=q, P1=make_p1(tuple(p1), normalize=True), P2=make_p2(p2),
    )


def test_criterion_5_jets_vs_finite_differences():
    """Ten random valid configurations: jet-based c12 and c2 match 4th-order
    central finite differences (h = 1e-3) to relative 1e-6."""
    rng = np.random.default_rng(12345)
    for k in range(10):
        cfg = random_config(rng)
        result = oracle.check_jet_operators(cfg)
        assert result.threshold == 1e-6
        assert result.passed, (k, result.error, result.params)


def test_criterion_6_c1_closed_form():
    """c1 at Q = 1, P1 = x matches the elementary closed form to 1e-12."""
    R = 1.28
    side = (Polynomial((1.0,)), make_p1((1.0,)), None)
    (c1_part, _), _, _ = moments.blocks(side, R, THETA1, THETA2, 1e-13, quad.N_SEQUENCE_START)
    c1 = 1.0 + c1_part
    expected = 1.0 + math.expm1(2 * R) * ((1 + THETA1 * R) ** 3 - 1) / (6 * THETA1**2 * R**2)
    assert abs(c1 - expected) <= 1e-12


def test_criterion_7_identity_suites():
    """Contour identities below 1e-10 over the random panel, arithmetic
    identities exactly for N = 1e5, and the Q-operator identity to 1e-12."""
    contour = oracle.run_suite("contour")
    assert len(contour) == 44
    assert all(r.passed for r in contour), [r for r in contour if not r.passed]
    assert max(r.error for r in contour) < 1e-10

    mobius = oracle.run_suite("mobius")
    assert all(r.passed and r.error == 0.0 for r in mobius)

    qop = oracle.run_suite("qop")
    assert all(r.passed for r in qop)
    assert max(r.error for r in qop) <= 1e-12


def test_criterion_8_asymptotic_lemmas():
    """Euler-Maclaurin normalized errors stay below the calibrated constant,
    and dividing out one more log factor makes them non-increasing over
    x in {1e3, 1e4, 1e5}; the log-saving ratio stays below 10 for k <= 5."""
    xs = (1e3, 1e4, 1e5)
    tables = oracle.ArithmeticTables(100_000)
    F = Polynomial((0.2, 0.5, -0.3, 0.1))
    H = Polynomial((1.0, -0.4, 0.2))

    def scaled_errors(results):
        return [r.error / math.log(3 * r.params["x"]) for r in results]

    for l in (0, 1, 2):
        results = [oracle.check_euler_maclaurin("basic", l=l, s=0.0, x=x) for x in xs]
        assert all(r.error <= oracle.ASYMPTOTIC_CONSTANT for r in results)
        scaled = scaled_errors(results)
        assert scaled == sorted(scaled, reverse=True), (l, scaled)
    for k in (1, 2, 3):
        for kind, kwargs in (("diag", {}), ("cross", {})):
            results = []
            for x in xs:
                z = x if kind == "diag" else x / 2.0
                results.append(
                    oracle.check_euler_maclaurin(
                        kind, k=k, F=F, H=H, x=x, z=z, s=0.0, tables=tables
                    )
                )
            assert all(r.error <= oracle.ASYMPTOTIC_CONSTANT for r in results)
            scaled = [r.error / math.log(3 * (r.params["x"] if kind == "diag" else r.params["z"]))
                      for r in results]
            assert scaled == sorted(scaled, reverse=True), (kind, k, scaled)
    for k in (1, 2, 3, 4, 5):
        for sigma in (0.0, -0.25, -1.0):
            for x in xs:
                r = oracle.check_logsave(k, sigma, x, tables=tables)
                assert r.error <= oracle.ASYMPTOTIC_CONSTANT, (k, sigma, x, r.error)


def test_criterion_9_scope_is_stated():
    """The analytic content that cannot be verified at desk scale is listed
    explicitly rather than silently skipped: the true full-size asymptotic of
    the mollified moment, the off-diagonal bounds, and the twisted
    fourth-moment input are out of scope; coverage for them is exactly the
    identity and property suites exercised above."""
    listing = " ".join(oracle.OUT_OF_SCOPE)
    assert "asymptotic" in listing
    assert "off-diagonal" in listing
    assert "fourth-moment" in listing
    # and the verification surface that does exist is complete
    assert set(oracle.SUITES) == {"euler", "contour", "mobius", "mellin", "qop", "jets"}
