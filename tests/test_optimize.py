"""Nelder-Mead benchmarks, Gram assembly, and the constrained inner solve."""

import numpy as np
import pytest

from critline import moments, optimize, quad
from critline.optimize import (
    GramSystem,
    OptimizeError,
    build_gram,
    nelder_mead,
    solve_constrained,
)
from critline.poly import P2Spec, Polynomial, QSpec, make_p2, make_q
from critline.presets import kappa_preset, kappa_star_preset

THETA1 = 4.0 / 7.0
THETA2 = 0.5


# -- Nelder-Mead -------------------------------------------------------------


def test_nelder_mead_quadratic():
    x, fx = nelder_mead(lambda v: (v[0] - 3.0) ** 2 + (v[1] + 1.0) ** 2, [0.0, 0.0])
    assert np.allclose(x, [3.0, -1.0], atol=1e-4)
    assert fx < 1e-8


def test_nelder_mead_rosenbrock():
    def rosen(v):
        return 100.0 * (v[1] - v[0] ** 2) ** 2 + (1.0 - v[0]) ** 2

    x, fx = nelder_mead(rosen, [-1.2, 1.0], max_iterations=5000, diameter_tol=1e-10)
    assert np.allclose(x, [1.0, 1.0], atol=1e-4)
    assert fx < 1e-8


def test_nelder_mead_one_dimensional():
    x, fx = nelder_mead(lambda v: abs(v[0] - 2.0), [10.0])
    assert x[0] == pytest.approx(2.0, abs=1e-4)
    assert fx < 1e-4


def test_nelder_mead_evaluates_x0_once():
    # 3 simplex vertices, a reflection, then a reflection and an expansion
    points = []

    def f(v):
        points.append(tuple(v))
        return float(v[0] + v[1])

    nelder_mead(f, [0.0, 0.0], max_iterations=2)
    assert len(points) == 6
    assert len(set(points)) == 6


def test_nelder_mead_input_validation():
    with pytest.raises(OptimizeError):
        nelder_mead(lambda v: float(v.sum()), [])
    with pytest.raises(OptimizeError):
        nelder_mead(lambda v: float("nan"), [1.0])


# -- constrained quadratic solve ---------------------------------------------


def toy_system(M):
    M = np.asarray(M, dtype=float)
    size = M.shape[0]
    return GramSystem(
        M=M, e=np.ones(size), d1=size, d2=0,
        Q=Polynomial((1.0,)), R=1.0, theta1=THETA1, theta2=THETA2,
    )


def test_solve_constrained_identity_gram():
    # minimize 1 + w'w subject to w1 + w2 = 1  ->  w = (1/2, 1/2), total 3/2
    w, total = solve_constrained(toy_system(np.eye(2)))
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)
    assert total == pytest.approx(1.5, abs=1e-12)


def test_solve_constrained_weighted_gram():
    # minimize 1 + w1^2 + 2 w2^2 on the same constraint -> w = (2/3, 1/3)
    w, total = solve_constrained(toy_system(np.diag([1.0, 2.0])))
    assert np.allclose(w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert total == pytest.approx(1.0 + 2.0 / 3.0, abs=1e-12)


def test_solve_constrained_is_a_minimum():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 4))
    sys = toy_system(A @ A.T + 0.1 * np.eye(4))  # positive definite
    w, total = solve_constrained(sys)
    assert w.sum() == pytest.approx(1.0, abs=1e-10)
    for _ in range(20):
        y = rng.standard_normal(4)
        y -= y.mean()  # stay on the constraint surface
        assert sys.total(w + 0.1 * y) >= total - 1e-10


def test_solve_constrained_rejects_an_indefinite_gram():
    # on w = (1 - t, t), w'Mw = (1 - t)^2 - 2 t^2 is unbounded below: the KKT
    # point is a maximum, and there is no minimum to return
    with pytest.raises(OptimizeError, match="not positive definite"):
        solve_constrained(toy_system(np.diag([1.0, -2.0])))


# -- Gram assembly -----------------------------------------------------------


def test_build_gram_rejects_bad_degrees():
    q = Polynomial((1.0,))
    with pytest.raises(OptimizeError):
        build_gram(q, 1.0, THETA1, THETA2, d1=0, d2=0)
    with pytest.raises(OptimizeError):
        build_gram(q, 1.0, THETA1, THETA2, d1=2, d2=2)


def test_build_gram_p1_only_closed_form():
    # Q = 1, P2 disabled, small R: M[0,0] is (c1 - 1) at P1 = x, which has the
    # elementary closed form from the separated double integral
    import math

    R = 0.7
    g = build_gram(Polynomial((1.0,)), R, THETA1, THETA2, d1=1, d2=0, tol=1e-12)
    expected = math.expm1(2 * R) * ((1 + THETA1 * R) ** 3 - 1) / (6 * THETA1**2 * R**2)
    assert g.M.shape == (1, 1)
    assert g.M[0, 0] == pytest.approx(expected, rel=1e-11)


@pytest.fixture(scope="module")
def small_gram():
    q = make_q(QSpec(odd_coeffs=(0.4,), const=0.6))
    return build_gram(q, 1.1, THETA1, THETA2, d1=2, d2=4, tol=1e-6)


def test_gram_matrix_is_symmetric_psd(small_gram):
    M = small_gram.M
    assert np.allclose(M, M.T, atol=1e-12)
    assert small_gram.size == 2 + 2  # P1 powers 1..2, P2 powers 3..4
    eigs = np.linalg.eigvalsh(M)
    assert eigs.min() > -1e-5  # the total constant is a second moment


def test_gram_reconstructs_direct_evaluation(small_gram):
    g = small_gram
    rng = np.random.default_rng(99)
    for _ in range(3):
        w = rng.uniform(-0.5, 0.8, size=g.size)
        p1 = Polynomial((0.0,) + tuple(w[: g.d1]))
        p2 = make_p2(P2Spec(tuple(w[g.d1 :])))
        cfg = moments.MollifierConfig(
            theta1=g.theta1, theta2=g.theta2, R=g.R, Q=g.Q, P1=p1, P2=p2
        )
        direct = moments.evaluate(cfg, tol=1e-8).c
        assert g.total(w) == pytest.approx(direct, rel=5e-5)


def test_gram_split_normalizes_p1(small_gram):
    w = np.array([0.25, 0.5, 0.1, -0.2])
    p1, p2 = small_gram.split(w)
    assert p1(1.0) == pytest.approx(1.0, abs=1e-14)
    assert p2.coeffs[:3] == (0.0, 0.0, 0.0)


# -- one-pass blocks against polarization --------------------------------------


def polarized_gram(Q, R, theta1, theta2, d1, d2, tol):
    """M entry by entry from full c1/c12/c2 evaluations, as 1/4 (q(s + t) - q(s - t))."""
    size = d1 + d2 - 2

    def q(w):
        side = (Polynomial((0.0,) + tuple(w[:d1])), make_p2(P2Spec(tuple(w[d1:]))))
        (c1, _), (c12, _), (c2, _) = moments.blocks(Q, side, side, R, theta1, theta2, tol, 8, 64)
        return c1 + 2.0 * c12 + c2

    M = np.zeros((size, size))
    eye = np.eye(size)
    for s in range(size):
        for t in range(s, size):
            M[s, t] = M[t, s] = 0.25 * (q(eye[s] + eye[t]) - q(eye[s] - eye[t]))
    return M


def test_one_pass_gram_matches_polarization():
    Q = make_q(QSpec(odd_coeffs=(0.55, -0.07), const=0.52))
    assert Q.degree == 3
    g = build_gram(Q, 1.2, THETA1, THETA2, d1=3, d2=4, tol=1e-10)
    reference = polarized_gram(Q, 1.2, THETA1, THETA2, 3, 4, tol=1e-10)
    assert np.max(np.abs(g.M - reference)) < 1e-13
    assert np.array_equal(g.M, g.M.T)


@pytest.fixture(scope="module", params=[kappa_preset, kappa_star_preset], ids=["kappa", "kappa-star"])
def preset_gram(request):
    cfg = moments.renormalized_q(request.param())
    gram = build_gram(cfg.Q, cfg.R, cfg.theta1, cfg.theta2, 5, 5, tol=1e-10)
    a, b = np.array(cfg.P1.coeffs[1:]), np.array(cfg.P2.coeffs[3:])
    assert (a.size, b.size) == (5, 3)
    return cfg, gram, a, b


def test_gram_total_equals_evaluate_at_presets(preset_gram):
    cfg, gram, a, b = preset_gram
    assert gram.total(np.concatenate([a, b])) == pytest.approx(moments.evaluate(cfg).c, abs=1e-12)


def test_presets_sit_at_the_p2_scale_optimum(preset_gram):
    # c(s) = c1 + 2s c12 + s^2 c2 is stationary at s = 1 iff c12 + c2 = 0,
    # read from moments.evaluate and from the Gram blocks
    cfg, gram, a, b = preset_gram
    report = moments.evaluate(cfg)
    assert abs(report.c12 + report.c2) < 1e-8
    d1 = gram.d1
    assert abs(a @ gram.M[:d1, d1:] @ b + b @ gram.M[d1:, d1:] @ b) < 1e-8


def test_optimum_is_stationary_in_the_p2_scale():
    # at any constrained optimum c(s) = c1 + 2s c12 + s^2 c2 is stationary at
    # s = 1 (P2 -> sP2 keeps P1(1) = 1), so c12 + c2 = 0: the KKT solve of
    # build_gram's blocks, read back through moments.evaluate
    report = optimize.optimize_full(
        theta1=THETA1, theta2=THETA2, d1=3, d2=3, q_degree=1,
        mode=moments.SIMPLE_ZEROS, max_iterations=2, extra_seeds=0,
    )
    assert abs(report.c12 + report.c2) <= 1e-12


# -- rejected outer points ---------------------------------------------------


def small_search():
    return optimize.optimize_full(
        theta1=THETA1, theta2=THETA2, d1=2, d2=0, q_degree=1,
        mode=moments.SIMPLE_ZEROS, max_iterations=6, extra_seeds=1,
    )


def test_outer_points_are_all_counted():
    diag = small_search().diagnostics
    rejected = diag["rejected_evaluations"]
    assert set(rejected) == set(optimize.REJECTION_REASONS)
    assert diag["admissible_evaluations"] + sum(rejected.values()) == diag["outer_evaluations"]
    assert diag["admissible_evaluations"] > 0


def test_rejected_outer_points_are_counted_by_reason(monkeypatch):
    search_tol = optimize.SEARCH_GRAM_TOL
    failures = [quad.QuadratureError("injected"), OptimizeError("injected"), ValueError("injected")]
    real_build = optimize.build_gram
    builds = []

    def flaky_build(*args, tol, **kwargs):
        builds.append(tol)
        if tol == search_tol and len(builds) % 4:
            raise failures[len(builds) % 4 - 1]
        return real_build(*args, tol=tol, **kwargs)

    monkeypatch.setattr(optimize, "build_gram", flaky_build)
    diag = small_search().diagnostics
    assert builds[-1] == optimize.GRAM_TOL  # the final re-solve
    phase = np.arange(1, len(builds)) % 4  # one per search build
    rejected = diag["rejected_evaluations"]
    assert rejected["quadrature_error"] == np.sum(phase == 1)
    assert rejected["optimize_error"] == np.sum(phase == 2)
    assert rejected["value_error"] == np.sum(phase == 3)
    assert diag["admissible_evaluations"] == np.sum(phase == 0)
    assert diag["admissible_evaluations"] + sum(rejected.values()) == diag["outer_evaluations"]
