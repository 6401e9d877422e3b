"""Gram assembly, the quartic tensor, the constrained solves and the R search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critline import moments, optimize, presets, quad
from critline.cli import EXIT_NUMERICAL, main
from critline.optimize import OptimizeError, build_tensor, gram_at, solve_constrained
from critline.poly import Polynomial, QSpec, _q_basis, make_p1, make_p2, make_q
from critline.presets import kappa_preset, kappa_star_preset

THETA1 = 4.0 / 7.0
THETA2 = 0.5


def gram(Q, R, d1, d2, tol, theta1=THETA1, theta2=THETA2):
    """The Gram matrix of (P1, P2) at one Q, as the search builds it: the
    tensor of the one-member basis [Q], contracted at q = (1,)."""
    return gram_at(build_tensor(np.array([Q.coeffs]), R, theta1, theta2, d1, d2, tol), np.ones(1))


def total(M, w):
    return 1.0 + float(w @ M @ w)


def constraint(n, d1):
    """e: 1 on the first d1 of n coordinates, 0 after."""
    return np.concatenate([np.ones(d1), np.zeros(n - d1)])


# -- constrained quadratic solve ---------------------------------------------


def test_solve_constrained_identity_gram():
    # minimize 1 + w'w subject to w1 + w2 = 1  ->  w = (1/2, 1/2), total 3/2
    w, c = solve_constrained(np.eye(2), 2)
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)
    assert c == pytest.approx(1.5, abs=1e-12)


def test_solve_constrained_weighted_gram():
    # minimize 1 + w1^2 + 2 w2^2 on the same constraint -> w = (2/3, 1/3)
    w, c = solve_constrained(np.diag([1.0, 2.0]), 2)
    assert np.allclose(w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert c == pytest.approx(1.0 + 2.0 / 3.0, abs=1e-12)


def test_solve_constrained_is_a_minimum():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 4))
    M = A @ A.T + 0.1 * np.eye(4)  # positive definite
    w, c = solve_constrained(M, 4)
    assert w.sum() == pytest.approx(1.0, abs=1e-10)
    for _ in range(20):
        y = rng.standard_normal(4)
        y -= y.mean()  # stay on the constraint surface
        assert total(M, w + 0.1 * y) >= c - 1e-10


def kkt_solve(M, d1):
    """The saddle-point solve of [[2M, e], [e', 0]] (w, lambda) = (0, 1): the
    Lagrange stationary point, as a reference for the solve on the surface."""
    size = len(M)
    kkt = np.zeros((size + 1, size + 1))
    kkt[:size, :size] = 2.0 * M
    kkt[:size, size] = kkt[size, :size] = constraint(size, d1)
    rhs = np.zeros(size + 1)
    rhs[size] = 1.0
    w = np.linalg.solve(kkt, rhs)[:size]
    return w, total(M, w)


@pytest.mark.parametrize("preset", [kappa_preset, kappa_star_preset], ids=["kappa", "kappa-star"])
@pytest.mark.parametrize("d2", [5, 0])
def test_solve_on_the_surface_matches_the_kkt_solve(preset, d2):
    cfg = moments.renormalized_q(preset())
    M = gram(cfg.Q, cfg.R, 5, d2, 1e-9, cfg.theta1, cfg.theta2)
    w, c = solve_constrained(M, 5)
    w_kkt, c_kkt = kkt_solve(M, 5)
    assert np.max(np.abs(w - w_kkt)) <= 1e-10
    assert abs(c - c_kkt) <= 1e-13
    assert constraint(len(M), 5) @ w == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.integers(0, 2**32 - 1))))
def test_solve_on_the_surface_matches_the_kkt_solve_for_any_d1(case):
    # a random SPD M, and a constraint on any leading block of coordinates:
    # a search has d1 < n only with a P2 piece (the Q solve constrains all
    # of q), which only the preset Grams above cover
    n, d1, seed = case
    A = np.random.default_rng(seed).standard_normal((n, n))
    M = A @ A.T + 0.1 * np.eye(n)
    w, c = solve_constrained(M, d1)
    w_kkt, _ = kkt_solve(M, d1)
    assert np.max(np.abs(w - w_kkt)) <= 1e-10
    assert abs(w[:d1].sum() - 1.0) <= 1e-14
    assert c == total(M, w)


def test_solve_with_an_empty_null_space():
    # d1 = 1 and no P2: the constraint surface is the one point w = [1]
    M = gram(Polynomial((1.0,)), 0.7, d1=1, d2=0, tol=1e-9)
    w, c = solve_constrained(M, 1)
    assert w.tolist() == [1.0]
    assert c == 1.0 + M[0, 0]


def test_solve_constrained_rejects_an_indefinite_gram():
    # on w = (1 - t, t), w'Mw = (1 - t)^2 - 2 t^2 is unbounded below: the
    # stationary point is a maximum, and there is no minimum to return
    with pytest.raises(OptimizeError, match="not positive definite"):
        solve_constrained(np.diag([1.0, -2.0]), 2)


# -- Gram assembly -----------------------------------------------------------


def test_build_tensor_rejects_bad_degrees():
    # the rule optimize_full applies, with its messages: a configuration error
    q = Polynomial((1.0,))
    with pytest.raises(moments.ConfigError, match="d1 must be >= 1"):
        gram(q, 1.0, d1=0, d2=0, tol=1e-9)
    with pytest.raises(moments.ConfigError, match="d2 must be 0 or >= 3"):
        gram(q, 1.0, d1=2, d2=2, tol=1e-9)


def test_build_tensor_p1_only_closed_form():
    # Q = 1, P2 disabled, small R: M[0,0] is (c1 - 1) at P1 = x, which has the
    # elementary closed form from the separated double integral
    import math

    R = 0.7
    M = gram(Polynomial((1.0,)), R, d1=1, d2=0, tol=1e-12)
    expected = math.expm1(2 * R) * ((1 + THETA1 * R) ** 3 - 1) / (6 * THETA1**2 * R**2)
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx(expected, rel=1e-11)


SMALL_Q = make_q(QSpec(odd_coeffs=(0.4,), const=0.6))
SMALL_R = 1.1


@pytest.fixture(scope="module")
def small_gram():
    return gram(SMALL_Q, SMALL_R, d1=2, d2=4, tol=1e-6)


def test_gram_matrix_is_symmetric_psd(small_gram):
    M = small_gram
    assert np.allclose(M, M.T, atol=1e-12)
    assert len(M) == 2 + 2  # P1 powers 1..2, P2 powers 3..4
    eigs = np.linalg.eigvalsh(M)
    assert eigs.min() > -1e-5  # the total constant is a second moment


def test_gram_reconstructs_direct_evaluation(small_gram):
    rng = np.random.default_rng(99)
    for _ in range(3):
        w = rng.uniform(-0.5, 0.8, size=len(small_gram))
        p1 = Polynomial((0.0,) + tuple(w[:2]))
        p2 = make_p2(tuple(w[2:]))
        cfg = moments.MollifierConfig(
            theta1=THETA1, theta2=THETA2, R=SMALL_R, Q=SMALL_Q, P1=p1, P2=p2
        )
        direct = moments.evaluate(cfg).c
        assert total(small_gram, w) == pytest.approx(direct, rel=5e-5)


def test_gram_split_normalizes_p1():
    # the search splits its solved w into P1 on x..x^d1, rescaled to
    # P1(1) = 1, and P2 on x^3..x^d2
    report = optimize.optimize_full(
        theta1=THETA1, theta2=THETA2, d1=3, d2=4, q_degree=1,
        mode=moments.SIMPLE_ZEROS, max_iterations=0,
    )
    cfg = report.config
    assert cfg.P1(1.0) == pytest.approx(1.0, abs=1e-14)
    assert cfg.P2.coeffs[:3] == (0.0, 0.0, 0.0)
    assert (cfg.P1.degree, cfg.P2.degree) == (3, 4)


# -- one-pass blocks against polarization --------------------------------------


def polarized_gram(Q, R, theta1, theta2, d1, d2, tol):
    """M entry by entry from full c1/c12/c2 evaluations, as 1/4 (q(s + t) - q(s - t))."""
    size = d1 + d2 - 2

    def q(w):
        side = (Q, Polynomial((0.0,) + tuple(w[:d1])), make_p2(tuple(w[d1:])))
        (c1, _), (c12, _), (c2, _) = moments.blocks(side, R, theta1, theta2, tol, 8)
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
    M = gram(Q, 1.2, d1=3, d2=4, tol=1e-10)
    reference = polarized_gram(Q, 1.2, THETA1, THETA2, 3, 4, tol=1e-10)
    assert np.max(np.abs(M - reference)) < 1e-13
    assert np.array_equal(M, M.T)


@pytest.fixture(scope="module", params=[kappa_preset, kappa_star_preset], ids=["kappa", "kappa-star"])
def preset_gram(request):
    cfg = moments.renormalized_q(request.param())
    M = gram(cfg.Q, cfg.R, 5, 5, 1e-10, cfg.theta1, cfg.theta2)
    a, b = np.array(cfg.P1.coeffs[1:]), np.array(cfg.P2.coeffs[3:])
    assert (a.size, b.size) == (5, 3)
    return cfg, M, a, b


def test_gram_total_equals_evaluate_at_presets(preset_gram):
    cfg, M, a, b = preset_gram
    assert total(M, np.concatenate([a, b])) == pytest.approx(moments.evaluate(cfg).c, abs=1e-12)


def test_presets_sit_at_the_p2_scale_optimum(preset_gram):
    # c(s) = c1 + 2s c12 + s^2 c2 is stationary at s = 1 iff c12 + c2 = 0,
    # read from moments.evaluate and from the Gram blocks
    cfg, M, a, b = preset_gram
    report = moments.evaluate(cfg)
    assert abs(report.c12 + report.c2) < 1e-8
    d1 = a.size
    assert abs(a @ M[:d1, d1:] @ b + b @ M[d1:, d1:] @ b) < 1e-8


def test_rescaled_presets_are_the_constrained_optimum(preset_gram):
    # the published P, rescaled so P1(1) = 1, is the Gram optimum to its
    # six-figure rounding: its gradient along the constraint surface is small,
    # and the solve's minimum lies below it by no more than 1e-9
    cfg, M, a, b = preset_gram
    w = np.concatenate([make_p1(tuple(a), normalize=True).coeffs[1:], b])
    e = constraint(len(M), a.size)
    assert e @ w == pytest.approx(1.0, abs=1e-14)
    null_basis = np.linalg.qr(e.reshape(-1, 1), mode="complete")[0][:, 1:]
    assert np.max(np.abs(null_basis.T @ M @ w)) <= 1e-5
    _, c_star = solve_constrained(M, a.size)
    assert -1e-14 <= total(M, w) - c_star <= 1e-9


def test_optimum_is_stationary_in_the_p2_scale():
    # at any constrained optimum c(s) = c1 + 2s c12 + s^2 c2 is stationary at
    # s = 1 (P2 -> sP2 keeps P1(1) = 1), so c12 + c2 = 0: the search's own
    # constrained solve, read back through moments.evaluate
    report = optimize.optimize_full(
        theta1=THETA1, theta2=THETA2, d1=3, d2=3, q_degree=1,
        mode=moments.SIMPLE_ZEROS, max_iterations=2,
    )
    assert abs(report.c12 + report.c2) <= 1e-12
    # the reported P is the optimum at the reported (Q, R) on a Gram at a
    # far tighter tolerance than the search's: re-solving there gains nothing
    cfg = report.config
    M = gram(cfg.Q, cfg.R, 3, 3, 1e-10, cfg.theta1, cfg.theta2)
    _, c_star = solve_constrained(M, 3)
    assert total(M, np.array(cfg.P1.coeffs[1:] + cfg.P2.coeffs[3:])) - c_star <= 1e-12


# -- the quartic tensor --------------------------------------------------------


@pytest.fixture(scope="module", params=[
    (kappa_preset, presets.KAPPA_QSPEC), (kappa_star_preset, presets.KAPPA_STAR_QSPEC),
], ids=["kappa", "kappa-star"])
def preset_tensor(request):
    """The d1 = d2 = 5 tensor at a preset's R over its Q's odd basis, and the
    preset's (q, w) with Q(0) = 1."""
    preset, spec = request.param
    cfg = moments.renormalized_q(preset())
    T = optimize.build_tensor(_q_basis(spec.powers()), cfg.R, cfg.theta1, cfg.theta2, 5, 5, 1e-10)
    q = np.array([spec.const, *spec.odd_coeffs]) / (spec.const + sum(spec.odd_coeffs))
    w = np.array(cfg.P1.coeffs[1:] + cfg.P2.coeffs[3:])
    return cfg, T, q, w


def test_tensor_contracted_at_presets_is_evaluate(preset_tensor):
    cfg, T, q, w = preset_tensor
    c = moments.evaluate(cfg).c
    assert abs(1.0 + np.einsum("a,b,k,l,abkl->", q, q, w, w, T) - c) <= 1e-12
    assert abs(total(gram_at(T, q), w) - c) <= 1e-12
    assert abs(total(gram_at(T.transpose(2, 3, 0, 1), w), q) - c) <= 1e-12


def test_alternation_never_raises_c(preset_tensor):
    # each solve minimizes c over its own variables with the others fixed;
    # in floating point c may rise by rounding only (a few 1e-15)
    cfg, T, q, _ = preset_tensor
    q_best, history = optimize.alternate(T, q, 5)
    assert len(history) >= 4 and len(history) % 2 == 0
    assert np.all(np.diff(history) <= 1e-14), np.diff(history)
    assert history[-1] < history[0] - 1e-6
    assert q_best.sum() == pytest.approx(1.0, abs=1e-14)


# -- the R search ---------------------------------------------------------------

NO_PSI2_KAPPA = 0.408959216383342  # Nelder-Mead's --no-psi2 optimum at CLI defaults


def search(score, budget=optimize.MAX_ITERATIONS):
    """Every R ``_search_R`` scores from R0 = 1, in order."""
    calls = []

    def counted(R):
        calls.append(R)
        return score(R)

    optimize._search_R(counted, 1.0, budget)
    return calls


def quadratic(R):
    return (R - 1.07) ** 2


def kink(R):
    return abs(R - 1.3)


def flat(R):
    return 0.5


def test_the_search_lands_on_a_quadratic_minimum_in_few_scores():
    # the minimum lies inside the first bracket, [1.0, 1.05 + GOLDEN * R_STEP]
    calls = search(quadratic)
    assert len(calls) <= 12
    assert abs(min(calls, key=quadratic) - 1.07) <= optimize.R_TOL
    assert len(set(calls)) == len(calls)


def test_the_search_closes_on_a_kink():
    # a parabola through |R - 1.3| misses its corner, and the golden steps
    # Brent's method falls back on still close the bracket around it
    calls = search(kink)
    assert abs(min(calls, key=kink) - 1.3) <= optimize.R_TOL
    assert len(set(calls)) == len(calls) < 1 + optimize.MAX_ITERATIONS


def test_a_flat_score_ends_the_search():
    # after 3 bracketing scores, golden steps shrink a bracket about 0.13
    # wide by 1/GOLDEN a score, so 25 more reach R_TOL; the budget is not
    # what stops the loop
    calls = search(flat)
    assert len(set(calls)) == len(calls) <= 40


@pytest.mark.parametrize("sign, edge", [(-1.0, optimize.R_RANGE[1]), (1.0, optimize.R_RANGE[0])],
                         ids=["rising", "falling"])
def test_a_monotone_score_ends_at_the_edge_of_the_range(sign, edge):
    calls = search(lambda R: sign * R)
    assert all(optimize.R_RANGE[0] <= R <= optimize.R_RANGE[1] for R in calls)
    assert edge in calls
    assert len(set(calls)) == len(calls) < 1 + optimize.MAX_ITERATIONS


@pytest.mark.parametrize("score", [quadratic, kink, flat, lambda R: -R],
                         ids=["quadratic", "kink", "flat", "monotone"])
@pytest.mark.parametrize("budget", [0, 1, 2, 5])
def test_the_search_keeps_to_its_budget(score, budget):
    calls = search(score, budget)
    assert calls[0] == 1.0
    assert len(set(calls)) == len(calls) <= 1 + budget


def no_psi2_search(q_degree):
    return optimize.optimize_full(THETA1, THETA2, d1=5, d2=0, q_degree=q_degree)


def test_unknown_mode_is_rejected_before_any_gram_build(monkeypatch):
    builds = []
    real_build = optimize.build_tensor

    def counted_build(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(optimize, "build_tensor", counted_build)
    with pytest.raises(moments.ConfigError, match="unknown mode 'bogus'"):
        optimize.optimize_full(
            theta1=THETA1, theta2=THETA2, d1=2, d2=0, q_degree=1,
            mode="bogus", max_iterations=20,
        )
    assert builds == []


def test_every_outer_point_builds_its_own_gram(monkeypatch):
    # the --no-psi2 search at CLI defaults: one tensor per outer point (R),
    # all at the search's tolerance, nothing cached across them, and none
    # after the search: the winner's P is the search's own solve.  It lands
    # at or above Nelder-Mead's optimum
    tensors = []
    real_tensor = optimize.build_tensor

    def counted_tensor(basis, R, *args):
        tensors.append((R, args[-1]))
        return real_tensor(basis, R, *args)

    monkeypatch.setattr(optimize, "build_tensor", counted_tensor)
    report = no_psi2_search(7)
    diag = report.diagnostics
    assert {tol for _, tol in tensors} == {optimize.SEARCH_GRAM_TOL}
    Rs = [R for R, _ in tensors]
    assert len(Rs) == len(set(Rs)) == diag["outer_evaluations"]
    assert diag["outer_evaluations"] <= 12
    assert diag["alternation_rounds"] >= diag["outer_evaluations"]
    assert report.kappa >= NO_PSI2_KAPPA - 1e-12


def test_a_higher_degree_q_is_no_worse():
    # the exact Q solve makes the odd basis of degree 9 contain degree 7's
    # optimum, so the search cannot land lower
    q7, q9 = no_psi2_search(7), no_psi2_search(9)
    assert q9.kappa >= q7.kappa - 1e-12
    assert q9.config.Q.degree == 9


def test_the_budget_caps_the_tensor_builds(monkeypatch):
    Rs = []
    real_tensor = optimize.build_tensor

    def counted_tensor(basis, R, *args):
        Rs.append(R)
        return real_tensor(basis, R, *args)

    monkeypatch.setattr(optimize, "build_tensor", counted_tensor)
    report = optimize.optimize_full(THETA1, THETA2, d1=3, d2=0, q_degree=1,
                                    mode=moments.SIMPLE_ZEROS, max_iterations=2)
    assert report.diagnostics["outer_evaluations"] == 3
    assert Rs[:2] == [presets.KAPPA_STAR_R, presets.KAPPA_STAR_R + optimize.R_STEP]
    assert len(Rs) == 3 and report.config.R in Rs


# -- search failures end the run ---------------------------------------------


def negated(build):
    # -T: the P Gram is negative definite on the constraint surface
    return lambda *args: -build(*args)


def shifted_below_zero(build):
    # T - 10 lowers c by 10 at every point of the constraint surfaces
    # (sum(q) = sum(w) = 1 with no P2), where c is about 2
    return lambda *args: build(*args) - 10.0


def quadrature_failure(build):
    def fail(*args):
        raise quad.QuadratureError("injected")

    return fail


@pytest.mark.parametrize(
    "fault, message",
    [(quadrature_failure, "injected"), (negated, "not positive definite"),
     (shifted_below_zero, "is not a positive number")],
    ids=["quadrature_error", "optimize_error", "c_nonpositive"],
)
def test_search_failures_exit_3_naming_the_R(monkeypatch, capsys, fault, message):
    monkeypatch.setattr(optimize, "build_tensor", fault(optimize.build_tensor))
    argv = ["optimize", "--no-psi2", "--mode", "simple", "--d1", "2", "--q-degree", "1",
            "--max-iterations", "0", "--seeds", "0"]
    assert main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert f"at R = {presets.KAPPA_STAR_R!r}" in err and message in err, err
