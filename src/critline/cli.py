"""Command-line front end: presets, config files, optimization, verification.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 verification failure.  Reports are JSON with a top-level ``"schema": 1``
and deterministic content, so repeated runs with the same inputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import moments, oracle, optimize, quad
from .moments import ConfigError, KappaReport, MollifierConfig
from .poly import P2Spec, PolynomialError, QSpec, make_p1, make_p2, make_q
from .presets import PRESETS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

CONFIG_KEYS = {
    "theta1", "theta2", "R", "q_const", "q_odd_coeffs", "p1_coeffs",
    "p2_coeffs", "mode", "quad_tol", "quad_max_nodes",
}


def _report_with_normalized_q(cfg: MollifierConfig, tol: float, n_max: int) -> KappaReport:
    """Evaluate, renormalizing Q to Q(0) = 1 first when the input does not
    satisfy the constraint exactly; the unnormalized value is kept in the
    diagnostics.  Every constant is quadratic in Q, so c - 1 scales by Q(0)^2
    and the unnormalized value needs no second evaluation."""
    q0 = cfg.Q(0.0)
    if abs(q0 - 1.0) <= 1e-12:
        return moments.evaluate(cfg, tol=tol, n_max=n_max)
    report = moments.evaluate(moments.renormalized_q(cfg), tol=tol, n_max=n_max)
    c_verbatim = 1.0 + q0 * q0 * (report.c - 1.0)
    report.diagnostics.update(
        q0_verbatim=q0,
        kappa_verbatim=moments.compute_kappa(c_verbatim, cfg.R),
        c_verbatim=c_verbatim,
    )
    return report


def _write_json(path: str, payload: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")


def _emit(report: KappaReport, json_path: str | None) -> None:
    payload = json.dumps(report.to_dict(), indent=2)
    if json_path:
        _write_json(json_path, payload)
    print(f"c1     = {report.c1:.12f}")
    print(f"c12    = {report.c12:.12f}")
    print(f"c2     = {report.c2:.12f}")
    print(f"c      = {report.c:.12f}")
    print(f"kappa  = {report.kappa:.12f}")
    if "kappa_verbatim" in report.diagnostics:
        print(f"kappa (unnormalized Q) = {report.diagnostics['kappa_verbatim']:.12f}")
    if not json_path:
        print(payload)


# -- config files -----------------------------------------------------------


def _parse_float_list(raw: str, key: str, line_no: int) -> tuple[float, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(float(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: invalid number in {key}: {exc}") from exc


def parse_config(path: str) -> tuple[MollifierConfig, float, int]:
    """Read a ``key = value`` config file into a validated configuration plus
    quadrature options (tolerance, max nodes)."""
    entries: dict[str, tuple[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"line {line_no}: expected 'key = value', got {line.rstrip()!r}")
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            if key in entries:
                raise ConfigError(f"line {line_no}: duplicate key {key!r}")
            entries[key] = (value.strip(), line_no)

    def scalar(key: str, default: float | None = None) -> float:
        if key not in entries:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        value, line_no = entries[key]
        try:
            return float(value)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: invalid number for {key}: {value!r}") from exc

    theta1 = scalar("theta1", 4.0 / 7.0)
    theta2 = scalar("theta2", 0.5)
    R = scalar("R")
    q_const = scalar("q_const", 1.0)

    def float_list(key: str) -> tuple[float, ...]:
        if key not in entries:
            return ()
        value, line_no = entries[key]
        return _parse_float_list(value, key, line_no)

    q_odd = float_list("q_odd_coeffs")
    p1 = float_list("p1_coeffs")
    p2 = float_list("p2_coeffs")
    if not p1:
        raise ConfigError("missing required key 'p1_coeffs'")
    mode = entries.get("mode", (moments.ALL_ZEROS, 0))[0]
    quad_tol = scalar("quad_tol", quad.DEFAULT_TOL)
    max_nodes = scalar("quad_max_nodes", quad.N_MAX)
    if not (math.isfinite(quad_tol) and quad_tol > 0):
        raise ConfigError("quad_tol must be finite and positive")
    if not (math.isfinite(max_nodes) and max_nodes == int(max_nodes)
            and 1 <= max_nodes <= quad.N_MAX):
        raise ConfigError(f"quad_max_nodes must be a finite integer in [1, {quad.N_MAX}]")
    n_max = int(max_nodes)
    try:
        cfg = MollifierConfig(
            theta1=theta1, theta2=theta2, R=R,
            Q=make_q(QSpec(odd_coeffs=q_odd, const=q_const)),
            P1=make_p1(p1), P2=make_p2(P2Spec(p2)), mode=mode,
        )
    except PolynomialError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, quad_tol, n_max


# -- subcommands ------------------------------------------------------------


def run_reproduce(args) -> int:
    name = args.preset.replace("_", "-")
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {args.preset!r}; choose kappa or kappa-star")
    cfg = PRESETS[name]()
    report = _report_with_normalized_q(cfg, quad.DEFAULT_TOL, quad.N_MAX)
    _emit(report, args.json)
    return EXIT_OK


def run_eval(args) -> int:
    cfg, tol, n_max = parse_config(args.config)
    report = _report_with_normalized_q(cfg, tol, n_max)
    _emit(report, args.json)
    return EXIT_OK


def run_optimize(args) -> int:
    mode = moments.SIMPLE_ZEROS if args.mode == "simple" else moments.ALL_ZEROS
    d2 = 0 if args.no_psi2 else args.d2
    report = optimize.optimize_full(
        theta1=args.theta1, theta2=args.theta2, d1=args.d1, d2=d2,
        q_degree=args.q_degree, mode=mode, max_iterations=args.max_iterations,
        extra_seeds=args.seeds,
    )
    print(f"outer evaluations: {report.diagnostics.get('outer_evaluations')}")
    print(f"Q  = {list(report.config.Q.coeffs)}")
    print(f"P1 = {list(report.config.P1.coeffs)}")
    print(f"P2 = {list(report.config.P2.coeffs)}")
    print(f"R  = {report.config.R}")
    _emit(report, args.json)
    return EXIT_OK


def run_verify(args) -> int:
    results = oracle.run_suite(args.suite)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        verdict = "pass" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{r.name:<{width}}  error={r.error:.3e}  threshold={r.threshold:.3e}  {verdict}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    if args.json:
        checks = [
            {"name": r.name, "error": r.error, "threshold": r.threshold, "passed": r.passed}
            for r in results
        ]
        payload = {"schema": 1, "suite": args.suite, "passed": len(results) - failures,
                   "total": len(results), "checks": checks}
        _write_json(args.json, json.dumps(payload, indent=2))
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critline",
        description="Mollified second-moment constants and critical-line zero proportions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="evaluate a built-in published parameter point")
    p.add_argument("--preset", required=True, help="kappa or kappa-star")
    p.add_argument("--json", help="write the JSON report to this path")
    p.set_defaults(func=run_reproduce)

    p = sub.add_parser("eval", help="evaluate a key = value config file")
    p.add_argument("config", help="path to the config file")
    p.add_argument("--json", help="write the JSON report to this path")
    p.set_defaults(func=run_eval)

    p = sub.add_parser("optimize", help="search (R, Q, P1, P2) for the best bound")
    p.add_argument("--mode", choices=["all-zeros", "simple"], default="all-zeros")
    p.add_argument("--d1", type=int, default=5, help="P1 degree")
    p.add_argument("--d2", type=int, default=5, help="P2 degree (>= 3)")
    p.add_argument("--q-degree", type=int, default=7, help="highest odd power in Q")
    p.add_argument("--no-psi2", action="store_true", help="disable the second mollifier piece")
    p.add_argument("--theta1", type=float, default=4.0 / 7.0)
    p.add_argument("--theta2", type=float, default=0.5)
    p.add_argument("--max-iterations", type=int, default=200,
                   help="outer simplex iteration cap per seed")
    p.add_argument("--seeds", type=int, default=3, help="number of extra perturbed seeds, 0 to 3")
    p.add_argument("--json", help="write the JSON report to this path")
    p.set_defaults(func=run_optimize)

    p = sub.add_parser("verify", help="run the independent identity/property checks")
    p.add_argument("--suite", default="all",
                   choices=["all", "euler", "contour", "mobius", "mellin", "qop", "jets"])
    p.add_argument("--json", help="write the per-check results as JSON to this path")
    p.set_defaults(func=run_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PolynomialError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (quad.QuadratureError, optimize.OptimizeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
