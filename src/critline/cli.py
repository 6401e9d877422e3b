"""Command-line front end: presets, config files, optimization, verification.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 verification failure.  Reports are JSON with a top-level ``"schema": 1``
and deterministic content, so repeated runs with the same inputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys

from . import moments, oracle, optimize, quad
from .moments import ConfigError, KappaReport, MollifierConfig
from .poly import PolynomialError, QSpec, make_p1, make_p2, make_q
from .presets import PRESETS, THETA1, THETA2

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

CONFIG_KEYS = {"theta1", "theta2", "R", "q_const", "q_odd_coeffs", "p1_coeffs", "p2_coeffs", "mode"}


def _report_with_normalized_q(cfg: MollifierConfig) -> KappaReport:
    """Evaluate, renormalizing Q to Q(0) = 1 first when the input does not
    satisfy the constraint exactly; the unnormalized value is kept in the
    diagnostics.

    The unnormalized c needs no second evaluation.  The published formula
    writes c1's diagonal term P1(1)^2 Q(0)^2 as the literal 1, and
    :func:`moments.evaluate` adds that same 1; every kernel behind c - 1 is
    quadratic in Q.  So at the verbatim Q, c - 1 scales by Q(0)^2 and the 1
    stays: c_verbatim = 1 + Q(0)^2 (c - 1) is what evaluating the verbatim
    input directly gives, not Q(0)^2 c."""
    q0 = cfg.Q(0.0)
    if abs(q0 - 1.0) <= 1e-12:
        return moments.evaluate(cfg)
    report = moments.evaluate(moments.renormalized_q(cfg))
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


def parse_config(path: str) -> MollifierConfig:
    """Read a ``key = value`` config file into a validated configuration."""
    entries: dict[str, tuple[str, int]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    for line_no, line in enumerate(lines, start=1):
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

    theta1 = scalar("theta1", THETA1)
    theta2 = scalar("theta2", THETA2)
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
    try:
        return MollifierConfig(
            theta1=theta1, theta2=theta2, R=R,
            Q=make_q(QSpec(odd_coeffs=q_odd, const=q_const)),
            P1=make_p1(p1), P2=make_p2(p2), mode=mode,
        )
    except PolynomialError as exc:
        raise ConfigError(str(exc)) from exc


# -- subcommands ------------------------------------------------------------


def run_reproduce(args) -> int:
    if args.preset not in PRESETS:
        raise ConfigError(f"unknown preset {args.preset!r}; choose kappa or kappa-star")
    report = _report_with_normalized_q(PRESETS[args.preset]())
    _emit(report, args.json)
    return EXIT_OK


def run_eval(args) -> int:
    report = _report_with_normalized_q(parse_config(args.config))
    _emit(report, args.json)
    return EXIT_OK


def run_optimize(args) -> int:
    mode = moments.SIMPLE_ZEROS if args.mode == "simple" else moments.ALL_ZEROS
    if args.q_degree is not None:
        q_degree = args.q_degree
    else:
        q_degree = 1 if mode == moments.SIMPLE_ZEROS else 7
    report = optimize.optimize_full(
        theta1=args.theta1, theta2=args.theta2, d1=args.d1, d2=args.d2,
        q_degree=q_degree, mode=mode, max_iterations=args.max_iterations,
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
    piece2 = p.add_mutually_exclusive_group()
    piece2.add_argument("--d2", type=int, default=5, help="P2 degree (>= 3)")
    piece2.add_argument("--no-psi2", action="store_const", const=0, dest="d2",
                        help="disable the second mollifier piece (d2 = 0)")
    p.add_argument("--q-degree", type=int, default=None,
                   help="highest odd power in Q (default 7; simple mode takes only 1)")
    p.add_argument("--theta1", type=float, default=THETA1)
    p.add_argument("--theta2", type=float, default=THETA2)
    p.add_argument("--max-iterations", type=int, default=optimize.MAX_ITERATIONS,
                   help="cap on the R values searched after the published R")
    # read by nothing: the benchmark's budget-2 search still passes --seeds 0
    p.add_argument("--seeds", type=int, choices=[0], default=0, help=argparse.SUPPRESS)
    p.add_argument("--json", help="write the JSON report to this path")
    p.set_defaults(func=run_optimize)

    p = sub.add_parser("verify", help="run the independent identity/property checks")
    p.add_argument("--suite", default="all", choices=["all", *oracle.SUITES])
    p.add_argument("--json", help="write the per-check results as JSON to this path")
    p.set_defaults(func=run_verify)
    return parser


def _keep_freed_heap() -> None:
    """Have glibc serve blocks under 32 MB from the heap and keep up to 64 MB
    of freed memory at its top, instead of returning it to the system.

    Each quadrature slab's integrand allocates its temporaries and frees them
    on return.  glibc starts with a 128 kB mmap threshold and trim threshold
    and raises both only after freeing a large mmap'ed block, so whether a
    slab reused the pages the last one freed or faulted them in afresh
    depended on what the process had allocated before.  The benchmark's
    budget-2 search, run after ``optimize --no-psi2`` in one interpreter,
    took 4,700 minor page faults and takes 650; the default q7, d1 = d2 = 5
    search took 620k faults and 1.1 s of system time, and takes 15k faults
    and 0.03 s (2-core x86-64 VM, glibc 2.36).  Without glibc's ``mallopt``
    nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at the cap of its dynamic value on 64-bit
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_heap()
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
