"""The three workloads: the CLI operations each runs, the seeded inputs they
take, and the correctness gate every operation must pass.

A workload pass is a fixed list of ``critline`` command lines.  Only the
``evaluate`` workload takes generated inputs: seeded perturbations of the two
published points, written as config files.  The optimize and verify workloads
run fixed command lines (the CLI's own search seeds are fixed), so their seed
only names the run.

This module uses the standard library only, so the harness can build inputs
without importing the program it measures.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Published values (arXiv:1002.4127), pinned at 12 digits.
KAPPA_PINNED = 0.410512143710
KAPPA_STAR_PINNED = 0.405802819648
PIN_TOL = 1e-12
# Historical single-piece window for the --no-psi2 ablation.
ABLATION_WINDOW = (0.4083, 0.4093)
# Largest last doubling delta a certified constant may carry.
LADDER_DELTA_MAX = 1e-8
CONSISTENCY_TOL = 1e-12

THETA1 = 4.0 / 7.0
THETA2 = 0.5

# The published points, entered here independently of the program so that the
# benchmark's inputs do not change when the program does.
KAPPA_POINT = {
    "R": 1.28,
    "q_odd": (0.604, -0.08, -0.06, 0.046),
    "p1": (0.842706, 0.00845721, 0.093117, 0.118788, -0.0630687),
    "p2": (0.0245412, -0.00635566, 0.00603128),
    "mode": "all_zeros",
}
KAPPA_STAR_POINT = {
    "R": 1.12,
    "q_odd": (0.515,),
    "p1": (0.829473, 0.0104358, 0.082009, 0.177482, -0.0993997),
    "p2": (0.0323061, -0.00553783, 0.00769594),
    "mode": "simple_zeros",
}
# Relative size of the seeded perturbations: small enough that every
# quadrature ladder keeps its shape, so the work per point does not depend on
# the seed.  The evaluate gate checks this: a point whose ladders differ from
# its base preset's fails.
R_JITTER = 0.01
COEFF_JITTER = 0.05
# Q(0) - 1 for the points that exercise the renormalize-and-evaluate-twice path.
Q0_OFFSET = (1e-3, 4e-3)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the gate its output must pass."""

    name: str
    argv: tuple[str, ...]
    gate: Callable[[int, dict | None, str], list[str]]  # (exit code, report, stdout) -> errors
    report: str | None = None  # path the op writes its JSON report to
    # name of an earlier op of the pass whose ladder orders this op's must repeat
    same_ladders_as: str | None = None


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, Path, Path], list[Op]]
    # Seconds one pass took on the 2-core reference machine; a run makes
    # round(--seconds / nominal_s) passes, at least one, whatever the speed.
    nominal_s: float


# -- seeded inputs ------------------------------------------------------------


def _jitter(rng: random.Random, values, scale: float) -> list[float]:
    return [v * (1.0 + scale * rng.gauss(0.0, 1.0)) for v in values]


def perturbed_point(base: dict, rng: random.Random, q0_is_one: bool) -> dict:
    """A valid config near ``base``: P1 renormalized so P1(1) = 1, Q on the
    odd basis, and Q(0) = 1 exactly or shifted off 1 by a few thousandths."""
    q_odd = _jitter(rng, base["q_odd"], COEFF_JITTER)
    q_const = 1.0 - math.fsum(q_odd)
    if not q0_is_one:
        q_const += rng.choice((-1.0, 1.0)) * rng.uniform(*Q0_OFFSET)
    p1 = _jitter(rng, base["p1"], COEFF_JITTER)
    total = math.fsum(p1)
    return {
        "theta1": THETA1,
        "theta2": THETA2,
        "R": base["R"] * (1.0 + R_JITTER * rng.gauss(0.0, 1.0)),
        "mode": base["mode"],
        "q_const": q_const,
        "q_odd_coeffs": q_odd,
        "p1_coeffs": [c / total for c in p1],
        "p2_coeffs": _jitter(rng, base["p2"], COEFF_JITTER),
    }


def write_config(point: dict, path: Path) -> None:
    """``key = value`` lines; repr keeps every float exact through the parser."""
    lines = []
    for key, value in point.items():
        if isinstance(value, list):
            value = ", ".join(map(repr, value))
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- gates ----------------------------------------------------------------------


def _consistent(report: dict, c_key: str = "c", kappa_key: str = "kappa") -> list[str]:
    source = report if c_key in report else report.get("diagnostics", {})
    c, kappa, R = source.get(c_key), source.get(kappa_key), report.get("R")
    if not all(isinstance(v, (int, float)) for v in (c, kappa, R)):
        return [f"{kappa_key}/{c_key}/R missing from the report"]
    if not (math.isfinite(kappa) and c > 0 and R > 0):
        return [f"{kappa_key} = {kappa!r} with {c_key} = {c!r}, R = {R!r} is not a bound"]
    expected = 1.0 - math.log(c) / R
    if abs(kappa - expected) > CONSISTENCY_TOL:
        return [f"{kappa_key} = {kappa!r} but 1 - log({c_key})/R = {expected!r}"]
    return []


def _ladders_settled(report: dict) -> list[str]:
    errors = []
    for key in ("c1_trace", "c12_trace", "c2_trace"):
        trace = report.get("diagnostics", {}).get(key)
        if trace is None:
            errors.append(f"{key} missing from the report")
        elif trace and not (trace[-1][1] is not None and trace[-1][1] < LADDER_DELTA_MAX):
            errors.append(f"{key} last delta {trace[-1][1]!r} is not below {LADDER_DELTA_MAX}")
    return errors


def _report_errors(rc: int, report: dict | None) -> list[str] | None:
    if rc != 0:
        return [f"exit code {rc}"]
    if report is None:
        return ["no JSON report written"]
    return None


def gate_pinned(pinned: float):
    def gate(rc: int, report: dict | None, stdout: str) -> list[str]:
        early = _report_errors(rc, report)
        if early is not None:
            return early
        errors = _consistent(report) + _ladders_settled(report)
        if not abs(report["kappa"] - pinned) <= PIN_TOL:
            errors.append(f"kappa {report['kappa']!r} is not {pinned} within {PIN_TOL}")
        return errors

    return gate


def gate_point(rc: int, report: dict | None, stdout: str) -> list[str]:
    early = _report_errors(rc, report)
    if early is not None:
        return early
    errors = _consistent(report) + _ladders_settled(report)
    if "c_verbatim" in report.get("diagnostics", {}):
        errors += _consistent(report, "c_verbatim", "kappa_verbatim")
    return errors


def gate_optimize(window: tuple[float, float] | None):
    def gate(rc: int, report: dict | None, stdout: str) -> list[str]:
        early = _report_errors(rc, report)
        if early is not None:
            return early
        errors = _consistent(report)
        if window and not window[0] <= report["kappa"] <= window[1]:
            errors.append(f"kappa {report['kappa']!r} outside {list(window)}")
        return errors

    return gate


_PASSED = re.compile(r"^(\d+)/(\d+) checks passed$")


def gate_verify(rc: int, report: dict | None, stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    match = _PASSED.match(lines[-1]) if lines else None
    if rc != 0 or match is None or match[1] != match[2] or int(match[2]) == 0:
        return [f"exit code {rc}: {lines[-1] if lines else 'no output'}"]
    failed = [line for line in lines if line.endswith("FAIL")]
    return [f"failed check: {line}" for line in failed]


# -- workloads ------------------------------------------------------------------


def _with_report(name: str, argv: list[str], gate, report_dir: Path,
                 same_ladders_as: str | None = None) -> Op:
    path = report_dir / f"{name}.json"
    return Op(name, tuple(argv) + ("--json", str(path)), gate, str(path), same_ladders_as)


def build_evaluate(seed: int, input_dir: Path, report_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    points = {
        "eval-kappa-q0-one": ("reproduce-kappa", perturbed_point(KAPPA_POINT, rng, q0_is_one=True)),
        "eval-kappa-star-q0-off": ("reproduce-kappa-star",
                                   perturbed_point(KAPPA_STAR_POINT, rng, q0_is_one=False)),
    }
    ops = [
        _with_report("reproduce-kappa", ["reproduce", "--preset", "kappa"],
                     gate_pinned(KAPPA_PINNED), report_dir),
        _with_report("reproduce-kappa-star", ["reproduce", "--preset", "kappa-star"],
                     gate_pinned(KAPPA_STAR_PINNED), report_dir),
    ]
    for name, (base, point) in points.items():
        cfg = input_dir / f"{name}.cfg"
        write_config(point, cfg)
        ops.append(_with_report(name, ["eval", str(cfg)], gate_point, report_dir, base))
    return ops


def build_optimize(seed: int, input_dir: Path, report_dir: Path) -> list[Op]:
    psi2 = ["optimize", "--mode", "simple", "--d1", "3", "--d2", "3",
            "--max-iterations", "2", "--seeds", "0"]
    return [
        _with_report("optimize-no-psi2", ["optimize", "--no-psi2"],
                     gate_optimize(ABLATION_WINDOW), report_dir),
        _with_report("optimize-psi2", psi2, gate_optimize(None), report_dir),
    ]


def build_verify(seed: int, input_dir: Path, report_dir: Path) -> list[Op]:
    return [Op("verify", ("verify",), gate_verify)]


WORKLOADS: dict[str, Workload] = {
    "evaluate": Workload(build_evaluate, 32.0),
    "optimize": Workload(build_optimize, 26.0),
    "verify": Workload(build_verify, 19.0),
}


def ladder_orders(report: dict) -> dict[str, list[int]]:
    """The quadrature orders each of a report's ladders stepped through."""
    diagnostics = report.get("diagnostics", {})
    return {key: [n for n, _ in diagnostics.get(key) or ()]
            for key in ("c1_trace", "c12_trace", "c2_trace")}


def node_counts(report: dict) -> dict[str, int]:
    """Quadrature nodes a report's ladders used, per constant."""
    dims = {"c1_trace": 2, "c12_trace": 3, "c2_trace": 4}
    diagnostics = report.get("diagnostics", {})
    return {
        key[:-6]: sum(n**d for n, _ in diagnostics.get(key) or ())
        for key, d in dims.items()
    }
