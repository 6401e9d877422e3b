"""CLI behavior: config parsing, reports, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from critline import cli, moments, optimize, oracle, presets, quad
from critline.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VERIFY, main, parse_config
from critline.moments import ConfigError
from critline.presets import PRESETS

CHEAP_CONFIG = """\
# a small, fast parameter point
theta1 = 0.5714285714285714
theta2 = 0.5
R = 1.1
q_const = 0.7
q_odd_coeffs = 0.3
p1_coeffs = 0.6, 0.4
p2_coeffs = 0.05
"""


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def load_report(raw):
    """A report as JSON proper: NaN and Infinity fail to load."""
    return json.loads(raw, parse_constant=_reject_constant)


@pytest.fixture()
def cheap_config(tmp_path):
    path = tmp_path / "point.cfg"
    path.write_text(CHEAP_CONFIG)
    return str(path)


# -- config parsing ----------------------------------------------------------


def test_parse_config_round_trip(cheap_config):
    cfg = parse_config(cheap_config)
    assert cfg.R == 1.1
    assert cfg.Q(0.0) == pytest.approx(1.0)
    assert cfg.P1.coeffs == (0.0, 0.6, 0.4)
    assert cfg.P2.coeffs == (0.0, 0.0, 0.0, 0.05)


def test_parse_config_error_messages_name_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("R = 1.0\nwhatever = 3\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(str(path))
    path.write_text("R = 1.0\nR = 2.0\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(str(path))
    path.write_text("R = fast\np1_coeffs = 1.0\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(str(path))
    path.write_text("just some text\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(str(path))
    path.write_text("theta1 = 0.5\n")
    with pytest.raises(ConfigError, match="R"):
        parse_config(str(path))


def test_parser_defaults_are_the_library_constants(tmp_path):
    args = cli.build_parser().parse_args(["optimize"])
    assert args.d2 == 5
    assert args.max_iterations == optimize.MAX_ITERATIONS
    assert args.seeds == 0
    assert (args.theta1, args.theta2) == (presets.THETA1, presets.THETA2)
    path = tmp_path / "defaults.cfg"
    path.write_text("R = 1.1\np1_coeffs = 0.6, 0.4\n")
    cfg = parse_config(str(path))
    assert (cfg.theta1, cfg.theta2) == (presets.THETA1, presets.THETA2)


def test_readme_config_example_is_the_config_format(tmp_path):
    # the README's example names every key once, so a key added to or removed
    # from one of the two and not the other fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config format", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    parse_config(str(path))
    keys = {line.split("#", 1)[0].split("=", 1)[0].strip() for line in block.splitlines()}
    assert keys - {""} == cli.CONFIG_KEYS


def test_readme_config_example_gives_a_positive_bound(tmp_path):
    # Q(0) = 1.002 as in the presets, so eval renormalizes Q and reports the
    # bound near the published one; q_const = 1.0 gave kappa = -0.0293
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config format", 1)[1]
    path = tmp_path / "readme.cfg"
    path.write_text(re.search(r"```\n(.*?)```", section, re.DOTALL).group(1))
    assert parse_config(str(path)).Q(0.0) == pytest.approx(1.002, abs=1e-12)
    out = tmp_path / "report.json"
    assert main(["eval", str(path), "--json", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["kappa"] == pytest.approx(0.4089575965622455, abs=1e-12)


def test_readme_library_example_prints_the_headline(capsys):
    # evaluate applies Q(0) = 1 itself: kappa at the verbatim Q, where the
    # printed Q(0) is 1.002, is 0.408856695745
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    exec(block, {})
    printed = float(capsys.readouterr().out)
    assert abs(printed - 0.410512143710) <= 1e-12
    shown = re.search(r"print\(report\.kappa\)\s+# (\S+)", block).group(1)
    assert abs(float(shown) - printed) <= 1e-12


def test_parse_config_requires_p1(tmp_path):
    path = tmp_path / "nop1.cfg"
    path.write_text("R = 1.0\n")
    with pytest.raises(ConfigError, match="p1_coeffs"):
        parse_config(str(path))


def test_parse_config_rejects_invalid_polynomials(tmp_path):
    path = tmp_path / "badp1.cfg"
    path.write_text("R = 1.0\np1_coeffs = 0.5, 0.6\n")  # P1(1) = 1.1, not normalized
    with pytest.raises(ConfigError):
        parse_config(str(path))


# -- eval subcommand ---------------------------------------------------------


def test_eval_writes_schema_1_report(cheap_config, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["eval", cheap_config, "--json", str(out)]) == EXIT_OK
    payload = load_report(out.read_text())
    assert payload["schema"] == 1
    assert payload["kappa"] == pytest.approx(1.0 - math.log(payload["c"]) / 1.1)
    text = capsys.readouterr().out
    assert "kappa" in text


def test_eval_is_deterministic(cheap_config, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["eval", cheap_config, "--json", str(a)]) == EXIT_OK
    assert main(["eval", cheap_config, "--json", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_empty_p2_zeroes_cross_terms(tmp_path):
    path = tmp_path / "nop2.cfg"
    path.write_text("R = 1.1\np1_coeffs = 0.6, 0.4\n")
    out = tmp_path / "r.json"
    assert main(["eval", str(path), "--json", str(out)]) == EXIT_OK
    payload = load_report(out.read_text())
    assert payload["c12"] == 0.0
    assert payload["c2"] == 0.0


# -- exit codes --------------------------------------------------------------


def test_missing_config_file_is_config_error(capsys):
    assert main(["eval", "/nonexistent/path.cfg"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_non_utf8_config_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"R = 1.28\np1_coeffs = 1.0\xff\n")
    assert main(["eval", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {path}: not UTF-8 text" in err


def test_a_byte_order_mark_before_the_first_key_is_read_past(tmp_path, capsys):
    # editors on Windows save UTF-8 with a leading BOM; the file gives the
    # report, stdout and JSON, of the same file without it
    text = CHEAP_CONFIG.split("\n", 1)[1]  # the first line a key
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    reports, outs = [], []
    for path in (plain, marked):
        out = tmp_path / f"{path.stem}.json"
        assert main(["eval", str(path), "--json", str(out)]) == EXIT_OK
        reports.append(out.read_bytes())
        outs.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("preset", ["nu", "kappa_star"])
def test_unknown_preset_is_config_error(capsys, preset):
    # kappa-star has one spelling, the one --preset's help names
    assert main(["reproduce", "--preset", preset]) == EXIT_CONFIG
    assert f"unknown preset {preset!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["R = inf", "R = nan", "theta1 = inf", "p2_coeffs = nan", "q_const = inf",
     "q_odd_coeffs = 0.5, nan"],
)
def test_non_finite_config_is_config_error(tmp_path, capsys, line):
    path = tmp_path / "nonfinite.cfg"
    lines = {"R": "R = 1.1", "p1_coeffs": "p1_coeffs = 0.6, 0.4"}
    lines[line.split(" ")[0]] = line
    path.write_text("\n".join(lines.values()) + "\n")
    assert main(["eval", str(path)]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


MAX_NODES_VALUES = ["0", "8", "12", "32", "257", "300", "12.5"]


@pytest.mark.parametrize(
    "key, value",
    [("quad_max_nodes", value) for value in MAX_NODES_VALUES]
    + [("quad_tol", "1e-10"), ("quad_tol", "1e-7")],
    ids=MAX_NODES_VALUES + ["quad_tol = 1e-10", "quad_tol = 1e-7"],
)
def test_quad_max_nodes_outside_the_rules_is_config_error(tmp_path, capsys, key, value):
    # the node budget is the ladder's only bound and quad.DEFAULT_TOL its
    # only tolerance: neither is a key any more, so every value of them, the
    # ones that were in range included, is an unknown key
    path = tmp_path / "order.cfg"
    path.write_text(f"R = 1.1\np1_coeffs = 0.6, 0.4\n{key} = {value}\n")
    assert main(["eval", str(path)]) == EXIT_CONFIG
    assert f"line 3: unknown key {key!r}" in capsys.readouterr().err


OVERFLOWING_CONFIGS = [
    # e^(2Rv) overflows at the first order
    ("R = 1e308\np1_coeffs = 0.6, 0.4\n", quad.N_SEQUENCE_START),
    # c1's kernel overflows at the second order only, after a finite first
    ("R = 355\nq_odd_coeffs = 0.604\nq_const = 0.396\np1_coeffs = 1\n", 18),
    # the published kappa polynomials at R = 800
    ("R = 800\nq_const = 0.492\nq_odd_coeffs = 0.604, -0.08, -0.06, 0.046\n"
     "p1_coeffs = 0.842706, 0.00845721, 0.093117, 0.118788, -0.0630687\n"
     "p2_coeffs = 0.0245412, -0.00635566, 0.00603128\n", quad.N_SEQUENCE_START),
    # c2's kernel overflows in P2 squared
    ("R = 1.28\np1_coeffs = 1\np2_coeffs = 1e300\n", quad.N_SEQUENCE_START),
]


def test_overflowing_integrand_is_numerical_error(tmp_path, capsys):
    # the ladder stops at the first non-finite order and lists it with no
    # delta; numpy's overflow warnings (errors under this suite's
    # filterwarnings) stay silent, so stderr is the one failure line
    for text, n in OVERFLOWING_CONFIGS:
        path = tmp_path / "huge.cfg"
        path.write_text(text)
        assert main(["eval", str(path)]) == EXIT_NUMERICAL, text
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical failure: non-finite integral"), err
        assert f"non-finite integral at n = {n}: trace [" in err and f"({n}, None)]" in err, err
        assert "nan" not in err, err


def test_non_convergence_is_numerical_error(tmp_path, capsys, monkeypatch):
    # no input makes a ladder fail at the fixed tolerance (R up to 350
    # converges, and the rules are exact enough for c1's ladder to reach a
    # delta of 0), so a node budget that holds only the first rung stands in
    monkeypatch.setattr(quad, "NODE_BUDGET", quad.N_SEQUENCE_START)
    path = tmp_path / "strict.cfg"
    path.write_text("R = 1.1\np1_coeffs = 0.6, 0.4\n")
    assert main(["eval", str(path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err and "did not converge" in err and "trace [(12, None)" in err


def test_reproduce_eval_and_verify_make_no_lapack_call(tmp_path, monkeypatch):
    # the Gauss rules come from Newton's method, not from leggauss's
    # eigenvalue solve, so none of these commands starts LAPACK
    def refuse(*args, **kwargs):
        raise RuntimeError("LAPACK called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for rule in (quad.gauss_rule, oracle._gauss_rule, oracle._gauss_rule_ld):
        rule.cache_clear()
    path = tmp_path / "point.cfg"
    path.write_text(CHEAP_CONFIG)
    assert main(["reproduce", "--preset", "kappa"]) == EXIT_OK
    assert main(["eval", str(path)]) == EXIT_OK
    assert all(result.passed for result in oracle.run_suite("all"))


@pytest.mark.parametrize("R", ["1e-320", "5e-324"])
def test_non_finite_kappa_is_numerical_error(tmp_path, capsys, R):
    # c is finite, but log(c)/R overflows: no report, exit 3
    path = tmp_path / "tiny.cfg"
    path.write_text(f"R = {R}\np1_coeffs = 0.6, 0.4\n")
    out = tmp_path / "r.json"
    assert main(["eval", str(path), "--json", str(out)]) == EXIT_NUMERICAL
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["eval", "{cfg}"],
     ["optimize", "--theta1", "1e-200", "--theta2", "5e-201", "--d1", "2", "--d2", "3",
      "--q-degree", "1", "--max-iterations", "2", "--seeds", "0"]],
    ids=["eval", "optimize"],
)
def test_tiny_theta1_ends_in_a_number_or_exit_3(tmp_path, capsys, argv):
    # theta1^2 underflows to 0 at theta1 = 1e-200; only the ratio enters c12
    path = tmp_path / "tiny_theta.cfg"
    path.write_text("theta1 = 1e-200\ntheta2 = 5e-201\nR = 1.1\n"
                    "p1_coeffs = 0.6, 0.4\np2_coeffs = 0.03\n")
    out = tmp_path / "r.json"
    argv = [arg.format(cfg=path) for arg in argv] + ["--json", str(out)]
    code = main(argv)
    assert code in (EXIT_OK, EXIT_NUMERICAL)
    if code == EXIT_OK:
        assert math.isfinite(load_report(out.read_text())["kappa"])
    capsys.readouterr()


@pytest.mark.parametrize("seeds", ["-1", "1", "3", "4"])
def test_seeds_other_than_0_is_a_usage_error(capsys, seeds):
    # a search has one start, so --seeds takes only 0, which nothing reads
    with pytest.raises(SystemExit) as exc_info:
        main(["optimize", "--no-psi2", "--seeds", seeds])
    assert exc_info.value.code == EXIT_CONFIG
    assert "argument --seeds: invalid choice" in capsys.readouterr().err


def test_no_psi2_with_d2_is_a_usage_error(capsys):
    # --no-psi2 is d2 = 0, so a second d2 contradicts it instead of being ignored
    with pytest.raises(SystemExit) as exc_info:
        main(["optimize", "--no-psi2", "--d2", "2"])
    assert exc_info.value.code == EXIT_CONFIG
    assert "not allowed with argument --no-psi2" in capsys.readouterr().err
    assert cli.build_parser().parse_args(["optimize", "--no-psi2"]).d2 == 0


@pytest.mark.parametrize(
    "args, reason",
    [
        (["--d1", "0"], "d1 must be >= 1"),
        (["--d2", "2"], "d2 must be 0 or >= 3"),
        (["--q-degree", "8"], "q_degree must be a positive odd integer"),
        (["--max-iterations", "-1"], "max_iterations must be >= 0"),
        (["--mode", "simple", "--q-degree", "5"], "simple mode searches a linear Q"),
        (["--no-psi2", "--theta1", "0.9"], "theta1 must be <= 4/7"),
        (["--no-psi2", "--theta2", "0.6"], "theta2 must be < theta1"),
        (["--no-psi2", "--theta1", "nan"], "theta1 and theta2 must be finite"),
        (["--no-psi2", "--d1", "300"], f"P1 degree 300 exceeds {quad.N_MAX - 1}"),
        (["--no-psi2", "--q-degree", "25", "--max-iterations", "0"], "q_degree 25 exceeds 23"),
        (["--no-psi2", "--q-degree", "651", "--max-iterations", "0"], "q_degree 651 exceeds 23"),
    ],
    ids=["d1=0", "d2=2", "q-degree=8", "max-iterations=-1", "simple-q-degree=5",
         "theta1=0.9", "theta2=0.6", "theta1=nan", "d1=300", "q-degree=25", "q-degree=651"],
)
def test_unusable_search_inputs_are_config_errors(monkeypatch, capsys, args, reason):
    # rejected before any outer step, with the reason, instead of a search
    # whose every tensor build fails or that silently runs something else;
    # a build is recorded, not run (an unguarded q-degree 651 build would
    # take more memory than the machine has)
    builds = []
    monkeypatch.setattr(optimize, "build_tensor", lambda *args, **kwargs: builds.append(args))
    assert main(["optimize", *args]) == EXIT_CONFIG
    assert reason in capsys.readouterr().err
    assert not builds


@pytest.mark.parametrize("q_degree", [325, 401, 645])
def test_q_degrees_whose_kernel_products_overflow_are_config_errors(monkeypatch, capsys, q_degree):
    # degrees at which a monomial basis's kernel products overflowed (3^k
    # coefficients squared) stay refused before any build: Q held in y has no
    # such overflow, and the degree cap refuses them first
    builds = []
    monkeypatch.setattr(optimize, "build_tensor", lambda *args, **kwargs: builds.append(args))
    argv = ["optimize", "--no-psi2", "--q-degree", str(q_degree), "--max-iterations", "0"]
    assert main(argv) == EXIT_CONFIG
    assert f"q_degree {q_degree} exceeds {optimize.Q_DEGREE_MAX}" in capsys.readouterr().err
    assert not builds


def test_the_largest_q_degree_is_built(monkeypatch):
    # 23 passes every check and reaches the first tensor build; 25 above
    # exits 2 without one
    class Built(Exception):
        pass

    def build(*args, **kwargs):
        raise Built

    monkeypatch.setattr(optimize, "build_tensor", build)
    with pytest.raises(Built):
        optimize.optimize_full(4.0 / 7.0, 0.5, 5, 0, optimize.Q_DEGREE_MAX, max_iterations=0)
    assert optimize.Q_DEGREE_MAX == 23


def test_p1_degree_beyond_the_exact_u_rule_is_config_error(tmp_path, capsys):
    # c1's u-rule of deg P1 + 1 nodes must be a rule quad can build: the
    # config is refused, exit 2, before any quadrature
    path = tmp_path / "deg300.cfg"
    path.write_text("R = 1.1\np1_coeffs = " + ", ".join(["0"] * 299 + ["1"]) + "\n")
    assert main(["eval", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"P1 degree 300 exceeds {quad.N_MAX - 1}" in err and "numerical failure" not in err
    optimize.check_degrees(quad.N_MAX - 1, 0)
    with pytest.raises(ConfigError, match=f"exceeds {quad.N_MAX - 1}"):
        optimize.check_degrees(quad.N_MAX, 0)


def test_verify_pass_and_fail_exit_codes(monkeypatch, capsys):
    passing = [oracle.CheckResult.from_error("stub", {}, 0.0, 1.0)]
    failing = passing + [oracle.CheckResult.from_error("stub2", {}, 2.0, 1.0)]
    monkeypatch.setattr(cli.oracle, "run_suite", lambda name: passing)
    assert main(["verify", "--suite", "mobius"]) == EXIT_OK
    assert "1/1 checks passed" in capsys.readouterr().out
    monkeypatch.setattr(cli.oracle, "run_suite", lambda name: failing)
    assert main(["verify", "--suite", "mobius"]) == EXIT_VERIFY
    assert "1/2 checks passed" in capsys.readouterr().out


def test_verify_json_lists_checks_in_run_order(tmp_path, monkeypatch, capsys):
    results = [
        oracle.CheckResult.from_error("first", {"x": 1.0}, 0.5, 1.0),
        oracle.CheckResult.from_error("second", {}, 2.0, 1.0),
        oracle.CheckResult.from_error("third", {}, 0.0, 0.0),
    ]
    monkeypatch.setattr(cli.oracle, "run_suite", lambda name: results)
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "euler", "--json", str(out)]) == EXIT_VERIFY
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[-1] == "2/3 checks passed"
    assert str(out) not in stdout
    first = out.read_bytes()
    assert load_report(first) == {
        "schema": 1, "suite": "euler", "passed": 2, "total": 3,
        "checks": [
            {"name": "first", "error": 0.5, "threshold": 1.0, "passed": True},
            {"name": "second", "error": 2.0, "threshold": 1.0, "passed": False},
            {"name": "third", "error": 0.0, "threshold": 0.0, "passed": True},
        ],
    }
    main(["verify", "--suite", "euler", "--json", str(out)])
    assert out.read_bytes() == first
    # stdout is the same with and without the file
    capsys.readouterr()
    main(["verify", "--suite", "euler"])
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("suite", ["contour", "qop"])
def test_verify_contour_suites_are_deterministic(suite, tmp_path, capsys):
    # the folded contour sums run in a fixed node order: two runs in one
    # process write the same bytes
    outputs = []
    for run in range(2):
        out = tmp_path / f"verify{run}.json"
        assert main(["verify", "--suite", suite, "--json", str(out)]) == EXIT_OK
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


# -- reproduce ---------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [["reproduce", "--preset", "kappa"],
     ["optimize", "--mode", "simple", "--d1", "3", "--d2", "3", "--max-iterations", "2",
      "--seeds", "0"],
     ["optimize", "--no-psi2"]],
    ids=["reproduce", "optimize", "optimize-no-psi2"],
)
def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path, argv):
    # each run is a fresh interpreter with the thread counts set on it alone
    src = Path(cli.__file__).resolve().parents[1]
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}.json"
        subprocess.run([sys.executable, "-m", "critline.cli", *argv, "--json", str(out)],
                       env=env, check=True, capture_output=True)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


# Settings that make numpy and OpenBLAS round as on another machine: numpy
# without its AVX-512 exp, log and power loops, and OpenBLAS on its Haswell
# kernels.  Each applies to the test's own subprocesses alone.
_MACHINE_SETTINGS = {
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "haswell-blas": {"OPENBLAS_CORETYPE": "Haswell"},
}

# What a subprocess's numpy runs on: the CPU features it dispatches to, and
# the core OpenBLAS picked (None where the library or its name is not found)
_MACHINE_PROBE = """
import ctypes, json
import numpy
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
corename = None
try:
    paths = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                corename = getter().decode()
except OSError:
    pass
print(json.dumps({"features": __cpu_features__, "corename": corename}))
"""


def _machine_env(settings):
    """The environment with only ``settings`` of the machine settings, and
    this checkout's sources first on the path."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items()
           if not any(key in s for s in _MACHINE_SETTINGS.values())}
    env.update(settings)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _probe_machine(settings):
    run = subprocess.run([sys.executable, "-c", _MACHINE_PROBE], env=_machine_env(settings),
                         capture_output=True, text=True)
    if run.returncode:
        return None, (run.stderr.strip().splitlines() or ["no output"])[-1]
    return json.loads(run.stdout), None


def _why_not_honoured(settings):
    """Why numpy or the BLAS cannot honour ``settings`` here, or None."""
    native, _ = _probe_machine({})
    probed, error = _probe_machine(settings)
    if probed is None:
        return f"numpy does not start under {settings}: {error}"
    if "NPY_DISABLE_CPU_FEATURES" in settings:
        names = settings["NPY_DISABLE_CPU_FEATURES"].split()
        present = [name for name in names if native["features"].get(name)]
        if not present:
            return f"this CPU and numpy build dispatch to none of {names}"
        if any(probed["features"].get(name) for name in present):
            return f"numpy still dispatches to some of {present}"
    if "OPENBLAS_CORETYPE" in settings:
        core = settings["OPENBLAS_CORETYPE"]
        if native["corename"] is None:
            return "numpy's BLAS reports no OpenBLAS core name"
        if (probed["corename"] or "").lower() != core.lower():
            return (f"OpenBLAS runs on {probed['corename']} under OPENBLAS_CORETYPE={core} "
                    "(a build without DYNAMIC_ARCH, or a CPU without that core's instructions)")
        if native["corename"].lower() == core.lower():
            return f"OpenBLAS already runs on {core} without the setting"
    return None


_PORTABLE_COMMANDS = {
    "kappa": ["reproduce", "--preset", "kappa"],
    "kappa-star": ["reproduce", "--preset", "kappa-star"],
    "no-psi2": ["optimize", "--no-psi2"],
}


def _reports_under(settings, directory):
    directory.mkdir()
    reports = {}
    for name, argv in _PORTABLE_COMMANDS.items():
        out = directory / f"{name}.json"
        subprocess.run([sys.executable, "-m", "critline", *argv, "--json", str(out)],
                       env=_machine_env(settings), check=True, capture_output=True)
        reports[name] = load_report(out.read_text())
    return reports


@pytest.mark.slow
@pytest.mark.parametrize("setting", list(_MACHINE_SETTINGS))
def test_kappa_does_not_depend_on_the_math_libraries(setting, tmp_path):
    # report bytes are reproducible per machine and numpy/BLAS build only:
    # under these settings the search's R moves by about 2.5e-7 and kappa by
    # about 1e-15.  kappa holds to 1e-12 and R to the search's R_TOL
    settings = _MACHINE_SETTINGS[setting]
    reason = _why_not_honoured(settings)
    if reason:
        pytest.skip(reason)
    native = _reports_under({}, tmp_path / "native")
    other = _reports_under(settings, tmp_path / setting)
    for name in _PORTABLE_COMMANDS:
        assert abs(other[name]["kappa"] - native[name]["kappa"]) <= 1e-12, name
        assert abs(other[name]["R"] - native[name]["R"]) <= optimize.R_TOL, name


def test_importing_the_cli_does_not_import_mpmath():
    # only the oracle uses mpmath, and it imports it inside each function, so
    # reproduce, eval and optimize never pay mpmath's import
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, critline.cli; print(sorted(m for m in sys.modules if 'mpmath' in m))"
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [["optimize", "--mode", "simple", "--d1", "3", "--d2", "3", "--max-iterations", "2",
      "--seeds", "0"],
     ["optimize", "--no-psi2"],
     ["verify", "--suite", "contour"],
     ["reproduce", "--preset", "kappa"],
     ["verify", "--suite", "jets"]],
    ids=["optimize-budget-2", "optimize-no-psi2", "verify-contour", "reproduce-kappa",
         "verify-jets"],
)
def test_no_command_imports_numpy_random_or_the_jet_ring(argv):
    # numpy 2 imports numpy.random on first use, and nothing draws: the search
    # has one start and the contour suite's parameters are pinned.  numpy 1
    # imports it with numpy, so only modules beyond numpy's own count.  The
    # jet ring is kept for the benchmark's tracer only, so no command may
    # come to depend on it
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys, numpy; before = set(sys.modules); import critline.cli; "
            f"assert critline.cli.main({argv!r}) == 0; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.startswith('numpy.random') or m == 'critline.jet'))")
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.splitlines()[-1] == "[]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_a_repeated_command_reuses_the_heap_pages_it_freed():
    # at glibc's default trim threshold the repeat faults about 590 pages
    # back in (600 for the first search after ``optimize --no-psi2``); main
    # keeps freed heap in the process, so the repeat touches almost no new page
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    search = ["optimize", "--mode", "simple", "--d1", "3", "--d2", "3", "--max-iterations", "2"]
    code = ("import contextlib, io, resource, critline.cli as cli\n"
            "faults = []\n"
            f"for argv in {[['optimize', '--no-psi2'], search, search]!r}:\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(faults[-1])")
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert int(run.stdout.splitlines()[-1]) < 100


def test_python_dash_m_runs_the_cli(capsys):
    # ``python -m critline`` is cli.main: the same stdout and the same exit code
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for argv, code in ((["reproduce", "--preset", "kappa-star"], cli.EXIT_OK),
                       (["reproduce", "--preset", "nope"], cli.EXIT_CONFIG)):
        run = subprocess.run([sys.executable, "-m", "critline", *argv], env=env,
                             capture_output=True, text=True)
        assert cli.main(argv) == code
        assert run.returncode == code
        assert run.stdout == capsys.readouterr().out


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_reproduce_writes_the_library_report(preset, tmp_path, monkeypatch):
    # reproduce is moments.evaluate and the report's JSON, one blocks pass
    want = json.dumps(moments.evaluate(PRESETS[preset]()).to_dict(), indent=2) + "\n"
    calls = []
    real_blocks = moments.blocks

    def counting_blocks(*args):
        calls.append(args)
        return real_blocks(*args)

    monkeypatch.setattr(moments, "blocks", counting_blocks)
    out = tmp_path / "rep.json"
    assert main(["reproduce", "--preset", preset, "--json", str(out)]) == EXIT_OK
    assert len(calls) == 1
    assert out.read_text() == want


def test_q0_of_0_is_config_error(tmp_path, capsys):
    path = tmp_path / "q0.cfg"
    path.write_text("R = 1.1\nq_const = -0.3\nq_odd_coeffs = 0.3\np1_coeffs = 0.6, 0.4\n")
    assert main(["eval", str(path)]) == EXIT_CONFIG
    assert "cannot renormalize: Q(0) = 0\n" in capsys.readouterr().err


def test_an_overflowing_q0_is_config_error(tmp_path, capsys):
    # finite coefficients in y whose sum, Q(0), overflows: no finite rescaling
    # exists (Q / inf would be the zero polynomial, with kappa = 1)
    path = tmp_path / "q0.cfg"
    path.write_text("R = 1.1\nq_const = 1e308\nq_odd_coeffs = 1e308\np1_coeffs = 0.6, 0.4\n")
    assert main(["eval", str(path)]) == EXIT_CONFIG
    assert "cannot renormalize: Q(0) = inf" in capsys.readouterr().err


def test_a_q0_whose_reciprocal_overflows_is_config_error(tmp_path, capsys):
    # every coefficient is finite, but 1 / Q(0) is not: the exit names Q(0),
    # not a non-finite coefficient of the rescaled Q
    path = tmp_path / "q0.cfg"
    path.write_text("R = 1.28\np1_coeffs = 1.0\nq_const = 1e-320\n")
    assert main(["eval", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: cannot renormalize: Q(0) = 9.99989e-321\n"


def test_a_huge_q0_leaves_out_the_verbatim_kappa(tmp_path, capsys):
    # Q(0)^2 overflows in c_verbatim = 1 + Q(0)^2 (c - 1): the normalized
    # point's kappa is reported, and c_verbatim and kappa_verbatim are left
    # out, as kappa_p1_normalized is when it is not finite
    path = tmp_path / "huge.cfg"
    path.write_text("R = 1.1\nq_const = 1e200\np1_coeffs = 0.6, 0.4\n")
    out = tmp_path / "r.json"
    assert main(["eval", str(path), "--json", str(out)]) == EXIT_OK
    report = load_report(out.read_text())
    assert math.isfinite(report["kappa"])
    assert report["Q"] == [1.0]
    diagnostics = report["diagnostics"]
    assert diagnostics["q0_verbatim"] == 1e200
    assert "c_verbatim" not in diagnostics and "kappa_verbatim" not in diagnostics
    assert "unnormalized" not in capsys.readouterr().out


def config_of(report):
    """A report's point as a config: its "Q" is ascending in y = 1 - 2x, so
    entry 0 is q_const and entries 1, 3, 5, ... are q_odd_coeffs."""
    Q = report["Q"]
    assert Q[2::2] == [0.0] * len(Q[2::2])
    lists = {"q_odd_coeffs": Q[1::2], "p1_coeffs": report["P1"][1:], "p2_coeffs": report["P2"][3:]}
    lines = [f"{key} = {report[key]!r}" for key in ("theta1", "theta2", "R")]
    lines += [f"mode = {report['mode']}", f"q_const = {Q[0]!r}"]
    lines += [f"{key} = {', '.join(map(repr, values))}" for key, values in lists.items()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv", [
    ["reproduce", "--preset", "kappa"],
    ["optimize", "--mode", "simple", "--d1", "3", "--d2", "3", "--max-iterations", "2"],
    ["optimize", "--no-psi2", "--q-degree", "9", "--max-iterations", "0"],
], ids=["kappa", "simple-search", "q9-search"])
def test_a_report_fed_back_as_a_config_gives_its_kappa(tmp_path, capsys, argv):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main([*argv, "--json", str(first)]) == EXIT_OK
    report = load_report(first.read_text())
    path = tmp_path / "point.cfg"
    path.write_text(config_of(report))
    assert main(["eval", str(path), "--json", str(second)]) == EXIT_OK
    again = load_report(second.read_text())
    assert abs(again["kappa"] - report["kappa"]) <= 1e-15
    assert again["Q"] == report["Q"]
    capsys.readouterr()


# -- the two endings, property-tested ----------------------------------------
#
# Whatever a config file holds, eval ends in one of two ways: a report whose
# kappa is 1 - log(c)/R with every ladder certified, or one stderr line and
# exit 2 (a rejected input) or 3 (an uncertified integral).  numpy warnings
# are errors in this suite, so a warning on the way fails the test too.

NON_FINITE_TOKENS = ["inf", "-inf", "nan", "1e309"]


def magnitudes(low: int = -300, high: int = 300):
    """Signed numbers from 10^low to about 10^(high + 1), as config text."""
    return st.builds(lambda sign, mantissa, exponent: f"{sign}{mantissa!r}e{exponent}",
                     st.sampled_from(["", "-"]), st.floats(1.0, 9.9), st.integers(low, high))


def numbers(typical, wild: bool):
    """Config text for one number: a typical value, or in a wild config
    also any magnitude or a token that float() reads as infinite or nan."""
    typical = typical.map(repr)
    if not wild:
        return typical
    return st.one_of(typical, typical, magnitudes(), st.sampled_from(NON_FINITE_TOKENS))


@st.composite
def config_texts(draw, r_values):
    wild = draw(st.booleans())

    def number_lists(min_size, max_size):
        return st.lists(numbers(st.floats(-2.0, 2.0), wild),
                        min_size=min_size, max_size=max_size).map(", ".join)

    def theta_values(low, bound):
        # at its bound, within and past its slack, and anything else
        edges = [bound, bound + 5e-10, bound + 1e-8, bound * (1.0 - 1e-12), 0.0, -bound]
        typical = numbers(st.floats(low, bound), wild)
        return st.one_of(st.sampled_from(list(map(repr, edges))), typical, typical)

    # P1's coefficients of x, x^2, ...: any, or ones that sum to 1 to rounding
    summing_to_1 = st.lists(st.floats(-2.0, 2.0), max_size=6).map(
        lambda head: ", ".join(map(repr, [*head, 1.0 - math.fsum(head)])))
    p1 = st.one_of(summing_to_1, summing_to_1, number_lists(1, 7))
    lines = {"R": draw(r_values), "p1_coeffs": draw(p1)}
    optional = {
        "theta1": theta_values(0.25, moments.THETA1_MAX),
        "theta2": theta_values(0.0, moments.THETA2_MAX),
        "q_const": numbers(st.floats(0.0, 1.0), wild),
        "q_odd_coeffs": number_lists(0, 5),  # Q of degree up to 9
        "p2_coeffs": number_lists(0, 4),
        "mode": st.sampled_from([moments.ALL_ZEROS, moments.SIMPLE_ZEROS]),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            lines[key] = draw(values)
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


def assert_one_of_two_endings(text):
    with tempfile.TemporaryDirectory() as directory:
        config, report = Path(directory, "point.cfg"), Path(directory, "report.json")
        config.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["eval", str(config), "--json", str(report)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), text
        if code != EXIT_OK:
            lines = err.getvalue().split("\n")
            assert len(lines) == 2 and lines[0] and not lines[1], (text, err.getvalue())
            return
        payload = load_report(report.read_text())
    kappa, want = payload["kappa"], 1.0 - math.log(payload["c"]) / payload["R"]
    assert math.isfinite(kappa), text
    assert abs(kappa - want) <= 1e-12 * max(1.0, abs(want)), text
    tol = payload["diagnostics"]["quad_tol"]
    for name in ("c1_trace", "c12_trace", "c2_trace"):
        trace = payload["diagnostics"][name]
        assert not trace or trace[-1][1] < tol, (text, name, trace)


TYPICAL_R = st.floats(0.1, 10.0).map(repr)
FAST_R = st.one_of(TYPICAL_R, TYPICAL_R, magnitudes(-300, 0), st.sampled_from(["10", "0", "-1.3"]))
ANY_R = st.one_of(FAST_R, magnitudes(), st.sampled_from(NON_FINITE_TOKENS))
_ENDINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(_ENDINGS, max_examples=25)
@given(config_texts(FAST_R))
def test_every_config_ends_in_a_report_or_one_error_line(text):
    assert_one_of_two_endings(text)


@pytest.mark.slow
@settings(_ENDINGS, max_examples=200)
@given(config_texts(ANY_R))
def test_every_config_ends_in_a_report_or_one_error_line_at_any_r(text):
    assert_one_of_two_endings(text)
