"""CLI behavior: config parsing, reports, exit codes, determinism."""

import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("preset", ["nu", "kappa_star"])
def test_unknown_preset_is_config_error(capsys, preset):
    # kappa-star has one spelling, the one --preset's help names
    assert main(["reproduce", "--preset", preset]) == EXIT_CONFIG
    assert f"unknown preset {preset!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["R = inf", "R = nan", "theta1 = inf", "p2_coeffs = nan"],
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
    # converges), so an unreachable one stands in for it
    monkeypatch.setattr(quad, "DEFAULT_TOL", 1e-18)
    path = tmp_path / "strict.cfg"
    path.write_text("R = 1.1\np1_coeffs = 0.6, 0.4\n")
    assert main(["eval", str(path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err and "did not converge" in err and "trace [(12, None)" in err


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
        (["--no-psi2", "--q-degree", "651", "--max-iterations", "0"], "(1 - 2x)^647 overflows"),
    ],
    ids=["d1=0", "d2=2", "q-degree=8", "max-iterations=-1", "simple-q-degree=5",
         "theta1=0.9", "theta2=0.6", "theta1=nan", "d1=300", "q-degree=651"],
)
def test_unusable_search_inputs_are_config_errors(monkeypatch, capsys, args, reason):
    # rejected before any outer step, with the reason, instead of a search
    # whose every tensor build fails or that silently runs something else
    builds = []
    real_build = optimize.build_tensor

    def counted_build(*build_args, **kwargs):
        builds.append(build_args)
        return real_build(*build_args, **kwargs)

    monkeypatch.setattr(optimize, "build_tensor", counted_build)
    assert main(["optimize", *args]) == EXIT_CONFIG
    assert reason in capsys.readouterr().err
    assert not builds


@pytest.mark.parametrize("q_degree", [325, 401, 645])
def test_q_degrees_whose_kernel_products_overflow_are_config_errors(monkeypatch, capsys, q_degree):
    # from about 401 on, the c1 kernel's products of two basis values
    # overflowed during the first build (numpy RuntimeWarnings, which fail a
    # test here, then exit 3); every degree whose bound (3^k)^2 overflows is
    # refused before any build
    builds = []
    monkeypatch.setattr(optimize, "build_tensor", lambda *args, **kwargs: builds.append(args))
    argv = ["optimize", "--no-psi2", "--q-degree", str(q_degree), "--max-iterations", "0"]
    assert main(argv) == EXIT_CONFIG
    assert f"q_degree {q_degree} is too large" in capsys.readouterr().err
    assert not builds


def test_the_largest_q_degree_whose_kernel_products_are_bounded_is_built(monkeypatch):
    class Built(Exception):
        pass

    def build(*args, **kwargs):
        raise Built

    monkeypatch.setattr(optimize, "build_tensor", build)
    with pytest.raises(Built):
        optimize.optimize_full(4.0 / 7.0, 0.5, 5, 0, 323, max_iterations=0)


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
     ["verify", "--suite", "contour"]],
    ids=["optimize-budget-2", "optimize-no-psi2", "verify-contour"],
)
def test_no_command_imports_numpy_random(argv):
    # numpy 2 imports numpy.random on first use, and nothing draws: the search
    # has one start and the contour suite's parameters are pinned.  numpy 1
    # imports it with numpy, so only modules beyond numpy's own count
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys, numpy; before = set(sys.modules); import critline.cli; "
            f"assert critline.cli.main({argv!r}) == 0; "
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.random')))")
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.splitlines()[-1] == "[]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_a_repeated_command_reuses_the_heap_pages_it_freed():
    # at glibc's default trim threshold the repeat faulted about 640 pages
    # back in (4,700 for the first search after ``optimize --no-psi2``); main
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


def test_reproduce_normalizes_preset_q(tmp_path, monkeypatch):
    # stub the heavy evaluation: reproduce must renormalize Q(0) = 1.002 -> 1,
    # evaluate once, and derive the verbatim values from the normalized report
    from critline.moments import KappaReport

    captured = []

    def fake_evaluate(cfg):
        captured.append(cfg.Q(0.0))
        return KappaReport(c1=2.0, c12=0.0, c2=0.0, c=2.0, kappa=0.4, config=cfg)

    monkeypatch.setattr(moments, "evaluate", fake_evaluate)
    out = tmp_path / "rep.json"
    assert main(["reproduce", "--preset", "kappa", "--json", str(out)]) == EXIT_OK
    assert captured == [pytest.approx(1.0, abs=1e-12)]  # the normalized run only
    payload = load_report(out.read_text())
    diagnostics = payload["diagnostics"]
    assert diagnostics["q0_verbatim"] == pytest.approx(1.002)
    assert diagnostics["c_verbatim"] == pytest.approx(1.0 + 1.002**2 * (2.0 - 1.0), rel=1e-14)
    assert diagnostics["kappa_verbatim"] == pytest.approx(
        1.0 - math.log(diagnostics["c_verbatim"]) / 1.28, rel=1e-14
    )


def test_reproduce_evaluates_once(tmp_path, monkeypatch):
    # the verbatim diagnostics follow from the one normalized evaluation and
    # agree with a direct evaluation of the verbatim preset
    calls = []
    real_evaluate = moments.evaluate

    def counting_evaluate(cfg, *args, **kwargs):
        calls.append(cfg.Q(0.0))
        return real_evaluate(cfg, *args, **kwargs)

    monkeypatch.setattr(moments, "evaluate", counting_evaluate)
    out = tmp_path / "rep.json"
    assert main(["reproduce", "--preset", "kappa", "--json", str(out)]) == EXIT_OK
    assert calls == [pytest.approx(1.0, abs=1e-12)]
    diagnostics = load_report(out.read_text())["diagnostics"]
    verbatim = real_evaluate(PRESETS["kappa"]())
    assert diagnostics["q0_verbatim"] == pytest.approx(1.002, abs=1e-12)
    assert diagnostics["c_verbatim"] == pytest.approx(verbatim.c, rel=1e-12)
    assert diagnostics["kappa_verbatim"] == pytest.approx(verbatim.kappa, abs=1e-12)
