"""CLI behavior: config parsing, reports, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from critline import cli, moments, oracle, quad
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
quad_tol = 1e-7
"""


@pytest.fixture()
def cheap_config(tmp_path):
    path = tmp_path / "point.cfg"
    path.write_text(CHEAP_CONFIG)
    return str(path)


# -- config parsing ----------------------------------------------------------


def test_parse_config_round_trip(cheap_config):
    cfg, quad_tol, n_max = parse_config(cheap_config)
    assert cfg.R == 1.1
    assert cfg.Q(0.0) == pytest.approx(1.0)
    assert cfg.P1.coeffs == (0.0, 0.6, 0.4)
    assert cfg.P2.coeffs == (0.0, 0.0, 0.0, 0.05)
    assert quad_tol == 1e-7
    assert n_max == 256


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
    payload = json.loads(out.read_text())
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
    path.write_text("R = 1.1\np1_coeffs = 0.6, 0.4\nquad_tol = 1e-7\n")
    out = tmp_path / "r.json"
    assert main(["eval", str(path), "--json", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["c12"] == 0.0
    assert payload["c2"] == 0.0


# -- exit codes --------------------------------------------------------------


def test_missing_config_file_is_config_error(capsys):
    assert main(["eval", "/nonexistent/path.cfg"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_unknown_preset_is_config_error(capsys):
    assert main(["reproduce", "--preset", "nu"]) == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize(
    "line",
    ["R = inf", "R = nan", "theta1 = inf", "p2_coeffs = nan", "quad_tol = nan", "quad_max_nodes = inf"],
)
def test_non_finite_config_is_config_error(tmp_path, capsys, line):
    path = tmp_path / "nonfinite.cfg"
    lines = {"R": "R = 1.1", "p1_coeffs": "p1_coeffs = 0.6, 0.4"}
    lines[line.split(" ")[0]] = line
    path.write_text("\n".join(lines.values()) + "\n")
    assert main(["eval", str(path)]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "257", "300", "12.5"])
def test_quad_max_nodes_outside_the_rules_is_config_error(tmp_path, capsys, value):
    # the ladder's last rung is n_max itself, so it must have a Gauss rule;
    # a fractional order is rejected, not truncated
    path = tmp_path / "order.cfg"
    path.write_text(f"R = 1.1\np1_coeffs = 0.6, 0.4\nquad_max_nodes = {value}\n")
    assert main(["eval", str(path)]) == EXIT_CONFIG
    assert f"[1, {quad.N_MAX}]" in capsys.readouterr().err


def test_overflowing_integrand_is_numerical_error(tmp_path, capsys):
    # e^(2Rv) overflows: the first order is already non-finite and the ladder stops there
    path = tmp_path / "huge.cfg"
    path.write_text("R = 1e308\np1_coeffs = 0.6, 0.4\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["eval", str(path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert f"non-finite integral at n = {quad.N_SEQUENCE_START}" in err


def test_non_convergence_is_numerical_error(tmp_path, capsys):
    path = tmp_path / "strict.cfg"
    path.write_text(
        "R = 1.1\np1_coeffs = 0.6, 0.4\nquad_tol = 1e-18\nquad_max_nodes = 32\n"
    )
    assert main(["eval", str(path)]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["-1", "4"])
def test_seeds_outside_the_seed_scales_is_config_error(capsys, seeds):
    # three perturbation scales exist, so --seeds runs 0 to 3 extra seeds
    assert main(["optimize", "--no-psi2", "--seeds", seeds]) == EXIT_CONFIG
    assert "extra seeds must be in [0, 3]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, reason",
    [
        (["--d1", "0"], "d1 must be >= 1"),
        (["--d2", "2"], "d2 must be 0 or >= 3"),
        (["--q-degree", "8"], "q_degree must be a positive odd integer"),
        (["--max-iterations", "-1"], "max_iterations must be >= 0"),
    ],
    ids=["d1=0", "d2=2", "q-degree=8", "max-iterations=-1"],
)
def test_unusable_search_inputs_are_config_errors(capsys, args, reason):
    # rejected before any outer step, with the reason, instead of a search
    # whose every Gram build fails or that silently runs something else
    assert main(["optimize", *args]) == EXIT_CONFIG
    assert reason in capsys.readouterr().err


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
    assert json.loads(first) == {
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


# -- reproduce ---------------------------------------------------------------


def test_reproduce_normalizes_preset_q(tmp_path, monkeypatch):
    # stub the heavy evaluation: reproduce must renormalize Q(0) = 1.002 -> 1,
    # evaluate once, and derive the verbatim values from the normalized report
    from critline.moments import KappaReport

    captured = []

    def fake_evaluate(cfg, tol, n_max):
        captured.append(cfg.Q(0.0))
        return KappaReport(c1=2.0, c12=0.0, c2=0.0, c=2.0, kappa=0.4, config=cfg)

    monkeypatch.setattr(moments, "evaluate", fake_evaluate)
    out = tmp_path / "rep.json"
    assert main(["reproduce", "--preset", "kappa", "--json", str(out)]) == EXIT_OK
    assert captured == [pytest.approx(1.0, abs=1e-12)]  # the normalized run only
    payload = json.loads(out.read_text())
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
    diagnostics = json.loads(out.read_text())["diagnostics"]
    verbatim = real_evaluate(PRESETS["kappa"]())
    assert diagnostics["q0_verbatim"] == pytest.approx(1.002, abs=1e-12)
    assert diagnostics["c_verbatim"] == pytest.approx(verbatim.c, rel=1e-12)
    assert diagnostics["kappa_verbatim"] == pytest.approx(verbatim.kappa, abs=1e-12)
