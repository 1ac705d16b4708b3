"""Command-line interface: JSON contract, exit codes, batch configs."""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densbrackets import __version__
from densbrackets.cli import _KIND_KEYS, main
from densbrackets.expressions import FUNCTIONS, parse
from densbrackets.geometry import DOMAINS, SPHERE, normalize

from oracles import FOUR_PI_SQUARED


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_bracket_square_row1(capsys):
    code, out, err = run_cli(
        capsys,
        "bracket", "--domain", "square", "--tau", "1",
        "--rho", "1", "--f", "x", "--h", "y",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1  # exactly one JSON document
    payload = json.loads(lines[0])
    assert set(payload) == {
        "value", "error_estimate", "n_evals", "converged", "normalization_constant",
    }
    assert payload["converged"] is True
    assert payload["value"] == pytest.approx(1.0, abs=1e-10)


def test_bracket_torus_squares(capsys):
    code, out, _ = run_cli(
        capsys,
        "bracket", "--domain", "torus",
        "--rho", "(cos(t1)+cos(t2)+2)/2", "--f", "t1^2", "--h", "t2^2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(FOUR_PI_SQUARED, rel=1e-7)


def test_bracket_syntax_error_exits_1(capsys):
    for f, message in [
        ("x+", "position"),
        ("sin(x", "invalid expression for --f: expected ')' (at position 5)"),
    ]:
        code, out, err = run_cli(
            capsys,
            "bracket", "--domain", "square", "--rho", "1", "--f", f, "--h", "y",
        )
        assert code == 1
        assert out == ""
        assert message in err


def test_bracket_nonconverged_exits_2(capsys):
    code, out, _ = run_cli(
        capsys,
        "bracket", "--domain", "square", "--rho", "1",
        "--f", "sin(x)", "--h", "y",
        "--abs-tol", "1e-15", "--rel-tol", "1e-15",
        "--max-subdivisions", "2", "--no-normalize",
    )
    assert code == 2
    assert json.loads(out)["converged"] is False


def test_bracket_output_is_deterministic(capsys):
    args = (
        "bracket", "--domain", "sphere", "--rho", "1 + sin(theta)/3",
        "--f", "theta", "--h", "phi",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_area_rotation(capsys):
    code, out, _ = run_cli(
        capsys,
        "area", "--rho", "1", "--theta-map", "theta", "--phi-map", "phi+t",
        "--s-lo", "pi/4", "--s-hi", "3*pi/4",
        "--t-lo", "pi/4", "--t-hi", "3*pi/4",
        "--abs-tol", "1e-8", "--rel-tol", "1e-8",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"area", "error_estimate", "weight_mode", "n_evals", "converged"}
    assert payload["weight_mode"] == "measure"
    assert payload["area"] == pytest.approx((math.pi / 2) ** 2, abs=1e-7)


def test_area_invalid_interval_exits_1(capsys):
    code, out, err = run_cli(
        capsys,
        "area", "--rho", "1", "--theta-map", "theta", "--phi-map", "phi+t",
        "--s-lo", "2", "--s-hi", "1", "--t-lo", "1", "--t-hi", "2",
    )
    assert code == 1 and out == ""


def test_area_literal_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "area", "--rho", "1", "--theta-map", "theta", "--phi-map", "phi+t",
        "--s-lo", "pi/4", "--s-hi", "3*pi/4",
        "--t-lo", "pi/4", "--t-hi", "3*pi/4",
        "--weight-mode", "literal", "--abs-tol", "1e-8", "--rel-tol", "1e-8",
    )
    payload = json.loads(out)
    assert payload["area"] == pytest.approx((math.pi / 2) ** 2 * math.pi / 2, abs=1e-6)


def test_unknown_domain_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "bracket", "--domain", "plane", "--rho", "1", "--f", "x", "--h", "y"
    )
    assert code == 1
    assert "invalid choice" in err


# -- table runner -------------------------------------------------------------------


def test_table_runs_jobs_in_order(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(
        """
[first]
kind = bracket
domain = square
rho = 1
f = x
h = y
expected = 1
tol_abs = 1e-8

[second]
kind = mass
domain = sphere
rho = 1
expected = 1
tol_abs = 1e-10

[third]
kind = normalize
domain = torus
rho = exp(cos(t1)+cos(t2))
expected = 1
tol_abs = 1e-9
"""
    )
    code, out, _ = run_cli(capsys, "table", str(cfg))
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [line["label"] for line in lines] == ["first", "second", "third"]
    assert all(line["pass"] for line in lines)
    mass_keys = {
        "label", "kind", "value", "error_estimate", "n_evals", "converged",
        "expected", "pass",
    }
    assert [set(line) for line in lines] == [
        mass_keys | {"normalization_constant"}, mass_keys, mass_keys | {"scale"},
    ]
    assert lines[2]["scale"] == pytest.approx(1.6029228068079633, abs=1e-9)


def test_table_failing_expectation_exits_2(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(
        """
[wrong]
kind = bracket
domain = square
rho = 1
f = x
h = y
expected = 2
tol_abs = 1e-8
"""
    )
    code, out, _ = run_cli(capsys, "table", str(cfg))
    assert code == 2
    line = json.loads(out)
    assert line["pass"] is False and line["expected"] == 2.0


def test_table_validates_before_running(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(
        """
[ok]
kind = bracket
domain = square
rho = 1
f = x
h = y

[broken]
kind = bracket
domain = square
rho = 1
f = x +
h = y
"""
    )
    code, out, err = run_cli(capsys, "table", str(cfg))
    assert code == 1
    assert out == ""  # nothing ran
    assert "broken" in err or "position" in err


def test_table_unknown_kind_rejected(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("[x]\nkind = frobnicate\n")
    code, out, _ = run_cli(capsys, "table", str(cfg))
    assert code == 1 and out == ""


def test_table_empty_config(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("")
    code, out, _ = run_cli(capsys, "table", str(cfg))
    assert code == 0 and out == ""


def test_table_missing_file(capsys):
    code, out, err = run_cli(capsys, "table", "/nonexistent/path.cfg")
    assert code == 1 and out == ""


def test_table_area_job(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(
        """
[patch]
kind = area
rho = 1
theta_map = theta
phi_map = phi + t
s_lo = pi/4
s_hi = 3*pi/4
t_lo = pi/4
t_hi = 3*pi/4
weight_mode = measure
expected = (pi/2)^2
tol_abs = 1e-7
quad_abs_tol = 1e-8
quad_rel_tol = 1e-8
"""
    )
    code, out, _ = run_cli(capsys, "table", str(cfg))
    assert code == 0
    line = json.loads(out)
    assert line["kind"] == "area" and line["weight_mode"] == "measure"
    assert line["pass"] is True


# -- one job path: subcommands and table rows -----------------------------------------


def _one_row_table(tmp_path, capsys, body):
    cfg = tmp_path / "row.cfg"
    cfg.write_text("[row]\n" + body)
    code, out, _ = run_cli(capsys, "table", str(cfg))
    return code, json.loads(out)


_RESULT_KEYS = ("error_estimate", "n_evals", "converged")


def test_bracket_command_matches_table_row(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "bracket", "--domain", "torus", "--rho", "exp(cos(t1)+cos(t2))",
        "--f", "sin(t1)", "--h", "t2", "--abs-tol", "1e-9", "--max-subdivisions", "300",
    )
    single = json.loads(out)
    row_code, row = _one_row_table(
        tmp_path, capsys,
        "kind = bracket\ndomain = torus\nrho = exp(cos(t1)+cos(t2))\nf = sin(t1)\nh = t2\n"
        "quad_abs_tol = 1e-9\nquad_max_subdivisions = 300\n",
    )
    assert code == row_code == 0
    assert single["value"] == row["value"]
    assert single["normalization_constant"] == row["normalization_constant"]
    assert all(single[k] == row[k] for k in _RESULT_KEYS)


_GAUSS = "exp(-(1/4)*(sin(theta)/(1 - cos(theta)))^4*sin(2*phi)^2)/0.7082398710282987"


@pytest.mark.parametrize(
    "rho, n_evals, code",
    [
        # every integral meets its tolerance in its first round: the count
        # passes the budget, which cuts nothing short
        ("1 + sin(theta)^2/2", 54240, 0),
        # the Gaussian needs rounds that the budget stops
        (_GAUSS, 75840, 2),
    ],
    ids=["met in the first round", "cut short"],
)
def test_area_command_matches_table_row(tmp_path, capsys, rho, n_evals, code):
    # a theta_map that uses t keeps the 4-d path, where the count passes the
    # budget of 20,000
    cli_code, out, _ = run_cli(
        capsys,
        "area", "--rho", rho, "--theta-map", "arccos(theta + s*t)",
        "--phi-map", "phi + t", "--s-lo", "pi/4", "--s-hi", "3*pi/4",
        "--t-lo", "pi/4", "--t-hi", "3*pi/4", "--weight-mode", "literal",
        "--abs-tol", "1e-9", "--rel-tol", "1e-9", "--max-evals", "20000",
    )
    single = json.loads(out)
    row_code, row = _one_row_table(
        tmp_path, capsys,
        f"kind = area\nrho = {rho}\ntheta_map = arccos(theta + s*t)\n"
        "phi_map = phi + t\ns_lo = pi/4\ns_hi = 3*pi/4\nt_lo = pi/4\nt_hi = 3*pi/4\n"
        "weight_mode = literal\nquad_abs_tol = 1e-9\nquad_rel_tol = 1e-9\n"
        "quad_max_evals = 20000\n",
    )
    assert cli_code == row_code == code
    assert (single["n_evals"], single["converged"]) == (n_evals, code == 0)
    assert single["area"] == row["value"]
    assert single["weight_mode"] == row["weight_mode"] == "literal"
    assert all(single[k] == row[k] for k in _RESULT_KEYS)


def test_normalize_row_counts_every_evaluation(tmp_path, capsys):
    rows = [
        _one_row_table(tmp_path, capsys, f"kind = {kind}\ndomain = sphere\nrho = 2 + cos(theta)\n")[1]
        for kind in ("normalize", "mass")
    ]
    row, first = rows
    assert row["scale"] == first["value"]
    assert row["value"] == pytest.approx(1.0, abs=1e-12)
    # the mass of the input plus the check mass of the normalized density
    density = normalize(SPHERE, parse("2 + cos(theta)"))
    assert density.scale.n_evals == first["n_evals"]
    assert row["n_evals"] == first["n_evals"] + density.mass.n_evals


def test_a_density_negative_at_a_mass_node_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "bracket", "--domain", "square", "--rho", "x - 1/4", "--f", "x", "--h", "y",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: density 'x - 1/4' is negative at x = ")
    assert ", y = " in err and len(err.splitlines()) == 1
    # --no-normalize integrates no mass, so nothing checks the sign
    code, out, _ = run_cli(
        capsys, "bracket", "--domain", "square", "--rho", "x - 1/4", "--f", "x", "--h", "y",
        "--no-normalize",
    )
    assert code == 0 and json.loads(out)["normalization_constant"] is None


def test_a_density_of_mass_zero_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "bracket", "--domain", "square", "--rho", "0", "--f", "x", "--h", "y"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: density '0' has mass 0.0 ")
    assert "a usable mass is finite, positive and more than 10x its error estimate" in err


@pytest.mark.parametrize("kind", ["mass", "normalize", "bracket"])
def test_a_density_negative_at_a_mass_node_fails_its_table_row(tmp_path, capsys, kind):
    body = f"kind = {kind}\ndomain = sphere\nrho = cos(theta)\n"
    if kind == "bracket":
        body += "f = theta\nh = phi\n"
    code, row = _one_row_table(tmp_path, capsys, body)
    assert code == 2 and row["pass"] is False and row["converged"] is False
    assert row["error"].startswith("density 'cos(theta)' is negative at theta = ")


def test_bessel_overflow_is_a_typed_error(capsys):
    code, out, err = run_cli(
        capsys,
        "bracket", "--domain", "torus", "--rho", "besseli0(1000*cos(t1))",
        "--f", "t1", "--h", "t2",
    )
    assert code == 1 and out == ""
    assert "overflow" in err and "t1=" in err and "t2=" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_divergent_bracket_prints_only_the_error(capsys):
    # the inner y-integral of 1/x overflows near x = 0: a divergent bracket
    # ends as non-converged with the whole (x, y) point, not a traceback
    code, out, err = run_cli(
        capsys,
        "bracket", "--domain", "square", "--rho", "1", "--f", "ln(x)", "--h", "y",
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: integral is not finite near (")
    assert err.rstrip().endswith("(likely divergent)")
    x, y = map(float, err[err.index("(") + 1 : err.index(")")].split(","))
    assert 0.0 < x < 1e-300 and y == 0.5


def test_divergent_table_row_fails(tmp_path, capsys):
    code, row = _one_row_table(
        tmp_path, capsys, "kind = bracket\ndomain = square\nrho = 1\nf = ln(x)\nh = y\n"
    )
    assert code == 2
    assert "likely divergent" in row["error"]
    assert row["pass"] is False and row["converged"] is False


def test_overflowing_area_integrand_is_an_error(capsys):
    # the density is about 1e45 near the poles: no point may be dropped
    code, out, err = run_cli(
        capsys,
        "area", "--rho", "besseli0(800*cos(theta))/1e300", "--theta-map", "theta",
        "--phi-map", "phi+t", "--s-lo", "1", "--s-hi", "1.1", "--t-lo", "1",
        "--t-hi", "1.1", "--abs-tol", "1e-2", "--rel-tol", "1e-2",
    )
    assert code == 1 and out == ""
    assert "overflow in 'besseli0(800*cos(theta))'" in err
    assert all(f"{name}=" in err for name in ("s", "t", "phi", "theta"))


def test_constant_division_by_zero_is_a_typed_error(capsys):
    code, out, err = run_cli(
        capsys,
        "bracket", "--domain", "square", "--rho", "x + 1/0", "--f", "x", "--h", "y",
    )
    assert code == 1 and out == ""
    assert "division-by-zero in '1/0'" in err and "x=" in err and "y=" in err


def test_infinite_tolerance_flag_exits_1(capsys):
    code, out, err = run_cli(
        capsys,
        "bracket", "--domain", "square", "--rho", "1", "--f", "sin(7*x)", "--h", "y",
        "--abs-tol", "1e400",
    )
    assert code == 1 and out == ""
    assert "--abs-tol" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--abs-tol", "0", "--abs-tol must be positive and finite, got 0.0"),
        ("--rel-tol", "-1", "--rel-tol must be positive and finite, got -1.0"),
        # argparse takes "-1e-3" for an option unless it is glued to its flag
        ("--rel-tol", "-1e-3", "--rel-tol must be positive and finite, got -0.001"),
        ("--max-subdivisions", "0", "--max-subdivisions must be >= 1, got 0"),
    ],
)
def test_out_of_range_quadrature_flag_is_named(capsys, flag, value, message):
    code, out, err = run_cli(
        capsys,
        "bracket", "--domain", "square", "--rho", "1", "--f", "x", "--h", "y",
        flag, value,
    )
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_a_flag_value_may_start_with_a_dash(capsys):
    code, out, err = run_cli(
        capsys, "bracket", "--domain", "square", "--rho", "1", "--f", "-x", "--h", "y"
    )
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == -1.0


def test_an_interval_out_of_range_names_its_flags(capsys):
    code, out, err = run_cli(
        capsys,
        "area", "--rho", "1", "--theta-map", "theta", "--phi-map", "phi + t",
        "--s-lo", "-1e-3", "--s-hi", "1", "--t-lo", "1", "--t-hi", "2",
    )
    assert code == 1 and out == ""
    assert err == (
        "error: --s-lo, --s-hi: parameter interval I1 = (-0.001, 1.0) must "
        "satisfy 0 < lo < hi < pi\n"
    )


# Every flag of each command, in the order that --help lists them.
_COMMAND_FLAGS = {
    "bracket": [
        "--domain", "--tau", "--rho", "--f", "--h", "--abs-tol", "--rel-tol",
        "--max-subdivisions", "--no-normalize",
    ],
    "area": [
        "--rho", "--theta-map", "--phi-map", "--s-lo", "--s-hi", "--t-lo", "--t-hi",
        "--weight-mode", "--abs-tol", "--rel-tol", "--max-subdivisions", "--max-evals",
    ],
}
# The required flags of each command, with a valid value.
_REQUIRED_FLAGS = {
    "bracket": {"--domain": "square", "--rho": "1", "--f": "x", "--h": "y"},
    "area": {
        "--rho": "1", "--theta-map": "theta", "--phi-map": "phi + t",
        "--s-lo": "pi/4", "--s-hi": "3*pi/4", "--t-lo": "pi/4", "--t-hi": "3*pi/4",
    },
}


@pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
def test_each_command_lists_its_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    flags = re.findall(r"^  (--[a-z-]+)", text, re.MULTILINE)
    assert flags == _COMMAND_FLAGS[command]
    # the usage line brackets the optional flags
    required = [flag for flag in flags if f"[{flag}" not in text]
    assert required == list(_REQUIRED_FLAGS[command])


@pytest.mark.parametrize(
    "command, flag",
    [
        (command, flag)
        for command, flags in _COMMAND_FLAGS.items()
        for flag in flags
        if flag != "--no-normalize"  # takes no value
    ],
)
def test_a_bad_flag_value_names_its_flag(capsys, command, flag):
    argv = {**_REQUIRED_FLAGS[command], flag: "("}
    code, out, err = run_cli(capsys, command, *(a for item in argv.items() for a in item))
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert re.search(re.escape(flag) + r"(?![\w-])", err), err


def test_huge_absolute_tolerance_of_a_reduced_area_runs(capsys):
    # the reduced path divides --abs-tol by |I2| = 0.5: 2e308 would overflow
    code, out, err = run_cli(
        capsys,
        "area", "--rho", "1", "--theta-map", "theta", "--phi-map", "phi + t",
        "--s-lo", "pi/4", "--s-hi", "3*pi/4", "--t-lo", "1", "--t-hi", "1.5",
        "--abs-tol", "1e308", "--rel-tol", "1e-3",
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["area"] == pytest.approx(math.pi / 4, rel=1e-12)


def test_subnormal_tolerance_flag_runs(capsys):
    # the inner level's tolerance, 1e-323 / 10, would underflow to 0
    code, out, err = run_cli(
        capsys,
        "bracket", "--domain", "square", "--rho", "1", "--f", "x", "--h", "y",
        "--abs-tol", "1e-323",
    )
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == 1.0


def test_infinite_tolerance_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(
        "[row]\nkind = bracket\ndomain = square\nrho = 1\nf = sin(7*x)\nh = y\n"
        "quad_abs_tol = 1e400\n"
    )
    code, out, err = run_cli(capsys, "table", str(cfg))
    assert code == 1 and out == ""
    assert "row.quad_abs_tol" in err


@pytest.mark.parametrize("value", ["1e400", "2.5"])
def test_integer_flags_are_checked(capsys, value):
    code, out, err = run_cli(
        capsys,
        "area", "--rho", "1", "--theta-map", "theta", "--phi-map", "phi+t",
        "--s-lo", "1", "--s-hi", "2", "--t-lo", "1", "--t-hi", "2",
        "--max-evals", value,
    )
    assert code == 1 and out == ""
    assert "--max-evals" in err
    code, out, err = run_cli(
        capsys,
        "bracket", "--domain", "square", "--rho", "1", "--f", "x", "--h", "y",
        "--max-subdivisions", value,
    )
    assert code == 1 and out == ""
    assert "--max-subdivisions" in err


@pytest.mark.parametrize("key", ["quad_max_subdivisions", "quad_max_evals"])
@pytest.mark.parametrize("value", ["1e400", "2.5"])
def test_integer_table_keys_are_checked(tmp_path, capsys, key, value):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(
        "[patch]\nkind = area\nrho = 1\ntheta_map = theta\nphi_map = phi + t\n"
        f"s_lo = 1\ns_hi = 2\nt_lo = 1\nt_hi = 2\n{key} = {value}\n"
    )
    code, out, err = run_cli(capsys, "table", str(cfg))
    assert code == 1 and out == ""
    assert f"patch.{key}" in err


def test_boolean_table_key_is_checked(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("[row]\nkind = bracket\ndomain = square\nrho = 1\nf = x\nh = y\nnormalize = maybe\n")
    code, out, err = run_cli(capsys, "table", str(cfg))
    assert code == 1 and out == ""
    assert "row.normalize" in err


@pytest.mark.parametrize(
    "key",
    [
        "expectd = 5",  # a typo: the expected value would go unchecked
        "quad_max_evals = 1000",  # like `bracket --max-evals`: areas only
    ],
)
def test_table_key_that_the_kind_does_not_read_is_rejected(tmp_path, capsys, key):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(
        "[ok]\nkind = bracket\ndomain = square\nrho = 1\nf = x\nh = y\n\n"
        f"[typo]\nkind = bracket\ndomain = square\nrho = 1\nf = x\nh = y\n{key}\n"
    )
    code, out, err = run_cli(capsys, "table", str(cfg))
    assert code == 1 and out == ""  # nothing ran
    assert "'typo'" in err and repr(key.split()[0]) in err


_MIXED_ROWS = """
[row1]
kind = bracket
domain = square
rho = 1
f = x
h = y
expected = 1

[area1]
kind = area
rho = 1
theta_map = theta
phi_map = phi + t
s_lo = pi/4
s_hi = 3*pi/4
t_lo = pi/4
t_hi = 3*pi/4
expected = (pi/2)^2
"""


def test_default_keys_need_only_be_read_by_some_kind(tmp_path, capsys):
    # tau is read by the bracket row only, tol_abs by both
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("[DEFAULT]\ntau = 1\ntol_abs = 1e-8\n" + _MIXED_ROWS)
    code, out, err = run_cli(capsys, "table", str(cfg))
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["label"], r["pass"]) for r in rows] == [("row1", True), ("area1", True)]


def test_default_key_that_no_kind_reads_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("[DEFAULT]\ntua = 1\n" + _MIXED_ROWS)
    code, out, err = run_cli(capsys, "table", str(cfg))
    assert code == 1 and out == ""
    assert "[DEFAULT]" in err and "'tua'" in err


def test_own_key_that_overrides_a_default_is_checked_against_the_kind(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("[DEFAULT]\ntau = 1\n" + _MIXED_ROWS + "tau = 2\n")
    code, out, err = run_cli(capsys, "table", str(cfg))
    assert code == 1 and out == ""
    assert "job 'area1' has keys that kind 'area' does not read: 'tau'" in err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "[r]\nkind = bracket\ndomain = square\nf = x\nh = y\n",
            "job 'r' is missing required key 'rho'",
        ),
        ("[a]\ndomain = square\nrho = 1\n", "job 'a' is missing required key 'kind'"),
        ("tau = 1\n[r]\nkind = mass\n", "File contains no section headers"),
        # the library's own input errors name their job
        ("[r]\nkind = mass\ndomain = cube\nrho = 1\n", "job 'r': unknown domain 'cube'"),
        # an out-of-range quadrature key is named with its value
        *(
            (f"[r]\nkind = mass\ndomain = square\nrho = 1\n{key} = {value}\n", message)
            for key, value, message in (
                ("quad_abs_tol", "0", "r.quad_abs_tol must be positive and finite, got 0.0"),
                ("quad_rel_tol", "-1", "r.quad_rel_tol must be positive and finite, got -1.0"),
                ("quad_max_subdivisions", "0", "r.quad_max_subdivisions must be >= 1, got 0"),
            )
        ),
        (
            "[r]\nkind = area\nrho = 1\ntheta_map = theta\nphi_map = phi + t\n"
            "s_lo = 1\ns_hi = 2\nt_lo = 1\nt_hi = 2\nquad_max_evals = 3\n",
            "r.quad_max_evals must allow at least one G7/K15 panel (15 evaluations), got 3",
        ),
        (
            "[r]\nkind = bracket\ndomain = square\nrho = 1\nf = x\nh = z\n",
            "job 'r': function h 'z' uses variables ['z']",
        ),
        (
            "[r]\nkind = area\nrho = 1\ntheta_map = theta\nphi_map = phi\n"
            "s_lo = 2\ns_hi = 1\nt_lo = 1\nt_hi = 2\n",
            "r.s_lo, r.s_hi: parameter interval I1 = (2.0, 1.0) must satisfy",
        ),
        # a row's density is checked before the row above it runs
        *(
            (
                "[a]\nkind = mass\ndomain = square\nrho = 1\n"
                f"[r]\nkind = {kind}\ndomain = square\nrho = z\n",
                "job 'r': density 'z' uses variables ['z'] outside the square coordinates",
            )
            for kind in ("mass", "normalize")
        ),
        *(
            (
                "[r]\nkind = bracket\ndomain = square\nrho = 1\nf = x\nh = y\n"
                f"expected = 1\n{key} = -1\n",
                f"r.{key} must not be negative, got -1.0",
            )
            for key in ("tol_abs", "tol_rel")
        ),
    ],
)
def test_malformed_table_exits_1(tmp_path, capsys, text, message):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "table", str(cfg))
    assert code == 1 and out == ""
    assert message in err


# A valid one-row table of each kind.
_VALID_ROWS = {
    "bracket": {"domain": "square", "rho": "1", "f": "x", "h": "y"},
    "mass": {"domain": "square", "rho": "1"},
    "normalize": {"domain": "square", "rho": "1"},
    "area": {
        "rho": "1", "theta_map": "theta", "phi_map": "phi + t", "s_lo": "pi/4",
        "s_hi": "3*pi/4", "t_lo": "pi/4", "t_hi": "3*pi/4",
    },
}


@pytest.mark.parametrize(
    "kind, key",
    [(kind, key) for kind, keys in _KIND_KEYS.items() for key in keys if key != "kind"],
)
def test_every_listed_key_is_read_by_its_kind(tmp_path, capsys, kind, key):
    # a listed key that the builder never read would leave "(" unnoticed
    row = {"kind": kind, **_VALID_ROWS[kind], key: "("}
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("[row]\n" + "".join(f"{k} = {v}\n" for k, v in row.items()))
    code, out, err = run_cli(capsys, "table", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "body",
    [
        # diverges: the row has an error and no value
        "f = ln(x)\nh = y\n",
        # stops short of its tolerance, within tol_abs of the expected value
        "f = sin(x)\nh = y\nnormalize = false\nquad_max_subdivisions = 2\n"
        "quad_abs_tol = 1e-15\nquad_rel_tol = 1e-15\ntol_abs = 1\n",
    ],
)
def test_failing_row_with_an_expected_value_fails(tmp_path, capsys, body):
    code, row = _one_row_table(
        tmp_path, capsys, f"kind = bracket\ndomain = square\nrho = 1\n{body}expected = 1\n"
    )
    assert code == 2
    assert row["converged"] is False and row["pass"] is False
    assert row["expected"] == 1.0


# -- fuzzing -----------------------------------------------------------------------


def _expressions(names: tuple[str, ...]):
    """Small expression texts over ``names`` (and a stray variable), built
    from the whole surface grammar and the two names that only
    differentiation produces but the parser accepts."""
    leaves = st.sampled_from(names + ("q", "pi", "e", "0", "2", "0.5", "1e3"))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds("{}({})".format, st.sampled_from(FUNCTIONS + ("sign", "besseli1")), inner),
            st.builds("({}){}({})".format, inner, st.sampled_from("+-*/^"), inner),
        ),
        max_leaves=5,
    )


_TOLERANCES = st.sampled_from(["1e-2", "1e-6", "1e-12", "0", "-1", "nan", "1e400", "abc"])
_LIMITS = st.sampled_from(["0.3", "1", "pi/4", "3*pi/4", "2", "pi", "7", "ln(0)", "s"])
# valid parameter intervals half of the time, so that areas get integrated
_INTERVALS = st.one_of(
    st.sampled_from([("pi/4", "3*pi/4"), ("0.3", "1"), ("1", "1.1"), ("2", "3")]),
    st.tuples(_LIMITS, _LIMITS),
)


@st.composite
def _bracket_argv(draw):
    domain = draw(st.sampled_from(sorted(DOMAINS)))
    expr = _expressions(DOMAINS[domain].coords)
    argv = ["bracket", "--domain", domain, "--rho", draw(expr), "--f", draw(expr),
            "--h", draw(expr), "--max-subdivisions", str(draw(st.integers(1, 20)))]
    if draw(st.booleans()):
        argv += ["--tau", draw(expr)]
    if draw(st.booleans()):
        argv += ["--abs-tol", draw(_TOLERANCES), "--rel-tol", draw(_TOLERANCES)]
    if draw(st.booleans()):
        argv.append("--no-normalize")
    return argv


@st.composite
def _area_argv(draw):
    expr = _expressions(("theta", "phi", "s", "t"))
    argv = ["area", "--rho", draw(_expressions(("theta", "phi"))),
            "--theta-map", draw(expr), "--phi-map", draw(expr),
            "--max-evals", str(draw(st.integers(15, 20_000)))]
    for axis in ("s", "t"):
        lo, hi = draw(_INTERVALS)
        argv += [f"--{axis}-lo", lo, f"--{axis}-hi", hi]
    argv += ["--weight-mode", draw(st.sampled_from(["measure", "literal"]))]
    if draw(st.booleans()):
        argv += ["--abs-tol", draw(_TOLERANCES), "--rel-tol", draw(_TOLERANCES)]
    return argv


@given(st.one_of(_bracket_argv(), _area_argv()))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_random_commands_end_in_a_result_or_a_typed_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # one JSON document, or (exit code 1 or 2) one error line
    if out.getvalue():
        assert code != 1 and err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert code != 0 and err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1


# -- inputs that must not end in a traceback ---------------------------------------


def test_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_bytes(b"[row]\nkind = mass\ndomain = square\nrho = 1 \xff\n")
    code, out, err = run_cli(capsys, "table", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read config {str(cfg)!r}")


def _bracket_of(f):
    return ("bracket", "--domain", "square", "--rho", "1", "--f", f, "--h", "y")


@pytest.mark.parametrize(
    "f",
    [
        "sin(" * 400 + "x" + ")" * 400,  # the parser descends too deep
        "(" * 400 + "x" + ")" * 400,
        " + ".join(["x"] * 2000),  # parses, but a later tree walk is too deep
        # past any caller's stack (the console script's too): main reports it
        " + ".join(["x"] * 3000),
    ],
    ids=["calls", "parentheses", "sum", "long sum"],
)
def test_too_deeply_nested_expression_is_a_typed_error(capsys, f):
    code, out, err = run_cli(capsys, *_bracket_of(f))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "nests too deeply" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "f",
    [
        "sin(" * 160 + "x" + ")" * 160,
        " + ".join(["x"] * 900),
        # diff squares the product, and the square is spread over its
        # factors in a loop, a factor costing it no depth
        "(sqrt(x)" + "*y" * 799 + ")^3",
    ],
    ids=["calls", "sum", "power of a product"],
)
def test_deep_expressions_within_the_limit_still_run(capsys, f):
    # pytest's own frames lower the limits: from the console script, 320
    # nested calls, a 980-term sum and a cubed 980-factor product also run
    code, out, err = run_cli(capsys, *_bracket_of(f))
    assert code == 0 and err == ""
    assert json.loads(out)["converged"] is True
