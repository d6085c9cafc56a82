"""Tests for the command-line interface."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lapasym import cli


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def parse_csv(text):
    meta = {}
    header = None
    rows = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def same_cell(cell, value):
    """Whether a CSV cell says what the matching JSON value says."""
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if isinstance(value, float):
        return float(cell) == value
    return cell == str(value)


def test_expand_sphere_leading(capsys):
    code, out, err = run_cli(
        ["expand", "--model", "builtin:sphere", "--a", "1/2", "--order", "0"], capsys
    )
    assert code == 0 and err == ""
    meta, header, rows = parse_csv(out)
    assert meta["model"] == "builtin:sphere"
    assert meta["a"] == "1/2"
    assert header == ["j", "exponent", "coefficient", "odd_vanished"]
    assert rows[0][0] == "0" and rows[0][1] == "1/2"
    assert abs(float(rows[0][2]) - math.sqrt(math.pi) / (2 * math.pi)) < 1e-12


def test_expand_flags_odd_rows(capsys):
    code, out, _ = run_cli(
        ["expand", "--model", "builtin:sphere", "--order", "1"], capsys
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert abs(float(rows[1][2])) < 1e-12
    assert rows[1][3] == "true"


def test_expand_json_matches_csv(capsys):
    code, out_csv, _ = run_cli(
        ["expand", "--model", "builtin:quartic", "--a", "0", "--order", "4"], capsys
    )
    assert code == 0
    code, out_json, _ = run_cli(
        ["expand", "--model", "builtin:quartic", "--a", "0", "--order", "4",
         "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out_json)
    _, _, rows = parse_csv(out_csv)
    assert len(payload["rows"]) == len(rows) == 5
    for row, obj in zip(rows, payload["rows"]):
        assert float(row[2]) == obj["coefficient"]
    # quartic coefficients alternate per the closed form (-1)^n Gamma(2n+1/2)/n!
    values = [obj["coefficient"] for obj in payload["rows"]]
    assert abs(values[0] - math.sqrt(math.pi)) < 1e-13
    assert abs(values[2] + 1.3293403881791370) < 1e-12
    assert abs(values[4] - 5.815864198283724) < 1e-12


def test_verify_quartic_passes_with_clean_slope(capsys):
    code, out, _ = run_cli(
        ["verify", "--model", "builtin:quartic", "--a", "0", "--order", "4",
         "--k", "100,1000,10000", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["expected_slope"] == "-7/2"
    assert payload["clean_points"] == 3
    assert payload["fitted_slope"] <= -3.4
    for row in payload["rows"]:
        assert not row["floor_limited"]
        assert row["abs_error"] == abs(row["oracle"] - row["partial_sum"])


def test_verify_gaussian_reports_floor(capsys):
    code, out, _ = run_cli(
        ["verify", "--model", "builtin:gaussian", "--a", "0", "--order", "2",
         "--k", "100,1000,10000"], capsys
    )
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["fitted_slope"] == "floor-limited"
    assert meta["verdict"] == "pass"
    assert all(row[4] == "true" for row in rows)


def test_verify_requires_three_k(capsys):
    code, out, err = run_cli(
        ["verify", "--model", "builtin:sphere", "--k", "10,100"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("ks", ["30,30,1000", "100,100,100"])
def test_verify_requires_three_distinct_k(ks, capsys):
    # a repeated k adds no abscissa: 30,30,1000 used to divide by log(1)
    # and 100,100,100 fitted a verdict on a single point
    code, out, err = run_cli(
        ["verify", "--model", "builtin:sphere", "--order", "8", "--k", ks], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "distinct" in err


def test_verify_repeated_clean_k_fits_no_slope(capsys):
    # three distinct k, but the two clean rows (order 8: k = 100 and 1000
    # sit at the oracle floor) share k = 30, so no slope can be fitted
    code, out, err = run_cli(
        ["verify", "--model", "builtin:sphere", "--order", "8",
         "--k", "30,30,100,1000"], capsys
    )
    assert code == 0 and err == ""
    meta, _, _ = parse_csv(out)
    assert meta["clean_points"] == "2"
    assert meta["fitted_slope"] == "floor-limited"


def test_density_sweep_sphere(capsys):
    code, out, _ = run_cli(
        ["density-sweep", "--model", "builtin:sphere", "--k", "100"], capsys
    )
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["k", "I", "J", "I_series", "J_series"]
    j_exact = math.sqrt(100.0) * math.exp(
        math.lgamma(100.5) - math.lgamma(101.0)
    )
    assert abs(float(rows[0][2]) - j_exact) < 1e-9
    # last row is the large-k limit
    assert rows[-1][0] == "inf"
    assert float(rows[-1][2]) == 1.0
    assert abs(float(rows[-1][1]) - math.pi * math.sqrt(2.0)) < 1e-12


def test_density_sweep_empty_k_is_header_only(capsys):
    code, out, _ = run_cli(["density-sweep", "--model", "builtin:gaussian"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["k", "I", "J", "I_series", "J_series"]
    assert rows == []


def test_bell_table_rows(capsys):
    code, out, _ = run_cli(["bell-table", "--order", "6"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["kind", "j", "l", "polynomial", "value_at_ones"]
    table = {(r[0], r[1], r[2]): (r[3], r[4]) for r in rows}
    assert table[("power", "6", "3")][0] == "6x1x2x3 + 3x1^2x4 + x2^3"
    bells = [int(table[("complete", str(j), "")][1]) for j in range(7)]
    assert bells == [1, 1, 2, 5, 15, 52, 203]
    for j in range(1, 7):
        assert table[("partial", str(j), "1")][0] == f"x{j}"
    assert table[("partial", "4", "2")][0] == "4x1x3 + 3x2^2"


def test_bell_table_bound(capsys):
    code, _, err = run_cli(["bell-table", "--order", "21"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_byte_identical_reruns(tmp_path, capsys):
    for args, name in (
        (["expand", "--model", "builtin:sphere", "--order", "4"], "expand"),
        (["bell-table", "--order", "8", "--format", "json"], "bell"),
        (["density-sweep", "--model", "builtin:quartic", "--k", "10,100"], "sweep"),
    ):
        first = tmp_path / f"{name}1.txt"
        second = tmp_path / f"{name}2.txt"
        assert cli.main(args + ["--out", str(first)]) == 0
        assert cli.main(args + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


def test_invalid_k_writes_no_file(tmp_path, capsys):
    target = tmp_path / "never.csv"
    for command in (["expand", "--k", "0"], ["verify", "--k", "0,1,2"],
                    ["density-sweep", "--k", "0"]):
        code, out, err = run_cli(
            command + ["--model", "builtin:sphere", "--out", str(target)], capsys
        )
        assert_one_error_line(code, out, err)
        assert "--k" in err
        assert not target.exists()


def test_invalid_weight_and_model(capsys):
    code, _, err = run_cli(["expand", "--a", "x/y"], capsys)
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(["expand", "--model", "builtin:zilch"], capsys)
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(["expand", "--model", "/nonexistent/model.json"], capsys)
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_weight_rejected(value, capsys):
    code, out, err = run_cli(
        ["expand", "--model", "builtin:sphere", f"--a={value}", "--order", "2"], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_bad_format_rejected_by_parser(capsys):
    code, out, err = run_cli(["expand", "--format", "xml"], capsys)
    assert_one_error_line(code, out, err)
    assert "argument --format: invalid choice: 'xml'" in err


def test_exact_mode_runs(capsys):
    code, out, _ = run_cli(
        ["expand", "--model", "builtin:quartic", "--a", "0", "--order", "2",
         "--exact"], capsys
    )
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["mode"] == "exact"
    assert abs(float(rows[0][2]) - math.sqrt(math.pi)) < 1e-13


@pytest.mark.parametrize("args, name", [
    (["--model", "builtin:sphere"], "'sphere'"),
    (["--model", "builtin:quartic", "--a", "0.5"], "'quartic'"),
], ids=["float-chart", "float-weight"])
def test_exact_mode_refuses_float_radial_data(args, name, capsys):
    # the builtin sphere's chart values carry a float 2 pi, and a float
    # weight makes the quartic's amplitude series float
    code, out, err = run_cli(["expand", "--exact", "--order", "2", *args], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert name in err and "group dimension 1" in err


def test_density_sweep_has_no_exact_mode(capsys):
    code, out, err = run_cli(
        ["density-sweep", "--model", "builtin:quartic", "--k", "100", "--exact"], capsys
    )
    assert_one_error_line(code, out, err)
    assert "--exact" in err


@pytest.mark.parametrize("command, flag", [
    ("expand", ["--k", "100"]),
    ("expand", ["--tol", "1e-9"]),
    ("density-sweep", ["--exact"]),
    ("bell-table", ["--model", "builtin:sphere"]),
    ("bell-table", ["--a", "1/2"]),
    ("bell-table", ["--k", "100"]),
    ("bell-table", ["--resolution", "16"]),
    ("bell-table", ["--exact"]),
    ("bell-table", ["--tol", "1e-9"]),
    ("verify", ["--exact"]),
    ("density-sweep", ["--a", "1/2"]),
])
def test_unread_flag_is_refused(command, flag, capsys):
    # a subcommand registers only the flags it reads
    code, out, err = run_cli([command, "--order", "2", *flag], capsys)
    assert_one_error_line(code, out, err)
    assert flag[0] in err


def test_readme_flag_table_lists_each_subcommands_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = dict(re.findall(r"^\| `([a-z-]+)` \| `([^`]*)` \|$", readme, re.MULTILINE))
    assert table == {name: " ".join(flags) for name, (_, flags, _) in cli._COMMANDS.items()}


@pytest.mark.parametrize("args, text", [
    (["expand", "--order", "-1"], "argument --order: order must be nonnegative"),
    (["expand", "--order", "abc"], "argument --order: invalid int value: 'abc'"),
    (["verify", "--resolution", "0"], "argument --resolution: resolution must be positive"),
    (["density-sweep", "--tol", "0"], "argument --tol: tolerance must be positive"),
    (["verify", "--k", "100,300,1000", "--tol", "inf"],
     "argument --tol: tolerance must be positive and finite"),
    (["density-sweep", "--k", "100", "--tol", "inf"],
     "argument --tol: tolerance must be positive and finite"),
    (["verify", "--k", "10,x"], "argument --k: unreadable k value 'x'"),
    (["expand", "--a", "x/y"], "argument --a: unreadable weight value 'x/y'"),
    ([], "required: command"),
    (["zilch"], "argument command: invalid choice: 'zilch'"),
], ids=["negative-order", "unreadable-order", "resolution", "tol", "verify-tol-inf",
        "density-sweep-tol-inf", "k", "weight", "no-subcommand", "unknown-subcommand"])
def test_usage_error_is_one_line(args, text, capsys):
    code, out, err = run_cli(args, capsys)
    assert_one_error_line(code, out, err)
    assert text in err


@pytest.mark.parametrize("args", [
    ["expand", "--model", "builtin:quartic", "--a", "0", "--order", "4"],
    ["verify", "--model", "builtin:quartic", "--a", "0", "--order", "4",
     "--k", "100,1000,10000"],
    ["verify", "--model", "builtin:gaussian", "--a", "0", "--order", "2",
     "--k", "100,1000,10000"],
    ["density-sweep", "--model", "builtin:sphere", "--order", "2", "--k", "100"],
    ["bell-table", "--order", "4"],
], ids=["expand", "verify-clean", "verify-floor", "density-sweep", "bell-table"])
def test_csv_and_json_agree_cell_by_cell(args, capsys):
    code, out_csv, _ = run_cli(args, capsys)
    assert code == 0
    code, out_json, _ = run_cli(args + ["--format", "json"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out_csv)
    payload = json.loads(out_json)
    objects = payload.pop("rows")
    assert list(meta) == list(payload)
    for key, value in payload.items():
        if key == "fitted_slope" and value is None:
            # the one cell the two formats spell differently
            assert meta[key] == "floor-limited"
        else:
            assert same_cell(meta[key], value), key
    assert len(rows) == len(objects) > 0
    for row, obj in zip(rows, objects):
        assert list(obj) == header
        for cell, column in zip(row, header):
            assert same_cell(cell, obj[column]), (column, cell, obj[column])
    if args[0] == "density-sweep":
        assert rows[-1][0] == objects[-1]["k"] == "inf"
    if args[0] == "bell-table":
        assert any(obj["l"] is None for obj in objects)


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name, args", [
    ("expand_sphere_order4", ["expand", "--model", "builtin:sphere", "--order", "4"]),
    ("bell_table_order6", ["bell-table", "--order", "6"]),
    ("expand_line_poly_exact_order14",
     ["expand", "--model", "line_poly.json", "--exact", "--order", "14"]),
    ("expand_flat2_aniso_order6",
     ["expand", "--model", "flat2_aniso.json", "--order", "6", "--resolution", "16"]),
    # the numeric oracle: a d = 2 verify whose three k values share one span,
    # and a d = 1 density sweep over a config model
    ("verify_sphere2_product_order2",
     ["verify", "--model", "sphere2_product.json", "--order", "2",
      "--k", "100,200,400", "--tol", "1e-8"]),
    ("density_sweep_sphere1_product_order4",
     ["density-sweep", "--model", "sphere1_product.json", "--order", "4",
      "--k", "30,100,1000"]),
    # the plain-float path of group dimension 1
    ("expand_gaussian_order4",
     ["expand", "--model", "builtin:gaussian", "--a", "1/2", "--order", "4"]),
    ("expand_quartic_order6",
     ["expand", "--model", "builtin:quartic", "--a", "0", "--order", "6"]),
    ("bell_table_order12", ["bell-table", "--order", "12"]),
    # d = 3, whose odd rows are rounding noise, so one lane's arithmetic shows
    ("expand_mixed3_order6",
     ["expand", "--model", "mixed3.json", "--order", "6", "--resolution", "8"]),
    # nonlinear float transports at higher order: the sphere's one
    # direction, and 64 lanes through the product's field
    ("expand_sphere_order14", ["expand", "--model", "builtin:sphere", "--order", "14"]),
    ("expand_sphere2_product_order8",
     ["expand", "--model", "sphere2_product.json", "--order", "8", "--resolution", "64"]),
    # the log-weight at a = 1, in float lanes and in exact arithmetic
    ("expand_mixed3_a1_order6",
     ["expand", "--model", "mixed3.json", "--a", "1", "--order", "6", "--resolution", "8"]),
    ("expand_line_poly_exact_a1_order14",
     ["expand", "--model", "line_poly.json", "--exact", "--a", "1", "--order", "14"]),
])
def test_output_matches_golden_bytes(name, args, fmt, capsys, monkeypatch):
    # the golden files hold the stdout of an earlier release; refactors
    # must reproduce it byte for byte.  Model files sit next to them and
    # are named relative to that directory, as the metadata records them.
    monkeypatch.chdir(GOLDEN)
    code, out, err = run_cli(args + ["--format", fmt], capsys)
    assert code == 0 and err == ""
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{fmt}").read_bytes()


FLAT2 = {
    "name": "flat2",
    "group_dim": 2,
    "chart_dim": 2,
    "phi": ["+", ["*", "w0", "x0"], ["*", "w1", "x1"]],
    "flow_field": ["w0", "w1"],
    "laplacian_phi": "0",
    "zero_points": [[0, 0]],
    "orbit_volume": "1",
}


def forbid_flows(monkeypatch):
    from lapasym import oracle

    def no_flow(*args, **kwargs):
        raise AssertionError("the oracle transported a flow")

    monkeypatch.setattr(oracle, "_augmented_flow", no_flow)


def test_exact_mode_rejects_group_dimension_two(tmp_path, capsys):
    # rule directions in d >= 2 are floats, so exact mode cannot stay exact
    path = tmp_path / "flat2.json"
    path.write_text(json.dumps(FLAT2), encoding="utf-8")
    code, out, err = run_cli(
        ["expand", "--model", str(path), "--order", "2", "--exact"], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "'flat2'" in err and "group dimension 2" in err


def test_exact_mode_rejects_a_float_weight(capsys, monkeypatch):
    # the weight is refused, by its own value, before any transport
    from lapasym import models

    def no_transport(*args, **kwargs):
        raise AssertionError("the series path transported a jet")

    monkeypatch.setattr(models, "ode_jet_transport", no_transport)
    code, out, err = run_cli(["expand", "--model", str(GOLDEN / "line_poly.json"),
                              "--a", "0.5", "--order", "4", "--exact"], capsys)
    assert_one_error_line(code, out, err)
    assert "'line-poly'" in err and "weight" in err and "0.5" in err and "1/2" in err


def write_model(tmp_path, config):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("key, value", [
    ("zero_points", 5),
    ("zero_points", [5]),
    ("group_dim", True),
    ("chart_dim", True),
])
def test_malformed_model_config_rejected(key, value, tmp_path, capsys):
    config = {**FLAT2, "group_dim": 1, "chart_dim": 1, "phi": ["*", "w0", "x0"],
              "flow_field": ["w0"], "zero_points": [[0]], key: value}
    code, out, err = run_cli(["expand", "--model", write_model(tmp_path, config)], capsys)
    assert_one_error_line(code, out, err)


def test_off_level_point_is_named_as_text(tmp_path, capsys):
    # the chart point reads as the oddness and orbit-volume refusals write it
    config = {**FLAT2, "name": "m1", "group_dim": 1, "chart_dim": 1,
              "phi": ["*", "w0", "x0"], "flow_field": ["w0"], "zero_points": [["1/2"]]}
    code, out, err = run_cli(["expand", "--model", write_model(tmp_path, config)], capsys)
    assert_one_error_line(code, out, err)
    assert err == ("error: model 'm1', direction (1.0,): point (1/2) is not on the "
                   "zero level (phi = 5.000e-01)\n")


def test_singular_jet_is_a_domain_error(tmp_path, capsys):
    line = {**FLAT2, "group_dim": 1, "chart_dim": 1, "phi": ["*", "w0", "x0"],
            "flow_field": ["w0"], "zero_points": [[0]]}
    cases = [
        # the flow w0 sqrt(x0^2) has a square-root singularity at the base point x0 = 0
        ({**line, "flow_field": [["*", "w0", ["sqrt", ["*", "x0", "x0"]]]]}, ["singular"]),
        # log(x0 - 1) is undefined at x0 = 0 in both directions of d = 1, so
        # the model's oddness check meets it when the model loads, and
        # log(1 + 4 w0 w1 + x0) in the directions of d = 2 with w0 w1 <= -1/4;
        # it is defined along the axes and in the positive quadrant, where
        # that check evaluates it, so the series path meets it
        ({**line, "name": "log-line", "laplacian_phi": ["*", "w0", ["log", ["-", "x0", "1"]]]},
         ["'log-line'", "logarithm of a nonpositive value"]),
        ({**FLAT2, "laplacian_phi": ["*", "w0", ["log", ["+", "1", ["*", "4", "w0", "w1"], "x0"]]]},
         ["'flat2'", "logarithm of a nonpositive value"]),
    ]
    for config, parts in cases:
        code, out, err = run_cli(["expand", "--model", write_model(tmp_path, config)],
                                 capsys)
        assert_one_error_line(code, out, err)
        assert all(part in err for part in parts), err


# x' = 1 + 1e100 x^2 makes the radial coefficients grow by 1e100 every
# second order, past the float range at order 8
BIG = {
    "name": "big", "group_dim": 1, "chart_dim": 1, "phi": ["*", "w0", "x0"],
    "flow_field": [["*", "w0", ["+", "1", ["*", "1e100", ["pow", "x0", 2]]]]],
    "laplacian_phi": "0", "zero_points": [[0]], "orbit_volume": "1",
}


def big_twin(dim):
    # BIG's first coordinate, and x_i' = w_i for the others
    return {
        "name": f"big{dim}", "group_dim": dim, "chart_dim": dim,
        "phi": ["+", *(["*", f"w{i}", f"x{i}"] for i in range(dim))],
        "flow_field": [BIG["flow_field"][0], *(f"w{i}" for i in range(1, dim))],
        "laplacian_phi": "0", "zero_points": [[0] * dim], "orbit_volume": "1",
    }


# numpy warns as its lanes overflow; a warning here fails the test, as it
# would add lines to the command's stderr
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config, scale, flags", [
    (BIG, "1e100", []), (BIG, "1e100", ["--exact"]), (BIG, 1e100, []),
    (big_twin(2), "1e100", ["--resolution", "8"]), (big_twin(3), "1e100", ["--resolution", "8"]),
], ids=["exact-int-float-mode", "exact-int-exact-mode", "float", "d2", "d3"])
def test_radial_data_past_the_float_range_is_refused(config, scale, flags, tmp_path, capsys):
    # an exact int too large for a float used to end in an OverflowError
    # traceback, and a float table printed nan
    config = json.loads(json.dumps(config).replace('"1e100"', json.dumps(scale)))
    code, out, err = run_cli(["expand", "--model", write_model(tmp_path, config),
                              "--order", "8", *flags], capsys)
    assert_one_error_line(code, out, err)
    assert err.startswith(f"error: model '{config['name']}': phase coefficient 8 has no "
                          "finite float")


def test_leading_phase_past_the_float_range_is_refused(tmp_path, capsys):
    # f0 = 1e400 used to end in an OverflowError traceback in the zero-level
    # checks
    config = {**BIG, "phi": ["*", "1e400", "w0", "x0"], "flow_field": ["w0"]}
    code, out, err = run_cli(["expand", "--model", write_model(tmp_path, config)], capsys)
    assert_one_error_line(code, out, err)
    assert err.startswith("error: model 'big': phase coefficient 0 has no finite float")


def test_model_not_odd_in_omega_is_refused(tmp_path, capsys):
    # phi = w0 x0 + x0^2 breaks the oddness in the direction that the series
    # path relies on; the model is refused when it loads
    config = {**FLAT2, "name": "not-odd", "group_dim": 1, "chart_dim": 1,
              "phi": ["+", ["*", "w0", "x0"], ["pow", "x0", 2]],
              "flow_field": ["w0"], "zero_points": [[0]]}
    code, out, err = run_cli(["expand", "--model", write_model(tmp_path, config)], capsys)
    assert_one_error_line(code, out, err)
    assert "model 'not-odd' is not odd in omega: phi" in err


FLAT4 = {
    "name": "flat4",
    "group_dim": 4,
    "chart_dim": 4,
    "phi": ["+", *(["*", f"w{i}", f"x{i}"] for i in range(4))],
    "flow_field": [f"w{i}" for i in range(4)],
    "laplacian_phi": "0",
    "zero_points": [[0, 0, 0, 0]],
    "orbit_volume": "1",
}


@pytest.mark.parametrize("command", [
    ["verify", "--k", "30,100,1000", "--order", "2"],
    ["density-sweep", "--k", "100"],
])
def test_oracle_refuses_group_dimension_four(command, tmp_path, capsys, monkeypatch):
    # the polar quadrature has angular levels for dimensions 1 to 3 only,
    # so the oracle refuses dimension 4, before transporting any flow
    forbid_flows(monkeypatch)
    code, out, err = run_cli(command + ["--model", write_model(tmp_path, FLAT4)], capsys)
    assert_one_error_line(code, out, err)
    assert "'flat4'" in err and "group dimension 4" in err


# the phase 2 w0 x0 exp(-x0^2) is bounded by 1 along the flow, so the
# integrand exp(-k phase) never decays at k = 100
BOUNDED_PHASE = {
    "name": "bounded-phase", "group_dim": 1, "chart_dim": 1,
    "phi": ["*", "w0", "x0", ["exp", ["-", ["pow", "x0", 2]]]],
    "flow_field": ["w0"], "laplacian_phi": "0", "zero_points": [[0]], "orbit_volume": "1",
}


@pytest.mark.parametrize("command", [
    ["verify", "--k", "100,200,400"],
    ["density-sweep", "--k", "100"],
])
def test_phase_that_does_not_grow_is_refused(command, tmp_path, capsys):
    code, out, err = run_cli(command + ["--model", write_model(tmp_path, BOUNDED_PHASE)],
                             capsys)
    assert_one_error_line(code, out, err)
    assert "phase fails to grow" in err
    assert "'bounded-phase'" in err and "k = 100;" in err


def test_verify_refusal_names_model_and_k(tmp_path, capsys):
    # a tolerance below the radial quadrature's reach, and an angular
    # refinement that never settles; the first k is refused
    for model, reason in [
        ("builtin:sphere", "model 'sphere' at k = 30: radial quadrature certified only "
         "5.74e-16 > tol 1e-300 (best estimate 0.051289086504286721, "
         "bound 5.7421390774188369e-16)"),
        (write_model(tmp_path, FLAT2), "model 'flat2' at k = 30: angular refinement "
         "exhausted its budget (best estimate 0.10471975511965982, bound inf)"),
    ]:
        code, out, err = run_cli(["verify", "--model", model, "--k", "30,100,300",
                                  "--tol", "1e-300"], capsys)
        assert_one_error_line(code, out, err)
        assert err == f"error: {reason}\n"


def test_density_sweep_refusal_states_the_density(capsys):
    # the estimate and bound are those of I, j_1's times I's prefactor
    # 157.5 at k = 100, and the tolerance is the one given
    code, out, err = run_cli(["density-sweep", "--model", "builtin:sphere", "--k", "100",
                              "--tol", "1e-300"], capsys)
    assert_one_error_line(code, out, err)
    assert err == ("error: model 'sphere', density I at k = 100: radial quadrature "
                   "certified only 4.88e-14 > tol 1e-300 (best estimate "
                   "4.4263084488682107, bound 4.8809066545161552e-14)\n")


# the flow x0' = w0 reaches x0 = -1 along w0 = -1, where the weight's
# log(1 + x0) is refused
LOG_EDGE = {
    "name": "log-edge", "group_dim": 1, "chart_dim": 1,
    "phi": ["*", "w0", "x0"],
    "flow_field": ["w0"],
    "laplacian_phi": ["*", "w0", ["log", ["+", "1", "x0"]]],
    "zero_points": [[0]],
    "orbit_volume": 1,
}


@pytest.mark.parametrize("command, k, where", [
    ("verify", "100,300,1000", "model 'log-edge' at k = 100"),
    ("density-sweep", "100,300", "model 'log-edge', density I at k = 100"),
])
def test_oracle_refusal_of_a_map_names_model_and_k(tmp_path, capsys, command, k, where):
    code, out, err = run_cli([command, "--model", write_model(tmp_path, LOG_EDGE),
                              "--k", k], capsys)
    assert_one_error_line(code, out, err)
    assert err == f"error: {where}: logarithm of a nonpositive value\n"


# a refusal of a config's shape names the model and the key, as one of
# its expressions does; a string is not a list of one expression
@pytest.mark.parametrize("key, value, refusal", [
    ("flow_field", "w0", "needs one expression per chart coordinate"),
    ("zero_points", [[0, 1]], "each point must have chart dimension"),
    ("zero_points", [0], "must be a list of points, each a list of numbers"),
    ("chart_dim", 1.0, "must be an integer"),
    ("zero_chart", "s", "needs one expression per chart coordinate"),
    ("zero_points", [], "needs at least one point"),
    # json writes and reads NaN and Infinity
    ("zero_points", [[math.nan]], "entry NaN is not finite"),
    ("laplacian_phi", ["*", math.inf, "w0", "x0"], "expression leaf Infinity is not finite"),
    ("orbit_volume", math.inf, "expression leaf Infinity is not finite"),
])
def test_config_shape_refusal_names_model_and_key(tmp_path, capsys, key, value, refusal):
    path = write_model(tmp_path, {**LOG_EDGE, key: value})
    code, out, err = run_cli(["expand", "--model", path], capsys)
    assert_one_error_line(code, out, err)
    assert err == f"error: model 'log-edge': {key}: {refusal}\n"


def test_overflowing_literal_is_refused_at_load(tmp_path, capsys):
    # json reads 1e400 as an infinite float
    path = tmp_path / "model.json"
    path.write_text(json.dumps(LOG_EDGE).replace('"orbit_volume": 1}', '"orbit_volume": 1e400}'),
                    encoding="utf-8")
    code, out, err = run_cli(["expand", "--model", str(path)], capsys)
    assert_one_error_line(code, out, err)
    assert err == "error: model 'log-edge': orbit_volume: expression leaf Infinity is not finite\n"


def test_overflowing_fold_is_refused_at_load(tmp_path, capsys):
    # a symbol-free product past the float range folds to inf; expand, which
    # reads no orbit volume, used to exit 0 on it
    path = write_model(tmp_path, {**LOG_EDGE, "orbit_volume": ["*", 1e300, 1e300]})
    code, out, err = run_cli(["expand", "--model", path], capsys)
    assert_one_error_line(code, out, err)
    assert err == ("error: model 'log-edge': orbit_volume: cannot evaluate "
                   '["*", 1e+300, 1e+300]: the result inf is not finite\n')


# the sphere's circle action in the chart (theta, z): nothing depends on
# theta, so every zero point (theta, 0) gives the same expansion
SPHERE_CHART = {
    "name": "sphere-chart", "group_dim": 1, "chart_dim": 2,
    "phi": ["*", "2", "pi", "w0", "x1"],
    "flow_field": ["0", ["*", "2", "pi", "w0", ["-", "1", ["pow", "x1", 2]]]],
    "laplacian_phi": ["*", "-4", "pi", "w0", "x1"],
    "zero_points": [[0, 0]],
    "orbit_volume": ["*", "2", "pi", ["sqrt", ["-", "1", ["pow", "x1", 2]]]],
}


def test_zero_points_read_exact_strings(tmp_path, capsys):
    from fractions import Fraction

    from lapasym.models import model_from_config

    config = {**SPHERE_CHART, "zero_points": [["1/3", "0"]]}
    point, = model_from_config(config).zero_points
    assert point == (Fraction(1, 3), 0) and type(point[1]) is int
    bodies = []
    for zero_points in ([["1/3", "0"]], [[0, 0]]):
        code, out, err = run_cli(
            ["expand", "--model", write_model(tmp_path, {**config, "zero_points": zero_points}),
             "--order", "4"], capsys)
        assert code == 0 and err == ""
        bodies.append([line for line in out.splitlines() if not line.startswith("#")])
    assert bodies[0] == bodies[1] and len(bodies[0]) == 6


@pytest.mark.parametrize("entry", [True, "abc", "1/0"])
def test_zero_point_entry_that_is_not_a_number_is_refused(entry, tmp_path, capsys):
    config = {**SPHERE_CHART, "zero_points": [[entry, 0]]}
    code, out, err = run_cli(["expand", "--model", write_model(tmp_path, config)], capsys)
    assert_one_error_line(code, out, err)
    assert f"model 'sphere-chart': zero_points entry {json.dumps(entry)} is not a number" in err


def test_two_point_slope_is_the_log_ratio():
    # with two distinct k the verify slope is log(e1 / e0) / log(k1 / k0)
    assert cli._fit_clean_slope([4.0, 16.0], [2.0 ** -5, 2.0 ** -10]) == -2.5
    assert cli._fit_clean_slope([10.0, 1000.0], [3e-4, 3e-4 * 100.0 ** -1.5]) == \
        pytest.approx(-1.5, abs=1e-14)
    assert cli._fit_clean_slope([10.0, 10.0], [1e-3, 2e-3]) is None


def test_zero_divisor_is_a_domain_error(tmp_path, capsys):
    # the orbit volume 1/x0 compiles, and is singular at the zero point x0 = 0
    config = {**FLAT2, "group_dim": 1, "chart_dim": 1, "phi": ["*", "w0", "x0"],
              "flow_field": ["w0"], "zero_points": [[0]], "orbit_volume": ["/", "1", "x0"]}
    code, out, err = run_cli(
        ["density-sweep", "--k", "100", "--model", write_model(tmp_path, config)], capsys
    )
    assert_one_error_line(code, out, err)
    assert 'division by zero in ["/", "1", "x0"]' in err


@pytest.mark.parametrize("volume", ["0", "-2", ["sqrt", ["-", "x0", "1"]]],
                         ids=["zero", "negative", "sqrt"])
def test_orbit_volume_must_be_finite_and_positive(volume, tmp_path, capsys):
    # the densities divide by and weigh with the orbit volume at the zero point
    config = {**FLAT2, "name": "bad-volume", "group_dim": 1, "chart_dim": 1,
              "phi": ["*", "w0", "x0"], "flow_field": ["w0"], "zero_points": [[0]],
              "orbit_volume": volume}
    code, out, err = run_cli(["density-sweep", "--k", "100", "--order", "2", "--model",
                              write_model(tmp_path, config)], capsys)
    assert_one_error_line(code, out, err)
    assert err.startswith("error: model 'bad-volume': ")


@pytest.mark.parametrize("node", [["/", 1, 0], ["sqrt", -1]], ids=["quotient", "sqrt"])
def test_symbol_free_domain_error_fails_at_load(node, tmp_path, capsys, monkeypatch):
    from lapasym import models

    def no_expansion(*args, **kwargs):
        raise AssertionError("the model loaded")

    monkeypatch.setattr(models, "geometric_expansion", no_expansion)
    config = {**FLAT2, "group_dim": 1, "chart_dim": 1, "phi": ["*", "w0", "x0", node],
              "flow_field": ["w0"], "zero_points": [[0]]}
    code, out, err = run_cli(["expand", "--model", write_model(tmp_path, config)], capsys)
    assert_one_error_line(code, out, err)
    assert json.dumps(node) in err


def record_solves(monkeypatch):
    """Record the oracle's flow solves: each solve's direction set, the
    end times it serves with their flows, its right-hand-side calls, and
    every fresh start (one ``_initial_step`` each)."""
    from lapasym import integrators, oracle

    solves, fresh = [], []
    flow = oracle._augmented_flow
    initial_step = integrators._initial_step
    Dop853 = integrators.Dop853

    class Recording(Dop853):
        def __init__(self, fun, y0):
            self.args, self.served, self.calls = (fun, y0), [], 0

            def counting(t, y):
                self.calls += 1
                return fun(t, y)

            super().__init__(counting, y0)
            solves[-1]["solve"] = self

        def until(self, t_bound):
            result = super().until(t_bound)
            self.served.append((t_bound, result))
            return result

    def recording_flow(model, directions, x0):
        solves.append({"directions": directions})
        return flow(model, directions, x0)

    def counting_initial_step(*args):
        fresh.append(args[2])
        return initial_step(*args)

    monkeypatch.setattr(oracle, "_augmented_flow", recording_flow)
    monkeypatch.setattr(integrators, "Dop853", Recording)
    monkeypatch.setattr(integrators, "_initial_step", counting_initial_step)
    return solves, fresh, Dop853


def shared_prefix(a, b):
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return n


def assert_each_flow_solved_once(solves, fresh, Dop853):
    # one fresh solve per direction set, which serves every span it is
    # asked for; each new span reuses the right-hand-side calls it shares
    # with the spans before it, so the solve makes the calls of its longest
    # span plus the clipped tails of the others
    assert solves and len(fresh) == len(solves)
    assert len({record["directions"] for record in solves}) == len(solves)
    for record in solves:
        solve = record["solve"]
        for span, flow in solve.served:
            assert flow.success and flow.t[-1] == span
        fun, y0 = solve.args
        expected, earlier = 0, []
        for span in dict.fromkeys(span for span, _ in solve.served):
            calls = []

            def recording(t, y):
                calls.append((float(t), y.tobytes()))
                return fun(t, y)

            Dop853(recording, y0).until(span)
            expected += len(calls) - max((shared_prefix(calls, c) for c in earlier), default=0)
            earlier.append(calls)
        assert solve.calls == expected


def test_verify_solves_each_flow_once(tmp_path, capsys, monkeypatch):
    # k = 100 needs span 4, k = 200 and 400 span 2: the three k values share
    # the span probes, and the last two their angular directions too
    solves, fresh, Dop853 = record_solves(monkeypatch)
    code, out, err = run_cli(
        ["verify", "--model", write_model(tmp_path, FLAT2), "--order", "2",
         "--k", "100,200,400", "--tol", "1e-8"], capsys
    )
    assert code == 0 and err == ""
    spans = [span for record in solves for span, _ in record["solve"].served]
    assert set(spans) == {1.0, 2.0, 4.0}
    assert_each_flow_solved_once(solves, fresh, Dop853)


def test_density_sweep_solves_each_flow_once(capsys, monkeypatch):
    # the flows do not depend on the half-form weight: I and J share them
    solves, fresh, Dop853 = record_solves(monkeypatch)
    monkeypatch.chdir(GOLDEN)
    code, out, err = run_cli(
        ["density-sweep", "--model", "sphere1_product.json", "--order", "4",
         "--k", "30,100,1000"], capsys
    )
    assert code == 0 and err == ""
    assert_each_flow_solved_once(solves, fresh, Dop853)


@pytest.mark.parametrize("model", ["sphere1_product.json", "sphere2_product.json"])
def test_density_sweep_transports_once(model, capsys, monkeypatch):
    # nor does the series' jet transport: I and J share one, and each reads
    # its own weight off the transported log-weight
    from lapasym import models

    transports = []
    transport = models.ode_jet_transport

    def counting(*args):
        transports.append(args)
        return transport(*args)

    monkeypatch.setattr(models, "ode_jet_transport", counting)
    monkeypatch.chdir(GOLDEN)
    code, out, err = run_cli(["density-sweep", "--model", model, "--order", "2",
                              "--resolution", "8", "--k", "100,300"], capsys)
    assert code == 0 and err == ""
    assert len(transports) == 1


def test_one_dimensional_oracle_is_one_level_of_both_directions(capsys, monkeypatch):
    # d = 1 is one angular level of the nodes +1 and -1: each flow carries
    # both directions, and each radial QUADPACK call is QAG on [0, span]
    from lapasym import integrators, oracle

    directions, quads = [], []
    flow = oracle._augmented_flow
    quad = integrators.quad

    def recording_flow(model, omega, x0):
        directions.append(omega)
        return flow(model, omega, x0)

    def recording_quad(fn, a, b, **kwargs):
        quads.append((a, kwargs))
        return quad(fn, a, b, **kwargs)

    monkeypatch.setattr(oracle, "_augmented_flow", recording_flow)
    monkeypatch.setattr(integrators, "quad", recording_quad)
    code, out, err = run_cli(
        ["verify", "--model", "builtin:sphere", "--order", "2", "--k", "30,100,1000"], capsys
    )
    assert code == 0 and err == ""
    assert directions and all(omega == ((1,), (-1,)) for omega in directions)
    assert quads and all(a == 0.0 and "points" not in kwargs for a, kwargs in quads)


def test_array_zero_divisor_is_a_domain_error(tmp_path, capsys):
    # a d = 2 flow evaluates each angular level on coordinate arrays; this
    # divisor vanishes at the zero point in every direction
    node = ["/", "w0", "x0"]
    config = {**FLAT2, "laplacian_phi": node}
    code, out, err = run_cli(
        ["density-sweep", "--k", "100", "--model", write_model(tmp_path, config)], capsys
    )
    assert_one_error_line(code, out, err)
    assert f"division by zero in {json.dumps(node)}" in err


BLOWUP2 = {
    "name": "blowup2", "group_dim": 2, "chart_dim": 2,
    "phi": ["+", ["*", "w0", "x0"], ["*", "w1", "x1"],
            ["*", "w0", ["-", ["exp", ["exp", ["*", "8", "x1"]]], ["exp", "1"]]]],
    "flow_field": ["w0", "w1"], "laplacian_phi": "0", "zero_points": [[0, 0]],
    "orbit_volume": "1",
}


def test_overflowing_oracle_flow_prints_only_the_error(tmp_path, capsys, monkeypatch):
    # the phase exp(exp(8 x1)) overflows along the flow; the solver's
    # failure is the whole of stderr, with no floating-point warnings, so
    # the command runs as its own process
    from lapasym import integrators

    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    command = ["verify", "--model", write_model(tmp_path, BLOWUP2), "--a", "1/2",
               "--order", "2", "--k", "100,300,1000", "--tol", "1e-9"]
    proc = subprocess.run([sys.executable, "-m", "lapasym.cli", *command], env=env,
                          capture_output=True, text=True, timeout=120)
    assert_one_error_line(proc.returncode, proc.stdout, proc.stderr)
    assert "flow transport failed on blowup2" in proc.stderr
    assert "has a stage that is not finite" in proc.stderr

    # The first level's flow stays finite for 3014 steps (45,245 calls of
    # the right-hand side); the solve ends at the first trial step with a
    # non-finite stage, where running on to step-size underflow took 46,103.
    nfev = []

    class Recording(integrators.Dop853):
        def until(self, t_bound):
            result = super().until(t_bound)
            nfev.append(result.nfev)
            return result

    monkeypatch.setattr(integrators, "Dop853", Recording)
    assert run_cli(command, capsys)[0] == 2
    assert len(nfev) == 1 and nfev[0] < 45_600
