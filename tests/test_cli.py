"""End-to-end tests of the ``igf`` command line through ``main(argv)``.

Expected strings assume the default 12-significant-digit rendering; values
behind them were frozen from the direct-summation oracles.
"""

from __future__ import annotations

import ast
import contextlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import igf
from igf import (
    InvalidParameter,
    ScalingIdentityReport,
    ValidationError,
    constant_utility_scheme,
    escort_transform,
    golomb_igf,
    hooda_bhaker_igf,
    make_scheme,
    realize_family,
    scheme_from_dict,
    weighted_igf,
)
from igf import cli, distributions
from igf.cli import CurveRequest, _render_floats, build_parser, main, render_scheme_json
from igf.distributions import MAX_REALIZED_TERMS, ParametricFamily
from igf.generating_functions import LogBase


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def half_half(tmp_path):
    path = tmp_path / "half_half.json"
    path.write_text(json.dumps({"probabilities": [0.5, 0.5], "utilities": [1.0, 2.0]}))
    return str(path)


@pytest.fixture
def unit(tmp_path):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"probabilities": [0.5, 0.5], "utilities": [1.0, 1.0]}))
    return str(path)


@pytest.fixture
def eight_two(tmp_path):
    path = tmp_path / "eight_two.json"
    path.write_text(json.dumps({"probabilities": [0.8, 0.2], "utilities": [1.0, 1.0]}))
    return str(path)


class TestEval:
    def test_complete_scheme_is_one_at_t1(self, capsys, half_half):
        code, out, _ = run(capsys, "eval", "--input", half_half, "--t", "1")
        assert (code, out) == (0, "1\n")

    def test_weighted_point_values(self, capsys, half_half):
        code, out, _ = run(capsys, "eval", "--input", half_half, "--t", "2")
        assert (code, out) == (0, "0.375\n")
        code, out, _ = run(capsys, "eval", "--input", half_half, "--t", "3")
        assert (code, out) == (0, "0.15625\n")

    def test_other_measures(self, capsys, half_half, tmp_path):
        code, out, _ = run(
            capsys, "eval", "--input", half_half, "--measure", "golomb", "--t", "2"
        )
        assert (code, out) == (0, "0.5\n")
        hb = tmp_path / "hb.json"
        hb.write_text(json.dumps({"probabilities": [0.5, 0.5], "utilities": [2.0, 4.0]}))
        code, out, _ = run(
            capsys, "eval", "--input", str(hb), "--measure", "hooda_bhaker", "--t", "2"
        )
        assert (code, out) == (0, "1.5\n")

    def test_below_domain_is_exit_3(self, capsys, half_half):
        code, out, err = run(capsys, "eval", "--input", half_half, "--t", "0.5")
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    def test_non_finite_value_is_exit_3(self, capsys, tmp_path):
        # 1e308 * 0.5 ** -2 overflows to inf without an OverflowError
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"probabilities": [0.5, 0.5], "utilities": [1e308, 1]}))
        code, out, err = run(
            capsys, "eval", "--input", str(path), "--measure", "hooda_bhaker",
            "--t", "-2", "--extended-t",
        )
        assert (code, out, err) == (
            3, "", "error: non-finite hooda_bhaker value at t = -2.0\n"
        )

    def test_extended_t_opens_the_domain(self, capsys, half_half):
        code, out, _ = run(
            capsys, "eval", "--input", half_half, "--t", "0.5", "--extended-t"
        )
        # 0.5**0.5 + 0.5**0 at the shifted exponents
        assert (code, out) == (0, "1.70710678119\n")

    def test_digits_flag(self, capsys, half_half):
        code, out, _ = run(
            capsys, "eval", "--input", half_half, "--t", "2", "--digits", "2"
        )
        assert (code, out) == (0, "0.38\n")

    def test_digits_out_of_range_is_a_usage_error(self, half_half):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--input", half_half, "--t", "2", "--digits", "18"])
        assert excinfo.value.code == 2

    def test_missing_input_is_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--t", "2")
        assert code == 2
        assert "input" in err

    def test_unreadable_file_is_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "eval", "--input", str(tmp_path / "missing.json"), "--t", "2"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_json_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "eval", "--input", str(path), "--t", "2")
        assert code == 2
        assert "JSON" in err

    def test_integer_too_large_for_a_float_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"probabilities": [1], "utilities": [1' + "0" * 400 + "]}")
        code, out, err = run(capsys, "eval", "--input", str(path), "--t", "2")
        assert (code, out, err) == (
            2, "", "error: utility entry 0 is an integer too large for a float\n"
        )

    def test_integer_past_the_parsers_digit_limit_is_exit_2(self, capsys, tmp_path):
        # json.loads refuses an int of more than 4300 digits with a plain
        # ValueError where the interpreter limits int parsing
        path = tmp_path / "huge.json"
        path.write_text('{"probabilities": [1], "utilities": [1' + "0" * 5000 + "]}")
        code, out, err = run(capsys, "eval", "--input", str(path), "--t", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_normalized_scheme_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"probabilities": [0.5, 0.6], "utilities": [1, 1]}))
        code, _, err = run(capsys, "eval", "--input", str(path), "--t", "2")
        assert code == 2

    def test_csv_input(self, capsys, tmp_path):
        path = tmp_path / "scheme.csv"
        path.write_text("p,u\n0.5,1\n0.5,2\n")
        code, out, _ = run(
            capsys, "eval", "--input", str(path), "--format", "csv", "--t", "2"
        )
        assert (code, out) == (0, "0.375\n")

    def test_csv_with_wrong_column_count_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "scheme.csv"
        path.write_text("0.5,1,9\n0.5,2,9\n")
        code, _, err = run(
            capsys, "eval", "--input", str(path), "--format", "csv", "--t", "2"
        )
        assert code == 2
        assert "two columns" in err

    def test_csv_with_non_numeric_entries_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "scheme.csv"
        path.write_text("p,u\n0.5,1\n0.5,two\n")
        code, out, err = run(capsys, "normalize", "--input", str(path), "--format", "csv")
        assert (code, out, err) == (
            2, "", f"error: {path}: row 2 has non-numeric entries: '0.5,two'\n"
        )

    def test_non_integer_digits_is_a_usage_error(self, capsys, half_half):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--input", half_half, "--t", "2", "--digits", "x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --digits: digits must be an integer, got 'x'\n"
        )

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([0.5, 0.5], "scheme document must be an object, got list"),
            ({"probabilities": 1}, '"probabilities" must be an array'),
            ({"probabilities": [1.0], "utilities": 1}, '"utilities" must be an array'),
            ({"probabilities": [1.0], "labels": "a"}, '"labels" must be an array of strings'),
            ({"probabilities": [0.5, 0.5], "labels": ["a", 2]}, "labels must be strings, got 2"),
        ],
    )
    def test_malformed_scheme_document_is_exit_2(self, capsys, tmp_path, doc, message):
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "normalize", "--input", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_probability_is_one_error_in_csv_and_json(self, capsys, tmp_path, position):
        probs = ["0.25", "0.5", "0.25"]
        probs[position] = "nan"
        csv_path = tmp_path / "scheme.csv"
        csv_path.write_text("".join(f"{p},1\n" for p in probs))
        json_path = tmp_path / "scheme.json"
        json_path.write_text('{"probabilities": [' + ", ".join(probs).replace("nan", "NaN") + "]}")
        for path, fmt in ((csv_path, "csv"), (json_path, "json")):
            code, _, err = run(
                capsys, "eval", "--input", str(path), "--format", fmt, "--t", "2"
            )
            assert code == 2
            assert f"entry {position} is nan, not a finite number" in err


class TestEntropy:
    def test_natural_base(self, capsys, unit, half_half):
        code, out, _ = run(capsys, "entropy", "--input", unit)
        assert (code, out) == (0, "0.69314718056\n")
        code, out, _ = run(capsys, "entropy", "--input", half_half)
        assert (code, out) == (0, "1.03972077084\n")

    def test_point_mass_prints_positive_zero(self, capsys, tmp_path):
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"probabilities": [1.0]}))
        code, out, _ = run(capsys, "entropy", "--input", str(path))
        assert (code, out) == (0, "0\n")

    def test_base_two(self, capsys, unit, half_half):
        code, out, _ = run(capsys, "entropy", "--input", unit, "--base", "2")
        assert (code, out) == (0, "1\n")
        code, out, _ = run(capsys, "entropy", "--input", half_half, "--base", "2")
        assert (code, out) == (0, "1.5\n")


    def test_base_choices_are_the_log_bases(self, capsys, half_half):
        for base in LogBase:
            code, _, _ = run(capsys, "entropy", "--input", half_half, "--base", base.value)
            assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--input", half_half, "--base", "10"])
        assert exc.value.code == 2
        assert "argument --base: invalid choice: '10'" in capsys.readouterr().err


class TestMoments:
    def test_first_two_rows(self, capsys, half_half):
        code, out, _ = run(capsys, "moments", "--input", half_half, "--r-max", "1")
        assert code == 0
        assert out.splitlines() == ["0\t1", "1\t1.03972077084"]

    def test_degenerate_scheme_has_zero_moments(self, capsys, tmp_path):
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"probabilities": [1.0], "utilities": [3.0]}))
        code, out, _ = run(capsys, "moments", "--input", str(path), "--r-max", "4")
        assert code == 0
        assert out.splitlines() == ["0\t1", "1\t0", "2\t0", "3\t0", "4\t0"]

    def test_zeroth_row_is_the_mass_for_generalized_input(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(
            json.dumps(
                {
                    "probabilities": [0.25, 0.25],
                    "utilities": [1.0, 2.0],
                    "kind": "generalized",
                }
            )
        )
        code, out, _ = run(capsys, "moments", "--input", str(path), "--r-max", "1")
        assert code == 0
        assert out.splitlines()[0] == "0\t0.5"

    def test_overflowing_term_is_exit_3(self, capsys, tmp_path):
        # (-u * ln p) ** 2 = (1e305 * 690.8) ** 2 does not fit in a float
        path = tmp_path / "huge_u.json"
        path.write_text(
            json.dumps({"probabilities": [1e-300, 1.0], "utilities": [1e305, 1.0]})
        )
        code, out, err = run(capsys, "moments", "--input", str(path), "--r-max", "2")
        assert code == 3
        assert out.splitlines()[0] == "0\t1"
        assert "term 0 overflows" in err

    @pytest.mark.parametrize("bad", ["0", "9", "-1"])
    def test_r_max_outside_declared_range_is_exit_2(self, capsys, half_half, bad):
        code, _, err = run(capsys, "moments", "--input", half_half, "--r-max", bad)
        assert code == 2
        assert "--r-max" in err


class TestCurve:
    def test_three_point_curve_bytes(self, capsys, half_half, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys,
            "curve",
            "--input",
            half_half,
            "--t-min",
            "1",
            "--t-max",
            "3",
            "--steps",
            "3",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert out_path.read_bytes() == b"t,weighted\n1.0,1.0\n2.0,0.375\n3.0,0.15625\n"

    def test_measure_columns_follow_canonical_order(self, capsys, half_half, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys,
            "curve",
            "--input",
            half_half,
            "--steps",
            "3",
            "--measures",
            "golomb,weighted",
            "--out",
            str(out_path),
        )
        assert code == 0
        header = out_path.read_text().splitlines()[0]
        assert header == "t,weighted,golomb"

    def test_duplicate_measures_are_dropped(self, capsys, half_half, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys,
            "curve",
            "--input",
            half_half,
            "--steps",
            "2",
            "--measures",
            "weighted,weighted",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert out_path.read_text().splitlines()[0] == "t,weighted"

    def test_identical_requests_are_byte_identical(self, capsys, half_half, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                capsys,
                "curve",
                "--input",
                half_half,
                "--steps",
                "101",
                "--measures",
                "weighted,golomb,hooda_bhaker",
                "--out",
                str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_weighted_column_never_increases(self, capsys, half_half, tmp_path):
        out_path = tmp_path / "curve.csv"
        run(capsys, "curve", "--input", half_half, "--steps", "101", "--out", str(out_path))
        rows = out_path.read_text().splitlines()[1:]
        ts = [float(r.split(",")[0]) for r in rows]
        values = [float(r.split(",")[1]) for r in rows]
        assert len(rows) == 101
        assert ts[0] == 1.0 and ts[-1] == 3.0
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert values[0] == 1.0
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_named_family_source(self, capsys, tmp_path):
        out_path = tmp_path / "uniform.csv"
        code, _, _ = run(
            capsys,
            "curve",
            "--family",
            "uniform",
            "--n",
            "4",
            "--u",
            "2",
            "--steps",
            "5",
            "--out",
            str(out_path),
        )
        assert code == 0
        rows = out_path.read_text().splitlines()
        assert rows[1] == "1.0,1.0"
        assert rows[2] == "1.5,0.25"
        assert rows[3] == "2.0,0.0625"

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (["--t-max", "inf"], "t_max must be finite, got inf"),
            (["--t-min=-inf"], "t_min must be finite, got -inf"),
            (["--t-min=-inf", "--t-max", "inf"], "t_min must be finite, got -inf"),
            (
                ["--t-min=-1e308", "--t-max", "1e308"],
                "the span from t_min = -1e+308 to t_max = 1e+308 overflows",
            ),
        ],
    )
    def test_unbounded_grid_names_its_endpoints(self, capsys, half_half, tmp_path, bounds, message):
        # an inf endpoint or span makes the step inf and the first t nan
        out_path = tmp_path / "curve.csv"
        code, _, err = run(
            capsys, "curve", "--input", half_half, *bounds, "--extended-t",
            "--out", str(out_path),
        )
        assert (code, err) == (2, f"error: {message}\n")
        assert not out_path.exists()
        scheme = scheme_from_dict({"probabilities": [0.5, 0.5], "utilities": [1.0, 2.0]})
        t_min = float(bounds[0].split("=")[1]) if "=" in bounds[0] else 1.0
        t_max = float(bounds[-1]) if "--t-max" in bounds else 3.0
        with pytest.raises(InvalidParameter, match=message.replace("+", r"\+")):
            CurveRequest(scheme, t_min, t_max, 5, extended=True)

    def test_infinite_family_needs_truncation(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "curve",
            "--family",
            "geometric",
            "--p",
            "0.5",
            "--steps",
            "3",
            "--out",
            str(tmp_path / "g.csv"),
        )
        assert code == 2
        assert "truncation" in err

    def test_truncated_geometric_family(self, capsys, tmp_path):
        out_path = tmp_path / "geom.csv"
        code, _, _ = run(
            capsys,
            "curve",
            "--family",
            "geometric",
            "--p",
            "0.5",
            "--truncation",
            "60",
            "--steps",
            "3",
            "--out",
            str(out_path),
        )
        assert code == 0
        first = out_path.read_text().splitlines()[1]
        assert first == "1.0,1.0"

    def test_source_must_be_exactly_one_of_input_and_family(self, capsys, half_half, tmp_path):
        out = str(tmp_path / "x.csv")
        code, _, err = run(
            capsys, "curve", "--input", half_half, "--family", "uniform",
            "--n", "4", "--out", out,
        )
        assert code == 2 and "not both" in err
        code, _, err = run(capsys, "curve", "--out", out)
        assert code == 2

    def test_unknown_measure_is_exit_2(self, capsys, half_half, tmp_path):
        code, _, err = run(
            capsys, "curve", "--input", half_half, "--measures", "renyi",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--measures" in err

    def test_degenerate_grids_are_exit_2(self, capsys, half_half, tmp_path):
        out = str(tmp_path / "x.csv")
        code, _, _ = run(capsys, "curve", "--input", half_half, "--steps", "1", "--out", out)
        assert code == 2
        code, _, _ = run(
            capsys, "curve", "--input", half_half, "--t-min", "2", "--t-max", "2", "--out", out
        )
        assert code == 2

    def test_grid_below_domain_is_exit_3_unless_extended(self, capsys, half_half, tmp_path):
        out = str(tmp_path / "x.csv")
        code, _, _ = run(
            capsys, "curve", "--input", half_half, "--t-min", "0.5", "--out", out
        )
        assert code == 3
        code, _, _ = run(
            capsys, "curve", "--input", half_half, "--t-min", "0.5", "--steps", "6",
            "--extended-t", "--out", out,
        )
        assert code == 0

    def test_unwritable_output_is_exit_2(self, capsys, half_half, tmp_path):
        code, _, err = run(
            capsys, "curve", "--input", half_half,
            "--out", str(tmp_path / "no_dir" / "x.csv"),
        )
        assert code == 2
        assert "cannot write" in err


def _pointwise_csv(scheme, t_min: float, t_max: float, steps: int) -> bytes:
    """The all-measures curve CSV built from one scalar call per (t, measure)."""
    step = (t_max - t_min) / (steps - 1)
    lines = ["t,weighted,golomb,hooda_bhaker"]
    for k in range(steps):
        t = t_max if k == steps - 1 else t_min + k * step
        values = (weighted_igf(scheme, t), golomb_igf(scheme.dist, t), hooda_bhaker_igf(scheme, t))
        lines.append(",".join(map(repr, (t, *values))))
    return ("\n".join(lines) + "\n").encode()


class TestFamilyCurvesMatchPointwise:
    """Family curves share one element-power pass per t (and at u = 1 one
    sum) and drop the entries that underflow to 0.0, byte for byte as the
    pointwise calls: 1e4 terms of geometric p = 0.6 hold 8543 zeros."""

    @pytest.mark.parametrize(
        "args, family",
        [
            (["geometric", "--p", "0.05"], ParametricFamily.geometric(0.05)),
            (["geometric", "--p", "0.6"], ParametricFamily.geometric(0.6)),
            (["geometric", "--p", "0.95"], ParametricFamily.geometric(0.95)),
            (["beta-power", "--beta", "2.1"], ParametricFamily.beta_power(2.1)),
        ],
    )
    @pytest.mark.parametrize("u", ["1", "2.5"])
    def test_curve_bytes(self, capsys, tmp_path, args, family, u):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "curve", "--family", *args, "--u", u,
            "--truncation", "10000", "--t-min", "1", "--t-max", "3", "--steps", "21",
            "--measures", "weighted,golomb,hooda_bhaker", "--out", str(out_path),
        )
        assert code == 0
        scheme = constant_utility_scheme(realize_family(family, 10000), float(u))
        assert out_path.read_bytes() == _pointwise_csv(scheme, 1.0, 3.0, 21)


class TestClosedForm:
    def test_uniform_entropy(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "uniform", "--n", "4", "--u", "2", "--entropy"
        )
        assert (code, out) == (0, "2.77258872224\n")

    def test_geometric_igf(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "geometric", "--p", "0.5", "--u", "1", "--t", "2"
        )
        assert (code, out) == (0, "0.333333333333\n")

    def test_beta_power_igf(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "beta-power", "--beta", "2", "--u", "1", "--t", "2"
        )
        assert (code, out) == (0, "0.4\n")

    def test_divergent_beta_is_exit_2(self, capsys):
        code, _, err = run(capsys, "closed-form", "beta-power", "--beta", "0.9", "--t", "2")
        assert code == 2
        assert err.startswith("error:")

    def test_domain_failures_are_exit_3(self, capsys):
        # t below 1 without the flag
        code, _, _ = run(
            capsys, "closed-form", "geometric", "--p", "0.5", "--u", "1", "--t", "0.9"
        )
        assert code == 3
        # s <= 0 for the geometric sum
        code, _, _ = run(
            capsys, "closed-form", "geometric", "--p", "0.5", "--u", "2", "--t", "0.4",
            "--extended-t",
        )
        assert code == 3
        # beta * s <= 1 for the transformed power series
        code, _, _ = run(
            capsys, "closed-form", "beta-power", "--beta", "1.5", "--u", "2", "--t", "0.8",
            "--extended-t",
        )
        assert code == 3

    def test_t_and_entropy_are_mutually_exclusive(self, capsys):
        code, _, err = run(
            capsys, "closed-form", "uniform", "--n", "4", "--t", "2", "--entropy"
        )
        assert code == 2 and "not both" in err
        code, _, err = run(capsys, "closed-form", "uniform", "--n", "4")
        assert code == 2

    def test_family_parameter_mismatch_is_exit_2(self, capsys):
        code, _, err = run(capsys, "closed-form", "uniform", "--n", "4", "--p", "0.5", "--t", "2")
        assert code == 2 and "does not take" in err
        code, _, err = run(capsys, "closed-form", "uniform", "--t", "2")
        assert code == 2 and "requires" in err

    def test_check_against_direct_summation(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "geometric", "--p", "0.5", "--u", "1", "--t", "2",
            "--check",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "closed_form: 0.333333333333"
        assert lines[1].startswith("direct: 0.333333333333")
        assert float(lines[2].split(": ")[1]) <= 1e-11

    def test_check_uniform_and_beta_power(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "uniform", "--n", "4", "--u", "2", "--t", "2",
            "--check",
        )
        assert code == 0
        assert float(out.splitlines()[2].split(": ")[1]) <= 1e-14
        code, out, _ = run(
            capsys, "closed-form", "beta-power", "--beta", "2", "--u", "1", "--t", "2",
            "--check",
        )
        assert code == 0
        assert float(out.splitlines()[2].split(": ")[1]) <= 1e-10

    @pytest.mark.parametrize("query", [["--t", "2"], ["--entropy"]])
    def test_check_near_p_one_stops_at_the_cap(self, capsys, query):
        # p = 1 - 1e-9 would need a 4.3e9-term direct sum
        start = time.monotonic()
        code, out, err = run(
            capsys, "closed-form", "geometric", "--p", "0.999999999", *query, "--check"
        )
        assert time.monotonic() - start < 5.0
        assert (code, out) == (2, "")
        assert "cap of 1000000" in err

    @pytest.mark.parametrize(
        "family", [["geometric", "--p", "0.5"], ["beta-power", "--beta", "2"]]
    )
    def test_infinite_t_is_zero_with_and_without_check(self, capsys, family):
        # every term p_i ** inf is 0: one term is enough for the direct sum,
        # and the power-law closed form takes its limit instead of zeta(inf)
        code, out, _ = run(capsys, "closed-form", *family, "--t", "inf")
        assert (code, out) == (0, "0\n")
        code, out, _ = run(capsys, "closed-form", *family, "--t", "inf", "--check")
        assert (code, out) == (0, "closed_form: 0\ndirect: 0\nabs_diff: 0.000000e+00\n")

    @pytest.mark.parametrize(
        "beta, t, value", [("2", "1e300", "0"), ("1e300", "1e10", "1")]
    )
    def test_large_finite_t_with_and_without_check(self, capsys, beta, t, value):
        # zeta(2) ** 1e300 overflows, and beta * s = 1e310 reaches zeta(inf)
        query = ("closed-form", "beta-power", "--beta", beta, "--t", t)
        code, out, _ = run(capsys, *query)
        assert (code, out) == (0, value + "\n")
        code, out, _ = run(capsys, *query, "--check")
        assert (code, out) == (
            0, f"closed_form: {value}\ndirect: {value}\nabs_diff: 0.000000e+00\n"
        )

    def test_point_mass_check_entropy_prints_positive_zero(self, capsys):
        code, out, _ = run(capsys, "closed-form", "uniform", "--n", "1", "--entropy", "--check")
        assert (code, out) == (0, "closed_form: 0\ndirect: 0\nabs_diff: 0.000000e+00\n")

    def test_beta_power_check_entropy_skips_zero_terms(self, capsys):
        # p_i = i**-400 / zeta(400) is 0 from i = 8 on, where 0 * log 0
        # would make the direct sum nan
        code, out, err = run(
            capsys, "closed-form", "beta-power", "--beta", "400", "--entropy",
            "--check", "--digits", "16",
        )
        assert (code, out, err) == (
            0,
            "closed_form: 1.073710466894818e-118\n"
            "direct: 1.073710466894818e-118\n"
            "abs_diff: 0.000000e+00\n",
            "",
        )

    @pytest.mark.parametrize("beta", ["1e153", "1e300"])
    def test_huge_beta_entropy_with_and_without_check(self, capsys, beta):
        # (beta - 1) ** 2 in the zeta' tail overflows from about 1.34e154
        query = ("closed-form", "beta-power", "--beta", beta, "--entropy")
        code, out, _ = run(capsys, *query)
        assert (code, out) == (0, "0\n")
        code, out, _ = run(capsys, *query, "--check")
        closed, direct, diff = out.splitlines()
        assert (code, closed, direct, diff) == (
            0, "closed_form: 0", "direct: 0", "abs_diff: 0.000000e+00"
        )

    @pytest.mark.parametrize("p", ["1e-200", "1e-10"])
    def test_check_survives_underflowing_terms(self, capsys, p):
        # q * p**i underflows to 0 after a few terms; those add nothing
        code, out, _ = run(
            capsys, "closed-form", "geometric", "--p", p, "--u", "1", "--entropy",
            "--check", "--digits", "17",
        )
        assert code == 0
        closed, direct, _ = out.splitlines()
        assert direct.startswith("direct: ")
        value = float(direct.split(": ")[1])
        assert math.isfinite(value)
        assert value == pytest.approx(float(closed.split(": ")[1]), rel=1e-14)


class TestClosedFormExtremes:
    """Points that ended in a traceback (exit 1) before the closed forms
    and the geometric --check cutoff took them in logs."""

    def test_overflowing_uniform_igf_is_exit_3(self, capsys):
        # 10 ** 400 is past the float range
        code, out, err = run(
            capsys, "closed-form", "uniform", "--n", "10", "--u", "100", "--t", "-3",
            "--extended-t",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: uniform IGF overflows")

    @pytest.mark.parametrize("check", [(), ("--check",)])
    def test_uniform_igf_at_minus_infinite_t_is_exit_3(self, capsys, check):
        # printed inf with exit 0, and abs_diff: nan under --check
        code, out, err = run(
            capsys, "closed-form", "uniform", "--n", "10", "--t=-inf", "--extended-t", *check
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: uniform IGF overflows")

    def test_uniform_n_past_the_float_range(self, capsys):
        # float(n) overflows; n ** -1 = 1e-400 underflows like any power
        n = "1" + "0" * 400
        code, out, _ = run(capsys, "closed-form", "uniform", "--n", n, "--t", "2")
        assert (code, out) == (0, "0\n")
        code, out, _ = run(capsys, "closed-form", "uniform", "--n", n, "--entropy")
        assert (code, out) == (0, "921.034037198\n")

    def test_check_with_a_cancelling_tail_denominator_is_exit_2(self, capsys):
        # s = 2.2e-16: 1 - p ** s rounds to 0, so its log was a domain error
        code, out, err = run(
            capsys, "closed-form", "geometric", "--p", "0.9", "--u", "2",
            "--t", "0.50000000000000006", "--extended-t", "--check",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: the realized family needs at least ")
        assert err.endswith(f"terms, above the cap of {MAX_REALIZED_TERMS}\n")

    def test_check_with_an_underflowing_first_term_sums_one_term(self, capsys):
        # s * ln q overflows to -inf, and so did the bound on the terms
        code, out, err = run(
            capsys, "closed-form", "geometric", "--p", "0.9999999999999999", "--u", "0.5",
            "--t", "1e308", "--check",
        )
        assert (code, out, err) == (
            0, "closed_form: 0\ndirect: 0\nabs_diff: 0.000000e+00\n", ""
        )

    def test_check_with_an_underflowing_ratio_power_sums_one_term(self, capsys):
        # s = inf and q = 1.0: the bound on the terms was inf * 0 = nan
        code, out, err = run(
            capsys, "closed-form", "geometric", "--p", "1e-200", "--u", "2",
            "--t", "1e308", "--check",
        )
        assert (code, out, err) == (
            0, "closed_form: 1\ndirect: 1\nabs_diff: 0.000000e+00\n", ""
        )

    def test_no_point_of_the_sweep_ends_in_a_traceback(self, capsys):
        families = [
            ["uniform", "--n", "10"],
            ["geometric", "--p", "0.9"],
            ["geometric", "--p", "0.9999999999999999"],
            ["beta-power", "--beta", "1.5"],
        ]
        ts = ["-1000", "0", "0.50000000000000006", "1", "2", "1e308", "inf"]
        codes = {}
        for family in families:
            # the beta-power check realizes a million terms per run
            checks = [[]] if family[0] == "beta-power" else [[], ["--check"]]
            for t in ts:
                for u in ["0.5", "2", "100"]:
                    for check in checks:
                        argv = [
                            "closed-form", *family, "--u", u, "--t", t, "--extended-t", *check
                        ]
                        codes[" ".join(argv)] = main(argv)
        capsys.readouterr()
        assert len(codes) == 147
        assert {argv: code for argv, code in codes.items() if code not in (0, 2, 3)} == {}


@pytest.mark.parametrize(
    "flag, value",
    [("--n", "4"), ("--p", "0.5"), ("--beta", "2"), ("--u", "3"), ("--truncation", "5")],
)
def test_curve_input_refuses_family_flags(capsys, half_half, tmp_path, flag, value):
    # the scheme file carries its own probabilities and utilities, so these
    # were dropped without a word
    out_path = tmp_path / "c.csv"
    code, out, err = run(
        capsys, "curve", "--input", half_half, flag, value, "--out", str(out_path)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} needs --family")
    assert not out_path.exists()


@pytest.mark.parametrize("family", [["uniform", "--n", "3"], ["geometric", "--p", "0.5"]])
@pytest.mark.parametrize("check", [[], ["--check"]])
def test_closed_form_entropy_refuses_extended_t(capsys, family, check):
    # an entropy evaluates no t, and the flag was dropped without a word
    code, out, err = run(capsys, "closed-form", *family, "--entropy", "--extended-t", *check)
    assert (code, out, err) == (2, "", "error: --extended-t needs --t\n")


def test_curve_uniform_refuses_truncation(capsys, tmp_path):
    # the uniform family is finite, so --truncation was dropped without a word
    out_path = tmp_path / "c.csv"
    code, out, err = run(
        capsys, "curve", "--family", "uniform", "--n", "4", "--truncation", "5",
        "--out", str(out_path),
    )
    assert (code, out, err) == (2, "", "error: family 'uniform' does not take --truncation\n")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["closed-form", "uniform", "--n", "{size}", "--t", "2", "--check"],
        ["curve", "--family", "uniform", "--n", "{size}"],
        ["curve", "--family", "geometric", "--p", "0.5", "--truncation", "{size}"],
        ["curve", "--family", "beta-power", "--beta", "2", "--truncation", "{size}"],
    ],
)
def test_realized_family_is_capped(capsys, tmp_path, monkeypatch, argv):
    # a huge --n or --truncation grew a tuple until MemoryError (exit 1);
    # the cap is checked before anything is realized
    def refuse(*args):
        raise AssertionError("a distribution was built above the cap")

    monkeypatch.setattr(distributions, "ProbabilityDistribution", refuse)
    size = str(MAX_REALIZED_TERMS + 1)
    out_path = tmp_path / "c.csv"
    if argv[0] == "curve":
        argv = [*argv, "--steps", "2", "--out", str(out_path)]
    code, out, err = run(capsys, *(a.format(size=size) for a in argv))
    assert (code, out) == (2, "")
    assert err == (
        f"error: the realized family needs at least {size} terms, "
        f"above the cap of {MAX_REALIZED_TERMS}\n"
    )
    assert not out_path.exists()


class TestEscort:
    def test_transform_report(self, capsys, eight_two):
        code, out, _ = run(capsys, "escort", "--input", eight_two, "--beta", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "escort: 0.941176470588 0.0588235294118"
        assert lines[1] == "mass: 0.68"

    def test_power_one_echoes_the_input(self, capsys, eight_two):
        code, out, _ = run(capsys, "escort", "--input", eight_two, "--beta", "1")
        lines = out.splitlines()
        assert (code, lines[0], lines[1]) == (0, "escort: 0.8 0.2", "mass: 1")

    def test_generalized_igf_line(self, capsys, eight_two):
        code, out, _ = run(
            capsys, "escort", "--input", eight_two, "--beta", "2", "--t", "2"
        )
        assert code == 0
        assert out.splitlines()[2] == "generalized_igf: 0.889273356401"

    def test_verify_identity_passes(self, capsys, eight_two):
        code, out, _ = run(
            capsys, "escort", "--input", eight_two, "--beta", "2", "--u", "1",
            "--t", "2", "--verify-identity",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "generalized_igf: 0.889273356401"
        assert lines[3] == "lhs: 0.4112"
        assert float(lines[4].split(": ")[1]) == pytest.approx(0.4112, abs=1e-12)
        assert lines[-1] == "PASS"

    def test_verify_identity_builds_the_escort_once(self, capsys, eight_two, monkeypatch):
        # the escort and its IGF printed above feed the identity check
        import igf.cli as cli_module
        import igf.escort as escort_module

        calls = {"escort_transform": 0, "weighted_igf": 0}
        for name in calls:
            real = getattr(escort_module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in (cli_module, escort_module):
                monkeypatch.setattr(module, name, counted)
        code, out, _ = run(
            capsys, "escort", "--input", eight_two, "--beta", "2", "--u", "1",
            "--t", "2", "--verify-identity",
        )
        assert (code, out.splitlines()[-1]) == (0, "PASS")
        assert calls == {"escort_transform": 1, "weighted_igf": 1}

    def test_verify_identity_needs_t(self, capsys, eight_two):
        code, _, err = run(
            capsys, "escort", "--input", eight_two, "--beta", "2", "--verify-identity"
        )
        assert code == 2
        assert "--t" in err

    def test_failed_verification_is_exit_4(self, capsys, eight_two, monkeypatch):
        # both sides agree to ~1e-15 on anything this CLI can reach, so a
        # genuine FAIL is not constructible from inputs; fake the report to
        # pin the exit-code wiring
        import igf.cli as cli_module

        monkeypatch.setattr(
            cli_module,
            "verify_scaling_identity",
            lambda *a, **k: ScalingIdentityReport(
                lhs=1.0, rhs=2.0, abs_diff=1.0, passed=False
            ),
        )
        code, out, _ = run(
            capsys, "escort", "--input", eight_two, "--beta", "2", "--u", "1",
            "--t", "2", "--verify-identity",
        )
        assert code == 4
        assert out.splitlines()[-1] == "FAIL"

    def test_bad_beta_is_exit_2(self, capsys, eight_two):
        code, _, _ = run(capsys, "escort", "--input", eight_two, "--beta", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--beta", "2", "--t", "0.5"], 3),
            (["--beta", "2", "--t", "2", "--u", "0"], 2),
            (["--beta", "0.5", "--t", "1e4", "--verify-identity"], 3),
        ],
    )
    def test_failure_prints_nothing(self, capsys, eight_two, argv, code):
        # the escort and mass lines used to be printed before t, u or the
        # escort mass ** s was found bad
        got, out, err = run(capsys, "escort", "--input", eight_two, *argv)
        assert (got, out) == (code, "")
        assert err.startswith("error: ")

    def test_u_needs_t(self, capsys, eight_two):
        code, out, err = run(capsys, "escort", "--input", eight_two, "--beta", "2", "--u", "5")
        assert (code, out, err) == (2, "", "error: --u needs --t\n")

    def test_extended_t_needs_t(self, capsys, eight_two):
        # without --t no t is evaluated, and the escort was printed
        code, out, err = run(
            capsys, "escort", "--input", eight_two, "--beta", "2", "--extended-t"
        )
        assert (code, out, err) == (2, "", "error: --extended-t needs --t\n")


class TestNormalize:
    def test_canonical_rendering(self, capsys, tmp_path):
        path = tmp_path / "scheme.json"
        path.write_text(
            json.dumps({"probabilities": [0.25, 0.25, 0.25, 0.25], "utilities": [1, 1, 1, 1]})
        )
        code, out, _ = run(capsys, "normalize", "--input", str(path))
        assert code == 0
        assert out == (
            '{\n'
            '  "probabilities": [0.25, 0.25, 0.25, 0.25],\n'
            '  "utilities": [1, 1, 1, 1],\n'
            '  "kind": "complete"\n'
            '}\n'
        )

    def test_round_trip_is_byte_stable_and_value_exact(self, capsys, tmp_path):
        path = tmp_path / "scheme.json"
        path.write_text(
            json.dumps(
                {
                    "probabilities": [0.1, 0.2, 0.3, 0.4],
                    "utilities": [1e-5, 3.0000000000000004, 7.25, 1.0],
                    "labels": ["a", "b", "c", "d"],
                }
            )
        )
        code, first, _ = run(capsys, "normalize", "--input", str(path))
        assert code == 0
        again = tmp_path / "normalized.json"
        again.write_text(first)
        code, second, _ = run(capsys, "normalize", "--input", str(again))
        assert code == 0
        assert first == second
        reparsed = scheme_from_dict(json.loads(second))
        original = make_scheme(
            [0.1, 0.2, 0.3, 0.4],
            [1e-5, 3.0000000000000004, 7.25, 1.0],
            labels=["a", "b", "c", "d"],
        )
        assert reparsed == original

    def test_csv_input_normalizes_to_json(self, capsys, tmp_path):
        path = tmp_path / "scheme.csv"
        path.write_text("0.5,1\n0.5,2\n")
        code, out, _ = run(capsys, "normalize", "--input", str(path), "--format", "csv")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "probabilities": [0.5, 0.5],
            "utilities": [1.0, 2.0],
            "kind": "complete",
        }


# zeros, 1.0, the smallest subnormal, other subnormals, the smallest normal
# and values whose 17-digit forms differ from their shortest repr
_SPECIAL_FLOATS = [
    0.0, 1.0, 5e-324, 1e-323, 1e-310, 2.225073858507201e-308,
    2.2250738585072014e-308, 0.1, 1.0 / 3.0, 0.30000000000000004,
    0.9999999999999999, 1e-300, 123456789.0, 1e22,
]


def _per_entry(values, digits: int, sep: str) -> str:
    return sep.join(format(x, f".{digits}g") for x in values)


class TestRenderingPasses:
    """The one-pass %-format rendering is byte-equal to formatting each
    entry on its own."""

    @pytest.mark.parametrize("digits", range(1, 18))
    def test_every_digit_count(self, digits):
        # random bit patterns cover every exponent, both signs, subnormals
        # and nan, which the vectors the CLI renders never hold
        rng = np.random.default_rng(digits)
        values = _SPECIAL_FLOATS + rng.integers(
            0, 2**64, 20_000, dtype=np.uint64
        ).view(np.float64).tolist()
        for sep in (" ", ", "):
            assert _render_floats(values, digits, sep) == _per_entry(values, digits, sep)

    @pytest.mark.parametrize("digits", [12, 17])
    def test_a_million_entries(self, digits):
        values = _SPECIAL_FLOATS + np.random.default_rng(7).random(10**6).tolist()
        assert _render_floats(values, digits, " ") == _per_entry(values, digits, " ")

    def test_scheme_json_vectors(self):
        probs = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, 0.25]
        utils = [1.0, 5e-324, 1e-310, 1e22, 0.30000000000000004, 7.25, 1.0]
        scheme = make_scheme(probs, utils, generalized=True)
        assert render_scheme_json(scheme) == (
            "{\n"
            f'  "probabilities": [{_per_entry(probs, 17, ", ")}],\n'
            f'  "utilities": [{_per_entry(utils, 17, ", ")}],\n'
            '  "kind": "generalized"\n'
            "}\n"
        )

    @pytest.mark.parametrize("digits", range(1, 18))
    @pytest.mark.parametrize("beta", ["0.5", "2"])
    def test_escort_line(self, capsys, tmp_path, digits, beta):
        # subnormal entries square to 0 under beta = 2 and stay tiny under 0.5
        doc = {
            "probabilities": [0.0, 5e-324, 1e-310, 0.3, 1.0 / 3.0, 0.2],
            "utilities": [1.0] * 6,
            "kind": "generalized",
        }
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "escort", "--input", str(path), "--beta", beta, "--digits", str(digits)
        )
        pair = escort_transform(scheme_from_dict(doc).dist, float(beta))
        assert code == 0
        assert out.splitlines()[0] == "escort: " + _per_entry(
            pair.normalized.probs, digits, " "
        )


def _random_scheme(n: int, seed: int = 0) -> tuple[list[float], list[float]]:
    rng = np.random.default_rng(seed)
    raw = rng.random(n) + 0.5
    return (raw / raw.sum()).tolist(), (0.1 + 4.0 * rng.random(n)).tolist()


class TestChunkedRendering:
    """Vectors written in slices of _RENDER_CHUNK entries are byte-equal to
    formatting each entry on its own, on both sides of each slice edge."""

    C = cli._RENDER_CHUNK

    @pytest.mark.parametrize("n", [C - 1, C, C + 1, 2 * C + 1])
    def test_normalize_escort_and_render_scheme_json(self, capsys, tmp_path, n):
        probs, utils = _random_scheme(n, seed=n)
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps({"probabilities": probs, "utilities": utils}))
        expected = (
            "{\n"
            f'  "probabilities": [{_per_entry(probs, 17, ", ")}],\n'
            f'  "utilities": [{_per_entry(utils, 17, ", ")}],\n'
            '  "kind": "complete"\n'
            "}\n"
        )
        assert render_scheme_json(make_scheme(probs, utils)) == expected
        assert run(capsys, "normalize", "--input", str(path)) == (0, expected, "")
        code, out, err = run(
            capsys, "escort", "--input", str(path), "--beta", "2", "--digits", "17"
        )
        pair = escort_transform(make_scheme(probs, utils).dist, 2.0)
        assert (code, err) == (0, "")
        assert out.split("\n")[0] == "escort: " + _per_entry(pair.normalized.probs, 17, " ")


class TestCsvChunks:
    """The chunked CSV parser gives the values of the per-row loop, which
    it falls back to, and that loop's row-numbered messages."""

    CASES = {
        "crlf": "p,u\r\n0.5,1\r\n0.5,2\r\n",
        "cr_only": "p,u\r0.5,1\r0.5,2\r",
        "blank_at_start": "\n \np,u\n0.5,1\n0.5,2\n",
        "blank_in_middle": "p,u\n0.5,1\n\n\t\n0.5,2\n",
        "blank_at_end": "p,u\n0.5,1\n0.5,2\n\n  \n",
        "cell_whitespace": "p,u\n 0.5 ,\t1 \n\u20030.5,2\u3000\n",
        "long_header": "probability,utility\n0.5,1\n0.5,2\n",
        "spaced_header": " p , u \n0.5,1\n0.5,2\n",
        "no_header": "0.5,1\n0.5,2\n",
        "no_trailing_newline": "p,u\n0.5,1\n0.5,2",
        "odd_cells": "p,u\n1_0,nan\ninf,1e400\n-0.0,1e-400\n",
        "header_only": "p,u\n",
        "empty": "",
        # str.strip strips U+001F and float() does not
        "unit_separator": "p,u\n0.5\x1f,1\n0.5,2\n",
        "header_not_first": "0.5,1\np,u\n",
        "three_columns": "p,u\n0.5,1,2\n",
    }
    #: The cases the chunked pass parses without the per-row loop.
    CHUNKED = {
        "crlf", "cr_only", "blank_at_start", "blank_in_middle", "blank_at_end",
        "cell_whitespace", "long_header", "spaced_header", "no_header",
        "no_trailing_newline", "odd_cells", "header_only", "empty",
    }

    @staticmethod
    def _parse(monkeypatch, text: str):
        """The chunked parse of ``text`` or its error, the per-row loop's,
        and whether the chunked parse called that loop."""
        rows = cli._parse_csv_rows
        calls = []
        monkeypatch.setattr(
            cli, "_parse_csv_rows", lambda *args: calls.append(args) or rows(*args)
        )

        def outcome(parse):
            try:
                return repr(parse(text, "f.csv"))
            except ValidationError as exc:
                return f"error: {exc}"

        return outcome(cli._parse_csv), outcome(rows), bool(calls)

    @pytest.mark.parametrize("name", CASES)
    def test_matches_the_row_loop(self, monkeypatch, name):
        chunked, rows, fell_back = self._parse(monkeypatch, self.CASES[name])
        assert chunked == rows
        assert fell_back == (name not in self.CHUNKED)

    @pytest.mark.parametrize("chunk", range(1, 40))
    def test_every_cut_matches_the_row_loop(self, monkeypatch, chunk):
        # small chunks put a cut after every row, CRLF and \r-only endings
        # and blank rows included, and start the newline search inside a
        # CRLF pair; some chunks hold only blank rows
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        text = (
            " p,u \r\n0.25, 1\r\n\r\n 1e-3 ,2.5\n0.5,3\r0.125,4\r\n"
            "\t\n\n\n\n\n\n\n\n\n\n\n\n0.125,1_0\n\n"
        )
        chunked, rows, fell_back = self._parse(monkeypatch, text)
        assert chunked == rows and "error" not in chunked
        assert not fell_back

    @pytest.mark.parametrize("chunk", range(1, 40))
    @pytest.mark.parametrize("bad", ["0.5,oops", "oops,0.5", "0.5,1,2", "p,u"])
    def test_every_cut_names_a_late_bad_row_as_the_row_loop(self, monkeypatch, chunk, bad):
        # a bad row in any chunk, after rows some chunks parsed in part
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        text = f" p,u \r\n0.25, 1\r\n\r\n 1e-3 ,2.5\n0.5,3\r0.125,4\r\n\n{bad}\n0.125,1\n"
        chunked, rows, _ = self._parse(monkeypatch, text)
        assert chunked == rows and chunked.startswith("error: f.csv: row 5 ")

    @pytest.mark.parametrize("chunk", [1, 4, 16])
    def test_a_header_after_blank_chunks_is_the_header(self, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        text = "\n" * 40 + "p,u\n0.5,1\n0.5,2\n"
        chunked, rows, _ = self._parse(monkeypatch, text)
        assert chunked == rows and "error" not in chunked

    def test_the_row_loop_reparses_from_the_failing_chunk_only(self, monkeypatch):
        # it re-parsed the whole text: 3.6 s and 232 MB instead of 2.2 s and
        # 148 MB for a 975k-row file with one bad last row
        monkeypatch.setattr(cli, "_CSV_CHUNK", 64)
        text = "p,u\n" + "0.5,1\n" * 100 + "0.5,oops\n"
        texts = []
        rows = cli._parse_csv_rows
        monkeypatch.setattr(
            cli, "_parse_csv_rows", lambda text, *args: texts.append(text) or rows(text, *args)
        )
        with pytest.raises(ValidationError) as info:
            cli._parse_csv(text, "f.csv")
        assert str(info.value) == "f.csv: row 101 has non-numeric entries: '0.5,oops'"
        assert len(texts) == 1 and text.endswith(texts[0]) and len(texts[0]) < 80

    @pytest.mark.parametrize("bad, message", [
        ("0.5,x", "has non-numeric entries: '0.5,x'"),
        ("0.5,1,2", "must have two columns (p,u), got '0.5,1,2'"),
    ])
    def test_a_bad_row_in_the_second_chunk_is_named(self, capsys, tmp_path, bad, message):
        # a blank row in the first chunk shifts no row number
        good = "0.5,1\n\n"
        count = cli._CSV_CHUNK // len(good) + 1000
        text = "p,u\n" + good * count + bad + "\n" + good
        assert text.index(bad) > cli._CSV_CHUNK
        path = tmp_path / "scheme.csv"
        path.write_text(text)
        assert run(capsys, "normalize", "--input", str(path), "--format", "csv") == (
            2, "", f"error: {path}: row {count + 1} {message}\n"
        )


class TestBoundedOutputMemory:
    """At N = 2e5, normalize writes 8.4 MB and the 17-digit escort line
    about 4.6 MB; the traced peak of writing either into a null sink stays
    under 4 MB above what the command held before it began to write."""

    LIMIT = 4 * 2**20

    @pytest.fixture(scope="class")
    def scheme(self):
        return make_scheme(*_random_scheme(200_000))

    def _output_peak(self, monkeypatch, scheme, last_step: str, *argv: str) -> int:
        """Traced peak of ``main(argv)`` after its call to ``cli.<last_step>``
        returned, less the memory traced at that point."""
        monkeypatch.setattr(cli, "_load_scheme", lambda path, fmt: scheme)
        step, held = getattr(cli, last_step), []

        def step_then_mark(*args, **kwargs):
            result = step(*args, **kwargs)
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
            return result

        monkeypatch.setattr(cli, last_step, step_then_mark)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(list(argv))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0 and len(held) == 1
        return peak - held[0]

    def test_normalize(self, monkeypatch, scheme):
        peak = self._output_peak(monkeypatch, scheme, "_load_scheme", "normalize", "--input", "-")
        assert peak < self.LIMIT

    def test_escort_line(self, monkeypatch, scheme):
        peak = self._output_peak(
            monkeypatch, scheme, "verify_scaling_identity",
            "escort", "--input", "-", "--beta", "2", "--t", "2", "--verify-identity",
            "--digits", "17",
        )
        assert peak < self.LIMIT


#: The shared flags each subcommand reads, and so declares.
SHARED_FLAGS = {
    "eval": ("--input", "--format", "--extended-t", "--digits"),
    "entropy": ("--input", "--format", "--base", "--digits"),
    "moments": ("--input", "--format", "--digits"),
    "curve": ("--input", "--format", "--extended-t"),
    "closed-form": ("--extended-t", "--digits"),
    "escort": ("--input", "--format", "--extended-t", "--digits"),
    "normalize": ("--input", "--format"),
}
FLAG_ARGS = {
    "--input": ["nope.json"],
    "--format": ["csv"],
    "--base": ["2"],
    "--extended-t": [],
    "--digits": ["3"],
}
#: The least each subcommand needs besides its shared flags.
REQUIRED_ARGS = {
    "eval": ["--t", "2"],
    "entropy": [],
    "moments": ["--r-max", "2"],
    "curve": ["--out", "c.csv"],
    "closed-form": ["uniform", "--n", "4", "--t", "2"],
    "escort": ["--beta", "2"],
    "normalize": [],
}


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c, kept in SHARED_FLAGS.items() for f in FLAG_ARGS if f in kept],
)
def test_subcommand_declares_the_flags_it_reads(command, flag):
    args = build_parser().parse_args([command, *REQUIRED_ARGS[command], flag, *FLAG_ARGS[flag]])
    assert getattr(args, flag[2:].replace("-", "_")) not in (None, False)


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c, kept in SHARED_FLAGS.items() for f in FLAG_ARGS if f not in kept],
)
def test_flag_a_subcommand_ignores_is_a_usage_error(capsys, command, flag):
    # e.g. moments --base 2 printed nats, normalize --digits 3 printed 17
    # digits and closed-form --input nope.json exited 0
    with pytest.raises(SystemExit) as excinfo:
        main([command, *REQUIRED_ARGS[command], flag, *FLAG_ARGS[flag]])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--t", "0.5"],
        ["curve", "--t-min", "0.5"],
        ["closed-form", "uniform", "--n", "2", "--t", "0.5"],
    ],
)
def test_t_domain_message_is_one_for_every_command(capsys, half_half, tmp_path, command):
    source = {
        "eval": ["--input", half_half],
        "curve": ["--input", half_half, "--out", str(tmp_path / "c.csv")],
    }
    code, out, err = run(capsys, *command, *source.get(command[0], []))
    assert (code, out, err) == (
        3,
        "",
        "error: t = 0.5 is below the default domain t >= 1; pass extended=True "
        "(--extended-t on the command line) to evaluate there\n",
    )
    assert not (tmp_path / "c.csv").exists()


def test_closed_form_and_curve_never_import_numpy(tmp_path, half_half):
    # the runtime is the standard library alone: with numpy blocked, every
    # subcommand still runs, the beta-power --check direct sums included
    out = str(tmp_path / "c.csv")
    argvs = [
        ["eval", "--input", half_half, "--t", "2"],
        ["entropy", "--input", half_half, "--base", "2"],
        ["moments", "--input", half_half, "--r-max", "4"],
        ["curve", "--input", half_half, "--measures", "weighted,golomb", "--out", out],
        ["curve", "--family", "beta-power", "--beta", "2.3", "--truncation", "10000",
         "--out", out],
        ["closed-form", "beta-power", "--beta", "2.3", "--t", "1.7"],
        ["closed-form", "beta-power", "--beta", "2", "--t", "2", "--check"],
        ["closed-form", "beta-power", "--beta", "2", "--entropy", "--check"],
        ["closed-form", "geometric", "--p", "0.5", "--entropy", "--check"],
        ["escort", "--input", half_half, "--beta", "2", "--t", "2", "--verify-identity"],
        ["normalize", "--input", half_half],
    ]
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from igf.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )
    _assert_runs(script)


def test_cli_imports_no_private_name_and_no_math():
    # the command line parses, dispatches and prints: what it computes, and
    # every helper that computation needs, belongs to the library
    tree = ast.parse(Path(cli.__file__).read_text())
    bound, modules = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound += [alias.asname or alias.name for alias in node.names]
            modules.append(node.module)
    assert [name for name in bound if name.startswith("_")] == []
    assert "math" not in modules and "math" not in bound


def test_import_igf_leaves_the_cli_unloaded():
    # the library's cold import is lib_small_64's set-up: the argument
    # parser and the file formats load only with the command line
    _assert_runs(
        "import sys\n"
        "import igf\n"
        "loaded = {'igf.cli', 'argparse', 'json'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )


def test_import_igf_cli_leaves_dataclasses_unloaded():
    # dataclasses and the inspect module it imports were most of the import
    # time of every closed-form process
    _assert_runs(
        "import igf.cli, sys\n"
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )


def _assert_runs(script: str) -> None:
    src = str(Path(igf.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
