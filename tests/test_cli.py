"""End-to-end tests of the ``igf`` command line through ``main(argv)``.

Expected strings assume the default 12-significant-digit rendering; values
behind them were frozen from the direct-summation oracles.
"""

from __future__ import annotations

import ast
import contextlib
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import igf
import oracles
from igf import (
    DomainError,
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
from igf import cli, distributions, generating_functions
from igf.cli import _render_floats, build_parser, main, render_scheme_json
from igf.distributions import MAX_REALIZED_TERMS, ParametricFamily
from igf.generating_functions import LogBase, Measure, curve_grid


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
        assert (code, out, err) == (3, "", "error: term 0 overflows: 1e+308 * 0.5 ** -2.0\n")

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

    @pytest.mark.parametrize("argv, text", [
        (["eval", "--t", "2"], b'{"probabilities": [1.0], "utilities": [1.0\xff]}'),
        (["entropy", "--format", "csv"], b"p,u\n1.0,1.0\xff\n"),
    ])
    def test_file_that_is_not_utf8_is_exit_2(self, capsys, tmp_path, argv, text):
        # the UnicodeDecodeError of the read ended the process with exit 1
        path = tmp_path / "scheme"
        path.write_bytes(text)
        assert run(capsys, *argv, "--input", str(path)) == (
            2,
            "",
            f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
            f"in position {text.index(0xff)}: invalid start byte\n",
        )

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
        # JSON's constant, in both formats
        probs[position] = "NaN"
        csv_path = tmp_path / "scheme.csv"
        csv_path.write_text("".join(f"{p},1\n" for p in probs))
        json_path = tmp_path / "scheme.json"
        json_path.write_text('{"probabilities": [' + ", ".join(probs) + "]}")
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

    def test_a_factor_past_the_float_range_of_a_finite_entropy(self, capsys, tmp_path):
        # 1e308 * ln 0.1 is -inf before 0.1 scales it: inf was printed, and
        # then exit 3, but the entropy is 2.3e307
        path = tmp_path / "huge_u.json"
        path.write_text(json.dumps({"probabilities": [0.1, 0.9], "utilities": [1e308, 1]}))
        code, out, err = run(capsys, "entropy", "--input", str(path), "--digits", "17")
        assert (code, out, err) == (0, "2.3025850929940454e+307\n", "")

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
        # p ** 1.0 = 1e-300 is fine; the message named it as the overflow
        assert err == "error: term 0 overflows: (1e+305 * ln 1e-300) ** 2\n"

    def test_a_product_past_the_float_range_is_exit_3(self, capsys, tmp_path):
        # (1e308 * ln 0.1) ** r is inf without an OverflowError; "1\tinf"
        # and "2\tinf" were printed with exit 0.  Order 1, 2.3e307, is
        # summed scaled; order 2, about 5.3e615, is past the float range
        path = tmp_path / "huge_u.json"
        path.write_text(json.dumps({"probabilities": [0.1, 0.9], "utilities": [1e308, 1]}))
        code, out, err = run(capsys, "moments", "--input", str(path), "--r-max", "2")
        assert (code, out) == (3, "0\t1\n1\t2.30258509299e+307\n")
        assert err == "error: term 0 overflows: (1e+308 * ln 0.1) ** 2\n"

    def test_an_order_whose_factor_overflows_is_summed_scaled(self, capsys, tmp_path):
        # (1e200 * ln 1e-300) ** 2 is past the float range, but times 1e-300
        # it is 4.7717082994305580e105 (mpmath): order 2 was refused with
        # exit 3.  Order 3, about 3.3e308, is past the float range
        path = tmp_path / "big_factor.json"
        path.write_text(json.dumps({"probabilities": [1e-300, 1.0], "utilities": [1e200, 1]}))
        code, out, err = run(capsys, "moments", "--input", str(path), "--r-max", "2")
        assert (code, out.splitlines()[-1], err) == (0, "2\t4.77170829943e+105", "")
        code, out, err = run(capsys, "moments", "--input", str(path), "--r-max", "3")
        assert (code, out.splitlines()[-1]) == (3, "2\t4.77170829943e+105")
        assert err == "error: term 0 overflows: (1e+200 * ln 1e-300) ** 3\n"

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
        t_min = float(bounds[0].split("=")[1]) if "=" in bounds[0] else 1.0
        t_max = float(bounds[-1]) if "--t-max" in bounds else 3.0
        with pytest.raises(InvalidParameter, match=message.replace("+", r"\+")):
            curve_grid(t_min, t_max, 5, extended=True)

    def test_work_above_the_bound_exits_before_any_value(self, capsys, monkeypatch, tmp_path):
        # a million terms at a million points: 1e12 powers per measure, days
        # of CPU, refused once the family is built
        def unevaluated(*args, **kwargs):
            raise AssertionError("curve_values was called")

        monkeypatch.setattr(cli, "curve_values", unevaluated)
        monkeypatch.setattr(os, "fork", _no_fork)
        out_path = tmp_path / "curve.csv"
        start = time.perf_counter()
        got = run(
            capsys, "curve", "--family", "uniform", "--n", "1000000", "--steps", "1000000",
            "--out", str(out_path),
        )
        assert time.perf_counter() - start < 5.0
        assert got == (
            2, "",
            "error: a curve of 1000000 nonzero terms at 1000000 grid points is "
            "1000000000000 term-points of work, above the bound of 100000000\n",
        )
        assert not out_path.exists()

    @pytest.mark.parametrize("n", [1_000_000, 1000])
    def test_uniform_work_is_refused_before_the_grid_or_family(
        self, capsys, monkeypatch, tmp_path, n
    ):
        # the uniform family's n terms are all nonzero: its work is n times
        # the steps, refused before the grid (32 MB at a million points) and
        # the family are built
        def unbuilt(*args, **kwargs):
            raise AssertionError("the grid or the family was built")

        monkeypatch.setattr(cli, "curve_grid", unbuilt)
        monkeypatch.setattr(cli, "realize_family", unbuilt)
        out_path = tmp_path / "curve.csv"
        got = run(
            capsys, "curve", "--family", "uniform", "--n", str(n), "--steps", "1000000",
            "--out", str(out_path),
        )
        assert got == (
            2, "",
            f"error: a curve of {n} nonzero terms at 1000000 grid points is "
            f"{n * 1_000_000} term-points of work, above the bound of 100000000\n",
        )
        assert not out_path.exists()

    @pytest.mark.parametrize("source, terms", [
        (["--input", "SCHEME"], 200),
        (["--family", "geometric", "--p", "0.5", "--truncation", "1000"], 1000),
        (["--family", "beta-power", "--beta", "2", "--truncation", "1000"], 1000),
        # q * p ** i underflows from i = 1074 on; no i ** -2 / zeta(2) does
        (["--family", "geometric", "--p", "0.5", "--truncation", "1000000"], 1074),
        (["--family", "beta-power", "--beta", "2", "--truncation", "1000000"], 1000000),
    ])
    def test_work_is_refused_before_the_grid_for_every_source(
        self, capsys, monkeypatch, tmp_path, source, terms
    ):
        # the nonzero count of --input needs the scheme, but not the grid
        # (32 MB at a million points), which is built only once the work
        # fits; that of a family is taken before the family is built
        def unbuilt(*args, **kwargs):
            raise AssertionError("the grid or the family was built")

        path = tmp_path / "s.json"
        path.write_text(json.dumps({"probabilities": [0.005] * 200 + [0.0]}))
        monkeypatch.setattr(cli, "curve_grid", unbuilt)
        monkeypatch.setattr(cli, "realize_family", unbuilt)
        out_path = tmp_path / "curve.csv"
        argv = [str(path) if arg == "SCHEME" else arg for arg in source]
        got = run(capsys, "curve", *argv, "--steps", "1000000", "--out", str(out_path))
        assert got == (
            2, "",
            f"error: a curve of {terms} nonzero terms at 1000000 grid points is "
            f"{terms * 1_000_000} term-points of work, above the bound of 100000000\n",
        )
        assert not out_path.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--t-min", "3", "--t-max", "2"], "need t_min < t_max, got 3.0 and 2.0"),
        (["--u", "-1"], "constant utility u must lie in (0, inf), got -1.0"),
        (["--truncation", "5"], "family 'uniform' does not take --truncation"),
        (["--n", "1000001"],
         "the realized family needs at least 1000001 terms, above the cap of 1000000"),
    ])
    def test_uniform_work_is_checked_after_the_cheaper_errors(
        self, capsys, tmp_path, flags, message
    ):
        # each of these flags also makes a curve too large to compute
        argv = ["curve", "--family", "uniform", "--n", "1000000", "--steps", "1000000",
                *flags, "--out", str(tmp_path / "c.csv")]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("bound", [10, 9])
    def test_work_bound_counts_nonzero_terms_times_points(
        self, capsys, monkeypatch, tmp_path, bound
    ):
        # two nonzero terms and a zero one at five points: 10 term-points
        path = tmp_path / "zero.json"
        path.write_text(
            json.dumps({"probabilities": [0.5, 0.0, 0.5], "utilities": [1.0, 1.0, 2.0]})
        )
        monkeypatch.setattr(cli, "_MAX_CURVE_WORK", bound)
        out_path = tmp_path / "curve.csv"
        got = run(capsys, "curve", "--input", str(path), "--steps", "5", "--out", str(out_path))
        if bound == 10:
            assert got == (0, "", "")
            assert out_path.read_text().splitlines()[1:] == [
                "1.0,1.0", "1.5,0.6035533905932737", "2.0,0.375", "2.5,0.2392766952966369",
                "3.0,0.15625",
            ]
        else:
            assert got == (
                2, "",
                "error: a curve of 2 nonzero terms at 5 grid points is 10 term-points "
                "of work, above the bound of 9\n",
            )
            assert not out_path.exists()

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
        # would make the direct sum nan.  p_1 = 1 / zeta(400) rounds to
        # 1.0, so both sides take ln zeta(400), about 2 ** -400 and
        # 1 / (1 + 400 ln 2) of the entropy, as log1p(zeta(400) - 1): the
        # value is within 2.5e-17 of mpmath
        code, out, err = run(
            capsys, "closed-form", "beta-power", "--beta", "400", "--entropy",
            "--check", "--digits", "16",
        )
        assert (code, out, err) == (
            0,
            "closed_form: 1.077583058809667e-118\n"
            "direct: 1.077583058809667e-118\n"
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

    @pytest.mark.parametrize("family", [
        ("uniform", "--n", "10000000000", "--u", "1e308"),
        ("geometric", "--p", "0.999999", "--u", "1e308"),
        ("beta-power", "--beta", "1.0000000000000002", "--u", "1e300"),
    ])
    @pytest.mark.parametrize("check", [(), ("--check",)])
    def test_overflowing_entropy_is_exit_3(self, capsys, family, check):
        # each printed inf with exit 0
        code, out, err = run(capsys, "closed-form", *family, "--entropy", *check)
        name = "power-law" if family[0] == "beta-power" else family[0]
        assert (code, out, err) == (
            3, "",
            f"error: {name} entropy overflows: at u = {float(family[4])!r} it exceeds the "
            "float range\n",
        )

    def test_check_of_an_entropy_whose_factors_overflow(self, capsys):
        # 1e308 * ln 0.125 is -inf in the direct sum, which exited 3; the
        # scaled sum is the closed form, 1e-16 from the family's mpmath value
        code, out, err = run(
            capsys, "closed-form", "geometric", "--p", "0.5", "--u", "1e308", "--entropy",
            "--check", "--digits", "17",
        )
        assert (code, err) == (0, "")
        assert out == (
            "closed_form: 1.3862943611198905e+308\ndirect: 1.3862943611198905e+308\n"
            "abs_diff: 0.000000e+00\n"
        )
        reference = oracles.geometric_entropy_mp(0.5, 1e308)
        assert oracles.relative_error(1.3862943611198905e308, reference) < 2e-16

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
        # s = inf and q = 1.0: the bound on the terms was inf * 0 = nan.  The
        # closed form is the limit 0, as (1 - p)**s is for every p > 0; the
        # direct sum still reads 1, because its q = 1 - p rounds to 1.0
        code, out, err = run(
            capsys, "closed-form", "geometric", "--p", "1e-200", "--u", "2",
            "--t", "1e308", "--check",
        )
        assert (code, out, err) == (
            0, "closed_form: 0\ndirect: 1\nabs_diff: 1.000000e+00\n", ""
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
        # the escort printed above feeds the identity check, and its IGF is
        # its powered sum at beta = 1, summed at the one exponent s: beside
        # the file's own scheme, no utility vector, no scheme and no
        # one-point curve is built for it
        import igf.cli as cli_module
        import igf.escort as escort_module
        import igf.generating_functions as gf_module
        from igf.distributions import UtilityDistribution, UtilityInformationScheme

        calls = {"escort_transform": 0, "curve_values": 0, "weighted_igf": 0}
        for name in calls:
            real = getattr(escort_module, name, None) or getattr(gf_module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in (cli_module, escort_module):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        for cls in (UtilityDistribution, UtilityInformationScheme):
            calls[cls.__name__] = 0

            def counted_init(self, *args, _real=cls.__init__, _name=cls.__name__, **kwargs):
                calls[_name] += 1
                _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted_init)
        code, out, _ = run(
            capsys, "escort", "--input", eight_two, "--beta", "2", "--u", "1",
            "--t", "2", "--verify-identity",
        )
        assert (code, out.splitlines()[-1]) == (0, "PASS")
        assert calls == {
            "escort_transform": 1, "curve_values": 0, "weighted_igf": 0,
            "UtilityDistribution": 1, "UtilityInformationScheme": 1,  # the file's
        }

    def test_the_escort_igf_prints_the_bytes_of_its_one_point_curve(
        self, capsys, monkeypatch, tmp_path
    ):
        # the escort's IGF was the one-point weighted curve of the escort
        # under the constant u; it is now the powered sum at beta = 1, the
        # same kernel sum: same stdout, stderr and exit code, errors included
        import igf.cli as cli_module
        from igf import Measure, constant_utility_scheme, curve_values

        def one_point_curve(dist, u, beta, t, *, extended=False):
            assert beta == 1.0
            scheme = constant_utility_scheme(dist, u)
            [(value,)] = curve_values(scheme, (t,), (Measure.WEIGHTED,), extended=extended)
            return value

        docs = [
            {"probabilities": [0.5, 0.0, 0.25, 0.0, 0.25]},
            {"probabilities": [1e-300, 0.0, 1.0]},
            {"probabilities": [5e-324, 1e-310, 0.5, 0.5]},
            {"probabilities": [1e-160, 2.3e-160, 7.7e-161], "kind": "generalized"},
        ]
        outcomes = set()
        for k, doc in enumerate(docs):
            path = tmp_path / f"s{k}.json"
            path.write_text(json.dumps(doc))
            for beta, t, u, flags in itertools.product(
                ["0.5", "2"], ["1", "0.5", "-1", "inf", "-inf", "1500"],
                ["1", "1e300"], [[], ["--extended-t"], ["--verify-identity"]],
            ):
                argv = ["escort", "--input", str(path), "--beta", beta, f"--t={t}", "--u", u,
                        "--digits", "17", *flags]
                got = run(capsys, *argv)
                with monkeypatch.context() as patch:
                    patch.setattr(cli_module, "unnormalized_power_igf", one_point_curve)
                    assert got == run(capsys, *argv), argv
                outcomes.add((got[0], got[2][:27]))
        assert {(0, ""), (3, "error: escort distribution:")} <= outcomes

    def test_verify_identity_needs_t(self, capsys, eight_two):
        code, _, err = run(
            capsys, "escort", "--input", eight_two, "--beta", "2", "--verify-identity"
        )
        assert code == 2
        assert "--t" in err

    def test_failed_verification_is_exit_4(self, capsys, eight_two, monkeypatch):
        # a faked report pins the exit-code wiring on its own; the real FAIL
        # below depends on how far the two sides drift apart
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

    def test_an_identity_that_fails_is_exit_4(self, capsys, tmp_path):
        # rhs underflows to 0 while lhs is 6.7e-117: the identity was
        # compared with an absolute floor of 1e-10 below 1 and passed
        path = tmp_path / "three_seven.json"
        path.write_text(json.dumps({"probabilities": [0.3, 0.7]}))
        code, out, err = run(
            capsys, "escort", "--input", str(path), "--beta", "0.5", "--t", "1500",
            "--verify-identity",
        )
        assert (code, err) == (4, "")
        assert out.splitlines()[-4:] == [
            "lhs: 6.66085547667e-117", "rhs: 0", "abs_diff: 6.660855e-117", "FAIL",
        ]

    @pytest.mark.parametrize("t", ["1500", "2000", "inf"])
    def test_an_identity_of_two_zero_sides_is_exit_3(self, capsys, tmp_path, t):
        # both sides underflow to 0: they printed lhs: 0, rhs: 0 and PASS
        path = tmp_path / "three_seven.json"
        path.write_text(json.dumps({"probabilities": [0.3, 0.7]}))
        assert run(
            capsys, "escort", "--input", str(path), "--beta", "2", "--t", t, "--verify-identity"
        ) == (
            3, "",
            "error: both sides of the scaling identity are below the normal range, "
            "lhs 0.0 and rhs 0.0: their agreement shows nothing\n",
        )

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the escort's IGF is inf at t = -inf: printed with exit 0, and
            # the identity compared inf with inf or nan.  The term is the
            # escort distribution's, not the file's
            (["--beta", "0.5", "--t=-inf", "--extended-t"],
             "escort distribution: term 0 overflows: "
             "probability 0.39564392373895996, exponent -inf"),
            (["--beta", "0.5", "--t=-inf", "--extended-t", "--verify-identity"],
             "escort distribution: term 0 overflows: "
             "probability 0.39564392373895996, exponent -inf"),
            (["--beta", "2", "--t=-inf", "--extended-t", "--verify-identity"],
             "escort distribution: term 0 overflows: "
             "probability 0.15517241379310345, exponent -inf"),
            # the escort's IGF is 0 and mass ** inf is inf: rhs was nan
            (["--beta", "0.5", "--t", "inf", "--verify-identity"],
             "escort mass 1.3843825840392416 ** inf overflows"),
        ],
    )
    def test_an_infinite_t_that_reaches_no_finite_value_is_exit_3(
        self, capsys, tmp_path, argv, message
    ):
        path = tmp_path / "three_seven.json"
        path.write_text(json.dumps({"probabilities": [0.3, 0.7]}))
        code, out, err = run(capsys, "escort", "--input", str(path), *argv)
        assert (code, out, err) == (3, "", f"error: {message}\n")

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

    def test_a_null_array_is_exit_2(self, capsys, tmp_path):
        # a null utilities read as all ones, and normalize exited 0
        path = tmp_path / "scheme.json"
        path.write_text('{"probabilities": [0.5, 0.5], "utilities": null, "labels": null}')
        assert run(capsys, "normalize", "--input", str(path)) == (
            2, "", 'error: "utilities" must be an array\n'
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
    """The chunked CSV parser gives the values and the row-numbered
    messages of the whole-text per-row reader of ``oracles``; only a chunk
    that holds a bad row goes to the per-row code."""

    #: Whether a forked child parses every other chunk.
    SPLIT = False

    CASES = {
        "crlf": "p,u\r\n0.5,1\r\n0.5,2\r\n",
        "cr_only": "p,u\r0.5,1\r0.5,2\r",
        "blank_at_start": "\n \np,u\n0.5,1\n0.5,2\n",
        "blank_in_middle": "p,u\n0.5,1\n\n\t\n0.5,2\n",
        "blank_at_end": "p,u\n0.5,1\n0.5,2\n\n  \n",
        "cell_whitespace": "p,u\n 0.5 ,\t1 \n\t0.5,2  \n",
        "long_header": "probability,utility\n0.5,1\n0.5,2\n",
        "spaced_header": " p , u \n0.5,1\n0.5,2\n",
        "no_header": "0.5,1\n0.5,2\n",
        "no_trailing_newline": "p,u\n0.5,1\n0.5,2",
        # JSON's constants and ints, which float() also read; float()'s
        # spellings "nan" and "inf" are refused
        "json_odd_cells": "p,u\n10,NaN\n-Infinity,1e400\n-0,1e-400\n-0.0,5e-324\n",
        "odd_cells": "p,u\n10,nan\ninf,1e400\n-0.0,1e-400\n",
        "header_only": "p,u\n",
        "empty": "",
        # str.strip strips U+001F, which is not JSON whitespace
        "unit_separator": "p,u\n0.5\x1f,1\n0.5,2\n",
        "unit_separator_at_the_end": "p,u\n0.5,1\x1f\n0.5,2\n",
        "header_not_first": "0.5,1\np,u\n",
        "three_columns": "p,u\n0.5,1,2\n",
        # a bad row past 80 characters is named by its first 80 and its length
        "long_bad_row": "p,u\n0.5,1\n0.5," + "x" * 80 + "\n",
        "long_three_columns": "p,u\n0.5,1," + "2" * 80 + "\n",
        # float() reads digit groups, non-ASCII digits and whitespace and
        # other spellings, which JSON refuses; a blank row stays blank,
        # whatever it holds
        "digit_group": "p,u\n0.5,1_0\n0.5,1\n",
        "lenient_spellings": "p,u\n0.5,1\n.5,+1\n",
        "leading_zero": "p,u\n0.5,01\n",
        "non_ascii_digits": "p,u\n\u0660.\u0665,\uff11\n",
        "non_ascii_whitespace": "p,u\n0.5,1\n\u20030.5,2\u3000\n",
        "non_ascii_blank": "p,u\n0.5,1\n\u3000\n0.5,2\n",
    }
    #: The cases the chunked pass parses without the per-row code.
    CHUNKED = {
        "crlf", "cr_only", "blank_at_start", "blank_in_middle", "blank_at_end",
        "cell_whitespace", "long_header", "spaced_header", "no_header",
        "no_trailing_newline", "json_odd_cells", "header_only", "empty", "non_ascii_blank",
    }

    @pytest.fixture
    def row_loop(self, monkeypatch, tmp_path):
        """From now on, the rows of each call of the per-row code and
        whether a forked child made it: each call, in whichever process,
        appends a line to a file."""
        log, rows, parent = tmp_path / "row_loop.log", cli._parse_csv_rows, os.getpid()

        def recorded(chunk):
            with open(log, "a") as fh:
                fh.write(json.dumps([chunk, os.getpid() != parent]) + "\n")
            return rows(chunk)

        def calls():
            lines = log.read_text().splitlines() if log.exists() else []
            return [tuple(json.loads(line)) for line in lines]

        monkeypatch.setattr(cli, "_parse_csv_rows", recorded)
        return calls

    @staticmethod
    def _parse(text: str):
        """The chunked parse of ``text`` or its error, and the per-row
        reader's."""

        def outcome(parse, error):
            try:
                return repr(parse(text, "f.csv"))
            except error as exc:
                return f"error: {exc}"

        return (
            outcome(cli._parse_csv, ValidationError),
            outcome(oracles.csv_scheme_rows, ValueError),
        )

    @pytest.mark.parametrize("name", CASES)
    def test_matches_the_row_loop(self, row_loop, name):
        chunked, rows = self._parse(self.CASES[name])
        assert chunked == rows
        assert bool(row_loop()) == (name not in self.CHUNKED)

    @pytest.mark.parametrize("name", CASES)
    def test_the_row_walk_runs_only_on_a_bad_row(self, monkeypatch, name):
        # the chunked cases are the texts the per-row oracle reads whole,
        # and they parse with the per-row code raising
        text = self.CASES[name]
        try:
            expected = oracles.csv_scheme_rows(text, "f.csv")
        except ValueError:
            assert name not in self.CHUNKED
            return
        assert name in self.CHUNKED

        def refused(rows):
            raise AssertionError(f"the per-row code read {rows!r}")

        monkeypatch.setattr(cli, "_parse_csv_rows", refused)
        assert cli._parse_csv(text, "f.csv") == expected

    @pytest.mark.parametrize("chunk", range(1, 40))
    def test_every_cut_matches_the_row_loop(self, monkeypatch, row_loop, chunk):
        # small chunks put a cut after every row, CRLF and \r-only endings
        # and blank rows included, and start the newline search inside a
        # CRLF pair; some chunks hold only blank rows
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        text = (
            " p,u \r\n0.25, 1\r\n\r\n 1e-3 ,2.5\n0.5,3\r0.125,4\r\n"
            "\t\n\n\n\n\n\n\n\n\n\n\n\n0.125,10\n\n"
        )
        chunked, rows = self._parse(text)
        assert chunked == rows and "error" not in chunked
        assert row_loop() == []

    @pytest.mark.parametrize("chunk", range(1, 40))
    @pytest.mark.parametrize("bad", ["0.5,oops", "oops,0.5", "0.5,1,2", "p,u"])
    def test_every_cut_names_a_late_bad_row_as_the_row_loop(self, monkeypatch, chunk, bad):
        # a bad row in any chunk, after rows some chunks parsed in part
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        text = f" p,u \r\n0.25, 1\r\n\r\n 1e-3 ,2.5\n0.5,3\r0.125,4\r\n\n{bad}\n0.125,1\n"
        chunked, rows = self._parse(text)
        assert chunked == rows and chunked.startswith("error: f.csv: row 5 ")

    @pytest.mark.parametrize("chunk", [1, 4, 16])
    def test_a_header_after_blank_chunks_is_the_header(self, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        text = "\n" * 40 + "p,u\n0.5,1\n0.5,2\n"
        chunked, rows = self._parse(text)
        assert chunked == rows and "error" not in chunked

    @pytest.mark.parametrize("chunk", [1, 4, 16])
    @pytest.mark.parametrize("first", [" probability , utility ", "0.75,1"])
    def test_blank_chunks_then_the_first_row(self, monkeypatch, row_loop, chunk, first):
        # the header is the first row that is not blank, found before any
        # chunk is parsed; blank rows of every line ending fill more than
        # one chunk ahead of it, and a refused chunk follows
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        text = "\r\n \n\t\r\x1c\n" * 12 + first + "\r\n0.125,1\n\n0.125\x1f,3\n0.5,4\n"
        assert text.index(first) > 2 * chunk
        body = text.index("0.125,1") if "p" in first else 0
        assert cli._csv_header_end(text) == body
        chunked, rows = self._parse(text)
        message = f"row {2 if body else 3} has non-numeric entries: '0.125\\x1f,3'"
        assert chunked == rows == "error: f.csv: " + message
        [(refused, _)] = row_loop()
        assert "0.125\x1f,3" in refused

    def test_the_row_loop_reparses_from_the_failing_chunk_only(self, monkeypatch, row_loop):
        # it re-parsed the whole text: 3.6 s and 232 MB instead of 2.2 s and
        # 148 MB for a 975k-row file with one bad last row
        monkeypatch.setattr(cli, "_CSV_CHUNK", 64)
        text = "p,u\n" + "0.5,1\n" * 100 + "0.5,oops\n"
        last = len(list(cli._cuts(text, "\n", len("p,u\n"), len(text)))) - 1
        with pytest.raises(ValidationError) as info:
            cli._parse_csv(text, "f.csv")
        assert str(info.value) == "f.csv: row 101 has non-numeric entries: '0.5,oops'"
        [(rows, by_child)] = row_loop()
        assert rows[-1] == "0.5,oops" and by_child == (self.SPLIT and last % 2 == 1)
        chunk = "\n".join(rows) + "\n"
        assert text.endswith(chunk) and len(chunk) < 80

    def test_only_the_refused_chunk_is_read_row_by_row(self, monkeypatch, row_loop):
        # the U+001F cell of chunk 2 is refused and ends the parse; the
        # per-row code had read every row from chunk 2 on.  Split, the child
        # reads chunk 2 itself: it had sent it back unread, and this
        # process read it
        monkeypatch.setattr(cli, "_CSV_CHUNK", 64)
        text = "p,u\n" + "".join(f"0.{k:04d},{k % 7 + 1}\n" for k in range(1, 37))
        text = text.replace("0.0010,4", "0.0010\x1f,4")
        assert cli._csv_header_end(text) == len("p,u\n")
        chunks = [text[a:b].splitlines() for a, b in cli._cuts(text, "\n", len("p,u\n"), len(text))]
        assert len(chunks) == 5 and "0.0010\x1f,4" in chunks[1]
        chunked, rows = self._parse(text)
        message = "row 10 has non-numeric entries: '0.0010\\x1f,4'"
        assert chunked == rows == "error: f.csv: " + message
        assert row_loop() == [(chunks[1], self.SPLIT)]

    def test_a_bad_first_row_stops_the_row_loop(self, monkeypatch):
        # the row loop listed every row of the text before it named row 1:
        # 0.54 s and 177 MB for a 1e6-row file
        monkeypatch.setattr(cli, "_CSV_CHUNK", 1 << 14)
        text = "p,u\n0.5,oops\n" + "0.5,1\n" * 400_000  # 150 chunks
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as info:
                cli._parse_csv(text, "f.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "f.csv: row 1 has non-numeric entries: '0.5,oops'"
        # the rows and cells of one chunk, as str objects, take about 35
        # bytes per character; listing the rows of the whole text took 28 MB
        assert peak < 64 * cli._CSV_CHUNK

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

    @pytest.mark.parametrize("bad, message", [
        ("0.5,x", "has non-numeric entries: '0.5,x'"),
        ("0.5,1,2", "must have two columns (p,u), got '0.5,1,2'"),
    ])
    def test_a_chunk_returns_the_rows_before_its_bad_row(self, bad, message):
        # the chunk's values and the message after the row number; the rows
        # after the bad one are not read
        text = f"0.5,1\n\n 0.25 ,2\n{bad}\n0.25,oops\n"
        assert cli._parse_csv_chunk(text, (0, len(text))) == ([0.5, 0.25], [1.0, 2.0], message)

    @pytest.mark.parametrize("lead", [0, 2])
    @pytest.mark.parametrize("bad, then", [
        ("0.5,1_0", "0.5,1"), ("٠.٥,１", ""), (".5,+1", "0.5,1"), ("inf,1", ""),
    ])
    def test_a_number_json_refuses_exits_2(self, monkeypatch, capsys, row_loop, tmp_path,
                                           lead, bad, then):
        # float() read 1_0 as 10, the Arabic-Indic 0.5 and fullwidth 1 as
        # 0.5 and 1.0, and .5, +1 and inf, and normalize exited 0 on the
        # first three; two rows ahead put the bad
        # one in the second 8-character chunk, which split, the child reads
        monkeypatch.setattr(cli, "_CSV_CHUNK", 8)
        path = tmp_path / "scheme.csv"
        path.write_text("0.25,1\n" * lead + f"{bad}\n{then}\n", encoding="utf-8")
        assert run(capsys, "normalize", "--input", str(path), "--format", "csv") == (
            2, "", f"error: {path}: row {lead + 1} has non-numeric entries: {bad!r}\n"
        )
        [(rows, by_child)] = row_loop()
        assert rows[0] == bad and by_child == (self.SPLIT and lead > 0)


class TestCsvChunksSplit(TestCsvChunks):
    """The same values, messages and row numbers while a forked child
    parses every other chunk, whatever the text's length: a chunk that
    holds a bad row in the child is read row by row by the child."""

    SPLIT = True

    @pytest.fixture(autouse=True)
    def split(self, monkeypatch, forks):
        monkeypatch.setattr(cli, "_SPLIT_PARSE", -1)
        yield
        _assert_no_child()

    def test_the_child_parses_every_other_chunk(self, monkeypatch, forks):
        monkeypatch.setattr(cli, "_CSV_CHUNK", 64)
        text = "p,u\n" + "".join(f"0.{k:04d},{k % 7 + 1}\n" for k in range(1, 37))
        spans = list(cli._cuts(text, "\n", len("p,u\n"), len(text)))
        chunk, here = cli._parse_csv_chunk, []
        monkeypatch.setattr(
            cli, "_parse_csv_chunk", lambda t, span: here.append(span) or chunk(t, span)
        )
        assert cli._parse_csv(text, "f.csv") == oracles.csv_scheme_rows(text, "f.csv")
        assert forks == [1] and len(spans) == 5 and here == spans[0::2]


#: Whitespace that ``str.strip`` strips, of which JSON's are the space and
#: the tab; blank rows also take line breaks of ``str.splitlines`` other
#: than ``\n`` and ``\r``.
_csv_pads = st.sampled_from(["", " ", "\t", "\u3000", "\u2003", "\x1f"])
_csv_blanks = _csv_pads | st.sampled_from(["\x0b", "\x1c", "\x85", "\u2028", " \x0c\t"])


def _csv_rows(values):
    """Rows of padded ``values`` cells: mostly two, or one to three, or
    blank."""
    cells = st.tuples(_csv_pads, values, _csv_pads).map("".join)
    pairs = st.lists(cells, min_size=2, max_size=2).map(",".join)
    return st.one_of(pairs, pairs, st.lists(cells, min_size=1, max_size=3).map(",".join), _csv_blanks)


_csv_numbers = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(
        ["1_0", "nan", "NaN", "-Infinity", "1e400", "-0", "-0.0", "1E-400", ".5", "+1", "01",
         "\u0661"]
    ),
)
#: Lists of ``(row, line ending)``: plain rows, padded rows, or padded rows
#: with bad cells.
_csv_lines = st.sampled_from([
    _csv_numbers.map(lambda x: f"{x},{x}") | _csv_blanks,
    _csv_rows(_csv_numbers),
    _csv_rows(_csv_numbers | st.sampled_from(["oops", "", "0x1p-3"])),
]).flatmap(
    lambda rows: st.lists(st.tuples(rows, st.sampled_from(["\n", "\r\n", "\r"])), max_size=16)
)


@pytest.mark.parametrize("parse", ["serial", "split"])
@settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    header=st.sampled_from(["", "p,u", " probability , utility ", "p, u\x1f"]),
    lines=_csv_lines,
    ending=st.booleans(),
    chunk=st.integers(1, 64),
)
def test_any_csv_text_and_cut_matches_the_row_loop(
    monkeypatch, forks, parse, header, lines, ending, chunk
):
    # padded, odd and bad cells, blank rows of every line ending, one to
    # three columns and an optional header, cut into chunks of 1..64
    # characters; split, a forked child parses every other chunk
    monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
    if parse == "split":
        monkeypatch.setattr(cli, "_SPLIT_PARSE", -1)
    text = header + "\n" + "".join(row + end for row, end in lines)
    if lines and not ending:
        text = text[: -len(lines[-1][1])]
    chunked, rows = TestCsvChunks._parse(text)
    assert chunked == rows
    assert bool(forks) == (parse == "split")
    _assert_no_child()


#: The (column, cell) pairs of test_a_csv_file_reads_as_its_json_twin whose
#: scheme is valid: the others are refused by the reader or the scheme.
_VALID_TWINS = {("p", "-0"), ("p", "5e-324"), ("u", "1"), ("u", "1E5"), ("u", "5e-324")}


@pytest.mark.parametrize("column", ["p", "u"])
@pytest.mark.parametrize("cell", [
    "-0", "1", "1E5", "5e-324", "1e400", "NaN", ".5", "+1", "01", "1.", "inf", "0x1p-3",
])
def test_a_csv_file_reads_as_its_json_twin(capsys, tmp_path, column, cell):
    # a CSV file and the JSON document whose arrays hold its cells give the
    # same values, bit for bit, and normalize gives the same exit code and
    # output; float() read -0 as -0.0, where JSON's int 0 is 0.0, and read
    # .5, +1, 01, 1. and inf, which JSON refuses
    rows = [("1", "1"), (cell, "1")] if column == "p" else [("0.5", cell), ("0.5", "1")]
    csv_text = "p,u\n" + "".join(f"{p},{u}\n" for p, u in rows)
    probs, utils = (", ".join(cells) for cells in zip(*rows))
    json_text = f'{{"probabilities": [{probs}], "utilities": [{utils}]}}'
    try:
        expected = repr(json.loads(json_text))
    except ValueError:
        expected = None
    try:
        assert repr(cli._parse_csv(csv_text, "s.csv")) == expected
    except ValidationError:
        assert expected is None
    csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
    csv_path.write_text(csv_text)
    json_path.write_text(json_text)
    code, out, _ = run(capsys, "normalize", "--input", str(json_path))
    assert (code == 0) == ((column, cell) in _VALID_TWINS)
    assert run(capsys, "normalize", "--input", str(csv_path), "--format", "csv")[:2] == (code, out)


def test_csv_nested_past_the_stack_is_exit_2(capsys, tmp_path):
    # the row reaches json.loads, which raises RecursionError, not ValueError
    # and the message shows the first 80 characters of the row, not all of it
    row = "[" * 100_000 + ",1"
    path = tmp_path / "deep.csv"
    path.write_text(f"p,u\n{row}\n0.5,1\n")
    assert run(capsys, "normalize", "--input", str(path), "--format", "csv") == (
        2, "", f"error: {path}: row 1 has non-numeric entries: "
        f"{'[' * 80!r}... (100002 characters)\n"
    )


class TestJsonPieces:
    """Above _SPLIT_PARSE characters, the flat number arrays of a JSON
    object are parsed in pieces cut at commas, every other one by a forked
    child.  The document, or the error, is that of ``json.loads``, and
    anything else goes to ``json.loads`` whole."""

    CASES = {
        "flat": '{"probabilities": [0.5, 0.25, 0.125, 0.125], "utilities": [1, 2.5, 3, 4e0]}',
        "pretty": json.dumps({"probabilities": [0.5, 0.5], "utilities": [1.5, 2.0]}, indent=1),
        "spaces": ' \t\n{ "probabilities" :\r\n[ 0.5 ,\t0.5 ] ,"utilities":[1,2]\r\n}\n',
        "ints_and_constants": (
            '{"probabilities": [1, 0, -0, 10000000000000000000001, NaN, Infinity,'
            ' -Infinity, true, false, null, 1e400, -0.0, 5e-324]}'
        ),
        "other_values": (
            '{"kind": "generalized", "labels": ["a]", "utilities", "[{"],'
            ' "probabilities": [0.25, 0.25], "utilities": [1, 2], "x": {"y": [1, 2]}}'
        ),
        "nested_array": '{"probabilities": [[0.5, 0.25], 0.25]}',
        "object_in_array": '{"probabilities": [{}, 0.5]}',
        "string_in_array": '{"probabilities": ["0.5,1", 0.5]}',
        "empty_array": '{"probabilities": [ ], "utilities": []}',
        # no piece: the walk's value is the document
        "exactly_empty_array": '{"probabilities": []}',
        "double_comma": '{"probabilities": [0.5,,0.5]}',
        "trailing_comma": '{"probabilities": [0.5,0.5,]}',
        "leading_comma": '{"probabilities": [,0.5,0.5]}',
        "missing_comma": '{"probabilities": [0.5 0.5]}',
        "bad_number": '{"probabilities": [0.5, 00.5]}',
        "non_json_space": '{"probabilities": [0.5,\u00a00.5]}',
        "unclosed_array": '{"probabilities": [0.5, 0.5',
        "duplicate_key": '{"probabilities": [0.5], "probabilities": [0.5, 0.5]}',
        "top_level_array": "[0.5, 0.5]",
        "bom": '\ufeff{"probabilities": [0.5, 0.5]}',
        "trailing_text": '{"probabilities": [0.5, 0.5]} x',
        "trailing_object_comma": '{"probabilities": [0.5, 0.5],}',
        "bad_separator": '{"probabilities": [0.5, 0.5]; "utilities": [1, 1]}',
        "missing_colon": '{"probabilities" [0.5, 0.5]}',
        "bare_key": '{probabilities: [0.5, 0.5]}',
        "empty_object": "{}",
        "int_past_the_digit_limit": '{"probabilities": [0.5, ' + "9" * 5000 + "]}",
        # json.loads and the walk raise RecursionError, not ValueError
        "nested_past_the_stack": "[" * 100_000 + "]" * 100_000,
        "labels_nested_past_the_stack": (
            '{"probabilities": [0.5, 0.5], "labels": ' + "[" * 100_000 + "]" * 100_000 + "}"
        ),
    }
    #: The cases whose whole text goes to json.loads.
    FALLBACK = {
        "empty_array", "double_comma", "trailing_comma", "leading_comma",
        "missing_comma", "bad_number", "non_json_space", "unclosed_array", "duplicate_key",
        "top_level_array", "bom", "trailing_text", "trailing_object_comma", "bad_separator",
        "missing_colon", "bare_key", "empty_object", "int_past_the_digit_limit",
        "nested_past_the_stack", "labels_nested_past_the_stack",
    }

    @pytest.fixture(autouse=True)
    def split(self, monkeypatch, forks):
        # every text splits, into pieces of a few elements
        monkeypatch.setattr(cli, "_SPLIT_PARSE", -1)
        monkeypatch.setattr(cli, "_CSV_CHUNK", 4)
        yield
        _assert_no_child()

    @staticmethod
    def _parse(monkeypatch, text: str):
        """The split parse of ``text`` or its error, those of
        ``json.loads``, and whether the split parse gave ``json.loads`` the
        whole text."""
        loads, whole = json.loads, []

        def outcome(parse):
            try:
                return repr(parse(text))
            except (ValueError, RecursionError) as exc:
                return f"{type(exc).__name__}: {exc}"

        with monkeypatch.context() as patch:
            patch.setattr(json, "loads", lambda s: whole.append(s is text) or loads(s))
            split = outcome(cli._parse_json)
        return split, outcome(json.loads), any(whole)

    @pytest.mark.parametrize("name", CASES)
    def test_matches_json_loads(self, monkeypatch, name):
        split, whole, fell_back = self._parse(monkeypatch, self.CASES[name])
        assert split == whole
        assert fell_back == (name in self.FALLBACK)

    @pytest.mark.parametrize("name", CASES)
    def test_main_prints_what_the_serial_parse_prints(self, capsys, monkeypatch, tmp_path, name):
        path = tmp_path / "scheme.json"
        path.write_text(self.CASES[name], encoding="utf-8")
        argv = ["normalize", "--input", str(path)]
        assert run(capsys, *argv) == _serial(monkeypatch, run, capsys, *argv)

    @pytest.mark.parametrize("text, pieces", [
        ('{"probabilities": [0.5,0.25,0.125,0.0625]}', ["0.5,0.25", "0.125", "0.0625"]),
        # the last cut lands on the final comma, which its piece keeps
        ('{"probabilities": [0.5,0.25,0.125,]}', ["0.5,0.25", "0.125,"]),
        ('{"probabilities": [ ]}', [" "]),
        ('{"probabilities": []}', []),
    ])
    def test_a_piece_cut_before_the_end_drops_its_comma(self, text, pieces):
        doc, spans = cli._json_walk(text)
        assert doc == {"probabilities": []}
        assert [text[a:b] for _, (a, b) in spans] == pieces

    def test_the_child_parses_every_other_piece(self, monkeypatch, forks):
        probs, utils = _random_scheme(40, seed=4)
        text = json.dumps({"probabilities": probs, "utilities": utils, "kind": "complete"})
        piece, here = cli._parse_json_piece, []
        monkeypatch.setattr(
            cli, "_parse_json_piece", lambda t, span: here.append(span) or piece(t, span)
        )
        assert cli._parse_json(text) == json.loads(text)
        spans = [span for _, span in cli._json_walk(text)[1]]
        assert forks == [1] and len(spans) > 20 and here == spans[0::2]

    _numbers = st.one_of(
        st.floats(), st.integers(-(10**30), 10**30), st.booleans(), st.none()
    )
    _values = st.one_of(
        st.lists(_numbers, max_size=12),
        _numbers,
        st.text(alphabet='a,]["{}:', max_size=5),
        st.lists(st.one_of(st.lists(_numbers, max_size=3), st.text("a,]", max_size=3)),
                 max_size=4),
        st.dictionaries(st.text("ab,", max_size=2), _numbers, max_size=2),
    )
    _docs = st.dictionaries(
        st.sampled_from(["probabilities", "utilities", "kind", "labels", ",", "]", ""]),
        _values, max_size=5,
    )

    @settings(
        max_examples=150, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        doc=st.one_of(_docs, _values),
        indent=st.sampled_from([None, 0, 1, "\t"]),
        edit=st.none() | st.tuples(
            st.integers(0, 10**4), st.sampled_from(list(',[]{}":x1 ') + [""]), st.integers(0, 2)
        ),
    )
    def test_any_text_matches_json_loads(self, monkeypatch, doc, indent, edit):
        # json.dumps output, and that output with a few characters replaced
        text = json.dumps(doc, indent=indent)
        if edit is not None:
            at, new, old = edit
            at %= len(text) + 1
            text = text[:at] + new + text[at + old:]
        split, whole, _ = self._parse(monkeypatch, text)
        assert split == whole


@pytest.mark.parametrize("where", ["top_level", "labels"])
@pytest.mark.parametrize("parse", ["serial", "split"])
def test_json_nested_past_the_stack_is_exit_2(capsys, monkeypatch, tmp_path, forks, where, parse):
    # json.loads raises RecursionError, which is not a ValueError: it ended
    # the process with a traceback and exit 1
    deep = "[" * 100_000 + "]" * 100_000
    text = deep if where == "top_level" else '{"probabilities": [0.5, 0.5], "labels": ' + deep + "}"
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(RecursionError) as info:
        json.loads(text)
    argv = ["normalize", "--input", str(path)]
    if parse == "split":
        monkeypatch.setattr(cli, "_SPLIT_PARSE", -1)
        got = run(capsys, *argv)
    else:
        got = _serial(monkeypatch, run, capsys, *argv)
    assert got == (2, "", f"error: {path} is not valid JSON: {info.value}\n")
    assert forks == []


@pytest.mark.parametrize("condition", ["small", "one_cpu", "no_fork", "thread"])
def test_a_parse_that_cannot_pay_is_serial(capsys, monkeypatch, tmp_path, forks, condition):
    # json.loads of the whole text, and the CSV chunks in this process
    probs, utils = _random_scheme(1000, seed=5)
    scheme_json, scheme_csv = tmp_path / "s.json", tmp_path / "s.csv"
    scheme_json.write_text(json.dumps({"probabilities": probs, "utilities": utils}))
    scheme_csv.write_text("p,u\n" + "".join(f"{p!r},{u!r}\n" for p, u in zip(probs, utils)))
    longest = max(len(scheme_json.read_text()), len(scheme_csv.read_text()))
    monkeypatch.setattr(cli, "_SPLIT_PARSE", longest if condition == "small" else 0)
    monkeypatch.setattr(cli, "_CSV_CHUNK", 1 << 12)

    def unwalked(text):
        raise AssertionError("the JSON text was walked")

    monkeypatch.setattr(cli, "_json_walk", unwalked)
    monkeypatch.setattr(os, "fork", _no_fork)
    if condition == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    if condition == "no_fork":
        monkeypatch.delattr(os, "fork")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if condition == "thread":
        thread.start()
    try:
        expected = render_scheme_json(make_scheme(probs, utils))
        assert run(capsys, "normalize", "--input", str(scheme_json)) == (0, expected, "")
        assert run(capsys, "normalize", "--input", str(scheme_csv), "--format", "csv") == (
            0, expected, ""
        )
    finally:
        stop.set()
        if condition == "thread":
            thread.join(timeout=10)
    assert not thread.is_alive()


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


class TestBoundedOutputMemorySplit(TestBoundedOutputMemory):
    """The same bounds while a second process renders every other slice."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _no_fork():
    raise AssertionError("os.fork was called")


def _assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made with two usable CPUs."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return calls


def _serial(monkeypatch, fn, *args):
    """``fn(*args)`` with one usable CPU, where nothing may fork."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        patch.setattr(os, "fork", _no_fork)
        return fn(*args)


class TestSplitMap:
    """_split_map gives what map gives, in order, errors included, and
    leaves no child process behind."""

    @staticmethod
    def square_unless(bad):
        def fn(x):
            if x in bad:
                raise ValueError(f"item {x}")
            return x * x

        return fn

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
    def test_results_in_order(self, forks, n):
        assert list(cli._split_map(self.square_unless(()), list(range(n)), {0, 1})) == [
            x * x for x in range(n)
        ]
        assert forks == [1]
        _assert_no_child()

    # items 3 and 7 are the child's, 4 and 6 this process's
    @pytest.mark.parametrize("bad, first", [({3, 6}, 3), ({4, 7}, 4), ({7}, 7), ({6}, 6)])
    def test_first_error_is_the_serial_one(self, forks, bad, first):
        got = cli._split_map(self.square_unless(bad), list(range(10)), {0, 1})
        assert [next(got) for _ in range(first)] == [x * x for x in range(first)]
        with pytest.raises(ValueError, match=f"^item {first}$"):
            next(got)
        assert forks == [1]
        _assert_no_child()

    def test_a_child_that_dies_partway(self, forks):
        parent = os.getpid()

        def fn(x):
            if x == 5 and os.getpid() != parent:
                os._exit(1)
            return x * x

        assert list(cli._split_map(fn, list(range(10)), {0, 1})) == [x * x for x in range(10)]
        _assert_no_child()

    def test_a_child_that_dies_inside_a_message(self, forks, monkeypatch):
        # the child sends two whole results and half of the third
        import marshal

        dumps, sent = marshal.dumps, []

        def dump(value, file):
            data = dumps(value)
            if len(sent) == 2:
                file.write(data[: len(data) // 2])
                file.flush()
                os._exit(0)
            sent.append(value)
            file.write(data)

        monkeypatch.setattr(marshal, "dump", dump)
        parent, here = os.getpid(), []

        def fn(x):
            if os.getpid() == parent:
                here.append(x)
            return x * x

        items = [float(x) for x in range(10)]
        assert list(cli._split_map(fn, items, {0, 1})) == [x * x for x in items]
        # this process computed the child's items from the cut one on
        assert here == [0, 2, 4, 5, 6, 7, 8, 9]
        _assert_no_child()

    @staticmethod
    def floats(k):
        return [k + x / 7 for x in range(50_000)]

    def test_a_result_crosses_the_pipe_as_one_bytes_object(self, forks, monkeypatch):
        # marshal.load of a float list straight from the pipe made a call
        # per element: 0.41 s for 5e5 floats, against 0.034 s for
        # marshal.loads of the same bytes
        import marshal

        load, read = marshal.load, []

        def recorded(file):
            value = load(file)
            read.append(type(value))
            return value

        monkeypatch.setattr(marshal, "load", recorded)
        assert list(cli._split_map(self.floats, [0, 1, 2, 3], {0, 1})) == [
            self.floats(k) for k in range(4)
        ]
        assert read == [bytes, bytes]
        _assert_no_child()

    def test_a_child_that_dies_inside_a_payload(self, forks, monkeypatch):
        # the child sends one whole 5e4-float result, then the framing and
        # half the payload of the next
        import marshal

        dumps, sent = marshal.dumps, []

        def dump(value, file):
            assert type(value) is bytes
            data = dumps(value)
            if sent:
                file.write(data[: len(data) - len(value) // 2])
                file.flush()
                os._exit(0)
            sent.append(value)
            file.write(data)

        expected = [self.floats(k) for k in range(6)]
        monkeypatch.setattr(marshal, "dump", dump)
        parent, here = os.getpid(), []

        def fn(k):
            if os.getpid() == parent:
                here.append(k)
            return self.floats(k)

        assert list(cli._split_map(fn, list(range(6)), {0, 1})) == expected
        # this process computed the child's items from the cut one on
        assert here == [0, 2, 3, 4, 5]
        _assert_no_child()

    def test_a_consumer_that_stops_early(self, forks):
        got = cli._split_map(str, list(range(10)), {0, 1})
        assert [next(got), next(got), next(got)] == ["0", "1", "2"]
        got.close()
        _assert_no_child()

    def test_a_fork_that_fails_maps_serially(self, monkeypatch):
        def fail():
            raise OSError("no fork today")

        monkeypatch.setattr(os, "fork", fail)
        assert list(cli._split_map(str, [1, 2, 3], {0, 1})) == ["1", "2", "3"]

    def test_no_cpus_map_serially(self, monkeypatch):
        monkeypatch.setattr(os, "fork", _no_fork)
        assert list(cli._split_map(str, [1, 2, 3], set())) == ["1", "2", "3"]

    def test_the_child_starts_off_this_process_cpu(self, forks, monkeypatch, tmp_path):
        # a new child often shared its parent's CPU for its first 0.2-0.4 s;
        # it moves off that CPU, then takes back the whole mask
        assert 0 <= cli._running_cpu() < os.cpu_count()
        log = tmp_path / "affinity.log"

        def logged(pid, mask):
            with open(log, "a") as fh:
                fh.write(f"{pid} {sorted(mask)}\n")

        monkeypatch.setattr(cli, "_running_cpu", lambda: 1)
        monkeypatch.setattr(os, "sched_setaffinity", logged)
        assert list(cli._split_map(self.square_unless(()), list(range(10)), {0, 1})) == [
            x * x for x in range(10)
        ]
        assert forks == [1]
        _assert_no_child()
        assert log.read_text() == "0 [0]\n0 [0, 1]\n"

    @pytest.mark.parametrize("fault, attempts", [
        (OSError(22, "Invalid argument"), 1),
        (ValueError("invalid CPU"), 1),
        (FileNotFoundError(2, "No such file or directory", "/proc/self/stat"), 0),
    ])
    def test_a_move_that_fails_is_skipped(self, forks, monkeypatch, tmp_path, fault, attempts):
        # a mask the OS refuses ends the move; without /proc there is none
        log = tmp_path / "affinity.log"

        def refuse(pid, mask):
            with open(log, "a") as fh:
                fh.write(f"{pid} {sorted(mask)}\n")
            raise fault

        def unknown():
            raise fault

        if isinstance(fault, FileNotFoundError):
            monkeypatch.setattr(cli, "_running_cpu", unknown)
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        parent, here = os.getpid(), []

        def fn(x):
            if os.getpid() == parent:
                here.append(x)
            return x * x

        assert list(cli._split_map(fn, list(range(10)), {0, 1})) == [x * x for x in range(10)]
        # the child still computed the odd items
        assert forks == [1] and here == [0, 2, 4, 6, 8]
        _assert_no_child()
        assert len(log.read_text().splitlines() if log.exists() else []) == attempts


#: The fewest grid points that curve_values sums from sorted copies.
K = generating_functions._SORTED_CURVE_POINTS


class TestSplitCommands:
    """Curves, normalize and the escort line split between two processes
    only above their thresholds, and print what the serial code prints."""

    C = cli._RENDER_CHUNK

    @pytest.mark.parametrize("n", [C - 1, C, C + 1, 2 * C + 1])
    def test_rendering_is_byte_equal_to_serial(self, capsys, monkeypatch, tmp_path, forks, n):
        probs, utils = _random_scheme(n, seed=n)
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps({"probabilities": probs, "utilities": utils}))
        scheme = make_scheme(probs, utils)
        escort = ["escort", "--input", str(path), "--beta", "2", "--t", "2",
                  "--verify-identity", "--digits", "17"]
        normalize = ["normalize", "--input", str(path)]
        expected = [
            _serial(monkeypatch, render_scheme_json, scheme),
            _serial(monkeypatch, run, capsys, *normalize),
            _serial(monkeypatch, run, capsys, *escort),
        ]
        assert forks == []
        got = [render_scheme_json(scheme), run(capsys, *normalize), run(capsys, *escort)]
        assert got == expected
        # both vectors are more than one slice of entries; the escort line
        # only above one slice
        assert len(forks) == (3 if n > self.C else 2)
        _assert_no_child()

    # with 2 steps each half is one point, which curve_values sums without
    # dropping the zero term
    @pytest.mark.parametrize("steps", [2, 3, 101])
    def test_scheme_curve_is_byte_equal_to_serial(
        self, capsys, monkeypatch, tmp_path, forks, steps
    ):
        monkeypatch.setattr(cli, "_SPLIT_CURVE_WORK", 0)
        probs, utils = _random_scheme(10_000, seed=3)
        probs[10], probs[11] = 0.0, probs[10] + probs[11]  # a zero term, which the curve drops
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps({"probabilities": probs, "utilities": utils}))
        out = tmp_path / "c.csv"
        argv = ["curve", "--input", str(path), "--measures", "weighted,golomb,hooda_bhaker",
                "--steps", str(steps), "--out", str(out)]
        assert _serial(monkeypatch, run, capsys, *argv) == (0, "", "")
        expected = out.read_bytes()
        out.unlink()
        assert run(capsys, *argv) == (0, "", "")
        assert out.read_bytes() == expected and forks == [1]
        _assert_no_child()

    @pytest.mark.parametrize("steps", [2 * K, 2 * K + 1])
    def test_each_half_of_a_sorted_curve_is_byte_equal_to_serial(
        self, monkeypatch, forks, steps
    ):
        # both halves have at least K points, so each sums from its own
        # sorted copies of the scheme; the bytes are those of the unsorted
        # serial curve too
        probs, utils = _random_scheme(3000, seed=11)
        probs[7], probs[8] = 0.0, probs[7] + probs[8]
        scheme = make_scheme(probs, utils)
        ts = curve_grid(1.0, 3.0, steps)

        def render(cpus):
            monkeypatch.setattr(cli, "_split_cpus", lambda work, min_work: cpus)
            return cli.render_curve_csv(scheme, ts, tuple(Measure), False)

        serial = render(set())
        assert forks == []
        assert render({0, 1}) == serial and forks == [1]
        monkeypatch.setattr(generating_functions, "_SORTED_CURVE_POINTS", steps + 1)
        assert render(set()) == serial
        _assert_no_child()

    #: 2000 terms by 101 points is above the curve threshold.
    BETA = ["curve", "--family", "beta-power", "--beta", "2", "--truncation", "2000",
            "--measures", "weighted,golomb"]

    # the grid's 101 points run in two halves: this process computes
    # indexes 0-50, the child 51-100
    @pytest.mark.parametrize("bad, first", [
        ((60,), 60),  # the child's only
        ((60, 30), 30),  # the child's and this process's
        ((90, 70), 70),  # two in the child
        ((51, 50), 50),  # both sides of the boundary
        ((51,), 51),  # the child's first point
    ])
    def test_first_failing_t_is_the_serial_error(
        self, capsys, monkeypatch, tmp_path, forks, bad, first
    ):
        ts = [1.0 + k * 0.02 for k in range(100)] + [3.0]
        values = cli.curve_values

        def failing(scheme, grid, measures, *, extended=False):
            for t in grid:
                if t in {ts[k] for k in bad}:
                    raise DomainError(f"non-finite curve value at t = {t}")
            return values(scheme, grid, measures, extended=extended)

        monkeypatch.setattr(cli, "curve_values", failing)
        out = tmp_path / "c.csv"
        argv = [*self.BETA, "--out", str(out)]
        expected = (3, "", f"error: non-finite curve value at t = {ts[first]}\n")
        assert _serial(monkeypatch, run, capsys, *argv) == expected
        assert run(capsys, *argv) == expected
        assert forks == [1] and not out.exists()
        _assert_no_child()

    def test_a_child_that_dies_partway(self, capsys, monkeypatch, tmp_path, forks):
        parent, values = os.getpid(), cli.curve_values

        def dying(scheme, grid, measures, *, extended=False):
            if grid[0] > 2.0 and os.getpid() != parent:
                os._exit(1)
            return values(scheme, grid, measures, extended=extended)

        monkeypatch.setattr(cli, "curve_values", dying)
        out = tmp_path / "c.csv"
        argv = [*self.BETA, "--out", str(out)]
        assert _serial(monkeypatch, run, capsys, *argv) == (0, "", "")
        expected = out.read_bytes()
        assert run(capsys, *argv) == (0, "", "")
        assert out.read_bytes() == expected and forks == [1]
        _assert_no_child()

    def test_a_split_curve_reads_the_cpu_mask_once(self, capsys, monkeypatch, tmp_path, forks):
        calls = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: calls.append(pid) or {0, 1})
        assert run(capsys, *self.BETA, "--out", str(tmp_path / "c.csv")) == (0, "", "")
        assert forks == [1] and calls == [0]
        _assert_no_child()

    def test_small_work_stays_serial(self, capsys, monkeypatch, tmp_path, forks, half_half):
        monkeypatch.setattr(os, "fork", _no_fork)
        out = str(tmp_path / "c.csv")
        # about 400 nonzero terms
        geometric = ["curve", "--family", "geometric", "--p", "0.15", "--truncation", "10000",
                     "--measures", "weighted,golomb,hooda_bhaker", "--out", out]
        assert run(capsys, *geometric) == (0, "", "")
        assert run(capsys, "normalize", "--input", half_half)[0] == 0
        assert run(capsys, "escort", "--input", half_half, "--beta", "2")[0] == 0

    def test_one_cpu_never_forks(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
        monkeypatch.setattr(os, "fork", _no_fork)
        assert run(capsys, *self.BETA, "--out", str(tmp_path / "c.csv")) == (0, "", "")

    def test_no_sched_getaffinity_reads_the_cpu_count(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(os, "fork", _no_fork)
        assert run(capsys, *self.BETA, "--out", str(tmp_path / "c.csv")) == (0, "", "")

    def test_no_fork_is_serial(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delattr(os, "fork")
        assert run(capsys, *self.BETA, "--out", str(tmp_path / "c.csv")) == (0, "", "")

    def test_a_second_thread_never_forks(self, capsys, monkeypatch, tmp_path, forks):
        import threading

        monkeypatch.setattr(os, "fork", _no_fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert run(capsys, *self.BETA, "--out", str(tmp_path / "c.csv")) == (0, "", "")
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


def test_only_the_cli_forks():
    # library callers may run threads, which a forked child would not have
    forking = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names] + [getattr(node, "module", None)]
            if any(n and (n.startswith("fork") or n.split(".")[0] in
                          ("multiprocessing", "subprocess", "concurrent")) for n in names):
                forking.add(path.name)
    assert forking == {"cli.py"}


class TestFlagsBeforeInput:
    """A usage error in the flags exits 2, and a bad t or curve grid exits
    with its own code, before the input is read or a family is built."""

    @pytest.fixture(autouse=True)
    def no_scheme(self, monkeypatch):
        def unread(*args):
            raise AssertionError("the scheme was built")

        monkeypatch.setattr(cli, "_load_scheme", unread)
        monkeypatch.setattr(cli, "realize_family", unread)

    MEASURES = (
        "--measures must name measures from ['weighted', 'golomb', 'hooda_bhaker'], "
        "got 'weighted,bogus'"
    )

    @pytest.mark.parametrize("argv, message", [
        (["escort", "--input", "big.json", "--beta", "2", "--verify-identity"],
         "--verify-identity needs --t"),
        (["escort", "--input", "big.json", "--beta", "2", "--u", "2"], "--u needs --t"),
        (["escort", "--input", "big.json", "--beta", "2", "--extended-t"],
         "--extended-t needs --t"),
        (["curve", "--input", "big.json", "--measures", "weighted,bogus", "--out", "c.csv"],
         MEASURES),
        (["curve", "--family", "beta-power", "--beta", "2", "--truncation", "1000000",
          "--measures", "weighted,bogus", "--out", "c.csv"], MEASURES),
        # both were checked only after the scheme was built: 1.3 and 1.6 s
        # of CPU and 130 MB for the N = 1e6 file
        (["escort", "--input", "big.json", "--beta", "0"],
         "escort power beta must lie in (0, inf), got 0.0"),
        (["escort", "--input", "big.json", "--beta", "2", "--t", "2", "--u", "-1"],
         "constant utility u must lie in (0, inf), got -1.0"),
    ])
    def test_flag_error_first(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    BELOW = (
        "t = 0.5 is below the default domain t >= 1; pass extended=True "
        "(--extended-t on the command line) to evaluate there"
    )

    # a bad t or grid was found only after the scheme was built: about
    # 1.1 s and 130 MB for eval --t 0.5 or curve --steps 1 at N = 1e6
    @pytest.mark.parametrize("argv, code, message", [
        (["eval", "--input", "big.json", "--t", "0.5"], 3, BELOW),
        (["escort", "--input", "big.json", "--beta", "2", "--t", "0.5"], 3, BELOW),
        (["curve", "--input", "big.json", "--steps", "1", "--out", "c.csv"], 2,
         "steps must be an integer >= 2, got 1"),
        (["curve", "--family", "beta-power", "--beta", "2", "--truncation", "1000000",
          "--t-min", "3", "--t-max", "2", "--out", "c.csv"], 2,
         "need t_min < t_max, got 3.0 and 2.0"),
    ])
    def test_t_and_grid_errors_first(self, capsys, argv, code, message):
        assert run(capsys, *argv) == (code, "", f"error: {message}\n")

    CAP = "the realized family needs at least {} terms, above the cap of 1000000"

    # the order is checked before the file is read, and the cap on a
    # realized family before its term generator or its distribution runs
    @pytest.mark.parametrize("argv, message", [
        (["moments", "--input", "big.json", "--r-max", "0"], "--r-max must be in 1..8, got 0"),
        (["moments", "--input", "big.json", "--r-max", "9"], "--r-max must be in 1..8, got 9"),
        (["closed-form", "uniform", "--n", "2000000", "--t", "2", "--check"],
         CAP.format(2000000)),
        (["closed-form", "geometric", "--p", "0.99999999", "--t", "2", "--check"],
         CAP.format(540988911)),
        (["closed-form", "geometric", "--p", "0.99999999", "--entropy", "--check"],
         CAP.format(1048576)),
    ])
    def test_order_and_cap_errors_first(self, capsys, monkeypatch, argv, message):
        def unbuilt(*args):
            raise AssertionError("a term was built")

        monkeypatch.setattr(distributions, "_family_terms", unbuilt)
        monkeypatch.setattr(distributions, "ProbabilityDistribution", unbuilt)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["curve", "--family", "uniform", "--n", "4", "--u", "-1", "--out", "c.csv"],
    ["escort", "--input", "three_seven.json", "--beta", "2", "--t", "2", "--u", "-1"],
    ["closed-form", "uniform", "--n", "4", "--u", "-1", "--t", "2"],
])
def test_a_bad_constant_u_has_one_message(capsys, tmp_path, monkeypatch, argv):
    # the first two said "utilities must be positive finite numbers"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "three_seven.json").write_text(json.dumps({"probabilities": [0.3, 0.7]}))
    assert run(capsys, *argv) == (
        2, "", "error: constant utility u must lie in (0, inf), got -1.0\n"
    )
    assert not (tmp_path / "c.csv").exists()


def test_a_grid_above_the_cap_is_refused_before_it_is_built(capsys, tmp_path):
    # a list of 1e12 floats was allocated before anything else was checked
    out = tmp_path / "c.csv"
    start = time.perf_counter()
    code, stdout, err = run(
        capsys, "curve", "--family", "uniform", "--n", "2", "--steps", "1000000000000",
        "--out", str(out),
    )
    assert time.perf_counter() - start < 5.0
    assert (code, stdout, err) == (
        2, "", f"error: steps must be at most {MAX_REALIZED_TERMS}, got 1000000000000\n"
    )
    assert not out.exists()


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


def test_each_piece_size_has_one_reader():
    # the CSV chunk size cut CSV rows and, in a second loop, JSON arrays;
    # the render slice size was read again to count each vector's slices
    readers: dict[str, set] = {"_CSV_CHUNK": set(), "_RENDER_CHUNK": set()}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                readers.get(child.id, set()).add(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(ast.parse(Path(cli.__file__).read_text()), "<module>")
    assert readers == {"_CSV_CHUNK": {"_cuts"}, "_RENDER_CHUNK": {"_render_slices"}}


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


def _run_process(*args: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python *args`` in a fresh process
    that imports this tree's igf."""
    src = str(Path(igf.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    return done.returncode, done.stdout, done.stderr


def _assert_runs(script: str) -> None:
    code, _, err = _run_process("-c", script)
    assert code == 0, err


def _main_in_process(capsys, argv: list[str]) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: What the installed ``igf`` console script runs.
CONSOLE_SCRIPT = "from igf.cli import console_main; console_main()"


class TestProcessEntry:
    """A process enters the CLI through console_main, by ``python -m
    igf.cli`` or the ``igf`` console script, and freezes the collector
    before it exits: it prints the bytes and exits with the code of
    ``main()`` run in-process, which freezes nothing."""

    @pytest.mark.parametrize("template, code", [
        (["eval", "--input", "{scheme}", "--t", "2"], 0),
        (["eval", "--input", "{scheme}", "--t", "2", "--base", "2"], 2),
        (["eval", "--input", "{bad}", "--t", "2"], 2),
        (["eval", "--input", "{scheme}", "--t", "0.5"], 3),
    ])
    def test_same_bytes_as_main(self, capsys, half_half, tmp_path, template, code):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff")
        argv = [arg.format(scheme=half_half, bad=bad) for arg in template]
        expected = _main_in_process(capsys, argv)
        assert expected[0] == code and gc.get_freeze_count() == 0
        assert _run_process("-m", "igf.cli", *argv) == expected
        assert _run_process("-c", CONSOLE_SCRIPT, *argv) == expected

    def test_failed_verification_is_exit_4(self, capsys, monkeypatch, eight_two):
        # the report is faked as in TestEscort, here and in the script, so
        # the exit code does not rest on how the two sides round
        argv = ["escort", "--input", eight_two, "--beta", "2", "--t", "2", "--verify-identity"]
        monkeypatch.setattr(
            cli,
            "verify_scaling_identity",
            lambda *a, **k: ScalingIdentityReport(lhs=1.0, rhs=2.0, abs_diff=1.0, passed=False),
        )
        expected = _main_in_process(capsys, argv)
        assert expected[0] == 4 and gc.get_freeze_count() == 0
        script = (
            "import igf.cli\n"
            "from igf import ScalingIdentityReport\n"
            "igf.cli.verify_scaling_identity = lambda *a, **k: ScalingIdentityReport(\n"
            "    lhs=1.0, rhs=2.0, abs_diff=1.0, passed=False\n"
            ")\n"
            "igf.cli.console_main()\n"
        )
        assert _run_process("-c", script, *argv) == expected

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_direct_entropy_keeps_no_log_list(self):
        # the direct side of a power law sums 1e6 terms once; a kept list of
        # their log weights took the peak from 61 MB to 100 MB.  VmHWM is the
        # peak of this process image alone: the rusage peak of a child also
        # counts the test process it was forked from
        script = (
            "import sys\n"
            "from igf.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "[peak] = [line for line in open('/proc/self/status') if line.startswith('VmHWM')]\n"
            "sys.stderr.write(peak)\n"
            "sys.exit(code)\n"
        )
        argv = ["closed-form", "beta-power", "--beta", "2", "--entropy", "--check"]
        code, _, err = _run_process("-c", script, *argv)
        assert code == 0
        assert err.split()[2] == "kB" and int(err.split()[1]) < 70 * 1024

    def test_exit_handlers_run_after_the_freeze(self, capsys, half_half):
        # the handler's line reaches stdout: the final flush still runs
        argv = ["eval", "--input", half_half, "--t", "2"]
        code, out, err = _main_in_process(capsys, argv)
        script = (
            "import atexit, gc\n"
            "from igf.cli import console_main\n"
            "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0, end=''))\n"
            "console_main()\n"
        )
        assert _run_process("-c", script, *argv) == (code, out + "frozen: True", err)

    def test_no_child_is_left_when_the_process_freezes(self, capsys, monkeypatch, tmp_path, forks):
        # stdout breaks midway through normalize's render, whose second
        # slice of each 70000-entry vector is the child's; the child is
        # reaped before the freeze, after which no collection would close
        # a generator that still held it
        probs, utils = _random_scheme(70_000)
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps({"probabilities": probs, "utilities": utils}))

        class BreaksAtTheChildsSlice:
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 4:  # "{", the key, this process's slice
                    raise BrokenPipeError(32, "Broken pipe")

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        frozen = []
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append(_assert_no_child()))
        monkeypatch.setattr(sys, "argv", ["igf", "normalize", "--input", str(path)])
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", BreaksAtTheChildsSlice())
            with pytest.raises(SystemExit) as excinfo:
                cli.console_main()
        assert excinfo.value.code == 2 and frozen == [None] and forks == [1]
        assert capsys.readouterr() == ("", "error: [Errno 32] Broken pipe\n")
