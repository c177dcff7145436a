"""Grid I/O, report serialization, and command-line interface tests."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablafrac import (
    Backend,
    DomainError,
    GridFunction,
    INEQUALITY_SUITE_NAMES,
    ParameterError,
    ParseError,
    run_identity_suite,
    run_inequality_suite,
)
from nablafrac.cli import build_parser, main
from nablafrac.gridio import (
    format_scalar,
    parse_scalar,
    read_grid,
    read_grid_csv,
    read_grid_json,
    render_report,
    suite_to_dict,
    to_json,
    write_grid_csv,
    write_grid_json,
    write_report,
)


class TestScalarFormatting:
    def test_rational(self):
        assert format_scalar(Fraction(15, 8)) == "15/8"
        assert format_scalar(Fraction(-3, 1)) == "-3"
        assert format_scalar(7) == "7"

    def test_float_seventeen_digits(self):
        assert format_scalar(1.875) == "1.875"
        assert format_scalar(0.1) == "0.10000000000000001"

    def test_round_trip(self):
        for value in (Fraction(15, 8), Fraction(-7, 3), Fraction(4)):
            assert parse_scalar(format_scalar(value)) == value
        for value in (0.1, 1.875, -3.25e17):
            assert parse_scalar(format_scalar(value), Backend.FLOAT) == value

    def test_malformed_rejected(self):
        with pytest.raises(ParseError):
            parse_scalar("1/2/3")


def fraction_rule(text, backend):
    """The reference rule for ``parse_scalar``: ``Fraction`` of the stripped text,
    then ``float()`` on the float backend, with the same error mapping."""
    text = text.strip()
    try:
        exact = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed value {text!r}")
    if backend is Backend.EXACT:
        return exact
    try:
        return float(exact)
    except OverflowError:
        raise ParseError("grid value is out of the float range")


def outcome(parse, text, backend):
    """Value, type and sign of zero, or the exception class and message."""
    try:
        value = parse(text, backend)
    except Exception as exc:
        return type(exc), str(exc)
    sign = math.copysign(1.0, value) if isinstance(value, float) else None
    return type(value), value, sign


padding = st.sampled_from(["", " ", "\t", " \n "])
digit_runs = st.one_of(
    st.text("0123456789", min_size=1, max_size=25),
    st.text("0", min_size=1, max_size=4),
    st.text("0123456789", min_size=300, max_size=420),
)
lane_texts = st.builds(
    "{}{}{}{}{}".format,
    padding,
    st.sampled_from(["", "-", "+"]),
    digit_runs,
    st.one_of(st.just(""), digit_runs.map("/{}".format)),
    padding,
)

LANE_EDGES = [
    "-0",
    "-0/5",
    "+0/1",
    "3/0",
    "-3/000",
    "007/0003",
    "  -15/8\t",
    "1" + "0" * 400 + "/3",
    "-1" + "0" * 400 + "/7",
    "-1/1" + "0" * 400,
    "9" * 5000,
    "1/" + "9" * 5000,
]
FRACTION_ONLY = ["1_000", "３/４", "1 / 2", ".5", "1e5", "-2.5e-3", "inf", "nan", "1/2/3", "", "/", "5/-3"]


class TestParseScalarAgainstFraction:
    """``parse_scalar`` returns what ``Fraction(text)`` (then ``float()``) gives,
    bit for bit, and fails with the same class and message."""

    @pytest.mark.parametrize("backend", list(Backend))
    @pytest.mark.parametrize("text", LANE_EDGES + FRACTION_ONLY)
    def test_fixed_texts(self, text, backend):
        assert outcome(parse_scalar, text, backend) == outcome(fraction_rule, text, backend)

    @settings(max_examples=300, deadline=None)
    @given(lane_texts, st.sampled_from(list(Backend)))
    def test_generated_p_over_q_texts(self, text, backend):
        assert outcome(parse_scalar, text, backend) == outcome(fraction_rule, text, backend)


class TestGridCsv:
    def test_read_example(self):
        f = read_grid_csv(io.StringIO("t,value\n0,0\n1,1\n2,4\n"))
        assert f.lo == 0 and f.hi == 2
        assert f.values == (0, 1, 4)

    def test_round_trip_rationals(self):
        f = GridFunction(-1, (Fraction(1, 3), Fraction(2), Fraction(-15, 8)))
        buffer = io.StringIO()
        write_grid_csv(f, buffer)
        again = read_grid_csv(io.StringIO(buffer.getvalue()))
        assert again.lo == f.lo and again.values == f.values

    def test_gap_names_missing_index(self):
        with pytest.raises(DomainError, match="index 1"):
            read_grid_csv(io.StringIO("t,value\n0,0\n2,4\n"))

    def test_malformed_value_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            read_grid_csv(io.StringIO("t,value\n0,0\n1,x\n"))

    def test_header_required(self):
        with pytest.raises(ParseError, match="line 1"):
            read_grid_csv(io.StringIO("time,val\n0,0\n"))

    def test_float_backend(self):
        f = read_grid_csv(io.StringIO("t,value\n0,1/2\n1,0.25\n"), Backend.FLOAT)
        assert f.backend is Backend.FLOAT
        assert f.values == (0.5, 0.25)

    def test_decimals_parse_exactly_on_exact_backend(self):
        f = read_grid_csv(io.StringIO("t,value\n0,0.5\n1,2\n"))
        assert f.values == (Fraction(1, 2), Fraction(2))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,value\n0,1\n1,2,3\n", r"^line 3: expected two columns, got 3$"),
            ("t,value\n0,1\nx,2\n", r"^line 3: malformed index 'x'$"),
            ("t,value\n0.5,1\n", r"^line 2: malformed index '0.5'$"),
            ("t,value\n", r"^no data rows$"),
            ("t,value\n\n , \n", r"^no data rows$"),
        ],
    )
    def test_row_errors(self, text, message):
        with pytest.raises(ParseError, match=message):
            read_grid_csv(io.StringIO(text))

    def test_blank_lines_are_skipped(self):
        f = read_grid_csv(io.StringIO("t,value\n\n3,1\n,\n4,2\n\n"))
        assert f.lo == 3 and f.values == (1, 2)


class TestGridJson:
    def test_round_trip(self):
        f = GridFunction(2, (Fraction(1, 3), Fraction(5)))
        buffer = io.StringIO()
        write_grid_json(f, buffer)
        again = read_grid_json(io.StringIO(buffer.getvalue()))
        assert again.lo == f.lo and again.values == f.values

    def test_shape_validation(self):
        with pytest.raises(ParseError):
            read_grid_json(io.StringIO('{"values": [1, 2]}'))

    @pytest.mark.parametrize(
        "payload, backend, message",
        [
            ('{"lo": 0, "values": [1,', Backend.EXACT, r"^malformed JSON grid: "),
            ('{"lo": 0.5, "values": [1]}', Backend.EXACT, r"^grid 'lo' must be an integer, got 0\.5$"),
            ('{"lo": "0", "values": [1]}', Backend.FLOAT, r"^grid 'lo' must be an integer, got '0'$"),
            ('{"lo": 0, "values": [1, true]}', Backend.EXACT, r"^grid values must be numbers or 'p/q' strings$"),
            ('{"lo": 0, "values": [0.5]}', Backend.EXACT, r"^decimal literal 0\.5 in an exact grid; quote it as a string$"),
            ('{"lo": 0, "values": [1, null]}', Backend.EXACT, r"^unsupported grid value None$"),
            ('{"lo": 0, "values": [[1]]}', Backend.FLOAT, r"^unsupported grid value \[1\]$"),
        ],
    )
    def test_value_errors(self, payload, backend, message):
        with pytest.raises(ParseError, match=message):
            read_grid_json(io.StringIO(payload), backend)

    def test_decimal_literal_on_the_float_backend(self):
        f = read_grid_json(io.StringIO('{"lo": -1, "values": [0.5, 2, "1/4"]}'), Backend.FLOAT)
        assert f.lo == -1 and f.values == (0.5, 2.0, 0.25)
        assert all(type(v) is float for v in f.values)

    @pytest.mark.parametrize("values", ["5", '"123"', '{"1": 2}', "null"])
    def test_values_must_be_a_list(self, values):
        for backend in Backend:
            with pytest.raises(ParseError):
                read_grid_json(io.StringIO('{"lo": 0, "values": %s}' % values), backend)

    @pytest.mark.parametrize(
        "value",
        ["NaN", "Infinity", "-Infinity", "1e400", '"1e400"', pytest.param("1" + "0" * 400, id="huge-int")],
    )
    def test_float_values_must_be_finite(self, value):
        with pytest.raises(ParseError):
            read_grid_json(io.StringIO('{"lo": 0, "values": [1, %s]}' % value), Backend.FLOAT)

    def test_csv_values_must_be_finite(self):
        with pytest.raises(ParseError, match="line 3"):
            read_grid_csv(io.StringIO("t,value\n0,1\n1,1e400\n"), Backend.FLOAT)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ('{"lo": true, "values": [1]}', "lo must be an integer"),
            ('{"lo": 0, "values": []}', "a grid function needs at least one value"),
            ('{"lo": false, "values": []}', "lo must be an integer"),
        ],
    )
    def test_constructor_checks_kept(self, payload, message):
        for backend in Backend:
            with pytest.raises(ParameterError, match=message):
                read_grid_json(io.StringIO(payload), backend)

    @pytest.mark.parametrize("backend", list(Backend))
    def test_readers_equal_public_construction(self, backend):
        text = "t,value\n-2,-7/3\n-1, 0 \n0,5\n1,0.125\n2,-0/4\n"
        grids = [
            read_grid_csv(io.StringIO(text), backend),
            read_grid_json(io.StringIO('{"lo": -2, "values": ["-7/3", 0, 5, "0.125", "-0/4"]}'), backend),
        ]
        kind = Fraction if backend is Backend.EXACT else float
        for g in grids:
            public = GridFunction(g.lo, g.values)
            assert g == public and hash(g) == hash(public)
            assert all(type(v) is kind for v in g.values)
        assert grids[0] == grids[1]

    def test_dispatcher_by_extension_and_format(self, tmp_path):
        f = GridFunction(0, (Fraction(1), Fraction(2)))
        csv_path = tmp_path / "g.csv"
        json_path = tmp_path / "g.json"
        write_grid_csv(f, str(csv_path))
        write_grid_json(f, str(json_path))
        assert read_grid(str(csv_path)).values == f.values
        assert read_grid(str(json_path)).values == f.values
        assert read_grid(str(csv_path), fmt="csv").values == f.values

    def test_dispatcher_rejects_an_unknown_format(self, tmp_path):
        path = tmp_path / "g.xml"
        write_grid_json(GridFunction(0, (1,)), str(path))
        with pytest.raises(ParameterError, match=r"^unknown grid format 'xml'$"):
            read_grid(str(path), fmt="xml")


class TestReportSerialization:
    def test_suite_json_is_deterministic(self):
        first = run_inequality_suite("ostrowski", 10, 3)
        second = run_inequality_suite("ostrowski", 10, 3)
        assert to_json(suite_to_dict(first)) == to_json(suite_to_dict(second))

    def test_json_writes_infinities_and_backends_as_text(self):
        assert json.loads(to_json([math.inf, -math.inf, Backend.FLOAT])) == ["inf", "-inf", "float"]

    def test_suite_json_schema(self):
        result = run_identity_suite("duality", 5, 3)
        payload = json.loads(to_json(suite_to_dict(result)))
        assert set(payload) == {
            "name",
            "trials",
            "master_seed",
            "backend",
            "version",
            "failures",
            "worst_slack",
            "failing_seeds",
        }
        assert payload["backend"] == "exact"
        assert payload["failures"] == 0

    def test_report_json_schema(self):
        from nablafrac import opial_corollary_25

        f = GridFunction(-2, tuple(0 for _ in range(10)))
        report = opial_corollary_25(f, 4)
        payload = json.loads(render_report(report, "json"))
        assert set(payload) == {"name", "params", "lhs", "rhs", "slack", "holds", "components"}
        assert payload["holds"] is True

    def test_rationals_serialize_as_strings(self):
        from nablafrac import ostrowski_report
        from nablafrac import FunctionSpec, gen_function

        f = gen_function(FunctionSpec(a=0, m=3, b=8, zero_initials_from=1, value_range=5, seed=3))
        report = ostrowski_report(f, 0, 8, Fraction(5, 2), 0)
        payload = json.loads(render_report(report, "json"))
        assert isinstance(payload["lhs"], str)
        assert Fraction(payload["lhs"]) == report.lhs

    def test_table_and_csv_render(self):
        result = run_identity_suite("duality", 5, 3)
        table = render_report(result, "table")
        assert "failures" in table
        rows = render_report(result, "csv").splitlines()
        assert rows[0] == "field,value"

    def test_render_rejects_an_unknown_format(self):
        result = run_identity_suite("duality", 2, 3)
        with pytest.raises(ParameterError, match=r"^unknown format 'xml'$"):
            render_report(result, "xml")

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_write_report_to_a_path_and_a_stream(self, tmp_path, fmt):
        result = run_identity_suite("duality", 2, 3)
        path = tmp_path / f"report.{fmt}"
        write_report(result, str(path), fmt)
        stream = io.StringIO()
        write_report(result, stream, fmt)
        assert path.read_text(encoding="utf-8") == stream.getvalue() == render_report(result, fmt)

    def test_write_report_defaults_to_json(self):
        result = run_identity_suite("duality", 2, 3)
        stream = io.StringIO()
        write_report(result, stream)
        assert json.loads(stream.getvalue())["name"] == "duality"


@pytest.fixture
def ones_csv(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("t,value\n0,1\n1,1\n2,1\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def cube_csv(tmp_path):
    rows = ["t,value"] + [f"{t},{t**3}" for t in range(-2, 7)]
    path = tmp_path / "cube.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


SRC = str(Path(__file__).resolve().parents[1] / "src")

# flag -> (text on the command line, parsed value), for every flag of the CLI
FLAGS = {
    "--a": ("3", 3),
    "--b": ("9", 9),
    "--t": ("5", 5),
    "--mu": ("5/2", "5/2"),
    "--nu": ("1/2", "1/2"),
    "--p": ("1", 1),
    "--gamma": ("3", "3"),
    "--delta": ("3/2", "3/2"),
    "--r": ("4", "4"),
    "--input": ("grid.csv", "grid.csv"),
    "--backend": ("float", "float"),
    "--seed": ("7", 7),
    "--trials": ("11", 11),
    "--format": ("csv", "csv"),
    "--g-variant": ("tight", "tight"),
}
GRID = {"--input", "--a", "--t", "--backend", "--format"}
# command -> the flags it reads
READS = {
    "eval-sum": GRID | {"--nu"},
    "eval-caputo": GRID | {"--mu"},
    "taylor": GRID | {"--mu", "--p"},
    "bound": GRID | {"--mu", "--p"},
    "verify": {"--trials", "--seed", "--backend", "--format"},
    "ineq": set(FLAGS) - {"--nu"},
}


def in_process(argv):
    """``main(argv)`` in this process: (exit code, stdout bytes, stderr bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def one_shot(argv):
    """``python -m nablafrac.cli argv`` in a fresh process, as a shell runs it."""
    env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"}
    proc = subprocess.run(
        [sys.executable, "-m", "nablafrac.cli", *argv], capture_output=True, env=env, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCli:
    def test_eval_sum_exact(self, ones_csv, capsys):
        code = main(["eval-sum", "--input", ones_csv, "--a", "0", "--nu", "1/2", "--t", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "15/8"

    def test_eval_sum_float(self, ones_csv, capsys):
        code = main(
            [
                "eval-sum",
                "--input",
                ones_csv,
                "--a",
                "0",
                "--nu",
                "1/2",
                "--t",
                "2",
                "--backend",
                "float",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.875"

    @pytest.mark.parametrize("command", ["eval-sum", "eval-caputo", "taylor", "bound"])
    def test_grid_commands_need_input(self, capsys, command):
        order = "--nu" if command == "eval-sum" else "--mu"
        assert main([command, "--a", "0", order, "5/2", "--t", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"nablafrac {command}: error: the following arguments are required: --input\n")

    def test_eval_caputo(self, cube_csv, capsys):
        code = main(["eval-caputo", "--input", cube_csv, "--a", "1", "--mu", "5/2", "--t", "3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "45/4"

    def test_eval_caputo_rejects_integer_order(self, cube_csv, capsys):
        code = main(["eval-caputo", "--input", cube_csv, "--a", "1", "--mu", "3", "--t", "3"])
        assert code == 2
        assert "non-integer" in capsys.readouterr().err

    def test_taylor_subcommand(self, cube_csv, capsys):
        code = main(["taylor", "--input", cube_csv, "--a", "0", "--mu", "5/2", "--t", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "poly_part: -33" in out
        assert "remainder: 60" in out
        assert "total: 27" in out

    def test_taylor_integer_order_rejects_a_shift(self, cube_csv, capsys):
        # the integer form expands f itself: --p 1 would print f(4) = 64, not ∇f(4) = 37
        code = main(["taylor", "--input", cube_csv, "--a", "0", "--mu", "3", "--p", "1", "--t", "4"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --p 1 needs a non-integer --mu")
        assert main(["taylor", "--input", cube_csv, "--a", "0", "--mu", "3", "--p", "0", "--t", "4"]) == 0
        assert "total: 64" in capsys.readouterr().out

    def test_bound_subcommand(self, cube_csv, capsys):
        code = main(
            ["bound", "--input", cube_csv, "--a", "0", "--mu", "5/2", "--p", "0", "--t", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lhs: 60" in out
        assert "rhs: 2835/32" in out

    def test_verify_suite_passes(self, capsys):
        code = main(["verify", "taylor", "--trials", "5", "--seed", "42", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == 0

    def test_verify_unknown_suite(self, capsys):
        code = main(["verify", "nope", "--trials", "5"])
        assert code == 2

    def test_ineq_suite_passes(self, capsys):
        code = main(["ineq", "ostrowski", "--trials", "5", "--seed", "7", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == 0

    def test_ineq_tight_variant_fails_with_seeds(self, capsys):
        code = main(
            [
                "ineq",
                "opial",
                "--trials",
                "40",
                "--seed",
                "42",
                "--g-variant",
                "tight",
                "--format",
                "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] > 0
        assert payload["failing_seeds"]

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["opial", "--p", "7"], 2, "error: shift p=7 must be smaller than the order"),
            (["poincare", "--p", "1"], 0, ""),
            (["sobolev", "--p", "2"], 0, ""),
            (["ostrowski", "--p", "4"], 2, "error: shift p=4 must be smaller than the order"),
        ],
    )
    def test_ineq_suite_uses_or_refuses_a_given_shift(self, capsys, argv, code, err):
        assert main(["ineq", *argv, "--trials", "30"]) == code
        assert capsys.readouterr().err.startswith(err)

    def test_ineq_avg_sobolev_suite_takes_a_given_order(self, capsys):
        # the suite JSON carries no orders, so compare it with the one-order list of the API
        assert main(["ineq", "avg-sobolev", "--mu", "9/2", "--trials", "10", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        result = run_inequality_suite("avg-sobolev", 10, 42, mu_list=[Fraction(9, 2)])
        assert payload["worst_slack"] == result.worst_slack

    def test_ineq_single_report_from_file(self, tmp_path, capsys):
        # admissible function with zero values at 0, -1, -2
        from nablafrac import FunctionSpec, gen_function
        from nablafrac.gridio import write_grid_csv

        f = gen_function(FunctionSpec(a=0, m=3, b=8, zero_initials_from=0, value_range=5, seed=9))
        path = tmp_path / "adm.csv"
        write_grid_csv(f, str(path))
        code = main(
            ["ineq", "opial-25", "--input", str(path), "--t", "6", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True

    def test_ineq_single_ostrowski_report(self, tmp_path, capsys):
        from nablafrac import FunctionSpec, gen_function
        from nablafrac.gridio import write_grid_csv

        f = gen_function(FunctionSpec(a=0, m=3, b=8, zero_initials_from=1, value_range=5, seed=4))
        path = tmp_path / "ost.csv"
        write_grid_csv(f, str(path))
        code = main(
            [
                "ineq",
                "ostrowski",
                "--input",
                str(path),
                "--a",
                "0",
                "--b",
                "8",
                "--mu",
                "5/2",
                "--p",
                "0",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "ostrowski"
        assert payload["holds"] is True

    def test_ineq_single_sobolev_report(self, tmp_path, capsys):
        from nablafrac import FunctionSpec, gen_function
        from nablafrac.gridio import write_grid_json

        f = gen_function(FunctionSpec(a=0, m=2, b=7, zero_initials_from=0, value_range=5, seed=6))
        path = tmp_path / "sob.json"
        write_grid_json(f, str(path))
        code = main(
            [
                "ineq",
                "sobolev",
                "--input",
                str(path),
                "--a",
                "0",
                "--b",
                "7",
                "--mu",
                "3/2",
                "--r",
                "3",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "sobolev" and payload["holds"] is True

    SINGLE_REPORTS = {
        "opial": ["--a", "0", "--t", "6", "--mu", "5/2", "--gamma", "3", "--delta", "3/2"],
        "opial-25": ["--t", "6"],
        "ostrowski": ["--a", "0", "--b", "8", "--mu", "5/2", "--p", "1"],
        "poincare": ["--a", "0", "--b", "8", "--mu", "5/2", "--p", "1"],
        "sobolev": ["--a", "0", "--b", "8", "--mu", "5/2", "--r", "3"],
        "avg-sobolev": ["--a", "0", "--b", "8", "--mu", "5/2"],
    }

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_every_single_report_in_every_format(self, tmp_path, capsys, backend):
        from nablafrac import FunctionSpec, gen_function
        from nablafrac.gridio import write_grid_csv

        # f(0) = f(-1) = f(-2) = 0: admissible for every family at a = 0, m = 3
        f = gen_function(FunctionSpec(a=0, m=3, b=8, zero_initials_from=0, value_range=5, seed=11))
        path = tmp_path / "adm.csv"
        write_grid_csv(f, str(path))
        assert sorted(self.SINGLE_REPORTS) == sorted(INEQUALITY_SUITE_NAMES)
        for name, flags in self.SINGLE_REPORTS.items():
            head = ["ineq", name, "--input", str(path), "--backend", backend, *flags]
            code = main(head + ["--format", "json"])
            payload = json.loads(capsys.readouterr().out)
            assert payload["name"] == name
            assert code == (0 if payload["holds"] else 1)
            assert main(head + ["--format", "csv"]) == code
            rows = capsys.readouterr().out.splitlines()
            assert rows[0] == "field,value" and f"holds,{payload['holds']}" in rows
            assert main(head + ["--format", "table"]) == code
            fields = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
            assert fields["name"] == name and fields["holds"] == str(payload["holds"])

    # the options each --input report reads, with the documented defaults
    # gamma = delta = r = 2, p = 0 and the "paper" g-bound
    REPORT_DEFAULTS = {"p": 0, "gamma": 2, "delta": 2, "r": 2, "g_variant": "paper"}
    OPTION_FLAGS = {
        "defaults": {},
        "p": {"p": "1"},
        "exponents": {"gamma": "3", "delta": "3/2"},
        "r": {"r": "3"},
        "tight": {"g_variant": "tight"},
    }

    @staticmethod
    def public_report(name, f, opts):
        """The public call behind ``ineq NAME --input`` at a = 0, t = 6, b = 8, mu = 5/2."""
        from nablafrac import (
            OpialParams,
            as_order,
            avg_sobolev_report,
            opial_corollary_25,
            opial_report,
            ostrowski_report,
            poincare_report,
            sobolev_report,
        )

        one = 1 if f.backend is Backend.EXACT else 1.0
        p, gamma, delta, r = int(opts["p"]), opts["gamma"], opts["delta"], opts["r"]
        if name == "opial":
            mu = as_order("5/2")
            params = OpialParams(
                mu=mu,
                p=p,
                gamma=gamma,
                delta=delta,
                inner_weights=GridFunction.constant(1, 6, one),
                outer_weights=GridFunction.constant(mu.m, 6, one),
            )
            return opial_report(f, 0, 6, params, opts["g_variant"])
        if name == "opial-25":
            return opial_corollary_25(f, 6)
        if name == "ostrowski":
            return ostrowski_report(f, 0, 8, "5/2", p)
        if name == "poincare":
            return poincare_report(f, 0, 8, "5/2", p, gamma, delta)
        if name == "sobolev":
            return sobolev_report(f, 0, 8, "5/2", p, gamma, delta, r)
        return avg_sobolev_report(f, 0, 8, ["5/2"], [GridFunction.constant(1, 8, one)], r)

    @pytest.mark.parametrize("option", sorted(OPTION_FLAGS))
    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_single_report_equals_the_public_call(self, tmp_path, backend, option):
        from nablafrac import FunctionSpec, gen_function
        from nablafrac.gridio import write_grid_csv

        f = gen_function(FunctionSpec(a=0, m=3, b=8, zero_initials_from=0, value_range=5, seed=11))
        path = tmp_path / "adm.csv"
        write_grid_csv(f, str(path))
        f = read_grid(str(path), backend=Backend(backend))
        given = self.OPTION_FLAGS[option]
        flags = [text for key, value in given.items() for text in (f"--{key.replace('_', '-')}", value)]
        opts = {**self.REPORT_DEFAULTS, **given}
        for name in INEQUALITY_SUITE_NAMES:
            point = ["--t", "6"] if name.startswith("opial") else ["--b", "8"]
            argv = ["ineq", name, "--input", str(path), "--a", "0", *point, "--mu", "5/2"]
            report = self.public_report(name, f, opts)
            want = render_report(report, "json").encode()
            got = in_process([*argv, "--backend", backend, *flags, "--format", "json"])
            assert got == ((0 if report.holds else 1), want, b""), (name, option)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["opial", "--a", "0", "--mu", "5/2", "--t", "2"], "window needs its end point >= 3, got 2"),
            (["avg-sobolev", "--a", "0", "--mu", "5/2", "--b", "0"], "window needs its end point >= 4, got 0"),
        ],
        ids=["opial", "avg-sobolev"],
    )
    def test_single_report_window_error_before_unit_weights(self, cube_csv, capsys, argv, message):
        code = main(["ineq", *argv, "--input", cube_csv])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_single_report_unknown_name_before_reading_the_file(self, tmp_path, capsys):
        code = main(["ineq", "nope", "--input", str(tmp_path / "missing.csv"), "--a", "0"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: unknown inequality suite 'nope'; pick one of " + ", ".join(INEQUALITY_SUITE_NAMES) + "\n"
        )

    def test_taylor_shift_and_json_output(self, cube_csv, capsys):
        from nablafrac import remainder_bound, taylor_extended

        f = read_grid(cube_csv)
        argv = ["--input", cube_csv, "--a", "0", "--mu", "5/2", "--t", "4", "--format", "json"]
        assert main(["taylor", *argv, "--p", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        want = taylor_extended(f, 0, Fraction(5, 2), 1, 4)
        assert payload == {
            "base": 0,
            "order": "5/2",
            "p": 1,
            "poly_part": format_scalar(want.poly_part),
            "remainder": format_scalar(want.remainder),
            "total": "37",  # ∇f(4) = 64 − 27
        }
        assert main(["bound", *argv, "--p", "1"]) == 0
        lhs, rhs = remainder_bound(f, 0, Fraction(5, 2), 1, 4)
        assert json.loads(capsys.readouterr().out) == {"lhs": format_scalar(lhs), "rhs": format_scalar(rhs)}

    def test_missing_flag_is_usage_error(self, ones_csv, capsys):
        code = main(["eval-sum", "--input", ones_csv, "--a", "0", "--t", "2"])
        assert code == 2
        assert "--nu" in capsys.readouterr().err

    def test_missing_input_file(self, capsys):
        code = main(["eval-sum", "--input", "/nonexistent.csv", "--a", "0", "--nu", "1/2", "--t", "2"])
        assert code == 2

    def test_float_gamma_overflow_is_exit_2(self, tmp_path, capsys):
        # the remainder coefficient Γ(2301.5)/(Γ(2000)·Γ(302.5)) exceeds the float range
        path = tmp_path / "zeros.csv"
        path.write_text("t,value\n" + "".join(f"{t},0\n" for t in range(-300, 2001)), encoding="utf-8")
        argv = ["bound", "--input", str(path), "--backend", "float", "--a", "0", "--mu", "601/2", "--t", "2000"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_report_float_overflow_is_exit_2(self, tmp_path, capsys):
        # exact values near 10^200 square beyond the double range in the float part
        path = tmp_path / "big.csv"
        rows = "".join(f"{t},{10**200 * max(t, 0)}\n" for t in range(-3, 11))
        path.write_text("t,value\n" + rows, encoding="utf-8")
        assert main(["ineq", "sobolev", "--input", str(path), "--a", "0", "--b", "10", "--mu", "5/2"]) == 2
        assert capsys.readouterr().err.startswith("error: a report value overflows the float range")

    def test_usage_error_from_argparse(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("values", ["5", '"123"', '{"1": 2}', "[1, NaN, 2]"])
    def test_malformed_json_grid_is_exit_2(self, tmp_path, capsys, values):
        path = tmp_path / "bad.json"
        path.write_text('{"lo": 0, "values": %s}' % values, encoding="utf-8")
        argv = ["eval-sum", "--input", str(path), "--a", "0", "--nu", "1/2", "--t", "0"]
        assert main(argv + ["--backend", "float"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "name, body",
        [("bad.csv", b"t,value\n0,1\xff\n"), ("bad.json", b'{"lo": 0, "values": ["\xff"]}')],
        ids=["csv", "json"],
    )
    def test_grid_file_not_utf8_is_exit_2(self, tmp_path, capsys, name, body):
        path = tmp_path / name
        path.write_bytes(body)
        argv = ["eval-sum", "--input", str(path), "--a", "0", "--nu", "1/2", "--t", "1"]
        for backend in ("exact", "float"):
            assert main(argv + ["--backend", backend]) == 2
            assert capsys.readouterr().err.startswith(f"error: grid file {str(path)!r} is not valid UTF-8")

    def test_cli_output_deterministic(self, capsys):
        argv = ["verify", "duality", "--trials", "8", "--seed", "5", "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_in_process_calls_are_independent(self, ones_csv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        good = ["eval-sum", "--input", ones_csv, "--a", "0", "--nu", "1/2", "--t", "2"]
        calls = [
            (good, 0),
            (["eval-sum", "--a", "x"], 2),
            (["ineq", "--help"], 0),
            (["eval-sum", "--input", ones_csv, "--a", "0", "--t", "2"], 2),
            (good, 0),
        ]
        for argv, code in calls:
            result = in_process(argv)
            assert result[0] == code
            assert result == one_shot(argv)

    def test_one_shot_float_call_prints_the_in_process_bytes(self, tmp_path):
        from nablafrac import FunctionSpec, gen_function

        f = gen_function(FunctionSpec(a=0, m=2, b=30, zero_initials_from=0, value_range=5, seed=3))
        path = tmp_path / "f.json"
        write_grid_json(f, str(path))
        for argv in (
            ["eval-sum", "--input", str(path), "--a", "0", "--nu", "3/7", "--t", "30"],
            ["ineq", "sobolev", "--input", str(path), "--a", "0", "--b", "30", "--mu", "3/2"],
        ):
            argv = argv + ["--backend", "float", "--format", "json"]
            code, out, err = one_shot(argv)
            assert code == 0 and out and not err
            assert (code, out, err) == in_process(argv)

    def test_each_command_takes_only_the_flags_it_reads(self, ones_csv, cube_csv):
        parser = build_parser()
        assert len(FLAGS) == 15 and sum(map(len, READS.values())) == 44
        heads = {  # a call that runs as it stands
            "eval-sum": ["--input", ones_csv, "--a", "0", "--nu", "1/2", "--t", "2"],
            "eval-caputo": ["--input", cube_csv, "--a", "1", "--mu", "5/2", "--t", "3"],
            "taylor": ["--input", cube_csv, "--a", "0", "--mu", "5/2", "--t", "3"],
            "bound": ["--input", cube_csv, "--a", "0", "--mu", "5/2", "--t", "3"],
            "verify": ["taylor", "--trials", "1"],
            "ineq": ["ostrowski", "--trials", "1"],
        }
        for command, reads in READS.items():
            head = [command, *heads[command]]
            assert in_process(head)[0] == 0
            for flag, (text, value) in FLAGS.items():
                if flag in reads:
                    args = parser.parse_args(head + [flag, text])
                    assert (args.command, getattr(args, flag[2:].replace("-", "_"))) == (command, value)
                else:
                    code, out, _ = in_process(head + [flag, text])
                    assert (code, out) == (2, b""), (command, flag)

    @pytest.mark.parametrize(
        "argv, err",
        [
            ("verify taylor --mu 5/2 --p 3 --trials 3", "unrecognized arguments: --mu 5/2 --p 3"),
            ("verify taylor --t 5", "unrecognized arguments: --t 5"),  # not read as --trials
            ("verify taylor --tr 3", "unrecognized arguments: --tr 3"),
            ("ineq sobolev --a 0 --trials 3", "error: a suite run does not read --a"),
            ("ineq sobolev --input F --a 0 --b 8 --mu 5/2 --trials 3", "report (--input) does not read --trials"),
            ("ineq opial --input F --a 0 --t 6 --mu 5/2 --seed 42", "report (--input) does not read --seed"),
        ],
    )
    def test_a_flag_the_call_does_not_read_is_refused(self, argv, err):
        code, out, got = in_process(argv.split())
        assert (code, out) == (2, b"")
        assert got.decode().splitlines()[-1].endswith(err)  # argparse prints a usage line first
