import csv
import json
import os

import pytest

from cablejones import asympt, bracket, jones
from cablejones.cli import main
from cablejones.laurent import ComputationError, LaurentPoly, NotDivisible


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJonesCommand:
    def test_trefoil_text(self, capsys):
        code, out, _ = run(capsys, "jones", "--expr", "cable(2,3;1;unknot)",
                           "--colors", "2")
        assert code == 0
        assert out.strip() == "A^16 + A^12 + A^8 - 1"

    def test_normalized(self, capsys):
        code, out, _ = run(capsys, "jones", "--expr", "cable(2,3;1;unknot)",
                           "--colors", "2", "--normalized")
        assert code == 0
        assert out.strip() == "A^14 + A^6 - A^2"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "jones", "--expr", "cable(2,3;1;unknot)",
                           "--colors", "2", "--json")
        assert code == 0
        poly = LaurentPoly.from_json_dict(json.loads(out))
        assert poly == LaurentPoly.from_terms([(16, 1), (12, 1), (8, 1), (0, -1)])

    def test_normalized_when_the_quantum_integer_does_not_divide(self, capsys):
        argv = ("jones", "--expr", "cable(2,3;1;unknot)", "--colors", "2",
                "--normalized", "--split-mult", "2")
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, "[2]^1 does not divide; use `eval` for the limit value\n")
        code, out, _ = run(capsys, *argv, "--json")
        assert (code, out) == (0, '{"deferred": true, "numerator": {"variable": "A", '
                                  '"terms": [[14, "1"], [6, "1"], [2, "-1"]]}, '
                                  '"divisor_color": 2, "divisor_power": 1}\n')


class TestTrinomialCommand:
    def test_table_lines(self, capsys):
        code, out, _ = run(capsys, "trinomial", "--colors", "3,3")
        assert code == 0
        assert out.splitlines() == ["-4 : 1", "-2 : 2", "0 : 3", "2 : 2", "4 : 1"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "trinomial", "--colors", "3,3", "--json")
        data = json.loads(out)
        assert data == {"m": [-4, -2, 0, 2, 4], "C": ["1", "2", "3", "2", "1"]}


class TestEvalCommand:
    def test_unknot(self, capsys):
        code, out, _ = run(capsys, "eval", "--expr", "unknot",
                           "--color-all", "17")
        assert code == 0
        assert out.strip() == "1+0i"

    def test_split_multiplicity_at_color_one(self, capsys):
        # [1] = 1, so any split multiplicity prints the --split-mult 1 value.
        outs = [run(capsys, "eval", "--expr", "cable(0,3;1;unknot)", "--color-all", "1",
                    "--split-mult", k) for k in ("1", "3")]
        assert outs[0] == outs[1] == (0, "1+0i\n", "")


    def test_connected_sum_is_the_product_of_its_factors(self, capsys):
        # The product numerator at N = 2048 would take 0.6 s and 570 MB.
        values = []
        for text in ("cable(2,3;1;unknot)", "cable(2,5;1;unknot)",
                     "connsum(cable(2,3;1;unknot),1;cable(2,5;1;unknot),1)"):
            code, out, _ = run(capsys, "eval", "--expr", text, "--color-all", "2048", "--json")
            assert code == 0
            data = json.loads(out)
            values.append(complex(data["re"], data["im"]))
        assert values[2] == pytest.approx(values[0] * values[1], rel=1e-12)

class TestGrowthCommand:
    def test_stdout_table(self, capsys):
        code, out, _ = run(capsys, "growth", "--expr", "unknot", "--n", "2:8:x2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,maxdeg,mindeg,maxabscoeff,abs_eval,vc_value"
        assert len(lines) == 4
        assert lines[1].startswith("2,2,-2,1,")

    def test_sweep_from_one(self, capsys):
        code, out, _ = run(capsys, "growth", "--expr", "unknot", "--n", "1:4:x2")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1", "2", "4"]

    def test_csv_file(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code, _, _ = run(capsys, "growth", "--expr", "cable(2,3;1;unknot)",
                         "--n", "4,8", "--csv", str(path))
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "maxdeg", "mindeg", "maxabscoeff",
                           "abs_eval", "vc_value"]
        assert [r[0] for r in rows[1:]] == ["4", "8"]

    def test_unwritable_csv_is_usage_before_any_row(self, capsys, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("rows computed before the path was opened")

        monkeypatch.setattr(asympt, "growth_table", no_rows)
        for path in ("/nonexistent/dir/x.csv", "."):
            code, out, err = run(capsys, "growth", "--expr", "cable(2,3;1;unknot)",
                                 "--n", "4,8", "--csv", path)
            assert (code, out) == (2, "")
            assert err.startswith("ValueError: cannot write") and err.count("\n") == 1

    def test_threads_flag_and_env(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "growth", "--expr", "unknot",
                           "--n", "2,4,8", "--threads", "2")
        assert code == 0
        code, out2, _ = run(capsys, "growth", "--expr", "unknot", "--n", "2,4,8")
        assert code == 0
        assert out == out2
        # --threads is the only knob: the old CJP_THREADS variable is not read.
        monkeypatch.setenv("CJP_THREADS", "not-a-number")
        code, out3, _ = run(capsys, "growth", "--expr", "unknot", "--n", "2,4,8")
        assert (code, out3) == (0, out)


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "symfun")
        assert code == 0
        assert "symfun  pass" in out

    def test_bracket_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bracket")
        assert code == 0
        assert "pass" in out
        # The engine frames cable(r,s;1;unknot) by r*s: shifts are 3rs.
        for line in ("cable(2,3;1;unknot): sign +1, shift 18",
                     "cable(2,5;1;unknot): sign +1, shift 30",
                     "cable(3,4;1;unknot): sign +1, shift 36",
                     "cable(-1,2;1;cable(3,2;1;unknot)): sign +1, shift 66",
                     "cable(1,3;1;cable(3,2;1;unknot)): sign +1, shift 171"):
            assert line in out.splitlines()


class TestExitCodes:
    def test_parse_error_is_usage(self, capsys):
        code, _, err = run(capsys, "jones", "--expr", "cable(2;3;1;unknot)",
                           "--colors", "2")
        assert code == 2
        assert "ExprSyntaxError" in err

    @pytest.mark.parametrize("text, message", [
        ("cable(\u00b2,3;1;unknot)", "expected an integer"),
        ("twist(" + "1" * 5000 + ";1;unknot)", "integer has too many digits"),
    ], ids=["superscript two", "5000 digits"])
    def test_integer_that_int_rejects_is_a_syntax_error(self, capsys, text, message):
        code, out, err = run(capsys, "jones", "--expr", text, "--colors", "2")
        assert (code, out) == (2, "")
        assert err == f"ExprSyntaxError: {message} (at position 6)\n"

    def test_too_deep_expression_is_usage(self, capsys):
        text = "twist(1;1;" * 2000 + "unknot" + ")" * 2000
        code, _, err = run(capsys, "jones", "--expr", text, "--colors", "2")
        assert code == 2
        assert "ExpressionTooDeep" in err and "Traceback" not in err

    def test_color_arity_is_usage(self, capsys):
        code, _, err = run(capsys, "jones", "--expr", "cable(2,2;1;unknot)",
                           "--colors", "2")
        assert code == 2
        assert "ColorArityMismatch" in err

    @pytest.mark.parametrize("argv, error", [
        (("jones", "--expr", "cable(2,0;1;unknot)", "--colors", "2"), "BadCableParams"),
        (("jones", "--expr", "cable(2,3;2;unknot)", "--colors", "2"), "BadComponentIndex"),
        (("jones", "--expr", "unknot", "--colors", "0"), "NonPositiveColor"),
    ])
    def test_input_errors_are_usage(self, capsys, argv, error):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert error in err and "Traceback" not in err

    def test_bad_color_list_is_usage(self, capsys):
        code, out, err = run(capsys, "jones", "--expr", "unknot", "--colors", "2,x")
        assert (code, out) == (2, "")
        assert err == "ValueError: bad color list '2,x'; expected e.g. 2,2,3\n"

    def test_bad_range_is_usage(self, capsys):
        for sweep in ("8:4:x2", "0:4:x2", "2:8:x1"):
            code, _, err = run(capsys, "growth", "--expr", "unknot", "--n", sweep)
            assert code == 2 and f"bad range '{sweep}'" in err
        code, out, err = run(capsys, "growth", "--expr", "unknot", "--n", "2:8:y2")
        assert (code, out) == (2, "")
        assert err == "ValueError: bad range '2:8:y2'; expected a:b:x2\n"

    def test_counts_below_one_are_usage(self, capsys):
        for argv in (("growth", "--expr", "unknot", "--n", "2,4", "--threads", "0"),
                     ("growth", "--expr", "unknot", "--n", "2,4", "--threads", "-3"),
                     ("eval", "--expr", "unknot", "--color-all", "2", "--split-mult", "0"),
                     ("growth", "--expr", "unknot", "--n", "2", "--split-mult", "-1"),
                     ("jones", "--expr", "unknot", "--colors", "2", "--normalized",
                      "--split-mult", "0")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert "ValueError" in err

    def test_split_mult_without_normalized_is_usage(self, capsys):
        # J itself takes no split multiplicity, not even the default one.
        for k in ("5", "1", "0"):
            code, out, err = run(capsys, "jones", "--expr", "cable(2,3;1;unknot)",
                                 "--colors", "2", "--split-mult", k)
            assert (code, out) == (2, "")
            assert err == "ValueError: --split-mult needs --normalized\n"

    def test_out_of_memory_is_computation_error(self, capsys, monkeypatch):
        # As numpy fails on a table of 10^11 entries, allocating nothing here.
        def fail(colors):
            raise MemoryError("Unable to allocate 745. GiB for an array")
        monkeypatch.setattr(jones, "trinomial_table", fail)
        code, out, err = run(capsys, "jones", "--expr", "cable(2,3;1;unknot)",
                             "--colors", "100000000000")
        assert (code, out) == (1, "")
        assert err == "MemoryError: Unable to allocate 745. GiB for an array\n"

    def test_divergent_limit_is_computation_error(self, capsys):
        code, _, err = run(capsys, "eval", "--expr", "cable(0,2;1;unknot)",
                           "--color-all", "2", "--split-mult", "3")
        assert code == 1
        assert "DivergentLimit" in err

    def test_lattice_past_int64_is_out_of_memory(self, capsys):
        # A twist of 2^70 spreads the numerator over more than 2^63 steps of
        # A^4: J and a connected sum above it are refused, while the value
        # and the growth row, which need no lattice indices, still come out.
        knot = "cable(2,3;1;twist(1180591620717411303424;1;cable(2,5;1;unknot)))"
        for argv in (("jones", "--expr", knot, "--colors", "16"),
                     ("growth", "--expr", f"connsum({knot},1;cable(2,3;1;unknot),1)",
                      "--n", "4")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("MemoryError: a numerator spanning ")
            assert err.count("\n") == 1
        code, out, _ = run(capsys, "eval", "--expr", knot, "--color-all", "16")
        assert (code, out) == (0, "2.30523236864e+23+3.50442277793e+21i\n")
        code, out, _ = run(capsys, "growth", "--expr", knot, "--n", "16")
        assert code == 0 and out.splitlines()[1].startswith("16,")

    def test_closed_output_pipe_exits_one_quietly(self, capsys, monkeypatch, tmp_path):
        # As when the reader of a pipe closes it: every write fails.  What is
        # left in the buffer then goes to devnull, not to the closed pipe.
        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fd

        with open(tmp_path / "pipe", "w") as fh:
            monkeypatch.setattr("sys.stdout", ClosedPipe(fh.fileno()))
            code = main(["growth", "--expr", "unknot", "--n", "2,4"])
            monkeypatch.undo()
            assert code == 1
            assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
        assert capsys.readouterr().err == ""

    def test_unknown_subcommand_is_usage(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    def test_missing_required_flag_is_usage(self, capsys):
        assert run(capsys, "jones", "--colors", "2")[0] == 2

    @pytest.mark.parametrize("error, base", [
        (NotDivisible, ArithmeticError),
        (asympt.DivergentLimit, ArithmeticError),
        (asympt.DepthExceeded, ArithmeticError),
        (asympt.InsufficientData, ValueError),
        (bracket.TooManyStrands, ValueError),
    ])
    def test_computation_errors_share_one_base(self, error, base):
        exc = error("x")
        assert isinstance(exc, ComputationError) and isinstance(exc, base)
