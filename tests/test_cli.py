import csv
import json

from cablejones.cli import main
from cablejones.laurent import LaurentPoly


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


class TestGrowthCommand:
    def test_stdout_table(self, capsys):
        code, out, _ = run(capsys, "growth", "--expr", "unknot", "--n", "2:8:x2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,maxdeg,mindeg,maxabscoeff,abs_eval,vc_value"
        assert len(lines) == 4
        assert lines[1].startswith("2,2,-2,1,")

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

    def test_threads_flag_and_env(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "growth", "--expr", "unknot",
                           "--n", "2,4,8", "--threads", "2")
        assert code == 0
        monkeypatch.setenv("CJP_THREADS", "2")
        code, out2, _ = run(capsys, "growth", "--expr", "unknot", "--n", "2,4,8")
        assert code == 0
        assert out == out2


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "symfun",
                           "--max-g", "2", "--max-color", "3", "--max-p", "2")
        assert code == 0
        assert "symfun  pass" in out

    def test_bracket_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bracket")
        assert code == 0
        assert "pass" in out


class TestExitCodes:
    def test_parse_error_is_usage(self, capsys):
        code, _, err = run(capsys, "jones", "--expr", "cable(2;3;1;unknot)",
                           "--colors", "2")
        assert code == 2
        assert "ExprSyntaxError" in err

    def test_color_arity_is_usage(self, capsys):
        code, _, err = run(capsys, "jones", "--expr", "cable(2,2;1;unknot)",
                           "--colors", "2")
        assert code == 2
        assert "ColorArityMismatch" in err

    def test_bad_range_is_usage(self, capsys):
        code, _, err = run(capsys, "growth", "--expr", "unknot", "--n", "8:4:x2")
        assert code == 2

    def test_divergent_limit_is_computation_error(self, capsys):
        code, _, err = run(capsys, "eval", "--expr", "cable(0,2;1;unknot)",
                           "--color-all", "2", "--split-mult", "3")
        assert code == 1
        assert "DivergentLimit" in err

    def test_vanishing_invariant_is_computation_error(self, capsys, monkeypatch):
        import cablejones.asympt as asympt
        monkeypatch.setattr(asympt, "colored_jones",
                            lambda e, colors, memo=None: LaurentPoly.zero())
        code, _, err = run(capsys, "growth", "--expr", "unknot", "--n", "2,4")
        assert code == 1
        assert "VanishingInvariant" in err

    def test_unknown_subcommand_is_usage(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    def test_missing_required_flag_is_usage(self, capsys):
        assert run(capsys, "jones", "--colors", "2")[0] == 2
