import io
import json
import sys

import pytest

from fjump import testideals
from fjump.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


class TestGoldenExamples:
    def test_froot(self, capsys):
        code, out, _ = run(capsys, "froot", "-p", "2", "-e", "1", "x^2+y^3")
        assert code == 0 and out == "x, y"

    def test_fpt(self, capsys):
        code, out, _ = run(capsys, "fpt", "-p", "7", "x^2+y^3")
        assert code == 0 and out == "5/6"

    def test_tau(self, capsys):
        code, out, _ = run(capsys, "tau", "-p", "2", "-c", "1", "x")
        assert code == 0 and out == "x"

    def test_tau_cusp_large_prime(self, capsys):
        # one Frobenius root on the way has 1682 monomial generators
        code, out, _ = run(capsys, "tau", "-p", "1009", "-c", "5/6", "x^2+y^3")
        assert code == 0 and out == "x, y"


class TestJsonOutput:
    def test_froot_json(self, capsys):
        code, out, _ = run(capsys, "froot", "-p", "2", "--json", "x^2+y^3")
        obj = json.loads(out)
        assert code == 0
        assert obj == {"p": 2, "e": 1, "f": "y^3 + x^2", "generators": ["x", "y"]}

    def test_jumps_json_schema(self, capsys):
        code, out, _ = run(capsys, "jumps", "-p", "7", "-B", "1", "--json", "x^2+y^3")
        obj = json.loads(out)
        assert code == 0
        assert set(obj) == {"jumps", "unresolved"}
        assert obj["jumps"][0] == {"c": "5/6", "tau_left": ["1"], "tau_at": ["x", "y"]}
        assert obj["unresolved"] == []

    def test_tau_json(self, capsys):
        code, out, _ = run(capsys, "tau", "-p", "7", "-c", "5/6", "--json", "x^2+y^3")
        obj = json.loads(out)
        assert obj["c"] == "5/6" and obj["generators"] == ["x", "y"]

    def test_orbit_json(self, capsys):
        code, out, _ = run(capsys, "orbit", "-p", "2", "--json", "1/3")
        obj = json.loads(out)
        assert obj["orbit"] == ["1/3", "2/3"]
        assert obj["entry_index"] == 0 and obj["cycle_length"] == 2

    def test_orbit_with_modulus(self, capsys):
        code, out, _ = run(capsys, "orbit", "-p", "2", "-m", "5", "--json", "1/3")
        obj = json.loads(out)
        assert code == 0
        assert obj["orbit"] == ["1/3", "2/3", "4/3", "8/3"]

    def test_orbit_out_of_range(self, capsys):
        code, _, err = run(capsys, "orbit", "-p", "2", "-m", "1", "7/3")
        assert code == 2

    def test_chain_json(self, capsys):
        code, out, _ = run(capsys, "chain", "-p", "2", "-a", "3", "-b", "1", "--json", "x")
        obj = json.loads(out)
        assert obj["terms"] == [["x"], ["x^2"], ["x^2"]]
        assert obj["stab_index"] == 2


class TestTextOutput:
    def test_jumps_text(self, capsys):
        code, out, _ = run(capsys, "jumps", "-p", "7", "-B", "1", "x^2+y^3")
        assert code == 0
        assert out.splitlines() == ["5/6: 1 -> x, y", "1: x, y -> y^3 + x^2"]

    def test_chain_text(self, capsys):
        code, out, _ = run(capsys, "chain", "-p", "2", "-a", "3", "-b", "1", "x")
        assert "stab_index = 2" in out

    def test_nilcmp(self, capsys):
        code, out, _ = run(
            capsys, "nilcmp", "-p", "2", "--class", "1,1", "--class", "3,1", "x"
        )
        assert code == 0
        assert "gamma: 1 < 3" in out
        assert "representatives: 1 > x^2" in out

    def test_vars_override(self, capsys):
        code, out, _ = run(capsys, "froot", "-p", "2", "--vars", "x,y,z", "x^2+y^3")
        assert code == 0 and out == "x, y"


class TestExitCodes:
    def test_usage_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["froot", "-p", "2", "--bogus", "x"])
        assert err.value.code == 2

    def test_usage_invalid_prime(self, capsys):
        code, _, err = run(capsys, "froot", "-p", "6", "x")
        assert code == 2 and "prime" in err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "froot", "-p", "2", "x +")
        assert code == 3 and "parse" in err.lower()

    def test_parse_error_non_ascii_digit(self, capsys):
        code, _, err = run(capsys, "froot", "-p", "2", "x^²")
        assert code == 3 and "line 1, column 3" in err

    @pytest.mark.parametrize(
        "text", ["x^" + "9" * 5000, "9" * 5000 + "x"], ids=["exponent", "coefficient"]
    )
    def test_parse_error_overlong_literal(self, capsys, text):
        code, _, err = run(capsys, "froot", "-p", "2", text)
        assert code == 3 and "too long" in err

    @pytest.mark.parametrize("p", ["4", "1", "65537"])
    def test_orbit_needs_prime(self, capsys, p):
        code, _, err = run(capsys, "orbit", "-p", p, "1/3")
        assert code == 2 and "prime" in err

    def test_parse_error_rational(self, capsys):
        code, _, err = run(capsys, "tau", "-p", "2", "-c", "0.5", "x")
        assert code == 3

    def test_budget_exceeded(self, capsys, monkeypatch):
        monkeypatch.setattr(testideals, "PHI_STEP_BUDGET", 0)
        code, _, err = run(capsys, "tau", "-p", "2", "-c", "2/3", "x+y^3")
        assert code == 4 and "stabilize" in err

    def test_verify_depth_zero(self, capsys):
        code, out, err = run(capsys, "verify", "--depth", "0")
        assert code == 2 and "depth" in err and out == ""

    def test_verify_failure(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"p": 2, "f": "x", "B": "1", "expect_jumps": ["1/2"]}\n')
        code, out, _ = run(capsys, "verify", "--corpus", str(path))
        assert code == 5
        assert "verification failed" in out

    def test_missing_corpus_file(self, capsys):
        code, _, err = run(capsys, "verify", "--corpus", "/nonexistent.jsonl")
        assert code == 2

    def test_nilcmp_wrong_class_count(self, capsys):
        code, _, err = run(capsys, "nilcmp", "-p", "2", "--class", "1,1", "x")
        assert code == 2

    def test_closed_stdout(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["jumps", "-p", "5", "-B", "3", "x^2+y^3"])
        assert code == 0 and capsys.readouterr().err == ""


class TestVerifyCommand:
    def test_verify_ok(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"p": 2, "f": "x", "B": "2", "expect_jumps": ["1", "2"]}\n'
            '{"p": 3, "f": "x*y", "B": "1", "expect_jumps": ["1"]}\n'
        )
        code, out, _ = run(capsys, "verify", "--corpus", str(path))
        assert code == 0
        assert "all checks passed" in out

    def test_verify_json(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"p": 2, "f": "x", "B": "1", "expect_jumps": ["1"]}\n')
        code, out, _ = run(capsys, "verify", "--json", "--corpus", str(path))
        obj = json.loads(out)
        assert code == 0 and obj["passed"] is True
        assert obj["entries"][0]["checks"][0]["name"] == "expected_jumps"
