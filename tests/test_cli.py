import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fjump
from fjump import Ideal, RingContext, chains, parse_poly, testideals, verify
from fjump.cli import build_parser, main


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

    def test_jumps_cusp_large_prime(self, capsys):
        # each scan root raises f to a base-p digit up to 1008
        code, out, _ = run(capsys, "jumps", "-p", "1009", "-B", "1", "x^2+y^3")
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()] == ["5/6", "1"]


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

    def test_fpt_json(self, capsys):
        code, out, err = run(capsys, "fpt", "-p", "7", "--json", "x^2+y^3")
        assert code == 0 and err == ""
        assert out == '{\n  "p": 7,\n  "f": "y^3 + x^2",\n  "fpt": "5/6"\n}'

    def test_nilcmp_json(self, capsys):
        code, out, err = run(
            capsys, "nilcmp", "-p", "2", "--class", "1,1", "--class", "3,1", "--json", "x"
        )
        assert code == 0 and err == ""
        assert out == json.dumps(
            {
                "gamma": ["1", "3"],
                "gamma_order": "<",
                "representatives": [["1"], ["x^2"]],
                "representative_order": ">",
                "direction": "larger gamma gives smaller representative ideal",
            },
            indent=2,
        )

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

    def test_jumps_json_digest_over_the_tau_pool(self, capsys):
        # every distinct (p, vars, f) of the benchmark's tau pool, in sorted
        # order: the sha256 of the concatenated outputs pins all the answers
        pool = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "tau_pool.json"
        queries = json.loads(pool.read_text())["queries"]
        digest = hashlib.sha256()
        for p, names, f in sorted({(q["p"], tuple(q["vars"]), q["f"]) for q in queries}):
            code = main(["jumps", "-p", str(p), "--vars", ",".join(names), "-B", "2", "--json", f])
            assert code == 0, (p, names, f)
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest()[:16] == "6a16e324ec421bca"

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


class TestOneParserPerProcess:
    """main builds its parser once per process; no call sees another's arguments."""

    def test_usage_error_after_success(self, capsys):
        assert run(capsys, "tau", "-p", "2", "-c", "1", "x")[:2] == (0, "x")
        with pytest.raises(SystemExit) as err:
            main(["tau", "-p", "2", "x"])
        assert err.value.code == 2
        assert build_parser() is build_parser()

    def test_nilcmp_classes_do_not_accumulate(self, capsys):
        first = run(capsys, "nilcmp", "-p", "2", "--class", "1,1", "--class", "3,1", "x")
        second = run(capsys, "nilcmp", "-p", "2", "--class", "3,1", "--class", "1,1", "x")
        assert first[0] == second[0] == 0
        assert "gamma: 1 < 3" in first[1] and "gamma: 3 > 1" in second[1]

    def test_help_text_unchanged(self, capsys):
        expected = build_parser.__wrapped__().format_help()
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(["--help"])
            assert err.value.code == 0
            assert capsys.readouterr().out == expected


class TestColdStart:
    def test_import_loads_no_record_or_pool_machinery(self):
        # every command pays for what importing the CLI loads; the thread pool
        # is imported only by verify --jobs above 1. -S keeps site hooks out.
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import fjump, fjump.cli; "
            "print(*sorted(m for m in ('dataclasses', 'inspect', 'concurrent.futures') "
            "if m in sys.modules))"
        )
        src = str(Path(fjump.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, check=True
        )
        assert done.stdout.split() == []


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

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["tau", "-p", "2", "-c", "9" * 5000, "x"], "-c"),
            (["jumps", "-p", "2", "-B", "9" * 5000, "x"], "-B"),
            (["orbit", "-p", "3", "9" * 5000], "rational"),
        ],
        ids=["tau", "jumps", "orbit"],
    )
    def test_parse_error_overlong_rational(self, capsys, argv, name):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err == f"fjump: {name}: literal of 5000 characters is too long\n"

    def test_overlong_corpus_rational(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"p": 2, "f": "x", "B": "%s"}\n' % ("9" * 5000))
        code, _, err = run(capsys, "verify", "--corpus", str(path))
        assert code == 2
        assert err == (
            "fjump: corpus entry 0: B: literal of 5000 characters is too long\n"
        )

    def test_overlong_corpus_json_integer(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"p": 2, "f": "x", "B": 1}\n{"p": 2, "f": "x", "B": %s}\n' % ("9" * 5000))
        code, _, err = run(capsys, "verify", "--corpus", str(path))
        assert code == 2
        assert err == "fjump: corpus entry 1: a JSON integer is too long to convert\n"

    @pytest.mark.parametrize("p", ["4", "1", "65537"])
    def test_orbit_needs_prime(self, capsys, p):
        code, _, err = run(capsys, "orbit", "-p", p, "1/3")
        assert code == 2 and "prime" in err

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_orbit_modulus_below_one(self, capsys, m):
        code, out, err = run(capsys, "orbit", "-p", "3", "-m", m, "1/3")
        assert code == 2 and out == ""
        assert err == f"fjump: need a modulus m >= 1, got {m}\n"

    def test_orbit_too_large(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "orbit", "-p", "2", "-m", "1000000007", "1/3")
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert err == "fjump: orbit has more than 1048576 elements\n"

    def test_huge_period(self, capsys):
        # the period of 1/1000000007 in base 2 is the order of 2 mod 1000000007
        start = time.perf_counter()
        code, out, err = run(capsys, "tau", "-p", "2", "-c", "1/1000000007", "x^2+y^3")
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert err == "fjump: the order of 2 modulo 1000000007 exceeds 1048576\n"

    def test_long_period_answers(self, capsys):
        # a period of 100002 digits under the cap: each Phi step walks that
        # many root levels, peeling the digits a word at a time
        start = time.perf_counter()
        code, out, _ = run(capsys, "tau", "-p", "2", "-c", "1/100003", "x^2+y^3")
        assert time.perf_counter() - start < 2
        assert code == 0 and out == "1"

    @pytest.mark.parametrize("command", ["tau -c", "jumps -B"])
    def test_huge_exponent_budget(self, capsys, command):
        # f^(10^300) past the root levels would fill memory before it is built
        start = time.perf_counter()
        code, out, err = run(capsys, *command.split(), "1" + "0" * 300, "-p", "2", "x^2+y^3")
        assert time.perf_counter() - start < 2
        assert code == 4 and out == ""
        assert err == "fjump: expanding f^n: its term bound exceeds 1048576\n"

    @pytest.mark.parametrize("command", ["tau -c 1/2", "jumps -B 1"])
    def test_dense_digit_power_budget(self, capsys, command):
        # five exponents in three variables have dependent differences, so the
        # digit steps build f^d: at p=1009 both take f^504 or f^505, whose term
        # bound C(1515, 3) or more passes 2^20 (a scan root is at r = 504). f
        # has degree 3 in x and 504*3 >= 1009: no unit root from degrees
        start = time.perf_counter()
        code, out, err = run(capsys, *command.split(), "-p", "1009", "x^3+y+z+x*y+1")
        assert time.perf_counter() - start < 2
        assert code == 4 and out == "" and "expanding f" in err

    def test_unit_root_from_degrees(self, capsys):
        # f = (1+x)(1+y) + z has dependent differences, but d*deg_v f < p in
        # every variable v for every digit d, so each step's root is <1> before
        # f^d is built: its fpt is 1
        start = time.perf_counter()
        code, out, _ = run(capsys, "fpt", "-p", "101", "x+y+z+x*y+1")
        assert time.perf_counter() - start < 2
        assert code == 0 and out == "1"

    @pytest.mark.parametrize(
        ("command", "answer"), [("tau -c 1/2", "1"), ("jumps -B 1", "1: 1 -> x + y + z + 1")]
    )
    def test_independent_differences_answer(self, capsys, command, answer):
        # the differences of x, y, z and 1 are independent mod p: the digit
        # steps on monomial states come from exponents, with no power of f
        start = time.perf_counter()
        code, out, _ = run(capsys, *command.split(), "-p", "1009", "x+y+z+1")
        assert time.perf_counter() - start < 2
        assert code == 0 and out == answer

    def test_independent_differences_budget(self, capsys):
        # at p=65521 a Phi step splits d = 32761 over three terms, about
        # 5.4*10^8 ways: refused before any is enumerated
        start = time.perf_counter()
        code, out, err = run(capsys, "tau", "-c", "1/2", "-p", "65521", "x+y+z+1")
        assert time.perf_counter() - start < 1
        assert code == 4 and out == "" and "expanding f" in err

    def test_dense_power_is_expanded(self, capsys):
        # C(29, 9) splits of 20 over 10 terms, but f^20 has only 181 terms
        f = "+".join(f"{i + 1}*x^{i}" for i in range(10))
        code, out, _ = run(capsys, "tau", "-p", "101", "-c", "20", f)
        assert code == 0 and out == str(parse_poly(f, RingContext(101, ("x",))) ** 20)

    def test_huge_exponent_of_monomial(self, capsys):
        # a monomial's power has one term, so it is not refused
        code, out, _ = run(capsys, "tau", "-p", "2", "-c", "1" + "0" * 300, "x")
        assert code == 0 and out == "x^1" + "0" * 300

    def test_huge_frobenius_level(self, capsys):
        # p^e is never formed past the bit length of the largest exponent
        start = time.perf_counter()
        code, out, _ = run(capsys, "froot", "-p", "2", "-e", "100000000000", "x")
        assert time.perf_counter() - start < 1
        assert code == 0 and out == "1"

    def test_chain_beta_past_cap(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "chain", "-p", "2", "-a", "1", "-b", "1048577", "x")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == "fjump: need beta <= 1048576, got 1048577\n"

    def test_chain_beta_at_cap(self, capsys):
        # past the first digit 1 each of the 2^20 steps maps <1> to itself
        start = time.perf_counter()
        code, out, _ = run(capsys, "chain", "-p", "2", "-a", "1", "-b", "1048576", "x")
        assert time.perf_counter() - start < 1
        assert code == 0 and out == "C_1 = 1\nC_2 = 1\nstab_index = 1"

    def test_nilcmp_gamma_too_long_to_print(self, capsys, monkeypatch):
        # refused before either chain is taken
        monkeypatch.setattr(chains, "chain", None)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "nilcmp", "-p", "2", "--class", "1,20000", "--class", "1,1", "x"
        )
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == "fjump: --class 1,20000: gamma has over 4300 digits\n"

    @pytest.mark.parametrize(
        ("cls", "code"),
        [("1,14284", 0), ("1,14285", 2), (f"{2**10000 + 1},20000", 0)],
        ids=["at_limit", "past_limit", "common_factor"],
    )
    def test_nilcmp_gamma_print_limit(self, capsys, cls, code):
        # 2^14284 - 1 has 4300 digits and 2^14285 - 1 has 4301; the factor a
        # shares with 2^20000 - 1 leaves gamma = 1/(2^10000 - 1), 3011 digits
        got, _, err = run(capsys, "nilcmp", "-p", "2", "--class", cls, "--class", "1,1", "x")
        assert got == code, err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_fpt_unresolved_at_depth(self, capsys, json_flag):
        # at depth 1 the interval below the smallest jump of x^5+y^7 stays open
        code, out, err = run(capsys, "fpt", "-p", "2", "--depth", "1", *json_flag, "x^5+y^7")
        assert code == 4 and out == ""
        assert err == "fjump: smallest jump not resolved at this depth; increase --depth\n"

    def test_parse_error_rational(self, capsys):
        code, _, err = run(capsys, "tau", "-p", "2", "-c", "0.5", "x")
        assert code == 3

    def test_budget_exceeded(self, capsys, monkeypatch):
        monkeypatch.setattr(testideals, "PHI_STEP_BUDGET", 0)
        code, _, err = run(capsys, "tau", "-p", "2", "-c", "2/3", "x+y^3")
        assert code == 4 and "stabilize" in err

    def test_internal_error_total_order(self, capsys, monkeypatch):
        def incomparable(n1, n2):
            raise chains.TotalOrderViolation("representatives are not comparable")

        monkeypatch.setattr(chains, "nil_compare", incomparable)
        code, out, err = run(
            capsys, "nilcmp", "-p", "2", "--class", "1,1", "--class", "3,1", "x"
        )
        assert code == 1 and out == ""
        assert err == "fjump: internal error: representatives are not comparable\n"

    def test_internal_error_assertion(self, capsys, monkeypatch):
        # a left limit that fails to contain tau trips the kernel's own check
        monkeypatch.setattr(
            testideals, "tau_left_limit", lambda f, c: Ideal(f.ctx, (f**4,))
        )
        code, out, err = run(capsys, "jumps", "-p", "2", "-B", "1", "x")
        assert code == 1 and out == ""
        assert err.startswith("fjump: internal error: tau left limit fails to contain")
        assert err.endswith("this is a bug\n") and err.count("\n") == 1

    def test_verify_depth_zero(self, capsys):
        code, out, err = run(capsys, "verify", "--depth", "0")
        assert code == 2 and "depth" in err and out == ""

    def test_verify_failure(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"p": 2, "f": "x", "B": "1", "expect_jumps": ["1/2"]}\n')
        code, out, _ = run(capsys, "verify", "--corpus", str(path))
        assert code == 5
        assert "verification failed" in out

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_verify_jobs_below_one(self, capsys, monkeypatch, jobs):
        # refused before any entry is checked
        monkeypatch.setattr(verify, "_check_entry", None)
        code, out, err = run(capsys, "verify", "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == f"fjump: need jobs >= 1, got {jobs}\n"

    @pytest.mark.parametrize(
        ("bound", "value"), [('"0"', "0"), ('"-1/2"', "-1/2"), ("0", "0")], ids=["0", "-1/2", "int"]
    )
    def test_corpus_bound_not_positive(self, capsys, tmp_path, bound, value):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"p": 2, "f": "x", "B": "1"}\n{"p": 2, "f": "x", "B": %s}\n' % bound)
        code, out, err = run(capsys, "verify", "--corpus", str(path))
        assert code == 2 and out == ""
        assert err == f"fjump: corpus entry 1: B: need a positive bound, got {value}\n"

    @pytest.mark.parametrize(
        ("p", "f"),
        [(2, "x+x"), (3, "3*x*y"), (2, "2x+3"), (5, "4"), (5, "0")],
        ids=["zero", "zero_mod_3", "unit", "unit_no_variable", "zero_no_variable"],
    )
    def test_corpus_f_zero_or_unit(self, capsys, tmp_path, p, f):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"p": %d, "f": "%s", "B": "1"}\n' % (p, f))
        code, out, err = run(capsys, "verify", "--corpus", str(path))
        assert code == 2 and out == ""
        assert err == f"fjump: corpus entry 0: f: {f!r} is zero or a unit mod {p}\n"

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
