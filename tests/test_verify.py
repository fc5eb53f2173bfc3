import hashlib
import json
import random
from fractions import Fraction

import pytest

from fjump import Corpus, chains, default_corpus, enumerate_jumps, load_corpus, run_suite, testideals
from fjump.verify import _random_rational_between, parse_rational

# (p, f, digest of every jump with its two witness ideals) for each entry of
# the built-in corpus, recorded before the tau path memoized its Phi traces,
# values and containments per digit table; the suite's stable hash only sees
# whether each check passed
CORPUS_ANSWERS = [
    (2, "x", "6d2d0955470243af"),
    (2, "x*y", "ab239ee26ab3884a"),
    (2, "x^2y^3", "ee6e97691ff3aac1"),
    (2, "x^2+y^3", "4063688f23235381"),
    (2, "x^3+y^3", "29ae5fc523e88975"),
    (3, "x", "bd650bce5ccc6c2d"),
    (3, "x*y^2", "2bd4e37c5236d12f"),
    (3, "x^2+y^3", "cf6ba8b0b15c2acc"),
    (3, "x^2", "5b8087b012426bb0"),
    (5, "x^2+y^3", "6f0cc35095444b40"),
    (5, "x^3", "255e4c2202f8764f"),
    (5, "x*y", "e515ad00a9f9d33f"),
    (7, "x^2+y^3", "d7dbb02a5621c429"),
    (7, "x", "c91426bc5d7a200f"),
]


def _answer_digest(report) -> str:
    lines = [
        f"{j.c}: {', '.join(j.tau_left.generator_strings())} | {', '.join(j.tau_at.generator_strings())}"
        for j in report.jumps
    ]
    lines += [f"unresolved {lo} {hi}" for lo, hi in report.unresolved]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


class TestParseRational:
    def test_forms(self):
        from fractions import Fraction

        assert parse_rational("5/6") == Fraction(5, 6)
        assert parse_rational("3") == 3
        assert parse_rational(2) == 2

    @pytest.mark.parametrize("bad", ["1.5", "1e3", "a/b", "", None, 2.5, "1/2/3", "1/0"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("bad", ["١/٢", "²", "--1", "1 / 2", True, False])
    def test_rejects_non_ascii_and_bool(self, bad):
        with pytest.raises(ValueError, match="not an exact rational"):
            parse_rational(bad)

    @pytest.mark.parametrize(
        "bad", ["9" * 5000, "1/" + "7" * 4999], ids=["numerator", "denominator"]
    )
    def test_overlong(self, bad):
        # more digits than int() converts by default
        with pytest.raises(ValueError) as err:
            parse_rational(bad, "-c")
        assert str(err.value) == f"-c: literal of {len(bad)} characters is too long"


class TestCorpus:
    def test_default_shape(self):
        corpus = default_corpus()
        assert len(corpus.entries) >= 12
        assert {e.p for e in corpus.entries} == {2, 3, 5, 7}

    def test_load_default(self):
        assert len(load_corpus(None).entries) == len(default_corpus().entries)

    def test_load_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"p": 2, "f": "x", "B": "1", "expect_jumps": ["1"]}\n'
            '\n'
            '{"p": 3, "f": "x*y", "B": 1}\n'
        )
        corpus = load_corpus(str(path))
        assert len(corpus.entries) == 2
        assert corpus.entries[0].expect_jumps == (1,)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no entries"):
            load_corpus(str(path))

    def test_bad_polynomial_names_entry(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"p": 2, "f": "x", "B": "1"}\n{"p": 2, "f": "x +", "B": "1"}\n')
        with pytest.raises(ValueError, match="entry 1"):
            load_corpus(str(path))

    def test_bad_prime_names_entry(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"p": 4, "f": "x", "B": "1"}\n')
        with pytest.raises(ValueError, match="entry 0"):
            load_corpus(str(path))

    def test_bool_bound(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"p": 2, "f": "x", "B": true}\n')
        with pytest.raises(ValueError, match="entry 0: B: not an exact rational"):
            load_corpus(str(path))

    @pytest.mark.parametrize("expect", ['"15"', '{"1": 0}', "1"])
    def test_expect_jumps_must_be_list(self, tmp_path, expect):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"p": 2, "f": "x", "B": "1", "expect_jumps": %s}\n' % expect)
        with pytest.raises(ValueError, match="expect_jumps must be a list"):
            load_corpus(str(path))

    @pytest.mark.parametrize("key", ["B", "expect_jumps"])
    def test_overlong_rational_names_field(self, tmp_path, key):
        long = '"%s"' % ("9" * 5000)
        row = {"B": f'"B": {long}', "expect_jumps": f'"B": "1", "expect_jumps": ["1", {long}]'}
        path = tmp_path / "bad.jsonl"
        path.write_text('{"p": 2, "f": "x", %s}\n' % row[key])
        with pytest.raises(ValueError) as err:
            load_corpus(str(path))
        assert str(err.value) == (
            f"corpus entry 0: {key}: literal of 5000 characters is too long"
        )

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"p": 2, "f": "x", "B": "1", "bound": "2"}\n')
        with pytest.raises(ValueError, match="unknown keys"):
            load_corpus(str(path))

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"p": 2, "f": "x"}\n')
        with pytest.raises(ValueError, match="missing key"):
            load_corpus(str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_corpus(str(path))


def _small_corpus():
    corpus = default_corpus()
    return Corpus([e for e in corpus.entries if e.f_text in ("x", "x*y")])


class TestRunSuite:
    def test_default_corpus_answers_pinned(self):
        got = [
            (e.p, e.f_text, _answer_digest(enumerate_jumps(e.poly(), e.bound)))
            for e in default_corpus().entries
        ]
        assert got == CORPUS_ANSWERS

    @pytest.mark.parametrize("seed", range(16))
    def test_random_rationals_unchanged(self, seed):
        # the draw once took three Fraction operations: lo + (hi - lo) * num/den
        def drawn_before(rng, lo, hi):
            den = rng.randint(7, 40)
            num = rng.randint(1, den - 1)
            return lo + (hi - lo) * Fraction(num, den)

        gaps = [(0, 1), (0, Fraction(1, 3)), (Fraction(5, 6), 1), (Fraction(2, 3), Fraction(3, 2)), (2, 3)]
        ours, theirs = random.Random(seed), random.Random(seed)
        for lo, hi in gaps * 3:
            lo, hi = Fraction(lo), Fraction(hi)
            c = _random_rational_between(ours, lo, hi)
            assert c == drawn_before(theirs, lo, hi) and lo < c < hi

    def test_small_corpus_passes(self):
        report = run_suite(_small_corpus())
        assert report.passed
        names = [c.name for c in report.entries[0].checks]
        assert names == [
            "expected_jumps",
            "localization",
            "right_constancy",
            "isolated_jumps",
            "shift_law",
            "scale_law",
            "chain_stabilization",
            "total_order",
            "class_bijection",
        ]

    def test_deterministic_hash(self):
        corpus = _small_corpus()
        a = run_suite(corpus, seed=0)
        b = run_suite(corpus, seed=0)
        assert a.stable_hash() == b.stable_hash()

    def test_default_suite_golden_hash(self):
        # the answers of the whole kernel on the built-in corpus; a change of
        # this digest is a change of answer, never a refactor
        assert run_suite().stable_hash() == (
            "08aea34594bf9ff983e64ecbf883d31376a7a79eda1853d3da28103fdb1cc238"
        )

    def test_concurrent_matches_serial(self):
        corpus = _small_corpus()
        serial = run_suite(corpus, seed=0)
        threaded = run_suite(corpus, seed=0, jobs=3)
        assert serial.stable_hash() == threaded.stable_hash()

    def test_failure_reported_not_raised(self):
        corpus = Corpus(
            [_entry for _entry in default_corpus().entries if _entry.f_text == "x"][:1]
        )
        wrong = Corpus(
            [
                type(corpus.entries[0])(
                    corpus.entries[0].p,
                    corpus.entries[0].f_text,
                    corpus.entries[0].bound,
                    (corpus.entries[0].bound / 2,),  # wrong expectation
                )
            ]
        )
        report = run_suite(wrong)
        assert not report.passed
        bad = [c for c in report.entries[0].checks if not c.passed]
        assert bad and bad[0].name == "expected_jumps"

    def test_class_check_does_not_enumerate_again(self, monkeypatch):
        # with a bound >= 1 the jump after the last one comes from the
        # suite's own enumeration, by Skoda's period 1
        def rescan(*args, **kwargs):
            raise AssertionError("bijection_check enumerated the jumps again")

        monkeypatch.setattr(chains, "enumerate_jumps", rescan)
        report = run_suite(_small_corpus())
        assert report.passed, [er.error for er in report.entries]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            run_suite(Corpus([]))

    def test_entry_error_recorded_suite_continues(self, monkeypatch):
        # an impossible budget makes every entry error out, none of which
        # escapes the suite
        monkeypatch.setattr(testideals, "PHI_STEP_BUDGET", 0)
        report = run_suite(_small_corpus())
        assert not report.passed
        assert all(er.error is not None for er in report.entries)

    def test_json_round_trip(self):
        report = run_suite(_small_corpus())
        obj = report.to_json_obj()
        text = json.dumps(obj)
        assert json.loads(text)["passed"] is True
        stripped = report.to_json_obj(with_timings=False)
        assert "seconds" not in stripped
        assert all("seconds" not in row for row in stripped["entries"])
