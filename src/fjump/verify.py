"""End-to-end verification runs over a corpus of test polynomials.

Each corpus entry names a prime, a polynomial, and a search bound; the
suite enumerates the jumping coefficients and then checks every structural
law the kernel is supposed to satisfy against that enumeration. The corpus
file format is JSON lines, one entry per line::

    {"p": 7, "f": "x^2+y^3", "B": "1", "expect_jumps": ["5/6", "1"]}

with ``expect_jumps`` optional and rationals written "num/den".
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import time
from collections import namedtuple
from fractions import Fraction

from . import chains, testideals
from .grammar import infer_variables, parse_poly
from .ideals import Ideal
from .ring import Polynomial, RingContext

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/(-?[0-9]+))?")


def parse_rational(text, name: str = "rational") -> Fraction:
    """Exact rational from an int or an ASCII 'num' / 'num/den' string; errors name it."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    match = _RATIONAL_RE.fullmatch(text.strip()) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"{name}: not an exact rational: {text!r}")
    try:
        num, den = int(match.group(1)), int(match.group(2) or 1)
    except ValueError:  # more digits than int() converts
        raise ValueError(f"{name}: literal of {len(text)} characters is too long") from None
    if den == 0:
        raise ValueError(f"{name}: zero denominator: {text!r}")
    return Fraction(num, den)


class CorpusEntry(namedtuple("CorpusEntry", "p f_text bound expect_jumps", defaults=(None,))):
    __slots__ = ()

    def context(self) -> RingContext:
        return RingContext(self.p, infer_variables(self.f_text) or ["x"])

    def poly(self) -> Polynomial:
        return parse_poly(self.f_text, self.context())


class Corpus:
    __slots__ = ("entries",)

    def __init__(self, entries: list[CorpusEntry]):
        self.entries = entries


DEFAULT_CORPUS_ROWS = [
    {"p": 2, "f": "x", "B": "3", "expect_jumps": ["1", "2", "3"]},
    {"p": 2, "f": "x*y", "B": "2", "expect_jumps": ["1", "2"]},
    {"p": 2, "f": "x^2y^3", "B": "1", "expect_jumps": ["1/3", "1/2", "2/3", "1"]},
    {"p": 2, "f": "x^2+y^3", "B": "1", "expect_jumps": ["1/2", "1"]},
    {"p": 2, "f": "x^3+y^3", "B": "1", "expect_jumps": ["1/2", "1"]},
    {"p": 3, "f": "x", "B": "2", "expect_jumps": ["1", "2"]},
    {"p": 3, "f": "x*y^2", "B": "1", "expect_jumps": ["1/2", "1"]},
    {"p": 3, "f": "x^2+y^3", "B": "1", "expect_jumps": ["2/3", "1"]},
    {"p": 3, "f": "x^2", "B": "2", "expect_jumps": ["1/2", "1", "3/2", "2"]},
    {"p": 5, "f": "x^2+y^3", "B": "1", "expect_jumps": ["4/5", "1"]},
    {"p": 5, "f": "x^3", "B": "1", "expect_jumps": ["1/3", "2/3", "1"]},
    {"p": 5, "f": "x*y", "B": "1", "expect_jumps": ["1"]},
    {"p": 7, "f": "x^2+y^3", "B": "1", "expect_jumps": ["5/6", "1"]},
    {"p": 7, "f": "x", "B": "1", "expect_jumps": ["1"]},
]


def _entry_from_row(row: dict, index: int) -> CorpusEntry:
    if not isinstance(row, dict):
        raise ValueError(f"corpus entry {index}: expected an object, got {row!r}")
    unknown = set(row) - {"p", "f", "B", "expect_jumps"}
    if unknown:
        raise ValueError(f"corpus entry {index}: unknown keys {sorted(unknown)}")
    for key in ("p", "f", "B"):
        if key not in row:
            raise ValueError(f"corpus entry {index}: missing key {key!r}")
    if not isinstance(row["p"], int):
        raise ValueError(f"corpus entry {index}: p must be an integer")
    if not isinstance(row["f"], str):
        raise ValueError(f"corpus entry {index}: f must be a string")
    try:
        bound = parse_rational(row["B"], "B")
        if bound <= 0:
            raise ValueError(f"B: need a positive bound, got {bound}")
        expect = row.get("expect_jumps")
        if expect is not None:
            if not isinstance(expect, list):
                raise ValueError(f"expect_jumps must be a list, got {expect!r}")
            expect = tuple(sorted(parse_rational(x, "expect_jumps") for x in expect))
        entry = CorpusEntry(row["p"], row["f"], bound, expect)
        if entry.poly().is_constant():  # also validates p and the text; a constant f reads in x
            raise ValueError(f"f: {entry.f_text!r} is zero or a unit mod {entry.p}")
    except ValueError as err:
        raise ValueError(f"corpus entry {index}: {err}") from err
    return entry


def default_corpus() -> Corpus:
    return Corpus([_entry_from_row(row, i) for i, row in enumerate(DEFAULT_CORPUS_ROWS)])


def load_corpus(path: str | None = None) -> Corpus:
    """Corpus from a JSONL file, or the built-in default when path is None."""
    if path is None:
        return default_corpus()
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    rows = []
    for i, line in enumerate(lines):
        if not line:
            continue
        try:
            rows.append((json.loads(line), i))
        except json.JSONDecodeError as err:
            raise ValueError(f"corpus entry {i}: invalid JSON: {err}") from err
        except ValueError:  # a number with more digits than int() converts
            raise ValueError(f"corpus entry {i}: a JSON integer is too long to convert") from None
    if not rows:
        raise ValueError(f"corpus file {path!r} contains no entries")
    return Corpus([_entry_from_row(row, i) for row, i in rows])


class CheckResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name, self.passed, self.detail = name, passed, detail


class EntryReport:
    __slots__ = ("entry", "checks", "error", "seconds")

    def __init__(
        self,
        entry: CorpusEntry,
        checks: list[CheckResult] | None = None,
        error: str | None = None,
        seconds: float = 0.0,
    ):
        self.entry = entry
        self.checks = [] if checks is None else checks
        self.error, self.seconds = error, seconds

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)


class VerificationReport:
    __slots__ = ("entries", "seconds")

    def __init__(self, entries: list[EntryReport], seconds: float = 0.0):
        self.entries, self.seconds = entries, seconds

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json_obj(self, with_timings: bool = True) -> dict:
        out = {"passed": self.passed, "entries": []}
        if with_timings:
            out["seconds"] = round(self.seconds, 3)
        for er in self.entries:
            row = {
                "p": er.entry.p,
                "f": er.entry.f_text,
                "B": str(er.entry.bound),
                "passed": er.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in er.checks
                ],
            }
            if er.error is not None:
                row["error"] = er.error
            if with_timings:
                row["seconds"] = round(er.seconds, 3)
            out["entries"].append(row)
        return out

    def stable_hash(self) -> str:
        """Digest of the report with timings stripped; stable across runs."""
        text = json.dumps(self.to_json_obj(with_timings=False), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def _random_rational_between(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational strictly inside (lo, hi) with a modest denominator."""
    den = rng.randint(7, 40)
    num = rng.randint(1, den - 1)
    # lo + (hi - lo) * num/den over one denominator, one Fraction built
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    return Fraction(a * d * den + (c * b - a * d) * num, b * d * den)


@testideals.shared_roots()  # one root memo per entry, across every check
def _check_entry(entry: CorpusEntry, depth: int, seed: int) -> EntryReport:
    rng = random.Random(f"{seed}:{entry.p}:{entry.f_text}")
    started = time.monotonic()
    er = EntryReport(entry)

    def record(name: str, details: list[str]):
        er.checks.append(CheckResult(name, not details, "; ".join(details)))

    try:
        f = entry.poly()
        p = entry.p
        report = testideals.enumerate_jumps(f, entry.bound, depth)

        # its detail is never empty, so it keeps a rule of its own
        expected, got = entry.expect_jumps, tuple(report.coefficients())
        if expected is None:
            passed, detail = report.complete, "no expected list; requiring a complete enumeration"
        else:
            passed = report.complete and got == expected
            detail = f"expected {[str(c) for c in expected]}, got {[str(c) for c in got]}"
            detail += "" if report.complete else " (incomplete)"
        er.checks.append(CheckResult("expected_jumps", passed, detail))

        # (previous jump or 0, jump, tau on the gap between them)
        gaps, last, value = [], Fraction(0), Ideal.unit(f.ctx)
        for jump in report.jumps:
            gaps.append((last, jump.c, value))
            last, value = jump.c, jump.tau_at

        # tau(f^c) equals a single Frobenius root just right of each jump
        details = []
        for c, nxt, value in gaps:
            # the least e with 1/p^e < (nxt - c)/2, compared as integers
            gap, e = nxt - c, 1
            while 2 * gap.denominator >= p**e * gap.numerator:
                e += 1
            r = (c.numerator * p**e) // c.denominator + 1
            if testideals.tau_dyadic(f, r, e) != value:
                details.append(f"I_{e}(f^{r}) differs from tau just above {c}")
        record("localization", details)

        details = []
        for lo, hi, value in gaps[1:]:
            for _ in range(4):
                c = _random_rational_between(rng, lo, hi)
                if testideals.tau(f, c) != value:
                    details.append(f"tau not constant at {c} in ({lo}, {hi})")
        record("right_constancy", details)

        details = []
        for lo, hi, _ in gaps[1:]:
            c = _random_rational_between(rng, lo, hi)
            if testideals.is_jumping(f, c).jumping:
                details.append(f"spurious jump inside ({lo}, {hi}) at {c}")
        record("isolated_jumps", details)

        details = []
        for jump in report.jumps:
            if jump.c > 1 and not testideals.is_jumping(f, jump.c - 1).jumping:
                details.append(f"{jump.c} - 1 is not a jump")
        record("shift_law", details)

        details = []
        for jump in report.jumps:
            pc = p * jump.c
            if pc <= report.bound and not testideals.is_jumping(f, pc).jumping:
                details.append(f"p*{jump.c} is not a jump")
            wrapped = pc % 1
            if wrapped > 0 and not testideals.is_jumping(f, wrapped).jumping:
                details.append(f"p*{jump.c} mod 1 = {wrapped} is not a jump")
        record("scale_law", details)

        details = []
        classes = []
        for _ in range(4):
            a, beta = rng.randint(1, 2 * p), rng.randint(1, 2)
            cls = chains.chain(f, a, beta)
            if cls.stable != testideals.tau_left_limit(f, cls.gamma):
                details.append(f"chain value at (a={a}, beta={beta}) is not the left limit")
            classes.append(cls)
        record("chain_stabilization", details)

        details = []
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                try:
                    cmp = chains.nil_compare(classes[i], classes[j])
                    if not cmp.consistent:
                        details.append(
                            f"gamma order {cmp.gamma_order} vs representative "
                            f"order {cmp.representative_order}"
                        )
                except chains.TotalOrderViolation as err:
                    details.append(str(err))
        record("total_order", details)

        details = []
        successor = None
        if report.complete and report.bound >= 1:
            # jumps of a principal ideal repeat with period 1 (Skoda), so the
            # jump after the last one in (0, bound] is the least j + 1 beyond it
            successor = min(j.c + 1 for j in report.jumps if j.c + 1 > last)
        for c, nxt in [(lo, hi) for lo, hi, _ in gaps] + [(last, successor)]:
            if not chains.bijection_check(f, c, nxt):
                details.append(f"no chain class realizes tau at {c}")
        record("class_bijection", details)
    except Exception as err:  # noqa: BLE001 - the suite records and continues
        er.error = f"{type(err).__name__}: {err}"
    er.seconds = time.monotonic() - started
    return er


def run_suite(
    corpus: Corpus | None = None,
    depth: int = testideals.DEFAULT_DEPTH,
    seed: int = 0,
    jobs: int = 1,
) -> VerificationReport:
    """Run every check against every corpus entry; deterministic given seed."""
    if depth < 1:
        raise ValueError(f"need depth >= 1, got {depth}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    if corpus is None:
        corpus = default_corpus()
    if not corpus.entries:
        raise ValueError("corpus is empty")
    started = time.monotonic()
    if jobs > 1:
        # imported here, as loading the pool would add to every command's start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(
                pool.map(lambda e: _check_entry(e, depth, seed), corpus.entries)
            )
    else:
        reports = [_check_entry(e, depth, seed) for e in corpus.entries]
    return VerificationReport(reports, time.monotonic() - started)
