"""The public result records: constructor forms, value semantics of the
frozen ones, and fresh lists per instance for the mutable ones."""

from fractions import Fraction
from functools import cached_property

import pytest

from fjump import (
    BasePExpansion,
    CanonicalForm,
    ChainTrace,
    Corpus,
    CorpusEntry,
    Ideal,
    NilComparison,
    OrbitReport,
    RingContext,
    VerificationReport,
    chain,
    parse_poly,
    verify,
)
from fjump.testideals import Jump, JumpReport

CTX = RingContext(7, ("x", "y"))
UNIT = Ideal.unit(CTX)

# a builder of two independently made, equal values of each frozen record, and a field
FROZEN = [
    (lambda: CanonicalForm(5, 0, 1, 7), "a"),
    (lambda: BasePExpansion(3, 0, (), (2,)), "period"),
    (lambda: OrbitReport(Fraction(1, 3), 2, 1, (Fraction(1, 3), Fraction(2, 3)), 0, 2), "orbit"),
    (lambda: Jump(Fraction(5, 6), UNIT, Ideal(CTX, (parse_poly("x", CTX),))), "tau_at"),
    (lambda: NilComparison("<", ">"), "direction"),
    (lambda: CorpusEntry(7, "x^2+y^3", Fraction(1), (Fraction(5, 6), Fraction(1))), "bound"),
]


@pytest.mark.parametrize("build, name", FROZEN, ids=[type(build()).__name__ for build, _ in FROZEN])
class TestFrozenRecords:
    def test_value_equality_and_hash(self, build, name):
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_assignment_raises(self, build, name):
        record = build()
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.not_a_field = 1


class TestConstructorForms:
    def test_keywords_and_defaults(self):
        assert CanonicalForm(a=5, d=0, beta=1, p=7) == CanonicalForm(5, 0, 1, 7)
        entry = CorpusEntry(p=7, f_text="x", bound=Fraction(1))
        assert entry.expect_jumps is None
        assert entry == CorpusEntry(7, "x", Fraction(1))
        cmp = NilComparison(gamma_order="<", representative_order=">")
        assert cmp.direction == "larger gamma gives smaller representative ideal"
        assert cmp.consistent
        check = verify.CheckResult("localization", True)
        assert (check.name, check.passed, check.detail) == ("localization", True, "")

    def test_unequal_values_differ(self):
        assert CanonicalForm(5, 0, 1, 7) != CanonicalForm(5, 0, 2, 7)
        assert NilComparison("<", ">") != NilComparison("<", "=")

    def test_perfbench_forms(self):
        # perfbench/workloads.py builds one-entry corpora and re-wraps entry reports
        entry = CorpusEntry(2, "x", Fraction(1), (Fraction(1),))
        corpus = Corpus([entry])
        assert corpus.entries == [entry]
        (er,) = verify.run_suite(corpus).entries
        report = VerificationReport([er])
        assert report.seconds == 0.0
        assert report.entries == [er] and report.passed
        assert len(report.stable_hash()) == 64

    def test_mutable_defaults_are_fresh(self):
        first, second = JumpReport(Fraction(1)), JumpReport(Fraction(1))
        first.jumps.append(Jump(Fraction(1), UNIT, UNIT))
        first.unresolved.append((Fraction(0), Fraction(1)))
        assert second.jumps == [] and second.unresolved == []
        assert second.complete and second.coefficients() == []

        entry = CorpusEntry(2, "x", Fraction(1))
        a, b = verify.EntryReport(entry), verify.EntryReport(entry)
        a.checks.append(verify.CheckResult("x", False))
        assert b.checks == [] and b.error is None and b.seconds == 0.0
        assert b.passed and not a.passed

    def test_chain_trace(self):
        trace = chain(parse_poly("x^2+y^3", CTX), 5, 1)
        assert isinstance(ChainTrace.__dict__["gamma"], cached_property)
        assert trace.gamma == Fraction(5, 6)
        assert trace.gamma is trace.gamma
        rebuilt = ChainTrace(trace.g, trace.a, trace.beta, trace.terms)
        assert rebuilt.stable == trace.stable and rebuilt.stab_index == trace.stab_index
