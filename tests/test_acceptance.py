"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (visible under ``pytest -s``; ``pytest -v`` shows the same per test)."""

import functools
import random
import time
from fractions import Fraction

import pytest

from fjump import (
    Ideal,
    Polynomial,
    RingContext,
    bijection_check,
    chain,
    check_scaling_law,
    enumerate_jumps,
    expand,
    frobenius_root_ideal,
    frobenius_root_poly,
    is_jumping,
    nil_compare,
    nu,
    orbit,
    parse_poly,
    psi,
    reconstruct,
    run_suite,
    tau,
    tau_left_limit,
    verify_star,
)

from conftest import ideal, poly, random_ideal, random_poly


def criterion(number, name, limit_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} ({name}): FAIL")
                raise
            elapsed = time.monotonic() - started
            print(f"criterion {number:02d} ({name}): PASS in {elapsed:.1f}s")
            assert elapsed < limit_seconds, f"exceeded {limit_seconds}s budget"

        return wrapper

    return decorate


@criterion(1, "Frobenius root minimality and star condition", 60)
def test_criterion_01_star_and_minimality():
    rng = random.Random(1001)
    contexts = [RingContext(p, ("x", "y")) for p in (2, 3, 5)]
    outcomes = {True: 0, False: 0}
    for i in range(200):
        ctx = contexts[i % 3]
        f = random_poly(rng, ctx, max_terms=3, max_exp=5)
        e = rng.randint(1, 3)
        q = ctx.p**e
        I = Ideal(ctx, (f,))
        assert verify_star(I, e)
        root = frobenius_root_ideal(I, e)
        # Galois connection, both directions and both truth values
        for J in (root, root + random_ideal(rng, ctx), random_ideal(rng, ctx)):
            lhs = J.bracket_power(q).contains_poly(f)
            assert lhs == J.contains(root)
            outcomes[lhs] += 1
    assert outcomes[True] and outcomes[False]  # both sides of the equivalence hit


@criterion(2, "composition and skew identities", 60)
def test_criterion_02_composition_and_skew():
    rng = random.Random(1002)
    contexts = [RingContext(p, ("x", "y")) for p in (2, 3, 5)]
    for i in range(100):
        ctx = contexts[i % 3]
        I = random_ideal(rng, ctx)
        e = rng.randint(1, 2)
        e2 = rng.randint(1, 4 - e)
        assert frobenius_root_ideal(frobenius_root_ideal(I, e), e2) == frobenius_root_ideal(I, e + e2)
    for i in range(100):
        ctx = contexts[i % 3]
        I = random_ideal(rng, ctx)
        h = random_poly(rng, ctx, max_terms=2, max_exp=3)
        e = rng.randint(1, 2)
        q = ctx.p**e
        assert frobenius_root_ideal(I.scale(h**q), e) == frobenius_root_ideal(I, e).scale(h)


CUSP_FPT = {7: Fraction(5, 6), 5: Fraction(4, 5)}


@pytest.fixture(scope="module")
def cusp_reports():
    out = {}
    for p in (5, 7):
        ctx = RingContext(p, ("x", "y"))
        f = parse_poly("x^2+y^3", ctx)
        out[p] = (f, enumerate_jumps(f, Fraction(2), depth=4))
    return out


@criterion(3, "cusp ground truth via the independent counting oracle", 240)
def test_criterion_03_cusp_ground_truth(cusp_reports):
    for p, expected in CUSP_FPT.items():
        ctx = RingContext(p, ("x", "y"))
        f = parse_poly("x^2+y^3", ctx)
        m = ideal(ctx, "x", "y")
        ratios = []
        for e in (1, 2, 3, 4):
            value = nu(f, m, e)
            ratio = Fraction(value, p**e)
            assert 0 < expected - ratio <= Fraction(1, p**e)  # per-level bracket
            ratios.append(ratio)
        assert ratios == sorted(ratios)  # increasing toward the threshold
        final = ratios[-1]
        assert final < expected <= final + Fraction(1, p**4)  # bracket within 1/p^4
        jt = is_jumping(f, expected)
        assert jt.jumping
        report = cusp_reports[p][1]
        assert report.complete
        assert report.coefficients()[0] == expected  # exactly the smallest jump
        assert report.coefficients()[:2] == [expected, Fraction(1)]


MONOMIALS = ("x", "x^2", "x^3", "x*y", "x^2y^3")


def closed_form_monomial_jumps(f, bound):
    ((mono, _),) = f.terms.items()
    out = set()
    for d in mono:
        k = 1
        while d and Fraction(k, d) <= bound:
            out.add(Fraction(k, d))
            k += 1
    return sorted(out)


@pytest.fixture(scope="module")
def monomial_reports():
    out = {}
    for p in (2, 3, 5):
        for text in MONOMIALS:
            ctx = RingContext(p, ("x", "y"))
            f = parse_poly(text, ctx)
            out[(p, text)] = (f, enumerate_jumps(f, Fraction(2), depth=5))
    return out


@criterion(4, "monomial closed-form equivalence on (0, 2]", 120)
def test_criterion_04_monomial_oracle(monomial_reports):
    for (p, text), (f, report) in monomial_reports.items():
        assert report.complete, (p, text)
        assert report.coefficients() == closed_form_monomial_jumps(f, Fraction(2)), (p, text)


@criterion(5, "jump propagation laws on the enumerated sets", 120)
def test_criterion_05_scaling_laws(cusp_reports, monomial_reports):
    for f, report in cusp_reports.values():
        assert check_scaling_law(f, report)
    for f, report in monomial_reports.values():
        assert check_scaling_law(f, report)


@criterion(6, "chain stabilization against the direct definition", 300)
def test_criterion_06_chain_stabilization():
    rng = random.Random(1006)
    cases = 0
    while cases < 50:
        p = (2, 3)[cases % 2]
        ctx = RingContext(p, ("x", "y"))
        beta = rng.randint(1, 2)
        a = rng.randint(1, 6)
        max_terms = 2 if (p, beta) == (3, 2) else 3
        g = random_poly(rng, ctx, max_terms=max_terms, max_exp=3)
        trace = chain(g, a, beta)
        assert trace.stab_index <= 32
        q = p**beta
        for s in range(1, min(3, len(trace.terms)) + 1):
            direct = frobenius_root_poly(g ** (a * psi(s, q)), s * beta)
            assert trace.terms[s - 1] == direct
        gamma = Fraction(a, q - 1)
        assert trace.stable == tau_left_limit(g, gamma)
        cases += 1


@criterion(7, "total order and class bijection", 300)
def test_criterion_07_class_structure():
    rng = random.Random(1007)
    targets = []
    ctx_x = RingContext(2, ("x",))
    targets.append(parse_poly("x", ctx_x))
    ctx_cusp = RingContext(7, ("x", "y"))
    targets.append(parse_poly("x^2+y^3", ctx_cusp))
    for g in targets:
        classes = [
            chain(g, rng.randint(0, 10), rng.randint(1, 2)) for _ in range(8)
        ]
        pairs = 0
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                if pairs >= 20:
                    break
                assert nil_compare(classes[i], classes[j]).consistent
                pairs += 1
        assert pairs >= 20

    report_x = enumerate_jumps(targets[0], Fraction(2))
    levels = [(Fraction(0), report_x.jumps[0].c)]
    for k, jump in enumerate(report_x.jumps):
        nxt = report_x.jumps[k + 1].c if k + 1 < len(report_x.jumps) else None
        levels.append((jump.c, nxt))
    for c, nxt in levels:
        assert bijection_check(targets[0], c, nxt)

    report_cusp = enumerate_jumps(targets[1], Fraction(1))
    levels = [(Fraction(0), report_cusp.jumps[0].c)]
    for k, jump in enumerate(report_cusp.jumps):
        nxt = report_cusp.jumps[k + 1].c if k + 1 < len(report_cusp.jumps) else None
        levels.append((jump.c, nxt))
    for c, nxt in levels:
        assert bijection_check(targets[1], c, nxt)


@criterion(8, "right constancy between consecutive jumps", 300)
def test_criterion_08_right_constancy(cusp_reports, monomial_reports):
    rng = random.Random(1008)
    reports = list(cusp_reports.values()) + list(monomial_reports.values())
    for f, report in reports:
        for a, b in zip(report.jumps, report.jumps[1:]):
            for _ in range(10):
                t = Fraction(rng.randint(1, 99), 100)
                c = a.c + (b.c - a.c) * t
                assert tau(f, c) == a.tau_at, (f, a.c, c)


@criterion(9, "digit expansion round trips and orbit bounds", 10)
def test_criterion_09_digit_dynamics():
    rng = random.Random(1009)
    for _ in range(500):
        p = rng.choice((2, 3, 5, 7))
        den = rng.randint(1, 300)
        num = rng.randint(0, 3 * den)
        s = Fraction(num, den)
        value, _form = reconstruct(expand(s, p))
        assert value == s
        frac = s - int(s)
        assert len(orbit(frac, p, 1).orbit) <= frac.denominator


@criterion(10, "full default verification suite", 300)
def test_criterion_10_default_suite():
    report = run_suite()
    for entry_report in report.entries:
        assert entry_report.passed, (
            entry_report.entry.f_text,
            entry_report.error,
            [(c.name, c.detail) for c in entry_report.checks if not c.passed],
        )
    assert report.passed
