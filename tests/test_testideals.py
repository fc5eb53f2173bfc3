import math
import random
from fractions import Fraction

import pytest

from fjump import (
    BudgetExceededError,
    Ideal,
    Polynomial,
    RingContext,
    parse_poly,
    enumerate_jumps,
    frobenius_root_ideal,
    frobenius_root_poly,
    is_jumping,
    nu,
    phi_step,
    tau,
    tau_dyadic,
    tau_left_limit,
    testideals,
)

from conftest import ideal, law_checks, poly, random_ideal, random_poly


def brute_nu(f, J, e):
    """Independent oracle: expand f^r term by term, reduce mod J^[q] by GB."""
    q = f.ctx.p**e
    Jq = Ideal(f.ctx, tuple(g**q for g in J.generators))
    r = 0
    power = Polynomial.one(f.ctx)
    while True:
        power = power * f
        if Jq.contains_poly(power):
            return r
        r += 1


def monomial_tau(f, c):
    """Closed-form oracle for a single monomial: floor-scale each exponent."""
    ((mono, _),) = f.terms.items()
    return Ideal(f.ctx, (Polynomial(f.ctx, {tuple(int(c * d) for d in mono): 1}),))


def monomial_tau_left(f, c):
    """Closed-form left limit for a single monomial: ceil-scale less one."""
    ((mono, _),) = f.terms.items()
    exps = tuple(max(math.ceil(c * d) - 1, 0) for d in mono)
    return Ideal(f.ctx, (Polynomial(f.ctx, {exps: 1}),))


def monomial_jump_set(f, bound):
    """Closed-form jump lattice of a monomial: multiples of 1/d_i."""
    ((mono, _),) = f.terms.items()
    out = set()
    for d in mono:
        k = 1
        while d and Fraction(k, d) <= bound:
            out.add(Fraction(k, d))
            k += 1
    return sorted(out)


class TestTauDyadic:
    def test_monomial(self):
        ctx = RingContext(2, ("x",))
        assert tau_dyadic(poly(ctx, "x"), 3, 1) == ideal(ctx, "x")
        assert tau_dyadic(poly(ctx, "x"), 0, 2) == Ideal.unit(ctx)

    def test_cusp(self, ctx2):
        assert tau_dyadic(poly(ctx2, "x^2 + y^3"), 1, 1) == ideal(ctx2, "x", "y")

    def test_matches_direct_root(self):
        # digit recursion against the one-shot decomposition of f^r
        rng = random.Random(67)
        for p in (2, 3, 5):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(12):
                f = random_poly(rng, ctx, max_terms=3, max_exp=3)
                r = rng.randint(0, 40)
                e = rng.randint(1, 3)
                assert tau_dyadic(f, r, e) == frobenius_root_poly(f**r, e)

    def test_rejects_zero(self, ctx2):
        with pytest.raises(ValueError):
            tau_dyadic(Polynomial.zero(ctx2), 1, 1)

    def test_level_consistency(self):
        # r/p^e and rp/p^(e+1) name the same exponent, so the roots agree;
        # the jump scan reuses endpoint values across levels on this basis
        rng = random.Random(151)
        for p in (2, 3, 5):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(10):
                f = random_poly(rng, ctx, max_terms=3, max_exp=3)
                r, e = rng.randint(0, 25), rng.randint(1, 3)
                assert tau_dyadic(f, r, e) == tau_dyadic(f, r * p, e + 1)


class TestExpansionBudget:
    def test_bound_covers_true_size(self, monkeypatch):
        # a budget one below the true size of f^n must always refuse f^n
        rng = random.Random(71)
        for p in (2, 3, 5, 7):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(15):
                f = random_poly(rng, ctx, max_terms=4, max_exp=4)
                n = rng.randint(1, 60)
                monkeypatch.setattr(testideals, "EXPANSION_TERM_BUDGET", len((f**n).terms) - 1)
                with pytest.raises(BudgetExceededError, match="expanding f"):
                    testideals._root_scaled(f, n, 0, Ideal.unit(ctx))

    def test_bound_uses_degree_for_many_terms(self, monkeypatch):
        # f^20 for a 10-term f of degree 3 in x, y: C(29, 9) > 10^7 splits,
        # but at most C(62, 2) = 1891 monomials of degree <= 60
        ctx = RingContext(31, ("x", "y"))
        f = poly(ctx, "1+x+y+x^2+x*y+y^2+x^3+x^2*y+x*y^2+y^3")
        monkeypatch.setattr(testideals, "EXPANSION_TERM_BUDGET", 1891)
        assert tau(f, Fraction(20)) == Ideal(ctx, (f**20,))
        monkeypatch.setattr(testideals, "EXPANSION_TERM_BUDGET", 1890)
        with pytest.raises(BudgetExceededError, match="expanding f"):
            tau(f, Fraction(20))

    def test_bound_is_exact_for_binomial_char2(self, ctx2, monkeypatch):
        # over F_2, (x^2+y^3)^n has 2^(number of binary ones of n) terms
        f = poly(ctx2, "x^2+y^3")
        n = 0b1011001
        monkeypatch.setattr(testideals, "EXPANSION_TERM_BUDGET", 16)
        assert tau(f, Fraction(n)) == Ideal(ctx2, (f**n,))
        monkeypatch.setattr(testideals, "EXPANSION_TERM_BUDGET", 15)
        with pytest.raises(BudgetExceededError, match="expanding f"):
            tau(f, Fraction(n))


class TestPhiStep:
    def test_examples(self):
        ctx = RingContext(2, ("x",))
        x = poly(ctx, "x")
        unit = Ideal.unit(ctx)
        assert phi_step(x, 1, 1, unit) == unit
        assert phi_step(x, 3, 1, unit) == ideal(ctx, "x")
        assert phi_step(x, 3, 1, ideal(ctx, "x")) == ideal(ctx, "x^2")

    def test_monotone(self, ctx3):
        rng = random.Random(71)
        for _ in range(10):
            f = random_poly(rng, ctx3, max_terms=2, max_exp=3)
            small = ideal(ctx3, "x^2", "xy")
            big = ideal(ctx3, "x^2", "xy", "y")
            a, beta = rng.randint(0, 6), rng.randint(1, 2)
            assert phi_step(f, a, beta, big).contains(phi_step(f, a, beta, small))

    def test_fixed_point_stationary(self):
        ctx = RingContext(2, ("x",))
        x = poly(ctx, "x")
        J = Ideal.unit(ctx)
        while True:
            nxt = phi_step(x, 3, 1, J)
            if nxt == J:
                break
            J = nxt
        assert phi_step(x, 3, 1, J) == J


class TestTauLeftLimit:
    def test_monomial_examples(self):
        ctx = RingContext(2, ("x",))
        x = poly(ctx, "x")
        assert tau_left_limit(x, Fraction(1)) == Ideal.unit(ctx)
        assert tau_left_limit(x, Fraction(3)) == ideal(ctx, "x^2")

    def test_rejects_nonpositive(self, ctx2):
        with pytest.raises(ValueError):
            tau_left_limit(poly(ctx2, "x"), Fraction(0))

    def test_budget_diagnostic(self, ctx2, monkeypatch):
        monkeypatch.setattr(testideals, "PHI_STEP_BUDGET", 0)
        with pytest.raises(BudgetExceededError):
            tau_left_limit(poly(ctx2, "x + y^3"), Fraction(2, 3))


class TestTau:
    def test_monomial(self):
        ctx = RingContext(2, ("x",))
        x = poly(ctx, "x")
        assert tau(x, Fraction(1)) == ideal(ctx, "x")
        assert tau(x, Fraction(0)) == Ideal.unit(ctx)
        assert tau(poly(ctx, "x^3"), Fraction(1, 3)) == ideal(ctx, "x")

    def test_monomial_oracle_random(self):
        rng = random.Random(73)
        for p in (2, 3, 5):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(40):
                f = Polynomial(ctx, {(rng.randint(1, 3), rng.randint(0, 3)): 1})
                # a factor p or p^2 in the denominator gives c a p-adic part
                c = Fraction(rng.randint(1, 40), rng.randint(1, 20) * p ** rng.randint(0, 2))
                assert tau(f, c) == monomial_tau(f, c)
                assert tau_left_limit(f, c) == monomial_tau_left(f, c)

    def test_exactness_anchor(self):
        # tau at r/p^e agrees with the single Frobenius root
        rng = random.Random(79)
        for p in (2, 3):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(10):
                f = random_poly(rng, ctx, max_terms=3, max_exp=3)
                r, e = rng.randint(0, 30), rng.randint(1, 3)
                assert tau(f, Fraction(r, p**e)) == tau_dyadic(f, r, e)

    def test_monotone_decreasing(self, ctx3):
        rng = random.Random(83)
        for _ in range(10):
            f = random_poly(rng, ctx3, max_terms=3, max_exp=3)
            c1 = Fraction(rng.randint(1, 30), rng.randint(1, 12))
            c2 = c1 + Fraction(rng.randint(1, 10), rng.randint(1, 12))
            assert tau(f, c1).contains(tau(f, c2))

    def test_chain_ascends_with_level(self, ctx2):
        rng = random.Random(89)
        for _ in range(8):
            f = random_poly(rng, ctx2, max_terms=3, max_exp=3)
            c = Fraction(rng.randint(1, 20), rng.randint(1, 12))
            prev = None
            for e in (1, 2, 3, 4):
                cur = tau_dyadic(f, math.ceil(c * 2**e), e)
                if prev is not None:
                    assert cur.contains(prev)
                prev = cur

    def test_left_contains_at(self, ctx3):
        rng = random.Random(97)
        for _ in range(10):
            f = random_poly(rng, ctx3, max_terms=3, max_exp=3)
            c = Fraction(rng.randint(1, 24), rng.randint(1, 12))
            jt = is_jumping(f, c)
            assert jt.tau_left.contains(jt.tau_at)
            assert jt.jumping == (jt.tau_left != jt.tau_at)

    def test_negative_rejected(self, ctx2):
        with pytest.raises(ValueError):
            tau(poly(ctx2, "x"), Fraction(-1, 2))


class TestIsJumping:
    def test_monomial(self):
        ctx = RingContext(2, ("x",))
        x = poly(ctx, "x")
        jt = is_jumping(x, Fraction(1))
        assert jt.jumping
        assert jt.tau_left == Ideal.unit(ctx) and jt.tau_at == ideal(ctx, "x")
        assert not is_jumping(x, Fraction(1, 2)).jumping

    def test_cusp_fpt(self, ctx7):
        assert is_jumping(poly(ctx7, "x^2 + y^3"), Fraction(5, 6)).jumping


class TestNu:
    def test_monomial(self):
        ctx = RingContext(2, ("x",))
        x = poly(ctx, "x")
        assert nu(x, ideal(ctx, "x"), 2) == 3

    def test_cusp_against_brute_force(self, ctx7):
        f = poly(ctx7, "x^2 + y^3")
        m = ideal(ctx7, "x", "y")
        assert brute_nu(f, m, 1) == 5
        assert nu(f, m, 1) == 5

    def test_product_against_brute_force(self, ctx3):
        f = poly(ctx3, "xy")
        m = ideal(ctx3, "x", "y")
        assert brute_nu(f, m, 1) == 2
        assert nu(f, m, 1) == 2

    def test_agrees_with_brute_force_random(self):
        rng = random.Random(101)
        for p in (2, 3):
            ctx = RingContext(p, ("x", "y"))
            m = ideal(ctx, "x", "y")
            for _ in range(8):
                terms = {
                    (rng.randint(1, 2), rng.randint(0, 2)): 1,
                    (0, rng.randint(1, 3)): rng.randint(1, p - 1),
                }
                f = Polynomial(ctx, terms)
                e = rng.randint(1, 2)
                assert nu(f, m, e) == brute_nu(f, m, e)

    def test_member_at_one(self, ctx2):
        assert nu(poly(ctx2, "x^2"), ideal(ctx2, "x"), 1) == 0

    def test_rejects_improper(self, ctx2):
        with pytest.raises(ValueError):
            nu(poly(ctx2, "x"), Ideal.unit(ctx2), 1)
        with pytest.raises(ValueError):
            nu(poly(ctx2, "x"), Ideal(ctx2), 1)

    def test_budget_when_not_in_radical(self, ctx2, monkeypatch):
        monkeypatch.setattr(testideals, "NU_EXPONENT_BUDGET", 64)
        with pytest.raises(BudgetExceededError):
            nu(poly(ctx2, "x + 1"), ideal(ctx2, "x"), 1)


class TestEnumerateJumps:
    def test_single_variable(self):
        ctx = RingContext(2, ("x",))
        report = enumerate_jumps(poly(ctx, "x"), Fraction(2))
        assert report.coefficients() == [Fraction(1), Fraction(2)]
        assert report.complete

    def test_product_char3(self, ctx3):
        report = enumerate_jumps(poly(ctx3, "xy"), Fraction(1))
        assert report.coefficients() == [Fraction(1)]

    def test_cusp_char7(self, ctx7):
        report = enumerate_jumps(poly(ctx7, "x^2 + y^3"), Fraction(1))
        assert report.coefficients() == [Fraction(5, 6), Fraction(1)]
        assert report.jumps[0].tau_left == Ideal.unit(ctx7)
        assert report.jumps[0].tau_at == ideal(ctx7, "x", "y")

    def test_monomial_matches_closed_form(self):
        rng = random.Random(103)
        for p in (2, 3, 5):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(6):
                f = Polynomial(ctx, {(rng.randint(1, 3), rng.randint(0, 2)): 1})
                report = enumerate_jumps(f, Fraction(2), depth=5)
                assert report.complete
                assert report.coefficients() == monomial_jump_set(f, Fraction(2))

    def test_report_invariants(self, ctx5):
        report = enumerate_jumps(poly(ctx5, "x^2 + y^3"), Fraction(2), depth=4)
        cs = report.coefficients()
        assert cs == sorted(set(cs))
        for jump in report.jumps:
            assert jump.tau_left.contains(jump.tau_at)
            assert jump.tau_left != jump.tau_at
        for a, b in zip(report.jumps, report.jumps[1:]):
            assert a.tau_at == b.tau_left

    def test_insufficient_depth_flags_interval(self):
        # 1/3 needs two base-5 digits; depth 1 must flag, not drop
        ctx = RingContext(5, ("x",))
        report = enumerate_jumps(poly(ctx, "x^3"), Fraction(1), depth=1)
        assert not report.complete
        assert any(lo < Fraction(1, 3) <= hi for lo, hi in report.unresolved)
        deeper = enumerate_jumps(poly(ctx, "x^3"), Fraction(1), depth=3)
        assert deeper.complete
        assert deeper.coefficients() == [Fraction(1, 3), Fraction(2, 3), Fraction(1)]

    def test_rejects_constants(self, ctx2):
        with pytest.raises(ValueError):
            enumerate_jumps(Polynomial.one(ctx2), Fraction(1))
        with pytest.raises(ValueError):
            enumerate_jumps(Polynomial.zero(ctx2), Fraction(1))
        with pytest.raises(ValueError):
            enumerate_jumps(poly(ctx2, "x"), Fraction(0))


class TestEnumerateHarder:
    def test_many_jumps_in_one_cell(self):
        # thirteen jumps below 1, six of them in the cell (1/2, 1]
        ctx = RingContext(2, ("x", "y"))
        f = poly(ctx, "x^6y^7")
        report = enumerate_jumps(f, Fraction(1), depth=5)
        expected = sorted(
            {Fraction(k, 6) for k in range(1, 7)} | {Fraction(k, 7) for k in range(1, 8)}
        )
        assert report.complete
        assert report.coefficients() == expected

    # fpt values independently bracketed by the counting oracle (see
    # test_quasihomogeneous_nu_bracket); at p = 1 mod 12 the full list
    # matches the characteristic-zero jumping numbers of x^3 + y^4
    E6_JUMPS = {
        5: ["7/12", "4/5", "11/12", "1"],
        7: ["4/7", "5/6", "6/7", "1"],
        11: ["6/11", "9/11", "10/11", "1"],
        13: ["7/12", "5/6", "11/12", "1"],
    }

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_quasihomogeneous(self, p):
        ctx = RingContext(p, ("x", "y"))
        f = poly(ctx, "x^3+y^4")
        report = enumerate_jumps(f, Fraction(1), depth=4)
        assert report.complete
        assert [str(c) for c in report.coefficients()] == self.E6_JUMPS[p]

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_quasihomogeneous_nu_bracket(self, p):
        ctx = RingContext(p, ("x", "y"))
        f = poly(ctx, "x^3+y^4")
        m = ideal(ctx, "x", "y")
        fpt = Fraction(*map(int, self.E6_JUMPS[p][0].split("/")))
        for e in (1, 2, 3):
            ratio = Fraction(nu(f, m, e), p**e)
            assert 0 < fpt - ratio <= Fraction(1, p**e)

    def test_three_variables(self):
        ctx = RingContext(7, ("x", "y", "z"))
        f = parse_poly("x^2+y^3+z^5", ctx)
        report = enumerate_jumps(f, Fraction(1), depth=3)
        assert report.complete
        assert report.coefficients() == [Fraction(1)]  # log resolution sum exceeds 1
        g = parse_poly("x*y^2*z^3", ctx)
        report = enumerate_jumps(g, Fraction(1), depth=4)
        assert [str(c) for c in report.coefficients()] == ["1/3", "1/2", "2/3", "1"]

    @pytest.mark.parametrize("p,text", [(2, "x^2y + y^3"), (3, "x^3 + x*y^3"), (7, "x^3+y^4")])
    def test_step_reconstruction(self, p, text):
        # tau at deep dyadic points the scan never touched must match the
        # step function implied by the report; a missed jump would break this
        ctx = RingContext(p, ("x", "y"))
        f = poly(ctx, text)
        report = enumerate_jumps(f, Fraction(1), depth=5)
        assert report.complete
        rng = random.Random(163)
        E = 6
        for _ in range(25):
            r = rng.randint(1, p**E)
            c = Fraction(r, p**E)
            below = [j for j in report.jumps if j.c <= c]
            expected = below[-1].tau_at if below else Ideal.unit(ctx)
            assert tau_dyadic(f, r, E) == expected, c


class TestScan:
    def test_cusp_fpt_closed_form(self):
        # F-pure threshold of x^2+y^3 for p > 3: 5/6 when p = 1 mod 6,
        # else (5p - 1)/(6p)
        for p in range(5, 200):
            if any(p % k == 0 for k in range(2, p)):
                continue
            ctx = RingContext(p, ("x", "y"))
            report = enumerate_jumps(poly(ctx, "x^2+y^3"), Fraction(1))
            expected = Fraction(5, 6) if p % 6 == 1 else Fraction(5 * p - 1, 6 * p)
            assert report.complete, p
            assert report.coefficients() == [expected, Fraction(1)], p

    @pytest.mark.parametrize(
        "p,text,e,bound",
        [
            (2, "x^5+y^7", 3, Fraction(2, 3)),
            (3, "x^2y+y^4", 2, Fraction(5, 2)),
            (5, "x^2+y^3", 1, Fraction(3)),
            (5, "x^2+y^3", 2, Fraction(7, 5)),
            (7, "x^5+y^7", 2, Fraction(1, 2)),
        ],
    )
    def test_drops_match_linear_scan(self, p, text, e, bound):
        ctx = RingContext(p, ("x", "y"))
        f = poly(ctx, text)
        top = math.ceil(bound * p**e)
        values = [tau_dyadic(f, r, e) for r in range(top + 1)]
        linear = [
            (e, r, values[r - 1], values[r])
            for r in range(1, top + 1)
            if values[r - 1] != values[r]
        ]
        assert linear
        assert testideals._drops(f, e, 0, top, values[0], values[top]) == linear
        lo = top // 3
        inner = [d for d in linear if d[1] > lo]
        assert testideals._drops(f, e, lo, top, values[lo], values[top]) == inner

    def test_wide_range_without_recursion(self, ctx2, monkeypatch):
        # one drop, at r = step, somewhere in (0, 2^3000]
        f = poly(ctx2, "x")
        unit, m = Ideal.unit(ctx2), ideal(ctx2, "x", "y")
        step = 2**2999 + 12345
        calls = []

        def one_step(f, r, e):
            calls.append(r)
            return unit if r < step else m

        monkeypatch.setattr(testideals, "tau_dyadic", one_step)
        drops = testideals._drops(f, 1, 0, 2**3000, unit, m)
        assert drops == [(1, step, unit, m)]
        assert len(calls) == 3000

    def test_cusp_scan_roots_are_logarithmic(self, monkeypatch):
        # x^2+y^3 at p = 103 drops twice in (0, 103] at level 1, and both
        # candidates resolve there; each drop lies at the end of at most
        # ceil(log2 103) = 7 halvings, so the scan takes at most 2 * 7 roots
        # plus one at the top, where a linear scan takes 102 or more
        ctx = RingContext(103, ("x", "y"))
        f = poly(ctx, "x^2+y^3")
        calls = []
        real = testideals.tau_dyadic

        def counted(f, r, e):
            calls.append((r, e))
            return real(f, r, e)

        monkeypatch.setattr(testideals, "tau_dyadic", counted)
        report = enumerate_jumps(f, Fraction(1))
        assert report.coefficients() == [Fraction(5, 6), Fraction(1)]
        assert len(calls) <= 2 * 7 + 1


class TestIntervalCandidates:
    @pytest.mark.parametrize("p, e_max", [(2, 6), (3, 4), (5, 4)])
    def test_brute_force_oracle(self, p, e_max):
        # every a/(p^d (p^beta - 1)) strictly inside ((r-1)/p^e, r/p^e] with
        # d + beta <= e, found by brute force over a, ranked by its least
        # (d + beta, d) and then by value; the right endpoint comes first
        for e in range(1, e_max + 1):
            q = p**e
            for r in range(1, 2 * q + 1):
                lo, hi = Fraction(r - 1, q), Fraction(r, q)
                least = {}
                for total in range(1, e + 1):
                    for d in range(total):
                        den = p**d * (p ** (total - d) - 1)
                        for a in range(math.floor(lo * den) + 1, math.ceil(hi * den)):
                            least.setdefault(Fraction(a, den), (total, d))
                expected = sorted(least, key=lambda v: (*least[v], v))
                got = testideals._interval_candidates(p, e, r)
                assert got == [hi] + expected, (p, e, r)


class TestScalingLaw:
    """The shift and scale laws as `fjump verify` checks them."""

    def test_monomial(self):
        checks = law_checks(2, "x", Fraction(2), testideals.DEFAULT_DEPTH)
        assert checks["shift_law"].passed and checks["scale_law"].passed

    def test_cube_char2(self):
        jumps = (Fraction(1, 3), Fraction(2, 3), Fraction(1))
        checks = law_checks(2, "x^3", Fraction(1), 4, jumps)
        assert checks["expected_jumps"].passed
        assert checks["shift_law"].passed and checks["scale_law"].passed

    def test_incomplete_rejected(self):
        checks = law_checks(5, "x^3", Fraction(1), 1)
        assert not checks["expected_jumps"].passed
        assert "requiring a complete enumeration" in checks["expected_jumps"].detail


def _tau_with_beta(f, c, beta):
    """tau computed with an explicitly chosen period length beta."""
    p = f.ctx.p
    den = c.denominator
    d = 0
    while den % p == 0:
        den //= p
        d += 1
    assert (p**beta - 1) % den == 0, "beta must be admissible for c"
    a = int(c * p**d * (p**beta - 1))
    b = -((-a) // (p**beta - 1))
    T = Ideal(f.ctx, (f**b,))
    while True:
        nxt = phi_step(f, a, beta, T)
        if nxt == T:
            break
        T = nxt
    return frobenius_root_ideal(T, d) if d else T


class TestBetaChoiceIrrelevant:
    # the minimal period length is an optimization; Euler's-totient-sized
    # periods must give the same tau
    @pytest.mark.parametrize(
        "p,c,beta_phi",
        [
            (2, Fraction(1, 7), 6),  # minimal beta is 3
            (2, Fraction(5, 21), 12),  # minimal beta is 6
            (3, Fraction(1, 11), 10),  # minimal beta is 5
        ],
    )
    def test_totient_beta_matches(self, p, c, beta_phi):
        ctx = RingContext(p, ("x", "y"))
        rng = random.Random(int(beta_phi))
        for _ in range(3):
            f = random_poly(rng, ctx, max_terms=2, max_exp=3)
            assert _tau_with_beta(f, c, beta_phi) == tau(f, c)


class TestRightConstancy:
    def test_between_cusp_jumps(self, ctx7):
        f = poly(ctx7, "x^2 + y^3")
        value = tau(f, Fraction(5, 6))
        rng = random.Random(107)
        for _ in range(10):
            c = Fraction(5, 6) + Fraction(1, 6) * Fraction(rng.randint(1, 30), 31)
            if c < 1:
                assert tau(f, c) == value


class TestSharedRoots:
    def test_answers_match_unshared(self):
        # two polynomials of one ring interleaved in one block, each call
        # asked twice: a memo key that dropped f or J would mix answers up
        rng = random.Random(109)
        for p in (2, 3, 5):
            for names in (("x",), ("x", "y"), ("x", "y", "z")):
                ctx = RingContext(p, names)
                fs = [random_poly(rng, ctx, max_terms=3, max_exp=3) for _ in range(2)]
                calls = []
                for _ in range(3):
                    c = Fraction(rng.randint(1, 8), rng.choice([1, 2, 3, 4, p, p + 1]))
                    r, e = rng.randint(1, p**2), rng.randint(1, 2)
                    a, beta = rng.randint(0, 2 * p), rng.randint(1, 2)
                    J = random_ideal(rng, ctx, max_gens=2, max_exp=3)
                    for f in fs:
                        calls += [
                            (tau, (f, c)),
                            (tau_left_limit, (f, c)),
                            (tau_dyadic, (f, r, e)),
                            (phi_step, (f, a, beta, J)),
                        ]
                expected = [fn(*args).generators for fn, args in calls]
                with testideals.shared_roots():
                    for _ in range(2):
                        assert [fn(*args).generators for fn, args in calls] == expected

    def test_nested_block_reuses_the_memo(self):
        assert testideals._step_memo.get() is None
        with testideals.shared_roots():
            memo = testideals._step_memo.get()
            with testideals.shared_roots():
                assert testideals._step_memo.get() is memo
            assert testideals._step_memo.get() is memo
        assert testideals._step_memo.get() is None

    def test_enumerations_share_nothing(self, ctx3, monkeypatch):
        calls = []
        real = testideals.frobenius_root_ideal

        def counted(I, e):
            calls.append(e)
            return real(I, e)

        monkeypatch.setattr(testideals, "frobenius_root_ideal", counted)
        f = poly(ctx3, "x^2+y^3")
        counts = []
        for _ in range(2):
            calls.clear()
            enumerate_jumps(f, 1)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_budget_error_closes_the_block(self, ctx3, monkeypatch):
        monkeypatch.setattr(testideals, "PHI_STEP_BUDGET", 0)
        with pytest.raises(BudgetExceededError):
            enumerate_jumps(poly(ctx3, "x^2+y^3"), 1)
        assert testideals._step_memo.get() is None
