import math
import random
from fractions import Fraction

import pytest

from fjump import (
    BudgetExceededError,
    Ideal,
    Polynomial,
    RingContext,
    chains,
    parse_poly,
    enumerate_jumps,
    frobenius,
    frobenius_root_ideal,
    frobenius_root_poly,
    ideals,
    is_jumping,
    phi_step,
    ring,
    tau,
    tau_dyadic,
    tau_left_limit,
    testideals,
)

import oracles
from conftest import ideal, law_checks, poly, random_ideal, random_poly
from oracles import nu


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
        # a budget one below the true size of f^n must always refuse f^n;
        # from n = 2, as a Skoda shift by f^1 is by f itself and builds no power
        rng = random.Random(71)
        for p in (2, 3, 5, 7):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(15):
                f = random_poly(rng, ctx, max_terms=4, max_exp=4)
                n = rng.randint(2, 60)
                # each f**n is built under the default budget, not the last patch
                with monkeypatch.context() as patch:
                    patch.setattr(ring, "EXPANSION_TERM_BUDGET", len((f**n).terms) - 1)
                    with pytest.raises(BudgetExceededError, match="expanding f"):
                        testideals._root_scaled(f, n, 0, Ideal.unit(ctx))

    def test_bound_uses_degree_for_many_terms(self, monkeypatch):
        # f^20 for a 10-term f of degree 3 in x, y: C(29, 9) > 10^7 splits,
        # but at most C(62, 2) = 1891 monomials of degree <= 60
        ctx = RingContext(31, ("x", "y"))
        f = poly(ctx, "1+x+y+x^2+x*y+y^2+x^3+x^2*y+x*y^2+y^3")
        monkeypatch.setattr(ring, "EXPANSION_TERM_BUDGET", 1891)
        assert tau(f, Fraction(20)) == Ideal(ctx, (f**20,))
        monkeypatch.setattr(ring, "EXPANSION_TERM_BUDGET", 1890)
        with pytest.raises(BudgetExceededError, match="expanding f"):
            tau(f, Fraction(20))

    def test_bound_is_exact_for_binomial_char2(self, ctx2, monkeypatch):
        # over F_2, (x^2+y^3)^n has 2^(number of binary ones of n) terms
        f = poly(ctx2, "x^2+y^3")
        n = 0b1011001
        monkeypatch.setattr(ring, "EXPANSION_TERM_BUDGET", 16)
        assert tau(f, Fraction(n)) == Ideal(ctx2, (f**n,))
        monkeypatch.setattr(ring, "EXPANSION_TERM_BUDGET", 15)
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

    def test_high_degree_reduces_as_it_goes(self):
        # f = x + y + x^3*y + every x^i*y^j of degree <= 60 with i or j >= 31:
        # f^30 has lowest form (x+y)^30, whose terms x^i*y^(30-i) lie outside
        # <x^31, y^31>, and f^31 lies inside it, so nu = 30. Unreduced, the
        # digit powers f^d of this degree-60 f pass the term budget.
        ctx = RingContext(31, ("x", "y"))
        high = {(i, j): 1 for i in range(31, 61) for j in range(61 - i)}
        high.update({(j, i): 2 for i, j in high})
        f = Polynomial(ctx, high) + poly(ctx, "x + y + x^3*y")
        assert f.total_degree() == 60
        assert nu(f, ideal(ctx, "x", "y"), 1) == 30

    def test_member_at_one(self, ctx2):
        assert nu(poly(ctx2, "x^2"), ideal(ctx2, "x"), 1) == 0

    def test_rejects_improper(self, ctx2):
        with pytest.raises(ValueError):
            nu(poly(ctx2, "x"), Ideal.unit(ctx2), 1)
        with pytest.raises(ValueError):
            nu(poly(ctx2, "x"), Ideal(ctx2), 1)

    def test_budget_when_not_in_radical(self, ctx2, monkeypatch):
        monkeypatch.setattr(oracles, "NU_EXPONENT_BUDGET", 64)
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

    def test_depth_four_leaves_three_intervals(self):
        ctx = RingContext(2, ("x", "y"))
        report = enumerate_jumps(poly(ctx, "x^5+y^7"), Fraction(1), depth=4)
        assert report.unresolved == [
            (Fraction(7, 16), Fraction(1, 2)),
            (Fraction(11, 16), Fraction(3, 4)),
            (Fraction(15, 16), Fraction(1)),
        ]

    def test_rejected_candidate_is_checked(self, ctx7, monkeypatch):
        # 6/7, no jump, is the first candidate of (5/7, 6/7], whose jump is
        # 5/6; a left limit at 6/7 that fails to contain tau must raise,
        # although the candidate is rejected
        f = poly(ctx7, "x^2 + y^3")
        assert not is_jumping(f, Fraction(6, 7)).jumping
        split = testideals._tau_split

        def broken(g, c, left):
            return Ideal(ctx7) if left and c == Fraction(6, 7) else split(g, c, left)

        monkeypatch.setattr(testideals, "_tau_split", broken)
        with pytest.raises(AssertionError, match="fails to contain"):
            enumerate_jumps(f, Fraction(1))

    def test_jumps_match_fresh_recomputation(self):
        # each reported jump against is_jumping outside any shared_roots()
        # block, where every query builds fresh tables and shares no memo
        rng = random.Random(331)
        for _ in range(40):
            p = rng.choice((2, 3, 5, 7))
            ctx = RingContext(p, ("x", "y", "z")[: rng.randint(2, 3)])
            f = random_poly(rng, ctx, max_terms=4, max_exp=4)
            if f.is_constant():
                continue
            report = enumerate_jumps(f, Fraction(1), depth=rng.randint(2, 5))
            for jump in report.jumps:
                fresh = is_jumping(f, jump.c)
                assert fresh.jumping
                assert (fresh.c, fresh.tau_left.groebner_basis(), fresh.tau_at.groebner_basis()) == (
                    jump.c,
                    jump.tau_left.groebner_basis(),
                    jump.tau_at.groebner_basis(),
                ), (f, jump.c)

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

    @pytest.mark.parametrize("p", [65519, 65521])
    def test_cusp_fpt_closed_form_at_large_primes(self, p):
        # the largest primes below 2^16, one on each side of p mod 6
        report = enumerate_jumps(poly(RingContext(p, ("x", "y")), "x^2+y^3"), Fraction(1))
        expected = Fraction(5, 6) if p % 6 == 1 else Fraction(5 * p - 1, 6 * p)
        assert report.complete
        assert report.coefficients() == [expected, Fraction(1)]

    def test_large_prime_jumps_repeat_past_one(self):
        # Skoda: the jumps in (1, 2] are those in (0, 1] plus 1; at p = 65521
        # the steps on <f> and on shifted states are carried from the unit
        # state's, which the binomial reads off its exponents
        f = poly(RingContext(65521, ("x", "y")), "x^5+y^7")
        report = enumerate_jumps(f, Fraction(2))
        assert report.complete
        jumps = report.coefficients()
        low = [c for c in jumps if c <= 1]
        assert low[0] == Fraction(12, 35)
        assert [c for c in jumps if c > 1] == [c + 1 for c in low]

    @pytest.mark.parametrize(
        "a,b,p",
        [
            (a, b, p)
            for a in range(2, 8)
            for b in range(a, 8)
            for p in range(2, 50)
            if all(p % k for k in range(2, p)) and p % math.lcm(a, b) == 1
        ]
        # and at the least such prime above 1000
        + [
            (a, b, next(p for p in range(1001, 2000) if p % math.lcm(a, b) == 1 and all(p % k for k in range(2, p))))
            for a in range(2, 8)
            for b in range(a, 8)
        ],
    )
    def test_diagonal_fpt_closed_form(self, a, b, p):
        # Hernandez, "F-invariants of diagonal hypersurfaces" (Proc. AMS 143,
        # 2015): for p = 1 mod lcm(a, b) the F-pure threshold of x^a + y^b is
        # min(1, 1/a + 1/b), its value in characteristic 0
        ctx = RingContext(p, ("x", "y"))
        report = enumerate_jumps(poly(ctx, f"x^{a}+y^{b}"), Fraction(1))
        expected = min(Fraction(1), Fraction(1, a) + Fraction(1, b))
        assert report.jumps[0].c == expected
        assert all(lo >= expected for lo, _ in report.unresolved)

    @pytest.mark.parametrize("p,e", [(2, 4), (3, 3), (5, 2)])
    def test_distinct_roots_bounded_by_monomials(self, p, e):
        # the premise of a complete jump list: tau(f^c) for c in (0, 1] is
        # generated in degree <= deg f, so I_e(f^r), r = 1..p^e, takes at
        # most as many values as there are monomials of degree <= deg f;
        # each value comes from the definition, the root of the expanded f^r
        rng = random.Random(400 + p)
        ctx = RingContext(p, ("x", "y"))
        for _ in range(12):
            f = random_poly(rng, ctx, max_terms=4, max_exp=3)
            values = {frobenius_root_poly(f**r, e).groebner_basis() for r in range(1, p**e + 1)}
            assert len(values) <= math.comb(2 + f.total_degree(), 2), f

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

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_fraction_ranking(self, p):
        # the list and its order against the ranking by Fraction values: every
        # r for p^e <= 4096; above that, up to e = 7, the ends, uniform draws
        # and draws whose digits repeat a short block after a random prefix
        rng = random.Random(227 + p)
        for e in range(1, 8):
            q = p**e
            if q <= 4096:
                rs = range(1, q + 1)
            else:
                rs = [1, 2, q - 1, q] + [rng.randint(1, q) for _ in range(60)]
                for _ in range(60):
                    block = [rng.randrange(p) for _ in range(rng.randint(1, 3))]
                    digits = (block * e)[:e]
                    for i in range(rng.randint(0, e - 1)):
                        digits[i] = rng.randrange(p)
                    rs.append(1 + sum(x * p**i for i, x in enumerate(reversed(digits))))
            for r in rs:
                got = testideals._interval_candidates(p, e, r)
                assert got == oracles.interval_candidates(p, e, r), (p, e, r)


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


def _binomial_and_state(rng, p, congruent=False):
    """A random binomial a*x^u + b*x^v in 1-3 variables and a monomial ideal
    of 1-3 generators, some past p; u = v mod p with ``congruent``, and
    otherwise not."""
    ctx = RingContext(p, ("x", "y", "z")[: rng.randint(1, 3)])
    n = ctx.nvars
    v = tuple(rng.randint(0, 6) for _ in range(n))
    while True:
        if congruent:
            u = tuple(x + p * rng.randint(0, 2) for x in v)
        else:
            u = tuple(rng.randint(0, 6) for _ in range(n))
        if u != v and congruent != any((a - b) % p for a, b in zip(u, v)):
            break
    f = Polynomial(ctx, {u: rng.randint(1, p - 1), v: rng.randint(1, p - 1)})
    top = rng.choice([3, 3 * p])
    gens = [Polynomial(ctx, {tuple(rng.randint(0, top) for _ in range(n)): 1}) for _ in range(rng.randint(1, 3))]
    return f, Ideal(ctx, gens)


class TestBinomialStep:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101, 1009])
    def test_matches_the_general_root(self, p):
        rng = random.Random(600 + p)
        for _ in range(12):
            f, J = _binomial_and_state(rng, p)
            digits = range(p) if p < 100 else rng.sample(range(p), 12)
            for d in digits:
                root = testideals.frobenius_root_ideal(J, 1, f, d)
                assert root == frobenius_root_ideal(J, 1, f**d), (f, d, J)
                # the minimal monomials are the reduced basis
                assert root.generators == root.groebner_basis()

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_congruent_exponents_take_the_general_path(self, monkeypatch, p):
        rng = random.Random(700 + p)
        general, splits = [], []
        real, real_split = testideals.frobenius_root_ideal, frobenius._split

        def counted(I, e, h=None, d=1, free=None):
            general.append(h)
            return real(I, e, h, d, free)

        def counted_split(g, e):
            splits.append(g)
            return real_split(g, e)

        monkeypatch.setattr(testideals, "frobenius_root_ideal", counted)
        monkeypatch.setattr(frobenius, "_split", counted_split)
        for _ in range(8):
            f, J = _binomial_and_state(rng, p, congruent=True)
            table = testideals._DigitTable(f)
            i = table.state(J)
            for d in range(p):
                expected = real(J, 1, f**d)
                general.clear()
                splits.clear()
                assert table.states[testideals._step(table, f, d, i)] == expected, (f, d, J)
                assert len(general) == 1
                # d = 0 is read off the exponents; every other d splits f^d * J.
                # u = v mod p with u != v gives f degree >= p in some variable,
                # so the degree rule for a unit root never fires at d > 0
                assert bool(splits) == bool(d)

    def test_monomial_step_builds_no_power(self, monkeypatch):
        ctx = RingContext(5, ("x", "y"))
        f, J = poly(ctx, "x^2+y^3"), ideal(ctx, "x^3", "x*y^2")
        expected = [frobenius_root_ideal(J, 1, f**d) for d in range(5)]

        def refused(g, d):
            raise AssertionError(f"built {g}^{d}")

        monkeypatch.setattr(Polynomial, "_small_pow", refused)
        assert [testideals.frobenius_root_ideal(J, 1, f, d) for d in range(5)] == expected


class TestCarriedSteps:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_carried_step_matches_the_general_root(self, p):
        # states[j] = f^n * K is carried: its step at d is K's step at
        # (d + n) mod p, shifted by f^((d + n) div p)
        rng = random.Random(900 + p)
        ctx = RingContext(p, ("x", "y"))
        for terms in (1, 2, 3, 4):
            f = random_poly(rng, ctx, max_terms=terms, max_exp=2)
            while len(f.terms) != terms or f.is_constant():
                f = random_poly(rng, ctx, max_terms=terms, max_exp=2)
            monomial = Ideal(ctx, [poly(ctx, f"x^{rng.randint(0, 2 * p)}*y^{rng.randint(0, 3)}"), poly(ctx, "y^2")])
            cases = [(K, n) for K in (monomial, random_ideal(rng, ctx, max_gens=2, max_exp=2))
                     for n in (rng.randint(1, p), rng.randint(p + 1, 2 * p))]
            for K, n in cases:
                table = testideals._DigitTable(f)
                k = table.state(K)
                j = testideals._shift(table, f, n, k)
                assert table.carry[j] == (n, k)
                for d in range(p):
                    step = table.states[testideals._step(table, f, d, j)]
                    assert step == frobenius_root_ideal(table.states[j], 1, f**d), (f, n, d, K)
                # a shift of a shift is recorded flat, against K
                m = rng.randint(1, p)
                assert table.carry[testideals._shift(table, f, m, j)] == (n + m, k)

    def test_seed_is_carried_from_the_unit_state(self, ctx5):
        f = poly(ctx5, "x^2+y^3")
        table = testideals._DigitTable(f)
        seed = table.state(table.seed(f))
        assert table.carry[seed] == (1, table.state(Ideal.unit(ctx5)))
        # at d = p - 1 the step is <f> itself: I_1(f^p) = f * I_1(<1>)
        assert testideals._step(table, f, 4, seed) == seed

    @pytest.mark.parametrize("text", ["3", "1"])
    def test_constant_f_is_never_its_own_shift(self, ctx5, text):
        # <f> = <1> for a unit f, so no state may be carried from itself
        f = poly(ctx5, text)
        one = Ideal.unit(ctx5)
        for c in (Fraction(1, 2), Fraction(5, 6), Fraction(7, 4), Fraction(3)):
            assert tau(f, c) == one
            assert tau_left_limit(f, c) == one
        with testideals.shared_roots():
            assert all(tau(f, c) == tau_left_limit(f, c) == one for c in (Fraction(2, 3), Fraction(9, 4)))
            assert not testideals._table(f).carry


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

    def test_repeats_are_one_object(self, ctx3, monkeypatch):
        # c > 1 ends in a Skoda shift f^n * J: inside a block each one is
        # built once, and a repeated tau returns the very same object
        shifts = []
        scale = Ideal.scale

        def counted(J, h):
            shifts.append((h, J))
            return scale(J, h)

        monkeypatch.setattr(Ideal, "scale", counted)
        f = poly(ctx3, "x^2+y^3")
        exponents = (Fraction(7, 4), Fraction(5, 2), Fraction(3), Fraction(13, 9))
        with testideals.shared_roots():
            for c in exponents:
                first = tau(f, c)
                assert tau(f, c) is first
        assert len(shifts) == len(set(shifts)) == len(exponents)

    def test_equal_values_are_one_object(self, ctx3):
        # jumps at 2/3, 1, 5/3 and 2 (p = 3): each group is one value of
        # tau reached through different digit steps and shifts
        f = poly(ctx3, "x^2+y^3")
        groups = [
            [(tau, Fraction(7, 10)), (tau, Fraction(3, 4)), (tau_left_limit, Fraction(1))],
            [(tau, Fraction(17, 10)), (tau, Fraction(7, 4)), (tau_left_limit, Fraction(2))],
        ]
        with testideals.shared_roots():
            for group in groups:
                first, *rest = (fn(f, c) for fn, c in group)
                assert all(value is first for value in rest)
        assert tau(f, Fraction(7, 10)) is not tau(f, Fraction(3, 4))

    @pytest.mark.parametrize(("p", "text"), [(3, "2*x^2"), (5, "2*x*y+2")])
    def test_interned_values_keep_their_reduced_basis(self, p, text):
        # f is not monic, so (f,) is not the reduced basis of <f>: the seed
        # <f> of tau at 1/2 is interned first, and tau at 1 is equal to it
        f = poly(RingContext(p, ("x", "y")), text)
        exponents = (Fraction(1, 2), Fraction(1), Fraction(2, 3), Fraction(7, 3))
        seed = Ideal(f.ctx, (f,))
        with testideals.shared_roots():
            values = [fn(f, c) for c in exponents for fn in (tau, tau_left_limit)]
            values += [tau_dyadic(f, r, e) for r, e in ((1, 1), (p, 1), (p + 1, 2))]
            values += [phi_step(f, a, beta, seed) for a, beta in ((0, 1), (1, 1), (p, 2))]
        assert values[2] == seed
        assert all(value.generators == value.groebner_basis() for value in values)

    def test_repeats_walk_the_table_alone(self, ctx3, monkeypatch):
        # a repeated query takes no root, and f parsed twice shares one table
        calls = []
        real = testideals.frobenius_root_ideal

        def counted(I, e, h=None, d=1, free=None):
            calls.append(e)
            return real(I, e, h, d, free)

        monkeypatch.setattr(testideals, "frobenius_root_ideal", counted)
        queries = [(tau, Fraction(5, 6)), (tau_left_limit, Fraction(5, 6)), (tau, Fraction(7, 4))]
        with testideals.shared_roots():
            first = [fn(poly(ctx3, "x^2+y^3"), c) for fn, c in queries]
            assert calls
            calls.clear()
            again = [fn(poly(ctx3, "x^2+y^3"), c) for fn, c in queries]
            assert calls == []
            assert len(testideals._step_memo.get()) == 1
        assert all(a is b for a, b in zip(first, again))
        assert testideals._step_memo.get() is None

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

        def counted(J, e, f=None, d=1, free=None):
            calls.append(d)
            return real(J, e, f, d, free)

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

    @pytest.mark.parametrize(
        ("p", "text", "c"),
        [
            (5, "x^2+y^3", Fraction(19, 24)),
            # exponent differences (3, -4), (2, -2): independent mod 5
            (5, "x^3+y^4+x^2*y^2", Fraction(3, 4)),
            # exponent differences (4, -4), (2, -2): dependent mod 5
            (5, "x^4+x^2*y^2+y^4", Fraction(19, 24)),
        ],
    )
    def test_monomial_steps_build_powers_only_for_dependent_f(self, monkeypatch, p, text, c):
        built, steps = [], []
        real_pow, real_step = Polynomial._small_pow, testideals.frobenius_root_ideal

        def counted_pow(g, d):
            built.append(d)
            return real_pow(g, d)

        def counted_step(J, e, f=None, d=1, free=None):
            before = len(built)
            root = real_step(J, e, f, d, free)
            monomial = all(len(g.terms) == 1 for g in J.generators)
            steps.append((d, monomial, len(built) - before))
            return root

        monkeypatch.setattr(Polynomial, "_small_pow", counted_pow)
        monkeypatch.setattr(testideals, "frobenius_root_ideal", counted_step)
        f = poly(RingContext(p, ("x", "y")), text)
        tau(f, c)
        monomial_steps = [pows for d, monomial, pows in steps if d > 1 and monomial]
        assert monomial_steps
        if frobenius.independent_differences(f):
            # steps on monomial states come from exponents alone
            assert not any(monomial_steps)
        else:
            # a dependent f builds f^d for each of them
            assert all(monomial_steps)
        assert testideals._step_memo.get() is None

    def test_budget_error_closes_the_query_block(self, ctx3, monkeypatch):
        monkeypatch.setattr(testideals, "PHI_STEP_BUDGET", 0)
        with pytest.raises(BudgetExceededError):
            tau(poly(ctx3, "x^2+y^3"), Fraction(1, 2))
        assert testideals._step_memo.get() is None

    def test_table_memos_match_calls_outside_a_block(self):
        # the block asks everything twice, so the second round reads the Phi
        # traces, the tau values and the containments from the table memos
        rng = random.Random(113)
        for p in (2, 3, 5):
            for names in (("x", "y"), ("x", "y", "z")):
                ctx = RingContext(p, names)
                f = random_poly(rng, ctx, max_terms=3, max_exp=3)
                if f.is_constant():
                    continue
                cs = [Fraction(rng.randint(1, 8), rng.choice([2, 3, 4, p, p + 1])) for _ in range(4)]
                classes = [(rng.randint(1, 2 * p), rng.randint(1, 2)) for _ in range(3)]

                def answers():
                    out = [(tau(f, c).generators, tau_left_limit(f, c).generators) for c in cs]
                    jumps = [is_jumping(f, c) for c in cs]
                    out += [(jt.tau_left.generators, jt.tau_at.generators) for jt in jumps]
                    traces = [chains.chain(f, a, beta) for a, beta in classes]
                    out += [[term.generators for term in trace.terms] for trace in traces]
                    for n1 in traces:
                        for n2 in traces:
                            cmp = chains.nil_compare(n1, n2)
                            out.append((cmp.gamma_order, cmp.representative_order))
                    return out

                expected = answers()
                with testideals.shared_roots():
                    for _ in range(2):
                        assert answers() == expected

    def test_repeats_take_no_step_and_no_normal_form(self, ctx3, monkeypatch):
        steps, forms, fixed = [], [], []

        def counting(owner, name, log):
            real = getattr(owner, name)

            def counted(*args):
                log.append(args)
                return real(*args)

            monkeypatch.setattr(owner, name, counted)

        counting(testideals, "frobenius_root_ideal", steps)
        counting(ideals, "normal_form", forms)
        # tau's own binding: chain calls Phi through the one chains imports
        counting(testideals, "_phi_fixed_point", fixed)
        f = poly(ctx3, "x^2+y^3")

        def answers():
            traces = [chains.chain(f, a, beta) for a, beta in ((1, 1), (5, 2), (2, 1))]
            orders = [chains.nil_compare(traces[0], other) for other in traces[1:]]
            jt = is_jumping(f, Fraction(2, 3))
            return [t.terms for t in traces], orders, (jt.tau_left, jt.tau_at)

        with testideals.shared_roots():
            first = answers()
            assert steps and forms and fixed
            steps.clear(), forms.clear(), fixed.clear()
            # a repeated chain walks its trace on known steps, a repeated
            # containment takes no normal form, and a repeated tau starts no
            # Phi chain
            assert answers() == first
            assert steps == forms == fixed == []
