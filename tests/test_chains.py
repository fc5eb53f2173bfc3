import random
from fractions import Fraction

import pytest

from fjump import (
    BudgetExceededError,
    Ideal,
    Polynomial,
    RingContext,
    bijection_check,
    chain,
    frobenius_root_poly,
    nil_compare,
    tau,
    tau_left_limit,
    testideals,
)

from conftest import ideal, poly, random_poly


def random_chain_poly(rng, ctx, beta):
    # keep the direct-definition expansion g^(a*(q^3 - 1)/(q - 1)) tractable
    max_terms = 2 if (ctx.p, beta) == (3, 2) else 3
    return random_poly(rng, ctx, max_terms=max_terms, max_exp=3)


class TestChain:
    def test_immediate_stabilization(self):
        ctx = RingContext(2, ("x",))
        trace = chain(poly(ctx, "x"), 1, 1)
        assert trace.terms[0] == Ideal.unit(ctx)
        assert trace.stab_index == 1
        assert trace.stable == Ideal.unit(ctx)

    def test_two_steps(self):
        ctx = RingContext(2, ("x",))
        trace = chain(poly(ctx, "x"), 3, 1)
        assert [t.generator_strings() for t in trace.terms] == [["x"], ["x^2"], ["x^2"]]
        assert trace.stab_index == 2

    def test_cusp_below_fpt(self, ctx7):
        trace = chain(poly(ctx7, "x^2 + y^3"), 5, 1)
        assert trace.stable == Ideal.unit(ctx7)

    def test_zero_exponent(self):
        ctx = RingContext(2, ("x",))
        trace = chain(poly(ctx, "x"), 0, 1)
        assert trace.stable == Ideal.unit(ctx)

    def test_descending_and_bounded(self):
        rng = random.Random(109)
        for p in (2, 3):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(8):
                beta = rng.randint(1, 2)
                g = random_chain_poly(rng, ctx, beta)
                trace = chain(g, rng.randint(1, 6), beta)
                assert trace.stab_index <= 32
                for earlier, later in zip(trace.terms, trace.terms[1:]):
                    assert earlier.contains(later)

    def test_recursion_matches_definition(self):
        rng = random.Random(113)
        for p in (2, 3):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(5):
                beta = rng.randint(1, 2)
                a = rng.randint(1, 6)
                g = random_chain_poly(rng, ctx, beta)
                trace = chain(g, a, beta)
                q = p**beta
                for s in range(1, min(3, len(trace.terms)) + 1):
                    direct = frobenius_root_poly(g ** (a * ((q**s - 1) // (q - 1))), s * beta)
                    assert trace.terms[s - 1] == direct

    def test_stable_equals_left_limit(self):
        rng = random.Random(127)
        for p in (2, 3):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(6):
                beta = rng.randint(1, 2)
                a = rng.randint(1, 6)
                g = random_chain_poly(rng, ctx, beta)
                gamma = Fraction(a, p**beta - 1)
                assert chain(g, a, beta).stable == tau_left_limit(g, gamma)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(testideals, "PHI_STEP_BUDGET", 1)
        ctx = RingContext(2, ("x",))
        with pytest.raises(BudgetExceededError):
            chain(poly(ctx, "x"), 3, 1)

    def test_rejects_zero(self, ctx2):
        with pytest.raises(ValueError):
            chain(Polynomial.zero(ctx2), 1, 1)


class TestNilClass:
    def test_examples(self):
        ctx = RingContext(2, ("x",))
        x = poly(ctx, "x")
        n = chain(x, 1, 1)
        assert n.stable == Ideal.unit(ctx) and n.gamma == 1
        n = chain(x, 3, 1)
        assert n.stable == ideal(ctx, "x^2") and n.gamma == 3
        n = chain(x, 0, 1)
        assert n.stable == Ideal.unit(ctx) and n.gamma == 0

    def test_representative_is_left_limit(self, ctx7):
        g = poly(ctx7, "x^2 + y^3")
        n = chain(g, 5, 1)
        assert n.gamma == Fraction(5, 6)
        assert n.stable == tau_left_limit(g, Fraction(5, 6))


class TestNilCompare:
    def test_strict(self):
        ctx = RingContext(2, ("x",))
        x = poly(ctx, "x")
        cmp = nil_compare(chain(x, 1, 1), chain(x, 3, 1))
        assert cmp.gamma_order == "<" and cmp.representative_order == ">"
        assert cmp.consistent

    def test_self(self):
        ctx = RingContext(2, ("x",))
        n = chain(poly(ctx, "x"), 2, 1)
        cmp = nil_compare(n, n)
        assert cmp.gamma_order == "=" and cmp.representative_order == "="
        assert cmp.consistent

    def test_cross_beta(self):
        ctx = RingContext(2, ("x",))
        x = poly(ctx, "x")
        cmp = nil_compare(chain(x, 2, 1), chain(x, 3, 2))
        assert cmp.gamma_order == ">"  # gamma 2 vs 1
        assert cmp.representative_order in ("<", "=")
        assert cmp.consistent

    def test_total_order_random(self):
        rng = random.Random(131)
        for p in (2, 3, 7):
            ctx = RingContext(p, ("x", "y"))
            g = poly(ctx, "x^2 + y^3")
            classes = [
                chain(g, rng.randint(0, 2 * p), rng.randint(1, 2))
                for _ in range(5)
            ]
            for i in range(len(classes)):
                for j in range(len(classes)):
                    cmp = nil_compare(classes[i], classes[j])
                    assert cmp.consistent

    def test_different_polynomials_rejected(self, ctx2):
        n1 = chain(poly(ctx2, "x"), 1, 1)
        n2 = chain(poly(ctx2, "y"), 1, 1)
        with pytest.raises(ValueError):
            nil_compare(n1, n2)


class TestBijectionCheck:
    def test_at_zero(self):
        ctx = RingContext(2, ("x",))
        assert bijection_check(poly(ctx, "x"), Fraction(0), Fraction(1))

    def test_at_one(self):
        ctx = RingContext(2, ("x",))
        assert bijection_check(poly(ctx, "x"), Fraction(1), Fraction(2))

    def test_cusp(self, ctx7):
        g = poly(ctx7, "x^2 + y^3")
        assert bijection_check(g, Fraction(5, 6), Fraction(1))

    def test_without_next_jump(self):
        ctx = RingContext(2, ("x",))
        assert bijection_check(poly(ctx, "x"), Fraction(2))

    def test_distinct_tau_distinct_class(self, ctx7):
        # injectivity: the class value reproduces tau exactly at each level
        g = poly(ctx7, "x^2 + y^3")
        values = [tau(g, c) for c in (Fraction(0), Fraction(5, 6), Fraction(1))]
        assert values[0] != values[1] != values[2]
