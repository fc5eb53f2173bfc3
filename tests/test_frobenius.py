import random
import time

import pytest

from fjump import (
    BudgetExceededError,
    Ideal,
    Polynomial,
    RingContext,
    frobenius_decompose,
    frobenius_root_ideal,
    frobenius_root_poly,
    reduced_groebner,
    ring,
)

from conftest import ideal, poly, random_ideal, random_poly, reassemble
from oracles import bracket_power


class TestDecompose:
    def test_cusp_char2(self, ctx2):
        parts = frobenius_decompose(poly(ctx2, "x^2 + y^3"), 1)
        assert parts == {(0, 0): poly(ctx2, "x"), (0, 1): poly(ctx2, "y")}

    def test_single_monomial(self):
        ctx = RingContext(2, ("x",))
        parts = frobenius_decompose(poly(ctx, "x^5"), 2)
        assert parts == {(1,): poly(ctx, "x")}

    def test_zero(self, ctx2):
        assert frobenius_decompose(Polynomial.zero(ctx2), 1) == {}

    def test_invalid_level(self, ctx2):
        with pytest.raises(ValueError):
            frobenius_decompose(poly(ctx2, "x"), 0)

    def test_reconstruction_oracle(self):
        rng = random.Random(13)
        for p in (2, 3, 5):
            ctx = RingContext(p, ("x", "y"))
            for e in (1, 2, 3):
                for _ in range(10):
                    f = random_poly(rng, ctx, max_terms=5, max_exp=9)
                    assert reassemble(ctx, frobenius_decompose(f, e), e) == f

    def test_levels_past_the_largest_exponent(self):
        # from the bit length L of the largest exponent on, p^e exceeds every
        # exponent: each term is its own class, with a constant part
        rng = random.Random(17)
        for p in (2, 3, 5):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(10):
                f = random_poly(rng, ctx, max_terms=5, max_exp=20)
                top = max(map(max, f.terms)).bit_length()
                own = {m: Polynomial(ctx, {(0, 0): c}) for m, c in f.terms.items()}
                for e in (top, top + 1, top + 7, 10**12):
                    assert frobenius_decompose(f, e) == own


class TestRootOfPolynomial:
    def test_cusp_char2(self, ctx2):
        assert frobenius_root_poly(poly(ctx2, "x^2 + y^3"), 1) == ideal(ctx2, "x", "y")

    def test_monomial_floor_rule(self, ctx2):
        assert frobenius_root_poly(poly(ctx2, "x^5y^3"), 2) == ideal(ctx2, "x")

    def test_freshman_collapse(self, ctx3):
        assert frobenius_root_poly(poly(ctx3, "x^3 + y^3"), 1) == ideal(ctx3, "x + y")

    def test_monomial_oracle_exhaustive(self):
        # I_e(x^m) = <x^(m div p^e)>, single variable, every m <= 200, e <= 5
        for p in (2, 3, 5):
            ctx = RingContext(p, ("x",))
            x = poly(ctx, "x")
            for e in range(1, 6):
                q = p**e
                for m in range(201):
                    expected = Ideal(ctx, (x ** (m // q),))
                    assert frobenius_root_poly(x**m, e) == expected

    def test_monomial_componentwise(self, ctx3):
        rng = random.Random(17)
        for _ in range(20):
            a, b = rng.randint(0, 30), rng.randint(0, 30)
            e = rng.randint(1, 3)
            q = 3**e
            f = Polynomial(ctx3, {(a, b): 1})
            expected = Ideal(ctx3, (Polynomial(ctx3, {(a // q, b // q): 1}),))
            assert frobenius_root_poly(f, e) == expected


class TestRootOfIdeal:
    def test_zero_and_unit(self, ctx2):
        assert frobenius_root_ideal(Ideal(ctx2), 1).is_zero()
        assert frobenius_root_ideal(Ideal.unit(ctx2), 2).is_unit()

    def test_constant_part_is_unit(self):
        # f = x*h^(p^e) + c*x^lam with lam in [0, p^e)^2: the class of lam holds
        # the constant c alone, so the root is <1>, unless lam = (1, 0), where
        # it holds h + c. The ideal of all parts is built without the shortcut.
        rng = random.Random(43)
        for p in (2, 3, 5):
            ctx = RingContext(p, ("x", "y"))
            for e in (1, 2):
                for _ in range(10):
                    lam = (rng.randrange(2), rng.randrange(p**e))
                    hq = random_poly(rng, ctx, max_terms=3, max_exp=3).frobenius_stretch(e)
                    f = hq.scale_term((1, 0)) + Polynomial(ctx, {lam: rng.randint(1, p - 1)})
                    I = Ideal(ctx, (random_poly(rng, ctx), f))
                    parts = [h for g in I.generators for h in frobenius_decompose(g, e).values()]
                    root = frobenius_root_ideal(I, e)
                    assert root == Ideal(ctx, parts)
                    assert root.is_unit() or lam == (1, 0)
        assert frobenius_root_ideal(ideal(RingContext(2, ("x", "y")), "x + y^2"), 1).is_unit()

    @pytest.mark.parametrize("p", [2, 3, 5, 101])
    def test_singleton_classes(self, p):
        # generators built class by class: each class one term with a nonzero
        # outer exponent, except the first class of each generator, which has
        # several terms for "mixed" and is a lone constant for "constant"
        rng = random.Random(500 + p)
        for e in (1, 2, 3):
            q = p**e
            for kind in ("single", "mixed", "constant") * 8:
                n = rng.randint(1, 3)
                ctx = RingContext(p, ("x", "y", "z")[:n])
                gens = []
                for _ in range(rng.randint(1, 3)):
                    lams = {tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(1, 4))}
                    terms = {}
                    for i, lam in enumerate(lams):
                        for _ in range(rng.randint(2, 3) if kind == "mixed" and i == 0 else 1):
                            outer = [0] * n
                            if kind != "constant" or i:
                                outer = [rng.randint(0, 3) for _ in range(n)]
                                outer[rng.randrange(n)] = rng.randint(1, 3)
                            terms[tuple(o * q + x for o, x in zip(outer, lam))] = rng.randint(1, p - 1)
                    gens.append(Polynomial(ctx, terms))
                parts = [h for g in gens for h in frobenius_decompose(g, e).values()]
                root = frobenius_root_ideal(Ideal(ctx, tuple(gens)), e)
                assert root == Ideal(ctx, parts), (kind, gens, e)
                monomials = [m for g in root.generators if len(g.terms) == 1 for m in g.terms]
                for a in monomials:
                    assert sum(all(x <= y for x, y in zip(a, b)) for b in monomials) == 1, (a, monomials)
                assert root.is_unit() or kind != "constant"

    def test_constant_among_other_terms_is_not_unit(self):
        for p in (2, 3, 5):
            ctx = RingContext(p, ("x",))
            root = frobenius_root_ideal(ideal(ctx, f"1 + x^{p}"), 1)
            assert root == ideal(ctx, "1 + x")
            assert not root.is_unit()

    def test_perfect_powers(self, ctx2):
        assert frobenius_root_ideal(ideal(ctx2, "x^2", "y^2"), 1) == ideal(ctx2, "x", "y")

    def test_all_monomial_root_carries_its_reduced_basis(self, ctx3):
        # the classes of x^4 y, x y^5, x^3 y^3, x^3 y and y^6 hold one term each
        root = frobenius_root_ideal(ideal(ctx3, "x^4*y + x*y^5", "x^3*y^3", "x^3*y + y^6"), 1)
        assert root._gb is not None
        assert root._gb == reduced_groebner(root.generators, ctx3) == ideal(ctx3, "y", "x").groebner_basis()

    def test_generator_independence(self, ctx3):
        rng = random.Random(19)
        for _ in range(10):
            I = random_ideal(rng, ctx3)
            gens = I.generators
            extra = gens[0] * gens[-1] + gens[0]
            J = Ideal(ctx3, gens + (extra,))
            for e in (1, 2):
                assert frobenius_root_ideal(I, e) == frobenius_root_ideal(J, e)

    def test_monotone(self, ctx2):
        rng = random.Random(23)
        for _ in range(10):
            I = random_ideal(rng, ctx2)
            J = Ideal(ctx2, I.generators + random_ideal(rng, ctx2).generators)
            for e in (1, 2):
                assert frobenius_root_ideal(J, e).contains(frobenius_root_ideal(I, e))


class TestExponentSteps:
    def test_budget_refusal_is_immediate(self):
        # about 2.1*10^9 splits of d = 65520 over x, y, z, 1: refused unbuilt
        ctx = RingContext(65521, ("x", "y", "z"))
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="expanding f"):
            frobenius_root_ideal(Ideal.unit(ctx), 1, poly(ctx, "x+y+z+1"), 65520)
        assert time.perf_counter() - start < 1

    def test_budget_counts_splits_times_generators(self, monkeypatch):
        # C(6 + 2, 2) = 28 splits of d = 6 before the last two terms, for each
        # of the two generators
        ctx = RingContext(7, ("x", "y", "z"))
        f, J = poly(ctx, "x+y+z+1"), ideal(ctx, "x^7", "y^7*z^3")
        expected = Ideal(ctx, [g for w in J.generators for g in frobenius_root_poly(f**6 * w, 1).generators])
        monkeypatch.setattr(ring, "EXPANSION_TERM_BUDGET", 56)
        assert frobenius_root_ideal(J, 1, f, 6) == expected
        monkeypatch.setattr(ring, "EXPANSION_TERM_BUDGET", 55)
        with pytest.raises(BudgetExceededError, match="expanding f"):
            frobenius_root_ideal(J, 1, f, 6)


class TestStarAndMinimality:
    def test_star_examples(self, ctx2):
        for I, e in ((ideal(ctx2, "x^2 + y^3"), 1), (Ideal.unit(ctx2), 3)):
            assert bracket_power(frobenius_root_ideal(I, e), 2**e).contains(I)

    def test_star_random(self):
        rng = random.Random(29)
        for p in (2, 3, 5):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(10):
                I = random_ideal(rng, ctx)
                for e in (1, 2):
                    assert bracket_power(frobenius_root_ideal(I, e), p**e).contains(I)

    def test_galois_connection(self, ctx2):
        # J^[q] contains <f>  iff  J contains I_e(<f>), both directions
        rng = random.Random(31)
        for _ in range(20):
            f = random_poly(rng, ctx2, max_terms=3, max_exp=5)
            e = rng.randint(1, 2)
            q = 2**e
            root = frobenius_root_poly(f, e)
            candidates = [
                root,
                Ideal(ctx2, root.generators + random_ideal(rng, ctx2).generators),
                random_ideal(rng, ctx2),
                Ideal(ctx2, root.generators[:1]),
            ]
            for J in candidates:
                lhs = bracket_power(J, q).contains_poly(f)
                rhs = J.contains(root)
                assert lhs == rhs


class TestCompositionAndSkew:
    def test_composition(self):
        rng = random.Random(37)
        for p in (2, 3):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(10):
                I = random_ideal(rng, ctx)
                for e, e2 in ((1, 1), (1, 2), (2, 1)):
                    assert frobenius_root_ideal(frobenius_root_ideal(I, e), e2) == frobenius_root_ideal(I, e + e2)

    def test_skew_identity(self):
        rng = random.Random(41)
        for p in (2, 3):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(10):
                I = random_ideal(rng, ctx)
                h = random_poly(rng, ctx, max_terms=2, max_exp=3)
                for e in (1, 2):
                    lhs = frobenius_root_ideal(I.scale(h ** (p**e)), e)
                    rhs = frobenius_root_ideal(I, e).scale(h)
                    assert lhs == rhs
