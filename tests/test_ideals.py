import itertools
import random

import pytest

from fjump import (
    BudgetExceededError,
    Ideal,
    Polynomial,
    RingContext,
    grevlex_key,
    ideals,
    normal_form,
    reduced_groebner,
)

from conftest import ideal, poly, random_ideal, random_poly
from oracles import bracket_power, decompose


class TestReducedGroebner:
    def test_triangular(self, ctx2):
        # basis sorted ascending by grevlex leading term (y < x there)
        assert ideal(ctx2, "x", "x + y").groebner_basis() == (
            poly(ctx2, "y"),
            poly(ctx2, "x"),
        )

    def test_monomial_already_reduced(self, ctx2):
        gb = ideal(ctx2, "x^2", "xy").groebner_basis()
        assert set(gb) == {poly(ctx2, "x^2"), poly(ctx2, "xy")}

    def test_zero_ideal(self, ctx2):
        assert Ideal(ctx2).groebner_basis() == ()

    def test_unit_ideal(self, ctx3):
        assert ideal(ctx3, "2").groebner_basis() == (Polynomial.one(ctx3),)

    def test_gb_is_monic(self, ctx5):
        for g in ideal(ctx5, "3x^2 + y", "2y^2").groebner_basis():
            assert g.terms[g.leading_monomial()] == 1

    def test_uniqueness_under_shuffle(self):
        rng = random.Random(21)
        for p in (2, 3, 5):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(15):
                gens = [random_poly(rng, ctx, max_terms=3, max_exp=4) for _ in range(3)]
                reference = Ideal(ctx, tuple(gens)).groebner_basis()
                shuffled = gens[:]
                rng.shuffle(shuffled)
                assert Ideal(ctx, tuple(shuffled)).groebner_basis() == reference

    def test_classic_example(self):
        # twisted cubic relations over F_5
        ctx = RingContext(5, ("x", "y", "z"))
        I = ideal(ctx, "x^2 - y", "x^3 - z")
        gb = I.groebner_basis()
        for g in ("x^2 - y", "xy - z", "xz - y^2"):
            assert I.contains_poly(poly(ctx, g))
        assert len(gb) == 3

    def test_pair_budget(self, monkeypatch):
        monkeypatch.setattr(ideals, "BUCHBERGER_PAIR_BUDGET", 1)
        ctx = RingContext(5, ("x", "y", "z"))
        gens = [poly(ctx, t) for t in ("x^2 - y", "x^3 - z", "y^3 + x*z")]
        with pytest.raises(BudgetExceededError):
            reduced_groebner(gens, ctx)


def _textbook_groebner(gens, ctx):
    """Reduced Groebner basis by plain Buchberger: every S-pair, no criteria."""
    p = ctx.p

    def lead(f):
        m = max(f.terms, key=grevlex_key)
        return m, f.terms[m]

    def times(f, m, c):  # f * c * x^m
        return Polynomial(ctx, {tuple(map(sum, zip(t, m))): a * c for t, a in f.terms.items()})

    def reduce(f, G):
        rest = Polynomial.zero(ctx)
        while not f.is_zero():
            m, c = lead(f)
            hit = next(((g, lg) for g, lg in G if all(map(int.__le__, lg[0], m))), None)
            if hit is None:
                rest, f = rest + Polynomial(ctx, {m: c}), f - Polynomial(ctx, {m: c})
            else:
                (g, (gm, gc)) = hit
                f = f - times(g, tuple(a - b for a, b in zip(m, gm)), c * pow(gc, -1, p))
        return rest

    def s_poly(f, g):
        (mf, cf), (mg, cg) = lead(f), lead(g)
        m = tuple(map(max, mf, mg))
        shift = tuple(a - b for a, b in zip(m, mf)), tuple(a - b for a, b in zip(m, mg))
        return times(f, shift[0], pow(cf, -1, p)) - times(g, shift[1], pow(cg, -1, p))

    G = [(g, lead(g)) for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        # smallest lcm first: the order keeps the run short, it drops no pair
        pairs.sort(key=lambda ij: grevlex_key(tuple(map(max, G[ij[0]][1][0], G[ij[1]][1][0]))))
        i, j = pairs.pop(0)
        s = reduce(s_poly(G[i][0], G[j][0]), G)
        if not s.is_zero():
            pairs.extend((k, len(G)) for k in range(len(G)))
            G.append((s, lead(s)))
    # keep one element per minimal leading monomial, then reduce the tails
    minimal = []
    for g, (m, _) in sorted(G, key=lambda gl: grevlex_key(gl[1][0])):
        if not any(all(map(int.__le__, lh, m)) for _, (lh, _) in minimal):
            minimal.append((g, lead(g)))
    out = [reduce(g, minimal[:n] + minimal[n + 1 :]) for n, (g, _) in enumerate(minimal)]
    return tuple(times(g, (0,) * ctx.nvars, pow(lead(g)[1], -1, p)) for g in out)


def _random_monomials(rng, nvars, count, max_exp):
    return [tuple(rng.randint(0, max_exp) for _ in range(nvars)) for _ in range(count)]


class TestTextbookOracle:
    """reduced_groebner against the plain Buchberger above, on seeded ideals."""

    @staticmethod
    def cases(seed):
        rng = random.Random(seed)
        for p in (2, 3, 5):
            for nvars in (2, 3):
                yield rng, RingContext(p, ("x", "y", "z")[:nvars])

    def check(self, ctx, gens):
        assert reduced_groebner(gens, ctx) == _textbook_groebner(gens, ctx)

    def test_all_monomial(self):
        for rng, ctx in self.cases(91):
            for _ in range(8):
                monos = _random_monomials(rng, ctx.nvars, rng.randint(1, 5), 4)
                # non-minimal generators (multiples) and duplicates, any coefficient
                monos += [tuple(e + rng.randint(0, 2) for e in m) for m in monos]
                monos += rng.sample(monos, len(monos) // 2)
                gens = [Polynomial(ctx, {m: rng.randint(1, ctx.p - 1)}) for m in monos]
                rng.shuffle(gens)
                self.check(ctx, gens)

    def test_mixed(self):
        for rng, ctx in self.cases(92):
            for _ in range(12):
                count = rng.randint(1, 2)
                monos = [Polynomial(ctx, {m: 1}) for m in _random_monomials(rng, ctx.nvars, count, 3)]
                # a generator inside the monomial ideal reduces to zero there
                inside = sum(
                    (m * random_poly(rng, ctx, max_terms=2, max_exp=1) for m in monos),
                    Polynomial.zero(ctx),
                )
                others = [random_poly(rng, ctx, max_terms=4, max_exp=3) for _ in range(3)]
                gens = monos[: rng.randint(0, count)] + [inside] + others + others[:1]
                rng.shuffle(gens)
                self.check(ctx, gens)

    def test_one_generator(self):
        # a constant, a monomial and mixed polynomials, each with leading
        # coefficient p - 1 (not 1 unless p = 2), alone and among zeros
        for rng, ctx in self.cases(93):
            lc, zero = ctx.p - 1, Polynomial.zero(ctx)
            gens = [
                Polynomial.constant(ctx, lc),
                Polynomial(ctx, {_random_monomials(rng, ctx.nvars, 1, 4)[0]: lc}),
            ]
            while len(gens) < 8:
                g = random_poly(rng, ctx, max_terms=5, max_exp=4)
                if len(g.terms) > 1:
                    head = g.terms[max(g.terms, key=grevlex_key)]
                    gens.append(g.scale_term((0,) * ctx.nvars, lc * pow(head, -1, ctx.p)))
            for g in gens:
                self.check(ctx, [g])
                self.check(ctx, [zero, g, zero])


class TestRootLikeInputs:
    """reduced_groebner on Frobenius parts drawn several times each, scaled and
    permuted, as a digit step's root hands them over, checked by Buchberger's
    criterion rather than by another run of the same code."""

    @staticmethod
    def draws(rng, parts, p):
        """Each part one to three times, each time times a random unit, shuffled."""
        one = (0,) * parts[0].ctx.nvars
        gens = [g.scale_term(one, rng.randint(1, p - 1)) for g in parts for _ in range(rng.randint(1, 3))]
        rng.shuffle(gens)
        return gens

    def test_seeded(self):
        rng = random.Random(57)
        for p in (2, 3, 5):
            for nvars in (2, 3):
                ctx = RingContext(p, ("x", "y", "z")[:nvars])
                for _ in range(6):
                    f = random_poly(rng, ctx, max_terms=4, max_exp=2)
                    g = random_poly(rng, ctx, max_terms=3, max_exp=3)
                    product = f ** rng.randint(p, 3 * p) * g
                    parts = list(decompose(product, 1).values())
                    gens = self.draws(rng, parts, p)
                    gb = reduced_groebner(gens, ctx)
                    assert reduced_groebner(self.draws(rng, parts, p), ctx) == gb
                    assert reduced_groebner(parts, ctx) == gb
                    assert all(normal_form(h, gb).is_zero() for h in gens)
                    for a, b in itertools.combinations(gb, 2):
                        assert normal_form(ideals._s_poly(a, b), gb).is_zero(), (a, b)

    def test_linear_combinations(self):
        # part_i + u*part_j and three-part sums are linearly dependent on the
        # parts without being scalar multiples of any: Buchberger reduces them
        rng = random.Random(58)
        for p in (2, 3, 5, 7):
            for nvars in (2, 3):
                ctx = RingContext(p, ("x", "y", "z")[:nvars])
                one = (0,) * nvars

                def times_unit(h):
                    return h.scale_term(one, rng.randint(1, p - 1))

                for _ in range(6):
                    f = random_poly(rng, ctx, max_terms=4, max_exp=2)
                    g = random_poly(rng, ctx, max_terms=3, max_exp=3)
                    parts = list(decompose(f ** rng.randint(p, 3 * p) * g, 1).values())
                    pairs = list(itertools.permutations(parts, 2))
                    triples = list(itertools.combinations(parts, 3))
                    gens = self.draws(rng, parts, p)
                    gens += [a + times_unit(b) for a, b in rng.sample(pairs, min(len(pairs), 4))]
                    gens += [
                        times_unit(a) + times_unit(b) + times_unit(c)
                        for a, b, c in rng.sample(triples, min(len(triples), 3))
                    ]
                    rng.shuffle(gens)
                    gb = reduced_groebner(gens, ctx)
                    # every part is drawn at least once, so gens and parts span one ideal
                    assert gb == _textbook_groebner(parts, ctx)
                    assert all(normal_form(h, gb).is_zero() for h in gens)
                    for a, b in itertools.combinations(gb, 2):
                        assert normal_form(ideals._s_poly(a, b), gb).is_zero(), (a, b)


class TestCarriedBasis:
    """Bases that ideals carry from how they were built (<1> and h * J, with
    no Buchberger run) against the textbook oracle on the products."""

    def check(self, J, h):
        expected = _textbook_groebner([h * g for g in J.generators], J.ctx)
        assert J.scale(h).groebner_basis() == expected

    def test_unit(self):
        for p in (2, 3, 5, 7):
            for nvars in (1, 2, 3):
                ctx = RingContext(p, ("x", "y", "z")[:nvars])
                expected = reduced_groebner([Polynomial.constant(ctx, p - 1)], ctx)
                assert Ideal.unit(ctx).groebner_basis() == expected == (Polynomial.one(ctx),)

    def test_tails_need_reducing(self, ctx3):
        # (x+y)x = x^2 + xy has the tail xy, the leading term of (x+y)y
        J, h = ideal(ctx3, "x", "y"), poly(ctx3, "2x + 2y")
        assert J.scale(h).groebner_basis() == (poly(ctx3, "xy + y^2"), poly(ctx3, "x^2 - y^2"))
        self.check(J, h)

    def test_seeded(self):
        rng = random.Random(141)
        for p in (2, 3, 5, 7):
            for nvars in (1, 2, 3):
                ctx = RingContext(p, ("x", "y", "z")[:nvars])
                for _ in range(6):
                    J = random_ideal(rng, ctx, max_exp=3)
                    monos = set(_random_monomials(rng, nvars, 3, 2))
                    h = Polynomial(ctx, {m: rng.randint(1, p - 1) for m in monos})
                    if len(h.terms) > 1 and p > 2:  # leading coefficient 2, not 1
                        h = h.scale_term((0,) * nvars, 2 * pow(h.terms[h.leading_monomial()], -1, p))
                    for factor in (h, Polynomial.constant(ctx, p - 1), Polynomial.zero(ctx)):
                        self.check(J, factor)

    def test_one_element_basis(self, ctx3, monkeypatch):
        # one monic element is a reduced basis as it stands, and h * <1> = <h>
        tails = []
        monkeypatch.setattr(ideals, "_reduce_tails", tails.append)
        h = poly(ctx3, "2x + y^2")
        assert Ideal.unit(ctx3).scale(h).groebner_basis() == (poly(ctx3, "y^2 + 2x"),)
        for J in (ideal(ctx3, "x + y"), ideal(ctx3, "2xy^2 + 1"), Ideal(ctx3)):
            self.check(J, h)
        assert tails == []


class TestNormalFormMembership:
    def test_normal_form_examples(self, ctx2):
        I = ideal(ctx2, "x", "y")
        assert I.normal_form(poly(ctx2, "x")).is_zero()
        assert I.normal_form(Polynomial.one(ctx2)) == Polynomial.one(ctx2)
        assert ideal(ctx2, "x^2").normal_form(poly(ctx2, "x^2 + y")) == poly(ctx2, "y")

    def test_membership(self, ctx2):
        assert ideal(ctx2, "x", "y").contains_poly(poly(ctx2, "x"))
        assert not ideal(ctx2, "x").contains_poly(Polynomial.one(ctx2))
        assert ideal(ctx2, "x^2").contains_poly(poly(ctx2, "x^2y^2"))

    def test_monomial_fast_path_agrees(self, ctx5):
        rng = random.Random(31)
        basis = [poly(ctx5, "x^3"), poly(ctx5, "y^2")]
        for _ in range(20):
            f = random_poly(rng, ctx5, max_terms=5, max_exp=6)
            fast = normal_form(f, basis)
            kept = {
                m: c
                for m, c in f.terms.items()
                if not (m[0] >= 3 or m[1] >= 2)
            }
            assert fast == Polynomial(ctx5, kept)


def _reference_division(f, basis):
    """Division that scans the whole remainder for each leading term; the
    first divisor in ``basis`` wins. ``normal_form`` must agree with it."""
    p = f.ctx.p
    prepared = [(g.leading_monomial(), g) for g in basis]
    work, remainder = dict(f.terms), {}
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        for lt, g in prepared:
            if all(map(int.__le__, lt, m)):
                shift = tuple(a - b for a, b in zip(m, lt))
                factor = c * pow(g.terms[lt], -1, p) % p
                for gm, gc in g.terms.items():
                    if gm != lt:
                        tm = tuple(a + b for a, b in zip(gm, shift))
                        s = (work.get(tm, 0) - factor * gc) % p
                        if s:
                            work[tm] = s
                        else:
                            work.pop(tm, None)
                break
        else:
            remainder[m] = c
    return Polynomial(f.ctx, remainder)


class TestDivisionLoop:
    def test_matches_reference_on_arbitrary_bases(self):
        # off a Groebner basis the remainder depends on the order terms are
        # taken and on which divisor is used: equal remainders here mean
        # Buchberger reduces every S-pair the same way
        rng = random.Random(111)
        for _ in range(3000):
            p = rng.choice((2, 3, 5, 7))
            ctx = RingContext(p, ("x", "y", "z")[: rng.randint(1, 3)])
            basis = [random_poly(rng, ctx, max_terms=4) for _ in range(rng.randint(1, 4))]
            f = random_poly(rng, ctx, max_terms=12, max_exp=7)
            assert normal_form(f, basis) == _reference_division(f, basis)

    def test_reduced_basis_remainders(self):
        rng = random.Random(113)
        for p in (2, 3, 5, 7):
            for nvars, max_exp in ((2, 4), (3, 2)):
                ctx = RingContext(p, ("x", "y", "z")[:nvars])
                for _ in range(4):
                    gb = random_ideal(rng, ctx, max_exp=max_exp).groebner_basis()
                    lts = [g.leading_monomial() for g in gb]
                    for _ in range(4):
                        f = random_poly(rng, ctx, max_terms=8, max_exp=6)
                        r = normal_form(f, gb)
                        assert not any(all(map(int.__le__, lt, m)) for lt in lts for m in r.terms)
                        # NF(f + sum h_i g_i) = NF(f)
                        shift = (random_poly(rng, ctx, max_terms=3, max_exp=3) * g for g in gb)
                        assert normal_form(sum(shift, f), gb) == r


class TestContainmentEquality:
    def test_equality(self, ctx2):
        assert ideal(ctx2, "x", "y") == ideal(ctx2, "y", "x + y")

    def test_containment(self, ctx2):
        assert ideal(ctx2, "x").contains(ideal(ctx2, "x^2"))
        assert not ideal(ctx2, "x^2").contains(ideal(ctx2, "x"))
        assert ideal(ctx2, "1").contains(ideal(ctx2, "x^5 + y"))

    def test_partial_order_random(self):
        rng = random.Random(41)
        ctx = RingContext(3, ("x", "y"))
        for _ in range(12):
            I, J, K = (random_ideal(rng, ctx) for _ in range(3))
            assert I.contains(I)
            if I.contains(J) and J.contains(I):
                assert I == J
            if I.contains(J) and J.contains(K):
                assert I.contains(K)


class TestHash:
    def test_equal_ideals_hash_equal(self, ctx2):
        I, J = ideal(ctx2, "x", "y"), ideal(ctx2, "x + y", "y")
        assert I == J and hash(I) == hash(J)
        assert len({I, J, ideal(ctx2, "y", "x"), ideal(ctx2, "x")}) == 2

    def test_redundant_generating_sets(self):
        rng = random.Random(43)
        for p in (2, 3, 5):
            ctx = RingContext(p, ("x", "y", "z"))
            for _ in range(8):
                I = random_ideal(rng, ctx, max_exp=3)
                g, *rest = I.generators
                h = random_poly(rng, ctx, max_terms=2, max_exp=2)
                J = Ideal(ctx, (*rest[::-1], g, g * h + I.generators[-1]))
                assert I == J and hash(I) == hash(J)

    def test_unit_is_one_object_per_context(self):
        a, b = RingContext(5, ("x", "y")), RingContext(5, ("x", "y"))
        assert a is not b and Ideal.unit(a) is Ideal.unit(b)
        assert Ideal.unit(a).groebner_basis() == (Polynomial.one(a),)
        assert Ideal.unit(RingContext(7, ("x", "y"))) != Ideal.unit(a)


class TestIdealArithmetic:
    def test_sum(self, ctx2):
        I, J = ideal(ctx2, "x"), ideal(ctx2, "y")
        assert Ideal(ctx2, I.generators + J.generators) == ideal(ctx2, "x", "y")

    def test_product(self, ctx2):
        assert Ideal(ctx2, (poly(ctx2, "x") * poly(ctx2, "y"),)) == ideal(ctx2, "xy")

    def test_scale(self, ctx2):
        assert ideal(ctx2, "x", "y").scale(poly(ctx2, "x")) == ideal(ctx2, "x^2", "xy")

    def test_mismatch(self, ctx2, ctx3):
        with pytest.raises(ValueError, match="different ring context"):
            Ideal(ctx2, (poly(ctx3, "x"),))


class TestBracketPower:
    def test_examples(self, ctx2):
        assert bracket_power(ideal(ctx2, "x", "y"), 4) == ideal(ctx2, "x^4", "y^4")
        assert bracket_power(ideal(ctx2, "x + y"), 2) == ideal(ctx2, "x^2 + y^2")
        assert bracket_power(ideal(ctx2, "1"), 8) == Ideal.unit(ctx2)

    def test_invalid_power(self, ctx2):
        with pytest.raises(ValueError):
            bracket_power(ideal(ctx2, "x"), 6)
        with pytest.raises(ValueError):
            bracket_power(ideal(ctx2, "x"), 3)

    def test_generator_independence(self, ctx3):
        rng = random.Random(51)
        for _ in range(10):
            I = random_ideal(rng, ctx3)
            gens = I.generators
            if len(gens) < 2:
                continue
            # same ideal, redundant generating set
            J = Ideal(ctx3, gens + (gens[0] + gens[1], gens[0].scale_term((1, 1))))
            assert I == J
            assert bracket_power(I, 9) == bracket_power(J, 9)

    def test_distributes_over_sum_and_product(self):
        rng = random.Random(61)
        ctx = RingContext(2, ("x", "y"))
        for _ in range(10):
            I, J = random_ideal(rng, ctx), random_ideal(rng, ctx)
            q = 4
            Iq, Jq = bracket_power(I, q), bracket_power(J, q)
            total = Ideal(ctx, I.generators + J.generators)
            assert bracket_power(total, q) == Ideal(ctx, Iq.generators + Jq.generators)
            product = Ideal(ctx, tuple(f * g for f in I.generators for g in J.generators))
            assert bracket_power(product, q) == Ideal(
                ctx, tuple(f * g for f in Iq.generators for g in Jq.generators)
            )

    def test_stretched_basis_agrees(self, ctx5):
        # bracket_power stretches the reduced basis and keeps it as the basis
        rng = random.Random(71)
        for _ in range(10):
            I = random_ideal(rng, ctx5)
            stretched = bracket_power(I, 5)
            fresh = Ideal(ctx5, tuple(g**5 for g in I.generators))
            assert stretched.groebner_basis() == fresh.groebner_basis()


def test_monomial_order_keys():
    # deg first for grevlex: y^3 > x^2
    assert grevlex_key((0, 3)) > grevlex_key((2, 0))
    # grevlex tie-break: smaller last exponent wins
    assert grevlex_key((1, 1, 0)) > grevlex_key((1, 0, 1))


def test_order_axioms_random():
    rng = random.Random(81)
    one = (0, 0, 0)
    for _ in range(50):
        a = tuple(rng.randint(0, 6) for _ in range(3))
        b = tuple(rng.randint(0, 6) for _ in range(3))
        c = tuple(rng.randint(0, 6) for _ in range(3))
        # 1 is minimal
        assert grevlex_key(one) <= grevlex_key(a)
        # multiplicative: comparisons survive a common factor
        if grevlex_key(a) < grevlex_key(b):
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert grevlex_key(ac) < grevlex_key(bc)


def test_generator_strings_sorted(ctx2):
    assert ideal(ctx2, "y", "x").generator_strings() == ["x", "y"]


def test_generator_strings_formatted_once(ctx2, monkeypatch):
    I = ideal(ctx2, "y", "x")
    first = I.generator_strings()
    first.append("z")
    monkeypatch.setattr(ideals, "format_poly", None)
    # a fresh list each call, from strings formatted on the first
    assert I.generator_strings() == ["x", "y"]
    assert I.generator_strings() is not I.generator_strings()
