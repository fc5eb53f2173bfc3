import itertools
import random

import pytest

from fjump import BudgetExceededError, Polynomial, RingContext, ring

from conftest import poly, random_poly


class TestRingContext:
    def test_basic(self):
        ctx = RingContext(7, ("x", "y"))
        assert ctx.p == 7 and ctx.nvars == 2

    @pytest.mark.parametrize(
        "p,vars",
        [
            (4, ("x",)),  # composite
            (1, ("x",)),
            (1 << 16, ("x",)),  # too large even if prime-ish range
            (65537, ("x",)),
            (2, ()),  # no variables
            (2, tuple("abcdefghi")),  # nine variables
            (2, ("x", "x")),  # duplicate
            (2, ("2x",)),  # bad identifier
            (2, ("",)),
        ],
    )
    def test_rejected(self, p, vars):
        with pytest.raises(ValueError):
            RingContext(p, vars)

    def test_value_equality(self):
        assert RingContext(3, ("x",)) == RingContext(3, ("x",))
        assert RingContext(3, ("x",)) != RingContext(3, ("y",))


class TestArithmetic:
    def test_add_char2(self, ctx2):
        assert poly(ctx2, "x + y") + poly(ctx2, "x") == poly(ctx2, "y")

    def test_add_identity(self, ctx5):
        f = poly(ctx5, "x^2 + 3y")
        assert f + Polynomial.zero(ctx5) == f

    def test_sub_to_zero(self, ctx5):
        f = poly(ctx5, "x")
        assert (f - f).is_zero()
        assert (f - f).terms == {}

    def test_mul(self, ctx5):
        assert poly(ctx5, "x") * poly(ctx5, "y") == poly(ctx5, "xy")
        assert (poly(ctx5, "x+y") * Polynomial.zero(ctx5)).is_zero()

    def test_freshman_square_char2(self, ctx2):
        f = poly(ctx2, "x + y")
        assert f * f == poly(ctx2, "x^2 + y^2")

    def test_pow_examples(self, ctx3, ctx2):
        assert poly(ctx3, "x + y") ** 3 == poly(ctx3, "x^3 + y^3")
        assert poly(ctx3, "x") ** 5 == poly(ctx3, "x^5")
        assert poly(ctx2, "x + y") ** 4 == poly(ctx2, "x^4 + y^4")

    def test_pow_zero_and_one(self, ctx3):
        f = poly(ctx3, "x + 2y^2")
        assert f**0 == Polynomial.one(ctx3)
        assert f**1 == f
        assert (Polynomial.zero(ctx3) ** 5).is_zero()

    def test_pow_one_is_self(self, ctx3, monkeypatch):
        # f**1 is the most common Skoda shift: it builds no digit power
        def refused(g, d):
            raise AssertionError(f"built {g}^{d}")

        f = poly(ctx3, "x + 2y^2")
        monkeypatch.setattr(Polynomial, "_small_pow", refused)
        assert f**1 is f

    def test_context_mismatch(self, ctx2, ctx3):
        with pytest.raises(ValueError, match="mismatch"):
            poly(ctx2, "x") + poly(ctx3, "x")
        with pytest.raises(ValueError, match="mismatch"):
            poly(ctx2, "x") * poly(ctx3, "x")

    def test_degree_additivity(self, ctx5):
        rng = random.Random(11)
        for _ in range(30):
            f, g = random_poly(rng, ctx5), random_poly(rng, ctx5)
            assert (f * g).total_degree() == f.total_degree() + g.total_degree()


class TestRingAxioms:
    def test_axioms_random(self):
        rng = random.Random(5)
        for p in (2, 3, 5):
            ctx = RingContext(p, ("x", "y"))
            for _ in range(25):
                f, g, h = (random_poly(rng, ctx) for _ in range(3))
                assert f + g == g + f
                assert (f + g) + h == f + (g + h)
                assert f * g == g * f
                assert (f * g) * h == f * (g * h)
                assert f * (g + h) == f * g + f * h

    def test_freshman_dream_random(self):
        rng = random.Random(6)
        for p in (2, 3, 5):
            ctx = RingContext(p, ("x", "y"))
            for e in (1, 2):
                f, g = random_poly(rng, ctx), random_poly(rng, ctx)
                q = p**e
                assert (f + g) ** q == f**q + g**q

    def test_pow_addition_law(self, ctx3):
        rng = random.Random(7)
        for _ in range(8):
            f = random_poly(rng, ctx3, max_terms=2, max_exp=2)
            r, s = rng.randint(0, 50), rng.randint(0, 50)
            assert f ** (r + s) == f**r * f**s

    def test_stretch_is_q_power(self, ctx5):
        rng = random.Random(8)
        for e in (1, 2):
            f = random_poly(rng, ctx5)
            assert f.frobenius_stretch(e) == f ** (5**e)


def _powers_by_multiplication(f: Polynomial, count: int) -> list[Polynomial]:
    """[f**0, ..., f**(count - 1)], each one multiplication from the last."""
    powers = [Polynomial.one(f.ctx)]
    for _ in range(count - 1):
        powers.append(powers[-1] * f)
    return powers


class TestDigitPower:
    """_small_pow and __pow__ against plain repeated multiplication."""

    # the oracle multiplies every f**d with d < p by f, which at p=101 takes
    # seconds per polynomial beyond three terms
    @pytest.mark.parametrize(
        "p,max_terms,cases", [(2, 5, 12), (3, 5, 12), (5, 5, 12), (7, 5, 12), (13, 5, 12), (101, 3, 10)]
    )
    def test_small_pow_random(self, p, max_terms, cases):
        rng = random.Random(p)
        for _ in range(cases):
            ctx = RingContext(p, ("x", "y", "z")[: rng.randint(1, 3)])
            # small exponents make product monomials collide
            f = random_poly(rng, ctx, max_terms=max_terms, max_exp=rng.choice([1, 2, 4]))
            for d, expected in enumerate(_powers_by_multiplication(f, p)):
                assert f._small_pow(d) == expected, (f, d)

    @pytest.mark.parametrize(
        "p,text,d,expected",
        [
            # (x+y)^4 at p=3: the x^2y^2 products sum to 6 = 0
            (3, "x^2+2xy+y^2", 2, "x^4+x^3y+xy^3+y^4"),
            # (1+x)^6 = (1+x^5)(1+x) at p=5
            (5, "1+2x+x^2", 3, "1+x+x^5+x^6"),
            # (x+y)^9 = (x^7+y^7)(x+y)^2 at p=7
            (7, "x^3+3x^2y+3xy^2+y^3", 3, "x^9+2x^8y+x^7y^2+x^2y^7+2xy^8+y^9"),
        ],
    )
    def test_small_pow_cancellation(self, p, text, d, expected):
        ctx = RingContext(p, ("x", "y"))
        f = poly(ctx, text)
        assert f._small_pow(d) == poly(ctx, expected)

    @pytest.mark.parametrize(
        "nvars,degree",
        [
            (1, 11),  # twelve terms whose products all collide
            (2, 3),  # every monomial of degree <= 3: ten terms
        ],
    )
    def test_small_pow_dense(self, nvars, degree):
        rng = random.Random(31 + nvars)
        ctx = RingContext(31, ("x", "y")[:nvars])
        monos = [m for m in itertools.product(range(degree + 1), repeat=nvars) if sum(m) <= degree]
        f = Polynomial(ctx, {m: rng.randint(1, 30) for m in monos})
        powers = _powers_by_multiplication(f, 31)
        for d in (2, 7, 29, 30) if nvars > 1 else range(31):
            assert f._small_pow(d) == powers[d], d

    def test_small_pow_ladder_collisions(self):
        # the multinomial sum where splits merge and cancel. At p=5,
        # 1+x+x^2+x^3+x^4 = (x-1)^4, so f^d = (x^5-1)^j (x-1)^(4d-5j) lacks
        # monomials of degree <= 4d that its splits reach, and its head splits
        # 1^a x^b (x^2)^c reach one monomial along many (a, b, c)
        ctx = RingContext(5, ("x",))
        f = poly(ctx, "1+x+x^2+x^3+x^4")
        powers = _powers_by_multiplication(poly(ctx, "x-1"), 17)
        for d in range(2, 5):
            assert not ring._squares(f, d)
            assert f._small_pow(d) == powers[4 * d], d
            assert len(powers[4 * d].terms) < 4 * d + 1
        # a 4-term f whose products collide: the sum runs up to d = 27
        f = poly(RingContext(31, ("x",)), "1+2x+3x^2+4x^4")
        powers = _powers_by_multiplication(f, 31)
        sums = [d for d in range(2, 31) if not ring._squares(f, d)]
        assert sums == list(range(2, 28))
        for d in sums:
            assert f._small_pow(d) == powers[d], d

    @pytest.mark.parametrize("p", [2, 3, 7, 101, 1009])
    def test_binomial_powers(self, p):
        # a two-term f takes its digit powers from the binomial theorem; a
        # three-term f at the same p splits d over its first term. The oracle
        # multiplies by f once per step, which never calls _small_pow, and
        # keeps only the last power: at p=1009 all of them together hold about
        # a million terms
        rng = random.Random(300 + p)

        def coeff():
            return rng.randint(2, p - 1) if p > 2 else 1

        x = RingContext(p, ("x",))
        fs = [Polynomial(x, {(5,): coeff(), (0,): coeff()})]  # such as 3x^5+2
        for nvars in (2, 3):
            ctx = RingContext(p, ("x", "y", "z")[:nvars])
            monos = set()
            while len(monos) < 2:
                monos.add(tuple(rng.randint(0, 6) for _ in range(nvars)))
            fs.append(Polynomial(ctx, {m: coeff() for m in monos}))
        fs.append(Polynomial(x, {(2,): coeff(), (1,): coeff(), (0,): coeff()}))
        digits = {0, 1, 2, p - 1, rng.randrange(p)}
        for f in fs:
            power = Polynomial.one(f.ctx)
            for d in range(max(digits) + 1):
                if d in digits:
                    assert f**d == power, (f, d)
                power = power * f

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_pow_matches_products(self, p):
        # 2 to 10 terms, and a dense ten-term f that is squared at d = 4, so
        # that both ways of building a digit power run
        rng = random.Random(700 + p)
        ways = set()
        fs = []
        for _ in range(10):
            nvars, count = rng.randint(1, 3), rng.randint(2, 10)
            max_exp = next(e for e in range(1, 20) if (e + 1) ** nvars >= 2 * count)
            ctx = RingContext(p, ("x", "y", "z")[:nvars])
            monos = set()
            while len(monos) < count:
                monos.add(tuple(rng.randint(0, max_exp) for _ in range(nvars)))
            fs.append(Polynomial(ctx, {m: rng.randint(1, p - 1) for m in monos}))
        x = RingContext(p, ("x",))
        fs.append(Polynomial(x, {(e,): rng.randint(1, p - 1) for e in range(10)}))
        for f in fs:
            for d, expected in enumerate(_powers_by_multiplication(f, p)):
                assert f**d == expected, (f, d)
                if len(f.terms) > 2 and d > 1:
                    ways.add(ring._squares(f, d))
        assert ways == {False, True}

    @pytest.mark.parametrize(
        "p,vars,text,d,squares",
        [
            (5, "xy", "x^3+y^4+x^2y^2", 2, False),
            (5, "xy", "x^3+y^4+x^2y^2", 4, False),
            (7, "xy", "2x^3+3y^3+xy", 4, False),
            (7, "xy", "2x^3+3y^3+xy", 5, False),
            (7, "xy", "2x^3+3y^3+xy", 6, False),
            (7, "xyz", "x^2+y^3+z^5+xyz", 5, False),
            (7, "xyz", "x^2+y^3+z^5+xyz", 6, False),
            (31, "x", "1+2x+3x^2+4x^4", 19, False),
            (31, "x", "1+2x+3x^2+4x^4", 28, True),
            (101, "x", "1+2x+3x^2+4x^3+5x^4+6x^5+7x^6+8x^7+9x^8+10x^9", 100, True),
            (211, "xyz", "x^2+y^3+z^5", 105, False),
        ],
    )
    def test_squaring_rule(self, p, vars, text, d, squares):
        # timed both ways (best of 9): the sum is 1.5x faster on the
        # trinomials at d = 4 and 2.2-2.4x at d = 5 and 6, 2.0-2.4x on the
        # 4-term f at d = 5 and 6 and 300x on the last; squaring is 1.7x
        # faster on the 4-term univariate f at d = 28 and 30x on the dense f.
        # The rule picks the slower way at d = 2, where squaring the
        # trinomials is 1.5x faster, and on 1+2x+3x^2+4x^4 at d = 2..5 and
        # 7..27, where its products collide: 1.3x slower at d = 19
        f = poly(RingContext(p, tuple(vars)), text)
        assert ring._squares(f, d) is squares

    def test_small_pow_rejects_large_digit(self, ctx5):
        f = poly(ctx5, "x+y")
        with pytest.raises(ValueError):
            f._small_pow(5)
        with pytest.raises(ValueError):
            f._small_pow(-1)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_pow_beyond_p(self, p):
        rng = random.Random(100 + p)
        for _ in range(3):
            ctx = RingContext(p, ("x", "y", "z")[: rng.randint(1, 3)])
            # the oracle takes p^3 - 1 products of growing size
            f = random_poly(rng, ctx, max_terms=2 if p == 7 else 3, max_exp=2)
            powers = _powers_by_multiplication(f, p**3)
            for r in range(p, p**3):
                assert f**r == powers[r], (f, r)


class TestPowerBudget:
    """__pow__ refuses f^n exactly when its term bound passes the budget."""

    @pytest.mark.parametrize(
        "p,text,n,bound",
        [
            # digits 1, 2 of 15: min(C(6, 5), C(4, 2)) * min(C(7, 5), C(6, 2)),
            # the degree bound taken on the digit 2
            (7, "1+x+y+x^2+x*y+y^2", 15, 6 * 15),
            # digits 2, 3 of 17: the split counts C(5, 3) * C(6, 3), below the
            # degree bounds C(8, 2) * C(11, 2)
            (5, "1+x^3+y^3+x*y", 17, 10 * 20),
        ],
    )
    def test_refused_only_past_the_bound(self, monkeypatch, p, text, n, bound):
        f = poly(RingContext(p, ("x", "y")), text)
        expected = _powers_by_multiplication(f, n + 1)[n]
        monkeypatch.setattr(ring, "EXPANSION_TERM_BUDGET", bound)
        assert f**n == expected
        monkeypatch.setattr(ring, "EXPANSION_TERM_BUDGET", bound - 1)
        with pytest.raises(BudgetExceededError, match=r"expanding f\^n"):
            f**n


def test_hash_consistency(ctx3):
    a = poly(ctx3, "x + 2y")
    b = poly(ctx3, "2y + x")
    assert a == b and hash(a) == hash(b)


def test_immutability(ctx3):
    f = poly(ctx3, "x")
    with pytest.raises(AttributeError):
        f.terms = {}
    with pytest.raises(AttributeError):
        ctx3.p = 5
