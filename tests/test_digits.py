import random
from fractions import Fraction

import pytest

from fjump import (
    BasePExpansion,
    CanonicalForm,
    canonicalize,
    expand,
    frac_mod,
    multiplicative_order,
    orbit,
    reconstruct,
)
from fjump import digits
from fjump.digits import MAX_ORBIT_SIZE


def _prefix(exp: BasePExpansion, k: int) -> list[int]:
    """The first k fractional digits of an expansion."""
    digits = list(exp.preperiod)
    while len(digits) < k and exp.period:
        digits.extend(exp.period)
    return digits[:k] + [0] * (k - len(digits))


def _value(form: CanonicalForm) -> Fraction:
    """a / (p^d (p^beta - 1))."""
    return Fraction(form.a, form.p**form.d * (form.p**form.beta - 1))


class TestExpand:
    def test_purely_periodic(self):
        exp = expand(Fraction(1, 3), 2)
        assert (exp.integer_part, exp.preperiod, exp.period) == (0, (), (0, 1))

    def test_terminating(self):
        exp = expand(Fraction(1, 2), 2)
        assert (exp.preperiod, exp.period) == ((1,), (0,))

    def test_integer(self):
        exp = expand(Fraction(5), 3)
        assert (exp.integer_part, exp.preperiod, exp.period) == (5, (), ())

    def test_mixed(self):
        # 5/6 = 0.1(01) in base 2
        exp = expand(Fraction(5, 6), 2)
        assert (exp.preperiod, exp.period) == ((1,), (1, 0))

    def test_period_is_minimal(self):
        exp = expand(Fraction(1, 7), 2)
        assert exp.period == (0, 0, 1)  # length = order of 2 mod 7
        assert expand(Fraction(1, 5), 7).period == (1, 2, 5, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            expand(Fraction(-1, 2), 2)

    def test_digit_prefix(self):
        assert _prefix(expand(Fraction(1, 3), 2), 5) == [0, 1, 0, 1, 0]
        assert _prefix(expand(Fraction(1, 2), 2), 3) == [1, 0, 0]
        assert _prefix(expand(Fraction(2), 5), 2) == [0, 0]


class TestFracMod:
    @pytest.mark.parametrize(
        "s,m,out",
        [
            (Fraction(7, 3), 1, Fraction(1, 3)),
            (Fraction(1, 3), 1, Fraction(1, 3)),
            (Fraction(5, 2), 2, Fraction(1, 2)),
            (Fraction(6), 3, Fraction(0)),
        ],
    )
    def test_values(self, s, m, out):
        assert frac_mod(s, m) == out


class TestOrbit:
    def test_third_base_two(self):
        rep = orbit(Fraction(1, 3), 2, 1)
        assert rep.orbit == (Fraction(1, 3), Fraction(2, 3))
        assert rep.entry_index == 0 and rep.cycle_length == 2

    def test_zero(self):
        rep = orbit(Fraction(0), 2, 1)
        assert rep.orbit == (Fraction(0),)
        assert rep.cycle_length == 1

    def test_tail_then_fixed(self):
        rep = orbit(Fraction(1, 2), 2, 1)
        assert rep.orbit == (Fraction(1, 2), Fraction(0))
        assert rep.entry_index == 1 and rep.cycle_length == 1

    def test_length_bound_m1(self):
        rng = random.Random(43)
        for _ in range(60):
            den = rng.randint(1, 80)
            num = rng.randint(0, den - 1) if den > 1 else 0
            s = Fraction(num, den)
            for p in (2, 3, 5):
                assert len(orbit(s, p, 1).orbit) <= s.denominator

    def test_length_bound_general_m(self):
        # with m >= 2, orbits can exceed den(s) but never m*den(s)
        rep = orbit(Fraction(1, 3), 2, 5)
        assert len(rep.orbit) == 4  # 1/3 -> 2/3 -> 4/3 -> 8/3 -> back to 1/3
        assert len(rep.orbit) <= 5 * 3
        rng = random.Random(47)
        for _ in range(40):
            den = rng.randint(1, 30)
            m = rng.randint(1, 4)
            s = Fraction(rng.randint(0, den * m - 1), den)
            assert len(orbit(s, 3, m).orbit) <= m * s.denominator

    def test_size_bound(self):
        # the orbit of 1/3 under doubling mod 1000000007 is longer than the bound
        with pytest.raises(ValueError, match="more than"):
            orbit(Fraction(1, 3), 2, 1000000007)
        rep = orbit(Fraction(1, 1000003), 3, 1)
        assert rep.entry_index == 0 and rep.cycle_length == len(rep.orbit) == 333334

    def test_short_orbits_with_large_bound(self):
        # m * den(s) far above the bound, but the orbit itself is short
        rep = orbit(Fraction(1, 2**21), 2)
        assert len(rep.orbit) == 22 and rep.orbit[-1] == 0 and rep.cycle_length == 1
        rep = orbit(Fraction(1, 2**31 - 1), 2)
        assert rep.entry_index == 0 and rep.cycle_length == len(rep.orbit) == 31
        assert orbit(Fraction(0), 2, MAX_ORBIT_SIZE + 1).orbit == (Fraction(0),)

    def test_bound_counts_stored_elements(self, monkeypatch):
        # the orbit of 1/7 under doubling is 1/7, 2/7, 4/7
        monkeypatch.setattr(digits, "MAX_ORBIT_SIZE", 3)
        assert len(orbit(Fraction(1, 7), 2).orbit) == 3
        monkeypatch.setattr(digits, "MAX_ORBIT_SIZE", 2)
        with pytest.raises(ValueError, match="more than 2 elements"):
            orbit(Fraction(1, 7), 2)

    def test_shift_matches_digit_stream(self):
        rng = random.Random(53)
        for _ in range(30):
            den = rng.randint(2, 60)
            s = Fraction(rng.randint(1, den - 1), den)
            p = rng.choice((2, 3, 5))
            t = frac_mod(p * s, 1)
            assert _prefix(expand(t, p), 8) == _prefix(expand(s, p), 9)[1:]


class TestReconstruct:
    def test_purely_periodic(self):
        value, form = reconstruct(BasePExpansion(2, 0, (), (0, 1)))
        assert value == Fraction(1, 3)
        assert (form.a, form.d, form.beta) == (1, 0, 2)

    def test_terminating(self):
        value, _ = reconstruct(BasePExpansion(2, 0, (1,), (0,)))
        assert value == Fraction(1, 2)

    def test_all_top_digits_normalize(self):
        value, form = reconstruct(BasePExpansion(3, 0, (), (2,)))
        assert value == 1
        assert _value(form) == 1

    def test_round_trip_random(self):
        rng = random.Random(59)
        for _ in range(200):
            den = rng.randint(1, 400)
            num = rng.randint(0, 3 * den)
            s = Fraction(num, den)
            p = rng.choice((2, 3, 5, 7))
            value, form = reconstruct(expand(s, p))
            assert value == s
            if s > 0:
                assert _value(form) == s

    def test_bad_digit(self):
        with pytest.raises(ValueError):
            reconstruct(BasePExpansion(2, 0, (2,), (0,)))


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize(Fraction(5, 6), 7) == CanonicalForm(5, 0, 1, 7)
        assert canonicalize(Fraction(1), 2) == CanonicalForm(1, 0, 1, 2)
        # minimal beta: order of 3 mod 2 is 1, so 1/2 = 1/(3-1)
        assert canonicalize(Fraction(1, 2), 3) == CanonicalForm(1, 0, 1, 3)

    def test_p_part_goes_to_d(self):
        form = canonicalize(Fraction(5, 294), 7)  # 294 = 2*3*7^2
        assert (form.a, form.d, form.beta) == (5, 2, 1)
        assert _value(form) == Fraction(5, 294)

    def test_round_trip_random(self):
        rng = random.Random(61)
        for _ in range(100):
            s = Fraction(rng.randint(1, 500), rng.randint(1, 500))
            p = rng.choice((2, 3, 5, 7))
            assert _value(canonicalize(s, p)) == s

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(Fraction(0), 2)
        with pytest.raises(ValueError):
            canonicalize(Fraction(-1, 2), 2)


def test_jump_sets_closed_under_scaled_wrap():
    # pushing a jump through c -> p*c mod 1 lands on another jump
    from fjump import RingContext, enumerate_jumps, is_jumping, parse_poly

    for p, text in ((2, "x^3"), (7, "x^2+y^3")):
        ctx = RingContext(p, ("x", "y"))
        f = parse_poly(text, ctx)
        report = enumerate_jumps(f, Fraction(1), depth=4)
        assert report.complete
        for c in report.coefficients():
            wrapped = frac_mod(p * c, 1)
            if wrapped > 0:
                assert is_jumping(f, wrapped).jumping


def test_multiplicative_order():
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(7, 6) == 1
    assert multiplicative_order(5, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(6, 3)


def test_multiplicative_order_bound(monkeypatch):
    # 2 has order 3 mod 7
    monkeypatch.setattr(digits, "MAX_ORBIT_SIZE", 3)
    assert multiplicative_order(2, 7) == 3
    monkeypatch.setattr(digits, "MAX_ORBIT_SIZE", 2)
    with pytest.raises(ValueError, match="the order of 2 modulo 7 exceeds 2"):
        multiplicative_order(2, 7)
