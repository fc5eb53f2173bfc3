"""Base-p digit dynamics of rationals.

Exact base-p expansions (preperiod + minimal period via remainder-cycle
detection), the mod-m fractional map s -> p*s mod m, orbit analysis, and
reconstruction of a rational from its digit data in the canonical shape
a / (p^d (p^beta - 1)).

Expansions ending in an all-(p-1) period never arise from ``expand`` and
are normalized away by ``reconstruct``: the terminating representative is
the canonical one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

# orbit refuses an orbit with more elements than this (it stores every one),
# and multiplicative_order an order above it, the cycle length of 1/n
MAX_ORBIT_SIZE = 1 << 20


def multiplicative_order(p: int, n: int) -> int:
    """Least k >= 1 with p^k = 1 mod n (n coprime to p); raises past MAX_ORBIT_SIZE."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if math.gcd(p, n) != 1:
        raise ValueError(f"{p} and {n} are not coprime")
    if n == 1:
        return 1
    k, t = 1, p % n
    while t != 1:
        if k == MAX_ORBIT_SIZE:
            raise ValueError(f"the order of {p} modulo {n} exceeds {MAX_ORBIT_SIZE}")
        t = t * p % n
        k += 1
    return k


class CanonicalForm(namedtuple("CanonicalForm", "a d beta p")):
    """A rational written as a / (p^d (p^beta - 1)) with minimal beta."""

    __slots__ = ()


def canonicalize(c: Fraction, p: int) -> CanonicalForm:
    """Write c > 0 as a / (p^d (p^beta - 1)).

    d is the p-adic valuation of the denominator and beta the
    multiplicative order of p modulo the p-free part (the minimal valid
    exponent; Euler's totient of that part also works but can be much
    larger).
    """
    num, den = c.numerator, c.denominator
    if num <= 0:
        raise ValueError(f"need a positive rational, got {c}")
    free, d = den, 0
    while free % p == 0:
        free //= p
        d += 1
    beta = multiplicative_order(p, free)
    a, rest = divmod(num * p**d * (p**beta - 1), den)
    assert rest == 0
    return CanonicalForm(a, d, beta, p)


class BasePExpansion(namedtuple("BasePExpansion", "p integer_part preperiod period")):
    """Eventually periodic base-p digits: integer_part.preperiod(period)*."""

    __slots__ = ()


def expand(s: Fraction, p: int) -> BasePExpansion:
    """Exact base-p expansion of s >= 0 with minimal preperiod and period."""
    if s < 0:
        raise ValueError(f"need a non-negative rational, got {s}")
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    integer_part = s.numerator // s.denominator
    num = s.numerator - integer_part * s.denominator
    den = s.denominator
    digits: list[int] = []
    seen: dict[int, int] = {}
    while num and num not in seen:
        seen[num] = len(digits)
        num *= p
        digits.append(num // den)
        num %= den
    if num == 0:
        if not digits:
            return BasePExpansion(p, integer_part, (), ())
        return BasePExpansion(p, integer_part, tuple(digits), (0,))
    start = seen[num]
    return BasePExpansion(p, integer_part, tuple(digits[:start]), tuple(digits[start:]))


def frac_mod(s: Fraction, m: int) -> Fraction:
    """The representative of s modulo m in [0, m)."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    return s - m * (s // m)


class OrbitReport(namedtuple("OrbitReport", "s p m orbit entry_index cycle_length")):
    """Forward orbit of s under t -> p*t mod m, up to the first repeat."""

    __slots__ = ()


def orbit(s: Fraction, p: int, m: int = 1) -> OrbitReport:
    """Iterate s -> frac_mod(p*s, m) until a value repeats.

    Every iterate is n/den(s) for an integer n in [0, m*den(s)), and the map
    is n -> p*n mod m*den(s), so the orbit has at most m*den(s) elements.
    Raises once the orbit has more than MAX_ORBIT_SIZE elements.
    """
    if m < 1:
        raise ValueError(f"need a modulus m >= 1, got {m}")
    if not (0 <= s < m):
        raise ValueError(f"need 0 <= s < {m}, got {s}")
    den = s.denominator
    size = m * den
    n = s.numerator
    index = {n: 0}  # numerator -> position, in orbit order
    while True:
        n = p * n % size
        if n in index:
            entry = index[n]
            values = tuple(Fraction(k, den) for k in index)
            return OrbitReport(s, p, m, values, entry, len(index) - entry)
        if len(index) == MAX_ORBIT_SIZE:
            raise ValueError(f"orbit has more than {MAX_ORBIT_SIZE} elements")
        index[n] = len(index)


def reconstruct(exp: BasePExpansion) -> tuple[Fraction, CanonicalForm]:
    """The exact rational with the given digits, plus its canonical form.

    Digit data need not be minimal; the value is computed exactly, so an
    all-(p-1) period collapses to the terminating representative and the
    returned canonical form is the minimal one.
    """
    p = exp.p
    for digit in exp.preperiod + exp.period:
        if not (0 <= digit < p):
            raise ValueError(f"digit {digit} out of range for base {p}")
    d = len(exp.preperiod)
    pre = 0
    for digit in exp.preperiod:
        pre = pre * p + digit
    value = Fraction(exp.integer_part)
    if exp.period:
        beta = len(exp.period)
        per = 0
        for digit in exp.period:
            per = per * p + digit
        value += Fraction(pre * (p**beta - 1) + per, p**d * (p**beta - 1))
    elif d:
        value += Fraction(pre, p**d)
    if value == 0:
        return value, CanonicalForm(0, 0, 1, p)
    return value, canonicalize(value, p)
