"""p^e-th Frobenius roots via decomposition over the p^e-power basis.

Over R = F_p[x_1..x_n] the monomials x^lam with lam in [0, p^e)^n form a
free basis of R over the subring of p^e-th powers, so every f splits
uniquely as f = sum_lam (g_lam)^{p^e} x^lam. Because coefficients in F_p
are fixed by Frobenius, the split is a per-term exponent div/mod: the term
c*x^mu lands in residue class lam = mu mod p^e and contributes
c*x^{mu div p^e} to g_lam.

The Frobenius root of <f> (the smallest ideal I with I^{[p^e]} containing
f) is then exactly the ideal generated by the parts g_lam, and the root of
a general ideal is the sum of the roots of any set of generators. A class
that holds one term adds just the monomial x^{mu div p^e}, as its
coefficient is a unit, so a root builds only the minimal such monomials.

For f = sum_i c_i x^(u_i) with k terms, 0 <= d < p and a monomial x^w, the
split alpha of d over the terms gives the term of f^d*x^w at
sum_i alpha_i u_i + w, with a unit multinomial coefficient. When the
differences u_1 - u_k, ..., u_(k-1) - u_k are linearly independent over
F_p, two splits never share a class: that would need
sum_(i<k) (alpha_i - alpha'_i)(u_i - u_k) = 0 mod p with every
|alpha_i - alpha'_i| <= d < p. The root of f^d*x^w is then generated by the
outer monomials (sum_i alpha_i u_i + w) div p. They are enumerated over the
splits of d over the first k - 2 terms; each split's remaining r goes to
the last two, where term i of the binomial part is x^(B + i*S) with
S = u_(k-1) - u_k, and its outer monomials rise with i where S is positive
and fall elsewhere: only i = r and each i whose successor steps a rising
coordinate up can be minimal, at most deg f + 1 of them whatever p is. At
d = 0, and for a one-term f (any d), the one outer monomial is
(d*u + w) div p.

Every other root builds each product h^d*g with ``Polynomial.__mul__``,
taking h^d itself for g = 1, and splits it by class, as
``frobenius_root_poly`` splits f: that one is the definition, each part a
generator, and the tests check the rest against it. At e = 1 such a root
is <1> before h^d is built when some nonzero generator g has
d*deg_x(h) + deg_x(g) < p in every variable x: each term of h^d*g is then
alone in its class, with outer monomial 1.
"""

from __future__ import annotations

from operator import add

from . import ring
from .ideals import Ideal, minimal_monomials
from .ring import BudgetExceededError, Monomial, Polynomial

def _split(f: Polynomial, e: int) -> dict[Monomial, dict]:
    """The terms c*x^mu of f by residue class: {lam: {mu div p^e: c}} with
    lam = mu mod p^e."""
    if e < 1:
        raise ValueError(f"Frobenius level must be >= 1, got {e}")
    terms = f.terms
    if e > 1:  # level 1, the only one the kernel takes, needs no cap
        # once p^e passes every exponent, each term is its own class with outer
        # exponent 0, so no level past the largest exponent's bit length differs
        e = min(e, max(map(max, terms), default=0).bit_length())
    q = f.ctx.p**e
    split: dict[Monomial, dict[Monomial, int]] = {}
    for mono, c in terms.items():
        split.setdefault(tuple([x % q for x in mono]), {})[tuple([x // q for x in mono])] = c
    return split


def independent_differences(f: Polynomial) -> bool:
    """Whether f is nonzero and the differences u_1 - u_k, ..., u_(k-1) - u_k
    of its exponents are linearly independent over F_p."""
    if not f.terms:
        return False
    p = f.ctx.p
    *rows, last = f.terms
    pivots: dict[int, list[int]] = {}  # column -> reduced row with a 1 there
    for u in rows:
        row = [(a - b) % p for a, b in zip(u, last)]
        for j, b in pivots.items():
            c = row[j]
            row = [(x - c * y) % p for x, y in zip(row, b)]
        j = next((j for j, x in enumerate(row) if x), None)
        if j is None:
            return False
        c = pow(row[j], -1, p)
        pivots[j] = [x * c % p for x in row]
    return True


def _splits(head: list[Monomial], mono: Monomial, r: int):
    """(mono + sum_i alpha_i h_i, r - sum_i alpha_i) for every split alpha of at
    most r over the exponents h_i in ``head``, one at a time."""
    if not head:
        yield mono, r
        return
    h, *rest = head
    for a in range(r + 1):
        yield from _splits(rest, mono, r - a)
        mono = tuple(map(add, mono, h))


def root_monomials(us: list[Monomial], d: int, p: int, ws) -> set[Monomial]:
    """Outer monomials whose minimal ones generate I_1(f^d * <x^w : w in ws>)
    for f with exponents ``us`` whose differences are independent mod p and
    d < p (any d for one term), from exponents; refused once the splits
    visited pass the term budget, before any gives the constant one."""
    *head, u, v = us if len(us) > 1 else us * 2
    s = [a - b for a, b in zip(u, v)]
    zero = (0,) * len(u)
    outers: set[Monomial] = set()
    budget = ring.EXPANSION_TERM_BUDGET
    for w in ws:
        for mono, r in _splits(head, w, d):
            budget -= 1
            if budget < 0:
                raise BudgetExceededError(
                    f"expanding f^{d} term by term: more than {ring.EXPANSION_TERM_BUDGET} terms"
                )
            base = [m + r * b for m, b in zip(mono, v)]
            last = {r}
            for b, k in zip(base, s):
                if k > 0:
                    # term i + 1 is the first to reach m*p at i + 1 = ceil((m*p - b) / k)
                    last.update(-((b - m * p) // k) - 1 for m in range(b // p + 1, (b + r * k) // p + 1))
            outers.update([tuple([(b + i * k) // p for b, k in zip(base, s)]) for i in last])
            if zero in outers:  # the root is <1>
                return {zero}
    return outers


def frobenius_root_poly(f: Polynomial, e: int) -> Ideal:
    """The minimal ideal I with I^{[p^e]} containing f: the ideal of its parts."""
    return Ideal(f.ctx, tuple(Polynomial(f.ctx, terms, _canonical=True) for terms in _split(f, e).values()))


def frobenius_root_ideal(
    I: Ideal, e: int, h: Polynomial | None = None, d: int = 1, free: bool | None = None
) -> Ideal:
    """The minimal ideal J with J^{[p^e]} containing I, or h^d*I given h.

    Generated by the decomposition parts of any generating set; the result
    does not depend on the choice (the generator-independence property is
    exercised by the test suite), and the parts of h^d*I are those of h^d*g.
    A part of one term is a unit times a monomial: only the minimal ones
    become generators, which alone, in grevlex order, are the reduced basis,
    and a constant part makes the root <1> at once. At e = 1, the root of
    monomials times h^d comes from exponents alone when h has one term, d is
    0, or d < p and h's exponent differences are independent mod p. ``free``
    says whether they are, for a caller that knows; otherwise it is decided
    here. Any other root at e = 1 is <1>, before h^d is built, when some
    generator g has d*deg_x(h) + deg_x(g) < p in every variable x.
    """
    if e < 1:
        raise ValueError(f"Frobenius level must be >= 1, got {e}")
    ctx, p = I.ctx, I.ctx.p
    if h is None or not d:
        h, d = None, 0
    us = [(0,) * ctx.nvars] if h is None else list(h.terms)
    monomials: set[Monomial] = set()
    parts: list[Polynomial] = []
    if (
        e == 1
        and all(len(g.terms) == 1 for g in I.generators)
        and (len(us) == 1 or d < p and (independent_differences(h) if free is None else free))
    ):
        monomials = root_monomials(us, d, p, [m for g in I.generators for m in g.terms])
        if not all(map(any, monomials)):
            return Ideal.unit(ctx)
    else:
        if e == 1 and us:  # us is empty for a zero h, whose product is 0
            top = [d * max(col) for col in zip(*us)]
            for g in I.generators:
                if g.terms and all(a + max(col) < p for a, col in zip(top, zip(*g.terms))):
                    return Ideal.unit(ctx)
        power, one = h**d if d > 1 else h, Polynomial.one(ctx)
        for g in I.generators:
            if power is not None:
                g = power if g == one else power * g
            for terms in _split(g, e).values():
                if len(terms) > 1:
                    parts.append(Polynomial(ctx, terms, _canonical=True))
                    continue
                (outer,) = terms
                if not any(outer):
                    return Ideal.unit(ctx)
                monomials.add(outer)
    gens = [Polynomial(ctx, {m: 1}, _canonical=True) for m in minimal_monomials(monomials)]
    root = Ideal(ctx, tuple(gens + parts))
    return root if parts else root._with_basis(root.generators)
