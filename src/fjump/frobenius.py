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

For a binomial f = a*x^u + b*x^v, 0 <= d < p and a monomial x^w, term i of
f^d*x^w is C(d,i)*a^i*b^(d-i)*x^(B + i*S) with B = d*v + w and S = u - v.
Each coefficient is a unit, and when some coordinate of S is not divisible
by p no two terms share a class, as 0 < |i - j| <= d < p. The root of
f^d*x^w is then generated by the outer monomials (B + i*S) div p, which rise
with i where S is positive and fall elsewhere; only i = d and each i whose
successor steps a rising coordinate up can be minimal, at most deg f + 1 of
them whatever p is. At d = 0, and for a one-term f (u = v, any d), the one
outer monomial is (d*u + w) div p.
"""

from __future__ import annotations

from contextvars import ContextVar

from .ideals import Ideal, minimal_monomials
from .ring import Monomial, Polynomial, _accumulate

_query_powers: ContextVar[dict | None] = ContextVar("_query_powers", default=None)


def _power(f: Polynomial, n: int) -> Polynomial:
    """f**n, built once while a query's power store is open."""
    powers = _query_powers.get()
    if powers is None:
        return f**n
    return powers.get((f, n)) or powers.setdefault((f, n), f**n)


def _split(f: Polynomial, e: int, h: Polynomial | None = None) -> dict[Monomial, dict]:
    """The nonzero terms c*x^mu of f, or of h*f without building it, by residue
    class: {lam: {mu div p^e: c}} with lam = mu mod p^e."""
    if e < 1:
        raise ValueError(f"Frobenius level must be >= 1, got {e}")
    terms = f.terms
    if h is not None:
        a, b = sorted((h.terms, terms), key=len)
        # times the constant 1, the generator of <1>, b's terms are h*f's
        one = a == {(0,) * f.ctx.nvars: 1}
        terms = b if one else _accumulate([(m, c, b) for m, c in a.items()])
    if e > 1:  # level 1, the only one the kernel takes, needs no cap
        # once p^e passes every exponent, each term is its own class with outer
        # exponent 0, so no level past the largest exponent's bit length differs
        e = min(e, max(map(max, terms), default=0).bit_length())
    p = f.ctx.p
    q = p**e
    split: dict[Monomial, dict[Monomial, int]] = {}
    for mono, c in terms.items():
        if c := c % p:
            lam = tuple([x % q for x in mono])
            outer = tuple([x // q for x in mono])
            split.setdefault(lam, {})[outer] = c
    return split


def binomial_root_monomials(u: Monomial, v: Monomial, d: int, p: int, ws) -> list[Monomial]:
    """Outer monomials whose minimal ones generate I_1(f^d * <x^w : w in ws>)
    for f = a*x^u + b*x^v, 0 <= d < p and u - v not 0 mod p, from exponents."""
    s = [a - b for a, b in zip(u, v)]
    outers = []
    for w in ws:
        base = [d * b + c for b, c in zip(v, w)]
        last = {d}
        for b, k in zip(base, s):
            if k > 0:
                # term i + 1 is the first to reach m*p at i + 1 = ceil((m*p - b) / k)
                last.update(-((b - m * p) // k) - 1 for m in range(b // p + 1, (b + d * k) // p + 1))
        outers += [tuple([(b + i * k) // p for b, k in zip(base, s)]) for i in last]
    return outers


def frobenius_decompose(f: Polynomial, e: int) -> dict[Monomial, Polynomial]:
    """The parts {lam: g_lam} of the split f = sum_lam g_lam^(p^e) * x^lam."""
    return {lam: Polynomial(f.ctx, terms, _canonical=True) for lam, terms in _split(f, e).items()}


def frobenius_root_poly(f: Polynomial, e: int) -> Ideal:
    """The minimal ideal I with I^{[p^e]} containing f."""
    return Ideal(f.ctx, tuple(frobenius_decompose(f, e).values()))


def frobenius_root_ideal(I: Ideal, e: int, h: Polynomial | None = None, d: int = 1) -> Ideal:
    """The minimal ideal J with J^{[p^e]} containing I, or h^d*I given h.

    Generated by the decomposition parts of any generating set; the result
    does not depend on the choice (the generator-independence property is
    exercised by the test suite), and the parts of h^d*I are those of h^d*g.
    A part of one term is a unit times a monomial: only the minimal ones
    become generators, which alone, in grevlex order, are the reduced basis,
    and a constant part makes the root <1> at once. At e = 1, the root of
    monomials times h^d comes from exponents alone when h has one term, d is
    0, or h is a binomial with d < p whose exponents differ mod p.
    """
    if e < 1:
        raise ValueError(f"Frobenius level must be >= 1, got {e}")
    ctx, p = I.ctx, I.ctx.p
    if h is None or not d:
        h, d = None, 0
    ends = [(0,) * ctx.nvars] if h is None else list(h.terms)
    monomials: set[Monomial] = set()
    parts: list[Polynomial] = []
    binomial = len(ends) == 2 and d < p and any((a - b) % p for a, b in zip(*ends))
    if e == 1 and (len(ends) == 1 or binomial) and all(len(g.terms) == 1 for g in I.generators):
        monomials.update(binomial_root_monomials(ends[0], ends[-1], d, p, [m for g in I.generators for m in g.terms]))
        if not all(map(any, monomials)):
            return Ideal.unit(ctx)
    else:
        h = _power(h, d) if d > 1 else h
        for g in I.generators:
            for terms in _split(g, e, h).values():
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
