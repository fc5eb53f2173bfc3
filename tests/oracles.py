"""Slow reference computations that only the tests use as oracles.

``decompose(f, e)`` splits f over the p^e-th powers term by term, the
split that ``frobenius_root_poly`` takes the parts of. ``nu(f, J, e)``
brackets a test-ideal threshold from the membership of powers of f in the
Frobenius power J^[p^e]; no command computes it, so it lives here rather
than in the package.
"""

from fjump import BudgetExceededError, Ideal, Polynomial

# nu doubles its exponent up to this before it calls f outside the radical of J
NU_EXPONENT_BUDGET = 1 << 20


def decompose(f: Polynomial, e: int) -> dict:
    """The parts {lam: g_lam} of f = sum_lam g_lam^(p^e) * x^lam: the term
    c*x^mu adds c*x^(mu div p^e) to the part of lam = mu mod p^e."""
    q = f.ctx.p**e
    parts: dict = {}
    for mu, c in f.terms.items():
        lam = tuple(x % q for x in mu)
        term = Polynomial(f.ctx, {tuple(x // q for x in mu): c})
        parts[lam] = parts[lam] + term if lam in parts else term
    return parts


def bracket_power(I: Ideal, q: int) -> Ideal:
    """The ideal generated by g**q over generators g of I, for q a power of p.

    Well-defined independently of the generating set. The q-th powers of
    the reduced Groebner basis are again the reduced Groebner basis
    (Frobenius powers of an S-pair reduction are an S-pair reduction, by
    the p-th power additivity), so that is what is stretched.
    """
    p = I.ctx.p
    e = 0
    while p**e < q:
        e += 1
    if p**e != q:
        raise ValueError(f"{q} is not a power of the characteristic {p}")
    return I._with_basis(tuple(g.frobenius_stretch(e) for g in I.groebner_basis()))


def pow_normal_form(f: Polynomial, r: int, I: Ideal) -> Polynomial:
    """Normal form of f^r modulo I, reducing after every multiplication."""
    result, level = Polynomial.one(f.ctx), 0
    while r:
        r, d = divmod(r, f.ctx.p)
        if d:  # square and multiply, so no factor outgrows the normal forms mod I
            piece, base = Polynomial.one(f.ctx), I.normal_form(f)
            while d:
                if d & 1:
                    piece = I.normal_form(piece * base)
                d >>= 1
                if d:
                    base = I.normal_form(base * base)
            result = I.normal_form(result * piece.frobenius_stretch(level))
        level += 1
    return result


def nu(f: Polynomial, J: Ideal, e: int) -> int:
    """max{r >= 0 : f^r not in J^[p^e]}, by exponential-then-binary search.

    Finite only when f lies in the radical of J; the exponent budget turns
    the divergent case into a diagnostic error.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no test ideals")
    if e < 1:
        raise ValueError("need e >= 1")
    if J.is_unit() or J.is_zero():
        raise ValueError("need a proper nonzero ideal")
    Jq = bracket_power(J, f.ctx.p**e)

    def member(r: int) -> bool:
        return pow_normal_form(f, r, Jq).is_zero()

    if member(1):
        return 0
    lo, hi = 1, 2
    while not member(hi):
        lo, hi = hi, hi * 2
        if hi > NU_EXPONENT_BUDGET:
            raise BudgetExceededError(
                f"f^r stayed outside the bracket power up to r={lo}; "
                "f may not lie in the radical of J"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if member(mid):
            hi = mid
        else:
            lo = mid
    return lo
