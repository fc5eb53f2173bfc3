"""Ideal arithmetic in F_p[x_1..x_n].

Ideals carry a generator list and a lazily computed, cached reduced
Groebner basis under grevlex, the only monomial order; every predicate
(membership, containment, equality) routes through that canonical basis.
Most inputs are all-monomial, and their reduced basis is just the minimal
monomial generators, so those are found first and the other generators
are reduced by them. Buchberger's algorithm runs only on what remains,
with the Gebauer-Moeller pair updates and the normal selection strategy,
which keeps runs deterministic.
"""

from __future__ import annotations

import heapq

from .grammar import format_poly
from .ring import Monomial, Polynomial, RingContext, grevlex_key

BUCHBERGER_PAIR_BUDGET = 200_000


class BudgetExceededError(RuntimeError):
    """A configured computation budget was exhausted before completion."""


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _coprime(a: Monomial, b: Monomial) -> bool:
    return not any(x and y for x, y in zip(a, b))


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of multivariate division of f by ``basis``.

    The basis polynomials must be nonzero; they need not be monic or a
    Groebner basis (but the remainder is only canonical when they are).
    """
    if f.is_zero() or not basis:
        return f
    p = f.ctx.p
    prepared = [(g.leading_monomial(), g) for g in basis]

    if all(len(g.terms) == 1 for _, g in prepared):
        # pure monomial basis: reduction just drops divisible terms
        lts = [lt for lt, _ in prepared]
        kept = {
            m: c for m, c in f.terms.items() if not any(_divides(lt, m) for lt in lts)
        }
        return Polynomial(f.ctx, kept, _canonical=True)

    work = dict(f.terms)
    remainder: dict[Monomial, int] = {}
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        for lt, g in prepared:
            if _divides(lt, m):
                shift = _mono_sub(m, lt)
                factor = (c * pow(g.terms[lt], -1, p)) % p
                for gm, gc in g.terms.items():
                    if gm == lt:
                        continue
                    tm = tuple(a + b for a, b in zip(gm, shift))
                    s = (work.get(tm, 0) - factor * gc) % p
                    if s:
                        work[tm] = s
                    elif tm in work:
                        del work[tm]
                break
        else:
            remainder[m] = c
    return Polynomial(f.ctx, remainder, _canonical=True)


def _s_poly(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial of two monic polynomials."""
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = _mono_lcm(lf, lg)
    return f.scale_term(_mono_sub(lcm, lf)) - g.scale_term(_mono_sub(lcm, lg))


def _gm_update(lts: list[Monomial], active: list[int], pairs: list, h: int):
    """Add basis element ``h`` to ``active`` and its pairs to the heap
    ``pairs``, pruning both with the Gebauer-Moeller criteria. Pairs already
    queued with an element that leaves ``active`` stay in the queue."""
    th = lts[h]
    fresh = [(_mono_lcm(lts[g], th), g) for g in active]
    kept: list = []
    for n, (lcm, g) in enumerate(fresh):
        if _coprime(lts[g], th) or not any(
            _divides(other, lcm) for other, _ in fresh[n + 1 :] + kept
        ):
            kept.append((lcm, g))
    pairs[:] = [
        pair
        for pair in pairs
        if not _divides(th, pair[3])
        or _mono_lcm(lts[pair[1]], th) == pair[3]
        or _mono_lcm(lts[pair[2]], th) == pair[3]
    ]
    pairs.extend(
        (grevlex_key(lcm), g, h, lcm) for lcm, g in kept if not _coprime(lts[g], th)
    )
    heapq.heapify(pairs)
    active[:] = [g for g in active if not _divides(th, lts[g])] + [h]


def reduced_groebner(generators, ctx: RingContext) -> tuple[Polynomial, ...]:
    """The unique reduced Groebner basis of <generators> under grevlex.

    BUCHBERGER_PAIR_BUDGET bounds the number of S-pairs taken from the queue.
    """
    gens = [g for g in generators if not g.is_zero()]
    # minimal monomial generators (a constant included): a proper divisor
    # sorts before its multiples
    lts: list[Monomial] = []
    monomials = {m for g in gens if len(g.terms) == 1 for m in g.terms}
    for m in sorted(monomials, key=grevlex_key):
        if not any(_divides(k, m) for k in lts):
            lts.append(m)
    basis = [Polynomial(ctx, {m: 1}, _canonical=True) for m in lts]
    todo = [normal_form(g, basis) for g in gens if len(g.terms) > 1]
    todo = [g for g in todo if not g.is_zero()]
    if not todo:
        return tuple(basis)
    # deterministic seed order
    todo.sort(key=lambda g: sorted(map(grevlex_key, g.terms), reverse=True))

    active: list[int] = []
    pairs: list = []
    for h in range(len(basis)):
        _gm_update(lts, active, pairs, h)
    steps = 0
    while True:
        for s in todo:
            s = normal_form(s, [basis[k] for k in active])
            if s.is_zero():
                continue
            if s.is_constant():
                return (Polynomial.one(ctx),)
            lts.append(s.leading_monomial())
            monic = s.scale_term((0,) * ctx.nvars, pow(s.terms[lts[-1]], -1, ctx.p))
            basis.append(monic)
            _gm_update(lts, active, pairs, len(basis) - 1)
        if not pairs:
            break
        steps += 1
        if steps > BUCHBERGER_PAIR_BUDGET:
            raise BudgetExceededError(
                f"Groebner pair budget of {BUCHBERGER_PAIR_BUDGET} exhausted"
            )
        _, i, j, _ = heapq.heappop(pairs)
        todo = [_s_poly(basis[i], basis[j])]

    # the active leading terms divide no one another: reduce the tails
    minimal = [basis[k] for k in active]
    reduced = [
        normal_form(g, minimal[:n] + minimal[n + 1 :]) for n, g in enumerate(minimal)
    ]
    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return tuple(reduced)


class Ideal:
    """An ideal of F_p[x_1..x_n] given by finitely many generators.

    Logically immutable; the reduced Groebner basis is computed at most
    once and cached (idempotent, so concurrent duplicate computation is
    harmless). Equality and containment are mathematical, via the basis.
    """

    __slots__ = ("ctx", "generators", "_gb")

    def __init__(self, ctx: RingContext, generators=()):
        gens = tuple(generators)
        for g in gens:
            if g.ctx is not ctx and g.ctx != ctx:
                raise ValueError("generator from a different ring context")
        self.ctx = ctx
        self.generators = gens
        self._gb: tuple[Polynomial, ...] | None = None

    @classmethod
    def unit(cls, ctx: RingContext) -> Ideal:
        return cls(ctx, (Polynomial.one(ctx),))

    def groebner_basis(self) -> tuple[Polynomial, ...]:
        if self._gb is None:
            self._gb = reduced_groebner(self.generators, self.ctx)
        return self._gb

    def _with_basis(self, gb: tuple[Polynomial, ...]) -> Ideal:
        ideal = Ideal(self.ctx, gb)
        ideal._gb = gb
        return ideal

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.groebner_basis() == ()

    def is_unit(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant()

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.groebner_basis())

    def contains_poly(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def contains(self, other: Ideal) -> bool:
        if self.ctx != other.ctx:
            raise ValueError("ring context mismatch")
        return all(self.contains_poly(g) for g in other.generators)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        return self.groebner_basis() == other.groebner_basis()

    __hash__ = None

    # -- arithmetic ---------------------------------------------------

    def scale(self, h: Polynomial) -> Ideal:
        """The ideal h * self."""
        if self.ctx != h.ctx:
            raise ValueError("ring context mismatch")
        return Ideal(self.ctx, tuple(h * g for g in self.generators))

    def bracket_power(self, q: int) -> Ideal:
        """The ideal generated by g**q over generators g, for q a power of p.

        Well-defined independently of the generating set. When the reduced
        Groebner basis is already cached its q-th powers are again a reduced
        Groebner basis (Frobenius powers of an S-pair reduction are an
        S-pair reduction, by the p-th power additivity), so the cache is
        transferred instead of recomputed.
        """
        p = self.ctx.p
        e = 0
        qq = q
        while qq > 1 and qq % p == 0:
            qq //= p
            e += 1
        if qq != 1:
            raise ValueError(f"{q} is not a power of the characteristic {p}")
        out = Ideal(self.ctx, tuple(g.frobenius_stretch(e) for g in self.generators))
        if self._gb is not None:
            out._gb = tuple(g.frobenius_stretch(e) for g in self._gb)
        return out

    # -- presentation -------------------------------------------------

    def generator_strings(self) -> list[str]:
        """Sorted formatted strings of the reduced Groebner basis."""
        return sorted(format_poly(g) for g in self.groebner_basis())

    def __repr__(self):
        return f"Ideal<{', '.join(self.generator_strings()) or '0'}>"
