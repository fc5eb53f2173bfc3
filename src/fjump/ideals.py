"""Ideal arithmetic in F_p[x_1..x_n].

Ideals carry a generator list and a lazily computed, cached reduced
Groebner basis under grevlex, the only monomial order; every predicate
(membership, containment, equality) routes through that canonical basis.
Most bases are all-monomial, and the remainder by one is the terms of f
that no basis monomial divides, found by one filter with no heap and no
division; any other basis divides terms taken from one grevlex heap. One
nonzero generator is its own reduced basis once made monic, and as
LT(h*g) = LT(h)*LT(g), h*J has the basis h*G (G the reduced basis of J,
h monic) once the tails are reduced: <1> and every h*J skip Buchberger.
Most inputs are all-monomial, and their reduced basis is just the minimal
monomial generators, so those are found first and the other generators
are reduced by them. Of what remains, each scalar multiple of an earlier
generator is dropped, and Buchberger's algorithm runs on the rest, with
the Gebauer-Moeller pair updates and the normal selection strategy, which
keeps runs deterministic. Its first sweep reduces each generator by the
basis built so far, which takes care of the remaining linear dependences.
"""

from __future__ import annotations

import functools
import heapq
from operator import le

from .grammar import format_poly
from .ring import BudgetExceededError, Monomial, Polynomial, RingContext, _combine, grevlex_key

BUCHBERGER_PAIR_BUDGET = 200_000


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _coprime(a: Monomial, b: Monomial) -> bool:
    return not any(x and y for x, y in zip(a, b))


def minimal_monomials(monomials) -> list[Monomial]:
    """The divisibility-minimal ``monomials`` in grevlex order: a proper
    divisor sorts first, so one pass keeps m unless a kept one divides it."""
    kept: list[Monomial] = []
    for m in sorted(monomials, key=grevlex_key):
        if not any(_divides(k, m) for k in kept):
            kept.append(m)
    return kept


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f by ``basis``.

    By an all-monomial basis the remainder is the terms of f that no basis
    monomial divides: dividing by a monomial removes a term and adds none.
    By any other basis, terms come off a heap in descending grevlex order
    and each goes to its first divisor. The basis polynomials must be
    nonzero; they need not be monic or a Groebner basis (but the remainder
    is only canonical when they are).
    """
    if f.is_zero() or not basis:
        return f
    if all(len(g.terms) == 1 for g in basis):
        lts = [m for g in basis for m in g.terms]
        kept = {m: c for m, c in f.terms.items() if not any(_divides(lt, m) for lt in lts)}
        return f if len(kept) == len(f.terms) else Polynomial(f.ctx, kept, _canonical=True)
    p = f.ctx.p
    prepared = [(g.leading_monomial(), g) for g in basis]
    work = dict(f.terms)
    # the key (-sum(m), m[::-1]) is -grevlex_key(m). Each monomial of work is
    # pushed once; a cancelled one keeps coefficient 0 until it is popped.
    heap = [(-sum(m), m[::-1], m) for m in work]
    heapq.heapify(heap)
    remainder: dict[Monomial, int] = {}
    while heap:
        m = heapq.heappop(heap)[2]
        c = work.pop(m)
        if not c:
            continue
        for lt, g in prepared:
            if _divides(lt, m):
                shift = _mono_sub(m, lt)
                factor = (c * pow(g.terms[lt], -1, p)) % p
                for gm, gc in g.terms.items():
                    if gm == lt:
                        continue
                    tm = tuple(a + b for a, b in zip(gm, shift))
                    if tm not in work:
                        heapq.heappush(heap, (-sum(tm), tm[::-1], tm))
                    work[tm] = (work.get(tm, 0) - factor * gc) % p
                break
        else:
            remainder[m] = c
    return Polynomial(f.ctx, remainder, _canonical=True)


def _monic(g: Polynomial) -> Polynomial:
    lc = g.terms[g.leading_monomial()]
    return g if lc == 1 else g.scale_term((0,) * g.ctx.nvars, pow(lc, -1, g.ctx.p))


def _reduce_tails(minimal: list[Polynomial]) -> tuple[Polynomial, ...]:
    """The reduced basis from a monic Groebner basis whose leading terms
    divide no one another: each element's tail is reduced by the others."""
    reduced = [normal_form(g, minimal[:n] + minimal[n + 1 :]) for n, g in enumerate(minimal)]
    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return tuple(reduced)


def _s_poly(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial of two monic polynomials."""
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = _mono_lcm(lf, lg)
    return _combine(f.ctx, [(_mono_sub(lcm, lf), 1, f.terms), (_mono_sub(lcm, lg), -1, g.terms)])


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

    Scalar multiples of earlier multi-term generators are dropped before
    Buchberger runs; BUCHBERGER_PAIR_BUDGET bounds the S-pairs it takes.
    """
    gens = [g for g in generators if not g.is_zero()]
    if len(gens) == 1:  # one polynomial is the reduced basis of its ideal
        return (_monic(gens[0]),)
    # minimal monomial generators (a constant included)
    lts = minimal_monomials({m for g in gens if len(g.terms) == 1 for m in g.terms})
    basis = [Polynomial(ctx, {m: 1}, _canonical=True) for m in lts]
    # the others reduced by them, with no zero and no scalar duplicate
    todo = (normal_form(g, basis) for g in gens if len(g.terms) > 1)
    todo = list(dict.fromkeys(_monic(g) for g in todo if not g.is_zero()))
    if not todo:
        return tuple(basis)
    # in a deterministic seed order
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
            basis.append(_monic(s))
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

    # the active leading terms divide no one another
    return _reduce_tails([basis[k] for k in active])


class Ideal:
    """An ideal of F_p[x_1..x_n] given by finitely many generators.

    Logically immutable; the reduced Groebner basis is computed at most
    once and cached (idempotent, so concurrent duplicate computation is
    harmless). Equality and containment are mathematical, via the basis,
    and an ideal hashes by its reduced basis, so equal ideals from
    different generating sets hash equal.
    """

    __slots__ = ("ctx", "generators", "_gb", "_hash", "_strings")

    def __init__(self, ctx: RingContext, generators=()):
        gens = tuple(generators)
        for g in gens:
            if g.ctx is not ctx and g.ctx != ctx:
                raise ValueError("generator from a different ring context")
        self.ctx = ctx
        self.generators = gens
        self._gb: tuple[Polynomial, ...] | None = None
        self._hash: int | None = None
        self._strings: tuple[str, ...] | None = None

    @classmethod
    @functools.cache
    def unit(cls, ctx: RingContext) -> Ideal:
        """<1>, one object per ring context."""
        return cls(ctx)._with_basis((Polynomial.one(ctx),))

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
        if self is other:
            return True
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("ring context mismatch")
        return all(self.contains_poly(g) for g in other.generators)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            return False
        return self.groebner_basis() == other.groebner_basis()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.groebner_basis())
        return self._hash

    # -- arithmetic ---------------------------------------------------

    def scale(self, h: Polynomial) -> Ideal:
        """The ideal h * self, whose reduced basis is h * G with h made monic
        and the tails reduced (G the reduced basis of self)."""
        if self.ctx is not h.ctx and self.ctx != h.ctx:
            raise ValueError("ring context mismatch")
        gb = self.groebner_basis()
        if h.is_zero() or not gb:
            return self._with_basis(())
        h = _monic(h)
        if len(gb) > 1:
            return self._with_basis(_reduce_tails([h * g for g in gb]))
        # one monic element is a reduced basis, and h * <1> is <h>
        return self._with_basis((h if gb[0].is_constant() else h * gb[0],))

    # -- presentation -------------------------------------------------

    def generator_strings(self) -> list[str]:
        """Sorted formatted strings of the reduced Groebner basis, formatted once."""
        if self._strings is None:
            self._strings = tuple(sorted(format_poly(g) for g in self.groebner_basis()))
        return list(self._strings)

    def __repr__(self):
        return f"Ideal<{', '.join(self.generator_strings()) or '0'}>"
