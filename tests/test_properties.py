"""Property tests for the Frobenius split, the reduced Groebner basis and
the test ideals tau(f^c)."""

import itertools
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from fjump import (  # noqa: E402
    Ideal,
    Polynomial,
    RingContext,
    frobenius_decompose,
    frobenius_root_ideal,
    frobenius_root_poly,
    reduced_groebner,
    tau,
)
from fjump.frobenius import independent_differences, root_monomials  # noqa: E402
from fjump.ideals import _s_poly, minimal_monomials, normal_form  # noqa: E402
from fjump.ring import grevlex_key  # noqa: E402

from conftest import poly, reassemble  # noqa: E402

settings = hypothesis.settings(
    derandomize=True, database=None, deadline=None, max_examples=60
)

CONTEXTS = [
    RingContext(p, names) for p in (2, 3, 5) for names in (("x",), ("x", "y"), ("x", "y", "z"))
]


@st.composite
def polys(draw, ctx, min_terms=0, max_terms=4, max_exp=9):
    monos = st.tuples(*[st.integers(0, max_exp)] * ctx.nvars)
    coeffs = st.integers(1, ctx.p - 1)
    terms = draw(st.dictionaries(monos, coeffs, min_size=min_terms, max_size=max_terms))
    return Polynomial(ctx, terms)


@st.composite
def ctx_and_polys(draw, count, **kwargs):
    ctx = draw(st.sampled_from(CONTEXTS))
    return ctx, draw(st.lists(polys(ctx, **kwargs), min_size=count[0], max_size=count[1]))


@settings
@hypothesis.given(ctx_and_polys((1, 1), max_terms=6, max_exp=30), st.integers(1, 3))
def test_decompose_reassembles(case, e):
    ctx, (f,) = case
    q = ctx.p**e
    parts = frobenius_decompose(f, e)
    for lam, g in parts.items():
        assert all(0 <= x < q for x in lam) and not g.is_zero()
    assert reassemble(ctx, parts, e) == f


def _padded(draw, gens, ctx):
    """gens with some repeated, zeros added, in a drawn order."""
    repeats = draw(st.lists(st.sampled_from(gens), max_size=3)) if gens else []
    zeros = [Polynomial.zero(ctx)] * draw(st.integers(0, 2))
    return draw(st.permutations(gens + repeats + zeros))


@settings
@hypothesis.given(ctx_and_polys((0, 3), max_terms=3, max_exp=4), st.data())
def test_groebner_ignores_repeats_order_and_zeros(case, data):
    ctx, gens = case
    padded = _padded(data.draw, gens, ctx)
    assert reduced_groebner(padded, ctx) == reduced_groebner(gens, ctx)


@settings
@hypothesis.given(ctx_and_polys((1, 3), max_terms=3, max_exp=6), st.integers(1, 2), st.data())
def test_root_ignores_repeats_order_and_zeros(case, e, data):
    ctx, gens = case
    padded = _padded(data.draw, gens, ctx)
    root = frobenius_root_ideal(Ideal(ctx, padded), e)
    assert root.groebner_basis() == frobenius_root_ideal(Ideal(ctx, gens), e).groebner_basis()


ROOT_CONTEXTS = [
    RingContext(p, names) for p in (2, 3, 5, 7) for names in (("x",), ("x", "y"), ("x", "y", "z"))
]


def _root_by_definition(ctx, h, gens, e):
    """I_e(h*J): the ideal of the parts of h*g over the generators g of J."""
    return Ideal(ctx, [part for g in gens for part in frobenius_decompose(h * g, e).values()])


@pytest.mark.parametrize("ctx", ROOT_CONTEXTS, ids=repr)
@settings
@hypothesis.given(st.data())
def test_root_of_product_matches_definition(ctx, data):
    h = data.draw(polys(ctx, max_terms=3, max_exp=5))
    gens = data.draw(st.lists(polys(ctx, max_terms=3, max_exp=5), max_size=3))
    e = data.draw(st.integers(1, 2))
    root = frobenius_root_ideal(Ideal(ctx, gens), e, h)
    if all(len(g.terms) == 1 for g in root.generators):
        # no multi-term part: the minimal monomials are carried as the basis
        assert root._gb == reduced_groebner(root.generators, ctx)
    assert root == _root_by_definition(ctx, h, gens, e)


def test_root_of_product_drops_cancelled_terms():
    # at p = 3, (x + y)(x^2 - xy + y^2 + x^4 y) = x^3 + y^3 + x^5 y + x^4 y^2:
    # x^2 y and x y^2 cancel. Counted as lone constants they would make the
    # root <1>; their classes keep x^5 y and x^4 y^2 alone, each the monomial x
    ctx = RingContext(3, ("x", "y"))
    h, g = poly(ctx, "x + y"), poly(ctx, "x^2 - x*y + y^2 + x^4*y")
    root = frobenius_root_ideal(Ideal(ctx, (g,)), 1, h)
    assert root == _root_by_definition(ctx, h, [g], 1) == Ideal(ctx, (poly(ctx, "x"), poly(ctx, "y")))
    assert sorted(map(len, (r.terms for r in root.generators))) == [1, 2]


def _dependent_by_search(f):
    """Whether some nonzero c in F_p^(k-1) has sum_i c_i (u_i - u_k) = 0 mod p."""
    p = f.ctx.p
    *rows, last = f.terms
    diffs = [[a - b for a, b in zip(u, last)] for u in rows]
    return any(
        any(c) and not any(sum(ci * row[j] for ci, row in zip(c, diffs)) % p for j in range(len(last)))
        for c in itertools.product(range(p), repeat=len(rows))
    )


def test_exponent_steps_match_definition():
    # I_1(f^d * <x^w : w in ws>) read off the exponents of f, against the
    # parts of each f^d * x^w built and split (frobenius_root_poly); the
    # independence test against a search over every combination mod p
    rng = random.Random(8191)
    drawn = {True: 0, False: 0}
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        ctx = RingContext(p, ("x", "y", "z")[: rng.randint(2, 3)])
        monos: set = set()
        k = rng.randint(3, 5)
        while len(monos) < k:
            monos.add(tuple(rng.randint(0, 6) for _ in range(ctx.nvars)))
        f = Polynomial(ctx, {m: rng.randint(1, p - 1) for m in monos})
        free = independent_differences(f)
        assert free != _dependent_by_search(f), f
        drawn[free] += 1
        d = rng.randrange(p)
        ws = [tuple(rng.randint(0, 2 * p) for _ in range(ctx.nvars)) for _ in range(rng.randint(1, 3))]
        gens = [Polynomial(ctx, {w: 1}) for w in ws]
        power = f**d
        definition = Ideal(ctx, [g for x_w in gens for g in frobenius_root_poly(power * x_w, 1).generators])
        assert frobenius_root_ideal(Ideal(ctx, gens), 1, f, d) == definition, (f, d, ws)
        if free:
            monomials = minimal_monomials(root_monomials(list(f.terms), d, p, ws))
            assert Ideal(ctx, [Polynomial(ctx, {m: 1}) for m in monomials]) == definition, (f, d, ws)
    assert min(drawn.values()) >= 20, drawn


def test_normal_form_by_monomials():
    # by monomials, some redundant, some scaled and some the constant 1, the
    # remainder r of f keeps no term that a basis monomial divides, and every
    # term of f - r has such a divisor
    rng = random.Random(541)
    kinds = dict.fromkeys(("redundant", "scaled", "unit"), 0)
    for _ in range(600):
        ctx = RingContext(rng.choice((2, 3, 5, 7)), ("x", "y", "z")[: rng.randint(1, 3)])
        monos: list = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.random()
            if kind < 0.05:
                m = (0,) * ctx.nvars
                kinds["unit"] += 1
            elif kind < 0.35 and monos:
                m = tuple(a + rng.randint(0, 2) for a in rng.choice(monos))
                kinds["redundant"] += 1
            else:
                m = tuple(rng.randint(0, 4) for _ in range(ctx.nvars))
            monos.append(m)
        coeffs = [rng.randint(1, ctx.p - 1) for _ in monos]
        kinds["scaled"] += sum(c != 1 for c in coeffs)
        basis = [Polynomial(ctx, {m: c}) for m, c in zip(monos, coeffs)]
        f = Polynomial(ctx, {
            tuple(rng.randint(0, 6) for _ in range(ctx.nvars)): rng.randint(1, ctx.p - 1)
            for _ in range(rng.randint(1, 12))
        })
        r = normal_form(f, basis)

        def divided(m):
            return any(all(a <= b for a, b in zip(lt, m)) for lt in monos)

        assert not any(map(divided, r.terms)), (f, basis)
        assert all(map(divided, (f - r).terms)), (f, basis)
    assert min(kinds.values()) >= 20, kinds


@st.composite
def exponents(draw, top=1):
    """A rational c in (0, top] with a denominator of at most 8."""
    den = draw(st.integers(1, 8))
    return Fraction(draw(st.integers(1, top * den)), den)


NONZERO = ctx_and_polys((1, 1), min_terms=1, max_terms=3, max_exp=3)


@settings
@hypothesis.given(NONZERO, exponents())
def test_tau_generated_in_degree_of_f(case, c):
    # Blickle-Mustata-Smith: for c <= 1, tau(f^c) is generated in degree
    # <= deg f; grevlex is degree-compatible, so the reduced basis elements
    # of degree <= deg f then generate it
    ctx, (f,) = case
    value = tau(f, c)
    low = [g for g in value.groebner_basis() if g.total_degree() <= f.total_degree()]
    assert Ideal(ctx, low) == value


@settings
@hypothesis.given(NONZERO, exponents())
def test_skoda(case, c):
    _, (f,) = case
    assert tau(f, c + 1) == tau(f, c).scale(f)


@settings
@hypothesis.given(NONZERO, exponents(top=2), exponents(top=2))
def test_tau_monotone_in_c(case, c, d):
    _, (f,) = case
    c, d = sorted((c, d))
    assert tau(f, c).contains(tau(f, d))


KERNEL_CONTEXTS = [
    RingContext(p, names) for p in (2, 3, 65521) for names in (("x",), ("x", "y"))
]


def _naive_product(ctx, *factors):
    """The product of term maps, every pair of terms multiplied out; integer
    coefficients, not reduced."""
    out = {(0,) * ctx.nvars: 1}
    for factor in factors:
        nxt = {}
        for m1, c1 in out.items():
            for m2, c2 in factor.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                nxt[mono] = nxt.get(mono, 0) + c1 * c2
        out = nxt
    return out


def _naive_sum(ctx, *summands):
    """The sum of integer term maps, reduced mod p only at the end."""
    total = {}
    for summand in summands:
        for mono, c in summand.items():
            total[mono] = total.get(mono, 0) + c
    return {mono: c % ctx.p for mono, c in total.items() if c % ctx.p}


def _assert_terms(poly, expected):
    assert poly.terms == expected
    assert all(1 <= c < poly.ctx.p for c in poly.terms.values())


@st.composite
def colliding_pair(draw):
    """f and g over few monomials, g cancelling some terms of f."""
    ctx = draw(st.sampled_from(KERNEL_CONTEXTS))
    f = draw(polys(ctx, max_terms=6, max_exp=2))
    g = dict(draw(polys(ctx, max_terms=6, max_exp=2)).terms)
    if f.terms:
        for mono in draw(st.lists(st.sampled_from(sorted(f.terms)), max_size=3)):
            g[mono] = ctx.p - f.terms[mono]
    return ctx, f, Polynomial(ctx, g)


@settings
@hypothesis.given(colliding_pair(), st.data())
def test_arithmetic_matches_naive_oracle(case, data):
    ctx, f, g = case
    minus_one = {(0,) * ctx.nvars: -1}
    _assert_terms(f * g, _naive_sum(ctx, _naive_product(ctx, f.terms, g.terms)))
    _assert_terms(f + g, _naive_sum(ctx, f.terms, g.terms))
    _assert_terms(f - g, _naive_sum(ctx, f.terms, _naive_product(ctx, g.terms, minus_one)))
    _assert_terms(-f, _naive_sum(ctx, _naive_product(ctx, f.terms, minus_one)))
    mono = data.draw(st.tuples(*[st.integers(0, 3)] * ctx.nvars))
    coeff = data.draw(st.sampled_from((0, -1, ctx.p)) | st.integers(-(ctx.p**2), ctx.p**2))
    expected = _naive_sum(ctx, _naive_product(ctx, f.terms, {mono: coeff}))
    _assert_terms(f.scale_term(mono, coeff), expected)


def _monic(ctx, f):
    terms = dict(f.terms)
    terms[max(terms, key=grevlex_key)] = 1
    return Polynomial(ctx, terms)


@settings
@hypothesis.given(colliding_pair())
def test_s_poly_matches_naive_oracle(case):
    ctx, f, g = case
    hypothesis.assume(f.terms and g.terms)
    f, g = _monic(ctx, f), _monic(ctx, g)
    lf, lg = max(f.terms, key=grevlex_key), max(g.terms, key=grevlex_key)
    lcm = tuple(map(max, lf, lg))
    expected = _naive_sum(
        ctx,
        _naive_product(ctx, f.terms, {tuple(a - b for a, b in zip(lcm, lf)): 1}),
        _naive_product(ctx, g.terms, {tuple(a - b for a, b in zip(lcm, lg)): -1}),
    )
    _assert_terms(_s_poly(f, g), expected)
