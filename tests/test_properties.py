"""Property tests for the Frobenius split, the reduced Groebner basis and
the test ideals tau(f^c)."""

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
    reduced_groebner,
    tau,
)

from conftest import reassemble  # noqa: E402

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
