import random

import pytest

from fjump import Corpus, CorpusEntry, Ideal, Polynomial, RingContext, run_suite


@pytest.fixture
def ctx2():
    return RingContext(2, ("x", "y"))


@pytest.fixture
def ctx3():
    return RingContext(3, ("x", "y"))


@pytest.fixture
def ctx5():
    return RingContext(5, ("x", "y"))


@pytest.fixture
def ctx7():
    return RingContext(7, ("x", "y"))


def random_poly(rng: random.Random, ctx: RingContext, max_terms=4, max_exp=5) -> Polynomial:
    """Random nonzero polynomial with small support."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(ctx.nvars))
        terms[mono] = rng.randint(1, ctx.p - 1)
    return Polynomial(ctx, terms)


def random_ideal(rng: random.Random, ctx: RingContext, max_gens=3, max_exp=4) -> Ideal:
    gens = tuple(
        random_poly(rng, ctx, max_terms=3, max_exp=max_exp)
        for _ in range(rng.randint(1, max_gens))
    )
    return Ideal(ctx, gens)


def reassemble(ctx: RingContext, parts: dict, e: int) -> Polynomial:
    """sum over lam of parts[lam]^(p^e) * x^lam, undoing ``oracles.decompose``."""
    total = Polynomial.zero(ctx)
    for lam, g in parts.items():
        total = total + g.frobenius_stretch(e).scale_term(lam)
    return total


def law_checks(p: int, text: str, bound, depth: int, expect_jumps=None) -> dict:
    """The checks `fjump verify` runs on one corpus entry, by name."""
    entry = CorpusEntry(p, text, bound, expect_jumps)
    (report,) = run_suite(Corpus([entry]), depth=depth).entries
    assert report.error is None, report.error
    return {check.name: check for check in report.checks}


def poly(ctx: RingContext, text: str) -> Polynomial:
    from fjump import parse_poly

    return parse_poly(text, ctx)


def ideal(ctx: RingContext, *texts: str) -> Ideal:
    return Ideal(ctx, tuple(poly(ctx, t) for t in texts))
