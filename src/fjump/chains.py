"""Descending ideal chains C_s = I_{s*beta}(g^(a*psi_s(p^beta))).

Each C_s is the annihilator-ideal stand-in for the space killed by the
s-th power of the skew operator m -> g^a * F^beta(m) on the injective hull
of the residue field; that module-theoretic side is never materialized.
The chain descends, stabilizes, and its stable value equals the left limit
of tau at gamma = a/(p^beta - 1). Containments between stable values run
opposite to the containments of the nilpotent spaces they represent
(annihilators reverse inclusions), so ordering reports record the ideal
direction explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .frobenius import frobenius_root_poly  # noqa: F401 - perfbench/tracer.py wraps this binding
from .ideals import BudgetExceededError, Ideal
from .ring import Polynomial
from .testideals import _phi_fixed_point, enumerate_jumps, tau

BIJECTION_BETA_MAX = 12


class TotalOrderViolation(RuntimeError):
    """Two stabilized chain values failed to be comparable."""


def psi(e: int, q: int) -> int:
    """The geometric sum 1 + q + ... + q^(e-1) = (q^e - 1)/(q - 1)."""
    if e < 0 or q < 2:
        raise ValueError("need e >= 0 and q >= 2")
    return (q**e - 1) // (q - 1)


@dataclass
class ChainTrace:
    """The chain C_1 contains C_2 contains ..., recorded to stabilization.

    ``terms[s]`` is C_{s+1}; the list ends with the first repeated value,
    so terms[-1] == terms[-2] and stab_index is the first s with
    C_s = C_{s+1}. The stable value is the class of (a, beta), and gamma
    is the exponent whose left limit of tau it equals.
    """

    g: Polynomial
    a: int
    beta: int
    terms: list[Ideal]

    @property
    def stable(self) -> Ideal:
        return self.terms[-1]

    @property
    def stab_index(self) -> int:
        return len(self.terms) - 1

    @property
    def gamma(self) -> Fraction:
        return Fraction(self.a, self.g.ctx.p**self.beta - 1)


def chain(g: Polynomial, a: int, beta: int) -> ChainTrace:
    """Run the chain to its fixed point via the step Phi(J) = I_beta(g^a J)."""
    if g.is_zero():
        raise ValueError("need a nonzero polynomial")
    if a < 0 or beta < 1:
        raise ValueError("need a >= 0 and beta >= 1")
    trace = _phi_fixed_point(g, a, beta, Ideal.unit(g.ctx))
    terms = trace[1:]  # drop the seed <1>; terms[s-1] = C_s
    if len(terms) == 1:
        # the first term already equals the seed; record C_2 = C_1 so the
        # trace ends with the repeated pair like every other trace
        terms.append(terms[0])
    for s in range(1, len(terms)):
        if not terms[s - 1].contains(terms[s]):
            raise AssertionError(f"chain failed to descend at step {s + 1}; this is a bug")
    return ChainTrace(g, a, beta, terms)


@dataclass(frozen=True)
class NilComparison:
    """Ordering report for two classes over the same polynomial.

    ``gamma_order`` and ``representative_order`` are each one of
    '<', '=', '>' ; representatives of the class with the larger gamma are
    contained in those of the smaller (the nilpotent spaces themselves
    grow with gamma, the annihilator ideals shrink), recorded in
    ``direction``.
    """

    gamma_order: str
    representative_order: str
    direction: str = "larger gamma gives smaller representative ideal"

    @property
    def consistent(self) -> bool:
        if self.gamma_order == "=":
            return self.representative_order == "="
        flipped = "<" if self.gamma_order == ">" else ">"
        return self.representative_order in ("=", flipped)


def nil_compare(n1: ChainTrace, n2: ChainTrace) -> NilComparison:
    """Compare two chain classes; raises if the stable values are incomparable."""
    if n1.g != n2.g:
        raise ValueError("classes belong to different polynomials")
    gamma_order = "<" if n1.gamma < n2.gamma else (">" if n1.gamma > n2.gamma else "=")
    r1, r2 = n1.stable, n2.stable
    if r1 == r2:
        representative_order = "="
    elif r1.contains(r2):
        representative_order = ">"
    elif r2.contains(r1):
        representative_order = "<"
    else:
        raise TotalOrderViolation(
            f"representatives for gamma={n1.gamma} and gamma={n2.gamma} "
            "are not comparable"
        )
    return NilComparison(gamma_order, representative_order)


def bijection_check(g: Polynomial, c: Fraction, next_jump: Fraction | None = None) -> bool:
    """Check that some class (a, beta) realizes tau(g^c) as its stable value.

    Sweeps beta upward taking the least a with gamma = a/(p^beta - 1) > c;
    any gamma at most the next jump must reproduce tau(g^c) exactly (the
    left limit at the next jump equals tau on the gap). When ``next_jump``
    is unknown, mismatches are retried with larger beta since gamma may
    have overshot a jump.
    """
    c = Fraction(c)
    if c < 0:
        raise ValueError(f"need c >= 0, got {c}")
    if next_jump is None:
        scan = enumerate_jumps(g, c + 1)
        later = [j for j in scan.coefficients() if j > c]
        if later:
            next_jump = later[0]
    target = tau(g, c)
    p = g.ctx.p
    for beta in range(1, BIJECTION_BETA_MAX + 1):
        den = p**beta - 1
        a = (c.numerator * den) // c.denominator + 1
        gamma = Fraction(a, den)
        if next_jump is not None and gamma > next_jump:
            continue
        if chain(g, a, beta).stable == target:
            return True
        if next_jump is not None:
            return False
    raise BudgetExceededError(
        f"no class with gamma in ({c}, next jump] found for beta <= {BIJECTION_BETA_MAX}"
    )
