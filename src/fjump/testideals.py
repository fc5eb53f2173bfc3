"""Generalized test ideals of a principal ideal at exact rational exponents.

For nonzero f and c = r/p^e the test ideal tau(f^c) is exactly the
Frobenius root I_e(f^r), and the root of a huge power f^N is computed by a
base-p digit recursion instead of expanding f^N: peeling one digit uses

    I_e(f^N * J) = I_{e-1}( f^(N div p) * I_1( f^(N mod p) * J ) )

which follows from the composition law I_{e'+e} = I_{e'} after I_e and the
skew identity I_e(h^{p^e} * I) = h * I_e(I). Every intermediate object
stays no bigger than the answer.

For general c, writing c = a / (p^d (p^beta - 1)) and splitting
p^d c = m + g with m an integer and g = a'/(p^beta - 1) in [0, 1), Skoda's
theorem tau(f^(t + 1)) = f * tau(f^t) and the pull-back identity
I_1(tau(f^(p c))) = tau(f^c) give

    tau(f^c) = I_d( f^m * tau(f^g) ),

one digit-recursive root of the value at the fractional part g. That value
is the fixed point of the step operator Phi(J) = I_beta(f^a' * J) started
from the seed <f^ceil(g)>: the iterates are T_s = I_{s beta}(f^(a' psi_s +
ceil(g))) with psi_s = (p^(s beta) - 1)/(p^beta - 1), the defining chain of
tau(f^g), since ceil(g p^(s beta)) = a' psi_s + ceil(g). A dyadic c is the
case g = 0, where Phi fixes <1> in one step. The left limit at c splits
with g in (0, 1] instead and starts from <1>: the iterates
I_{s beta}(f^(a' psi_s)) descend to the common value of tau just below g.

Phi is monotone and deterministic, so two equal consecutive iterates make
the chain stationary forever: the fixed point is a rigorous stopping rule.

f has few distinct test ideals, so digit steps repeat. Inside a
``shared_roots()`` block, which ``enumerate_jumps`` and each ``verify``
entry open, a per-thread memo keyed on (f, d, the unique reduced basis of
J) takes each step J -> I_1(f^d * J) once; calls outside build no key.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction

from .digits import canonicalize
from .frobenius import frobenius_root_ideal
from .ideals import BudgetExceededError, Ideal
from .ring import Polynomial

PHI_STEP_BUDGET = 64
DEFAULT_DEPTH = 4
NU_EXPONENT_BUDGET = 1 << 20
# the largest bound on the terms of f^n that _root_scaled expands
EXPANSION_TERM_BUDGET = 1 << 20

_step_memo: ContextVar[dict | None] = ContextVar("_step_memo", default=None)


def _require_nonzero(f: Polynomial):
    if f.is_zero():
        raise ValueError("the zero polynomial has no test ideals")


@contextmanager
def shared_roots():
    """Memoize the digit steps of this thread's enclosed calls; nested blocks share one memo."""
    memo = _step_memo.get()
    token = _step_memo.set({} if memo is None else memo)
    try:
        yield
    finally:
        _step_memo.reset(token)


def _root_scaled(f: Polynomial, n: int, e: int, J: Ideal) -> Ideal:
    """I_e(f^n * J) by the digit recursion; never expands f^n for n >= p^e."""
    p = f.ctx.p
    memo = _step_memo.get()
    for _ in range(e):
        d = n % p
        n //= p
        key = None if memo is None else (f, d, J.groebner_basis())
        if key is not None and key in memo:
            J = memo[key]
            continue
        scaled = J.scale(f._small_pow(d)) if d else J
        J = frobenius_root_ideal(scaled, 1)
        # regenerate from the reduced basis so generator lists stay short
        J = J._with_basis(J.groebner_basis())
        if key is not None:
            memo[key] = J
    if n:
        # f^n is the product of (f^d)^(p^i) over the base-p digits d of n;
        # f^d has at most C(d + k - 1, k - 1) terms (f with k terms) and at
        # most as many as there are monomials of degree <= d*deg(f)
        k, deg, v = len(f.terms), f.total_degree(), f.ctx.nvars
        bound, rest = 1, n
        while rest and bound <= EXPANSION_TERM_BUDGET:
            d = rest % p
            bound *= min(math.comb(d + k - 1, k - 1), math.comb(d * deg + v, v))
            rest //= p
        if bound > EXPANSION_TERM_BUDGET:
            raise BudgetExceededError(
                f"expanding f^n: its term bound exceeds {EXPANSION_TERM_BUDGET}"
            )
        J = J.scale(f**n)
    return J


def tau_dyadic(f: Polynomial, r: int, e: int) -> Ideal:
    """tau(f^(r/p^e)) = I_e(f^r), exact for the principal ideal <f>."""
    _require_nonzero(f)
    if r < 0 or e < 1:
        raise ValueError("need r >= 0 and e >= 1")
    return _root_scaled(f, r, e, Ideal.unit(f.ctx))


def phi_step(f: Polynomial, a: int, beta: int, J: Ideal) -> Ideal:
    """One chain step Phi(J) = I_beta(f^a * J); monotone in J."""
    _require_nonzero(f)
    if a < 0 or beta < 1:
        raise ValueError("need a >= 0 and beta >= 1")
    return _root_scaled(f, a, beta, J)


def _phi_fixed_point(f: Polynomial, a: int, beta: int, start: Ideal) -> list[Ideal]:
    """Iterate Phi from ``start`` until two consecutive values agree.

    Returns the trace [start, Phi(start), ...] ending with the repeated
    value. Raises if no fixed point appears within PHI_STEP_BUDGET steps
    (the chain is guaranteed to stabilize, so this signals a bug).
    """
    trace = [start]
    for _ in range(PHI_STEP_BUDGET):
        nxt = phi_step(f, a, beta, trace[-1])
        trace.append(nxt)
        if nxt == trace[-2]:
            return trace
    raise BudgetExceededError(
        f"chain did not stabilize within {PHI_STEP_BUDGET} steps "
        f"(a={a}, beta={beta}); the chain must stabilize, so report a bug"
    )


def _tau_split(f: Polynomial, c: Fraction, left: bool) -> Ideal:
    """tau(f^c) for c > 0, or its left limit, by the Skoda split p^d c = m + g."""
    cf = canonicalize(c, f.ctx.p)
    q_minus = f.ctx.p**cf.beta - 1
    # g = a/q_minus lies in (0, 1] for the left limit and in [0, 1) for tau,
    # whose chain starts from <f^ceil(g)>
    m = (cf.a - 1) // q_minus if left else cf.a // q_minus
    a = cf.a - m * q_minus
    seed = Ideal.unit(f.ctx) if left or not a else Ideal(f.ctx, (f,))
    trace = _phi_fixed_point(f, a, cf.beta, seed)
    return _root_scaled(f, m, cf.d, trace[-1])


def tau_left_limit(f: Polynomial, c: Fraction) -> Ideal:
    """The common value of tau(f^(c - eps)) for all small eps > 0."""
    _require_nonzero(f)
    c = Fraction(c)
    if c <= 0:
        raise ValueError(f"need a positive exponent, got {c}")
    return _tau_split(f, c, left=True)


def tau(f: Polynomial, c: Fraction) -> Ideal:
    """The generalized test ideal tau(f^c) at an exact rational c >= 0."""
    _require_nonzero(f)
    c = Fraction(c)
    if c < 0:
        raise ValueError(f"need a non-negative exponent, got {c}")
    if c == 0:
        return Ideal.unit(f.ctx)
    return _tau_split(f, c, left=False)


@dataclass(frozen=True)
class Jump:
    """The jump test at c: tau just left of c and at c; a jump when they differ."""

    c: Fraction
    tau_left: Ideal
    tau_at: Ideal

    @property
    def jumping(self) -> bool:
        return self.tau_left != self.tau_at


def is_jumping(f: Polynomial, c: Fraction) -> Jump:
    """Test tau(f^(c-)) != tau(f^c), returning both witness ideals."""
    c = Fraction(c)
    left = tau_left_limit(f, c)
    at = tau(f, c)
    if not left.contains(at):
        raise AssertionError(
            f"tau left limit fails to contain tau at c={c}; this is a bug"
        )
    return Jump(c, left, at)


def _pow_normal_form(f: Polynomial, r: int, I: Ideal) -> Polynomial:
    """Normal form of f^r modulo I, reducing after every multiplication."""
    p = f.ctx.p
    result = Polynomial.one(f.ctx)
    level = 0
    while r:
        d = r % p
        r //= p
        if d:
            piece = Polynomial.one(f.ctx)
            base = I.normal_form(f)
            k = d
            while k:
                if k & 1:
                    piece = I.normal_form(piece * base)
                k >>= 1
                if k:
                    base = I.normal_form(base * base)
            result = I.normal_form(result * piece.frobenius_stretch(level))
        level += 1
    return result


def nu(f: Polynomial, J: Ideal, e: int) -> int:
    """max{r >= 0 : f^r not in J^[p^e]}, by exponential-then-binary search.

    Finite only when f lies in the radical of J; the exponent budget turns
    the divergent case into a diagnostic error.
    """
    _require_nonzero(f)
    if e < 1:
        raise ValueError("need e >= 1")
    if J.is_unit() or J.is_zero():
        raise ValueError("need a proper nonzero ideal")
    q = f.ctx.p**e
    Jq = J.bracket_power(q)

    def member(r: int) -> bool:
        return _pow_normal_form(f, r, Jq).is_zero()

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


@dataclass
class JumpReport:
    """All F-jumping coefficients of f in (0, bound], plus leftovers.

    ``unresolved`` lists subintervals known to contain at least one jump
    that the refinement depth could not pin to an exact rational; an empty
    list means the jump list is complete on (0, bound].
    """

    bound: Fraction
    jumps: list[Jump] = field(default_factory=list)
    unresolved: list[tuple[Fraction, Fraction]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.unresolved

    def coefficients(self) -> list[Fraction]:
        return [j.c for j in self.jumps]


def _interval_candidates(p: int, e: int, r: int) -> list[Fraction]:
    """Exact rationals in ((r-1)/p^e, r/p^e] worth confirming as jumps.

    The interval pins the first e base-p digits of a jump inside it: those
    of n = r - 1. The candidates are the right endpoint, then each periodic
    extension of the digits with preperiod d and period beta, d + beta <= e,
    ranked by (d + beta, d, value) at the first (d, beta) giving the value.
    Closed form: if places d..e-1 have period beta, so does the extension,
    and as d <= e - beta its places past e repeat the last beta places,
    the number n mod p^beta. The extension is therefore

        (n + (n mod p^beta) / (p^beta - 1)) / p^e,

    a function of beta alone: the left endpoint when n mod p^beta = 0, the
    right one when it is p^beta - 1, and strictly inside otherwise.
    """
    n, q = r - 1, p**e
    hi = Fraction(r, q)
    digits = [(n // p ** (e - 1 - i)) % p for i in range(e)]
    seen = {hi}
    ranked: list[tuple[int, int, Fraction]] = []
    for d in range(e):
        for beta in range(1, e - d + 1):
            if any(digits[i] != digits[i - beta] for i in range(d + beta, e)):
                continue
            tail = n % p**beta
            value = Fraction(n * (p**beta - 1) + tail, q * (p**beta - 1))
            if tail and value not in seen:
                seen.add(value)
                ranked.append((d + beta, d, value))
    ranked.sort()
    return [hi] + [value for _, _, value in ranked]


def _drops(f: Polynomial, e: int, lo: int, hi: int, t_lo: Ideal, t_hi: Ideal) -> list:
    """Each r in (lo, hi] where I_e(f^r) drops, as (e, r, I_e(f^(r-1)), I_e(f^r)).

    r -> I_e(f^r) is monotone, so equal values t_lo, t_hi at the two ends of
    a range rule out a drop inside; any other range is halved at a root
    taken at its midpoint. A work list, popped left half first, keeps r
    increasing and a range of any width off the call stack.
    """
    drops, work = [], [(lo, hi, t_lo, t_hi)]
    while work:
        lo, hi, t_lo, t_hi = work.pop()
        if t_lo == t_hi:
            continue
        if hi - lo == 1:
            drops.append((e, hi, t_lo, t_hi))
            continue
        mid = (lo + hi) // 2
        t_mid = tau_dyadic(f, mid, e)
        work += [(mid, hi, t_mid, t_hi), (lo, mid, t_lo, t_mid)]
    return drops


def enumerate_jumps(
    f: Polynomial, bound: Fraction, depth: int = DEFAULT_DEPTH
) -> JumpReport:
    """Find every F-jumping coefficient of f in (0, bound].

    ``_drops`` bisects for each r in 1..ceil(bound p) where I_1(f^r) drops.
    The interval ((r-1)/p^e, r/p^e] of a drop is resolved when a candidate
    c passes is_jumping with both witnesses equal to its end values, which
    certifies c as its only jump; otherwise its p children one level deeper
    are bisected from those end values, up to ``depth``, where what is left
    is returned as unresolved. Reported jumps are always confirmed exactly.
    """
    _require_nonzero(f)
    if f.is_constant():
        raise ValueError("units have no jumping coefficients")
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError(f"need a positive bound, got {bound}")
    if depth < 1:
        raise ValueError(f"need depth >= 1, got {depth}")
    p = f.ctx.p

    jumps: list[Jump] = []
    unresolved: list[tuple[Fraction, Fraction]] = []
    top = math.ceil(bound * p)
    with shared_roots():
        queue = _drops(f, 1, 0, top, Ideal.unit(f.ctx), tau_dyadic(f, top, 1))

        while queue:
            e, r, t_lo, t_hi = queue.pop(0)
            tests = (is_jumping(f, c) for c in _interval_candidates(p, e, r))
            # t_lo != t_hi, so a test that reproduces both witnesses is a jump
            found = next((jt for jt in tests if (jt.tau_left, jt.tau_at) == (t_lo, t_hi)), None)
            if found is not None:
                jumps.append(found)
                continue
            if e < depth:
                queue.extend(_drops(f, e + 1, (r - 1) * p, r * p, t_lo, t_hi))
            elif Fraction(r - 1, p**e) < bound:
                unresolved.append((Fraction(r - 1, p**e), min(Fraction(r, p**e), bound)))

    jumps = [j for j in jumps if j.c <= bound]
    jumps.sort(key=lambda j: j.c)
    unresolved.sort()
    for a, b in zip(jumps, jumps[1:]):
        between = any(a.c < lo < b.c or a.c <= hi < b.c for lo, hi in unresolved)
        if not between and a.tau_at != b.tau_left:
            raise AssertionError(
                f"tau fails to chain between jumps {a.c} and {b.c}; this is a bug"
            )
    return JumpReport(bound, jumps, unresolved)
