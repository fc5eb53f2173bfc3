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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .digits import canonicalize
from .frobenius import frobenius_root_ideal
from .ideals import BudgetExceededError, Ideal
from .ring import Polynomial

PHI_STEP_BUDGET = 64
DEFAULT_DEPTH = 4
NU_EXPONENT_BUDGET = 1 << 20


def ceil_mul(c: Fraction, p: int, e: int) -> int:
    """Exact ceiling of c * p**e."""
    c = Fraction(c)
    if c < 0 or e < 0:
        raise ValueError("need c >= 0 and e >= 0")
    n = c.numerator * p**e
    return -((-n) // c.denominator)


def _require_nonzero(f: Polynomial):
    if f.is_zero():
        raise ValueError("the zero polynomial has no test ideals")


def _root_scaled(f: Polynomial, n: int, e: int, J: Ideal) -> Ideal:
    """I_e(f^n * J) by the digit recursion; never expands f^n for n >= p^e."""
    p = f.ctx.p
    for _ in range(e):
        d = n % p
        n //= p
        scaled = J.scale(f._small_pow(d)) if d else J
        J = frobenius_root_ideal(scaled, 1)
        # regenerate from the reduced basis so generator lists stay short
        J = J._with_basis(J.groebner_basis())
    if n:
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

    f: Polynomial
    bound: Fraction
    depth: int
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


def enumerate_jumps(
    f: Polynomial, bound: Fraction, depth: int = DEFAULT_DEPTH
) -> JumpReport:
    """Find every F-jumping coefficient of f in (0, bound].

    A level-e scan over I_e(f^r) localizes jumps to p-adic intervals of
    width 1/p^e; flagged intervals are either resolved (some candidate c
    satisfies is_jumping with tau_left matching the left endpoint value and
    tau_at matching the right endpoint value, which certifies c is the only
    jump in the interval) or refined one level deeper, up to ``depth``.
    Reported jumps are always confirmed exactly; intervals that survive to
    the maximum depth are returned as unresolved rather than dropped.
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
    queue: list[tuple[int, int, Ideal, Ideal]] = []

    prev = Ideal.unit(f.ctx)
    for r in range(1, ceil_mul(bound, p, 1) + 1):
        cur = tau_dyadic(f, r, 1)
        if cur != prev:
            queue.append((1, r, prev, cur))
        prev = cur

    while queue:
        e, r, t_lo, t_hi = queue.pop(0)
        tests = (is_jumping(f, c) for c in _interval_candidates(p, e, r))
        # t_lo != t_hi, so a test that reproduces both witnesses is a jump
        found = next((jt for jt in tests if (jt.tau_left, jt.tau_at) == (t_lo, t_hi)), None)
        if found is not None:
            jumps.append(found)
            continue
        if e >= depth:
            lo = Fraction(r - 1, p**e)
            hi = Fraction(r, p**e)
            if lo < bound:
                unresolved.append((lo, min(hi, bound)))
            continue
        sub = prev_sub = t_lo
        base = (r - 1) * p
        for r2 in range(base + 1, base + p + 1):
            sub = t_hi if r2 == base + p else tau_dyadic(f, r2, e + 1)
            if sub != prev_sub:
                queue.append((e + 1, r2, prev_sub, sub))
            prev_sub = sub

    jumps = [j for j in jumps if j.c <= bound]
    jumps.sort(key=lambda j: j.c)
    unresolved.sort()
    for k in range(len(jumps) - 1):
        a, b = jumps[k], jumps[k + 1]
        between = any(a.c < lo < b.c or a.c <= hi < b.c for lo, hi in unresolved)
        if not between and a.tau_at != b.tau_left:
            raise AssertionError(
                f"tau fails to chain between jumps {a.c} and {b.c}; this is a bug"
            )
    return JumpReport(f, bound, depth, jumps, unresolved)


def check_scaling_law(f: Polynomial, report: JumpReport) -> bool:
    """Check the two jump-propagation laws against a complete report.

    Every jump c with p*c <= bound must make p*c a jump, and every jump
    strictly above 1 must make c - 1 a jump (principal case).
    """
    if not report.complete:
        raise ValueError("jump report is incomplete; increase the depth")
    p = f.ctx.p
    for jump in report.jumps:
        if p * jump.c <= report.bound and not is_jumping(f, p * jump.c).jumping:
            return False
        if jump.c > 1 and not is_jumping(f, jump.c - 1).jumping:
            return False
    return True
