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

Most states are all-monomial. A digit step on one is read off the
exponents alone when f is a monomial, when d = 0, or when the differences
of f's exponents are linearly independent mod p, as for every binomial
whose two exponents differ mod p: no power of f, no product and no split.
f's table decides that independence once.

Many states are Skoda shifts f^n * K, as the seed <f> = f * <1> and each
f^n * J the table builds, and take K's steps: by the skew identity
I_1(f^(d+n) * K) = f^q * I_1(f^r * K) with q, r = divmod(d + n, p). So the
seed's step at d is the unit state's at d + 1. No state is recorded as a
shift of itself, which a constant f or the zero ideal would make.

f has few distinct test ideals, so digit steps and Skoda shifts repeat.
Inside a ``shared_roots()`` block, which ``enumerate_jumps`` and each
``verify`` entry open, each f has a digit table: the ideals its roots meet
are interned as numbered states, each mapped once from its reduced basis,
and the table maps (d, J) to the state of the digit step I_1(f^d * J) and
(n, J) to that of the Skoda shift f^n * J, each taken once. A walk runs on
state numbers: one that meets known steps costs one lookup of a small int
per digit, as a Phi trace asked for again does, and equal ideals in a
block are one object. The table also keeps what the walks found, each
found once per block: the state of tau(f^c) or of its left limit at each
c asked for, and whether one state contains another, which
``enumerate_jumps``, ``is_jumping``, ``chain`` and ``nil_compare`` ask. A
tau or left-limit query opens a block of its own when none is open, as
the Phi iterates of one query repeat their digit steps.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction

from .digits import canonicalize
from .frobenius import frobenius_root_ideal, independent_differences
from .ideals import BudgetExceededError, Ideal
from .ring import Polynomial

PHI_STEP_BUDGET = 64
DEFAULT_DEPTH = 4

_step_memo: ContextVar[dict | None] = ContextVar("_step_memo", default=None)


def _require_nonzero(f: Polynomial):
    if f.is_zero():
        raise ValueError("the zero polynomial has no test ideals")


def _as_fraction(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


@contextmanager
def shared_roots():
    """Memoize the digit steps of this thread's enclosed calls; nested blocks share one memo."""
    memo = _step_memo.get()
    token = _step_memo.set({} if memo is None else memo)
    try:
        yield
    finally:
        _step_memo.reset(token)


class _DigitTable:
    """The digit steps and Skoda shifts of one f, over interned ideals.

    ``states[i]`` is the i-th ideal met, carrying its reduced basis as its
    generators, and ``index`` numbers it by value. ``delta[i][d]`` is the
    state of I_1(f^d * states[i]), ``shifts[n, i]`` that of f^n * states[i],
    and ``carry[j] = (n, k)`` says states[j] = f^n * states[k], so j's digit
    steps come from k's. Two memos keep what walks found:
    ``values[num, den, left]`` is the state of tau(f^(num/den)), or of its
    left limit, and ``below[i, j]`` says whether states[i] contains
    states[j]. ``free`` says once whether f's exponent differences are
    independent mod p, so that its digit steps on all-monomial states come
    from exponents.
    """

    __slots__ = ("states", "index", "delta", "shifts", "carry", "values", "below", "free", "_seed")

    def __init__(self, f: Polynomial):
        self.states: list[Ideal] = []
        self.index: dict[Ideal, int] = {}
        self.delta: list[dict[int, int]] = []
        self.shifts: dict[tuple[int, int], int] = {}
        self.carry: dict[int, tuple[int, int]] = {}
        self.values: dict[tuple[int, int, bool], int] = {}
        self.below: dict[tuple[int, int], bool] = {}
        self.free = independent_differences(f)
        self._seed: Ideal | None = None

    def state(self, J: Ideal) -> int:
        """The number of J, given to it when first met."""
        i = self.index.get(J)
        if i is None:
            gb = J.groebner_basis()
            if J.generators is not gb:
                J = J._with_basis(gb)
            i = self.index[J] = len(self.states)
            self.states.append(J)
            self.delta.append({})
        return i

    def seed(self, f: Polynomial) -> Ideal:
        """<f>, its generator made monic, interned once as the shift f * <1>."""
        if self._seed is None:
            unit, j = self.state(Ideal.unit(f.ctx)), self.state(Ideal(f.ctx, (f,)))
            if j != unit:  # a constant f has <f> = <1>
                self.carry[j] = (1, unit)
            self._seed = self.states[j]
        return self._seed


def _table(f: Polynomial) -> _DigitTable:
    """f's table in the open ``shared_roots()`` block, or one for a single walk."""
    tables = _step_memo.get()
    if tables is None:
        return _DigitTable(f)
    return tables.get(f) or tables.setdefault(f, _DigitTable(f))


def _contains(f: Polynomial, I: Ideal, J: Ideal) -> bool:
    """Whether I contains J; in a block, f's table checks each pair once."""
    if I is J or _step_memo.get() is None:
        return I.contains(J)
    table = _table(f)
    key = table.state(I), table.state(J)
    known = table.below.get(key)
    if known is None:
        known = table.below[key] = I.contains(J)
    return known


def _shift(table: _DigitTable, f: Polynomial, n: int, i: int) -> int:
    """The state of f^n * states[i], carried from what states[i] is a shift of."""
    j = table.shifts.get((n, i))
    if j is None:
        j = table.shifts[n, i] = table.state(table.states[i].scale(f**n))
        m, k = table.carry.get(i, (0, i))
        if j != k:  # a constant f or the zero ideal shifts a state onto itself
            table.carry.setdefault(j, (n + m, k))
    return j


def _step(table: _DigitTable, f: Polynomial, d: int, i: int) -> int:
    """The state of I_1(f^d * states[i]); a carried f^n * K takes K's step."""
    j = table.delta[i].get(d)
    if j is None:
        carried = table.carry.get(i)
        if carried is None:
            j = table.state(frobenius_root_ideal(table.states[i], 1, f, d, table.free))
        else:
            n, k = carried
            q, r = divmod(d + n, f.ctx.p)
            j = _step(table, f, r, k)
            if q:
                j = _shift(table, f, q, j)
        table.delta[i][d] = j
    return j


def _walk(table: _DigitTable, f: Polynomial, n: int, e: int, i: int) -> int:
    """The state of I_e(f^n * states[i]); never expands f^n for n >= p^e."""
    p = f.ctx.p
    delta = table.delta
    while e:
        # digits come off a word of at most 64 of them: dividing all of n
        # once per digit would take time quadratic in e
        k = min(e, 64)
        e -= k
        n, word = divmod(n, p**k)
        for _ in range(k):
            word, d = divmod(word, p)
            j = delta[i].get(d)
            if j is None:
                j = _step(table, f, d, i)
            # with only 0 digits left each step is J -> I_1(J), which contains J
            # (each element lies in the ideal of its Frobenius parts): J grows
            # until the first step that returns it, and stays from then on
            if j == i and not (d or word or n):
                return i
            i = j
    return _shift(table, f, n, i) if n else i


def _root_scaled(f: Polynomial, n: int, e: int, J: Ideal) -> Ideal:
    """I_e(f^n * J) by the digit recursion, in f's table."""
    table = _table(f)
    return table.states[_walk(table, f, n, e, table.state(J))]


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
    value, walked on the state numbers of f's table, so a repeated trace
    costs a table lookup per digit. Raises if no fixed point appears within
    PHI_STEP_BUDGET steps (the chain is guaranteed to stabilize, so this
    signals a bug).
    """
    table = _table(f)
    trace = [table.state(start)]
    for _ in range(PHI_STEP_BUDGET):
        trace.append(_walk(table, f, a, beta, trace[-1]))
        if trace[-1] == trace[-2]:
            states = table.states
            return [states[k] for k in trace]
    raise BudgetExceededError(
        f"chain did not stabilize within {PHI_STEP_BUDGET} steps "
        f"(a={a}, beta={beta}); the chain must stabilize, so report a bug"
    )


def _tau_split(f: Polynomial, c: Fraction, left: bool) -> Ideal:
    """tau(f^c) for c > 0, or its left limit, by the Skoda split p^d c = m + g."""
    tables = _step_memo.get()
    if tables is None:  # a block of the query's own
        tables = {}
    table = tables.get(f) or tables.setdefault(f, _DigitTable(f))
    key = c.numerator, c.denominator, left
    k = table.values.get(key)
    if k is None:
        token = _step_memo.set(tables)
        try:
            cf = canonicalize(c, f.ctx.p)
            q_minus = f.ctx.p**cf.beta - 1
            # g = a/q_minus lies in (0, 1] for the left limit and in [0, 1) for
            # tau, whose chain starts from <f^ceil(g)>
            m = (cf.a - 1) // q_minus if left else cf.a // q_minus
            a = cf.a - m * q_minus
            seed = Ideal.unit(f.ctx) if left or not a else table.seed(f)
            trace = _phi_fixed_point(f, a, cf.beta, seed)
            k = table.values[key] = _walk(table, f, m, cf.d, table.state(trace[-1]))
        finally:
            _step_memo.reset(token)
    return table.states[k]


def tau_left_limit(f: Polynomial, c: Fraction) -> Ideal:
    """The common value of tau(f^(c - eps)) for all small eps > 0."""
    _require_nonzero(f)
    c = _as_fraction(c)
    if c.numerator <= 0:
        raise ValueError(f"need a positive exponent, got {c}")
    return _tau_split(f, c, left=True)


def tau(f: Polynomial, c: Fraction) -> Ideal:
    """The generalized test ideal tau(f^c) at an exact rational c >= 0."""
    _require_nonzero(f)
    c = _as_fraction(c)
    num = c.numerator
    if num < 0:
        raise ValueError(f"need a non-negative exponent, got {c}")
    if not num:
        return Ideal.unit(f.ctx)
    return _tau_split(f, c, left=False)


class Jump(namedtuple("Jump", "c tau_left tau_at")):
    """The jump test at c: tau just left of c and at c; a jump when they differ."""

    __slots__ = ()

    @property
    def jumping(self) -> bool:
        return self.tau_left != self.tau_at


def _check_witnesses(f: Polynomial, c: Fraction, left: Ideal, at: Ideal):
    """Raise unless tau's left limit at c contains tau at c, as it must."""
    if not _contains(f, left, at):
        raise AssertionError(
            f"tau left limit fails to contain tau at c={c}; this is a bug"
        )


def is_jumping(f: Polynomial, c: Fraction) -> Jump:
    """Test tau(f^(c-)) != tau(f^c), returning both witness ideals."""
    c = _as_fraction(c)
    left = tau_left_limit(f, c)
    at = tau(f, c)
    _check_witnesses(f, c, left, at)
    return Jump(c, left, at)


class JumpReport:
    """All F-jumping coefficients of f in (0, bound], plus leftovers.

    ``unresolved`` lists subintervals known to contain at least one jump
    that the refinement depth could not pin to an exact rational; an empty
    list means the jump list is complete on (0, bound].
    """

    __slots__ = ("bound", "jumps", "unresolved")

    def __init__(
        self,
        bound: Fraction,
        jumps: list[Jump] | None = None,
        unresolved: list[tuple[Fraction, Fraction]] | None = None,
    ):
        self.bound = bound
        self.jumps = [] if jumps is None else jumps
        self.unresolved = [] if unresolved is None else unresolved

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
    ranked by (d + beta, d, value) at the least (d, beta) giving the value.
    Every beta <= e qualifies at d = e - beta; its least d lies just past the
    last place that differs from the place beta before it. Closed form: if
    places d..e-1 have period beta, so does the extension, and as
    d <= e - beta its places past e repeat the last beta places,
    the number n mod p^beta. The extension is therefore

        (n + (n mod p^beta) / (p^beta - 1)) / p^e,

    a function of beta alone: the left endpoint when n mod p^beta = 0, the
    right one when it is p^beta - 1, and strictly inside otherwise. A value
    is keyed by (n mod p^beta) / (p^beta - 1) in lowest terms. Each beta
    gives one value, so distinct values never tie on (d + beta, d) and the
    ranking never reads a value: a Fraction is built only for each one
    returned.
    """
    n, q = r - 1, p**e
    digits = [(n // p ** (e - 1 - i)) % p for i in range(e)]
    # tail / (p^beta - 1) in lowest terms -> (d + beta, d, beta)
    first: dict[tuple[int, int], tuple[int, int, int]] = {}
    for beta in range(1, e + 1):
        tail, period = n % p**beta, p**beta - 1
        if not 0 < tail < period:
            continue
        d = max((i - beta + 1 for i in range(beta, e) if digits[i] != digits[i - beta]), default=0)
        g = math.gcd(tail, period)
        key = tail // g, period // g
        if key not in first or d < first[key][1]:
            first[key] = (d + beta, d, beta)
    ranked = [beta for *_, beta in sorted(first.values())]
    return [Fraction(r, q)] + [Fraction(n * (p**b - 1) + n % p**b, q * (p**b - 1)) for b in ranked]


def _drops(f: Polynomial, e: int, lo: int, hi: int, t_lo: Ideal, t_hi: Ideal) -> list:
    """Each r in (lo, hi] where I_e(f^r) drops, as (e, r, I_e(f^(r-1)), I_e(f^r)).

    r -> I_e(f^r) is monotone, so equal values t_lo, t_hi at the two ends of
    a range rule out a drop inside; any other range is halved at a root
    taken at its midpoint. Values compare as states of f's table. A work
    list, popped left half first, keeps r increasing and a range of any
    width off the call stack.
    """
    table = _table(f)
    states = table.states
    drops, work = [], [(lo, hi, table.state(t_lo), table.state(t_hi))]
    while work:
        lo, hi, i_lo, i_hi = work.pop()
        if i_lo == i_hi:
            continue
        if hi - lo == 1:
            drops.append((e, hi, states[i_lo], states[i_hi]))
            continue
        mid = (lo + hi) // 2
        i_mid = table.state(tau_dyadic(f, mid, e))
        work += [(mid, hi, i_mid, i_hi), (lo, mid, i_lo, i_mid)]
    return drops


def enumerate_jumps(
    f: Polynomial, bound: Fraction, depth: int = DEFAULT_DEPTH
) -> JumpReport:
    """Find every F-jumping coefficient of f in (0, bound].

    ``_drops`` bisects for each r in 1..ceil(bound p) where I_1(f^r) drops.
    The interval ((r-1)/p^e, r/p^e] of a drop is resolved when a candidate
    c has tau's left limit and value at c equal to the interval's end values,
    compared as states of f's digit table, which certifies c as its only
    jump; is_jumping then builds the Jump from the memo. Every candidate
    tested must have a left limit containing tau, or a bug is reported.
    Otherwise the interval's p children one level deeper are bisected from
    its end values, up to ``depth``, where what is left is returned as
    unresolved. Reported jumps are always confirmed exactly.
    """
    _require_nonzero(f)
    if f.is_constant():
        raise ValueError("units have no jumping coefficients")
    bound = _as_fraction(bound)
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

        table = _table(f)
        while queue:
            e, r, t_lo, t_hi = queue.pop(0)
            ends = table.state(t_lo), table.state(t_hi)
            for c in _interval_candidates(p, e, r):
                left, at = _tau_split(f, c, left=True), _tau_split(f, c, left=False)
                _check_witnesses(f, c, left, at)
                # t_lo != t_hi, so a candidate that reproduces both ends is a jump
                if (table.state(left), table.state(at)) == ends:
                    jumps.append(is_jumping(f, c))
                    break
            else:
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
