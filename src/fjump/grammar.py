"""Textual polynomial grammar for F_p[x_1..x_n].

The accepted language is::

    expr := sign? term (('+'|'-') term)*
    term := coeff ('*'? atom)* | atom ('*'? atom)*
    atom := var ('^' uint)?
    coeff := uint

Adjacency or '*' denotes multiplication, whitespace is insignificant, and
"0" and "1" are valid expressions. Variable references are resolved by
longest match against the declared names of the ring context, so with
vars (x, y) the input "xy" means x*y while a context declaring "xy" reads
it as a single variable. Coefficients are reduced mod p on parse.

``format_poly`` emits terms in descending graded reverse lexicographic
order with coefficients in [1, p); parsing its output returns the same
polynomial.
"""

from __future__ import annotations

import re

from .ring import Monomial, Polynomial, RingContext

MAX_EXPONENT = 1 << 62

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(ValueError):
    """Syntax error in polynomial text, with 1-based line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnknownVariableError(ParseError):
    pass


class ExponentOverflowError(ParseError):
    pass


class _Scanner:
    def __init__(self, text: str, ctx: RingContext):
        self.text = text
        self.pos = 0
        # longest declared name first so maximal munch wins
        self.names = sorted(ctx.vars, key=len, reverse=True)

    def error(self, message: str, cls=ParseError):
        line_start = self.text.rfind("\n", 0, self.pos) + 1
        raise cls(message, self.text.count("\n", 0, self.pos) + 1, self.pos - line_start + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self, n: int):
        self.pos += n

    def take_uint(self, too_long=ParseError) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.error("expected an unsigned integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            length, self.pos = self.pos - start, start
            self.error(f"integer literal of {length} digits is too long", too_long)

    def take_var(self) -> str:
        self.skip_ws()
        rest = self.text[self.pos :]
        for name in self.names:
            if rest.startswith(name):
                self.advance(len(name))
                return name
        if _IDENT_RE.match(rest):
            self.error(
                f"unknown variable {_IDENT_RE.match(rest).group()!r}",
                UnknownVariableError,
            )
        self.error("expected a variable")


def parse_poly(text: str, ctx: RingContext) -> Polynomial:
    """Parse ``text`` into a canonical polynomial over ``ctx``."""
    sc = _Scanner(text, ctx)
    n = ctx.nvars
    total: dict[Monomial, int] = {}

    sign = 1
    ch = sc.peek()
    if ch in "+-":
        sign = -1 if ch == "-" else 1
        sc.advance(1)

    while True:
        mono, coeff = _parse_term(sc, ctx, n)
        coeff = (coeff * sign) % ctx.p
        if coeff:
            total[mono] = (total.get(mono, 0) + coeff) % ctx.p
            if not total[mono]:
                del total[mono]
        ch = sc.peek()
        if ch == "":
            break
        if ch not in "+-":
            sc.error(f"unexpected character {ch!r}")
        sign = -1 if ch == "-" else 1
        sc.advance(1)

    return Polynomial(ctx, total, _canonical=True)


def _parse_term(sc: _Scanner, ctx: RingContext, n: int) -> tuple[Monomial, int]:
    coeff = 1
    exps = [0] * n
    saw_factor = False

    after_star = False
    ch = sc.peek()
    if "0" <= ch <= "9":  # ASCII only: str.isdigit() also accepts '²'
        coeff = sc.take_uint() % ctx.p
        saw_factor = True
        if sc.peek() == "*":
            sc.advance(1)
            after_star = True

    while True:
        ch = sc.peek()
        if not (ch.isalpha() or ch == "_"):
            if after_star:
                sc.error("expected a variable after '*'")
            break
        name = sc.take_var()
        exp = 1
        if sc.peek() == "^":
            sc.advance(1)
            exp = sc.take_uint(ExponentOverflowError)
            if exp > MAX_EXPONENT:
                sc.error(f"exponent {exp} exceeds limit {MAX_EXPONENT}", ExponentOverflowError)
        exps[ctx.vars.index(name)] += exp
        saw_factor = True
        after_star = False
        if sc.peek() == "*":
            sc.advance(1)
            after_star = True

    if not saw_factor:
        sc.error("expected a term")
    return tuple(exps), coeff


def _format_term(ctx: RingContext, mono: Monomial, coeff: int, sep: str) -> str:
    factors = []
    for name, e in zip(ctx.vars, mono):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    if not factors:
        return str(coeff)
    if coeff != 1:
        factors.insert(0, str(coeff))
    return sep.join(factors)


def format_poly(f: Polynomial) -> str:
    """Canonical text form: grevlex-descending terms joined by ' + '."""
    if f.is_zero():
        return "0"
    # adjacency is unambiguous only when every variable name is one char
    sep = "" if all(len(v) == 1 for v in f.ctx.vars) else "*"
    parts = [
        _format_term(f.ctx, mono, coeff, sep)
        for mono, coeff in f.sorted_terms()
    ]
    return " + ".join(parts)


def infer_variables(text: str) -> list[str]:
    """Identifiers appearing in ``text``, in first-appearance order."""
    seen: list[str] = []
    for match in _IDENT_RE.finditer(text):
        name = match.group()
        if name not in seen:
            seen.append(name)
    return seen
