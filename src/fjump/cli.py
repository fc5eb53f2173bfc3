"""Command-line front end: the ``fjump`` tool.

Exit codes: 0 success, 1 internal error (a violated kernel invariant,
which is a bug), 2 usage error, 3 polynomial or rational parse error,
4 computation budget exceeded, 5 verification failure. A reader that
closes standard output early is not an error: the run ends with 0.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import chains, testideals, verify
from .digits import orbit
from .frobenius import frobenius_root_poly
from .grammar import ParseError, format_poly, infer_variables, parse_poly
from .ideals import BudgetExceededError, Ideal
from .ring import MAX_CHAR, Polynomial, RingContext, is_prime

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _rational(text: str, name: str) -> Fraction:
    try:
        return verify.parse_rational(text, name)
    except ValueError as err:
        raise _CliError(str(err), EXIT_PARSE) from err


def _poly(args) -> Polynomial:
    """The polynomial argument, read in the ring of -p and --vars (by default
    the names in its text): usage errors in the ring come before parse errors."""
    names = args.vars.split(",") if args.vars else infer_variables(args.poly)
    if not names:
        raise _CliError(
            "no variables found; declare them with --vars", EXIT_USAGE
        )
    try:
        ctx = RingContext(args.p, [n.strip() for n in names])
    except ValueError as err:
        raise _CliError(str(err), EXIT_USAGE) from err
    try:
        return parse_poly(args.poly, ctx)
    except ParseError as err:
        raise _CliError(f"cannot parse polynomial: {err}", EXIT_PARSE) from err


def _ideal_text(I: Ideal) -> str:
    return ", ".join(I.generator_strings()) or "0"


# Each command returns its text and its JSON object; main prints one of them.


def _cmd_froot(args, f: Polynomial) -> tuple[str, dict]:
    if args.e < 1:
        raise _CliError("need -e >= 1", EXIT_USAGE)
    root = frobenius_root_poly(f, args.e)
    return (
        _ideal_text(root),
        {"p": args.p, "e": args.e, "f": format_poly(f), "generators": root.generator_strings()},
    )


def _cmd_tau(args, f: Polynomial) -> tuple[str, dict]:
    c = _rational(args.c, "-c")
    value = testideals.tau(f, c)
    return (
        _ideal_text(value),
        {"p": args.p, "c": str(c), "f": format_poly(f), "generators": value.generator_strings()},
    )


def _cmd_jumps(args, f: Polynomial) -> tuple[str, dict]:
    bound = _rational(args.B, "-B")
    report = testideals.enumerate_jumps(f, bound, args.depth)
    lines = [
        f"{j.c}: {_ideal_text(j.tau_left)} -> {_ideal_text(j.tau_at)}"
        for j in report.jumps
    ]
    lines.extend(f"unresolved: ({lo}, {hi}]" for lo, hi in report.unresolved)
    return "\n".join(lines) or "none", {
        "jumps": [
            {
                "c": str(j.c),
                "tau_left": j.tau_left.generator_strings(),
                "tau_at": j.tau_at.generator_strings(),
            }
            for j in report.jumps
        ],
        "unresolved": [[str(lo), str(hi)] for lo, hi in report.unresolved],
    }


def _cmd_fpt(args, f: Polynomial) -> tuple[str, dict]:
    report = testideals.enumerate_jumps(f, Fraction(1), args.depth)
    if not report.jumps or any(report.jumps[0].c > lo for lo, _ in report.unresolved):
        raise _CliError(
            "smallest jump not resolved at this depth; increase --depth", EXIT_BUDGET
        )
    c = report.jumps[0].c
    return str(c), {"p": args.p, "f": format_poly(f), "fpt": str(c)}


def _cmd_chain(args, g: Polynomial) -> tuple[str, dict]:
    trace = chains.chain(g, args.a, args.b)
    lines = [
        f"C_{s + 1} = {_ideal_text(term)}" for s, term in enumerate(trace.terms)
    ]
    lines.append(f"stab_index = {trace.stab_index}")
    return "\n".join(lines), {
        "p": args.p,
        "g": format_poly(g),
        "a": args.a,
        "beta": args.b,
        "terms": [t.generator_strings() for t in trace.terms],
        "stab_index": trace.stab_index,
    }


def _cmd_nilcmp(args, g: Polynomial) -> tuple[str, dict]:
    pairs = []
    for text in args.cls:
        try:
            a_text, b_text = text.split(",")
            pairs.append((int(a_text), int(b_text)))
        except ValueError as err:
            raise _CliError(f"--class expects 'a,beta', got {text!r}", EXIT_USAGE) from err
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit (before 3.10.7)
    for a, beta in pairs:
        # gamma = a/(p^beta - 1) in lowest terms; p^beta mod a gives the gcd
        if limit and a > 0 < beta:
            gcd = math.gcd(a, pow(args.p, beta, a) - 1)
            if beta * math.log10(args.p) - math.log10(gcd) >= limit:
                raise _CliError(f"--class {a},{beta}: gamma has over {limit} digits", EXIT_USAGE)
    n1 = chains.chain(g, *pairs[0])
    n2 = chains.chain(g, *pairs[1])
    cmp = chains.nil_compare(n1, n2)
    text = "\n".join(
        [
            f"gamma: {n1.gamma} {cmp.gamma_order} {n2.gamma}",
            f"representatives: {_ideal_text(n1.stable)} "
            f"{cmp.representative_order} {_ideal_text(n2.stable)}",
            f"direction: {cmp.direction}",
        ]
    )
    return text, {
        "gamma": [str(n1.gamma), str(n2.gamma)],
        "gamma_order": cmp.gamma_order,
        "representatives": [
            n1.stable.generator_strings(),
            n2.stable.generator_strings(),
        ],
        "representative_order": cmp.representative_order,
        "direction": cmp.direction,
    }


def _cmd_orbit(args) -> tuple[str, dict]:
    s = _rational(args.rational, "rational")
    if not (args.p < MAX_CHAR and is_prime(args.p)):
        raise _CliError(f"need a prime -p below {MAX_CHAR}", EXIT_USAGE)
    try:
        report = orbit(s, args.p, args.m)
    except ValueError as err:
        raise _CliError(str(err), EXIT_USAGE) from err
    text = "\n".join(
        [
            "orbit: " + ", ".join(str(v) for v in report.orbit),
            f"entry_index = {report.entry_index}",
            f"cycle_length = {report.cycle_length}",
        ]
    )
    return text, {
        "s": str(s),
        "p": args.p,
        "m": args.m,
        "orbit": [str(v) for v in report.orbit],
        "entry_index": report.entry_index,
        "cycle_length": report.cycle_length,
    }


def _cmd_verify(args) -> tuple[str, dict]:
    corpus = verify.load_corpus(args.corpus)
    report = verify.run_suite(corpus, depth=args.depth, seed=args.seed, jobs=args.jobs)
    lines = []
    for er in report.entries:
        status = "PASS" if er.passed else "FAIL"
        lines.append(f"{status} p={er.entry.p} f={er.entry.f_text} B={er.entry.bound}")
        if er.error:
            lines.append(f"  error: {er.error}")
        for c in er.checks:
            if not c.passed:
                lines.append(f"  fail {c.name}: {c.detail}")
    lines.append("all checks passed" if report.passed else "verification failed")
    return "\n".join(lines), report.to_json_obj()


@functools.cache  # one parser per process, however often main runs in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fjump",
        description=(
            "Frobenius roots, generalized test ideals, and F-jumping "
            "coefficients of principal ideals over F_p."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("-p", type=int, required=True, help="prime characteristic")
        sp.add_argument("--vars", help="comma-separated variable names")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("poly", help="polynomial text, e.g. 'x^2+y^3'")

    sp = sub.add_parser("froot", help="Frobenius root of a principal ideal")
    sp.add_argument("-e", type=int, default=1, help="Frobenius level (default 1)")
    common(sp)
    sp.set_defaults(func=_cmd_froot)

    sp = sub.add_parser("tau", help="test ideal at an exact rational exponent")
    sp.add_argument("-c", required=True, help="exponent, 'num/den' or integer")
    common(sp)
    sp.set_defaults(func=_cmd_tau)

    sp = sub.add_parser("jumps", help="jumping coefficients in (0, B]")
    sp.add_argument("-B", required=True, help="search bound, 'num/den' or integer")
    sp.add_argument("--depth", type=int, default=testideals.DEFAULT_DEPTH)
    common(sp)
    sp.set_defaults(func=_cmd_jumps)

    sp = sub.add_parser("fpt", help="smallest jumping coefficient")
    sp.add_argument("--depth", type=int, default=testideals.DEFAULT_DEPTH)
    common(sp)
    sp.set_defaults(func=_cmd_fpt)

    sp = sub.add_parser("chain", help="descending chain trace for (a, beta)")
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("-b", type=int, required=True, help="beta")
    common(sp)
    sp.set_defaults(func=_cmd_chain)

    sp = sub.add_parser("nilcmp", help="compare two chain classes")
    sp.add_argument(
        "--class",
        dest="cls",
        action="append",
        required=True,
        help="a,beta (give exactly twice)",
    )
    common(sp)
    sp.set_defaults(func=_cmd_nilcmp)

    sp = sub.add_parser("orbit", help="orbit of a rational under s -> p*s mod m")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-m", type=int, default=1)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("rational", help="starting value, 'num/den' or integer")
    sp.set_defaults(func=_cmd_orbit)

    sp = sub.add_parser("verify", help="run the structural checks over a corpus")
    sp.add_argument("--corpus", help="JSONL corpus path (default: built-in)")
    sp.add_argument("--depth", type=int, default=testideals.DEFAULT_DEPTH)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cls", None) is not None and len(args.cls) != 2:
        print("fjump: give --class exactly twice", file=sys.stderr)
        return EXIT_USAGE
    try:
        text, obj = args.func(args, _poly(args)) if "poly" in args else args.func(args)
        print(json.dumps(obj, indent=2) if args.json else text)
        sys.stdout.flush()  # a closed pipe shows up here, not at exit
        # the one command whose answer sets the exit code
        return EXIT_VERIFY if args.command == "verify" and not obj["passed"] else EXIT_OK
    except _CliError as err:
        print(f"fjump: {err}", file=sys.stderr)
        return err.code
    except ParseError as err:
        print(f"fjump: {err}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as err:
        print(f"fjump: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (AssertionError, chains.TotalOrderViolation) as err:
        print(f"fjump: internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the
        # interpreter's final flush of what is still buffered stays quiet
        with contextlib.suppress(AttributeError, OSError):
            stdout = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout)
            os.close(devnull)
        return EXIT_OK
    except (ValueError, OSError) as err:
        print(f"fjump: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
