"""Outside-in tracer: spans around calls into fjump's layers.

The program has no tracing of its own, so this module wraps the public
entry points of each module from the benchmark's side. Every binding of a
wrapped function inside the ``fjump`` package is replaced, which covers
names re-bound by ``from ... import`` (``chains.tau``,
``testideals.frobenius_root_ideal`` and so on) as well as the defining
module. Spans are kept in memory as (name, start, end, parent, info) and
written out when the run ends; self time is computed from them afterwards.

Layer names are module names; ``layers.json`` says which workloads must
load each layer.
"""

from __future__ import annotations

import sys
import threading
import time

from fjump import chains, cli, digits, frobenius, ideals, ring, testideals, verify


def _gb_info(args, kwargs, result):
    gens = args[0]
    return (all(len(g.terms) == 1 for g in gens), len(gens), len(result))


def _mul_info(args, kwargs, result):
    return len(result.terms)


def _root_gens_info(args, kwargs, result):
    return len(result.generators)


def _dyadic_key(args, kwargs, result):
    f, r, e = args[:3]
    return (f, r, e, (ring.Polynomial.one(f.ctx),))


def _phi_step_key(args, kwargs, result):
    f, a, beta, J = args[:4]
    return (f, a, beta, J.generators)


def _phi_steps(args, kwargs, result):
    return len(result) - 1


def _jumping_info(args, kwargs, result):
    return bool(result.jumping)


def _unresolved_info(args, kwargs, result):
    return len(result.unresolved)


# (span name, owner, attribute, info function). ``testideals.root`` is the
# digit-recursive root reached through its two public entry points, keyed
# by (f, exponent, levels, generators of J) so repeats can be counted.
ENTRY_POINTS = [
    ("ring.mul", ring.Polynomial, "__mul__", _mul_info),
    ("ring.pow", ring.Polynomial, "__pow__", None),
    ("ideals.gb", ideals, "reduced_groebner", _gb_info),
    ("ideals.nf", ideals, "normal_form", None),
    ("frobenius.root", frobenius, "frobenius_root_poly", _root_gens_info),
    ("frobenius.root", frobenius, "frobenius_root_ideal", _root_gens_info),
    ("testideals.root", testideals, "tau_dyadic", _dyadic_key),
    ("testideals.root", testideals, "phi_step", _phi_step_key),
    ("testideals.phi", testideals, "_phi_fixed_point", _phi_steps),
    ("testideals.tau", testideals, "tau", None),
    ("testideals.tau_left", testideals, "tau_left_limit", None),
    ("testideals.is_jumping", testideals, "is_jumping", _jumping_info),
    ("testideals.enumerate", testideals, "enumerate_jumps", _unresolved_info),
    ("chains.chain", chains, "chain", None),
    ("chains.nil_compare", chains, "nil_compare", None),
    ("chains.bijection", chains, "bijection_check", None),
    *(
        ("digits", digits, name, None)
        for name in ("canonicalize", "expand", "frac_mod", "multiplicative_order", "orbit", "reconstruct")
    ),
    ("cli", cli, "main", None),
    ("verify.suite", verify, "run_suite", None),
]

# Names bound by ``from ... import`` that must end up wrapped; a refactor
# that moves them is caught here instead of silently losing spans.
REBOUND = [
    (testideals, "frobenius_root_ideal"),
    (chains, "_phi_fixed_point"),
    (chains, "tau"),
    (chains, "enumerate_jumps"),
    (chains, "frobenius_root_poly"),
]


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list = []
        self.threads: set[int] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack, threads = self.spans, self._stack, self.threads
        clock, ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            threads.add(ident())
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[index] = (name, start, end, parent, info(args, kwargs, result) if info else None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key == "fjump" or key.startswith("fjump.")]
        for name, owner, attr, info in ENTRY_POINTS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, info)
            sites = [owner] + [m for m in modules if m is not owner]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._restore.append((site, key, original))
                        setattr(site, key, wrapper)
        for module, attr in REBOUND:
            if not hasattr(getattr(module, attr), "__wrapped__"):
                self.__exit__(None, None, None)
                raise RuntimeError(f"{module.__name__}.{attr} was not wrapped")
        return self

    def __exit__(self, *exc):
        while self._restore:
            site, key, original = self._restore.pop()
            setattr(site, key, original)
        return False

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                out.write(f"{i},{parent},{name},{start!r},{end!r}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time of every span name, plus the layer-specific
        counts and ratios; BENCHMARK.json names the ones reported."""
        m: dict[str, float] = {}
        for name, *_ in ENTRY_POINTS:
            m[f"{name}.calls"] = 0
            m[f"{name}.self_s"] = 0.0
        m.update({
            "ideals.gb.monomial_calls": 0,
            "ideals.gb.monomial_self_s": 0.0,
            "ideals.gb.mixed_self_s": 0.0,
            "ideals.gb.gens_in": 0,
            "ideals.gb.basis_out": 0,
            "ring.mul.terms_out": 0,
            "frobenius.root.gens_out": 0,
            "testideals.phi.steps": 0,
            "testideals.enumerate.unresolved": 0,
        })
        root_keys = set()
        hits = 0
        for (name, _, _, _, info), own in zip(self.spans, self.self_times()):
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += own
            if info is None:
                continue
            if name == "ideals.gb":
                monomial, gens_in, basis_out = info
                m["ideals.gb.monomial_calls"] += monomial
                m["ideals.gb.monomial_self_s" if monomial else "ideals.gb.mixed_self_s"] += own
                m["ideals.gb.gens_in"] += gens_in
                m["ideals.gb.basis_out"] += basis_out
            elif name == "ring.mul":
                m["ring.mul.terms_out"] += info
            elif name == "frobenius.root":
                m["frobenius.root.gens_out"] += info
            elif name == "testideals.root":
                root_keys.add(info)
            elif name == "testideals.phi":
                m["testideals.phi.steps"] += info
            elif name == "testideals.is_jumping":
                hits += info
            elif name == "testideals.enumerate":
                m["testideals.enumerate.unresolved"] += info
        root_calls = m["testideals.root.calls"]
        m["testideals.root.distinct"] = len(root_keys)
        m["testideals.root.repeat_ratio"] = 1 - len(root_keys) / root_calls if root_calls else 0.0
        m["testideals.phi.fixed_points"] = m["testideals.phi.calls"]
        jump_calls = m["testideals.is_jumping.calls"]
        m["testideals.is_jumping.hit_ratio"] = hits / jump_calls if jump_calls else 0.0
        return m
