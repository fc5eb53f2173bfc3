"""The benchmark's three workloads, built from a seed and recorded references.

Each workload is one closed-loop client in this process: an ordered list of
operations, each a call into fjump that returns its answer. Building a
workload makes its inputs only; ``load_reference`` then reads what the
oracles compare against. ``check`` is the oracle run on every execution;
``final_check`` holds the costlier oracles, run once on the outputs of one
pass and outside every timed region; they skip the operations that raised,
which are already failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from fjump import (
    Polynomial,
    RingContext,
    cli,
    frobenius_root_poly,
    parse_poly,
    testideals,
    verify,
)

DATA_DIR = Path(__file__).resolve().parent / "data"

# jumps_scan pool. The two cusp primes sit in both residue classes mod 6, so
# both closed forms of the F-pure threshold are checked, and they cost about
# the same (166k and 170k Groebner pairs, 27.4 and 28.4 MB peak); the three
# surfaces also cost about the same.
CUSP_PRIMES = (103, 113)
SURFACES = (("5", "x^2+y^3+z^5"), ("5", "x^3+y^3+z^3"), ("3", "x^3+y^4+z^5"))
FIXED_JUMPS = (
    ("11", "x^3+y^5", None),
    ("2", "x^5+y^7", None),
    ("2", "x^5+y^7", "7"),
    ("3", "x^4+y^5+x^2y^2", None),
)
TAU_STRATUM = 2  # tau_queries draws one query from each block of 2 of similar cost
# the few pool queries above this recorded cost differ by up to 2x between
# neighbours, so a draw of one of them would alone change a pass by 15%
TAU_MAX_COST_MS = 200
SUITE_SEEDS = 16  # verify_corpus draws one suite seed from each sixteenth of the middle half of its pool by cost


def jumps_argv(p: str, f: str, depth: str | None = None) -> list[str]:
    extra = ["--depth", depth] if depth else []
    return ["jumps", "-p", p, "-B", "1", *extra, "--json", f]


def jumps_pool() -> list[list[str]]:
    """Every jumps invocation any seed can draw; the reference covers all."""
    cusps = [jumps_argv(str(p), "x^2+y^3") for p in CUSP_PRIMES]
    fixed = [jumps_argv(*row) for row in FIXED_JUMPS]
    return cusps + fixed + [jumps_argv(p, f) for p, f in SURFACES]


def cusp_fpt(p: int) -> Fraction:
    """F-pure threshold of x^2+y^3 in characteristic p > 3, in closed form."""
    return Fraction(5, 6) if p % 6 == 1 else Fraction(5 * p - 1, 6 * p)


def answer_digest(strings: list[str]) -> str:
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()[:16]


def stratified(rng: random.Random, items: list[dict], blocks: int) -> list[dict]:
    """One item from each of ``blocks`` equal runs of ``items`` sorted by cost.

    Every draw then has about the same total cost, so seeds differ in
    their inputs but hardly in their load.
    """
    ranked = sorted(items, key=lambda item: item["cost_ms"])
    size = len(ranked) // blocks
    return [rng.choice(ranked[k * size : (k + 1) * size]) for k in range(blocks)]


def _load(data_dir: Path, name: str):
    with open(data_dir / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


class Workload:
    """Defaults for workloads without costlier oracles or extra figures."""

    def final_check(self, results) -> dict[int, str]:
        return {}

    def summary(self, results) -> dict:
        return {}


class JumpsScan(Workload):
    """Enumerations through the CLI entry point, checked by exit code, closed
    form and a recorded table of full jump reports."""

    name = "jumps_scan"

    def __init__(self, seed: int, small: bool, data_dir: Path):
        rng = random.Random(seed)
        cusp = jumps_argv(str(rng.choice(CUSP_PRIMES)), "x^2+y^3")
        surface = jumps_argv(*rng.choice(SURFACES))
        fixed = [jumps_argv(*row) for row in FIXED_JUMPS]
        if small:
            self.argvs = [fixed[1], fixed[3], surface]
        else:
            self.argvs = [cusp, *fixed, surface]
        rng.shuffle(self.argvs)
        self.labels = [" ".join(a) for a in self.argvs]
        self.ops = [self._op(a) for a in self.argvs]
        self.inputs = self.labels

    @staticmethod
    def _op(argv):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        return run

    def load_reference(self, data_dir: Path):
        self.reference = _load(data_dir, self.name)["reports"]

    def check(self, i, result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        if report != self.reference[self.labels[i]]:
            return "jump report differs from the recorded reference"
        argv = self.argvs[i]
        if argv[-1] == "x^2+y^3":
            p = int(argv[argv.index("-p") + 1])
            if Fraction(report["jumps"][0]["c"]) != cusp_fpt(p):
                return f"F-pure threshold {report['jumps'][0]['c']} != closed form {cusp_fpt(p)}"
        return None

    def summary(self, results):
        return {
            "unresolved_intervals": sum(
                len(json.loads(r[1])["unresolved"]) for r in results if r is not None
            )
        }


class TauQueries(Workload):
    """tau and tau_left_limit queries drawn from a recorded pool.

    The seed draws one query from each block of TAU_STRATUM queries of
    similar recorded cost. The recorded answer digests are kept apart from
    the pool, in pool order.
    """

    name = "tau_queries"
    SMALL_EVERY = 25
    DEFINITION_MAX_R = 32

    def __init__(self, seed: int, small: bool, data_dir: Path):
        rng = random.Random(seed)
        pool = [
            dict(q, index=i)
            for i, q in enumerate(_load(data_dir, "tau_pool")["queries"])
            if q["cost_ms"] <= TAU_MAX_COST_MS
        ]
        self.queries = stratified(rng, pool, len(pool) // TAU_STRATUM)
        if small:
            self.queries = self.queries[:: self.SMALL_EVERY]
        rng.shuffle(self.queries)
        self.inputs = [[q["p"], q["vars"], q["f"], q["c"], q["kind"]] for q in self.queries]
        self.labels = [f"{q['kind']}({q['f']}, {q['c']}) p={q['p']}" for q in self.queries]
        self.ops = []
        self.args = []
        for q in self.queries:
            f = parse_poly(q["f"], RingContext(q["p"], q["vars"]))
            c = Fraction(q["c"])
            self.args.append((f, c))
            self.ops.append(self._op(q["kind"], f, c))

    @staticmethod
    def _op(kind, f, c):
        # look the function up per call so a tracer's wrapper is the one called
        def run():
            fn = testideals.tau if kind == "tau" else testideals.tau_left_limit
            ideal = fn(f, c)
            return ideal, ideal.generator_strings()

        return run

    def load_reference(self, data_dir: Path):
        self.digests = _load(data_dir, self.name)["digests"]

    def check(self, i, result):
        if answer_digest(result[1]) != self.digests[self.queries[i]["index"]]:
            return "answer digest differs from the recorded reference"
        return None

    def final_check(self, results):
        """Dyadic tau with small r against the definition; left limits
        against tau at the same exponent."""
        failed = {}
        for i, ((f, c), result) in enumerate(zip(self.args, results)):
            if result is None:
                continue
            ideal, p = result[0], f.ctx.p
            if self.queries[i]["kind"] == "left":
                if not ideal.contains(testideals.tau(f, c)):
                    failed[i] = "tau_left_limit(c) does not contain tau(c)"
                continue
            e, den = 0, c.denominator
            while den % p == 0:
                den //= p
                e += 1
            e = max(e, 1)
            r = c * p**e
            if den != 1 or r > self.DEFINITION_MAX_R:
                continue
            power = Polynomial.one(f.ctx)
            for _ in range(int(r)):
                power = power * f
            if frobenius_root_poly(power, e) != ideal:
                failed[i] = f"tau differs from I_{e}(f^{r}) computed from the definition"
        return failed


class VerifyCorpus(Workload):
    """The built-in verify corpus, one entry per operation, under suite
    seeds drawn from a recorded pool by cost; every entry must pass and each
    suite seed's combined report must hash to the recorded stable hash."""

    name = "verify_corpus"

    def __init__(self, seed: int, small: bool, data_dir: Path):
        rng = random.Random(seed)
        corpus = verify.default_corpus()
        # the costliest quarter of suite seeds spans 300-500 ms, so only the
        # middle half by cost is drawn from
        ranked = sorted(_load(data_dir, "verify_pool")["suite_seeds"], key=lambda item: item["cost_ms"])
        drawn = stratified(rng, ranked[len(ranked) // 4 : 3 * len(ranked) // 4], SUITE_SEEDS)
        self.suite_seeds = [item["seed"] for item in drawn[: 1 if small else SUITE_SEEDS]]
        self.cases = [(s, entry) for s in self.suite_seeds for entry in corpus.entries]
        self.labels = [f"seed={s} p={e.p} f={e.f_text} B={e.bound}" for s, e in self.cases]
        self.inputs = {
            "suite_seeds": self.suite_seeds,
            "corpus": verify.DEFAULT_CORPUS_ROWS,
        }
        self.ops = [self._op(verify.Corpus([entry]), s) for s, entry in self.cases]

    @staticmethod
    def _op(corpus, seed):
        return lambda: verify.run_suite(corpus, seed=seed, jobs=1)

    def load_reference(self, data_dir: Path):
        self.stable_hash = _load(data_dir, self.name)["stable_hash"]

    def check(self, i, result):
        if not result.passed:
            return json.dumps(result.to_json_obj(with_timings=False))
        return None

    def final_check(self, results):
        failed = {}
        for s in self.suite_seeds:
            mine = [i for i, (seed, _) in enumerate(self.cases) if seed == s]
            if any(results[i] is None for i in mine):
                continue
            entries = [er for i in mine for er in results[i].entries]
            got = verify.VerificationReport(entries).stable_hash()
            if got != self.stable_hash:
                failed.update({i: f"suite seed {s}: stable hash {got[:12]} != recorded" for i in mine})
        return failed


WORKLOADS = {w.name: w for w in (JumpsScan, TauQueries, VerifyCorpus)}


def build(name: str, seed: int, small: bool = False, data_dir: Path = DATA_DIR):
    """The workload's inputs, without the references its oracles read."""
    return WORKLOADS[name](seed, small, Path(data_dir))


def inputs_digest(workload) -> str:
    text = json.dumps(workload.inputs, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]

