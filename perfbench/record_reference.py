"""Record the benchmark's references from the current sources.

    python3 perfbench/record_reference.py

Writes into perfbench/data/ the input pools, from which the workloads draw
their inputs, and the references, which only the oracles read:

* jumps_scan.json: the full ``jumps --json`` report of every invocation
  any seed can draw;
* tau_pool.json: the query pool, generated from a fixed seed, with each
  query's cost (the least of three timings, in ms), which the workload
  uses to draw queries of matched cost; tau_queries.json: each answer's
  digest, in pool order;
* verify_pool.json: the suite seeds with their costs (least of three
  timings); verify_corpus.json: the verify stable hash, required equal for
  every suite seed of the pool.

Re-recording replaces the oracle's reference, so do it only at a commit
whose answers are known to be right.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction

from run import HERE, use_source_tree

POOL_SEED = 0
POOL_SIZE = 1600
SUITE_SEED_POOL = 160
VARS = ("x", "y", "z")
MAX_GAMMA = 16  # p^d * c, the power of f a query expands; keeps one query well under a second


def record_jumps(workloads) -> dict:
    from fjump import cli

    reports = {}
    for argv in workloads.jumps_pool():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{argv}: exit code {code}")
        reports[" ".join(argv)] = json.loads(out.getvalue())
    return {"jumps_scan": {"reports": reports}}


def random_query(rng: random.Random) -> dict:
    """A tau or tau_left_limit query with p <= 7, 2 or 3 variables, c in (0, 2].

    The denominator of c is p^k, p^k - 1 or small and random, so dyadic
    exponents, beta > 1 and c > 1 all occur.
    """
    from fjump import Polynomial, RingContext, canonicalize, format_poly

    p = rng.choice([2, 3, 5, 7])
    n = rng.choice([2, 3])
    ctx = RingContext(p, VARS[:n])
    monos: set[tuple[int, ...]] = set()
    size = rng.choice([2, 3])
    while len(monos) < size:
        m = tuple(rng.randint(0, 4) for _ in range(n))
        if 2 <= sum(m) <= 5:
            monos.add(m)
    f = Polynomial(ctx, {m: rng.randint(1, p - 1) for m in sorted(monos)})
    kind = rng.choice(["pk", "pk1", "small"])
    if kind == "pk":
        den = rng.choice([p**k for k in range(1, 6) if p**k <= 25])
    elif kind == "pk1":
        den = rng.choice([p**k - 1 for k in range(1, 6) if p**k - 1 <= 48])
    else:
        den = rng.randint(2, 12)
    while True:
        c = Fraction(rng.randint(1, 2 * den), den)
        if p ** canonicalize(c, p).d * c <= MAX_GAMMA:
            break
    return {"p": p, "vars": list(VARS[:n]), "f": format_poly(f), "c": str(c),
            "kind": rng.choice(["tau", "left"])}


def record_tau(workloads) -> dict:
    from fjump import RingContext, parse_poly, testideals

    rng = random.Random(POOL_SEED)
    queries, digests = [], []
    for _ in range(POOL_SIZE):
        q = random_query(rng)
        f = parse_poly(q["f"], RingContext(q["p"], q["vars"]))
        fn = testideals.tau if q["kind"] == "tau" else testideals.tau_left_limit
        times = []
        for _ in range(3):
            start = time.perf_counter()
            strings = fn(f, Fraction(q["c"])).generator_strings()
            times.append(time.perf_counter() - start)
        q["cost_ms"] = round(min(times) * 1e3, 4)
        queries.append(q)
        digests.append(workloads.answer_digest(strings))
    return {"tau_pool": {"pool_seed": POOL_SEED, "queries": queries}, "tau_queries": {"digests": digests}}


def record_verify(workloads) -> dict:
    from fjump import run_suite

    hashes = set()
    pool = []
    for seed in range(SUITE_SEED_POOL):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            report = run_suite(seed=seed, jobs=1)
            times.append(time.perf_counter() - start)
        if not report.passed:
            raise SystemExit(f"verify suite fails at seed {seed}")
        hashes.add(report.stable_hash())
        pool.append({"seed": seed, "cost_ms": round(min(times) * 1e3, 4)})
    if len(hashes) != 1:
        raise SystemExit(f"stable hash depends on the suite seed: {hashes}")
    return {"verify_pool": {"suite_seeds": pool}, "verify_corpus": {"stable_hash": hashes.pop()}}


def main():
    use_source_tree()
    import workloads

    (HERE / "data").mkdir(exist_ok=True)
    for record in (record_jumps, record_tau, record_verify):
        for name, data in record(workloads).items():
            with open(HERE / "data" / f"{name}.json", "w", encoding="utf-8") as handle:
                json.dump(data, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"recorded {name}")


if __name__ == "__main__":
    main()
