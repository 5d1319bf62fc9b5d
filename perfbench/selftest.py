"""Self-tests of the benchmark itself (not of superbgg).

    python3 perfbench/selftest.py

1. Two traced runs of the same query list give identical counts.
2. In a traced run every root span is `cli.main`, and the self times of all
   spans add up to the traced `solve_s`.
3. A deliberately wrong reference makes the failure count, and so
   fail_frac, nonzero; the true references give zero.
4. Every seed draws the whole sweep-small pool, and every query any
   workload sends has a reference.
5. BENCHMARK.json names workloads run.py knows and exactly the metrics it
   reports.

Prints one PASS/FAIL line per test and exits 1 if any failed.  Takes about
half a minute.
"""

from __future__ import annotations

import copy
import json
import sys

import run
import workloads

SELF_TIME_TOLERANCE = 0.01      # share of the traced solve_s


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if run.layer_unit(k) == "count"}


def test_counts_repeat(refs: dict) -> str:
    queries = workloads.queries("sweep-small", 0)
    a = run.launch("run", queries, trace=True)
    b = run.launch("run", queries, trace=True)
    ca, cb = _counts(a["layers"]), _counts(b["layers"])
    diff = sorted(k for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k))
    if diff:
        return f"counts differ: {diff[:5]}"
    failures = (run.check_results(queries, a["results"], refs)
                + run.check_results(queries, b["results"], refs))
    if failures:
        return f"traced answers failed: {failures[:3]}"
    return ""


def test_self_times_add_up() -> str:
    queries = workloads.queries("sweep-small", 3)
    rep = run.launch("run", queries, trace=True)
    check = rep["span_check"]
    if check["roots"] != ["cli.main"]:
        return f"root spans are {check['roots']}, not ['cli.main']"
    gap = abs(check["self_sum_s"] - rep["solve_s"])
    if gap > SELF_TIME_TOLERANCE * rep["solve_s"]:
        return (f"self times sum to {check['self_sum_s']:.4f} s, traced solve_s "
                f"is {rep['solve_s']:.4f} s")
    return ""


def test_wrong_reference_fails(refs: dict) -> str:
    good = run.measure("sweep-small", 5, 0, refs)
    if good["failures"]:
        return f"true references fail: {good['failures'][:3]}"
    bad = copy.deepcopy(refs)
    bad["rep-gl21-natural"]["report"]["dimension"] += 1
    wrong = run.measure("sweep-small", 5, 0, bad)
    failed = [qid for qid, _ in wrong["failures"]]
    if failed != ["rep-gl21-natural"]:
        return f"wrong reference gave failures {failed} (fail_frac " \
               f"{len(failed) / wrong['attempted']:.3f})"
    return ""


def test_coverage(refs: dict) -> str:
    pool = sorted(qid for qid, _ in workloads.SWEEP_POOL)
    for seed in range(20):
        if sorted(qid for qid, _ in workloads.queries("sweep-small", seed)) != pool:
            return f"seed {seed} does not draw the whole pool"
    missing = [qid for qid, argv in workloads.all_queries()
               if refs.get(qid, {}).get("argv") != argv]
    return f"queries without a reference: {missing}" if missing else ""


def test_benchmark_json() -> str:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    unknown = [w["name"] for w in spec["workloads"]
               if w["name"] not in workloads.WORKLOADS]
    if unknown:
        return f"unknown workloads {unknown}"
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END:
        return f"end_to_end {e2e} != {run.END_TO_END}"
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if layers != [(n, run.layer_unit(n)) for n in run.PER_LAYER]:
        return "per_layer differs from run.PER_LAYER"
    return ""


def main() -> int:
    refs = run.load_references()
    tests = [
        ("traced counts repeat exactly", lambda: test_counts_repeat(refs)),
        ("self times add up to traced solve_s", test_self_times_add_up),
        ("a wrong reference makes fail_frac nonzero",
         lambda: test_wrong_reference_fails(refs)),
        ("references cover every query and seed", lambda: test_coverage(refs)),
        ("BENCHMARK.json matches run.py", test_benchmark_json),
    ]
    bad = 0
    for name, fn in tests:
        problem = fn()
        bad += bool(problem)
        print(f"{'FAIL' if problem else 'PASS'} {name}"
              + (f": {problem}" if problem else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
