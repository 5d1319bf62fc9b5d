"""superbgg benchmark: end-to-end and per-layer numbers for fixed workloads.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the program is imported from `src/` next to this
directory.  Every measured run is a fresh interpreter (`child.py`) that
imports `superbgg.cli` and sends its queries through `superbgg.cli.main`
as a closed loop with one client and one worker (`SUPERBGG_WORKERS` is
removed).  No query repeats inside a process.

`--trace 0` launches the workload's query list in fresh processes until
`--seconds` is used up (at least once) and reports medians:

    setup_s      interpreter launch until `superbgg.cli` is imported; median
                 over at least SETUP_LAUNCHES import-only launches spread
                 over the run, plus every measured launch
    solve_s      first query start to last query end
    peak_rss_mb  maximum resident set size of the measured process

`--trace 1` makes one untraced and one traced launch and reports the
per-layer numbers of the traced one (see tracing.py), its `solve_s` and the
tracing overhead (traced minus untraced `solve_s`).  Spans are written to
`.perfbench_out/spans-<workload>.json`.

Every answer is checked after the process ends against `references.json`
(recorded by record_references.py) and against independent checks; a query
that raises, exits non-zero or differs counts as failed.  The human-readable
table goes first, and the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_LAUNCHES = 9          # import-only launches per run, at least
SETUP_PER_MEASURED = 2       # of them before each measured launch
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics reported by a traced run (unit "s" or "count").  Each
# group names the workload whose solve_s it should move.  A function that
# some workload never calls is reported by its call count: its time would
# read 0 on every run of that workload.
PER_LAYER = [
    # Levi decomposition (natural-osp54-k3)
    "homology.decompose_levi.s", "homology.decompose_levi.self_s",
    "homology.decompose_levi.calls", "homology.levi_act.calls",
    "homology.levi_irrep_dimension.s", "homology.multiplicity_criterion.calls",
    "linalg.solve.calls",
    # block kernels and chain operators (borel-gl32-k4)
    "homology.block_data.s", "homology.block_data.blocks",
    "homology.block_data.block_max", "homology.predicates.s",
    "linalg.rref.s", "linalg.rref.calls", "linalg.nullspace.calls",
    "linalg.mat_mul.s", "linalg.independent_columns.calls",
    "chains.space.s", "chains.space.dim_max", "chains.lower.s",
    "chains.raise.s", "chains.quabla.s",
    # fixed per-query cost (sweep-small)
    "algebra.build_algebra.s", "algebra.build_adjoint_operation.s",
    "algebra.build_adjoint_operation.calls",
    "algebra.check_star_condition.calls", "modules.build_irrep.s",
    "modules.build_irrep.calls", "modules.form_positive_definite.calls",
    "bgg.bgg_verdict.calls", "bgg.kac_resolution.calls", "cli.main.self_s",
    # objects built per query (natural-osp54-k3 solve_s, sweep-small peak_rss_mb)
    "chains.complexes_built", "homology.analyses_built",
    # the traced run itself
    "trace.solve_s", "trace.overhead_s",
]

# Times of the functions above that are reported by call count: printed in
# the traced run's table, not in the JSON.
TABLE_ONLY = [
    "homology.levi_act.s", "homology.multiplicity_criterion.s",
    "algebra.check_star_condition.s", "modules.form_positive_definite.s",
    "bgg.bgg_verdict.s", "bgg.kac_resolution.s",
]


def layer_unit(name: str) -> str:
    return "s" if name.endswith((".s", ".self_s", "_s")) else "count"


class BenchError(Exception):
    """The benchmark itself could not run (not a failed query)."""


# ---------------------------------------------------------------------------
# launching
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SUPERBGG_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"     # same set iteration order in every run
    return env


def launch(mode: str, queries: list | None = None, trace: bool = False,
           spans_path: Path | None = None) -> dict:
    """Start child.py in a fresh interpreter and return its report."""
    cmd = [sys.executable, str(HERE / "child.py")]
    extra = [mode]
    if mode == "run":
        extra.append("1" if trace else "0")
        if spans_path is not None:
            extra.append(str(spans_path))
    payload = json.dumps(queries) if queries is not None else ""
    launched = time.monotonic()
    proc = subprocess.run(cmd + [repr(launched)] + extra, input=payload,
                          capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout)
    if Path(report["module_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported superbgg from {report['module_file']}, "
                         f"not from {SRC}")
    return report


# ---------------------------------------------------------------------------
# answer checks
# ---------------------------------------------------------------------------

def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def natural_shape_closed_form(m: int, n: int, k_max: int) -> list:
    """H_k(nbar, C^{m|2n}) highest weights for osp(m|2n), maximal parabolic
    at the first node, rendered like the report's `shape.degrees`: eps1 at
    k = 0, then -k eps1 + mu_k with mu_k = 2 eps2 + eps3 + .. + eps_{k+1}
    while k < d = m // 2, and mu_k = 2 eps2 + eps3 + .. + eps_d
    + (k - d + 1) delta1 from k = d on."""
    d = m // 2
    rank = d + n
    degrees = []
    for k in range(k_max + 1):
        w = [0] * rank
        if k == 0:
            w[0] = 1
        else:
            w[0], w[1] = -k, 2
            for c in range(2, min(k, d - 1) + 1):
                w[c] = 1
            if k >= d:
                w[d] = k - d + 1
        degrees.append([{"multiplicity": 1, "weight": [str(c) for c in w]}])
    return degrees


def check_answer(result: dict, ref: dict) -> list:
    """Reasons why one query's answer is wrong; empty when it is right."""
    if result["error"]:
        return [f"raised: {result['error'].strip().splitlines()[-1]}"]
    if result["exit"] != ref["exit"]:
        return [f"exit {result['exit']} (expected {ref['exit']})"]
    try:
        report = json.loads(result["stdout"])
    except ValueError:
        return ["report is not JSON"]
    report.pop("wall_time_ms", None)
    reasons = []
    if report != ref["report"]:
        reasons.append("report differs from the reference")
    for flag in ("nilpotency_ok", "quabla_cross_check_ok"):
        if flag in report and report[flag] is not True:
            reasons.append(f"{flag} is not true")
    if "predicates" in report and report["predicates"].get("consistent") is not True:
        reasons.append("predicates are not consistent")
    if report.get("command", "").startswith("reproduce") and report.get("passed") is not True:
        reasons.append("scenario did not pass")
    if result["id"] == workloads.NATURAL[0]:
        verdict = report.get("verdict", {})
        if (verdict.get("status"), verdict.get("basis_of_decision")) != (
                "Exists", "MultiplicityCriterion"):
            reasons.append(f"verdict {verdict} is not Exists via MultiplicityCriterion")
        if report.get("shape", {}).get("degrees") != natural_shape_closed_form(5, 2, 3):
            reasons.append("shape differs from the closed form")
    return reasons


def check_results(queries: list, results: list, references: dict) -> list:
    """(query id, reasons) for every failed query of one launch."""
    failures = []
    if [r["id"] for r in results] != [qid for qid, _ in queries]:
        raise BenchError("child answered a different query list")
    for (qid, argv), result in zip(queries, results):
        ref = references.get(qid)
        if ref is None or ref["argv"] != argv:
            reasons = ["no reference for this query"]
        else:
            reasons = check_answer(result, ref)
        if reasons:
            failures.append((qid, reasons))
    return failures


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, references: dict) -> dict:
    queries = workloads.queries(workload, seed)
    launch("setup")                      # warm-up: byte-compiles the package
    setups, solves, rss, walls, failures = [], [], [], [], []
    attempted = 0
    start = time.monotonic()
    while True:
        # spread import-only launches over the run, not all at its start
        setups += [launch("setup")["setup_s"] for _ in range(SETUP_PER_MEASURED)]
        t0 = time.monotonic()
        rep = launch("run", queries)
        walls.append(time.monotonic() - t0)
        setups.append(rep["setup_s"])
        solves.append(rep["solve_s"])
        rss.append(rep["peak_rss_mb"])
        attempted += len(queries)
        failures += check_results(queries, rep["results"], references)
        if time.monotonic() - start + statistics.median(walls) > seconds:
            break
    while len(setups) < SETUP_LAUNCHES + len(solves):
        setups.append(launch("setup")["setup_s"])
    return {
        "metrics": {"setup_s": statistics.median(setups),
                    "solve_s": statistics.median(solves),
                    "peak_rss_mb": statistics.median(rss)},
        "samples": {"setup_s": len(setups), "solve_s": len(solves),
                    "peak_rss_mb": len(rss)},
        "attempted": attempted, "failures": failures,
    }


def trace(workload: str, seed: int, references: dict) -> dict:
    queries = workloads.queries(workload, seed)
    OUT_DIR.mkdir(exist_ok=True)
    plain = launch("run", queries)
    traced = launch("run", queries, trace=True,
                    spans_path=OUT_DIR / f"spans-{workload}.json")
    failures = (check_results(queries, plain["results"], references)
                + check_results(queries, traced["results"], references))
    layers = dict(traced["layers"])
    layers["trace.solve_s"] = traced["solve_s"]
    layers["trace.overhead_s"] = traced["solve_s"] - plain["solve_s"]
    return {
        "metrics": {name: layers[name] for name in PER_LAYER + TABLE_ONLY},
        "attempted": 2 * len(queries), "failures": failures,
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_row_header(traced: bool) -> None:
    if traced:
        print(f"{'workload':18} {'metric':40} value")
    else:
        print(f"{'workload':18} {'setup_s':>14} {'solve_s':>14} "
              f"{'peak_rss_mb':>14} {'fail_frac':>16}  samples")


def print_row(workload: str, res: dict, traced: bool) -> None:
    frac = len(res["failures"]) / res["attempted"]
    if traced:
        for name in PER_LAYER + TABLE_ONLY:
            print(f"{workload:18} {name:40} {res['metrics'][name]:.6g} "
                  f"{layer_unit(name)}")
        print(f"{workload:18} {'fail_frac':40} {frac:.6g} "
              f"({len(res['failures'])}/{res['attempted']})")
    else:
        m, n = res["metrics"], res["samples"]
        print(f"{workload:18} {m['setup_s']:>12.4f} s {m['solve_s']:>12.4f} s "
              f"{m['peak_rss_mb']:>11.2f} MB {frac:>7.4f} "
              f"({len(res['failures'])}/{res['attempted']})  "
              f"setup n={n['setup_s']}, solve n={n['solve_s']}")
    for qid, reasons in res["failures"]:
        print(f"  FAILED {qid}: {'; '.join(reasons)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "superbgg" / "cli.py").is_file():
        print(f"error: no superbgg sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"error: missing {REFERENCES}", file=sys.stderr)
        return 2
    references = load_references()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    units = ({n: layer_unit(n) for n in PER_LAYER} if args.trace else END_TO_END)
    metrics, attempted, failed = {}, 0, 0
    try:
        print_row_header(bool(args.trace))
        for name in names:
            res = (trace(name, args.seed, references) if args.trace
                   else measure(name, args.seed, args.seconds, references))
            print_row(name, res, bool(args.trace))
            attempted += res["attempted"]
            failed += len(res["failures"])
            prefix = "" if len(names) == 1 else f"{name}/"
            for metric, unit in units.items():
                metrics[prefix + metric] = {"value": res["metrics"][metric],
                                            "unit": unit}
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
