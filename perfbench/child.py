"""One measured interpreter: import the CLI, run queries, report as JSON.

run.py starts this script in a fresh interpreter with `src` on PYTHONPATH:

    python3 perfbench/child.py <launch time> setup
    python3 perfbench/child.py <launch time> run <trace 0|1> [spans file]

`<launch time>` is the parent's `time.monotonic()` just before the launch;
the system-wide monotonic clock makes the difference to the moment
`superbgg.cli` is imported the set-up time.  In `run` mode the query list,
`[[id, argv], ...]`, is read from stdin after the import, every query goes
through `superbgg.cli.main(argv)` once, in order, with no pause between
them, and one JSON object is written to stdout at the end.
"""

import sys
import time

import superbgg.cli

IMPORTED = time.monotonic()

import contextlib  # noqa: E402  (after the timed import on purpose)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_queries(queries: list, tracer=None) -> tuple:
    """Closed loop, one client: each query starts when the previous ends."""
    results = []
    clock = time.perf_counter
    start = clock()
    for i, (qid, argv) in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        out, err = io.StringIO(), io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = superbgg.cli.main(list(argv))
        except SystemExit as exc:       # argparse rejects an argument vector
            code = exc.code
        except Exception:               # a crash counts as a failed query
            code, error = None, traceback.format_exc()
        results.append({"id": qid, "exit": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "error": error})
    return results, clock() - start


def main() -> int:
    launched = float(sys.argv[1])
    mode = sys.argv[2]
    report = {"setup_s": IMPORTED - launched,
              "module_file": superbgg.cli.__file__}
    if mode == "run":
        trace = sys.argv[3] == "1"
        queries = json.load(sys.stdin)
        tracer = None
        if trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        results, solve_s = run_queries(queries, tracer)
        report["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["solve_s"] = solve_s
        report["results"] = results
        if tracer is not None:
            report["layers"] = tracer.layer_metrics()
            report["span_check"] = tracer.span_check()
            if len(sys.argv) > 4:
                tracer.write_spans(sys.argv[4])
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
