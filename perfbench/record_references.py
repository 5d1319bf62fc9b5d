"""Record the reference report of every benchmark query.

    python3 perfbench/record_references.py

Runs each query of every workload once, in its own fresh interpreter, and
writes `references.json`: {query id: {"argv", "exit", "report"}} with the
report's `wall_time_ms` removed.  A query that does not exit 0 or fails an
independent check of run.check_answer is not recorded, and the script
exits 1.  Re-record only when a change is meant to alter reports.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    references, bad = {}, []
    for qid, argv in workloads.all_queries():
        result = run.launch("run", [[qid, argv]])["results"][0]
        if result["exit"] != 0 or result["error"]:
            bad.append((qid, result["error"] or result["stderr"]))
            continue
        report = json.loads(result["stdout"])
        report.pop("wall_time_ms", None)
        ref = {"argv": argv, "exit": 0, "report": report}
        reasons = run.check_answer(result, ref)
        if reasons:
            bad.append((qid, "; ".join(reasons)))
            continue
        references[qid] = ref
        print(f"recorded {qid}", file=sys.stderr)
    for qid, why in bad:
        print(f"NOT recorded {qid}: {why}", file=sys.stderr)
    with open(run.REFERENCES, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
