"""Workload definitions: the queries each workload sends through the CLI.

A query is a `superbgg` argument vector with a stable identifier; its
reference report lives in `references.json` under the same identifier.
`natural-osp54-k3` and `borel-gl32-k4` are single fixed queries; the seed
only orders `sweep-small`, which runs every query of `SWEEP_POOL` once, so
all seeds do the same work in a different order.
"""

from __future__ import annotations

import random

NATURAL = ("natural-osp54-k3",
           ["bgg", "check", "--alg", "osp", "--m", "5", "--n", "2",
            "--parabolic-drop", "0", "--weight", "1,0|0,0", "--kmax", "3"])

BOREL = ("borel-gl32-k4",
         ["homology", "--alg", "gl", "--m", "3", "--n", "2",
          "--weight", "1,0,0|0,0", "--kmax", "4"])


def _bgg(alg, m, n, weight, kmax, *extra):
    return ["bgg", "check", "--alg", alg, "--m", str(m), "--n", str(n),
            "--weight", weight, "--kmax", str(kmax), *extra]


def _homology(alg, m, n, weight, kmax, *extra):
    return ["homology", "--alg", alg, "--m", str(m), "--n", str(n),
            "--weight", weight, "--kmax", str(kmax), *extra]


def _rep(alg, m, n, weight):
    return ["rep", "build", "--alg", alg, "--m", str(m), "--n", str(n),
            "--weight", weight]


# Small queries: every verdict basis, every subcommand but `alg info`, and
# every registered scenario except `bggtaut` (osp(4|6) k=3, ~40 s).
SWEEP_POOL = [
    ("bgg-gl21-borel-k2", _bgg("gl", 2, 1, "1,0|0", 2)),
    ("bgg-gl21-levi0-k2", _bgg("gl", 2, 1, "1,0|0", 2, "--levi", "0")),
    ("bgg-gl21-star2-k2", _bgg("gl", 2, 1, "1,0|0", 2, "--levi", "0",
                               "--star-type", "2", "--form-normalization", "-1")),
    ("bgg-gl12-borel-k2", _bgg("gl", 1, 2, "1|0,0", 2)),
    ("bgg-gl31-borel-k2", _bgg("gl", 3, 1, "1,0,0|0", 2)),
    ("bgg-osp12-l1-k3", _bgg("osp", 1, 1, "|1", 3)),
    ("bgg-osp12-l2-k3", _bgg("osp", 1, 1, "|2", 3)),
    ("bgg-osp22-borel-k2", _bgg("osp", 2, 1, "1|0", 2)),
    ("bgg-osp32-borel-k2", _bgg("osp", 3, 1, "1|0", 2)),
    ("bgg-osp44-drop0-k2", _bgg("osp", 4, 2, "1,0|0,0", 2, "--parabolic-drop", "0")),
    ("hom-osp12-l1-k3", _homology("osp", 1, 1, "|1", 3)),
    ("hom-osp12-l3-k4", _homology("osp", 1, 1, "|3", 4)),
    ("hom-gl21-borel-k3", _homology("gl", 2, 1, "1,0|0", 3)),
    ("hom-gl21-drop1-k2", _homology("gl", 2, 1, "1,0|0", 2, "--parabolic-drop", "1")),
    ("rep-osp46-natural", _rep("osp", 4, 3, "1,0|0,0,0")),
    ("rep-gl32-natural", _rep("gl", 3, 2, "1,0,0|0,0")),
    ("rep-gl21-natural", _rep("gl", 2, 1, "1,0|0")),
    ("repro-osp12-counterexample-l1", ["reproduce", "osp12-counterexample", "--lambda", "1"]),
    ("repro-osp12-counterexample-l2", ["reproduce", "osp12-counterexample", "--lambda", "2"]),
    ("repro-glmn-borel-natural", ["reproduce", "glmn-borel-natural"]),
    ("repro-kac-gl21", ["reproduce", "kac-gl21"]),
    ("repro-star-gl", ["reproduce", "star-gl"]),
    ("repro-forlapl-ker1", ["reproduce", "forlapl-ker1"]),
]

WORKLOADS = ("natural-osp54-k3", "borel-gl32-k4", "sweep-small")


def all_queries() -> list:
    """Every query any workload can send, as (id, argv)."""
    return [NATURAL, BOREL] + SWEEP_POOL


def queries(workload: str, seed: int) -> list:
    """The (id, argv) list one measured process runs, in order."""
    if workload == "natural-osp54-k3":
        return [NATURAL]
    if workload == "borel-gl32-k4":
        return [BOREL]
    if workload == "sweep-small":
        order = list(SWEEP_POOL)
        random.Random(seed).shuffle(order)
        return order
    raise KeyError(workload)
