"""Command line front end.

Subcommands: `alg info`, `rep build`, `homology`, `bgg check`,
`reproduce <name>`.  Reports are JSON with every rational rendered as a
"p/q" string; identical inputs produce byte-identical reports apart from the
wall-time field.  Exit codes: 0 success, 1 mathematical check failure,
2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .algebra import (
    build_adjoint_operation,
    build_algebra,
    build_parabolic,
    casimir_eigenvalue,
    check_finite_dimensional,
    weight_key,
    wt,
)
from .bgg import bgg_verdict, reproduce
from .errors import (
    FiniteDimGuardExceeded,
    InputError,
    LengthMismatch,
    ParseError,
    PreconditionViolated,
    SuperBGGError,
)
from .homology import KostantAnalysis
from .modules import build_irrep

SCHEMA = "superbgg/1"


# ---------------------------------------------------------------------------
# weight parsing
# ---------------------------------------------------------------------------

def parse_weight(text: str, r: int, s: int) -> tuple:
    """Parse "a1,..,a_r|b1,..,b_s" with exact rational tokens."""
    if "|" not in text:
        raise LengthMismatch("missing '|' between the epsilon and delta blocks")
    if text.count("|") != 1:
        raise ParseError("weight must contain exactly one '|'", text.find("|"))
    eps_part, dlt_part = text.split("|")

    def parse_side(part: str, offset: int) -> list:
        if part.strip() == "":
            return []
        out = []
        pos = offset
        for tok in part.split(","):
            try:
                out.append(Fraction(tok.strip()))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad rational token {tok.strip()!r}", pos)
            pos += len(tok) + 1
        return out

    eps = parse_side(eps_part, 0)
    dlt = parse_side(dlt_part, len(eps_part) + 1)
    if len(eps) != r or len(dlt) != s:
        raise LengthMismatch(
            f"expected {r} epsilon and {s} delta coordinates, "
            f"got {len(eps)} and {len(dlt)}")
    return wt(*eps, *dlt)


def _dominant_weight(g, text: str) -> tuple:
    """Parse a highest weight and check that its irreducible module is
    finite dimensional (`check_finite_dimensional`), before any module is
    built."""
    lam = parse_weight(text, g.r, g.s)
    check_finite_dimensional(g, lam)
    return lam


def _irrep_within_depth(g, lam: tuple, max_depth: int, op=None):
    """build_irrep of a `_dominant_weight`: its module is finite dimensional,
    so one that outgrows `--max-depth` levels outgrew the user's budget."""
    try:
        return build_irrep(g, lam, op, max_depth)
    except FiniteDimGuardExceeded as exc:
        raise InputError(f"--max-depth {max_depth} is below the height of the "
                         f"module: {exc}") from None


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _frac(x) -> str:
    return str(Fraction(x))


def _weight(w) -> list:
    return [str(c) for c in w]


def _weight_entries(pairs) -> list:
    return [{"weight": _weight(w), "multiplicity": m} for w, m in pairs]


def _decomposition(dec) -> dict:
    return {
        "entries": [
            {
                "highest_weight": _weight(e.highest_weight),
                "hw_vector_count": e.hw_vector_count,
                "irrep_dimension": e.irrep_dimension,
                "generated_dimension": e.generated_dimension,
            }
            for e in dec.entries
        ],
        "completely_reducible": dec.completely_reducible,
        "total_dimension": dec.total_dimension,
    }


def _shape(shape) -> dict:
    return {
        "degrees": [_weight_entries(deg) for deg in shape.degrees],
        "truncated": shape.truncated,
        "terminates_at": shape.terminates_at,
    }


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_algebra_args(sp):
    sp.add_argument("--alg", required=True, choices=["gl", "osp"])
    sp.add_argument("--m", required=True, type=int)
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--form-normalization", default="1",
                    help="exact rational scale C of the supertrace form")


def _add_parabolic_args(sp):
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--levi", default=None,
                       help="comma separated simple-root indices kept in the Levi")
    group.add_argument("--parabolic-drop", default=None,
                       help="comma separated simple-root indices dropped from the Levi")


def _add_common_args(sp):
    sp.add_argument("--out", default=None, help="report path (default: stdout)")


def _algebra_from_args(args):
    try:
        C = Fraction(args.form_normalization)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad --form-normalization {args.form_normalization!r}")
    return build_algebra(args.alg, args.m, args.n, C)


def _parabolic_from_args(g, args):
    nroots = len(g.simple_roots)
    if args.levi is not None:
        keep = _indices(args.levi)
    elif args.parabolic_drop is not None:
        drop = set(_indices(args.parabolic_drop))
        if bad := sorted(drop.difference(range(nroots))):     # as build_parabolic
            raise PreconditionViolated(f"invalid simple root index {bad[0]}")
        keep = [i for i in range(nroots) if i not in drop]
    else:
        keep = []
    return build_parabolic(g, keep)


def _indices(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise InputError(f"bad index list {text!r}")


def _input_echo(args, extra=None) -> dict:
    echo = {
        "alg": args.alg, "m": args.m, "n": args.n,
        "form_normalization": _frac(args.form_normalization),
    }
    for key in ("levi", "parabolic_drop", "weight", "kmax", "star_type"):
        if hasattr(args, key) and getattr(args, key) is not None:
            echo[key] = getattr(args, key)
    if extra:
        echo.update(extra)
    return echo


def _emit(report: dict, args, t0: float) -> None:
    report["schema"] = SCHEMA
    report["wall_time_ms"] = int((time.time() - t0) * 1000)
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_alg(args, t0) -> int:
    if args.action != "info":
        raise InputError(f"unknown alg action {args.action!r}")
    g = _algebra_from_args(args)
    even = sum(1 for b in g.basis if b.parity == 0)
    report = {
        "command": "alg info",
        "input": _input_echo(args),
        "name": g.name,
        "dimension": {"even": even, "odd": g.dim - even},
        "rank": g.rank,
        "simple_roots": [_weight(a) for a in g.simple_roots],
        "rho": _weight(g.rho),
        "positive_roots": len(g.positive_root_indices()),
        "basis_labels": [b.label for b in g.basis],
    }
    _emit(report, args, t0)
    return 0


def _cmd_rep(args, t0) -> int:
    if args.action != "build":
        raise InputError(f"unknown rep action {args.action!r}")
    g = _algebra_from_args(args)
    lam = _dominant_weight(g, args.weight)
    op = build_adjoint_operation(g, args.star_type or 1)
    mod = _irrep_within_depth(g, lam, args.max_depth, op)
    report = {
        "command": "rep build",
        "input": _input_echo(args),
        "dimension": mod.dim,
        "parity_split": {
            "even": sum(1 for p in mod.parities if p == 0),
            "odd": sum(1 for p in mod.parities if p == 1),
        },
        "casimir_eigenvalue": _frac(casimir_eigenvalue(g, lam)),
        "form_positive_definite": mod.form_positive_definite(),
        "weights": _weight_entries(sorted(
            ((w, len(idxs)) for w, idxs in mod.weight_blocks.items()),
            key=lambda t: weight_key(t[0]))),
    }
    _emit(report, args, t0)
    return 0


def _internal_checks(an, k_max: int) -> tuple:
    """Nilpotency and quabla cross-checks on the built window, read one
    column at a time: no composed map and no direct quabla is formed.

    Nilpotency covers every boundary the analysis reads: d*_{k-1} d*_k = 0
    for k <= k_max, and d*_{k_max} d*_{k_max+1} = 0 on the restricted
    d*_{k_max+1} that block_data(k_max) reads its images from
    (`boundary_above`), over all its columns, which are exactly the columns
    of the non-acyclic weight blocks, although block_data eliminates only
    the dominant ones; and
    d_{k+1} d_k = 0 for k <= k_max - 2.  It holds
    when every column of each product is zero (`ChainMap.compose_columns`).
    The Casimir quabla is the analysis's own (`quabla_map`), the parts its
    block kernels read, so it is built once per degree.  The direct quabla
    d_{k-1} d*_k + d*_{k+1} d_k is its independent side, streamed here only
    (`ChainComplex.quabla_columns`), at degrees 0..k_max-1: at k_max it
    would need d_{k_max}, which nothing else builds, and block_data(k_max)
    reads a Casimir quabla whose root part holds its dominant candidate
    blocks alone.  Each direct column is
    compared with the scalar times e_j plus the root part's column, the
    denominators cross-multiplied (`CasimirQuabla.agrees`)."""
    cx = an.cx

    def products():
        for k in range(2, k_max + 1):
            yield cx.lower(k - 1), cx.lower(k)
        yield cx.lower(k_max), an.boundary_above(k_max)
        for k in range(0, k_max - 1):
            yield cx.raise_(k + 1), cx.raise_(k)
    nil = all(not any(outer.compose_columns(inner)[0]) for outer, inner in products())
    quab = all(an.quabla_map(k).agrees(*cx.quabla_columns(k)) for k in range(0, k_max))
    return nil, quab


def _cmd_homology(args, t0) -> int:
    g = _algebra_from_args(args)
    p = _parabolic_from_args(g, args)
    lam = _dominant_weight(g, args.weight)
    mod = _irrep_within_depth(g, lam, args.max_depth)
    an = KostantAnalysis(p, mod, args.kmax)
    nil, quab = _internal_checks(an, args.kmax)
    degrees = []
    for k in range(args.kmax + 1):
        rep = an.homology(k)
        degrees.append({
            "degree": k,
            "chain_dimension": an.cx.space(k).dim,
            "dim_ker_boundary": rep.dim_ker_boundary,
            "dim_im_boundary_above": rep.dim_im_boundary_above,
            "homology_dimension": rep.homology_dimension,
            "decomposition": _decomposition(an.homology_decomposition(k)),
            "ker_quabla_dimension": sum(an.block_dims(k, "ker_quabla").values()),
            "generalized_zero_dimension": sum(an.block_dims(k, "gen_zero").values()),
        })
    summ = an.predicate_summary()
    report = {
        "command": "homology",
        "input": _input_echo(args),
        "nilpotency_ok": nil,
        "quabla_cross_check_ok": quab,
        "degrees": degrees,
        "predicates": {
            "global": {str(i): v for i, v in summ["global"].items()},
            "consistent": summ["consistent"],
            "per_degree": [
                {"degree": r.degree, "values": {str(i): v for i, v in r.values.items()}}
                for r in summ["per_degree"]
            ],
        },
    }
    _emit(report, args, t0)
    return 0 if (nil and quab) else 1


def _cmd_bgg(args, t0) -> int:
    if args.action != "check":
        raise InputError(f"unknown bgg action {args.action!r}")
    g = _algebra_from_args(args)
    p = _parabolic_from_args(g, args)
    lam = _dominant_weight(g, args.weight)
    mod = _irrep_within_depth(g, lam, args.max_depth)
    verdict = bgg_verdict(g, p, lam, args.kmax, star_type=args.star_type, module=mod)
    an = verdict.analysis
    nil, quab = _internal_checks(an, args.kmax)
    summ = an.predicate_summary()
    report = {
        "command": "bgg check",
        "input": _input_echo(args),
        "nilpotency_ok": nil,
        "quabla_cross_check_ok": quab,
        "verdict": {
            "status": verdict.status,
            "basis_of_decision": verdict.basis_of_decision,
            "details": {k: str(v) for k, v in verdict.details.items()},
        },
        "shape": _shape(verdict.shape),
        "degrees": [
            {
                "degree": rep.degree,
                "chain_dimension": an.cx.space(rep.degree).dim,
                "homology_dimension": rep.homology_dimension,
                "decomposition": _decomposition(an.homology_decomposition(rep.degree)),
            }
            for rep in verdict.reports
        ],
        "predicates": {
            "global": {str(i): v for i, v in summ["global"].items()},
            "consistent": summ["consistent"],
        },
    }
    _emit(report, args, t0)
    return 0 if (nil and quab and summ["consistent"]) else 1


def _cmd_reproduce(args, t0) -> int:
    params = {}
    if args.lam is not None:
        params["lam"] = args.lam
    if args.m is not None:
        params["m"] = args.m
    if args.n is not None:
        params["n"] = args.n
    if args.kmax is not None:
        params["k_max"] = args.kmax
    result = reproduce(args.name, **params)
    report = {"command": f"reproduce {args.name}", "input": params}
    report.update(result)
    _emit(report, args, t0)
    return 0 if result["passed"] else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="superbgg",
        description="Exact Kostant cohomology and BGG-resolution criteria "
                    "for gl(m|n) and osp(m|2n)")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("alg", help="algebra information")
    sp.add_argument("action", choices=["info"])
    _add_algebra_args(sp)
    _add_common_args(sp)
    sp.set_defaults(func=_cmd_alg)

    sp = sub.add_parser("rep", help="build a highest-weight module")
    sp.add_argument("action", choices=["build"])
    _add_algebra_args(sp)
    sp.add_argument("--weight", required=True)
    sp.add_argument("--star-type", type=int, default=None, choices=[1, 2])
    sp.add_argument("--max-depth", type=int, default=64)
    _add_common_args(sp)
    sp.set_defaults(func=_cmd_rep)

    sp = sub.add_parser("homology", help="Kostant homology of the nilradical")
    _add_algebra_args(sp)
    _add_parabolic_args(sp)
    sp.add_argument("--weight", required=True)
    sp.add_argument("--kmax", type=int, default=4)
    sp.add_argument("--max-depth", type=int, default=64)
    _add_common_args(sp)
    sp.set_defaults(func=_cmd_homology)

    sp = sub.add_parser("bgg", help="BGG-resolution verdict")
    sp.add_argument("action", choices=["check"])
    _add_algebra_args(sp)
    _add_parabolic_args(sp)
    sp.add_argument("--weight", required=True)
    sp.add_argument("--kmax", type=int, default=4)
    sp.add_argument("--star-type", type=int, default=None, choices=[1, 2])
    sp.add_argument("--max-depth", type=int, default=64)
    _add_common_args(sp)
    sp.set_defaults(func=_cmd_bgg)

    sp = sub.add_parser("reproduce", help="run a named scenario from the registry")
    sp.add_argument("name")
    sp.add_argument("--lambda", dest="lam", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--kmax", type=int, default=None)
    _add_common_args(sp)
    sp.set_defaults(func=_cmd_reproduce)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.time()
    try:
        for opt in ("kmax", "max_depth"):
            val = getattr(args, opt, None)
            if val is not None and val < 0:
                raise InputError(
                    f"--{opt.replace('_', '-')} must be non-negative, got {val}")
        return args.func(args, t0)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SuperBGGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
