"""BGG-resolution verdicts, closed-form shapes and the scenario registry.

The verdict logic follows the decidable criteria: complete reducibility of
every homology group in the built window is necessary; sufficient conditions
are tried cheapest first (star condition, then the consecutive-degree
multiplicity bound on ker quabla, then direct disjointness of the boundary
pair).  A verdict of Exists obtained from window-bounded criteria is flagged
as truncated; the star condition is global.
"""

from __future__ import annotations

from . import linalg
from .algebra import (
    LieSuperalgebra,
    ParabolicDecomposition,
    Weight,
    _weyl_act,
    build_adjoint_operation,
    build_algebra,
    build_parabolic,
    check_finite_dimensional,
    check_star_condition,
    positive_even_roots,
    weight_key,
    wt,
    wt_add,
    wt_sub,
)
from .errors import (
    CrossCheckFailed,
    InputError,
    LeviNotInEvenPart,
    NotCompletelyReducible,
    PreconditionViolated,
    UnknownScenario,
)
from .homology import KostantAnalysis, multiplicity_criterion
from .modules import HWModule, build_irrep, build_kac_module, type_one_grading

# ---------------------------------------------------------------------------
# shapes and verdicts
# ---------------------------------------------------------------------------

class ResolutionShape:
    """degrees[k] = sorted list of (Weight, multiplicity)."""

    def __init__(self, degrees: list, truncated: bool, terminates_at: int | None):
        self.degrees, self.truncated, self.terminates_at = degrees, truncated, terminates_at


class BGGVerdict:
    """`status` is Exists, NotExists or Unknown; `basis_of_decision` is
    StarCondition, MultiplicityCriterion, DirectDisjointness,
    NecessityViolated or Truncated."""

    def __init__(self, status: str, basis_of_decision: str, shape: ResolutionShape,
                 reports: list, details: dict | None = None,
                 analysis: KostantAnalysis | None = None):
        self.status, self.basis_of_decision = status, basis_of_decision
        self.shape, self.reports, self.analysis = shape, reports, analysis
        self.details = {} if details is None else details


def _shape_from_analysis(an: KostantAnalysis, k_max: int) -> ResolutionShape:
    p = an.parabolic
    degrees = []
    for k in range(k_max + 1):
        dec = an.homology_decomposition(k)
        degrees.append(sorted(
            ((e.highest_weight, e.hw_vector_count) for e in dec.entries),
            key=lambda t: weight_key(t[0]),
        ))
    n_odd = p.n_odd
    finite = not n_odd and k_max >= len(p.n_indices)
    terminates = len(p.n_indices) if finite else None
    return ResolutionShape(degrees=degrees, truncated=not finite,
                           terminates_at=terminates)


def bgg_verdict(g: LieSuperalgebra, p: ParabolicDecomposition, lam: Weight,
                k_max: int, star_type: int | None = None,
                module: HWModule | None = None) -> BGGVerdict:
    """Run the full decision ladder for the irreducible module with highest
    weight lam: `module` when the caller built it (the CLI builds it within
    its --max-depth budget), else build_irrep(g, lam)."""
    if module is None:
        module = build_irrep(g, lam)
    an = KostantAnalysis(p, module, k_max)
    reports = []
    witness = None
    for k in range(k_max + 1):
        reports.append(an.homology(k))
        if not an.homology_decomposition(k).completely_reducible:
            witness = k
            break
    shape = _shape_from_analysis(an, k_max if witness is None else witness)
    details: dict = {"verified_up_to": k_max}

    if witness is not None:
        details["witness_degree"] = witness
        return BGGVerdict("NotExists", "NecessityViolated", shape, reports, details, an)

    # 1. star condition: dagger maps each nilradical basis vector to its
    #    signed dual and the module is unitarisable; valid at every degree
    star = _try_star(g, p, module, star_type)
    if star is not None:
        details.update(star)
        return BGGVerdict("Exists", "StarCondition", shape, reports, details, an)

    # 2. multiplicity criterion on ker quabla (window-verified)
    try:
        ok, wit = multiplicity_criterion(an, k_max)
    except NotCompletelyReducible:
        ok, wit = False, "not completely reducible"
    if ok:
        details["criterion_window"] = k_max
        return BGGVerdict("Exists", "MultiplicityCriterion", shape, reports, details, an)
    details["multiplicity_witness"] = wit

    # 3. direct disjointness: statements (1) and (5) plus H = ker quabla
    summ = an.predicate_summary()
    details["predicates"] = summ["global"]
    if summ["global"][1] and summ["global"][5]:
        matches = all(an.homology(k).weight_multiplicities
                      == an.block_dims(k, "ker_quabla") for k in range(k_max))
        details["homology_matches_ker_quabla"] = matches
        if matches:
            return BGGVerdict("Exists", "DirectDisjointness", shape, reports, details, an)
    return BGGVerdict("Unknown", "Truncated", shape, reports, details, an)


def _try_star(g, p, module, star_type):
    """Star-condition details if some star type's operation satisfies it and
    makes L(lambda) unitarisable, else None.  `module` is L(lambda) built
    with the cached type-1 operation, reused where that is the one tried."""
    if star_type is not None:
        types = [star_type]
    elif g.kind == "gl" or (g.kind == "osp" and g.m == 2):
        types = [1, 2]
    else:
        types = [1]    # untyped Chevalley involution; positivity will decide
    for t in types:
        op = build_adjoint_operation(g, t)
        if not check_star_condition(g, p, op):
            continue
        mod = module if op is module.adjoint else build_irrep(
            g, module.highest_weight, op)
        if mod.form_positive_definite():
            return {"star_type": op.star_type, "form_normalization":
                    str(g.form_normalization)}
    return None


# ---------------------------------------------------------------------------
# closed-form shape of the osp(m|2n) natural-module resolution
# ---------------------------------------------------------------------------

def natural_resolution_shape(m: int, n: int, k_max: int) -> ResolutionShape:
    """Closed-form highest weights of H_k(nbar, C^{m|2n}) for the maximal
    parabolic at the first node: eps1 at k = 0, then -k eps1 + mu_k with
    mu_k = 2 eps2 + eps3 + .. + eps_{k+1} while k < d and
    mu_k = 2 eps2 + eps3 + .. + eps_d + (k - d + 1) delta1 afterwards."""
    if m < 4 or n <= 1 or m - 2 * n > 1:
        raise PreconditionViolated(
            "closed form requires m >= 4, n > 1 and m - 2n <= 1")
    d = m // 2
    rank = d + n

    degrees = [[(tuple(int(c == 0) for c in range(rank)), 1)]]
    for k in range(1, k_max + 1):
        w = [0] * rank
        w[0] = -k
        w[1] = 2
        if k <= d - 1:
            for c in range(2, k + 1):
                w[c] = 1
        else:
            for c in range(2, d):
                w[c] = 1
            w[d] = k - d + 1
        degrees.append([(tuple(w), 1)])
    return ResolutionShape(degrees=degrees, truncated=True, terminates_at=None)


# ---------------------------------------------------------------------------
# Weyl group machinery for Kac-module resolutions
# ---------------------------------------------------------------------------

class WeylCoset:
    """Minimal-length representatives of W_l \\ W(g_0), graded by length:
    `elements` holds (reduced word, length), the word (i1, .., ik) naming
    s_i1 ... s_ik over the algebra's `even_coroots`."""

    def __init__(self, algebra: LieSuperalgebra, parabolic: ParabolicDecomposition,
                 elements: list):
        self.algebra, self.parabolic, self.elements = algebra, parabolic, elements

    def graded(self) -> dict:
        out: dict = {}
        for word, length in self.elements:
            out.setdefault(length, []).append(word)
        return out

    def dot_action(self, word: tuple, lam: Weight) -> Weight:
        """w . lam = w(lam + rho) - rho."""
        g = self.algebra
        return wt(*wt_sub(_weyl_act(g.even_coroots, word, wt_add(lam, g.rho)), g.rho))


def weyl_coset(g: LieSuperalgebra, p: ParabolicDecomposition) -> WeylCoset:
    """W^1 by a breadth-first search on words, w -> w s_i, each element
    keyed by its image of the regular weight 2 rho_0 (the sum of the
    positive even roots).  The length of w, the positive even roots it
    sends negative, must be that of its first-found word; w is a minimal
    representative where w^-1, the reversed word, keeps the Levi positive
    roots positive."""
    coroots, pos_even = g.even_coroots, positive_even_roots(g)
    two_rho0 = tuple(sum(a[c] for a in pos_even) for c in range(g.rank))
    words, seen = [()], {two_rho0}
    for word in words:
        for comp in (word + (si,) for si in range(len(coroots))):
            key = _weyl_act(coroots, comp, two_rho0)
            if key not in seen:
                seen.add(key)
                words.append(comp)
    levi_pos = [g.root(i) for i in p.levi_indices if g.is_positive_root(g.root(i))]
    elements = []
    for word in words:
        length = sum(1 for a in pos_even
                     if not g.is_positive_root(_weyl_act(coroots, word, a)))
        if length != len(word):
            raise CrossCheckFailed("BFS word is not reduced")
        if all(g.is_positive_root(_weyl_act(coroots, word[::-1], a)) for a in levi_pos):
            elements.append((word, length))
    elements.sort(key=lambda t: (t[1], t[0]))
    return WeylCoset(g, p, elements)


def kac_resolution(g: LieSuperalgebra, p: ParabolicDecomposition, lam: Weight,
                   length_max: int = 8) -> ResolutionShape:
    """Weyl-coset shape of the Kac-module resolution: parabolic induction
    is exact on the even-part resolution, so degree j carries the weights
    w . lam over the length-j minimal coset representatives w."""
    type_one_grading(g)            # raises NotTypeI when inapplicable
    if not p.levi_in_even_part():
        raise LeviNotInEvenPart("Kac resolutions need l inside g_0")
    lam = wt(*lam)
    coset = weyl_coset(g, p)
    graded = coset.graded()
    n0 = len([i for i in p.n_indices if g.parity(i) == 0])
    top = min(length_max, max(graded) if graded else 0)
    degrees = []
    for j in range(top + 1):
        entries: dict = {}
        for word in graded.get(j, []):
            w = coset.dot_action(word, lam)
            entries[w] = entries.get(w, 0) + 1
        degrees.append(sorted(entries.items(), key=lambda t: weight_key(t[0])))
    return ResolutionShape(degrees=degrees, truncated=top < max(graded, default=0),
                           terminates_at=n0)


# ---------------------------------------------------------------------------
# named scenario registry
# ---------------------------------------------------------------------------

def _check(desc: str, ok: bool, detail: str = "") -> dict:
    return {"description": desc, "passed": bool(ok), "detail": detail}


def _weights_str(mult: dict, r: int) -> str:
    from .algebra import wt_str
    return "; ".join(f"{wt_str(w, r)} x{m}" for w, m in
                     sorted(mult.items(), key=lambda t: weight_key(t[0])))


def _scenario_osp12_counterexample(lam: int = 1, k_max: int = 4):
    g = build_algebra("osp", 1, 1)
    p = build_parabolic(g, [])
    weight = wt(lam)
    check_finite_dimensional(g, weight)
    module = build_irrep(g, weight)
    an = KostantAnalysis(p, module, k_max + 1)
    checks = []
    h0 = an.homology(0).weight_multiplicities
    checks.append(_check("H_0 is the one dimensional weight-lambda space",
                         h0 == {weight: 1}, _weights_str(h0, g.r)))
    h1 = an.homology(1).weight_multiplicities
    checks.append(_check("H_1 is the one dimensional weight -lambda-1 space",
                         h1 == {wt(-lam - 1): 1}, _weights_str(h1, g.r)))
    for k in range(2, k_max + 1):
        checks.append(_check(f"H_{k} vanishes",
                             an.homology(k).homology_dimension == 0))
    kq = sum(an.block_dims(1, "ker_quabla").values())
    checks.append(_check("ker quabla_1 strictly larger than H_1",
                         kq > an.homology(1).homology_dimension,
                         f"dim ker quabla_1 = {kq}"))
    return checks


def _scenario_glmn_borel_natural():
    checks = []
    for (m, n, expect) in ((2, 1, True), (1, 2, False)):
        g = build_algebra("gl", m, n)
        p = build_parabolic(g, [])
        module = build_irrep(g, tuple([1] + [0] * (m + n - 1)))
        an = KostantAnalysis(p, module, 2)
        cx = an.cx
        rb = cx.raise_(0)
        coh0: dict = {}
        for w, idxs in cx.space(0).weight_blocks.items():
            kerd = len(idxs) - linalg.Echelon(rb.rows(w)).rank
            if kerd:
                coh0[w] = kerd
        kq0 = an.block_dims(0, "ker_quabla")
        same = coh0 == kq0
        checks.append(_check(
            f"gl({m}|{n}): H^0(n, natural) iso ker quabla_0 is {expect}",
            same == expect,
            f"H^0: {_weights_str(coh0, g.r)} | ker quabla_0: {_weights_str(kq0, g.r)}"))
    return checks


def _scenario_natural_resolution(m: int = 4, n: int = 3, k_max: int = 3):
    g = build_algebra("osp", m, n)
    p = build_parabolic(g, list(range(1, len(g.simple_roots))))
    lam = tuple([1] + [0] * (g.rank - 1))
    verdict = bgg_verdict(g, p, lam, k_max)
    expected = natural_resolution_shape(m, n, k_max)
    checks = [
        _check("verdict is Exists", verdict.status == "Exists",
               f"{verdict.status} via {verdict.basis_of_decision}"),
        _check("decision basis is the multiplicity criterion",
               verdict.basis_of_decision == "MultiplicityCriterion"),
    ]
    for k in range(k_max + 1):
        got = verdict.shape.degrees[k]
        want = expected.degrees[k]
        checks.append(_check(
            f"H_{k} highest weights match the closed form", got == want,
            f"got {[(tuple(map(str,w)),mlt) for w,mlt in got]}"))
    return checks


def _scenario_kac_gl21(k_max: int = 4):
    g = build_algebra("gl", 2, 1)
    p = build_parabolic(g, [])
    lam = (1, 0, 0)
    shape = kac_resolution(g, p, lam, length_max=k_max)
    kac = build_kac_module(g, lam)
    an = KostantAnalysis(p, kac, k_max + 1)
    checks = []
    for k in range(k_max + 1):
        predicted = dict(shape.degrees[k]) if k < len(shape.degrees) else {}
        got = an.homology(k).weight_multiplicities
        checks.append(_check(
            f"H_{k}(nbar, K_lambda) equals the Weyl-coset prediction",
            got == predicted,
            f"got {_weights_str(got, g.r)} want {_weights_str(predicted, g.r)}"))
    return checks


def _scenario_star_gl():
    cases = [
        ("gl", 2, 1, 1, [], 1, True, "type 1, C=1, Borel"),
        ("gl", 2, 1, -1, [0], 2, True, "type 2, C=-1, p contains gl(m)"),
        ("gl", 2, 1, -1, [], 2, False, "type 2, C=-1, Borel (fails at E12)"),
        ("gl", 2, 1, 1, [], 2, False, "type 2, C=1, Borel"),
        ("gl", 1, 2, 1, [], 1, False, "gl(1|2), type 1, l=h (gl(n) not in p)"),
    ]
    checks = []
    for kind, m, n, C, levi, st, expect, desc in cases:
        g = build_algebra(kind, m, n, C)
        p = build_parabolic(g, levi)
        op = build_adjoint_operation(g, st)
        got = check_star_condition(g, p, op)
        checks.append(_check(f"star condition {desc} -> {expect}", got == expect,
                             f"got {got}"))
    return checks


def _scenario_forlapl_ker1(m: int = 4, n: int = 3):
    g = build_algebra("osp", m, n)
    p = build_parabolic(g, list(range(1, len(g.simple_roots))))
    lam = [0] * g.rank
    lam[0] = 1
    lam[1] = 1
    module = build_irrep(g, tuple(lam))
    an = KostantAnalysis(p, module, 2)
    dec = an.ker_quabla_decomposition(1)
    want = [0] * g.rank
    want[1] = 2
    want = tuple(want)
    entries = [(e.highest_weight, e.hw_vector_count) for e in dec.entries]
    checks = [
        _check("ker quabla_1 is a single Levi module with highest weight 2 eps2",
               entries == [(want, 1)],
               f"entries {[(tuple(map(str,w)),c) for w,c in entries]}"),
        _check("ker quabla_1 is completely reducible", dec.completely_reducible),
    ]
    return checks


_SCENARIOS = {
    "osp12-counterexample": _scenario_osp12_counterexample,
    "glmn-borel-natural": _scenario_glmn_borel_natural,
    "bggtaut": _scenario_natural_resolution,
    "kac-gl21": _scenario_kac_gl21,
    "star-gl": _scenario_star_gl,
    "forlapl-ker1": _scenario_forlapl_ker1,
}


def reproduce(name: str, **params) -> dict:
    """Run a named scenario from the registry, returning a structured report."""
    if name not in _SCENARIOS:
        raise UnknownScenario(
            f"unknown scenario {name!r}; available: {sorted(_SCENARIOS)}")
    scenario = _SCENARIOS[name]
    code = scenario.__code__
    takes = code.co_varnames[:code.co_argcount]
    unused = sorted(set(params) - set(takes))
    if unused:
        raise InputError(
            f"scenario {name!r} does not take {', '.join(unused)}; "
            f"it takes: {', '.join(takes) or 'no parameters'}")
    checks = scenario(**params)
    return {
        "scenario": name,
        "parameters": {k: v for k, v in params.items()},
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
