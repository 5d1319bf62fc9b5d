import functools
import gc
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    CoordinateLeviModule,
    casimir_match,
    chain_basis,
    coordinate_decomposition,
    decompose_levi_hw_only,
    dense_rows,
    dual_module,
    euler_check,
    exact_values,
    fraction_columns,
    full_levi_module,
    generalized_zero,
    homology_quotient,
    every_weight_blocks,
    every_weight_statements,
    ker_quabla,
    merged_quabla,
    natural_module,
    opposite,
    oracle_action,
    oracle_boundary_squares_to_zero,
    oracle_homology_dims,
    oracle_homology_ranks,
    oracle_independent_columns,
    oracle_kernel,
    oracle_levi_decomposition,
    oracle_levi_generated_dims,
    oracle_map_product,
    rank_dense,
    same_map,
    sparse_rows,
    whole_map_checks,
    zeros,
)
from superbgg import linalg
from superbgg.algebra import (
    build_algebra,
    build_parabolic,
    casimir_eigenvalue,
    check_finite_dimensional,
    even_simple_roots,
    weight_key,
    wt,
    wt_add,
)
from superbgg.chains import ChainComplex, ChainMap
from superbgg.cli import _internal_checks
from superbgg.errors import (
    FiniteDimGuardExceeded,
    LeviNotClosed,
    PreconditionViolated,
    TruncationTooSmall,
)
from superbgg.homology import (
    KostantAnalysis,
    LeviModule,
    _casimir_matcher,
    _highest_weight_vectors,
    _lowering_closure,
    _project,
    _quabla_kernels,
    decompose_levi,
    levi_irrep_dimension,
    multiplicity_criterion,
)
from superbgg.linalg import Echelon, _primitive
from superbgg.modules import build_irrep, build_kac_module

F0, F1 = Fraction(0), Fraction(1)


@pytest.fixture(scope="module")
def gl21_an(gl21_borel, gl21_natural):
    return KostantAnalysis(gl21_borel, gl21_natural, k_max=4)


@pytest.fixture(scope="module")
def osp12_an(osp12, osp12_borel):
    return KostantAnalysis(osp12_borel, build_irrep(osp12, wt(1)), k_max=5)


def test_h0_gl21_borel(gl21_an):
    rep = gl21_an.homology(0)
    assert rep.homology_dimension == 1
    assert rep.weight_multiplicities == {wt(1, 0, 0): 1}


def test_osp12_counterexample_homology(osp12_an):
    assert osp12_an.homology(0).weight_multiplicities == {wt(1): 1}
    assert osp12_an.homology(1).weight_multiplicities == {wt(-2): 1}
    for k in (2, 3, 4):
        assert osp12_an.homology(k).homology_dimension == 0


def test_osp12_ker_quabla_exceeds_homology(osp12_an):
    assert ker_quabla(osp12_an, 1).dim >= 2
    assert osp12_an.homology(1).homology_dimension == 1


def test_ker_quabla_inside_generalized_zero(gl21_an, osp12_an):
    for an in (gl21_an, osp12_an):
        for k in range(3):
            kq = ker_quabla(an, k)
            gz = generalized_zero(an, k)
            assert kq.dim <= gz.dim
            for w, rep in zip(kq.weights, kq.reps):
                gz.express(w, [rep])        # LeviNotClosed outside the span


def test_trivial_module_homology(gl21, gl21_borel):
    t = build_irrep(gl21, wt(0, 0, 0))
    an = KostantAnalysis(gl21_borel, t, k_max=4)
    assert an.homology(0).weight_multiplicities == {wt(0, 0, 0): 1}
    # brute-force cross-check of the Lambda-homology of nbar
    mine = [an.homology(k).weight_multiplicities for k in range(4)]
    assert mine == oracle_homology_dims(gl21_borel, t, 3)


def test_oracle_equivalence_small_algebras():
    cases = [
        ("gl", 1, 1, (1, 0), False),
        ("gl", 2, 1, (1, 0, 0), True),
        ("osp", 1, 1, (1,), True),
    ]
    for kind, m, n, lam, strict in cases:
        g = build_algebra(kind, m, n, strict=strict)
        p = build_parabolic(g, [])
        mod = build_irrep(g, lam)
        an = KostantAnalysis(p, mod, k_max=4)
        mine = [an.homology(k).weight_multiplicities for k in range(4)]
        assert mine == oracle_homology_dims(p, mod, 3)
        assert oracle_boundary_squares_to_zero(p, mod, 3)


def test_glmn_h0_vs_ker_quabla(gl21_borel, gl21_natural, gl12_borel, gl12_natural):
    for p, mod, expect in ((gl21_borel, gl21_natural, True),
                           (gl12_borel, gl12_natural, False)):
        an = KostantAnalysis(p, mod, k_max=2)
        cx = an.cx
        rb = cx.raise_(0)
        coh0 = {}
        for w, idxs in cx.space(0).weight_blocks.items():
            blk = rb.block(w)
            kerd = len(idxs) - (linalg.rank(blk) if blk else 0)
            if kerd:
                coh0[w] = kerd
        assert (coh0 == ker_quabla(an, 0).weight_dims()) is expect


def test_predicates_gl21_all_true(gl21_an):
    summ = gl21_an.predicate_summary()
    assert all(summ["global"].values())
    assert summ["consistent"]
    for rep in summ["per_degree"]:
        assert all(rep.values.values())
        assert rep.consistent


def test_predicates_osp12_fail_consistently(osp12_an):
    summ = osp12_an.predicate_summary()
    assert not any(summ["global"].values())
    assert summ["consistent"]
    assert not summ["per_degree"][1].values[1]     # im delta* meets ker quabla
    for rep in summ["per_degree"]:
        assert rep.consistent                       # (1) <-> (2) degreewise


def test_quabla_preserves_ker_and_im(gl21_an):
    """Exactness bookkeeping: quabla commutes with the boundary."""
    cx = gl21_an.cx
    for k in range(1, 3):
        q = merged_quabla(gl21_an.cx.casimir_quabla(k))
        low = cx.lower(k)
        qlow = merged_quabla(gl21_an.cx.casimir_quabla(k - 1))
        assert low.source is q.source
        assert same_map(qlow.compose(low), low.compose(q))


def test_rank_nullity_per_block(gl21_an):
    cx = gl21_an.cx
    for k in range(1, 4):
        low = cx.lower(k)
        for w, idxs in cx.space(k).weight_blocks.items():
            blk = low.block(w)
            r = linalg.rank(blk) if blk else 0
            ker = len(linalg.nullspace(blk, ncols=len(idxs))) if blk else len(idxs)
            assert r + ker == len(idxs)


def test_decompose_full_chain_space(gl21_borel, gl21_natural):
    """The coordinate oracle decomposes a whole chain space, on which
    quabla need not vanish (decompose_levi takes only K/I with quabla = 0)."""
    an = KostantAnalysis(gl21_borel, gl21_natural, k_max=2)
    # C_0 = V itself: the decomposition must account for every dimension
    dec0 = coordinate_decomposition(gl21_borel, full_levi_module(an.cx, 0))
    assert dec0.total_dimension == gl21_natural.dim
    dec = coordinate_decomposition(gl21_borel, full_levi_module(an.cx, 1))
    assert dec.total_dimension == an.cx.space(1).dim
    assert dec.completely_reducible          # l = h: always completely reducible


def _corrupted_quotient(k=2):
    """gl(2|1) with Levi {1} on L(0,0|-1): H_k as a LeviModule whose K at
    its highest weight also holds a unit vector that d*_k does not kill."""
    p = _parabolic("gl", 2, 1, (1,))
    an = KostantAnalysis(p, build_irrep(p.algebra, wt(0, 0, -1)), k_max=k)
    mod = an.homology_quotient_module(k)
    w = an.homology_decomposition(k).entries[0].highest_weight
    lower = an.cx.lower(k).icols
    i = next(i for i in an.cx.space(k).weight_blocks[w] if lower[i])
    return p, LeviModule(an.cx, k, {**mod.ker, w: mod.ker[w] + [{i: 1}]}, mod.im,
                         mod.acyclic)


def test_decompose_levi_not_closed():
    """On a homology quotient every class is certified to lie in ker d*_k:
    a K that holds a non-cycle is refused with LeviNotClosed."""
    p, bad = _corrupted_quotient()
    with pytest.raises(LeviNotClosed, match="not stable"):
        decompose_levi(p, bad)


def test_osp46_ker_quabla_decompositions(osp46, osp46_sec7, osp46_natural):
    an = KostantAnalysis(osp46_sec7, osp46_natural, k_max=2)
    d0 = an.ker_quabla_decomposition(0)
    assert [(e.highest_weight, e.hw_vector_count) for e in d0.entries] == [
        (wt(1, 0, 0, 0, 0), 1)]
    assert d0.completely_reducible
    d1 = an.ker_quabla_decomposition(1)
    assert [(e.highest_weight, e.hw_vector_count) for e in d1.entries] == [
        (wt(-1, 2, 0, 0, 0), 1)]
    assert d1.completely_reducible
    assert an.homology(1).weight_multiplicities == ker_quabla(an, 1).weight_dims()


def test_multiplicity_criterion_cases(gl21, gl21_borel, gl21_natural, osp12,
                                      osp12_borel):
    an = KostantAnalysis(gl21_borel, gl21_natural, 2)
    ok, witness = multiplicity_criterion(an, 2)
    assert ok and witness is None
    trivial = build_irrep(gl21, wt(0, 0, 0))
    an = KostantAnalysis(gl21_borel, trivial, 2)
    assert multiplicity_criterion(an, 2) == (True, None)
    # vacuous-ish case: trivial module of osp(1|2) has ker quabla_2 = 0
    t12 = build_irrep(osp12, wt(0))
    an = KostantAnalysis(osp12_borel, t12, 2)
    assert ker_quabla(an, 2).dim == 0
    assert multiplicity_criterion(an, 2) == (True, None)


def test_multiplicity_criterion_witness(osp12, osp12_borel):
    """osp(1|2), lambda = 1: weight -2 appears in ker quabla at consecutive
    degrees 1 and 2, so the bound fails with that witness."""
    w1 = build_irrep(osp12, wt(1))
    ok, witness = multiplicity_criterion(KostantAnalysis(osp12_borel, w1, 2), 2)
    assert not ok
    assert witness is not None


def test_casimir_match(gl21_borel, gl21_natural, osp46_sec7, osp46_natural):
    an = KostantAnalysis(osp46_sec7, osp46_natural, k_max=1)
    assert casimir_match(an, 1) == [wt(-1, 2, 0, 0, 0)]
    assert wt(1, 0, 0, 0, 0) in casimir_match(an, 0)
    an2 = KostantAnalysis(gl21_borel, gl21_natural, k_max=2)
    # disjointness holds for gl(2,1): Casimir matching reproduces homology
    for k in range(2):
        hws = sorted(an2.homology(k).weight_multiplicities)
        assert sorted(casimir_match(an2, k)) == hws


def test_euler_characteristic(gl21, gl21_borel, gl21_natural, osp12, osp12_borel):
    an = KostantAnalysis(gl21_borel, gl21_natural, k_max=4)
    assert euler_check(an, wt(1, 0, 0))
    mus = set()
    for k in range(4):
        mus.update(an.cx.space(k).weight_blocks)
    checked = 0
    for mu in mus:
        try:
            assert euler_check(an, mu)
            checked += 1
        except TruncationTooSmall:
            pass
    assert checked >= 3
    an12 = KostantAnalysis(osp12_borel, build_irrep(osp12, wt(1)), k_max=4)
    assert euler_check(an12, wt(-2))


def test_euler_truncation_guard(osp12, osp12_borel):
    an = KostantAnalysis(osp12_borel, build_irrep(osp12, wt(3)), k_max=2)
    with pytest.raises(TruncationTooSmall):
        euler_check(an, wt(-4))


def _raise_cohomology(cx, k):
    coh = {}
    for w, idxs in cx.space(k).weight_blocks.items():
        rb = cx.raise_(k).block(w)
        ker = len(idxs) - (linalg.rank(rb) if rb else 0)
        im = 0
        if k > 0:
            bb = cx.raise_(k - 1).block(w)
            im = linalg.rank(bb) if bb else 0
        if ker - im:
            coh[w] = ker - im
    return coh


def _lower_homology(cx, k):
    hom = {}
    for w, idxs in cx.space(k).weight_blocks.items():
        lb = cx.lower(k).block(w) if k > 0 else []
        ker = len(idxs) - (linalg.rank(lb) if lb else 0)
        ub = cx.lower(k + 1).block(w)
        im = linalg.rank(ub) if ub else 0
        if ker - im:
            hom[w] = ker - im
    return hom


def test_four_groups_duality(gl21_borel, gl21_natural, osp12, osp12_borel):
    """Duality of the four (co)homology groups at weight-multiplicity level:
    H^k(n, V*) matches H_k(n, V) negated and H_k(nbar, V*) matches
    H^k(nbar, V) negated."""
    cases = [(gl21_borel, gl21_natural), (osp12_borel, build_irrep(osp12, wt(1)))]
    for p, v in cases:
        vd = dual_module(v)
        cx_v_n = ChainComplex(opposite(p), v)
        cx_d_nbar = ChainComplex(p, vd)
        for k in range(3):
            coh_dual = _raise_cohomology(cx_d_nbar, k)
            hom_v = _lower_homology(cx_v_n, k)
            assert coh_dual == {tuple(-c for c in w): m for w, m in hom_v.items()}
            hom_dual = _lower_homology(cx_d_nbar, k)
            coh_v = _raise_cohomology(cx_v_n, k)
            assert hom_dual == {tuple(-c for c in w): m for w, m in coh_v.items()}


def test_homology_quotient_decomposition_dims(gl21_an):
    for k in range(3):
        dec = gl21_an.homology_decomposition(k)
        assert dec.total_dimension == gl21_an.homology(k).homology_dimension
        assert dec.completely_reducible


def test_functional_surface(gl21_borel, gl21_natural):
    an = KostantAnalysis(gl21_borel, gl21_natural, k_max=4)
    assert an.homology(1).homology_dimension == 2
    assert an.homology_decomposition(1).completely_reducible
    assert an.ker_quabla_decomposition(1).total_dimension == 2
    assert generalized_zero(an, 1).dim == 2
    assert all(an.predicates(1).values.values())
    assert ker_quabla(an, 0).dim == 1
    assert generalized_zero(an, 0).dim == 1
    assert an.predicates(0).consistent
    assert wt(1, 0, 0) in casimir_match(an, 0)
    assert euler_check(an, wt(1, 0, 0))


def test_analysis_does_not_outlive_its_callers(gl21):
    """Nothing at module level keeps an analysis, its module or its
    parabolic alive once the caller drops them."""
    p = build_parabolic(gl21, [])
    module = build_irrep(gl21, wt(1, 0, 0))
    an = KostantAnalysis(p, module, k_max=2)
    assert an.homology(1).homology_dimension == 2
    refs = [weakref.ref(obj) for obj in (an, an.cx, module, p)]
    del an, module, p
    gc.collect()
    assert [r() for r in refs] == [None] * 4


def test_decompose_levi_accepts_subspace(gl21_borel, gl21_natural):
    """ker quabla_k is decomposed as a subspace of C_k (I = 0), of the
    dimension of the oracle's module."""
    an = KostantAnalysis(gl21_borel, gl21_natural, k_max=2)
    sub = an.ker_quabla_module(1)
    assert sub.im is None
    dec = decompose_levi(gl21_borel, sub)
    assert dec.total_dimension == sub.dim == ker_quabla(an, 1).dim


@pytest.mark.parametrize("case", ["gl21_borel", "osp46_sec7"])
def test_ker_quabla_is_a_levi_module_of_the_block_kernels(case, request):
    """ker_quabla_module(k) is a LeviModule on the block kernels: it has
    their weight counts, those of the oracle's module, and the analysis's
    own quabla kills every basis vector.  The oracle's generalized zero
    space is a coordinate module too."""
    p = request.getfixturevalue(case)
    module = request.getfixturevalue(case.split("_")[0] + "_natural")
    an = KostantAnalysis(p, module, k_max=2)
    for k in (0, 1):
        kq = an.ker_quabla_module(k)
        assert isinstance(kq, LeviModule)
        assert isinstance(generalized_zero(an, k), CoordinateLeviModule)
        dims = {w: len(cols) for w, cols in kq.ker.items()}
        assert dims == ker_quabla(an, k).weight_dims() == {
            w: d.dim_ker_quabla for w, d in an.block_data(k).items()
            if d.dim_ker_quabla}
        icols = merged_quabla(an.cx.casimir_quabla(k)).icols
        for cols in kq.ker.values():
            for col in cols:
                img: dict = {}
                for gidx, v in col.items():
                    linalg.vec_iadd(img, icols[gidx], v)
                assert img == {}


def test_decompose_levi_non_split_extension(gl21):
    """The Levi gl(1|1)+gl(1) of gl(2|1) has an odd root; on the Kac module
    K(0) one highest-weight vector of weight 0 generates a 2-dimensional
    non-split extension of the 1-dimensional irrep.  The dimensions still add
    up, so only the per-entry check refuses the certificate."""
    p = build_parabolic(gl21, [1])
    cx = ChainComplex(p, build_kac_module(gl21, wt(0, 0, 0)))
    dec = coordinate_decomposition(p, full_levi_module(cx, 0))
    entry = next(e for e in dec.entries if e.highest_weight == wt(0, 0, 0))
    assert (entry.hw_vector_count, entry.irrep_dimension,
            entry.generated_dimension) == (1, 1, 2)
    assert sum(e.hw_vector_count * e.irrep_dimension
               for e in dec.entries) == dec.total_dimension
    assert not dec.completely_reducible


def test_levi_module_rejects_mixed_weights_under_O():
    """The precondition that a basis vector of weight w lies in the weight
    block of w is a typed error, so `python -O` keeps it."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from superbgg.algebra import build_algebra, build_parabolic, wt\n"
        "from superbgg.chains import ChainComplex\n"
        "from superbgg.errors import PreconditionViolated\n"
        "from superbgg.homology import LeviModule\n"
        "from superbgg.modules import build_irrep\n"
        "g = build_algebra('gl', 2, 1)\n"
        "cx = ChainComplex(build_parabolic(g, []), build_irrep(g, wt(1, 0, 0)))\n"
        "w = cx.space(0).weights[0]\n"
        "if cx.space(0).weights[1] == w:\n"
        "    raise SystemExit('indices 0 and 1 share a weight')\n"
        "try:\n"
        "    LeviModule(cx, 0, {w: [{0: 1, 1: 1}]})\n"
        "except PreconditionViolated:\n"
        "    print('rejected')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "rejected"


def _dense(cols, dim):
    mat = zeros(dim, dim)
    for t, col in enumerate(cols):
        for r, v in col.items():
            mat[r][t] = v
    return mat


@pytest.mark.parametrize("case", ["gl21_borel", "osp46_sec7"])
def test_generated_dimension_matches_dense_oracle(case, request):
    """H_w and G_w dimensions of H_k and ker quabla_k (decompose_levi) and
    of the whole chain space (the coordinate oracle) equal those of the
    dense oracle on the coordinate modules."""
    p = request.getfixturevalue(case)
    module = request.getfixturevalue(case.split("_")[0] + "_natural")
    an = KostantAnalysis(p, module, k_max=2)
    pos, neg = p.algebra.simple_vector_indices()
    for k in (0, 1):
        for mod, dec in _decompositions(p, an, k):
            want = oracle_levi_generated_dims(
                mod.weights,
                [_dense(mod.act(pos[i]).cols, mod.dim) for i in p.levi_simple_roots],
                [_dense(mod.act(neg[i]).cols, mod.dim) for i in p.levi_simple_roots])
            got = {e.highest_weight: (e.hw_vector_count, e.generated_dimension)
                   for e in dec.entries}
            assert got == want


def _stacked_solve_action(mod, i):
    """Exact columns of A_i on `mod`: the oracle's tensor-word action on
    each representative's monomials, then one linalg.solve against
    [modulo | reps] of the target weight, independent of the complex's
    action maps and of the module's solvers.  At an acyclic weight of a
    homology quotient, which holds no `modulo`, the solve is against
    ker d*_k = im d*_{k+1} there, nullspace(lower(k).block(w)), which does
    not depend on the module."""
    sp, cx = mod.space, mod.cx
    g = cx.algebra
    basis = chain_basis(sp)
    index = {e: t for t, e in enumerate(basis)}
    out = []
    for t, rep in enumerate(mod.reps):
        img: dict = {}
        for gidx, v in rep.items():
            ev, od, m = basis[gidx]
            for (word, mi), c in oracle_action(cx.parabolic, cx.module, i,
                                               ev + od, m).items():
                elem = (tuple(x for x in word if not g.parity(x)),
                        tuple(x for x in word if g.parity(x)), mi)
                linalg.vec_iadd(img, {index[elem]: c}, v)
        if not img:
            out.append({})
            continue
        w = wt_add(mod.weights[t], cx.algebra.root(i))
        idxs = sp.weight_blocks[w]
        if w in mod.acyclic:
            kernel = linalg.nullspace(cx.lower(mod.k).block(w), ncols=len(idxs))
            mod_cols = [{idxs[j]: x for j, x in enumerate(v) if x} for v in kernel]
        else:
            mod_cols = mod.modulo.get(w, [])
        members = mod.members(w)
        stacked = mod_cols + [mod.reps[u] for u in members]
        sol = linalg.solve([[col.get(r, F0) for col in stacked] for r in idxs],
                           [img.get(r, F0) for r in idxs])
        assert sol is not None
        out.append({u: sol[len(mod_cols) + j] for j, u in enumerate(members)
                    if sol[len(mod_cols) + j]})
    return out


def test_levi_act_matches_stacked_solve(osp46_sec7, osp46_natural):
    """The coordinate oracle's homology quotient acts as the stacked solve
    says."""
    an = KostantAnalysis(osp46_sec7, osp46_natural, k_max=2)
    mod = homology_quotient(an, 1)
    assert any(mod.modulo.values())
    for i in osp46_sec7.levi_indices:
        assert mod.act(i).cols == _stacked_solve_action(mod, i)


# ---------------------------------------------------------------------------
# the integer Levi layer
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["gl21_levi0", "osp46_sec7"])
def levi_case(request):
    """(parabolic, analysis): gl(2|1) with Levi gl(2)+gl(1) on L(2,0|0),
    whose action maps have denominator 2, and osp(4|6) sec-7 on the
    natural module."""
    if request.param == "gl21_levi0":
        g = request.getfixturevalue("gl21")
        p, module = build_parabolic(g, [0]), build_irrep(g, wt(2, 0, 0))
    else:
        p = request.getfixturevalue("osp46_sec7")
        module = request.getfixturevalue("osp46_natural")
    return p, KostantAnalysis(p, module, k_max=2)


def _sheared(mod):
    """The same l-module presented by rep_t + 2 rep_u, u the next member of
    t's weight (cyclically): an invertible change of basis, det(I + 2P) =
    1 - (-2)^n, whose eliminations meet pivots other than 1."""
    reps = [None] * mod.dim
    for w in mod.weight_dims():
        members = mod.members(w)
        for j, t in enumerate(members):
            col = dict(mod.reps[t])
            linalg.vec_iadd(col, mod.reps[members[(j + 1) % len(members)]], 2)
            reps[t] = col
    return CoordinateLeviModule(mod.cx, mod.k, reps, mod.modulo, mod.acyclic)


def _int_layer_modules(an):
    """The coordinate oracle's full space, homology quotient and ker quabla
    at k <= 1, each also in a sheared basis."""
    for k in (0, 1):
        for mod in _coordinate_modules(an, k):
            yield mod
            yield _sheared(mod)


def test_levi_act_exact_view_matches_stacked_solve(levi_case):
    """The coordinate oracle's act(i) is, in its exact view, the
    stacked-solve action on every module, with and without `modulo`, and
    its int solvers meet denominators above 1."""
    p, an = levi_case
    dens = set()
    for mod in _int_layer_modules(an):
        for i in p.levi_indices:
            assert mod.act(i).cols == _stacked_solve_action(mod, i)
        dens.update(s[4] for s in mod._solvers.values())
    assert max(dens) > 1


def test_levi_int_coordinates_are_one_multiple_per_weight(levi_case):
    """On each source weight block, the int columns of the coordinate
    oracle's act(i) are one positive multiple of the exact (stacked-solve)
    columns."""
    p, an = levi_case
    for mod in _int_layer_modules(an):
        for i in p.levi_indices:
            act, want = mod.act(i), _stacked_solve_action(mod, i)
            for w in mod.weight_dims():
                ratios = set()
                for t in mod.members(w):
                    assert act.icols[t].keys() == want[t].keys()
                    ratios.update(Fraction(v) / want[t][u]
                                  for u, v in act.icols[t].items())
                assert len(ratios) <= 1 and all(r > 0 for r in ratios)


def test_levi_layer_holds_only_ints(levi_case):
    """The K and I bases of H_k and ker quabla_k, the action columns act
    forms, the classes `express` returns and I's RREF rows, the
    highest-weight vectors and the echelon rows of the closures are ints,
    and the echelon's rank is its row count."""
    p, an = levi_case
    g = p.algebra
    pos, neg = g.simple_vector_indices()

    def ints(vecs):
        return all(type(x) is int for v in vecs for x in v.values())

    for k in (0, 1):
        for mod in (an.homology_quotient_module(k), an.ker_quabla_module(k)):
            raising = [(g.root(pos[i]), mod.act(pos[i])) for i in p.levi_simple_roots]
            lowering = [(g.root(neg[i]), mod.act(neg[i])) for i in p.levi_simple_roots]
            assert ints(c for cols in mod.ker.values() for c in cols)
            assert ints(c for cols in (mod.im or {}).values() for c in cols)
            echelon = Echelon()
            for w in mod.ker:
                vecs = mod.express(w, _highest_weight_vectors(mod, w, raising))
                assert ints(vecs)
                for row in _lowering_closure(mod, lowering, w, vecs)[0]:
                    echelon.add(row)
            for rows, den in mod._im_rows.values():
                assert ints(rows.values()) and type(den) is int and den > 0
            assert ints(echelon.rows.values())
            assert len(echelon.rows) == echelon.rank
            formed = [col for _, cols in raising + lowering for col in cols.values()]
            assert formed and ints(formed)
            assert all(type(cols.den) is int for _, cols in raising + lowering)


def test_quotient_express_projects_along_the_image(osp46_sec7, osp46_natural):
    """On the osp(4|6) homology quotient, at a weight where I is nonzero,
    `express` is linear, kills I and keeps every K vector outside I
    nonzero, so its classes have the rank of K/I there; a column that
    d*_k does not kill is refused."""
    an = KostantAnalysis(osp46_sec7, osp46_natural, k_max=2)
    mod = an.homology_quotient_module(1)
    w = next(w for w, cols in mod.im.items() if cols and len(mod.ker[w]) > len(cols))
    assert mod.express(w, mod.im[w]) == [{}] * len(mod.im[w])
    classes = mod.express(w, mod.ker[w])
    assert all(classes) and rank_dense(
        [[c.get(t, 0) for t in sorted({t for c in classes for t in c})]
         for c in classes]) == len(mod.ker[w]) - len(mod.im[w])
    a, b = mod.ker[w][:2]
    total = linalg.vec_iadd(dict(a), b, 3)
    want = linalg.vec_iadd(dict(classes[0]), classes[1], 3)
    assert mod.express(w, [total]) == [want]
    rows, den = mod._im_rows[w]
    assert all(_project(row, rows, den) == {} for row in rows.values())
    lower, blocks = an.cx.lower(1).icols, an.cx.space(1).weight_blocks
    v, bad = next((v, i) for v in mod.ker for i in blocks[v] if lower[i])
    with pytest.raises(LeviNotClosed, match="not stable"):
        mod.express(v, [{bad: 1}])


def test_decompose_levi_reaches_the_action_only_through_act(
        osp46_sec7, osp46_natural, monkeypatch):
    """decompose_levi calls LeviModule.act once per Levi simple root vector
    (2 x |Levi simple roots|) and never ChainComplex.action_map; every
    exterior action it causes (`_ad_rows`, `_ad_monomial`) runs inside
    act, and reading a column afterwards only indexes that table, so the
    benchmark's levi_act counters count the path that runs."""
    an = KostantAnalysis(osp46_sec7, osp46_natural, k_max=2)
    mod = an.homology_quotient_module(1)
    depth, acts, outside = [0], [], []
    act = LeviModule.act

    def spy_act(self, i):
        acts.append(i)
        depth[0] += 1
        try:
            return act(self, i)
        finally:
            depth[0] -= 1

    def outside_act(name):
        real = getattr(ChainComplex, name)

        def spy(self, *args):
            if not depth[0] or name == "action_map":
                outside.append(name)
            return real(self, *args)
        monkeypatch.setattr(ChainComplex, name, spy)

    monkeypatch.setattr(LeviModule, "act", spy_act)
    for name in ("action_map", "_ad_rows", "_ad_monomial"):
        outside_act(name)
    decompose_levi(osp46_sec7, mod)
    pos, neg = osp46_sec7.algebra.simple_vector_indices()
    roots = osp46_sec7.levi_simple_roots
    assert sorted(acts) == sorted([pos[i] for i in roots] + [neg[i] for i in roots])
    assert len(acts) == 2 * len(roots) and outside == []


def test_levi_action_has_one_owner(osp46_sec7, osp46_natural, monkeypatch):
    """The complex owns the exterior action of the Levi root vectors, one
    `_ad_rows` table per degree that the Casimir quabla's root part and
    every Levi action column read.  The Casimir quabla of degree k builds
    it, and decomposing H_k and then ker quabla_k at that degree builds no
    other (`_ad_rows` and `_ad_monomial` never run again); the action
    columns are the decomposition's own, and the complex caches no action
    map."""
    tables, calls = [], []
    ad_rows, ad_monomial = ChainComplex._ad_rows, ChainComplex._ad_monomial

    def spy_rows(self, ts, j):
        tables.append(j)
        return ad_rows(self, ts, j)

    def spy_monomial(self, *args):
        calls.append(args[0])
        return ad_monomial(self, *args)

    monkeypatch.setattr(ChainComplex, "_ad_rows", spy_rows)
    an = KostantAnalysis(osp46_sec7, osp46_natural, k_max=2)
    cx, k = an.cx, 1
    an.block_data(k)
    assert tables.count(k) == 1
    monkeypatch.setattr(ChainComplex, "_ad_monomial", spy_monomial)
    for mod in (an.homology_quotient_module(k), an.ker_quabla_module(k)):
        assert mod.dim
        assert decompose_levi(osp46_sec7, mod).total_dimension == mod.dim
    assert tables.count(k) == 1 and calls == []
    maps = [m for v in vars(cx).values() if isinstance(v, dict) for m in v.values()
            if isinstance(m, ChainMap)]
    assert {id(m) for m in maps} == {id(m) for m in (*cx._lower.values(),
                                                     *cx._raise.values())}


def test_levi_act_divides_by_the_map_denominator(gl21):
    """LeviModule.act gives the complex's action of A_i as int columns
    over one den, here above 1: divided by it they are the canonical
    action map exactly, which the coordinate oracle's act on the full chain
    space (unit vectors) also returns."""
    p = build_parabolic(gl21, [0])
    cx = ChainComplex(p, build_irrep(gl21, wt(2, 0, 0)))
    dens = set()
    for k in (0, 1):
        mod = full_levi_module(cx, k)
        for i in p.levi_indices:
            amap = cx.action_map(k, i)
            cols = LeviModule(cx, k, {}).act(i)
            dens.update((amap.den, cols.den))
            assert mod.act(i).cols == fraction_columns(amap)
            assert [{r: Fraction(v, cols.den) for r, v in cols[j].items()}
                    for j in range(cx.space(k).dim)] == fraction_columns(amap)
    assert max(dens) > 1


# ---------------------------------------------------------------------------
# the intrinsic complete-reducibility certificate against abstract irreps
# ---------------------------------------------------------------------------

def _agrees_with_abstract_irreps(p, mod, dec):
    """The decomposition `dec` of the coordinate module `mod`'s l-module has
    the certificate and irrep dimensions of the abstract-irrep oracle on
    `mod`; returns the certificate."""
    pos, neg = p.algebra.simple_vector_indices()
    cr, want = oracle_levi_decomposition(
        mod.weights,
        [_dense(mod.act(pos[i]).cols, mod.dim) for i in p.levi_simple_roots],
        [_dense(mod.act(neg[i]).cols, mod.dim) for i in p.levi_simple_roots],
        lambda w: levi_irrep_dimension(p, w))
    got = {e.highest_weight: (e.hw_vector_count, e.irrep_dimension,
                              e.generated_dimension) for e in dec.entries}
    assert (dec.completely_reducible, got) == (cr, want)
    assert dec.total_dimension == mod.dim
    return cr


def _coordinate_modules(an, k):
    """The coordinate oracle's C_k, H_k and ker quabla_k."""
    return (full_levi_module(an.cx, k), homology_quotient(an, k), ker_quabla(an, k))


def _decompositions(p, an, k):
    """(coordinate module, decomposition) of C_k, decomposed by the
    coordinate oracle (quabla need not vanish there), and of H_k and
    ker quabla_k, decomposed by decompose_levi in C_k's coordinates."""
    full, quotient, kerq = _coordinate_modules(an, k)
    return ((full, coordinate_decomposition(p, full)),
            (quotient, decompose_levi(p, an.homology_quotient_module(k))),
            (kerq, decompose_levi(p, an.ker_quabla_module(k))))


@functools.lru_cache(maxsize=None)
def _parabolic(kind, m, n, levi):
    return build_parabolic(build_algebra(kind, m, n, strict=False), levi)


CERT_ALGEBRAS = [("gl", 2, 1), ("gl", 2, 2), ("osp", 1, 1), ("osp", 2, 1),
                 ("osp", 3, 1)]


@st.composite
def _certificate_cases(draw):
    kind, m, n = draw(st.sampled_from(CERT_ALGEBRAS))
    g = _parabolic(kind, m, n, ()).algebra
    levi = tuple(i for i in range(len(g.simple_roots)) if draw(st.booleans()))
    # each side non-increasing: most draws are even-dominant
    side = st.sampled_from([-1, 0, Fraction(1, 2), 1, 2])
    lam = tuple(Fraction(c) for r in (g.r, g.s) for c in sorted(
        draw(st.lists(side, min_size=r, max_size=r)), reverse=True))
    kac = (kind == "gl" or m == 2) and draw(st.booleans())
    return (kind, m, n), levi, lam, kac, draw(st.integers(0, 2))


def _case_analysis(case):
    """(parabolic, analysis, k) of a _certificate_cases draw, skipping
    weights without a finite-dimensional irrep and chain spaces above 40."""
    alg, levi, lam, kac, k = case
    p = _parabolic(*alg, levi)
    try:
        check_finite_dimensional(p.algebra, lam)
    except PreconditionViolated:
        assume(False)
    module = (build_kac_module if kac else build_irrep)(p.algebra, lam)
    an = KostantAnalysis(p, module, k_max=k)
    assume(an.cx.space(k).dim <= 40)
    return p, an, k


@given(_certificate_cases())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_certificate_matches_abstract_irreps(case):
    """On small random (algebra, parabolic, dominant weight, degree) inputs,
    irreps and Kac modules alike, the full chain space, the homology
    quotient and ker quabla each get the certificate and irrep dimensions
    of the abstract-irrep oracle."""
    p, an, k = _case_analysis(case)
    for mod, dec in _decompositions(p, an, k):
        _agrees_with_abstract_irreps(p, mod, dec)


@pytest.mark.parametrize("alg,levi,lam", [
    (("gl", 2, 1), (1,), (0, 0, 0)),
    (("gl", 2, 1), (0, 1), (1, 0, 0)),
    (("gl", 2, 1), (1,), (0, 0, -1)),
    (("gl", 2, 2), (1,), (1, 1, 0, 0)),
    (("gl", 2, 2), (0, 1), (0, 0, 0, 0)),
    (("gl", 2, 2), (1, 2), (1, 1, 0, 0)),
])
def test_certificate_refuses_kac_modules(alg, levi, lam):
    """Kac modules restricted to a Levi with an odd root: the certificate
    refuses the non-split chain spaces and agrees with the oracle on every
    module of degrees 0 and 1, split or not."""
    p = _parabolic(*alg, levi)
    an = KostantAnalysis(p, build_kac_module(p.algebra, wt(*lam)), k_max=1)
    certified = [_agrees_with_abstract_irreps(p, mod, dec)
                 for k in (0, 1) for mod, dec in _decompositions(p, an, k)]
    assert not certified[0]                  # the Kac module itself
    assert certified.count(False) >= 3


@given(_certificate_cases())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_decompositions_match_the_coordinate_oracle(case):
    """On small random inputs, irreps and Kac modules alike, decompose_levi
    of H_j and of ker quabla_j, in C_j's own coordinates, equals the
    coordinate oracle's decomposition at every degree j <= k."""
    p, an, k = _case_analysis(case)
    for j in range(k + 1):
        assert decompose_levi(p, an.homology_quotient_module(j)) == \
            coordinate_decomposition(p, homology_quotient(an, j))
        assert an.ker_quabla_decomposition(j) == \
            coordinate_decomposition(p, ker_quabla(an, j))


@pytest.mark.parametrize("alg, levi, lam, kac, k, certified", [
    (("osp", 5, 2), (0, 1), (1, 0, 0, 0), False, 2, (False, False)),
    (("gl", 2, 1), (1,), (0, 0, 0), True, 0, (False, False)),
])
def test_non_completely_reducible_cases_match_the_coordinate_oracle(
        alg, levi, lam, kac, k, certified):
    """Uncertified decompositions of H_k and ker quabla_k equal the
    coordinate oracle's, entries and irrep dimensions included: osp(5|4)
    with Levi {0,1} on the natural module at k = 2, and gl(2|1) with Levi
    {1} on the Kac module K(0) at k = 0."""
    p = _parabolic(*alg, levi)
    module = (build_kac_module if kac else build_irrep)(p.algebra, wt(*lam))
    an = KostantAnalysis(p, module, k_max=k)
    got = (an.homology_decomposition(k), an.ker_quabla_decomposition(k))
    assert got == (coordinate_decomposition(p, homology_quotient(an, k)),
                   coordinate_decomposition(p, ker_quabla(an, k)))
    assert tuple(dec.completely_reducible for dec in got) == certified


# ---------------------------------------------------------------------------
# block eliminations
# ---------------------------------------------------------------------------

def _diag_blocks(*blocks):
    n = sum(len(b) for b in blocks)
    out, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


_JORDAN3 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


@pytest.mark.parametrize("quab, squarings", [
    ([[2, 1, 0], [1, 1, 0], [0, 3, -1]], 0),                     # invertible
    ([[0] * 3 for _ in range(3)], 0),                               # zero
    ([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]], 1),  # q^2 = 0
    (_diag_blocks([[0]], [[1, 1], [0, 1]], [[3]], [[5]]), 0),       # ker q = ker q^2
    (_diag_blocks(_JORDAN3, [[1]]), 2),             # ker q < ker q^2 < ker q^4
    (_diag_blocks([[0, 2], [0, 0]], [[1, 0], [1, 1]], [[0]]), 2),   # stops at q^4
])
def test_quabla_kernels_match_oracle(quab, squarings, monkeypatch):
    """ker q and the generalized zero space ker q^dim of one quabla block
    equal the oracle's bases; squaring stops once the kernel stops growing,
    and a block that is invertible or whose kernel meets its image only in
    0 (ker q = ker q^2, decided by one rank test) squares not at all.  The
    block is handed over as sparse rows and each power's kernel is one
    `Echelon.kernel` after the first, so the kernels read count the
    squarings."""
    dim = len(quab)
    calls = []
    kernel = Echelon.kernel

    def spy(self, cols):
        calls.append(len(cols))
        return kernel(self, cols)

    monkeypatch.setattr(Echelon, "kernel", spy)
    idxs = range(dim)
    kerq, gen_zero = _quabla_kernels(sparse_rows(quab, idxs), idxs)
    power = quab
    for _ in range(dim - 1):
        power = oracle_map_product(power, quab, dim)
    assert kerq == sparse_rows(oracle_kernel(quab, dim), idxs)
    assert gen_zero == sparse_rows(oracle_kernel(power, dim), idxs)
    assert len(calls) - 1 == squarings


def test_half_integral_weight_keys_blocks(gl21, gl21_borel):
    """Chain weights write integral coordinates as ints and keep the
    non-integral ones of lambda = (1/2, 1/2 | 0) as Fractions; the blocks
    key correctly either way and the homology equals the oracle's."""
    lam = wt(Fraction(1, 2), Fraction(1, 2), 0)
    module = build_irrep(gl21, lam)
    an = KostantAnalysis(gl21_borel, module, k_max=2)
    sp = an.cx.space(1)
    for w in sp.weight_blocks:
        assert [type(x) for x in w] == [Fraction, Fraction, int]
        assert sp.weight_blocks[tuple(map(Fraction, w))] is sp.weight_blocks[w]
    want = oracle_homology_dims(gl21_borel, module, 2)
    for k in range(3):
        assert an.homology(k).weight_multiplicities == want[k]
    assert an.homology(0).weight_multiplicities == {lam: 1}


@pytest.mark.parametrize("kind, m, n, levi, lam", [
    ("gl", 2, 1, [], (1, 0, 0)),
    ("gl", 2, 1, [0], (Fraction(1, 2), Fraction(1, 2), 0)),
    ("osp", 5, 2, [1, 2, 3], (1, 0, 0, 0)),
    ("osp", 1, 1, [], (1,)),
])
def test_weights_are_built_in_normal_form(kind, m, n, levi, lam):
    """Every weight the package builds has an int in each integral
    coordinate and a Fraction only in the others (`exact_values`): roots,
    simple roots, rho and 2 rho (half-integral on osp(5|4) and osp(1|2)),
    natural weights, the weights of irrep, dual and Kac modules built from
    a highest weight given as Fractions, chain weights and the highest
    weights of both Levi decompositions."""
    g = build_algebra(kind, m, n)
    lam = tuple(map(Fraction, lam))
    mod = build_irrep(g, lam)
    modules = [natural_module(g), mod, dual_module(mod)]
    if kind == "gl":
        modules.append(build_kac_module(g, lam))
    an = KostantAnalysis(build_parabolic(g, levi), mod, k_max=2)
    weights = [*(b.root for b in g.basis), *g.simple_roots, g.rho, g.two_rho,
               *g.nat_weight, *(w for mo in modules for w in mo.weights)]
    for k in range(3):
        weights += an.cx.space(k).weights
        for dec in (an.ker_quabla_decomposition(k), an.homology_decomposition(k)):
            weights += [e.highest_weight for e in dec.entries]
    assert exact_values(x for w in weights for x in w)
    assert any(type(x) is Fraction for x in g.rho) is (kind == "osp")
    assert (type(mod.highest_weight[0]) is Fraction) is (lam[0] == Fraction(1, 2))


# ---------------------------------------------------------------------------
# the integer block layer and the shared decomposition
# ---------------------------------------------------------------------------

def test_block_layer_holds_only_ints(levi_case):
    """block_data's bases (sparse dicts) and the predicate values hold no
    Fraction; at a non-acyclic block the kernels of d*_k equal, vector for
    vector, the primitive multiples of nullspace's Fraction kernels, and at
    an acyclic block the recorded count is their number."""
    p, an = levi_case
    for k in (0, 1):
        data = an.block_data(k)
        rep = an.predicates(k)
        for w, d in data.items():
            keys = ("ker_quabla", "gen_zero") if d.acyclic else \
                ("ker", "im", "ker_quabla", "gen_zero")
            for key in keys:
                assert all(type(v) is dict and all(type(x) is int for x in v.values())
                           for v in an.basis(k, w, key))
            lower, idxs = an.cx.lower(k), an.cx.space(k).weight_blocks[w]
            blk = lower.block(w)
            want = linalg.nullspace(blk, ncols=len(idxs))
            if d.acyclic:
                assert d.dim_ker == len(want)
            else:
                assert an.basis(k, w, "ker") == [_primitive_vector(u, idxs) for u in want]
        assert all(type(v) is bool for v in rep.values.values())
        assert all(type(v) is bool for v in an._lower_statements(k).values())


def _primitive_vector(vec, idxs):
    """The primitive int multiple, of positive sign, of a Fraction vector
    over the indices `idxs`, as a sparse vector keyed by them."""
    den = math.lcm(*(x.denominator for x in vec))
    return _primitive({i: int(x * den) for i, x in zip(idxs, vec) if x})


def test_largest_block_bases_match_the_fraction_oracles():
    """On osp(5|4) with Levi {0,1} and the natural module at k = 3, whose
    blocks reach 67 x 67, the ten largest non-acyclic blocks: the kernel of
    d*_k is, vector for vector, the primitive multiple of oracle_kernel's
    Fraction basis, and the image of d*_{k+1} is the primitive multiples of
    the block's first-come independent columns, found by Fraction
    elimination."""
    k = 3
    p = _parabolic("osp", 5, 2, (0, 1))
    an = KostantAnalysis(p, build_irrep(p.algebra, wt(1, 0, 0, 0)), k_max=k)
    data, blocks = an.block_data(k), an.cx.space(k).weight_blocks
    hot = [w for w, d in data.items() if not d.acyclic]
    largest = sorted(hot, key=lambda w: len(blocks[w]), reverse=True)[:10]
    assert len(largest) == 10 and len(blocks[largest[0]]) == 67
    lower, above = an.cx.lower(k), an.boundary_above(k)
    for w in largest:
        want = oracle_kernel(lower.block(w), len(blocks[w]))
        assert an.basis(k, w, "ker") == [_primitive_vector(u, blocks[w]) for u in want]
        cols = linalg.transpose(above.int_block(w))
        assert an.basis(k, w, "im") == [
            _primitive_vector(list(map(Fraction, cols[j])), blocks[w])
            for j in oracle_independent_columns(cols)]


@given(_certificate_cases())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_shared_decomposition_equals_fresh(case):
    """Where the statements prove H_k = ker quabla_k, ker_quabla_decomposition
    is homology_decomposition; either way it equals the coordinate oracle's
    decomposition of ker quabla_k."""
    p, an, k = _case_analysis(case)
    dec = an.ker_quabla_decomposition(k)
    shared = an.homology_is_ker_quabla(k)
    assert (dec is an.homology_decomposition(k)) is shared
    assert dec == coordinate_decomposition(p, ker_quabla(an, k))


def test_shared_decomposition_osp46_natural(osp46_sec7, osp46_natural):
    """osp(4|6), maximal parabolic at the first node, natural module: the
    gate holds at every degree k <= 3 and the shared decomposition equals
    the coordinate oracle's of ker quabla_k."""
    an = KostantAnalysis(osp46_sec7, osp46_natural, k_max=3)
    for k in range(4):
        assert an.homology_is_ker_quabla(k)
        dec = an.ker_quabla_decomposition(k)
        assert dec is an.homology_decomposition(k)
        assert dec == coordinate_decomposition(osp46_sec7, ker_quabla(an, k))


@pytest.mark.parametrize("alg, levi, lam, dims_agree, stmt3", [
    (("osp", 1, 1), (), (1,), False, True),     # the osp(1|2) counterexample
    (("gl", 2, 1), (1,), (0, 0, -1), True, False),
])
def test_gate_refuses_and_decomposes_ker_quabla(alg, levi, lam, dims_agree, stmt3):
    """At k = 1 the gate refuses, on the osp(1|2) counterexample because
    ker quabla_1 is larger than H_1 and on gl(2|1) because the generalized
    zero space leaves ker d*_1; ker quabla_1 is then decomposed on its own
    (equal to the coordinate oracle's decomposition), and H_1 from the
    homology quotient (equal to the oracle's too)."""
    p = _parabolic(*alg, levi)
    an = KostantAnalysis(p, build_irrep(p.algebra, wt(*lam)), k_max=2)
    assert (an.homology(1).weight_multiplicities
            == an.block_dims(1, "ker_quabla")) is dims_agree
    assert an._lower_statements(1)[3] is stmt3
    assert not an.homology_is_ker_quabla(1)
    dec = an.ker_quabla_decomposition(1)
    assert dec == coordinate_decomposition(p, ker_quabla(an, 1))
    assert dec.total_dimension == ker_quabla(an, 1).dim
    assert dec is not an.homology_decomposition(1)
    assert an.homology_decomposition(1) == coordinate_decomposition(
        p, homology_quotient(an, 1))


@given(_certificate_cases())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_ker_quabla_highest_weights_are_the_casimir_matches(case):
    """ker_quabla_decomposition searches only the weights of C_k with
    C2(w) = C2(lambda); its highest weights and their highest-weight vector
    counts are those of the whole chain space at those weights
    (`casimir_match`, found through the coordinate oracle's solvers)."""
    p, an, k = _case_analysis(case)
    dec = an.ker_quabla_decomposition(k)
    match = casimir_match(an, k)
    hws = decompose_levi_hw_only(p, full_levi_module(an.cx, k))
    assert [e.highest_weight for e in dec.entries] == match
    assert [e.hw_vector_count for e in dec.entries] == [hws[w] for w in match]


@given(_certificate_cases())
@example((("gl", 2, 1), (1,), (F0, F0, Fraction(-1)), False, 1))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_statement_3_matches_rank_oracle(case):
    """Statement (3), decided as d*_k . gen_zero = 0, is the rank test
    rank[ker d*_k | gen_zero] = dim ker d*_k at every non-acyclic block, on
    every degree up to k; the explicit example, gl(2|1) with Levi {1} on
    L(0,0|-1), is one where (3) fails at k = 1."""
    _, an, k = _case_analysis(case)
    for j in range(k + 1):
        blocks = an.cx.space(j).weight_blocks
        want = all(rank_dense(dense_rows(an.basis(j, w, "ker") + an.basis(j, w, "gen_zero"),
                                         blocks[w]))
                   == d.dim_ker for w, d in an.block_data(j).items() if not d.acyclic)
        assert an._lower_statements(j)[3] is want


def test_levi_irrep_dimension_fails_fast_off_dominant_weights(gl21, monkeypatch):
    """Where a weight is not dominant integral for an even simple root of
    the Levi, its irrep is infinite dimensional: levi_irrep_dimension
    answers None, as the depth guard does, and builds nothing."""
    from superbgg import homology
    p = build_parabolic(gl21, [0])           # Levi gl(2) + gl(1)
    built = []

    def spy(g, lam, *args):
        built.append(lam)
        return build_irrep(g, lam, *args)
    monkeypatch.setattr(homology, "build_irrep", spy)
    off = [wt(0, 1, 0), wt(Fraction(1, 2), 0, 0)]
    assert [levi_irrep_dimension(p, w) for w in off] == [None, None]
    assert built == []
    assert levi_irrep_dimension(p, wt(1, 0, 0)) == 2 and built == [wt(1, 0, 0)]
    for w in off:
        with pytest.raises(FiniteDimGuardExceeded):
            build_irrep(p.levi_algebra(), w, p._levi_cache["levi_op"], 8)


def test_gate_reads_statements_1_and_3(gl21_borel, gl21_natural):
    """The gate holds on gl(2|1) Borel with the natural module at k = 1 and
    refuses once the cached statement (1) or (3) reads false."""
    an = KostantAnalysis(gl21_borel, gl21_natural, k_max=2)
    assert an.homology_is_ker_quabla(1)
    vals = an._lower_statements(1)
    for i in (1, 3):
        an._lower_vals[1] = {**vals, i: False}
        assert not an.homology_is_ker_quabla(1)


# ---------------------------------------------------------------------------
# acyclic weight blocks
# ---------------------------------------------------------------------------

@given(_certificate_cases())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_homology_matches_oracle_ranks_with_acyclic_blocks(case):
    """On small random inputs, irreps and Kac modules alike, every degree's
    kernel and image totals and homology multiplicities equal the
    tensor-space oracle's, although acyclic blocks form no basis; a block is
    acyclic exactly when the oracle's elimination finds its quabla block of
    full rank, and the oracle's kernel and image agree there."""
    p, an, k_max = _case_analysis(case)
    want = oracle_homology_ranks(p, an.module, k_max)
    for k in range(k_max + 1):
        rep, ranks = an.homology(k), want[k]
        assert rep.dim_ker_boundary == sum(ker for ker, _ in ranks.values())
        assert rep.dim_im_boundary_above == sum(im for _, im in ranks.values())
        assert rep.weight_multiplicities == {
            w: ker - im for w, (ker, im) in ranks.items() if ker - im}
        acyclic, quab = an.acyclic_weights(k), merged_quabla(an.cx.casimir_quabla(k))
        for w, idxs in an.cx.space(k).weight_blocks.items():
            full = rank_dense(quab.block(w)) == len(idxs)
            assert (w in acyclic) is full
            if full:
                assert ranks[w][0] == ranks[w][1]


@given(_certificate_cases())
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_blocks_outside_the_candidates_are_invertible(case):
    """Kostant's filter is exact.  On small random inputs, irreps and Kac
    modules alike, every quabla block outside candidate_weights(k) is
    invertible, judged by `_quabla_kernels` as the oracle.  The candidates
    are weights of C_k and hold every Casimir-matching one, which the int
    comparison finds as the Fraction Casimir values do."""
    p, an, k_max = _case_analysis(case)
    g = p.algebra
    target = casimir_eigenvalue(g, an.module.highest_weight)
    for k in range(k_max + 1):
        blocks, quab = an.cx.space(k).weight_blocks, an.quabla_map(k)
        matches, candidates = _casimir_matcher(an.cx), an.candidate_weights(k)
        casimir = {w for w in blocks if matches(w)}
        assert casimir == {w for w in blocks if casimir_eigenvalue(g, w) == target}
        assert casimir <= candidates <= blocks.keys()
        for w, idxs in blocks.items():
            if w not in candidates:
                assert _quabla_kernels(quab.rows(w), idxs) == ([], [])


@given(_certificate_cases(), st.sampled_from(["none", "scalar", "boundary"]),
       st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_casimir_parts_and_streamed_checks_match_whole_maps(case, perturb, seed):
    """On small random inputs, irreps and Kac modules alike, the Casimir
    parts' rows(w) are a positive multiple of the merged map's block at
    every weight of every degree.  The cross-check flags read one column at
    a time (`cli._internal_checks`) equal those of whole composed maps
    (`oracles.whole_map_checks`): on the analysis as built, where both
    hold, and with one scalar of the Casimir parts or one entry of one
    boundary shifted by 1."""
    p, an, k = _case_analysis(case)
    for j in range(k + 1):
        parts, merged = an.quabla_map(j), merged_quabla(an.cx.casimir_quabla(j))
        for w, idxs in an.cx.space(j).weight_blocks.items():
            got, exact = dense_rows(parts.rows(w), idxs), merged.block(w)
            c = next((Fraction(x, 1) / y for grow, erow in zip(got, exact)
                      for x, y in zip(grow, erow) if y), Fraction(1))
            assert c > 0 and got == [[c * y for y in row] for row in exact]
    an.boundary_above(k)
    want = (True, True)
    if perturb == "scalar" and k and an.quabla_map(seed % k).scalar:
        # a diagonal entry of one checked degree: only the quabla check fails
        parts = an.quabla_map(seed % k)
        w = sorted(parts.scalar, key=weight_key)[seed % len(parts.scalar)]
        parts.scalar[w] += 1
        want = (True, False)
    elif perturb == "boundary" and k:
        # an entry of d*_j at a row r with d*_{j-1} e_r != 0: d*_{j-1} d*_j
        # gains a nonzero column, and the quabla check may fail too
        pairs = [(an.cx.lower(j), an.cx.lower(j - 1)) for j in range(2, k + 1)]
        hits = [(m, j, r) for m, below in pairs + [(an.boundary_above(k), an.cx.lower(k))]
                for j in range(m.source.dim) for r in range(m.target.dim)
                if below.icols[r]]
        if hits:
            m, j, r = hits[seed % len(hits)]
            m.icols[j][r] = m.icols[j].get(r, 0) + 1
            if not m.icols[j][r]:
                del m.icols[j][r]
            want = (False, None)
    flags = _internal_checks(an, k)
    assert flags == whole_map_checks(an, k)
    assert flags[0] == want[0] and want[1] in (None, flags[1])


def test_quabla_kernels_run_at_the_candidates_alone(monkeypatch):
    """On gl(3|2) Borel with L(1,0,0|0,0) at k <= 4 (`borel-gl32-k4`), the
    quabla blocks are eliminated at the 107 candidate weights alone, of 890
    blocks, and exactly those 107 are not acyclic."""
    from superbgg import homology
    runs = []
    quabla_kernels = homology._quabla_kernels

    def spy(quab, dim):
        runs.append(dim)
        return quabla_kernels(quab, dim)
    monkeypatch.setattr(homology, "_quabla_kernels", spy)
    p = _parabolic("gl", 3, 2, ())
    an = KostantAnalysis(p, build_irrep(p.algebra, wt(1, 0, 0, 0, 0)), k_max=4)
    for k in range(5):
        an.homology(k)
    assert len(runs) == 107
    assert sum(len(an.candidate_weights(k)) for k in range(5)) == 107
    assert sum(len(an.cx.space(k).weight_blocks) - len(an.acyclic_weights(k))
               for k in range(5)) == 107
    assert sum(len(an.cx.space(k).weight_blocks) for k in range(5)) == 890


@pytest.mark.parametrize("optimize", [False, True])
def _corrupted_duals_code(corrupt: str) -> str:
    """A script that builds a KostantAnalysis on a Borel and on a Levi with
    root vectors, corrupts the dual basis of the radical as `corrupt` says
    and prints what block_data(0) raises ('accepted' if nothing)."""
    return (
        "import json\n"
        "from superbgg.algebra import build_algebra, build_parabolic, wt\n"
        "from superbgg.errors import CrossCheckFailed\n"
        "from superbgg.homology import KostantAnalysis\n"
        "from superbgg.modules import build_irrep\n"
        "out = []\n"
        "for args, levi, lam in ((('gl', 2, 1), [], (1, 0, 0)),\n"
        "                        (('osp', 4, 1), [1, 2], (1, 0, 0))):\n"
        "    g = build_algebra(*args)\n"
        "    an = KostantAnalysis(build_parabolic(g, levi), build_irrep(g, wt(*lam)), 2)\n"
        "    d = an.cx.duals\n"
        f"    if {corrupt!r} == 'swap':\n"
        "        an.cx.duals = [d[1]] + d[1:]\n"
        "    else:\n"
        "        an.cx.duals = [{i: 2 * c for i, c in d[0].items()}] + d[1:]\n"
        "    try:\n"
        "        an.block_data(0)\n"
        "        out.append('accepted')\n"
        "    except CrossCheckFailed as exc:\n"
        "        out.append(str(exc))\n"
        "print(json.dumps(out))\n"
    )


@pytest.mark.parametrize("optimize", [False, True])
def test_perturbed_h_fails_the_filter_premise(optimize):
    """The candidate filter rests on w(h) = (w, 2 rho_l - 2 rho), which the
    Casimir terms check once per complex.  With one dual of the radical
    doubled, h = sum [z_a, z_a^#] stays in the Cartan but moves off it, and
    block_data raises CrossCheckFailed naming that premise before any block
    is filtered, also under `python -O`, on a Borel and on a Levi with root
    vectors."""
    from test_cli import _run_script
    out = _run_script(_corrupted_duals_code("double"), optimize)
    assert len(out) == 2 and all(msg.startswith("w(h) is not (w, sigma)") for msg in out)


@pytest.mark.parametrize("optimize", [False, True])
def test_swapped_radical_dual_leaves_the_cartan(optimize):
    """With z_0^# replaced by z_1^#, h = sum [z_a, z_a^#] picks up the root
    vector [z_0, z_1^#], and the Casimir terms raise CrossCheckFailed
    before they read h, also under `python -O`, on a Borel and on a Levi
    with root vectors."""
    from test_cli import _run_script
    out = _run_script(_corrupted_duals_code("swap"), optimize)
    assert len(out) == 2 and all(
        msg.startswith("sum [z_a, z_a^#] is not in the Cartan") for msg in out)


@pytest.mark.parametrize("optimize", [False, True])
def test_corrupted_record_count_fails_the_basis_check(optimize):
    """A weight that is not its own l_0-dominant representative takes the
    representative's counts, and KostantAnalysis.basis checks the basis it
    eliminates there on first read against them: with the record's
    dim ker d*_1 raised by 1 it raises CrossCheckFailed, also under
    `python -O`, on the natural benchmark query."""
    from test_cli import _run_script
    code = (
        "import json\n"
        "from superbgg.algebra import build_algebra, build_parabolic, wt\n"
        "from superbgg.errors import CrossCheckFailed\n"
        "from superbgg.homology import KostantAnalysis\n"
        "from superbgg.modules import build_irrep\n"
        "g = build_algebra('osp', 5, 2)\n"
        "an = KostantAnalysis(build_parabolic(g, [1, 2, 3]), build_irrep(g, wt(1, 0, 0, 0)), 3)\n"
        "w, d = next((w, d) for w, d in an.block_data(1).items() if d.rep not in (None, w))\n"
        "d.dim_ker += 1\n"
        "try:\n"
        "    an.basis(1, w, 'ker')\n"
        "    print(json.dumps('accepted'))\n"
        "except CrossCheckFailed as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    )
    out = _run_script(code, optimize)
    assert out.startswith("the ker basis of degree 1 at ") and "another size than at" in out


def _top_block_counts(an) -> dict:
    """{weight: (acyclic, dim ker quabla, dim generalized zero space)} of
    block_data(k_max), which reads the Casimir quabla."""
    return {w: (d.acyclic, d.dim_ker_quabla, d.dim_gen_zero)
            for w, d in an.block_data(an.k_max).items()}


def _direct_top_block_counts(an) -> dict:
    """The same counts from the direct quabla d d* + d* d at k_max, by the
    oracle's ranks: the generalized zero space of an n x n block q is
    ker q^(2^j) for any 2^j >= n."""
    k = an.k_max
    direct = an.cx.quabla(k)
    out = {}
    for w, idxs in an.cx.space(k).weight_blocks.items():
        n, q = len(idxs), direct.block(w)
        power, exp = q, 1
        while exp < n:
            power, exp = oracle_map_product(power, power, n), 2 * exp
        kerq, gen_zero = n - rank_dense(q), n - rank_dense(power)
        out[w] = (not gen_zero, kerq, gen_zero)
    return out


@pytest.mark.parametrize("alg, levi, lam", [
    (("gl", 2, 1), (), (1, 0, 0)),
    (("gl", 2, 1), (0,), (2, 0, 0)),
    (("osp", 3, 1), (), (1, 0)),
])
def test_top_degree_blocks_match_direct_quabla(alg, levi, lam):
    """No in-run cross-check covers k_max, where block_data reads the
    Casimir quabla alone: its acyclic, ker quabla and generalized-zero
    counts there equal those of the direct quabla."""
    p = _parabolic(*alg, levi)
    an = KostantAnalysis(p, build_irrep(p.algebra, wt(*lam)), k_max=3)
    assert _top_block_counts(an) == _direct_top_block_counts(an)


@given(_certificate_cases())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_top_degree_blocks_match_direct_quabla_random(case):
    """The same on small random inputs, irreps and Kac modules alike."""
    _, an, k_max = _case_analysis(case)
    assert _top_block_counts(an) == _direct_top_block_counts(an)


def _top_boundary_reads(an) -> tuple:
    """Check the restricted d*_{k_max+1} that block_data(k_max) reads
    against cx.lower(k_max + 1), built after it on the same complex: at
    every weight read, the same exact block, its columns the same chain
    monomials, and the same int block wherever the two dens agree.  Each
    den is canonical over its own columns, so a map with fewer columns can
    have a smaller one (an empty map has den 1); the int blocks are then
    proportional, with the same pivots and spans.  Returns (number of
    weights read, whether the dens agree)."""
    k = an.k_max
    top = an.boundary_above(k)
    reads = [w for w, d in an.block_data(k).items() if not d.acyclic]
    full = an.cx.lower(k + 1)
    assert top.target is full.target is an.cx.space(k)
    assert full.den % top.den == 0
    src, whole = top.source, full.source
    held, every = chain_basis(src), chain_basis(whole)
    for w in reads:
        assert top.block(w) == full.block(w)
        if top.den == full.den:
            assert top.int_block(w) == full.int_block(w)
        assert ([held[i] for i in src.weight_blocks.get(w, [])]
                == [every[i] for i in whole.weight_blocks.get(w, [])])
    return len(reads), top.den == full.den


@pytest.mark.parametrize("alg, levi, lam, k_max", [
    (("osp", 5, 2), (1, 2, 3), (1, 0, 0, 0), 3),   # natural-osp54-k3
    (("gl", 3, 2), (), (1, 0, 0, 0, 0), 4),         # borel-gl32-k4
])
def test_top_boundary_matches_full_boundary_on_benchmark_queries(alg, levi, lam, k_max):
    """On both benchmark queries the restricted top boundary is a proper
    part of d*_{k_max+1} and has its int blocks, over the same den, at
    every weight read."""
    p = _parabolic(*alg, levi)
    an = KostantAnalysis(p, build_irrep(p.algebra, wt(*lam)), k_max=k_max)
    reads, same_den = _top_boundary_reads(an)
    assert reads and same_den
    assert an.boundary_above(k_max).source.dim < an.cx.space(k_max + 1).dim


@given(_certificate_cases())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_top_boundary_matches_full_boundary_random(case):
    """The same on small random inputs, irreps and Kac modules alike, where
    H_k = ker quabla_k holds and where it fails."""
    _, an, k_max = _case_analysis(case)
    _top_boundary_reads(an)


@pytest.mark.parametrize("levi, lam, twice", [
    ((1,), (1, 0, 0), 0), ((0,), (2, 0, 0), 0), ((1,), (0, 0, -1), 2)])
def test_operator_blocks_eliminated_once_per_non_acyclic_reader(
        gl21, levi, lam, twice, monkeypatch):
    """Through homology(0..k_max) and the predicate summary, a block of
    d*_k at w is eliminated once for each of its readers at a dominant
    non-acyclic weight (the only ones block_data and the predicates
    eliminate at): block_data(k) (its kernel) when w is such a weight at
    k, and block_data(k - 1) (its image) when w is one at k - 1.  A block
    of d_k likewise, for predicates(k) and, when k + 1 < k_max,
    predicates(k + 1).  That is fewer than every block.  On gl(2|1) with
    Levi {1} some blocks of d* are eliminated for their image alone, with
    Levi {0} some blocks of d; with Levi {1} and L(0,0|-1) two blocks
    have both readers at non-acyclic weights and are eliminated twice.
    Past the window the image reader is d*_{k_max+1} restricted to the
    non-acyclic weights of C_k_max (`boundary_above`), read at each
    dominant one once."""
    k_max = 3
    an = KostantAnalysis(build_parabolic(gl21, list(levi)),
                         build_irrep(gl21, wt(*lam)), k_max=k_max)
    seen, alive = [], []
    rows = ChainMap.rows

    def spy(self, w):
        seen.append((id(self), w))
        alive.append(self)          # no later map reuses the id of a freed one
        return rows(self, w)

    monkeypatch.setattr(ChainMap, "rows", spy)
    for k in range(k_max + 1):
        an.homology(k)
    an.predicate_summary()
    cx = an.cx
    hot = {k: {w for w, d in an.block_data(k).items() if d.rep == w}
           for k in range(k_max + 1)}
    hot[-1] = hot[k_max + 1] = set()
    want = []
    for k in range(k_max + 2):
        m = cx.lower(k) if k <= k_max else an.boundary_above(k_max)
        for readers in (hot[k], hot[k - 1]):
            want += [(id(m), w) for w in readers if w in m.source.weight_blocks]
    for k in range(k_max):
        m = cx.raise_(k)
        for readers in (hot[k], hot[k + 1] if k + 1 < k_max else set()):
            want += [(id(m), w) for w in readers if w in m.source.weight_blocks]
    operators = {m for m, _ in want}
    got = [key for key in seen if key[0] in operators]
    assert sorted(got, key=str) == sorted(want, key=str)
    assert len(got) - len(set(got)) == twice
    every = sum(len(cx.space(k).weight_blocks) for k in range(k_max + 2)) \
        + sum(len(cx.space(k).weight_blocks) for k in range(k_max))
    assert len(got) < every


def _statement_calls(monkeypatch, an, k_max, answer=None) -> list:
    """The second arguments of every linalg.spans_meet call made by
    _lower_statements(0..k_max); `answer(cols_b)` replaces the outcome."""
    seen = []
    spans_meet = linalg.spans_meet

    def spy(cols_a, cols_b):
        seen.append(cols_b)
        return spans_meet(cols_a, cols_b) if answer is None else answer(cols_b)
    monkeypatch.setattr(linalg, "spans_meet", spy)
    for k in range(k_max + 1):
        an._lower_statements(k)
    return seen


def test_statement_two_reuses_one_where_the_bases_agree(gl21, monkeypatch):
    """Statements (1) and (2) test im d*_{k+1} against ker quabla and
    against the generalized zero space.  Where a block's two bases are
    the same, (2) takes the outcome of (1); where they differ, as at
    degree 1 of gl(2|1) with Levi {1} and L(0,0|-1), it runs its own test."""
    k_max = 2
    an = KostantAnalysis(build_parabolic(gl21, [1]), build_irrep(gl21, wt(0, 0, -1)),
                         k_max=k_max)
    seen = _statement_calls(monkeypatch, an, k_max)
    want, differ = [], 0
    for k in range(k_max + 1):
        for d in an.block_data(k).values():
            if not d.acyclic:
                want.append(d.ker_quabla)
                if d.gen_zero != d.ker_quabla:
                    want.append(d.gen_zero)
                    differ += 1
    assert differ and len(want) > differ
    assert sorted(map(str, seen)) == sorted(map(str, want))


def test_statement_consistency_can_fail_where_the_bases_differ(gl21, monkeypatch):
    """The (1)<->(2) flag still compares two rank tests where the bases
    differ: with spans_meet made to answer True for a generalized zero
    basis alone, (2) fails while (1) holds, and predicates(1) reports the
    pair inconsistent."""
    an = KostantAnalysis(build_parabolic(gl21, [1]), build_irrep(gl21, wt(0, 0, -1)),
                         k_max=2)
    gen_zero = [id(d.gen_zero) for d in an.block_data(1).values()
                if d.gen_zero != d.ker_quabla]
    assert gen_zero
    _statement_calls(monkeypatch, an, 1, lambda cols_b: id(cols_b) in gen_zero)
    vals = an._lower_statements(1)
    assert vals[1] and not vals[2]
    assert not an.predicates(1).consistent


def _acyclic_probe(an, k):
    """(w, cycle, non-cycle) at the first acyclic weight w of C_k where d*_k
    is nonzero: a column of d*_{k+1} landing at w, and a unit vector that
    d*_k does not kill."""
    lower, upper = an.cx.lower(k), an.cx.lower(k + 1)
    blocks = an.cx.space(k).weight_blocks
    for w in sorted(an.acyclic_weights(k), key=weight_key):
        bad = next(({i: 1} for i in blocks[w] if lower.icols[i]), None)
        good = next((col for j in an.cx.space(k + 1).weight_blocks.get(w, [])
                     if (col := upper.icols[j])), None)
        if bad and good:
            return w, good, bad
    raise AssertionError("no acyclic weight with a nonzero d*_k")


def test_quotient_express_certifies_cycles_at_acyclic_weights(gl21_borel, gl21_natural):
    """At an acyclic weight the homology quotient holds no K or I basis:
    `express` returns the zero class of a cycle, forms no RREF of I, and
    raises LeviNotClosed on a non-cycle or on a column that leaves the
    block."""
    an = KostantAnalysis(gl21_borel, gl21_natural, k_max=2)
    mod = an.homology_quotient_module(1)
    assert mod.acyclic == an.acyclic_weights(1)
    w, good, bad = _acyclic_probe(an, 1)
    assert w not in mod.ker and w not in mod.im
    assert mod.express(w, [good, {}]) == [{}, {}]
    with pytest.raises(LeviNotClosed, match="not stable"):
        mod.express(w, [good, bad])
    other = next(i for v, idxs in an.cx.space(1).weight_blocks.items()
                 if v != w for i in idxs)
    with pytest.raises(LeviNotClosed, match="leaves"):
        mod.express(w, [{**good, other: 1}])
    assert mod._im_rows == {}


def test_quotient_rejects_a_non_cycle_at_an_acyclic_weight_under_O():
    """The cycle test of LeviModule.express is a typed error, so `python -O`
    keeps it: at an acyclic weight, and where decompose_levi meets an
    image outside K on a homology quotient (`_corrupted_quotient`)."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from superbgg.algebra import build_algebra, build_parabolic, weight_key, wt\n"
        "from superbgg.errors import LeviNotClosed\n"
        "from superbgg.homology import KostantAnalysis\n"
        "from superbgg.modules import build_irrep\n"
        "g = build_algebra('gl', 2, 1)\n"
        "an = KostantAnalysis(build_parabolic(g, []), build_irrep(g, wt(1, 0, 0)), 2)\n"
        "mod = an.homology_quotient_module(1)\n"
        "lower, blocks = an.cx.lower(1), an.cx.space(1).weight_blocks\n"
        "w, i = next((w, i) for w in sorted(mod.acyclic, key=weight_key)\n"
        "            for i in blocks[w] if lower.icols[i])\n"
        "try:\n"
        "    mod.express(w, [{i: 1}])\n"
        "except LeviNotClosed:\n"
        "    print('rejected')\n"
        "from superbgg.homology import decompose_levi\n"
        "from test_homology import _corrupted_quotient\n"
        "try:\n"
        "    decompose_levi(*_corrupted_quotient())\n"
        "except LeviNotClosed:\n"
        "    print('rejected')\n"
    )
    tests = Path(__file__).resolve().parent
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=120, env=dict(
                             os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)])))
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["rejected", "rejected"]


# ---------------------------------------------------------------------------
# the even-Levi Weyl orbits
# ---------------------------------------------------------------------------

def _matches_every_weight_oracle(p, an, k) -> int:
    """Assert that the orbit-reduced block layer of degrees 0..k equals the
    every-weight oracle at every weight: the counts and acyclic flags of
    block_data, the bases read on demand (`KostantAnalysis.basis`),
    statements (1)-(7), homology(j) and both decompositions.  Returns the
    number of non-acyclic weights that took the counts of another one."""
    mapped = 0
    for j in range(k + 1):
        full, data = every_weight_blocks(an, j), an.block_data(j)
        blocks = an.cx.space(j).weight_blocks
        assert list(data) == list(full)
        for w, d in data.items():
            f = full[w]
            assert (d.n, d.acyclic, d.dim_ker_quabla, d.dim_gen_zero, d.dim_ker,
                    d.dim_im) == (len(blocks[w]), f["acyclic"], len(f["ker_quabla"]),
                                  len(f["gen_zero"]), len(f["ker"]), len(f["im"]))
            if not d.acyclic:
                mapped += d.rep != w
                for name in ("ker", "im", "ker_quabla", "gen_zero"):
                    assert an.basis(j, w, name) == f[name]
        assert {**an._lower_statements(j), **an.predicates(j).values} == \
            every_weight_statements(an, j)
        rep = an.homology(j)
        assert (rep.dim_ker_boundary, rep.dim_im_boundary_above) == (
            sum(len(f["ker"]) for f in full.values()),
            sum(len(f["im"]) for f in full.values()))
        assert rep.weight_multiplicities == {
            w: h for w, f in full.items() if (h := len(f["ker"]) - len(f["im"]))}
        quotient = coordinate_decomposition(p, homology_quotient(an, j))
        assert decompose_levi(p, an.homology_quotient_module(j)) == quotient
        assert an.homology_decomposition(j) == quotient
        assert an.ker_quabla_decomposition(j) == \
            coordinate_decomposition(p, ker_quabla(an, j))
    return mapped


@given(_certificate_cases())
@example((("gl", 2, 2), (0, 2), (1, 0, 0, 0), False, 2))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_orbit_reduced_block_layer_matches_every_weight_oracle(case):
    """On small random inputs, irreps and Kac modules alike, the block layer
    that eliminates at l_0-dominant weights alone equals the every-weight
    oracle at every weight of every degree (`_matches_every_weight_oracle`);
    the explicit example, gl(2|2) with Levi gl(2)+gl(2), is one where W(l_0)
    is S_2 x S_2."""
    p, an, k = _case_analysis(case)
    _matches_every_weight_oracle(p, an, k)


@pytest.mark.parametrize("alg, levi, lam, k", [
    (("gl", 2, 1), (0,), (2, 0, 0), 2),
    (("osp", 3, 1), (0, 1), (1, 0), 2),
    (("osp", 4, 1), (1, 2), (1, 0, 0), 2),
])
def test_orbit_reduced_block_layer_maps_weights(alg, levi, lam, k):
    """The same on Levis with a nontrivial W(l_0), where some non-acyclic
    weights take the counts of their representatives."""
    p = _parabolic(*alg, levi)
    an = KostantAnalysis(p, build_irrep(p.algebra, wt(*lam)), k_max=k)
    assert _matches_every_weight_oracle(p, an, k) > 0


@pytest.mark.parametrize("alg, levi", [
    (("gl", 2, 1), ()), (("gl", 2, 1), (0,)), (("gl", 2, 2), (0, 1, 2)),
    (("osp", 3, 1), (0, 1)), (("osp", 4, 1), (1, 2)), (("osp", 5, 2), (1, 2, 3)),
])
def test_levi_even_simple_roots_need_no_levi_algebra(alg, levi):
    """The simple roots of l_0 the orbit map reflects in, read off the
    Levi's basis indices, are those of the built Levi subalgebra."""
    p = _parabolic(*alg, levi)
    assert even_simple_roots(p.algebra, p.levi_indices) == \
        even_simple_roots(p.levi_algebra())


def _work_counts(monkeypatch, alg, levi, lam, k_max, command) -> dict:
    """Calls of the block layer's per-weight routines through one
    CLI-shaped run: homology and decompositions of every degree, and the
    predicate summary for "bgg"."""
    from superbgg import homology
    counts = dict.fromkeys(("_quabla_kernels", "_highest_weight_vectors"), 0)
    for name in counts:
        real = getattr(homology, name)

        def spy(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(homology, name, spy)
    p = _parabolic(*alg, levi)
    an = KostantAnalysis(p, build_irrep(p.algebra, wt(*lam)), k_max=k_max)
    for k in range(k_max + 1):
        an.homology(k)
        an.homology_decomposition(k)
        if command == "bgg":
            an.ker_quabla_decomposition(k)
    an.predicate_summary()
    return counts


def test_work_counts_on_the_benchmark_queries(monkeypatch):
    """On `natural-osp54-k3` (W(l_0) = W(B1) x W(C2)) the quabla blocks are
    eliminated at the 50 dominant candidates of 274 and the highest weights
    searched at 9 dominant weights of 19; on `borel-gl32-k4`, where W(l_0)
    is trivial, they stay at 107 and 50."""
    natural = _work_counts(monkeypatch, ("osp", 5, 2), (1, 2, 3), (1, 0, 0, 0), 3, "bgg")
    assert natural == {"_quabla_kernels": 50, "_highest_weight_vectors": 9}
    borel = _work_counts(monkeypatch, ("gl", 3, 2), (), (1, 0, 0, 0, 0), 4, "homology")
    assert (borel["_quabla_kernels"], borel["_highest_weight_vectors"]) == (107, 50)


@pytest.mark.parametrize("optimize", [False, True])
def test_corrupted_coroot_fails_the_orbit_certificate(optimize):
    """The orbit map checks that each representative is a weight of C_k of
    the same multiplicity: with one coroot row of l_0 negated, a walk
    leaves the weights of C_k and block_data raises CrossCheckFailed, also
    under `python -O`, on the natural benchmark query."""
    from test_cli import _run_script
    code = (
        "import json\n"
        "from superbgg.algebra import build_algebra, build_parabolic, wt\n"
        "from superbgg.errors import CrossCheckFailed\n"
        "from superbgg.homology import KostantAnalysis\n"
        "from superbgg.modules import build_irrep\n"
        "g = build_algebra('osp', 5, 2)\n"
        "an = KostantAnalysis(build_parabolic(g, [1, 2, 3]), build_irrep(g, wt(1, 0, 0, 0)), 3)\n"
        "a, row, norm = an._coroots[0]\n"
        "an._coroots[0] = (a, [(c, -x) for c, x in row], norm)\n"
        "try:\n"
        "    an.homology(3)\n"
        "    print(json.dumps('accepted'))\n"
        "except CrossCheckFailed as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    )
    assert "leaves the weights" in _run_script(code, optimize)
