"""Acceptance suite.

Each test covers one numbered criterion, asserts it at exact equality, and
prints one pass/fail line (run pytest with -s to see the lines).  Shared
heavyweight objects are built once per module.
"""

import time
from contextlib import contextmanager

import pytest

from oracles import (
    build_gl_nn,
    dual_module,
    euler_check,
    is_block_diagonal,
    ker_quabla,
    merged_quabla,
    occurrence_bound,
    opposite,
    oracle_homology_dims,
    same_map,
)
from superbgg import linalg
from superbgg.algebra import (
    build_adjoint_operation,
    build_algebra,
    build_parabolic,
    check_star_condition,
    wt,
)
from superbgg.bgg import bgg_verdict, kac_resolution, natural_resolution_shape
from superbgg.chains import ChainComplex
from superbgg.homology import KostantAnalysis
from superbgg.modules import build_irrep, build_kac_module


@contextmanager
def criterion(num, name):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {name}: FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"[criterion {num:2d}] {name}: PASS ({time.time() - t0:.1f}s)")


@pytest.fixture(scope="module")
def scenarios():
    """The named scenario list of criterion 1, with both chain sides."""
    out = {}
    g = build_algebra("gl", 2, 1)
    out["gl21-borel-natural"] = (g, build_parabolic(g, []),
                                 build_irrep(g, wt(1, 0, 0)))
    g = build_algebra("gl", 1, 2)
    out["gl12-lh-natural"] = (g, build_parabolic(g, []),
                              build_irrep(g, wt(1, 0, 0)))
    g = build_algebra("osp", 1, 1)
    p = build_parabolic(g, [])
    out["osp12-borel-l1"] = (g, p, build_irrep(g, wt(1)))
    out["osp12-borel-l2"] = (g, p, build_irrep(g, wt(2)))
    g = build_algebra("osp", 4, 3)
    out["osp46-sec7-natural"] = (g, build_parabolic(g, [1, 2, 3, 4]),
                                 build_irrep(g, wt(1, 0, 0, 0, 0)))
    return out


@pytest.fixture(scope="module")
def complexes(scenarios):
    """Per scenario: the n-side complex of V (the nbar side of the opposite
    parabolic) and the nbar-side of V*."""
    out = {}
    for name, (g, p, v) in scenarios.items():
        out[name] = (ChainComplex(opposite(p), v), ChainComplex(p, dual_module(v)))
    return out


@pytest.fixture(scope="module")
def analyses(scenarios):
    """nbar-side Kostant analysis of each scenario module itself."""
    out = {}
    for name, (g, p, v) in scenarios.items():
        k_max = 3 if name.startswith("osp46") else 4
        out[name] = KostantAnalysis(p, v, k_max=k_max)
    return out


def test_criterion_1_nilpotency(complexes):
    with criterion(1, "nilpotency of all four operators, k <= 4"):
        t0 = time.time()
        for name, (cn, cb) in complexes.items():
            for cx in (cn, cb):
                for k in range(0, 5):
                    if k >= 2:
                        assert not any(cx.lower(k - 1).compose(cx.lower(k)).icols), \
                            (name, "lower", k)
                    assert not any(cx.raise_(k + 1).compose(cx.raise_(k)).icols), \
                        (name, "raise", k)
        assert time.time() - t0 <= 120


def test_criterion_2_quabla_cross_check(complexes):
    with criterion(2, "quabla direct equals casimir, commutes with the Levi"):
        for name, (cn, cb) in complexes.items():
            p = cn.parabolic
            for cx in (cn, cb):
                for k in range(0, 4):
                    qd = cx.quabla(k)
                    assert same_map(qd, merged_quabla(cx.casimir_quabla(k))), (name, k)
                    assert is_block_diagonal(qd)
                    for i in p.levi_indices:
                        amap = cx.action_map(k, i)
                        assert same_map(qd.compose(amap), amap.compose(qd)), (name, k, i)


def test_criterion_3_osp12_counterexample():
    with criterion(3, "osp(1|2) counterexample for lambda in {1,2,3}"):
        g = build_algebra("osp", 1, 1)
        p = build_parabolic(g, [])
        for lam in (1, 2, 3):
            an = KostantAnalysis(p, build_irrep(g, wt(lam)), k_max=5)
            assert an.homology(0).weight_multiplicities == {wt(lam): 1}
            assert an.homology(1).weight_multiplicities == {wt(-lam - 1): 1}
            for k in range(2, 5):
                assert an.homology(k).homology_dimension == 0
            assert ker_quabla(an, 1).dim > an.homology(1).homology_dimension


def test_criterion_4_glmn_borel_example(analyses):
    with criterion(4, "H^0(n,W) iso ker quabla_0 iff m >= n on gl(m|n)"):
        for name, expect in (("gl21-borel-natural", True),
                             ("gl12-lh-natural", False)):
            an = analyses[name]
            cx = an.cx
            coh0 = {}
            for w, idxs in cx.space(0).weight_blocks.items():
                blk = cx.raise_(0).block(w)
                ker = len(idxs) - (linalg.rank(blk) if blk else 0)
                if ker:
                    coh0[w] = ker
            assert (coh0 == ker_quabla(an, 0).weight_dims()) is expect, name


def test_criterion_5_natural_resolution(scenarios):
    with criterion(5, "osp(4|6) natural-module resolution shape and verdict"):
        t0 = time.time()
        g, p, _v = scenarios["osp46-sec7-natural"]
        verdict = bgg_verdict(g, p, wt(1, 0, 0, 0, 0), 3)
        assert verdict.status == "Exists"
        assert verdict.basis_of_decision == "MultiplicityCriterion"
        assert verdict.shape.degrees == natural_resolution_shape(4, 3, 3).degrees
        for deg in verdict.shape.degrees:
            assert all(m == 1 for _w, m in deg)
        assert time.time() - t0 <= 600


def test_criterion_6_forlapl():
    with criterion(6, "osp(4|6) adjoint module: ker quabla_1 = M(2 eps2)"):
        g = build_algebra("osp", 4, 3)
        p = build_parabolic(g, [1, 2, 3, 4])
        mod = build_irrep(g, wt(1, 1, 0, 0, 0))
        assert mod.dim == 51
        an = KostantAnalysis(p, mod, k_max=2)
        dec = an.ker_quabla_decomposition(1)
        assert [(e.highest_weight, e.hw_vector_count) for e in dec.entries] \
            == [(wt(0, 2, 0, 0, 0), 1)]
        assert dec.completely_reducible


def test_criterion_7_kac_resolution():
    with criterion(7, "Kac-module resolution of gl(2|1), l = h"):
        g = build_algebra("gl", 2, 1)
        p = build_parabolic(g, [])
        lam = wt(1, 0, 0)
        shape = kac_resolution(g, p, lam)
        # independent dot-action oracle: s(lam + rho) - rho for the single
        # even reflection of gl(2|1)
        rho = g.rho
        shifted = tuple(a + b for a, b in zip(lam, rho))
        swapped = (shifted[1], shifted[0], shifted[2])
        s_dot_lam = tuple(a - b for a, b in zip(swapped, rho))
        assert s_dot_lam == wt(-1, 2, 0)
        assert shape.degrees == [[(lam, 1)], [(s_dot_lam, 1)]]
        kac = build_kac_module(g, lam)
        an = KostantAnalysis(p, kac, k_max=5)
        assert an.homology(0).weight_multiplicities == {lam: 1}
        assert an.homology(1).weight_multiplicities == {s_dot_lam: 1}
        for k in range(2, 5):
            assert an.homology(k).homology_dimension == 0


def test_criterion_8_star_condition():
    with criterion(8, "star condition across types, normalizations, parabolics"):
        g1 = build_algebra("gl", 2, 1, C=1)
        assert check_star_condition(g1, build_parabolic(g1, []),
                                    build_adjoint_operation(g1, 1))
        gm = build_algebra("gl", 2, 1, C=-1)
        # the type (2) condition needs the parabolic containing gl(m)
        assert check_star_condition(gm, build_parabolic(gm, [0]),
                                    build_adjoint_operation(gm, 2))
        # with the Borel it fails for every normalization: E12 forces C = 1
        # while the odd generators force C = -1
        assert not check_star_condition(gm, build_parabolic(gm, []),
                                        build_adjoint_operation(gm, 2))
        assert not check_star_condition(g1, build_parabolic(g1, []),
                                        build_adjoint_operation(g1, 2))
        g12 = build_algebra("gl", 1, 2)
        assert not check_star_condition(g12, build_parabolic(g12, []),
                                        build_adjoint_operation(g12, 1))


def test_criterion_9_predicate_consistency(analyses):
    with criterion(9, "the seven disjointness statements agree on every scenario"):
        for name, an in analyses.items():
            summ = an.predicate_summary()
            assert summ["consistent"], (name, summ["global"])
            for rep in summ["per_degree"]:
                assert rep.consistent, (name, rep.degree)


def test_criterion_10_euler_characteristic(analyses):
    with criterion(10, "Euler characteristic per weight inside the window"):
        total = 0
        for name, an in analyses.items():
            mus = set()
            for k in range(an.k_max + 1):
                mus.update(an.cx.space(k).weight_blocks)
            for mu in sorted(mus, key=lambda t: tuple(map(str, t))):
                bound = occurrence_bound(an, mu)
                if bound is not None and bound <= an.k_max:
                    assert euler_check(an, mu), (name, mu)
                    total += 1
        assert total >= 10


def test_criterion_11_oracle_equivalence():
    with criterion(11, "normal-form homology equals brute-force tensor oracle"):
        cases = [
            (build_gl_nn(1), (1, 0)),
            (build_algebra("gl", 2, 1), (1, 0, 0)),
            (build_algebra("osp", 1, 1), (1,)),
        ]
        for g, lam in cases:
            p = build_parabolic(g, [])
            mod = build_irrep(g, lam)
            an = KostantAnalysis(p, mod, k_max=4)
            mine = [an.homology(k).weight_multiplicities for k in range(4)]
            assert mine == oracle_homology_dims(p, mod, 3), g.name
