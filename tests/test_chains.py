import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chain_pairing import ChainForm, ChainPairing
from oracles import (
    build_gl_nn,
    chain_basis,
    dual_module,
    fraction_columns,
    identity,
    is_block_diagonal,
    map_from_columns,
    merged_quabla,
    opposite,
    oracle_action,
    oracle_boundary,
    oracle_casimir_quabla,
    oracle_coboundary,
    oracle_map_combination,
    oracle_map_product,
    oracle_wedge,
    same_map,
)
from superbgg import linalg
from superbgg.algebra import build_algebra, build_parabolic, wt
from superbgg.chains import ChainComplex, ChainSpace
from superbgg.modules import build_irrep

F = Fraction
F0, F1 = Fraction(0), Fraction(1)


def multichoose(n, k):
    return math.comb(n + k - 1, k) if k >= 0 else 0


def expected_dim(n_even, n_odd, k, dim_v):
    return sum(math.comb(n_even, j) * multichoose(n_odd, k - j)
               for j in range(0, k + 1)) * dim_v


@pytest.fixture(scope="module")
def gl21_setup(gl21, gl21_borel, gl21_natural):
    v = gl21_natural
    return gl21, gl21_borel, v, dual_module(v)


def test_chain_space_dims(gl21_setup, osp46, osp46_sec7, osp46_natural):
    g, p, v, vd = gl21_setup
    cx = ChainComplex(opposite(p), v)
    assert cx.space(2).dim == 15
    assert cx.space(0).dim == v.dim
    with pytest.raises(ValueError):
        cx.space(-1)
    sp3 = ChainComplex(opposite(osp46_sec7), osp46_natural).space(3)
    assert sp3.dim == 1040


def test_chain_space_dim_formula(gl21_setup):
    g, p, v, _ = gl21_setup
    cx = ChainComplex(opposite(p), v)
    ne, no = len(cx.even_gens), len(cx.odd_gens)
    for k in range(6):
        assert cx.space(k).dim == expected_dim(ne, no, k, v.dim)


def test_basis_weight_parity_consistency(gl21_setup):
    g, p, v, _ = gl21_setup
    sp = ChainComplex(opposite(p), v).space(3)
    basis = chain_basis(sp)
    assert len(basis) == sp.dim == len(set(basis))
    for t, (ev, od, m) in enumerate(basis):
        w = v.weights[m]
        for i in ev + od:
            w = tuple(a + b for a, b in zip(w, g.root(i)))
        assert sp.weights[t] == w
        assert all(i in p.n_indices for i in ev + od)
        assert not any(g.parity(i) for i in ev) and all(g.parity(i) for i in od)
        assert list(ev) == sorted(set(ev))
        assert list(od) == sorted(od)


def scenarios():
    out = []
    g1 = build_algebra("gl", 2, 1)
    out.append((g1, build_parabolic(g1, []), build_irrep(g1, wt(1, 0, 0))))
    g2 = build_algebra("gl", 1, 2)
    out.append((g2, build_parabolic(g2, []), build_irrep(g2, wt(1, 0, 0))))
    g3 = build_algebra("osp", 1, 1)
    out.append((g3, build_parabolic(g3, []), build_irrep(g3, wt(1))))
    return out


@pytest.mark.parametrize("idx", [0, 1, 2])
def test_nilpotency_both_sides(idx):
    g, p, v = scenarios()[idx]
    vd = dual_module(v)
    for cx in (ChainComplex(opposite(p), v), ChainComplex(p, vd)):
        for k in range(2, 5):
            assert not any(cx.lower(k - 1).compose(cx.lower(k)).icols)
        for k in range(0, 4):
            assert not any(cx.raise_(k + 1).compose(cx.raise_(k)).icols)


def test_boundary_zero_at_degree_zero(gl21_setup):
    g, p, v, _ = gl21_setup
    assert not any(ChainComplex(opposite(p), v).lower(0).icols)


def test_block_diagonality_and_global_assembly(gl21_setup):
    g, p, v, _ = gl21_setup
    cx = ChainComplex(opposite(p), v)
    for k in range(0, 4):
        low, up = cx.lower(k), cx.raise_(k)
        assert is_block_diagonal(low) and is_block_diagonal(up)
        # reassembling the global matrix from its weight blocks is lossless
        sp = cx.space(k)
        tgt = cx.space(k + 1)
        rebuilt = [dict() for _ in range(sp.dim)]
        for w, cols_idx in sp.weight_blocks.items():
            rows_idx = tgt.weight_blocks.get(w, [])
            blk = up.block(w)
            for cj, j in enumerate(cols_idx):
                for ri, r in enumerate(rows_idx):
                    if blk[ri][cj]:
                        rebuilt[j][r] = blk[ri][cj]
        assert rebuilt == fraction_columns(up)


def _element(g, word, mi):
    """The chain monomial of a sorted oracle word (x) v_mi."""
    return (tuple(i for i in word if not g.parity(i)),
            tuple(i for i in word if g.parity(i)), mi)


def _oracle_map(cx, k, k_dst, oracle):
    """ChainMap of the per-monomial oracle images of C_k in C_{k_dst}."""
    g, tgt = cx.algebra, cx.space(k_dst)
    index = {e: t for t, e in enumerate(chain_basis(tgt))}
    cols = []
    for ev, od, m in chain_basis(cx.space(k)):
        img = oracle(cx.parabolic, cx.module, ev + od, m)
        cols.append({index[_element(g, word, mi)]: c for (word, mi), c in img.items()})
    return map_from_columns(cx.space(k), tgt, cols)


def _oracle_cases(gl21_setup, osp54_drop0):
    """Complexes for the oracle comparisons: gl(2|1) on both sides (the n
    side as the nbar side of the opposite parabolic), osp(3|2) (a
    coboundary with denominator 2) and the osp(5|4) natural module on its
    drop-0 parabolic (dim M = 9, a Levi with odd roots)."""
    g, p, v, vd = gl21_setup
    g32 = build_algebra("osp", 3, 1)
    p32 = build_parabolic(g32, [])
    _, p54, v54 = osp54_drop0
    return [ChainComplex(opposite(p), v), ChainComplex(p, vd),
            ChainComplex(p32, build_irrep(g32, wt(1, 0))),
            ChainComplex(p54, v54)]


def test_operators_match_per_monomial_oracles(gl21_setup, osp54_drop0):
    """lower(k) and raise_(k), assembled from exterior tables built degree
    by degree, equal the per-monomial recursions of the oracle exactly."""
    cases = _oracle_cases(gl21_setup, osp54_drop0)
    for cx in cases:
        for k in range(4):
            assert same_map(cx.lower(k), _oracle_map(cx, k, max(k - 1, 0), oracle_boundary))
            assert same_map(cx.raise_(k), _oracle_map(cx, k, k + 1, oracle_coboundary))
    assert any(cases[2].raise_(k).den > 1 for k in range(4))
    assert cases[3].module.dim == 9


def test_restricted_boundary_matches_oracle(gl21_setup, osp54_drop0):
    """lower_at(k, W), d*_k on the weight blocks W of C_k, has the oracle's
    columns at those weights and no other column: its source is exactly
    those blocks and lists their chain monomials.  It leaves no trace: a
    lower(k) built after it on the same complex still equals the
    oracle."""
    for cx in _oracle_cases(gl21_setup, osp54_drop0):
        for k in range(1, 4):
            weights = sorted(ChainComplex(cx.parabolic, cx.module)
                             .space(k).weight_blocks, key=str)[::2]
            part = cx.lower_at(k, weights)
            assert part.target is cx.space(k - 1)
            assert k not in cx._spaces and k not in cx._lower
            oracle = _oracle_map(cx, k, k - 1, oracle_boundary)
            src = part.source
            assert set(src.weight_blocks) == set(weights)
            assert src.dim == sum(len(oracle.source.weight_blocks[w]) for w in weights)
            held, whole = chain_basis(src), chain_basis(oracle.source)
            for w in weights:
                idxs = oracle.source.weight_blocks[w]
                assert part.block(w) == oracle.block(w)
                assert [held[i] for i in src.weight_blocks[w]] == [whole[i] for i in idxs]
            assert same_map(cx.lower(k), _oracle_map(cx, k, k - 1, oracle_boundary))


def test_action_maps_match_oracle(gl21_setup, osp54_drop0):
    """action_map(k, i) equals the tensor-word action for every basis
    element of the algebra, Levi or not, on both sides."""
    for cx in _oracle_cases(gl21_setup, osp54_drop0):
        g = cx.algebra
        for k in range(3):
            sp = cx.space(k)
            basis = chain_basis(sp)
            index = {e: t for t, e in enumerate(basis)}
            for i in range(g.dim):
                cols = [{index[_element(g, word, mi)]: c
                         for (word, mi), c in oracle_action(
                             cx.parabolic, cx.module, i, ev + od, m).items()}
                        for ev, od, m in basis]
                assert same_map(cx.action_map(k, i), map_from_columns(sp, sp, cols))


@given(seed=st.integers(0, 2**16))
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
def test_action_columns_are_the_action_map_up_to_one_scalar(gl21_setup, osp54_drop0,
                                                            seed):
    """action_columns(k, i), read in any order, forms int columns that are
    action_map(k, i)'s times one positive int per (k, i), den / map den,
    for every basis element on both sides: the columns formed on first
    read and the canonical map are one routine."""
    order = random.Random(seed)
    for cx in _oracle_cases(gl21_setup, osp54_drop0):
        for k in range(3):
            dim = cx.space(k).dim
            for i in range(cx.algebra.dim):
                cols, amap = cx.action_columns(k, i), cx.action_map(k, i)
                scale, rest = divmod(cols.den, amap.den)
                assert rest == 0 and scale > 0
                js = list(range(dim))
                order.shuffle(js)
                for j in js:
                    col = cols[j]
                    assert all(type(v) is int for v in col.values())
                    assert col == {r: scale * v for r, v in amap.icols[j].items()}
                assert sorted(cols) == list(range(dim))


def test_trivial_module_boundary_gl11():
    g = build_gl_nn(1)
    p = build_parabolic(g, [])
    t = build_irrep(g, wt(0, 0))
    cx = ChainComplex(opposite(p), t)
    d1 = cx.lower(1)
    assert not any(d1.icols)     # xi_odd (x) 1 dies on the trivial module


def test_l_equivariance_and_p_morphisms(gl21_setup):
    g, p, v, _ = gl21_setup
    cx = ChainComplex(opposite(p), v)
    for k in range(0, 3):
        low, up = cx.lower(k + 1), cx.raise_(k)
        for i in p.levi_indices:
            a_k = cx.action_map(k, i)
            a_k1 = cx.action_map(k + 1, i)
            assert same_map(up.compose(a_k), a_k1.compose(up))
            assert same_map(a_k.compose(low), low.compose(a_k1))
        for i in p.n_indices:   # boundary is a full p-module morphism
            a_k = cx.action_map(k, i)
            a_k1 = cx.action_map(k + 1, i)
            assert same_map(a_k.compose(low), low.compose(a_k1))


def test_coboundary_deviation_identity(gl21_setup):
    """The failure of the coboundary to be a p-morphism is exactly
    sum_a xi_a ^ [xi_a^#, Z]_p . f."""
    g, p, v, _ = gl21_setup
    cx = ChainComplex(opposite(p), v)
    p_indices = set(p.levi_indices) | set(p.n_indices)
    for k in range(0, 3):
        up = cx.raise_(k)
        sp, tgt = cx.space(k), cx.space(k + 1)
        index = {e: t for t, e in enumerate(chain_basis(tgt))}
        for z in sorted(p_indices):
            a_k = cx.action_map(k, z)
            a_k1 = cx.action_map(k + 1, z)
            lhs = fraction_columns(up.compose(a_k))
            rhs = fraction_columns(a_k1.compose(up))
            for j, (ev, od, m) in enumerate(chain_basis(sp)):
                corr = {}
                for a, gen in enumerate(cx.radical):
                    br = g.bracket_vec(cx.duals[a], {z: F1})
                    brp = {t: c for t, c in br.items() if t in p_indices}
                    if not brp:
                        continue
                    acted = {}
                    for t, c in brp.items():
                        linalg.vec_iadd(acted, oracle_action(
                            cx.parabolic, v, t, ev + od, m), c)
                    linalg.vec_iadd(corr, oracle_wedge(g, gen, acted))
                expect = {index[_element(g, word, mi)]: c
                          for (word, mi), c in corr.items()}
                got = dict(lhs[j])
                linalg.vec_iadd(got, rhs[j], Fraction(-1))
                assert got == expect


def test_delta_star_pstar_morphism(gl21_setup):
    g, p, v, vd = gl21_setup
    cx = ChainComplex(p, vd)
    pstar = list(p.levi_indices) + list(p.nbar_indices)
    for k in range(0, 3):
        low = cx.lower(k + 1)
        for i in pstar:
            a_k = cx.action_map(k, i)
            a_k1 = cx.action_map(k + 1, i)
            assert same_map(a_k.compose(low), low.compose(a_k1))


@pytest.mark.parametrize("side", ["n", "nbar"])
def test_quabla_direct_equals_casimir(gl21_setup, side):
    g, p, v, vd = gl21_setup
    cx = ChainComplex(opposite(p), v) if side == "n" else ChainComplex(p, vd)
    for k in range(0, 4):
        assert same_map(cx.quabla(k), merged_quabla(cx.casimir_quabla(k)))


def test_quabla_commutes_with_levi(gl21_setup):
    g, p, v, _ = gl21_setup
    cx = ChainComplex(opposite(p), v)
    for k in range(0, 3):
        q = cx.quabla(k)
        for i in p.levi_indices:
            amap = cx.action_map(k, i)
            assert same_map(q.compose(amap), amap.compose(q))


def test_quabla_rescaling():
    kernels = []
    for c in (1, 2):
        g = build_algebra("gl", 2, 1, C=c)
        p = build_parabolic(g, [])
        v = build_irrep(g, wt(1, 0, 0))
        cx = ChainComplex(opposite(p), v)
        kernels.append(fraction_columns(cx.quabla(2)))
    qa, qb = kernels
    assert all(qb[j] == {r: x / 2 for r, x in qa[j].items()} for j in range(len(qa)))
    # kernels agree
    spdim = len(qa)
    ma = [[qa[j].get(r, F0) for j in range(spdim)] for r in range(spdim)]
    mb = [[qb[j].get(r, F0) for j in range(spdim)] for r in range(spdim)]
    assert linalg.nullspace(ma) == linalg.nullspace(mb)


def test_pairing_degree_zero(gl21_setup):
    g, p, v, vd = gl21_setup
    mat = ChainPairing(ChainComplex(p, vd), ChainComplex(opposite(p), v)).matrix(0)
    assert mat == identity(v.dim)


def test_pairing_nondegenerate_blocks(gl21_setup):
    g, p, v, vd = gl21_setup
    pr = ChainPairing(ChainComplex(p, vd), ChainComplex(opposite(p), v))
    for k in range(0, 4):
        for w in pr.left.space(k).weight_blocks:
            lrows, rcols, mat = pr.block(k, w)
            assert len(lrows) == len(rcols)
            assert linalg.rank(mat) == len(lrows)


def test_pairing_l_invariance(gl21_setup):
    """(A[q], p) = -(-1)^{|A||q|} (q, A[p]) for Levi elements."""
    g, p, v, vd = gl21_setup
    left = ChainComplex(p, vd)
    right = ChainComplex(opposite(p), v)
    pr = ChainPairing(left, right)
    for k in range(0, 3):
        lsp, rsp = left.space(k), right.space(k)
        lpar = [(len(od) + vd.parities[m]) & 1 for _, od, m in chain_basis(lsp)]
        mat = pr.matrix(k)
        for i in p.levi_indices:
            al = fraction_columns(left.action_map(k, i))
            ar = fraction_columns(right.action_map(k, i))
            pa = g.parity(i)
            for qj in range(lsp.dim):
                for pj in range(rsp.dim):
                    lhs = sum((c * mat[r][pj] for r, c in al[qj].items()), F0)
                    rhs = sum((c * mat[qj][r] for r, c in ar[pj].items()), F0)
                    sgn = Fraction(-1) if (pa and lpar[qj]) else F1
                    assert lhs == -sgn * rhs


def test_pairing_adjointness_uniform_sign(gl21_setup):
    """delta* pairs with the coboundary and delta with the boundary, with one
    global sign each across all degrees and entries."""
    g, p, v, vd = gl21_setup
    left = ChainComplex(p, vd)
    right = ChainComplex(opposite(p), v)
    pr = ChainPairing(left, right)
    signs1, signs2 = set(), set()
    for k in range(0, 3):
        mk, mk1 = pr.matrix(k), pr.matrix(k + 1)
        dstar, dcob = fraction_columns(left.lower(k + 1)), fraction_columns(right.raise_(k))
        for qj in range(left.space(k + 1).dim):
            for pj in range(right.space(k).dim):
                lhs = sum((c * mk[r][pj] for r, c in dstar[qj].items()), F0)
                rhs = sum((c * mk1[qj][r] for r, c in dcob[pj].items()), F0)
                if lhs or rhs:
                    assert lhs in (rhs, -rhs)
                    signs1.add(1 if lhs == rhs else -1)
        delt, dbnd = fraction_columns(left.raise_(k)), fraction_columns(right.lower(k + 1))
        for qj in range(left.space(k).dim):
            for pj in range(right.space(k + 1).dim):
                lhs = sum((c * mk1[r][pj] for r, c in delt[qj].items()), F0)
                rhs = sum((c * mk[qj][r] for r, c in dbnd[pj].items()), F0)
                if lhs or rhs:
                    assert lhs in (rhs, -rhs)
                    signs2.add(1 if lhs == rhs else -1)
    assert len(signs1) == 1 and len(signs2) == 1


def test_form_adjointness(gl21_setup, osp12):
    """<delta f, g> = -<f, delta* g> for the contravariant form on chains."""
    cases = []
    g, p, v, _ = gl21_setup
    cases.append((p, v))
    p12 = build_parabolic(osp12, [])
    cases.append((p12, build_irrep(osp12, wt(1))))
    for p_, mod in cases:
        cx = ChainComplex(p_, mod)
        fm = ChainForm(cx)
        for k in range(0, 3):
            delt, dstar = fraction_columns(cx.raise_(k)), fraction_columns(cx.lower(k + 1))
            bk, bk1 = chain_basis(cx.space(k)), chain_basis(cx.space(k + 1))
            for fj in range(len(bk)):
                for gj in range(len(bk1)):
                    lhs = sum((c * fm.form_elements(bk1[r], bk1[gj])
                               for r, c in delt[fj].items()), F0)
                    rhs = sum((c * fm.form_elements(bk[fj], bk[r])
                               for r, c in dstar[gj].items()), F0)
                    assert lhs == -rhs


def test_form_l_contravariance(gl21_setup):
    """<B f, g> = <f, B^dagger g> for Levi elements, w.r.t. the module's op."""
    g, p, v, _ = gl21_setup
    cx = ChainComplex(p, v)
    fm = ChainForm(cx)
    op = v.adjoint
    k = 1
    sp = cx.space(k)
    basis = chain_basis(sp)
    for i in p.levi_indices:
        amap = fraction_columns(cx.action_map(k, i))
        dmap = oracle_map_combination([(c, _dense_of(cx.action_map(k, j)))
                                       for j, c in op.apply_basis(i).items()],
                                      sp.dim, sp.dim)
        for fj in range(sp.dim):
            for gj in range(sp.dim):
                lhs = sum((c * fm.form_elements(basis[r], basis[gj])
                           for r, c in amap[fj].items()), F0)
                rhs = sum((dmap[r][gj] * fm.form_elements(basis[fj], basis[r])
                           for r in range(sp.dim) if dmap[r][gj]), F0)
                assert lhs == rhs


def test_delta_pair_surface(gl21_setup):
    g, p, v, vd = gl21_setup
    cx = ChainComplex(p, vd)
    dlt, dst = cx.raise_(1), cx.lower(1)
    assert dst.source.degree == 1 and dst.target.degree == 0
    assert dlt.source.degree == 1 and dlt.target.degree == 2
    assert any(dst.icols)
    q = ChainComplex(opposite(p), v).quabla(1)
    assert q.source is q.target


def test_cross_check_survives_optimize():
    """Chain-map cross-checks raise CrossCheckFailed even under python -O."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from superbgg.algebra import build_algebra, build_parabolic, wt\n"
        "from superbgg.chains import ChainComplex\n"
        "from superbgg.errors import CrossCheckFailed\n"
        "from superbgg.modules import build_irrep\n"
        "g = build_algebra('gl', 2, 1)\n"
        "cx = ChainComplex(build_parabolic(g, []), build_irrep(g, wt(1, 0, 0)))\n"
        "try:\n"
        "    cx.lower(1).compose(cx.lower(1))\n"
        "except CrossCheckFailed:\n"
        "    print('rejected')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "rejected"


# ---------------------------------------------------------------------------
# integer chain maps
# ---------------------------------------------------------------------------

def _bare_space(weights):
    """A chain space with only the weight data a ChainMap reads."""
    blocks: dict = {}
    for t, w in enumerate(weights):
        blocks.setdefault(w, []).append(t)
    return ChainSpace(None, 0, list(weights), blocks)


def _map_of(src, tgt, dense):
    cols = [{r: dense[r][j] for r in range(tgt.dim) if dense[r][j]}
            for j in range(src.dim)]
    return map_from_columns(src, tgt, cols)


def _dense_of(m):
    cols = fraction_columns(m)
    return [[cols[j].get(r, F0) for j in range(m.source.dim)]
            for r in range(m.target.dim)]


def _assert_canonical(m):
    vals = [v for col in m.icols for v in col.values()]
    assert type(m.den) is int and m.den >= 1
    assert all(type(v) is int and v for v in vals)
    assert math.gcd(m.den, *vals) == 1


def _assert_exact_blocks(m):
    """Block entries are ints when den is 1 and Fractions otherwise (zeros
    are int 0): never a float."""
    for w in m.source.weight_blocks:
        for row in m.block(w):
            for x in row:
                assert type(x) is (int if m.den == 1 or x == 0 else Fraction)


_WEIGHTS = st.lists(st.sampled_from([wt(0), wt(1), wt(-1)]), max_size=4)
_ENTRIES = st.one_of(st.just(F0), st.fractions(min_value=-6, max_value=6,
                                               max_denominator=4))


@st.composite
def _map_triples(draw):
    """Spaces S, M, T and block-diagonal dense maps a, a2: S -> M, b: M -> T."""
    src, mid, tgt = draw(_WEIGHTS), draw(_WEIGHTS), draw(_WEIGHTS)

    def dense(rw, cw):
        return [[draw(_ENTRIES) if rw[i] == cw[j] else F0 for j in range(len(cw))]
                for i in range(len(rw))]
    return src, mid, tgt, dense(mid, src), dense(mid, src), dense(tgt, mid)


def _scaled(m, c):
    """c * m, built from the dense oracle's product."""
    return _map_of(m.source, m.target,
                   oracle_map_combination([(c, _dense_of(m))], m.target.dim, m.source.dim))


@given(_map_triples(), st.fractions(min_value=-4, max_value=4, max_denominator=5))
@example(([wt(0)] * 2, [wt(0)] * 2, [wt(0)],
          [[F(1, 2), F(3, 4)], [F0, F(-1, 6)]], [[F(-1, 2), F(1, 4)], [F0, F(1, 6)]],
          [[F(2, 3), F(3)]]), F(2))
@settings(max_examples=120, deadline=None)
def test_chain_map_arithmetic_matches_dense_oracle(triple, c):
    src, mid, tgt, da, da2, db = triple
    s, m, t = _bare_space(src), _bare_space(mid), _bare_space(tgt)
    a, a2, b = _map_of(s, m, da), _map_of(s, m, da2), _map_of(m, t, db)
    results = [
        (a, da), (a2, da2), (b, db),
        (b.compose(a), oracle_map_product(db, da, s.dim)),
        (a.add(a2), oracle_map_combination([(1, da), (1, da2)], m.dim, s.dim)),
        (_scaled(a, c), oracle_map_combination([(c, da)], m.dim, s.dim)),
    ]
    for got, want in results:
        _assert_canonical(got)
        _assert_exact_blocks(got)
        assert _dense_of(got) == want
        assert any(got.icols) == any(any(row) for row in want)
        for w, cols in got.source.weight_blocks.items():
            rows = got.target.weight_blocks.get(w, [])
            assert got.block(w) == [[want[r][j] for j in cols] for r in rows]
            assert got.int_block(w) == [[want[r][j] * got.den for j in cols]
                                        for r in rows]
    assert same_map(a, a2) == (da == da2)
    assert same_map(a, _map_of(s, m, [row[:] for row in da]))
    assert a.add(_scaled(a, -1)).den == 1 and not any(a.add(_scaled(a, -1)).icols)


def test_chain_map_denominators():
    s = _bare_space([wt(0), wt(0)])
    half = _map_of(s, s, [[F(1, 2), F(3, 4)], [F0, F(-1, 6)]])
    assert half.den == 12 and half.icols == [{0: 6}, {0: 9, 1: -2}]
    assert half.block(wt(0)) == [[F(1, 2), F(3, 4)], [0, F(-1, 6)]]
    assert _scaled(half, 12).den == 1 and _scaled(half, 12).icols == [{0: 6}, {0: 9, 1: -2}]
    assert _scaled(half, F(1, 3)).den == 36
    assert same_map(half.compose(half), _map_of(
        s, s, oracle_map_product(_dense_of(half), _dense_of(half), 2)))
    assert not same_map(half, _scaled(half, 2))
    assert same_map(half, _scaled(_scaled(half, 2), F(1, 2)))


@pytest.fixture(scope="module")
def osp54_drop0():
    """osp(5|4), natural module, Levi of the simple roots 1..3 (drop 0)."""
    g = build_algebra("osp", 5, 2)
    return g, build_parabolic(g, [1, 2, 3]), build_irrep(g, wt(1, 0, 0, 0))


def test_built_maps_are_canonical_and_exact(gl21_setup, osp54_drop0):
    g, p, v, vd = gl21_setup
    _, p54, v54 = osp54_drop0
    for par, mod in ((opposite(p), v), (p, vd), (p54, v54)):
        cx = ChainComplex(par, mod)
        for k in range(3):
            maps = [cx.lower(k), cx.raise_(k), cx.quabla(k),
                    merged_quabla(cx.casimir_quabla(k))]
            for m in maps:
                assert is_block_diagonal(m)
                _assert_canonical(m)
                _assert_exact_blocks(m)
            for i in par.levi_indices:      # root vectors shift weights
                _assert_canonical(cx.action_map(k, i))


def test_quabla_direct_equals_casimir_osp54_drop0(osp54_drop0):
    """The two quablas agree on maps with denominator 2 and a Levi whose
    Gram inverse is not diagonal."""
    g, p, v = osp54_drop0
    levi = p.levi_indices
    linv = linalg.inverse([[g.gram[i][j] for j in levi] for i in levi])
    assert any(linv[i][j] for i in range(len(levi)) for j in range(len(levi)) if i != j)
    cx = ChainComplex(p, v)
    dens = set()
    for k in range(3):
        direct, casimir = cx.quabla(k), merged_quabla(cx.casimir_quabla(k))
        assert same_map(direct, casimir)
        assert is_block_diagonal(direct)
        dens.add(direct.den)
    assert 2 in dens


# ---------------------------------------------------------------------------
# the factored Casimir quabla
# ---------------------------------------------------------------------------

def _casimir_cases(gl21, osp54_drop0):
    """gl(2|1) with an even and an odd Levi root, osp(3|2) with the Levi
    osp(1|2), the osp(5|4) natural module on its drop-0 parabolic (Levi
    with odd roots, Gram inverse not diagonal) and gl(3|2) on its Borel,
    where the root table is empty."""
    g32 = build_algebra("osp", 3, 1)
    gl32 = build_algebra("gl", 3, 2)
    _, p54, v54 = osp54_drop0
    v21 = build_irrep(gl21, wt(2, 0, 0))
    return [ChainComplex(build_parabolic(gl21, [0]), v21),
            ChainComplex(opposite(build_parabolic(gl21, [0])), v21),
            ChainComplex(build_parabolic(gl21, [1]), build_irrep(gl21, wt(1, 0, 0))),
            ChainComplex(build_parabolic(g32, [1]), build_irrep(g32, wt(1, 0))),
            ChainComplex(p54, v54),
            ChainComplex(build_parabolic(gl32, []), build_irrep(gl32, wt(1, 0, 0, 0, 0)))]


def test_factored_casimir_quabla_matches_composed_oracle(gl21, osp54_drop0):
    """The Cartan scalar plus the exterior table of the Levi root vectors
    equals -1/2 (C2 + w(h) - sum_i A_i A_i^#) composed from the
    tensor-word actions of the whole Levi basis."""
    cases = _casimir_cases(gl21, osp54_drop0)
    for cx in cases:
        for k in range(3):
            assert fraction_columns(merged_quabla(cx.casimir_quabla(k))) \
                == oracle_casimir_quabla(cx, k)
    borel = cases[-1]
    assert not borel._casimir_terms.roots
    merged = merged_quabla(borel.casimir_quabla(2))
    assert all(set(col) <= {j} for j, col in enumerate(merged.icols))
    assert all(cx._casimir_terms.roots for cx in cases[:-1])


def test_casimir_cartan_scalar_is_the_weight_form(gl21, osp54_drop0):
    """sum_H w(H) w(H^#) over the Cartan basis and its Levi duals, the
    scalar by which the Cartan part of C_l acts on the weight-w block,
    equals (w, w) on every weight block; the Casimir quabla reads (w, w)
    from the algebra's int weight form."""
    for cx in _casimir_cases(gl21, osp54_drop0):
        g, p = cx.algebra, cx.parabolic
        cartan = [(i, dual) for i, dual in zip(p.levi_indices, p.levi_duals)
                  if g.basis[i].is_cartan]
        for k in range(3):
            for w in cx.space(k).weight_blocks:
                scalar = sum((g.eval_weight(w, {i: F1}) * g.eval_weight(w, dual)
                              for i, dual in cartan), F0)
                assert scalar == g.weight_form(w, w)


def _restricted_quabla_code(read: str) -> str:
    """A script that builds the Casimir quabla of degree 1 of gl(2|1) with
    Levi {0} (which has a root part) on the first weight block of C_1
    alone, reads it as `read` says ("columns": every column, "rows": the
    block of the second weight) and prints what that raises."""
    return (
        "import json\n"
        "from superbgg.algebra import build_algebra, build_parabolic, weight_key, wt\n"
        "from superbgg.chains import ChainComplex\n"
        "from superbgg.errors import SuperBGGError\n"
        "from superbgg.modules import build_irrep\n"
        "g = build_algebra('gl', 2, 1)\n"
        "cx = ChainComplex(build_parabolic(g, [0]), build_irrep(g, wt(1, 0, 0)))\n"
        "w, v = sorted(cx.space(1).weight_blocks, key=weight_key)[:2]\n"
        "q = cx.casimir_quabla(1, [w])\n"
        "if q.root is None:\n"
        "    raise SystemExit('no root part')\n"
        "try:\n"
        f"    list(q.columns()) if {read!r} == 'columns' else q.rows(v)\n"
        "    print(json.dumps('accepted'))\n"
        "except SuperBGGError as exc:\n"
        "    print(json.dumps([type(exc).__name__, str(exc)]))\n"
    )


@pytest.mark.parametrize("optimize", [False, True])
def test_restricted_root_part_refuses_whole_columns(optimize):
    """A Casimir quabla whose root part holds some weight blocks alone has
    no whole column; reading its columns is an internal fault,
    CrossCheckFailed (exit 1), also under `python -O`."""
    from test_cli import _run_script
    assert _run_script(_restricted_quabla_code("columns"), optimize) == [
        "CrossCheckFailed", "the root part holds some weight blocks alone"]


@pytest.mark.parametrize("optimize", [False, True])
def test_restricted_root_part_refuses_other_blocks(optimize):
    """Reading such a quabla at a weight block its root part does not hold
    is an internal fault, CrossCheckFailed (exit 1), also under
    `python -O`."""
    from test_cli import _run_script
    name, msg = _run_script(_restricted_quabla_code("rows"), optimize)
    assert name == "CrossCheckFailed" and msg.startswith("the root part holds no block at")


@pytest.mark.parametrize("optimize", [False, True])
def test_corrupted_levi_dual_fails_the_casimir_terms(optimize):
    """The Casimir terms split the Levi duals into a Cartan part and a root
    part, which holds only when each dual A_i^# has the parity of A_i and
    lies in the Cartan exactly when A_i does.  With the dual of a Levi root
    vector replaced by that of a Cartan element, block_data raises
    CrossCheckFailed naming the Levi dual, also under `python -O`."""
    from test_cli import _run_script
    code = (
        "import json\n"
        "from superbgg.algebra import build_algebra, build_parabolic, wt\n"
        "from superbgg.errors import CrossCheckFailed\n"
        "from superbgg.homology import KostantAnalysis\n"
        "from superbgg.modules import build_irrep\n"
        "g = build_algebra('gl', 2, 1)\n"
        "p = build_parabolic(g, [0])\n"
        "duals = list(p.levi_duals)\n"
        "root = next(a for a, i in enumerate(p.levi_indices) if not g.basis[i].is_cartan)\n"
        "cartan = next(a for a, i in enumerate(p.levi_indices) if g.basis[i].is_cartan)\n"
        "duals[root] = duals[cartan]\n"
        "p.levi_duals = duals\n"
        "try:\n"
        "    KostantAnalysis(p, build_irrep(g, wt(1, 0, 0)), 2).block_data(0)\n"
        "    print(json.dumps('accepted'))\n"
        "except CrossCheckFailed as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    )
    out = _run_script(code, optimize)
    assert out.startswith("the Levi dual of ") and out.endswith(
        "leaves its parity or the Cartan")
