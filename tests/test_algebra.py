import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    casimir_action_scalar,
    exact_values,
    natural_module,
    oracle_build_algebra,
    oracle_casimir,
    oracle_commutator,
    oracle_rref,
)
from superbgg import linalg
from superbgg.algebra import (
    AdjointOperation,
    BasisElement,
    LieSuperalgebra,
    _check_adjoint,
    _finish,
    build_adjoint_operation,
    build_algebra,
    build_parabolic,
    casimir_eigenvalue,
    check_star_condition,
    wt,
    wt_zero,
)
from superbgg.errors import CrossCheckFailed, DegenerateForm, UnsupportedAlgebra

F1 = Fraction(1)


def parity_counts(g):
    even = sum(1 for b in g.basis if b.parity == 0)
    return even, g.dim - even


def test_gl21_shape(gl21):
    assert parity_counts(gl21) == (5, 4)
    assert gl21.dim == 9
    pos = [gl21.basis[i] for i in gl21.positive_root_indices()]
    even_pos = [b.root for b in pos if b.parity == 0]
    odd_pos = sorted(b.root for b in pos if b.parity == 1)
    assert even_pos == [wt(1, -1, 0)]
    assert odd_pos == sorted([wt(1, 0, -1), wt(0, 1, -1)])


def test_osp46_shape(osp46):
    assert parity_counts(osp46) == (27, 24)


def test_gl_mn_equal_rejected():
    with pytest.raises(DegenerateForm):
        build_algebra("gl", 2, 2)


def test_unsupported_kind():
    with pytest.raises(UnsupportedAlgebra):
        build_algebra("sl", 2, 1)


def super_jacobi_holds(g):
    for i, j, k in itertools.product(range(g.dim), repeat=3):
        sgn = Fraction(-1) if (g.parity(i) and g.parity(j)) else F1
        lhs = g.bracket_vec({i: F1}, g.bracket(j, k))
        rhs = dict(g.bracket_vec(g.bracket(i, j), {k: F1}))
        linalg.vec_iadd(rhs, g.bracket_vec({j: F1}, g.bracket(i, k)), sgn)
        if lhs != rhs:
            return False
    return True


def form_invariance_holds(g):
    for i, j, k in itertools.product(range(g.dim), repeat=3):
        if g.form(g.bracket(i, j), {k: F1}) != g.form({i: F1}, g.bracket(j, k)):
            return False
    return True


@pytest.mark.parametrize("args", [("gl", 2, 1), ("gl", 1, 2), ("osp", 1, 1),
                                  ("osp", 2, 1)])
def test_structure_identities(args):
    g = build_algebra(*args)
    assert super_jacobi_holds(g)
    assert form_invariance_holds(g)
    # consistency and supersymmetry of the form
    for i in range(g.dim):
        for j in range(g.dim):
            if g.parity(i) != g.parity(j):
                assert g.gram[i][j] == 0
            sgn = Fraction(-1) if (g.parity(i) and g.parity(j)) else F1
            assert g.gram[i][j] == sgn * g.gram[j][i]
    assert linalg.rank(g.gram) == g.dim


def _super_commutator(g, i, j):
    """[B_i, B_j] of the natural-module matrices, entry by entry."""
    sign = -1 if g.parity(i) and g.parity(j) else 1
    out: dict = {}
    for x, y, sgn in ((i, j, 1), (j, i, -sign)):
        for (p, q), u in g.basis[x].matrix.items():
            for (q2, r), v in g.basis[y].matrix.items():
                if q == q2:
                    out[(p, r)] = out.get((p, r), 0) + sgn * u * v
    return {e: v for e, v in out.items() if v}


@pytest.mark.parametrize("args", [("gl", 2, 1), ("osp", 3, 1)])
def test_expand_matches_dense_solve(args):
    """The sparse expansion of every bracket agrees with a dense Fraction
    solve of sum_k c_k B_k = [B_i, B_j] over all matrix entries."""
    g = build_algebra(*args)
    entries = list(itertools.product(range(g.nat_dim), repeat=2))
    for i, j in itertools.product(range(g.dim), repeat=2):
        comm = _super_commutator(g, i, j)
        red, pivots = oracle_rref(
            [[b.matrix.get(e, 0) for b in g.basis] + [comm.get(e, 0)]
             for e in entries])
        assert pivots == list(range(g.dim))
        want = {c: red[c][-1] for c in pivots if red[c][-1]}
        assert g.expand(comm) == want


def test_expand_rejects_matrix_outside_span():
    g = build_algebra("osp", 3, 1)
    # E_00 alone is not in osp; nor is a matrix whose only entry is one the
    # expansion never reads
    selected = {e for b in g.basis for e in b.matrix}
    unread = next(e for e in itertools.product(range(g.nat_dim), repeat=2)
                  if e not in selected)
    for matrix in ({(0, 0): F1}, {unread: F1}):
        with pytest.raises(ValueError):
            g.expand(matrix)


def test_root_vector_property(gl21, osp12):
    for g in (gl21, osp12):
        for i, b in enumerate(g.basis):
            if b.is_cartan:
                continue
            for h in g.cartan:
                val = g.eval_weight(b.root, {h: F1})
                assert g.bracket(h, i) == ({i: val} if val else {})


def test_simple_vector_indices_are_found_once(gl21, osp46):
    """The simple root vectors are looked up once per algebra and handed
    out as tuples, which no caller can change."""
    for g in (gl21, osp46):
        pos, neg = g.simple_vector_indices()
        assert g.simple_vector_indices() is g.simple_vector_indices()
        assert type(pos) is tuple and type(neg) is tuple
        assert [g.root(i) for i in pos] == list(g.simple_roots)
        assert [g.root(i) for i in neg] == [tuple(-c for c in a) for a in g.simple_roots]


def test_borel_gl21(gl21, gl21_borel):
    p = gl21_borel
    n_par = [gl21.parity(i) for i in p.n_indices]
    assert sorted(n_par) == [0, 1, 1]          # n iso C^{1|2}
    assert len(p.nbar_indices) == 3 and len(p.levi_indices) == 3


def test_sec7_parabolic_osp46(osp46, osp46_sec7):
    p = osp46_sec7
    n_par = [osp46.parity(i) for i in p.n_indices]
    assert sorted(n_par) == [0, 0] + [1] * 6   # n iso C^{2|6}
    assert len(p.levi_indices) == 35           # cosp(2|6)


def test_type_one_parabolic_gl21(gl21):
    """Levi spanned by the even simple roots: n is the odd positive part."""
    p = build_parabolic(gl21, [0])
    # independent enumeration: positive roots outside the integer span of the
    # even simple root eps1-eps2 are exactly the odd positive ones
    expected = [i for i in gl21.positive_root_indices() if gl21.parity(i) == 1]
    assert sorted(p.n_indices) == sorted(expected)
    assert sorted(gl21.parity(i) for i in p.n_indices) == [1, 1]
    assert sorted(gl21.parity(i) for i in p.levi_indices) == [0] * 5


def test_full_subset_parabolic_is_trivial(gl21):
    """Keeping every simple root puts all root spaces in the Levi."""
    p = build_parabolic(gl21, [0, 1])
    assert p.n_indices == [] and p.nbar_indices == []
    assert len(p.levi_indices) == gl21.dim


def test_parabolic_closure(gl21, gl21_borel, osp46, osp46_sec7):
    for g, p in ((gl21, gl21_borel), (osp46, osp46_sec7)):
        pspan = set(p.levi_indices) | set(p.n_indices)
        nset = set(p.n_indices)
        for z in pspan:
            for x in p.n_indices:
                assert set(g.bracket(z, x)) <= nset


def test_dual_pairing_identities(gl21, gl21_borel):
    g, p = gl21, gl21_borel
    for a, ia in enumerate(p.n_indices):
        for b, ib in enumerate(p.n_indices):
            want = F1 if a == b else Fraction(0)
            assert g.form(p.dual_pairing[a], {ib: F1}) == want
    # completeness: sum_a (X, xi_a) xi_a^# recovers X in nbar
    for x in p.nbar_indices:
        acc = {}
        for a, ia in enumerate(p.n_indices):
            linalg.vec_iadd(acc, p.dual_pairing[a], g.form({x: F1}, {ia: F1}))
        assert acc == {x: F1}


def test_adjoint_gl_types(gl21):
    op1 = build_adjoint_operation(gl21, 1)
    op2 = build_adjoint_operation(gl21, 2)
    labels = {b.label: i for i, b in enumerate(gl21.basis)}
    assert op1.apply_basis(labels["E12"]) == {labels["E21"]: F1}
    assert op1.apply_basis(labels["E13"]) == {labels["E31"]: F1}
    assert op2.apply_basis(labels["E12"]) == {labels["E21"]: F1}
    assert op2.apply_basis(labels["E13"]) == {labels["E31"]: Fraction(-1)}
    assert op1.star_type == 1 and op2.star_type == 2


def test_adjoint_operation_cached_per_star_type(gl21):
    op1 = build_adjoint_operation(gl21, 1)
    assert build_adjoint_operation(gl21, 1) is op1
    assert build_adjoint_operation(gl21, 2) is not op1
    assert build_adjoint_operation(build_algebra("gl", 2, 1), 1) is not op1


def test_adjoint_invariants(gl21, osp12, osp46):
    for g in (gl21, osp12, osp46):
        op = build_adjoint_operation(g, 1)
        for i in range(g.dim):
            assert op.apply(op.apply_basis(i)) == {i: F1}
            for j in range(g.dim):
                lhs = op.apply(g.bracket(i, j))
                rhs = g.bracket_vec(op.apply_basis(j), op.apply_basis(i))
                assert lhs == rhs
                assert (g.form(op.apply_basis(i), op.apply_basis(j))
                        == g.form({j: F1}, {i: F1}))


@pytest.mark.parametrize("name", ["gl21", "osp12", "osp46"])
def test_adjoint_certificate_rejects_wrong_non_generator_image(name, request):
    """The generator-local certificate checks brackets only for x among the
    e_i, f_i and the Cartan, yet it fails an operation with a wrong image on
    a root vector that is none of them: alone the involution breaks, and
    with the reciprocal scaling of its partner (an involution again) the
    bracket or form identity does."""
    g = request.getfixturevalue(name)
    op = build_adjoint_operation(g, 1)
    _check_adjoint(op)
    pos, neg = g.simple_vector_indices()
    generators = {*pos, *neg, *g.cartan}
    i = next(i for i in range(g.dim) if i not in generators)
    (j, c), = op.apply_basis(i).items()
    assert j != i and j not in generators
    images = list(op.images)
    images[i] = {j: 2 * c}
    with pytest.raises(CrossCheckFailed, match="involution"):
        _check_adjoint(AdjointOperation(g, images, op.star_type))
    images[j] = linalg.vec_scale(op.images[j], Fraction(1, 2))
    mutated = AdjointOperation(g, images, op.star_type)
    assert all(mutated.apply(mutated.apply_basis(t)) == {t: F1} for t in range(g.dim))
    with pytest.raises(CrossCheckFailed, match="dagger"):
        _check_adjoint(mutated)


def test_adjoint_certificate_rejects_parity_change(gl21):
    op = build_adjoint_operation(gl21, 1)
    images = list(op.images)
    even = next(i for i in range(gl21.dim) if not gl21.parity(i))
    odd = next(i for i in range(gl21.dim) if gl21.parity(i))
    images[even], images[odd] = images[odd], images[even]
    with pytest.raises(CrossCheckFailed, match="parity"):
        _check_adjoint(AdjointOperation(gl21, images, op.star_type))


def test_adjoint_type_flags(osp12, osp46):
    assert build_adjoint_operation(osp46, 1).star_type is None
    assert build_adjoint_operation(osp12, 1).star_type is None
    assert build_adjoint_operation(build_algebra("osp", 2, 2), 2).star_type == 2


def test_star_condition_table(gl21, gl21_borel, gl12, gl12_borel):
    assert check_star_condition(gl21, gl21_borel, build_adjoint_operation(gl21, 1))
    assert not check_star_condition(gl21, gl21_borel, build_adjoint_operation(gl21, 2))
    gm = build_algebra("gl", 2, 1, C=-1)
    assert check_star_condition(gm, build_parabolic(gm, [0]),
                                build_adjoint_operation(gm, 2))
    assert not check_star_condition(gm, build_parabolic(gm, []),
                                    build_adjoint_operation(gm, 2))
    assert not check_star_condition(gl12, gl12_borel, build_adjoint_operation(gl12, 1))


def test_casimir_eigenvalue(gl21, gl21_natural):
    assert casimir_eigenvalue(gl21, wt_zero(3)) == 0
    assert casimir_eigenvalue(gl21, wt(1, 0, 0)) == 1
    # oracle: direct action of sum A_i A_i^# on the natural module
    assert casimir_action_scalar(gl21_natural) == 1
    assert casimir_action_scalar(natural_module(gl21)) == 1


def test_rescaling_form(gl21):
    g2 = build_algebra("gl", 2, 1, C=2)
    assert g2.gram == [[2 * x for x in row] for row in gl21.gram]
    p1 = build_parabolic(gl21, [])
    p2 = build_parabolic(g2, [])
    for a in range(len(p1.n_indices)):
        assert p2.dual_pairing[a] == {
            k: Fraction(v, 2) for k, v in p1.dual_pairing[a].items()}
    for i in range(gl21.dim):
        for j in range(gl21.dim):
            assert gl21.bracket(i, j) == g2.bracket(i, j)
    assert [b.root for b in g2.basis] == [b.root for b in gl21.basis]


@pytest.mark.parametrize("alg, want", [
    (("gl", 2, 1), (0, -1, 1)),
    (("osp", 3, 1), (Fraction(-1, 2), Fraction(1, 2))),
    (("osp", 5, 2), (Fraction(-1, 2), Fraction(-3, 2), Fraction(3, 2), Fraction(1, 2))),
])
def test_rho_is_formed_once(alg, want, monkeypatch):
    """rho keeps its values on gl(2|1), osp(3|2) and osp(5|4), and later
    reads, casimir_eigenvalue's included, reuse it."""
    g = build_algebra(*alg)
    calls = []
    positive = type(g).positive_root_indices

    def spy(self):
        calls.append(1)
        return positive(self)
    monkeypatch.setattr(type(g), "positive_root_indices", spy)
    assert g.rho == want
    casimir_eigenvalue(g, g.rho)
    assert g.rho is g.rho and len(calls) == 1


def test_bracket_indexes_each_basis_matrix_once(monkeypatch):
    """Building osp(5|4) and bracketing every pair of basis elements forms
    the row index of each basis matrix once, however many products read
    it, and the brackets match the dense commutator."""
    from superbgg import algebra
    calls = []
    row_index = algebra._row_index

    def spy(matrix):
        calls.append(1)
        return row_index(matrix)
    monkeypatch.setattr(algebra, "_row_index", spy)
    g = build_algebra("osp", 5, 2)
    for i, j in itertools.product(range(g.dim), repeat=2):
        g.bracket(i, j)
    assert len(calls) == g.dim
    for i, j in [(0, 1), (g.dim - 1, g.dim - 2), (3, g.dim // 2)]:
        recon: dict = {}
        for t, c in g.bracket(i, j).items():
            linalg.vec_iadd(recon, g.basis[t].matrix, c)
        assert recon == oracle_commutator(g, i, j)


# ---------------------------------------------------------------------------
# the construction against its dense formulas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [("gl", 2, 1), ("gl", 3, 2), ("osp", 1, 1),
                                  ("osp", 2, 1), ("osp", 3, 1), ("osp", 4, 2),
                                  ("osp", 5, 2), ("osp", 4, 3)])
def test_construction_matches_dense_oracle(args):
    """The sparse osp rows, the entrywise Gram and the entrywise root-vector
    certificate give the algebra of the dense formulas: all N^2 osp rows,
    the Gram from product matrices and [H, X] through `bracket`."""
    g = build_algebra(*args)
    basis, gram, certified = oracle_build_algebra(*args)
    assert certified
    assert [(b.label, b.parity, b.root, b.matrix) for b in g.basis] == basis
    assert g.gram == gram


def _with_basis_element(g, t, matrix):
    """A fresh copy of g, with empty caches, whose basis element t has the
    given matrix."""
    basis = list(g.basis)
    b = basis[t]
    basis[t] = BasisElement(b.label, b.parity, b.root, matrix, b.is_cartan)
    return LieSuperalgebra(g.kind, g.m, g.n, g.r, g.s, basis, g.simple_roots,
                           g.form_normalization, g.nat_parity, g.nat_weight,
                           g.coord_index, g.name)


def test_construction_rejects_broken_root_vector_or_cartan(gl21):
    """A root vector with an entry outside its root space, or a Cartan
    element with an off-diagonal entry, fails the certificate of _finish
    with CrossCheckFailed."""
    t = gl21.basis_index_of_root(wt(1, -1, 0))
    broken = _with_basis_element(gl21, t, {(0, 1): F1, (0, 2): F1})
    with pytest.raises(CrossCheckFailed, match="not a root vector"):
        _finish(broken, F1)
    broken = _with_basis_element(gl21, gl21.cartan[0], {(0, 0): F1, (0, 1): F1})
    with pytest.raises(CrossCheckFailed, match="not diagonal"):
        _finish(broken, F1)
    _finish(_with_basis_element(gl21, t, {(0, 1): Fraction(3)}), F1)


def test_construction_certificate_survives_optimize():
    """Both rejections are typed errors, so they hold under python -O."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from fractions import Fraction\n"
        "from superbgg.algebra import BasisElement, LieSuperalgebra, _finish, build_algebra\n"
        "from superbgg.errors import CrossCheckFailed\n"
        "g = build_algebra('osp', 3, 1)\n"
        "t = next(i for i, b in enumerate(g.basis) if not b.is_cartan)\n"
        "for t, extra in ((t, (4, 4)), (g.cartan[0], (0, 1))):\n"
        "    basis = list(g.basis)\n"
        "    mat = dict(basis[t].matrix)\n"
        "    mat[extra] = Fraction(1)\n"
        "    b = basis[t]\n"
        "    basis[t] = BasisElement(b.label, b.parity, b.root, mat, b.is_cartan)\n"
        "    fresh = LieSuperalgebra(g.kind, g.m, g.n, g.r, g.s, basis, g.simple_roots,\n"
        "                           g.form_normalization, g.nat_parity, g.nat_weight,\n"
        "                           g.coord_index, g.name)\n"
        "    try:\n"
        "        _finish(fresh, Fraction(1))\n"
        "    except CrossCheckFailed:\n"
        "        print('rejected')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["rejected", "rejected"]


@pytest.mark.parametrize("optimize", [False, True])
def test_isotropic_even_root_has_no_coroot(optimize):
    """An even simple root of norm 0 has no reflection: with the form on h*
    zeroed, forming gl(2|1)'s coroot table raises CrossCheckFailed in
    check_finite_dimensional, also under `python -O`."""
    from test_cli import _run_script
    code = (
        "import json\n"
        "from superbgg.algebra import build_algebra, check_finite_dimensional, wt\n"
        "from superbgg.errors import CrossCheckFailed\n"
        "g = build_algebra('gl', 2, 1)\n"
        "q, den = g._weight_form\n"
        "g._weight_form = ([[0] * len(row) for row in q], den)\n"
        "try:\n"
        "    check_finite_dimensional(g, wt(1, 0, 0))\n"
        "    print(json.dumps('accepted'))\n"
        "except CrossCheckFailed as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    )
    assert _run_script(code, optimize) == "the even simple root 1,-1|0 is isotropic"


# ---------------------------------------------------------------------------
# int structure constants against the Fraction side
# ---------------------------------------------------------------------------

# small gl(m|n) and osp(m|2n), odd m included, at three form normalizations
SMALL_ALGEBRAS = [("gl", 2, 1), ("gl", 1, 2), ("gl", 3, 1), ("osp", 1, 1),
                  ("osp", 2, 1), ("osp", 3, 1), ("osp", 4, 1), ("osp", 5, 1)]
NORMALIZATIONS = [Fraction(1), Fraction(-1), Fraction(1, 2)]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SMALL_ALGEBRAS), st.sampled_from(NORMALIZATIONS))
def test_int_structure_matches_fraction_oracle(args, C):
    """Every bracket, expanded back over the basis matrices, is the Fraction
    matrix commutator value for value; the Gram is the dense oracle's; and
    matrices, structure constants, Gram, dual pairings and adjoint images
    are ints where integral and Fractions where not (C = 1/2 halves the
    Gram and doubles the duals)."""
    g = build_algebra(*args, C=C)
    for i, j in itertools.product(range(g.dim), repeat=2):
        br = g.bracket(i, j)
        assert exact_values(br.values())
        recon = {}
        for k, c in br.items():
            for e, v in g.basis[k].matrix.items():
                recon[e] = recon.get(e, 0) + Fraction(c) * v
        assert {e: v for e, v in recon.items() if v} == oracle_commutator(g, i, j)
    assert g.gram == oracle_build_algebra(*args, C)[1]
    p = build_parabolic(g, [])
    op = build_adjoint_operation(g, 1)
    assert exact_values([v for b in g.basis for v in b.matrix.values()]
                        + [x for row in g.gram for x in row]
                        + [c for d in p.dual_pairing + p.nbar_duals for c in d.values()]
                        + [c for img in op.images for c in img.values()])
    assert any(type(x) is Fraction for row in g.gram for x in row) is (C == Fraction(1, 2))


_COORDS = st.sampled_from([0, 1, 2, -1, Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SMALL_ALGEBRAS), st.sampled_from(NORMALIZATIONS), st.data())
def test_casimir_eigenvalue_matches_fraction_oracle(args, C, data):
    """casimir_eigenvalue is the Fraction (lam, lam + 2 rho) of an oracle
    that reads only the basis matrices and roots, on integral and
    non-integral weights alike, and stays a Fraction."""
    g = build_algebra(*args, C=C)
    lam = tuple(Fraction(x) for x in data.draw(
        st.lists(_COORDS, min_size=g.rank, max_size=g.rank)))
    val = casimir_eigenvalue(g, lam)
    assert type(val) is Fraction and val == oracle_casimir(g, lam)
