import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    VermaOracle,
    bracket_identity_holds,
    build_gl_nn,
    casimir_action_scalar,
    contravariance_holds,
    dual_module,
    exact_values,
    natural_module,
)
from superbgg.algebra import (
    build_adjoint_operation,
    build_algebra,
    casimir_eigenvalue,
    check_finite_dimensional,
    even_simple_roots,
    wt,
    wt_add,
    wt_scale,
    wt_sub,
)
from superbgg.errors import FiniteDimGuardExceeded, NotTypeI, PreconditionViolated
from superbgg.modules import build_irrep, build_kac_module, even_subalgebra

F0, F1 = Fraction(0), Fraction(1)


def weight_multiset(mod):
    out = {}
    for w in mod.weights:
        out[w] = out.get(w, 0) + 1
    return out


def test_gl21_natural_irrep(gl21, gl21_natural):
    v = gl21_natural
    assert v.dim == 3
    assert set(v.weights) == {wt(1, 0, 0), wt(0, 1, 0), wt(0, 0, 1)}
    assert sorted(zip(map(tuple, v.weights), v.parities)) == sorted(
        [(wt(1, 0, 0), 0), (wt(0, 1, 0), 0), (wt(0, 0, 1), 1)])


def test_osp46_natural_irrep(osp46_natural):
    assert osp46_natural.dim == 10
    assert sum(1 for p in osp46_natural.parities if p == 0) == 4
    assert sum(1 for p in osp46_natural.parities if p == 1) == 6


def test_irrep_against_natural_matrices(gl21, osp46, gl21_natural, osp46_natural):
    for g, built in ((gl21, gl21_natural), (osp46, osp46_natural)):
        nat = natural_module(g)
        assert weight_multiset(built) == weight_multiset(nat)
        assert sorted(built.parities) == sorted(nat.parities)


@pytest.mark.parametrize("lam", [1, 2])
def test_osp12_irrep_vs_verma_oracle(osp12, lam):
    """Shapovalov ranks of the rank-1 Verma module are the stated oracle."""
    v = build_irrep(osp12, wt(lam))
    assert v.dim == 2 * lam + 1
    oracle = VermaOracle(osp12, wt(lam), build_adjoint_operation(osp12, 1))
    assert oracle.weight_dims(2 * lam + 2) == weight_multiset(v)


def test_gl21_natural_vs_verma_oracle(gl21, gl21_natural):
    oracle = VermaOracle(gl21, wt(1, 0, 0), build_adjoint_operation(gl21, 1))
    assert oracle.weight_dims(3) == weight_multiset(gl21_natural)


def test_bracket_identity_and_contravariance(gl21, gl12, osp12, gl21_natural,
                                              gl12_natural):
    mods = [gl21_natural, gl12_natural, build_irrep(osp12, wt(2))]
    for mod in mods:
        assert bracket_identity_holds(mod)
        assert contravariance_holds(mod)


def test_cartan_acts_diagonally(gl21_natural):
    g = gl21_natural.algebra
    for h in g.cartan:
        for j, col in enumerate(gl21_natural.action[h]):
            assert set(col) <= {j}


def test_weyl_invariance_of_weights(gl21_natural, osp46_natural):
    for mod in (gl21_natural, osp46_natural):
        g = mod.algebra
        mult = weight_multiset(mod)
        even_simple = [a for a in
                       (g.root(i) for i in g.positive_root_indices()
                        if g.parity(i) == 0)]
        for alpha in even_simple:
            denom = g.weight_form(alpha, alpha)
            reflected = {}
            for w, m in mult.items():
                coeff = 2 * g.weight_form(w, alpha) / denom
                w2 = wt_sub(w, wt_scale(alpha, coeff))
                reflected[w2] = reflected.get(w2, 0) + m
            assert reflected == mult


def test_casimir_scalar_on_irreps(gl21, osp12, osp46, gl21_natural, osp46_natural):
    cases = [(gl21, gl21_natural), (osp46, osp46_natural),
             (osp12, build_irrep(osp12, wt(1)))]
    for g, mod in cases:
        assert casimir_action_scalar(mod) == casimir_eigenvalue(
            g, mod.highest_weight)


def test_finite_dim_guard(gl21):
    with pytest.raises(FiniteDimGuardExceeded):
        build_irrep(gl21, wt(0, 1, 0), max_depth=12)


@pytest.mark.parametrize("m,n,witness_top", [(1, 1, 2), (2, 1, 2), (3, 1, 2),
                                             (4, 1, 2), (5, 1, 1), (3, 2, 1)])
def test_osp_finite_dimensionality_matches_builds(m, n, witness_top):
    """check_finite_dimensional accepts exactly the even-dominant weights
    with coordinates in {0, 1/2, 1, 3/2, 2} whose irrep build terminates.

    Here -1 lies in the Weyl group of g_0 (osp(2|2) rejects nothing), so the
    weights of a finite-dimensional module are symmetric under negation and
    lie within heights ht(lam) of zero: a build with more than 2 ht(lam)
    levels is infinite.  Rejected weights are built only up to coordinate
    `witness_top`: some rejected weights of osp(5|2) and osp(3|4) with
    coordinates up to 2 take a minute each to pass that bound."""
    g = build_algebra("osp", m, n)
    op = build_adjoint_operation(g, 1)
    steps = [Fraction(k, 2) for k in range(5)]
    rejected = 0
    for lam in itertools.product(steps, repeat=g.rank):
        coroots = [2 * g.weight_form(lam, a) / g.weight_form(a, a)
                   for a in even_simple_roots(g)]
        if any(c.denominator != 1 or c < 0 for c in coroots):
            continue
        try:
            check_finite_dimensional(g, lam)
        except PreconditionViolated:
            rejected += 1
            if max(lam) <= witness_top:
                with pytest.raises(FiniteDimGuardExceeded):
                    build_irrep(g, lam, op,
                                int(2 * sum(g.simple_coordinates(lam))) + 1)
        else:
            assert build_irrep(g, lam, op).dim > 0
    assert (rejected > 0) == (m >= 3)


def test_kac_gl21(gl21):
    k = build_kac_module(gl21, wt(1, 0, 0))
    assert k.dim == 8                      # 2^2 * 2
    assert bracket_identity_holds(k)
    # character identity: weights of V0 times products over subsets of g_{-1}
    v0 = k.g0_module
    expected = {}
    for subset_size in range(len(k.gminus) + 1):
        for combo in itertools.combinations(k.gminus, subset_size):
            for w in v0.weights:
                w2 = w
                for i in combo:
                    w2 = wt_add(w2, gl21.root(i))
                expected[w2] = expected.get(w2, 0) + 1
    assert weight_multiset(k) == expected


def test_kac_gl11_generic():
    g = build_gl_nn(1)
    k = build_kac_module(g, wt(3, 1))
    assert k.dim == 2
    assert weight_multiset(k) == {wt(3, 1): 1, wt(2, 2): 1}
    assert bracket_identity_holds(k)


def test_kac_not_type_one(osp46):
    with pytest.raises(NotTypeI):
        build_kac_module(osp46, wt(1, 0, 0, 0, 0))


def test_even_subalgebra(gl21):
    g0 = even_subalgebra(gl21)
    assert g0.dim == 5
    assert g0.simple_roots == [wt(1, -1, 0)]


def test_dual_trivial_module(gl21):
    t = build_irrep(gl21, wt(0, 0, 0))
    d = dual_module(t)
    assert d.dim == 1 and d.highest_weight == wt(0, 0, 0)


def test_dual_natural(gl21_natural):
    d = dual_module(gl21_natural)
    assert d.highest_weight == wt(0, 0, -1)
    # lowest weight of the dual is the negated highest weight
    assert min(map(tuple, d.weights)) == tuple(wt(-1, 0, 0))
    assert bracket_identity_holds(d)
    assert contravariance_holds(d)


def test_double_dual_is_identity(gl21_natural):
    dd = dual_module(dual_module(gl21_natural))
    assert dd.action == gl21_natural.action
    assert dd.weights == gl21_natural.weights
    assert dd.parities == gl21_natural.parities


def test_form_positive_definite_flags(gl21, gl21_natural):
    assert gl21_natural.form_positive_definite()
    op2 = build_adjoint_operation(gl21, 2)
    v2 = build_irrep(gl21, wt(1, 0, 0), op2)
    assert not v2.form_positive_definite()


def test_restrict_adjoint_rejects_unstable_subalgebra_under_O():
    """dagger maps the positive root vectors to negative ones, so n+ is not
    stable under it; the typed error survives python -O."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from superbgg.algebra import build_adjoint_operation, build_algebra\n"
        "from superbgg.errors import PreconditionViolated\n"
        "from superbgg.modules import restrict_adjoint\n"
        "g = build_algebra('gl', 2, 1)\n"
        "pos = g.positive_root_indices()\n"
        "try:\n"
        "    restrict_adjoint(build_adjoint_operation(g, 1),\n"
        "                     g.subalgebra(pos, [], 'n+'), pos)\n"
        "except PreconditionViolated:\n"
        "    print('rejected')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "rejected"


# ---------------------------------------------------------------------------
# the int irrep against the Fraction verifiers
# ---------------------------------------------------------------------------

IRREP_ALGEBRAS = [("gl", 2, 1), ("gl", 1, 2), ("osp", 1, 1), ("osp", 2, 1), ("osp", 3, 1)]
NORMALIZATIONS = [Fraction(1), Fraction(-1), Fraction(1, 2)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(IRREP_ALGEBRAS), st.sampled_from(NORMALIZATIONS), st.data())
def test_int_irrep_passes_the_fraction_verifiers(args, C, data):
    """build_irrep's action satisfies the bracket identity and
    contravariance, checked in Fraction arithmetic, for small dominant
    weights; gl's coordinates get a common shift per parity, and osp(2|2)'s
    eps coordinate is free, so non-integral weights occur.  Action and Gram
    values are ints where integral and Fractions where not."""
    g = build_algebra(*args, C=C)
    coords = list(data.draw(st.lists(st.sampled_from([0, 1]), min_size=g.rank,
                                     max_size=g.rank)))
    shifts = data.draw(st.tuples(*[st.sampled_from([0, Fraction(1, 2), Fraction(-1, 3)])] * 2))
    if g.kind == "gl":
        coords = ([x + shifts[0] for x in sorted(coords[:g.r], reverse=True)]
                  + [x + shifts[1] for x in sorted(coords[g.r:], reverse=True)])
    elif g.m == 2:
        coords[0] += shifts[0]
    lam = tuple(Fraction(x) for x in coords)
    try:
        check_finite_dimensional(g, lam)
    except PreconditionViolated:
        assume(False)
    mod = build_irrep(g, lam)
    assert exact_values([v for cols in mod.action for col in cols for v in col.values()]
                        + [x for blk in mod.gram_blocks.values() for row in blk for x in row])
    assert bracket_identity_holds(mod)
    assert contravariance_holds(mod)
