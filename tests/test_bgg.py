from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_dot_action, oracle_weyl_coset
from superbgg.algebra import _coroot_pairing, build_algebra, build_parabolic, wt
from superbgg.bgg import (
    bgg_verdict,
    natural_resolution_shape,
    kac_resolution,
    reproduce,
    weyl_coset,
)
from superbgg.errors import (
    LeviNotInEvenPart,
    NotTypeI,
    PreconditionViolated,
    UnknownScenario,
)
from superbgg.homology import KostantAnalysis
from superbgg.modules import build_kac_module

F0, F1 = Fraction(0), Fraction(1)


def test_natural_resolution_shape_43():
    shape = natural_resolution_shape(4, 3, 3)
    assert shape.degrees == [
        [(wt(1, 0, 0, 0, 0), 1)],
        [(wt(-1, 2, 0, 0, 0), 1)],
        [(wt(-2, 2, 1, 0, 0), 1)],
        [(wt(-3, 2, 2, 0, 0), 1)],
    ]


def test_natural_resolution_shape_63():
    shape = natural_resolution_shape(6, 3, 3)
    assert shape.degrees[0] == [(wt(1, 0, 0, 0, 0, 0), 1)]
    assert shape.degrees[2] == [(wt(-2, 2, 1, 0, 0, 0), 1)]
    assert shape.degrees[3] == [(wt(-3, 2, 1, 1, 0, 0), 1)]


def test_natural_resolution_shape_preconditions():
    with pytest.raises(PreconditionViolated):
        natural_resolution_shape(3, 2, 2)
    with pytest.raises(PreconditionViolated):
        natural_resolution_shape(4, 1, 2)
    with pytest.raises(PreconditionViolated):
        natural_resolution_shape(8, 3, 2)     # m - 2n = 2 > 1


def test_weyl_coset_gl21_borel(gl21, gl21_borel):
    coset = weyl_coset(gl21, gl21_borel)
    graded = coset.graded()
    assert graded[0] == [()]              # identity only
    assert len(graded[1]) == 1
    word = graded[1][0]
    assert coset.dot_action(word, wt(1, 0, 0)) == wt(-1, 2, 0)


def test_weyl_coset_levi_full(gl21):
    p = build_parabolic(gl21, [0])        # l = g_0, W^1 trivial
    coset = weyl_coset(gl21, p)
    assert [length for _, length in coset.elements] == [0]


# (kind, m, n, Levi simple roots): the parabolics on which the word search
# is compared with the Fraction-matrix search of the oracle
WEYL_CASES = [
    ("gl", 2, 1, ()), ("gl", 2, 1, (0,)), ("gl", 3, 1, ()), ("gl", 3, 2, ()),
    ("gl", 3, 2, (0,)), ("gl", 1, 2, ()), ("osp", 2, 1, ()), ("osp", 3, 1, ()),
    ("osp", 4, 2, ()), ("osp", 4, 2, (1,)), ("osp", 5, 2, ()), ("osp", 5, 2, (1, 2, 3)),
]


@pytest.mark.parametrize("case", WEYL_CASES, ids=lambda c: f"{c[0]}{c[1]}{c[2]}-{c[3]}")
def test_weyl_coset_matches_the_matrix_oracle(case):
    """weyl_coset's word search finds the same reduced words, lengths and
    dot actions as a breadth-first search on Fraction reflection matrices,
    at integral and half-integral weights."""
    kind, m, n, levi = case
    g = build_algebra(kind, m, n)
    p = build_parabolic(g, levi)
    coset = weyl_coset(g, p)
    want = oracle_weyl_coset(g, p)
    assert coset.elements == [(word, length) for word, length, _ in want]
    assert all(length == len(word) for word, length, _ in want)
    lams = [wt(*([1] + [0] * (g.rank - 1))),
            wt(*range(g.rank, 0, -1)),
            wt(*[Fraction(2 * c + 1, 2) for c in range(g.rank)])]
    for (word, _), (_, _, mat) in zip(coset.elements, want):
        for lam in lams:
            assert coset.dot_action(word, lam) == oracle_dot_action(g, mat, lam)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(WEYL_CASES), st.data())
def test_coroot_pairing_is_the_form_ratio(case, data):
    """The int pairing (w, a^v) of the algebra's and the parabolic's coroot
    tables equals 2 weight_form(w, a) / weight_form(a, a) on random
    integral and half-integral weights."""
    kind, m, n, levi = case
    g = build_algebra(kind, m, n)
    p = build_parabolic(g, levi)
    coords = st.integers(-6, 6).map(lambda x: Fraction(x, 2))
    w = wt(*data.draw(st.lists(coords, min_size=g.rank, max_size=g.rank)))
    for table in (g.even_coroots, p.levi_coroots):
        for co in table:
            a = co[0]
            want = 2 * g.weight_form(w, a) / g.weight_form(a, a)
            got = _coroot_pairing(w, co)
            assert got == want and type(got) is (int if want.denominator == 1 else Fraction)


def test_kac_resolution_gl21(gl21, gl21_borel):
    shape = kac_resolution(gl21, gl21_borel, wt(1, 0, 0))
    assert shape.degrees == [
        [(wt(1, 0, 0), 1)],
        [(wt(-1, 2, 0), 1)],
    ]
    assert shape.terminates_at == 1


def test_kac_resolution_levi_is_g0(gl21):
    p = build_parabolic(gl21, [0])
    shape = kac_resolution(gl21, p, wt(1, 0, 0))
    assert shape.degrees == [[(wt(1, 0, 0), 1)]]
    assert shape.terminates_at == 0


def test_kac_resolution_matches_homology(gl21, gl21_borel):
    kac = build_kac_module(gl21, wt(1, 0, 0))
    an = KostantAnalysis(gl21_borel, kac, k_max=5)
    shape = kac_resolution(gl21, gl21_borel, wt(1, 0, 0))
    for k in range(5):
        predicted = dict(shape.degrees[k]) if k < len(shape.degrees) else {}
        assert an.homology(k).weight_multiplicities == predicted
    # typical type-I vanishing: H_k = 0 beyond dim n_0
    for k in range(2, 5):
        assert an.homology(k).homology_dimension == 0


def test_kac_resolution_guards(gl21, osp46, osp46_sec7):
    with pytest.raises(NotTypeI):
        kac_resolution(osp46, osp46_sec7, wt(1, 0, 0, 0, 0))
    p_odd = build_parabolic(gl21, [1])     # Levi contains the odd simple root
    with pytest.raises(LeviNotInEvenPart):
        kac_resolution(gl21, p_odd, wt(1, 0, 0))


def test_verdict_gl21_star(gl21, gl21_borel):
    v = bgg_verdict(gl21, gl21_borel, wt(1, 0, 0), 3)
    assert v.status == "Exists"
    assert v.basis_of_decision == "StarCondition"
    assert v.details["star_type"] == 1
    assert v.shape.degrees[0] == [(wt(1, 0, 0), 1)]
    assert v.shape.truncated


def test_verdict_gl12_honest(gl12, gl12_borel):
    v = bgg_verdict(gl12, gl12_borel, wt(1, 0, 0), 3)
    # every h-module is completely reducible, so necessity cannot fail; no
    # sufficient criterion applies either (H^0 != ker quabla_0)
    assert v.status == "Unknown"
    assert v.basis_of_decision == "Truncated"
    assert not v.details["predicates"][1]


def test_verdict_monotone_in_window(gl21, gl21_borel):
    v2 = bgg_verdict(gl21, gl21_borel, wt(1, 0, 0), 2)
    v3 = bgg_verdict(gl21, gl21_borel, wt(1, 0, 0), 3)
    assert v2.status == v3.status == "Exists"
    assert v2.shape.degrees == v3.shape.degrees[:3]


def test_verdict_shape_degree_zero(gl12, gl12_borel):
    v = bgg_verdict(gl12, gl12_borel, wt(1, 0, 0), 2)
    assert v.shape.degrees[0] == [(wt(1, 0, 0), 1)]


def test_reproduce_registry_smoke():
    assert reproduce("osp12-counterexample", lam=1)["passed"]
    assert reproduce("glmn-borel-natural")["passed"]
    assert reproduce("star-gl")["passed"]
    assert reproduce("kac-gl21")["passed"]
    with pytest.raises(UnknownScenario):
        reproduce("nonexistent-scenario")


def test_reproduce_osp46_scenarios():
    assert reproduce("bggtaut", m=4, n=3, k_max=3)["passed"]
    assert reproduce("forlapl-ker1")["passed"]


@pytest.mark.parametrize("optimize", [False, True])
def test_miscounted_length_fails_the_reduced_word_check(optimize):
    """The length of each coset element (positive even roots sent negative)
    must be the length of its breadth-first word: with the one positive
    even root of gl(2|1) counted twice, the reflection's word has length 1
    and its count 2, and weyl_coset raises CrossCheckFailed, also under
    `python -O`.  2 rho_0 stays regular, so the search itself is unchanged."""
    from test_cli import _run_script
    code = (
        "import json\n"
        "from superbgg import bgg\n"
        "from superbgg.algebra import build_algebra, build_parabolic\n"
        "from superbgg.errors import CrossCheckFailed\n"
        "roots = bgg.positive_even_roots\n"
        "bgg.positive_even_roots = lambda g: roots(g)[:1] + roots(g)\n"
        "g = build_algebra('gl', 2, 1)\n"
        "try:\n"
        "    bgg.weyl_coset(g, build_parabolic(g, []))\n"
        "    print(json.dumps('accepted'))\n"
        "except CrossCheckFailed as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    )
    assert "not reduced" in _run_script(code, optimize)
