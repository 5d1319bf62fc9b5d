import math
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (identity, oracle_intersection_dim, oracle_kernel,
                     oracle_positive_definite, oracle_rref, rank_dense, sparse_rows)
from superbgg import linalg
from superbgg.linalg import Echelon, _primitive

F = Fraction


def mat(rows):
    return [[F(x) for x in row] for row in rows]


def test_rref_pivots():
    m, piv = linalg.rref(mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    assert piv == [0, 2]
    assert m[0] == [F(1), F(2), F(0)]


def test_rank_and_nullspace():
    a = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert linalg.rank(a) == 2
    ns = linalg.nullspace(a)
    assert len(ns) == 1
    assert all(not any(sum(row[i] * v[i] for i in range(3)) for row in a) or True
               for v in ns)
    for v in ns:
        assert all(sum(row[i] * v[i] for i in range(3)) == 0 for row in a)


def test_nullspace_empty_matrix():
    assert linalg.nullspace([], ncols=3) == identity(3)


def test_solve_and_inverse():
    a = mat([[2, 1], [1, 1]])
    x = linalg.solve(a, [F(3), F(2)])
    assert x == [F(1), F(1)]
    assert linalg.solve(mat([[1, 0], [1, 0]]), [F(0), F(1)]) is None
    inv = linalg.inverse(a)
    assert linalg.mat_mul(a, inv) == identity(2)
    with pytest.raises(ValueError):
        linalg.inverse(mat([[1, 1], [1, 1]]))


def test_independent_columns_first_come():
    cols = [[F(1), F(0)], [F(2), F(0)], [F(0), F(1)]]
    assert linalg.independent_columns(cols) == [0, 2]


def test_spans_meet():
    a = [{0: 1}, {1: 1}]
    b = [{1: 1}, {2: 1}]
    assert linalg.spans_meet(a, b)
    assert not linalg.spans_meet(a, [{2: 1}])
    assert linalg.spans_meet(a, [{0: 2, 1: -3}])
    assert not linalg.spans_meet(a, []) and not linalg.spans_meet([], b)


def test_positive_definite():
    assert linalg.is_positive_definite(mat([[2, 1], [1, 2]]))
    assert not linalg.is_positive_definite(mat([[1, 2], [2, 1]]))
    assert not linalg.is_positive_definite(mat([[0, 1], [1, 0]]))


def test_vec_helpers():
    acc = {0: F(1)}
    linalg.vec_iadd(acc, {0: F(-1), 1: F(2)})
    assert acc == {1: F(2)}
    assert linalg.vec_scale({1: F(2)}, F(0)) == {}


def test_vec_iadd_keeps_int_sums_int():
    """Int inputs give int sums, new keys and the default scale included;
    Fraction inputs still give exact sums."""
    acc = {0: 3}
    linalg.vec_iadd(acc, {0: 2, 1: -1, 2: 5})
    linalg.vec_iadd(acc, {1: 1, 3: 4}, -2)
    assert acc == {0: 5, 1: -3, 2: 5, 3: -8}
    assert all(type(v) is int for v in acc.values())
    acc = {0: F(1, 3)}
    linalg.vec_iadd(acc, {0: F(-1, 3), 1: 2}, F(1, 2))
    linalg.vec_iadd(acc, {0: 1, 2: F(2, 3)})
    assert acc == {0: F(7, 6), 1: 1, 2: F(2, 3)}


small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.lists(st.lists(small_fraction, min_size=3, max_size=3),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_rank_transpose_and_kernel_property(rows):
    m = [list(r) for r in rows]
    assert linalg.rank(m) == linalg.rank(linalg.transpose(m))
    for v in linalg.nullspace(m):
        assert all(sum(row[i] * v[i] for i in range(3)) == 0 for row in m)
    assert linalg.rank(m) + len(linalg.nullspace(m)) == 3


# ---------------------------------------------------------------------------
# fraction-free elimination against the Fraction Gauss-Jordan oracle
# ---------------------------------------------------------------------------

entry = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.builds(F, st.integers(min_value=-10**9, max_value=10**9),
              st.integers(min_value=1, max_value=10**9)),
)


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    """Dense matrices of ints and Fractions, possibly empty, with some rows
    and columns forced to zero and some rows repeating combinations."""
    nrows = draw(st.integers(min_value=0, max_value=max_rows))
    ncols = draw(st.integers(min_value=0, max_value=max_cols))
    m = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if nrows:
        for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
            m[i] = [0] * ncols
    if ncols:
        for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
            for row in m:
                row[j] = 0
    if nrows >= 3 and draw(st.booleans()):
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        m[2] = [a + c * b for a, b in zip(m[0], m[1])]
    return m


def mat_times(a, cols, ncols):
    return [[sum((row[t] * v[t] for t in range(ncols)), F(0)) for row in a]
            for v in cols]


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rref_matches_fraction_oracle(m):
    red, piv = linalg.rref(m)
    want_red, want_piv = oracle_rref(m)
    assert piv == want_piv
    assert red == want_red
    assert all(type(x) is int or (type(x) is F and x.denominator != 1)
               for row in red for x in row)
    ncols = len(m[0]) if m else 0
    assert linalg.rank(m) == (len(want_piv) if ncols else 0)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_int_rref_scales_the_exact_rref(m):
    """int_rref rows are primitive int rows, each its pivot times the
    oracle's RREF row."""
    ncols = len(m[0]) if m else 0
    rows, piv = linalg.int_rref(m)
    want_red, want_piv = oracle_rref(m)
    assert piv == (want_piv if ncols else [])
    for row, pc, want in zip(rows, piv, want_red):
        assert all(type(x) is int for x in row) and gcd(*row) == 1
        assert [F(x, row[pc]) for x in row] == want


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_rref_pivots_and_kernel_basis_match_oracles(m):
    """The RREF pivots are the first-come independent columns (so a block's
    pivot columns are its image basis), and nullspace, read off the int
    RREF by Echelon.kernel, is the oracle's kernel basis vector for
    vector."""
    ncols = len(m[0]) if m else 0
    red, pivots = linalg.rref(m)
    cols = [[row[c] for row in m] for c in range(ncols)]
    nonzero = [c for c in range(ncols) if any(cols[c])]
    assert pivots == [nonzero[i] for i in
                      linalg.independent_columns([cols[c] for c in nonzero])]
    assert linalg.nullspace(m, ncols=ncols) == oracle_kernel(m, ncols)


def _primitive_multiple(vec):
    """The positive multiple of a rational vector with coprime int entries."""
    den = math.lcm(1, *(F(x).denominator for x in vec))
    ints = [int(x * den) for x in vec]
    cont = math.gcd(*ints) or 1
    return [x // cont for x in ints]


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_echelon_kernel_is_the_primitive_oracle_kernel(m):
    """Echelon.kernel's vectors, read off the reduced rows, are sparse over
    the given indices, in ascending key order, and the positive primitive
    multiples of the oracle's kernel basis (1 at the free column, the last
    key), vector for vector."""
    ncols = len(m[0]) if m else 0
    ech = linalg.echelon(m).reduce()
    got = ech.kernel(range(ncols))
    want = oracle_kernel(m, ncols)
    assert len(got) == len(want)
    for v, u in zip(got, want):
        assert list(v) == sorted(v) and all(type(x) is int and x for x in v.values())
        assert math.gcd(*v.values()) == 1
        dense = [v.get(c, 0) for c in range(ncols)]
        assert dense == _primitive_multiple(u)
        f = next(c for c in range(ncols) if u[c] == 1 and c not in ech.rows)
        assert f == max(v) and v[f] > 0 and [F(x, v[f]) for x in dense] == u


@st.composite
def independent_pair(draw):
    """Two lists of independent int columns of one length, often meeting."""
    n = draw(st.integers(min_value=1, max_value=5))
    col = st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n)

    def independent(cols):
        out = []
        for c in cols:
            if rank_dense(out + [c]) > len(out):
                out.append(c)
        return out

    a = independent(draw(st.lists(col, max_size=4)))
    b = draw(st.lists(col, max_size=4))
    if a and b and draw(st.booleans()):         # put a vector of span A in B
        b[0] = [sum(draw(st.integers(-2, 2)) * c[i] for c in a) for i in range(n)]
    return a, independent(b)


@given(independent_pair())
@settings(max_examples=200, deadline=None)
def test_spans_meet_matches_intersection_oracle(pair):
    """The rank test says two independent lists meet exactly when the
    Fraction-kernel oracle finds a nonzero intersection."""
    a, b = pair
    idxs = range(len((a + b)[0])) if a + b else ()
    assert linalg.spans_meet(sparse_rows(a, idxs), sparse_rows(b, idxs)) == (
        oracle_intersection_dim(a, b) > 0)


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_kernel_solve_inverse_against_oracle(m):
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    ns = linalg.nullspace(m, ncols=ncols)
    rank = len(oracle_rref(m)[1])
    assert len(ns) == ncols - rank
    assert all(not any(img) for img in mat_times(m, ns, ncols))
    rhs = [[F(i + 1, 3) for i in range(nrows)]]
    if ncols:
        rhs.append([row[0] for row in m])      # always consistent
    for b in rhs:
        x = linalg.solve(m, b)
        consistent = ncols not in oracle_rref([row + [bi] for row, bi in zip(m, b)])[1]
        if x is None:
            assert not consistent
        else:
            assert mat_times(m, [x], ncols)[0] == b
    if nrows == ncols and nrows:
        if rank == nrows:
            inv = linalg.inverse(m)
            assert all(type(x) is int or (type(x) is F and x.denominator != 1)
                       for row in inv for x in row)
            assert linalg.mat_mul(inv, [[F(x) for x in row] for row in m]) \
                == identity(nrows)
        else:
            with pytest.raises(ValueError):
                linalg.inverse(m)


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_independent_columns_first_come_property(m):
    """Column j is kept iff it is independent of the columns before it."""
    cols = linalg.transpose(m)
    keep = linalg.independent_columns(cols)
    want = [j for j in range(len(cols))
            if len(oracle_rref(linalg.transpose(cols[:j + 1]))[1])
            > len(oracle_rref(linalg.transpose(cols[:j]))[1] if j else [])]
    assert keep == want


@given(matrices(max_rows=5, max_cols=5))
@settings(max_examples=120, deadline=None)
def test_positive_definite_matches_oracle(m):
    """On Gram matrices B^T B (+ a shifted diagonal) of every signature."""
    n = len(m[0]) if m else 0
    gram = [[sum((row[i] * row[j] for row in m), F(0)) for j in range(n)]
            for i in range(n)]
    for shift in (0, 1, -1):
        g = [[x + (shift if i == j else 0) for j, x in enumerate(row)]
             for i, row in enumerate(gram)]
        assert linalg.is_positive_definite(g) == oracle_positive_definite(g)


# ---------------------------------------------------------------------------
# the sparse echelon
# ---------------------------------------------------------------------------

@st.composite
def _weight_homogeneous_vectors(draw):
    n = draw(st.integers(1, 7))
    weights = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    vecs = []
    for _ in range(draw(st.integers(0, 9))):
        w = draw(st.sampled_from(weights))
        idxs = [t for t in range(n) if weights[t] == w]
        vec = {t: c for t in idxs if (c := draw(st.integers(-4, 4)))}
        if vec:
            vecs.append(vec)
    return weights, vecs


@given(_weight_homogeneous_vectors())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_weight_echelon_rank_matches_linalg_rank(case):
    """Echelon's rank is the rank of the vectors, and its rows are
    primitive int rows with a positive lead."""
    weights, vecs = case
    echelon = Echelon()
    for vec in vecs:
        echelon.add(vec)
    dense = [[vec.get(t, 0) for t in range(len(weights))] for vec in vecs]
    assert echelon.rank == (linalg.rank(dense) if dense else 0)
    for lead, row in echelon.rows.items():
        assert lead == min(row) and row[lead] > 0
        assert len({weights[t] for t in row}) == 1
        assert all(type(x) is int for x in row.values())
        assert math.gcd(*row.values()) == 1


def test_primitive_divides_out_content_and_fixes_the_sign():
    """_primitive divides a sparse int column by its content; it keeps the
    sign unless `positive_lead` asks for a positive entry at the smallest
    index."""
    assert _primitive({3: -12, 5: 18, 1: 2}) == {1: 1, 3: -6, 5: 9}
    assert _primitive({2: -6, 4: 4}) == {2: -3, 4: 2}
    assert _primitive({2: -6, 4: 4}, positive_lead=True) == {2: 3, 4: -2}
    assert _primitive({2: 3, 4: -2}, positive_lead=True) == {2: 3, 4: -2}
    assert _primitive({}) == {}
