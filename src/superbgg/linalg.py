"""Exact linear algebra over the rationals.

Dense matrices are lists of row lists with Fraction (or int) entries; sparse
vectors are {index: Fraction} dicts with no zero values.  All elimination is
fraction-free: each row is cleared of denominators, rows are combined with
integer multipliers and divided by their content so entries stay small (an
integer-preserving elimination in the spirit of Bareiss 1968, with content
division in place of his exact division by the previous pivot), and
Fractions are formed only when a reduced row is finally divided by its pivot,
and only for the entries that are not integral.  `int_rref` returns the int
rows themselves and forms no Fraction at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _exact(x, den: int = 1):
    """x / den, for x an int or a Fraction and den a nonzero int: an int
    where the quotient is integral and a Fraction where it is not.  This is
    the package's one number convention, for matrix entries, structure
    constants and weight coordinates alike; int arithmetic is far cheaper
    than Fraction arithmetic on the same values."""
    return x // den if x % den == 0 else Fraction(x, den)


# ---------------------------------------------------------------------------
# sparse vectors
# ---------------------------------------------------------------------------

def vec_iadd(acc: dict, vec: dict, scale=1) -> dict:
    """acc += scale * vec, dropping zeros. Mutates and returns acc.

    New keys are seeded with the int 0, so int inputs give int sums."""
    if not scale:
        return acc
    for k, v in vec.items():
        new = acc.get(k, 0) + scale * v
        if new:
            acc[k] = new
        else:
            acc.pop(k, None)
    return acc


def vec_scale(vec: dict, scale) -> dict:
    if not scale:
        return {}
    return {k: scale * v for k, v in vec.items()}


# ---------------------------------------------------------------------------
# dense matrices
# ---------------------------------------------------------------------------

def mat_mul(a: list, b: list) -> list:
    n, k = len(a), len(b)
    p = len(b[0]) if b else 0
    out = [[0] * p for _ in range(n)]      # int products of int matrices stay int
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(p):
                    if bt[j]:
                        oi[j] += x * bt[j]
    return out


def transpose(a: list) -> list:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def _int_rows(mat: list, integral: bool = False) -> list:
    """Each row scaled to a primitive int row (a positive rational multiple).

    Entries may be ints or Fractions; scaling a row by a positive number
    changes neither the row space, the RREF nor the sign of a minor.
    `integral` promises int entries: only the content is divided out."""
    out = []
    for row in mat:
        if not integral:
            den = lcm(*(x.denominator for x in row if x))
            row = [x.numerator * (den // x.denominator) for x in row]
        cont = gcd(*row)
        out.append([x // cont for x in row] if cont > 1 else row)
    return out


def _combine(row: list, prow: list, p: int, f: int) -> list:
    """Primitive part of (p/g)*row - (f/g)*prow with g = gcd(p, f).

    With `f` the entry of `row` in the pivot column of `prow` and `p` the
    pivot, the result vanishes in that column; for p > 0 it is a positive
    multiple of row - (f/p)*prow."""
    g = gcd(p, f)
    a, b = p // g, f // g
    out = [a * x - b * y for x, y in zip(row, prow)]
    cont = gcd(*out)
    return [x // cont for x in out] if cont > 1 else out


def _echelon(mat: list, reduce: bool, integral: bool = False) -> tuple[list, list]:
    """Fraction-free elimination over Python ints.

    Returns (rows, pivots): `rows[r]` is a primitive int row whose leading
    entry sits in column `pivots[r]`.  Rows are cleared with `_combine`, so
    entries stay content-reduced and every step is exact.  With `reduce` the
    entries above each pivot are cleared too (Gauss-Jordan); without it only
    the rows below are touched, which suffices for the pivots.
    """
    m = _int_rows(mat, integral)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(0 if reduce else r + 1, nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = _combine(m[i], prow, p, f)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def rref(mat: list) -> tuple[list, list]:
    """Reduced row echelon form (copy) and the list of pivot columns.

    The elimination runs on ints (`_echelon`); each nonzero row is divided
    by its pivot only at the end, so an entry is an int where it is integral
    and a Fraction where it is not.  Zero rows are int rows.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rows, pivots = _echelon(mat, reduce=True)
    out = []
    for row, pc in zip(rows, pivots):
        p = row[pc]
        out.append([_exact(x, p) for x in row])
    out.extend([0] * ncols for _ in range(nrows - len(rows)))
    return out, pivots


def int_rref(mat: list, integral: bool = False) -> tuple[list, list]:
    """Fraction-free reduced echelon form: (rows, pivots) with `rows[r]` a
    primitive int row that vanishes in every pivot column but `pivots[r]`.

    Row r of rref(mat) is rows[r] / rows[r][pivots[r]]; zero rows are
    dropped; `integral` promises int entries.  The eliminations of
    `homology` run through this name, so a layer trace reports them as
    `linalg.int_rref` spans, apart from the `linalg.rref` calls of every
    other layer."""
    return _echelon(mat, reduce=True, integral=integral)


def rank(mat: list) -> int:
    if not mat or not mat[0]:
        return 0
    return len(_echelon(mat, reduce=False)[1])


def int_kernel(rows: list, pivots: list, ncols: int) -> list:
    """Nullspace basis read off (rows, pivots) = int_rref(mat): for each free
    column f, L times the RREF kernel vector (1 at f, 0 at the other free
    columns), so v[f] = L and v[p_r] = -rows[r][f] * L / p_r with p_r the
    pivot of row r.  L, the lcm of p_r / gcd(p_r, rows[r][f]), is the least
    that makes v integral, and then v is primitive."""
    basis = []
    for fcol in sorted(set(range(ncols)) - set(pivots)):
        hits = [(row[fcol], row[pc], pc) for row, pc in zip(rows, pivots) if row[fcol]]
        mult = lcm(1, *(p // gcd(p, x) for x, p, _ in hits))
        v = [0] * ncols
        v[fcol] = mult
        for x, p, pc in hits:
            v[pc] = -x * mult // p
        basis.append(v)
    return basis


def nullspace(mat: list, ncols: int | None = None) -> list:
    """Basis of {x : mat.x = 0}, the RREF kernel vectors as Fractions: each
    int_kernel vector divided by its last nonzero entry, the one at its
    free column (a pivot with a nonzero entry there lies left of it)."""
    out = []
    for v in int_kernel(*int_rref(mat), len(mat[0]) if mat else ncols or 0):
        last = next(x for x in reversed(v) if x)
        out.append([Fraction(x, last) for x in v])
    return out


def solve(a: list, b: list) -> list | None:
    """One exact solution of a.x = b, or None if inconsistent."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [a[i][:] + [b[i]] for i in range(nrows)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pcol in enumerate(pivots):
        x[pcol] = red[r][ncols]
    return x


def inverse(a: list) -> list:
    """Inverse of a square matrix, exact as in rref: one elimination of
    [a | I].  ValueError if a is singular."""
    n = len(a)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                        for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def independent_columns(cols: list) -> list:
    """Indices of a first-come maximal independent subset of column vectors."""
    if not cols:
        return []
    return _echelon(transpose(cols), reduce=False)[1]


def spans_meet(cols_a: list, cols_b: list) -> bool:
    """Whether span(cols_a) and span(cols_b) share a nonzero vector, for
    independent int column lists A and B: dim(span A & span B) =
    |A| + |B| - rank[A | B], one forward elimination."""
    stacked = cols_a + cols_b
    return bool(cols_a and cols_b) and \
        len(_echelon(stacked, reduce=False, integral=True)[1]) < len(stacked)


def is_positive_definite(gram: list) -> bool:
    """Sylvester criterion on an exact symmetric matrix.

    Eliminates below the diagonal without row exchanges, on ints.  Every
    step scales rows by positive numbers only, so when row k becomes the
    pivot row its diagonal entry has the sign of D_{k+1} / D_k, where D_j is
    the j-th leading principal minor and D_0 = 1."""
    m = _int_rows(gram)
    n = len(m)
    for k in range(n):
        p = m[k][k]
        if p <= 0:
            return False
        for i in range(k + 1, n):
            if m[i][k]:
                m[i] = _combine(m[i], m[k], p, m[i][k])
    return True
