"""Exact linear algebra over the rationals.

Sparse vectors are {index: value} dicts with no zero values; dense matrices
are lists of row lists with int or Fraction entries.  The package has one
elimination, `Echelon`: sparse int rows, fraction-free.  Rows are combined
with integer multipliers (`_eliminate`) and every result is divided by its
content (`_primitive`), so entries stay small: an integer-preserving
elimination in the spirit of Bareiss 1968, with content division in place
of his exact division by the previous pivot.  The chain layers hand it
their sparse int rows as they are, keyed by chain-space index, and read
its kernels (`Echelon.kernel`) back as sparse int vectors over the same
indices.  The dense entry points (`rref`, `int_rref`, `rank`,
`independent_columns`, `is_positive_definite`, and through them
`nullspace`, `solve` and `inverse`) serve the algebra and module layers:
each clears its rows of denominators (`_int_vec`) and runs through the
same elimination.  Fractions are formed only when a reduced row is finally
divided by its pivot, and only for the entries that are not integral;
`int_rref` returns the int rows themselves.
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


# ---------------------------------------------------------------------------
# the elimination: sparse int rows
# ---------------------------------------------------------------------------

def _primitive(col: dict, positive_lead: bool = False) -> dict:
    """The multiple of a sparse int column (no zero entries) whose entries
    are coprime: the positive one, or with `positive_lead` the one whose
    entry at the smallest index is positive."""
    cont = gcd(*col.values())
    if positive_lead and col and col[min(col)] < 0:
        cont = -cont
    return {r: v // cont for r, v in col.items()} if cont != 1 else col


def _eliminate(v: dict, row: dict, lead: int) -> dict:
    """Primitive part of (p/g)*v - (f/g)*row, with p = row[lead] > 0,
    f = v[lead] and g = gcd(p, f): a positive multiple of v - (f/p)*row,
    which vanishes at `lead`."""
    p, f = row[lead], v[lead]
    g = gcd(p, f)
    a, b = p // g, f // g
    out = {t: a * x for t, x in v.items()} if a != 1 else dict(v)
    for t, y in row.items():
        z = out.get(t, 0) - b * y
        if z:
            out[t] = z
        else:
            del out[t]
    return _primitive(out)


def _int_vec(row: list) -> dict:
    """A dense row of ints and Fractions as a sparse int row: the row times
    the lcm of its denominators, a positive multiple."""
    vec = {j: x for j, x in enumerate(row) if x}
    den = lcm(1, *(x.denominator for x in vec.values()))
    return {j: x.numerator * (den // x.denominator) for j, x in vec.items()}


class Echelon:
    """Echelon basis of the span of sparse int vectors, built one vector at
    a time: `rows` maps a lead (smallest index) to a primitive int row with
    a positive entry there.  The leads are the pivot columns of the RREF of
    the span, whose rows `reduce` produces.

    A vector is reduced only by the rows at its successive leads, so where
    every index has one weight (as in a chain space) a weight-homogeneous
    vector meets only rows of its own weight and stays homogeneous."""

    def __init__(self, vecs=()):
        self.rows: dict = {}            # lead index -> row
        for vec in vecs:
            self.add(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: dict) -> dict | None:
        """Reduce `vec`; store and return the new row, or None if dependent."""
        v, rows = vec, self.rows
        while v:
            lead = min(v)
            row = rows.get(lead)
            if row is None:
                row = rows[lead] = _primitive(v, positive_lead=True)
                return row
            v = _eliminate(v, row, lead)
        return None

    def reduce(self) -> "Echelon":
        """Back substitution: clear every row at the other rows' leads, so
        each row is a positive multiple of an RREF row.  Returns self."""
        rows = self.rows
        for b in sorted(rows, reverse=True):
            row_b = rows[b]
            for a, row_a in rows.items():
                if a < b and b in row_a:
                    rows[a] = _eliminate(row_a, row_b, b)
        return self

    def kernel(self, cols) -> list:
        """Nullspace basis of the reduced rows over the indices `cols` (in
        increasing order, holding every index of the rows), as sparse
        primitive int vectors in ascending key order: for each free index f
        of `cols`, L times the RREF kernel vector (1 at f, 0 at the other
        free indices), so v[f] = L and v[c] = -row[f] * L / row[c] for the
        row with lead c < f.  L, the lcm of row[c] / gcd(row[c], row[f]),
        is the least that makes v integral, and then v is primitive."""
        hits: dict = {}
        for c in sorted(self.rows):
            row = self.rows[c]
            p = row[c]
            for f, x in row.items():
                if f != c:
                    hits.setdefault(f, []).append((x, p, c))
        basis = []
        for f in cols:
            if f in self.rows:
                continue
            fh = hits.get(f, ())
            mult = lcm(1, *(p // gcd(p, x) for x, p, _ in fh))
            v = {c: -x * mult // p for x, p, c in fh}
            v[f] = mult
            basis.append(v)
        return basis


def spans_meet(cols_a: list, cols_b: list) -> bool:
    """Whether span(cols_a) and span(cols_b) share a nonzero vector, for
    independent lists A and B of sparse int vectors: whether one of A then
    B is dependent on the vectors before it."""
    if not (cols_a and cols_b):
        return False
    ech = Echelon()
    return any(ech.add(col) is None for col in cols_a + cols_b)


# ---------------------------------------------------------------------------
# dense entry points, for the algebra and module layers
# ---------------------------------------------------------------------------

def echelon(mat: list) -> Echelon:
    """The Echelon of the rows of a dense matrix of ints and Fractions."""
    return Echelon(_int_vec(row) for row in mat)


def rref(mat: list) -> tuple[list, list]:
    """Reduced row echelon form (copy) and the list of pivot columns.

    The elimination runs on ints (`int_rref`); each nonzero row is divided
    by its pivot only at the end, so an entry is an int where it is integral
    and a Fraction where it is not.  Zero rows are int rows.
    """
    ncols = len(mat[0]) if mat else 0
    rows, pivots = int_rref(mat)
    out = [[_exact(x, row[pc]) for x in row] for row, pc in zip(rows, pivots)]
    out.extend([0] * ncols for _ in range(len(mat) - len(rows)))
    return out, pivots


def int_rref(mat: list) -> tuple[list, list]:
    """Fraction-free reduced echelon form: (rows, pivots) with `rows[r]` a
    primitive int row, positive at `pivots[r]` and zero in every other
    pivot column.

    Row r of rref(mat) is rows[r] / rows[r][pivots[r]]; zero rows are
    dropped."""
    ncols = len(mat[0]) if mat else 0
    rows = echelon(mat).reduce().rows
    pivots = sorted(rows)
    return [[rows[c].get(j, 0) for j in range(ncols)] for c in pivots], pivots


def rank(mat: list) -> int:
    return echelon(mat).rank


def nullspace(mat: list, ncols: int | None = None) -> list:
    """Basis of {x : mat.x = 0}, the RREF kernel vectors as dense Fraction
    rows: each `Echelon.kernel` vector divided by its entry at its free
    column, its last key."""
    n = len(mat[0]) if mat else ncols or 0
    out = []
    for v in echelon(mat).reduce().kernel(range(n)):
        last = v[next(reversed(v))]
        out.append([Fraction(v.get(j, 0), last) for j in range(n)])
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
    """Indices of a first-come maximal independent subset of column vectors:
    those that an Echelon of the columns before them does not span."""
    ech = Echelon()
    return [j for j, col in enumerate(cols) if ech.add(_int_vec(col)) is not None]


def is_positive_definite(gram: list) -> bool:
    """Sylvester criterion on an exact symmetric matrix.

    Eliminates below the diagonal without row exchanges, on sparse int rows
    (`_eliminate`).  Every step scales rows by positive numbers only, so
    when row k becomes the pivot row its diagonal entry has the sign of
    D_{k+1} / D_k, where D_j is the j-th leading principal minor and
    D_0 = 1."""
    m = [_int_vec(row) for row in gram]
    for k, prow in enumerate(m):
        if prow.get(k, 0) <= 0:
            return False
        for i in range(k + 1, len(m)):
            if k in m[i]:
                m[i] = _eliminate(m[i], prow, k)
    return True
