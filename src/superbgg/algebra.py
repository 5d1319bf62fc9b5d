"""Matrix realizations of gl(m|n) and osp(m|2n) over exact rationals.

An algebra is a list of labeled homogeneous basis elements, each realized as
a sparse matrix on the natural module C^(m|n) resp. C^(m|2n).  The Cartan
subalgebra is diagonal, every non-Cartan basis element spans a root space,
and the invariant form is C * str(XY).  Matrix entries, structure constants,
form values, dual bases, adjoint images and weight coordinates are Python
ints wherever they are integral and exact Fractions only where they are not
(`linalg._exact`).  At C = 1 every value is an int but the non-integral
coordinates of a weight, such as those of rho on osp(5|4).  Nothing here
ever touches floats.

Construction reads matrix entries, never products of basis matrices: the
osp root vectors solve the osp condition on the rows their weight space
touches (`_build_osp`), and `_finish` certifies every root vector entrywise
through [H, X]_pq = (H_pp - H_qq) X_pq and forms each Gram entry as
C * sum (-1)^{|p|} (X_i)_pq (X_j)_qp.  Brackets are expanded on first use.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from math import lcm

from . import linalg
from .errors import (
    CrossCheckFailed,
    DegenerateForm,
    PreconditionViolated,
    UnsupportedAlgebra,
)
from .linalg import _exact

# A weight is a tuple of length r+s in the package's number convention: an
# int where a coordinate is integral and a Fraction only where it is not.
# Roots and root sums are int tuples.  wt_add and wt_sub keep the form when
# one side is integral, as int plus int is an int and a non-integral
# Fraction plus an int stays non-integral; any other sum goes through `wt`.
# Since hash(Fraction(n)) == hash(n) and Fraction(n) == n, a weight given
# with Fraction(n, 1) coordinates still finds its block, and `weight_key`
# prints both forms the same.
Weight = tuple


# ---------------------------------------------------------------------------
# weight helpers
# ---------------------------------------------------------------------------

def wt(*coords) -> Weight:
    """The weight with these coordinates (anything Fraction accepts)."""
    return tuple(_exact(Fraction(c)) for c in coords)


def wt_zero(length: int) -> Weight:
    return (0,) * length


def wt_add(a: Weight, b: Weight) -> Weight:
    return tuple(map(operator.add, a, b))


def wt_sub(a: Weight, b: Weight) -> Weight:
    return tuple(map(operator.sub, a, b))


def wt_neg(a: Weight) -> Weight:
    return tuple(map(operator.neg, a))


def wt_scale(a: Weight, c) -> Weight:
    c = Fraction(c)
    return tuple(_exact(c * x) for x in a)


def weight_key(w: Weight) -> tuple:
    """Sort key of a weight: its coordinates as strings.  Every weight order
    in reports and in block iteration is this one."""
    return tuple(map(str, w))


def wt_str(a: Weight, r: int) -> str:
    eps = ",".join(str(x) for x in a[:r])
    dlt = ",".join(str(x) for x in a[r:])
    return f"{eps}|{dlt}"


# ---------------------------------------------------------------------------
# basis elements and the algebra container
# ---------------------------------------------------------------------------

class BasisElement:
    """A basis matrix: `parity` 0 even, 1 odd; `root` the zero weight for a
    Cartan element; `matrix` {(row, col): int or Fraction} on the natural
    module."""

    def __init__(self, label: str, parity: int, root: Weight, matrix: dict,
                 is_cartan: bool = False):
        self.label, self.parity, self.root, self.matrix = label, parity, root, matrix
        self.is_cartan = is_cartan


def _row_index(matrix: dict) -> dict:
    """{row: [(col, value)]} of a sparse matrix {(row, col): value}."""
    by_row: dict = {}
    for (i, j), v in matrix.items():
        by_row.setdefault(i, []).append((j, v))
    return by_row


def _mat_mul_sparse(a: dict, by_row: dict) -> dict:
    """a @ b for sparse matrices, b given by its `_row_index`."""
    out = {}
    for (i, k), u in a.items():
        for j, v in by_row.get(k, ()):
            key = (i, j)
            new = out.get(key, 0) + u * v
            if new:
                out[key] = new
            else:
                del out[key]
    return out


class LieSuperalgebra:
    """A basic classical matrix Lie superalgebra (or a subalgebra of one).

    `kind` is 'gl' or 'osp' (subalgebras keep the parent kind), `r` and `s`
    the numbers of epsilon and delta coordinates, `simple_roots` the
    distinguished system; `nat_parity` and `nat_weight` give each natural
    module basis vector, `coord_index` the natural index realizing each unit
    coordinate."""

    def __init__(self, kind: str, m: int, n: int, r: int, s: int, basis: list,
                 simple_roots: list, form_normalization: Fraction, nat_parity: list,
                 nat_weight: list, coord_index: list, name: str = "",
                 bracket_table: dict | None = None, gram: list | None = None):
        self.kind, self.m, self.n, self.r, self.s = kind, m, n, r, s
        self.basis, self.simple_roots, self.name = basis, simple_roots, name
        self.form_normalization = form_normalization
        self.nat_parity, self.nat_weight = nat_parity, nat_weight
        self.coord_index = coord_index
        self.bracket_table = {} if bracket_table is None else bracket_table
        self.gram = [] if gram is None else gram
        self._expand_cache, self._coord_cache, self._adjoint_cache = {}, {}, {}

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def nat_dim(self) -> int:
        return len(self.nat_parity)

    @property
    def rank(self) -> int:
        return self.r + self.s

    @property
    def cartan(self) -> list:
        return [i for i, b in enumerate(self.basis) if b.is_cartan]

    def parity(self, i: int) -> int:
        return self.basis[i].parity

    def root(self, i: int) -> Weight:
        return self.basis[i].root

    def basis_index_of_root(self, root: Weight) -> int:
        for i, b in enumerate(self.basis):
            if not b.is_cartan and b.root == root:
                return i
        raise KeyError(f"no root vector with root {root}")

    # -- structure ----------------------------------------------------------

    def bracket(self, i: int, j: int) -> dict:
        """[A_i, A_j] expanded in the basis, as {k: structure constant}."""
        key = (i, j)
        hit = self.bracket_table.get(key)
        if hit is not None:
            return hit
        bi, bj = self.basis[i], self.basis[j]
        rows = self._matrix_rows
        comm = _mat_mul_sparse(bi.matrix, rows[j])
        sign = -1 if (bi.parity and bj.parity) else 1
        linalg.vec_iadd(comm, _mat_mul_sparse(bj.matrix, rows[i]), -sign)
        res = self.expand(comm)
        self.bracket_table[key] = res
        return res

    @functools.cached_property
    def _matrix_rows(self) -> list:
        """The `_row_index` of each basis matrix, formed once per algebra."""
        return [_row_index(b.matrix) for b in self.basis]

    def bracket_vec(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for i, ci in x.items():
            for j, cj in y.items():
                linalg.vec_iadd(out, self.bracket(i, j), ci * cj)
        return out

    def expand(self, matrix: dict) -> dict:
        """Expand a natural-module matrix in the algebra basis exactly."""
        if not matrix:
            return {}
        if not self._expand_cache:
            self._build_expander()
        # each nonzero selected entry contributes its column of the inverse
        coeffs: dict = {}
        for e, v in matrix.items():
            col = self._expand_cache.get(e)
            if col is not None:
                linalg.vec_iadd(coeffs, col, v)
        # verify the reconstruction: the input must lie in the algebra span
        recon: dict = {}
        for i, c in coeffs.items():
            linalg.vec_iadd(recon, self.basis[i].matrix, c)
        if recon != matrix:
            raise ValueError("matrix does not lie in the algebra span")
        return {i: _exact(coeffs[i]) for i in sorted(coeffs)}

    def _build_expander(self):
        """Inverse of the basis restricted to `dim` independent matrix
        entries, stored as sparse columns keyed by the entry."""
        entries = sorted({e for b in self.basis for e in b.matrix})
        mat = [[b.matrix.get(entry, 0) for b in self.basis] for entry in entries]
        row_pivots = linalg.independent_columns(mat)
        if len(row_pivots) != self.dim:
            raise CrossCheckFailed("basis matrices are linearly dependent")
        inv = linalg.inverse([mat[i] for i in row_pivots])
        self._expand_cache = {
            entries[i]: {r: inv[r][k] for r in range(self.dim) if inv[r][k]}
            for k, i in enumerate(row_pivots)}

    # -- weights and the form -----------------------------------------------

    def eval_weight(self, weight: Weight, cartan_vec: dict):
        """weight(H) for H given as a coefficient dict over the basis."""
        val = 0
        for i, c in cartan_vec.items():
            b = self.basis[i]
            if not b.is_cartan:
                if b.root != wt_zero(self.rank):
                    raise ValueError("element has non-Cartan components")
                continue
            for coord, p in enumerate(self.coord_index):
                w = weight[coord]
                if w:
                    val += c * w * b.matrix.get((p, p), 0)
        return _exact(val)

    def form(self, x: dict, y: dict):
        val = 0
        for i, ci in x.items():
            gi = self.gram[i]
            for j, cj in y.items():
                if gi[j]:
                    val += ci * cj * gi[j]
        return val

    @functools.cached_property
    def _weight_form(self) -> tuple:
        """(Q, D) with Q an int matrix: the form on h* induced by the
        invariant form on h is Q[c1][c2] / D on the unit coordinates.
        Q / D = K G^-1 K^T, with G the Gram of the Cartan basis and K[c][i]
        the value of the coordinate c on its i-th element, as
        (e_c1, e_c2) = e_c1(t_c2) for the t_c2 in h with (t_c2, H) = e_c2(H)."""
        hidx = self.cartan
        inv = linalg.inverse([[self.gram[i][j] for j in hidx] for i in hidx])
        coords = [[self.basis[i].matrix.get((p, p), 0) for i in hidx]
                  for p in self.coord_index]
        hform = linalg.mat_mul(linalg.mat_mul(coords, inv), linalg.transpose(coords))
        den = lcm(1, *(x.denominator for row in hform for x in row))
        return [[(x * den).numerator for x in row] for row in hform], den

    def weight_form(self, a: Weight, b: Weight) -> Fraction:
        """Form on h* induced by the invariant form on h: one int quadratic
        form over one denominator, so a Fraction is formed only at the end
        (or where a coordinate is not integral)."""
        q, den = self._weight_form
        total = 0
        for x, row in zip(a, q):
            if x:
                for y, c in zip(b, row):
                    if y and c:
                        total += x * y * c
        return Fraction(total, den)

    @functools.cached_property
    def even_coroots(self) -> tuple:
        """The coroot table (`_coroot_table`) of the simple roots of g_0, in
        `even_simple_roots` order, formed once per algebra."""
        return _coroot_table(self, even_simple_roots(self))

    @functools.cached_property
    def two_rho(self) -> Weight:
        """The even positive roots minus the odd ones, an integral root sum,
        formed once per algebra."""
        acc = wt_zero(self.rank)
        for i in self.positive_root_indices():
            b = self.basis[i]
            acc = (wt_sub if b.parity else wt_add)(acc, b.root)
        return acc

    # -- roots --------------------------------------------------------------

    @functools.cached_property
    def _coordinate_rows(self) -> list:
        """(u, c, p) for each row of int_rref([S | I]), S the simple roots as
        columns: a weight w lies in their span iff u . w = 0 on every row
        with c = None, and its coordinate at simple root c is u . w / p."""
        ns = len(self.simple_roots)
        rows, pivots = linalg.int_rref(
            [[sr[c] for sr in self.simple_roots] + [int(c == d) for d in range(self.rank)]
             for c in range(self.rank)])
        return [(row[ns:], pc if pc < ns else None, row[pc])
                for row, pc in zip(rows, pivots)]

    def simple_coordinates(self, weight: Weight):
        """Coefficients of a weight in the simple-root basis (ints where
        integral), or None outside their span."""
        hit = self._coord_cache.get(weight, False)
        if hit is not False:
            return hit
        sol = [0] * len(self.simple_roots)
        for u, c, p in self._coordinate_rows:
            val = sum(x * y for x, y in zip(u, weight) if x and y)
            if c is None:
                if val:
                    sol = None
                    break
            else:
                sol[c] = _exact(val, p)
        self._coord_cache[weight] = sol
        return sol

    def is_positive_root(self, root: Weight) -> bool:
        if root == wt_zero(self.rank):
            return False
        coords = self.simple_coordinates(root)
        if coords is None:
            return False
        return all(c >= 0 for c in coords)

    def height(self, weight: Weight):
        coords = self.simple_coordinates(weight)
        if coords is None:
            return None
        return sum(coords)

    def positive_root_indices(self) -> list:
        return [
            i for i, b in enumerate(self.basis)
            if not b.is_cartan and self.is_positive_root(b.root)
        ]

    @functools.cached_property
    def rho(self) -> Weight:
        """Half of `two_rho`, formed once per algebra."""
        return wt_scale(self.two_rho, Fraction(1, 2))

    @functools.cached_property
    def _simple_vectors(self) -> tuple[tuple, tuple]:
        pos = tuple(self.basis_index_of_root(a) for a in self.simple_roots)
        neg = tuple(self.basis_index_of_root(wt_neg(a)) for a in self.simple_roots)
        return pos, neg

    def simple_vector_indices(self) -> tuple[tuple, tuple]:
        """Basis indices of the positive/negative simple root vectors, found
        once per algebra; tuples, so no caller can change the shared answer."""
        return self._simple_vectors

    # -- derived subalgebras --------------------------------------------------

    def subalgebra(self, indices: list, simple_roots: list, name: str) -> "LieSuperalgebra":
        """Subalgebra spanned by the given basis indices (must be closed)."""
        index_map = {old: new for new, old in enumerate(indices)}
        sub = LieSuperalgebra(
            kind=self.kind,
            m=self.m,
            n=self.n,
            r=self.r,
            s=self.s,
            basis=[self.basis[i] for i in indices],
            simple_roots=list(simple_roots),
            form_normalization=self.form_normalization,
            nat_parity=self.nat_parity,
            nat_weight=self.nat_weight,
            coord_index=self.coord_index,
            name=name,
        )
        sub.gram = [[self.gram[i][j] for j in indices] for i in indices]
        for (a, b) in itertools.product(range(len(indices)), repeat=2):
            bk = self.bracket(indices[a], indices[b])
            try:
                sub.bracket_table[(a, b)] = {index_map[k]: v for k, v in bk.items()}
            except KeyError:
                raise ValueError(f"{name}: basis subset is not bracket-closed")
        return sub


def casimir_eigenvalue(g: LieSuperalgebra, lam: Weight) -> Fraction:
    """Value (lam, lam + 2 rho) of the quadratic Casimir on highest weight lam."""
    if len(lam) != g.rank:
        raise PreconditionViolated(f"weight length {len(lam)} != rank {g.rank}")
    return g.weight_form(lam, wt_add(lam, g.two_rho))


def positive_even_roots(g: LieSuperalgebra, indices=None) -> list:
    """The distinct positive even roots, in weight_key order; with
    `indices`, those of the basis elements they name."""
    pos = g.positive_root_indices()
    if indices is not None:
        pos = set(pos).intersection(indices)
    return sorted({g.root(i) for i in pos if g.parity(i) == 0}, key=weight_key)


def even_simple_roots(g: LieSuperalgebra, indices=None) -> list:
    """Simple system of the even subalgebra g_0 inside the positive even
    roots, in weight_key order.  With `indices`, the basis of a subalgebra
    whose positive roots are g's positive roots in it, such as a Levi l,
    that of l_0, without building l."""
    pos_even = positive_even_roots(g, indices)
    pos_set = set(pos_even)
    return [a for a in pos_even
            if not any(wt_sub(a, b) in pos_set for b in pos_even if b != a)]


# ---------------------------------------------------------------------------
# the even Weyl group
# ---------------------------------------------------------------------------

def _coroot_table(g: LieSuperalgebra, roots: list) -> tuple:
    """(a, row, norm) for each even simple root a in `roots`, row the int
    form on h* (`_weight_form`) times a as sparse (coordinate, value) pairs
    and norm = a . row: then (w, a^v) = 2 (w, a) / (a, a) = 2 (w . row) /
    norm, int products wherever w is integral.  An isotropic root has no
    reflection: CrossCheckFailed."""
    q, table = g._weight_form[0], []
    for a in roots:
        row = [sum(x * y for x, y in zip(qrow, a)) for qrow in q]
        norm = sum(x * y for x, y in zip(a, row))
        if not norm:
            raise CrossCheckFailed(f"the even simple root {wt_str(a, g.r)} is isotropic")
        table.append((a, tuple((c, x) for c, x in enumerate(row) if x), norm))
    return tuple(table)


def _coroot_pairing(w: Weight, coroot: tuple):
    """(w, a^v) for an entry (a, row, norm) of a coroot table."""
    _, row, norm = coroot
    return _exact(2 * sum([w[c] * x for c, x in row]), norm)


def _weyl_act(coroots: tuple, word: tuple, w: Weight) -> Weight:
    """s_i1 ... s_ik (w) for the word (i1, .., ik) over the table
    `coroots`, the last letter first: s_a(w) = w - (w, a^v) a."""
    for i in reversed(word):
        a, c = coroots[i][0], _coroot_pairing(w, coroots[i])
        w = tuple(x - c * y for x, y in zip(w, a))
    return w


def _first_off_dominant(coroots: tuple, w: Weight) -> tuple | None:
    """(a, (w, a^v)) at the first root a of the table where the pairing is
    not in Z>=0, or None where w is dominant integral."""
    for co in coroots:
        c = _coroot_pairing(w, co)
        if c < 0 or c.denominator != 1:
            return co[0], c
    return None


def _step_to_dominant(coroots: tuple, w: Weight) -> Weight | None:
    """s_a(w) at the first root a of the table with (w, a^v) < 0, or None
    where there is none; CrossCheckFailed where that pairing is not an
    integer.  Each step adds a positive multiple of a positive root."""
    for i, co in enumerate(coroots):
        c = _coroot_pairing(w, co)
        if c < 0:
            if c.denominator != 1:
                raise CrossCheckFailed(f"a coroot pairs {w} to a non-integer")
            return _weyl_act(coroots, (i,), w)
    return None


def check_finite_dimensional(g: LieSuperalgebra, lam: Weight) -> None:
    """Raise PreconditionViolated unless the irreducible module of highest
    weight `lam` (for this code's simple system) is finite dimensional.

    lam must be dominant integral for the even subalgebra: 2(lam, a)/(a, a)
    in Z>=0 for every simple root a of g_0 (`even_coroots`).  For gl(m|n),
    osp(1|2n) and osp(2|2n) that is all (Kac 1977).  For osp(m|2n) with m = 2d or 2d+1
    >= 3 and n >= 1, the simple system here, eps1-eps2, .., eps_d-delta1,
    delta1-delta2, .., is not Kac's distinguished one, delta1-delta2, ..,
    delta_n-eps1, eps1-eps2, ..  Odd reflections carry the one to the other:
    move delta_j (j = 1..n) left past eps_d, .., eps_1.  Each step reflects
    at the simple isotropic root alpha = eps_i - delta_j, and the same module
    then has highest weight lam - alpha if (lam, alpha) != 0, else lam.
    Kac's condition on the final weight lam' = sum a_i eps_i + sum
    b_j delta_j is that lam' is even-dominant and, if b_n < d, that
    a_{b_n+1} = .. = a_d = 0 (Cheng-Wang, Dualities and Representations of
    Lie Superalgebras, Thm. 2.11).

    The second clause follows from the even dominance of lam, so only that
    of lam' is checked.  Were b_n = k < d with a_{k+1} > 0, then undoing
    the reflections moves delta_n right past eps_1, .., eps_d first: at
    eps_i, i <= k+1, (lam', delta_n - eps_i) is a nonzero multiple of
    b_n + a_i >= (k - i + 1) + a_i > 0, so b_n drops by one each time, to
    -1; later steps never raise it.  Then lam has delta_n coordinate < 0,
    which is not dominant for the even root 2 delta_n.
    """
    def require_even_dominant(mu: Weight, what: str) -> None:
        if (off := _first_off_dominant(g.even_coroots, mu)) is not None:
            raise PreconditionViolated(
                f"{what} is not dominant integral for the even simple root "
                f"{wt_str(off[0], g.r)} (2(lam,a)/(a,a) = {off[1]})")

    require_even_dominant(lam, f"weight {wt_str(lam, g.r)}")
    if g.kind != "osp" or g.m < 3 or g.n < 1:
        return

    def unit(c: int) -> Weight:
        return tuple(int(t == c) for t in range(g.rank))

    d, mu = g.r, lam
    for j in range(g.n):
        for i in reversed(range(d)):
            alpha = wt_sub(unit(i), unit(d + j))
            if g.weight_form(mu, alpha):
                mu = wt_sub(mu, alpha)
    require_even_dominant(mu, f"weight {wt_str(mu, g.r)}, the highest weight "
                              f"of L({wt_str(lam, g.r)}) for Kac's distinguished "
                              "simple system,")


def dual_basis_in(g: LieSuperalgebra, of_indices: list, in_indices: list) -> list:
    """For each basis element xi_a (a over of_indices) the vector xi_a^# in
    the span of in_indices with (xi_a^#, xi_b) = delta_ab exactly."""
    if len(of_indices) != len(in_indices):
        raise ValueError("pairing requires equidimensional spaces")
    # row a of inverse(gram) gives coefficients with sum_i c_i (A_in_i, A_of_b) = delta_ab
    inv = linalg.inverse([[g.gram[i][j] for j in of_indices] for i in in_indices])
    return [
        {in_indices[i]: inv[a][i] for i in range(len(in_indices)) if inv[a][i]}
        for a in range(len(of_indices))
    ]


# ---------------------------------------------------------------------------
# construction of gl(m|n)
# ---------------------------------------------------------------------------

def _build_gl(m: int, n: int, C: Fraction) -> LieSuperalgebra:
    d = m + n
    nat_parity = [0] * m + [1] * n
    rank = m + n
    nat_weight = [tuple(int(c == i) for c in range(rank)) for i in range(d)]
    coord_index = list(range(d))

    basis = []
    for i in range(d):
        lbl = f"E{i + 1}{i + 1}"
        basis.append(BasisElement(lbl, 0, wt_zero(rank), {(i, i): 1}, True))
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            root = wt_sub(nat_weight[i], nat_weight[j])
            par = (nat_parity[i] + nat_parity[j]) % 2
            basis.append(BasisElement(f"E{i + 1}{j + 1}", par, root, {(i, j): 1}))

    simple = []
    for i in range(d - 1):
        simple.append(wt_sub(nat_weight[i], nat_weight[i + 1]))

    g = LieSuperalgebra(
        kind="gl", m=m, n=n, r=m, s=n,
        basis=basis, simple_roots=simple,
        form_normalization=C,
        nat_parity=nat_parity, nat_weight=nat_weight, coord_index=coord_index,
        name=f"gl({m}|{n})",
    )
    _finish(g, C)
    return g


# ---------------------------------------------------------------------------
# construction of osp(m|2n)
# ---------------------------------------------------------------------------

def _build_osp(m: int, n: int, C: Fraction) -> LieSuperalgebra:
    if m < 1:
        raise UnsupportedAlgebra("osp requires m >= 1")
    d = m // 2
    odd_m = m % 2 == 1
    rank = d + n
    # natural basis order: e_1+..e_d+, e_1-..e_d-, [e_0], f_1+..f_n+, f_1-..f_n-
    nat_parity, nat_weight, pair = [], [], {}
    def unit(c, sgn=1):
        return tuple(sgn if t == c else 0 for t in range(rank))

    for i in range(d):
        nat_parity.append(0)
        nat_weight.append(unit(i))
    for i in range(d):
        nat_parity.append(0)
        nat_weight.append(unit(i, -1))
    if odd_m:
        nat_parity.append(0)
        nat_weight.append(wt_zero(rank))
    for j in range(n):
        nat_parity.append(1)
        nat_weight.append(unit(d + j))
    for j in range(n):
        nat_parity.append(1)
        nat_weight.append(unit(d + j, -1))
    N = len(nat_parity)
    e0 = 2 * d if odd_m else None
    fplus = 2 * d + (1 if odd_m else 0)

    # bar(p): the index paired with p by the form; B[p][bar(p)] nonzero.
    # bar is an involution.
    bar = {}
    bval = {}
    for i in range(d):
        bar[i], bar[d + i] = d + i, i
        bval[i] = 1
        bval[d + i] = 1
    if odd_m:
        bar[e0] = e0
        bval[e0] = 1
    for j in range(n):
        p, q = fplus + j, fplus + n + j
        bar[p], bar[q] = q, p
        bval[p] = 1       # B(f_j+, f_j-) = 1
        bval[q] = -1      # B(f_j-, f_j+) = -1

    coord_index = list(range(d)) + [fplus + j for j in range(n)]

    basis = []
    for i in range(d):
        basis.append(BasisElement(
            f"H{i + 1}", 0, wt_zero(rank), {(i, i): 1, (d + i, d + i): -1}, True))
    for j in range(n):
        basis.append(BasisElement(
            f"K{j + 1}", 0, wt_zero(rank),
            {(fplus + j, fplus + j): 1, (fplus + n + j, fplus + n + j): -1}, True))

    # root vectors: solve the osp condition inside each nonzero weight space.
    # X is in osp iff B(Xu, v) + (-1)^{|X||u|} B(u, Xv) = 0 for all basis
    # vectors u = e_q, v = e_r; with B(e_a, e_b) = bval[a] [b = bar(a)]
    # that is row (q, r):  bval[bar r] X[bar r, q] + sgn(q) bval[q] X[bar q, r].
    # A unit (p, pq) enters row (q, r) only through X[bar r, q] (q = pq,
    # r = bar p) or X[bar q, r] (q = bar p, r = pq), so only those rows are
    # formed, in the (q, r) order of the full N^2 scan; every other row is
    # zero on the weight space.
    by_weight = {}
    for p in range(N):
        for q in range(N):
            w = wt_sub(nat_weight[p], nat_weight[q])
            if w == wt_zero(rank):
                continue
            by_weight.setdefault(w, []).append((p, q))
    for w in sorted(by_weight, key=weight_key):
        units = by_weight[w]
        par = {(nat_parity[p] + nat_parity[q]) % 2 for (p, q) in units}
        if len(par) != 1:
            raise CrossCheckFailed("weight space with mixed parity")
        xpar = par.pop()
        ech = linalg.Echelon()
        for q, r in sorted({pair for p, pq in units
                            for pair in ((pq, bar[p]), (bar[p], pq))}):
            sgn = -1 if (xpar and nat_parity[q]) else 1
            ech.add({i: x for i, unit in enumerate(units)
                     if (x := (bval[bar[r]] if (bar[r], q) == unit else 0)
                         + (sgn * bval[q] if (bar[q], r) == unit else 0))})
        # primitive int kernel vectors: the RREF kernel vectors times the
        # lcm of their denominators, sparse over the units
        kernel = ech.reduce().kernel(range(len(units)))
        for vecnum, vec in enumerate(kernel):
            mat = {units[i]: x for i, x in vec.items()}
            suffix = "" if len(kernel) == 1 else f"_{vecnum}"
            lbl = "X[" + ",".join(str(c) for c in w) + "]" + suffix
            basis.append(BasisElement(lbl, xpar, w, mat))

    # distinguished simple system, eq-choicepr style
    simple = []
    for i in range(d - 1):
        simple.append(wt_sub(unit(i), unit(i + 1)))
    if d >= 1 and n >= 1:
        simple.append(wt_sub(unit(d - 1), unit(d)))
    for j in range(n - 1):
        simple.append(wt_sub(unit(d + j), unit(d + j + 1)))
    if n >= 1:
        simple.append(unit(d + n - 1) if odd_m else wt_scale(unit(d + n - 1), 2))

    g = LieSuperalgebra(
        kind="osp", m=m, n=n, r=d, s=n,
        basis=basis, simple_roots=simple,
        form_normalization=C,
        nat_parity=nat_parity, nat_weight=nat_weight, coord_index=coord_index,
        name=f"osp({m}|{2 * n})",
    )
    _finish(g, C)
    return g


def _finish(g: LieSuperalgebra, C: Fraction):
    """Certify the root vectors and build the Gram matrix of C * str(XY),
    for both constructions; both read matrix entries only.

    Root vectors.  Every Cartan element H must be diagonal (CrossCheckFailed
    otherwise).  H is even, so [H, X] = HX - XH and

        [H, X]_pq = (H_pp - H_qq) X_pq.

    Hence [H, X] = w(H) X, with w the root of X, exactly when
    H_pp - H_qq = w(H) at every nonzero entry (p, q) of X; CrossCheckFailed
    at the first entry where it fails.

    Gram.  str(XY) = sum_p (-1)^{|p|} (XY)_pp, so

        (X_i, X_j) = C * sum_{(p, q)} (-1)^{|p|} (X_i)_pq (X_j)_qp,

    summed over the nonzero entries (p, q) of X_i, each looked up at (q, p)
    in the matrices that have that entry; no product matrix is formed.  A
    degenerate Gram raises DegenerateForm; a nondegenerate one also
    certifies that the basis matrices are independent."""
    dim = g.dim
    cartan = [b for b in g.basis if b.is_cartan]
    for h in cartan:
        if any(p != q for p, q in h.matrix):
            raise CrossCheckFailed(f"Cartan element {h.label} is not diagonal")
    for b in g.basis:
        if b.is_cartan:
            continue
        for h in cartan:
            diag = h.matrix
            expect = sum(b.root[c] * diag.get((p, p), 0)
                         for c, p in enumerate(g.coord_index))
            if any(diag.get((p, p), 0) - diag.get((q, q), 0) != expect
                   for p, q in b.matrix):
                raise CrossCheckFailed(f"{b.label} is not a root vector")
    # entry (q, p) -> [(j, (X_j)_qp)], so (X_j)_qp is found from (X_i)_pq
    at: dict = {}
    for j, b in enumerate(g.basis):
        for e, v in b.matrix.items():
            at.setdefault(e, []).append((j, v))
    gram, cnum, cden = [], C.numerator, C.denominator
    for b in g.basis:
        row = [0] * dim
        for (p, q), x in b.matrix.items():
            if g.nat_parity[p]:
                x = -x
            for j, y in at.get((q, p), ()):
                row[j] += x * y
        gram.append([_exact(v * cnum, cden) for v in row])
    g.gram = gram
    if linalg.rank(gram) != dim:
        raise DegenerateForm(f"supertrace form degenerate on {g.name}")


def build_algebra(kind: str, m: int, n: int, C=1) -> LieSuperalgebra:
    """Construct gl(m|n) or osp(m|2n) with invariant form C * str(XY).

    gl(n|n) is rejected (sl(n|n) is not basic classical and the identity is
    isotropic).  `_build_gl` builds it anyway on the full matrix algebra,
    whose supertrace Gram matrix is still invertible, for cross-checks such
    as gl(1|1).
    """
    C = Fraction(C)
    if C == 0:
        raise PreconditionViolated("form normalization C must be nonzero")
    if m < 0 or n < 0:
        raise PreconditionViolated(f"m and n must be non-negative, got {m} and {n}")
    if kind == "gl":
        if m == n:
            raise DegenerateForm("supertrace form of gl(n|n) kills the identity")
        return _build_gl(m, n, C)
    if kind == "osp":
        return _build_osp(m, n, C)
    raise UnsupportedAlgebra(f"unsupported algebra kind: {kind!r}")


# ---------------------------------------------------------------------------
# parabolic decompositions
# ---------------------------------------------------------------------------

class ParabolicDecomposition:
    """g = nbar + l + n determined by a subset of the simple roots;
    `dual_pairing` holds for each a xi_a^# as {nbar basis index: coefficient}."""

    def __init__(self, algebra: LieSuperalgebra, levi_simple_roots: tuple,
                 nbar_indices: list, levi_indices: list, n_indices: list,
                 dual_pairing: list):
        self.algebra, self.levi_simple_roots = algebra, levi_simple_roots
        self.nbar_indices, self.levi_indices = nbar_indices, levi_indices
        self.n_indices, self.dual_pairing = n_indices, dual_pairing
        self._levi_cache = {}

    @property
    def n_odd(self) -> list:
        g = self.algebra
        return [i for i in self.n_indices if g.parity(i) == 1]

    def dual_of_nbar(self) -> list:
        key = "dual_nbar"
        if key not in self._levi_cache:
            self._levi_cache[key] = dual_basis_in(
                self.algebra, self.nbar_indices, self.n_indices)
        return self._levi_cache[key]

    def levi_duals(self) -> list:
        """For each Levi basis element A_i (over levi_indices) its dual
        A_i^# in the Levi, (A_i^#, A_j) = delta_ij; formed once."""
        key = "dual_levi"
        if key not in self._levi_cache:
            self._levi_cache[key] = dual_basis_in(
                self.algebra, self.levi_indices, self.levi_indices)
        return self._levi_cache[key]

    def levi_algebra(self) -> LieSuperalgebra:
        if "levi" not in self._levi_cache:
            g = self.algebra
            simple = [g.simple_roots[i] for i in self.levi_simple_roots]
            self._levi_cache["levi"] = g.subalgebra(
                self.levi_indices, simple, name=f"levi{list(self.levi_simple_roots)}")
        return self._levi_cache["levi"]

    @functools.cached_property
    def levi_coroots(self) -> tuple:
        """The coroot table (`_coroot_table`) of the simple roots of the even
        Levi l_0, formed once per parabolic without building l."""
        return _coroot_table(self.algebra, even_simple_roots(self.algebra, self.levi_indices))

    def levi_in_even_part(self) -> bool:
        g = self.algebra
        return all(g.parity(i) == 0 for i in self.levi_indices)


def build_parabolic(g: LieSuperalgebra, levi_simple_roots) -> ParabolicDecomposition:
    levi_simple_roots = tuple(sorted(set(levi_simple_roots)))
    for i in levi_simple_roots:
        if not 0 <= i < len(g.simple_roots):
            raise PreconditionViolated(f"invalid simple root index {i}")
    keep = set(levi_simple_roots)
    nbar, levi, nn = [], [], []
    for i, b in enumerate(g.basis):
        if b.is_cartan:
            levi.append(i)
            continue
        coords = g.simple_coordinates(b.root)
        if coords is None:
            raise CrossCheckFailed(f"root {b.root} outside simple span")
        support = {k for k, c in enumerate(coords) if c}
        if support <= keep:
            levi.append(i)
        elif all(c >= 0 for c in coords):
            nn.append(i)
        else:
            nbar.append(i)
    dual = dual_basis_in(g, nn, nbar)
    p = ParabolicDecomposition(g, levi_simple_roots, nbar, levi, nn, dual)
    return p


# ---------------------------------------------------------------------------
# adjoint operations
# ---------------------------------------------------------------------------

class AdjointOperation:
    """Exact matrix of an involutive bracket-antiautomorphism A -> A^dagger:
    images[i] = dagger(A_i) as {j: coefficient}, `star_type` 1, 2 or None
    (type-free Chevalley involution)."""

    def __init__(self, algebra: LieSuperalgebra, images: list, star_type: int | None):
        self.algebra, self.images, self.star_type = algebra, images, star_type

    def apply_basis(self, i: int) -> dict:
        return self.images[i]

    def apply(self, x: dict) -> dict:
        out: dict = {}
        for i, c in x.items():
            linalg.vec_iadd(out, self.images[i], c)
        return out


def natural_form_diagonal(g: LieSuperalgebra) -> list:
    """Diagonal of the symmetric matrix M of dagger(X) = M^-1 X^T M on the
    natural representation: the identity for gl; for osp +1 on even vectors
    and f+, -1 on f-, which keeps osp stable under X -> M^-1 X^T M and fixes
    the diagonal Cartan.  Its entries are +-1, so M^-1 = M."""
    mdiag = [1] * g.nat_dim
    if g.kind == "osp":
        fplus = 2 * (g.m // 2) + (g.m % 2)
        for j in range(g.n):
            mdiag[fplus + g.n + j] = -1
    return mdiag


def _conjugation_images(g: LieSuperalgebra, mdiag: list) -> list:
    """dagger(X) = M^-1 X^T M for the diagonal M of +-1 entries of
    natural_form_diagonal, expanded in the basis: entry (q, p) of the image
    is M_qq X_pq M_pp."""
    return [g.expand({(q, p): mdiag[q] * v * mdiag[p] for (p, q), v in b.matrix.items()})
            for b in g.basis]


def build_adjoint_operation(g: LieSuperalgebra, star_type: int = 1) -> AdjointOperation:
    """Adjoint operation as an exact matrix on the chosen basis.

    For gl and osp(2|2n) the two star types are available; type (2) is
    type (1) composed with A -> (-1)^|A| A.  For other osp the Chevalley-type
    involution (matrix conjugate-transpose for a diagonal symmetric form) is
    returned with star_type None.  The operation is checked and cached on
    the algebra once per star type; callers must not mutate its images.
    """
    if star_type not in (1, 2):
        raise PreconditionViolated("star_type must be 1 or 2")
    hit = g._adjoint_cache.get(star_type)
    if hit is not None:
        return hit
    typed = g.kind == "gl" or (g.kind == "osp" and g.m == 2)
    op = AdjointOperation(g, _conjugation_images(g, natural_form_diagonal(g)),
                          1 if typed else None)
    if typed and star_type == 2:
        op = parity_twist(op)
    _check_adjoint(op)
    g._adjoint_cache[star_type] = op
    return op


def parity_twist(op: AdjointOperation) -> AdjointOperation:
    """op composed with A -> (-1)^|A| A, again an adjoint operation; it
    exchanges star types 1 and 2."""
    g = op.algebra
    images = [linalg.vec_scale(img, -1 if g.parity(i) else 1)
              for i, img in enumerate(op.images)]
    return AdjointOperation(g, images, {1: 2, 2: 1, None: None}[op.star_type])


def _check_adjoint(op: AdjointOperation):
    """Certify that op is a parity-preserving involution phi of g with
    phi[x, y] = [phi y, phi x] and (phi x, phi y) = (y, x); raise
    CrossCheckFailed otherwise.

    Parity and phi(phi(x)) = x are checked on every basis element.  The
    bracket and form identities are checked for x over the Chevalley
    generators e_i, f_i and the Cartan basis only, against every basis y:
    dim * (2 |simple roots| + |Cartan|) pairs instead of dim^2.  That
    suffices.

    X = {x : phi[x, y] = [phi y, phi x] for all y} is a subspace, and for
    homogeneous x1, x2 in X and any y super Jacobi gives
    [[x1, x2], y] = [x1, [x2, y]] - (-1)^{|x1||x2|} [x2, [x1, y]], so
        phi[[x1, x2], y] = [[phi y, phi x2], phi x1]
                           - (-1)^{|x1||x2|} [[phi y, phi x1], phi x2]
                         = [phi y, [phi x2, phi x1]] = [phi y, phi[x1, x2]],
    the middle step super Jacobi for (phi y, phi x2, phi x1), whose signs
    match because phi preserves parity.  So X is a subalgebra; it holds the
    e_i, f_i and the Cartan, which generate g (the simple root vectors
    generate n+ and n-), so X = g.  Then Y = {x : (phi x, phi y) = (y, x)
    for all y} is a subalgebra too: for x1, x2 in Y, invariance of the form
    and X = g give
        (phi[x1, x2], phi y) = ([phi x2, phi x1], phi y)
                             = (phi x2, [phi x1, phi y]) = (phi x2, phi[y, x1])
                             = ([y, x1], x2) = (y, [x1, x2]),
    so Y = g as well."""
    g = op.algebra
    for i in range(g.dim):
        img = op.apply_basis(i)
        if any(g.parity(j) != g.parity(i) for j in img):
            raise CrossCheckFailed("adjoint operation does not preserve parity")
        if op.apply(img) != {i: 1}:
            raise CrossCheckFailed("adjoint operation is not an involution")
    pos, neg = g.simple_vector_indices()
    generators = sorted({*pos, *neg, *g.cartan})
    for i in generators:
        for j in range(g.dim):
            lhs = op.apply(g.bracket(i, j))
            rhs = g.bracket_vec(op.apply_basis(j), op.apply_basis(i))
            if lhs != rhs:
                raise CrossCheckFailed("[A,B]^dagger != [B^dagger, A^dagger]")
            if g.form(op.apply_basis(i), op.apply_basis(j)) != g.gram[j][i]:
                raise CrossCheckFailed("(A^dagger, B^dagger) != (B, A)")


def check_star_condition(g: LieSuperalgebra, p: ParabolicDecomposition,
                         op: AdjointOperation) -> bool:
    """True iff dagger(xi_a) = (-1)^|xi_a| xi_a^# for every n-basis element."""
    for a, idx in enumerate(p.n_indices):
        want = dict(p.dual_pairing[a])
        if g.parity(idx):
            want = linalg.vec_scale(want, -1)
        if op.apply_basis(idx) != want:
            return False
    return True
