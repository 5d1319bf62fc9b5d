"""Independent brute-force oracles for the test-suite.

Nothing here reuses the normal-form machinery of superbgg.chains or the
level recursion of superbgg.modules: boundaries are assembled on raw tensor
words with inversion-counted signs, Verma-module data comes from a word
calculus in the enveloping algebra, and ranks are taken by a local Gaussian
elimination.  Only the algebra's bracket table and action matrices are
shared, since those are the common input data.  The algebra oracle builds
its basis and Gram matrix itself and shares only `bracket`, for the
root-vector check.  The coordinate Levi module takes the complex's action
maps and block bases as its input and solves for coordinates of its own,
apart from superbgg's decomposition in C_k's coordinates.

The natural and dual modules at the end are reference implementations that
the package does not run; tests compare against them, and they feed the
pairing of the two sides (chain_pairing.py).  The Weyl coset search on
Fraction reflection matrices, at the very end, is the reference for the
package's search on words.
"""

import functools
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import gcd, lcm

from superbgg import linalg
from superbgg.algebra import weight_key, wt_add
from superbgg.errors import LeviNotClosed, PreconditionViolated

F0 = Fraction(0)
F1 = Fraction(1)


def dense_rows(vecs, idxs):
    """Sparse vectors as dense rows over the indices `idxs`."""
    return [[vec.get(i, 0) for i in idxs] for vec in vecs]


def sparse_rows(rows, idxs):
    """Dense rows over the indices `idxs` as sparse vectors, zeros dropped."""
    return [{i: x for i, x in zip(idxs, row) if x} for row in rows]


def rank_dense(rows):
    """Row rank by plain elimination in Fraction arithmetic (independent of
    superbgg.linalg); int rows are converted, never divided as floats."""
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    ncols = len(m[0]) if m else 0
    col = 0
    while m and col < ncols:
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def oracle_rref(mat):
    """Reduced row echelon form and pivot columns by Gauss-Jordan elimination
    in Fraction arithmetic (independent of superbgg.linalg)."""
    m = [[Fraction(x) for x in row] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = F1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def oracle_positive_definite(gram):
    """Sylvester criterion by Fraction elimination without row exchanges."""
    m = [[Fraction(x) for x in row] for row in gram]
    n = len(m)
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return True


# ---------------------------------------------------------------------------
# tensor-word boundary oracle
# ---------------------------------------------------------------------------

def _perm_sign(g, tup, perm):
    """Sign of permuting homogeneous factors: product over inversions of
    -(-1)^{p_i p_j}."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                pi = g.parity(tup[perm[i]])
                pj = g.parity(tup[perm[j]])
                sign *= 1 if (pi and pj) else -1
    return sign


def _antisymmetrize(g, tup, mi):
    """Unnormalized super antisymmetrizer of a tensor word."""
    out = {}
    for perm in permutations(range(len(tup))):
        key = (tuple(tup[i] for i in perm), mi)
        out[key] = out.get(key, 0) + _perm_sign(g, tup, perm)
    return {k: Fraction(v) for k, v in out.items() if v}


def _sort_sign(g, tup):
    """Sorted representative of a tensor word and the Koszul sign relating
    them, or None when an even generator repeats."""
    order = sorted(range(len(tup)), key=lambda i: (g.parity(tup[i]), tup[i], i))
    sign = 1
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                pi = g.parity(tup[order[i]])
                pj = g.parity(tup[order[j]])
                sign *= 1 if (pi and pj) else -1
    stup = tuple(tup[i] for i in order)
    for a, b in zip(stup, stup[1:]):
        if a == b and g.parity(a) == 0:
            return None
    return stup, sign


def _tensor_act(g, module, radical, a, key):
    """Action of basis element a on a tensor word (adjoint on each factor,
    restricted to the radical, plus the module action)."""
    tup, mi = key
    out = {}
    prefix = 0
    for t, gt in enumerate(tup):
        sgn = -1 if (g.parity(a) and prefix % 2) else 1
        for k, c in g.bracket(a, gt).items():
            if k not in radical:
                continue
            key2 = (tup[:t] + (k,) + tup[t + 1:], mi)
            out[key2] = out.get(key2, F0) + sgn * c
        prefix += g.parity(gt)
    sgn = -1 if (g.parity(a) and prefix % 2) else 1
    for r, c in module.action[a][mi].items():
        key2 = (tup, r)
        out[key2] = out.get(key2, F0) + sgn * c
    return {k: v for k, v in out.items() if v}


def _tensor_boundary(g, module, radical, key):
    """d(Y (x) f) = -Y.f - Y (x) d(f) on raw tensor words."""
    tup, mi = key
    if not tup:
        return {}
    y, rest = tup[0], (tup[1:], mi)
    out = {k: -v for k, v in _tensor_act(g, module, radical, y, rest).items()}
    for key2, c in _tensor_boundary(g, module, radical, rest).items():
        key3 = ((y,) + key2[0], key2[1])
        out[key3] = out.get(key3, F0) - c
    return {k: v for k, v in out.items() if v}


def _tensor_coboundary(g, module, radical, duals, key):
    """d(v) = sum_a z_a (x) z_a^#.v and
    d(Y (x) f) = 1/2 sum_a z_a (x) [z_a^#, Y]_r (x) f - Y (x) d(f) on raw
    tensor words; `duals` pairs each radical vector z_a with z_a^#."""
    tup, mi = key
    out = {}
    if not tup:
        for z, dual in duals:
            for b, cb in dual.items():
                for r, c in module.action[b][mi].items():
                    key2 = ((z,), r)
                    out[key2] = out.get(key2, F0) + cb * c
        return {k: v for k, v in out.items() if v}
    y, rest = tup[0], tup[1:]
    for z, dual in duals:
        for b, cb in dual.items():
            for k, c in g.bracket(b, y).items():
                if k in radical:
                    key2 = ((z, k) + rest, mi)
                    out[key2] = out.get(key2, F0) + Fraction(1, 2) * cb * c
    for (tup2, mj), c in _tensor_coboundary(g, module, radical, duals, (rest, mi)).items():
        key2 = ((y,) + tup2, mj)
        out[key2] = out.get(key2, F0) - c
    return {k: v for k, v in out.items() if v}


def _exterior(g, img):
    """Raw tensor words projected onto sorted super exterior monomials."""
    out = {}
    for (tup, mi), c in img.items():
        res = _sort_sign(g, tup)
        if res is not None:
            key = (res[0], mi)
            out[key] = out.get(key, F0) + res[1] * c
    return {k: v for k, v in out.items() if v}


def oracle_boundary(p, module, word, mi):
    """Boundary d*(X ^ f) = -X.f - X ^ d*(f) of the sorted monomial
    `word` (x) v_mi of Lambda nbar (x) M, recursing on the leading factor of
    raw tensor words and projecting the result; returns
    {(sorted word, module index): Fraction}.  The n side is the nbar side of
    the opposite parabolic (`opposite`)."""
    g = p.algebra
    radical = set(p.nbar_indices)
    return _exterior(g, _tensor_boundary(g, module, radical, (tuple(word), mi)))


def oracle_coboundary(p, module, word, mi):
    """Coboundary d(X ^ f) = 1/2 sum_a z_a ^ [z_a^#, X]_r ^ f - X ^ d(f),
    d(v) = sum_a z_a (x) z_a^#.v, of the sorted monomial `word` (x) v_mi,
    by the same raw-word recursion and projection as `oracle_boundary`."""
    g = p.algebra
    radical, duals = p.nbar_indices, p.nbar_duals
    return _exterior(g, _tensor_coboundary(g, module, set(radical),
                                           list(zip(radical, duals)), (tuple(word), mi)))


def oracle_action(p, module, a, word, mi):
    """Basis element a on the sorted monomial `word` (x) v_mi: the adjoint
    action on each raw tensor factor (projected to nbar) plus the module
    action, projected to sorted exterior monomials; returns
    {(sorted word, module index): Fraction}."""
    g = p.algebra
    radical = set(p.nbar_indices)
    return _exterior(g, _tensor_act(g, module, radical, a, (tuple(word), mi)))


def oracle_wedge(g, gen, vec):
    """gen ^ vec for {(sorted word, module index): c}, projected to sorted
    exterior monomials."""
    return _exterior(g, {((gen,) + word, mi): c for (word, mi), c in vec.items()})


def oracle_homology_dims(p, module, k_max):
    """Homology dimensions per degree and weight (the nonzero ones) from
    `oracle_homology_ranks`."""
    return [{w: ker - im for w, (ker, im) in ranks.items() if ker - im}
            for ranks in oracle_homology_ranks(p, module, k_max)]


def oracle_homology_ranks(p, module, k_max):
    """{weight: (dim ker d*_k, dim im d*_{k+1})} per degree k <= k_max, over
    every weight of C_k, from a tensor-space assembly.

    The degree-k space is spanned by unnormalized antisymmetrized tensor
    words; the boundary acts on raw words and is projected back by sorting
    with inversion-counted signs.
    """
    g = p.algebra
    radical = p.nbar_indices
    rad_set = set(radical)
    evens = [i for i in radical if g.parity(i) == 0]
    odds = [i for i in radical if g.parity(i) == 1]

    def families(k):
        fams = []
        for j in range(min(k, len(evens)) + 1):
            for ev in combinations(evens, j):
                for od in combinations_with_replacement(odds, k - j):
                    fams.append(ev + od)
        return fams

    def weight_of(fam, mi):
        w = list(module.weights[mi])
        for i in fam:
            for c, x in enumerate(g.root(i)):
                w[c] += x
        return tuple(w)

    bases = {}
    for k in range(k_max + 2):
        bases[k] = [(fam, mi) for fam in families(k) for mi in range(module.dim)]

    def boundary_matrix(k):
        """Rows: target families (degree k-1); columns: source families."""
        src = bases[k]
        tgt = bases[k - 1]
        tpos = {fm: i for i, fm in enumerate(tgt)}
        cols = []
        for fam, mi in src:
            vec = _antisymmetrize(g, fam, mi)
            img = {}
            for key, c in vec.items():
                for key2, c2 in _tensor_boundary(g, module, rad_set, key).items():
                    img[key2] = img.get(key2, F0) + c * c2
            col = [F0] * len(tgt)
            for (tup, mj), c in img.items():
                if not c:
                    continue
                res = _sort_sign(g, tup)
                if res is None:
                    continue
                stup, sgn = res
                col[tpos[(stup, mj)]] += sgn * c
            cols.append(col)
        return cols

    mats = {k: boundary_matrix(k) for k in range(1, k_max + 2)}

    out = []
    for k in range(k_max + 1):
        per_weight = {}
        weights = sorted({weight_of(f, m) for (f, m) in bases[k]},
                         key=lambda t: tuple(map(str, t)))
        for w in weights:
            src_idx = [i for i, (f, m) in enumerate(bases[k]) if weight_of(f, m) == w]
            if k == 0:
                ker = len(src_idx)
            else:
                rows = [[mats[k][j][r] for j in src_idx] for r in range(len(bases[k - 1]))]
                ker = len(src_idx) - rank_dense(rows)
            up_idx = [i for i, (f, m) in enumerate(bases[k + 1]) if weight_of(f, m) == w]
            tgt_rows = [i for i, (f, m) in enumerate(bases[k]) if weight_of(f, m) == w]
            img_rows = [[mats[k + 1][j][r] for j in up_idx] for r in tgt_rows]
            per_weight[w] = (ker, rank_dense(img_rows))
        out.append(per_weight)
    return out


def oracle_boundary_squares_to_zero(p, module, k_max):
    g = p.algebra
    radical = set(p.nbar_indices)
    evens = [i for i in radical if g.parity(i) == 0]
    odds = [i for i in radical if g.parity(i) == 1]
    for k in range(2, k_max + 1):
        for j in range(min(k, len(evens)) + 1):
            for ev in combinations(sorted(evens), j):
                for od in combinations_with_replacement(sorted(odds), k - j):
                    for mi in range(module.dim):
                        vec = _antisymmetrize(g, ev + od, mi)
                        img = {}
                        for key, c in vec.items():
                            for k2, c2 in _tensor_boundary(g, module, radical, key).items():
                                img[k2] = img.get(k2, F0) + c * c2
                        img2 = {}
                        for key, c in img.items():
                            if not c:
                                continue
                            for k2, c2 in _tensor_boundary(g, module, radical, key).items():
                                img2[k2] = img2.get(k2, F0) + c * c2
                        # project to the exterior quotient before testing zero
                        proj = {}
                        for (tup, mj), c in img2.items():
                            if not c:
                                continue
                            res = _sort_sign(g, tup)
                            if res is None:
                                continue
                            stup, sgn = res
                            key3 = (stup, mj)
                            proj[key3] = proj.get(key3, F0) + sgn * c
                        if any(proj.values()):
                            return False
    return True


# ---------------------------------------------------------------------------
# Verma-module word oracle
# ---------------------------------------------------------------------------

class VermaOracle:
    """Shapovalov ranks of a Verma module from a word calculus in U(g).

    Vectors are linear combinations of unreduced words in the negative root
    vectors applied to the formal highest weight vector; any basis element
    acts by pushing through the leading letter with the super commutation
    rule x y = [x, y] + (-1)^{|x||y|} y x.
    """

    def __init__(self, g, lam, op):
        self.g = g
        self.lam = tuple(Fraction(c) for c in lam)
        self.op = op
        self.neg = [i for i in g.positive_root_indices()]
        self.neg = [g.basis_index_of_root(tuple(-c for c in g.root(i)))
                    for i in self.neg]

    def act(self, a, word):
        """Basis element a applied to a word; returns {word: coeff}."""
        g = self.g
        if not word:
            b = g.basis[a]
            if b.is_cartan:
                val = g.eval_weight(self.lam, {a: F1})
                return {(): val} if val else {}
            if g.is_positive_root(b.root):
                return {}
            return {(a,): F1}
        y, rest = word[0], word[1:]
        out = {}
        for k, c in g.bracket(a, y).items():
            for w2, c2 in self.act(k, rest).items():
                out[w2] = out.get(w2, F0) + c * c2
        sgn = -1 if (g.parity(a) and g.parity(y)) else 1
        for w2, c2 in self.act(a, rest).items():
            key = (y,) + w2
            out[key] = out.get(key, F0) + sgn * c2
        return {w: c for w, c in out.items() if c}

    def act_vec(self, a, vec):
        out = {}
        for w, c in vec.items():
            for w2, c2 in self.act(a, w).items():
                out[w2] = out.get(w2, F0) + c * c2
        return {w: c for w, c in out.items() if c}

    def pair(self, w1, w2):
        """<w1 v, w2 v> via the adjoint operation pushed through w2."""
        vec = {w2: F1}
        for letter in reversed(w1):
            dag = self.op.apply_basis(letter)
            acc = {}
            for k, c in dag.items():
                for w3, c2 in self.act_vec(k, vec).items():
                    acc[w3] = acc.get(w3, F0) + c * c2
            vec = acc
        return vec.get((), F0)

    def weight_dims(self, height_max):
        """dim of the irreducible quotient per weight, as Shapovalov ranks."""
        g = self.g
        words_by_weight = {(): self.lam}
        frontier = [()]
        for _ in range(height_max):
            nxt = []
            for w in frontier:
                for i in self.neg:
                    w2 = w + (i,)
                    words_by_weight[w2] = tuple(
                        a + b for a, b in zip(words_by_weight[w], g.root(i)))
                    nxt.append(w2)
            frontier = nxt
        groups = {}
        for w, wt in words_by_weight.items():
            groups.setdefault(wt, []).append(w)
        dims = {}
        for wt, words in sorted(groups.items(), key=lambda t: tuple(map(str, t[0]))):
            gram = [[self.pair(w1, w2) for w2 in words] for w1 in words]
            r = rank_dense(gram)
            if r:
                dims[wt] = r
        return dims


# ---------------------------------------------------------------------------
# Levi decomposition oracle
# ---------------------------------------------------------------------------

def _row_echelon(rows):
    """Echelon rows spanning the same space, by plain elimination."""
    m = [row[:] for row in rows if any(row)]
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return m[:rank]


def _kernel_dense(rows, ncols):
    """Basis of {x : rows.x = 0} by back substitution on echelon rows."""
    ech = _row_echelon(rows)
    leads = [next(c for c in range(ncols) if row[c]) for row in ech]
    basis = []
    for free in (c for c in range(ncols) if c not in leads):
        x = [F0] * ncols
        x[free] = F1
        for row, lead in reversed(list(zip(ech, leads))):
            x[lead] = -sum((row[c] * x[c] for c in range(lead + 1, ncols)), F0) / row[lead]
        basis.append(x)
    return basis


def oracle_kernel(mat, ncols):
    """Basis of {x : mat.x = 0}: for each free column the kernel vector with
    1 there and 0 at the other free columns, by back substitution."""
    if not mat:
        return [[F1 if i == j else F0 for i in range(ncols)] for j in range(ncols)]
    return _kernel_dense([[Fraction(x) for x in row] for row in mat], ncols)


def oracle_intersection_dim(cols_a, cols_b):
    """dim(span A & span B) for column lists A and B of one length: the
    kernel of [A | -B] mapped through A, then its rank."""
    if not cols_a or not cols_b:
        return 0
    n = len(cols_a[0])
    stacked = [[Fraction(c[i]) for c in cols_a] + [-Fraction(c[i]) for c in cols_b]
               for i in range(n)]
    meets = [[sum((v[j] * cols_a[j][i] for j in range(len(cols_a))), F0)
              for i in range(n)]
             for v in _kernel_dense(stacked, len(cols_a) + len(cols_b))]
    return rank_dense(meets)


def _levi_generated_spans(weights, raise_mats, lower_mats):
    """{highest weight: (hw vector count, echelon rows of the generated
    space)}, by dense elimination over the whole module."""
    dim = len(weights)
    out = {}
    for mu in set(weights):
        cols = [t for t in range(dim) if weights[t] == mu]
        rows = [[mat[r][t] for t in cols] for mat in raise_mats for r in range(dim)]
        kernel = _kernel_dense(rows, len(cols)) if rows else [
            [F1 if i == j else F0 for i in range(len(cols))] for j in range(len(cols))]
        if not kernel:
            continue
        span = []
        for vec in kernel:
            full = [F0] * dim
            for i, t in enumerate(cols):
                full[t] = vec[i]
            span.append(full)
        span = _row_echelon(span)
        while True:
            images = [[sum((mat[r][t] * v[t] for t in range(dim) if v[t]), F0)
                       for r in range(dim)] for mat in lower_mats for v in span]
            grown = _row_echelon(span + images)
            if len(grown) == len(span):
                break
            span = grown
        out[mu] = (len(kernel), span)
    return out


def oracle_levi_generated_dims(weights, raise_mats, lower_mats):
    """{highest weight: (hw vector count, generated dimension)} by brute force.

    `weights[t]` is the weight of basis vector t of a Levi module and
    `raise_mats` / `lower_mats` are its dense matrices of the raising and
    lowering operators of the Levi simple roots.  The highest weight vectors
    of weight mu are the joint kernel of the raising matrices on the weight-mu
    coordinates; the generated dimension is the rank of the smallest space
    containing them that is stable under every lowering matrix, grown by
    dense elimination over the whole module until the rank stops growing.
    """
    return {mu: (count, len(span)) for mu, (count, span)
            in _levi_generated_spans(weights, raise_mats, lower_mats).items()}


def oracle_levi_decomposition(weights, raise_mats, lower_mats, irrep_dimension):
    """Complete reducibility certified through abstract irreps.

    `irrep_dimension(mu)` is the dimension of the abstract irreducible Levi
    module of highest weight mu (None when unknown).  The module is certified
    when every irrep dimension is known, each generated space has dimension
    hw_vector_count * irrep_dimension, and those products add up to both the
    module dimension and the dimension of the sum of the generated spaces.
    Returns (certified, {mu: (hw vector count, irrep dimension, generated
    dimension)})."""
    spans = _levi_generated_spans(weights, raise_mats, lower_mats)
    entries = {mu: (count, irrep_dimension(mu), len(span))
               for mu, (count, span) in spans.items()}
    union = len(_row_echelon([row for _, span in spans.values() for row in span]))
    certified = (all(irr is not None and gen == count * irr
                     for count, irr, gen in entries.values())
                 and union == len(weights)
                 == sum(count * irr for count, irr, _ in entries.values()))
    return certified, entries


# ---------------------------------------------------------------------------
# coordinate Levi modules: an l-module in a basis of its own
# ---------------------------------------------------------------------------

def _primitive_column(col):
    """The positive multiple of a sparse rational column whose entries are
    coprime ints."""
    den = lcm(1, *(Fraction(v).denominator for v in col.values()))
    ints = {r: int(v * den) for r, v in col.items() if v}
    cont = gcd(*ints.values())
    return {r: v // cont for r, v in ints.items()} if cont > 1 else ints


class CoordinateAction:
    """A Levi basis element on a CoordinateLeviModule, in its coordinates:
    column t is icols[t] / dens[t], and dens[t] is the same for every
    representative of one weight.  `cols` is the exact view."""

    def __init__(self, icols, dens):
        self.icols = icols          # icols[t] = {member: nonzero int}
        self.dens = dens            # dens[t] = positive int

    @functools.cached_property
    def cols(self):
        """cols[t] = {member: Fraction}."""
        return [{u: Fraction(c, d) for u, c in col.items()}
                for col, d in zip(self.icols, self.dens)]


class CoordinateLeviModule:
    """An l-module presented by block-aligned vectors of a chain degree, in
    coordinates of its own: an l-stable subspace (ker quabla, the
    generalized zero space, the whole chain space) or a subquotient (a
    homology group, `homology_quotient`).  It is the independent
    counterpart of superbgg's LeviModule, which works in C_k's coordinates.

    `reps` are sparse ambient columns, each supported in a single weight
    block.  `modulo` (optional, per weight) is a list of ambient columns to
    quotient by; the action is reduced modulo that span.  Both are stored
    as primitive int columns, each a positive multiple of the column given.
    Coordinates are solved weight by weight: the stacked block [modulo |
    reps] of each weight is eliminated once next to an identity, and the
    left transform turns `express` into a sparse product.

    `acyclic` (optional, a homology quotient's) names the weights where
    ker d*_k = im d*_{k+1}: the quotient is zero there and `modulo` holds
    nothing, and `express` tests a column by d*_k instead of a solver.
    """

    def __init__(self, cx, k, reps, modulo=None, acyclic=frozenset()):
        self.cx = cx
        self.k = k
        self.space = cx.space(k)
        self.reps = [_primitive_column(col) for col in reps]
        self.modulo = {w: [_primitive_column(col) for col in cols]
                       for w, cols in (modulo or {}).items()}
        self.acyclic = acyclic
        self.weights = []
        self._members = {}
        for t, col in enumerate(self.reps):
            ws = {self.space.weights[i] for i in col}
            if len(ws) != 1:
                raise PreconditionViolated(
                    f"representative {t} is not supported in a single weight block")
            w = ws.pop()
            self.weights.append(w)
            self._members.setdefault(w, []).append(t)
        self._solvers = {}

    @property
    def dim(self):
        return len(self.reps)

    def members(self, weight):
        return self._members.get(weight, [])

    def weight_dims(self):
        """{weight: number of representatives of that weight}."""
        return {w: len(ts) for w, ts in self._members.items()}

    def _solver(self, weight):
        """Int left transform D of the stacked block A = [modulo | reps] of
        `weight`.  Row r of int_rref([A | I]) is p_r times row r of the
        RREF; with den = lcm of the pivots p_r of the first `rank` rows, D
        takes row r < rank times den / p_r, and rows from `rank` on are the
        consistency conditions.  Returns (pos, ecols, rank, coords, den):
        `pos` maps ambient indices to block rows, `ecols[j]` is column j of
        D as a sparse dict, and `coords[r]` is the member solved by row r
        (None for a `modulo` column)."""
        hit = self._solvers.get(weight)
        if hit is not None:
            return hit
        idxs = self.space.weight_blocks.get(weight, [])
        pos = {g: i for i, g in enumerate(idxs)}
        members = self.members(weight)
        cols = self.modulo.get(weight, []) + [self.reps[t] for t in members]
        n, c = len(idxs), len(cols)
        aug = [[0] * (c + n) for _ in range(n)]
        for j, col in enumerate(cols):
            for gidx, v in col.items():
                aug[pos[gidx]][j] = v
        for i in range(n):
            aug[i][c + i] = 1
        rows, pivots = linalg.int_rref(aug)
        rank = sum(1 for pc in pivots if pc < c)
        den = lcm(1, *(rows[r][pivots[r]] for r in range(rank)))
        ecols = [{} for _ in range(n)]
        for r, row in enumerate(rows):
            f = den // row[pivots[r]] if r < rank else 1
            for j in range(n):
                x = row[c + j]
                if x:
                    ecols[j][r] = f * x
        n_mod = c - len(members)
        coords = [members[pc - n_mod] if pc >= n_mod else None
                  for pc in pivots[:rank]]
        self._solvers[weight] = (pos, ecols, rank, coords, den)
        return self._solvers[weight]

    def express(self, weight, ambient_cols):
        """(coords, den): coords[j] / den are the exact coordinates of
        ambient_cols[j] over this module's basis, reducing mod `modulo`.
        LeviNotClosed when a column is outside span(modulo + reps); at an
        acyclic weight that span is ker d*_k, tested by d*_k."""
        if weight in self.acyclic:
            lower, weights = self.cx.lower(self.k).icols, self.space.weights
            for col in ambient_cols:
                y = {}
                for gidx, v in col.items():
                    if weights[gidx] != weight:
                        raise LeviNotClosed("image leaves the expected weight block")
                    linalg.vec_iadd(y, lower[gidx], v)
                if y:
                    raise LeviNotClosed("subspace is not stable under the Levi action")
            return [{} for _ in ambient_cols], 1
        pos, ecols, rank, coords, den = self._solver(weight)
        out = []
        for col in ambient_cols:
            y = {}
            for gidx, v in col.items():
                j = pos.get(gidx)
                if j is None:
                    raise LeviNotClosed("image leaves the expected weight block")
                linalg.vec_iadd(y, ecols[j], v)
            if any(r >= rank for r in y):
                raise LeviNotClosed("subspace is not stable under the Levi action")
            out.append({coords[r]: v for r, v in y.items() if coords[r] is not None})
        return out, den

    def act(self, levi_index):
        """The Levi basis element in this module's coordinates: the complex's
        int action map applied to each representative, then expressed, one
        `express` call per source weight.  Column t has denominator
        den_target * map.den."""
        amap = self.cx.action_map(self.k, levi_index)
        root = self.cx.algebra.root(levi_index)
        cols, dens = [{} for _ in self.reps], [amap.den] * self.dim
        for w, members in self._members.items():
            imgs = []
            for t in members:
                img = {}
                for j, c in self.reps[t].items():
                    linalg.vec_iadd(img, amap.icols[j], c)
                imgs.append(img)
            if not any(imgs):
                continue
            coords, den = self.express(wt_add(w, root), imgs)
            for t, col in zip(members, coords):
                cols[t] = col
                dens[t] *= den
        return CoordinateAction(cols, dens)


def every_weight_blocks(an, k):
    """Degree k of a KostantAnalysis's block layer formed at every weight of
    C_k, with neither Kostant's filter, nor the Weyl orbits, nor the
    acyclic recursion: the Casimir quabla, d*_k and d*_{k+1}, each built
    whole, eliminated at every weight by the package's per-block
    routines, as {w: {"acyclic", "ker_quabla", "gen_zero", "ker", "im"}}
    in weight_key order (sparse int bases over C_k's indices)."""
    from superbgg.homology import _block_images, _block_kernels, _quabla_kernels
    cx = an.cx
    blocks = cx.space(k).weight_blocks
    weights = sorted(blocks, key=weight_key)
    quab = cx.casimir_quabla(k)
    kernels = _block_kernels(cx.lower(k), weights)
    images = _block_images(cx.lower(k + 1), weights)
    out = {}
    for w in weights:
        kerq, gen_zero = _quabla_kernels(quab.rows(w), blocks[w])
        out[w] = {"acyclic": not gen_zero, "ker_quabla": kerq, "gen_zero": gen_zero,
                  "ker": kernels[w], "im": images.get(w, [])}
    return out


def acyclic_weights(an, k):
    """The weights of C_k whose quabla block block_data(k) finds invertible."""
    return frozenset(w for w, d in an.block_data(k).items() if d.acyclic)


def every_weight_statements(an, k):
    """Statements (1)-(7) at degree k from `every_weight_blocks`, a rank
    test at every non-acyclic weight; (3), that the generalized zero space
    lies in ker d*_k, by the Fraction rank of the two bases stacked."""
    from superbgg.homology import _block_images, _block_kernels
    cx = an.cx
    blocks = cx.space(k).weight_blocks
    data = every_weight_blocks(an, k)
    hot = [w for w, d in data.items() if not d["acyclic"]]
    ker_raise = _block_kernels(cx.raise_(k), hot)
    im_below = _block_images(cx.raise_(k - 1), hot) if k else {}
    vals = dict.fromkeys(range(1, 8), True)
    for w in hot:
        d, below = data[w], im_below.get(w, [])
        tests = {1: not linalg.spans_meet(d["im"], d["ker_quabla"]),
                 2: not linalg.spans_meet(d["im"], d["gen_zero"]),
                 3: rank_dense(dense_rows(d["ker"] + d["gen_zero"], blocks[w]))
                 == len(d["ker"]),
                 4: len(d["ker"]) - len(d["im"]) == len(d["gen_zero"]),
                 5: not linalg.spans_meet(below, d["ker_quabla"]),
                 6: len(ker_raise[w]) - len(below) == len(d["gen_zero"]),
                 7: not (linalg.spans_meet(d["im"], ker_raise[w])
                         or linalg.spans_meet(below, d["ker"]))}
        for i, holds in tests.items():
            vals[i] = vals[i] and holds
    return vals


def _subspace_module(an, k, key):
    """The l-stable subspace of C_k spanned by the block bases `key` of
    every_weight_blocks(an, k), in weight_key order, as a
    CoordinateLeviModule."""
    reps = [col for d in every_weight_blocks(an, k).values() for col in d[key]]
    return CoordinateLeviModule(an.cx, k, reps)


def ker_quabla(an, k):
    """ker quabla_k of a KostantAnalysis as a CoordinateLeviModule (l-stable
    because quabla commutes with l), built on each call."""
    return _subspace_module(an, k, "ker_quabla")


def generalized_zero(an, k):
    """The generalized zero eigenspace of quabla_k as a CoordinateLeviModule."""
    return _subspace_module(an, k, "gen_zero")


def homology_quotient(an, k):
    """H_k = ker d*_k / im d*_{k+1} as a CoordinateLeviModule: at each
    non-acyclic weight of every_weight_blocks(an, k), the first-come
    complement of the image inside the kernel, with the image as
    `modulo`."""
    weight_blocks = an.cx.space(k).weight_blocks
    reps, modulo, acyclic = [], {}, set()
    for w, d in every_weight_blocks(an, k).items():
        if d["acyclic"]:
            acyclic.add(w)
            continue
        im = modulo[w] = d["im"]
        chosen = linalg.independent_columns(dense_rows(im + d["ker"], weight_blocks[w]))
        reps.extend(d["ker"][c - len(im)] for c in chosen if c >= len(im))
    return CoordinateLeviModule(an.cx, k, reps, modulo, frozenset(acyclic))


def full_levi_module(cx, k):
    """The whole chain space C_k as a CoordinateLeviModule on unit vectors."""
    return CoordinateLeviModule(cx, k, [{i: 1} for i in range(cx.space(k).dim)])


def _coordinate_highest_weight_vectors(p, mod):
    """{highest weight: [highest-weight vectors as {member: Fraction}]} of a
    CoordinateLeviModule, in weight_key order: the dense kernel of the
    stacked raising operators (the exact view of its `act`) at each
    weight."""
    pos, _ = p.algebra.simple_vector_indices()
    raising = [mod.act(pos[i]).cols for i in p.levi_simple_roots]
    out = {}
    for w in sorted(mod.weight_dims(), key=weight_key):
        members = mod.members(w)
        rows = [[cols[m].get(t, F0) for m in members]
                for cols in raising for t in range(mod.dim)]
        kernel = oracle_kernel([row for row in rows if any(row)], len(members))
        if kernel:
            out[w] = [{members[i]: x for i, x in enumerate(vec) if x} for vec in kernel]
    return out


def decompose_levi_hw_only(p, mod):
    """{highest weight: number of highest-weight vectors} of a
    CoordinateLeviModule, in weight_key order, with no lowering closure and
    no irrep build."""
    return {w: len(vecs) for w, vecs in _coordinate_highest_weight_vectors(p, mod).items()}


def _echelon_insert(rows, vec):
    """Reduce the {index: Fraction} vector `vec` by the echelon `rows`
    ({lead: row with row[lead] == 1}); keep what is left as a new row and
    say whether anything was left."""
    v = dict(vec)
    while v:
        lead = min(v)
        row, c = rows.get(lead), v[lead]
        if row is None:
            rows[lead] = {t: x / c for t, x in v.items()}
            return True
        for t, x in row.items():
            y = v.get(t, F0) - c * x
            if y:
                v[t] = y
            else:
                v.pop(t, None)
    return False


def oracle_independent_columns(cols):
    """Indices of a first-come maximal independent subset of column vectors,
    by Fraction elimination one column at a time."""
    rows: dict = {}
    return [j for j, col in enumerate(cols)
            if _echelon_insert(rows, {i: Fraction(x) for i, x in enumerate(col) if x})]


def coordinate_decomposition(p, mod):
    """decompose_levi's LDecomposition of a CoordinateLeviModule, in its own
    coordinates and exact Fractions: H_w from the dense raising kernels,
    G_w by closing H_w under the exact lowering columns in a normalized
    echelon, the certificate sum dim G_w == dim(sum G_w) == dim M, and the
    irrep dimensions, generated // count where it holds and the abstract
    Levi irrep's elsewhere."""
    from superbgg.homology import LDecomposition, LDecompositionEntry, levi_irrep_dimension
    _, neg = p.algebra.simple_vector_indices()
    lowering = [mod.act(neg[i]).cols for i in p.levi_simple_roots]
    found, union = [], {}
    for w, vecs in _coordinate_highest_weight_vectors(p, mod).items():
        rows, frontier = {}, vecs
        while frontier:
            nxt = []
            for v in frontier:
                if not _echelon_insert(rows, v):
                    continue
                for cols in lowering:
                    img = {}
                    for t, x in v.items():
                        for u, y in cols[t].items():
                            img[u] = img.get(u, F0) + x * y
                    img = {u: y for u, y in img.items() if y}
                    if img:
                        nxt.append(img)
            frontier = nxt
        for row in rows.values():
            _echelon_insert(union, row)
        found.append((w, len(vecs), len(rows)))
    cr = sum(gen for _, _, gen in found) == len(union) == mod.dim
    entries = [LDecompositionEntry(
        highest_weight=w, hw_vector_count=count,
        irrep_dimension=gen // count if cr else levi_irrep_dimension(p, w),
        generated_dimension=gen) for w, count, gen in found]
    return LDecomposition(entries=entries, completely_reducible=cr,
                          total_dimension=mod.dim)


def same_decomposition(a, b):
    """Whether two LDecompositions agree in every field: each entry's
    highest weight, highest-weight vector count, irrep dimension and
    generated dimension, in order, complete reducibility and the total
    dimension."""
    def key(dec):
        return ([(e.highest_weight, e.hw_vector_count, e.irrep_dimension,
                  e.generated_dimension) for e in dec.entries],
                dec.completely_reducible, dec.total_dimension)
    return key(a) == key(b)


def casimir_match(an, k):
    """Levi highest weights mu of the whole chain space C_k with
    C2(mu) = C2(lambda), in weight_key order: by Kostant's formula, the
    weights where ker quabla_k has highest-weight vectors.  They are found
    through CoordinateLeviModule's solvers, not superbgg's decomposition."""
    from superbgg.algebra import casimir_eigenvalue
    g = an.parabolic.algebra
    target = casimir_eigenvalue(g, an.module.highest_weight)
    hws = decompose_levi_hw_only(an.parabolic, full_levi_module(an.cx, k))
    return [w for w in hws if casimir_eigenvalue(g, w) == target]


def occurrence_bound(an, mu):
    """Largest degree at which weight mu can occur in an's chain spaces
    (the height of some module weight minus mu), or None if none."""
    from superbgg.algebra import wt_sub
    g, best = an.parabolic.algebra, None
    for w in set(an.module.weights):
        coords = g.simple_coordinates(wt_sub(w, mu))
        if coords is None or any(c < 0 for c in coords):
            continue
        h = sum(coords)
        if h == int(h):
            best = max(best or 0, int(h))
    return best


class TruncationTooSmall(Exception):
    """A weight may occur in degrees beyond the built truncation."""


def euler_check(an, mu):
    """Euler characteristic at weight mu: sum_k (-1)^k dim C_{k,mu} equals
    sum_k (-1)^k of mu's multiplicity in H_k, over the degrees where mu can
    occur (TruncationTooSmall if they pass an.k_max; True if there are none,
    as both sides are zero)."""
    bound = occurrence_bound(an, mu)
    if bound is None:
        return True
    if bound > an.k_max:
        raise TruncationTooSmall(
            f"weight {mu} may occur up to degree {bound} > k_max {an.k_max}")
    lhs = rhs = 0
    for k in range(bound + 1):
        sign = -1 if k % 2 else 1
        lhs += sign * len(an.cx.space(k).weight_blocks.get(mu, []))
        rhs += sign * an.homology(k).weight_multiplicities.get(mu, 0)
    return lhs == rhs


# ---------------------------------------------------------------------------
# chain monomials, the opposite parabolic and views of a ChainMap
# ---------------------------------------------------------------------------

def opposite(p):
    """The parabolic with nbar and n of `p` swapped: the nbar-side complex
    of a module on it is the n-side complex Lambda^. n (x) V of `p`, with
    the dual basis of n in nbar."""
    from superbgg.algebra import ParabolicDecomposition
    return ParabolicDecomposition(p.algebra, p.levi_simple_roots, p.n_indices,
                                  p.levi_indices, p.nbar_indices, p.nbar_duals)


def chain_basis(space):
    """The chain monomials of a ChainSpace in index order, each as (even
    generators, odd generators, module index): index idx(X) * dim M + m of
    C_k is X (x) v_m, X the idx(X)-th monomial of `ChainComplex.monomials`,
    and a restricted space lists the X (x) v_m of its `held` pairs."""
    cx = space.complex
    g = cx.algebra
    held = space.held
    if held is None:
        held = [(x, range(cx.module.dim)) for x in cx.monomials(space.degree)[0]]
    return [(tuple(i for i in x if not g.parity(i)), tuple(i for i in x if g.parity(i)), m)
            for x, ms in held for m in ms]


def fraction_columns(m):
    """The columns of a ChainMap as {target row: Fraction}."""
    return [{r: Fraction(v, m.den) for r, v in col.items()} for col in m.icols]


def same_map(a, b):
    """Whether two ChainMaps of the same spaces are equal: every map is
    canonical, so exactly when their int columns and denominators are."""
    return (a.source is b.source and a.target is b.target
            and (a.icols, a.den) == (b.icols, b.den))


def merged_quabla(q):
    """The two parts of a CasimirQuabla on its whole space summed into one
    canonical ChainMap, in Fractions: the root part's columns plus the
    scalar part on the diagonal."""
    sp = q.space
    cols = [{} for _ in range(sp.dim)]
    if q.root is not None:
        assert q.root.source is sp
        cols = fraction_columns(q.root)
    for j, w in enumerate(sp.weights):
        cols[j][j] = cols[j].get(j, F0) + Fraction(q.scalar[w], q.den)
    return map_from_columns(sp, sp, cols)


# ---------------------------------------------------------------------------
# dense chain-map oracle
# ---------------------------------------------------------------------------

def zeros(nrows, ncols):
    return [[F0] * ncols for _ in range(nrows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = F1
    return m


def oracle_map_product(a, b, ncols):
    """a.b for dense Fraction matrices (rows of lists) where b has ncols
    columns, entry by entry."""
    inner = len(b)
    return [[sum((Fraction(row[t]) * b[t][j] for t in range(inner)), F0)
             for j in range(ncols)] for row in a]


def oracle_map_combination(terms, nrows, ncols):
    """sum(c * m for c, m in terms) for dense nrows x ncols matrices."""
    out = [[F0] * ncols for _ in range(nrows)]
    for c, m in terms:
        for i in range(nrows):
            for j in range(ncols):
                out[i][j] += Fraction(c) * m[i][j]
    return out


def map_from_columns(source, target, cols):
    """The superbgg ChainMap source -> target with rational columns
    cols[j] = {target row: int or Fraction}: cleared to int columns over
    one denominator and made canonical.  It builds a map to compare with,
    sharing only the ChainMap container."""
    from superbgg.chains import ChainMap
    den = lcm(1, *(v.denominator for col in cols for v in col.values()))
    icols = [{r: v.numerator * (den // v.denominator) for r, v in col.items() if v}
             for col in cols]
    return ChainMap.canonical(source, target, icols, den)


def is_block_diagonal(m):
    """h-equivariance of a ChainMap: every column stays inside the weight
    block of its source index."""
    return all(m.target.weights[r] == m.source.weights[j]
               for j, col in enumerate(m.icols) for r in col)


# ---------------------------------------------------------------------------
# dense algebra-construction oracle
# ---------------------------------------------------------------------------

def _oracle_unit(rank, c, sgn=1):
    return tuple(Fraction(sgn) if t == c else F0 for t in range(rank))


def _oracle_matmul(a, b):
    """Product of sparse {(row, col): value} matrices, zeros dropped."""
    out = {}
    for (i, k), u in a.items():
        for (k2, j), v in b.items():
            if k == k2:
                out[i, j] = out.get((i, j), F0) + u * v
    return {e: v for e, v in out.items() if v}


def oracle_build_algebra(kind, m, n, C=1):
    """gl(m|n) or osp(m|2n) by the dense formulas: for osp, the osp
    condition B(Xu, v) + (-1)^{|X||u|} B(u, Xv) = 0 on all N^2 pairs of
    natural basis vectors of each weight space; the Gram matrix
    C * str(X_i X_j) from the product matrices; and the root-vector
    property [H, X] = w(H) X checked through `bracket`.  Returns
    ([(label, parity, root, matrix)], gram, root vectors certified)."""
    from superbgg.algebra import BasisElement, LieSuperalgebra, weight_key

    C = Fraction(C)
    if kind == "gl":
        rank = r = m + n
        nat_parity = [0] * m + [1] * n
        nat_weight = [_oracle_unit(rank, i) for i in range(rank)]
        coord_index = list(range(rank))
        zero = (F0,) * rank
        basis = [BasisElement(f"E{i + 1}{i + 1}", 0, zero, {(i, i): F1}, True)
                 for i in range(rank)]
        basis += [BasisElement(f"E{i + 1}{j + 1}", (nat_parity[i] + nat_parity[j]) % 2,
                               tuple(a - b for a, b in zip(nat_weight[i], nat_weight[j])),
                               {(i, j): F1})
                  for i in range(rank) for j in range(rank) if i != j]
    else:
        d, odd_m = m // 2, m % 2
        rank, r = d + n, d
        zero = (F0,) * rank
        fplus = 2 * d + odd_m
        nat_parity = [0] * fplus + [1] * (2 * n)
        nat_weight = ([_oracle_unit(rank, i) for i in range(d)]
                      + [_oracle_unit(rank, i, -1) for i in range(d)]
                      + [zero] * odd_m
                      + [_oracle_unit(rank, d + j) for j in range(n)]
                      + [_oracle_unit(rank, d + j, -1) for j in range(n)])
        coord_index = list(range(d)) + [fplus + j for j in range(n)]
        bar, bval = {}, {}
        for i in range(d):
            bar[i], bar[d + i] = d + i, i
            bval[i] = bval[d + i] = F1
        if odd_m:
            bar[2 * d], bval[2 * d] = 2 * d, F1
        for j in range(n):
            p, q = fplus + j, fplus + n + j
            bar[p], bar[q] = q, p
            bval[p], bval[q] = F1, -F1
        basis = [BasisElement(f"H{i + 1}", 0, zero, {(i, i): F1, (d + i, d + i): -F1}, True)
                 for i in range(d)]
        basis += [BasisElement(f"K{j + 1}", 0, zero,
                               {(fplus + j, fplus + j): F1,
                                (fplus + n + j, fplus + n + j): -F1}, True)
                  for j in range(n)]
        N = len(nat_parity)
        by_weight = {}
        for p in range(N):
            for q in range(N):
                w = tuple(a - b for a, b in zip(nat_weight[p], nat_weight[q]))
                if w != zero:
                    by_weight.setdefault(w, []).append((p, q))
        for w in sorted(by_weight, key=weight_key):
            units = by_weight[w]
            xpar = (nat_parity[units[0][0]] + nat_parity[units[0][1]]) % 2
            rows = []
            for q in range(N):
                for rr in range(N):
                    sgn = -F1 if (xpar and nat_parity[q]) else F1
                    row = [(bval[bar[rr]] if (bar[rr], q) == u else F0)
                           + sgn * (bval[q] if (bar[q], rr) == u else F0)
                           for u in units]
                    if any(row):
                        rows.append(row)
            kernel = oracle_kernel(rows, len(units))
            for num, vec in enumerate(kernel):
                scale = lcm(1, *(x.denominator for x in vec))
                mat = {units[i]: vec[i] * scale for i in range(len(units)) if vec[i]}
                suffix = "" if len(kernel) == 1 else f"_{num}"
                basis.append(BasisElement("X[" + ",".join(map(str, w)) + "]" + suffix,
                                          xpar, w, mat))
    g = LieSuperalgebra(kind=kind, m=m, n=n, r=r, s=rank - r, basis=basis,
                        simple_roots=[], form_normalization=C,
                        nat_parity=nat_parity, nat_weight=nat_weight,
                        coord_index=coord_index, name=f"{kind}({m}|{n})")
    gram = []
    for x in basis:
        row = []
        for y in basis:
            prod = _oracle_matmul(x.matrix, y.matrix)
            row.append(C * sum((-v if nat_parity[p] else v
                                for (p, q), v in prod.items() if p == q), F0))
        gram.append(row)
    cartan = [i for i, b in enumerate(basis) if b.is_cartan]
    certified = all(
        g.bracket(h, i) == ({i: e} if (e := g.eval_weight(b.root, {h: F1})) else {})
        for i, b in enumerate(basis) if not b.is_cartan for h in cartan)
    return ([(b.label, b.parity, b.root, b.matrix) for b in basis], gram, certified)


# ---------------------------------------------------------------------------
# whole-map cross-checks
# ---------------------------------------------------------------------------

def whole_map_checks(an, k_max):
    """(nilpotency, quabla agreement) of a KostantAnalysis on the degrees
    that `cli._internal_checks` covers, from whole maps: every product
    composed with ChainMap.compose, and the direct quabla built whole and
    compared with the analysis's Casimir parts merged into one map."""
    cx = an.cx
    nil = (all(not any(cx.lower(k - 1).compose(cx.lower(k)).icols)
               for k in range(2, k_max + 1))
           and not any(cx.lower(k_max).compose(an.boundary_above(k_max)).icols)
           and all(not any(cx.raise_(k + 1).compose(cx.raise_(k)).icols)
                   for k in range(k_max - 1)))
    quab = all(same_map(cx.quabla(k), merged_quabla(an.quabla_map(k)))
               for k in range(k_max))
    return nil, quab


# ---------------------------------------------------------------------------
# composed Casimir quabla oracle
# ---------------------------------------------------------------------------

def oracle_casimir_quabla(cx, k):
    """quabla = -1/2 (C2(lambda) + w(h) - sum_i A_i A_i^#) on C_k of a
    ChainComplex, with h = sum_a [z_a, z_a^#], composed from the
    tensor-word action (`oracle_action`) of every Levi basis element and
    the dense Levi duals, as columns {row: Fraction}."""
    from superbgg.algebra import casimir_eigenvalue, dual_basis_in

    p, g = cx.parabolic, cx.algebra
    sp = cx.space(k)
    levi = p.levi_indices

    def key(word, mi):
        return (tuple(i for i in word if not g.parity(i)),
                tuple(i for i in word if g.parity(i)), mi)

    basis = chain_basis(sp)
    index = {e: t for t, e in enumerate(basis)}
    acts = {i: [{index[key(word, mi)]: c
                 for (word, mi), c in oracle_action(p, cx.module, i, ev + od, m).items()}
                for ev, od, m in basis]
            for i in levi}
    hvec = {}
    for a, gen in enumerate(cx.radical):
        for t, c in g.bracket_vec({gen: F1}, cx.duals[a]).items():
            hvec[t] = hvec.get(t, F0) + c
    c2 = casimir_eigenvalue(g, cx.module.highest_weight)
    cols = []
    for j in range(sp.dim):
        w = sp.weights[j]
        col = {j: -Fraction(1, 2) * (c2 + g.eval_weight(w, hvec))}
        for i, dual in zip(levi, dual_basis_in(g, levi, levi)):
            inner = {}
            for t, c in dual.items():
                for r, v in acts[t][j].items():
                    inner[r] = inner.get(r, F0) + c * v
            for r, v in inner.items():
                for s, u in acts[i][r].items():
                    col[s] = col.get(s, F0) + Fraction(1, 2) * v * u
        cols.append({r: v for r, v in col.items() if v})
    return cols


# ---------------------------------------------------------------------------
# Fraction side of the int algebra and irrep
# ---------------------------------------------------------------------------

def _frac_act(mod, element, vec):
    """sum_i c_i act(A_i) applied to a sparse vector, in Fractions."""
    out = {}
    for i, ci in element.items():
        for j, cj in vec.items():
            for r, v in mod.action[i][j].items():
                out[r] = out.get(r, F0) + Fraction(ci) * cj * v
    return {r: v for r, v in out.items() if v}


def bracket_identity_holds(mod):
    """act(A)act(B) - (-1)^{|A||B|} act(B)act(A) == act([A,B]) on all pairs
    of basis elements and basis vectors."""
    g = mod.algebra
    for a in range(g.dim):
        for b in range(g.dim):
            sgn = -1 if (g.parity(a) and g.parity(b)) else 1
            br = g.bracket(a, b)
            for j in range(mod.dim):
                comm = _frac_act(mod, {a: F1}, _frac_act(mod, {b: F1}, {j: F1}))
                for r, v in _frac_act(mod, {b: F1}, _frac_act(mod, {a: F1}, {j: F1})).items():
                    comm[r] = comm.get(r, F0) - sgn * v
                if {r: v for r, v in comm.items() if v} != _frac_act(mod, br, {j: F1}):
                    return False
    return True


def contravariance_holds(mod):
    """<A v_j, v_i> = <v_j, A^dagger v_i> for every basis element A and all
    basis vectors v_i, v_j, with the module's Gram and adjoint operation."""
    g, op = mod.algebra, mod.adjoint
    for a in range(g.dim):
        dag = op.apply_basis(a)
        for i in range(mod.dim):
            dv = _frac_act(mod, dag, {i: F1})
            for j in range(mod.dim):
                lhs = sum((Fraction(c) * module_gram(mod, r, i)
                           for r, c in mod.action[a][j].items()), F0)
                if lhs != sum((c * module_gram(mod, j, r) for r, c in dv.items()), F0):
                    return False
    return True


def _full_dual_basis(g):
    """A_i^# with (A_i^#, A_j) = delta_ij over the whole algebra: the rows of
    the Gram's inverse, by Fraction Gauss-Jordan."""
    n = g.dim
    red, pivots = oracle_rref([list(row) + [F1 if i == j else F0 for j in range(n)]
                               for i, row in enumerate(g.gram)])
    assert pivots == list(range(n))
    return [{j: red[i][n + j] for j in range(n) if red[i][n + j]} for i in range(n)]


def casimir_action_scalar(mod):
    """The scalar by which sum_i A_i A_i^# acts; CrossCheckFailed if it is
    not a scalar."""
    from superbgg.errors import CrossCheckFailed
    g = mod.algebra
    duals = _full_dual_basis(g)
    total = []
    for j in range(mod.dim):
        col = {}
        for i in range(g.dim):
            for r, v in _frac_act(mod, {i: F1}, _frac_act(mod, duals[i], {j: F1})).items():
                col[r] = col.get(r, F0) + v
        total.append({r: v for r, v in col.items() if v})
    scalar = total[mod.hw_index].get(mod.hw_index, F0)
    for j in range(mod.dim):
        if total[j] != ({j: scalar} if scalar else {}):
            raise CrossCheckFailed("Casimir does not act as a scalar")
    return scalar


def oracle_commutator(g, i, j):
    """[B_i, B_j] of the natural-module matrices in Fractions, zeros dropped."""
    sgn = -1 if (g.parity(i) and g.parity(j)) else 1
    out = dict(_oracle_matmul(g.basis[i].matrix, g.basis[j].matrix))
    for e, v in _oracle_matmul(g.basis[j].matrix, g.basis[i].matrix).items():
        out[e] = out.get(e, F0) - sgn * v
    return {e: v for e, v in out.items() if v}


def oracle_casimir(g, lam):
    """(lam, lam + 2 rho) in Fractions from the matrices alone: the Cartan
    Gram C * str(H_a H_b) from their diagonals, the form on h* as
    K G^-1 K^T (K[c][a] = coordinate c of H_a), and rho from the roots whose
    simple-root coordinates, solved by Fraction Gauss-Jordan, are >= 0."""
    C = Fraction(g.form_normalization)
    hs = [b.matrix for b in g.basis if b.is_cartan]
    gram = [[C * sum((-v if g.nat_parity[p] else v) * Fraction(y.get((p, q), 0))
                     for (p, q), v in x.items()) for y in hs] for x in hs]
    nh = len(hs)
    red, _ = oracle_rref([row + [F1 if a == b else F0 for b in range(nh)]
                          for a, row in enumerate(gram)])
    inv = [row[nh:] for row in red]
    K = [[Fraction(h.get((p, p), 0)) for h in hs] for p in g.coord_index]

    def form(a, b):
        return sum((a[c] * K[c][s] * inv[s][t] * K[d][t] * b[d]
                    for c in range(g.rank) for d in range(g.rank)
                    for s in range(nh) for t in range(nh)), F0)

    ns = len(g.simple_roots)
    rho = [F0] * g.rank
    for b in g.basis:
        if b.is_cartan:
            continue
        red, pivots = oracle_rref([[sr[c] for sr in g.simple_roots] + [b.root[c]]
                                   for c in range(g.rank)])
        if ns not in pivots and all(red[r][ns] >= 0 for r in range(ns)):
            rho = [x + Fraction(-1 if b.parity else 1, 2) * y
                   for x, y in zip(rho, b.root)]
    lam = [Fraction(x) for x in lam]
    return form(lam, [x + 2 * y for x, y in zip(lam, rho)])


def exact_values(values):
    """Whether every value is an int or a Fraction that is not integral: the
    ints-where-integral convention (no float, no Fraction(n, 1))."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in values)


# ---------------------------------------------------------------------------
# the natural and dual modules and their contravariant forms
# ---------------------------------------------------------------------------
#
# The package builds every module it reads with build_irrep or
# build_kac_module; these build the defining representation from the
# matrices and the dual of an irrep, for the tests that compare against
# them and for the pairing of Lambda nbar (x) V* with Lambda n (x) V
# (chain_pairing.py).

def natural_module(g):
    """The defining representation, taken directly from the matrix
    realization, with its contravariant form."""
    from superbgg.algebra import build_adjoint_operation, natural_form_diagonal
    from superbgg.modules import HWModule

    dim = g.nat_dim
    action = [[{} for _ in range(dim)] for _ in range(g.dim)]
    for i, b in enumerate(g.basis):
        for (r, c), v in b.matrix.items():
            action[i][c][r] = v
    hw = _unique_highest_weight_vector(
        g, action, "natural module must have one highest weight vector")
    mod = HWModule(
        algebra=g, highest_weight=g.nat_weight[hw],
        weights=list(g.nat_weight), parities=list(g.nat_parity),
        action=action, hw_index=hw, label="natural",
        adjoint=build_adjoint_operation(g, 1),
    )
    mdiag = natural_form_diagonal(g)
    mod.gram_blocks = {
        w: [[mdiag[p] if p == q else 0 for q in idxs] for p in idxs]
        for w, idxs in mod.weight_blocks.items()
    }
    return mod


def dual_module(mod):
    """Dual representation (A alpha)(v) = -(-1)^{|A||alpha|} alpha(A v).

    The double dual is identified with the original module through the
    canonical isomorphism v -> (-1)^{|v||.|} ev_v, whose matrix is the parity
    conjugation; composing with it makes dualization a literal involution:
    the dual keeps the module it is the dual of (`dual_of`), and the dual
    of a dual is a copy of that module."""
    from superbgg.algebra import parity_twist
    from superbgg.modules import HWModule

    orig = getattr(mod, "dual_of", None)
    if orig is not None:
        return HWModule(
            algebra=orig.algebra, highest_weight=orig.highest_weight,
            weights=list(orig.weights), parities=list(orig.parities),
            action=orig.action, hw_index=orig.hw_index, label=orig.label,
            adjoint=orig.adjoint, gram_blocks=orig.gram_blocks,
        )
    g = mod.algebra
    dim = mod.dim
    action = []
    for i in range(g.dim):
        pa = g.parity(i)
        cols = [{} for _ in range(dim)]
        for k in range(dim):
            for j, v in mod.action[i][k].items():
                cols[j][k] = v if (pa and mod.parities[j]) else -v
        action.append(cols)
    weights = [tuple(-x for x in w) for w in mod.weights]
    hw = _unique_highest_weight_vector(
        g, action, "dual of an irreducible module must be irreducible")
    op2 = parity_twist(mod.adjoint)
    dual = HWModule(
        algebra=g, highest_weight=weights[hw], weights=weights,
        parities=list(mod.parities), action=action, hw_index=hw,
        label=mod.label + "*", adjoint=op2,
    )
    dual.dual_of = mod
    dual.gram_blocks = contravariant_gram_blocks(dual, op2)
    return dual


def _unique_highest_weight_vector(g, action, failure):
    """The one basis vector killed by every positive root vector; raises
    CrossCheckFailed(failure) unless there is exactly one."""
    from superbgg.errors import CrossCheckFailed
    pos_idx = g.positive_root_indices()
    hw = [p for p in range(len(action[0]))
          if all(not action[i][p] for i in pos_idx)]
    if len(hw) != 1:
        raise CrossCheckFailed(failure)
    return hw[0]


def contravariant_gram_blocks(mod, op):
    """Gram blocks of the contravariant form with <v_hw, v_hw> = 1.

    Works for any module cyclic over its highest weight vector; blocks are
    solved top-down from contravariance against the simple lowering vectors.
    """
    from superbgg.algebra import wt_sub
    from superbgg.modules import _simple_data

    g = mod.algebra
    pos, neg, kappa, _ = _simple_data(g, op)
    lam = mod.highest_weight
    blocks = mod.weight_blocks
    heights = {}
    for w in blocks:
        h = g.height(wt_sub(lam, w))
        if h is None or h < 0:
            raise PreconditionViolated(
                f"weight {w} does not lie below the highest weight {lam}")
        heights[w] = h
    order = sorted(blocks, key=lambda w: (heights[w], weight_key(w)))
    hwblk = blocks[lam]
    if len(hwblk) != 1:
        raise PreconditionViolated("highest weight space must be one dimensional")
    gram = {lam: [[1 if hwblk[0] == mod.hw_index else 0]]}
    for w in order:
        if w == lam:
            continue
        idxs = blocks[w]
        d = len(idxs)
        pos_of = {gidx: t for t, gidx in enumerate(idxs)}
        rows = []
        for i in range(len(pos)):
            upper_w = wt_add(w, g.simple_roots[i])
            if upper_w not in blocks:
                continue
            uidx = blocks[upper_w]
            upos = {gidx: t for t, gidx in enumerate(uidx)}
            gup = gram[upper_w]
            for x in uidx:
                fx = mod.action[neg[i]][x]
                for y in idxs:
                    # one equation over the d * d unknowns, right side last
                    row = [0] * (d * d + 1)
                    for z, cz in fx.items():
                        if z in pos_of:
                            row[pos_of[z] * d + pos_of[y]] += cz
                    val = 0
                    for u, cu in mod.action[pos[i]][y].items():
                        if u in upos:
                            val += cu * gup[upos[x]][upos[u]]
                    row[-1] = kappa[i] * val
                    rows.append(row)
        # a unique solution exactly when every unknown is a pivot (and the
        # right side is not)
        red, pivots = linalg.rref(rows)
        if pivots != list(range(d * d)):
            raise PreconditionViolated("contravariant form underdetermined; "
                                       "module is not cyclic over its top vector")
        gram[w] = [[red[a * d + b][-1] for b in range(d)] for a in range(d)]
    return gram


def module_gram(mod, i, j):
    """<v_i, v_j> of a module's contravariant form (`gram_blocks`)."""
    w = mod.weights[i]
    if mod.weights[j] != w:
        return 0
    block = mod.weight_blocks[w]
    return mod.gram_blocks[w][block.index(i)][block.index(j)]


# ---------------------------------------------------------------------------
# algebras that build_algebra rejects, and the even Weyl group by matrices
# ---------------------------------------------------------------------------

def build_gl_nn(n, C=1):
    """gl(n|n) on the full matrix algebra, which `build_algebra` rejects
    (the supertrace form kills the identity); its supertrace Gram matrix is
    still invertible, so it serves cross-checks such as gl(1|1)."""
    from superbgg.algebra import _build_gl
    return _build_gl(n, n, Fraction(C))


def _oracle_reflection_matrix(g, alpha):
    """Rows: the images of the unit coordinate vectors under s_alpha, from
    the Fraction form on h*."""
    denom = g.weight_form(alpha, alpha)
    if denom == 0:
        raise PreconditionViolated(f"no reflection in the isotropic root {alpha}")
    rows = []
    for c in range(g.rank):
        e = _oracle_unit(g.rank, c)
        coeff = 2 * g.weight_form(e, alpha) / denom
        rows.append(tuple(e[i] - coeff * alpha[i] for i in range(g.rank)))
    return tuple(rows)


def _oracle_apply(mat, w):
    rank = len(w)
    return tuple(sum((w[c] * mat[c][i] for c in range(rank) if w[c]), F0)
                 for i in range(rank))


def _oracle_apply_t(mat, w):
    """The transpose of mat applied to w: its inverse, as every even
    reflection is orthogonal in the unit coordinates."""
    rank = len(w)
    return tuple(sum((mat[i][c] * w[c] for c in range(rank) if w[c]), F0)
                 for i in range(rank))


def oracle_weyl_coset(g, p):
    """[(word, length, matrix)] of the minimal coset representatives of
    W_l \\ W(g_0) by a breadth-first search on rank x rank Fraction matrices
    (w -> w s_i as matrix products), in (length, word) order; the letters
    index the simple roots of g_0 in `even_simple_roots` order."""
    from superbgg.algebra import even_simple_roots, positive_even_roots
    refls = [_oracle_reflection_matrix(g, a) for a in even_simple_roots(g)]
    rank = g.rank
    ident = tuple(tuple(F1 if i == j else F0 for j in range(rank)) for i in range(rank))
    seen, frontier = {ident: ()}, [ident]
    while frontier:
        nxt = []
        for mat in frontier:
            for si, refl in enumerate(refls):
                comp = tuple(_oracle_apply(mat, refl[c]) for c in range(rank))
                if comp not in seen:
                    seen[comp] = seen[mat] + (si,)
                    nxt.append(comp)
        frontier = nxt
    pos_even = positive_even_roots(g)
    levi_pos = [g.root(i) for i in p.levi_indices
                if not g.basis[i].is_cartan and g.is_positive_root(g.root(i))]
    out = []
    for mat, word in seen.items():
        length = sum(1 for a in pos_even if not g.is_positive_root(_oracle_apply(mat, a)))
        if all(g.is_positive_root(_oracle_apply_t(mat, a)) for a in levi_pos):
            out.append((word, length, mat))
    return sorted(out, key=lambda t: (t[1], t[0]))


def oracle_dot_action(g, mat, lam):
    """w . lam = w(lam + rho) - rho for w given by its matrix."""
    from superbgg.algebra import wt, wt_sub
    return wt(*wt_sub(_oracle_apply(mat, wt_add(lam, g.rho)), g.rho))
