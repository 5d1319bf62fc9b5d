"""Exact rank computations on the chain complexes.

Everything is organized per weight block: the four operators and the quabla
operator are h-equivariant, so kernels, images, homology quotients and
generalized eigenspaces decompose along weights and each block is
eliminated on its own.

The Levi decomposition is weight-local too, and it runs in C_k's own
coordinates.  Both l-modules the pipeline decomposes are a quotient K/I of
l-stable subspaces I <= K of C_k: H_k, with K = ker d*_k and I =
im d*_{k+1} (the bases block_data holds), and ker quabla_k, with I = 0.
A LeviModule is that record.  The Levi action on it is the complex's own
action on C_k, whose int columns are formed one at a time where the
decomposition first reads them (ChainComplex.action_columns), and a class
modulo I is the reduction by I's RREF rows at its weight, a linear
projection whose kernel is I.  Every vector handled is
weight-homogeneous, so the highest-weight kernels, the lowering closures
and their union keep echelon pivots per weight: no elimination ever runs
over the whole module.

The Levi layer runs on Python ints.  The int columns of an action are
den times the exact ones, one den per degree and Levi element, and a class
is a fixed positive multiple (per weight) of the exact projection.
Kernels of stacked blocks, spans, lowering closures of weight-homogeneous
vectors and ranks are unchanged by a nonzero scalar per map and per
weight, which is why decompose_levi reads only int columns and gets the
same H_w, G_w, certificate and dimensions as exact rational arithmetic.

The homology block layer runs on ints too: images are the primitive
multiples of the exact block's pivot columns, kernel vectors positive
multiples of the RREF kernel vectors.  That changes no span, rank or
intersection.

Homology groups of interest are H_k(nbar, W) = ker(delta*_k)/im(delta*_{k+1})
computed on Lambda^. nbar (x) W; these are the groups whose induced modules
form BGG resolutions of W.

Most weight blocks are acyclic, and there the block layer forms no basis.
Call (k, w) acyclic when the block of quabla_k = d d* + d* d at w is
invertible, i.e. has no generalized zero space (Kostant's argument).  Then
C_{k,w} is exact for d* and for d:

* quabla commutes with d*: quabla_k d*_{k+1} = d*_{k+1} d_k d*_{k+1} =
  d*_{k+1} quabla_{k+1}, as d*_k d*_{k+1} = 0 and d*_{k+1} d*_{k+2} = 0.
  So quabla_k maps im d*_{k+1,w} into itself, injectively, hence onto.
  For x in ker d*_{k,w}, quabla x = d*(d x) lies in im d*_{k+1,w}, so x
  does too: ker d*_{k,w} = im d*_{k+1,w}.
* Dually quabla commutes with d (d d = 0), and for x in ker d_{k,w},
  quabla x = d(d* x): ker d_{k,w} = im d_{k-1,w}.
* If x = d* y and d x = 0, then quabla x = d d* d* y + d* d x = 0; so
  im d* meets ker d only in ker quabla = 0, and dually im d meets ker d*
  only in 0.

So statements (1)-(7) hold at (k, w) with no rank test, H_k has no weight
w, and the ranks follow by recursion: dim ker d*_{k,w} = dim im d*_{k+1,w}
= n_{k,w} - dim im d*_{k,w}, the last term the image count that degree
k - 1 holds at w (0 at k = 0 or where C_{k-1} has no weight w).  An
operator block has two readers: block_data reads the kernels of d*_k and
the images of d*_{k+1}, predicates those of d_k and d_{k-1}.  The block is
eliminated once per reader that sits at a dominant non-acyclic weight
(below), and nothing is kept between readers: a block read twice is rare
and small.  The homology quotient keeps its acyclic weights: there a column lies in
span(im d*_{k+1}) = ker d*_k exactly when d*_k kills it, one sparse
product, and its class is zero.

Which blocks are acyclic is known before any elimination, from Casimir
values alone.  block_data eliminates a quabla block only at the candidate
weights of its degree (KostantAnalysis.candidate_weights): the weights mu
of C_k with C2(mu) = C2(lambda) (`_casimir_matcher`), closed
downward under w -> w - alpha_i over the Levi simple roots alpha_i inside
the weights of C_k.  Every other block is invertible:

* C_l is central in U(l), so on any composition series of the
  finite-dimensional l-module C_k it acts on each factor L(mu) by
  c_l(mu) = (mu, mu + 2 rho_l).
* w(h) = (w, 2 rho_l - 2 rho) (checked once per complex,
  ChainComplex._casimir_terms), and 2 rho - 2 rho_l is orthogonal to every
  Levi simple root (2 (rho, alpha_i) = (alpha_i, alpha_i) = 2 (rho_l,
  alpha_i)), so w(h) = (mu, 2 rho_l - 2 rho) at every weight w of L(mu).
  Kostant's formula -1/2 (C2(lambda) + w(h) - C_l) therefore acts on L(mu)
  by -1/2 (C2(lambda) + (mu, 2 rho_l - 2 rho) - (mu, mu + 2 rho_l)) =
  1/2 (C2(mu) - C2(lambda)).  On each weight space quabla is triangular
  along the series, so its block at w is singular only if some factor
  L(mu) with C2(mu) = C2(lambda) has the weight w.
* L(mu) = U(nbar_l) v_mu, and nbar_l is generated by the root vectors of
  the -alpha_i: each weight of L(mu) is reached from mu by steps
  w -> w - alpha_i through weights of L(mu) (the partial products of a
  nonzero f_{i_n} ... f_{i_1} v_mu are nonzero), and those lie in the
  weights of C_k, as mu does.

Of what survives the filter, block_data eliminates one weight per Weyl
orbit.  d*, d and quabla commute with l, hence with its even part l_0, a
reductive Lie algebra, so every space the block layer forms (ker and im
of d*_k and d_k, ker quabla_k, the generalized zero space, their
intersections) is an l_0-submodule of C_k.  The weight multiplicities of
a finite-dimensional l_0-module are invariant under the Weyl group W(l_0)
(Humphreys, Introduction to Lie Algebras and Representation Theory,
21.2), and each W(l_0)-orbit of weights holds exactly one dominant weight,
one with (w, a^v) >= 0 for every simple root a of l_0.  So:

* every count block_data keeps at w (the block size, dim ker quabla, dim
  of the generalized zero space, dim ker d*_k, dim im d*_{k+1}, and so
  acyclicity) is the count at the dominant representative of w;
* each of statements (1)-(7) asks, at every weight, that an l_0-submodule
  be zero or that two have equal multiplicities.  A nonzero submodule has
  a nonzero weight space at the representative of any of its weights, so
  each statement holds at every weight of C_k exactly when it holds at
  the dominant ones;
* a highest-weight vector of an l-constituent is killed by n+_l, which
  holds n+_{l_0}, so it generates a finite-dimensional highest-weight
  l_0-module and its weight is l_0-dominant: decompose_levi searches the
  dominant weights alone.

Every other candidate weight takes the counts of its representative,
reached by simple reflections s_a(w) = w - (w, a^v) a (`_orbit_map`); that
the representative is a weight of C_k of the same multiplicity is checked
as it is found.  A basis at a non-dominant weight is eliminated only when
asked (KostantAnalysis.basis), as the homology quotient asks for I where
decompose_levi projects onto it, and its size is checked against the
counts of the representative.  On a Borel l_0 is the Cartan, W(l_0) is
trivial, and no weight is mapped.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .algebra import (
    ParabolicDecomposition,
    Weight,
    even_simple_roots,
    weight_key,
    wt_add,
    wt_sub,
)
from .chains import CasimirQuabla, ChainComplex, ChainMap
from .errors import (
    CrossCheckFailed,
    FiniteDimGuardExceeded,
    LeviNotClosed,
    NotCompletelyReducible,
    PreconditionViolated,
)
from .modules import Module, build_irrep, restrict_adjoint


def _quabla_kernels(quab: list, dim: int) -> tuple[list, list]:
    """Bases of ker q and of the generalized zero eigenspace of one int
    quabla block q (dim x dim), as primitive int vectors.  block_data runs
    it at the candidate weights alone (module docstring).

    The generalized zero space is ker q^e for any e >= dim.  It is ker q
    exactly when ker q meets im q only in 0, and one rank test decides
    that: with R the int RREF rows of q (ker R = ker q) and Q the pivot
    columns of q (a basis of im q), a vector Q c of im q lies in ker q
    exactly when R Q c = 0, so the intersection is 0 exactly when the
    r x r matrix R Q is nonsingular.  Then the generalized zero space is
    `kernel` itself.  Elsewhere kernels grow along q, q^2, q^4, ... and
    once ker q^e = ker q^2e they have stopped growing, so squaring stops
    there; an invertible q has no generalized zero space at all.  The
    kernel basis (linalg.Echelon.kernel) is read off the RREF, which the
    kernel alone determines, so it is the basis of ker q^e for every
    e >= dim.  R Q is a sparse product: row r of R Q is the sum of the
    sparse rows of Q at the nonzeros of row r of R."""
    ech = linalg.echelon(quab, integral=True).reduce()
    kernel = ech.kernel(dim)
    if not kernel:
        return [], []
    pivots = sorted(ech.rows)
    q_piv = [{j: q for j, p in enumerate(pivots) if (q := qrow[p])} for qrow in quab]
    meet = linalg.Echelon(_apply(q_piv, row) for row in ech.rows.values())
    if meet.rank == len(pivots):
        return kernel, kernel
    gen_zero, power, e = kernel, quab, 1
    while e < dim and len(gen_zero) < dim:
        power = linalg.mat_mul(power, power)
        e *= 2
        grown = linalg.echelon(power, integral=True).reduce().kernel(dim)
        if len(grown) == len(gen_zero):
            break
        gen_zero = grown
    return kernel, gen_zero


def _casimir_matcher(cx: ChainComplex):
    """The test C2(w) == C2(lambda) on weights w of cx's chain spaces,
    lambda the module's highest weight: the one test of both
    KostantAnalysis.candidate_weights and decompose_levi.

    C2(w) = (w, w + 2 rho) is compared through the quadratic part of the
    complex's Casimir terms, a positive int multiple of the form on h*, in
    ints wherever w is integral.  Reading it builds those terms, so their
    check of w(h) = (w, 2 rho_l - 2 rho), the premise of the module
    docstring's filter, has held before any weight is tested."""
    quad, two_rho = cx._casimir_terms.quadratic, cx.algebra.two_rho

    def value(w):
        return sum(b * w[c] * (w[d] + two_rho[d]) for c, d, b in quad)
    target = value(cx.module.highest_weight)
    return lambda w: value(w) == target


def _block_kernels(m: ChainMap, weights: list) -> dict:
    """{w: int kernel basis} of the blocks of `m` at those of `weights`
    that are source weights of `m` (linalg.Echelon.kernel)."""
    blocks = m.source.weight_blocks
    return {w: linalg.echelon(m.int_block(w), integral=True).reduce()
            .kernel(len(blocks[w])) for w in weights if w in blocks}


def _block_images(m: ChainMap, weights: list) -> dict:
    """{w: int image basis} of the blocks of `m` at those of `weights` that
    are source weights of `m`: the primitive multiples of the pivot
    columns, i.e. of the block's first-come independent columns (the leads
    of its row echelon).  Being primitive, they do not depend on the
    denominator of `m`, which a map restricted to a few blocks may have
    other than the whole map."""
    out = {}
    for w in weights:
        if w in m.source.weight_blocks:
            block = m.int_block(w)
            pivots = sorted(linalg.echelon(block, integral=True).rows)
            cols = out[w] = []
            for c in pivots:
                col = [row[c] for row in block]
                g = gcd(*col)
                cols.append([x // g for x in col])
    return out


def _apply(icols: list, vec: dict) -> dict:
    """The int map with columns `icols` applied to the sparse int vector
    `vec` (indices of `vec` are columns)."""
    out: dict = {}
    for j, c in vec.items():
        linalg.vec_iadd(out, icols[j], c)
    return out


def _ambient_columns(idxs: list, cols: list) -> list:
    """Dense columns over one weight block (ambient indices `idxs`) as sparse
    columns over the whole chain space."""
    return [{idxs[i]: v for i, v in enumerate(col) if v} for col in cols]


def _coroots(p: ParabolicDecomposition) -> list:
    """(a, row, norm) for each simple root a of the even Levi l_0, cached
    on the parabolic: (w, a^v) = 2 (w, a) / (a, a) = 2 (w . row) / norm,
    row the algebra's int form on h* times a and norm = a . row, both
    signed so that norm > 0.  So the pairing is a sum of int products
    wherever w is integral."""
    hit = p._levi_cache.get("coroots")
    if hit is None:
        g, hit = p.algebra, []
        for a in even_simple_roots(g, p.levi_indices):
            row = [sum(x * y for x, y in zip(qrow, a)) for qrow in g._weight_form[0]]
            norm = sum(x * y for x, y in zip(a, row))
            sign = 1 if norm > 0 else -1
            hit.append((a, [(c, sign * x) for c, x in enumerate(row) if x], sign * norm))
        p._levi_cache["coroots"] = hit
    return hit


def _reflect_up(coroots: list, w: Weight) -> Weight | None:
    """s_a(w) = w - (w, a^v) a at the first simple root a of l_0
    (`_coroots`) with (w, a^v) < 0, or None where w is l_0-dominant;
    CrossCheckFailed where that (w, a^v) is not an integer."""
    for a, row, norm in coroots:
        c = 2 * sum(w[i] * x for i, x in row)
        if c < 0:
            q, r = divmod(c, norm)
            if r:
                raise CrossCheckFailed(f"a coroot pairs {w} to a non-integer")
            return tuple(x - q * y for x, y in zip(w, a))
    return None


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------

@dataclass
class LDecompositionEntry:
    highest_weight: Weight
    hw_vector_count: int
    irrep_dimension: int | None
    generated_dimension: int


@dataclass
class LDecomposition:
    entries: list
    completely_reducible: bool
    total_dimension: int

    def weight_multiplicities(self) -> dict:
        return {e.highest_weight: e.hw_vector_count for e in self.entries}


@dataclass
class PredicateReport:
    degree: int
    values: dict                 # statement number (1..7) -> bool
    consistent: bool             # degreewise-equivalent pair (1)<->(2) agrees


@dataclass
class HomologyReport:
    degree: int
    dim_ker_boundary: int
    dim_im_boundary_above: int
    homology_dimension: int
    weight_multiplicities: dict


# ---------------------------------------------------------------------------
# Levi modules: quotients K/I inside a chain space
# ---------------------------------------------------------------------------

class LeviModule:
    """The l-module K/I of two l-stable subspaces I <= K of the chain space
    C_k, in C_k's own coordinates.  `ker[w]` and `im[w]` are bases of K and
    I at weight w, sparse ambient int columns supported in the weight block
    of w, in mappings that a caller may fill on first read; `dims` holds
    dim M_w = |ker[w]| - |im[w]| at each weight where it is not 0.  Without
    `dims` the bases are read whole and checked against the weight blocks.

    With `im` (a homology quotient, KostantAnalysis.homology_quotient_module)
    K is ker d*_k and I is im d*_{k+1}.  The weights in `acyclic` hold
    neither: K = I there, so the quotient is zero.  `express` certifies
    every column it is handed by d*_k, and the lowering closure hands it
    only the images it inserts.  Without `im` (ker quabla_k,
    KostantAnalysis.ker_quabla_module) I = 0 and K is l-stable because
    quabla commutes with l, so columns are taken as they are, with no
    product per image.
    """

    def __init__(self, cx: ChainComplex, k: int, ker: Mapping, im: Mapping | None = None,
                 acyclic: frozenset = frozenset(), dims: dict | None = None):
        self.cx = cx
        self.k = k
        self.ker = ker
        self.im = im
        self.acyclic = acyclic
        if dims is None:
            blocks = cx.space(k).weight_blocks
            for bases in (ker, im or {}):
                for w, cols in bases.items():
                    block = set(blocks.get(w, ()))
                    if not all(col.keys() <= block for col in cols):
                        raise PreconditionViolated(
                            f"a basis vector of weight {w} leaves its weight block")
            dims = {w: n for w, cols in ker.items()
                    if (n := len(cols) - len((im or {}).get(w, ())))}
        self.dims = dims
        self._im_rows: dict = {}

    @property
    def dim(self) -> int:
        return sum(self.dims.values())

    def weight_dim(self, weight: Weight) -> int:
        """dim M_w = |ker[w]| - |im[w]|."""
        return self.dims.get(weight, 0)

    def act(self, levi_index: int):
        """The Levi basis element A_i on C_k: the complex's int action
        columns over one den (`ChainComplex.action_columns`), indexable by
        source index, each formed when decompose_levi first reads it."""
        return self.cx.action_columns(self.k, levi_index)

    def express(self, weight: Weight, cols: list) -> list:
        """The classes modulo I of sparse int columns of C_k at `weight`.

        A class is den times the column's projection along the RREF rows of
        I at that weight (den the lcm of their pivots): linear, int, and
        zero exactly when the column lies in I.  On a homology quotient each
        column is first certified to lie in K = ker d*_k, one sparse product
        with the int columns of lower(k); LeviNotClosed when it does not or
        when it leaves the weight block.  At an acyclic weight K = I and
        every class is zero.  Without `im` the columns are their own
        classes."""
        if self.im is None:
            return cols
        lower, weights = self.cx.lower(self.k).icols, self.cx.space(self.k).weights
        for col in cols:
            if any(weights[g] != weight for g in col):
                raise LeviNotClosed("image leaves the expected weight block")
            if _apply(lower, col):
                raise LeviNotClosed("subspace is not stable under the Levi action")
        if weight in self.acyclic:
            return [{} for _ in cols]
        hit = self._im_rows.get(weight)
        if hit is None:
            rows = linalg.Echelon(self.im.get(weight, [])).reduce().rows
            hit = self._im_rows[weight] = (rows,
                                           lcm(1, *(row[p] for p, row in rows.items())))
        rows, den = hit
        return [_project(col, rows, den) for col in cols]


def _project(col: dict, rows: dict, den: int) -> dict:
    """den * col minus the combination of the RREF `rows` that clears their
    pivots; each row vanishes at the other pivots, so one pass suffices,
    and den makes every multiplier an int."""
    v = {t: den * x for t, x in col.items()}
    for p in rows.keys() & col.keys():
        row = rows[p]
        linalg.vec_iadd(v, row, -(v[p] // row[p]))
    return v


# ---------------------------------------------------------------------------
# decomposition into irreducible l-modules
# ---------------------------------------------------------------------------

def levi_irrep_dimension(p: ParabolicDecomposition, weight: Weight,
                         max_depth: int = 64) -> int | None:
    """Dimension of the abstract irreducible Levi module of highest weight
    `weight`, built with the Shapovalov form; None when it is infinite
    dimensional.  Results are cached on the parabolic.

    That is None past `max_depth` levels, and at once, with nothing built,
    where 2(w, a)/(a, a) is not in Z>=0 for an even simple root a of the
    Levi: e_a kills the highest-weight vector v, and e_a^n f_a^n v is a
    nonzero multiple of v for every n, so no f_a^n v vanishes.

    decompose_levi needs it only to report a decomposition that is not
    completely reducible."""
    cache = p._levi_cache.setdefault("irrep_dims", {})
    if weight in cache:
        return cache[weight]
    g, levi, dim = p.algebra, p.levi_algebra(), None
    if all((c := 2 * g.weight_form(weight, a) / g.weight_form(a, a)).denominator == 1
           and c >= 0 for a in even_simple_roots(levi)):
        op = p._levi_cache.get("levi_op")
        if op is None:
            from .algebra import build_adjoint_operation
            parent_op = build_adjoint_operation(g, 1)
            op = p._levi_cache["levi_op"] = restrict_adjoint(parent_op, levi,
                                                             p.levi_indices)
        try:
            dim = build_irrep(levi, weight, op, max_depth).dim
        except FiniteDimGuardExceeded:
            pass
    cache[weight] = dim
    return dim


def _highest_weight_vectors(mod: LeviModule, weight: Weight, raising: list) -> list:
    """A basis of {x in K_w : e_i x in I for every Levi simple root i} at
    w = `weight`, as sparse int combinations of mod.ker[w]: one int kernel
    of the stacked classes of the raising images.  `raising` holds (root,
    int columns) per raising operator; each is a positive multiple of the
    exact one and a class is linear, so the kernel is the exact one."""
    kcols, ech = mod.ker[weight], linalg.Echelon()
    for root, cols in raising:
        imgs = [_apply(cols, col) for col in kcols]
        if any(imgs):
            classes = mod.express(wt_add(weight, root), imgs)
            for t in {t for c in classes for t in c}:
                ech.add({j: c[t] for j, c in enumerate(classes) if t in c})
    kernel = ech.reduce().kernel(len(kcols))
    return [_apply(kcols, {j: c for j, c in enumerate(vec) if c}) for vec in kernel]


def decompose_levi(p: ParabolicDecomposition, mod: LeviModule) -> LDecomposition:
    """Highest-weight decomposition of the l-module M = K/I of a LeviModule
    (H_k or ker quabla_k).

    For each weight w, H_w is the space of classes at w that the raising
    operators of the Levi simple roots kill (its dimension is
    `hw_vector_count`) and G_w = U(nbar_l).H_w is its closure under the
    Levi lowering operators (`generated_dimension`).  The module M is
    certified completely reducible exactly when

        sum_w dim G_w == dim(sum_w G_w) == dim M,

    i.e. the G_w span M and their sum is direct; dim(sum_w G_w) is the rank
    of the union of their echelon bases, or where one weight carries H_w,
    the number of rows of its closure's echelon basis.  Then every G_w is
    isomorphic to L(w)^(dim H_w), so `irrep_dimension` is
    generated_dimension // hw_vector_count, and a remainder raises
    CrossCheckFailed.

    Proof, valid for Levi superalgebras with odd roots such as
    gl(1|1)+gl(1).  (<=) Every nonzero submodule N of a finite-dimensional
    weight module contains a vector of maximal weight mu, and the simple
    raising operators kill it (they generate n+_l).  Take v in H_w and a
    nonzero submodule N of U(nbar_l)v.  If mu != w, that vector lies in
    H_mu, hence in G_mu and in G_w, contradicting directness.  So mu = w;
    the weight-w space of U(nbar_l)v is the line of v, so v lies in N and
    N = U(nbar_l)v.  Each U(nbar_l)v is therefore irreducible, i.e. L(w);
    G_w is a sum of such, hence a direct sum of copies of L(w), as many as
    the dimension of its weight-w space H_w.  (=>) If M is a direct sum of
    irreducibles, H_w is spanned by the highest-weight lines of the
    summands isomorphic to L(w), G_w is their sum, and the G_w are the
    isotypic components, which add up directly to M.

    Only weights with C2(w) = C2(lambda) can carry H_w.  quabla acts on M
    by zero: on ker quabla_k by definition, and on H_k because quabla x =
    d*(d x) lies in I for x in ker d*_k.  By Kostant's formula
    (ChainComplex.casimir_quabla) it acts on a class of weight w that n+_l
    kills by 1/2 (C2(w) - C2(lambda)), so that class is zero unless the two
    Casimir values agree.  Only such weights with K_w larger than I_w are
    searched, by the test block_data's candidate weights start from
    (`_casimir_matcher`), and of them only the l_0-dominant ones, where
    every highest weight lies (module docstring).

    This is the paper's necessary condition for a BGG resolution (complete
    reducibility of each homology group), checked on the module itself.  A
    decomposition that fails it reports, for each entry, the dimension of
    the abstract Levi irrep (None where `levi_irrep_dimension` finds it
    infinite).  All elimination is local to one weight and runs on the int
    action columns, each formed on first read, and on int classes (exact
    by the module docstring's argument).
    """
    g = p.algebra
    pos, neg = g.simple_vector_indices()
    roots = p.levi_simple_roots
    raising = [(g.root(pos[i]), mod.act(pos[i])) for i in roots]
    lowering = [(g.root(neg[i]), mod.act(neg[i])) for i in roots]
    matches, coroots = _casimir_matcher(mod.cx), _coroots(p)
    entries, gens = [], []
    for w in sorted(mod.dims, key=weight_key):
        if not matches(w) or _reflect_up(coroots, w) is not None:
            continue
        seeds = mod.express(w, _highest_weight_vectors(mod, w, raising))
        gen, count = _lowering_closure(mod, lowering, w, seeds)
        if not count:
            continue
        entries.append(LDecompositionEntry(
            highest_weight=w,
            hw_vector_count=count,
            irrep_dimension=None,
            generated_dimension=len(gen),
        ))
        gens.append(gen)
    if len(gens) == 1:
        rank = len(gens[0])         # the closure's own echelon rows
    else:
        rank = linalg.Echelon(row for gen in gens for row in gen).rank
    cr = sum(e.generated_dimension for e in entries) == rank == mod.dim
    for e in entries:
        if cr:
            e.irrep_dimension, rest = divmod(e.generated_dimension,
                                             e.hw_vector_count)
            if rest:
                raise CrossCheckFailed(
                    f"the submodule generated at {e.highest_weight} has "
                    f"dimension {e.generated_dimension}, not a multiple of its "
                    f"{e.hw_vector_count} highest-weight vectors")
        else:
            e.irrep_dimension = levi_irrep_dimension(p, e.highest_weight)
    return LDecomposition(entries=entries, completely_reducible=cr,
                          total_dimension=mod.dim)


def _lowering_closure(mod: LeviModule, lowering: list, weight: Weight,
                      seeds: list) -> tuple[list, int]:
    """(echelon basis, rank of the seeds) of the span of the classes
    `seeds` of weight `weight` closed under the lowering operators
    (`lowering`: (root, int columns) per operator), level by level.  Each
    image is a positive multiple of the exact one, so the span is the exact
    closure.

    A weight is met at one level only, its height below `weight`, so all
    its rows are inserted in one pass.  Each weight queues the (operator,
    rows) pairs that reach it, in the order the rows were inserted, and an
    image is formed and expressed only while the weight has fewer rows than
    dim M_u (`LeviModule.weight_dim`): once it is full every later vector
    there is dependent, and its images lie in the span of the rows'
    images, so it is never formed."""
    echelon = linalg.Echelon()
    basis, frontier, count = [], {weight: [(None, seeds)]}, None
    while frontier:
        nxt: dict = {}
        for u, queue in frontier.items():
            room, rows = mod.weight_dim(u), []
            for cols, vecs in queue:
                for vec in vecs:
                    if len(rows) == room:
                        break
                    if cols is not None:
                        if not (vec := _apply(cols, vec)):
                            continue
                        vec = mod.express(u, [vec])[0]
                    if (row := echelon.add(vec)) is not None:
                        rows.append(row)
            basis.extend(rows)
            if rows:
                for root, cols in lowering:
                    nxt.setdefault(wt_add(u, root), []).append((cols, rows))
        if count is None:
            count = len(basis)
        frontier = nxt
    return basis, count


# ---------------------------------------------------------------------------
# the per-scenario analysis object
# ---------------------------------------------------------------------------

class BlockRecord:
    """The block layer at one weight w of C_k (KostantAnalysis.block_data).

    The counts are always set: the block size `n`, `dim_ker` of ker d*_k,
    `dim_im` of im d*_{k+1}, whether the block is `acyclic` (quabla is
    invertible there), and the dimensions of ker quabla and of the
    generalized zero space.  `rep` is the l_0-dominant representative of
    a non-acyclic w (w itself where w is dominant), None at an acyclic
    one.  The int bases are None until formed: block_data forms all four at
    the dominant non-acyclic weights, KostantAnalysis.basis any other one
    on first read; at an acyclic weight ker quabla and the generalized
    zero space are 0, and `ker` and `im` are formed only when read."""

    __slots__ = ("n", "dim_ker", "dim_im", "acyclic", "dim_ker_quabla", "dim_gen_zero",
                 "rep", "ker", "im", "ker_quabla", "gen_zero")

    def __init__(self, n: int, dim_ker: int, dim_im: int, ker_quabla=(), gen_zero=(),
                 rep: Weight | None = None):
        self.n, self.dim_ker, self.dim_im, self.rep = n, dim_ker, dim_im, rep
        self.ker_quabla, self.gen_zero = ker_quabla, gen_zero
        self.dim_ker_quabla, self.dim_gen_zero = len(ker_quabla), len(gen_zero)
        self.acyclic = not gen_zero
        self.ker = self.im = None

    def counts(self) -> "BlockRecord":
        """A record with this one's counts and representative and no basis."""
        out = copy.copy(self)
        out.ker = out.im = out.ker_quabla = out.gen_zero = None
        return out


class _RecordBases(Mapping):
    """{w: sparse ambient int columns} of the basis `name` of the records of
    degree k at `weights`, each converted on first read and eliminated
    there first where block_data formed none (KostantAnalysis.basis)."""

    def __init__(self, an: "KostantAnalysis", k: int, name: str, weights: list):
        self._an, self._k, self._name = an, k, name
        self._weights = dict.fromkeys(weights)
        self._cols: dict = {}

    def __getitem__(self, w: Weight) -> list:
        cols = self._cols.get(w)
        if cols is None:
            if w not in self._weights:
                raise KeyError(w)
            an = self._an
            cols = self._cols[w] = _ambient_columns(an.cx.space(self._k).weight_blocks[w],
                                                    an.basis(self._k, w, self._name))
        return cols

    def __contains__(self, w) -> bool:
        return w in self._weights

    def __iter__(self):
        return iter(self._weights)

    def __len__(self) -> int:
        return len(self._weights)


class KostantAnalysis:
    """All degree-wise data for one (parabolic, module) pair on the nbar side.

    The analysis builds and owns its chain complex `cx` and caches its
    results per degree; nothing outlives it at module level."""

    def __init__(self, p: ParabolicDecomposition, module: Module, k_max: int):
        self.parabolic = p
        self.module = module
        self.k_max = k_max
        self.cx = ChainComplex(p, module, "nbar")
        self._coroots = _coroots(p)
        self._reps: dict = {}           # weight -> l_0-dominant representative
        self._blockdata: dict = {}
        self._decomp: dict = {}
        self._kerq_decomp: dict = {}
        self._predicates: dict = {}
        self._lower_vals: dict = {}
        self._quabla: dict = {}
        self._top_boundary: dict = {}

    # -- raw block data -------------------------------------------------------

    def quabla_map(self, k: int) -> CasimirQuabla:
        """quabla_k by Kostant's Casimir formula, cached per degree, in its
        two parts (`ChainComplex.casimir_quabla`): one int per weight for
        the scalar part, and a ChainMap for the root part, none on a Borel.
        block_data reads its `int_block`s below k_max, and
        `cli._internal_checks` compares it with the direct form one column
        at a time.  It is built from C_k alone, where the direct form
        d_{k-1} d*_k + d*_{k+1} d_k would need d_k into C_{k+1}; so the top
        degree k_max builds no map C_{k_max} -> C_{k_max+1}.  There
        block_data reads a root part built on the blocks it eliminates
        alone (`_quabla_at`), and its invertible blocks spare d*_{k_max+1}
        too, which is built only at the other weights (`boundary_above`)."""
        if k not in self._quabla:
            self._quabla[k] = self.cx.casimir_quabla(k)
        return self._quabla[k]

    def _quabla_at(self, k: int, weights: list) -> CasimirQuabla:
        """A quabla_k whose int_block can be read at `weights`: quabla_map(k)
        below k_max, and from k_max on one built on their blocks alone,
        owned by the caller."""
        if k < self.k_max:
            return self.quabla_map(k)
        return self.cx.casimir_quabla(k, weights)

    def block_data(self, k: int) -> dict:
        """{weight: BlockRecord} of degree k, in weight_key order.

        The quabla block is eliminated (`_quabla_kernels`) only at the
        candidate weights that are l_0-dominant, and d*_k and d*_{k+1} only
        at those of them that are not acyclic, whose records hold the four
        int bases.  Every other candidate takes the counts of its dominant
        representative (`_orbit_map`), and every other weight is acyclic
        by Kostant's filter (module docstring); an acyclic block takes its
        counts from the recursion of the module docstring, which reads
        block_data(k - 1).

        So im d*_{k+1} is read at non-acyclic weights of C_k alone, and that
        is exact: d*_{k+1} is h-equivariant, so its image at w is the image
        of its block at w, which a map restricted to the whole weight blocks
        of C_{k+1} at those weights has too.  Inside the window (k < k_max)
        the images come from cx.lower(k + 1), built anyway for the kernels
        of degree k + 1; at k >= k_max, from that restriction to every
        non-acyclic weight (`boundary_above`), so block_data(k_max) builds
        no C_{k_max+1}."""
        if k in self._blockdata:
            return self._blockdata[k]
        below = self.block_data(k - 1) if k > 0 else {}
        blocks = self.cx.space(k).weight_blocks
        candidates = self.candidate_weights(k)
        reps = self._orbit_map(k, candidates) if self._coroots else {}
        dominant = [w for w in candidates if reps.get(w, w) == w]
        quab = self._quabla_at(k, dominant)
        hot = {}
        for w in dominant:
            kerq, gen_zero = _quabla_kernels(quab.int_block(w), len(blocks[w]))
            if gen_zero:
                hot[w] = BlockRecord(len(blocks[w]), 0, 0, kerq, gen_zero, w)
        kernels = _block_kernels(self.cx.lower(k), hot)
        if k < self.k_max:
            above = self.cx.lower(k + 1)
        else:
            above = self._top_boundary[k] = self.cx.lower_at(
                k + 1, [w for w in candidates if reps.get(w, w) in hot])
        images = _block_images(above, hot)
        for w, d in hot.items():
            d.ker, d.im = kernels[w], images.get(w, [])
            d.dim_ker, d.dim_im = len(d.ker), len(d.im)
        data = {}
        for w in sorted(blocks, key=weight_key):
            d = hot.get(reps.get(w, w))
            if d is None:
                n = len(blocks[w])
                dim = n - (below[w].dim_im if w in below else 0)
                data[w] = BlockRecord(n, dim, dim)
            else:
                data[w] = d if d.rep == w else d.counts()
        self._blockdata[k] = data
        return data

    def _orbit_map(self, k: int, weights) -> dict:
        """{w: the l_0-dominant weight of its W(l_0)-orbit} for `weights` of
        C_k, by simple reflections (`_reflect_up`), memoized across degrees.
        Each reflection adds a positive multiple of a positive root, so a
        walk never meets a weight twice; it is refused (CrossCheckFailed)
        where it leaves the weights of C_k or ends at a weight of another
        multiplicity, which the W(l_0)-invariance of C_k's weight
        multiplicities rules out."""
        blocks, memo, coroots = self.cx.space(k).weight_blocks, self._reps, self._coroots
        out = {}
        for w in weights:
            rep = memo.get(w)
            if rep is None:
                path, rep = [], w
                while (up := _reflect_up(coroots, rep)) is not None:
                    if up not in blocks:
                        raise CrossCheckFailed(
                            f"a reflection of {w} leaves the weights of C_{k}")
                    path.append(rep)
                    rep = up
                for v in path:
                    memo[v] = rep
                memo[rep] = rep
            if len(blocks.get(rep, ())) != len(blocks[w]):
                raise CrossCheckFailed(
                    f"C_{k} has other multiplicities at {w} and at its representative {rep}")
            out[w] = rep
        return out

    def basis(self, k: int, w: Weight, name: str) -> list:
        """The int basis `name` ("ker", "im", "ker_quabla" or "gen_zero") of
        block_data(k)[w].  Where block_data formed none, it is eliminated
        at w now, by the same per-weight routine, and its size is checked
        against the record's count, taken from the representative."""
        d = self.block_data(k)[w]
        if getattr(d, name) is None:
            if name == "ker":
                found = {name: _block_kernels(self.cx.lower(k), [w])[w]}
            elif name == "im":
                found = {name: _block_images(self.boundary_above(k), [w]).get(w, [])}
            else:
                found = dict(zip(("ker_quabla", "gen_zero"), _quabla_kernels(
                    self._quabla_at(k, [w]).int_block(w), d.n)))
            for key, basis in found.items():
                if len(basis) != getattr(d, "dim_" + key):
                    raise CrossCheckFailed(f"the {key} basis of degree {k} at {w} has "
                                           f"another size than at {d.rep}")
                setattr(d, key, basis)
        return getattr(d, name)

    def candidate_weights(self, k: int) -> frozenset:
        """The weights of C_k whose quabla block can be singular: the
        Casimir-matching weights (`_casimir_matcher`) closed downward under
        w -> w - alpha_i over the Levi simple roots, inside the weights of
        C_k.  Every other block is invertible (module docstring); on a
        Borel the set is the Casimir-matching weights."""
        blocks = self.cx.space(k).weight_blocks
        g = self.parabolic.algebra
        simple = [g.simple_roots[i] for i in self.parabolic.levi_simple_roots]
        matches = _casimir_matcher(self.cx)
        found = {w for w in blocks if matches(w)}
        todo = list(found)
        while todo:
            w = todo.pop()
            for a in simple:
                v = wt_sub(w, a)
                if v in blocks and v not in found:
                    found.add(v)
                    todo.append(v)
        return frozenset(found)

    def boundary_above(self, k: int) -> ChainMap:
        """The map whose images block_data(k) reads: d*_{k+1} =
        cx.lower(k + 1) for k < k_max, and for k >= k_max d*_{k+1} on the
        non-acyclic weight blocks of C_k alone (`ChainComplex.lower_at`).
        The analysis is that restricted map's one owner: block_data(k)
        builds it, reads its blocks at the dominant ones, and
        `cli._internal_checks` checks it whole."""
        if k < self.k_max:
            return self.cx.lower(k + 1)
        self.block_data(k)
        return self._top_boundary[k]

    def acyclic_weights(self, k: int) -> frozenset:
        """The weights of C_k whose quabla block is invertible."""
        return frozenset(w for w, d in self.block_data(k).items() if d.acyclic)

    # -- homology ---------------------------------------------------------------

    def homology(self, k: int) -> HomologyReport:
        """H_k's kernel and image counts and weight multiplicities, summed
        over the cached block_data(k) on each call."""
        data = self.block_data(k)
        dim_ker = sum(d.dim_ker for d in data.values())
        dim_im = sum(d.dim_im for d in data.values())
        mult = {}
        for w, d in data.items():
            h = d.dim_ker - d.dim_im
            if h < 0:
                raise CrossCheckFailed(
                    f"image above exceeds the kernel at degree {k}, weight {w}")
            if h:
                mult[w] = h
        return HomologyReport(
            degree=k,
            dim_ker_boundary=dim_ker,
            dim_im_boundary_above=dim_im,
            homology_dimension=dim_ker - dim_im,
            weight_multiplicities=mult,
        )

    def homology_quotient_module(self, k: int) -> LeviModule:
        """H_k as K/I in C_k's own coordinates: K = ker d*_k and I =
        im d*_{k+1} at the non-acyclic weights of block_data(k), each basis
        read only where decompose_levi asks (`_RecordBases`), with the
        homology multiplicities as its weight dimensions; the acyclic
        weights, where K = I, are handed over as such."""
        hot = [w for w, d in self.block_data(k).items() if not d.acyclic]
        return LeviModule(self.cx, k, _RecordBases(self, k, "ker", hot),
                          _RecordBases(self, k, "im", hot), self.acyclic_weights(k),
                          self.homology(k).weight_multiplicities)

    def ker_quabla_module(self, k: int) -> LeviModule:
        """ker quabla_k as K/I with I = 0: the ker quabla bases of
        block_data(k), in C_k's own coordinates, each read only where
        decompose_levi asks."""
        dims = self.block_dims(k, "ker_quabla")
        return LeviModule(self.cx, k, _RecordBases(self, k, "ker_quabla", list(dims)),
                          dims=dims)

    def homology_decomposition(self, k: int) -> LDecomposition:
        """ker_quabla_decomposition(k) where homology_is_ker_quabla(k): every
        field of an LDecomposition (H_w, G_w, their sum, the entries'
        weight_key order) is an isomorphism invariant of the l-module, so
        the quotient is not built.  Elsewhere decompose_levi of
        homology_quotient_module(k)."""
        if k not in self._decomp:
            self._decomp[k] = (
                self.ker_quabla_decomposition(k) if self.homology_is_ker_quabla(k)
                else decompose_levi(self.parabolic, self.homology_quotient_module(k)))
        return self._decomp[k]

    # -- quabla kernels ---------------------------------------------------------

    def block_dims(self, k: int, key: str) -> dict:
        """{weight: dim} of the block bases `key` ("ker_quabla", "gen_zero")
        of block_data(k), nonzero ones only, from the records' counts."""
        return {w: n for w, d in self.block_data(k).items()
                if (n := getattr(d, "dim_" + key))}

    def homology_is_ker_quabla(self, k: int) -> bool:
        """Whether (1) and (3) hold at degree k and ker quabla_k has the
        dimension of H_k in every weight block.  Then x -> [x] is an
        l-isomorphism ker quabla_k -> H_k = ker d*_k / im d*_{k+1}: it lands
        in H_k because ker quabla lies in the generalized zero space, inside
        ker d*_k by (3); it is equivariant because d* commutes with l; it is
        injective by (1) and onto because the dimensions agree."""
        vals = self._lower_statements(k)
        return (vals[1] and vals[3] and self.homology(k).weight_multiplicities
                == self.block_dims(k, "ker_quabla"))

    def ker_quabla_decomposition(self, k: int) -> LDecomposition:
        """decompose_levi of ker_quabla_module(k), cached per degree."""
        if k not in self._kerq_decomp:
            self._kerq_decomp[k] = decompose_levi(self.parabolic,
                                                  self.ker_quabla_module(k))
        return self._kerq_decomp[k]

    # -- predicates ---------------------------------------------------------------

    def _lower_statements(self, k: int) -> dict:
        """Statements (1)-(4) at degree k, the half that reads only
        block_data(k), cached per degree; each a rank per dominant
        non-acyclic weight block (they hold at an acyclic one, and at every
        weight where they hold at the dominant ones, module docstring).  Where a
        block's ker quabla and generalized zero space have the same basis,
        (2) is (1) and takes its outcome; elsewhere (2) has its own rank
        test, so the (1)<->(2) consistency flag stays a check.  (3) says the
        generalized zero space lies in ker d*_k, which `ker` spans at a
        non-acyclic block: so it holds there exactly when d*_k (the int
        columns of lower(k)) kills every gen_zero vector, a sparse product
        and no rank."""
        if k in self._lower_vals:
            return self._lower_vals[k]
        vals = {i: True for i in range(1, 5)}
        lower, weight_blocks = self.cx.lower(k).icols, self.cx.space(k).weight_blocks
        for w, d in self.block_data(k).items():
            if d.rep != w:
                continue
            im_up, kerq, gz = d.im, d.ker_quabla, d.gen_zero
            meets = linalg.spans_meet(im_up, kerq)
            if meets:
                vals[1] = False
            if meets if gz == kerq else linalg.spans_meet(im_up, gz):
                vals[2] = False
            if any(_apply(lower, col) for col in _ambient_columns(weight_blocks[w], gz)):
                vals[3] = False
            if d.dim_ker - d.dim_im != d.dim_gen_zero:
                vals[4] = False
        self._lower_vals[k] = vals
        return vals

    def predicates(self, k: int) -> PredicateReport:
        """The seven disjointness statements sliced at degree k, a rank test
        per dominant non-acyclic weight block (as in `_lower_statements`).

        Only the pair (1)<->(2) is equivalent degree by degree; the seven are
        equivalent as statements about all degrees at once, which is what
        predicate_summary checks over the built window.
        """
        if k in self._predicates:
            return self._predicates[k]
        data = self.block_data(k)
        todo = [w for w, d in data.items() if d.rep == w]
        raise_kernels = _block_kernels(self.cx.raise_(k), todo)
        below_images = _block_images(self.cx.raise_(k - 1), todo) if k > 0 else {}
        vals = {**self._lower_statements(k), 5: True, 6: True, 7: True}
        for w in todo:
            d, ker_raise = data[w], raise_kernels[w]
            im_below = below_images.get(w, [])
            if linalg.spans_meet(im_below, d.ker_quabla):
                vals[5] = False
            if len(ker_raise) - len(im_below) != d.dim_gen_zero:
                vals[6] = False
            if linalg.spans_meet(d.im, ker_raise):
                vals[7] = False
            if linalg.spans_meet(im_below, d.ker):
                vals[7] = False
        rep = PredicateReport(degree=k, values=vals, consistent=(vals[1] == vals[2]))
        self._predicates[k] = rep
        return rep

    def predicate_summary(self) -> dict:
        """Global (window) values of the seven statements and their agreement."""
        global_vals = {i: True for i in range(1, 8)}
        per_degree = []
        for k in range(self.k_max):
            rep = self.predicates(k)
            per_degree.append(rep)
            for i in range(1, 8):
                global_vals[i] = global_vals[i] and rep.values[i]
        consistent = len(set(global_vals.values())) == 1
        return {"per_degree": per_degree, "global": global_vals,
                "consistent": consistent}


def multiplicity_criterion(an: KostantAnalysis, k_max: int) -> tuple:
    """Consecutive-degree multiplicity bound on ker quabla: no irreducible
    Levi constituent may appear with multiplicity product above one in two
    adjacent degrees.  Returns (holds, witness)."""
    decs = []
    for k in range(k_max + 1):
        dec = an.ker_quabla_decomposition(k)
        if not dec.completely_reducible:
            raise NotCompletelyReducible(
                f"ker quabla at degree {k} is not completely reducible")
        decs.append(dec.weight_multiplicities())
    for k in range(len(decs) - 1):
        for w, m in decs[k].items():
            m2 = decs[k + 1].get(w, 0)
            if m * m2 > 1:
                # the witness is a Weight of Fractions, as reports print it
                return False, (k, tuple(map(Fraction, w)))
    return True, None
