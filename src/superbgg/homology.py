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
action map, and a class modulo I is the reduction by I's RREF rows at its
weight, a linear projection whose kernel is I.  Every vector handled is
weight-homogeneous, so the highest-weight kernels, the lowering closures
and their union keep echelon pivots per weight: no elimination ever runs
over the whole module.

The Levi layer runs on Python ints.  The int columns of an action map are
den times the exact ones, and a class is a fixed positive multiple (per
weight) of the exact projection.  Kernels of stacked blocks, spans,
lowering closures of weight-homogeneous vectors and ranks are unchanged by
a nonzero scalar per map and per weight, which is why decompose_levi reads
only int columns and gets the same H_w, G_w, certificate and dimensions as
exact rational arithmetic.

The homology block layer runs on ints too: images are pivot columns of
den times the exact block, kernel vectors positive multiples of the RREF
kernel vectors.  That changes no span, rank or intersection.

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
eliminated once per reader that sits at a non-acyclic weight, and nothing
is kept between readers: a block read twice is rare and small.  The
homology quotient keeps its acyclic weights: there a column lies in
span(im d*_{k+1}) = ker d*_k exactly when d*_k kills it, one sparse
product, and its class is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .algebra import (
    ParabolicDecomposition,
    Weight,
    casimir_eigenvalue,
    even_simple_roots,
    weight_key,
    wt_add,
    wt_int,
)
from .chains import ChainComplex, ChainMap
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
    quabla block q (dim x dim), as primitive int vectors.

    The generalized zero space is ker q^e for any e >= dim.  Kernels grow
    along q, q^2, q^4, ... and once ker q^e = ker q^2e they have stopped
    growing, so squaring stops there; an invertible q has no generalized
    zero space at all.  The kernel basis (linalg.int_kernel) is read off
    the RREF, which the kernel alone determines, so it is the basis of
    ker q^e for every e >= dim."""
    kernel = linalg.int_kernel(*linalg.int_rref(quab, integral=True), dim)
    if not kernel:
        return [], []
    gen_zero, power, e = kernel, quab, 1
    while e < dim and len(gen_zero) < dim:
        power = linalg.mat_mul(power, power)
        e *= 2
        grown = linalg.int_kernel(*linalg.int_rref(power, integral=True), dim)
        if len(grown) == len(gen_zero):
            break
        gen_zero = grown
    return kernel, gen_zero


def _block_kernels(m: ChainMap, weights: list) -> dict:
    """{w: int kernel basis} of the blocks of `m` at those of `weights`
    that are source weights of `m` (linalg.int_kernel)."""
    blocks = m.source.weight_blocks
    return {w: linalg.int_kernel(*linalg.int_rref(m.int_block(w), integral=True),
                                 len(blocks[w]))
            for w in weights if w in blocks}


def _block_images(m: ChainMap, weights: list) -> dict:
    """{w: int image basis} of the blocks of `m` at those of `weights` that
    are source weights of `m`: the pivot columns, i.e. the block's
    first-come independent columns."""
    out = {}
    for w in weights:
        if w in m.source.weight_blocks:
            block = m.int_block(w)
            pivots = linalg.int_rref(block, integral=True)[1]
            out[w] = [[row[c] for row in block] for c in pivots]
    return out


def _primitive(col: dict, positive_lead: bool = False) -> dict:
    """The multiple of a sparse int column (no zero entries) whose entries
    are coprime: the positive one, or with `positive_lead` the one whose
    entry at the smallest index is positive."""
    cont = gcd(*col.values())
    if positive_lead and col and col[min(col)] < 0:
        cont = -cont
    return {r: v // cont for r, v in col.items()} if cont != 1 else col


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
    of w; the dimension is the sum over w of |ker[w]| - |im[w]|.

    With `im` (a homology quotient, KostantAnalysis.homology_quotient_module)
    K is ker d*_k and I is im d*_{k+1}.  The weights in `acyclic` hold
    neither: K = I there, so the quotient is zero.  `express` certifies
    every column it is handed by d*_k.  Without `im` (ker quabla_k,
    KostantAnalysis.ker_quabla_module) I = 0 and K is l-stable because
    quabla commutes with l, so columns are taken as they are, with no
    product per image.
    """

    def __init__(self, cx: ChainComplex, k: int, ker: dict, im: dict | None = None,
                 acyclic: frozenset = frozenset()):
        self.cx = cx
        self.k = k
        self.ker = ker
        self.im = im
        self.acyclic = acyclic
        blocks = cx.space(k).weight_blocks
        for bases in (ker, im or {}):
            for w, cols in bases.items():
                block = set(blocks.get(w, ()))
                if not all(col.keys() <= block for col in cols):
                    raise PreconditionViolated(
                        f"a basis vector of weight {w} leaves its weight block")
        self._im_rows: dict = {}

    @property
    def dim(self) -> int:
        return sum(map(len, self.ker.values())) - sum(map(len, (self.im or {}).values()))

    def act(self, levi_index: int) -> ChainMap:
        """The Levi basis element A_i on C_k: the complex's action map, whose
        int columns decompose_levi reads."""
        return self.cx.action_map(self.k, levi_index)

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
            hit = self._im_rows[weight] = _rref_rows(self.im.get(weight, []))
        rows, den = hit
        return [_project(col, rows, den) for col in cols]


def _rref_rows(cols: list) -> tuple[dict, int]:
    """({pivot: row}, den) of the RREF of the span of sparse int columns:
    primitive int rows with a positive entry at their pivot (the smallest
    index) and none at another row's pivot; den is the lcm of the pivot
    entries."""
    echelon = _WeightEchelon()
    for col in cols:
        echelon.add(col)
    rows = echelon.rows
    for b in sorted(rows, reverse=True):
        row_b = rows[b]
        for a, row_a in rows.items():
            if a < b and b in row_a:
                rows[a] = _eliminate(row_a, row_b, b)
    return rows, lcm(1, *(row[p] for p, row in rows.items()))


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
    kcols = mod.ker[weight]
    rows = []
    for root, cols in raising:
        imgs = [_apply(cols, col) for col in kcols]
        if any(imgs):
            classes = mod.express(wt_add(weight, root), imgs)
            for t in sorted({t for c in classes for t in c}):
                rows.append([c.get(t, 0) for c in classes])
    kernel = linalg.int_kernel(*linalg.int_rref(rows, integral=True), len(kcols))
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
    of the union of their echelon bases.  Then every G_w is isomorphic to
    L(w)^(dim H_w), so `irrep_dimension` is generated_dimension //
    hw_vector_count, and a remainder raises CrossCheckFailed.

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
    (ChainComplex.quabla) it acts on a class of weight w that n+_l kills by
    1/2 (C2(w) - C2(lambda)), so that class is zero unless the two Casimir
    values agree.  Only such weights with K_w larger than I_w are searched.

    This is the paper's necessary condition for a BGG resolution (complete
    reducibility of each homology group), checked on the module itself.  A
    decomposition that fails it reports, for each entry, the dimension of
    the abstract Levi irrep (None where `levi_irrep_dimension` finds it
    infinite).  All elimination is local to one weight and runs on the int
    columns of the action maps and on int classes (exact by the module
    docstring's argument).
    """
    g = p.algebra
    pos, neg = g.simple_vector_indices()
    roots = p.levi_simple_roots
    raising = [(wt_int(g.root(pos[i])), mod.act(pos[i]).icols) for i in roots]
    lowering = [(wt_int(g.root(neg[i])), mod.act(neg[i]).icols) for i in roots]
    target = casimir_eigenvalue(g, mod.cx.module.highest_weight)
    im = mod.im or {}
    entries, union = [], _WeightEchelon()
    for w in sorted(mod.ker, key=weight_key):
        if (len(mod.ker[w]) == len(im.get(w, ()))
                or casimir_eigenvalue(g, w) != target):
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
        for row in gen:
            union.add(row)
    cr = sum(e.generated_dimension for e in entries) == union.rank == mod.dim
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


class _WeightEchelon:
    """Echelon basis of a span of weight-homogeneous sparse int vectors.

    Rows are primitive int rows with a positive lead, keyed by their leading
    (smallest) index.  An index of C_k has one weight, so the row met at the
    lead of a weight-w vector has weight w too: a reduction only meets rows
    of its own weight, and the vector stays weight-homogeneous.
    """

    def __init__(self):
        self.rows: dict = {}            # lead index -> row
        self.rank = 0

    def add(self, vec: dict) -> dict | None:
        """Reduce `vec`; store and return the new row, or None if dependent."""
        v, rows = vec, self.rows
        while v:
            lead = min(v)
            row = rows.get(lead)
            if row is None:
                row = _primitive(v, positive_lead=True)
                rows[lead] = row
                self.rank += 1
                return row
            v = _eliminate(v, row, lead)
        return None


def _eliminate(v: dict, row: dict, lead: int) -> dict:
    """Primitive part of (p/g)*v - (f/g)*row, with p = row[lead] > 0,
    f = v[lead] and g = gcd(p, f): a positive multiple of v - (f/p)*row,
    which vanishes at `lead` (the sparse form of linalg._combine)."""
    p, f = row[lead], v[lead]
    g = gcd(p, f)
    a, b = p // g, f // g
    out = {t: a * x for t, x in v.items()}
    for t, y in row.items():
        z = out.get(t, 0) - b * y
        if z:
            out[t] = z
        else:
            del out[t]
    return _primitive(out)


def _lowering_closure(mod: LeviModule, lowering: list, weight: Weight,
                      seeds: list) -> tuple[list, int]:
    """(echelon basis, rank of the seeds) of the span of the classes
    `seeds` of weight `weight` closed under the lowering operators
    (`lowering`: (root, int columns) per operator), level by level.  The
    images of one weight are expressed together; each is a positive
    multiple of the exact one, so the span is the exact closure."""
    echelon = _WeightEchelon()
    basis, frontier, count = [], {weight: seeds}, None
    while frontier:
        nxt: dict = {}
        for u, vecs in frontier.items():
            rows = [row for vec in vecs if (row := echelon.add(vec)) is not None]
            basis.extend(rows)
            for root, cols in lowering:
                imgs = [img for row in rows if (img := _apply(cols, row))]
                if imgs:
                    v = wt_add(u, root)
                    nxt.setdefault(v, []).extend(mod.express(v, imgs))
        if count is None:
            count = len(basis)
        frontier = nxt
    return basis, count


# ---------------------------------------------------------------------------
# the per-scenario analysis object
# ---------------------------------------------------------------------------

class KostantAnalysis:
    """All degree-wise data for one (parabolic, module) pair on the nbar side.

    The analysis builds and owns its chain complex `cx` and caches its
    results per degree; nothing outlives it at module level."""

    def __init__(self, p: ParabolicDecomposition, module: Module, k_max: int):
        self.parabolic = p
        self.module = module
        self.k_max = k_max
        self.cx = ChainComplex(p, module, "nbar")
        self._blockdata: dict = {}
        self._decomp: dict = {}
        self._kerq_decomp: dict = {}
        self._predicates: dict = {}
        self._lower_vals: dict = {}
        self._quabla: dict = {}
        self._top_boundary: dict = {}

    # -- raw block data -------------------------------------------------------

    def quabla_map(self, k: int) -> ChainMap:
        """quabla_k by Kostant's Casimir formula, cached per degree: the map
        whose blocks block_data reads.  It is built from C_k alone, where
        the direct form d_{k-1} d*_k + d*_{k+1} d_k would need d_k into
        C_{k+1}; so the top degree k_max builds no map C_{k_max} ->
        C_{k_max+1}, and its invertible blocks spare d*_{k_max+1} too,
        which is built only at the other weights (`boundary_above`).  On a
        Borel it is diagonal.  The direct form is only the independent side
        of `cli._internal_checks`."""
        if k not in self._quabla:
            self._quabla[k] = self.cx.quabla(k, "casimir")
        return self._quabla[k]

    def block_data(self, k: int) -> dict:
        """{weight: block data} of degree k, in weight_key order.

        Every block holds `ker_quabla` and `gen_zero` (int bases), whether
        it is `acyclic` (gen_zero is empty), and the counts `dim_ker` of
        ker d*_k and `dim_im` of im d*_{k+1}.  Only a non-acyclic block
        holds the int bases `ker` and `im`; an acyclic one takes its counts
        from the recursion of the module docstring, which reads
        block_data(k - 1).

        So im d*_{k+1} is read at the non-acyclic weights of C_k alone, and
        that is exact: d*_{k+1} is h-equivariant, so its image at w is the
        image of its block at w, which a map restricted to the whole weight
        blocks of C_{k+1} at those weights has too.  Inside the window
        (k < k_max) the images come from cx.lower(k + 1), built anyway for
        the kernels of degree k + 1; at k >= k_max, from that restriction
        (`boundary_above`), so block_data(k_max) builds no C_{k_max+1}."""
        if k in self._blockdata:
            return self._blockdata[k]
        below = self.block_data(k - 1) if k > 0 else {}
        sp = self.cx.space(k)
        quab = self.quabla_map(k)
        data = {}
        for w in sorted(sp.weight_blocks, key=weight_key):
            kerq, gen_zero = _quabla_kernels(quab.int_block(w), len(sp.weight_blocks[w]))
            data[w] = {"acyclic": not gen_zero, "ker_quabla": kerq, "gen_zero": gen_zero}
        todo = [w for w, d in data.items() if not d["acyclic"]]
        kernels = _block_kernels(self.cx.lower(k), todo)
        if k < self.k_max:
            above = self.cx.lower(k + 1)
        else:
            above = self._top_boundary[k] = self.cx.lower_at(k + 1, todo)
        images = _block_images(above, todo)
        for w, d in data.items():
            if d["acyclic"]:
                below_im = below[w]["dim_im"] if w in below else 0
                d["dim_ker"] = d["dim_im"] = len(sp.weight_blocks[w]) - below_im
            else:
                d["ker"], d["im"] = kernels[w], images.get(w, [])
                d["dim_ker"], d["dim_im"] = len(d["ker"]), len(d["im"])
        self._blockdata[k] = data
        return data

    def boundary_above(self, k: int) -> ChainMap:
        """The map whose images block_data(k) reads: d*_{k+1} =
        cx.lower(k + 1) for k < k_max, and for k >= k_max d*_{k+1} on the
        non-acyclic weight blocks of C_k alone (`ChainComplex.lower_at`).
        The analysis is that restricted map's one owner: block_data(k)
        builds it, and `cli._internal_checks` checks it."""
        if k < self.k_max:
            return self.cx.lower(k + 1)
        self.block_data(k)
        return self._top_boundary[k]

    def acyclic_weights(self, k: int) -> frozenset:
        """The weights of C_k whose quabla block is invertible."""
        return frozenset(w for w, d in self.block_data(k).items() if d["acyclic"])

    # -- homology ---------------------------------------------------------------

    def homology(self, k: int) -> HomologyReport:
        """H_k's kernel and image counts and weight multiplicities, summed
        over the cached block_data(k) on each call."""
        data = self.block_data(k)
        dim_ker = sum(d["dim_ker"] for d in data.values())
        dim_im = sum(d["dim_im"] for d in data.values())
        mult = {}
        for w, d in data.items():
            h = d["dim_ker"] - d["dim_im"]
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
        im d*_{k+1}, the bases block_data(k) holds at its non-acyclic
        weights; the acyclic ones, where K = I, are handed over as such."""
        weight_blocks = self.cx.space(k).weight_blocks
        ker, im = {}, {}
        for w, d in self.block_data(k).items():
            if not d["acyclic"]:
                ker[w] = _ambient_columns(weight_blocks[w], d["ker"])
                im[w] = _ambient_columns(weight_blocks[w], d["im"])
        return LeviModule(self.cx, k, ker, im, self.acyclic_weights(k))

    def ker_quabla_module(self, k: int) -> LeviModule:
        """ker quabla_k as K/I with I = 0: the ker quabla bases of
        block_data(k), in C_k's own coordinates."""
        weight_blocks = self.cx.space(k).weight_blocks
        return LeviModule(self.cx, k, {
            w: _ambient_columns(weight_blocks[w], d["ker_quabla"])
            for w, d in self.block_data(k).items() if d["ker_quabla"]})

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
        of block_data(k), nonzero ones only, without building the module."""
        return {w: len(d[key]) for w, d in self.block_data(k).items() if d[key]}

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
        block_data(k), cached per degree; each a rank per non-acyclic weight
        block (they hold at an acyclic one, module docstring).  Where a
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
            if d["acyclic"]:
                continue
            im_up, kerq, gz = d["im"], d["ker_quabla"], d["gen_zero"]
            meets = linalg.spans_meet(im_up, kerq)
            if meets:
                vals[1] = False
            if meets if gz == kerq else linalg.spans_meet(im_up, gz):
                vals[2] = False
            if any(_apply(lower, col) for col in _ambient_columns(weight_blocks[w], gz)):
                vals[3] = False
            if len(d["ker"]) - len(im_up) != len(gz):
                vals[4] = False
        self._lower_vals[k] = vals
        return vals

    def predicates(self, k: int) -> PredicateReport:
        """The seven disjointness statements sliced at degree k, a rank test
        per non-acyclic weight block (all seven hold at an acyclic one).

        Only the pair (1)<->(2) is equivalent degree by degree; the seven are
        equivalent as statements about all degrees at once, which is what
        predicate_summary checks over the built window.
        """
        if k in self._predicates:
            return self._predicates[k]
        data = self.block_data(k)
        todo = [w for w, d in data.items() if not d["acyclic"]]
        raise_kernels = _block_kernels(self.cx.raise_(k), todo)
        below_images = _block_images(self.cx.raise_(k - 1), todo) if k > 0 else {}
        vals = {**self._lower_statements(k), 5: True, 6: True, 7: True}
        for w in todo:
            d, ker_raise = data[w], raise_kernels[w]
            im_below = below_images.get(w, [])
            if linalg.spans_meet(im_below, d["ker_quabla"]):
                vals[5] = False
            if len(ker_raise) - len(im_below) != len(d["gen_zero"]):
                vals[6] = False
            if linalg.spans_meet(d["im"], ker_raise):
                vals[7] = False
            if linalg.spans_meet(im_below, d["ker"]):
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
