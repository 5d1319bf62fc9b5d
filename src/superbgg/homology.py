"""Exact rank computations on the chain complexes.

Everything is organized per weight block: the four operators and the quabla
operator are h-equivariant, so kernels, images, homology quotients and
generalized eigenspaces decompose along weights and each block is
eliminated on its own.

The Levi decomposition is weight-local too.  Every vector it handles is
weight-homogeneous, so each weight block of a LeviModule is eliminated once
(a left transform that turns `express` into a sparse product), and the
lowering closures and their union keep echelon pivots per weight: no
elimination ever runs over the whole module.  ker quabla_k, a submodule of
C_k, needs no LeviModule at all: it is decomposed on the complex's own
action maps (KostantAnalysis.ker_quabla_decomposition), and so is H_k
wherever it is isomorphic to ker quabla_k.

The Levi layer runs on Python ints.  A LeviModule holds its representatives
as primitive int columns (positive multiples of the columns it was given: a
change of basis that no dimension sees), `express` returns int coordinates
over the one positive denominator of the target weight's solver, and `act`
returns int columns whose denominator is constant on each source weight.
So on every weight block the int operator is a positive multiple of the
exact one.  Kernels of stacked blocks, spans, lowering closures of
weight-homogeneous vectors and ranks are unchanged by a nonzero scalar per
block, which is why decompose_levi reads only the int columns and gets the
same H_w, G_w, certificate and dimensions as exact rational arithmetic.

The homology block layer runs on ints too: images are pivot columns of
den times the exact block, kernel vectors positive multiples of the RREF
kernel vectors.  That changes no span, rank, intersection or first-come
complement, and LeviModule makes its inputs primitive anyway.

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

import functools
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
    """The multiple of a sparse rational column whose entries are coprime
    ints: the positive one, or with `positive_lead` the one whose entry at
    the smallest index is positive."""
    den = lcm(1, *(v.denominator for v in col.values()))
    ints = {r: v.numerator * (den // v.denominator) for r, v in col.items() if v}
    cont = gcd(*ints.values())
    if positive_lead and ints and ints[min(ints)] < 0:
        cont = -cont
    return {r: v // cont for r, v in ints.items()} if cont != 1 else ints


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
# Levi modules: subspaces and subquotients carrying the l-action
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LeviAction:
    """A Levi basis element on a LeviModule, in its coordinates: column t is
    icols[t] / dens[t], and dens[t] is the same for every representative of
    one weight.  The decomposition reads only `icols`; `dens` and `cols`
    are the exact view that tests compare with a rational oracle."""

    icols: list              # icols[t] = {member: nonzero int}
    dens: list               # dens[t] = positive int

    @functools.cached_property
    def cols(self) -> list:
        """cols[t] = {member: Fraction}; the exact view, for tests."""
        return [{u: Fraction(c, d) for u, c in col.items()}
                for col, d in zip(self.icols, self.dens)]


class LeviModule:
    """A finite l-module presented by block-aligned vectors in a chain degree:
    an l-stable subspace (ker quabla, the generalized zero space, the whole
    chain space) or a subquotient (a homology group).

    `reps` are sparse ambient columns, each supported in a single weight
    block.  `modulo` (optional, per weight) is a list of ambient columns to
    quotient by; the action is reduced modulo that span.  Both are stored
    as primitive int columns, each a positive multiple of the column given.
    Coordinates are solved weight by weight: each weight block is
    eliminated once.

    `acyclic` (optional, a homology quotient's) names the weights where
    ker d*_k = im d*_{k+1}: the quotient is zero there and `modulo` holds
    nothing, and `express` tests a column by d*_k instead of a solver.
    """

    def __init__(self, cx: ChainComplex, k: int, reps: list, modulo: dict | None = None,
                 acyclic: frozenset = frozenset()):
        self.cx = cx
        self.k = k
        self.space = cx.space(k)
        self.reps = [_primitive(col) for col in reps]
        self.modulo = {w: [_primitive(col) for col in cols]
                       for w, cols in (modulo or {}).items()}
        self.acyclic = acyclic
        self.weights = []
        self._members: dict = {}
        for t, col in enumerate(self.reps):
            ws = {self.space.weights[i] for i in col}
            if len(ws) != 1:
                raise PreconditionViolated(
                    f"representative {t} is not supported in a single weight block")
            w = ws.pop()
            self.weights.append(w)
            self._members.setdefault(w, []).append(t)
        self._solvers: dict = {}

    @property
    def dim(self) -> int:
        return len(self.reps)

    def members(self, weight: Weight) -> list:
        return self._members.get(weight, [])

    def weight_dims(self) -> dict:
        """{weight: number of representatives of that weight}."""
        return {w: len(ts) for w, ts in self._members.items()}

    def _solver(self, weight: Weight):
        """Int left transform D of the stacked block A = [modulo | reps] of
        `weight`, eliminated fraction-free.

        Row r of linalg.int_rref([A | I]) is p_r times row r of the RREF, so
        its right part is p_r times row r of the exact transform E (E.A is
        the RREF of A).  With den = lcm of the pivots p_r of the first `rank`
        rows, D takes row r < rank times den / p_r, so those rows of D are
        den * E; rows from `rank` on are the consistency conditions, kept as
        int rows (a nonzero multiple vanishes exactly when the row does).

        Returns (pos, ecols, rank, coords, den): `pos` maps ambient indices
        to block rows, `ecols[j]` is column j of D as a sparse dict, and
        `coords[r]` is the member index solved by row r (None for a
        `modulo` column).
        """
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
        rows, pivots = linalg.int_rref(aug, integral=True)   # n rows: [A | I] has rank n
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

    def express(self, weight: Weight, ambient_cols: list) -> tuple[list, int]:
        """Coordinates over this module's basis of ambient columns of one
        weight, reducing mod `modulo`: returns (coords, den) with coords[j]
        an int dict, coords[j] / den the exact coordinates of ambient_cols[j]
        and den > 0 the weight's solver denominator.

        Raises LeviNotClosed when a column is outside span(modulo + reps);
        at an acyclic weight that span is ker d*_k (module docstring)."""
        if weight in self.acyclic:
            return self._express_cycles(weight, ambient_cols)
        pos, ecols, rank, coords, den = self._solver(weight)
        out = []
        for col in ambient_cols:
            y: dict = {}
            for gidx, v in col.items():
                j = pos.get(gidx)
                if j is None:
                    raise LeviNotClosed("image leaves the expected weight block")
                linalg.vec_iadd(y, ecols[j], v)
            if any(r >= rank for r in y):
                raise LeviNotClosed("subspace is not stable under the Levi action")
            out.append({coords[r]: v for r, v in y.items() if coords[r] is not None})
        return out, den

    def _express_cycles(self, weight: Weight, ambient_cols: list) -> tuple[list, int]:
        """`express` at an acyclic weight: certify d*_k col = 0 for each
        column (the int columns of lower(k), a positive multiple of d*_k)
        and return the zero class of each."""
        lower, weights = self.cx.lower(self.k).icols, self.space.weights
        for col in ambient_cols:
            y: dict = {}
            for gidx, v in col.items():
                if weights[gidx] != weight:
                    raise LeviNotClosed("image leaves the expected weight block")
                linalg.vec_iadd(y, lower[gidx], v)
            if y:
                raise LeviNotClosed("subspace is not stable under the Levi action")
        return [{} for _ in ambient_cols], 1

    def act(self, levi_index: int) -> LeviAction:
        """The Levi basis element in this module's coordinates: the complex's
        int action map applied to each representative, then expressed, one
        `express` call per source weight.  Column t has denominator
        den_target * map.den, the same for every representative of one
        weight."""
        amap = self.cx.action_map(self.k, levi_index)
        icols = amap.icols
        root = wt_int(self.cx.algebra.root(levi_index))
        cols, dens = [{} for _ in self.reps], [amap.den] * self.dim
        for w, members in self._members.items():
            imgs = [_apply(icols, self.reps[t]) for t in members]
            if not any(imgs):
                continue
            coords, den = self.express(wt_add(w, root), imgs)
            for t, col in zip(members, coords):
                cols[t] = col
                dens[t] *= den
        return LeviAction(cols, dens)


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


def _highest_weight_vectors(blocks: dict, raise_cols: list) -> dict:
    """Joint kernel of the raising operators on each weight block: `blocks`
    maps a weight to the indices of its basis vectors, and `raise_cols` are
    the operators' int columns over those indices (LeviAction's, or a chain
    map's).  On each block an operator is a positive multiple of the exact
    one, so the kernel is the exact one.

    Returns {weight: [sparse primitive int vectors over those indices]} for
    the weights with a nonzero kernel, in the order of `blocks`."""
    out: dict = {}
    for w, members in blocks.items():
        rows = []
        for cols in raise_cols:
            targets = sorted({t for m in members for t in cols[m]})
            tpos = {t: r for r, t in enumerate(targets)}
            block = [[0] * len(members) for _ in targets]
            for cj, m in enumerate(members):
                for t, v in cols[m].items():
                    block[tpos[t]][cj] = v
            rows.extend(block)
        kernel = linalg.int_kernel(*linalg.int_rref(rows, integral=True), len(members))
        if kernel:
            out[w] = [{members[i]: v for i, v in enumerate(vec) if v}
                      for vec in kernel]
    return out


def decompose_levi(p: ParabolicDecomposition, mod: LeviModule) -> LDecomposition:
    """Highest-weight decomposition of an l-stable space or subquotient.

    For each weight w, H_w is the joint kernel at w of the raising operators
    of the Levi simple roots (its dimension is `hw_vector_count`) and
    G_w = U(nbar_l).H_w is its closure under the Levi lowering operators
    (`generated_dimension`).  The module M is certified completely reducible
    exactly when

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

    This is the paper's necessary condition for a BGG resolution (complete
    reducibility of each homology group), checked on the module itself.  A
    decomposition that fails it reports, for each entry, the dimension of
    the abstract Levi irrep (None where `levi_irrep_dimension` finds it
    infinite).  All elimination is local to one weight block and runs on
    the int columns of LeviAction (exact by the module docstring's
    argument).
    """
    pos, neg = p.algebra.simple_vector_indices()
    raise_cols = [mod.act(pos[i]).icols for i in p.levi_simple_roots]
    lower_cols = [mod.act(neg[i]).icols for i in p.levi_simple_roots]
    blocks = {w: mod.members(w) for w in sorted(mod.weight_dims(), key=weight_key)}
    return _certified(p, _highest_weight_vectors(blocks, raise_cols), lower_cols,
                      mod.dim)


def _certified(p: ParabolicDecomposition, hw_vectors: dict, lower_cols: list,
               dim: int) -> LDecomposition:
    """decompose_levi's decomposition of a module of dimension `dim` from
    its H_w ({w: basis}, weight_key order) and the int columns of its Levi
    lowering operators: the closures G_w, the certificate and the entries'
    irrep dimensions."""
    entries = []
    union = _WeightEchelon()
    for w, vecs in hw_vectors.items():
        gen = _lowering_closure(lower_cols, vecs)
        entries.append(LDecompositionEntry(
            highest_weight=w,
            hw_vector_count=len(vecs),
            irrep_dimension=None,
            generated_dimension=len(gen),
        ))
        for vec in gen:
            union.add(vec)
    cr = sum(e.generated_dimension for e in entries) == union.rank == dim
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
                          total_dimension=dim)


class _WeightEchelon:
    """Echelon basis of a span of weight-homogeneous sparse int vectors.

    Rows are primitive int rows with a positive lead, keyed by their leading
    (smallest) index.  A module index has one weight, so the row met at the
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


def _lowering_closure(lower_cols: list, seeds: list) -> list:
    """Echelon basis (sparse int vectors) of the span of the
    weight-homogeneous `seeds` closed under the lowering operators (int
    columns of LeviAction, or of the complex's action maps): each image is a
    positive multiple of the exact one, so the span is the exact closure."""
    echelon = _WeightEchelon()
    basis = []
    frontier = seeds
    while frontier:
        nxt = []
        for vec in frontier:
            row = echelon.add(vec)
            if row is None:
                continue
            basis.append(row)
            nxt.extend(img for cols in lower_cols if (img := _apply(cols, row)))
        frontier = nxt
    return basis


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
        """Deterministic complement of im inside ker, with reduced l-action;
        an acyclic weight has neither and is handed to the module as such."""
        weight_blocks = self.cx.space(k).weight_blocks
        reps, modulo = [], {}
        for w, d in self.block_data(k).items():
            if d["acyclic"]:
                continue
            im = d["im"]
            modulo[w] = _ambient_columns(weight_blocks[w], im)
            chosen = linalg.independent_int_vectors(im + d["ker"])
            comp = [d["ker"][i - len(im)] for i in chosen if i >= len(im)]
            reps.extend(_ambient_columns(weight_blocks[w], comp))
        return LeviModule(self.cx, k, reps, modulo, self.acyclic_weights(k))

    def homology_decomposition(self, k: int) -> LDecomposition:
        """ker_quabla_decomposition(k) where homology_is_ker_quabla(k): every
        field of an LDecomposition (H_w, G_w, their sum, the entries'
        weight_key order) is an isomorphism invariant of the l-module.
        Elsewhere decompose_levi of homology_quotient_module(k)."""
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
        """decompose_levi of ker quabla_k as a submodule of C_k, in C_k's own
        coordinates: no LeviModule, solver or `express`.

        ker quabla_k is l-stable (quabla commutes with l), so its H_w and G_w
        lie in C_k, and G_w is the lowering closure on cx.action_map's
        columns.  The vectors that n+_l kills are exactly the highest-weight
        vectors, and by Kostant's formula (ChainComplex.quabla) quabla acts
        on one of weight w by 1/2 (C2(w) - C2(lambda)).  So H_w = 0 unless
        C2(w) = C2(lambda), and there H_w is the joint kernel of the raising
        maps on the whole block C_{k,w}, all of it in ker quabla.  Only such
        weights with a nonzero ker quabla block are searched."""
        if k not in self._kerq_decomp:
            g, cx = self.parabolic.algebra, self.cx
            target = casimir_eigenvalue(g, self.module.highest_weight)
            weight_blocks = cx.space(k).weight_blocks
            blocks = {w: weight_blocks[w] for w, d in self.block_data(k).items()
                      if d["ker_quabla"] and casimir_eigenvalue(g, w) == target}
            pos, neg = g.simple_vector_indices()
            roots = self.parabolic.levi_simple_roots
            hw = _highest_weight_vectors(
                blocks, [cx.action_map(k, pos[i]).icols for i in roots])
            self._kerq_decomp[k] = _certified(
                self.parabolic, hw, [cx.action_map(k, neg[i]).icols for i in roots],
                sum(self.block_dims(k, "ker_quabla").values()))
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
