"""Finite dimensional weight modules with exact action matrices.

Irreducible highest-weight modules are built top-down: at each height level
below the highest weight the candidate vectors f_i . (previous basis) are
paired through the contravariant form, the radical is discarded by keeping a
candidate subset whose Gram matrix is nonsingular, and the raising action is
pushed back up recursively.  Kac modules for type I algebras are assembled on
the PBW basis Lambda(g_{-1}) (x) V0 by straightening.

Weights, action matrices and Gram blocks follow the algebra's convention:
ints where the values are integral, exact Fractions only where they are not
(a highest weight with a non-integral coordinate, or a form normalization C
with 1/C not an integer).  Each level's Gram is eliminated once, fraction-free
(`linalg.rref`).
"""

from __future__ import annotations

import functools
import itertools

from . import linalg
from .algebra import (
    AdjointOperation,
    LieSuperalgebra,
    Weight,
    build_adjoint_operation,
    even_simple_roots,
    natural_form_diagonal,
    parity_twist,
    weight_key,
    wt,
    wt_add,
    wt_neg,
    wt_sub,
)
from .errors import (
    CrossCheckFailed,
    FiniteDimGuardExceeded,
    NotTypeI,
    PreconditionViolated,
)
from .linalg import _exact


class Module:
    """Weight-graded module given by sparse action columns per basis element:
    action[i] = list of columns, column j = {row: coefficient}."""

    def __init__(self, algebra: LieSuperalgebra, highest_weight: Weight, weights: list,
                 parities: list, action: list, hw_index: int = 0, label: str = ""):
        self.algebra, self.highest_weight = algebra, highest_weight
        self.weights, self.parities, self.action = weights, parities, action
        self.hw_index, self.label = hw_index, label

    @property
    def dim(self) -> int:
        return len(self.weights)

    @functools.cached_property
    def weight_blocks(self) -> dict:
        """{weight: basis indices of that weight}, computed once."""
        blocks: dict = {}
        for j, w in enumerate(self.weights):
            blocks.setdefault(w, []).append(j)
        return blocks

    def act_basis(self, i: int, vec: dict) -> dict:
        cols = self.action[i]
        out: dict = {}
        for j, c in vec.items():
            linalg.vec_iadd(out, cols[j], c)
        return out

    def act(self, element: dict, vec: dict) -> dict:
        out: dict = {}
        for i, ci in element.items():
            linalg.vec_iadd(out, self.act_basis(i, vec), ci)
        return out


class HWModule(Module):
    """Irreducible highest-weight module with its contravariant form."""

    def __init__(self, algebra: LieSuperalgebra, highest_weight: Weight, weights: list,
                 parities: list, action: list, hw_index: int = 0, label: str = "",
                 adjoint: AdjointOperation = None, gram_blocks: dict | None = None,
                 dual_of: "HWModule" = None):
        super().__init__(algebra, highest_weight, weights, parities, action, hw_index, label)
        self.adjoint, self.dual_of = adjoint, dual_of
        self.gram_blocks = {} if gram_blocks is None else gram_blocks

    def gram(self, i: int, j: int):
        w = self.weights[i]
        if self.weights[j] != w:
            return 0
        block = self.weight_blocks[w]
        g = self.gram_blocks[w]
        return g[block.index(i)][block.index(j)]

    def form_positive_definite(self) -> bool:
        return all(linalg.is_positive_definite(g) for g in self.gram_blocks.values())


class KacModule(Module):
    """K_lambda = U(g) (x)_{U(g0+g1)} V0_lambda on the PBW basis; `monomials`
    holds (sorted g_{-1} index tuple, V0 index) per basis vector."""

    def __init__(self, algebra: LieSuperalgebra, highest_weight: Weight, weights: list,
                 parities: list, action: list, hw_index: int = 0, label: str = "",
                 g0_module: HWModule = None, gminus: tuple = (),
                 monomials: list | None = None):
        super().__init__(algebra, highest_weight, weights, parities, action, hw_index, label)
        self.g0_module, self.gminus = g0_module, gminus
        self.monomials = [] if monomials is None else monomials


# ---------------------------------------------------------------------------
# highest-weight construction
# ---------------------------------------------------------------------------

def _simple_data(g: LieSuperalgebra, op: AdjointOperation):
    pos, neg = g.simple_vector_indices()
    kappa = []
    for i, fidx in enumerate(neg):
        img = op.apply_basis(fidx)
        if set(img) != {pos[i]}:
            raise PreconditionViolated("adjoint of a simple lowering vector must "
                                       "be a multiple of the raising vector")
        kappa.append(img[pos[i]])
    hvec = [g.bracket(pos[i], neg[i]) for i in range(len(pos))]
    for i, j in itertools.permutations(range(len(pos)), 2):
        if g.bracket(pos[i], neg[j]):
            raise CrossCheckFailed("[e_i, f_j] != 0 for distinct simple roots")
    return pos, neg, kappa, hvec


def build_irrep(g: LieSuperalgebra, lam: Weight, op: AdjointOperation | None = None,
                max_depth: int = 64) -> HWModule:
    """Irreducible module with highest weight lam via the contravariant form.

    Raises FiniteDimGuardExceeded when more than max_depth height levels stay
    non-zero, the signal for a non-dominant highest weight.
    """
    lam = wt(*lam)
    if len(lam) != g.rank:
        raise PreconditionViolated(f"weight length {len(lam)} != rank {g.rank}")
    if op is None:
        op = build_adjoint_operation(g, 1)
    pos, neg, kappa, hvec = _simple_data(g, op)
    nsimple = len(pos)
    epar = [g.parity(pos[i]) for i in range(nsimple)]
    fpar = [g.parity(neg[i]) for i in range(nsimple)]

    weights = [lam]
    parities = [0]
    block_of = {0: (lam, 0)}
    gram_blocks = {lam: [[1]]}
    level_members = [[0]]
    # up[j][global index] = raising e_j expansion over the previous level
    up = [dict() for _ in range(nsimple)]
    for j in range(nsimple):
        up[j][0] = {}
    # f_exp[(i, global index)] = expansion of f_i . (basis vector) one level down
    f_exp = {}

    level = 0
    while True:
        level += 1
        prev = level_members[-1]
        cands = [(i, b) for b in prev for i in range(nsimple)]
        by_weight: dict = {}
        for c in cands:
            i, b = c
            w = wt_sub(weights[b], g.simple_roots[i])
            by_weight.setdefault(w, []).append(c)

        new_members = []
        for w in sorted(by_weight, key=weight_key):
            group = by_weight[w]
            # raising action of every candidate, expressed over the previous level
            cand_up = {}
            for (i, b) in group:
                vecs = []
                for j in range(nsimple):
                    vec: dict = {}
                    if i == j:
                        val = g.eval_weight(weights[b], hvec[i])
                        if val:
                            vec[b] = val
                    sgn = -1 if (epar[j] and fpar[i]) else 1
                    for c, coeff in up[j][b].items():
                        fc = f_exp.get((i, c))
                        if fc:
                            linalg.vec_iadd(vec, fc, sgn * coeff)
                    vecs.append({r: _exact(v) for r, v in vec.items()})
                cand_up[(i, b)] = vecs
            # Gram of the candidate family through the level above
            gamma = []
            for (i, b) in group:
                blk, bpos = block_of[b]
                gb = gram_blocks[blk][bpos]
                row = []
                for y in group:
                    val = 0
                    for c, coeff in cand_up[y][i].items():
                        cblk, cpos = block_of[c]
                        if cblk == blk:
                            val += coeff * gb[cpos]
                    row.append(_exact(kappa[i] * val))
                gamma.append(row)
            # The kept candidates are the pivot columns of gamma.  Every
            # column of gamma is the combination of them read off its RREF
            # column, and restricted to the kept rows that is the unique
            # solution of kept_gram . x = (its kept entries): the expansion
            # of the candidate modulo the radical.
            red, kept_rows = linalg.rref(gamma)
            if not kept_rows:
                for (i, b) in group:
                    f_exp[(i, b)] = {}
                continue
            base = len(weights)
            for local, ci in enumerate(kept_rows):
                i, b = group[ci]
                gidx = base + local
                weights.append(w)
                parities.append((parities[b] + fpar[i]) % 2)
                block_of[gidx] = (w, local)
                new_members.append(gidx)
                for j in range(nsimple):
                    up[j][gidx] = cand_up[group[ci]][j]
            gram_blocks[w] = [[gamma[a][b2] for b2 in kept_rows] for a in kept_rows]
            for ci, cand in enumerate(group):
                f_exp[cand] = {base + r: row[ci] for r, row in enumerate(red) if row[ci]}
        if not new_members:
            break
        if level >= max_depth:
            raise FiniteDimGuardExceeded(
                f"{g.name}: weight {lam} still alive after {max_depth} levels")
        level_members.append(new_members)

    dim = len(weights)
    action = [None] * g.dim
    for h in set(g.cartan):
        action[h] = [{j: v} if (v := g.eval_weight(weights[j], {h: 1})) else {}
                     for j in range(dim)]
    for i in range(nsimple):
        action[neg[i]] = [dict(f_exp.get((i, b), {})) for b in range(dim)]
        action[pos[i]] = [dict(up[i][b]) for b in range(dim)]
    _close_action(g, action)

    mod = HWModule(
        algebra=g, highest_weight=lam, weights=weights, parities=parities,
        action=action, hw_index=0, label=f"V({lam})", adjoint=op,
        gram_blocks=gram_blocks,
    )
    return mod


def _close_action(g: LieSuperalgebra, action: list):
    """Derive the action of the remaining basis elements from bracket
    relations, in one pass over the pairs of known elements: a pair (b, a)
    whose bracket has exactly one unknown term c * A_k gives
    rho(A_k) = (rho([A_b, A_a]) - rho(the known terms)) / c.  Each element
    is paired with itself and those known before it when its turn comes,
    and an element derived on the way is appended to the list the loop
    walks, so no pair is looked at twice."""
    known = [i for i in range(g.dim) if action[i] is not None]
    is_known = set(known)
    for pos, a in enumerate(known):
        for b in known[:pos + 1]:
            br = g.bracket(b, a)
            missing = [t for t in br if t not in is_known]
            if len(missing) != 1:
                continue
            k = missing[0]
            comm = _super_commutator(g, action, b, a)
            for t, c in br.items():
                if t != k:
                    for j, col in enumerate(action[t]):
                        linalg.vec_iadd(comm[j], col, -c)
            lead = br[k]
            action[k] = [{r: _exact(v, lead) for r, v in col.items()} for col in comm]
            known.append(k)
            is_known.add(k)
    if len(known) != g.dim:
        raise CrossCheckFailed("action closure stalled; basis not reachable "
                               "from simple vectors")


def _super_commutator(g: LieSuperalgebra, action: list, a: int, b: int) -> list:
    sgn = -1 if (g.parity(a) and g.parity(b)) else 1
    dim = len(action[a])
    cols = []
    for j in range(dim):
        acc: dict = {}
        for r, c in action[b][j].items():
            linalg.vec_iadd(acc, action[a][r], c)
        for r, c in action[a][j].items():
            linalg.vec_iadd(acc, action[b][r], -sgn * c)
        cols.append(acc)
    return cols


def natural_module(g: LieSuperalgebra) -> HWModule:
    """The defining representation, taken directly from the matrix realization."""
    dim = g.nat_dim
    action = [
        [dict() for _ in range(dim)] for _ in range(g.dim)
    ]
    for i, b in enumerate(g.basis):
        for (r, c), v in b.matrix.items():
            action[i][c][r] = v
    hw = _unique_highest_weight_vector(
        g, action, "natural module must have one highest weight vector")
    op = build_adjoint_operation(g, 1)
    mdiag = natural_form_diagonal(g)
    mod = HWModule(
        algebra=g, highest_weight=g.nat_weight[hw],
        weights=list(g.nat_weight), parities=list(g.nat_parity),
        action=action, hw_index=hw, label="natural", adjoint=op,
    )
    mod.gram_blocks = {
        w: [[mdiag[p] if p == q else 0 for q in idxs] for p in idxs]
        for w, idxs in mod.weight_blocks.items()
    }
    return mod


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------

def dual_module(mod: HWModule) -> HWModule:
    """Dual representation (A alpha)(v) = -(-1)^{|A||alpha|} alpha(A v).

    The double dual is identified with the original module through the
    canonical isomorphism v -> (-1)^{|v||.|} ev_v, whose matrix is the parity
    conjugation; composing with it makes dualization a literal involution.
    """
    if mod.dual_of is not None:
        orig = mod.dual_of
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
        cols = [dict() for _ in range(dim)]
        src = mod.action[i]
        for k in range(dim):
            for j, v in src[k].items():
                cols[j][k] = v if (pa and mod.parities[j]) else -v
        action.append(cols)
    weights = [wt_neg(w) for w in mod.weights]
    parities = list(mod.parities)
    hw = _unique_highest_weight_vector(
        g, action, "dual of an irreducible module must be irreducible")
    op2 = parity_twist(mod.adjoint)
    dual = HWModule(
        algebra=g, highest_weight=weights[hw], weights=weights, parities=parities,
        action=action, hw_index=hw, label=mod.label + "*", adjoint=op2,
        gram_blocks={}, dual_of=mod,
    )
    dual.gram_blocks = contravariant_gram_blocks(dual, op2)
    return dual


def _unique_highest_weight_vector(g: LieSuperalgebra, action: list,
                                  failure: str) -> int:
    """The one basis vector killed by every positive root vector; raises
    CrossCheckFailed(failure) unless there is exactly one."""
    pos_idx = g.positive_root_indices()
    hw = [p for p in range(len(action[0]))
          if all(not action[i][p] for i in pos_idx)]
    if len(hw) != 1:
        raise CrossCheckFailed(failure)
    return hw[0]


def contravariant_gram_blocks(mod: Module, op: AdjointOperation) -> dict:
    """Gram blocks of the contravariant form with <v_hw, v_hw> = 1.

    Works for any module cyclic over its highest weight vector; blocks are
    solved top-down from contravariance against the simple lowering vectors.
    """
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
    gram = {}
    gram[lam] = [[1 if (blocks[lam][a] == mod.hw_index
                        and blocks[lam][b] == mod.hw_index) else 0
                  for b in range(len(hwblk))] for a in range(len(hwblk))]
    if len(hwblk) != 1:
        raise PreconditionViolated("highest weight space must be one dimensional")
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
                    ey = mod.action[pos[i]][y]
                    val = 0
                    for u, cu in ey.items():
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


# ---------------------------------------------------------------------------
# type I gradation and Kac modules
# ---------------------------------------------------------------------------

def even_subalgebra(g: LieSuperalgebra) -> LieSuperalgebra:
    indices = [i for i in range(g.dim) if g.parity(i) == 0]
    # height order (ties in weight_key order) fixes g_0's simple roots for
    # Kac-module builds
    simple_even = sorted(even_simple_roots(g), key=g.height)
    return g.subalgebra(indices, simple_even, name=g.name + "_0")


def restrict_adjoint(op: AdjointOperation, sub: LieSuperalgebra,
                     indices: list) -> AdjointOperation:
    g = op.algebra
    index_map = {old: new for new, old in enumerate(indices)}
    images = []
    for old in indices:
        img = op.apply_basis(old)
        try:
            images.append({index_map[k]: v for k, v in img.items()})
        except KeyError:
            raise PreconditionViolated(
                "subalgebra is not stable under the adjoint operation")
    return AdjointOperation(sub, images, op.star_type)


def type_one_grading(g: LieSuperalgebra) -> dict:
    """Degree (+1, 0, -1) per basis element of a type I algebra."""
    if not (g.kind == "gl" or (g.kind == "osp" and g.m == 2)):
        raise NotTypeI(f"{g.name} has no consistent Z-gradation of type I")
    grading = {}
    for i, b in enumerate(g.basis):
        phi = sum(b.root[:g.r])
        if b.parity == 0:
            if phi != 0:
                raise CrossCheckFailed("even root with nonzero type I degree")
            grading[i] = 0
        else:
            if phi not in (1, -1):
                raise CrossCheckFailed("odd root outside degrees +-1")
            grading[i] = int(phi)
    return grading


def build_kac_module(g: LieSuperalgebra, lam: Weight, max_depth: int = 64) -> KacModule:
    lam = wt(*lam)
    grading = type_one_grading(g)
    g0_indices = [i for i in range(g.dim) if g.parity(i) == 0]
    g0 = even_subalgebra(g)
    op0 = restrict_adjoint(build_adjoint_operation(g, 1), g0, g0_indices)
    v0 = build_irrep(g0, lam, op0, max_depth)
    sub_of_parent = {old: new for new, old in enumerate(g0_indices)}

    gminus = tuple(sorted(i for i in range(g.dim) if grading[i] == -1))
    monomials = []
    for size in range(len(gminus) + 1):
        for combo in itertools.combinations(gminus, size):
            for u in range(v0.dim):
                monomials.append((combo, u))
    index = {mk: t for t, mk in enumerate(monomials)}

    weights, parities = [], []
    for (combo, u) in monomials:
        w = v0.weights[u]
        par = v0.parities[u]
        for i in combo:
            w = wt_add(w, g.root(i))
            par ^= 1
        weights.append(w)
        parities.append(par)

    memo = {}

    def act_pure(a: int, combo: tuple, u: int) -> dict:
        key = (a, combo, u)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if not combo:
            deg = grading[a]
            if deg == 1:
                out = {}
            elif deg == 0:
                col = v0.action[sub_of_parent[a]][u]
                out = {((), u2): c for u2, c in col.items()}
            else:
                out = {((a,), u): 1}
        else:
            beta, rest = combo[0], combo[1:]
            out = {}
            for k, c in g.bracket(a, beta).items():
                linalg.vec_iadd(out, act_pure(k, rest, u), c)
            sgn = -1 if g.parity(a) else 1
            inner = act_pure(a, rest, u)
            for (combo2, u2), c in inner.items():
                if beta in combo2:
                    continue
                posn = sum(1 for x in combo2 if x < beta)
                s = -sgn if posn % 2 else sgn
                linalg.vec_iadd(out, {(tuple(sorted(combo2 + (beta,))), u2): s * c})
        memo[key] = out
        return out

    action = []
    for a in range(g.dim):
        cols = []
        for (combo, u) in monomials:
            img = act_pure(a, combo, u)
            cols.append({index[mk]: c for mk, c in img.items() if c})
        action.append(cols)

    return KacModule(
        algebra=g, highest_weight=lam, weights=weights, parities=parities,
        action=action, hw_index=index[((), v0.hw_index)],
        label=f"K({lam})", g0_module=v0, gminus=gminus, monomials=monomials,
    )
