"""Chain spaces Lambda^k r (x) M and the four (co)boundary operators.

The super exterior power is exterior on even generators and symmetric on odd
ones; monomials are kept in normal form (strictly increasing even indices,
weakly increasing odd indices, module factor last) and every operator
application re-sorts with the Koszul sign of the permutation: an adjacent
swap contributes -1 unless both factors are odd.

One engine serves both sides of the theory.  With the nilradical n and the
dual basis in nbar it produces the coboundary/boundary pair on
Lambda^. n (x) V; with nbar as radical (dual basis in n) the same recursions
are the delta operators on Lambda^. nbar (x) V*.  Both pairs square to zero,
are h-equivariant, and are adjoint through the degreewise pairing below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .algebra import (
    ParabolicDecomposition,
    Weight,
    casimir_eigenvalue,
    wt_add,
)
from .errors import CrossCheckFailed, PreconditionViolated
from .modules import HWModule, Module

F0 = Fraction(0)
F1 = Fraction(1)
HALF = Fraction(1, 2)


class ChainBasisElement(NamedTuple):
    even_part: tuple
    odd_part: tuple
    module_index: int

    @property
    def degree(self) -> int:
        return len(self.even_part) + len(self.odd_part)

    def generators(self) -> tuple:
        return self.even_part + self.odd_part


@dataclass
class ChainSpace:
    complex: "ChainComplex"
    degree: int
    basis: list
    index: dict
    weights: list
    parities: list
    weight_blocks: dict

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass
class ChainMap:
    source: ChainSpace
    target: ChainSpace
    cols: list               # cols[j] = {target row: Fraction}

    def compose(self, inner: "ChainMap") -> "ChainMap":
        """self o inner."""
        if inner.target is not self.source:
            raise CrossCheckFailed("composed maps do not share a chain space")
        cols = []
        for col in inner.cols:
            acc: dict = {}
            for r, c in col.items():
                linalg.vec_iadd(acc, self.cols[r], c)
            cols.append(acc)
        return ChainMap(inner.source, self.target, cols)

    def add(self, other: "ChainMap") -> "ChainMap":
        cols = []
        for a, b in zip(self.cols, other.cols):
            acc = dict(a)
            linalg.vec_iadd(acc, b)
            cols.append(acc)
        return ChainMap(self.source, self.target, cols)

    def scale(self, c) -> "ChainMap":
        return ChainMap(self.source, self.target,
                        [linalg.vec_scale(col, Fraction(c)) for col in self.cols])

    def is_zero(self) -> bool:
        return all(not col for col in self.cols)

    def is_block_diagonal(self) -> bool:
        """h-equivariance: every column stays inside its weight block."""
        for j, col in enumerate(self.cols):
            w = self.source.weights[j]
            if any(self.target.weights[r] != w for r in col):
                return False
        return True

    def block(self, weight: Weight) -> list:
        """Dense matrix of the weight block (target rows x source cols)."""
        rows = self.target.weight_blocks.get(weight, [])
        cols = self.source.weight_blocks.get(weight, [])
        rpos = {r: i for i, r in enumerate(rows)}
        out = linalg.zeros(len(rows), len(cols))
        for cj, j in enumerate(cols):
            for r, v in self.cols[j].items():
                out[rpos[r]][cj] = v
        return out

    def commutes_with(self, other: "ChainMap") -> bool:
        if not (self.source is self.target is other.source is other.target):
            raise CrossCheckFailed("commutator of maps on different chain spaces")
        return self.compose(other).cols == other.compose(self).cols


class ChainComplex:
    """All chain degrees for one side (radical r = n or nbar) and one module."""

    def __init__(self, parabolic: ParabolicDecomposition, module: Module, side: str):
        if side not in ("n", "nbar"):
            raise PreconditionViolated(f"side must be 'n' or 'nbar', not {side!r}")
        self.parabolic = parabolic
        self.module = module
        self.side = side
        g = parabolic.algebra
        self.algebra = g
        if side == "n":
            self.radical = list(parabolic.n_indices)
            self.duals = parabolic.dual_of_n()
        else:
            self.radical = list(parabolic.nbar_indices)
            self.duals = parabolic.dual_of_nbar()
        self.even_gens = [i for i in self.radical if g.parity(i) == 0]
        self.odd_gens = [i for i in self.radical if g.parity(i) == 1]
        self.radical_set = frozenset(self.radical)
        self._spaces: dict = {}
        self._lower: dict = {}
        self._raise: dict = {}
        self._lower_memo: dict = {}
        self._raise_memo: dict = {}
        self._casimir_const = None

    # -- spaces ---------------------------------------------------------------

    def space(self, k: int) -> ChainSpace:
        if k in self._spaces:
            return self._spaces[k]
        if k < 0:
            raise ValueError("degree must be non-negative")
        g = self.algebra
        basis = []
        for j in range(min(k, len(self.even_gens)) + 1):
            for ev in itertools.combinations(self.even_gens, j):
                for od in itertools.combinations_with_replacement(self.odd_gens, k - j):
                    for mi in range(self.module.dim):
                        basis.append(ChainBasisElement(ev, od, mi))
        index = {e: t for t, e in enumerate(basis)}
        weights, parities = [], []
        for e in basis:
            w = self.module.weights[e.module_index]
            par = self.module.parities[e.module_index]
            for i in e.generators():
                w = wt_add(w, g.root(i))
                par ^= g.parity(i)
            weights.append(w)
            parities.append(par)
        blocks: dict = {}
        for t, w in enumerate(weights):
            blocks.setdefault(w, []).append(t)
        sp = ChainSpace(self, k, basis, index, weights, parities, blocks)
        self._spaces[k] = sp
        return sp

    # -- normal form ----------------------------------------------------------

    def _normalize(self, gens: list, mi: int):
        """Sort generators into normal form; returns (element, sign) or None."""
        g = self.algebra
        items = [(g.parity(i), i) for i in gens]
        sign = 1
        for i in range(1, len(items)):
            cur = items[i]
            j = i - 1
            while j >= 0 and items[j] > cur:
                if not (items[j][0] and cur[0]):
                    sign = -sign
                items[j + 1] = items[j]
                j -= 1
            items[j + 1] = cur
        ev, od = [], []
        for par, idx in items:
            if par:
                od.append(idx)
            else:
                if ev and ev[-1] == idx:
                    return None
                ev.append(idx)
        return ChainBasisElement(tuple(ev), tuple(od), mi), sign

    def _wedge(self, gen: int, vec: dict) -> dict:
        out: dict = {}
        for elem, c in vec.items():
            res = self._normalize([gen, *elem.generators()], elem.module_index)
            if res is None:
                continue
            e2, sgn = res
            new = out.get(e2, F0) + c * sgn
            if new:
                out[e2] = new
            else:
                del out[e2]
        return out

    # -- module structure -------------------------------------------------------

    def act_element(self, vec: dict, elem: ChainBasisElement) -> dict:
        """Action of an algebra element (coefficients over the basis) on a
        chain monomial; brackets with generators are projected to the radical."""
        g = self.algebra
        out: dict = {}
        gens = elem.generators()
        for a, ca in vec.items():
            pa = g.parity(a)
            prefix = 0
            for t, gt in enumerate(gens):
                br = g.bracket(a, gt)
                sgn = -F1 if (pa and prefix % 2) else F1
                for kidx, cb in br.items():
                    if kidx not in self.radical_set:
                        continue
                    rest = list(gens)
                    rest[t] = kidx
                    res = self._normalize(rest, elem.module_index)
                    if res is None:
                        continue
                    e2, s2 = res
                    new = out.get(e2, F0) + ca * cb * sgn * s2
                    if new:
                        out[e2] = new
                    else:
                        del out[e2]
                prefix += g.parity(gt)
            sgn = -F1 if (pa and prefix % 2) else F1
            col = self.module.act_basis(a, {elem.module_index: F1})
            for r, cm in col.items():
                res = self._normalize(list(gens), r)
                e2, s2 = res
                new = out.get(e2, F0) + ca * cm * sgn * s2
                if new:
                    out[e2] = new
                else:
                    del out[e2]
        return out

    def _peel(self, elem: ChainBasisElement):
        if elem.even_part:
            g0 = elem.even_part[0]
            rest = ChainBasisElement(elem.even_part[1:], elem.odd_part,
                                     elem.module_index)
        else:
            g0 = elem.odd_part[0]
            rest = ChainBasisElement(elem.even_part, elem.odd_part[1:],
                                     elem.module_index)
        return g0, rest

    # -- the two operators ------------------------------------------------------

    def _lower_elem(self, elem: ChainBasisElement) -> dict:
        """Boundary recursion  d*(X ^ f) = -X.f - X ^ d*(f),  d*|deg 0 = 0."""
        hit = self._lower_memo.get(elem)
        if hit is not None:
            return hit
        if elem.degree == 0:
            self._lower_memo[elem] = {}
            return {}
        g0, rest = self._peel(elem)
        out = linalg.vec_scale(self.act_element({g0: F1}, rest), -F1)
        linalg.vec_iadd(out, self._wedge(g0, self._lower_elem(rest)), -F1)
        self._lower_memo[elem] = out
        return out

    def _raise_elem(self, elem: ChainBasisElement) -> dict:
        """Coboundary recursion
        d(v) = sum_a z_a (x) z_a^# . v
        d(X ^ f) = 1/2 sum_a z_a ^ [z_a^#, X]_r ^ f - X ^ d(f)."""
        hit = self._raise_memo.get(elem)
        if hit is not None:
            return hit
        g = self.algebra
        out: dict = {}
        if elem.degree == 0:
            for a, gen in enumerate(self.radical):
                col = self.module.act(self.duals[a], {elem.module_index: F1})
                for r, cm in col.items():
                    linalg.vec_iadd(
                        out, self._wedge(gen, {ChainBasisElement((), (), r): F1}), cm)
        else:
            g0, rest = self._peel(elem)
            restvec = {rest: F1}
            for a, gen in enumerate(self.radical):
                br = g.bracket_vec(self.duals[a], {g0: F1})
                for kidx, cb in br.items():
                    if kidx not in self.radical_set:
                        continue
                    inner = self._wedge(kidx, restvec)
                    linalg.vec_iadd(out, self._wedge(gen, inner), HALF * cb)
            linalg.vec_iadd(out, self._wedge(g0, self._raise_elem(rest)), -F1)
        self._raise_memo[elem] = out
        return out

    def _to_map(self, k_src: int, k_dst: int, images: list) -> ChainMap:
        src, dst = self.space(k_src), self.space(k_dst)
        cols = []
        for img in images:
            cols.append({dst.index[e]: c for e, c in img.items()})
        return ChainMap(src, dst, cols)

    def lower(self, k: int) -> ChainMap:
        """d*_k : C_k -> C_{k-1} (the boundary; delta* on the nbar side)."""
        if k not in self._lower:
            if k == 0:
                self._lower[k] = ChainMap(self.space(0), self.space(0),
                                          [{} for _ in self.space(0).basis])
            else:
                sp = self.space(k)
                self.space(k - 1)
                self._lower[k] = self._to_map(
                    k, k - 1, [self._lower_elem(e) for e in sp.basis])
        return self._lower[k]

    def raise_(self, k: int) -> ChainMap:
        """d_k : C_k -> C_{k+1} (the coboundary; delta on the nbar side)."""
        if k not in self._raise:
            sp = self.space(k)
            self.space(k + 1)
            self._raise[k] = self._to_map(
                k, k + 1, [self._raise_elem(e) for e in sp.basis])
        return self._raise[k]

    # -- auxiliary actions --------------------------------------------------------

    def action_map(self, k: int, vec: dict) -> ChainMap:
        sp = self.space(k)
        return self._to_map(k, k, [self.act_element(vec, e) for e in sp.basis])

    def levi_action_maps(self, k: int) -> dict:
        """ChainMap of every Levi basis element at degree k."""
        return {i: self.action_map(k, {i: F1}) for i in self.parabolic.levi_indices}

    # -- quabla -------------------------------------------------------------------

    def quabla(self, k: int, method: str = "direct") -> ChainMap:
        if method == "direct":
            a = self.raise_(k - 1).compose(self.lower(k)) if k > 0 else None
            b = self.lower(k + 1).compose(self.raise_(k))
            return b if a is None else a.add(b)
        if method != "casimir":
            raise ValueError("method must be 'direct' or 'casimir'")
        g = self.algebra
        p = self.parabolic
        c2 = self._casimir_scalar()
        hvec: dict = {}
        for a, gen in enumerate(self.radical):
            linalg.vec_iadd(hvec, g.bracket_vec({gen: F1}, self.duals[a]))
        for i in hvec:
            if not g.basis[i].is_cartan:
                raise CrossCheckFailed("sum [z_a, z_a^#] is not in the Cartan")
        levi = p.levi_indices
        lgram = [[g.gram[i][j] for j in levi] for i in levi]
        linv = linalg.inverse(lgram)
        acts = {i: self.action_map(k, {i: F1}) for i in levi}
        sp = self.space(k)
        cols = [dict() for _ in range(sp.dim)]
        for j in range(sp.dim):
            diag = c2 + g.eval_weight(sp.weights[j], hvec)
            if diag:
                cols[j][j] = diag
        for bi, i in enumerate(levi):
            dual = {levi[t]: linv[bi][t] for t in range(len(levi)) if linv[bi][t]}
            dmap = self.action_map(k, dual)
            comp = acts[i].compose(dmap)
            for j in range(sp.dim):
                linalg.vec_iadd(cols[j], comp.cols[j], -F1)
        return ChainMap(sp, sp, [linalg.vec_scale(c, -HALF) for c in cols])

    def _casimir_scalar(self):
        if self._casimir_const is None:
            self._casimir_const = casimir_eigenvalue(
                self.algebra, self.module.highest_weight)
        return self._casimir_const


# ---------------------------------------------------------------------------
# pairing and the contravariant form on chains
# ---------------------------------------------------------------------------

def _move_sign(g, gens: tuple, t: int) -> Fraction:
    """Koszul sign of moving the t-th generator to the front."""
    sgn = F1
    pt = g.parity(gens[t])
    for u in range(t):
        if not (pt and g.parity(gens[u])):
            sgn = -sgn
    return sgn


class ChainPairing:
    """Degreewise pairing of Lambda^k nbar (x) V* with Lambda^k n (x) V.

    Built from the rule (Y (x) q, X (x) p) = (-1)^{|q||X|} (Y, X) (q, p) with
    the Laplace expansion over which right factor absorbs the leading left
    factor; the base case is the evaluation of V* on V in dual bases.
    """

    def __init__(self, left: ChainComplex, right: ChainComplex):
        if not (left.side == "nbar" and right.side == "n"):
            raise PreconditionViolated("pairing needs an nbar complex and an n complex")
        self.left = left
        self.right = right
        g = left.algebra
        self._gform = {}
        for y in left.radical:
            for x in right.radical:
                v = g.gram[y][x]
                if v:
                    self._gform[(y, x)] = v
        self._memo: dict = {}

    def _module_pair(self, qi: int, pi: int) -> Fraction:
        return F1 if qi == pi else F0

    def pair_elements(self, q: ChainBasisElement, p: ChainBasisElement) -> Fraction:
        key = (q, p)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if q.degree == 0:
            val = self._module_pair(q.module_index, p.module_index)
            self._memo[key] = val
            return val
        g = self.left.algebra
        y0, qrest = self.left._peel(q)
        qrest_par = (self.left.module.parities[q.module_index]
                     + sum(g.parity(i) for i in qrest.generators())) % 2
        pgens = p.generators()
        val = F0
        for t, xt in enumerate(pgens):
            gv = self._gform.get((y0, xt))
            if not gv:
                continue
            rest_gens = pgens[:t] + pgens[t + 1:]
            pe = tuple(i for i in rest_gens if g.parity(i) == 0)
            po = tuple(i for i in rest_gens if g.parity(i) == 1)
            prest = ChainBasisElement(pe, po, p.module_index)
            sgn = _move_sign(g, pgens, t)
            if qrest_par and g.parity(xt):
                sgn = -sgn
            val += sgn * gv * self.pair_elements(qrest, prest)
        self._memo[key] = val
        return val

    def matrix(self, k: int) -> list:
        """Dense matrix (rows: left basis, cols: right basis) at degree k."""
        lsp, rsp = self.left.space(k), self.right.space(k)
        return [
            [self.pair_elements(q, p) for p in rsp.basis]
            for q in lsp.basis
        ]

    def block(self, k: int, left_weight: Weight) -> tuple:
        """Block pairing C^k(n,V*)_mu with C^k(nbar,V)_{-mu}."""
        lsp, rsp = self.left.space(k), self.right.space(k)
        lrows = lsp.weight_blocks.get(left_weight, [])
        from .algebra import wt_neg
        rcols = rsp.weight_blocks.get(wt_neg(left_weight), [])
        mat = [
            [self.pair_elements(lsp.basis[i], rsp.basis[j]) for j in rcols]
            for i in lrows
        ]
        return lrows, rcols, mat


class ChainForm:
    """Contravariant form on one complex, built from the adjoint operation:
    <Y1 ^ f, Y2 ^ g> = (dagger Y1, Y2) <f, g> with the module's own form.
    delta and -delta* are adjoint with respect to it."""

    def __init__(self, cx: ChainComplex):
        self.cx = cx
        mod = cx.module
        if not (isinstance(mod, HWModule) and mod.gram_blocks):
            raise PreconditionViolated(
                "chain form needs a module with a contravariant form")
        g = cx.algebra
        op = mod.adjoint
        self._gform = {}
        for y1 in cx.radical:
            dag = op.apply_basis(y1)
            for y2 in cx.radical:
                v = g.form(dag, {y2: F1})
                if v:
                    self._gform[(y1, y2)] = v
        self._memo: dict = {}

    def form_elements(self, x: ChainBasisElement, y: ChainBasisElement) -> Fraction:
        key = (x, y)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if x.degree == 0:
            val = self.cx.module.gram(x.module_index, y.module_index)
            self._memo[key] = val
            return val
        g = self.cx.algebra
        y0, xrest = self.cx._peel(x)
        ygens = y.generators()
        val = F0
        for t, yt in enumerate(ygens):
            gv = self._gform.get((y0, yt))
            if not gv:
                continue
            rest_gens = ygens[:t] + ygens[t + 1:]
            pe = tuple(i for i in rest_gens if g.parity(i) == 0)
            po = tuple(i for i in rest_gens if g.parity(i) == 1)
            yrest = ChainBasisElement(pe, po, y.module_index)
            val += _move_sign(g, ygens, t) * gv * self.form_elements(xrest, yrest)
        self._memo[key] = val
        return val

    def block(self, k: int, weight: Weight) -> list:
        sp = self.cx.space(k)
        idxs = sp.weight_blocks.get(weight, [])
        return [
            [self.form_elements(sp.basis[i], sp.basis[j]) for j in idxs]
            for i in idxs
        ]
