"""The degreewise pairing and the contravariant form on chains.

`ChainPairing` pairs Lambda^k nbar (x) V* with Lambda^k n (x) V, and
`ChainForm` is the contravariant form on one complex; both expand a
bilinear form on chain monomials along the leading factor of the left
argument (`_LaplaceExpansion`).  The pipeline reads neither: they state the
adjointness of the operators of `chains`, which the tests check against
them.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Weight, wt_neg
from .chains import ChainBasisElement, ChainComplex
from .errors import PreconditionViolated
from .modules import HWModule

F0 = Fraction(0)
F1 = Fraction(1)


def _move_sign(g, gens: tuple, t: int) -> Fraction:
    """Koszul sign of moving the t-th generator to the front."""
    sgn = F1
    pt = g.parity(gens[t])
    for u in range(t):
        if not (pt and g.parity(gens[u])):
            sgn = -sgn
    return sgn


def _peel(elem: ChainBasisElement):
    """(leading generator, the rest) of a chain monomial."""
    if elem.even_part:
        g0 = elem.even_part[0]
        rest = ChainBasisElement(elem.even_part[1:], elem.odd_part,
                                 elem.module_index)
    else:
        g0 = elem.odd_part[0]
        rest = ChainBasisElement(elem.even_part, elem.odd_part[1:],
                                 elem.module_index)
    return g0, rest


class _LaplaceExpansion:
    """Memoised bilinear form on chain monomials, expanded along the leading
    factor y0 of the left argument:

        (y0 ^ Q, X) = sum_t s_t (y0, x_t) (Q, X without x_t),

    with (., .) on generators given by `gform` and `base(qi, pi)` the value
    in degree 0.  s_t is the Koszul sign of moving x_t to the front, times
    (-1)^{|Q||x_t|} when `twisted` (|Q| counts the module factor too)."""

    def __init__(self, left: ChainComplex, gform: dict, base, twisted: bool):
        self.left = left
        self.gform = gform
        self.base = base
        self.twisted = twisted
        self.memo: dict = {}

    def __call__(self, q: ChainBasisElement, p: ChainBasisElement) -> Fraction:
        key = (q, p)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if q.degree == 0:
            val = self.base(q.module_index, p.module_index)
            self.memo[key] = val
            return val
        g = self.left.algebra
        y0, qrest = _peel(q)
        qrest_odd = self.twisted and (
            self.left.module.parities[q.module_index]
            + sum(g.parity(i) for i in qrest.generators())) % 2
        pgens = p.generators()
        val = F0
        for t, xt in enumerate(pgens):
            gv = self.gform.get((y0, xt))
            if not gv:
                continue
            rest_gens = pgens[:t] + pgens[t + 1:]
            pe = tuple(i for i in rest_gens if g.parity(i) == 0)
            po = tuple(i for i in rest_gens if g.parity(i) == 1)
            prest = ChainBasisElement(pe, po, p.module_index)
            sgn = _move_sign(g, pgens, t)
            if qrest_odd and g.parity(xt):
                sgn = -sgn
            val += sgn * gv * self(qrest, prest)
        self.memo[key] = val
        return val


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
        gform = {}
        for y in left.radical:
            for x in right.radical:
                v = g.gram[y][x]
                if v:
                    gform[(y, x)] = v
        self._expansion = _LaplaceExpansion(
            left, gform, lambda qi, pi: F1 if qi == pi else F0, twisted=True)

    def pair_elements(self, q: ChainBasisElement, p: ChainBasisElement) -> Fraction:
        return self._expansion(q, p)

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
        gform = {}
        for y1 in cx.radical:
            dag = op.apply_basis(y1)
            for y2 in cx.radical:
                v = g.form(dag, {y2: F1})
                if v:
                    gform[(y1, y2)] = v
        self._expansion = _LaplaceExpansion(cx, gform, mod.gram, twisted=False)

    def form_elements(self, x: ChainBasisElement, y: ChainBasisElement) -> Fraction:
        return self._expansion(x, y)

    def block(self, k: int, weight: Weight) -> list:
        sp = self.cx.space(k)
        idxs = sp.weight_blocks.get(weight, [])
        return [
            [self.form_elements(sp.basis[i], sp.basis[j]) for j in idxs]
            for i in idxs
        ]
