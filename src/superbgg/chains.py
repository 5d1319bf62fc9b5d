"""Chain spaces Lambda^k r (x) M and the boundary and coboundary on them.

The super exterior power is exterior on even generators and symmetric on odd
ones; monomials are kept in normal form (strictly increasing even indices,
weakly increasing odd indices, module factor last) and every operator
application re-sorts with the Koszul sign of the permutation: an adjacent
swap contributes -1 unless both factors are odd.

The radical r is the nilradical nbar, and the dual basis z_a^# of its
basis z_a lies in n: the boundary d* (`lower`) is that of the homology of
nbar with coefficients in the module, and the coboundary d (`raise_`) is
built from the dual basis.  Both square to zero and are h-equivariant.
The n side of the theory is the nbar side of the opposite parabolic, the
one with nbar and n swapped.

Every operator is a ChainMap of integer columns over one denominator, so
composing and comparing operators is exact Python-int arithmetic.
The homology layer reads an operator one weight block at a time, as sparse
int rows keyed by source index (`ChainMap.rows`, `CasimirQuabla.rows`),
never as a dense block.
A product of operators is also a generator of its int columns
(`_product_columns`), which a reader can take one at a time without
forming the product.

The module enters every operator only through its action matrices.  The
boundary, the coboundary and the action of A_i unroll to

    d*  = del (x) 1 + sum_a iota_a (x) rho(x_a),
    d   = delta (x) 1 + sum_a eps(z_a) (x) rho(z_a^#),
    A_i = ad(A_i) (x) 1 + (+-) (x) rho(A_i),

and every Koszul sign depends on the exterior factor alone.  So the
normal-form recursions run once per monomial of Lambda^k r, into an exterior
table of images over (exterior monomial, module operator), and each ChainMap
is assembled from the table by index arithmetic against the module's action
columns (`ChainComplex._assemble`).  A column is formed only where a
reader reads it.  d*_k on a few weight blocks alone
(`ChainComplex.lower_at`) and the top degree's Casimir root part are built
on a restricted space that holds exactly the pairs (X, m) with
root-sum(X) + wt(v_m) among those weights: a table row for each monomial
X of such a pair (over the full table one degree down), and of that row
only the columns X (x) v_m of those pairs.  The action of a Levi element
is never assembled whole for the pipeline: its int columns are formed one
at a time, on first read, from the per-degree exterior action table of the
Levi root vectors that the Casimir quabla reads too
(`ChainComplex.action_columns`).

The Casimir quabla, -1/2 (C2 + w(h) - C_l), the form the homology layer
reads (the direct one cross-checks it), is built from C_k alone and held
in two parts (`CasimirQuabla`): the Cartan part of C_l acts on the
weight-w block by (w, w), so with C2 and w(h) it is a quadratic form in w
computed once per complex and kept as one int per weight, and the Levi
root-vector part is a ChainMap assembled from one exterior table per
degree with ops 1, rho(A_t) and rho(C_l^root), absent on a Borel
(derivation in `ChainComplex.casimir_quabla`).

Chain weights are the module's weights plus integral root sums, so they
keep the weights' form (`algebra.Weight`): an int in every integral
coordinate, which hashes and compares far faster than a Fraction.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, NamedTuple

from . import linalg
from .algebra import (
    ParabolicDecomposition,
    Weight,
    casimir_eigenvalue,
    wt_add,
    wt_sub,
    wt_zero,
)
from .errors import CrossCheckFailed
from .linalg import _exact
from .modules import Module


class ChainSpace:
    """C_k with the weight of each basis index, or the span in C_k of the
    X (x) v_m over the pairs (X, ms) in `held` and m in ms, a weight
    restriction whose weight blocks are whole blocks of C_k
    (`ChainComplex._build_space`); `held` None stands for every X (x) v_m
    of C_k.  The operators address the space by index arithmetic alone, so
    it holds no chain monomial: index idx(X) * dim M + m of C_k is
    X (x) v_m, X the idx(X)-th of `ChainComplex.monomials`."""

    def __init__(self, complex: "ChainComplex", degree: int, weights: list,
                 weight_blocks: dict, held: list | None = None):
        self.complex, self.degree, self.weights = complex, degree, weights
        self.weight_blocks, self.held = weight_blocks, held

    @property
    def dim(self) -> int:
        return len(self.weights)


class ChainMap:
    """Linear map between chain spaces with exact rational entries, held as
    integer columns over one positive denominator: entry (r, j) is
    icols[j][r] / den.  Every map is canonical (gcd of den and all entries
    is 1), so two maps of the same spaces are equal exactly when their
    icols and den are."""

    def __init__(self, source: ChainSpace, target: ChainSpace, icols: list, den: int = 1):
        self.source, self.target, self.den = source, target, den
        self.icols = icols          # icols[j] = {target row: nonzero int}

    @classmethod
    def canonical(cls, source: ChainSpace, target: ChainSpace, icols: list,
                  den: int) -> "ChainMap":
        """The map icols / den (den > 0) with the common factor cancelled."""
        g = den
        for col in icols:
            if g == 1:
                break
            g = gcd(g, *col.values())
        if g > 1:
            icols = [{r: v // g for r, v in col.items()} for col in icols]
        return cls(source, target, icols, den // g)

    def compose(self, inner: "ChainMap") -> "ChainMap":
        """self o inner."""
        cols, den = self.compose_columns(inner)
        return ChainMap.canonical(inner.source, self.target, list(cols), den)

    def compose_columns(self, inner: "ChainMap") -> tuple[Iterator, int]:
        """self o inner one column at a time (`_product_columns`)."""
        return _product_columns([(self, inner)])

    def add(self, other: "ChainMap") -> "ChainMap":
        """self + other, over the lcm of the two denominators.  No package
        code calls it; the benchmark's tracer (perfbench/tracing.py) wraps
        it by name."""
        if other.source is not self.source or other.target is not self.target:
            raise CrossCheckFailed("added maps do not share their chain spaces")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        icols = []
        for a, b in zip(self.icols, other.icols):
            col = {r: fa * v for r, v in a.items()}
            for r, v in b.items():
                _add_term(col, r, fb * v)
            icols.append(col)
        return ChainMap.canonical(self.source, self.target, icols, den)

    def rows(self, weight: Weight) -> list:
        """den times the weight block as sparse int rows {source index:
        nonzero int}, one per target index of the block in order: what the
        block layer eliminates (`linalg.Echelon`)."""
        rows = {r: {} for r in self.target.weight_blocks.get(weight, [])}
        for j in self.source.weight_blocks.get(weight, []):
            for r, v in self.icols[j].items():
                rows[r][j] = v
        return list(rows.values())

    def int_block(self, weight: Weight) -> list:
        """`rows(weight)` as a dense int matrix (target rows x source cols),
        with the kernel, rank and column space of `block`: a view for
        `block` and the tests; the block layer reads `rows`."""
        cols = self.source.weight_blocks.get(weight, [])
        return [[row.get(j, 0) for j in cols] for row in self.rows(weight)]

    def block(self, weight: Weight) -> list:
        """Dense matrix of the weight block (target rows x source cols): ints
        when den is 1, otherwise Fractions (zero entries are int 0).  No
        package code calls it; the tests and the benchmark's tracer
        (perfbench/tracing.py) read it."""
        out = self.int_block(weight)
        den = self.den
        if den == 1:
            return out
        return [[Fraction(v, den) if v else 0 for v in row] for row in out]


def _product_columns(pairs: list) -> tuple[Iterator, int]:
    """(columns, den) of the sum of outer o inner over the (outer, inner)
    pairs, maps between the same two spaces.  den is the lcm of the
    products' denominators, and `columns` yields den times the sum's column
    at each source index in turn, an int column with no zero entry, formed
    straight from the factors' int columns.  A reader that takes the
    columns one at a time holds one column and no map."""
    source, target = pairs[0][1].source, pairs[0][0].target
    if any(inner.target is not outer.source or inner.source is not source
           or outer.target is not target for outer, inner in pairs):
        raise CrossCheckFailed("composed maps do not share a chain space")
    den = lcm(*(outer.den * inner.den for outer, inner in pairs))
    factors = [(den // (outer.den * inner.den), outer.icols, inner.icols)
               for outer, inner in pairs]

    def columns():
        for j in range(source.dim):
            acc: dict = {}
            for f, ocols, icols in factors:
                for r, c in icols[j].items():
                    fc = f * c
                    for t, v in ocols[r].items():
                        acc[t] = acc.get(t, 0) + fc * v
            yield {t: v for t, v in acc.items() if v}
    return columns(), den


class _Lazy(dict):
    """A dict whose value at a key is formed by `form(key)` on first read:
    the complex's caches, and the int columns of an action over their
    common denominator `den` (`ChainComplex.action_columns`)."""

    def __init__(self, form, den: int = 1):
        self.form, self.den = form, den

    def __missing__(self, key):
        value = self[key] = self.form(key)
        return value


def _add_term(out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum vanishes."""
    new = out.get(key, 0) + c
    if new:
        out[key] = new
    else:
        out.pop(key, None)


class CasimirQuabla:
    """quabla_k by Kostant's formula in its two parts
    (`ChainComplex.casimir_quabla`): the scalar part, scalar[w] / den on
    the weight-w block of `space`, and the root part, a ChainMap into
    `space`, or None where the Levi is the Cartan.  A root part whose
    source holds some weight blocks of `space` alone is read there alone."""

    def __init__(self, space: ChainSpace, scalar: dict, den: int, root: ChainMap | None):
        self.space, self.den, self.root = space, den, root
        self.scalar = scalar        # weight -> int

    def _scales(self) -> tuple[int, int, int]:
        """(D, D / den, D / root den) for D the lcm of both denominators."""
        rden = self.root.den if self.root is not None else 1
        big = lcm(self.den, rden)
        return big, big // self.den, big // rden

    def columns(self) -> Iterator:
        """D times quabla (`_scales`) one column at a time: the scalar at
        the column's own row plus the root part's column."""
        _, fs, fr = self._scales()
        root = self.root.icols if self.root is not None else None
        if root is not None and self.root.source is not self.space:
            raise CrossCheckFailed("the root part holds some weight blocks alone")
        for j, w in enumerate(self.space.weights):
            col = {r: fr * v for r, v in root[j].items()} if root is not None else {}
            _add_term(col, j, fs * self.scalar[w])
            yield col

    def rows(self, weight: Weight) -> list:
        """D times the weight block (`_scales`) as sparse int rows {C_k
        index: nonzero int}, one per index of the block in order: the root
        block plus the scalar on the diagonal, with the kernel and rank of
        the exact block, which is what block_data reads.  A root part on a
        restricted source has source indices of its own, matched to C_k's
        through the two lists of the block, which run in the same order."""
        idxs = self.space.weight_blocks.get(weight, [])
        _, fs, fr = self._scales()
        rows = {r: {} for r in idxs}
        if self.root is not None:
            src = self.root.source.weight_blocks.get(weight)
            if src is None:
                raise CrossCheckFailed(f"the root part holds no block at {weight}")
            for j, c in zip(src, idxs, strict=True):
                for r, v in self.root.icols[j].items():
                    rows[r][c] = fr * v
        diag = fs * self.scalar[weight]
        for r, row in rows.items():
            _add_term(row, r, diag)
        return list(rows.values())

    def agrees(self, cols: Iterator, den: int) -> bool:
        """Whether the map of `space` with the int columns `cols` over `den`
        is quabla, one column at a time against `columns`, the two
        denominators cross-multiplied."""
        big = self._scales()[0]
        return all({r: den * v for r, v in want.items()}
                   == {r: big * v for r, v in col.items()}
                   for col, want in zip(cols, self.columns(), strict=True))


class ChainComplex:
    """All chain degrees for one module, with radical r = nbar.

    C_k = Lambda^k r (x) M is laid out monomial-major: the chain basis
    element (X, m) has index idx(X) * dim M + m, with idx(X) the position of
    X in `monomials(k)`.  Every operator is sum_o L_o (x) rho(o), where
    L_o acts on Lambda^. r alone and o runs over the identity and a few
    algebra elements (see `_assemble`), so the normal-form recursions run
    once per exterior monomial and M enters only through its action
    columns."""

    def __init__(self, parabolic: ParabolicDecomposition, module: Module):
        self.parabolic = parabolic
        self.module = module
        g = parabolic.algebra
        self.algebra = g
        self.radical = list(parabolic.nbar_indices)
        self.duals = parabolic.nbar_duals
        self.even_gens = [i for i in self.radical if g.parity(i) == 0]
        self.odd_gens = [i for i in self.radical if g.parity(i) == 1]
        self.radical_set = frozenset(self.radical)
        self._parity = [b.parity for b in g.basis]
        # each generator's place in the normal-form order (parity, index)
        self._rank = {i: r for r, i in enumerate(
            sorted(self.radical, key=lambda i: (self._parity[i], i)))}
        self._monomials: dict = {}      # k -> (monomials, {monomial: position})
        self._spaces: dict = {}
        self._lower: dict = {}
        self._raise: dict = {}
        # each of the caches below forms an entry on its first read
        # ("lower" / "raise", k) -> exterior table (`_table`)
        self._tables = _Lazy(self._table)
        # k -> ad(A_t) on Lambda^k r for the Levi root vectors A_t, as
        # `_casimir_terms` selects them (`_ad_rows`): the Casimir quabla's
        # root part and the Levi action columns read it
        self._ad = _Lazy(lambda k: self._ad_rows(
            [i for i, _ in self._casimir_terms.roots], k))
        # (a, generator) -> [A_a, generator] projected to the radical, as
        # (index, coefficient) pairs
        radical = self.radical_set
        self._brackets = _Lazy(lambda key: [(h, c) for h, c in g.bracket(*key).items()
                                            if h in radical])
        # peeled generator -> coboundary terms (`_coboundary_terms`)
        self._raise_terms = _Lazy(self._coboundary_terms)

    # -- spaces ---------------------------------------------------------------

    def monomials(self, k: int) -> tuple[list, dict]:
        """The basis of Lambda^k r as generator tuples in normal form (even
        generators strictly increasing, then odd ones weakly increasing),
        and each monomial's position."""
        hit = self._monomials.get(k)
        if hit is None:
            monos = [ev + od for ev, _, odds, _, _ in self._parts(k) for od, _ in odds]
            hit = self._monomials[k] = (monos, {x: t for t, x in enumerate(monos)})
        return hit

    def _parts(self, k: int):
        """Lambda^k r in the order of `monomials`, one group per even part:
        (ev, root sum of ev, odds, sums, parity), the monomials of the
        group being ev + od for (od, s) in odds, each of root sum
        ev's + sums[s] and of the given parity.  `sums` are the distinct
        root sums of the odd parts; odds and sums are shared by the even
        parts of one size."""
        if k < 0:
            raise ValueError("degree must be non-negative")
        g = self.algebra
        zero = wt_zero(g.rank)

        def root_sum(gens):
            s = zero
            for i in gens:
                s = wt_add(s, g.root(i))
            return s

        for j in range(min(k, len(self.even_gens)) + 1):
            sid: dict = {}
            odds = [(od, sid.setdefault(root_sum(od), len(sid)))
                    for od in itertools.combinations_with_replacement(self.odd_gens, k - j)]
            sums = list(sid)
            for ev in itertools.combinations(self.even_gens, j):
                yield ev, root_sum(ev), odds, sums, (k - j) & 1

    def space(self, k: int) -> ChainSpace:
        """C_k, built once and cached."""
        if k not in self._spaces:
            self._spaces[k] = self._build_space(k)
        return self._spaces[k]

    def _build_space(self, k: int, keep: frozenset | None = None) -> ChainSpace:
        """C_k, or with `keep` (a set of chain weights) its span of the
        X (x) v_m with root-sum(X) + wt(v_m) in `keep`: exactly the weight
        blocks of C_k at those weights, in the order C_k has them.  Each root
        sum s maps to the pairs (m, s + wt(v_m)) it keeps, formed from
        `keep` x the module weights (every m for C_k), and the odd parts of
        one size are grouped by root sum once, so a monomial is visited
        only where its root sum keeps a pair."""
        base = self.module.weights
        picked: dict = {}       # root sum -> {m: chain weight}, m increasing
        for m, b in enumerate(base):
            for w in keep or ():
                picked.setdefault(wt_sub(w, b), {})[m] = w
        held, weights, odds_of = [], [], None
        for ev, se, odds, sums, _ in self._parts(k):
            if odds is not odds_of:
                odds_of, by_sum = odds, [[] for _ in sums]
                for t, (_, s) in enumerate(odds):
                    by_sum[s].append(t)
            found = {}
            for s, so in enumerate(sums):
                shift = wt_add(se, so)
                if keep is None and shift not in picked:
                    picked[shift] = {m: wt_add(b, shift) for m, b in enumerate(base)}
                if shift in picked:
                    found[s] = picked[shift]
            for t in sorted(t for s in found for t in by_sum[s]):
                od, s = odds[t]
                if keep is not None:
                    held.append((ev + od, found[s]))
                weights.extend(found[s].values())
        blocks: dict = {}
        for t, w in enumerate(weights):
            blocks.setdefault(w, []).append(t)
        return ChainSpace(self, k, weights, blocks, None if keep is None else held)

    # -- the exterior factor ----------------------------------------------------

    def _move_in(self, others: tuple, oranks: list, pos: int, h: int):
        """The monomial `others` (normal form, oranks its generators' ranks)
        with h put in at position pos, normalized: (monomial, number of
        Koszul sign flips), or None when h is even and already present.
        Only h moves, to its sorted place, and each generator it passes
        flips the sign unless both are odd."""
        par = self._parity
        rh = self._rank[h]
        p = bisect_left(oranks, rh)
        between = others[p:pos] if p < pos else others[pos:p]
        if par[h]:
            flips = sum(1 for e in between if not par[e])
        elif p < len(oranks) and oranks[p] == rh:
            return None
        else:
            flips = len(between)
        return others[:p] + (h,) + others[p:], flips

    def _ad_monomial(self, x: tuple, by_gen: dict, index: dict) -> tuple[dict, int]:
        """ad(A_t) on the exterior monomial x, brackets projected to the
        radical, for every A_t that `by_gen` ({generator g: [(t, h, c)]},
        the radical terms c * h of [A_t, g], `_by_gen`) names:
        ({t: {index[monomial]: c}}, parity of x).  A_t picks up the sign
        (-1)^{|A_t||x|} passing x on its way to the module factor.  A
        generator meets only the A_t whose bracket with it is nonzero."""
        par, rank = self._parity, self._rank
        ranks = [rank[g] for g in x]
        out: dict = {}
        prefix = 0          # parity of the generators passed so far
        for pos, g in enumerate(x):
            terms = by_gen[g]
            if terms:
                others, oranks = x[:pos] + x[pos + 1:], ranks[:pos] + ranks[pos + 1:]
                for t, h, c in terms:
                    moved = self._move_in(others, oranks, pos, h)
                    if moved is not None:
                        flips = moved[1] + (1 if prefix and par[t] else 0)
                        _add_term(out.setdefault(t, {}), index[moved[0]],
                                  -c if flips & 1 else c)
            prefix ^= par[g]
        return out, prefix

    def _by_gen(self, ts: list) -> dict:
        """{radical generator g: [(t, h, c)]} for the radical terms c * h
        of [A_t, g] over t in ts."""
        return {g: [(t, h, c) for t in ts for h, c in self._brackets[t, g]]
                for g in self.radical}

    def _ad_rows(self, ts: list, k: int) -> dict:
        """ad(A_t) on every monomial of Lambda^k r for each t in ts, brackets
        projected to the radical: {t: [({position: c}, sign)]} in monomial
        order, sign = (-1)^{|A_t||X|}.  One pass over the monomials serves
        every t (`_ad_monomial`)."""
        monos, index = self.monomials(k)
        by_gen, par = self._by_gen(ts), self._parity
        rows: dict = {t: [] for t in ts}
        for x in monos:
            imgs, odd = self._ad_monomial(x, by_gen, index)
            for t in ts:
                rows[t].append((imgs.get(t, {}), -1 if odd and par[t] else 1))
        return rows

    def _coboundary_terms(self, g0: int) -> list:
        """(z_a, k, c/2) for every radical term c*A_k of [z_a^#, g0]."""
        g = self.algebra
        return [(gen, kidx, _exact(c, 2)) for a, gen in enumerate(self.radical)
                for kidx, c in g.bracket_vec(self.duals[a], {g0: 1}).items()
                if kidx in self.radical_set]

    # -- exterior tables ----------------------------------------------------------
    #
    # A table of an operator C_k -> C_j is a list over the monomials X of
    # Lambda^k r; entry X is {position(Y) * n_ops + o: c}, one term
    # c * Y (x) rho(op_o) of the image of X (x) m, for every m.  op_0 is the
    # identity.

    def _table(self, key: tuple) -> list:
        """The exterior table of lower(k) or raise_(k) for key = ("lower" or
        "raise", k), built from the table one degree down (`_tables`)."""
        name, k = key
        build = self._lower_table if name == "lower" else self._raise_table
        return build(k, self._tables[name, k - 1] if k > 0 else None)

    def _wedge_into(self, row: dict, g0: int, entry: dict, monos: list,
                    index: dict, nops: int, memo: dict) -> None:
        """row -= g0 ^ entry: the terms of `entry` are over `monos`, and
        their products with g0 over `index`, one degree up.  `memo` keeps
        each product g0 ^ monos[t] (g0 moved in by `_move_in`) as
        (position, whether the sign is -1), or None, for the table being
        built."""
        rank = self._rank
        for key, c in entry.items():
            t, o = divmod(key, nops)
            hit = memo.get((g0, t), 0)
            if hit == 0:
                y = monos[t]
                res = self._move_in(y, [rank[e] for e in y], 0, g0)
                hit = memo[g0, t] = None if res is None else (index[res[0]], res[1] & 1)
            if hit is not None:
                _add_term(row, hit[0] * nops + o, c if hit[1] else -c)

    def _lower_table(self, k: int, below: list | None, monos: list | None = None) -> list:
        """Table of d*_k, ops (1, rho(x) for x in the radical), with a row
        for each monomial of `monos` (all of Lambda^k r when None): on
        X = x0 ^ Y,  d*(X (x) m) = -x0.(Y (x) m) - x0 ^ d*(Y (x) m),  where
        x0.(Y (x) m) = ad(x0)Y (x) m + (-1)^{|x0||Y|} Y (x) x0.m.  A row
        reads only `below`, the full table one degree down."""
        if monos is None:
            monos = self.monomials(k)[0]
        if k == 0:
            return [{} for _ in monos]
        nops = 1 + len(self.radical)
        op_of = {x: 1 + a for a, x in enumerate(self.radical)}
        by_gen = {x: self._by_gen([x]) for x in self.radical}
        rest_index = self.monomials(k - 1)[1]
        deeper = self.monomials(k - 2)[0] if k > 1 else []
        table, memo = [], {}
        par = self._parity
        for x in monos:
            x0, y = x[0], x[1:]
            ty = rest_index[y]
            ad, odd = self._ad_monomial(y, by_gen[x0], rest_index)
            row = {z * nops: -c for z, c in ad.get(x0, {}).items()}
            _add_term(row, ty * nops + op_of[x0], 1 if odd and par[x0] else -1)
            self._wedge_into(row, x0, below[ty], deeper, rest_index, nops, memo)
            table.append(row)
        return table

    def _raise_table(self, k: int, below: list | None) -> list:
        """Table of d_k, ops (1, rho(z_a^#) for the radical basis z_a):
        d(1 (x) m) = sum_a z_a (x) z_a^#.m, and on X = x0 ^ Y
        d(X (x) m) = 1/2 sum_a z_a ^ [z_a^#, x0]_r ^ Y (x) m - x0 ^ d(Y (x) m)."""
        nops = 1 + len(self.radical)
        up_index = self.monomials(k + 1)[1]
        if k == 0:
            return [{up_index[(z,)] * nops + 1 + a: 1
                     for a, z in enumerate(self.radical)}]
        monos = self.monomials(k)[0]
        rest_index = self.monomials(k - 1)[1]
        rank = self._rank
        table, memo = [], {}
        for x in monos:
            x0, y = x[0], x[1:]
            yranks = [rank[e] for e in y]
            row: dict = {}
            # z_a ^ (A_j ^ Y): A_j moves into Y, then z_a into that, and
            # the Koszul signs of the two moves multiply
            for z, j, c in self._raise_terms[x0]:
                inner = self._move_in(y, yranks, 0, j)
                if inner is None:
                    continue
                mono, flips = inner
                outer = self._move_in(mono, [rank[e] for e in mono], 0, z)
                if outer is not None:
                    _add_term(row, up_index[outer[0]] * nops,
                              -c if (flips + outer[1]) & 1 else c)
            self._wedge_into(row, x0, below[rest_index[y]], monos, up_index, nops,
                            memo)
            table.append(row)
        return table

    def _rho(self, element: dict | None) -> list:
        """Columns of the module operator rho(element); None is the
        identity."""
        mod = self.module
        if element is None:
            return [{m: 1} for m in range(mod.dim)]
        return [mod.act(element, {m: 1}) for m in range(mod.dim)]

    def _assemble(self, source: ChainSpace, k_dst: int, table: list,
                  ops: list, scale: int = 1) -> ChainMap:
        """The ChainMap source -> C_{k_dst} of sum_o L_o (x) ops[o] / scale,
        given the exterior table of its monomials (one entry per monomial of
        `source`, in order), where ops[o] holds the columns of a module
        operator (ops[0] the identity, see `_rho`): column idx(X) * dim M + m
        is the sum over the terms c * Y (x) op_o of entry X of c times
        op_o v_m shifted to the rows idx(Y) * dim M + r.  Only the columns
        X (x) v_m that `source` holds are formed, as int columns over scale
        times the lcm of the table's coefficients times the lcm of the
        module operators' entries."""
        dim = self.module.dim
        oden = lcm(1, *(v.denominator for cols in ops for col in cols
                        for v in col.values()))
        ocols = [[{r: v.numerator * (oden // v.denominator) for r, v in col.items()}
                  for col in cols] for cols in ops]
        # the nonzero columns of each operator, as (m, [(r, v)])
        nonzero = [[(m, list(col.items())) for m, col in enumerate(cols) if col]
                   for cols in ocols]
        tden = lcm(1, *(c.denominator for entry in table for c in entry.values()))
        nops = len(ops)
        # one int object per target row, shared by every column that has it
        rows = list(range(self.space(k_dst).dim))
        held = (itertools.repeat(range(dim)) if source.held is None
                else (ms for _, ms in source.held))
        icols = []
        for entry, ms in zip(table, held):
            out = {m: {} for m in ms}
            for key, c in entry.items():
                t, o = divmod(key, nops)
                base, c = t * dim, c.numerator * (tden // c.denominator)
                for m, items in nonzero[o]:
                    if m in out:
                        col = out[m]
                        for r, v in items:
                            row = rows[base + r]
                            col[row] = col.get(row, 0) + c * v
            icols.extend({row: v for row, v in col.items() if v} for col in out.values())
        return ChainMap.canonical(source, self.space(k_dst), icols, scale * tden * oden)

    # -- the two operators ------------------------------------------------------

    def lower(self, k: int) -> ChainMap:
        """d*_k : C_k -> C_{k-1}, the boundary,
        d*(X ^ f) = -X.f - X ^ d*(f),  d*|deg 0 = 0 (a map C_0 -> C_0)."""
        if k not in self._lower:
            self._lower[k] = self._lower_on(self.space(k))
        return self._lower[k]

    def lower_at(self, k: int, weights) -> ChainMap:
        """d*_k on the weight blocks `weights` of C_k alone: its source is
        exactly those blocks (`_build_space`), columns in the order C_k has
        them, so the map has the blocks of lower(k) there and no other
        column.  Its exterior table has a row per monomial X of the source,
        formed from the full table of degree k - 1, and nothing is cached
        here: the caller owns the map, and a later lower(k) is built as if
        it never was."""
        return self._lower_on(self._build_space(k, frozenset(weights)))

    def _lower_on(self, source: ChainSpace) -> ChainMap:
        """d*_k on `source`, C_k or a weight restriction of it."""
        k = source.degree
        if source.held is None:
            table = self._tables["lower", k]
        else:
            table = self._lower_table(k, self._tables["lower", k - 1] if k > 0 else None,
                                      [x for x, _ in source.held])
        ops = [self._rho(None), *(self._rho({x: 1}) for x in self.radical)]
        return self._assemble(source, max(k - 1, 0), table, ops)

    def raise_(self, k: int) -> ChainMap:
        """d_k : C_k -> C_{k+1}, the coboundary,
        d(v) = sum_a z_a (x) z_a^# . v,
        d(X ^ f) = 1/2 sum_a z_a ^ [z_a^#, X]_r ^ f - X ^ d(f)."""
        if k not in self._raise:
            ops = [self._rho(None), *map(self._rho, self.duals)]
            self._raise[k] = self._assemble(self.space(k), k + 1,
                                            self._tables["raise", k], ops)
        return self._raise[k]

    # -- the action of one basis element -----------------------------------------

    def action_columns(self, k: int, i: int) -> "_Lazy":
        """Action of the basis element A_i on C_k, ad(A_i) on the exterior
        factor plus (-1)^{|A_i||X|} rho(A_i) on the module, as int columns
        over one den, the lcm of the denominators of A_i's brackets with the
        radical and of rho(A_i): column idx(X) * dim M + m is formed on first
        read from ad(A_i) X (the table `_ad` for a Levi root vector) and
        rho(A_i) v_m.  decompose_levi reads only the Levi simple root
        vectors' columns (LeviModule.act)."""
        dim = self.module.dim
        ad = self._ad[k]
        rows = ad[i] if i in ad else self._ad_rows([i], k)[i]
        rho = self._rho({i: 1})
        den = lcm(1, *(c.denominator for gen in self.radical
                       for _, c in self._brackets[i, gen]),
                  *(v.denominator for col in rho for v in col.values()))

        def column(j):
            t, m = divmod(j, dim)
            img, sgn = rows[t]
            col = {y * dim + m: int(c * den) for y, c in img.items()}
            for r, v in rho[m].items():
                _add_term(col, t * dim + r, int(sgn * v * den))
            return col
        return _Lazy(column, den)

    def action_map(self, k: int, i: int) -> ChainMap:
        """`action_columns(k, i)` collected into one canonical ChainMap, not
        cached: for tests and the benchmark's tracer."""
        cols, sp = self.action_columns(k, i), self.space(k)
        return ChainMap.canonical(sp, sp, [cols[j] for j in range(sp.dim)], cols.den)

    # -- quabla -------------------------------------------------------------------

    def quabla(self, k: int) -> ChainMap:
        """quabla_k = d_{k-1} d*_k + d*_{k+1} d_k on C_k as one ChainMap, the
        columns of `quabla_columns` collected, not cached: for tests and the
        benchmark's tracer.  Kostant's formula gives the same map
        (`casimir_quabla`, compared column by column in
        `CasimirQuabla.agrees`); the two share no recursion, so their
        equality is a cross-check of both."""
        cols, den = self.quabla_columns(k)
        return ChainMap.canonical(self.space(k), self.space(k), list(cols), den)

    def quabla_columns(self, k: int) -> tuple[Iterator, int]:
        """The direct quabla_k = d_{k-1} d*_k + d*_{k+1} d_k one column at a
        time (`_product_columns`); it needs d_k : C_k -> C_{k+1}."""
        pairs = [(self.raise_(k - 1), self.lower(k))] if k > 0 else []
        return _product_columns(pairs + [(self.lower(k + 1), self.raise_(k))])

    def casimir_quabla(self, k: int, weights=None) -> CasimirQuabla:
        """quabla_k by Kostant's formula

            quabla = -1/2 (C2(lambda) + w(h) - C_l)   on the weight-w block,

        with h = sum_a [z_a, z_a^#] and C_l = sum_i A_i A_i^# the Casimir
        of the Levi acting on C_k (A_i over the Levi basis, A_i^# its dual
        in the Levi), built from C_k alone and held in two parts.

        C_l splits along the Levi basis into a sum over the Cartan basis
        and one over the Levi root vectors.  The form is even and invariant,
        so it pairs the Cartan only with itself and g_alpha only with
        g_-alpha: the dual of a Cartan element is in the Cartan, and that of
        a root vector is a combination of root vectors of its parity
        (`_casimir_terms` raises CrossCheckFailed otherwise, and when h is
        not in the Cartan).

        Scalar part.  A Cartan element H acts on the weight-w block by the
        scalar w(H), so sum_H H H^# acts there by sum_H w(H) w(H^#).  Let
        t_w be the Cartan element with (t_w, H) = w(H) for all H; pairing
        with each H shows sum_H w(H) H^# = t_w, so the scalar is
        w(t_w) = (w, w).  With -1/2 (C2(lambda) + w(h)) it makes a
        quadratic form in w whose int coefficients over one denominator are
        formed once per complex; it is held as one int per weight.

        Root part, 1/2 C_l^root on C_k for C_l^root = sum_i A_i A_i^# over
        the Levi root vectors.  Every A acts on X (x) m as
        ad(A)X (x) m + s_A(X) X (x) A m with s_A(X) = (-1)^{|A||X|}.
        Applying A_s and then A_i, both of one parity, gives

            ad(A_i) ad(A_s) X (x) m  +  sum_Y [ad(A_s) X]_Y s_{A_i}(Y) Y (x) A_i m
            +  s_{A_s}(X) ad(A_i) X (x) A_s m  +  X (x) A_i A_s m,

        as s_{A_i}(X) s_{A_s}(X) = 1 in the last term.  Summed over the
        root vectors A_i with A_i^# = sum_s c_is A_s, the last terms make
        X (x) rho(C_l^root) m.  So the root part is one exterior table per
        degree, with ops 1, rho(A_t) and rho(C_l^root), built from the
        exterior actions of `_ad` alone (never from the boundary or
        coboundary recursions) and assembled into a ChainMap like the
        operators.  On a
        Borel the Levi is the Cartan: there is no root part, and quabla is
        the scalar part alone.

        With `weights`, the root part holds those weight blocks and no
        other column: its source is `_build_space(k, weights)`, as in
        `lower_at`, its table has a row only for the monomials of the
        source's pairs, and only those blocks' `rows` can be read."""
        terms = self._casimir_terms
        sp = self.space(k)
        # den times the scalar part per weight: an int, or a Fraction where
        # the weight has a non-integral coordinate
        nums = {w: terms.const + sum(a * w[c] for c, a in terms.linear)
                + sum(b * w[c] * w[d] for c, d, b in terms.quadratic)
                for w in sp.weight_blocks}
        wden = lcm(1, *(v.denominator for v in nums.values()))
        scalar = {w: v.numerator * (wden // v.denominator) for w, v in nums.items()}
        root = None
        if terms.roots:
            source = sp if weights is None else self._build_space(k, frozenset(weights))
            root = self._assemble(source, k, self._casimir_table(k, source.held),
                                  terms.ops, 2 * terms.root_den)
        return CasimirQuabla(sp, scalar, terms.den * wden, root)

    @functools.cached_property
    def _casimir_terms(self) -> "_CasimirTerms":
        """The per-complex data of the Casimir quabla (`casimir_quabla`)."""
        g, p = self.algebra, self.parabolic
        roots = []
        for i, dual in zip(p.levi_indices, p.levi_duals):
            is_h = g.basis[i].is_cartan
            if any(g.basis[s].is_cartan != is_h or g.parity(s) != g.parity(i)
                   for s in dual):
                raise CrossCheckFailed(f"the Levi dual of {g.basis[i].label} "
                                       "leaves its parity or the Cartan")
            if not is_h:
                roots.append((i, dual))
        hvec: dict = {}
        for a, gen in enumerate(self.radical):
            linalg.vec_iadd(hvec, g.bracket_vec({gen: 1}, self.duals[a]))
        if any(not g.basis[i].is_cartan for i in hvec):
            raise CrossCheckFailed("sum [z_a, z_a^#] is not in the Cartan")
        hcoords = [g.eval_weight(tuple(int(c == d) for d in range(g.rank)), hvec)
                   for c in range(g.rank)]
        # the Cartan part of C_l acts on the weight-w block by (w, w), the
        # algebra's form on h* (q / qden on the unit coordinates)
        q, qden = g._weight_form
        # w(h) = (w, sigma), sigma the signed root sum of the radical:
        # 2 rho_l - 2 rho, the premise of Kostant's filter
        # (`homology._casimir_matcher`)
        sigma = [0] * g.rank
        for z in self.radical:
            sign = -1 if self._parity[z] else 1
            sigma = [s + sign * x for s, x in zip(sigma, g.root(z))]
        if any(x * qden != sum(a * b for a, b in zip(row, sigma))
               for x, row in zip(hcoords, q)):
            raise CrossCheckFailed("w(h) is not (w, sigma) for sigma the signed "
                                   "root sum of the radical")
        c2 = casimir_eigenvalue(g, self.module.highest_weight)
        # D * (-1/2 (c2 + w(h) - (w, w))) in int coefficients
        half = lcm(c2.denominator, *(x.denominator for x in hcoords), qden)
        den = 2 * half
        rden = lcm(1, *(c.denominator for _, dual in roots for c in dual.values()))
        mod = self.module
        casimir_cols = []
        for m in range(mod.dim):
            col: dict = {}
            for i, dual in roots:
                linalg.vec_iadd(col, mod.act_basis(i, mod.act(dual, {m: 1})))
            casimir_cols.append(col)
        root_indices = [i for i, _ in roots]
        return _CasimirTerms(
            den=den,
            const=int(-half * c2),
            linear=[(c, int(-half * x)) for c, x in enumerate(hcoords) if x],
            quadratic=[(c, d, half // qden * x) for c, row in enumerate(q)
                       for d, x in enumerate(row) if x],
            roots=[(i, [(s, int(c * rden)) for s, c in dual.items()])
                   for i, dual in roots],
            root_den=rden,
            ops=[self._rho(None), *(self._rho({t: 1}) for t in root_indices),
                 casimir_cols],
        )

    def _casimir_table(self, k: int, held: list | None = None) -> list:
        """Exterior table of root_den * C_l^root on C_k, with ops 1,
        rho(A_t) for the Levi root vectors A_t and rho(C_l^root) (see
        `casimir_quabla`), a row for each monomial X of `held`'s pairs
        (X, ms) (all of Lambda^k r when None), read off `_ad[k]`."""
        terms = self._casimir_terms
        op_of = {t: 1 + o for o, (t, _) in enumerate(terms.roots)}
        nops = len(terms.ops)
        ad = self._ad[k]
        every, index = self.monomials(k)
        table = []
        for tx in range(len(every)) if held is None else (index[x] for x, _ in held):
            row: dict = {tx * nops + nops - 1: terms.root_den}
            for i, dual in terms.roots:
                ad_i = ad[i]
                adx_i = ad_i[tx][0]
                for s, c in dual:
                    adx_s, sgn_s = ad[s][tx]
                    for y, cy in adx_s.items():
                        ady_i, sgn_iy = ad_i[y]
                        for z, cz in ady_i.items():
                            row[z * nops] = row.get(z * nops, 0) + c * cy * cz
                        key = y * nops + op_of[i]
                        row[key] = row.get(key, 0) + c * cy * sgn_iy
                    for y, cy in adx_i.items():
                        key = y * nops + op_of[s]
                        row[key] = row.get(key, 0) + c * sgn_s * cy
            table.append({key: c for key, c in row.items() if c})
        return table


class _CasimirTerms(NamedTuple):
    """Per-complex data of the Casimir quabla.  The scalar on the weight-w
    block is (const + sum_c linear_c w_c + sum_cd quadratic_cd w_c w_d) / den,
    with sum_cd quadratic_cd w_c w_d / den = (w, w) / 2.  roots
    pairs each Levi root vector with root_den times its dual; ops are the
    module columns of 1, rho(A_t) over those root vectors and
    rho(C_l^root)."""

    den: int
    const: int
    linear: list
    quadratic: list
    roots: list
    root_den: int
    ops: list
