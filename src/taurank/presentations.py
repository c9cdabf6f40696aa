"""Two-complexes of projectives, minimal presentations, the maximal rank
of Hom(P1, P0), and the additivity scanner.

The maximal rank r(P1, P0) is estimated by sampling random coefficient
vectors in the structured Hom basis (one basis morphism per path residue
between summands) and certified by the dimension bound (the term rank
of the generic morphism), the symbolic oracle (fraction-free elimination
on it, one indeterminate per Hom-basis element) or the cancellation of
the common summand min(P1, P0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, itemgetter, mul

from .fields import QQ, SeedStream
from .linalg import Matrix, _term_rank
from .polyrank import ORACLE_MAX_DIM, OracleBudgetError, Poly, PolyMatrix, poly_rank
from .reps import (
    Morphism,
    ProjRealization,
    Representation,
    cokernel,
    cover_kernel,
    projective_cover,
    scoped,
)

COEFF_BOUND = 1000  # sampled coefficients lie in [-COEFF_BOUND, COEFF_BOUND]
BUILT_KEPT = 64  # morphisms a HomSpace keeps, which bounds a long trial run's memory


@dataclass(frozen=True)
class ProjDecomp:
    """Multiplicity vector of a direct sum of indecomposable projectives."""

    mults: tuple

    def __post_init__(self):
        if any(m < 0 for m in self.mults):
            raise ValueError("negative multiplicity")

    def scale(self, t):
        return ProjDecomp(tuple(t * m for m in self.mults))

    def sub(self, other):
        out = tuple(a - b for a, b in zip(self.mults, other.mults))
        if any(x < 0 for x in out):
            raise ValueError(f"negative multiplicity in {self.mults} - {other.mults}")
        return ProjDecomp(out)

    def is_zero(self):
        return all(m == 0 for m in self.mults)

    def total_dim(self, algebra):
        return sum(
            m * sum(algebra.dims_of_projective(i))
            for i, m in zip(algebra.quiver.vertices, self.mults)
            if m
        )


class HomSpace:
    """Structured basis of Hom(⊕P(i)^m1, ⊕P(j)^m0).

    Item (s1, s0, x) is the morphism sending the generator e_i of source
    summand s1 = (i, _) to the path residue x in paths(j, i) of target
    summand s0 = (j, _), i.e. right multiplication by x into summand s0.
    Both realizations use the one layout of `ProjRealization`, and the
    cells number the entries of all vertex blocks row-major, one block
    after the other.  An item adds c times its coefficient to each of its
    cells, and its coefficient itself is the cell of its generator's
    image.  One template per (source type, target type), kept on the
    algebra (`_hom_template`), places the items of one copy of P(i) into
    one copy of P(j); each further copy of P(j) moves the cells
    len(paths(j, v)) rows on in block v.

    `_hom_tables` counts the items and builds their generator cells and
    the gather plan in one pass, with no per-item tuple (`items` lists
    them on demand, for the Nakayama functor); the plan is the one
    description of the family, read by `morphism_from_coeffs` and by
    `generic_vertex_matrices` alike.  Per
    cell the plan holds the item whose coefficient lands there, or the
    padding index -1 when none does, and its c; a cell that takes more
    than one item keeps its first there and the others in a correction
    list.  A morphism is then one index gather, one product per cell when
    some c is not 1, and over F_p one reduction: of the coefficients when
    every cell is one of them, else of the cells.

    The first BUILT_KEPT morphisms built are kept by their coefficient
    tuples and handed back for equal coefficients, so the witness that
    `generic_rank` rebuilds is its trial's morphism, with the rank memos.
    No code writes a built morphism, so sharing one is safe.
    """

    def __init__(self, r1: ProjRealization, r0: ProjRealization):
        self.r1 = r1
        self.r0 = r0
        self.algebra = alg = r1.algebra
        self.field = f = r1.field
        # the tables depend on the pair and the field only, and a scan level
        # builds its pair twice (combine_complexes, then generic_rank); one
        # read of the memo, so a concurrent replacement cannot mix two pairs
        key = (r1.mults, r0.mults, f.name)
        tables = alg.hom_tables
        if tables is None or tables[0] != key:
            tables = alg.hom_tables = (key, *_hom_tables(r1, r0))
        _, self.dim, self._gen_cells, self._plan = tables
        self._built = {}

    @property
    def items(self):
        """The items (s1, s0, x) in coefficient order, listed afresh on
        each read: the tables keep only their number."""
        alg = self.algebra
        return [(s1, s, x)
                for s1, (i, _) in enumerate(self.r1.summands)
                for j, s0, m0 in _target_types(self.r0)
                for s in range(s0, s0 + m0)
                for x in _hom_template(alg, i, j)[0]]

    def morphism_from_coeffs(self, coeffs):
        """The morphism Σ coeffs[k] · item k, built once per coefficient
        tuple (ValueError unless one per item).  A non-int coefficient goes
        through `field.from_fraction`; over Q a cell is an `int` unless a
        non-integral coefficient or c makes it a `Fraction`, over F_p the
        cells are reduced here, once."""
        built = self._built.get(key := tuple(coeffs))
        if built is not None:
            return built
        if len(coeffs) != self.dim:
            raise ValueError(f"{len(coeffs)} coefficients for a Hom space of dimension {self.dim}")
        _, gather, mults, extra, row_getter, spans = self._plan
        f = self.field
        p = f.characteristic
        coeffs = [*coeffs, 0]  # index -1 is the padding zero
        if set(map(type, coeffs)) != {int}:
            coeffs = [c if type(c) is int else f.from_fraction(c) for c in coeffs]
        if p and mults is None and not extra:
            # every cell is one coefficient, so reducing those reduces the cells
            coeffs = [c % p for c in coeffs]
            p = 0
        cells = gather(coeffs)
        cells = list(map(mul, cells, mults)) if mults else list(cells)
        for cell, item, c in extra:
            cells[cell] += coeffs[item] * c
        if p:
            cells = [x % p for x in cells]
        rows = row_getter(cells)
        maps = {v: Matrix.adopt(f, list(rows[a:b]), ncols) for v, a, b, ncols in spans}
        built = Morphism(self.r1.rep, self.r0.rep, maps)
        if len(self._built) < BUILT_KEPT:
            self._built[key] = built
        return built

    def coeffs_of_morphism(self, fmor: Morphism):
        """Coordinates of a morphism in this basis, read off the source
        generators (valid for any module morphism between the realizations)."""
        flat = [c for v in self.algebra.quiver.vertices for row in fmor.maps[v].rows for c in row]
        return [flat[cell] for cell in self._gen_cells]

    def sample_coeffs(self, rng: SeedStream, bound=COEFF_BOUND):
        return self.field.sample(rng, bound, self.dim)

    def generic_vertex_matrices(self):
        """Per-vertex PolyMatrix of the generic morphism, one variable per
        item: each cell is the plan's item times its c, plus its corrections."""
        src, _, mults, extra, _, spans = self._plan
        n = self.dim
        cells = [Poly.variable(n, k, mults[cell] if mults else 1) if k >= 0 else Poly(n)
                 for cell, k in enumerate(src)]
        for cell, k, c in extra:
            cells[cell] += Poly.variable(n, k, c)
        out, at = {}, 0
        for v, a, b, ncols in spans:
            out[v] = PolyMatrix(b - a, ncols, n, [cells[at + r * ncols : at + (r + 1) * ncols]
                                                  for r in range(b - a)])
            at += (b - a) * ncols
        return out


def _target_types(r0):
    """(j, first summand of type j, its number of copies) per target type j."""
    return [(j, s0, r0.mults[j - 1]) for s0, (j, c0) in enumerate(r0.summands) if not c0]


def _hom_tables(r1, r0):
    """(dimension, generator cells, gather plan) of Hom(r1, r0), as
    `HomSpace` describes them.  The plan is (per cell its item or -1,
    gather, multipliers or None when every c is 1, corrections, row slicer,
    per vertex (v, first row, end row, ncols)); both getters take two
    padding places more, so they return a tuple even for zero or one cell
    or row, and the extra values are never read."""
    alg, f = r1.algebra, r1.field
    first, row_slices, spans, ncells = {}, [], [], 0
    for v in alg.quiver.vertices:
        nrows, ncols = r0.rep.vertex_dim(v), r1.rep.vertex_dim(v)
        first[v] = (ncells, ncols)
        spans.append((v, len(row_slices), len(row_slices) + nrows, ncols))
        row_slices += [slice(ncells + r * ncols, ncells + (r + 1) * ncols) for r in range(nrows)]
        ncells += nrows * ncols
    types0 = _target_types(r0)
    dim, gen_cells, src, mults, extra = 0, [], [-1] * ncells, None, []
    for s1, (i, _) in enumerate(r1.summands):
        off1 = r1.offsets[s1]
        for j, s0, m0 in types0:
            xs, gen_col, entries, dups, unit = _hom_template(alg, i, j)
            if not xs:
                continue
            start, nx, off0 = dim, len(xs), r0.offsets[s0]
            dim += m0 * nx
            # the coefficient of item start + k is the cell at row
            # off0[i] + k, column off1[i] + gen_col of block i
            at, ncols = first[i]
            at += off0[i] * ncols + off1[i] + gen_col
            gen_cells += range(at, at + m0 * nx * ncols, ncols)
            if not unit and mults is None:
                mults = [1] * ncells
            for group in (entries, dups):
                for v, r, col, px, c, wj in group:
                    # the cell for the first copy of P(j); each further copy
                    # moves it wj rows, and its item nx places
                    at, ncols = first[v]
                    at += (off0[v] + r) * ncols + off1[v] + col
                    rstep, item = wj * ncols, start + px
                    if type(c) is not int:
                        c = f.from_fraction(c)
                    if group is dups:
                        extra += [(at + c0 * rstep, item + c0 * nx, c) for c0 in range(m0)]
                        continue
                    src[at : at + m0 * rstep : rstep] = range(item, item + m0 * nx, nx)
                    if not unit:
                        mults[at : at + m0 * rstep : rstep] = [c] * m0
    pad = slice(0, 0)
    plan = (src, itemgetter(*src, -1, -1), mults, extra, itemgetter(*row_slices, pad, pad), spans)
    return dim, gen_cells, plan


def _hom_template(alg, i, j):
    """Hom(P(i), P(j)) between one copy of each, in the coordinates of
    the vertex blocks of P(i) and P(j): (xs, gen_col, entries, dups,
    unit), kept in `Algebra.hom_templates`.  Item px sends e_i to the path
    xs[px] of paths(j, i), which sits at row px, column gen_col of block i.
    An entry (v, r, col, px, c, wj) says that item px adds c times its
    coefficient at row r, column col of block v, whose rows number
    wj = len(paths(j, v)); c is an int when integral, else a Fraction.
    entries hold the first entry at each place, dups the further ones in
    item order, and unit says whether every c in entries is 1.  This is
    the one reader of `Algebra.right_mult_blocks`: the gather plan, and
    through it the oracle's matrices, and the cover bound's support all
    come from the templates."""
    template = alg.hom_templates.get((i, j))
    if template is None:
        xs = alg.paths(j, i)
        entries, dups, seen = [], [], set()
        for px, x in enumerate(xs):
            for v, triples in alg.right_mult_blocks(i, x).items():
                wj = len(alg.paths(j, v))
                for r, col, c in triples:
                    (dups if (v, r, col) in seen else entries).append((v, r, col, px, c, wj))
                    seen.add((v, r, col))
        gen_col = alg.paths(i, i).index(alg.idempotent_index[i])
        unit = all(e[4] == 1 for e in entries)
        template = alg.hom_templates[i, j] = (xs, gen_col, entries, dups, unit)
    return template


def cover_upper_bound(hs: HomSpace):
    """Certified upper bound for the maximal rank: the term rank of the
    generic morphism (`_support_term_rank`), at most min(dim P1, dim P0)
    and at most any cover of its nonzero cells by rows and columns.

    The support of (g·P1, g·P0) is that of (P1, P0) with every line
    repeated g times, so by König its term rank is g times as large; one
    value per primitive pair (multiplicities with gcd 1) is kept in
    `Algebra.cover_bounds`.  It reads only hs.algebra, hs.r1 and hs.r0."""
    m1, m0 = hs.r1.mults, hs.r0.mults
    g = math.gcd(*m1, *m0)
    if not g:
        return 0
    alg = hs.algebra
    key = (tuple(m // g for m in m1), tuple(m // g for m in m0))
    bound = alg.cover_bounds.get(key)
    if bound is None:
        bound, rest = divmod(_support_term_rank(hs), g)
        if rest:
            raise AssertionError("a g-fold pair's term rank is not g times its primitive pair's")
        alg.cover_bounds[key] = bound
    return g * bound


def _support_term_rank(hs):
    """The term rank of the generic morphism of Hom(P1, P0): per vertex,
    the cells that some item of some summand pair reaches (the entries of
    `_hom_template`), then `linalg._term_rank` of that support."""
    alg, r1, r0 = hs.algebra, hs.r1, hs.r0
    support = {v: [[0] * r1.rep.vertex_dim(v) for _ in range(r0.rep.vertex_dim(v))]
               for v in alg.quiver.vertices}
    for (i, _), off1 in zip(r1.summands, r1.offsets):
        for (j, _), off0 in zip(r0.summands, r0.offsets):
            for v, r, col, *_ in _hom_template(alg, i, j)[2]:
                support[v][off0[v] + r][off1[v] + col] = 1
    return sum(map(_term_rank, support.values()))


@dataclass
class TwoComplex:
    """A morphism P1 -> P0 between explicit projective direct sums: a map
    of the Hom space between their realizations."""

    hom: HomSpace
    map: Morphism

    @property
    def algebra(self):
        return self.hom.algebra

    @property
    def p1(self):
        return ProjDecomp(self.hom.r1.mults)

    @property
    def p0(self):
        return ProjDecomp(self.hom.r0.mults)

    @property
    def coeffs(self):
        return self.hom.coeffs_of_morphism(self.map)

    def rank(self):
        return self.map.rank()


def realize_pair(algebra, p1: ProjDecomp, p0: ProjDecomp, field=QQ):
    r1 = ProjRealization(algebra, p1.mults, field)
    r0 = ProjRealization(algebra, p0.mults, field)
    return HomSpace(r1, r0)


def complex_from_coeffs(algebra, p1, p0, coeffs, field=QQ):
    hs = realize_pair(algebra, p1, p0, field)
    return TwoComplex(hs, hs.morphism_from_coeffs(coeffs))


def _from_zero(r0: ProjRealization) -> TwoComplex:
    """The zero map 0 -> P0 into the realization r0."""
    alg = r0.algebra
    hs = HomSpace(ProjRealization(alg, (0,) * alg.quiver.n, r0.field), r0)
    return TwoComplex(hs, hs.morphism_from_coeffs([]))


def min_presentation(m: Representation) -> TwoComplex:
    """Minimal projective presentation P1 -> P0 -> M -> 0.

    P0 covers M, P1 covers the kernel of the cover; the composite map
    lands in rad P0 and its cokernel has the dimension vector of M
    (both asserted)."""
    if m.is_zero():
        alg = m.algebra
        return _from_zero(ProjRealization(alg, (0,) * alg.quiver.n, m.field))
    cover0, k, incl = scoped(cover_kernel, m)
    if k.is_zero():
        return _from_zero(cover0.realization)
    cover1 = scoped(projective_cover, k)
    cx = TwoComplex(HomSpace(cover1.realization, cover0.realization), incl.compose(cover1.epi))
    _assert_minimal(cx, m)
    return cx


def _assert_minimal(cx: TwoComplex, m: Representation):
    """AssertionError unless the map lands in rad P0 and its cokernel has
    the dimension vector of M.  rad P0 is every coordinate of P0's layout
    but e_i, at vertex i, of each summand of type i: the first, as the
    basis is length-graded."""
    r0 = cx.hom.r0
    for (i, _), off in zip(r0.summands, r0.offsets):
        if any(cx.map.maps[i].rows[off[i]]):
            raise AssertionError("presentation map does not land in rad P0")
    for v in m.algebra.quiver.vertices:
        # cokernel dims: dim P0_v - rank(map_v)
        got = r0.rep.vertex_dim(v) - cx.map.maps[v].rank()
        if got != m.vertex_dim(v):
            raise AssertionError("presentation cokernel has wrong dimension vector")


@dataclass
class GenericRankResult:
    value: int
    witness: TwoComplex
    method: str | None  # "dimension-bound" | "oracle" | "cancellation" | None when not certified
    upper_bound: int

    @property
    def certified(self):
        return self.method is not None


def generic_rank(
    algebra,
    p1: ProjDecomp,
    p0: ProjDecomp,
    trials: int = 8,
    seed: int = 42,
    extra_samples=(),
    field=QQ,
    oracle_max_params: int = 12,
) -> GenericRankResult:
    """Maximal rank r(P1, P0) over Hom(P1, P0).

    Trial i draws its coefficients from split i of the master seed; the
    reported witness is the lowest-index trial attaining the maximum,
    or the best extra sample when that is strictly better; an extra sample
    must be a morphism from the realization of P1 to that of P0 over
    `field` (ValueError if not).  Certified by the first upper bound that
    the value attains: the dimension bound (`cover_upper_bound`), the
    oracle (`_oracle_bound`), or cancellation, where Q = min(P1, P0) and
    value - dim Q attains either one of (P1 - Q, P0 - Q), as r(P1, P0) =
    r(P1 - Q, P0 - Q) + dim Q.  The reduced pair is never sampled."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    hs = realize_pair(algebra, p1, p0, field)
    master = SeedStream(seed)
    value = 0
    witness_coeffs = None
    for t in range(trials):
        coeffs = hs.sample_coeffs(master.split(t), COEFF_BOUND)
        rk = hs.morphism_from_coeffs(coeffs).rank()
        if rk > value or witness_coeffs is None:
            value, witness_coeffs = rk, coeffs
    best_extra = None
    for f in extra_samples:
        if (f.source, f.target) != (hs.r1.rep, hs.r0.rep):
            raise ValueError("an extra sample is not a morphism from the realization of P1 "
                             "to that of P0")
        rk = f.rank()
        if rk > value:
            value = rk
            best_extra = f
    if best_extra is not None:
        witness_coeffs = hs.coeffs_of_morphism(best_extra)

    upper = cover_upper_bound(hs)
    method = None
    if value == upper:
        method = "dimension-bound"
    elif (oracle := _oracle_bound(hs, oracle_max_params)) is not None:
        if oracle < value:
            raise AssertionError("symbolic oracle below an attained rank; this must not happen")
        if oracle > value:
            # astronomically unlucky sampling; escalate once
            for t in range(trials, 4 * trials + 8):
                coeffs = hs.sample_coeffs(master.split(t), 10 * COEFF_BOUND)
                rk = hs.morphism_from_coeffs(coeffs).rank()
                if rk > value:
                    value, witness_coeffs = rk, coeffs
                if value == oracle:
                    break
        if value == oracle:
            method = "oracle"
    q = ProjDecomp(tuple(map(min, p1.mults, p0.mults)))
    if method is None and not q.is_zero():
        reduced = realize_pair(algebra, p1.sub(q), p0.sub(q), field)
        rest = value - q.total_dim(algebra)
        if rest == cover_upper_bound(reduced) or rest == _oracle_bound(reduced, oracle_max_params):
            method = "cancellation"
    return GenericRankResult(
        value=value,
        witness=TwoComplex(hs, hs.morphism_from_coeffs(witness_coeffs)),
        method=method,
        upper_bound=upper,
    )


def _oracle_bound(hs: HomSpace, max_params):
    """The symbolic oracle's r(P1, P0), or None over F_p, past max_params
    Hom parameters or `ORACLE_MAX_DIM`, or over its term budget."""
    if (hs.field.characteristic or hs.dim > max_params
            or max(hs.r1.total_dim, hs.r0.total_dim) > ORACLE_MAX_DIM):
        return None
    try:
        return sum(poly_rank(pm) for pm in hs.generic_vertex_matrices().values())
    except OracleBudgetError:
        return None


def combine_complexes(ca: TwoComplex, cb: TwoComplex) -> TwoComplex:
    """Block-diagonal sum of two complexes over the summed decompositions,
    expressed in the canonical realization of the sum.

    Each vertex matrix of the sum is placed by `Matrix.block_sum`, grouped
    by the runs of each projective type (`ProjRealization.runs`): the
    sum's run of a type is ca's run followed by cb's.  Both are ranked
    first, so every block has a rank memo and the sum memoizes the sum of
    theirs.  The coefficients are read off the generators, and the
    morphism they assemble must be the placed one."""
    if ca.algebra is not cb.algebra:
        raise ValueError("complexes over different algebras")
    alg, field = ca.algebra, ca.hom.field
    if field.name != cb.hom.field.name:
        raise ValueError(f"complexes over different fields ({field.name}, {cb.hom.field.name})")
    m1 = tuple(map(add, ca.hom.r1.mults, cb.hom.r1.mults))
    m0 = tuple(map(add, ca.hom.r0.mults, cb.hom.r0.mults))
    hs = HomSpace(ProjRealization(alg, m1, field), ProjRealization(alg, m0, field))
    rank_a, rank_b = ca.rank(), cb.rank()
    maps = {
        v: Matrix.block_sum(field, [(cx.map.maps[v], cx.hom.r0.runs[v], cx.hom.r1.runs[v])
                                    for cx in (ca, cb)])
        for v in alg.quiver.vertices
    }
    fmap = Morphism(hs.r1.rep, hs.r0.rep, maps)
    if hs.morphism_from_coeffs(hs.coeffs_of_morphism(fmap)).maps != fmap.maps:
        raise AssertionError("the block sum is not a morphism of the summed Hom space")
    out = TwoComplex(hs, fmap)
    if out.rank() != rank_a + rank_b:
        raise AssertionError("block-diagonal rank failed to add")
    return out


@dataclass
class RankScanReport:
    p1: ProjDecomp
    p0: ProjDecomp
    r_values: list
    methods: list
    seed: int
    trials: int
    field_name: str = "Q"

    @property
    def t_max(self):
        return len(self.r_values)

    @property
    def violations(self):
        """Every t >= 2 whose value exceeds t * r(P1, P0)."""
        r = self.r_values
        return [t for t in range(2, len(r) + 1) if r[t - 1] > t * r[0]]

    @property
    def certified(self):
        return [m is not None for m in self.methods]

    def to_json(self):
        return {
            "p1": list(self.p1.mults),
            "p0": list(self.p0.mults),
            "t_max": self.t_max,
            "r": list(self.r_values),
            "certified": list(self.certified),
            "methods": list(self.methods),
            "violations": list(self.violations),
            "seed": self.seed,
            "trials": self.trials,
            "field": self.field_name,
        }


def additivity_scan(
    algebra,
    p1: ProjDecomp,
    p0: ProjDecomp,
    t_max: int = 4,
    trials: int = 8,
    seed: int = 42,
    field=QQ,
    oracle_max_params: int = 12,
) -> RankScanReport:
    """Scan r(P1^t, P0^t) for t = 1..t_max and flag every t whose value
    exceeds t * r(P1, P0).

    Each level t seeds its estimate with the block-diagonal sum of the
    best witness at t-1 and the best witness at 1, so the reported
    sequence is superadditive by construction."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    master = SeedStream(seed)
    r_values, methods = [], []
    for t in range(1, t_max + 1):
        extra = [combine_complexes(prev, w1).map] if t > 1 else []
        res = generic_rank(
            algebra,
            p1.scale(t),
            p0.scale(t),
            trials=trials,
            seed=master.split(t).seed,
            extra_samples=extra,
            field=field,
            oracle_max_params=oracle_max_params,
        )
        r_values.append(res.value)
        methods.append(res.method)
        prev = res.witness
        if t == 1:
            w1 = prev
    return RankScanReport(p1=p1, p0=p0, r_values=r_values, methods=methods, seed=seed,
                          trials=trials, field_name=field.name)


def random_presentation(algebra, rng: SeedStream, max_total_dim=9, field=QQ):
    """Random two-complex with dim P0 bounded; the workhorse behind
    random module generation (every module is a cokernel)."""
    n = algebra.quiver.n
    live = [i for i in algebra.vertices]
    for attempt in range(64):
        sub = rng.split(attempt)
        m0 = [0] * n
        m1 = [0] * n
        for i in live:
            m0[i - 1] = sub.randint(0, 2)
            m1[i - 1] = sub.randint(0, 2)
        p0 = ProjDecomp(tuple(m0))
        p1 = ProjDecomp(tuple(m1))
        if p0.is_zero() or p0.total_dim(algebra) > max_total_dim:
            continue
        if p1.total_dim(algebra) > 3 * max_total_dim:
            continue
        hs = realize_pair(algebra, p1, p0, field)
        return TwoComplex(hs, hs.morphism_from_coeffs(hs.sample_coeffs(sub, 9)))
    raise RuntimeError("could not draw a random presentation")


def random_module(algebra, rng: SeedStream, max_total_dim=9, field=QQ):
    for attempt in range(64):
        cx = random_presentation(rng=rng.split(attempt), algebra=algebra,
                                 max_total_dim=max_total_dim, field=field)
        m, _ = cokernel(cx.map)
        if 0 < m.dim_total <= max_total_dim:
            return m
    raise RuntimeError("could not draw a random module")
