"""Two-complexes of projectives, minimal presentations, the maximal rank
of Hom(P1, P0), presentation reduction, and the additivity scanner.

The maximal rank r(P1, P0) is estimated by sampling random coefficient
vectors in the structured Hom basis (one basis morphism per path residue
between summands) and certified either by a covering dimension bound or
by the symbolic oracle: fraction-free elimination on the generic
intertwiner with one indeterminate per Hom-basis element.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .fields import QQ, SeedStream
from .linalg import Matrix
from .polyrank import ORACLE_MAX_DIM, OracleBudgetError, Poly, PolyMatrix, poly_rank
from .reps import (
    Morphism,
    ProjRealization,
    Representation,
    cokernel,
    cover_kernel,
    projective_cover,
    radical_span,
    scoped,
)

COEFF_BOUND = 1000  # sampled coefficients lie in [-COEFF_BOUND, COEFF_BOUND]


@dataclass(frozen=True)
class ProjDecomp:
    """Multiplicity vector of a direct sum of indecomposable projectives."""

    mults: tuple

    def __post_init__(self):
        if any(m < 0 for m in self.mults):
            raise ValueError("negative multiplicity")

    @staticmethod
    def zero(n):
        return ProjDecomp((0,) * n)

    def scale(self, t):
        return ProjDecomp(tuple(t * m for m in self.mults))

    def __add__(self, other):
        return ProjDecomp(tuple(a + b for a, b in zip(self.mults, other.mults)))

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
    after the other.  Per item the tables hold the (cell, c) entries it
    adds, c an int when integral and reduced when not over F_p, and the
    cell of its generator's image, which holds its coefficient.  They are
    built from one template per (source type, target type), whose cells
    each summand pair shifts by offsets0[s0][v]·ncols_v + offsets1[s1][v]
    in block v.
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
            shapes, first, ncells = [], {}, 0
            for v in alg.quiver.vertices:
                nrows, ncols = r0.rep.vertex_dim(v), r1.rep.vertex_dim(v)
                shapes.append((v, ncells, nrows, ncols))
                first[v] = (ncells, ncols)
                ncells += nrows * ncols
            # target summands by type; summands are ordered by type, so
            # walking the groups in order keeps the items in order
            by_type = {}
            for s0, (j, _) in enumerate(r0.summands):
                by_type.setdefault(j, []).append(s0)
            templates = {
                (i, j): _hom_template(alg, f, first, i, j)
                for i in {i for i, _ in r1.summands} for j in by_type
            }
            items, cells, gen_cells = [], [], []
            for s1, (i, _) in enumerate(r1.summands):
                off1 = r1.offsets[s1]
                for j, group in by_type.items():
                    verts, per_x = templates[i, j]
                    if not per_x:
                        continue
                    for s0 in group:
                        # block v of summand pair (s1, s0) starts off0[v] rows
                        # and off1[v] columns in
                        off0 = r0.offsets[s0]
                        shift = [off0[v] * ncols + off1[v] for v, ncols in verts]
                        for x, gen_cell, rel in per_x:
                            items.append((s1, s0, x))
                            cells.append([(shift[k] + cell, c) for k, cell, c in rel])
                            gen_cells.append(shift[0] + gen_cell)
            tables = alg.hom_tables = (key, items, cells, gen_cells, shapes, ncells)
        _, self.items, self._cells, self._gen_cells, self._shapes, self._ncells = tables
        self.dim = len(self.items)

    def morphism_from_coeffs(self, coeffs):
        f = self.field
        rational = f.characteristic == 0
        acc = [0] * self._ncells
        for coeff, entries in zip(coeffs, self._cells):
            if not coeff:
                continue
            # integral coefficients are accumulated as ints
            if rational and coeff.denominator == 1:
                coeff = coeff.numerator
            for cell, c in entries:
                acc[cell] += coeff * c
        # Matrix reduces F_p cells; over Q the int or Fraction cells are
        # field elements already
        maps = {}
        for v, at, nrows, ncols in self._shapes:
            rows = [acc[at + r * ncols : at + (r + 1) * ncols] for r in range(nrows)]
            maps[v] = Matrix(f, rows, ncols)
        return Morphism(self.r1.rep, self.r0.rep, maps)

    def coeffs_of_morphism(self, fmor: Morphism):
        """Coordinates of a morphism in this basis, read off the source
        generators (valid for any module morphism between the realizations)."""
        flat = [c for v, _, _, _ in self._shapes for row in fmor.maps[v].rows for c in row]
        return [flat[cell] for cell in self._gen_cells]

    def sample_coeffs(self, rng: SeedStream, bound=COEFF_BOUND):
        return [self.field.sample(rng, bound) for _ in self.items]

    def generic_vertex_matrices(self):
        """Per-vertex PolyMatrix of the generic morphism, one variable per item."""
        nvars = self.dim
        out = {}
        for v in self.algebra.quiver.vertices:
            out[v] = PolyMatrix.zeros(
                self.r0.rep.vertex_dim(v), self.r1.rep.vertex_dim(v), nvars
            )
        for t, (s1, s0, x) in enumerate(self.items):
            i, _ = self.r1.summands[s1]
            for v, triples in self.algebra.right_mult_blocks(i, x).items():
                coff = self.r1.offsets[s1][v]
                roff = self.r0.offsets[s0][v]
                pm = out[v]
                for r, col, c in triples:
                    pm.entries[roff + r][coff + col] = pm.entries[roff + r][
                        coff + col
                    ] + Poly.variable(nvars, t, c)
        return out


def _hom_template(alg, f, first, i, j):
    """The items of Hom(P(i), P(j)) inside a HomSpace whose vertex block v
    starts at cell first[v][0] and has first[v][1] columns, for the
    summands at offset 0: (verts, per_x).  verts lists (v, columns of
    block v) for vertex i first, then for the vertices the items touch;
    per path x in paths(j, i), per_x holds (x, its generator's cell,
    [(k, cell, c)]), k indexing verts and c as `HomSpace` keeps it."""
    at, ncols_i = first[i]
    gen_col = alg.paths(i, i).index(alg.idempotent_index[i])
    slot, per_x = {i: 0}, []  # slot: vertex -> its index in verts
    for px, x in enumerate(alg.paths(j, i)):
        rel = []
        for v, triples in alg.right_mult_blocks(i, x).items():
            k = slot.setdefault(v, len(slot))
            base, ncols = first[v]
            rel += [(k, base + r * ncols + col, c) for r, col, c in triples]
        if f.characteristic:
            rel = [(k, cell, c if type(c) is int else f.from_fraction(c)) for k, cell, c in rel]
        per_x.append((x, at + px * ncols_i + gen_col, rel))
    return [(v, first[v][1]) for v in slot], per_x


def cover_upper_bound(hs: HomSpace):
    """Certified upper bound for the maximal rank: per vertex, minimize
    (rows kept) + (cols kept) over block covers of the nonzero blocks.
    The full-row and full-column covers make this at least as sharp as
    min(dim P1, dim P0).

    Which blocks are nonzero depends only on which projective types occur,
    and every cover's cost scales with the multiplicities, so the bound of
    (g·P1, g·P0) is g times that of (P1, P0).  One value per primitive
    pair (multiplicities with gcd 1) is kept in `Algebra.cover_bounds`."""
    m1, m0 = hs.r1.mults, hs.r0.mults
    g = math.gcd(*m1, *m0)
    if not g:
        return 0
    alg = hs.algebra
    key = (tuple(m // g for m in m1), tuple(m // g for m in m0))
    bound = alg.cover_bounds.get(key)
    if bound is None:
        bound = alg.cover_bounds[key] = _block_cover_bound(alg, *key)
    return g * bound


def _block_cover_bound(alg, mults1, mults0):
    """The block-cover bound of `cover_upper_bound` for Hom(P1, P0) with
    these multiplicities, computed afresh."""
    # per vertex: the (source type i, target type j) with a nonzero block
    support = {v: set() for v in alg.quiver.vertices}
    for i in alg.quiver.vertices:
        for j in alg.quiver.vertices:
            if mults1[i - 1] and mults0[j - 1]:
                for x in alg.paths(j, i):
                    for v in alg.right_mult_blocks(i, x):
                        support[v].add((i, j))
    total = 0
    for v in alg.quiver.vertices:
        col_types = sorted({i for i, _ in support[v]})
        row_types = sorted({j for _, j in support[v]})
        col_dim = {i: mults1[i - 1] * len(alg.paths(i, v)) for i in col_types}
        row_dim = {j: mults0[j - 1] * len(alg.paths(j, v)) for j in row_types}
        best = None
        for csub in itertools.chain.from_iterable(
            itertools.combinations(col_types, r) for r in range(len(col_types) + 1)
        ):
            cset = set(csub)
            rneeded = {j for (i, j) in support[v] if i not in cset}
            cost = sum(col_dim[i] for i in cset) + sum(row_dim[j] for j in rneeded)
            if best is None or cost < best:
                best = cost
        total += best or 0
    return total


@dataclass
class TwoComplex:
    """A morphism P1 -> P0 between explicit projective direct sums."""

    p1: ProjDecomp
    p0: ProjDecomp
    hom: HomSpace
    map: Morphism
    coeffs: list

    @property
    def algebra(self):
        return self.hom.algebra

    def rank(self):
        return self.map.rank()

    def is_zero_complex(self):
        return self.p1.is_zero() and self.p0.is_zero()


def realize_pair(algebra, p1: ProjDecomp, p0: ProjDecomp, field=QQ):
    r1 = ProjRealization(algebra, p1.mults, field)
    r0 = ProjRealization(algebra, p0.mults, field)
    return HomSpace(r1, r0)


def complex_from_coeffs(algebra, p1, p0, coeffs, field=QQ, hom=None):
    hs = hom or realize_pair(algebra, p1, p0, field)
    return TwoComplex(p1, p0, hs, hs.morphism_from_coeffs(coeffs), list(coeffs))


def zero_complex(algebra, field=QQ):
    n = algebra.quiver.n
    p = ProjDecomp.zero(n)
    hs = realize_pair(algebra, p, p, field)
    return TwoComplex(p, p, hs, hs.morphism_from_coeffs([]), [])


def min_presentation(m: Representation) -> TwoComplex:
    """Minimal projective presentation P1 -> P0 -> M -> 0.

    P0 covers M, P1 covers the kernel of the cover; the composite map
    lands in rad P0 and its cokernel has the dimension vector of M
    (both asserted)."""
    alg = m.algebra
    if m.is_zero():
        return zero_complex(alg, m.field)
    cover0, k, incl = scoped(cover_kernel, m)
    p0 = ProjDecomp(cover0.mults)
    if k.is_zero():
        p1 = ProjDecomp.zero(alg.quiver.n)
        hs = HomSpace(ProjRealization(alg, p1.mults, m.field), cover0.realization)
        return TwoComplex(p1, p0, hs, hs.morphism_from_coeffs([]), [])
    cover1 = scoped(projective_cover, k)
    p1 = ProjDecomp(cover1.mults)
    fmap = incl.compose(cover1.epi)
    hs = HomSpace(cover1.realization, cover0.realization)
    fmap = Morphism(cover1.realization.rep, cover0.realization.rep, fmap.maps)
    coeffs = hs.coeffs_of_morphism(fmap)
    cx = TwoComplex(p1, p0, hs, fmap, coeffs)
    _assert_minimal(cx, m)
    return cx


def _assert_minimal(cx: TwoComplex, m: Representation):
    for v in m.algebra.quiver.vertices:
        rad = radical_span(cx.hom.r0.rep, v)
        if Matrix.hstack(m.field, [rad, cx.map.maps[v]]).rank() != rad.rank():
            raise AssertionError("presentation map does not land in rad P0")
        # cokernel dims: dim P0_v - rank(map_v)
        got = cx.hom.r0.rep.vertex_dim(v) - cx.map.maps[v].rank()
        if got != m.vertex_dim(v):
            raise AssertionError("presentation cokernel has wrong dimension vector")


@dataclass
class GenericRankResult:
    value: int
    witness: TwoComplex
    certified: bool
    method: str | None  # "oracle" | "dimension-bound" | None
    params: int
    upper_bound: int
    trials: int
    seed: int

    def to_json(self):
        return {
            "value": self.value,
            "certified": self.certified,
            "method": self.method,
            "params": self.params,
            "upper_bound": self.upper_bound,
            "trials": self.trials,
            "seed": self.seed,
            "witness_rank": self.witness.rank() if self.witness else None,
        }


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
    or the best extra sample when that is strictly better.  Certified
    when the covering dimension bound is attained or when the symbolic
    oracle ran and agreed."""
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
        rk = f.rank()
        if rk > value:
            value = rk
            best_extra = f
    if best_extra is not None:
        witness_coeffs = hs.coeffs_of_morphism(best_extra)

    upper = cover_upper_bound(hs)
    certified = False
    method = None
    if value == upper:
        certified, method = True, "dimension-bound"
    elif (
        field.characteristic == 0
        and hs.dim <= oracle_max_params
        and hs.r1.total_dim <= ORACLE_MAX_DIM
        and hs.r0.total_dim <= ORACLE_MAX_DIM
    ):
        try:
            oracle_value = sum(poly_rank(pm) for pm in hs.generic_vertex_matrices().values())
        except OracleBudgetError:
            oracle_value = None
        if oracle_value is not None:
            if oracle_value < value:
                raise AssertionError(
                    "symbolic oracle below an attained rank; this must not happen"
                )
            if oracle_value > value:
                # astronomically unlucky sampling; escalate once
                for t in range(trials, 4 * trials + 8):
                    coeffs = hs.sample_coeffs(master.split(t), 10 * COEFF_BOUND)
                    rk = hs.morphism_from_coeffs(coeffs).rank()
                    if rk > value:
                        value, witness_coeffs = rk, coeffs
                    if value == oracle_value:
                        break
            if value == oracle_value:
                certified, method = True, "oracle"
    witness = TwoComplex(p1, p0, hs, hs.morphism_from_coeffs(witness_coeffs), witness_coeffs)
    return GenericRankResult(
        value=value,
        witness=witness,
        certified=certified,
        method=method,
        params=hs.dim,
        upper_bound=upper,
        trials=trials,
        seed=seed,
    )


def _summand_positions(summed, side, shift):
    """Index in the realization `summed` of each summand (i, c) of the
    realization `side`, whose copies sit shift[i - 1] places up in `summed`."""
    where = {s: n for n, s in enumerate(summed.summands)}
    return [where[i, c + shift[i - 1]] for i, c in side.summands]


def combine_complexes(ca: TwoComplex, cb: TwoComplex) -> TwoComplex:
    """Block-diagonal sum of two complexes over the summed decompositions,
    expressed in the canonical realization of the sum."""
    if ca.algebra is not cb.algebra:
        raise ValueError("complexes over different algebras")
    alg = ca.algebra
    field = ca.hom.field
    p1 = ca.p1 + cb.p1
    p0 = ca.p0 + cb.p0
    hs = realize_pair(alg, p1, p0, field)
    position = {item: n for n, item in enumerate(hs.items)}
    coeffs = [field.zero] * hs.dim
    no_shift = (0,) * alg.quiver.n
    for cx, shift1, shift0 in ((ca, no_shift, no_shift), (cb, ca.p1.mults, ca.p0.mults)):
        at1 = _summand_positions(hs.r1, cx.hom.r1, shift1)
        at0 = _summand_positions(hs.r0, cx.hom.r0, shift0)
        for coeff, (s1, s0, x) in zip(cx.coeffs, cx.hom.items):
            coeffs[position[at1[s1], at0[s0], x]] = coeff
    out = TwoComplex(p1, p0, hs, hs.morphism_from_coeffs(coeffs), coeffs)
    if out.rank() != ca.rank() + cb.rank():
        raise AssertionError("block-diagonal rank failed to add")
    return out


def direct_sum_complex(cx: TwoComplex, t: int) -> TwoComplex:
    """t-fold block-diagonal sum of a complex; rank multiplies by t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if t == 1:
        return cx
    out = cx
    # every step asserts that the ranks add, so the rank is t * cx.rank()
    for _ in range(t - 1):
        out = combine_complexes(out, cx)
    return out


def reduce_presentation(cx: TwoComplex):
    """Split a two-complex as (minimal presentation of its cokernel)
    ⊕ (P -> P identity) ⊕ (P' -> 0); returns
    (c_min, dim of the identity part, zero part decomposition)."""
    m, _ = cokernel(cx.map)
    c_min = min_presentation(m)
    id_part = cx.p0.sub(c_min.p0)
    zero_part = cx.p1.sub(c_min.p1).sub(id_part)
    dim_identity = id_part.total_dim(cx.algebra)
    if cx.rank() != c_min.rank() + dim_identity:
        raise AssertionError("presentation reduction broke the rank identity")
    return c_min, dim_identity, zero_part


@dataclass
class RankScanReport:
    p1: ProjDecomp
    p0: ProjDecomp
    t_max: int
    r_values: list
    certified: list
    methods: list
    violations: list
    seed: int
    trials: int
    field_name: str = "Q"

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
    r_values, certified, methods = [], [], []
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
        certified.append(res.certified)
        methods.append(res.method)
        prev = res.witness
        if t == 1:
            w1 = prev
    violations = [t for t in range(2, t_max + 1) if r_values[t - 1] > t * r_values[0]]
    return RankScanReport(
        p1=p1,
        p0=p0,
        t_max=t_max,
        r_values=r_values,
        certified=certified,
        methods=methods,
        violations=violations,
        seed=seed,
        trials=trials,
        field_name=field.name,
    )


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
        coeffs = hs.sample_coeffs(sub, 9)
        return complex_from_coeffs(algebra, p1, p0, coeffs, field, hom=hs)
    raise RuntimeError("could not draw a random presentation")


def random_module(algebra, rng: SeedStream, max_total_dim=9, field=QQ):
    for attempt in range(64):
        cx = random_presentation(rng=rng.split(attempt), algebra=algebra,
                                 max_total_dim=max_total_dim, field=field)
        m, _ = cokernel(cx.map)
        if 0 < m.dim_total <= max_total_dim:
            return m
    raise RuntimeError("could not draw a random module")
