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
from dataclasses import dataclass

from .fields import QQ, SeedStream
from .linalg import Matrix
from .polyrank import OracleBudgetError, Poly, PolyMatrix, poly_rank
from .reps import (
    Morphism,
    ProjRealization,
    Representation,
    cokernel,
    cover_kernel,
    projective_cover,
    radical_span,
    realize,
    scoped,
)

COEFF_BOUND = 1000  # sampled coefficients lie in [-COEFF_BOUND, COEFF_BOUND]
ORACLE_MAX_DIM = 40  # the oracle runs only when dim P1, dim P0 <= this
ORACLE_MAX_TERMS = 60000  # poly_rank's term budget


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

    Item (s1, s0, x) is the morphism sending the generator of source
    summand s1 to the path residue x (an algebra basis element from the
    target summand's vertex to the source summand's vertex), i.e. right
    multiplication by x into summand s0.  Morphisms are assembled by
    scattering coefficient multiples of the algebra's right-multiplication
    blocks into integer cells.
    """

    def __init__(self, r1: ProjRealization, r0: ProjRealization):
        self.r1 = r1
        self.r0 = r0
        self.algebra = alg = r1.algebra
        self.field = r1.field
        # the tables depend on the pair and the field only, and a scan level
        # builds its pair twice (combine_complexes, then generic_rank)
        key = (r1.mults, r0.mults, self.field.name)
        tables = alg.hom_tables
        if tables is None or tables[0] != key:
            # (s0, x) pairs per source summand type
            targets = {
                i: [(s0, x) for s0, (j, _) in enumerate(r0.summands) for x in alg.paths(j, i)]
                for i, _ in r1.summands
            }
            items = [
                (s1, s0, x) for s1, (i, _) in enumerate(r1.summands) for s0, x in targets[i]
            ]
            tables = alg.hom_tables = [key, items, None]
        self._tables = tables
        self.items = tables[1]
        self.dim = len(self.items)

    def _scatter_table(self):
        """Per item, the (cell, c) pairs it adds to; cells number the
        entries of all vertex blocks row-major, one block after the other.
        c is an int when integral; over F_p a non-integral c is reduced."""
        if self._tables[2] is None:
            f, alg, r1, r0 = self.field, self.algebra, self.r1, self.r0
            shapes, first_cell, ncells = [], {}, 0
            for v in alg.quiver.vertices:
                nrows, ncols = r0.rep.vertex_dim(v), r1.rep.vertex_dim(v)
                shapes.append((v, ncells, nrows, ncols))
                first_cell[v] = (ncells, ncols)
                ncells += nrows * ncols
            table = []
            for s1, s0, x in self.items:
                off1, off0 = r1.offsets[s1], r0.offsets[s0]
                entries = []
                for v, triples in alg.right_mult_blocks(r1.summands[s1][0], x).items():
                    base, ncols = first_cell[v]
                    base += off0[v] * ncols + off1[v]
                    entries += [(base + r * ncols + col, c) for r, col, c in triples]
                table.append(entries)
            if f.characteristic:
                table = [
                    [(cell, c if type(c) is int else f.from_fraction(c)) for cell, c in entries]
                    for entries in table
                ]
            self._tables[2] = table, shapes, ncells
        return self._tables[2]

    def morphism_from_coeffs(self, coeffs):
        f = self.field
        rational = f.characteristic == 0
        table, shapes, ncells = self._scatter_table()
        acc = [0] * ncells
        for coeff, entries in zip(coeffs, table):
            if not coeff:
                continue
            # integral coefficients are accumulated as ints
            if rational and coeff.denominator == 1:
                coeff = coeff.numerator
            for cell, c in entries:
                acc[cell] += coeff * c
        # over Q the int (or Fraction) cells are field elements already
        if not rational:
            p = f.p
            acc = [x % p for x in acc]
        maps = {}
        for v, at, nrows, ncols in shapes:
            rows = [acc[at + r * ncols : at + (r + 1) * ncols] for r in range(nrows)]
            maps[v] = Matrix(f, rows, ncols)
        return Morphism(self.r1.rep, self.r0.rep, maps)

    def coeffs_of_morphism(self, fmor: Morphism):
        """Coordinates of a morphism in this basis, read off the source
        generators (valid for any module morphism between the realizations)."""
        f = self.field
        out = []
        rowpos = {}
        for s0 in range(len(self.r0.summands)):
            for v, pairs in self.r0.basis_positions(s0).items():
                for row, k in pairs:
                    rowpos[(s0, k)] = (v, row)
        for (s1, s0, x) in self.items:
            gv, gcol = self.r1.generator_position(s1)
            v, row = rowpos[(s0, x)]
            if v != gv:
                raise AssertionError("generator vertex mismatch in entry extraction")
            out.append(fmor.maps[gv].rows[row][gcol])
        return out

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

    def vertex_block_support(self):
        """Per vertex: set of (source type i, target type j) with a nonzero
        generic block."""
        alg = self.algebra
        support = {v: set() for v in alg.quiver.vertices}
        types1 = [i for i in alg.quiver.vertices if self.r1.mults[i - 1]]
        types0 = [j for j in alg.quiver.vertices if self.r0.mults[j - 1]]
        for i in types1:
            for j in types0:
                for x in alg.paths(j, i):
                    for v in alg.right_mult_blocks(i, x):
                        support[v].add((i, j))
        return support


def cover_upper_bound(hs: HomSpace):
    """Certified upper bound for the maximal rank: per vertex, minimize
    (rows kept) + (cols kept) over block covers of the nonzero blocks.
    The full-row and full-column covers make this at least as sharp as
    min(dim P1, dim P0)."""
    alg = hs.algebra
    support = hs.vertex_block_support()
    total = 0
    for v in alg.quiver.vertices:
        col_types = sorted({i for i, _ in support[v]})
        row_types = sorted({j for _, j in support[v]})
        col_dim = {i: hs.r1.mults[i - 1] * len(alg.paths(i, v)) for i in col_types}
        row_dim = {j: hs.r0.mults[j - 1] * len(alg.paths(j, v)) for j in row_types}
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
    coeffs: list | None = None

    @property
    def algebra(self):
        return self.hom.algebra

    def rank(self):
        return self.map.rank()

    def is_zero_complex(self):
        return self.p1.is_zero() and self.p0.is_zero()


def realize_pair(algebra, p1: ProjDecomp, p0: ProjDecomp, field=QQ):
    r1 = realize(algebra, p1.mults, field)
    r0 = realize(algebra, p0.mults, field)
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
        hs = HomSpace(realize(alg, p1.mults, m.field), cover0.realization)
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
            oracle_value = sum(
                poly_rank(pm, max_dim=ORACLE_MAX_DIM, max_terms=ORACLE_MAX_TERMS)
                for pm in hs.generic_vertex_matrices().values()
            )
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
    witness = TwoComplex(
        p1, p0, hs, hs.morphism_from_coeffs(witness_coeffs or []), witness_coeffs
    ) if witness_coeffs is not None else zero_complex(algebra, field)
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
    if ca.coeffs is None or cb.coeffs is None:
        raise ValueError("combine_complexes needs coefficient coordinates")

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
    w1 = None
    prev = None
    for t in range(1, t_max + 1):
        extra = []
        if prev is not None and w1 is not None:
            extra.append(combine_complexes(prev, w1).map)
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
        if t == 1:
            w1 = res.witness
            prev = res.witness
        else:
            prev = res.witness
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
