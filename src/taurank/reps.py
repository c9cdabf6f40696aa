"""Modules as quiver representations: Hom spaces, simples, projectives,
injectives, covers and envelopes, syzygies, projective dimension.

A representation assigns to every vertex a dimension and to every arrow
a: u -> v a matrix of shape (d_v, d_u).  Modules over a quotient algebra
B = A/I are representations of the parent quiver annihilated by I, which
lets every operation here run unchanged over B.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Ideal
from .fields import QQ, SeedStream
from .linalg import Matrix, _echelon


class Representation:
    """A module; its dims and arrow matrices are never changed once built,
    so its content key (algebra, field name, dims, arrow cells in quiver
    arrow order) is computed once, on first use, and equality and hashing
    are those of the key."""

    __slots__ = ("algebra", "field", "dims", "arrows", "_key")

    def __init__(self, algebra, field, dims, arrows):
        self.algebra = algebra
        self.field = field
        self.dims = tuple(dims)
        if len(self.dims) != algebra.quiver.n:
            raise ValueError("dimension vector length mismatch")
        self.arrows = dict(arrows)
        for a in algebra.quiver.arrows:
            m = self.arrows.get(a.name)
            if m is None:
                m = Matrix.zeros(field, self.dims[a.target - 1], self.dims[a.source - 1])
                self.arrows[a.name] = m
            if m.shape() != (self.dims[a.target - 1], self.dims[a.source - 1]):
                raise ValueError(f"arrow {a.name} matrix has wrong shape")
        self._key = None

    @property
    def content_key(self):
        key = self._key
        if key is None:
            # one flat tuple: the dims fix every arrow's shape
            cells = tuple(itertools.chain.from_iterable(
                row for a in self.algebra.quiver.arrows for row in self.arrows[a.name].rows))
            key = self._key = (self.algebra, self.field.name, self.dims, cells)
        return key

    @property
    def dim_total(self):
        return sum(self.dims)

    def is_zero(self):
        return self.dim_total == 0

    def vertex_dim(self, v):
        return self.dims[v - 1]

    def __eq__(self, other):
        return isinstance(other, Representation) and other.content_key == self.content_key

    def __hash__(self):
        return hash(self.content_key)

    def __repr__(self):
        return f"Rep{self.dims}"


class Morphism:
    __slots__ = ("source", "target", "maps")

    def __init__(self, source, target, maps):
        self.source = source
        self.target = target
        self.maps = dict(maps)
        for v in source.algebra.quiver.vertices:
            m = self.maps.get(v)
            if m is None:
                raise ValueError(f"vertex {v} has no map")
            if m.shape() != (target.vertex_dim(v), source.vertex_dim(v)):
                raise ValueError(f"vertex {v} map has wrong shape")

    def rank(self):
        return sum(m.rank() for m in self.maps.values())

    def compose(self, first):
        """self after first; ValueError unless first ends where self starts."""
        if first.target is not self.source and first.target != self.source:
            raise ValueError("composition through different modules")
        return Morphism(
            first.source,
            self.target,
            {v: self.maps[v] * first.maps[v] for v in self.maps},
        )

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def zero_rep(algebra, field=QQ):
    return Representation(algebra, field, (0,) * algebra.quiver.n, {})


# -- the action of algebra elements ----------------------------------------


def act_word(m: Representation, word, source=None):
    """Matrix of a path word acting M_source -> M_target."""
    if not word:
        d = m.vertex_dim(source)
        return Matrix.identity(m.field, d)
    mat = None
    for name in reversed(word):
        step = m.arrows[name]
        mat = step if mat is None else step * mat
    return mat


def act_element(x, m: Representation):
    """Block matrix of a sparse algebra element acting on the total space."""
    alg, f = m.algebra, m.field
    total = m.dim_total
    offsets = {}
    off = 0
    for v in alg.quiver.vertices:
        offsets[v] = off
        off += m.vertex_dim(v)
    out = [[f.zero] * total for _ in range(total)]
    for k, c in x.items():
        b = alg.basis[k]
        coeff = f.from_fraction(c)
        blk = act_word(m, b.word, b.source)
        ro, co = offsets[b.target], offsets[b.source]
        for i, brow in enumerate(blk.rows):
            row = out[ro + i]
            for j, y in enumerate(brow):
                if y:
                    row[co + j] += coeff * y
    return Matrix(f, out, total)


def annihilates(ideal, m: Representation):
    """Whether every element of the ideal acts as zero on M, a module over
    the ideal's algebra."""
    return all(act_element(row, m).is_zero() for row in ideal.rows)


def check_relations(m: Representation):
    """Assert relations of the presentation and, for quotient algebras,
    the defining ideal all act as zero."""
    alg = m.algebra
    for v in alg.quiver.vertices:
        if v not in alg.idempotent_index and m.vertex_dim(v) != 0:
            raise AssertionError(f"vertex {v} is dead in this algebra but has dim > 0")
    for rel in alg.root().relations:
        coeffs = [m.field.from_fraction(c) for c, _ in rel.terms]
        mats = [act_word(m, word) for _, word in rel.terms]
        # each cell of the relation's action, summed over its terms
        cells = [[sum(c * x for c, x in zip(coeffs, cell)) for cell in zip(*rows)]
                 for rows in zip(*(x.rows for x in mats))]
        if mats and not Matrix(m.field, cells, mats[0].ncols).is_zero():
            raise AssertionError("representation violates a defining relation")
    while alg.parent is not None:
        over_parent = Representation(alg.parent, m.field, m.dims, m.arrows)
        if not annihilates(alg.parent_ideal, over_parent):
            raise AssertionError("representation is not annihilated by the ideal")
        alg = alg.parent
    return True


# -- standard modules -------------------------------------------------------


def simple(algebra, i, field=QQ):
    if i not in algebra.idempotent_index:
        raise ValueError(f"vertex {i} has no simple over this algebra")
    dims = tuple(1 if v == i else 0 for v in algebra.quiver.vertices)
    return Representation(algebra, field, dims, {})


def projective(algebra, i, field=QQ):
    """P(i) = A e_i; its basis at vertex v is paths(i, v), in that order."""
    if i not in algebra.idempotent_index:
        raise ValueError(f"vertex {i} has no projective over this algebra")
    dims = algebra.dims_of_projective(i)
    arrows = {}
    for a in algebra.quiver.arrows:
        ncols = dims[a.source - 1]
        cells = [[field.zero] * ncols for _ in range(dims[a.target - 1])]
        row_of = {k: r for r, k in enumerate(algebra.paths(i, a.target))}
        for col, k in enumerate(algebra.paths(i, a.source)):
            for k2, c in algebra.arrow_left_mult(a.name, k).items():
                if k2 not in row_of:
                    raise AssertionError("projective arrow image left its block")
                cells[row_of[k2]][col] = field.from_fraction(c)
        arrows[a.name] = Matrix(field, cells, ncols)
    return Representation(algebra, field, dims, arrows)


def dual_rep(m: Representation):
    """D(M) over the opposite algebra (transposed arrow matrices)."""
    op = m.algebra.opposite()
    return Representation(
        op, m.field, m.dims, {name: mat.transpose() for name, mat in m.arrows.items()}
    )


def dual_morphism(f: Morphism):
    return Morphism(
        dual_rep(f.target), dual_rep(f.source),
        {v: f.maps[v].transpose() for v in f.maps},
    )


def injective(algebra, i, field=QQ):
    """I(i) = D of the opposite-algebra projective at i; soc I(i) = S(i).
    That projective is the realization of e_i over A^op, which is built
    once per algebra and field."""
    op = algebra.opposite()
    if i not in op.idempotent_index:
        raise ValueError(f"vertex {i} has no injective over this algebra")
    mults = tuple(int(v == i) for v in op.quiver.vertices)
    return dual_rep(ProjRealization(op, mults, field).rep)


def _check_same_base(m: Representation, n: Representation):
    """ValueError unless M and N share a quiver and a field."""
    if m.algebra is not n.algebra and m.algebra.quiver is not n.algebra.quiver:
        raise ValueError("representations over different algebras")
    if m.field.name != n.field.name:
        raise ValueError(
            f"representations over different fields ({m.field.name}, {n.field.name})")


def direct_sum(reps):
    """The direct sum, over the summands' algebra, or over the common root
    of their algebras when these differ (ValueError when there is none):
    each arrow matrix is a `Matrix.block_sum` with one group per side."""
    reps = list(reps)
    if not reps:
        raise ValueError("empty direct sum; use zero_rep")
    for r in reps[1:]:
        _check_same_base(reps[0], r)
    alg, f = reps[0].algebra, reps[0].field
    if any(r.algebra is not alg for r in reps):
        alg = alg.root()
        if any(r.algebra.root() is not alg for r in reps):
            raise ValueError("summands over algebras with no common root")
    dims = tuple(map(sum, zip(*[r.dims for r in reps])))
    arrows = {
        a.name: Matrix.block_sum(f, [(m, [m.nrows], [m.ncols])
                                     for m in (r.arrows[a.name] for r in reps)])
        for a in alg.quiver.arrows
    }
    return Representation(alg, f, dims, arrows)


# -- Hom spaces --------------------------------------------------------------


def _hom_rows(m: Representation, n: Representation):
    """(rows, offsets, nvars): the constraints F_v M_a = N_a F_u on the
    intertwiners f: M -> N as sparse rows {unknown: coefficient}, with the
    unknowns F_v[r][j] stacked per vertex from offsets[v].  An unknown
    whose two terms cancel (on a loop) is left out, and so is a row left
    empty."""
    _check_same_base(m, n)
    q = m.algebra.quiver
    p = m.field.characteristic
    offsets, nvars = {}, 0
    for v, dm, dn in zip(q.vertices, m.dims, n.dims):
        offsets[v] = nvars
        nvars += dn * dm
    rows = []
    for a in q.arrows:
        u, v = a.source, a.target
        ma, na = m.arrows[a.name].rows, n.arrows[a.name].rows
        dmv, dmu = m.dims[v - 1], m.dims[u - 1]
        # row r, column c: sum_j F_v[r][j] M_a[j][c] - sum_i N_a[r][i] F_u[i][c]
        ma_cols = [[(j, row[c]) for j, row in enumerate(ma) if row[c]] for c in range(dmu)]
        na_rows = [[(offsets[u] + i * dmu, -x % p if p else -x) for i, x in enumerate(row) if x]
                   for row in na]
        for r, na_row in enumerate(na_rows):
            fv = offsets[v] + r * dmv
            for c, ma_col in enumerate(ma_cols):
                row = {fv + j: x for j, x in ma_col}
                for k, y in na_row:
                    k += c
                    y += row.pop(k, 0)
                    if p:
                        y %= p
                    if y:
                        row[k] = y
                if row:
                    rows.append(row)
    return rows, offsets, nvars


def hom_basis(m: Representation, n: Representation):
    rows, offsets, nvars = _hom_rows(m, n)
    z = m.field.zero
    dense = [[row.get(k, z) for k in range(nvars)] for row in rows]
    kernel = Matrix(m.field, dense, nvars).kernel_basis()
    out = []
    for vec in kernel:
        maps = {}
        for v in m.algebra.quiver.vertices:
            dn, dm = n.vertex_dim(v), m.vertex_dim(v)
            o = offsets[v]
            maps[v] = Matrix(m.field, [vec[o + r * dm : o + (r + 1) * dm] for r in range(dn)], dm)
        out.append(Morphism(m, n, maps))
    return out


def hom_dim(m: Representation, n: Representation):
    rows, _, nvars = _hom_rows(m, n)
    return nvars - len(_echelon(m.field, rows)[1])


# -- kernels and cokernels ---------------------------------------------------


def _free_columns(vectors):
    """The free column of each `Matrix.kernel_basis` vector, its last
    nonzero: these columns are coordinates on the span of the vectors."""
    return [max(j for j, x in enumerate(vec) if x) for vec in vectors]


def kernel(f: Morphism):
    """(K, inclusion K -> source).

    K_v has the basis `kernel_basis` of f_v, so an arrow a: u -> v of K is
    M_a K_u read at the free rows of v."""
    m = f.source
    alg, fl = m.algebra, m.field
    bases = {v: f.maps[v].kernel_basis() for v in alg.quiver.vertices}
    cols = {v: Matrix.from_columns(fl, bases[v], m.vertex_dim(v)) for v in bases}
    arrows = {}
    for a in alg.quiver.arrows:
        image = m.arrows[a.name] * cols[a.source]
        if not (f.maps[a.target] * image).is_zero():
            raise AssertionError("kernel is not arrow-stable")
        free = _free_columns(bases[a.target])
        arrows[a.name] = Matrix(fl, [image.rows[j] for j in free], image.ncols)
    dims = tuple(len(bases[v]) for v in alg.quiver.vertices)
    k = Representation(alg, fl, dims, arrows)
    return k, Morphism(k, m, cols)


def _quotient(n: Representation, spans):
    """(N/S, projection N -> N/S) for the submodule S spanned at each
    vertex v by the columns of spans[v]: the projection's rows are
    `kernel_basis` of spans[v] transposed, its free coordinates section it,
    and an arrow of N/S is the projection of the arrow's free columns."""
    alg, fl = n.algebra, n.field
    rows = {v: spans[v].transpose().kernel_basis() for v in alg.quiver.vertices}
    projs = {v: Matrix(fl, rows[v], n.vertex_dim(v)) for v in rows}
    arrows = {}
    for a in alg.quiver.arrows:
        free = _free_columns(rows[a.source])
        cols = Matrix(fl, [[row[j] for j in free] for row in n.arrows[a.name].rows], len(free))
        arrows[a.name] = projs[a.target] * cols
    dims = tuple(len(rows[v]) for v in alg.quiver.vertices)
    q = Representation(alg, fl, dims, arrows)
    return q, Morphism(n, q, projs)


def cokernel(f: Morphism):
    """(Coker f, projection target -> coker)."""
    return _quotient(f.target, f.maps)


# -- the radical --------------------------------------------------------------


def radical_span(m: Representation, v):
    """The arrow matrices into v side by side; rad M_v is their column span."""
    parts = [m.arrows[a.name] for a in m.algebra.quiver.arrows if a.target == v]
    return Matrix.hstack(m.field, parts, nrows=m.vertex_dim(v))


# -- projective realizations and covers ---------------------------------------


class ProjRealization:
    """Explicit model of a direct sum of indecomposable projectives.

    Summands s = (i, copy) are ordered by ascending vertex i, then copy.
    The one layout: basis path k of summand s at vertex v sits at
    offsets[s][v] + (position of k in algebra.paths(i, v)), so the basis
    at each vertex is the concatenation of the summands' path bases, and
    runs[v] lists the sizes m_i·|paths(i, v)| of the runs of each type i.
    """

    def __init__(self, algebra, mults, field=QQ):
        self.algebra = algebra
        self.field = field
        self.mults = tuple(mults)
        if len(self.mults) != algebra.quiver.n:
            raise ValueError("multiplicity vector length mismatch")
        for v in algebra.quiver.vertices:
            if self.mults[v - 1] and v not in algebra.idempotent_index:
                raise ValueError(f"vertex {v} has no projective over this algebra")
        self.summands = [
            (i, c)
            for i in algebra.quiver.vertices
            for c in range(self.mults[i - 1])
        ]
        # Q and F_p never share a rep; all F_p objects of one prime do
        key = (self.mults, field.name)
        parts = algebra.realization_cache.get(key)
        if parts is None:
            parts = _realization_parts(algebra, self.summands, field)
            algebra.realization_cache[key] = parts
        self.rep, self.offsets, self.runs = parts
        self.total_dim = self.rep.dim_total


def _realization_parts(algebra, summands, field):
    """(rep, offsets, runs) of the sum of the projectives P(i) over the
    summands (i, copy); shared by every realization of the same sum, so
    none may be mutated."""
    if summands:
        projs = {i: projective(algebra, i, field) for i, _ in summands}
        rep = direct_sum([projs[i] for i, _ in summands])
    else:
        rep = zero_rep(algebra, field)
    # offsets[s][v]: column offset of summand s inside vertex block v
    offsets, runs = [], {v: [0] * algebra.quiver.n for v in algebra.quiver.vertices}
    off = {v: 0 for v in algebra.quiver.vertices}
    for i, _ in summands:
        offsets.append(dict(off))
        for v in off:
            off[v] += len(algebra.paths(i, v))
            runs[v][i - 1] += len(algebra.paths(i, v))
    return rep, offsets, runs


@dataclass
class ProjCover:
    realization: ProjRealization
    epi: Morphism


def projective_cover(m: Representation):
    """Minimal projective cover P0 -> M.

    The generators are unit vectors, taken greedily per vertex v in
    ascending vertex order: e_p, for p in coordinate order, is kept when it
    is not in rad M_v + span(e_q : q < p).  These p are the pivot columns
    of [R | I] beyond R = radical_span(m, v), which one forward elimination
    finds; they span a complement of rad M_v and give the multiplicities of
    top M.  Summand order follows the generators, and P(v) sends the basis
    path k to column p of the matrix by which k acts on M."""
    alg, fl = m.algebra, m.field
    mults, gens = [], []  # gens[s] = p: summand s is generated by e_p
    for v in alg.quiver.vertices:
        rad = radical_span(m, v)
        pivots = Matrix.hstack(fl, [rad, Matrix.identity(fl, m.vertex_dim(v))]).pivot_columns()
        tops = [p - rad.ncols for p in pivots if p >= rad.ncols]
        mults.append(len(tops))
        gens += tops
    real = ProjRealization(alg, tuple(mults), fl)
    cols = {v: [] for v in alg.quiver.vertices}  # in the realization's layout
    acts = {}  # basis index -> matrix of its action, shared by every summand
    for s, p in enumerate(gens):
        i, _ = real.summands[s]
        for v in alg.quiver.vertices:
            for k in alg.paths(i, v):
                if k not in acts:
                    b = alg.basis[k]
                    acts[k] = act_word(m, b.word, b.source)
                cols[v].append([x[p] for x in acts[k].rows])
    maps = {v: Matrix.from_columns(fl, cols[v], m.vertex_dim(v)) for v in alg.quiver.vertices}
    epi = Morphism(real.rep, m, maps)
    for v in alg.quiver.vertices:
        if epi.maps[v].rank() != m.vertex_dim(v):
            raise AssertionError("projective cover map is not surjective")
    return ProjCover(real, epi)


def injective_envelope_mults(m: Representation):
    """(E, mono M -> E, k) via the opposite-algebra projective cover, where
    E is the sum of k[j - 1] copies of I(j) over the vertices j."""
    cover = projective_cover(dual_rep(m))
    # the dual of the epi P -> D M, with D D M = M (DD = id on matrices)
    env = dual_rep(cover.epi.source)
    mono = Morphism(m, env, {v: mat.transpose() for v, mat in cover.epi.maps.items()})
    return env, mono, cover.realization.mults


def cover_kernel(m: Representation):
    """(cover P0 -> M, its kernel K, inclusion K -> P0)."""
    cover = scoped(projective_cover, m)
    return (cover, *kernel(cover.epi))


def syzygy(m: Representation):
    return scoped(cover_kernel, m)[1]


# -- the analysis cache --------------------------------------------------------

# Each thread's analyses, keyed by module content (`content_key`): an LRU
# of at most ANALYSES_KEPT modules, each entry mapping (function, *further
# arguments) -> value.  An equal module built anew reads the same entry,
# and a derived module (a syzygy, tau M, D M, M over A/ann M) gets an
# entry of its own.  A context variable, so threads never share one, and
# its memory stays bounded by ANALYSES_KEPT modules' analyses.
ANALYSES_KEPT = 64
_analyses = ContextVar("taurank_analyses", default=None)


def scoped(fn, obj, *args):
    """fn(obj, *args), computed once per module content and value of the
    further (hashable) arguments while obj's content is among the last
    ANALYSES_KEPT modules this thread read; a call that raises keeps
    nothing for itself."""
    cache = _analyses.get()
    if cache is None:
        cache = OrderedDict()
        _analyses.set(cache)
    key = obj.content_key
    entry = cache.get(key)
    if entry is None:
        entry = cache[key] = {}
        if len(cache) > ANALYSES_KEPT:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    call = (fn, *args)
    if call not in entry:
        entry[call] = fn(obj, *args)
    return entry[call]


# -- invariants ----------------------------------------------------------------


@dataclass(frozen=True)
class ProjDim:
    kind: str  # "finite" | "infinite" | "unknown"
    value: int | None = None
    detail: str = ""

    def le(self, bound):
        return self.kind == "finite" and self.value <= bound

    def __str__(self):
        if self.kind == "finite":
            return str(self.value)
        if self.kind == "infinite":
            return "infinite"
        return self.detail or "unknown"

    def to_json(self):
        return {"kind": self.kind, "value": self.value, "detail": self.detail}


PD_ISO_SEED = 7  # iso_test compares a syzygy with syzygy i under seed PD_ISO_SEED + i
ISO_TRIALS = 8  # random Hom combinations iso_test tries before its small grid
PD_GROWTH_GUARD = 600  # proj_dim gives up once a syzygy's total dimension exceeds this


def proj_dim(m: Representation, cap: int = 10) -> ProjDim:
    """Projective dimension by iterated minimal syzygies.

    Finite when some syzygy vanishes; certified infinite when a later
    syzygy is isomorphic to a multiple of an earlier nonzero one (then
    the syzygy orbit can never die); otherwise ">= cap".
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if m.is_zero():
        return ProjDim("finite", 0)
    history = [m]
    cur = m
    for step in range(1, cap + 2):
        cur = syzygy(cur)
        if cur.is_zero():
            return ProjDim("finite", step - 1)
        for i, old in enumerate(history):
            if old.dim_total == 0:
                continue
            if cur.dim_total % old.dim_total == 0:
                t = cur.dim_total // old.dim_total
                if t >= 1 and cur.dims == tuple(t * d for d in old.dims):
                    candidate = old if t == 1 else direct_sum([old] * t)
                    if iso_test(cur, candidate, seed=PD_ISO_SEED + i):
                        return ProjDim(
                            "infinite",
                            detail=f"syzygy {step} is isomorphic to {t} copies of syzygy {i}",
                        )
        history.append(cur)
        if cur.dim_total > PD_GROWTH_GUARD:
            return ProjDim("unknown", detail=f">= {cap} (syzygy growth)")
    return ProjDim("unknown", detail=f">= {cap}")


def iso_test(m: Representation, n: Representation, seed: int = 7):
    """Randomized isomorphism test: ISO_TRIALS random Hom combinations
    checked for invertibility, with an exhaustive small-grid fallback when
    the Hom space has at most 6 parameters."""
    if m.algebra is not n.algebra or m.dims != n.dims:
        return False
    if m.dim_total == 0:
        return True
    basis = hom_basis(m, n)
    if not basis:
        return False

    def invertible(coeffs):
        for v in m.algebra.quiver.vertices:
            d = m.vertex_dim(v)
            if d == 0:
                continue
            terms = [(c, g.maps[v].rows) for c, g in zip(coeffs, basis) if c]
            acc = [[sum(c * rows[i][j] for c, rows in terms) for j in range(d)]
                   for i in range(d)]
            if Matrix(m.field, acc, d).rank() != d:
                return False
        return True

    rng = SeedStream(seed)
    f = m.field
    for _ in range(ISO_TRIALS):
        coeffs = [f.from_int(rng.randint(-9, 9)) for _ in basis]
        if invertible(coeffs):
            return True
    if len(basis) <= 6:
        grid = [f.from_int(x) for x in (-1, 0, 1, 2)]
        for coeffs in itertools.product(grid, repeat=len(basis)):
            if invertible(list(coeffs)):
                return True
    return False


def annihilator(m: Representation) -> Ideal:
    """I_M = {a in A : aM = 0}, as a (two-sided) ideal of M's algebra A."""
    algebra = m.algebra
    if m.field.characteristic != 0:
        raise ValueError("annihilator ideals are computed over Q only")
    # a row per cell of the total space, of that cell in each basis action
    acts = [act_element({k: Fraction(1)}, m).rows for k in range(algebra.dim)]
    total = range(m.dim_total)
    rows = [[act[i][j] for act in acts] for i in total for j in total]
    kernel = Matrix(QQ, rows, algebra.dim).kernel_basis()
    return Ideal(algebra, [dict(enumerate(v)) for v in kernel], closed=True)
