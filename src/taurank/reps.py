"""Modules as quiver representations: Hom spaces, simples, projectives,
injectives, covers and envelopes, Ext^1, projective dimension.

A representation assigns to every vertex a dimension and to every arrow
a: u -> v a matrix of shape (d_v, d_u).  Modules over a quotient algebra
B = A/I are representations of the parent quiver annihilated by I, which
lets every operation here run unchanged over B.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Ideal
from .fields import QQ, SeedStream
from .linalg import Matrix


class Representation:
    __slots__ = ("algebra", "field", "dims", "arrows")

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

    @property
    def dim_total(self):
        return sum(self.dims)

    def is_zero(self):
        return self.dim_total == 0

    def vertex_dim(self, v):
        return self.dims[v - 1]

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and other.algebra is self.algebra
            and other.dims == self.dims
            and all(other.arrows[a] == self.arrows[a] for a in self.arrows)
        )

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
                m = Matrix.zeros(source.field, target.vertex_dim(v), source.vertex_dim(v))
                self.maps[v] = m
            if m.shape() != (target.vertex_dim(v), source.vertex_dim(v)):
                raise ValueError(f"vertex {v} map has wrong shape")

    def check_intertwines(self):
        for a in self.source.algebra.quiver.arrows:
            lhs = self.maps[a.target] * self.source.arrows[a.name]
            rhs = self.target.arrows[a.name] * self.maps[a.source]
            if lhs != rhs:
                raise AssertionError(f"morphism fails to intertwine arrow {a.name}")

    def rank(self):
        return sum(m.rank() for m in self.maps.values())

    def is_zero(self):
        return all(m.is_zero() for m in self.maps.values())

    def compose(self, first):
        """self after first."""
        if first.target is not self.source and first.target.dims != self.source.dims:
            raise ValueError("composition shape mismatch")
        return Morphism(
            first.source,
            self.target,
            {v: self.maps[v] * first.maps[v] for v in self.maps},
        )

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def zero_rep(algebra, field=QQ):
    return Representation(algebra, field, (0,) * algebra.quiver.n, {})


def identity_morphism(m: Representation):
    return Morphism(m, m, {v: Matrix.identity(m.field, m.vertex_dim(v))
                           for v in m.algebra.quiver.vertices})


def zero_morphism(source, target):
    return Morphism(source, target, {})


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
    return all(act_element({i: c for i, c in enumerate(row) if c}, m).is_zero()
               for row in ideal.rows)


def check_relations(m: Representation):
    """Assert relations of the presentation and, for quotient algebras,
    the defining ideal all act as zero."""
    alg = m.algebra
    for v in alg.quiver.vertices:
        if v not in alg.idempotent_index and m.vertex_dim(v) != 0:
            raise AssertionError(f"vertex {v} is dead in this algebra but has dim > 0")
    root = alg.root()
    for rel in root.relations:
        acc = None
        for c, word in rel.terms:
            blk = act_word(m, word).scale(m.field.from_fraction(c))
            acc = blk if acc is None else acc + blk
        if acc is not None and not acc.is_zero():
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
    dims = tuple(len(algebra.paths(i, v)) for v in algebra.quiver.vertices)
    arrows = {}
    for a in algebra.quiver.arrows:
        mat = Matrix.zeros(field, dims[a.target - 1], dims[a.source - 1])
        row_of = {k: r for r, k in enumerate(algebra.paths(i, a.target))}
        for col, k in enumerate(algebra.paths(i, a.source)):
            for k2, c in algebra.arrow_left_mult(a.name, k).items():
                if k2 not in row_of:
                    raise AssertionError("projective arrow image left its block")
                mat.rows[row_of[k2]][col] = field.from_fraction(c)
        arrows[a.name] = mat
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
    """I(i) = D of the opposite-algebra projective at i; soc I(i) = S(i)."""
    return dual_rep(projective(algebra.opposite(), i, field))


def direct_sum(reps):
    reps = list(reps)
    if not reps:
        raise ValueError("empty direct sum; use zero_rep")
    alg, f = reps[0].algebra, reps[0].field
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(alg.quiver.n))
    arrows = {
        a.name: Matrix.block_diag(f, [r.arrows[a.name] for r in reps])
        for a in alg.quiver.arrows
    }
    return Representation(alg, f, dims, arrows)


# -- Hom spaces --------------------------------------------------------------


def _hom_system(m: Representation, n: Representation):
    """Constraint matrix for intertwiners f: M -> N, unknowns stacked per vertex."""
    alg, f = m.algebra, m.field
    q = alg.quiver
    offsets = {}
    off = 0
    for v in q.vertices:
        offsets[v] = off
        off += n.vertex_dim(v) * m.vertex_dim(v)
    nvars = off
    rows = []
    zero = f.zero
    for a in q.arrows:
        u, v = a.source, a.target
        ma, na = m.arrows[a.name], n.arrows[a.name]
        dnv, dmu = n.vertex_dim(v), m.vertex_dim(u)
        dmv, dnu = m.vertex_dim(v), n.vertex_dim(u)
        for r in range(dnv):
            for c in range(dmu):
                row = [zero] * nvars
                # (F_v · M_a)[r][c] = sum_j F_v[r][j] M_a[j][c]
                for j in range(dmv):
                    coef = ma.rows[j][c]
                    if coef:
                        row[offsets[v] + r * dmv + j] = coef
                # -(N_a · F_u)[r][c] = -sum_i N_a[r][i] F_u[i][c]
                for i in range(dnu):
                    coef = na.rows[r][i]
                    if coef:
                        row[offsets[u] + i * dmu + c] -= coef
                rows.append(row)
    return Matrix(f, rows, nvars), offsets, nvars


def hom_basis(m: Representation, n: Representation):
    if m.algebra is not n.algebra and m.algebra.quiver is not n.algebra.quiver:
        raise ValueError("representations over different algebras")
    sys_m, offsets, nvars = _hom_system(m, n)
    if nvars == 0:
        return []
    kernel = sys_m.kernel_basis()
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
    sys_m, _, nvars = _hom_system(m, n)
    if nvars == 0:
        return 0
    return nvars - sys_m.rank()


# -- kernels, images, cokernels ----------------------------------------------


def _subrep(m: Representation, cols, what):
    """(S, inclusion S -> M) for the subspaces of M spanned by the columns
    of cols[v] at each vertex v; `what` names S if they are not arrow-stable."""
    alg = m.algebra
    arrows = {}
    for a in alg.quiver.arrows:
        x = cols[a.target].solve_matrix(m.arrows[a.name] * cols[a.source])
        if x is None:
            raise AssertionError(f"{what} is not arrow-stable")
        arrows[a.name] = x
    dims = tuple(cols[v].ncols for v in alg.quiver.vertices)
    sub = Representation(alg, m.field, dims, arrows)
    return sub, Morphism(sub, m, cols)


def kernel(f: Morphism):
    """(K, inclusion K -> source)."""
    m = f.source
    cols = {v: Matrix.from_columns(m.field, f.maps[v].kernel_basis(), m.vertex_dim(v))
            for v in m.algebra.quiver.vertices}
    return _subrep(m, cols, "kernel")


def image(f: Morphism):
    """(Im f, inclusion Im f -> target)."""
    n = f.target
    cols = {v: f.maps[v].column_space_basis() for v in n.algebra.quiver.vertices}
    return _subrep(n, cols, "image")


def cokernel(f: Morphism):
    """(Coker f, projection target -> coker).

    Coordinates of the cokernel are the non-pivot coordinates of the
    image; the projection subtracts the image's reduced echelon rows."""
    n = f.target
    alg, fl = n.algebra, n.field
    projs, sections = {}, {}
    for v in alg.quiver.vertices:
        d = n.vertex_dim(v)
        rref_rows, pivots = f.maps[v].transpose().rref()
        free = [j for j in range(d) if j not in set(pivots)]
        pm = Matrix.zeros(fl, len(free), d)
        sec = Matrix.zeros(fl, d, len(free))
        for fi, j in enumerate(free):
            pm.rows[fi][j] = fl.one
            for ri, p in enumerate(pivots):
                pm.rows[fi][p] = fl.neg(rref_rows.rows[ri][j])
            sec.rows[j][fi] = fl.one
        projs[v], sections[v] = pm, sec
    dims = tuple(projs[v].nrows for v in alg.quiver.vertices)
    arrows = {}
    for a in alg.quiver.arrows:
        arrows[a.name] = projs[a.target] * n.arrows[a.name] * sections[a.source]
    q = Representation(alg, fl, dims, arrows)
    proj = Morphism(n, q, projs)
    return q, proj


# -- radical, top, socle ------------------------------------------------------


def radical_span(m: Representation, v):
    """The arrow matrices into v side by side; rad M_v is their column span."""
    parts = [m.arrows[a.name] for a in m.algebra.quiver.arrows if a.target == v]
    return Matrix.hstack(m.field, parts, nrows=m.vertex_dim(v))


def radical_of(m: Representation):
    """(rad M, inclusion): the span of all arrow images."""
    cols = {v: radical_span(m, v).column_space_basis() for v in m.algebra.quiver.vertices}
    return _subrep(m, cols, "radical")


def top(m: Representation):
    """(top M, projection M -> M/rad M)."""
    _, incl = radical_of(m)
    return cokernel(incl)


def socle(m: Representation):
    """(soc M, inclusion): joint kernel of all arrow maps."""
    alg, fl = m.algebra, m.field
    cols = {}
    for v in alg.quiver.vertices:
        parts = [m.arrows[a.name] for a in alg.quiver.arrows if a.source == v]
        basis = Matrix.vstack(fl, parts, ncols=m.vertex_dim(v)).kernel_basis()
        cols[v] = Matrix.from_columns(fl, basis, m.vertex_dim(v))
    dims = tuple(cols[v].ncols for v in alg.quiver.vertices)
    soc = Representation(alg, fl, dims, {})
    incl = Morphism(soc, m, {v: cols[v] for v in alg.quiver.vertices})
    return soc, incl


# -- projective realizations and covers ---------------------------------------


class ProjRealization:
    """Explicit model of a direct sum of indecomposable projectives.

    Summands s = (i, copy) are ordered by ascending vertex i, then copy.
    The one layout: basis path k of summand s at vertex v sits at
    offsets[s][v] + (position of k in algebra.paths(i, v)), so the basis
    at each vertex is the concatenation of the summands' path bases.
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
        self.rep, self.offsets = parts
        self.total_dim = self.rep.dim_total


def _realization_parts(algebra, summands, field):
    """(rep, offsets) of the sum of the projectives P(i) over the summands
    (i, copy); shared by every realization of the same sum, so neither
    may be mutated."""
    if summands:
        projs = {i: projective(algebra, i, field) for i, _ in summands}
        rep = direct_sum([projs[i] for i, _ in summands])
    else:
        rep = zero_rep(algebra, field)
    # offsets[s][v]: column offset of summand s inside vertex block v
    offsets = []
    off = {v: 0 for v in algebra.quiver.vertices}
    for i, _ in summands:
        offsets.append(dict(off))
        for v in off:
            off[v] += len(algebra.paths(i, v))
    return rep, offsets


@dataclass
class ProjCover:
    mults: tuple
    realization: ProjRealization
    epi: Morphism


def projective_cover(m: Representation):
    """Minimal projective cover P0 -> M.

    The generators are unit vectors, taken greedily per vertex v in
    ascending vertex order: e_p, for p in coordinate order, is kept when it
    is not in rad M_v + span(e_q : q < p).  These p are the pivot columns
    of rref([R | I]) beyond R = radical_span(m, v), so they span a
    complement of rad M_v and give the multiplicities of top M.  Summand
    order follows the generators, and P(v) sends the basis path k to
    column p of the matrix by which k acts on M."""
    alg, fl = m.algebra, m.field
    mults, gens = [], []  # gens[s] = p: summand s is generated by e_p
    for v in alg.quiver.vertices:
        rad = radical_span(m, v)
        _, pivots = Matrix.hstack(fl, [rad, Matrix.identity(fl, m.vertex_dim(v))]).rref()
        tops = [p - rad.ncols for p in pivots if p >= rad.ncols]
        mults.append(len(tops))
        gens += tops
    real = ProjRealization(alg, tuple(mults), fl)
    maps = {
        v: Matrix.zeros(fl, m.vertex_dim(v), real.rep.vertex_dim(v))
        for v in alg.quiver.vertices
    }
    acts = {}  # basis index -> matrix of its action, shared by every summand
    for s, p in enumerate(gens):
        i, _ = real.summands[s]
        for v in alg.quiver.vertices:
            for col, k in enumerate(alg.paths(i, v), real.offsets[s][v]):
                if k not in acts:
                    b = alg.basis[k]
                    acts[k] = act_word(m, b.word, b.source)
                for row, x in zip(maps[v].rows, acts[k].rows):
                    row[col] = x[p]
    epi = Morphism(real.rep, m, maps)
    for v in alg.quiver.vertices:
        if epi.maps[v].rank() != m.vertex_dim(v):
            raise AssertionError("projective cover map is not surjective")
    return ProjCover(tuple(mults), real, epi)


def injective_envelope(m: Representation):
    """(E, mono M -> E) via the opposite-algebra projective cover."""
    cover = projective_cover(dual_rep(m))
    mono = dual_morphism(cover.epi)
    # dual of D M is M itself up to the identification (DD = id on matrices)
    env = mono.target
    mono = Morphism(m, env, mono.maps)
    return env, mono


def cover_kernel(m: Representation):
    """(cover P0 -> M, its kernel K, inclusion K -> P0)."""
    cover = scoped(projective_cover, m)
    return (cover, *kernel(cover.epi))


def syzygy(m: Representation):
    return scoped(cover_kernel, m)[1]


# -- call-scoped analysis ------------------------------------------------------

# the open record, per thread: {(function, id(obj)): (obj, value)} or None
_analysis = ContextVar("taurank_analysis", default=None)


@contextmanager
def analysis_scope():
    """Open a record for `scoped` (a nested scope reuses the open one); it
    is dropped on return or raise.  Usable as a decorator."""
    record = _analysis.get()
    token = _analysis.set({} if record is None else record)
    try:
        yield
    finally:
        _analysis.reset(token)


def scoped(fn, obj):
    """fn(obj), computed once per open analysis scope (every time when
    none is open).  The entry keeps obj alive, so its id is not reused."""
    record = _analysis.get()
    if record is None:
        return fn(obj)
    key = (fn, id(obj))
    if key not in record:
        record[key] = (obj, fn(obj))
    return record[key][1]


# -- invariants ----------------------------------------------------------------


def ext1_dim(m: Representation, n: Representation):
    """dim Ext^1(M, N) from a minimal projective cover of M."""
    if m.is_zero() or n.is_zero():
        return 0
    cover, k, _ = scoped(cover_kernel, m)
    hom_p0_n = sum(
        cover.mults[i - 1] * n.vertex_dim(i) for i in m.algebra.quiver.vertices
    )
    return hom_dim(k, n) - hom_p0_n + hom_dim(m, n)


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


def iso_test(m: Representation, n: Representation, trials: int = 8, seed: int = 7):
    """Randomized isomorphism test: random Hom combinations checked for
    invertibility, with an exhaustive small-grid fallback when the Hom
    space has at most 6 parameters."""
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
    for _ in range(trials):
        coeffs = [f.from_int(rng.randint(-9, 9)) for _ in basis]
        if invertible(coeffs):
            return True
    if len(basis) <= 6:
        grid = [f.from_int(x) for x in (-1, 0, 1, 2)]
        for coeffs in itertools.product(grid, repeat=len(basis)):
            if invertible(list(coeffs)):
                return True
    return False


def is_sincere(m: Representation):
    return all(m.vertex_dim(v) > 0 for v in m.algebra.vertices)


def annihilator(algebra, m: Representation) -> Ideal:
    """I_M = {a in A : aM = 0}, as a (two-sided) ideal of the algebra."""
    if m.field.characteristic != 0:
        raise ValueError("annihilator ideals are computed over Q only")
    total = m.dim_total
    if total == 0:
        return Ideal(algebra, [[Fraction(1) if i == j else Fraction(0)
                                for j in range(algebra.dim)]
                               for i in range(algebra.dim)], closed=True)
    acts = [act_element({k: Fraction(1)}, m) for k in range(algebra.dim)]
    rows = []
    for i in range(total):
        for j in range(total):
            row = [acts[k].rows[i][j] for k in range(algebra.dim)]
            if any(x != 0 for x in row):
                rows.append(row)
    return Ideal(algebra, Matrix(QQ, rows, algebra.dim).kernel_basis(), closed=True)


def is_faithful(algebra, m: Representation):
    return annihilator(algebra, m).is_zero()


def conjugate(m: Representation, rng: SeedStream):
    """Transport M along a random change of basis at every vertex."""
    alg, f = m.algebra, m.field
    gs, gis = {}, {}
    for v in alg.quiver.vertices:
        d = m.vertex_dim(v)
        low = Matrix.identity(f, d)
        up = Matrix.identity(f, d)
        for i in range(d):
            for j in range(i):
                low.rows[i][j] = f.from_int(rng.randint(-3, 3))
                up.rows[j][i] = f.from_int(rng.randint(-3, 3))
        g = low * up
        gi = g.inverse()
        gs[v], gis[v] = g, gi
    arrows = {
        a.name: gs[a.target] * m.arrows[a.name] * gis[a.source]
        for a in alg.quiver.arrows
    }
    return Representation(alg, f, m.dims, arrows)
