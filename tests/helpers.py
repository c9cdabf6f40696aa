"""Tools the tests share."""

from fractions import Fraction
from math import prod

from taurank import algebra
from taurank.algebra import Algebra, BasisElement, NotFiniteDimensional, _axpy, _tables
from taurank.fields import QQ, SeedStream
from taurank.linalg import Matrix, _dict_rows, _echelon
from taurank.polyrank import PolyMatrix
from taurank.presentations import TwoComplex, min_presentation
from taurank.reps import (
    Morphism,
    Representation,
    _quotient,
    cokernel,
    cover_kernel,
    hom_dim,
    kernel,
    radical_span,
)


def echelon_rank(m: Matrix):
    """The rank of m by the exact engine alone, with no shortcut."""
    return len(_echelon(m.field, _dict_rows(m.rows))[1])


def conjugate(m: Representation, rng: SeedStream):
    """Transport M along a random change of basis at every vertex."""
    alg, f = m.algebra, m.field
    gs, gis = {}, {}
    for v in alg.quiver.vertices:
        d = m.vertex_dim(v)
        low = [[int(i == j) for j in range(d)] for i in range(d)]
        up = [[int(i == j) for j in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(i):
                low[i][j] = rng.randint(-3, 3)
                up[j][i] = rng.randint(-3, 3)
        g = Matrix(f, low, d) * Matrix(f, up, d)
        gi = g.inverse()
        gs[v], gis[v] = g, gi
    arrows = {
        a.name: gs[a.target] * m.arrows[a.name] * gis[a.source]
        for a in alg.quiver.arrows
    }
    return Representation(alg, f, m.dims, arrows)


def reference_ext1(m: Representation, n: Representation):
    """dim Ext^1(M, N) by two intertwiner systems: Hom(-, N) on
    0 -> Omega M -> P0 -> M -> 0 gives dim Hom(Omega M, N) - dim Hom(P0, N)
    + dim Hom(M, N), with dim Hom(P0, N) the sum of N_i over P0's summands."""
    if m.is_zero() or n.is_zero():
        return 0
    cover, k, _ = cover_kernel(m)
    hom_p0_n = sum(mult * n.vertex_dim(i)
                   for i, mult in zip(m.algebra.quiver.vertices, cover.realization.mults))
    return hom_dim(k, n) - hom_p0_n + hom_dim(m, n)


def reduce_presentation(cx: TwoComplex):
    """Split a two-complex as (minimal presentation of its cokernel)
    ⊕ (P -> P identity) ⊕ (P' -> 0); returns
    (c_min, dim of the identity part, zero part decomposition): the exact
    form of the split behind `generic_rank`'s cancellation rung,
    r(P1 ⊕ Q, P0 ⊕ Q) = r(P1, P0) + dim Q."""
    m, _ = cokernel(cx.map)
    c_min = min_presentation(m)
    id_part = cx.p0.sub(c_min.p0)
    zero_part = cx.p1.sub(c_min.p1).sub(id_part)
    dim_identity = id_part.total_dim(cx.algebra)
    if cx.rank() != c_min.rank() + dim_identity:
        raise AssertionError("presentation reduction broke the rank identity")
    return c_min, dim_identity, zero_part


def reference_subrep(m: Representation, cols):
    """(S, inclusion S -> M) for the subspaces of M spanned by the columns
    of cols[v] at each vertex v, by one solve per arrow: arrow a: u -> v
    of S solves cols[v] X = M_a cols[u]."""
    alg = m.algebra
    arrows = {}
    for a in alg.quiver.arrows:
        x = cols[a.target].solve_matrix(m.arrows[a.name] * cols[a.source])
        assert x is not None, "the subspaces are not arrow-stable"
        arrows[a.name] = x
    dims = tuple(cols[v].ncols for v in alg.quiver.vertices)
    sub = Representation(alg, m.field, dims, arrows)
    return sub, Morphism(sub, m, cols)


def reference_kernel(f: Morphism):
    """(K, inclusion K -> source), K_v spanned by `kernel_basis` of f_v."""
    m = f.source
    cols = {v: Matrix.from_columns(m.field, f.maps[v].kernel_basis(), m.vertex_dim(v))
            for v in m.algebra.quiver.vertices}
    return reference_subrep(m, cols)


def reference_cokernel(f: Morphism):
    """(Coker f, projection), with the projection rows built by hand from
    the reduced echelon form of each f_v transposed: the row for a
    non-pivot coordinate j has a 1 at j and minus column j of the reduced
    rows at their pivots; an arrow of the cokernel is the projection
    applied to the arrow's non-pivot columns."""
    n = f.target
    alg, fl = n.algebra, n.field
    projs, frees = {}, {}
    for v in alg.quiver.vertices:
        d = n.vertex_dim(v)
        rref_rows, pivots = f.maps[v].transpose().rref()
        free = [j for j in range(d) if j not in pivots]
        pm = []
        for j in free:
            row = [fl.zero] * d
            row[j] = 1
            for r, p in zip(rref_rows.rows, pivots):
                row[p] = -r[j]
            pm.append(row)
        projs[v], frees[v] = Matrix(fl, pm, d), free
    dims = tuple(projs[v].nrows for v in alg.quiver.vertices)
    arrows = {}
    for a in alg.quiver.arrows:
        free = frees[a.source]
        cols = Matrix(fl, [[row[j] for j in free] for row in n.arrows[a.name].rows], len(free))
        arrows[a.name] = projs[a.target] * cols
    q = Representation(alg, fl, dims, arrows)
    return q, Morphism(n, q, projs)


def check_intertwines(f: Morphism):
    """AssertionError unless f_v M_a = N_a f_u for every arrow a: u -> v."""
    for a in f.source.algebra.quiver.arrows:
        lhs = f.maps[a.target] * f.source.arrows[a.name]
        rhs = f.target.arrows[a.name] * f.maps[a.source]
        if lhs != rhs:
            raise AssertionError(f"morphism fails to intertwine arrow {a.name}")


def evaluate(pm: PolyMatrix, point, field=QQ):
    """The matrix of pm at a point: each entry summed term by term with
    operators over Q, then taken into `field`."""
    def value(poly):
        return sum(c * prod(x ** e for x, e in zip(point, mono))
                   for mono, c in poly.terms.items())

    return Matrix(field, [[field.from_fraction(value(e)) for e in row] for row in pm.entries],
                  pm.ncols)


def top(m: Representation):
    """(top M, projection M -> M/rad M), rad M_v spanned by `radical_span`."""
    return _quotient(m, {v: radical_span(m, v) for v in m.algebra.quiver.vertices})


def radical_of(m: Representation):
    """(rad M, inclusion): the kernel of M -> top M."""
    return kernel(top(m)[1])


def reference_top(m: Representation):
    """(top M, projection): the cokernel of the inclusion of rad M, which
    the pivot columns of each `radical_span` span."""
    cols = {v: radical_span(m, v).column_space_basis() for v in m.algebra.quiver.vertices}
    return reference_cokernel(reference_subrep(m, cols)[1])


def reference_lands_in_radical(f: Morphism):
    """Whether f: P1 -> P0 lands in rad P0: at each vertex v, appending
    f_v to `radical_span` of P0 leaves its rank unchanged."""
    p0 = f.target
    for v in p0.algebra.quiver.vertices:
        rad = radical_span(p0, v)
        if Matrix.hstack(p0.field, [rad, f.maps[v]]).rank() != rad.rank():
            return False
    return True


def commutative_square(a):
    """k[x, y]/(x^a, y^a, xy - yx) as .qa text; its dimension is a^2."""
    return (f"vertices: 1\narrow x: 1 -> 1\narrow y: 1 -> 1\nrelations:\nx*y - y*x\n"
            f"{'*'.join('x' * a)}\n{'*'.join('y' * a)}\n")


def dense_hom_dim(m: Representation, n: Representation):
    """dim Hom(M, N) as the nullity of the dense intertwiner matrix, ranked by
    `Matrix.rank`: a row per arrow a: u -> v and cell (r, c) of
    F_v M_a - N_a F_u, a column per unknown F_v[r][j], stacked per vertex."""
    q = m.algebra.quiver
    offsets, nvars = {}, 0
    for v in q.vertices:
        offsets[v] = nvars
        nvars += n.vertex_dim(v) * m.vertex_dim(v)
    rows = []
    for a in q.arrows:
        u, v = a.source, a.target
        ma, na = m.arrows[a.name].rows, n.arrows[a.name].rows
        dmv, dmu = m.vertex_dim(v), m.vertex_dim(u)
        for r in range(n.vertex_dim(v)):
            for c in range(dmu):
                row = [0] * nvars
                for j in range(dmv):
                    row[offsets[v] + r * dmv + j] += ma[j][c]
                for i in range(n.vertex_dim(u)):
                    row[offsets[u] + i * dmu + c] -= na[r][i]
                rows.append(row)
    return nvars - Matrix(m.field, rows, nvars).rank()


def random_bound_quivers(seed, count):
    """`count` seeded .qa texts: 2-3 vertices, 2-4 arrows (loops allowed)
    and a random set of the length-2 monomial relations."""
    rng = SeedStream(seed)
    for k in range(count):
        sub = rng.split(k)
        n = sub.randint(2, 3)
        arrows = [(f"a{x}", sub.randint(1, n), sub.randint(1, n)) for x in range(sub.randint(2, 4))]
        # x*y is y, then x
        relations = [f"{x}*{y}" for x, xs, _ in arrows for y, _, yt in arrows
                     if yt == xs and sub.randint(0, 1)]
        yield "\n".join([f"vertices: {' '.join(map(str, range(1, n + 1)))}",
                         *(f"arrow {a}: {s} -> {t}" for a, s, t in arrows),
                         "relations:", *relations]) + "\n"


def reference_build(quiver, relations):
    """(basis, products, arrow elements, inserts) of KQ/I by an independent
    closure of the ideal: a table of ideal vectors keyed by their tip, the
    greatest path under (length, arrow indices, source), each fully reduced
    against the table, with every term re-sorted at each step.  It raises
    NotFiniteDimensional where `build_algebra` does, with the same text,
    and the AssertionError of a table that is not associative, and it reads
    the caps of `taurank.algebra` when it runs."""
    def order_key(key):
        source, word = key
        return (len(word), tuple(quiver.arrow_index[a] for a in word), source)

    by_tip = {}  # (source, word) -> dict[(source, word)] = Fraction

    def reduce(vec):
        vec = {k: c for k, c in vec.items() if c != 0}
        while True:
            hit = next((k for k in sorted(vec, key=order_key, reverse=True) if k in by_tip),
                       None)
            if hit is None:
                return vec
            g = by_tip[hit]
            _axpy(vec, -vec[hit] / g[hit], g)

    arrows, pending = quiver.arrows, {}  # pending[length] = vectors whose tip has that length

    def schedule(vec):
        if vec:
            pending.setdefault(len(max(vec, key=order_key)[1]), []).append(vec)

    for rel in relations:
        schedule({(rel.source, w): Fraction(c) for c, w in rel.terms})

    def left_mult(arrow, vec):
        return {(src, (arrow.name,) + word): c for (src, word), c in vec.items()
                if (quiver.word_target(word) if word else src) == arrow.source}

    def right_mult(vec, arrow):
        return {(arrow.source, word + (arrow.name,)): c for (src, word), c in vec.items()
                if src == arrow.target}

    inserts = 0
    survivors = {0: [(i, ()) for i in quiver.vertices]}
    nilpotency = None
    for length in range(1, algebra.MAX_LEN + 1):
        while levels := sorted(lvl for lvl in pending if lvl <= length):
            for vec in pending.pop(levels[0]):
                inserts += 1
                if inserts > algebra.MAX_TIP_INSERTS:
                    raise NotFiniteDimensional(
                        f"closing the ideal takes more than {algebra.MAX_TIP_INSERTS} "
                        "tip-table inserts; too large to build")
                vec = reduce(vec)
                if not vec:
                    continue
                tip = max(vec, key=order_key)
                by_tip[tip] = vec
                if len(tip[1]) + 1 <= algebra.MAX_LEN:
                    for a in arrows:
                        schedule(left_mult(a, vec))
                        schedule(right_mult(vec, a))
        level = []
        for (src, word) in survivors[length - 1]:
            tgt = quiver.word_target(word) if word else src
            level += [(src, (a.name,) + word) for a in arrows
                      if a.source == tgt and (src, (a.name,) + word) not in by_tip]
        survivors[length] = sorted(level, key=order_key)
        if sum(map(len, survivors.values())) > algebra.MAX_RESIDUES:
            raise NotFiniteDimensional(f"more than {algebra.MAX_RESIDUES} path residues "
                                       "survive; not finite-dimensional, or too large to build")
        if not level:
            nilpotency = length
            break
    if nilpotency is None:
        raise NotFiniteDimensional(
            f"path residues still survive at length {algebra.MAX_LEN}; "
            f"not finite-dimensional within path length {algebra.MAX_LEN}")
    basis = [BasisElement(src, quiver.word_target(word) if word else src, word)
             for length in range(nilpotency) for src, word in survivors[length]]
    index = {(b.source, b.word): i for i, b in enumerate(basis)}

    def reduce_word(src, word):
        return {index[key]: c for key, c in reduce({(src, word): Fraction(1)}).items()}

    products, arrow_elements = _tables(quiver, basis, reduce_word)
    Algebra(quiver, basis, products, arrow_elements)._validate()
    return basis, products, arrow_elements, inserts


def reference_ideal(alg, elements):
    """(dense rows, pivots) of the two-sided ideal of `alg` that the sparse
    `elements` generate, by an independent dense closure: the row space of
    the span and of its products with every generator on both sides,
    recomputed in reduced echelon form until the dimension stops growing."""
    def dense(el):
        return [el.get(k, Fraction(0)) for k in range(alg.dim)]

    gens = alg.generator_elements()
    span = Matrix(QQ, [dense(el) for el in elements], alg.dim).row_space_rows()
    while True:
        products = []
        for r in span:
            el = {k: c for k, c in enumerate(r) if c}
            for g in gens:
                products += [dense(x) for x in (alg.multiply(g, el), alg.multiply(el, g)) if x]
        closed = Matrix(QQ, span + products, alg.dim).row_space_rows()
        if len(closed) == len(span):
            break
        span = closed
    return closed, [next(k for k, x in enumerate(r) if x) for r in closed]


def reference_quotient_tables(alg, rows, pivots):
    """(products, arrow elements) of alg modulo the ideal with these dense
    reduced echelon rows and pivots: each table entry reduced densely by
    every row whose pivot it has a cell at, then renumbered over the
    indices that are no pivot, as `Algebra.quotient` lays out its basis."""
    new_index = {old: new for new, old in enumerate(k for k in range(alg.dim)
                                                      if k not in pivots)}

    def project(el):
        vec = [el.get(k, 0) for k in range(alg.dim)]
        for r, p in zip(rows, pivots):
            if c := vec[p]:
                vec = [x - c * y for x, y in zip(vec, r)]
        return {new_index[k]: x for k, x in enumerate(vec) if x}

    products = {(new_index[i], new_index[j]): pv for (i, j), vec in alg.products.items()
                if i in new_index and j in new_index and (pv := project(vec))}
    arrows = {a.name: project(alg.arrow_element(a.name)) for a in alg.quiver.arrows}
    return products, arrows
