"""Tools the tests share."""

from taurank.fields import SeedStream
from taurank.linalg import Matrix, _dict_rows, _echelon
from taurank.reps import Representation


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
