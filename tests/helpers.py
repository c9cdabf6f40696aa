"""Tools the tests share."""

from taurank.fields import SeedStream
from taurank.linalg import Matrix
from taurank.reps import Representation


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
