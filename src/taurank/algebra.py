"""Finite-dimensional path algebra quotients in structure-constant form.

`build_algebra` quotients the path algebra by the two-sided ideal the
relations generate: the relation set is closed level by level under
left/right multiplication by arrows, echelonized per (source, target)
pair, and the surviving path residues become the basis.  Its structure
constants come from arrow peeling: b_i * b_j applies the arrows of b_i to
b_j one at a time, each step a reduced word one arrow longer than a basis
path.  `opposite` and `quotient` inherit their tables from the algebra
they come from (transposed, or projected modulo the ideal), so quotient
algebras go through the exact same representation-theoretic code paths as
quiver presentations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix
from .fields import QQ
from .quiver import Quiver, RelationPoly, QuiverSyntaxError


class NotFiniteDimensional(RuntimeError):
    pass


# Most path residues a build keeps.  The structure constants take time
# quadratic in the residues: 2.8 s for 1023 on one vertex with two loops
# (Python 3.11, 2-CPU Linux host), so a build at the cap ends in seconds.
MAX_RESIDUES = 1024

# Most vectors a build reduces against its tip table while closing the
# ideal.  Each insert is a full reduction, and the closure can visit nearly
# every path below the nilpotency length: k[x, y]/(x^a, y^a, xy - yx) makes
# about 4^a inserts (130815 at a = 8, a build of about 2 s on the host
# above), so past the cap a build stops in seconds instead of running on.
MAX_TIP_INSERTS = 1 << 17

# Longest path a build searches for a surviving residue.
MAX_LEN = 30


@dataclass(frozen=True)
class BasisElement:
    """Residue of a path: word in composition order (after-convention)."""

    source: int
    target: int
    word: tuple  # arrow names; empty for the idempotent e_source

    @property
    def length(self):
        return len(self.word)


def _word_key(quiver, source, word):
    return (len(word), tuple(quiver.arrow_index[a] for a in word), source)


def _axpy(out, c, vec):
    """out += c * vec on sparse dicts, dropping entries that cancel."""
    for k, x in vec.items():
        s = out.get(k, 0) + c * x
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _peel(vec, word, arrow_mult):
    """Apply the arrows of `word` to the sparse element vec, last arrow
    first; arrow_mult(name, j) is (arrow `name`) * basis[j]."""
    for name in reversed(word):
        nxt = {}
        for j, c in vec.items():
            _axpy(nxt, c, arrow_mult(name, j))
        vec = nxt
        if not vec:
            break
    return vec


def _dense(dim, el):
    v = [Fraction(0)] * dim
    for k, c in el.items():
        v[k] = c
    return v


class _TipTable:
    """Echelonized ideal vectors keyed by their leading path."""

    def __init__(self, quiver):
        self.quiver = quiver
        self.by_tip = {}  # (source, word) -> dict[(source, word)] = Fraction

    def order_key(self, key):
        source, word = key
        return _word_key(self.quiver, source, word)

    def reduce(self, vec):
        """Fully reduce vec (dict key->coeff) against the table."""
        vec = {k: c for k, c in vec.items() if c != 0}
        while True:
            hit = None
            for k in sorted(vec, key=self.order_key, reverse=True):
                if k in self.by_tip:
                    hit = k
                    break
            if hit is None:
                return vec
            g = self.by_tip[hit]
            _axpy(vec, -vec[hit] / g[hit], g)

    def insert(self, vec):
        """Reduce and insert; returns the new tip key or None if vec died."""
        vec = self.reduce(vec)
        if not vec:
            return None
        tip = max(vec, key=self.order_key)
        self.by_tip[tip] = vec
        return tip


def build_algebra(quiver: Quiver, relations):
    """Construct KQ/I with the length-graded residue basis.

    Raises NotFiniteDimensional if path residues still survive at
    MAX_LEN, once more than MAX_RESIDUES survive, or once closing the
    ideal takes more than MAX_TIP_INSERTS tip-table inserts.  The
    associativity of the structure constants is checked exhaustively over
    the basis.
    """
    for rel in relations:
        if not isinstance(rel, RelationPoly):
            raise TypeError("relations must be RelationPoly instances")

    table = _TipTable(quiver)
    arrows = quiver.arrows
    # pending[length] = vectors whose lead has that length
    pending = {}

    def vec_of_relation(rel):
        return {(rel.source, w): Fraction(c) for c, w in rel.terms}

    def schedule(vec):
        if not vec:
            return
        tip = max(vec, key=table.order_key)
        pending.setdefault(len(tip[1]), []).append(vec)

    for rel in relations:
        schedule(vec_of_relation(rel))

    def left_mult(arrow, vec):
        out = {}
        for (src, word), c in vec.items():
            tgt = quiver.word_target(word) if word else src
            if tgt == arrow.source:
                out[(src, (arrow.name,) + word)] = c
        return out

    def right_mult(vec, arrow):
        out = {}
        for (src, word), c in vec.items():
            if src == arrow.target:
                out[(arrow.source, word + (arrow.name,))] = c
        return out

    inserts = 0

    def drain(upto):
        """Process all pending vectors with lead length <= upto."""
        nonlocal inserts
        while True:
            levels = sorted(l for l in pending if l <= upto)
            if not levels:
                return
            lvl = levels[0]
            vecs = pending.pop(lvl)
            for vec in vecs:
                inserts += 1
                if inserts > MAX_TIP_INSERTS:
                    raise NotFiniteDimensional(
                        f"closing the ideal takes more than {MAX_TIP_INSERTS} tip-table "
                        "inserts; too large to build")
                tip = table.insert(vec)
                if tip is None:
                    continue
                g = table.by_tip[tip]
                if len(tip[1]) + 1 <= MAX_LEN:
                    for a in arrows:
                        schedule(left_mult(a, g))
                        schedule(right_mult(g, a))

    # survivors per length; terminate at the first empty level
    survivors = {0: [(i, ()) for i in quiver.vertices]}
    nilpotency = None
    for length in range(1, MAX_LEN + 1):
        drain(length)
        prev = survivors[length - 1]
        level = []
        for (src, word) in prev:
            tgt = quiver.word_target(word) if word else src
            for a in arrows:
                if a.source == tgt:
                    key = (src, (a.name,) + word)
                    if key not in table.by_tip:
                        level.append(key)
        level.sort(key=table.order_key)
        survivors[length] = level
        if sum(map(len, survivors.values())) > MAX_RESIDUES:
            raise NotFiniteDimensional(f"more than {MAX_RESIDUES} path residues survive; "
                                       "not finite-dimensional, or too large to build")
        if not level:
            nilpotency = length
            break
    if nilpotency is None:
        raise NotFiniteDimensional(
            f"path residues still survive at length {MAX_LEN}; "
            f"not finite-dimensional within path length {MAX_LEN}"
        )

    basis = []
    for length in range(nilpotency):
        for (src, word) in survivors[length]:
            tgt = quiver.word_target(word) if word else src
            basis.append(BasisElement(src, tgt, word))
    index = {(b.source, b.word): i for i, b in enumerate(basis)}

    def reduce_word(src, word):
        vec = table.reduce({(src, word): Fraction(1)})
        for key in vec:
            if key not in index:
                raise AssertionError(f"unreduced path {key} escaped the tip table")
        return {index[key]: c for key, c in vec.items()}

    products, arrow_elements = _tables(quiver, basis, reduce_word)
    alg = Algebra(quiver, basis, products, arrow_elements, relations=list(relations))
    alg._validate()
    return alg


def _tables(quiver, basis, reduce_word):
    """Structure constants and arrow elements of a residue basis.

    b_i * b_j peels the arrows of b_i onto b_j, last arrow first; each step
    is the memoized reduce_word of one arrow on a basis path, so no reduced
    word is more than one arrow longer than a basis path.  That matters:
    the tip table is only drained up to the nilpotency length."""
    memo = {}

    def arrow_mult(name, j):
        if (name, j) not in memo:
            b = basis[j]
            composable = quiver.by_name[name].source == b.target
            memo[name, j] = reduce_word(b.source, (name,) + b.word) if composable else {}
        return memo[name, j]

    products = {}
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            if bi.source == bj.target:
                vec = _peel({j: Fraction(1)}, bi.word, arrow_mult)
                if vec:
                    products[(i, j)] = vec
    arrow_elements = {a.name: reduce_word(a.source, (a.name,)) for a in quiver.arrows}
    return products, arrow_elements


class Algebra:
    """Basic algebra with a path-residue basis and structure constants.

    `products[(i, j)]` is b_i * b_j and `arrow_element_cache[name]` the
    image of an arrow, both sparse dicts index->Fraction over `basis`, as
    are all elements.  `build_algebra`, `opposite` and `quotient` compute
    the two tables and hand them over.
    """

    def __init__(self, quiver, basis, products, arrow_elements, relations=None,
                 parent=None, parent_ideal=None):
        self.quiver = quiver
        self.basis = list(basis)
        self.products = products
        self.arrow_element_cache = arrow_elements
        self.relations = relations or []
        self.dim = len(self.basis)
        self.parent = parent
        self.parent_ideal = parent_ideal
        self.index = {(b.source, b.word): i for i, b in enumerate(self.basis)}
        self.idempotent_index = {}
        for i, b in enumerate(self.basis):
            if b.length == 0:
                self.idempotent_index[b.source] = i
        self.vertices = sorted(self.idempotent_index)
        self._op = None
        # per-algebra tables, each filled on first use
        self._paths = None
        # (mults, field name) -> (rep, offsets) of that projective sum;
        # filled by reps.ProjRealization
        self.realization_cache = {}
        # (mults1, mults0) with gcd 1 -> term rank of Hom(P1, P0)'s generic
        # map, for every field; filled by presentations.cover_upper_bound
        self.cover_bounds = {}
        # (i, j) -> template of Hom(P(i), P(j)), for every field; filled by
        # presentations._hom_template, the one reader of right_mult_blocks
        self.hom_templates = {}
        # the tables of the last Hom space built, keyed by (mults1, mults0,
        # field name); one entry, owned by presentations.HomSpace
        self.hom_tables = None

    # -- construction helpers -----------------------------------------

    def _image_of_word(self, source, word):
        """Coordinates of a parent-quiver path residue in this algebra."""
        key = (source, word)
        if key in self.index:
            return {self.index[key]: Fraction(1)}
        # multiply out arrow by arrow via the product table
        vec = {self.idempotent_index[source]: Fraction(1)} \
            if source in self.idempotent_index else {}
        return _peel(vec, word, self.arrow_left_mult)

    def arrow_left_mult(self, name, j):
        """Coordinates of (arrow `name`) * basis[j]."""
        out = {}
        for i, c in self.arrow_element_cache[name].items():
            _axpy(out, c, self.products.get((i, j), {}))
        return out

    def _validate(self):
        for i in self.quiver.vertices:
            if i not in self.idempotent_index:
                raise AssertionError(f"missing idempotent e{i}")
        for (i, j), vec in self.products.items():
            bi, bj = self.basis[i], self.basis[j]
            for k in vec:
                bk = self.basis[k]
                if bk.source != bj.source or bk.target != bi.target:
                    raise AssertionError("product leaves its (source,target) block")
        # exhaustive associativity check on the basis
        if self.dim <= 24:
            for i, j, k in itertools.product(range(self.dim), repeat=3):
                ij = self.products.get((i, j), {})
                jk = self.products.get((j, k), {})
                if self.multiply(ij, {k: 1}) != self.multiply({i: 1}, jk):
                    raise AssertionError(
                        f"associativity fails on basis triple ({i},{j},{k})"
                    )

    # -- elements -------------------------------------------------------

    def idempotent(self, i):
        return {self.idempotent_index[i]: Fraction(1)}

    def arrow_element(self, name):
        return dict(self.arrow_element_cache[name])

    def element_from_terms(self, terms):
        """Terms: (coeff, word) with word a tuple of arrow names, or
        (coeff, i) with an int i for the idempotent e_i."""
        out = {}
        for coeff, word in terms:
            if isinstance(word, int):
                if word not in self.idempotent_index:
                    raise QuiverSyntaxError(f"no idempotent e{word} in this algebra")
                vec = self.idempotent(word)
            else:
                for name in word:
                    self.quiver.arrow(name)
                if not self.quiver.word_is_composable(word):
                    raise QuiverSyntaxError(f"non-composable path {'*'.join(word)!r}")
                vec = self._image_of_word(self.quiver.word_source(word), tuple(word))
            _axpy(out, Fraction(coeff), vec)
        return out

    def multiply(self, x, y):
        out = {}
        for j, cy in y.items():
            for i, cx in x.items():
                prod = self.products.get((i, j))
                if prod:
                    _axpy(out, cx * cy, prod)
        return out

    def generator_elements(self):
        """Idempotents plus arrow images; they generate the algebra."""
        gens = [self.idempotent(i) for i in self.vertices]
        gens += [self.arrow_element(a.name) for a in self.quiver.arrows
                 if self.arrow_element_cache[a.name]]
        return gens

    def dims_of_projective(self, i):
        """Dimension vector of P(i) = A e_i (basis at v: paths(i, v))."""
        return tuple(len(self.paths(i, v)) for v in self.quiver.vertices)

    def paths(self, source, target):
        """Ascending basis indices of the residues from `source` to `target`."""
        if self._paths is None:
            table = {}
            for k, b in enumerate(self.basis):
                table.setdefault((b.source, b.target), []).append(k)
            self._paths = table
        return self._paths.get((source, target), ())

    def right_mult_blocks(self, i, x):
        """Right multiplication z -> z*x from P(i) to P(j), j the source of
        basis element x, as sparse triples (row, col, c) per vertex v: col
        indexes paths(i, v), row indexes paths(j, v), and c is an int when
        integral, else a Fraction.  Vertices without entries are left out."""
        j = self.basis[x].source
        blocks = {}
        for v in self.quiver.vertices:
            rowpos = {k: r for r, k in enumerate(self.paths(j, v))}
            triples = [
                (rowpos[k2], col, c.numerator if c.denominator == 1 else c)
                for col, k in enumerate(self.paths(i, v))
                for k2, c in self.products.get((k, x), {}).items()
            ]
            if triples:
                blocks[v] = triples
        return blocks

    # -- derived algebras -------------------------------------------------

    def opposite(self):
        """Same basis with reversed tags and transposed products; the
        relations are reversed word by word, and (A/I)^op is A^op/I."""
        if self._op is not None:
            return self._op
        rev_quiver = self.quiver.reversed()
        op_basis = [
            BasisElement(b.target, b.source, tuple(reversed(b.word))) for b in self.basis
        ]
        op_products = {(j, i): dict(vec) for (i, j), vec in self.products.items()}
        op_arrows = {n: dict(v) for n, v in self.arrow_element_cache.items()}
        op_relations = [
            RelationPoly.make(rev_quiver, [(c, reversed(w)) for c, w in rel.terms])
            for rel in self.relations
        ]
        parent = parent_ideal = None
        if self.parent is not None:  # I is two-sided, so an ideal of A^op too
            parent = self.parent.opposite()
            parent_ideal = Ideal(parent, self.parent_ideal.rows, closed=True)
        op = Algebra(rev_quiver, op_basis, op_products, op_arrows, relations=op_relations,
                     parent=parent, parent_ideal=parent_ideal)
        op._op = self
        self._op = op
        return op

    def radical(self):
        rows = [_dense(self.dim, {i: Fraction(1)})
                for i, b in enumerate(self.basis) if b.length >= 1]
        return Ideal(self, rows, closed=True)

    def quotient(self, ideal: "Ideal"):
        """Quotient algebra A/I.

        The quotient keeps the parent quiver; vertices whose idempotent
        lies in I are dropped from the surviving vertex list and every
        module over the quotient has dimension 0 there.
        """
        if ideal.algebra is not self:
            raise ValueError("ideal belongs to a different algebra")
        if ideal.dim == self.dim:
            raise ValueError("cannot quotient by the whole algebra (I = A)")
        pivots = set(ideal.pivots())
        keep = [i for i in range(self.dim) if i not in pivots]
        new_index = {old: new for new, old in enumerate(keep)}
        for i in self.vertices:
            e = self.idempotent_index[i]
            # e_i in I forces its whole Peirce block in; membership check:
            if ideal.contains(self.idempotent(i)) and e in new_index:
                raise AssertionError("idempotent inside ideal survived echelon")
        basis = [self.basis[i] for i in keep]

        def project(vec):
            red = ideal.reduce(vec)
            return {new_index[k]: c for k, c in red.items()}

        products = {}
        for (i, j), vec in self.products.items():
            if i in new_index and j in new_index:
                pv = project(vec)
                if pv:
                    products[(new_index[i], new_index[j])] = pv
        arrow_elements = {
            a.name: project(self.arrow_element(a.name)) for a in self.quiver.arrows
        }
        return Algebra(self.quiver, basis, products, arrow_elements,
                       relations=self.relations, parent=self, parent_ideal=ideal)

    def root(self):
        return self if self.parent is None else self.parent.root()

    def __repr__(self):
        return f"Algebra(dim {self.dim} on {self.quiver!r})"


class Ideal:
    """Two-sided ideal, stored as a canonical reduced echelon span."""

    def __init__(self, algebra: Algebra, spanning_rows, closed=False):
        self.algebra = algebra
        rows = [list(r) for r in spanning_rows]
        if rows and not closed:
            rows = self._close(rows)
        self.rows = self._canonical(rows)
        self.dim = len(self.rows)

    @staticmethod
    def from_generators(algebra, elements):
        return Ideal(algebra, [_dense(algebra.dim, el) for el in elements])

    def _canonical(self, rows):
        if not rows:
            return []
        m = Matrix(QQ, rows, self.algebra.dim)
        return m.row_space_rows()

    def _close(self, rows):
        """Close the span under multiplication by algebra generators."""
        alg = self.algebra
        gens = alg.generator_elements()
        span = Matrix(QQ, rows, alg.dim).row_space_rows()
        while True:
            new_rows = []
            for r in span:
                el = {i: c for i, c in enumerate(r) if c}
                for g in gens:
                    for prod in (alg.multiply(g, el), alg.multiply(el, g)):
                        if prod:
                            new_rows.append(_dense(alg.dim, prod))
            if not new_rows:
                return span
            stacked = span + new_rows
            closed = Matrix(QQ, stacked, alg.dim).row_space_rows()
            if len(closed) == len(span):
                return closed
            span = closed

    def pivots(self):
        out = []
        for r in self.rows:
            for j, x in enumerate(r):
                if x != 0:
                    out.append(j)
                    break
        return out

    def reduce(self, element):
        """Normal form of a sparse element modulo the ideal."""
        vec = dict(element)
        for r, p in zip(self.rows, self.pivots()):
            c = vec.get(p)
            if c:
                _axpy(vec, -c, {j: x for j, x in enumerate(r) if x})
        return vec

    def contains(self, element):
        return not self.reduce(element)

    def is_zero(self):
        return self.dim == 0

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and other.algebra is self.algebra
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((id(self.algebra), tuple(map(tuple, self.rows))))

    def __repr__(self):
        return f"Ideal(dim {self.dim} of {self.algebra!r})"
