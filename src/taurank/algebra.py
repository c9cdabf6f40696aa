"""Finite-dimensional path algebra quotients in structure-constant form.

`build_algebra` quotients the path algebra by the two-sided ideal the
relations generate: the relation set is closed level by level under
left/right multiplication by arrows on `linalg`'s exact engine, over
columns that order paths so that a vector leads at its tip, and the paths
that are no tip become the basis.  One reduced echelon form of the ideal
vectors gives each tip's normal form.  Its structure
constants come from arrow peeling: b_i * b_j applies the arrows of b_i to
b_j one at a time, each step a reduced word one arrow longer than a basis
path.  An `Ideal` of an algebra is closed on the same engine, one
`_keep` per product of a kept element with a generator, and holds the
sparse rows of its reduced echelon form.  `opposite` and `quotient`
inherit their tables from the algebra they come from (transposed, or
projected modulo the ideal along those rows), so quotient algebras go
through the exact same representation-theoretic code paths as quiver
presentations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import _echelon, _keep
from .fields import QQ
from .quiver import Quiver, RelationPoly, QuiverSyntaxError


class NotFiniteDimensional(RuntimeError):
    pass


class NotDefinedOverField(ValueError):
    """A prime field F_p over which an algebra is not defined: p divides a
    denominator of its relation coefficients or structure constants.
    `Algebra.require_field` raises it where a module or a projective
    first pairs the algebra with the field; a realization meets the field
    through its projectives."""


# Most path residues a build keeps.  The structure constants take time
# quadratic in the residues: 2.8 s for 1023 on one vertex with two loops
# (Python 3.11, 2-CPU Linux host), so a build at the cap ends in seconds.
MAX_RESIDUES = 1024

# Most vectors a build inserts while closing the ideal.  An insert reduces
# one vector at its tip by the ideal vectors kept so far (`linalg._keep`),
# and the closure can visit nearly every path below the nilpotency length:
# k[x, y]/(x^a, y^a, xy - yx) makes about 4^a inserts (130815 at a = 8, a
# build of about 2 s on the host above), so past the cap a build stops in
# about a second instead of running on.
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

    arrows, n, m = quiver.arrows, quiver.n, len(quiver.arrows)
    # The column of a path for the engine is (longest - its length, m - the
    # index of each arrow, n - its source), so the least column of a vector
    # is its tip, the greatest path under (length, arrow indices, source).
    # Every component is >= 0: as hash(-1) == hash(-2), lookups of columns
    # that differ only there would collide.
    longest = max([MAX_LEN, *(len(w) for rel in relations for _, w in rel.terms)])
    letter = {a.name: m - quiver.arrow_index[a.name] for a in arrows}

    def column(src, word):
        return longest - len(word), tuple(letter[a] for a in word), n - src

    def path(col):
        _, letters, s = col
        return n - s, tuple(arrows[m - k].name for k in letters)

    kept = {}  # tip column -> ideal vector that leads there
    # pending[length] = vectors whose tip has that length
    pending = {}

    def schedule(vec):
        if vec:
            pending.setdefault(longest - min(vec)[0], []).append(vec)

    for rel in relations:
        schedule({column(rel.source, w): Fraction(c) for c, w in rel.terms})

    def left_mult(arrow, vec):
        k = letter[arrow.name]
        return {(spare - 1, (k,) + t, s): c for (spare, t, s), c in vec.items()
                if (arrows[m - t[0]].target if t else n - s) == arrow.source}

    def right_mult(vec, arrow):
        k = letter[arrow.name]
        return {(spare - 1, t + (k,), n - arrow.source): c for (spare, t, s), c in vec.items()
                if n - s == arrow.target}

    inserts = 0
    # survivors per length; terminate at the first empty level
    survivors = {0: [(i, ()) for i in quiver.vertices]}
    nilpotency = None
    for length in range(1, MAX_LEN + 1):
        # drain: insert every pending vector whose tip is at most this long
        while levels := sorted(lvl for lvl in pending if lvl <= length):
            for vec in pending.pop(levels[0]):
                inserts += 1
                if inserts > MAX_TIP_INSERTS:
                    raise NotFiniteDimensional(
                        f"closing the ideal takes more than {MAX_TIP_INSERTS} tip-table "
                        "inserts; too large to build")
                tip = _keep(0, kept, vec)
                if tip is not None and longest - tip[0] + 1 <= MAX_LEN:
                    g = kept[tip]
                    for a in arrows:
                        schedule(left_mult(a, g))
                        schedule(right_mult(g, a))
        level = []
        for (src, word) in survivors[length - 1]:
            tgt = quiver.word_target(word) if word else src
            for a in arrows:
                if a.source == tgt:
                    col = column(src, (a.name,) + word)
                    if col not in kept:
                        level.append(col)
        survivors[length] = [path(col) for col in sorted(level, reverse=True)]
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
    # a tip is minus the rest of its row of the reduced echelon form
    rows, tips = _echelon(QQ, list(kept.values()), reduced=True)
    normal_form = {tip: {c: -x for c, x in row.items() if c != tip}
                   for tip, row in zip(tips, rows)}

    def reduce_word(src, word):
        col = column(src, word)
        vec = {path(c): x for c, x in normal_form.get(col, {col: 1}).items()}
        for key in vec:
            if key not in index:
                raise AssertionError(f"unreduced path {key} escaped the tip table")
        return {index[key]: Fraction(x) for key, x in vec.items()}

    products, arrow_elements = _tables(quiver, basis, reduce_word)
    alg = Algebra(quiver, basis, products, arrow_elements, relations=list(relations))
    alg._validate()
    return alg


def _tables(quiver, basis, reduce_word):
    """Structure constants and arrow elements of a residue basis.

    b_i * b_j peels the arrows of b_i onto b_j, last arrow first; each step
    is the memoized reduce_word of one arrow on a basis path, so no reduced
    word is more than one arrow longer than a basis path.  That matters:
    the ideal is only closed up to the nilpotency length."""
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
        # names of the prime fields that require_field has accepted
        self._defined_over = set()
        # per-algebra tables, each filled on first use
        self._paths = None
        # valid (mults, field name) -> (summands, rep, offsets) of
        # that projective sum; filled by reps.ProjRealization
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

    def require_field(self, field):
        """NotDefinedOverField unless this algebra is defined over `field`:
        over F_p, p divides no denominator of a relation coefficient or
        structure constant.  Checked once per algebra and field name."""
        p = field.characteristic
        if not p or field.name in self._defined_over:
            return
        tables = itertools.chain(self.products.values(), self.arrow_element_cache.values())
        coeffs = itertools.chain((c for rel in self.relations for c, _ in rel.terms),
                                 (c for vec in tables for c in vec.values()))
        if any(c.denominator % p == 0 for c in coeffs):
            raise NotDefinedOverField(
                f"the algebra is not defined over F_{p}: {p} divides a denominator of its "
                "relation coefficients or structure constants")
        self._defined_over.add(field.name)

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
        return Ideal(self, [{i: 1} for i, b in enumerate(self.basis) if b.length >= 1],
                     closed=True)

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
        pivots = set(ideal.pivots)
        keep = [i for i in range(self.dim) if i not in pivots]
        new_index = {old: new for new, old in enumerate(keep)}
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
    """Two-sided ideal of `algebra` spanned by sparse `elements` {basis
    index: coefficient}, closed under left and right multiplication by
    `generator_elements()` unless `closed`.  The closure is a worklist on
    `linalg`'s exact engine: each element goes in once through `_keep`, and
    only a newly kept row queues its products with the generators.  `rows`
    is the reduced echelon basis, sparse elements in ascending index order,
    and `pivots` their leading indices in ascending order."""

    def __init__(self, algebra: Algebra, elements, closed=False):
        self.algebra = algebra
        gens = [] if closed else algebra.generator_elements()
        kept, queue = {}, [{k: c for k, c in el.items() if c} for el in elements]
        while queue:
            lead = _keep(0, kept, queue.pop())
            if lead is not None:
                for g in gens:
                    queue += (algebra.multiply(g, kept[lead]), algebra.multiply(kept[lead], g))
        rows, self.pivots = _echelon(QQ, list(kept.values()), reduced=True)
        self.rows = [dict(sorted(row.items())) for row in rows]
        self.dim = len(self.rows)

    def reduce(self, element):
        """Normal form of a sparse element modulo the ideal."""
        vec = dict(element)
        for r, p in zip(self.rows, self.pivots):
            c = vec.get(p)
            if c:
                _axpy(vec, -c, r)
        return vec

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and other.algebra is self.algebra
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((id(self.algebra), tuple(tuple(r.items()) for r in self.rows)))

    def __repr__(self):
        return f"Ideal(dim {self.dim} of {self.algebra!r})"
