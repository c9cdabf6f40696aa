"""Exact matrices: rank, null spaces, solving and block assembly.

Cells are plain Python numbers in row-major lists: over Q an `int` or a
`Fraction` (the two mix freely; the reduced echelon form gives an `int`
where a cell is integral), over F_p an `int` in [0, p).  The
arithmetic uses Python's operators on them, and `Matrix.__init__`
reduces F_p cells, so every matrix is built from its finished cells, and
no code writes a matrix after it is built.  The one matrix source that
reduces its own is the Hom-space assembly
(`presentations.HomSpace.morphism_from_coeffs`), which hands its reduced
rows to `Matrix.adopt`; `Matrix.block_sum` adopts the cells of its
blocks.  Two parts eliminate:

- The packed modular shortcut.  `_packed_rank` eliminates mod the
  Mersenne prime p = 2**31 - 1 on packed rows.  It gives the rank over
  F_p for this p, and it is the first try for the rank over Q of an
  all-int matrix.
- The one exact engine.  `_echelon(field, rows, reduced)` takes rows as
  fresh dicts {column: nonzero cell}, F_p cells reduced, and may change
  them; it touches only nonzeros.  Each row is reduced by the kept row
  that leads at its leading column until it vanishes or is kept: over Q
  fraction-free on cleared-denominator integer rows (cross
  multiplication, each row divided by the gcd of its cells), over F_p
  with pivots scaled to 1.  This forward pass gives the rank over other
  primes and over Q when the shortcut does not decide it, and the pivot
  columns that span a column space; with `reduced=True` a back
  substitution from the highest pivot down and, over Q, one division by
  each pivot at the end give the reduced echelon form, which rref,
  kernels, solving and row spaces read.  A linear solve A X = B runs one
  elimination of [A | B], whatever the number of right-hand columns.
  Every `Matrix` method hands its rows in as dicts and reads the result
  back; `reps.hom_dim` hands in its intertwiner constraints, which it
  builds as sparse rows.

A matrix memoizes its rank in the slot `_rank`, which only this module
writes.  Three exact certificates stand in for eliminations:

- The line bound.  Over any field the rank is at most b = min(nonzero
  rows, nonzero columns), so the packed elimination stops at b pivots.
  The rank mod p of an int matrix is at most its rank over Q, so a rank
  mod p that reaches b is the rank over Q.
- The term rank.  A rank mod p short of b is compared with the term
  rank, the most nonzero cells with no two in one line, which bounds the
  rank over Q from above as well (Edmonds 1967).  Equality certifies the
  rank over Q; otherwise the exact engine runs.  Of the generic morphism
  of a Hom space, the term rank is `presentations.cover_upper_bound`.
- Block sums.  `Matrix.block_sum` places blocks by groups of lines, so
  a row and a column permutation make the sum block-diagonal; when every
  block has a rank memo, the sum memoizes their sum.
  `presentations.combine_complexes` ranks its blocks first, so the block
  sums it builds are ranked so.

A packed row is one int with a 64-bit slot per column; cells enter,
over either field, reduced mod p.  As 2**31 = 1 (mod p),
x = (x & p) + (x >> 31) (mod p), which on a whole row S is the fold
(S & L) + ((S >> 31) & H), with L and H the low 31 and the low 33 bits
of every slot.  A fold takes a slot below 2**64 to one below
2**31 + 2**33 < 2**34, with no carry out of the slot, and a second fold
takes that below p + 8.  Each pivot row but the first, which is still
reduced, is folded twice, and every other row gains k times it,
0 <= k < p, which adds less than p * (p + 8) to a slot.  The other rows
are folded after every third pivot, so a slot stays below
2**34 + 3 * p * (p + 8) < 2**64 and no column carries into the next; the
pivot column's slot becomes a multiple of p and is shifted out.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import chain
from math import gcd, lcm


class Matrix:
    """A dense nrows x ncols matrix over `field`, as row lists.

    The constructor copies the rows and reduces F_p cells into [0, p),
    a `Fraction` by `field.from_fraction` (`adopt` takes rows that are
    fresh and finished already).  No code writes a matrix after it is
    built, so the rank memo stays valid.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "_rank")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self._rank = None
        p = field.characteristic
        self.rows = [[x % p if type(x) is int else field.from_fraction(x) for x in r]
                     for r in rows] if p else [list(r) for r in rows]
        self.nrows = len(self.rows)
        if ncols is None:
            ncols = len(self.rows[0]) if self.rows else 0
        self.ncols = ncols
        for r in self.rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")

    # -- constructors -------------------------------------------------

    @staticmethod
    def adopt(field, rows, ncols):
        """The matrix with these row lists, taken as they are: unlike the
        constructor it neither copies them nor reduces F_p cells, so the
        caller hands over fresh lists of finished cells."""
        m = Matrix.__new__(Matrix)
        m.field, m.rows, m.nrows, m.ncols, m._rank = field, rows, len(rows), ncols, None
        return m

    @staticmethod
    def zeros(field, nrows, ncols):
        z = field.zero
        return Matrix(field, [[z] * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def identity(field, n):
        z, one = field.zero, field.one
        return Matrix(field, [[one if i == j else z for j in range(n)] for i in range(n)], n)

    @staticmethod
    def from_columns(field, cols, nrows):
        """The nrows x len(cols) matrix whose columns are the vectors cols."""
        return Matrix(field, zip(*cols) if cols else [[]] * nrows, len(cols))

    # -- basics --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field.name == other.field.name
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.name})"

    def is_zero(self):
        return not any(map(any, self.rows))

    def transpose(self):
        return Matrix(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
        )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch {self.shape()} vs {other.shape()}")
        return Matrix(
            self.field,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            self.ncols,
        )

    def scale(self, c):
        return Matrix(self.field, [[c * a for a in r] for r in self.rows], self.ncols)

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape()} * {other.shape()}")
        cols = list(zip(*other.rows)) if other.nrows else [()] * other.ncols
        return Matrix(
            self.field,
            [[sum([a * b for a, b in zip(ra, cb) if a and b]) for cb in cols]
             for ra in self.rows],
            other.ncols,
        )

    def shape(self):
        return (self.nrows, self.ncols)

    # -- block assembly -------------------------------------------------

    @staticmethod
    def hstack(field, mats, nrows=None):
        mats = list(mats)
        if not mats:
            return Matrix.zeros(field, nrows or 0, 0)
        n = mats[0].nrows
        rows = [[] for _ in range(n)]
        for m in mats:
            if m.nrows != n:
                raise ValueError("hstack: row count mismatch")
            for i in range(n):
                rows[i].extend(m.rows[i])
        return Matrix(field, rows, sum(m.ncols for m in mats))

    @staticmethod
    def block_sum(field, blocks):
        """The sum of `blocks`, a list of (block, row sizes, column sizes).
        The sizes cut a block's rows, and its columns, into consecutive
        groups; row group g of the sum is row group g of each block in turn,
        and so are the column groups (ValueError for unlike numbers of groups,
        or sizes that are negative or do not add up to a block's shape).  A
        row is its block's row in `pieces`, each after the zeros that other
        blocks' columns take.  The sum memoizes the sum of the blocks' rank
        memos when all have one, so a block sum runs no elimination."""
        misfit = "block sum: the group sizes do not fit the blocks"
        pieces, ends, used, at = [[] for _ in blocks], [0] * len(blocks), [0] * len(blocks), 0
        for group in zip(*[cs for _, _, cs in blocks]):
            for k, c in enumerate(group):
                if c > 0:
                    pieces[k].append(([0] * (at - ends[k]), used[k], used[k] + c))
                    used[k] += c
                    at = ends[k] = at + c
        placed, shape = [], (len(blocks[0][1]), len(blocks[0][2])) if blocks else ()
        for (blk, rs, cs), ps, end, u in zip(blocks, pieces, ends, used):
            # sizes that add up to the shape, as their positive ones do
            if (u, sum(cs), sum(rs), len(rs), len(cs)) != (blk.ncols, u, blk.nrows, *shape):
                raise ValueError(misfit)
            rows, tail = [], [0] * (at - end)
            for r in blk.rows:
                row = []
                for zeros, a, e in ps:
                    row += zeros
                    row += r[a:e]
                rows.append(row + tail)
            placed.append(rows)
        out, used = [], [0] * len(blocks)
        for group in zip(*[rs for _, rs, _ in blocks]):
            for k, n in enumerate(group):
                if n > 0:
                    out += placed[k][used[k] : used[k] + n]
                    used[k] += n
        if used != [blk.nrows for blk, _, _ in blocks]:
            raise ValueError(misfit)
        m = Matrix.adopt(field, out, at)
        ranks = [blk._rank for blk, _, _ in blocks]
        if None not in ranks:
            m._rank = sum(ranks)
        return m

    # -- elimination-based operations ------------------------------------

    def rank(self):
        if self._rank is None:
            self._rank = self._compute_rank()
        return self._rank

    def _compute_rank(self):
        p = self.field.characteristic
        if p == _P:
            cells = array("Q", chain.from_iterable(self.rows))
            return _packed_rank(cells, self.ncols, _rank_bound(self.rows))
        r = None if p else _rank_certified_mod_p(self)
        return len(_echelon(self.field, _dict_rows(self.rows))[1]) if r is None else r

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column list)."""
        rows, pivots = _echelon(self.field, _dict_rows(self.rows), reduced=True)
        n = self.ncols
        dense = [[row.get(j, 0) for j in range(n)] for row in rows]
        dense += [[0] * n for _ in range(self.nrows - len(rows))]
        return Matrix.adopt(self.field, dense, n), pivots

    def kernel_basis(self):
        """Basis of the right null space, as a list of column vectors."""
        rows, pivots = _echelon(self.field, _dict_rows(self.rows), reduced=True)
        p = self.field.characteristic
        n = self.ncols
        pivot_set = set(pivots)
        basis = {j: [0] * n for j in range(n) if j not in pivot_set}
        for j, v in basis.items():
            v[j] = 1
        # a reduced row's cells off its pivot lie in free columns
        for row, c in zip(rows, pivots):
            for j, x in row.items():
                if j != c:
                    basis[j][c] = -x % p if p else -x
        return list(basis.values())

    def solve(self, b):
        """A particular solution of self * x = b, or None if inconsistent."""
        x = self.solve_matrix(Matrix.from_columns(self.field, [b], len(b)))
        return None if x is None else [r[0] for r in x.rows]

    def solve_matrix(self, b):
        """A particular solution X of self * X = B (free unknowns zero), or
        None if any column of B is inconsistent; one RREF of [self | B]."""
        if b.nrows != self.nrows:
            raise ValueError("solve: rhs length mismatch")
        n = self.ncols
        if not b.ncols:
            return Matrix.zeros(self.field, n, 0)
        augmented = _dict_rows(ra + rb for ra, rb in zip(self.rows, b.rows))
        rows, pivots = _echelon(self.field, augmented, reduced=True)
        if pivots and pivots[-1] >= n:
            return None
        right = range(n, n + b.ncols)
        x = [[0] * b.ncols for _ in range(n)]
        for row, c in zip(rows, pivots):
            x[c] = [row.get(j, 0) for j in right]
        return Matrix.adopt(self.field, x, b.ncols)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        inv = self.solve_matrix(Matrix.identity(self.field, self.nrows))
        if inv is None or (self.nrows and inv.rank() != self.nrows):
            return None
        return inv

    def pivot_columns(self):
        """Pivot columns of the echelon form, from the forward pass alone:
        the leftmost columns that span the column space."""
        return _echelon(self.field, _dict_rows(self.rows))[1]

    def column_space_basis(self):
        """Matrix whose columns span the column space (pivot columns)."""
        cols = [[r[j] for r in self.rows] for j in self.pivot_columns()]
        return Matrix.from_columns(self.field, cols, self.nrows)

    def row_space_rows(self):
        """Canonical (RREF) spanning rows of the row space, zero rows dropped."""
        rows = _echelon(self.field, _dict_rows(self.rows), reduced=True)[0]
        return [[row.get(j, 0) for j in range(self.ncols)] for row in rows]


# -- elimination engines -------------------------------------------------


_P = (1 << 31) - 1  # a Mersenne prime: 2**31 = 1 (mod _P)
_SLOT = (1 << 64) - 1
_LO = b"\xff\xff\xff\x7f\0\0\0\0"  # the low 31 bits of a slot
_HI = b"\xff\xff\xff\xff\x01\0\0\0"  # the low 33 bits of a slot


def _rank_bound(rows):
    """min(nonzero rows, nonzero columns), an upper bound on the rank over
    any field."""
    return min(sum(map(any, rows)), sum(map(any, zip(*rows))))


def _rank_certified_mod_p(m: Matrix):
    """The rank over Q of an all-int matrix when its rank mod _P reaches
    `_rank_bound` or `_term_rank` (see the module docstring), else None."""
    if not m.nrows or not m.ncols:
        return 0
    if type(m.rows[0][0]) is not int:
        return None  # rref/solve output: a Fraction first
    try:
        cells = array("Q", [x % _P for x in chain.from_iterable(m.rows)])
    except TypeError:  # a Fraction cell
        return None
    bound = _rank_bound(m.rows)
    rank = _packed_rank(cells, m.ncols, bound)
    return rank if rank == bound or rank == _term_rank(m.rows) else None


def _term_rank(rows):
    """The term rank of the matrix with these rows: the most nonzero cells
    with no two in one row or one column, an upper bound on the rank over
    any field (Edmonds 1967).  It is the size of a maximum matching of rows
    to columns along the nonzero cells, grown by augmenting paths that an
    explicit stack follows, so the depth is not bounded by the recursion
    limit."""
    adj = [[j for j, x in enumerate(r) if x] for r in rows]
    owner = {}  # column -> the row matched to it
    size = 0
    for root, cols in enumerate(adj):
        free = next((c for c in cols if c not in owner), None)
        if free is not None:
            owner[free] = root
            size += 1
            continue
        # depth-first search for a path root, c0, row1, c1, ... that ends in
        # a free column: path[k] is the column that row stack[k] goes to
        seen, stack, path = set(), [(root, iter(cols))], []
        while stack:
            c = next((c for c in stack[-1][1] if c not in seen), None)
            if c is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            seen.add(c)
            path.append(c)
            row = owner.get(c)
            if row is None:
                for (r, _), col in zip(stack, path):
                    owner[col] = r
                size += 1
                break
            stack.append((row, iter(adj[row])))
    return size


def _packed_rank(cells, ncols, bound):
    """The rank mod _P of the matrix whose row-major cells, reduced mod _P,
    are the array('Q') `cells`, given an upper bound on that rank (see the
    module docstring)."""
    if not bound:
        return 0
    # in native byte order: a big-endian host packs the columns in reverse,
    # which leaves the rank unchanged
    buf, w, order = cells.tobytes(), 8 * ncols, sys.byteorder
    rows = [r for i in range(0, len(buf), w) if (r := int.from_bytes(buf[i : i + w], order))]
    p, slot, rank = _P, _SLOT, 0
    for c in range(ncols):
        for i, s in enumerate(rows):
            if (s & slot) % p:
                break
        else:
            rows = [s >> 64 for s in rows]
            continue
        rank += 1
        if rank == bound:
            return rank
        piv = rows.pop(i)
        if rank > 1:  # the first pivot row is still reduced
            if rank == 2:
                lo = int.from_bytes(_LO * ncols, "little")
                hi = int.from_bytes(_HI * ncols, "little")
            piv = (piv & lo) + ((piv >> 31) & hi)
            piv = (piv & lo) + ((piv >> 31) & hi)
        neg_inv = p - pow(piv & slot, -1, p)
        # clear column c (its slot becomes a multiple of p) and drop it
        rows = [y for s in rows if (y := (s + (s & slot) * neg_inv % p * piv) >> 64)]
        if rank % 3 == 0:
            rows = [(s & lo) + ((s >> 31) & hi) for s in rows]
    return rank


def _echelon(field, rows, reduced=False):
    """(The kept rows, their pivot columns in ascending order) of the
    matrix with these rows, or with `reduced` the rows of its reduced
    echelon form (the module docstring gives the steps).  `rows` are
    fresh dicts {column: nonzero cell}, F_p cells reduced; the engine may
    change them."""
    if not rows:
        return [], []
    p = field.characteristic
    kept = {}  # leading column -> kept row
    for row in rows:
        if not p and not {int}.issuperset(map(type, row.values())):
            den = lcm(*[x.denominator for x in row.values()])
            row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
        while row:
            lead = min(row)
            prow = kept.get(lead)
            if prow is None:
                if p and row[lead] != 1:
                    inv = pow(row[lead], -1, p)
                    row = {c: x * inv % p for c, x in row.items()}
                kept[lead] = row
                break
            row = _cleared(p, row, lead, prow)
    pivots = sorted(kept)
    if reduced:
        # a kept row has no cell at the other pivot columns once every
        # higher one is done, so clearing by it adds none
        for lead in reversed(pivots):
            row = kept[lead]
            for c in [c for c in row if c != lead and c in kept]:
                row = _cleared(p, row, c, kept[c])
            kept[lead] = row
        if not p:
            for c in pivots:
                row = kept[c]
                if (d := row[c]) != 1:
                    kept[c] = {k: x // d if not x % d else Fraction(x, d) for k, x in row.items()}
    return [kept[c] for c in pivots], pivots


def _cleared(p, row, c, prow):
    """`row` with its cell at column c cleared by `prow`, whose pivot is
    at c: over F_p, row - row[c] * prow (the pivot is 1); over Q, the
    fraction-free combination pv * row - row[c] * prow, both cut by their
    gcd, and then divided by the gcd of its cells."""
    v = row[c]
    if p:
        for k, y in prow.items():
            if x := (row.pop(k, 0) - v * y) % p:
                row[k] = x
        return row
    pv = prow[c]
    g = gcd(pv, v)
    a, b = pv // g, v // g
    if a != 1:
        row = {k: a * x for k, x in row.items()}
    for k, y in prow.items():
        if x := row.pop(k, 0) - b * y:
            row[k] = x
    g = gcd(*row.values())
    if g > 1:
        row = {k: x // g for k, x in row.items()}
    return row


def _dict_rows(rows):
    """The rows as fresh dicts {column: cell} of their nonzero cells."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]
