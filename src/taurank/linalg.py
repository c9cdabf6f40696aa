"""Dense exact matrices: rank, null spaces, solving, block assembly.

Cells are plain Python numbers in row-major lists: over Q an `int` or a
`Fraction` (the two mix freely), over F_p an `int` in [0, p).  The
arithmetic uses Python's operators on them, and `Matrix.__init__` is the
one place that reduces F_p cells, so every matrix is built from its
finished cells.  Two engines eliminate:

- `_packed_rank` eliminates mod the Mersenne prime p = 2**31 - 1 on
  packed rows.  It gives the rank over F_p for this p, and it is the
  first try for the rank over Q of an all-int matrix.
- `_echelon` serves every other elimination.  Over Q it runs on
  cleared-denominator integer rows (fraction-free: cross multiplication
  with per-row gcd normalization), over F_p on rows with pivots scaled to
  1.  Its forward pass gives the rank over other primes and over Q when
  the packed shortcut does not decide it, and the pivot columns that
  span a column space; with `reduced=True` the same
  loop clears above each pivot too and gives the reduced echelon form,
  which rref, kernels, solving and row spaces read.  A linear solve
  A X = B runs one elimination of [A | B], whatever the number of
  right-hand columns.

Over any field the rank is at most b = min(nonzero rows, nonzero
columns), so the packed elimination stops at b pivots.  The rank mod p
of an int matrix is at most its rank over Q, so a rank mod p that
reaches b is the rank over Q; otherwise the exact elimination runs.

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

    The constructor copies the rows and reduces F_p cells into [0, p).  A
    cell written in place into a matrix already built must therefore be
    reduced already (a field element from `field`, or a cell of another
    matrix over it), and it must be written before any `rank` call,
    because `rank` memoizes its result on the matrix.  The code that
    writes cells in place (`identity` and `block_diag` here; `projective`,
    `cokernel`, `projective_cover` and `conjugate` in `reps`) fills a
    matrix it has just made.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "_rank")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self._rank = None
        p = field.characteristic
        self.rows = [[x % p for x in r] for r in rows] if p else [list(r) for r in rows]
        self.nrows = len(self.rows)
        if ncols is None:
            ncols = len(self.rows[0]) if self.rows else 0
        self.ncols = ncols
        for r in self.rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(field, nrows, ncols):
        z = field.zero
        return Matrix(field, [[z] * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def identity(field, n):
        m = Matrix.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    @staticmethod
    def from_int_rows(field, rows, ncols=None):
        conv = field.from_int
        return Matrix(field, [[conv(x) for x in r] for r in rows], ncols)

    @staticmethod
    def from_columns(field, cols, nrows):
        """The nrows x len(cols) matrix whose columns are the vectors cols."""
        return Matrix(field, zip(*cols) if cols else [[]] * nrows, len(cols))

    # -- basics --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
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
        self._check_same_shape(other)
        return Matrix(
            self.field,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __neg__(self):
        return Matrix(self.field, [[-a for a in r] for r in self.rows], self.ncols)

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

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        p = self.field.characteristic
        out = [sum([a * b for a, b in zip(r, vec) if a and b]) for r in self.rows]
        return [x % p for x in out] if p else out

    def shape(self):
        return (self.nrows, self.ncols)

    def _check_same_shape(self, other):
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch {self.shape()} vs {other.shape()}")

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
    def vstack(field, mats, ncols=None):
        mats = list(mats)
        if not mats:
            return Matrix.zeros(field, 0, ncols or 0)
        c = mats[0].ncols
        rows = []
        for m in mats:
            if m.ncols != c:
                raise ValueError("vstack: column count mismatch")
            rows.extend(m.rows)
        return Matrix(field, rows, c)

    @staticmethod
    def block_diag(field, mats):
        nr = sum(m.nrows for m in mats)
        nc = sum(m.ncols for m in mats)
        out = Matrix.zeros(field, nr, nc)
        r0 = c0 = 0
        for m in mats:
            for i, row in enumerate(m.rows):
                out.rows[r0 + i][c0 : c0 + m.ncols] = row
            r0 += m.nrows
            c0 += m.ncols
        return out

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
        return len(_echelon(self)[1]) if r is None else r

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column list)."""
        rows, pivots = _echelon(self, reduced=True)
        rows += [[self.field.zero] * self.ncols for _ in range(self.nrows - len(rows))]
        return Matrix(self.field, rows, self.ncols), pivots

    def kernel_basis(self):
        """Basis of the right null space, as a list of column vectors."""
        rows, pivots = _echelon(self, reduced=True)
        f = self.field
        p = f.characteristic
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for fcol in free:
            v = [f.zero] * self.ncols
            v[fcol] = f.one
            for row, c in zip(rows, pivots):
                v[c] = -row[fcol] % p if p else -row[fcol]
            basis.append(v)
        return basis

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
        rows, pivots = _echelon(Matrix.hstack(self.field, [self, b]), reduced=True)
        if pivots and pivots[-1] >= n:
            return None
        x = [[self.field.zero] * b.ncols for _ in range(n)]
        for row, p in zip(rows, pivots):
            x[p] = row[n:]
        return Matrix(self.field, x, b.ncols)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        inv = self.solve_matrix(Matrix.identity(self.field, self.nrows))
        if inv is None or (self.nrows and inv.rank() != self.nrows):
            return None
        return inv

    def column_space_basis(self):
        """Matrix whose columns span the column space (pivot columns)."""
        pivots = _echelon(self)[1]
        return Matrix.from_columns(
            self.field, [[r[j] for r in self.rows] for j in pivots], self.nrows
        )

    def row_space_rows(self):
        """Canonical (RREF) spanning rows of the row space, zero rows dropped."""
        return _echelon(self, reduced=True)[0]


# -- elimination engines -------------------------------------------------


def _int_rows(m: Matrix):
    """Clear denominators of int or Fraction entries: integer rows (Q only)."""
    out = []
    for row in m.rows:
        den = lcm(*[x.denominator for x in row])
        if den == 1:
            ints = [x.numerator for x in row]
        else:
            ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


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
    `_rank_bound` (see the module docstring), else None."""
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
    return rank if rank == bound else None


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


def _echelon(m: Matrix, reduced=False):
    """Row echelon form of m: (its nonzero rows, their pivot columns).

    Over Q the elimination runs on `_int_rows`: each step takes the
    smallest |pivot| in its column, clears the column by cross
    multiplication and divides each changed row by the gcd of its cells.
    Over F_p each pivot row is scaled to 1.  With `reduced`, each step also
    clears the rows above its pivot and, over Q, each row is divided by its
    pivot at the end, which gives the reduced echelon form over the field.
    """
    p = m.field.characteristic
    rows = list(m.rows) if p else _int_rows(m)  # rows are replaced, never mutated
    nrows = len(rows)
    pivots = []
    for c in range(m.ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = best = None
        for i in range(r, nrows):
            v = rows[i][c]
            if v:
                a = abs(v)
                if best is None or a < best:
                    best, piv = a, i
                    if a == 1:
                        break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pv = prow[c]
        if p:
            inv = pow(pv, -1, p)
            rows[r] = prow = [x * inv % p for x in prow]
        # prow is zero left of c, so whole rows combine
        for i in range(0 if reduced else r + 1, nrows):
            ri = rows[i]
            v = ri[c]
            if v and i != r:
                if p:
                    rows[i] = [(x - v * y) % p for x, y in zip(ri, prow)]
                else:
                    g = gcd(pv, v)
                    a, b = pv // g, v // g
                    ri = [a * x - b * y for x, y in zip(ri, prow)]
                    g = gcd(*ri)
                    rows[i] = [x // g for x in ri] if g > 1 else ri
        pivots.append(c)
    rows = rows[: len(pivots)]
    if reduced and not p:
        rows = [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
    return rows, pivots


def intersect_row_spaces(field, rows_u, rows_v, ncols):
    """Canonical basis rows of span(rows_u) ∩ span(rows_v)."""
    if not rows_u or not rows_v:
        return []
    mu = Matrix(field, rows_u, ncols)
    mv = Matrix(field, rows_v, ncols)
    # x = a·U = b·V  <=>  [U^T | -V^T] (a,b)^T = 0
    stacked = Matrix.hstack(field, [mu.transpose(), (-mv).transpose()])
    combos = stacked.kernel_basis()
    if not combos:
        return []
    a = Matrix(field, [w[: mu.nrows] for w in combos], mu.nrows)
    return (a * mu).row_space_rows()
