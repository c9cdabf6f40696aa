"""Dense exact matrices: rank, null spaces, solving, block assembly.

Matrices are row-major lists over a coefficient field from `fields`; a
Q entry is an `int` or a `Fraction`, and an F_p entry an `int` in
[0, p), reduced when the matrix is built.  Two engines serve them:

- `_packed_rank` eliminates mod the Mersenne prime p = 2**31 - 1 on
  packed rows.  It gives the rank over F_p for this p, and it is the
  first try for the rank over Q of an all-int matrix.
- Row-list elimination serves rref, kernels and solving, and ranks over
  other primes or of Q matrices with a `Fraction` cell: over Q on
  cleared-denominator integer rows (cross multiplication with per-row
  gcd normalization), over F_p with plain modular row operations.  A
  linear solve A X = B runs one elimination of [A | B], whatever the
  number of right-hand columns.

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
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        self.field = field
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
        z = self.field.is_zero
        return all(z(x) for r in self.rows for x in r)

    def transpose(self):
        return Matrix(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
        )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._check_same_shape(other)
        add = self.field.add
        return Matrix(
            self.field,
            [
                [add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.ncols,
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        sub = self.field.sub
        return Matrix(
            self.field,
            [
                [sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.ncols,
        )

    def __neg__(self):
        neg = self.field.neg
        return Matrix(self.field, [[neg(a) for a in r] for r in self.rows], self.ncols)

    def scale(self, c):
        mul = self.field.mul
        return Matrix(self.field, [[mul(c, a) for a in r] for r in self.rows], self.ncols)

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape()} * {other.shape()}")
        f = self.field
        add, mul, zero, is_zero = f.add, f.mul, f.zero, f.is_zero
        bt = other.transpose().rows
        out = []
        for ra in self.rows:
            row = []
            for cb in bt:
                acc = zero
                for a, b in zip(ra, cb):
                    if not is_zero(a) and not is_zero(b):
                        acc = add(acc, mul(a, b))
                row.append(acc)
            out.append(row)
        return Matrix(f, out, other.ncols)

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        f = self.field
        out = []
        for r in self.rows:
            acc = f.zero
            for a, b in zip(r, vec):
                if not f.is_zero(a) and not f.is_zero(b):
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return out

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
        p = self.field.characteristic
        if p == _P:
            cells = array("Q", chain.from_iterable(self.rows))
            return _packed_rank(cells, self.ncols, _rank_bound(self.rows))
        if p:
            return len(_echelon_p(self)[1])
        r = _rank_certified_mod_p(self)
        return len(_echelon_q(self)[1]) if r is None else r

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column list)."""
        rows, pivots = _rref_rows(self)
        m = Matrix.zeros(self.field, self.nrows, self.ncols)
        for i, r in enumerate(rows):
            m.rows[i] = list(r)
        return m, pivots

    def kernel_basis(self):
        """Basis of the right null space, as a list of column vectors."""
        rows, pivots = _rref_rows(self)
        f = self.field
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for fcol in free:
            v = [f.zero] * self.ncols
            v[fcol] = f.one
            for i, p in enumerate(pivots):
                v[p] = f.neg(rows[i][fcol])
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
        rows, pivots = _rref_rows(Matrix.hstack(self.field, [self, b]))
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
        _, pivots = _rref_rows(self)
        return Matrix.from_columns(
            self.field, [[r[j] for r in self.rows] for j in pivots], self.nrows
        )

    def row_space_rows(self):
        """Canonical (RREF) spanning rows of the row space, zero rows dropped."""
        rows, pivots = _rref_rows(self)
        return [list(rows[i]) for i in range(len(pivots))]


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


def _echelon_q(m: Matrix):
    rows = _int_rows(m)
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = None
        best = None
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
        # entries left of c are zero in both rows, so whole rows combine
        for i in range(r + 1, nrows):
            ri = rows[i]
            v = ri[c]
            if v:
                g = gcd(pv, v)
                a, b = pv // g, v // g
                ri = [a * x - b * y for x, y in zip(ri, prow)]
                g2 = gcd(*ri)
                if g2 > 1:
                    ri = [x // g2 for x in ri]
                rows[i] = ri
        pivots.append(c)
        r += 1
    return rows[: len(pivots)], pivots


def _echelon_p(m: Matrix):
    p = m.field.p
    rows = list(m.rows)  # rows are replaced, never mutated in place
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        # entries left of c are zero in both rows, so whole rows combine
        rows[r] = prow = [x * inv % p for x in rows[r]]
        for i in range(r + 1, nrows):
            v = rows[i][c]
            if v:
                rows[i] = [(x - v * y) % p for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return rows[: len(pivots)], pivots


def _rref_rows(m: Matrix):
    """Reduced echelon rows over the field (list of lists), plus pivots."""
    f = m.field
    if f.characteristic == 0:
        rows, pivots = _echelon_q(m)
        rows = [[Fraction(x) for x in row] for row in rows]
    else:
        rows, pivots = _echelon_p(m)
    # normalize pivots to 1, then clear above
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        inv = f.div(f.one, rows[i][p])
        rows[i] = [f.mul(inv, x) for x in rows[i]]
        for k in range(i):
            v = rows[k][p]
            if not f.is_zero(v):
                rows[k] = [f.sub(a, f.mul(v, b)) for a, b in zip(rows[k], rows[i])]
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
    vecs = []
    for w in combos:
        a = w[: mu.nrows]
        vec = [field.zero] * ncols
        for coef, row in zip(a, mu.rows):
            if not field.is_zero(coef):
                vec = [field.add(x, field.mul(coef, y)) for x, y in zip(vec, row)]
        vecs.append(vec)
    if not vecs:
        return []
    return Matrix(field, vecs, ncols).row_space_rows()
