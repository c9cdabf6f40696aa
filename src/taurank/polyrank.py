"""Symbolic generic-rank oracle: sparse multivariate polynomials and
fraction-free (Bareiss) elimination over the rational function field.

The oracle certifies the maximal rank attained on a linear family of
matrices: the rank of the family's generic member over Q(x_1..x_m)
equals the maximum rank of any specialization over any extension field
of characteristic zero.  Budgets keep it at desk scale; exceeding one
raises `OracleBudgetError` instead of grinding.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import QQ


ORACLE_MAX_DIM = 40  # largest matrix side the oracle eliminates
ORACLE_MAX_TERMS = 60000  # most terms an entry may reach during elimination


class OracleBudgetError(RuntimeError):
    """Raised when the symbolic oracle would exceed its configured budget."""


class Poly:
    """Multivariate polynomial: dict of exponent tuples -> Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = terms if terms is not None else {}

    @staticmethod
    def const(nvars, c):
        c = Fraction(c)
        if c == 0:
            return Poly(nvars)
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars, i, c=1):
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly(nvars, {mono: Fraction(c)})

    def is_zero(self):
        return not self.terms

    def n_terms(self):
        return len(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) - c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.nvars, out)

    def mul(self, other, max_terms=None):
        if not self.terms or not other.terms:
            return Poly(self.nvars)
        # iterate over the smaller factor
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
            if max_terms is not None and len(out) > max_terms:
                raise OracleBudgetError(
                    f"polynomial exceeded {max_terms} terms during elimination"
                )
        return Poly(self.nvars, out)

    def __mul__(self, other):
        return self.mul(other)

    def lead(self):
        """Leading (monomial, coeff) under graded lex; None for zero."""
        if not self.terms:
            return None
        m = max(self.terms, key=lambda e: (sum(e), e))
        return m, self.terms[m]

    def exact_div(self, divisor):
        """Exact division; raises ArithmeticError if not divisible."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly(self.nvars)
        dl, dc = divisor.lead()
        rem = dict(self.terms)
        quo = {}
        while rem:
            rpoly = Poly(self.nvars, rem)
            rl, rc = rpoly.lead()
            qm = tuple(a - b for a, b in zip(rl, dl))
            if any(e < 0 for e in qm):
                raise ArithmeticError("inexact polynomial division")
            qc = rc / dc
            quo[qm] = quo.get(qm, 0) + qc
            for m, c in divisor.terms.items():
                mm = tuple(a + b for a, b in zip(qm, m))
                s = rem.get(mm, 0) - qc * c
                if s:
                    rem[mm] = s
                else:
                    rem.pop(mm, None)
        return Poly(self.nvars, quo)

    def evaluate(self, point, field=QQ):
        """Evaluate at a point (list of field scalars)."""
        acc = field.zero
        for m, c in self.terms.items():
            v = field.from_fraction(c)
            for e, x in zip(m, point):
                for _ in range(e):
                    v = field.mul(v, x)
            acc = field.add(acc, v)
        return acc

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items(), key=lambda e: (sum(e[0]), e[0]), reverse=True):
            mono = "*".join(
                f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class PolyMatrix:
    """Dense matrix of Poly entries, all sharing one variable set."""

    __slots__ = ("nrows", "ncols", "nvars", "entries")

    def __init__(self, nrows, ncols, nvars, entries):
        self.nrows = nrows
        self.ncols = ncols
        self.nvars = nvars
        self.entries = entries
        if len(entries) != nrows or any(len(r) != ncols for r in entries):
            raise ValueError("entry grid does not match shape")

    @staticmethod
    def zeros(nrows, ncols, nvars):
        return PolyMatrix(
            nrows, ncols, nvars, [[Poly(nvars) for _ in range(ncols)] for _ in range(nrows)]
        )

    def evaluate(self, point, field=QQ):
        from .linalg import Matrix

        return Matrix(
            field,
            [[e.evaluate(point, field) for e in row] for row in self.entries],
            self.ncols,
        )


def poly_rank(pm: PolyMatrix, max_dim: int = ORACLE_MAX_DIM,
              max_terms: int = ORACLE_MAX_TERMS) -> int:
    """Rank of `pm` over the rational function field Q(x_1..x_m).

    Fraction-free Bareiss elimination with exact polynomial pivots; the
    pivot with the fewest terms is chosen at each step to limit growth.
    Equals the maximal rank of any specialization of the variables over
    an algebraically closed field of characteristic zero.
    """
    if pm.nrows > max_dim or pm.ncols > max_dim:
        raise OracleBudgetError(
            f"matrix {pm.nrows}x{pm.ncols} exceeds oracle size budget {max_dim}"
        )
    m = [row[:] for row in pm.entries]
    rows = list(range(pm.nrows))
    cols = list(range(pm.ncols))
    prev = Poly.const(pm.nvars, 1)
    rank = 0
    while rank < len(rows) and rank < len(cols):
        piv = None
        best = None
        for ri in range(rank, len(rows)):
            for ci in range(rank, len(cols)):
                e = m[rows[ri]][cols[ci]]
                if not e.is_zero():
                    t = e.n_terms()
                    if best is None or t < best:
                        best, piv = t, (ri, ci)
                        if t == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        ri, ci = piv
        rows[rank], rows[ri] = rows[ri], rows[rank]
        cols[rank], cols[ci] = cols[ci], cols[rank]
        p = m[rows[rank]][cols[rank]]
        for i in range(rank + 1, len(rows)):
            r_i = rows[i]
            lead = m[r_i][cols[rank]]
            for j in range(rank + 1, len(cols)):
                c_j = cols[j]
                num = p.mul(m[r_i][c_j], max_terms)
                if not lead.is_zero():
                    num = num - lead.mul(m[rows[rank]][c_j], max_terms)
                m[r_i][c_j] = num.exact_div(prev)
                if m[r_i][c_j].n_terms() > max_terms:
                    raise OracleBudgetError(
                        f"entry exceeded {max_terms} terms during elimination"
                    )
            m[r_i][cols[rank]] = Poly(pm.nvars)
        prev = p
        rank += 1
    return rank
