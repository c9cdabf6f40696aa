"""Quivers, path relations, and the .qa text format.

Composition convention: `x*y` means "first y, then x", so a path word
(a_k, ..., a_1) is the composite a_k ∘ ... ∘ a_1.  The source of a word
is the source of its last arrow, the target is the target of its first.
A `.qa` file may override with a `compose: before` header, in which case
relation words are reversed on input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


class QuiverSyntaxError(ValueError):
    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


class Quiver:
    """Finite quiver with vertices 1..n and named arrows."""

    def __init__(self, n_vertices: int, arrows):
        self.n = n_vertices
        self.arrows = list(arrows)
        self.by_name = {}
        for a in self.arrows:
            if a.name in self.by_name:
                raise QuiverSyntaxError(f"duplicate arrow name {a.name!r}")
            if not (1 <= a.source <= self.n and 1 <= a.target <= self.n):
                raise QuiverSyntaxError(
                    f"arrow {a.name!r} endpoints outside vertices 1..{self.n}"
                )
            self.by_name[a.name] = a
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def arrow(self, name: str) -> Arrow:
        try:
            return self.by_name[name]
        except KeyError:
            raise QuiverSyntaxError(f"unknown arrow {name!r}") from None

    def reversed(self) -> "Quiver":
        return Quiver(self.n, [Arrow(a.name, a.target, a.source) for a in self.arrows])

    def word_source(self, word):
        return self.by_name[word[-1]].source

    def word_target(self, word):
        return self.by_name[word[0]].target

    def word_is_composable(self, word):
        for first, then in zip(word[1:], word[:-1]):
            if self.by_name[first].target != self.by_name[then].source:
                return False
        return True

    def __repr__(self):
        return f"Quiver({self.n} vertices, {len(self.arrows)} arrows)"


@dataclass(frozen=True)
class RelationPoly:
    """Linear combination of parallel composable paths of length >= 2."""

    terms: tuple  # ((Fraction coeff, word tuple), ...)
    source: int
    target: int

    @staticmethod
    def make(quiver: Quiver, terms, line=None):
        """The relation with these (coefficient, word) terms; the
        coefficients of a repeated word are summed, and words whose sum is
        zero are dropped."""
        sums = {}  # word -> summed coefficient, in order of first occurrence
        src = tgt = None
        for coeff, word in terms:
            coeff = Fraction(coeff)
            word = tuple(word)
            if coeff == 0:
                continue
            if len(word) < 2:
                raise QuiverSyntaxError(
                    f"relation path {'*'.join(word)!r} has length < 2", line
                )
            for name in word:
                quiver.arrow(name)
            if not quiver.word_is_composable(word):
                raise QuiverSyntaxError(
                    f"non-composable path {'*'.join(word)!r}", line
                )
            s, t = quiver.word_source(word), quiver.word_target(word)
            if src is None:
                src, tgt = s, t
            elif (s, t) != (src, tgt):
                raise QuiverSyntaxError(
                    f"non-parallel terms in one relation "
                    f"({s}->{t} vs {src}->{tgt})",
                    line,
                )
            sums[word] = sums.get(word, 0) + coeff
        cleaned = tuple((c, w) for w, c in sums.items() if c)
        if not cleaned:
            raise QuiverSyntaxError("empty relation", line)
        return RelationPoly(cleaned, src, tgt)


_COEF_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def _parse_term(tok, line):
    """One term: optional rational coefficient prefix then a*b*c path."""
    parts = tok.split()
    coeff = Fraction(1)
    if len(parts) == 2:
        if not _COEF_RE.match(parts[0]):
            raise QuiverSyntaxError(f"bad coefficient {parts[0]!r}", line)
        try:
            coeff = Fraction(parts[0])
        except ZeroDivisionError:
            raise QuiverSyntaxError(f"zero denominator in {parts[0]!r}", line) from None
        path_tok = parts[1]
    elif len(parts) == 1:
        path_tok = parts[0]
    else:
        raise QuiverSyntaxError(f"cannot parse term {tok!r}", line)
    word = tuple(p.strip() for p in path_tok.split("*"))
    for name in word:
        if not _NAME_RE.match(name):
            raise QuiverSyntaxError(f"bad path component {name!r}", line)
    return coeff, word


def parse_path_poly(text, line=None):
    """Parse `2 a*b - 1/2 c*d + e*f` into [(coeff, word), ...]."""
    s = text.strip()
    if not s:
        raise QuiverSyntaxError("empty expression", line)
    # split into signed chunks
    chunks = []
    sign = 1
    buf = ""
    i = 0
    while i < len(s):
        ch = s[i]
        if ch in "+-" and buf.strip():
            chunks.append((sign, buf.strip()))
            sign = 1 if ch == "+" else -1
            buf = ""
        elif ch == "-" and not buf.strip():
            sign = -sign
        elif ch == "+" and not buf.strip():
            pass
        else:
            buf += ch
        i += 1
    if buf.strip():
        chunks.append((sign, buf.strip()))
    terms = []
    for sgn, tok in chunks:
        coeff, word = _parse_term(tok, line)
        terms.append((sgn * coeff, word))
    return terms


def parse_quiver_file(text: str):
    """Parse .qa text into (Quiver, [RelationPoly]).

    Grammar (line oriented, `#` starts a comment):
        compose: after          # optional; `before` reverses words
        vertices: 1 2 3
        arrow a1: 2 -> 1
        relations:
        a1*b1
        a1*b2 - a2*b1
    """
    n_vertices = None
    arrows = []
    relation_lines = []
    in_relations = False
    compose = "after"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_relations:
            relation_lines.append((lineno, line))
            continue
        if line.startswith("compose:"):
            compose = line[len("compose:"):].strip()
            if compose not in ("after", "before"):
                raise QuiverSyntaxError(
                    f"compose must be 'after' or 'before', got {compose!r}", lineno
                )
        elif line.startswith("vertices:"):
            if n_vertices is not None:
                raise QuiverSyntaxError("duplicate vertices line", lineno)
            toks = line[len("vertices:"):].split()
            try:
                ids = [int(t) for t in toks]
            except ValueError:
                raise QuiverSyntaxError("vertices must be integers", lineno) from None
            if ids != list(range(1, len(ids) + 1)) or not ids:
                raise QuiverSyntaxError("vertices must be 1 2 ... n", lineno)
            n_vertices = len(ids)
        elif line.startswith("arrow"):
            m = re.match(r"arrow\s+(\w+)\s*:\s*(\d+)\s*->\s*(\d+)$", line)
            if not m:
                raise QuiverSyntaxError(f"cannot parse arrow line {line!r}", lineno,
                                        col=raw.find(line))
            arrows.append(Arrow(m.group(1), int(m.group(2)), int(m.group(3))))
        elif line.startswith("relations:"):
            rest = line[len("relations:"):].strip()
            if rest:
                relation_lines.append((lineno, rest))
            in_relations = True
        else:
            raise QuiverSyntaxError(f"unrecognized line {line!r}", lineno)
    if n_vertices is None:
        raise QuiverSyntaxError("missing vertices line")
    quiver = Quiver(n_vertices, arrows)
    relations = []
    for lineno, line in relation_lines:
        terms = parse_path_poly(line, lineno)
        if compose == "before":
            terms = [(c, tuple(reversed(w))) for c, w in terms]
        relations.append(RelationPoly.make(quiver, terms, lineno))
    return quiver, relations
