"""Module files (.mod.json) and inline module expressions.

A module file is a JSON object with keys "dim" (integer dimension
vector) and "arrows" (arrow name -> row-major matrix; entries are ints
or "p/q" strings), and optionally "algebra", an informational path to
the .qa source; any other key is a `ModuleFormatError`, so a misspelled
"arrows" is not read as a module with no arrows.  `module_to_dict`
gives this object.
Expressions like "S(2)+S(3)" or "P(1)^2+I(2)" name sums of standard
modules directly on the command line.  Either form is a
`ModuleFormatError` when its total dimension exceeds `MAX_MODULE_DIM`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .fields import QQ
from .linalg import Matrix
from .reps import Representation, check_relations, direct_sum, injective, projective, simple


class ModuleFormatError(ValueError):
    pass


# Largest total dimension a loaded module may have, checked before the
# module is assembled.  Every exact elimination touches only nonzero
# cells, but the matrices of covers, presentations and kernels are built
# and multiplied dense, and the cap bounds them all.  With it lifted,
# `check` on ALG-A's S(2)^k, the slowest fixture module measured per
# dimension, took 0.2 s at k = 10, 0.4 s at k = 15, 0.8 s at k = 20 and
# 4.0 s at k = 40, and on I(1)^40 (dimension 280) 19 s (Python 3.11,
# 2-CPU Linux host).  At the cap, `check` and `reduce` end in about 0.4 s.
MAX_MODULE_DIM = 15


def _check_size(total):
    if total > MAX_MODULE_DIM:
        raise ModuleFormatError(f"module of total dimension {total} is above the cap of "
                                f"{MAX_MODULE_DIM}")


def _parse_scalar(field, x):
    if type(x) is int:  # a JSON true or false parses as a bool, an int subclass
        return field.from_int(x)
    if isinstance(x, str):
        try:
            return field.from_fraction(Fraction(x))
        except (ValueError, ZeroDivisionError) as exc:
            raise ModuleFormatError(f"bad matrix entry {x!r}: {exc}") from None
    raise ModuleFormatError(f"matrix entries must be ints or 'p/q' strings, got {x!r}")


def module_from_dict(algebra, data, field=QQ):
    if not isinstance(data, dict):
        raise ModuleFormatError("a module file must hold a JSON object")
    unknown = sorted(set(data) - {"dim", "arrows", "algebra"})
    if unknown:
        raise ModuleFormatError(f"unknown key {unknown[0]!r} in module file "
                                "(the keys are 'dim', 'arrows' and 'algebra')")
    if "dim" not in data:
        raise ModuleFormatError("module file is missing 'dim'")
    dims = data["dim"]
    if not isinstance(dims, list) or len(dims) != algebra.quiver.n or any(
        type(d) is not int or d < 0 for d in dims
    ):
        raise ModuleFormatError("'dim' must be a vector of non-negative ints, one per vertex")
    _check_size(sum(dims))
    arrows = {}
    raw = data.get("arrows", {})
    if not isinstance(raw, dict):
        raise ModuleFormatError("'arrows' must map arrow names to matrices")
    for name, grid in raw.items():
        arrow = algebra.quiver.by_name.get(name)
        if arrow is None:
            raise ModuleFormatError(f"unknown arrow {name!r} in module file")
        nrows, ncols = dims[arrow.target - 1], dims[arrow.source - 1]
        if not isinstance(grid, list) or len(grid) != nrows or any(
            not isinstance(r, list) or len(r) != ncols for r in grid
        ):
            raise ModuleFormatError(
                f"arrow {name!r} matrix must be {nrows}x{ncols} (target x source)"
            )
        arrows[name] = Matrix(field, [[_parse_scalar(field, x) for x in r] for r in grid],
                              ncols)
    m = Representation(algebra, field, tuple(dims), arrows)
    check_relations(m)
    return m


def load_module_file(algebra, path, field=QQ):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return module_from_dict(algebra, data, field)


def module_to_dict(m: Representation):
    f = m.field
    return {
        "dim": list(m.dims),
        "arrows": {
            name: [[f.to_json(x) for x in row] for row in mat.rows]
            for name, mat in m.arrows.items()
        },
    }


_TERM_RE = re.compile(r"^([SPI])\((\d+)\)(?:\^(\d+))?$")


def module_from_expr(algebra, expr, field=QQ):
    """Sums of standard modules: e.g. 'S(2)+S(3)', 'P(1)^2+I(2)'."""
    makers = {"S": simple, "P": projective, "I": injective}
    parts = []
    for raw in expr.replace(" ", "").split("+"):
        m = _TERM_RE.match(raw)
        if not m:
            raise ModuleFormatError(
                f"cannot parse module term {raw!r}; expected S(i), P(i) or I(i) "
                "with an optional ^power"
            )
        kind, vertex, power = m.group(1), int(m.group(2)), int(m.group(3) or 1)
        if vertex not in algebra.idempotent_index:
            raise ModuleFormatError(f"vertex {vertex} does not exist in this algebra")
        parts.append((makers[kind](algebra, vertex, field), power))
    total = sum(p.dim_total * power for p, power in parts)
    if not total:
        raise ModuleFormatError("empty module expression")
    _check_size(total)
    return direct_sum([p for p, power in parts for _ in range(power)])


def load_module_arg(algebra, arg, field=QQ):
    """A module argument is a .mod.json path or an inline expression."""
    if arg.endswith(".json"):
        return load_module_file(algebra, arg, field)
    return module_from_expr(algebra, arg, field)
