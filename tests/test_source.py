"""Rules on the package source, checked on its syntax trees."""

import ast
from pathlib import Path

import taurank

PACKAGE = Path(taurank.__file__).parent


def modules():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def is_rows(node):
    """Whether node is an attribute named `rows`, such as m.rows."""
    return isinstance(node, ast.Attribute) and node.attr == "rows"


def row_aliases(tree):
    """Names bound to a row of some X.rows: a for-loop target over X.rows,
    or over zip(..., X.rows, ...) or enumerate(X.rows) at the place of
    X.rows, and the target of an assignment from X.rows[...].  The target
    of a comprehension is left out: its scope holds no assignment."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            target, it = node.target, node.iter
            if is_rows(it):
                names.add(target)
            elif isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                    and isinstance(target, ast.Tuple):
                if it.func.id == "zip":
                    names.update(t for t, a in zip(target.elts, it.args) if is_rows(a))
                elif it.func.id == "enumerate" and it.args and is_rows(it.args[0]):
                    names.add(target.elts[1])
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript) \
                and is_rows(node.value.value):
            names.update(node.targets)
    return {n.id for n in names if isinstance(n, ast.Name)}


def scopes(tree):
    """The functions of a module, and its statements outside them."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    rest = ast.Module([n for n in tree.body if not isinstance(n, defs)], [])
    return [rest, *(n for n in ast.walk(tree) if isinstance(n, defs[:2]))]


def written_rows(tree):
    """Line numbers of the assignments to a subscript of an attribute named
    `rows`, such as m.rows[i][j] = x or m.rows[i] = r, or of a name that
    `row_aliases` binds to a row in the same function, such as row[j] = x."""
    lines = set()
    for scope in scopes(tree):
        aliases = row_aliases(scope)
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for t in ast.walk(target):
                    if not isinstance(t, ast.Subscript):
                        continue
                    base = t.value
                    while isinstance(base, ast.Subscript):
                        base = base.value
                    if is_rows(base) or isinstance(base, ast.Name) and base.id in aliases:
                        lines.add(t.lineno)
    return sorted(lines)


def test_only_linalg_writes_matrix_cells():
    # a cell written after rank() would leave a wrong rank memo behind
    writes = {name: lines for name, tree in modules().items()
              if name != "linalg.py" and (lines := written_rows(tree))}
    assert writes == {}


def test_the_rule_sees_cell_writes():
    tree = ast.parse("m.rows[0][1] = x\nm.rows[2] = r\nm.rows[0][1] += x\nrow[0] = m.rows[1]\n")
    assert written_rows(tree) == [1, 2, 3]


def test_the_rule_sees_cell_writes_through_a_row():
    tree = ast.parse(
        "for row in m.rows:\n    row[0] = x\n"
        "r = m.rows[1]\nr[2] = x\n"
        "for row2, y in zip(m.rows, ys):\n    row2[1] += y\n    y[0] = 1\n"
        "for i, row3 in enumerate(m.rows):\n    row3[i] = 0\n"
        "new = [0] * n\nnew[0] = m.rows[0][0]\n"
    )
    assert row_aliases(tree) == {"row", "r", "row2", "row3"}
    assert written_rows(tree) == [2, 4, 6, 9]
    # an alias holds in the function that binds it
    tree = ast.parse("def f(m):\n    r = m.rows[0]\n    r[0] = 1\n"
                     "def g(n):\n    r = [0] * n\n    r[0] = 1\n")
    assert written_rows(tree) == [3]


def unused_imports(tree):
    """Names bound by module-level imports that the module never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {name: line for name, line in bound.items() if name not in read}


def test_no_unused_imports():
    # __init__.py imports the public names to re-export them
    unused = {name: found for name, tree in modules().items()
              if name != "__init__.py" and (found := unused_imports(tree))}
    assert unused == {}


def test_the_rule_sees_unused_imports():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from x import a, b as c\nprint(a)\n")
    assert unused_imports(tree) == {"os": 2, "c": 3}
