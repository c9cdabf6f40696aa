"""Rules on the package source, checked on its syntax trees."""

import ast
from pathlib import Path

import taurank

PACKAGE = Path(taurank.__file__).parent


def modules():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def written_rows(tree):
    """Line numbers of the assignments to a subscript of an attribute named
    `rows`, such as m.rows[i][j] = x or m.rows[i] = r."""
    lines = []
    for node in ast.walk(tree):
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
                if isinstance(base, ast.Attribute) and base.attr == "rows":
                    lines.append(t.lineno)
    return sorted(set(lines))


def test_only_linalg_writes_matrix_cells():
    # a cell written after rank() would leave a wrong rank memo behind
    writes = {name: lines for name, tree in modules().items()
              if name != "linalg.py" and (lines := written_rows(tree))}
    assert writes == {}


def test_the_rule_sees_cell_writes():
    tree = ast.parse("m.rows[0][1] = x\nm.rows[2] = r\nm.rows[0][1] += x\nrow[0] = m.rows[1]\n")
    assert written_rows(tree) == [1, 2, 3]


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
