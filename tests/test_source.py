"""Rules on the package source, checked on its syntax trees."""

import ast
import re
from pathlib import Path

import taurank

PACKAGE = Path(taurank.__file__).parent
REPO = Path(__file__).resolve().parents[1]


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


def rank_writes(tree):
    """Line numbers of the stores to an attribute named `_rank`, such as
    m._rank = r, m._rank += r or a, m._rank = x, y."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "_rank"
                   and isinstance(node.ctx, ast.Store)})


def test_only_linalg_writes_rank_memos():
    # a memo set anywhere else could disagree with the cells it stands for
    writes = {name: lines for name, tree in modules().items()
              if name != "linalg.py" and (lines := rank_writes(tree))}
    assert writes == {}


def test_the_rule_sees_rank_writes():
    tree = ast.parse("m._rank = 3\nx.y._rank += 1\na, b._rank = 1, 2\nprint(m._rank)\n"
                     "for m._rank in ranks:\n    pass\nm.rank_ = 0\n")
    assert rank_writes(tree) == [1, 2, 3, 5]


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


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

def local_names(node):
    """The names that a function binds for itself: its arguments, and the
    names it stores or deletes outside the functions and classes it
    defines, less those it declares global or nonlocal.  Any other node
    binds none."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    a = node.args
    names = {arg.arg for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
             if arg}
    declared, todo = set(), list(node.body)
    while todo:
        n = todo.pop()
        if isinstance(n, DEFS):
            continue
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, (ast.Global, ast.Nonlocal)):
            declared.update(n.names)
        todo.extend(ast.iter_child_nodes(n))
    return names - declared


def read_names(node):
    """Identifiers that node reads outside the functions and classes it
    defines: names other than its own locals, attribute names, and string
    constants that are identifiers (the tracer names the methods it wraps
    by string)."""
    names, todo, local = set(), list(ast.iter_child_nodes(node)), local_names(node)
    while todo:
        n = todo.pop()
        if isinstance(n, DEFS):
            continue
        if isinstance(n, ast.Name):
            if n.id not in local:
                names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            names.add(n.value)
        todo.extend(ast.iter_child_nodes(n))
    return names


def definitions(tree):
    """(definition, the definition around it or None) for every function,
    method and class in tree."""
    out, todo = [], [(tree, None)]
    while todo:
        node, around = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                out.append((child, around))
                todo.append((child, child))
            else:
                todo.append((child, around))
    return out


def all_read_names(tree):
    """Identifiers read anywhere in tree, dead code included."""
    return read_names(tree).union(*(read_names(d) for d, _ in definitions(tree)))


def outside_readers():
    """Names read outside the package and the tests: by benchmarks/*.py,
    the README's python blocks and the pyproject.toml script entries."""
    trees = [ast.parse(path.read_text()) for path in sorted((REPO / "benchmarks").glob("*.py"))]
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    trees += [ast.parse(code) for code in re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)]
    names = set().union(*map(all_read_names, trees))
    pyproject = (REPO / "pyproject.toml").read_text()
    (scripts,) = re.findall(r"^\[project\.scripts\]\n(.*?)^$", pyproject, re.M | re.S)
    return names | set(re.findall(r':(\w+)"', scripts))


def unread_definitions(trees, readers):
    """'module:name' of each definition that no live place reads, by name.

    The places outside every definition are live, and so is each
    definition whose name `readers` holds or a live place reads, when the
    definition around it (if any) is live; a dunder needs only that.  Code
    that only dead code reads is dead too."""
    defs = [(module, d, around) for module, tree in trees.items()
            for d, around in definitions(tree)]
    read = set(readers).union(*map(read_names, trees.values()))
    live, grew = set(), True
    while grew:
        grew = False
        for _, d, around in defs:
            if id(d) not in live and (around is None or id(around) in live) and (
                    d.name in read or d.name.startswith("__") and d.name.endswith("__")):
                live.add(id(d))
                read |= read_names(d)
                grew = True
    return sorted(f"{module}:{d.name}" for module, d, _ in defs if id(d) not in live)


def test_every_definition_has_a_reader_outside_the_tests():
    assert unread_definitions(modules(), outside_readers()) == []


def test_the_rule_sees_unread_definitions():
    tree = ast.parse(
        "def used():\n    helper()\n"
        "def helper():\n    pass\n"
        "def dead():\n    inner()\n"
        "def inner():\n    pass\n"
        "class C:\n    def __eq__(self, o):\n        return self.m()\n"
        "    def m(self):\n        pass\n"
        "    def gone(self):\n        gone_too()\n"
        "def gone_too():\n    pass\n"
        "def recursive():\n    recursive()\n"
        "def by_string():\n    pass\n"
        "class Dead:\n    def __init__(self):\n        kept_by_dead()\n"
        "def kept_by_dead():\n    pass\n"
        "TRACED = ['by_string']\n"
        "used, C\n"
    )
    assert unread_definitions({"m.py": tree}, set()) == [
        "m.py:Dead", "m.py:__init__", "m.py:dead", "m.py:gone", "m.py:gone_too",
        "m.py:inner", "m.py:kept_by_dead", "m.py:recursive"]
    assert "m.py:dead" not in unread_definitions({"m.py": tree}, {"dead"})


def test_the_rule_skips_a_functions_own_locals():
    tree = ast.parse(
        "def f(arg, *rest, key=None, **kw):\n"
        "    top = arg\n"
        "    for each in rest:\n        del kw\n"
        "    return top, each, key, kw, shared, helper()\n"
        "def g():\n"
        "    global shared\n"
        "    shared = 1\n"
        "    def inner():\n        gone = 2\n"
        "    return shared, gone, inner\n"
    )
    f, g = tree.body
    assert read_names(f) == {"shared", "helper"}
    # a def binds no local here, so the function it defines stays read
    assert read_names(g) == {"shared", "gone", "inner"}
    # a local that shares its name with a definition does not keep it live
    tree = ast.parse("def top():\n    pass\ndef build(x):\n    top = x\n    return top\nbuild\n")
    assert unread_definitions({"m.py": tree}, set()) == ["m.py:top"]


def readers(tree, name):
    """The name of the function or class around each read of `name`, as an
    attribute (x.name) or a plain name, sorted; "<module>" outside them."""
    found, todo = [], [(tree, "<module>")]
    while todo:
        node, around = todo.pop()
        for child in ast.iter_child_nodes(node):
            if name in (getattr(child, "attr", None), getattr(child, "id", None)):
                found.append(around)
            todo.append((child, child.name if isinstance(child, DEFS) else around))
    return sorted(found)


def test_only_the_hom_template_reads_right_multiplication():
    # one description of Hom(P1, P0): the templates, which the gather plan,
    # the oracle's matrices and the cover bound all read
    found = {name: found for name, tree in modules().items()
             if (found := readers(tree, "right_mult_blocks"))}
    assert found == {"presentations.py": ["_hom_template"]}


def test_the_rule_sees_reads_of_a_name():
    tree = ast.parse(
        "def f(alg):\n    return alg.right_mult_blocks(1, 2)\n"
        "class C:\n    def g(self):\n        def h():\n            right_mult_blocks()\n"
        "blocks = alg.right_mult_blocks\n"
        "def right_mult_blocks(self):\n    self.other\n"
    )
    assert readers(tree, "right_mult_blocks") == ["<module>", "f", "h"]


ENGINE = {"_echelon", "_keep"}  # the exact engine and its per-row step


def engine_readers(tree):
    """`readers` of the exact engine `_echelon` or its per-row step `_keep`,
    each read by its own name, as an attribute, or under a name that an
    import binds it to."""
    names = ENGINE | {alias.asname for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) for alias in node.names
                      if alias.name in ENGINE and alias.asname}
    return sorted(found for name in names for found in readers(tree, name))


def test_only_hom_dim_reads_the_exact_engine():
    # one way into exact elimination: the Matrix methods, the Hom systems,
    # which reps builds as sparse rows already, the E-map of a presentation,
    # which artheory builds as sparse rows from N's arrow actions, the
    # closure of a relation ideal, whose vectors are sparse rows over path
    # columns, and the closure of an `Ideal` (its `__init__`), whose
    # elements are sparse rows over basis indices
    found = {name: found for name, tree in modules().items()
             if name != "linalg.py" and (found := engine_readers(tree))}
    assert found == {"algebra.py": ["__init__", "__init__", "build_algebra", "build_algebra"],
                     "artheory.py": ["e_map"],
                     "reps.py": ["hom_dim"]}


def test_the_rule_sees_reads_of_the_engine():
    tree = ast.parse(
        "from .linalg import _echelon as eliminate\nfrom . import linalg\n"
        "def f(m):\n    return eliminate(m.field, [])\n"
        "def g(m):\n    return linalg._echelon(m.field, [], reduced=True)\n"
        "class C:\n    def rank(self):\n        return len(_echelon(self.field, [])[1])\n"
        "from .linalg import _keep as keep\n"
        "def h(p, kept, row):\n    return _keep(p, kept, row), keep(p, kept, row)\n"
        "def i(p, kept):\n    return linalg._keep(p, kept, {})\n"
    )
    assert engine_readers(tree) == ["f", "g", "h", "h", "i", "rank"]
