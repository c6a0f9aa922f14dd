"""Source hygiene of ``src/repro``, checked with the standard library.

Two rules a linter would hold: no line is longer than 100 characters,
and no module but a package's ``__init__`` (whose imports are its
exports) imports a name at top level that it never uses.  A name counts
as used when it is read anywhere in the module, string annotations and
``__all__`` included.  A third is this package's own: no code branches
on an exception's text (``"..." in str(exc)`` for a name an ``except``
clause bound); an outcome worth telling apart gets its own exception
class.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))
MAX_LINE = 100


def _rel(path):
    return str(path.relative_to(SRC.parent))


def test_no_line_is_longer_than_100_characters():
    long_lines = [
        f"{_rel(path)}:{number}: {len(line)} characters"
        for path in MODULES
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def _imported(tree):
    """Top-level imported name -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree):
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(_used(ast.parse(node.value, mode="eval")))
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = _used(tree)
        names = {name: line for name, line in _imported(tree).items() if name not in used}
        if names:
            unused[_rel(path)] = names
    assert unused == {}


def _str_of(node, name):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "str"
        and any(isinstance(arg, ast.Name) and arg.id == name for arg in node.args)
    )


def test_no_branch_reads_the_text_of_a_caught_exception():
    found = []
    for path in MODULES:
        for handler in ast.walk(ast.parse(path.read_text())):
            if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
                continue
            for node in ast.walk(handler):
                if (
                    isinstance(node, ast.Compare)
                    and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
                    and any(_str_of(side, handler.name) for side in [node.left, *node.comparators])
                ):
                    found.append(f"{_rel(path)}:{node.lineno}")
    assert found == []
