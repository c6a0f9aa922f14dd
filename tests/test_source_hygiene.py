"""Source hygiene of ``src/repro``, checked with the standard library.

Two rules a linter would hold: no line is longer than 100 characters,
and no module but a package's ``__init__`` (whose imports are its
exports) imports a name at top level that it never uses.  A name counts
as used when it is read anywhere in the module, string annotations and
``__all__`` included.  A third is this package's own: no code branches
on an exception's text (``"..." in str(exc)`` for a name an ``except``
clause bound); an outcome worth telling apart gets its own exception
class.  A fourth is too: every ``@operation`` of a service is named as
the op of some ``invoke(…, "op")`` or ``envelope(…, "op")`` call, or is
listed below with the reason it stays though nothing names it.  A fifth
holds every module but an ``__init__`` to a reader outside ``tests/``
(``src``, ``examples``, ``bench``, ``benchmarks`` or the two table
tests), or to a listed reason: a reader imports the module or a name it
defines, and a package ``__init__`` reads a name only where its own code
uses it, not where it re-exports it.  A sixth holds every defaulted
parameter of a public function or method to a setter, or to a listed
reason: a value no caller sets is a constant.  ``repro.__all__`` names
exactly the subpackages and modules on disk.  Last, two checks keep
``benchmarks/reach.py`` honest without running it: its matcher maps
each entered code object of a fixture module to the right key, and
every entry of its ``IDLE`` table names a definition that exists and
carries one of the five reasons (safety code naming a test that exists).
"""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))
MAX_LINE = 100
#: where an operation can be named, or a parameter set, by a caller
CALLERS = ("src", "examples", "bench", "benchmarks", "tests")
#: service operations that no call names, and why each stays
UNNAMED_OPERATIONS = {
    "lookup": "registry portType; chaos recovery and its invariants call it in-process",
}
#: outside ``tests/``, where a module of ``src/repro`` can be read
READERS = ("src", "examples", "bench", "benchmarks")
#: the two tests that run the paper's and the fabric's tables count as readers too
TABLE_TESTS = ("tests/test_paper_table.py", "tests/test_behaviour_table.py")
#: modules that nothing outside ``tests/`` reads, and why each stays
UNREAD_MODULES = {
    "repro.campaign.__main__": "`python -m repro.campaign` runs it (CI's campaign jobs)",
    "repro.live.__main__": "`python -m repro.live` runs it (CI's live job)",
}
#: defaulted parameters of public callables that no call sets by name, and why each stays
UNSET_PARAMETERS = {
    "SearchRunner(archive_path)": "`campaign search run --archive` sets it through a "
    "variable, `runner_cls(spec, store, **execution)`, which no name matches",
    "StressClient(timeout)": "a deployment setting (DESIGN.md \"What stays, even idle\")",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _operations():
    """Each ``@operation`` method name of a class in ``src/repro`` -> one
    place it is defined."""
    ops = {}
    for path in MODULES:
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "operation" for d in item.decorator_list
                ):
                    ops.setdefault(item.name, f"{_rel(path)}:{item.lineno}")
    return ops


def _named_operations():
    """Every string literal passed as the op (second argument) of an
    ``invoke`` or ``envelope`` call."""
    named = set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call) or len(node.args) < 2:
                    continue
                func, op = node.func, node.args[1]
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("invoke", "envelope") and isinstance(op, ast.Constant):
                    named.add(op.value)
    return named


def test_every_service_operation_is_named_by_a_caller_or_listed():
    named = _named_operations()
    unnamed = {op: where for op, where in _operations().items() if op not in named}
    assert sorted(unnamed) == sorted(UNNAMED_OPERATIONS), unnamed


def _dotted(path):
    """``src/repro/a/b.py`` -> ``repro.a.b``; a package's ``__init__`` -> the package."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


PACKAGE_MODULES = {_dotted(path): path for path in MODULES}


def _defining_module(module, name):
    """The non-``__init__`` module that ``from module import name`` reads,
    following a package's re-exports; None for a package or a name an
    ``__init__`` defines itself."""
    submodule = PACKAGE_MODULES.get(f"{module}.{name}")
    if submodule is not None:
        return None if submodule.name == "__init__.py" else f"{module}.{name}"
    path = PACKAGE_MODULES.get(module)
    if path is None:
        return None
    if path.name != "__init__.py":
        return module
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _defining_module(node.module, alias.name)
    return None


def _modules_read_by(path):
    """The non-``__init__`` modules of ``src/repro`` the file at ``path``
    imports, or imports a name of.  A package ``__init__`` reads a name
    only where its own code uses it, not where it re-exports it."""
    tree = ast.parse(path.read_text())
    used = None
    if path.name == "__init__.py" and SRC in path.parents:
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            read.update(
                _defining_module(node.module, alias.name)
                for alias in node.names
                if used is None or (alias.asname or alias.name) in used
            )
    return read


def test_every_module_has_a_reader_outside_the_tests_or_is_listed():
    readers = [path for top in READERS for path in sorted((ROOT / top).rglob("*.py"))]
    read = set()
    for path in readers + [ROOT / table for table in TABLE_TESTS]:
        read |= _modules_read_by(path)
    unread = {
        module: _rel(path)
        for module, path in PACKAGE_MODULES.items()
        if path.name != "__init__.py" and module not in read
    }
    wrong = set(unread).symmetric_difference(UNREAD_MODULES)
    assert wrong == set(), {module: unread.get(module, "listed, but read") for module in wrong}


def test_package_all_names_every_subpackage_and_module_on_disk():
    tree = ast.parse((SRC / "__init__.py").read_text())
    (exported,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    on_disk = [
        path.stem
        for path in SRC.iterdir()
        if (path / "__init__.py").is_file() or (path.suffix == ".py" and path.stem != "__init__")
    ]
    assert sorted(exported) == sorted(on_disk)


def _callee(node):
    """The name a call is made through: ``f`` of ``f(…)`` and of ``x.f(…)``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _public_callables():
    """``(path, class name or None, def)`` for each public function and
    each public method (``__init__`` included) of a public class in
    ``src/repro``, and each class name -> the names of its bases."""
    found, bases = [], {}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {_callee(base) for base in node.bases} - {None}
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                found.append((path, None, node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found += [
                    (path, node.name, item) for item in node.body if isinstance(item, FUNCTIONS)
                ]
    return [item for item in found if item[2].name == "__init__" or item[2].name[0] != "_"], bases


def _setters():
    """Each callee name -> every call in ``CALLERS`` made through it, as
    ``(innermost enclosing class, call)``; every name read other than as a
    callee; and every attribute assigned on an object other than ``self``."""
    calls, read, assigned = {}, set(), set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            enclosing = {}
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    enclosing.update((id(node), cls.name) for node in ast.walk(cls))
            callees = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    callees.add(id(node.func))
                    calls.setdefault(_callee(node.func), []).append(
                        (enclosing.get(id(node)), node)
                    )
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if id(node) not in callees:
                        read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                        assigned.add(node.attr)
    return calls, read, assigned


def _family(cls, bases):
    """``cls``'s descendants, and its ancestors, by class name."""
    down, up = set(), set()
    while True:
        lower = {name for name, its in bases.items() if its & (down | {cls})}
        upper = set().union(*(bases.get(name, set()) for name in up | {cls}))
        if lower <= down and upper <= up:
            return down, up
        down |= lower
        up |= upper


def _sets(call, index, param):
    """Whether ``call`` can set ``param``, the ``index``-th positional
    argument (None: keyword-only): by keyword, through ``**``, or by
    position, which a ``*`` argument reaches whatever its place."""
    if any(keyword.arg in (param, None) for keyword in call.keywords):
        return True
    return index is not None and any(
        isinstance(arg, ast.Starred) or i >= index for i, arg in enumerate(call.args)
    )


def _unset_parameters():
    """Each defaulted parameter of a public callable that no call in
    ``CALLERS`` can set -> where it is defined.  A function or method is
    called by its name, and one whose name is read as a value (a callback,
    a table entry) counts as set; a class by its name or a descendant's,
    by ``super().__init__`` in a descendant, or by ``cls(…)`` in its own
    line.  An attribute of the parameter's name assigned on any object
    but ``self`` sets it too.  Matching by name alone, a collision can only
    hide a knob, never flag one that is in use."""
    calls, read, assigned = _setters()
    callables, bases = _public_callables()
    unset = {}
    for path, cls, fn in callables:
        if fn.name == "__init__":
            label = cls
            down, up = _family(cls, bases)
            hits = [call for name in down | {cls} for _, call in calls.get(name, ())]
            hits += [call for inside, call in calls.get("__init__", ()) if inside in down]
            hits += [call for inside, call in calls.get("cls", ()) if inside in down | up | {cls}]
        elif fn.name in read:
            continue
        else:
            label = fn.name if cls is None else f"{cls}.{fn.name}"
            hits = [call for _, call in calls.get(fn.name, ())]
        static = any(_callee(d) == "staticmethod" for d in fn.decorator_list)
        offset = 0 if cls is None or static else 1
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        defaulted = [(i - offset, arg.arg) for i, arg in enumerate(positional) if i >= first]
        defaulted += [
            (None, arg.arg)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None
        ]
        for index, param in defaulted:
            if param not in assigned and not any(_sets(call, index, param) for call in hits):
                unset[f"{label}({param})"] = f"{_rel(path)}:{fn.lineno}"
    return unset


def test_every_defaulted_parameter_has_a_setter_or_is_listed():
    unset = _unset_parameters()
    wrong = set(unset).symmetric_difference(UNSET_PARAMETERS)
    assert wrong == set(), {label: unset.get(label, "listed, but set") for label in wrong}


# -- benchmarks/reach.py: every function held to a caller that runs ---------

REACH_FIXTURE = '''\
import asyncio
import functools


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)

    return wrapper


@deco
def decorated(x):
    return x + 1


def outer():
    def inner():
        return 2

    return inner()


async def waiting():
    await asyncio.sleep(0)
    return [n for n in range(2)]


class Box:
    def __init__(self):
        self._v = 0

    @property
    def value(self):
        return self._v

    @value.setter
    def value(self, v):
        self._v = v


def never():
    return 0


decorated(1)
outer()
asyncio.run(waiting())
box = Box()
box.value = box.value + 1
(lambda: 0)()
'''


def _reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "benchmarks" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_matches_each_entered_code_object_to_its_definition(tmp_path):
    reach = _reach()
    code, hook, log = tmp_path / "code", tmp_path / "hook", tmp_path / "log"
    for d in (code, hook, log):
        d.mkdir()
    (code / "fixture.py").write_text(REACH_FIXTURE)
    (hook / "sitecustomize.py").write_text(
        reach.HOOK.format(root=str(code) + os.sep, log=str(log))
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(hook), str(code)])}
    subprocess.run([sys.executable, "-c", "import fixture"], env=env, check=True, timeout=120)
    defs = {"fixture.py": reach.definitions("fixture.py", REACH_FIXTURE)}
    entered = reach.entered_keys(reach.read_logs(log), defs)
    assert entered == {
        "fixture.py:deco",
        "fixture.py:deco.<locals>.wrapper",
        "fixture.py:decorated",
        "fixture.py:outer",
        "fixture.py:outer.<locals>.inner",
        "fixture.py:waiting",
        "fixture.py:Box.__init__",
        "fixture.py:Box.value",
        "fixture.py:Box.value#2",
    }
    assert set(defs["fixture.py"].values()) - entered == {"fixture.py:never"}


def test_every_idle_entry_names_a_definition_and_carries_a_reason():
    reach = _reach()
    keys = {key for found in reach.source_definitions(SRC).values() for key in found.values()}
    assert set(reach.IDLE) - keys == set()
    reasons = (reach.SAFETY, reach.ROUTE, reach.STUB, reach.TEST_REFERENCE, reach.PROTOCOL)
    for key, reason in reach.IDLE.items():
        assert reason.startswith(reasons), key
        if reason.startswith(reach.SAFETY):
            # safety code names the tier-1 test that enters it
            path, test = reason.split(": ", 1)[1].split("::")
            tree = ast.parse((ROOT / path).read_text())
            assert test in {fn.name for fn in tree.body if isinstance(fn, FUNCTIONS)}, key
