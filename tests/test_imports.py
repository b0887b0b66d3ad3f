import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ldvortex"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def _private_names(source: str) -> set[str]:
    """Module-level names _x that a module defines or assigns."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _public_definitions(source: str) -> set[str]:
    """Module-level functions and classes without a leading underscore."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _referenced_names(source: str) -> set[str]:
    """Names a module reads: loaded names, attributes and imported names."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_private_helper_is_referenced():
    """No dead helpers: each module-level _x in the package is read somewhere
    in it."""
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    referenced = set().union(*map(_referenced_names, sources))
    defined = set().union(*map(_private_names, sources))
    assert len(defined) >= 10
    assert sorted(defined - referenced) == []
    dead = "def _used():\n    pass\n\n\ndef _dead():\n    _used()\n"
    assert _private_names(dead) - _referenced_names(dead) == {"_dead"}


def test_every_public_definition_is_referenced():
    """No dead public functions or classes: each one the package defines is
    read by package code (its own module counts, the re-exports of
    __init__ do not), by a test or by the benchmark."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    readers = modules + sorted((ROOT / "tests").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    referenced = set().union(*(_referenced_names(p.read_text()) for p in readers))
    defined = set().union(*(_public_definitions(p.read_text()) for p in modules))
    assert len(defined) >= 50
    assert sorted(defined - referenced) == []
    stale = "def means():\n    pass\n\n\nclass Fields:\n    pass\n\n\ndef _x():\n    Fields()\n"
    assert _public_definitions(stale) - _referenced_names(stale) == {"means"}


def test_modules_use_every_name_they_import():
    """Every module but the re-exporting __init__ uses each imported name."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 12
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") \
        == ["os (line 1)", "tau (line 2)"]


def _import_time_modules(source: str) -> list[str]:
    """Absolute modules a module imports when it runs: every import that is
    not inside a function body."""
    names, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(names)


def test_no_module_imports_scipy_when_it_loads():
    """Importing scipy.linalg costs ~0.3 s: the LAPACK wrappers come from
    _lapack, and any other scipy import sits inside a function."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 14
    scipy_imports = {p.name: [m for m in _import_time_modules(p.read_text())
                              if m.split(".")[0] == "scipy"] for p in modules}
    assert {name: mods for name, mods in scipy_imports.items() if mods} == {}
    sample = ("import numpy as np\nif True:\n    import scipy.linalg as sla\n"
              "from . import energy\n\n\ndef f():\n    from scipy import sparse\n")
    assert _import_time_modules(sample) == ["numpy", "scipy.linalg"]


def _all_imported_modules(source: str) -> list[str]:
    """Every absolute module a module imports anywhere, function bodies
    included; `from scipy import sparse` counts as scipy.sparse."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return sorted(names)


def test_no_function_imports_scipy_sparse():
    """The eigensolves run on the banded LU from _lapack: scipy.sparse (and
    its ~25 MiB) is imported nowhere in the package, not even lazily."""
    modules = sorted(PACKAGE.glob("*.py"))
    sparse = {p.name: [m for m in _all_imported_modules(p.read_text())
                       if m == "scipy.sparse" or m.startswith("scipy.sparse.")]
              for p in modules}
    assert {name: mods for name, mods in sparse.items() if mods} == {}
    sample = ("def f():\n    from scipy import sparse\n\n\n"
              "def g():\n    import scipy.sparse.linalg as spla\n")
    assert _all_imported_modules(sample) == ["scipy", "scipy.sparse",
                                             "scipy.sparse.linalg"]


def _function_local_package_imports(source: str) -> list[str]:
    """Package modules imported inside a function body: relative imports
    and absolute ldvortex ones, as `function: module`."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "ldvortex"):
                found.append(f"{fn.name}: {'.' * node.level}{node.module or ''}")
            elif isinstance(node, ast.Import):
                found += [f"{fn.name}: {alias.name}" for alias in node.names
                          if alias.name.split(".")[0] == "ldvortex"]
    return found


def test_no_function_imports_a_package_module():
    """Sibling modules are imported at the top of a module: the package has
    no import cycle to dodge, and its imports read in one place."""
    modules = sorted(PACKAGE.glob("*.py"))
    local = {p.name: _function_local_package_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in local.items() if found} == {}
    sample = ("from . import energy\n\n\ndef f():\n    from .minimize import Layout\n"
              "    import ldvortex.state\n    from scipy import sparse\n\n\n"
              "def g():\n    from ldvortex import harness\n")
    assert _function_local_package_imports(sample) == [
        "f: .minimize", "f: ldvortex.state", "g: ldvortex"]


def _private_sibling_names(source: str) -> list[str]:
    """Underscore names a module takes from a sibling package module: each
    `from .x import _y` (or `from ldvortex.x import _y`) as `.x: _y`, and
    each `x._y` read off a module imported whole by `from . import x`."""
    tree, found, siblings = ast.parse(source), [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "ldvortex"):
            origin = "." * node.level + (node.module or "")
            if origin in (".", "ldvortex"):
                siblings.update(alias.asname or alias.name for alias in node.names)
            found += [f"{origin}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in siblings and node.attr.startswith("_")]
    return sorted(found)


def test_experiment_and_interface_modules_use_public_names_only():
    """harness, acceptance, cli and exports reach their sibling modules
    through public names only, so the benchmark's tracer, which wraps
    public functions, sees every pass they run."""
    names = {name: _private_sibling_names((PACKAGE / name).read_text())
             for name in ("harness.py", "acceptance.py", "cli.py", "exports.py")}
    assert {name: found for name, found in names.items() if found} == {}
    sample = ("from .observables import _fields, observables\n"
              "from . import exports, _lapack\nfrom ldvortex.state import _x\n"
              "import numpy as np\n\n\ndef f():\n    exports._emit(np._core)\n")
    assert _private_sibling_names(sample) == [
        ".: _lapack", ".observables: _fields", "exports._emit", "ldvortex.state: _x"]


def _defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position) of each defaulted parameter of the
    public module-level functions and public methods of public classes;
    the position is None for a keyword-only parameter, and counts from the
    first argument a caller passes (a method's self is not one)."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            fns = [(node, 0)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            fns = [(fn, int(not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                    for d in fn.decorator_list)))
                   for fn in node.body if isinstance(fn, ast.FunctionDef)]
        else:
            continue
        for fn, bound in fns:
            if fn.name.startswith("_"):
                continue
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args][bound:]
            first = len(positional) - len(args.defaults)
            found += [(fn.name, name, i) for i, name in enumerate(positional) if i >= first]
            found += [(fn.name, a.arg, None)
                      for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _calls(source: str) -> list[tuple[str, str, int | None, set[str]]]:
    """(caller, called name, positional count, keyword names) of each call:
    the caller is the outermost enclosing def, or <module>, and the count
    is None when a *args makes it unknown."""
    found = []

    def visit(node, caller):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and caller == "<module>":
            caller = node.name
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = None if starred else len(node.args)
            found.append((caller, name, count, {k.arg for k in node.keywords}))
        for child in ast.iter_child_nodes(node):
            visit(child, caller)

    visit(ast.parse(source), "<module>")
    return found


def _unset_options(package: dict[str, str], callers: dict[str, str]) -> list[str]:
    """function.parameter for each defaulted parameter of a public function
    of the package modules that no call in the callers passes, by keyword
    or by position.  Calls match by the called name.  A call from a private
    helper of the defining module does not count: a value that only the
    module's own internals set is no option of its public function."""
    calls = [(path, *call) for path, source in callers.items() for call in _calls(source)]
    return sorted(
        f"{fn}.{param}" for module, source in package.items()
        for fn, param, pos in _defaulted_parameters(source)
        if not any(name == fn and not (path == module and caller.startswith("_"))
                   and (param in keywords or (None not in (pos, count) and count > pos))
                   for path, caller, name, count, keywords in calls))


#: Defaulted parameters that no call in the package or the benchmark sets,
#: each with its reason.
UNSET_OPTIONS = {
    "main.argv": "the console script reads sys.argv; tests pass argv",
    "rstar_lower.c": "the paper leaves the constant c unspecified; the reports take 1",
    "f_dip_threshold.C_u": "the paper leaves the constant C_u unspecified; the reports take 1",
}


def test_every_option_is_set_by_a_caller():
    """A defaulted parameter of a public package function is an option, and
    an option that no call in the package or the benchmark sets is a
    constant: each one is passed somewhere in src/ or perfbench/, but for
    the reasoned entries of UNSET_OPTIONS."""
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    bench = {f"perfbench/{p.name}": p.read_text()
             for p in sorted((ROOT / "perfbench").glob("*.py"))}
    assert len(package) >= 14 and len(bench) >= 4
    assert _unset_options(package, {**package, **bench}) == sorted(UNSET_OPTIONS)
    sample = {"m.py": "def solve(x, tol=1e-8, steps=10, *, log=None):\n"
                      "    return _step(x)\n\n\n"
                      "def _step(x, cap=3):\n    return solve(x, steps=5)\n\n\n"
                      "class Grid:\n    def refine(self, k=2):\n        return k\n"}
    caller = ("from m import Grid, solve\n\n\n"
              "def _cmd():\n    return solve(1, 1e-6), Grid().refine(4)\n")
    assert _unset_options(sample, {**sample, "cli.py": caller}) == ["solve.log",
                                                                    "solve.steps"]
