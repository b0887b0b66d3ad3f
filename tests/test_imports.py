import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ldvortex"


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


def test_modules_use_every_name_they_import():
    """Every module but the re-exporting __init__ uses each imported name."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 12
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") \
        == ["os (line 1)", "tau (line 2)"]
