"""Module layering: every relative import points at a lower layer, and
every absolute import names a standard-library module."""

import ast
import sys
from pathlib import Path

import abpc

# bottom-up, as in the ``abpc`` package docstring
LAYERS = ["rings", "poly", "oracle", "graph", "build", "identities", "cli"]


def _relative_imports(path: Path):
    """(imported module, line) for every relative import, nested ones too."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.level == 1 and node.module:
                yield node.module.split(".")[0], node.lineno
            elif node.level == 1:
                for alias in node.names:
                    yield alias.name, node.lineno
            else:
                yield "." * node.level + (node.module or ""), node.lineno


def test_modules_import_only_lower_layers():
    package = Path(abpc.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(LAYERS)
    bad = []
    for name in modules:
        rank = LAYERS.index(name)
        for target, line in _relative_imports(package / f"{name}.py"):
            if target not in LAYERS or LAYERS.index(target) >= rank:
                bad.append(f"{name} imports {target} at line {line}")
    assert bad == []
    positions = [abpc.__doc__.index(f"``{name}``") for name in LAYERS]
    assert positions == sorted(positions)


def test_absolute_imports_are_standard_library():
    package = Path(abpc.__file__).parent
    bad = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    bad.append(f"{path.stem} imports {name} at line {node.lineno}")
    assert bad == []
