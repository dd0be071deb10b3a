"""The package imports only the standard library, and ``bitmatrix`` imports
nothing from the package, so it can be read and reused on its own."""

import ast
import sys
from pathlib import Path as FsPath

import traversals

MODULES = sorted(FsPath(traversals.__file__).parent.glob("*.py"))


def imports(module: FsPath):
    """(level, top-level name) of every import in ``module``; level 0 is
    absolute, and a relative ``from . import x`` has no name."""
    for node in ast.walk(ast.parse(module.read_text(), str(module))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.level, (node.module or "").partition(".")[0]


def test_the_package_imports_only_the_standard_library():
    assert len(MODULES) >= 7
    for module in MODULES:
        for level, name in imports(module):
            if level == 0:
                assert name in sys.stdlib_module_names, (module.name, name)


def test_bitmatrix_imports_nothing_from_the_package():
    levels = [level for level, _ in imports(FsPath(traversals.__file__).parent / "bitmatrix.py")]
    assert levels and not any(levels)
