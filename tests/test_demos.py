"""Every name a demo script imports from infbsde exists.

The demos are parsed, not run, so this costs milliseconds; it catches a
demo left behind when a public name is removed or renamed.
"""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def package_imports(path):
    """``(module, name)`` for each import from infbsde in ``path``; ``name``
    is None for a plain ``import infbsde[.module]``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [(node.module or "", [a.name for a in node.names])]
        elif isinstance(node, ast.Import):
            modules = [(a.name, [None]) for a in node.names]
        else:
            continue
        for module, names in modules:
            if module.split(".")[0] == "infbsde":
                yield from ((module, name) for name in names)


def resolves(module, name):
    try:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            return True
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_imported_names_resolve(path):
    imports = list(package_imports(path))
    assert imports, f"{path.name} imports nothing from infbsde"
    missing = [module if name is None else f"{module}.{name}"
               for module, name in imports if not resolves(module, name)]
    assert not missing, f"{path.name} imports missing names: {missing}"
