"""Every name a demo script or a README code block imports from infbsde exists.

The sources are parsed, not run, so this costs milliseconds; it catches a
demo or a doc example left behind when a public name is removed or renamed.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.M | re.S)
SOURCES = ([pytest.param(path.read_text(encoding="utf-8"), id=path.name)
            for path in DEMOS]
           + [pytest.param(block, id=f"README.md-python-{i}")
              for i, block in enumerate(README_BLOCKS, start=1)])


def package_imports(source):
    """``(module, name)`` for each import from infbsde in ``source``;
    ``name`` is None for a plain ``import infbsde[.module]``."""
    tree = ast.parse(source)
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
    assert README_BLOCKS


@pytest.mark.parametrize("source", SOURCES)
def test_imported_names_resolve(source):
    imports = list(package_imports(source))
    assert imports, "imports nothing from infbsde"
    missing = [module if name is None else f"{module}.{name}"
               for module, name in imports if not resolves(module, name)]
    assert not missing, f"imports missing names: {missing}"
