"""Every name a demo script or a README code block imports from infbsde
exists, and so does every test file, demo and module attribute that the
README names; every command-line flag appears in the README.

The sources are parsed, not run, so this costs milliseconds; it catches a
demo, a doc example or a README sentence left behind when a public name, a
test file or a demo is removed or renamed.
The one-draw estimator demo, which feeds the analytic solution in as a
candidate pair, and the contraction-constant demo, which calls the
analysis functions with a problem's own generator, also run (about half a
second each), and so do the two grid demos (about 0.6 and 1.8 seconds)
and the README's ``estimate_phi`` block, whose printed shapes and values
the README describes.
"""
import ast
import importlib
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
MODULES = sorted(p.stem for p in (ROOT / "src" / "infbsde").glob("*.py")
                 if p.stem != "__init__")
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


def test_randomized_representation_demo_runs(capsys):
    runpy.run_path(str(ROOT / "demos" / "randomized_representation.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "ubar(0.5): exact" in out


def test_contraction_constants_demo_runs(capsys):
    runpy.run_path(str(ROOT / "demos" / "contraction_constants.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "kappa_inf = 3.3541" in out
    assert "linear-constant with mu=1: kappa_inf = 0.5000" in out


def test_grid_picard_solve_demo_runs(capsys, monkeypatch, tmp_path):
    # the demo writes its final iterate under runs/ in the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / "grid_picard_solve.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "\n  6    0.01407      0.05614 " in out
    assert (tmp_path / "runs" / "demos" / "grid_demo_solution.csv").is_file()


def test_mesh_refinement_rate_demo_runs(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / "mesh_refinement_rate.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "fitted slope of log error vs log(2 + n_half): -2.468\n" in out


def test_readme_estimate_phi_block_runs(capsys):
    block, = [b for b in README_BLOCKS if "estimate_phi(" in b]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    capsys.readouterr()
    est, problem = namespace["est"], namespace["problem"]
    # two points: one mean and one standard error per point and component
    assert est.value[0].shape == est.std_err[0].shape == (2, 1)
    assert est.value[1].shape == est.std_err[1].shape == (2, 1, 1)
    exact = problem.analytic.u([-1.0, 0.5])
    assert np.all(np.abs(est.value[0] - exact) < 4 * est.std_err[0])


def test_readme_paths_exist():
    paths = sorted(set(re.findall(r"\b((?:tests|demos)/\w+\.py)\b", README)))
    assert len(paths) >= 10
    missing = [path for path in paths if not (ROOT / path).is_file()]
    assert not missing, f"README names missing files: {missing}"


def test_readme_module_names_resolve():
    # `infbsde.<module>`, and `<module>.<name>` with or without the package
    modules = re.findall(r"`infbsde\.(\w+)`", README)
    dotted = re.findall(r"`(?:infbsde\.)?(%s)\.(\w+)" % "|".join(MODULES),
                        README)
    assert modules and dotted
    missing = [f"infbsde.{m}" for m in modules if m not in MODULES]
    missing += [f"infbsde.{m}.{name}" for m, name in dotted
                if not hasattr(importlib.import_module(f"infbsde.{m}"), name)]
    assert not missing, f"README names missing attributes: {missing}"


def test_readme_names_every_flag():
    from infbsde import cli
    flags = {*cli._COMMON_FLAGS,
             *(flag for _, table in cli._SUBCOMMANDS.values()
               for flag in table)}
    missing = sorted(flag for flag in flags if f"`{flag}`" not in README)
    assert not missing, f"README does not name flags: {missing}"
