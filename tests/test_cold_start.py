"""No command-line path loads scipy; the quadratures load it on first use.

``scipy.integrate`` pulls in most of scipy and costs about 0.9 s and 45 MB
of a fresh interpreter, while only the Brownian quadrature constants
(``brownian_cp_constants``, ``gaussian_radial_moment``) need it.  Each test
runs its checks in one fresh interpreter, since this test process has
scipy loaded already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from infbsde import brownian_cp_constants, gaussian_radial_moment

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every subcommand, on the default experiment problem, at a budget that
# runs in well under a second
COMMANDS = [
    ["grid-solve", "--ntilde", "2", "--M", "50", "--iters", "1"],
    ["rate-study", "--ntilde-list", "2,3,4", "--k", "1"],
    ["nn-picard", "--M", "16", "--iters", "1", "--steps", "2"],
    ["nn-direct", "--M-x", "4", "--M", "4", "--epochs", "1", "--steps", "1"],
    ["contraction", "--M", "50"],
    ["kz-sweep", "--kz-list", "0.5", "--M", "16", "--iters", "1",
     "--steps", "2"],
]

CLI_CHILD = """
import contextlib, io, json, sys
import infbsde
from infbsde import cli
cli.build_parser()
codes = {}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        out = sys.argv[2] + "/" + argv[0]
        codes[argv[0]] = cli.run(
            argv + ["--problem", "arctan-const-sigma", "--out", out])
loaded = sorted(k for k in sys.modules
                if k == "scipy" or k.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""

QUAD_CHILD = """
import json, sys
from infbsde import analysis
# a rejected argument fails before scipy is loaded
try:
    analysis.brownian_cp_constants(2.0, 0.5, 3, 0.0, 1.5)
except ValueError:
    pass
before = "scipy.integrate" in sys.modules
c, ct = analysis.brownian_cp_constants(2.0, 0.5, 3, 1.5, 1.5)
moment = analysis.gaussian_radial_moment(3, 2)
print(json.dumps({"before": before, "after": "scipy.integrate" in sys.modules,
                  "values": [c.hex(), ct.hex(), moment.hex()]}))
"""


def fresh_interpreter(source, *args):
    done = subprocess.run([sys.executable, "-c", source, *args], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_never_loads_scipy(tmp_path):
    result = fresh_interpreter(CLI_CHILD, json.dumps(COMMANDS), str(tmp_path))
    assert result["codes"] == {argv[0]: 0 for argv in COMMANDS}
    assert result["scipy"] == []


def test_first_quadrature_loads_scipy_and_gives_the_same_bits():
    result = fresh_interpreter(QUAD_CHILD)
    assert result["before"] is False
    assert result["after"] is True
    c, ct = brownian_cp_constants(2.0, 0.5, 3, 1.5, 1.5)
    assert result["values"] == [c.hex(), ct.hex(),
                                gaussian_radial_moment(3, 2).hex()]
