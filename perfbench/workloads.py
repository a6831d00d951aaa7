"""The benchmark's workloads: CLI arguments, thread settings, work counts,
correctness ceilings and how to read the errors back from the outputs.

This module uses the standard library only, so both the benchmark driver
and the child processes that run ``infbsde.cli.run`` can import it.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

# seeds of a traced run; each runs untraced and traced
TRACED_SEEDS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Tuple[str, ...]      # everything but --seed and --out
    bsde_threads: int
    seeds: int                 # distinct subcommand seeds per run
    csv_name: str              # the CLI table holding the error columns
    ceilings: Dict[str, float]  # gate: last-row error column <= ceiling
    final_cols: Tuple[str, ...]  # final_err = max of these at the last row
    digest_cols: Tuple[str, ...]
    options: Dict[str, float] = field(default_factory=dict)

    def work(self) -> int:
        """Work done by one ``cli.run`` call, from the configuration alone."""
        opt = self.options
        if self.argv[0] == "grid-solve":
            nodes = (2 * opt["ntilde"] + 1) ** opt["d"]
            return int(nodes * opt["M"] * opt["iters"])
        if self.argv[0] == "nn-direct":
            return int(opt["M-x"] * opt["M"] * opt["epochs"] * opt["steps"])
        return int(opt["M"] * opt["iters"] * opt["steps"])


def _argv(command: str, problem: str, **options) -> Tuple[str, ...]:
    out = [command, "--problem", problem]
    for key, value in options.items():
        out += [f"--{key}", str(value)]
    return tuple(out)


def _workload(name, why, command, problem, bsde_threads, seeds, ceilings,
              **options):
    """Grid workloads: final_err = max(sup_err_u, sup_err_ubar).  Neural
    workloads: final_err = rel_err_u; rel_err_ubar is only gated (see
    README.md for why)."""
    grid = command == "grid-solve"
    cols = ("sup_err_u", "sup_err_ubar") if grid else ("rel_err_u",
                                                       "rel_err_ubar")
    return Workload(
        name=name, why=why, argv=_argv(command, problem, **options),
        bsde_threads=bsde_threads, seeds=seeds,
        csv_name="iterations.csv" if grid else "nn_trace.csv",
        ceilings=dict(zip(cols, ceilings)),
        final_cols=cols if grid else cols[:1],
        digest_cols=("n", *cols) if grid else ("n", "loss", *cols),
        options=options)


# Ceilings sit 1.5 to 9 times above the worst of 120-180 seeds measured on
# healthy code.  A neural rel_err_u ceiling is at most 1, the error of the
# zero net.  The rel_err_ubar ceilings only catch a blow-up: at these
# budgets that error is mostly training noise.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    _workload(
        "grid-brownian-d2",
        "exact Brownian grid Picard in d=2: driver f and 2^d-corner "
        "interpolation dominate; only workload on the threaded node loop",
        "grid-solve", "arctan-const-sigma", bsde_threads=2, seeds=12,
        ceilings=(0.5, 1.0), d=2, ntilde=4, M=1500, iters=4),
    _workload(
        "grid-euler-d1",
        "same grid Picard code with Euler path, tangent and Malliavin "
        "sampling at dt=0.02 taking almost all the time; single thread",
        "grid-solve", "arctan-tanh-sigma", bsde_threads=1, seeds=15,
        ceilings=(0.5, 1.0), d=1, dt=0.02, ntilde=6, M=500, iters=4),
    _workload(
        "nn-direct",
        "direct neural scheme, 6,400 rows per step: large-batch MLP "
        "forward and backprop plus driver Jacobians",
        "nn-direct", "arctan-const-sigma", bsde_threads=1, seeds=16,
        ceilings=(1.0, 5.0), lr=0.005, epochs=3, steps=20,
        **{"M-x": 64, "M": 100}),
    _workload(
        "nn-picard",
        "neural Picard, 512 rows per step: same MLP code at 1/12 of the "
        "batch, so per-call cost and the ADAM step show",
        "nn-picard", "arctan-const-sigma", bsde_threads=1, seeds=12,
        ceilings=(0.5, 3.0),
        M=512, iters=3, steps=1000),
)}


def child_seeds(workload: str, seed: int) -> List[int]:
    """The subcommand seeds of one benchmark run, derived from ``--seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(WORKLOADS[workload].seeds)]


def child_env(workload: Workload, nproc: int) -> Dict[str, str]:
    """Thread settings for the child: compute threads never exceed nproc.

    BLAS stays single-threaded everywhere; the grid node pool is the only
    source of parallelism, capped at nproc.
    """
    env = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
    env["BSDE_THREADS"] = str(max(1, min(workload.bsde_threads, nproc)))
    return env


def read_errors(outdir: str, workload: Workload) -> Tuple[Dict[str, float],
                                                          str]:
    """Last-row errors of one run and the digest of its seeded columns.

    The timing column is left out of the digest; everything in it is a
    deterministic function of the seed.
    """
    with open(os.path.join(outdir, workload.csv_name), newline="",
              encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        return {}, ""
    digest = hashlib.sha256()
    for row in rows:
        digest.update((",".join(row[c] for c in workload.digest_cols)
                       + "\n").encode())
    return ({c: float(rows[-1][c]) for c in workload.ceilings},
            digest.hexdigest())


def passes(errors: Dict[str, float], workload: Workload) -> bool:
    """Every error column present, finite and under its ceiling."""
    return all(math.isfinite(errors.get(c, math.nan)) and errors[c] <= cap
               for c, cap in workload.ceilings.items())


def final_err(errors: Dict[str, float], workload: Workload) -> float:
    return max(errors[c] for c in workload.final_cols)
