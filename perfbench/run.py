"""Benchmark of the infbsde solvers: accuracy per second end to end, time
per layer in a separate traced run.

    python3 perfbench/run.py --workload grid-brownian-d2 --seed 0 \
        --seconds 25 --trace 0

``--workload all`` runs every workload in turn.  The program is built
from ``src/`` of the checkout this file sits in.  Each workload runs in
fresh interpreters (``child.py``) with the thread settings of
``workloads.child_env``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; its
times are in reference seconds (``reference.py``).  The exit code is 0
when every correctness check passed, 1 when one failed, and 2 when the
checkout holds no ``src/infbsde``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import reference_seconds
from workloads import (TRACED_SEEDS, WORKLOADS, child_env, child_seeds,
                       final_err, passes)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
ROUNDS = 3
# a workload run must end within 180 s whatever its children do
RUN_LIMIT_S = 170

def _units(section: str) -> dict:
    """Metric name -> unit, from one section of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


def _child(result: Path, env: dict, timeout: float, extra=()) -> dict | None:
    """Run one child interpreter; its result dict, or None if it failed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result),
           *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=max(timeout, 1.0),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        print(f"child timed out: {' '.join(extra)}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"child failed ({proc.returncode}): {proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    with open(result, encoding="utf-8") as handle:
        return json.load(handle)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _gate(workload, calls, recorded) -> dict:
    """Correctness of every call, and seeded-output consistency."""
    failed, digests, digest_status = 0, {}, {}
    for call in calls:
        ok = call["code"] == 0 and passes(call.get("errors", {}), workload)
        seed = str(call["seed"])
        digest = call.get("digest")
        if ok and digests.setdefault(seed, digest) != digest:
            ok = False  # the same seed must reproduce its error columns
        call["ok"] = ok
        failed += not ok
        if digest is not None and seed in recorded:
            digest_status[seed] = digest == recorded[seed]
    matched = sum(digest_status.values())
    return {"failed": failed, "digests_recorded": len(digest_status),
            "digests_matching": matched}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    workload = WORKLOADS[name]
    nproc = len(os.sched_getaffinity(0))
    settings = child_env(workload, nproc)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(settings, PYTHONPATH=str(ROOT / "src"))
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    seeds = child_seeds(name, seed)
    setups, children = [], []

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - start)

    def workload_child(label, seeds, deadline):
        return _child(out / f"{label}.json", env, remaining(),
                      ["--workload", name, "--seeds", ",".join(map(str, seeds)),
                       "--out-dir", str(out / "calls"),
                       "--trace", str(int(trace)),
                       "--deadline", f"{max(0.0, deadline):.3f}"])

    if trace:
        children.append(workload_child("traced", seeds[:TRACED_SEEDS], 0.0))
    else:
        # rounds spread the set-up samples over the run's time
        for i in range(ROUNDS):
            setups.append(_child(out / f"setup{i}.json", env, remaining()))
            elapsed = time.perf_counter() - start
            children.append(workload_child(
                f"workload{i}", seeds[i::ROUNDS],
                seconds * (i + 1) / ROUNDS - elapsed))

    calls = [c for child in children if child for c in child["calls"]]
    gate = _gate(workload, calls, _recorded_digests().get(name, {}))
    lost = sum(c is None for c in children + setups)
    attempted = len(calls) + lost
    failed = gate["failed"] + lost
    expected = set(seeds[:TRACED_SEEDS] if trace else seeds)
    seen = {c["seed"] for c in calls if c["ok"]}
    correct = failed == 0 and seen == expected and attempted > 0

    first_child = next((c for c in setups + children if c), {"env": {}})
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "child_seeds": seeds, "why": workload.why, "argv": workload.argv,
        "env": {"nproc": nproc, "cpu": _cpu_model(),
                **first_child["env"], **settings},
        "correct": correct, "attempted": max(attempted, 1),
        "failed": failed, "gate": gate, "calls": calls,
        "setup_samples": [(s["setup_s"], s["setup_ref_s"])
                          for s in setups + children if s],
        "peak_rss_samples": [c["peak_rss_mb"] for c in children if c],
    }
    if correct:
        result["metrics"] = (_layer_metrics(calls) if trace
                             else _end_to_end(workload, result))
    OUT.joinpath("results").mkdir(exist_ok=True)
    with open(OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json",
              "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return result


def _recorded_digests() -> dict:
    path = HERE / "digests.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _end_to_end(workload, result) -> dict:
    """Times in reference seconds (see reference.py), as medians."""
    calls = result["calls"]
    threads = int(result["env"]["BSDE_THREADS"])
    run_s = statistics.median(
        reference_seconds(c["run_s"], c["ref_s"], threads) for c in calls)
    setups = result["setup_samples"]
    first = {}
    for call in calls:
        first.setdefault(call["seed"], final_err(call["errors"], workload))
    err = statistics.fmean(first.values())
    values = {
        "setup_s": statistics.median(
            reference_seconds(wall, ref, 1) for wall, ref in setups),
        "run_s": run_s,
        "work_per_s": workload.work() / run_s,
        "final_err": err,
        "err_x_sqrt_s": err * math.sqrt(run_s),
        "peak_rss_mb": statistics.median(result["peak_rss_samples"]),
    }
    result["samples"] = {"run_s": len(calls), "final_err": len(first),
                         "setup_s": len(result["setup_samples"]),
                         "peak_rss_mb": len(result["peak_rss_samples"])}
    result["wall_median"] = {
        "run_s": statistics.median(c["run_s"] for c in calls),
        "setup_s": statistics.median(wall for wall, _ in setups)}
    units = _units("end_to_end")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def _layer_metrics(calls) -> dict:
    """Medians over the traced calls; overhead from untraced/traced pairs."""
    units = _units("per_layer")
    traced = [c for c in calls if c["traced"]]
    values = {key: statistics.median(c["layers"][key] for c in traced)
              for key in traced[0]["layers"]}
    # calls alternate untraced, traced on the same seed; each call time is
    # taken relative to the reference kernel run next to it
    values["trace.overhead_frac"] = statistics.median(
        (on["run_s"] / on["ref_s"]) / (off["run_s"] / off["ref_s"])
        for off, on in zip(calls[::2], calls[1::2]))
    values["trace.overhead_frac"] -= 1.0
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def _report(result: dict) -> None:
    name = result["workload"]
    env = result["env"]
    print(f"[{name}] seed={result['seed']} child seeds={result['child_seeds']}")
    print(f"[{name}] env: " + json.dumps(env, sort_keys=True))
    gate = result["gate"]
    print(f"[{name}] correctness: {'PASS' if result['correct'] else 'FAIL'} "
          f"({result['failed']} of {result['attempted']} failed, "
          f"failed_frac={result['failed'] / result['attempted']:.3g}); "
          f"seeded error columns match the recorded digest for "
          f"{gate['digests_matching']} of {gate['digests_recorded']} "
          f"recorded seeds")
    for call in result["calls"]:
        if not call["ok"]:
            print(f"[{name}] failed call: seed={call['seed']} "
                  f"code={call['code']} errors={call.get('errors')}")
    counts = result.get("samples", {})
    for key, metric in result.get("metrics", {}).items():
        extra = f"  (n={counts[key]})" if key in counts else ""
        print(f"[{name}] {key} = {metric['value']:.6g} {metric['unit']}{extra}")
    if "wall_median" in result:
        wall = result["wall_median"]
        print(f"[{name}] wall-clock medians: run_s = {wall['run_s']:.6g} s, "
              f"setup_s = {wall['setup_s']:.6g} s (the metrics above are in "
              f"reference seconds)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "infbsde" / "__init__.py").is_file():
        print(f"no src/infbsde under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names]
    for result in results:
        _report(result)
    if len(results) == 1:
        metrics = results[0].get("metrics", {})
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r.get("metrics", {}).items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
