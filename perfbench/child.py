"""One fresh interpreter of the benchmark: set up, then run a workload.

    python3 perfbench/child.py --result R.json [--workload NAME --seeds S,..
                               --out-dir D --deadline T --trace 0|1]

Set-up is the time to ``import infbsde`` and build the CLI parser, which
every command-line call pays; the reference kernel (``reference.py``)
runs right after it.  Without ``--workload`` the child stops there.
Otherwise it calls ``infbsde.cli.run`` once per seed, in order, and then
keeps cycling through the seeds until ``--deadline`` seconds have passed
since it started.  The reference kernel runs after every call, on as many
threads as ``BSDE_THREADS``; a call's ``ref_s`` is the mean of the kernel
runs just before and just after it.  With ``--trace 1`` the layer wrappers of
``tracer.py`` are installed first and each seed runs twice, untraced and
then traced; the spans are written to ``D/spans.jsonl`` when the child
ends.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _setup():
    import infbsde
    from infbsde import cli
    cli.build_parser()
    return infbsde, time.perf_counter() - _T0


def _environment(infbsde) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "infbsde_file": infbsde.__file__}


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, files in os.walk(path) for name in files)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="")
    parser.add_argument("--out-dir")
    parser.add_argument("--deadline", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    infbsde, setup_s = _setup()
    import reference
    result = {"setup_s": setup_s, "setup_ref_s": reference.measure(1),
              "env": _environment(infbsde), "calls": []}
    if args.workload:
        from workloads import WORKLOADS
        seeds = [int(s) for s in args.seeds.split(",")]
        result["calls"] = _run(WORKLOADS[args.workload], seeds, args.out_dir,
                               args.deadline, args.trace)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _run(workload, seeds, out_dir, deadline, trace):
    from infbsde import _svg, cli, grid, neural, nn_schemes, picard_grid
    from reference import measure
    from workloads import TRACED_SEEDS, read_errors
    workers = int(os.environ.get("BSDE_THREADS", "1"))
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, {"cli": cli, "picard_grid": picard_grid,
                                 "nn_schemes": nn_schemes, "grid": grid,
                                 "neural": neural, "_svg": _svg})
        tracer.enabled = False
        # each seed untraced, then traced: adjacent pairs share the noise
        plan = [(seed, traced) for seed in seeds[:TRACED_SEEDS]
                for traced in (False, True)]
    else:
        plan = [(seed, False) for seed in seeds]
    calls, spans_out = [], []
    index = 0
    ref_before = measure(workers)
    while index < len(plan) or time.perf_counter() - _T0 < deadline:
        seed, traced = plan[index % len(plan)]
        outdir = os.path.join(out_dir, f"seed{seed}")
        argv = list(workload.argv) + ["--seed", str(seed), "--out", outdir]
        start = time.perf_counter()
        if traced:
            tracer.enabled = True
            code = tracer.call("cli.run", cli.run, (argv,), {})
            tracer.enabled = False
        else:
            code = cli.run(argv)
        run_s = time.perf_counter() - start
        ref_after = measure(workers)
        call = {"seed": seed, "traced": traced, "code": code, "run_s": run_s,
                "ref_s": (ref_before + ref_after) / 2}
        ref_before = ref_after
        if code == 0:
            call["errors"], call["digest"] = read_errors(outdir, workload)
        if traced:
            tracer.add("cli.output_bytes", _dir_bytes(outdir))
            call["layers"] = tracing.layer_metrics(tracer.spans,
                                                   tracer.counts, workers)
            spans_out.extend([index, *span] for span in tracer.spans)
            tracer.spans.clear()
            tracer.counts.clear()
        calls.append(call)
        index += 1
    if trace:
        with open(os.path.join(out_dir, "spans.jsonl"), "w",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(["call", *tracing.Span._fields]) + "\n")
            for row in spans_out:
                handle.write(json.dumps(row) + "\n")
    return calls


if __name__ == "__main__":
    sys.exit(main())
