"""Batch experiment runner.

Subcommands cover the three schemes plus the rate study, the contraction
report, and the z-Lipschitz sweep.  Settings resolve in three layers:
the config dataclasses' defaults, then a JSON config file, then explicit
flags.  Each run's config objects are built, and so checked, before any
output is written.  Every run echoes its effective config to
``config_echo.json`` so it can be reproduced exactly; all CSV floats
carry 17 significant digits.

Exit codes: 0 success, 2 config error (nothing written), 1 numerical
failure.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import sys
from dataclasses import (MISSING, astuple, dataclass, field, fields,
                         is_dataclass, replace)
from typing import (Dict, List, Optional, Tuple, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np

from . import _svg
from .analysis import (ReportRow, brownian_c_infinity, contraction_report,
                       estimate_c_constants)
from .fixedpoint import NonFiniteValue
from .grid import Grid, _format, write_csv, write_grid_csv
# problem_by_name builds this module's configs (RunConfig); the tracer wraps it
from .model import (PROBLEM_CONSTANTS, RunConfig, monotonicity_margin,
                    problem_by_name)
from .neural import save_checkpoint
from .nn_schemes import (DirectConfig, NnPicardConfig, TraceRow,
                         contraction_nn_solve, direct_nn_solve)
from .picard_grid import (GridSolveConfig, IterationReport, RateStudyConfig,
                          rate_study, solve)
from .simulate import RngStream, sample_mu0


class ConfigParse(ValueError):
    """Invalid or incomplete run configuration."""


# the flat float keys that the command line spreads the overrides over: the
# problem constants, in table order, and mu0_std
_OVERRIDES = (*dict.fromkeys(key for constants in PROBLEM_CONSTANTS.values()
                             for key in constants), "mu0_std")
_SCHEMES = {"nn-picard": NnPicardConfig, "nn-direct": DirectConfig}


@dataclass(frozen=True)
class _ContractionConfig(RunConfig):
    """The run settings of a contraction report: ``m_samples`` draws at
    each probe, under a weight of degree ``weight_degree``.  The probes are
    the nodes of ``grid``, built on construction with ``probe_n_half``
    layers up to ``probe_half_width`` per axis, and ``n_mu0_probes``
    start-law draws."""

    weight_degree: float = 0.0
    m_samples: int = 100000
    probe_n_half: int = 5
    probe_half_width: float = 3.0
    n_mu0_probes: int = 16
    grid: Grid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        for key, low in (("m_samples", 2), ("probe_n_half", 1),
                         ("n_mu0_probes", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be at least {low}")
        if not 0 <= self.weight_degree < np.inf:
            raise ValueError("weight_degree must be finite and non-negative")
        object.__setattr__(self, "grid", Grid(
            self.dim, self.probe_n_half,
            self.probe_half_width / self.probe_n_half))


# the config class of every subcommand but kz-sweep, whose scheme picks it
_CONFIGS = {"grid-solve": GridSolveConfig, "rate-study": RateStudyConfig,
            **_SCHEMES, "contraction": _ContractionConfig}


def _flat_fields(cls) -> Dict[str, Tuple[object, object]]:
    """The flat command-line keys of a config class: ``key -> (type, default)``.

    A nested dataclass (``params``) spreads into its own fields and
    ``overrides`` into the ``_OVERRIDES`` keys.  ``Optional[X]`` reads as
    ``X``; a field without a default maps to None.  A field the class sets
    itself (``init=False``) has no key.
    """
    hints = get_type_hints(cls)
    out = {}
    for f in [f for f in fields(cls) if f.init]:
        kind = hints[f.name]
        if is_dataclass(kind):
            out.update(_flat_fields(kind))
        elif f.name == "overrides":
            out.update(dict.fromkeys(_OVERRIDES, (float, None)))
        else:
            if get_origin(kind) is Union:
                kind = next(a for a in get_args(kind) if a is not type(None))
            out[f.name] = (kind, None if f.default is MISSING else f.default)
    return out


_FIELDS = {command: _flat_fields(cls) for command, cls in _CONFIGS.items()}
# a sweep takes its scheme's keys but kz, which each cell sets
_SWEEP = {"scheme": (str, "nn-picard"),
          "kz_list": (Tuple[float, ...], [0.4, 1.6, 2.8, 4.0, 5.2]),
          "reps": (int, 5)}
_FIELDS.update({("kz-sweep", scheme): {
    **{k: v for k, v in _FIELDS[scheme].items() if k != "kz"}, **_SWEEP}
    for scheme in _SCHEMES})
_DEFAULTS = {command: {k: default for k, (_, default) in table.items()}
             for command, table in _FIELDS.items()}
_KINDS = {k: kind for table in _FIELDS.values() for k, (kind, _) in table.items()}

# command-line flag -> flat key
_COMMON_FLAGS = {
    "--problem": "problem", "--d": "dim", "--seed": "seed", "--dt": "dt",
    "--a": "discount_y", "--a-tilde": "discount_z", "--theta": "exp_rate",
    "--theta-tilde": "gamma_rate",
    **{f"--{k.replace('_', '-')}": k for k in _OVERRIDES},
}
_GRID_FLAGS = {"--R": "half_width", "--iters": "n_iters", "--p": "pad",
               "--trunc-bound": "trunc_bound", "--trunc-degree": "trunc_degree"}
_NN_FLAGS = {"--hidden": "hidden", "--lr": "base_lr", "--decay": "lr_decay",
             "--decay-period": "lr_decay_period", "--m-err": "m_err"}
_PICARD_FLAGS = {"--M": "m_samples", "--iters": "n_iters",
                 "--steps": "train_steps", "--warm-start": "warm_start"}
_SUBCOMMANDS = {
    "grid-solve": ("grid Picard scheme",
                   {**_GRID_FLAGS, "--ntilde": "n_half", "--M": "m_samples"}),
    "rate-study": ("mesh refinement study",
                   {**_GRID_FLAGS, "--k": "k", "--ntilde-list": "ntilde_list"}),
    "nn-picard": ("contraction-based NN scheme", {**_NN_FLAGS, **_PICARD_FLAGS}),
    "nn-direct": ("direct NN scheme", {
        **_NN_FLAGS, "--epochs": "n_epochs", "--steps": "steps_per_epoch",
        "--M-x": "m_starts", "--M": "m_inner"}),
    "contraction": ("contraction constant report", {
        "--weight-degree": "weight_degree", "--M": "m_samples",
        "--probe-ntilde": "probe_n_half", "--probe-R": "probe_half_width",
        "--mu0-probes": "n_mu0_probes"}),
    "kz-sweep": ("z-Lipschitz robustness sweep", {
        **_NN_FLAGS, **_PICARD_FLAGS, "--scheme": "scheme",
        "--kz-list": "kz_list", "--reps": "reps", "--epochs": "n_epochs",
        "--steps-per-epoch": "steps_per_epoch", "--M-x": "m_starts",
        "--M-inner": "m_inner"}),
}


def _list_of(item):
    def parse(text: str) -> List:
        return [item(tok) for tok in text.split(",") if tok.strip()]
    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


def _add_flag(sub: argparse.ArgumentParser, flag: str, key: str) -> None:
    kind = _KINDS[key]
    if kind is bool:
        sub.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction)
    elif get_origin(kind) is tuple:
        sub.add_argument(flag, dest=key, type=_list_of(get_args(kind)[0]))
    else:
        sub.add_argument(flag, dest=key, type=kind,
                         choices=_SCHEMES if key == "scheme" else None)


class _SubcommandParser(argparse.ArgumentParser):
    """Reports unknown flags under the subcommand's usage, not the top's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, unknown = super().parse_known_args(args, namespace)
        if unknown:
            self.error(f"unrecognized arguments: {' '.join(unknown)}")
        return namespace, unknown


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="infbsde",
        description="Monte Carlo solvers for infinite-horizon BSDE systems",
        allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_SubcommandParser)
    for command, (text, flags) in _SUBCOMMANDS.items():
        sub = subs.add_parser(command, help=text, allow_abbrev=False)
        sub.add_argument("--config", help="JSON file with config values")
        sub.add_argument("--out", default=None, help="output directory")
        for flag, key in {**_COMMON_FLAGS, **flags}.items():
            _add_flag(sub, flag, key)
    return parser


def _merge(command: str, args: argparse.Namespace) -> Dict:
    data = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigParse(f"cannot read config file: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigParse("config file must hold a JSON object")
        # a config echo names its own subcommand; accept it when it matches
        echoed = data.pop("command", None)
        if echoed is not None and echoed != command:
            raise ConfigParse(
                f"config file is for {echoed!r}, not {command!r}")
        data.pop("out", None)
    given = {k: v for k, v in vars(args).items()
             if k not in ("command", "config", "out") and v is not None}
    name = table = command
    if command == "kz-sweep":
        # the scheme picks the sweep's keys, so it resolves first
        name = _cast(str, given.get("scheme", data.get(
            "scheme", _SWEEP["scheme"][1])), "scheme")
        if name not in _SCHEMES:
            raise ConfigParse(f"unknown scheme {name!r}")
        table = (command, name)
    cfg = dict(_DEFAULTS[table])
    # kz-sweep sets kz itself, so the shared --kz flag is not its key
    unused = sorted((data.keys() | given.keys()) - cfg.keys())
    if unused:
        raise ConfigParse(f"{name} does not take {', '.join(unused)}")
    cfg.update({**data, **given})
    if cfg.get("problem") in (None, ""):
        raise ConfigParse("a problem name is required (--problem or config)")
    return cfg


def _cast(kind, value, key: str):
    """``value`` as a ``kind`` field value, or a ConfigParse.

    A bool field takes only true/false, an int field only integral
    numbers, a float field any number; a tuple field takes a list.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if get_origin(kind) is tuple and isinstance(value, (list, tuple)):
        return tuple(_cast(get_args(kind)[0], item, key) for item in value)
    if kind in (bool, str) and isinstance(value, kind):
        return value
    if kind is int and number and (isinstance(value, int)
                                   or value.is_integer()):
        return int(value)
    if kind is float and number:
        return float(value)
    name = getattr(kind, "__name__", str(kind)).lower()
    raise ConfigParse(f"{key} must be of type {name}, not {value!r}")


def _value(cfg: Dict, key: str):
    return _cast(_KINDS[key], cfg[key], key)


def _build(cls, cfg: Dict):
    """Config class ``cls`` from the flat keys of ``cfg``.

    A missing or None value keeps the class default.  The class checks
    the run's settings on construction and raises ValueError.
    """
    hints = get_type_hints(cls)
    kwargs = {}
    for f in [f for f in fields(cls) if f.init]:
        if is_dataclass(hints[f.name]):
            kwargs[f.name] = _build(hints[f.name], cfg)
        elif f.name == "overrides":
            kwargs[f.name] = {k: _value(cfg, k) for k in _OVERRIDES
                              if cfg.get(k) is not None} or None
        elif cfg.get(f.name) is not None:
            kwargs[f.name] = _value(cfg, f.name)
    return cls(**kwargs)


# every CSV goes through this module global, which the benchmark's tracer wraps
_write_csv = write_csv


def _write_json(path, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _echo_config(outdir: str, command: str, cfg: Dict) -> None:
    _write_json(os.path.join(outdir, "config_echo.json"),
                {"command": command, **cfg})


def _write_rows(path, cls, rows) -> None:
    """Records of the dataclass ``cls`` as a CSV headed by its field names."""
    _write_csv(path, [f.name for f in fields(cls)], map(astuple, rows))


def _series(rows, *names) -> Dict[str, List]:
    """The ``names`` fields of ``rows`` as plot series, ``_`` read as a space."""
    return {name.replace("_", " "): [getattr(r, name) for r in rows]
            for name in names}


def _run_grid_solve(config: GridSolveConfig, outdir: str) -> int:
    result, analytic = solve(config), config.built_problem.analytic
    _write_rows(os.path.join(outdir, "iterations.csv"), IterationReport,
                result.reports)
    write_grid_csv(result.final, os.path.join(outdir, "grid_solution.csv"),
                   analytic=analytic)
    if analytic is not None:
        _svg.line_plot(
            os.path.join(outdir, "errors.svg"), [r.n for r in result.reports],
            _series(result.reports, "sup_err_u", "sup_err_ubar"),
            "Grid Picard error by iteration", "iteration", "sup error")
    return 0


def _run_rate_study(config: RateStudyConfig, outdir: str) -> int:
    result = rate_study(config)
    _write_csv(os.path.join(outdir, "rate_study.csv"),
               ["ntilde", "M", "sup_err_u", "sup_err_ubar"],
               [[int(n), int(m), float(eu), float(eb)]
                for n, m, eu, eb in zip(config.ntilde_list, config.m_samples,
                                        result.sup_err_u, result.sup_err_ubar)])
    _write_json(os.path.join(outdir, "rate_fit.json"),
                {"slope": result.slope, "intercept": result.intercept})
    mesh = 2.0 + np.asarray(config.ntilde_list)
    _svg.line_plot(
        os.path.join(outdir, "rate_fit.svg"), mesh,
        {"sup error": np.maximum(result.sup_err_u, result.sup_err_ubar),
         f"fit, slope {result.slope:.3f}":
             np.exp(result.intercept + result.slope * np.log(mesh))},
        "Refinement study", "2 + ntilde", "sup error", logx=True)
    print(f"fitted slope: {result.slope:.4f}")
    return 0


def _write_trace(outdir: str, trace) -> None:
    _write_rows(os.path.join(outdir, "nn_trace.csv"), TraceRow, trace)
    if any(np.isfinite(row.rel_err_u) and row.rel_err_u > 0
           for row in trace):
        _svg.line_plot(
            os.path.join(outdir, "nn_trace.svg"), [row.n for row in trace],
            _series(trace, "loss", "rel_err_u", "rel_err_ubar"),
            "Training trace", "iteration", "value")


def _run_nn_picard(config: NnPicardConfig, outdir: str) -> int:
    result = contraction_nn_solve(config)
    _write_trace(outdir, result.trace)
    for n, net in enumerate(result.nets, start=1):
        save_checkpoint(os.path.join(outdir, f"net_iter_{n:02d}.npz"), net)
    return 0


def _run_nn_direct(config: DirectConfig, outdir: str) -> int:
    result = direct_nn_solve(config)
    _write_trace(outdir, result.trace)
    save_checkpoint(os.path.join(outdir, "net_final.npz"), result.net)
    return 0


def _run_contraction(config: _ContractionConfig, outdir: str) -> int:
    params, seed, problem = config.params, config.seed, config.built_problem
    margin = monotonicity_margin(problem.gen)
    probes = np.vstack([config.grid.nodes, sample_mu0(
        problem, RngStream(seed, stream_id=1), config.n_mu0_probes)])
    estimate = estimate_c_constants(
        problem, params, config.weight_degree, probes, config.m_samples,
        config.dt, RngStream(seed))
    if problem.sde.is_brownian and config.weight_degree == 0.0:
        c_inf, c_tilde = brownian_c_infinity(params.discount_y,
                                             params.discount_z,
                                             problem.sde.dim)
        c_source = "closed form"
    else:
        c_inf, c_tilde = estimate.c_inf, estimate.c_tilde_inf
        c_source = "probe-max estimate (lower bound)"
    rows = [ReportRow("c_inf_estimate", estimate.c_inf,
                      f"se={_format(estimate.c_inf_se)}"),
            ReportRow("c_tilde_inf_estimate", estimate.c_tilde_inf,
                      f"se={_format(estimate.c_tilde_inf_se)}"),
            ReportRow("c_source", float("nan"), c_source),
            ReportRow("monotonicity_margin", margin,
                      "ok" if margin > 0 else "non-positive"),
            *contraction_report(problem.gen, params, c_inf, c_tilde)]
    _write_rows(os.path.join(outdir, "contraction_report.csv"), ReportRow,
                rows)
    return 0


def _sweep_seed(base_seed: int, kz_index: int, rep: int) -> int:
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(kz_index, rep))
    return int(seq.generate_state(1, np.uint64)[0])


def _build_kz_sweep(cfg: Dict):
    """The sweep's scheme, kz values and one config per (kz, rep) cell."""
    scheme = cfg["scheme"]
    kz_values = list(_value(cfg, "kz_list"))
    if not kz_values:
        raise ConfigParse("kz_list must be non-empty")
    reps = _value(cfg, "reps")
    if reps < 1:
        raise ConfigParse("reps must be at least 1")
    base = _build(_SCHEMES[scheme], cfg)
    cells = [[replace(base, overrides={**(base.overrides or {}), "kz": kz},
                      seed=_sweep_seed(base.seed, i, rep))
              for rep in range(reps)] for i, kz in enumerate(kz_values)]
    return scheme, kz_values, cells


def _run_kz_sweep(built, outdir: str) -> int:
    scheme, kz_values, cells = built
    solver = contraction_nn_solve if scheme == "nn-picard" else direct_nn_solve
    rows = []
    per_kz: List[List[float]] = []
    for kz, configs in zip(kz_values, cells):
        errs = []
        for rep, config in enumerate(configs):
            try:
                last = solver(config).trace[-1]
                du, dubar = last.rel_err_u, last.rel_err_ubar
            except NonFiniteValue:
                du = dubar = float("inf")
            rows.append([kz, rep, du, dubar])
            errs.append(du)
        per_kz.append(errs)
    _write_csv(os.path.join(outdir, "kz_sweep.csv"),
               ["kz", "rep", "du", "dubar"], rows)
    levels = (10, 25, 50, 75, 90)
    # a kz with an infinite cell gets no point
    quantiles = np.array([np.percentile(errs, levels) if np.isfinite(errs).all()
                          else np.full(5, np.inf) for errs in per_kz])
    _svg.line_plot(os.path.join(outdir, "kz_sweep.svg"), kz_values,
                   {f"{q}%": quantiles[:, i] for i, q in enumerate(levels)},
                   f"Error vs z-Lipschitz constant ({scheme})",
                   "K_z", "relative error of u")
    return 0


# per subcommand: the runner of what its config built
_RUNNERS = {"grid-solve": _run_grid_solve, "rate-study": _run_rate_study,
            "nn-picard": _run_nn_picard, "nn-direct": _run_nn_direct,
            "contraction": _run_contraction, "kz-sweep": _run_kz_sweep}


# glibc's mallopt parameters, set to the ceilings its dynamic rule reaches on
# 64-bit: DEFAULT_MMAP_THRESHOLD_MAX, and twice that for trimming
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _keep_freed_heap() -> None:
    """Keep freed heap memory in this process instead of returning it.

    Each grid chunk allocates a few MB of numpy temporaries and frees
    them.  With glibc's start-up thresholds (128 KB) the freed blocks go
    back to the OS and the next chunk faults them in again, page by page.
    Raising both thresholds keeps them; setting either one alone turns
    glibc's dynamic rule off, so both are set.  No value changes.

    The command line owns its process, so only ``run`` calls this; library
    callers of the solvers keep their own allocator settings.  Without
    glibc, or without its ``mallopt``, it does nothing."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def run(argv: Optional[List[str]] = None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = args.command
    try:
        cfg = _merge(command, args)
        # fail fast on bad names/values before creating any output
        built = (_build(_CONFIGS[command], cfg) if command in _CONFIGS
                 else _build_kz_sweep(cfg))
    # a config whose grids cannot be allocated is a config error too
    except (ValueError, TypeError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = args.out or f"runs/{command}"
    os.makedirs(outdir, exist_ok=True)
    _echo_config(outdir, command, cfg)
    try:
        return _RUNNERS[command](built, outdir)
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
