"""Command-line entry point.

Subcommands: generate, walk, kernels, solve, experiment, validate.
Configuration is a flat JSON document of typed keys; unknown keys are
rejected.  Exit codes: 0 all requested verdicts PASS, 1 a verdict
FAILed or a numerical failure (exponent clamp, quadrature not
converging, covariance not positive definite, circulant embedding not
nonnegative definite), 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from ._seeds import mix64
from .fbm import HurstField, HurstParameter, TimeGrid, ZeroField
from .fk import (ClampError, InitialCondition, estimate_quenched,
                 require_fine_grid)
from .pde import BoxDomain, SolverConfig, default_radius, solve_mollified
from .experiments import EXPERIMENTS, SweepSpec, write_csv, write_report
from .quadrature import QuadratureError
from .walk import WalkConfig, sample_walk

EXIT_OK, EXIT_FAIL, EXIT_CONFIG = 0, 1, 2

# LinAlgError subclasses ValueError, so this tuple is caught before the
# configuration-error handler.
_NUMERICAL_ERRORS = (ClampError, QuadratureError, np.linalg.LinAlgError)


class ConfigError(ValueError):
    pass


_KNOWN_KEYS: dict[str, type] = {
    "hurst": float, "hursts": list, "step": float, "horizon": float,
    "pad": float, "epsilon": float, "epsilons": list, "kappa": float,
    "dim": int, "sites": list, "master_seed": int, "n_walks": int,
    "n_samples": int, "n_inner": int, "n_realizations": int, "workers": int,
    "mode": str, "experiment": str, "jump_counts": list, "deltas": list,
    "dt": float, "radius": int, "u0": str, "u0_value": float,
    "u0_site": list, "noise": bool, "run_fk": bool, "run_pde": bool,
    "out": str,
}

_DEFAULTS = {
    "pad": 0.0, "kappa": 1.0, "dim": 1, "master_seed": 0, "n_walks": 1000,
    "n_samples": 1000, "n_inner": 100, "n_realizations": 20, "workers": 1,
    "mode": "rough", "u0": "constant", "u0_value": 1.0, "noise": True,
    "run_fk": True, "run_pde": False, "out": "out",
}


def _as_int(key: str, value) -> int:
    """value as an int; a non-integral number is an error, not truncated."""
    if type(value) not in (int, float) or not float(value).is_integer():
        raise ConfigError(f"config key {key!r} must be int, got {value!r}")
    return int(value)


class RunConfig:
    """Validated flat key-value configuration for one CLI invocation."""

    def __init__(self, data: dict) -> None:
        for key, value in data.items():
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            want = _KNOWN_KEYS[key]
            if want in (float, int) and type(value) in (int, float):
                value = _as_int(key, value) if want is int else float(value)
            elif not isinstance(value, want):
                raise ConfigError(
                    f"config key {key!r} must be {want.__name__}")
            if want is list and not value:
                raise ConfigError(f"config key {key!r} must not be empty")
            if (key in ("epsilon", "horizon", "dt", "radius", "kappa")
                    and value <= 0):
                raise ConfigError(f"config key {key!r} must be > 0")
            if key == "deltas" and not all(
                    type(d) in (int, float) and d > 0 for d in value):
                raise ConfigError("config key 'deltas' must be > 0")
            if (key in ("n_walks", "n_samples", "n_inner", "n_realizations",
                        "workers") and value < 1):
                raise ConfigError(f"config key {key!r} must be >= 1")
            data[key] = value
        self.data = {**_DEFAULTS, **data}

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        data = {}
        if path:
            try:
                with open(path) as fh:
                    data = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {path}: {exc}")
            if not isinstance(data, dict):
                raise ConfigError("config must be a JSON object")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(data)

    def require(self, *keys):
        values = []
        for key in keys:
            if key not in self.data or self.data[key] is None:
                raise ConfigError(f"missing config key {key!r}")
            values.append(self.data[key])
        return values[0] if len(values) == 1 else values

    def get(self, key, default=None):
        return self.data.get(key, default)

    @property
    def hash(self) -> str:
        # workers and out must not affect results, so keep them out of the
        # hash; outputs are required to be byte-identical across both.
        canon = json.dumps({k: v for k, v in self.data.items()
                            if k not in ("workers", "out")}, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def header_lines(self) -> tuple[str, ...]:
        return (f"pamfk version={__version__} config_hash={self.hash} "
                f"master_seed={self.data['master_seed']}",)


def _grid(cfg: RunConfig) -> TimeGrid:
    step, horizon = cfg.require("step", "horizon")
    return TimeGrid(step, horizon, cfg.get("pad", 0.0))


def _hurst(cfg: RunConfig) -> HurstParameter:
    h = cfg.require("hurst")
    try:
        return HurstParameter(h)
    except ValueError:
        raise ConfigError("H must be in (0,1)")


def _initial_condition(cfg: RunConfig) -> InitialCondition:
    kind = cfg.get("u0", "constant")
    if kind == "constant":
        return InitialCondition.constant(cfg.get("u0_value", 1.0))
    if kind == "indicator":
        site = cfg.get("u0_site", [0] * cfg.get("dim"))
        if len(site) != cfg.get("dim"):
            raise ConfigError("config key 'u0_site' must have dim coordinates")
        return InitialCondition.indicator(
            [_as_int("u0_site", c) for c in site])
    raise ConfigError(f"unknown u0 kind {kind!r}")


def cmd_generate(cfg: RunConfig) -> int:
    hurst = _hurst(cfg)
    grid = _grid(cfg)
    raw = cfg.get("sites", [[0]])
    if not all(isinstance(s, list) and s for s in raw):
        raise ConfigError("config key 'sites' must be a list of non-empty "
                          "coordinate lists")
    sites = [tuple(_as_int("sites", c) for c in s) for s in raw]
    dims = len(sites[0])
    if any(len(site) != dims for site in sites):
        raise ConfigError("config key 'sites' mixes site dimensions")
    field = HurstField(hurst, grid, cfg.get("master_seed"))
    zi = grid.zero_index
    paths = field.paths_on_grid(sites)[:, zi:zi + grid.count]
    rows = [[*site, j * grid.step, float(w)]
            for site, path in zip(sites, paths) for j, w in enumerate(path)]
    write_csv(os.path.join(cfg.get("out"), "fbm_paths.csv"),
              [f"x{i}" for i in range(dims)] + ["t", "w"],
              rows, cfg.header_lines())
    return EXIT_OK


def cmd_walk(cfg: RunConfig) -> int:
    kappa, horizon = cfg.require("kappa", "horizon")
    wcfg = WalkConfig(cfg.get("dim"), kappa, horizon)
    rows = []
    for k in range(cfg.get("n_samples")):
        path = sample_walk(wcfg, mix64(cfg.get("master_seed"), k))
        rows.append([k, 0, 0.0, *wcfg.start])
        for j, (t, site) in enumerate(zip(path.jump_times, path.sites[1:])):
            rows.append([k, j + 1, t, *site])
    write_csv(os.path.join(cfg.get("out"), "walks.csv"),
              ["walk", "jump_index", "time"]
              + [f"x{i}" for i in range(wcfg.dim)],
              rows, cfg.header_lines())
    return EXIT_OK


def _sweep_spec(cfg: RunConfig) -> SweepSpec:
    kwargs = {"master_seed": cfg.get("master_seed"),
              "kappa": cfg.get("kappa"), "dim": cfg.get("dim"),
              "n_samples": cfg.get("n_samples"),
              "n_inner": cfg.get("n_inner"),
              "n_realizations": cfg.get("n_realizations"),
              "workers": cfg.get("workers")}
    if cfg.get("hursts") is not None:
        kwargs["hursts"] = tuple(float(h) for h in cfg.get("hursts"))
    if cfg.get("epsilons") is not None:
        kwargs["epsilons"] = tuple(float(e) for e in cfg.get("epsilons"))
    if cfg.get("horizon") is not None:
        kwargs["horizon"] = cfg.get("horizon")
    if cfg.get("jump_counts") is not None:
        kwargs["jump_counts"] = tuple(_as_int("jump_counts", n)
                                      for n in cfg.get("jump_counts"))
    return SweepSpec(**kwargs)


def _run_experiments(cfg: RunConfig, names,
                    ueps_epsilons: tuple[float, ...] | None = None) -> int:
    """Run each named experiment on the config's sweep and write its report.

    rough_tail gets the config's deltas and fk_pde_crosscheck its epsilon
    and n_walks; ueps_epsilons, when given, replaces the epsilon ladder of
    ueps_convergence only.  Returns EXIT_FAIL if any verdict failed.
    """
    spec = _sweep_spec(cfg)
    status = EXIT_OK
    for name in names:
        run_spec, kwargs = spec, {}
        if name == "rough_tail" and cfg.get("deltas") is not None:
            kwargs["deltas"] = tuple(float(d) for d in cfg.get("deltas"))
        elif name == "fk_pde_crosscheck":
            kwargs["n_walks"] = cfg.get("n_walks")
            if cfg.get("epsilon") is not None:
                kwargs["epsilon"] = cfg.get("epsilon")
        elif name == "ueps_convergence" and ueps_epsilons:
            run_spec = dataclasses.replace(spec, epsilons=ueps_epsilons)
        report = EXPERIMENTS[name](run_spec, **kwargs)
        write_report(report, cfg.get("out"), cfg.header_lines())
        if not report.passed:
            status = EXIT_FAIL
    return status


def cmd_kernels(cfg: RunConfig) -> int:
    return _run_experiments(cfg, ("kernel_sweep",))


def cmd_solve(cfg: RunConfig) -> int:
    mode = cfg.get("mode")
    if mode not in ("rough", "smooth"):
        raise ConfigError(f"unknown mode {mode!r}; choose rough or smooth")
    if mode == "rough" and cfg.get("run_pde"):
        raise ConfigError("run_pde solves the smooth equation only")
    epsilon = cfg.require("epsilon") if mode == "smooth" else None
    hurst = _hurst(cfg)
    grid = _grid(cfg)
    require_fine_grid(grid, epsilon)  # for the FK and the PDE side alike
    kappa, horizon = cfg.require("kappa", "horizon")
    wcfg = WalkConfig(cfg.get("dim"), kappa, horizon)
    ic = _initial_condition(cfg)
    if cfg.get("noise"):
        field = HurstField(hurst, grid, cfg.get("master_seed"))
    else:
        field = ZeroField(grid)
    rows = []
    if cfg.get("run_fk"):
        est = estimate_quenched(wcfg, ic, field, epsilon=epsilon,
                                n_walks=cfg.get("n_walks"),
                                seed=cfg.get("master_seed"))
        # clamps is always 0 (a clamp raises ClampError); perfbench reads it
        rows.append([est.mode, hurst.h, kappa, wcfg.dim, horizon,
                     *wcfg.start, epsilon if epsilon is not None else "NA",
                     est.count, est.mean, est.stderr, est.seed, 0])
        write_csv(os.path.join(cfg.get("out"), "estimates.csv"),
                  ["mode", "H", "kappa", "d", "t"]
                  + [f"x{i}" for i in range(wcfg.dim)]
                  + ["eps", "n", "mean", "stderr", "seed", "clamps"],
                  rows, cfg.header_lines())
    if cfg.get("run_pde"):
        radius = cfg.get("radius", default_radius(kappa, horizon))
        domain = BoxDomain(wcfg.dim, radius)
        dt = cfg.get("dt", min(grid.step, 0.25 / kappa))
        scfg = SolverConfig(dt, kappa, grid, epsilon)
        sol = solve_mollified(ic, field, scfg, domain, wcfg.start)
        srows = [[horizon, *site, val] for site, val in sorted(sol.items())]
        write_csv(os.path.join(cfg.get("out"), "solution.csv"),
                  ["t"] + [f"x{i}" for i in range(wcfg.dim)] + ["u"],
                  srows, cfg.header_lines())
    return EXIT_OK


def cmd_experiment(cfg: RunConfig) -> int:
    name = cfg.require("experiment")
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; "
                          f"choose from {sorted(EXPERIMENTS)}")
    return _run_experiments(cfg, (name,))


def cmd_validate(cfg: RunConfig) -> int:
    """Run the acceptance-style experiment bundle and write all reports.

    u_eps -> u runs on a fixed 4-level ladder, whatever the config's
    epsilons, which keep driving the kernel and rate sweeps.
    """
    return _run_experiments(
        cfg, ("kernel_sweep", "rate_sweep", "rough_tail", "ueps_convergence",
              "fk_pde_crosscheck"),
        ueps_epsilons=tuple(0.1 * 2.0 ** -k for k in range(4)))


_COMMANDS = {
    "generate": cmd_generate,
    "walk": cmd_walk,
    "kernels": cmd_kernels,
    "solve": cmd_solve,
    "experiment": cmd_experiment,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pamfk",
        description="Feynman-Kac Monte Carlo toolkit for the lattice "
                    "parabolic Anderson model with fractional noise")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to a flat JSON config")
    parser.add_argument("--seed", type=int, help="override master_seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--workers", type=int, help="FK/PDE check processes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"master_seed": args.seed, "out": args.out,
                 "workers": args.workers}
    try:
        cfg = RunConfig.load(args.config, overrides)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
