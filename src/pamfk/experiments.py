"""Validation campaigns: rate sweeps, tail estimates, and cross-checks.

Each experiment consumes a SweepSpec, returns an ExperimentReport with
tabular rows and a PASS/FAIL verdict, and can be written out as
`<name>.csv` plus `<name>.verdict.txt`.  Reruns with the same spec
produce identical bytes.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as _dc_field
from functools import partial

import numpy as np

from ._seeds import mix64
from .fbm import EpsilonDerivative, HurstField, HurstParameter, TimeGrid
from .fk import (_BATCH_WALKS, InitialCondition, estimate_quenched,
                 exp_weights, exponent_table, tagged_walk_batch)
# Not called here; kept because perfbench patches and deletes this binding.
from .fk import sample_walk_snapped  # noqa: F401
from .kernels import kernel_sweep_rows, prop41_variance
from .pde import (BoxDomain, SolverConfig, default_radius, richardson_check,
                  solve_mollified)
from .walk import (WalkConfig, WalkPath, rough_stats_batch,
                   sample_poisson_jump_batch, walk_block)


@dataclass(frozen=True)
class SweepSpec:
    """Parameters shared by the validation campaigns."""

    hursts: tuple[float, ...] = (0.25, 0.5, 0.75)
    epsilons: tuple[float, ...] = tuple(2.0 ** -k for k in range(3, 10))
    kappa: float = 1.0
    dim: int = 1
    horizon: float = 1.0
    n_samples: int = 1000
    master_seed: int = 0
    jump_counts: tuple[int, ...] = (0, 3, 10)
    n_inner: int = 100
    n_realizations: int = 20
    workers: int = 1

    def __post_init__(self) -> None:
        if any(b >= a for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ValueError("epsilon list must be strictly decreasing")
        if self.n_samples < 100:
            raise ValueError("n_samples must be >= 100")
        if self.n_inner < 1:
            raise ValueError("n_inner must be >= 1")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        _require_fit_points(len(self.points))
        if not math.isfinite(self.slope):
            raise ValueError("slope must be finite")


@dataclass
class ExperimentReport:
    name: str
    rows: list[dict]
    fieldnames: list[str]
    passed: bool
    criterion: str
    fits: dict = _dc_field(default_factory=dict)


def _require_fit_points(n: int) -> None:
    """ValueError unless a log-log rate fit has at least 4 points; the
    sweeps call it on their epsilon ladder before drawing anything."""
    if n < 4:
        raise ValueError(f"need at least 4 points for a rate fit, got {n}")


def fit_loglog(epsilons, errors) -> RateFit:
    """Least-squares slope of log error against log epsilon."""
    x = np.log(np.asarray(epsilons, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(float(slope), float(intercept), r2,
                   tuple(zip(x.tolist(), y.tolist())))


def fixed_jump_path(n_jumps: int, horizon: float, dim: int,
                    seed: int) -> WalkPath:
    """A seeded walk path conditioned to have exactly n_jumps jumps."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.random(n_jumps)) * horizon
    pos = [0] * dim
    sites = [tuple(pos)]
    for _ in range(n_jumps):
        axis = int(rng.integers(0, dim))
        pos[axis] += int(rng.integers(0, 2)) * 2 - 1
        sites.append(tuple(pos))
    return WalkPath(horizon, tuple(float(t) for t in times), tuple(sites))


def run_rate_sweep(spec: SweepSpec) -> ExperimentReport:
    """Mollification-error rate of the exact per-path variance.

    For fixed seeded paths, fits log prop41_variance against log eps;
    passes iff every slope is at least min(2H, 1) - 0.1 with r^2 >= 0.95.
    """
    _require_fit_points(len(spec.epsilons))
    rows = []
    fits = {}
    passed = True
    for hv in spec.hursts:
        h = HurstParameter(hv)
        expected = min(2.0 * hv, 1.0)
        for n_jumps in spec.jump_counts:
            path = fixed_jump_path(n_jumps, spec.horizon, spec.dim,
                                   mix64(spec.master_seed, n_jumps))
            errors = [prop41_variance(path, h, eps) for eps in spec.epsilons]
            fit = fit_loglog(spec.epsilons, errors)
            ok = fit.slope >= expected - 0.1 and fit.r_squared >= 0.95
            passed = passed and ok
            fits[(hv, n_jumps)] = fit
            for eps, err in zip(spec.epsilons, errors):
                rows.append({"H": hv, "n_jumps": n_jumps, "eps": eps,
                             "variance": err, "slope": fit.slope,
                             "r_squared": fit.r_squared, "pass": ok})
    return ExperimentReport(
        "rate_sweep", rows,
        ["H", "n_jumps", "eps", "variance", "slope", "r_squared", "pass"],
        passed,
        "log-log slope of prop41_variance vs eps >= min(2H,1) - 0.1 "
        "with r^2 >= 0.95 for every (H, jump count)",
        fits)


def _ueps_grid(spec: SweepSpec
               ) -> tuple[TimeGrid, list[EpsilonDerivative]]:
    """The sweep's grid, step epsilons[-1]/4 and pad epsilons[0], and the
    epsilon-derivative of every ladder entry on it."""
    step = spec.epsilons[-1] / 4.0
    try:
        grid = TimeGrid(step, spec.horizon, pad=spec.epsilons[0])
        return grid, [EpsilonDerivative(grid, eps) for eps in spec.epsilons]
    except ValueError as exc:
        raise ValueError(
            f"ueps_convergence derives its grid step as epsilons[-1]/4 = "
            f"{step!r}, which must divide the horizon {spec.horizon!r} and "
            f"every epsilon of {list(spec.epsilons)} ({exc})") from exc


def _ueps_chunk(spec: SweepSpec, h: HurstParameter, grid: TimeGrid,
                derivatives: list[EpsilonDerivative],
                samples: range) -> np.ndarray:
    """sq[:, samples] of run_ueps_convergence, the samples as one batch.

    Sample k draws its walks from mix64(master_seed, 13, k) and reads its
    own field, seeded mix64(master_seed, 11, k), at the sites they touch.
    Every table row and every walk's exponent is the one a sample-by-sample
    loop computes, so the squares are bit-identical to it.
    """
    cfg = WalkConfig(spec.dim, spec.kappa, spec.horizon)
    batch = tagged_walk_batch(cfg, grid, [
        walk_block(cfg, np.random.default_rng(mix64(spec.master_seed, 13, k)),
                   spec.n_inner) for k in samples])
    # batch.sites are (sample position in the chunk, *site), sorted
    paths = np.concatenate([
        HurstField(h, grid, mix64(spec.master_seed, 11, k)).paths_on_grid(
            [site[1:] for site in group])
        for k, (_, group) in zip(samples, itertools.groupby(
            batch.sites, key=lambda site: site[0]))])
    rough_w = exp_weights(batch.gather(exponent_table(paths, grid, None)))
    sq = np.empty((len(derivatives), len(samples)))
    for e_i, derivative in enumerate(derivatives):
        smooth_w = exp_weights(
            batch.gather(exponent_table(paths, grid, derivative)))
        sq[e_i] = np.mean((smooth_w - rough_w).reshape(len(samples), -1),
                          axis=1) ** 2
    return sq


def run_ueps_convergence(spec: SweepSpec) -> ExperimentReport:
    """Paired estimate of E|u_eps - u|^2 on shared (noise, walk) draws.

    Common random numbers across the epsilon column: each outer noise
    draw shares its walks between the rough and every mollified
    functional.  Passes iff for each H the column decreases overall
    (final/first < 1/4) and the fitted slope clears min(2H,1) - 0.2.
    Outer samples are evaluated in chunks of at most _BATCH_WALKS walks
    (one sample per chunk if n_inner is larger), capped further so a
    chunk's walks times grid points stays within _BATCH_WALKS squared;
    the chunking changes no value.
    """
    _require_fit_points(len(spec.epsilons))
    grid, derivatives = _ueps_grid(spec)
    walks = min(_BATCH_WALKS, _BATCH_WALKS ** 2 // grid.total_points)
    chunk = max(1, walks // spec.n_inner)
    rows = []
    fits = {}
    passed = True
    for hv in spec.hursts:
        h = HurstParameter(hv)
        sq = np.zeros((len(spec.epsilons), spec.n_samples))
        for k0 in range(0, spec.n_samples, chunk):
            samples = range(k0, min(k0 + chunk, spec.n_samples))
            sq[:, k0:samples.stop] = _ueps_chunk(spec, h, grid, derivatives,
                                                 samples)
        means = sq.mean(axis=1)
        stderrs = sq.std(axis=1, ddof=1) / math.sqrt(spec.n_samples)
        fit = fit_loglog(spec.epsilons, means)
        expected = min(2.0 * hv, 1.0)
        decreasing = all(means[i + 1] <= means[i] + stderrs[i] + stderrs[i + 1]
                         for i in range(len(means) - 1))
        ok = (decreasing and means[-1] < means[0] / 4.0
              and fit.slope >= expected - 0.2)
        passed = passed and ok
        fits[hv] = fit
        for eps, m, se in zip(spec.epsilons, means, stderrs):
            rows.append({"H": hv, "eps": eps, "mean_sq_diff": m,
                         "stderr": se, "slope": fit.slope, "pass": ok})
    return ExperimentReport(
        "ueps_convergence", rows,
        ["H", "eps", "mean_sq_diff", "stderr", "slope", "pass"],
        passed,
        "paired E|u_eps - u|^2 decreasing, final < first/4, and "
        "slope >= min(2H,1) - 0.2 for every H",
        fits)


def run_rough_tail(spec: SweepSpec, deltas=(0.1, 0.05, 0.025)
                   ) -> ExperimentReport:
    """Tail of the short-gap count R and the derived L, K statistics.

    Fits C_hat(delta) from the successive tail ratios; passes iff the
    fits are stable within +/-50% across delta and L < R*delta, K <= R
    hold on every sampled path.
    """
    if any(delta <= 0 for delta in deltas):
        raise ValueError("deltas must be > 0")
    counts, flat = sample_poisson_jump_batch(spec.kappa, spec.horizon,
                                             spec.n_samples,
                                             mix64(spec.master_seed, 17))
    rows = []
    c_hats = []
    invariants_ok = True
    for delta in deltas:
        r, length, k = rough_stats_batch(counts, flat, delta)
        invariants_ok = invariants_ok and bool(
            np.all(k <= r) and np.all(length <= r * delta))
        tail = [float(np.mean(r >= n)) for n in range(4)]
        ratios = [tail[n + 1] / tail[n] if tail[n] > 0 else 0.0
                  for n in range(3)]
        c_hat = max(ratio / delta for ratio in ratios)
        c_hats.append(c_hat)
        tail_l = [float(np.mean(length >= n * delta)) for n in range(1, 4)]
        tail_k = [float(np.mean(k >= n)) for n in range(1, 4)]
        for n in range(3):
            rows.append({"delta": delta, "n": n, "p_r_ge_n": tail[n],
                         "ratio": ratios[n], "c_hat": c_hat,
                         "p_l_ge_ndelta": tail_l[n] if n < len(tail_l) else 0.0,
                         "p_k_ge_n": tail_k[n] if n < len(tail_k) else 0.0})
    criterion = ("tail ratios P(R>=n+1)/P(R>=n) bounded by a fitted "
                 "C_hat*delta, C_hat stable within +/-50% across delta, "
                 "and L < R*delta, K <= R on every path")
    positive = [c for c in c_hats if c > 0]
    if positive:
        ref = math.exp(np.mean(np.log(positive)))
        stable = all(0.5 * ref <= c <= 1.5 * ref for c in c_hats)
    else:
        stable = False
        criterion += ("; no sampled path has a short gap at any delta, so "
                      "C_hat cannot be fitted")
    return ExperimentReport(
        "rough_tail", rows,
        ["delta", "n", "p_r_ge_n", "ratio", "c_hat", "p_l_ge_ndelta",
         "p_k_ge_n"],
        stable and invariants_ok, criterion,
        {"c_hats": dict(zip(deltas, c_hats))})


def _crosscheck_row(spec: SweepSpec, epsilon: float, n_walks: int,
                    job: tuple[float, int]) -> dict:
    """One (H, realization) row of run_fk_pde_crosscheck.  It builds its
    own field, so only the spec and two numbers cross a process boundary."""
    hv, real = job
    grid = TimeGrid(epsilon / 8.0, spec.horizon, pad=epsilon)
    cfg = WalkConfig(spec.dim, spec.kappa, spec.horizon)
    center = cfg.start
    ic = InitialCondition.indicator(center)
    domain = BoxDomain(spec.dim, default_radius(spec.kappa, spec.horizon))
    fld = HurstField(HurstParameter(hv), grid,
                     mix64(spec.master_seed, 19, real))
    est = estimate_quenched(cfg, ic, fld, epsilon=epsilon, n_walks=n_walks,
                            seed=mix64(spec.master_seed, 23, real))
    scfg = SolverConfig(min(grid.step, 0.25 / spec.kappa), spec.kappa, grid,
                        epsilon)
    pde_val = solve_mollified(ic, fld, scfg, domain, center)[center]
    rich = richardson_check(ic, fld, scfg, domain, center)
    tol = 3.0 * est.stderr + rich
    return {"H": hv, "realization": real, "fk_mean": est.mean,
            "fk_stderr": est.stderr, "pde_value": pde_val,
            "richardson": rich, "tolerance": tol,
            "pass": abs(est.mean - pde_val) <= tol}


def run_fk_pde_crosscheck(spec: SweepSpec, epsilon: float = 0.1,
                          n_walks: int = 4000) -> ExperimentReport:
    """Quenched smooth FK estimate against the mollified PDE solution.

    Both sides read the same fixed noise field; passes iff at least 95%
    of (realization, H) checks agree within 3*stderr plus the Richardson
    time-discretization bound.  The checks are independent jobs: with
    spec.workers > 1 a process pool runs them, and pool.map returns the
    rows in job order, so the report is the same for any worker count.
    """
    jobs = [(hv, real) for hv in spec.hursts
            for real in range(spec.n_realizations)]
    row = partial(_crosscheck_row, spec, epsilon, n_walks)
    workers = min(spec.workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(row, jobs))
    else:
        rows = [row(job) for job in jobs]
    pass_rate = sum(r["pass"] for r in rows) / len(rows)
    return ExperimentReport(
        "fk_pde_crosscheck", rows,
        ["H", "realization", "fk_mean", "fk_stderr", "pde_value",
         "richardson", "tolerance", "pass"],
        pass_rate >= 0.95,
        "|FK quenched smooth - PDE| <= 3*stderr + Richardson bound for "
        ">= 95% of (H, realization) checks",
        {"pass_rate": pass_rate})


def run_kernel_sweep(spec: SweepSpec) -> ExperimentReport:
    """Bound verification sweep for the S2/S3 segment kernels."""
    rows = kernel_sweep_rows(spec.hursts, spec.epsilons, (0.25, spec.horizon),
                             horizon=spec.horizon)
    passed = all(r["within_bound"] for r in rows)
    return ExperimentReport(
        "kernel_sweep", rows,
        ["kernel", "H", "eps", "t1", "t2", "value", "target", "bound",
         "within_bound"],
        passed,
        "|value - target| <= bound at every sweep point")


EXPERIMENTS = {
    "rate_sweep": run_rate_sweep,
    "ueps_convergence": run_ueps_convergence,
    "rough_tail": run_rough_tail,
    "fk_pde_crosscheck": run_fk_pde_crosscheck,
    "kernel_sweep": run_kernel_sweep,
}


def write_csv(path: str, fieldnames, rows,
              header_lines: tuple[str, ...] = ()) -> None:
    """Write `# `-prefixed header lines, the field names and the rows.

    Floats are written as repr(float(v)), which round-trips exactly;
    every other value (bools, ints, strings) as str(v).
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float)
                             else str(v) for v in row])


def write_report(report: ExperimentReport, outdir: str,
                 header_lines: tuple[str, ...] = ()) -> tuple[str, str]:
    """Write <name>.csv and <name>.verdict.txt; returns the two paths."""
    csv_path = os.path.join(outdir, f"{report.name}.csv")
    write_csv(csv_path, report.fieldnames,
              ([row[k] for k in report.fieldnames] for row in report.rows),
              header_lines)
    verdict_path = os.path.join(outdir, f"{report.name}.verdict.txt")
    with open(verdict_path, "w") as fh:
        fh.write(f"{'PASS' if report.passed else 'FAIL'}\n")
        fh.write(f"criterion: {report.criterion}\n")
    return csv_path, verdict_path
