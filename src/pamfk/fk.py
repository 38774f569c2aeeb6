"""Feynman-Kac functionals and Monte Carlo estimators.

The solution at (t, x) is the walk-average of u_o(X(t)) times the
exponential of a noise functional along the time-reversed path: either
the rough increment sum (the stochastic integral) or the mollified
integral of dW_eps.  Estimators draw their walks in fixed-size blocks,
one random stream per block, and run in the calling process, so they
are deterministic given (seed, n_walks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._seeds import mix64, site_seed
from .fbm import (EpsilonDerivative, HurstField, HurstParameter, TimeGrid,
                  sample_at_times)
from .kernels import path_increment_variance
from .walk import (Site, WalkConfig, WalkPath, reverse_view, sample_walk,
                   walk_block)

EXP_CLAMP = 700.0


class ClampError(RuntimeError):
    """An exponent hit the overflow clamp; the estimate is unreliable."""


@dataclass(frozen=True)
class InitialCondition:
    """Bounded initial datum u_o: a constant, or the indicator of one site."""

    value: float = 1.0
    site: Site | None = None

    @classmethod
    def constant(cls, c: float = 1.0) -> "InitialCondition":
        return cls(value=c)

    @classmethod
    def indicator(cls, site: Site) -> "InitialCondition":
        return cls(site=tuple(site))

    def __call__(self, site: Site) -> float:
        if self.site is None:
            return self.value
        return 1.0 if tuple(site) == self.site else 0.0


@dataclass(frozen=True)
class EstimateResult:
    mean: float
    stderr: float
    count: int
    mode: str
    seed: int


class WalkBatch:
    """Walks time-reversed and snapped to the grid once, for batch gathers.

    Segment c of walk i sits at sites[row[i, c]] between the grid indices
    lo[i, c] and hi[i, c], counted from the time-0 point: each reversed
    jump time t becomes round(t / step), clamped to [0, count - 1].  Rows
    are padded to the longest walk with lo = hi = 0 at row 0, so padding
    adds exactly +0.0.  Site rows are numbered in np.unique (sorted)
    order; terminal[i] is walk i's site at the horizon.

    WalkBatch(paths, grid) flattens WalkPaths; the FK estimators build
    their batches straight from arrays with sample_walk_batch, and the
    u_eps sweep lays many blocks out at once with tagged_walk_batch.
    """

    def __init__(self, paths: Sequence[WalkPath], grid: TimeGrid) -> None:
        paths = list(paths)
        dim = len(paths[0].sites[0]) if paths else 1
        self._lay_out(
            np.array([p.jump_count for p in paths], dtype=np.intp),
            np.array([t for p in paths for t in p.jump_times], dtype=float),
            np.array([s for p in paths for s in p.sites],
                     dtype=np.intp).reshape(-1, dim),
            np.array([p.horizon for p in paths], dtype=float), grid)

    @classmethod
    def _from_arrays(cls, counts, times, sites, horizons,
                     grid: TimeGrid) -> "WalkBatch":
        batch = cls.__new__(cls)
        batch._lay_out(counts, times, sites, horizons, grid)
        return batch

    def _lay_out(self, counts: np.ndarray, times: np.ndarray,
                 sites: np.ndarray, horizons: np.ndarray,
                 grid: TimeGrid) -> None:
        """Fill lo/hi/row/sites/terminal from flat per-walk arrays.

        Walk i has counts[i] forward jump times (ascending) in times and
        counts[i] + 1 forward sites, one (dim,) row per segment, in sites.
        """
        width = int(counts.max(initial=0)) + 1
        cols = np.arange(width + 1)
        jump_end = np.cumsum(counts)
        seg_end = jump_end + np.arange(1, len(counts) + 1)
        # flat index j of walk i read backwards: first_i + last_i - j
        rev_jump = (np.repeat(2 * jump_end - counts - 1, counts)
                    - np.arange(len(times)))
        rev_seg = (np.repeat(2 * seg_end - counts - 2, counts + 1)
                   - np.arange(len(sites)))
        # reversed time bounds 0 = b_0 < b_1 < ... < b_{N+1} = horizon
        bounds = np.zeros((len(counts), width + 1))
        bounds[(cols >= 1) & (cols <= counts[:, None])] = (
            np.repeat(horizons, counts) - times[rev_jump])
        bounds[cols == counts[:, None] + 1] = horizons
        idx = np.clip(np.rint(bounds / grid.step), 0, grid.count - 1)
        idx = idx.astype(np.intp)
        live = cols[:-1] <= counts[:, None]
        self.lo = np.where(live, idx[:, :-1], 0)
        self.hi = np.where(live, idx[:, 1:], 0)
        uniq, inverse = np.unique(sites[rev_seg], axis=0,
                                  return_inverse=True)
        self.row = np.zeros((len(counts), width), dtype=np.intp)
        self.row[live] = inverse.reshape(-1)
        self.sites = [tuple(site) for site in uniq.tolist()]
        self.terminal = sites[seg_end - 1]

    def __len__(self) -> int:
        return len(self.lo)

    def gather(self, table: np.ndarray) -> np.ndarray:
        """Per-walk sum of table[site, hi] - table[site, lo] over segments.

        Columns are added one at a time from 0.0, the order of a scalar
        loop over one walk's segments, so every sum is bit-identical to it.
        """
        total = np.zeros(len(self))
        for column in (table[self.row, self.hi]
                       - table[self.row, self.lo]).T:
            total += column
        return total


def require_fine_grid(grid: TimeGrid, epsilon: float | None) -> None:
    """ValueError unless step <= eps/4; epsilon None takes any grid."""
    if epsilon is not None and epsilon < 4.0 * grid.step - 1e-12:
        raise ValueError(
            f"grid too coarse for epsilon={epsilon}: need step <= eps/4, "
            f"got step={grid.step}; refine the grid")


def exponent_table(paths: np.ndarray, grid: TimeGrid,
                   derivative: EpsilonDerivative | None) -> np.ndarray:
    """The per-site table a WalkBatch gathers its FK exponents from.

    paths holds grid paths row by row, such as paths_on_grid rows.  With
    derivative None the table is W on [0, horizon] (rough functional),
    else the cumulative trapezoid of dW_eps from 0 (mollified one).  Each
    row depends on its own path only.
    """
    if derivative is None:
        zi = grid.zero_index
        return paths[:, zi:zi + grid.count]
    dw = derivative.grid_values(paths)
    return np.concatenate(
        [np.zeros((len(dw), 1)),
         np.cumsum(0.5 * (dw[:, :-1] + dw[:, 1:]) * grid.step, axis=1)],
        axis=1)


class GridFunctionalEvaluator:
    """Evaluates rough and mollified FK exponents against one grid field.

    Jump times are snapped to the nearest grid point, which keeps both
    functionals on the same probability space.  A walk batch's exponents
    are gathers from one exponent_table built from a single paths_on_grid
    read of the batch's sites.
    """

    def __init__(self, field, epsilon: float | None = None) -> None:
        self.field = field
        self.grid: TimeGrid = field.grid
        self._ed = (EpsilonDerivative(self.grid, epsilon)
                    if epsilon is not None else None)
        require_fine_grid(self.grid, epsilon)

    def exponents(self, batch: WalkBatch, mode: str) -> np.ndarray:
        """Rough (W increment sum) or smooth (trapezoid integral of dW_eps)
        exponent of every walk in the batch, along its reversed path."""
        if mode == "smooth" and self._ed is None:
            raise ValueError("evaluator built without epsilon")
        if not len(batch):
            return np.zeros(0)
        return batch.gather(exponent_table(
            self.field.paths_on_grid(batch.sites), self.grid,
            self._ed if mode == "smooth" else None))

    def rough(self, path: WalkPath) -> float:
        """Sum of W increments over the time-reversed path's segments."""
        return self.exponents(WalkBatch([path], self.grid), "rough")[0]

    def smooth(self, path: WalkPath) -> float:
        """Trapezoid integral of dW_eps along the time-reversed path."""
        return self.exponents(WalkBatch([path], self.grid), "smooth")[0]


def rough_functional_exact(path: WalkPath, hurst: HurstParameter,
                           noise_seed: int) -> float:
    """Exact-mode rough FK exponent: joint Cholesky draws per site.

    Each call draws a fresh, internally consistent realization; use the
    same noise_seed with the same path for reproducibility.
    """
    total = 0.0
    for site, segs in reverse_view(path).segments_by_site().items():
        times = sorted({t for seg in segs for t in seg if t > 0.0})
        values = dict(zip(times, sample_at_times(
            hurst, times, site_seed(noise_seed, site))))
        values[0.0] = 0.0
        for lo, hi in segs:
            total += values[hi] - values[lo]
    return total


def sample_walk_snapped(cfg: WalkConfig, grid: TimeGrid, seed: int) -> WalkPath:
    """One walk whose jump times are distinct after snapping to the grid.

    A conditioned law that no estimator uses, kept because the benchmark
    harness (perfbench/test_harness.py) deletes this binding: a walk with
    two jumps on one grid index, or a jump on the first or last grid
    point, is redrawn with seed mix64(seed, attempt).
    """
    for attempt in range(64):
        path = sample_walk(cfg, seed if attempt == 0 else mix64(seed, attempt))
        snapped = [round(t / grid.step) * grid.step for t in path.jump_times]
        idx = [round(t / grid.step) for t in snapped]
        if (len(set(idx)) == len(idx)
                and all(0 < j < grid.count - 1 for j in idx)):
            return WalkPath(path.horizon, tuple(snapped), path.sites)
    raise RuntimeError(
        "could not sample a collision-free walk; grid too coarse")


def sample_walk_batch(cfg: WalkConfig, grid: TimeGrid, seed: int,
                      n: int) -> WalkBatch:
    """The n walks of walk_block(cfg, default_rng(seed), n) as a WalkBatch.

    Nothing is rejected: a jump that rounds onto another jump's grid
    index or onto an end of the grid is a zero-length segment.
    """
    counts, times, sites = walk_block(cfg, np.random.default_rng(seed), n)
    return WalkBatch._from_arrays(counts, times, sites,
                                  np.full(n, cfg.horizon), grid)


def tagged_walk_batch(cfg: WalkConfig, grid: TimeGrid,
                      blocks: Sequence[tuple[np.ndarray, np.ndarray,
                                             np.ndarray]]) -> WalkBatch:
    """The walk_block outputs in blocks laid out as one WalkBatch.

    Every site of block j gets j as a leading coordinate, so batch.sites
    (and terminal) read (j, *site): they are sorted by block, and no two
    blocks share a table row.  The walks keep their order, block by block.
    """
    counts, times, sites = zip(*blocks)
    tagged = [np.column_stack([np.full(len(s), j, dtype=np.intp), s])
              for j, s in enumerate(sites)]
    counts = np.concatenate(counts)
    return WalkBatch._from_arrays(
        counts, np.concatenate(times), np.concatenate(tagged),
        np.full(len(counts), cfg.horizon), grid)


def exp_weights(exponents: np.ndarray) -> np.ndarray:
    """math.exp of every exponent; ClampError if any |x| > EXP_CLAMP."""
    clamps = int(np.count_nonzero(np.abs(exponents) > EXP_CLAMP))
    if clamps:
        raise ClampError(f"{clamps} exponent(s) hit the overflow clamp")
    return np.array([math.exp(x) for x in exponents.tolist()], dtype=float)


# Walks per block.  Block b of an estimate draws its walks from the
# stream mix64(seed, b), so this constant is part of the determinism
# contract: changing it changes every estimate.
_BATCH_WALKS = 512


def estimate_quenched(cfg: WalkConfig, ic: InitialCondition, field,
                      epsilon: float | None = None, n_walks: int = 1000,
                      seed: int = 0) -> EstimateResult:
    """Walk-average of FK weights for one fixed noise realization.

    The rough functional when epsilon is None, else the mollified one.
    The walks come in blocks of _BATCH_WALKS, block b drawn by
    sample_walk_batch from the stream mix64(seed, b), and the weights
    are reduced in walk order, so the result depends on (seed, n_walks)
    only.  It runs in the calling process; parallel work splits the
    realizations above it (experiments.run_fk_pde_crosscheck).
    """
    if n_walks < 1:
        raise ValueError("n_walks must be >= 1")
    mode = "rough" if epsilon is None else "smooth"
    evaluator = GridFunctionalEvaluator(field, epsilon)
    blocks = []
    for b in range(-(-n_walks // _BATCH_WALKS)):
        n = min(_BATCH_WALKS, n_walks - b * _BATCH_WALKS)
        batch = sample_walk_batch(cfg, field.grid, mix64(seed, b), n)
        w = exp_weights(evaluator.exponents(batch, mode))
        blocks.append(w * [ic(site) for site in batch.terminal.tolist()])
    weights = np.concatenate(blocks)
    mean = float(np.sum(weights) / n_walks)
    std = float(np.std(weights, ddof=1)) if n_walks > 1 else 0.0
    return EstimateResult(
        mean=mean, stderr=std / math.sqrt(n_walks), count=n_walks,
        mode=f"quenched-{mode}", seed=seed)


def estimate_annealed_moment(cfg: WalkConfig, ic: InitialCondition,
                             hurst: HurstParameter, grid: TimeGrid,
                             p: float = 1.0, epsilon: float | None = None,
                             n_outer: int = 200, n_inner: int = 200,
                             seed: int = 0) -> EstimateResult:
    """Nested Monte Carlo estimate of E|u(t,x)|^p, or of E|u_eps|^p when
    epsilon is given.

    Each outer sample draws a fresh noise realization and averages the
    FK weight over n_inner walks.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    samples = np.empty(n_outer)
    for k in range(n_outer):
        fld = HurstField(hurst, grid, mix64(seed, k))
        inner = estimate_quenched(cfg, ic, fld, epsilon=epsilon,
                                  n_walks=n_inner, seed=mix64(seed, k, 1))
        samples[k] = abs(inner.mean) ** p
    mean = float(np.mean(samples))
    std = float(np.std(samples, ddof=1)) if n_outer > 1 else 0.0
    return EstimateResult(
        mean=mean, stderr=std / math.sqrt(n_outer), count=n_outer,
        mode=f"annealed-{'rough' if epsilon is None else 'smooth'}",
        seed=seed)


def annealed_mean_rough_oracle(cfg: WalkConfig, hurst: HurstParameter,
                               n_walks: int = 2000, seed: int = 0) -> float:
    """E u(t,x) for u_o = 1 via the Gaussian moment formula.

    Averaging exp(Var[rough functional]/2) over walks, with the per-path
    variance computed exactly from the increment covariance.
    """
    total = 0.0
    for i in range(n_walks):
        path = sample_walk(cfg, mix64(seed, i))
        total += math.exp(0.5 * path_increment_variance(
            reverse_view(path), hurst))
    return total / n_walks
