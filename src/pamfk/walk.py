"""Continuous-time simple random walk on Z^d and its jump-gap statistics.

Walks jump at rate kappa, each jump moving to one of the 2d nearest
neighbors uniformly (generator kappa * Delta with the normalized discrete
Laplacian).  The rough/calm decomposition counts short inter-jump gaps:
R short gaps, K maximal runs of them, L the total run length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Site = tuple[int, ...]


@dataclass(frozen=True)
class WalkConfig:
    dim: int
    kappa: float
    horizon: float
    start: Site = ()

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")
        start = self.start if self.start else (0,) * self.dim
        if len(start) != self.dim:
            raise ValueError("start must have dim coordinates")
        object.__setattr__(self, "start", tuple(start))


@dataclass(frozen=True)
class WalkPath:
    """Jump times in (0, horizon) and the visited sites.

    sites has one more entry than jump_times; the walk sits at sites[i]
    on [jump_times[i-1], jump_times[i]) with the conventions t_0 = 0 and
    t_{N+1} = horizon.
    """

    horizon: float
    jump_times: tuple[float, ...]
    sites: tuple[Site, ...]

    def __post_init__(self) -> None:
        n = len(self.jump_times)
        if len(self.sites) != n + 1:
            raise ValueError("need exactly one more site than jump times")
        t = self.jump_times
        if n and (any(b <= a for a, b in zip(t, t[1:])) or t[0] <= 0
                  or t[-1] >= self.horizon):
            raise ValueError("jump times must be strictly increasing "
                             "inside (0, horizon)")
        for a, b in zip(self.sites[:-1], self.sites[1:]):
            if sum(abs(ai - bi) for ai, bi in zip(a, b)) != 1:
                raise ValueError("consecutive sites must be lattice neighbors")

    @property
    def jump_count(self) -> int:
        return len(self.jump_times)

    def segments(self):
        """(t_i, t_{i+1}, site_i) triples covering [0, horizon]."""
        bounds = (0.0, *self.jump_times, self.horizon)
        return list(zip(bounds[:-1], bounds[1:], self.sites))

    def segments_by_site(self) -> dict[Site, list[tuple[float, float]]]:
        """The (t_i, t_{i+1}) segments grouped by site, in time order."""
        groups: dict[Site, list[tuple[float, float]]] = {}
        for lo, hi, site in self.segments():
            groups.setdefault(site, []).append((lo, hi))
        return groups

    def terminal_site(self) -> Site:
        return self.sites[-1]


@dataclass(frozen=True)
class RoughStats:
    delta: float
    r_count: int
    rough_length: float
    rough_periods: int

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError("delta must be > 0")
        if self.rough_periods > self.r_count:
            raise ValueError("K <= R violated")


def walk_draws(cfg: WalkConfig, seed: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The random numbers of one walk, the single definition of its law.

    A Poisson(kappa * horizon) jump count n, then n uniforms on [0, 1)
    (unsorted; sorted and scaled by horizon they are the jump times),
    n jump axes in [0, dim) and n sign bits (0 for -1, 1 for +1), drawn
    in that order from default_rng(seed).
    """
    rng = np.random.default_rng(seed)
    n = rng.poisson(cfg.kappa * cfg.horizon)
    return (rng.random(n), rng.integers(0, cfg.dim, size=n),
            rng.integers(0, 2, size=n))


def sample_walk(cfg: WalkConfig, seed: int) -> WalkPath:
    """One rate-kappa walk on [0, horizon]; deterministic given seed."""
    u, axes, bits = walk_draws(cfg, seed)
    times = np.sort(u) * cfg.horizon
    signs = bits * 2 - 1
    sites = [cfg.start]
    pos = list(cfg.start)
    for axis, sign in zip(axes, signs):
        pos[axis] += int(sign)
        sites.append(tuple(pos))
    return WalkPath(cfg.horizon, tuple(float(t) for t in times), tuple(sites))


def reverse_view(p: WalkPath) -> WalkPath:
    """The time-reversed path s -> X(horizon - s); an involution."""
    t = p.horizon
    times = tuple(t - s for s in reversed(p.jump_times))
    return WalkPath(t, times, tuple(reversed(p.sites)))


def rough_stats(p: WalkPath, delta: float) -> RoughStats:
    """Short-gap statistics of the jump times.

    R counts gaps t_i - t_{i-1} strictly below delta with t_0 = 0
    included; rough periods are maximal runs of consecutive jumps at
    most delta apart (a period begins with a jump and ends with
    another, so it needs at least two jumps), K is their number and L
    their total length.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    times = np.asarray(p.jump_times)
    if len(times) == 0:
        return RoughStats(delta, 0, 0.0, 0)
    gaps_from_zero = np.diff(np.concatenate([[0.0], times]))
    r_count = int(np.count_nonzero(gaps_from_zero < delta))
    inner = np.diff(times)  # gaps between actual jumps
    merged = inner <= delta
    rough_length = float(inner[merged].sum())
    starts = merged & ~np.concatenate([[False], merged[:-1]])
    rough_periods = int(np.count_nonzero(starts))
    return RoughStats(delta, r_count, rough_length, rough_periods)


def rough_stats_batch(jump_counts: np.ndarray, flat_times: np.ndarray,
                      delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized rough_stats over many paths.

    jump_counts[i] jumps for path i; flat_times holds all paths' jump
    times concatenated, each path's block sorted ascending.  Returns
    (R, L, K) arrays.
    """
    n_paths = len(jump_counts)
    offsets = np.concatenate([[0], np.cumsum(jump_counts)])
    total = offsets[-1]
    if total == 0:
        z = np.zeros(n_paths)
        return z.astype(int), z, z.astype(int)
    path_id = np.repeat(np.arange(n_paths), jump_counts)
    prev = np.empty(total)
    prev[0] = 0.0
    prev[1:] = flat_times[:-1]
    is_first = np.zeros(total, dtype=bool)
    is_first[offsets[:-1][jump_counts > 0]] = True
    prev[is_first] = 0.0
    gaps = flat_times - prev

    r = np.zeros(n_paths, dtype=int)
    np.add.at(r, path_id, (gaps < delta).astype(int))

    inner_mask = ~is_first
    merged = inner_mask & (gaps <= delta)
    length = np.zeros(n_paths)
    np.add.at(length, path_id, np.where(merged, gaps, 0.0))

    prev_merged = np.concatenate([[False], merged[:-1]])
    prev_merged[is_first] = False
    starts = merged & ~prev_merged
    k = np.zeros(n_paths, dtype=int)
    np.add.at(k, path_id, starts.astype(int))
    return r, length, k


def sample_poisson_jump_batch(rate: float, horizon: float, n_paths: int,
                              seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Jump times of n_paths Poisson(rate) processes on [0, horizon].

    Returns (jump_counts, flat_times) in the layout rough_stats_batch
    expects.
    """
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rate * horizon, size=n_paths)
    total = int(counts.sum())
    u = rng.random(total)
    path_id = np.repeat(np.arange(n_paths), counts)
    order = np.lexsort((u, path_id))
    return counts, u[order] * horizon
