"""Fractional Brownian field on the lattice.

One independent fractional Brownian motion per lattice site, all with the
same Hurst parameter.  Uniform-grid paths are drawn by circulant embedding
of fractional Gaussian noise, irregular time designs by exact joint
Cholesky sampling.  The symmetric epsilon-derivative (W(t+eps) - W(t-eps))
/ (2 eps) is the mollified noise used everywhere else in the package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as _dc_field
from typing import Sequence

import numpy as np

from ._seeds import site_seed

Site = tuple[int, ...]

EXACT_MODE_CAP = 512

_DIVISIBILITY_RTOL = 1e-9


class ExactModeCapError(ValueError):
    """Too many times for exact joint sampling; use grid mode instead."""


@dataclass(frozen=True)
class HurstParameter:
    """Hurst exponent, restricted to the open interval (0, 1)."""

    h: float

    def __post_init__(self) -> None:
        if not (0.0 < self.h < 1.0):
            raise ValueError(f"H must be in (0,1), got {self.h}")

    @property
    def two_h(self) -> float:
        return 2.0 * self.h


def covariance(h: HurstParameter, t: float, s: float) -> float:
    """fBm covariance R_H(t, s) = (|t|^2H + |s|^2H - |t-s|^2H) / 2.

    Valid for any real t, s; the sign convention for negative times is
    built into the formula.
    """
    a = h.two_h
    return 0.5 * (abs(t) ** a + abs(s) ** a - abs(t - s) ** a)


def increment_covariance(h: HurstParameter, a: float, b: float,
                         c: float, d: float) -> float:
    """Covariance of W(a) - W(b) with W(c) - W(d)."""
    p = h.two_h
    return 0.5 * (abs(a - d) ** p + abs(b - c) ** p
                  - abs(a - c) ** p - abs(b - d) ** p)


def _is_multiple(value: float, step: float) -> bool:
    if value < 0:
        return False
    ratio = value / step
    return abs(ratio - round(ratio)) <= _DIVISIBILITY_RTOL * max(1.0, ratio)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, horizon], stored two-sided on [-pad, horizon+pad].

    The pad absorbs the epsilon-shifts of the symmetric derivative so
    W(t +/- eps) never needs extrapolation; time 0 sits at an interior
    index of the stored array.
    """

    step: float
    horizon: float
    pad: float = 0.0

    def __post_init__(self) -> None:
        if self.step <= 0 or self.horizon <= 0 or self.pad < 0:
            raise ValueError("step and horizon must be > 0, pad >= 0")
        if not _is_multiple(self.horizon, self.step):
            raise ValueError("step must divide horizon exactly")
        if not _is_multiple(self.pad, self.step):
            raise ValueError("step must divide pad exactly")
        if self.count < 2:
            raise ValueError("grid needs at least 2 points")

    @property
    def count(self) -> int:
        """Number of grid points on [0, horizon]."""
        return round(self.horizon / self.step) + 1

    @property
    def zero_index(self) -> int:
        return round(self.pad / self.step)

    @property
    def total_points(self) -> int:
        return round((self.horizon + 2.0 * self.pad) / self.step) + 1

    @property
    def times(self) -> np.ndarray:
        """All stored times, from -pad to horizon + pad."""
        return (np.arange(self.total_points) - self.zero_index) * self.step

    def index_of(self, t: float) -> int:
        """Index of a grid-aligned time; raises if t is off-grid or outside."""
        x = (t + self.pad) / self.step
        i = round(x)
        if abs(x - i) > 1e-6:
            raise ValueError(f"time {t} is not on the grid (step {self.step})")
        if not (0 <= i < self.total_points):
            raise ValueError(f"time {t} outside stored range "
                             f"[{-self.pad}, {self.horizon + self.pad}]")
        return i


def fgn_autocovariance(h: HurstParameter, lags: np.ndarray) -> np.ndarray:
    """Autocovariance of unit-step fractional Gaussian noise at integer lags."""
    p = h.two_h
    k = np.abs(np.asarray(lags, dtype=float))
    return 0.5 * (np.abs(k + 1.0) ** p + np.abs(k - 1.0) ** p - 2.0 * k ** p)


@functools.lru_cache(maxsize=32)
def _circulant_eigenvalues(two_h: float, n: int) -> np.ndarray:
    """Eigenvalues of the circulant embedding of n fGn steps; it is
    nonnegative definite for every H (Dietrich & Newsam 1997)."""
    h = HurstParameter(two_h / 2.0)
    rho = fgn_autocovariance(h, np.arange(n + 1))
    c = np.concatenate([rho, rho[-2:0:-1]])  # length 2n
    lam = np.fft.fft(c).real
    if lam.min() < -1e-9 * lam.max():
        raise np.linalg.LinAlgError(
            f"circulant embedding not nonnegative definite (H={h.h}, n={n})")
    return np.clip(lam, 0.0, None)


def _normals_to_spectral(z: np.ndarray, n: int) -> np.ndarray:
    """Map 2n iid standard normals to the Hermitian spectral-domain vector."""
    m = 2 * n
    out = np.zeros(z.shape[:-1] + (m,), dtype=complex)
    out[..., 0] = z[..., 0]
    out[..., n] = z[..., 1]
    # bin k in 1..n-1 takes z[2k] + i z[2k+1]; bin 2n-k is its conjugate
    out[..., 1:n] = (z[..., 2:m:2] + 1j * z[..., 3:m:2]) / np.sqrt(2.0)
    out[..., n + 1:] = np.conj(out[..., n - 1:0:-1])
    return out


def _fgn_from_normals(h: HurstParameter, n: int, z: np.ndarray) -> np.ndarray:
    """Unit-step fGn of length n from a (..., 2n) block of standard normals."""
    lam = _circulant_eigenvalues(h.two_h, n)
    m = 2 * n
    spec = _normals_to_spectral(z, n)
    return np.sqrt(m) * np.fft.ifft(np.sqrt(lam) * spec).real[..., :n]


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * float(np.max(np.diag(cov)))
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "covariance matrix not positive definite beyond jitter "
                "tolerance; this indicates a numerics bug") from exc


def sample_grid_paths(h: HurstParameter, grid: TimeGrid,
                      seeds: Sequence[int]) -> np.ndarray:
    """fBm paths over the stored grid [-pad, horizon+pad], one per seed.

    Each row depends on its own seed only.  W(0) = 0 exactly (column
    grid.zero_index): a one-sided path re-centered at the pad offset is
    two-sided, exactly, by stationarity of fBm increments.
    """
    n = grid.total_points - 1
    z = np.empty((len(seeds), 2 * n))
    for i, seed in enumerate(seeds):
        z[i] = np.random.default_rng(seed).standard_normal(2 * n)
    fgn = _fgn_from_normals(h, n, z) * grid.step ** h.h
    paths = np.concatenate([np.zeros((len(seeds), 1)), np.cumsum(fgn, axis=1)],
                           axis=1)
    return paths - paths[:, grid.zero_index:grid.zero_index + 1]


@functools.lru_cache(maxsize=64)
def _exact_cholesky(two_h: float, times: tuple[float, ...]) -> np.ndarray:
    t = np.asarray(times)
    cov = 0.5 * (np.abs(t[:, None]) ** two_h + np.abs(t[None, :]) ** two_h
                 - np.abs(t[:, None] - t[None, :]) ** two_h)
    return _cholesky_with_jitter(cov)


def sample_at_times(h: HurstParameter, times: Sequence[float],
                    seed: int) -> np.ndarray:
    """Exact joint draw of (W(t_1), ..., W(t_k)) at strictly increasing times."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing and > 0")
    if len(t) > EXACT_MODE_CAP:
        raise ExactModeCapError(
            f"{len(t)} times exceeds the exact-mode cap of "
            f"{EXACT_MODE_CAP}; use grid mode instead")
    chol = _exact_cholesky(h.two_h, tuple(t))
    z = np.random.default_rng(seed).standard_normal(len(t))
    return chol @ z


class HurstField:
    """Lazily populated family of independent per-site fBm paths.

    Each site's path comes from a seed stream derived deterministically
    from (master_seed, site), so the field does not depend on the order
    in which sites are first touched.  paths_on_grid is the only read:
    it returns the paths of a set of sites stacked row by row, drawing
    all missing ones in one batch.  Every path is drawn once and cached,
    before and after freeze(); caching changes no value.
    """

    def __init__(self, hurst: HurstParameter, grid: TimeGrid,
                 master_seed: int) -> None:
        self.hurst = hurst
        self.grid = grid
        self.master_seed = master_seed
        self._paths: dict[Site, np.ndarray] = {}
        self._frozen = False

    def paths_on_grid(self, sites: Sequence[Site]) -> np.ndarray:
        """Paths of sites stacked row by row; missing ones drawn together."""
        sites = [tuple(site) for site in sites]
        missing = [s for s in dict.fromkeys(sites) if s not in self._paths]
        if missing:
            rows = sample_grid_paths(
                self.hurst, self.grid,
                [site_seed(self.master_seed, s) for s in missing])
            self._paths.update(zip(missing, rows))
        return np.array([self._paths[s] for s in sites])

    def freeze(self) -> "HurstField":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def value(self, t: float, site: Site) -> float:
        """W(t, site); exact at grid points, linear interpolation between."""
        grid = self.grid
        if not (-grid.pad - 1e-12 <= t <= grid.horizon + grid.pad + 1e-12):
            raise ValueError(f"time {t} outside stored range")
        path = self.paths_on_grid([site])[0]
        x = (t + grid.pad) / grid.step
        i = int(np.floor(x))
        i = min(max(i, 0), grid.total_points - 2)
        frac = x - i
        return float((1.0 - frac) * path[i] + frac * path[i + 1])


class ZeroField:
    """Noise-disabled stand-in with the HurstField grid interface."""

    def __init__(self, grid: TimeGrid) -> None:
        self.grid = grid

    def paths_on_grid(self, sites: Sequence[Site]) -> np.ndarray:
        return np.zeros((len(sites), self.grid.total_points))

    def value(self, t: float, site: Site) -> float:
        return 0.0

    def freeze(self) -> "ZeroField":
        return self

    @property
    def frozen(self) -> bool:
        return True


@dataclass(frozen=True)
class EpsilonDerivative:
    """Symmetric epsilon-derivative view of a field.

    epsilon must be a grid multiple in [step, pad] so W(t +/- eps) is
    always available on the stored grid.
    """

    field: object
    epsilon: float
    _shift: int = _dc_field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        grid = self.field.grid
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not _is_multiple(self.epsilon, grid.step):
            raise ValueError("epsilon must be an exact multiple of grid.step")
        shift = round(self.epsilon / grid.step)
        if shift < 1:
            raise ValueError("epsilon must be >= grid.step")
        if self.epsilon > grid.pad + 1e-12 * grid.step:
            raise ValueError("epsilon must be <= grid.pad")
        object.__setattr__(self, "_shift", shift)

    def at(self, t: float, site: Site) -> float:
        """(W(t+eps) - W(t-eps)) / (2 eps); exact when t is grid-aligned."""
        f = self.field
        return (f.value(t + self.epsilon, site)
                - f.value(t - self.epsilon, site)) / (2.0 * self.epsilon)

    def grid_values(self, paths: np.ndarray) -> np.ndarray:
        """dW_eps at every grid time in [0, horizon] from grid paths of
        shape (..., total_points), such as paths_on_grid rows."""
        grid = self.field.grid
        zi, k, n = grid.zero_index, self._shift, grid.count
        return (paths[..., zi + k:zi + k + n]
                - paths[..., zi - k:zi - k + n]) / (2.0 * self.epsilon)
