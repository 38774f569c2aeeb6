"""Direct integration of the mollified lattice equation.

Solves du/dt = kappa * Lap(u) + u * dW_eps on a truncated sup-norm box
with zero Dirichlet boundary, by Strang splitting with an exact scalar
reaction sub-step.  This is the independent cross-check for the smooth
Feynman-Kac estimator: both read the same rows of one fixed noise field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .fbm import TimeGrid
from .walk import Site


@dataclass(frozen=True)
class BoxDomain:
    """Sup-norm ball of lattice sites around a center, Dirichlet zero outside."""

    dim: int
    radius: int

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise ValueError("radius must be >= 1")

    @property
    def shape(self) -> tuple[int, ...]:
        return (2 * self.radius + 1,) * self.dim

    def offsets(self) -> list[tuple[int, ...]]:
        r = self.radius
        return list(product(range(-r, r + 1), repeat=self.dim))


def default_radius(kappa: float, horizon: float) -> int:
    """Smallest box for which the walk's exit probability is negligible.

    kappa*t + 8*sqrt(kappa*t + 1) puts the Poisson tail of the total jump
    count below ~1e-6 at desk-scale parameters.
    """
    kt = kappa * horizon
    return max(1, math.ceil(kt + 8.0 * math.sqrt(kt + 1.0)))


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    kappa: float
    grid: TimeGrid
    epsilon: float

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.dt > 0.25 / self.kappa + 1e-12:
            raise ValueError(
                f"dt={self.dt} violates the diffusion stability bound "
                f"0.25/kappa = {0.25 / self.kappa}")
        if self.dt > self.grid.step + 1e-12:
            raise ValueError("dt must not exceed the noise grid step")
        n = self.grid.horizon / self.dt
        if abs(n - round(n)) > 1e-9:
            raise ValueError("dt must divide the horizon exactly")

    @property
    def n_steps(self) -> int:
        return round(self.grid.horizon / self.dt)


def discrete_laplacian(u: np.ndarray, dim: int) -> np.ndarray:
    """(Lap u)(x) = (1/2d) sum over neighbors (u(y) - u(x)), zero outside."""
    out = -u.astype(float, copy=True)
    for axis in range(dim):
        for shift in (1, -1):
            shifted = np.zeros_like(out)
            src = [slice(None)] * dim
            dst = [slice(None)] * dim
            if shift == 1:
                src[axis], dst[axis] = slice(1, None), slice(None, -1)
            else:
                src[axis], dst[axis] = slice(None, -1), slice(1, None)
            shifted[tuple(dst)] = u[tuple(src)]
            out += shifted / (2.0 * dim)
    return out


def _dw_eps_midpoints(grid: TimeGrid, path: np.ndarray, epsilon: float,
                      times: np.ndarray) -> np.ndarray:
    """dW_eps at arbitrary times via linear interpolation of one W path."""
    w_plus = np.interp(times + epsilon, grid.times, path)
    w_minus = np.interp(times - epsilon, grid.times, path)
    return (w_plus - w_minus) / (2.0 * epsilon)


def solve_mollified(ic, field, cfg: SolverConfig, domain: BoxDomain,
                    center: Site) -> dict[Site, float]:
    """Solution of the mollified equation at the horizon, per box site.

    Strang step: half-step exact reaction with dW_eps at the first
    quarter point, explicit-Euler diffusion, half-step reaction at the
    third quarter point.
    """
    offsets = domain.offsets()
    sites = [tuple(c + o for c, o in zip(center, off)) for off in offsets]
    shape = domain.shape

    n = cfg.n_steps
    dt = cfg.dt
    step_starts = np.arange(n) * dt
    q1 = step_starts + 0.25 * dt
    q3 = step_starts + 0.75 * dt
    dw1 = np.empty((n,) + shape)
    dw3 = np.empty((n,) + shape)
    for off, path in zip(offsets, field.paths_on_grid(sites)):
        idx = tuple(o + domain.radius for o in off)
        dw1[(slice(None),) + idx] = _dw_eps_midpoints(field.grid, path,
                                                      cfg.epsilon, q1)
        dw3[(slice(None),) + idx] = _dw_eps_midpoints(field.grid, path,
                                                      cfg.epsilon, q3)

    u = np.array([ic(site) for site in sites]).reshape(shape)
    for k in range(n):
        u = u * np.exp(0.5 * dt * dw1[k])
        u = u + dt * cfg.kappa * discrete_laplacian(u, domain.dim)
        u = u * np.exp(0.5 * dt * dw3[k])
    return {site: float(u[tuple(o + domain.radius for o in off)])
            for off, site in zip(offsets, sites)}


def richardson_check(ic, field, cfg: SolverConfig, domain: BoxDomain,
                     center: Site) -> float:
    """Difference between the dt and dt/2 solutions at the center site.

    The center is the site cross-checked against the FK estimator; the
    value bounds its time-discretization error below the Monte Carlo
    stderr.  Boundary cells are excluded deliberately: the Dirichlet
    truncation makes them dt-sensitive even for a constant solution,
    while the box is sized so the walk never reaches them.
    """
    coarse = solve_mollified(ic, field, cfg, domain, center)
    half = SolverConfig(cfg.dt / 2.0, cfg.kappa, cfg.grid, cfg.epsilon)
    fine = solve_mollified(ic, field, half, domain, center)
    return abs(coarse[center] - fine[center])
