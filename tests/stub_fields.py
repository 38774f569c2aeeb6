"""Deterministic field stubs with the HurstField grid interface."""

from typing import Sequence

import numpy as np

from pamfk.fbm import TimeGrid
from pamfk.walk import Site


class LinearField:
    """W(t, x) = slope_x * t, so dW_eps is exactly slope_x."""

    def __init__(self, grid: TimeGrid, slopes: dict[Site, float],
                 default: float = 0.0) -> None:
        self.grid = grid
        self.slopes = dict(slopes)
        self.default = default

    def paths_on_grid(self, sites: Sequence[Site]) -> np.ndarray:
        slopes = [self.slopes.get(tuple(site), self.default)
                  for site in sites]
        return np.multiply.outer(slopes, self.grid.times)
