import math

import numpy as np
import pytest

from pamfk._seeds import mix64, site_seed
from pamfk.fbm import HurstField, HurstParameter, TimeGrid, ZeroField
from pamfk.fk import InitialCondition, estimate_quenched
from pamfk.pde import (BoxDomain, SolverConfig, default_radius,
                       discrete_laplacian, richardson_check, solve_mollified)
from pamfk.walk import WalkConfig, sample_walk


class TestBoxDomain:
    def test_validation(self):
        BoxDomain(1, 3)
        with pytest.raises(ValueError):
            BoxDomain(1, 0)

    def test_offsets(self):
        d = BoxDomain(2, 1)
        assert d.shape == (3, 3)
        assert len(d.offsets()) == 9

    def test_default_radius_scaling(self):
        assert default_radius(1.0, 1.0) >= 1
        assert default_radius(4.0, 2.0) > default_radius(1.0, 1.0)


class TestLaplacian:
    def test_constant_interior_zero(self):
        u = np.ones((7,))
        lap = discrete_laplacian(u, 1)
        assert np.allclose(lap[1:-1], 0.0)

    def test_indicator_1d(self):
        u = np.zeros(5)
        u[2] = 1.0
        lap = discrete_laplacian(u, 1)
        assert lap[2] == pytest.approx(-1.0)
        assert lap[1] == pytest.approx(0.5)
        assert lap[3] == pytest.approx(0.5)

    def test_conservation_away_from_boundary(self):
        rng = np.random.default_rng(0)
        u = np.zeros((9, 9))
        u[3:6, 3:6] = rng.random((3, 3))
        assert discrete_laplacian(u, 2).sum() == pytest.approx(0.0, abs=1e-12)


def _solver(grid, kappa=1.0, epsilon=0.1, dt=None):
    return SolverConfig(dt if dt else min(grid.step, 0.25 / kappa),
                        kappa, grid, epsilon)


class TestSolverConfig:
    def test_stability_bound(self):
        g = TimeGrid(0.5, 1.0, pad=0.5)
        with pytest.raises(ValueError, match="stability"):
            SolverConfig(0.5, 1.0, g, 0.5)

    def test_dt_exceeds_grid_step(self):
        g = TimeGrid(0.05, 1.0, pad=0.1)
        with pytest.raises(ValueError):
            SolverConfig(0.1, 1.0, g, 0.1)

    def test_dt_must_divide_horizon(self):
        g = TimeGrid(0.05, 1.0, pad=0.1)
        with pytest.raises(ValueError):
            SolverConfig(0.03, 1.0, g, 0.1)


class TestZeroNoise:
    def test_constant_stays_constant(self):
        g = TimeGrid(0.05, 1.0, pad=0.1)
        sol = solve_mollified(InitialCondition.constant(1.0), ZeroField(g),
                              _solver(g), BoxDomain(1, 25), (0,))
        assert sol[(0,)] == pytest.approx(1.0, abs=1e-9)

    def test_mass_conservation(self):
        g = TimeGrid(0.05, 1.0, pad=0.1)
        sol = solve_mollified(InitialCondition.indicator((0,)), ZeroField(g),
                              _solver(g), BoxDomain(1, 20), (0,))
        assert sum(sol.values()) == pytest.approx(1.0, abs=1e-6)

    def test_matches_walk_expectation(self):
        g = TimeGrid(0.05, 1.0, pad=0.1)
        cfg = WalkConfig(1, 1.0, 1.0)
        sol = solve_mollified(InitialCondition.indicator((0,)), ZeroField(g),
                              _solver(g), BoxDomain(1, 20), (0,))
        n = 4000
        hits = np.array([sample_walk(cfg, mix64(5, i)).terminal_site() == (0,)
                         for i in range(n)], dtype=float)
        stderr = hits.std(ddof=1) / math.sqrt(n)
        assert abs(sol[(0,)] - hits.mean()) < 3 * stderr

    def test_richardson_tiny(self):
        g = TimeGrid(0.05, 1.0, pad=0.1)
        diff = richardson_check(InitialCondition.constant(1.0), ZeroField(g),
                                _solver(g), BoxDomain(1, 10), (0,))
        assert diff < 1e-8


def _noisy_setup(hv=0.5, seed=21, epsilon=0.1):
    step = epsilon / 8
    g = TimeGrid(step, 1.0, pad=epsilon)
    f = HurstField(HurstParameter(hv), g, seed)
    return g, f


class TestNoisySolver:
    def test_positivity(self):
        g, f = _noisy_setup()
        sol = solve_mollified(InitialCondition.indicator((0,)), f,
                              _solver(g), BoxDomain(1, 13), (0,))
        assert all(v >= 0.0 for v in sol.values())

    def test_richardson_second_order(self):
        g, f = _noisy_setup()
        ic = InitialCondition.indicator((0,))
        dom = BoxDomain(1, 13)
        d1 = richardson_check(ic, f, _solver(g, dt=0.0125), dom, (0,))
        d2 = richardson_check(ic, f, _solver(g, dt=0.00625), dom, (0,))
        assert d2 < d1  # shrinks when dt halves
        assert d2 < 0.5 * d1  # at least first order observed

    def test_box_doubling_robustness(self):
        g, f = _noisy_setup()
        ic = InitialCondition.indicator((0,))
        a = solve_mollified(ic, f, _solver(g), BoxDomain(1, 13), (0,))[(0,)]
        b = solve_mollified(ic, f, _solver(g), BoxDomain(1, 26), (0,))[(0,)]
        assert abs(a - b) < 1e-6

    def test_fk_duality_single_realization(self):
        g, f = _noisy_setup(hv=0.5, seed=33)
        ic = InitialCondition.indicator((0,))
        cfg = WalkConfig(1, 1.0, 1.0)
        est = estimate_quenched(cfg, ic, f, epsilon=0.1,
                                n_walks=4000, seed=17)
        dom = BoxDomain(1, default_radius(1.0, 1.0))
        scfg = _solver(g)
        pde_val = solve_mollified(ic, f, scfg, dom, (0,))[(0,)]
        rich = richardson_check(ic, f, scfg, dom, (0,))
        assert abs(est.mean - pde_val) <= 3 * est.stderr + rich

    def test_solve_then_richardson_draws_each_box_site_once(self,
                                                             fbm_draws):
        g, f = _noisy_setup(seed=5)
        ic = InitialCondition.indicator((0,))
        dom = BoxDomain(1, 6)
        solve_mollified(ic, f, _solver(g), dom, (0,))
        richardson_check(ic, f, _solver(g), dom, (0,))
        assert sorted(fbm_draws) == sorted(
            site_seed(5, (x,)) for x in range(-6, 7))

    def test_2d_runs(self):
        eps = 0.1
        g = TimeGrid(eps / 4, 0.5, pad=eps)
        f = HurstField(HurstParameter(0.5), g, 3)
        sol = solve_mollified(InitialCondition.indicator((0, 0)), f,
                              _solver(g, epsilon=eps), BoxDomain(2, 4), (0, 0))
        assert sol[(0, 0)] > 0.0
        assert len(sol) == 81

    @pytest.mark.parametrize("hv", [0.25, 0.75])
    def test_mean_z_of_fk_minus_pde(self, hv):
        # over 40 noise realizations z = (FK - PDE) / stderr has mean 0
        # within 3 standard errors; d = 1 only, since at d = 2 the
        # explicit-Euler step's own bias is about 3 standard errors here
        g = TimeGrid(0.0125, 1.0, pad=0.1)
        cfg = WalkConfig(1, 1.0, 1.0)
        ic = InitialCondition.indicator(cfg.start)
        dom = BoxDomain(1, default_radius(1.0, 1.0))
        z = []
        for real in range(40):
            f = HurstField(HurstParameter(hv), g, mix64(29, real))
            est = estimate_quenched(cfg, ic, f, epsilon=0.1, n_walks=4000,
                                    seed=mix64(31, real))
            pde = solve_mollified(ic, f, _solver(g), dom, cfg.start)
            z.append((est.mean - pde[cfg.start]) / est.stderr)
        assert abs(np.mean(z)) <= 3 * np.std(z, ddof=1) / math.sqrt(len(z))
