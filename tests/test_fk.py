import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pamfk._seeds import mix64
from pamfk.fbm import (EpsilonDerivative, HurstField, HurstParameter,
                       TimeGrid, ZeroField, sample_grid_paths)
import pamfk.fk
from pamfk.experiments import SweepSpec, run_ueps_convergence
from pamfk.fk import (ClampError, GridFunctionalEvaluator, InitialCondition,
                      WalkBatch, annealed_mean_rough_oracle,
                      estimate_annealed_moment, estimate_quenched,
                      rough_functional_exact, sample_walk_batch,
                      sample_walk_snapped)
from pamfk.kernels import path_increment_variance, prop41_variance
from pamfk.walk import (WalkConfig, WalkPath, reverse_view, sample_walk,
                        walk_block)
from stub_fields import LinearField


def block_paths(cfg, seed, n):
    """The walks of walk_block(cfg, default_rng(seed), n), split by a
    loop into WalkPaths."""
    counts, times, sites = walk_block(cfg, np.random.default_rng(seed), n)
    paths, t0 = [], 0
    for i, count in enumerate(counts.tolist()):
        paths.append(WalkPath(
            cfg.horizon, tuple(times[t0:t0 + count].tolist()),
            tuple(map(tuple, sites[t0 + i:t0 + i + count + 1].tolist()))))
        t0 += count
    return paths


class TestInitialCondition:
    def test_constant(self):
        ic = InitialCondition.constant(2.5)
        assert ic((3, 4)) == 2.5

    def test_indicator(self):
        ic = InitialCondition.indicator((1, -1))
        assert ic((1, -1)) == 1.0
        assert ic((0, 0)) == 0.0


class TestFunctionals:
    def test_rough_zero_field(self):
        g = TimeGrid(0.05, 1.0)
        p = WalkPath(1.0, (0.25, 0.5), ((0,), (1,), (0,)))
        assert GridFunctionalEvaluator(ZeroField(g)).rough(p) == 0.0

    def test_rough_no_jump_is_terminal_value(self):
        g = TimeGrid(0.05, 1.0)
        f = HurstField(HurstParameter(0.6), g, 4)
        p = WalkPath(1.0, (), ((2,),))
        w = f.paths_on_grid([(2,)])[0]
        assert GridFunctionalEvaluator(f).rough(p) == pytest.approx(
            w[g.zero_index + g.count - 1])

    def test_rough_reversal_bookkeeping(self):
        # reversed-path evaluation equals the forward occupation sum
        g = TimeGrid(0.05, 1.0)
        f = HurstField(HurstParameter(0.3), g, 8)
        p = WalkPath(1.0, (0.25, 0.6), ((0,), (1,), (0,)))
        direct = 0.0
        for lo, hi, site in p.segments():
            w = f.paths_on_grid([site])[0]
            zi = g.zero_index
            direct += (w[zi + round((1.0 - lo) / g.step)]
                       - w[zi + round((1.0 - hi) / g.step)])
        assert GridFunctionalEvaluator(f).rough(p) == pytest.approx(
            direct, abs=1e-12)

    def test_smooth_zero_field(self):
        g = TimeGrid(0.025, 1.0, pad=0.1)
        p = WalkPath(1.0, (0.25,), ((0,), (1,)))
        assert GridFunctionalEvaluator(ZeroField(g), 0.1).smooth(p) == 0.0

    def test_smooth_linear_field(self):
        g = TimeGrid(0.025, 1.0, pad=0.1)
        lf = LinearField(g, {(0,): 2.0, (1,): -1.0})
        p = WalkPath(1.0, (0.25, 0.5), ((0,), (1,), (0,)))
        expect = 2.0 * 0.25 + (-1.0) * 0.25 + 2.0 * 0.5
        assert GridFunctionalEvaluator(lf, 0.1).smooth(p) == pytest.approx(
            expect)

    def test_grid_too_coarse_for_epsilon(self):
        g = TimeGrid(0.05, 1.0, pad=0.1)
        f = ZeroField(g)
        with pytest.raises(ValueError, match="refine"):
            GridFunctionalEvaluator(f, 0.1)  # step > eps/4

    @pytest.mark.parametrize("epsilon", [0.0, -0.1])
    def test_non_positive_epsilon(self, epsilon):
        g = TimeGrid(0.025, 1.0, pad=0.1)
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            GridFunctionalEvaluator(ZeroField(g), epsilon)

    def test_smooth_batch_reads_field_once(self, monkeypatch):
        g = TimeGrid(0.025, 1.0, pad=0.1)
        f = HurstField(HurstParameter(0.4), g, 3)
        reads = []
        read = f.paths_on_grid

        def counted(sites):
            reads.append(list(sites))
            return read(sites)

        monkeypatch.setattr(f, "paths_on_grid", counted)
        batch = WalkBatch([WalkPath(1.0, (0.25, 0.5), ((0,), (1,), (2,))),
                           WalkPath(1.0, (0.5,), ((0,), (-1,)))], g)
        GridFunctionalEvaluator(f, 0.1).exponents(batch, "smooth")
        assert reads == [batch.sites]
        assert len(batch.sites) == 4

    def test_smooth_without_epsilon_rejected(self):
        g = TimeGrid(0.05, 1.0)
        ev = GridFunctionalEvaluator(ZeroField(g))
        with pytest.raises(ValueError):
            ev.smooth(WalkPath(1.0, (), ((0,),)))

    def test_rough_variance_brownian(self):
        # Var over noise = t for H=1/2, any fixed path
        g = TimeGrid(0.05, 1.0)
        h = HurstParameter(0.5)
        p = WalkPath(1.0, (0.25, 0.6), ((0,), (1,), (0,)))
        n = 4000
        vals = np.empty(n)
        for i in range(n):
            f = HurstField(h, g, mix64(99, i))
            vals[i] = GridFunctionalEvaluator(f).rough(p)
        sq = vals**2
        stderr = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - 1.0) < 3 * stderr

    def test_rough_variance_general_h_oracle(self):
        g = TimeGrid(0.025, 1.0)
        h = HurstParameter(0.3)
        p = WalkPath(1.0, (0.25, 0.6), ((0,), (1,), (0,)))
        target = path_increment_variance(reverse_view(p), h)
        n = 4000
        vals = np.empty(n)
        for i in range(n):
            f = HurstField(h, g, mix64(7, i))
            vals[i] = GridFunctionalEvaluator(f).rough(p)
        sq = vals**2
        stderr = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - target) < 3 * stderr

    def test_exact_mode_variance(self):
        h = HurstParameter(0.4)
        p = WalkPath(1.0, (0.3,), ((0,), (1,)))
        target = path_increment_variance(reverse_view(p), h)
        n = 4000
        vals = np.array([rough_functional_exact(p, h, mix64(3, i))
                         for i in range(n)])
        sq = vals**2
        stderr = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - target) < 3 * stderr

    def test_smooth_minus_rough_tracks_prop41(self):
        # E|smooth - rough|^2 against the exact per-path variance
        h = HurstParameter(0.5)
        eps = 0.125
        step = eps / 8
        g = TimeGrid(step, 1.0, pad=eps)
        times = tuple(round(t / step) * step for t in (0.203, 0.406, 0.703))
        p = WalkPath(1.0, times, ((0,), (1,), (0,), (1,)))
        target = prop41_variance(reverse_view(p), h, eps)

        n = 10**4
        zi, k = g.zero_index, round(eps / step)
        diff = np.zeros(n)
        for s_i, site in enumerate({s for _, _, s in p.segments()}):
            paths = sample_grid_paths(h, g, [mix64(42, s_i, i)
                                             for i in range(n)])
            w = paths[:, zi:zi + g.count]
            dw = (paths[:, zi + k:zi + k + g.count]
                  - paths[:, zi - k:zi - k + g.count]) / (2 * eps)
            cum = np.concatenate(
                [np.zeros((n, 1)),
                 np.cumsum(0.5 * (dw[:, :-1] + dw[:, 1:]) * step, axis=1)],
                axis=1)
            for lo, hi, seg_site in reverse_view(p).segments():
                if seg_site != site:
                    continue
                i, j = round(lo / step), round(hi / step)
                diff += (cum[:, j] - cum[:, i]) - (w[:, j] - w[:, i])
        sq = diff**2
        stderr = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - target) < 3 * stderr


@given(st.integers(min_value=0, max_value=2000),
       st.sampled_from([0.25, 0.4]), st.sampled_from([0.5, 0.75]))
@settings(max_examples=100, deadline=None)
def test_variance_moment_bounds(seed, h_low, h_high):
    # per-path variance of the increment sum obeys the jump-count bounds
    p = reverse_view(sample_walk(WalkConfig(1, 4.0, 1.0), seed))
    n = p.jump_count
    v_low = path_increment_variance(p, HurstParameter(h_low))
    assert v_low <= (n + 1) ** (1 - 2 * h_low) * 1.0 + 1e-9
    v_high = path_increment_variance(p, HurstParameter(h_high))
    assert v_high <= (n + 1) * 1.0 + 1e-9


def scalar_exponent(field, path, epsilon=None):
    """One walk's exponent by a Python loop over its reversed segments.

    The per-walk reference the batch gather must reproduce bit for bit:
    W increments (rough) or cumulative-trapezoid increments of dW_eps
    (smooth) at jump times snapped with round(t / step).
    """
    grid = field.grid
    zi = grid.zero_index
    if epsilon is None:
        def table(site):
            return field.paths_on_grid([site])[0][zi:zi + grid.count]
    else:
        ed = EpsilonDerivative(grid, epsilon)

        def table(site):
            dw = ed.grid_values(field.paths_on_grid([site])[0])
            return np.concatenate(
                [[0.0], np.cumsum(0.5 * (dw[:-1] + dw[1:]) * grid.step)])

    def snap(t):
        return min(max(round(t / grid.step), 0), grid.count - 1)

    total = 0.0
    for lo, hi, site in reverse_view(path).segments():
        t = table(site)
        total += t[snap(hi)] - t[snap(lo)]
    return total


class TestWalkBatch:
    EPS = 0.1
    GRID = TimeGrid(EPS / 8, 1.0, pad=EPS)

    def walks(self):
        paths = block_paths(WalkConfig(1, 3.0, 1.0), 5, 200)
        paths.append(WalkPath(1.0, (), ((0,),)))
        paths.append(WalkPath(1.0, (0.25, 0.5, 0.75),
                              ((0,), (-1,), (-2,), (-1,))))
        return paths

    def fields(self):
        g = self.GRID
        return [HurstField(HurstParameter(0.3), g, 8),
                HurstField(HurstParameter(0.75), g, 9),
                LinearField(g, {(0,): 2.0, (-1,): -1.5}, default=0.5),
                ZeroField(g)]

    def test_walks_cover_edge_cases(self):
        paths = self.walks()
        assert any(p.jump_count == 0 for p in paths[:200])
        assert any(min(s[0] for s in p.sites) < 0 for p in paths[:200])
        assert len({p.jump_count for p in paths}) > 3  # padding is exercised

    @pytest.mark.parametrize("mode", ["rough", "smooth"])
    def test_batch_equals_scalar_loop_exactly(self, mode):
        paths = self.walks()
        batch = WalkBatch(paths, self.GRID)
        eps = self.EPS if mode == "smooth" else None
        for field in self.fields():
            got = GridFunctionalEvaluator(field, self.EPS).exponents(batch,
                                                                     mode)
            want = np.array([scalar_exponent(field, p, eps) for p in paths])
            assert np.array_equal(got, want)  # bitwise, not approx

    def test_batch_of_one_wrappers(self):
        field = self.fields()[0]
        ev = GridFunctionalEvaluator(field, self.EPS)
        for p in self.walks()[::20]:
            assert ev.rough(p) == scalar_exponent(field, p)
            assert ev.smooth(p) == scalar_exponent(field, p, self.EPS)

    def test_padding_adds_positive_zero(self):
        batch = WalkBatch([WalkPath(1.0, (), ((0,),)),
                           WalkPath(1.0, (0.5,), ((0,), (1,)))], self.GRID)
        assert batch.lo.shape == batch.hi.shape == batch.row.shape == (2, 2)
        assert batch.lo[0, 1] == batch.hi[0, 1] == batch.row[0, 1] == 0
        out = GridFunctionalEvaluator(ZeroField(self.GRID)).exponents(
            batch, "rough")
        assert np.all(np.copysign(1.0, out) == 1.0)

    def test_empty_batch(self):
        batch = WalkBatch([], self.GRID)
        field = self.fields()[0]
        assert GridFunctionalEvaluator(field).exponents(batch,
                                                        "rough").shape == (0,)


class TestSnappedWalks:
    def test_distinct_grid_indices(self):
        g = TimeGrid(0.01, 1.0)
        cfg = WalkConfig(1, 5.0, 1.0)
        for seed in range(200):
            p = sample_walk_snapped(cfg, g, seed)
            idx = [round(t / g.step) for t in p.jump_times]
            assert len(set(idx)) == len(idx)
            assert all(0 < i < g.count - 1 for i in idx)

    def test_deterministic(self):
        g = TimeGrid(0.01, 1.0)
        cfg = WalkConfig(1, 5.0, 1.0)
        assert sample_walk_snapped(cfg, g, 3) == sample_walk_snapped(cfg, g, 3)

    def test_too_coarse_grid_raises_named_error(self):
        # one interior grid point cannot hold the ~50 jumps of a rate-50 walk
        g = TimeGrid(0.5, 1.0)
        with pytest.raises(RuntimeError, match="grid too coarse"):
            sample_walk_snapped(WalkConfig(1, 50.0, 1.0), g, 0)


class TestWalkBatchSampler:
    """sample_walk_batch against the same block split into WalkPaths."""

    CASES = {
        "d1_readme": (WalkConfig(1, 1.0, 1.0), TimeGrid(0.0125, 1.0, 0.1)),
        "d2_start": (WalkConfig(2, 1.0, 1.0, (1, -2)),
                     TimeGrid(0.0125, 1.0, 0.1)),
        # rate 6 on 40 grid steps: snapped jumps often collide
        "redraws": (WalkConfig(1, 6.0, 1.0), TimeGrid(0.025, 1.0)),
    }

    @staticmethod
    def assert_same(got, want):
        for name in ("lo", "hi", "row", "terminal"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.sites == want.sites
        assert all(type(c) is int for site in got.sites for c in site)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_one_walk_reference(self, case):
        cfg, grid = self.CASES[case]
        batch = sample_walk_batch(cfg, grid, 21, 1000)
        paths = block_paths(cfg, 21, 1000)
        self.assert_same(batch, WalkBatch(paths, grid))
        assert any(p.jump_count == 0 for p in paths)
        if cfg.start != (0,) * cfg.dim:
            assert all(p.sites[0] == cfg.start for p in paths)
        if case == "redraws":
            # nothing is redrawn: a snapped collision or end-point jump
            # stays in the batch as a zero-length segment
            counts = np.array([p.jump_count for p in paths])
            live = np.arange(batch.lo.shape[1]) <= counts[:, None]
            assert np.any(live & (batch.lo == batch.hi))

    def test_empty_seed_list(self):
        # a block of n = 0 walks
        cfg, grid = self.CASES["d2_start"]
        batch = sample_walk_batch(cfg, grid, 0, 0)
        assert len(batch) == 0 and batch.sites == []
        assert batch.lo.shape == batch.hi.shape == batch.row.shape == (0, 1)
        assert batch.terminal.shape == (0, 2)
        field = HurstField(HurstParameter(0.5), grid, 1)
        assert GridFunctionalEvaluator(field).exponents(
            batch, "rough").shape == (0,)


class TestNoWalkPathInHotLoops:
    @pytest.fixture
    def walk_paths(self, monkeypatch):
        made = []
        init = WalkPath.__post_init__

        def counted(self):
            made.append(self)
            init(self)

        monkeypatch.setattr(WalkPath, "__post_init__", counted)
        return made

    @pytest.mark.parametrize("epsilon", [None, 0.1],
                             ids=["rough", "smooth"])
    def test_estimate_quenched(self, walk_paths, epsilon):
        g = TimeGrid(0.0125, 1.0, pad=0.1)
        f = HurstField(HurstParameter(0.5), g, 2)
        estimate_quenched(WalkConfig(1, 1.0, 1.0),
                          InitialCondition.constant(), f,
                          epsilon=epsilon, n_walks=50, seed=3)
        assert walk_paths == []

    def test_ueps_convergence(self, walk_paths):
        run_ueps_convergence(SweepSpec(
            hursts=(0.5,), epsilons=(0.1, 0.05, 0.025, 0.0125),
            n_samples=100, n_inner=2, master_seed=1))
        assert walk_paths == []


class TestQuenchedEstimator:
    def test_zero_noise_constant_ic(self):
        g = TimeGrid(0.05, 1.0)
        est = estimate_quenched(WalkConfig(1, 1.0, 1.0),
                                InitialCondition.constant(1.0),
                                ZeroField(g), n_walks=100, seed=0)
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert est.count == 100

    @pytest.mark.parametrize("n_walks", [0, -5])
    def test_n_walks_below_one(self, n_walks):
        with pytest.raises(ValueError, match="n_walks must be >= 1"):
            estimate_quenched(WalkConfig(1, 1.0, 1.0),
                              InitialCondition.constant(),
                              ZeroField(TimeGrid(0.05, 1.0)),
                              n_walks=n_walks)

    def test_worker_count_invariance(self):
        # 1300 walks are three blocks, the last one partial
        g = TimeGrid(0.02, 1.0, pad=0.08)
        f = HurstField(HurstParameter(0.6), g, 12)
        cfg = WalkConfig(1, 1.0, 1.0)
        ic = InitialCondition.indicator((0,))
        kw = dict(epsilon=0.08, n_walks=1300, seed=5)
        serial = estimate_quenched(cfg, ic, f, workers=1, **kw)
        for workers in (2, 3):
            parallel = estimate_quenched(cfg, ic, f, workers=workers, **kw)
            assert parallel.mean == serial.mean
            assert parallel.stderr == serial.stderr

    def test_pool_capped_at_blocks_and_cpus(self, monkeypatch):
        started = []

        class InProcessPool:
            """Records max_workers and runs the blocks in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(pamfk.fk, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        g = TimeGrid(0.02, 1.0, pad=0.08)
        f = HurstField(HurstParameter(0.6), g, 12)
        cfg = WalkConfig(1, 1.0, 1.0)
        ic = InitialCondition.constant()
        # workers take whole 512-walk blocks: 5 blocks hit the cpu cap,
        # 2 blocks the block cap and 2 workers the worker cap
        for workers, n_walks, cap in ((500, 5 * 512, 3), (500, 2 * 512, 2),
                                      (2, 5 * 512, 2)):
            kw = dict(epsilon=0.08, n_walks=n_walks, seed=5)
            pooled = estimate_quenched(cfg, ic, f, workers=workers, **kw)
            assert started.pop() == cap
            serial = estimate_quenched(cfg, ic, f, workers=1, **kw)
            assert (pooled.mean, pooled.stderr) == (serial.mean, serial.stderr)
        assert started == []

    def test_clamp_raises_by_default(self):
        g = TimeGrid(0.02, 1.0, pad=0.08)
        f = LinearField(g, {}, default=2000.0)  # exponent ~ 2000
        cfg = WalkConfig(1, 1.0, 1.0)
        ic = InitialCondition.constant()
        with pytest.raises(ClampError, match="^16 exponent"):
            estimate_quenched(cfg, ic, f, epsilon=0.08, n_walks=16, seed=0)

    def test_zero_noise_return_probability_is_unbiased(self):
        # P(X(1) = 0) = e^-1 I_0(1) for the rate-1 walk on Z; a law that
        # conditions on the snapped jump times misses it at this size
        g = TimeGrid(0.0125, 1.0, pad=0.1)
        est = estimate_quenched(WalkConfig(1, 1.0, 1.0),
                                InitialCondition.indicator((0,)),
                                ZeroField(g), n_walks=200_000, seed=0)
        assert abs(est.mean - math.exp(-1.0) * np.i0(1.0)) <= 3 * est.stderr

    def test_indicator_zero_noise_matches_return_probability(self):
        # P(X(1) = 0) for the rate-1 lattice walk via an independent MC
        g = TimeGrid(0.05, 1.0)
        cfg = WalkConfig(1, 1.0, 1.0)
        est = estimate_quenched(cfg, InitialCondition.indicator((0,)),
                                ZeroField(g), n_walks=4000, seed=2)
        hits = np.array([sample_walk(cfg, mix64(31, i)).terminal_site() == (0,)
                         for i in range(4000)], dtype=float)
        joint = math.sqrt(est.stderr**2
                          + (hits.std(ddof=1) / math.sqrt(4000))**2)
        assert abs(est.mean - hits.mean()) < 3 * joint


class TestAnnealedEstimator:
    def test_p_validation(self):
        g = TimeGrid(0.05, 1.0)
        with pytest.raises(ValueError):
            estimate_annealed_moment(WalkConfig(1, 1.0, 1.0),
                                     InitialCondition.constant(),
                                     HurstParameter(0.5), g, p=0.5)

    def test_mean_matches_gaussian_moment_oracle(self):
        # E u(t,x) for u_o = 1 equals E^x exp(Var[rough]/2)
        h = HurstParameter(0.5)
        cfg = WalkConfig(1, 1.0, 1.0)
        g = TimeGrid(0.025, 1.0)
        oracle = annealed_mean_rough_oracle(cfg, h, n_walks=4000, seed=1)
        est = estimate_annealed_moment(cfg, InitialCondition.constant(), h, g,
                                       p=1.0, n_outer=400,
                                       n_inner=100, seed=9)
        # p=1 of |mean| is biased toward the unsigned mean; weights are
        # positive here so the absolute value is exact
        assert abs(est.mean - oracle) < 4 * est.stderr + 0.02

    def test_oracle_seeds_share_no_walks(self, monkeypatch):
        seeds = []
        draw = pamfk.fk.sample_walk

        def recorded(cfg, seed):
            seeds.append(seed)
            return draw(cfg, seed)

        monkeypatch.setattr(pamfk.fk, "sample_walk", recorded)
        cfg, h = WalkConfig(1, 1.0, 1.0), HurstParameter(0.5)
        annealed_mean_rough_oracle(cfg, h, n_walks=20, seed=0)
        first = set(seeds)
        seeds.clear()
        annealed_mean_rough_oracle(cfg, h, n_walks=20, seed=1)
        assert len(first) == 20 and first.isdisjoint(seeds)

    def test_brownian_annealed_mean_closed_form(self):
        # H=1/2: Var[rough] = t for every path, so E u = e^{t/2}
        h = HurstParameter(0.5)
        cfg = WalkConfig(1, 1.0, 1.0)
        oracle = annealed_mean_rough_oracle(cfg, h, n_walks=50, seed=0)
        assert oracle == pytest.approx(math.exp(0.5), rel=1e-9)
