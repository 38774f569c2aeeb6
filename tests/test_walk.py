import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from pamfk.walk import (RoughStats, WalkConfig, WalkPath, reverse_view,
                        rough_stats, rough_stats_batch,
                        sample_poisson_jump_batch, sample_walk, walk_block)


def test_config_validation():
    WalkConfig(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        WalkConfig(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        WalkConfig(1, -1.0, 1.0)
    with pytest.raises(ValueError):
        WalkConfig(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        WalkConfig(2, 1.0, 1.0, start=(0,))


def test_path_validation():
    WalkPath(1.0, (0.5,), ((0,), (1,)))
    with pytest.raises(ValueError):
        WalkPath(1.0, (0.5,), ((0,),))  # site count mismatch
    with pytest.raises(ValueError):
        WalkPath(1.0, (0.6, 0.5), ((0,), (1,), (0,)))  # not increasing
    with pytest.raises(ValueError):
        WalkPath(1.0, (1.5,), ((0,), (1,)))  # beyond horizon
    with pytest.raises(ValueError):
        WalkPath(1.0, (0.5,), ((0,), (2,)))  # not a neighbor step
    with pytest.raises(ValueError, match="strictly increasing"):
        WalkPath(1.0, (0.5, 0.5), ((0,), (1,), (0,)))  # tied times
    with pytest.raises(ValueError, match="strictly increasing"):
        WalkPath(1.0, (0.0,), ((0,), (1,)))  # jump at time 0
    with pytest.raises(ValueError, match="strictly increasing"):
        WalkPath(1.0, (1.0,), ((0,), (1,)))  # jump at the horizon
    with pytest.raises(ValueError, match="lattice neighbors"):
        WalkPath(1.0, (0.5,), ((0, 0), (1, 1)))  # 2-D diagonal step


def test_segments_cover_horizon():
    p = WalkPath(1.0, (0.2, 0.7), ((0,), (1,), (0,)))
    assert p.segments() == [(0.0, 0.2, (0,)), (0.2, 0.7, (1,)),
                            (0.7, 1.0, (0,))]
    assert p.terminal_site() == (0,)


def test_sample_walk_deterministic():
    cfg = WalkConfig(2, 2.0, 1.0)
    assert sample_walk(cfg, 5) == sample_walk(cfg, 5)


def test_jump_count_poisson_moments():
    cfg = WalkConfig(1, 1.0, 2.0)
    n = 10**5
    counts = np.array([sample_walk(cfg, s).jump_count for s in range(n)])
    stderr_mean = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - 2.0) < 3 * stderr_mean
    # Poisson variance equals the mean
    sq = (counts - counts.mean()) ** 2
    stderr_var = sq.std(ddof=1) / math.sqrt(n)
    assert abs(counts.var(ddof=1) - 2.0) < 3 * stderr_var


def test_terminal_mean_zero():
    cfg = WalkConfig(1, 1.0, 1.0)
    n = 10**4
    xs = np.array([sample_walk(cfg, 10_000 + s).terminal_site()[0]
                   for s in range(n)])
    stderr = xs.std(ddof=1) / math.sqrt(n)
    assert abs(xs.mean()) < 3 * stderr


def test_first_step_uniform_over_neighbors():
    cfg = WalkConfig(2, 3.0, 1.0)
    freq = {}
    n_with_jump = 0
    for s in range(10**4):
        p = sample_walk(cfg, s)
        if p.jump_count:
            n_with_jump += 1
            freq[p.sites[1]] = freq.get(p.sites[1], 0) + 1
    observed = [freq.get(x, 0) for x in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    assert sum(observed) == n_with_jump
    res = stats.chisquare(observed)
    assert res.pvalue > 0.01


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_reverse_is_involution(seed):
    p = sample_walk(WalkConfig(2, 4.0, 1.0), seed)
    assert reverse_view(reverse_view(p)) == p


def test_reverse_example():
    p = WalkPath(1.0, (0.3,), ((0,), (1,)))
    r = reverse_view(p)
    assert r.jump_times == (0.7,)
    assert r.sites == ((1,), (0,))


class TestRoughStats:
    def test_no_jumps(self):
        p = WalkPath(1.0, (), ((0,),))
        rs = rough_stats(p, 0.3)
        assert (rs.r_count, rs.rough_length, rs.rough_periods) == (0, 0.0, 0)

    def test_worked_example(self):
        # gaps from 0: 0.1 (not < 0.1), 0.05 (< 0.1), 0.75
        p = WalkPath(1.0, (0.1, 0.15, 0.9), ((0,), (1,), (0,), (1,)))
        rs = rough_stats(p, 0.1)
        assert rs.r_count == 1
        assert rs.rough_periods == 1
        assert rs.rough_length == pytest.approx(0.05)

    def test_first_jump_near_zero_counts(self):
        p = WalkPath(1.0, (0.02,), ((0,), (1,)))
        assert rough_stats(p, 0.1).r_count == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            rough_stats(WalkPath(1.0, (), ((0,),)), 0.0)
        with pytest.raises(ValueError):
            RoughStats(0.1, 1, 0.05, 2)  # K > R

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([0.2, 0.1, 0.05, 0.02]))
    @settings(max_examples=120, deadline=None)
    def test_invariants_on_sampled_paths(self, seed, delta):
        p = sample_walk(WalkConfig(1, 5.0, 1.0), seed)
        rs = rough_stats(p, delta)
        assert rs.rough_periods <= rs.r_count
        assert rs.rough_length <= rs.r_count * delta + 1e-12

    def test_tail_nonincreasing(self):
        counts, flat = sample_poisson_jump_batch(1.0, 1.0, 10**5, 4)
        r, _, _ = rough_stats_batch(counts, flat, 0.05)
        tail = [np.mean(r >= n) for n in range(5)]
        assert all(b <= a for a, b in zip(tail, tail[1:]))


class TestBatchStats:
    def test_matches_scalar(self):
        cfg = WalkConfig(1, 4.0, 1.0)
        paths = [sample_walk(cfg, s) for s in range(300)]
        counts = np.array([p.jump_count for p in paths])
        flat = np.concatenate([np.asarray(p.jump_times) for p in paths])
        for delta in (0.1, 0.03):
            r, length, k = rough_stats_batch(counts, flat, delta)
            for i, p in enumerate(paths):
                rs = rough_stats(p, delta)
                assert r[i] == rs.r_count
                assert k[i] == rs.rough_periods
                assert length[i] == pytest.approx(rs.rough_length)

    def test_empty_batch(self):
        r, length, k = rough_stats_batch(np.zeros(4, dtype=int),
                                         np.array([]), 0.1)
        assert np.all(r == 0) and np.all(length == 0) and np.all(k == 0)

    def test_poisson_batch_layout(self):
        counts, flat = sample_poisson_jump_batch(2.0, 1.5, 1000, 8)
        assert counts.sum() == len(flat)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            block = flat[lo:hi]
            assert np.all(np.diff(block) >= 0)
            assert np.all((block >= 0) & (block <= 1.5))


def _lexsort_clocks(rng, rate, horizon, n):
    """Reference draw of n Poisson clocks, sorted with np.lexsort."""
    counts = rng.poisson(rate * horizon, size=n)
    u = rng.random(int(counts.sum()))
    clock = np.repeat(np.arange(n), counts)
    return counts, u[np.lexsort((u, clock))] * horizon


# rate * horizon 0.6 leaves about half the clocks empty; 37.5 puts dozens
# of jumps on every clock
@pytest.mark.parametrize("n", [0, 1, 512, 20000])
@pytest.mark.parametrize("rate, horizon", [(0.4, 1.5), (25.0, 1.5)])
def test_poisson_clocks_match_lexsort_reference(n, rate, horizon):
    seed = 1000 + n
    counts, flat = sample_poisson_jump_batch(rate, horizon, n, seed)
    ref_counts, ref_flat = _lexsort_clocks(np.random.default_rng(seed),
                                           rate, horizon, n)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(flat, ref_flat)
    if n > 1 and rate < 1:
        assert np.any(counts == 0)
    if n > 1 and rate > 1:
        assert counts.min() >= 10

    cfg = WalkConfig(2, rate, horizon, start=(3, -1))
    counts, times, sites = walk_block(cfg, np.random.default_rng(seed), n)
    rng = np.random.default_rng(seed)
    ref_counts, ref_times = _lexsort_clocks(rng, rate, horizon, n)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(times, ref_times)
    total = int(ref_counts.sum())
    axes = rng.integers(0, 2, size=total)
    bits = rng.integers(0, 2, size=total)
    assert len(sites) == total + n
    row = jump = 0
    for count in ref_counts:
        steps = np.zeros((count + 1, 2), dtype=int)
        steps[np.arange(1, count + 1), axes[jump:jump + count]] = (
            2 * bits[jump:jump + count] - 1)
        expected = np.cumsum(steps, axis=0) + [3, -1]
        assert np.array_equal(sites[row:row + count + 1], expected)
        row += count + 1
        jump += count
