import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pamfk.fbm
from pamfk._seeds import site_seed
from pamfk.fbm import (EpsilonDerivative, ExactModeCapError, HurstField,
                       HurstParameter, TimeGrid, ZeroField, covariance,
                       fgn_autocovariance, increment_covariance,
                       sample_at_times, sample_grid_paths)
from stub_fields import LinearField

hursts = st.floats(min_value=0.05, max_value=0.95)
times = st.floats(min_value=-5.0, max_value=5.0)


def test_hurst_validation():
    HurstParameter(0.5)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            HurstParameter(bad)


@pytest.mark.parametrize("hv", [0.1, 0.25, 1 / 3, 0.5, 0.9])
def test_hurst_two_h_survives_copies(hv):
    h = HurstParameter(hv)
    copies = (h, pickle.loads(pickle.dumps(h)), copy.deepcopy(h),
              copy.copy(h), dataclasses.replace(h),
              dataclasses.replace(HurstParameter(0.7), h=hv))
    for c in copies:
        assert c.two_h == 2.0 * hv
        assert c == h and hash(c) == hash(h)
        assert repr(c) == f"HurstParameter(h={hv!r})"
    assert [f.name for f in dataclasses.fields(h)] == ["h"]
    assert dataclasses.asdict(h) == {"h": hv}
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.two_h = 1.0


@given(hursts, times, times)
def test_covariance_symmetric(hv, t, s):
    h = HurstParameter(hv)
    assert covariance(h, t, s) == covariance(h, s, t)


@given(hursts, times)
def test_covariance_diagonal(hv, t):
    h = HurstParameter(hv)
    assert math.isclose(covariance(h, t, t), abs(t) ** (2 * hv),
                        rel_tol=1e-12, abs_tol=1e-12)


def test_increment_covariance_examples():
    h5 = HurstParameter(0.5)
    assert increment_covariance(h5, 2, 1, 2, 1) == 1.0
    assert increment_covariance(h5, 1, 0, 3, 2) == 0.0
    got = increment_covariance(HurstParameter(0.25), 1, 0, 2, 1)
    assert abs(got - 0.5 * (2**0.5 - 2)) < 1e-14


@given(hursts, times, times)
def test_increment_variance_identity(hv, a, b):
    h = HurstParameter(hv)
    assert math.isclose(increment_covariance(h, a, b, a, b),
                        abs(a - b) ** (2 * hv), rel_tol=1e-10, abs_tol=1e-12)


@given(st.floats(min_value=0.05, max_value=0.45),
       st.floats(min_value=0.05, max_value=0.45),
       st.lists(st.floats(min_value=0.01, max_value=3.0),
                min_size=3, max_size=3))
def test_disjoint_increment_sign(h_low, h_high_off, gaps):
    # b < a <= c < d: negatively correlated below H=1/2, positively above
    b, a, c, d = 0.0, gaps[0], gaps[0] + gaps[1], gaps[0] + gaps[1] + gaps[2]
    low = HurstParameter(h_low)
    high = HurstParameter(0.5 + h_high_off)
    assert increment_covariance(low, a, b, d, c) <= 1e-12
    assert increment_covariance(high, a, b, d, c) >= -1e-12


def test_increment_covariance_mc_crosscheck():
    # sample covariance of exact joint draws against the closed form
    h = HurstParameter(0.25)
    n = 10**5
    draws = np.array([sample_at_times(h, [1.0, 2.0], 1000 + i)
                      for i in range(n)])
    inc1 = draws[:, 0]
    inc2 = draws[:, 1] - draws[:, 0]
    prods = inc1 * inc2
    target = increment_covariance(h, 1, 0, 2, 1)
    stderr = prods.std(ddof=1) / math.sqrt(n)
    assert abs(prods.mean() - target) < 3 * stderr


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(0.25, 1.0, pad=0.5)
        assert g.count == 5
        assert g.zero_index == 2
        assert g.total_points == 9
        assert np.allclose(g.times, np.arange(-2, 7) * 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.3, 1.0)
        with pytest.raises(ValueError):
            TimeGrid(0.25, 1.0, pad=0.3)
        with pytest.raises(ValueError):
            TimeGrid(-0.1, 1.0)

    def test_index_of(self):
        g = TimeGrid(0.25, 1.0, pad=0.5)
        assert g.index_of(0.0) == 2
        assert g.index_of(-0.5) == 0
        assert g.index_of(1.5) == 8
        with pytest.raises(ValueError):
            g.index_of(0.1)
        with pytest.raises(ValueError):
            g.index_of(2.0)


class TestGridSampler:
    def test_zero_at_time_zero(self):
        g = TimeGrid(0.1, 1.0, pad=0.2)
        p = sample_grid_paths(HurstParameter(0.7), g, [3])[0]
        assert p[g.zero_index] == 0.0

    def test_deterministic(self):
        g = TimeGrid(0.1, 1.0)
        a = sample_grid_paths(HurstParameter(0.3), g, [11])[0]
        b = sample_grid_paths(HurstParameter(0.3), g, [11])[0]
        assert np.array_equal(a, b)
        c = sample_grid_paths(HurstParameter(0.3), g, [12])[0]
        assert not np.array_equal(a, c)

    def test_batch_matches_scalar(self):
        # a row depends on its own seed only, not on the rest of the batch
        g = TimeGrid(0.05, 1.0, pad=0.1)
        for hv in (0.25, 0.5, 0.75):
            h = HurstParameter(hv)
            batch = sample_grid_paths(h, g, [5, 6, 7])
            for row, seed in zip(batch, (5, 6, 7)):
                assert np.array_equal(row, sample_grid_paths(h, g, [seed])[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 160])
    def test_spectral_map_matches_per_bin_loop(self, n):
        z = np.random.default_rng(n).standard_normal((3, 2 * n))
        # bins 0..n only; irfft implies the conjugate mirror
        expect = np.zeros((3, n + 1), dtype=complex)
        for r in range(3):
            expect[r, 0] = z[r, 0]
            expect[r, n] = z[r, 1]
            for k in range(1, n):
                expect[r, k] = (z[r, 2 * k] + 1j * z[r, 2 * k + 1]) \
                    / np.sqrt(2.0)
        assert np.array_equal(pamfk.fbm._normals_to_spectral(z, n), expect)
        assert np.array_equal(pamfk.fbm._normals_to_spectral(z[0], n),
                              expect[0])

    def test_brownian_terminal_variance(self):
        # Var W(1) = 1 for any step size; 4096 seeds, 3-sigma band
        g = TimeGrid(1.0 / 512, 1.0)
        h = HurstParameter(0.5)
        n = 4096
        term = sample_grid_paths(h, g, range(n))[:, -1]
        var = term.var(ddof=1)
        stderr = math.sqrt(2.0 / (n - 1))  # Var of a chi2-based estimate
        assert abs(var - 1.0) < 3 * stderr

    def test_persistent_increment_correlation(self):
        # H=0.75: Corr[W(1), W(2)-W(1)] = 2^{2H-1} - 1 > 0
        h = HurstParameter(0.75)
        g = TimeGrid(1.0 / 64, 2.0)
        n = 4096
        paths = sample_grid_paths(h, g, range(n))
        w1 = paths[:, 64]
        inc = paths[:, 128] - paths[:, 64]
        target = increment_covariance(h, 1, 0, 2, 1)
        prods = w1 * inc
        stderr = prods.std(ddof=1) / math.sqrt(n)
        assert prods.mean() > 3 * stderr  # significantly positive
        assert abs(prods.mean() - target) < 3 * stderr

    def test_antipersistent_small_h(self):
        # circulant embedding must also cover H < 1/2
        h = HurstParameter(0.2)
        g = TimeGrid(0.125, 1.0)
        n = 4096
        term = sample_grid_paths(h, g, range(n))[:, -1]
        stderr = math.sqrt(2.0 / (n - 1))
        assert abs(term.var(ddof=1) - 1.0) < 3 * stderr


class TestCirculantEmbedding:
    @given(st.floats(min_value=1e-6, max_value=0.999999),
           st.integers(min_value=1, max_value=10001))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_definite(self, hv, n):
        # the guarantee that makes a negative eigenvalue a hard error
        rho = fgn_autocovariance(HurstParameter(hv), np.arange(n + 1))
        lam = np.fft.fft(np.concatenate([rho, rho[-2:0:-1]])).real
        assert lam.min() >= -1e-9 * lam.max()

    def test_negative_eigenvalue_raises(self, monkeypatch):
        # the n = 1 embedding of autocovariances (1, 2) has eigenvalues 3, -1
        monkeypatch.setattr(pamfk.fbm, "fgn_autocovariance",
                            lambda h, lags: np.array([1.0, 2.0]))
        with pytest.raises(np.linalg.LinAlgError, match="nonnegative"):
            pamfk.fbm._circulant_eigenvalues.__wrapped__(1.0, 1)


class TestExactSampler:
    def test_variance_at_one(self):
        for hv in (0.25, 0.6):
            h = HurstParameter(hv)
            xs = np.array([sample_at_times(h, [1.0], s)[0]
                           for s in range(4096)])
            stderr = math.sqrt(2.0 / 4095)
            assert abs(xs.var(ddof=1) - 1.0) < 3 * stderr

    def test_brownian_cov(self):
        h = HurstParameter(0.5)
        d = np.array([sample_at_times(h, [1.0, 2.0], s) for s in range(8192)])
        prods = d[:, 0] * d[:, 1]
        stderr = prods.std(ddof=1) / math.sqrt(len(prods))
        assert abs(prods.mean() - 1.0) < 3 * stderr

    def test_general_cov(self):
        h = HurstParameter(0.3)
        d = np.array([sample_at_times(h, [0.5, 1.5], s) for s in range(8192)])
        prods = d[:, 0] * d[:, 1]
        target = covariance(h, 0.5, 1.5)
        stderr = prods.std(ddof=1) / math.sqrt(len(prods))
        assert abs(prods.mean() - target) < 3 * stderr

    def test_validation(self):
        h = HurstParameter(0.5)
        with pytest.raises(ValueError):
            sample_at_times(h, [], 0)
        with pytest.raises(ValueError):
            sample_at_times(h, [1.0, 0.5], 0)
        with pytest.raises(ValueError):
            sample_at_times(h, [0.0, 1.0], 0)
        with pytest.raises(ExactModeCapError):
            sample_at_times(h, np.linspace(0.001, 1.0, 600), 0)


class TestHurstField:
    def test_order_independent(self):
        g = TimeGrid(0.1, 1.0)
        h = HurstParameter(0.4)
        f1 = HurstField(h, g, 9)
        f2 = HurstField(h, g, 9)
        a = f1.paths_on_grid([(3,)])[0]
        f2.paths_on_grid([(-1,)])
        f2.paths_on_grid([(0,)])
        assert np.array_equal(f2.paths_on_grid([(3,)])[0], a)

    def test_distinct_sites_distinct_paths(self):
        g = TimeGrid(0.1, 1.0)
        f = HurstField(HurstParameter(0.4), g, 9)
        rows = f.paths_on_grid([(0,), (1,)])
        assert not np.array_equal(rows[0], rows[1])

    def test_repeat_reads_equal_and_draw_nothing(self, fbm_draws):
        g = TimeGrid(0.1, 1.0)
        f = HurstField(HurstParameter(0.4), g, 9)
        pre = f.paths_on_grid([(0,)])[0]
        assert np.array_equal(f.paths_on_grid([(0,)])[0], pre)
        fresh = f.paths_on_grid([(5,)])[0]
        assert len(fbm_draws) == 2
        # a second read of a cached site draws nothing
        assert np.array_equal(f.paths_on_grid([(5,)])[0], fresh)
        assert len(fbm_draws) == 2

    def test_batch_read_draws_missing_sites_once(self, fbm_draws):
        g = TimeGrid(0.05, 1.0, pad=0.1)
        h = HurstParameter(0.3)
        f = HurstField(h, g, 4)
        one = f.paths_on_grid([(2,)])[0]
        rows = f.paths_on_grid([(0,), (2,), (-1,), (0,)])
        assert len(fbm_draws) == 3  # (2,) once, then (0,) and (-1,) together
        assert np.array_equal(rows[1], one)
        assert np.array_equal(rows[0], rows[3])
        for row, site in zip(rows, [(0,), (2,), (-1,), (0,)]):
            assert np.array_equal(
                row, sample_grid_paths(h, g, [site_seed(4, site)])[0])


class TestEpsilonDerivative:
    def test_zero_field(self):
        g = TimeGrid(0.05, 1.0, pad=0.1)
        ed = EpsilonDerivative(g, 0.1)
        dw = ed.grid_values(ZeroField(g).paths_on_grid([(0,)]))
        assert dw[0, g.index_of(0.5) - g.zero_index] == 0.0
        assert np.all(dw == 0.0)

    def test_linear_field_slope(self):
        g = TimeGrid(0.05, 1.0, pad=0.1)
        ed = EpsilonDerivative(g, 0.1)
        dw = ed.grid_values(LinearField(g, {(0,): 2.5}).paths_on_grid([(0,)]))
        assert dw[0, g.index_of(0.4) - g.zero_index] == pytest.approx(2.5)
        assert np.allclose(dw, 2.5)

    def test_equals_centered_difference(self):
        g = TimeGrid(0.05, 1.0, pad=0.05)
        f = HurstField(HurstParameter(0.7), g, 2)
        ed = EpsilonDerivative(g, g.step)
        p = f.paths_on_grid([(0,)])[0]
        i = g.index_of(0.5)
        expect = (p[i + 1] - p[i - 1]) / (2 * g.step)
        dw = ed.grid_values(p)
        assert dw[i - g.zero_index] == pytest.approx(expect, rel=1e-12)

    def test_epsilon_validation(self):
        g = TimeGrid(0.05, 1.0, pad=0.1)
        with pytest.raises(ValueError):
            EpsilonDerivative(g, 0.07)  # not a grid multiple
        with pytest.raises(ValueError):
            EpsilonDerivative(g, 0.2)  # exceeds pad
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError, match="epsilon must be > 0"):
                EpsilonDerivative(g, bad)

    def test_variance_matches_closed_form(self):
        # Var dW_eps(t) = (2 eps)^{2H} / (4 eps^2)
        hv, eps = 0.3, 0.1
        h = HurstParameter(hv)
        g = TimeGrid(0.05, 1.0, pad=0.1)
        n = 10**4
        paths = sample_grid_paths(h, g, range(n))
        i = g.index_of(0.5)
        k = round(eps / g.step)
        dw = (paths[:, i + k] - paths[:, i - k]) / (2 * eps)
        target = (2 * eps) ** (2 * hv) / (4 * eps**2)
        sq = dw**2
        stderr = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - target) < 3 * stderr
