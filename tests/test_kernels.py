import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pamfk.fbm import HurstParameter, TimeGrid, sample_grid_paths
from pamfk.kernels import (QUAD_TOL, InnerProductInput, SegmentKernelInput,
                           eps_autocov, f_eps, h_eps, inner_gX_ge,
                           inner_geX_ge, kernel_sweep_rows,
                           path_increment_variance,
                           prop41_variance, rho, s2, s2_alternative_bound, s3,
                           smooth_integral_variance)
from pamfk.quadrature import adaptive_simpson
from pamfk.walk import WalkPath, reverse_view

hursts = st.floats(min_value=0.1, max_value=0.9)
dyadic_eps = st.sampled_from([2.0**-k for k in range(3, 10)])


class TestEpsAutocov:
    def test_brownian_vanishes_beyond_2eps(self):
        h = HurstParameter(0.5)
        assert eps_autocov(h, 1.0, 0.5, 0.1) == pytest.approx(0.0, abs=1e-14)

    def test_brownian_at_equal_times(self):
        h = HurstParameter(0.5)
        assert eps_autocov(h, 0.3, 0.3, 0.1) == pytest.approx(1 / 0.2)

    def test_antipersistent_sign_and_bound(self):
        h = HurstParameter(0.25)
        eps = 0.05
        v = eps_autocov(h, 0.5, 0.5 - 2 * eps, eps)
        assert v <= 0.0
        assert abs(v) <= 4 * (4 * eps) ** 0.5 / (2 * eps) ** 2

    def test_validation(self):
        with pytest.raises(ValueError):
            eps_autocov(HurstParameter(0.5), 0.0, 1.0, 0.0)

    def test_matches_increment_covariance_form(self):
        # E[dW(a) dW(b)] = Cov(W(a+e)-W(a-e), W(b+e)-W(b-e)) / (2e)^2
        from pamfk.fbm import increment_covariance
        h = HurstParameter(0.35)
        eps = 0.1
        for a, b in ((0.4, 0.7), (0.2, 0.2), (1.0, 0.15)):
            direct = increment_covariance(h, a + eps, a - eps,
                                          b + eps, b - eps) / (2 * eps) ** 2
            assert eps_autocov(h, a, b, eps) == pytest.approx(direct)


class TestS2S3:
    def test_input_validation(self):
        h = HurstParameter(0.5)
        with pytest.raises(ValueError):
            SegmentKernelInput(h, 0.5, 0.5, 0.1)
        with pytest.raises(ValueError):
            SegmentKernelInput(h, 0.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            SegmentKernelInput(h, 0.0, 2.0, 0.1, horizon=1.0)

    def test_s2_brownian_closed_form(self):
        # H=1/2, t >= 2 eps: value = t - 2 eps / 3
        inp = SegmentKernelInput(HurstParameter(0.5), 0.0, 1.0, 0.1)
        assert s2(inp).value == pytest.approx(1.0 - 0.2 / 3, abs=1e-12)
        assert s2(inp).target == 1.0

    def test_s3_brownian_closed_form(self):
        # H=1/2, t >= 2 eps: value = t - eps / 2
        inp = SegmentKernelInput(HurstParameter(0.5), 0.0, 1.0, 0.1)
        assert s3(inp).value == pytest.approx(0.95, abs=1e-12)

    @given(hursts, dyadic_eps, st.sampled_from([0.25, 1.0]))
    @settings(max_examples=80, deadline=None)
    def test_closed_matches_quadrature(self, hv, eps, t):
        inp = SegmentKernelInput(HurstParameter(hv), 0.0, t, eps, horizon=1.0)
        assert s2(inp, "quad").value == pytest.approx(s2(inp).value, abs=1e-7)
        assert s3(inp, "quad").value == pytest.approx(s3(inp).value, abs=1e-7)

    @given(hursts, dyadic_eps, st.sampled_from([0.25, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_within_bounds(self, hv, eps, t):
        inp = SegmentKernelInput(HurstParameter(hv), 0.0, t, eps, horizon=1.0)
        assert s2(inp).within_bound
        assert s3(inp).within_bound

    def test_s3_epsilon_larger_than_segment(self):
        inp = SegmentKernelInput(HurstParameter(0.3), 0.0, 0.05, 0.125)
        ev = s3(inp)
        assert math.isfinite(ev.value)
        assert ev.within_bound

    def test_s2_alternative_bound_persistent(self):
        for eps in (2.0**-k for k in range(3, 10)):
            inp = SegmentKernelInput(HurstParameter(0.75), 0.0, 1.0, eps,
                                     horizon=1.0)
            ev = s2(inp)
            assert abs(ev.value - ev.target) <= s2_alternative_bound(inp)

    def test_vanishing_segment(self):
        inp = SegmentKernelInput(HurstParameter(0.4), 0.0, 1e-6, 0.125)
        assert abs(s3(inp).value) < 1e-5

    def test_unknown_method(self):
        inp = SegmentKernelInput(HurstParameter(0.4), 0.0, 1.0, 0.125)
        with pytest.raises(ValueError):
            s2(inp, "mc")
        with pytest.raises(ValueError):
            s3(inp, "mc")

    def test_sweep_rows_all_within_bound(self):
        rows = kernel_sweep_rows([0.25, 0.5, 0.75],
                                 [2.0**-k for k in range(3, 7)],
                                 [0.25, 1.0], horizon=1.0)
        assert len(rows) == 3 * 4 * 2 * 2
        assert all(r["within_bound"] for r in rows)


class TestPointwiseKernels:
    def test_f_eps_brownian_vanishes(self):
        assert f_eps(0.7, HurstParameter(0.5), 0.1) == pytest.approx(0.0)

    def test_f_eps_limit(self):
        for hv in (0.25, 0.75):
            h = HurstParameter(hv)
            lim = 2 * hv * (2 * hv - 1) * 1.0 ** (2 * hv - 2)
            assert abs(f_eps(1.0, h, 1e-5) - lim) < 1e-6

    def test_f_eps_bound(self):
        for hv in (0.25, 0.5, 0.75):
            h = HurstParameter(hv)
            for eps in (0.1, 0.01):
                g = np.logspace(-3, 1, 200)
                vals = np.array([abs(f_eps(x, h, eps)) for x in g])
                assert np.all(vals <= 18.0 * g ** (2 * hv - 2) + 1e-12)

    def test_h_eps_limit(self):
        for hv in (0.25, 0.75):
            h = HurstParameter(hv)
            lim = 2 * hv * (2 * hv - 1) * 1.0 ** (2 * hv - 2)
            assert abs(h_eps(1.0, h, 1e-5) - lim) < 1e-6

    def test_h_eps_brownian_zero(self):
        assert h_eps(0.5, HurstParameter(0.5), 0.1) == pytest.approx(0.0)

    def test_h_eps_bound_beyond_2eps(self):
        for hv in (0.25, 0.75):
            h = HurstParameter(hv)
            eps = 0.05
            r = np.logspace(math.log10(2 * eps), 1, 200)
            vals = np.array([abs(h_eps(x, h, eps)) for x in r])
            assert np.all(vals <= 8.0 * r ** (2 * hv - 2) + 1e-12)

    def test_rho_brownian(self):
        assert rho(0.5, HurstParameter(0.5), 0.1) == pytest.approx(0.5)

    def test_rho_bound_antipersistent(self):
        h = HurstParameter(0.25)
        r = np.logspace(-3, math.log10(2.0), 300)
        vals = np.array([rho(x, h, 0.01) for x in r])
        assert np.all(vals <= 2.0 * r ** (2 * 0.25 - 1) + 1e-12)

    def test_rho_large_r_asymptotics(self):
        h = HurstParameter(0.3)
        ratio = rho(1e3, h, 1e-2) / (h.h * 1e3 ** (2 * 0.3 - 1))
        assert abs(ratio - 1.0) < 0.01


class TestInnerProducts:
    def test_empty_intervals(self):
        inp = InnerProductInput(HurstParameter(0.4), 0.1, 1.0, ())
        assert inner_geX_ge(inp) == 0.0
        assert inner_gX_ge(inp) == 0.0

    def test_single_interval_brownian(self):
        inp = InnerProductInput(HurstParameter(0.5), 0.1, 1.0, ((0.0, 1.0),))
        assert inner_geX_ge(inp) == pytest.approx(0.5, abs=1e-12)
        assert inner_gX_ge(inp) == pytest.approx(0.5, abs=1e-12)

    def test_validation(self):
        h = HurstParameter(0.4)
        with pytest.raises(ValueError):
            InnerProductInput(h, 0.0, 1.0, ())
        with pytest.raises(ValueError):
            InnerProductInput(h, 0.1, 1.0, ((0.5, 0.4),))
        with pytest.raises(ValueError):
            InnerProductInput(h, 0.1, 1.0, ((0.0, 0.6), (0.5, 0.9)))

    def test_geX_ge_quadrature_oracle(self):
        h = HurstParameter(0.3)
        eps = 0.05
        intervals = ((0.0, 0.3), (0.6, 1.0))
        inp = InnerProductInput(h, eps, 1.0, intervals)
        oracle = 0.5 * sum(
            adaptive_simpson(lambda g: f_eps(g, h, eps), lo, hi,
                             tol=1e-10, kinks=[2 * eps])
            for lo, hi in intervals)
        assert inner_geX_ge(inp) == pytest.approx(oracle, abs=1e-8)

    def test_gX_ge_quadrature_oracle(self):
        # the telescoping display integrates h_eps / 2 over each interval;
        # H > 1/2 keeps the integrand bounded at the r = eps kink
        h = HurstParameter(0.7)
        eps = 0.05
        intervals = ((0.0, 0.3), (0.6, 1.0))
        inp = InnerProductInput(h, eps, 1.0, intervals)
        oracle = sum(
            0.5 * adaptive_simpson(lambda r: h_eps(r, h, eps), lo, hi,
                                   tol=1e-10, kinks=[eps])
            for lo, hi in intervals)
        assert inner_gX_ge(inp) == pytest.approx(oracle, abs=1e-8)

    def test_from_reversed_path(self):
        rp = WalkPath(1.0, (0.3, 0.6), ((0,), (1,), (0,)))
        inp = InnerProductInput.from_reversed_path(
            rp, 0.8, (0,), HurstParameter(0.4), 0.1)
        assert inp.intervals == ((0.0, 0.3), (0.6, 0.8))

    def test_difference_vanishes_with_epsilon(self):
        h = HurstParameter(0.35)
        intervals = ((0.2, 0.5), (0.7, 1.0))
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            inp = InnerProductInput(h, eps, 1.0, intervals)
            gaps.append(abs(inner_gX_ge(inp) - inner_geX_ge(inp)))
        assert gaps[-1] < 1e-3
        assert gaps[-1] < gaps[0]

    def test_inner_products_mc_oracle(self):
        # E[dW(s, x) * smoothed integral] and E[dW(s, x) * rough sum]
        # along a reversed 2-jump path, against the closed forms
        h = HurstParameter(0.3)
        eps = 0.1
        step = eps / 8
        s = 1.0
        grid = TimeGrid(step, s, pad=eps)
        rp = WalkPath(s, (0.25, 0.625), ((0,), (1,), (0,)))
        x = (0,)
        inp = InnerProductInput.from_reversed_path(rp, s, x, h, eps)

        n = 2 * 10**4
        zi = grid.zero_index
        k = round(eps / step)
        dw_by_site = {}
        w_by_site = {}
        for j, site in enumerate({site for _, _, site in rp.segments()}):
            paths = sample_grid_paths(h, grid,
                                      [hash((j, i)) & (2**63 - 1)
                                       for i in range(n)])
            w = paths[:, zi:zi + grid.count]
            dw = (paths[:, zi + k:zi + k + grid.count]
                  - paths[:, zi - k:zi - k + grid.count]) / (2 * eps)
            w_by_site[site] = w
            dw_by_site[site] = dw

        a = dw_by_site[x][:, grid.count - 1]  # dW_eps(s, x)
        smooth = np.zeros(n)
        rough = np.zeros(n)
        for lo, hi, site in rp.segments():
            i, j = round(lo / step), round(hi / step)
            dw = dw_by_site[site]
            seg = 0.5 * (dw[:, i:j] + dw[:, i + 1:j + 1]).sum(axis=1) * step
            smooth += seg
            rough += w_by_site[site][:, j] - w_by_site[site][:, i]

        for prod, closed in ((a * smooth, inner_geX_ge(inp)),
                             (a * rough, inner_gX_ge(inp))):
            stderr = prod.std(ddof=1) / math.sqrt(n)
            assert abs(prod.mean() - closed) < 3 * stderr + 2e-3


class TestProp41Variance:
    def test_single_segment_identity(self):
        # no jumps: variance = S1 - 2 S3 + S2 with S1 = t^{2H}
        for hv in (0.25, 0.5, 0.75):
            h = HurstParameter(hv)
            eps = 0.1
            p = WalkPath(1.0, (), ((0,),))
            inp = SegmentKernelInput(h, 0.0, 1.0, eps)
            expect = 1.0 - 2 * s3(inp).value + s2(inp).value
            assert prop41_variance(p, h, eps) == pytest.approx(expect,
                                                               abs=1e-10)

    def test_brownian_single_segment_closed_form(self):
        # S1 - 2 S3 + S2 = eps / 3 at H = 1/2, t >= 2 eps
        h = HurstParameter(0.5)
        p = WalkPath(1.0, (), ((0,),))
        for eps in (0.1, 0.05, 0.025):
            assert prop41_variance(p, h, eps) == pytest.approx(eps / 3,
                                                               abs=1e-10)

    def test_closed_matches_quadrature(self):
        p = WalkPath(1.0, (0.3, 0.7), ((0,), (1,), (0,)))
        for hv in (0.25, 0.5, 0.75):
            h = HurstParameter(hv)
            closed = prop41_variance(p, h, 0.125)
            quad = prop41_variance(p, h, 0.125, method="quad")
            assert closed == pytest.approx(quad, abs=1e-6)

    def test_quad_needs_minimum_depth(self):
        # two same-site segments where the first-level Simpson estimates
        # agreed by chance and quad was 1.86e-7 off the closed form
        p = WalkPath(0.4230186687222366,
                     (0.387746267632346, 0.4101802715544136),
                     ((0,), (1,), (0,)))
        h = HurstParameter(0.75)
        closed = prop41_variance(p, h, 0.125)
        quad = prop41_variance(p, h, 0.125, method="quad")
        assert abs(closed - quad) <= QUAD_TOL

    def test_nonnegative(self):
        p = WalkPath(1.0, (0.2, 0.25, 0.8), ((0,), (1,), (2,), (1,)))
        for hv in (0.2, 0.5, 0.8):
            assert prop41_variance(p, HurstParameter(hv), 0.0625) >= -1e-12

    def test_reversal_orientation_consistent(self):
        # same decay rate either way; exercise the reversed orientation
        p = WalkPath(1.0, (0.3,), ((0,), (1,)))
        h = HurstParameter(0.5)
        v1 = prop41_variance(p, h, 0.05)
        v2 = prop41_variance(reverse_view(p), h, 0.05)
        assert v1 > 0 and v2 > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            prop41_variance(WalkPath(1.0, (), ((0,),)),
                            HurstParameter(0.5), 0.0)

    def test_smooth_integral_variance_single_segment(self):
        h = HurstParameter(0.4)
        p = WalkPath(1.0, (), ((0,),))
        inp = SegmentKernelInput(h, 0.0, 1.0, 0.125)
        assert smooth_integral_variance(p, h, 0.125) == pytest.approx(
            s2(inp).value, abs=1e-10)

    def test_path_increment_variance_brownian_additive(self):
        # H=1/2: variance of the increment sum is t for ANY path
        h = HurstParameter(0.5)
        for times, sites in (((), ((0,),)),
                             ((0.2, 0.7), ((0,), (1,), (0,))),
                             ((0.1, 0.5, 0.6), ((0,), (1,), (2,), (1,)))):
            p = WalkPath(1.0, times, sites)
            assert path_increment_variance(p, h) == pytest.approx(1.0,
                                                                  abs=1e-12)

    def test_deterministic(self):
        p = WalkPath(1.0, (0.4,), ((0,), (1,)))
        h = HurstParameter(0.3)
        assert prop41_variance(p, h, 0.1) == prop41_variance(p, h, 0.1)
