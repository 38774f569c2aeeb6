"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each criterion is evaluated at the stated tolerance; a failed assertion
carries the same line as its message.
"""

import math

import numpy as np

from pamfk._seeds import mix64
from pamfk.cli import main as cli_main
from pamfk.experiments import (SweepSpec, fixed_jump_path,
                               run_fk_pde_crosscheck, run_rate_sweep,
                               run_rough_tail, run_ueps_convergence)
from pamfk.fbm import (HurstParameter, TimeGrid, covariance, sample_at_times,
                       _fgn_from_normals)
from pamfk.fk import estimate_annealed_moment, InitialCondition
from pamfk.kernels import (InnerProductInput, SegmentKernelInput, eps_autocov,
                           f_eps, h_eps, inner_gX_ge, inner_geX_ge,
                           prop41_variance, rho, s2, s2_alternative_bound, s3)
from pamfk.walk import WalkConfig, WalkPath, reverse_view


def _verdict(num, desc, ok):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}]: {desc}"
    print(line)
    assert ok, line


def test_criterion_01_fbm_covariance():
    times = (0.3, 0.7, 1.1, 1.6, 2.0)
    n = 10**4
    ok = True
    for hi, hv in enumerate((0.25, 0.5, 0.75)):
        h = HurstParameter(hv)
        draws = np.array([sample_at_times(h, times, mix64(101, hi, i))
                          for i in range(n)])
        for a in range(5):
            for b in range(a, 5):
                prods = draws[:, a] * draws[:, b]
                target = covariance(h, times[a], times[b])
                stderr = prods.std(ddof=1) / math.sqrt(n)
                ok = ok and abs(prods.mean() - target) <= 3 * stderr
    _verdict(1, "exact-sampler covariance matches R_H entrywise within "
                "3*stderr on a 5-time design, 1e4 draws, H in {.25,.5,.75}",
             ok)


def test_criterion_02_negative_correlation():
    eps = 0.05
    ok = True
    for hv in (0.15, 0.25, 0.35, 0.45):
        h = HurstParameter(hv)
        far = np.linspace(2 * eps, 5.0, 10**4)
        vals = np.array([eps_autocov(h, g, 0.0, eps) for g in far])
        ok = ok and bool(np.all(vals <= 1e-12))
        near = np.linspace(0.0, 2 * eps, 10**4, endpoint=False)
        nvals = np.array([abs(eps_autocov(h, g, 0.0, eps)) for g in near])
        bound = 4 * (4 * eps) ** (2 * hv) / (2 * eps) ** 2
        ok = ok and bool(np.all(nvals <= bound))
    _verdict(2, "dW_eps autocovariance <= 0 for |a-b| >= 2eps (H < 1/2) and "
                "|.| <= 4(4eps)^{2H}/(2eps)^2 below 2eps, 1e4-point sweeps",
             ok)


def test_criterion_03_s2_bounds():
    epsilons = [2.0**-k for k in range(3, 10)]
    lengths = (0.25, 1.0)
    ok = True
    for hv in np.arange(0.10, 0.46, 0.05):
        h = HurstParameter(round(float(hv), 2))
        for eps in epsilons:
            for t in lengths:
                ev = s2(SegmentKernelInput(h, 0.0, t, eps, horizon=1.0))
                ok = ok and abs(ev.value - ev.target) <= 4 * (2 * eps) ** h.two_h
    for hv in np.arange(0.55, 0.91, 0.05):
        h = HurstParameter(round(float(hv), 2))
        for eps in epsilons:
            for t in lengths:
                inp = SegmentKernelInput(h, 0.0, t, eps, horizon=1.0)
                ev = s2(inp)
                err = abs(ev.value - ev.target)
                ok = ok and err <= 2 ** h.two_h * (2 + h.two_h) * eps
                ok = ok and err <= s2_alternative_bound(inp)
    _verdict(3, "S2 within 4(2eps)^{2H} (H<1/2) and 2^{2H}(2+2H T^{2H-1})eps "
                "plus the 2t(2H+1)eps^{2H-1} alternative (H>1/2), "
                "zero failures over the dyadic sweep", ok)


def test_criterion_04_s3_bounds():
    epsilons = [2.0**-k for k in range(3, 10)]
    lengths = (0.05, 0.25, 1.0)  # 0.05 exercises the eps > t branch
    ok = True
    for hv in np.arange(0.10, 0.51, 0.05):
        h = HurstParameter(round(float(hv), 2))
        bound_of = lambda eps: 2 * eps ** h.two_h / (h.two_h + 1)
        for eps in epsilons:
            for t in lengths:
                ev = s3(SegmentKernelInput(h, 0.0, t, eps, horizon=1.0))
                ok = ok and abs(ev.value - ev.target) <= bound_of(eps)
    _verdict(4, "S3 within 2 eps^{2H}/(2H+1) for H <= 1/2 over the dyadic "
                "sweep including the eps > t branch, zero failures", ok)


def test_criterion_05_prop41_rate_and_mc_oracle():
    report = run_rate_sweep(SweepSpec(master_seed=0))
    ok = report.passed

    # oracle equivalence: 1e5-sample MC of E|smooth - rough|^2
    eps = 0.125
    step = eps / 16
    grid = TimeGrid(step, 1.0, pad=eps)
    base = fixed_jump_path(3, 1.0, 1, 123)
    path = WalkPath(1.0, tuple(round(t / step) * step
                               for t in base.jump_times), base.sites)
    n = 10**5
    zi, k = grid.zero_index, round(eps / step)
    npts = grid.total_points - 1
    for hv, seed in ((0.5, 7), (0.25, 8)):
        h = HurstParameter(hv)
        target = prop41_variance(reverse_view(path), h, eps)
        rng = np.random.default_rng(seed)
        diff = np.zeros(n)
        for site in {s for _, _, s in path.segments()}:
            z = rng.standard_normal((n, 2 * npts))
            fgn = _fgn_from_normals(h, npts, z) * step**hv
            paths = np.concatenate(
                [np.zeros((n, 1)), np.cumsum(fgn, axis=1)], axis=1)
            paths -= paths[:, zi:zi + 1]
            w = paths[:, zi:zi + grid.count]
            dw = (paths[:, zi + k:zi + k + grid.count]
                  - paths[:, zi - k:zi - k + grid.count]) / (2 * eps)
            cum = np.concatenate(
                [np.zeros((n, 1)),
                 np.cumsum(0.5 * (dw[:, :-1] + dw[:, 1:]) * step, axis=1)],
                axis=1)
            for lo, hi, seg_site in reverse_view(path).segments():
                if seg_site != site:
                    continue
                i, j = round(lo / step), round(hi / step)
                diff += (cum[:, j] - cum[:, i]) - (w[:, j] - w[:, i])
        sq = diff**2
        stderr = sq.std(ddof=1) / math.sqrt(n)
        ok = ok and abs(sq.mean() - target) <= 3 * stderr
    _verdict(5, "prop41_variance log-log slope >= min(2H,1) - 0.1 with "
                "r^2 >= 0.95 (N in {0,3,10}, H in {.25,.5,.75}) and 1e5 "
                "sample MC oracle agreement within 3*stderr", ok)


def test_criterion_06_fk_pde_duality():
    spec = SweepSpec(hursts=(0.25, 0.5, 0.75), n_realizations=20,
                     master_seed=0)
    report = run_fk_pde_crosscheck(spec, epsilon=0.1, n_walks=4000)
    _verdict(6, "quenched smooth FK vs mollified PDE within 3*stderr + "
                "Richardson on >= 95% of 20 seeded realizations per H "
                f"(pass rate {report.fits['pass_rate']:.3f})",
             report.passed)


def test_criterion_07_ueps_to_u():
    spec = SweepSpec(hursts=(0.25, 0.5, 0.75),
                     epsilons=(0.1, 0.05, 0.025, 0.0125),
                     n_samples=300, n_inner=100, master_seed=0)
    report = run_ueps_convergence(spec)
    detail = "; ".join(
        f"H={hv}: slope {fit.slope:.2f}" for hv, fit in report.fits.items())
    _verdict(7, "paired E|u_eps - u|^2 decreasing with final < first/4 and "
                f"slope >= min(2H,1) - 0.2 for each H ({detail})",
             report.passed)


def test_criterion_08_rough_period_tails():
    spec = SweepSpec(n_samples=10**6, master_seed=0)
    report = run_rough_tail(spec, deltas=(0.1, 0.05, 0.025))
    ok = report.passed
    # ratios bounded by the fitted C_hat * delta at every n <= 2
    for delta, c_hat in report.fits["c_hats"].items():
        for row in report.rows:
            if row["delta"] == delta and row["ratio"] > 0:
                ok = ok and row["ratio"] <= c_hat * delta + 1e-12
    _verdict(8, "1e6-path tails: P(R>=n+1)/P(R>=n) <= C_hat*delta (n <= 2), "
                "C_hat stable within 50% across delta, L <= R*delta and "
                "K <= R on every path", ok)


def test_criterion_09_moment_stability():
    grid = TimeGrid(0.00625, 1.0, pad=0.1)
    cfg = WalkConfig(1, 1.0, 1.0)
    ic = InitialCondition.constant(1.0)
    ok = True
    for hv in (0.25, 0.75):
        h = HurstParameter(hv)
        ests = [estimate_annealed_moment(cfg, ic, h, grid, p=2.0,
                                         epsilon=eps,
                                         n_outer=150, n_inner=150, seed=13)
                for eps in (0.1, 0.05, 0.025)]
        for i in range(len(ests)):
            for j in range(i + 1, len(ests)):
                joint = math.sqrt(ests[i].stderr**2 + ests[j].stderr**2)
                ok = ok and abs(ests[i].mean - ests[j].mean) < 3 * joint
    _verdict(9, "nested-MC E|u_eps(1,0)|^2 pairwise stable within 3 joint "
                "stderr over eps in {.1,.05,.025} for H in {.25,.75}", ok)


def test_criterion_10_pointwise_kernel_bounds():
    ok = True
    grid10k = np.logspace(-3, 1, 10**4)
    for hv in (0.25, 0.5, 0.75):
        h = HurstParameter(hv)
        for eps in (0.1, 0.01):
            fv = np.array([abs(f_eps(g, h, eps)) for g in grid10k])
            ok = ok and bool(np.all(fv <= 18 * grid10k ** (h.two_h - 2)
                                    + 1e-12))
            r = np.logspace(math.log10(2 * eps), 1, 10**4)
            hv_ = np.array([abs(h_eps(x, h, eps)) for x in r])
            ok = ok and bool(np.all(hv_ <= 8 * r ** (h.two_h - 2) + 1e-12))
    for hv in (0.25, 0.4):
        h = HurstParameter(hv)
        rv = np.array([rho(x, h, 0.01) for x in grid10k])
        ok = ok and bool(np.all(rv <= 2 * grid10k ** (h.two_h - 1) + 1e-12))
    # inner-product gap at eps = 1e-4 on three fixed paths
    for hv, (n_jumps, seed) in zip((0.25, 0.5, 0.75),
                                   ((0, 1), (2, 2), (5, 3))):
        h = HurstParameter(hv)
        rp = reverse_view(fixed_jump_path(n_jumps, 1.0, 1, seed))
        inp = InnerProductInput.from_reversed_path(rp, 1.0, rp.sites[0],
                                                   h, 1e-4)
        ok = ok and abs(inner_gX_ge(inp) - inner_geX_ge(inp)) < 1e-3
    _verdict(10, "|f_eps| <= 18 g^{2H-2}, |h_eps| <= 8 r^{2H-2} (r >= 2eps), "
                 "rho <= 2 r^{2H-1} (H < 1/2) on 1e4-point log grids; "
                 "inner-product gap < 1e-3 at eps = 1e-4 on 3 fixed paths",
             ok)


def test_criterion_11_cli_determinism(tmp_path):
    import json
    import os
    cfg = {"hursts": [0.5], "epsilons": [0.25, 0.125, 0.0625, 0.03125],
           "horizon": 1.0, "kappa": 1.0, "n_samples": 100, "n_inner": 10,
           "n_realizations": 2, "n_walks": 300, "master_seed": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
    rc1 = cli_main(["validate", "--config", str(cfg_path), "--out", out1,
                    "--workers", "1"])
    rc2 = cli_main(["validate", "--config", str(cfg_path), "--out", out2,
                    "--workers", "2"])
    ok = rc1 == rc2
    files = sorted(os.listdir(out1))
    ok = ok and files == sorted(os.listdir(out2)) and len(files) >= 10
    for name in files:
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        ok = ok and a == b
    _verdict(11, "cli validate with identical config and worker counts 1 "
                 "and 2 emits byte-identical CSV and verdict files", ok)
