import math

import numpy as np
import pytest

from pamfk._seeds import mix64, site_seed
from pamfk.experiments import (EXPERIMENTS, RateFit, SweepSpec,
                               fit_loglog, fixed_jump_path,
                               run_fk_pde_crosscheck, run_kernel_sweep,
                               run_rate_sweep, run_rough_tail,
                               run_ueps_convergence, write_report)
from pamfk.walk import WalkConfig, walk_block


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(epsilons=(0.1, 0.2))  # not decreasing
    with pytest.raises(ValueError):
        SweepSpec(n_samples=50)
    with pytest.raises(ValueError, match="n_realizations must be >= 1"):
        SweepSpec(n_realizations=0)


@pytest.mark.parametrize("n_inner", [0, -1])
def test_sweep_spec_rejects_n_inner_below_one(n_inner):
    with pytest.raises(ValueError, match="n_inner must be >= 1"):
        SweepSpec(n_inner=n_inner)


def test_rate_fit_validation():
    with pytest.raises(ValueError):
        RateFit(1.0, 0.0, 1.0, ((0.0, 0.0),) * 3)  # too few points
    with pytest.raises(ValueError):
        RateFit(float("nan"), 0.0, 1.0, ((0.0, 0.0),) * 4)


def test_fit_loglog_recovers_power_law():
    eps = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = 3.0 * eps**1.7
    fit = fit_loglog(eps, errs)
    assert fit.slope == pytest.approx(1.7, abs=1e-10)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0)


def test_fixed_jump_path_properties():
    p = fixed_jump_path(5, 1.0, 2, 42)
    assert p.jump_count == 5
    assert p.sites[0] == (0, 0)
    assert fixed_jump_path(5, 1.0, 2, 42) == p


def test_rate_sweep_passes_at_small_scale():
    spec = SweepSpec(hursts=(0.5,), epsilons=tuple(2.0**-k for k in range(3, 8)),
                     jump_counts=(0, 3), master_seed=1)
    report = run_rate_sweep(spec)
    assert report.passed
    fit = report.fits[(0.5, 3)]
    assert fit.slope >= 0.9
    assert fit.r_squared >= 0.95


def test_kernel_sweep_passes():
    spec = SweepSpec(epsilons=tuple(2.0**-k for k in range(3, 8)))
    report = run_kernel_sweep(spec)
    assert report.passed


def test_rough_tail_small_scale():
    spec = SweepSpec(n_samples=20000, master_seed=3)
    report = run_rough_tail(spec)
    # tail column nonincreasing within each delta
    for delta in (0.1, 0.05, 0.025):
        tails = [r["p_r_ge_n"] for r in report.rows if r["delta"] == delta]
        assert all(b <= a for a, b in zip(tails, tails[1:]))
    assert report.passed


@pytest.mark.filterwarnings("error")
def test_rough_tail_without_short_gaps_fails_by_name():
    # at kappa 0.01 almost no path jumps twice, and none within 0.1
    report = run_rough_tail(SweepSpec(kappa=0.01, n_samples=100))
    assert not report.passed
    assert "no sampled path has a short gap" in report.criterion
    assert all(c == 0.0 for c in report.fits["c_hats"].values())
    assert all(math.isfinite(v) for row in report.rows
               for v in row.values())


@pytest.mark.parametrize("deltas", [(0.0,), (-0.1, 0.05)])
def test_rough_tail_rejects_non_positive_delta(deltas):
    with pytest.raises(ValueError, match="deltas must be > 0"):
        run_rough_tail(SweepSpec(n_samples=100), deltas=deltas)


def test_ueps_convergence_brownian_small():
    spec = SweepSpec(hursts=(0.5,), epsilons=(0.1, 0.05, 0.025, 0.0125),
                     n_samples=100, n_inner=40, master_seed=2)
    report = run_ueps_convergence(spec)
    means = [r["mean_sq_diff"] for r in report.rows]
    assert means[-1] < means[0]
    assert report.fits[0.5].slope > 0.5


def test_ueps_outer_sample_draws_each_touched_site_once(fbm_draws):
    spec = SweepSpec(hursts=(0.5,), epsilons=(0.1, 0.05, 0.025, 0.0125),
                     n_samples=100, n_inner=5, master_seed=4)
    run_ueps_convergence(spec)
    cfg = WalkConfig(spec.dim, spec.kappa, spec.horizon)
    expected = []
    for k in range(spec.n_samples):
        rng = np.random.default_rng(mix64(spec.master_seed, 13, k))
        sites = set(map(tuple, walk_block(cfg, rng, spec.n_inner)[2].tolist()))
        field_seed = mix64(spec.master_seed, 11, k)
        expected += [site_seed(field_seed, site) for site in sites]
    assert sorted(fbm_draws) == sorted(expected)


def test_fk_pde_crosscheck_small():
    spec = SweepSpec(hursts=(0.5,), n_realizations=3, master_seed=11)
    report = run_fk_pde_crosscheck(spec, n_walks=2000)
    assert report.passed


def test_registry_names():
    assert set(EXPERIMENTS) == {"rate_sweep", "ueps_convergence", "rough_tail",
                                "fk_pde_crosscheck", "kernel_sweep"}


def test_write_report_deterministic(tmp_path):
    spec = SweepSpec(hursts=(0.5,), epsilons=tuple(2.0**-k for k in range(3, 8)),
                     jump_counts=(0,), master_seed=1)
    report = run_rate_sweep(spec)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    csv1, verdict1 = write_report(report, str(d1), ("hdr",))
    report2 = run_rate_sweep(spec)
    csv2, verdict2 = write_report(report2, str(d2), ("hdr",))
    assert open(csv1, "rb").read() == open(csv2, "rb").read()
    assert open(verdict1, "rb").read() == open(verdict2, "rb").read()
    assert open(verdict1).readline().strip() == "PASS"
