import csv
import json
import os
import re

import numpy as np
import pytest

import pamfk.cli
import pamfk.experiments
import pamfk.fbm
from pamfk.cli import RunConfig, main
from pamfk.experiments import EXPERIMENTS
from pamfk.fk import ClampError
from pamfk.quadrature import QuadratureError
from test_golden import README_CONFIG, VALIDATE_CONFIG


SMOOTH_PDE_CONFIG = {"hurst": 0.5, "step": 0.0125, "horizon": 1.0, "pad": 0.1,
                     "epsilon": 0.1, "mode": "smooth", "n_walks": 10,
                     "run_pde": True}


def write_config(tmp_path, name="cfg.json", **data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_data_rows(path):
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.reader(rows))


class TestGenerate:
    def test_row_count(self, tmp_path):
        cfg = write_config(tmp_path, hurst=0.5, step=0.0625, horizon=1.0,
                           sites=[[0]], master_seed=1)
        out = str(tmp_path / "out")
        assert main(["generate", "--config", cfg, "--out", out]) == 0
        rows = read_data_rows(os.path.join(out, "fbm_paths.csv"))
        assert rows[0] == ["x0", "t", "w"]
        assert len(rows) == 1 + 17  # header + 16 steps -> 17 grid points

    def test_same_seed_identical_files(self, tmp_path):
        cfg = write_config(tmp_path, hurst=0.3, step=0.125, horizon=1.0,
                           sites=[[0], [2]], master_seed=9)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["generate", "--config", cfg, "--out", a]) == 0
        assert main(["generate", "--config", cfg, "--out", b]) == 0
        fa = open(os.path.join(a, "fbm_paths.csv"), "rb").read()
        fb = open(os.path.join(b, "fbm_paths.csv"), "rb").read()
        assert fa == fb

    def test_invalid_hurst_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, hurst=1.2, step=0.125, horizon=1.0,
                           sites=[[0]])
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "H must be in (0,1)" in capsys.readouterr().err

    @pytest.mark.parametrize("sites", [[0], [[0], [0, 1]], [[]]],
                             ids=["flat", "ragged", "empty_site"])
    def test_malformed_sites_exit_2(self, tmp_path, capsys, sites):
        cfg = write_config(tmp_path, hurst=0.5, step=0.125, horizon=1.0,
                           sites=sites)
        out = tmp_path / "o"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 2
        assert "sites" in capsys.readouterr().err
        assert not (out / "fbm_paths.csv").exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, hurst=0.5, step=0.125, horizon=1.0,
                           sites=[[0]], master_seed=1)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["generate", "--config", cfg, "--out", a])
        main(["generate", "--config", cfg, "--out", b, "--seed", "2"])
        fa = open(os.path.join(a, "fbm_paths.csv"), "rb").read()
        fb = open(os.path.join(b, "fbm_paths.csv"), "rb").read()
        assert fa != fb


class TestConfigValidation:
    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, hurst=0.5, step=0.125, horizon=1.0,
                           tornado=True)
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "tornado" in capsys.readouterr().err

    def test_missing_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, hurst=0.5, step=0.125)
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["ueps_convergence", "rate_sweep"])
    def test_short_ladder_fails_before_sampling(self, tmp_path, capsys,
                                                monkeypatch, fbm_draws,
                                                name):
        variances = []
        monkeypatch.setattr(pamfk.experiments, "prop41_variance",
                            lambda *args: variances.append(args))
        cfg = write_config(tmp_path, experiment=name,
                           epsilons=[0.1, 0.05, 0.025], n_samples=2000)
        out = tmp_path / "o"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 2
        assert ("need at least 4 points for a rate fit, got 3"
                in capsys.readouterr().err)
        assert fbm_draws == [] and variances == []
        assert not out.exists()

    @pytest.mark.parametrize("epsilons, step, cause", [
        ([0.1, 0.07, 0.05, 0.03], "0.0075", "step must divide horizon"),
        ([0.1, 0.07, 0.05, 0.025], "0.00625", "exact multiple of grid.step"),
    ], ids=["horizon", "epsilon"])
    def test_ueps_derived_step_named(self, tmp_path, capsys, fbm_draws,
                                     epsilons, step, cause):
        # the user sets no step: ueps_convergence derives it from the ladder
        cfg = write_config(tmp_path, experiment="ueps_convergence",
                           epsilons=epsilons, n_samples=100)
        out = tmp_path / "o"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"epsilons[-1]/4 = {step}" in err
        assert "horizon 1.0" in err and str(epsilons) in err and cause in err
        assert fbm_draws == []
        assert not out.exists()

    def test_wrong_type(self, tmp_path):
        cfg = write_config(tmp_path, hurst="half", step=0.125, horizon=1.0)
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_non_integral_int_key(self, tmp_path, capsys):
        for key, value in (("n_walks", 1000.7), ("dim", 1.9),
                           ("master_seed", 3.99)):
            cfg = write_config(tmp_path, hurst=0.5, step=0.125, horizon=1.0,
                               **{key: value})
            assert main(["generate", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2
            assert key in capsys.readouterr().err
        loaded = RunConfig({"n_walks": 4.0, "dim": 2.0})
        assert loaded.get("n_walks") == 4 and type(loaded.get("n_walks")) is int
        assert loaded.get("dim") == 2 and type(loaded.get("dim")) is int

    @pytest.mark.parametrize("command, data", [
        ("experiment", {"experiment": "rate_sweep", "jump_counts": [3.7]}),
        ("generate", {"hurst": 0.5, "step": 0.125, "horizon": 1.0,
                      "sites": [[0], [1.5]]}),
        ("solve", {"hurst": 0.5, "step": 0.125, "horizon": 1.0,
                   "n_walks": 10, "u0": "indicator", "u0_site": [0.5]}),
    ], ids=["jump_counts", "sites", "u0_site"])
    def test_non_integral_list_element(self, tmp_path, capsys, command,
                                       data):
        key = next(k for k in data if isinstance(data[k], list))
        cfg = write_config(tmp_path, **data)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    def test_integral_float_list_elements_accepted(self, tmp_path):
        spec = pamfk.cli._sweep_spec(RunConfig({"jump_counts": [3.0, 4]}))
        assert spec.jump_counts == (3, 4)
        ic = pamfk.cli._initial_condition(
            RunConfig({"u0": "indicator", "u0_site": [2.0]}))
        assert ic.site == (2,)
        cfg = write_config(tmp_path, hurst=0.5, step=0.125, horizon=1.0,
                           sites=[[1.0]])
        out = str(tmp_path / "o")
        assert main(["generate", "--config", cfg, "--out", out]) == 0
        assert read_data_rows(os.path.join(out, "fbm_paths.csv"))[1][0] == "1"

    @pytest.mark.parametrize("data, key", [
        ({"experiment": "fk_pde_crosscheck", "epsilon": 0.0}, "epsilon"),
        ({"experiment": "fk_pde_crosscheck", "epsilon": -0.1}, "epsilon"),
        ({"experiment": "rough_tail", "kappa": 0.0}, "kappa"),
        ({"experiment": "rough_tail", "deltas": [0.0]}, "deltas"),
        ({"experiment": "rough_tail", "deltas": [-0.1, 0.05]}, "deltas"),
    ], ids=["0.0", "-0.1", "kappa", "deltas_zero", "deltas_negative"])
    def test_non_positive_epsilon(self, tmp_path, capsys, data, key):
        cfg = write_config(tmp_path, n_walks=10, n_samples=100, **data)
        out = tmp_path / "o"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 2
        assert f"config key {key!r} must be > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("n_walks", 0), ("n_walks", -5), ("n_samples", 0), ("n_samples", -5),
        ("n_inner", 0), ("workers", 0), ("workers", -2),
        ("n_realizations", 0)])
    def test_count_below_one(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, hurst=0.5, step=0.125, horizon=1.0,
                           **{"n_walks": 10, key: value})
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"config key {key!r} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, data, key", [
        ("experiment", {"experiment": "rate_sweep", "horizon": 0.0},
         "horizon"),
        ("experiment", {"experiment": "rate_sweep", "hursts": []}, "hursts"),
        ("experiment", {"experiment": "rate_sweep", "epsilons": []},
         "epsilons"),
        ("experiment", {"experiment": "rate_sweep", "jump_counts": []},
         "jump_counts"),
        ("experiment", {"experiment": "rough_tail", "n_samples": 100,
                        "deltas": []}, "deltas"),
        ("generate", {"hurst": 0.5, "step": 0.125, "horizon": 1.0,
                      "sites": []}, "sites"),
        ("solve", {**SMOOTH_PDE_CONFIG, "radius": 0}, "radius"),
        ("solve", {**SMOOTH_PDE_CONFIG, "dt": 0.0}, "dt"),
        ("solve", {**SMOOTH_PDE_CONFIG, "u0": "indicator", "u0_site": []},
         "u0_site"),
    ], ids=["horizon", "hursts", "epsilons", "jump_counts", "deltas",
            "sites", "radius", "dt", "u0_site"])
    def test_falsy_value_is_not_a_default(self, tmp_path, capsys, command,
                                          data, key):
        # a given zero or empty value must not fall back to the default
        cfg = write_config(tmp_path, **data)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("data, text", [
        ({"mode": "weird"}, "unknown mode 'weird'"),
        ({"mode": "weird", "run_fk": False}, "unknown mode 'weird'"),
        ({"u0": "indicator", "u0_site": [0, 0]}, "'u0_site'"),
        ({"mode": "rough", "epsilon": 0.25, "run_pde": True},
         "smooth equation only"),
        ({"mode": "smooth", "epsilon": 0.25, "pad": 0.25, "run_pde": True,
          "run_fk": False}, "grid too coarse"),
    ], ids=["mode", "mode_no_fk", "u0_site_dim", "rough_pde",
            "coarse_pde_only"])
    def test_solve_config_error_writes_nothing(self, tmp_path, capsys, data,
                                               text):
        cfg = write_config(tmp_path, hurst=0.5, step=0.125, horizon=1.0,
                           n_walks=10, **data)
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert text in capsys.readouterr().err
        assert not out.exists()

    def test_workers_flag_below_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, hurst=0.5, step=0.125, horizon=1.0,
                           n_walks=10)
        assert main(["solve", "--config", cfg, "--workers", "0",
                     "--out", str(tmp_path / "o")]) == 2
        assert "'workers'" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["generate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_experiment(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="warp_drive")
        assert main(["experiment", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "warp_drive" in capsys.readouterr().err


class TestWalk:
    def test_rows(self, tmp_path):
        cfg = write_config(tmp_path, kappa=2.0, horizon=1.0, dim=2,
                           n_samples=100, master_seed=4)
        out = str(tmp_path / "out")
        assert main(["walk", "--config", cfg, "--out", out]) == 0
        rows = read_data_rows(os.path.join(out, "walks.csv"))
        assert rows[0] == ["walk", "jump_index", "time", "x0", "x1"]
        first = rows[1]
        assert first[1] == "0" and float(first[2]) == 0.0


class TestSolve:
    def test_zero_noise_constant_mean_one(self, tmp_path):
        cfg = write_config(tmp_path, hurst=0.5, step=0.05, horizon=1.0,
                           kappa=1.0, noise=False, n_walks=50)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        rows = read_data_rows(os.path.join(out, "estimates.csv"))
        header, data = rows[0], rows[1]
        assert float(data[header.index("mean")]) == 1.0
        assert data[header.index("eps")] == "NA"

    def test_smooth_mode_with_pde(self, tmp_path):
        cfg = write_config(tmp_path, hurst=0.5, step=0.0125, horizon=1.0,
                           pad=0.1, kappa=1.0, epsilon=0.1, mode="smooth",
                           n_walks=100, master_seed=6, run_pde=True, radius=5)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "estimates.csv"))
        sol = read_data_rows(os.path.join(out, "solution.csv"))
        assert sol[0] == ["t", "x0", "u"]
        assert len(sol) == 1 + 11  # radius-5 box

    def test_worker_count_invariance(self, tmp_path):
        # 1300 walks are three blocks, the last one partial
        cfg = write_config(tmp_path, **dict(json.loads(README_CONFIG),
                                            n_walks=1300))
        outputs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            assert main(["solve", "--config", cfg, "--out", str(out),
                         "--workers", str(workers)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("estimates.csv", "solution.csv")])
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestKernelsCommand:
    def test_pass_verdict(self, tmp_path):
        cfg = write_config(tmp_path, epsilons=[0.125, 0.0625, 0.03125,
                                               0.015625])
        out = str(tmp_path / "out")
        assert main(["kernels", "--config", cfg, "--out", out]) == 0
        verdict = open(os.path.join(out, "kernel_sweep.verdict.txt")).read()
        assert verdict.startswith("PASS")


class TestExperimentCommand:
    def test_rate_sweep_pass(self, tmp_path):
        cfg = write_config(tmp_path, experiment="rate_sweep", hursts=[0.5],
                           epsilons=[0.125, 0.0625, 0.03125, 0.015625],
                           jump_counts=[0, 3], master_seed=1)
        out = str(tmp_path / "out")
        assert main(["experiment", "--config", cfg, "--out", out]) == 0
        verdict = open(os.path.join(out, "rate_sweep.verdict.txt")).read()
        assert verdict.startswith("PASS")

    def test_header_records_version_and_seed(self, tmp_path):
        cfg = write_config(tmp_path, experiment="rate_sweep", hursts=[0.5],
                           epsilons=[0.125, 0.0625, 0.03125, 0.015625],
                           jump_counts=[0], master_seed=77)
        out = str(tmp_path / "out")
        main(["experiment", "--config", cfg, "--out", out])
        head = open(os.path.join(out, "rate_sweep.csv")).readline()
        assert head.startswith("# pamfk version=")
        assert "master_seed=77" in head
        assert "config_hash=" in head


# validate runs u_eps -> u on this ladder, whatever the config's epsilons.
VALIDATE_UEPS_LADDER = [0.1, 0.05, 0.025, 0.0125]


@pytest.mark.parametrize("extra", [{}, {"epsilon": 0.125,
                                        "deltas": [0.2, 0.1, 0.05]}],
                         ids=["defaults", "epsilon_and_deltas"])
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_csv_equals_validate_csv(tmp_path, name, extra):
    """`experiment` and `validate` run a campaign with the same arguments.

    Both runs read one config file (the experiment key is part of the
    config hash in the CSV header), so their <name>.csv must be equal.
    """
    data = {**VALIDATE_CONFIG, **extra, "experiment": name}
    if name == "ueps_convergence":
        data["epsilons"] = VALIDATE_UEPS_LADDER
    cfg = write_config(tmp_path, **data)
    one, bundle = str(tmp_path / "one"), str(tmp_path / "bundle")
    main(["experiment", "--config", cfg, "--out", one])
    main(["validate", "--config", cfg, "--out", bundle])
    a = open(os.path.join(one, f"{name}.csv"), "rb").read()
    b = open(os.path.join(bundle, f"{name}.csv"), "rb").read()
    assert a == b


def test_readme_configs_load():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    blocks = re.findall(r"```json\n(.*?)```", open(readme).read(), re.S)
    assert len(blocks) >= 4
    for block in blocks:
        name = RunConfig(json.loads(block)).get("experiment")
        assert name is None or name in EXPERIMENTS


class TestNumericalFailures:
    """Numerical failures exit 1 with one `error:` line, not a traceback."""

    def _assert_exit_1(self, argv, capsys, text):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert text in err

    def test_clamp_error(self, tmp_path, capsys, monkeypatch):
        def clamped(*args, **kwargs):
            raise ClampError("3 exponent(s) hit the overflow clamp")
        monkeypatch.setattr(pamfk.cli, "estimate_quenched", clamped)
        cfg = write_config(tmp_path, hurst=0.5, step=0.05, horizon=1.0,
                           n_walks=10)
        self._assert_exit_1(["solve", "--config", cfg,
                             "--out", str(tmp_path / "o")], capsys, "clamp")

    def test_quadrature_error(self, tmp_path, capsys, monkeypatch):
        def diverges(spec):
            raise QuadratureError("adaptive Simpson failed to converge")
        monkeypatch.setitem(pamfk.cli.EXPERIMENTS, "kernel_sweep", diverges)
        cfg = write_config(tmp_path, epsilons=[0.125, 0.0625, 0.03125,
                                               0.015625])
        self._assert_exit_1(["kernels", "--config", cfg,
                             "--out", str(tmp_path / "o")], capsys,
                            "failed to converge")

    def test_ueps_weight_overflow(self, tmp_path, capsys):
        # W(1000) at H = 0.95 has sd ~708, so walks that never jump
        # (kappa 1e-6) overflow exp at the first few outer samples
        cfg = write_config(tmp_path, experiment="ueps_convergence",
                           hursts=[0.95], horizon=1000.0, kappa=1e-6,
                           epsilons=[0.8, 0.4, 0.2, 0.1], n_samples=100,
                           n_inner=1)
        self._assert_exit_1(["experiment", "--config", cfg,
                             "--out", str(tmp_path / "o")], capsys, "clamp")

    def test_linalg_error_is_not_a_config_error(self, tmp_path, capsys,
                                                monkeypatch):
        def not_psd(h, grid, seeds):
            raise np.linalg.LinAlgError("covariance matrix not positive "
                                        "definite")
        monkeypatch.setattr(pamfk.fbm, "sample_grid_paths", not_psd)
        cfg = write_config(tmp_path, hurst=0.5, step=0.125, horizon=1.0,
                           sites=[[0]])
        self._assert_exit_1(["generate", "--config", cfg,
                             "--out", str(tmp_path / "o")], capsys,
                            "positive definite")
