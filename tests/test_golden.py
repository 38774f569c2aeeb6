"""Golden regression hashes for the Monte Carlo hot paths.

The first four digests are the sha256 of outputs recorded with the
per-walk scalar evaluator, before walk blocks were evaluated by batch
gathers.  The validate digest was recorded before the CLI dispatchers,
the CSV writers and the segment-pair loops were merged.  The kernels
digest pins the closed forms and the exact mode; it was recorded before
adaptive_simpson started to bisect every piece MIN_DEPTH times, a
deliberate change of the quadrature oracle's values that the
kernels_quad digest pins from then on.
Any optimisation or refactor of the field, walk, kernel, evaluator or
CLI layers must reproduce these bytes exactly: the estimators promise
bitwise determinism given their seeds, so a changed digest is a changed
result.

Regenerate a digest only for a deliberate change of the numbers (new seed
derivation, new sampling law), never to absorb a performance refactor.
"""

import hashlib
import json
import os

from pamfk.cli import main as cli_main
from pamfk.experiments import SweepSpec, run_ueps_convergence, write_report
from pamfk.fbm import HurstField, HurstParameter, TimeGrid
from pamfk.fk import (InitialCondition, estimate_quenched,
                      rough_functional_exact)
from pamfk.kernels import (path_increment_variance, prop41_variance,
                           smooth_integral_variance)
from pamfk.walk import WalkConfig, sample_walk

GOLDEN = {
    "ueps_rows":
        "f5ccb6c9479fb7214dd8f4d4300061e6004db43728fbc84f9f21e707cb1e68b0",
    "quenched":
        "60d5fec501e86e72ab909957ea88178ed2e36896145a0af7e922770c138e617d",
    "solve_estimates":
        "f8eb993741c2e6bedf8c9ec12f76dbb815f1107457a0a5d9012a81256f5267ed",
    "solve_solution":
        "64ed4aeef793df2f2932b7cce6115d9d2073dfcc8f998b7f9d226b9e51da0d2c",
    "validate":
        "81c65c263532c1be834af13cd16f1972b63fb37f4ba450a60d4c2ad0cdc39473",
    "kernels":
        "06801d89c752feb9821f519a84b0bcfa1ea7bd852c54af626e9e3637d1c4b084",
    "kernels_quad":
        "3969cf71352cba1fd7a6410369899d5af52419ddc44625f1f285f1b147c3f3fe",
}

README_CONFIG = ('{"hurst": 0.5, "step": 0.0125, "horizon": 1.0, '
                 '"pad": 0.1, "kappa": 1.0, "epsilon": 0.1, '
                 '"mode": "smooth", "n_walks": 400, "master_seed": 6, '
                 '"run_pde": true}')

# The criterion-11 config of tests/test_acceptance.py.
VALIDATE_CONFIG = {"hursts": [0.5], "epsilons": [0.25, 0.125, 0.0625, 0.03125],
                   "horizon": 1.0, "kappa": 1.0, "n_samples": 100,
                   "n_inner": 10, "n_realizations": 2, "n_walks": 300,
                   "master_seed": 3}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ueps_digest(tmp_dir: str) -> str:
    spec = SweepSpec(hursts=(0.25, 0.75),
                     epsilons=(0.1, 0.05, 0.025, 0.0125),
                     n_samples=100, n_inner=10, master_seed=0)
    csv_path, _ = write_report(run_ueps_convergence(spec), tmp_dir)
    with open(csv_path, "rb") as fh:
        return _sha(fh.read())


def quenched_digest() -> str:
    grid = TimeGrid(0.0125, 1.0, pad=0.1)
    field = HurstField(HurstParameter(0.4), grid, 3)
    cfg = WalkConfig(1, 1.0, 1.0)
    ic = InitialCondition.constant()
    parts = []
    for mode, eps in (("rough", None), ("smooth", 0.1)):
        est = estimate_quenched(cfg, ic, field, epsilon=eps,
                                n_walks=500, seed=11)
        parts.append(f"{mode} {est.mean!r} {est.stderr!r}")
    return _sha("\n".join(parts).encode())


def solve_digests(tmp_dir: str) -> tuple[str, str]:
    cfg_path = os.path.join(tmp_dir, "cfg.json")
    with open(cfg_path, "w") as fh:
        fh.write(README_CONFIG)
    out = os.path.join(tmp_dir, "out")
    assert cli_main(["solve", "--config", cfg_path, "--out", out]) == 0
    digests = []
    for name in ("estimates.csv", "solution.csv"):
        with open(os.path.join(out, name), "rb") as fh:
            digests.append(_sha(fh.read()))
    return digests[0], digests[1]


def validate_digest(tmp_dir: str) -> str:
    """Digest of every file `pamfk validate` writes, keyed by file name."""
    cfg_path = os.path.join(tmp_dir, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(VALIDATE_CONFIG, fh)
    out = os.path.join(tmp_dir, "validate")
    cli_main(["validate", "--config", cfg_path, "--out", out])
    names = sorted(os.listdir(out))
    assert len(names) == 10
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def _kernel_walks():
    """Seeded walks in d = 1 and d = 2 with their walk seed index."""
    for dim in (1, 2):
        cfg = WalkConfig(dim, 3.0, 1.0)
        for seed in range(4):
            yield seed, sample_walk(cfg, 100 * dim + seed)


def kernels_digest() -> str:
    """Closed-form per-path variances and exact-mode rough exponents on
    seeded walks in d = 1 and d = 2."""
    parts = []
    for seed, path in _kernel_walks():
        for hv in (0.25, 0.5, 0.75):
            h = HurstParameter(hv)
            parts.append(repr(path_increment_variance(path, h)))
            parts.append(repr(rough_functional_exact(path, h, seed)))
            for eps in (0.125, 0.03125):
                parts.append(repr(prop41_variance(path, h, eps)))
                parts.append(repr(smooth_integral_variance(path, h, eps)))
    return _sha("\n".join(parts).encode())


def kernels_quad_digest() -> str:
    """The quadrature-oracle subset of the same variances."""
    parts = []
    for seed, path in _kernel_walks():
        if seed:
            continue
        for hv in (0.25, 0.5, 0.75):
            h = HurstParameter(hv)
            parts.append(repr(prop41_variance(path, h, 0.125, method="quad")))
            parts.append(repr(smooth_integral_variance(path, h, 0.125,
                                                       method="quad")))
    return _sha("\n".join(parts).encode())


def test_ueps_rows_golden(tmp_path):
    assert ueps_digest(str(tmp_path)) == GOLDEN["ueps_rows"]


def test_quenched_golden():
    assert quenched_digest() == GOLDEN["quenched"]


def test_solve_readme_golden(tmp_path):
    est, sol = solve_digests(str(tmp_path))
    assert est == GOLDEN["solve_estimates"]
    assert sol == GOLDEN["solve_solution"]


def test_validate_golden(tmp_path):
    assert validate_digest(str(tmp_path)) == GOLDEN["validate"]


def test_kernels_golden():
    assert kernels_digest() == GOLDEN["kernels"]


def test_kernels_quad_golden():
    assert kernels_quad_digest() == GOLDEN["kernels_quad"]
