"""The benchmark's workloads: inputs from a seed, one timed unit, gates.

A unit is one fixed-size piece of work through pamfk's public entry
points (`cli.main`, `experiments.run_*`, `kernels.prop41_variance`,
`walk.sample_poisson_jump_batch`).  The benchmark never copies their
loops, so a change inside an entry point shows up in the unit's time.
Each unit's inputs come from (seed, unit index) only; the gates run
after the timed call and do not count towards its time.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import tempfile

import numpy as np

from pamfk import cli, experiments, kernels, walk
from pamfk.fbm import HurstField, HurstParameter, TimeGrid
from pamfk.fk import InitialCondition
from pamfk.pde import BoxDomain, SolverConfig, default_radius, richardson_check


def unit_rng(seed: int, index: int) -> np.random.Generator:
    """The benchmark's own stream for one unit's inputs."""
    return np.random.default_rng([seed, index])


class Workload:
    name = ""
    single_process = True

    def inputs(self, seed: int, index: int) -> dict:
        raise NotImplementedError

    def fingerprint(self, inputs: dict) -> str:
        h = hashlib.sha256()
        for key in sorted(inputs):
            value = inputs[key]
            h.update(key.encode())
            h.update(value.tobytes() if isinstance(value, np.ndarray)
                     else repr(value).encode())
        return h.hexdigest()[:16]

    def unit(self, inputs: dict):
        raise NotImplementedError

    def check(self, inputs: dict, output) -> dict:
        """Per-unit gate, run untimed; must set "ok"."""
        raise NotImplementedError

    def failures(self, checks: list[dict]) -> int:
        """Units that failed their gate."""
        return sum(not c["ok"] for c in checks)

    def warm(self) -> None:
        """Set-up before timing: a tiny call through the same entry points."""
        raise NotImplementedError

    def outer_samples(self, inputs: dict) -> int:
        """Noise realizations one unit draws (0 when it uses no noise)."""
        return 0

    def info(self, checks: list[dict]) -> list[str]:
        return []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- solve

README_CONFIG = {"hurst": 0.5, "step": 0.0125, "horizon": 1.0, "pad": 0.1,
                 "kappa": 1.0, "epsilon": 0.1, "mode": "smooth",
                 "n_walks": 4000, "master_seed": 6, "run_pde": True}

# Criterion 06 allows 5% of FK/PDE checks to miss.  A run holds about 50
# calls, too few to apply "at most 5%" literally: at the measured miss rate
# of about 1% a literal gate fails about one run in seventy by chance.  The
# run fails when its miss count is significantly above 5% instead.
MISS_RATE = 0.05
MISS_ALPHA = 0.01


def _binomial_tail(n: int, k: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, j) * p ** j * (1 - p) ** (n - j)
               for j in range(k, n + 1))


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


class SolveReadme(Workload):
    """Repeated in-process `pamfk solve` calls at the README config."""

    def __init__(self, workers: int = 1, tiny: bool = False,
                 workdir: str | None = None) -> None:
        self.workers = workers
        self.single_process = workers == 1
        self.name = ("solve_readme" if workers == 1
                     else f"solve_readme_w{workers}")
        self.config = dict(README_CONFIG, n_walks=40 if tiny else 4000)
        if workdir:
            os.makedirs(workdir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=workdir)
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)

    def inputs(self, seed, index):
        return {"master_seed": int(unit_rng(seed, index).integers(2 ** 31))}

    def unit(self, inputs):
        return cli.main(["solve", "--config", self.config_path, "--out",
                         self.dir, "--seed", str(inputs["master_seed"]),
                         "--workers", str(self.workers)])

    def check(self, inputs, exit_code):
        if exit_code != 0:
            return {"ok": False}
        c = self.config
        outputs = [os.path.join(self.dir, f)
                   for f in ("estimates.csv", "solution.csv")]
        est = _read_csv(outputs[0])[0]
        u_pde = next(float(r["u"]) for r in _read_csv(outputs[1])
                     if r["x0"] == "0")
        for path in outputs:  # the next call must not see stale files
            os.remove(path)
        mean, stderr = float(est["mean"]), float(est["stderr"])
        grid = TimeGrid(c["step"], c["horizon"], c["pad"])
        field = HurstField(HurstParameter(c["hurst"]), grid,
                           inputs["master_seed"]).freeze()
        scfg = SolverConfig(min(c["step"], 0.25 / c["kappa"]), c["kappa"],
                            grid, c["epsilon"])
        domain = BoxDomain(1, default_radius(c["kappa"], c["horizon"]))
        rich = richardson_check(InitialCondition.constant(1.0), field, scfg,
                                domain, (0,))
        tol = 3.0 * stderr + rich
        hard = (int(est["clamps"]) == 0
                and all(map(math.isfinite, (mean, stderr, u_pde, rich))))
        return {"ok": hard, "within": abs(mean - u_pde) <= tol,
                "gap_over_tol": abs(mean - u_pde) / tol}

    def failures(self, checks):
        hard = sum(not c["ok"] for c in checks)
        misses = sum(c["ok"] and not c["within"] for c in checks)
        if _binomial_tail(len(checks), misses, MISS_RATE) < MISS_ALPHA:
            return hard + misses
        return hard

    def info(self, checks):
        misses = sum(not c["within"] for c in checks if c["ok"])
        worst = max((c["gap_over_tol"] for c in checks if c["ok"]),
                    default=0.0)
        return [f"fk/pde agreement: {misses} of {len(checks)} calls outside "
                f"3*stderr + richardson (worst {worst:.3f} x tol); criterion "
                f"06 allows {MISS_RATE:.0%}"]

    def warm(self):
        tiny = dict(self.config, n_walks=8)
        path = os.path.join(self.dir, "warm.json")
        with open(path, "w") as fh:
            json.dump(tiny, fh)
        cli.main(["solve", "--config", path, "--out",
                  os.path.join(self.dir, "warm")])

    def outer_samples(self, inputs):
        return 1

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ----------------------------------------------------------------- ueps

UEPS_EPSILONS = (0.1, 0.05, 0.025, 0.0125)
UEPS_HURSTS = (0.25, 0.75)


class UepsAnnealed(Workload):
    """`run_ueps_convergence` in the criterion-07 shape."""

    name = "ueps_annealed"

    def __init__(self, tiny: bool = False) -> None:
        self.n_samples = 100
        self.n_inner = 2 if tiny else 100

    def _spec(self, master_seed, n_inner):
        return experiments.SweepSpec(hursts=UEPS_HURSTS,
                                     epsilons=UEPS_EPSILONS,
                                     n_samples=self.n_samples,
                                     n_inner=n_inner,
                                     master_seed=master_seed)

    def inputs(self, seed, index):
        return {"master_seed": int(unit_rng(seed, index).integers(2 ** 31))}

    def unit(self, inputs):
        return experiments.run_ueps_convergence(
            self._spec(inputs["master_seed"], self.n_inner))

    def check(self, inputs, report):
        finite = all(math.isfinite(float(row[k])) for row in report.rows
                     for k in ("mean_sq_diff", "stderr", "slope"))
        means = {hv: [r["mean_sq_diff"] for r in report.rows if r["H"] == hv]
                 for hv in UEPS_HURSTS}
        return {"ok": finite, "means": means}

    @staticmethod
    def _slope(means):
        return float(np.polyfit(np.log(UEPS_EPSILONS), np.log(means), 1)[0])

    def _pooled(self, checks):
        """Per-H column averaged over the run's units (equal sample sizes)."""
        cols = [c["means"] for c in checks if c["ok"]]
        return {hv: np.mean([col[hv] for col in cols], axis=0)
                for hv in UEPS_HURSTS} if cols else {}

    def failures(self, checks):
        # Criterion 07 fits its slope on 300 outer samples; one unit has
        # 100, so the slope clause is applied to the run's pooled column.
        pooled = self._pooled(checks)
        if not pooled or any(self._slope(pooled[hv]) < min(2 * hv, 1.0) - 0.2
                             for hv in UEPS_HURSTS):
            return len(checks)
        return sum(not c["ok"] for c in checks)

    def info(self, checks):
        pooled = self._pooled(checks)
        lines = []
        for hv, col in pooled.items():
            units = [self._slope(c["means"][hv]) for c in checks if c["ok"]]
            lines.append(
                f"H={hv}: pooled slope {self._slope(col):.3f} (gate >= "
                f"{min(2 * hv, 1.0) - 0.2:.2f}; per unit {min(units):.3f} to "
                f"{max(units):.3f}); pooled final < first/4: "
                f"{bool(col[-1] < col[0] / 4)} (not gated)")
        return lines

    def warm(self):
        experiments.run_ueps_convergence(self._spec(0, 1))

    def outer_samples(self, inputs):
        return self.n_samples * len(UEPS_HURSTS)


# ------------------------------------------------------------ path laws

PATH_KAPPA = 4.0
PATH_HURSTS = (0.25, 0.5, 0.75)
PATH_EPSILONS = tuple(2.0 ** -k for k in range(3, 10))
QUAD_EPSILONS = (2.0 ** -3, 2.0 ** -6, 2.0 ** -9)
TAIL_DELTAS = (0.1, 0.05, 0.025)
MAX_STEPS = 64
QUAD_TOLERANCE = 1e-7


class PathLaws(Workload):
    """Noise-free path laws: prop41_variance ladder and rough-tail stats."""

    name = "path_laws"

    def __init__(self, tiny: bool = False) -> None:
        self.n_paths = 6 if tiny else 200
        self.n_quad = 1 if tiny else 4
        self.n_tail = 1000 if tiny else 100_000

    def inputs(self, seed, index):
        rng = unit_rng(seed, index)
        return {"batch_seed": int(rng.integers(2 ** 62)),
                "steps": rng.integers(0, 2, size=(self.n_paths, MAX_STEPS),
                                      dtype=np.int8) * 2 - 1,
                "tail_seed": int(rng.integers(2 ** 31))}

    def _paths(self, counts, flat, steps):
        offsets = np.concatenate([[0], np.cumsum(counts)])
        paths = []
        for i, n in enumerate(counts):
            if n > MAX_STEPS:
                raise ValueError(f"path {i} has {n} jumps > {MAX_STEPS}")
            sites = np.concatenate([[0], np.cumsum(steps[i, :n])])
            paths.append(walk.WalkPath(
                1.0, tuple(flat[offsets[i]:offsets[i + 1]].tolist()),
                tuple((int(s),) for s in sites)))
        return paths

    def _run(self, inputs, n_paths, n_quad, n_tail):
        counts, flat = walk.sample_poisson_jump_batch(
            PATH_KAPPA, 1.0, n_paths, inputs["batch_seed"])
        paths = self._paths(counts, flat, inputs["steps"])
        hursts = [HurstParameter(hv) for hv in PATH_HURSTS]
        closed = np.array([[[kernels.prop41_variance(p, h, eps)
                             for eps in PATH_EPSILONS] for h in hursts]
                           for p in paths])
        quad = [(i, j, eps, kernels.prop41_variance(paths[i], h, eps,
                                                    method="quad"))
                for i in range(n_quad) for j, h in enumerate(hursts)
                for eps in QUAD_EPSILONS]
        stats = [walk.rough_stats_batch(counts, flat, d) for d in TAIL_DELTAS]
        tail = experiments.run_rough_tail(
            experiments.SweepSpec(kappa=PATH_KAPPA, n_samples=n_tail,
                                  master_seed=inputs["tail_seed"]),
            TAIL_DELTAS)
        return {"closed": closed, "quad": quad, "stats": stats, "tail": tail}

    def unit(self, inputs):
        return self._run(inputs, self.n_paths, self.n_quad, self.n_tail)

    def check(self, inputs, out):
        closed = out["closed"]
        misses = [(i, PATH_HURSTS[j], eps,
                   abs(q - closed[i, j, PATH_EPSILONS.index(eps)]))
                  for i, j, eps, q in out["quad"]]
        misses = [m for m in misses if not m[3] <= QUAD_TOLERANCE]
        invariants = all(np.all(k <= r) and np.all(length <= r * d)
                         for d, (r, length, k) in zip(TAIL_DELTAS,
                                                      out["stats"]))
        tail_finite = all(math.isfinite(float(v)) for row in out["tail"].rows
                          for v in row.values())
        ok = (bool(np.all(np.isfinite(closed))) and not misses
              and bool(invariants) and tail_finite)
        return {"ok": ok, "quad_calls": len(out["quad"]),
                "quad_misses": misses, "tail_passed": out["tail"].passed}

    def info(self, checks):
        lines = [f"closed vs quad beyond {QUAD_TOLERANCE:g}: walk {i} H={h} "
                 f"eps={eps:g} gap {gap:.3g}" for c in checks
                 for i, h, eps, gap in c.get("quad_misses", ())]
        calls = sum(c.get("quad_calls", 0) for c in checks)
        misses = sum(len(c.get("quad_misses", ())) for c in checks)
        stable = sum(c.get("tail_passed", False) for c in checks)
        return lines + [f"closed vs quad: {misses} of {calls} quad calls "
                        f"beyond {QUAD_TOLERANCE:g}; rough_tail verdict PASS "
                        f"in {stable} of {len(checks)} units (not gated)"]

    def warm(self):
        rng = unit_rng(0, 0)
        inputs = {"batch_seed": 0, "steps": rng.integers(
            0, 2, size=(2, MAX_STEPS), dtype=np.int8) * 2 - 1, "tail_seed": 0}
        self._run(inputs, 2, 0, 100)


def make(name: str, tiny: bool = False, workdir: str | None = None
         ) -> Workload:
    if name == "solve_readme":
        return SolveReadme(1, tiny, workdir)
    if name == "solve_readme_w2":
        return SolveReadme(2, tiny, workdir)
    if name == "ueps_annealed":
        return UepsAnnealed(tiny)
    if name == "path_laws":
        return PathLaws(tiny)
    raise KeyError(name)


NAMES = ("solve_readme", "solve_readme_w2", "ueps_annealed", "path_laws")
