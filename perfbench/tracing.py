"""Span recorder for the traced benchmark run.

The recorder wraps pamfk's layer-boundary functions from the outside: it
replaces every module binding of each target (pamfk imports names
directly, so `pamfk.experiments.sample_walk_snapped` is a second binding
of `pamfk.fk.sample_walk_snapped`), records one span per call in flat
arrays, and restores the originals on exit.  Nothing inside pamfk is
edited.

A span is (name, start, end, parent) plus a work count and an ok flag.
A span's self time is its duration minus the durations of its direct
children; calls are synchronous and single-threaded, so children are
disjoint and nested inside their parent.

Helpers that a layer calls in its inner loop (reverse_view, the scalar
covariance kernels, the quadrature integrands) are deliberately not
wrapped: a span per integrand point would cost more than the work, and
their time belongs to the calling layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _one(args, kwargs, result):
    return 1


def _batch_rows(args, kwargs, result):
    return len(result[0])


def _grid_paths(args, kwargs, result):
    return len(result)


def _clamps(args, kwargs, result):
    return int(getattr(result, "clamps", 0))


def _segment_pairs(args, kwargs, result):
    """Computed count: sum over sites of (segments at that site) squared."""
    path = _arg(args, kwargs, 0, "path")
    per_site = Counter(site for _lo, _hi, site in path.segments())
    return sum(n * n for n in per_site.values())


def _site_steps(args, kwargs, result):
    """Computed count: box sites times solver time steps."""
    cfg = _arg(args, kwargs, 2, "cfg")
    domain = _arg(args, kwargs, 3, "domain")
    return int(np.prod(domain.shape)) * int(cfg.n_steps)


COUNTED = "counted-integrand"


@dataclass(frozen=True)
class Target:
    module: str
    attr: str           # "name" or "Class.method"
    layer: str
    work: Callable | str | None = None

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('pamfk.')}.{self.attr}"


TARGETS = (
    Target("pamfk.fbm", "sample_grid_path", "fbm", _one),
    Target("pamfk.fbm", "sample_grid_paths", "fbm", _grid_paths),
    Target("pamfk.fbm", "sample_at_times", "fbm", _one),
    Target("pamfk.walk", "sample_walk", "walk", _one),
    Target("pamfk.walk", "rough_stats", "walk", _one),
    Target("pamfk.fk", "sample_walk_snapped", "walk", _one),
    Target("pamfk.walk", "sample_poisson_jump_batch", "walk.batch",
           _batch_rows),
    Target("pamfk.walk", "rough_stats_batch", "walk.batch", _batch_rows),
    Target("pamfk.fk", "GridFunctionalEvaluator.rough", "fk", _one),
    Target("pamfk.fk", "GridFunctionalEvaluator.smooth", "fk", _one),
    Target("pamfk.fk", "rough_functional_exact", "fk", _one),
    Target("pamfk.fk", "rough_functional", "fk"),
    Target("pamfk.fk", "smooth_functional", "fk"),
    Target("pamfk.fk", "estimate_quenched", "fk", _clamps),
    Target("pamfk.fk", "estimate_annealed_moment", "fk"),
    Target("pamfk.fk", "annealed_mean_rough_oracle", "fk"),
    Target("pamfk.kernels", "prop41_variance", "kernels", _segment_pairs),
    Target("pamfk.kernels", "path_increment_variance", "kernels",
           _segment_pairs),
    Target("pamfk.kernels", "smooth_integral_variance", "kernels",
           _segment_pairs),
    Target("pamfk.kernels", "s2", "kernels"),
    Target("pamfk.kernels", "s3", "kernels"),
    Target("pamfk.kernels", "kernel_sweep_rows", "kernels"),
    Target("pamfk.quadrature", "adaptive_simpson", "quadrature", COUNTED),
    Target("pamfk.pde", "solve_mollified", "pde", _site_steps),
    Target("pamfk.pde", "richardson_check", "pde"),
    Target("pamfk.experiments", "run_rate_sweep", "experiments"),
    Target("pamfk.experiments", "run_ueps_convergence", "experiments"),
    Target("pamfk.experiments", "run_rough_tail", "experiments"),
    Target("pamfk.experiments", "run_fk_pde_crosscheck", "experiments"),
    Target("pamfk.experiments", "run_kernel_sweep", "experiments"),
    Target("pamfk.experiments", "fit_loglog", "experiments"),
    Target("pamfk.experiments", "fixed_jump_path", "experiments"),
    Target("pamfk.experiments", "write_report", "experiments"),
    Target("pamfk.cli", "main", "cli"),
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))


class SpanRecorder:
    """Flat in-memory span store; one row per wrapped call."""

    def __init__(self) -> None:
        self.names: list[str] = [t.name for t in TARGETS]
        self.layers: list[str] = [t.layer for t in TARGETS]
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.ok = array("b")
        self.stack: list[int] = []

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the columns as NumPy arrays."""
        return {"name_id": np.array(self.name_id, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float),
                "work": np.array(self.work, dtype=np.int64),
                "ok": np.array(self.ok, dtype=np.int8)}


def _span_wrapper(rec: SpanRecorder, fn, nid: int, work):
    names, parents, starts, ends = rec.name_id, rec.parent, rec.start, rec.end
    works, oks, stack = rec.work, rec.ok, rec.stack
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = len(names)
        names.append(nid)
        parents.append(stack[-1] if stack else -1)
        works.append(0)
        oks.append(0)
        ends.append(0.0)
        stack.append(i)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[i] = clock()
            stack.pop()
        oks[i] = 1
        if work is not None:
            works[i] = work(args, kwargs, result)
        return result
    return wrapper


def _quadrature_wrapper(rec: SpanRecorder, fn, nid: int):
    """Span wrapper that also counts integrand evaluations.

    Only the outermost quadrature call counts, so a recursive call that
    receives the already-counting integrand is not counted twice.
    """
    layers = rec.layers
    span = _span_wrapper(rec, fn, nid, None)

    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        stack = rec.stack
        if stack and layers[rec.name_id[stack[-1]]] == "quadrature":
            return span(f, *args, **kwargs)
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return f(x)
        i = len(rec.name_id)
        try:
            return span(counted, *args, **kwargs)
        finally:
            rec.work[i] = calls
    return wrapper


def _resolve(target: Target):
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None, None, None
    owner, attr = module, target.attr
    if "." in attr:
        cls_name, attr = attr.split(".", 1)
        owner = getattr(module, cls_name, None)
        if owner is None or attr not in vars(owner):
            return None, None, None
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else (None, None, None)


class Tracer:
    """Context manager that installs span wrappers and restores them.

    `installed` names the targets that exist in this version of pamfk;
    a metric whose targets are all missing is reported as absent.
    """

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.installed: set[str] = set()
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "pamfk" or n.startswith("pamfk.")) and m]
        for nid, target in enumerate(TARGETS):
            owner, attr, fn = _resolve(target)
            if fn is None:
                continue
            if target.work == COUNTED:
                wrapper = _quadrature_wrapper(self.recorder, fn, nid)
            else:
                wrapper = _span_wrapper(self.recorder, fn, nid, target.work)
            self.installed.add(target.name)
            if isinstance(owner, type):
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._undo.append((module, key, fn))
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is fn:
                                self._undo.append((value, k, fn))
                                value[k] = wrapper
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, fn in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._undo.clear()


# Per-layer metrics: name -> (unit, targets it needs, function of the
# aggregates).  A metric is absent when none of its targets is installed.
_WALK_DRAW = ("walk.sample_walk",)
_SNAPPED = ("fk.sample_walk_snapped",)
_DRAWS = ("fbm.sample_grid_path", "fbm.sample_grid_paths",
          "fbm.sample_at_times")
_BATCH = ("walk.sample_poisson_jump_batch", "walk.rough_stats_batch")
_EVALS = ("fk.GridFunctionalEvaluator.rough",
          "fk.GridFunctionalEvaluator.smooth", "fk.rough_functional_exact")
_SMOOTH = ("fk.GridFunctionalEvaluator.smooth",)
_ESTIMATE = ("fk.estimate_quenched",)
_VARIANCE = ("kernels.prop41_variance", "kernels.path_increment_variance",
             "kernels.smooth_integral_variance")
_QUAD = ("quadrature.adaptive_simpson",)
_SOLVE = ("pde.solve_mollified",)


def _layer_targets(layer):
    return tuple(t.name for t in TARGETS if t.layer == layer)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den > 0 else 0.0


PER_LAYER = {
    "fbm.path_draws": ("count", _DRAWS, lambda a: a.work(_DRAWS)),
    "fbm.busy_s": ("s", _DRAWS, lambda a: a.busy("fbm")),
    "fbm.draws_per_s": ("1/s", _DRAWS,
                        lambda a: _ratio(a.work(_DRAWS), a.busy("fbm"))),
    "fbm.draws_per_outer_sample": (
        "count", _DRAWS, lambda a: _ratio(a.work(_DRAWS), a.outer_samples)),
    "walk.draws": ("count", _WALK_DRAW, lambda a: a.count(_WALK_DRAW)),
    "walk.accepted": ("count", _SNAPPED, lambda a: a.ok(_SNAPPED)),
    "walk.accept_ratio": (
        "ratio", _SNAPPED + _WALK_DRAW,
        lambda a: _ratio(a.ok(_SNAPPED), a.count(_WALK_DRAW))),
    "walk.busy_s": ("s", _layer_targets("walk"), lambda a: a.busy("walk")),
    "walk.us_per_snapped_walk": (
        "us", _SNAPPED,
        lambda a: _ratio(a.duration(_SNAPPED), a.count(_SNAPPED), 1e6)),
    "walk.batch_paths": ("count", _BATCH, lambda a: a.work(_BATCH)),
    "walk.batch_busy_s": ("s", _BATCH, lambda a: a.busy("walk.batch")),
    "fk.evals": ("count", _EVALS, lambda a: a.count(_EVALS)),
    "fk.self_s": ("s", _layer_targets("fk"), lambda a: a.layer_self("fk")),
    "fk.evals_per_s": ("1/s", _EVALS,
                       lambda a: _ratio(a.count(_EVALS), a.self_time(_EVALS))),
    "fk.us_per_smooth_eval": (
        "us", _SMOOTH,
        lambda a: _ratio(a.self_time(_SMOOTH), a.count(_SMOOTH), 1e6)),
    "fk.clamps": ("count", _ESTIMATE, lambda a: a.work(_ESTIMATE)),
    "fk.estimate_self_s": ("s", _ESTIMATE, lambda a: a.self_time(_ESTIMATE)),
    "kernels.variance_calls": ("count", _VARIANCE,
                               lambda a: a.count(_VARIANCE)),
    "kernels.segment_pairs": ("count", _VARIANCE,
                              lambda a: a.work(_VARIANCE)),
    "kernels.self_s": ("s", _layer_targets("kernels"),
                       lambda a: a.layer_self("kernels")),
    "kernels.pairs_per_s": (
        "1/s", _VARIANCE,
        lambda a: _ratio(a.work(_VARIANCE), a.layer_self("kernels"))),
    "quadrature.calls": ("count", _QUAD, lambda a: a.count(_QUAD, True)),
    "quadrature.integrand_evals": ("count", _QUAD,
                                   lambda a: a.work(_QUAD, True)),
    "quadrature.self_s": ("s", _QUAD, lambda a: a.layer_self("quadrature")),
    "pde.solves": ("count", _SOLVE, lambda a: a.count(_SOLVE)),
    "pde.site_steps": ("count", _SOLVE, lambda a: a.work(_SOLVE)),
    "pde.self_s": ("s", _layer_targets("pde"),
                   lambda a: a.layer_self("pde")),
    "pde.site_steps_per_s": (
        "1/s", _SOLVE, lambda a: _ratio(a.work(_SOLVE), a.self_time(_SOLVE))),
    "experiments.self_s": ("s", _layer_targets("experiments"),
                           lambda a: a.layer_self("experiments")),
    "cli.self_s": ("s", _layer_targets("cli"),
                   lambda a: a.layer_self("cli")),
}


class Aggregates:
    """Per-name and per-layer sums over one recorder's spans."""

    def __init__(self, rec: SpanRecorder, outer_samples: int) -> None:
        self.outer_samples = outer_samples
        a = rec.arrays()
        n_names = len(rec.names)
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        layer_idx = {layer: i for i, layer in enumerate(LAYERS)}
        name_layer = np.array([layer_idx[layer] for layer in rec.layers])
        span_layer = name_layer[nid]
        parent_layer = np.full(len(nid), -1)
        parent_layer[has_parent] = span_layer[parent[has_parent]]
        outer = parent_layer != span_layer

        def per_name(weights=None, mask=None):
            sel = np.ones(len(nid), bool) if mask is None else mask
            w = None if weights is None else weights[sel]
            return np.bincount(nid[sel], weights=w, minlength=n_names)

        self._index = {name: i for i, name in enumerate(rec.names)}
        self._count = per_name()
        self._ok = per_name(mask=a["ok"] == 1)
        self._work = per_name(a["work"].astype(float))
        self._self = per_name(self_t)
        self._dur = per_name(dur)
        self._outer_count = per_name(mask=outer)
        self._outer_work = per_name(a["work"].astype(float), outer)
        self._layer_self = np.bincount(span_layer, weights=self_t,
                                       minlength=len(LAYERS))
        self._layer_busy = np.bincount(span_layer[outer], weights=dur[outer],
                                       minlength=len(LAYERS))
        self._layer_idx = layer_idx
        self.total_self = float(self_t.sum())

    def _sum(self, arr, names):
        return float(sum(arr[self._index[n]] for n in names))

    def count(self, names, outer=False):
        return int(self._sum(self._outer_count if outer else self._count,
                             names))

    def ok(self, names):
        return int(self._sum(self._ok, names))

    def work(self, names, outer=False):
        return int(self._sum(self._outer_work if outer else self._work, names))

    def self_time(self, names):
        return self._sum(self._self, names)

    def duration(self, names):
        return self._sum(self._dur, names)

    def layer_self(self, layer):
        return float(self._layer_self[self._layer_idx[layer]])

    def busy(self, layer):
        return float(self._layer_busy[self._layer_idx[layer]])


def summarize(tracer: Tracer, outer_samples: int
              ) -> tuple[dict[str, float], float]:
    """One traced unit: every per-layer metric whose targets are installed,
    and the sum of all self times, which cannot exceed the unit's wall."""
    agg = Aggregates(tracer.recorder, outer_samples)
    metrics = {name: fn(agg) for name, (_unit, deps, fn) in PER_LAYER.items()
               if any(d in tracer.installed for d in deps)}
    return metrics, agg.total_self


def save_spans(path: str, tracers: list[Tracer]) -> None:
    """Write every traced unit's spans, tagged by unit index, as .npz."""
    parts = [t.recorder.arrays() for t in tracers]
    offsets = np.cumsum([0] + [len(p["name_id"]) for p in parts[:-1]])
    merged = {key: np.concatenate([p[key] for p in parts])
              for key in parts[0]}
    merged["parent"] = np.concatenate(
        [np.where(p["parent"] >= 0, p["parent"] + off, -1)
         for p, off in zip(parts, offsets)])
    merged["unit"] = np.concatenate(
        [np.full(len(p["name_id"]), i) for i, p in enumerate(parts)])
    np.savez_compressed(path, names=np.array(tracers[0].recorder.names),
                        layers=np.array(tracers[0].recorder.layers), **merged)
