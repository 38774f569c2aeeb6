#!/usr/bin/env python3
"""pamfk benchmark.

One run measures one workload for up to --seconds seconds and prints, as
the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones, taken from a
traced run that alternates untraced and traced units on the same inputs.

    python3 perfbench/run.py --workload solve_readme --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25   # every workload, both modes

The program is imported from ./src of the checkout that holds this
directory; the run stops with an error if it is not there.  See
perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
MIN_UNITS = 2  # two inputs at least, for the gates that pool a run's units
SUBPROCESS_TIMEOUT_S = 170


def load_program():
    """Import pamfk from this checkout's sources, never from elsewhere."""
    package = os.path.join(SRC, "pamfk")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"error: pamfk sources not found at {package}")
    sys.path.insert(0, SRC)
    import pamfk
    if os.path.dirname(os.path.abspath(pamfk.__file__)) != package:
        sys.exit(f"error: imported pamfk from {pamfk.__file__}, "
                 f"expected {package}")
    return pamfk


def setup_probe(name: str) -> float:
    """Import plus warm-up, timed inside a fresh interpreter."""
    t0 = time.perf_counter()
    load_program()
    import workloads
    wl = workloads.make(name, workdir=OUT)
    try:
        wl.warm()
    finally:
        wl.close()
    return time.perf_counter() - t0


def measure_setup(name: str, probes: int) -> float:
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", name],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timed_unit(wl, inputs, checks, log, tracer=None):
    """Run one unit, traced if a tracer is given, then its untimed gate.

    Returns the unit's wall time.
    """
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            output, error = wl.unit(inputs), None
        except Exception:
            output, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
    if error is None:
        try:
            checks.append(wl.check(inputs, output))
            return wall
        except Exception:
            error = traceback.format_exc()
    log(error)
    checks.append({"ok": False})
    return wall


def measure(wl, seed: int, seconds: float, trace: bool,
            setup_probes: int = SETUP_PROBES, log=None) -> dict:
    """Measure one workload; returns the result object the run prints."""
    import tracing
    log = log or (lambda msg: print(msg, file=sys.stderr))
    setup_s = (measure_setup(wl.name, setup_probes) if not trace
               and setup_probes else None)
    wl.warm()
    # Each CPU of a shared host drifts in speed on its own, so a
    # single-process workload spreads its units over the CPUs in turn.
    cpus = sorted(os.sched_getaffinity(0))
    rotate = wl.single_process and len(cpus) > 1
    checks: list[dict] = []
    walls, traced_walls, unit_metrics, tracers = [], [], [], []
    self_time_ok = True
    # A unit starts only if a typical unit would end by the deadline, so a
    # run measures at most --seconds; it always has MIN_UNITS units.
    start = time.perf_counter()
    durations = []
    index = 0
    while True:
        began = time.perf_counter()
        if rotate:
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        inputs = wl.inputs(seed, index)
        walls.append(_timed_unit(wl, inputs, checks, log))
        if trace:
            tracer = tracing.Tracer()
            wall = _timed_unit(wl, inputs, checks, log, tracer)
            traced_walls.append(wall)
            tracers.append(tracer)
            layer, total_self = tracing.summarize(tracer,
                                                  wl.outer_samples(inputs))
            unit_metrics.append(layer)
            self_time_ok &= total_self <= wall
        index += 1
        now = time.perf_counter()
        durations.append(now - began)
        if (index >= MIN_UNITS
                and now - start + statistics.median(durations) > seconds):
            break
    if rotate:
        os.sched_setaffinity(0, cpus)
    failed = wl.failures(checks)
    for line in wl.info(checks):
        log(f"{wl.name}: {line}")
    correct = failed == 0
    if trace:
        metrics = _per_layer(unit_metrics, traced_walls, walls)
        if not self_time_ok:
            log(f"{wl.name}: layer self times exceed the traced unit's wall")
        correct = correct and self_time_ok
        os.makedirs(OUT, exist_ok=True)
        tracing.save_spans(os.path.join(OUT, f"spans-{wl.name}.npz"), tracers)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": _metric(statistics.median(walls), "s"),
                   "setup_s": _metric(setup_s, "s"),
                   "peak_rss_mb": _metric(rss_mb, "MB")}
    log(f"{wl.name}: {len(checks)} units, {failed} failed, inputs "
        f"{wl.fingerprint(wl.inputs(seed, 0))}, unit walls "
        + " ".join(f"{w:.4f}" for w in walls))
    return {"correct": correct, "attempted": len(checks), "failed": failed,
            "metrics": metrics}


def _per_layer(unit_metrics, traced_walls, walls):
    """Counts of traced unit 0, so they repeat exactly for one seed; the
    median over traced units for times and rates."""
    import tracing
    metrics = {}
    for name, (unit, _deps, _fn) in tracing.PER_LAYER.items():
        if name not in unit_metrics[0]:
            continue  # absent: none of its targets exists in this pamfk
        values = [m[name] for m in unit_metrics]
        value = values[0] if unit == "count" else statistics.median(values)
        metrics[name] = _metric(value, unit)
    overhead = statistics.median(traced_walls) / statistics.median(walls) - 1
    metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
    return metrics


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def run_all(seed: int, seconds: int, baseline: str | None) -> int:
    """Every workload in both modes, each in its own process; a table."""
    import workloads
    results = {}
    for name in workloads.NAMES:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload",
                    name, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                return 1
            results[(name, trace)] = json.loads(
                proc.stdout.strip().splitlines()[-1])

    def value(name, trace, metric):
        metrics = results[(name, trace)]["metrics"]
        return metrics[metric]["value"] if metric in metrics else None

    def cell(x, width, fmt):
        return f"{'' if x is None else format(x, fmt):>{width}}"

    print(f"{'workload':<18}{'wall_s':>10}{'wall_w2_s':>11}{'setup_s':>10}"
          f"{'peak_rss_mb':>13}{'failed_frac':>13}")
    for name in workloads.NAMES:
        res = results[(name, 0)]
        w2 = (value("solve_readme_w2", 0, "wall_s")
              if name == "solve_readme" else None)
        print(f"{name:<18}{cell(value(name, 0, 'wall_s'), 10, '.4f')}"
              f"{cell(w2, 11, '.4f')}"
              f"{cell(value(name, 0, 'setup_s'), 10, '.4f')}"
              f"{cell(value(name, 0, 'peak_rss_mb'), 13, '.1f')}"
              f"{cell(res['failed'] / res['attempted'], 13, '.4f')}")
    print("\nper-layer (traced run):")
    print(f"{'metric':<30}{'unit':>7}"
          + "".join(f"{n:>18}" for n in workloads.NAMES))
    import tracing
    rows = [(m, unit) for m, (unit, _deps, _fn) in tracing.PER_LAYER.items()]
    for metric, unit in rows + [("trace.overhead_frac", "ratio")]:
        print(f"{metric:<30}{unit:>7}" + "".join(
            cell(value(n, 1, metric), 18, ".6g") for n in workloads.NAMES))
    if baseline:
        record = {
            "machine": machine_info(), "seed": seed, "seconds": seconds,
            "roadmap_figures": {
                "us_per_sample_walk_snapped":
                    value("solve_readme", 1, "walk.us_per_snapped_walk"),
                "us_per_smooth_eval":
                    value("solve_readme", 1, "fk.us_per_smooth_eval"),
                "fbm_draws_per_outer_sample":
                    value("ueps_annealed", 1, "fbm.draws_per_outer_sample")},
            "workloads": {n: {"end_to_end": results[(n, 0)],
                              "per_layer": results[(n, 1)]}
                          for n in workloads.NAMES}}
        with open(baseline, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in both modes and print a "
                             "table")
    parser.add_argument("--baseline", help="with --all: also write the "
                        "results and machine info to this JSON file")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the harness smoke test only")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_probe:
        print(setup_probe(args.setup_probe))
        return 0
    load_program()
    import workloads
    if args.all:
        return run_all(args.seed, int(args.seconds), args.baseline)
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    wl = workloads.make(args.workload, tiny=args.tiny, workdir=OUT)
    try:
        result = measure(wl, args.seed, args.seconds, bool(args.trace),
                         setup_probes=1 if args.tiny else SETUP_PROBES)
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
