"""Benchmark runner: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep63 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Set-up (import, instance generation, warm-up) is repeated and
its median reported as ``setup_s``. The timed phase then runs the
workload's fixed operation list round after round until ``--seconds`` have
passed (at least one whole round), with the lru caches cleared before
every operation, so no timed call is served from a cache. An operation's
time is its fastest round: on a shared host the same work read up to twice
as slow for stretches of seconds, and the fastest of several rounds spread
over the run is the reading least disturbed by that. Rounds after the
first alternate between the CPUs the process may use. Throughput is the
operations of one round over the sum of those times.

With ``--trace 1`` the list runs one round untraced, then one round with
span wrappers around the public functions of every layer, then the
workload's costlier full check, and the run prints per-layer metrics
instead. The last line of standard output is the JSON result; the lines
before it print every metric by name with its unit. See DESIGN.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from tracing import ROUTES, WRAPPED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "bergepaths"
LAYERS = ("hypergraph", "search", "weights", "goodsets", "verify")
SETUP_REPEATS = 9
TRACE_DIR = ROOT / ".perfbench"
# the lru caches whose hit ratios the traced run reports (0 once one is gone)
CACHED = (
    "search._adjacency",
    "search.longest_path_length_cached",
    "search.edge_p_values",
    "search.max_p_edge_mask",
)


def import_package() -> SimpleNamespace:
    """A fresh import of the package: every module of it is executed again."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(**{layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS})


def lru_caches(mods) -> dict:
    """Every lru-cached function defined in a layer, by dotted name."""
    found = {}
    for layer in LAYERS:
        module = getattr(mods, layer)
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__:
                found[f"{layer}.{attr}"] = value
    return found


def setup(workload_cls, seed: int, tiny: bool):
    mods = import_package()
    workload = workload_cls(mods, seed, tiny)
    ops = workload.build()
    workload.warm_up()
    return workload, ops


class Runner:
    def __init__(self, workload, ops, caches):
        self.workload = workload
        self.ops = ops
        self.caches = caches
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.cache_totals = {name: [0, 0] for name in caches}

    def _execute(self, index: int):
        """Run one operation cold; returns (seconds, result or None on failure)."""
        op = self.ops[index]
        for fn in self.caches.values():
            fn.cache_clear()
        if self.tracer:
            self.tracer.op_id = index
            self.tracer.paused = False
        result = None
        started = time.perf_counter()
        try:
            result = self.workload.run(op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - started
        if self.tracer:
            self.tracer.paused = True
            for name, fn in self.caches.items():
                info = fn.cache_info()
                self.cache_totals[name][0] += info.hits
                self.cache_totals[name][1] += info.misses
        self.attempted += op.size
        ok = False
        if result is not None:
            try:
                ok = bool(self.workload.check(op, result))
            except Exception:
                traceback.print_exc(file=sys.stderr)
        if not ok:
            self.failed += op.size
            print(f"failed: {self.workload.name} {op.label}", file=sys.stderr)
        return elapsed, result

    def _check_round(self, results: list) -> None:
        try:
            ok = self.workload.check_round(results)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += sum(op.size for op in self.ops)
            print(f"failed: {self.workload.name} round check", file=sys.stderr)

    def full_check(self) -> None:
        try:
            self.attempted += self.workload.full_check()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            print(f"failed: {self.workload.name} full check", file=sys.stderr)

    def one_round(self) -> list[float]:
        times, results = zip(*(self._execute(i) for i in range(len(self.ops))))
        self._check_round(list(results))
        return list(times)

    def timed(self, seconds: float) -> list[list[float]]:
        """Rounds over the op list until ``seconds`` have passed; every
        op's list of times, at least one per op."""
        cpus = sorted(os.sched_getaffinity(0))
        started = time.perf_counter()
        samples = [[t] for t in self.one_round()]
        i = 0
        try:
            while time.perf_counter() - started < seconds:
                j = i % len(self.ops)
                if j == 0:
                    os.sched_setaffinity(0, {cpus[(i // len(self.ops)) % len(cpus)]})
                samples[j].append(self._execute(j)[0])
                i += 1
        finally:
            os.sched_setaffinity(0, cpus)
        return samples


def end_to_end(workload, ops, runner, samples, setup_times) -> tuple[dict, list]:
    best = [min(s) for s in samples]
    ops_per_round = sum(op.size for op in ops)
    metrics = {
        "ops_per_s": (ops_per_round / sum(best), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    info = [
        ("error_rate", runner.failed / runner.attempted, "1"),
        ("rounds", min(len(s) for s in samples), "count"),
        ("ops_per_round", ops_per_round, "count"),
    ]
    if workload.name == "query63":
        for kind in workload.KINDS:
            lat = [b * 1000 for op, b in zip(ops, best) if op.args[0] == kind]
            info.append((f"{kind}_ms_p50", statistics.median(lat), "ms"))
            info.append((f"{kind}_ms_p90", statistics.quantiles(lat, n=10, method="inclusive")[8], "ms"))
            info.append((f"{kind}_samples", len(lat), "count"))
    return metrics, info


def per_layer(workload, ops, runner, summary, overhead) -> dict:
    metrics = {}
    for layer, fn in WRAPPED:
        name = f"{layer}.{fn}"
        metrics[f"{name}.calls"] = (summary["calls"].get(name, 0), "count")
        metrics[f"{name}.self_s"] = (summary["self_s"].get(name, 0.0), "s")
    metrics["search.iter_longest_paths.paths"] = (
        summary["items"].get("search.iter_longest_paths", 0), "count")
    metrics["goodsets.rotation_closure.rotations"] = (
        summary["counters"].get("goodsets.rotation_closure.rotations", 0), "count")
    for route in ROUTES:
        metrics[f"goodsets.find_good_set.route_{route}"] = (summary["routes"][route], "count")
    metrics["goodsets.scan_hit_ratio"] = (summary["scan_hit_ratio"], "1")
    metrics["hypergraph.components.calls_per_instance"] = (
        summary["calls"].get("hypergraph.components", 0) / workload.instances, "1")
    for name in CACHED:
        hits, misses = runner.cache_totals.get(name, (0, 0))
        metrics[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "1")
    metrics["trace_overhead"] = (overhead, "1")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long operation lists, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload, ops = setup(cls, args.seed, args.tiny)
        setup_times.append(time.perf_counter() - t0)
    caches = lru_caches(workload.m)

    print(f"# workload={cls.name} seed={args.seed} seeded={cls.seeded} ops={len(ops)}"
          f" nproc={os.cpu_count()} python={platform.python_version()}")

    if args.trace:
        runner = Runner(workload, ops, caches)
        untraced = sum(runner.one_round())
        tracer = Tracer(PACKAGE)
        tracer.install()
        tracer.paused = True
        runner.tracer = tracer
        traced = sum(runner.one_round())
        tracer.uninstall()
        runner.full_check()
        summary = tracer.summary()
        metrics = per_layer(workload, ops, runner, summary, traced / untraced)
        TRACE_DIR.mkdir(exist_ok=True)
        span_file = TRACE_DIR / f"spans-{cls.name}-seed{args.seed}.tsv.gz"
        tracer.write(span_file)
        print(f"# {summary['spans']} spans written to {span_file.relative_to(ROOT)}")
        info = [("error_rate", runner.failed / runner.attempted, "1")]
    else:
        runner = Runner(workload, ops, caches)
        samples = runner.timed(args.seconds)
        metrics, info = end_to_end(workload, ops, runner, samples, setup_times)

    for name, (value, unit) in list(metrics.items()) + [(n, (v, u)) for n, v, u in info]:
        print(f"{name:52s} {value:>16.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
