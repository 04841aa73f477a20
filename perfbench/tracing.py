"""Span tracing around the public functions of the bergepaths layers.

Only the traced run installs the wrappers. Each wrapped call records one
span (name, start, end, parent span, operation id) in flat arrays, so a
run with a million spans stays small; the spans are written out once, when
the run ends. A function that returns an iterator gets one span for the
call and one more for every ``next`` on the iterator, so enumeration time
lands on the enumerating function and not on its consumer.

A name bound with ``from .x import y`` is a separate module attribute, so
every module of the package that holds the original object gets the
wrapper. ``cache_info()`` is read from the original objects, which the
runner holds.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (layer, function): the public functions each layer's metrics come from.
WRAPPED = (
    ("hypergraph", "components"),
    ("hypergraph", "hypergraph_from_subset"),
    ("search", "longest_path_length"),
    ("search", "longest_path_length_cached"),
    ("search", "edge_p_values"),
    ("search", "max_p_edge_mask"),
    ("search", "iter_longest_paths"),
    ("search", "find_berge_cycle"),
    ("search", "longest_berge_path"),
    ("weights", "weight_report"),
    ("weights", "classify_structure"),
    ("weights", "turan_exact"),
    ("goodsets", "is_good_set"),
    ("goodsets", "enumerate_good_sets"),
    ("goodsets", "rotation_closure"),
    ("goodsets", "find_good_set"),
    ("goodsets", "check_spanning_cycle_property"),
    ("verify", "sample_mask"),
    ("verify", "run_sweep"),
    ("verify", "report_to_dict"),
)

ITERATOR_FUNCTIONS = {"search.iter_longest_paths", "goodsets.enumerate_good_sets"}
ROUTES = ("cycle", "rotation", "scan")


def _rotations(family) -> int:
    # every repair step adds exactly one terminal with its witness path
    return len(family.witnesses) - 1


RESULT_COUNTERS = {"goodsets.rotation_closure": ("rotations", _rotations)}


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.paused = False
        self.calls: dict[str, int] = {}
        self.items: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def _iterate(self, name: str, name_id: int, it):
        while True:
            idx = self._open(name_id)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.items[name] += 1
            yield item

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        self.calls[name] = 0
        self.items[name] = 0
        is_iter = name in ITERATOR_FUNCTIONS
        counter = RESULT_COUNTERS.get(name)
        if counter:
            self.counters[f"{name}.{counter[0]}"] = 0
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter:
                tracer.counters[f"{name}.{counter[0]}"] += counter[1](result)
            if is_iter:
                return tracer._iterate(name, name_id, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every binding of each wrapped function in the package."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        for layer, fn_name in WRAPPED:
            name = f"{layer}.{fn_name}"
            home = sys.modules.get(f"{self.package}.{layer}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-function calls and self time, iterator items and route counts."""
        n = len(self.span_name)
        child = [0.0] * n
        parent = self.span_parent
        start, end = self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            self_s[self.names[self.span_name[i]]] += end[i] - start[i] - child[i]

        # find_good_set's route, from the children each of its calls ran
        fgs = self.name_ids.get("goodsets.find_good_set")
        scan = self.name_ids.get("goodsets.enumerate_good_sets")
        rot = self.name_ids.get("goodsets.rotation_closure")
        cycle = self.name_ids.get("search.find_berge_cycle")
        good = self.name_ids.get("goodsets.is_good_set")
        children: dict[int, set[int]] = {}
        scan_calls = 0
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            if self.span_name[p] == fgs:
                children.setdefault(p, set()).add(self.span_name[i])
            if self.span_name[i] == good and self.span_name[p] == scan:
                scan_calls += 1
        routes = dict.fromkeys(ROUTES, 0)
        for i in range(n):
            if self.span_name[i] != fgs:
                continue
            kids = children.get(i, set())
            if scan in kids:
                routes["scan"] += 1
            elif rot in kids:
                routes["rotation"] += 1
            elif cycle in kids:
                routes["cycle"] += 1
        scan_hits = self.items.get("goodsets.enumerate_good_sets", 0)
        return {
            "calls": dict(self.calls),
            "self_s": self_s,
            "items": dict(self.items),
            "counters": dict(self.counters),
            "routes": routes,
            "scan_hit_ratio": scan_hits / scan_calls if scan_calls else 0.0,
            "spans": n,
        }

    def write(self, path) -> None:
        """Spans as gzip TSV: name, start, end, parent index, operation id."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    f"{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}"
                    f"\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
