"""In-process tracing of markovlens layers, from outside the package.

``Tracer.install`` wraps public functions of the markovlens modules under
every name the package looks them up by (the module attribute and each
``from .x import y`` binding), plus ``MapFamily.evaluate`` and the
``numpy.linalg`` kernels. Each call records a span (name, start, end,
parent) in memory; counters collect work that spans cannot show
(matrices per kernel call, witness-time pairs, solver iterations, bytes
written). ``self_times`` turns spans into per-name self time: a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions whose calls are counted and timed
TARGETS = {
    "dynamics": ("generator_from_family", "canonical_gkls"),
    "operator_core": ("gram_schmidt_hermitian", "trace_norm", "psd_check"),
    "superop": ("is_cp", "is_tp", "apply", "tensor_with_identity"),
    "divisibility": ("rank_profile", "is_divisible", "is_image_nonincreasing",
                     "propagator", "composite_propagator", "limit_projector",
                     "cp_divisibility_verdict", "kernel_basis", "image_basis"),
    "witnesses": ("witness_scan", "blp_sigma"),
    "cp_extension": ("extend_cp", "verify_extension"),
    "config": ("load_config",),
    "cli": ("task_verdict", "task_rates", "task_blp", "task_witness_scan",
            "task_extend"),
}
# functions recorded under a shared span name
ALIASES = {("reports", "write_json"): "reports.write",
           ("reports", "write_csv"): "reports.write"}
LINALG = ("svd", "eigvalsh", "eigh", "pinv")
BATCHED = ("svd", "eigvalsh")   # kernels whose matrix count is recorded


def _n_matrices(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _count_scan(counters, args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid")
    n_times = len(getattr(grid, "times", grid))
    witnesses = _arg(args, kwargs, 3, "n_samples", 64) + _arg(args, kwargs, 4, "n_refine", 8)
    counters["witnesses.pairs"] += witnesses * n_times


def _count_extend(counters, args, kwargs, result):
    counters["cp_extension.iterations"] += result.iterations
    if result.status.value != "FEASIBLE":
        counters["cp_extension.unconverged"] += 1


def _count_write(counters, args, kwargs, result):
    counters["reports.files_written"] += 1
    counters["reports.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_matrices(kernel):
    key = f"linalg.{kernel}.matrices"

    def count(counters, args, kwargs, result):
        counters[key] += _n_matrices(args[0] if args else kwargs["a"])
    return count


AFTER = {
    "witnesses.witness_scan": _count_scan,
    "cp_extension.extend_cp": _count_extend,
    "reports.write": _count_write,
}
AFTER.update({f"linalg.{k}": _count_matrices(k) for k in BATCHED})


class Tracer:
    """In-memory span recorder. Spans are [name, start, end, parent index]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._stack: list = []
        self._restore: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target under each name the loaded package binds it to."""
        from markovlens.dynamics import MapFamily

        wrappers = {}
        named = [(m, f, f"{m}.{f}") for m, names in TARGETS.items() for f in names]
        named += [(m, f, alias) for (m, f), alias in ALIASES.items()]
        for mod_name, fname, span_name in named:
            mod = sys.modules.get(f"markovlens.{mod_name}")
            if mod is not None:   # cli, config and reports load only for analyze
                wrappers[id(getattr(mod, fname))] = span_name
        originals = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "markovlens" or n.startswith("markovlens.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                key = id(value)
                if callable(value) and key in wrappers:
                    if key not in originals:
                        originals[key] = self.wrap(wrappers[key], value)
                    self._patch(mod, attr, originals[key])
        self._patch(MapFamily, "evaluate",
                    self.wrap("dynamics.evaluate", MapFamily.__dict__["evaluate"]))
        for kernel in LINALG:
            self._patch(np.linalg, kernel,
                        self.wrap(f"linalg.{kernel}", getattr(np.linalg, kernel)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON: a name table plus parallel columns."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "start_us": [round((s[1] - t0) * 1e6, 3) for s in self.spans],
            "end_us": [round((s[2] - t0) * 1e6, 3) for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(spans: list) -> dict:
    """name -> (calls, self seconds, inclusive seconds), summed over spans.

    A span's self time is its duration minus the union of its children's
    intervals, clipped to the span.
    """
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        entry = out[name]
        entry[0] += 1
        entry[1] += (end - start) - covered
        entry[2] += end - start
    return {k: tuple(v) for k, v in out.items()}
