"""One workload process of the markovlens benchmark.

Imports markovlens from the checkout's ``src``, builds the workload's inputs
from the seed, warms up for about a second, then runs timed passes over the
operation list until ``--seconds`` have elapsed. With ``--trace 1`` it
alternates untraced and traced passes. It prints one JSON document on
stdout. ``run.py`` starts it with BLAS pinned to one thread; run it through
``run.py`` rather than by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from probe import probe, probe_iters, speed_factor  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

WARMUP_S = 1.0


def import_program(root: str, workload: str) -> None:
    """Import markovlens (and its CLI for analyze) from root/src only."""
    import markovlens

    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(markovlens.__file__).startswith(src):
        raise SystemExit(f"markovlens imported from {markovlens.__file__}, not {src}")
    if workload == "analyze":
        import markovlens.cli  # noqa: F401


def warm_up(ops: list) -> None:
    """Untimed: run operations in list order until WARMUP_S has passed.

    Short on purpose: machine noise here is fast, so the run's time is
    better spent on timed passes than on a full warm-up pass.
    """
    t_end = time.perf_counter() + WARMUP_S
    for op in ops:
        op.call(op.prepare())
        if time.perf_counter() >= t_end:
            break


def run_pass(ops: list, tracer=None) -> dict:
    """Run every operation once, each followed by a probe, and judge the
    outputs after the pass. ``ops_s`` is the sum of operation latencies;
    ``speed`` is the probe's speed factor over the pass (see probe.py).

    With a tracer the wrappers stay installed for the whole pass, oracles
    included (the extend oracle calls the program's verify_extension), and
    each operation also reports its family evaluations and SVD calls.
    """
    clock = time.perf_counter
    latencies, outputs, counts, results, probes = [], [], [], [], []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in ops:
            inp = op.prepare()
            mark = len(tracer.spans) if tracer is not None else 0
            t0 = clock()
            outputs.append(op.call(inp))
            latencies.append(clock() - t0)
            if tracer is not None:
                names = [s[0] for s in tracer.spans[mark:]]
                counts.append({"evaluate": names.count("dynamics.evaluate"),
                               "svd": names.count("linalg.svd")})
            n = probe_iters(latencies[-1])
            probes.append((n, probe(n)))
        for k, (op, out, lat) in enumerate(zip(ops, outputs, latencies)):
            ok, detail = op.check(out)
            results.append({"name": op.name, "ms": lat * 1e3, "ok": bool(ok),
                            "detail": detail})
            if counts:
                results[-1]["counts"] = counts[k]
    finally:
        if tracer is not None:
            tracer.uninstall()
    speed = speed_factor(sum(n for n, _ in probes), sum(t for _, t in probes))
    return {"ops_s": sum(latencies), "speed": speed,
            "traced": tracer is not None, "ops": results}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True, help="checkout root holding src/")
    p.add_argument("--workdir", required=True, help="scratch directory inside the checkout")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_program(args.root, args.workload)
    wl = workloads.build(args.workload, args.seed, os.path.join(args.workdir, "analyze"))
    if args.setup_only:
        print(json.dumps({"setup": "ok"}))
        return 0

    warm_up(wl.ops)
    passes = []
    tracer = Tracer() if args.trace else None
    layer_passes = []
    t_end = time.perf_counter() + args.seconds
    while True:
        passes.append(run_pass(wl.ops))
        if tracer is not None:
            passes.append(run_pass(wl.ops, tracer))
            layer_passes.append({
                "self_times": self_times(tracer.spans),
                "counters": dict(tracer.counters),
            })
        if time.perf_counter() >= t_end:
            break

    doc = {
        "workload": wl.name,
        "seed": args.seed,
        "ops_meta": [{"name": op.name, "expected": op.expected,
                      "known_failure": op.known_failure} for op in wl.ops],
        "passes": passes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(),
    }
    if tracer is not None:
        trace_path = os.path.join(args.workdir, f"trace-{wl.name}-seed{args.seed}.json.gz")
        tracer.write(trace_path)
        doc["trace_file"] = trace_path
        doc["layer_passes"] = layer_passes
    print(json.dumps(doc))
    return 0


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    sys.exit(main())
