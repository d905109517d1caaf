"""markovlens benchmark.

One workload:
    python3 perfbench/run.py --workload verdict --seed 1 --seconds 20 --trace 0

prints a record line and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

All workloads, traced and untraced, with a count-determinism check and a
held-out seed:
    python3 perfbench/run.py --workload all --seed 1 --held-out-seed 2

Every workload runs in its own process (closed loop, one operation at a
time) with BLAS pinned to one thread. The program is imported from the
checkout's ``src``; scratch output goes to ``.perfbench_out`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import workloads  # noqa: E402
from probe import probe, speed_factor  # noqa: E402

SETUP_REPEATS = 7
SETUP_PROBE_ITERS = 500
RUN_BUDGET_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list, timeout: float) -> str:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT] + args
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}\n"
                         f"{proc.stderr.strip()[-4000:]}")
    return proc.stdout.strip().splitlines()[-1]


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up several times, each followed by a probe, then run the workload
    process once."""
    if not os.path.isdir(os.path.join(ROOT, "src", "markovlens")):
        raise BenchError(f"no markovlens sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = os.path.join(OUT, f"work-{os.getpid()}-{workload}-{seed}")
    os.makedirs(workdir, exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
    try:
        setups, speeds = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            _worker(base + ["--seconds", "0", "--setup-only"], deadline - time.monotonic())
            setups.append(time.perf_counter() - t0)
            speeds.append(speed_factor(SETUP_PROBE_ITERS, probe(SETUP_PROBE_ITERS)))
        doc = json.loads(_worker(base + ["--seconds", str(seconds), "--trace", str(trace)],
                                 deadline - time.monotonic()))
    finally:
        shutil.rmtree(os.path.join(workdir, "analyze"), ignore_errors=True)
    doc["setup_runs_s"] = setups
    doc["setup_speeds"] = speeds
    if "trace_file" in doc:
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        dest = os.path.join(traces, os.path.basename(doc["trace_file"]))
        os.replace(doc["trace_file"], dest)
        doc["trace_file"] = os.path.relpath(dest, ROOT)
    shutil.rmtree(workdir, ignore_errors=True)
    doc["env"]["git_commit"] = git_commit()
    return doc


def result_line(doc: dict, trace: int) -> dict:
    summary = metrics.summarize(doc)
    values = metrics.layer_metrics(doc) if trace else metrics.end_to_end(doc)
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}


def record(doc: dict) -> dict:
    """What the result rests on: environment, workload rationale, outcomes."""
    summary = metrics.summarize(doc)
    return {"workload": doc["workload"], "seed": doc["seed"], "env": doc["env"],
            "why": workloads.WHY[doc["workload"]], "ops": summary["ops"],
            "failed_ops": summary["failed_ops"],
            "failed_ops_frac": summary["failed"] / summary["attempted"],
            "op_samples": summary["op_samples"], "raw": metrics.raw_timings(doc),
            "trace_file": doc.get("trace_file")}


def single(args) -> int:
    doc = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"record": record(doc)}))
    print(json.dumps(result_line(doc, args.trace)))
    return 0


def suite(args) -> int:
    """Every workload: untraced and twice traced on --seed, untraced on the
    held-out seed. Prints every metric with its unit and writes a report."""
    report = {"seed": args.seed, "held_out_seed": args.held_out_seed, "workloads": {}}
    all_ok = True
    for name in workloads.WORKLOAD_NAMES:
        runs = {"untraced": run_one(name, args.seed, args.seconds, 0)}
        runs["traced"] = run_one(name, args.seed, args.seconds, 1)
        runs["traced_again"] = run_one(name, args.seed, args.seconds, 1)
        seeds = [args.seed]
        if args.held_out_seed is not None:
            runs["held_out"] = run_one(name, args.held_out_seed, args.seconds, 0)
            seeds.append(args.held_out_seed)
        e2e = result_line(runs["untraced"], 0)
        layers = result_line(runs["traced"], 1)
        deterministic = metrics.counts_repeat([runs["traced"], runs["traced_again"]])
        baselines = metrics.baseline_counts(runs["traced"])
        per_seed = {str(seeds[0]): metrics.summarize(runs["untraced"])["failed_ops"]}
        correct = [e2e["correct"], layers["correct"]]
        if "held_out" in runs:
            held = metrics.summarize(runs["held_out"])
            per_seed[str(args.held_out_seed)] = held["failed_ops"]
            correct.append(held["correct"])
        ok = all(correct) and deterministic and all(b["ok"] for b in baselines)
        all_ok = all_ok and ok

        print(f"\n== {name}: {workloads.WHY[name]}")
        for key, m in e2e["metrics"].items():
            print(f"  {key:34s} {m['value']:>14.6g} {m['unit']}")
        summary = metrics.summarize(runs["untraced"])
        print(f"  {'failed_ops_frac':34s} {summary['failed'] / summary['attempted']:>14.6g} "
              f"frac ({summary['failed']} of {summary['attempted']})")
        print(f"  op_p50_ms samples: {summary['op_samples']}")
        for key, m in layers["metrics"].items():
            if m["value"]:
                print(f"  {key:34s} {m['value']:>14.6g} {m['unit']}")
        for seed, failed in per_seed.items():
            print(f"  seed {seed} failed operations: {failed or 'none'}")
        print(f"  work counts identical across two traced runs: {deterministic}")
        for b in baselines:
            print(f"  baseline {b['op']}: {b['metric']} {b['got']} (expected {b['expected']})")
        print(f"  correct: {all(correct)}")
        report["workloads"][name] = {
            "end_to_end": e2e, "per_layer": layers, "failed_ops_by_seed": per_seed,
            "counts_deterministic": deterministic, "baselines": baselines,
            "records": {k: record(v) for k, v in runs.items()},
        }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"report-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"\nreport: {os.path.relpath(path, ROOT)}; all checks passed: {all_ok}")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measuring time per run (timed passes continue until it is over)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--held-out-seed", type=int, default=None,
                   help="with --workload all: also run every workload on this seed")
    args = p.parse_args(argv)
    try:
        return suite(args) if args.workload == "all" else single(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
