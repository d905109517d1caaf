"""Metrics of the markovlens benchmark, computed from a worker's JSON output.

End-to-end metrics come from untraced passes, per-layer metrics from traced
passes. Set-up, pass and operation times are scaled by the probe speed
factor measured next to them (see probe.py), so they read as seconds at
the probe's reference speed; memory and per-layer self times are raw. Times are
medians over passes; work counts come from the first traced pass and are
expected to repeat exactly.
"""

from __future__ import annotations

import statistics

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_ops_frac", "frac"),
)

_DIV = "divisibility."
CALLS = (
    "dynamics.evaluate",
    "operator_core.gram_schmidt_hermitian", "operator_core.trace_norm",
    "operator_core.psd_check",
    "superop.is_cp", "superop.is_tp", "superop.apply", "superop.tensor_with_identity",
    *(_DIV + f for f in ("kernel_basis", "image_basis", "propagator",
                         "composite_propagator", "limit_projector", "rank_profile")),
    "witnesses.witness_scan", "cp_extension.extend_cp",
    "linalg.svd", "linalg.eigvalsh", "linalg.eigh", "linalg.pinv",
)
SELF = (
    "dynamics.evaluate", "dynamics.generator_from_family", "dynamics.canonical_gkls",
    "operator_core.gram_schmidt_hermitian",
    "superop.is_cp", "superop.apply", "superop.tensor_with_identity",
    *(_DIV + f for f in ("rank_profile", "is_divisible", "is_image_nonincreasing",
                         "propagator", "composite_propagator", "limit_projector",
                         "cp_divisibility_verdict")),
    "witnesses.witness_scan", "witnesses.blp_sigma",
    "cp_extension.extend_cp", "cp_extension.verify_extension",
    "config.load_config",
    *(f"cli.task_{t}" for t in ("verdict", "rates", "blp", "witness_scan", "extend")),
    "reports.write",
    "linalg.svd", "linalg.eigvalsh", "linalg.eigh", "linalg.pinv",
)
COUNTERS = (
    ("witnesses.pairs", "count"),
    ("cp_extension.iterations", "count"),
    ("cp_extension.unconverged", "count"),
    ("reports.files_written", "count"),
    ("reports.bytes_written", "bytes"),
    ("linalg.svd.matrices", "count"),
    ("linalg.eigvalsh.matrices", "count"),
)
# per-unit costs: inclusive time of a span name over a counter
RATES = (
    ("witnesses.us_per_pair", "witnesses.witness_scan", "witnesses.pairs"),
    ("cp_extension.us_per_iteration", "cp_extension.extend_cp", "cp_extension.iterations"),
)

PER_LAYER = (
    tuple((f"{n}.calls", "count") for n in CALLS)
    + tuple((f"{n}.self_s", "s") for n in SELF)
    + COUNTERS
    + tuple((name, "us") for name, _, _ in RATES)
    + (("trace.overhead_frac", "frac"),)
)

# machine-independent counts the ROADMAP baseline recorded for these operations
BASELINE_COUNTS = {
    "verdict/ad_clipped": ("evaluate", 3412),
    "verdict/pauli_neg": ("evaluate", 3195),
}


def _passes(doc: dict, traced: bool) -> list:
    return [p for p in doc["passes"] if p["traced"] is traced]


def summarize(doc: dict) -> dict:
    """Attempted and failed operations over the timed passes, and whether
    every failure is a documented known failure."""
    meta = {m["name"]: m for m in doc["ops_meta"]}
    timed = [r for p in doc["passes"] for r in p["ops"]]
    failing = sorted({r["name"] for r in timed if not r["ok"]})
    ops = []
    for r in doc["passes"][0]["ops"]:
        m = meta[r["name"]]
        ops.append({"name": r["name"], "expected": m["expected"],
                    "known_failure": m["known_failure"],
                    "ok": r["name"] not in failing, "detail": r["detail"]})
    return {
        "attempted": len(timed),
        "failed": sum(1 for r in timed if not r["ok"]),
        "failed_ops": failing,
        "correct": all(meta[n]["known_failure"] for n in failing),
        "op_samples": sum(len(p["ops"]) for p in _passes(doc, False)),
        "ops": ops,
    }


def pass_seconds(passes: list) -> float:
    """Median speed-scaled time of one pass over the operation list."""
    return statistics.median(p["ops_s"] * p["speed"] for p in passes)


def op_p50(passes: list, scaled: bool = True) -> float:
    """Median operation latency (ms) over all operations of the passes."""
    return statistics.median(r["ms"] * (p["speed"] if scaled else 1.0)
                             for p in passes for r in p["ops"])


def raw_timings(doc: dict) -> dict:
    """The unscaled figures behind the scaled times, for the record."""
    untraced = _passes(doc, False)
    return {"setup_s": statistics.median(doc["setup_runs_s"]),
            "wall_s": statistics.median(p["ops_s"] for p in untraced),
            "op_p50_ms": op_p50(untraced, scaled=False),
            "speed": statistics.median(p["speed"] for p in untraced)}


def end_to_end(doc: dict) -> dict:
    untraced = _passes(doc, False)
    ops = [r for p in untraced for r in p["ops"]]
    values = {
        "setup_s": statistics.median(t * f for t, f in zip(doc["setup_runs_s"],
                                                            doc["setup_speeds"])),
        "wall_s": pass_seconds(untraced),
        "op_p50_ms": op_p50(untraced),
        "peak_rss_mb": doc["maxrss_kb"] / 1024.0,
        "ok_ops_frac": sum(1 for r in ops if r["ok"]) / len(ops),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def layer_metrics(doc: dict) -> dict:
    layers = doc["layer_passes"]
    first = layers[0]

    def calls(name):
        return first["self_times"].get(name, (0, 0.0, 0.0))[0]

    def seconds(name, col):
        return statistics.median(lp["self_times"].get(name, (0, 0.0, 0.0))[col]
                                 for lp in layers)

    values = {}
    for name in CALLS:
        values[f"{name}.calls"] = calls(name)
    for name in SELF:
        values[f"{name}.self_s"] = seconds(name, 1)
    for name, _ in COUNTERS:
        values[name] = first["counters"].get(name, 0)
    for name, span, counter in RATES:
        base = values[counter]
        values[name] = seconds(span, 2) * 1e6 / base if base else 0.0
    untraced = pass_seconds(_passes(doc, False))
    values["trace.overhead_frac"] = (pass_seconds(_passes(doc, True)) - untraced) / untraced
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def work_counts(doc: dict) -> list:
    """Machine-independent counts of every traced pass: calls per span name
    and every counter, plus per-operation evaluations and SVD calls."""
    out = []
    for lp, p in zip(doc["layer_passes"], _passes(doc, True)):
        calls = {k: v[0] for k, v in lp["self_times"].items()}
        per_op = {r["name"]: r["counts"] for r in p["ops"]}
        out.append({"calls": calls, "counters": lp["counters"], "per_op": per_op})
    return out


def counts_repeat(docs: list) -> bool:
    """True when every traced pass of every run made exactly the same work."""
    counts = [c for doc in docs for c in work_counts(doc)]
    return all(c == counts[0] for c in counts)


def baseline_counts(doc: dict) -> list:
    """Compare per-operation counts with the recorded ROADMAP baseline."""
    traced = _passes(doc, True)
    if not traced:
        return []
    per_op = {r["name"]: r["counts"] for r in traced[0]["ops"]}
    out = []
    for op, (metric, expected) in BASELINE_COUNTS.items():
        if op in per_op:
            got = per_op[op][metric]
            out.append({"op": op, "metric": metric, "got": got,
                        "expected": expected, "ok": got == expected})
    return out
