"""Command-line surface: analyze, witness-scan, extend, report.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (the
message names the failing stage and time point).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .config import AnalysisConfig, load_config, matrix_from_json, matrix_to_json, \
    validate_verdict_report
from .divisibility import (INCLUSION_TOL, RankProfile, cp_divisibility_verdict, image_basis,
                           rank_profile)
from .dynamics import canonical_rates
from .errors import ConfigError, MarkovLensError, NumericalError, SingularGeneratorError
from .operator_core import RANK_RTOL, require_density
from .reports import read_json, write_csv, write_json
from .witnesses import _worker, backflow_threshold, blp_sigma, witness_scan

log = logging.getLogger("markovlens")


def _setup_logging() -> None:
    level = os.environ.get("MARKOVLENS_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _outdir(config: AnalysisConfig, args) -> str:
    out = args.out or config.output
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # a file at the path or above it, or no permission
        raise ConfigError(f"output directory {out!r} is not usable: {exc}") from exc
    return out


def _witness_options(config: AnalysisConfig, args) -> dict:
    opts = {"ancilla_kind": "d", "n_samples": 64, "n_refine": 8, "seed": 0, **config.witness}
    if args.seed is not None:
        opts["seed"] = args.seed
    return opts


def _record_rows(record):
    return list(zip(record.times.tolist(), record.norms.tolist(),
                    [None] + record.derivatives.tolist() + [None]))


def _record_summary(record, extra=None) -> dict:
    return {
        "ancilla_kind": record.ancilla_kind,
        "max_backflow": float(record.max_backflow),
        "max_backflow_time": float(record.max_backflow_time),
        "kink_times": [float(t) for t in record.kink_times],
        "witness": matrix_to_json(record.witness),
        **(extra or {}),
    }


def task_verdict(config: AnalysisConfig, family, grid, outdir: str, verdict) -> RankProfile:
    report = {
        "status": verdict.status.value,
        "family": {"preset": family.kind, "dim": family.dim},
        "grid": {"t_max": float(grid.times[-1]), "n_points": int(len(grid.times))},
        "tolerances": {k: getattr(config.tolerances, k, INCLUSION_TOL)
                       for k in ("choi_tol", "tp_tol", "kernel_tol", "rank_rtol", "fd_tol")},
        "evidence": {
            "invertible_everywhere": verdict.invertible_everywhere,
            "image_nonincreasing": verdict.image_nonincreasing,
            "image_residual": verdict.image_residual,
            "worst_kernel_residual": verdict.worst_kernel_residual,
            "first_violation_time": verdict.first_violation_time,
            "worst_choi_min_eig": verdict.worst_choi_min_eig,
            "worst_tp_residual": verdict.worst_tp_residual,
            "p_sampling_min_eig": verdict.p_sampling_min_eig,
            "witness_max_backflow": verdict.witness_max_backflow,
            "ranks": [int(r) for r in verdict.ranks.ranks],
            "breakpoints": [float(b) for b in verdict.ranks.breakpoints],
            "projectors": [{"t": float(t), "natural": matrix_to_json(p.natural)}
                           for t, p in verdict.projectors],
            "notes": list(verdict.notes),
        },
    }
    validate_verdict_report(report)
    write_json(os.path.join(outdir, "verdict.json"), report)

    rp = verdict.ranks
    header = ["t"] + [f"sigma_{i + 1}" for i in range(rp.singular_values.shape[1])] + ["rank"]
    rows = [[t] + s + [r] for t, s, r in zip(rp.times.tolist(), rp.singular_values.tolist(),
                                              rp.ranks.tolist())]
    write_csv(os.path.join(outdir, "rank_profile.csv"), header, rows)
    log.info("verdict: %s", verdict.status.value)
    return rp


def task_rates(config: AnalysisConfig, family, grid, outdir: str, naturals, rp=None) -> None:
    """rp: an earlier verdict's RankProfile, whose singular values along the grid flag the
    singular times; the times rejected for another reason are listed apart."""
    n_rates = family.dim ** 2 - 1
    header = ["t"] + [f"gamma_{k + 1}" for k in range(n_rates)] + ["singular"]
    rates, failures = canonical_rates(family, naturals, grid.times,
                                      rank_rtol=config.tolerances.rank_rtol,
                                      svals=None if rp is None else rp.singular_values)
    singular = {k for k, exc in failures.items() if isinstance(exc, SingularGeneratorError)}
    for k, exc in sorted(failures.items()):
        log.debug("rates: %s at t=%s (%s)", "singular" if k in singular else "rejected",
                  grid.times[k], exc)
    rows = [[t] + ([None] * n_rates + [int(k in singular)] if k in failures else g + [0])
            for k, (t, g) in enumerate(zip(grid.times.tolist(), rates.tolist()))]
    write_csv(os.path.join(outdir, "rates.csv"), header, rows)
    write_json(os.path.join(outdir, "rates_summary.json"),
               {"singular_times": [float(grid.times[k]) for k in sorted(singular)],
                "rejected_times": [float(grid.times[k]) for k in sorted(failures)
                                   if k not in singular],
                "n_regular": len(rows) - len(failures)})


def _blp_state(config: AnalysisConfig, k: int, d: int) -> np.ndarray:
    """State k of the blp pair: blp.rho1 or rho2 as a checked density matrix, else |k><k|."""
    if config.blp.get("rho1") is None:
        return np.diag(np.eye(d, dtype=complex)[k])
    key = f"rho{k + 1}"
    try:
        rho = require_density(matrix_from_json(config.blp[key]))
        if rho.shape != (d, d):
            raise ValueError(f"shape {rho.shape}")
    except ValueError as exc:
        raise ConfigError(f"blp.{key} is not a {d} x {d} density matrix: {exc}") from exc
    return rho


def task_blp(family, grid, outdir: str, naturals, states) -> None:
    record = blp_sigma(family, *states, grid, naturals)
    write_csv(os.path.join(outdir, "blp_trajectory.csv"),
              ["t", "norm", "derivative"], _record_rows(record))
    write_json(os.path.join(outdir, "blp.json"), _record_summary(record))


def task_witness_scan(config: AnalysisConfig, grid, outdir: str, opts: dict, scan) -> None:
    """scan: the future of the witness_scan record with options opts; its result, or the
    exception it raised, is taken here."""
    record = scan.result()
    threshold = backflow_threshold(config.tolerances.fd_tol, grid.times)
    summary = _record_summary(record, {
        "n_samples": opts["n_samples"],
        "n_refine": opts["n_refine"],
        "seed": opts["seed"],
        "backflow_threshold": threshold,
        "no_violation_found": bool(record.max_backflow <= threshold),
        "certified_cptp_steps": record.certified_steps,
    })
    write_json(os.path.join(outdir, "best_witness.json"), summary)
    write_csv(os.path.join(outdir, "witness_trajectory.csv"),
              ["t", "norm", "derivative"], _record_rows(record))


def task_extend(config: AnalysisConfig, family, grid, outdir: str, naturals, rp=None) -> None:
    """naturals: the run's shared grid maps; rp: an earlier verdict's RankProfile, if any."""
    from .cp_extension import SubspaceMapSpec, extend_cp, verify_infeasibility

    if rp is None:
        rp = rank_profile(family, grid, rtol=config.tolerances.rank_rtol, naturals=naturals)
    probe_times = list(rp.breakpoints) or [float(grid.times[-1])]
    require_tp = bool(config.extend.get("require_tp", True))
    max_iter = int(config.extend.get("max_iter", 100))
    results = []
    for k, t_star in enumerate(probe_times):
        basis = image_basis(family.evaluate(t_star), config.tolerances.rank_rtol)
        spec = SubspaceMapSpec(domain=basis,
                               images=tuple(g.copy() for g in basis.elements),
                               dim=family.dim, require_tp=require_tp)
        res = extend_cp(spec, max_iter=max_iter)
        entry = {
            "t": float(t_star),
            "status": res.status.value,
            "iterations": res.iterations,
            "action_residual": res.action_residual,
            "tp_residual": res.tp_residual,
            "psd_slack": res.psd_slack,
            "subspace_dim": len(basis),
            "require_tp": require_tp,
        }
        if res.choi is not None:
            choi_file = f"choi_{k}.json"
            write_json(os.path.join(outdir, choi_file),
                       {"t": float(t_star), "choi": matrix_to_json(res.choi)})
            entry["choi_file"] = choi_file
        if res.certificate is not None:
            entry["certificate_value"] = verify_infeasibility(res.certificate, spec)["value"]
        results.append(entry)
    write_json(os.path.join(outdir, "feasibility.json"), {"results": results})


def _artifact_summary(name: str, path: str) -> str:
    """The report's summary of one artifact; raises on a truncated or foreign file."""
    if name.endswith(".csv"):
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        if not lines or not lines[-1].endswith("\n"):  # write_csv ends every line with one
            raise ValueError("truncated: " + ("no header line" if not lines
                                              else "the last line has no newline"))
        return f"{len(lines) - 1} rows"
    data = read_json(path)
    if name == "verdict.json":
        return f"status={data['status']} breakpoints={data['evidence']['breakpoints']}"
    if name == "best_witness.json":
        return (f"max_backflow={data['max_backflow']:.3e} at t={data['max_backflow_time']:.4f} "
                f"certified_cptp_steps={data.get('certified_cptp_steps', 0)}")
    if name == "blp.json":
        return f"max_backflow={data['max_backflow']:.3e}"
    if name == "feasibility.json":
        return ",".join(r["status"] + (f"(certificate_value={r['certificate_value']:.3e})"
                                       if "certificate_value" in r else "")
                        for r in data["results"])
    if name == "rates_summary.json":
        return (f"regular={data['n_regular']} singular={len(data['singular_times'])} "
                f"rejected={len(data.get('rejected_times', ()))}")
    return "json"


def cmd_report(args) -> int:
    indir = args.indir
    if not os.path.isdir(indir):
        print(f"error: {indir} is not a directory", file=sys.stderr)
        return 2
    names = sorted(n for n in os.listdir(indir) if n.endswith((".json", ".csv")))
    if not names:
        print(f"error: no artifacts in {indir}", file=sys.stderr)
        return 2
    print(f"{'artifact':32s} {'summary'}")
    print("-" * 72)
    for name in names:
        path = os.path.join(indir, name)
        try:
            summary = _artifact_summary(name, path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        print(f"{name:32s} {summary}")
    return 0


def run_tasks(config: AnalysisConfig, tasks, args) -> int:
    if args.seed is not None:
        try:
            config.tolerances = dataclasses.replace(config.tolerances, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--{exc}") from exc
    family, grid = config.build_family(), config.build_grid()
    # the grid times and the blp pair are checked before any task runs
    outside = grid.times[family._outside(grid.times)]
    if len(outside):
        raise ConfigError(f"grid.times {outside.tolist()} lie outside the family domain "
                          f"[0, {family.t_max}] set by grid.t_max")
    states = [_blp_state(config, k, family.dim) for k in (0, 1)] if "blp" in tasks else None
    outdir = _outdir(config, args)
    ranks, scan, naturals = None, None, family.naturals(grid.times)  # shared by every task
    naturals.setflags(write=False)  # no task may write into the stack the worker reads
    # the scan runs on one worker thread beside the other tasks (on 2 CPUs it overlaps their Python
    # and SVD work, not complex eigvalsh); files are written in task order; joined on exit
    stop = threading.Event()  # the worker thread's _worker.stop: its scan stops once it is set
    with ThreadPoolExecutor(1, initializer=setattr, initargs=(_worker, "stop", stop)) as pool:
        if "witness_scan" in tasks:
            opts = _witness_options(config, args)
            if ("verdict" not in tasks[:tasks.index("witness_scan")]  # else from its return,
                    or config.tolerances.rank_rtol != RANK_RTOL):  # which has step figures
                scan = pool.submit(witness_scan, family, grid, **opts, naturals=naturals)
        try:
            for task in tasks:
                log.info("running task %s", task)
                if task == "verdict":
                    verdict, figures = cp_divisibility_verdict(family, grid, config.tolerances,
                                                               naturals, return_figures=True)
                    if "witness_scan" in tasks and scan is None:  # before the verdict's files
                        scan = pool.submit(witness_scan, family, grid, **opts, naturals=naturals,
                                           figures=figures)
                    ranks = task_verdict(config, family, grid, outdir, verdict)
                elif task == "rates":
                    task_rates(config, family, grid, outdir, naturals, ranks)
                elif task == "blp":
                    task_blp(family, grid, outdir, naturals, states)
                elif task == "witness_scan":
                    task_witness_scan(config, grid, outdir, opts, scan)
                elif task == "extend":
                    task_extend(config, family, grid, outdir, naturals, ranks)
                else:
                    raise ConfigError(f"unknown task {task!r}")
        finally:  # a failed task stops the scan before its next block; a success has its result
            stop.set()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovlens",
        description="Divisibility and information-backflow diagnostics for "
                    "quantum dynamical maps")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON analysis config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    p_an = sub.add_parser("analyze", help="run the tasks listed in the config")
    common(p_an)
    p_ws = sub.add_parser("witness-scan", help="randomized backflow search")
    common(p_ws)
    p_ex = sub.add_parser("extend", help="CPTP-extension feasibility probe")
    common(p_ex)
    p_rp = sub.add_parser("report", help="summarize an output directory")
    p_rp.add_argument("--in", dest="indir", required=True)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args)
        config = load_config(args.config)
        tasks = {"analyze": config.tasks, "witness-scan": ["witness_scan"], "extend": ["extend"]}
        return run_tasks(config, tasks[args.command], args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        stage = f" [stage: {exc.stage}]" if exc.stage else ""
        at = f" [t={exc.time}]" if exc.time is not None else ""
        print(f"numerical failure{stage}{at}: {exc}", file=sys.stderr)
        return 3
    except MarkovLensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
