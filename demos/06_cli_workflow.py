"""End-to-end command-line workflow in a temporary directory, removed on exit.

Writes a JSON config, runs every task through the CLI entry point, and
prints the artifact summary.  Outputs are byte-reproducible for a fixed
config and seed.
"""

import json
import pathlib
import tempfile

from markovlens.cli import main

with tempfile.TemporaryDirectory(prefix="markovlens_demo_") as tmp:
    workdir = pathlib.Path(tmp)
    config = {
        "family": {
            "preset": "amplitude_damping",
            "params": {"g": {"kind": "cosine_clipped", "omega": 1.0,
                             "t_star": 1.5707963267948966}},
        },
        "grid": {"t_max": 3.141592653589793, "n_points": 400},
        "tolerances": {"rank_rtol": 1e-9, "choi_tol": 1e-7, "tp_tol": 1e-7,
                       "fd_tol": 1e-6},
        "tasks": ["verdict", "rates", "blp", "witness_scan", "extend"],
        "witness": {"ancilla_kind": "d", "n_samples": 16, "n_refine": 4, "seed": 3},
        "output": str(workdir / "out"),
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    print("config:", config_path)

    code = main(["analyze", "--config", str(config_path)])
    print("analyze exit code:", code)

    print("\nartifact summary:")
    main(["report", "--in", config["output"]])

    verdict = json.loads((workdir / "out" / "verdict.json").read_text())
    print("\nstatus:", verdict["status"])
    print("breakpoints:", verdict["evidence"]["breakpoints"])
    print("files in", config["output"])
