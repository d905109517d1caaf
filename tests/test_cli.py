import csv
import dataclasses
import filecmp
import io
import json
import os
import re
import stat
import sys
import tempfile
import threading
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovlens import cli, cp_extension, witnesses
from markovlens import signals as sg
from markovlens.cli import main
from markovlens.config import AnalysisConfig, load_config, matrix_from_json, matrix_to_json, \
    parse_config, signal_from_json, validate_verdict_report
from markovlens.dynamics import canonical_gkls, generator_from_family
from markovlens.errors import ConfigError, NumericalError, SingularGeneratorError
from markovlens.operator_core import PAULI_Z, gram_schmidt_hermitian
from markovlens.reports import read_json, write_csv, write_json

from conftest import RECURRING_DROP_KNOTS


def write_config(path, **overrides):
    cfg = {
        "family": {"preset": "amplitude_damping",
                   "params": {"g": {"kind": "cosine_clipped", "omega": 1.0,
                                    "t_star": 1.5707963267948966}}},
        "grid": {"t_max": 3.141592653589793, "n_points": 101},
        "tasks": ["verdict", "rates", "blp", "witness_scan", "extend"],
        "witness": {"ancilla_kind": "d", "n_samples": 6, "n_refine": 2, "seed": 11},
        "output": str(path.parent / "out"),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def test_matrix_json_round_trip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)


def test_analyze_writes_all_artifacts(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["analyze", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    for name in ("verdict.json", "rank_profile.csv", "rates.csv",
                 "rates_summary.json", "blp.json", "blp_trajectory.csv",
                 "best_witness.json", "witness_trajectory.csv",
                 "feasibility.json"):
        assert (out / name).exists(), name

    verdict = read_json(out / "verdict.json")
    validate_verdict_report(verdict)
    assert verdict["status"] == "CP_DIVISIBLE"
    assert len(verdict["evidence"]["breakpoints"]) == 1

    feas = read_json(out / "feasibility.json")
    assert feas["results"][0]["status"] == "FEASIBLE"
    assert (out / feas["results"][0]["choi_file"]).exists()

    rates_summary = read_json(out / "rates_summary.json")
    assert rates_summary["n_regular"] > 0
    assert len(rates_summary["singular_times"]) > 0


def test_rank_profile_csv_shape(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tasks=["verdict"])
    assert main(["analyze", "--config", str(cfg_path)]) == 0
    with open(tmp_path / "out" / "rank_profile.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "sigma_1", "sigma_2", "sigma_3", "sigma_4", "rank"]
    assert len(rows) == 102
    # 17-significant-digit floats survive the round trip exactly
    val = float(rows[5][1])
    assert format(val, ".17g") == rows[5][1]


def test_witness_csv_has_empty_endpoint_derivatives(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tasks=["witness_scan"])
    assert main(["analyze", "--config", str(cfg_path)]) == 0
    with open(tmp_path / "out" / "witness_trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "norm", "derivative"]
    assert rows[1][2] == "" and rows[-1][2] == ""
    assert rows[2][2] != ""


def test_bit_identical_reruns(tmp_path):
    cfg_a = tmp_path / "a.json"
    write_config(cfg_a, output=str(tmp_path / "out_a"),
                 grid={"t_max": 3.141592653589793, "n_points": 61})
    cfg_b = tmp_path / "b.json"
    write_config(cfg_b, output=str(tmp_path / "out_b"),
                 grid={"t_max": 3.141592653589793, "n_points": 61})
    assert main(["analyze", "--config", str(cfg_a)]) == 0
    assert main(["analyze", "--config", str(cfg_b)]) == 0
    names = sorted(os.listdir(tmp_path / "out_a"))
    assert names == sorted(os.listdir(tmp_path / "out_b"))
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "out_a", tmp_path / "out_b", names, shallow=False)
    assert mismatch == [] and errors == []


def test_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tasks=["witness_scan"])
    assert main(["analyze", "--config", str(cfg_path), "--seed", "99"]) == 0
    best = read_json(tmp_path / "out" / "best_witness.json")
    assert best["seed"] == 99

    # P-divisible Pauli channel: the verdict's sampled evidence follows the seed
    knots = [[float(t), float(-np.tanh(t))] for t in np.linspace(0.0, 2.0, 11)]
    write_config(cfg_path, tasks=["verdict"],
                 family={"preset": "pauli_channel",
                         "params": {"gammas": [{"kind": "constant", "value": 1.0},
                                               {"kind": "constant", "value": 1.0},
                                               {"kind": "piecewise_linear",
                                                "knots": knots}]}},
                 grid={"t_max": 2.0, "n_points": 101})
    p_min = []
    for seed in ("1", "2"):
        out = tmp_path / f"verdict_seed{seed}"
        assert main(["analyze", "--config", str(cfg_path), "--seed", seed,
                     "--out", str(out)]) == 0
        verdict = read_json(out / "verdict.json")
        assert verdict["status"] == "P_DIVISIBLE"
        p_min.append(verdict["evidence"]["p_sampling_min_eig"])
    assert p_min[0] != p_min[1]


def test_unknown_preset_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "family": {"preset": "bogus", "params": {}},
        "grid": {"t_max": 1.0}, "tasks": ["verdict"], "output": str(tmp_path)}))
    assert main(["analyze", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "amplitude_damping" in err and "pauli_channel" in err


def test_unknown_key_exit_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    cfg["surprise"] = True
    cfg_path.write_text(json.dumps(cfg))
    assert main(["analyze", "--config", str(cfg_path)]) == 2


def test_family_dim_is_an_unknown_key_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    cfg["family"]["dim"] = 2  # the preset fixes the dimension
    cfg_path.write_text(json.dumps(cfg))
    assert main(["analyze", "--config", str(cfg_path)]) == 2
    assert "dim" in capsys.readouterr().err


def test_cached_validators_raise_what_jsonschema_validate_raises(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    invalid = [
        ("config.schema.json", {**cfg, "family": {"preset": "bogus", "params": {}}}),
        ("config.schema.json", {**cfg, "surprise": True}),
        ("config.schema.json", {**cfg, "grid": {"t_max": "long", "n_points": 0}}),
        ("config.schema.json", {k: v for k, v in cfg.items() if k != "tasks"}),
        ("verdict.schema.json", {"status": "MAYBE"}),
    ]
    for name, raw in invalid * 2:  # the second round reuses the cached validators
        schema = json.loads(resources.files("markovlens.schemas").joinpath(name).read_text())
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(raw, schema)
        if name == "config.schema.json":
            with pytest.raises(ConfigError, match=re.escape(ref.value.message)) as wrapped:
                parse_config(raw)
            got = wrapped.value.__cause__
        else:
            with pytest.raises(jsonschema.ValidationError) as raised:
                validate_verdict_report(raw)
            got = raised.value
        assert str(got) == str(ref.value)
        assert list(got.absolute_path) == list(ref.value.absolute_path)


def test_every_shipped_schema_passes_its_metaschema():
    files = [f for f in resources.files("markovlens.schemas").iterdir()
             if f.name.endswith(".json")]
    assert {f.name for f in files} >= {"config.schema.json", "verdict.schema.json"}
    for f in files:
        schema = json.loads(f.read_text())
        jsonschema.validators.validator_for(schema).check_schema(schema)


def test_missing_config_exit_2(tmp_path):
    assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2


def test_numerical_failure_exit_3(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, family={
        "preset": "pauli_channel",
        "params": {"gammas": [{"kind": "constant", "value": -1.0},
                              {"kind": "constant", "value": 0.0},
                              {"kind": "constant", "value": 0.0}]}},
        tasks=["verdict"])
    assert main(["analyze", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "stage" in err


def test_breakpoint_cap_exit_3_names_the_stage(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, family={
        "preset": "amplitude_damping",
        "params": {"g": {"kind": "piecewise_linear", "knots": RECURRING_DROP_KNOTS}}},
        grid={"t_max": 10.2, "n_points": 400}, tasks=["verdict"])
    assert main(["analyze", "--config", str(cfg_path)]) == 3
    assert "[stage: rank_profile]" in capsys.readouterr().err


def test_config_builds_every_signal_kind_explicit_times_and_relaxation():
    for spec, signal in [
            ({"kind": "constant", "value": 0.7}, sg.constant(0.7)),
            ({"kind": "exp_decay", "rate": 0.5}, sg.exp_decay(0.5)),
            ({"kind": "cosine_clipped", "omega": 1.0, "t_star": 1.5}, sg.cosine_clipped(1.0, 1.5)),
            ({"kind": "sinusoidal", "amplitude": 1.3, "omega": 2.0}, sg.sinusoidal(1.3, 2.0)),
            ({"kind": "sinusoidal", "amplitude": 1.3, "omega": 2.0, "phase": 0.4, "offset": -0.2},
             sg.sinusoidal(1.3, 2.0, 0.4, -0.2)),
            ({"kind": "inverse_gap", "t1": 2.0}, sg.inverse_gap(2.0)),
            ({"kind": "piecewise_linear", "knots": [[0, 0], [1, 1]]},
             sg.piecewise_linear([(0, 0), (1, 1)]))]:
        assert signal_from_json(spec) == signal  # same kind and params

    omega = np.diag([0.25, 0.75]).astype(complex)
    raw = {"family": {"preset": "equilibrium_relaxation",
                      "params": {"omega": matrix_to_json(omega),
                                 "f": {"kind": "piecewise_linear", "knots": [[0, 0], [1, 1]]}}},
           "grid": {"t_max": 1.0, "times": [0.0, 0.25, 0.5, 1.0]},
           "tasks": ["verdict"], "output": "unused"}
    config = parse_config(raw)
    assert np.array_equal(config.build_grid().times, [0.0, 0.25, 0.5, 1.0])
    family = config.build_family()
    assert (family.kind, family.dim) == ("equilibrium_relaxation", 2)
    assert np.allclose(family.evaluate(1.0).natural[:, 0], [0.25, 0, 0, 0.75])

    raw["family"]["params"]["f"] = {"kind": "exp_decay"}
    with pytest.raises(ConfigError, match="missing parameter 'rate'"):
        parse_config(raw).build_family()


def test_report_summarizes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tasks=["verdict"])
    assert main(["analyze", "--config", str(cfg_path)]) == 0
    assert main(["report", "--in", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "verdict.json" in out and "CP_DIVISIBLE" in out


PAULI_TWO_BREAKPOINTS = {
    "preset": "pauli_channel",
    "params": {"lambdas": [
        {"kind": "piecewise_linear", "knots": [[0, 1], [1, 0], [3, 0]]},
        {"kind": "piecewise_linear", "knots": [[0, 1], [1, 0], [3, 0]]},
        {"kind": "piecewise_linear", "knots": [[0, 1], [1, 1], [2, 0], [3, 0]]}]}}


def test_the_witness_scan_records_and_reports_its_certified_steps(tmp_path, capsys):
    # every step of this CP-divisible channel has a CPTP propagator or repeats its map
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, family=PAULI_TWO_BREAKPOINTS, grid={"t_max": 3.0, "n_points": 61})
    assert main(["witness-scan", "--config", str(cfg_path), "--out", str(tmp_path / "ws")]) == 0
    best = read_json(tmp_path / "ws" / "best_witness.json")
    assert best["certified_cptp_steps"] == 60 and best["no_violation_found"] is True
    assert main(["report", "--in", str(tmp_path / "ws")]) == 0
    assert "certified_cptp_steps=60" in capsys.readouterr().out


def test_report_empty_dir_exit_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--in", str(empty)]) == 2
    assert main(["report", "--in", str(tmp_path / "missing")]) == 2


@pytest.mark.parametrize("name, content", [
    ("verdict.json", '{"status": "CP_DIVISIBLE", "evid'), ("verdict.json", '{"foo": 1}'),
    ("verdict.json", '[]'), ("rates.csv", ""), ("rates.csv", "t,singular\n0.0,0")],
    ids=["truncated", "no_status", "not_an_object", "empty_csv", "csv_without_last_newline"])
def test_report_of_a_malformed_artifact_exit_2(tmp_path, capsys, name, content):
    (tmp_path / name).write_text(content)
    assert main(["report", "--in", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / name}: ")


def test_negative_seed_override_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tasks=["verdict"])
    assert main(["analyze", "--config", str(cfg_path), "--seed", "-1"]) == 2
    assert "config error: --seed must be non-negative and an integer, got -1" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["file", "under_a_file"])
def test_an_unusable_output_directory_is_a_config_error(tmp_path, capsys, monkeypatch, where):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    (tmp_path / "taken").write_text("not a directory")
    out = tmp_path / "taken" if where == "file" else tmp_path / "taken" / "out"
    started = []
    monkeypatch.setattr(cli, "witness_scan", lambda *a, **k: started.append(1))
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: output directory {str(out)!r} is not usable: ")
    assert not started and (tmp_path / "taken").read_text() == "not a directory"


@pytest.mark.parametrize("floats", [("n_samples",), ("n_refine",), ("seed",),
                                    ("n_samples", "n_refine", "seed")],
                         ids=["n_samples", "n_refine", "seed", "all"])
def test_integral_float_witness_options_run_as_their_integers(tmp_path, floats):
    # the schema's "integer" admits 4.0; the scan must see the integer 4
    witness = {"ancilla_kind": "d", "n_samples": 4, "n_refine": 2, "seed": 3}
    outs = {}
    for form, block in (("int", witness),
                        ("float", {**witness, **{k: float(witness[k]) for k in floats}})):
        cfg_path = tmp_path / f"{form}.json"
        write_config(cfg_path, tasks=["witness_scan"], witness=block,
                     output=str(tmp_path / form))
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        outs[form] = {name: (tmp_path / form / name).read_bytes()
                      for name in ("best_witness.json", "witness_trajectory.csv")}
    assert outs["float"] == outs["int"]


def test_witness_scan_subcommand(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tasks=["verdict"])  # subcommand overrides tasks
    assert main(["witness-scan", "--config", str(cfg_path),
                 "--out", str(tmp_path / "ws")]) == 0
    best = read_json(tmp_path / "ws" / "best_witness.json")
    assert best["no_violation_found"] is True


def test_extend_subcommand(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tasks=["verdict"])
    assert main(["extend", "--config", str(cfg_path),
                 "--out", str(tmp_path / "ex")]) == 0
    feas = read_json(tmp_path / "ex" / "feasibility.json")
    assert all(r["status"] == "FEASIBLE" for r in feas["results"])


def test_extend_records_and_reports_the_certificate_value(tmp_path, monkeypatch, capsys):
    # swap each probe for the non-extendable 1.5x expansion on span{I, sigma_z}
    basis = gram_schmidt_hermitian([np.eye(2), PAULI_Z])
    expanding = cp_extension.SubspaceMapSpec(
        domain=basis, images=(basis.elements[0].copy(), 1.5 * basis.elements[1]), dim=2)
    monkeypatch.setattr(cp_extension, "SubspaceMapSpec", lambda **kwargs: expanding)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tasks=["extend"])
    assert main(["extend", "--config", str(cfg_path), "--out", str(tmp_path / "ex")]) == 0
    (entry,) = read_json(tmp_path / "ex" / "feasibility.json")["results"]
    assert entry["status"] == "INFEASIBLE" and "choi_file" not in entry
    assert entry["certificate_value"] < 0.0
    assert main(["report", "--in", str(tmp_path / "ex")]) == 0
    assert f"INFEASIBLE(certificate_value={entry['certificate_value']:.3e})" \
        in capsys.readouterr().out


def test_extend_reuses_the_verdict_rank_profile(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tasks=["extend"])
    assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "alone")]) == 0

    def no_rank_profile(*args, **kwargs):
        raise AssertionError("extend rebuilt the rank profile")

    monkeypatch.setattr("markovlens.cli.rank_profile", no_rank_profile)
    write_config(cfg_path, tasks=["verdict", "extend"])
    assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "after")]) == 0
    assert ((tmp_path / "after" / "feasibility.json").read_bytes()
            == (tmp_path / "alone" / "feasibility.json").read_bytes())


def test_config_blp_states_round_trip(tmp_path):
    rho1 = matrix_to_json(np.diag([1.0, 0.0]).astype(complex))
    rho2 = matrix_to_json(np.diag([0.0, 1.0]).astype(complex))
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tasks=["blp"], blp={"rho1": rho1, "rho2": rho2})
    cfg = load_config(str(cfg_path))
    assert cfg.blp["rho1"] == rho1
    assert main(["analyze", "--config", str(cfg_path)]) == 0


@pytest.mark.parametrize("rho1, match", [
    ([[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "not trace one"),
    ([[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "non-finite"),
], ids=["trace_2", "nan"])
def test_invalid_blp_state_is_a_config_error(tmp_path, capsys, monkeypatch, rho1, match):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tasks=["verdict", "rates", "blp"],
                 blp={"rho1": rho1, "rho2": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})
    sizes = count_built_times(monkeypatch)
    assert main(["analyze", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: blp.rho1 is not a 2 x 2 density matrix") and match in err
    # rejected like any other config error: before the grid is built or a task runs
    assert sizes == [] and not (tmp_path / "out").exists()
    write_config(cfg_path, tasks=["verdict"],
                 blp={"rho1": rho1, "rho2": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})
    assert main(["analyze", "--config", str(cfg_path)]) == 0  # a run without blp never reads them


@pytest.mark.parametrize("given, missing", [("rho1", "rho2"), ("rho2", "rho1")])
def test_one_blp_state_is_a_config_error(tmp_path, capsys, given, missing):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tasks=["blp"],
                 blp={given: matrix_to_json(np.diag([1.0, 0.0]).astype(complex))})
    assert main(["analyze", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{missing}'" in err
    assert not (tmp_path / "out").exists()


def test_grid_times_past_t_max_are_a_config_error(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, grid={"t_max": 1.0, "times": [0.0, 0.5, 2.0]})
    sizes = count_built_times(monkeypatch)
    assert main(["analyze", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid.times [2.0]") and "[0, 1.0]" in err
    assert sizes == [] and not (tmp_path / "out").exists()
    # the family's own domain rule: a last time within its rounding slack of t_max runs
    write_config(cfg_path, grid={"t_max": 1.0, "times": [0.0, 0.5, 1.0 + 1e-13]})
    assert main(["analyze", "--config", str(cfg_path)]) == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_grid_times_are_a_config_error(tmp_path, capsys, monkeypatch, bad):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, grid={"t_max": 3.0, "times": [0.0, bad, 1.0, 2.0]})
    sizes = count_built_times(monkeypatch)
    assert main(["analyze", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid grid: grid times must be finite")
    assert sizes == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("signal, name", [
    ({"kind": "piecewise_linear", "knots": [[0, 1], [1, float("nan")], [2, 0.5]]}, "knots"),
    ({"kind": "exp_decay", "rate": float("inf")}, "rate"),
], ids=["nan_knot", "inf_rate"])
def test_non_finite_signal_parameters_are_a_config_error(tmp_path, capsys, signal, name):
    # json reads NaN and Infinity, and the schema's "number" lets them through
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, family={"preset": "amplitude_damping", "params": {"g": signal}})
    assert main(["analyze", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid family parameters: signal parameter {name} "
                          "must be finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("choi_tol", float("nan")), ("rank_rtol", float("nan")), ("tp_tol", float("inf")),
    ("fd_tol", float("nan")),
], ids=["choi_tol_nan", "rank_rtol_nan", "tp_tol_inf", "fd_tol_nan"])
def test_non_finite_tolerances_are_a_config_error(tmp_path, capsys, key, value):
    # the schema's exclusiveMinimum lets NaN and Infinity through; a NaN tolerance
    # used to change the verdict with exit 0
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tolerances={key: value})
    assert main(["analyze", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: tolerances.{key} must be finite and positive, got {value}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [1.0, 2.0])
def test_a_rank_cut_of_one_or_more_is_a_config_error(tmp_path, capsys, value):
    # the schema admits it; it used to cut every singular value, so an invertible
    # family read NOT_DIVISIBLE with exit 0
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tolerances={"rank_rtol": value}, tasks=["verdict"],
                 family={"preset": "amplitude_damping",
                         "params": {"g": {"kind": "exp_decay", "rate": 0.5}}},
                 grid={"t_max": 3.0, "n_points": 101})
    assert main(["analyze", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: tolerances.rank_rtol must be below 1, got {value}")
    assert not (tmp_path / "out").exists()


def count_built_times(monkeypatch):
    """Sizes of the calls to the analysed family's stack; every map the run builds, the
    grid, t +- h and single times alike, goes through it."""
    build, sizes = AnalysisConfig.build_family, []

    def counting_build(self):
        family = build(self)

        def counting(ts):
            sizes.append(len(ts))
            return family.stack(ts)

        return dataclasses.replace(family, stack=counting)

    monkeypatch.setattr(AnalysisConfig, "build_family", counting_build)
    return sizes


def test_analyze_evaluates_the_grid_once_and_matches_per_time_rates(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, grid={"t_max": 3.141592653589793, "n_points": 400})
    sizes = count_built_times(monkeypatch)
    assert main(["analyze", "--config", str(cfg_path)]) == 0
    monkeypatch.undo()
    # 400 grid maps shared by verdict, rates, blp and witness_scan, the
    # verdict's candidate time and limit projector, t +- h at the 200 regular
    # times and one extend probe: 805 today; building the grid again would add 400
    assert sizes.count(400) == 1
    assert sum(sizes) <= 1000

    config = load_config(str(cfg_path))
    family, grid = config.build_family(), config.build_grid()
    rows, singular, rejected = [], [], []
    for t in grid.times:
        try:
            gen = generator_from_family(family, float(t), rank_rtol=config.tolerances.rank_rtol)
            rows.append([float(t)] + [float(g) for g in canonical_gkls(gen).rates] + [0])
        except SingularGeneratorError:
            singular.append(float(t))
            rows.append([float(t)] + [None] * 3 + [1])
        except NumericalError:  # a regular map whose generator path fails
            rejected.append(float(t))
            rows.append([float(t)] + [None] * 3 + [0])
    ref = tmp_path / "ref"
    ref.mkdir()
    write_csv(str(ref / "rates.csv"), ["t", "gamma_1", "gamma_2", "gamma_3", "singular"], rows)
    write_json(str(ref / "rates_summary.json"),
               {"singular_times": singular, "rejected_times": rejected,
                "n_regular": len(rows) - len(singular) - len(rejected)})
    for name in ("rates.csv", "rates_summary.json"):
        assert (tmp_path / "out" / name).read_bytes() == (ref / name).read_bytes(), name


def test_extend_takes_the_run_shared_grid(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, grid={"t_max": 3.141592653589793, "n_points": 400}, tasks=["extend"])
    assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "alone")]) == 0
    write_config(cfg_path, grid={"t_max": 3.141592653589793, "n_points": 400},
                 tasks=["rates", "extend"])
    sizes = count_built_times(monkeypatch)
    assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "shared")]) == 0
    monkeypatch.undo()
    # 400 shared grid maps, t +- h at the 200 regular times for rates, and
    # extend's bisection and probe; evaluating the grid again would add 400
    assert sizes.count(400) == 1
    assert sum(sizes) <= 817
    assert ((tmp_path / "shared" / "feasibility.json").read_bytes()
            == (tmp_path / "alone" / "feasibility.json").read_bytes())


def test_rates_flagged_by_the_verdict_singular_values_match_their_own_svd(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    given_svals, rates = [], cli.canonical_rates

    def spying(*args, **kwargs):
        given_svals.append(kwargs.get("svals") is not None)
        return rates(*args, **kwargs)

    monkeypatch.setattr(cli, "canonical_rates", spying)
    for tasks in (["rates"], ["verdict", "rates"]):
        write_config(cfg_path, grid={"t_max": 3.141592653589793, "n_points": 400}, tasks=tasks)
        assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / tasks[0])]) == 0
    assert given_svals == [False, True]
    for name in ("rates.csv", "rates_summary.json"):
        alone, after_verdict = tmp_path / "rates" / name, tmp_path / "verdict" / name
        assert alone.read_bytes() == after_verdict.read_bytes(), name


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_get_the_mode_open_gives_under_the_umask(tmp_path, umask, mode):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    old = os.umask(umask)
    try:
        assert main(["analyze", "--config", str(cfg_path)]) == 0
    finally:
        os.umask(old)
    names = sorted(os.listdir(tmp_path / "out"))
    assert len(names) == 10 and all(name.endswith((".csv", ".json")) for name in names)
    modes = {name: stat.S_IMODE(os.stat(tmp_path / "out" / name).st_mode) for name in names}
    assert modes == dict.fromkeys(names, mode)


def csv_writer_reference(header, rows) -> str:
    """write_csv's text as csv.writer wrote it: one formatted list per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else format(float(v), ".17g") if isinstance(v, float)
                         else v for v in row])
    return buf.getvalue()


FLOAT_EDGES = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -2.2250738585072e-308,
               1e308, -1.7976931348623157e308]
CSV_CELLS = st.one_of(
    st.floats(), st.sampled_from(FLOAT_EDGES), st.sampled_from(FLOAT_EDGES).map(np.float64),
    st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(),
    st.none())


@settings(max_examples=200, deadline=None)
@given(header=st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
                       min_size=1, max_size=4),
       rows=st.lists(st.lists(CSV_CELLS, max_size=6), max_size=6))
def test_write_csv_writes_what_csv_writer_wrote(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        write_csv(path, header, rows)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == csv_writer_reference(header, rows)


def test_rates_list_regular_maps_rejected_for_another_reason_apart(tmp_path, capsys):
    # F leaves [0, 1] only on (0.302, 0.304): the map at t = 0.3 is invertible
    # (F = 0.894), but Lambda at t + h = 0.303 is not CP
    knots = [(0.0, 0.0), (0.302, 0.9), (0.303, 1.5), (0.304, 0.9), (3.0, 0.9)]
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tasks=["rates"], grid={"t_max": 3.0, "n_points": 61},
                 family={"preset": "equilibrium_relaxation",
                         "params": {"omega": matrix_to_json(np.diag([1.0, 0.0])),
                                    "f": {"kind": "piecewise_linear", "knots": knots}}})
    assert main(["analyze", "--config", str(cfg_path)]) == 0
    summary = read_json(tmp_path / "out" / "rates_summary.json")
    assert summary == {"singular_times": [], "rejected_times": [0.30000000000000004],
                       "n_regular": 60}
    with open(tmp_path / "out" / "rates.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[7] == ["0.30000000000000004", "", "", "", "0"]
    assert main(["report", "--in", str(tmp_path / "out")]) == 0
    assert "regular=60 singular=0 rejected=1" in capsys.readouterr().out


def scan_artifacts(outdir) -> dict:
    return {name: (outdir / name).read_bytes()
            for name in ("best_witness.json", "witness_trajectory.csv")}


def test_the_scan_runs_beside_the_other_tasks_with_the_bytes_of_a_scan_alone(tmp_path,
                                                                            monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tasks=["witness_scan"])
    threads = threading.active_count()
    assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "alone")]) == 0
    seen, scan = [], cli.witness_scan

    def spying(*args, **kwargs):
        seen.append((threading.current_thread() is threading.main_thread(),
                     kwargs["naturals"].flags.writeable))
        return scan(*args, **kwargs)

    monkeypatch.setattr(cli, "witness_scan", spying)
    write_config(cfg_path)
    assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "all")]) == 0
    assert seen == [(False, False)]  # on the worker, over the frozen grid maps
    assert scan_artifacts(tmp_path / "all") == scan_artifacts(tmp_path / "alone")
    assert threading.active_count() == threads


def test_a_failed_verdict_leaves_no_scan_artifacts(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    family = {"preset": "amplitude_damping",
              "params": {"g": {"kind": "piecewise_linear", "knots": RECURRING_DROP_KNOTS}}}
    grid, witness = {"t_max": 10.2, "n_points": 400}, {"ancilla_kind": "d_plus_1",
                                                        "n_samples": 64, "n_refine": 8}
    blocks, waits, trace_norms = [], [], witnesses._trace_norms

    def counting(*args):  # one call per witness block the worker scores
        if threading.current_thread() is not threading.main_thread():
            if waits and not blocks:  # hold the first block until the failed task stops the scan
                witnesses._worker.stop.wait(timeout=30)
            blocks.append(1)
        return trace_norms(*args)

    monkeypatch.setattr(witnesses, "_trace_norms", counting)
    write_config(cfg_path, family=family, grid=grid, witness=witness, tasks=["witness_scan"])
    assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "scan")]) == 0
    full, errs = len(blocks), {}
    waits.append(1)
    for tasks in (["verdict"], ["verdict", "rates", "blp", "witness_scan", "extend"]):
        write_config(cfg_path, family=family, grid=grid, witness=witness, tasks=tasks)
        threads = threading.active_count()
        blocks.clear()
        assert main(["analyze", "--config", str(cfg_path)]) == 3
        assert threading.active_count() == threads
        errs[len(tasks)] = capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []
    assert "[stage: rank_profile]" in errs[5] and errs[5] == errs[1]
    # 10 blocks of the 64 samples on the 228 times that uncertified steps read, 8 refinement
    # steps and the winner's record over all times
    assert full == 19 and len(blocks) < full  # the scan stopped at its next block


def test_a_failed_scan_exits_3_at_its_own_place_in_the_task_order(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise NumericalError("no trajectory", stage="witness_scan", time=0.5)

    monkeypatch.setattr(cli, "witness_scan", failing)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    threads = threading.active_count()
    assert main(["analyze", "--config", str(cfg_path)]) == 3
    assert threading.active_count() == threads
    assert capsys.readouterr().err == \
        "numerical failure [stage: witness_scan] [t=0.5]: no trajectory\n"
    assert sorted(os.listdir(tmp_path / "out")) == [
        "blp.json", "blp_trajectory.csv", "rank_profile.csv", "rates.csv", "rates_summary.json",
        "verdict.json"]


def test_threads_that_miss_one_draw_cache_key_at_once_get_equal_draws():
    # the verdict's P-probe and the scan can miss on one draw cache key at once
    from markovlens import divisibility, witnesses

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cache, key in ((witnesses._seeded_witnesses, (5, 12, 3, 6)),
                           (divisibility._pure_states, (5, 40, 6))):
            cache.cache_clear()
            draws = []
            workers = [threading.Thread(target=lambda: draws.append(cache(*key)))
                       for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert not any(w.is_alive() for w in workers) and len(draws) == 8
            flat = [np.concatenate([np.ravel(a) for a in d]) if isinstance(d, tuple) else d
                    for d in draws]
            assert all(np.array_equal(f, flat[0]) for f in flat)
    finally:
        sys.setswitchinterval(switch)
