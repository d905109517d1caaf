"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are pinned here and
match the library defaults; a red line here is a release blocker."""

import filecmp
import json
import os

import numpy as np
import scipy.linalg

from markovlens import signals as sg
from markovlens.cli import main as cli_main
from markovlens.cp_extension import (
    FeasibilityStatus,
    SubspaceMapSpec,
    extend_cp,
    verify_extension,
)
from markovlens.divisibility import (
    DivisibilityStatus,
    cp_divisibility_verdict,
    image_basis,
    limit_projector,
    make_grid,
    propagator,
    rank_profile,
)
from markovlens.dynamics import (
    canonical_gkls,
    generator_from_family,
    preset_amplitude_damping,
    preset_equilibrium_relaxation,
    preset_pauli_channel,
)
from markovlens.errors import SingularGeneratorError
from markovlens.operator_core import (
    GROUND_PROJECTOR,
    PAULI_Z,
    gram_schmidt_hermitian,
    hermitianize,
    trace_norm,
)
from markovlens.superop import (
    Superoperator,
    apply,
    compose,
    from_choi,
    is_cp,
    is_tp,
    superop_from_action,
    superop_from_kraus,
    to_choi,
)
from markovlens.witnesses import _naturals, _record_from_naturals, embed_delta, \
    witness_scan

from conftest import random_density, random_hermitian, random_kraus_set

GRID_POINTS = 400


def report(n, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:2d} {name}: {state}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n} ({name}) failed: {detail}"


def ad_clipped():
    return preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2),
                                    t_max=np.pi)


def pauli_two_breakpoints():
    lam12 = sg.piecewise_linear([(0, 1), (1, 0), (3, 0)])
    lam3 = sg.piecewise_linear([(0, 1), (1, 1), (2, 0), (3, 0)])
    return preset_pauli_channel(lambdas=[lam12, lam12, lam3], t_max=3.0)


def pauli_frozen():
    lam12 = sg.piecewise_linear([(0, 1), (1, 0), (3, 0)])
    return preset_pauli_channel(lambdas=[lam12, lam12, sg.constant(1.0)],
                                t_max=3.0)


def equilibrium(omega):
    return preset_equilibrium_relaxation(
        omega, sg.piecewise_linear([(0, 0), (1, 1), (2, 1)]), t_max=2.0)


def projector_checks(pi: Superoperator, tol: float):
    idem = float(np.linalg.norm(pi.natural @ pi.natural - pi.natural))
    _, tp_res = is_tp(pi, tol=tol)
    _, cp_lo = is_cp(pi, tol=tol)
    return idem <= tol and tp_res <= tol and cp_lo >= -tol, \
        f"idem {idem:.1e}, tp {tp_res:.1e}, choi {cp_lo:.1e}"


def test_criterion_1_example1_projector():
    fam = ad_clipped()
    rp = rank_profile(fam, make_grid(np.pi, GRID_POINTS))
    pi = limit_projector(fam, rp.breakpoints[0])
    target = superop_from_action(lambda x: GROUND_PROJECTOR * np.trace(x), 2)
    dist = float(np.linalg.norm(pi.natural - target.natural))
    checks_ok, detail = projector_checks(pi, 1e-7)
    report(1, "ground-state limit projector", dist <= 1e-6 and checks_ok,
           f"HS distance {dist:.2e}; {detail}")


def test_criterion_2_example1_rates():
    fam = preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2),
                                   t_max=1.45)
    worst = 0.0
    for t in np.linspace(0.1, 1.4, 27):
        dec = canonical_gkls(generator_from_family(fam, float(t), h=1e-3))
        worst = max(worst, abs(float(dec.rates[0]) - 2 * np.tan(t)))
    fam_full = ad_clipped()
    try:
        generator_from_family(fam_full, np.pi / 2)
        singular_fired = False
    except SingularGeneratorError:
        singular_fired = True
    report(2, "tangent rate extraction", worst <= 1e-4 and singular_fired,
           f"max |gamma - 2 tan t| = {worst:.2e}; singular error fired: "
           f"{singular_fired}")


def test_criterion_3_example2_projectors():
    fam = pauli_two_breakpoints()
    rp = rank_profile(fam, make_grid(3.0, GRID_POINTS))
    assert len(rp.breakpoints) == 2
    pi1 = limit_projector(fam, rp.breakpoints[0])
    pi2 = limit_projector(fam, rp.breakpoints[1])
    deph = superop_from_action(lambda x: 0.5 * (x + PAULI_Z @ x @ PAULI_Z), 2)
    depol = superop_from_action(lambda x: 0.5 * np.eye(2) * np.trace(x), 2)
    d1 = float(np.linalg.norm(pi1.natural - deph.natural))
    d2 = float(np.linalg.norm(pi2.natural - depol.natural))
    report(3, "dephasing and depolarizing projectors", d1 <= 1e-6 and d2 <= 1e-6,
           f"HS distances {d1:.2e}, {d2:.2e}")


def test_criterion_4_example2_verdict():
    fam = pauli_frozen()
    verdict = cp_divisibility_verdict(fam, make_grid(3.0, GRID_POINTS))
    try:
        generator_from_family(fam, 1.0000006)
        singular_fired = False
    except SingularGeneratorError:
        singular_fired = True
    report(4, "singular generator still CP-divisible",
           verdict.status is DivisibilityStatus.CP_DIVISIBLE and singular_fired,
           f"status {verdict.status.value}; generator singular at t1: "
           f"{singular_fired}")


def test_criterion_5_equilibrium_relaxation():
    rng = np.random.default_rng(17)
    omega = random_density(rng, 2)
    fam = equilibrium(omega)
    rp = rank_profile(fam, make_grid(2.0, GRID_POINTS))
    pi = limit_projector(fam, rp.breakpoints[0])
    target = superop_from_action(lambda x: omega * np.trace(x), 2)
    dist = float(np.linalg.norm(pi.natural - target.natural))
    v_mono = cp_divisibility_verdict(fam, make_grid(2.0, GRID_POINTS))

    f_dip = sg.piecewise_linear([(0, 0), (1, 1), (1.5, 0.8), (2, 1)])
    fam_dip = preset_equilibrium_relaxation(omega, f_dip, t_max=2.0)
    v_dip = cp_divisibility_verdict(fam_dip, make_grid(2.0, GRID_POINTS))
    ok = (dist <= 1e-6
          and v_mono.status is DivisibilityStatus.CP_DIVISIBLE
          and v_dip.status is not DivisibilityStatus.CP_DIVISIBLE)
    report(5, "relaxation projector and monotonicity flip", ok,
           f"HS distance {dist:.2e}; monotone {v_mono.status.value}, "
           f"dip {v_dip.status.value}")


def test_criterion_6_scan_verdict_consistency():
    rng = np.random.default_rng(23)
    cp_divisible = {
        "ad_clipped": ad_clipped(),
        "pauli_frozen": pauli_frozen(),
        "pauli_two_bp": pauli_two_breakpoints(),
        "equilibrium": equilibrium(random_density(rng, 2)),
    }
    worst_quiet = -np.inf
    for name, fam in cp_divisible.items():
        times = np.linspace(0.0, fam.t_max, GRID_POINTS)
        for kind in ("none", "d", "d_plus_1"):
            rec = witness_scan(fam, times, ancilla_kind=kind, n_samples=64,
                               n_refine=0, seed=101)
            worst_quiet = max(worst_quiet, rec.max_backflow)

    fam_sin = preset_amplitude_damping(gamma=sg.sinusoidal(1.0, 1.0),
                                       t_max=2 * np.pi)
    times = np.linspace(0.0, 2 * np.pi, GRID_POINTS)
    rec = witness_scan(fam_sin, times, ancilla_kind="d", n_samples=64,
                       n_refine=4, seed=101)
    verdict = cp_divisibility_verdict(fam_sin, make_grid(2 * np.pi, GRID_POINTS))
    ok = (worst_quiet <= 1e-6
          and rec.max_backflow > 1e-3
          and np.pi < rec.max_backflow_time < 2 * np.pi
          and verdict.status is not DivisibilityStatus.CP_DIVISIBLE
          and verdict.worst_choi_min_eig < -1e-4)
    report(6, "witness scans consistent with verdicts", ok,
           f"quiet max {worst_quiet:.2e}; violation {rec.max_backflow:.2e} at "
           f"t={rec.max_backflow_time:.3f}; verdict {verdict.status.value} with "
           f"choi {verdict.worst_choi_min_eig:.2e}")


def test_criterion_7_delta_embedding_identity():
    rng = np.random.default_rng(31)
    fam = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0)
    times = np.linspace(0.0, 3.0, GRID_POINTS)
    nats = _naturals(fam, times)
    worst = 0.0
    for _ in range(100):
        x = random_hermitian(rng, 4)
        rho_s = random_density(rng, 2)
        rec_x = _record_from_naturals(nats, x, "d", times)
        rec_d = _record_from_naturals(nats, embed_delta(x, rho_s),
                                      "d_plus_1", times)
        worst = max(worst, float(np.max(np.abs(
            rec_d.norms - rec_x.norms - abs(np.trace(x))))))
    report(7, "ancilla-extension norm split", worst <= 1e-9,
           f"max pointwise deviation {worst:.2e}")


def test_criterion_8_contraction_positivity_suite():
    rng = np.random.default_rng(41)
    transpose = superop_from_action(lambda x: x.T, 2)
    worst = np.inf
    for _ in range(500):
        k = int(rng.integers(1, 5))
        spanning = [random_density(rng, 2) for _ in range(k)]
        gram_schmidt_hermitian(spanning)  # the subspace exists and is PSD-spanned
        s = superop_from_kraus(random_kraus_set(rng, 2, int(rng.integers(1, 4))), 2)
        if rng.uniform() < 0.5:
            s = compose(s, transpose)  # positive TP, not CP
        weights = rng.dirichlet(np.ones(k))
        x = sum(w * r for w, r in zip(weights, spanning))
        out = apply(s, x)
        worst = min(worst, float(np.linalg.eigvalsh(hermitianize(out))[0]))
    report(8, "TP contractions stay positive on PSD inputs", worst >= -1e-8,
           f"min output eigenvalue {worst:.2e}")


def test_criterion_9_cptp_extension_feasibility():
    rng = np.random.default_rng(43)
    omega = random_density(rng, 2)
    cases = {
        "ad_clipped": (ad_clipped(), np.pi,
                       superop_from_action(lambda x: GROUND_PROJECTOR * np.trace(x), 2)),
        "pauli_frozen": (pauli_frozen(), 3.0,
                         superop_from_action(
                             lambda x: 0.5 * (x + PAULI_Z @ x @ PAULI_Z), 2)),
        "equilibrium": (equilibrium(omega), 2.0,
                        superop_from_action(lambda x: omega * np.trace(x), 2)),
    }
    ok = True
    details = []
    for name, (fam, t_max, certificate) in cases.items():
        rp = rank_profile(fam, make_grid(t_max, GRID_POINTS))
        t_star = rp.breakpoints[0]
        basis = image_basis(fam.evaluate(t_star))
        spec = SubspaceMapSpec(domain=basis,
                               images=tuple(g.copy() for g in basis.elements),
                               dim=2, require_tp=True)
        res = extend_cp(spec, max_iter=5000)
        solver_ok = (res.status is FeasibilityStatus.FEASIBLE
                     and res.iterations <= 5000
                     and verify_extension(res.choi, spec, tol=1e-7)["ok"])
        cert_ok = verify_extension(to_choi(certificate), spec, tol=1e-7)["ok"]
        ok = ok and solver_ok and cert_ok
        details.append(f"{name}: solver {res.status.value} in {res.iterations}, "
                       f"certificate ok {cert_ok}")
    report(9, "CPTP extensions at breakpoints", ok, "; ".join(details))


def test_criterion_10_oracle_equivalences():
    rng = np.random.default_rng(47)

    worst_tn = 0.0
    for _ in range(10_000):
        d = int(rng.integers(2, 5))
        a = random_hermitian(rng, d)
        oracle = float(np.sum(scipy.linalg.svdvals(a)))
        worst_tn = max(worst_tn, abs(trace_norm(a) - oracle) / oracle)

    worst_choi = 0.0
    for _ in range(100):
        nat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        s = Superoperator(dim=2, natural=nat)
        worst_choi = max(worst_choi, float(np.max(np.abs(
            from_choi(to_choi(s)).natural - s.natural))))

    worst_kraus = 0.0
    from markovlens.superop import kraus_from_choi
    for _ in range(50):
        ops = random_kraus_set(rng, 2, int(rng.integers(1, 5)))
        s = superop_from_kraus(ops, 2)
        rebuilt = superop_from_kraus(kraus_from_choi(to_choi(s)), 2)
        worst_kraus = max(worst_kraus, float(np.max(np.abs(
            rebuilt.natural - s.natural))))

    worst_comp = 0.0
    presets = [
        preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0),
        ad_clipped(),
        pauli_frozen(),
        equilibrium(random_density(rng, 2)),
    ]
    for fam in presets:
        times = np.linspace(0.0, fam.t_max, GRID_POINTS)
        for s_t, t_t in zip(times[:-1], times[1:]):
            pr = propagator(fam, float(t_t), float(s_t))
            worst_comp = max(worst_comp, pr.composition_residual)

    ok = (worst_tn <= 1e-10 and worst_choi <= 1e-12 and worst_kraus <= 1e-8
          and worst_comp <= 1e-8)
    report(10, "oracle equivalences", ok,
           f"trace-norm rel {worst_tn:.2e}; choi {worst_choi:.2e}; "
           f"kraus {worst_kraus:.2e}; composition {worst_comp:.2e}")


def test_criterion_11_cli_determinism(tmp_path):
    config = {
        "family": {"preset": "amplitude_damping",
                   "params": {"g": {"kind": "cosine_clipped", "omega": 1.0,
                                    "t_star": 1.5707963267948966}}},
        "grid": {"t_max": 3.141592653589793, "n_points": GRID_POINTS},
        "tasks": ["verdict", "rates", "blp", "witness_scan", "extend"],
        "witness": {"ancilla_kind": "d", "n_samples": 8, "n_refine": 2,
                    "seed": 7},
        "output": "",
    }
    outs = []
    for tag in ("one", "two"):
        cfg = dict(config)
        cfg["output"] = str(tmp_path / f"out_{tag}")
        cfg_path = tmp_path / f"cfg_{tag}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["analyze", "--config", str(cfg_path)]) == 0
        assert cli_main(["witness-scan", "--config", str(cfg_path)]) == 0
        assert cli_main(["extend", "--config", str(cfg_path)]) == 0
        assert cli_main(["report", "--in", cfg["output"]]) == 0
        outs.append(cfg["output"])

    names = sorted(os.listdir(outs[0]))
    same_names = names == sorted(os.listdir(outs[1]))
    match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names,
                                               shallow=False)
    ok = same_names and mismatch == [] and errors == []
    report(11, "byte-identical CLI reruns", ok,
           f"{len(names)} artifacts compared; mismatches {mismatch}")
