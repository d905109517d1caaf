import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovlens import divisibility, steps, witnesses
from markovlens import signals as sg
from markovlens.divisibility import VerdictTolerances, cp_divisibility_verdict
from markovlens.dynamics import (
    MapFamily,
    preset_amplitude_damping,
    preset_equilibrium_relaxation,
    preset_pauli_channel,
)
from markovlens.operator_core import PAULI_X, hermitianize, trace_norm
from markovlens.superop import apply_extended
from markovlens.witnesses import (
    ANCILLA_KINDS,
    BLOCK_ENTRIES,
    WitnessRecord,
    _best_record,
    _gaussian_witnesses,
    _naturals,
    _trajectory_norms,
    blp_sigma,
    enlarged_ancilla_witness,
    embed_delta,
    helstrom_witness,
    witness_scan,
)

from conftest import random_density, random_hermitian


def ad_exp(t_max=3.0):
    return preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=t_max)


def ad_sin(t_max=2 * np.pi):
    return preset_amplitude_damping(gamma=sg.sinusoidal(1.0, 1.0), t_max=t_max)


def test_blp_equal_states_is_zero(rng):
    rho = random_density(rng, 2)
    rec = blp_sigma(ad_exp(), rho, rho.copy(), np.linspace(0, 3, 60))
    assert np.allclose(rec.norms, 0.0, atol=1e-13)
    assert rec.max_backflow <= 1e-12


def test_blp_amplitude_damping_closed_form():
    rho1 = 0.5 * (np.eye(2) + PAULI_X)
    rho2 = 0.5 * (np.eye(2) - PAULI_X)
    times = np.linspace(0, 3, 120)
    rec = blp_sigma(ad_exp(), rho1, rho2, times)
    assert np.allclose(rec.norms, 2 * np.exp(-times / 2), atol=1e-12)
    assert rec.max_backflow < 0  # strictly decreasing trajectory
    assert len(rec.derivatives) == len(times) - 2


def test_blp_detects_backflow_for_negative_rates():
    rho1 = 0.5 * (np.eye(2) + PAULI_X)
    rho2 = 0.5 * (np.eye(2) - PAULI_X)
    times = np.linspace(0, 2 * np.pi, 240)
    rec = blp_sigma(ad_sin(), rho1, rho2, times)
    # ||Lambda_t sigma_x||_1 = 2 exp(-(1-cos t)/2) rises where sin t < 0
    assert rec.max_backflow > 1e-2
    assert np.pi < rec.max_backflow_time < 2 * np.pi


def test_blp_is_helstrom_special_case(rng):
    rho1 = random_density(rng, 2)
    rho2 = random_density(rng, 2)
    times = np.linspace(0, 3, 50)
    rec_blp = blp_sigma(ad_exp(), rho1, rho2, times)
    rec_hel = helstrom_witness(ad_exp(), rho1 - rho2, "none", times)
    assert np.max(np.abs(rec_blp.norms - rec_hel.norms)) < 1e-12


def test_helstrom_zero_witness():
    rec = helstrom_witness(ad_exp(), np.zeros((4, 4)), "d", np.linspace(0, 3, 40))
    assert np.allclose(rec.norms, 0.0)


def test_helstrom_entangled_witness_monotone():
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1 / np.sqrt(2)
    x = np.outer(omega, omega.conj())
    times = np.linspace(0, 3, 100)
    rec = helstrom_witness(ad_exp(), x, "d", times)
    assert rec.norms[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(rec.norms) <= 1e-12)


def test_helstrom_dimension_check():
    with pytest.raises(ValueError, match="inconsistent"):
        helstrom_witness(ad_exp(), np.zeros((3, 3)), "d", np.linspace(0, 1, 10))


def test_helstrom_detects_ancilla_backflow():
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1 / np.sqrt(2)
    x = np.outer(omega, omega.conj()) - np.eye(4) / 4
    times = np.linspace(0, 2 * np.pi, 240)
    rec = helstrom_witness(ad_sin(), x, "d", times)
    assert rec.max_backflow > 1e-3
    assert np.pi < rec.max_backflow_time < 2 * np.pi


def test_embed_delta_traceless_block():
    rng = np.random.default_rng(4)
    x = random_hermitian(rng, 4)
    rho_s = random_density(rng, 2)
    delta = embed_delta(x, rho_s)
    assert delta.shape == (6, 6)
    assert abs(np.trace(delta)) == 0.0
    assert np.allclose(delta[:4, :4], x)
    assert np.allclose(delta[4:, 4:], -np.trace(x) * rho_s)


def test_embed_delta_traceless_input_pads():
    rng = np.random.default_rng(5)
    x = random_hermitian(rng, 4)
    x -= np.trace(x) / 4 * np.eye(4)
    delta = embed_delta(x, random_density(rng, 2))
    assert np.allclose(delta[4:, 4:], 0.0, atol=1e-14)


def test_embed_delta_maximally_entangled_block():
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1 / np.sqrt(2)
    x = np.outer(omega, omega.conj())
    delta = embed_delta(x, np.eye(2) / 2)
    assert np.allclose(delta[4:, 4:], -0.5 * np.eye(2) / 1.0 * 1.0, atol=1e-14)
    assert abs(np.trace(delta)) == 0.0


def test_delta_norm_splitting_identity(rng):
    fam = ad_exp()
    times = np.linspace(0, 3, 40)
    for _ in range(10):
        x = random_hermitian(rng, 4)
        rho_s = random_density(rng, 2)
        rec_x = helstrom_witness(fam, x, "d", times)
        rec_d = helstrom_witness(fam, embed_delta(x, rho_s), "d_plus_1", times)
        assert np.max(np.abs(rec_d.norms - rec_x.norms
                             - abs(np.trace(x)))) < 1e-9


def test_enlarged_pair_equal_states_zero(rng):
    rho = random_density(rng, 6)
    rec = enlarged_ancilla_witness(ad_exp(), rho, rho.copy(), np.linspace(0, 3, 30))
    assert np.allclose(rec.norms, 0.0, atol=1e-12)


def test_enlarged_pair_from_embedding_matches_helstrom(rng):
    fam = ad_exp()
    times = np.linspace(0, 3, 40)
    x = random_hermitian(rng, 4)
    delta = embed_delta(x, random_density(rng, 2))
    w, v = np.linalg.eigh(delta)
    pos = (v * np.clip(w, 0, None)) @ v.conj().T
    neg = (v * np.clip(-w, 0, None)) @ v.conj().T
    c = float(np.trace(pos).real)
    rec_pair = enlarged_ancilla_witness(fam, pos / c, neg / c, times)
    rec_x = helstrom_witness(fam, x, "d", times)
    assert np.max(np.abs(c * rec_pair.norms - rec_x.norms
                         - abs(np.trace(x)))) < 1e-9


def test_enlarged_pair_nonincreasing_for_cp_divisible(rng):
    fam = ad_exp()
    times = np.linspace(0, 3, 100)
    rho1 = random_density(rng, 6)
    rho2 = random_density(rng, 6)
    rec = enlarged_ancilla_witness(fam, rho1, rho2, times)
    spacing = float(times[1] - times[0])
    assert rec.max_backflow <= 1e-6 + 10 * spacing ** 2


def test_trajectory_invariances(rng):
    fam = ad_exp()
    times = np.linspace(0, 3, 30)
    x = random_hermitian(rng, 4)
    base = helstrom_witness(fam, x, "d", times)
    flipped = helstrom_witness(fam, -x, "d", times)
    assert np.allclose(base.norms, flipped.norms, atol=1e-12)
    scaled = helstrom_witness(fam, 2.5 * x, "d", times)
    assert np.allclose(scaled.norms, 2.5 * base.norms, atol=1e-11)


def test_scan_identity_family_quiet():
    fam = preset_pauli_channel(gammas=[sg.constant(0.0)] * 3, t_max=1.0)
    times = np.linspace(0, 1, 60)
    for seed in (0, 1, 7):
        rec = witness_scan(fam, times, ancilla_kind="d", n_samples=8,
                           n_refine=2, seed=seed)
        assert abs(rec.max_backflow) <= 1e-10


def test_scan_finds_known_violation():
    times = np.linspace(0, 2 * np.pi, 200)
    rec = witness_scan(ad_sin(), times, ancilla_kind="d", n_samples=64,
                       n_refine=4, seed=1)
    assert rec.max_backflow > 1e-3
    assert np.pi < rec.max_backflow_time < 2 * np.pi
    assert trace_norm(hermitianize(rec.witness)) == pytest.approx(1.0, abs=1e-9)


def test_scan_clipped_family_no_violation():
    fam = preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2),
                                   t_max=np.pi)
    times = np.linspace(0, np.pi, 150)
    rec = witness_scan(fam, times, ancilla_kind="d", n_samples=32, n_refine=2,
                       seed=5)
    assert rec.max_backflow <= 1e-6


def test_scan_deterministic():
    times = np.linspace(0, 2 * np.pi, 80)
    a = witness_scan(ad_sin(), times, ancilla_kind="none", n_samples=6,
                     n_refine=3, seed=42)
    b = witness_scan(ad_sin(), times, ancilla_kind="none", n_samples=6,
                     n_refine=3, seed=42)
    assert np.array_equal(a.witness, b.witness)
    assert a.max_backflow == b.max_backflow


def test_scan_refinement_monotone_under_grid_refinement():
    coarse = np.linspace(0, 2 * np.pi, 60)
    fine = np.linspace(0, 2 * np.pi, 240)
    rec_c = witness_scan(ad_sin(), coarse, ancilla_kind="none", n_samples=12,
                         n_refine=0, seed=8)
    rec_f = witness_scan(ad_sin(), fine, ancilla_kind="none", n_samples=12,
                         n_refine=0, seed=8)
    fd_tol = 10 * float(coarse[1] - coarse[0]) ** 2
    assert rec_f.max_backflow >= rec_c.max_backflow - fd_tol


def test_kink_flagging_on_clip():
    fam = preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2),
                                   t_max=np.pi)
    rho1 = 0.5 * (np.eye(2) + PAULI_X)
    rho2 = 0.5 * (np.eye(2) - PAULI_X)
    times = np.linspace(0, np.pi, 100)
    rec = blp_sigma(fam, rho1, rho2, times)
    assert any(abs(t - np.pi / 2) < 0.1 for t in rec.kink_times)


def qutrit_equilibrium():
    omega = random_density(np.random.default_rng(4), 3)
    f = sg.piecewise_linear([(0.0, 0.0), (1.0, 1.0), (1.5, 0.8), (2.0, 1.0)])
    return preset_equilibrium_relaxation(omega, f, t_max=2.0)


def test_scan_stores_no_extended_maps():
    fam = qutrit_equilibrium()
    times = np.linspace(0, 2.0, 400)
    tracemalloc.start()
    try:
        witness_scan(fam, times, ancilla_kind="d_plus_1", n_samples=1, n_refine=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 400 extended 144 x 144 natural matrices alone would take 127 MiB
    assert peak <= 16 * 2**20


def test_scan_makes_one_eigvalsh_call_per_trajectory(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    witness_scan(qutrit_equilibrium(), np.linspace(0, 2.0, 101), ancilla_kind="d_plus_1",
                 n_samples=4, n_refine=2)
    # six trajectories and their normalizations; one call per time would be 600
    assert len(calls) <= 18


def reference_record(naturals, x, ancilla_kind, times):
    """One witness's record, scored on its own: the per-witness path the
    stacked kernel replaces."""
    norms = trace_norm(hermitianize(apply_extended(naturals, x)))
    derivs = (norms[2:] - norms[:-2]) / (times[2:] - times[:-2])
    cand_vals = [*derivs, (norms[1] - norms[0]) / (times[1] - times[0]),
                 (norms[-1] - norms[-2]) / (times[-1] - times[-2])]
    cand_times = [*times[1:-1], float(times[0]), float(times[-1])]
    k_best = int(np.argmax(cand_vals))
    kinks = ()
    if len(times) >= 3:
        second = np.abs(norms[2:] - 2 * norms[1:-1] + norms[:-2])
        floor = 10.0 * (float(np.median(second)) + 1e-15)
        spikes = np.nonzero((second > floor) & (second > 1e-9))[0]
        kinks = tuple(float(times[i + 1]) for i in spikes)
    return WitnessRecord(witness=x, ancilla_kind=ancilla_kind, times=times, norms=norms,
                         derivatives=derivs, max_backflow=float(cand_vals[k_best]),
                         max_backflow_time=float(cand_times[k_best]), kink_times=kinks)


def scan_skips(fam, times, naturals):
    """The steps a witness scan skips: equal maps, or a certified CPTP propagator."""
    equal = np.all(naturals[1:] == naturals[:-1], axis=(-2, -1))
    return equal | steps._cptp_steps(fam, times, naturals)


def reference_scan(naturals, times, ancilla_kind, n_samples, n_refine, seed, skip=None):
    """witness_scan as a running best over the sampled witnesses, each scored on its own by
    its largest candidate that reads a step outside skip (every step if None); the winner's
    record covers all times."""
    d = int(round(np.sqrt(naturals.shape[-1])))
    m = {"none": 1, "d": d, "d_plus_1": d + 1}[ancilla_kind] * d
    skip = np.zeros(len(times) - 1, dtype=bool) if skip is None else skip
    # interior candidate k reads the steps k and k + 1, the two ends steps 0 and T - 2
    scored = ~np.array([*(skip[:-1] & skip[1:]), skip[0], skip[-1]])

    def score(x):
        rec = reference_record(naturals, x, ancilla_kind, times)
        norms = rec.norms
        vals = np.array([*rec.derivatives, (norms[1] - norms[0]) / (times[1] - times[0]),
                         (norms[-1] - norms[-2]) / (times[-1] - times[-2])])
        return np.max(vals[scored], initial=-np.inf)

    best = top = None
    for x in _gaussian_witnesses([np.random.default_rng([seed, i])
                                  for i in range(n_samples)], m):
        val = score(x)
        if best is None or val > top:
            best, top = x, val
    scale = 0.5
    for pert in _gaussian_witnesses([np.random.default_rng([seed, n_samples])] * n_refine, m):
        x = hermitianize(best + scale * pert)
        x = x / trace_norm(x)
        if (val := score(x)) > top:
            best, top = x, val
        else:
            scale *= 0.5
    return dataclasses.replace(reference_record(naturals, best, ancilla_kind, times),
                               certified_steps=int(np.sum(skip)))


def samples_per_block(n_times, m):
    return max(1, BLOCK_ENTRIES // (n_times * m * m))


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([2, 3]), kind=st.sampled_from(ANCILLA_KINDS),
       n_times=st.integers(40, 400), count=st.sampled_from(["one", "cap", "cap+1"]),
       seed=st.integers(0, 2**32 - 1))
def test_trajectory_norms_equal_per_witness_norms(d, kind, n_times, count, seed):
    m = {"none": 1, "d": d, "d_plus_1": d + 1}[kind] * d
    cap = samples_per_block(n_times, m)
    n_samples = {"one": 1, "cap": cap, "cap+1": cap + 1}[count]
    rng = np.random.default_rng(seed)
    naturals = (rng.standard_normal((n_times, d * d, d * d))
                + 1j * rng.standard_normal((n_times, d * d, d * d)))
    xs = hermitianize(rng.standard_normal((n_samples, m, m))
                      + 1j * rng.standard_normal((n_samples, m, m)))
    norms = _trajectory_norms(naturals, xs)
    assert norms.shape == (n_samples, n_times)
    ref = np.array([trace_norm(hermitianize(apply_extended(naturals, x))) for x in xs])
    assert np.array_equal(norms, ref)


RUN_LAYOUTS = ("start", "middle", "end", "all_equal", "no_repeats", "random")


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3]), kind=st.sampled_from(ANCILLA_KINDS),
       layout=st.sampled_from(RUN_LAYOUTS), n_distinct=st.integers(2, 30),
       run=st.integers(2, 40), runs=st.lists(st.integers(1, 40), min_size=1, max_size=12),
       n_samples=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_trajectory_norms_on_runs_of_equal_maps_equal_full_stack_norms(
        d, kind, layout, n_distinct, run, runs, n_samples, seed):
    ones = [1] * n_distinct
    runs = {"start": [run] + ones, "middle": ones + [run] + ones, "end": ones + [run],
            "all_equal": [run], "no_repeats": ones, "random": runs}[layout]
    m = {"none": 1, "d": d, "d_plus_1": d + 1}[kind] * d
    rng = np.random.default_rng(seed)
    maps = (rng.standard_normal((len(runs), d * d, d * d))
            + 1j * rng.standard_normal((len(runs), d * d, d * d)))
    naturals = np.repeat(maps, runs, axis=0)
    xs = hermitianize(rng.standard_normal((n_samples, m, m))
                      + 1j * rng.standard_normal((n_samples, m, m)))
    norms = _trajectory_norms(naturals, xs)
    ref = np.array([trace_norm(hermitianize(apply_extended(naturals, x))) for x in xs])
    assert np.array_equal(norms, ref)


def ad_clipped(t_max=np.pi):
    """Amplitude damping frozen at its ground-state limit from t = pi/2 on."""
    return preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2), t_max=t_max)


SCAN_FAMILIES = {
    "ad_clipped": (ad_clipped, np.pi, ANCILLA_KINDS),
    "ad_sin": (ad_sin, 2 * np.pi, ANCILLA_KINDS),
    "pauli_quiet": (lambda: preset_pauli_channel(gammas=[sg.constant(0.3)] * 3, t_max=2.0),
                    2.0, ANCILLA_KINDS),
    "qutrit_equilibrium": (qutrit_equilibrium, 2.0, ("none", "d_plus_1")),
}


@pytest.mark.parametrize("name", sorted(SCAN_FAMILIES))
def test_scan_equals_the_per_witness_running_best(name):
    factory, t_max, kinds = SCAN_FAMILIES[name]
    fam, times = factory(), np.linspace(0, t_max, 120)
    naturals = _naturals(fam, times)
    for kind in kinds:
        rec = witness_scan(fam, times, ancilla_kind=kind, n_samples=64, n_refine=8, seed=3)
        ref = reference_scan(naturals, times, kind, 64, 8, 3, scan_skips(fam, times, naturals))
        assert np.array_equal(rec.witness, ref.witness), kind
        assert np.array_equal(rec.norms, ref.norms), kind
        assert np.array_equal(rec.derivatives, ref.derivatives), kind
        assert rec.max_backflow == ref.max_backflow, kind
        assert rec.max_backflow_time == ref.max_backflow_time, kind
        assert rec.kink_times == ref.kink_times, kind


def test_tied_witnesses_go_to_the_first():
    times = 0.125 * np.arange(11)  # exact spacing, so equal rises give equal estimates
    norms = np.ones((4, 11))
    norms[0, 8] = 1.05
    norms[1, 6] = 1.1  # the largest rise, centred on time index 5
    norms[2, 3] = 1.1  # the same rise, earlier in time, in a later witness
    norms[3] = norms[1]
    xs = np.stack([np.eye(2) * k for k in range(4)]).astype(complex)
    rec = _best_record(xs, "none", times, norms)

    best = None
    for x, n in zip(xs, norms):
        one = _best_record(x[None], "none", times, n[None])
        if best is None or one.max_backflow > best.max_backflow:
            best = one
    assert best.max_backflow == _best_record(xs[2:3], "none", times, norms[2:3]).max_backflow
    assert np.array_equal(best.witness, xs[1])
    assert np.array_equal(rec.witness, best.witness)
    assert np.array_equal(rec.norms, best.norms)
    assert rec.max_backflow == best.max_backflow
    assert rec.max_backflow_time == best.max_backflow_time == times[5]


def test_scan_scores_its_samples_in_blocks(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    times = np.linspace(0, 2 * np.pi, 200)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    witness_scan(ad_sin(), times, ancilla_kind="d", n_samples=64, n_refine=8, seed=1)
    # the kernel's blocks, then per refinement step one normalization and
    # one kernel call, plus the normalizations of the sample and
    # perturbation stacks
    assert len(calls) <= math.ceil(64 / samples_per_block(len(times), 4)) + 2 * 8 + 2


def test_scan_scores_each_distinct_grid_map_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    times = np.linspace(0, np.pi, 400)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rec = witness_scan(ad_clipped(), times, ancilla_kind="d", n_samples=16, n_refine=4, seed=3)
    # trajectory blocks are (witnesses, times, m, m); the 200 grid maps past pi/2 all equal
    # the ground-state limit, so the winner's record scores 201 of the 400. Only the step
    # across pi/2 has no certified CPTP propagator: the 16 samples and 4 refinement steps
    # score the 4 times its candidates read, 3 distinct maps
    blocks = [shape for shape in calls if len(shape) == 4]
    assert rec.certified_steps == 398
    assert blocks == [(16, 3, 4, 4)] + [(1, 3, 4, 4)] * 4 + [(1, 201, 4, 4)]


def scored_maps(monkeypatch):
    """The map counts of the trajectory blocks (witnesses, maps, m, m) handed to eigvalsh."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 4:
            calls.append(np.shape(a)[1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_scan_scores_a_recurring_grid_map_once(monkeypatch):
    # gamma = sin t gives G(t) = G(2 pi - t): at 400 points, 105 grid maps equal the map of an
    # earlier, non-adjacent time, and one more repeats its neighbour, so the winner's record
    # scores 295 maps. The samples and refinement steps score the 201 times from pi on, whose
    # steps have gamma < 0 and no CPTP propagator: 200 maps, as the neighbours at pi are equal
    calls = scored_maps(monkeypatch)
    witness_scan(ad_sin(), np.linspace(0, 2 * np.pi, 400), ancilla_kind="d", n_samples=4,
                 n_refine=2, seed=1)
    assert calls == [200, 200, 200, 295]


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3]), kind=st.sampled_from(ANCILLA_KINDS),
       n_distinct=st.integers(1, 6),
       order=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)), min_size=1, max_size=30),
       n_samples=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_trajectory_norms_on_recurring_maps_equal_full_stack_norms(
        d, kind, n_distinct, order, n_samples, seed):
    # runs of map indices in any order, so a map recurs after others (A B A C B A)
    m = {"none": 1, "d": d, "d_plus_1": d + 1}[kind] * d
    rng = np.random.default_rng(seed)
    maps = (rng.standard_normal((n_distinct, d * d, d * d))
            + 1j * rng.standard_normal((n_distinct, d * d, d * d)))
    naturals = np.repeat(maps[[k % n_distinct for k, _ in order]], [n for _, n in order], axis=0)
    xs = hermitianize(rng.standard_normal((n_samples, m, m))
                      + 1j * rng.standard_normal((n_samples, m, m)))
    norms = _trajectory_norms(naturals, xs)
    ref = np.array([trace_norm(hermitianize(apply_extended(naturals, x))) for x in xs])
    assert np.array_equal(norms, ref)


def one_ulp_up(a):
    a[0, 0] = np.nextafter(a[0, 0].real, np.inf) + 1j * a[0, 0].imag


def negative_zero(a):
    a[1, 2] = complex(-0.0, a[1, 2].imag)


@pytest.mark.parametrize("nudge", [one_ulp_up, negative_zero], ids=["one_ulp", "negative_zero"])
def test_maps_that_differ_in_one_bit_are_scored_apart(monkeypatch, nudge):
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    a[1, 2] = complex(0.0, a[1, 2].imag)
    a2 = a.copy()
    nudge(a2)
    assert a2.tobytes() != a.tobytes()
    naturals = np.stack([a, b, a2, b, a, a2])
    xs = hermitianize(rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4)))
    calls = scored_maps(monkeypatch)
    norms = _trajectory_norms(naturals, xs)
    assert calls == [3]  # a, b and a2
    ref = np.array([trace_norm(hermitianize(apply_extended(naturals, x))) for x in xs])
    assert np.array_equal(norms, ref)


def test_maps_that_share_a_lookup_key_are_not_merged(monkeypatch):
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    naturals = np.stack([a, b, a])
    xs = hermitianize(rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4)))
    monkeypatch.setattr(witnesses, "hash", lambda key: 0, raising=False)  # every key collides
    calls = scored_maps(monkeypatch)
    norms = _trajectory_norms(naturals, xs)
    assert calls == [3]
    ref = np.array([trace_norm(hermitianize(apply_extended(naturals, x))) for x in xs])
    assert np.array_equal(norms, ref)


@pytest.mark.parametrize("kind", ["d", "d_plus_1"])
def test_scan_on_recurring_maps_equals_the_per_witness_running_best(kind):
    fam, times = ad_sin(), np.linspace(0, 2 * np.pi, 400)
    rec = witness_scan(fam, times, ancilla_kind=kind, n_samples=16, n_refine=4, seed=5)
    naturals = _naturals(fam, times)
    assert_identical(rec, reference_scan(naturals, times, kind, 16, 4, 5,
                                         scan_skips(fam, times, naturals)))


@pytest.mark.parametrize("kwargs, match", [
    ({"ancilla_kind": "d_squared"}, "unknown ancilla kind"),
    ({"n_samples": 0}, "at least one sample"),
    ({"n_refine": -1}, "n_refine must be non-negative"),
], ids=["ancilla_kind", "n_samples", "n_refine"])
def test_scan_rejects_bad_arguments_before_evaluating(kwargs, match):
    fam, calls = ad_exp(), []

    def counting(ts):
        calls.append(ts.tolist())
        return fam.stack(ts)

    with pytest.raises(ValueError, match=match):
        witness_scan(dataclasses.replace(fam, stack=counting), np.linspace(0, 3, 40), **kwargs)
    assert calls == []


@pytest.mark.parametrize("kind", ANCILLA_KINDS)
def test_scan_finds_the_grid_runs_once(monkeypatch, kind):
    calls = []
    runs = witnesses._runs

    def counted(naturals):
        calls.append(len(naturals))
        return runs(naturals)

    monkeypatch.setattr(witnesses, "_runs", counted)
    witness_scan(ad_clipped(), np.linspace(0, np.pi, 200), ancilla_kind=kind, n_samples=16,
                 n_refine=8, seed=1)
    assert calls == [200]


VERDICT_PROBE_FAMILIES = {
    "ad_sin": (ad_sin, 2 * np.pi),
    # G = 0.6 + 0.4 cos 2t and F = 0.495 (1 - cos pi t) (peaking at 0.99): invertible
    # families whose non-monotone G or F fails CP and reaches the probe
    "ad_cos": (lambda: preset_amplitude_damping(g=sg.sinusoidal(0.4, 2.0, np.pi / 2, 0.6),
                                                t_max=np.pi), np.pi),
    "pauli_neg": (lambda: preset_pauli_channel(
        gammas=[sg.constant(1.0), sg.constant(1.0),
                sg.piecewise_linear([(t, -np.tanh(t)) for t in np.linspace(0, 2, 21)])],
        t_max=2.0), 2.0),
    "eq_dip": (lambda: preset_equilibrium_relaxation(
        random_density(np.random.default_rng(5), 2),
        sg.sinusoidal(-0.495, np.pi, np.pi / 2, 0.495), t_max=2.0), 2.0),
}


@pytest.mark.parametrize("name", sorted(VERDICT_PROBE_FAMILIES))
def test_verdict_probe_equals_the_per_witness_running_best(name):
    # the verdict's P-divisibility probe: 32 qubit witnesses, 4 refinements, no ancilla
    factory, t_max = VERDICT_PROBE_FAMILIES[name]
    fam, times, seed = factory(), np.linspace(0, t_max, 400), VerdictTolerances().seed
    v = cp_divisibility_verdict(fam, times)
    assert v.witness_max_backflow is not None
    ref = reference_scan(_naturals(fam, times), times, "none", 32, 4, seed)
    assert v.witness_max_backflow == ref.max_backflow


@pytest.mark.parametrize("kwargs, match", [
    ({"seed": -1}, "seed must be non-negative and an integer, got -1"),
    ({"seed": True}, "seed must be non-negative and an integer, got True"),
    ({"seed": 3.0}, "seed must be non-negative and an integer, got 3.0"),
    ({"n_samples": 4.0}, "n_samples must be non-negative and an integer, got 4.0"),
    ({"n_samples": True}, "n_samples must be non-negative and an integer, got True"),
    ({"n_refine": 1.0}, "n_refine must be non-negative and an integer, got 1.0"),
], ids=["seed_negative", "seed_bool", "seed_float", "n_samples_float", "n_samples_bool",
        "n_refine_float"])
def test_scan_rejects_non_integer_draw_arguments_before_evaluating(kwargs, match):
    # the draws are cached by (seed, n_samples, n_refine, m), and 4.0 hashes as 4
    fam, calls = ad_exp(), []

    def counting(ts):
        calls.append(ts.tolist())
        return fam.stack(ts)

    with pytest.raises(ValueError, match=f"^{match}$"):
        witness_scan(dataclasses.replace(fam, stack=counting), np.linspace(0, 3, 40), **kwargs)
    assert calls == []


def clear_draw_caches():
    witnesses._seeded_witnesses.cache_clear()
    divisibility._pure_states.cache_clear()


def assert_identical(a, b):
    """Equal field by field, arrays by dtype, shape and bytes (NaN equals NaN)."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_identical(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_identical(x, y)
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    else:
        assert type(a) is type(b) and (a == b or (a != a and b != b))


@pytest.mark.parametrize("name", sorted(VERDICT_PROBE_FAMILIES))
def test_a_warm_verdict_equals_a_cold_one(name):
    factory, t_max = VERDICT_PROBE_FAMILIES[name]
    fam, times = factory(), np.linspace(0, t_max, 400)
    clear_draw_caches()
    cold = cp_divisibility_verdict(fam, times)
    assert cold.witness_max_backflow is not None and cold.p_sampling_min_eig is not None
    assert_identical(cp_divisibility_verdict(fam, times), cold)


@pytest.mark.parametrize("kind", ANCILLA_KINDS)
def test_a_warm_scan_equals_a_cold_one(kind):
    fam, times = ad_sin(), np.linspace(0, 2 * np.pi, 400)
    clear_draw_caches()
    cold = witness_scan(fam, times, kind, n_samples=16, n_refine=4, seed=9)
    assert_identical(witness_scan(fam, times, kind, n_samples=16, n_refine=4, seed=9), cold)


@pytest.mark.parametrize("name", sorted(VERDICT_PROBE_FAMILIES))
def test_a_second_verdict_builds_no_generator(monkeypatch, name):
    factory, t_max = VERDICT_PROBE_FAMILIES[name]
    fam, times = factory(), np.linspace(0, t_max, 400)
    first = cp_divisibility_verdict(fam, times)
    assert first.witness_max_backflow is not None  # the probe ran and drew its inputs
    calls, default_rng = [], np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    second = cp_divisibility_verdict(fam, times)
    assert calls == []
    assert second.witness_max_backflow == first.witness_max_backflow


def test_cached_draws_are_read_only_and_a_record_owns_its_witness():
    fam, times = ad_sin(), np.linspace(0, 2 * np.pi, 200)
    clear_draw_caches()
    xs, perts = witnesses._seeded_witnesses(5, 8, 3, 2)
    assert not xs.flags.writeable and not perts.flags.writeable
    assert not divisibility._pure_states(5, 10, 2).flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        xs[0, 0, 0] = 1.0
    # no refinement: the best witness is one of the cached draws
    first = witness_scan(fam, times, "d", n_samples=8, n_refine=0, seed=5)
    assert first.witness.flags.writeable
    kept = first.witness.copy()
    first.witness[...] = 0.0
    again = witness_scan(fam, times, "d", n_samples=8, n_refine=0, seed=5)
    assert_identical(again, dataclasses.replace(first, witness=kept))


@pytest.mark.parametrize("cache, key", [
    (witnesses._seeded_witnesses, lambda seed: (seed, 2, 1, 2)),
    (divisibility._pure_states, lambda seed: (seed, 3, 2)),
], ids=["witnesses", "pure_states"])
def test_draw_caches_stay_within_their_maxsize(cache, key):
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None
    cache.cache_clear()
    for seed in range(maxsize + 1):
        cache(*key(seed))
    info = cache.cache_info()
    assert (info.currsize, info.misses) == (maxsize, maxsize + 1)


def pauli_two_bp(t_max=3.0):
    """Pauli channel whose lambda_1 = lambda_2 vanish at t = 1 and lambda_3 at t = 2."""
    lam12 = sg.piecewise_linear([(0, 1), (1, 0), (t_max, 0)])
    lam3 = sg.piecewise_linear([(0, 1), (1, 1), (2, 0), (t_max, 0)])
    return preset_pauli_channel(lambdas=[lam12, lam12, lam3], t_max=t_max)


# the scan families of the benchmark: their grids and ancilla kinds
CERTIFY_FAMILIES = {
    "ad_sin": (ad_sin, 2 * np.pi, ANCILLA_KINDS),
    "pauli_two_bp": (pauli_two_bp, 3.0, ANCILLA_KINDS),
    "eq_dip_d3": (qutrit_equilibrium, 2.0, ("none", "d_plus_1")),
}


def assert_no_gain_on_skipped_steps(fam, times, kind):
    """On every step the scan skips, no full-grid norm of its 64 + 8 witnesses rises by more
    than 1e-12; returns the number of skipped steps."""
    naturals = _naturals(fam, times)
    skip = scan_skips(fam, times, naturals)
    m = witnesses._ancilla_factor(kind, fam.dim) * fam.dim
    xs, perts = witnesses._seeded_witnesses(1, 64, 8, m)
    norms = _trajectory_norms(naturals, np.concatenate([xs, perts]))
    assert np.max(np.diff(norms, axis=1)[:, skip], initial=-np.inf) <= 1e-12
    return int(np.sum(skip))


@pytest.mark.parametrize("name", sorted(CERTIFY_FAMILIES))
def test_no_witness_gains_on_a_certified_step(name):
    factory, t_max, kinds = CERTIFY_FAMILIES[name]
    fam, times = factory(), np.linspace(0, t_max, 400)
    for kind in kinds:
        skipped = assert_no_gain_on_skipped_steps(fam, times, kind)
        assert skipped == {"ad_sin": 200, "pauli_two_bp": 399, "eq_dip_d3": 300}[name]


def monotone_knots(draw, start, stop, n):
    """Piecewise-linear knots from start to stop (nondecreasing or nonincreasing) on [0, 2]."""
    steps = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    total = sum(steps) or 1.0
    levels = start + (stop - start) * np.cumsum([0.0, *steps]) / total
    ts = np.linspace(0.0, 2.0, n + 1)
    return [(float(t), float(v)) for t, v in zip(ts, levels)]


@st.composite
def cp_divisible_families(draw):
    """Amplitude damping with nonincreasing G >= 0 (zero from its first zero on), or
    equilibrium relaxation with nondecreasing F at d = 2 or 3."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        knots = monotone_knots(draw, 1.0, draw(st.sampled_from([0.0, 0.3])), n)
        return preset_amplitude_damping(g=sg.piecewise_linear(knots), t_max=2.0)
    d = draw(st.sampled_from([2, 3]))
    omega = random_density(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d)
    knots = monotone_knots(draw, 0.0, draw(st.sampled_from([0.7, 1.0])), n)
    return preset_equilibrium_relaxation(omega, sg.piecewise_linear(knots), t_max=2.0)


@settings(max_examples=25, deadline=None)
@given(fam=cp_divisible_families(), n_times=st.integers(20, 200),
       kind=st.sampled_from(ANCILLA_KINDS))
def test_no_witness_gains_on_a_certified_step_of_a_cp_divisible_family(fam, n_times, kind):
    assert assert_no_gain_on_skipped_steps(fam, np.linspace(0, 2.0, n_times), kind) > 0


def full_grid_scan(naturals, times, kind, n_samples, n_refine, seed):
    """The scan with every witness scored at every time by the kernel over all times."""
    d = int(round(np.sqrt(naturals.shape[-1])))
    m = witnesses._ancilla_factor(kind, d) * d
    xs, perts = witnesses._seeded_witnesses(seed, n_samples, n_refine, m)
    best = _best_record(xs, kind, times, _trajectory_norms(naturals, xs))
    scale = 0.5
    for pert in perts:
        x = hermitianize(best.witness + scale * pert)
        x = (x / trace_norm(x))[None]
        norms = _trajectory_norms(naturals, x)
        if witnesses._candidates(times, norms).max() > best.max_backflow:
            best = _best_record(x, kind, times, norms)
        else:
            scale *= 0.5
    return best


@pytest.mark.parametrize("name", ["ad_sin", "eq_dip_d3"])
@pytest.mark.parametrize("seed", [1, 2])
def test_skipping_certified_steps_keeps_the_records_of_backflow_families(name, seed):
    factory, t_max, kinds = CERTIFY_FAMILIES[name]
    fam, times = factory(), np.linspace(0, t_max, 400)
    naturals = _naturals(fam, times)
    for kind in kinds:
        rec = witness_scan(fam, times, kind, n_samples=64, n_refine=8, seed=seed)
        assert rec.certified_steps == {"ad_sin": 200, "eq_dip_d3": 300}[name]
        assert_identical(dataclasses.replace(rec, certified_steps=0),
                         full_grid_scan(naturals, times, kind, 64, 8, seed))


@pytest.mark.parametrize("kind", ANCILLA_KINDS)
def test_a_scan_with_every_step_certified_scores_no_sampled_witness(monkeypatch, kind):
    fam, times = pauli_two_bp(), np.linspace(0, 3.0, 400)
    calls, trace_norms, qubit_norms = [], witnesses._trace_norms, witnesses._qubit_trace_norms

    def counted(norms):
        def call(a, *args):
            calls.append(np.shape(a)[:2])
            return norms(a, *args)
        return call

    monkeypatch.setattr(witnesses, "_trace_norms", counted(trace_norms))
    monkeypatch.setattr(witnesses, "_qubit_trace_norms", counted(qubit_norms))
    rec = witness_scan(fam, times, kind, n_samples=64, n_refine=8, seed=1)
    # the one kernel call is the record of witness 0 over its distinct grid maps
    assert len(calls) == 1 and calls[0][0] == 1
    m = witnesses._ancilla_factor(kind, 2) * 2
    assert np.array_equal(rec.witness, witnesses._seeded_witnesses(1, 64, 8, m)[0][0])
    assert rec.certified_steps == 399 and rec.max_backflow <= 1e-6


def test_the_verdict_probe_takes_its_skipped_steps_from_the_verdict(monkeypatch):
    # ad_sin reaches the P-probe; the verdict's own Choi and TP figures mark its steps
    fam, times, scans, scan_grid = ad_sin(), np.linspace(0, 2 * np.pi, 400), [], steps._scan_grid

    def counting(*args):  # the verdict's pass, and any classification's
        scans.append(1)
        return scan_grid(*args)

    monkeypatch.setattr(divisibility, "_scan_grid", counting)
    monkeypatch.setattr(steps, "_scan_grid", counting)
    v = cp_divisibility_verdict(fam, times)
    assert scans == [1] and v.witness_max_backflow is not None
    ref = reference_scan(_naturals(fam, times), times, "none", 32, 4, VerdictTolerances().seed)
    assert v.witness_max_backflow == ref.max_backflow


def equilibrium(d, seed, knots):
    """Equilibrium relaxation on [0, 2] to a seeded d x d state, F piecewise linear."""
    omega = random_density(np.random.default_rng(seed), d)
    return preset_equilibrium_relaxation(omega, sg.piecewise_linear(knots), t_max=2.0)


F_MONO, F_DIP = [(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)], [(0.0, 0.0), (1.0, 1.0), (1.5, 0.8), (2.0, 1.0)]
# the ten verdict and scan families of the benchmark, with the test module's own states
BENCH_FAMILIES = {
    "ad_clipped": ad_clipped,
    "ad_exp": ad_exp,
    "ad_sin": ad_sin,
    "ad_cos": lambda: preset_amplitude_damping(g=sg.sinusoidal(1.0, 1.0, np.pi / 2),
                                               t_max=np.pi),
    "pauli_two_bp": pauli_two_bp,
    "pauli_neg": VERDICT_PROBE_FAMILIES["pauli_neg"][0],
    "eq_mono": lambda: equilibrium(2, 1, F_MONO),
    "eq_dip": lambda: equilibrium(2, 2, F_DIP),
    "eq_d4": lambda: equilibrium(4, 3, F_MONO),
    "eq_dip_d3": qutrit_equilibrium,
}


@pytest.mark.parametrize("n", [101, 400, 401])
@pytest.mark.parametrize("name", sorted(BENCH_FAMILIES))
def test_the_verdicts_step_figures_give_the_classification_of_a_scan_alone(name, n, monkeypatch):
    fam = BENCH_FAMILIES[name]()
    times = np.linspace(0, fam.t_max, n)
    naturals = _naturals(fam, times)
    alone = steps._cptp_steps(fam, times, naturals)
    verdict, figures = cp_divisibility_verdict(fam, times, None, naturals, return_figures=True)
    # a verdict that ends at kernel inclusion hands over no figures
    assert (figures is None) == (name in ("ad_cos", "eq_dip", "eq_dip_d3"))
    assert (figures is None) == (verdict.status is divisibility.DivisibilityStatus.NOT_DIVISIBLE)
    classified, scan_grid = [], steps._scan_grid

    def counting(family, ts, *args):  # the steps a classification pass reads
        classified.extend(np.searchsorted(times, ts[:-1]))
        return scan_grid(family, ts, *args)

    monkeypatch.setattr(steps, "_scan_grid", counting)
    assert np.array_equal(steps._cptp_steps(fam, times, naturals, figures), alone)
    equal = np.all(naturals[1:] == naturals[:-1], axis=(1, 2))  # left False: the scan skips them
    assert not alone[equal].any()
    if figures is None:  # the whole grid, as a scan alone
        assert classified == list(range(n - 1))
    else:  # exactly the steps across a candidate time or from the first breakpoint on
        cands, first = np.array(fam.candidates), min(verdict.ranks.breakpoints, default=np.inf)
        across = ((times[:-1, None] < cands) & (cands < times[1:, None])).any(axis=1)
        left = ~equal & (across | (times[:-1] + steps.CHAIN_SLACK >= first))
        assert classified == list(np.flatnonzero(left)) and len(classified) < np.sum(~equal)
    # a verdict at a rank cut other than the scan's hands over no figures
    assert cp_divisibility_verdict(fam, times, VerdictTolerances(rank_rtol=1e-7), naturals,
                                   return_figures=True)[1] is None


def test_step_figures_of_another_grid_are_refused():
    fam, times = ad_sin(), np.linspace(0, 2 * np.pi, 101)
    figures = cp_divisibility_verdict(fam, times, return_figures=True)[1]
    with pytest.raises(ValueError, match="another grid"):
        witness_scan(fam, times[:-1], n_samples=2, n_refine=0, figures=figures)
