import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovlens import divisibility, steps, witnesses
from markovlens import signals as sg
from markovlens.divisibility import (
    BLOCK_ENTRIES,
    DivisibilityStatus,
    TimeGrid,
    VerdictTolerances,
    composite_propagator,
    cp_divisibility_verdict,
    image_basis,
    is_divisible,
    is_image_nonincreasing,
    kernel_basis,
    limit_projector,
    make_grid,
    propagator,
    rank_profile,
)
from markovlens.dynamics import (
    MapFamily,
    canonical_rates,
    preset_amplitude_damping,
    preset_equilibrium_relaxation,
    preset_pauli_channel,
)
from markovlens.errors import (
    CauchyDivergenceError,
    NotDivisibleError,
    NumericalError,
    ProjectorValidationError,
    SingularGeneratorError,
)
from markovlens.operator_core import (
    GROUND_PROJECTOR,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    hs_inner,
    hs_norm,
)
from markovlens.superop import Superoperator, apply, apply_extended, superop_from_action
from markovlens.witnesses import blp_sigma, helstrom_witness, witness_scan

from conftest import RECURRING_DROP_KNOTS, per_time_stack, random_density, random_unitary


def ad_clipped(t_max=np.pi):
    return preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2),
                                    t_max=t_max)


def pauli_frozen(t_max=3.0):
    lam12 = sg.piecewise_linear([(0, 1), (1, 0), (t_max, 0)])
    return preset_pauli_channel(lambdas=[lam12, lam12, sg.constant(1.0)],
                                t_max=t_max)


def equilibrium(omega, t_max=2.0):
    f = sg.piecewise_linear([(0, 0), (1, 1), (t_max, 1)])
    return preset_equilibrium_relaxation(omega, f, t_max=t_max)


def rotating_image_family(t_max=2.0):
    """Kernel grows once, then the one-dimensional image rotates: divisible
    but not image non-increasing."""
    relax = equilibrium(GROUND_PROJECTOR.copy(), t_max=t_max)

    def evaluator(t):
        if t <= 1.0:
            return relax.evaluate(t)
        angle = 0.4 * (t - 1.0)
        u = np.array([[np.cos(angle), -np.sin(angle)],
                      [np.sin(angle), np.cos(angle)]], dtype=complex)
        target = u @ GROUND_PROJECTOR @ u.conj().T
        return superop_from_action(lambda x: target * np.trace(x), 2)

    return MapFamily(dim=2, t_max=t_max, kind="rotating_image",
                     stack=per_time_stack(evaluator, 2))


def test_rank_profile_identity_family():
    fam = preset_pauli_channel(gammas=[sg.constant(0.0)] * 3, t_max=1.0)
    rp = rank_profile(fam, make_grid(1.0, 50))
    assert np.all(rp.ranks == 4)
    assert rp.breakpoints == ()
    assert rp.invertible_everywhere


def test_rank_profile_ad_clipped_breakpoint():
    fam = ad_clipped()
    rp = rank_profile(fam, make_grid(np.pi, 161))
    assert rp.ranks[0] == 4 and rp.ranks[-1] == 1
    assert len(rp.breakpoints) == 1
    assert abs(rp.breakpoints[0] - np.pi / 2) < 1e-6


def test_rank_profile_pauli_drop():
    fam = pauli_frozen()
    rp = rank_profile(fam, make_grid(3.0, 151))
    assert rp.ranks[0] == 4 and rp.ranks[-1] == 2
    assert len(rp.breakpoints) == 1
    assert abs(rp.breakpoints[0] - 1.0) < 1e-6


def test_rank_profile_rejects_more_than_max_breakpoints():
    fam = preset_amplitude_damping(g=sg.piecewise_linear(RECURRING_DROP_KNOTS), t_max=10.2)
    with pytest.raises(NumericalError, match="accumulating breakpoints") as exc:
        rank_profile(fam, make_grid(10.2, 400))
    assert exc.value.stage == "rank_profile"


def test_kernel_image_bases_identity():
    fam = pauli_frozen()
    s = fam.evaluate(0.0)
    assert kernel_basis(s) is None
    img = image_basis(s)
    assert len(img) == 4


def test_kernel_image_bases_ground_collapse():
    fam = ad_clipped()
    s = fam.evaluate(np.pi / 2)
    ker = kernel_basis(s)
    img = image_basis(s)
    assert len(ker) == 3 and len(img) == 1
    # kernel = traceless operators, image = ground-state line
    for sig in (PAULI_X, PAULI_Y, PAULI_Z):
        coeffs = [hs_inner(g, sig) for g in ker.elements]
        recon = sum(c * g for c, g in zip(coeffs, ker.elements))
        assert hs_norm(recon - sig) < 1e-9
    assert hs_norm(img.elements[0] - GROUND_PROJECTOR) < 1e-9


def test_kernel_image_bases_dephasing():
    deph = superop_from_action(lambda x: 0.5 * (x + PAULI_Z @ x @ PAULI_Z), 2)
    ker = kernel_basis(deph)
    img = image_basis(deph)
    assert len(ker) == 2 and len(img) == 2
    p_ker = ker.projector_matrix()
    for sig in (PAULI_X, PAULI_Y):
        v = sig.reshape(-1, order="F")
        assert np.linalg.norm(p_ker @ v - v) < 1e-9
    p_img = img.projector_matrix()
    for m in (np.eye(2, dtype=complex), PAULI_Z):
        v = m.reshape(-1, order="F")
        assert np.linalg.norm(p_img @ v - v) < 1e-9


def test_is_divisible_invertible_family():
    fam = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0)
    ok, worst, first = is_divisible(fam, make_grid(3.0, 80))
    assert ok and worst == 0.0 and first is None


def test_is_divisible_clipped_true():
    ok, worst, first = is_divisible(ad_clipped(), make_grid(np.pi, 161))
    assert ok and worst < 1e-8


def test_is_divisible_reviving_false():
    # un-clipped cosine revives the coherences after the zero crossing
    fam = preset_amplitude_damping(g=sg.sinusoidal(1.0, 1.0, np.pi / 2),
                                   t_max=np.pi)
    times = np.linspace(0.0, np.pi, 201)  # contains pi/2 exactly
    ok, worst, first = is_divisible(fam, times)
    assert not ok
    assert first == pytest.approx(times[101])
    assert worst > 1e-3


def test_image_nonincreasing_presets(rng):
    grids = {
        "clip": (ad_clipped(), make_grid(np.pi, 101)),
        "pauli": (pauli_frozen(), make_grid(3.0, 101)),
        "eq": (equilibrium(random_density(rng, 2)), make_grid(2.0, 101)),
    }
    for fam, grid in grids.values():
        ok, worst = is_image_nonincreasing(fam, grid)
        assert ok and worst < 1e-8


def test_image_rotating_counterexample():
    fam = rotating_image_family()
    ok, worst = is_image_nonincreasing(fam, make_grid(2.0, 81))
    assert not ok
    assert worst > 1e-3


def test_propagator_at_equal_times_is_image_projector():
    fam = ad_clipped()
    pr = propagator(fam, 1.0, 1.0)
    assert np.allclose(pr.v.natural, np.eye(4), atol=1e-9)
    pr2 = propagator(fam, 2.0, 2.0)
    img = image_basis(fam.evaluate(2.0))
    assert np.allclose(pr2.v.natural, img.projector_matrix(), atol=1e-9)


def test_propagator_invertible_cptp():
    fam = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0)
    pr = propagator(fam, 2.0, 1.0)
    assert pr.composition_residual < 1e-10
    assert pr.cp_full[0] and pr.cp_full[1] > -1e-9
    assert pr.tp_full_residual < 1e-9
    assert pr.tp_on_domain_residual < 1e-9


def test_propagator_after_collapse_tp_on_domain_only(rng):
    omega = random_density(rng, 2)
    fam = equilibrium(omega)
    pr = propagator(fam, 1.8, 1.3)
    assert pr.tp_on_domain_residual < 1e-9
    assert hs_norm(apply(pr.v, omega) - omega) < 1e-9
    # the raw pseudoinverse propagator reads only the omega component, so
    # full-space trace preservation fails unless omega is maximally mixed
    assert pr.tp_full_residual > 1e-3


def test_propagator_rejects_non_divisible_pair():
    fam = preset_amplitude_damping(g=sg.sinusoidal(1.0, 1.0, np.pi / 2),
                                   t_max=np.pi)
    with pytest.raises(NotDivisibleError):
        propagator(fam, 0.6 + np.pi / 2, np.pi / 2)


@pytest.mark.parametrize("case", ["ad", "pauli", "eq"])
def test_limit_projector_matches_paper_forms(case, rng):
    if case == "ad":
        fam, t_star = ad_clipped(), np.pi / 2
        target = superop_from_action(lambda x: GROUND_PROJECTOR * np.trace(x), 2)
    elif case == "pauli":
        fam, t_star = pauli_frozen(), 1.0
        target = superop_from_action(
            lambda x: 0.5 * (x + PAULI_Z @ x @ PAULI_Z), 2)
    else:
        omega = random_density(rng, 2)
        fam, t_star = equilibrium(omega), 1.0
        target = superop_from_action(lambda x: omega * np.trace(x), 2)
    rp = rank_profile(fam, make_grid(fam.t_max, 161))
    pi = limit_projector(fam, rp.breakpoints[0])
    assert np.linalg.norm(pi.natural - target.natural) < 1e-6


def test_limit_projector_divergence_error():
    # surviving eigenvalue oscillates without a limit toward the collapse
    def lam3(t):
        return 0.9 + 0.05 * np.sin(1.0 / max(1.0 - t, 1e-300)) if t < 1.0 else 0.9

    def evaluator(t):
        l12 = max(1.0 - t, 0.0)
        nat = np.zeros((4, 4), dtype=complex)
        for lam, sig in zip((1.0, l12, l12, lam3(t)),
                            (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z)):
            v = sig.reshape(-1, order="F") / np.sqrt(2)
            nat += lam * np.outer(v, v.conj())
        return Superoperator(dim=2, natural=nat)

    fam = MapFamily(dim=2, t_max=2.0, kind="oscillating", stack=per_time_stack(evaluator, 2))
    with pytest.raises(CauchyDivergenceError):
        limit_projector(fam, 1.0)


def test_limit_projector_validation_failure_names_property():
    # non-trace-preserving family: the limit exists but is not TP
    def evaluator(t):
        v = GROUND_PROJECTOR.reshape(-1, order="F")
        nat = (1 - min(t, 1.0)) * np.eye(4, dtype=complex) \
            + 2.0 * min(t, 1.0) * np.outer(v, v.conj())
        return Superoperator(dim=2, natural=nat)

    fam = MapFamily(dim=2, t_max=2.0, kind="non_tp", stack=per_time_stack(evaluator, 2))
    with pytest.raises(ProjectorValidationError) as err:
        limit_projector(fam, 1.0)
    assert err.value.failed_property == "trace_preserving"


def test_composite_propagator_trivial_before_breakpoint():
    fam = ad_clipped()
    plain = propagator(fam, 1.2, 0.6)
    comp = composite_propagator(fam, 1.2, 0.6, [np.pi / 2])
    assert np.allclose(plain.v.natural, comp.v.natural, atol=1e-12)


def test_composite_propagator_pauli_second_breakpoint():
    lam12 = sg.piecewise_linear([(0, 1), (1, 0), (3, 0)])
    lam3 = sg.piecewise_linear([(0, 1), (1, 1), (2, 0), (3, 0)])
    fam = preset_pauli_channel(lambdas=[lam12, lam12, lam3], t_max=3.0)
    rp = rank_profile(fam, make_grid(3.0, 151))
    assert len(rp.breakpoints) == 2
    comp = composite_propagator(fam, 2.6, 2.2, list(rp.breakpoints))
    depol = superop_from_action(lambda x: 0.5 * np.eye(2) * np.trace(x), 2)
    assert np.linalg.norm(comp.v.natural - depol.natural) < 1e-6
    assert comp.cp_full[0]
    assert comp.tp_full_residual < 1e-8


def test_composite_propagator_ad_after_clip():
    fam = ad_clipped()
    comp = composite_propagator(fam, 2.4, 1.9, [np.pi / 2])
    target = superop_from_action(lambda x: GROUND_PROJECTOR * np.trace(x), 2)
    assert np.linalg.norm(comp.v.natural - target.natural) < 1e-6
    assert comp.tp_full_residual < 1e-8


def test_verdict_invertible_cp_divisible():
    fam = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0)
    v = cp_divisibility_verdict(fam, make_grid(3.0, 101))
    assert v.status is DivisibilityStatus.CP_DIVISIBLE
    assert v.invertible_everywhere
    assert v.worst_choi_min_eig > -1e-9


def test_verdict_negative_rate_not_cp_divisible():
    fam = preset_amplitude_damping(gamma=sg.sinusoidal(1.0, 1.0), t_max=2 * np.pi)
    v = cp_divisibility_verdict(fam, make_grid(2 * np.pi, 201))
    assert v.status is DivisibilityStatus.DIVISIBLE_ONLY
    assert v.worst_choi_min_eig < -1e-4
    assert v.witness_max_backflow is not None and v.witness_max_backflow > 1e-3


def test_verdict_noninvertible_presets_cp_divisible(rng):
    cases = [
        (ad_clipped(), np.pi),
        (pauli_frozen(), 3.0),
        (equilibrium(random_density(rng, 2)), 2.0),
    ]
    for fam, t_max in cases:
        v = cp_divisibility_verdict(fam, make_grid(t_max, 101))
        assert v.status is DivisibilityStatus.CP_DIVISIBLE
        assert not v.invertible_everywhere
        assert v.image_nonincreasing
        assert len(v.projectors) >= 1


def test_verdict_equilibrium_dip_flips(rng):
    omega = random_density(rng, 2)
    f = sg.piecewise_linear([(0, 0), (1, 1), (1.5, 0.8), (2, 1)])
    fam = preset_equilibrium_relaxation(omega, f, t_max=2.0)
    v = cp_divisibility_verdict(fam, make_grid(2.0, 101))
    assert v.status is DivisibilityStatus.NOT_DIVISIBLE
    assert v.first_violation_time is not None and v.first_violation_time > 1.0


def test_verdict_p_divisible_pauli():
    fam = preset_pauli_channel(gammas=[sg.constant(1.0), sg.constant(1.0),
                                       sg.sinusoidal(-0.9, 1.0)], t_max=np.pi)
    v = cp_divisibility_verdict(fam, make_grid(np.pi, 101))
    assert v.status is DivisibilityStatus.P_DIVISIBLE
    assert v.worst_choi_min_eig < -1e-4
    assert v.p_sampling_min_eig >= -1e-7
    assert v.witness_max_backflow <= 1e-3


def test_verdict_rotating_image_cp_on_image_only():
    fam = rotating_image_family()
    v = cp_divisibility_verdict(fam, make_grid(2.0, 81))
    assert v.status is DivisibilityStatus.CP_ON_IMAGE_ONLY
    assert not v.image_nonincreasing


def test_prop1_equivalence_on_grid(rng):
    # kernel inclusion holds iff every consecutive propagator composes back
    families = [
        ad_clipped(),
        pauli_frozen(),
        equilibrium(random_density(rng, 2)),
        preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0),
    ]
    for fam in families:
        times = np.linspace(0, fam.t_max, 41)
        ok, _, _ = is_divisible(fam, times)
        assert ok
        for s, t in zip(times[:-1], times[1:]):
            pr = propagator(fam, float(t), float(s))
            assert pr.composition_residual < 1e-8
            assert pr.tp_on_domain_residual < 1e-8


def test_prop2_monotone_scan_implies_divisible(rng):
    from markovlens.witnesses import witness_scan
    families = [
        ad_clipped(),
        equilibrium(random_density(rng, 2)),
    ]
    for fam in families:
        times = np.linspace(0, fam.t_max, 81)
        rec = witness_scan(fam, times, ancilla_kind="none", n_samples=16,
                           n_refine=2, seed=3)
        spacing = float(times[1] - times[0])
        assert rec.max_backflow <= 1e-6 + 10 * spacing ** 2
        assert is_divisible(fam, times)[0]


def test_choi_and_witness_routes_agree(rng):
    # on invertible grids, a found violation always comes with a negative
    # Choi eigenvalue; a clean Choi profile never coexists with backflow
    from markovlens.witnesses import witness_scan
    cases = [
        preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0),
        preset_amplitude_damping(gamma=sg.sinusoidal(1.0, 1.0), t_max=2 * np.pi),
    ]
    for fam in cases:
        times = np.linspace(0, fam.t_max, 121)
        worst_choi = 0.0
        for s, t in zip(times[:-1], times[1:]):
            worst_choi = min(worst_choi, propagator(fam, float(t), float(s)).cp_full[1])
        rec = witness_scan(fam, times, ancilla_kind="d", n_samples=24,
                           n_refine=4, seed=9)
        spacing = float(times[1] - times[0])
        if rec.max_backflow > 1e-6 + 10 * spacing ** 2:
            assert worst_choi < -1e-9


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(times=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(times=np.array([0.5, 1.0]))
    # NaN compares false with everything, so the increasing-times check alone lets it through
    for times in ([0.0, np.nan, 1.0, 2.0], [0.0, 1.0, np.inf], [0.0, -np.inf, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(times=np.array(times))


def block(dim):
    """Pairs per block of the scan and the propagator builder at dimension dim."""
    return BLOCK_ENTRIES // dim ** 4


QUBIT_BLOCK = block(2)


def pauli_two_breakpoints(t_max=3.0):
    lam12 = sg.piecewise_linear([(0, 1), (1, 0), (t_max, 0)])
    lam3 = sg.piecewise_linear([(0, 1), (1, 1), (2, 0), (t_max, 0)])
    return preset_pauli_channel(lambdas=[lam12, lam12, lam3], t_max=t_max)


# grid sizes around the edges of the blocks of pairs that the scan and the propagator
# builder stack: qubit blocks (these families) and, as small grids, ququart blocks;
# 151 points hold the Pauli breakpoints 1 and 2
@pytest.mark.parametrize("n", [2, 3, 151] + [k * b + offset for b in (block(4), QUBIT_BLOCK)
                                             for k, offset in ((1, 0), (1, 1), (1, 2), (2, 1))])
@pytest.mark.parametrize("case", ["ad_clipped", "pauli_two_bp", "ad_invertible"])
def test_verdict_evidence_equals_public_functions(case, n):
    fam = {"ad_clipped": ad_clipped,
           "pauli_two_bp": pauli_two_breakpoints,
           "ad_invertible": lambda: preset_amplitude_damping(
               g=sg.exp_decay(0.5), t_max=3.0)}[case]()
    times = make_grid(fam.t_max, n).times
    v = cp_divisibility_verdict(fam, times)
    assert v.worst_kernel_residual == is_divisible(fam, times)[1]
    assert v.image_residual == is_image_nonincreasing(fam, times)[1]
    rp = rank_profile(fam, times)
    assert np.array_equal(v.ranks.singular_values, rp.singular_values)
    assert np.array_equal(v.ranks.ranks, rp.ranks)
    assert v.ranks.breakpoints == rp.breakpoints
    projectors = dict(v.projectors)
    if n == 151:
        assert len(projectors) == {"ad_clipped": 1, "pauli_two_bp": 2, "ad_invertible": 0}[case]
    props = []
    for s, t in zip(times[:-1], times[1:]):
        if projectors:
            props.append(composite_propagator(fam, float(t), float(s), v.ranks.breakpoints,
                                              projectors=projectors))
        else:
            props.append(propagator(fam, float(t), float(s)))
    assert v.worst_choi_min_eig == min(pr.cp_full[1] for pr in props)
    assert v.worst_tp_residual == max(pr.tp_full_residual for pr in props)


@pytest.mark.parametrize("n", [2 * b + offset for b in (block(4), QUBIT_BLOCK)
                               for offset in (-1, 1)])
def test_singular_time_at_a_block_edge_is_not_divisible(n):
    # g = cos t vanishes only at pi/2, grid index n // 2, so at 2 * QUBIT_BLOCK - 1 or
    # + 1 points the violating pair is the last pair of the first block or the first
    # pair of the second, which starts at the map the two blocks share (the ququart
    # sizes 95 and 97 are small grids here)
    fam = preset_amplitude_damping(g=sg.sinusoidal(1.0, 1.0, np.pi / 2), t_max=np.pi)
    times = make_grid(np.pi, n).times
    v = cp_divisibility_verdict(fam, times)
    assert v.status is DivisibilityStatus.NOT_DIVISIBLE
    assert v.first_violation_time == times[n // 2 + 1]


@pytest.mark.parametrize("family, n_points, status", [
    (lambda: preset_pauli_channel(gammas=[sg.constant(1.0), sg.constant(1.0),
                                          sg.sinusoidal(-0.9, 1.0)], t_max=np.pi),
     101, DivisibilityStatus.P_DIVISIBLE),
    (rotating_image_family, 81, DivisibilityStatus.CP_ON_IMAGE_ONLY),
], ids=["positivity", "cp_on_image"])
@pytest.mark.parametrize("samples", [150, 50])  # not a multiple of the pairs; fewer than them
def test_sampled_checks_draw_max_of_samples_and_pairs_states(monkeypatch, family,
                                                             n_points, status, samples):
    seen, pairs = [], n_points - 1

    def spy(naturals, x):
        seen.append(int(np.prod(x.shape[:-2])))
        if x.ndim == 4:  # full rounds: one state per pair and round
            assert x.shape[1] == len(naturals) == pairs
        return apply_extended(naturals, x)

    monkeypatch.setattr(divisibility, "apply_extended", spy)
    fam = family()
    tl = VerdictTolerances(positivity_samples=samples)
    v = cp_divisibility_verdict(fam, make_grid(fam.t_max, n_points), tl)
    assert v.status is status
    n_maps = 1 if status is DivisibilityStatus.P_DIVISIBLE else 2  # V, or Lambda_s then V
    # every pair gets a state, so a grid with more pairs than samples draws one per pair
    assert sum(seen) == n_maps * max(samples, pairs)
    assert seen[0] >= pairs


def test_verdict_evaluates_each_grid_map_about_once():
    clipped = ad_clipped()
    calls = []

    def evaluator(t):
        calls.append(t)
        return clipped.evaluate(t)

    fam = MapFamily(dim=2, t_max=clipped.t_max, kind="counted",
                    stack=per_time_stack(evaluator, 2))
    v = cp_divisibility_verdict(fam, make_grid(np.pi, 400))
    assert v.status is DivisibilityStatus.CP_DIVISIBLE
    # the scan evaluates the 400 grid maps once and shares them with the
    # rank profile and the propagator loop; bisection and the limit
    # projector add a few dozen
    assert len(calls) <= 450


def counted(fam):
    """The family fam with every evaluation recorded in the returned list."""
    calls = []

    def evaluator(t):
        calls.append(t)
        return fam.evaluate(t)

    return MapFamily(dim=fam.dim, t_max=fam.t_max, kind="counted",
                     stack=per_time_stack(evaluator, fam.dim)), calls


def test_p_divisibility_probe_reuses_the_grid_maps():
    fam, calls = counted(preset_pauli_channel(
        gammas=[sg.constant(1.0), sg.constant(1.0), sg.sinusoidal(-0.9, 1.0)], t_max=np.pi))
    v = cp_divisibility_verdict(fam, make_grid(np.pi, 101))
    assert v.status is DivisibilityStatus.P_DIVISIBLE
    assert len(calls) <= 110


@pytest.mark.parametrize("make, status", [
    (ad_clipped, DivisibilityStatus.CP_DIVISIBLE),
    (lambda: preset_pauli_channel(gammas=[sg.constant(1.0), sg.constant(1.0),
                                          sg.sinusoidal(-0.9, 1.0)], t_max=np.pi),
     DivisibilityStatus.P_DIVISIBLE),
], ids=["ad_clipped", "pauli_negative_rate"])
def test_verdict_stacks_each_grid_time_once(make, status):
    fam = make()
    calls, stack = [], fam.stack

    def counting(ts):
        calls.append(ts.tolist())
        return stack(ts)

    grid = make_grid(fam.t_max, 400)
    v = cp_divisibility_verdict(dataclasses.replace(fam, stack=counting), grid)
    assert v.status is status
    # the whole grid in one stacked call, shared by every stage; bisection and
    # the limit projectors add a few dozen single times
    assert calls[0] == grid.times.tolist()
    assert all(len(c) == 1 for c in calls[1:])
    assert sum(map(len, calls)) <= 450
    # bisection takes each bracket's right end from the grid's singular values
    assert not {t for c in calls[1:] for t in c} & set(calls[0])


def test_cp_on_image_check_reuses_the_grid_maps():
    fam, calls = counted(rotating_image_family())
    v = cp_divisibility_verdict(fam, make_grid(2.0, 81))
    assert v.status is DivisibilityStatus.CP_ON_IMAGE_ONLY
    assert len(calls) <= 110


def test_propagators_evaluate_each_map_once():
    fam, calls = counted(ad_clipped())
    propagator(fam, 1.0, 0.5)
    assert len(calls) == 2
    projectors = {np.pi / 2: limit_projector(ad_clipped(), np.pi / 2)}
    calls.clear()
    composite_propagator(fam, 2.4, 1.9, [np.pi / 2], projectors=projectors)
    assert len(calls) == 2


def ranked_family(rng, dim, ranks):
    """Natural matrices U_k diag(d_k) B at the times 0, 1, ..., n - 1 (U_k, B
    Haar unitaries, the first ranks[k] entries of d_k in [0.5, 2], the rest 0),
    so Ker N_s lies in Ker N_t exactly when ranks[t] <= ranks[s]."""
    dd = dim ** 2
    b = random_unitary(rng, dd)
    nats = np.array([random_unitary(rng, dd) * np.where(np.arange(dd) < r,
                                                        rng.uniform(0.5, 2.0, dd), 0.0) @ b
                     for r in ranks])
    return MapFamily(dim=dim, t_max=len(ranks) - 1.0, kind="ranked",
                     stack=lambda ts: nats[np.rint(ts).astype(int)]), nats


def svd_columns(nat):
    """Per-map reference factorization: kernel and image vectors of variable width."""
    u, sv, vh = np.linalg.svd(nat)
    keep = sv > divisibility.RANK_RTOL * max(sv[0], 1.0)
    return vh[~keep].conj().T, u[:, keep]


# grid sizes at the first block edge, given for ququarts (48 pairs per block); qubit
# and qutrit grids are moved to their own block edge
@pytest.mark.parametrize("n", [48, 49, 50])
@pytest.mark.parametrize("full_share", [0.0, 0.7, 1.0])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]))
def test_masked_residuals_match_a_per_pair_reference(n, full_share, seed, dim):
    rng, dd, b = np.random.default_rng(seed), dim ** 2, block(dim)
    ranks = np.where(rng.random(b + 2) < full_share, dd, rng.integers(1, dd + 1, b + 2))
    # the rank changes into map b, where blocks meet, and out of it; at full
    # share only map b, the first of the second block, is not invertible
    ranks[b] = ranks[b - 1] % dd + 1
    if full_share < 1.0:
        ranks[b + 1] = ranks[b] % dd + 1
    n += b - block(4)
    ranks = ranks[:n]
    fam, nats = ranked_family(rng, dim, ranks)
    grid = np.arange(n, dtype=float)
    ker, img, cols = [], [], [svd_columns(nat) for nat in nats]
    for nt, (ks, us), (_, ut) in zip(nats[1:], cols[:-1], cols[1:]):
        ker.append(np.linalg.norm(nt @ ks, 2) if ks.shape[1] else 0.0)
        img.append(np.linalg.norm(ut - us @ (us.conj().T @ ut), 2))
    _, worst, first = is_divisible(fam, grid)
    assert abs(worst - max(ker)) < 1e-13
    bad = [k + 1.0 for k, r in enumerate(ker) if r >= divisibility.INCLUSION_TOL]
    assert first == (bad[0] if bad else None)
    assert abs(is_image_nonincreasing(fam, grid)[1] - max(img)) < 1e-13
    vec_one = np.eye(dim).reshape(-1)
    # the single-pair propagators of the last 50 pairs that have one, at and before the block edge
    for k in np.flatnonzero(ranks[1:] <= ranks[:-1])[-50:]:
        res = propagator(fam, k + 1.0, float(k))
        us = cols[k][1]
        v = nats[k + 1] @ np.linalg.pinv(nats[k], rcond=divisibility.RANK_RTOL)
        assert np.max(np.abs(res.v.natural - v)) < 1e-13
        assert res.domain_vecs.shape == us.shape == (dd, ranks[k])
        assert abs(res.tp_on_domain_residual - np.linalg.norm((vec_one @ v - vec_one) @ us)) < 1e-13


def test_grid_path_factorizes_each_map_once(monkeypatch):
    fam = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0)
    grid = make_grid(fam.t_max, 400)
    v = cp_divisibility_verdict(fam, grid)

    def refuse(*args, **kwargs):
        raise AssertionError("a second factorization of a grid map")

    # the propagators come from the scan's SVD, with no pinv of their own
    monkeypatch.setattr(np.linalg, "pinv", refuse)
    assert cp_divisibility_verdict(fam, grid).worst_choi_min_eig == v.worst_choi_min_eig
    # rank_profile needs the singular values only, not the scan's residuals
    monkeypatch.setattr(divisibility, "_scan_grid", refuse)
    rp = rank_profile(fam, grid)
    assert np.array_equal(rp.singular_values, v.ranks.singular_values)
    assert rp.breakpoints == v.ranks.breakpoints


def reference_scan(naturals, rank_rtol=divisibility.RANK_RTOL):
    """The scan's block loop with no run skipping or screening: an SVD of every map and,
    for every pair whose first map has lost rank, both residuals' exact 2-norms (0 for the
    others), and V_k. Returns (kernel residuals, image residuals, images, singular values, V)."""
    n, dd = naturals.shape[:2]
    svals, images = np.empty((n, dd)), np.empty((n, dd, dd), dtype=complex)
    v, ker_res, img_res = np.empty((n - 1, dd, dd), dtype=complex), np.zeros(n - 1), np.zeros(n - 1)
    step = BLOCK_ENTRIES // dd ** 2
    for lo in range(0, n - 1, step):
        u, sv, vh = np.linalg.svd(naturals[lo:lo + step + 1])
        hi = lo + len(sv) - 1
        keep = divisibility._keep(sv, rank_rtol)
        svals[lo:hi + 1], images[lo:hi + 1] = sv, u * keep[:, None, :]
        vs, nt = vh[:-1].conj().swapaxes(-1, -2), naturals[lo + 1:hi + 1]
        if not keep[:-1].all():
            ker_res[lo:hi] = np.linalg.norm(nt @ (vs * ~keep[:-1, None, :]), 2, axis=(-2, -1))
        us, ut, lost = images[lo:hi], images[lo + 1:hi + 1], ~keep[:-1].all(axis=1)
        img_res[lo:hi][lost] = np.linalg.norm((ut - us @ (us.conj().swapaxes(-1, -2) @ ut))[lost],
                                              2, axis=(-2, -1))
        s_inv = 1.0 / np.where(keep[:-1], sv[:-1], np.inf)
        v[lo:hi] = nt @ (vs @ (s_inv[:, :, None] * us.conj().swapaxes(-1, -2)))
    return ker_res, img_res, images, svals, v


def reference_propagators(images, v, starts, projectors):
    """The propagator builder with a Choi test of every pair."""
    n, step = len(v), BLOCK_ENTRIES // v.shape[-1] ** 2
    vec_one = np.eye(int(round(np.sqrt(v.shape[-1]))), dtype=complex).reshape(-1)
    cp_ok, (choi_lo, tp, tp_dom) = np.empty(n, dtype=bool), np.empty((3, n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        nat = v[lo:hi]
        for b in sorted(projectors, reverse=True):
            past = np.asarray(starts[lo:hi]) + divisibility.CHAIN_SLACK >= b
            nat[past] = nat[past] @ projectors[b].natural
        cp_ok[lo:hi], choi_lo[lo:hi] = divisibility.choi_test(nat, tol=divisibility.CHECK_TOL)
        tp[lo:hi] = divisibility.tp_residual(nat)
        row = (vec_one @ nat - vec_one)[:, None, :]
        tp_dom[lo:hi] = np.linalg.norm((row @ images[lo:hi])[:, 0], axis=-1)
    return cp_ok, choi_lo, tp, tp_dom


# runs of equal maps that start and end where blocks meet (map b * k is the last of
# block k and the first of block k + 1, for b pairs per block), span blocks, or cover
# the grid; as (k, offset) for the map b * k + offset
RUN_EDGES = [(k, offset) for k in (1, 2) for offset in (-1, 0, 1)]


@settings(max_examples=60, deadline=None)
@given(layout=st.sampled_from(["edges", "all_equal", "no_repeats", "random"]),
       first=st.sampled_from(RUN_EDGES), last=st.sampled_from(RUN_EDGES),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
       full_share=st.sampled_from([0.0, 0.5]), dim=st.sampled_from([2, 3, 4]),
       seed=st.integers(0, 2**32 - 1))
def test_run_skipping_matches_the_per_pair_reference(layout, first, last, fractions,
                                                     full_share, dim, seed):
    b = block(dim)
    n, (first, last) = 2 * b + 3, sorted(b * k + offset for k, offset in (first, last))
    lengths = [1 + int(f * b) for f in fractions]  # random runs of up to a block
    lengths = {"edges": [1] * first + [last - first + 1] + [1] * (n - last - 1),
               "all_equal": [n], "no_repeats": [1] * n, "random": lengths}[layout]
    rng, dd = np.random.default_rng(seed), dim ** 2
    # each run draws its own rank, so ranks change at run edges
    ranks = np.where(rng.random(len(lengths)) < full_share, dd,
                     rng.integers(1, dd + 1, len(lengths)))
    fam, maps = ranked_family(rng, dim, ranks)
    nats = np.repeat(maps, lengths, axis=0)
    times = np.arange(len(nats), dtype=float)
    ok, worst_ker, first_violation, img_ok, worst_img, images, svals, _, v = \
        divisibility._scan_grid(fam, times, divisibility.RANK_RTOL, nats)
    ker, img, ref_images, ref_svals, ref_v = reference_scan(nats)
    bad = np.flatnonzero(ker >= divisibility.INCLUSION_TOL)
    assert worst_ker == np.max(ker) and worst_img == np.max(img)
    assert first_violation == (times[bad[0] + 1] if len(bad) else None)
    assert ok == (not len(bad)) and img_ok == (np.max(img) < divisibility.INCLUSION_TOL)
    assert np.array_equal(images, ref_images) and np.array_equal(svals, ref_svals)
    assert np.array_equal(v, ref_v)
    # a limit projector from inside the first run splits the runs of composed V
    projectors = {first + 1.0: Superoperator(dim=dim, natural=random_unitary(rng, dd))}
    got = divisibility._propagators(images, v, times[:-1], projectors)
    for x, y in zip(got, reference_propagators(ref_images, ref_v, times[:-1], projectors),
                    strict=True):
        assert np.array_equal(x, y)


INVERTIBLE_FAMILIES = {
    "ad_exp": lambda: preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0),
    "pauli_neg": lambda: preset_pauli_channel(
        gammas=[sg.constant(1.0), sg.constant(1.0), sg.piecewise_linear(
            [(float(t), float(-np.tanh(t))) for t in np.linspace(0.0, 2.0, 21)])], t_max=2.0),
}


@pytest.mark.parametrize("case", sorted(INVERTIBLE_FAMILIES))
def test_invertible_families_have_no_image_residual(case):
    # Im Lambda_s is the whole space at full rank: exactly 0, not rounding noise
    fam = INVERTIBLE_FAMILIES[case]()
    times = make_grid(fam.t_max, 400).times
    v = cp_divisibility_verdict(fam, times)
    assert v.invertible_everywhere
    assert is_image_nonincreasing(fam, times)[1] == 0.0 and v.image_residual == 0.0


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 40), dim=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1))
def test_full_rank_stacks_have_no_image_residual(n, dim, seed):
    fam, _ = ranked_family(np.random.default_rng(seed), dim, [dim ** 2] * n)
    times = np.arange(n, dtype=float)
    assert is_image_nonincreasing(fam, times) == (True, 0.0)
    assert cp_divisibility_verdict(fam, times).image_residual == 0.0


@pytest.mark.parametrize("make, s, t, chain", [
    (ad_clipped, 0.5, 1.0, 0), (ad_clipped, 1.9, 2.4, 1), (pauli_two_breakpoints, 2.2, 2.7, 2)])
def test_composition_residual_is_the_norm_of_its_own_propagator(make, s, t, chain):
    fam = make()
    breakpoints = rank_profile(fam, make_grid(fam.t_max, 151)).breakpoints
    assert sum(b <= s for b in breakpoints) == chain
    pr = composite_propagator(fam, t, s, breakpoints)
    nats = fam.naturals(np.array([s, t]))
    norm = np.linalg.norm((pr.v.natural[None] @ nats[:1] - nats[1:]).reshape(1, -1), axis=-1)
    assert pr.composition_residual == float(norm[0])


def rank_one(rng, k, dd):
    a, b = (rng.standard_normal((k, dd, 1)) + 1j * rng.standard_normal((k, dd, 1))
            for _ in range(2))
    return a @ b.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("case", ["straddling", "tiny"])
def test_kernel_residuals_at_the_floor_or_far_below_it_are_exact(case):
    # Lambda_k = U_k (+) R_k on qubit superoperators (U_k a 2 x 2 unitary block, R_k = 0
    # at even k), so pair (k, k + 1) of an even k has the kernel residual ||R_{k+1}||_2
    rng, tol, n = np.random.default_rng(7), divisibility.INCLUSION_TOL, 201
    nats = np.zeros((n, 4, 4), dtype=complex)
    nats[:, :2, :2] = [random_unitary(rng, 2) for _ in range(n)]
    if case == "straddling":  # rank-1 blocks whose Frobenius norm is the floor
        r = rank_one(rng, n, 2)
        r *= tol / np.linalg.norm(r.reshape(n, -1), axis=-1)[:, None, None]
    else:  # far below the floor: squares of the entries underflow
        r = 1e-176 * (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)))
    nats[1::2, 2:, 2:] = r[1::2]
    fam = MapFamily(dim=2, t_max=n - 1.0, kind="blocks",
                    stack=lambda ts: nats[np.rint(ts).astype(int)])
    ref = np.zeros(n - 1)
    for k, (ns, nt) in enumerate(zip(nats[:-1], nats[1:])):
        _, sv, vh = np.linalg.svd(ns)
        ker = ~divisibility._keep(sv, divisibility.RANK_RTOL)
        ref[k] = np.linalg.norm(nt @ (vh.conj().T * ker), 2) if ker.any() else 0.0
    bad = np.flatnonzero(ref >= tol)
    ok, worst, first = is_divisible(fam, np.arange(n, dtype=float))
    assert worst == np.max(ref) and first == (bad[0] + 1.0 if len(bad) else None)
    assert ok == (not len(bad))
    if case == "straddling":
        assert 0 < len(bad) < n // 2  # residuals on both sides of the floor
    else:
        assert 1e-177 < worst < 1e-175


def test_the_screen_takes_few_exact_norms_on_a_frozen_tail_ququart(monkeypatch):
    # a rank collapse at t = 1, then 199 equal maps; the full-rank pairs' image
    # residuals are rounding noise, whose Frobenius norm is about twice the 2-norm
    fam = equilibrium(random_density(np.random.default_rng(4), 4))
    seen, norm = [0], np.linalg.norm

    def counting_norm(x, ord=None, axis=None, keepdims=False):
        seen[0] += len(x) if ord == 2 and np.ndim(x) == 3 else 0  # the stacked exact 2-norms
        return norm(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    v = cp_divisibility_verdict(fam, make_grid(fam.t_max, 400))
    assert v.status is DivisibilityStatus.CP_DIVISIBLE
    assert 0 < seen[0] <= 20


def test_ranks_masks_and_thresholds_follow_one_rank_rule():
    # g freezes at 1.2e-9, so s_1 = s_2 = 1.2e-9 sit between rtol s_0(0) = 1e-9 and
    # rtol s_0(t) = 1.41e-9: a cut from s_0(0) alone counted rank 3 in the tail
    fam = preset_amplitude_damping(g=sg.piecewise_linear([(0, 1), (1, 1.2e-9), (2, 1.2e-9)]),
                                   t_max=2.0)
    times = make_grid(fam.t_max, 41).times
    rp = cp_divisibility_verdict(fam, times).ranks
    images = divisibility._scan_grid(fam, times, divisibility.RANK_RTOL)[5]
    assert rp.ranks.tolist() == [4] * 20 + [1] * 21
    assert np.array_equal(rp.ranks, np.sum(np.any(images != 0, axis=-2), axis=-1))
    assert np.array_equal(rp.ranks, np.sum(rp.singular_values > rp.threshold[:, None], axis=1))
    assert np.array_equal(rank_profile(fam, times).ranks, rp.ranks)
    assert propagator(fam, 2.0, times[-2]).domain_vecs.shape == (4, 1)


def test_grid_svd_and_choi_tests_take_each_distinct_map_once(monkeypatch):
    fam = ad_clipped()
    times = make_grid(fam.t_max, 400).times
    nats = fam.naturals(times)
    distinct = 1 + int(np.sum(np.any(nats[1:] != nats[:-1], axis=(-2, -1))))
    blocks = -(-(len(times) - 1) // QUBIT_BLOCK)
    assert distinct == 201
    seen = {"svd": 0, "choi": 0}
    svd, choi_test = np.linalg.svd, steps.choi_test

    def counting_svd(a, *args, **kwargs):
        seen["svd"] += len(a) if np.ndim(a) == 3 else 0  # stacked grid SVDs only
        return svd(a, *args, **kwargs)

    def counting_choi_test(nat, *args, **kwargs):
        seen["choi"] += len(nat)
        return choi_test(nat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(steps, "choi_test", counting_choi_test)  # the builder's module
    assert cp_divisibility_verdict(fam, times).status is DivisibilityStatus.CP_DIVISIBLE
    assert 0 < seen["svd"] <= distinct + blocks
    assert 0 < seen["choi"] <= distinct + blocks


def eq_mono(t_max=2.0):
    return equilibrium(random_density(np.random.default_rng(5), 2), t_max)


VERDICT_CASES = {"ad_clipped": (ad_clipped, 1), "pauli_two_bp": (pauli_two_breakpoints, 2),
                 "eq_mono": (eq_mono, 1)}


@pytest.mark.parametrize("case", sorted(VERDICT_CASES))
def test_verdict_needs_no_hermitian_basis(case, monkeypatch):
    def no_gram_schmidt(*args, **kwargs):
        raise AssertionError("the verdict built a Hermitian basis")

    monkeypatch.setattr("markovlens.divisibility.gram_schmidt_hermitian", no_gram_schmidt)
    factory, n_projectors = VERDICT_CASES[case]
    fam = factory()
    v = cp_divisibility_verdict(fam, make_grid(fam.t_max, 400))
    assert v.status is DivisibilityStatus.CP_DIVISIBLE
    assert len(v.projectors) == n_projectors


def conjugated(fam, u):
    """The family U Lambda_t(U^+ . U) U^+ in the natural representation."""
    w = np.kron(u.conj(), u)
    return MapFamily(dim=fam.dim, t_max=fam.t_max, kind="conjugated",
                     stack=per_time_stack(lambda t: Superoperator(
                         dim=fam.dim, natural=w @ fam.evaluate(t).natural @ w.conj().T), fam.dim))


@pytest.mark.parametrize("case", sorted(VERDICT_CASES))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_verdict_invariant_under_unitary_conjugation(case, seed):
    fam = VERDICT_CASES[case][0]()
    grid = make_grid(fam.t_max, 151)
    plain = cp_divisibility_verdict(fam, grid)
    v = cp_divisibility_verdict(
        conjugated(fam, random_unitary(np.random.default_rng(seed), fam.dim)), grid)
    assert v.status is plain.status
    assert np.array_equal(v.ranks.ranks, plain.ranks.ranks)
    assert len(v.ranks.breakpoints) == len(plain.ranks.breakpoints)
    assert np.allclose(v.ranks.breakpoints, plain.ranks.breakpoints, rtol=0, atol=1e-9)


COMPOSITE_CASES = {**VERDICT_CASES, "ad_invertible": (
    lambda: preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0), 0)}


@pytest.mark.parametrize("case", sorted(COMPOSITE_CASES))
@settings(max_examples=20, deadline=None)
@given(i=st.integers(0, 150), j=st.integers(0, 150))
def test_composite_propagators_reproduce_the_map(case, i, j):
    factory, n_projectors = COMPOSITE_CASES[case]
    fam = factory()
    times = make_grid(fam.t_max, 151).times
    v = cp_divisibility_verdict(fam, times)
    assert v.status is DivisibilityStatus.CP_DIVISIBLE
    assert len(v.projectors) == n_projectors
    s, t = float(times[min(i, j)]), float(times[max(i, j)])
    comp = composite_propagator(fam, t, s, v.ranks.breakpoints, projectors=dict(v.projectors))
    assert comp.composition_residual < 1e-9
    assert np.linalg.norm(comp.v.natural @ fam.evaluate(s).natural
                          - fam.evaluate(t).natural) < 1e-9


NATURALS_CALLS = {
    "cp_divisibility_verdict": lambda fam, grid, nats: cp_divisibility_verdict(
        fam, grid, naturals=nats),
    "rank_profile": lambda fam, grid, nats: rank_profile(fam, grid, naturals=nats),
    "helstrom_witness": lambda fam, grid, nats: helstrom_witness(
        fam, np.diag([1.0, -1.0]), "none", grid, naturals=nats),
    "blp_sigma": lambda fam, grid, nats: blp_sigma(
        fam, GROUND_PROJECTOR, np.eye(2) / 2, grid, naturals=nats),
    "witness_scan": lambda fam, grid, nats: witness_scan(
        fam, grid, n_samples=2, n_refine=0, naturals=nats),
    "canonical_rates": lambda fam, grid, nats: canonical_rates(fam, nats, grid.times),
}


@pytest.mark.parametrize("extra", [-1, 1], ids=["one_short", "one_long"])
@pytest.mark.parametrize("call", NATURALS_CALLS.values(), ids=NATURALS_CALLS.keys())
def test_naturals_of_the_wrong_length_are_rejected(call, extra):
    fam = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0)
    grid = make_grid(fam.t_max, 400)
    nats = fam.naturals(make_grid(fam.t_max, 400 + extra).times)
    shapes = rf"\({400 + extra}, 4, 4\).*\(400, 4, 4\)"
    with pytest.raises(ValueError, match=shapes):
        call(fam, grid, nats)


GRID_CALLS = {
    "witness_scan": lambda fam, grid: witness_scan(fam, grid, n_samples=2, n_refine=0),
    "blp_sigma": lambda fam, grid: blp_sigma(fam, GROUND_PROJECTOR, np.eye(2) / 2, grid),
    "cp_divisibility_verdict": cp_divisibility_verdict,
    "rank_profile": rank_profile,
}


@pytest.mark.parametrize("grid", [[1.0], [0.0], [0.0, 2.0, 1.0]],
                         ids=["no_zero", "one_point", "unsorted"])
@pytest.mark.parametrize("call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
def test_raw_time_arrays_are_validated(call, grid):
    times = np.array(grid)
    with pytest.raises(ValueError, match="grid"):
        call(ad_clipped(), times)
    assert times.flags.writeable


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-7],
                         ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("key", ["choi_tol", "tp_tol", "rank_rtol", "fd_tol"])
def test_tolerances_must_be_finite_and_positive(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be finite and positive"):
        VerdictTolerances(**{key: value})


@pytest.mark.parametrize("value", [1.0, 2.0])
def test_rank_rtol_must_be_below_one(value):
    # the rank rule s > rank_rtol max(s_0, 1) would cut every singular value of the
    # identity: an invertible family read NOT_DIVISIBLE with rank 0 at t = 0
    with pytest.raises(ValueError, match=f"^rank_rtol must be below 1, got {value}"):
        VerdictTolerances(rank_rtol=value)
    assert VerdictTolerances(rank_rtol=np.nextafter(1.0, 0.0)).rank_rtol < 1


@pytest.mark.parametrize("value", [1.0, 2.0])
def test_rank_profile_rtol_must_be_below_one(value):
    # rank 0 at every time and invertible_everywhere False, for an invertible family
    fam = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0)
    with pytest.raises(ValueError, match=f"^rtol must be below 1, got {value}$"):
        rank_profile(fam, make_grid(3.0, 101), rtol=value)
    assert rank_profile(fam, make_grid(3.0, 101), rtol=0.5).ranks[0] == 4


@pytest.mark.parametrize("value", [1.0, 2.0])
def test_image_basis_rtol_must_be_below_one(value):
    # an EmptyBasisError ("all spanning elements are zero") that did not name the argument
    lam0 = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0).evaluate(0.0)
    with pytest.raises(ValueError, match=f"^rtol must be below 1, got {value}$"):
        image_basis(lam0, value)
    assert len(image_basis(lam0, 0.5)) == 4


def test_a_nan_time_is_outside_the_family_domain():
    # NaN compares False both ways, so it used to pass the domain check and end in
    # a NaN map or an SVD that does not converge
    fam = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0)
    for call in (lambda: fam.evaluate(np.nan), lambda: fam.naturals([0.0, np.nan, 1.0]),
                 lambda: propagator(fam, np.nan, 0.5), lambda: limit_projector(fam, np.nan)):
        with pytest.raises(ValueError, match="time nan outside family domain"):
            call()


def test_canonical_rates_flag_singular_maps_by_the_rank_rule():
    # s_0 = 0.5 < 1, so the rank rule cuts at rank_rtol, not at rank_rtol * s_0
    def at(t):
        return Superoperator(dim=2, natural=np.diag([0.5, 0.5, 0.5, 0.5 if t < 1 else 7e-10]))

    fam = MapFamily(dim=2, t_max=2.0, kind="test", stack=per_time_stack(at, 2))
    times = make_grid(2.0, 21).times
    _, failures = canonical_rates(fam, fam.naturals(times), times)
    singular = [k for k, exc in sorted(failures.items()) if isinstance(exc, SingularGeneratorError)]
    assert singular == np.flatnonzero(rank_profile(fam, times).ranks < 4).tolist() != []


def test_tolerances_are_frozen():
    tl = VerdictTolerances()
    with pytest.raises(dataclasses.FrozenInstanceError):
        tl.choi_tol = float("nan")  # would skip the finiteness check
    assert dataclasses.replace(tl, seed=7).seed == 7
    with pytest.raises(ValueError, match="^choi_tol must be finite and positive"):
        dataclasses.replace(tl, choi_tol=float("nan"))


@pytest.mark.parametrize("t_star", [0.0, 1e-300])
def test_limit_projector_needs_a_time_past_its_smallest_step(t_star):
    fam = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0)
    smallest = (divisibility.LIMIT_EPS0 * fam.t_max
                * divisibility.LIMIT_SHRINK ** (divisibility.LIMIT_STEPS - 1))
    with pytest.raises(ValueError, match=rf"^t\*={t_star} is no larger than the smallest step "
                                         rf"{smallest:.3e}$"):
        limit_projector(fam, t_star)


@pytest.mark.parametrize("key, value", [
    ("seed", -1), ("seed", True), ("seed", 3.0), ("seed", "3"),
    ("positivity_samples", -5), ("positivity_samples", 0), ("positivity_samples", 500.0),
    ("positivity_samples", False),
], ids=["seed_negative", "seed_bool", "seed_float", "seed_str", "samples_negative",
        "samples_zero", "samples_float", "samples_bool"])
def test_tolerances_need_an_integer_seed_and_sample_count(key, value):
    # both are keys of the sampled-state and witness caches, where 3.0 would hash as 3
    with pytest.raises(ValueError, match=f"^{key} must be "):
        VerdictTolerances(**{key: value})


def test_tolerances_take_numpy_integers():
    tl = VerdictTolerances(seed=np.int64(3), positivity_samples=np.int32(1))
    assert (tl.seed, tl.positivity_samples) == (3, 1)


def no_bisection(*args):
    raise AssertionError("the rank drop was bisected")


def reviving_cosine(t_max=np.pi):
    return preset_amplitude_damping(g=sg.sinusoidal(1.0, 1.0, np.pi / 2), t_max=t_max)


def equilibrium_dip():
    f = sg.piecewise_linear([(0.0, 0.0), (1.0, 1.0), (1.5, 0.8), (2.0, 1.0)])
    return preset_equilibrium_relaxation(random_density(np.random.default_rng(5), 2), f,
                                         t_max=2.0)


@pytest.mark.parametrize("n", [400, 401, 1000, 1001])
@pytest.mark.parametrize("make, t_star", [(reviving_cosine, np.pi / 2), (equilibrium_dip, 1.0)],
                         ids=["ad_cos", "eq_dip"])
def test_a_rank_drop_between_grid_times_is_not_divisible(monkeypatch, make, t_star, n):
    # G = cos t and F through (1, 1) leave the singular map at t* at once
    monkeypatch.setattr(divisibility, "_bisect", no_bisection)
    fam = make()
    v = cp_divisibility_verdict(fam, make_grid(fam.t_max, n))
    assert v.status is DivisibilityStatus.NOT_DIVISIBLE
    assert v.ranks.breakpoints[0] == pytest.approx(t_star, rel=0, abs=1e-15)
    assert len(v.ranks.times) == n  # the profile stays on the grid


def test_a_rank_drop_just_before_the_last_grid_time_is_not_divisible():
    fam = reviving_cosine(t_max=np.pi / 2 + 0.004)
    v = cp_divisibility_verdict(fam, make_grid(fam.t_max, 101))
    assert v.status is DivisibilityStatus.NOT_DIVISIBLE
    assert v.first_violation_time == fam.t_max


@pytest.mark.parametrize("n", [48, 50, 101, 151, 161, 201, 400, 401])
def test_pauli_two_breakpoints_get_both_projectors_without_bisection(monkeypatch, n):
    monkeypatch.setattr(divisibility, "_bisect", no_bisection)
    v = cp_divisibility_verdict(pauli_two_breakpoints(), make_grid(3.0, n))
    assert v.status is DivisibilityStatus.CP_DIVISIBLE
    assert v.ranks.breakpoints == (1.0, 2.0)
    assert [t for t, _ in v.projectors] == [1.0, 2.0]
    dephasing = superop_from_action(lambda x: np.diag(np.diag(x)), 2).natural
    depolarizing = superop_from_action(lambda x: np.eye(2) / 2 * np.trace(x), 2).natural
    for (_, p), target in zip(v.projectors, (dephasing, depolarizing)):
        assert np.linalg.norm(p.natural - target) < 1e-6


@pytest.mark.parametrize("make, status, n_projectors", [
    (ad_clipped, DivisibilityStatus.CP_DIVISIBLE, 1),
    (pauli_frozen, DivisibilityStatus.CP_DIVISIBLE, 1),
    (lambda: equilibrium(random_density(np.random.default_rng(3), 3)),
     DivisibilityStatus.CP_DIVISIBLE, 1),
    (lambda: preset_amplitude_damping(gamma=sg.sinusoidal(1.0, 1.0), t_max=2 * np.pi),
     DivisibilityStatus.DIVISIBLE_ONLY, 0),
], ids=["ad_clipped", "pauli_frozen", "eq_mono_d3", "ad_sin"])
def test_preset_verdicts_take_their_breakpoints_in_closed_form(monkeypatch, make, status,
                                                               n_projectors):
    monkeypatch.setattr(divisibility, "_bisect", no_bisection)
    fam = make()
    v = cp_divisibility_verdict(fam, make_grid(fam.t_max, 400))
    assert v.status is status
    assert len(v.projectors) == n_projectors
    assert set(v.ranks.breakpoints) <= set(fam.candidates)


def test_a_family_without_candidates_bisects_its_rank_drop():
    fam = dataclasses.replace(ad_clipped(), candidates=())
    rp = rank_profile(fam, make_grid(np.pi, 400))
    assert len(rp.breakpoints) == 1
    assert np.pi / 2 < rp.breakpoints[0] < np.pi / 2 + 1e-6  # just past the drop


@pytest.mark.parametrize("n", [101, 201, 401])
def test_a_rise_of_g_between_grid_times_is_not_cp_divisible(n):
    # |G| rises on (1.0, 1.01), inside one step of the 101-point grid
    g = sg.piecewise_linear([(0, 1), (1, 0.5), (1.01, 0.51), (1.02, 0.49), (2, 0.3)])
    fam = preset_amplitude_damping(g=g, t_max=2.0)
    assert fam.candidates == (0.0, 1.0, 1.01, 2.0)
    v = cp_divisibility_verdict(fam, make_grid(2.0, n))
    assert v.status is DivisibilityStatus.DIVISIBLE_ONLY


def test_a_dip_before_a_rank_drop_reaches_the_probe_without_the_breakpoint_time():
    # F dips on (0.5, 0.7), then reaches 1 at t = 1, off the grid, and stays
    f = sg.piecewise_linear([(0, 0), (0.5, 0.6), (0.7, 0.4), (1, 1), (2, 1)])
    fam = preset_equilibrium_relaxation(random_density(np.random.default_rng(4), 2), f,
                                        t_max=2.0)
    times = make_grid(2.0, 400).times
    v = cp_divisibility_verdict(fam, times)
    assert v.status is DivisibilityStatus.DIVISIBLE_ONLY
    assert v.ranks.breakpoints == (1.0,) and len(v.projectors) == 1
    assert v.p_sampling_min_eig < 0 and v.witness_max_backflow is not None
    # the probe's witness record covers the grid and the extrema 0.5 and 0.7, not t* = 1
    rec = witnesses._scan_naturals(fam.naturals(np.union1d(times, [0.5, 0.7])),
                                   np.union1d(times, [0.5, 0.7]), "none", 32, 4,
                                   VerdictTolerances().seed)
    assert v.witness_max_backflow == rec.max_backflow
