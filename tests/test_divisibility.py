import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovlens import divisibility
from markovlens import signals as sg
from markovlens.divisibility import (
    BLOCK,
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
    preset_amplitude_damping,
    preset_equilibrium_relaxation,
    preset_pauli_channel,
)
from markovlens.errors import (
    CauchyDivergenceError,
    NotDivisibleError,
    ProjectorValidationError,
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
from markovlens.witnesses import blp_sigma, witness_scan

from conftest import random_density, random_unitary


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
                     evaluator=evaluator)


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

    fam = MapFamily(dim=2, t_max=2.0, kind="oscillating", evaluator=evaluator)
    with pytest.raises(CauchyDivergenceError):
        limit_projector(fam, 1.0)


def test_limit_projector_validation_failure_names_property():
    # non-trace-preserving family: the limit exists but is not TP
    def evaluator(t):
        v = GROUND_PROJECTOR.reshape(-1, order="F")
        nat = (1 - min(t, 1.0)) * np.eye(4, dtype=complex) \
            + 2.0 * min(t, 1.0) * np.outer(v, v.conj())
        return Superoperator(dim=2, natural=nat)

    fam = MapFamily(dim=2, t_max=2.0, kind="non_tp", evaluator=evaluator)
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


def pauli_two_breakpoints(t_max=3.0):
    lam12 = sg.piecewise_linear([(0, 1), (1, 0), (t_max, 0)])
    lam3 = sg.piecewise_linear([(0, 1), (1, 1), (2, 0), (t_max, 0)])
    return preset_pauli_channel(lambdas=[lam12, lam12, lam3], t_max=t_max)


# grid sizes around the edges of the blocks of pairs that the scan and the
# propagator builder stack; 151 points hold the Pauli breakpoints 1 and 2
@pytest.mark.parametrize("n", [2, 3, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 151])
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


@pytest.mark.parametrize("n", [2 * BLOCK - 1, 2 * BLOCK + 1])
def test_singular_time_at_a_block_edge_is_not_divisible(n):
    # g = cos t vanishes only at pi/2, grid index n // 2, so the violating pair
    # is the last pair of the first block (2 * BLOCK - 1 points) or the first
    # pair of the second, which starts at the map the two blocks share
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

    fam = MapFamily(dim=2, t_max=clipped.t_max, kind="counted", evaluator=evaluator)
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

    return MapFamily(dim=fam.dim, t_max=fam.t_max, kind="counted", evaluator=evaluator), calls


def test_p_divisibility_probe_reuses_the_grid_maps():
    fam, calls = counted(preset_pauli_channel(
        gammas=[sg.constant(1.0), sg.constant(1.0), sg.sinusoidal(-0.9, 1.0)], t_max=np.pi))
    v = cp_divisibility_verdict(fam, make_grid(np.pi, 101))
    assert v.status is DivisibilityStatus.P_DIVISIBLE
    assert len(calls) <= 110


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
                     evaluator=lambda t: Superoperator(
                         dim=fam.dim, natural=w @ fam.evaluate(t).natural @ w.conj().T))


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
