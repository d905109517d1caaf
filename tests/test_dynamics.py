import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from markovlens import signals as sg
from markovlens.dynamics import (
    MapFamily,
    _canonical_split,
    amplitude_damping_generator,
    canonical_gkls,
    canonical_rates,
    damping_basis,
    generator_from_family,
    gkls_superop,
    integrate_generator,
    pauli_generator,
    preset_amplitude_damping,
    preset_equilibrium_relaxation,
    preset_pauli_channel,
    validate_dynamical_map,
)
from markovlens.errors import (
    DefectiveMapError,
    IntegrationAccuracyError,
    NumericalError,
    SingularGeneratorError,
)
from markovlens.operator_core import (
    GROUND_PROJECTOR,
    traceless_hermitian_basis,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SIGMA_MINUS,
    hs_norm,
    trace_norm,
)
from markovlens.superop import Superoperator, apply

from conftest import random_density, random_hermitian


def test_amplitude_damping_closed_form():
    fam = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0)
    assert np.allclose(fam.evaluate(0.0).natural, np.eye(4), atol=1e-12)
    out = apply(fam.evaluate(2.0), PAULI_X)
    assert trace_norm(out) == pytest.approx(2 * np.exp(-1), abs=1e-12)
    rho = np.array([[0.4, 0.1 + 0.2j], [0.1 - 0.2j, 0.6]])
    g = np.exp(-1.0)
    expected = np.array([
        [g * g * rho[0, 0], g * rho[0, 1]],
        [g * rho[1, 0], (1 - g * g) * rho[0, 0] + rho[1, 1]],
    ])
    assert np.allclose(apply(fam.evaluate(2.0), rho), expected, atol=1e-12)


def test_amplitude_damping_rank_collapse_at_clip():
    fam = preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2), t_max=3.0)
    rho = random_density(np.random.default_rng(5), 2)
    out = apply(fam.evaluate(np.pi / 2), rho)
    assert np.allclose(out, GROUND_PROJECTOR * np.trace(rho), atol=1e-12)


def test_amplitude_damping_requires_unit_start():
    with pytest.raises(ValueError, match="G\\(0\\)"):
        preset_amplitude_damping(g=sg.sinusoidal(1.5, 1.0, np.pi / 2, 0.0),
                                 t_max=2.0)


def test_amplitude_damping_rejects_growth():
    fam = preset_amplitude_damping(gamma=sg.constant(-0.4), t_max=2.0)
    with pytest.raises(NumericalError, match="not CP"):
        fam.evaluate(1.0)


def test_pauli_rate_form_matches_integrals():
    fam = preset_pauli_channel(gammas=[sg.constant(1.0)] * 3, t_max=2.0)
    s = fam.evaluate(1.0)
    for sig in (PAULI_X, PAULI_Y, PAULI_Z):
        assert np.allclose(apply(s, sig), np.exp(-2.0) * sig, atol=1e-12)
    assert np.allclose(apply(s, np.eye(2)), np.eye(2), atol=1e-12)


def test_pauli_quadrature_oracle():
    # lambda_1 = exp(-Gamma_3) for the single divergent-rate channel
    g3 = sg.inverse_gap(1.0)
    fam = preset_pauli_channel(gammas=[sg.constant(0.0), sg.constant(0.0), g3],
                               t_max=0.95)
    t = 0.6
    gamma_int, _ = quad(g3.value, 0.0, t)
    lam = np.exp(-gamma_int)
    assert lam == pytest.approx(1.0 - t, abs=1e-9)
    assert np.allclose(apply(fam.evaluate(t), PAULI_X), (1 - t) * PAULI_X,
                       atol=1e-9)
    assert np.allclose(apply(fam.evaluate(t), PAULI_Z), PAULI_Z, atol=1e-12)


def test_pauli_lambda_form_rank_drop():
    lam12 = sg.piecewise_linear([(0, 1), (1, 0), (2, 0)])
    fam = preset_pauli_channel(lambdas=[lam12, lam12, sg.constant(1.0)], t_max=2.0)
    s = fam.evaluate(1.0)
    assert np.allclose(apply(s, PAULI_X), 0.0, atol=1e-12)
    assert np.allclose(apply(s, PAULI_Z), PAULI_Z, atol=1e-12)
    svals = np.linalg.svd(s.natural, compute_uv=False)
    assert np.sum(svals > 1e-9) == 2


def test_pauli_cp_violation_names_time():
    lam = sg.piecewise_linear([(0, 1), (1, -0.5), (2, -0.5)])
    fam = preset_pauli_channel(lambdas=[lam, sg.constant(1.0), sg.constant(1.0)],
                               t_max=2.0)
    with pytest.raises(NumericalError, match="t=1.0"):
        fam.evaluate(1.0)


def test_equilibrium_relaxation_forms(rng):
    omega = random_density(rng, 2)
    f = sg.piecewise_linear([(0, 0), (1, 1), (2, 1)])
    fam = preset_equilibrium_relaxation(omega, f, t_max=2.0)
    assert np.allclose(fam.evaluate(0.0).natural, np.eye(4), atol=1e-12)
    # fixed point at every time
    for t in (0.3, 1.0, 1.7):
        assert hs_norm(apply(fam.evaluate(t), omega) - omega) < 1e-12
    rho = random_density(rng, 2)
    assert np.allclose(apply(fam.evaluate(1.5), rho), omega * np.trace(rho),
                       atol=1e-12)

    half = preset_equilibrium_relaxation(np.eye(2) / 2, f, t_max=2.0)
    assert np.allclose(apply(half.evaluate(0.5), PAULI_Z), 0.5 * PAULI_Z,
                       atol=1e-12)


def test_equilibrium_rejects_bad_f(rng):
    omega = random_density(rng, 2)
    fam = preset_equilibrium_relaxation(
        omega, sg.piecewise_linear([(0, 0), (1, 1.4)]), t_max=1.0)
    with pytest.raises(NumericalError, match="outside"):
        fam.evaluate(1.0)
    with pytest.raises(ValueError, match="F\\(0\\)"):
        preset_equilibrium_relaxation(omega, sg.constant(0.5), t_max=1.0)


def test_presets_are_cptp_on_grid(rng):
    omega = random_density(rng, 2)
    families = [
        preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2), t_max=3.0),
        preset_amplitude_damping(gamma=sg.sinusoidal(1.0, 1.0), t_max=2 * np.pi),
        preset_pauli_channel(gammas=[sg.constant(0.3), sg.constant(0.5),
                                     sg.constant(0.1)], t_max=2.0),
        preset_equilibrium_relaxation(
            omega, sg.piecewise_linear([(0, 0), (1, 1), (2, 1)]), t_max=2.0),
    ]
    for fam in families:
        worst = validate_dynamical_map(fam, np.linspace(0, fam.t_max, 60), tol=1e-8)
        assert worst < 1e-8


def test_presets_commute(rng):
    fams = [
        preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0),
        preset_pauli_channel(gammas=[sg.constant(0.3), sg.sinusoidal(0.2, 1.0),
                                     sg.constant(0.1)], t_max=3.0),
    ]
    for fam in fams:
        for s, t in [(0.4, 1.1), (0.9, 2.5)]:
            a = fam.evaluate(s).natural
            b = fam.evaluate(t).natural
            assert np.max(np.abs(a @ b - b @ a)) < 1e-9


def test_integrate_zero_generator():
    fam = integrate_generator(lambda t: np.zeros((4, 4)), t_max=2.0, dim=2,
                              n_steps=50)
    for t in (0.0, 0.7, 2.0):
        assert np.allclose(fam.evaluate(t).natural, np.eye(4), atol=1e-12)


def test_integrate_dephasing_matches_closed_form():
    gen = pauli_generator(sg.constant(0.0), sg.constant(0.0), sg.constant(1.0))
    fam = integrate_generator(gen, t_max=1.0, dim=2, n_steps=400)
    ref = preset_pauli_channel(gammas=[sg.constant(0.0), sg.constant(0.0),
                                       sg.constant(1.0)], t_max=1.0)
    assert np.max(np.abs(fam.evaluate(1.0).natural - ref.evaluate(1.0).natural)) < 1e-8


def test_integrate_amplitude_damping_matches_preset():
    gen = amplitude_damping_generator(sg.constant(1.0))
    fam = integrate_generator(gen, t_max=1.0, dim=2, n_steps=400)
    ref = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=1.0)
    assert np.max(np.abs(fam.evaluate(1.0).natural - ref.evaluate(1.0).natural)) < 1e-8


def test_integrate_amplitude_damping_between_grid_steps():
    # off the fine grid the evaluator takes one partial RK4 step
    fam = integrate_generator(amplitude_damping_generator(sg.constant(0.8)), t_max=2.0, dim=2)
    ref = preset_amplitude_damping(gamma=sg.constant(0.8), t_max=2.0)
    for t in (0.1234567, 1.00001, 1.9999):
        assert np.max(np.abs(fam.evaluate(t).natural - ref.evaluate(t).natural)) < 1e-10


def test_integrate_step_halving_guard():
    gen = pauli_generator(sg.constant(40.0), sg.constant(35.0), sg.constant(30.0))
    with pytest.raises(IntegrationAccuracyError, match="smaller step|more than"):
        integrate_generator(gen, t_max=2.0, dim=2, n_steps=4)


def test_generator_extraction_identity():
    fam = preset_pauli_channel(gammas=[sg.constant(0.0)] * 3, t_max=1.0)
    gen = generator_from_family(fam, 0.5)
    assert np.max(np.abs(gen.natural)) < 1e-9


def test_generator_extraction_constant_rate():
    fam = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0)
    for t in (0.5, 1.5, 2.5):
        dec = canonical_gkls(generator_from_family(fam, t, h=1e-3))
        assert dec.rates[0] == pytest.approx(1.0, abs=1e-5)


def test_generator_extraction_tangent_rate():
    fam = preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2), t_max=1.45)
    dec = canonical_gkls(generator_from_family(fam, 1.0, h=1e-3))
    assert dec.rates[0] == pytest.approx(2 * np.tan(1.0), abs=1e-4)


def test_generator_singular_at_clip():
    fam = preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2), t_max=3.0)
    with pytest.raises(SingularGeneratorError) as err:
        generator_from_family(fam, np.pi / 2)
    assert err.value.smallest_singular_value is not None


def test_canonical_gkls_dephasing():
    gen = gkls_superop(None, [2.0], [PAULI_Z / np.sqrt(2)], 2)
    dec = canonical_gkls(gen)
    assert dec.rates[0] == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(np.abs(dec.rates[1:]), 0.0, atol=1e-12)
    phase = np.vdot(PAULI_Z / np.sqrt(2), dec.lindblad_ops[0])
    assert np.allclose(dec.lindblad_ops[0], phase * PAULI_Z / np.sqrt(2), atol=1e-10)


def test_canonical_gkls_amplitude_damping():
    gen = gkls_superop(None, [1.0], [SIGMA_MINUS], 2)
    dec = canonical_gkls(gen)
    assert dec.rates[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(np.trace(dec.lindblad_ops[0])) < 1e-12
    assert np.vdot(dec.lindblad_ops[0], dec.lindblad_ops[0]).real == \
        pytest.approx(1.0, abs=1e-12)
    overlap = abs(np.vdot(SIGMA_MINUS, dec.lindblad_ops[0]))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_canonical_gkls_zero():
    dec = canonical_gkls(Superoperator(dim=2, natural=np.zeros((4, 4), complex)))
    assert np.allclose(dec.rates, 0.0)
    assert np.allclose(dec.hamiltonian, 0.0)


def test_canonical_gkls_random_reconstruction(rng):
    from markovlens.operator_core import traceless_hermitian_basis
    for _ in range(20):
        d = 2
        h = random_hermitian(rng, d)
        h -= np.trace(h) / d * np.eye(d)
        rates = rng.uniform(-1, 2, size=3)
        ops = []
        basis = traceless_hermitian_basis(d)
        u = np.linalg.qr(rng.standard_normal((3, 3))
                         + 1j * rng.standard_normal((3, 3)))[0]
        for m in range(3):
            ops.append(sum(u[k, m] * basis[k] for k in range(3)))
        gen = gkls_superop(h, rates, ops, d)
        dec = canonical_gkls(gen)
        rebuilt = gkls_superop(dec.hamiltonian, dec.rates, dec.lindblad_ops, d)
        assert np.max(np.abs(rebuilt.natural - gen.natural)) < 1e-8
        assert sorted(np.round(dec.rates, 9)) == pytest.approx(sorted(rates), abs=1e-9)


def test_canonical_gkls_rejects_trace_growth():
    bad = Superoperator(dim=2, natural=np.eye(4, dtype=complex))
    with pytest.raises(NumericalError, match="annihilate"):
        canonical_gkls(bad)


def test_damping_basis_pauli():
    fam = preset_pauli_channel(gammas=[sg.constant(1.0)] * 3, t_max=2.0)
    w, rights, lefts = damping_basis(fam, 1.0)
    assert np.max(np.abs(sorted(w.real, reverse=True)
                         - np.array([1.0] + [np.exp(-2.0)] * 3))) < 1e-10
    for fa, ga in zip(rights, lefts):
        assert np.vdot(fa, ga) == pytest.approx(1.0, abs=1e-10)


def test_damping_basis_identity():
    fam = preset_pauli_channel(gammas=[sg.constant(0.0)] * 3, t_max=1.0)
    w, _, _ = damping_basis(fam, 0.7)
    assert np.allclose(w, 1.0, atol=1e-12)


def test_damping_basis_equilibrium(rng):
    omega = random_density(rng, 2)
    fam = preset_equilibrium_relaxation(
        omega, sg.piecewise_linear([(0, 0), (1, 1)]), t_max=1.0)
    w, rights, lefts = damping_basis(fam, 0.5)
    vals = sorted(w.real, reverse=True)
    assert vals[0] == pytest.approx(1.0, abs=1e-10)
    assert vals[1:] == pytest.approx([0.5] * 3, abs=1e-10)
    top = rights[0] / np.trace(rights[0])
    assert hs_norm(top - omega) < 1e-9


def test_damping_basis_defective_raises():
    jordan = np.eye(4, dtype=complex)
    jordan[1, 2] = 1.0  # Jordan block across the coherence pair

    fam = MapFamily(dim=2, t_max=1.0, kind="custom",
                    evaluator=lambda t: Superoperator(dim=2, natural=jordan))
    with pytest.raises(DefectiveMapError):
        damping_basis(fam, 0.5)


def test_integrated_gkls_has_cp_propagators(rng):
    from markovlens.divisibility import propagator
    gen = pauli_generator(sg.constant(0.3), sg.sinusoidal(0.2, 1.0, 0.0, 0.4),
                          sg.constant(0.1))
    fam = integrate_generator(gen, t_max=1.5, dim=2, n_steps=300)
    times = np.linspace(0, 1.5, 16)
    for s, t in zip(times[:-1], times[1:]):
        pr = propagator(fam, float(t), float(s))
        assert pr.cp_full[1] >= -1e-7


def test_map_family_is_frozen():
    fam = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.t_max = 2.0


def kron_gkls(h, rates, ops, d):
    """Reference natural matrix of the GKLS form through Kronecker products
    (column stacking: vec(A X B) = (B^T (x) A) vec(X))."""
    eye = np.eye(d)
    nat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for gamma, op in zip(rates, ops):
        opop = op.conj().T @ op
        nat = nat + gamma * (np.kron(op.conj(), op) - 0.5 * np.kron(eye, opop)
                             - 0.5 * np.kron(opop.T, eye))
    return nat


def random_gkls_generator(rng, d):
    """A generator with random traceless H, rates in [-1, 2) and Lindblad
    operators rotated out of the traceless basis by a random unitary."""
    h = random_hermitian(rng, d)
    h -= np.trace(h) / d * np.eye(d)
    n = d * d - 1
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    ops = np.einsum("km,kij->mij", u, np.array(traceless_hermitian_basis(d)))
    return gkls_superop(h, rng.uniform(-1, 2, size=n), ops, d)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
       n=st.integers(1, 5))
def test_stacked_split_equals_canonical_gkls(seed, d, n):
    rng = np.random.default_rng(seed)
    gens = [random_gkls_generator(rng, d) for _ in range(n)]
    h, gamma, ops = random_hermitian(rng, d), rng.uniform(-1, 2, size=2), \
        [random_hermitian(rng, d) + 1j * random_hermitian(rng, d) for _ in range(2)]
    assert np.allclose(gkls_superop(h, gamma, ops, d).natural, kron_gkls(h, gamma, ops, d),
                       rtol=0, atol=1e-12)
    ham, kossakowski, rates, ops, failures = _canonical_split(
        np.array([g.natural for g in gens]))
    assert failures == {}
    for k, gen in enumerate(gens):
        dec = canonical_gkls(gen)
        assert np.array_equal(rates[k], dec.rates)
        assert np.array_equal(ham[k], dec.hamiltonian)
        assert np.array_equal(kossakowski[k], dec.kossakowski)
        assert np.array_equal(ops[k], np.array(dec.lindblad_ops))
        # the Kronecker-built GKLS form of the split gives the generator back
        rebuilt = kron_gkls(ham[k], rates[k], ops[k], d)
        assert np.max(np.abs(rebuilt - gen.natural)) < 1e-8 * max(1.0, np.max(np.abs(gen.natural)))


def test_canonical_split_rejects_a_non_hermiticity_preserving_generator():
    gen = gkls_superop(None, [1.0], [SIGMA_MINUS], 2).natural.copy()
    gen[1, 0] += 0.1j  # rho_00 leaks into rho_10 alone: still trace-annihilating
    with pytest.raises(NumericalError, match="failed to reproduce"):
        canonical_gkls(Superoperator(dim=2, natural=gen))


def mixed_rates_family():
    """Amplitude damping with g = cos t clipped at pi/2 (rank-deficient from
    there on), scaled up on [1, 1.3] (the generator grows the trace there)
    and failing to evaluate near 0.303 = 0.3 + h (h = 1e-3 t_max)."""
    base = preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2), t_max=3.0)

    def evaluator(t):
        if 0.302 < t < 0.304:
            raise NumericalError(f"no map at t={t}", stage="test", time=t)
        nat = base.evaluate(t).natural
        return Superoperator(dim=2, natural=nat * (np.exp(0.3 * (t - 1.0))
                                                   if 1.0 <= t <= 1.3 else 1.0))

    return MapFamily(dim=2, t_max=3.0, kind="test", evaluator=evaluator)


def test_canonical_rates_flag_the_times_the_per_time_path_rejects():
    fam = mixed_rates_family()
    times = np.linspace(0.0, 3.0, 61)
    rates, failures = canonical_rates(fam, fam.naturals(times), times)

    expected = {}
    for k, t in enumerate(times):
        try:
            assert np.array_equal(canonical_gkls(generator_from_family(fam, t)).rates, rates[k])
        except (SingularGeneratorError, NumericalError) as exc:
            expected[k] = exc
    assert sorted(failures) == sorted(expected)
    for k, exc in failures.items():
        assert type(exc) is type(expected[k]) and str(exc) == str(expected[k])
        assert np.all(np.isnan(rates[k]))

    singular = {k for k, exc in failures.items() if isinstance(exc, SingularGeneratorError)}
    growing = {k for k, exc in failures.items() if "annihilate" in str(exc)}
    assert singular == set(np.flatnonzero(times >= np.pi / 2))
    assert growing == set(np.flatnonzero((times >= 1.0 - 1e-12) & (times <= 1.3 + 1e-12)))
    assert set(failures) - singular - growing == {6}  # t = 0.3
    assert np.all(np.isfinite(np.delete(rates, list(failures), axis=0)))


def test_rejected_times_leave_no_reference_cycles():
    # a kept or raised error must not hold the frame, and the stacks, of the
    # kernel that made it: such cycles wait for the cyclic collector
    fam = mixed_rates_family()
    times = np.linspace(0.0, 3.0, 61)
    gc.collect()
    gc.disable()
    try:
        _, failures = canonical_rates(fam, fam.naturals(times), times)
        assert len(failures) > 0
        del failures
        for t in (0.3, 1.1, 2.0):
            with pytest.raises(NumericalError):
                canonical_gkls(generator_from_family(fam, t))
        assert gc.collect() == 0
    finally:
        gc.enable()
