import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from markovlens import signals as sg
from markovlens.divisibility import rank_profile
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

from conftest import per_time_stack, random_density, random_hermitian


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
                    stack=per_time_stack(lambda t: Superoperator(dim=2, natural=jordan), 2))
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

    return MapFamily(dim=2, t_max=3.0, kind="test", stack=per_time_stack(evaluator, 2))


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


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _signal(draw, t_max, start, notable):
    """A signal of any kind whose value at 0 is start (unconstrained if None); the
    times where it has a knot, a clip or a divergence are appended to notable."""
    kinds = {None: ["constant", "exp_decay", "cosine_clipped", "sinusoidal", "inverse_gap",
                    "piecewise_linear"],
             0.0: ["constant", "sinusoidal", "piecewise_linear"],
             1.0: ["constant", "exp_decay", "cosine_clipped", "sinusoidal", "inverse_gap",
                   "piecewise_linear"]}[start]
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        return sg.constant(draw(_finite(-1.0, 1.5)) if start is None else start)
    if kind == "exp_decay":
        return sg.exp_decay(draw(_finite(0.0, 2.0)))
    if kind == "cosine_clipped":
        t_star = draw(_finite(0.05, t_max))
        notable += [t_star, np.nextafter(t_star, -np.inf), np.nextafter(t_star, np.inf)]
        return sg.cosine_clipped(draw(_finite(0.1, 3.0)), t_star)
    if kind == "sinusoidal":
        a, phase = draw(_finite(-1.0, 1.0)), draw(_finite(-3.0, 3.0))
        omega = draw(st.just(0.0) | _finite(0.05, 3.0))  # a tiny omega overflows a / omega
        offset = draw(_finite(-1.0, 1.0)) if start is None else start - a * np.sin(phase)
        return sg.sinusoidal(a, omega, phase, offset)
    if kind == "inverse_gap":
        t1 = 1.0 if start == 1.0 else draw(_finite(0.2, 2 * t_max))
        notable += [t1, np.nextafter(t1, -np.inf), np.nextafter(t1, np.inf)]
        return sg.inverse_gap(t1)
    knot_times = draw(st.lists(_finite(0.0, 1.2 * t_max), min_size=1, max_size=5, unique=True))
    knot_times = sorted(set(knot_times) | ({0.0} if start is not None else set()))
    if len(knot_times) < 2:
        knot_times.append(knot_times[-1] + 0.5)
    values = [draw(_finite(-0.3, 1.2)) for _ in knot_times]
    if start is not None:
        values[0] = start
    notable += knot_times
    return sg.piecewise_linear(list(zip(knot_times, values)))


@st.composite
def _preset_cases(draw):
    """(preset family, notable times in its domain, whether a signal can diverge)."""
    t_max, notable = draw(_finite(0.5, 4.0)), []
    form = draw(st.sampled_from(["ad_g", "ad_rate", "pauli_lambda", "pauli_rate", "relaxation"]))
    if form == "ad_g":
        fam = preset_amplitude_damping(g=draw(_signal(t_max, 1.0, notable)), t_max=t_max)
    elif form == "ad_rate":
        fam = preset_amplitude_damping(
            gamma=draw(_signal(t_max, None, notable)),
            s=draw(st.none() | _signal(t_max, None, notable)), t_max=t_max)
    elif form == "pauli_lambda":
        fam = preset_pauli_channel(lambdas=[draw(_signal(t_max, 1.0, notable)) for _ in range(3)],
                                   t_max=t_max)
    elif form == "pauli_rate":
        fam = preset_pauli_channel(gammas=[draw(_signal(t_max, None, notable)) for _ in range(3)],
                                   t_max=t_max)
    else:
        omega = random_density(np.random.default_rng(draw(st.integers(0, 99))),
                               draw(st.sampled_from([2, 3])))
        fam = preset_equilibrium_relaxation(omega, draw(_signal(t_max, 0.0, notable)), t_max=t_max)
    diverging = any(isinstance(v, sg.ScalarSignal) and v.kind == "inverse_gap"
                    for p in fam.params.values() for v in (p if isinstance(p, tuple) else (p,)))
    return fam, [0.0, t_max] + [t for t in notable if 0.0 <= t <= t_max], diverging


def _error_key(exc):
    return type(exc), str(exc), getattr(exc, "stage", None), getattr(exc, "time", None)


@settings(max_examples=300, deadline=None)
@given(case=_preset_cases(), data=st.data())
def test_stacked_naturals_equal_per_time_evaluation(case, data):
    fam, notable, diverging = case
    times = data.draw(st.lists(st.sampled_from(notable) | _finite(0.0, fam.t_max),
                               min_size=1, max_size=8))
    if data.draw(st.integers(0, 4)) == 0:  # one time outside the domain
        times.insert(data.draw(st.integers(0, len(times))),
                     data.draw(st.sampled_from([-0.01, fam.t_max * 1.01 + 0.01])))
    try:
        expected = np.array([fam.evaluate(t).natural for t in times])
    except (ValueError, NumericalError) as exc:
        with pytest.raises((ValueError, NumericalError)) as got:
            fam.naturals(times)
        assert _error_key(got.value) == _error_key(exc)
        in_domain = all(0.0 <= t <= fam.t_max for t in times)
        if in_domain and not diverging:  # one check only: the stack names the same first time
            with pytest.raises((ValueError, NumericalError)) as direct:
                fam.stack(np.array(times))
            assert _error_key(direct.value) == _error_key(exc)
        return
    got = fam.naturals(times)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert fam.stack(np.array(times)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("fam, times", [
    (preset_amplitude_damping(g=sg.inverse_gap(1.0), t_max=2.0), [0.5, 1.2]),
    (preset_pauli_channel(gammas=[sg.inverse_gap(2.2), sg.inverse_gap(1.0), sg.constant(0.0)],
                          t_max=3.0), [2.0, 2.5]),
], ids=["not_cp_before_the_gap", "second_signal_diverges_first"])
def test_naturals_raise_for_the_first_failing_time_across_checks(fam, times):
    # each check of the stack raises for its own first failing time; here a
    # later check fails at an earlier time
    with pytest.raises((ValueError, NumericalError)) as expected:
        for t in times:
            fam.evaluate(t)
    with pytest.raises((ValueError, NumericalError)) as own:
        fam.stack(np.array(times))
    assert _error_key(own.value) != _error_key(expected.value)
    with pytest.raises((ValueError, NumericalError)) as got:
        fam.naturals(times)
    assert _error_key(got.value) == _error_key(expected.value)


def test_naturals_let_errors_other_than_the_checks_propagate():
    fam, calls = preset_amplitude_damping(g=sg.exp_decay(1.0), t_max=2.0), []

    def broken(ts):  # a broadcasting bug in a stacked builder, not a failed check
        calls.append(len(ts))
        return fam.stack(ts) + np.zeros((2, 4, 4))

    broken_fam = dataclasses.replace(fam, stack=broken)
    assert broken_fam.naturals([0.1, 0.2]).shape == (2, 4, 4)
    with pytest.raises(ValueError, match="could not be broadcast"):
        broken_fam.naturals([0.1, 0.2, 0.3])
    assert calls == [2, 3]  # raised from the stacked call, with no per-time rerun


@pytest.mark.parametrize("make", [
    lambda: preset_amplitude_damping(g=sg.exp_decay(1.0)),
    lambda: preset_pauli_channel(gammas=[sg.constant(1.0)] * 3),
    lambda: preset_equilibrium_relaxation(np.eye(3) / 3, sg.piecewise_linear([(0, 0), (1, 1)])),
    lambda: integrate_generator(amplitude_damping_generator(sg.constant(1.0)), 1.0, 2, n_steps=64),
], ids=["amplitude_damping", "pauli_channel", "equilibrium_relaxation", "integrated"])
def test_every_family_stack_returns_the_stack_shape_for_zero_times(make):
    # generator extraction asks for zero times when a whole block of maps is singular
    fam = make()
    assert fam.naturals([]).shape == (0, fam.dim ** 2, fam.dim ** 2)


def test_integrated_family_evaluates_each_time_as_its_stack_of_one():
    fam = integrate_generator(amplitude_damping_generator(sg.constant(1.0)), 1.0, 2, n_steps=64)
    times = [0.0, 1 / 128, 0.3, 0.7071, 1.0]
    stacked = fam.naturals(times)
    assert stacked.tobytes() == np.array([fam.evaluate(t).natural for t in times]).tobytes()
    with pytest.raises(ValueError, match="outside family domain"):
        fam.naturals([0.5, 1.5])


def test_generators_redo_per_time_only_the_block_whose_t_plus_h_is_not_cp():
    # F leaves [0, 1] only on (0.302, 0.304), between grid times, so of all the
    # t +- h points only 0.3 + h (h = 3e-3) has a map that is not CP
    knots = [(0.0, 0.0), (0.302, 0.9), (0.303, 1.5), (0.304, 0.9), (3.0, 0.95)]
    fam = preset_equilibrium_relaxation(random_density(np.random.default_rng(3), 2),
                                        sg.piecewise_linear(knots), t_max=3.0)
    times = np.linspace(0.0, 3.0, 61)
    naturals = fam.naturals(times)
    sizes, stack = [], fam.stack

    def counting(ts):
        sizes.append(len(ts))
        return stack(ts)

    rates, failures = canonical_rates(dataclasses.replace(fam, stack=counting), naturals, times)
    assert list(failures) == [6]
    with pytest.raises(NumericalError) as expected:
        generator_from_family(fam, times[6])
    assert _error_key(failures[6]) == _error_key(expected.value)
    assert failures[6].stage == "equilibrium_relaxation" and "outside [0, 1]" in str(failures[6])
    assert np.all(np.isnan(rates[6]))
    for k, t in enumerate(times):
        if k != 6:
            assert np.array_equal(canonical_gkls(generator_from_family(fam, t)).rates, rates[k])
    # the first block of 48 fails as one stack and is redone time by time; the
    # second block of 13 takes one stacked call per offset
    assert [n for n in sizes if n > 1] == [48, 13, 13]


@pytest.mark.parametrize("fam", [
    preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0),
    preset_amplitude_damping(gamma=sg.sinusoidal(1.0, 1.0), s=sg.constant(0.3), t_max=2 * np.pi),
], ids=["g", "rate"])
def test_amplitude_damping_stack_keeps_the_scalar_arithmetic(fam):
    # |G| as Python's abs(complex) and |G|^2 as its float pow, so that stacked maps
    # carry the same bits as the former per-time closure
    times = np.linspace(0.0, fam.t_max, 400)
    nat = fam.naturals(times)
    g = [complex(z) for z in nat[:, 2, 2]]
    assert nat[:, 0, 0].real.tolist() == [abs(z) ** 2 for z in g]
    assert nat[:, 3, 0].real.tolist() == [1.0 - abs(z) ** 2 for z in g]


RATES_FAMILIES = {
    # G = cos t crosses zero at pi/2, a grid time only when n is odd
    "ad_crossing": lambda: preset_amplitude_damping(g=sg.sinusoidal(1.0, 1.0, np.pi / 2),
                                                    t_max=np.pi),
    "pauli_two_bp": lambda: preset_pauli_channel(
        lambdas=[sg.piecewise_linear([(0, 1), (1, 0), (3, 0)])] * 2
        + [sg.piecewise_linear([(0, 1), (1, 1), (2, 0), (3, 0)])], t_max=3.0),
    "eq_relax": lambda: preset_equilibrium_relaxation(
        random_density(np.random.default_rng(40), 3),
        sg.piecewise_linear([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)]), t_max=2.0),
}


@pytest.mark.parametrize("n", [101, 400, 401])
@pytest.mark.parametrize("make", RATES_FAMILIES.values(), ids=RATES_FAMILIES.keys())
def test_canonical_rates_from_the_verdict_singular_values_match_their_own_svd(make, n):
    fam = make()
    times = np.linspace(0.0, fam.t_max, n)
    naturals = fam.naturals(times)
    svals = rank_profile(fam, times, naturals=naturals).singular_values
    rates, failures = canonical_rates(fam, naturals, times)
    given_rates, given_failures = canonical_rates(fam, naturals, times, svals=svals)
    assert given_rates.tobytes() == rates.tobytes()
    assert sorted(given_failures) == sorted(failures)
    assert all(type(given_failures[k]) is type(exc) for k, exc in failures.items())
    # all but G = cos t at 400 points, where pi/2 is off the grid, have singular maps
    assert bool(failures) != (make is RATES_FAMILIES["ad_crossing"] and n == 400)


def test_canonical_rates_split_only_the_regular_maps(monkeypatch):
    # the clipped-cosine family is singular from pi/2 on: half of 400 grid maps
    fam = preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2), t_max=np.pi)
    times = np.linspace(0.0, np.pi, 400)
    naturals, eigh, seen = fam.naturals(times), np.linalg.eigh, []

    def counting(a, *args, **kwargs):
        seen.append(int(np.prod(np.shape(a)[:-2])))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    _, failures = canonical_rates(fam, naturals, times)
    assert sum(seen) == 200 == len(times) - len(failures)


def test_canonical_rates_take_no_svd_when_given_singular_values(monkeypatch):
    fam = preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2), t_max=np.pi)
    times = np.linspace(0.0, np.pi, 400)
    naturals = fam.naturals(times)
    svals = np.linalg.svd(naturals, compute_uv=False)
    expected = canonical_rates(fam, naturals, times)

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rates, failures = canonical_rates(fam, naturals, times, svals=svals)
    assert rates.tobytes() == expected[0].tobytes() and sorted(failures) == sorted(expected[1])


def test_canonical_rates_reject_singular_values_of_the_wrong_shape():
    fam = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0)
    times = np.linspace(0.0, 3.0, 41)
    naturals = fam.naturals(times)
    svals = np.linalg.svd(naturals, compute_uv=False)
    for bad in (svals[:-1], svals[:, :-1]):
        with pytest.raises(ValueError, match=r"svals has shape .*\(41, 4\)"):
            canonical_rates(fam, naturals, times, svals=bad)
