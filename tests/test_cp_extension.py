from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovlens import cp_extension
from markovlens import signals as sg
from markovlens.cp_extension import (
    FeasibilityStatus,
    SubspaceMapSpec,
    extend_cp,
    jencova_reduce,
    positively_generated_check,
    verify_extension,
    verify_infeasibility,
)
from markovlens.divisibility import image_basis, propagator, rank_profile, make_grid
from markovlens.dynamics import (
    preset_amplitude_damping,
    preset_equilibrium_relaxation,
    preset_pauli_channel,
)
from markovlens.errors import InconsistentConstraintsError, NotPositivelyGeneratedError
from markovlens.operator_core import (
    GROUND_PROJECTOR,
    PAULI_X,
    PAULI_Z,
    SIGMA_PLUS,
    SubspaceBasis,
    gram_schmidt_hermitian,
    hermitian_basis,
    hermitianize,
    hs_norm,
)
from markovlens.superop import apply, superop_from_action, superop_from_kraus, to_choi

from conftest import haar_isometry, random_density, random_hermitian, random_kraus_set


def identity_spec(basis, dim, require_tp=True):
    return SubspaceMapSpec(domain=basis,
                           images=tuple(g.copy() for g in basis.elements),
                           dim=dim, require_tp=require_tp)


def test_positively_generated_identity_line():
    basis = gram_schmidt_hermitian([np.eye(2)])
    ok, cert = positively_generated_check(basis)
    assert ok
    assert hs_norm(cert - np.eye(2) / np.sqrt(2)) < 1e-6


def test_positively_generated_pauli_line_fails():
    basis = gram_schmidt_hermitian([PAULI_X])
    ok, cert = positively_generated_check(basis)
    assert not ok and cert is None


def test_positively_generated_images_of_presets(rng):
    families = [
        (preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2),
                                  t_max=np.pi), (0.8, np.pi / 2, 2.5)),
        (preset_pauli_channel(
            lambdas=[sg.piecewise_linear([(0, 1), (1, 0), (3, 0)])] * 2
            + [sg.constant(1.0)], t_max=3.0), (0.5, 1.5, 2.5)),
        (preset_equilibrium_relaxation(
            random_density(rng, 2),
            sg.piecewise_linear([(0, 0), (1, 1), (2, 1)]), t_max=2.0), (0.5, 1.5)),
    ]
    for fam, times in families:
        for t in times:
            basis = image_basis(fam.evaluate(t))
            ok, cert = positively_generated_check(basis)
            assert ok
            assert float(np.linalg.eigvalsh(cert)[0]) > -1e-10


def test_jencova_reduce_full_space():
    basis = gram_schmidt_hermitian(hermitian_basis(2))
    rho, p, m_prime = jencova_reduce(basis)
    assert np.allclose(rho, np.eye(2) * rho[0, 0], atol=1e-8)
    assert np.allclose(p, np.eye(2), atol=1e-10)
    assert len(m_prime) == 4


def test_jencova_reduce_rank_one():
    basis = gram_schmidt_hermitian([GROUND_PROJECTOR])
    rho, p, m_prime = jencova_reduce(basis)
    assert hs_norm(rho - GROUND_PROJECTOR) < 1e-10
    assert hs_norm(p - GROUND_PROJECTOR) < 1e-10
    assert len(m_prime) == 1
    assert hs_norm(m_prime.elements[0] - GROUND_PROJECTOR) < 1e-10


def test_jencova_reduce_diagonal_contains_unit():
    basis = gram_schmidt_hermitian([np.eye(2), PAULI_Z])
    rho, p, m_prime = jencova_reduce(basis)
    assert np.allclose(p, np.eye(2), atol=1e-10)
    # the operator-system unit lies in the conjugated subspace
    proj = m_prime.projector_matrix()
    v = p.reshape(-1, order="F")
    assert np.linalg.norm(proj @ v - v) < 1e-8


def test_jencova_round_trip(rng):
    for _ in range(10):
        k = int(rng.integers(1, 4))
        basis = gram_schmidt_hermitian([random_density(rng, 2)
                                        for _ in range(k)])
        rho, p, m_prime = jencova_reduce(basis)
        w, v = np.linalg.eigh(rho)
        keep = w > 1e-12
        sqrt = (v[:, keep] * np.sqrt(w[keep])) @ v[:, keep].conj().T
        inv_sqrt = (v[:, keep] / np.sqrt(w[keep])) @ v[:, keep].conj().T
        for g in basis.elements:
            back = sqrt @ (inv_sqrt @ g @ inv_sqrt) @ sqrt
            assert hs_norm(back - g) < 1e-9


def test_jencova_rejects_traceless_line():
    basis = gram_schmidt_hermitian([PAULI_X])
    with pytest.raises(NotPositivelyGeneratedError):
        jencova_reduce(basis)


def random_psd(rng, d):
    """A PSD matrix of random rank with eigenvalues in [0.1, 1] on its support,
    and that support's isometry."""
    v = haar_isometry(rng, d, int(rng.integers(1, d + 1)))
    return v @ np.diag(rng.uniform(0.1, 1.0, v.shape[1])) @ v.conj().T, v


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1))
def test_spans_holding_a_positive_definite_element_are_positively_generated(d, seed):
    # the positive element is definite on its own support, and every other
    # element lives there too, so that support is the joint support
    rng = np.random.default_rng(seed)
    p, v = random_psd(rng, d)
    r = v.shape[1]
    mats = [v @ random_hermitian(rng, r) @ v.conj().T for _ in range(int(rng.integers(0, r * r)))]
    mats.insert(int(rng.integers(0, len(mats) + 1)), p)
    basis = gram_schmidt_hermitian(mats)
    ok, cert = positively_generated_check(basis)
    assert ok
    assert abs(hs_norm(cert) - 1.0) < 1e-9
    assert float(np.linalg.eigvalsh(hermitianize(v.conj().T @ cert @ v))[0]) > 1e-9
    vec = cert.reshape(-1, order="F")
    assert np.linalg.norm(basis.projector_matrix() @ vec - vec) < 1e-9


def recorded(calls):
    """_phase1 that also records each result it returns."""
    core = cp_extension._phase1

    def phase1(*args, **kwargs):
        calls.append(core(*args, **kwargs))
        return calls[-1]

    return phase1


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1))
def test_spans_orthogonal_to_a_psd_operator_get_a_farkas_witness(d, seed):
    rng = np.random.default_rng(seed)
    w, _ = random_psd(rng, d)
    mats = [random_hermitian(rng, d) for _ in range(int(rng.integers(1, d * d)))]
    basis = gram_schmidt_hermitian(
        [g - float(np.trace(w @ g).real) / float(np.trace(w @ w).real) * w for g in mats])
    calls = []
    with mock.patch.object(cp_extension, "_phase1", recorded(calls)):
        ok, cert = positively_generated_check(basis)
    assert not ok and cert is None
    [(status, _, _, _, witness)] = calls
    assert status is FeasibilityStatus.INFEASIBLE
    trace = float(np.trace(witness).real)
    assert trace > 0
    assert float(np.linalg.eigvalsh(witness)[0]) >= -1e-9 * trace
    for g in basis.elements:
        assert abs(np.trace(witness @ g)) <= 1e-9 * hs_norm(witness)


def test_extend_full_space_map_is_its_own_extension(rng):
    ops = random_kraus_set(rng, 2, 2)
    chan = superop_from_kraus(ops, 2)
    basis = gram_schmidt_hermitian(hermitian_basis(2))
    spec = SubspaceMapSpec(domain=basis,
                           images=tuple(apply(chan, g) for g in basis.elements),
                           dim=2, require_tp=True)
    res = extend_cp(spec)
    assert res.status is FeasibilityStatus.FEASIBLE
    assert res.action_residual < 1e-9
    assert np.max(np.abs(res.choi - to_choi(chan))) < 1e-6
    assert verify_extension(res.choi, spec)["ok"]


def test_extend_ground_state_line():
    basis = gram_schmidt_hermitian([GROUND_PROJECTOR])
    spec = identity_spec(basis, 2)
    res = extend_cp(spec)
    assert res.status is FeasibilityStatus.FEASIBLE
    assert res.iterations <= 5000
    assert verify_extension(res.choi, spec, tol=1e-7)["ok"]
    # the collapse-to-ground channel is a hand-built certificate
    pi = superop_from_action(lambda x: GROUND_PROJECTOR * np.trace(x), 2)
    assert verify_extension(to_choi(pi), spec, tol=1e-12)["ok"]


def test_extend_dephasing_image():
    basis = gram_schmidt_hermitian([np.eye(2), PAULI_Z])
    spec = identity_spec(basis, 2)
    res = extend_cp(spec)
    assert res.status is FeasibilityStatus.FEASIBLE
    assert verify_extension(res.choi, spec, tol=1e-7)["ok"]
    deph = superop_from_action(lambda x: 0.5 * (x + PAULI_Z @ x @ PAULI_Z), 2)
    assert verify_extension(to_choi(deph), spec, tol=1e-12)["ok"]


def test_verify_extension_negative_control(rng):
    basis = gram_schmidt_hermitian([GROUND_PROJECTOR])
    spec = identity_spec(basis, 2)
    wrong = to_choi(superop_from_action(lambda x: np.eye(2) * np.trace(x) / 2, 2))
    report = verify_extension(wrong, spec, tol=1e-7)
    assert not report["ok"]
    assert report["action_residual"] > 1e-7


def test_extend_rejects_inconsistent_traces():
    # require_tp forces Tr(Y) = Tr(G); a trace-deflating image contradicts it
    basis = gram_schmidt_hermitian([np.eye(2)])
    spec = SubspaceMapSpec(domain=basis, images=(0.5 * basis.elements[0],),
                           dim=2, require_tp=True)
    with pytest.raises(InconsistentConstraintsError):
        extend_cp(spec)


def test_propagator_cp_on_image_extends_without_tp(rng):
    # whenever the propagator is CP on the image, a CP extension is found
    omega = random_density(rng, 2)
    fam = preset_equilibrium_relaxation(
        omega, sg.piecewise_linear([(0, 0), (1, 1), (2, 1)]), t_max=2.0)
    pr = propagator(fam, 1.7, 1.2)
    basis = pr.domain
    spec = SubspaceMapSpec(domain=basis,
                           images=tuple(apply(pr.v, g) for g in basis.elements),
                           dim=2, require_tp=False)
    res = extend_cp(spec, max_iter=2000)
    assert res.status is FeasibilityStatus.FEASIBLE
    assert res.iterations <= 2000
    assert verify_extension(res.choi, spec, tol=1e-7)["ok"]


def test_preset_breakpoint_specs_feasible_with_tp(rng):
    families = [
        (preset_amplitude_damping(g=sg.cosine_clipped(1.0, np.pi / 2),
                                  t_max=np.pi), np.pi),
        (preset_pauli_channel(
            lambdas=[sg.piecewise_linear([(0, 1), (1, 0), (3, 0)])] * 2
            + [sg.constant(1.0)], t_max=3.0), 3.0),
        (preset_equilibrium_relaxation(
            random_density(rng, 2),
            sg.piecewise_linear([(0, 0), (1, 1), (2, 1)]), t_max=2.0), 2.0),
    ]
    for fam, t_max in families:
        rp = rank_profile(fam, make_grid(t_max, 101))
        for t_star in rp.breakpoints:
            basis = image_basis(fam.evaluate(t_star))
            spec = identity_spec(basis, 2, require_tp=True)
            res = extend_cp(spec)
            assert res.status is FeasibilityStatus.FEASIBLE
            assert res.iterations <= 5000
            assert verify_extension(res.choi, spec, tol=1e-7)["ok"]


def test_solver_output_always_passes_oracle(rng):
    for _ in range(5):
        k = int(rng.integers(1, 3))
        basis = gram_schmidt_hermitian([random_density(rng, 2) for _ in range(k)])
        ops = random_kraus_set(rng, 2, 2)
        chan = superop_from_kraus(ops, 2)
        spec = SubspaceMapSpec(
            domain=basis,
            images=tuple(apply(chan, g) for g in basis.elements),
            dim=2, require_tp=True)
        res = extend_cp(spec)
        assert res.status is FeasibilityStatus.FEASIBLE
        assert verify_extension(res.choi, spec, tol=1e-7)["ok"]


def scaled_z_spec(f, require_tp=True):
    # identity on I, scaling by f on sigma_z: a CP extension exists iff |f| <= 1
    basis = gram_schmidt_hermitian([np.eye(2), PAULI_Z])
    return SubspaceMapSpec(domain=basis,
                           images=(basis.elements[0].copy(), f * basis.elements[1]),
                           dim=2, require_tp=require_tp)


@pytest.mark.parametrize("case", ["image", "domain"])
def test_spec_rejects_non_hermitian_action(case):
    # no CP map sends a Hermitian operator to an anti-Hermitian one
    s2 = 1.0 / np.sqrt(2.0)
    if case == "image":
        domain = SubspaceBasis(dim=2, elements=(s2 * np.eye(2, dtype=complex), s2 * PAULI_Z))
        images = (s2 * np.eye(2, dtype=complex), 1j * s2 * PAULI_Z)
    else:
        domain = SubspaceBasis(dim=2, elements=(SIGMA_PLUS.copy(),))
        images = (SIGMA_PLUS.copy(),)
    with pytest.raises(InconsistentConstraintsError) as err:
        SubspaceMapSpec(domain=domain, images=images, dim=2, require_tp=False)
    assert err.value.stage == "extend_cp"


@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([2, 3]), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_restricted_random_channels_extend(d, k, seed):
    rng = np.random.default_rng(seed)
    chan = superop_from_kraus(random_kraus_set(rng, d, int(rng.integers(1, d * d + 1))), d)
    basis = gram_schmidt_hermitian([random_density(rng, d) for _ in range(k)])
    spec = SubspaceMapSpec(domain=basis,
                           images=tuple(apply(chan, g) for g in basis.elements),
                           dim=d, require_tp=True)
    res = extend_cp(spec)
    assert res.status is FeasibilityStatus.FEASIBLE
    assert res.certificate is None
    assert verify_extension(res.choi, spec, tol=1e-7)["ok"]


@settings(max_examples=20, deadline=None)
@given(f=st.floats(1.01, 3.0), require_tp=st.booleans())
def test_expanding_map_is_certified_infeasible(f, require_tp):
    spec = scaled_z_spec(f, require_tp)
    res = extend_cp(spec)
    assert res.status is FeasibilityStatus.INFEASIBLE
    assert res.choi is None
    report = verify_infeasibility(res.certificate, spec)
    assert report["ok"]
    assert report["value"] < 0.0
    # the same certificate proves nothing about an extendable prescription
    assert not verify_infeasibility(res.certificate, scaled_z_spec(0.5, require_tp))["ok"]


@settings(max_examples=20, deadline=None)
@given(f=st.floats(-1.0, 1.0))
def test_contracting_map_is_feasible(f):
    spec = scaled_z_spec(f)
    res = extend_cp(spec)
    assert res.status is FeasibilityStatus.FEASIBLE
    assert verify_extension(res.choi, spec, tol=1e-7)["ok"]


def test_infeasible_without_a_verified_certificate_is_max_iter():
    res = extend_cp(scaled_z_spec(1.5), max_iter=0)
    assert res.status is FeasibilityStatus.MAX_ITER
    assert res.choi is None and res.certificate is None


def test_extend_low_rank_qutrit_restriction_and_ququart_replacement(rng):
    # a rank-2 Kraus map restricted to four qutrit densities, and the
    # ququart omega*Tr image: boundary and slow cases for projection methods
    kraus = random_kraus_set(rng, 3, 2)
    chan = superop_from_kraus(kraus, 3)
    basis = gram_schmidt_hermitian([random_density(rng, 3) for _ in range(4)])
    restricted = SubspaceMapSpec(domain=basis,
                                 images=tuple(apply(chan, g) for g in basis.elements),
                                 dim=3, require_tp=True)
    omega = random_density(rng, 4)
    replacement = identity_spec(gram_schmidt_hermitian([omega]), 4)
    for spec in (restricted, replacement):
        res = extend_cp(spec)
        assert res.status is FeasibilityStatus.FEASIBLE
        assert verify_extension(res.choi, spec, tol=1e-7)["ok"]
