import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovlens import signals as sg
from markovlens.dynamics import preset_amplitude_damping, preset_pauli_channel
from markovlens.errors import NumericalError
from markovlens.operator_core import (
    GROUND_PROJECTOR,
    PAULI_X,
    PAULI_Z,
    gram_schmidt_hermitian,
    hermitianize,
    trace_norm,
)
from markovlens.superop import (
    Superoperator,
    _choi_reshuffle,
    apply,
    apply_extended,
    choi_input_trace,
    compose,
    from_choi,
    identity_superop,
    induced_trace_norm_estimate,
    is_cp,
    is_hp,
    is_tp,
    kraus_from_choi,
    superop_from_action,
    superop_from_kraus,
    tensor_with_identity,
    to_choi,
)

from conftest import random_density, random_hermitian, random_kraus_set


def random_superop(rng, d):
    n = d * d
    nat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Superoperator(dim=d, natural=nat)


def dephasing_projector():
    return superop_from_action(lambda x: 0.5 * (x + PAULI_Z @ x @ PAULI_Z), 2)


def depolarizing_projector():
    return superop_from_action(lambda x: 0.5 * np.eye(2) * np.trace(x), 2)


def test_apply_identity(rng):
    s = identity_superop(2)
    a = random_hermitian(rng, 2)
    assert np.allclose(apply(s, a), a)
    with pytest.raises(ValueError, match="does not match"):
        apply(s, np.eye(3))


def test_apply_paper_projectors():
    # rank-drop projector of the random-unitary example kills sigma_x ...
    assert np.allclose(apply(dephasing_projector(), PAULI_X), 0.0, atol=1e-14)
    # ... and the later one fully depolarizes
    x = np.array([[0.2, 0.5], [0.5j, 0.8]])
    assert np.allclose(apply(depolarizing_projector(), x),
                       0.5 * np.eye(2) * np.trace(x), atol=1e-14)


def test_choi_round_trip(rng):
    for d in (2, 3):
        for _ in range(20):
            s = random_superop(rng, d)
            back = from_choi(to_choi(s))
            assert np.max(np.abs(back.natural - s.natural)) < 1e-12


def test_choi_identity_channel():
    c = to_choi(identity_superop(2))
    w = np.linalg.eigvalsh(c)
    assert w[-1] == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(w[:-1], 0.0, atol=1e-12)
    assert np.trace(c).real == pytest.approx(2.0)


def test_choi_depolarizing_and_dephasing():
    assert np.allclose(to_choi(depolarizing_projector()), np.eye(4) / 2, atol=1e-14)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 1.0
    assert np.allclose(to_choi(dephasing_projector()), expected, atol=1e-14)


def test_cp_tp_hp_flags():
    ident = identity_superop(2)
    assert is_cp(ident)[0] and is_tp(ident)[0] and is_hp(ident)[0]

    transpose = superop_from_action(lambda x: x.T, 2)
    cp_ok, lo = is_cp(transpose)
    assert not cp_ok and lo == pytest.approx(-1.0, abs=1e-12)
    assert is_tp(transpose)[0]

    ground = superop_from_action(lambda x: GROUND_PROJECTOR * np.trace(x), 2)
    assert is_cp(ground)[0] and is_tp(ground)[0]


def test_kraus_identity():
    ops = kraus_from_choi(to_choi(identity_superop(2)))
    assert len(ops) == 1
    phase = ops[0][0, 0] / abs(ops[0][0, 0])
    assert np.allclose(ops[0] / phase, np.eye(2), atol=1e-12)


def test_kraus_dephasing_reconstruction():
    s = dephasing_projector()
    ops = kraus_from_choi(to_choi(s))
    assert len(ops) == 2
    rebuilt = superop_from_kraus(ops, 2)
    assert np.max(np.abs(rebuilt.natural - s.natural)) < 1e-10


def test_kraus_depolarizing_rank():
    s = depolarizing_projector()
    ops = kraus_from_choi(to_choi(s))
    assert len(ops) == 4
    rebuilt = superop_from_kraus(ops, 2)
    assert np.max(np.abs(rebuilt.natural - s.natural)) < 1e-10


def test_kraus_rejects_non_cp():
    transpose = superop_from_action(lambda x: x.T, 2)
    with pytest.raises(NumericalError, match="not PSD"):
        kraus_from_choi(to_choi(transpose))


def test_kraus_random_cp_reconstruction(rng):
    for d in (2, 3):
        for n_ops in (1, 2, 4):
            ops = random_kraus_set(rng, d, n_ops)
            s = superop_from_kraus(ops, d)
            rebuilt = superop_from_kraus(kraus_from_choi(to_choi(s)), d)
            assert np.max(np.abs(rebuilt.natural - s.natural)) < 1e-8


def test_tensor_with_identity_basics(rng):
    s = random_superop(rng, 2)
    assert tensor_with_identity(s, 1) is s
    ext = tensor_with_identity(identity_superop(2), 2)
    assert np.allclose(ext.natural, np.eye(16), atol=1e-14)

    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 2)
    ext3 = tensor_with_identity(s, 3)
    assert np.allclose(apply(ext3, np.kron(a, b)), np.kron(a, apply(s, b)),
                       atol=1e-12)


def test_tensor_choi_jamiolkowski(rng):
    s = random_superop(rng, 2)
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1 / np.sqrt(2)
    ext = tensor_with_identity(s, 2)
    assert np.allclose(apply(ext, np.outer(omega, omega.conj())),
                       to_choi(s) / 2, atol=1e-12)


def test_tensor_preserves_cp_both_directions(rng):
    for _ in range(5):
        ops = random_kraus_set(rng, 2, 2)
        cp_map = superop_from_kraus(ops, 2)
        assert is_cp(tensor_with_identity(cp_map, 3), tol=1e-9)[0]
    transpose = superop_from_action(lambda x: x.T, 2)
    assert not is_cp(tensor_with_identity(transpose, 3), tol=1e-9)[0]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("a", [1, 2, 3])
def test_apply_extended_matches_tensor_with_identity(rng, d, a):
    maps = [random_superop(rng, d) for _ in range(5)]
    xs = [rng.standard_normal((a * d, a * d)) + 1j * rng.standard_normal((a * d, a * d))
          for _ in range(5)]
    naturals = np.array([s.natural for s in maps])

    def reference(s, x):
        return apply(tensor_with_identity(s, a), x)

    def check(got, want):
        # blockwise and materialized sums agree bit for bit on qubits
        if d == 2:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-13

    # a stack of naturals against one operator
    one = apply_extended(naturals, xs[0])
    assert one.shape == (5, a * d, a * d)
    check(one, np.array([reference(s, xs[0]) for s in maps]))
    # paired stacks, and every map against every operator
    check(apply_extended(naturals, np.array(xs)),
          np.array([reference(s, x) for s, x in zip(maps, xs)]))
    check(apply_extended(naturals[:, None], np.array(xs)[None]),
          np.array([[reference(s, x) for x in xs] for s in maps]))


def test_compose_identity_and_projectors(rng):
    s = random_superop(rng, 2)
    assert np.allclose(compose(s, identity_superop(2)).natural, s.natural)
    combo = compose(depolarizing_projector(), dephasing_projector())
    assert np.max(np.abs(combo.natural - depolarizing_projector().natural)) < 1e-13


def test_compose_propagator_recovers_family():
    from markovlens.divisibility import propagator
    fam = preset_amplitude_damping(g=sg.exp_decay(0.5), t_max=3.0)
    pr = propagator(fam, 2.0, 1.0)
    rebuilt = compose(pr.v, Superoperator(dim=2, natural=fam.evaluate(1.0).natural))
    assert np.linalg.norm(rebuilt.natural - fam.evaluate(2.0).natural) < 1e-9


def test_induced_norm_estimates():
    assert induced_trace_norm_estimate(identity_superop(2), 50, seed=3) == \
        pytest.approx(1.0, abs=1e-9)
    zero = Superoperator(dim=2, natural=np.zeros((4, 4), dtype=complex))
    assert induced_trace_norm_estimate(zero, 50, seed=3) == 0.0


def test_induced_norm_cptp_contraction():
    fam = preset_pauli_channel(gammas=[sg.constant(0.4), sg.constant(0.1),
                                       sg.constant(0.7)], t_max=2.0)
    for t in (0.0, 0.5, 1.3, 2.0):
        est = induced_trace_norm_estimate(fam.evaluate(t), 100, seed=5)
        assert est <= 1.0 + 1e-9


def _tp_contraction_on_subspace(rng, d):
    """A certified TP trace-norm contraction: a random CPTP map, composed
    with transposition half the time (positive and TP, but not CP)."""
    s = superop_from_kraus(random_kraus_set(rng, d, int(rng.integers(1, 4))), d)
    if rng.uniform() < 0.5:
        transpose = superop_from_action(lambda x: x.T, d)
        s = compose(s, transpose)
    return s


def test_tp_contractions_positive_on_positively_generated_subspaces(rng):
    # trace-norm contraction + TP on a subspace forces positivity there
    d = 2
    for _ in range(200):
        k = int(rng.integers(1, 5))
        spanning = [random_density(rng, d) for _ in range(k)]
        basis = gram_schmidt_hermitian(spanning)
        s = _tp_contraction_on_subspace(rng, d)
        weights = rng.dirichlet(np.ones(len(spanning)))
        x = sum(w * r for w, r in zip(weights, spanning))
        out = apply(s, x)
        assert float(np.linalg.eigvalsh(hermitianize(out))[0]) >= -1e-8


def random_hp_tp_superop(rng, d, spread=0.35):
    """Random HP and TP map: a Hermitian Choi perturbation around the
    identity channel, with the partial trace repaired to the identity."""
    c = to_choi(identity_superop(d)) + spread * random_hermitian(rng, d * d)
    c = c + np.kron(np.eye(d) - choi_input_trace(c, d), np.eye(d) / d)
    return from_choi(c)


def test_random_tp_maps_filtered_by_norm_estimate_are_positive(rng):
    # the sampled-estimate variant: if no sampled witness in the subspace
    # (including the tested PSD inputs) exceeds norm one, PSD inputs keep
    # nonnegative spectra up to tolerance
    d = 2
    kept = 0
    for _ in range(300):
        k = int(rng.integers(1, 4))
        spanning = [random_density(rng, d) for _ in range(k)]
        s = random_hp_tp_superop(rng, d)
        assert is_hp(s, tol=1e-10)[0] and is_tp(s, tol=1e-10)[0]
        psd_inputs = [sum(w * r for w, r in zip(rng.dirichlet(np.ones(k)), spanning))
                      for _ in range(10)]
        candidates = list(spanning) + psd_inputs
        est = 0.0
        for x in candidates:
            nrm = trace_norm(x)
            if nrm > 1e-12:
                est = max(est, trace_norm(hermitianize(apply(s, x / nrm)), atol=1e-8))
        if est > 1.0 + 1e-12:
            continue
        kept += 1
        for x in psd_inputs:
            assert float(np.linalg.eigvalsh(hermitianize(apply(s, x)))[0]) >= -1e-8
    assert kept > 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
       lead=st.lists(st.integers(1, 3), max_size=2))
def test_choi_reshuffle_is_an_involution(seed, d, lead):
    rng = np.random.default_rng(seed)
    shape = (*lead, d * d, d * d)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    once = _choi_reshuffle(m, d)
    assert once.shape == m.shape
    assert np.array_equal(_choi_reshuffle(once, d), m)
    # a stack reshuffles matrix by matrix
    assert all(np.array_equal(once[idx], _choi_reshuffle(m[idx], d))
               for idx in np.ndindex(*lead))
