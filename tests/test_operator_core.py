import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from markovlens.errors import EmptyBasisError
from markovlens.operator_core import (
    GROUND_PROJECTOR,
    _trace_norms,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    gram_schmidt_hermitian,
    hermitian_basis,
    hs_inner,
    hs_norm,
    psd_check,
    require_density,
    require_hermitian,
    trace_norm,
    traceless_hermitian_basis,
)
from markovlens.superop import apply, orthogonal_projector

from conftest import random_hermitian


def test_trace_norm_examples():
    assert trace_norm(np.zeros((2, 2))) == 0.0
    assert trace_norm(PAULI_X) == pytest.approx(2.0, abs=1e-14)
    assert trace_norm(np.diag([0.7, 0.3])) == pytest.approx(1.0, abs=1e-14)
    stack = trace_norm(np.array([np.zeros((2, 2)), PAULI_X, np.diag([0.7, 0.3])]))
    assert stack.shape == (3,)
    assert stack == pytest.approx([0.0, 2.0, 1.0], abs=1e-14)
    assert isinstance(trace_norm(PAULI_X), float)


def test_trace_norm_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        trace_norm(bad)
    with pytest.raises(ValueError, match="not Hermitian"):
        trace_norm(np.array([PAULI_X, bad, PAULI_Z]))


def test_trace_norm_matches_svd_oracle(rng):
    for d in (2, 3, 4):
        mats = [random_hermitian(rng, d) for _ in range(200)]
        for a in mats:
            oracle = float(np.sum(scipy.linalg.svdvals(a)))
            assert trace_norm(a) == pytest.approx(oracle, rel=1e-10)
        # a stack gives exactly the per-matrix norms, also with extra axes
        singles = np.array([trace_norm(a) for a in mats])
        assert np.array_equal(trace_norm(np.array(mats)), singles)
        assert np.array_equal(trace_norm(np.array(mats).reshape(4, 50, d, d)),
                              singles.reshape(4, 50))


def test_trace_norm_is_a_norm(rng):
    for _ in range(100):
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
        c = rng.uniform(-3, 3)
        assert trace_norm(c * a) == pytest.approx(abs(c) * trace_norm(a), abs=1e-10)


def test_hs_inner_examples():
    assert hs_inner(PAULI_X, PAULI_X) == pytest.approx(2.0)
    assert hs_inner(PAULI_X, PAULI_Z) == pytest.approx(0.0, abs=1e-15)
    assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="mismatch"):
        hs_inner(np.eye(2), np.eye(3))


def test_hs_inner_conjugate_symmetry(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))
    assert hs_inner(a, a).real >= 0


def test_density_validation(rng):
    require_density(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError):
        require_density(np.diag([0.6, 0.6]))
    with pytest.raises(ValueError):
        require_density(np.diag([1.5, -0.5]))


def test_gram_schmidt_collinear():
    basis = gram_schmidt_hermitian([np.eye(2), 2.0 * np.eye(2)])
    assert len(basis) == 1
    assert np.allclose(basis.elements[0], np.eye(2) / np.sqrt(2), atol=1e-12)


def test_gram_schmidt_pauli_span():
    basis = gram_schmidt_hermitian([PAULI_X, PAULI_Y, PAULI_Z, np.eye(2)])
    assert len(basis) == 4
    for i, gi in enumerate(basis.elements):
        for j, gj in enumerate(basis.elements):
            assert hs_inner(gi, gj) == pytest.approx(float(i == j), abs=1e-10)


def test_gram_schmidt_projector_input():
    basis = gram_schmidt_hermitian([GROUND_PROJECTOR])
    assert len(basis) == 1
    assert np.allclose(basis.elements[0], GROUND_PROJECTOR, atol=1e-12)


def test_gram_schmidt_zero_inputs():
    with pytest.raises(EmptyBasisError):
        gram_schmidt_hermitian([np.zeros((2, 2)), np.zeros((2, 2))])


def test_gram_schmidt_rank_detection(rng):
    mats = [random_hermitian(rng, 3) for _ in range(2)]
    span = mats + [0.3 * mats[0] - 1.7 * mats[1]]
    assert len(gram_schmidt_hermitian(span)) == 2


def test_gram_schmidt_reproduces_span(rng):
    mats = [random_hermitian(rng, 3) for _ in range(4)]
    basis = gram_schmidt_hermitian(mats)
    proj = orthogonal_projector(basis)
    for m in mats:
        assert hs_norm(apply(proj, m) - m) < 1e-9


def test_orthogonal_projector_full_space():
    basis = gram_schmidt_hermitian(hermitian_basis(2))
    proj = orthogonal_projector(basis)
    assert np.allclose(proj.natural, np.eye(4), atol=1e-12)


def test_orthogonal_projector_rank_one():
    basis = gram_schmidt_hermitian([GROUND_PROJECTOR])
    proj = orthogonal_projector(basis)
    x = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, 0.9]])
    expected = GROUND_PROJECTOR * np.trace(GROUND_PROJECTOR @ x)
    assert np.allclose(apply(proj, x), expected, atol=1e-12)


def test_orthogonal_projector_diagonal_subspace():
    basis = gram_schmidt_hermitian([np.eye(2) / np.sqrt(2), PAULI_Z / np.sqrt(2)])
    proj = orthogonal_projector(basis)
    assert np.allclose(apply(proj, PAULI_X), 0.0, atol=1e-12)
    assert np.allclose(apply(proj, PAULI_Z), PAULI_Z, atol=1e-12)


def test_projector_idempotent_and_hermiticity_preserving(rng):
    mats = [random_hermitian(rng, 3) for _ in range(3)]
    basis = gram_schmidt_hermitian(mats)
    p = basis.projector_matrix()
    assert np.linalg.norm(p @ p - p) < 1e-9
    proj = orthogonal_projector(basis)
    for _ in range(20):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert hs_norm(apply(proj, x.conj().T) - apply(proj, x).conj().T) < 1e-10


def test_psd_check_examples():
    ok, lo = psd_check(np.eye(2), 1e-9)
    assert ok and lo == pytest.approx(1.0)
    ok, lo = psd_check(PAULI_Z, 1e-9)
    assert not ok and lo == pytest.approx(-1.0)
    ok, lo = psd_check(0.5 * (np.eye(2) + PAULI_X), 1e-9)
    assert ok and lo == pytest.approx(0.0, abs=1e-12)


def test_traceless_basis_orthonormal():
    for d in (2, 3, 4):
        basis = traceless_hermitian_basis(d)
        assert len(basis) == d * d - 1
        for i, gi in enumerate(basis):
            assert abs(np.trace(gi)) < 1e-12
            for j, gj in enumerate(basis):
                assert hs_inner(gi, gj) == pytest.approx(float(i == j), abs=1e-12)


_unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(["hermitian", "diagonal", "rank_one", "zero"]),
       entries=st.tuples(_unit, _unit, _unit, _unit), exponent=st.integers(-20, 150))
def test_qubit_trace_norm_closed_form_matches_eigvalsh(shape, entries, exponent):
    a, b, re, im = entries
    if shape == "rank_one":
        v = np.array([a + 1j * b, re + 1j * im]) * 10.0 ** (exponent / 2)
        m = np.outer(v, v.conj())
        m = 0.5 * (m + m.conj().T)
    else:
        c = 0.0 if shape == "diagonal" else complex(re, im)
        m = np.array([[a, np.conj(c)], [c, b]], dtype=complex) * 10.0 ** exponent
        m = m * (shape != "zero")
    ref = np.sum(np.abs(np.linalg.eigvalsh(m)))
    got = _trace_norms(m)
    assert got.shape == ()
    fro = np.hypot.reduce(np.abs(m).ravel())  # Frobenius norm, no underflow near the smallest floats
    assert abs(got - ref) <= 8 * np.finfo(float).eps * fro
    assert trace_norm(m) == float(got)


def test_trace_norm_kernel_takes_stacks_and_larger_matrices(rng):
    stack = np.array([[random_hermitian(rng, 2) for _ in range(4)] for _ in range(3)])
    got = _trace_norms(stack)
    assert got.shape == (3, 4)
    assert np.array_equal(got, [[_trace_norms(m) for m in row] for row in stack])
    big = np.array([random_hermitian(rng, 3) for _ in range(5)])
    assert np.array_equal(_trace_norms(big), np.sum(np.abs(np.linalg.eigvalsh(big)), axis=-1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "-inf", "nan_imag"])
def test_non_finite_entries_are_rejected(bad):
    diag = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
    off = np.array([[0.5, bad], [np.conj(bad), 0.5]], dtype=complex)
    for m, where in ((diag, r"\[\[0, 0\]\]"), (off, r"\[\[0, 1\], \[1, 0\]\]")):
        for check in (require_hermitian, trace_norm, psd_check, require_density):
            with pytest.raises(ValueError, match="non-finite matrix entries at " + where):
                check(m)


def test_non_finite_message_names_the_count_and_first_five():
    with pytest.raises(ValueError) as exc:
        trace_norm(np.full((400, 4, 4), np.nan, dtype=complex))
    assert str(exc.value) == ("6400 non-finite matrix entries at "
                              "[[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, 3], [0, 1, 0]]")
