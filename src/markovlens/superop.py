"""Superoperators in the natural (matrix-on-vectorized-operators)
representation, with Choi/Kraus conversions and CP/TP/HP tests.

Conventions, fixed once for the whole package:
  * vectorization is column-stacking, vec(A) = A.reshape(-1, order="F");
  * the Choi matrix is unnormalized, C = sum_ij |i><j| (x) Phi(|i><j|),
    with the input factor first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .operator_core import (
    CHECK_TOL,
    RANK_RTOL,
    SubspaceBasis,
    hermitian_basis,
    hermitianize,
    hermiticity_defect,
    trace_norm,
)

CPTP_TOL = 1e-8  # slack of the CPTP test of a whole map


def vectorize(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(a, dtype=complex).reshape(-1, order="F")


def devectorize(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of vectorize."""
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


@dataclass(frozen=True)
class Superoperator:
    """A linear map on d x d operators, stored as its d^2 x d^2 natural
    matrix acting on column-vectorized operators."""

    dim: int
    natural: np.ndarray

    def __post_init__(self):
        n = self.dim * self.dim
        if self.natural.shape != (n, n):
            raise ValueError(
                f"natural matrix shape {self.natural.shape} does not match dim {self.dim}")
        self.natural.setflags(write=False)

    def __call__(self, a: np.ndarray) -> np.ndarray:
        return apply(self, a)


def identity_superop(d: int) -> Superoperator:
    return Superoperator(dim=d, natural=np.eye(d * d, dtype=complex))


def superop_from_action(f, d: int) -> Superoperator:
    """Build the natural matrix of a map from its action on matrix units."""
    n = d * d
    nat = np.empty((n, n), dtype=complex)
    for j in range(n):
        e = devectorize(np.eye(n, dtype=complex)[:, j], d)
        nat[:, j] = vectorize(f(e))
    return Superoperator(dim=d, natural=nat)


def apply(s: Superoperator, a: np.ndarray) -> np.ndarray:
    """Apply the map to a d x d matrix."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (s.dim, s.dim):
        raise ValueError(f"operand shape {a.shape} does not match map dimension {s.dim}")
    return apply_extended(s.natural, a)


def apply_extended(naturals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(1_a (x) Lambda)(X) for natural matrices (..., d^2, d^2) and operators
    (..., a*d, a*d), broadcast over the leading axes: each d x d block of X
    (ancilla factor first) goes through Lambda, at a^2 d^4 per application,
    without forming the (a*d)^2 x (a*d)^2 matrix of tensor_with_identity."""
    d = int(round(np.sqrt(naturals.shape[-1])))
    a = x.shape[-1] // d
    lead = x.shape[:-2]
    # vec of each block X_ij as a column: entry r + d*c is X[i*d + r, j*d + c]
    vecs = x.reshape(*lead, a, d, a, d).transpose(
        *range(len(lead)), -4, -2, -1, -3).reshape(*lead, a, a, d * d, 1)
    y = naturals[..., None, None, :, :] @ vecs
    lead = y.shape[:-4]
    return y.reshape(*lead, a, a, d, d).transpose(
        *range(len(lead)), -4, -1, -3, -2).reshape(*lead, a * d, a * d)


def compose(s2: Superoperator, s1: Superoperator) -> Superoperator:
    """Composition s2 after s1."""
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch in composition")
    return Superoperator(dim=s1.dim, natural=s2.natural @ s1.natural)


def _choi_reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    # The natural->Choi index shuffle is an involution: with vec index
    # r + d*c and input index i + d*j, N[r + d*c, i + d*j] = C[i*d + r, j*d + c].
    t = m.reshape(-1, d, d, d, d)
    return t.transpose(0, 4, 2, 3, 1).reshape(m.shape)


def to_choi(s: Superoperator) -> np.ndarray:
    """Choi matrix C = sum_ij |i><j| (x) Phi(|i><j|) (unnormalized)."""
    return _choi_reshuffle(s.natural, s.dim)


def from_choi(c: np.ndarray) -> Superoperator:
    """Inverse of to_choi."""
    c = np.asarray(c, dtype=complex)
    d = int(round(np.sqrt(c.shape[0])))
    if c.shape != (d * d, d * d):
        raise ValueError(f"Choi matrix shape {c.shape} is not a perfect square block matrix")
    return Superoperator(dim=d, natural=_choi_reshuffle(c, d))


def choi_input_trace(c: np.ndarray, d: int) -> np.ndarray:
    """Partial trace of a Choi matrix over the output factor; equals the
    identity iff the map is trace-preserving."""
    t = c.reshape(d, d, d, d)
    return np.einsum("irjr->ij", t)


def is_hp(s: Superoperator, tol: float = CHECK_TOL) -> tuple[bool, float]:
    """Hermiticity preservation via the Choi Hermiticity residual."""
    residual = hermiticity_defect(to_choi(s))
    return residual <= tol, residual


def choi_test(naturals: np.ndarray, tol: float = CHECK_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Complete positivity of each natural matrix in a stack (..., d^2, d^2),
    from one eigvalsh call: (Choi matrix Hermitian within max(tol, 1e-10)
    and its Hermitian part PSD within tol, that part's min eigenvalue)."""
    c = _choi_reshuffle(naturals, int(round(np.sqrt(naturals.shape[-1]))))
    h_res = np.max(np.abs(c - np.swapaxes(c, -1, -2).conj()), axis=(-2, -1))
    lo = np.linalg.eigvalsh(hermitianize(c))[..., 0]
    return (lo >= -tol) & (h_res <= max(tol, 1e-10)), lo


def is_cp(s: Superoperator, tol: float = CHECK_TOL) -> tuple[bool, float]:
    """Complete positivity via positive semidefiniteness of the Choi matrix."""
    ok, lo = choi_test(s.natural, tol)
    return bool(ok), float(lo)


def tp_residual(naturals: np.ndarray) -> np.ndarray:
    """||N^dagger vec(1) - vec(1)|| for each natural matrix N in a stack (..., d^2, d^2)."""
    vec_id = vectorize(np.eye(int(round(np.sqrt(naturals.shape[-1]))), dtype=complex))
    return np.linalg.norm(np.swapaxes(naturals, -1, -2).conj() @ vec_id - vec_id, axis=-1)


def is_tp(s: Superoperator, tol: float = CHECK_TOL) -> tuple[bool, float]:
    """Trace preservation: the dual map must fix the identity."""
    residual = float(tp_residual(s.natural))
    return residual <= tol, residual


def is_cptp(s: Superoperator) -> bool:
    return is_cp(s, CPTP_TOL)[0] and is_tp(s, CPTP_TOL)[0]


def kraus_from_choi(c: np.ndarray) -> list[np.ndarray]:
    """Extract Kraus operators from a PSD Choi matrix.

    Eigenvalues in [-CHECK_TOL, 0) are clipped to zero (numerical PSD slack);
    anything below -CHECK_TOL signals a non-CP map and raises.
    """
    c = np.asarray(c, dtype=complex)
    d = int(round(np.sqrt(c.shape[0])))
    w, v = np.linalg.eigh(hermitianize(c))
    if w[0] < -CHECK_TOL:
        raise NumericalError(
            f"Choi matrix is not PSD: min eigenvalue {w[0]:.3e} < -{CHECK_TOL:.1e}",
            stage="kraus")
    w = np.clip(w, 0.0, None)
    scale_w = max(float(w[-1]), 1.0)
    ops = []
    for k in range(len(w)):
        if w[k] > RANK_RTOL * scale_w:
            # Choi eigenvector v[i*d + r] carries the Kraus entry K[r, i].
            ops.append(np.sqrt(w[k]) * v[:, k].reshape(d, d).T)
    return ops


def superop_from_kraus(ops, d: int) -> Superoperator:
    """Natural matrix of X -> sum_k K_k X K_k^dagger."""
    nat = np.zeros((d * d, d * d), dtype=complex)
    for k in ops:
        nat += np.kron(k.conj(), k)
    return Superoperator(dim=d, natural=nat)


def _composite_vec_index(a: int, d: int) -> np.ndarray:
    # idx[w'] = composite vec index (i1*d + i2) + a*d*(j1*d + j2) of the factored
    # index w' = (i1 + a*j1)*d^2 + (i2 + d*j2)
    ad = a * d
    return np.arange(ad * ad).reshape(a, d, a, d).transpose(0, 2, 1, 3).ravel()


def tensor_with_identity(s: Superoperator, a: int) -> Superoperator:
    """The extended map 1_a (x) Phi acting on (a*d) x (a*d) operators."""
    if a < 1:
        raise ValueError("ancilla dimension must be >= 1")
    if a == 1:
        return s
    d = s.dim
    ad = a * d
    idx = _composite_vec_index(a, d)
    factored = np.kron(np.eye(a * a, dtype=complex), s.natural)
    nat = np.empty((ad * ad, ad * ad), dtype=complex)
    nat[np.ix_(idx, idx)] = factored
    return Superoperator(dim=ad, natural=nat)


def orthogonal_projector(m: SubspaceBasis) -> Superoperator:
    """HS-orthogonal, Hermiticity-preserving projector onto span(m),
    Pi(X) = sum_a Tr(G_a X) G_a."""
    return Superoperator(dim=m.dim, natural=m.projector_matrix())


def random_pure_state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def induced_trace_norm_estimate(s: Superoperator, n_samples: int = 200,
                                seed: int = 0) -> float:
    """Lower-bound estimate of the induced trace norm
    sup {||S(X)||_1 : X Hermitian, ||X||_1 = 1}.

    Maximizes over rank-one differences of random pure states, random pure
    states themselves, and the canonical Hermitian basis. This is a sampled
    lower bound, not a certified value: the exact induced norm is itself an
    optimization problem.
    """
    d = s.dim
    rng = np.random.default_rng(seed)
    candidates = hermitian_basis(d)
    for _ in range(n_samples):
        psi = random_pure_state(rng, d)
        phi = random_pure_state(rng, d)
        candidates.append(np.outer(psi, psi.conj()) - np.outer(phi, phi.conj()))
        candidates.append(np.outer(psi, psi.conj()))
    x = np.array(candidates)
    nrm = trace_norm(hermitianize(x))
    keep = nrm >= 1e-14
    out = apply_extended(s.natural, x[keep] / nrm[keep, None, None])
    return float(np.max(trace_norm(hermitianize(out), atol=CHECK_TOL), initial=0.0))
