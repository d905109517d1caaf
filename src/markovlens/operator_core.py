"""Complex matrix foundations: Hermitian checks, Hilbert-Schmidt geometry,
trace norms, orthonormal Hermitian bases of operator subspaces."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBasisError

HERMITICITY_ATOL = 1e-12
DENSITY_ATOL = 1e-10
RANK_RTOL = 1e-9  # relative rank cut of every SVD, eigenbasis and Gram-Schmidt
CHECK_TOL = 1e-9  # slack of the PSD, CP, TP and Hermiticity-preservation tests
CERTIFY_TOL = 1e-12  # rounding bound of a step's CPTP certificate (witness scans skip it)

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
# Ground-state projector sigma_- sigma_+ (second basis vector is the ground state).
GROUND_PROJECTOR = SIGMA_MINUS @ SIGMA_PLUS


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^dagger)/2 of each matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def _keep(sv: np.ndarray, rtol: float) -> np.ndarray:
    """Which singular values count toward the rank, everywhere: above rtol max(s_0, 1)."""
    return sv > rtol * np.maximum(sv[..., :1], 1.0)


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation of a from its conjugate transpose."""
    return float(np.max(np.abs(a - np.swapaxes(a, -1, -2).conj()))) if a.size else 0.0


def require_hermitian(a: np.ndarray, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Validate Hermiticity entrywise and return the Hermitianized stack."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        bad = np.argwhere(~np.isfinite(a))  # name the first five
        raise ValueError(f"{len(bad)} non-finite matrix entries at {bad[:5].tolist()}")
    defect = hermiticity_defect(a)
    if defect > atol:
        raise ValueError(f"matrix is not Hermitian: asymmetry {defect:.3e} > {atol:.1e}")
    return hermitianize(a)


def require_int(name: str, value, low: int = 0) -> None:
    """Reject a value that is not an integer (a bool is not) of at least low, naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be {'non-negative' if low == 0 else f'at least {low}'} "
                         f"and an integer, got {value!r}")


def require_density(rho: np.ndarray) -> np.ndarray:
    """Validate that rho is a density matrix (PSD up to DENSITY_ATOL, unit trace)."""
    rho = require_hermitian(rho, atol=max(DENSITY_ATOL, HERMITICITY_ATOL))
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < -DENSITY_ATOL:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {lo:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > DENSITY_ATOL:
        raise ValueError(f"matrix is not trace one: trace {tr}")
    return rho


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dagger b)."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


def _qubit_trace_norms(p: np.ndarray, q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Trace norms max(|p + q|, hypot(p - q, 2|c|)) of the Hermitian [[p, c*], [c, q]]."""
    return np.maximum(np.abs(p + q), np.hypot(p - q, 2 * np.hypot(c.real, c.imag)))


def _trace_norms(a: np.ndarray) -> np.ndarray:
    """Trace norms of a stack (..., m, m) of exactly Hermitian matrices: the closed form
    for m = 2, else one eigvalsh call."""
    if a.shape[-1] != 2:
        return np.sum(np.abs(np.linalg.eigvalsh(a)), axis=-1)
    return _qubit_trace_norms(a[..., 0, 0].real, a[..., 1, 1].real, a[..., 1, 0])


def trace_norm(a: np.ndarray, atol: float = HERMITICITY_ATOL) -> float | np.ndarray:
    """Trace norm of a Hermitian matrix, the sum of absolute eigenvalues, as
    a float; a stack (..., m, m) gives an array. Rejects input with any
    non-Hermitian or non-finite member."""
    a = require_hermitian(a, atol=atol)
    norms = _trace_norms(a)
    return float(norms) if a.ndim == 2 else norms


def psd_check(a: np.ndarray, tol: float = CHECK_TOL) -> tuple[bool, float]:
    """Return (min eigenvalue >= -tol, min eigenvalue) for Hermitian a."""
    a = require_hermitian(a, atol=max(tol, HERMITICITY_ATOL))
    lo = float(np.linalg.eigvalsh(a)[0])
    return lo >= -tol, lo


@dataclass(frozen=True)
class SubspaceBasis:
    """Hilbert-Schmidt-orthonormal Hermitian basis of an operator subspace.

    dim is the matrix dimension d of the ambient space B(C^d); tol records
    the rank-discard threshold used during construction.
    """

    dim: int
    elements: tuple[np.ndarray, ...]
    tol: float = RANK_RTOL

    def __post_init__(self):
        for g in self.elements:
            g.setflags(write=False)

    def __len__(self) -> int:
        return len(self.elements)

    def projector_matrix(self) -> np.ndarray:
        """d^2 x d^2 natural matrix of the HS-orthogonal projector onto
        the subspace, Pi(X) = sum_a Tr(G_a X) G_a."""
        d = self.dim
        p = np.zeros((d * d, d * d), dtype=complex)
        for g in self.elements:
            v = g.reshape(-1, order="F")
            p += np.outer(v, v.conj())
        return p


def gram_schmidt_hermitian(spanning, tol: float = RANK_RTOL) -> SubspaceBasis:
    """Orthonormalize Hermitian matrices in the HS inner product.

    Modified Gram-Schmidt with one reorthogonalization pass; elements whose
    residual norm falls below tol times the largest input norm are dropped,
    so the basis size equals the numerical rank of the span.
    """
    mats = [require_hermitian(m) for m in spanning]
    if not mats:
        raise EmptyBasisError("empty spanning set", stage="gram_schmidt")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != d:
            raise ValueError("spanning elements have mixed dimensions")
    scale = max(hs_norm(m) for m in mats)
    if scale == 0.0:
        raise EmptyBasisError("all spanning elements are zero", stage="gram_schmidt")
    cutoff = tol * scale
    basis: list[np.ndarray] = []
    for m in mats:
        v = m.copy()
        for _ in range(2):  # one reorthogonalization pass for near-degenerate spans
            for g in basis:
                v = v - hs_inner(g, v).real * g
        nrm = hs_norm(v)
        if nrm >= cutoff:
            basis.append(hermitianize(v / nrm))
    if not basis:
        raise EmptyBasisError("all spanning elements are numerically zero",
                              stage="gram_schmidt")
    return SubspaceBasis(dim=d, elements=tuple(basis), tol=tol)


def _off_diagonal_units(d: int) -> list[np.ndarray]:
    """Symmetric then antisymmetric HS-unit Hermitian combination of each
    off-diagonal pair (i < j), in row-major order."""
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[i, j] = s[j, i] = 1.0 / np.sqrt(2.0)
            out.append(s)
            a = np.zeros((d, d), dtype=complex)
            a[i, j] = -1j / np.sqrt(2.0)
            a[j, i] = 1j / np.sqrt(2.0)
            out.append(a)
    return out


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Canonical HS-orthonormal Hermitian basis of B(C^d): diagonal units,
    symmetric and antisymmetric off-diagonal combinations."""
    out = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    return out + _off_diagonal_units(d)


def traceless_hermitian_basis(d: int) -> list[np.ndarray]:
    """Generalized Gell-Mann basis: d^2 - 1 traceless HS-orthonormal
    Hermitian matrices."""
    out = _off_diagonal_units(d)
    for k in range(1, d):
        g = np.zeros((d, d), dtype=complex)
        for i in range(k):
            g[i, i] = 1.0
        g[k, k] = -float(k)
        out.append(g / np.sqrt(k * (k + 1)))
    return out
