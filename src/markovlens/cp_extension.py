"""Numerical probe of CP / CPTP extension of a map defined on an operator
subspace: support reduction to an operator system, and SDP feasibility over
Choi matrices (PSD cone intersected with affine action / trace constraints)
decided by a primal-dual interior-point method that certifies both outcomes:
a Choi matrix when an extension exists, a Farkas dual certificate when none
does."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InconsistentConstraintsError, NotPositivelyGeneratedError
from .operator_core import (
    CHECK_TOL,
    HERMITICITY_ATOL,
    RANK_RTOL,
    SubspaceBasis,
    gram_schmidt_hermitian,
    hermitian_basis,
    hermitianize,
    hermiticity_defect,
    hs_norm,
    psd_check,
)
from .superop import choi_input_trace, from_choi, apply

AFFINE_TOL = 1e-8  # slack of the affine (action and TP) constraints
CONSTRAINT_RCUT = 1e-12  # relative cut of the constraint rows' singular values
STALL_STEP, TINY = 1e-6, 1e-300  # Newton stops below this step length; guard against 0


@dataclass
class SubspaceMapSpec:
    """A linear map given only on a subspace: an orthonormal Hermitian
    domain basis and the prescribed images of its elements."""

    domain: SubspaceBasis
    images: tuple
    dim: int
    require_tp: bool = True

    def __post_init__(self):
        if len(self.images) != len(self.domain):
            raise ValueError("one image per domain basis element required")
        images = tuple(np.asarray(y, dtype=complex) for y in self.images)
        # a CP map sends Hermitian operators to Hermitian ones
        defect = max(hermiticity_defect(a) for a in (*self.domain.elements, *images))
        if defect > HERMITICITY_ATOL:
            raise InconsistentConstraintsError(
                f"domain element or image is not Hermitian (asymmetry {defect:.3e}); "
                "no CP map has this action", stage="extend_cp")
        self.images = tuple(hermitianize(y) for y in images)


class FeasibilityStatus(str, Enum):
    FEASIBLE = "FEASIBLE"
    INFEASIBLE = "INFEASIBLE"
    MAX_ITER = "MAX_ITER"


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Farkas certificate: Hermitian W_k, one per domain element, and W_tp
    (None without TP); see verify_infeasibility."""

    weights: tuple
    tp_weight: np.ndarray | None


@dataclass
class FeasibilityResult:
    status: FeasibilityStatus
    choi: np.ndarray | None
    action_residual: float
    tp_residual: float
    psd_slack: float
    iterations: int
    certificate: InfeasibilityCertificate | None = None


def positively_generated_check(m: SubspaceBasis):
    """Decide whether the subspace is spanned by positive operators, i.e.
    holds an element strictly positive on the joint support of its elements.

    On that support, with the reduced elements G~_k completed by H_j to an
    HS-orthonormal Hermitian basis, extend_cp's phase-I core solves X PSD,
    Tr(H_j X) = -Tr H_j, i.e. X + 1 in span G~ (X = 0 if there is no H_j).
    FEASIBLE gives sum_k Tr(G~_k (X + 1)) G_k at unit HS norm, and the flag is
    True if its minimum eigenvalue on the support exceeds CHECK_TOL. INFEASIBLE needs
    a Farkas witness W = -sum_j y_j H_j, orthogonal to the subspace, of trace
    b.y > 0 and PSD up to CHECK_TOL Tr W / rank, so no unit-norm element exceeds it.
    MAX_ITER, an exhausted search, also gives False.
    Returns (flag, certifying element or None).
    """
    ev, v = np.linalg.eigh(hermitianize(sum(g @ g for g in m.elements)))
    w_iso = v[:, ev > RANK_RTOL * max(float(ev[-1]), TINY)]  # isometry onto the joint support
    reduced = [w_iso.conj().T @ g @ w_iso for g in m.elements]
    r = w_iso.shape[1]
    h = np.array(gram_schmidt_hermitian(reduced + hermitian_basis(r)).elements[len(m):])

    def certify(y):  # the Farkas witness, lifted back to the full space
        w = -np.tensordot(y, h, axes=1)
        ok = psd_check(w, CHECK_TOL * float(np.trace(w).real) / r)[0]
        return w_iso @ w @ w_iso.conj().T if ok else None

    status, c = FeasibilityStatus.FEASIBLE, np.zeros((r, r))
    if len(h):
        status, c, _, _, _ = _phase1(h, -np.einsum("jaa->j", h).real, certify, max_iter=100)
    if status is not FeasibilityStatus.FEASIBLE:
        return False, None
    coeffs = np.einsum("kab,ba->k", np.array(reduced), c + np.eye(r)).real
    coeffs = coeffs / np.linalg.norm(coeffs)
    if np.linalg.eigvalsh(hermitianize(np.tensordot(coeffs, reduced, axes=1)))[0] <= CHECK_TOL:
        return False, None
    return True, hermitianize(np.tensordot(coeffs, m.elements, axes=1))


def jencova_reduce(m: SubspaceBasis):
    """Support reduction: build a full-support PSD element rho of the
    subspace, its support projector P, and the conjugated basis
    M' = rho^{-1/2} M rho^{-1/2}, an operator system containing P."""
    ok, cert = positively_generated_check(m)
    if not ok:
        raise NotPositivelyGeneratedError(
            "subspace is not spanned by positive operators", stage="jencova_reduce")
    rho = cert / float(np.trace(cert).real)

    w, v = np.linalg.eigh(rho)
    keep = w > RANK_RTOL * float(w[-1])
    vk, wk = v[:, keep], w[keep]
    p = vk @ vk.conj().T
    inv_sqrt = vk @ np.diag(wk ** -0.5) @ vk.conj().T
    conjugated = [hermitianize(inv_sqrt @ g @ inv_sqrt) for g in m.elements]
    m_prime = gram_schmidt_hermitian(conjugated)
    return rho, hermitianize(p), m_prime


def _constraint_system(spec: SubspaceMapSpec):
    """HS-orthonormal Hermitian A_i and b with A(C) = b (Tr(A_i C) = b_i) for
    the rows G_k^T (x) E_j -> Tr(E_j Y_k) (action) and E_j (x) 1 -> Tr E_j
    (TP), and the matrix taking dual weights on the A_i to the rows."""
    d, n = spec.dim, spec.dim ** 2
    units = np.array(hermitian_basis(d))
    rows = [np.kron(g.T, units) for g in spec.domain.elements]
    rhs = [np.einsum("jab,ba->j", units, y).real for y in spec.images]
    if spec.require_tp:
        rows.append(np.kron(units, np.eye(d)))
        rhs.append(np.einsum("jaa->j", units).real)
    b = np.concatenate(rhs)
    u, s, vt = np.linalg.svd(_real(np.concatenate(rows)), full_matrices=False)
    keep = s > CONSTRAINT_RCUT * s[0]
    u, s, vt = u[:, keep], s[keep], vt[keep]
    lin_residual = float(np.linalg.norm(b - u @ (u.T @ b)))
    if lin_residual > AFFINE_TOL * (1.0 + float(np.linalg.norm(b))):
        raise InconsistentConstraintsError(
            f"affine constraint system is inconsistent (residual {lin_residual:.3e}); "
            "the prescribed action admits no linear extension with these constraints",
            stage="extend_cp")
    a = hermitianize((vt[:, :n * n] + 1j * vt[:, n * n:]).reshape(-1, n, n))
    return a, (u.T @ b) / s, u / s


def _real(y: np.ndarray) -> np.ndarray:
    """Real coordinates of a stack of matrices; Re Tr(A Y) = _real(A) . _real(Y)
    for Hermitian A."""
    flat = y.reshape(*y.shape[:-2], -1)
    return np.concatenate([flat.real, flat.imag], axis=-1)


def _step(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Largest steps in (0, 1] keeping each X + a dX of the stacked pairs
    positive definite, at 95% of the distance to the boundary."""
    li = np.linalg.inv(np.linalg.cholesky(x))
    lam = np.linalg.eigvalsh(li @ dx @ np.swapaxes(li, -1, -2).conj())[:, 0]
    return np.minimum(1.0, 0.95 / np.maximum(-lam, TINY))


def _phase1(a: np.ndarray, b: np.ndarray, certify, max_iter: int):
    """Phase-I SDP over HS-orthonormal Hermitian A_i: minimize u >= 0 over X
    PSD with A(X - u 1) = b, in standard form over diag(X, u), by an
    infeasible primal-dual path-following method (HKM direction, Mehrotra
    predictor-corrector, Schur complement over the constraints; max_iter caps
    the Newton steps). FEASIBLE once X - u 1, projected onto the affine set,
    has min eigenvalue >= -CHECK_TOL; INFEASIBLE once b.y > 0 and certify(y)
    returns a verified certificate; MAX_ITER otherwise. Returns (status, C,
    slack, iterations, certificate)."""
    n = a.shape[-1]
    a_real = _real(a)
    big = np.zeros((len(b), n + 1, n + 1), dtype=complex)
    big[:, :n, :n], big[:, n, n] = a, -np.einsum("iaa->i", a).real
    big_real, eye = _real(big), np.eye(n + 1, dtype=complex)
    cost = np.zeros_like(eye)
    cost[n, n] = 1.0

    def project(c):  # onto the affine set, with the min eigenvalue there
        c = hermitianize(c - np.tensordot(a_real @ _real(c) - b, a, axes=1))
        return c, float(np.linalg.eigvalsh(c)[0])

    def op(m):  # the phase-I constraints on diag(X, u): A(X) - u Tr(A_i)
        return big_real @ _real(m)

    def direction(rc):  # HKM: dX = sym(Z^-1 (rc - dZ X)), dZ = rd - A*(dy)
        dy = np.linalg.solve(schur, rp - op(zinv @ (rc - rd @ x)))
        dz = rd - np.tensordot(dy, big, axes=1)
        dx = hermitianize(zinv @ (rc - dz @ x))
        return dx, dy, dz, _step(np.array([x, z]), np.array([dx, dz]))

    x, z, y, mu = eye, eye, np.zeros(len(b)), 1.0
    status, cert = FeasibilityStatus.MAX_ITER, None
    for it in range(max_iter + 1):
        c, slack = project(x[:n, :n] - x[n, n] * eye[:n, :n])
        if slack >= -CHECK_TOL:
            status = FeasibilityStatus.FEASIBLE
            break
        if b @ y > 0 and (cert := certify(y)) is not None:
            status = FeasibilityStatus.INFEASIBLE
            break
        if it == max_iter:
            break
        rp, rd = b - op(x), cost - np.tensordot(y, big, axes=1) - z
        mu = float(np.trace(x @ z).real) / (n + 1)
        try:
            lz = np.linalg.inv(np.linalg.cholesky(z))
            zinv = lz.conj().T @ lz
            g = _real(lz @ big @ np.linalg.cholesky(x))
            schur = g @ g.T
            dx, dy, dz, (ap, ad) = direction(-z @ x)
            sigma = (np.trace((x + ap * dx) @ (z + ad * dz)).real / (n + 1) / mu) ** 3
            dx, dy, dz, (ap, ad) = direction(sigma * mu * eye - z @ x - dz @ dx)
        except np.linalg.LinAlgError:
            break
        if max(ap, ad) < STALL_STEP:  # stalled: round-off dominates the direction
            break
        x, y, z = hermitianize(x + ap * dx), y + ad * dy, hermitianize(z + ad * dz)
    if status is FeasibilityStatus.MAX_ITER:
        # On a degenerate boundary round-off stalls the path above CHECK_TOL:
        # factor C = R R^H on the face of X's eigenvalues >= sqrt(mu) and
        # refine R by Gauss-Newton on the constraints.
        w, v = np.linalg.eigh(x[:n, :n])
        fac = v[:, w >= np.sqrt(mu)] * np.sqrt(w[w >= np.sqrt(mu)])
        for _ in range(3):
            s = np.linalg.lstsq(2.0 * _real(a @ fac), b - a_real @ _real(fac @ fac.conj().T),
                                rcond=None)[0]
            fac = fac + (s[:fac.size] + 1j * s[fac.size:]).reshape(fac.shape)
        face, face_slack = project(fac @ fac.conj().T)
        if face_slack >= -CHECK_TOL:
            c, slack, status = face, face_slack, FeasibilityStatus.FEASIBLE
    return status, c, slack, it, cert


def extend_cp(spec: SubspaceMapSpec, max_iter: int = 100) -> FeasibilityResult:
    """Search for a Choi matrix of a CP (optionally TP) map on the whole
    operator space whose action restricts to the prescribed images.

    The Choi constraints of _constraint_system go to the phase-I core
    _phase1 (max_iter is its own). INFEASIBLE once w = -y passes
    verify_infeasibility; a FEASIBLE Choi matrix whose action or TP residual
    exceeds AFFINE_TOL is reported as MAX_ITER.
    """
    a, b, lift = _constraint_system(spec)

    def certify(y):  # the dual weights on the A_i, mapped back to the rows
        ws = np.tensordot((lift @ -y).reshape(-1, spec.dim ** 2), hermitian_basis(spec.dim),
                          axes=1)
        cert = InfeasibilityCertificate(tuple(ws[:len(spec.images)]),
                                        ws[-1] if spec.require_tp else None)
        return cert if verify_infeasibility(cert, spec)["ok"] else None

    status, c, slack, it, cert = _phase1(a, b, certify, max_iter)
    action_res, tp_res = _residuals(c, spec)
    if status is FeasibilityStatus.FEASIBLE and (
            action_res > AFFINE_TOL or (spec.require_tp and tp_res > AFFINE_TOL)):
        status = FeasibilityStatus.MAX_ITER
    return FeasibilityResult(
        status=status, choi=c if status is FeasibilityStatus.FEASIBLE else None,
        action_residual=action_res, tp_residual=tp_res, psd_slack=slack,
        iterations=it, certificate=cert)


def _residuals(c: np.ndarray, spec: SubspaceMapSpec) -> tuple[float, float]:
    s = from_choi(c)
    action = max(hs_norm(apply(s, g) - y)
                 for g, y in zip(spec.domain.elements, spec.images))
    tp = float(np.linalg.norm(choi_input_trace(c, spec.dim)
                              - np.eye(spec.dim))) if spec.require_tp else 0.0
    return float(action), tp


def verify_extension(c: np.ndarray, spec: SubspaceMapSpec,
                     tol: float = 1e-7) -> dict:
    """Independent re-check of a claimed extension: fresh Hermiticity and
    eigenvalue tests, action residual recomputed through the map's action,
    and the partial-trace TP residual."""
    c = np.asarray(c, dtype=complex)
    herm_defect = hermiticity_defect(c)
    min_eig = float(np.linalg.eigvalsh(hermitianize(c))[0])
    action_res, tp_res = _residuals(hermitianize(c), spec)
    ok = (herm_defect <= tol and min_eig >= -tol and action_res <= tol
          and (not spec.require_tp or tp_res <= tol))
    return {
        "ok": bool(ok),
        "hermiticity_defect": herm_defect,
        "min_choi_eigenvalue": min_eig,
        "action_residual": action_res,
        "tp_residual": tp_res,
        "tolerance": tol,
    }


def verify_infeasibility(certificate: InfeasibilityCertificate, spec: SubspaceMapSpec) -> dict:
    """Independent re-check of a claimed Farkas certificate, rebuilt from the
    spec: any feasible Choi matrix C would give value = sum_k Tr(W_k Y_k) +
    Tr W_tp = Tr(W C) >= lambda_min(W) Tr C, W = sum_k G_k^T (x) W_k +
    W_tp (x) 1, with Tr C = d under TP and W PSD required without it. ok
    when value is below that bound by more than CHECK_TOL, eigenvalue round-off
    charged."""
    ws = [hermitianize(np.asarray(w, dtype=complex)) for w in certificate.weights]
    w_op = sum(np.kron(g.T, w) for g, w in zip(spec.domain.elements, ws))
    value = sum(float(np.trace(w @ y).real) for w, y in zip(ws, spec.images))
    if spec.require_tp and certificate.tp_weight is not None:
        w_tp = hermitianize(np.asarray(certificate.tp_weight, dtype=complex))
        w_op, value = w_op + np.kron(w_tp, np.eye(spec.dim)), value + float(np.trace(w_tp).real)
    eig = np.linalg.eigvalsh(hermitianize(w_op))
    lam = float(eig[0]) - len(eig) * np.finfo(float).eps * float(np.max(np.abs(eig)))
    lower = lam * spec.dim if spec.require_tp else (0.0 if lam >= 0.0 else -np.inf)
    return {"ok": bool(value < lower - CHECK_TOL), "value": value, "min_eigenvalue": lam,
            "lower_bound": lower, "tolerance": CHECK_TOL}
