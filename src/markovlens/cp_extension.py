"""Numerical probe of CP / CPTP extension of a map defined on an operator
subspace: support reduction to an operator system, and convex feasibility
over Choi matrices (PSD cone intersected with affine action / trace
constraints) solved by alternating projections with Dykstra correction."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InconsistentConstraintsError, NotPositivelyGeneratedError
from .operator_core import (
    SubspaceBasis,
    gram_schmidt_hermitian,
    hermitianize,
    hs_norm,
)
from .superop import choi_input_trace, from_choi, apply


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
        self.images = tuple(np.asarray(y, dtype=complex) for y in self.images)


class FeasibilityStatus(str, Enum):
    FEASIBLE = "FEASIBLE"
    INFEASIBLE_EVIDENCE = "INFEASIBLE_EVIDENCE"
    MAX_ITER = "MAX_ITER"


@dataclass
class FeasibilityResult:
    status: FeasibilityStatus
    choi: np.ndarray | None
    action_residual: float
    tp_residual: float
    psd_slack: float
    iterations: int
    history: list = field(default_factory=list)
    iterates: list | None = None


def _support_isometry(m: SubspaceBasis, tol: float) -> np.ndarray:
    """Isometry onto the joint support of the subspace elements."""
    s = sum(g @ g for g in m.elements)
    w, v = np.linalg.eigh(hermitianize(s))
    keep = w > tol * max(float(w[-1]), 1e-300)
    return v[:, keep]


def _min_eig_on_support(coeffs: np.ndarray, reduced: list[np.ndarray]):
    x = sum(c * b for c, b in zip(coeffs, reduced))
    w, v = np.linalg.eigh(hermitianize(x))
    return float(w[0]), v[:, 0]


def positively_generated_check(m: SubspaceBasis, tol: float = 1e-9):
    """Decide whether the subspace is spanned by positive operators.

    Equivalent criterion: the subspace contains an element that is strictly
    positive on the joint support of all its elements. Found by projected
    subgradient ascent of the restricted minimum eigenvalue over the unit
    HS ball, started from the identity component and each basis direction.
    Returns (flag, certifying element or None).
    """
    w_iso = _support_isometry(m, tol)
    reduced = [w_iso.conj().T @ g @ w_iso for g in m.elements]
    k = len(m)

    starts = []
    ident = np.array([float(np.trace(g).real) for g in m.elements])
    if np.linalg.norm(ident) > 1e-12:
        starts.append(ident / np.linalg.norm(ident))
    for j in range(k):
        e = np.zeros(k)
        e[j] = 1.0
        starts.append(e)
        starts.append(-e)

    best_val, best_c = -np.inf, None
    for c0 in starts:
        c = c0.copy()
        cur_val, cur_c = _min_eig_on_support(c, reduced)[0], c.copy()
        for it in range(300):
            if cur_val > 1e-3:  # decision margin reached, certificate is strict
                break
            _, vec = _min_eig_on_support(c, reduced)
            grad = np.array([float((vec.conj() @ bm @ vec).real) for bm in reduced])
            c = c + (0.5 / np.sqrt(it + 1.0)) * grad
            nrm = np.linalg.norm(c)
            if nrm > 1.0:
                c = c / nrm
            val = _min_eig_on_support(c, reduced)[0]
            if val > cur_val:
                cur_val, cur_c = val, c.copy()
        if cur_val > best_val:
            best_val, best_c = cur_val, cur_c
        if best_val > 1e-3:
            break

    if best_val <= tol:
        return False, None
    best_c = best_c / np.linalg.norm(best_c)
    cert = hermitianize(sum(ci * g for ci, g in zip(best_c, m.elements)))
    return True, cert


def jencova_reduce(m: SubspaceBasis, tol: float = 1e-9):
    """Support reduction: build a full-support PSD element rho of the
    subspace, its support projector P, and the conjugated basis
    M' = rho^{-1/2} M rho^{-1/2}, an operator system containing P."""
    ok, cert = positively_generated_check(m, tol)
    if not ok:
        raise NotPositivelyGeneratedError(
            "subspace is not spanned by positive operators", stage="jencova_reduce")

    w_iso = _support_isometry(m, tol)
    reduced_cert = w_iso.conj().T @ cert @ w_iso
    lam_cert = float(np.linalg.eigvalsh(hermitianize(reduced_cert))[0])

    # PSD spanning set: the certificate plus each basis element shifted into
    # the cone by a multiple of the certificate, both signs so the sum stays
    # proportional to the certificate.
    spanning = [cert]
    for g in m.elements:
        reduced_g = hermitianize(w_iso.conj().T @ g @ w_iso)
        bound = float(np.max(np.abs(np.linalg.eigvalsh(reduced_g))))
        shift = bound / lam_cert + 1.0
        spanning.append(g + shift * cert)
        spanning.append(-g + shift * cert)
    rho = hermitianize(sum(spanning))
    rho = rho / float(np.trace(rho).real)

    w, v = np.linalg.eigh(rho)
    keep = w > tol * float(w[-1])
    vk, wk = v[:, keep], w[keep]
    p = vk @ vk.conj().T
    inv_sqrt = vk @ np.diag(wk ** -0.5) @ vk.conj().T
    conjugated = [hermitianize(inv_sqrt @ g @ inv_sqrt) for g in m.elements]
    m_prime = gram_schmidt_hermitian(conjugated, tol=tol)
    return rho, hermitianize(p), m_prime


def _constraint_system(spec: SubspaceMapSpec):
    """Stack the affine constraints on the Choi matrix: prescribed action on
    the domain basis, plus the partial-trace identity when TP is required."""
    d = spec.dim
    n = d * d

    def constraint_map(c: np.ndarray) -> np.ndarray:
        t = c.reshape(d, d, d, d)
        rows = []
        for g in spec.domain.elements:
            # Phi_C(G) = Tr_in[(G^T (x) 1) C] entrywise over the output block
            out = np.einsum("ij,irjc->rc", g, t)
            rows.append(out.reshape(-1))
        if spec.require_tp:
            rows.append(np.einsum("irjr->ij", t).reshape(-1))
        return np.concatenate(rows)

    cols = []
    eye = np.eye(n * n, dtype=complex)
    for j in range(n * n):
        cols.append(constraint_map(eye[:, j].reshape(n, n)))
    a = np.column_stack(cols)
    rows = [y.reshape(-1) for y in spec.images]
    if spec.require_tp:
        rows.append(np.eye(d, dtype=complex).reshape(-1))
    b = np.concatenate(rows)
    return a, b


def _psd_project(c: np.ndarray) -> tuple[np.ndarray, float]:
    h = hermitianize(c)
    w, v = np.linalg.eigh(h)
    slack = float(w[0])
    wc = np.clip(w, 0.0, None)
    return (v * wc) @ v.conj().T, slack


def extend_cp(spec: SubspaceMapSpec, max_iter: int = 5000,
              tol_psd: float = 1e-9, tol_affine: float = 1e-8,
              init_choi: np.ndarray | None = None,
              track_iterates: bool = False) -> FeasibilityResult:
    """Search for a Choi matrix of a CP (optionally TP) map on the whole
    operator space whose action restricts to the prescribed images.

    Alternating projections between the PSD cone (eigenvalue clipping) and
    the affine constraint set (precomputed least-squares projection), with
    Dykstra correction terms so the iterates converge to a point
    of the intersection whenever it is nonempty. The INFEASIBLE_EVIDENCE
    status is a stagnation heuristic, not a certificate.
    """
    d = spec.dim
    n = d * d
    a, b = _constraint_system(spec)
    a_pinv = np.linalg.pinv(a, rcond=1e-12)
    x_part = a_pinv @ b
    lin_residual = float(np.linalg.norm(a @ x_part - b))
    if lin_residual > 1e-8 * (1.0 + float(np.linalg.norm(b))):
        raise InconsistentConstraintsError(
            f"affine constraint system is inconsistent (residual {lin_residual:.3e}); "
            "the prescribed action admits no linear extension with these constraints",
            stage="extend_cp")

    def affine_project(c: np.ndarray) -> np.ndarray:
        v = c.reshape(-1)
        return (v - a_pinv @ (a @ v - b)).reshape(n, n)

    if init_choi is None:
        # Choi of the completely depolarizing channel: trace-consistent and
        # strictly inside the PSD cone.
        x = np.eye(n, dtype=complex) / d
    else:
        x = hermitianize(np.asarray(init_choi, dtype=complex))
    x = affine_project(x)
    p = np.zeros_like(x)
    q = np.zeros_like(x)

    history: list[float] = []
    iterates: list[np.ndarray] | None = [] if track_iterates else None
    status = FeasibilityStatus.MAX_ITER
    it = 0
    for it in range(1, max_iter + 1):
        y, _ = _psd_project(x + p)
        p = x + p - y
        x = affine_project(y + q)
        q = y + q - x
        slack = float(np.linalg.eigvalsh(hermitianize(x))[0])
        history.append(max(0.0, -slack))
        if iterates is not None:
            iterates.append(x.copy())
        if slack >= -tol_psd:
            status = FeasibilityStatus.FEASIBLE
            break

    action_res, tp_res = _residuals(x, spec)
    if status is FeasibilityStatus.FEASIBLE and (
            action_res > tol_affine or (spec.require_tp and tp_res > tol_affine)):
        status = FeasibilityStatus.MAX_ITER
    if status is not FeasibilityStatus.FEASIBLE:
        tail = history[-max(1, len(history) // 5):]
        if min(tail) > 100.0 * tol_psd:
            status = FeasibilityStatus.INFEASIBLE_EVIDENCE
    ok = status is FeasibilityStatus.FEASIBLE
    return FeasibilityResult(
        status=status, choi=x if ok else None,
        action_residual=action_res, tp_residual=tp_res,
        psd_slack=float(np.linalg.eigvalsh(hermitianize(x))[0]),
        iterations=it, history=history, iterates=iterates)


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
    herm_defect = float(np.max(np.abs(c - c.conj().T)))
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
