"""Time-parameterized dynamical map families: closed-form presets,
master-equation integration, generator extraction, canonical GKLS form
and the damping-basis diagonal representation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DefectiveMapError,
    IntegrationAccuracyError,
    NumericalError,
    SingularGeneratorError,
)
from .operator_core import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SIGMA_MINUS,
    SIGMA_PLUS,
    hermitianize,
    require_density,
    traceless_hermitian_basis,
)
from .signals import ScalarSignal
from .superop import Superoperator, devectorize, to_choi, vectorize

_CP_SLACK = 1e-10


@dataclass(frozen=True)
class MapFamily:
    """A family t -> Lambda_t of dynamical maps on [0, t_max].

    Evaluation is pure given (kind, params); presets validate their
    CPTP-equivalent parameter conditions at every evaluation and raise
    naming the offending time.
    """

    dim: int
    t_max: float
    kind: str
    evaluator: Callable[[float], Superoperator]
    params: dict = field(default_factory=dict)

    def evaluate(self, t: float) -> Superoperator:
        if t < -1e-12 or t > self.t_max * (1 + 1e-12) + 1e-12:
            raise ValueError(f"time {t} outside family domain [0, {self.t_max}]")
        return self.evaluator(float(t))


def preset_amplitude_damping(g: ScalarSignal | None = None,
                             gamma: ScalarSignal | None = None,
                             s: ScalarSignal | None = None,
                             t_max: float = 1.0) -> MapFamily:
    """Single-qubit amplitude damping driven by a decay amplitude G(t).

    Either pass G directly, or a rate gamma (with optional Hamiltonian
    modulation s), in which case G(t) = exp(-(Gamma(t) + i*S(t))/2) with
    Gamma, S the closed-form integrals of the signals.
    """
    if (g is None) == (gamma is None):
        raise ValueError("pass exactly one of g or gamma")

    if g is not None:
        def gval(t: float) -> complex:
            return complex(g.value(t))
        params = {"g": g}
    else:
        def gval(t: float) -> complex:
            phase = 0.0 if s is None else s.integral(t)
            return complex(np.exp(-0.5 * (gamma.integral(t) + 1j * phase)))
        params = {"gamma": gamma, "s": s}

    if abs(gval(0.0) - 1.0) > 1e-10:
        raise ValueError("amplitude damping requires G(0) = 1")

    def evaluator(t: float) -> Superoperator:
        gt = gval(t)
        if abs(gt) > 1.0 + _CP_SLACK:
            raise NumericalError(f"|G({t})| = {abs(gt):.6f} > 1: map is not CP",
                                 stage="amplitude_damping", time=t)
        a2 = abs(gt) ** 2
        nat = np.zeros((4, 4), dtype=complex)
        nat[0, 0] = a2
        nat[1, 1] = np.conj(gt)
        nat[2, 2] = gt
        nat[3, 0] = 1.0 - a2
        nat[3, 3] = 1.0
        return Superoperator(dim=2, natural=nat)

    return MapFamily(dim=2, t_max=t_max, kind="amplitude_damping",
                     evaluator=evaluator, params=params)


_PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


def preset_pauli_channel(gammas=None, lambdas=None, t_max: float = 1.0) -> MapFamily:
    """Time-dependent Pauli channel, Lambda_t sigma_i = lambda_i(t) sigma_i.

    Rate form: lambda_i = exp(-Gamma_j - Gamma_k) with Gamma the signal
    integrals. The eigenvalue (lambda) form is accepted directly so that
    rates with a finite-time divergence stay representable in closed form.
    """
    if (gammas is None) == (lambdas is None):
        raise ValueError("pass exactly one of gammas or lambdas")
    if gammas is not None and len(gammas) != 3:
        raise ValueError("gammas must be three signals")
    if lambdas is not None and len(lambdas) != 3:
        raise ValueError("lambdas must be three signals")

    if lambdas is not None:
        def lam(t: float) -> np.ndarray:
            return np.array([sig.value(t) for sig in lambdas])
        params = {"lambdas": tuple(lambdas)}
    else:
        def lam(t: float) -> np.ndarray:
            g = np.array([sig.integral(t) for sig in gammas])
            return np.exp(np.array([-g[1] - g[2], -g[0] - g[2], -g[0] - g[1]]))
        params = {"gammas": tuple(gammas)}

    if np.max(np.abs(lam(0.0) - 1.0)) > 1e-10:
        raise ValueError("pauli channel requires lambda_i(0) = 1")
    # Natural matrices of the projections onto the normalized Paulis.
    units = [np.outer(v, v.conj()) for v in (vectorize(sig) / np.sqrt(2.0) for sig in _PAULIS)]

    def evaluator(t: float) -> Superoperator:
        l1, l2, l3 = lam(t)
        # Mixing probabilities of the four Pauli conjugations; all must be
        # nonnegative for the map to be CP.
        probs = 0.25 * np.array([1 + l1 + l2 + l3, 1 + l1 - l2 - l3,
                                 1 - l1 + l2 - l3, 1 - l1 - l2 + l3])
        if np.min(probs) < -_CP_SLACK:
            raise NumericalError(
                f"pauli channel is not CP at t={t}: mixing weight {np.min(probs):.3e}",
                stage="pauli_channel", time=t)
        nat = np.zeros((4, 4), dtype=complex)
        for lam_a, unit in zip((1.0, l1, l2, l3), units):
            nat += lam_a * unit
        return Superoperator(dim=2, natural=nat)

    return MapFamily(dim=2, t_max=t_max, kind="pauli_channel",
                     evaluator=evaluator, params=params)


def preset_equilibrium_relaxation(omega: np.ndarray, f: ScalarSignal,
                                  t_max: float = 1.0) -> MapFamily:
    """Relaxation toward a fixed state: Lambda_t rho = (1-F) rho + F omega Tr(rho)."""
    omega = require_density(omega)
    d = omega.shape[0]
    if abs(f.value(0.0)) > 1e-10:
        raise ValueError("equilibrium relaxation requires F(0) = 0")
    rank_one = np.outer(vectorize(omega), vectorize(np.eye(d, dtype=complex)).conj())

    def evaluator(t: float) -> Superoperator:
        ft = f.value(t)
        if ft < -_CP_SLACK or ft > 1.0 + _CP_SLACK:
            raise NumericalError(f"F({t}) = {ft:.6f} outside [0, 1]: map is not CP",
                                 stage="equilibrium_relaxation", time=t)
        nat = (1.0 - ft) * np.eye(d * d, dtype=complex) + ft * rank_one
        return Superoperator(dim=d, natural=nat)

    return MapFamily(dim=d, t_max=t_max, kind="equilibrium_relaxation",
                     evaluator=evaluator, params={"omega": omega, "f": f})


def gkls_superop(h: np.ndarray | None, rates, ops, d: int) -> Superoperator:
    """Natural matrix of a GKLS generator
    rho -> -i[H, rho] + sum_k gamma_k (L_k rho L_k^+ - {L_k^+ L_k, rho}/2)."""
    eye = np.eye(d, dtype=complex)
    nat = np.zeros((d * d, d * d), dtype=complex)
    if h is not None:
        nat += -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for gamma_k, lk in zip(rates, ops):
        lkl = lk.conj().T @ lk
        nat += gamma_k * (np.kron(lk.conj(), lk)
                          - 0.5 * np.kron(eye, lkl)
                          - 0.5 * np.kron(lkl.T, eye))
    return Superoperator(dim=d, natural=nat)


def amplitude_damping_generator(gamma: ScalarSignal,
                                s: ScalarSignal | None = None):
    """Time-local generator of the amplitude damping family with rate
    gamma(t) and Hamiltonian modulation s(t)."""
    excited = SIGMA_PLUS @ SIGMA_MINUS

    def l_of_t(t: float) -> Superoperator:
        h = None if s is None else 0.5 * s.value(t) * excited
        return gkls_superop(h, [gamma.value(t)], [SIGMA_MINUS], 2)

    return l_of_t


def pauli_generator(g1: ScalarSignal, g2: ScalarSignal, g3: ScalarSignal):
    """Time-local generator rho -> 1/2 sum_k gamma_k(t)(sigma_k rho sigma_k - rho)."""
    sigs = (PAULI_X, PAULI_Y, PAULI_Z)

    def l_of_t(t: float) -> Superoperator:
        # gamma/2 (sigma rho sigma - rho) = gamma (G rho G - {G G, rho}/2) for G = sigma/sqrt2
        return gkls_superop(None, [g.value(t) for g in (g1, g2, g3)],
                            [sig / np.sqrt(2.0) for sig in sigs], 2)

    return l_of_t


def _rk4_step(l_of_t, t: float, m: np.ndarray, h: float) -> np.ndarray:
    k1 = _nat(l_of_t(t)) @ m
    l_mid = _nat(l_of_t(t + 0.5 * h))
    k2 = l_mid @ (m + 0.5 * h * k1)
    k3 = l_mid @ (m + 0.5 * h * k2)
    k4 = _nat(l_of_t(t + h)) @ (m + h * k3)
    return m + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _nat(l) -> np.ndarray:
    return l.natural if isinstance(l, Superoperator) else np.asarray(l, dtype=complex)


def integrate_generator(l_of_t, t_max: float, dim: int, n_steps: int = 1600,
                        halving_tol: float = 1e-7) -> MapFamily:
    """Solve dLambda/dt = L(t) Lambda, Lambda_0 = 1, by fixed-step classical
    4th-order integration of the natural matrix.

    The solution is recomputed at half the step and the largest deviation is
    the reported error estimate; above halving_tol the integration aborts.
    Singular (diverging) rates cannot go through here; use the closed-form
    presets for those.
    """
    n = dim * dim

    def solve(steps: int) -> list[np.ndarray]:
        h = t_max / steps
        m = np.eye(n, dtype=complex)
        nodes = [m]
        for k in range(steps):
            m = _rk4_step(l_of_t, k * h, m, h)
            nodes.append(m)
        return nodes

    coarse = solve(n_steps)
    fine = solve(2 * n_steps)
    err = max(float(np.max(np.abs(coarse[k] - fine[2 * k])))
              for k in range(0, n_steps + 1, max(1, n_steps // 16)))
    if err > halving_tol:
        raise IntegrationAccuracyError(
            f"step-halving discrepancy {err:.3e} above {halving_tol:.1e}; "
            f"use more than {n_steps} steps", stage="integrate_generator")

    h_fine = t_max / (2 * n_steps)

    def evaluator(t: float) -> Superoperator:
        k = min(int(np.floor(t / h_fine + 1e-12)), 2 * n_steps)
        m = fine[k]
        delta = t - k * h_fine
        if delta > 1e-13:
            m = _rk4_step(l_of_t, k * h_fine, m, delta)
        return Superoperator(dim=dim, natural=m)

    return MapFamily(dim=dim, t_max=t_max, kind="generator_driven",
                     evaluator=evaluator,
                     params={"n_steps": n_steps, "error_estimate": err})


def generator_from_family(family: MapFamily, t: float, h: float | None = None,
                          rank_rtol: float = 1e-9) -> Superoperator:
    """Extract L_t = (dLambda_t/dt) Lambda_t^{-1} by central differences.

    Raises SingularGeneratorError when Lambda_t is not numerically
    invertible; that is the singular-generator regime and no bounded
    time-local generator exists there.
    """
    if h is None:
        h = 1e-3 * family.t_max
    nat = family.evaluate(t).natural
    svals = np.linalg.svd(nat, compute_uv=False)
    if svals[-1] <= rank_rtol * svals[0]:
        raise SingularGeneratorError(
            f"map is singular at t={t}: smallest singular value {svals[-1]:.3e}",
            time=t, smallest_singular_value=float(svals[-1]))
    if t - h >= 0 and t + h <= family.t_max:
        dn = (family.evaluate(t + h).natural - family.evaluate(t - h).natural) / (2 * h)
    elif t + h > family.t_max:
        dn = (3 * nat - 4 * family.evaluate(t - h).natural
              + family.evaluate(t - 2 * h).natural) / (2 * h)
    else:
        dn = (-3 * nat + 4 * family.evaluate(t + h).natural
              - family.evaluate(t + 2 * h).natural) / (2 * h)
    return Superoperator(dim=family.dim, natural=np.linalg.solve(nat.T, dn.T).T)


@dataclass(frozen=True)
class GKLSDecomposition:
    """Canonical form of a time-local generator: Hamiltonian part,
    Kossakowski matrix over a traceless orthonormal basis, its eigenvalues
    (the canonical rates) and eigen-operators (the Lindblad operators)."""

    hamiltonian: np.ndarray
    kossakowski: np.ndarray
    rates: np.ndarray
    lindblad_ops: tuple


def canonical_gkls(l: Superoperator, tol: float = 1e-9) -> GKLSDecomposition:
    """Split a Hermiticity-preserving, trace-annihilating generator into its
    unique canonical GKLS data."""
    d = l.dim
    nat = l.natural
    vec_id = vectorize(np.eye(d, dtype=complex))
    tp_res = float(np.linalg.norm(nat.conj().T @ vec_id))
    if tp_res > max(tol, 1e-9) * max(1.0, float(np.linalg.norm(nat))):
        raise NumericalError(
            f"generator does not annihilate the trace (residual {tp_res:.3e}); "
            "it cannot generate a trace-preserving family", stage="canonical_gkls")

    basis = [np.eye(d, dtype=complex) / np.sqrt(d)] + traceless_hermitian_basis(d)
    n2 = d * d
    # a[alpha, beta] = <v_alpha| Choi(L) |v_beta> over the orthonormal basis,
    # giving L(rho) = sum a[alpha, beta] G_alpha rho G_beta.
    choi = to_choi(l)
    vs = np.column_stack([g.T.reshape(-1) for g in basis])
    a = vs.conj().T @ choi @ vs
    a = hermitianize(a)

    kossakowski = a[1:, 1:].copy()
    b1 = sum(a[k, 0] * basis[k] for k in range(1, n2)) / np.sqrt(d)
    b = b1 + (a[0, 0].real / (2 * d)) * np.eye(d, dtype=complex)
    ham = hermitianize((b.conj().T - b) / (2j))
    ham = ham - (np.trace(ham) / d) * np.eye(d, dtype=complex)

    w, u = np.linalg.eigh(kossakowski)
    order = np.argsort(-w)
    w, u = w[order], u[:, order]
    ops = tuple(sum(u[k, m] * basis[k + 1] for k in range(n2 - 1))
                for m in range(n2 - 1))

    rebuilt = gkls_superop(ham, w, ops, d)
    resid = float(np.max(np.abs(rebuilt.natural - nat)))
    if resid > 1e-8 * max(1.0, float(np.max(np.abs(nat)))):
        raise NumericalError(
            f"canonical split failed to reproduce the generator (residual {resid:.3e})",
            stage="canonical_gkls")
    return GKLSDecomposition(hamiltonian=ham, kossakowski=kossakowski,
                             rates=w, lindblad_ops=ops)


def damping_basis(family: MapFamily, t: float, tol: float = 1e-9):
    """Diagonal representation Lambda_t rho = sum_a lambda_a F_a Tr(G_a^+ rho)
    with biorthonormal (F_a, G_b), for diagonalizable maps.

    Raises DefectiveMapError when the eigenvector matrix is too ill
    conditioned; callers fall back to SVD-based image/kernel analysis.
    """
    nat = family.evaluate(t).natural
    w, r = np.linalg.eig(nat)
    cond = float(np.linalg.cond(r))
    if not np.isfinite(cond) or cond > 1.0 / tol:
        raise DefectiveMapError(
            f"natural matrix not diagonalizable at t={t}: eigenvector condition "
            f"number {cond:.3e}", stage="damping_basis", time=t)
    order = np.argsort(-np.abs(w))
    w, r = w[order], r[:, order]
    rinv = np.linalg.inv(r)
    d = family.dim
    rights = [devectorize(r[:, k], d) for k in range(d * d)]
    lefts = [devectorize(rinv[k, :].conj(), d) for k in range(d * d)]
    recon = sum(np.outer(vectorize(fa) * wa, vectorize(ga).conj())
                for wa, fa, ga in zip(w, rights, lefts))
    if float(np.max(np.abs(recon - nat))) > 1e-8 * max(1.0, float(np.max(np.abs(nat)))):
        raise DefectiveMapError("damping-basis reconstruction failed",
                                stage="damping_basis", time=t)
    return w, rights, lefts


def validate_dynamical_map(family: MapFamily, times, tol: float = 1e-8) -> float:
    """Check the dynamical-map property (CPTP at every time, identity at 0);
    returns the worst CP/TP residual magnitude."""
    from .superop import is_cp, is_tp
    worst = 0.0
    id_dev = float(np.max(np.abs(family.evaluate(0.0).natural
                                 - np.eye(family.dim ** 2))))
    if id_dev > 1e-10:
        raise NumericalError(f"family does not start at the identity ({id_dev:.3e})",
                             stage="validate", time=0.0)
    for t in times:
        s = family.evaluate(float(t))
        cp_ok, lo = is_cp(s, tol=tol)
        tp_ok, res = is_tp(s, tol=tol)
        worst = max(worst, max(0.0, -lo), res)
        if not (cp_ok and tp_ok):
            raise NumericalError(
                f"family is not CPTP at t={t}: min Choi eig {lo:.3e}, TP residual {res:.3e}",
                stage="validate", time=float(t))
    return worst
