"""Time-parameterized dynamical map families: closed-form presets,
master-equation integration, generator extraction, canonical GKLS form
and the damping-basis diagonal representation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DefectiveMapError,
    DivergenceError,
    IntegrationAccuracyError,
    NumericalError,
    SingularGeneratorError,
)
from .operator_core import (
    CHECK_TOL,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    RANK_RTOL,
    SIGMA_MINUS,
    SIGMA_PLUS,
    _keep,
    hermitianize,
    require_density,
    traceless_hermitian_basis,
)
from .signals import ScalarSignal
from .superop import (CPTP_TOL, Superoperator, _choi_reshuffle, choi_test, devectorize,
                      tp_residual, vectorize)

_CP_SLACK = 1e-10
IDENTITY_ATOL = 1e-10  # how far Lambda_0 of a preset or validated family may be from the identity
HALVING_TOL, REBUILD_RTOL = 1e-7, 1e-8  # step-halving bound; GKLS/damping rebuild residual
# Regular grid times per stacked pass of canonical_rates; bounds temporaries.
BLOCK = 48


@dataclass(frozen=True)
class MapFamily:
    """A family t -> Lambda_t of dynamical maps on [0, t_max].

    Evaluation is pure given (kind, params). stack builds the (n, d^2, d^2) natural
    matrices at n >= 0 times (a preset's in one broadcast, raising at the first time
    that fails its CPTP parameter conditions); it is the only way to evaluate a family.
    A preset's candidates are the sorted times, in closed form from its signals, where
    Lambda_t may lose rank or stop being monotone; () when they are not known.
    """

    dim: int
    t_max: float
    kind: str
    stack: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)
    candidates: tuple = ()

    def _outside(self, t):
        """Which times lie outside [0, t_max]; a non-finite time is outside."""
        return ~np.isfinite(t) | (t < -1e-12) | (t > self.t_max * (1 + 1e-12) + 1e-12)

    def evaluate(self, t: float) -> Superoperator:  # the stack of one time
        if self._outside(t):
            raise ValueError(f"time {t} outside family domain [0, {self.t_max}]")
        return Superoperator(dim=self.dim, natural=self.stack(np.array([float(t)]))[0])

    def naturals(self, times) -> np.ndarray:
        """The (n, d^2, d^2) natural matrices of Lambda_t at n times, one stacked call;
        if a time is out of the domain, fails a CP check or hits a divergent signal,
        the per-time loop raises at the first failing time."""
        ts = np.ascontiguousarray(times, dtype=float)
        try:
            if not self._outside(ts).any():
                return self.stack(ts)
        except (NumericalError, DivergenceError):
            pass
        out = np.empty((len(times), self.dim ** 2, self.dim ** 2), dtype=complex)
        for k, t in enumerate(times):
            out[k] = self.evaluate(t).natural
        return out


@dataclass(frozen=True)
class TimeGrid:
    """Finite, strictly increasing times starting at 0."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("grid needs at least two times")
        if not np.all(np.isfinite(t)):
            raise ValueError(f"grid times must be finite, got {t[~np.isfinite(t)].tolist()}")
        if abs(t[0]) > 1e-15:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "times", t)
        t.setflags(write=False)


def _as_times(grid) -> np.ndarray:
    """The validated times of a grid; raw arrays are copied, never frozen."""
    return (grid if isinstance(grid, TimeGrid) else TimeGrid(np.array(grid, dtype=float))).times


def _runs(naturals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which matrices of a stack differ from the one before, and each one's run index."""
    new = np.ones(len(naturals), dtype=bool)
    new[1:] = np.any(naturals[1:] != naturals[:-1], axis=(-2, -1))
    return new, np.cumsum(new) - 1


def _grid_naturals(family: MapFamily, times: np.ndarray,
                   naturals: np.ndarray | None = None) -> np.ndarray:
    """The natural matrices of the grid maps: family.naturals(times), or the
    given stack once its shape matches the grid."""
    if naturals is None:
        return family.naturals(times)
    shape = (len(times), family.dim ** 2, family.dim ** 2)
    if np.shape(naturals) != shape:
        raise ValueError(f"naturals has shape {np.shape(naturals)}; "
                         f"{len(times)} grid times of this family need {shape}")
    return naturals


def _candidates(t_max: float, *landmarks) -> tuple:
    """The sorted times in [0, t_max] where each (signal, level, extrema) reaches level, with
    the signal's extrema where asked; () when a signal oscillates too often to list them."""
    times = set()
    try:
        for signal, level, extrema in landmarks:
            hits, turns = signal.crossings_and_extrema(level, t_max)
            times.update(hits + turns if extrema else hits)
    except ValueError:
        return ()
    return tuple(sorted(times))


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
        def gvals(ts: np.ndarray) -> np.ndarray:
            return g.value(ts).astype(complex)
        params, candidates = {"g": g}, _candidates(t_max, (g, 0.0, True))  # |G| turns at g's too
    else:
        def gvals(ts: np.ndarray) -> np.ndarray:
            phase = 0.0 if s is None else s.integral(ts)
            return np.exp(-0.5 * (gamma.integral(ts) + 1j * phase))
        params, candidates = {"gamma": gamma, "s": s}, _candidates(t_max, (gamma, 0.0, False))

    if abs(gvals(np.zeros(1))[0] - 1.0) > IDENTITY_ATOL:
        raise ValueError("amplitude damping requires G(0) = 1")

    def stack(ts: np.ndarray) -> np.ndarray:
        gt = gvals(ts)
        mod = np.hypot(gt.real, gt.imag)  # bit for bit Python's abs(complex)
        for k in np.flatnonzero(mod > 1.0 + _CP_SLACK)[:1]:  # the first offending time
            raise NumericalError(f"|G({ts[k]})| = {mod[k]:.6f} > 1: map is not CP",
                                 stage="amplitude_damping", time=float(ts[k]))
        a2 = np.array([m ** 2 for m in mod.tolist()])  # libm pow, not numpy's square
        nat = np.zeros((len(ts), 4, 4), dtype=complex)
        nat[:, 0, 0] = a2
        nat[:, 1, 1] = np.conj(gt)
        nat[:, 2, 2] = gt
        nat[:, 3, 0] = 1.0 - a2
        nat[:, 3, 3] = 1.0
        return nat

    return MapFamily(dim=2, t_max=t_max, kind="amplitude_damping", params=params, stack=stack,
                     candidates=candidates)


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
        def lam(ts: np.ndarray) -> np.ndarray:
            return np.array([sig.value(ts) for sig in lambdas])
        params = {"lambdas": tuple(lambdas)}
        candidates = _candidates(t_max, *((sig, 0.0, False) for sig in lambdas))
    else:
        def lam(ts: np.ndarray) -> np.ndarray:
            g = np.array([sig.integral(ts) for sig in gammas])
            return np.exp(np.array([-g[1] - g[2], -g[0] - g[2], -g[0] - g[1]]))
        params, candidates = {"gammas": tuple(gammas)}, ()  # lambda_i > 0

    if np.max(np.abs(lam(np.zeros(1)) - 1.0)) > IDENTITY_ATOL:
        raise ValueError("pauli channel requires lambda_i(0) = 1")
    # Natural matrices of the projections onto the normalized Paulis.
    units = [np.outer(v, v.conj()) for v in (vectorize(sig) / np.sqrt(2.0) for sig in _PAULIS)]

    def stack(ts: np.ndarray) -> np.ndarray:
        l1, l2, l3 = lam(ts)
        # Mixing probabilities of the four Pauli conjugations; all must be
        # nonnegative for the map to be CP.
        low = np.min(0.25 * np.array([1 + l1 + l2 + l3, 1 + l1 - l2 - l3,
                                      1 - l1 + l2 - l3, 1 - l1 - l2 + l3]), axis=0)
        for k in np.flatnonzero(low < -_CP_SLACK)[:1]:
            raise NumericalError(f"pauli channel is not CP at t={ts[k]}: mixing weight "
                                 f"{low[k]:.3e}", stage="pauli_channel", time=float(ts[k]))
        return sum(lam_a[:, None, None] * unit
                   for lam_a, unit in zip((np.ones(len(ts)), l1, l2, l3), units))

    return MapFamily(dim=2, t_max=t_max, kind="pauli_channel", params=params, stack=stack,
                     candidates=candidates)


def preset_equilibrium_relaxation(omega: np.ndarray, f: ScalarSignal,
                                  t_max: float = 1.0) -> MapFamily:
    """Relaxation toward a fixed state: Lambda_t rho = (1-F) rho + F omega Tr(rho)."""
    omega = require_density(omega)
    d = omega.shape[0]
    if abs(f.value(0.0)) > IDENTITY_ATOL:
        raise ValueError("equilibrium relaxation requires F(0) = 0")
    rank_one = np.outer(vectorize(omega), vectorize(np.eye(d, dtype=complex)).conj())

    def stack(ts: np.ndarray) -> np.ndarray:
        ft = f.value(ts)
        for k in np.flatnonzero((ft < -_CP_SLACK) | (ft > 1.0 + _CP_SLACK))[:1]:
            raise NumericalError(f"F({ts[k]}) = {ft[k]:.6f} outside [0, 1]: map is not CP",
                                 stage="equilibrium_relaxation", time=float(ts[k]))
        return ((1.0 - ft)[:, None, None] * np.eye(d * d, dtype=complex)
                + ft[:, None, None] * rank_one)

    return MapFamily(dim=d, t_max=t_max, kind="equilibrium_relaxation",
                     params={"omega": omega, "f": f}, stack=stack,
                     candidates=_candidates(t_max, (f, 1.0, True)))


def _gkls_choi(ham: np.ndarray, rates: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Choi(L) = sum_k gamma_k |L_k^T><L_k^T| + |K^T><1| + |1><K^T|, K = -iH -
    sum_k gamma_k L_k^+ L_k / 2, for stacks H (..., d, d), gamma (..., m), L_k (..., m, d, d):
    rho -> X rho Y^+ has the Choi matrix |X^T><Y^T| (flattened transposes)."""
    d = ham.shape[-1]
    vecs = np.swapaxes(ops, -1, -2).reshape(*ops.shape[:-2], d * d)
    k = -1j * ham - 0.5 * np.einsum("...m,...mji,...mjk->...ik", rates, ops.conj(), ops)
    k_one = np.swapaxes(k, -1, -2).reshape(*k.shape[:-2], d * d, 1) * np.eye(d).reshape(-1)
    return ((np.swapaxes(vecs, -1, -2) * rates[..., None, :]) @ vecs.conj() + k_one
            + np.swapaxes(k_one, -1, -2).conj())


def gkls_superop(h: np.ndarray | None, rates, ops, d: int) -> Superoperator:
    """Natural matrix of a GKLS generator
    rho -> -i[H, rho] + sum_k gamma_k (L_k rho L_k^+ - {L_k^+ L_k, rho}/2)."""
    choi = _gkls_choi(np.zeros((d, d)) if h is None else np.asarray(h, dtype=complex),
                      np.asarray(rates), np.array(ops, dtype=complex).reshape(-1, d, d))
    return Superoperator(dim=d, natural=_choi_reshuffle(choi, d))


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


def integrate_generator(l_of_t, t_max: float, dim: int, n_steps: int = 1600) -> MapFamily:
    """Solve dLambda/dt = L(t) Lambda, Lambda_0 = 1, by fixed-step classical
    4th-order integration of the natural matrix.

    The solution is recomputed at half the step and the largest deviation is
    the reported error estimate; above HALVING_TOL the integration aborts.
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
    if err > HALVING_TOL:
        raise IntegrationAccuracyError(
            f"step-halving discrepancy {err:.3e} above {HALVING_TOL:.1e}; "
            f"use more than {n_steps} steps", stage="integrate_generator")

    h_fine = t_max / (2 * n_steps)

    def at(t: float) -> np.ndarray:
        k = min(int(np.floor(t / h_fine + 1e-12)), 2 * n_steps)
        delta = t - k * h_fine
        return _rk4_step(l_of_t, k * h_fine, fine[k], delta) if delta > 1e-13 else fine[k]

    return MapFamily(dim=dim, t_max=t_max, kind="generator_driven",
                     stack=lambda ts: np.array([at(t) for t in ts.tolist()]).reshape(-1, n, n),
                     params={"n_steps": n_steps, "error_estimate": err})


def _singular(svals: np.ndarray, times, rank_rtol: float) -> dict:
    """{index: SingularGeneratorError} for the maps whose singular values (n, d^2), largest
    first, fail the rank rule _keep at the smallest one."""
    singular, ts = ~_keep(svals, rank_rtol)[:, -1], np.asarray(times, dtype=float)
    return {k: SingularGeneratorError(
        f"map is singular at t={t}: smallest singular value {svals[k, -1]:.3e}",
        time=t, smallest_singular_value=float(svals[k, -1]))
        for k, t in zip(np.flatnonzero(singular).tolist(), ts[singular].tolist())}


def _generators(family: MapFamily, naturals: np.ndarray, times, h: float | None):
    """L_t = (dLambda_t/dt) Lambda_t^{-1} from a stack of regular natural matrices Lambda_t, with
    Lambda_{t +- h} evaluated (one-sided near an end) in one stacked call per offset, time by time
    if one raises; one solve gives them, zero at the returned {index: NumericalError}."""
    h, ts = 1e-3 * family.t_max if h is None else h, np.asarray(times, dtype=float)
    # (N(t+h) - N(t-h)) / 2h, or near an end (3N(t) - 4N(t-s) + N(t-2s)) / 2s, s = +-h
    central, s = (ts - h >= 0) & (ts + h <= family.t_max), np.where(ts + h > family.t_max, h, -h)
    near, far, failures = ts - s, np.where(central, ts - h, ts - 2 * s), {}
    try:
        n1, n2 = family.naturals(near), family.naturals(far)
    except NumericalError:  # retried time by time outside this handler, so that the
        n1 = None  # kept errors neither chain to this one nor hold this frame
    if n1 is None:
        n1, n2 = np.zeros((2,) + naturals.shape, dtype=complex)
        for k in range(len(ts)):
            try:
                n1[k], n2[k] = family.evaluate(near[k]).natural, family.evaluate(far[k]).natural
            except NumericalError as exc:  # kept without the traceback that holds this frame
                failures[k] = exc.with_traceback(None)
    dn = np.where(central[:, None, None], (n1 - n2) / (2 * h),
                  (3 * naturals - 4 * n1 + n2) / (2 * s[:, None, None]))
    lhs = naturals.swapaxes(-1, -2).copy()
    lhs[list(failures)] = np.eye(naturals.shape[-1])
    dn[list(failures)] = 0.0
    return np.linalg.solve(lhs, dn.swapaxes(-1, -2)).swapaxes(-1, -2), failures


def generator_from_family(family: MapFamily, t: float, h: float | None = None,
                          rank_rtol: float = RANK_RTOL) -> Superoperator:
    """Extract L_t = (dLambda_t/dt) Lambda_t^{-1} by central differences.

    Raises SingularGeneratorError when Lambda_t is not numerically
    invertible; that is the singular-generator regime and no bounded
    time-local generator exists there.
    """
    nat = family.evaluate(t).natural[None]
    failures = _singular(np.linalg.svd(nat, compute_uv=False), (t,), rank_rtol)
    if not failures:
        gens, failures = _generators(family, nat, (t,), h)
    if failures:
        raise failures.pop(0)  # popped: the raised error must not keep this frame alive
    return Superoperator(dim=family.dim, natural=gens[0])


@dataclass(frozen=True)
class GKLSDecomposition:
    """Canonical form of a time-local generator: Hamiltonian part,
    Kossakowski matrix over a traceless orthonormal basis, its eigenvalues
    (the canonical rates) and eigen-operators (the Lindblad operators)."""

    hamiltonian: np.ndarray
    kossakowski: np.ndarray
    rates: np.ndarray
    lindblad_ops: tuple


def _canonical_split(gens: np.ndarray):
    """canonical_gkls over a stack of generators (n, d^2, d^2), from one basis
    change and one eigh: (H, Kossakowski matrices, rates in descending order,
    Lindblad operators (n, d^2 - 1, d, d), {index: NumericalError})."""
    n, dd = gens.shape[:2]
    d = int(round(np.sqrt(dd)))
    eye = np.eye(d, dtype=complex)
    # over the orthonormal basis G_alpha, whose Choi vectors G_alpha^T are the
    # columns of vs, a = vs^+ Choi(L) vs gives L(rho) = sum a[alpha, beta] G_alpha rho G_beta
    basis = np.array([eye / np.sqrt(d)] + traceless_hermitian_basis(d))
    vs = basis.swapaxes(-1, -2).reshape(dd, dd).T
    choi = _choi_reshuffle(gens, d)
    a = hermitianize(vs.conj().T @ choi @ vs)
    b = (np.einsum("nk,kij->nij", a[:, 1:, 0], basis[1:]) / np.sqrt(d)
         + (a[:, 0, 0].real / (2 * d))[:, None, None] * eye)
    ham = hermitianize((b.swapaxes(-1, -2).conj() - b) / (2j))
    ham = ham - (np.trace(ham, axis1=-2, axis2=-1) / d)[:, None, None] * eye
    w, u = np.linalg.eigh(a[:, 1:, 1:])
    w, u = w[:, ::-1], u[:, :, ::-1]  # descending rates
    ops = np.einsum("nkm,kij->nmij", u, basis[1:])
    resid = np.max(np.abs(_gkls_choi(ham, w, ops) - choi), axis=(-2, -1))
    tp_res = np.linalg.norm(gens.swapaxes(-1, -2).conj() @ eye.reshape(-1), axis=-1)
    no_tp = tp_res > CHECK_TOL * np.maximum(1.0, np.linalg.norm(gens.reshape(n, -1), axis=-1))
    failed = no_tp | (resid > REBUILD_RTOL * np.maximum(1.0, np.max(np.abs(gens), axis=(-2, -1))))
    return ham, a[:, 1:, 1:], w, ops, {k: NumericalError(
        f"generator does not annihilate the trace (residual {tp_res[k]:.3e}); it cannot "
        "generate a trace-preserving family" if no_tp[k] else
        f"canonical split failed to reproduce the generator (residual {resid[k]:.3e})",
        stage="canonical_gkls") for k in np.flatnonzero(failed).tolist()}


def canonical_gkls(l: Superoperator) -> GKLSDecomposition:
    """Split a Hermiticity-preserving, trace-annihilating generator into its
    unique canonical GKLS data."""
    ham, kossakowski, rates, ops, failures = _canonical_split(l.natural[None])
    if failures:
        raise failures.pop(0)  # as in generator_from_family
    return GKLSDecomposition(ham[0], kossakowski[0], rates[0], tuple(ops[0]))


def canonical_rates(family: MapFamily, naturals: np.ndarray, times,
                    rank_rtol: float = RANK_RTOL,
                    svals: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """The rates of canonical_gkls(generator_from_family(...)) at each time: (n, d^2 - 1)
    rates, NaN where that path raises, and {index: what it raises}. The maps' singular
    values (n, d^2), from one values-only SVD unless given, flag the singular times; the
    regular ones go through stacked passes over BLOCK natural matrices Lambda_t at a time."""
    naturals, ts = _grid_naturals(family, times, naturals), np.asarray(times, dtype=float)
    if svals is None:
        svals = np.linalg.svd(naturals, compute_uv=False)
    elif np.shape(svals) != naturals.shape[:2]:
        raise ValueError(f"svals has shape {np.shape(svals)}; grid maps need {naturals.shape[:2]}")
    failures = _singular(svals, ts, rank_rtol)
    rates = np.full((len(naturals), naturals.shape[-1] - 1), np.nan)
    regular = np.setdiff1d(np.arange(len(naturals)), list(failures))
    for lo in range(0, len(regular), BLOCK):
        idx = regular[lo:lo + BLOCK]
        gens, gen_failures = _generators(family, naturals[idx], ts[idx], None)
        _, _, rates[idx], _, split_failures = _canonical_split(gens)
        failures.update({int(idx[k]): exc for k, exc in {**split_failures, **gen_failures}.items()})
    rates[list(failures)] = np.nan
    return rates, failures


def damping_basis(family: MapFamily, t: float):
    """Diagonal representation Lambda_t rho = sum_a lambda_a F_a Tr(G_a^+ rho)
    with biorthonormal (F_a, G_b), for diagonalizable maps.

    Raises DefectiveMapError when the eigenvector condition number exceeds
    1 / RANK_RTOL; callers fall back to SVD-based image/kernel analysis.
    """
    nat = family.evaluate(t).natural
    w, r = np.linalg.eig(nat)
    cond = float(np.linalg.cond(r))
    if not np.isfinite(cond) or cond > 1.0 / RANK_RTOL:
        raise DefectiveMapError(
            f"natural matrix not diagonalizable at t={t}: eigenvector condition "
            f"number {cond:.3e}", stage="damping_basis", time=t)
    order = np.argsort(-np.abs(w))
    w, r = w[order], r[:, order]
    rinv = np.linalg.inv(r)
    d = family.dim
    rights, lefts = ([devectorize(v, d) for v in m] for m in (r.T, rinv.conj()))
    if np.max(np.abs((r * w) @ rinv - nat)) > REBUILD_RTOL * max(1.0, np.max(np.abs(nat))):
        raise DefectiveMapError("damping-basis reconstruction failed",
                                stage="damping_basis", time=t)
    return w, rights, lefts


def validate_dynamical_map(family: MapFamily, times, tol: float = CPTP_TOL) -> float:
    """Check the dynamical-map property (CPTP at every time, identity at 0);
    returns the worst CP/TP residual magnitude."""
    id_dev = float(np.max(np.abs(family.evaluate(0.0).natural - np.eye(family.dim ** 2))))
    if id_dev > IDENTITY_ATOL:
        raise NumericalError(f"family does not start at the identity ({id_dev:.3e})",
                             stage="validate", time=0.0)
    naturals = family.naturals(times)
    (cp_ok, lo), res = choi_test(naturals, tol=tol), tp_residual(naturals)
    bad = np.flatnonzero(~cp_ok | (res > tol))
    if len(bad):
        k, t = bad[0], float(times[bad[0]])
        raise NumericalError(
            f"family is not CPTP at t={t}: min Choi eig {lo[k]:.3e}, TP residual {res[k]:.3e}",
            stage="validate", time=t)
    return float(max(np.max(-lo, initial=0.0), np.max(res, initial=0.0)))
