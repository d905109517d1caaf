"""The decision core: rank/kernel/image profiles, divisibility via kernel
inclusion, pseudoinverse propagators, limit projectors at rank-drop times,
composite propagators, and the CP-divisibility verdict pipeline, which
evaluates and factorizes each grid map once for all of its stages."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dynamics import MapFamily
from .errors import (
    CauchyDivergenceError,
    NotDivisibleError,
    NumericalError,
    ProjectorValidationError,
)
from .operator_core import SubspaceBasis, gram_schmidt_hermitian, hermitian_basis, hermitianize
# apply is not called here; perfbench's tracer self-test checks this binding
from .superop import (Superoperator, apply, apply_extended, choi_test, is_cp,  # noqa: F401
                      is_tp, tp_residual)

MAX_BREAKPOINTS = 16
# Grid pairs per stacked call in the scan and the propagator builder; bounds temporaries.
BLOCK = 48


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times starting at 0."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("grid needs at least two times")
        if abs(t[0]) > 1e-15:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "times", t)
        t.setflags(write=False)


def make_grid(t_max: float, n_points: int = 400) -> TimeGrid:
    return TimeGrid(times=np.linspace(0.0, t_max, n_points))


def _as_times(grid) -> np.ndarray:
    """The validated times of a grid; raw arrays are copied, never frozen."""
    return (grid if isinstance(grid, TimeGrid) else TimeGrid(np.array(grid, dtype=float))).times


@dataclass
class RankProfile:
    """Numerical rank of the natural matrix along the grid, the full
    singular-value lists, and bisection-refined rank-drop times."""

    times: np.ndarray
    ranks: np.ndarray
    singular_values: np.ndarray
    rtol: float
    threshold: float
    breakpoints: tuple

    @property
    def invertible_everywhere(self) -> bool:
        return bool(np.all(self.ranks == self.singular_values.shape[1]))


def rank_profile(family: MapFamily, grid, rtol: float = 1e-9) -> RankProfile:
    """Singular-value profile of Lambda_t with rank drops refined by
    bisection to absolute time precision 1e-6.

    The rank threshold is rtol times the largest singular value at t = 0
    (which is 1 for a dynamical map, since Lambda_0 is the identity).
    """
    times = _as_times(grid)
    svals = np.array([_factorize(family.evaluate(t).natural, rtol)[0] for t in times])
    return _rank_profile(family, times, svals, rtol)


def _rank_profile(family: MapFamily, times: np.ndarray, svals: np.ndarray,
                  rtol: float) -> RankProfile:
    """Ranks and refined breakpoints from the grid's singular values."""
    threshold = rtol * float(svals[0][0])
    ranks = np.sum(svals > threshold, axis=1)

    def sval_at(t: float, idx: int) -> float:
        s = np.linalg.svd(family.evaluate(t).natural, compute_uv=False)
        return float(s[idx])

    breakpoints = []
    for k in range(len(times) - 1):
        if ranks[k + 1] < ranks[k]:
            # Bisect on the largest vanishing singular value down to its
            # machine-noise floor; the rank threshold itself sits far above
            # the floor for smoothly decaying maps and would bias the
            # breakpoint early.
            idx = int(ranks[k + 1])
            lo, hi = float(times[k]), float(times[k + 1])
            floor = max(50.0 * np.finfo(float).eps * float(svals[0][0]),
                        2.0 * sval_at(hi, idx))
            while hi - lo > 2.5e-7:
                mid = 0.5 * (lo + hi)
                if sval_at(mid, idx) <= floor:
                    hi = mid
                else:
                    lo = mid
            # Snap just past the crossing: limit projectors need the exactly
            # degenerate side, and the true singular time can sit slightly
            # above the noise-floor crossing.
            breakpoints.append(min(hi + 5e-7, float(times[k + 1])))
            if len(breakpoints) > MAX_BREAKPOINTS:
                raise NumericalError(
                    f"more than {MAX_BREAKPOINTS} rank drops detected; "
                    "accumulating breakpoints are not supported",
                    stage="rank_profile")
    return RankProfile(times=times, ranks=ranks, singular_values=svals,
                       rtol=rtol, threshold=threshold, breakpoints=tuple(breakpoints))


def _subspace_from_vectors(vecs: np.ndarray, d: int, rtol: float) -> SubspaceBasis:
    # Singular vectors are not Hermitian as operators; push the canonical
    # Hermitian basis through the subspace projector and re-orthonormalize.
    candidates = apply_extended(vecs @ vecs.conj().T, np.array(hermitian_basis(d)))
    return gram_schmidt_hermitian(hermitianize(candidates), tol=max(rtol, 1e-12))


def _factorize(nat: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular values and orthonormal vectors spanning the kernel and the
    image of a natural matrix, from one full SVD."""
    u, sv, vh = np.linalg.svd(nat)
    keep = sv > rtol * max(float(sv[0]), 1.0)
    return sv, vh[~keep].conj().T, u[:, keep]


def kernel_basis(s: Superoperator, rtol: float = 1e-9) -> SubspaceBasis | None:
    """Orthonormal Hermitian basis of Ker(s); None when the kernel is trivial."""
    vecs = _factorize(s.natural, rtol)[1]
    return _subspace_from_vectors(vecs, s.dim, rtol) if vecs.shape[1] else None


def image_basis(s: Superoperator, rtol: float = 1e-9) -> SubspaceBasis:
    """Orthonormal Hermitian basis of Im(s)."""
    return _subspace_from_vectors(_factorize(s.natural, rtol)[2], s.dim, rtol)


def _columns(u: np.ndarray, idx: np.ndarray, r: int) -> np.ndarray:
    """The first r columns of each u[idx], column-major like u[:, keep]."""
    return np.ascontiguousarray(np.swapaxes(u, -1, -2)[idx, :r]).swapaxes(-1, -2)


def _scan_grid(family: MapFamily, times, kernel_tol: float, image_rtol: float,
               rank_rtol: float):
    """Evaluate each grid map once, then test kernel and image inclusion over
    consecutive pairs in blocks of BLOCK pairs: one stacked SVD of a block's
    BLOCK + 1 maps (the last starts the next block), one stacked 2-norm per
    rank or rank pair. Returns (divisible, worst kernel residual, first
    violation time or None, image non-increasing, worst image residual, image
    vectors U, singular values, natural matrices N_t). The residuals at (s, t),
    ||N_t K_s||_2 (K_s orthonormal kernel vectors) and ||(1 - U_s U_s^+) U_t||_2,
    do not depend on a basis."""
    n, dd = len(times), family.dim ** 2
    naturals = np.empty((n, dd, dd), dtype=complex)
    for k, t in enumerate(times):
        naturals[k] = family.evaluate(t).natural
    svals, ker_res, img_res = np.empty((n, dd)), np.zeros(n - 1), np.zeros(n - 1)
    images = [None] * n
    for lo in range(0, n - 1, BLOCK):
        u, sv, vh = np.linalg.svd(naturals[lo:lo + BLOCK + 1])
        svals[lo:lo + len(sv)] = sv
        rank = np.sum(sv > rank_rtol * np.maximum(sv[:, :1], 1.0), axis=1)
        for r in np.unique(rank):
            idx = np.flatnonzero(rank == r)
            for j, img in zip(idx, _columns(u, idx, r)):
                images[lo + j] = img
            idx = idx[idx < len(sv) - 1]
            if r < dd and len(idx):
                ker = vh[idx, r:].conj().swapaxes(-1, -2)
                ker_res[lo + idx] = np.linalg.norm(naturals[lo + idx + 1] @ ker, 2, axis=(-2, -1))
        for ra, rb in set(zip(rank[:-1], rank[1:])):
            idx = np.flatnonzero((rank[:-1] == ra) & (rank[1:] == rb))
            ua, ub = _columns(u, idx, ra), _columns(u, idx + 1, rb)
            img_res[lo + idx] = np.linalg.norm(ub - ua @ (ua.conj().swapaxes(-1, -2) @ ub), 2,
                                               axis=(-2, -1))
    worst_ker, worst_img = float(np.max(ker_res)), float(np.max(img_res))
    bad = np.flatnonzero(ker_res >= kernel_tol)
    first_violation = float(times[bad[0] + 1]) if len(bad) else None
    return (first_violation is None and worst_ker < kernel_tol, worst_ker, first_violation,
            worst_img < image_rtol, worst_img, images, svals, naturals)


def is_divisible(family: MapFamily, grid, rtol: float = 1e-8,
                 rank_rtol: float = 1e-9):
    """Kernel-inclusion test over consecutive grid pairs.

    Returns (divisible, worst residual, first violation time or None);
    the residual at (s, t) is the operator norm of Lambda_t restricted to
    Ker(Lambda_s), so at least max_K ||Lambda_t(K)||_HS over any
    orthonormal basis K of the kernel and at most sqrt(dim Ker) times it.
    """
    return _scan_grid(family, _as_times(grid), rtol, 1e-8, rank_rtol)[:3]


def is_image_nonincreasing(family: MapFamily, grid, rtol: float = 1e-8,
                           rank_rtol: float = 1e-9):
    """Check Im(Lambda_t) subseteq Im(Lambda_s) for consecutive pairs via
    projector residuals ||(1 - P_s) P_t||_2."""
    return _scan_grid(family, _as_times(grid), 1e-8, rtol, rank_rtol)[3:5]


@dataclass
class PropagatorResult:
    """A propagator V with Lambda_t = V Lambda_s, built from the
    Moore-Penrose pseudoinverse of the natural matrix, plus its diagnostics;
    the columns of domain_vecs span Im(Lambda_s) (rank threshold rtol)."""

    v: Superoperator
    s: float
    t: float
    domain_vecs: np.ndarray
    rtol: float
    composition_residual: float
    tp_on_domain_residual: float
    cp_full: tuple[bool, float]
    tp_full_residual: float

    @property
    def domain(self) -> SubspaceBasis:
        """HS-orthonormal Hermitian basis of Im(Lambda_s), built on access."""
        return _subspace_from_vectors(self.domain_vecs, self.v.dim, self.rtol)


def _propagators(naturals: np.ndarray, images: list, starts, rtol: float, projectors: dict):
    """The one builder of propagator diagnostics: V_k = N_{k+1} N_k^+ Pi_b ...
    for consecutive maps of the stack naturals, through the limit projector
    of each breakpoint b <= starts[k] (latest first), with one stacked pinv
    and Choi test per block of BLOCK pairs. Returns the V_k and per pair the
    Choi test (ok, min eigenvalue), the TP residual, the TP residual
    ||vec(1)^+ (N_V - 1) U_k|| on U_k = images[k] and ||N_V N_s - N_t||_HS,
    the same bit for bit in a stack of one as in any longer stack."""
    n, dd = len(naturals) - 1, naturals.shape[-1]
    vec_one = np.eye(int(round(np.sqrt(dd))), dtype=complex).reshape(-1)
    v, cp_ok = np.empty((n, dd, dd), dtype=complex), np.empty(n, dtype=bool)
    choi_lo, tp, tp_dom, comp = np.empty((4, n))
    widths = np.array([img.shape[1] for img in images[:n]])
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        ns, nt = naturals[lo:hi], naturals[lo + 1:hi + 1]
        v[lo:hi] = nt @ np.linalg.pinv(ns, rcond=rtol)
        nat = v[lo:hi]
        for b in sorted(projectors, reverse=True):
            past = np.asarray(starts[lo:hi]) + 1e-12 >= b
            nat[past] = nat[past] @ projectors[b].natural
        cp_ok[lo:hi], choi_lo[lo:hi] = choi_test(nat, tol=1e-9)
        tp[lo:hi] = tp_residual(nat)
        comp[lo:hi] = np.linalg.norm((nat @ ns - nt).reshape(hi - lo, -1), axis=-1)
        row = (vec_one @ nat - vec_one)[:, None, :]
        for r in np.unique(widths[lo:hi]):
            idx = lo + np.flatnonzero(widths[lo:hi] == r)
            dom = np.array([images[k].T for k in idx]).swapaxes(-1, -2)
            tp_dom[idx] = np.linalg.norm((row[idx - lo] @ dom)[:, 0], axis=-1)
    return v, cp_ok, choi_lo, tp, tp_dom, comp


def _propagator(family: MapFamily, t: float, s: float, rtol: float, kernel_tol: float,
                breakpoints=(), projectors: dict | None = None) -> PropagatorResult:
    """V_{t,s} through the limit projectors at the breakpoints up to s, from
    the builder's stack of one, once Ker(Lambda_s) is in Ker(Lambda_t)."""
    if t < s:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    ok, resid, _, _, _, images, _, naturals = _scan_grid(family, (s, t), kernel_tol, 1e-8, rtol)
    if not ok:
        raise NotDivisibleError(
            f"kernel inclusion fails between s={s} and t={t} "
            f"(residual {resid:.3e})", stage="propagator", time=t)
    projectors = projectors or {}
    chain = {b: projectors[b] if b in projectors else limit_projector(family, b)
             for b in sorted((b for b in breakpoints if b <= s + 1e-12), reverse=True)}
    v, cp_ok, lo, tp, tp_dom, comp = _propagators(naturals, images, (s,), rtol, chain)
    return PropagatorResult(v=Superoperator(dim=family.dim, natural=v[0]), s=float(s),
                            t=float(t), domain_vecs=images[0], rtol=rtol,
                            composition_residual=float(comp[0]),
                            tp_on_domain_residual=float(tp_dom[0]),
                            cp_full=(bool(cp_ok[0]), float(lo[0])),
                            tp_full_residual=float(tp[0]))


def propagator(family: MapFamily, t: float, s: float, rtol: float = 1e-9,
               kernel_tol: float = 1e-8) -> PropagatorResult:
    """V = N_t N_s^+ — the pseudoinverse propagator.

    This instantiates the (non-unique) propagator construction with the
    HS-orthogonal, Hermiticity-preserving choice of projector onto
    Im(Lambda_s). Raises NotDivisibleError if Ker(Lambda_s) is not
    contained in Ker(Lambda_t).
    """
    return _propagator(family, t, s, rtol, kernel_tol)


def limit_projector(family: MapFamily, t_star: float, eps0: float | None = None,
                    shrink: float = 0.5, max_steps: int = 40,
                    tol: float = 1e-8) -> Superoperator:
    """The limit of V_{t*, t*-eps} as eps -> 0+, evaluated on a geometric
    eps schedule with an HS-norm Cauchy stopping rule.

    The result is validated as an idempotent, trace-preserving, completely
    positive projection onto Im(Lambda_{t*}) with tolerance 10*tol; any
    failure raises naming the property.
    """
    if eps0 is None:
        eps0 = 1e-2 * family.t_max
    nt = family.evaluate(t_star).natural
    prev = None
    for k in range(max_steps):
        eps = eps0 * shrink ** k
        if t_star - eps <= 0:
            continue
        pi = nt @ np.linalg.pinv(family.evaluate(t_star - eps).natural, rcond=1e-13)
        if prev is not None and float(np.linalg.norm(pi - prev)) < tol:
            break
        prev = pi
    else:
        raise CauchyDivergenceError(
            f"propagator sequence at t*={t_star} not Cauchy within {max_steps} steps "
            "(evidence against CP-divisibility)", stage="limit_projector", time=t_star)

    proj = Superoperator(dim=family.dim, natural=pi)
    vtol = 10.0 * tol
    idem = float(np.linalg.norm(pi @ pi - pi))
    if idem > vtol:
        raise ProjectorValidationError(
            f"limit projector at t*={t_star} is not idempotent (residual {idem:.3e})",
            failed_property="idempotent", time=t_star)
    _, tp_res = is_tp(proj, tol=vtol)
    if tp_res > vtol:
        raise ProjectorValidationError(
            f"limit projector at t*={t_star} is not TP (residual {tp_res:.3e})",
            failed_property="trace_preserving", time=t_star)
    cp_ok, cp_lo = is_cp(proj, tol=vtol)
    if not cp_ok:
        raise ProjectorValidationError(
            f"limit projector at t*={t_star} is not CP (min Choi eig {cp_lo:.3e})",
            failed_property="completely_positive", time=t_star)
    u_target = _factorize(nt, 1e-9)[2]
    u_actual = _factorize(pi, 1e-9)[2]
    img_res = float(np.linalg.norm(u_actual @ u_actual.conj().T
                                   - u_target @ u_target.conj().T, 2))
    if img_res > vtol:
        raise ProjectorValidationError(
            f"limit projector at t*={t_star} has the wrong image "
            f"(projector residual {img_res:.3e})", failed_property="image", time=t_star)
    return proj


def composite_propagator(family: MapFamily, t: float, s: float, breakpoints,
                         rtol: float = 1e-9,
                         projectors: dict | None = None) -> PropagatorResult:
    """Composite V_{t,s} Pi_{t_i} ... Pi_{t_1} for image
    non-increasing families, using the limit projectors at all the given
    breakpoint times up to s."""
    return _propagator(family, t, s, rtol, 1e-8, breakpoints, projectors)


class DivisibilityStatus(str, Enum):
    NOT_DIVISIBLE = "NOT_DIVISIBLE"
    DIVISIBLE_ONLY = "DIVISIBLE_ONLY"
    CP_ON_IMAGE_ONLY = "CP_ON_IMAGE_ONLY"
    P_DIVISIBLE = "P_DIVISIBLE"
    CP_DIVISIBLE = "CP_DIVISIBLE"


@dataclass
class VerdictTolerances:
    choi_tol: float = 1e-7
    tp_tol: float = 1e-7
    kernel_tol: float = 1e-8
    rank_rtol: float = 1e-9
    fd_tol: float = 1e-6
    image_rtol: float = 1e-8
    positivity_samples: int = 500  # pure states per sampled check, at least one per grid pair
    positivity_tol: float = 1e-7
    witness_samples: int = 32
    seed: int = 2026


@dataclass
class DivisibilityVerdict:
    """Outcome of the decision pipeline with supporting evidence. Over grid
    pairs (s, t), worst_kernel_residual is the largest operator norm of Lambda_t
    on Ker(Lambda_s) and image_residual the largest ||(1 - P_s) P_t||_2."""

    status: DivisibilityStatus
    ranks: RankProfile
    worst_kernel_residual: float
    first_violation_time: float | None
    image_nonincreasing: bool
    image_residual: float
    invertible_everywhere: bool
    worst_choi_min_eig: float | None = None
    worst_tp_residual: float | None = None
    projectors: tuple = ()
    p_sampling_min_eig: float | None = None
    witness_max_backflow: float | None = None
    notes: list = field(default_factory=list)


def _sampled_min_eig(maps, m: int, n_states: int, seed: int) -> float:
    """Worst output min-eigenvalue when max(n_states, pairs) random pure
    m x m states go through each (pairs, d^2, d^2) stack in maps in turn,
    ancilla-extended to m x m, state j (drawn in order, real parts then
    imaginary parts) through grid pair j mod pairs, so every pair gets one:
    evidence, never a proof."""
    n_states = max(n_states, len(maps[0]))
    z = np.random.default_rng(seed).standard_normal((n_states, 2, m))
    psi = (z[:, 0] + 1j * z[:, 1]) / np.linalg.norm(z, axis=(1, 2))[:, None]
    rho = psi[:, :, None] * psi[:, None, :].conj()
    rounds, rest = divmod(n_states, len(maps[0]))
    full, tail = rho[:n_states - rest].reshape(rounds, len(maps[0]), m, m), rho[n_states - rest:]
    for nat in maps:
        full, tail = apply_extended(nat, full), apply_extended(nat[:rest], tail)
    out = np.concatenate((full.reshape(-1, m, m), tail))
    return float(np.min(np.linalg.eigvalsh(hermitianize(out))[..., 0], initial=np.inf))


def cp_divisibility_verdict(family: MapFamily, grid,
                            tolerances: VerdictTolerances | None = None
                            ) -> DivisibilityVerdict:
    """Full decision pipeline.

    1. one blocked, stacked pass that evaluates and factorizes each grid
       map once: kernel inclusion (divisibility), image inclusion, image
       vectors, singular values and natural matrices, shared by later stages;
    2. rank profile from those singular values, breakpoints refined;
    3. all consecutive propagators and their Choi and TP tests from the one
       stacked builder; invertible families add sampled positivity plus a
       system-level witness scan as the P-divisibility fallback;
    4. noninvertible, image non-increasing families: composite propagators
       through the limit projectors;
    5. otherwise: propagators can only be certified on the image.
    """
    tl = tolerances or VerdictTolerances()
    times = _as_times(grid)
    verdict_notes: list[str] = []

    div_ok, worst_ker, first_violation, img_ok, img_res, images, svals, naturals = \
        _scan_grid(family, times, tl.kernel_tol, tl.image_rtol, tl.rank_rtol)
    ranks = _rank_profile(family, times, svals, tl.rank_rtol)

    base = dict(ranks=ranks, worst_kernel_residual=worst_ker,
                first_violation_time=first_violation,
                image_nonincreasing=img_ok, image_residual=img_res,
                invertible_everywhere=ranks.invertible_everywhere,
                notes=verdict_notes)

    if not div_ok:
        verdict_notes.append("kernel inclusion fails; no propagator exists")
        return DivisibilityVerdict(status=DivisibilityStatus.NOT_DIVISIBLE, **base)

    projectors = {}
    if img_ok and not ranks.invertible_everywhere:
        try:
            projectors = {b: limit_projector(family, b) for b in ranks.breakpoints}
        except (CauchyDivergenceError, ProjectorValidationError) as exc:
            verdict_notes.append(f"limit projector failure: {exc}")

    # The scan checked kernel inclusion for every pair, so each propagator
    # exists; past a breakpoint it composes through the limit projectors.
    v_nats, _, choi_lo, tp_res, tp_dom, _ = _propagators(
        naturals, images, times[:-1], tl.rank_rtol, projectors)
    worst_choi, worst_tp = float(np.min(choi_lo)), float(np.max(tp_res))
    base.update(worst_choi_min_eig=worst_choi, worst_tp_residual=worst_tp,
                projectors=tuple(sorted(projectors.items())))

    cptp_ok = worst_choi >= -tl.choi_tol and worst_tp <= tl.tp_tol
    if cptp_ok and (ranks.invertible_everywhere or img_ok):
        return DivisibilityVerdict(status=DivisibilityStatus.CP_DIVISIBLE, **base)

    if worst_tp <= tl.tp_tol and (ranks.invertible_everywhere or (img_ok and projectors)):
        # CP failed; probe P-divisibility by sampling (evidence, not proof).
        p_min = _sampled_min_eig([v_nats], family.dim, tl.positivity_samples, tl.seed)
        from .witnesses import _scan_naturals
        rec = _scan_naturals(naturals, times, "none", tl.witness_samples, 4, tl.seed)
        base.update(p_sampling_min_eig=p_min, witness_max_backflow=rec.max_backflow)
        fd_budget = tl.fd_tol + 10.0 * float(np.max(np.diff(times))) ** 2
        if p_min >= -tl.positivity_tol and rec.max_backflow <= fd_budget:
            verdict_notes.append(
                "P-divisibility supported by sampling and witness scan; not a certificate")
            return DivisibilityVerdict(status=DivisibilityStatus.P_DIVISIBLE, **base)
        return DivisibilityVerdict(status=DivisibilityStatus.DIVISIBLE_ONLY, **base)

    # Image rotates (or projectors failed): the best that can be certified
    # without an extension search is CP on the image, sampled over PSD
    # elements of Im(1 (x) Lambda_s) as a necessary condition.
    cp_img_min = _sampled_min_eig([naturals[:-1], v_nats], family.dim ** 2,
                                  tl.positivity_samples, tl.seed)
    base.update(p_sampling_min_eig=cp_img_min)
    if cp_img_min >= -tl.positivity_tol and float(np.max(tp_dom)) <= tl.tp_tol:
        verdict_notes.append(
            "propagators are CPTP on the image by sampling; full-space "
            "trace preservation is not guaranteed by construction")
        return DivisibilityVerdict(status=DivisibilityStatus.CP_ON_IMAGE_ONLY, **base)
    return DivisibilityVerdict(status=DivisibilityStatus.DIVISIBLE_ONLY, **base)
