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
from .superop import (Superoperator, apply, apply_extended, is_cp, is_tp,  # noqa: F401
                      random_pure_state)

MAX_BREAKPOINTS = 16


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


def _scan_grid(family: MapFamily, times: np.ndarray, kernel_tol: float,
               image_rtol: float, rank_rtol: float):
    """Evaluate and factorize each grid map once, testing kernel and image
    inclusion over consecutive pairs.

    Returns (divisible, worst kernel residual, first violation time or
    None, image non-increasing, worst image residual, image vectors U,
    singular values, natural matrices N_t). With K_s orthonormal kernel
    vectors, the residuals at (s, t) are ||N_t K_s||_2, the operator norm of
    Lambda_t on Ker(Lambda_s), and ||(1 - U_s U_s^+) U_t||_2: neither
    depends on a basis.
    """
    worst_ker = worst_img = 0.0
    first_violation = None
    images, svals = [], []
    naturals = np.empty((len(times), family.dim ** 2, family.dim ** 2), dtype=complex)
    for k, t in enumerate(times):
        nat = naturals[k] = family.evaluate(t).natural
        if images and ker.shape[1]:
            resid = float(np.linalg.norm(nat @ ker, 2))
            worst_ker = max(worst_ker, resid)
            if resid >= kernel_tol and first_violation is None:
                first_violation = float(t)
        sv, ker, img = _factorize(nat, rank_rtol)
        if images:
            u = images[-1]
            worst_img = max(worst_img, float(np.linalg.norm(img - u @ (u.conj().T @ img), 2)))
        images.append(img)
        svals.append(sv)
    return (first_violation is None and worst_ker < kernel_tol, worst_ker,
            first_violation, worst_img < image_rtol, worst_img, images,
            np.array(svals), naturals)


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


def _propagator(dim: int, ns: np.ndarray, nt: np.ndarray, s: float, t: float,
                domain: np.ndarray, rtol: float, projectors=()) -> PropagatorResult:
    """V = N_t N_s^+ Pi_{t_i} ... Pi_{t_1} and its diagnostics, with the
    limit projectors given latest breakpoint first; the columns of domain
    span Im(Lambda_s), on which the TP residual is ||vec(1)^+ (N_V - 1) domain||."""
    nat = nt @ np.linalg.pinv(ns, rcond=rtol)
    for pi in projectors:
        nat = nat @ pi.natural
    v = Superoperator(dim=dim, natural=nat)
    vec_one = np.eye(dim).reshape(-1)
    cp_ok, cp_lo = is_cp(v, tol=1e-9)
    _, tp_res = is_tp(v, tol=1e-9)
    return PropagatorResult(v=v, s=float(s), t=float(t), domain_vecs=domain, rtol=rtol,
                            composition_residual=float(np.linalg.norm(nat @ ns - nt)),
                            tp_on_domain_residual=float(np.linalg.norm(
                                (vec_one @ nat - vec_one) @ domain)),
                            cp_full=(cp_ok, cp_lo), tp_full_residual=tp_res)


def _divisible_pair(family: MapFamily, t: float, s: float, rtol: float,
                    kernel_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N_s, N_t and the image vectors of Lambda_s, once Ker(Lambda_s) is
    checked to lie in Ker(Lambda_t)."""
    if t < s:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    ok, resid, _, _, _, images, _, (ns, nt) = _scan_grid(family, (s, t), kernel_tol, 1e-8, rtol)
    if not ok:
        raise NotDivisibleError(
            f"kernel inclusion fails between s={s} and t={t} "
            f"(residual {resid:.3e})", stage="propagator", time=t)
    return ns, nt, images[0]


def propagator(family: MapFamily, t: float, s: float, rtol: float = 1e-9,
               kernel_tol: float = 1e-8) -> PropagatorResult:
    """V = N_t N_s^+ — the pseudoinverse propagator.

    This instantiates the (non-unique) propagator construction with the
    HS-orthogonal, Hermiticity-preserving choice of projector onto
    Im(Lambda_s). Raises NotDivisibleError if Ker(Lambda_s) is not
    contained in Ker(Lambda_t).
    """
    ns, nt, dom = _divisible_pair(family, t, s, rtol, kernel_tol)
    return _propagator(family.dim, ns, nt, s, t, dom, rtol)


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
    ns, nt, dom = _divisible_pair(family, t, s, rtol, 1e-8)
    projectors = projectors or {}
    chain = [projectors[b] if b in projectors else limit_projector(family, b)
             for b in sorted((b for b in breakpoints if b <= s + 1e-12), reverse=True)]
    return _propagator(family.dim, ns, nt, s, t, dom, rtol, chain)


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
    positivity_samples: int = 500
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


def _sampled_min_eig(maps, m: int, per: int, seed: int) -> float:
    """Worst output min-eigenvalue when per random pure m x m states for each
    grid pair, drawn in order, go through each (pairs, d^2, d^2) stack in
    maps in turn, ancilla-extended to m x m: evidence, never a proof."""
    rng = np.random.default_rng(seed)
    psi = np.array([[random_pure_state(rng, m) for _ in range(per)] for _ in maps[0]])
    rho = psi[..., :, None] * psi[..., None, :].conj()
    for nat in maps:
        rho = apply_extended(nat[:, None], rho)
    return float(np.min(np.linalg.eigvalsh(hermitianize(rho))[..., 0], initial=np.inf))


def cp_divisibility_verdict(family: MapFamily, grid,
                            tolerances: VerdictTolerances | None = None
                            ) -> DivisibilityVerdict:
    """Full decision pipeline.

    1. one pass that evaluates and factorizes each grid map once:
       kernel inclusion (divisibility), image inclusion, image vectors,
       singular values and natural matrices, all shared by later stages;
    2. rank profile from those singular values, breakpoints refined;
    3. invertible families: Choi test of all consecutive propagators,
       with sampled positivity plus a system-level witness scan as the
       P-divisibility fallback;
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
    later_first = sorted(projectors, reverse=True)
    props = []
    for k in range(len(times) - 1):
        s, t = float(times[k]), float(times[k + 1])
        chain = [projectors[b] for b in later_first if b <= s + 1e-12]
        props.append(_propagator(family.dim, naturals[k], naturals[k + 1], s, t,
                                 images[k], tl.rank_rtol, chain))

    worst_choi = min(pr.cp_full[1] for pr in props)
    worst_tp = max(pr.tp_full_residual for pr in props)
    base.update(worst_choi_min_eig=worst_choi, worst_tp_residual=worst_tp,
                projectors=tuple(sorted(projectors.items())))

    cptp_ok = worst_choi >= -tl.choi_tol and worst_tp <= tl.tp_tol
    if cptp_ok and (ranks.invertible_everywhere or img_ok):
        return DivisibilityVerdict(status=DivisibilityStatus.CP_DIVISIBLE, **base)

    v_nats = np.array([pr.v.natural for pr in props])
    if worst_tp <= tl.tp_tol and (ranks.invertible_everywhere or (img_ok and projectors)):
        # CP failed; probe P-divisibility by sampling (evidence, not proof).
        p_min = _sampled_min_eig([v_nats], family.dim,
                                 -(-tl.positivity_samples // len(props)), tl.seed)
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
                                  max(1, tl.positivity_samples // len(props)), tl.seed)
    base.update(p_sampling_min_eig=cp_img_min)
    if (cp_img_min >= -tl.positivity_tol
            and max(pr.tp_on_domain_residual for pr in props) <= tl.tp_tol):
        verdict_notes.append(
            "propagators are CPTP on the image by sampling; full-space "
            "trace preservation is not guaranteed by construction")
        return DivisibilityVerdict(status=DivisibilityStatus.CP_ON_IMAGE_ONLY, **base)
    return DivisibilityVerdict(status=DivisibilityStatus.DIVISIBLE_ONLY, **base)
