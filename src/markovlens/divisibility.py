"""The decision core: rank/kernel/image profiles, divisibility via kernel
inclusion, pseudoinverse propagators, limit projectors at rank-drop times,
composite propagators, and the CP-divisibility verdict pipeline, which
evaluates and factorizes each grid map once for all of its stages."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dynamics import MapFamily, TimeGrid, _as_times, _grid_naturals
from .errors import (CauchyDivergenceError, NotDivisibleError, NumericalError,
                     ProjectorValidationError)
from .operator_core import (CHECK_TOL, RANK_RTOL, SubspaceBasis, _keep,  # noqa: F401
                            gram_schmidt_hermitian, hermitian_basis, hermitianize, require_int)
# the step pass lives in steps, below witnesses, which builds on it too; re-exported here
from .steps import (BLOCK_ENTRIES, CHAIN_SLACK, INCLUSION_TOL, StepFigures,  # noqa: F401
                    _cptp, _propagators, _scan_grid, _span)
# apply is not called here; perfbench's tracer self-test checks this binding
from .superop import (Superoperator, apply, apply_extended, choi_test, is_cp,  # noqa: F401
                      is_tp, tp_residual)
from .witnesses import _scan_naturals, backflow_threshold

MAX_BREAKPOINTS = 16
BISECT_WIDTH, SNAP = 2.5e-7, 5e-7  # rank-drop bracket width; breakpoints sit SNAP past it
# limit projector: eps_k = LIMIT_EPS0 t_max LIMIT_SHRINK^k, k < LIMIT_STEPS; pinv cut LIMIT_RCOND
LIMIT_EPS0, LIMIT_SHRINK, LIMIT_STEPS, LIMIT_RCOND, CAUCHY_TOL = 1e-2, 0.5, 40, 1e-13, 1e-8
SAMPLED_TOL = 1e-7  # slack of the sampled positivity checks
BASIS_TOL_FLOOR = 1e-12  # least Gram-Schmidt cut of a subspace basis from singular vectors


def make_grid(t_max: float, n_points: int = 400) -> TimeGrid:
    return TimeGrid(times=np.linspace(0.0, t_max, n_points))


@dataclass
class RankProfile:
    """Numerical rank of the natural matrix along the grid, the full singular-value
    lists, the rank cut at each time and the rank-drop times (breakpoints), exact
    at the family's candidate times and bisection-refined without them."""

    times: np.ndarray
    ranks: np.ndarray
    singular_values: np.ndarray
    rtol: float
    threshold: np.ndarray
    breakpoints: tuple

    @property
    def invertible_everywhere(self) -> bool:
        return bool(np.all(self.ranks == self.singular_values.shape[1])) and not self.breakpoints


def rank_profile(family: MapFamily, grid, rtol: float = RANK_RTOL,
                 naturals: np.ndarray | None = None) -> RankProfile:
    """Singular-value profile of Lambda_t along the grid, from the grid's natural
    matrices if given, with the rank drops found on the grid plus the family's
    candidate times (_decision_grid): a drop at a candidate breaks there exactly;
    one between grid times of a family without candidates is refined by bisection
    to absolute time precision 1e-6.

    The rank threshold at each time is the decision core's one rank rule: rtol
    times max(s_0, 1), s_0 the largest singular value of Lambda_t.
    """
    _require_below_one("rtol", rtol)
    times, naturals, rows = _decision_grid(family, _as_times(grid), naturals)
    # the full SVD gives the scan's singular values bit for bit; compute_uv=False does not
    return _rank_profile(family, times, np.linalg.svd(naturals)[1], rtol, rows)


def _require_below_one(name: str, rtol: float) -> None:
    """The rank rule s > rtol max(s_0, 1) keeps no singular value of the identity at rtol >= 1."""
    if not rtol < 1:
        raise ValueError(f"{name} must be below 1, got {rtol}")


def _decision_grid(family: MapFamily, times: np.ndarray, naturals: np.ndarray | None = None):
    """The grid times plus the family's candidates strictly between its ends, sorted, their
    natural matrices (the grid's from one stacked evaluation or naturals, each added
    candidate's from one evaluation of its own) and the mask of the grid's rows."""
    naturals = _grid_naturals(family, times, naturals)
    extra = np.setdiff1d([c for c in family.candidates if times[0] < c < times[-1]], times)
    rows = np.ones(len(times) + len(extra), dtype=bool)
    if not len(extra):
        return times, naturals, rows
    at = np.searchsorted(times, extra)
    rows[at + np.arange(len(extra))] = False
    return (np.insert(times, at, extra),
            np.insert(naturals, at, [family.evaluate(c).natural for c in extra], axis=0), rows)


def _rank_profile(family: MapFamily, times: np.ndarray, svals: np.ndarray, rtol: float,
                  rows: np.ndarray) -> RankProfile:
    """The profile at the grid rows of the decision grid times, from its singular values.
    A rank drop breaks at the time where the rank has dropped, the exact instant when it
    is a candidate; families without candidates bisect between the two grid times."""
    ranks = np.sum(_keep(svals, rtol), axis=1)
    drops = np.flatnonzero(ranks[1:] < ranks[:-1])
    if len(drops) > MAX_BREAKPOINTS:
        raise NumericalError(f"more than {MAX_BREAKPOINTS} rank drops detected; "
                             "accumulating breakpoints are not supported", stage="rank_profile")
    breakpoints = tuple(float(times[k + 1]) if family.candidates else
                        _bisect(family, times[k], times[k + 1], int(ranks[k + 1]),
                                max(50.0 * np.finfo(float).eps * float(svals[0][0]),
                                    2.0 * float(svals[k + 1, ranks[k + 1]])))
                        for k in drops)
    svals = svals[rows]
    return RankProfile(times=times[rows], ranks=ranks[rows], singular_values=svals, rtol=rtol,
                       threshold=rtol * np.maximum(svals[:, 0], 1.0), breakpoints=breakpoints)


def _bisect(family: MapFamily, lo: float, hi: float, idx: int, floor: float) -> float:
    """Where singular value idx of Lambda_t falls to floor on (lo, hi], to BISECT_WIDTH.

    Bisection runs on the largest vanishing singular value down to its machine-noise
    floor; the rank threshold itself sits far above the floor for smoothly decaying
    maps and would bias the breakpoint early. The result sits SNAP past the crossing
    (at most hi): limit projectors need the exactly degenerate side, and the true
    singular time can sit slightly above the noise-floor crossing."""
    lo, hi = float(lo), float(hi)
    top = hi
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if np.linalg.svd(family.evaluate(mid).natural, compute_uv=False)[idx] <= floor:
            hi = mid
        else:
            lo = mid
    return min(hi + SNAP, top)


def _subspace_from_vectors(vecs: np.ndarray, d: int, rtol: float) -> SubspaceBasis:
    # Singular vectors are not Hermitian as operators; push the canonical
    # Hermitian basis through the subspace projector and re-orthonormalize.
    candidates = apply_extended(vecs @ vecs.conj().T, np.array(hermitian_basis(d)))
    return gram_schmidt_hermitian(hermitianize(candidates), tol=max(rtol, BASIS_TOL_FLOOR))


def _factorize(nat: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular values and orthonormal vectors spanning the kernel and the
    image of a natural matrix, from one full SVD."""
    u, sv, vh = np.linalg.svd(nat)
    keep = _keep(sv, rtol)
    return sv, vh[~keep].conj().T, u[:, keep]


def kernel_basis(s: Superoperator) -> SubspaceBasis | None:
    """Orthonormal Hermitian basis of Ker(s); None when the kernel is trivial."""
    vecs = _factorize(s.natural, RANK_RTOL)[1]
    return _subspace_from_vectors(vecs, s.dim, RANK_RTOL) if vecs.shape[1] else None


def image_basis(s: Superoperator, rtol: float = RANK_RTOL) -> SubspaceBasis:
    """Orthonormal Hermitian basis of Im(s)."""
    _require_below_one("rtol", rtol)
    return _subspace_from_vectors(_factorize(s.natural, rtol)[2], s.dim, rtol)


def is_divisible(family: MapFamily, grid):
    """Kernel-inclusion test over consecutive grid pairs.

    Returns (divisible, worst residual, first violation time or None);
    the residual at (s, t) is the operator norm of Lambda_t restricted to
    Ker(Lambda_s), so at least max_K ||Lambda_t(K)||_HS over any
    orthonormal basis K of the kernel and at most sqrt(dim Ker) times it.
    The pairs are those of the grid plus the family's candidate times.
    """
    times, naturals, _ = _decision_grid(family, _as_times(grid))
    return _scan_grid(family, times, RANK_RTOL, naturals)[:3]


def is_image_nonincreasing(family: MapFamily, grid):
    """Check Im(Lambda_t) subseteq Im(Lambda_s) for consecutive pairs via projector residuals
    ||(1 - P_s) P_t||_2 (0 where Lambda_s has full rank), on the grid plus its candidates."""
    times, naturals, _ = _decision_grid(family, _as_times(grid))
    return _scan_grid(family, times, RANK_RTOL, naturals)[3:5]


@dataclass
class PropagatorResult:
    """A propagator V with Lambda_t = V Lambda_s, built from the Moore-Penrose pseudoinverse of
    the natural matrix, plus its diagnostics (composition_residual ||N_V N_s - N_t||_HS comes
    from composite_propagator); domain_vecs span Im(Lambda_s) (rank threshold RANK_RTOL)."""

    v: Superoperator
    s: float
    t: float
    domain_vecs: np.ndarray
    composition_residual: float
    tp_on_domain_residual: float
    cp_full: tuple[bool, float]
    tp_full_residual: float

    @property
    def domain(self) -> SubspaceBasis:
        """HS-orthonormal Hermitian basis of Im(Lambda_s), built on access."""
        return _subspace_from_vectors(self.domain_vecs, self.v.dim, RANK_RTOL)


def propagator(family: MapFamily, t: float, s: float) -> PropagatorResult:
    """V = N_t N_s^+ — the pseudoinverse propagator.

    This instantiates the (non-unique) propagator construction with the
    HS-orthogonal, Hermiticity-preserving choice of projector onto
    Im(Lambda_s). Raises NotDivisibleError if Ker(Lambda_s) is not
    contained in Ker(Lambda_t).
    """
    return composite_propagator(family, t, s, ())


def limit_projector(family: MapFamily, t_star: float) -> Superoperator:
    """The limit of V_{t*, t*-eps} as eps -> 0+, evaluated on a geometric
    eps schedule with an HS-norm Cauchy stopping rule.

    The result is validated as an idempotent, trace-preserving, completely
    positive projection onto Im(Lambda_{t*}) with tolerance 10*CAUCHY_TOL;
    any failure raises naming the property.
    """
    nt = family.evaluate(t_star).natural
    smallest = LIMIT_EPS0 * family.t_max * LIMIT_SHRINK ** (LIMIT_STEPS - 1)
    if t_star <= smallest:  # no step would be evaluated
        raise ValueError(f"t*={t_star} is no larger than the smallest step {smallest:.3e}")
    prev = None
    for k in range(LIMIT_STEPS):
        eps = LIMIT_EPS0 * family.t_max * LIMIT_SHRINK ** k
        if t_star - eps <= 0:
            continue
        pi = nt @ np.linalg.pinv(family.evaluate(t_star - eps).natural, rcond=LIMIT_RCOND)
        if prev is not None and float(np.linalg.norm(pi - prev)) < CAUCHY_TOL:
            break
        prev = pi
    else:
        raise CauchyDivergenceError(
            f"propagator sequence at t*={t_star} not Cauchy within {LIMIT_STEPS} steps "
            "(evidence against CP-divisibility)", stage="limit_projector", time=t_star)

    proj = Superoperator(dim=family.dim, natural=pi)
    vtol = 10.0 * CAUCHY_TOL
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
    u_target = _factorize(nt, RANK_RTOL)[2]
    u_actual = _factorize(pi, RANK_RTOL)[2]
    img_res = float(np.linalg.norm(u_actual @ u_actual.conj().T
                                   - u_target @ u_target.conj().T, 2))
    if img_res > vtol:
        raise ProjectorValidationError(
            f"limit projector at t*={t_star} has the wrong image "
            f"(projector residual {img_res:.3e})", failed_property="image", time=t_star)
    return proj


def composite_propagator(family: MapFamily, t: float, s: float, breakpoints,
                         projectors: dict | None = None) -> PropagatorResult:
    """Composite V_{t,s} Pi_{t_i} ... Pi_{t_1} for image non-increasing families,
    through the limit projectors (from projectors where given) at the breakpoints
    up to s, from the builder's stack of one, once Ker(Lambda_s) is in Ker(Lambda_t)."""
    if t < s:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    ok, resid, _, _, _, images, svals, naturals, v = _scan_grid(family, (s, t), RANK_RTOL)
    if not ok:
        raise NotDivisibleError(
            f"kernel inclusion fails between s={s} and t={t} "
            f"(residual {resid:.3e})", stage="propagator", time=t)
    projectors = projectors or {}
    chain = {b: projectors[b] if b in projectors else limit_projector(family, b)
             for b in sorted((b for b in breakpoints if b <= s + CHAIN_SLACK), reverse=True)}
    cp_ok, lo, tp, tp_dom = _propagators(images, v, (s,), chain)
    comp = np.linalg.norm((v @ naturals[:1] - naturals[1:]).reshape(1, -1), axis=-1)
    return PropagatorResult(v=Superoperator(dim=family.dim, natural=v[0]), s=float(s), t=float(t),
                            domain_vecs=images[0][:, :np.sum(_keep(svals[0], RANK_RTOL))],
                            composition_residual=float(comp[0]),
                            tp_on_domain_residual=float(tp_dom[0]),
                            cp_full=(bool(cp_ok[0]), float(lo[0])), tp_full_residual=float(tp[0]))


class DivisibilityStatus(str, Enum):
    NOT_DIVISIBLE = "NOT_DIVISIBLE"
    DIVISIBLE_ONLY = "DIVISIBLE_ONLY"
    CP_ON_IMAGE_ONLY = "CP_ON_IMAGE_ONLY"
    P_DIVISIBLE = "P_DIVISIBLE"
    CP_DIVISIBLE = "CP_DIVISIBLE"


@dataclass(frozen=True)
class VerdictTolerances:
    choi_tol: float = 1e-7
    tp_tol: float = 1e-7
    rank_rtol: float = RANK_RTOL
    fd_tol: float = 1e-6
    positivity_samples: int = 500  # pure states per sampled check, at least one per grid pair
    seed: int = 2026

    def __post_init__(self):
        for key in ("choi_tol", "tp_tol", "rank_rtol", "fd_tol"):
            if not 0 < getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be finite and positive, got {getattr(self, key)}")
        _require_below_one("rank_rtol", self.rank_rtol)
        require_int("positivity_samples", self.positivity_samples, 1)
        require_int("seed", self.seed)  # an int key: 4.0 would hash as 4 in the draw caches


@dataclass
class DivisibilityVerdict:
    """Outcome of the decision pipeline with supporting evidence. Over grid pairs (s, t),
    worst_kernel_residual is the largest operator norm of Lambda_t on Ker(Lambda_s) and
    image_residual the largest ||(1 - P_s) P_t||_2, both 0.0 where no Lambda_s has lost rank."""

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


@functools.lru_cache(maxsize=16)
def _pure_states(seed: int, n_states: int, m: int) -> np.ndarray:
    """Read-only stack of n_states random pure m x m states from generator seed, once per key."""
    z = np.random.default_rng(seed).standard_normal((n_states, 2, m))
    psi = (z[:, 0] + 1j * z[:, 1]) / np.linalg.norm(z, axis=(1, 2))[:, None]
    rho = psi[:, :, None] * psi[:, None, :].conj()
    rho.setflags(write=False)
    return rho


def _sampled_min_eig(maps, m: int, n_states: int, seed: int) -> float:
    """Worst output min-eigenvalue when max(n_states, pairs) random pure
    m x m states go through each (pairs, d^2, d^2) stack in maps in turn,
    ancilla-extended to m x m, state j through grid pair j mod pairs, so
    every pair gets one: evidence, never a proof."""
    n_states = max(n_states, len(maps[0]))
    rho = _pure_states(seed, n_states, m)
    rounds, rest = divmod(n_states, len(maps[0]))
    full, tail = rho[:n_states - rest].reshape(rounds, len(maps[0]), m, m), rho[n_states - rest:]
    for nat in maps:
        full, tail = apply_extended(nat, full), apply_extended(nat[:rest], tail)
    out = np.concatenate((full.reshape(-1, m, m), tail))
    return float(np.min(np.linalg.eigvalsh(hermitianize(out))[..., 0], initial=np.inf))


def cp_divisibility_verdict(family: MapFamily, grid,
                            tolerances: VerdictTolerances | None = None,
                            naturals: np.ndarray | None = None, return_figures: bool = False):
    """Full decision pipeline on the grid plus the family's candidate times
    (_decision_grid); naturals, when given, are the natural matrices of the grid
    maps (family.naturals(grid.times)) and spare their evaluation.

    1. one blocked, stacked pass that evaluates and factorizes each grid
       map once: kernel inclusion (divisibility), image inclusion, image
       vectors, singular values and natural matrices, shared by later stages;
    2. rank profile from those singular values: breakpoints at the candidate
       times where the rank drops, bisected only for families without any;
    3. all consecutive propagators and their Choi and TP tests from the one
       stacked builder; invertible families add sampled positivity plus a
       system-level witness scan as the P-divisibility fallback;
    4. noninvertible, image non-increasing families: composite propagators
       through the limit projectors;
    5. otherwise: propagators can only be certified on the image.
    With return_figures, returns (verdict, the steps.StepFigures of stage 3 for a witness scan
    on the grid, or None when the verdict ends before it or rank_rtol is not RANK_RTOL).
    """
    tl = tolerances or VerdictTolerances()
    times, naturals, rows = _decision_grid(family, _as_times(grid), naturals)
    verdict_notes: list[str] = []

    div_ok, worst_ker, first_violation, img_ok, img_res, images, svals, naturals, v_nats = \
        _scan_grid(family, times, tl.rank_rtol, naturals)
    ranks = _rank_profile(family, times, svals, tl.rank_rtol, rows)

    base = dict(ranks=ranks, worst_kernel_residual=worst_ker, first_violation_time=first_violation,
                image_nonincreasing=img_ok, image_residual=img_res,
                invertible_everywhere=ranks.invertible_everywhere, notes=verdict_notes)

    def result(status: DivisibilityStatus, figures: StepFigures | None = None):
        verdict = DivisibilityVerdict(status=status, **base)
        return (verdict, figures) if return_figures else verdict
    if not div_ok:
        verdict_notes.append("kernel inclusion fails; no propagator exists")
        return result(DivisibilityStatus.NOT_DIVISIBLE)

    projectors = {}
    if img_ok and not ranks.invertible_everywhere:
        try:
            projectors = {b: limit_projector(family, b) for b in ranks.breakpoints}
        except (CauchyDivergenceError, ProjectorValidationError) as exc:
            verdict_notes.append(f"limit projector failure: {exc}")

    # The scan checked kernel inclusion for every pair, so each propagator
    # exists; past a breakpoint it composes through the limit projectors. A
    # breakpoint enters only so, as one between grid times does: the pairs
    # next to it give way to the pair across it. The other candidates (a
    # signal's extrema) stay times of their own.
    kept = np.flatnonzero(rows | ~np.isin(times, ranks.breakpoints))
    pairs = kept[:-1]  # each pair's V sits at its first time's index
    _span(kept, tl.rank_rtol, naturals, v_nats)
    _, choi_lo, tp_res, tp_dom = _propagators(images, v_nats, times[:-1], projectors)
    figures = None if tl.rank_rtol != RANK_RTOL else StepFigures(
        times, rows, v_nats, choi_lo, tp_res, min(ranks.breakpoints, default=np.inf))
    worst_choi, worst_tp = float(np.min(choi_lo[pairs])), float(np.max(tp_res[pairs]))
    base.update(worst_choi_min_eig=worst_choi, worst_tp_residual=worst_tp,
                projectors=tuple(sorted(projectors.items())))

    cptp_ok = worst_choi >= -tl.choi_tol and worst_tp <= tl.tp_tol
    if cptp_ok and (ranks.invertible_everywhere or img_ok):
        return result(DivisibilityStatus.CP_DIVISIBLE, figures)
    if len(kept) < len(times):  # the later stages see the kept times alone
        times, naturals, v_nats, tp_dom = times[kept], naturals[kept], v_nats[pairs], tp_dom[pairs]

    if worst_tp <= tl.tp_tol and (ranks.invertible_everywhere or (img_ok and projectors)):
        # CP failed; probe P-divisibility by sampling (evidence, not proof).
        p_min = _sampled_min_eig([v_nats], family.dim, tl.positivity_samples, tl.seed)
        # 32 draws, 4 refinements; steps whose propagator is CPTP within rounding are skipped
        rec = _scan_naturals(naturals, times, "none", 32, 4, tl.seed,
                             _cptp(choi_lo[pairs], tp_res[pairs]))
        base.update(p_sampling_min_eig=p_min, witness_max_backflow=rec.max_backflow)
        if p_min >= -SAMPLED_TOL and rec.max_backflow <= backflow_threshold(tl.fd_tol, times):
            verdict_notes.append(
                "P-divisibility supported by sampling and witness scan; not a certificate")
            return result(DivisibilityStatus.P_DIVISIBLE, figures)
        return result(DivisibilityStatus.DIVISIBLE_ONLY, figures)

    # Image rotates (or projectors failed): the best that can be certified
    # without an extension search is CP on the image, sampled over PSD
    # elements of Im(1 (x) Lambda_s) as a necessary condition.
    cp_img_min = _sampled_min_eig([naturals[:-1], v_nats], family.dim ** 2,
                                  tl.positivity_samples, tl.seed)
    base.update(p_sampling_min_eig=cp_img_min)
    if cp_img_min >= -SAMPLED_TOL and float(np.max(tp_dom)) <= tl.tp_tol:
        verdict_notes.append(
            "propagators are CPTP on the image by sampling; full-space "
            "trace preservation is not guaranteed by construction")
        return result(DivisibilityStatus.CP_ON_IMAGE_ONLY, figures)
    return result(DivisibilityStatus.DIVISIBLE_ONLY, figures)
