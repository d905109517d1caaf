"""Consecutive grid steps (t_k, t_{k+1}): one blocked pass that factorizes each grid map once
and tests kernel and image inclusion, the pseudoinverse propagators V_k = N_{k+1} N_k^+, and the
one builder of their Choi and TP figures, shared by the verdict and the witness scan."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import MapFamily, _grid_naturals, _runs
from .operator_core import CERTIFY_TOL, CHECK_TOL, RANK_RTOL, _keep
from .superop import choi_test, tp_residual

INCLUSION_TOL = 1e-8  # kernel and image inclusion cut, recorded as kernel_tol
CHAIN_SLACK = 1e-12  # a pair starting at s composes through each breakpoint b <= s + CHAIN_SLACK
# entries per (pairs, d^2, d^2) block of scan and builder: 768 qubit, 151 qutrit, 48 ququart pairs
BLOCK_ENTRIES = 48 * 16 * 16


def _pinv(v: np.ndarray, u: np.ndarray, sv: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """N^+ = V S^+ U^H of a stack from its SVD (U zeroed past the rank), in
    np.linalg.pinv's order of operations."""
    return v @ ((1.0 / np.where(keep, sv, np.inf))[:, :, None] * u.conj().swapaxes(-1, -2))


def _scan_grid(family: MapFamily, times, rank_rtol: float, naturals: np.ndarray | None = None):
    """Evaluate each grid map once (unless naturals holds them), then test kernel
    and image inclusion over consecutive pairs, per block of BLOCK_ENTRIES // d^4 + 1
    maps (overlapping by one), from one stacked SVD of the block's distinct maps and one
    computation per distinct pair (pair k repeats pair k - 1 when maps k - 1, k and
    k + 1 are equal). Returns (divisible, worst kernel residual, first violation
    time or None, image non-increasing, worst image residual, image vectors U_t as
    one (n, d^2, d^2) array, zero past each rank, singular values, natural matrices
    N_t, propagators V_k = N_{k+1} N_k^+ from the same SVD and rank rule). The
    residuals at (s, t), ||N_t K_s||_2 (K_s orthonormal kernel vectors) and ||(1 - U_s U_s^+)
    U_t||_2, need no basis; both are exact 2-norms where Lambda_s has lost rank, 0 elsewhere."""
    n, dd = len(times), family.dim ** 2
    naturals, step = _grid_naturals(family, times, naturals), BLOCK_ENTRIES // dd ** 2
    svals, images = np.empty((n, dd)), np.empty((n, dd, dd), dtype=complex)
    v, ker_res = np.empty((n - 1, dd, dd), dtype=complex), np.zeros(n - 1)
    worst_ker = worst_img = 0.0
    for lo in range(0, n - 1, step):
        blk = naturals[lo:lo + step + 1]
        hi, (new, run) = lo + len(blk) - 1, _runs(blk)
        pair = new[:-1] | new[1:]
        s, t, nt = ((slice(None, -1), slice(1, None), blk[1:]) if new.all() else  # no gather
                    (run[:-1][pair], run[1:][pair], blk[1:][pair]))
        img, sv, vs = np.linalg.svd(blk if new.all() else blk[new])  # U, V^H: no copies below
        keep, pairs = _keep(sv, rank_rtol), np.cumsum(pair) - 1
        img *= keep[:, None, :]
        np.take(sv, run, axis=0, out=svals[lo:hi + 1], mode="clip")
        np.take(img, run, axis=0, out=images[lo:hi + 1], mode="clip")
        vs, us, ut = np.conjugate(vs, out=vs)[s].swapaxes(-1, -2), img[s], img[t]
        if (lost := ~keep[s].all(axis=1)).any():  # both residuals need a rank loss
            u, w, k = us[lost], ut[lost], vs[lost] * ~keep[s][lost][:, None, :]
            res = np.zeros(len(lost))
            res[lost] = np.linalg.norm(nt[lost] @ k, 2, axis=(-2, -1))
            worst_ker, ker_res[lo:hi] = max(worst_ker, float(np.max(res))), res[pairs]
            res = np.linalg.norm(w - u @ (u.conj().swapaxes(-1, -2) @ w), 2, axis=(-2, -1))
            worst_img = max(worst_img, float(np.max(res)))
        np.take(nt @ _pinv(vs, us, sv[s], keep[s]), pairs, axis=0, out=v[lo:hi], mode="clip")
    bad = np.flatnonzero(ker_res >= INCLUSION_TOL)
    first_violation = float(times[bad[0] + 1]) if len(bad) else None
    return (first_violation is None and worst_ker < INCLUSION_TOL, worst_ker, first_violation,
            worst_img < INCLUSION_TOL, worst_img, images, svals, naturals, v)


def _propagators(images: np.ndarray, v: np.ndarray, starts, projectors: dict):
    """The one builder of propagator diagnostics: composes into the scan's V_k = N_{k+1} N_k^+
    of consecutive grid maps, in place, the limit projector of each breakpoint b <= starts[k]
    (latest first), with one Choi test per block of BLOCK_ENTRIES // d^4 pairs, of each run of
    equal composed V once. Returns per pair the Choi test (ok, min eigenvalue), the TP residual
    and the TP residual ||vec(1)^+ (N_V - 1) U_k|| on U_k = images[k] (zero past the rank), the
    same bit for bit in a stack of one as in any longer stack."""
    n, step = len(v), BLOCK_ENTRIES // v.shape[-1] ** 2
    vec_one = np.eye(int(round(np.sqrt(v.shape[-1]))), dtype=complex).reshape(-1)
    cp_ok, (choi_lo, tp, tp_dom) = np.empty(n, dtype=bool), np.empty((3, n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        nat = v[lo:hi]
        for b in sorted(projectors, reverse=True):
            past = np.asarray(starts[lo:hi]) + CHAIN_SLACK >= b
            nat[past] = nat[past] @ projectors[b].natural
        new, run = _runs(nat)
        ok, low = choi_test(nat if new.all() else nat[new], tol=CHECK_TOL)
        cp_ok[lo:hi], choi_lo[lo:hi] = ok[run], low[run]
        tp[lo:hi] = tp_residual(nat)
        row = (vec_one @ nat - vec_one)[:, None, :]
        tp_dom[lo:hi] = np.linalg.norm((row @ images[lo:hi])[:, 0], axis=-1)
    return cp_ok, choi_lo, tp, tp_dom


def _cptp(choi_lo: np.ndarray, tp: np.ndarray, comp: np.ndarray | float = 0.0) -> np.ndarray:
    """Which propagators' Choi minima, TP and composition residuals sit within CERTIFY_TOL."""
    return (choi_lo >= -CERTIFY_TOL) & (tp <= CERTIFY_TOL) & (comp <= CERTIFY_TOL)


@dataclass(frozen=True)
class StepFigures:
    """A verdict's V_j = N_{j+1} N_j^+ at rank cut RANK_RTOL and their figures per pair."""

    times: np.ndarray
    rows: np.ndarray  # which of times are the grid's
    v: np.ndarray  # limit projectors composed in from first_breakpoint on
    choi_lo: np.ndarray
    tp: np.ndarray
    first_breakpoint: float


def _cptp_steps(family: MapFamily, times: np.ndarray, naturals: np.ndarray,
                figures: StepFigures | None = None, runs=None) -> np.ndarray:
    """Which grid steps between unequal maps have a certified CPTP propagator (_cptp): with figures,
    a step they cover (consecutive on their times, before the first breakpoint) by its V_j; the rest
    (with figures, bar equal maps) by V_k = N_{k+1} N_k^+ from _scan_grid, per block of
    BLOCK_ENTRIES // d^4 pairs of each run, so no grid-sized array is held beside the verdict's.
    runs is _runs(naturals) where the caller holds it."""
    equal = ~(_runs(naturals) if runs is None else runs)[0][1:]
    certified, cover = np.zeros_like(equal), np.zeros_like(equal)
    if figures is not None:
        if not np.array_equal(figures.times[figures.rows], times):
            raise ValueError("the step figures belong to another grid")
        at, first = np.flatnonzero(figures.rows), figures.first_breakpoint
        covered = ~equal & (np.diff(at) == 1) & (times[:-1] + CHAIN_SLACK < first)
        j, n_s, n_t = at[:-1][covered], naturals[:-1][covered], naturals[1:][covered]
        comp = np.linalg.norm(figures.v[j] @ n_s - n_t, axis=(1, 2))
        certified[covered], cover = _cptp(figures.choi_lo[j], figures.tp[j], comp), covered | equal
    step = BLOCK_ENTRIES // naturals.shape[-1] ** 2
    for start, stop in np.flatnonzero(np.diff(np.r_[False, ~cover, False])).reshape(-1, 2):
        for lo in range(start, stop, step):
            blk = slice(lo, min(lo + step, stop) + 1)
            *_, images, _, nat, v = _scan_grid(family, times[blk], RANK_RTOL, naturals[blk])
            _, choi_lo, tp, _ = _propagators(images, v, times[blk][:-1], {})
            comp = np.linalg.norm(v @ nat[:-1] - nat[1:], axis=(1, 2))
            certified[lo:lo + len(v)] = _cptp(choi_lo, tp, comp)
    return certified & ~equal  # the scan skips a step between equal maps by its own runs


def _span(kept: np.ndarray, rank_rtol: float, naturals: np.ndarray, v: np.ndarray) -> None:
    """Write into v[s] the propagator V = N_t N_s^+ of each pair (s, t) of consecutive
    kept indices that spans dropped ones, from the SVD of N_s, bit for bit as
    _scan_grid builds it."""
    s, t = kept[:-1], kept[1:]
    for j in np.flatnonzero(t > s + 1):
        u, sv, vh = np.linalg.svd(naturals[s[j]:s[j] + 1])
        keep = _keep(sv, rank_rtol)
        u *= keep[:, None, :]
        vs = np.conjugate(vh).swapaxes(-1, -2)
        v[s[j]] = (naturals[t[j]:t[j] + 1] @ _pinv(vs, u, sv, keep))[0]
