"""Information-backflow diagnostics: trace-norm trajectories of Hermitian
witnesses under the (ancilla-extended) dynamics, the distinguishability
flow for state pairs, the enlarged-ancilla equal-probability witness and
its trace-split embedding, and a randomized falsification search."""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .dynamics import MapFamily, _as_times, _runs
from .dynamics import _grid_naturals as _naturals  # (family, times[, naturals]) -> grid maps
from .operator_core import (_qubit_trace_norms, _trace_norms, hermitianize, require_density,
                            require_hermitian, require_int, trace_norm)
from .steps import _cptp_steps

ANCILLA_KINDS = ("none", "d", "d_plus_1")
BLOCK_ENTRIES = 400 * 12 * 12  # one 400-time trajectory of a 12 x 12 witness
WITNESS_ATOL = 1e-10  # how far a given witness may be from Hermitian
_worker = threading.local()  # .stop: an Event set on a pool's thread; its scans stop once set


def _ancilla_factor(kind: str, d: int) -> int:
    if kind not in ANCILLA_KINDS:
        raise ValueError(f"unknown ancilla kind {kind!r}; expected one of {ANCILLA_KINDS}")
    return {"none": 1, "d": d, "d_plus_1": d + 1}[kind]


@dataclass
class WitnessRecord:
    """A Hermitian witness with its trace-norm trajectory.

    derivatives holds central-difference estimates at the interior grid
    points (length len(times) - 2); max_backflow is the largest derivative
    estimate found (positive values signal information backflow) at
    max_backflow_time. kink_times flags trajectory points where a
    second-difference spike suggests a non-smooth norm, where the
    derivative estimate is only a bracket. certified_steps counts the grid
    steps a scan skipped: equal maps, or a certified CPTP propagator.
    """

    witness: np.ndarray
    ancilla_kind: str
    times: np.ndarray
    norms: np.ndarray
    derivatives: np.ndarray
    max_backflow: float
    max_backflow_time: float
    kink_times: tuple = ()
    certified_steps: int = 0


def _grid_runs(naturals: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(distinct maps, each grid map's index among them): each run of equal consecutive maps
    once and, for m > 2, each run whose map's bytes equal an earlier run's merged into it."""
    new, run = _runs(naturals)
    if m > 2:  # merge each run whose map's bytes equal an earlier run's: equal eigvalsh bytes
        heads, first = np.flatnonzero(new), {}
        owner = np.array([first.setdefault(hash(naturals[k].tobytes()), k) for k in heads], int)
        dup = owner != heads
        if naturals[owner[dup]].tobytes() == naturals[heads[dup]].tobytes():  # no hash collision
            new[heads[dup]] = False
            run = (np.cumsum(new) - 1)[owner][run]
    return (naturals if new.all() else naturals[new]), run  # copy only when a map repeats


def _grid_kernel(distinct: np.ndarray, run: np.ndarray, m: int, n_max: int):
    """xs -> (S, len(run)) trace norms ||(1_a (x) Lambda)(X_s)||_1 of up to n_max m x m witnesses
    over the maps distinct[run] (each distinct map scored once), from state built once: a tall
    distinct-map matrix, a buffer. Bit for bit hermitianize(apply_extended(...)), whatever the
    maps and witnesses beside it: a matrix-vector product per block X_ij (a matrix-matrix one
    rounds differently); one _trace_norms call per BLOCK_ENTRIES entries."""
    d = int(round(np.sqrt(distinct.shape[-1])))
    a, step = m // d, max(1, BLOCK_ENTRIES // (len(run) * m ** 2))
    tall, n_maps = distinct.reshape(-1, d * d), len(distinct)
    buf = None if m == 2 else np.empty((min(step, n_max), n_maps, a, d, a, d), dtype=complex)

    def norms_of(xs: np.ndarray) -> np.ndarray:
        norms = np.empty((len(xs), len(run)))
        for lo in range(0, len(xs), step):
            if getattr(_worker, "stop", None) and _worker.stop.is_set():  # see cli.run_tasks
                raise RuntimeError("witness scan stopped: another task failed")
            x = xs[lo:lo + step]
            # vec(X_ij) of witness s, entry r + d c = X_s[i d + r, j d + c], as one column each
            vecs = x.reshape(len(x), a, d, a, d).transpose(0, 1, 3, 4, 2)
            y = (tall @ vecs.reshape(len(x), a, a, -1, 1)).reshape(len(x), a, a, n_maps, d, d)
            if buf is None:  # Re y_00 and Re y_11 are the Hermitian part's diagonal exactly
                block = _qubit_trace_norms(y[..., 0, 0].real, y[..., 1, 1].real,
                                           0.5 * (np.conjugate(y[..., 1, 0]) + y[..., 0, 1]))
            else:
                out = buf[:len(x)]  # [s, t, i, r, j, c] from y's [s, i, j, t, c, r]
                np.conjugate(y.transpose(0, 3, 2, 4, 1, 5), out=out)
                out += y.transpose(0, 3, 1, 5, 2, 4)
                out *= 0.5
                block = _trace_norms(out.reshape(len(x), n_maps, m, m))
            norms[lo:lo + step] = block.reshape(len(x), n_maps)[:, run]
        return norms
    return norms_of


def _trajectory_norms(naturals: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(S, T) trace norms of the witness stack xs over the grid's natural matrices."""
    return _grid_kernel(*_grid_runs(naturals, xs.shape[-1]), xs.shape[-1], len(xs))(xs)


def _candidates(times: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Backflow candidates: central differences at the grid interior (the stored
    derivatives), then the one-sided estimates at the two endpoints."""
    return np.concatenate([(norms[:, 2:] - norms[:, :-2]) / (times[2:] - times[:-2]),
                           (norms[:, 1:2] - norms[:, :1]) / (times[1] - times[0]),
                           (norms[:, -1:] - norms[:, -2:-1]) / (times[-1] - times[-2])], axis=1)


def _best_record(xs: np.ndarray, ancilla_kind: str, times: np.ndarray,
                 norms: np.ndarray) -> WitnessRecord:
    """Record of the witness in the stack xs with the largest derivative
    estimate, the first of equal ones, from the (S, T) norm trajectories."""
    cand_vals = _candidates(times, norms)
    cand_times = [*times[1:-1], float(times[0]), float(times[-1])]
    # the first maximum in row-major order: ties go to the first witness
    s, k_best = np.unravel_index(np.argmax(cand_vals), cand_vals.shape)

    kinks = ()
    if len(times) >= 3:
        second = np.abs(norms[s, 2:] - 2 * norms[s, 1:-1] + norms[s, :-2])
        floor = 10.0 * (float(np.median(second)) + 1e-15)
        spikes = np.nonzero((second > floor) & (second > 1e-9))[0]
        kinks = tuple(float(times[i + 1]) for i in spikes)

    return WitnessRecord(witness=xs[s].copy(), ancilla_kind=ancilla_kind, times=times,
                         norms=norms[s], derivatives=cand_vals[s, :-2],
                         max_backflow=float(cand_vals[s, k_best]),
                         max_backflow_time=float(cand_times[k_best]),
                         kink_times=kinks)


def _record_from_naturals(naturals: np.ndarray, x: np.ndarray, ancilla_kind: str,
                          times: np.ndarray) -> WitnessRecord:
    """Record of one witness over the grid's natural matrices of Lambda_t."""
    return _best_record(x[None], ancilla_kind, times, _trajectory_norms(naturals, x[None]))


def helstrom_witness(family: MapFamily, x: np.ndarray, ancilla_kind: str,
                     grid, naturals: np.ndarray | None = None) -> WitnessRecord:
    """Trajectory of ||(1_a (x) Lambda_t)(X)||_1 for a Hermitian witness X,
    from the grid's natural matrices if given (family.naturals(times)).

    X = p1 rho1 - p2 rho2 is the biased-discrimination reading of a general
    Hermitian witness; it is documented, not enforced.
    """
    times = _as_times(grid)
    a = _ancilla_factor(ancilla_kind, family.dim)
    m = a * family.dim
    x = require_hermitian(np.asarray(x, dtype=complex), atol=WITNESS_ATOL)
    if x.shape != (m, m):
        raise ValueError(
            f"witness shape {x.shape} inconsistent with ancilla kind "
            f"{ancilla_kind!r} at system dimension {family.dim}")
    return _record_from_naturals(_naturals(family, times, naturals), x, ancilla_kind, times)


def blp_sigma(family: MapFamily, rho1: np.ndarray, rho2: np.ndarray,
              grid, naturals: np.ndarray | None = None) -> WitnessRecord:
    """Distinguishability flow: trajectory of ||Lambda_t(rho1 - rho2)||_1
    with its derivative estimates; positive derivatives are backflow."""
    rho1 = require_density(rho1)
    rho2 = require_density(rho2)
    return helstrom_witness(family, rho1 - rho2, "none", grid, naturals)


def embed_delta(x: np.ndarray, rho_s: np.ndarray) -> np.ndarray:
    """Traceless embedding of a two-party witness into the enlarged-ancilla
    space: Delta = X (+) (-Tr(X) rho_S) on the extra ancilla level.

    The input X lives on H (x) H; the output acts on H' (x) H with
    dim H' = d + 1, H embedded as the first d ancilla levels, and has
    exactly zero trace by construction.
    """
    rho_s = require_density(rho_s)
    d = rho_s.shape[0]
    x = require_hermitian(np.asarray(x, dtype=complex), atol=WITNESS_ATOL)
    if x.shape != (d * d, d * d):
        raise ValueError(f"witness shape {x.shape} does not match system dim {d}")
    m = (d + 1) * d
    delta = np.zeros((m, m), dtype=complex)
    delta[:d * d, :d * d] = x
    delta[d * d:, d * d:] = -complex(np.trace(x)) * rho_s
    # cancel the last rounding crumbs so the trace is exactly zero
    delta[-1, -1] -= complex(np.trace(delta))
    return delta


def enlarged_ancilla_witness(family: MapFamily, rho1: np.ndarray, rho2: np.ndarray,
                  grid) -> WitnessRecord:
    """Equal-probability witness on the enlarged ancilla: trajectory of
    ||(1_{d+1} (x) Lambda_t)(rho1 - rho2)||_1 for density operators on
    H' (x) H."""
    m = (family.dim + 1) * family.dim
    rho1 = require_density(rho1)
    rho2 = require_density(rho2)
    if rho1.shape != (m, m) or rho2.shape != (m, m):
        raise ValueError(f"states must act on H' (x) H with dimension {m}")
    return helstrom_witness(family, rho1 - rho2, "d_plus_1", grid)


def backflow_threshold(fd_tol: float, times) -> float:
    """Backflow above this counts: fd_tol plus the O(h^2) difference error at the widest step."""
    return fd_tol + 10.0 * float(np.max(np.diff(times))) ** 2


def _gaussian_witnesses(rngs, m: int) -> np.ndarray:
    """One unit-trace-norm m x m witness per generator, drawn in order from a unitary-
    invariant Gaussian ensemble and normalized as one read-only stack."""
    w = np.array([rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                  for rng in rngs]).reshape(len(rngs), m, m)
    x = hermitianize(w)
    x /= trace_norm(x)[:, None, None]
    x.setflags(write=False)
    return x


def witness_scan(family: MapFamily, grid, ancilla_kind: str = "d",
                 n_samples: int = 64, n_refine: int = 8,
                 seed: int = 0, naturals: np.ndarray | None = None) -> WitnessRecord:
    """Randomized falsification search for information backflow.

    Draws unit-trace-norm witnesses from a unitary-invariant Gaussian
    ensemble, keeps the one with the largest derivative estimate, and
    hill-climbs it by random perturbations with a halving step. Steps with
    a CPTP propagator certified by steps._cptp_steps, or equal maps, are
    not scored: 1 (x) V is trace-norm contractive there, so no witness can
    gain. A scan that finds nothing is "no violation found", never a
    certificate of divisibility.
    """
    times = _as_times(grid)
    _ancilla_factor(ancilla_kind, family.dim)  # reject bad arguments before evaluating
    for key, value in (("seed", seed), ("n_samples", n_samples), ("n_refine", n_refine)):
        require_int(key, value)  # an int key: 4.0 would hash as 4 in the draw cache
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got n_samples={n_samples}")
    naturals = _naturals(family, times, naturals)
    return _scan_naturals(naturals, times, ancilla_kind, n_samples, n_refine, seed,
                          _cptp_steps(family, times, naturals))


@functools.lru_cache(maxsize=16)
def _seeded_witnesses(seed: int, n_samples: int, n_refine: int, m: int):
    """The scan's sampled witnesses (generator [seed, i] for draw i) and refinement
    perturbations (all from generator [seed, n_samples]), drawn once per key."""
    xs = _gaussian_witnesses([np.random.default_rng([seed, i]) for i in range(n_samples)], m)
    return xs, _gaussian_witnesses([np.random.default_rng([seed, n_samples])] * n_refine, m)


def _scan_naturals(naturals: np.ndarray, times: np.ndarray, ancilla_kind: str,
                   n_samples: int, n_refine: int, seed: int,
                   certified: np.ndarray | bool = False) -> WitnessRecord:
    """witness_scan's search over the grid's natural matrices of Lambda_t. A step between equal
    maps or marked in certified (its CPTP propagator rules out any gain) is skipped: samples
    and refinement steps compete on the candidates that read another step, scored at the times
    those read, and the winner (the first sample if none is left) gets its record over all."""
    d = int(round(np.sqrt(naturals.shape[-1])))
    m = _ancilla_factor(ancilla_kind, d) * d
    xs, perts = _seeded_witnesses(seed, n_samples, n_refine, m)
    distinct, run = _grid_runs(naturals, m)
    skip = (run[1:] == run[:-1]) | certified  # an equal map keeps every witness's norm
    # candidate j of _candidates is (n[last[j]] - n[first[j]]) / (t[last[j]] - t[first[j]])
    n = len(times)
    first, last = np.r_[:n - 2, 0, n - 2], np.r_[2:n, 1, n - 1]
    scored = ~(skip[first] & skip[last - 1])
    first, last = first[scored], last[scored]
    best = xs[0]
    if len(first):
        reads, hit = np.zeros(n, dtype=bool), np.zeros(len(distinct), dtype=bool)
        reads[first] = reads[last] = True
        hit[run[reads]] = True
        norms_of = _grid_kernel(distinct if hit.all() else distinct[hit],
                                (np.cumsum(hit) - 1)[run[reads]], m, n_samples)
        at = np.cumsum(reads) - 1  # each read time's column in norms_of's output
        lo, hi, dt = at[first], at[last], times[last] - times[first]

        def score(x: np.ndarray) -> np.ndarray:  # the scored candidates of each witness in x
            norms = norms_of(x)
            return (norms[:, hi] - norms[:, lo]) / dt

        vals = score(xs)  # the first maximum in row-major order: ties go to the first witness
        best = xs[int(np.argmax(vals)) // vals.shape[1]]
        top, scale = vals.max(), 0.5
        for pert in perts:
            x = hermitianize(best + scale * pert)
            x = x / trace_norm(x)
            if (val := score(x[None]).max()) > top:  # compared on the scored steps alone
                best, top = x, val
            else:
                scale *= 0.5
    norms = _grid_kernel(distinct, run, m, 1)(best[None])
    rec = _best_record(best[None], ancilla_kind, times, norms)
    rec.certified_steps = int(np.sum(skip))
    return rec
