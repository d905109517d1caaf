"""Information-backflow diagnostics: trace-norm trajectories of Hermitian
witnesses under the (ancilla-extended) dynamics, the distinguishability
flow for state pairs, the enlarged-ancilla equal-probability witness and
its trace-split embedding, and a randomized falsification search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divisibility import _as_times
from .dynamics import MapFamily
from .operator_core import hermitianize, require_density, require_hermitian
from .superop import tensor_with_identity

ANCILLA_KINDS = ("none", "d", "d_plus_1")


def _ancilla_factor(kind: str, d: int) -> int:
    if kind == "none":
        return 1
    if kind == "d":
        return d
    if kind == "d_plus_1":
        return d + 1
    raise ValueError(f"unknown ancilla kind {kind!r}; expected one of {ANCILLA_KINDS}")


@dataclass
class WitnessRecord:
    """A Hermitian witness with its trace-norm trajectory.

    derivatives holds central-difference estimates at the interior grid
    points (length len(times) - 2); max_backflow is the largest derivative
    estimate found (positive values signal information backflow) at
    max_backflow_time. kink_times flags trajectory points where a
    second-difference spike suggests a non-smooth norm, where the
    derivative estimate is only a bracket.
    """

    witness: np.ndarray
    ancilla_kind: str
    times: np.ndarray
    norms: np.ndarray
    derivatives: np.ndarray
    max_backflow: float
    max_backflow_time: float
    kink_times: tuple = ()


def _extended_naturals(family: MapFamily, times: np.ndarray, a: int) -> list[np.ndarray]:
    out = []
    for t in times:
        s = family.evaluate(float(t))
        out.append(tensor_with_identity(s, a).natural if a > 1 else s.natural)
    return out


def _record_from_naturals(naturals, x: np.ndarray, ancilla_kind: str,
                          times: np.ndarray) -> WitnessRecord:
    m = x.shape[0]
    vec = x.reshape(-1, order="F")
    norms = np.empty(len(times))
    for k, nat in enumerate(naturals):
        out = (nat @ vec).reshape((m, m), order="F")
        norms[k] = float(np.sum(np.abs(np.linalg.eigvalsh(hermitianize(out)))))
    n = len(times)
    derivs = (norms[2:] - norms[:-2]) / (times[2:] - times[:-2])
    # One-sided endpoint estimates enter the backflow search only; the
    # stored array covers the grid interior.
    cand_vals = list(derivs)
    cand_times = list(times[1:-1])
    cand_vals.append((norms[1] - norms[0]) / (times[1] - times[0]))
    cand_times.append(float(times[0]))
    cand_vals.append((norms[-1] - norms[-2]) / (times[-1] - times[-2]))
    cand_times.append(float(times[-1]))
    k_best = int(np.argmax(cand_vals))

    kinks = ()
    if n >= 3:
        second = np.abs(norms[2:] - 2 * norms[1:-1] + norms[:-2])
        floor = 10.0 * (float(np.median(second)) + 1e-15)
        spikes = np.nonzero((second > floor) & (second > 1e-9))[0]
        kinks = tuple(float(times[i + 1]) for i in spikes)

    return WitnessRecord(witness=x, ancilla_kind=ancilla_kind, times=times,
                         norms=norms, derivatives=derivs,
                         max_backflow=float(cand_vals[k_best]),
                         max_backflow_time=float(cand_times[k_best]),
                         kink_times=kinks)


def helstrom_witness(family: MapFamily, x: np.ndarray, ancilla_kind: str,
                     grid) -> WitnessRecord:
    """Trajectory of ||(1_a (x) Lambda_t)(X)||_1 for a Hermitian witness X.

    X = p1 rho1 - p2 rho2 is the biased-discrimination reading of a general
    Hermitian witness; it is documented, not enforced.
    """
    times = _as_times(grid)
    a = _ancilla_factor(ancilla_kind, family.dim)
    m = a * family.dim
    x = require_hermitian(np.asarray(x, dtype=complex), atol=1e-10)
    if x.shape != (m, m):
        raise ValueError(
            f"witness shape {x.shape} inconsistent with ancilla kind "
            f"{ancilla_kind!r} at system dimension {family.dim}")
    naturals = _extended_naturals(family, times, a)
    return _record_from_naturals(naturals, x, ancilla_kind, times)


def blp_sigma(family: MapFamily, rho1: np.ndarray, rho2: np.ndarray,
              grid) -> WitnessRecord:
    """Distinguishability flow: trajectory of ||Lambda_t(rho1 - rho2)||_1
    with its derivative estimates; positive derivatives are backflow."""
    rho1 = require_density(rho1)
    rho2 = require_density(rho2)
    return helstrom_witness(family, rho1 - rho2, "none", grid)


def embed_delta(x: np.ndarray, rho_s: np.ndarray) -> np.ndarray:
    """Traceless embedding of a two-party witness into the enlarged-ancilla
    space: Delta = X (+) (-Tr(X) rho_S) on the extra ancilla level.

    The input X lives on H (x) H; the output acts on H' (x) H with
    dim H' = d + 1, H embedded as the first d ancilla levels, and has
    exactly zero trace by construction.
    """
    rho_s = require_density(rho_s)
    d = rho_s.shape[0]
    x = require_hermitian(np.asarray(x, dtype=complex), atol=1e-10)
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


def _gaussian_witness(rng: np.random.Generator, m: int) -> np.ndarray:
    w = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    x = hermitianize(w)
    return x / float(np.sum(np.abs(np.linalg.eigvalsh(x))))


def witness_scan(family: MapFamily, grid, ancilla_kind: str = "d",
                 n_samples: int = 64, n_refine: int = 8,
                 seed: int = 0) -> WitnessRecord:
    """Randomized falsification search for information backflow.

    Draws unit-trace-norm witnesses from a unitary-invariant Gaussian
    ensemble, keeps the record with the largest derivative estimate, and
    hill-climbs it by random perturbations with a halving step. A scan
    that finds nothing is "no violation found", never a certificate of
    divisibility.
    """
    times = _as_times(grid)
    a = _ancilla_factor(ancilla_kind, family.dim)
    return _scan_naturals(_extended_naturals(family, times, a), times, ancilla_kind,
                          a * family.dim, n_samples, n_refine, seed)


def _scan_naturals(naturals, times: np.ndarray, ancilla_kind: str, m: int,
                   n_samples: int, n_refine: int, seed: int) -> WitnessRecord:
    """witness_scan's search over given natural matrices on m x m operators."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    best = None
    for i in range(n_samples):
        rng = np.random.default_rng([seed, i])
        x = _gaussian_witness(rng, m)
        rec = _record_from_naturals(naturals, x, ancilla_kind, times)
        if best is None or rec.max_backflow > best.max_backflow:
            best = rec

    rng = np.random.default_rng([seed, n_samples])
    scale = 0.5
    for _ in range(n_refine):
        pert = _gaussian_witness(rng, m)
        x = hermitianize(best.witness + scale * pert)
        x = x / float(np.sum(np.abs(np.linalg.eigvalsh(x))))
        rec = _record_from_naturals(naturals, x, ancilla_kind, times)
        if rec.max_backflow > best.max_backflow:
            best = rec
        else:
            scale *= 0.5
    return best
