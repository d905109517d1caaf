"""Machine-speed probe.

On a shared 2-vCPU host the speed drifts by up to +-30% over minutes, far
more than a change worth detecting, and no run is long enough to average
the drift out. The benchmark therefore runs a fixed probe of small dense
linear algebra and Python loops, like the program's inner loops, next to
what it times. The speed factor is the probe's reference time over its
measured time; scaled times are raw times times that factor, i.e. seconds
on a machine that runs the probe at the reference speed. The probe is
harness code, so a change to the program cannot move it. The kernels are
bound at import, before tracing wraps numpy.linalg, so the probe leaves no
spans.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_ITER_REF_S = 80e-6
PROBE_SHARE = 0.05   # probe time per operation, as a share of its latency

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_H = np.kron(_A + _A.conj().T, np.eye(2))
_svd, _eigvalsh, _pinv = np.linalg.svd, np.linalg.eigvalsh, np.linalg.pinv


def probe(n: int) -> float:
    """Seconds taken by n iterations of the fixed probe."""
    t0 = time.perf_counter()
    for _ in range(n):
        _svd(_A, compute_uv=False)
        _eigvalsh(_H)
        b = _A @ _A.conj().T
        sum(abs(x) for x in b.ravel())
        _pinv(_A)
    return time.perf_counter() - t0


def probe_iters(latency: float) -> int:
    """Probe iterations to run after an operation that took latency seconds."""
    return min(2000, max(20, int(PROBE_SHARE * latency / PROBE_ITER_REF_S)))


def speed_factor(iters: int, seconds: float) -> float:
    """Reference time of iters probe iterations over their measured time."""
    return PROBE_ITER_REF_S * iters / seconds
