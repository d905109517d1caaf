"""Declarative scalar time signals with closed-form values and integrals.

A small closed set of analytic shapes plus piecewise-linear keeps
configurations bit-reproducible; rate integrals never go through
numerical quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

MAX_LANDMARKS = 4096  # crossings or extrema that crossings_and_extrema lists per angle


@dataclass(frozen=True)
class ScalarSignal:
    """One of a fixed family of scalar functions of time.

    params holds the shape parameters in a fixed order per kind; use the
    module-level constructors rather than building instances by hand.
    """

    kind: str
    params: tuple

    def value(self, t):
        """The signal at t, a float, or at each time of an array t."""
        k, p, t = self.kind, self.params, np.asarray(t, dtype=float)
        if k == "constant":
            v = np.full(t.shape, p[0])
        elif k == "exp_decay":
            v = np.exp(-p[0] * t)
        elif k == "cosine_clipped":
            omega, t_star = p
            v = np.where(t < t_star, np.cos(omega * t), 0.0)
        elif k == "sinusoidal":
            a, omega, phase, offset = p
            v = a * np.sin(omega * t + phase) + offset
        elif k == "inverse_gap":
            if (late := t[t >= p[0]]).size:
                raise DivergenceError(f"inverse_gap signal diverges at t={p[0]}; got t={late[0]}")
            v = 1.0 / (p[0] - t)
        elif k == "piecewise_linear":
            ts, vs = p
            v = np.interp(t, ts, vs)
        else:
            raise ValueError(f"unknown signal kind {k!r}")
        return float(v) if v.ndim == 0 else v

    def integral(self, t):
        """Closed-form integral of the signal from 0 to t (t >= 0), elementwise over arrays."""
        k, p, t = self.kind, self.params, np.asarray(t, dtype=float)
        if k == "constant":
            v = p[0] * t
        elif k == "exp_decay":
            r = p[0]
            v = t if r == 0.0 else (1.0 - np.exp(-r * t)) / r
        elif k == "cosine_clipped":
            omega, t_star = p
            tc = np.minimum(t, t_star)
            v = tc if omega == 0.0 else np.sin(omega * tc) / omega
        elif k == "sinusoidal":
            a, omega, phase, offset = p
            v = ((a * np.sin(phase) + offset) * t if omega == 0.0 else
                 -(a / omega) * (np.cos(omega * t + phase) - np.cos(phase)) + offset * t)
        elif k == "inverse_gap":
            if (late := t[t >= p[0]]).size:
                raise DivergenceError(f"inverse_gap integral diverges at t={p[0]}; got t={late[0]}")
            v = np.log(p[0] / (p[0] - t))
        elif k == "piecewise_linear":
            v = _pl_integral(np.asarray(p[0]), np.asarray(p[1]), t)
        else:
            raise ValueError(f"unknown signal kind {k!r}")
        return float(v) if v.ndim == 0 else v

    def crossings_and_extrema(self, level: float, t_max: float) -> tuple[tuple, tuple]:
        """Closed-form landmarks on [0, t_max], each sorted: the times where the signal
        reaches level (value - level keeps its sign between two of them; a stretch at the
        level gives its start, and cosine_clipped's jump at its clip time counts when it
        jumps across the level), and its local extrema (it is monotone between two of them).
        A ValueError names a sinusoid with more than MAX_LANDMARKS of either per angle."""
        k, p, lv = self.kind, self.params, float(level)
        hits, turns = [], []
        if k == "piecewise_linear":
            ts, vs = np.asarray(p[0]), np.asarray(p[1])
            r, slope = vs - lv, np.sign(np.diff(vs))
            cross = r[:-1] * r[1:] < 0
            hits = np.concatenate([ts[(r == 0) & ~np.r_[False, r[:-1] == 0]],
                                   ts[:-1][cross] - r[:-1][cross] * np.diff(ts)[cross]
                                   / np.diff(vs)[cross]])
            turns = ts[np.r_[0.0, slope] != np.r_[slope, 0.0]]  # held flat outside the knots
        elif k == "sinusoidal" and p[0] != 0.0 and p[1] != 0.0:
            a, omega, phase, offset = p
            if abs(x := (lv - offset) / a) <= 1.0:
                hits = _angle_times((math.asin(x), math.pi - math.asin(x)), 2 * math.pi, omega,
                                    phase, t_max)
            turns = _angle_times((0.5 * math.pi,), math.pi, omega, phase, t_max)
        elif k == "cosine_clipped":
            omega, t_star = p
            if omega == 0.0:
                hits = [0.0] if lv == 1.0 and t_star > 0 else []
            else:
                hits = [t for t in (_angle_times((math.acos(lv), -math.acos(lv)), 2 * math.pi,
                                                 omega, 0.0, t_max) if abs(lv) <= 1.0 else [])
                        if t < t_star]
                turns = [t for t in _angle_times((0.0,), math.pi, omega, 0.0, t_max)
                         if t < t_star]
            if lv == 0.0 or (t_star > 0 and (math.cos(omega * t_star) - lv) * lv > 0):
                hits = [*hits, max(t_star, 0.0)]  # 0 from the clip time on
            turns = [*turns, t_star]
        elif k == "exp_decay" and p[0] != 0.0:
            hits = [-math.log(lv) / p[0]] if lv > 0 else []
        elif k == "inverse_gap":
            hits = [p[0] - 1.0 / lv] if lv > 0 else []
        elif float(self.value(0.0)) == lv:  # constant (a flat exp_decay or sinusoidal too)
            hits = [0.0]

        def inside(ts):
            ts = np.unique(np.asarray(ts, dtype=float))
            return tuple((ts[(ts >= 0) & (ts <= t_max)] + 0.0).tolist())  # no -0.0
        return inside(hits), inside(turns)


def _angle_times(angles, period: float, omega: float, phase: float, t_max: float) -> list:
    """The times t in [0, t_max] (and a few around them) where omega t + phase is one of
    angles plus a multiple of period; Python floats, so a far time is inf, not a warning."""
    lo, hi = sorted((phase, omega * t_max + phase))
    if hi - lo > MAX_LANDMARKS * period:
        raise ValueError(f"more than {MAX_LANDMARKS} landmarks on [0, {t_max}]")
    return [(b + j * period - phase) / omega for b in angles
            for j in range(math.floor((lo - b) / period), math.ceil((hi - b) / period) + 1)]


def _pl_integral(ts: np.ndarray, vs: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Trapezoid areas summed in knot order, linear continuation with held end values.
    start = vs[0] * ts[0] if ts[0] > 0 else 0.0
    totals = np.cumsum(np.concatenate([[start], 0.5 * (vs[:-1] + vs[1:]) * (ts[1:] - ts[:-1])]))

    def area(t):
        seg = np.searchsorted(ts[1:], t)  # first segment whose right knot is >= t
        i, tc = np.minimum(seg, len(ts) - 2), np.clip(t, ts[0], ts[-1])  # dropped branches finite
        v_t = vs[i] + (vs[i + 1] - vs[i]) * (tc - ts[i]) / (ts[i + 1] - ts[i])
        inner = totals[i] + 0.5 * (vs[i] + v_t) * (tc - ts[i])
        return np.where(t <= ts[0], vs[0] * t,
                        np.where(seg > len(ts) - 2, totals[-1] + vs[-1] * (t - ts[-1]), inner))

    return area(t) - area(0.0) if ts[0] < 0 else area(t)  # from 0, not from the first knot


def _finite(**params) -> tuple:
    """The parameters as floats, in order; a ValueError names the first non-finite one."""
    if bad := [k for k, v in params.items() if not np.isfinite(float(v))]:
        raise ValueError(f"signal parameter {bad[0]} must be finite, got {float(params[bad[0]])}")
    return tuple(float(v) for v in params.values())


def constant(c: float) -> ScalarSignal:
    return ScalarSignal("constant", _finite(value=c))


def exp_decay(rate: float) -> ScalarSignal:
    """exp(-rate * t)."""
    return ScalarSignal("exp_decay", _finite(rate=rate))


def cosine_clipped(omega: float, t_star: float) -> ScalarSignal:
    """cos(omega * t) for t < t_star, exactly 0 afterwards."""
    return ScalarSignal("cosine_clipped", _finite(omega=omega, t_star=t_star))


def sinusoidal(amplitude: float, omega: float, phase: float = 0.0,
               offset: float = 0.0) -> ScalarSignal:
    """amplitude * sin(omega * t + phase) + offset."""
    return ScalarSignal("sinusoidal",
                        _finite(amplitude=amplitude, omega=omega, phase=phase, offset=offset))


def inverse_gap(t1: float) -> ScalarSignal:
    """1 / (t1 - t); diverges at t1, for rates whose integral hits infinity."""
    return ScalarSignal("inverse_gap", _finite(t1=t1))


def piecewise_linear(knots) -> ScalarSignal:
    """Linear interpolation through (t, value) knots, held constant outside."""
    ts = tuple(float(t) for t, _ in knots)
    vs = tuple(float(v) for _, v in knots)
    if not np.all(np.isfinite(ts + vs)):
        raise ValueError(f"signal parameter knots must be finite, got {list(zip(ts, vs))}")
    if len(ts) < 2:
        raise ValueError("piecewise_linear needs at least two knots")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("piecewise_linear knot times must be strictly increasing")
    return ScalarSignal("piecewise_linear", (ts, vs))
