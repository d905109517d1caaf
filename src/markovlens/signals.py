"""Declarative scalar time signals with closed-form values and integrals.

A small closed set of analytic shapes plus piecewise-linear keeps
configurations bit-reproducible; rate integrals never go through
numerical quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScalarSignal:
    """One of a fixed family of scalar functions of time.

    params holds the shape parameters in a fixed order per kind; use the
    module-level constructors rather than building instances by hand.
    """

    kind: str
    params: tuple

    def value(self, t: float) -> float:
        k, p = self.kind, self.params
        if k == "constant":
            return p[0]
        if k == "exp_decay":
            return float(np.exp(-p[0] * t))
        if k == "cosine_clipped":
            omega, t_star = p
            return float(np.cos(omega * t)) if t < t_star else 0.0
        if k == "sinusoidal":
            a, omega, phase, offset = p
            return float(a * np.sin(omega * t + phase) + offset)
        if k == "inverse_gap":
            (t1,) = p
            if t >= t1:
                raise ValueError(f"inverse_gap signal diverges at t={t1}; got t={t}")
            return 1.0 / (t1 - t)
        if k == "piecewise_linear":
            ts, vs = p
            return float(np.interp(t, ts, vs))
        raise ValueError(f"unknown signal kind {k!r}")

    def integral(self, t: float) -> float:
        """Closed-form integral of the signal from 0 to t (t >= 0)."""
        k, p = self.kind, self.params
        if k == "constant":
            return p[0] * t
        if k == "exp_decay":
            r = p[0]
            return t if r == 0.0 else float((1.0 - np.exp(-r * t)) / r)
        if k == "cosine_clipped":
            omega, t_star = p
            tc = min(t, t_star)
            return tc if omega == 0.0 else float(np.sin(omega * tc) / omega)
        if k == "sinusoidal":
            a, omega, phase, offset = p
            if omega == 0.0:
                return float((a * np.sin(phase) + offset) * t)
            return float(-(a / omega) * (np.cos(omega * t + phase) - np.cos(phase))
                         + offset * t)
        if k == "inverse_gap":
            (t1,) = p
            if t >= t1:
                raise ValueError(f"inverse_gap integral diverges at t={t1}; got t={t}")
            return float(np.log(t1 / (t1 - t)))
        if k == "piecewise_linear":
            ts, vs = p
            return _pl_integral(np.asarray(ts), np.asarray(vs), t)
        raise ValueError(f"unknown signal kind {k!r}")


def _pl_integral(ts: np.ndarray, vs: np.ndarray, t: float) -> float:
    # Trapezoid areas between knots, linear continuation with held end values.
    if t <= ts[0]:
        return float(vs[0] * t)
    total = float(vs[0] * ts[0]) if ts[0] > 0 else 0.0
    for i in range(len(ts) - 1):
        if t <= ts[i + 1]:
            v_t = vs[i] + (vs[i + 1] - vs[i]) * (t - ts[i]) / (ts[i + 1] - ts[i])
            return total + 0.5 * (vs[i] + v_t) * (t - ts[i])
        total += 0.5 * (vs[i] + vs[i + 1]) * (ts[i + 1] - ts[i])
    return total + float(vs[-1] * (t - ts[-1]))


def constant(c: float) -> ScalarSignal:
    return ScalarSignal("constant", (float(c),))


def exp_decay(rate: float) -> ScalarSignal:
    """exp(-rate * t)."""
    return ScalarSignal("exp_decay", (float(rate),))


def cosine_clipped(omega: float, t_star: float) -> ScalarSignal:
    """cos(omega * t) for t < t_star, exactly 0 afterwards."""
    return ScalarSignal("cosine_clipped", (float(omega), float(t_star)))


def sinusoidal(amplitude: float, omega: float, phase: float = 0.0,
               offset: float = 0.0) -> ScalarSignal:
    """amplitude * sin(omega * t + phase) + offset."""
    return ScalarSignal("sinusoidal",
                        (float(amplitude), float(omega), float(phase), float(offset)))


def inverse_gap(t1: float) -> ScalarSignal:
    """1 / (t1 - t); diverges at t1, for rates whose integral hits infinity."""
    return ScalarSignal("inverse_gap", (float(t1),))


def piecewise_linear(knots) -> ScalarSignal:
    """Linear interpolation through (t, value) knots, held constant outside."""
    ts = tuple(float(t) for t, _ in knots)
    vs = tuple(float(v) for _, v in knots)
    if len(ts) < 2:
        raise ValueError("piecewise_linear needs at least two knots")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("piecewise_linear knot times must be strictly increasing")
    return ScalarSignal("piecewise_linear", (ts, vs))
