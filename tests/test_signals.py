import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from markovlens import signals as sg
from markovlens.dynamics import preset_amplitude_damping


@pytest.mark.parametrize("signal,t_probe", [
    (sg.constant(0.7), 2.3),
    (sg.exp_decay(0.5), 3.1),
    (sg.exp_decay(0.0), 1.2),
    (sg.sinusoidal(1.3, 2.0, 0.4, -0.2), 2.7),
    (sg.cosine_clipped(1.0, np.pi / 2), 1.1),
    (sg.cosine_clipped(1.0, np.pi / 2), 2.8),
    (sg.piecewise_linear([(0, 0), (1, 1), (2, 1)]), 1.6),
    (sg.piecewise_linear([(0.5, 2.0), (1.5, -1.0)]), 2.2),
    (sg.inverse_gap(2.0), 1.7),
    (sg.sinusoidal(1.3, 0.0, 0.4, -0.2), 2.7),
])
def test_integral_matches_quadrature(signal, t_probe):
    oracle, err = quad(signal.value, 0.0, t_probe, limit=200)
    assert signal.integral(t_probe) == pytest.approx(oracle, abs=max(1e-9, 10 * err))


def test_cosine_clipped_exact_zero():
    s = sg.cosine_clipped(1.0, np.pi / 2)
    assert s.value(np.pi / 2) == 0.0
    assert s.value(3.0) == 0.0
    assert s.value(1.0) == pytest.approx(np.cos(1.0))


def test_inverse_gap_diverges():
    s = sg.inverse_gap(1.0)
    assert s.value(0.5) == pytest.approx(2.0)
    assert s.integral(0.5) == pytest.approx(np.log(2.0))
    with pytest.raises(ValueError):
        s.value(1.0)
    with pytest.raises(ValueError):
        s.integral(1.0)


def test_piecewise_linear_holds_ends():
    s = sg.piecewise_linear([(1.0, 2.0), (2.0, 4.0)])
    assert s.value(0.0) == 2.0
    assert s.value(3.0) == 4.0
    assert s.value(1.5) == pytest.approx(3.0)


def test_piecewise_linear_integral_starts_at_zero_before_the_first_knot():
    s = sg.piecewise_linear([(-1, 1), (1, 1)])
    assert s.integral(0.0) == 0.0
    assert s.integral(0.5) == 0.5
    fam = preset_amplitude_damping(gamma=s, t_max=1.0)  # needs G(0) = 1
    assert fam.evaluate(1.0).natural[0, 0] == pytest.approx(np.exp(-1.0))


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        sg.piecewise_linear([(0, 1)])
    with pytest.raises(ValueError):
        sg.piecewise_linear([(0, 1), (0, 2)])


def _pl_integral_loop(knots, t):
    """Knot-by-knot reference for the piecewise-linear integral from 0; a first
    knot before 0 integrates from that knot and subtracts the area up to 0."""
    if knots[0][0] < 0:
        return _pl_area_loop(knots, t) - _pl_area_loop(knots, 0.0)
    return _pl_area_loop(knots, t)


def _pl_area_loop(knots, t):
    ts, vs = np.array([k[0] for k in knots]), np.array([k[1] for k in knots])
    if t <= ts[0]:
        return float(vs[0] * t)
    total = float(vs[0] * ts[0]) if ts[0] > 0 else 0.0
    for i in range(len(ts) - 1):
        if t <= ts[i + 1]:
            v_t = vs[i] + (vs[i + 1] - vs[i]) * (t - ts[i]) / (ts[i + 1] - ts[i])
            return float(total + 0.5 * (vs[i] + v_t) * (t - ts[i]))
        total += 0.5 * (vs[i] + vs[i + 1]) * (ts[i + 1] - ts[i])
    return float(total + vs[-1] * (t - ts[-1]))


_coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(knot_times=st.lists(_coord, min_size=2, max_size=6, unique=True),
       values=st.lists(_coord, min_size=6, max_size=6), extra=st.lists(_coord, max_size=6))
def test_piecewise_linear_integral_matches_the_knot_loop(knot_times, values, extra):
    knots = list(zip(sorted(knot_times), values))
    signal = sg.piecewise_linear(knots)
    times = np.array(sorted(knot_times) + extra)  # at every knot and elsewhere
    got = signal.integral(times)
    assert [signal.integral(float(t)) for t in times] == got.tolist()
    assert got.tolist() == [_pl_integral_loop(knots, float(t)) for t in times]


@pytest.mark.parametrize("signal", [
    sg.constant(0.7), sg.exp_decay(0.5), sg.exp_decay(0.0), sg.cosine_clipped(1.0, 1.0),
    sg.sinusoidal(1.3, 2.0, 0.4, -0.2), sg.sinusoidal(1.3, 0.0, 0.4, -0.2), sg.inverse_gap(2.0),
    sg.piecewise_linear([(0.5, 2.0), (1.5, -1.0)]),
], ids=lambda s: s.kind)
def test_value_and_integral_take_arrays_elementwise(signal):
    times = np.array([0.0, 0.3, 1.0, np.nextafter(1.0, 2.0), 1.7])
    for method in (signal.value, signal.integral):
        got = method(times)
        assert got.shape == times.shape
        assert got.tolist() == [method(float(t)) for t in times]
        assert all(type(method(float(t))) is float for t in times)


def test_inverse_gap_names_the_first_time_past_the_gap():
    s = sg.inverse_gap(1.0)
    for method, what in ((s.value, "signal"), (s.integral, "integral")):
        with pytest.raises(ValueError, match=f"inverse_gap {what} diverges at t=1.0; got t=1.5$"):
            method(np.array([0.2, 1.5, 0.4, 1.0]))


@pytest.mark.parametrize("build, name", [
    (lambda x: sg.constant(x), "value"),
    (lambda x: sg.exp_decay(x), "rate"),
    (lambda x: sg.cosine_clipped(1.0, x), "t_star"),
    (lambda x: sg.sinusoidal(1.0, x), "omega"),
    (lambda x: sg.sinusoidal(1.0, 1.0, offset=x), "offset"),
    (lambda x: sg.inverse_gap(x), "t1"),
    (lambda x: sg.piecewise_linear([(0, 1), (1, x), (2, 0.5)]), "knots"),
    (lambda x: sg.piecewise_linear([(0, 1), (x, 0.5)]), "knots"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructors_reject_non_finite_parameters(build, name, bad):
    with pytest.raises(ValueError, match=f"signal parameter {name} must be finite"):
        build(bad)
