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


_tenths = st.integers(-20, 20).map(lambda k: k / 10)  # hits 0, 1 and knot values exactly
_level = st.one_of(_tenths, st.floats(-2.0, 2.0))
_signals = st.one_of(
    st.builds(sg.constant, _level),
    st.builds(sg.exp_decay, st.floats(-2.0, 2.0)),
    st.builds(sg.cosine_clipped, st.floats(-5.0, 5.0), st.floats(-1.0, 4.0)),
    st.builds(sg.sinusoidal, _level, st.floats(-5.0, 5.0), st.floats(-4.0, 4.0), _level),
    st.builds(sg.inverse_gap, st.floats(0.5, 6.0)),
    st.builds(lambda ts, vs: sg.piecewise_linear(list(zip(sorted(ts), vs))),
              st.lists(st.integers(-10, 50).map(lambda k: k / 10), min_size=2, max_size=6,
                       unique=True), st.lists(_tenths, min_size=6, max_size=6)),
)


def _inside(bounds, t_max):
    """25 times strictly inside each interval between consecutive bounds in [0, t_max]."""
    edges = [0.0, *bounds, t_max]
    return [a + (b - a) * np.linspace(0.02, 0.98, 25) for a, b in zip(edges, edges[1:])
            if b - a > 1e-9]


@settings(max_examples=300, deadline=None)
@given(signal=_signals, level=_level, t_max=st.floats(0.1, 6.0))
def test_crossings_reach_the_level_and_extrema_bound_monotone_pieces(signal, level, t_max):
    if signal.kind == "inverse_gap":
        t_max = min(t_max, 0.99 * signal.params[0])  # the signal diverges at t1
    crossings, extrema = signal.crossings_and_extrema(level, t_max)
    for times in (crossings, extrema):
        assert all(0.0 <= t <= t_max for t in times)
        assert list(times) == sorted(set(times))
    clip = max(signal.params[1], 0.0) if signal.kind == "cosine_clipped" else None
    for t in crossings:  # at the clip time cosine_clipped may jump across the level
        assert abs(signal.value(t) - level) <= 1e-12 or t == clip
    for ts in _inside(crossings, t_max):
        r = signal.value(ts) - level
        r = r[np.abs(r) > 1e-12]
        assert np.all(r > 0) or np.all(r < 0)
    for ts in _inside(extrema, t_max):
        step = np.diff(signal.value(ts))
        assert np.all(step >= -1e-12) or np.all(step <= 1e-12)


@pytest.mark.parametrize("signal, level, crossings, extrema", [
    (sg.piecewise_linear([(0, 1), (1, 0), (3, 0)]), 0.0, (1.0,), (0.0, 1.0)),
    (sg.piecewise_linear([(0, 0), (1, 1), (1.5, 0.8), (2, 1)]), 1.0, (1.0, 2.0),
     (0.0, 1.0, 1.5, 2.0)),
    (sg.sinusoidal(1.0, 1.0, np.pi / 2), 0.0, (np.pi / 2,), (0.0, np.pi)),
    (sg.cosine_clipped(1.0, np.pi / 2), 0.0, (np.pi / 2,), (0.0, np.pi / 2)),
    (sg.cosine_clipped(1.0, 1.0), 0.3, (1.0,), (0.0, 1.0)),  # jumps from cos 1 across 0.3
    (sg.exp_decay(0.5), 0.0, (), ()),
    (sg.inverse_gap(2.0), 0.0, (), ()),
    (sg.constant(1.0), 0.0, (), ()),
], ids=["pl_flat_zero", "pl_dip", "cosine", "clipped", "clip_jump", "exp_decay", "inverse_gap",
        "constant"])
def test_crossings_and_extrema_of_the_preset_signals(signal, level, crossings, extrema):
    assert signal.crossings_and_extrema(level, np.pi) == (crossings, extrema)


def test_a_fast_sinusoid_lists_no_landmarks_and_its_family_no_candidates():
    fast = sg.sinusoidal(0.4, 1e9, np.pi / 2, 0.6)
    with pytest.raises(ValueError, match=f"more than {sg.MAX_LANDMARKS} landmarks"):
        fast.crossings_and_extrema(0.0, np.pi)
    assert preset_amplitude_damping(g=fast, t_max=np.pi).candidates == ()  # bisection decides
