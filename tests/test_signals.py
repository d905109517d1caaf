import numpy as np
import pytest
from scipy.integrate import quad

from markovlens import signals as sg


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


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        sg.piecewise_linear([(0, 1)])
    with pytest.raises(ValueError):
        sg.piecewise_linear([(0, 1), (0, 2)])
