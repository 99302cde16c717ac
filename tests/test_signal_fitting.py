"""Tests for the curve-fitting routines behind Figures 4 and 5."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.signal.fitting import fit_hyperbola, fit_power_law, r_squared


def test_cli_import_leaves_scipy_unloaded():
    """scipy is imported by fit_hyperbola alone, not at package import:
    a fresh interpreter importing the CLI must not load it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


class TestRSquared:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == 1.0

    def test_mean_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.full(3, y.mean())
        assert r_squared(y, pred) == pytest.approx(0.0)

    def test_constant_observed(self):
        y = np.full(4, 2.0)
        assert r_squared(y, y) == 1.0
        assert r_squared(y, y + 1.0) == 0.0


class TestHyperbolicFit:
    def test_recovers_exact_parameters(self):
        d = np.linspace(4, 30, 27)
        v = 11.8 / (d + 0.42) + 0.08
        fit = fit_hyperbola(d, v)
        assert fit.a == pytest.approx(11.8, rel=1e-3)
        assert fit.b == pytest.approx(0.42, abs=1e-2)
        assert fit.c == pytest.approx(0.08, abs=1e-2)
        assert fit.r2 > 0.99999

    def test_robust_to_noise(self):
        rng = np.random.default_rng(5)
        d = np.linspace(4, 30, 27)
        v = 11.8 / (d + 0.42) + 0.08 + rng.normal(0, 0.01, d.size)
        fit = fit_hyperbola(d, v)
        assert fit.a == pytest.approx(11.8, rel=0.05)
        assert fit.r2 > 0.995

    def test_voltage_distance_roundtrip(self):
        d = np.linspace(4, 30, 27)
        v = 11.8 / (d + 0.42) + 0.08
        fit = fit_hyperbola(d, v)
        for dist in (5.0, 12.0, 25.0):
            voltage = float(fit.voltage(dist))
            assert float(fit.distance(voltage)) == pytest.approx(dist, rel=1e-3)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_hyperbola(np.array([4.0, 5.0]), np.array([2.0, 1.8]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_hyperbola(np.array([4.0, 5.0, 6.0]), np.array([2.0, 1.8]))

    @given(
        a=st.floats(min_value=5.0, max_value=20.0),
        b=st.floats(min_value=-0.5, max_value=3.0),
        c=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_exact_recovery(self, a, b, c):
        d = np.linspace(4, 30, 40)
        v = a / (d + b) + c
        fit = fit_hyperbola(d, v)
        predicted = fit.voltage(d)
        assert float(np.max(np.abs(predicted - v))) < 1e-4


class TestPowerLawFit:
    def test_recovers_exact_power_law(self):
        d = np.linspace(4, 30, 27)
        v = 9.0 * d**-0.85
        fit = fit_power_law(d, v)
        assert fit.k == pytest.approx(9.0, rel=1e-6)
        assert fit.p == pytest.approx(-0.85, abs=1e-9)
        assert fit.r2_log == pytest.approx(1.0)

    def test_rejects_nonpositive_data(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0, 2.0]), np.array([1.0, -1.0]))

    def test_sensor_curve_is_nearly_power_law(self):
        """The GP2D120 hyperbola looks like a straight line in log-log —
        the entire point of Figure 5."""
        d = np.linspace(4, 30, 27)
        v = 11.8 / (d + 0.42) + 0.08
        fit = fit_power_law(d, v)
        assert fit.r2_log > 0.998
