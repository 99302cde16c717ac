"""Curve fitting for the GP2D120 calibration (Figures 4 and 5).

The paper fits an "idealized curve" through measured (distance, voltage)
samples and reports that in log space the samples "nearly perfectly fit the
curve".  The standard model for Sharp triangulation sensors is the shifted
hyperbola

    V(d) = a / (d + b) + c

which is linear in ``a`` and ``c`` for fixed ``b``; we solve the inner linear
problem exactly and search ``b`` with scipy.  scipy is imported inside
:func:`fit_hyperbola`, the one function that needs it, so importing the
package (``import repro.cli``) does not pay for ``scipy.optimize``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HyperbolicFit",
    "fit_hyperbola",
    "fit_power_law",
    "r_squared",
    "PowerLawFit",
]


@dataclass(frozen=True)
class HyperbolicFit:
    """Result of fitting ``V(d) = a / (d + b) + c``.

    Attributes
    ----------
    a, b, c:
        Fitted parameters.  ``a`` has units V*cm, ``b`` cm, ``c`` V.
    residual_rms:
        Root-mean-square residual in volts.
    r2:
        Coefficient of determination on the raw (linear-axis) data.
    """

    a: float
    b: float
    c: float
    residual_rms: float
    r2: float

    def voltage(self, distance_cm: np.ndarray | float) -> np.ndarray | float:
        """Predicted voltage at the given distance(s)."""
        return self.a / (np.asarray(distance_cm, dtype=float) + self.b) + self.c

    def distance(self, voltage: np.ndarray | float) -> np.ndarray | float:
        """Invert the fit: distance producing the given voltage(s).

        Only valid for voltages inside the monotone branch (above ``c``).
        """
        v = np.asarray(voltage, dtype=float)
        return self.a / (v - self.c) - self.b


@dataclass(frozen=True)
class PowerLawFit:
    """Result of fitting ``V(d) = k * d ** p`` in log-log space (Figure 5)."""

    k: float
    p: float
    r2_log: float

    def voltage(self, distance_cm: np.ndarray | float) -> np.ndarray | float:
        """Predicted voltage at the given distance(s)."""
        # reprolint: allow REP007 (calibration-time curve evaluation with no scalar twin — there is no oracle for SIMD pow to diverge from)
        return self.k * np.asarray(distance_cm, dtype=float) ** self.p


def r_squared(observed: np.ndarray, predicted: np.ndarray) -> float:
    """Coefficient of determination of ``predicted`` against ``observed``."""
    observed = np.asarray(observed, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    ss_res = float(np.sum((observed - predicted) ** 2))
    ss_tot = float(np.sum((observed - observed.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def _solve_linear_part(
    distances: np.ndarray, voltages: np.ndarray, b: float
) -> tuple[float, float, float]:
    """For fixed ``b`` solve least-squares for ``a`` and ``c``; return rss."""
    basis = 1.0 / (distances + b)
    design = np.column_stack([basis, np.ones_like(basis)])
    coeffs, _, _, _ = np.linalg.lstsq(design, voltages, rcond=None)
    residuals = voltages - design @ coeffs
    return float(coeffs[0]), float(coeffs[1]), float(np.sum(residuals**2))


def fit_hyperbola(
    distances_cm: np.ndarray,
    voltages: np.ndarray,
    b_bounds: tuple[float, float] = (-2.0, 20.0),
) -> HyperbolicFit:
    """Fit the idealized sensor curve ``V = a/(d+b) + c`` (Figure 4).

    Parameters
    ----------
    distances_cm:
        Distances of the measured samples, in cm.  Must all exceed the lower
        bound of ``b_bounds`` negated (so ``d + b`` stays positive).
    voltages:
        Measured analog voltages at the Smart-Its input port.
    b_bounds:
        Search interval for the distance offset ``b``.

    Returns
    -------
    HyperbolicFit
        Fitted parameters with fit-quality statistics.
    """
    distances = np.asarray(distances_cm, dtype=float)
    voltages_arr = np.asarray(voltages, dtype=float)
    if distances.shape != voltages_arr.shape:
        raise ValueError("distances and voltages must have the same shape")
    if distances.size < 3:
        raise ValueError("need at least 3 samples to fit three parameters")

    from scipy import optimize

    lo = max(b_bounds[0], -float(distances.min()) + 1e-3)
    hi = b_bounds[1]
    result = optimize.minimize_scalar(
        lambda b: _solve_linear_part(distances, voltages_arr, b)[2],
        bounds=(lo, hi),
        method="bounded",
    )
    b = float(result.x)
    a, c, rss = _solve_linear_part(distances, voltages_arr, b)
    fit = HyperbolicFit(
        a=a,
        b=b,
        c=c,
        residual_rms=float(np.sqrt(rss / distances.size)),
        r2=r_squared(voltages_arr, a / (distances + b) + c),
    )
    return fit


def fit_power_law(
    distances_cm: np.ndarray, voltages: np.ndarray
) -> PowerLawFit:
    """Fit ``V = k * d**p`` by linear regression in log-log space.

    This is the straight line of Figure 5: on logarithmic axes the measured
    values "nearly perfectly fit the curve".
    """
    distances = np.asarray(distances_cm, dtype=float)
    voltages_arr = np.asarray(voltages, dtype=float)
    if np.any(distances <= 0) or np.any(voltages_arr <= 0):
        raise ValueError("power-law fit needs strictly positive data")
    log_d = np.log(distances)
    log_v = np.log(voltages_arr)
    design = np.column_stack([log_d, np.ones_like(log_d)])
    coeffs, _, _, _ = np.linalg.lstsq(design, log_v, rcond=None)
    p, log_k = float(coeffs[0]), float(coeffs[1])
    predicted = design @ coeffs
    return PowerLawFit(k=float(np.exp(log_k)), p=p, r2_log=r_squared(log_v, predicted))
