"""Optimal detection weights and the parameter sweeps behind the figure tables.

The sensitivity of the estimator w . n is sqrt(w C w) / |w . d| on the
photocount covariance C and slope d of one configuration, so the best
weights maximise the generalised Rayleigh quotient (w . d)^2 / w C w.
Its maximiser is w* = C^-1 d, with minimum sensitivity 1/sqrt(d C^-1 d):
optimize_weights computes the moments of its probe configuration once
and solves one linear system on them.  On vacuum input the conserved
difference (1, -1, -1) is an exact null direction of C and d, and the
solve runs on the plane orthogonal to it.

The sweeps skip divergent cells (infinite or undefined sensitivity)
rather than failing.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import InputState
from .interferometer import InterferometerConfig
from .sensitivity import (
    DetectorWeights,
    LimitResult,
    SensitivityReport,
    n_total,
    phase_sensitivity,
    sensitivity_from_moments,
    sensitivity_moments,
    zero_phase_limit,
)

# columns span the plane w . (1, -1, -1) = 0
_CONSERVED_COMPLEMENT = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


class AllDivergentError(RuntimeError):
    """No weight choice produces a finite sensitivity."""


@dataclass(frozen=True)
class OptimizationResult:
    """Optimal weights and their sensitivity at the probe point.

    point holds the free weight ratios: (w2/w1, w3/w1) with no port
    pinned, otherwise the later free weight over the earlier one (r/t
    for fixed_zero = 1, r/s for 2, t/s for 3); a zero pivot weight makes
    them infinite.  value is report.delta_phi, limit is the exact
    zero-phase limit of the same weights, and evaluations counts the
    weight vectors evaluated (the one solution).
    """

    point: tuple
    value: float
    weights: DetectorWeights
    report: SensitivityReport
    limit: LimitResult
    evaluations: int


def _probe_config(beta1, beta2, epsilon, phase_index):
    phis = [0.0, 0.0, 0.0]
    phis[phase_index - 1] = epsilon
    return InterferometerConfig.balanced(beta1, beta2, *phis)


def optimize_weights(state, beta1, beta2, phase_index=1, *, epsilon=1e-3,
                     fixed_zero=None):
    """Best detection weights for the balanced cascade at probe offset epsilon.

    fixed_zero = 1, 2 or 3 pins that port's weight to zero and optimises
    the other two (the right space when, e.g., coherent light in port 1
    makes every estimator with a port-1 weight diverge at zero phase).
    Raises AllDivergentError when no weights carry a finite sensitivity,
    as at zero gain.
    """
    if fixed_zero not in (None, 1, 2, 3):
        raise ValueError(f"fixed_zero must be None or 1..3, got {fixed_zero}")
    free = np.delete(np.arange(3), fixed_zero - 1) if fixed_zero else np.arange(3)
    basis = np.eye(3)[:, free]
    if fixed_zero is None and not any(state.alpha):
        # null only on vacuum: coherent light gives n1 - n2 - n3 shot noise
        basis = _CONSERVED_COMPLEMENT
    moments = sensitivity_moments(_probe_config(beta1, beta2, epsilon, phase_index),
                                  state, phase_index)
    _, cov, dmean = moments
    divergent = f"no weights carry a finite sensitivity at beta = ({beta1}, {beta2})"
    try:
        w = basis @ np.linalg.solve(basis.T @ cov @ basis, basis.T @ dmean)
        weights = DetectorWeights(*w).normalized()
    except (np.linalg.LinAlgError, ValueError):  # singular noise, or w* = 0
        raise AllDivergentError(divergent) from None
    report = sensitivity_from_moments(moments, weights)
    if not math.isfinite(report.delta_phi):
        raise AllDivergentError(divergent)
    ratios = weights.as_array()[free]
    with np.errstate(divide="ignore", invalid="ignore"):
        point = tuple(float(x) for x in ratios[1:] / ratios[0])
    return OptimizationResult(
        point=point,
        value=report.delta_phi,
        weights=weights,
        report=report,
        limit=zero_phase_limit(state, beta1, beta2, weights, phase_index),
        evaluations=1,
    )


# ---------------------------------------------------------------------------
# Sweep tables (row lists; the cli module turns these into CSV files).
# ---------------------------------------------------------------------------

def phase_surface(beta1, beta2, weights=(1.0, 0.0, 1.0), phi1=1e-3,
                  phi_lo=-np.pi, phi_hi=np.pi, points=61, state=None):
    """dphi_1 over a (phi2, phi3) grid at a small fixed probe phase phi1.

    Rows are (phi2, phi3, dphi1) in row-major phi2-outer order.
    """
    if state is None:
        state = InputState.vacuum()
    axis = np.linspace(phi_lo, phi_hi, points)
    rows = []
    for p2 in axis:
        for p3 in axis:
            cfg = InterferometerConfig.balanced(beta1, beta2, phi1, float(p2), float(p3))
            rep = phase_sensitivity(cfg, state, weights, 1)
            rows.append((float(p2), float(p3), rep.delta_phi))
    return rows


def weight_surface(state, beta1, beta2, bounds=(-3.0, 3.0), points=61,
                   epsilon=1e-3, phase_index=1):
    """dphi over the (t/s, r/s) plane; divergent cells recorded as nan.

    Rows are (t_over_s, r_over_s, dphi).
    """
    cfg = _probe_config(beta1, beta2, epsilon, phase_index)
    moments = sensitivity_moments(cfg, state, phase_index)
    axis = np.linspace(bounds[0], bounds[1], points)
    rows = []
    for t in axis:
        for r in axis:
            rep = sensitivity_from_moments(moments, (1.0, float(t), float(r)))
            v = rep.delta_phi if math.isfinite(rep.delta_phi) else math.nan
            rows.append((float(t), float(r), v))
    return rows


def scaling_curve(sweep, samples, partner=3.0, weights=(1.0, 0.0, 1.0),
                  port=None, amplitude=0.0, phase_indices=(1,)):
    """Sensitivity versus total midpoint photon number along a 1-d sweep.

    sweep selects what the sample values mean:
      "fix_beta1"  beta1 = partner, beta2 = sample
      "fix_beta2"  beta2 = partner, beta1 = sample
      "diagonal"   beta1 = beta2 = sample
      "alpha"      beta1 = beta2 = partner, |alpha| = sample

    port (1..3) injects coherent light of modulus `amplitude` (or the
    sample itself for the "alpha" sweep); otherwise vacuum.  Each row is
    (sample, n_total, dphi for each requested phase index..., 1/n_total),
    with divergent limits recorded as inf.
    """
    rows = []
    for x in samples:
        x = float(x)
        if sweep == "fix_beta1":
            b1, b2, amp = partner, x, amplitude
        elif sweep == "fix_beta2":
            b1, b2, amp = x, partner, amplitude
        elif sweep == "diagonal":
            b1, b2, amp = x, x, amplitude
        elif sweep == "alpha":
            if port is None:
                raise ValueError("alpha sweep needs a port")
            b1, b2, amp = partner, partner, x
        else:
            raise ValueError(f"unknown sweep {sweep!r}")
        state = InputState.coherent(port, amp) if port else InputState.vacuum()
        cfg = InterferometerConfig.balanced(b1, b2)
        n = n_total(cfg, state)
        dphis = []
        for j in phase_indices:
            res = zero_phase_limit(state, b1, b2, weights, phase_index=j)
            dphis.append(res.delta_phi)
        rows.append((x, n, *dphis, 1.0 / n if n > 0 else math.inf))
    return rows


def optimal_ratio_surface(port, beta2_values, alpha_values, beta1=None,
                          phase_index=1, *, epsilon=1e-3):
    """Optimal free weight ratio over a (beta2, |alpha|) grid.

    port 1 pins the bright-port weight to zero and reports r/t; port 3
    pins the third weight and reports t/s.  beta1 = None runs on the
    equal-gain diagonal beta1 = beta2.  Rows are (beta2, alpha_abs,
    opt_ratio); cells where every ratio diverges yield nan.
    """
    if port not in (1, 3):
        raise ValueError("ratio surfaces are defined for coherent port 1 or 3")
    rows = []
    for b2 in beta2_values:
        b2 = float(b2)
        b1 = b2 if beta1 is None else float(beta1)
        for a in alpha_values:
            a = float(a)
            state = InputState.coherent(port, a) if a != 0.0 else InputState.vacuum()
            try:
                res = optimize_weights(state, b1, b2, phase_index,
                                       epsilon=epsilon, fixed_zero=port)
                ratio = res.point[0]
            except AllDivergentError:
                ratio = math.nan
            rows.append((b2, a, ratio))
    return rows
