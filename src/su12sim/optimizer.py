"""Detection-weight search and the parameter sweeps behind the figure tables.

All searches are deterministic: dense coarse grid, then local refinement
with a halving step, ties broken by first-encountered cell in row-major
order.  Cells whose sensitivity is divergent (infinite or undefined) are
skipped rather than fatal; only an entirely divergent grid is an error.

A weight search or weight surface computes the photocount moments of its
probe configuration once and evaluates every weight candidate on them,
one weight vector at a time, with the arithmetic of phase_sensitivity.
"""

import math
from dataclasses import dataclass, replace

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


class AllDivergentError(RuntimeError):
    """No grid cell produced a finite sensitivity."""


@dataclass(frozen=True)
class WeightSearchSpec:
    """Search space for the free weight ratios.

    With fixed_zero None the search runs over (t/s, r/s) with the
    bright-port weight s = 1.  fixed_zero = 1, 2 or 3 pins that port's
    weight to zero and searches the single remaining ratio (e.g.
    fixed_zero = 1 searches r/t with weights (0, 1, r/t), the right
    space when coherent light in port 1 makes every s != 0 estimator
    diverge).
    """

    bounds: tuple = (-3.0, 3.0)
    points: int = 61
    rounds: int = 3
    epsilon: float = 1e-3
    fixed_zero: int | None = None

    def initial_step(self):
        lo, hi = self.bounds
        return (hi - lo) / (self.points - 1)

    def weights_at(self, point):
        if self.fixed_zero is None:
            t, r = point
            return np.array([1.0, t, r])
        u = point[0]
        if self.fixed_zero == 1:
            return np.array([0.0, 1.0, u])
        if self.fixed_zero == 2:
            return np.array([1.0, 0.0, u])
        if self.fixed_zero == 3:
            return np.array([1.0, u, 0.0])
        raise ValueError(f"fixed_zero must be None or 1..3, got {self.fixed_zero}")


@dataclass(frozen=True)
class OptimizationResult:
    point: tuple
    value: float
    step: float
    weights: DetectorWeights
    report: SensitivityReport
    limit: LimitResult
    evaluations: int


def _probe_config(beta1, beta2, epsilon, phase_index):
    phis = [0.0, 0.0, 0.0]
    phis[phase_index - 1] = epsilon
    return InterferometerConfig.balanced(beta1, beta2, *phis)


def optimize_weights(state, beta1, beta2, spec=None, phase_index=1):
    """Best detection weights for the balanced cascade at small probe phase.

    Coarse grid over the free ratios, then `spec.rounds` refinement
    passes that halve the step and scan the 3^d neighborhood of the
    incumbent (clipped to the bounds), moving only on strict
    improvement.  The objective is dphi at offset spec.epsilon; the
    returned result also carries the exact zero-phase limit of the
    winning weights as a consistency spot check.
    """
    if spec is None:
        spec = WeightSearchSpec()
    cfg = _probe_config(beta1, beta2, spec.epsilon, phase_index)
    moments = sensitivity_moments(cfg, state, phase_index)
    evaluations = 0

    def objective(point):
        nonlocal evaluations
        evaluations += 1
        rep = sensitivity_from_moments(moments, spec.weights_at(point))
        return rep.delta_phi if math.isfinite(rep.delta_phi) else math.inf

    axis = np.linspace(spec.bounds[0], spec.bounds[1], spec.points)
    if spec.fixed_zero is None:
        grid = [(float(t), float(r)) for t in axis for r in axis]
    else:
        grid = [(float(u),) for u in axis]

    best_point, best_value = None, math.inf
    for p in grid:
        v = objective(p)
        if v < best_value:
            best_point, best_value = p, v
    if best_point is None:
        raise AllDivergentError(
            f"no finite sensitivity anywhere on the {len(grid)}-cell grid"
        )

    step = spec.initial_step()
    lo, hi = spec.bounds
    for _ in range(spec.rounds):
        step /= 2.0
        offsets = (-step, 0.0, step)
        if spec.fixed_zero is None:
            neighbors = [
                (best_point[0] + dt, best_point[1] + dr)
                for dt in offsets
                for dr in offsets
            ]
        else:
            neighbors = [(best_point[0] + du,) for du in offsets]
        for p in neighbors:
            p = tuple(min(max(c, lo), hi) for c in p)
            if p == best_point:
                continue
            v = objective(p)
            if v < best_value:
                best_point, best_value = p, v

    w = spec.weights_at(best_point)
    weights = DetectorWeights(*w).normalized()
    report = sensitivity_from_moments(moments, weights)
    limit = zero_phase_limit(state, beta1, beta2, weights, phase_index)
    return OptimizationResult(
        point=best_point,
        value=best_value,
        step=step,
        weights=weights,
        report=report,
        limit=limit,
        evaluations=evaluations,
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
                          spec=None, phase_index=1):
    """Optimal free weight ratio over a (beta2, |alpha|) grid.

    port 1 pins the bright-port weight to zero and reports r/t; port 3
    pins the third weight and reports t/s.  beta1 = None runs on the
    equal-gain diagonal beta1 = beta2.  Rows are (beta2, alpha_abs,
    opt_ratio); cells where every ratio diverges yield nan.
    """
    if port not in (1, 3):
        raise ValueError("ratio surfaces are defined for coherent port 1 or 3")
    if spec is None:
        spec = WeightSearchSpec()
    spec = replace(spec, fixed_zero=port)
    rows = []
    for b2 in beta2_values:
        b2 = float(b2)
        b1 = b2 if beta1 is None else float(beta1)
        for a in alpha_values:
            a = float(a)
            state = InputState.coherent(port, a) if a != 0.0 else InputState.vacuum()
            try:
                res = optimize_weights(state, b1, b2, spec, phase_index)
                ratio = res.point[0]
            except AllDivergentError:
                ratio = math.nan
            rows.append((b2, a, ratio))
    return rows
