"""Optimal detection weights and the parameter sweeps behind the figure tables.

The zero-phase sensitivity of the estimator w . n follows from the power
series of the photocount covariance C(eps) = C0 + C1 eps + C2 eps^2 and
slope d(eps) = d0 + d1 eps in the probe offset eps.  For vacuum or
coherent light in one port, d0 = 0 and C0 is the shot noise of the lit
port, so any weight on the lit port diverges.  On the unlit ports, which
are exactly the null space of C0, C1 vanishes too and the limit is
sqrt(w C2 w) / |w . d1|.  The best weights maximise the generalised
Rayleigh quotient (w . d1)^2 / w C2 w there, so optimize_weights solves
C2 w = d1 on the unlit ports with the pseudo-inverse, singular values
below NO_SIGNAL_RTOL of the largest cut off.  That one solve covers the
conserved difference (1, -1, -1), an exact null direction of C2 on
vacuum; the rank-1 C2 of the second phase; and ports pinned to zero.
The zero-phase limit of the solution certifies it.

Gain arrays are solved in one call, and the sweeps make one call per
input state.  They skip divergent cells (infinite or undefined
sensitivity) rather than failing.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import InputState
from .interferometer import InterferometerConfig
from .sensitivity import (
    NO_SIGNAL_RTOL,
    LimitResult,
    _unstack,
    limit_from_moments,
    n_total,
    phase_sensitivity,
    require_convergent,
    zero_phase_moments,
)


class AllDivergentError(RuntimeError):
    """No weight choice produces a finite sensitivity."""


@dataclass(frozen=True)
class OptimizationResult:
    """Optimal weights and their exact zero-phase sensitivity.

    weights (..., 3) have +1 as their largest-magnitude entry.  point
    (..., n_free - 1) holds the ratios of the free weights, the later ones
    over the first: (w2/w1, w3/w1) on vacuum with no port pinned; with one
    lit or pinned port left out, r/t when it is port 1, r/s for port 2 and
    t/s for port 3; empty when one port is free.  A zero first free weight
    makes the ratios infinite.  On a gain stack, limit holds arrays, and a
    cell with no finite sensitivity is nan.  Its status is "overflow" where
    the cell's photocount moments are not finite and "divergent" otherwise;
    a finite cell is "ok" (see LimitResult).  evaluations counts the weight
    vectors evaluated, one per cell.
    """

    point: np.ndarray
    weights: np.ndarray
    limit: LimitResult
    evaluations: int

    @property
    def value(self):
        return self.limit.delta_phi


def optimize_weights(state, beta1, beta2, phase_index=1, *, fixed_zero=None):
    """Best zero-phase detection weights for the balanced cascade.

    The weight of a lit port is zero.  fixed_zero = 1, 2 or 3 pins that
    port's weight to zero too and optimises the others.  Gain arrays are
    solved cell by cell.  Raises ValueError for light in more than one
    port, whose slope has an eps^0 term on every port (a different
    regime), and AllDivergentError when no cell has weights with a finite
    sensitivity, as at zero gain.
    """
    if fixed_zero not in (None, 1, 2, 3):
        raise ValueError(f"fixed_zero must be None or 1..3, got {fixed_zero}")
    lit = np.flatnonzero(state.alpha_vector)
    if lit.size > 1:
        raise ValueError("the zero-phase optimum needs vacuum or light in one port, "
                         f"got light in ports {', '.join(str(k + 1) for k in lit)}")
    out = [*lit, *([fixed_zero - 1] if fixed_zero else [])]
    free = np.setdiff1d(np.arange(3), out)
    moments = zero_phase_moments(state, beta1, beta2, phase_index)
    cov, slope = moments
    c2 = cov[0, ..., 2, :, :][..., free[:, None], free]
    w = np.zeros((*c2.shape[:-2], 3))
    # cells whose moments are not finite are nan: solved as C2 = 0, they get nan weights
    w[..., free] = (np.linalg.pinv(np.nan_to_num(c2), rcond=NO_SIGNAL_RTOL)
                    @ slope[0, ..., 1, :][..., free, None])[..., 0]
    pivot = np.take_along_axis(w, np.argmax(np.abs(w), axis=-1)[..., None], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = w / pivot  # w = 0, no slope on the free ports, gives nan
    dphi, p, q = limit_from_moments(moments, w)
    finite = np.isfinite(dphi)
    if not finite.any():
        raise AllDivergentError(
            f"no weights carry a finite sensitivity at beta = ({beta1}, {beta2})")
    w[~finite] = math.nan
    ratios = w[..., free]
    with np.errstate(divide="ignore", invalid="ignore"):
        point = ratios[..., 1:] / ratios[..., :1]
    overflow = np.isnan(c2).any(axis=(-2, -1))
    status = np.where(finite, "ok", np.where(overflow, "overflow", "divergent"))
    return OptimizationResult(
        point=point,
        weights=w,
        limit=LimitResult(_unstack(np.where(finite, dphi, math.nan)), _unstack(status),
                          (_unstack(p), _unstack(q))),
        evaluations=finite.size,
    )


# ---------------------------------------------------------------------------
# Sweep tables (row lists; the cli module turns these into CSV files).
# ---------------------------------------------------------------------------

def phase_surface(beta1, beta2, weights=(1.0, 0.0, 1.0), phi1=1e-3,
                  phi_lo=-np.pi, phi_hi=np.pi, points=61):
    """dphi_1 over a (phi2, phi3) grid at a small fixed probe phase phi1, on vacuum.

    Rows are (phi2, phi3, dphi1) in row-major phi2-outer order.  Each phi2
    row is one stacked phase_sensitivity call over the phi3 axis, which
    keeps the working arrays at one row's size; every cell equals the
    call on its own configuration.
    """
    axis = np.linspace(phi_lo, phi_hi, points)
    rows = []
    for p2 in axis:
        cfg = InterferometerConfig.balanced(beta1, beta2, phi1, float(p2), axis)
        dphi = phase_sensitivity(cfg, InputState.vacuum(), weights, 1).delta_phi
        rows.extend((float(p2), float(p3), float(d)) for p3, d in zip(axis, dphi))
    return rows


def weight_surface(state, beta1, beta2, bounds=(-3.0, 3.0), points=61,
                   phase_index=1):
    """Zero-phase dphi over the (t/s, r/s) plane; divergent cells recorded as nan.

    Rows are (t_over_s, r_over_s, dphi).
    """
    axis = np.linspace(bounds[0], bounds[1], points)
    t, r = np.meshgrid(axis, axis, indexing="ij")
    weights = np.stack([np.ones_like(t), t, r], axis=-1).reshape(-1, 3)
    dphi, _, _ = limit_from_moments(
        zero_phase_moments(state, beta1, beta2, phase_index), weights)
    dphi[~np.isfinite(dphi)] = math.nan
    return [(float(w[1]), float(w[2]), float(d)) for w, d in zip(weights, dphi)]


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
    with divergent limits recorded as inf.  Each input state is one call
    per phase index: a gain sweep has one state, an alpha sweep one per sample.
    """
    x = np.asarray(samples, dtype=float)
    gains = {"fix_beta1": (partner, x), "fix_beta2": (x, partner), "diagonal": (x, x),
             "alpha": (partner, partner)}
    if sweep not in gains:
        raise ValueError(f"unknown sweep {sweep!r}")
    if sweep == "alpha" and port is None:
        raise ValueError("alpha sweep needs a port")
    b1, b2 = gains[sweep]
    states = ([InputState.coherent(port, a) for a in x] if sweep == "alpha" else
              [InputState.coherent(port, amplitude) if port else InputState.vacuum()])
    columns = [[n_total((b1, b2), s) for s in states]]
    for j in phase_indices:
        columns.append([require_convergent(*limit_from_moments(
            zero_phase_moments(s, b1, b2, j), weights))[0] for s in states])
    n, *dphis = (np.reshape(c, x.shape) for c in columns)
    with np.errstate(divide="ignore"):
        heisenberg = np.where(n == 0, math.inf, 1.0 / n)
    return [tuple(row) for row in np.column_stack([x, n, *dphis, heisenberg]).tolist()]


def optimal_ratio_surface(port, beta2_values, alpha_values, beta1=None):
    """Optimal free weight ratio of the first phase over a (beta2, |alpha|) grid.

    port 1 pins the bright-port weight to zero and reports r/t; port 3
    pins the third weight and reports t/s.  beta1 = None runs on the
    equal-gain diagonal beta1 = beta2.  Rows are (beta2, alpha_abs,
    opt_ratio); cells where every ratio diverges yield nan.
    """
    if port not in (1, 3):
        raise ValueError("ratio surfaces are defined for coherent port 1 or 3")
    b2 = np.asarray(beta2_values, dtype=float)
    alphas = np.asarray(alpha_values, dtype=float)
    b1 = b2 if beta1 is None else float(beta1)
    # one solve per |alpha| over the beta2 axis; the pinned port is the lit one
    ratio = np.full((b2.size, alphas.size), math.nan)
    for k, a in enumerate(alphas):
        try:
            ratio[:, k] = optimize_weights(InputState.coherent(port, a), b1, b2,
                                           fixed_zero=port).point[..., 0]
        except AllDivergentError:
            pass
    return [(x, a, r) for x, row in zip(b2.tolist(), ratio.tolist())
            for a, r in zip(alphas.tolist(), row)]
