"""Phase sensitivity of weighted photon-number detection.

The estimator is a weighted sum of output photocounts, O = w1 n1 +
w2 n2 + w3 n3.  Its phase sensitivity by error propagation is

    dphi_j = sqrt(Var O) / |d<O>/dphi_j|,

evaluated at a working point of the cascade.  It depends on the
configuration only through the photocount means, their covariance C and
the slope vector d = d<n>/dphi_j: dphi_j = sqrt(w C w) / |w . d|.
sensitivity_moments computes these once per configuration,
sensitivity_from_moments evaluates one weight vector on them, and
phase_sensitivity is the composition of the two.

The quantity of interest is usually the limit of dphi_1 as the probe
phase goes to zero, taken in the balanced configuration where the
cascade is self-cancelling.
Both the variance and the slope vanish there, so the limit is computed
by evaluating at a ladder of small offsets and extrapolating; the
dependence on the offset is quadratic, which makes a two-point
Richardson step exact up to the next order.

Some weight choices carry no signal at all.  The combination
proportional to (1, -1, -1) measures the conserved photon-number
difference and has zero variance and zero slope on vacuum; coherent
light in the bright port makes any estimator with nonzero bright-port
weight blow up as the offset shrinks.  Such cases are reported as
divergent rather than raising, so that parameter scans can skip them.

On vacuum input the balanced cascade has a large degeneracy: the
zero-phase sensitivity depends on the weights only through the single
combination returned by DetectorWeights.vacuum_invariant, so whole
lines in the weight plane share one sensitivity value.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    BogoliubovTransform,
    InputState,
    estimator_stats,
    photon_statistics,
    propagate,
)
from .interferometer import InterferometerConfig, chronological_product


class NonConvergentLimitError(RuntimeError):
    """Zero-phase ladder neither converges nor diverges cleanly."""


@dataclass(frozen=True)
class DetectorWeights:
    """Weights (w1, w2, w3) of the photon-number estimator."""

    w1: float
    w2: float
    w3: float

    @classmethod
    def from_ratios(cls, t_over_s, r_over_s):
        """Weights (1, t/s, r/s) with the bright-port weight fixed to one."""
        return cls(1.0, float(t_over_s), float(r_over_s))

    def as_array(self):
        return np.array([self.w1, self.w2, self.w3], dtype=float)

    def normalized(self):
        """Rescale so the largest-magnitude component becomes +1."""
        w = self.as_array()
        pivot = w[np.argmax(np.abs(w))]
        if pivot == 0.0:
            raise ValueError("cannot normalize all-zero weights")
        return DetectorWeights(*(float(x) for x in w / pivot))

    def vacuum_invariant(self):
        """Combination (w1 - w2 + 2 w3) / (3 (w1 + w2)).

        Vacuum-input zero-phase sensitivity of the balanced cascade is a
        function of this value alone; weights sharing it are equivalent
        detectors there.  Infinite for the conserved-difference family
        w1 + w2 = 0.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(
                np.divide(self.w1 - self.w2 + 2.0 * self.w3, 3.0 * (self.w1 + self.w2))
            )


def _as_weight_array(weights):
    if isinstance(weights, DetectorWeights):
        return weights.as_array()
    return np.asarray(weights, dtype=float)


def _phase_stage_derivative(phi1, phi2, phi3, phase_index):
    """Entrywise derivative of the phase stage with respect to one phase."""
    d = np.zeros((3, 3), dtype=complex)
    if phase_index == 1:
        d[0, 0] = 1j * np.exp(1j * phi1)
    elif phase_index == 2:
        d[1, 1] = -1j * np.exp(-1j * phi2)
    elif phase_index == 3:
        d[2, 2] = -1j * np.exp(-1j * phi3)
    else:
        raise ValueError(f"phase index must be 1..3, got {phase_index}")
    return d


def _mean_vector_derivative(config, state, phase_index, method="analytic", h=1e-5,
                            mats=None):
    """d<n_i>/dphi_j for all three modes, as a real 3-vector.

    mats are the configuration's stage matrices, if already built.
    """
    if method == "numeric":
        phis = [config.phi1, config.phi2, config.phi3]
        up, dn = list(phis), list(phis)
        up[phase_index - 1] += h
        dn[phase_index - 1] -= h
        mp, _ = photon_statistics(propagate(config.with_phases(*up), state))
        mm, _ = photon_statistics(propagate(config.with_phases(*dn), state))
        return (mp - mm) / (2.0 * h)
    if method != "analytic":
        raise ValueError(f"unknown derivative method {method!r}")

    S1, S2, P, S3, S4 = config.stage_matrices() if mats is None else mats
    # left-associated, unlike total_matrix: each product keeps its own
    # order because the last bits of every reported value depend on it
    S = S4 @ S3 @ P @ S2 @ S1
    dP = _phase_stage_derivative(config.phi1, config.phi2, config.phi3, phase_index)
    dS = S4 @ S3 @ dP @ S2 @ S1

    # the block split is R-linear in the matrix entries, so it commutes
    # with differentiation in a real parameter
    bog = BogoliubovTransform.from_mode_matrix(S)
    dbog = BogoliubovTransform.from_mode_matrix(dS)
    alpha = state.alpha_vector
    mu = bog.A @ alpha + bog.B @ np.conj(alpha)
    dmu = dbog.A @ alpha + dbog.B @ np.conj(alpha)
    # <n_i> = sum_k |B_ik|^2 + |mu_i|^2
    dmean = 2.0 * np.sum(np.real(np.conj(bog.B) * dbog.B), axis=1)
    dmean += 2.0 * np.real(np.conj(mu) * dmu)
    return dmean


def mean_derivative(config, state, weights, phase_index, method="analytic", h=1e-5):
    """d<O>/dphi_j at the configuration's own phase point.

    method "analytic" differentiates the phase stage inside the matrix
    product and pushes the derivative through the Bogoliubov split;
    "numeric" uses a central difference with step h.
    """
    w = _as_weight_array(weights)
    dmean = _mean_vector_derivative(config, state, phase_index, method, h)
    return float(w @ dmean)


@dataclass(frozen=True)
class SensitivityReport:
    """Estimator statistics and resulting phase sensitivity at one point."""

    delta_phi: float
    mean: float
    variance: float
    derivative: float


def sensitivity_moments(config, state, phase_index=1, derivative="analytic", h=1e-5):
    """Photocount moments that fix the sensitivity of every estimator.

    Returns (mean_vec, cov, dmean): the output photon-number means, their
    covariance matrix and d<n_i>/dphi_j, at the configuration's own phase
    point.  derivative and h are as in mean_derivative.  The stage
    matrices are built once and shared by the propagation and the
    analytic derivative.
    """
    mats = config.stage_matrices()
    mean_vec, cov = photon_statistics(propagate(chronological_product(mats), state))
    dmean = _mean_vector_derivative(config, state, phase_index, derivative, h, mats)
    return mean_vec, cov, dmean


def sensitivity_from_moments(moments, weights):
    """SensitivityReport of one weight vector on sensitivity_moments output.

    The signal-free guards and the inf rule are those of phase_sensitivity.
    """
    mean_vec, cov, dmean = moments
    w = _as_weight_array(weights)
    mean, var = estimator_stats(mean_vec, cov, w)
    gross_var = float(np.abs(w) @ np.abs(cov) @ np.abs(w))
    if abs(var) <= 1e-12 * gross_var:
        var = 0.0
    d = float(w @ dmean)
    gross_d = float(np.abs(w) @ np.abs(dmean))
    if abs(d) <= 1e-12 * gross_d:
        d = 0.0
    if d == 0.0 or not math.isfinite(d):
        dp = math.inf
    else:
        dp = math.sqrt(max(var, 0.0)) / abs(d)
    return SensitivityReport(delta_phi=dp, mean=mean, variance=var, derivative=d)


def phase_sensitivity(config, state, weights, phase_index=1,
                      derivative="analytic", h=1e-5):
    """Error-propagation sensitivity at the configuration's phase point.

    Returns a SensitivityReport; delta_phi is inf when the estimator
    carries no signal in the chosen phase.  "No signal" is judged
    against the gross (cancellation-free) magnitude of each quantity, so
    combinations that vanish identically -- like the conserved
    photon-number difference, whose variance and slope are zero up to
    rounding of large opposing terms -- are reported as signal-free
    instead of returning ratios of rounding noise.
    """
    return sensitivity_from_moments(
        sensitivity_moments(config, state, phase_index, derivative, h), weights)


@dataclass(frozen=True)
class LimitResult:
    """Extrapolated zero-phase sensitivity and the ladder it came from."""

    delta_phi: float
    status: str  # "ok" or "divergent"
    residual: float
    values: tuple
    epsilons: tuple

    @property
    def is_divergent(self):
        return self.status == "divergent"


def zero_phase_limit(state, beta1, beta2, weights, phase_index=1,
                     epsilons=(1e-2, 1e-3, 1e-4), derivative="analytic"):
    """Zero-phase sensitivity of the balanced cascade by extrapolation.

    Evaluates dphi at probe offsets eps (largest first), checks that the
    ladder contracts like eps^2, and Richardson-extrapolates the last
    pair; the residual is the spread between the two overlapping
    extrapolations.  A ladder that grows as eps shrinks, or contains
    non-finite entries, yields status "divergent" with delta_phi = inf.
    Anything else raises NonConvergentLimitError.
    """
    if len(epsilons) != 3:
        raise ValueError("need exactly three ladder offsets")
    vals = []
    for eps in epsilons:
        phis = [0.0, 0.0, 0.0]
        phis[phase_index - 1] = eps
        cfg = InterferometerConfig.balanced(beta1, beta2, *phis)
        rep = phase_sensitivity(cfg, state, weights, phase_index,
                                derivative=derivative)
        vals.append(rep.delta_phi)
    vals = tuple(vals)
    if not all(math.isfinite(v) for v in vals):
        return LimitResult(math.inf, "divergent", math.nan, vals, tuple(epsilons))

    v1, v2, v3 = vals
    d21, d32 = abs(v2 - v1), abs(v3 - v2)
    scale = max(abs(v) for v in vals)
    # ratio of successive offsets, squared: the contraction factor an
    # eps^2 error term must show between ladder rungs
    contraction = (epsilons[1] / epsilons[0]) ** 2
    if d32 <= 1e-9 * scale and d21 <= 1e-9 * scale:
        return LimitResult(v3, "ok", d32, vals, tuple(epsilons))
    if d32 <= 0.5 * d21:
        gain = 1.0 / (1.0 / contraction - 1.0)
        extrap32 = v3 - (v2 - v3) * gain
        extrap21 = v2 - (v1 - v2) * gain
        if extrap32 > 0.0:
            return LimitResult(extrap32, "ok", abs(extrap32 - extrap21), vals,
                               tuple(epsilons))
    # growth at the finest rung is decisive: near a crossover the coarse
    # rung can still be shrinking while the small-offset blow-up has
    # already taken over
    if v3 > 2.0 * v2 or v3 > v2 > v1:
        return LimitResult(math.inf, "divergent", math.nan, vals, tuple(epsilons))
    raise NonConvergentLimitError(
        f"sensitivity ladder {vals} at offsets {tuple(epsilons)} neither "
        "contracts nor grows monotonically"
    )


# ---------------------------------------------------------------------------
# Closed forms for the balanced vacuum-fed cascade.
# ---------------------------------------------------------------------------

def closed_form_offset(beta1, beta2, x):
    """Sensitivity of the bright-pair-sum detector at recombiner offset x.

    Valid for vacuum input with weights (1, 1, 0) when the recombiner
    pump phases track the internal phase so that the result depends only
    on the combination x = phi1 + theta4 (with theta3 = pi - phi1).
    """
    num = np.sinh(beta1) * np.abs(np.cos(x / 2.0))
    den = np.cosh(beta2 / 2.0) ** 2 * np.sinh(beta1) ** 2 * np.abs(np.sin(x))
    root = np.sqrt(2.0 * np.sinh(beta1) ** 2 * np.cos(x) + np.cosh(2.0 * beta1) + 3.0)
    return num / den * root


def closed_form_offset_highgain(beta2, x):
    """High-gain (large beta1) simplification of closed_form_offset."""
    return (np.sqrt(2.0 * np.cos(x) + 2.0) * np.abs(np.cos(x / 2.0))
            / (np.cosh(beta2 / 2.0) ** 2 * np.abs(np.sin(x))))


def closed_form_limit(beta1, beta2):
    """Zero-offset limit of the bright-pair-sum sensitivity (vacuum input)."""
    num = 2.0 * np.sqrt(
        4.0 * np.cosh(beta2 / 2.0) ** 4 * np.sinh(beta1) ** 2
        + np.cosh(beta1 / 2.0) ** 2 * np.sinh(beta2) ** 2
    )
    den = (
        4.0 * np.cosh(beta2 / 2.0) ** 2 * np.sinh(beta1) ** 2
        + np.sinh(beta2) ** 2 * np.cosh(beta1) * (1.0 + np.cosh(beta1))
    )
    return num / den


def asymptote_high_gain(beta1, beta2):
    """Large-gain envelope 2 / (cosh beta1 cosh beta2) of the zero-offset limit."""
    return 2.0 / (np.cosh(beta1) * np.cosh(beta2))


def su11_benchmark(beta):
    """Zero-phase sensitivity of the two-mode (single-pair) interferometer."""
    return 1.0 / np.sinh(beta)


def n_total(config, state=None):
    """Total mean photon number inside the cascade, at the midpoint.

    This is the resource count against which sensitivity scalings are
    judged: every photon present after the two splitter FWMs traverses
    the phase stage.  Accepts an InterferometerConfig (or a (beta1,
    beta2) pair, which is promoted to the balanced cascade) and an input
    state, defaulting to vacuum.
    """
    if not hasattr(config, "mid_matrix"):
        beta1, beta2 = config
        config = InterferometerConfig.balanced(beta1, beta2)
    if state is None:
        state = InputState.vacuum()
    out = propagate(config.mid_matrix(), state)
    mean, _ = photon_statistics(out)
    return float(np.sum(mean))


def n_total_closed_form(beta1, beta2):
    """Vacuum midpoint photon number of the balanced cascade, in closed form."""
    return (np.sinh(beta1 / 2.0) ** 2 * (np.cosh(beta2 / 2.0) ** 2 + 1.0)
            + np.sinh(beta2 / 2.0) ** 2 * (np.cosh(beta1 / 2.0) ** 2 + 1.0))
