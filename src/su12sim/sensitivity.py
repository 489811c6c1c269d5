"""Phase sensitivity of weighted photon-number detection.

The estimator is a weighted sum of output photocounts, O = w1 n1 +
w2 n2 + w3 n3.  Its phase sensitivity by error propagation is

    dphi_j = sqrt(Var O) / |d<O>/dphi_j|,

evaluated at a working point of the cascade.  It depends on the
configuration only through the photocount covariance C and the slope
vector d = d<n>/dphi_j: dphi_j = sqrt(w C w) / |w . d|.

The slope is exact.  With R = S2 S1 the splitters, L = S4 S3 the
recombiners and P the diagonal phase stage, the cascade is S = L P R, and
only P_jj moves with phi_j: an offset eps is the rank-one update S + f l r^T,
l = P_jj L[:, j], r = R[j], f = exp(rate eps) - 1.  _rank_one_series gives
the series in eps of the moments it adds, and photocounts turns them into
photocount moments; at a phase point the slope is their order-1 term.  At
zero phase the balanced cascade is an echo, S = I and L = R^-1, so
zero_phase_moments and n_total need only the closed-form splitter matrix R.

The quantity of interest is usually the limit of dphi_j as the probe
phase goes to zero, taken in the balanced configuration where the
cascade is self-cancelling.  Both the variance and the slope vanish
there, and the limit follows exactly from the leading terms of their
power series in the probe offset (Taylor arithmetic; Griewank & Walther,
Evaluating Derivatives, SIAM 2008, ch. 13).  zero_phase_moments computes
the weight-free series C(eps) and d(eps) once per configuration,
limit_from_moments applies a stack of weight vectors to them, and
zero_phase_limit is the composition of the two for one weight vector.
zero_phase_moments and n_total take gain arrays too; each cell of the
stack equals the call on its own gains bit for bit.

Some weight choices carry no signal at all.  The combination
proportional to (1, -1, -1) measures the conserved photon-number
difference and has zero variance and zero slope on vacuum; coherent
light in the bright port makes any estimator with nonzero bright-port
weight blow up as the offset shrinks.  Such cases are reported as
divergent rather than raising, so that parameter scans can skip them.
Moments that overflow at large gains or amplitudes give nan instead,
with status "overflow" in stacked results (see LimitResult).

On vacuum input the balanced cascade has a large degeneracy: the
zero-phase sensitivity depends on the weights only through the single
combination returned by vacuum_invariant, so whole lines in the weight
plane share one sensitivity value.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import InputState, estimator_stats, noise_pairing, photocounts, propagate
from .interferometer import splitter_matrix, stack_product


# a quantity within this fraction of its cancellation-free magnitude is zero
NO_SIGNAL_RTOL = 1e-12
# zero-phase series: the variance through eps^2, the slope through eps^1
SERIES_ORDER = 2
_ORDERS = np.arange(SERIES_ORDER + 1)
# _CAUCHY[a, b, k] = [a + b == k]: contracting with it multiplies series
_CAUCHY = (np.add.outer(_ORDERS, _ORDERS)[:, :, None] == _ORDERS).astype(float)
# the diagonal of G = lie.METRIC = diag(1, -1, -1)
_G = np.array([1.0, -1.0, -1.0])


class NonConvergentLimitError(RuntimeError):
    """Zero-phase series neither has a finite limit nor diverges, or overflows."""


def vacuum_invariant(weights):
    """Combination (w1 - w2 + 2 w3) / (3 (w1 + w2)) of weights (..., 3).

    Vacuum-input zero-phase sensitivity of the balanced cascade is a
    function of this value alone; weights sharing it are equivalent
    detectors there.  Infinite for the conserved-difference family
    w1 + w2 = 0.
    """
    w1, w2, w3 = np.moveaxis(np.asarray(weights, dtype=float), -1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _unstack((w1 - w2 + 2.0 * w3) / (3.0 * (w1 + w2)))


def _unstack(x):
    """A Python scalar for one configuration, the array for a stack."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def _probe(phase_index):
    """Index j of the probed phase-stage entry and its rate (dP_jj/dphi_j) / P_jj."""
    if phase_index not in (1, 2, 3):
        raise ValueError(f"phase index must be 1..3, got {phase_index}")
    return phase_index - 1, (1j if phase_index == 1 else -1j)


def _slope(config, state, phase_index):
    """Photocount means (2, ..., 3) and covariance (2, ..., 3, 3) at the phase
    point (row 0) and their slopes d/dphi_j (row 1): the order-1 series of
    the moments of S = (L P) R, plus _rank_one_series, plus the cross term
    2 Re(f noise_pairing(S, l r^T)) in v, with f = rate eps to this order."""
    j, rate = _probe(phase_index)
    S1, S2, P, S3, S4 = config.stage_matrices()
    LP = stack_product(S4, S3) * np.diagonal(P, axis1=-2, axis2=-1)[..., None, :]
    R = stack_product(S2, S1)
    S = stack_product(LP, R)
    ell, r = LP[..., :, j], R[..., j, :]
    f, ff = _OFFSET_SERIES[rate]
    m, s, v = _rank_one_series(f[:2, 0], ff[:2, 0], ell, r, state.slot_vector)
    m[0], s[0], v[0] = propagate(S, state)
    v[1] += 2.0 * np.real(rate * noise_pairing(S, ell[..., :, None] * r[..., None, :]))
    return photocounts(m, s, v, _first_order)


def mean_derivative(config, state, weights, phase_index):
    """Exact d<O>/dphi_j at the configuration's own phase point.

    A configuration with stacked phases gives an array of the stack's shape.
    """
    mean, _ = _slope(config, state, phase_index)
    return _unstack(np.vecdot(mean[1], np.asarray(weights, dtype=float)))


@dataclass(frozen=True)
class SensitivityReport:
    """Estimator statistics and resulting phase sensitivity at one point
    (floats), or at each configuration of a stack (arrays)."""

    delta_phi: float
    mean: float
    variance: float
    derivative: float


def phase_sensitivity(config, state, weights, phase_index=1):
    """Error-propagation sensitivity at the configuration's phase point.

    Returns a SensitivityReport; delta_phi is inf when the estimator
    carries no signal in the chosen phase.  "No signal" is judged
    against the gross (cancellation-free) magnitude of each quantity, so
    combinations that vanish identically -- like the conserved
    photon-number difference, whose variance and slope are zero up to
    rounding of large opposing terms -- are reported as signal-free
    instead of returning ratios of rounding noise.  delta_phi is nan where
    the photocount moments are not finite (they overflow at large gains).

    A configuration whose phases are arrays is a stack of configurations:
    every field of the report is then an array of the phases' broadcast
    shape, each element equal to the call on that one configuration.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        (mean_vec, dmean), (cov, _) = _slope(config, state, phase_index)
        w = np.asarray(weights, dtype=float)
        w_abs = np.abs(w)
        mean, var = estimator_stats(mean_vec, cov, w)
        # variance and slope w . d, each beside its gross magnitude
        value = np.array([var, np.vecdot(dmean, w)])
        bound = np.array([np.vecdot(w_abs @ np.abs(cov), w_abs),
                          np.vecdot(np.abs(dmean), w_abs)])
    var, d = np.where(np.abs(value) <= NO_SIGNAL_RTOL * bound, 0.0, value)
    signal = np.isfinite(d) & (d != 0.0)
    dp = np.divide(np.sqrt(np.maximum(var, 0.0)), np.abs(d),
                   out=np.full(signal.shape, math.inf), where=signal)
    finite = np.isfinite(cov).all(axis=(-2, -1)) & np.isfinite(dmean).all(axis=-1)
    return SensitivityReport(delta_phi=_unstack(np.where(finite, dp, math.nan)),
                             mean=_unstack(mean), variance=_unstack(var),
                             derivative=_unstack(d))


@dataclass(frozen=True)
class LimitResult:
    """Zero-phase sensitivity and the leading orders (p, q) of the variance
    and slope series that decide it; orders is None when there is no signal.

    status is "ok" for a finite limit; "divergent" for none (delta_phi inf,
    or nan where optimize_weights finds no weights with a finite one); and
    "overflow" where the photocount moments are not finite (delta_phi nan),
    which only stacked results hold: zero_phase_limit raises for one point.
    """

    delta_phi: float
    status: str
    orders: tuple | None

    @property
    def is_divergent(self):
        return self.status == "divergent"


def _cauchy(x, y):
    """Product of power series whose coefficients run along the first axis,
    truncated at SERIES_ORDER; the other axes multiply elementwise."""
    return np.einsum("abk,a...,b...->k...", _CAUCHY, x, y)


def _first_order(x, y):
    """(x0 y0, x0 y1 + x1 y0): the order-1 truncation of _cauchy, for series
    whose coefficients run along the first axis of equal-rank arrays."""
    xy = x[0] * y
    xy[1] += x[1] * y[0]
    return xy


def _offset_series(rate):
    """Series (SERIES_ORDER + 1, 2) of f = exp(rate eps) - 1 and its moduli, and of |f|^2."""
    c = np.append(0.0, np.cumprod(rate / _ORDERS[1:]))  # the eps^k coefficients of f
    f = np.stack([c, np.abs(c)], axis=-1)
    return f, np.real(_cauchy(np.conj(f), f))


_OFFSET_SERIES = {rate: _offset_series(rate) for rate in (1j, -1j)}


def _rank_one_series(f, ff, ell, r, a):
    """Series (m, s, v) of the output moments that the update f l r^T of a
    mode matrix adds for slot amplitudes a: m = f (r . a) l, s = f r_0 l and
    v = |f|^2 w, w_0 = |l_0 r_1|^2 + |l_0 r_2|^2 and w_i = |l_i r_0|^2 (i > 0).
    The series of f and ff = |f|^2 run along their first axis, and their other
    axes lead those of ell, r and a; the caller sets the order-0 moments."""
    f = f.reshape(*f.shape, *(1,) * (ell.ndim - f.ndim + 1))
    ell_r0 = ell * r[..., :1]
    w = np.abs(ell_r0) ** 2
    w[..., 0] = (np.abs(ell[..., :1] * r[..., 1:]) ** 2).sum(axis=-1)
    return (f * ((r * a).sum(axis=-1, keepdims=True) * ell), f * ell_r0,
            ff.reshape(f.shape) * w)


def zero_phase_moments(state, beta1, beta2, phase_index=1):
    """Weight-free series of photocount covariance and slope in the probe offset.

    The gains broadcast against each other to a shape G.  Returns (cov,
    slope) of shapes (2, *G, SERIES_ORDER + 1, 3, 3) and (2, *G,
    SERIES_ORDER, 3): cov[:, ..., k, :, :] is the coefficient of eps^k in
    the covariance matrix (k <= SERIES_ORDER), slope[:, ..., k, :] that of
    eps^k in d<n>/dphi_j (k < SERIES_ORDER).

    The balanced cascade is an echo: the recombiners invert the splitters
    R, so S(eps) = I + f l r^T exactly, with r = R[j], l = G_jj G r,
    G = diag(1, -1, -1) and f = exp(rate eps) - 1.  Its output moments are
    those of I, (alpha~, e_0, 0), plus _rank_one_series, and
    gaussian.photocounts takes their series.  Row 1 of each result repeats
    row 0's computation on the moduli of all inputs: a cancellation-free
    bound.  A cell whose moments are not finite (they overflow at large
    gains or amplitudes) is nan.
    """
    j, rate = _probe(phase_index)
    f, ff = _OFFSET_SERIES[rate]
    with np.errstate(over="ignore", invalid="ignore"):
        r = splitter_matrix(beta1, beta2)[..., j, :]
        ell = (_G if j == 0 else -_G) * r
        # x = 0 rows hold the moments, x = 1 rows their moduli
        r, ell = np.array([r, np.abs(r)]), np.array([ell, np.abs(ell)])
        a = state.slot_vector
        a = np.array([a, np.abs(a)]).reshape(2, *(1,) * (r.ndim - 2), 3)
        m, s, v = _rank_one_series(f, ff, ell, r, a)
        m[0] = a
        s[0, ..., 0] = 1.0
        mean, cov = photocounts(m, s, v, _cauchy)
    cov = cov.transpose(1, *range(2, cov.ndim - 2), 0, -2, -1)  # series axis after x, gains
    mean = mean.transpose(1, *range(2, mean.ndim - 1), 0, -1)
    overflow = ~np.isfinite(cov).all(axis=(0, -3, -2, -1))
    cov[:, overflow] = mean[:, overflow] = math.nan
    return cov, _ORDERS[1:, None] * mean[..., 1:, :]


def _leading_term(value, bound):
    """Order and value of the first coefficient of a series (last axis) that
    is not rounding residue of its bound; order = the series length where
    there is none."""
    nonzero = np.abs(value) > NO_SIGNAL_RTOL * bound
    first = nonzero.argmax(axis=-1)  # 0 where there is none
    return (first + value.shape[-1] * ~nonzero.any(axis=-1),
            value[(*np.indices(first.shape, sparse=True), first)])


def limit_from_moments(moments, weights):
    """Zero-phase sensitivity of every weight vector of a stack (..., 3).

    moments is zero_phase_moments output; a stack of weights broadcasts
    against its stack of gains.  Returns (delta_phi, p, q) of the
    broadcast shape: the leading orders p of the variance series V and
    q of the slope series D (SERIES_ORDER + 1 and SERIES_ORDER, their
    lengths, where a series has no nonzero coefficient), and delta_phi =
    sqrt(V_p) / |D_q| where p = 2q and V_p > 0, inf where p < 2q or the
    slope vanishes (divergent), nan otherwise (no finite nonzero limit).
    A nan series, from moments that are not finite, has no nonzero
    coefficient and gives nan, never inf.
    """
    cov, slope = moments
    w = np.asarray(weights, dtype=float)
    w = np.array([w, np.abs(w)])
    p, V = _leading_term(*np.einsum("x...i,x...kij,x...j->x...k", w, cov, w))
    q, D = _leading_term(*np.einsum("x...i,x...ki->x...k", w, slope))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(V) / np.abs(D)
    divergent = (p < 2 * q) & ~np.isnan(V)
    return np.where(p == 2 * q, ratio, np.where(divergent, math.inf, math.nan)), p, q


def zero_phase_limit(state, beta1, beta2, weights, phase_index=1):
    """Exact zero-phase sensitivity of the balanced cascade.

    Status "ok" with sqrt(V_p) / |D_q| when the leading orders satisfy
    p = 2q; "divergent" with delta_phi = inf when p < 2q or the slope
    series vanishes.  Anything else raises NonConvergentLimitError, and so
    do moments that are not finite.  One point only: stacks raise ValueError.
    """
    dphi, p, q = limit_from_moments(zero_phase_moments(state, beta1, beta2, phase_index), weights)
    if dphi.ndim:
        raise ValueError("zero_phase_limit takes one point; limit_from_moments takes stacks")
    dphi, p, q = require_convergent(dphi, p, q)
    if math.isnan(dphi):
        raise NonConvergentLimitError(
            f"photocount moments are not finite at beta = ({beta1}, {beta2}) "
            f"and alpha = {state.alpha}")
    orders = None if q == SERIES_ORDER else (
        None if p > SERIES_ORDER else int(p), int(q))
    return LimitResult(float(dphi), "divergent" if math.isinf(dphi) else "ok", orders)


def require_convergent(dphi, p, q):
    """limit_from_moments output, or NonConvergentLimitError naming the orders
    of its first cell with no finite nonzero limit (one with a slope and p > 2q).
    Cells whose moments are not finite have no slope series and stay nan."""
    bad = np.isnan(dphi) & (q < SERIES_ORDER)
    if bad.any():  # argmax: the flat index of the first bad cell
        p0, q0 = int(np.ravel(p)[bad.argmax()]), int(np.ravel(q)[bad.argmax()])
        raise NonConvergentLimitError(
            f"variance and slope series with leading orders "
            f"{(None if p0 > SERIES_ORDER else p0, q0)} have no finite nonzero limit")
    return dphi, p, q


# ---------------------------------------------------------------------------
# Closed forms for the balanced vacuum-fed cascade.
# ---------------------------------------------------------------------------

def closed_form_limit(beta1, beta2):
    """Zero-offset limit of the bright-pair-sum sensitivity (vacuum input);
    nan at zero gain, where it reads 0/0."""
    num = 2.0 * np.sqrt(4.0 * np.cosh(beta2 / 2.0) ** 4 * np.sinh(beta1) ** 2
                        + np.cosh(beta1 / 2.0) ** 2 * np.sinh(beta2) ** 2)
    den = (4.0 * np.cosh(beta2 / 2.0) ** 2 * np.sinh(beta1) ** 2
           + np.sinh(beta2) ** 2 * np.cosh(beta1) * (1.0 + np.cosh(beta1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den


def asymptote_high_gain(beta1, beta2):
    """Large-gain envelope 2 / (cosh beta1 cosh beta2) of the zero-offset limit."""
    return 2.0 / (np.cosh(beta1) * np.cosh(beta2))


def su11_benchmark(beta):
    """Zero-phase sensitivity of the two-mode (single-pair) interferometer."""
    return 1.0 / np.sinh(beta)


def n_total(betas, state=None):
    """Total mean photon number inside the balanced cascade, at the midpoint.

    This is the resource count against which sensitivity scalings are
    judged: every photon present after the two splitter FWMs traverses
    the phase stage.  Takes a (beta1, beta2) pair and an input state,
    defaulting to vacuum; N = sum_i (v_i + |m_i|^2) with m = R alpha~ and
    v_1 = R_12^2 + R_13^2, v_i = R_i1^2 from the splitter matrix R.  A float
    for one configuration, an array over gain arrays; nan where it overflows.
    """
    beta1, beta2 = betas
    state = InputState.vacuum() if state is None else state
    with np.errstate(over="ignore", invalid="ignore"):
        R = splitter_matrix(beta1, beta2)
        v = R[..., :, 0] ** 2
        v[..., 0] = R[..., 0, 1] ** 2 + R[..., 0, 2] ** 2
        n = np.sum(v + np.abs(R @ state.slot_vector) ** 2, axis=-1)
    return _unstack(np.where(np.isfinite(n), n, math.nan))


def n_total_closed_form(beta1, beta2):
    """Vacuum midpoint photon number of the balanced cascade, in closed form."""
    return (np.sinh(beta1 / 2.0) ** 2 * (np.cosh(beta2 / 2.0) ** 2 + 1.0)
            + np.sinh(beta2 / 2.0) ** 2 * (np.cosh(beta1 / 2.0) ** 2 + 1.0))
