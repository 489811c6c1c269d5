"""Photocount moments of coherent inputs after a U(1,2) mode transform.

A mode matrix S acts linearly on the slots xi = (a1, a2^dag, a3^dag), as
SU(1,1) does in the two-mode interferometer (Yurke, McCall & Klauder, PRA
33, 4033, 1986).  Coherent input has slot amplitudes alpha~ = (alpha1,
alpha2^*, alpha3^*), slot noise <dxi dxi^dag> = diag(1, 0, 0) and no
anomalous slot moments; after S the noise is the rank-one s s^dag,
s = S[:, 0], still with no anomalous part.  With the mean field
m = S alpha~, q = |s|^2, p = |m|^2, u = m^* s and v = q but
v1 = |S12|^2 + |S13|^2 (q1 - 1 without the cancellation), Wick's theorem
gives every photocount moment:

    <n_i> = v_i + p_i
    Cov(n_i, n_j) = q_i q_j + 2 Re(u_i u_j^*)      (i != j)
    Var(n_i) = v_i (v_i + 1) + p_i (2 v_i + 1)

photocounts takes the product as an argument: elementwise at a point, the
truncated series product for the echo series of sensitivity.zero_phase_moments.
It forms p, u and q with one product, of (m^*, m^*, s^*) and (m, s, s) side
by side, so a series takes four products in all.  Each moment pairs an entry
of S with a conjugate one, so the U(1,2) centre S -> exp(i chi) S moves none.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_DIAG = np.arange(3)


@dataclass(frozen=True)
class InputState:
    """Product of coherent states, one complex amplitude per mode."""

    alpha: tuple

    def __post_init__(self):
        a = tuple(complex(x) for x in self.alpha)
        if len(a) != 3:
            raise ValueError("need exactly three mode amplitudes")
        object.__setattr__(self, "alpha", a)

    @classmethod
    def vacuum(cls):
        return cls((0.0, 0.0, 0.0))

    @classmethod
    def coherent(cls, port, amplitude):
        """Coherent light in one port (1-based), vacuum elsewhere."""
        if port not in (1, 2, 3):
            raise ValueError(f"port must be 1..3, got {port}")
        a = [0.0, 0.0, 0.0]
        a[port - 1] = amplitude
        return cls(tuple(a))

    @property
    def alpha_vector(self):
        return np.array(self.alpha, dtype=complex)

    @cached_property
    def slot_vector(self):
        """Slot amplitudes alpha~ = (alpha1, alpha2^*, alpha3^*), built once, read-only."""
        a = self.alpha_vector
        a[1:] = np.conj(a[1:])
        a.flags.writeable = False
        return a


@dataclass(frozen=True)
class OutputMoments:
    """Mean field m = S alpha~, noise column s = S[:, 0] and noise photon
    numbers v of the output slots, each (..., 3)."""

    m: np.ndarray
    s: np.ndarray
    v: np.ndarray


def noise_pairing(S, T):
    """conj(S) T summed as in the noise photon numbers v = Re noise_pairing(S, S):
    over S[0, 1:] for mode 1, S[i, 0] alone for modes 2 and 3.  It is
    sesquilinear, so dv = 2 Re noise_pairing(S, dS)."""
    x = np.conj(S[..., :, 0]) * T[..., :, 0]
    x[..., 0] = np.sum(np.conj(S[..., 0, 1:]) * T[..., 0, 1:], axis=-1)
    return x


def propagate(transform, state):
    """Output moments for a coherent-product input.

    transform may be a mode matrix, a stack of them (..., 3, 3), or
    anything with a total_matrix() method (e.g. InterferometerConfig);
    the moments then carry the same leading axes.
    """
    if hasattr(transform, "total_matrix"):
        transform = transform.total_matrix()
    S = np.asarray(transform, dtype=complex)
    return OutputMoments(m=S @ state.slot_vector, s=S[..., :, 0],
                         v=np.real(noise_pairing(S, S)))


def photocounts(m, s, v, mul=np.multiply):
    """Photocount means (..., 3) and covariance (..., 3, 3) from m, s and v of
    OutputMoments, or their series when mul is the product of power series
    (mul multiplies elementwise in the trailing axes)."""
    pairs = mul(np.conj(np.concatenate((m, m, s), axis=-1)), np.concatenate((m, s, s), axis=-1))
    p, u, q = np.real(pairs[..., :3]), pairs[..., 3:6], np.real(pairs[..., 6:])
    mean = v + p
    cov = mul(q[..., :, None], q[..., None, :])
    cov += 2.0 * np.real(mul(u[..., :, None], np.conj(u[..., None, :])))
    cov[..., _DIAG, _DIAG] = mul(v, v + 2.0 * p) + mean  # v (v + 1) + p (2 v + 1)
    return mean, cov


def photon_statistics(moments):
    """Photon-number means and covariance matrix, real arrays of shapes
    (..., 3) and (..., 3, 3), from the output moments."""
    return photocounts(moments.m, moments.s, moments.v)


def estimator_stats(mean, cov, weights):
    """Mean and variance of the weighted photon-number sum w . n.

    mean (..., 3) and cov (..., 3, 3) may be stacks; both results have the
    stack's shape, and the variance is reduced as (w C) . w.  np.vecdot
    takes one dot product per element, the one w @ x takes on a single
    vector, so a stack reproduces single-vector calls bit for bit.
    """
    w = np.asarray(weights, dtype=float)
    return np.vecdot(mean, w), np.vecdot(w @ cov, w)
