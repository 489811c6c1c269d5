"""Gaussian-state propagation through a mode transform.

Inputs are products of coherent states (vacuum as the special case
alpha = 0).  Because the mode transform is linear in the operators, the
output state is Gaussian and fully described by first moments and the
quadratic noise moments

    N_ij = <da_i^dag da_j>,   M_ij = <da_i da_j>,   da = a - <a>,

from which photon-number means and the full number covariance matrix
follow by Wick's theorem.  All detection statistics used elsewhere in
the package reduce to these arrays.
"""

from dataclasses import dataclass

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


def from_mode_matrix(S):
    """Blocks (A, B) of a_out = A a + B a^dag for mode matrices S (..., 3, 3).

    Row 1 of S gives a1_out directly; rows 2 and 3 give the conjugate-mode
    creation operators, so those rows conjugate.  The split is R-linear,
    so it commutes with derivatives and series in a real parameter.
    """
    S = np.asarray(S, dtype=complex)
    conj = np.conj(S)
    A, B = np.zeros((2, *S.shape), dtype=complex)
    A[..., 0, 0] = S[..., 0, 0]
    B[..., 0, 1:] = S[..., 0, 1:]
    B[..., 1:, 0] = conj[..., 1:, 0]
    A[..., 1:, 1:] = conj[..., 1:, 1:]
    return A, B


@dataclass(frozen=True)
class OutputMoments:
    """First moments and noise moments of the output Gaussian state."""

    mu: np.ndarray
    N: np.ndarray
    M: np.ndarray


def propagate(transform, state):
    """Output moments for a coherent-product input.

    transform may be a mode matrix, a stack of them (..., 3, 3), or
    anything with a total_matrix() method (e.g. InterferometerConfig);
    the moments then carry the same leading axes.
    """
    if hasattr(transform, "total_matrix"):
        transform = transform.total_matrix()
    A, B = from_mode_matrix(transform)
    return moments_from_blocks(A, B, mean_field(A, B, state))


def mean_field(A, B, state):
    """First moments mu = A alpha + B alpha^* of a_out = A a + B a^dag."""
    alpha = state.alpha_vector
    return A @ alpha + B @ np.conj(alpha)


def moments_from_blocks(A, B, mu):
    """Output moments of a_out = A a + B a^dag with first moments mu."""
    N = np.einsum("...ik,...jk->...ij", np.conj(B), B)
    M = np.einsum("...ik,...jk->...ij", A, B)
    return OutputMoments(mu=mu, N=N, M=M)


def photon_means(moments):
    """Photon-number means <n_i> = N_ii + |mu_i|^2, a real array (..., 3)."""
    return np.real(np.diagonal(moments.N, axis1=-2, axis2=-1)) + np.abs(moments.mu) ** 2


def photon_statistics(moments):
    """Photon-number means and covariance matrix from Gaussian moments.

    For a Gaussian state with first moment mu and noise moments N, M:

        <n_i> = N_ii + |mu_i|^2
        Cov(n_i, n_j) = |N_ij|^2 + |M_ij|^2
                        + delta_ij (N_ii + |mu_i|^2)
                        + 2 Re(mu_i^* mu_j N_ji)
                        + 2 Re(mu_i^* mu_j^* M_ij)

    Returns (mean, cov) as real arrays of shapes (..., 3) and (..., 3, 3).
    """
    mu, N, M = moments.mu, moments.N, moments.M
    mu_conj = np.conj(mu)
    mean = photon_means(moments)
    cov = np.abs(N) ** 2 + np.abs(M) ** 2
    cov[..., _DIAG, _DIAG] += mean
    cov += 2.0 * np.real(mu_conj[..., :, None] * mu[..., None, :] * np.swapaxes(N, -1, -2))
    cov += 2.0 * np.real(mu_conj[..., :, None] * mu_conj[..., None, :] * M)
    return mean, cov


def estimator_stats(mean, cov, weights):
    """Mean and variance of the weighted photon-number sum w . n.

    mean (..., 3) and cov (..., 3, 3) may be stacks; both results have the
    stack's shape, and the variance is reduced as (w C) . w.  np.vecdot
    takes one dot product per element, the one w @ x takes on a single
    vector, so a stack reproduces single-vector calls bit for bit.
    """
    w = np.asarray(weights, dtype=float)
    return np.vecdot(mean, w), np.vecdot(w @ cov, w)
