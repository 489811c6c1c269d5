"""Photocount moments of the slot closed form against a Bogoliubov/Wick
reference, known closed forms and the truncated-Fock simulator."""

import math

import numpy as np
import pytest

from su12sim.fock_oracle import TruncatedFockSpace, photon_statistics_fock
from su12sim.gaussian import InputState, estimator_stats, photon_statistics, propagate
from su12sim.interferometer import InterferometerConfig, fwm_matrix
from su12sim.sensitivity import SERIES_ORDER, zero_phase_moments


# ---------------------------------------------------------------------------
# Reference: the general Bogoliubov split a_out = A a + B a^dag and Wick's
# theorem on its noise moments N = <da^dag da>, M = <da da>.  It shares no
# formula with the closed form on the slots that the library uses.
# ---------------------------------------------------------------------------

def from_mode_matrix(S):
    """Blocks (A, B) of a_out = A a + B a^dag for mode matrices S (..., 3, 3).

    Row 1 of S gives a1_out directly; rows 2 and 3 give the conjugate-mode
    creation operators, so those rows conjugate.
    """
    S = np.asarray(S, dtype=complex)
    conj = np.conj(S)
    A, B = np.zeros((2, *S.shape), dtype=complex)
    A[..., 0, 0] = S[..., 0, 0]
    B[..., 0, 1:] = S[..., 0, 1:]
    B[..., 1:, 0] = conj[..., 1:, 0]
    A[..., 1:, 1:] = conj[..., 1:, 1:]
    return A, B


def wick_reference(S, alpha):
    """Photocount means (K, 3) and covariances (K, 3, 3) of the power series
    S (K, 3, 3) of mode matrices (K = 1: one matrix) on coherent amplitudes
    alpha, by Wick's theorem:

        <n_i> = N_ii + |mu_i|^2
        Cov(n_i, n_j) = |N_ij|^2 + |M_ij|^2 + delta_ij <n_i>
                        + 2 Re(mu_i^* mu_j N_ji) + 2 Re(mu_i^* mu_j^* M_ij)

    with every product a truncated series product.
    """
    A, B = from_mode_matrix(S)
    mu = A @ alpha + B @ np.conj(alpha)

    def series(term):
        return np.array([sum(term(a, k - a) for a in range(k + 1)) for k in range(len(S))])

    N = series(lambda a, b: np.conj(B[a]) @ B[b].T)
    M = series(lambda a, b: A[a] @ B[b].T)
    mu_mu = series(lambda a, b: np.outer(np.conj(mu[a]), mu[b]))
    mu_mu_conj = series(lambda a, b: np.outer(np.conj(mu[a]), np.conj(mu[b])))
    mean = np.real(np.diagonal(N + mu_mu, axis1=-2, axis2=-1))
    cov = mean[:, :, None] * np.eye(3) + np.real(series(
        lambda a, b: np.conj(N[a]) * N[b] + np.conj(M[a]) * M[b]
        + 2.0 * mu_mu[a] * N[b].T + 2.0 * mu_mu_conj[a] * M[b]))
    return mean, cov


def _single_fwm(beta, theta=0.0, pair="12"):
    cfg = InterferometerConfig(
        beta1=beta, beta2=0.0, beta3=0.0, beta4=0.0,
        theta1=theta, theta2=0.0, theta3=np.pi, theta4=np.pi,
    )
    return cfg


def test_input_state_helpers():
    v = InputState.vacuum()
    assert np.allclose(v.alpha_vector, 0)
    c = InputState.coherent(2, 0.5 + 0.1j)
    assert c.alpha == (0j, 0.5 + 0.1j, 0j)


@pytest.mark.parametrize("port", [1, 2, 3])
def test_zero_amplitude_coherent_state_is_the_vacuum(port):
    v, c = InputState.vacuum(), InputState.coherent(port, 0.0)
    assert c.alpha == v.alpha
    assert c.slot_vector.tobytes() == v.slot_vector.tobytes()


@pytest.mark.parametrize("port", [0, 4, -1])
def test_coherent_rejects_ports_outside_1_to_3(port):
    with pytest.raises(ValueError, match="port"):
        InputState.coherent(port, 1.0)


def test_vacuum_single_fwm_probe_mean():
    # two-mode squeezed vacuum: <n_1> = sinh^2(beta/2)
    for b in (0.2, 0.4, 1.0):
        mean, _ = photon_statistics(propagate(_single_fwm(b), InputState.vacuum()))
        assert np.isclose(mean[0], np.sinh(b / 2) ** 2, atol=1e-12)
        assert np.isclose(mean[1], np.sinh(b / 2) ** 2, atol=1e-12)
        assert np.isclose(mean[2], 0.0, atol=1e-14)


def test_two_mode_squeezed_variance_and_covariance():
    b = 0.4
    _, cov = photon_statistics(propagate(_single_fwm(b), InputState.vacuum()))
    expected = np.sinh(0.2) ** 2 * np.cosh(0.2) ** 2
    assert np.isclose(cov[0, 0], expected, atol=1e-12)
    assert np.isclose(cov[0, 1], expected, atol=1e-12)
    assert np.isclose(cov[2, 2], 0.0, atol=1e-14)


def _random_config(rng):
    b = rng.uniform(0, 2, 4)
    th = rng.uniform(0, 2 * np.pi, 4)
    ph = rng.uniform(0, 2 * np.pi, 3)
    return InterferometerConfig(
        beta1=b[0], beta2=b[1], beta3=b[2], beta4=b[3],
        theta1=th[0], theta2=th[1], theta3=th[2], theta4=th[3],
        phi1=ph[0], phi2=ph[1], phi3=ph[2],
    )


def test_bogoliubov_blocks_from_mode_matrix():
    """The reference split."""
    S = fwm_matrix(0.8, 0.3, "12")
    A, B = from_mode_matrix(S)
    # row 0 transforms annihilators directly, rows 1..2 come conjugated
    assert np.isclose(A[0, 0], S[0, 0])
    assert np.isclose(B[0, 1], S[0, 1])
    assert np.isclose(A[1, 1], np.conj(S[1, 1]))
    assert np.isclose(B[1, 0], np.conj(S[1, 0]))


def test_bogoliubov_commutator_preservation():
    rng = np.random.default_rng(17)
    for _ in range(25):
        A, B = from_mode_matrix(_random_config(rng).total_matrix())
        # a_out = A a + B a^dag keeps [a_i, a_j^dag] = delta_ij
        defect = A @ A.conj().T - B @ B.conj().T - np.eye(3)
        assert np.max(np.abs(defect)) < 1e-12


def test_stacked_split_equals_per_matrix_split():
    rng = np.random.default_rng(5)
    mats = np.array([[_random_config(rng).total_matrix() for _ in range(3)]
                     for _ in range(4)])
    A, B = from_mode_matrix(mats)
    assert A.shape == B.shape == (4, 3, 3, 3)
    for idx in np.ndindex(4, 3):
        a, b = from_mode_matrix(mats[idx])
        assert np.array_equal(A[idx].view(np.uint64), a.view(np.uint64))
        assert np.array_equal(B[idx].view(np.uint64), b.view(np.uint64))


def _random_alpha(rng):
    return 0.8 * (rng.normal(size=3) + 1j * rng.normal(size=3))


def test_closed_form_matches_wick_reference():
    """Means and covariances of the slot closed form agree with Wick's
    theorem on the Bogoliubov split, on vacuum and coherent inputs."""
    rng = np.random.default_rng(29)
    for _ in range(40):
        S = _random_config(rng).total_matrix()
        for alpha in (np.zeros(3, dtype=complex), _random_alpha(rng)):
            mean, cov = photon_statistics(propagate(S, InputState(tuple(alpha))))
            ref_mean, ref_cov = wick_reference(S[None], alpha)
            for x, ref in ((mean, ref_mean[0]), (cov, ref_cov[0])):
                assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("phase_index", [1, 2, 3])
def test_zero_phase_series_matches_wick_reference(phase_index):
    """The series of zero_phase_moments agree with Wick's theorem on the
    series S(eps) = I + (exp(rate eps) - 1) L[:, j] R[j], coefficient by
    coefficient, within 1e-12 of their cancellation-free magnitude."""
    rng = np.random.default_rng(31 + phase_index)
    j = phase_index - 1
    rate = 1j if j == 0 else -1j
    for b1, b2 in ((3.0, 3.0), (0.4, 1.7), (2.2, 0.3)):
        S1, S2, S3, S4 = InterferometerConfig.balanced(b1, b2).mixer_matrices()
        LR = np.outer((S4 @ S3)[:, j], (S2 @ S1)[j])
        S = np.array([np.eye(3)] + [rate ** k / math.factorial(k) * LR
                                    for k in range(1, SERIES_ORDER + 1)])
        for alpha in (np.zeros(3, dtype=complex), _random_alpha(rng)):
            (cov, gross), (slope, slope_gross) = zero_phase_moments(
                InputState(tuple(alpha)), b1, b2, phase_index)
            ref_mean, ref_cov = wick_reference(S, alpha)
            ref_slope = np.arange(1, SERIES_ORDER + 1)[:, None] * ref_mean[1:]
            assert np.all(np.abs(cov - ref_cov) <= 1e-12 * gross)
            assert np.all(np.abs(slope - ref_slope) <= 1e-12 * slope_gross)


def test_phase_only_circuit_keeps_photon_numbers():
    cfg = InterferometerConfig(
        beta1=0.0, beta2=0.0, beta3=0.0, beta4=0.0,
        phi1=0.4, phi2=1.1, phi3=2.2,
    )
    state = InputState(alpha=(0.5, 0.3j, -0.2))
    mean, cov = photon_statistics(propagate(cfg, state))
    assert np.allclose(mean, [0.25, 0.09, 0.04], atol=1e-14)
    # coherent states stay coherent: Var(n) = <n>
    assert np.allclose(np.diag(cov), mean, atol=1e-14)


def test_central_phase_shift_leaves_photocounts_unchanged():
    """Shifting the phases by chi (1, -1, -1) multiplies S by exp(i chi), the
    centre of U(1,2), which no photocount moment sees.  On 200 general
    devices (unbalanced gains, random pump phases, complex light in every
    port) S moved by at most 8.3e-16 relative to max|S_ij|, the means by
    1.3e-15 and the covariances by 2.5e-15, relative to their largest entry;
    over 4,000 such devices (seeds 0-19) the worst was 5.5e-15.  The bound
    is 3.4 times the 2.9e-15 first measured for the moments."""
    rng = np.random.default_rng(0)
    b, th = rng.uniform(0.0, 3.2, (4, 200)), rng.uniform(0.0, 2.0 * np.pi, (4, 200))
    ph, chi = rng.uniform(-np.pi, np.pi, (3, 200)), rng.uniform(-np.pi, np.pi, 200)
    alpha = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
    S = InterferometerConfig(*b, *th, *ph).total_matrix()
    T = InterferometerConfig(*b, *th, ph[0] + chi, ph[1] - chi, ph[2] - chi).total_matrix()
    dev = np.max(np.abs(T - np.exp(1j * chi)[:, None, None] * S), axis=(-2, -1))
    assert np.all(dev <= 1e-14 * np.max(np.abs(S), axis=(-2, -1)))
    for k in range(200):
        state = InputState(tuple(alpha[k]))
        mean, cov = photon_statistics(propagate(S[k], state))
        shifted_mean, shifted_cov = photon_statistics(propagate(T[k], state))
        assert np.max(np.abs(shifted_mean - mean)) <= 1e-14 * np.max(np.abs(mean))
        assert np.max(np.abs(shifted_cov - cov)) <= 1e-14 * np.max(np.abs(cov))


def test_covariance_is_real_symmetric():
    cfg = InterferometerConfig.balanced(1.3, 0.9, phi1=0.21)
    for state in (InputState.vacuum(), InputState.coherent(1, 0.7 + 0.2j)):
        mean, cov = photon_statistics(propagate(cfg, state))
        assert cov.dtype == float
        assert np.allclose(cov, cov.T, atol=1e-12)
        assert np.all(np.diag(cov) >= -1e-14)
        assert np.all(mean >= -1e-14)


def test_propagate_accepts_config_or_matrix():
    cfg = InterferometerConfig.balanced(0.8, 0.8, phi1=0.5)
    m1, _ = photon_statistics(propagate(cfg, InputState.vacuum()))
    m2, _ = photon_statistics(propagate(cfg.total_matrix(), InputState.vacuum()))
    assert np.allclose(m1, m2, atol=1e-14)


def test_stacked_transforms_give_stacked_moments():
    rng = np.random.default_rng(41)
    cfg = InterferometerConfig(0.7, 0.4, 0.9, 0.3, 0.2, 1.1, 2.0, 4.0,
                               rng.uniform(0, 2 * np.pi, (2, 3)), 0.5, rng.uniform(0, 2 * np.pi, 3))
    state = InputState((0.5, 0.2j, -0.3 + 0.1j))
    moments = propagate(cfg, state)
    assert moments.m.shape == moments.s.shape == moments.v.shape == (2, 3, 3)
    mean, cov = photon_statistics(moments)
    assert mean.shape == (2, 3, 3) and cov.shape == (2, 3, 3, 3)
    S = cfg.total_matrix()
    for idx in np.ndindex(2, 3):
        m1, c1 = photon_statistics(propagate(S[idx], state))
        assert np.array_equal(mean[idx], m1) and np.array_equal(cov[idx], c1)


def test_estimator_stats_contract():
    mean = np.array([1.0, 2.0, 3.0])
    cov = np.diag([0.5, 0.25, 1.0])
    m, v = estimator_stats(mean, cov, (1.0, -1.0, 2.0))
    assert np.isclose(m, 5.0)
    assert np.isclose(v, 0.5 + 0.25 + 4.0)


def test_photon_sums_match_fock_oracle():
    """Coherent probe through a weak cascade agrees with the brute-force
    state-vector result."""
    cfg = InterferometerConfig.balanced(0.4, 0.4, phi1=0.7)
    state = InputState.coherent(1, 0.5)
    g_mean, g_cov = photon_statistics(propagate(cfg, state))
    space = TruncatedFockSpace(14)
    f_mean, f_cov = photon_statistics_fock(space.run_circuit(cfg, state))
    assert np.allclose(g_mean, f_mean, atol=1e-6)
    assert np.allclose(g_cov, f_cov, atol=1e-6)


def test_conserved_difference_through_random_circuits():
    rng = np.random.default_rng(23)
    w = np.array([1.0, -1.0, -1.0])
    for _ in range(50):
        b = rng.uniform(0, 2, 4)
        cfg = InterferometerConfig(
            beta1=b[0], beta2=b[1], beta3=b[2], beta4=b[3],
            theta1=rng.uniform(0, 7), theta2=rng.uniform(0, 7),
            theta3=rng.uniform(0, 7), theta4=rng.uniform(0, 7),
        )
        alpha = 0.6 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        state = InputState(alpha=tuple(alpha))
        mean, _ = photon_statistics(propagate(cfg, state))
        assert abs(w @ mean - w @ np.abs(alpha) ** 2) < 1e-10
