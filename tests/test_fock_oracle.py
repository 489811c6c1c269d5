"""Checks of the truncated state-vector simulator itself: operator algebra
on the grid, gate action, truncation guards, and agreement with the
Gaussian pipeline."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln

from su12sim.fock_oracle import (
    FockStateVector,
    LeakageExceeded,
    TruncatedFockSpace,
    _apply_k,
    _occupation_arrays,
    _phase_stack,
    compare_with_gaussian,
    estimator_stats_fock,
    photon_statistics_fock,
    vacuum_k_variance,
)
from su12sim.gaussian import InputState
from su12sim.interferometer import InterferometerConfig
from su12sim.lie import SQRT3
from su12sim.sensitivity import closed_form_limit, mean_derivative


def conserved_difference_stats(fsv):
    """Mean and variance of n1 - n2 - n3 on a truncated state."""
    return estimator_stats_fock(fsv, (1.0, -1.0, -1.0))


def mean_derivative_fock(space, config, state, weights, phase_index,
                         h=1e-4, guard=1e-8):
    """Central-difference d<w.n>/dphi_j through the full Fock circuit.

    One run on the phase stack (phi_j + h, phi_j - h).
    """
    fsv = space.run_circuit(_phase_stack(config, phase_index, (h, -h)), state, guard=guard)
    up, dn = estimator_stats_fock(fsv, weights)[0]
    return (up - dn) / (2.0 * h)


# ---------------------------------------------------------------------------
# Sparse references: the generators as d^3 x d^3 matrices built from
# Kronecker products of the truncated ladder, independent of the tensor
# index shifts and the dense two-mode K1 of the library.
# ---------------------------------------------------------------------------

def _ladder(d):
    return sp.diags(np.sqrt(np.arange(1.0, d)), 1, format="csr")


def _mode_operators(d):
    """Annihilation operators (A1, A2, A3) on the d^3 grid."""
    a = _ladder(d)
    eye = sp.identity(d, format="csr")
    A1 = sp.kron(sp.kron(a, eye), eye, format="csr")
    A2 = sp.kron(sp.kron(eye, a), eye, format="csr")
    A3 = sp.kron(sp.kron(eye, eye), a, format="csr")
    return A1, A2, A3


def k_operator(i, cutoff):
    """Generator K_i as a sparse Hermitian matrix at the given cutoff."""
    A1, A2, A3 = _mode_operators(cutoff)
    n1, n2, n3 = _occupation_arrays(cutoff)
    if i == 1:
        return 0.5 * (A1.conj().T @ A2.conj().T + A1 @ A2)
    if i == 2:
        return -0.5j * (A1.conj().T @ A2.conj().T - A1 @ A2)
    if i == 3:
        return 0.5 * (A1.conj().T @ A3.conj().T + A1 @ A3)
    if i == 4:
        return -0.5j * (A1.conj().T @ A3.conj().T - A1 @ A3)
    if i == 5:
        return -0.5 * (A2.conj().T @ A3 + A3.conj().T @ A2)
    if i == 6:
        return -0.5j * (A2.conj().T @ A3 - A3.conj().T @ A2)
    if i == 7:
        # a2 a2^dag contributes n2 + 1
        return sp.diags(0.5 * (n1 + n2 + 1.0), format="csr")
    if i == 8:
        return sp.diags((n1 - n2 + 2.0 * n3 + 1.0) / (2.0 * SQRT3), format="csr")
    raise ValueError(f"generator index must be 1..8, got {i}")


@pytest.mark.parametrize("i", range(1, 9))
def test_k_operators_hermitian(i):
    K = k_operator(i, 6).toarray()
    assert np.allclose(K, K.conj().T, atol=1e-14)


def test_vacuum_generator_variances():
    # the four pair-creation quadratures fluctuate at 1/4 on vacuum
    for i in (1, 2, 3, 4):
        assert np.isclose(vacuum_k_variance(i, 10), 0.25, atol=1e-12)
    # the diagonal generators do not fluctuate at all
    for i in (7, 8):
        assert np.isclose(vacuum_k_variance(i, 10), 0.0, atol=1e-14)


@pytest.mark.parametrize("cutoff", [6, 14])
@pytest.mark.parametrize("i", range(1, 9))
def test_vacuum_variance_matches_sparse_reference(i, cutoff):
    K = k_operator(i, cutoff)
    psi = np.zeros(cutoff ** 3, dtype=complex)
    psi[0] = 1.0
    m = np.vdot(psi, K @ psi).real
    m2 = np.vdot(psi, K @ (K @ psi)).real
    assert abs(vacuum_k_variance(i, cutoff) - (m2 - m ** 2)) <= 1e-15


@pytest.mark.parametrize("i", range(1, 9))
def test_tensor_generator_action_matches_sparse_reference(i):
    """Index shifts on the (d, d, d) tensor act as the sparse K_i on a
    random state, including the top of the grid."""
    d = 6
    psi = _random_state(d, 3)
    ref = k_operator(i, d) @ psi
    got = _apply_k(i, psi.reshape(d, d, d)).reshape(d ** 3)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("cutoff", [6, 14])
def test_eigenbasis_equals_sparse_build(cutoff):
    """The two-mode K1 conserves n1 - n2.  Block r of the eigenbasis holds
    the diagonals n1 - n2 = r and r - d, ordered by n2 (n1 = (n2 + r) mod
    d), and V_r diag(lam_r) V_r^T rebuilds that block of the reference."""
    d = cutoff
    aa = sp.kron(_ladder(d), _ladder(d), format="csr")
    K = (0.5 * (aa + aa.T)).tocoo()
    n1, n2 = np.divmod(np.arange(d * d), d)
    assert np.array_equal((n1 - n2)[K.row], (n1 - n2)[K.col])
    K = K.toarray()
    tol = 1e-15 * np.linalg.norm(K, 2)
    space = TruncatedFockSpace(d)
    assert space._V.shape == (d, d, d) and space._lam.shape == (d, d)
    position = np.arange(d)
    for r in range(d):
        block = np.ix_(*2 * [(position + r) % d * d + position])
        rebuilt = space._V[r] @ np.diag(space._lam[r]) @ space._V[r].T
        assert np.max(np.abs(rebuilt - K[block])) <= tol, r


@pytest.mark.parametrize("cutoff", [14, 30])
def test_coherent_vector_matches_gammaln_formula(cutoff):
    """One-mode vectors, so each amplitude carries one factorial root."""
    space = TruncatedFockSpace(cutoff)
    n = np.arange(cutoff)
    for al in (0.7, 0.4 - 0.3j, -0.2j, 2.5):
        ref = np.exp(-0.5 * abs(al) ** 2) * al ** n / np.sqrt(np.exp(gammaln(n + 1.0)))
        psi, _ = space.coherent_vector((al,))
        assert np.max(np.abs(psi / ref - 1)) <= 1e-14, al


def test_operator_brackets_on_the_grid():
    """Commutators of the number-conserving and pair-creation generators
    reproduce the tabulated coefficients on interior states (away from
    the cutoff boundary, where truncation breaks the ladder algebra)."""
    from su12sim.lie import bracket_coefficients

    d = 7
    n1, n2, n3 = _occupation_arrays(d)
    interior = (n1 <= d - 3) & (n2 <= d - 3) & (n3 <= d - 3)
    K = {i: k_operator(i, d).toarray() for i in range(1, 9)}
    for i, j in [(1, 2), (3, 4), (5, 6), (1, 3), (2, 6), (7, 1), (8, 3), (1, 8)]:
        direct = (K[i] @ K[j] - K[j] @ K[i]).astype(complex)
        expected = np.zeros(direct.shape, dtype=complex)
        for c, k in bracket_coefficients(i, j):
            expected += c * K[k]
        block = np.ix_(interior, interior)
        assert np.allclose(direct[block], expected[block], atol=1e-12), (i, j)


def test_single_gate_two_mode_squeezed_amplitudes():
    b = 0.5
    space = TruncatedFockSpace(12)
    psi, _ = space.coherent_vector((0, 0, 0))
    psi = space.apply_fwm(psi, b, 0.0, "12")
    grid = psi.reshape(12, 12, 12)
    r = b / 2
    for n in range(5):
        expected = np.tanh(r) ** n / np.cosh(r)
        assert np.isclose(abs(grid[n, n, 0]), expected, atol=1e-10), n
    # nothing outside the pair ladder
    assert abs(grid[1, 0, 0]) < 1e-14
    assert abs(grid[0, 0, 1]) < 1e-14
    mean, _ = photon_statistics_fock(
        FockStateVector(12, psi, 0.0, (0.0,))
    )
    assert np.isclose(mean[0], np.sinh(r) ** 2, atol=1e-10)


def _random_state(d, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=d ** 3) + 1j * rng.normal(size=d ** 3)
    return psi / np.linalg.norm(psi)


GATE_GENERATORS = {"12": (1, 2), "13": (3, 4)}


@pytest.mark.parametrize("pair", ["12", "13"])
def test_gate_equals_dense_exponential(pair):
    """The eigenbasis gate is exp(-i beta (sin(theta) K_a - cos(theta) K_b))
    of the same truncated generators, on a random state at cutoff 6."""
    d = 6
    space = TruncatedFockSpace(d)
    psi = _random_state(d, 1)
    Ka, Kb = (k_operator(i, d).toarray() for i in GATE_GENERATORS[pair])
    for theta in (0.0, np.pi / 2, 2.3):
        for beta in (0.1, 0.5):
            H = np.sin(theta) * Ka - np.cos(theta) * Kb
            expected = expm(-1j * beta * H) @ psi
            got = space.apply_fwm(psi, beta, theta, pair)
            assert np.max(np.abs(got - expected)) <= 1e-13, (theta, beta)


@pytest.mark.parametrize("pair, d", [("12", 14), ("13", 14), ("12", 30), ("13", 30)],
                         ids=["12", "13", "12-30", "13-30"])
def test_gate_matches_krylov_exponential_at_cutoff_14(pair, d):
    """Also at cutoff 30, where each block of the gate is 30 x 30."""
    space = TruncatedFockSpace(d)
    psi = _random_state(d, 2)
    Ka, Kb = (k_operator(i, d) for i in GATE_GENERATORS[pair])
    beta, theta = 0.45, 1.3
    H = np.sin(theta) * Ka - np.cos(theta) * Kb
    expected = expm_multiply(-1j * beta * H.tocsc(), psi)
    got = space.apply_fwm(psi, beta, theta, pair)
    assert np.max(np.abs(got - expected)) <= 1e-14


def test_gate_heisenberg_action():
    """Conjugating the probe annihilator through one mixer gate reproduces
    the 3x3 mode-matrix coefficients on low-occupation states.  Residuals
    come from the cutoff boundary and die off fast with the cutoff."""
    d, b, th = 8, 0.4, 0.9
    A1, A2, _ = _mode_operators(d)
    H = np.sin(th) * k_operator(1, d) - np.cos(th) * k_operator(2, d)
    U = expm(-1j * b * H.toarray())
    conj = U.conj().T @ A1.toarray() @ U
    expected = (
        np.cosh(b / 2) * A1.toarray()
        + np.exp(-1j * th) * np.sinh(b / 2) * A2.toarray().conj().T
    )
    n1, n2, n3 = _occupation_arrays(d)
    interior = (n1 <= 2) & (n2 <= 2) & (n3 <= 2)
    block = np.ix_(interior, interior)
    assert np.allclose(conj[block], expected[block], atol=1e-5)


def test_phase_stage_is_diagonal_phase():
    space = TruncatedFockSpace(5)
    psi, _ = space.coherent_vector((0.3, 0.2, 0.1))
    rot = space.apply_phases(psi, 0.4, 0.5, 0.6)
    assert np.allclose(np.abs(rot), np.abs(psi), atol=1e-15)


def test_run_circuit_unitary_up_to_preparation():
    space = TruncatedFockSpace(14)
    cfg = InterferometerConfig.balanced(0.4, 0.3, phi1=0.8, phi2=0.2)
    state = InputState.coherent(1, 0.6)
    fsv = space.run_circuit(cfg, state)
    assert np.isclose(fsv.norm ** 2, 1.0 - fsv.gate_leakage[0], atol=1e-12)
    assert len(fsv.gate_leakage) == 6  # preparation + five stages
    assert fsv.gate_leakage[3] == 0.0  # the phase stage cannot leak


def test_guard_trips_at_strong_gain():
    space = TruncatedFockSpace(14)
    cfg = InterferometerConfig.balanced(2.0, 2.0)
    with pytest.raises(LeakageExceeded):
        space.run_circuit(cfg, InputState.vacuum())


def test_guard_trips_on_preparation_deficit():
    space = TruncatedFockSpace(8)
    with pytest.raises(LeakageExceeded):
        space.run_circuit(
            InterferometerConfig.balanced(0.1, 0.1), InputState.coherent(1, 2.5)
        )


def test_phase_stack_members_equal_scalar_calls():
    """A (2, 3) stack of internal phases runs as six circuits in one: each
    member's amplitudes, leakage record and statistics are bit-identical
    to its scalar call, and the scalar call gives floats."""
    space = TruncatedFockSpace(14)
    base = InterferometerConfig(0.3, 0.25, 0.3, 0.2, 0.3, 1.1, 2.0, 4.0)
    state = InputState((0.5, 0.2j, -0.3))
    phi1 = np.array([[0.0, 0.7, 2.9], [4.1, 5.5, 6.2]])
    phi2 = np.array([[0.3], [1.9]])
    fsv = space.run_circuit(base.with_phases(phi1, phi2, 3.1), state)
    assert fsv.amplitudes.shape == (2, 3, 14 ** 3)
    assert fsv.gate_leakage.shape == (2, 3, 6)
    assert fsv.leakage == np.max(fsv.member_leakage)
    w = (1.0, -0.5, 0.25)
    mean, cov = photon_statistics_fock(fsv)
    est, diff = estimator_stats_fock(fsv, w), conserved_difference_stats(fsv)
    for i, j in np.ndindex(phi1.shape):
        one = space.run_circuit(base.with_phases(phi1[i, j], phi2[i, 0], 3.1), state)
        assert np.array_equal(fsv.amplitudes[i, j], one.amplitudes), (i, j)
        assert np.array_equal(fsv.gate_leakage[i, j], one.gate_leakage), (i, j)
        assert fsv.member_leakage[i, j] == one.leakage == one.member_leakage
        assert fsv.norm[i, j] == one.norm
        one_mean, one_cov = photon_statistics_fock(one)
        assert np.array_equal(mean[i, j], one_mean) and np.array_equal(cov[i, j], one_cov)
        one_est, one_diff = estimator_stats_fock(one, w), conserved_difference_stats(one)
        for many, scalar in ((est, one_est), (diff, one_diff)):
            assert many[0][i, j] == scalar[0] and many[1][i, j] == scalar[1], (i, j)
            assert all(type(x) is float for x in scalar)
        assert type(one.norm) is float and type(one.leakage) is float


def test_guard_trips_when_one_stack_member_crosses():
    """At balanced gains 0.5 the phase pi makes the recombiners amplify: its
    scalar call trips the guard and the phase-0 call does not, and a stack
    holding both trips it in either order."""
    space = TruncatedFockSpace(14)
    vac = InputState.vacuum()
    assert space.run_circuit(InterferometerConfig.balanced(0.5, 0.5), vac).leakage < 1e-8
    with pytest.raises(LeakageExceeded, match="after stage 4"):
        space.run_circuit(InterferometerConfig.balanced(0.5, 0.5, phi1=np.pi), vac)
    for phi1 in ([0.0, np.pi], [np.pi, 0.0]):
        with pytest.raises(LeakageExceeded, match="after stage 4"):
            space.run_circuit(InterferometerConfig.balanced(0.5, 0.5, phi1=np.array(phi1)),
                              vac)


def test_array_gains_and_pump_phases_are_rejected():
    space = TruncatedFockSpace(6)
    vac = InputState.vacuum()
    with pytest.raises(ValueError):
        space.run_circuit(InterferometerConfig.balanced(np.array([0.1, 0.2]), 0.1), vac)
    with pytest.raises(ValueError):
        space.run_circuit(InterferometerConfig(0.1, 0.1, 0.1, 0.1, theta4=np.zeros(2)), vac)


def test_photon_statistics_on_handmade_state():
    d = 4
    psi = np.zeros(d ** 3, dtype=complex)
    psi[0] = 1 / np.sqrt(2)          # |0,0,0>
    psi[d * d + d] = 1 / np.sqrt(2)  # |1,1,0>
    fsv = FockStateVector(d, psi, 0.0, (0.0,))
    mean, cov = photon_statistics_fock(fsv)
    assert np.allclose(mean, [0.5, 0.5, 0.0])
    assert np.isclose(cov[0, 0], 0.25)
    assert np.isclose(cov[0, 1], 0.25)
    m, v = estimator_stats_fock(fsv, (1, -1, 0))
    assert np.isclose(m, 0.0) and np.isclose(v, 0.0, atol=1e-14)


def test_conserved_difference_on_circuits():
    space = TruncatedFockSpace(14)
    cfg = InterferometerConfig.balanced(0.4, 0.4, phi1=1.1, phi3=0.3)
    m, v = conserved_difference_stats(space.run_circuit(cfg, InputState.vacuum()))
    assert abs(m) < 1e-10 and abs(v) < 1e-10
    state = InputState.coherent(3, 0.5)
    m, v = conserved_difference_stats(space.run_circuit(cfg, state))
    assert np.isclose(m, -0.25, atol=1e-8)


def test_fock_derivative_matches_analytic():
    space = TruncatedFockSpace(14)
    cfg = InterferometerConfig.balanced(0.3, 0.25, phi1=0.4, phi2=1.0)
    state = InputState.coherent(1, 0.5)
    w = (1.0, -0.5, 0.25)
    for j in (1, 2, 3):
        df = mean_derivative_fock(space, cfg, state, w, j)
        da = mean_derivative(cfg, state, w, j)
        assert np.isclose(df, da, atol=1e-5), j


def test_agreement_suite_small():
    worst = compare_with_gaussian(trials=8)
    for key in ("mean", "cov", "var", "deriv"):
        assert worst[key] < 1e-6, (key, worst)
    assert worst["leakage"] < 1e-8


def test_agreement_suite_at_cutoff_30():
    """A larger grid carries the agreement to gains of 0.8 inside the guard."""
    worst = compare_with_gaussian(trials=10, cutoff=30, beta_max=0.8)
    for key in ("mean", "cov", "var", "deriv"):
        assert worst[key] < 1e-6, (key, worst)
    assert worst["leakage"] < 1e-8


def test_zero_phase_limits_from_fock_circuits():
    """Vacuum zero-phase limits at beta1 = beta2 = 0.5 from the Fock
    simulator alone, which shares no code with the Gaussian pipeline.

    Three circuits per probe offset eps (at eps and eps +- eps/10) give
    the covariance and a central-difference slope; with the step tied to
    eps its error is another eps^2 term, so one Richardson step over
    eps = 1e-2, 1e-3 removes both.  The bright-pair closed form is the
    limit of the (1, 1, 0) detector, not of (1, 0, 1), and (1, 0, 0), on
    the optimal line of the vacuum invariant, beats (1, 0, 1).
    """
    space = TruncatedFockSpace(14)
    weights = {"110": (1, 1, 0), "101": (1, 0, 1), "100": (1, 0, 0)}
    epsilons = (1e-2, 1e-3)
    ladder = []
    for eps in epsilons:
        h = eps / 10
        stats = [
            photon_statistics_fock(space.run_circuit(
                InterferometerConfig.balanced(0.5, 0.5, phi), InputState.vacuum()))
            for phi in (eps, eps + h, eps - h)
        ]
        cov = stats[0][1]
        slope = (stats[1][0] - stats[2][0]) / (2 * h)
        ladder.append({
            k: np.sqrt(np.array(w) @ cov @ np.array(w)) / abs(np.array(w) @ slope)
            for k, w in weights.items()
        })
    coarse, fine = ladder
    q = (epsilons[0] / epsilons[1]) ** 2
    limit = {k: (q * fine[k] - coarse[k]) / (q - 1) for k in weights}

    bright = closed_form_limit(0.5, 0.5)
    assert abs(limit["110"] / bright - 1) <= 1e-8, limit
    assert abs(limit["101"] / bright - 1) > 1e-3, limit
    assert limit["100"] < limit["101"], limit
