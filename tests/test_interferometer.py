import numpy as np
import pytest
from scipy.linalg import expm

from su12sim.interferometer import (InterferometerConfig, chronological_product, fwm_matrix,
                                    phase_matrix, splitter_matrix)
from su12sim.lie import GENERATORS, determinant, membership_defect


def test_fwm_layout_pair12():
    b = 0.7
    S = fwm_matrix(b, 0.0, "12")
    ch, sh = np.cosh(b / 2), np.sinh(b / 2)
    assert np.allclose(S, [[ch, sh, 0], [sh, ch, 0], [0, 0, 1]])


def test_fwm_layout_pair13():
    b, th = 0.5, 0.9
    S = fwm_matrix(b, th, "13")
    assert S[1, 1] == 1.0
    assert np.isclose(abs(S[0, 2]), np.sinh(b / 2))
    assert np.isclose(np.angle(S[2, 0]), th)


def test_fwm_rejects_unknown_pair():
    with pytest.raises(ValueError):
        fwm_matrix(0.3, 0.0, "23")


@pytest.mark.parametrize("pair,ka,kb", [("12", 1, 2), ("13", 3, 4)])
def test_fwm_is_generated_hamiltonian(pair, ka, kb):
    """The mixer matrix is exp(-i beta (sin(theta) K_a - cos(theta) K_b))
    in the defining representation."""
    Ka, Kb = 1j * GENERATORS[ka], 1j * GENERATORS[kb]
    rng = np.random.default_rng(3)
    for _ in range(10):
        b = rng.uniform(0.0, 2.0)
        th = rng.uniform(0.0, 2.0 * np.pi)
        S = fwm_matrix(b, th, pair)
        E = expm(-1j * b * (np.sin(th) * Ka - np.cos(th) * Kb))
        assert np.allclose(S, E, atol=1e-12)


def test_fwm_and_phase_are_group_members():
    rng = np.random.default_rng(9)
    for _ in range(25):
        b, th = rng.uniform(0, 3), rng.uniform(0, 2 * np.pi)
        assert membership_defect(fwm_matrix(b, th, "12")) <= 1e-9
        assert membership_defect(fwm_matrix(b, th, "13")) <= 1e-9
        assert membership_defect(phase_matrix(*rng.uniform(0, 2 * np.pi, 3))) <= 1e-9


def test_phase_matrix_convention():
    P = phase_matrix(0.1, 0.2, 0.3)
    assert np.allclose(np.diag(P), [np.exp(0.1j), np.exp(-0.2j), np.exp(-0.3j)])


def test_mixers_have_unit_determinant_and_the_phase_stage_the_central_phase():
    """The mixers lie in SU(1,2); the phase stage has det exp(i(phi1 - phi2 - phi3)),
    and shifting its phases by chi (1, -1, -1) multiplies it by exp(i chi)."""
    rng = np.random.default_rng(43)
    b, th = rng.uniform(0.0, 3.2, 200), rng.uniform(0.0, 2.0 * np.pi, 200)
    for pair in ("12", "13"):
        assert np.max(np.abs(determinant(fwm_matrix(b, th, pair)) - 1.0)) <= 1e-14
    phi1, phi2, phi3, chi = rng.uniform(-np.pi, np.pi, (4, 200))
    P = phase_matrix(phi1, phi2, phi3)
    assert np.max(np.abs(determinant(P) - np.exp(1j * (phi1 - phi2 - phi3)))) <= 1e-15
    shifted = phase_matrix(phi1 + chi, phi2 - chi, phi3 - chi)
    assert np.max(np.abs(shifted - np.exp(1j * chi)[:, None, None] * P)) <= 1e-15


def test_stage_order_matches_total():
    cfg = InterferometerConfig(
        beta1=0.3, beta2=0.5, beta3=0.4, beta4=0.6,
        theta1=0.1, theta2=0.2, theta3=0.3, theta4=0.4,
        phi1=0.5, phi2=0.6, phi3=0.7,
    )
    mats = cfg.stage_matrices()
    assert len(mats) == 5
    prod = np.eye(3)
    for m in mats:
        prod = m @ prod
    assert np.allclose(prod, cfg.total_matrix(), atol=1e-14)


def test_total_is_group_member():
    cfg = InterferometerConfig.balanced(1.2, 0.8, phi1=0.3, phi2=0.1, phi3=0.9)
    assert membership_defect(cfg.total_matrix()) <= 1e-9


def test_balanced_cascade_undoes_itself():
    # with theta3 = theta4 = pi and matched gains, zero phase shifts
    # return the input state exactly
    for b1, b2 in [(0.5, 0.5), (2.0, 1.0), (3.0, 3.0)]:
        cfg = InterferometerConfig.balanced(b1, b2)
        assert np.allclose(cfg.total_matrix(), np.eye(3), atol=1e-12)


def test_balanced_with_phases_not_identity():
    cfg = InterferometerConfig.balanced(2.0, 2.0, phi1=1e-2)
    assert not np.allclose(cfg.total_matrix(), np.eye(3), atol=1e-6)


def test_with_phases_replaces_only_phases():
    cfg = InterferometerConfig.balanced(1.0, 2.0)
    cfg2 = cfg.with_phases(0.1, 0.2, 0.3)
    assert cfg2.beta1 == cfg.beta1 and cfg2.beta4 == cfg.beta4
    assert (cfg2.phi1, cfg2.phi2, cfg2.phi3) == (0.1, 0.2, 0.3)


def test_splitter_matrix_is_first_two_stages():
    """The closed-form R equals the product of the two splitter mixers bit for
    bit, on a gain stack with zero gains and cell by cell."""
    b1, b2 = np.meshgrid([0.0, 0.4, 1.5, 3.0, 6.0], [0.0, 0.7, 2.5, 5.5], indexing="ij")
    R = splitter_matrix(b1, b2)
    assert R.shape == (5, 4, 3, 3) and R.dtype == float
    product = fwm_matrix(b2, 0.0, "13") @ fwm_matrix(b1, 0.0, "12")
    assert np.array_equal(_bits(R), _bits(product.real)) and not product.imag.any()
    for idx in np.ndindex(b1.shape):
        assert np.array_equal(_bits(splitter_matrix(b1[idx], b2[idx])), _bits(R[idx]))


@pytest.mark.parametrize("phase_index", [1, 2, 3])
def test_balanced_recombiners_echo_the_splitters(phase_index):
    """The float-pi recombiner column L[:, j] = (S4 S3)[:, j] is G_jj G R[j],
    G = diag(1, -1, -1), up to the rounding of sin(pi)."""
    rng = np.random.default_rng(37 + phase_index)
    b1, b2 = rng.uniform(0.1, 6.0, (2, 200))
    j = phase_index - 1
    _, _, S3, S4 = InterferometerConfig.balanced(b1, b2).mixer_matrices()
    G = np.array([1.0, -1.0, -1.0])
    echo = G[j] * G * splitter_matrix(b1, b2)[:, j, :]
    L = (S4 @ S3)[:, :, j]
    assert np.all(np.abs(L - echo) <= 4e-16 * np.abs(echo))


def test_phase_arrays_give_stacks_of_group_members():
    rng = np.random.default_rng(31)
    phi1, phi2, phi3 = rng.uniform(0, 2 * np.pi, 5), rng.uniform(0, 2 * np.pi, (4, 1)), 0.3
    assert phase_matrix(phi1, phi2, phi3).shape == (4, 5, 3, 3)
    cfg = InterferometerConfig(0.3, 0.5, 0.4, 0.6, 0.1, 0.2, 0.3, 0.4, phi1, phi2, phi3)
    mats = cfg.stage_matrices()
    assert [m.shape for m in mats] == [(3, 3), (3, 3), (4, 5, 3, 3), (3, 3), (3, 3)]
    S = cfg.total_matrix()
    assert S.shape == (4, 5, 3, 3)
    assert np.all(membership_defect(S) <= 1e-9) and np.all(membership_defect(mats[2]) <= 1e-9)
    for i, j in np.ndindex(4, 5):
        one = cfg.with_phases(phi1[j], phi2[i, 0], phi3)
        assert np.array_equal(S[i, j], one.total_matrix())


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _identity_seeded_product(mats):
    """The chronological product as first written: every stage multiplied
    onto the identity."""
    S = np.eye(3, dtype=complex)
    for m in mats:
        S = m @ S
    return S


def test_chronological_product_equals_identity_seeded_loop():
    """Starting from the first stage drops the product with the identity and
    no bit: on random stacks, at zero gains and at beta = 800, where the
    entries overflow to inf and nan."""
    rng = np.random.default_rng(41)
    b, th = rng.uniform(0.0, 3.2, (4, 300)), rng.uniform(0.0, 2.0 * np.pi, (4, 300))
    ph = rng.uniform(-np.pi, np.pi, (3, 300))
    configs = [InterferometerConfig(*b, *th, *ph),
               InterferometerConfig(0.0, 0.0, 0.0, 0.0, *th, *ph),
               InterferometerConfig.balanced(0.0, 0.0, *ph),
               InterferometerConfig.balanced(0.0, 0.0),
               InterferometerConfig.balanced(800.0, b[1], *ph),
               InterferometerConfig.balanced(800.0, 3.0, 1e-3)]
    with np.errstate(over="ignore", invalid="ignore"):
        for cfg in configs:
            mats = cfg.stage_matrices()
            S = chronological_product(mats)
            assert np.array_equal(_bits(S), _bits(_identity_seeded_product(mats)))
    assert not np.isfinite(S).all()


def test_gain_arrays_give_stacks_equal_to_scalar_calls():
    betas = np.array([[0.0, 0.4, 2.5], [1.3, 3.0, 6.0]])
    thetas = np.array([0.0, 1.3, np.pi])
    for pair in ("12", "13"):
        stack = fwm_matrix(betas, thetas, pair)
        assert stack.shape == (2, 3, 3, 3)
        assert np.all(membership_defect(stack) <= 1e-9)
        for i, j in np.ndindex(betas.shape):
            one = fwm_matrix(betas[i, j], thetas[j], pair)
            assert np.array_equal(_bits(stack[i, j]), _bits(one))
        # a scalar gain broadcasts over an array of pump phases too
        stack = fwm_matrix(1.3, thetas, pair)
        for j in range(3):
            assert np.array_equal(_bits(stack[j]), _bits(fwm_matrix(1.3, thetas[j], pair)))
    cfg = InterferometerConfig.balanced(betas, 2.0, phi1=0.2)
    R = splitter_matrix(betas, 2.0)
    assert cfg.total_matrix().shape == R.shape == (2, 3, 3, 3)
    for i, j in np.ndindex(betas.shape):
        one = InterferometerConfig.balanced(betas[i, j], 2.0, phi1=0.2)
        assert np.array_equal(_bits(cfg.total_matrix()[i, j]), _bits(one.total_matrix()))
        assert np.array_equal(_bits(R[i, j]), _bits(splitter_matrix(betas[i, j], 2.0)))
