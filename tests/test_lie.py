"""Group and algebra structure checks for the SU(1,2) defining representation,
on the generators' closed forms and on the device's own transforms, which
lie-verify samples (cli._device_configs)."""

import numpy as np
import pytest
from scipy.linalg import expm

from su12sim.cli import _device_configs
from su12sim.lie import (
    METRIC,
    GENERATORS,
    AD_K1_REFERENCE,
    BRACKET_TABLE,
    _stack_product,
    ad_matrix,
    bracket_coefficients,
    bracket_table_sign,
    determinant,
    exp_generator,
    generator,
    group_element,
    membership_defect,
)


def test_metric_signature():
    assert np.array_equal(METRIC, np.diag([1.0, -1.0, -1.0]))


def test_generators_satisfy_algebra_condition():
    # J g^dag J = -g for every basis element
    for i in range(1, 9):
        g = generator(i)
        lhs = METRIC @ g.conj().T @ METRIC
        assert np.allclose(lhs, -g, atol=1e-15)


def test_generators_traceless():
    for i in range(1, 9):
        assert abs(np.trace(generator(i))) < 1e-15


@pytest.mark.parametrize("i", range(1, 9))
def test_closed_form_matches_exponential(i):
    for a in (-1.3, -0.4, 0.25, 0.9, 2.0):
        S = group_element(i, a)
        E = exp_generator(i, a)
        assert np.allclose(S, E, atol=1e-12), (i, a)


@pytest.mark.parametrize("i", range(1, 9))
def test_exponential_matches_scipy_expm(i):
    """The scaled and squared Taylor series against scipy's Pade expm; the
    gains up to |alpha| = 10 take four squarings."""
    for a in np.linspace(-10.0, 10.0, 81):
        ref = expm(a * GENERATORS[i])
        dev = np.max(np.abs(exp_generator(i, a) - ref)) / np.max(np.abs(ref))
        assert dev <= 1e-14, (i, a, dev)


@pytest.mark.parametrize("i", range(1, 9))
def test_one_parameter_elements_are_members(i):
    for a in (-0.8, 0.6, 1.7):
        assert membership_defect(group_element(i, a)) <= 1e-9


def _device_transforms(seed, n):
    """Total transforms of n random devices, drawn as lie-verify draws them."""
    return _device_configs(np.random.default_rng(seed), n).total_matrix()


def test_random_products_stay_in_group():
    worst = 0.0
    for S in _device_transforms(11, 300):
        worst = max(worst, membership_defect(S))
    assert worst < 1e-9


def _seeded_factor_stacks(seed, n=2000):
    return np.split(_device_transforms(seed, 2 * n), 2)


def test_stack_product_matches_matmul():
    """The term-by-term stack product against numpy's @ on seeded stacks of
    device transforms.  Relative to max|A_ij| max|B_ij|, the rounding scale
    of a product, the two differed by at most 7.8e-16 over 40,000 products
    of two device transforms (seeds 0-19); the bound is 2.6 times that."""
    worst = 0.0
    for seed in (1, 2, 3):
        A, B = _seeded_factor_stacks(seed)
        dev = np.max(np.abs(_stack_product(A, B) - A @ B), axis=(-2, -1))
        scale = np.max(np.abs(A), axis=(-2, -1)) * np.max(np.abs(B), axis=(-2, -1))
        worst = max(worst, float(np.max(dev / scale)))
    assert worst <= 2e-15
    # a single 3x3 pair and a stack with two leading axes
    A, B = _seeded_factor_stacks(4, n=6)
    assert np.array_equal(_stack_product(A[0], B[0]), _stack_product(A, B)[0])
    assert np.array_equal(_stack_product(A.reshape(2, 3, 3, 3), B.reshape(2, 3, 3, 3)),
                          _stack_product(A, B).reshape(2, 3, 3, 3))


def test_membership_defect_matches_three_product_form():
    """The sign-masked one-product defect against the former
    |J S^dag J S - I| with three @ products, kept here as the reference.
    Relative to max|S_ij|^2, the scale lie-verify reports the defect on,
    they differed by at most 3.9e-16 over 80,000 device transforms (seeds
    0-19), and the bound is about four times that."""
    for seed in (5, 6):
        for S in _seeded_factor_stacks(seed):
            ref = np.max(np.abs(METRIC @ S.conj().swapaxes(-1, -2) @ METRIC @ S
                                - np.eye(3)), axis=(-2, -1))
            scale = np.max(np.abs(S), axis=(-2, -1)) ** 2
            assert np.max(np.abs(membership_defect(S) - ref) / scale) <= 1.5e-15


def test_determinant_matches_numpy_det():
    """The cofactor determinant against LAPACK's on device transforms, and
    det 1 on every one-parameter element: the generators are traceless.
    Relative to max|S_ij|^3 the two determinants differed by at most
    4.4e-16 over 80,000 device transforms (seeds 0-19), and the one-parameter
    determinants missed 1 by at most 2.2e-16; the bounds are 3.4 and 4.5
    times those."""
    for seed in (7, 8):
        for S in _seeded_factor_stacks(seed):
            scale = np.max(np.abs(S), axis=(-2, -1)) ** 3
            assert np.max(np.abs(determinant(S) - np.linalg.det(S)) / scale) <= 1.5e-15
    for i in range(1, 9):
        elements = group_element(i, np.linspace(-2.0, 2.0, 9))
        assert np.max(np.abs(determinant(elements) - 1.0)) <= 1e-15, i


@pytest.mark.parametrize("i", [0, 9])
def test_group_element_rejects_index_outside_table(i):
    with pytest.raises(ValueError, match="1..8"):
        group_element(i, 0.5)


def test_membership_defect_on_stacks():
    stack = _device_transforms(3, 40)
    stack[7] *= 1.01  # one non-member in the stack
    defects = membership_defect(stack)
    assert defects.shape == (40,)
    assert np.array_equal(defects, [membership_defect(S) for S in stack])
    assert defects[7] > 1e-3 and np.delete(defects, 7).max() < 1e-12
    grid = membership_defect(stack.reshape(4, 10, 3, 3))
    assert np.array_equal(grid, defects.reshape(4, 10))


@pytest.mark.parametrize("i", range(1, 9))
def test_group_element_broadcasts_bitwise(i):
    alphas = np.random.default_rng(i).uniform(-2.0, 2.0, size=(4, 5))
    stack = group_element(i, alphas)
    assert stack.shape == (4, 5, 3, 3)
    scalar = np.array([[group_element(i, float(a)) for a in row] for row in alphas])
    assert np.array_equal(stack.view(np.uint64), scalar.view(np.uint64))


def test_membership_defect_flags_non_members():
    assert membership_defect(np.diag([1.1, 1.0, 1.0])) > 1e-3
    assert membership_defect(2.0 * np.eye(3)) > 1e-9


def test_inverse_from_metric():
    """J S^dag J is the inverse of any group element."""
    for S in _device_transforms(5, 20):
        inv = METRIC @ S.conj().T @ METRIC
        assert np.allclose(inv @ S, np.eye(3), atol=1e-10)


def test_bracket_table_single_global_sign():
    """Matrix commutators reproduce the tabulated coefficients up to one
    overall sign shared by every pair; the table lists [K_j, K_i], so the
    sign is -1, and the pairs the table leaves empty commute."""
    sign, devs = bracket_table_sign()
    assert sign == -1.0
    assert sorted(devs) == sorted(BRACKET_TABLE) and len(devs) == 28
    assert max(devs.values()) <= 1e-12
    K = {i: 1j * GENERATORS[i] for i in range(1, 9)}
    for (i, j), face in BRACKET_TABLE.items():
        if not face:
            assert np.allclose(K[i] @ K[j] - K[j] @ K[i], 0.0, atol=1e-14), (i, j)


def test_adjoint_k1_matches_reference():
    assert np.allclose(ad_matrix(1), AD_K1_REFERENCE, atol=1e-14)


def test_adjoint_consistency_all_generators():
    """Row j of ad_i holds the expansion coefficients of [K_i, K_j]."""
    for i in range(1, 9):
        m = ad_matrix(i)
        for j in range(1, 9):
            row = np.zeros(8, dtype=complex)
            for c, k in bracket_coefficients(i, j):
                row[k - 1] += c
            assert np.allclose(m[j - 1], row, atol=1e-14), (i, j)
