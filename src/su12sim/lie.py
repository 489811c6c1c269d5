"""Defining representation of su(1,2) on the mode triple (a1, a2^dag, a3^dag).

A three-mode interferometer built from two-mode squeezers (four-wave
mixers), a beam splitter on the two idler modes, and single-mode phase
shifts is generated by eight Hermitian operators:

    K1 = (a1^dag a2^dag + a1 a2)/2        K2 = -i(a1^dag a2^dag - a1 a2)/2
    K3 = (a1^dag a3^dag + a1 a3)/2        K4 = -i(a1^dag a3^dag - a1 a3)/2
    K5 = -(a2^dag a3 + a3^dag a2)/2       K6 = -i(a2^dag a3 - a3^dag a2)/2
    K7 = (a1^dag a1 + a2 a2^dag)/2        K8 = (a1^dag a1 - a2 a2^dag + 2 a3 a3^dag)/(2 sqrt 3)

K1..K4 create/annihilate photons in pairs (amplifiers), K5/K6 exchange
photons between modes 2 and 3 (a passive beam splitter), and K7/K8 are
phase operators.  Conjugating the column vector (a1, a2^dag, a3^dag) by
exp(i alpha K_i) acts linearly, which defines the 3x3 matrices of this
module.  Every such matrix S satisfies the pseudo-unitarity relation

    J S^dag J S = I,   J = diag(1, -1, -1),

equivalently S^dag J S = J: the quadratic form carried by J is the
photon-number difference n1 - n2 - n3, which is conserved by every
element of the group.  (As an operator identity, n1 - n2 - n3 commutes
with each K_i; its commutation action on the triple (a1, a2^dag, a3^dag)
is -1 times each component, i.e. a multiple of the identity matrix.)

The generators g_i of this module are the derivatives of the closed-form
one-parameter subgroups at zero, so exp(alpha g_i) reproduces them
exactly.  They obey J g^dag J = -g, the algebra-level membership
condition.
"""

import math

import numpy as np

SQRT3 = np.sqrt(3.0)

#: pseudo-unitarity metric for the (a1, a2^dag, a3^dag) ordering
METRIC = np.diag([1.0, -1.0, -1.0]).astype(complex)


def generator(i):
    """Defining-representation generator g_i (i = 1..8), a 3x3 complex array.

    Normalized so that exp(alpha * g_i) equals group_element(i, alpha).
    """
    g = np.zeros((3, 3), dtype=complex)
    if i == 1:
        g[0, 1] = -0.5j
        g[1, 0] = 0.5j
    elif i == 2:
        g[0, 1] = -0.5
        g[1, 0] = -0.5
    elif i == 3:
        g[0, 2] = -0.5j
        g[2, 0] = 0.5j
    elif i == 4:
        g[0, 2] = -0.5
        g[2, 0] = -0.5
    elif i == 5:
        g[1, 2] = -0.5j
        g[2, 1] = -0.5j
    elif i == 6:
        g[1, 2] = -0.5
        g[2, 1] = 0.5
    elif i == 7:
        g[0, 0] = -0.5j
        g[1, 1] = 0.5j
    elif i == 8:
        g[0, 0] = -0.5j / SQRT3
        g[1, 1] = -0.5j / SQRT3
        g[2, 2] = 1j / SQRT3
    else:
        raise ValueError(f"generator index must be 1..8, got {i}")
    return g


GENERATORS = {i: generator(i) for i in range(1, 9)}


def group_element(i, alpha):
    """Closed form of exp(i alpha K_i) acting on (a1, a2^dag, a3^dag).

    The amplifier elements (i = 1..4) are hyperbolic in alpha/2, the
    beam-splitter elements (i = 5, 6) trigonometric, and the phase
    elements (i = 7, 8) diagonal unit-modulus.  An array alpha gives the
    stack of elements, shape alpha.shape + (3, 3).
    """
    alpha = np.asarray(alpha, dtype=float)
    c, s = np.cosh(alpha / 2.0), np.sinh(alpha / 2.0)
    cc, ss = np.cos(alpha / 2.0), np.sin(alpha / 2.0)
    g = np.zeros(alpha.shape + (3, 3), dtype=complex)
    if i == 1:
        g[..., 0, 0] = g[..., 1, 1] = c
        g[..., 0, 1], g[..., 1, 0], g[..., 2, 2] = -1j * s, 1j * s, 1.0
    elif i == 2:
        g[..., 0, 0] = g[..., 1, 1] = c
        g[..., 0, 1], g[..., 1, 0], g[..., 2, 2] = -s, -s, 1.0
    elif i == 3:
        g[..., 0, 0] = g[..., 2, 2] = c
        g[..., 0, 2], g[..., 2, 0], g[..., 1, 1] = -1j * s, 1j * s, 1.0
    elif i == 4:
        g[..., 0, 0] = g[..., 2, 2] = c
        g[..., 0, 2], g[..., 2, 0], g[..., 1, 1] = -s, -s, 1.0
    elif i == 5:
        g[..., 1, 1] = g[..., 2, 2] = cc
        g[..., 1, 2], g[..., 2, 1], g[..., 0, 0] = -1j * ss, -1j * ss, 1.0
    elif i == 6:
        g[..., 1, 1] = g[..., 2, 2] = cc
        g[..., 1, 2], g[..., 2, 1], g[..., 0, 0] = -ss, ss, 1.0
    elif i == 7:
        g[..., 0, 0] = np.exp(-0.5j * alpha)
        g[..., 1, 1] = np.exp(0.5j * alpha)
        g[..., 2, 2] = 1.0
    elif i == 8:
        r = alpha / (2.0 * SQRT3)
        g[..., 0, 0] = g[..., 1, 1] = np.exp(-1j * r)
        g[..., 2, 2] = np.exp(2j * r)
    else:
        raise ValueError(f"generator index must be 1..8, got {i}")
    return g


#: Taylor terms of exp_generator; on a 1-norm of at most 1/2 the first
#: term left out, (1/2)^17 / 17!, is 2e-20, far below double rounding
_TAYLOR_TERMS = 16


def exp_generator(i, alpha):
    """Matrix exponential exp(alpha * g_i), for cross-checking group_element.

    A truncated Taylor series with scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)): alpha g_i is halved s times, which
    is exact, until its 1-norm is at most 1/2, summed to _TAYLOR_TERMS
    terms and squared s times.  It shares no code with the closed forms.
    """
    a = alpha * GENERATORS[i]
    s = max(0, math.frexp(float(np.max(np.sum(np.abs(a), axis=0))))[1] + 1)
    x = a / 2.0 ** s
    term = out = np.eye(3, dtype=complex)
    for k in range(1, _TAYLOR_TERMS + 1):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


# ---------------------------------------------------------------------------
# Structure constants.
#
# BRACKET_TABLE holds the tabulated coefficients for each unordered pair
# (i, j) with i < j, in the column-with-row orientation: the listed
# combination equals [K_j, K_i].  The operator bracket [K_i, K_j] is
# therefore the negative of the listed entry.  Pairs that commute have an
# empty list.  Coefficients multiply the Hermitian operators K_k.
# ---------------------------------------------------------------------------

_H = SQRT3 / 2.0

BRACKET_TABLE = {
    (1, 2): [(1j, 7)],
    (1, 3): [(0.5j, 6)],
    (1, 4): [(-0.5j, 5)],
    (1, 5): [(-0.5j, 4)],
    (1, 6): [(0.5j, 3)],
    (1, 7): [(1j, 2)],
    (1, 8): [],
    (2, 3): [(0.5j, 5)],
    (2, 4): [(0.5j, 6)],
    (2, 5): [(0.5j, 3)],
    (2, 6): [(0.5j, 4)],
    (2, 7): [(-1j, 1)],
    (2, 8): [],
    (3, 4): [(0.5j, 7), (_H * 1j, 8)],
    (3, 5): [(-0.5j, 2)],
    (3, 6): [(-0.5j, 1)],
    (3, 7): [(0.5j, 4)],
    (3, 8): [(_H * 1j, 4)],
    (4, 5): [(0.5j, 1)],
    (4, 6): [(-0.5j, 2)],
    (4, 7): [(-0.5j, 3)],
    (4, 8): [(-_H * 1j, 3)],
    (5, 6): [(0.5j, 7), (-_H * 1j, 8)],
    (5, 7): [(-0.5j, 6)],
    (5, 8): [(_H * 1j, 6)],
    (6, 7): [(0.5j, 5)],
    (6, 8): [(-_H * 1j, 5)],
    (7, 8): [],
}


def bracket_coefficients(i, j):
    """Coefficients c_k of the operator bracket [K_i, K_j] = sum_k c_k K_k."""
    if i == j:
        return []
    if i < j:
        return [(-c, k) for c, k in BRACKET_TABLE[(i, j)]]
    return list(BRACKET_TABLE[(j, i)])


def ad_matrix(i):
    """Adjoint action of K_i as an 8x8 matrix: [K_i, K_j] = sum_k M[j,k] K_k.

    Rows/columns are 0-based for generator indices 1..8.
    """
    m = np.zeros((8, 8), dtype=complex)
    for j in range(1, 9):
        for c, k in bracket_coefficients(i, j):
            m[j - 1, k - 1] += c
    return m


#: reference adjoint matrix of K1 for entrywise regression checks
AD_K1_REFERENCE = np.zeros((8, 8), dtype=complex)
AD_K1_REFERENCE[1, 6] = -1j
AD_K1_REFERENCE[2, 5] = -0.5j
AD_K1_REFERENCE[3, 4] = 0.5j
AD_K1_REFERENCE[4, 3] = 0.5j
AD_K1_REFERENCE[5, 2] = -0.5j
AD_K1_REFERENCE[6, 1] = -1j


def membership_defect(S):
    """Max-abs deviation of J S^dag J S from the identity.

    A stack of shape (..., 3, 3) gives one defect per matrix.
    """
    S = np.asarray(S, dtype=complex)
    dev = np.abs(METRIC @ S.conj().swapaxes(-1, -2) @ METRIC @ S - np.eye(3))
    defect = np.max(dev, axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def is_pseudo_unitary(S, tol=1e-9):
    """Whether S is a group member: J S^dag J S = I within tol."""
    return membership_defect(S) <= tol


def random_elements(rng, n, factors=6, scale=0.8):
    """n random group members, shape (n, 3, 3): products of closed forms.

    Each element draws its generator indices and then its parameters
    from rng, so the stack equals n successive random_element calls.
    Products of exact one-parameter elements are exact members, so the
    results fail membership checks only through rounding.
    """
    idx = np.empty((n, factors), dtype=int)
    amp = np.empty((n, factors))
    for row in range(n):
        idx[row] = rng.integers(1, 9, size=factors)
        amp[row] = rng.uniform(-scale, scale, size=factors)
    G = np.empty((n, factors, 3, 3), dtype=complex)
    for i in np.unique(idx):
        pick = idx == i
        G[pick] = group_element(int(i), amp[pick])
    S = np.broadcast_to(np.eye(3, dtype=complex), (n, 3, 3))
    for f in range(factors):
        S = G[:, f] @ S
    return S


def random_element(rng, factors=6, scale=0.8):
    """One random group member; see random_elements."""
    return random_elements(rng, 1, factors, scale)[0]


def bracket_table_sign():
    """Reconcile BRACKET_TABLE with the commutators of the matrix generators.

    Under K -> i g every tabulated combination must equal the matrix
    commutator [i g_i, i g_j] up to one sign shared by all pairs.  The
    first non-vanishing entry fixes that sign (the one leaving the
    smaller residual); +1 if every entry vanishes.  Returns the sign and
    {(i, j): max-abs residual} over the tabulated pairs in sorted order.
    """
    mu = {i: 1j * GENERATORS[i] for i in range(1, 9)}
    sign = None
    devs = {}
    for (i, j), face in sorted(BRACKET_TABLE.items()):
        comm = mu[i] @ mu[j] - mu[j] @ mu[i]
        face_sum = sum((c * mu[k] for c, k in face), np.zeros((3, 3), dtype=complex))
        if sign is None and np.max(np.abs(face_sum)) > 1e-12:
            plus = np.max(np.abs(comm - face_sum))
            minus = np.max(np.abs(comm + face_sum))
            sign = 1.0 if plus < minus else -1.0
        s = sign if sign is not None else 1.0
        devs[(i, j)] = float(np.max(np.abs(comm - s * face_sum)))
    return (sign if sign is not None else 1.0), devs
