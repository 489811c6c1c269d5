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
element of the group.  n1 - n2 - n3 commutes with each K_i and acts on
(a1, a2^dag, a3^dag) as -1 times the identity: it generates the centre
exp(i chi) I of U(1,2), the group that J S^dag J S = I defines
(membership_defect).  The g_i are traceless, so the mixers lie in SU(1,2);
the device's phase stage adds the centre (see interferometer), so the
device group is U(1,2) = (SU(1,2) x U(1))/Z_3.  determinant reads the
central phase, which no photon count sees.

The generators g_i of this module are read from one table of their
nonzero matrix entries, and the closed-form one-parameter subgroups
exp(alpha g_i) are computed from them: the mixer and splitter generators
g_1..g_6 square to +-P/4 on the projector P of their mode pair, and the
phase generators g_7, g_8 are diagonal.  exp_generator, a Taylor series
that shares only the table, cross-checks the closed forms.  The
generators obey J g^dag J = -g, the algebra-level membership condition.
"""

import math

import numpy as np

from .interferometer import stack_product

SQRT3 = np.sqrt(3.0)

#: pseudo-unitarity metric for the (a1, a2^dag, a3^dag) ordering
METRIC = np.diag([1.0, -1.0, -1.0]).astype(complex)

#: the nonzero entries {(row, column): value} of each generator g_i
_ENTRIES = {
    1: {(0, 1): -0.5j, (1, 0): 0.5j},
    2: {(0, 1): -0.5, (1, 0): -0.5},
    3: {(0, 2): -0.5j, (2, 0): 0.5j},
    4: {(0, 2): -0.5, (2, 0): -0.5},
    5: {(1, 2): -0.5j, (2, 1): -0.5j},
    6: {(1, 2): -0.5, (2, 1): 0.5},
    7: {(0, 0): -0.5j, (1, 1): 0.5j},
    8: {(0, 0): -0.5j / SQRT3, (1, 1): -0.5j / SQRT3, (2, 2): 1j / SQRT3},
}
_EYE = np.eye(3)
_DIAG = np.arange(3)


def generator(i):
    """Defining-representation generator g_i (i = 1..8), a 3x3 complex array
    built from its row of the entry table."""
    if i not in _ENTRIES:
        raise ValueError(f"generator index must be 1..8, got {i}")
    g = np.zeros((3, 3), dtype=complex)
    for (row, col), value in _ENTRIES[i].items():
        g[row, col] = value
    return g


GENERATORS = {i: generator(i) for i in range(1, 9)}


def _closed_form(g):
    """(g, projector P, (f, h)) of exp(alpha g); P and (f, h) are None for
    the diagonal phase generators."""
    if np.any(np.diagonal(g)):  # g_7, g_8
        return g, None, None
    P = np.diag(np.any(g, axis=1))
    # the sign of g^2 = +-P/4 tells an amplifier from the splitter
    return g, P, ((np.cosh, np.sinh) if (g @ g)[P][0].real > 0 else (np.cos, np.sin))


#: each generator's closed-form ingredients, built once
_CLOSED_FORMS = {i: _closed_form(g) for i, g in GENERATORS.items()}


def group_element(i, alpha):
    """Closed form of exp(alpha g_i), the action of exp(i alpha K_i) on
    (a1, a2^dag, a3^dag).

    g_1..g_6 couple one mode pair, with projector P, and square to +-P/4,
    so exp(alpha g) = I + (f(alpha/2) - 1) P + 2 h(alpha/2) g, where (f, h)
    is (cosh, sinh) for the amplifiers 1..4 (g^2 = P/4) and (cos, sin) for
    the beam splitter 5, 6 (g^2 = -P/4).  The phase generators g_7, g_8 are
    diagonal and are exponentiated entry by entry.  g, P and (f, h) are
    read from a table built at import.  An array alpha gives the stack of
    elements, shape alpha.shape + (3, 3).
    """
    if i not in _CLOSED_FORMS:
        raise ValueError(f"generator index must be 1..8, got {i}")
    g, P, fh = _CLOSED_FORMS[i]
    alpha = np.asarray(alpha, dtype=float)
    if P is None:
        S = np.zeros(alpha.shape + (3, 3), dtype=complex)
        S[..., _DIAG, _DIAG] = np.exp(alpha[..., None] * np.diagonal(g))
        return S
    f, h = fh
    half = alpha[..., None, None] / 2.0
    return np.where(P, f(half), _EYE) + 2.0 * h(half) * g


#: Taylor terms of exp_generator; on a 1-norm of at most 1/2 the first
#: term left out, (1/2)^17 / 17!, is 2e-20, far below double rounding
_TAYLOR_TERMS = 16


def exp_generator(i, alpha):
    """Matrix exponential exp(alpha * g_i), for cross-checking group_element.

    A truncated Taylor series with scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)): alpha g_i is halved s times, which
    is exact, until its 1-norm is at most 1/2, summed to _TAYLOR_TERMS
    terms and squared s times.  It shares only the generator table with the
    closed forms.
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


#: J_ii J_kk, so that J X J is _METRIC_SIGNS * X exactly
_METRIC_SIGNS = np.outer(np.diagonal(METRIC).real, np.diagonal(METRIC).real)


def membership_defect(S):
    """Max-abs deviation of J S^dag J S from the identity.

    A stack of shape (..., 3, 3) gives one defect per matrix.  J S^dag J
    is S^dag with signs flipped, so one product remains.
    """
    S = np.asarray(S, dtype=complex)
    inv = _METRIC_SIGNS * S.conj().swapaxes(-1, -2)
    defect = np.max(np.abs(stack_product(inv, S) - _EYE), axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def determinant(S):
    """det S of a stack (..., 3, 3) by cofactors along the first row, in
    elementwise arithmetic, like interferometer.stack_product."""
    return (S[..., 0, 0] * (S[..., 1, 1] * S[..., 2, 2] - S[..., 1, 2] * S[..., 2, 1])
            - S[..., 0, 1] * (S[..., 1, 0] * S[..., 2, 2] - S[..., 1, 2] * S[..., 2, 0])
            + S[..., 0, 2] * (S[..., 1, 0] * S[..., 2, 1] - S[..., 1, 1] * S[..., 2, 0]))


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
