"""High-precision reference for the balanced cascade at exact pump phase pi,
and for figure 3's cells at the library's float pump phase.

Shares no code with su12sim: a reference that did would check nothing.
The splitters R = S2 S1 are built from cosh and sinh of the half gains, the
recombiners are L = R^-1 (exact theta = pi, where the library uses the
float nearest pi), and the photocount moments of a coherent input follow
from the slot Wick formulas at a small probe offset eps:

    <n_i> = v_i + p_i
    Cov(n_i, n_j) = q_i q_j + 2 Re(u_i u_j^*)      (i != j)
    Var(n_i) = v_i (v_i + 1) + p_i (2 v_i + 1)

with S = L P(eps) R, m = S alpha~, s = S[:, 0], q = |s|^2, p = |m|^2,
u = m^* s, v_0 = |S_01|^2 + |S_02|^2 and v_i = |S_i0|^2.  The slope
d<n>/dphi_j is exact, from dS = L dP R.  On ports whose zero-phase
covariance and slope vanish, C(eps) / eps^2 and d(eps) / eps are C2 and
d1 up to O(eps), far below double precision at eps = 1e-25.  figure3_cell
builds the recombiners from their own mixers at theta = float(pi) instead,
and takes the moments at figure 3's phase point itself.  cascade_moments
does so for any gains, pump phases and phases of the four mixers.
"""

import math

from mpmath import mp

DIGITS = 60
EPS = mp.mpf("1e-25")


def _mixer(beta, pair, theta=0.0):
    ch, sh = mp.cosh(mp.mpf(beta) / 2), mp.sinh(mp.mpf(beta) / 2)
    k = 1 if pair == "12" else 2
    m = mp.eye(3)
    m[0, 0] = m[k, k] = ch
    m[0, k], m[k, 0] = (mp.expj(-theta) * sh, mp.expj(theta) * sh) if theta else (sh, sh)
    return m


def _moments(alpha, beta1, beta2, phase_index, eps):
    """Photocount means, covariance and slope d<n>/dphi_j at phi_j = eps."""
    R = _mixer(beta2, "13") * _mixer(beta1, "12")
    L = mp.inverse(R)
    j = phase_index - 1
    sign = [1, -1, -1]  # slots carry a1, a2^dag, a3^dag
    P, dP = mp.eye(3), mp.zeros(3, 3)
    P[j, j] = mp.expj(sign[j] * eps)
    dP[j, j] = 1j * sign[j] * P[j, j]
    return _counts(alpha, L * P * R, L * dP * R)


def _counts(alpha, S, dS):
    """Photocount means, covariance and slope of the cascade S with phase
    derivative dS, on coherent input alpha."""
    a = [mp.mpc(alpha[0]), mp.conj(alpha[1]), mp.conj(alpha[2])]
    m = [mp.fsum(S[i, k] * a[k] for k in range(3)) for i in range(3)]
    dm = [mp.fsum(dS[i, k] * a[k] for k in range(3)) for i in range(3)]

    def pairing(X, Y):
        """conj(X) Y over X[0, 1:] for mode 1 and X[i, 0] for modes 2 and 3."""
        return [mp.conj(X[0, 1]) * Y[0, 1] + mp.conj(X[0, 2]) * Y[0, 2],
                mp.conj(X[1, 0]) * Y[1, 0], mp.conj(X[2, 0]) * Y[2, 0]]

    v = [mp.re(x) for x in pairing(S, S)]
    q = [abs(S[i, 0]) ** 2 for i in range(3)]
    p = [abs(x) ** 2 for x in m]
    u = [mp.conj(m[i]) * S[i, 0] for i in range(3)]
    mean = [v[i] + p[i] for i in range(3)]
    cov = [[q[i] * q[k] + 2 * mp.re(u[i] * mp.conj(u[k])) for k in range(3)]
           for i in range(3)]
    for i in range(3):
        cov[i][i] = v[i] * (v[i] + 1) + p[i] * (2 * v[i] + 1)
    slope = [2 * mp.re(x + mp.conj(m[i]) * dm[i])
             for i, x in enumerate(pairing(S, dS))]
    return mean, cov, slope


def _delta_phi(cov, slope, weights):
    """Error-propagation sensitivity sqrt(w C w) / |w . d| of the weights."""
    w = [mp.mpf(x) for x in weights]
    var = mp.fsum(w[i] * cov[i][k] * w[k] for i in range(3) for k in range(3))
    return float(mp.sqrt(var) / abs(mp.fsum(x * d for x, d in zip(w, slope))))


def zero_phase_limit(alpha, beta1, beta2, weights, phase_index=1):
    """Zero-phase sensitivity sqrt(w C w) / |w . d| of the weights, at eps."""
    with mp.workdps(DIGITS):
        _, cov, slope = _moments(alpha, beta1, beta2, phase_index, EPS)
        return _delta_phi(cov, slope, weights)


def figure3_cell(phi2, phi3, beta=3.0, phi1=1e-3, weights=(1.0, 0.0, 1.0)):
    """dphi1 of one figure 3 cell on vacuum: the balanced cascade at gains
    beta, on the float phases phi1, phi2, phi3 and with the library's
    recombiner pump phases theta3 = theta4 = float(pi), not exact pi."""
    with mp.workdps(DIGITS):
        theta = mp.mpf(math.pi)
        R = _mixer(beta, "13") * _mixer(beta, "12")
        L = _mixer(beta, "12", theta) * _mixer(beta, "13", theta)
        P = mp.diag([mp.expj(phi1), mp.expj(-phi2), mp.expj(-phi3)])
        dP = mp.zeros(3, 3)
        dP[0, 0] = 1j * P[0, 0]
        _, cov, slope = _counts((0.0, 0.0, 0.0), L * P * R, L * dP * R)
        return _delta_phi(cov, slope, weights)


def cascade_moments(alpha, betas, thetas, phis, phase_index=1):
    """Photocount means, covariance and slope d<n>/dphi_j of any cascade on
    coherent input alpha: the mixers of gains betas and pump phases thetas,
    first applied first, around the phase stage on phis."""
    with mp.workdps(DIGITS):
        S1, S2, S3, S4 = (_mixer(b, pair, mp.mpf(th)) for b, th, pair in
                          zip(betas, thetas, ("12", "13", "13", "12")))
        sign = [1, -1, -1]  # slots carry a1, a2^dag, a3^dag
        P = mp.diag([mp.expj(s * mp.mpf(phi)) for s, phi in zip(sign, phis)])
        j = phase_index - 1
        dP = mp.zeros(3, 3)
        dP[j, j] = 1j * sign[j] * P[j, j]
        return _counts(alpha, S4 * S3 * P * S2 * S1, S4 * S3 * dP * S2 * S1)


def optimal_ratio(alpha, beta1, beta2, free, phase_index=1):
    """Ratio w_b / w_a of the optimal weights on the free ports (a, b), 0-based:
    the solution of C2 w = d1 there."""
    with mp.workdps(DIGITS):
        _, cov, slope = _moments(alpha, beta1, beta2, phase_index, EPS)
        a, b = free
        c2 = mp.matrix([[cov[i][k] / EPS ** 2 for k in free] for i in free])
        w = mp.lu_solve(c2, mp.matrix([slope[a] / EPS, slope[b] / EPS]))
        return float(w[1] / w[0])
