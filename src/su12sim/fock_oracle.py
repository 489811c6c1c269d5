"""Brute-force truncated-Fock simulator used as ground truth at small gain.

States live on a three-mode photon-number grid with a per-mode cutoff
D (occupations 0..D-1, vectors of length D^3, C-order with mode 1
slowest).  Four-wave-mixer gates are exponentials of the same Hermitian
generators as the matrix picture.  Every mixer generator is a mode-1
number rotation of the one real two-mode operator K1 (sin(theta) K1 -
cos(theta) K2 = R K1 R^dag with R = exp(-i chi n1), chi = theta - pi/2,
and likewise K3, K4 on modes 1 and 3), so K1 is diagonalised once per
cutoff and each gate is a phase, a real d^2 x d^2 basis change, a
diagonal phase and the way back, applied to the state viewed as a
(d, d, d) tensor -- the two-mode-gate tensor approach of Killoran et
al., Strawberry Fields, Quantum 3, 129 (2019).  The phase stage is
diagonal.  vacuum_k_variance applies K_i to that tensor by index shifts
of the ladder, so the module needs numpy alone; the sparse d^3 x d^3
matrices of the K_i, Kronecker products of the truncated ladder, are
kept in tests/test_fock_oracle.py as independent references.

Truncation bookkeeping needs care.  A gate generated by a truncated
Hermitian operator is *exactly* unitary on the truncated grid, so the
norm of the state never drops and "1 - norm" says nothing about
truncation error.  What the cutoff does instead is turn the top of the
grid into an artificial wall: amplitude that would flow past occupation
D - 1 is reflected back.  The honest error monitor is therefore the
probability found in the top occupation shell (any mode at D - 1) after
each mixer gate -- if nothing reaches the wall, the reflection never
happened and the evolution is exact.  run_circuit records that shell
mass per gate, together with the tail deficit of the truncated coherent
preparation, and raises LeakageExceeded the moment either passes the
guard instead of certifying silently wrong moments.  At the small gains
this oracle is meant for (beta <= 0.5, |alpha| <= 0.7, D = 14) the
shell mass sits around 1e-9; a gain of beta = 2 pushes milliprobability
onto the wall and trips the guard by orders of magnitude, as it should.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import InputState, photon_statistics, propagate
from .interferometer import InterferometerConfig
from .lie import SQRT3


class LeakageExceeded(RuntimeError):
    """Truncation loss above the guard threshold; results would be unreliable."""


def _occupation_arrays(d):
    n = np.arange(d)
    n1 = np.repeat(n, d * d)
    n2 = np.tile(np.repeat(n, d), d)
    n3 = np.tile(n, d * d)
    return n1, n2, n3


def _create(x, axis):
    """a^dag of the mode on one axis of a (d, d, d) tensor.

    The image of the top occupation falls off the grid, as under the
    truncated ladder matrix.
    """
    x = np.moveaxis(x, axis, 0)
    out = np.zeros_like(x)
    out[1:] = np.sqrt(np.arange(1.0, len(x)))[:, None, None] * x[:-1]
    return np.moveaxis(out, 0, axis)


def _annihilate(x, axis):
    """a of the mode on one axis of a (d, d, d) tensor."""
    x = np.moveaxis(x, axis, 0)
    out = np.zeros_like(x)
    out[:-1] = np.sqrt(np.arange(1.0, len(x)))[:, None, None] * x[1:]
    return np.moveaxis(out, 0, axis)


def _apply_k(i, psi):
    """K_i applied to a state given as a (d, d, d) tensor, mode m on axis m - 1.

    Factors on different modes commute, also on the truncated grid, so
    each product is applied factor by factor.
    """
    up, dn = _create, _annihilate
    if i == 1:
        return 0.5 * (up(up(psi, 0), 1) + dn(dn(psi, 0), 1))
    if i == 2:
        return -0.5j * (up(up(psi, 0), 1) - dn(dn(psi, 0), 1))
    if i == 3:
        return 0.5 * (up(up(psi, 0), 2) + dn(dn(psi, 0), 2))
    if i == 4:
        return -0.5j * (up(up(psi, 0), 2) - dn(dn(psi, 0), 2))
    if i == 5:
        return -0.5 * (up(dn(psi, 2), 1) + up(dn(psi, 1), 2))
    if i == 6:
        return -0.5j * (up(dn(psi, 2), 1) - up(dn(psi, 1), 2))
    n1, n2, n3 = np.ogrid[:psi.shape[0], :psi.shape[1], :psi.shape[2]]
    if i == 7:
        # a2 a2^dag contributes n2 + 1
        return 0.5 * (n1 + n2 + 1.0) * psi
    if i == 8:
        return (n1 - n2 + 2.0 * n3 + 1.0) / (2.0 * SQRT3) * psi
    raise ValueError(f"generator index must be 1..8, got {i}")


def vacuum_k_variance(i, cutoff=14):
    """<K_i^2> - <K_i>^2 on the three-mode vacuum."""
    psi = np.zeros((cutoff,) * 3, dtype=complex)
    psi[0, 0, 0] = 1.0
    k_psi = _apply_k(i, psi)
    m = np.real(np.vdot(psi, k_psi))
    m2 = np.real(np.vdot(k_psi, k_psi))
    return m2 - m ** 2


@dataclass(frozen=True)
class FockStateVector:
    """Truncated state after a circuit, with its truncation accounting.

    ``leakage`` is the preparation tail deficit plus the largest
    boundary-shell mass seen during the circuit -- a conservative proxy
    for how much the artificial wall could have distorted the state.
    ``gate_leakage`` holds the per-stage record (preparation first).
    """

    cutoff: int
    amplitudes: np.ndarray
    leakage: float
    gate_leakage: tuple

    @property
    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


class TruncatedFockSpace:
    """Three-mode grid with a fixed per-mode cutoff and its gate set."""

    def __init__(self, cutoff=14):
        if cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        self.cutoff = cutoff
        d = cutoff
        # two-mode K1 = (a a + a^dag a^dag)/2 on the (d*d)-point grid of one
        # mode pair, real symmetric: K1 = V diag(lam) V^T
        a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
        aa = np.kron(a, a)
        self._lam, self._V = np.linalg.eigh(0.5 * (aa + aa.T))
        self._n1, self._n2, self._n3 = _occupation_arrays(d)
        top = cutoff - 1
        self._boundary = (
            (self._n1 == top) | (self._n2 == top) | (self._n3 == top)
        )

    # -- state preparation -------------------------------------------------

    def coherent_vector(self, alphas):
        """Product coherent vector on the grid (tail not renormalized).

        Returns (psi, deficit) where deficit is the probability mass of
        the exact state above the cutoff.
        """
        d = self.cutoff
        n = np.arange(d)
        root_factorial = np.sqrt(np.exp([math.lgamma(k + 1.0) for k in n]))
        psi = None
        for al in alphas:
            al = complex(al)
            v = np.exp(-0.5 * abs(al) ** 2) * al ** n / root_factorial
            psi = v if psi is None else np.kron(psi, v)
        psi = psi.astype(complex)
        deficit = 1.0 - float(np.vdot(psi, psi).real)
        return psi, max(deficit, 0.0)

    # -- gates -------------------------------------------------------------

    def apply_fwm(self, psi, beta, theta, pair):
        """One mixer gate exp(-i beta (sin(theta) K_a - cos(theta) K_b)).

        The quadrature pairing between the pump phase and the two
        pair-creation generators is fixed by calibration against
        fwm_matrix: conjugating the mode operators through this gate
        reproduces the 3x3 coefficients.

        The generator is R K1 R^dag with R = exp(-i chi n1), chi = theta -
        pi/2 (K3, K4 and modes 1, 3 for pair "13"), so the gate is
        R V exp(-i beta lam) V^T R^dag with the eigenbasis of K1 computed
        at construction.  It acts on psi as a (d, d, d) tensor whose
        first two axes are the gate's mode pair; the real basis changes
        multiply the float64 view of the complex block.
        """
        if pair not in ("12", "13"):
            raise ValueError(f"pair must be '12' or '13', got {pair!r}")
        d = self.cutoff
        block = psi.reshape(d, d, d)
        if pair == "13":
            block = block.swapaxes(1, 2)
        r_dag = np.exp(1j * (theta - 0.5 * np.pi) * np.arange(d))[:, None, None]
        x = np.ascontiguousarray(block * r_dag).reshape(d * d, d)
        x = (self._V.T @ x.view(float)).view(complex)
        x *= np.exp(-1j * beta * self._lam)[:, None]
        x = (self._V @ x.view(float)).view(complex)
        out = x.reshape(d, d, d) * r_dag.conj()
        if pair == "13":
            out = out.swapaxes(1, 2)
        return out.reshape(d ** 3)

    def apply_phases(self, psi, phi1, phi2, phi3):
        arg = phi1 * self._n1 + phi2 * self._n2 + phi3 * self._n3
        return np.exp(1j * arg) * psi

    def boundary_mass(self, psi):
        """Probability sitting in the top occupation shell of any mode."""
        return float(np.sum(np.abs(psi[self._boundary]) ** 2))

    # -- circuits ----------------------------------------------------------

    def run_circuit(self, config, state, guard=1e-8):
        """Apply the full cascade to a coherent-product input.

        Raises LeakageExceeded as soon as the preparation deficit or the
        boundary-shell mass after any mixer gate passes the guard; a
        state that never reaches the wall evolved exactly.
        """
        psi, deficit = self.coherent_vector(state.alpha)
        if deficit > guard:
            raise LeakageExceeded(
                f"coherent preparation deficit {deficit:.3e} exceeds guard "
                f"{guard:.1e} (cutoff {self.cutoff})"
            )
        leaks = [deficit]
        for st in config.stages():
            if st[0] == "phase":
                psi = self.apply_phases(psi, st[1], st[2], st[3])
                leaks.append(0.0)
                continue
            psi = self.apply_fwm(psi, st[1], st[2], st[3])
            mass = self.boundary_mass(psi)
            leaks.append(mass)
            if mass > guard:
                raise LeakageExceeded(
                    f"boundary occupation {mass:.3e} after stage "
                    f"{len(leaks) - 1} exceeds guard {guard:.1e} "
                    f"(cutoff {self.cutoff})"
                )
        return FockStateVector(
            cutoff=self.cutoff,
            amplitudes=psi,
            leakage=deficit + max(leaks[1:]),
            gate_leakage=tuple(leaks),
        )


# ---------------------------------------------------------------------------
# Measurements on truncated states.
# ---------------------------------------------------------------------------

def photon_statistics_fock(fsv):
    """Photon-number means and covariance from the truncated amplitudes.

    Number operators are diagonal on the grid, so all moments are
    weighted sums over |amplitude|^2; the vector is used as is, which is
    exact up to the reported leakage.
    """
    d = fsv.cutoff
    n1, n2, n3 = _occupation_arrays(d)
    occ = np.stack([n1, n2, n3]).astype(float)
    P = np.abs(fsv.amplitudes) ** 2
    mean = occ @ P
    second = (occ * P) @ occ.T
    cov = second - np.outer(mean, mean)
    return mean, cov


def estimator_stats_fock(fsv, weights):
    mean, cov = photon_statistics_fock(fsv)
    w = np.asarray(weights, dtype=float)
    return float(w @ mean), float(w @ cov @ w)


def conserved_difference_stats(fsv):
    """Mean and variance of n1 - n2 - n3 on a truncated state."""
    return estimator_stats_fock(fsv, (1.0, -1.0, -1.0))


def _central_difference(f, config, phase_index, h):
    """(f(phi_j + h) - f(phi_j - h)) / 2h for f of a configuration."""
    phis = [config.phi1, config.phi2, config.phi3]
    up, dn = list(phis), list(phis)
    up[phase_index - 1] += h
    dn[phase_index - 1] -= h
    return (f(config.with_phases(*up)) - f(config.with_phases(*dn))) / (2.0 * h)


def mean_derivative_fock(space, config, state, weights, phase_index,
                         h=1e-4, guard=1e-8):
    """Central-difference d<w.n>/dphi_j through the full Fock circuit."""
    def mean(cfg):
        return estimator_stats_fock(space.run_circuit(cfg, state, guard=guard), weights)[0]
    return _central_difference(mean, config, phase_index, h)


# ---------------------------------------------------------------------------
# Gaussian-vs-Fock agreement suite.
# ---------------------------------------------------------------------------

def compare_with_gaussian(trials=50, cutoff=14, beta_max=0.5, alpha_max=0.7,
                          seed=123, h=1e-4, guard=1e-8):
    """Worst absolute deviations between the two pipelines on random circuits.

    Each trial draws all four gains in [0, beta_max], all pump and
    internal phases in [0, 2 pi), a complex coherent amplitude triple
    with maximum modulus in [0, alpha_max], and normal detection
    weights.  Both pipelines take d<w.n>/dphi_1 as the same central
    difference with step h, not the exact sensitivity.mean_derivative,
    so the comparison isolates the state model.  The default seed is
    pinned to an ensemble whose draws all stay inside the leakage guard;
    other seeds can legitimately push the hardest draw onto the
    truncation wall and abort.

    Returns a dict with keys "mean", "cov", "var", "deriv" and the
    worst leakage seen.
    """
    rng = np.random.default_rng(seed)
    space = TruncatedFockSpace(cutoff=cutoff)
    worst = {"mean": 0.0, "cov": 0.0, "var": 0.0, "deriv": 0.0, "leakage": 0.0}

    for _ in range(trials):
        b = rng.uniform(0.0, beta_max, size=4)
        th = rng.uniform(0.0, 2.0 * np.pi, size=4)
        ph = rng.uniform(0.0, 2.0 * np.pi, size=3)
        als = rng.normal(size=3) + 1j * rng.normal(size=3)
        als = als / np.max(np.abs(als)) * rng.uniform(0.0, alpha_max)
        w = rng.normal(size=3)
        config = InterferometerConfig(
            beta1=b[0], beta2=b[1], beta3=b[2], beta4=b[3],
            theta1=th[0], theta2=th[1], theta3=th[2], theta4=th[3],
            phi1=ph[0], phi2=ph[1], phi3=ph[2],
        )
        state = InputState(tuple(als))

        out = propagate(config, state)
        mean_g, cov_g = photon_statistics(out)
        var_g = float(w @ cov_g @ w)
        der_g = float(np.vecdot(_central_difference(
            lambda cfg: photon_statistics(propagate(cfg, state))[0], config, 1, h), w))

        fsv = space.run_circuit(config, state, guard=guard)
        mean_f, cov_f = photon_statistics_fock(fsv)
        var_f = float(w @ cov_f @ w)
        der_f = mean_derivative_fock(space, config, state, w, 1, h=h, guard=guard)

        worst["mean"] = max(worst["mean"], float(np.max(np.abs(mean_f - mean_g))))
        worst["cov"] = max(worst["cov"], float(np.max(np.abs(cov_f - cov_g))))
        worst["var"] = max(worst["var"], abs(var_f - var_g))
        worst["deriv"] = max(worst["deriv"], abs(der_f - der_g))
        worst["leakage"] = max(worst["leakage"], fsv.leakage)
    return worst
