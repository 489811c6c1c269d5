"""Brute-force truncated-Fock simulator used as ground truth at small gain.

States live on a three-mode photon-number grid with a per-mode cutoff
D (occupations 0..D-1, vectors of length D^3, C-order with mode 1
slowest).  Four-wave-mixer gates are exponentials of the same Hermitian
generators as the matrix picture.  Every mixer generator is a number
rotation of the one real two-mode operator K1 (sin(theta) K1 -
cos(theta) K2 = R K1 R^dag with R = exp(-i chi n1), chi = theta - pi/2,
and likewise K3, K4 on modes 1 and 3), so K1 is diagonalised once per
cutoff and each gate is a phase, a real basis change, a diagonal phase
and the way back, applied to the state viewed as a (d, d, d) tensor --
the two-mode-gate tensor approach of Killoran et al., Strawberry Fields,
Quantum 3, 129 (2019).

The gates use the sector structure of K1 = (a1 a2 + a1^dag a2^dag)/2.
It conserves n1 - n2, so on the d x d grid of its mode pair it is block
diagonal with one tridiagonal block per diagonal n1 - n2 = k.  The
diagonals k and k - d have d - k and k points; grouped by the residue
r = (n1 - n2) mod d they fill d blocks of exactly d points, ordered by
the position p = n2 (so n1 = (p + r) mod d), with no coupling between
the two diagonals of a block.  K1 is therefore a (d, d, d) stack of real
symmetric blocks, diagonalised by one batched eigh per cutoff.  On a
diagonal, R and exp(-i chi p) differ by a constant phase, which commutes
with the gate.  A gate gathers the state into the (residue, position,
spectator) layout by a fixed permutation, applies the phase, two batched
real basis changes on the float64 view and the diagonal phase between
them, and scatters back: the same truncated operator as the dense
d^2 x d^2 basis change, at about 1/d of its flops.

The phase stage is diagonal.  The internal phases may be arrays, as in
the Gaussian core: run_circuit shares the coherent preparation and the
two splitter gates, then carries a (..., D^3) stack of amplitudes
through the phase stage and the recombiners, and every member equals
its scalar call bit for bit.  Gains and pump phases stay scalars.
vacuum_k_variance applies K_i to the tensor by index shifts of the
ladder, so the module needs numpy alone; the sparse d^3 x d^3 matrices
of the K_i, Kronecker products of the truncated ladder, are kept in
tests/test_fock_oracle.py as independent references.

Truncation bookkeeping needs care.  A gate generated by a truncated
Hermitian operator is *exactly* unitary on the truncated grid, so the
norm of the state never drops and "1 - norm" says nothing about
truncation error.  What the cutoff does instead is turn the top of the
grid into an artificial wall: amplitude that would flow past occupation
D - 1 is reflected back.  The honest error monitor is therefore the
probability found in the top occupation shell (any mode at D - 1) after
each mixer gate -- if nothing reaches the wall, the reflection never
happened and the evolution is exact.  run_circuit records that shell
mass per gate and per stack member, together with the tail deficit of
the truncated coherent preparation, and raises LeakageExceeded the
moment either passes the guard in any member instead of certifying
silently wrong moments.  At the small gains this oracle is meant for
(beta <= 0.5, |alpha| <= 0.7, D = 14) the shell mass sits around 1e-9;
a gain of beta = 2 pushes milliprobability onto the wall and trips the
guard by orders of magnitude, as it should.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import InputState, estimator_stats, photon_statistics, propagate
from .interferometer import InterferometerConfig
from .lie import SQRT3
from .sensitivity import _unstack


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


def _member_leakage(gate_leakage):
    """Preparation deficit plus the largest later entry, per member."""
    return gate_leakage[..., 0] + np.max(gate_leakage[..., 1:], axis=-1)


@dataclass(frozen=True)
class FockStateVector:
    """Truncated state after a circuit, with its truncation accounting.

    ``amplitudes`` is (..., D^3): one state, or one per member of a phase
    stack.  ``gate_leakage`` holds the per-stage record (preparation
    first) on its last axis, per member on the leading ones.  A member's
    leakage is its preparation deficit plus the largest boundary-shell
    mass it met -- a conservative proxy for how much the artificial wall
    could have distorted it.  ``member_leakage`` gives it per member and
    ``leakage`` is the worst member's, a float.
    """

    cutoff: int
    amplitudes: np.ndarray
    leakage: float
    gate_leakage: np.ndarray

    @property
    def member_leakage(self):
        return _unstack(_member_leakage(np.asarray(self.gate_leakage)))

    @property
    def norm(self):
        return _unstack(np.linalg.norm(self.amplitudes, axis=-1))


class TruncatedFockSpace:
    """Three-mode grid with a fixed per-mode cutoff and its gate set."""

    def __init__(self, cutoff=14):
        if cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        self.cutoff = d = cutoff
        # block r, position p of the pair grid: first mode (p + r) mod d, second p
        r, p = np.ogrid[:d, :d]
        first = (p + r) % d
        # K1 links positions p, p + 1 of a block with sqrt(n1 + 1) sqrt(n2 + 1)/2,
        # except where the first mode wraps from d - 1 to the next diagonal
        root = np.sqrt(np.arange(1.0, d + 1.0))
        link = np.where(first[:, :-1] < d - 1,
                        0.5 * root[first[:, :-1]] * root[p[:, :-1]], 0.0)
        k1 = np.zeros((d, d, d))
        i = np.arange(d - 1)
        k1[:, i, i + 1] = k1[:, i + 1, i] = link
        # K1 = V diag(lam) V^T block by block
        self._lam, self._V = np.linalg.eigh(k1)
        self._Vt = np.ascontiguousarray(self._V.swapaxes(1, 2))
        # flat grid index of (block, position, spectator) for each mode pair,
        # and the inverse permutation back to the grid
        first, p, spectator = first[..., None], p[..., None], np.arange(d)
        gather = {"12": (first * d + p) * d + spectator,
                  "13": (first * d + spectator) * d + p}
        self._layout = {pair: (g, np.argsort(g, axis=None)) for pair, g in gather.items()}
        self._root_factorial = np.sqrt(np.exp([math.lgamma(k + 1.0) for k in range(d)]))
        top = np.stack(_occupation_arrays(d)) == d - 1
        self._boundary = np.flatnonzero(top.any(axis=0))

    # -- state preparation -------------------------------------------------

    def coherent_vector(self, alphas):
        """Product coherent vector on the grid (tail not renormalized).

        Returns (psi, deficit) where deficit is the probability mass of
        the exact state above the cutoff.
        """
        n = np.arange(self.cutoff)
        psi = None
        for al in alphas:
            al = complex(al)
            v = np.exp(-0.5 * abs(al) ** 2) * al ** n / self._root_factorial
            psi = v if psi is None else np.multiply.outer(psi, v)
        psi = psi.ravel()
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
        R V exp(-i beta lam) V^T R^dag, applied block by block in the
        sector layout of the module docstring: psi (..., d^3) is gathered
        to (..., block, position, spectator), R becomes exp(-i chi p) on
        the position axis, and the real basis changes are batched matrix
        products on the float64 view.  psi may be a stack of states;
        beta and theta are scalars.
        """
        if pair not in self._layout:
            raise ValueError(f"pair must be '12' or '13', got {pair!r}")
        if np.ndim(beta) or np.ndim(theta):
            raise ValueError("the Fock oracle takes scalar gains and pump phases")
        gather, scatter = self._layout[pair]
        r_dag = np.exp(1j * (theta - 0.5 * np.pi) * np.arange(self.cutoff))[:, None]
        x = np.take(psi, gather, axis=-1)
        x *= r_dag
        x = (self._Vt @ x.view(float)).view(complex)
        x *= np.exp(-1j * beta * self._lam)[..., None]
        x = (self._V @ x.view(float)).view(complex)
        x *= r_dag.conj()
        return np.take(x.reshape(*x.shape[:-3], -1), scatter, axis=-1)

    def apply_phases(self, psi, phi1, phi2, phi3):
        """Diagonal phase stage exp(i (phi1 n1 + phi2 n2 + phi3 n3)).

        The factor is the product of one phase vector per mode.  Array
        phases broadcast to a stack, and the result is (..., d^3).
        """
        n = np.arange(self.cutoff)
        e1, e2, e3 = (np.exp(1j * np.expand_dims(phi, -1) * n) for phi in (phi1, phi2, phi3))
        factor = e1[..., :, None, None] * e2[..., None, :, None] * e3[..., None, None, :]
        return factor.reshape(*factor.shape[:-3], -1) * psi

    def boundary_mass(self, psi):
        """Probability sitting in the top occupation shell of any mode, per member."""
        shell = np.take(psi, self._boundary, axis=-1)
        return _unstack(np.vecdot(shell, shell).real)

    # -- circuits ----------------------------------------------------------

    def run_circuit(self, config, state, guard=1e-8):
        """Apply the full cascade to a coherent-product input.

        Array internal phases give a stack of circuits that shares the
        preparation and the splitter gates; the amplitudes are then
        (..., d^3), one state per member.  Raises LeakageExceeded as soon
        as the preparation deficit or the boundary-shell mass of any
        member after any mixer gate passes the guard; a state that never
        reaches the wall evolved exactly.
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
                leaks.append(np.zeros(psi.shape[:-1]))
                continue
            psi = self.apply_fwm(psi, st[1], st[2], st[3])
            mass = self.boundary_mass(psi)
            leaks.append(mass)
            if np.max(mass) > guard:
                raise LeakageExceeded(
                    f"boundary occupation {np.max(mass):.3e} after stage "
                    f"{len(leaks) - 1} exceeds guard {guard:.1e} "
                    f"(cutoff {self.cutoff})"
                )
        gate_leakage = np.stack(np.broadcast_arrays(*leaks), axis=-1)
        return FockStateVector(
            cutoff=self.cutoff,
            amplitudes=psi,
            leakage=float(np.max(_member_leakage(gate_leakage))),
            gate_leakage=gate_leakage,
        )


# ---------------------------------------------------------------------------
# Measurements on truncated states.
# ---------------------------------------------------------------------------

def photon_statistics_fock(fsv):
    """Photon-number means and covariance from the truncated amplitudes.

    Number operators are diagonal on the grid, so all moments are
    weighted sums over |amplitude|^2, taken from its one- and two-mode
    marginals; the vector is used as is, which is exact up to the
    reported leakage.  Returns arrays of shapes (..., 3) and (..., 3, 3),
    one per member of a stack.
    """
    d = fsv.cutoff
    amplitudes = fsv.amplitudes
    P = np.abs(amplitudes.reshape(*amplitudes.shape[:-1], d, d, d)) ** 2
    n = np.arange(float(d))
    pairs = {(0, 1): P.sum(axis=-1), (0, 2): P.sum(axis=-2), (1, 2): P.sum(axis=-3)}
    single = (pairs[0, 1].sum(axis=-1), pairs[0, 1].sum(axis=-2), pairs[0, 2].sum(axis=-2))
    # np.vecdot takes the sums of a single state in a stack too
    mean = np.stack([np.vecdot(p, n) for p in single], axis=-1)
    second = np.empty(mean.shape + (3,))
    for i, p in enumerate(single):
        second[..., i, i] = np.vecdot(p, n * n)
    for (i, j), p in pairs.items():
        second[..., i, j] = second[..., j, i] = np.vecdot(np.vecdot(p, n), n)
    cov = second - mean[..., :, None] * mean[..., None, :]
    return mean, cov


def estimator_stats_fock(fsv, weights):
    """Mean and variance of w . n per member; floats for one state."""
    mean, var = estimator_stats(*photon_statistics_fock(fsv), weights)
    return _unstack(mean), _unstack(var)


def _phase_stack(config, phase_index, offsets):
    """config with phase phase_index replaced by the array phi + offsets."""
    phis = [config.phi1, config.phi2, config.phi3]
    phis[phase_index - 1] = phis[phase_index - 1] + np.asarray(offsets)
    return config.with_phases(*phis)


# ---------------------------------------------------------------------------
# Gaussian-vs-Fock agreement suite.
# ---------------------------------------------------------------------------

def compare_with_gaussian(trials=50, cutoff=14, beta_max=0.5, alpha_max=0.7,
                          seed=123, h=1e-4, guard=1e-8):
    """Worst absolute deviations between the two pipelines on random circuits.

    Each trial draws all four gains in [0, beta_max], all pump and
    internal phases in [0, 2 pi), a complex coherent amplitude triple
    with maximum modulus in [0, alpha_max], and normal detection
    weights.  Both pipelines run the circuit on the phase stack
    (phi_1, phi_1 + h, phi_1 - h) and take d<w.n>/dphi_1 as the same
    central difference with step h, not the exact
    sensitivity.mean_derivative, so the comparison isolates the state
    model.  The default seed is pinned to an ensemble whose draws all
    stay inside the leakage guard; other seeds can legitimately push the
    hardest draw onto the truncation wall and abort.

    Returns a dict with keys "mean", "cov", "var", "deriv" and the
    worst leakage of the unshifted circuits.
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
        config = _phase_stack(InterferometerConfig(
            beta1=b[0], beta2=b[1], beta3=b[2], beta4=b[3],
            theta1=th[0], theta2=th[1], theta3=th[2], theta4=th[3],
            phi1=ph[0], phi2=ph[1], phi3=ph[2],
        ), 1, (0.0, h, -h))
        state = InputState(tuple(als))

        mean_g, cov_g = photon_statistics(propagate(config, state))
        fsv = space.run_circuit(config, state, guard=guard)
        mean_f, cov_f = photon_statistics_fock(fsv)
        var_g, var_f = (float(w @ cov[0] @ w) for cov in (cov_g, cov_f))
        der_g, der_f = (float(np.vecdot((mean[1] - mean[2]) / (2.0 * h), w))
                        for mean in (mean_g, mean_f))

        worst["mean"] = max(worst["mean"], float(np.max(np.abs(mean_f[0] - mean_g[0]))))
        worst["cov"] = max(worst["cov"], float(np.max(np.abs(cov_f[0] - cov_g[0]))))
        worst["var"] = max(worst["var"], abs(var_f - var_g))
        worst["deriv"] = max(worst["deriv"], abs(der_f - der_g))
        worst["leakage"] = max(worst["leakage"], float(fsv.member_leakage[0]))
    return worst
