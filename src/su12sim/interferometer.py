"""Mode-transformation matrices for the four-stage three-mode interferometer.

The device is a cascade of four four-wave mixers (FWMs) with phase
shifts inserted at the midpoint:

    FWM1 couples modes (1, 2)   -- first splitter arm
    FWM2 couples modes (1, 3)   -- second splitter arm
    phases phi1, phi2, phi3 on the three internal beams
    FWM3 couples modes (1, 3)   -- second recombiner arm
    FWM4 couples modes (1, 2)   -- first recombiner arm

Mode 1 is the bright beam threading all four mixers; modes 2 and 3 are
the conjugate beams of the (1,2) and (1,3) mixers.  Each FWM with gain
beta and pump phase theta acts on the column (a1, a2^dag, a3^dag) as a
hyperbolic rotation by beta/2 in its mode pair; the phase stage is
diagonal.  The total transform is the chronological matrix product and
is always pseudo-unitary (see lie.METRIC).  The mixers lie in SU(1,2); the
phase stage has det exp(i(phi1 - phi2 - phi3)), and a phase shift
chi (1, -1, -1) multiplies it by exp(i chi), the centre of U(1,2).

Every gain, pump phase and internal phase may be an array.  They
broadcast against each other, and the mixers, the phase stage, the stage
list and the total transform then come as stacks of shape (..., 3, 3),
one matrix per configuration.  A scalar configuration is the shape-()
case.

In the balanced configuration (beta4 = beta1, beta3 = beta2, recombiner
pump phases shifted by pi, all internal phases zero) the cascade undoes
itself and the total matrix is the identity, which is the working point
for phase estimation.  The recombiners are then the inverse of the
splitters R = S2 S1, which splitter_matrix gives in closed form:
S4 S3 = R^-1 = G R^T G with G = diag(1, -1, -1).
"""

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np


def fwm_matrix(beta, theta, pair="12"):
    """Transform of a four-wave mixer on (a1, a2^dag, a3^dag), (..., 3, 3).

    pair selects which conjugate mode the bright mode 1 couples to:
    "12" or "13".  beta and theta broadcast against each other.
    """
    # ch, and with it zero and one, take the broadcast shape of beta and theta
    ch, sh = np.cosh(beta / 2.0) + 0.0 * theta, np.sinh(beta / 2.0)
    ep, em = np.exp(1j * theta), np.exp(-1j * theta)
    zero, one = 0.0 * ch, 0.0 * ch + 1.0
    if pair == "12":
        rows = [[ch, em * sh, zero], [ep * sh, ch, zero], [zero, zero, one]]
    elif pair == "13":
        rows = [[ch, zero, em * sh], [zero, one, zero], [ep * sh, zero, ch]]
    else:
        raise ValueError(f"pair must be '12' or '13', got {pair!r}")
    m = np.array(rows, dtype=complex)
    return m.transpose((*range(2, m.ndim), 0, 1))


def splitter_matrix(beta1, beta2):
    """Real transform R = S2 S1 of the two splitter mixers at zero pump phase,
    (..., 3, 3) over the broadcast gains, filled slot by slot.  With ci = cosh(betai / 2)
    and si = sinh(betai / 2), R = [[c1 c2, s1 c2, s2], [s1, c1, 0], [s2 c1, s2 s1, c2]].
    """
    c1, s1 = np.cosh(beta1 / 2.0), np.sinh(beta1 / 2.0)
    c2, s2 = np.cosh(beta2 / 2.0), np.sinh(beta2 / 2.0)
    R = np.zeros((*np.broadcast(c1, c2).shape, 3, 3))
    R[..., 0, 0], R[..., 0, 1], R[..., 0, 2] = c1 * c2, s1 * c2, s2
    R[..., 1, 0], R[..., 1, 1] = s1, c1
    R[..., 2, 0], R[..., 2, 1], R[..., 2, 2] = s2 * c1, s2 * s1, c2
    return R


def phase_matrix(phi1, phi2, phi3):
    """Diagonal phase stage on (a1, a2^dag, a3^dag), shape (..., 3, 3).

    The phases broadcast against each other.  The conjugate-mode entries
    pick up the opposite sign because the vector carries creation
    operators in slots 2 and 3.
    """
    diag = np.exp(1j * phi1), np.exp(-1j * phi2), np.exp(-1j * phi3)
    P = np.zeros((*np.broadcast(*diag).shape, 3, 3), dtype=complex)
    P[..., 0, 0], P[..., 1, 1], P[..., 2, 2] = diag
    return P


def chronological_product(mats):
    """Product of a non-empty list of stage matrices (or stacks), first-applied first.

    Each stage multiplies from the left, S = S_n (... (S_2 S_1)); the
    association order is part of the result's last bits.
    """
    return reduce(lambda S, m: m @ S, mats)


@dataclass(frozen=True)
class InterferometerConfig:
    """Gains, pump phases and internal phases of the four-FWM cascade (floats or arrays)."""

    beta1: float
    beta2: float
    beta3: float
    beta4: float
    theta1: float = 0.0
    theta2: float = 0.0
    theta3: float = np.pi
    theta4: float = np.pi
    phi1: float = 0.0
    phi2: float = 0.0
    phi3: float = 0.0

    @classmethod
    def balanced(cls, beta1, beta2, phi1=0.0, phi2=0.0, phi3=0.0):
        """Self-cancelling cascade: identity transform when all phases vanish."""
        return cls(beta1=beta1, beta2=beta2, beta3=beta2, beta4=beta1, theta1=0.0,
                   theta2=0.0, theta3=np.pi, theta4=np.pi, phi1=phi1, phi2=phi2, phi3=phi3)

    def with_phases(self, phi1, phi2, phi3):
        return replace(self, phi1=phi1, phi2=phi2, phi3=phi3)

    def stages(self):
        """Chronological list of stage descriptors (first applied first)."""
        return [
            ("fwm", self.beta1, self.theta1, "12"),
            ("fwm", self.beta2, self.theta2, "13"),
            ("phase", self.phi1, self.phi2, self.phi3),
            ("fwm", self.beta3, self.theta3, "13"),
            ("fwm", self.beta4, self.theta4, "12"),
        ]

    def mixer_matrices(self):
        """The four mixers' 3x3 matrices, first applied first."""
        return [fwm_matrix(st[1], st[2], st[3]) for st in self.stages() if st[0] == "fwm"]

    def stage_matrices(self):
        """Matrices of stages(): the phase stage is a stack when the phases are."""
        S1, S2, S3, S4 = self.mixer_matrices()
        return [S1, S2, phase_matrix(self.phi1, self.phi2, self.phi3), S3, S4]

    def total_matrix(self):
        """Full input->output mode transform (chronological product), (..., 3, 3)."""
        return chronological_product(self.stage_matrices())
