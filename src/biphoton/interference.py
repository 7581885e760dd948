"""The 50/50 beamsplitter: output channel probabilities, coincidence rate,
and the one-sided entanglement witness.

The coincidence probability is P_c = (1 - J)/2 with J = <sigma Phi, Phi>:
J = 1 gives perfect coalescence (both photons bunch), J = -1 perfect
anti-coalescence.  Product states always have J = |<f, Pi_y g>|^2 >= 0, so
P_c > 1/2 certifies entanglement; P_c <= 1/2 certifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .amplitudes import TwoPhotonAmplitude, apply_sigma, symmetry_decompose


@dataclass(frozen=True)
class BsPhases:
    """Unitary beamsplitter phases; they move amplitude phases around but no
    output probability depends on them."""

    phi_tau: float = 0.0
    phi_rho: float = 0.0


@dataclass(frozen=True, eq=False)
class BsOutput:
    p_both_port1: float
    p_both_port2: float
    p_coincidence: float
    _input: TwoPhotonAmplitude = field(repr=False)

    @property
    def verdict(self) -> Verdict:
        """Entangled iff P_c > 1/2 + 1e-6, else inconclusive (never 'separable')."""
        return Verdict.ENTANGLED if self.p_coincidence > 0.5 + 1e-6 else Verdict.INCONCLUSIVE

    @cached_property
    def coincidence_amplitude(self) -> TwoPhotonAmplitude:
        """Unnormalized (Phi - sigma Phi)/2, of rank 2R; built on first read."""
        amp, sig = self._input, apply_sigma(self._input)
        return TwoPhotonAmplitude(np.concatenate([amp.coeffs, -sig.coeffs]) / 2.0,
                                  np.concatenate([amp.photon1, sig.photon1]),
                                  np.concatenate([amp.photon2, sig.photon2]),
                                  amp.grid, amp.representation)


class Verdict(Enum):
    ENTANGLED = "entangled"
    INCONCLUSIVE = "inconclusive"


def coincidence_probability(amp: TwoPhotonAmplitude) -> float:
    """P_c = (1 - <sigma Phi, Phi>)/2 for a normalized amplitude."""
    return beamsplitter_output(amp).p_coincidence


def beamsplitter_output(amp: TwoPhotonAmplitude, phases: BsPhases = BsPhases()) -> BsOutput:
    """Output channel probabilities of the 50/50 splitter.

    The antisymmetric part of the input exits as a coincidence; the symmetric
    part bunches, split evenly between the two output ports.
    """
    sym, asym = symmetry_decompose(amp)
    return BsOutput(p_both_port1=sym / 2.0, p_both_port2=sym / 2.0,
                    p_coincidence=asym, _input=amp)


def entanglement_witness(amp: TwoPhotonAmplitude) -> Verdict:
    """The witness verdict of `beamsplitter_output`."""
    return beamsplitter_output(amp).verdict
