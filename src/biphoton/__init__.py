"""Numerical simulator of two-photon interference in transverse spatial modes.

Computes beamsplitter coincidence probabilities for arbitrary two-photon
amplitudes, classifies their topological symmetry, applies the anti-coalescence
entanglement witness, and models the spiral-phase-plate Mach-Zehnder scheme
that turns coalescence into anti-coalescence for entangled states.
"""

from .amplitudes import (DenseAmplitude, TwoPhotonAmplitude, apply_sigma,
                         compress, dense_normalize, dense_norm_squared,
                         dense_sigma, dense_sigma_overlap, from_modes,
                         normalize, norm_squared, position_representation,
                         sigma_overlap, symmetry_decompose, to_dense)
from .errors import DegenerateInterferenceError, TruncationError
from .grids import (Grid, Representation, TransverseMode, fourier_2d,
                    inner_product_2d, make_grid, mode_norm, normalize_mode,
                    reflect_y)
from .interference import (BsOutput, BsPhases, Verdict, beamsplitter_output,
                           coincidence_probability, entanglement_witness)
from .mzi import (MziGeometry, MziPhases, MziResult, ScanResult, ScanRow,
                  SppParams, azimuth, delta_limit_oracle, fresnel_phase,
                  mzi_coincidence, scan, sine_envelope, spp_phase)
from .states import (GaussianBeamParams, PumpMode, SpdcParams, bell_state,
                     gaussian_g00, hermite_gaussian, oam_ring, product_state,
                     spdc_state, thin_crystal_gaussian)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
