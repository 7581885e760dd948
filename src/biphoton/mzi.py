"""Mach-Zehnder interferometer with two identical spiral phase plates.

The MZI acts only on beam 1.  Transmission and reflection through the two
arms superpose the SPP phases exp(+i zeta theta) and exp(-i zeta theta), so
the beam that reaches the final beamsplitter carries a sine envelope
sin[zeta (theta1 - pi) + alpha_plus] while part of the light leaves through
the discarded port.  We report the coincidence probability conditioned on
both photons reaching the last beamsplitter, together with the survival
probability (throughput) of photon 1.

Propagation between the SPPs and the last beamsplitter is taken as zero.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .amplitudes import TwoPhotonAmplitude, _sigma_grams, position_representation
from .errors import DegenerateInterferenceError
from .grids import Grid, Representation, TransverseMode, make_grid
from .states import GaussianBeamParams

_ETA_FLOOR = 1e-12
# Midpoint nodes of the oracle's angular quadrature.
_ORACLE_NODES = 4096


@dataclass(frozen=True)
class SppParams:
    """Spiral-phase-plate winding parameter; non-integer values are allowed
    (the plate then has a phase discontinuity along theta = 0)."""

    zeta: float


@dataclass(frozen=True)
class MziPhases:
    """The aggregate interferometer phase alpha_plus of the sine envelope.
    The other combination, alpha_minus, enters only the overall prefactor
    i exp[i (zeta pi + alpha_minus)], a global phase that is dropped."""

    alpha_plus: float


@dataclass(frozen=True)
class MziGeometry:
    """Propagation distances, photon wavenumber and aperture.

    The aperture is a disc when circular (the default, which is what
    converges to the delta-correlation limit), otherwise the full square
    grid.  For the thin-crystal source its radius or half-width is
    aperture_factor * w(z), and a factor below 4 warns when that geometry is
    first built; an amplitude source's own grid sets the aperture instead.
    """

    z1: float
    z2: float
    k: float = 1.0
    aperture_factor: float = 40.0
    circular: bool = True

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.z1, self.z2, self.k)):
            raise ValueError("propagation distances and wavenumber must be finite")
        if self.z1 < 0 or self.z2 < 0:
            raise ValueError("propagation distances must be non-negative")
        if not (math.isfinite(self.aperture_factor) and self.aperture_factor > 0):
            raise ValueError(
                f"aperture_factor must be finite and positive, got {self.aperture_factor}")


@dataclass(frozen=True)
class MziResult:
    conditional_pc: float
    throughput_eta: float


@dataclass(frozen=True)
class ScanRow:
    parameter: float
    conditional_pc: float
    oracle_pc: float
    throughput: float
    flag: str


@dataclass(frozen=True)
class ScanResult:
    rows: list[ScanRow]
    metadata: dict


def azimuth(grid: Grid) -> np.ndarray:
    """Azimuthal angle in [0, 2 pi) at every grid sample.  The half-cell
    offset guarantees the origin itself is never sampled."""
    x, y = grid.meshgrid()
    return np.mod(np.arctan2(y, x), 2.0 * np.pi)


def fresnel_phase(amp: TwoPhotonAmplitude, z1: float, z2: float, k: float) -> TwoPhotonAmplitude:
    """Paraxial propagation phase exp[i k z - i |q|^2 z / (2k)] applied to
    photon 1 over z1 and photon 2 over z2 (momentum representation)."""
    if amp.representation is not Representation.MOMENTUM:
        raise ValueError("fresnel_phase acts in the momentum representation")
    qx, qy = amp.grid.meshgrid()
    q2 = qx ** 2 + qy ** 2
    ph1 = np.exp(1j * (k * z1 - q2 * z1 / (2.0 * k)))
    ph2 = np.exp(1j * (k * z2 - q2 * z2 / (2.0 * k)))
    return replace(amp, photon1=amp.photon1 * ph1, photon2=amp.photon2 * ph2)


def spp_phase(mode: TransverseMode, zeta: float) -> TransverseMode:
    """Pointwise spiral phase exp(i zeta theta)."""
    return TransverseMode(
        mode.values * np.exp(1j * zeta * azimuth(mode.grid)),
        mode.grid, mode.representation,
    )


def _disc(grid: Grid) -> np.ndarray:
    """1 on the disc inscribed in the grid, 0 outside."""
    x, y = grid.meshgrid()
    return (x ** 2 + y ** 2 <= grid.half_width ** 2).astype(float)


def _sine(theta: np.ndarray, zeta: float, alpha_plus: float) -> np.ndarray:
    return np.sin(zeta * (theta - np.pi) + alpha_plus)


def sine_envelope(grid: Grid, zeta: float, alpha_plus: float) -> np.ndarray:
    """The MZI envelope sin[zeta (theta - pi) + alpha_plus] on photon 1."""
    return _sine(azimuth(grid), zeta, alpha_plus)


def _throughput(kept: float, total: float, spp: SppParams, phases: MziPhases) -> float:
    """eta = kept / total, or DegenerateInterferenceError below _ETA_FLOOR."""
    eta = kept / total
    if eta < _ETA_FLOOR:
        raise DegenerateInterferenceError(
            f"MZI output vanished (eta = {eta:.3e}) for zeta = {spp.zeta}, "
            f"alpha_plus = {phases.alpha_plus}")
    return eta


# Gaussian taps g(s) = exp(-s^2 / (2 w^2)) with |s| > _TAP_CUTOFF * w are
# dropped: each is below exp(-_TAP_CUTOFF^2 / 2) < 5e-19 of the peak.
_TAP_CUTOFF = 9.2


def _fft_size(m: int) -> int:
    """Smallest 2^a 3^b 5^c that is >= m, a fast real-FFT length."""
    size = m
    while True:
        rest = size
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


@dataclass(frozen=True, eq=False)
class _GaussHankel:
    """The symmetric Hankel matrix H[i, k] = g(x_i + x_k) on a half-offset
    axis.  Since x_i + x_k = (i - (n-1-k)) h, H is a Toeplitz convolution of
    the index-reversed input, applied by 1-D real FFTs with the kernel cut
    to `band` taps on each side of its centre.  A transform length of
    n + band suffices: the circular wrap-around lands only on the first
    `band` outputs of the full convolution, which are discarded."""

    band: int
    fft_len: int
    spectrum: np.ndarray

    def rows(self, a: np.ndarray) -> np.ndarray:
        """a H, i.e. H applied to every row of a."""
        n = a.shape[1]
        full = np.fft.irfft(np.fft.rfft(a[:, ::-1], self.fft_len, axis=1) * self.spectrum,
                            self.fft_len, axis=1)
        return full[:, self.band:self.band + n]

    def sandwich(self, b: np.ndarray) -> np.ndarray:
        """H b H = ((b H)^T H)^T for symmetric H; both passes run over
        contiguous rows, which is faster than transforming along axis 0."""
        return self.rows(np.ascontiguousarray(self.rows(b).T)).T


@dataclass(frozen=True, eq=False)
class _FastGeometry:
    """The parts of the thin-crystal fast path that do not depend on zeta or
    alpha_plus; every array is read-only."""

    mask: np.ndarray     # aperture, bool: cached, so 1 byte a sample
    azimuth: np.ndarray
    hankel: _GaussHankel
    c: np.ndarray        # H mask H
    tot: float           # sum(mask * C)


@lru_cache(maxsize=4)
def _fast_geometry(n: int, half_width: float, circular: bool, w: float) -> _FastGeometry:
    if half_width < 4.0 * w:
        # stacklevel 4 names the caller of mzi_coincidence or scan
        warnings.warn("aperture_factor below 4 barely covers the biphoton "
                      "correlation width; results will be aperture-dominated",
                      stacklevel=4)
    grid = make_grid(n, half_width)
    mask = _disc(grid).astype(bool) if circular else np.ones((n, n), bool)
    band = min(n - 1, int(_TAP_CUTOFF * w / grid.spacing))
    fft_len = _fft_size(n + band)
    taps = np.arange(-band, band + 1) * grid.spacing
    hankel = _GaussHankel(band, fft_len,
                          np.fft.rfft(np.exp(-taps ** 2 / (2.0 * w ** 2)), fft_len))
    c = hankel.sandwich(mask.astype(float))
    theta = azimuth(grid)
    for arr in (mask, theta, hankel.spectrum, c):
        arr.setflags(write=False)
    return _FastGeometry(mask, theta, hankel, c, float(np.sum(mask * c)))


def _geometry_for(source: GaussianBeamParams, geom: MziGeometry,
                  grid_n: int) -> _FastGeometry:
    w = source.spot_size
    return _fast_geometry(grid_n, geom.aperture_factor * w, geom.circular, w)


def _thin_crystal_fast(geo: _FastGeometry, spp: SppParams, phases: MziPhases) -> MziResult:
    # Exact reorganization of the discrete 4D quadrature.  The biphoton
    # weight depends only on x1 + x2 (the phase factors cancel pointwise
    # between Phi(1,2) and Phi*(sigma(1,2))) and is separable per axis:
    # g(x1 + x2) g(y1 + y2) with g(s) = exp(-s^2 / (2 w^2)).  A sum
    # sum_{1,2} A(1) B(2) g(x1 + x2) g(y1 + y2) is therefore sum(A * H B H)
    # with the symmetric Hankel matrix H[i, k] = g(x_i + x_k), applied per
    # axis by 1-D real FFTs (see _GaussHankel).  With E the masked sine
    # envelope and M the aperture,
    #     num = sum(E * H (E reflected in y) H),
    #     den = sum(E^2 * C),  tot = sum(M * C),  C = H M H.
    # The kernel keeps only |s| <= _TAP_CUTOFF w.  Every row of H holds
    # g(0) = 1 (x_i + x_k = 0 at k = n-1-i), and the dropped tail of a row
    # sums to at most 2 e^{-42.3} (1 + w / (9.2 h)) < 1.1e-17 of that for
    # spacings h >= w / 100, far below the ~1e-16 roundoff of the FFTs.
    # M, the azimuth, the kernel spectrum, C and tot depend only on the
    # geometry and are cached, so a scan point pays one sine and one
    # two-sided H application (for num).
    envelope = _sine(geo.azimuth, spp.zeta, phases.alpha_plus) * geo.mask
    num = float(np.sum(envelope * geo.hankel.sandwich(envelope[:, ::-1])))
    den = float(np.sum(envelope ** 2 * geo.c))
    eta = _throughput(den, geo.tot, spp, phases)
    return MziResult(conditional_pc=(1.0 - num / den) / 2.0, throughput_eta=eta)


def mzi_coincidence(source, spp: SppParams, phases: MziPhases, geom: MziGeometry,
                    *, grid_n: int = 1024) -> MziResult:
    """Conditional coincidence probability and throughput at the last BS.

    `source` is either
      * GaussianBeamParams - thin-crystal biphoton propagated z = z1 = z2
        (fast dedicated path, exact for this source), on grid_n points per
        axis over a half-width of aperture_factor * w(z); or
      * TwoPhotonAmplitude - generic low-rank state; momentum-representation
        input is propagated (Fresnel) and Fourier-transformed, a
        position-representation input is taken as already at the last BS.
        Its aperture is the disc inscribed in its grid (the whole grid if
        not geom.circular); aperture_factor and grid_n are not read.  The
        aperture and the sine envelope enter the Grams as pointwise weights,
        so a thin-crystal amplitude, whose factors are held per axis, takes
        this path by per-axis contractions without building its (R, n, n)
        factor arrays.
    """
    if isinstance(source, GaussianBeamParams):
        if not (geom.z1 == geom.z2 == source.z):
            raise ValueError("thin-crystal source requires z1 == z2 == source.z")
        return _thin_crystal_fast(_geometry_for(source, geom, grid_n), spp, phases)
    if not isinstance(source, TwoPhotonAmplitude):
        raise TypeError("source must be GaussianBeamParams or TwoPhotonAmplitude, "
                        f"got {type(source).__name__}")
    amp = source
    if amp.representation is Representation.MOMENTUM:
        amp = position_representation(fresnel_phase(amp, geom.z1, geom.z2, geom.k))
    # One Gram-engine call with the envelope and the aperture as weights gives
    # the clipped norm, the enveloped norm and J of the envelope; eta is
    # relative to the clipped norm, and no factor array is copied or built.
    nsq, nsq_out, j = _sigma_grams(amp, sine_envelope(amp.grid, spp.zeta, phases.alpha_plus),
                                   _disc(amp.grid) if geom.circular else None)
    if nsq <= 0.0:
        raise ValueError("cannot normalize a zero-norm amplitude")
    eta = _throughput(nsq_out, nsq, spp, phases)
    return MziResult(conditional_pc=(1.0 - j / nsq_out) / 2.0, throughput_eta=eta)


def delta_limit_oracle(spp: SppParams, phases: MziPhases) -> float:
    """Infinite-aperture limit of the MZI coincidence probability.

    With an aperture much larger than the spot size the biphoton enforces
    x2 = -x1, i.e. theta2 = theta1 + pi, and the 4D overlap collapses to a 1D
    angular integral.  The reflected photon-2 angle is then (pi - theta1)
    mod 2 pi, so

        P_c = (1/2) (1 - I),
        I = int S(theta) S((pi - theta) mod 2 pi) dtheta / int S(theta)^2 dtheta,

    with S(theta) = sin[zeta (theta - pi) + alpha_plus].  For integer zeta
    this evaluates to (1/2)[1 + (-1)^zeta cos(2 alpha_plus)].
    """
    theta = (np.arange(_ORACLE_NODES) + 0.5) * 2.0 * np.pi / _ORACLE_NODES
    s = _sine(theta, spp.zeta, phases.alpha_plus)
    s_ref = _sine(np.mod(np.pi - theta, 2.0 * np.pi), spp.zeta, phases.alpha_plus)
    den = float(np.sum(s * s))
    if den / _ORACLE_NODES < _ETA_FLOOR:
        raise DegenerateInterferenceError(
            f"sine envelope vanishes identically for zeta = {spp.zeta}, "
            f"alpha_plus = {phases.alpha_plus}")
    return (1.0 - float(np.sum(s * s_ref)) / den) / 2.0


def _scan_row(value: float, parameter: str, source: GaussianBeamParams, spp: SppParams,
              phases: MziPhases, geom: MziGeometry, grid_n: int) -> ScanRow:
    if parameter == "zeta":
        spp = SppParams(zeta=value)
    else:
        phases = MziPhases(value)
    try:
        full = mzi_coincidence(source, spp, phases, geom, grid_n=grid_n)
        oracle = delta_limit_oracle(spp, phases)
        return ScanRow(value, full.conditional_pc, oracle, full.throughput_eta, "ok")
    except DegenerateInterferenceError:
        return ScanRow(value, np.nan, np.nan, np.nan, "degenerate")


def _scan_workers() -> int:
    raw = os.environ.get("BIPHOTON_THREADS", "1")
    try:
        n_workers = int(raw)
    except ValueError:
        n_workers = 0
    if n_workers < 1:
        raise ValueError(f"BIPHOTON_THREADS must be a positive integer, got {raw!r}")
    return n_workers


def scan(parameter: str, lo: float, hi: float, steps: int, *,
         spp: SppParams = SppParams(1.0), phases: MziPhases = MziPhases(0.0),
         geom: MziGeometry = MziGeometry(1.0, 1.0), grid_n: int = 1024,
         waist: float = 1.0) -> ScanResult:
    """Sweep zeta or alpha_plus; each row carries the full finite-aperture
    result, the infinite-aperture oracle, and the throughput.  Degenerate
    rows are flagged instead of aborting the sweep.  The source is the
    thin-crystal biphoton of this waist, pumped at 2k."""
    if parameter not in ("zeta", "alpha_plus"):
        raise ValueError(f"scan parameter must be 'zeta' or 'alpha_plus', got {parameter!r}")
    if steps < 2:
        raise ValueError("need at least 2 scan steps")
    if not lo < hi:
        raise ValueError("scan range must satisfy lo < hi")
    if geom.z1 != geom.z2:
        raise ValueError("the thin-crystal source of a scan needs z1 == z2")
    n_workers = _scan_workers()
    source = GaussianBeamParams(waist, geom.z1, 2.0 * geom.k)
    # Build the cached geometry here, so pool threads never build it twice.
    _geometry_for(source, geom, grid_n)
    values = np.linspace(lo, hi, steps)
    args = [(float(v), parameter, source, spp, phases, geom, grid_n) for v in values]
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(lambda a: _scan_row(*a), args))
    else:
        rows = [_scan_row(*a) for a in args]
    metadata = {
        "parameter": parameter, "lo": lo, "hi": hi, "steps": steps,
        "zeta": spp.zeta, "alpha_plus": phases.alpha_plus,
        "z1": geom.z1, "z2": geom.z2, "k": geom.k,
        "aperture_factor": geom.aperture_factor, "circular": geom.circular,
        "grid_n": grid_n, "waist": waist,
        "reference_pc": 0.5,  # no-interference baseline
    }
    return ScanResult(rows, metadata)
