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
from .states import GaussianBeamParams, _check_positive

_ETA_FLOOR = 1e-12
# Midpoint nodes of the oracle's angular quadrature.
_ORACLE_NODES = 4096


@dataclass(frozen=True)
class SppParams:
    """Spiral-phase-plate winding parameter; non-integer values are allowed
    (the plate then has a phase discontinuity along theta = 0)."""

    zeta: float

    def __post_init__(self):
        if not math.isfinite(self.zeta):
            raise ValueError(f"zeta must be finite, got {self.zeta}")
        if not math.isfinite(self.zeta * math.pi):
            raise ValueError(f"zeta = {self.zeta} overflows the plate phase zeta * pi")


@dataclass(frozen=True)
class MziPhases:
    """The aggregate interferometer phase alpha_plus of the sine envelope.
    The other combination, alpha_minus, enters only the overall prefactor
    i exp[i (zeta pi + alpha_minus)], a global phase that is dropped."""

    alpha_plus: float

    def __post_init__(self):
        if not math.isfinite(self.alpha_plus):
            raise ValueError(f"alpha_plus must be finite, got {self.alpha_plus}")


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
        if not all(math.isfinite(z) and z >= 0 for z in (self.z1, self.z2)):
            raise ValueError("propagation distances must be finite and non-negative")
        _check_positive("k", self.k)
        _check_positive("aperture_factor", self.aperture_factor)


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
    q2 = amp.grid.axis ** 2

    def phase(z: float) -> np.ndarray:
        # exp(i k z) e(q_x) e(q_y) with e(q) = exp(-i q^2 z / (2k)), per axis
        with np.errstate(over="ignore", invalid="ignore"):
            chirp = -1j * q2 * z / (2.0 * k)
        if not (math.isfinite(k * z) and np.isfinite(chirp).all()):
            raise ValueError(f"z = {z} and k = {k} on a grid of half-width "
                             f"{amp.grid.half_width} do not give a finite Fresnel phase "
                             "k z - |q|^2 z / (2k)")
        e = np.exp(chirp)
        return np.outer(np.exp(1j * k * z) * e, e)

    return replace(amp, photon1=amp.photon1 * phase(z1), photon2=amp.photon2 * phase(z2))


def spp_phase(mode: TransverseMode, zeta: float) -> TransverseMode:
    """Pointwise spiral phase exp(i zeta theta)."""
    if not math.isfinite(zeta * 2.0 * math.pi):
        raise ValueError(f"zeta = {zeta} does not give a finite plate phase zeta * theta "
                         f"up to 2 pi zeta")
    return TransverseMode(
        mode.values * np.exp(1j * zeta * azimuth(mode.grid)),
        mode.grid, mode.representation,
    )


def _disc(grid: Grid) -> np.ndarray:
    """1 on the disc inscribed in the grid, 0 outside."""
    x, y = grid.meshgrid()
    return (x ** 2 + y ** 2 <= grid.half_width ** 2).astype(float)


def _sine(theta: np.ndarray, zeta: float, alpha_plus: float) -> np.ndarray:
    # alpha_plus only through its cosine and sine, as on the fast path: a large
    # alpha_plus added as it is would round the angular term away
    return np.sin((theta - np.pi) * zeta + math.atan2(math.sin(alpha_plus), math.cos(alpha_plus)))


def sine_envelope(grid: Grid, zeta: float, alpha_plus: float) -> np.ndarray:
    """The MZI envelope sin[zeta (theta - pi) + alpha_plus] on photon 1."""
    return _sine(azimuth(grid), zeta, alpha_plus)


def _result(j: float, kept: float, total: float, spp: SppParams,
            phases: MziPhases) -> MziResult:
    """P_c = (1 - j / kept) / 2 and eta = kept / total for the sigma overlap j
    of the kept (enveloped) norm, or DegenerateInterferenceError when eta is
    below _ETA_FLOOR."""
    eta = kept / total
    if eta < _ETA_FLOOR:
        raise DegenerateInterferenceError(
            f"MZI output vanished (eta = {eta:.3e}) for zeta = {spp.zeta}, "
            f"alpha_plus = {phases.alpha_plus}")
    return MziResult(conditional_pc=(1.0 - j / kept) / 2.0, throughput_eta=eta)


# Gaussian taps g(s) = exp(-s^2 / (2 w^2)) with |s| > _TAP_CUTOFF * w are
# dropped: each is below exp(-_TAP_CUTOFF^2 / 2) < 5e-19 of the peak.
_TAP_CUTOFF = 9.2
# Kernel frequencies whose Gaussian spectrum is below _SPECTRUM_CUTOFF of its
# peak are dropped from the sigma overlap; see _thin_crystal_fast for the bound.
_SPECTRUM_CUTOFF = 1e-17


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
class _FastGeometry:
    """The parts of the thin-crystal fast path that do not depend on zeta or
    alpha_plus.  Arrays over the grid are kept on the quadrant x > 0, y > 0
    alone, which the other three mirror (see _thin_crystal_fast); every
    array is read-only."""

    mask: np.ndarray      # aperture on the quadrant, bool: 1 byte a sample
    azimuth: np.ndarray   # theta_1 in (0, pi / 2) on the quadrant
    fft_len: int          # L: zero-padded transform length per axis
    kx: np.ndarray        # kept frequencies along axis 0, as indices mod L
    mirror: np.ndarray    # position of -kx in kx
    weight: np.ndarray    # (kept ky, len(kx)) weights of the spectral num
    y_mirror: np.ndarray  # (kept ky, 1): e^{2 pi i ky / L}
    c: np.ndarray         # C_1: C = H M H on the quadrant
    tot: float            # sum(M * C) over the whole grid: 4 sum(M_1 C_1)

    def spectrum(self, rows: np.ndarray) -> np.ndarray:
        """The kept block of the L x L DFT of a whole envelope, from the
        (kept ky, n / 2) y-spectra of its rows at x < 0 and at x > 0, each
        in the quadrant's order: rows ky, columns kx.  The FFT along x runs
        over contiguous rows, which is faster than along axis 0."""
        cols = np.concatenate([rows[0][:, ::-1], rows[1]], axis=1)
        return np.fft.fft(cols, self.fft_len, axis=1)[:, self.kx]


@lru_cache(maxsize=4)
def _fast_geometry(n: int, aperture_factor: float, circular: bool, w: float) -> _FastGeometry:
    if aperture_factor < 4.0:
        # stacklevel 4 names the caller of mzi_coincidence or scan
        warnings.warn("aperture_factor below 4 barely covers the biphoton "
                      "correlation width; results will be aperture-dominated",
                      stacklevel=4)
    grid = make_grid(n, aperture_factor * w)
    half = n // 2
    # _disc for the square too: its n^2 temporaries lift glibc's mmap threshold; rows don't fault
    mask = _disc(grid)[half:, half:].astype(bool) | (not circular)
    h = grid.spacing
    reach = int(_TAP_CUTOFF * w / h)
    band = min(n - 1, reach)
    fft_len = _fft_size(n + band)
    taps = np.zeros(fft_len)
    offsets = np.arange(-band, band + 1)
    taps[offsets % fft_len] = np.exp(-(offsets * h) ** 2 / (2.0 * w ** 2))
    g_hat = np.fft.fft(taps).real  # the taps are even, so their spectrum is real
    # C_1 = A M_1 A with the folded Hankel A[i, k] = g(x_i + x_k) + g(x_i - x_k)
    # on the quadrant, where x_i = (i + 1/2) h
    i = np.arange(half)
    fold = taps[i[:, None] + i + 1] + taps[(i[:, None] - i) % fft_len]
    c = fold @ mask @ fold
    # where the grid, not _TAP_CUTOFF, ends the taps, g_hat is not a Gaussian: keep it all
    cut = math.ceil(math.sqrt(-2.0 * math.log(_SPECTRUM_CUTOFF)) * fft_len * h
                    / (2.0 * math.pi * w)) if reach < n else fft_len
    kx = np.arange(-cut, cut + 1) % fft_len if 2 * cut + 1 < fft_len else np.arange(fft_len)
    ky = np.arange(min(cut, fft_len // 2) + 1)
    position = np.empty(fft_len, int)
    position[kx] = np.arange(kx.size)
    # rfft keeps ky >= 0; every ky other than 0 and L/2 stands for +-ky
    doubled = np.where((ky == 0) | (2 * ky == fft_len), 1.0, 2.0)
    shift = np.exp(-2j * np.pi * (kx * (n - 1) % fft_len) / fft_len)
    weight = np.outer(doubled * g_hat[ky], g_hat[kx] * shift) / fft_len ** 2
    axis = grid.axis[half:]
    theta = np.arctan2(axis[None, :], axis[:, None])  # azimuth(grid)[half:, half:]
    y_mirror = np.exp(2j * np.pi * ky / fft_len)[:, None]
    mirror = position[-kx % fft_len]
    for arr in (mask, theta, kx, mirror, weight, y_mirror, c):
        arr.setflags(write=False)
    return _FastGeometry(mask, theta, fft_len, kx, mirror, weight, y_mirror, c,
                         4.0 * float(np.sum(mask * c)))


def _source_geometry(source: GaussianBeamParams, geom: MziGeometry, grid_n: int) -> _FastGeometry:
    """The fast-path geometry of a thin-crystal source, propagated z1 = z2 = z at k = k_p / 2."""
    if not (geom.z1 == geom.z2 == source.z and source.pump_wavenumber == 2.0 * geom.k):
        raise ValueError(f"thin-crystal source at z = {source.z} pumped at "
                         f"{source.pump_wavenumber} requires z1 == z2 == z and k = "
                         f"pump_wavenumber / 2, got z1 = {geom.z1}, z2 = {geom.z2}, k = {geom.k}")
    return _fast_geometry(grid_n, geom.aperture_factor, geom.circular, source.spot_size)


def _quadrant_coefficients(zeta: float, cos_a: float, sin_a: float) -> np.ndarray:
    """(p_k, r_k) per quadrant k, with sin[zeta (theta - pi) + alpha] =
    p_k sin(zeta theta_1) + r_k cos(zeta theta_1) on quadrant k = 0..3 (x > 0,
    y > 0; x < 0, y > 0; x < 0, y < 0; x > 0, y < 0) for (cos_a, sin_a) =
    (cos alpha, sin alpha); see _thin_crystal_fast."""
    cz, sz = math.cos(zeta * math.pi), math.sin(zeta * math.pi)
    # cos and sin of alpha + gamma at gamma = -zeta pi and at gamma = +zeta pi
    c0, s0 = cos_a * cz + sin_a * sz, sin_a * cz - cos_a * sz
    c3, s3 = cos_a * cz - sin_a * sz, sin_a * cz + cos_a * sz
    return np.array([[c0, s0], [-cos_a, sin_a], [cos_a, sin_a], [-c3, s3]])


def _fold(geo: _FastGeometry, zeta: float, basis: list[tuple[float, float]],
          map_) -> tuple[np.ndarray, np.ndarray]:
    """Per basis vector v = (cos alpha, sin alpha), the (kept ky, n / 2)
    y-spectra of the envelope's rows at x < 0 and at x > 0, stacked
    (len(basis), 2, kept ky, n / 2), and the Gram D of the envelopes; see
    _thin_crystal_fast.  The four half-row spectra die on return, before the
    FFTs along x: held through them, they raised a row's peak memory past
    what the allocator keeps, and at n = 256 every row faulted its pages in
    afresh."""
    # The kept ky of the half-row spectra of s and c, (ky, x), then those of
    # their mirrors in y.
    halves = np.empty((4, geo.weight.shape[0], geo.mask.shape[1]), complex)

    def enveloped(k, trig):
        b = np.multiply(geo.azimuth, zeta)
        trig(b, out=b)
        b *= geo.mask
        halves[k] = np.fft.rfft(b, geo.fft_len, axis=1)[:, :halves.shape[1]].T
        np.conjugate(halves[k], out=halves[k + 2])
        halves[k + 2] *= geo.y_mirror
        return b

    def quadrant_gram(s, c):
        # <s^2, C_1>, <s c, C_1> and <c^2, C_1>, added pairwise by np.sum: a
        # BLAS dot drifts by ~1e-12 over 10^6 like terms
        gram = np.empty((2, 2))
        weighted = s * geo.c
        gram[0, 1] = gram[1, 0] = np.sum(weighted * c)
        weighted *= s
        gram[0, 0] = np.sum(weighted)
        np.multiply(c, geo.c, out=weighted)
        weighted *= c
        gram[1, 1] = np.sum(weighted)
        return gram

    gram = quadrant_gram(*map_(enveloped, (0, 1), (np.sin, np.cos)))
    coef = np.array([_quadrant_coefficients(zeta, *v) for v in basis])
    den = np.einsum("aki,ij,bkj->ab", coef, gram, coef)
    # Per basis vector, the rows at x < 0 take quadrants 1 and 2 and those at
    # x > 0 quadrants 0 and 3, each a real combination of the four halves.
    rows = (coef[:, [[1, 2], [0, 3]]].reshape(-1, 4)
            @ halves.view(float).reshape(4, -1)).view(complex).reshape(-1, 2, *halves.shape[1:])
    return rows, den


def _thin_crystal_fast(geo: _FastGeometry, spp: SppParams, alphas: list[float],
                       map_=map) -> list[tuple[float, float]]:
    # Exact reorganization of the discrete 4D quadrature.  The biphoton
    # weight depends only on x1 + x2 (the phase factors cancel pointwise
    # between Phi(1,2) and Phi*(sigma(1,2))) and is separable per axis:
    # g(x1 + x2) g(y1 + y2) with g(s) = exp(-s^2 / (2 w^2)).  A sum
    # sum_{1,2} A(1) B(2) g(x1 + x2) g(y1 + y2) is therefore sum(A * H B H)
    # with the symmetric Hankel matrix H[i, k] = g(x_i + x_k) = g((i + k -
    # (n-1)) h).  With E the masked sine envelope and M the aperture,
    #     num = sum(E * H (E reflected in y) H) = sum(E * (g * F)),
    #     den = sum(E^2 * C),  tot = sum(M * C),  C = H M H,
    # where * between g and an array is the 2-D convolution with the kernel
    # g(s_x) g(s_y) and F is E reflected in x (axis 0).
    # The kernel keeps only |s| <= _TAP_CUTOFF w.  Every row of H holds
    # g(0) = 1 (x_i + x_k = 0 at k = n-1-i), and the dropped tail of a row
    # sums to at most 2 e^{-42.3} (1 + w / (9.2 h)) < 1.1e-17 of that for
    # spacings h >= w / 100, far below the ~1e-16 roundoff of the FFTs.
    #
    # On the zero-padded L x L grid, L = _fft_size(n + band), the circular
    # convolution equals the linear one on the n x n outputs, so by Parseval
    #     num = L^-2 sum_k conj(Ê(k)) ĝ(kx) ĝ(ky) e^{-2 pi i kx (n-1) / L} Ê(-kx, ky)
    # with Ê the L x L DFT of E and ĝ the real spectrum of the even,
    # band-cut kernel.  The summand is even in ky, so the rfft's ky >= 0
    # suffice with weight 2 off ky = 0 and L/2.  ĝ is a sampled Gaussian,
    # ĝ(k) ~ ĝ(0) exp(-(2 pi k w / (L h))^2 / 2), below _SPECTRUM_CUTOFF ĝ(0)
    # beyond
    #     K = ceil(sqrt(2 ln(1 / _SPECTRUM_CUTOFF)) L h / (2 pi w)),
    # and only |kx|, ky <= K are kept (K = 127 of L/2 = 576 at n = 1024,
    # aperture 40; K hardly depends on n).  The crop is active only when
    # the grid holds the whole kernel, int(_TAP_CUTOFF w / h) < n (an aperture
    # factor above about 4.6), so that ĝ is the spectrum of the Gaussian taps
    # and not of taps the grid cut short, and when 2K + 1 < L, i.e.
    # h < 0.36 w, where the nearest aliased image of the Gaussian in ĝ is
    # below the same bound; otherwise every frequency is kept.  So a dropped
    # frequency has ĝ(kx) ĝ(ky) <= 2 _SPECTRUM_CUTOFF ĝ(0)^2, and by
    # Cauchy-Schwarz and Parseval the dropped terms sum to at most
    # 2 _SPECTRUM_CUTOFF ĝ(0)^2 ||E||^2, while |num| is of the order of
    # ĝ(0)^2 ||E||^2 and its roundoff of 1e-16 of that.  M, the azimuth, the
    # crop, its weights, C and tot depend only on the geometry and are cached,
    # M, the azimuth and C on one quadrant.
    #
    # The grid and the aperture are closed under x -> -x and y -> -y, so E
    # is made on the quadrant x > 0, y > 0 alone.  There theta = theta_1 in
    # (0, pi / 2), and quadrant k = 0..3 (x > 0, y > 0; x < 0, y > 0;
    # x < 0, y < 0; x > 0, y < 0) has theta = theta_1, pi - theta_1,
    # pi + theta_1, 2 pi - theta_1 at the mirrored sample.  So
    # zeta (theta - pi) = sigma_k zeta theta_1 + gamma_k with sigma = +1, -1,
    # +1, -1 and gamma = -zeta pi, 0, 0, +zeta pi, and on quadrant k
    #     E_k = sigma_k cos(alpha + gamma_k) s + sin(alpha + gamma_k) c,
    #     s = M sin(zeta theta_1),  c = M cos(zeta theta_1)
    # (_quadrant_coefficients), so the trig runs on (n/2)^2 samples with
    # arguments up to zeta pi / 2.  A row's y-spectrum is folded from the
    # spectra F of the quadrant's half rows: its y > 0 half is a half row
    # that starts at column n/2, and its y < 0 half is a half row reversed to
    # end at column n/2 - 1, whose DFT is e^{-2 pi i ky (n/2 - 1) / L} conj(F)
    # for a real half row.  Taking out e^{-2 pi i ky (n/2) / L}, a row is
    #     F_k(ky) + e^{2 pi i ky / L} conj(F_k'(ky))
    # with k, k' = 0, 3 for x > 0 and 1, 2 for x < 0.  The factor taken out
    # depends on ky alone, and num pairs conj(Ê(kx, ky)) with Ê(-kx, ky), so
    # it cancels.  The rows with x < 0 are the quadrant's rows reversed, and
    # the FFT along x runs over all n rows, with its shift in the weights.
    # C = H M H is even in x and in y, since M is and
    # H[n-1-i, k] = g(x_k - x_i) = H[i, n-1-k].  So C is built on the
    # quadrant alone: folding the k and l of C[i, j] = sum_{k,l} H[i, k]
    # M[k, l] H[l, j] onto x_k, y_l > 0 gives C_1 = A M_1 A with the folded
    # Hankel A[i, k] = g(x_i + x_k) + g(x_i - x_k), x_i = (i + 1/2) h, read
    # off the band-cut taps, and tot = 4 sum(M_1 C_1): two (n/2)^3 matrix
    # products at build, no 2-D FFT.  With C_1 = C on the
    # quadrant, den = sum_k sum(E_k^2 * C_1) needs only the three quadrant
    # sums of s^2 C_1, s c C_1 and c^2 C_1.  Per zeta: a sine and a cosine on
    # the quadrant, one rfft along y of the n/2 rows of s and of c, and those
    # three sums; per envelope: two real combinations of the four
    # (K + 1) x n/2 half-row spectra (one matmul for all envelopes, in _fold),
    # the row reversal, one length-L FFT along x of the K + 1 columns, and
    # one weighted sum over (2K + 1)(K + 1) terms.
    #
    # num and den are quadratic in E, and at fixed zeta the envelope is
    # linear in v = (cos alpha, sin alpha).  So for envelopes E_a of basis
    # vectors v_a, every alpha reads num = v^T N v and den = v^T D v off the
    # Grams N[a, b] = sum(E_a * (g * E_b reflected in x)) and
    # D[a, b] = sum(E_a * E_b * C), both symmetric.  One alpha takes the one
    # basis vector (cos alpha, sin alpha) and v = [1] (the per-call cost);
    # several take (1, 0) and (0, 1), with the sine and the cosine, then the
    # two envelopes, mapped by map_, for the whole sweep.  Each alpha gives
    # (num, den), the j and kept of _result; its total is geo.tot.
    if len(alphas) == 1:
        basis = [(math.cos(alphas[0]), math.sin(alphas[0]))]
        weights = np.ones((1, 1))
    else:
        basis = [(1.0, 0.0), (0.0, 1.0)]
        weights = np.column_stack([np.cos(alphas), np.sin(alphas)])
    rows, den = _fold(geo, spp.zeta, basis, map_)
    spectra = list(map_(geo.spectrum, rows))
    upper = np.triu_indices(len(basis))
    num = np.empty((len(basis),) * 2)
    num[upper] = num[upper[::-1]] = [
        np.vdot(spectra[a], geo.weight * spectra[b][:, geo.mirror]).real for a, b in zip(*upper)]
    return [(float(v @ num @ v), float(v @ den @ v)) for v in weights]


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
        geo = _source_geometry(source, geom, grid_n)
        ((j, kept),) = _thin_crystal_fast(geo, spp, [phases.alpha_plus])
        total = geo.tot
    elif isinstance(source, TwoPhotonAmplitude):
        amp = source
        if amp.representation is Representation.MOMENTUM:
            amp = position_representation(fresnel_phase(amp, geom.z1, geom.z2, geom.k))
        # One Gram-engine call with the envelope and the aperture as weights
        # gives the clipped norm, the enveloped norm and J of the envelope; eta
        # is relative to the clipped norm, and no factor array is copied or built.
        total, kept, j = _sigma_grams(amp, sine_envelope(amp.grid, spp.zeta, phases.alpha_plus),
                                      _disc(amp.grid) if geom.circular else None)
        if total <= 0.0:
            raise ValueError("cannot normalize a zero-norm amplitude")
    else:
        raise TypeError("source must be GaussianBeamParams or TwoPhotonAmplitude, "
                        f"got {type(source).__name__}")
    return _result(j, kept, total, spp, phases)


def delta_limit_oracle(spp: SppParams, phases: MziPhases) -> float:
    """Infinite-aperture limit of the MZI coincidence probability.

    With an aperture much larger than the spot size the biphoton enforces
    x2 = -x1, i.e. theta2 = theta1 + pi, and the 4D overlap collapses to a 1D
    angular integral.  The reflected photon-2 angle is then (pi - theta1)
    mod 2 pi, so

        P_c = (1/2) (1 - I),
        I = int S(theta) S((pi - theta) mod 2 pi) dtheta / int S(theta)^2 dtheta,

    with S(theta) = sin[zeta (theta - pi) + alpha_plus].  For integer zeta
    this evaluates to (1/2)[1 + (-1)^zeta cos(2 alpha_plus)].  Relative to a
    unit envelope on every node, the envelope is degenerate below the same
    eta floor as the finite-aperture paths.
    """
    theta = (np.arange(_ORACLE_NODES) + 0.5) * 2.0 * np.pi / _ORACLE_NODES
    s = _sine(theta, spp.zeta, phases.alpha_plus)
    # the nodes are closed under theta -> (pi - theta) mod 2 pi, which takes
    # node j to node (N/2 - 1 - j) mod N
    s_ref = np.roll(s[::-1], _ORACLE_NODES // 2)
    return _result(float(np.sum(s * s_ref)), float(np.sum(s * s)), _ORACLE_NODES, spp,
                    phases).conditional_pc


def _scan_row(value: float, spp: SppParams, phases: MziPhases, j: float, kept: float,
              total: float) -> ScanRow:
    try:
        full = _result(j, kept, total, spp, phases)
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
    if not math.isfinite(hi - lo):
        raise ValueError(f"scan range must be finite, got {lo}, {hi}")
    n_workers = _scan_workers()
    # Build the cached geometry here, so pool threads never build it twice.
    geo = _source_geometry(GaussianBeamParams(waist, geom.z1, 2.0 * geom.k), geom, grid_n)
    values = [float(v) for v in np.linspace(lo, hi, steps)]

    def zeta_row(zeta: float) -> ScanRow:
        spp_row = SppParams(zeta)
        ((j, kept),) = _thin_crystal_fast(geo, spp_row, [phases.alpha_plus])
        return _scan_row(zeta, spp_row, phases, j, kept, geo.tot)

    # The pool runs the rows of a zeta sweep, or the two sandwiches that an
    # alpha_plus sweep shares (see _thin_crystal_fast).
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        if parameter == "zeta":
            rows = list(pool.map(zeta_row, values))
        else:
            rows = [_scan_row(alpha, spp, MziPhases(alpha), j, kept, geo.tot) for alpha, (j, kept)
                    in zip(values, _thin_crystal_fast(geo, spp, values, pool.map))]
    metadata = {
        "parameter": parameter, "lo": lo, "hi": hi, "steps": steps,
        "zeta": spp.zeta, "alpha_plus": phases.alpha_plus,
        "z1": geom.z1, "z2": geom.z2, "k": geom.k,
        "aperture_factor": geom.aperture_factor, "circular": geom.circular,
        "grid_n": grid_n, "waist": waist,
        "reference_pc": 0.5,  # no-interference baseline
    }
    return ScanResult(rows, metadata)
